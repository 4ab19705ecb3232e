"""The little-endian binary container shared by datasets and checkpoints.

A file is a 4-byte magic, a u32 format version, then a sequence of fields:
u32 integers, UTF-8 text prefixed by its u32 byte length, and raw f32 arrays
whose shapes the surrounding fields declare. :class:`Reader` rejects a wrong
magic or version, a payload shorter than the fields ask for, and bytes left
over after the last field. :class:`Writer` replaces its target atomically
through :func:`write_atomic`, which the package's text outputs (reports,
sidecars, run configs and manifests, trajectory exports) use as well, so a
failed write leaves any earlier file at the path untouched.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import uuid
from pathlib import Path

import numpy as np

_U32 = struct.Struct("<I")


class FormatError(ValueError):
    """Malformed container: bad magic, unsupported version, truncated payload,
    or trailing bytes."""


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it over
    ``path``; on any failure the temporary file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class Writer:
    """Collects the fields of one container in order, then writes them at once."""

    def __init__(self, magic: bytes, version: int):
        self._parts = [magic, _U32.pack(version)]

    def u32(self, value: int) -> None:
        self._parts.append(_U32.pack(value))

    def text(self, value: str) -> None:
        data = value.encode("utf-8")
        self.u32(len(data))
        self._parts.append(data)

    def f32(self, array) -> None:
        self._parts.append(np.asarray(array).astype("<f4").tobytes())

    def write(self, path) -> None:
        """Replace ``path`` atomically with the collected fields."""
        write_atomic(path, b"".join(self._parts))


class Reader:
    """Reads the fields of one container in order; ``kind`` names the file
    type in error messages."""

    def __init__(self, path, magic: bytes, version: int, kind: str):
        self._blob = Path(path).read_bytes()
        self._off = 0
        self._kind = kind
        if self._take(4) != magic:
            raise FormatError(f"bad magic bytes: not a {kind} file")
        found = self.u32()
        if found != version:
            raise FormatError(f"unsupported {kind} version {found}")

    def _take(self, n: int) -> bytes:
        if self._off + n > len(self._blob):
            raise FormatError(
                f"truncated {self._kind} file: wanted {n} bytes at offset "
                f"{self._off}, have {len(self._blob) - self._off}")
        out = self._blob[self._off:self._off + n]
        self._off += n
        return out

    def u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def text(self) -> str:
        return self._take(self.u32()).decode("utf-8")

    def f32(self, shape: tuple[int, ...]) -> np.ndarray:
        """A read-only f32 array of the given shape."""
        return np.frombuffer(self._take(4 * math.prod(shape)), dtype="<f4").reshape(shape)

    def sha256(self) -> str:
        """The hex sha256 digest of the file's bytes as read."""
        return hashlib.sha256(self._blob).hexdigest()

    def finish(self) -> None:
        """Fail unless every byte of the file was read."""
        left = len(self._blob) - self._off
        if left:
            raise FormatError(f"{left} unexpected trailing bytes in {self._kind} file")
