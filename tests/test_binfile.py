import numpy as np
import pytest

from goalsel import binfile
from goalsel.binfile import FormatError
from goalsel.data import load, save
from goalsel.nn import load_checkpoint, save_checkpoint
from conftest import make_dataset


def write_dataset(path, seed=0):
    save(make_dataset(np.random.default_rng(seed), n_traj=2), path)


def write_checkpoint(path, seed=0):
    value = np.random.default_rng(seed).normal(size=(2, 3)).astype(np.float32)
    save_checkpoint(path, {"a": value}, config_hash="h")


FORMATS = {
    "dataset": (write_dataset, load),
    "checkpoint": (write_checkpoint, load_checkpoint),
}

CORRUPTIONS = {
    "bad_magic": (lambda blob: b"NOPE" + blob[4:], "bad magic"),
    "version": (lambda blob: blob[:4] + (2).to_bytes(4, "little") + blob[8:],
                "unsupported (dataset|checkpoint) version 2"),
    "truncated": (lambda blob: blob[:-8], "truncated"),
    "trailing": (lambda blob: blob + b"xx", "trailing"),
}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_corrupt_file_rejected(tmp_path, fmt, corruption):
    write, read = FORMATS[fmt]
    corrupt, message = CORRUPTIONS[corruption]
    path = tmp_path / "f.bin"
    write(path)
    read(path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(FormatError, match=message):
        read(path)


class HalfWrite:
    """A file whose write stores half the data, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("disk full")


def fail_replace(src, dst):
    raise OSError("disk full")


@pytest.mark.parametrize("failing", ["write", "replace"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_failed_write_keeps_old_file(tmp_path, monkeypatch, fmt, failing):
    write, read = FORMATS[fmt]
    path = tmp_path / "f.bin"
    write(path)
    before = path.read_bytes()
    if failing == "write":
        monkeypatch.setattr(binfile, "open", lambda p, mode: HalfWrite(open(p, mode)),
                            raising=False)
    else:
        monkeypatch.setattr(binfile.os, "replace", fail_replace)
    with pytest.raises(OSError, match="disk full"):
        write(path, seed=1)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]
    read(path)
