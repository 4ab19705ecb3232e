"""The two-process machinery of training and evaluation: the fork gate, a
worker forked and pinned beside this process, the handoff of half a job, and
a stop that works whatever state the worker is in.

:func:`forkable` holds only with two or more CPUs in the mask and one OS
thread (a BLAS pool in each process would fight over the cores, and only a
single-threaded process is safe to fork), so under ``taskset -c N`` every
caller runs serially, with the same outputs. :class:`Forked` pins this
process to the first CPU of its mask and the worker to the last; split runs
side by side thus share one CPU for their parents, and a sweep should pin
each run with ``taskset -c N``. A worker's exception is raised in the parent
with its traceback (:func:`run`, :meth:`Forked.reply`). A :class:`Half`
carries a job's inputs in (:meth:`Forked.open_half`) and its values out
(:func:`serve`)."""

from __future__ import annotations

import contextlib
import math
import mmap
import multiprocessing
import os
import time
import traceback

import numpy as np

WORKER_STOP_TIMEOUT_S = 10.0
# A wait on the other process spins this long before it blocks: a blocked
# process took 44 us (median) to 407 us (p90) to wake on a KVM host.
SPIN_S = 0.002


def forkable() -> bool:
    """Whether this process may share work with a forked worker: it may run
    on two or more CPUs and has exactly one OS thread."""
    try:
        return (len(os.sched_getaffinity(0)) >= 2
                and len(os.listdir("/proc/self/task")) == 1)
    except (AttributeError, OSError):  # no affinity call or no /proc: serial
        return False


class Stopped(RuntimeError):
    """A wait on the half ended: the work stops or the other process exited."""


def shared(n: int, dtype=np.int64) -> np.ndarray:
    """n zeros of an 8-byte dtype in memory that a forked process shares."""
    return np.frombuffer(mmap.mmap(-1, 8 * n), dtype)


class Half:
    """The handoff of half a job from a parent to its worker: float64 ``inputs``
    of the given ``shapes``, the worker's ``rows`` values and a stop flag in
    shared memory, and two semaphores, ``opened`` by the parent and ``done`` by
    the worker. A wait takes a semaphore, which :meth:`stop` also releases, and
    raises :class:`Stopped` if the half stopped or ``partner_alive()`` turns false."""

    def __init__(self, rows: int, *shapes: tuple[int, ...]):
        ctx = multiprocessing.get_context("fork")
        self.values, self.stopped = shared(rows, np.float64), shared(1)
        self.inputs = [shared(math.prod(shape), np.float64).reshape(shape) for shape in shapes]
        self.opened, self.done = ctx.Semaphore(0), ctx.Semaphore(0)
        parent = os.getpid()  # the worker's view; the parent's is set in Forked
        self.partner_alive = lambda: os.getppid() == parent

    def wait(self, semaphore) -> None:
        """Take ``semaphore``, spinning for up to ``SPIN_S`` before blocking."""
        spin_until = time.perf_counter() + SPIN_S
        while not semaphore.acquire(False):
            if time.perf_counter() > spin_until:
                while not semaphore.acquire(timeout=WORKER_STOP_TIMEOUT_S):
                    if not self.partner_alive():
                        raise Stopped("worker exited")
                break
        if self.stopped[0]:
            raise Stopped("stopped")

    def stop(self) -> None:
        """End every wait on the half, now and later."""
        self.stopped[0] = 1
        self.opened.release()
        self.done.release()


def serve(conn, half: Half, fn) -> None:
    """The worker's loop for a :class:`Half`: each time it opens, write
    ``fn(*half.inputs)`` to its values. It ends when the half stops."""
    while True:
        half.wait(half.opened)
        half.values[:] = fn(*half.inputs)
        half.done.release()


def run(loop, conn, half: Half | None, *args) -> None:
    """A forked worker's body: ``loop(conn, half, *args)`` until it returns,
    the parent goes or the half stops. An exception stops the half and is
    sent back as its traceback text."""
    try:
        loop(conn, half, *args)
    except (EOFError, Stopped):  # the parent has gone or stops the worker
        pass
    except Exception:  # the worker's boundary: report to the parent, then exit
        if half is not None:
            half.stop()
        with contextlib.suppress(OSError):
            conn.send(("error", traceback.format_exc()))


class Forked:
    """A process forked to run ``loop(conn, half, *args)`` (:func:`run`)
    beside this one, with a pipe (``conn``) and optionally a :class:`Half`.
    The two processes are pinned to distinct CPUs of this process's mask;
    :meth:`stop` sends ``None`` and stops the half, terminates the worker if
    it has not ended after ``WORKER_STOP_TIMEOUT_S``, and restores the mask."""

    def __init__(self, loop, args: tuple, half: Half | None, name: str):
        ctx = multiprocessing.get_context("fork")
        self.half = half
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(target=run, name=name,
                                   args=(loop, child_conn, half, *args), daemon=True)
        self.process.start()
        child_conn.close()
        if half is not None:
            half.partner_alive = self.process.is_alive
        self.mask = os.sched_getaffinity(0)
        cpus = sorted(self.mask)
        os.sched_setaffinity(self.process.pid, {cpus[-1]})
        os.sched_setaffinity(0, {cpus[0]})

    def reply(self):
        """The worker's next message after its kind, or its error raised here."""
        try:
            kind, *payload = self.conn.recv()
        except EOFError:
            raise RuntimeError(f"{self.process.name} exited") from None
        if kind == "error":
            raise RuntimeError(f"{self.process.name} failed:\n{payload[0]}")
        return payload

    def open_half(self, timings: dict[str, float], *inputs):
        """Copy ``inputs`` into the half and open it, and return a function
        that waits for its values (adding the seconds to ``timings["wait"]``)
        or raises the worker's error; None, with the half left shut, when an
        input's shape differs from the half's."""
        if [np.shape(x) for x in inputs] != [x.shape for x in self.half.inputs]:
            return None
        for buffer, x in zip(self.half.inputs, inputs):
            buffer[...] = x
        self.half.opened.release()

        def values() -> np.ndarray:
            started = time.perf_counter()
            try:
                self.half.wait(self.half.done)
            except Stopped:  # the worker failed or exited: raise its error
                self.reply()
                raise
            timings["wait"] = timings.get("wait", 0.0) + time.perf_counter() - started
            return self.half.values

        return values

    def stop(self) -> None:
        """Stop the worker, whatever state it is in, and restore this
        process's CPU mask."""
        try:
            if self.half is not None:
                self.half.stop()
            with contextlib.suppress(OSError, EOFError):  # the worker may be gone
                self.conn.send(None)
                while self.conn.poll(WORKER_STOP_TIMEOUT_S):
                    self.conn.recv()
            self.process.join(WORKER_STOP_TIMEOUT_S)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join()
            self.conn.close()
        finally:
            os.sched_setaffinity(0, self.mask)
