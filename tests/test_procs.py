import ast
import multiprocessing
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import goalsel
from goalsel import procs

PACKAGE = Path(goalsel.__file__).parent


def goalsel_imports(path: Path):
    """(module, name) for each name that the module at ``path`` imports from
    goalsel; ``name`` is None for a whole-module import."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "goalsel"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "goalsel":
                    yield alias.name, None


class TestLayout:
    def test_no_module_imports_another_modules_private_name(self):
        private = []
        for path in sorted(PACKAGE.glob("*.py")):
            for module, name in goalsel_imports(path):
                if name and name.startswith("_") and not name.startswith("__"):
                    private.append(f"{path.name}: {name} from {module}")
        assert private == []

    def test_procs_imports_no_goalsel_module(self):
        assert list(goalsel_imports(PACKAGE / "procs.py")) == []

    def test_no_module_imports_scipy(self):
        # numpy is goalsel's one runtime dependency
        scipy = []
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                scipy += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "scipy"]
        assert scipy == []


def deaf(conn, half):
    """A worker loop that never reads its pipe, so never sees the stop."""
    while True:
        time.sleep(0.05)


class TestForked:
    def test_worker_that_ignores_the_stop_is_terminated(self, monkeypatch):
        mask = os.sched_getaffinity(0)
        if len(mask) < 2:
            pytest.skip("needs two CPUs")
        monkeypatch.setattr(procs, "WORKER_STOP_TIMEOUT_S", 0.2)
        worker = procs.Forked(deaf, (), procs.Half(1), "goalsel-deaf-worker")
        assert os.sched_getaffinity(0) != mask
        started = time.perf_counter()
        worker.stop()
        # the pipe's poll and then the join each wait out the timeout
        assert 0.4 <= time.perf_counter() - started < 5.0
        assert worker.process.exitcode == -signal.SIGTERM
        assert os.sched_getaffinity(0) == mask
        assert multiprocessing.active_children() == []


class TestHalf:
    @staticmethod
    def unforked(half):
        """A Forked around ``half`` with no process, for the parent's side alone."""
        worker = object.__new__(procs.Forked)
        worker.half = half
        return worker

    def test_open_half_copies_the_inputs_and_opens(self):
        half = procs.Half(2, (2, 3), (1, 2, 2))
        s, eps = np.arange(6.0).reshape(2, 3), np.full((1, 2, 2), 0.5)
        assert callable(self.unforked(half).open_half({}, s, eps))
        assert half.opened.acquire(False)
        assert half.inputs[0].tobytes() == s.tobytes()
        assert half.inputs[1].tobytes() == eps.tobytes()

    @pytest.mark.parametrize("shapes", [((3, 3), (1, 2, 2)), ((2, 3), (2, 2, 2)),
                                        ((2, 3),)])
    def test_open_half_with_another_shape_leaves_it_shut(self, shapes):
        half = procs.Half(2, (2, 3), (1, 2, 2))
        inputs = [np.ones(shape) for shape in shapes]
        assert self.unforked(half).open_half({}, *inputs) is None
        assert not half.opened.acquire(False)
        assert not half.inputs[0].any()

    def test_serve_writes_fn_of_the_inputs(self):
        half = procs.Half(2, (2, 3), (1, 2))
        half.inputs[0][:] = np.arange(6.0).reshape(2, 3)
        half.inputs[1][:] = [[10.0, 20.0]]

        def fn(s, eps):
            half.stop()  # the loop ends at its next wait
            return s.sum(axis=1) + eps[0]

        half.opened.release()
        with pytest.raises(procs.Stopped):
            procs.serve(None, half, fn)
        assert half.values.tolist() == [13.0, 32.0]
        assert half.done.acquire(False)
