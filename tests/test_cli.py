import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

from goalsel import binfile
from goalsel.cli import main
from goalsel.data import load


@pytest.fixture(scope="module")
def tiny_setup(tmp_path_factory):
    """A small dataset plus a short training run driven through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    data_path = root / "data.bin"
    rc = main(["gen-data", "--out", str(data_path),
               "--set", "n_demos=12", "--set", "seed=5"])
    assert rc == 0
    run_dir = root / "run"
    rc = main(["train", "--dataset", str(data_path), "--out", str(run_dir),
               "--variant", "bcq", "--seed", "1",
               "--set", "n_iter=60", "--set", "hidden_dim=8",
               "--set", "ckpt_every=30", "--set", "batch_size=16"])
    assert rc == 0
    return root, data_path, run_dir


class TestImport:
    def test_cli_loads_no_scipy(self):
        # scipy.spatial alone would add about 36 MB to every goalsel process
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys, goalsel.cli; print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.stdout.strip() == "[]"


class TestHelp:
    @pytest.mark.parametrize("argv", [
        ["--help"], ["gen-data", "--help"], ["train", "--help"],
        ["eval", "--help"], ["viz", "--help"], ["grad-check", "--help"],
    ])
    def test_help_exits_zero(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


class TestGenData:
    def test_writes_dataset_and_sidecar(self, tiny_setup):
        root, data_path, _ = tiny_setup
        dataset = load(data_path)
        assert len(dataset) == 12
        sidecar = json.loads(data_path.with_suffix(".json").read_text())
        assert sidecar["config"]["n_demos"] == 12
        assert len(sidecar["decisions"]) == 12
        assert sidecar["lengths"] == [t.length for t in dataset]

    def test_filter_best_applied(self, tmp_path):
        out = tmp_path / "d.bin"
        rc = main(["gen-data", "--out", str(out), "--filter-best", "0.5",
                   "--set", "n_demos=10", "--set", "seed=2"])
        assert rc == 0
        assert len(load(out)) == 5

    def test_filter_best_keeps_each_demos_decisions(self, tmp_path):
        sets = ["--set", "n_demos=10", "--set", "seed=2"]
        full_path, best_path = tmp_path / "full.bin", tmp_path / "best.bin"
        assert main(["gen-data", "--out", str(full_path), *sets]) == 0
        assert main(["gen-data", "--out", str(best_path), "--filter-best", "0.5",
                     *sets]) == 0
        full, best = load(full_path), load(best_path)
        full_decisions = json.loads(full_path.with_suffix(".json").read_text())["decisions"]
        sidecar = json.loads(best_path.with_suffix(".json").read_text())
        assert len(sidecar["decisions"]) == sidecar["n_trajectories"] == len(best) == 5
        for traj, decisions in zip(best, sidecar["decisions"]):
            i = next(i for i, t in enumerate(full) if np.array_equal(t.states, traj.states))
            assert decisions == full_decisions[i]

    def test_unknown_config_key_fails(self, tmp_path):
        rc = main(["gen-data", "--out", str(tmp_path / "d.bin"),
                   "--set", "bogus_key=1"])
        assert rc == 1

    def test_json_out_is_rejected(self, tmp_path, capsys):
        # the sidecar's path would be the dataset's own
        out = tmp_path / "d.json"
        assert main(["gen-data", "--out", str(out), "--set", "n_demos=3"]) == 1
        assert "sidecar" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_override_format_fails(self, tmp_path):
        rc = main(["gen-data", "--out", str(tmp_path / "d.bin"),
                   "--set", "n_demos"])
        assert rc == 1


class TestTrainEval:
    def test_run_artifacts(self, tiny_setup):
        _, _, run_dir = tiny_setup
        assert (run_dir / "config.json").exists()
        assert (run_dir / "metrics.csv").exists()
        names = sorted(p.name for p in run_dir.glob("ckpt_*.bin"))
        assert names == ["ckpt_0000000.bin", "ckpt_0000030.bin",
                         "ckpt_0000060.bin"]

    def test_manifest_records_dataset_digest(self, tiny_setup):
        _, data_path, run_dir = tiny_setup
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["dataset_sha256"] == hashlib.sha256(
            data_path.read_bytes()).hexdigest()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_training_fails_cleanly(self, tiny_setup, tmp_path, capsys):
        _, data_path, _ = tiny_setup
        rc = main(["train", "--dataset", str(data_path), "--out", str(tmp_path / "r"),
                   "--variant", "bc", "--set", "lr=1e300"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: non-finite loss_policy at iteration ")

    def test_negative_seed_fails_before_writing(self, tiny_setup, tmp_path, capsys):
        _, data_path, run_dir = tiny_setup
        rc = main(["train", "--dataset", str(data_path), "--out", str(tmp_path / "r"),
                   "--seed", "-1"])
        assert rc == 1 and "seed" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()
        rc = main(["eval", "--run", str(run_dir), "--dataset", str(data_path),
                   "--report", str(tmp_path / "report.json"), "--set", "seeds=-3"])
        assert rc == 1 and "seeds" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_eval_writes_report(self, tiny_setup):
        root, data_path, run_dir = tiny_setup
        report_path = root / "report.json"
        rc = main(["eval", "--run", str(run_dir), "--dataset", str(data_path),
                   "--report", str(report_path),
                   "--set", "n_episodes=2", "--set", "h_max=60",
                   "--set", "m_actions=4"])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert set(report["per_checkpoint"]) == {
            "ckpt_0000000.bin", "ckpt_0000030.bin", "ckpt_0000060.bin"}
        assert 0.0 <= report["best"]["success_rate"]["mean"] <= 1.0

    def test_failed_report_write_keeps_old_report(self, tiny_setup, tmp_path,
                                                  monkeypatch, capsys):
        root, data_path, run_dir = tiny_setup
        report_path = tmp_path / "report.json"
        argv = ["eval", "--run", str(run_dir), "--dataset", str(data_path),
                "--report", str(report_path), "--set", "n_episodes=1",
                "--set", "h_max=20", "--set", "m_actions=2"]
        report_path.write_text("old report\n")

        def fail_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(binfile.os, "replace", fail_replace)
        assert main(argv) == 1
        assert "error: disk full" in capsys.readouterr().err
        assert report_path.read_text() == "old report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_eval_missing_run_no_partial_report(self, tiny_setup):
        root, data_path, _ = tiny_setup
        report_path = root / "nope_report.json"
        rc = main(["eval", "--run", str(root / "missing"),
                   "--dataset", str(data_path), "--report", str(report_path)])
        assert rc == 1
        assert not report_path.exists()

    def test_train_eval_determinism_byte_identical(self, tiny_setup, tmp_path):
        _, data_path, _ = tiny_setup
        args = ["--dataset", str(data_path), "--variant", "bcq", "--seed", "3",
                "--set", "n_iter=40", "--set", "hidden_dim=8",
                "--set", "ckpt_every=40", "--set", "batch_size=16"]
        reports = []
        for name in ("a", "b"):
            run_dir = tmp_path / name
            assert main(["train", "--out", str(run_dir)] + args) == 0
            report_path = tmp_path / f"{name}.json"
            assert main(["eval", "--run", str(run_dir), "--dataset",
                         str(data_path), "--report", str(report_path),
                         "--set", "n_episodes=2", "--set", "h_max=50",
                         "--set", "m_actions=4"]) == 0
            reports.append(json.loads(report_path.read_text()))
        ckpt_a = (tmp_path / "a" / "ckpt_0000040.bin").read_bytes()
        ckpt_b = (tmp_path / "b" / "ckpt_0000040.bin").read_bytes()
        assert ckpt_a == ckpt_b
        for rep in reports:
            rep["run_dir"] = ""
        assert json.dumps(reports[0], sort_keys=True) == \
            json.dumps(reports[1], sort_keys=True)

    def test_train_into_used_run_dir_fails(self, tiny_setup):
        _, data_path, run_dir = tiny_setup
        before = (run_dir / "config.json").read_bytes()
        rc = main(["train", "--dataset", str(data_path), "--out", str(run_dir),
                   "--variant", "bc", "--set", "n_iter=4"])
        assert rc == 1
        assert (run_dir / "config.json").read_bytes() == before

    def test_corrupt_dataset_fails(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOPE")
        rc = main(["train", "--dataset", str(bad), "--out", str(tmp_path / "r")])
        assert rc == 1

    def test_missing_dataset_fails(self, tmp_path):
        rc = main(["train", "--dataset", str(tmp_path / "no.bin"),
                   "--out", str(tmp_path / "r")])
        assert rc == 1


class TestViz:
    def test_viz_outputs(self, tiny_setup, tmp_path):
        _, data_path, run_dir = tiny_setup
        out = tmp_path / "viz"
        rc = main(["viz", "--dataset", str(data_path), "--run", str(run_dir),
                   "--out", str(out), "--episodes", "2"])
        assert rc == 0
        assert (out / "trajectories.svg").exists()
        assert (out / "rollout_states.csv").exists()

    def test_two_runs_of_one_variant_both_drawn(self, tiny_setup, tmp_path):
        # the second run's label holds its directory, whose name may hold
        # characters that XML and CSV treat specially
        _, data_path, run_dir = tiny_setup
        for name in ("run2", "run&<,2"):
            second = tmp_path / name
            rc = main(["train", "--dataset", str(data_path), "--out", str(second),
                       "--variant", "bcq", "--seed", "2", "--set", "n_iter=10",
                       "--set", "hidden_dim=8", "--set", "batch_size=16"])
            assert rc == 0
            out = tmp_path / f"viz-{name}"
            rc = main(["viz", "--dataset", str(data_path), "--run", str(run_dir),
                       "--run", str(second), "--out", str(out), "--episodes", "2"])
            assert rc == 0
            labels = ("bcq", f"bcq ({second})")
            with open(out / "rollout_states.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert {tuple(row[:2]) for row in rows} == {(label, ep) for label in labels
                                                        for ep in ("0", "1")}
            svg = minidom.parse(str(out / "trajectories.svg"))
            assert tuple(node.firstChild.data
                         for node in svg.getElementsByTagName("text")) == labels


class TestConfigNumbers:
    @pytest.mark.parametrize("command, doc, key", [
        ("train", {"n_iter": 1000.7}, "n_iter"),
        ("train", {"batch_size": 64.9}, "batch_size"),
        ("train", {"n_iter": math.inf}, "n_iter"),
        ("train", {"n_iter": math.nan}, "n_iter"),
        ("train", {"n_iter": True}, "n_iter"),
        ("train", {"lr": True}, "lr"),
        ("eval", {"seeds": [1.5]}, "seeds"),
    ])
    def test_inexact_number_rejected(self, tmp_path, capsys, command, doc, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        run = ["--out" if command == "train" else "--run", str(tmp_path / "run")]
        rc = main([command, "--config", str(config),
                   "--dataset", str(tmp_path / "missing.bin"), *run])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: bad value for {key!r}")
        assert not (tmp_path / "run").exists()


class TestGradCheckCommand:
    def test_exit_zero_on_pass(self, capsys):
        rc = main(["grad-check", "--instances", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "policy" in out and "[ok]" in out

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_no_instances_is_an_error(self, capsys, instances):
        rc = main(["grad-check", "--instances", instances])
        assert rc == 1
        captured = capsys.readouterr()
        assert "[ok]" not in captured.out
        assert "error: n_instances must be >= 1" in captured.err

    @pytest.mark.parametrize("tolerance", ["inf", "nan", "0", "-1"])
    def test_meaningless_tolerance_is_an_error(self, capsys, tolerance):
        rc = main(["grad-check", "--instances", "1", "--tolerance", tolerance])
        assert rc == 1
        captured = capsys.readouterr()
        assert "[ok]" not in captured.out and "[FAIL]" not in captured.out
        assert "error: tolerance must be finite and > 0" in captured.err
