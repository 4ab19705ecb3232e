import json

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
        _, data_path, run_dir = tiny_setup
        second = tmp_path / "run2"
        rc = main(["train", "--dataset", str(data_path), "--out", str(second),
                   "--variant", "bcq", "--seed", "2", "--set", "n_iter=10",
                   "--set", "hidden_dim=8", "--set", "batch_size=16"])
        assert rc == 0
        out = tmp_path / "viz"
        rc = main(["viz", "--dataset", str(data_path), "--run", str(run_dir),
                   "--run", str(second), "--out", str(out), "--episodes", "2"])
        assert rc == 0
        rows = (out / "rollout_states.csv").read_text().splitlines()[1:]
        episodes = {tuple(row.split(",")[:2]) for row in rows}
        assert episodes == {(label, ep) for label in ("bcq", f"bcq ({second})")
                            for ep in ("0", "1")}
        svg = (out / "trajectories.svg").read_text()
        assert f">bcq ({second})</text>" in svg


class TestGradCheckCommand:
    def test_exit_zero_on_pass(self, capsys):
        rc = main(["grad-check", "--instances", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "policy" in out and "[ok]" in out
