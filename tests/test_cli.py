"""End-to-end command-line runs on tiny configurations."""
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from blmhd import solver
from blmhd.cli import VERBS, main

BASE = """\
[grid]
nx = 16
ny = 48

[solver]
dt = 0.002
t_end = 0.01
output_stride = 5

[experiment]
m = 1
amplitude = 0.004
ladder = 0.1,0.05
"""


def _write_cfg(tmp_path, text=BASE):
    p = tmp_path / "run.ini"
    p.write_text(text)
    return str(p)


def _check_artifacts(out_dir, expected_csv):
    summary = json.loads((out_dir / "summary.json").read_text())
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["passed"] is True
    assert manifest["failures"] == []
    assert len(manifest["config_digest"]) == 64
    assert "summary.json" in manifest["outputs"]
    assert expected_csv in manifest["outputs"]
    assert (out_dir / expected_csv).exists()
    return summary, manifest


@pytest.mark.parametrize(
    "verb,artifact",
    [
        ("norms", "norms.csv"),
        ("cancellation", "cancellation.csv"),
        ("verify-inequalities", "inequalities.csv"),
        ("simulate", "energy.csv"),
        ("sweep", "sweep.csv"),
        ("stability", "stability.csv"),
    ],
)
def test_verbs_run_clean(tmp_path, verb, artifact):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / f"out_{verb}"
    rc = main([verb, "--config", cfg, "--out", str(out), "--seed", "1"])
    assert rc == 0
    summary, manifest = _check_artifacts(out, artifact)
    assert manifest["verb"] == verb
    assert summary["failures"] == []


def test_verbs_constant_is_complete():
    assert set(VERBS) == {
        "simulate",
        "verify-inequalities",
        "cancellation",
        "sweep",
        "stability",
        "norms",
    }


def test_simulate_snapshot_written(tmp_path):
    from blmhd.io import read_snapshot

    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    snap = read_snapshot(out / "final.bin")
    assert snap["nx"] == 16 and snap["ny"] == 48


@pytest.mark.parametrize(
    "flag, failure",
    [
        ({"rho_band_ok": False}, "density left the [1/2, 3/2] band"),
        ({"source_flag": True}, "source terms exceeded 1% of transport"),
    ],
)
def test_strict_reads_the_monitors_of_every_step(tmp_path, monkeypatch, flag, failure):
    # 4 steps at stride 2 store steps 0, 2 and 4; step 3's status is raised
    real = solver.monitor
    statuses = []

    def monitor(*args, **kwargs):
        status = real(*args, **kwargs)
        if len(statuses) == 3:  # after the initial state and steps 1, 2
            status = replace(status, **flag)
        statuses.append(status)
        return status

    monkeypatch.setattr(solver, "monitor", monitor)
    text = BASE.replace("t_end = 0.01", "t_end = 0.008").replace("stride = 5", "stride = 2")
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "plain"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    history = json.loads((out / "summary.json").read_text())["monitor_history"]
    assert len(history) == 3 and all(m["rho_band_ok"] for m in history)
    del statuses[:]
    out = tmp_path / "strict"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--strict"]) == 1
    assert json.loads((out / "summary.json").read_text())["failures"] == [failure]


def test_cancellation_builds_one_tower(tmp_path, tower_builds):
    # the good unknowns and the norm-equivalence check share one tower
    assert main(["cancellation", "--config", _write_cfg(tmp_path), "--out", str(tmp_path)]) == 0
    assert tower_builds == [1]


@pytest.mark.parametrize(
    "verb, error",
    [
        ("simulate", "DensityFloorError"),
        ("norms", "DensityFloorError"),
        ("cancellation", "DensityFloorError"),
        ("stability", "HFloorError"),
    ],
)
def test_data_outside_the_hypotheses_is_a_recorded_failure(tmp_path, verb, error):
    # perturbed data of amplitude 8 take the density and h + 1 below their
    # floors: the verb records the error in both JSON files and exits 1
    text = BASE.replace("amplitude = 0.004", "initial = perturbed\namplitude = 8")
    out = tmp_path / "out"
    assert main([verb, "--config", _write_cfg(tmp_path, text), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["passed"] is False and manifest["outputs"] == ["summary.json"]
    assert manifest["failures"] == summary["failures"]
    (failure,) = summary["failures"]
    assert failure.startswith(error + ": ")


def test_config_error_exits_2(tmp_path, capsys):
    bad = _write_cfg(tmp_path, "[grid]\nnx = 16\nny = 48\n[physics]\neps = -1\n")
    rc = main(["norms", "--config", bad, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_a_bad_seed_is_a_usage_error(tmp_path, capsys, seed):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", _write_cfg(tmp_path), "--out", str(out), "--seed", seed])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_off_stride_final_state_is_a_config_error(tmp_path, capsys):
    # 5 steps at stride 2 would store steps 0, 2, 4 and 5, a non-uniform
    # stride that trajectory_report refuses after the run; the config is
    # refused before any stepping instead
    text = "[grid]\nnx = 16\nny = 48\n[solver]\ndt = 0.001\nt_end = 0.005\noutput_stride = 2\n"
    out = tmp_path / "o"
    rc = main(["simulate", "--config", _write_cfg(tmp_path, text), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert all(key in err for key in ("solver.t_end", "solver.dt", "solver.output_stride"))
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path):
    rc = main(["norms", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
    assert rc == 2


def test_missing_verb_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("verb", VERBS)
def test_verb_does_not_import_scipy(tmp_path, verb):
    # scipy is a test dependency only: importing scipy.special costs ~0.24 s
    # and ~18 MiB, scipy.linalg ~21 MiB of resident memory.  sympy is an
    # optional extra that no verb needs: it costs ~0.4 s and ~22 MiB
    cfg = _write_cfg(tmp_path)
    code = (
        "import sys\n"
        "from blmhd.cli import main\n"
        f"assert main([{verb!r}, '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'sympy')))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
