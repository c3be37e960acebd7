"""Diffusion-ladder sweeps, two-solution stability, outer-trace matching,
and the side-by-side runs they share."""
import os
import time
from dataclasses import replace

import numpy as np
import pytest
import sympy as sp

from blmhd import experiments
from blmhd.experiments import (
    SweepResult,
    _runs,
    diff_good_unknowns,
    eps_sweep,
    matching_check,
    stability_pair,
)
from blmhd.grid import GridSpec
from blmhd.solver import SolverConfig, run

from conftest import perturbed_state, reaped


# ---------------------------------------------------------------------------
# Outer-trace matching conditions (symbolic)
# ---------------------------------------------------------------------------


def test_matching_constants_are_exact():
    res = matching_check(1, 1, 1)
    assert all(r == 0 for r in res.values())


def test_matching_magnetic_residual_oracle():
    t, x = sp.symbols("t x")
    res = matching_check(1, 1, 1 + sp.sin(x) / 10)
    # d_t H + U d_x H - H d_x U with U = 1: residual is cos(x)/10
    assert sp.simplify(res["magnetic"] - sp.cos(x) / 10) == 0
    assert res["density"] == 0


def test_matching_traveling_wave_family():
    t, x = sp.symbols("t x")
    c = sp.Rational(3, 2)
    xi = x - c * t
    theta = 1 + sp.exp(-(xi**2))
    H = 2 + sp.sin(xi)
    # U = c transports everything; constant-in-time pressure balance:
    # momentum needs d_x P = H d_x H, i.e. P = H^2 / 2
    res = matching_check(theta, c, H, P=H**2 / 2)
    assert all(sp.simplify(r) == 0 for r in res.values())


def test_matching_density_residual_oracle():
    x = sp.Symbol("x")
    res = matching_check(1 + sp.sin(x) / 5, 2, 1)
    assert sp.simplify(res["density"] - 2 * sp.cos(x) / 5) == 0


# ---------------------------------------------------------------------------
# Vanishing-diffusion sweep
# ---------------------------------------------------------------------------


def test_sweep_equilibrium_differences_vanish(grid_small, state_equilibrium):
    cfg = SolverConfig(dt=2e-3, t_end=0.01)
    out = eps_sweep(state_equilibrium, cfg, ladder=(0.1, 0.05, 0.025))
    assert out.valid == (True, True, True)
    for row in out.pairwise_diffs:
        assert max(row) <= 1e-8


def test_sweep_result_requires_decreasing_ladder():
    with pytest.raises(ValueError):
        SweepResult(
            eps_ladder=(0.1, 0.2),
            times=(0.0,),
            pairwise_diffs=((0.0,),),
            rates=None,
            valid=(True, True),
        )


def test_sweep_two_rung_ladder_reports_no_rates(grid_small, state_equilibrium):
    cfg = SolverConfig(dt=2e-3, t_end=0.004)
    out = eps_sweep(state_equilibrium, cfg, ladder=(0.1, 0.05))
    assert out.rates is None
    assert len(out.pairwise_diffs) == 1


def test_sweep_refuses_an_empty_ladder_before_any_run(monkeypatch, state_equilibrium):
    def no_runs(*args, **kwargs):
        raise AssertionError("an empty ladder started a run")

    monkeypatch.setattr(experiments, "side_by_side", no_runs)
    with pytest.raises(ValueError, match="ladder"):
        eps_sweep(state_equilibrium, SolverConfig(dt=2e-3, t_end=0.004), ladder=())


@pytest.mark.parametrize("ladder", [(0.01, 0.02), (0.1, 0.05, 0.05)])
def test_sweep_refuses_a_ladder_that_does_not_decrease_before_any_run(
    monkeypatch, state_equilibrium, ladder
):
    # every rung used to run, one of them in a forked child, before the
    # result refused the ladder
    def no_runs(fn, jobs):
        raise AssertionError(f"a ladder that does not decrease started {len(jobs)} runs")

    monkeypatch.setattr(experiments, "side_by_side", no_runs)
    with pytest.raises(ValueError, match="strictly decreasing"):
        eps_sweep(state_equilibrium, SolverConfig(dt=2e-3, t_end=0.004), ladder=ladder)


# ---------------------------------------------------------------------------
# Difference good unknowns and stability
# ---------------------------------------------------------------------------


def test_diff_good_unknowns_identical_states(grid_small, state_perturbed):
    d = diff_good_unknowns(state_perturbed, state_perturbed, 0.125)
    for f in (d.rho_bar, d.u_bar, d.h_bar, d.phi_bar, d.rho_i, d.u_i, d.h_i):
        assert f.max_abs() == 0.0
    # weights come from the second state and are generally nonzero
    assert d.eta2.max_abs() > 0.0


def test_diff_good_unknowns_validation(grid_small, state_perturbed):
    for delta in (0.0, np.nan):
        with pytest.raises(ValueError, match="delta must be positive"):
            diff_good_unknowns(state_perturbed, state_perturbed, delta)
    other = perturbed_state(GridSpec(nx=8, ny=64, y_max=15.0, stretch=2.0))
    with pytest.raises(ValueError):
        diff_good_unknowns(state_perturbed, other, 0.125)
    low = perturbed_state(grid_small, a_h=0.05)
    with pytest.raises(ValueError):
        diff_good_unknowns(state_perturbed, low, 2.0)  # delta above min(h+1)


@pytest.mark.parametrize(
    "change", [{"stretch": 0.0}, {"y_max": 20.0}, {"x_scheme": "spectral"}]
)
def test_diff_good_unknowns_refuses_another_grid_of_the_same_shape(
    grid_small, state_perturbed, change
):
    # same (nx, ny) but other points or another x derivative: a pointwise
    # difference of the two states would mean nothing
    other = perturbed_state(replace(grid_small, **change))
    with pytest.raises(ValueError, match="share the grid"):
        diff_good_unknowns(state_perturbed, other, 0.125)
    # an equal grid that is another object is the same grid
    same = perturbed_state(replace(grid_small))
    assert diff_good_unknowns(state_perturbed, same, 0.125).rho_bar.max_abs() == 0.0


def test_stability_identical_data(grid_small):
    st = perturbed_state(grid_small, a_rho=0.004, a_u=0.02, a_h=0.03)
    cfg = SolverConfig(eps=0.01, dt=2e-3, t_end=0.01)
    out = stability_pair(st, st, cfg)
    assert not out.breached
    assert max(out.norms_sq) <= 1e-12
    assert out.envelope_ok


def test_stability_perturbed_pair_has_controlled_growth(grid_small):
    base = perturbed_state(grid_small, a_rho=0.004, a_u=0.02, a_h=0.03)
    pert = perturbed_state(grid_small, a_rho=0.004, a_u=0.02 + 1e-6, a_h=0.03)
    cfg = SolverConfig(eps=0.01, dt=2e-3, t_end=0.02)
    out = stability_pair(base, pert, cfg, output_stride=2)
    assert not out.breached
    assert out.norms_sq[0] > 0.0
    assert np.isfinite(out.gronwall_c)
    assert out.envelope_ok
    assert len(out.series) == len(out.times)


def test_sweep_and_pair_refuse_an_off_stride_final_state(state_equilibrium):
    # 5 steps at stride 2 would store steps 0, 2, 4 and 5
    cfg = SolverConfig(dt=1e-3, t_end=5e-3)
    with pytest.raises(ValueError, match="output_stride = 2"):
        eps_sweep(state_equilibrium, cfg, ladder=(0.1, 0.05), output_stride=2)
    with pytest.raises(ValueError, match="output_stride = 2"):
        stability_pair(state_equilibrium, state_equilibrium, cfg, output_stride=2)


# ---------------------------------------------------------------------------
# Independent runs side by side (_runs)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x_scheme, scheme", [("fd4", "imex-cn"), ("spectral", "imex-be")])
def test_sweep_and_pair_equal_across_worker_counts(cpus, x_scheme, scheme):
    grid = GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0, x_scheme=x_scheme)
    base = perturbed_state(grid, a_rho=0.004, a_u=0.02, a_h=0.03)
    pert = perturbed_state(grid, a_rho=0.004, a_u=0.02 + 1e-6, a_h=0.03)
    cfg = SolverConfig(eps=0.01, dt=2e-3, t_end=0.01, scheme=scheme)
    results = {}
    for n in (2, 1):
        forked = cpus(n)
        del forked[:]
        sweep = eps_sweep(base, cfg, ladder=(0.1, 0.05, 0.025, 0.0125))
        pair = stability_pair(base, pert, cfg)
        assert len(forked) == (2 if n == 2 else 0)  # one child per call
        results[n] = sweep, pair
    (s2, p2), (s1, p1) = results[2], results[1]
    assert s2 == s1
    for name in ("times", "norms_sq", "gronwall_c", "envelope_ok", "breached"):
        assert getattr(p2, name) == getattr(p1, name)
    for d2, d1 in zip(p2.series, p1.series, strict=True):
        for name in ("eta1", "eta2", "eta3", "phi_bar", "rho_i", "u_i", "h_i"):
            assert np.array_equal(getattr(d2, name).values, getattr(d1, name).values)


def test_trajectories_from_a_child_equal_run_and_refuse_writes(cpus, grid_small):
    forked = cpus(2)
    st = perturbed_state(grid_small)
    cfgs = [SolverConfig(eps=e, dt=2e-3, t_end=6e-3) for e in (0.1, 0.05, 0.02, 0.01)]
    trajs = _runs([(st, c) for c in cfgs], 3)
    assert len(forked) == 1 and reaped(forked)
    # the config is the caller's, not a pickled copy; no run has sources or forcing
    for traj, cfg in zip(trajs, cfgs, strict=True):
        assert traj.config is cfg and traj.bundle is None and traj.forcing is None
    # jobs 1 and 3 ran in the child; states come back through pickle as
    # their fields and time, and the fields read-only
    for s in trajs[1].states[1:] + trajs[3].states[1:]:
        assert set(vars(s)) == {"rho_shift", "u_shift", "h_shift", "time"}
        for f in (s.rho_shift, s.u_shift, s.h_shift):
            assert not f.values.flags.writeable
            with pytest.raises(ValueError):
                f.values[0, 0] = 1.0
    for traj, cfg in zip(trajs, cfgs):
        ref = run(st, cfg, output_stride=3)
        assert traj.breached == ref.breached and traj.monitors == ref.monitors
        for a, b in zip(traj.states, ref.states, strict=True):
            assert a.time == b.time
            for name in ("rho_shift", "u_shift", "h_shift"):
                assert np.array_equal(getattr(a, name).values, getattr(b, name).values)


def test_an_exception_in_a_child_is_raised_here(cpus, monkeypatch, state_equilibrium):
    forked = cpus(2)
    real_run = experiments.run

    def failing(state, cfg, *args, **kw):
        if cfg.eps == 0.05:  # job 1: the child's
            raise LookupError(f"no rung {cfg.eps}")
        return real_run(state, cfg, *args, **kw)

    monkeypatch.setattr(experiments, "run", failing)
    with pytest.raises(LookupError, match="no rung 0.05"):
        eps_sweep(state_equilibrium, SolverConfig(dt=2e-3, t_end=4e-3), ladder=(0.1, 0.05))
    assert len(forked) == 1 and reaped(forked)


def test_a_child_that_dies_without_a_result_is_an_error(cpus, monkeypatch, state_equilibrium):
    forked = cpus(2)
    real_run = experiments.run

    def dying(state, cfg, *args, **kw):
        if cfg.eps == 0.05:
            os._exit(3)
        return real_run(state, cfg, *args, **kw)

    monkeypatch.setattr(experiments, "run", dying)
    with pytest.raises(RuntimeError, match="without a result"):
        eps_sweep(state_equilibrium, SolverConfig(dt=2e-3, t_end=4e-3), ladder=(0.1, 0.05))
    assert len(forked) == 1 and reaped(forked)


def test_children_are_killed_when_this_process_raises(cpus, monkeypatch, state_equilibrium):
    forked = cpus(3)

    def slow_or_failing(state, cfg, *args, **kw):
        if cfg.eps == 0.1:  # job 0: this process's
            raise KeyError("stop")
        time.sleep(60)  # the children's

    monkeypatch.setattr(experiments, "run", slow_or_failing)
    t = time.monotonic()
    with pytest.raises(KeyError, match="stop"):
        eps_sweep(state_equilibrium, SolverConfig(), ladder=(0.1, 0.05, 0.02))
    assert time.monotonic() - t < 30.0
    assert len(forked) == 2 and reaped(forked)


def test_one_usable_cpu_forks_nothing(monkeypatch, state_equilibrium):
    def no_fork():
        raise AssertionError("forked with one usable CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    cfg = SolverConfig(dt=2e-3, t_end=4e-3)
    out = eps_sweep(state_equilibrium, cfg, ladder=(0.1, 0.05, 0.025))
    assert out.valid == (True, True, True)
    assert not stability_pair(state_equilibrium, state_equilibrium, cfg).breached
