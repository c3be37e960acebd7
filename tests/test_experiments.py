"""Diffusion-ladder sweeps, two-solution stability, outer-trace matching."""
import numpy as np
import pytest
import sympy as sp

from blmhd.experiments import (
    SweepResult,
    diff_good_unknowns,
    eps_sweep,
    matching_check,
    stability_pair,
)
from blmhd.grid import GridSpec
from blmhd.solver import SolverConfig

from conftest import perturbed_state


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
    with pytest.raises(ValueError):
        diff_good_unknowns(state_perturbed, state_perturbed, 0.0)
    other = perturbed_state(GridSpec(nx=8, ny=64, y_max=15.0, stretch=2.0))
    with pytest.raises(ValueError):
        diff_good_unknowns(state_perturbed, other, 0.125)
    low = perturbed_state(grid_small, a_h=0.05)
    with pytest.raises(ValueError):
        diff_good_unknowns(state_perturbed, low, 2.0)  # delta above min(h+1)


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
