"""Good unknowns, their evolution residuals, and norm equivalence."""
import numpy as np
import pytest

from blmhd.cancellation import (
    HFloorError,
    cancellation_residual,
    good_unknowns,
    norm_equivalence_check,
)
from blmhd.grid import GridSpec, field_from_function
from blmhd.solver import SolverConfig, Trajectory, monitor
from blmhd.state import MultiIndex

from conftest import equilibrium_state, perturbed_state


def _single_state_trajectory(st, cfg):
    return Trajectory(
        states=[st],
        monitors=[monitor(st, cfg.delta0, cfg.l)],
        config=cfg,
        bundle=None,
        forcing=None,
    )


def test_good_unknown_point_oracle():
    # h = 0.5 e^{-y^2} sin x, a1 = one x-derivative, evaluated at (pi/4, 1):
    # Z h = 0.5 e^{-1} cos(pi/4), psi_x = 0.5 (sqrt(pi)/2) erf(1) cos(pi/4),
    # eta_h = -e^{-1} sin(pi/4) / (1 + 0.5 e^{-1} sin(pi/4))
    grid = GridSpec(nx=16, ny=451, y_max=15.0, stretch=0.0)
    h = field_from_function(grid, lambda x, y: 0.5 * np.exp(-(y**2)) * np.sin(x))
    st = equilibrium_state(grid, h_shift=h)
    gu = good_unknowns(st, MultiIndex(0, 1, 0), 0.125)
    i, j = 2, 30  # x = pi/4, y = 1
    assert grid.x[i] == pytest.approx(np.pi / 4.0)
    assert grid.y[j] == pytest.approx(1.0)
    assert gu.z_h.values[i, j] == pytest.approx(0.1300650, rel=2e-3)
    assert gu.eta_h.values[i, j] == pytest.approx(-0.2301903, rel=2e-3)
    assert gu.z_psi.values[i, j] == pytest.approx(0.2640428, rel=2e-3)
    assert gu.h_m.values[i, j] == pytest.approx(0.1908456, rel=2e-3)


def test_good_unknown_reconstruction_is_exact(grid_small, state_perturbed):
    gu = good_unknowns(state_perturbed, MultiIndex(0, 2, 0), 0.125)
    recon = gu.h_m.values + gu.eta_h.values * gu.z_psi.values
    assert np.max(np.abs(recon - gu.z_h.values)) < 1e-13
    recon_r = gu.rho_m.values + gu.eta_rho.values * gu.z_psi.values
    assert np.max(np.abs(recon_r - gu.z_rho.values)) < 1e-13


def test_zero_magnetic_perturbation_collapses(grid_small):
    st = equilibrium_state(
        grid_small,
        rho_shift=field_from_function(
            grid_small, lambda x, y: 0.01 * np.cos(x) * np.exp(-(y**2))
        ),
    )
    gu = good_unknowns(st, MultiIndex(0, 1, 0), 0.125)
    assert gu.z_psi.max_abs() == 0.0
    assert gu.eta_h.max_abs() == 0.0
    assert gu.h_m.max_abs() < 1e-15
    # with h = 0 the good unknown of rho is the raw derivative
    assert np.array_equal(gu.rho_m.values, gu.z_rho.values)


def test_constant_density_gives_raw_rho_unknown(grid_small, state_perturbed):
    # d_y rho = 0 => eta_rho = 0 => rho_m = Z rho
    st = perturbed_state(grid_small, a_rho=0.0)
    gu = good_unknowns(st, MultiIndex(0, 1, 0), 0.125)
    assert gu.eta_rho.max_abs() < 1e-14
    assert np.max(np.abs(gu.rho_m.values - gu.z_rho.values)) < 1e-13


def test_equilibrium_residuals_vanish(grid_small, state_equilibrium):
    cfg = SolverConfig(eps=0.01)
    traj = _single_state_trajectory(state_equilibrium, cfg)
    for which in ("rho_m", "u_m", "h_m"):
        for alpha1 in (MultiIndex(0, 1, 0), MultiIndex(0, 2, 0), MultiIndex(1, 1, 0)):
            res = cancellation_residual(traj, alpha1, which)
            assert res[0].max_abs() < 1e-10, (which, alpha1)


@pytest.mark.parametrize("which", ["rho_m", "u_m", "h_m"])
def test_residual_refines_under_grid_doubling(which):
    cfg = SolverConfig(eps=0.05, kappa=0.8, mu=1.0)
    errs = []
    for nx, ny in ((24, 96), (48, 192)):
        grid = GridSpec(nx=nx, ny=ny, y_max=15.0, stretch=2.0)
        st = perturbed_state(grid)
        traj = _single_state_trajectory(st, cfg)
        res = cancellation_residual(traj, MultiIndex(0, 2, 0), which)
        errs.append(res[0].max_abs())
    assert errs[1] < errs[0] / 3.0, errs


def test_residual_with_time_index_refines():
    # regression guard: substitution-based time parts must still converge
    cfg = SolverConfig(eps=0.05, kappa=0.8, mu=1.0)
    errs = []
    for nx, ny in ((24, 96), (48, 192)):
        grid = GridSpec(nx=nx, ny=ny, y_max=15.0, stretch=2.0)
        st = perturbed_state(grid)
        traj = _single_state_trajectory(st, cfg)
        res = cancellation_residual(traj, MultiIndex(1, 1, 0), "h_m")
        errs.append(res[0].max_abs())
    order = np.log2(errs[0] / errs[1])
    assert order >= 0.8, errs


def test_residual_selector_validation(grid_small, state_equilibrium):
    cfg = SolverConfig()
    traj = _single_state_trajectory(state_equilibrium, cfg)
    with pytest.raises(ValueError):
        cancellation_residual(traj, MultiIndex(0, 1, 0), "v_m")
    with pytest.raises(ValueError):
        cancellation_residual(traj, MultiIndex(0, 1, 1), "h_m")
    with pytest.raises(ValueError):
        cancellation_residual(traj, MultiIndex(3, 0, 0), "h_m")


def test_h_floor_guard(grid_small):
    grid = grid_small
    h = field_from_function(grid, lambda x, y: -0.9 * np.exp(-(y**2)))
    st = equilibrium_state(grid, h_shift=h)
    with pytest.raises(HFloorError):
        good_unknowns(st, MultiIndex(0, 1, 0), 0.25)


def test_norm_equivalence_zero_magnetic_field(grid_small, state_equilibrium):
    out = norm_equivalence_check(state_equilibrium, MultiIndex(0, 1, 0), 2.0, 0.25)
    assert set(out) == {"b11", "b12", "b13", "b14", "b22"}
    for rep in out.values():
        assert rep["ratio"] == 0.0 and rep["passed"]


def test_norm_equivalence_on_perturbed_state():
    grid = GridSpec(nx=24, ny=128, y_max=15.0, stretch=2.0)
    st = perturbed_state(grid)
    for alpha1 in (MultiIndex(0, 1, 0), MultiIndex(0, 2, 0)):
        out = norm_equivalence_check(st, alpha1, 2.0, 0.25)
        for name, rep in out.items():
            assert rep["ratio"] <= 1.01, (alpha1, name, rep)
            assert rep["passed"]


def test_norm_equivalence_flat_h_saturates_b12(grid_small):
    # h constant in y: d_y h = 0, so the b12 bound is an equality
    h = field_from_function(grid_small, lambda x, y: 0.1 * np.cos(x) + 0.0 * y)
    st = equilibrium_state(grid_small, h_shift=h)
    out = norm_equivalence_check(st, MultiIndex(0, 1, 0), 2.0, 0.25)
    assert out["b12"]["ratio"] == pytest.approx(1.0, abs=1e-10)
    assert out["b12"]["passed"]


def test_norm_equivalence_validation(grid_small, state_equilibrium):
    with pytest.raises(ValueError):
        norm_equivalence_check(state_equilibrium, MultiIndex(0, 1, 0), 0.5, 0.25)
    h = field_from_function(grid_small, lambda x, y: -0.9 * np.exp(-(y**2)))
    low = equilibrium_state(grid_small, h_shift=h)
    with pytest.raises(HFloorError):
        norm_equivalence_check(low, MultiIndex(0, 1, 0), 2.0, 0.25)
