"""Good unknowns, their evolution residuals, and norm equivalence."""
import gc
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from blmhd import cancellation, operators
from blmhd.cancellation import (
    HFloorError,
    _Residual,
    _Slice,
    cancellation_residual,
    good_unknowns,
    norm_equivalence_check,
)
from blmhd.data import equilibrium, physical
from blmhd.grid import Field, GridSpec, field_from_function
from blmhd.operators import dy
from blmhd.pde import Physics, TimeTower
from blmhd.solver import SolverConfig, Trajectory, monitor, run
from blmhd.sources import bootstrap_time_derivatives
from blmhd.state import MultiIndex, State

from conftest import perturbed_state


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
    st = equilibrium(grid, h_shift=h)
    gu = good_unknowns(TimeTower(st, physics=Physics()), MultiIndex(0, 1, 0), 0.125)
    i, j = 2, 30  # x = pi/4, y = 1
    assert grid.x[i] == pytest.approx(np.pi / 4.0)
    assert grid.y[j] == pytest.approx(1.0)
    assert gu.z_h.values[i, j] == pytest.approx(0.1300650, rel=2e-3)
    assert gu.eta_h.values[i, j] == pytest.approx(-0.2301903, rel=2e-3)
    assert gu.z_psi.values[i, j] == pytest.approx(0.2640428, rel=2e-3)
    assert gu.h_m.values[i, j] == pytest.approx(0.1908456, rel=2e-3)


def test_eta_weights_read_dy_from_a_tower_of_the_same_state(monkeypatch, state_perturbed):
    # every tower serves dy rho, dy u and dy h from its cache: one built
    # from the State and one of a stage's State of the same arrays
    st = state_perturbed
    fields = (st.rho_shift, st.u_shift, st.h_shift)
    stage_state = State(*(Field._computed(f.values, st.grid) for f in fields), time=st.time)
    stage = TimeTower(stage_state, physics=Physics())
    calls = []
    monkeypatch.setattr(cancellation, "dy", lambda f: calls.append(f) or dy(f))
    ref = good_unknowns(stage, MultiIndex(1, 1, 0), 0.125)
    gu = good_unknowns(TimeTower(st, physics=Physics()), MultiIndex(1, 1, 0), 0.125)
    for name in ("eta_rho", "eta_u", "eta_h", "rho_m", "u_m", "h_m"):
        assert np.array_equal(getattr(gu, name).values, getattr(ref, name).values), name
    assert calls == []


def test_good_unknowns_take_the_physics_of_their_tower(state_perturbed):
    # the time parts of the good unknowns come by substituting the
    # equations, so they move with eps, mu and kappa; the tower's physics
    # is the one used, and the zero-time parts do not depend on it
    alpha1 = MultiIndex(1, 1, 0)
    unit = good_unknowns(TimeTower(state_perturbed, physics=Physics()), alpha1, 0.125)
    run_physics = Physics(mu=0.3, kappa=2.0, eps=0.05)
    gu = good_unknowns(TimeTower(state_perturbed, physics=run_physics), alpha1, 0.125)
    for name in ("eta_rho", "eta_u", "eta_h"):
        assert np.array_equal(getattr(gu, name).values, getattr(unit, name).values), name
    for name in ("u_m", "h_m"):
        assert np.max(np.abs(getattr(gu, name).values - getattr(unit, name).values)) > 1e-3, name


def test_good_unknown_reconstruction_is_exact(grid_small, state_perturbed):
    tower = TimeTower(state_perturbed, physics=Physics())
    gu = good_unknowns(tower, MultiIndex(0, 2, 0), 0.125)
    recon = gu.h_m.values + gu.eta_h.values * gu.z_psi.values
    assert np.max(np.abs(recon - gu.z_h.values)) < 1e-13
    recon_r = gu.rho_m.values + gu.eta_rho.values * gu.z_psi.values
    assert np.max(np.abs(recon_r - gu.z_rho.values)) < 1e-13


def test_zero_magnetic_perturbation_collapses(grid_small):
    st = equilibrium(
        grid_small,
        rho_shift=field_from_function(
            grid_small, lambda x, y: 0.01 * np.cos(x) * np.exp(-(y**2))
        ),
    )
    gu = good_unknowns(TimeTower(st, physics=Physics()), MultiIndex(0, 1, 0), 0.125)
    assert gu.z_psi.max_abs() == 0.0
    assert gu.eta_h.max_abs() == 0.0
    assert gu.h_m.max_abs() < 1e-15
    # with h = 0 the good unknown of rho is the raw derivative
    assert np.array_equal(gu.rho_m.values, gu.z_rho.values)


def test_constant_density_gives_raw_rho_unknown(grid_small, state_perturbed):
    # d_y rho = 0 => eta_rho = 0 => rho_m = Z rho
    st = perturbed_state(grid_small, a_rho=0.0)
    gu = good_unknowns(TimeTower(st, physics=Physics()), MultiIndex(0, 1, 0), 0.125)
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


def test_residual_selector_validation(grid_small, state_equilibrium, tower_builds):
    cfg = SolverConfig()
    traj = _single_state_trajectory(state_equilibrium, cfg)
    with pytest.raises(ValueError, match="which"):
        cancellation_residual(traj, MultiIndex(0, 1, 0), "v_m")
    with pytest.raises(ValueError, match="tangential"):
        cancellation_residual(traj, MultiIndex(0, 1, 1), "h_m")
    with pytest.raises(ValueError, match="exceeds cap"):
        cancellation_residual(traj, MultiIndex(3, 0, 0), "h_m")
    assert tower_builds[0] == 0  # each is refused before any tower is built


def test_h_floor_guard(grid_small):
    grid = grid_small
    h = field_from_function(grid, lambda x, y: -0.9 * np.exp(-(y**2)))
    st = equilibrium(grid, h_shift=h)
    with pytest.raises(HFloorError):
        good_unknowns(TimeTower(st, physics=Physics()), MultiIndex(0, 1, 0), 0.25)


def test_norm_equivalence_zero_magnetic_field(grid_small, state_equilibrium):
    tower = TimeTower(state_equilibrium, physics=Physics())
    out = norm_equivalence_check(tower, MultiIndex(0, 1, 0), 2.0, 0.25)
    assert set(out) == {"b11", "b12", "b13", "b14", "b22"}
    for rep in out.values():
        assert rep["ratio"] == 0.0 and rep["passed"]


def test_norm_equivalence_on_perturbed_state():
    grid = GridSpec(nx=24, ny=128, y_max=15.0, stretch=2.0)
    st = perturbed_state(grid)
    for alpha1 in (MultiIndex(0, 1, 0), MultiIndex(0, 2, 0)):
        out = norm_equivalence_check(TimeTower(st, physics=Physics()), alpha1, 2.0, 0.25)
        for name, rep in out.items():
            assert rep["ratio"] <= 1.01, (alpha1, name, rep)
            assert rep["passed"]


def test_norm_equivalence_flat_h_saturates_b12(grid_small):
    # h constant in y: d_y h = 0, so the b12 bound is an equality
    h = field_from_function(grid_small, lambda x, y: 0.1 * np.cos(x) + 0.0 * y)
    st = equilibrium(grid_small, h_shift=h)
    out = norm_equivalence_check(TimeTower(st, physics=Physics()), MultiIndex(0, 1, 0), 2.0, 0.25)
    assert out["b12"]["ratio"] == pytest.approx(1.0, abs=1e-10)
    assert out["b12"]["passed"]


def test_norm_equivalence_validation(grid_small, state_equilibrium):
    with pytest.raises(ValueError):
        norm_equivalence_check(
            TimeTower(state_equilibrium, physics=Physics()), MultiIndex(0, 1, 0), 0.5, 0.25
        )
    h = field_from_function(grid_small, lambda x, y: -0.9 * np.exp(-(y**2)))
    low = TimeTower(equilibrium(grid_small, h_shift=h), physics=Physics())
    with pytest.raises(HFloorError):
        norm_equivalence_check(low, MultiIndex(0, 1, 0), 2.0, 0.25)


@pytest.mark.parametrize("delta", [0.0, -0.1, np.nan])
def test_a_delta_that_is_not_positive_is_refused(state_perturbed, delta):
    # delta = 0 once passed good_unknowns and ended norm_equivalence_check
    # in a ZeroDivisionError; a NaN passed every floor comparison
    alpha1 = MultiIndex(0, 1, 0)
    tower = TimeTower(state_perturbed, physics=Physics())
    with pytest.raises(ValueError, match="delta must be positive"):
        good_unknowns(tower, alpha1, delta)
    with pytest.raises(ValueError, match="delta must be positive"):
        norm_equivalence_check(tower, alpha1, 2.0, delta)


def test_the_residuals_floor_h_at_the_monitors_delta(grid_small):
    """cancellation_residual refuses min(h + 1) below the config's
    delta0 / 2, the floor that monitor() holds the run to."""
    h = field_from_function(grid_small, lambda x, y: -0.8 * np.exp(-(y**2)))
    st = equilibrium(grid_small, h_shift=h)  # min(h + 1) = 0.2
    for delta0, refused in ((0.5, True), (0.25, False)):
        cfg = SolverConfig(delta0=delta0)
        mon = monitor(st, cfg.delta0, cfg.l)
        assert (mon.h_floor < mon.delta) is refused
        traj = _single_state_trajectory(st, cfg)
        if refused:
            with pytest.raises(HFloorError, match=f"< {mon.delta}"):
                cancellation_residual(traj, MultiIndex(0, 1, 0), "h_m")
        else:
            assert len(cancellation_residual(traj, MultiIndex(0, 1, 0), "h_m")) == 1


# ---------------------------------------------------------------------------
# One evaluation per slice serves the three unknowns of every index of an order
# ---------------------------------------------------------------------------

ALPHAS = (
    MultiIndex(0, 1, 0),
    MultiIndex(0, 2, 0),
    MultiIndex(1, 1, 0),
    MultiIndex(2, 0, 0),
    MultiIndex(0, 3, 0),
    MultiIndex(1, 2, 0),
    MultiIndex(2, 1, 0),
)
UNKNOWNS = ("rho_m", "u_m", "h_m")


def _sourced_trajectory(x_scheme, a_u=0.03):
    """Three stored slices of a run with a bootstrapped SourceBundle."""
    grid = GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0, x_scheme=x_scheme)
    st = perturbed_state(grid, a_u=a_u)
    cfg = SolverConfig(eps=0.05, mu=0.7, kappa=1.3, dt=1e-3, t_end=2e-3)
    bundle = bootstrap_time_derivatives(*physical(st), m=2, mu=cfg.mu, kappa=cfg.kappa)
    traj = run(st, cfg, bundle, output_stride=1)
    assert not traj.breached and len(traj.states) == 3
    return traj


def _fresh(traj, alpha1, which):
    """The residual series from a fresh tower and _Residual per slice for
    this one index and unknown alone: the reference for the shared
    evaluation."""
    cfg = traj.config
    delta = cfg.delta0 / 2.0
    residual = cancellation._RESIDUALS[which]
    out = []
    for st in traj.states:
        tower = TimeTower(
            st, traj.bundle, traj.forcing, max_depth=alpha1.t_count + 1, physics=cfg
        )
        out.append(residual(_Residual(_Slice(tower, delta), alpha1), cfg).values)
    return out


def _same(series, ref):
    return len(series) == len(ref) and all(
        np.array_equal(f.values, r) for f, r in zip(series, ref)
    )


@pytest.mark.parametrize("x_scheme", ["fd4", "spectral"])
def test_shared_residuals_equal_one_evaluation_per_unknown(x_scheme):
    traj = _sourced_trajectory(x_scheme)
    for alpha1 in ALPHAS:
        ref = {w: _fresh(traj, alpha1, w) for w in ("rho_m", "u_m", "h_m")}
        for order in (("rho_m", "u_m", "h_m"), ("u_m", "h_m", "h_m", "rho_m")):
            for which in order:
                series = cancellation_residual(traj, alpha1, which)
                assert _same(series, ref[which]), (alpha1, order, which)


def test_one_alpha_of_three_unknowns_builds_one_tower_per_slice(tower_builds, cpus):
    """The nine calls of one order build one tower per slice, and a call of
    another order builds again.  The towers are counted in this process, so
    the slices run in turn (one usable CPU)."""
    cpus(1)
    traj = _sourced_trajectory("fd4")
    n = len(traj.states)
    order2 = [MultiIndex(2, 0, 0), MultiIndex(0, 2, 0), MultiIndex(1, 1, 0)]
    for m in (2, 1, 2):
        before = tower_builds[0]
        for alpha1 in order2 if m == 2 else [MultiIndex(1, 0, 0), MultiIndex(0, 1, 0)]:
            for which in ("h_m", "rho_m", "u_m"):
                cancellation_residual(traj, alpha1, which)
        assert tower_builds[0] - before == n, m


def _recomputes(traj, alpha1, which, tower_builds):
    """The call builds one tower per slice and equals a fresh evaluation."""
    before = tower_builds[0]
    series = cancellation_residual(traj, alpha1, which)
    built = tower_builds[0] - before
    return built == len(traj.states) and _same(series, _fresh(traj, alpha1, which))


def test_the_held_series_serve_only_the_same_call(tower_builds, cpus):
    cpus(1)  # the towers are counted in this process
    alpha1 = MultiIndex(0, 2, 0)
    traj = _sourced_trajectory("fd4")
    other = _sourced_trajectory("fd4", a_u=0.05)
    cancellation_residual(traj, alpha1, "rho_m")
    assert _recomputes(other, alpha1, "u_m", tower_builds)  # another trajectory
    cancellation_residual(traj, alpha1, "rho_m")
    traj.states[1] = other.states[1]  # a replaced state
    assert _recomputes(traj, alpha1, "u_m", tower_builds)
    traj.states.append(other.states[2])  # an appended state
    assert _recomputes(traj, alpha1, "h_m", tower_builds)
    # a series already taken, once the other eight of its order have been
    # taken from the slot without building a tower
    before = tower_builds[0]
    for index in (MultiIndex(0, 2, 0), MultiIndex(1, 1, 0), MultiIndex(2, 0, 0)):
        for which in UNKNOWNS:
            if (index, which) != (alpha1, "h_m"):
                cancellation_residual(traj, index, which)
    assert tower_builds[0] == before and cancellation._SLOT is None
    assert _recomputes(traj, alpha1, "h_m", tower_builds)
    # another config with the same states
    cancellation_residual(traj, alpha1, "rho_m")
    traj.config = replace(traj.config, eps=0.04)
    assert _recomputes(traj, alpha1, "u_m", tower_builds)


def test_nothing_is_held_once_the_three_series_are_taken():
    alpha1 = MultiIndex(1, 1, 0)
    traj = _sourced_trajectory("fd4")
    state = weakref.ref(traj.states[1])
    for index in (alpha1, MultiIndex(2, 0, 0), MultiIndex(0, 2, 0)):
        for which in ("u_m", "h_m", "rho_m"):
            cancellation_residual(traj, index, which)
    del traj
    gc.collect()
    assert state() is None
    # a series still waiting holds its states until another call
    traj = _sourced_trajectory("fd4")
    state = weakref.ref(traj.states[1])
    cancellation_residual(traj, alpha1, "u_m")
    other = _single_state_trajectory(traj.states[0], traj.config)
    del traj
    gc.collect()
    assert state() is not None
    cancellation_residual(other, alpha1, "u_m")
    gc.collect()
    assert state() is None


def _traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of the allocations fn makes."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_order_holds_one_index_chain_at_a_time(cpus):
    """The nine series of one order cost their own bytes and little more:
    the peak may exceed that of a fresh (2,0) evaluation of one unknown by
    the nine series plus 10 %.  A tower that kept every index's chain
    would exceed it.  The peak is one process's evaluation of every slice,
    so the slices run in turn (one usable CPU)."""
    cpus(1)
    traj = _sourced_trajectory("fd4")
    grid = traj.states[0].grid
    alpha1 = MultiIndex(2, 0, 0)
    fresh = max(_traced_peak(lambda: _fresh(traj, alpha1, w)) for w in UNKNOWNS)
    order = _traced_peak(lambda: cancellation_residual(traj, alpha1, "h_m"))
    series = 9 * len(traj.states) * grid.nx * grid.ny * 8
    assert order <= 1.1 * fresh + series, (order, fresh, series)


def test_residuals_of_three_alphas_take_the_pinned_operator_calls(
    monkeypatch, state_perturbed, cpus
):
    """Three stored slices at 16x48 and one call per alpha of order 2: the
    first evaluates the nine residuals of the order on one tower per slice,
    and the other two take theirs from the slot.  Each tower builds its
    levels 0 to 3 and their v, g and psi once (all 12 of a slice's
    integrate_y calls: the stored States keep none), and the eta terms are
    taken once per slice.  The dx and dy of an index's Z1^b (b >= 1) are
    dropped when its residuals are done, so a later index of the order
    that reads one of them takes it again.  The calls are counted in this
    process, so the slices run in turn (one usable CPU)."""
    cpus(1)
    traj = run(state_perturbed, SolverConfig(dt=1e-3, t_end=0.002), output_stride=1)
    assert len(traj.states) == 3
    counts = Counter()
    for name in ("dx", "dy", "d2x", "d2y", "integrate_y"):
        fn = getattr(operators, name)

        def wrapper(*args, name=name, fn=fn, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "blmhd"]:
            if vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, wrapper)
    for alpha1 in (MultiIndex(0, 2, 0), MultiIndex(1, 1, 0), MultiIndex(2, 0, 0)):
        cancellation_residual(traj, alpha1, "rho_m")
    assert counts == {"dx": 144, "dy": 111, "d2x": 72, "d2y": 84, "integrate_y": 36}
