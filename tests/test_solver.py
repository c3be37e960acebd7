"""Time integrator: monitors, steady state, CFL subdivision, residuals."""
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from blmhd import operators, solver, state
from blmhd.grid import Field, GridSpec, field_from_function
from blmhd.manufactured import ManufacturedSolution
from blmhd.operators import _d2y_coeffs, d2x, d2y
from blmhd.pde import TimeTower, pde_rhs
from blmhd.solver import (
    _WALL_BCS,
    SolverConfig,
    SolverError,
    _apply_dyy,
    _explicit_terms,
    _fold,
    _periodic_factors,
    _sherman_morrison,
    _solve_x_cn,
    _solve_y_implicit,
    _unfold,
    _y_factors,
    _y_matrix,
    monitor,
    pde_residual,
    periodic_thomas_batched,
    run,
    step,
    thomas_batched,
    tridiag_factor,
)
from blmhd.sources import SourceBundle, bootstrap_time_derivatives
from conftest import equilibrium_state, perturbed_state


def test_monitor_equilibrium_passes(grid_small, state_equilibrium):
    mon = monitor(state_equilibrium, 0.25, 2.0)
    assert mon.h_floor == pytest.approx(1.0)
    assert mon.rho_sup == 0.0
    # discrete dy of the e^{-y} background leaves O(dy^2) shear on the grid
    assert mon.shear_sup < 5e-3
    assert mon.rho_band_ok
    assert not mon.breached
    assert mon.delta == 0.125


def test_monitor_density_excess_breaches(grid_small):
    grid = grid_small
    rho = field_from_function(grid, lambda x, y: 0.4 * np.exp(-(y**2)))
    st = equilibrium_state(grid, rho_shift=rho)
    mon = monitor(st, 0.25, 2.0)
    # threshold (2l-1) delta^2 / 2 = 3 * 0.125^2 / 2 ~ 0.0234 << 0.4
    assert mon.rho_sup == pytest.approx(0.4, rel=1e-12)
    assert mon.breached


def test_monitor_band_flag_without_breach(grid_small):
    grid = grid_small
    # pick l large enough that the smallness threshold (2l-1) delta^2 / 2
    # exceeds the excess 0.6 while 1 + rho still leaves the [1/2, 3/2] band
    rho = field_from_function(grid, lambda x, y: 0.6 * np.exp(-(y**2)))
    st = equilibrium_state(grid, rho_shift=rho)
    mon = monitor(st, 0.25, 40.0)  # threshold 79 * 0.125^2 / 2 ~ 0.617 > 0.6
    assert not mon.breached
    assert not mon.rho_band_ok


def test_equilibrium_is_discretely_steady(grid_small, state_equilibrium):
    cfg = SolverConfig(eps=0.01, dt=1e-3, t_end=5e-3)
    new, mon = step(state_equilibrium, cfg)
    assert (new.rho_shift - state_equilibrium.rho_shift).max_abs() < 1e-12
    assert (new.u_shift - state_equilibrium.u_shift).max_abs() < 1e-12
    assert (new.h_shift - state_equilibrium.h_shift).max_abs() < 1e-12
    assert not mon.breached


def test_equilibrium_is_discretely_steady_imex_be(grid_small, state_equilibrium):
    cfg = SolverConfig(eps=0.01, dt=1e-3, t_end=5e-3, scheme="imex-be")
    new, mon = step(state_equilibrium, cfg)
    assert (new.rho_shift - state_equilibrium.rho_shift).max_abs() < 1e-12
    assert (new.u_shift - state_equilibrium.u_shift).max_abs() < 1e-12
    assert (new.h_shift - state_equilibrium.h_shift).max_abs() < 1e-12
    assert not mon.breached


@pytest.mark.parametrize(
    "scheme, x_scheme",
    [(s, x) for x in ("fd4", "spectral") for s in ("imex-be", "imex-cn")],
    ids=["imex-be", "imex-cn", "imex-be-spectral", "imex-cn-spectral"],
)
def test_imex_order_in_time(scheme, x_scheme):
    # error against a fine-dt reference at a common time falls with dt at
    # the scheme's order, for both x-derivatives (and so both x half-step
    # kernels: the cached matrix for rho and h, the periodic sweep for u)
    st = perturbed_state(GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0, x_scheme=x_scheme))
    t_end = 0.04

    def final(dt):
        cfg = SolverConfig(eps=0.01, dt=dt, t_end=t_end, scheme=scheme)
        traj = run(st, cfg, output_stride=10**6)
        assert not traj.breached and traj.times[-1] == pytest.approx(t_end)
        last = traj.states[-1]
        return np.concatenate(
            [last.rho_shift.values, last.u_shift.values, last.h_shift.values]
        )

    ref = final(2.5e-4)
    e1 = np.max(np.abs(final(4e-3) - ref))
    e2 = np.max(np.abs(final(2e-3) - ref))
    assert e1 > 1e-8  # the comparison measures time error, not round-off
    # first order: e ~ C (dt - dt_ref), so e1 / e2 = 15 / 7 ~ 2.1; second
    # order: e ~ C (dt^2 - dt_ref^2), so e1 / e2 = (16 - 1/16) / (4 - 1/16) ~ 4.05
    lo, hi = {"imex-be": (1.7, 2.6), "imex-cn": (3.5, 4.6)}[scheme]
    assert lo < e1 / e2 < hi


@pytest.mark.parametrize("x_scheme", ["fd4", "spectral"])
@pytest.mark.parametrize("scheme", ["imex-cn", "imex-be"])
def test_homogeneous_run_keeps_rho_shift_zero(scheme, x_scheme):
    # with rho_shift = 0 and no sources, d_t rho_shift = 0 exactly, and
    # each x and y solve maps the zero density to itself
    grid = GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0, x_scheme=x_scheme)
    st = perturbed_state(grid, a_rho=0.0, a_u=0.5, a_h=0.3)
    traj = run(st, SolverConfig(eps=0.01, dt=1e-3, t_end=0.05, scheme=scheme), output_stride=10)
    assert not traj.breached and traj.times[-1] == pytest.approx(0.05)
    assert len(traj.states) == 6
    for s in traj.states:
        assert np.all(s.rho_shift.values == 0.0), s.time
    assert np.max(np.abs(traj.states[-1].u_shift.values - st.u_shift.values)) > 1e-4


@pytest.mark.parametrize("scheme", ["imex-cn", "imex-be"])
def test_a_step_builds_one_state(monkeypatch, state_perturbed, scheme):
    """The substeps pass arrays: a step of 3 substeps derives one State, at
    its end, and each stage's level-0 tower takes dx u and dx h from the
    closure, so a stage takes only dx rho besides them (imex-cn: two
    stages per substep, imex-be: one)."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in (("derive_secondary", state.derive_secondary), ("dx", operators.dx)):
        wrapper = counted(name, fn)
        for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "blmhd"]:
            if vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, wrapper)
    monkeypatch.setattr(TimeTower, "__init__", counted("tower", TimeTower.__init__))
    monkeypatch.setattr(solver, "_cfl_substeps", lambda st, cfg: 3)
    new, _ = step(state_perturbed, SolverConfig(eps=0.01, dt=1e-3, scheme=scheme))
    calls = {"imex-cn": (1, 20, 6), "imex-be": (1, 11, 3)}[scheme]
    assert (counts["derive_secondary"], counts["dx"], counts["tower"]) == calls
    assert new.time == pytest.approx(1e-3)


@pytest.mark.parametrize("scheme", ["imex-cn", "imex-be"])
def test_run_monitors_each_state_once(monkeypatch, state_perturbed, scheme):
    """run() hands each step the status it already holds for the step's
    incoming state, so n steps monitor n + 1 states, each once; the stored
    history is that of a step-by-step walk that monitors every input."""
    calls = Counter()

    def counted(*args, **kwargs):
        calls["monitor"] += 1
        return monitor(*args, **kwargs)

    monkeypatch.setattr(solver, "monitor", counted)
    cfg = SolverConfig(eps=0.01, dt=1e-3, t_end=4e-3, scheme=scheme)
    traj = run(state_perturbed, cfg, output_stride=1)
    assert not traj.breached
    assert calls["monitor"] == 4 + 1
    traces = solver.make_traces(state_perturbed)
    cur, walked = state_perturbed, [monitor(state_perturbed, cfg.delta0, cfg.l)]
    for _ in range(4):
        cur, mon = step(cur, cfg, traces=traces)
        walked.append(mon)
    assert traj.monitors == walked


def test_step_is_deterministic(grid_small, state_perturbed):
    cfg = SolverConfig(eps=0.01, dt=2e-3, t_end=0.01)
    a, _ = step(state_perturbed, cfg)
    b, _ = step(state_perturbed, cfg)
    assert np.array_equal(a.rho_shift.values, b.rho_shift.values)
    assert np.array_equal(a.u_shift.values, b.u_shift.values)
    assert np.array_equal(a.h_shift.values, b.h_shift.values)


def test_cfl_subdivision_matches_explicit_substeps(grid_small, state_perturbed):
    # one nominal step at dt (which internally subdivides into n parts)
    # equals n explicit steps at dt/n with shared traces
    from blmhd.solver import _cfl_substeps, make_traces

    cfg = SolverConfig(eps=0.01, dt=0.8, t_end=0.8, cfl_safety=0.9)
    n = _cfl_substeps(state_perturbed, cfg)
    assert n > 1
    big, _ = step(state_perturbed, cfg)
    small_cfg = SolverConfig(eps=0.01, dt=cfg.dt / n, t_end=0.8, cfl_safety=1.0)
    traces = make_traces(state_perturbed)
    cur = state_perturbed
    for _ in range(n):
        # dt/n also satisfies the CFL so no further subdivision occurs
        assert _cfl_substeps(cur, small_cfg) == 1
        cur, _ = step(cur, small_cfg, traces=traces)
    assert (big.rho_shift - cur.rho_shift).max_abs() < 1e-12
    assert (big.u_shift - cur.u_shift).max_abs() < 1e-12
    assert (big.h_shift - cur.h_shift).max_abs() < 1e-12


def test_run_stride_and_times(grid_small, state_perturbed):
    cfg = SolverConfig(eps=0.01, dt=2e-3, t_end=0.02)
    traj = run(state_perturbed, cfg, output_stride=5)
    assert not traj.breached
    # initial state + steps 5 and 10
    assert len(traj.states) == 3
    assert traj.times == pytest.approx([0.0, 0.01, 0.02])
    assert len(traj.monitors) == len(traj.states)


def test_run_initially_breached(grid_small):
    grid = grid_small
    rho = field_from_function(grid, lambda x, y: 0.4 * np.exp(-(y**2)))
    st = equilibrium_state(grid, rho_shift=rho)
    cfg = SolverConfig(eps=0.01, dt=1e-3, t_end=0.01)
    traj = run(st, cfg)
    assert traj.breached
    assert len(traj.states) == 1


def test_run_stops_on_density_floor_breach():
    # a 50-unit step drives the density below the floor inside a substep;
    # run() must report the breach and keep only the last healthy state
    st = perturbed_state(GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0))
    traj = run(st, SolverConfig(dt=50.0, t_end=50.0))
    assert traj.breached
    assert len(traj.states) == 1 and traj.states[0] is st
    assert len(traj.monitors) == 1 and not traj.monitors[0].breached


@pytest.mark.parametrize("dt", [20.0, 50.0])
def test_diverging_run_is_a_breach_without_warnings(dt):
    # these steps overflow the unperturbed profiles to inf and NaN inside a
    # substep; the non-finite Field ends the run, and numpy warns of nothing
    st = equilibrium_state(GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run(st, SolverConfig(eps=0.05, dt=dt, t_end=3 * dt))
    assert traj.breached
    assert len(traj.states) == 1 and traj.states[0] is st


@settings(max_examples=15, deadline=None)
@given(
    dt=hst.floats(1e-4, 50.0),
    amp=hst.floats(0.0, 2.0),
    eps=hst.one_of(hst.just(0.0), hst.floats(1e-4, 0.1)),
    scheme=hst.sampled_from(["imex-be", "imex-cn"]),
)
def test_run_never_raises_for_a_valid_config(dt, amp, eps, scheme):
    # amplitudes past the monitor's density bound (a_rho > 0.023) breach at
    # t = 0, and steps of 5 or more can end a run inside a substep (density
    # floor or divergence); breached agrees with the stored monitors: a run
    # stops at a breach, so only the initial state's may be breached
    grid = GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0)
    initial = perturbed_state(grid, a_rho=0.02 * amp, a_u=amp, a_h=amp)
    traj = run(initial, SolverConfig(eps=eps, dt=dt, t_end=2 * dt, scheme=scheme))
    flags = [m.breached for m in traj.monitors]
    assert len(flags) == len(traj.states) and not any(flags[1:])
    assert traj.breached == (flags[0] or len(traj.states) < 3)


@pytest.mark.parametrize("stride, times", [(1, 6), (5, 2), (8, 2)])
def test_run_stores_evenly_spaced_states(state_perturbed, stride, times):
    traj = run(state_perturbed, SolverConfig(dt=1e-3, t_end=5e-3), output_stride=stride)
    assert len(traj.states) == times and traj.times[-1] == pytest.approx(5e-3)


def test_run_refuses_an_off_stride_final_state_before_stepping(state_perturbed, monkeypatch):
    # 5 steps at stride 2 would store steps 0, 2, 4 and 5, which
    # trajectory_report refuses after the run
    def no_step(*args, **kw):
        raise AssertionError("stepped")

    monkeypatch.setattr(solver, "step", no_step)
    cfg = SolverConfig(dt=1e-3, t_end=5e-3)
    with pytest.raises(ValueError, match="output_stride = 2"):
        run(state_perturbed, cfg, output_stride=2)
    with pytest.raises(ValueError, match="output_stride must be at least 1"):
        run(state_perturbed, cfg, output_stride=0)


def test_non_finite_substep_is_recorded_as_a_breach(grid_small, monkeypatch):
    # a NaN in the u tendency must stop the run as a divergence, not
    # escape run() as the ValueError of the Field that first holds it
    real = solver._explicit_terms

    def poisoned(*args):
        n_rho, n_u, n_h, flag = real(*args)
        n_u = n_u.copy()
        n_u[3, 5] = np.nan
        return n_rho, n_u, n_h, flag

    monkeypatch.setattr(solver, "_explicit_terms", poisoned)
    st = perturbed_state(grid_small)
    cfg = SolverConfig(dt=1e-3, t_end=3e-3)
    with pytest.raises(SolverError, match="diverged"):
        step(st, cfg)
    traj = run(st, cfg)
    assert traj.breached
    assert len(traj.states) == 1 and traj.states[0] is st


def test_step_raises_when_breached(grid_small):
    grid = grid_small
    rho = field_from_function(grid, lambda x, y: 0.4 * np.exp(-(y**2)))
    st = equilibrium_state(grid, rho_shift=rho)
    cfg = SolverConfig(eps=0.01, dt=1e-3, t_end=0.01)
    with pytest.raises(SolverError):
        step(st, cfg)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(scheme="rk4")
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0)
    with pytest.raises(ValueError):
        SolverConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(cfl_safety=0.0)
    with pytest.raises(ValueError):
        SolverConfig(mu=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(delta0=0.0)


def test_manufactured_residual_refines_at_second_order():
    ms = ManufacturedSolution(eps=0.01)
    errs = []
    for nx, ny in ((16, 64), (32, 128)):
        grid = GridSpec(nx=nx, ny=ny, y_max=15.0, stretch=2.0)
        st = ms.state_at(grid, 0.1)
        res = pde_residual(st, ms)
        errs.append(max(f.max_abs() for f in res))
    assert errs[1] < errs[0] / 3.0


def test_residual_eps_dependence_is_the_regularizing_laplacian():
    # the eps-term of the residual is linear in eps: difference of the
    # eps = 0.02 and eps = 0 residuals equals 0.02 * (discrete - exact)
    # x-Laplacian contribution, which itself refines at second order
    errs = []
    for nx, ny in ((16, 64), (32, 128)):
        grid = GridSpec(nx=nx, ny=ny, y_max=15.0, stretch=2.0)
        ms2 = ManufacturedSolution(eps=0.02)
        ms0 = ManufacturedSolution(eps=0.0)
        r2 = pde_residual(ms2.state_at(grid, 0.1), ms2)
        r0 = pde_residual(ms0.state_at(grid, 0.1), ms0)
        errs.append(max((a - b).max_abs() for a, b in zip(r2, r0)))
    assert errs[1] < errs[0] / 2.0


def test_boundary_incompatible_manufactured_rejected():
    import sympy as sp

    t, x, y = sp.symbols("t x y", real=True)
    grid = GridSpec(nx=16, ny=64, y_max=15.0, stretch=2.0)
    # d_y rho != 0 at the wall violates the Neumann condition there
    bad = ManufacturedSolution(
        eps=0.01,
        rho_expr=sp.Rational(1, 20) * sp.exp(-t) * sp.cos(x) * sp.exp(-y),
        u_expr=sp.Rational(1, 10) * sp.exp(-t) * sp.sin(x) * y**2 * sp.exp(-(y**2)),
        h_expr=sp.Rational(1, 10) * sp.exp(-t) * sp.cos(x) * sp.exp(-(y**2)),
    )
    with pytest.raises(ValueError):
        bad.check_boundary_compatibility(grid)
    st = bad.state_at(grid, 0.1)
    with pytest.raises(ValueError):
        pde_residual(st, bad)


def _bootstrapped(state, m, mu=1.0, kappa=1.0):
    """Compatibility sources bootstrapped from the state's physical triple."""
    grid = state.grid
    E = np.exp(-grid.y)[None, :]
    return bootstrap_time_derivatives(
        Field(state.rho_shift.values + 1.0, grid),
        Field(state.u_shift.values + 1.0 - E, grid),
        Field(state.h_shift.values + 1.0, grid),
        m=m,
        mu=mu,
        kappa=kappa,
    )


def _stage_tower(st, cfg, bundle, forcing):
    """The level-0 tower a solver stage builds from the arrays of st."""
    w = (st.rho_shift.values, st.u_shift.values, st.h_shift.values)
    return TimeTower((st.grid, st.time, w), bundle, forcing, max_depth=0, physics=cfg)


@pytest.mark.parametrize("x_scheme", ["fd4", "spectral"])
def test_explicit_terms_plus_diffusion_equal_pde_rhs(x_scheme):
    # the solver's explicit tendencies plus the diffusion it treats
    # implicitly are the tower's instantaneous d_t (rho, u, h)
    grid = GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0, x_scheme=x_scheme)
    eps, mu, kappa = 0.05, 0.7, 1.3
    st = perturbed_state(grid)
    bundle = _bootstrapped(st, m=2, mu=mu, kappa=kappa)
    forcing = ManufacturedSolution(mu=mu, kappa=kappa, eps=eps)
    cfg = SolverConfig(eps=eps, mu=mu, kappa=kappa)
    n_rho, n_u, n_h, _ = _explicit_terms(_stage_tower(st, cfg, bundle, forcing))
    r, u, h = st.rho_shift, st.u_shift, st.h_shift
    solver_rhs = (
        n_rho + eps * (d2x(r).values + d2y(r).values),
        n_u + (eps * d2x(u).values + mu * d2y(u).values) / st.rho_total,
        n_h + eps * d2x(h).values + kappa * d2y(h).values,
    )
    for ours, ref in zip(solver_rhs, pde_rhs(st, bundle, forcing, physics=cfg)):
        assert np.max(np.abs(ours - ref.values)) <= 1e-12 * ref.max_abs()


class _ForcingOfZeros:
    """An explicit all-zero forcing provider."""

    def fields(self, grid, t, deriv=0):
        z = Field(np.zeros((grid.nx, grid.ny)), grid)
        return z, z, z


def _bundle_of_zeros(grid, m):
    z = Field(np.zeros((grid.nx, grid.ny)), grid)
    return SourceBundle(levels=((z, z, z, z),) * m, m=m)


@pytest.mark.parametrize("x_scheme", ["fd4", "spectral"])
def test_absent_sources_and_forcing_equal_explicit_zeros(x_scheme):
    # None skips a term that explicit zeros would add: every tower level
    # and the solver's explicit terms agree as floats
    grid = GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0, x_scheme=x_scheme)
    st = perturbed_state(grid)
    cfg = SolverConfig(eps=0.05, mu=0.7, kappa=1.3)
    absent = TimeTower(st, None, None, max_depth=3, physics=cfg)
    zeros = TimeTower(st, _bundle_of_zeros(grid, 2), _ForcingOfZeros(), max_depth=3, physics=cfg)
    for i in range(4):
        for name, arr in absent.level(i).items():
            assert np.array_equal(arr, zeros.level(i)[name]), (i, name)
    ours = _explicit_terms(_stage_tower(st, cfg, None, None))
    ref = _explicit_terms(_stage_tower(st, cfg, _bundle_of_zeros(grid, 1), _ForcingOfZeros()))
    for a, b in zip(ours[:3], ref[:3]):
        assert np.array_equal(a, b)
    assert ours[3] is ref[3] is False


@pytest.mark.parametrize("eps", [0.01, 0.1, 1.0])
def test_source_flag(grid_small, eps):
    # bootstrapped sources on perturbed data dominate the 1% threshold;
    # without sources, or on the equilibrium (whose sources vanish), the
    # flag stays down
    st = perturbed_state(grid_small)
    cfg = SolverConfig(eps=eps, dt=1e-3, t_end=1e-3)
    assert step(st, cfg, _bootstrapped(st, m=1))[1].source_flag
    assert not step(st, cfg, None)[1].source_flag
    eq = equilibrium_state(grid_small)
    assert not step(eq, cfg, _bootstrapped(eq, m=1))[1].source_flag


# ---------------------------------------------------------------------------
# Tridiagonal kernels against dense solves
# ---------------------------------------------------------------------------


def _dense(lo, di, up, periodic=False):
    """Dense matrix of one system given its three length-n diagonals."""
    a = np.diag(di) + np.diag(lo[1:], -1) + np.diag(up[:-1], 1)
    if periodic:
        a[0, -1] = lo[0]
        a[-1, 0] = up[-1]
    return a


def _dominant_diagonals(rng, shape):
    lo = rng.uniform(-1.0, 1.0, shape)
    up = rng.uniform(-1.0, 1.0, shape)
    di = 2.5 + rng.uniform(0.0, 1.0, shape)
    return lo, di, up


def _open_solve(lo, di, up, rhs):
    """thomas_batched on natural-layout rows: fold in, unfold out."""
    return _unfold(thomas_batched(*tridiag_factor(lo, di, up), _fold(rhs)), len(rhs))


def _periodic_solve(lo, di, up, rhs):
    lof, cp, piv, seed, gamma = periodic_thomas_batched(lo, di, up)
    y, q = thomas_batched(lof, cp, piv, _fold(rhs)), thomas_batched(lof, cp, piv, seed)
    return _sherman_morrison(y, q, lof[0, 0], gamma, len(rhs))


def _assert_matches_dense(sol, lo, di, up, rhs, periodic=False):
    assert sol.shape == rhs.shape
    for idx in np.ndindex(*rhs.shape[1:]):
        i = (slice(None),) + idx
        m = (slice(None),) + tuple(0 if s == 1 else j for s, j in zip(lo.shape[1:], idx))
        a = _dense(lo[m], di[m], up[m], periodic)
        np.testing.assert_allclose(sol[i], np.linalg.solve(a, rhs[i]), rtol=1e-12, atol=1e-13)


def test_fold_layout_and_round_trip():
    for n in (4, 5):
        a = np.arange(n * 2.0).reshape(n, 2) + 1.0
        f = _fold(a)
        assert f.shape == ((n + 1) // 2, 2, 2)
        np.testing.assert_array_equal(f[:, 0], a[: (n + 1) // 2])
        np.testing.assert_array_equal(f[: n // 2, 1], a[::-1][: n // 2])
        if n % 2:
            np.testing.assert_array_equal(f[-1, 1], 0.0)  # the padding slot
        np.testing.assert_array_equal(_unfold(f, n), a)


def test_thomas_matches_dense_solve():
    rng = np.random.default_rng(0)
    n, batch = 12, (5, 3)
    lo, di, up = _dominant_diagonals(rng, (n,) + batch)
    rhs = rng.standard_normal((n,) + batch)
    _assert_matches_dense(_open_solve(lo, di, up, rhs), lo, di, up, rhs)


def test_thomas_shares_one_matrix_across_right_hand_sides():
    # matrix rows of shape (4, 1) broadcast against rhs rows of shape (4, 3)
    rng = np.random.default_rng(1)
    for n in (10, 11):
        lo, di, up = _dominant_diagonals(rng, (n, 4, 1))
        rhs = rng.standard_normal((n, 4, 3))
        sol = _open_solve(lo, di, up, rhs)
        _assert_matches_dense(sol, lo, di, up, rhs)
        # the shared elimination performs each solve's arithmetic unchanged
        for c in range(3):
            one = (lo[..., 0], di[..., 0], up[..., 0])
            assert np.array_equal(sol[..., c], _open_solve(*one, rhs[..., c]))


def test_periodic_thomas_matches_dense_solve_with_corners():
    rng = np.random.default_rng(2)
    n, batch = 9, (4, 2)
    lo, di, up = _dominant_diagonals(rng, (n,) + batch)
    rhs = rng.standard_normal((n,) + batch)
    for idx in np.ndindex(*batch):
        i = (slice(None),) + idx
        a = _dense(lo[i], di[i], up[i], periodic=True)
        assert a[0, -1] != 0.0 and a[-1, 0] != 0.0
    _assert_matches_dense(_periodic_solve(lo, di, up, rhs), lo, di, up, rhs, periodic=True)


@hst.composite
def _systems(draw, min_rows):
    """Diagonally dominant systems of both row parities, with full (n, k, c)
    or broadcast (n, k, 1) matrices against (n, k, c) right-hand sides."""
    n = draw(hst.integers(min_rows, 40))
    k, c = draw(hst.integers(1, 3)), draw(hst.integers(1, 3))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    broadcast = draw(hst.booleans())
    lo, di, up = _dominant_diagonals(rng, (n, k, 1 if broadcast else c))
    return lo, di, up, rng.standard_normal((n, k, c))


@settings(max_examples=60, deadline=None)
@given(_systems(min_rows=2))
def test_folded_elimination_matches_dense_solve(system):
    lo, di, up, rhs = system
    sol = _open_solve(lo, di, up, rhs)
    _assert_matches_dense(sol, lo, di, up, rhs)
    if lo.shape[-1] == 1:
        one = (lo[..., 0], di[..., 0], up[..., 0])
        assert np.array_equal(sol[..., -1], _open_solve(*one, rhs[..., -1]))


# n = 2 has no distinct corner entries: they coincide with the off-diagonals
@settings(max_examples=60, deadline=None)
@given(_systems(min_rows=3))
def test_folded_periodic_elimination_matches_dense_solve(system):
    lo, di, up, rhs = system
    _assert_matches_dense(_periodic_solve(lo, di, up, rhs), lo, di, up, rhs, periodic=True)


def test_y_matrix_rows_match_apply_dyy_and_dense_solve(grid_small):
    grid = grid_small
    rng = np.random.default_rng(3)
    a = 0.05
    coeff = rng.uniform(0.5, 1.5, (grid.ny, grid.nx, 3))
    lo2, _, _, _, _ = _d2y_coeffs(grid)
    w = rng.standard_normal((grid.nx, grid.ny))
    rhs = rng.standard_normal((grid.ny, grid.nx, 3))
    for c, wall_bc in enumerate(_WALL_BCS):
        lo, di, up = _y_matrix(grid, a * coeff[..., c], wall_bc)
        sol = _open_solve(lo, di, up, rhs[..., c])
        for x in (0, grid.nx // 2):
            m = _dense(lo[:, x], di[:, x], up[:, x])
            # rows act as I - a coeff D_y^2, with D_y^2 as _apply_dyy closes it
            ac = a * coeff[:, x, c]
            expected = w[x] - ac * _apply_dyy(grid, w, wall_bc)[x]
            np.testing.assert_allclose(m @ w[x], expected, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(m[-1], np.eye(grid.ny)[-1])
            if wall_bc == "dirichlet":
                np.testing.assert_array_equal(m[0], np.eye(grid.ny)[0])
            else:
                assert m[0, 1] < 0.0 and m[0, 0] == pytest.approx(1.0 - m[0, 1])
            assert m[1, 0] == pytest.approx(-ac[1] * lo2[0])
            np.testing.assert_allclose(
                sol[:, x], np.linalg.solve(m, rhs[:, x, c]), rtol=1e-12, atol=1e-12
            )
    assert set(_WALL_BCS) == {"neumann", "dirichlet"}  # both closures covered


def _periodic_laplacian(n):
    lap = -2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    lap[0, -1] = lap[-1, 0] = 1.0
    return lap


def _check_directional_solves(grid, eps, kappa, k, rng, err_msg=""):
    """_solve_y_implicit and _solve_x_cn on random data equal dense solves of
    the stage matrices (distinct scalars on rho and h, so that a swap shows)."""
    nx, ny = grid.nx, grid.ny
    w = tuple(rng.standard_normal((nx, ny)) for _ in range(3))
    rho = 0.1 * rng.standard_normal((nx, ny))
    traces = {key: rng.standard_normal(nx) for key in ("u_wall", "rho_top", "u_top", "h_top")}
    # D_y^2 with the closures the y rows use, built from _apply_dyy
    dyy = {bc: _apply_dyy(grid, np.eye(ny), bc).T for bc in set(_WALL_BCS)}
    coeff = (eps, 1.0 / (rho + 1.0), kappa)
    out = _solve_y_implicit(grid, coeff, k, w, traces)
    tops = (traces["rho_top"], traces["u_top"], traces["h_top"])
    for c, wall_bc in enumerate(_WALL_BCS):
        assert out[c].flags.c_contiguous and out[c].base is None
        ac = k * np.broadcast_to(coeff[c], (nx, ny))
        for x in range(nx):
            m = np.eye(ny) - ac[x][:, None] * dyy[wall_bc]
            b = w[c][x].copy()
            b[-1] = tops[c][x]
            if wall_bc == "dirichlet":
                b[0] = traces["u_wall"][x]
            np.testing.assert_allclose(
                out[c][x], np.linalg.solve(m, b), rtol=1e-12, atol=1e-12, err_msg=err_msg
            )
    coeff = (eps, eps / (rho + 1.0), kappa)
    out = _solve_x_cn(w, coeff, k, grid.dx)
    a = 0.5 * k / grid.dx**2
    lap_x = _periodic_laplacian(nx)
    for c in range(3):
        assert out[c].flags.c_contiguous and out[c].base is None
        ac = a * np.broadcast_to(coeff[c], (nx, ny))
        for y in range(ny):
            dl = ac[:, y][:, None] * lap_x
            exact = np.linalg.solve(np.eye(nx) - dl, w[c][:, y] + dl @ w[c][:, y])
            np.testing.assert_allclose(
                out[c][:, y], exact, rtol=1e-12, atol=1e-12, err_msg=err_msg
            )


@pytest.mark.parametrize("nx, ny", [(9, 11), (9, 12), (10, 11)])
def test_directional_solves_on_odd_grids(nx, ny):
    """Odd row counts put the middle row in the folded padding slot's pair."""
    grid = GridSpec(nx=nx, ny=ny, y_max=12.0, stretch=1.5)
    _check_directional_solves(grid, 0.3, 0.5, 4e-2, np.random.default_rng(nx * ny))


def test_cached_factors_follow_coefficients_and_step(grid_small):
    """Each call of _solve_y_implicit and _solve_x_cn, in the order A, B, A
    of (eps, kappa, step), equals a dense solve of that stage's matrices;
    the factors cached along the way are read-only."""
    grid = grid_small
    rng = np.random.default_rng(4)
    cases = {"A": (0.02, 0.5, 1e-3), "B": (0.02, 0.5, 4e-3)}
    _y_factors.cache_clear()
    _periodic_factors.cache_clear()
    for name in ("A", "B", "A"):
        _check_directional_solves(grid, *cases[name], rng, err_msg=name)
    assert _y_factors.cache_info().currsize == 4  # (eps, kappa) x 2 steps
    assert _periodic_factors.cache_info().currsize == 4
    factors = [*_y_factors(grid, 1e-3 * 0.02, "neumann")]
    factors += _periodic_factors(grid.nx, 0.5 * 1e-3 / grid.dx**2 * 0.02)
    assert _y_factors.cache_info().currsize == _periodic_factors.cache_info().currsize == 4
    for arr in factors:
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_diagnose_setup_residual_matches_the_benchmark_reference_at_seed_12():
    # the benchmark's diagnose set-up at input seed 12: a 64x128 fd4 run
    # whose u_m residual peaks on the wall row, where its Z_1^2 derivatives
    # amplify a one-ulp change of u in the x half-step past the 1e-8 gate
    # (a dense rho/h step matrix gave 7.020390e-7 against 7.020158e-7)
    import json
    import pathlib

    from blmhd import cancellation
    from blmhd.cli import build_initial_state
    from blmhd.config import parse_config
    from blmhd.state import MultiIndex

    root = pathlib.Path(__file__).resolve().parents[1]
    ref = json.loads((root / "perfbench" / "reference.json").read_text())
    want = ref["full"]["diagnose"]["12"]["residual.02.u_m.max"]
    cfg = parse_config(
        "[grid]\nnx = 64\nny = 128\nx_scheme = fd4\n[physics]\neps = 0.01\n"
        "[solver]\ndt = 0.001\nt_end = 0.008\nscheme = imex-cn\noutput_stride = 2\n"
        "[experiment]\nm = 2\ninitial = perturbed\namplitude = 0.02\n"
    )
    st = build_initial_state(cfg, 12)
    grid = st.grid
    E = np.exp(-grid.y)[None, :]
    bundle = bootstrap_time_derivatives(
        Field(st.rho_shift.values + 1.0, grid),
        Field(st.u_shift.values + 1.0 - E, grid),
        Field(st.h_shift.values + 1.0, grid),
        m=1,
        mu=cfg.solver.mu,
        kappa=cfg.solver.kappa,
    )
    traj = run(st, cfg.solver, bundle, output_stride=cfg.output_stride)
    assert not traj.breached
    series = cancellation.cancellation_residual(traj, MultiIndex(0, 2, 0), "u_m")
    got = max(f.max_abs() for f in series)
    assert abs(got - want) <= 1e-8 * max(abs(got), abs(want))
