"""Time integrator: monitors, steady state, CFL subdivision, residuals."""
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from blmhd import operators, solver, state
from blmhd.data import equilibrium, perturbed, physical
from blmhd.grid import Field, GridSpec, field_from_function
from blmhd.manufactured import ManufacturedSolution
from blmhd.operators import _d2y_coeffs, d2x, d2y
from blmhd.pde import Physics, TimeTower, pde_rhs
from blmhd.solver import (
    _WALL_BCS,
    MonitorSummary,
    SolverConfig,
    SolverError,
    _apply_dyy,
    _eliminate,
    _explicit_terms,
    _fold,
    _periodic_factors,
    _sherman_morrison,
    _solve_x_cn,
    _solve_y_implicit,
    _unfold,
    _y_factors,
    _y_rows,
    monitor,
    pde_residual,
    periodic_thomas_batched,
    run,
    step,
    thomas_batched,
)
from blmhd.sources import SourceBundle, bootstrap_time_derivatives
from conftest import perturbed_state


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
    st = equilibrium(grid, rho_shift=rho)
    mon = monitor(st, 0.25, 2.0)
    # threshold (2l-1) delta^2 / 2 = 3 * 0.125^2 / 2 ~ 0.0234 << 0.4
    assert mon.rho_sup == pytest.approx(0.4, rel=1e-12)
    assert mon.breached


def test_monitor_band_flag_without_breach(grid_small):
    grid = grid_small
    # pick l large enough that the smallness threshold (2l-1) delta^2 / 2
    # exceeds the excess 0.6 while 1 + rho still leaves the [1/2, 3/2] band
    rho = field_from_function(grid, lambda x, y: 0.6 * np.exp(-(y**2)))
    st = equilibrium(grid, rho_shift=rho)
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


_CLOSURE_WORK = ("derive_secondary", "dx", "integrate_y", "tower")


def _count_closure_work(monkeypatch):
    """Count the calls of _CLOSURE_WORK (the tower's are TimeTower builds)
    in every blmhd module that holds them."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in (
        ("derive_secondary", state.derive_secondary),
        ("dx", operators.dx),
        ("integrate_y", operators.integrate_y),
    ):
        wrapper = counted(name, fn)
        for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "blmhd"]:
            if vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, wrapper)
    monkeypatch.setattr(TimeTower, "__init__", counted("tower", TimeTower.__init__))
    return counts


@pytest.mark.parametrize("scheme", ["imex-cn", "imex-be"])
def test_a_step_builds_one_state(monkeypatch, state_perturbed, scheme):
    """The substeps pass arrays: a step of 3 substeps builds one checked
    State, at its end, which holds its fields and time only.  Each stage's
    level-0 tower, on a State of its arrays, takes dx u and dx h and v and
    g from the closure, and no psi, so a stage takes only dx rho besides
    them (imex-cn: two stages per substep, imex-be: one)."""
    counts = _count_closure_work(monkeypatch)
    monkeypatch.setattr(solver, "_cfl_substeps", lambda st, cfg: 3)
    new, _ = step(state_perturbed, SolverConfig(eps=0.01, dt=1e-3, scheme=scheme))
    calls = {"imex-cn": (0, 18, 12, 6), "imex-be": (0, 9, 6, 3)}[scheme]
    assert tuple(counts[name] for name in _CLOSURE_WORK) == calls
    assert set(vars(new)) == {"rho_shift", "u_shift", "h_shift", "time"}
    assert new.time == pytest.approx(1e-3)


@pytest.mark.parametrize("scheme", ["imex-cn", "imex-be"])
def test_a_step_derives_only_the_v_its_cfl_rule_reads(monkeypatch, state_perturbed, scheme):
    """In a run every step builds one derived field: the v of its incoming
    state, which its CFL rule reads (one dx and one integrate_y) and does
    not keep; its stages take v and g (two of each) and no psi.  At 16x48
    a step of dt = 1e-3 is one substep."""
    counts = _count_closure_work(monkeypatch)
    cfg = SolverConfig(eps=0.01, dt=1e-3, scheme=scheme)
    new, _ = step(state_perturbed, cfg)
    calls = {"imex-cn": (1, 7, 5, 2), "imex-be": (1, 4, 3, 1)}[scheme]
    assert tuple(counts[name] for name in _CLOSURE_WORK) == calls
    assert set(vars(state_perturbed)) == {"rho_shift", "u_shift", "h_shift", "time"}
    counts.clear()
    step(new, cfg)
    assert tuple(counts[name] for name in _CLOSURE_WORK) == calls


@pytest.mark.parametrize("scheme, per_substep", [("imex-cn", 3), ("imex-be", 0)])
def test_a_substep_takes_the_y_diffusion_of_its_base_once(
    monkeypatch, state_perturbed, scheme, per_substep
):
    """Both imex-cn y stages of a substep start from the same base, so the
    substep applies D_y^2 to its three fields once; imex-be's single stage
    is fully implicit and applies none."""
    calls = Counter()

    def counted(*args):
        calls["dyy"] += 1
        return _apply_dyy(*args)

    monkeypatch.setattr(solver, "_apply_dyy", counted)
    monkeypatch.setattr(solver, "_cfl_substeps", lambda st, cfg: 3)
    step(state_perturbed, SolverConfig(eps=0.01, dt=1e-3, scheme=scheme))
    assert calls["dyy"] == 3 * per_substep


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


@pytest.mark.parametrize("scheme", ["imex-cn", "imex-be"])
def test_every_step_summarises_the_monitors_of_unstored_steps(state_perturbed, scheme):
    cfg = SolverConfig(eps=0.01, dt=1e-3, t_end=4e-3, scheme=scheme)
    traj = run(state_perturbed, cfg, output_stride=2)
    assert len(traj.monitors) == 3
    traces = solver.make_traces(state_perturbed)
    cur, walked = state_perturbed, [monitor(state_perturbed, cfg.delta0, cfg.l)]
    for _ in range(4):
        cur, mon = step(cur, cfg, traces=traces)
        walked.append(mon)
    assert traj.every_step == MonitorSummary(
        h_floor=min(m.h_floor for m in walked),
        rho_sup=max(m.rho_sup for m in walked),
        shear_sup=max(m.shear_sup for m in walked),
        rho_band_ok=all(m.rho_band_ok for m in walked),
        source_flag=any(m.source_flag for m in walked),
    )


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
    st = equilibrium(grid, rho_shift=rho)
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
    st = equilibrium(GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0))
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
    # stops at a breach, so only the initial state's may be breached, and
    # the every-step summary is within the monitor's bounds unless it was
    grid = GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0)
    initial = perturbed_state(grid, a_rho=0.02 * amp, a_u=amp, a_h=amp)
    cfg = SolverConfig(eps=eps, dt=dt, t_end=2 * dt, scheme=scheme)
    traj = run(initial, cfg)
    flags = [m.breached for m in traj.monitors]
    assert len(flags) == len(traj.states) and not any(flags[1:])
    assert traj.breached == (flags[0] or len(traj.states) < 3)
    s, delta = traj.every_step, cfg.delta0 / 2.0
    within = (
        s.h_floor >= delta
        and s.rho_sup <= (2.0 * cfg.l - 1.0) * delta**2 / 2.0
        and s.shear_sup <= 1.0 / delta
    )
    assert within != flags[0]


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


def _poisoned(out, field: int):
    """A stage's (rho, u, h) output with one NaN in the field-th array."""
    out = list(out)
    out[field] = out[field].copy()
    out[field][3, 5] = np.nan
    return tuple(out)


# each stage a NaN can appear in: the solver function that makes it, and
# how its output is poisoned in one of rho, u, h
_POISONED_STAGES = {
    "x_half_step": ("_solve_x_cn", _poisoned),
    "y_solve": ("_solve_y_implicit", _poisoned),
    "explicit_terms": ("_explicit_terms", lambda out, c: (*_poisoned(out[:3], c), out[3])),
}


@pytest.mark.parametrize("field", ["rho", "u", "h"])
@pytest.mark.parametrize("scheme", ["imex-cn", "imex-be"])
@pytest.mark.parametrize("stage", sorted(_POISONED_STAGES))
def test_non_finite_substep_is_recorded_as_a_breach(
    grid_small, monkeypatch, stage, scheme, field
):
    # a NaN in any stage must stop the run as a divergence, not escape
    # run() as the ValueError of a Field that holds it; the Fields inside
    # the step are not scanned, so it is caught at the end of the step (a
    # NaN in rho or h reaches no monitor there, only the step's own check)
    name, poison = _POISONED_STAGES[stage]
    real = getattr(solver, name)
    c = ("rho", "u", "h").index(field)
    monkeypatch.setattr(solver, name, lambda *args: poison(real(*args), c))
    st = perturbed_state(grid_small)
    cfg = SolverConfig(dt=1e-3, t_end=3e-3, scheme=scheme)
    with pytest.raises(SolverError, match="diverged"):
        step(st, cfg)
    traj = run(st, cfg)
    assert traj.breached
    assert len(traj.states) == 1 and traj.states[0] is st


def test_a_non_finite_shear_at_the_end_of_a_step_is_a_divergence(grid_small, monkeypatch):
    # v and g of the new state are not scanned, so the monitor of the new
    # state runs inside the step's check: its shear Field, if non-finite,
    # ends the step as a divergence too, not as a NonFiniteError
    st = perturbed_state(grid_small)
    cfg = SolverConfig(dt=1e-3, t_end=3e-3)
    mon = monitor(st, cfg.delta0, cfg.l)
    real = solver.dy

    def poisoned(f):
        out = real(f).values.copy()
        out[3, 5] = np.inf
        return Field._computed(out, f.grid)

    monkeypatch.setattr(solver, "dy", poisoned)
    with pytest.raises(SolverError, match="diverged"):
        step(st, cfg, status=mon)


@pytest.mark.parametrize("scheme", ["imex-cn", "imex-be"])
def test_a_step_scans_only_its_new_arrays_and_the_shear(grid_small, monkeypatch, scheme):
    # finiteness is checked where data enter and once per step: the three
    # new arrays and the monitor's shear are a step's only checked Fields;
    # every operator result, tower level, v and g is built unscanned
    cfg = SolverConfig(dt=1e-3, t_end=2e-3, scheme=scheme)
    st, mon = step(perturbed_state(grid_small), cfg)  # warms the caches
    scans = []
    real = Field.__post_init__

    def counted(self):
        scans.append(self)
        real(self)

    monkeypatch.setattr(Field, "__post_init__", counted)
    step(st, cfg, status=mon)  # as run() calls it, with the status it holds
    assert len(scans) == 4


def test_step_raises_when_breached(grid_small):
    grid = grid_small
    rho = field_from_function(grid, lambda x, y: 0.4 * np.exp(-(y**2)))
    st = equilibrium(grid, rho_shift=rho)
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


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mu=np.nan),
        dict(kappa=np.inf),
        dict(eps=np.nan),
        dict(dt=np.nan),
        dict(t_end=np.inf),
        dict(delta0=np.nan),
        dict(delta0=np.inf),
        dict(l=np.nan),
        dict(l=np.inf),
        dict(l=0.5),
    ],
)
def test_non_finite_physics_and_monitor_settings_are_refused(kwargs):
    # with delta0 = NaN every monitor comparison is False and all three
    # monitors would be off; the INI path already refuses these values
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)
    physics = {k: v for k, v in kwargs.items() if k in ("mu", "kappa", "eps")}
    if physics:
        with pytest.raises(ValueError):
            Physics(**physics)


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


def _stage_tower(st, cfg, bundle, forcing):
    """The level-0 tower a solver stage builds on a State of the arrays of st."""
    w = (st.rho_shift.values, st.u_shift.values, st.h_shift.values)
    stage = state.State(*(Field._computed(a, st.grid) for a in w), time=st.time)
    return TimeTower(stage, bundle, forcing, max_depth=0, physics=cfg)


@pytest.mark.parametrize("x_scheme", ["fd4", "spectral"])
def test_explicit_terms_plus_diffusion_equal_pde_rhs(x_scheme):
    # the solver's explicit tendencies plus the diffusion it treats
    # implicitly are the tower's instantaneous d_t (rho, u, h)
    grid = GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0, x_scheme=x_scheme)
    eps, mu, kappa = 0.05, 0.7, 1.3
    st = perturbed_state(grid)
    bundle = bootstrap_time_derivatives(*physical(st), m=2, mu=mu, kappa=kappa)
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
    unit = dict(mu=1.0, kappa=1.0)
    assert step(st, cfg, bootstrap_time_derivatives(*physical(st), m=1, **unit))[1].source_flag
    assert not step(st, cfg, None)[1].source_flag
    eq = equilibrium(grid_small)
    assert not step(eq, cfg, bootstrap_time_derivatives(*physical(eq), m=1, **unit))[1].source_flag


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


def _folded_rows(lo, di, up):
    """Natural-layout rows folded as _eliminate takes them."""
    return _fold(lo, up), _fold(up, lo), _fold(di)


def _open_solve(lo, di, up, rhs):
    """thomas_batched on natural-layout rows: fold in, unfold out."""
    lof, cp, piv = _folded_rows(lo, di, up)
    _eliminate(lof, cp, piv, len(di))
    return _unfold(thomas_batched(lof, cp, piv, _fold(rhs)), len(rhs))


def _periodic_solve(lo, di, up, rhs):
    lof, cp, piv = _folded_rows(lo, di, up)
    seed = np.empty(cp.shape)
    gamma = periodic_thomas_batched(lof, cp, piv, seed, len(di))
    y, q = thomas_batched(lof, cp, piv, _fold(rhs)), thomas_batched(lof, cp, piv, seed)
    _sherman_morrison(y, q, lof[0, 0], gamma, np.empty(y.shape))
    return _unfold(y, len(rhs))


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
    n = grid.ny
    for c, wall_bc in enumerate(_WALL_BCS):
        # the folded builder's rows, unfolded: lo's bottom chain holds up,
        # and cp's holds lo
        lof, upf, dif = np.empty((3, (n + 1) // 2, 2, grid.nx))
        _fold(a * coeff[..., c], out=lof)
        _y_rows(grid, wall_bc, lof, upf, dif)
        lo = _unfold(np.stack((lof[:, 0], upf[:, 1]), axis=1), n)
        up = _unfold(np.stack((upf[:, 0], lof[:, 1]), axis=1), n)
        di = _unfold(dif, n)
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


# ---------------------------------------------------------------------------
# Bitwise oracles: the per-field stages the folded builders replaced
# ---------------------------------------------------------------------------


def _ref_tridiag_factor(lo, di, up):
    """Folded factors of natural-layout rows, by three folds into fresh
    arrays and the two-ended elimination of their slots."""
    n = len(di)
    shape = np.broadcast_shapes(lo.shape, di.shape, up.shape)
    fshape = ((n + 1) // 2, 2) + shape[1:]
    lof, cp, piv = (np.empty(fshape) for _ in range(3))
    _fold(lo, up, lof)
    dif, upf = _fold(di), _fold(up, lo)
    c, p, l = list(cp), list(piv), list(lof)
    p[0][...] = dif[0]
    np.divide(upf[0], p[0], c[0])
    for j in range(1, len(p) - n % 2):
        np.multiply(l[j], c[j - 1], p[j])
        np.subtract(dif[j], p[j], p[j])
        np.divide(upf[j], p[j], c[j])
    if n % 2:
        r = n // 2
        l[-1][1] = up[r]
        p[-1][...] = di[r] - lo[r] * c[-2][0] - up[r] * c[-2][1]
        c[-1][...] = -1.0
    else:
        p[-1] *= 1.0 - c[-1][0] * c[-1][1]
    return lof, cp, piv


def _ref_thomas_batched(lo, cp, piv, rhs, out=None):
    """The sweep with the folded factors, indexed slot by slot."""
    dp = np.empty(np.broadcast_shapes(cp.shape, rhs.shape)) if out is None else out
    d = list(dp)
    tmp = np.empty(dp.shape[1:])
    np.divide(rhs[0], piv[0], d[0])
    for j, (lo_j, piv_j, rhs_j) in enumerate(zip(lo[1:], piv[1:], rhs[1:]), 1):
        np.multiply(lo_j, d[j - 1], tmp)
        np.subtract(rhs_j, tmp, d[j])
        np.divide(d[j], piv_j, d[j])
    np.multiply(cp[-1], d[-1][::-1], tmp)
    np.subtract(d[-1], tmp, d[-1])
    for j in range(len(d) - 2, -1, -1):
        np.multiply(cp[j], d[j + 1], tmp)
        np.subtract(d[j], tmp, d[j])
    return dp


def _ref_periodic_factors(lo, di, up):
    gamma = -di[0]
    dmod = di.copy()
    dmod[0] = di[0] - gamma
    dmod[-1] = di[-1] - lo[0] * up[-1] / gamma
    factors = _ref_tridiag_factor(lo, dmod, up)
    seed = np.zeros(factors[1].shape)
    seed[0, 0] = gamma
    seed[0, 1] = up[-1]
    return (*factors, seed, gamma)


def _ref_sherman_morrison(y, q, lo0, gamma, n):
    num = y[0, 0] + lo0 * y[0, 1] / gamma
    den = 1.0 + q[0, 0] + lo0 * q[0, 1] / gamma
    y -= (num / den) * q
    return _unfold(y, n)


def _ref_solve_x_cn(w, coeff, step, dx_):
    """The x half-step stacked by field: every field's factors copied into
    its own slot, one Sherman-Morrison update per field."""
    a = 0.5 * step / dx_**2
    n, m = w[0].shape
    k = len(w)
    varying = [c for c in range(k) if np.ndim(coeff[c])]
    p = np.empty(((n + 1) // 2 + 2, 2, k, m))
    for c, f in enumerate(w):
        _fold(f, out=p[1:-1, :, c])
    p[0] = p[1, ::-1]
    if n % 2:
        p[-2, 1] = p[-2, 0]
        p[-1] = p[-3, ::-1]
    else:
        p[-1] = p[-2, ::-1]
    wm, ws, wp = p[:-2], p[1:-1], p[2:]
    b, lo, cp, piv = np.empty((4,) + ws.shape[:2] + (k + len(varying), m))
    lap = b[:, :, :k]
    np.multiply(2.0, ws, out=lap)
    np.subtract(wp, lap, out=lap)
    lap += wm
    corr = []
    for c in range(k):
        ac = a * coeff[c]
        if np.ndim(ac) == 0:
            lof, cpf, pivf, seed, gamma = _ref_periodic_factors(
                np.full((n, 1), -ac), np.full((n, 1), 1.0 + 2.0 * ac), np.full((n, 1), -ac)
            )
            factors = (lof, cpf, pivf)
            q = _ref_thomas_batched(lof, cpf, pivf, seed)
        else:
            *factors, seed, gamma = _ref_periodic_factors(-ac, 1.0 + 2.0 * ac, -ac)
            s = k + varying.index(c)
            q = b[:, :, s]
            q[...] = seed
            lo[:, :, s], cp[:, :, s], piv[:, :, s] = factors
        lo[:, :, c], cp[:, :, c], piv[:, :, c] = factors
        corr.append((q, lo[0, 0, c], gamma))
        lap[:, :, c] *= lo[:, :, c]
        np.subtract(ws[:, :, c], lap[:, :, c], out=lap[:, :, c])
    if n % 2:
        b[-1, 1] = 0.0
    _ref_thomas_batched(lo, cp, piv, b, out=b)
    return tuple(_ref_sherman_morrison(b[:, :, c], *corr[c], n) for c in range(k))


def _ref_y_matrix(grid, ac, wall_bc):
    """Natural-layout rows of (I - ac D_y^2), y on axis 0."""
    lo2, di2, up2, _, _ = _d2y_coeffs(grid)
    col = (slice(None),) + (None,) * (ac.ndim - 1)
    lo, di, up = np.zeros_like(ac), np.ones_like(ac), np.zeros_like(ac)
    lo[1:-1] = -ac[1:-1] * lo2[col]
    di[1:-1] = 1.0 - ac[1:-1] * di2[col]
    up[1:-1] = -ac[1:-1] * up2[col]
    if wall_bc == "neumann":
        h1 = grid.y[1] - grid.y[0]
        di[0] = 1.0 + ac[0] * 2.0 / h1**2
        up[0] = -ac[0] * 2.0 / h1**2
    return lo, di, up


def _ref_solve_y_implicit(grid, coeff, a, rhs, traces):
    """The y stage with every matrix built in natural layout and folded."""
    ny, nx = grid.ny, grid.nx
    b, lo, cp, piv = np.empty((4, (ny + 1) // 2, 2, 3, nx))
    for c, f in enumerate(rhs):
        _fold(f.T, out=b[:, :, c])
    b[0, 0, 1] = traces["u_wall"]
    b[0, 1] = (traces["rho_top"], traces["u_top"], traces["h_top"])
    for c, (k, wall_bc) in enumerate(zip(coeff, _WALL_BCS)):
        ac = np.full((ny, 1), a * k) if np.ndim(k) == 0 else a * k.T
        lo[:, :, c], cp[:, :, c], piv[:, :, c] = _ref_tridiag_factor(
            *_ref_y_matrix(grid, ac, wall_bc)
        )
    _ref_thomas_batched(lo, cp, piv, b, out=b)
    out = tuple(np.empty((nx, ny)) for _ in range(3))
    for c, f in enumerate(out):
        _unfold(b[:, :, c], ny, f.T)
    return out


def _stage_inputs(grid, seed):
    """(rho, u, h) arrays, a density and traces: random, or on the
    benchmark's 64x128 grid a perturbed state's fields."""
    rng = np.random.default_rng(seed)
    nx, ny = grid.nx, grid.ny
    if (nx, ny) == (64, 128):
        st = perturbed(grid, seed, 0.02)
        w = (st.rho_shift.values, st.u_shift.values, st.h_shift.values)
        rho = st.rho_shift.values
    else:
        w = tuple(rng.standard_normal((nx, ny)) for _ in range(3))
        rho = 0.1 * rng.standard_normal((nx, ny))
    traces = {key: rng.standard_normal(nx) for key in ("u_wall", "rho_top", "u_top", "h_top")}
    return w, rho, traces


_ORACLE_GRIDS = [(9, 11), (9, 12), (10, 11), (16, 48), (64, 128)]


@pytest.mark.parametrize("nx, ny", _ORACLE_GRIDS)
@pytest.mark.parametrize("eps, kappa, k", [(0.01, 0.01, 1e-3), (0.3, 0.5, 4e-2), (2.0, 3.0, 4.0)])
def test_stages_equal_the_per_field_stages_bitwise(nx, ny, eps, kappa, k):
    """The folded builders perform the per-field stages' arithmetic: the
    solver's (eps, eps / rho, eps) in x and (eps, mu / rho, kappa) in y,
    and distinct rho and h scalars, which must not share a matrix; a long
    step makes the off-diagonal products as large as the diagonal, where a
    reordered sum would show."""
    if (nx, ny) == (64, 128):
        grid = GridSpec(nx=nx, ny=ny, stretch=2.0)  # the benchmark's
    else:
        grid = GridSpec(nx=nx, ny=ny, y_max=12.0, stretch=1.5)
    w, rho, traces = _stage_inputs(grid, nx + ny)
    for x_coeff in ((eps, eps / (rho + 1.0), eps), (eps, eps / (rho + 1.0), kappa)):
        got = _solve_x_cn(w, x_coeff, k / 2.0, grid.dx)
        want = _ref_solve_x_cn(w, x_coeff, k / 2.0, grid.dx)
        for g, r in zip(got, want):
            assert g.flags.c_contiguous and np.array_equal(g, r)
    y_coeff = (eps, 1.0 / (rho + 1.0), kappa)
    got = _solve_y_implicit(grid, y_coeff, k / 2.0, w, traces)
    want = _ref_solve_y_implicit(grid, y_coeff, k / 2.0, w, traces)
    for g, r in zip(got, want):
        assert np.array_equal(g, r)


@pytest.mark.parametrize("n", [8, 9, 11, 12])
def test_cached_factors_equal_the_natural_layout_factors_bitwise(n):
    """The constant x and y factors, built by the folded builders, are the
    natural-layout builds' to the bit, for coefficients from weak to
    strong coupling."""
    grid = GridSpec(nx=8, ny=n, y_max=12.0, stretch=1.5)
    for c in np.geomspace(1e-3, 1e3, 19):
        lo = np.full((n, 1), -c)
        lof, cp, piv, seed, gamma = _ref_periodic_factors(lo, np.full((n, 1), 1.0 + 2.0 * c), lo)
        want = (lof, cp, piv, _ref_thomas_batched(lof, cp, piv, seed), gamma)
        for g, r in zip(_periodic_factors(n, c), want):
            assert np.array_equal(g, r)
        for bc in set(_WALL_BCS):
            want = _ref_tridiag_factor(*_ref_y_matrix(grid, np.full((n, 1), c), bc))
            for g, r in zip(_y_factors(grid, c, bc), want):
                assert np.array_equal(g, r)


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
    bundle = bootstrap_time_derivatives(
        *physical(st), m=1, mu=cfg.solver.mu, kappa=cfg.solver.kappa
    )
    traj = run(st, cfg.solver, bundle, output_stride=cfg.output_stride)
    assert not traj.breached
    series = cancellation.cancellation_residual(traj, MultiIndex(0, 2, 0), "u_m")
    got = max(f.max_abs() for f in series)
    assert abs(got - want) <= 1e-8 * max(abs(got), abs(want))
