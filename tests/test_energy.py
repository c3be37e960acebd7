"""Energy-functional reports: rest-state values, scaling, accumulation."""
import sys
from collections import Counter
from functools import partial

import numpy as np
import pytest

from blmhd import norms, operators
from blmhd.cancellation import T_DEPTH_CAP, good_unknowns
from blmhd.energy import (
    CSV_COLUMNS,
    EnergyReport,
    _slice_functionals,
    _v_over_phi_family,
    instantaneous_functionals,
    trajectory_report,
)
from blmhd.grid import Field
from blmhd.norms import NormSpec, conormal_norm, index_set, weighted_l2, weighted_linf
from blmhd.operators import d2y, dx, dy
from blmhd.pde import Physics, TimeTower, apply_spatial, background, exp_minus_y
from blmhd.solver import SolverConfig, Trajectory, monitor, run
from blmhd.state import MultiIndex

from conftest import per_index_norm, perturbed_state


def test_rest_state_functional_values(state_equilibrium):
    rep = instantaneous_functionals(TimeTower(state_equilibrium, physics=Physics()), 2, 2.0, 0.25)
    assert rep.e_ml <= 1e-12
    assert abs(rep.x_ml - 1.0) <= 5e-3
    assert abs(rep.y_ml - 1.0) <= 5e-3
    # Q keeps the raw shifted fields: ||u||_{L^inf} = 1 from the background
    assert abs(rep.q_inst - 1.0) <= 1e-2
    assert rep.dx_ml <= 1e-12 and rep.dy_ml <= 1e-12
    assert not rep.monitor.breached


def test_energy_scales_quadratically(grid_small):
    c = 0.5
    base = perturbed_state(grid_small, a_rho=0.004, a_u=0.02, a_h=0.02)
    scaled = perturbed_state(grid_small, a_rho=c * 0.004, a_u=c * 0.02, a_h=c * 0.02)
    e1, e2 = (
        instantaneous_functionals(TimeTower(st, physics=Physics()), 2, 2.0, 0.25).e_ml
        for st in (base, scaled)
    )
    # E is quadratic up to the nonlinear (time-derivative) contributions
    assert e2 / e1 == pytest.approx(c**2, rel=0.02)


def test_energy_matches_direct_norm_recomputation(grid_small, state_perturbed):
    tower = TimeTower(state_perturbed, physics=Physics())
    rep = instantaneous_functionals(tower, 2, 2.0, 0.25)
    fr, fu, fh = (partial(tower.field, n) for n in ("rho", "u", "h"))
    grid = grid_small
    E = np.exp(-grid.y)[None, :]

    def fu_dev(k):
        out = fu(k)
        if k == 0:
            from blmhd.grid import Field

            out = Field(out.values - E, grid)
        return out

    total = conormal_norm((fr, fu_dev, fh), NormSpec(2, 2.0, "tangential-capped")) ** 2
    assert rep.e_ml == pytest.approx(total, rel=1e-12)


def _multi_pass_slice(state, m, l, delta0, physics):
    """The slice functionals by separate passes over each index set, every
    Z^alpha taken from scratch: the reference for the walked slice."""
    eps, mu, kappa = physics.eps, physics.mu, physics.kappa
    tower = TimeTower(state, physics=physics)
    fr, fu, fh, fv, fg = (partial(tower.field, n) for n in ("rho", "u", "h", "v", "g"))
    dyr, dyu, dyh = (lambda k, f=f: dy(f(k)) for f in (fr, fu, fh))
    grid = state.grid
    E = Field(np.broadcast_to(exp_minus_y(grid), (grid.nx, grid.ny)), grid)

    def fu_dev(k):
        return fu(k) - E if k == 0 else fu(k)

    def fshear(k):
        return dyu(k) + E if k == 0 else dyu(k)

    def l2(z):
        return weighted_l2(z, l)

    def sup(z):
        return weighted_linf(z, 1.0)

    triple = (fr, fu_dev, fh)
    e_ml = per_index_norm(triple, NormSpec(m, l, "tangential-capped"), l2) ** 2
    full = per_index_norm(triple, NormSpec(m, l), l2) ** 2
    dy_tail = per_index_norm((dyr, fshear, dyh), NormSpec(m - 1, l), l2) ** 2
    linf_tail = per_index_norm((dyr,), NormSpec(1, 1.0), sup) ** 2
    gm_sq = dx_good = dy_good = 0.0
    for a in range(min(m, T_DEPTH_CAP) + 1):
        gu = good_unknowns(tower, MultiIndex(a, m - a, 0), delta0 / 2.0)
        for w, coef in ((gu.rho_m, eps), (gu.u_m, mu), (gu.h_m, kappa)):
            gm_sq += l2(w) ** 2
            dx_good += eps * l2(dx(w)) ** 2
            dy_good += coef * l2(dy(w)) ** 2
    q_inst = (
        weighted_linf(dx(fr(0)), 0.0) ** 2
        + weighted_linf(fr(1), 0.0) ** 2
        + per_index_norm((fu, fh), NormSpec(1, 0.0, "tangential-only"),
                         lambda z: weighted_linf(z, 0.0)) ** 2
        + per_index_norm((fv, fg), NormSpec(1, 1.0, "tangential-only"), sup) ** 2
        + per_index_norm((dyr, fshear, dyh, _v_over_phi_family(state, fv)),
                         NormSpec(1, 1.0), sup) ** 2
    )
    coefs = ((fr, eps), (fu_dev, mu), (fh, kappa))
    sums = {}
    for key, mode, order in (("cap", "tangential-capped", m), ("1", "full", m), ("2", "full", m - 1)):
        x_sum = y_sum = 0.0
        for idx in index_set(order, mode):
            for fam, coef in coefs:
                zf = apply_spatial(fam(idx.t_count), idx)
                if key == "2":
                    x_sum += eps * l2(dy(dx(zf))) ** 2
                    y_sum += coef * l2(d2y(zf)) ** 2
                else:
                    x_sum += eps * l2(dx(zf)) ** 2
                    y_sum += coef * l2(dy(zf)) ** 2
        sums[key] = (x_sum, y_sum)
    (dx_cap, dy_cap), (ix1, iy1), (ix2, iy2) = sums["cap"], sums["1"], sums["2"]
    dx_ml, dy_ml = dx_cap + dx_good, dy_cap + dy_good
    return {
        "e_ml": e_ml,
        "y_ml": 1.0 + full + dy_tail + linf_tail,
        "x_ml": 1.0 + e_ml + gm_sq + dy_tail + linf_tail,
        "q_inst": q_inst,
        "dx_ml": dx_ml,
        "dy_ml": dy_ml,
        "theta_integrand": ix1 + iy1 + ix2 + iy2,
        "xi_integrand": iy2 + ix2 + dx_ml + dy_ml,
    }


@pytest.mark.parametrize("m", [1, 2, 3])
def test_slice_functionals_equal_the_multi_pass_formula(state_perturbed, m):
    physics = Physics(mu=0.7, kappa=1.3, eps=0.05)
    got = _slice_functionals(TimeTower(state_perturbed, physics=physics), m, 2.0, 0.25)
    assert got == _multi_pass_slice(state_perturbed, m, 2.0, 0.25, physics)


def test_a_slice_takes_each_derivative_and_norm_once(monkeypatch, state_perturbed):
    """One slice at 16x48, m = 2, l = 2.  When each index took its own dx,
    dy and dy dx, the slice made 70 dx, 57 dy and 153 weighted_l2 calls:
    the head of row b + 1 is the dx that row b's head took, dx and dy of a
    tower level were taken again beside the tower's own, and the
    normal-derivative tail took the norms of the level dy again.  The top
    level's derivatives are not kept in the tower, apart from the dx u and
    dx h it builds the level with.  The d2y calls are the walk's 18, with
    the grid's cached background W built beforehand."""
    st = state_perturbed
    background(st.grid)
    counts = Counter()
    for name, fn in (
        ("dx", operators.dx),
        ("dy", operators.dy),
        ("d2y", operators.d2y),
        ("weighted_l2", norms.weighted_l2),
    ):

        def wrapper(*args, name=name, fn=fn, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "blmhd"]:
            if vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, wrapper)
    towers = []
    init = TimeTower.__init__

    def kept(self, *args, **kwargs):
        init(self, *args, **kwargs)
        towers.append(self)

    monkeypatch.setattr(TimeTower, "__init__", kept)
    _slice_functionals(TimeTower(st, physics=Physics()), 2, 2.0, 0.25)
    assert counts == {"dx": 54, "dy": 43, "d2y": 18, "weighted_l2": 130}
    (tower,) = towers
    assert {key for key in tower._derivs if key[2] == 2} == {("x", "u", 2, 0), ("x", "h", 2, 0)}


def test_theta_accumulates_along_trajectory(grid_small):
    st = perturbed_state(grid_small, a_rho=0.004, a_u=0.02, a_h=0.03)
    cfg = SolverConfig(eps=0.01, dt=2e-3, t_end=0.04)
    traj = run(st, cfg, output_stride=4)
    reps = trajectory_report(traj, 2, 2.0)
    assert len(reps) == len(traj.states)
    thetas = [r.theta_ml for r in reps]
    xis = [r.xi_ml for r in reps]
    assert all(b >= a - 1e-14 for a, b in zip(thetas, thetas[1:]))
    assert all(b >= a - 1e-14 for a, b in zip(xis, xis[1:]))
    q_sups = [r.q_sup for r in reps]
    assert all(b >= a for a, b in zip(q_sups, q_sups[1:]))
    # accumulated integrals strictly exceed the instantaneous baseline
    assert reps[-1].theta_ml > reps[-1].y_ml


def test_theta_is_stride_stable(grid_small):
    st = perturbed_state(grid_small, a_rho=0.004, a_u=0.02, a_h=0.03)
    cfg = SolverConfig(eps=0.01, dt=2e-3, t_end=0.04)
    traj = run(st, cfg, output_stride=1)
    coarse = run(st, cfg, output_stride=2)
    t_fine = trajectory_report(traj, 2, 2.0)[-1].theta_ml
    t_coarse = trajectory_report(coarse, 2, 2.0)[-1].theta_ml
    assert t_coarse == pytest.approx(t_fine, rel=1e-2)


def test_report_invariants_enforced(state_equilibrium):
    mon = monitor(state_equilibrium, 0.25, 2.0)
    kw = dict(
        time=0.0, e_ml=0.0, q_inst=1.0, q_sup=1.0, x_ml=1.0, y_ml=1.0,
        theta_ml=1.0, xi_ml=1.0, dx_ml=0.0, dy_ml=0.0, monitor=mon,
    )
    EnergyReport(**kw)  # valid
    with pytest.raises(ValueError):
        EnergyReport(**{**kw, "e_ml": -1.0})
    with pytest.raises(ValueError):
        EnergyReport(**{**kw, "x_ml": 0.5})
    rep = EnergyReport(**kw)
    row = rep.row()
    assert len(row) == len(CSV_COLUMNS)
    assert row[0] == 0.0 and row[-1] is mon.breached


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", CSV_COLUMNS[:10])
def test_report_refuses_non_finite_values(state_equilibrium, name, bad):
    # a NaN passes every sign test, so finiteness is checked by itself,
    # before a non-finite functional can reach energy.csv
    mon = monitor(state_equilibrium, 0.25, 2.0)
    kw = dict(
        time=0.0, e_ml=0.0, q_inst=1.0, q_sup=1.0, x_ml=1.0, y_ml=1.0,
        theta_ml=1.0, xi_ml=1.0, dx_ml=0.0, dy_ml=0.0, monitor=mon,
    )
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        EnergyReport(**{**kw, name: bad})


def test_nonuniform_stride_rejected(grid_small, state_equilibrium):
    cfg = SolverConfig(eps=0.01, dt=2e-3, t_end=0.01)
    s0 = state_equilibrium
    from dataclasses import replace

    states = [s0, replace(s0, time=0.002), replace(s0, time=0.007)]
    mon = monitor(s0, cfg.delta0, cfg.l)
    traj = Trajectory(
        states=states, monitors=[mon] * 3, config=cfg, bundle=None, forcing=None
    )
    with pytest.raises(ValueError):
        trajectory_report(traj, 2, 2.0)


def test_m_zero_rejected(state_equilibrium):
    with pytest.raises(ValueError):
        instantaneous_functionals(TimeTower(state_equilibrium, physics=Physics()), 0, 2.0, 0.25)


def test_trajectory_report_uses_the_run_physics(grid_small):
    # the dissipation functionals are weighted by the run's eps, mu and
    # kappa, the coefficients the solver integrated with
    state = perturbed_state(grid_small)
    cfg = SolverConfig(eps=0.05, mu=0.7, kappa=1.3, dt=1e-3, t_end=2e-3)
    traj = run(state, cfg)
    expected = instantaneous_functionals(TimeTower(state, physics=cfg), 2, 2.0, 0.25).dy_ml
    assert trajectory_report(traj, 2, 2.0)[0].dy_ml == pytest.approx(expected, rel=1e-12)


def test_trajectory_report_monitors_at_the_callers_delta0_and_l(grid_small):
    # the run stores its monitors at the config's delta0 = 0.25 and l = 2;
    # at l = 1 every slice breaches the density bound, which a report at
    # l = 1 must show
    traj = run(perturbed_state(grid_small, a_rho=0.01), SolverConfig(dt=1e-3, t_end=0.002))
    assert not traj.breached and len(traj.states) == 3
    assert all(monitor(st, 0.25, 1.0).breached for st in traj.states)
    for l, delta0 in ((1.0, 0.25), (2.0, 0.5), (2.0, 0.25)):
        reports = trajectory_report(traj, 1, l, delta0)
        for rep, st in zip(reports, traj.states):
            assert rep.monitor == monitor(st, delta0, l), (l, delta0)
    assert [r.monitor for r in trajectory_report(traj, 1, 2.0)] == traj.monitors
