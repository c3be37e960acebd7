"""Trajectory-level studies: the vanishing-diffusion sweep, two-solution
stability through the difference good unknowns, and the outer-trace
matching-condition check.

The sweep runs the same data over a decreasing ladder of the artificial
diffusion parameter and measures pairwise solution differences in an
H^2-conormal norm at matched output times (the Cauchy-in-eps property).
The stability study evolves two data sets, forms the difference fields in
physical variables, reweights them with quotient weights over the second
solution's magnetic field, and fits a Gronwall growth constant to the
squared difference norm.

The runs of a sweep or a pair share nothing, so they go side by side on
workers.side_by_side: one worker per usable CPU, the first in this process
and the others forked, each sending its runs' states and monitors back
through a pipe.  The results are bitwise those of running them in turn.
With one usable CPU (`taskset -c 0`, for example) nothing is forked.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cancellation import HFloorError, _check_delta
from .data import physical
from .grid import Field
from .norms import NormSpec, conormal_norm, weighted_l2
from .operators import dy, integrate_y
from .solver import SolverConfig, Trajectory, run
from .state import State
from .workers import side_by_side

GRONWALL_FLOOR = 1e-28


# ---------------------------------------------------------------------------
# Independent runs, side by side
# ---------------------------------------------------------------------------


def _runs(jobs, bundle, forcing, output_stride: int) -> list[Trajectory]:
    """The Trajectory of run(state, cfg, bundle, forcing, output_stride) for
    each (state, cfg) job, in job order, side by side (side_by_side).  A
    worker sends back each run's states, monitors, breach flag and
    every-step summary; the config, bundle and forcing of each Trajectory
    are the caller's."""

    def one(job):
        t = run(job[0], job[1], bundle, forcing=forcing, output_stride=output_stride)
        return t.states, t.monitors, t.breached, t.every_step

    return [
        Trajectory(states, monitors, cfg, bundle, forcing, breached, every_step)
        for (states, monitors, breached, every_step), (_, cfg) in zip(
            side_by_side(one, jobs), jobs
        )
    ]


# ---------------------------------------------------------------------------
# Vanishing-diffusion sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    """Pairwise differences down a decreasing eps ladder.

    pairwise_diffs[k][j] is the H^2-conormal (l = 0) norm of the solution
    difference between ladder entries k and k+1 at matched output time j;
    rates[k] is the geometric-mean reduction factor of pair k+1 relative
    to pair k (None when fewer than two pairs exist, reported as
    "not computed").  valid[k] is False when run k breached its monitors.
    """

    eps_ladder: tuple
    times: tuple
    pairwise_diffs: tuple
    rates: tuple | None
    valid: tuple

    def __post_init__(self):
        _check_decreasing(self.eps_ladder)


def _check_decreasing(ladder: tuple) -> None:
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("eps_ladder must be strictly decreasing")


def _diff_norm(s1: State, s2: State) -> float:
    """H^2-conormal, weight 0, of the static difference triple."""
    spec = NormSpec(2, 0.0, "full")
    diffs = (
        s1.rho_shift - s2.rho_shift,
        s1.u_shift - s2.u_shift,
        s1.h_shift - s2.h_shift,
    )
    return conormal_norm(diffs, spec)


def eps_sweep(
    state: State,
    cfg: SolverConfig,
    ladder=(0.1, 0.05, 0.025, 0.0125),
    bundle=None,
    forcing=None,
    output_stride: int = 1,
) -> SweepResult:
    """Run the same initial data per ladder entry (side by side, _runs)
    and compare pairwise.  The ladder is checked before any run."""
    ladder = tuple(float(e) for e in ladder)
    if not ladder:
        raise ValueError("the eps ladder needs at least one rung")
    _check_decreasing(ladder)
    jobs = [(state, replace(cfg, eps=eps)) for eps in ladder]
    trajectories = _runs(jobs, bundle, forcing, output_stride)
    valid = [not t.breached for t in trajectories]
    n_times = min(len(t.states) for t in trajectories)
    times = tuple(float(t) for t in trajectories[0].times[:n_times])
    pairwise = []
    for k in range(len(ladder) - 1):
        row = tuple(
            _diff_norm(trajectories[k].states[j], trajectories[k + 1].states[j])
            for j in range(n_times)
        )
        pairwise.append(row)
    rates = None
    if len(pairwise) >= 2:
        rates = []
        for k in range(len(pairwise) - 1):
            num = np.asarray(pairwise[k + 1][1:], dtype=float)
            den = np.asarray(pairwise[k][1:], dtype=float)
            mask = (num > 0) & (den > 0)
            if mask.any():
                rates.append(float(np.exp(np.mean(np.log(num[mask] / den[mask])))))
            else:
                rates.append(0.0)
        rates = tuple(rates)
    return SweepResult(
        eps_ladder=ladder,
        times=times,
        pairwise_diffs=tuple(pairwise),
        rates=rates,
        valid=tuple(valid),
    )


# ---------------------------------------------------------------------------
# Two-solution stability (difference good unknowns)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiffGoodUnknowns:
    """Quotient-weighted difference fields of two solutions.

    All fields are in physical variables; the weights divide by the second
    solution's tangential magnetic field h2 (floor-checked), and
    phi_bar = integral in y of the magnetic difference."""

    eta1: Field
    eta2: Field
    eta3: Field
    phi_bar: Field
    rho_bar: Field
    u_bar: Field
    h_bar: Field
    rho_i: Field
    u_i: Field
    h_i: Field


def diff_good_unknowns(state1: State, state2: State, delta: float) -> DiffGoodUnknowns:
    """Build the difference quantities; requires min h2 >= delta > 0."""
    _check_delta(delta)
    grid = state1.grid
    if grid != state2.grid:
        raise ValueError("both states must share the grid")
    _, u2, h2 = physical(state2)
    m = float(h2.values.min())
    if m < delta:
        raise HFloorError(f"h2-floor violation: min h2 = {m:.4g} < {delta}")
    # physical fields; the constant parts cancel in every difference
    rho_bar = state1.rho_shift - state2.rho_shift
    u_bar = state1.u_shift - state2.u_shift
    h_bar = state1.h_shift - state2.h_shift
    eta1 = Field(dy(state2.rho_shift).values / h2.values, grid)
    eta2 = Field(dy(u2).values / h2.values, grid)
    eta3 = Field(dy(state2.h_shift).values / h2.values, grid)
    phi_bar = integrate_y(h_bar)
    return DiffGoodUnknowns(
        eta1=eta1,
        eta2=eta2,
        eta3=eta3,
        phi_bar=phi_bar,
        rho_bar=rho_bar,
        u_bar=u_bar,
        h_bar=h_bar,
        rho_i=Field(rho_bar.values - eta1.values * phi_bar.values, grid),
        u_i=Field(u_bar.values - eta2.values * phi_bar.values, grid),
        h_i=Field(h_bar.values - eta3.values * phi_bar.values, grid),
    )


@dataclass(frozen=True)
class StabilityResult:
    """Difference evolution of two runs with a fitted growth constant.

    norms_sq[k] is the squared L^2 (weight 0) norm of the weighted
    difference triple at times[k]; gronwall_c the least-squares exponential
    growth rate of norms_sq (log fit with an additive floor); envelope_ok
    asserts norms_sq(t) <= (norms_sq(t0) + floor) * exp(C (t - t0)) * (1+tol)
    from the first stored positive time t0."""

    times: tuple
    norms_sq: tuple
    gronwall_c: float
    envelope_ok: bool
    series: tuple
    breached: bool


def stability_pair(
    state1: State,
    state2: State,
    cfg: SolverConfig,
    bundle=None,
    forcing=None,
    output_stride: int = 1,
    delta: float | None = None,
    tol: float = 0.5,
) -> StabilityResult:
    """Evolve both data sets (side by side, _runs) and fit the Gronwall
    constant of the weighted-difference norm growth."""
    if delta is None:
        delta = cfg.delta0 / 2.0
    t1, t2 = _runs([(state1, cfg), (state2, cfg)], bundle, forcing, output_stride)
    n = min(len(t1.states), len(t2.states))
    times = tuple(float(t) for t in t1.times[:n])
    series = []
    norms_sq = []
    for k in range(n):
        d = diff_good_unknowns(t1.states[k], t2.states[k], delta)
        series.append(d)
        norms_sq.append(
            weighted_l2(d.rho_i, 0.0) ** 2
            + weighted_l2(d.u_i, 0.0) ** 2
            + weighted_l2(d.h_i, 0.0) ** 2
        )
    norms_sq = np.asarray(norms_sq)
    tarr = np.asarray(times)
    logs = np.log(norms_sq + GRONWALL_FLOOR)
    if n >= 2 and np.ptp(tarr) > 0:
        c_fit = float(np.polyfit(tarr, logs, 1)[0])
    else:
        c_fit = 0.0
    envelope_ok = True
    if n >= 2:
        base = norms_sq[1] + GRONWALL_FLOOR
        t0 = tarr[1]
        for k in range(1, n):
            bound = base * np.exp(c_fit * (tarr[k] - t0)) * (1.0 + tol)
            if norms_sq[k] > bound + GRONWALL_FLOOR:
                envelope_ok = False
                break
    return StabilityResult(
        times=times,
        norms_sq=tuple(float(x) for x in norms_sq),
        gronwall_c=c_fit,
        envelope_ok=envelope_ok,
        series=tuple(series),
        breached=bool(t1.breached or t2.breached),
    )


# ---------------------------------------------------------------------------
# Outer-trace matching conditions
# ---------------------------------------------------------------------------

def matching_check(theta, U, H, P=None) -> dict:
    """Symbolic residuals of the three outer-trace relations:

        d_t theta + U d_x theta = 0,
        theta d_t U + theta U d_x U + d_x P = H d_x H,
        d_t H + U d_x H - H d_x U = 0.

    Inputs are sympy expressions in the symbols t, x, i.e.
    sympy.symbols("t x") (constants allowed); P defaults to a constant.
    Returns simplified residual expressions.  sympy is imported here, not
    with the module: it is an optional dependency that no CLI verb needs."""
    import sympy as sp

    theta, U, H = sp.sympify(theta), sp.sympify(U), sp.sympify(H)
    P = sp.sympify(0) if P is None else sp.sympify(P)
    t, x = sp.symbols("t x")
    res = {
        "density": sp.diff(theta, t) + U * sp.diff(theta, x),
        "momentum": theta * sp.diff(U, t)
        + theta * U * sp.diff(U, x)
        + sp.diff(P, x)
        - H * sp.diff(H, x),
        "magnetic": sp.diff(H, t) + U * sp.diff(H, x) - H * sp.diff(U, x),
    }
    return {k: sp.simplify(v) for k, v in res.items()}
