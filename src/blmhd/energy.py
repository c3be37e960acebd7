"""Per-slice and per-trajectory energy functionals.

One report per time slice collects every quantity the a priori machinery
tracks: the tangential-capped energy E_{m,l}; the L-infinity aggregate Q
(instantaneous and as a running sup); the composite functionals X_{m,l}
and Y_{m,l} (both include an additive 1); the dissipation functionals
D_x and D_y; and the accumulating functionals Theta_{m,l} and Xi_{m,l},
whose time integrals are trapezoidal sums over the trajectory's uniform
output stride.  All time derivatives come from equation substitution
(pde.TimeTower), never from differencing stored time levels.  A slice's
functionals take the slice's tower as their one input and read its State,
physics (eps, mu, kappa weigh the dissipation), sources and forcing from
it; trajectory_report builds one tower per stored slice from the run's
config, bundle and forcing.  A slice's v, g and psi, like its derivatives,
are read from the tower and freed with it; the stored State keeps none of
them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .cancellation import good_unknowns, top_tangential_indices
from .grid import Field
from .norms import NormSpec, conormal_linf, conormal_walk, weighted_l2, weighted_linf
from .operators import d2y, dx, dy, dy_wall, phi, z2
from .pde import TimeTower, exp_minus_y
from .solver import MonitorStatus, monitor
from .state import State

CSV_COLUMNS = (
    "time",
    "e_ml",
    "q_inst",
    "q_sup",
    "x_ml",
    "y_ml",
    "theta_ml",
    "xi_ml",
    "dx_ml",
    "dy_ml",
    "h_floor",
    "rho_sup",
    "shear_sup",
    "breached",
)


@dataclass(frozen=True)
class EnergyReport:
    """All tracked functionals at one time slice.

    q_inst is the instantaneous L-infinity aggregate; q_sup its running
    sup over the trajectory so far (equal for a single slice).  theta_ml
    and xi_ml carry the accumulated time integrals when produced by
    trajectory_report and are purely instantaneous (integral slots zero,
    so theta_ml = y_ml and xi_ml = x_ml) from instantaneous_functionals.
    Every float must be finite: the fields a report is computed from are
    not all scanned for NaN (grid.Field._computed), so this is where a
    non-finite functional is refused before it reaches energy.csv.
    """

    time: float
    e_ml: float
    q_inst: float
    q_sup: float
    x_ml: float
    y_ml: float
    theta_ml: float
    xi_ml: float
    dx_ml: float
    dy_ml: float
    monitor: MonitorStatus

    def __post_init__(self):
        for name in CSV_COLUMNS[:10]:  # the report's own floats, time to dy_ml
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("e_ml", "q_inst", "q_sup", "dx_ml", "dy_ml"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("x_ml", "y_ml", "theta_ml", "xi_ml"):
            if getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be >= 1 (additive constant)")

    def row(self) -> list:
        """Values in CSV_COLUMNS order."""
        return [
            self.time,
            self.e_ml,
            self.q_inst,
            self.q_sup,
            self.x_ml,
            self.y_ml,
            self.theta_ml,
            self.xi_ml,
            self.dx_ml,
            self.dy_ml,
            self.monitor.h_floor,
            self.monitor.rho_sup,
            self.monitor.shear_sup,
            self.monitor.breached,
        ]


def _v_over_phi_family(state: State, fv):
    """Family for v / phi(y); the wall row uses the limit (1+y) d_y v."""
    grid = state.grid
    ph = phi(grid.y)

    def fam(k: int) -> Field:
        v = fv(k)
        out = np.empty_like(v.values)
        out[:, 1:] = v.values[:, 1:] / ph[None, 1:]
        out[:, 0] = dy_wall(v) * (1.0 + grid.y[0])
        return Field(out, grid)

    return fam


def _deviation_walk(heads, m: int, l: float):
    """Yield (a, b, c, norms) for every index of norms.conormal_walk's full
    set of order m, in its order.  heads(a) gives, per family, the level-a
    field f and its dx and dy; norms holds, per family, the l-weighted L^2
    norms of Z^alpha f, dx Z^alpha f, dy Z^alpha f and, where
    |alpha| <= m - 1, of dy dx Z^alpha f and d2y Z^alpha f (else None).

    The Z^alpha are conormal_walk's chain, so the norms are the same bit
    for bit, and no derivative is taken twice: the head of row b + 1 is
    the dx that row b's head took, and comes with the norms of it and of
    its dy.  Only the fields that later indices differentiate are held."""
    for a in range(m + 1):
        # chain entries: (field, its dx, its norm, the norm of its dy),
        # None where not yet taken
        row = [(f, fx, None, weighted_l2(fy, l)) for f, fx, fy in heads(a)]
        for b in range(m + 1 - a):
            chain, row, nxt = row, None, []
            for c in range(m + 1 - a - b):
                if c:
                    chain = [(z2(f), None, None, None) for f, *_ in chain]
                norms = []
                for f, fx, n, n_y in chain:
                    fx = dx(f) if fx is None else fx
                    n = weighted_l2(f, l) if n is None else n
                    n_x = weighted_l2(fx, l)
                    n_y = weighted_l2(dy(f), l) if n_y is None else n_y
                    n_xy = n_yy = None
                    if a + b + c <= m - 1:
                        n_xy = weighted_l2(dy(fx), l)
                        n_yy = weighted_l2(d2y(f), l)
                    norms.append((n, n_x, n_y, n_xy, n_yy))
                    if c == 0:
                        nxt.append((fx, None, n_x, n_xy))
                yield a, b, c, norms
            row = nxt


def _norm_sq(total: float) -> float:
    """float(sqrt(total)) ** 2: the round trip keeps a functional bitwise
    equal to the square of conormal_norm over the same index set."""
    return float(np.sqrt(total)) ** 2


def _slice_functionals(tower: TimeTower, m: int, l: float, delta0: float) -> dict:
    """Every instantaneous piece at the tower's slice, plus the Theta/Xi
    integrands; the dissipation weights are the tower's eps, mu, kappa.

    dx and dy of a tower level field come from the tower's cache; those of
    the top level m, which no later part of the slice reads when m > 1,
    are then taken without being stored in it.  u - e^{-y} at level 0 is
    not a tower field, so its derivatives are taken here."""
    if m < 1:
        raise ValueError(f"energy functionals require m >= 1, got {m}")
    state, grid = tower.state, tower.grid
    eps, mu, kappa = tower.physics.eps, tower.physics.mu, tower.physics.kappa
    fr, fu, fh, fv, fg = (partial(tower.field, name) for name in ("rho", "u", "h", "v", "g"))
    dyr, dyu, dyh = (partial(tower.deriv, "y", name) for name in ("rho", "u", "h"))
    E_field = Field(np.broadcast_to(exp_minus_y(grid), (grid.nx, grid.ny)), grid)

    # plain deviation u - e^{-y} (zero at the rest state) and its normal
    # derivative; all weighted-L2 functionals use the deviation so that the
    # rest state gives exactly E = 0 and X = Y = 1, while the L-infinity
    # aggregate Q keeps the raw fields (finite background contribution)
    def fu_dev(k: int) -> Field:
        out = fu(k)
        return out - E_field if k == 0 else out

    def fshear(k: int) -> Field:
        out = dyu(k)
        return out + E_field if k == 0 else out

    tail = max(m - 1, 1)  # the order of the normal-derivative walk below

    def heads(a: int) -> list:
        out = []
        for name, fam in (("rho", fr), ("u", fu_dev), ("h", fh)):
            f = fam(a)
            if a == 0 and name == "u":
                out.append((f, dx(f), dy(f)))
            else:
                out.append((f, *(tower.deriv(ax, name, a, keep=a <= tail) for ax in "xy")))
        return out

    # one walk of the deviation triple: E over the tangential-capped set
    # (a + b <= m - 1), the full-set norm, and the dissipation sums (capped
    # set for D_x, D_y; full set, and order <= m-1 for the second
    # derivatives, for the Theta/Xi integrands)
    e_sum = full_sum = 0.0
    dx_cap = dy_cap = ix1 = iy1 = ix2 = iy2 = 0.0
    level_dy = {}  # ||dy f||_l of each tower level field, which the tail reads
    for a, b, c, norms in _deviation_walk(heads, m, l):
        if b == c == 0:
            level_dy.update(((name, a), ns[2]) for name, ns in zip("ruh", norms))
        for (n, n_x, n_y, n_xy, n_yy), coef in zip(norms, (eps, mu, kappa)):
            sq = n**2
            x_sq = eps * n_x**2
            y_sq = coef * n_y**2
            full_sum += sq
            ix1 += x_sq
            iy1 += y_sq
            if a + b <= m - 1:
                e_sum += sq
                dx_cap += x_sq
                dy_cap += y_sq
            if a + b + c <= m - 1:
                ix2 += eps * n_xy**2
                iy2 += coef * n_yy**2

    # one walk of the normal derivatives and v/phi: the H^{m-1}_l tail of
    # (dy r, shear, dy h), and the order-1 weighted sups of dy r alone and
    # of all four (the last part of Q)
    tail_sum = linf_sum = q4_sum = 0.0
    vphi = _v_over_phi_family(state, fv)
    del level_dy["u", 0]  # shear at level 0 is dy u + e^{-y}, not dy(u - e^{-y})
    for idx, zs in conormal_walk((dyr, fshear, dyh, vphi), tail):
        if idx.order <= m - 1:
            for name, zf in zip("ruh", zs[:3]):
                n = level_dy.get((name, idx.t_count)) if idx.order == idx.t_count else None
                tail_sum += (weighted_l2(zf, l) if n is None else n) ** 2
        if idx.order <= 1:
            sups = [weighted_linf(zf, 1.0) ** 2 for zf in zs]
            linf_sum += sups[0]
            for sq in sups:
                q4_sum += sq

    e_ml = _norm_sq(e_sum)
    dy_tail = _norm_sq(tail_sum)
    linf_tail = _norm_sq(linf_sum)
    y_ml = 1.0 + _norm_sq(full_sum) + dy_tail + linf_tail

    # good-unknown contributions over the top tangential indices
    gm_sq = 0.0
    dx_good = 0.0
    dy_good = 0.0
    delta = delta0 / 2.0
    for idx in top_tangential_indices(m):
        gu = good_unknowns(tower, idx, delta)
        for w, coef in ((gu.rho_m, eps), (gu.u_m, mu), (gu.h_m, kappa)):
            gm_sq += weighted_l2(w, l) ** 2
            dx_good += eps * weighted_l2(dx(w), l) ** 2
            dy_good += coef * weighted_l2(dy(w), l) ** 2
    x_ml = 1.0 + e_ml + gm_sq + dy_tail + linf_tail

    # L-infinity aggregate
    q1 = (
        weighted_linf(tower.deriv("x", "rho", 0), 0.0) ** 2
        + weighted_linf(fr(1), 0.0) ** 2
    )
    q2 = conormal_linf((fu, fh), NormSpec(1, 0.0, "tangential-only")) ** 2
    q3 = conormal_linf((fv, fg), NormSpec(1, 1.0, "tangential-only")) ** 2
    q_inst = q1 + q2 + q3 + _norm_sq(q4_sum)

    dx_ml = dx_cap + dx_good
    dy_ml = dy_cap + dy_good
    return {
        "e_ml": e_ml,
        "y_ml": y_ml,
        "x_ml": x_ml,
        "q_inst": q_inst,
        "dx_ml": dx_ml,
        "dy_ml": dy_ml,
        "theta_integrand": ix1 + iy1 + ix2 + iy2,
        "xi_integrand": iy2 + ix2 + dx_ml + dy_ml,
    }


def _reports(rows) -> list[EnergyReport]:
    """The EnergyReports of (time, functionals, monitor) rows in time
    order: q_sup is the running sup of q_inst, theta_ml (xi_ml) the running
    sup of y_ml (x_ml) plus the trapezoidal integral of its integrand.  A
    single row's report is its instantaneous one."""
    reports = []
    sup_y = sup_x = sup_q = 0.0
    int_theta = int_xi = 0.0
    prev = None
    for t, p, mon in rows:
        sup_y = max(sup_y, p["y_ml"])
        sup_x = max(sup_x, p["x_ml"])
        sup_q = max(sup_q, p["q_inst"])
        if prev is not None:
            t0, p0 = prev
            dt = t - t0
            int_theta += 0.5 * dt * (p0["theta_integrand"] + p["theta_integrand"])
            int_xi += 0.5 * dt * (p0["xi_integrand"] + p["xi_integrand"])
        reports.append(
            EnergyReport(
                time=float(t),
                e_ml=p["e_ml"],
                q_inst=p["q_inst"],
                q_sup=sup_q,
                x_ml=p["x_ml"],
                y_ml=p["y_ml"],
                theta_ml=sup_y + int_theta,
                xi_ml=sup_x + int_xi,
                dx_ml=p["dx_ml"],
                dy_ml=p["dy_ml"],
                monitor=mon,
            )
        )
        prev = t, p
    return reports


def instantaneous_functionals(tower: TimeTower, m: int, l: float, delta0: float) -> EnergyReport:
    """EnergyReport of the tower's slice, with its physics, sources and
    forcing; the time-integral slots are zero, so theta_ml equals y_ml and
    xi_ml equals x_ml."""
    p = _slice_functionals(tower, m, l, delta0)
    return _reports([(tower.time, p, monitor(tower.state, delta0, l))])[0]


def trajectory_report(
    trajectory,
    m: int,
    l: float,
    delta0: float | None = None,
) -> list[EnergyReport]:
    """Per-slice reports with running suprema and trapezoidal integrals.

    theta_ml(t_k) = sup_{j<=k} Y + accumulated dissipation integrals;
    xi_ml(t_k) = sup_{j<=k} X + its integrals; q_sup is the running sup
    of q_inst.  Each slice's tower has the trajectory's config as physics
    and its bundle and forcing, and is freed before the next is built.
    Each report's monitor is the run's stored one when delta0 and l are the
    config's, else one evaluated at them (with the stored source flag).
    Requires a uniform output stride."""
    cfg = trajectory.config
    if delta0 is None:
        delta0 = cfg.delta0
    times = np.asarray(trajectory.times, dtype=float)
    if times.size >= 3:
        strides = np.diff(times)
        if np.max(np.abs(strides - strides[0])) > 1e-9 * max(1.0, strides[0]):
            raise ValueError("trajectory_report requires a uniform output stride")
    stored = trajectory.monitors if len(trajectory.monitors) == len(trajectory.states) else None
    at_config = stored is not None and (delta0, l) == (cfg.delta0, cfg.l)
    rows = []
    for k, st in enumerate(trajectory.states):
        tower = TimeTower(st, trajectory.bundle, trajectory.forcing, physics=cfg)
        p = _slice_functionals(tower, m, l, delta0)
        del tower  # freed before the next slice's is built
        if at_config:
            mon = stored[k]
        else:
            mon = monitor(st, delta0, l, source_flag=stored is not None and stored[k].source_flag)
        rows.append((times[k], p, mon))
    return _reports(rows)
