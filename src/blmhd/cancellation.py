"""Good unknowns and their evolution-equation residuals.

For a tangential multi-index a1 = (t_count, x_count) of top order, the
raw derivatives Z^a1(rho, u, h) lose one x-derivative through v and g.
The weighted combinations

    eta_rho = d_y rho / (h+1),  eta_u = d_y(u - e^{-y}) / (h+1),
    eta_h = d_y h / (h+1),
    w_m = Z^a1 w - eta_w Z^a1 psi     for w in {rho, u, h}

cancel the loss.  This module builds them, evaluates the left-minus-right
residual of their evolution equations discretely (with the commutator sums
assembled term by term), and checks the explicit-constant norm-equivalence
inequalities that relate raw and good-unknown norms.

Every Z^(a,b) of a tower field, its dy and the eta weights' dy rho, dy u,
dy h come from the slice's pde.TimeTower, its one derivative cache; this
module keeps no chain of its own.  good_unknowns and norm_equivalence_check
take that tower as their one input and read the State, the physics (the
time parts of the good unknowns depend on eps, mu and kappa), the sources
and the forcing from it.  Every delta floor must be positive (else a
ValueError) and at most min(h + 1) (else an HFloorError).

The estimate controls every top-order tangential good unknown together,
and so does the evaluation: one tower per stored slice serves the
residuals of all three unknowns at every a1 of one order
(top_tangential_indices), and a _Slice takes once each term that no a1
changes (the eta weights, their derivatives and their transport and
dissipation sums).  Between two a1 the tower drops the dx and dy of its
Z1^b (b >= 1), so it never holds more than one index's chain.  The stored
slices are independent, so their residuals go side by side
(workers.side_by_side: one worker per usable CPU, each holding one tower
at a time), bitwise those of the slices in turn.

cancellation_residual returns the series asked for; the others of its
order (at most eight) wait in a one-entry module slot, keyed by the
trajectory's stored States (by identity), its bundle, forcing and config,
the order |a1| and the resolved delta_floor.  A call with the same key
takes its series out of the slot, which is emptied when its last series is
taken; any other call replaces it.  A caller that asks for one a1 pays for
its whole order.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .grid import Field
from .norms import weighted_l2, weighted_linf
from .operators import d2x, d2y, dx, dy, integrate_y, z2
from .pde import TimeTower, apply_spatial, exp_minus_y
from .state import MultiIndex
from .workers import side_by_side

T_DEPTH_CAP = 2


class HFloorError(ValueError):
    """h + 1 dropped below the quotient floor."""


@dataclass(frozen=True)
class GoodUnknowns:
    """The eta weights and the three good unknowns for one tangential index."""

    alpha1: MultiIndex
    eta_rho: Field
    eta_u: Field
    eta_h: Field
    rho_m: Field
    u_m: Field
    h_m: Field
    z_rho: Field
    z_u: Field
    z_h: Field
    z_psi: Field


def top_tangential_indices(m: int) -> list[MultiIndex]:
    """Tangential indices of order exactly m within the time-depth cap, by
    increasing t_count: the good unknowns that the estimate of order m
    controls together."""
    return [MultiIndex(a, m - a, 0) for a in range(min(m, T_DEPTH_CAP) + 1)]


def _check_alpha1(alpha1: MultiIndex) -> None:
    if alpha1.z2_count != 0:
        raise ValueError("alpha1 must be tangential (z2_count = 0)")
    if alpha1.t_count > T_DEPTH_CAP:
        raise ValueError(
            f"time-derivative depth {alpha1.t_count} exceeds cap {T_DEPTH_CAP}"
        )


def _check_delta(delta: float) -> None:
    if not delta > 0:  # a NaN is refused too
        raise ValueError(f"delta must be positive, got {delta}")


def _check_h_floor(tower: TimeTower, delta_floor: float) -> np.ndarray:
    _check_delta(delta_floor)
    hp1 = tower.state.h_shift.values + 1.0
    m = float(hp1.min())
    if m < delta_floor:
        raise HFloorError(f"h-floor violation: min(h+1) = {m:.4g} < {delta_floor}")
    return hp1


def eta_fields(tower: TimeTower) -> tuple[Field, Field, Field]:
    """The three quotient weights of the tower's State (no floor check),
    from the tower's dy rho, dy u and dy h."""
    grid = tower.grid
    hp1 = tower.state.h_shift.values + 1.0
    dyr, dyu, dyh = (tower.deriv("y", n, 0).values for n in ("rho", "u", "h"))
    eta_r = dyr / hp1
    eta_u = (dyu + exp_minus_y(grid)) / hp1
    eta_h = dyh / hp1
    return tuple(Field._computed(eta, grid) for eta in (eta_r, eta_u, eta_h))


def good_unknowns(tower: TimeTower, alpha1: MultiIndex, delta_floor: float) -> GoodUnknowns:
    """The good unknowns of the tower's State; the time parts of Z^a1 come
    by PDE substitution through the tower, with its physics, sources and
    forcing.  The eta weights and every Z^a1 are read from the tower,
    which keeps them."""
    _check_alpha1(alpha1)
    _check_h_floor(tower, delta_floor)
    return _good_unknowns(tower, alpha1, eta_fields(tower))


def _good_unknowns(tower: TimeTower, alpha1: MultiIndex, eta) -> GoodUnknowns:
    """good_unknowns on tower, given its eta_fields; nothing is checked."""
    grid = tower.grid
    eta_r, eta_u, eta_h = eta
    a, b = alpha1.t_count, alpha1.x_count
    z_rho, z_u, z_h, z_psi = (tower.z(name, a, b) for name in ("rho", "u", "h", "psi"))
    psi = z_psi.values
    return GoodUnknowns(
        alpha1=alpha1,
        eta_rho=eta_r,
        eta_u=eta_u,
        eta_h=eta_h,
        rho_m=Field._computed(z_rho.values - eta_r.values * psi, grid),
        u_m=Field._computed(z_u.values - eta_u.values * psi, grid),
        h_m=Field._computed(z_h.values - eta_h.values * psi, grid),
        z_rho=z_rho,
        z_u=z_u,
        z_h=z_h,
        z_psi=z_psi,
    )


# ---------------------------------------------------------------------------
# Tangential functions and Leibniz products for the commutator sums
# ---------------------------------------------------------------------------


def _tf_field(s: _Slice, name: str, const0: float = 0.0, sub_exp0: bool = False):
    """Tangential function (t_count, x_count) -> array for a state field,
    optionally plus a constant / minus e^{-y} contributing only at (0, 0)."""

    def f(a: int, b: int) -> np.ndarray:
        out = s.zt(name, a, b)
        if a == 0 and b == 0:
            if const0:
                out = out + const0
            if sub_exp0:
                out = out - s.E
        return out

    return f


def _tf_product(A, B):
    """Leibniz rule for the tangential derivatives of a product."""

    def f(a: int, b: int) -> np.ndarray:
        acc = 0.0
        for i in range(a + 1):
            for j in range(b + 1):
                acc = acc + comb(a, i) * comb(b, j) * A(i, j) * B(a - i, b - j)
        return acc

    return f


def _index_splits(alpha1: MultiIndex, exclude_full: bool):
    """(beta1, gamma1, binomial) with beta1 != 0 and optionally beta1 != alpha1."""
    a, b = alpha1.t_count, alpha1.x_count
    out = []
    for i in range(a + 1):
        for j in range(b + 1):
            if i == 0 and j == 0:
                continue
            if exclude_full and i == a and j == b:
                continue
            out.append(((i, j), (a - i, b - j), comb(a, i) * comb(b, j)))
    return out


def _grad(f: Field) -> tuple[np.ndarray, np.ndarray]:
    """(dx f, dy f) as arrays."""
    return dx(f).values, dy(f).values


class _Slice:
    """What the residuals of a stored slice read at every tangential index:
    the slice's tower (levels, closures, and the dx, dy of level fields)
    and, taken once, every term that no index changes.  Each unknown w has
    its eta weight, d_t eta_w (quotient rule through the tower) and dx
    eta_w, and the eta sum of its right-hand side (eta_ops): transport and
    dissipation for rho_m and h_m, rho times transport for u_m.  h_m also
    reads dy eta_h, and u_m dxx eta_u.

    U is (u + 1) - e^{-y}, which the residuals are pinned to; the tower's
    U(0) is u + (1 - e^{-y}), which differs from it in the last bit."""

    def __init__(self, tower: TimeTower, delta_floor: float):
        eps, kappa = tower.physics.eps, tower.physics.kappa
        self.tower = tower
        self.grid = tower.grid
        self.hp1 = _check_h_floor(tower, delta_floor)
        self.E = exp_minus_y(self.grid)
        self.v = self.zt("v", 0, 0)
        self.g_f = self.zt("g", 0, 0)
        self.rho = tower.rho
        self.U = tower.state.u_shift.values + 1.0 - self.E
        self.shear = self.dyz("u", 0, 0) + self.E  # d_y(u - e^{-y})
        self.eta_fields = eta_fields(tower)
        eta_r, eta_u, eta_h = self.eta_fields
        h_t = self.zt("h", 1, 0)
        self.eta, self.eta_t = {}, {}
        for w, eta in zip(("rho", "u", "h"), self.eta_fields):
            self.eta[w] = eta.values
            self.eta_t[w] = self.dyz(w, 1, 0) / self.hp1 - eta.values * h_t / self.hp1
        (rx, ry), (ux, uy), (hx, self.eta_y_h) = (_grad(eta) for eta in self.eta_fields)
        self.eta_x = {"rho": rx, "u": ux, "h": hx}
        self.d2x_eta_u = d2x(eta_u).values
        self.eta_ops = {
            "rho": self.eta_t["rho"] + self.advect(rx, ry) - eps * d2x(eta_r).values,
            "u": self.rho * self.eta_t["u"] + self.rho * self.advect(ux, uy),
            "h": (
                self.eta_t["h"]
                + self.advect(hx, self.eta_y_h)
                - eps * d2x(eta_h).values
                - kappa * d2y(eta_h).values
            ),
        }

    def F(self, vals) -> Field:
        """A Field of an array computed at the slice (not scanned)."""
        return Field._computed(vals, self.grid)

    def zt(self, name: str, a: int, b: int) -> np.ndarray:
        """d_t^a Z1^b of a tower field, from the tower."""
        return self.tower.z(name, a, b).values

    def dyz(self, name: str, a: int, b: int) -> np.ndarray:
        """d_y of zt(name, a, b), from the tower."""
        return self.tower.deriv("y", name, a, b).values

    def advect(self, w_x: np.ndarray, w_y: np.ndarray) -> np.ndarray:
        """U dx w + v dy w, given dx w and dy w."""
        return self.U * w_x + self.v * w_y


class _Residual:
    """One tangential index alpha1 of a slice's residuals, shared by the
    three good unknowns: one good_unknowns result (the Z^a1 fields) and
    each alpha1-dependent term that more than one unknown reads, taken
    once.  Every Z^(a,b) of a tower field and its dy are the tower's:
    Z^(a,b) is dx of Z^(a,b-1), so dx Z^(a,b) is Z^(a,b+1).  What a single
    unknown reads stays local to its residual function, so it is freed
    when that function returns.

    src and frc are the tower's arrays of d_t^{t_count} of the source terms
    (dx r1, dy r2, dx ru, dx rh) and of the forcing (F_r, F_u, F_h), or None
    where absent or vanishing."""

    def __init__(self, s: _Slice, alpha1: MultiIndex):
        tower = s.tower
        self.s = s
        self.alpha1 = alpha1
        self.gu = gu = _good_unknowns(tower, alpha1, s.eta_fields)
        a = alpha1.t_count
        self.f_psi = -self.commutator_a_dx(
            _tf_field(s, "u", const0=1.0, sub_exp0=True), "psi"
        ) - self.sum_b_dyg(_tf_field(s, "v"), "psi")
        self.d2y_psi = d2y(gu.z_psi).values
        # Z^a1 of dx rh and of F_h, and their int_0^y, read by every unknown
        self.src = tower.provided("sources", a)
        if self.src is not None:
            self.z_dx_rh = self.zt_of(self.src[3])
            self.inv_dy_z_dx_rh = self.inv_dy(self.z_dx_rh)
        self.frc = tower.provided("forcing", a)
        if self.frc is not None:
            self.z_Fh = self.zt_of(self.frc[2])
            self.inv_dy_z_Fh = self.inv_dy(self.z_Fh)

    # -- commutator sums -----------------------------------------------------

    def commutator_a_dx(self, A, w_name: str):
        """[Z^a1, a d_x] w = sum C Z^b1 a  Z^g1 d_x w  over beta1 != 0."""
        acc = 0.0
        for (i, j), (p, q), c in _index_splits(self.alpha1, exclude_full=False):
            acc = acc + c * A(i, j) * self.s.zt(w_name, p, q + 1)
        return acc

    def commutator_a_dt(self, A, w_name: str):
        """[Z^a1, a d_t] w = sum C Z^b1 a  Z^g1 d_t w  over beta1 != 0."""
        acc = 0.0
        for (i, j), (p, q), c in _index_splits(self.alpha1, exclude_full=False):
            acc = acc + c * A(i, j) * self.s.zt(w_name, p + 1, q)
        return acc

    def sum_b_dyg(self, B, w_name: str):
        """sum C Z^b1 b  Z^g1 d_y w  over beta1 != 0 and != alpha1."""
        acc = 0.0
        for (i, j), (p, q), c in _index_splits(self.alpha1, exclude_full=True):
            acc = acc + c * B(i, j) * self.s.dyz(w_name, p, q)
        return acc

    # -- sources and forcing at the slice ------------------------------------

    def zt_of(self, arr: np.ndarray) -> np.ndarray:
        """Z^a1 of a source or forcing term, given its d_t^{t_count} arr."""
        return apply_spatial(self.s.F(arr), MultiIndex(x_count=self.alpha1.x_count)).values

    def inv_dy(self, arr: np.ndarray) -> np.ndarray:
        return integrate_y(self.s.F(arr)).values


def _dt_good_unknown(res: _Residual, which: str) -> np.ndarray:
    """d_t w_m = Z^{a1+e_t} w - (d_t eta_w) Z^a1 psi - eta_w Z^{a1+e_t} psi."""
    s = res.s
    a, b = res.alpha1.t_count, res.alpha1.x_count
    return (
        s.zt(which, a + 1, b)
        - s.eta_t[which] * res.gu.z_psi.values
        - s.eta[which] * s.zt("psi", a + 1, b)
    )


# The slot: (objects, values, {(alpha1, which): series}) for the series of
# the last evaluated order that its callers have not taken yet.  objects
# (the trajectory's bundle, forcing, config and stored States) match by
# identity; the slot holds them, so their ids cannot be recycled.  values
# (the order and the resolved delta_floor) match by equality.
_SLOT = None


def cancellation_residual(
    trajectory,
    alpha1: MultiIndex,
    which: str,
    delta_floor: float | None = None,
) -> list[Field]:
    """LHS - RHS of the evolution equation of the chosen good unknown,
    evaluated discretely on every stored state of the trajectory, with the
    trajectory config's eps, mu and kappa.  The series of the three
    unknowns at every index of alpha1's order (top_tangential_indices) are
    evaluated with it, on one tower per slice, and the other (at most
    eight) wait in the module's slot, so the first call of an order pays
    for all of them (see the module docstring)."""
    global _SLOT
    if which not in _RESIDUALS:
        raise ValueError(f"which must be rho_m, u_m or h_m, got {which!r}")
    _check_alpha1(alpha1)
    cfg = trajectory.config
    if delta_floor is None:
        delta_floor = cfg.delta0 / 2.0
    _check_delta(delta_floor)
    objects = (trajectory.bundle, trajectory.forcing, cfg, *trajectory.states)
    values = (alpha1.order, delta_floor)
    key = (alpha1, which)
    if _SLOT is not None:
        held_objects, held_values, series = _SLOT
        if (
            key in series
            and held_values == values
            and len(held_objects) == len(objects)
            and all(a is b for a, b in zip(held_objects, objects))
        ):
            out = series.pop(key)
            if not series:
                _SLOT = None
            return out
    _SLOT = None
    series = _order_residuals(trajectory, alpha1.order, delta_floor)
    out = series.pop(key)
    _SLOT = (objects, values, series)
    return out


def _order_residuals(trajectory, m: int, delta_floor: float) -> dict:
    """{(alpha1, which): series} over top_tangential_indices(m) and the
    three unknowns, from one tower per stored slice, deep enough for the
    largest t_count; the slices go side by side (workers.side_by_side).
    Each index's chain is dropped from the tower once its three residuals
    are taken."""
    cfg = trajectory.config
    alphas = top_tangential_indices(m)
    depth = alphas[-1].t_count + 1

    def slice_residuals(st) -> list[Field]:
        tower = TimeTower(
            st, trajectory.bundle, trajectory.forcing, max_depth=depth, physics=cfg
        )
        s = _Slice(tower, delta_floor)
        out = []
        for alpha1 in alphas:
            res = _Residual(s, alpha1)
            out.extend(residual(res, cfg) for residual in _RESIDUALS.values())
            del res
            tower.drop_chains()
        return out

    keys = [(alpha1, w) for alpha1 in alphas for w in _RESIDUALS]
    rows = side_by_side(slice_residuals, trajectory.states)
    return {key: [row[i] for row in rows] for i, key in enumerate(keys)}


def _f_h(res: _Residual) -> np.ndarray:
    s = res.s
    tf_U = _tf_field(s, "u", const0=1.0, sub_exp0=True)
    tf_hp1 = _tf_field(s, "h", const0=1.0)
    return (
        -res.commutator_a_dx(tf_U, "h")
        + res.commutator_a_dx(tf_hp1, "u")
        - res.sum_b_dyg(_tf_field(s, "v"), "h")
        + res.sum_b_dyg(_tf_field(s, "g"), "u")
    )


def _f_rho(res: _Residual) -> np.ndarray:
    s = res.s
    tf_U = _tf_field(s, "u", const0=1.0, sub_exp0=True)
    return -res.commutator_a_dx(tf_U, "rho") - res.sum_b_dyg(_tf_field(s, "v"), "rho")


def _f_u(res: _Residual) -> np.ndarray:
    s = res.s
    tf_rho = _tf_field(s, "rho", const0=1.0)
    tf_U = _tf_field(s, "u", const0=1.0, sub_exp0=True)
    tf_hp1 = _tf_field(s, "h", const0=1.0)
    tf_rhoU = _tf_product(tf_rho, tf_U)
    tf_rhov = _tf_product(tf_rho, _tf_field(s, "v"))
    acc = (
        -res.commutator_a_dt(tf_rho, "u")
        - res.commutator_a_dx(tf_rhoU, "u")
        + res.commutator_a_dx(tf_hp1, "h")
    )
    for (i, j), (p, q), c in _index_splits(res.alpha1, exclude_full=False):
        acc = acc - c * tf_rho(i, j) * s.zt("v", p, q) * s.shear
    acc = acc - res.sum_b_dyg(tf_rhov, "u") + res.sum_b_dyg(_tf_field(s, "g"), "h")
    return acc


def _residual_hm(res: _Residual, cfg) -> Field:
    eps, kappa = cfg.eps, cfg.kappa
    s, gu = res.s, res.gu
    a, b = res.alpha1.t_count, res.alpha1.x_count
    z_psi = gu.z_psi.values
    eta_h = s.eta["h"]
    lhs = (
        _dt_good_unknown(res, "h")
        + s.advect(*_grad(gu.h_m))
        - eps * d2x(gu.h_m).values
        - kappa * d2y(gu.h_m).values
        - s.hp1 * s.zt("u", a, b + 1)
        - s.g_f * s.dyz("u", a, b)
        - s.zt("g", a, b) * s.shear
    )
    rhs = 0.0
    if res.src is not None:
        rhs = -eps * res.z_dx_rh + eps * eta_h * res.inv_dy_z_dx_rh
    rhs = (
        rhs
        + _f_h(res)
        - eta_h * res.f_psi
        + 2.0 * eps * s.eta_x["h"] * s.zt("psi", a, b + 1)
        + 2.0 * kappa * s.eta_y_h * s.dyz("psi", a, b)
        - z_psi * s.eta_ops["h"]
    )
    if res.frc is not None:
        rhs = rhs + res.z_Fh - eta_h * res.inv_dy_z_Fh
    return s.F(lhs - rhs)


def _residual_rhom(res: _Residual, cfg) -> Field:
    eps, kappa = cfg.eps, cfg.kappa
    s, gu = res.s, res.gu
    a, b = res.alpha1.t_count, res.alpha1.x_count
    z_psi = gu.z_psi.values
    eta_r = s.eta["rho"]
    lhs = (
        _dt_good_unknown(res, "rho")
        + s.advect(*_grad(gu.rho_m))
        - eps * d2x(gu.rho_m).values
        - eps * d2y(gu.rho_m).values
    )
    rhs = (
        _f_rho(res)
        - eta_r * res.f_psi
        + 2.0 * eps * s.eta_x["rho"] * s.zt("psi", a, b + 1)
        - kappa * eta_r * res.d2y_psi
        + eps * d2y(s.F(eta_r * z_psi)).values
        - z_psi * s.eta_ops["rho"]
    )
    if res.src is not None:
        z_div = res.zt_of(res.src[0] + res.src[1])
        rhs = rhs - eps * z_div + eps * eta_r * res.inv_dy_z_dx_rh
    if res.frc is not None:
        rhs = rhs + res.zt_of(res.frc[0]) - eta_r * res.inv_dy_z_Fh
    return s.F(lhs - rhs)


def _residual_um(res: _Residual, cfg) -> Field:
    eps, mu, kappa = cfg.eps, cfg.mu, cfg.kappa
    s, gu = res.s, res.gu
    a, b = res.alpha1.t_count, res.alpha1.x_count
    z_psi = gu.z_psi.values
    eta_u = s.eta["u"]
    rho = s.rho
    lhs = (
        rho * _dt_good_unknown(res, "u")
        + rho * s.advect(*_grad(gu.u_m))
        - eps * d2x(gu.u_m).values
        - mu * d2y(gu.u_m).values
        - s.hp1 * s.zt("h", a, b + 1)
        - s.g_f * s.dyz("h", a, b)
        - s.zt("g", a, b) * s.dyz("h", 0, 0)
    )
    rhs = (
        _f_u(res)
        - rho * eta_u * res.f_psi
        - z_psi * s.eta_ops["u"]
        - eps * (rho - 1.0) * eta_u * d2x(gu.z_psi).values
        - kappa * rho * eta_u * res.d2y_psi
        + 2.0 * eps * s.eta_x["u"] * s.zt("psi", a, b + 1)
        + eps * s.d2x_eta_u * z_psi
        + mu * d2y(s.F(eta_u * z_psi)).values
    )
    if res.src is not None:
        rhs = rhs - eps * res.zt_of(res.src[2]) + eps * rho * eta_u * res.inv_dy_z_dx_rh
    if res.frc is not None:
        rhs = rhs + res.zt_of(res.frc[1]) - rho * eta_u * res.inv_dy_z_Fh
    return s.F(lhs - rhs)


# every residual, by the good unknown it belongs to, in evaluation order
_RESIDUALS = {"rho_m": _residual_rhom, "u_m": _residual_um, "h_m": _residual_hm}


# ---------------------------------------------------------------------------
# Norm equivalence (explicit constants)
# ---------------------------------------------------------------------------


def norm_equivalence_check(
    tower: TimeTower, alpha1: MultiIndex, l: float, delta: float, tol: float = 1e-2
) -> dict:
    """The four explicit-constant inequalities relating raw tangential
    derivatives of the tower's State to its good unknowns, plus the
    combined triple bound.  The tower serves the good unknowns and every dx
    and dy the bounds read.

    Returns {name: {lhs, rhs, ratio, passed}} for b11..b14 and b22."""
    if l < 1:
        raise ValueError(f"norm equivalence requires l >= 1, got {l}")
    hp1 = _check_h_floor(tower, delta)
    grid = tower.grid
    gu = good_unknowns(tower, alpha1, delta)
    a, b = alpha1.t_count, alpha1.x_count
    c_hardy = 2.0 / (delta * (2.0 * l - 1.0))
    h_m_norm = weighted_l2(gu.h_m, l)
    results = {}

    def record(name, lhs, rhs):
        ratio = 0.0 if lhs == 0.0 else (np.inf if rhs == 0.0 else lhs / rhs)
        results[name] = {
            "lhs": float(lhs),
            "rhs": float(rhs),
            "ratio": float(ratio),
            "passed": bool(ratio <= 1.0 + tol),
        }

    # b11: || Z^a1 psi / (h+1) ||_{l-1}  <=  (2/delta(2l-1)) ||h_m||_l
    lhs = weighted_l2(Field(gu.z_psi.values / hp1, grid), l - 1.0)
    record("b11", lhs, c_hardy * h_m_norm)

    # b12: ||Z^a1 h||_l <= ||h_m||_l + (2/delta(2l-1)) ||dy h||_{inf,1} ||h_m||_l
    dyh = tower.deriv("y", "h", 0)
    record(
        "b12",
        weighted_l2(gu.z_h, l),
        h_m_norm + c_hardy * weighted_linf(dyh, 1.0) * h_m_norm,
    )

    # b13: ||dx Z^a1 psi/(h+1)||_{l-1}
    #      <= (2/delta(2l-1)) ||dx h_m||_l + (4/delta^2(2l-1)) ||dx h||_{inf,0} ||h_m||_l
    lhs = weighted_l2(Field(tower.deriv("x", "psi", a, b).values / hp1, grid), l - 1.0)
    rhs = c_hardy * weighted_l2(dx(gu.h_m), l) + (
        4.0 / (delta**2 * (2.0 * l - 1.0))
    ) * weighted_linf(tower.deriv("x", "h", 0), 0.0) * h_m_norm
    record("b13", lhs, rhs)

    # b14: ||dy Z^a1 h||_l <= ||dy h_m||_l
    #      + ((2l+1)/delta(2l-1)) (||dy h||_{inf,0} + ||Z2 dy h||_{inf,1}) ||h_m||_l
    rhs = weighted_l2(dy(gu.h_m), l) + (
        (2.0 * l + 1.0) / (delta * (2.0 * l - 1.0))
    ) * (weighted_linf(dyh, 0.0) + weighted_linf(z2(dyh), 1.0)) * h_m_norm
    record("b14", weighted_l2(tower.deriv("y", "h", a, b), l), rhs)

    # b22 (triple, Minkowski form): ||Z^a1 (rho,u,h)||_l
    #      <= ||(rho_m,u_m,h_m)||_l + (2/delta(2l-1)) G ||h_m||_l,
    #      G^2 = ||dy rho||^2_{inf,1} + ||dy(u-e^{-y})||^2_{inf,1} + ||dy h||^2_{inf,1}
    shear = Field(tower.deriv("y", "u", 0).values + exp_minus_y(grid), grid)
    G = np.sqrt(
        weighted_linf(tower.deriv("y", "rho", 0), 1.0) ** 2
        + weighted_linf(shear, 1.0) ** 2
        + weighted_linf(dyh, 1.0) ** 2
    )
    lhs = np.sqrt(
        weighted_l2(gu.z_rho, l) ** 2
        + weighted_l2(gu.z_u, l) ** 2
        + weighted_l2(gu.z_h, l) ** 2
    )
    good = np.sqrt(
        weighted_l2(gu.rho_m, l) ** 2
        + weighted_l2(gu.u_m, l) ** 2
        + weighted_l2(gu.h_m, l) ** 2
    )
    record("b22", lhs, good + c_hardy * G * h_m_norm)
    return results
