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
module keeps no chain of its own.  One evaluation per stored slice serves
the residuals of all three good unknowns: a _Residual holds one tower and
one good_unknowns result, and takes each term that more than one unknown
reads once.  cancellation_residual returns the series asked for; the
other two wait in a one-entry module slot, keyed by the trajectory's
stored States (by identity), its bundle, forcing and config, alpha1 and
the resolved delta_floor.  A call with the same key takes its series out
of the slot, which is emptied when its last series is taken; any other
call replaces it, so at most two series are held.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .grid import Field
from .norms import weighted_l2, weighted_linf
from .operators import d2x, d2y, dx, dy, integrate_y, z2
from .pde import Physics, TimeTower, apply_spatial, exp_minus_y, provided_terms
from .state import MultiIndex, State

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


def _check_alpha1(alpha1: MultiIndex) -> None:
    if alpha1.z2_count != 0:
        raise ValueError("alpha1 must be tangential (z2_count = 0)")
    if alpha1.t_count > T_DEPTH_CAP:
        raise ValueError(
            f"time-derivative depth {alpha1.t_count} exceeds cap {T_DEPTH_CAP}"
        )


def _check_h_floor(state: State, delta_floor: float) -> np.ndarray:
    hp1 = state.h_shift.values + 1.0
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


def good_unknowns(
    state: State,
    alpha1: MultiIndex,
    delta_floor: float,
    tower: TimeTower | None = None,
) -> GoodUnknowns:
    """Build the good unknowns; time parts of Z^a1 via PDE substitution
    through tower (which carries any sources and forcing), else through a
    tower with the Physics() defaults and neither.  The eta weights and
    every Z^a1 are read from the tower, which keeps them."""
    _check_alpha1(alpha1)
    _check_h_floor(state, delta_floor)
    grid = state.grid
    if tower is None:
        tower = TimeTower(state, physics=Physics())
    eta_r, eta_u, eta_h = eta_fields(tower)
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


def _tf_field(res: _Residual, name: str, const0: float = 0.0, sub_exp0: bool = False):
    """Tangential function (t_count, x_count) -> array for a state field,
    optionally plus a constant / minus e^{-y} contributing only at (0, 0)."""

    def f(a: int, b: int) -> np.ndarray:
        out = res.zt(name, a, b)
        if a == 0 and b == 0:
            if const0:
                out = out + const0
            if sub_exp0:
                out = out - res.E
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


class _Residual:
    """One state slice of a residual evaluation, shared by the three good
    unknowns: one tower, one good_unknowns result (the eta weights and the
    Z^a1 fields), and each term that more than one unknown reads, taken
    once.  Every Z^(a,b) of a tower field and its dy are the tower's:
    Z^(a,b) is dx of Z^(a,b-1), so dx Z^(a,b) is Z^(a,b+1), and each is
    taken once per slice.  What a single unknown reads stays local to its
    residual function, so it is freed when that function returns.

    U is (u + 1) - e^{-y}, which the residuals are pinned to; the tower's
    U(0) is u + (1 - e^{-y}), which differs from it in the last bit.

    src and frc are the arrays of d_t^{t_count} of the source terms
    (dx r1, dy r2, dx ru, dx rh) and of the forcing (F_r, F_u, F_h) at the
    slice, or None where absent or vanishing."""

    def __init__(self, state, alpha1, delta_floor, bundle, forcing, physics):
        _check_alpha1(alpha1)
        self.grid = state.grid
        self.alpha1 = alpha1
        self.hp1 = _check_h_floor(state, delta_floor)
        self.tower = TimeTower(
            state, bundle, forcing, max_depth=alpha1.t_count + 1, physics=physics
        )
        self.E = exp_minus_y(self.grid)
        self.h = state.h_shift.values
        self.v = self.zt("v", 0, 0)
        self.g_f = self.zt("g", 0, 0)
        self.rho = self.tower.rho
        self.U = state.u_shift.values + 1.0 - self.E
        self.gu = gu = good_unknowns(state, alpha1, delta_floor, tower=self.tower)
        a = alpha1.t_count
        self.shear = self.dyz("u", 0, 0) + self.E  # d_y(u - e^{-y})
        self.f_psi = -self.commutator_a_dx(
            _tf_field(self, "u", const0=1.0, sub_exp0=True), "psi"
        ) - self.sum_b_dyg(_tf_field(self, "v"), "psi")
        self.d2y_psi = d2y(gu.z_psi).values
        # Z^a1 of dx rh and of F_h, and their int_0^y, read by every unknown
        self.src = self.tower.source_terms(a)
        if self.src is not None:
            self.z_dx_rh = self.zt_of(self.src[3])
            self.inv_dy_z_dx_rh = self.inv_dy(self.z_dx_rh)
        self.frc = provided_terms(forcing, state.grid, state.time, a)
        if self.frc is not None:
            self.z_Fh = self.zt_of(self.frc[2])
            self.inv_dy_z_Fh = self.inv_dy(self.z_Fh)

    def F(self, vals) -> Field:
        """A Field of an array computed at the slice (not scanned)."""
        return Field._computed(vals, self.grid)

    # -- tower fields and their derivatives ---------------------------------

    def zt(self, name: str, a: int, b: int) -> np.ndarray:
        """d_t^a Z1^b of a tower field, from the tower."""
        return self.tower.z(name, a, b).values

    def dyz(self, name: str, a: int, b: int) -> np.ndarray:
        """d_y of zt(name, a, b), from the tower."""
        return self.tower.deriv("y", name, a, b).values

    # -- eta weights and their derivatives ----------------------------------

    def eta(self, which: str) -> np.ndarray:
        return getattr(self.gu, "eta_" + which).values

    def eta_dt(self, which: str) -> np.ndarray:
        """d_t eta_w by the quotient rule through the tower."""
        num = self.dyz(which, 1, 0)
        h_t = self.zt("h", 1, 0)
        return num / self.hp1 - self.eta(which) * h_t / self.hp1

    # -- transport-type operators --------------------------------------------

    def advect(self, w_x: np.ndarray, w_y: np.ndarray) -> np.ndarray:
        """U dx w + v dy w, given dx w and dy w."""
        return self.U * w_x + self.v * w_y

    # -- commutator sums -----------------------------------------------------

    def commutator_a_dx(self, A, w_name: str):
        """[Z^a1, a d_x] w = sum C Z^b1 a  Z^g1 d_x w  over beta1 != 0."""
        acc = 0.0
        for (i, j), (p, q), c in _index_splits(self.alpha1, exclude_full=False):
            acc = acc + c * A(i, j) * self.zt(w_name, p, q + 1)
        return acc

    def commutator_a_dt(self, A, w_name: str):
        """[Z^a1, a d_t] w = sum C Z^b1 a  Z^g1 d_t w  over beta1 != 0."""
        acc = 0.0
        for (i, j), (p, q), c in _index_splits(self.alpha1, exclude_full=False):
            acc = acc + c * A(i, j) * self.zt(w_name, p + 1, q)
        return acc

    def sum_b_dyg(self, B, w_name: str):
        """sum C Z^b1 b  Z^g1 d_y w  over beta1 != 0 and != alpha1."""
        acc = 0.0
        for (i, j), (p, q), c in _index_splits(self.alpha1, exclude_full=True):
            acc = acc + c * B(i, j) * self.dyz(w_name, p, q)
        return acc

    # -- sources and forcing at the slice ------------------------------------

    def zt_of(self, arr: np.ndarray) -> np.ndarray:
        """Z^a1 of a source or forcing term, given its d_t^{t_count} arr."""
        return apply_spatial(self.F(arr), MultiIndex(x_count=self.alpha1.x_count)).values

    def inv_dy(self, arr: np.ndarray) -> np.ndarray:
        return integrate_y(self.F(arr)).values


def _grad(f: Field) -> tuple[np.ndarray, np.ndarray]:
    """(dx f, dy f) as arrays."""
    return dx(f).values, dy(f).values


def _dt_good_unknown(res: _Residual, which: str, eta_t: np.ndarray) -> np.ndarray:
    """d_t w_m = Z^{a1+e_t} w - (d_t eta_w) Z^a1 psi - eta_w Z^{a1+e_t} psi,
    given eta_t = d_t eta_w."""
    a, b = res.alpha1.t_count, res.alpha1.x_count
    return (
        res.zt(which, a + 1, b)
        - eta_t * res.gu.z_psi.values
        - res.eta(which) * res.zt("psi", a + 1, b)
    )


# The slot: (objects, values, {which: series}) for the series the last
# evaluation's caller did not ask for.  objects (the trajectory's bundle,
# forcing, config and stored States) match by identity; the slot holds
# them, so their ids cannot be recycled.  values (alpha1 and the resolved
# delta_floor) match by equality.
_SLOT = None


def cancellation_residual(
    trajectory,
    alpha1: MultiIndex,
    which: str,
    delta_floor: float | None = None,
) -> list[Field]:
    """LHS - RHS of the evolution equation of the chosen good unknown,
    evaluated discretely on every stored state of the trajectory, with the
    trajectory config's eps, mu and kappa.  The series of the other two
    unknowns are evaluated with it and wait in the module's slot (see the
    module docstring)."""
    global _SLOT
    if which not in _RESIDUALS:
        raise ValueError(f"which must be rho_m, u_m or h_m, got {which!r}")
    cfg = trajectory.config
    if delta_floor is None:
        delta_floor = cfg.delta0 / 2.0
    objects = (trajectory.bundle, trajectory.forcing, cfg, *trajectory.states)
    values = (alpha1, delta_floor)
    if _SLOT is not None:
        held_objects, held_values, series = _SLOT
        if (
            which in series
            and held_values == values
            and len(held_objects) == len(objects)
            and all(a is b for a, b in zip(held_objects, objects))
        ):
            out = series.pop(which)
            if not series:
                _SLOT = None
            return out
    _SLOT = None
    series = {w: [] for w in _RESIDUALS}
    for st in trajectory.states:
        res = _Residual(st, alpha1, delta_floor, trajectory.bundle, trajectory.forcing, cfg)
        for w, residual in _RESIDUALS.items():
            series[w].append(residual(res, cfg))
        del res  # before the next slice's is built, so that two are never held
    out = series.pop(which)
    _SLOT = (objects, values, series)
    return out


def _f_h(res: _Residual) -> np.ndarray:
    tf_U = _tf_field(res, "u", const0=1.0, sub_exp0=True)
    tf_hp1 = _tf_field(res, "h", const0=1.0)
    return (
        -res.commutator_a_dx(tf_U, "h")
        + res.commutator_a_dx(tf_hp1, "u")
        - res.sum_b_dyg(_tf_field(res, "v"), "h")
        + res.sum_b_dyg(_tf_field(res, "g"), "u")
    )


def _f_rho(res: _Residual) -> np.ndarray:
    tf_U = _tf_field(res, "u", const0=1.0, sub_exp0=True)
    return -res.commutator_a_dx(tf_U, "rho") - res.sum_b_dyg(_tf_field(res, "v"), "rho")


def _f_u(res: _Residual) -> np.ndarray:
    tf_rho = _tf_field(res, "rho", const0=1.0)
    tf_U = _tf_field(res, "u", const0=1.0, sub_exp0=True)
    tf_hp1 = _tf_field(res, "h", const0=1.0)
    tf_rhoU = _tf_product(tf_rho, tf_U)
    tf_rhov = _tf_product(tf_rho, _tf_field(res, "v"))
    acc = (
        -res.commutator_a_dt(tf_rho, "u")
        - res.commutator_a_dx(tf_rhoU, "u")
        + res.commutator_a_dx(tf_hp1, "h")
    )
    for (i, j), (p, q), c in _index_splits(res.alpha1, exclude_full=False):
        acc = acc - c * tf_rho(i, j) * res.zt("v", p, q) * res.shear
    acc = acc - res.sum_b_dyg(tf_rhov, "u") + res.sum_b_dyg(_tf_field(res, "g"), "h")
    return acc


def _residual_hm(res: _Residual, cfg) -> Field:
    eps, kappa = cfg.eps, cfg.kappa
    gu = res.gu
    a, b = res.alpha1.t_count, res.alpha1.x_count
    z_psi = gu.z_psi.values
    eta_h = res.eta("h")
    eta_t = res.eta_dt("h")
    eta_x, eta_y = _grad(gu.eta_h)
    lhs = (
        _dt_good_unknown(res, "h", eta_t)
        + res.advect(*_grad(gu.h_m))
        - eps * d2x(gu.h_m).values
        - kappa * d2y(gu.h_m).values
        - (res.h + 1.0) * res.zt("u", a, b + 1)
        - res.g_f * res.dyz("u", a, b)
        - res.zt("g", a, b) * res.shear
    )
    eta_ops = (
        eta_t
        + res.advect(eta_x, eta_y)
        - eps * d2x(gu.eta_h).values
        - kappa * d2y(gu.eta_h).values
    )
    rhs = 0.0
    if res.src is not None:
        rhs = -eps * res.z_dx_rh + eps * eta_h * res.inv_dy_z_dx_rh
    rhs = (
        rhs
        + _f_h(res)
        - eta_h * res.f_psi
        + 2.0 * eps * eta_x * res.zt("psi", a, b + 1)
        + 2.0 * kappa * eta_y * res.dyz("psi", a, b)
        - z_psi * eta_ops
    )
    if res.frc is not None:
        rhs = rhs + res.z_Fh - eta_h * res.inv_dy_z_Fh
    return res.F(lhs - rhs)


def _residual_rhom(res: _Residual, cfg) -> Field:
    eps, kappa = cfg.eps, cfg.kappa
    gu = res.gu
    a, b = res.alpha1.t_count, res.alpha1.x_count
    z_psi = gu.z_psi.values
    eta_r = res.eta("rho")
    eta_t = res.eta_dt("rho")
    eta_x, eta_y = _grad(gu.eta_rho)
    lhs = (
        _dt_good_unknown(res, "rho", eta_t)
        + res.advect(*_grad(gu.rho_m))
        - eps * d2x(gu.rho_m).values
        - eps * d2y(gu.rho_m).values
    )
    eta_ops = eta_t + res.advect(eta_x, eta_y) - eps * d2x(gu.eta_rho).values
    rhs = (
        _f_rho(res)
        - eta_r * res.f_psi
        + 2.0 * eps * eta_x * res.zt("psi", a, b + 1)
        - kappa * eta_r * res.d2y_psi
        + eps * d2y(res.F(eta_r * z_psi)).values
        - z_psi * eta_ops
    )
    if res.src is not None:
        z_div = res.zt_of(res.src[0] + res.src[1])
        rhs = rhs - eps * z_div + eps * eta_r * res.inv_dy_z_dx_rh
    if res.frc is not None:
        rhs = rhs + res.zt_of(res.frc[0]) - eta_r * res.inv_dy_z_Fh
    return res.F(lhs - rhs)


def _residual_um(res: _Residual, cfg) -> Field:
    eps, mu, kappa = cfg.eps, cfg.mu, cfg.kappa
    gu = res.gu
    a, b = res.alpha1.t_count, res.alpha1.x_count
    z_psi = gu.z_psi.values
    eta_u = res.eta("u")
    eta_t = res.eta_dt("u")
    eta_x, eta_y = _grad(gu.eta_u)
    rho = res.rho
    lhs = (
        rho * _dt_good_unknown(res, "u", eta_t)
        + rho * res.advect(*_grad(gu.u_m))
        - eps * d2x(gu.u_m).values
        - mu * d2y(gu.u_m).values
        - (res.h + 1.0) * res.zt("h", a, b + 1)
        - res.g_f * res.dyz("h", a, b)
        - res.zt("g", a, b) * res.dyz("h", 0, 0)
    )
    eta_transport = rho * eta_t + rho * res.advect(eta_x, eta_y)
    rhs = (
        _f_u(res)
        - rho * eta_u * res.f_psi
        - z_psi * eta_transport
        - eps * (rho - 1.0) * eta_u * d2x(gu.z_psi).values
        - kappa * rho * eta_u * res.d2y_psi
        + 2.0 * eps * eta_x * res.zt("psi", a, b + 1)
        + eps * d2x(gu.eta_u).values * z_psi
        + mu * d2y(res.F(eta_u * z_psi)).values
    )
    if res.src is not None:
        rhs = rhs - eps * res.zt_of(res.src[2]) + eps * rho * eta_u * res.inv_dy_z_dx_rh
    if res.frc is not None:
        rhs = rhs + res.zt_of(res.frc[1]) - rho * eta_u * res.inv_dy_z_Fh
    return res.F(lhs - rhs)


# every residual, by the good unknown it belongs to, in evaluation order
_RESIDUALS = {"rho_m": _residual_rhom, "u_m": _residual_um, "h_m": _residual_hm}


# ---------------------------------------------------------------------------
# Norm equivalence (explicit constants)
# ---------------------------------------------------------------------------


def norm_equivalence_check(
    state: State,
    alpha1: MultiIndex,
    l: float,
    delta: float,
    tower: TimeTower | None = None,
    tol: float = 1e-2,
) -> dict:
    """The four explicit-constant inequalities relating raw tangential
    derivatives to good unknowns (built as in good_unknowns), plus the
    combined triple bound.  One tower (tower, else one built here as
    good_unknowns builds it) serves the good unknowns and every dx and dy
    the bounds read.

    Returns {name: {lhs, rhs, ratio, passed}} for b11..b14 and b22."""
    if l < 1:
        raise ValueError(f"norm equivalence requires l >= 1, got {l}")
    hp1 = _check_h_floor(state, delta)
    grid = state.grid
    if tower is None:
        tower = TimeTower(state, physics=Physics())
    gu = good_unknowns(state, alpha1, delta, tower=tower)
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
