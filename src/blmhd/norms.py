"""Weighted Lebesgue norms, conormal Sobolev norms, and the composite
data norms for the physical (unshifted) triple.

All time-derivative contributions are evaluated by substituting the
governing equations (see pde.TimeTower), never by differencing stored
time levels.  A plain Field passed to conormal_norm is treated as static
data: its time derivatives are zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field
from .operators import d2x, d2y, dx, dy
from .pde import (
    Physics, TimeTower, apply_spatial, exp_minus_y, map_family, static_family, tower_family
)
from .state import MultiIndex, State, initial_state

_MODES = ("full", "tangential-capped", "tangential-only")


@dataclass(frozen=True)
class NormSpec:
    """Order m, weight exponent l, and which multi-index set to sum over."""

    m: int
    l: float
    mode: str = "full"

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"norm order m must be >= 0, got {self.m}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")


def index_set(m: int, mode: str = "full") -> list[MultiIndex]:
    """Multi-indices (t_count, x_count, z2_count) selected by the mode.

    full: |alpha| <= m.  tangential-capped: |alpha| <= m with tangential
    part <= m-1.  tangential-only: tangential indices of order <= m."""
    out = []
    for a in range(m + 1):
        for b in range(m + 1 - a):
            for c in range(m + 1 - a - b):
                idx = MultiIndex(a, b, c)
                if mode == "full":
                    out.append(idx)
                elif mode == "tangential-capped":
                    if idx.tangential_order <= m - 1:
                        out.append(idx)
                elif mode == "tangential-only":
                    if idx.z2_count == 0:
                        out.append(idx)
                else:
                    raise ValueError(f"unknown mode {mode!r}")
    return out


def weighted_l2(f: Field, l: float) -> float:
    """sqrt( integral of (1+y)^{2l} |f|^2 ) by grid quadrature."""
    w = (1.0 + f.grid.y) ** (2.0 * l)
    return float(np.sqrt(np.sum(f.grid.weight_2d * w[None, :] * f.values**2)))


def weighted_linf(f: Field, l: float, y_cap: float | None = None) -> float:
    """max over the grid of (1+y)^l |f|, optionally restricted to y <= y_cap."""
    w = (1.0 + f.grid.y) ** l
    vals = np.abs(w[None, :] * f.values)
    if y_cap is not None:
        vals = vals[:, f.grid.y <= y_cap]
    return float(vals.max())


def _families(obj, pde_context):
    """Resolve the input into a list of field families (callables k -> Field);
    a State gets a tower with the Physics() defaults (pass a TimeTower for others)."""
    if isinstance(obj, Field):
        return [static_family(obj)]
    if callable(obj):
        return [obj]
    if isinstance(obj, State):
        tower = pde_context
        if not isinstance(tower, TimeTower):
            tower = TimeTower(obj, physics=Physics())
        return [tower_family(tower, n) for n in ("rho", "u", "h")]
    if isinstance(obj, str):
        if isinstance(pde_context, TimeTower):
            tower = pde_context
        elif isinstance(pde_context, State):
            tower = TimeTower(pde_context, physics=Physics())
        else:
            raise ValueError("field-selector norm requires a pde context")
        return [tower_family(tower, obj)]
    if isinstance(obj, (tuple, list)):
        fams = []
        for o in obj:
            fams.extend(_families(o, pde_context))
        return fams
    raise TypeError(f"cannot take a conormal norm of {type(obj).__name__}")


def conormal_norm(obj, spec: NormSpec, pde_context=None) -> float:
    """sqrt of the sum of squared weighted L^2_l norms of Z^alpha applied to
    the input, over the index set selected by spec.mode.

    obj may be a Field (static data), a field family (callable k -> Field
    giving d_t^k), a field-selector string with a State/TimeTower context,
    a State (the shifted triple), or a tuple of any of these."""
    fams = _families(obj, pde_context)
    total = 0.0
    for idx in index_set(spec.m, spec.mode):
        for fam in fams:
            total += weighted_l2(apply_spatial(fam(idx.t_count), idx), spec.l) ** 2
    return float(np.sqrt(total))


def conormal_linf(obj, spec: NormSpec, pde_context=None, y_cap=None) -> float:
    """Like conormal_norm but with weighted L^infty_l norms per index."""
    fams = _families(obj, pde_context)
    total = 0.0
    for idx in index_set(spec.m, spec.mode):
        for fam in fams:
            total += (
                weighted_linf(apply_spatial(fam(idx.t_count), idx), spec.l, y_cap)
                ** 2
            )
    return float(np.sqrt(total))


def shift_physical(rho: Field, u1: Field, h1: Field) -> tuple[Field, Field, Field]:
    """Convert the physical triple to the decaying shifted unknowns."""
    grid = rho.grid
    return (
        Field(rho.values - 1.0, grid),
        Field(u1.values - 1.0 + exp_minus_y(grid), grid),
        Field(h1.values - 1.0, grid),
    )


def b_norms(
    rho: Field,
    u1: Field,
    h1: Field,
    m: int,
    l: float,
    mu: float = 1.0,
    kappa: float = 1.0,
) -> tuple[float, float, dict]:
    """Composite data norms of the physical triple at a time slice.

    Returns (b_bar, b_hat, details).  b_bar sums the squared H^m_l norm of
    the shifted triple, the squared H^{m-1}_l norm of the physical normal
    derivatives, and the squared H^{1,infty}_1 norm of d_y rho.  b_hat sums,
    for i = 0..m-1, the squared H^m_l norm of d_t^i of the first-derivative
    quadruple (dx rho, dy rho, dx u1, dx h1), the squared H^{1,infty}_0 norm
    of d_t^i d_y (dxx rho, dyy rho), and the squared H^{m-1}_l norm of
    d_t^i d_y of the quadruple.  Time derivatives come from the governing
    equations with no artificial diffusion (eps = 0) and no sources.
    """
    if m < 1:
        raise ValueError("b_norms requires m >= 1")
    grid = rho.grid
    E_field = Field(np.broadcast_to(exp_minus_y(grid), (grid.nx, grid.ny)), grid)
    r, us, hs = shift_physical(rho, u1, h1)
    state = initial_state(grid, r, us, hs)
    tower = TimeTower(state, max_depth=2 * m + 1, physics=Physics(mu, kappa, eps=0.0))
    fr = tower_family(tower, "rho")
    fu = tower_family(tower, "u")
    fh = tower_family(tower, "h")

    # plain deviation u1 - 1 (the e^{-y} shift is time-independent)
    def fu1(k: int) -> Field:
        out = fu(k)
        return out - E_field if k == 0 else out

    # physical normal derivatives (d_y of the plain deviations)
    dyr = map_family(dy, fr)
    dyh = map_family(dy, fh)
    dyu = map_family(dy, fu1)

    full_m = NormSpec(m, l, "full")
    full_m1 = NormSpec(m - 1, l, "full")
    bar_triple = conormal_norm((fr, fu1, fh), full_m) ** 2
    bar_dy = conormal_norm((dyr, dyu, dyh), full_m1) ** 2
    bar_linf = conormal_linf(dyr, NormSpec(1, 1.0, "full")) ** 2
    b_bar = bar_triple + bar_dy + bar_linf

    def shifted_t(fam, i):
        return lambda k: fam(k + i)

    hat = 0.0
    hat_groups = []
    hat_linf_y5 = 0.0
    for i in range(m):
        quad = (
            map_family(dx, shifted_t(fr, i)),
            map_family(dy, shifted_t(fr, i)),
            map_family(dx, shifted_t(fu, i)),
            map_family(dx, shifted_t(fh, i)),
        )
        g1 = conormal_norm(quad, full_m) ** 2
        second = (
            lambda k, i=i: dy(d2x(fr(k + i))),
            lambda k, i=i: dy(d2y(fr(k + i))),
        )
        spec1inf = NormSpec(1, 0.0, "full")
        g2 = conormal_linf(second, spec1inf) ** 2
        g2_y5 = conormal_linf(second, spec1inf, y_cap=5.0) ** 2
        dyquad = tuple(map_family(dy, q) for q in quad)
        g3 = conormal_norm(dyquad, full_m1) ** 2
        hat += g1 + g2 + g3
        hat_linf_y5 += g2_y5
        hat_groups.append({"first_deriv_hm": g1, "linf_second": g2, "dy_hm1": g3})
    details = {
        "bar_triple_sq": bar_triple,
        "bar_dy_sq": bar_dy,
        "bar_linf_sq": bar_linf,
        "hat_groups": hat_groups,
        "hat_linf_y5_sq": hat_linf_y5,
    }
    return float(b_bar), float(hat), details
