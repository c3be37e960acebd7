"""Weighted Lebesgue norms, conormal Sobolev norms, and the composite
data norms for the physical (unshifted) triple.

A conormal norm sums ||<y>^l Z^alpha f|| over multi-indices alpha =
(t, x, z2), Z^alpha = d_t^t Z1^x Z2^z2.  Its input is a Field (static
data, whose time derivatives are zero), a field family (a callable k ->
d_t^k f, e.g. functools.partial(tower.field, "u")), or a tuple of these.
conormal_walk visits the index set once: each Z^alpha is one dx or z2 of
a derivative it has already produced, so no index is taken from scratch.

Each weight is computed once: weighted_l2 multiplies the squared field in
place by a read-only weight_2d * (1+y)^{2l}, and weighted_linf by a
read-only row (1+y)^l, both cached per (grid, l) in a small LRU cache.
b_norms reads the time derivatives d_t^i of its first- and second-
derivative families for every shift i < m; it walks each family once per
tower level, over every Z^alpha that any shift reads, and then sums each
shift's norms in conormal_walk's order, so the values are those of one
walk per shift, bit for bit.  b_norms takes the physical triple (for a
State, data.physical of it) and builds its tower on data.shifted of it.

All time-derivative contributions are evaluated by substituting the
governing equations (see pde.TimeTower), never by differencing stored
time levels.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .data import shifted
from .grid import Field, GridSpec
from .operators import d2x, d2y, dx, dy, z2
from .pde import Physics, TimeTower, exp_minus_y
from .state import MultiIndex, initial_state

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


@lru_cache(maxsize=8)
def _l2_weight(grid: GridSpec, l: float) -> np.ndarray:
    """Read-only quadrature weight times (1+y)^{2l}, shape (nx, ny)."""
    w = grid.weight_2d * ((1.0 + grid.y) ** (2.0 * l))[None, :]
    w.setflags(write=False)
    return w


@lru_cache(maxsize=8)
def _linf_weight(grid: GridSpec, l: float) -> np.ndarray:
    """Read-only row (1+y)^l, shape (ny,)."""
    w = (1.0 + grid.y) ** l
    w.setflags(write=False)
    return w


def weighted_l2(f: Field, l: float) -> float:
    """sqrt( integral of (1+y)^{2l} |f|^2 ) by grid quadrature."""
    sq = np.square(f.values)
    np.multiply(sq, _l2_weight(f.grid, l), out=sq)
    return float(np.sqrt(np.sum(sq)))


def weighted_linf(f: Field, l: float, y_cap: float | None = None) -> float:
    """max over the grid of (1+y)^l |f|, optionally restricted to y <= y_cap."""
    vals = _linf_weight(f.grid, l) * f.values
    np.abs(vals, out=vals)
    if y_cap is not None:
        vals = vals[:, f.grid.y <= y_cap]
    return float(vals.max())


def _families(obj) -> list:
    """The input as a flat list of families: a Field (static data) or a
    callable k -> Field giving d_t^k; tuples and lists are flattened."""
    if isinstance(obj, Field) or callable(obj):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [fam for o in obj for fam in _families(o)]
    raise TypeError(f"cannot take a conormal norm of {type(obj).__name__}")


def _each(op, fields: list) -> list:
    return [None if f is None else op(f) for f in fields]


def _rows(head: list, depths: list):
    """Yield (b, c, [Z1^b Z2^c f for f in head]) for every b < len(depths)
    and c < depths[b]: Z1^b f is dx of the row head Z1^(b-1) f, and each
    chain element is z2 of the one before it."""
    for b, depth in enumerate(depths):
        if b:
            head = _each(dx, head)
        chain = head
        for c in range(depth):
            if c:
                chain = _each(z2, chain)
            yield b, c, chain


def conormal_walk(fams, m: int, mode: str = "full"):
    """Yield (idx, [Z^idx fam(idx.t_count) for fam in fams]) for every idx
    of index_set(m, mode), in that order.

    Each family is evaluated once per time order a that the mode reads.
    Z^(a,b,0) is dx of the row head Z^(a,b-1,0) and Z^(a,b,c) is z2 of
    Z^(a,b,c-1): the chain pde.apply_spatial computes, so the values are
    the same bit for bit.  No derivative is taken that no index of the mode
    reads, and only the current row head and chain element of each family
    are held."""
    # depth[(a, b)]: how many chain elements Z^(a,b,0..) the mode reads
    depth = {}
    for idx in index_set(m, mode):
        depth[idx.t_count, idx.x_count] = idx.z2_count + 1
    for a in range(m + 1):
        rows = [b for (t, b) in depth if t == a]
        if not rows:
            continue
        # a Field is static data: its own d_t^0, and zero (None) above
        head = [(f if a == 0 else None) if isinstance(f, Field) else f(a) for f in fams]
        depths = [depth.get((a, b), 0) for b in range(max(rows) + 1)]
        for b, c, chain in _rows(head, depths):
            yield MultiIndex(a, b, c), chain


def _conormal_sum(obj, spec: NormSpec, norm) -> float:
    """sqrt of the sum of norm(Z^alpha f)^2 over spec's index set: index by
    index, families inner, skipping the zero (None) entries."""
    total = 0.0
    for _, zs in conormal_walk(_families(obj), spec.m, spec.mode):
        for z in zs:
            if z is not None:
                total += norm(z) ** 2
    return float(np.sqrt(total))


def conormal_norm(obj, spec: NormSpec) -> float:
    """sqrt of the sum of squared weighted L^2_l norms of Z^alpha applied to
    the input, over the index set selected by spec.mode, taken from one
    conormal_walk of order spec.m.

    obj is a Field (static data: only its t_count = 0 indices count), a
    field family (callable k -> Field giving d_t^k), or a tuple of these."""
    return _conormal_sum(obj, spec, lambda z: weighted_l2(z, spec.l))


def conormal_linf(obj, spec: NormSpec, y_cap=None) -> float:
    """Like conormal_norm but with weighted L^infty_l norms per index."""
    return _conormal_sum(obj, spec, lambda z: weighted_linf(z, spec.l, y_cap))


def _shifted_norms(fams, n: int, shifts: int, norm) -> dict:
    """{(k, b, c): [norm(Z1^b Z2^c fam(k)) for fam in fams]} over every
    (k, b, c) that the order-n full index sets of the time-shifted families
    k -> fam(k + i), i < shifts, read: Z^(a,b,c) of shift i is level
    k = a + i, so level k carries b + c <= n - max(0, k - shifts + 1).
    Each level is evaluated and each Z1^b Z2^c taken once, by the chain
    conormal_walk uses, so the norms are those of the shifted walks."""
    out = {}
    for k in range(n + shifts):
        top = n - max(0, k - shifts + 1)
        head = [fam(k) for fam in fams]
        for b, c, zs in _rows(head, [top + 1 - b for b in range(top + 1)]):
            out[k, b, c] = [norm(z) for z in zs]
    return out


def _shifted_sum(norms: dict, n: int, i: int, pick=lambda v: v) -> float:
    """conormal_norm of the families shifted by i at order n (full mode),
    from _shifted_norms' table: the same squares summed in conormal_walk's
    order (indices outer, families inner), so the sum is the same bit for
    bit.  pick selects one of several norms stored per field."""
    total = 0.0
    for idx in index_set(n):
        for v in norms[idx.t_count + i, idx.x_count, idx.z2_count]:
            total += pick(v) ** 2
    return float(np.sqrt(total))


def b_norms(
    rho: Field,
    u1: Field,
    h1: Field,
    m: int,
    l: float,
    *,
    mu: float,
    kappa: float,
) -> tuple[float, float, dict]:
    """Composite data norms of the physical triple at a time slice.

    Returns (b_bar, b_hat, details).  b_bar sums the squared H^m_l norm of
    the shifted triple, the squared H^{m-1}_l norm of the physical normal
    derivatives, and the squared H^{1,infty}_1 norm of d_y rho.  b_hat sums,
    for i = 0..m-1, the squared H^m_l norm of d_t^i of the first-derivative
    quadruple (dx rho, dy rho, dx u1, dx h1), the squared H^{1,infty}_0 norm
    of d_t^i d_y (dxx rho, dyy rho), and the squared H^{m-1}_l norm of
    d_t^i d_y of the quadruple.  Time derivatives come from the governing
    equations with viscosity mu and resistivity kappa (both required), no
    artificial diffusion (eps = 0) and no sources.
    """
    if m < 1:
        raise ValueError("b_norms requires m >= 1")
    grid = rho.grid
    E_field = Field(np.broadcast_to(exp_minus_y(grid), (grid.nx, grid.ny)), grid)
    state = initial_state(grid, *shifted(rho, u1, h1))
    tower = TimeTower(state, max_depth=2 * m + 1, physics=Physics(mu, kappa, eps=0.0))
    fr, fu, fh = (partial(tower.field, name) for name in ("rho", "u", "h"))

    # plain deviation u1 - 1 (the e^{-y} shift is time-independent)
    def fu1(k: int) -> Field:
        out = fu(k)
        return out - E_field if k == 0 else out

    # physical normal derivatives (d_y of the plain deviations); dx and dy
    # of the tower levels come from the tower's derivative cache
    dxr, dxu, dxh = (partial(tower.deriv, "x", name) for name in ("rho", "u", "h"))
    dyr, dyh = (partial(tower.deriv, "y", name) for name in ("rho", "h"))

    full_m = NormSpec(m, l, "full")
    full_m1 = NormSpec(m - 1, l, "full")
    bar_triple = conormal_norm((fr, fu1, fh), full_m) ** 2
    bar_dy = conormal_norm((dyr, lambda k: dy(fu1(k)), dyh), full_m1) ** 2
    bar_linf = conormal_linf(dyr, NormSpec(1, 1.0, "full")) ** 2
    b_bar = bar_triple + bar_dy + bar_linf

    quad = (dxr, dyr, dxu, dxh)
    dyquad = tuple(lambda k, q=q: dy(q(k)) for q in quad)
    second = (lambda k: dy(d2x(fr(k))), lambda k: dy(d2y(fr(k))))
    n1 = _shifted_norms(quad, m, m, lambda z: weighted_l2(z, l))
    # the sups on the whole strip and on y <= 5 share one walk
    n2 = _shifted_norms(
        second, 1, m, lambda z: (weighted_linf(z, 0.0), weighted_linf(z, 0.0, 5.0))
    )
    n3 = _shifted_norms(dyquad, m - 1, m, lambda z: weighted_l2(z, l))

    hat = 0.0
    hat_groups = []
    hat_linf_y5 = 0.0
    for i in range(m):
        g1 = _shifted_sum(n1, m, i) ** 2
        g2 = _shifted_sum(n2, 1, i, lambda n: n[0]) ** 2
        g2_y5 = _shifted_sum(n2, 1, i, lambda n: n[1]) ** 2
        g3 = _shifted_sum(n3, m - 1, i) ** 2
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
