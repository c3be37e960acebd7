"""Semi-implicit time integration of the shifted regularized system.

Scheme: all second-derivative terms are implicit (periodic in x, banded
tridiagonal in y per x-line); advection, coupling, sources and forcing are
explicit.  imex-cn is second order: a Strang-symmetrized Crank-Nicolson
x-diffusion split around a two-stage midpoint predictor/corrector in y.
imex-be is the first-order single-stage variant.

Stages pass (rho, u, h) arrays, and a step builds one checked State, at
its end: finiteness is checked there, once per step.  Every Field built
inside the step (operator results, a stage's State, tower levels, v and g)
is computed from checked data and not scanned, so a NaN or an infinity
from any stage raises SolverError ("... diverged ...") at the end of its
step.  The new State is its fields and time; the next step's CFL rule
builds its v by derive_secondary.  Each y stage wraps its lagged arrays in
a State and builds the level-0 TimeTower on it (v, g, dx u and dx h from state.closure, and
rho = r + 1 once): TimeTower.explicit, the kernel the time-derivative
tower differentiates, gives the explicit terms, and the tower's rho gives
u's viscosity mu / rho; the stage frees both before its solve.  Both
imex-cn y stages start from the same fields, so a substep takes their
explicit D_y^2 (_apply_dyy) once.

x half-steps: the constant rho and h steps could be one product with a
cached dense (I - c L)^{-1} (I + c L) each, which is faster, but it is a
different arithmetic: it moves u by about one ulp on the wall row, and the
Z_1^2 derivatives of the u_m residual amplify that past a 1e-8 gate.

Tridiagonal layout: the kernels solve along the first axis, from both
ends at once.  Rows j and n-1-j of a system are folded into one
contiguous (2, ...) slab j of a (ceil(n/2), 2, ...) array (_fold); for odd
n the middle row is alone in the last slab, beside a zero.  The top chain
eliminates downward and the bottom chain upward (lo and up swap roles) in
the same ufunc calls, and the last slab joins them.  _eliminate factors a
matrix's folded rows in place; thomas_batched sweeps folded right-hand
sides.  A stage folds its right-hand sides into one block once, stacked
after the fold axis (rho, u, h and, in x, u's Sherman-Morrison seed), runs
one sweep and unfolds each field once, into arrays allocated before the
block: the block is the stage's last large allocation and first free, so
glibc reuses one top-of-heap region instead of trimming and refaulting
it.  The constant rho and h systems (eps in x; eps, kappa in y) are cached
read-only per grid, step and coefficient; in x, rho and h share one
system and one Sherman-Morrison update when their scalars are equal.
u's rows are built folded from its folded coefficient (in y by _y_rows,
from cached folded D_y^2 weights), eliminated in a contiguous part of the
block and copied into the stacked factors: strided slabs double the cost
of each ufunc call in the loop, and factors broadcast over the stack
make the sweep half as slow again.

Boundary closure: Neumann rows (d_y rho = d_y h = 0 at the wall) use a
second-order mirror ghost inside the implicit solve; Dirichlet rows (u at
the wall, all fields at the top) are clamped to their initial traces.
This keeps the uniform outer state an exact discrete steady state; it is
not the no-slip condition unless the data's wall trace of u is 0 (U = 0
at y = 0).  Every built-in data family has u = e^{-y} + perturbation with
a perturbation that vanishes at the wall, so U(0) = 1 and the wall is a
slip wall.

The -mu e^{-y} background forcing is discretized as -mu * D_y^2(e^{-y})
(well-balanced), so the equilibrium is steady to round-off.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Field, GridSpec, NonFiniteError
from .norms import weighted_linf
from .operators import _d2y_coeffs, _frozen, _stencil, dy
from .pde import DensityFloorError, Physics, TimeTower, exp_minus_y, pde_rhs
from .state import State, derive_secondary, initial_state

_SCHEMES = ("imex-be", "imex-cn")


class SolverError(RuntimeError):
    """Integration aborted (monitor breach or divergence)."""


@dataclass(frozen=True)
class SolverConfig(Physics):
    """Physical parameters (mu, kappa, eps, declared on Physics), time-stepping
    controls and monitor constants; run() and the diagnostics of its
    Trajectory read the parameters from here, never from a State."""

    dt: float = 1e-3
    t_end: float = 0.1
    scheme: str = "imex-cn"
    cfl_safety: float = 0.9
    delta0: float = 0.25
    l: float = 2.0

    def __post_init__(self):
        super().__post_init__()
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        # written so that a NaN fails every comparison and is refused
        if not (0 < self.dt < math.inf and 0 < self.t_end < math.inf):
            raise ValueError("dt and t_end must be finite and positive")
        if not 0 < self.cfl_safety <= 1:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if not 0 < self.delta0 < math.inf:
            raise ValueError("delta0 must be finite and positive")
        if not 1 <= self.l < math.inf:
            raise ValueError("l must be finite and at least 1")

    @property
    def n_steps(self) -> int:
        """Nominal steps from 0 to t_end: round(t_end / dt), at least 1."""
        return max(1, int(round(self.t_end / self.dt)))

    def check_stride(self, output_stride: int) -> None:
        """Raise ValueError unless storing every output_stride-th state keeps
        the stored states evenly spaced: n_steps must be a multiple of the
        stride, or fewer than it (only the two ends are stored).  With 5
        steps at stride 2 the final state would be stored off-stride."""
        n = self.n_steps
        if output_stride < 1:
            raise ValueError(f"output_stride must be at least 1, got {output_stride}")
        if n > output_stride and n % output_stride:
            raise ValueError(
                f"t_end / dt = {n} steps is not a multiple of output_stride = "
                f"{output_stride}: the final state would be stored off-stride"
            )


@dataclass(frozen=True)
class MonitorStatus:
    """Runtime a priori conditions the local theory requires."""

    h_floor: float
    rho_sup: float
    shear_sup: float
    rho_band_ok: bool
    breached: bool
    delta: float
    source_flag: bool = False


def monitor(state: State, delta0: float, l: float, source_flag: bool = False) -> MonitorStatus:
    """Evaluate the runtime conditions with delta = delta0 / 2:

    h + 1 >= delta, ||rho_shift||_{L^inf_0} <= (2l-1) delta^2 / 2, and
    ||d_y(u - e^{-y})||_{L^inf_1} <= 1/delta; also the density band
    1/2 <= rho <= 3/2."""
    delta = delta0 / 2.0
    grid = state.grid
    E = exp_minus_y(grid)
    h_floor = float((state.h_shift.values + 1.0).min())
    rho_sup = weighted_linf(state.rho_shift, 0.0)
    shear = Field(dy(state.u_shift).values + E, grid)
    shear_sup = weighted_linf(shear, 1.0)
    rho_tot = state.rho_total
    band_ok = bool(rho_tot.min() >= 0.5 and rho_tot.max() <= 1.5)
    breached = (
        h_floor < delta
        or rho_sup > (2.0 * l - 1.0) * delta**2 / 2.0
        or shear_sup > 1.0 / delta
    )
    return MonitorStatus(
        h_floor=h_floor,
        rho_sup=rho_sup,
        shear_sup=shear_sup,
        rho_band_ok=band_ok,
        breached=bool(breached),
        delta=delta,
        source_flag=source_flag,
    )


@dataclass(frozen=True)
class MonitorSummary:
    """The monitors of every step of a run, not only the stored ones: the
    least h_floor, the largest rho_sup and shear_sup, whether the density
    stayed in its band at every step, and whether any step raised the
    source flag.  The defaults summarise no step."""

    h_floor: float = math.inf
    rho_sup: float = 0.0
    shear_sup: float = 0.0
    rho_band_ok: bool = True
    source_flag: bool = False

    def add(self, status: MonitorStatus) -> MonitorSummary:
        """This summary with one more step's status."""
        return MonitorSummary(
            min(self.h_floor, status.h_floor),
            max(self.rho_sup, status.rho_sup),
            max(self.shear_sup, status.shear_sup),
            self.rho_band_ok and status.rho_band_ok,
            self.source_flag or status.source_flag,
        )


@dataclass
class Trajectory:
    """Output of run(): stored states with monitor history, and the run's
    config, source bundle and forcing (None when absent), which the
    diagnostics of the trajectory read.  every_step summarises the
    monitors of every state run() reached, stored or not; it is None for a
    trajectory assembled by hand."""

    states: list
    monitors: list
    config: SolverConfig
    bundle: object = None
    forcing: object = None
    breached: bool = False
    every_step: MonitorSummary | None = None

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.states])


# ---------------------------------------------------------------------------
# Tridiagonal machinery
# ---------------------------------------------------------------------------


def _fold(a, bottom=None, out=None):
    """The rows of a (along the first axis) in the folded layout: slot (j, 0)
    holds row j and slot (j, 1) row n - 1 - j, for j < ceil(n / 2); for odd
    n the middle row sits in slot (-1, 0) and slot (-1, 1) is zero.  With
    bottom given, slot (j, 1) holds row n - 1 - j of bottom instead."""
    n = len(a)
    m = (n + 1) // 2
    bottom = a if bottom is None else bottom
    if out is None:
        out = np.empty((m, 2) + np.broadcast_shapes(a.shape, bottom.shape)[1:])
    out[:, 0] = a[:m]
    out[: n - m, 1] = bottom[::-1][: n - m]
    if n % 2:
        out[-1, 1] = 0.0
    return out


def _unfold(f, n: int, out=None):
    """Rows 0 .. n-1 of the folded array f, along the first axis: the inverse
    of _fold, filled into out when given."""
    m = (n + 1) // 2
    if out is None:
        out = np.empty((n,) + f.shape[2:])
    out[:m] = f[:, 0]
    out[m:] = f[: n - m, 1][::-1]
    return out


def _eliminate(lo, cp, piv, n: int):
    """Matrix half of the two-ended Thomas elimination, in place.

    For the systems lo[j] w[j-1] + di[j] w[j] + up[j] w[j+1] = rhs[j] of
    n >= 2 rows (lo[0] and up[-1] ignored), lo, cp and piv hold the folded
    rows _fold(lo, up), _fold(up, lo) and _fold(di) on entry, and the
    factors thomas_batched sweeps with on exit: piv[0] = di[0],
    piv[j] = di[j] - lo[j] cp[j-1] and cp[j] = up[j] / piv[j] per slot.
    The last slot joins the chains: for even n its pivots carry the
    determinant 1 - cp[-1, 0] cp[-1, 1] of the two middle rows; for odd n
    both are the middle row's (slot (-1, 0) on entry), eliminated from
    both sides, with cp = -1.  The arrays share one shape, with at least
    one trailing axis."""
    c, p, l = list(cp), list(piv), list(lo)
    tmp = np.empty(p[0].shape)
    mul, sub, div = np.multiply, np.subtract, np.divide
    div(c[0], p[0], c[0])
    last = len(p) - n % 2
    for l_j, c_prev, c_j, p_j in zip(l[1:last], c, c[1:last], p[1:last]):
        sub(p_j, mul(l_j, c_prev, tmp), p_j)
        div(c_j, p_j, c_j)
    if n % 2:
        # the middle row: its up entry acts, in the sweep's last forward
        # step, on the bottom chain's d, beside the zero padding slot
        mid, t = p[-1][0], tmp[0]
        l[-1][1] = c[-1][0]
        sub(mid, mul(l[-1][0], c[-2][0], t), mid)
        sub(mid, mul(c[-1][0], c[-2][1], t), mid)
        p[-1][1] = mid
        c[-1][...] = -1.0
    else:
        p[-1] *= 1.0 - c[-1][0] * c[-1][1]


def thomas_batched(lo, cp, piv, rhs, out=None):
    """Right-hand-side sweep of the two-ended Thomas elimination, with the
    folded factors (lo, cp, piv) of _eliminate, on a right-hand side in
    _fold's layout (for odd n its slot (-1, 1) is zero); the solution comes
    back folded.  Forward, both chains run toward the middle; the last slot
    joins them, x[-1] = d[-1] - cp[-1] d[-1, ::-1], and back substitution
    runs both halves outward.  The matrix arrays broadcast against rhs over
    the trailing axes (at least one).  out may be rhs itself."""
    dp = np.empty(np.broadcast_shapes(cp.shape, rhs.shape)) if out is None else out
    d = list(dp)
    tmp = np.empty(dp.shape[1:])
    mul, sub, div = np.multiply, np.subtract, np.divide
    div(rhs[0], piv[0], d[0])
    for lo_j, piv_j, rhs_j, d_prev, d_j in zip(lo[1:], piv[1:], rhs[1:], d, d[1:]):
        sub(rhs_j, mul(lo_j, d_prev, tmp), d_j)
        div(d_j, piv_j, d_j)
    sub(d[-1], mul(cp[-1], d[-1][::-1], tmp), d[-1])
    for cp_j, d_j, d_next in zip(cp[-2::-1], d[-2::-1], d[::-1]):
        sub(d_j, mul(cp_j, d_next, tmp), d_j)
    return dp


def periodic_thomas_batched(lo, cp, piv, seed, n: int):
    """Matrix half of periodic tridiagonal systems of n rows, in place: the
    Sherman-Morrison correction of the open chain.  lo, cp and piv hold the
    folded rows as _eliminate takes them, with the corners lo[0] and up[-1]
    in the slots (0, 0) and (0, 1) of lo, and are factored there.  seed
    receives the folded right-hand side whose chain solution is the
    correction vector q.  Returns gamma = -di[0] for _sherman_morrison."""
    gamma = -piv[0, 0]
    piv[0, 0] -= gamma
    piv[0, 1] -= lo[0, 0] * lo[0, 1] / gamma
    seed[...] = 0.0
    seed[0] = gamma, lo[0, 1]
    _eliminate(lo, cp, piv, n)
    return gamma


def _sherman_morrison(y, q, lo0, gamma, tmp):
    """The periodic solutions, in place in y, from the folded chain solutions
    y and q (of the seed); lo0 is the corner lo[0], tmp scratch."""
    num = y[0, 0] + lo0 * y[0, 1] / gamma
    den = 1.0 + q[0, 0] + lo0 * q[0, 1] / gamma
    np.multiply(num / den, q, tmp)
    y -= tmp


@lru_cache(maxsize=16)
def _periodic_factors(n: int, c: float):
    """Read-only folded lo, cp, piv, Sherman-Morrison vector q and gamma of
    the constant periodic system (1 + 2c) w[i] - c (w[i-1] + w[i+1]) of n
    rows, as (ceil(n / 2), 2, 1) arrays (gamma (1,))."""
    lo, cp, piv, q = np.full((4, (n + 1) // 2, 2, 1), -c)
    piv[...] = 1.0 + 2.0 * c
    gamma = periodic_thomas_batched(lo, cp, piv, q, n)
    return _frozen(lo, cp, piv, thomas_batched(lo, cp, piv, q, out=q), gamma)


# ---------------------------------------------------------------------------
# Directional implicit solves
# ---------------------------------------------------------------------------


def _solve_x_cn(w, coeff, step: float, dx_: float):
    """Crank-Nicolson step of d_t w = coeff d_x^2 w, periodic in x (axis 0),
    for the (rho, u, h) arrays w, with scalar coefficients for rho and h
    (eps) and an (nx, ny) one for u (eps / rho), by the three-point stencil
    in the folded layout.  Each field comes back C-contiguous."""
    a = 0.5 * step / dx_**2
    n, m = w[0].shape
    half = (n + 1) // 2
    rho_f, h_f = (_periodic_factors(n, a * c) for c in (coeff[0], coeff[2]))
    # one block: right-hand sides of rho, u, h and u's seed, and their lo,
    # cp and piv; cp and piv hold folded w, then u's rows, until filled
    unit = half * 2 * m
    out = tuple(np.empty((n, m)) for _ in range(3))
    b, lo, cp, piv = block = np.empty((4, half, 2, 4, m))
    # w folded, with ghost slots: the periodic neighbours of rows 0 and n-1
    # (slot 0 reversed) and of the middle rows; for odd n the middle row
    # also fills the padding slot, the bottom neighbour of row n // 2 + 1
    p = block[2:].reshape(-1)[: 3 * unit + 12 * m].reshape(half + 2, 2, 3, m)
    for c, f in enumerate(w):
        _fold(f, out=p[1:-1, :, c])
    p[0] = p[1, ::-1]
    if n % 2:
        p[-2, 1] = p[-2, 0]
    p[-1] = p[-2 - n % 2, ::-1]
    wm, ws, wp = p[:-2], p[1:-1], p[2:]
    # lap = (w[i+1] - 2 w[i]) + w[i-1] in the top chain; the bottom chain
    # reads its neighbours in the other order
    lap = b[:, :, :3]
    np.multiply(2.0, ws, out=lap)
    np.subtract(wp, lap, out=lap)
    lap += wm
    # the folded lo = -(a coeff); rho and h are one group on a shared
    # system, else one each
    groups = [(slice(0, 3, 2), rho_f)]
    if h_f is not rho_f:
        groups = [(slice(0, 1), rho_f), (slice(2, 3), h_f)]
    for g, f in groups:
        lo[:, :, g] = f[0][:, :, None]
    _fold(coeff[1], out=lo[:, :, 1])
    lo[:, :, 1] *= a
    np.negative(lo[:, :, 1], out=lo[:, :, 1])
    # rhs = w + (a coeff) lap
    lap *= lo[:, :, :3]
    np.subtract(ws, lap, out=lap)
    if n % 2:
        b[-1, 1] = 0.0
    # u's rows -(a coeff), 1 + 2 (a coeff), -(a coeff), where w was
    ul, uc, ud = cp.reshape(-1)[: 3 * unit].reshape(3, half, 2, m)
    ul[...] = uc[...] = lo[:, :, 1]
    np.multiply(-2.0, ul, out=ud)
    ud += 1.0
    gamma = periodic_thomas_batched(ul, uc, ud, b[:, :, 3], n)
    lo[:, :, 1::2], piv[:, :, 1::2] = ul[:, :, None], ud[:, :, None]
    cp[:, :, 1::2] = uc[:, :, None]  # uc lies in cp: numpy copies it first
    for g, f in groups:
        cp[:, :, g], piv[:, :, g] = f[1][:, :, None], f[2][:, :, None]
    thomas_batched(lo, cp, piv, b, out=b)
    for g, f in groups:  # cp is free: scratch for the corrections
        _sherman_morrison(b[:, :, g], f[3][:, :, None], f[0][0, 0], f[4], cp[:, :, g])
    _sherman_morrison(b[:, :, 1], b[:, :, 3], lo[0, 0, 1], gamma, cp[:, :, 1])
    for c, f in enumerate(out):
        _unfold(b[:, :, c], n, f)
    return out


# Wall closure of the y-systems, in (rho, u, h) order.
_WALL_BCS = ("neumann", "dirichlet", "neumann")


@lru_cache(maxsize=16)
def _folded_dyy(grid: GridSpec):
    """Read-only folded weights (lo, di, up), (ceil(ny / 2), 2, 1) each, of
    D_y^2's interior rows, lo and up negated and swapped in the bottom chain
    as _eliminate takes them; 0 on the wall and top rows."""
    lo2, di2, up2, _, _ = _d2y_coeffs(grid)
    lo, di, up = np.zeros((3, grid.ny, 1))
    lo[1:-1, 0], di[1:-1, 0], up[1:-1, 0] = -lo2, di2, -up2
    return _frozen(_fold(lo, up), _fold(di), _fold(up, lo))


def _y_rows(grid: GridSpec, wall_bc: str, lo, cp, piv):
    """Rows of (I - ac D_y^2), y on the first axis, folded as _eliminate
    takes them, written into lo, cp and piv; lo holds the folded ac on
    entry.  The wall row (j=0) is the mirror-ghost second-order closure for
    'neumann', an identity row for 'dirichlet'; the top row is identity."""
    wlo, wdi, wup = _folded_dyy(grid)
    np.multiply(lo, wdi, out=piv)
    np.subtract(1.0, piv, out=piv)
    np.multiply(lo, wup, out=cp)
    if wall_bc == "neumann":
        h1 = grid.y[1] - grid.y[0]
        piv[0, 0] = 1.0 + lo[0, 0] * 2.0 / h1**2
        cp[0, 0] = -lo[0, 0] * 2.0 / h1**2
    lo *= wlo


@lru_cache(maxsize=16)
def _y_factors(grid: GridSpec, ac: float, wall_bc: str):
    """Read-only folded lo, cp and piv of the constant system I - ac D_y^2."""
    lo, cp, piv = np.full((3, (grid.ny + 1) // 2, 2, 1), ac)
    _y_rows(grid, wall_bc, lo, cp, piv)
    _eliminate(lo, cp, piv, grid.ny)
    return _frozen(lo, cp, piv)


def _apply_dyy(grid: GridSpec, w: np.ndarray, wall_bc: str) -> np.ndarray:
    """Discrete D_y^2 w consistent with _y_rows: the interior is d2y's
    three-point stencil (operators._stencil, one pass over the flat
    buffer); the top row is zeroed, and so is the wall row for
    'dirichlet', while 'neumann' uses the mirror-ghost closure."""
    out = _stencil(w, grid, 2)
    if wall_bc == "neumann":
        h1 = grid.y[1] - grid.y[0]
        out[:, 0] = 2.0 * (w[:, 1] - w[:, 0]) / h1**2
    else:
        out[:, 0] = 0.0
    out[:, -1] = 0.0
    return out


def _solve_y_implicit(grid: GridSpec, coeff, a: float, rhs, traces: dict):
    """Solve (I - a coeff D_y^2) w = rhs for (rho, u, h) in one sweep.

    coeff and rhs are (rho, u, h) triples: scalars (eps, kappa) or an
    (nx, ny) array (mu / rho) and (nx, ny) arrays, folded as (ceil(ny / 2),
    2, 3, nx) (see the module docstring).  Walls follow _WALL_BCS with u
    clamped to traces['u_wall']; every top row is clamped to its top
    trace.  Each field comes back as its own C-contiguous array, which
    Field adopts without a copy."""
    ny, nx = grid.ny, grid.nx
    out = tuple(np.empty((nx, ny)) for _ in range(3))
    # one block: right-hand sides, lo, cp and piv, and a varying matrix's rows
    b, lo, cp, piv, rows = np.empty((5, (ny + 1) // 2, 2, 3, nx))
    rows = rows.reshape(3, (ny + 1) // 2, 2, nx)
    for c, f in enumerate(rhs):
        _fold(f.T, out=b[:, :, c])
    b[0, 0, 1] = traces["u_wall"]
    b[0, 1] = (traces["rho_top"], traces["u_top"], traces["h_top"])
    for c, (k, wall_bc) in enumerate(zip(coeff, _WALL_BCS)):
        if np.ndim(k) == 0:
            lo[:, :, c], cp[:, :, c], piv[:, :, c] = _y_factors(grid, a * k, wall_bc)
        else:
            _fold(k.T, out=rows[0])
            rows[0] *= a
            _y_rows(grid, wall_bc, *rows)
            _eliminate(*rows, ny)
            lo[:, :, c], cp[:, :, c], piv[:, :, c] = rows
    thomas_batched(lo, cp, piv, b, out=b)
    for c, f in enumerate(out):
        _unfold(b[:, :, c], ny, f.T)
    return out


# ---------------------------------------------------------------------------
# Explicit right-hand sides (everything except implicit diffusion)
# ---------------------------------------------------------------------------


def _explicit_terms(tower: TimeTower):
    """Explicit tendencies N for (rho, u, h) of a tower's level 0: the
    non-diffusive right-hand sides of TimeTower.explicit with the eps and
    mu of its physics; the u tendency is already divided by the density.

    The flag is raised when the source divergence eps |dx r1 + dy r2|
    exceeds 1% of the density transport |U dx r| + |v dy r| (max norms);
    without sources it is down."""
    n_rho, n_h, B = tower.explicit(0, (0.0, 0.0, 0.0))
    L0 = tower.level(0)
    src = tower.provided("sources", 0)
    if src is None:
        return n_rho, B / tower.rho, n_h, False
    rx, ry = tower.deriv("x", "rho", 0).values, tower.deriv("y", "rho", 0).values
    div_src = src[0] + src[1]
    transport_scale = float(np.max(np.abs(tower.U(0) * rx)) + np.max(np.abs(L0["v"] * ry)))
    source_scale = tower.physics.eps * float(np.max(np.abs(div_src)))
    return n_rho, B / tower.rho, n_h, bool(source_scale > 0.01 * transport_scale)


def _cfl_substeps(state: State, cfg: SolverConfig) -> int:
    """Deterministic number of substeps so each satisfies the advective CFL."""
    grid = state.grid
    E = exp_minus_y(grid)
    u_max = float(np.max(np.abs(state.u_shift.values + 1.0 - E)))
    v_max = float(np.max(np.abs(derive_secondary(state, "v").values)))
    limits = []
    if u_max > 0:
        limits.append(grid.dx / u_max)
    if v_max > 0:
        limits.append(grid.dy_min / v_max)
    if not limits:
        return 1
    dt_cfl = cfg.cfl_safety * min(limits)
    return max(1, int(math.ceil(cfg.dt / dt_cfl)))


def step(
    state: State,
    cfg: SolverConfig,
    bundle=None,
    forcing=None,
    traces: dict | None = None,
    status: MonitorStatus | None = None,
) -> tuple[State, MonitorStatus]:
    """Advance one nominal dt (internally subdivided to satisfy the CFL
    rule), returning the new state and its monitor status.

    The substeps pass (rho, u, h) arrays; the new State is built once, at
    the end, by initial_state.  The CFL rule builds the v of the incoming
    state by derive_secondary, the only derived field a step reads outside
    its stages' towers.  traces holds the Dirichlet clamp values per
    field; when omitted they are taken from the incoming state.  status is
    the incoming state's monitor status, which run() already holds; when
    omitted the incoming state is monitored here.  Either way a breached
    status raises SolverError before the step.  bundle and forcing may be
    None (absent).

    Finiteness is checked once, at the end of the step, on the three new
    arrays: a NaN or an infinity produced by any stage of any substep is
    carried there (numpy's overflow and invalid warnings are off inside
    the step) and raises SolverError ("solver diverged ...")."""
    if traces is None:
        traces = make_traces(state)
    mon = monitor(state, cfg.delta0, cfg.l) if status is None else status
    if mon.breached:
        raise SolverError(f"monitor breached before step: {mon}")
    grid = state.grid
    n_sub = _cfl_substeps(state, cfg)
    k = cfg.dt / n_sub
    w = (state.rho_shift.values, state.u_shift.values, state.h_shift.values)
    t = state.time
    src_flag = False
    # a diverging step overflows on its way to the non-finite arrays that
    # end it; the checked Fields built from them report it, not numpy's
    # warnings
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for _ in range(n_sub):
                w, flag = _substep(grid, w, t, cfg, bundle, forcing, k, traces)
                t += k
                src_flag = src_flag or flag
            cur = initial_state(grid, *(Field(f, grid) for f in w), time=t)
            mon = monitor(cur, cfg.delta0, cfg.l, source_flag=src_flag)
    except NonFiniteError as exc:
        raise SolverError(f"solver diverged at t = {t:.6g}: {exc}") from exc
    if mon.breached:
        raise SolverError(f"monitor breached at t = {cur.time:.6g}: {mon}")
    return cur, mon


def make_traces(state: State) -> dict:
    """Dirichlet clamp values captured from a state (normally the initial one)."""
    return {
        "rho_top": state.rho_shift.values[:, -1].copy(),
        "u_wall": state.u_shift.values[:, 0].copy(),
        "u_top": state.u_shift.values[:, -1].copy(),
        "h_top": state.h_shift.values[:, -1].copy(),
    }


def _substep(grid, w, t, cfg, bundle, forcing, k, traces):
    """One substep of length k from the (rho, u, h) arrays w at time t;
    returns the new arrays and the source flag."""
    eps, mu, kappa = cfg.eps, cfg.mu, cfg.kappa
    cn = cfg.scheme == "imex-cn"
    # imex-cn: x half-steps around theta = 1/2 y stages; imex-be: one x step
    # and theta = 1.  a = theta * k is also the x step.
    a = k / 2.0 if cn else k

    def x_half(fields):
        if eps == 0.0:
            return fields
        rho = fields[0] + 1.0
        return _solve_x_cn(fields, (eps, np.divide(eps, rho, out=rho), eps), a, grid.dx)

    def y_stage(lagged, time):
        """Implicit y stage from w; the explicit terms and u's viscosity
        mu / rho are evaluated at the fields lagged."""
        stage = State(*(Field._computed(a, grid) for a in lagged), time=time)
        tower = TimeTower(stage, bundle, forcing, max_depth=0, physics=cfg)
        *rhs, flag = _explicit_terms(tower)
        coeff = (eps, mu / tower.rho, kappa)
        del stage, tower  # freed before the solve's block
        # b + k n (+ (a c) D_y^2 w for imex-cn), in place on the fresh n
        for r, b in zip(rhs, w):
            r *= k
            r += b
        if cn:
            for r, c, d in zip(rhs, coeff, w_dyy):
                r += a * c * d
        return _solve_y_implicit(grid, coeff, a, rhs, traces), flag

    w = x_half(w)
    # both imex-cn y stages start from w: its D_y^2 is taken once
    w_dyy = [_apply_dyy(grid, b, bc) for b, bc in zip(w, _WALL_BCS)] if cn else None
    new, flag = y_stage(w, t)
    if cn:
        for b, s in zip(w, new):  # the midpoint 0.5 (w + new), in place
            np.add(b, s, out=s)
            s *= 0.5
        new, flag2 = y_stage(new, t + k / 2.0)
        new = x_half(new)
        flag = flag or flag2
    return new, flag


def run(
    initial: State,
    cfg: SolverConfig,
    bundle=None,
    forcing=None,
    output_stride: int = 1,
) -> Trajectory:
    """Integrate to t_end (or monitor breach), storing every output_stride-th
    state and summarising the monitors of every step in every_step.  The
    initial state is always stored; on breach (a SolverError, or a
    DensityFloorError from a substep whose density fell below the floor)
    the trajectory is returned with breached = True and ends at the
    last healthy state.  bundle and forcing may be None (absent).  A stride
    that would store the final state off-stride (SolverConfig.check_stride)
    raises ValueError before any step."""
    cfg.check_stride(output_stride)
    traces = make_traces(initial)
    n_steps = cfg.n_steps
    states = [initial]
    monitors = [monitor(initial, cfg.delta0, cfg.l)]
    traj = Trajectory(
        states=states,
        monitors=monitors,
        config=cfg,
        bundle=bundle,
        forcing=forcing,
        every_step=MonitorSummary().add(monitors[0]),
    )
    if monitors[0].breached:
        traj.breached = True
        return traj
    cur, mon = initial, monitors[0]
    for n in range(1, n_steps + 1):
        try:
            cur, mon = step(cur, cfg, bundle, forcing, traces, mon)
        except (SolverError, DensityFloorError):
            traj.breached = True
            return traj
        traj.every_step = traj.every_step.add(mon)
        if n % output_stride == 0 or n == n_steps:
            states.append(cur)
            monitors.append(mon)
    return traj


def pde_residual(state: State, manufactured):
    """Residual of the manufactured solution in the discrete spatial
    operator: (discrete tendency with exact forcing) - (exact tendency).

    manufactured must provide state_at(grid, t), exact time derivatives
    and its physics mu, kappa, eps (see manufactured.ManufacturedSolution);
    state should be the manufactured state sampled at its time."""
    manufactured.check_boundary_compatibility(state.grid)
    dr, du, dh = pde_rhs(state, forcing=manufactured, physics=manufactured)
    er, eu, eh = manufactured.exact_time_derivatives(state.grid, state.time)
    return dr - er, du - eu, dh - eh
