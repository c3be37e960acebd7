"""Semi-implicit time integration of the shifted regularized system.

Scheme: all second-derivative terms are implicit (periodic in x, banded
tridiagonal in y per x-line); advection, coupling, sources and forcing are
explicit.  imex-cn is second order: a Strang-symmetrized Crank-Nicolson
x-diffusion split around a two-stage midpoint predictor/corrector in y.
imex-be is the first-order single-stage variant.

Runs step in lockstep: step() advances a batch of Runs that share the
grid and the scheme, and run() is the batch of one of run_lockstep.  Each
run keeps its own config, traces, sources, forcing, CFL substep count,
monitors and end (a run that breaches, hits the density floor or goes
non-finite leaves the batch at its last healthy state), and its explicit
terms come from its own stage tower.  What the runs share is every
implicit solve: each stacks the active runs after the field axis of its
one block (below), so all runs' u rows take one elimination and all
right-hand sides one sweep, and each run's result is bitwise its result
alone.  A run at eps = 0 has no x diffusion and stays out of the x steps.

Stages pass (rho, u, h) arrays, and a step builds one checked State per
run, at its end: finiteness is checked there, once per step.  Every Field
built inside the step (operator results, a stage's State, tower levels, v
and g) is computed from checked data and not scanned, so a NaN or an
infinity from any stage ends its run with SolverError ("... diverged
...") at the end of its step.  The new State is its fields and time; the
next step's CFL rule builds its v by derive_secondary.  Each y stage wraps
a run's lagged arrays in a State and builds the level-0 TimeTower on it
(v, g, dx u and dx h from state.closure, and rho = r + 1 once):
TimeTower.explicit, the kernel the time-derivative tower differentiates,
gives the explicit terms, and the tower's rho gives u's viscosity
mu / rho; the stage frees both before its solve.  Both imex-cn y stages
start from the same fields, so a substep takes their explicit D_y^2
(_apply_dyy) once.

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
after the fold axis by field (rho, u, h and, in x, u's Sherman-Morrison
seed) and then by run, each run's columns beside the next:
(ceil(n/2), 2, fields, runs * m).  It runs one sweep and unfolds each
run's fields once, into arrays allocated before the block: the block is
the stage's last large allocation and first free, so glibc reuses one
top-of-heap region instead of trimming and refaulting it.  The constant
rho and h systems (eps in x; eps, kappa in y) are cached read-only per
grid, step and coefficient; in x, rho and h share one system when their
scalars are equal, and one Sherman-Morrison update serves every field.
Neighbouring runs that share a scalar (a system, a step) take one
operation over their columns together.  u's rows are built folded from
its folded coefficient (in y by _y_rows, from cached folded D_y^2
weights), eliminated in a contiguous part of the block and copied into
the stacked factors: strided slabs double the cost of each ufunc call in
the loop, and factors broadcast over the stack make the sweep half as
slow again.

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
from typing import NamedTuple

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


def _spans(keys, width: int):
    """(key, columns) for each stretch of consecutive runs with equal keys,
    where run r owns the columns r * width to (r + 1) * width of a batch's
    block: runs that share a scalar take one operation."""
    spans = []
    for r, key in enumerate(keys):
        if spans and spans[-1][0] == key:
            spans[-1] = (key, slice(spans[-1][1].start, (r + 1) * width))
        else:
            spans.append((key, slice(r * width, (r + 1) * width)))
    return spans


def _solve_x_cn(ws, coeffs, steps, dx_):
    """Crank-Nicolson steps of d_t w = coeff d_x^2 w, periodic in x (axis 0),
    for a batch of runs, by the three-point stencil in the folded layout.
    Run r gives its (rho, u, h) arrays ws[r], its coefficients coeffs[r]
    (scalars for rho and h, eps, and an (nx, ny) array for u, eps / rho)
    and its step steps[r].  The runs sit side by side after the field axis
    of the one block, so all u rows take one elimination, every right-hand
    side one sweep and every field one Sherman-Morrison update.  Returns
    each run's fields, each C-contiguous."""
    n, m = ws[0][0].shape
    half = (n + 1) // 2
    a = [0.5 * s / dx_**2 for s in steps]
    # the cached rho and h systems of each stretch of runs with equal
    # scalars: rho and h one group on a shared system, else one each
    groups = []
    for (a_rho, a_h), col in _spans([(ar * c[0], ar * c[2]) for ar, c in zip(a, coeffs)], m):
        rho_f, h_f = _periodic_factors(n, a_rho), _periodic_factors(n, a_h)
        if h_f is rho_f:
            groups.append((slice(0, 3, 2), rho_f, col))
        else:
            groups += [(slice(0, 1), rho_f, col), (slice(2, 3), h_f, col)]
    # one block: right-hand sides of rho, u, h and u's seed, and their lo,
    # cp and piv, each run's m columns side by side; cp and piv hold folded
    # w, then u's rows, until filled
    width = len(ws) * m
    unit = half * 2 * width
    out = [tuple(np.empty((n, m)) for _ in range(3)) for _ in ws]
    b, lo, cp, piv = block = np.empty((4, half, 2, 4, width))
    # w folded, with ghost slots: the periodic neighbours of rows 0 and n-1
    # (slot 0 reversed) and of the middle rows; for odd n the middle row
    # also fills the padding slot, the bottom neighbour of row n // 2 + 1
    p = block[2:].reshape(-1)[: 3 * unit + 12 * width].reshape(half + 2, 2, 3, width)
    for r, w in enumerate(ws):
        for c, f in enumerate(w):
            _fold(f, out=p[1:-1, :, c, r * m : (r + 1) * m])
    p[0] = p[1, ::-1]
    if n % 2:
        p[-2, 1] = p[-2, 0]
    p[-1] = p[-2 - n % 2, ::-1]
    wm, wc, wp = p[:-2], p[1:-1], p[2:]
    # lap = (w[i+1] - 2 w[i]) + w[i-1] in the top chain; the bottom chain
    # reads its neighbours in the other order
    lap = b[:, :, :3]
    np.multiply(2.0, wc, out=lap)
    np.subtract(wp, lap, out=lap)
    lap += wm
    # the folded lo = -(a coeff)
    for g, f, col in groups:
        lo[:, :, g, col] = f[0][:, :, None]
    for r, c in enumerate(coeffs):
        _fold(c[1], out=lo[:, :, 1, r * m : (r + 1) * m])
    for ar, col in _spans(a, m):
        lo[:, :, 1, col] *= ar
    np.negative(lo[:, :, 1], out=lo[:, :, 1])
    # rhs = w + (a coeff) lap
    lap *= lo[:, :, :3]
    np.subtract(wc, lap, out=lap)
    if n % 2:
        b[-1, 1] = 0.0
    # u's rows -(a coeff), 1 + 2 (a coeff), -(a coeff), where w was
    ul, uc, ud = cp.reshape(-1)[: 3 * unit].reshape(3, half, 2, width)
    ul[...] = uc[...] = lo[:, :, 1]
    np.multiply(-2.0, ul, out=ud)
    ud += 1.0
    u_gamma = periodic_thomas_batched(ul, uc, ud, b[:, :, 3], n)
    lo[:, :, 1::2], piv[:, :, 1::2] = ul[:, :, None], ud[:, :, None]
    cp[:, :, 1::2] = uc[:, :, None]  # uc lies in cp: numpy copies it first
    for g, f, col in groups:
        cp[:, :, g, col], piv[:, :, g, col] = f[1][:, :, None], f[2][:, :, None]
    thomas_batched(lo, cp, piv, b, out=b)
    # one Sherman-Morrison update of every field: u's correction vector is
    # its seed's solution, rho's and h's the cached one.  cp, piv and lo's
    # seed slot are free now: q goes in cp, gamma in three rows of lo's
    # seed slot, and piv is the scratch
    q, gamma = cp[:, :, :3], lo[:3, 0, 3]
    q[:, :, 1], gamma[1] = b[:, :, 3], u_gamma
    for g, f, col in groups:
        q[:, :, g, col], gamma[g, col] = f[3][:, :, None], f[4]
    _sherman_morrison(b[:, :, :3], q, lo[0, 0, :3], gamma, piv[:, :, :3])
    for r, fields in enumerate(out):
        for c, f in enumerate(fields):
            _unfold(b[:, :, c, r * m : (r + 1) * m], n, f)
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


def _solve_y_implicit(grid: GridSpec, coeffs, a, rhs, traces):
    """Solve (I - a coeff D_y^2) w = rhs for (rho, u, h) of a batch of runs
    in one sweep.

    Run r gives its coefficients coeffs[r] (scalars eps and kappa for rho
    and h, an (nx, ny) array mu / rho for u), its a[r], its (rho, u, h)
    right-hand sides rhs[r], (nx, ny) arrays, and its traces[r].  They are
    folded as (ceil(ny / 2), 2, 3, runs * nx), each run's nx columns side
    by side after the field axis (see the module docstring), so all u rows
    take one elimination and every right-hand side one sweep.  Walls
    follow _WALL_BCS with u clamped to traces['u_wall']; every top row is
    clamped to its top trace.  Returns each run's fields, each its own
    C-contiguous array, which Field adopts without a copy."""
    ny, nx = grid.ny, grid.nx
    width = len(rhs) * nx
    out = [tuple(np.empty((nx, ny)) for _ in range(3)) for _ in rhs]
    # one block: right-hand sides, lo, cp and piv, and u's rows
    b, lo, cp, piv, rows = np.empty((5, (ny + 1) // 2, 2, 3, width))
    rows = rows.reshape(3, (ny + 1) // 2, 2, width)
    for r, (k, fields, tr) in enumerate(zip(coeffs, rhs, traces)):
        col = slice(r * nx, (r + 1) * nx)
        for c, f in enumerate(fields):
            _fold(f.T, out=b[:, :, c, col])
        b[0, 0, 1, col] = tr["u_wall"]
        b[0, 1, :, col] = (tr["rho_top"], tr["u_top"], tr["h_top"])
        _fold(k[1].T, out=rows[0][..., col])
    for c in (0, 2):
        for ac, col in _spans([ar * k[c] for ar, k in zip(a, coeffs)], nx):
            lo[:, :, c, col], cp[:, :, c, col], piv[:, :, c, col] = _y_factors(
                grid, ac, _WALL_BCS[c]
            )
    for ar, col in _spans(a, nx):
        rows[0][..., col] *= ar
    _y_rows(grid, _WALL_BCS[1], *rows)
    _eliminate(*rows, ny)
    lo[:, :, 1], cp[:, :, 1], piv[:, :, 1] = rows
    thomas_batched(lo, cp, piv, b, out=b)
    for r, fields in enumerate(out):
        for c, f in enumerate(fields):
            _unfold(b[:, :, c, r * nx : (r + 1) * nx], ny, f.T)
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


class Run(NamedTuple):
    """One run's part of a lockstep step: its state, config, source bundle
    and forcing (None when absent), its Dirichlet traces (make_traces of
    its initial state) and the monitor status of its state."""

    state: State
    cfg: SolverConfig
    bundle: object
    forcing: object
    traces: dict
    status: MonitorStatus


class _Lane:
    """A run inside step(): its config, sources, forcing and traces, its
    substep count n_sub and length k = dt / n_sub, a = theta k, the
    implicit step of its stages, its arrays w at time t, the source flag
    its stages raised, and its outcome, None while it steps."""

    def __init__(self, r: Run):
        self.cfg, self.bundle, self.forcing, self.traces = r.cfg, r.bundle, r.forcing, r.traces
        self.w = (r.state.rho_shift.values, r.state.u_shift.values, r.state.h_shift.values)
        self.t, self.flag, self.dyy, self.outcome = r.state.time, False, None, None
        self.n_sub = 0
        if r.status.breached:
            self.outcome = SolverError(f"monitor breached before step: {r.status}")
            return
        self.n_sub = _cfl_substeps(r.state, self.cfg)
        self.k = self.cfg.dt / self.n_sub
        # imex-cn: x half-steps around theta = 1/2 y stages; imex-be: one x
        # step and theta = 1.  a is also the x step.
        self.a = self.k / 2.0 if self.cfg.scheme == "imex-cn" else self.k


def _diverged(t: float, exc: NonFiniteError) -> SolverError:
    err = SolverError(f"solver diverged at t = {t:.6g}: {exc}")
    err.__cause__ = exc
    return err


def step(runs) -> list:
    """Advance each Run of a lockstep batch one nominal dt (internally
    subdivided to satisfy its CFL rule).  Returns per run its new state and
    monitor status, or the SolverError or DensityFloorError that ended it.

    Every implicit solve of a substep takes the runs at once, and nothing
    else is shared: each run steps bitwise as it would alone.  Substep s
    takes the runs with more than s substeps (k = dt / n_sub each).  The
    substeps pass (rho, u, h) arrays; a run's new State is built once, at
    the end, by initial_state.  The CFL rule builds the v of the incoming
    state by derive_secondary, the only derived field a step reads outside
    its stages' towers.  A run whose status is breached ends with a
    SolverError before the step.

    Finiteness is checked once, at the end of the step, on each run's
    three new arrays: a NaN or an infinity produced by any stage of any
    substep is carried there (numpy's overflow and invalid warnings are off
    inside the step) and ends the run with SolverError ("solver diverged
    ...").  A density below the floor in a stage's tower ends the run
    there, with the DensityFloorError.  Runs on another grid or scheme
    than the first raise ValueError before any step."""
    if len({(r.state.grid, r.cfg.scheme) for r in runs}) > 1:
        raise ValueError("lockstep runs must share the grid and the scheme")
    lanes = [_Lane(r) for r in runs]
    grid = runs[0].state.grid if runs else None
    # a diverging step overflows on its way to the non-finite arrays that
    # end it; the checked Fields built from them report it, not numpy's
    # warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for s in range(max((lane.n_sub for lane in lanes), default=0)):
            live = [lane for lane in lanes if lane.outcome is None and lane.n_sub > s]
            if live:
                _substep(grid, live)
        for lane in lanes:
            if lane.outcome is None:
                lane.outcome = _ended_step(grid, lane)
    return [lane.outcome for lane in lanes]


def _ended_step(grid: GridSpec, lane: _Lane):
    """A lane's new State, checked, and its monitor status; or the
    SolverError of a non-finite array or a breached monitor."""
    try:
        cur = initial_state(grid, *(Field(f, grid) for f in lane.w), time=lane.t)
        mon = monitor(cur, lane.cfg.delta0, lane.cfg.l, source_flag=lane.flag)
    except NonFiniteError as exc:
        return _diverged(lane.t, exc)
    if mon.breached:
        return SolverError(f"monitor breached at t = {cur.time:.6g}: {mon}")
    return cur, mon


def make_traces(state: State) -> dict:
    """Dirichlet clamp values captured from a state (normally the initial one)."""
    return {
        "rho_top": state.rho_shift.values[:, -1].copy(),
        "u_wall": state.u_shift.values[:, 0].copy(),
        "u_top": state.u_shift.values[:, -1].copy(),
        "h_top": state.h_shift.values[:, -1].copy(),
    }


def _x_half(grid: GridSpec, lanes, ws) -> list:
    """The x step of length a of each lane's arrays ws[i], for every lane
    with eps > 0, in one _solve_x_cn; a lane at eps = 0 has no x diffusion
    and keeps its arrays."""
    ws = list(ws)
    moved = [i for i, lane in enumerate(lanes) if lane.cfg.eps != 0.0]
    if moved:
        coeffs = []
        for i in moved:
            eps, rho = lanes[i].cfg.eps, ws[i][0] + 1.0
            coeffs.append((eps, np.divide(eps, rho, out=rho), eps))
        new = _solve_x_cn([ws[i] for i in moved], coeffs, [lanes[i].a for i in moved], grid.dx)
        for i, w in zip(moved, new):
            ws[i] = w
    return ws


def _y_stage(grid: GridSpec, lanes, lagged, times):
    """The implicit y stage of each lane from its w, in one
    _solve_y_implicit: the explicit terms and u's viscosity mu / rho are
    evaluated at the lane's arrays lagged, at its time, from the level-0
    TimeTower of their State.  Returns the lanes that passed the stage and
    their new arrays; a lane whose tower raises ends there."""
    kept, coeffs, rhs = [], [], []
    for lane, fields, time in zip(lanes, lagged, times):
        cfg = lane.cfg
        try:
            stage = State(*(Field._computed(f, grid) for f in fields), time=time)
            tower = TimeTower(stage, lane.bundle, lane.forcing, max_depth=0, physics=cfg)
            *r, flag = _explicit_terms(tower)
        except DensityFloorError as exc:
            lane.outcome = exc
            continue
        except NonFiniteError as exc:
            lane.outcome = _diverged(lane.t, exc)
            continue
        coeff = (cfg.eps, cfg.mu / tower.rho, cfg.kappa)
        del stage, tower  # freed before the solve's block
        # b + k n (+ (a c) D_y^2 w for imex-cn), in place on the fresh n
        for x, b in zip(r, lane.w):
            x *= lane.k
            x += b
        if lane.dyy is not None:
            for x, c, d in zip(r, coeff, lane.dyy):
                x += lane.a * c * d
        lane.flag = lane.flag or flag
        kept.append(lane)
        coeffs.append(coeff)
        rhs.append(r)
    if not kept:
        return kept, []
    traces = [lane.traces for lane in kept]
    return kept, _solve_y_implicit(grid, coeffs, [lane.a for lane in kept], rhs, traces)


def _midpoints(ws, new) -> None:
    """The midpoints 0.5 (w + s), in place in each lane's stage output s.
    A function of its own, so that no loop name holds them after the
    second y stage, which frees them."""
    for w, fields in zip(ws, new):
        for b, s in zip(w, fields):
            np.add(b, s, out=s)
            s *= 0.5


def _substep(grid: GridSpec, lanes) -> None:
    """One substep of each lane, in lockstep: its arrays w at time t become
    those at t + k, and its flag takes its stages' source flags.  Each
    implicit solve takes the lanes at once.  A lane's arrays of t and of
    its first x half-step live until the substep's end (held, lane.w):
    freed earlier, between the stages' blocks, they let glibc trim the
    heap top under each block and fault it in again, about 8,200 minor
    faults per 64x128 imex-cn run against 470.  The midpoints live until
    the second y stage ends (_midpoints), so the second x half-step's
    block does not sit on top of them."""
    cn = lanes[0].cfg.scheme == "imex-cn"
    held = [lane.w for lane in lanes]
    for lane, w in zip(lanes, _x_half(grid, lanes, held)):
        lane.w = w
    # both imex-cn y stages start from w: its D_y^2 is taken once
    if cn:
        for lane in lanes:
            lane.dyy = [_apply_dyy(grid, b, bc) for b, bc in zip(lane.w, _WALL_BCS)]
    lanes, new = _y_stage(grid, lanes, [lane.w for lane in lanes], [lane.t for lane in lanes])
    if cn:
        _midpoints([lane.w for lane in lanes], new)
        times = [lane.t + lane.k / 2.0 for lane in lanes]
        lanes, new = _y_stage(grid, lanes, new, times)
        new = _x_half(grid, lanes, new)
    for lane, fields in zip(lanes, new):
        lane.w = fields
        lane.t += lane.k
        lane.dyy = None


def run(
    initial: State,
    cfg: SolverConfig,
    bundle=None,
    forcing=None,
    output_stride: int = 1,
) -> Trajectory:
    """Integrate to t_end (or monitor breach), storing every output_stride-th
    state and summarising the monitors of every step in every_step: the
    batch of one of run_lockstep.  The initial state is always stored; on
    breach (a SolverError, or a DensityFloorError from a substep whose
    density fell below the floor) the trajectory is returned with
    breached = True and ends at the last healthy state.  bundle and
    forcing may be None (absent).  A stride that would store the final
    state off-stride (SolverConfig.check_stride) raises ValueError before
    any step."""
    return run_lockstep([(initial, cfg, bundle, forcing)], output_stride)[0]


def run_lockstep(jobs, output_stride: int) -> list[Trajectory]:
    """The Trajectory of run(initial, cfg, bundle, forcing, output_stride)
    for each (initial, cfg, bundle, forcing) job, in job order, with the
    runs stepping in lockstep: each nominal step is one step() of the runs
    still going, so their implicit solves share every sweep.  The jobs must
    share the grid, scheme, dt and step count (ValueError otherwise, as for
    an off-stride stride, before any step).  Each run keeps its own
    traces, monitors and end: one that breaches leaves the batch at its
    last healthy state, and every trajectory is bitwise the one run()
    gives alone."""
    shared = {(j[0].grid, j[1].scheme, j[1].dt, j[1].n_steps) for j in jobs}
    if len(shared) > 1:
        raise ValueError("lockstep runs must share the grid, scheme, dt and step count")
    for _, cfg, _, _ in jobs:
        cfg.check_stride(output_stride)
    trajs, runs = [], []
    for initial, cfg, bundle, forcing in jobs:
        traces = make_traces(initial)
        mon = monitor(initial, cfg.delta0, cfg.l)
        traj = Trajectory(
            states=[initial],
            monitors=[mon],
            config=cfg,
            bundle=bundle,
            forcing=forcing,
            breached=mon.breached,
            every_step=MonitorSummary().add(mon),
        )
        trajs.append(traj)
        runs.append(Run(initial, cfg, bundle, forcing, traces, mon))
    # runs[i] is replaced after each step: no name keeps a run's previous
    # state through the next step, whose peak memory it would raise
    live = [i for i, traj in enumerate(trajs) if not traj.breached]
    n_steps = jobs[0][1].n_steps if jobs else 0
    for n in range(1, n_steps + 1):
        if not live:
            break
        for i, outcome in zip(live, step([runs[i] for i in live])):
            traj = trajs[i]
            if isinstance(outcome, Exception):
                traj.breached = True
                continue
            cur, mon = outcome
            traj.every_step = traj.every_step.add(mon)
            if n % output_stride == 0 or n == n_steps:
                traj.states.append(cur)
                traj.monitors.append(mon)
            runs[i] = runs[i]._replace(state=cur, status=mon)
        live = [i for i in live if not trajs[i].breached]
    return trajs


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
