"""Semi-implicit time integration of the shifted regularized system.

Scheme: all second-derivative terms are implicit (periodic in x, banded
tridiagonal in y per x-line); advection, coupling, sources and forcing are
explicit.  imex-cn is second order: a Strang-symmetrized Crank-Nicolson
x-diffusion split around a two-stage midpoint predictor/corrector in y.
imex-be is the first-order single-stage variant.

Stages pass (rho, u, h) arrays, and a step builds one checked State, at
its end.  Finiteness is checked once per step, there: the three new arrays
are the step's checked Fields (grid.Field), while every Field built inside
the step (operator results, a stage's State, tower levels, v and g) is
computed from them and not scanned.  A NaN or an infinity that appears in
any stage propagates to the end of its step, where it raises SolverError
("... diverged ...").  The new State derives nothing: the next step's CFL
rule reads its v, which it builds then, and its g and psi are built only
if a diagnostic, a snapshot or a test reads them.  Each y stage wraps its
lagged arrays in a State of Field._computed Fields and builds the level-0
TimeTower on it, which takes v, g and dx u, dx h from state.closure (and
no psi) and forms rho = r + 1 once; its TimeTower.explicit, the kernel the
time-derivative tower differentiates, gives the explicit terms, and the
tower's rho gives u's viscosity mu / rho.  Both imex-cn y stages start
from the same fields, so a substep takes their explicit D_y^2 (_apply_dyy)
once.

x half-steps: every field's Crank-Nicolson x step is a periodic
tridiagonal solve along x, and rho, u, h and u's Sherman-Morrison seed
share one stacked sweep.  The constant rho and h steps could be one
product with a cached dense (I - c L)^{-1} (I + c L) each, which is
faster, but it is a different arithmetic: it moves u by about one ulp on
the wall row, and the Z_1^2 derivatives of the u_m residual, whose maximum
sits there, amplify that ulp past a 1e-8 relative output gate.

Tridiagonal layout: the kernels solve along the first axis, and eliminate
from both ends at once.  Rows j and n-1-j of every system are folded into
one contiguous (2, ...) slab j of a (ceil(n/2), 2, ...) array (_fold); for
odd n the middle row is alone in the last slab, beside a zero.  In the
same ufunc calls the top chain eliminates downward and the bottom chain
upward, with lo and up swapping roles in the bottom chain; the last slab
joins the chains (a 2x2 solve for even n, the middle row for odd n), and
back substitution runs both halves outward.  So every loop takes
ceil(n/2) numpy calls per operation, on slabs twice as wide, which cost
almost nothing extra.  The matrix arrays broadcast over the trailing
axes.  The elimination has two halves: tridiag_factor (or
periodic_thomas_batched) builds a matrix's folded forward factors and
pivots, and thomas_batched sweeps folded right-hand sides with them.  The
rho and h systems have constant coefficients (eps in x; eps and kappa in
y), so their factors are built once per run (per grid, step and
coefficient) and cached read-only; u's rows (eps / rho in x, mu / rho in
y) are factored at every stage.  Each implicit stage builds its
right-hand sides directly in the folded layout, stacked on the axis after
the fold — (ceil(nx/2), 2, 4, ny) for an x half-step: rho, u, h and u's
Sherman-Morrison seed; (ceil(ny/2), 2, 3, nx) for a y stage — runs one
in-place sweep over all of them, and unfolds each field straight into its
own C-contiguous array.  The cost of a sweep is per row, not per field:
one sweep of three or four fields costs little more than one of a single
field.

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
from .state import State, initial_state

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
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if not 0 < self.cfl_safety <= 1:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.delta0 <= 0:
            raise ValueError("delta0 must be positive")

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


def tridiag_factor(lo, di, up):
    """Matrix half of the two-ended Thomas elimination along the first axis.

    For the systems lo[j] w[j-1] + di[j] w[j] + up[j] w[j+1] = rhs[j] of
    n >= 2 rows (lo[0] and up[-1] ignored) it returns the folded factors
    (lo, cp, piv) that thomas_batched sweeps with.  The top chain eliminates
    rows 0, 1, ... downward and the bottom chain rows n-1, n-2, ... upward,
    side by side in the slots (j, 0) and (j, 1) of _fold's layout; in the
    bottom chain lo and up swap roles.  Per slot, piv[0] = di[0],
    piv[j] = di[j] - lo[j] cp[j-1] and cp[j] = up[j] / piv[j].  The last slot
    joins the chains: for even n its pivots carry the determinant
    1 - cp[-1, 0] cp[-1, 1] of the 2x2 system of the two middle rows; for
    odd n both its pivots are the middle row's, eliminated from both sides,
    with cp = -1.  The arrays have at least one trailing axis.  The factors
    are fresh C-contiguous arrays: the elimination's row slabs must be
    contiguous, or each ufunc call in its loop costs about twice as much."""
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
        # the middle row r: its up entry acts, in the sweep's last forward
        # step, on the bottom chain's d, beside the zero of the right-hand
        # side's padding slot
        r = n // 2
        l[-1][1] = up[r]
        p[-1][...] = di[r] - lo[r] * c[-2][0] - up[r] * c[-2][1]
        c[-1][...] = -1.0
    else:
        p[-1] *= 1.0 - c[-1][0] * c[-1][1]
    return lof, cp, piv


def thomas_batched(lo, cp, piv, rhs, out=None):
    """Right-hand-side sweep of the two-ended Thomas elimination, with the
    folded factors (lo, cp, piv) of tridiag_factor, on a right-hand side in
    _fold's layout (for odd n its slot (-1, 1) is zero); the solution comes
    back folded.

    Forward, both chains run toward the middle in the same calls; the last
    slot joins them, x[-1] = d[-1] - cp[-1] d[-1, ::-1], and back
    substitution runs both halves outward.  The matrix arrays
    broadcast against rhs over the trailing axes (at least one), so
    right-hand sides that share a matrix share one sweep.  out may be rhs
    itself, and the sweep then runs in place."""
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


def periodic_thomas_batched(lo, di, up):
    """Matrix half of periodic tridiagonal systems along the first axis
    (corner entries lo[0] and up[-1]), by the Sherman-Morrison correction
    of the open chain.

    Returns the chain's folded factors (lo, cp, piv) for thomas_batched;
    the folded right-hand side `seed` whose chain solution is the
    correction vector q; and gamma = -di[0].  _sherman_morrison turns the
    chain solution of a right-hand side into the periodic one."""
    gamma = -di[0]
    dmod = di.copy()
    dmod[0] = di[0] - gamma
    dmod[-1] = di[-1] - lo[0] * up[-1] / gamma
    factors = tridiag_factor(lo, dmod, up)
    seed = np.zeros(factors[1].shape)
    seed[0, 0] = gamma
    seed[0, 1] = up[-1]
    return (*factors, seed, gamma)


def _sherman_morrison(y, q, lo0, gamma, n: int):
    """Periodic solution of n rows, unfolded into a new C-contiguous array,
    from the folded chain solutions y (of the right-hand side; overwritten)
    and q (of the seed) of periodic_thomas_batched; lo0 is the corner entry
    lo[0]."""
    num = y[0, 0] + lo0 * y[0, 1] / gamma
    den = 1.0 + q[0, 0] + lo0 * q[0, 1] / gamma
    y -= (num / den) * q
    return _unfold(y, n)


@lru_cache(maxsize=16)
def _periodic_factors(n: int, c: float):
    """Read-only folded lo, cp, piv, Sherman-Morrison vector q and gamma of
    the constant periodic system (1 + 2c) w[i] - c (w[i-1] + w[i+1]) of n
    rows, as (ceil(n / 2), 2, 1) arrays (gamma (1,))."""
    lo = np.full((n, 1), -c)
    lof, cp, piv, seed, gamma = periodic_thomas_batched(lo, np.full((n, 1), 1.0 + 2.0 * c), lo)
    return _frozen(lof, cp, piv, thomas_batched(lof, cp, piv, seed), gamma)


# ---------------------------------------------------------------------------
# Directional implicit solves
# ---------------------------------------------------------------------------


def _solve_x_cn(w, coeff, step: float, dx_: float):
    """Crank-Nicolson step of d_t w = coeff d_x^2 w, periodic in x (axis 0),
    for a triple w of (nx, ny) arrays.

    Second-order three-point stencil, applied in the folded layout of the
    sweep.  A scalar coefficient (eps, for rho and h) gives a constant
    system, factored once per (nx, step, eps) in a cache; an (nx, ny)
    coefficient (eps / rho, for u) is factored here, and its
    Sherman-Morrison seed rides along as one more right-hand side of the
    one sweep.  Each field comes back as its own C-contiguous array."""
    a = 0.5 * step / dx_**2
    n, m = w[0].shape
    k = len(w)
    varying = [c for c in range(k) if np.ndim(coeff[c])]
    # w folded, with a ghost slot at each end: the periodic neighbours of
    # rows 0 and n-1 (slot 0 reversed), and those of the middle rows; for
    # odd n the middle row also fills the padding slot, the bottom chain's
    # neighbour of row n // 2 + 1
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
    # lap = (w[i+1] - 2 w[i]) + w[i-1] in the top chain; the bottom chain
    # reads its neighbours in the other order
    lap = b[:, :, :k]
    np.multiply(2.0, ws, out=lap)
    np.subtract(wp, lap, out=lap)
    lap += wm
    corr = []
    for c in range(k):
        ac = a * coeff[c]
        if np.ndim(ac) == 0:
            *factors, q, gamma = _periodic_factors(n, ac)
        else:
            *factors, seed, gamma = periodic_thomas_batched(-ac, 1.0 + 2.0 * ac, -ac)
            s = k + varying.index(c)
            q = b[:, :, s]
            q[...] = seed
            lo[:, :, s], cp[:, :, s], piv[:, :, s] = factors
        lo[:, :, c], cp[:, :, c], piv[:, :, c] = factors
        corr.append((q, lo[0, 0, c], gamma))
        # rhs = w + (a coeff) lap, with the folded lo = -(a coeff)
        lap[:, :, c] *= lo[:, :, c]
        np.subtract(ws[:, :, c], lap[:, :, c], out=lap[:, :, c])
    if n % 2:
        b[-1, 1] = 0.0
    thomas_batched(lo, cp, piv, b, out=b)
    return tuple(_sherman_morrison(b[:, :, c], *corr[c], n) for c in range(k))


# Wall closure of the y-systems, in (rho, u, h) order.
_WALL_BCS = ("neumann", "dirichlet", "neumann")


def _y_matrix(grid: GridSpec, ac: np.ndarray, wall_bc: str):
    """Rows of (I - ac D_y^2) for one field, with y on axis 0.

    ac is (ny, 1) or (ny, nx).  The wall row (j=0) is the mirror-ghost
    second-order closure for 'neumann', an identity row for 'dirichlet';
    the top row is always identity."""
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


@lru_cache(maxsize=16)
def _y_factors(grid: GridSpec, ac: float, wall_bc: str):
    """Read-only folded lo, cp and piv of the constant system I - ac D_y^2."""
    return _frozen(*tridiag_factor(*_y_matrix(grid, np.full((grid.ny, 1), ac), wall_bc)))


def _apply_dyy(grid: GridSpec, w: np.ndarray, wall_bc: str) -> np.ndarray:
    """Discrete D_y^2 w consistent with _y_matrix: the interior is d2y's
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

    coeff and rhs are (rho, u, h) triples; rhs holds (nx, ny) arrays,
    stacked here in the folded layout as (ceil(ny / 2), 2, 3, nx).  A
    scalar coefficient (eps for rho, kappa for h) gives a constant system,
    factored once per (grid, a, coefficient) in a cache; an (nx, ny)
    coefficient (mu / rho for u) is factored here.  Walls follow _WALL_BCS
    with u clamped to traces['u_wall']; every top row is clamped to its top
    trace.  Each field comes back as its own C-contiguous array, which
    Field adopts without a copy."""
    ny, nx = grid.ny, grid.nx
    b, lo, cp, piv = np.empty((4, (ny + 1) // 2, 2, 3, nx))
    for c, f in enumerate(rhs):
        _fold(f.T, out=b[:, :, c])
    b[0, 0, 1] = traces["u_wall"]
    b[0, 1] = (traces["rho_top"], traces["u_top"], traces["h_top"])
    for c, (k, wall_bc) in enumerate(zip(coeff, _WALL_BCS)):
        if np.ndim(k) == 0:
            factors = _y_factors(grid, a * k, wall_bc)
        else:
            factors = tridiag_factor(*_y_matrix(grid, a * k.T, wall_bc))
        lo[:, :, c], cp[:, :, c], piv[:, :, c] = factors
    thomas_batched(lo, cp, piv, b, out=b)
    out = tuple(np.empty((nx, ny)) for _ in range(3))
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
    src = tower.source_terms(0)
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
    v_max = float(np.max(np.abs(state.v.values)))
    dy_min = float(np.min(np.diff(grid.y)))
    limits = []
    if u_max > 0:
        limits.append(grid.dx / u_max)
    if v_max > 0:
        limits.append(dy_min / v_max)
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
    the end, by initial_state, and derives nothing: the CFL rule of the
    next step builds its v, the only derived field a step reads.  traces
    holds the Dirichlet clamp values per field; when omitted they are
    taken from the incoming state.  status is the incoming state's monitor
    status, which run() already holds; when omitted the incoming state is
    monitored here.  Either way a breached status raises SolverError
    before the step.  bundle and forcing may be None (absent).

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
        return _solve_x_cn(fields, (eps, eps / (fields[0] + 1.0), eps), a, grid.dx)

    def y_stage(lagged, time):
        """Implicit y stage from w; the explicit terms and u's viscosity
        mu / rho are evaluated at the fields lagged."""
        stage = State(*(Field._computed(a, grid) for a in lagged), time=time)
        tower = TimeTower(stage, bundle, forcing, max_depth=0, physics=cfg)
        *n_exp, flag = _explicit_terms(tower)
        coeff = (eps, mu / tower.rho, kappa)
        rhs = [b + k * n for b, n in zip(w, n_exp)]
        if cn:
            rhs = [f + a * c * d for f, c, d in zip(rhs, coeff, w_dyy)]
        return _solve_y_implicit(grid, coeff, a, rhs, traces), flag

    w = x_half(w)
    # both imex-cn y stages start from w: its D_y^2 is taken once
    w_dyy = [_apply_dyy(grid, b, bc) for b, bc in zip(w, _WALL_BCS)] if cn else None
    new, flag = y_stage(w, t)
    if cn:
        mid = tuple(0.5 * (b + s) for b, s in zip(w, new))
        new, flag2 = y_stage(mid, t + k / 2.0)
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
