"""Semi-implicit time integration of the shifted regularized system.

Scheme: all second-derivative terms are implicit (tridiagonal solves —
periodic in x, banded in y per x-line); advection, coupling, sources and
forcing are explicit.  imex-cn is second order: a Strang-symmetrized
Crank-Nicolson x-diffusion split around a two-stage midpoint predictor/
corrector in y.  imex-be is the first-order single-stage variant.

The explicit terms come from pde: TimeTower.explicit at level 0, the same
right-hand-side kernel the time-derivative tower differentiates.

Layout: the tridiagonal kernels solve along the first axis, so row j of
every system is one contiguous slab, and the matrix rows broadcast over
the trailing axes.  Each implicit stage stacks rho, u and h on a trailing
axis — (nx, ny, 3) for an x half-step, (ny, nx, 3) for a y stage — and
does one elimination for all three; the periodic x-solve also carries its
Sherman-Morrison correction vector through that same elimination.

Boundary closure: Neumann rows (d_y rho = d_y h = 0 at the wall) use a
second-order mirror ghost inside the implicit solve; Dirichlet rows (u at
the wall, all fields at the top) are clamped to their initial traces,
which reduces to the homogeneous conditions for compatible data while
keeping the uniform outer state an exact discrete steady state.

The -mu e^{-y} background forcing is discretized as -mu * D_y^2(e^{-y})
(well-balanced), so the equilibrium is steady to round-off.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import Field, GridSpec, NonFiniteError
from .norms import weighted_linf
from .operators import _d2y_coeffs, _shifts, dy
from .pde import DensityFloorError, Physics, TimeTower, exp_minus_y, pde_rhs
from .state import State, derive_secondary

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


@dataclass
class Trajectory:
    """Output of run(): stored states with monitor history, and the run's
    config, source bundle and forcing (None when absent), which the
    diagnostics of the trajectory read."""

    states: list
    monitors: list
    config: SolverConfig
    bundle: object = None
    forcing: object = None
    breached: bool = False

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.states])


# ---------------------------------------------------------------------------
# Tridiagonal machinery
# ---------------------------------------------------------------------------


def thomas_batched(lo, di, up, rhs):
    """Solve independent tridiagonal systems along the first axis.

    Equation j reads lo[j] w[j-1] + di[j] w[j] + up[j] w[j+1] = rhs[j].
    The matrix arrays broadcast against rhs over the trailing axes, so
    right-hand sides that share a matrix share one elimination.  lo[0] and
    up[-1] are ignored."""
    cp = np.empty(np.broadcast_shapes(lo.shape, di.shape, up.shape))
    dp = np.empty(np.broadcast_shapes(cp.shape, rhs.shape))
    cp[0] = up[0] / di[0]
    dp[0] = rhs[0] / di[0]
    for j in range(1, rhs.shape[0]):
        denom = di[j] - lo[j] * cp[j - 1]
        cp[j] = up[j] / denom
        dp[j] = (rhs[j] - lo[j] * dp[j - 1]) / denom
    for j in range(rhs.shape[0] - 2, -1, -1):
        dp[j] -= cp[j] * dp[j + 1]
    return dp


def periodic_thomas_batched(lo, di, up, rhs):
    """Solve periodic tridiagonal systems along the first axis via the
    Sherman-Morrison correction of the open-chain Thomas solve; the rhs
    solve and the correction-vector solve share one elimination."""
    gamma = -di[0]
    dmod = di.copy()
    dmod[0] = di[0] - gamma
    dmod[-1] = di[-1] - lo[0] * up[-1] / gamma
    pair = np.zeros(rhs.shape + (2,))
    pair[..., 0] = rhs
    pair[0, ..., 1] = gamma
    pair[-1, ..., 1] = up[-1]
    sol = thomas_batched(lo[..., None], dmod[..., None], up[..., None], pair)
    y, q = sol[..., 0], sol[..., 1]
    num = y[0] + lo[0] * y[-1] / gamma
    den = 1.0 + q[0] + lo[0] * q[-1] / gamma
    return y - (num / den) * q


# ---------------------------------------------------------------------------
# Directional implicit solves
# ---------------------------------------------------------------------------


def _solve_x_cn(w: np.ndarray, coeff: np.ndarray, step: float, dx_: float) -> np.ndarray:
    """Crank-Nicolson step of d_t w = coeff(x, y) d_x^2 w, periodic in x
    (axis 0).

    Second-order three-point stencil; coeff may vary over the grid and
    over any trailing axes that stack several fields."""
    a = 0.5 * step / dx_**2
    _, wm, wp, _ = _shifts(w)
    rhs = w + a * coeff * (wp - 2.0 * w + wm)
    c = a * coeff
    off = -c
    return periodic_thomas_batched(off, 1.0 + 2.0 * c, off, rhs)


# Wall closure of the y-systems, in (rho, u, h) order.
_WALL_BCS = ("neumann", "dirichlet", "neumann")


def _y_matrix(grid: GridSpec, coeff: np.ndarray, a: float):
    """Rows of (I - a * coeff * D_y^2) with y on axis 0.

    coeff is (ny, nx, 3) in (rho, u, h) order.  The wall row (j=0) follows
    _WALL_BCS: 'neumann' is the mirror-ghost second-order closure,
    'dirichlet' an identity row.  The top row is always identity."""
    lo2, di2, up2, _, _ = _d2y_coeffs(grid)
    ac = a * coeff
    lo = np.zeros_like(ac)
    di = np.ones_like(ac)
    up = np.zeros_like(ac)
    lo[1:-1] = -ac[1:-1] * lo2[:, None, None]
    di[1:-1] = 1.0 - ac[1:-1] * di2[:, None, None]
    up[1:-1] = -ac[1:-1] * up2[:, None, None]
    h1 = grid.y[1] - grid.y[0]
    for c, wall_bc in enumerate(_WALL_BCS):
        if wall_bc == "neumann":
            di[0, :, c] = 1.0 + ac[0, :, c] * 2.0 / h1**2
            up[0, :, c] = -ac[0, :, c] * 2.0 / h1**2
    return lo, di, up


def _apply_dyy(grid: GridSpec, w: np.ndarray, wall_bc: str) -> np.ndarray:
    """Discrete D_y^2 w consistent with _y_matrix (boundary rows zeroed;
    Neumann wall uses the mirror-ghost closure)."""
    lo2, di2, up2, _, _ = _d2y_coeffs(grid)
    out = np.zeros_like(w)
    out[:, 1:-1] = lo2 * w[:, :-2] + di2 * w[:, 1:-1] + up2 * w[:, 2:]
    if wall_bc == "neumann":
        h1 = grid.y[1] - grid.y[0]
        out[:, 0] = 2.0 * (w[:, 1] - w[:, 0]) / h1**2
    else:
        out[:, 0] = 0.0
    out[:, -1] = 0.0
    return out


def _solve_y_implicit(grid: GridSpec, coeff, a: float, rhs, traces: dict):
    """Solve (I - a coeff D_y^2) w = rhs for (rho, u, h) in one elimination.

    coeff and rhs are (rho, u, h) triples of (nx, ny) arrays, stacked here
    as (ny, nx, 3).  Walls follow _WALL_BCS with u clamped to
    traces['u_wall']; every top row is clamped to its top trace.  Each
    field comes back as its own C-contiguous array, which Field adopts
    without a copy."""
    b = np.stack([f.T for f in rhs], axis=-1)
    b[0, :, 1] = traces["u_wall"]
    b[-1] = np.stack([traces["rho_top"], traces["u_top"], traces["h_top"]], axis=-1)
    lo, di, up = _y_matrix(grid, np.stack([c.T for c in coeff], axis=-1), a)
    sol = thomas_batched(lo, di, up, b)
    return tuple(np.ascontiguousarray(sol[..., c].T) for c in range(3))


# ---------------------------------------------------------------------------
# Explicit right-hand sides (everything except implicit diffusion)
# ---------------------------------------------------------------------------


def _explicit_terms(state: State, cfg: SolverConfig, bundle, forcing):
    """Explicit tendencies N for (rho, u, h): the non-diffusive right-hand
    sides of pde.TimeTower.explicit at level 0 with cfg's eps and mu; the u
    tendency is already divided by the density.  bundle and forcing may be
    None (absent).

    The flag is raised when the source divergence eps |dx r1 + dy r2|
    exceeds 1% of the density transport |U dx r| + |v dy r| (max norms);
    without sources it is down."""
    tower = TimeTower(state, bundle, forcing, max_depth=0, physics=cfg)
    n_rho, n_h, B = tower.explicit(0, (0.0, 0.0, 0.0))
    src = tower.source_terms(0)
    if src is None:
        return n_rho, B / state.rho_total, n_h, False
    rx, ry = tower.deriv("x", "rho", 0).values, tower.deriv("y", "rho", 0).values
    div_src = src[0] + src[1]
    transport_scale = float(
        np.max(np.abs(tower.U(0) * rx)) + np.max(np.abs(state.v.values * ry))
    )
    source_scale = cfg.eps * float(np.max(np.abs(div_src)))
    return n_rho, B / state.rho_total, n_h, bool(source_scale > 0.01 * transport_scale)


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
) -> tuple[State, MonitorStatus]:
    """Advance one nominal dt (internally subdivided to satisfy the CFL
    rule), returning the new state and its monitor status.

    traces holds the Dirichlet clamp values per field; when omitted they
    are taken from the incoming state.  bundle and forcing may be None
    (absent).  A substep that produces a non-finite field raises
    SolverError."""
    if traces is None:
        traces = make_traces(state)
    mon = monitor(state, cfg.delta0, cfg.l)
    if mon.breached:
        raise SolverError(f"monitor breached before step: {mon}")
    n_sub = _cfl_substeps(state, cfg)
    k = cfg.dt / n_sub
    cur = state
    src_flag = False
    try:
        for _ in range(n_sub):
            cur, flag = _substep(cur, cfg, bundle, forcing, k, traces)
            src_flag = src_flag or flag
    except NonFiniteError as exc:
        raise SolverError(f"solver diverged at t = {cur.time:.6g}: {exc}") from exc
    mon = monitor(cur, cfg.delta0, cfg.l, source_flag=src_flag)
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


def _substep(state, cfg, bundle, forcing, k, traces):
    grid = state.grid
    eps, mu, kappa = cfg.eps, cfg.mu, cfg.kappa
    t = state.time
    cn = cfg.scheme == "imex-cn"
    # imex-cn: x half-steps around theta = 1/2 y stages; imex-be: one x step
    # and theta = 1.  a = theta * k is also the x step.
    a = k / 2.0 if cn else k

    def with_fields(fields, time):
        r, u, h = fields
        return derive_secondary(
            replace(
                state,
                rho_shift=Field(r, grid),
                u_shift=Field(u, grid),
                h_shift=Field(h, grid),
                time=time,
            )
        )

    def x_half(fields, step_):
        if eps == 0.0:
            return fields
        r = fields[0]
        coeff = [np.full_like(r, eps), eps / (r + 1.0), np.full_like(r, eps)]
        w = _solve_x_cn(np.stack(fields, axis=-1), np.stack(coeff, axis=-1), step_, grid.dx)
        # one owned array per field, so that Field adopts it without a copy
        return tuple(np.ascontiguousarray(w[..., c]) for c in range(3))

    def y_stage(base, lagged, time):
        """Implicit y stage from base; the explicit terms and u's viscosity
        mu / rho are evaluated at the fields lagged."""
        *n_exp, flag = _explicit_terms(with_fields(lagged, time), cfg, bundle, forcing)
        r = base[0]
        coeff = (np.full_like(r, eps), mu / (lagged[0] + 1.0), np.full_like(r, kappa))
        rhs = [b + k * n for b, n in zip(base, n_exp)]
        if cn:
            rhs = [
                f + a * c * _apply_dyy(grid, b, wall_bc)
                for f, c, b, wall_bc in zip(rhs, coeff, base, _WALL_BCS)
            ]
        return _solve_y_implicit(grid, coeff, a, rhs, traces), flag

    w = x_half((state.rho_shift.values, state.u_shift.values, state.h_shift.values), a)
    new, flag = y_stage(w, w, t)
    if cn:
        mid = tuple(0.5 * (b + s) for b, s in zip(w, new))
        new, flag2 = y_stage(w, mid, t + k / 2.0)
        new = x_half(new, a)
        flag = flag or flag2
    return with_fields(new, t + k), flag


def run(
    initial: State,
    cfg: SolverConfig,
    bundle=None,
    forcing=None,
    output_stride: int = 1,
) -> Trajectory:
    """Integrate to t_end (or monitor breach), storing every output_stride-th
    state.  The initial state is always stored; on breach (a SolverError,
    or a DensityFloorError from a substep whose density fell below the
    floor) the trajectory is returned with breached = True and ends at the
    last healthy state.  bundle and forcing may be None (absent)."""
    traces = make_traces(initial)
    n_steps = max(1, int(round(cfg.t_end / cfg.dt)))
    states = [initial]
    monitors = [monitor(initial, cfg.delta0, cfg.l)]
    traj = Trajectory(
        states=states, monitors=monitors, config=cfg, bundle=bundle, forcing=forcing
    )
    if monitors[0].breached:
        traj.breached = True
        return traj
    cur = initial
    for n in range(1, n_steps + 1):
        try:
            cur, mon = step(cur, cfg, bundle, forcing, traces)
        except (SolverError, DensityFloorError):
            traj.breached = True
            return traj
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
