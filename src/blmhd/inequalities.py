"""Executable checks of the calculus inequalities used by the estimates:
the sharp-constant Hardy inequality, a Sobolev embedding, a Moser product
inequality, and a diffusion-parameter-uniform weighted bound for the heat
equation on the half line.  The heat solver works on a uniform x grid: it
convolves the Gaussian kernel exactly with the piecewise-linear interpolant
of the odd extension.  Each output time builds one table of node weights
over all its Duhamel quadrature lags and applies it as one matrix product.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .grid import Field
from .norms import NormSpec, conormal_norm, weighted_l2, weighted_linf
from .operators import dx, dy
from .pde import apply_spatial
from .state import MultiIndex

WALL_TOL = 1e-13
DECAY_TOL = 1e-4
SOBOLEV_CSTAR = 2.0
MOSER_CSTAR = 2.0
HEAT_CSTAR = 10.0
HEAT_SPREAD_MAX = 4.0


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality evaluation.

    ratio = lhs / (constant * rhs) with the convention 0/0 -> 0; the check
    passes iff ratio <= 1 + tol."""

    name: str
    lhs: float
    rhs: float
    constant: float
    ratio: float
    passed: bool
    tol: float
    metadata: dict = dc_field(default_factory=dict)


def _make_report(name, lhs, rhs, constant, tol, metadata) -> InequalityReport:
    denom = constant * rhs
    ratio = 0.0 if lhs == 0.0 else (np.inf if denom == 0.0 else lhs / denom)
    return InequalityReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        constant=float(constant),
        ratio=float(ratio),
        passed=bool(ratio <= 1.0 + tol),
        tol=float(tol),
        metadata=metadata,
    )


def hardy_check(f: Field, lam: float, tol: float = 1e-2) -> InequalityReport:
    """Sharp-form Hardy inequality on the half line in y:

        ||f||_{L^2_lam} <= (2/(2 lam + 1)) ||d_y f||_{L^2_{lam+1}}

    requires f = 0 on the wall row, decay at the top, and lam > -1/2."""
    if lam <= -0.5:
        raise ValueError(f"hardy_check requires lam > -1/2, got {lam}")
    wall = float(np.max(np.abs(f.values[:, 0])))
    if wall > WALL_TOL:
        raise ValueError(f"hardy_check requires f = 0 at y = 0 (wall max {wall:.3g})")
    top = float(np.max(np.abs(f.values[:, -1])))
    if top > DECAY_TOL:
        raise ValueError(f"hardy_check requires decay in y (top-row max {top:.3g})")
    lhs = weighted_l2(f, lam)
    rhs = weighted_l2(dy(f), lam + 1.0)
    c = 2.0 / (2.0 * lam + 1.0)
    return _make_report(
        "hardy", lhs, rhs, c, tol, {"lambda": lam, "ny": f.grid.ny}
    )


def sobolev_check(f: Field, cstar: float = SOBOLEV_CSTAR, tol: float = 0.0) -> InequalityReport:
    """Embedding ||f||_{L^inf_0} <= C (||f|| + ||dx f|| + ||dy f|| + ||dxy f||)_{L^2_0}.

    The constant cstar is a corpus-wide fixture; the raw (constant-free)
    ratio is recorded in the metadata."""
    lhs = weighted_linf(f, 0.0)
    fx = dx(f)
    rhs = (
        weighted_l2(f, 0.0)
        + weighted_l2(fx, 0.0)
        + weighted_l2(dy(f), 0.0)
        + weighted_l2(dy(fx), 0.0)
    )
    raw = 0.0 if lhs == 0.0 else lhs / rhs
    return _make_report("sobolev", lhs, rhs, cstar, tol, {"raw_ratio": raw})


def moser_check(
    f_series: list[Field],
    g_series: list[Field],
    times: np.ndarray,
    beta: MultiIndex,
    gamma: MultiIndex,
    m: int,
    l: float,
    l1: float,
    cstar: float = MOSER_CSTAR,
    tol: float = 0.0,
) -> InequalityReport:
    """Product inequality for time-indexed fields:

        int_0^t ||Z^beta f Z^gamma g||^2_{L^2_l}
          <= C_m ( sup|<y>^{l1} f|^2 int ||g||^2_{H^m_{l2}} + symmetric ),

    with |beta + gamma| = m and l2 = l - l1.  Only spatial multi-indices
    are accepted (the inputs are snapshots without a time model)."""
    if beta.order + gamma.order != m:
        raise ValueError(
            f"index mismatch: |beta| + |gamma| = {beta.order + gamma.order} != m = {m}"
        )
    if beta.t_count or gamma.t_count:
        raise ValueError("moser_check accepts spatial multi-indices only")
    if len(f_series) != len(g_series) or len(f_series) != len(times):
        raise ValueError("f_series, g_series, times must have equal length")
    l2 = l - l1
    times = np.asarray(times, dtype=float)
    prod_sq = np.array(
        [
            weighted_l2(apply_spatial(f, beta) * apply_spatial(g, gamma), l) ** 2
            for f, g in zip(f_series, g_series)
        ]
    )
    spec = NormSpec(m, l2, "full")
    f_hm_sq = np.array([conormal_norm(f, spec) ** 2 for f in f_series])
    g_hm_sq = np.array([conormal_norm(g, spec) ** 2 for g in g_series])
    f_sup = max(weighted_linf(f, l1) for f in f_series)
    g_sup = max(weighted_linf(g, l1) for g in g_series)
    lhs = float(np.trapezoid(prod_sq, times))
    rhs = f_sup**2 * float(np.trapezoid(g_hm_sq, times)) + g_sup**2 * float(
        np.trapezoid(f_hm_sq, times)
    )
    raw = 0.0 if lhs == 0.0 else (np.inf if rhs == 0.0 else lhs / rhs)
    return _make_report(
        "moser",
        lhs,
        rhs,
        cstar,
        tol,
        {"beta": beta, "gamma": gamma, "m": m, "l": l, "l1": l1, "raw_ratio": raw},
    )


# ---------------------------------------------------------------------------
# Heat equation on the half line: exact kernel + Duhamel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeatProblem:
    """d_t F - eps d_x^2 F = G on x > 0, F(t, 0) = 0, F(0, x) = f0.

    x: uniform 1D grid of at least 2 nodes with x[0] = 0; f0 sampled on x
    with f0[0] = 0; forcing: callable (t, x-array) -> array, or None."""

    eps: float
    x: np.ndarray
    f0: np.ndarray
    forcing: object = None
    t_end: float = 1.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        f0 = np.asarray(self.f0, dtype=float)
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.t_end <= 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if x.ndim != 1 or x.size < 2:
            raise ValueError(f"x must be a 1D grid of at least 2 nodes, got shape {x.shape}")
        if x[0] != 0.0 or np.any(np.diff(x) <= 0):
            raise ValueError("x must be increasing with x[0] = 0")
        h = x[-1] / (x.size - 1)
        if np.max(np.abs(np.diff(x) - h)) > 1e-9 * h:
            raise ValueError("x must be uniform (relative spacing tolerance 1e-9)")
        if f0.shape != x.shape:
            raise ValueError("f0 must be sampled on x")
        if abs(f0[0]) > WALL_TOL:
            raise ValueError("f0 must vanish at x = 0 (Dirichlet compatibility)")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "f0", f0)

    @property
    def h(self) -> float:
        return self.x[-1] / (self.x.size - 1)


def _odd_extension(f: np.ndarray) -> np.ndarray:
    return np.concatenate([-f[..., :0:-1], f], axis=-1)


def _trap_weights(x: np.ndarray) -> np.ndarray:
    w = np.zeros_like(x)
    d = np.diff(x)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF, 0.5 erfc(-z / sqrt 2): no cancellation in the
    lower tail, where the segment weights are differences of tiny values."""
    return 0.5 * _ERFC(z * -np.sqrt(0.5)).astype(float)


def _kernel_convolve(
    eps: float, tau: np.ndarray, h: float, fe: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """sum_j w_j (K(tau_j) * fe_j): the Gaussian heat kernel at lag tau_j
    convolved with the odd extension in row j of fe (2n - 1 values per
    row, node spacing h), integrated exactly against its piecewise-linear
    interpolant and returned at the n half-line nodes.  Closed-form
    segment integrals keep the result accurate even when the kernel is
    much narrower than the node spacing.  The lags are all positive, or
    the single lag 0, where the kernel is the identity."""
    n = (fe.shape[1] + 1) // 2
    if not tau.any():
        return w @ fe[:, n - 1 :]
    sigma = np.sqrt(2.0 * eps * tau)[:, None]
    # segments farther than ~8 sigma from an output node contribute nothing
    # (both endpoint CDFs saturate), and no lag beyond the extension meets
    # one; every row shares the widest row's window
    half = min(int(np.ceil(8.0 * sigma.max() / h)) + 2, fe.shape[1])
    lags = np.arange(-half, half + 1)
    z = lags * h / sigma
    cdf = _norm_cdf(z)
    with np.errstate(under="ignore"):
        pdf = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
    # the segment at lag k (left node k h, right node (k + 1) h from the
    # output node) carries f_l + (f_r - f_l) s / h; against the kernel it
    # integrates to f_l dcdf + (f_r - f_l) w_r with
    # w_r = (sigma / h) (pdf_k - pdf_{k+1}) - k dcdf
    dcdf = np.diff(cdf, axis=1)
    w_r = sigma / h * (pdf[:, :-1] - pdf[:, 1:]) - lags[:-1] * dcdf
    # no segments beyond the ends of the extension: pad with zeros, and
    # keep only the inputs the half-line outputs read
    pad = np.zeros((fe.shape[0], half))
    left = np.concatenate([pad, fe[:, :-1], pad], axis=1)[:, n - 1 :]
    right = np.concatenate([pad, fe[:, 1:], pad], axis=1)[:, n - 1 :]
    w = w[:, None]
    # Q[k, m] = sum_j (segment weight of row j at lag k) x (input m of row
    # j); output i reads input i + k at lag k, a diagonal of Q
    Q = (w * (dcdf - w_r)).T @ left + (w * w_r).T @ right
    diagonals = np.lib.stride_tricks.as_strided(
        Q, shape=(2 * half, n), strides=(Q.strides[0] + Q.strides[1], Q.strides[1])
    )
    return diagonals.sum(axis=0)


def heat_solve(p: HeatProblem, n_times: int = 8, n_quad: int = 64):
    """Solve the half-line heat problem by odd extension, exact Gaussian
    kernel convolution, and Duhamel quadrature for the forcing: each
    output time applies one kernel table over all its quadrature lags.

    Returns (times, F) with F.shape == (n_times + 1, len(p.x)); F[k] is the
    solution at times[k], and F[:, 0] = 0 to quadrature accuracy."""
    x = p.x
    fe = _odd_extension(p.f0)[None, :]
    one = np.ones(1)
    times = np.linspace(0.0, p.t_end, n_times + 1)
    out = np.empty((n_times + 1, x.size))
    for k, t in enumerate(times):
        F = _kernel_convolve(p.eps, np.array([t]), p.h, fe, one)
        if p.forcing is not None and t > 0.0:
            s_nodes = np.linspace(0.0, t, n_quad + 1)
            ws = _trap_weights(s_nodes)
            G = np.array([p.forcing(s, x) for s in s_nodes], dtype=float)
            duhamel = _kernel_convolve(
                p.eps, t - s_nodes[:-1], p.h, _odd_extension(G[:-1]), ws[:-1]
            )
            # kernel limit at s = t: the convolution tends to the data itself
            F = F + (duhamel + ws[-1] * G[-1])
        out[k] = F
    out[:, 0] = 0.0
    return times, out


def _x_dx(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """x * d_x f by second-order differences on the 1D grid."""
    return x * np.gradient(f, x, edge_order=2)


def heat_data_functional(p: HeatProblem, times: np.ndarray) -> float:
    """||F0||_inf + ||x dx F0||_inf + int_0^t (||G||_inf + ||x dx G||_inf)."""
    x = p.x
    denom = float(np.max(np.abs(p.f0)) + np.max(np.abs(_x_dx(x, p.f0))))
    if p.forcing is not None:
        vals = []
        for s in times:
            gs = np.asarray(p.forcing(s, x), dtype=float)
            vals.append(np.max(np.abs(gs)) + np.max(np.abs(_x_dx(x, gs))))
        denom += float(np.trapezoid(np.array(vals), times))
    return denom


def heat_bound_check(
    x: np.ndarray,
    f0: np.ndarray,
    forcing,
    eps_grid=(1e-1, 1e-2, 1e-3, 1e-4),
    t_end: float = 1.0,
    cstar: float = HEAT_CSTAR,
    spread_max: float = HEAT_SPREAD_MAX,
    tol: float = 0.0,
) -> InequalityReport:
    """Diffusion-uniform weighted gradient bound:

        ||x dx F(t)||_inf <= C (||F0||_inf + ||x dx F0||_inf)
                             + C int_0^t (||G||_inf + ||x dx G||_inf),

    with C independent of eps.  Asserts max/min of the per-eps ratio over
    the grid <= spread_max and every ratio <= cstar."""
    ratios = {}
    worst = 0.0
    for eps in eps_grid:
        p = HeatProblem(eps=eps, x=x, f0=f0, forcing=forcing, t_end=t_end)
        times, F = heat_solve(p)
        num = max(float(np.max(np.abs(_x_dx(p.x, Fk)))) for Fk in F)
        denom = heat_data_functional(p, times)
        r = 0.0 if num == 0.0 else num / denom
        ratios[eps] = r
        worst = max(worst, r)
    nonzero = [r for r in ratios.values() if r > 0]
    spread = max(nonzero) / min(nonzero) if nonzero else 1.0
    rep = _make_report(
        "heat_bound",
        worst,
        1.0,
        cstar,
        tol,
        {"ratios": ratios, "spread": spread, "spread_max": spread_max},
    )
    return replace(rep, passed=rep.passed and spread <= spread_max)
