"""Executable checks of the calculus inequalities used by the estimates:
the sharp-constant Hardy inequality, a Sobolev embedding, a Moser product
inequality, and a diffusion-parameter-uniform weighted bound for the heat
equation on the half line.  The heat solver works on a uniform x grid: it
convolves the Gaussian kernel exactly with the piecewise-linear interpolant
of the odd extension.  The kernel is even, so the weight of a node (its hat
function against the kernel) depends only on its distance from the output
node; it is built from the lower tail of the normal CDF, through a numpy
port of Cody's erfc.  Each output time builds one table of hat weights over
the data and all its Duhamel quadrature lags and applies it as one matrix
product.  The eps-ladder check builds what does not depend on eps once:
the tables' rows (the Duhamel nodes and the forcing samples) and the data
functional.
"""
from __future__ import annotations

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
HEAT_EPS_LADDER = (1e-1, 1e-2, 1e-3, 1e-4)
HEAT_T_END = 1.0
_HEAT_N_TIMES = 8
_HEAT_N_QUAD = 64


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality evaluation.

    ratio = lhs / (constant * rhs) with 0/0 -> 0 and x/0 -> inf
    (_check_ratio); the check passes iff ratio <= 1 + tol."""

    name: str
    lhs: float
    rhs: float
    constant: float
    ratio: float
    passed: bool
    tol: float
    metadata: dict = dc_field(default_factory=dict)


def _check_ratio(lhs, rhs):
    """lhs / rhs with 0/0 -> 0 and x/0 -> inf: the ratio of every check."""
    return 0.0 if lhs == 0.0 else (np.inf if rhs == 0.0 else lhs / rhs)


def _make_report(name, lhs, rhs, constant, tol, metadata) -> InequalityReport:
    ratio = _check_ratio(lhs, constant * rhs)
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


def hardy_check(f: Field, lam: float) -> InequalityReport:
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
    return _make_report("hardy", lhs, rhs, c, 1e-2, {"lambda": lam, "ny": f.grid.ny})


def sobolev_check(f: Field) -> InequalityReport:
    """Embedding ||f||_{L^inf_0} <= C (||f|| + ||dx f|| + ||dy f|| + ||dxy f||)_{L^2_0}.

    The constant C = SOBOLEV_CSTAR is a corpus-wide fixture; the raw
    (constant-free) ratio is recorded in the metadata."""
    lhs = weighted_linf(f, 0.0)
    fx = dx(f)
    rhs = (
        weighted_l2(f, 0.0)
        + weighted_l2(fx, 0.0)
        + weighted_l2(dy(f), 0.0)
        + weighted_l2(dy(fx), 0.0)
    )
    raw = _check_ratio(lhs, rhs)
    return _make_report("sobolev", lhs, rhs, SOBOLEV_CSTAR, 0.0, {"raw_ratio": raw})


def moser_check(
    f_series: list[Field],
    g_series: list[Field],
    times: np.ndarray,
    beta: MultiIndex,
    gamma: MultiIndex,
    m: int,
    l: float,
    l1: float,
) -> InequalityReport:
    """Product inequality for time-indexed fields:

        int_0^t ||Z^beta f Z^gamma g||^2_{L^2_l}
          <= C_m ( sup|<y>^{l1} f|^2 int ||g||^2_{H^m_{l2}} + symmetric ),

    with |beta + gamma| = m, l2 = l - l1 and C_m = MOSER_CSTAR.  Only
    spatial multi-indices are accepted (the inputs are snapshots without a
    time model)."""
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
    raw = _check_ratio(lhs, rhs)
    return _make_report(
        "moser",
        lhs,
        rhs,
        MOSER_CSTAR,
        0.0,
        {"beta": beta, "gamma": gamma, "m": m, "l": l, "l1": l1, "raw_ratio": raw},
    )


# ---------------------------------------------------------------------------
# Heat equation on the half line: exact kernel + Duhamel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeatProblem:
    """d_t F - eps d_x^2 F = G on x > 0, F(t, 0) = 0, F(0, x) = f0, for t
    in [0, HEAT_T_END].

    x: uniform 1D grid of at least 2 nodes with x[0] = 0; f0 sampled on x
    with f0[0] = 0; forcing: callable (t, x-array) -> array, or None."""

    eps: float
    x: np.ndarray
    f0: np.ndarray
    forcing: object = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        f0 = np.asarray(self.f0, dtype=float)
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
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


# erfc after W. J. Cody, "Rational Chebyshev approximations for the error
# function", Math. Comp. 23 (1969), as his CALERF evaluates it: on each of
# three ranges a ratio of polynomials in Horner's order.  A range's table
# holds the numerator and denominator coefficients as the two columns of
# one array, from the leading term down; every denominator is monic.
def _cody_table(num, den) -> np.ndarray:
    return np.array([(a, b) for a, b in zip(num, (1.0,) + den)])[:, :, None]


# |x| <= 0.46875: erfc = 1 - x R(x^2)
_ERFC_SMALL = _cody_table(
    (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
     3.77485237685302021e02, 3.20937758913846947e03),
    (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
     2.84423683343917062e03),
)
# 0.46875 < |x| <= 4: erfc = exp(-x^2) R(x)
_ERFC_MID = _cody_table(
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
     6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
     1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03),
    (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
     1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
     3.43936767414372164e03, 1.23033935480374942e03),
)
# |x| > 4: erfc = exp(-x^2) (1 / sqrt(pi) - R(x^-2) / x^2) / x
_ERFC_LARGE = _cody_table(
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
     1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
    (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3),
)
_INV_SQRT_PI = 1.0 / np.sqrt(np.pi)


def _cody_ratio(y: np.ndarray, table: np.ndarray) -> np.ndarray:
    """R(y) of one range: numerator and denominator in one Horner pass."""
    acc = table[0] * y
    for c in table[1:-1]:
        acc += c
        acc *= y
    acc += table[-1]
    return acc[0] / acc[1]


def _erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function, elementwise, on Cody's three ranges:
    within 8 ulp of libm's erfc on [-7, 26], and subnormal or 0 where erfc
    underflows (|x| > 26.5).  A negative argument gives 2 - erfc(|x|), so
    erfc(-x) = 2 - erfc(x) exactly."""
    x = np.asarray(x, dtype=float)
    y = np.abs(x)
    out = np.empty_like(y)
    small = y <= 0.46875
    ys = y[small]
    out[small] = 1.0 - ys * _cody_ratio(ys * ys, _ERFC_SMALL)
    tails = ~small
    # beyond |x| = 28 exp(-x^2) is 0; the cap keeps an infinity finite
    yt = np.minimum(y[tails], 28.0)
    ratio = np.empty_like(yt)
    mid = yt <= 4.0
    large = ~mid
    ratio[mid] = _cody_ratio(yt[mid], _ERFC_MID)
    yl = yt[large]
    inv_sq = 1.0 / (yl * yl)
    ratio[large] = (_INV_SQRT_PI - inv_sq * _cody_ratio(inv_sq, _ERFC_LARGE)) / yl
    # exp(-x^2) as exp(-t^2) exp(-(x - t)(x + t)) with t = x to 1/16, so
    # that the rounding of x^2 is not amplified by the exponential
    t = np.trunc(yt * 16.0) / 16.0
    out[tails] = np.exp(-t * t) * np.exp(-(yt - t) * (yt + t)) * ratio
    neg = x < 0.0
    out[neg] = 2.0 - out[neg]
    return out


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF, 0.5 erfc(-z / sqrt 2): no cancellation in the
    lower tail, where the segment weights are differences of tiny values."""
    return 0.5 * _erfc(z * -np.sqrt(0.5))


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
    m = fe.shape[1]
    n = (m + 1) // 2
    if not tau.any():
        return w @ fe[:, n - 1 :]
    sigma = np.sqrt(2.0 * eps * tau)[:, None]
    # segments farther than ~8 sigma from an output node contribute nothing
    # (both endpoint CDFs saturate), and no lag beyond the extension meets
    # one; every row shares the widest row's window
    half = min(int(np.ceil(8.0 * sigma.max() / h)) + 2, m)
    # the kernel is even, so the weight of a node depends only on its
    # distance M h from the output node, M = 0..half: it is built from the
    # lower tail Phi(-z), where z = M h / sigma, and the density there
    z = np.arange(half + 1) * h / sigma
    tail = _norm_cdf(-z)
    with np.errstate(under="ignore"):
        pdf = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
    # the segment from -(M + 1) h to -M h (M < half) carries
    # f_l + (f_r - f_l) s / h; against the kernel it integrates to
    # f_l dcdf + (f_r - f_l) w_r with dcdf = tail_M - tail_{M+1} and
    # w_r = (sigma / h) (pdf_{M+1} - pdf_M) + (M + 1) dcdf
    dcdf = tail[:, :-1] - tail[:, 1:]
    w_r = sigma / h * (pdf[:, 1:] - pdf[:, :-1]) + np.arange(1, half + 1) * dcdf
    w = w[:, None]
    right = w * w_r
    # one_sided[M]: what a node at distance M > 0 gets from the segment
    # between it and the output node, as the left node of segment M - 1
    # (for M = 0, from segment 0, as its right node), and all that an end
    # node of the extension gets; its hat weight adds the right node of
    # segment M, the segment beyond it
    one_sided = np.concatenate([right[:, :1], w * (dcdf - w_r)], axis=1)
    hat = one_sided.copy()
    hat[:, :-1] += right
    # column c of nodes holds extension node c + n - 1 - half, zero beyond
    # the extension; its two end nodes bound one segment each and are
    # added on their own below
    nodes = np.zeros((fe.shape[0], n + 2 * half))
    lo = max(0, half - n + 2)
    nodes[:, lo : n - 1 + half] = fe[:, lo + n - 1 - half : m - 1]
    # Q[M, c] = sum_j (hat weight of row j at distance M) x (node c of row
    # j); output i is node column half + i, and it reads Q[M, half + i + M]
    # and, for M > 0, Q[M, half + i - M]: a diagonal and an antidiagonal
    Q = hat.T @ nodes
    s0, s1 = Q.strides
    strided = np.lib.stride_tricks.as_strided
    ahead = strided(Q[:, half:], shape=(half + 1, n), strides=(s0 + s1, s1))
    behind = strided(Q[1:, half - 1 :], shape=(half, n), strides=(s0 - s1, s1))
    out = ahead.sum(axis=0) + behind.sum(axis=0)
    # the last node lies n - 1 - i ahead of output i, the first n - 1 + i
    # behind it
    ends = one_sided.T @ fe[:, [-1, 0]]
    first = max(0, n - 1 - half)
    out[first:] += ends[: n - first, 0][::-1]
    last = min(n - 1, half - n + 1)
    if last >= 0:
        out[: last + 1] += ends[n - 1 : n + last, 1]
    return out


@dataclass(frozen=True)
class _Duhamel:
    """What a heat solve reads that does not depend on eps: the output
    times and, per output time t, the rows of its one kernel table (lags,
    weights and the odd extensions they carry) and the weighted forcing at
    s = t (0 without a forcing).  Row 0 is the data f0 at lag t and weight
    1; at t > 0 with a forcing, the rows after it are the Duhamel nodes
    s < t, at lags t - s with their trapezoid weights.  The node s = 0 has
    the data's lag t, so both share the table's window."""

    times: np.ndarray
    tables: tuple


def _duhamel_data(p: HeatProblem) -> _Duhamel:
    times = np.linspace(0.0, HEAT_T_END, _HEAT_N_TIMES + 1)
    fe = _odd_extension(p.f0)[None, :]
    tables = []
    for t in times:
        if p.forcing is None or t == 0.0:
            tables.append((np.array([t]), np.ones(1), fe, 0.0))
            continue
        s_nodes = np.linspace(0.0, t, _HEAT_N_QUAD + 1)
        ws = _trap_weights(s_nodes)
        G = np.array([p.forcing(s, p.x) for s in s_nodes], dtype=float)
        lags = np.concatenate([[t], t - s_nodes[:-1]])
        rows = np.concatenate([fe, _odd_extension(G[:-1])])
        # kernel limit at s = t: the convolution tends to the data itself
        tables.append((lags, np.concatenate([[1.0], ws[:-1]]), rows, ws[-1] * G[-1]))
    return _Duhamel(times, tuple(tables))


def _heat_solution(p: HeatProblem, duhamel: _Duhamel) -> np.ndarray:
    """F at the output times of duhamel: one kernel table per output time,
    over the data and the Duhamel nodes."""
    out = np.empty((duhamel.times.size, p.x.size))
    for k, (lags, ws, rows, at_t) in enumerate(duhamel.tables):
        out[k] = _kernel_convolve(p.eps, lags, p.h, rows, ws) + at_t
    out[:, 0] = 0.0
    return out


def heat_solve(p: HeatProblem):
    """Solve the half-line heat problem by odd extension, exact Gaussian
    kernel convolution, and Duhamel quadrature for the forcing: each
    output time applies one kernel table over the data and all its
    quadrature lags.

    Returns (times, F) with F.shape == (_HEAT_N_TIMES + 1, len(p.x)); F[k]
    is the solution at times[k], and F[:, 0] = 0 to quadrature accuracy."""
    duhamel = _duhamel_data(p)
    return duhamel.times, _heat_solution(p, duhamel)


def _x_dx(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """x * d_x f by second-order differences on the 1D grid, along the
    last axis of f."""
    return x * np.gradient(f, x, axis=-1, edge_order=2)


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


def heat_bound_check(x: np.ndarray, f0: np.ndarray, forcing) -> InequalityReport:
    """Diffusion-uniform weighted gradient bound:

        ||x dx F(t)||_inf <= C (||F0||_inf + ||x dx F0||_inf)
                             + C int_0^t (||G||_inf + ||x dx G||_inf),

    with C independent of eps, on t in [0, 1] and the fixed ladder
    HEAT_EPS_LADDER.  Asserts max/min of the per-eps ratio over the ladder
    <= HEAT_SPREAD_MAX and every ratio <= HEAT_CSTAR.

    Everything that does not depend on eps is built once for the ladder:
    the Duhamel nodes and forcing samples of heat_solve and the data
    functional.  Each eps takes x dx of all its output times at once."""
    problems = [HeatProblem(eps=eps, x=x, f0=f0, forcing=forcing) for eps in HEAT_EPS_LADDER]
    duhamel = _duhamel_data(problems[0])
    denom = heat_data_functional(problems[0], duhamel.times)
    ratios = {}
    for p in problems:
        num = float(np.max(np.abs(_x_dx(p.x, _heat_solution(p, duhamel)))))
        ratios[p.eps] = _check_ratio(num, denom)
    worst = max(ratios.values())
    nonzero = [r for r in ratios.values() if r > 0]
    spread = max(nonzero) / min(nonzero) if nonzero else 1.0
    spread_max = HEAT_SPREAD_MAX
    rep = _make_report(
        "heat_bound",
        worst,
        1.0,
        HEAT_CSTAR,
        0.0,
        {"ratios": ratios, "spread": spread, "spread_max": spread_max},
    )
    return replace(rep, passed=rep.passed and spread <= spread_max)
