"""Calculus-inequality checks: Hardy, Sobolev, Moser, and the heat bound."""
import math

import numpy as np
import pytest
from scipy.special import ndtr

from blmhd import inequalities
from blmhd.grid import GridSpec, field_from_function, zero_field
from blmhd.inequalities import (
    HEAT_T_END,
    HeatProblem,
    _check_ratio,
    _erfc,
    _norm_cdf,
    hardy_check,
    heat_bound_check,
    heat_data_functional,
    heat_solve,
    moser_check,
    sobolev_check,
)
from blmhd.state import MultiIndex


def _grid(nx=8, ny=512):
    return GridSpec(nx=nx, ny=ny, y_max=15.0, stretch=0.0)


def test_the_check_ratio_takes_0_over_0_to_0_and_x_over_0_to_infinity():
    assert _check_ratio(0.0, 0.0) == 0.0
    assert _check_ratio(1e-300, 0.0) == np.inf
    assert _check_ratio(1.0, 4.0) == 0.25


# ---------------------------------------------------------------------------
# Hardy
# ---------------------------------------------------------------------------


def test_hardy_zero_field():
    grid = _grid(ny=64)
    rep = hardy_check(zero_field(grid), 0.0)
    assert rep.ratio == 0.0 and rep.passed


def test_hardy_gamma_integral_oracle():
    # f = y e^{-y}, lambda = 0: lhs^2 = pi/2, rhs^2 = 6 pi, ratio ~ 0.2887
    grid = _grid(ny=2048)
    f = field_from_function(grid, lambda x, y: y * np.exp(-y))
    rep = hardy_check(f, 0.0)
    assert rep.lhs**2 == pytest.approx(np.pi / 2.0, rel=1e-3)
    assert (rep.constant * rep.rhs) ** 2 == pytest.approx(6.0 * np.pi, rel=1e-3)
    assert rep.ratio == pytest.approx(np.sqrt(1.0 / 12.0), rel=1e-3)
    assert rep.passed


def test_hardy_preconditions():
    grid = _grid(ny=64)
    f = field_from_function(grid, lambda x, y: y * np.exp(-y))
    with pytest.raises(ValueError):
        hardy_check(f, -0.5)
    nonzero_wall = field_from_function(grid, lambda x, y: np.exp(-y))
    with pytest.raises(ValueError):
        hardy_check(nonzero_wall, 0.0)
    non_decaying = field_from_function(grid, lambda x, y: 1.0 - np.exp(-y))
    with pytest.raises(ValueError):
        hardy_check(non_decaying, 0.0)


# ---------------------------------------------------------------------------
# Sobolev
# ---------------------------------------------------------------------------


def test_sobolev_zero_guarded():
    grid = _grid(ny=64)
    rep = sobolev_check(zero_field(grid))
    assert rep.ratio == 0.0 and rep.passed


def test_sobolev_exponential_oracle():
    grid = _grid()
    f = field_from_function(grid, lambda x, y: np.exp(-y))
    rep = sobolev_check(f)
    assert rep.lhs == pytest.approx(1.0, rel=1e-12)
    # rhs = ||f|| + ||dy f|| = 2 sqrt(pi); x-derivative terms vanish
    assert rep.rhs == pytest.approx(2.0 * np.sqrt(np.pi), rel=1e-3)
    assert rep.metadata["raw_ratio"] == pytest.approx(
        1.0 / (2.0 * np.sqrt(np.pi)), rel=1e-3
    )
    assert rep.passed


def test_sobolev_oscillating_within_constant():
    grid = _grid(nx=32, ny=256)
    f = field_from_function(grid, lambda x, y: np.exp(-y) * np.sin(x))
    rep = sobolev_check(f)
    assert 0.0 < rep.ratio <= 1.0
    assert rep.passed


# ---------------------------------------------------------------------------
# Moser
# ---------------------------------------------------------------------------


def _moser_series(grid, times):
    f_series = [
        field_from_function(grid, lambda x, y, t=t: np.exp(-t) * np.exp(-y))
        for t in times
    ]
    return f_series


def test_moser_index_mismatch_rejected():
    grid = _grid(ny=64)
    times = np.array([0.0, 1.0])
    f = _moser_series(grid, times)
    with pytest.raises(ValueError):
        moser_check(f, f, times, MultiIndex(0, 0, 1), MultiIndex(0, 0, 1), 3, 0.0, 0.0)
    with pytest.raises(ValueError):
        moser_check(f, f, times, MultiIndex(1, 0, 0), MultiIndex(0, 0, 1), 2, 0.0, 0.0)
    with pytest.raises(ValueError):
        moser_check(f, f[:1], times, MultiIndex(0, 0, 1), MultiIndex(0, 0, 1), 2, 0.0, 0.0)


def test_moser_zero_lhs():
    grid = _grid(ny=64)
    times = np.array([0.0, 1.0])
    z = [zero_field(grid), zero_field(grid)]
    f = _moser_series(grid, times)
    rep = moser_check(z, f, times, MultiIndex(0, 0, 1), MultiIndex(0, 0, 1), 2, 0.0, 0.0)
    assert rep.lhs == 0.0 and rep.passed


def test_moser_static_exponential_within_constant():
    grid = _grid(ny=256)
    times = np.array([0.0, 0.5, 1.0])
    f = [field_from_function(grid, lambda x, y: np.exp(-y)) for _ in times]
    rep = moser_check(f, f, times, MultiIndex(0, 0, 1), MultiIndex(0, 0, 1), 2, 0.0, 0.0)
    assert np.isfinite(rep.ratio) and rep.passed


def test_moser_linear_growth_in_time_for_static_data():
    grid = _grid(ny=128)
    beta = gamma = MultiIndex(0, 0, 1)
    lhs = {}
    for t_end in (0.5, 1.0, 2.0):
        times = np.linspace(0.0, t_end, 5)
        f = [field_from_function(grid, lambda x, y: np.exp(-y)) for _ in times]
        rep = moser_check(f, f, times, beta, gamma, 2, 0.0, 0.0)
        lhs[t_end] = rep.lhs
    assert lhs[1.0] == pytest.approx(2.0 * lhs[0.5], rel=1e-10)
    assert lhs[2.0] == pytest.approx(4.0 * lhs[0.5], rel=1e-10)


# ---------------------------------------------------------------------------
# Heat equation on the half line
# ---------------------------------------------------------------------------


def _x_axis():
    return np.linspace(0.0, 12.0, 241)


def test_heat_problem_validation():
    x = _x_axis()
    f0 = x * np.exp(-x)
    with pytest.raises(ValueError):
        HeatProblem(eps=0.0, x=x, f0=f0)
    with pytest.raises(ValueError):
        HeatProblem(eps=0.1, x=x + 1.0, f0=f0)
    with pytest.raises(ValueError):
        HeatProblem(eps=0.1, x=x, f0=f0 + 1.0)
    with pytest.raises(ValueError, match="2 nodes"):
        HeatProblem(eps=0.1, x=[0.0], f0=[0.0])
    xq = np.linspace(0.0, 1.0, 11) ** 2
    with pytest.raises(ValueError, match="uniform"):
        HeatProblem(eps=0.1, x=xq, f0=xq * np.exp(-xq))


def test_heat_solve_zero_data():
    x = _x_axis()
    p = HeatProblem(eps=0.01, x=x, f0=np.zeros_like(x))
    _, F = heat_solve(p)
    assert np.max(np.abs(F)) == 0.0


def test_heat_solve_maximum_principle_and_wall():
    x = _x_axis()
    f0 = x * np.exp(-x)
    p = HeatProblem(eps=0.01, x=x, f0=f0)
    times, F = heat_solve(p)
    assert np.all(F[:, 0] == 0.0)
    assert np.max(np.abs(F)) <= np.exp(-1.0) + 1e-10


def test_heat_solve_duhamel_bound():
    # f0 = 0, G = x e^{-x} constant in t: ||F(t)||_inf <= t e^{-1}
    x = _x_axis()
    p = HeatProblem(
        eps=0.01, x=x, f0=np.zeros_like(x), forcing=lambda s, xs: xs * np.exp(-xs),
    )
    times, F = heat_solve(p)
    for k, t in enumerate(times):
        if t > 0:
            assert np.max(np.abs(F[k])) <= t * np.exp(-1.0) * (1.0 + 1e-6)


def _free_solution(eps, t, x, a=1.0):
    # x e^{-x^2/4a} is odd, so the whole-line heat flow keeps F(t, 0) = 0:
    # S(t, x) = x (a / (a + eps t))^{3/2} e^{-x^2 / 4 (a + eps t)}
    b = a + eps * t
    return x * (a / b) ** 1.5 * np.exp(-(x**2) / (4.0 * b))


def _oracle_error(n, eps):
    """Max error over the free case and the Duhamel case: f0 = 0 with
    forcing G = S has the solution F(t) = t S(t)."""
    x = np.linspace(0.0, 12.0, n)
    S = lambda t, xs: _free_solution(eps, t, xs)
    times, F = heat_solve(HeatProblem(eps=eps, x=x, f0=S(0.0, x)))
    _, Fd = heat_solve(HeatProblem(eps=eps, x=x, f0=np.zeros_like(x), forcing=S))
    exact = np.array([S(t, x) for t in times])
    return max(np.max(np.abs(F - exact)), np.max(np.abs(Fd - times[:, None] * exact)))


@pytest.mark.parametrize("eps", [1e-1, 1e-4])
def test_heat_solve_exact_solution_oracle(eps):
    coarse, fine = _oracle_error(241, eps), _oracle_error(481, eps)
    assert coarse <= 3e-4
    assert coarse / fine >= 3.0


def test_heat_solve_exact_for_linear_data_up_to_the_ends():
    # the interpolant of f0 = x is exact and the odd extension stops at
    # |x| = L, so F(t, x) = int_{-L}^{L} K(x - xi) xi dxi in closed form
    x = _x_axis()
    L = x[-1]
    pdf = lambda z: np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
    for eps in (1e-1, 1e-3):
        times, F = heat_solve(HeatProblem(eps=eps, x=x, f0=x.copy()))
        for t, Ft in zip(times[1:], F[1:]):
            sigma = np.sqrt(2.0 * eps * t)
            a, b = (-L - x) / sigma, (L - x) / sigma
            exact = x * (ndtr(b) - ndtr(a)) + sigma * (pdf(a) - pdf(b))
            assert np.max(np.abs(Ft - exact)) <= 1e-12 * L


def _reference_heat_solve(p, n_times=8, n_quad=64):
    """Duhamel quadrature as one kernel convolution per quadrature node,
    each with its own window and scipy's ndtr for the normal CDF."""
    h = p.h

    def convolve(t, fe):
        n = (fe.size + 1) // 2
        if t == 0.0:
            return fe[n - 1 :]
        sigma = np.sqrt(2.0 * p.eps * t)
        half = min(int(np.ceil(8.0 * sigma / h)) + 2, fe.size)
        lags = np.arange(-half, half + 1)
        z = lags * h / sigma
        cdf = ndtr(z)
        with np.errstate(under="ignore"):
            pdf = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
        dcdf = np.diff(cdf)
        w_r = sigma / h * (pdf[:-1] - pdf[1:]) - lags[:-1] * dcdf
        pad = np.zeros(half)
        left = np.concatenate([pad, fe[:-1], pad])[n - 1 :]
        right = np.concatenate([pad, fe[1:], pad])[n - 1 :]
        return np.correlate(left, dcdf - w_r, "valid") + np.correlate(right, w_r, "valid")

    odd = lambda f: np.concatenate([-f[:0:-1], f])
    times = np.linspace(0.0, HEAT_T_END, n_times + 1)
    out = np.empty((n_times + 1, p.x.size))
    for k, t in enumerate(times):
        F = convolve(t, odd(p.f0))
        if t > 0.0:
            s_nodes = np.linspace(0.0, t, n_quad + 1)
            d = 0.5 * np.diff(s_nodes)
            ws = np.concatenate([d, [0.0]]) + np.concatenate([[0.0], d])
            for s, w in zip(s_nodes, ws):
                gs = p.forcing(s, p.x)
                F = F + w * (gs if s == t else convolve(t - s, odd(gs)))
        out[k] = F
    out[:, 0] = 0.0
    return times, out


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4])
def test_heat_solve_duhamel_matches_per_node_reference(eps):
    x = _x_axis()
    p = HeatProblem(
        eps=eps,
        x=x,
        f0=x * np.exp(-x),
        forcing=lambda s, xs: np.cos(3.0 * s) * xs**2 * np.exp(-xs),
    )
    times, F = heat_solve(p)
    ref_times, ref = _reference_heat_solve(p)
    assert np.array_equal(times, ref_times)
    assert np.max(np.abs(F - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_norm_cdf_matches_ndtr():
    z = np.linspace(-40.0, 40.0, 8001)
    got, ref = _norm_cdf(z), ndtr(z)
    err = np.abs(got - ref)
    assert np.max(err) <= 1e-15
    # relative accuracy in the lower tail, wherever ndtr is a normal float
    tiny = np.finfo(float).tiny
    lower = (z <= 0.0) & (ref >= tiny)
    assert np.all(err[lower] <= 1e-13 * ref[lower])
    assert np.all(err[ref < tiny] <= tiny)


@pytest.mark.parametrize("eps", [1.0, 1e-1, 1e-4])
def test_heat_solve_wide_window_matches_per_node_reference(eps):
    # 21 nodes: at eps 1 and 0.1 the kernel window spans more than the
    # half line, so the first node of the extension reaches the outputs
    x = np.linspace(0.0, 2.0, 21)
    p = HeatProblem(
        eps=eps,
        x=x,
        f0=x * np.exp(-x),
        forcing=lambda s, xs: np.cos(3.0 * s) * xs**2 * np.exp(-xs),
    )
    _, F = heat_solve(p)
    _, ref = _reference_heat_solve(p)
    assert np.max(np.abs(F - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_erfc_within_8_ulp_of_libm_and_symmetric():
    x = np.concatenate(
        [np.linspace(-7.0, 26.0, 33001), np.linspace(0.46, 0.48, 201), np.linspace(3.99, 4.01, 201)]
    )
    got = _erfc(x)
    ref = np.array([math.erfc(v) for v in x])
    assert np.max(np.abs(got - ref) / np.spacing(ref)) <= 8.0
    pos = x[x >= 0.0]
    assert np.array_equal(_erfc(-pos), 2.0 - _erfc(pos))


def _cli_heat_corpus(calls):
    x = np.linspace(0.0, 12.0, 241)

    def forcing(s, xs):
        calls.append(s)
        return np.sin(s) * xs * np.exp(-xs)

    return x, x * np.exp(-x), forcing


def test_heat_bound_ratios_are_per_eps_solves():
    """The ladder shares its eps-free data; each ratio is still, bit for
    bit, that of a heat_solve and a heat_data_functional at its eps."""
    x, f0, forcing = _cli_heat_corpus([])
    rep = heat_bound_check(x, f0, forcing)
    assert list(rep.metadata["ratios"]) == [1e-1, 1e-2, 1e-3, 1e-4]
    for eps, ratio in rep.metadata["ratios"].items():
        p = HeatProblem(eps=eps, x=x, f0=f0, forcing=forcing)
        times, F = heat_solve(p)
        num = max(float(np.max(np.abs(x * np.gradient(Fk, x, edge_order=2)))) for Fk in F)
        assert ratio == num / heat_data_functional(p, times)


def test_heat_bound_samples_the_forcing_once_per_ladder():
    # once per ladder, not per eps: 8 output times of 65 Duhamel nodes, and
    # the 9 times of the data functional
    calls = []
    heat_bound_check(*_cli_heat_corpus(calls))
    assert len(calls) == 8 * 65 + 9


def test_a_spread_over_its_bound_fails_the_heat_check(monkeypatch):
    # the bounds are read when the check runs, so a tighter one applies
    monkeypatch.setattr(inequalities, "HEAT_SPREAD_MAX", 1.0)
    rep = heat_bound_check(*_cli_heat_corpus([]))
    assert max(rep.metadata["ratios"].values()) <= inequalities.HEAT_CSTAR
    assert rep.ratio <= 1.0 and rep.metadata["spread"] > rep.metadata["spread_max"] == 1.0
    assert rep.passed is False


def test_heat_data_functional_calculus_oracle():
    # max |x (1-x) e^{-x}| ~ 0.3092 at x = (3 + sqrt 5)/2; plus max f0 = 1/e
    x = np.linspace(0.0, 12.0, 4801)
    f0 = x * np.exp(-x)
    p = HeatProblem(eps=0.01, x=x, f0=f0)
    got = heat_data_functional(p, np.array([0.0]))
    xs = (3.0 + np.sqrt(5.0)) / 2.0
    expected = np.exp(-1.0) + abs(xs * (1.0 - xs) * np.exp(-xs))
    assert got == pytest.approx(expected, rel=1e-4)


def test_heat_bound_zero_data():
    x = _x_axis()
    rep = heat_bound_check(x, np.zeros_like(x), None)
    assert rep.ratio == 0.0 and rep.passed


def test_heat_bound_uniform_in_eps():
    x = _x_axis()
    f0 = x * np.exp(-x)
    rep = heat_bound_check(x, f0, None)
    assert rep.passed
    assert rep.metadata["spread"] <= rep.metadata["spread_max"]
