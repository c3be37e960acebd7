"""Weighted and conormal norms: closed-form oracles and norm properties."""
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from blmhd import norms
from blmhd.data import physical, shifted
from blmhd.grid import Field, GridSpec, field_from_function
from blmhd.norms import (
    NormSpec,
    b_norms,
    conormal_linf,
    conormal_norm,
    conormal_walk,
    index_set,
    weighted_l2,
    weighted_linf,
)
from blmhd.operators import d2x, d2y, dx, dy, phi, z2
from blmhd.pde import Physics, TimeTower, apply_spatial, exp_minus_y
from blmhd.state import initial_state
from blmhd.state import MultiIndex

from conftest import per_index_norm, perturbed_state


def _grid(nx=8, ny=512):
    return GridSpec(nx=nx, ny=ny, y_max=15.0, stretch=2.0)


def _exp_field(grid):
    return field_from_function(grid, lambda x, y: np.exp(-y))


def test_weighted_l2_closed_forms():
    grid = _grid()
    f = _exp_field(grid)
    # l = 0: sqrt(2 pi * 1/2) = sqrt(pi)
    assert weighted_l2(f, 0.0) == pytest.approx(np.sqrt(np.pi), rel=1e-4)
    # l = 1: integral (1+y)^2 e^{-2y} = 5/4
    assert weighted_l2(f, 1.0) == pytest.approx(
        np.sqrt(2.0 * np.pi * 1.25), rel=1e-4
    )


def test_weighted_linf_oracles():
    grid = _grid()
    f = _exp_field(grid)
    # max (1+y) e^{-y} = 1 attained at the wall node itself
    assert weighted_linf(f, 1.0) == pytest.approx(1.0, rel=1e-12)
    g = field_from_function(grid, lambda x, y: y * np.exp(-y))
    # max y e^{-y} = e^{-1} at y = 1
    assert weighted_linf(g, 0.0) == pytest.approx(np.exp(-1.0), rel=1e-4)
    # y-cap restriction
    assert weighted_linf(g, 0.0, y_cap=0.1) < weighted_linf(g, 0.0)


_WEIGHT_GRIDS = [
    GridSpec(nx=16, ny=48, y_max=15.0, stretch=stretch, x_scheme=x_scheme)
    for x_scheme in ("fd4", "spectral")
    for stretch in (0.0, 2.0)
]


@pytest.mark.parametrize("grid", _WEIGHT_GRIDS, ids=lambda g: f"{g.x_scheme}-s{g.stretch:g}")
def test_weighted_norms_equal_the_inline_formulas(grid):
    # the formulas before the weights were cached, as references bit for bit
    def l2_inline(f, l):
        w = (1.0 + f.grid.y) ** (2.0 * l)
        return float(np.sqrt(np.sum(f.grid.weight_2d * w[None, :] * f.values**2)))

    def linf_inline(f, l, y_cap=None):
        w = (1.0 + f.grid.y) ** l
        vals = np.abs(w[None, :] * f.values)
        if y_cap is not None:
            vals = vals[:, f.grid.y <= y_cap]
        return float(vals.max())

    f = perturbed_state(grid).u_shift
    for z in (f, dx(f), z2(dy(f))):
        for l in (0, 0.5, 1.0, 2.0):
            assert weighted_l2(z, l) == l2_inline(z, l)
            for y_cap in (None, 5.0, 0.5):
                assert weighted_linf(z, l, y_cap) == linf_inline(z, l, y_cap)


def test_cached_weights_refuse_writes_and_stay_small():
    grid = _grid(ny=64)
    for cache, shape in ((norms._l2_weight, (grid.nx, grid.ny)), (norms._linf_weight, (grid.ny,))):
        w = cache(grid, 1.0)
        assert w.shape == shape
        assert cache(grid, 1.0) is w
        with pytest.raises(ValueError):
            w[0] = 0.0
        for l in range(12):
            cache(grid, float(l))
        assert cache.cache_info().currsize <= 8


def test_index_set_modes():
    full = index_set(2, "full")
    capped = index_set(2, "tangential-capped")
    tang = index_set(2, "tangential-only")
    assert len(full) == 10  # all |alpha| <= 2 in 3 slots
    assert all(i.tangential_order <= 1 for i in capped)
    assert all(i.is_tangential() for i in tang)
    assert set(tang) <= set(full)
    assert MultiIndex(0, 2, 0) in full and MultiIndex(0, 2, 0) not in capped


def test_conormal_norm_zero_and_static_oracle():
    grid = _grid()
    zero = field_from_function(grid, lambda x, y: 0.0 * y)
    assert conormal_norm(zero, NormSpec(2, 1.0, "full")) == 0.0
    f = _exp_field(grid)
    # static e^{-y}, m=1, l=0, full: sqrt(pi + ||Z2 e^{-y}||^2)
    i_phi, _ = integrate.quad(lambda y: phi(np.array([y]))[0] ** 2 * np.exp(-2 * y), 0, 50)
    expected = np.sqrt(np.pi + 2.0 * np.pi * i_phi)
    got = conormal_norm(f, NormSpec(1, 0.0, "full"))
    assert got == pytest.approx(expected, rel=1e-3)


def test_conormal_norm_tangential_only_collapses_for_static_1d():
    grid = _grid()
    f = _exp_field(grid)
    got = conormal_norm(f, NormSpec(2, 0.0, "tangential-only"))
    assert got == pytest.approx(weighted_l2(f, 0.0), rel=1e-12)


def test_conormal_linf_matches_weighted_linf_at_order_zero():
    grid = _grid(ny=128)
    f = field_from_function(grid, lambda x, y: np.exp(-(y**2)) * np.cos(x))
    assert conormal_linf(f, NormSpec(0, 1.0, "full")) == pytest.approx(
        weighted_linf(f, 1.0)
    )


def _tower_families(grid):
    tower = TimeTower(perturbed_state(grid), physics=Physics(eps=0.02))
    return [partial(tower.field, n) for n in ("rho", "u", "h")]


@pytest.mark.parametrize("x_scheme", ["fd4", "spectral"])
def test_conormal_walk_matches_apply_spatial(x_scheme):
    grid = GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0, x_scheme=x_scheme)
    fams = _tower_families(grid)
    static = field_from_function(grid, lambda x, y: np.sin(x) * y * np.exp(-y))
    walked = list(conormal_walk((*fams, static), 3))
    assert [idx for idx, _ in walked] == index_set(3, "full")
    for idx, zs in walked:
        for fam, z in zip(fams, zs):
            assert np.array_equal(z.values, apply_spatial(fam(idx.t_count), idx).values)
        if idx.t_count == 0:
            assert np.array_equal(zs[-1].values, apply_spatial(static, idx).values)
        else:
            assert zs[-1] is None  # static data: its time derivatives are zero
    # canonical order t, x, Z2: Z^(0,1,1) f = Z2 Z1 f
    assert np.array_equal(dict(walked)[MultiIndex(0, 1, 1)][-1].values, z2(dx(static)).values)


@pytest.mark.parametrize("mode", ["full", "tangential-capped", "tangential-only"])
def test_conormal_walk_takes_only_what_the_mode_reads(mode, monkeypatch):
    grid = GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0)
    towers = _tower_families(grid)
    levels = []
    calls = {"dx": 0, "z2": 0}

    def counted_family(fam):
        def counted(k):
            levels.append(k)
            return fam(k)

        return counted

    def counted_op(name):
        op = getattr(norms, name)

        def counted(f):
            calls[name] += 1
            return op(f)

        return counted

    for name in calls:
        monkeypatch.setattr(norms, name, counted_op(name))
    fams = [counted_family(f) for f in towers]
    walked = list(conormal_walk(fams, 3, mode))
    wanted = index_set(3, mode)
    assert [idx for idx, _ in walked] == wanted
    for idx, zs in walked:
        for fam, z in zip(towers, zs):
            assert np.array_equal(z.values, apply_spatial(fam(idx.t_count), idx).values)
    # one dx per row head and one z2 per chain element the mode reads
    heads = sum(1 for i in wanted if i.z2_count == 0 and i.x_count > 0)
    assert calls == {"dx": 3 * heads, "z2": 3 * sum(1 for i in wanted if i.z2_count > 0)}
    assert sorted(levels) == sorted(3 * sorted({i.t_count for i in wanted}))


@pytest.mark.parametrize("mode", ["full", "tangential-capped", "tangential-only"])
def test_walked_norms_equal_the_per_index_formula(mode):
    grid = GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0)
    fr, fu, fh = _tower_families(grid)
    static = field_from_function(grid, lambda x, y: np.cos(x) * np.exp(-(y**2)))
    fams = (fr, static, lambda k: dy(fh(k)), fu)
    spec = NormSpec(3, 1.5, mode)
    assert conormal_norm(fams, spec) == per_index_norm(fams, spec, lambda z: weighted_l2(z, 1.5))
    for y_cap in (None, 4.0):
        assert conormal_linf(fams, spec, y_cap=y_cap) == per_index_norm(
            fams, spec, lambda z: weighted_linf(z, 1.5, y_cap)
        )


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec(-1, 0.0)
    with pytest.raises(ValueError):
        NormSpec(1, 0.0, "weird")


def _random_smooth_field(grid, coeffs):
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    out = np.zeros_like(X)
    for k, (a, b) in enumerate(coeffs, start=1):
        out += a * np.cos(k * X) * np.exp(-(Y**2)) + b * np.sin(k * X) * Y * np.exp(-Y)
    return Field(out, grid)


coeff_strategy = st.lists(
    st.tuples(
        st.floats(-1.0, 1.0, allow_nan=False),
        st.floats(-1.0, 1.0, allow_nan=False),
    ),
    min_size=1,
    max_size=2,
)


@settings(max_examples=15, deadline=None)
@given(coeffs=coeff_strategy, c=st.floats(-4.0, 4.0, allow_nan=False))
def test_conormal_norm_homogeneity(coeffs, c):
    grid = GridSpec(nx=8, ny=32, y_max=10.0, stretch=1.0)
    f = _random_smooth_field(grid, coeffs)
    spec = NormSpec(2, 1.0, "full")
    n1 = conormal_norm(f, spec)
    n2 = conormal_norm(Field(c * f.values, grid), spec)
    assert n2 == pytest.approx(abs(c) * n1, rel=1e-10, abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(coeffs=coeff_strategy)
def test_conormal_norm_monotonicity(coeffs):
    grid = GridSpec(nx=8, ny=32, y_max=10.0, stretch=1.0)
    f = _random_smooth_field(grid, coeffs)
    full = conormal_norm(f, NormSpec(2, 1.0, "full"))
    capped = conormal_norm(f, NormSpec(2, 1.0, "tangential-capped"))
    tang = conormal_norm(f, NormSpec(2, 1.0, "tangential-only"))
    # tangential-capped and tangential-only are each subsets of full, but
    # neither contains the other (capped admits Z2 terms, tang admits Z1^m)
    assert full >= capped - 1e-12 and full >= tang - 1e-12
    # order monotonicity and weight monotonicity
    assert conormal_norm(f, NormSpec(3, 1.0, "full")) >= full - 1e-12
    assert weighted_l2(f, 2.0) >= weighted_l2(f, 1.0) - 1e-12


# ---------------------------------------------------------------------------
# Composite data norms of the physical triple
# ---------------------------------------------------------------------------


def _ones(grid):
    return Field(np.ones((grid.nx, grid.ny)), grid)


def test_b_norms_outer_state_is_zero():
    grid = _grid(ny=64)
    one = _ones(grid)
    b_bar, b_hat, _ = b_norms(one, one, one, m=1, l=2.0, mu=1.0, kappa=1.0)
    assert b_bar < 1e-20 and b_hat < 1e-18


def test_b_norms_lower_bound_by_order_zero_term():
    grid = _grid(ny=128)
    one = _ones(grid)
    h1 = field_from_function(grid, lambda x, y: 1.0 + np.exp(-(y**2)))
    b_bar, _, _ = b_norms(one, one, h1, m=1, l=2.0, mu=1.0, kappa=1.0)
    hs = field_from_function(grid, lambda x, y: np.exp(-(y**2)))
    assert np.sqrt(b_bar) >= weighted_l2(hs, 2.0) - 1e-10


def test_b_norms_exponential_density_oracle():
    # rho = 1 + a e^{-y}, u1 = h1 = 1, m = 1, l = 0: all time derivatives
    # vanish, so b_bar splits into quadrature-computable pieces.
    a = 0.04
    grid = _grid()
    rho = field_from_function(grid, lambda x, y: 1.0 + a * np.exp(-y))
    one = _ones(grid)
    b_bar, b_hat, details = b_norms(rho, one, one, m=1, l=0.0, mu=1.0, kappa=1.0)
    i_phi, _ = integrate.quad(
        lambda y: phi(np.array([y]))[0] ** 2 * np.exp(-2 * y), 0, 50
    )
    expected = (
        2.0 * np.pi * a**2 * (0.5 + i_phi)  # H^1_0 of the shifted triple
        + 2.0 * np.pi * a**2 * 0.5  # H^0_0 of the normal derivatives
        + a**2 * (1.0 + np.exp(-2.0))  # weighted L-infinity of d_y rho
    )
    assert b_bar == pytest.approx(expected, rel=2e-3)
    assert details["bar_linf_sq"] == pytest.approx(
        a**2 * (1.0 + np.exp(-2.0)), rel=1e-3
    )
    assert b_hat > 0.0  # the d_y rho group feeds the hat norm
    assert details["hat_linf_y5_sq"] <= details["hat_groups"][0]["linf_second"] + 1e-15


def _b_norms_per_shift(rho, u1, h1, m, l):
    """b_norms as one conormal walk per time shift i < m: the reference the
    shared walk must equal bit for bit."""
    grid = rho.grid
    E_field = Field(np.broadcast_to(exp_minus_y(grid), (grid.nx, grid.ny)), grid)
    tower = TimeTower(
        initial_state(grid, *shifted(rho, u1, h1)),
        max_depth=2 * m + 1,
        physics=Physics(1.0, 1.0, eps=0.0),
    )
    fr, fu, fh = (partial(tower.field, n) for n in ("rho", "u", "h"))

    def fu1(k):
        return fu(k) - E_field if k == 0 else fu(k)

    dxr, dxu, dxh = (partial(tower.deriv, "x", n) for n in ("rho", "u", "h"))
    dyr, dyh = (partial(tower.deriv, "y", n) for n in ("rho", "h"))
    full_m, full_m1 = NormSpec(m, l), NormSpec(m - 1, l)
    bar_triple = conormal_norm((fr, fu1, fh), full_m) ** 2
    bar_dy = conormal_norm((dyr, lambda k: dy(fu1(k)), dyh), full_m1) ** 2
    bar_linf = conormal_linf(dyr, NormSpec(1, 1.0)) ** 2
    hat, hat_y5, groups = 0.0, 0.0, []
    for i in range(m):
        quad = tuple((lambda k, f=f: f(k + i)) for f in (dxr, dyr, dxu, dxh))
        second = (lambda k: dy(d2x(fr(k + i))), lambda k: dy(d2y(fr(k + i))))
        g1 = conormal_norm(quad, full_m) ** 2
        g2 = conormal_linf(second, NormSpec(1, 0.0)) ** 2
        g2_y5 = conormal_linf(second, NormSpec(1, 0.0), y_cap=5.0) ** 2
        g3 = conormal_norm(tuple(lambda k, q=q: dy(q(k)) for q in quad), full_m1) ** 2
        hat += g1 + g2 + g3
        hat_y5 += g2_y5
        groups.append({"first_deriv_hm": g1, "linf_second": g2, "dy_hm1": g3})
    details = {
        "bar_triple_sq": bar_triple,
        "bar_dy_sq": bar_dy,
        "bar_linf_sq": bar_linf,
        "hat_groups": groups,
        "hat_linf_y5_sq": hat_y5,
    }
    return float(bar_triple + bar_dy + bar_linf), float(hat), details


@pytest.mark.parametrize("m", [1, 2, 3])
def test_b_norms_equal_one_walk_per_time_shift(m):
    grid = GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0)
    rho, u1, h1 = physical(perturbed_state(grid))
    got = b_norms(rho, u1, h1, m=m, l=1.5, mu=1.0, kappa=1.0)
    assert got == _b_norms_per_shift(rho, u1, h1, m, 1.5)
    assert len(got[2]["hat_groups"]) == m


def test_b_norms_takes_each_tower_level_and_derivative_once(monkeypatch):
    # at m = 3 one walk per time shift made 450 weighted_l2, 52 weighted_linf,
    # 148 dx, 223 z2 and 63 dy calls; a quarter of them were repeats
    grid = GridSpec(nx=8, ny=32, y_max=15.0, stretch=1.0)
    calls = dict.fromkeys(("weighted_l2", "weighted_linf", "dx", "z2", "dy", "d2x", "d2y"), 0)

    def counted(name):
        fn = getattr(norms, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(norms, name, counted(name))
    b_norms(*physical(perturbed_state(grid)), m=3, l=1.0, mu=1.0, kappa=1.0)
    assert calls == {
        "weighted_l2": 338,
        "weighted_linf": 44,
        "dx": 110,
        "z2": 177,
        "dy": 31,
        "d2x": 4,
        "d2y": 4,
    }


def test_b_norms_requires_m_at_least_one():
    grid = _grid(ny=64)
    one = _ones(grid)
    with pytest.raises(ValueError):
        b_norms(one, one, one, m=0, l=0.0, mu=1.0, kappa=1.0)
