"""Compatibility-source bootstrap and the Taylor evaluation of the source
terms the equations read."""
import numpy as np
import pytest

from blmhd.grid import Field, GridSpec, field_from_function
from blmhd.operators import dx, dy
from blmhd.pde import DensityFloorError
from blmhd.sources import SourceBundle, bootstrap_time_derivatives


def _grid(nx=32, ny=128):
    return GridSpec(nx=nx, ny=ny, y_max=15.0, stretch=2.0)


def _ones(grid):
    return Field(np.ones((grid.nx, grid.ny)), grid)


def _derivative_terms(r1, r2, ru, rh):
    """(dx r1, dy r2, dx ru, dx rh): what the equations read of the sources."""
    return dx(r1), dy(r2), dx(ru), dx(rh)


def _varying_bundle(grid, m):
    rho = field_from_function(grid, lambda x, y: 1.0 + 0.05 * np.exp(-(y**2)) * np.cos(x))
    u1 = field_from_function(grid, lambda x, y: 1.0 + 0.05 * y**2 * np.exp(-(y**2)) * np.sin(x))
    h1 = field_from_function(grid, lambda x, y: 1.0 + 0.03 * np.exp(-(y**2)) * np.cos(x))
    return bootstrap_time_derivatives(rho, u1, h1, m=m, mu=1.0, kappa=1.0)


def test_equilibrium_bundle_is_identically_zero():
    grid = _grid(nx=8, ny=48)
    one = _ones(grid)
    bundle = bootstrap_time_derivatives(one, one, one, m=2, mu=1.0, kappa=1.0)
    for level in bundle.levels:
        for comp in level:
            assert comp.max_abs() < 1e-12
    for t in (0.0, 0.3, 5.0):
        for f in bundle.fields(grid, t):
            assert f.max_abs() < 1e-11


def test_level_zero_equals_direct_spatial_derivatives():
    grid = _grid()
    rho = field_from_function(grid, lambda x, y: 1.0 + 0.05 * np.exp(-(y**2)) * np.cos(x))
    u1 = field_from_function(grid, lambda x, y: 1.0 + 0.05 * y**2 * np.exp(-(y**2)) * np.sin(x))
    h1 = _ones(grid)
    bundle = bootstrap_time_derivatives(rho, u1, h1, m=1, mu=1.0, kappa=1.0)
    lvl0 = bundle.levels[0]
    assert np.array_equal(lvl0[0].values, dx(rho).values)
    # dy acts on the deviation internally, so allow constant-offset roundoff
    assert np.max(np.abs(lvl0[1].values - dy(rho).values)) < 1e-14
    # u-entry uses the shifted field; its x-derivative equals dx of u1
    assert np.max(np.abs(lvl0[2].values - dx(u1).values)) < 1e-12
    assert lvl0[3].max_abs() < 1e-12  # h1 constant


def test_transport_oracle_for_density_tendency():
    # rho0 = 1 + a e^{-y} cos x, u1 = h1 = 1: d_t rho(0) = a e^{-y} sin x,
    # so the bootstrapped level-1 entries are its spatial derivatives.
    a = 0.01
    grid = _grid(nx=64, ny=256)
    rho = field_from_function(grid, lambda x, y: 1.0 + a * np.exp(-y) * np.cos(x))
    one = _ones(grid)
    bundle = bootstrap_time_derivatives(rho, one, one, m=2, mu=1.0, kappa=1.0)
    X = grid.x[:, None]
    Y = grid.y[None, :]
    dx_exact = a * np.exp(-Y) * np.cos(X)  # d_x (a e^{-y} sin x)
    dy_exact = -a * np.exp(-Y) * np.sin(X)  # d_y (a e^{-y} sin x)
    assert np.max(np.abs(bundle.levels[1][0].values - dx_exact)) < 1e-5 * a
    assert np.max(np.abs(bundle.levels[1][1].values - dy_exact)) < 1e-2 * a


def test_x_independent_data_kills_x_derivative_entries():
    grid = _grid(nx=8, ny=96)
    rho = field_from_function(grid, lambda x, y: 1.0 + 0.05 * np.exp(-(y**2)))
    u1 = field_from_function(grid, lambda x, y: 1.0 + 0.05 * y**2 * np.exp(-(y**2)))
    h1 = _ones(grid)
    bundle = bootstrap_time_derivatives(rho, u1, h1, m=2, mu=1.0, kappa=1.0)
    for level in bundle.levels:
        assert level[0].max_abs() < 1e-11  # d_x rho entries
        assert level[2].max_abs() < 1e-11  # d_x u entries
        assert level[3].max_abs() < 1e-11  # d_x h entries
    # the 1D normal-derivative recursion stays nontrivial
    assert bundle.levels[0][1].max_abs() > 1e-3


def test_assemble_collapses_at_t_zero():
    grid = _grid(nx=16, ny=64)
    bundle = _varying_bundle(grid, m=2)
    expected = _derivative_terms(*bundle.levels[0])
    for f, e in zip(bundle.fields(grid, 0.0), expected):
        assert np.array_equal(f.values, e.values)


def test_single_level_bundle_has_no_time_dependence():
    # an m = 1 bundle is constant in t: at every t its terms are dx/dy of
    # the raw level, bit for bit
    grid = _grid(nx=16, ny=64)
    bundle = _varying_bundle(grid, m=1)
    expected = _derivative_terms(*bundle.levels[0])
    for t in (0.0, 5.0):
        for f, e in zip(bundle.fields(grid, t), expected):
            assert np.array_equal(f.values, e.values)
    assert bundle.fields(grid, 5.0, deriv=1) is None


def test_polynomial_evaluation_is_exact():
    # the Taylor sum of the stored terms equals the terms of the Taylor
    # sum of the raw levels up to round-off
    grid = _grid(nx=16, ny=64)
    bundle = _varying_bundle(grid, m=2)
    t = 0.37
    raw = [
        Field(bundle.levels[0][comp].values + t * bundle.levels[1][comp].values, grid)
        for comp in range(4)
    ]
    for f, e in zip(bundle.fields(grid, t), _derivative_terms(*raw)):
        assert np.max(np.abs(f.values - e.values)) <= 1e-13 * e.max_abs()
    # deriv = 1 returns the constant level-1 terms; deriv = m vanishes
    for f, e in zip(bundle.fields(grid, t, deriv=1), _derivative_terms(*bundle.levels[1])):
        assert np.array_equal(f.values, e.values)
    assert bundle.fields(grid, t, deriv=2) is None


def test_bundle_of_zeros_and_validation():
    grid = _grid(nx=8, ny=48)
    z = Field(np.zeros((grid.nx, grid.ny)), grid)
    zb = SourceBundle(levels=((z, z, z, z),) * 2, m=2)
    for f in zb.fields(grid, 1.7):
        assert f.max_abs() == 0.0
    with pytest.raises(ValueError):
        SourceBundle(levels=zb.levels, m=3)
    with pytest.raises(ValueError):
        zb.fields(grid, -1.0)
    one = _ones(grid)
    with pytest.raises(ValueError):
        bootstrap_time_derivatives(one, one, one, m=0, mu=1.0, kappa=1.0)
    low = Field(np.full((grid.nx, grid.ny), 0.05), grid)
    with pytest.raises(DensityFloorError):
        bootstrap_time_derivatives(low, one, one, m=1, mu=1.0, kappa=1.0)
