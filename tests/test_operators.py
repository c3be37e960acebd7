"""Discrete derivative and conormal operators: oracles and commutators."""
import numpy as np
import pytest

from blmhd.grid import GridSpec, field_from_function
from blmhd.operators import _d2x_fd4, _dx_fd4, d2x, d2y, dx, dy, integrate_y, phi, z2


def _grid(nx=16, ny=512, stretch=2.0, **kw):
    return GridSpec(nx=nx, ny=ny, y_max=15.0, stretch=stretch, **kw)


def test_phi_values():
    y = np.array([0.0, 1.0, 3.0])
    assert np.allclose(phi(y), [0.0, 0.5, 0.75])


def test_z2_exponential_oracle_at_y_equals_one():
    # Z2 e^{-y} = -phi(y) e^{-y}; at y = 1 this is -e^{-1}/2 ~ -0.18394
    grid = GridSpec(nx=8, ny=451, y_max=15.0, stretch=0.0)
    j = np.argmin(np.abs(grid.y - 1.0))
    assert grid.y[j] == pytest.approx(1.0, abs=1e-12)
    f = field_from_function(grid, lambda x, y: np.exp(-y))
    val = z2(f).values[0, j]
    # 2nd-order dy: truncation ~ f'''(1) dy^2 / 6 ~ 7e-5 at dy = 1/30
    assert val == pytest.approx(-0.5 * np.exp(-1.0), abs=2e-4)


def test_z1_z2_product_oracle():
    # Z1 Z2 (y sin x) = phi(y) cos x
    grid = _grid()
    f = field_from_function(grid, lambda x, y: y * np.sin(x))
    out = dx(z2(f)).values
    expected = phi(grid.y)[None, :] * np.cos(grid.x)[:, None]
    # dy part is exact on linear data; fd4 on sin x at nx = 16 leaves ~ 8e-4
    assert np.max(np.abs(out - expected)) < 2e-3


def test_z1_z2_commute_to_machine_precision():
    # Z1 acts along x only and Z2 along y only: exact discrete commutation
    grid = _grid(ny=96)
    f = field_from_function(grid, lambda x, y: np.sin(2 * x) * y * np.exp(-y))
    defect = (dx(z2(f)) - z2(dx(f))).max_abs()
    assert defect < 1e-13


def test_dy_z2_commutator_bounded_away_from_zero():
    # [d_y, Z2] f = phi'(y) d_y f; for f = e^{-y} the sup is ~ phi'(0) = 1
    grid = _grid(nx=8)
    f = field_from_function(grid, lambda x, y: np.exp(-y))
    defect = (dy(z2(f)) - z2(dy(f))).max_abs()
    assert defect > 0.5


def test_dx_fd4_and_spectral_accuracy():
    for scheme, tol in (("fd4", 1e-4), ("spectral", 1e-11)):
        grid = GridSpec(nx=32, ny=8, y_max=10.0, x_scheme=scheme)
        f = field_from_function(grid, lambda x, y: np.sin(x) + 0 * y)
        err = np.max(np.abs(dx(f).values - np.cos(grid.x)[:, None]))
        assert err < tol, scheme
        err2 = np.max(np.abs(d2x(f).values + np.sin(grid.x)[:, None]))
        assert err2 < 100 * tol, scheme


@pytest.mark.parametrize("nx", [8, 13, 64])
def test_fd4_stencils_equal_the_roll_formula_bitwise(nx):
    # the reference: the four shifted operands as np.roll copies, summed in
    # the stencil's order; the padded-slice kernels must match bit for bit
    v = np.random.default_rng(nx).standard_normal((nx, 7))
    h = 2.0 * np.pi / nx
    vp1, vm1 = np.roll(v, -1, axis=0), np.roll(v, 1, axis=0)
    vp2, vm2 = np.roll(v, -2, axis=0), np.roll(v, 2, axis=0)
    d1 = (8.0 * (vp1 - vm1) - (vp2 - vm2)) / (12.0 * h)
    d2 = (-vp2 + 16.0 * vp1 - 30.0 * v + 16.0 * vm1 - vm2) / (12.0 * h * h)
    assert np.array_equal(_dx_fd4(v, h), d1)
    assert np.array_equal(_d2x_fd4(v, h), d2)


def test_dy_and_d2y_exact_on_quadratics():
    grid = _grid(nx=8, ny=64)
    f = field_from_function(grid, lambda x, y: y**2 - 3.0 * y)
    assert np.max(np.abs(dy(f).values - (2.0 * grid.y - 3.0)[None, :])) < 1e-10
    assert np.max(np.abs(d2y(f).values - 2.0)) < 1e-9


def test_dy_second_order_convergence():
    errs = []
    for ny in (128, 256):
        grid = _grid(nx=8, ny=ny)
        f = field_from_function(grid, lambda x, y: np.exp(-(y**2)))
        exact = (-2.0 * grid.y * np.exp(-(grid.y**2)))[None, :]
        errs.append(np.max(np.abs(dy(f).values - exact)))
    assert errs[1] < errs[0] / 3.0


def test_integrate_y_oracles():
    grid = _grid(nx=8, ny=512)
    one = field_from_function(grid, lambda x, y: np.ones_like(y))
    assert np.max(np.abs(integrate_y(one).values - grid.y[None, :])) < 1e-12
    f = field_from_function(grid, lambda x, y: np.exp(-y))
    exact = (1.0 - np.exp(-grid.y))[None, :]
    assert np.max(np.abs(integrate_y(f).values - exact)) < 1e-4
    # antiderivative vanishes on the wall row
    assert np.all(integrate_y(f).values[:, 0] == 0.0)


def test_z2_wall_row_is_exactly_zero():
    grid = _grid(nx=8, ny=64)
    f = field_from_function(grid, lambda x, y: np.exp(-y) * np.cos(x))
    assert np.all(z2(f).values[:, 0] == 0.0)
