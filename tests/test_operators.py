"""Discrete derivative and conormal operators: oracles and commutators."""
import numpy as np
import pytest

from blmhd.grid import Field, GridSpec, field_from_function
from blmhd.operators import (
    _d2x_fd4,
    _d2y_coeffs,
    _dx_fd4,
    _dy_coeffs,
    _flat_rows,
    _half_dy,
    _phi_row,
    _spectral_matrices,
    d2x,
    d2y,
    dx,
    dy,
    dy_wall,
    integrate_y,
    phi,
    z2,
)
from blmhd.solver import _apply_dyy, _periodic_factors


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


# (nx, ny, stretch): the benchmark's grid and a small odd one, uniform and graded
_STENCIL_GRIDS = [(64, 128, 0.0), (64, 128, 2.0), (9, 11, 0.0), (9, 11, 3.0)]


def _random_field(nx, ny, stretch, x_scheme="fd4"):
    grid = GridSpec(nx=nx, ny=ny, stretch=stretch, x_scheme=x_scheme)
    v = np.random.default_rng(nx * ny).standard_normal((nx, ny))
    return Field(v, grid)


@pytest.mark.parametrize("nx, ny, stretch", _STENCIL_GRIDS)
def test_y_stencils_equal_the_strided_formulas_bitwise(nx, ny, stretch):
    # the reference: each interior stencil on three strided (nx, ny - 2)
    # views, summed in the kernel's order, with the one-sided closures; the
    # flat-buffer kernels must match bit for bit
    f = _random_field(nx, ny, stretch)
    v, y = f.values, f.grid.y
    lo, di, up, c0, cN = _dy_coeffs(f.grid)
    d1 = np.empty_like(v)
    d1[:, 1:-1] = lo * v[:, :-2] + di * v[:, 1:-1] + up * v[:, 2:]
    d1[:, 0] = v[:, :3] @ c0
    d1[:, -1] = v[:, -3:] @ cN
    lo2, di2, up2, c02, cN2 = _d2y_coeffs(f.grid)
    d2 = np.empty_like(v)
    d2[:, 1:-1] = lo2 * v[:, :-2] + di2 * v[:, 1:-1] + up2 * v[:, 2:]
    d2[:, 0] = v[:, :4] @ c02
    d2[:, -1] = v[:, -4:] @ cN2
    zz = phi(y)[None, :] * d1
    zz[:, 0] = 0.0
    iy = np.zeros_like(v)
    np.cumsum(0.5 * (v[:, 1:] + v[:, :-1]) * (y[1:] - y[:-1]), axis=1, out=iy[:, 1:])
    assert np.array_equal(dy(f).values, d1)
    assert np.array_equal(dy_wall(f), d1[:, 0])
    assert np.array_equal(d2y(f).values, d2)
    assert np.array_equal(z2(f).values, zz)
    assert np.array_equal(integrate_y(f).values, iy)


@pytest.mark.parametrize("lines", [None, 3])
@pytest.mark.parametrize("nx, ny, stretch", _STENCIL_GRIDS)
def test_apply_dyy_equals_the_strided_formula_bitwise(nx, ny, stretch, lines):
    # the solver's D_y^2 apply on nx y-lines and on another line count
    f = _random_field(nx, ny, stretch)
    w = f.values if lines is None else f.values[:lines].copy()
    y = f.grid.y
    lo2, di2, up2, _, _ = _d2y_coeffs(f.grid)
    interior = lo2 * w[:, :-2] + di2 * w[:, 1:-1] + up2 * w[:, 2:]
    for wall_bc in ("neumann", "dirichlet"):
        ref = np.zeros_like(w)
        ref[:, 1:-1] = interior
        if wall_bc == "neumann":
            ref[:, 0] = 2.0 * (w[:, 1] - w[:, 0]) / (y[1] - y[0]) ** 2
        assert np.array_equal(_apply_dyy(f.grid, w, wall_bc), ref), wall_bc


@pytest.mark.parametrize("nx", [8, 9, 64])
def test_spectral_x_derivatives_equal_the_out_of_place_formula_bitwise(nx):
    # dx and d2x are the products of the cached matrices, written out of
    # place here (fd4: the roll-formula test above); the matrices are the
    # rfft formula's linear map, so the products agree with the rfft
    # scaled by i k and -k^2 to round-off
    f = _random_field(nx, 11, 3.0, x_scheme="spectral")
    d1, d2 = _spectral_matrices(nx)
    assert np.array_equal(dx(f).values, np.matmul(d1, f.values))
    assert np.array_equal(d2x(f).values, np.matmul(d2, f.values))
    k = np.fft.rfftfreq(nx, d=1.0 / nx)[:, None]
    vh = np.fft.rfft(f.values, axis=0)
    for op, scale in ((dx, 1j * k), (d2x, -(k**2))):
        ref = np.fft.irfft(scale * vh, n=nx, axis=0)
        assert np.max(np.abs(op(f).values - ref)) <= 2e-15 * np.max(np.abs(ref))


def test_cached_coefficient_rows_refuse_writes():
    grid = GridSpec(nx=9, ny=11, stretch=3.0)
    cached = [
        *_dy_coeffs(grid),
        *_d2y_coeffs(grid),
        *_flat_rows(grid, 1, grid.nx),
        *_flat_rows(grid, 2, grid.nx),
        _phi_row(grid),
        *_spectral_matrices(grid.nx),
        *_periodic_factors(grid.nx, 0.3),
    ]
    for a in cached:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


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


@pytest.mark.parametrize("stretch", [0.0, 2.0])
def test_integrate_y_equals_the_trapezoid_formula_bitwise(stretch):
    # the cached 0.5 dy row only moves an exact scaling by 0.5
    grid = GridSpec(nx=9, ny=64, stretch=stretch)
    rng = np.random.default_rng(7)
    v = rng.standard_normal((9, 64)) * 10.0 ** rng.integers(-8, 8, (9, 64))
    y = grid.y
    iy = np.zeros_like(v)
    np.cumsum(0.5 * (v[:, 1:] + v[:, :-1]) * (y[1:] - y[:-1]), axis=1, out=iy[:, 1:])
    assert np.array_equal(integrate_y(Field(v, grid)).values, iy)
    half = _half_dy(grid)
    assert half is _half_dy(grid) and not half.flags.writeable


def test_z2_wall_row_is_exactly_zero():
    grid = _grid(nx=8, ny=64)
    f = field_from_function(grid, lambda x, y: np.exp(-y) * np.cos(x))
    assert np.all(z2(f).values[:, 0] == 0.0)
