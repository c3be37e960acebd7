"""Grid construction, quadrature weights, and Field container behavior."""
import numpy as np
import pytest

from blmhd.grid import (
    Field,
    GridError,
    GridSpec,
    NonFiniteError,
    build_y,
    field_from_function,
    zero_field,
)


def test_build_y_graded_three_points():
    # sigma = 2, ny = 3, y_max = 2: midpoint at 2 (e - 1) / (e^2 - 1) = 2/(e+1)
    y = build_y(3, 2.0, 2.0)
    assert y[0] == 0.0
    assert y[-1] == pytest.approx(2.0, abs=0.0)
    assert y[1] == pytest.approx(2.0 / (np.e + 1.0), rel=1e-14)


def test_build_y_uniform():
    y = build_y(5, 4.0, 0.0)
    assert np.allclose(y, [0.0, 1.0, 2.0, 3.0, 4.0])


def test_x_coordinates_uniform_periodic():
    grid = GridSpec(nx=8, ny=8, y_max=10.0)
    assert np.allclose(grid.x, np.arange(8) * np.pi / 4.0)
    assert grid.x[2] == pytest.approx(np.pi / 2.0)
    assert grid.dx == pytest.approx(np.pi / 4.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"nx": 4, "ny": 16},
        {"nx": 16, "ny": 4},
        {"nx": 16, "ny": 16, "y_max": 5.0},
        {"nx": 16, "ny": 16, "stretch": -1.0},
        {"nx": 7, "ny": 16},
        {"nx": 16, "ny": 16, "x_scheme": "fd2"},
    ],
)
def test_grid_spec_validation(kwargs):
    with pytest.raises(GridError):
        GridSpec(**kwargs)


def test_weight_2d_is_outer_product():
    spec = GridSpec(nx=8, ny=16)
    assert spec.weight_2d.shape == (8, 16)
    assert np.allclose(spec.weight_2d, np.outer(spec.wx, spec.wy))


def test_equal_grids_hash_once_and_share_cache_entries():
    """A grid hashes once and keeps the hash, which a pickle does not carry
    (the hash of x_scheme, a str, is salted per process); equal grids, a
    pickled copy included, hash equal and hit one lru-cache entry."""
    import pickle

    from blmhd.operators import _dy_coeffs

    grid = GridSpec(nx=9, ny=11, stretch=1.5, x_scheme="spectral")
    twin = GridSpec(nx=9, ny=11, stretch=1.5, x_scheme="spectral")
    assert hash(grid) == hash((9, 11, 15.0, 1.5, "spectral"))
    assert grid.__dict__["_hash"] == hash(grid)
    grid.y  # a cached array travels in the pickle; the hash does not
    copy = pickle.loads(pickle.dumps(grid))
    assert "_hash" not in copy.__dict__ and np.array_equal(copy.__dict__["y"], grid.y)
    assert copy == grid == twin and hash(copy) == hash(grid) == hash(twin)
    assert hash(GridSpec(nx=9, ny=12, stretch=1.5)) != hash(grid)
    _dy_coeffs.cache_clear()
    first = _dy_coeffs(grid)
    assert _dy_coeffs(twin) is first and _dy_coeffs(copy) is first
    assert _dy_coeffs.cache_info()[:2] == (2, 1)  # hits, misses
    assert grid.dy_min == float(np.min(np.diff(grid.y)))


def test_field_shape_and_finiteness_checks():
    grid = GridSpec(nx=8, ny=8, y_max=10.0)
    with pytest.raises(ValueError):
        Field(np.zeros((8, 9)), grid)
    f = Field(np.ones((8, 8)), grid)
    for bad_value in (np.nan, np.inf, -np.inf):
        bad = np.zeros((8, 8))
        bad[0, 0] = bad_value
        with pytest.raises(ValueError):
            Field(bad, grid)
        with pytest.raises(NonFiniteError, match="non-finite"):
            Field(bad, grid)
        # a refused array is not adopted: the caller can still write to it
        assert bad.flags.writeable
        # arithmetic is checked too: its operand may be any array
        for combine in (f.__add__, f.__sub__, f.__mul__, f.__rmul__):
            with pytest.raises(NonFiniteError):
                combine(bad)


def test_computed_field_adopts_and_copies_as_field_does_without_a_scan():
    grid = GridSpec(nx=8, ny=8, y_max=10.0)
    with pytest.raises(ValueError, match="does not match grid"):
        Field._computed(np.zeros((8, 9)), grid)
    # an owned array is adopted and write-protected in place
    a = np.ones((8, 8))
    f = Field._computed(a, grid)
    assert f.values is a and f.grid is grid
    with pytest.raises(ValueError):
        a[0, 0] = 2.0
    # a view is copied into a read-only, C-contiguous array of its own
    base = np.ones((8, 16))
    g = Field._computed(base[:, ::2], grid)
    base[:, :] = 5.0
    assert np.all(g.values == 1.0) and g.values.base is None
    assert g.values.flags.c_contiguous and not g.values.flags.writeable
    fo = np.asfortranarray(np.ones((8, 8)))
    assert Field._computed(fo, grid).values.flags.c_contiguous and fo.flags.writeable
    # it is a Field like any other, but its values are not scanned
    assert type(f) is Field and np.array_equal((f + f).values, 2.0 * a)
    bad = np.zeros((8, 8))
    bad[0, 0] = np.nan
    assert np.isnan(Field._computed(bad, grid).values[0, 0])


def test_field_is_immutable_and_supports_arithmetic():
    grid = GridSpec(nx=8, ny=8, y_max=10.0)
    f = Field(np.ones((8, 8)), grid)
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0
    g = 2.0 * f - f + f * f
    assert np.allclose(g.values, 2.0)
    assert (-f).values[0, 0] == -1.0
    assert f.max_abs() == 1.0


def test_field_adopts_owned_arrays_and_copies_views():
    grid = GridSpec(nx=8, ny=8, y_max=10.0)
    # an owned array is adopted: a later write through the caller raises
    a = np.ones((8, 8))
    f = Field(a, grid)
    with pytest.raises(ValueError):
        a[0, 0] = 2.0
    assert f.values[0, 0] == 1.0
    # a view is copied: writing through its base leaves the field unchanged
    base = np.ones((8, 16))
    g = Field(base[:, ::2], grid)
    base[:, :] = 5.0
    assert np.all(g.values == 1.0)
    # a broadcast is copied into a read-only array of its own
    row = np.arange(8.0)
    b = Field(np.broadcast_to(row, (8, 8)), grid)
    assert b.values.base is None and not b.values.flags.writeable
    row[0] = 9.0
    assert b.values[0, 0] == 0.0
    with pytest.raises(ValueError):
        b.values[0, 0] = 1.0
    # an owned array of another layout is copied to C order
    fo = np.asfortranarray(np.ones((8, 8)))
    assert Field(fo, grid).values.flags.c_contiguous and fo.flags.writeable
    # an array on an immutable bytes object is adopted; on a bytearray,
    # which its owner can still write to, it is copied
    data = np.ones((8, 8)).tobytes()
    assert Field(np.ndarray((8, 8), buffer=data), grid).values.base is data
    mutable = bytearray(data)
    h = Field(np.ndarray((8, 8), buffer=mutable), grid)
    mutable[:8] = bytes(8)
    assert h.values.base is None and h.values[0, 0] == 1.0


def test_field_from_function_and_zero_field():
    grid = GridSpec(nx=8, ny=8, y_max=10.0)
    f = field_from_function(grid, lambda x, y: np.sin(x) * np.exp(-y))
    assert f.values.shape == (8, 8)
    assert f.values[2, 0] == pytest.approx(np.sin(grid.x[2]))
    assert zero_field(grid).max_abs() == 0.0
