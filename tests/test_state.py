"""State construction, derived fields, and conormal multi-indices."""
import numpy as np
import pytest
from scipy import special

from blmhd.grid import Field, GridSpec, field_from_function
from blmhd.state import (
    MultiIndex,
    divergence_defects,
    derive_secondary,
    initial_state,
)


def _grid(nx=32, ny=512):
    return GridSpec(nx=nx, ny=ny, y_max=15.0, stretch=2.0)


def test_multi_index_properties():
    idx = MultiIndex(1, 2, 3)
    assert idx.order == 6
    assert idx.tangential_order == 3
    assert not idx.is_tangential()
    assert MultiIndex(2, 1, 0).is_tangential()
    with pytest.raises(ValueError):
        MultiIndex(-1, 0, 0)


def test_multi_index_defaults_and_ordering():
    assert MultiIndex().order == 0
    assert MultiIndex(0, 1, 0) < MultiIndex(1, 0, 0)


def test_equilibrium_secondary_fields_vanish():
    grid = _grid(nx=8, ny=64)
    E = np.exp(-grid.y)[None, :]
    u = Field(np.broadcast_to(E, (grid.nx, grid.ny)).copy(), grid)
    st = initial_state(grid, u_shift=u)
    assert st.v.max_abs() == 0.0
    assert st.g.max_abs() == 0.0
    assert st.psi.max_abs() == 0.0
    assert np.allclose(st.rho_total, 1.0)


def test_stream_function_erf_oracle():
    # h = e^{-y^2} sin x: psi = (sqrt(pi)/2) erf(y) sin x,
    #                     g = -(sqrt(pi)/2) erf(y) cos x
    grid = _grid()
    h = field_from_function(grid, lambda x, y: np.exp(-(y**2)) * np.sin(x))
    st = initial_state(grid, h_shift=h)
    erf = 0.5 * np.sqrt(np.pi) * special.erf(grid.y)
    psi_exact = erf[None, :] * np.sin(grid.x)[:, None]
    g_exact = -erf[None, :] * np.cos(grid.x)[:, None]
    assert np.max(np.abs(st.psi.values - psi_exact)) < 1e-4
    assert np.max(np.abs(st.g.values - g_exact)) < 1e-4


def test_vertical_velocity_oracle():
    # u = sin x e^{-y}: v = -(1 - e^{-y}) cos x
    grid = _grid()
    u = field_from_function(grid, lambda x, y: np.sin(x) * np.exp(-y))
    st = initial_state(grid, u_shift=u)
    v_exact = -(1.0 - np.exp(-grid.y))[None, :] * np.cos(grid.x)[:, None]
    assert np.max(np.abs(st.v.values - v_exact)) < 1e-4


def test_derived_fields_vanish_at_wall():
    grid = _grid(nx=16, ny=96)
    h = field_from_function(grid, lambda x, y: np.exp(-(y**2)) * np.cos(x))
    u = field_from_function(grid, lambda x, y: y * np.exp(-y) * np.sin(x))
    st = initial_state(grid, u_shift=u, h_shift=h)
    for f in (st.v, st.g, st.psi):
        assert np.all(f.values[:, 0] == 0.0)


def test_divergence_defects_small():
    grid = _grid(nx=32, ny=256)
    h = field_from_function(grid, lambda x, y: np.exp(-(y**2)) * np.cos(x))
    u = field_from_function(grid, lambda x, y: y**2 * np.exp(-(y**2)) * np.sin(x))
    st = initial_state(grid, u_shift=u, h_shift=h)
    d1, d2, d3 = divergence_defects(st)
    assert d1 < 1e-3 and d2 < 1e-3 and d3 < 1e-3


def test_derive_secondary_is_idempotent():
    grid = _grid(nx=8, ny=64)
    h = field_from_function(grid, lambda x, y: np.exp(-(y**2)) * np.cos(x))
    st = initial_state(grid, h_shift=h)
    again = derive_secondary(st)
    assert np.array_equal(st.psi.values, again.psi.values)
    assert np.array_equal(st.g.values, again.g.values)
