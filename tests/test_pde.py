"""Equation right-hand sides and substitution-based time derivatives."""
import numpy as np
import pytest

from blmhd.grid import Field, GridSpec, field_from_function
from blmhd.manufactured import ManufacturedSolution
from blmhd.operators import dx, z2
from blmhd.pde import (
    DensityFloorError,
    Physics,
    TimeTower,
    map_family,
    pde_rhs,
    static_family,
    time_derivative_via_pde,
    zderiv,
)
from blmhd.state import MultiIndex, initial_state

from conftest import equilibrium_state


def test_equilibrium_time_derivatives_vanish(grid_small):
    st = equilibrium_state(grid_small)
    for which in ("rho", "u", "h"):
        d = time_derivative_via_pde(st, which, order=1)
        assert d.max_abs() < 1e-12, which
    for which in ("rho", "u", "h"):
        d2 = time_derivative_via_pde(st, which, order=2)
        assert d2.max_abs() < 1e-11, which


def test_density_floor_guard(grid_small):
    grid = grid_small
    rho = Field(np.full((grid.nx, grid.ny), -0.95), grid)
    st = initial_state(grid, rho_shift=rho)
    with pytest.raises(DensityFloorError):
        pde_rhs(st)


def test_tower_level_one_matches_manufactured_tendency():
    ms = ManufacturedSolution(eps=0.01)
    errs = []
    for nx, ny in ((16, 64), (32, 128)):
        grid = GridSpec(nx=nx, ny=ny, y_max=15.0, stretch=2.0)
        st = ms.state_at(grid, 0.1)
        dr, du, dh = pde_rhs(st, forcing=ms)
        er, eu, eh = ms.exact_time_derivatives(grid, 0.1)
        errs.append(
            max((dr - er).max_abs(), (du - eu).max_abs(), (dh - eh).max_abs())
        )
    assert errs[0] < 5e-2
    assert errs[1] < errs[0] / 3.0  # ~2nd order in the y resolution


def test_tower_depth_cap_and_level_validation(grid_small):
    st = equilibrium_state(grid_small)
    tower = TimeTower(st, max_depth=2, physics=Physics())
    with pytest.raises(ValueError):
        tower.level(3)
    with pytest.raises(ValueError):
        tower.level(-1)


def test_time_derivative_selector_validation(grid_small):
    st = equilibrium_state(grid_small)
    with pytest.raises(ValueError):
        time_derivative_via_pde(st, "vorticity")


def test_zderiv_canonical_composition(grid_small):
    grid = grid_small
    f = field_from_function(grid, lambda x, y: np.sin(x) * y * np.exp(-y))
    out = zderiv(f, MultiIndex(0, 1, 1))
    manual = z2(dx(f))
    assert np.array_equal(out.values, manual.values)


def test_zderiv_time_derivative_requires_context(grid_small):
    grid = grid_small
    f = field_from_function(grid, lambda x, y: np.exp(-y))
    with pytest.raises(ValueError):
        zderiv(f, MultiIndex(1, 0, 0))
    st = equilibrium_state(grid)
    out = zderiv("u", MultiIndex(1, 1, 0), pde_context=st)
    assert out.max_abs() < 1e-11  # equilibrium tendencies vanish
    with pytest.raises(ValueError):
        zderiv("unknown_field", MultiIndex(0, 0, 0), pde_context=st)
    with pytest.raises(TypeError):
        zderiv(f, MultiIndex(0, 1, 0), pde_context=3.14)


def test_static_and_mapped_families(grid_small):
    grid = grid_small
    f = field_from_function(grid, lambda x, y: np.exp(-y))
    fam = static_family(f)
    assert np.array_equal(fam(0).values, f.values)
    assert fam(3).max_abs() == 0.0
    dfam = map_family(dx, fam)
    assert dfam(0).max_abs() < 1e-10
