"""Equation right-hand sides and substitution-based time derivatives."""
from collections import Counter

import numpy as np
import pytest

from blmhd import pde, state
from blmhd.data import equilibrium
from blmhd.grid import Field, GridSpec
from blmhd.manufactured import ManufacturedSolution
from blmhd.operators import dx, dy
from blmhd.pde import (
    DensityFloorError,
    Physics,
    TimeTower,
    pde_rhs,
    time_derivative_via_pde,
)
from blmhd.state import derive_secondary, initial_state

from conftest import perturbed_state


def test_equilibrium_time_derivatives_vanish(grid_small):
    st = equilibrium(grid_small)
    for which in ("rho", "u", "h"):
        d = time_derivative_via_pde(st, which, order=1, physics=Physics())
        assert d.max_abs() < 1e-12, which
    for which in ("rho", "u", "h"):
        d2 = time_derivative_via_pde(st, which, order=2, physics=Physics())
        assert d2.max_abs() < 1e-11, which


def test_density_floor_guard(grid_small):
    grid = grid_small
    rho = Field(np.full((grid.nx, grid.ny), -0.95), grid)
    st = initial_state(grid, rho_shift=rho)
    with pytest.raises(DensityFloorError):
        pde_rhs(st, physics=Physics())


def test_tower_level_one_matches_manufactured_tendency():
    ms = ManufacturedSolution(eps=0.01)
    errs = []
    for nx, ny in ((16, 64), (32, 128)):
        grid = GridSpec(nx=nx, ny=ny, y_max=15.0, stretch=2.0)
        st = ms.state_at(grid, 0.1)
        dr, du, dh = pde_rhs(st, forcing=ms, physics=Physics())
        er, eu, eh = ms.exact_time_derivatives(grid, 0.1)
        errs.append(
            max((dr - er).max_abs(), (du - eu).max_abs(), (dh - eh).max_abs())
        )
    assert errs[0] < 5e-2
    assert errs[1] < errs[0] / 3.0  # ~2nd order in the y resolution


def test_tower_depth_cap_and_level_validation(grid_small):
    st = equilibrium(grid_small)
    tower = TimeTower(st, max_depth=2, physics=Physics())
    with pytest.raises(ValueError):
        tower.level(3)
    with pytest.raises(ValueError):
        tower.level(-1)


def test_time_derivative_selector_validation(grid_small):
    st = equilibrium(grid_small)
    with pytest.raises(ValueError):
        time_derivative_via_pde(st, "vorticity", physics=Physics())


@pytest.mark.parametrize("x_scheme", ["fd4", "spectral"])
def test_homogeneous_density_vanishes_on_every_tower_level(x_scheme):
    # rho_shift = 0 with no sources: every term of d_t^i r carries a
    # derivative of some level of r, so each level is exactly zero
    grid = GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0, x_scheme=x_scheme)
    st = perturbed_state(grid, a_rho=0.0, a_u=0.5, a_h=0.3)
    tower = TimeTower(st, max_depth=4, physics=Physics(eps=0.01))
    for i in range(5):
        assert np.all(tower.level(i)["rho"] == 0.0), i
        assert np.max(np.abs(tower.level(i)["u"])) > 0.0, i


def test_a_tower_on_a_state_takes_each_x_derivative_once(grid_small, monkeypatch):
    """Level 0 of a tower is built like every other level: v and g by
    closure from the dx u and dx h that seed its cache.  Level 1 then
    takes dx of rho, u and h at level 0 and of u and h at level 1, each
    once, and the tower's v and g at level 0 are derive_secondary's."""
    st = perturbed_state(grid_small)
    want = {name: derive_secondary(st, name) for name in ("v", "g")}
    seen = Counter()

    def keyed(f):
        seen[f.values.tobytes()] += 1
        return dx(f)

    for mod in (pde, state):
        monkeypatch.setattr(mod, "dx", keyed)
    tower = TimeTower(st, max_depth=1, physics=Physics())
    tower.level(1)
    assert sum(seen.values()) == 5
    assert max(seen.values()) == 1
    for name, f in want.items():
        assert np.array_equal(tower.field(name, 0).values, f.values)


@pytest.mark.parametrize("name", ["rho", "u", "h", "psi"])
def test_tower_z_is_the_dx_chain_of_a_level_field(grid_small, name):
    """z(name, i, b) is b successive dx of field(name, i), bit for bit,
    at level 0 and at a level not built before the call; it is kept, and
    deriv("y", name, i, b) is dy of it."""
    tower = TimeTower(perturbed_state(grid_small), max_depth=2, physics=Physics(eps=0.05))
    assert len(tower._levels) == 1
    for i in (0, 2):
        for b in (3, 2, 1, 0):
            got = tower.z(name, i, b)
            ref = tower.field(name, i)
            for _ in range(b):
                ref = dx(ref)
            assert np.array_equal(got.values, ref.values), (i, b)
            assert tower.z(name, i, b) is got
            assert np.array_equal(tower.deriv("y", name, i, b).values, dy(got).values)
