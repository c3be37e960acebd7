"""State construction, derived fields, and conormal multi-indices."""
import pickle

import numpy as np
import pytest
from scipy import special

from blmhd.cancellation import cancellation_residual
from blmhd.data import equilibrium
from blmhd.energy import trajectory_report
from blmhd.grid import Field, GridSpec, NonFiniteError, field_from_function
from blmhd.operators import dx
from blmhd.pde import TimeTower
from blmhd.solver import SolverConfig, run, step
from blmhd.state import (
    MultiIndex,
    closure,
    divergence_defects,
    derive_secondary,
    initial_state,
)

from conftest import perturbed_state

_DERIVED = ("v", "g", "psi")
_RECORD = {"rho_shift", "u_shift", "h_shift", "time"}


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
    st = equilibrium(_grid(nx=8, ny=64))
    for name in _DERIVED:
        assert derive_secondary(st, name).max_abs() == 0.0
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
    assert np.max(np.abs(derive_secondary(st, "psi").values - psi_exact)) < 1e-4
    assert np.max(np.abs(derive_secondary(st, "g").values - g_exact)) < 1e-4


def test_vertical_velocity_oracle():
    # u = sin x e^{-y}: v = -(1 - e^{-y}) cos x
    grid = _grid()
    u = field_from_function(grid, lambda x, y: np.sin(x) * np.exp(-y))
    st = initial_state(grid, u_shift=u)
    v_exact = -(1.0 - np.exp(-grid.y))[None, :] * np.cos(grid.x)[:, None]
    assert np.max(np.abs(derive_secondary(st, "v").values - v_exact)) < 1e-4


def test_derived_fields_vanish_at_wall():
    grid = _grid(nx=16, ny=96)
    h = field_from_function(grid, lambda x, y: np.exp(-(y**2)) * np.cos(x))
    u = field_from_function(grid, lambda x, y: y * np.exp(-y) * np.sin(x))
    st = initial_state(grid, u_shift=u, h_shift=h)
    for name in _DERIVED:
        assert np.all(derive_secondary(st, name).values[:, 0] == 0.0)


def test_divergence_defects_small():
    grid = _grid(nx=32, ny=256)
    h = field_from_function(grid, lambda x, y: np.exp(-(y**2)) * np.cos(x))
    u = field_from_function(grid, lambda x, y: y**2 * np.exp(-(y**2)) * np.sin(x))
    st = initial_state(grid, u_shift=u, h_shift=h)
    d1, d2, d3 = divergence_defects(st)
    assert d1 < 1e-3 and d2 < 1e-3 and d3 < 1e-3


def test_derive_secondary_is_idempotent():
    # each call builds its field again, to the same bits, and keeps
    # nothing on the state
    grid = _grid(nx=8, ny=64)
    h = field_from_function(grid, lambda x, y: np.exp(-(y**2)) * np.cos(x))
    st = initial_state(grid, h_shift=h)
    for name in _DERIVED:
        first = derive_secondary(st, name)
        again = derive_secondary(st, name)
        assert again is not first and np.array_equal(first.values, again.values)
    assert set(vars(st)) == _RECORD


def test_tower_level_zero_takes_the_closure_of_its_state():
    # a tower's v, g and psi at level 0 are the closure of its State's
    # fields, bit for bit what derive_secondary builds, and read-only
    st = perturbed_state(GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0))
    tower = TimeTower(st, max_depth=0, physics=SolverConfig())
    u, h = st.u_shift, st.h_shift
    want = {"v": closure("v", dx(u)), "g": closure("g", dx(h)), "psi": closure("psi", h)}
    for name in _DERIVED:
        got = tower.field(name, 0)
        assert np.array_equal(got.values, want[name].values)
        assert np.array_equal(got.values, derive_secondary(st, name).values)
        assert not got.values.flags.writeable


@pytest.mark.parametrize("scheme", ["imex-cn", "imex-be"])
def test_a_state_keeps_only_its_fields_and_time(scheme):
    # a State is the record (rho, u, h, t): a tower built on it, a step
    # from it and the diagnostics of a trajectory of it leave no derived
    # field on it
    grid = GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0)
    st = perturbed_state(grid, a_rho=0.004, a_u=0.02, a_h=0.03)
    cfg = SolverConfig(eps=0.01, dt=2e-3, t_end=4e-3, scheme=scheme)
    tower = TimeTower(st, max_depth=2, physics=cfg)
    for name in ("rho", "u", "h", *_DERIVED):
        tower.z(name, 2, 1)
    step(st, cfg)
    traj = run(st, cfg, output_stride=1)
    trajectory_report(traj, m=2, l=2.0)
    for which in ("rho_m", "u_m", "h_m"):
        cancellation_residual(traj, MultiIndex(1, 1, 0), which)
    for s in (st, *traj.states):
        assert set(vars(s)) == _RECORD, s.time


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_an_unpickled_field_or_state_is_read_only(state_perturbed, protocol):
    """A Field unpickles through Field(values, grid) at every protocol, so
    its values are read-only and scanned for non-finite entries."""
    st = state_perturbed
    copy = pickle.loads(pickle.dumps(st, protocol))
    assert copy.time == st.time and set(vars(copy)) == _RECORD
    pairs = [(pickle.loads(pickle.dumps(st.u_shift, protocol)), st.u_shift)]
    pairs += [(getattr(copy, n), getattr(st, n)) for n in ("rho_shift", "u_shift", "h_shift")]
    for f, ref in pairs:
        assert type(f) is Field and f.grid == ref.grid
        assert np.array_equal(f.values, ref.values)
        assert not f.values.flags.writeable
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0
    bad = Field._computed(np.full(st.u_shift.values.shape, np.nan), st.grid)
    with pytest.raises(NonFiniteError):
        pickle.loads(pickle.dumps(bad, protocol))
