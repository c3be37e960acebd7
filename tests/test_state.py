"""State construction, derived fields, and conormal multi-indices."""
import os

import numpy as np
import pytest
from scipy import special

from blmhd import experiments
from blmhd.data import equilibrium
from blmhd.experiments import eps_sweep
from blmhd.grid import GridSpec, field_from_function
from blmhd.operators import dx
from blmhd.solver import SolverConfig
from blmhd.state import (
    MultiIndex,
    closure,
    divergence_defects,
    derive_secondary,
    initial_state,
)

from conftest import perturbed_state

_DERIVED = ("v", "g", "psi")


def _built(st) -> set:
    """The derived fields a state has built so far."""
    return set(_DERIVED) & set(vars(st))


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
    # each derived field is built once, on first read, and kept; building
    # it again gives the same bits
    grid = _grid(nx=8, ny=64)
    h = field_from_function(grid, lambda x, y: np.exp(-(y**2)) * np.cos(x))
    st = initial_state(grid, h_shift=h)
    for name in _DERIVED:
        first = getattr(st, name)
        assert getattr(st, name) is first
        again = derive_secondary(st, name)
        assert again is not first and np.array_equal(first.values, again.values)


def test_closure_fields_are_built_on_first_read():
    grid = _grid(nx=16, ny=48)
    st = perturbed_state(grid)
    assert _built(st) == set()
    u, h = st.u_shift, st.h_shift
    want = {"v": closure("v", dx(u)), "g": closure("g", dx(h)), "psi": closure("psi", h)}
    for k, name in enumerate(_DERIVED):
        assert np.array_equal(getattr(st, name).values, want[name].values)
        assert _built(st) == set(_DERIVED[: k + 1])
        assert not getattr(st, name).values.flags.writeable


def test_unread_closure_fields_cross_the_worker_pipe(monkeypatch):
    # an eps_sweep on two forked workers against a serial one: the states
    # of the child's run come back through _run_all's pipe, the final one
    # with none of v, g, psi built, and build them here to the same bits
    grid = GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0)
    base = perturbed_state(grid, a_rho=0.004, a_u=0.02, a_h=0.03)
    cfg = SolverConfig(eps=0.01, dt=2e-3, t_end=6e-3)
    real = experiments._diff_norm
    results = {}
    for n in (2, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=n: set(range(n)))
        states = []

        def diff_norm(s1, s2, states=states):
            states.append((s1, s2, _built(s1), _built(s2)))
            return real(s1, s2)

        monkeypatch.setattr(experiments, "_diff_norm", diff_norm)
        results[n] = eps_sweep(base, cfg, ladder=(0.1, 0.05, 0.025)), states
    (sweep2, states2), (sweep1, states1) = results[2], results[1]
    assert sweep2 == sweep1
    # run 1 (eps = 0.05) ran in the child; its final state is the right of
    # the last pair of the first difference
    assert states2[3][3] == set() and states1[3][3] == set()
    for pair2, pair1 in zip(states2, states1, strict=True):
        for a, b in zip(pair2[:2], pair1[:2]):
            assert a.time == b.time
            for name in _DERIVED:
                assert np.array_equal(getattr(a, name).values, getattr(b, name).values)
