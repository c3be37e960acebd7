"""Shared fixtures: small grids and standard states used across the suite."""
from __future__ import annotations

import os

import numpy as np
import pytest

from blmhd import solver
from blmhd.data import equilibrium
from blmhd.grid import Field, GridSpec, zero_field
from blmhd.norms import index_set
from blmhd.pde import TimeTower, apply_spatial
from blmhd.state import State, initial_state


@pytest.fixture
def grid_small() -> GridSpec:
    """Cheap graded grid for solver-facing tests."""
    return GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0)


@pytest.fixture
def grid_fine() -> GridSpec:
    """Finer graded grid for quadrature-oracle comparisons."""
    return GridSpec(nx=32, ny=512, y_max=15.0, stretch=2.0)


def perturbed_state(
    grid: GridSpec,
    a_rho: float = 0.005,
    a_u: float = 0.03,
    a_h: float = 0.05,
) -> State:
    """Equilibrium plus smooth decaying perturbations.

    The magnetic profile has zero y-mean per x-slice so that the stream
    function decays at the top (needed by the Hardy-based inequalities)."""
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    E = np.exp(-grid.y)[None, :]
    g = np.exp(-(Y**2))
    rho = a_rho * np.cos(X) * g
    u = E + a_u * np.sin(X) * Y**2 * g
    h = a_h * (1.0 - 2.0 * Y**2) * g * np.sin(X)
    return initial_state(grid, Field(rho, grid), Field(u, grid), Field(h, grid))


def solo_step(state, cfg, bundle=None, forcing=None, traces=None, status=None):
    """solver.step on a batch of one, raising what ended the run: the new
    state and its status.  traces default to the state's own and status
    to its monitor, as a run's first step takes them."""
    traces = solver.make_traces(state) if traces is None else traces
    status = solver.monitor(state, cfg.delta0, cfg.l) if status is None else status
    (outcome,) = solver.step([solver.Run(state, cfg, bundle, forcing, traces, status)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@pytest.fixture
def tower_builds(monkeypatch):
    """A counter of TimeTower constructions."""
    builds = [0]
    init = TimeTower.__init__

    def counted(self, *args, **kwargs):
        builds[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(TimeTower, "__init__", counted)
    return builds


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes n CPUs usable to workers.side_by_side; returns the list
    of the pids it forks from then on."""
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        return forked

    return use


def reaped(pids) -> bool:
    """True when none of pids is a child of this process any more."""
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        return False
    return True


@pytest.fixture
def state_equilibrium(grid_small) -> State:
    return equilibrium(grid_small)


@pytest.fixture
def state_perturbed(grid_small) -> State:
    return perturbed_state(grid_small)


def per_index_norm(fams, spec, norm) -> float:
    """The conormal norm by its per-index formula: each Z^alpha taken from
    scratch with apply_spatial, a Field as static data with zero time
    derivatives; the reference for the walked norms."""
    total = 0.0
    for idx in index_set(spec.m, spec.mode):
        for fam in fams:
            if isinstance(fam, Field):
                f = fam if idx.t_count == 0 else zero_field(fam.grid)
            else:
                f = fam(idx.t_count)
            total += norm(apply_spatial(f, idx)) ** 2
    return float(np.sqrt(total))
