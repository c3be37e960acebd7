"""The worker map (workers.side_by_side) and the per-slice passes that use
it: results in item order, the forks it makes, errors from a child, and
slices side by side bitwise equal to the slices in turn."""
import os

import numpy as np
import pytest

from blmhd import cancellation
from blmhd.cancellation import HFloorError, cancellation_residual, top_tangential_indices
from blmhd.data import equilibrium, physical
from blmhd.energy import trajectory_report
from blmhd.grid import GridSpec, field_from_function
from blmhd.solver import SolverConfig, Trajectory, run
from blmhd.sources import bootstrap_time_derivatives
from blmhd.workers import side_by_side

from conftest import perturbed_state, reaped

UNKNOWNS = ("rho_m", "u_m", "h_m")


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
@pytest.mark.parametrize("n_items", [0, 1, 2, 5])
def test_results_come_back_in_item_order(cpus, n_items, n_cpus):
    """One worker per usable CPU, at most one per item: a call with two or
    more items at two CPUs forks one child, and a call with one item forks
    none.  Item x runs in worker x mod the worker count."""
    forked = cpus(n_cpus)
    out = side_by_side(lambda x: (x * x, os.getpid()), range(n_items))
    workers = max(1, min(n_items, n_cpus))
    assert len(forked) == workers - 1 and reaped(forked)
    assert [sq for sq, _ in out] == [x * x for x in range(n_items)]
    pids = [os.getpid(), *forked]  # this process, then the children in fork order
    assert [pid for _, pid in out] == [pids[x % workers] for x in range(n_items)]


@pytest.mark.parametrize("x_scheme, scheme", [("fd4", "imex-cn"), ("spectral", "imex-be")])
def test_slices_side_by_side_equal_the_slices_in_turn(cpus, x_scheme, scheme):
    grid = GridSpec(nx=16, ny=48, y_max=15.0, stretch=2.0, x_scheme=x_scheme)
    st = perturbed_state(grid, a_rho=0.004, a_u=0.02, a_h=0.03)
    cfg = SolverConfig(eps=0.05, mu=0.7, kappa=1.3, dt=1e-3, t_end=4e-3, scheme=scheme)
    bundle = bootstrap_time_derivatives(*physical(st), m=2, mu=cfg.mu, kappa=cfg.kappa)
    traj = run(st, cfg, bundle, output_stride=1)
    assert not traj.breached and len(traj.states) == 5  # dealt 3 + 2
    results = {}
    for n in (2, 1):
        forked = cpus(n)
        del forked[:]
        reports = trajectory_report(traj, 2, 2.0)
        series = {
            (alpha1, which): cancellation_residual(traj, alpha1, which)
            for alpha1 in top_tangential_indices(2)
            for which in UNKNOWNS
        }
        assert cancellation._SLOT is None  # all nine taken: the next n recomputes
        assert len(forked) == (2 if n == 2 else 0) and reaped(forked)  # one child per pass
        results[n] = reports, series
    (r2, s2), (r1, s1) = results[2], results[1]
    assert r2 == r1
    assert np.array_equal([r.row() for r in r2], [r.row() for r in r1])
    assert len(s2) == len(s1) == 9
    for key, series in s1.items():
        assert len(series) == len(s2[key]) == 5
        for a, b in zip(s2[key], series):
            assert np.array_equal(a.values, b.values), key


def test_an_h_floor_error_in_a_childs_slice_reaches_the_caller(cpus, grid_small):
    """Slice 1 of two, the child's at two CPUs, has min(h + 1) = 0.05."""
    low = field_from_function(grid_small, lambda x, y: -0.95 * np.exp(-(y**2)))
    states = [perturbed_state(grid_small), equilibrium(grid_small, h_shift=low)]
    traj = Trajectory(states=states, monitors=[], config=SolverConfig(), bundle=None)
    passes = {
        "report": lambda: trajectory_report(traj, 2, 2.0),
        "residual": lambda: cancellation_residual(traj, top_tangential_indices(2)[0], "u_m"),
    }
    for name, evaluate in passes.items():
        messages = []
        for n in (1, 2):
            forked = cpus(n)
            del forked[:]
            with pytest.raises(HFloorError, match="h-floor violation") as err:
                evaluate()
            assert type(err.value) is HFloorError
            assert len(forked) == n - 1 and reaped(forked), name
            messages.append(str(err.value))
        assert messages[0] == messages[1], name
