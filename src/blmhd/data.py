"""The built-in initial data and the map between the physical triple
(rho, u1, h1) and the shifted unknowns (rho - 1, u1 - 1 + e^{-y}, h1 - 1).

The paper's estimates are stated on the shifted unknowns, which decay at
the top of the layer; its data norms and the compatibility sources are
taken of the physical triple.  Both built-in families have u = e^{-y} plus
a perturbation that vanishes at the wall, so U(0) = 1: a slip wall.
"""
from __future__ import annotations

import numpy as np

from .grid import Field, GridSpec
from .pde import exp_minus_y
from .state import State, initial_state


def physical(state: State) -> tuple[Field, Field, Field]:
    """The physical triple (rho, u1, h1) of a state."""
    grid = state.grid
    return (
        Field._computed(state.rho_shift.values + 1.0, grid),
        Field._computed(state.u_shift.values + 1.0 - exp_minus_y(grid), grid),
        Field._computed(state.h_shift.values + 1.0, grid),
    )


def shifted(rho: Field, u1: Field, h1: Field) -> tuple[Field, Field, Field]:
    """The shifted unknowns of a physical triple."""
    grid = rho.grid
    return (
        Field(rho.values - 1.0, grid),
        Field(u1.values - 1.0 + exp_minus_y(grid), grid),
        Field(h1.values - 1.0, grid),
    )


def equilibrium(grid: GridSpec, **fields) -> State:
    """The uniform physical state (1, 1, 1), whose shifted u is e^{-y};
    keyword arguments (rho_shift, h_shift, time) go to initial_state."""
    u = Field(np.broadcast_to(exp_minus_y(grid), (grid.nx, grid.ny)), grid)
    return initial_state(grid, u_shift=u, **fields)


def perturbed(grid: GridSpec, seed: int, amplitude: float) -> State:
    """The equilibrium plus a seeded smooth decaying perturbation of size
    amplitude: x-modes k = 1, 2 with random coefficients times a Gaussian
    in y.  The magnetic profile has zero y-mean per x-slice so the stream
    function decays."""
    rng = np.random.default_rng(seed)
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    E = exp_minus_y(grid)

    def modes():
        acc = np.zeros_like(X)
        for k in (1, 2):
            a, b = rng.uniform(-1.0, 1.0, size=2)
            acc += a * np.cos(k * X) + b * np.sin(k * X)
        return acc / 4.0

    gauss = np.exp(-(Y**2))
    rho = amplitude * modes() * gauss
    u = E + amplitude * modes() * Y**2 * gauss
    h = amplitude * modes() * (1.0 - 2.0 * Y**2) * gauss
    return initial_state(grid, Field(rho, grid), Field(u, grid), Field(h, grid))
