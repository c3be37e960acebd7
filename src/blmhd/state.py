"""Solution state for the shifted boundary-layer system and conormal indices.

The shifted unknowns are rho_shift = rho - 1, u_shift = u1 - 1 + e^{-y},
h_shift = h1 - 1; they decay at the top of the layer.  The derived fields
v (vertical velocity), g (vertical magnetic field) and the stream function
psi are recovered from the divergence-free constraints and d_y psi = h by
closure, their one home: derive_secondary, every pde.TimeTower level and
every solver stage take them from it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import Field, GridSpec, zero_field
from .operators import dx, dy, integrate_y


@dataclass(frozen=True, order=True)
class MultiIndex:
    """Conormal derivative label: d_t^t_count Z1^x_count Z2^z2_count."""

    t_count: int = 0
    x_count: int = 0
    z2_count: int = 0

    def __post_init__(self):
        if min(self.t_count, self.x_count, self.z2_count) < 0:
            raise ValueError("multi-index counts must be nonnegative")

    @property
    def order(self) -> int:
        return self.t_count + self.x_count + self.z2_count

    @property
    def tangential_order(self) -> int:
        return self.t_count + self.x_count

    def is_tangential(self) -> bool:
        return self.z2_count == 0


@dataclass(frozen=True)
class State:
    """Shifted unknowns, derived fields and the time of the slice; the
    physical parameters live in pde.Physics (SolverConfig), not here."""

    rho_shift: Field
    u_shift: Field
    h_shift: Field
    v: Field
    g: Field
    psi: Field
    time: float = 0.0

    @property
    def grid(self) -> GridSpec:
        return self.rho_shift.grid

    @property
    def rho_total(self) -> np.ndarray:
        """Physical density rho = rho_shift + 1."""
        return self.rho_shift.values + 1.0


def initial_state(
    grid: GridSpec,
    rho_shift: Field | None = None,
    u_shift: Field | None = None,
    h_shift: Field | None = None,
    time: float = 0.0,
) -> State:
    """Build a State from primary fields, filling derived quantities; a
    missing primary field is zero."""
    primary = (rho_shift, u_shift, h_shift)
    if any(f is None for f in primary):
        z = zero_field(grid)
        primary = tuple(z if f is None else f for f in primary)
    rho, u, h = primary
    # v, g and psi hold u until derive_secondary replaces them
    return derive_secondary(State(rho, u, h, v=u, g=u, psi=u, time=time))


def closure(u: Field, h: Field):
    """(dx u, dx h, v, g, psi) of one time slice, with v = -int_0^y dx u,
    g = -int_0^y dx h and psi = int_0^y h, all three zero on the wall row.
    v and g are arrays, negated as arrays so that the sign builds no Field;
    the rest are Fields."""
    ux, hx = dx(u), dx(h)
    return ux, hx, -integrate_y(ux).values, -integrate_y(hx).values, integrate_y(h)


def derive_secondary(state: State) -> State:
    """Fill v, g and psi of a state by closure."""
    _, _, v, g, psi = closure(state.u_shift, state.h_shift)
    grid = state.grid
    return replace(state, v=Field._computed(v, grid), g=Field._computed(g, grid), psi=psi)


def divergence_defects(state: State) -> tuple[float, float, float]:
    """Sup norms of (dx u + dy v, dx h + dy g, dy psi - h).

    These vanish to quadrature accuracy when derive_secondary has run."""
    d1 = (dx(state.u_shift) + dy(state.v)).max_abs()
    d2 = (dx(state.h_shift) + dy(state.g)).max_abs()
    d3 = (dy(state.psi) - state.h_shift).max_abs()
    return d1, d2, d3
