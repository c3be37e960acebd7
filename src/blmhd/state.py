"""Solution state for the shifted boundary-layer system and conormal indices.

The shifted unknowns are rho_shift = rho - 1, u_shift = u1 - 1 + e^{-y},
h_shift = h1 - 1; they decay at the top of the layer.  The derived fields
v (vertical velocity), g (vertical magnetic field) and the stream function
psi are recovered from the divergence-free constraints and d_y psi = h by
closure, their one home.  A State holds the three shifted fields and the
time, nothing else.  Its derived fields live in the pde.TimeTower built on
it (a solver stage wraps its lagged arrays in one), whose every level,
level 0 included, takes v and g from closure, and psi only when asked.
derive_secondary builds one of them without a tower, for the few readers
that hold none: the solver's CFL rule, snapshots and divergence_defects.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    """Shifted unknowns and the time of the slice; the physical parameters
    live in pde.Physics (SolverConfig), and the derived fields v, g and psi
    in the slice's pde.TimeTower (or derive_secondary), not here."""

    rho_shift: Field
    u_shift: Field
    h_shift: Field
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
    """Build a State from primary fields; a missing primary field is zero."""
    primary = (rho_shift, u_shift, h_shift)
    if any(f is None for f in primary):
        z = zero_field(grid)
        primary = tuple(z if f is None else f for f in primary)
    return State(*primary, time=time)


def closure(name: str, f: Field) -> Field:
    """The derived field name of one time slice from f, zero on the wall
    row: v = -int_0^y f of f = dx u, g = -int_0^y f of f = dx h, and
    psi = int_0^y f of f = h.  The sign of v and g is taken on the array,
    so that it builds no checked Field."""
    out = integrate_y(f)
    return out if name == "psi" else Field._computed(-out.values, f.grid)


def derive_secondary(state: State, name: str) -> Field:
    """The derived field name ("v", "g" or "psi") of a state by closure,
    for a reader that holds no tower; nothing is kept."""
    if name == "psi":
        return closure(name, state.h_shift)
    return closure(name, dx(state.u_shift if name == "v" else state.h_shift))


def divergence_defects(state: State) -> tuple[float, float, float]:
    """Sup norms of (dx u + dy v, dx h + dy g, dy psi - h).

    These vanish to quadrature accuracy: v, g and psi come from closure."""
    v, g, psi = (derive_secondary(state, name) for name in ("v", "g", "psi"))
    d1 = (dx(state.u_shift) + dy(v)).max_abs()
    d2 = (dx(state.h_shift) + dy(g)).max_abs()
    d3 = (dy(psi) - state.h_shift).max_abs()
    return d1, d2, d3
