"""Compatibility source terms for the regularized system.

The regularization adds artificial x/y diffusion; to keep the initial time
derivatives of the regularized solution equal to those of the original
system, polynomial-in-time sources are built from the initial data:

    (r1, r2, ru, rh)(t) = sum_{i<m} t^i/i! * d_t^i(dx rho, dy rho, dx u1, dx h1)(0),

where the time derivatives at t = 0 are bootstrapped through the
unregularized equations (eps = 0), never by time differencing.  The data
are the physical triple (for a State, data.physical of it); the tower is
built on data.shifted of it.

The equations read the sources only as eps (dx r1 + dy r2), eps dx ru and
eps dx rh, so a SourceBundle differentiates each Taylor coefficient once
and hands out those terms.  Absent sources are None, never a bundle of
zeros.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

from .data import shifted
from .grid import Field, GridSpec
from .operators import dx, dy
from .pde import DENSITY_FLOOR, DensityFloorError, Physics, TimeTower
from .state import initial_state


@dataclass(frozen=True)
class SourceBundle:
    """Taylor coefficients of the four sources and of the terms the
    equations read.

    levels[i] = (d_t^i dx rho, d_t^i dy rho, d_t^i dx u1, d_t^i dx h1) at
    t = 0, i.e. d_t^i (r1, r2, ru, rh) at t = 0; m = number of levels.
    terms[i] = (dx r1, dy r2, dx ru, dx rh) of levels[i], taken once at
    construction."""

    levels: tuple
    m: int
    terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m != len(self.levels):
            raise ValueError("m must equal the number of levels")
        terms = tuple((dx(r1), dy(r2), dx(ru), dx(rh)) for r1, r2, ru, rh in self.levels)
        object.__setattr__(self, "terms", terms)

    def fields(self, grid: GridSpec, t: float, deriv: int = 0):
        """The deriv-th time derivative of (dx r1, dy r2, dx ru, dx rh) at
        time t >= 0, or None for deriv >= m, where every one vanishes.

        The Taylor sum starts from the coefficient of level deriv itself,
        so a one-term sum (deriv = m - 1) is the stored term."""
        if t < 0:
            raise ValueError(f"t must be nonnegative, got {t}")
        if deriv >= self.m:
            return None
        out = self.terms[deriv]
        for i in range(deriv + 1, self.m):
            c = t ** (i - deriv) / factorial(i - deriv)
            out = tuple(Field(a.values + c * b.values, grid) for a, b in zip(out, self.terms[i]))
        return out


def bootstrap_time_derivatives(
    rho0: Field,
    u10: Field,
    h10: Field,
    m: int,
    *,
    mu: float,
    kappa: float,
) -> SourceBundle:
    """Bootstrap d_t^i of the coefficient quadruple for i = 0..m-1.

    The physical initial triple is shifted, a time-derivative tower of the
    unregularized system (eps = 0, the required mu and kappa, no sources) is
    built, and the spatial derivatives are taken per level.  Level 0
    reduces to direct spatial derivatives of the data."""
    if m < 1:
        raise ValueError(f"bootstrap depth m must be >= 1, got {m}")
    rmin = float(rho0.values.min())
    if rmin < DENSITY_FLOOR:
        raise DensityFloorError(
            f"initial density floor {rmin:.4g} below guard {DENSITY_FLOOR}"
        )
    state = initial_state(rho0.grid, *shifted(rho0, u10, h10))
    tower = TimeTower(state, max_depth=m, physics=Physics(mu, kappa, eps=0.0))
    levels = []
    for i in range(m):
        fr = tower.field("rho", i)
        fu = tower.field("u", i)
        fh = tower.field("h", i)
        levels.append((dx(fr), dy(fr), dx(fu), dx(fh)))
    return SourceBundle(levels=tuple(levels), m=m)
