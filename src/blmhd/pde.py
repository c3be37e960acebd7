"""Right-hand sides of the shifted regularized system and time derivatives.

The system evolves (rho_shift, u_shift, h_shift) =: (r, u, h) with advection
velocity U = u + 1 - e^{-y}, derived fields v, g, psi, physical density
rho = r + 1, and diffusion parameters (eps, mu, kappa):

    d_t r = -U dx r - v dy r + eps (dxx + dyy) r - eps dx r1 - eps dy r2
    rho d_t u = eps dxx u + mu dyy u + (h+1) dx h + g dy h - eps dx ru
                - mu W - rho (U dx u + v dy u + v e^{-y})
    d_t h = -U dx h - v dy h + eps dxx h + kappa dyy h
            + (h+1) dx u + g (dy u + e^{-y}) - eps dx rh

where W is the discrete second y-derivative of e^{-y}, so the uniform outer
state is an exact discrete steady state.  (r1, r2, ru, rh) are compatibility
sources and optional manufactured forcings (F_r, F_u, F_h) may be added.

Time derivatives of any order are obtained by repeatedly differentiating
these equations in time (Leibniz recursion), never by differencing stored
time levels; TimeTower implements the recursion on a State, and each level,
level 0 included, takes its v, g and psi from state.closure, the one home
of the divergence-free closure.  A level's psi is built only when it is
asked for; the solver never asks.  The tower is its slice's one home of
the derived fields and its one derivative cache: the Z1^b of the level
fields that the good unknowns, their residuals and the norm-equivalence
check read, and the dx and dy of the level fields that the energy walk and
the norms read, are each taken there once.

TimeTower.explicit is the one kernel for the non-diffusive terms: the tower
builds each level from it, and the solver takes its explicit tendencies
from it at level 0.  The tower starts each sum with its diffusion terms and
then adds the kernel's terms in a fixed order.  That order must not change:
the good-unknown residuals are small differences of O(1) terms, and moving
the diffusion to the end of the sums shifted one of them by 7e-9 relative.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, inf

import numpy as np

from .grid import Field
from .operators import d2x, d2y, dx, dy, z2
from .state import MultiIndex, State, closure

DENSITY_FLOOR = 0.1
# the deepest time derivative a TimeTower builds unless told otherwise; the
# energy functionals of order m read level m, so experiment.m stops here
DEPTH_CAP = 6


class DensityFloorError(ValueError):
    """Physical density dropped below the division guard threshold."""


def _check_density(rho_total: np.ndarray) -> None:
    m = float(rho_total.min())
    if m < DENSITY_FLOOR:
        raise DensityFloorError(
            f"density floor breached: min(rho) = {m:.4g} < {DENSITY_FLOOR}"
        )


@dataclass(frozen=True)
class Physics:
    """The diffusion coefficients of the shifted system; SolverConfig
    extends it, so a run's config is the physics of its towers."""

    mu: float = 1.0
    kappa: float = 1.0
    eps: float = 0.01

    def __post_init__(self):
        # written so that a NaN fails every comparison and is refused
        if not all(0 <= p < inf for p in (self.mu, self.kappa, self.eps)):
            raise ValueError("mu, kappa, eps must be finite and nonnegative")


@lru_cache(maxsize=64)
def exp_minus_y(grid) -> np.ndarray:
    """The shear profile E = e^{-y} as a read-only (1, ny) row."""
    E = np.exp(-grid.y)[None, :]
    E.setflags(write=False)
    return E


@lru_cache(maxsize=64)
def background(grid):
    """E = exp_minus_y(grid) and its discrete D_y^2 on the full grid, W,
    the well-balanced background forcing."""
    E = exp_minus_y(grid)
    return E, d2y(Field(np.broadcast_to(E, (grid.nx, grid.ny)), grid)).values


def provided_terms(provider, grid, t: float, i: int):
    """The arrays of a source or forcing provider's i-th time derivative at
    time t, or None if the provider is absent (None) or that derivative
    vanishes."""
    if provider is None:
        return None
    out = provider.fields(grid, t, deriv=i)
    return None if out is None else [f.values for f in out]


def _scaled(c: int, a):
    """c * a, without the full-array pass when the binomial factor c is 1
    (every factor at levels 0 and 1): multiplying by 1 is exact."""
    return a if c == 1 else c * a


_FIELDS = ("rho", "u", "h", "v", "g", "psi")


class TimeTower:
    """Lazy tower of time derivatives of (r, u, h, v, g, psi).

    Level 0 is a State (state), whose Fields the tower holds; a solver
    stage wraps its lagged arrays in one.  Level i+1 is obtained by
    applying d_t to the governing equations i times (Leibniz rule for
    products).  Every level takes v and g from its (u, h) by state.closure;
    psi is built by closure only when field("psi", i) or z("psi", i, b)
    asks for it.  rho is the physical density r + 1 of
    level 0, formed once: the density-floor check, explicit, the higher
    levels and the solver's stages all read it.  physics (required) is any
    object with the attributes eps, mu and kappa.

    sources and forcing are providers with fields(grid, t, deriv=i): the
    i-th time derivative, at the tower's time, of the source terms
    (dx r1, dy r2, dx ru, dx rh) (a sources.SourceBundle) or of the forcing
    (F_r, F_u, F_h), as Fields, or None where that derivative vanishes.
    None as the provider itself means absent; an absent term is skipped,
    never added as zeros.

    The tower is its time slice's one derivative cache: z(name, i, b) is
    Z1^b of a level field and deriv(axis, name, i, b) its dx or dy, each
    taken once.  The closure's dx u and dx h of each level seed that cache.

    The level Fields are built by Field._computed, not scanned for NaN or
    infinity: a stored State's fields were checked, every higher level is
    computed from them, and a solver stage's arrays reach the checked
    Fields that end their step.
    """

    def __init__(self, state: State, sources=None, forcing=None, max_depth: int = DEPTH_CAP, *, physics):
        self.physics = physics
        self.sources = sources
        self.forcing = forcing
        self.max_depth = max_depth
        self.state = state
        self.grid, self.time = state.grid, state.time
        self._derivs = {}
        self._sources = {}
        self._fields = {}
        self._E, self._W = background(self.grid)
        self.rho = state.rho_shift.values + 1.0
        _check_density(self.rho)
        self._levels = [self._close(0, state.rho_shift, state.u_shift, state.h_shift)]

    def level(self, i: int) -> dict:
        if i < 0:
            raise ValueError("level index must be nonnegative")
        if i > self.max_depth:
            raise ValueError(f"time-derivative depth {i} exceeds cap {self.max_depth}")
        while len(self._levels) <= i:
            self._levels.append(self._next_level())
        return self._levels[i]

    def field(self, name: str, i: int) -> Field:
        self.level(i)
        return self._operand(name, i)

    def z(self, name: str, i: int, b: int = 0) -> Field:
        """Z1^b of a level field at level i: the field itself at b = 0,
        else dx of its Z1^(b-1), each taken once per tower."""
        return self.field(name, i) if b == 0 else self.deriv("x", name, i, b - 1)

    def deriv(self, axis: str, name: str, i: int, b: int = 0, keep: bool = True) -> Field:
        """dx (axis "x") or dy (axis "y") of Z1^b of a level field at level
        i, computed once per tower and kept under (axis, name, i, b); the
        level is built if it is not yet.  With keep false a derivative
        that is not cached yet is taken and returned but not stored, so it
        is freed with its caller's reference."""
        key = (axis, name, i, b)
        out = self._derivs.get(key)
        if out is None:
            out = (dx if axis == "x" else dy)(self.z(name, i, b))
            if keep:
                self._derivs[key] = out
        return out

    def drop_chains(self) -> None:
        """Forget the dx and dy of every Z1^b with b >= 1, keeping the
        levels and the dx, dy of their fields: a caller that walks one
        tangential index after another holds one index's chain at a time."""
        self._derivs = {key: f for key, f in self._derivs.items() if key[3] == 0}

    def source_terms(self, i: int):
        """provided_terms of the sources at level i, once per tower."""
        if i not in self._sources:
            self._sources[i] = provided_terms(self.sources, self.grid, self.time, i)
        return self._sources[i]

    def U(self, j: int) -> np.ndarray:
        """d_t^j of the advection velocity U = u + 1 - e^{-y}."""
        u = self._levels[j]["u"]
        return u + (1.0 - self._E) if j == 0 else u

    def explicit(self, i: int, diffusion) -> tuple:
        """d_t^i of the non-diffusive right-hand sides: advection, coupling,
        sources, forcing and, at i = 0, the background term -mu W.

        Each sum is accumulated onto its starting value in diffusion =
        (r0, h0, B0), scalars or arrays that may be updated in place;
        returns the r and h tendencies and the momentum right-hand side B, where
        rho d_t u = B.  Levels 0..i must exist."""
        L, E, W = self._levels, self._E, self._W
        eps, mu = self.physics.eps, self.physics.mu

        def DX(name, j):
            return self.deriv("x", name, j).values

        def DY(name, j):
            return self.deriv("y", name, j).values

        # coefficient helpers: j-th time derivative of U, rho, h+1
        Us = [self.U(j) for j in range(i + 1)]
        RHO = [self.rho] + [L[j]["rho"] for j in range(1, i + 1)]
        HP1 = [L[0]["h"] + 1.0] + [L[j]["h"] for j in range(1, i + 1)]
        src = self.source_terms(i)
        frc = provided_terms(self.forcing, self.grid, self.time, i)
        drho, dh, B = diffusion

        # --- density -------------------------------------------------------
        if src is not None:
            drho = drho - (eps * src[0] + eps * src[1])
        if frc is not None:
            drho = drho + frc[0]
        for j in range(i + 1):
            drho -= _scaled(comb(i, j), Us[j] * DX("rho", i - j) + L[j]["v"] * DY("rho", i - j))

        # --- magnetic field --------------------------------------------------
        if src is not None:
            dh = dh - eps * src[3]
        if frc is not None:
            dh = dh + frc[2]
        for j in range(i + 1):
            c = comb(i, j)
            dh -= _scaled(c, Us[j] * DX("h", i - j) + L[j]["v"] * DY("h", i - j))
            dh += _scaled(c, HP1[j]) * DX("u", i - j)
            shear = DY("u", i - j) + E if j == i else DY("u", i - j)
            dh += _scaled(c, L[j]["g"]) * shear

        # --- momentum: d_t^i of (rho d_t u) = d_t^i B ----------------------
        if i == 0:
            B = B - mu * W
        if src is not None:
            B = B - eps * src[2]
        if frc is not None:
            B = B + frc[1]
        for j in range(i + 1):
            c = comb(i, j)
            B += _scaled(c, HP1[j]) * DX("h", i - j)
            B += _scaled(c, L[j]["g"]) * DY("h", i - j)
            B -= _scaled(c, RHO[j]) * L[i - j]["v"] * E
        for j in range(i + 1):
            for k in range(i - j + 1):
                c = comb(i, j) * comb(i - j, k)
                rest = i - j - k
                B -= _scaled(c, RHO[j]) * Us[k] * DX("u", rest)
                B -= _scaled(c, RHO[j]) * L[k]["v"] * DY("u", rest)
        return drho, dh, B

    # -- internals ---------------------------------------------------------

    def _operand(self, name: str, i: int) -> Field:
        key = (name, i)
        if key not in self._fields and name == "psi":
            self._fields[key] = closure("psi", self._fields[("h", i)])
        return self._fields[key]

    def _close(self, i: int, rho: Field, u: Field, h: Field) -> dict:
        """Level i from its rho, u and h Fields: v and g by state.closure,
        whose Fields and dx u, dx h are kept."""
        f = self._fields
        f[("rho", i)], f[("u", i)], f[("h", i)] = rho, u, h
        ux = self._derivs[("x", "u", i, 0)] = dx(u)
        hx = self._derivs[("x", "h", i, 0)] = dx(h)
        f[("v", i)], f[("g", i)] = closure("v", ux), closure("g", hx)
        return {name: f[(name, i)].values for name in ("rho", "u", "h", "v", "g")}

    def _next_level(self) -> dict:
        i = len(self._levels) - 1
        L = self._levels
        eps, mu, kappa = self.physics.eps, self.physics.mu, self.physics.kappa
        rho_i, u_i, h_i = (self._operand(name, i) for name in ("rho", "u", "h"))

        # the diffusion terms start each sum: this order of summation is
        # what the diagnostics are pinned to, so it must not change
        drho, dh, B = self.explicit(
            i,
            (
                eps * (d2x(rho_i).values + d2y(rho_i).values),
                eps * d2x(h_i).values + kappa * d2y(h_i).values,
                eps * d2x(u_i).values + mu * d2y(u_i).values,
            ),
        )
        acc = B
        for j in range(1, i + 1):
            acc = acc - _scaled(comb(i, j), L[j]["rho"]) * L[i + 1 - j]["u"]
        new = (Field._computed(a, self.grid) for a in (drho, acc / self.rho, dh))
        return self._close(i + 1, *new)


def pde_rhs(
    state: State, sources=None, forcing=None, physics=Physics()
) -> tuple[Field, Field, Field]:
    """Instantaneous (d_t rho_shift, d_t u_shift, d_t h_shift)."""
    tower = TimeTower(state, sources, forcing, max_depth=1, physics=physics)
    return tuple(tower.field(name, 1) for name in ("rho", "u", "h"))


def time_derivative_via_pde(
    state: State, which: str, order: int = 1, sources=None, forcing=None, physics=Physics()
) -> Field:
    """d_t^order of the selected field, by substituting the equations."""
    if which not in _FIELDS:
        raise ValueError(f"unknown field selector {which!r}")
    tower = TimeTower(state, sources, forcing, max_depth=order, physics=physics)
    return tower.field(which, order)


def apply_spatial(f: Field, idx: MultiIndex) -> Field:
    """The spatial part Z1^x_count Z2^z2_count f of a conormal derivative
    (idx.t_count is ignored)."""
    for _ in range(idx.x_count):
        f = dx(f)
    for _ in range(idx.z2_count):
        f = z2(f)
    return f

