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
time levels; TimeTower implements the recursion, and each level takes its
v, g and psi from state.closure, the one home of the divergence-free closure.

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
from math import comb

import numpy as np

from .grid import Field
from .operators import d2x, d2y, dx, dy, z2
from .state import MultiIndex, State, closure

DENSITY_FLOOR = 0.1


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
        if min(self.mu, self.kappa, self.eps) < 0:
            raise ValueError("mu, kappa, eps must be nonnegative")


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


# the State attribute of each tower field; a field is selected by either name
_STATE_FIELDS = dict(rho="rho_shift", u="u_shift", h="h_shift", v="v", g="g", psi="psi")
_SELECTORS = {**{name: name for name in _STATE_FIELDS}, **{a: n for n, a in _STATE_FIELDS.items()}}


class TimeTower:
    """Lazy tower of time derivatives of (r, u, h, v, g, psi).

    Level 0 is a State, whose Fields the tower holds (state is that State,
    else None), or a solver stage's (grid, t, (rho, u, h)) arrays at time
    t; level i+1 is obtained by applying d_t to the governing equations i
    times (Leibniz rule for products).  Each level but a State's takes v,
    g, psi from its (u, h) by state.closure.  physics (required) is any
    object with the attributes eps, mu and kappa.

    sources and forcing are providers with fields(grid, t, deriv=i): the
    i-th time derivative, at the tower's time, of the source terms
    (dx r1, dy r2, dx ru, dx rh) (a sources.SourceBundle) or of the forcing
    (F_r, F_u, F_h), as Fields, or None where that derivative vanishes.
    None as the provider itself means absent; an absent term is skipped,
    never added as zeros.

    dx and dy of each (level field, level) are computed once and kept;
    the closure's dx u and dx h seed that cache.
    """

    def __init__(self, state, sources=None, forcing=None, max_depth: int = 6, *, physics):
        self.physics = physics
        self.sources = sources
        self.forcing = forcing
        self.max_depth = max_depth
        self._derivs = {}
        self._sources = {}
        self.state = state if isinstance(state, State) else None
        if isinstance(state, State):
            self.grid, self.time = state.grid, state.time
            self._fields = {(name, 0): getattr(state, a) for name, a in _STATE_FIELDS.items()}
            level = {name: f.values for (name, _), f in self._fields.items()}
        else:
            self.grid, self.time, (rho, u, h) = state
            self._fields = {("rho", 0): Field(rho, self.grid)}
            level = self._close(0, self._fields[("rho", 0)].values, u, h)
        self._E, self._W = background(self.grid)
        _check_density(level["rho"] + 1.0)
        self._levels = [level]

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

    def deriv(self, axis: str, name: str, i: int) -> Field:
        """dx (axis "x") or dy (axis "y") of a level field at level i,
        computed once per tower."""
        out = self._derivs.get((axis, name, i))
        if out is None:
            op = dx if axis == "x" else dy
            out = self._derivs[(axis, name, i)] = op(self._operand(name, i))
        return out

    def source_terms(self, i: int):
        """provided_terms of the sources at level i, once per tower."""
        if i not in self._sources:
            self._sources[i] = provided_terms(self.sources, self.grid, self.time, i)
        return self._sources[i]

    def U(self, j: int) -> np.ndarray:
        """d_t^j of the advection velocity U = u + 1 - e^{-y}."""
        return self._levels[j]["u"] + (1.0 - self._E if j == 0 else 0.0)

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
        RHO = [L[j]["rho"] + (1.0 if j == 0 else 0.0) for j in range(i + 1)]
        HP1 = [L[j]["h"] + (1.0 if j == 0 else 0.0) for j in range(i + 1)]
        src = self.source_terms(i)
        frc = provided_terms(self.forcing, self.grid, self.time, i)
        drho, dh, B = diffusion

        # --- density -------------------------------------------------------
        if src is not None:
            drho = drho - (eps * src[0] + eps * src[1])
        if frc is not None:
            drho = drho + frc[0]
        for j in range(i + 1):
            c = comb(i, j)
            drho -= c * (Us[j] * DX("rho", i - j) + L[j]["v"] * DY("rho", i - j))

        # --- magnetic field --------------------------------------------------
        if src is not None:
            dh = dh - eps * src[3]
        if frc is not None:
            dh = dh + frc[2]
        for j in range(i + 1):
            c = comb(i, j)
            dh -= c * (Us[j] * DX("h", i - j) + L[j]["v"] * DY("h", i - j))
            dh += c * HP1[j] * DX("u", i - j)
            shear = DY("u", i - j) + (E if i - j == 0 else 0.0)
            dh += c * L[j]["g"] * shear

        # --- momentum: d_t^i of (rho d_t u) = d_t^i B ----------------------
        if i == 0:
            B = B - mu * W
        if src is not None:
            B = B - eps * src[2]
        if frc is not None:
            B = B + frc[1]
        for j in range(i + 1):
            c = comb(i, j)
            B += c * HP1[j] * DX("h", i - j)
            B += c * L[j]["g"] * DY("h", i - j)
            B -= c * RHO[j] * L[i - j]["v"] * E
        for j in range(i + 1):
            for k in range(i - j + 1):
                c = comb(i, j) * comb(i - j, k)
                rest = i - j - k
                B -= c * RHO[j] * Us[k] * DX("u", rest)
                B -= c * RHO[j] * L[k]["v"] * DY("u", rest)
        return drho, dh, B

    # -- internals ---------------------------------------------------------

    def _operand(self, name: str, i: int) -> Field:
        out = self._fields.get((name, i))
        if out is None:
            out = self._fields[(name, i)] = Field(self._levels[i][name], self.grid)
        return out

    def _close(self, i: int, rho, u, h) -> dict:
        """Level i from its (rho, u, h) arrays: v, g and psi by
        state.closure, whose u, h and psi Fields and dx u, dx h are kept."""
        u_f = self._fields[("u", i)] = Field(u, self.grid)
        h_f = self._fields[("h", i)] = Field(h, self.grid)
        ux, hx, v, g, psi = closure(u_f, h_f)
        self._derivs[("x", "u", i)], self._derivs[("x", "h", i)] = ux, hx
        self._fields[("psi", i)] = psi
        return {"rho": rho, "u": u_f.values, "h": h_f.values, "v": v, "g": g, "psi": psi.values}

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
        rho_phys = L[0]["rho"] + 1.0  # checked against the floor at construction
        acc = B
        for j in range(1, i + 1):
            acc = acc - comb(i, j) * L[j]["rho"] * L[i + 1 - j]["u"]
        return self._close(i + 1, drho, acc / rho_phys, dh)


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
    name = _SELECTORS.get(which)
    if name is None:
        raise ValueError(f"unknown field selector {which!r}")
    tower = TimeTower(state, sources, forcing, max_depth=order, physics=physics)
    return tower.field(name, order)


def apply_spatial(f: Field, idx: MultiIndex) -> Field:
    """The spatial part Z1^x_count Z2^z2_count f of a conormal derivative
    (idx.t_count is ignored)."""
    for _ in range(idx.x_count):
        f = dx(f)
    for _ in range(idx.z2_count):
        f = z2(f)
    return f


def tower_family(tower: TimeTower, name: str):
    """Field family k -> d_t^k of a named state field via the tower."""
    sel = _SELECTORS[name]
    return lambda k: tower.field(sel, k)


def deriv_family(tower: TimeTower, axis: str, name: str):
    """Field family k -> dx (axis "x") or dy (axis "y") of d_t^k of a named
    state field, from the tower's derivative cache."""
    sel = _SELECTORS[name]

    def fam(k: int) -> Field:
        tower.level(k)
        return tower.deriv(axis, sel, k)

    return fam


def map_family(op, fam):
    """Compose a spatial operator with a family (spatial ops commute with d_t)."""
    return lambda k: op(fam(k))
