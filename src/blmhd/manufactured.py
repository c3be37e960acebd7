"""Analytic test solutions with symbolically derived forcings.

A ManufacturedSolution fixes smooth expressions for the shifted triple
(rho, u, h), derives v, g, psi and the forcing terms (F_rho, F_u, F_h)
symbolically so that the triple solves the shifted system exactly with
zero compatibility sources, and exposes everything as callable grid
fields, including arbitrary time derivatives of the forcing (needed by
the time-derivative towers).

All expressions vanish appropriately at the wall (u = 0, d_y rho =
d_y h = 0 at y = 0) and decay rapidly at the top.

sympy, an optional dependency that no CLI verb needs, is imported on first
use (it costs ~0.4 s and ~22 MiB at import).
"""
from __future__ import annotations

import math

import numpy as np

from .grid import Field, GridSpec
from .state import State, initial_state

_ERF = np.frompyfunc(math.erf, 1, 1)


def _erf(a):
    """Elementwise error function (psi of a Gaussian-decaying h has one)."""
    return np.asarray(_ERF(a), dtype=float)


def _sympy():
    """The sympy module and the real symbols t, x, y of the expressions."""
    import sympy as sp

    return (sp, *sp.symbols("t x y", real=True))


def _default_expressions():
    sp, t, x, y = _sympy()
    decay = sp.exp(-y**2)
    rho = 0.05 * sp.exp(-t) * sp.cos(x) * decay
    u = 0.1 * sp.exp(-t) * sp.sin(x) * y**2 * decay
    h = 0.1 * sp.exp(-t) * sp.cos(x) * decay
    return rho, u, h


class ManufacturedSolution:
    """Symbolic exact solution of the forced shifted system; its mu, kappa
    and eps also serve as the physics of a tower or of pde_rhs."""

    def __init__(
        self,
        mu: float = 1.0,
        kappa: float = 1.0,
        eps: float = 0.01,
        rho_expr=None,
        u_expr=None,
        h_expr=None,
    ):
        self.mu = float(mu)
        self.kappa = float(kappa)
        self.eps = float(eps)
        if rho_expr is None:
            rho_expr, u_expr, h_expr = _default_expressions()
        sp, t, x, y = _sympy()
        self.exprs = {"rho": rho_expr, "u": u_expr, "h": h_expr}
        # derived fields from the divergence-free relations
        self.exprs["v"] = -sp.integrate(sp.diff(u_expr, x), (y, 0, y))
        self.exprs["g"] = -sp.integrate(sp.diff(h_expr, x), (y, 0, y))
        self.exprs["psi"] = sp.integrate(h_expr, (y, 0, y))

        E = sp.exp(-y)
        U = u_expr + 1 - E
        rho_tot = rho_expr + 1
        v, g = self.exprs["v"], self.exprs["g"]
        lap = lambda f: sp.diff(f, x, 2) + sp.diff(f, y, 2)
        self.exprs["F_rho"] = (
            sp.diff(rho_expr, t)
            + U * sp.diff(rho_expr, x)
            + v * sp.diff(rho_expr, y)
            - self.eps * lap(rho_expr)
        )
        self.exprs["F_u"] = (
            rho_tot * sp.diff(u_expr, t)
            + rho_tot * (U * sp.diff(u_expr, x) + v * sp.diff(u_expr, y) + v * E)
            - self.eps * sp.diff(u_expr, x, 2)
            - self.mu * sp.diff(u_expr, y, 2)
            + self.mu * E
            - (h_expr + 1) * sp.diff(h_expr, x)
            - g * sp.diff(h_expr, y)
        )
        self.exprs["F_h"] = (
            sp.diff(h_expr, t)
            + U * sp.diff(h_expr, x)
            + v * sp.diff(h_expr, y)
            - self.eps * sp.diff(h_expr, x, 2)
            - self.kappa * sp.diff(h_expr, y, 2)
            - (h_expr + 1) * sp.diff(u_expr, x)
            - g * (sp.diff(u_expr, y) + E)
        )
        self._fns: dict = {}

    # -- evaluation ----------------------------------------------------------

    def _fn(self, name: str, t_deriv: int):
        key = (name, t_deriv)
        if key not in self._fns:
            sp, t, x, y = _sympy()
            expr = sp.diff(self.exprs[name], t, t_deriv) if t_deriv else self.exprs[name]
            self._fns[key] = sp.lambdify((t, x, y), expr, modules=[{"erf": _erf}, "numpy"])
        return self._fns[key]

    def eval(self, name: str, grid: GridSpec, t: float, t_deriv: int = 0) -> Field:
        X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
        vals = self._fn(name, t_deriv)(t, X, Y)
        return Field(np.broadcast_to(np.asarray(vals, dtype=float), X.shape), grid)

    def state_at(self, grid: GridSpec, t: float) -> State:
        """Sampled state (derived fields recomputed discretely)."""
        return initial_state(
            grid,
            rho_shift=self.eval("rho", grid, t),
            u_shift=self.eval("u", grid, t),
            h_shift=self.eval("h", grid, t),
            time=t,
        )

    def exact_time_derivatives(self, grid: GridSpec, t: float):
        """d_t (rho, u, h) at t."""
        return tuple(self.eval(n, grid, t, t_deriv=1) for n in ("rho", "u", "h"))

    def fields(self, grid: GridSpec, t: float, deriv: int = 0):
        """Forcing-provider interface: d_t^deriv (F_rho, F_u, F_h) at t."""
        return tuple(
            self.eval(n, grid, t, t_deriv=deriv) for n in ("F_rho", "F_u", "F_h")
        )

    def check_boundary_compatibility(self, grid: GridSpec) -> None:
        """u, v, psi and the normal derivatives of rho, h must vanish at y=0."""
        sp, _, _, y = _sympy()
        checks = {
            "u(y=0)": self.exprs["u"].subs(y, 0),
            "dy rho(y=0)": sp.diff(self.exprs["rho"], y).subs(y, 0),
            "dy h(y=0)": sp.diff(self.exprs["h"], y).subs(y, 0),
        }
        for name, expr in checks.items():
            if sp.simplify(expr) != 0:
                raise ValueError(f"manufactured fields violate the wall condition: {name} != 0")
