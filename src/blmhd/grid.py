"""Structured grid on the periodic strip [0, 2pi) x [0, y_max] and fields on it.

x is uniform and periodic; y is graded toward the wall y = 0 by an
exponential stretching parameter.  Quadrature is uniform in x and
trapezoidal in y.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi


class GridError(ValueError):
    """Invalid grid specification."""


class NonFiniteError(ValueError):
    """A Field was given NaN or infinite entries."""


@dataclass(frozen=True)
class GridSpec:
    """Resolution and geometry of the computational domain.

    nx: periodic points in x over [0, 2pi)
    ny: points in y, including the wall y=0 and the top y=y_max
    y_max: truncation height of the half line
    stretch: exponential grading parameter sigma (0 = uniform)
    x_scheme: 'fd4' (default) or 'spectral' for x-differentiation
    """

    nx: int
    ny: int
    y_max: float = 15.0
    stretch: float = 0.0
    x_scheme: str = "fd4"

    def __post_init__(self):
        if self.nx < 8:
            raise GridError(f"nx must be >= 8, got {self.nx}")
        if self.ny < 8:
            raise GridError(f"ny must be >= 8, got {self.ny}")
        if self.y_max < 10:
            raise GridError(f"y_max must be >= 10, got {self.y_max}")
        if self.stretch < 0:
            raise GridError(f"stretch must be >= 0, got {self.stretch}")
        if self.x_scheme not in ("fd4", "spectral"):
            raise GridError(f"unknown x_scheme {self.x_scheme!r}")

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) * (TWO_PI / self.nx)

    @cached_property
    def y(self) -> np.ndarray:
        return build_y(self.ny, self.y_max, self.stretch)

    @cached_property
    def wx(self) -> np.ndarray:
        """Quadrature weights in x (uniform, periodic)."""
        return np.full(self.nx, TWO_PI / self.nx)

    @cached_property
    def wy(self) -> np.ndarray:
        """Trapezoidal quadrature weights in y."""
        y = self.y
        w = np.empty_like(y)
        w[0] = 0.5 * (y[1] - y[0])
        w[-1] = 0.5 * (y[-1] - y[-2])
        w[1:-1] = 0.5 * (y[2:] - y[:-2])
        return w

    @property
    def dx(self) -> float:
        return TWO_PI / self.nx

    @cached_property
    def weight_2d(self) -> np.ndarray:
        """Outer product wx[:, None] * wy[None, :] for area quadrature."""
        return self.wx[:, None] * self.wy[None, :]


def build_y(ny: int, y_max: float, stretch: float) -> np.ndarray:
    """Wall-graded y coordinates: uniform for stretch 0, exponential otherwise."""
    s = np.arange(ny) / (ny - 1)
    if stretch == 0.0:
        y = y_max * s
    else:
        y = y_max * np.expm1(stretch * s) / np.expm1(stretch)
    if not np.all(np.diff(y) > 0):
        raise GridError("y coordinates are not strictly increasing")
    return y


@dataclass(frozen=True)
class Field:
    """A real scalar field sampled on a GridSpec, shape (nx, ny).

    values is read-only and C-contiguous.  A C-contiguous float64 array
    that owns its data (base is None) is adopted, not copied: its write
    flag is turned off in place, so a later write to it through any other
    name raises ValueError instead of changing the field.  A view,
    broadcasts included, is copied, since its base could still be written
    to; so is a non-contiguous array."""

    values: np.ndarray
    grid: GridSpec = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.nx, self.grid.ny):
            raise ValueError(
                f"field shape {v.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})"
            )
        if not np.isfinite(v).all():
            raise NonFiniteError("field contains non-finite entries")
        if v.base is not None or not v.flags.c_contiguous:
            v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __add__(self, other):
        return Field(self.values + _vals(other), self.grid)

    def __sub__(self, other):
        return Field(self.values - _vals(other), self.grid)

    def __mul__(self, other):
        return Field(self.values * _vals(other), self.grid)

    __rmul__ = __mul__

    def __neg__(self):
        return Field(-self.values, self.grid)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def _vals(x):
    return x.values if isinstance(x, Field) else x


def field_from_function(grid: GridSpec, fn) -> Field:
    """Sample fn(x, y) on the grid (broadcast over meshgrid)."""
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    return Field(np.broadcast_to(np.asarray(fn(X, Y), dtype=float), X.shape), grid)


def zero_field(grid: GridSpec) -> Field:
    return Field(np.zeros((grid.nx, grid.ny)), grid)
