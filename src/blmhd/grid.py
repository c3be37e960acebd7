"""Structured grid on the periodic strip [0, 2pi) x [0, y_max] and fields on it.

x is uniform and periodic; y is graded toward the wall y = 0 by an
exponential stretching parameter.  Quadrature is uniform in x and
trapezoidal in y.

Finiteness is checked where data enter, not in every Field.  Field(values,
grid) scans its values and raises NonFiniteError on a NaN or an infinity:
the data builders, field_from_function, zero_field, Field arithmetic (whose
operand may be any array) and the solver's new arrays at the end of every
step are built so.  Field._computed skips the scan, for arrays the package
computes from Fields that were already checked (the operators, the time
tower, v and g of the closure, the good unknowns and their residuals): a
diagnostic pass builds thousands of those, and a non-finite value in a
solver step still reaches the checked Fields at the step's end.
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

    def __hash__(self) -> int:
        # hashed once: the lru caches keyed by a grid hash it on every lookup
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(
                (self.nx, self.ny, self.y_max, self.stretch, self.x_scheme)
            )
        return h

    def __getstate__(self) -> dict:
        # the hash of x_scheme, a str, is salted per process, so a pickle
        # carries the cached arrays but not the hash
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

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
    def dy_min(self) -> float:
        """The smallest y spacing (the CFL rule's)."""
        return float(np.min(np.diff(self.y)))

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
    to; so is a non-contiguous array.

    Field(values, grid) is the checked entry point: it also raises
    NonFiniteError, before adopting anything, if values hold a NaN or an
    infinity.  Field._computed adopts or copies in the same way without
    that scan (see the module docstring for where each is used)."""

    values: np.ndarray
    grid: GridSpec = field(repr=False)

    def __post_init__(self):
        v = _shaped(self.values, self.grid)
        if not np.isfinite(v).all():
            raise NonFiniteError("field contains non-finite entries")
        object.__setattr__(self, "values", _owned(v))

    @classmethod
    def _computed(cls, values, grid: GridSpec) -> Field:
        """A Field of an array computed from checked Fields: shape-checked,
        adopted or copied as by Field, but not scanned for finiteness."""
        f = object.__new__(cls)
        object.__setattr__(f, "values", _owned(_shaped(values, grid)))
        object.__setattr__(f, "grid", grid)
        return f

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


def _shaped(values, grid: GridSpec) -> np.ndarray:
    """values as a float array, which must have the grid's (nx, ny) shape."""
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.nx, grid.ny):
        raise ValueError(f"field shape {v.shape} does not match grid ({grid.nx}, {grid.ny})")
    return v


def _owned(v: np.ndarray) -> np.ndarray:
    """v adopted (write-protected in place) if it is a C-contiguous array
    that owns its data, else a read-only copy."""
    if v.base is not None or not v.flags.c_contiguous:
        v = v.copy()
    v.setflags(write=False)
    return v


def _vals(x):
    return x.values if isinstance(x, Field) else x


def field_from_function(grid: GridSpec, fn) -> Field:
    """Sample fn(x, y) on the grid (broadcast over meshgrid)."""
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    return Field(np.broadcast_to(np.asarray(fn(X, Y), dtype=float), X.shape), grid)


def zero_field(grid: GridSpec) -> Field:
    return Field(np.zeros((grid.nx, grid.ny)), grid)
