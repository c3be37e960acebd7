"""Discrete differential and conormal operators on grid fields.

x-derivatives: 4th-order central periodic differences by default, spectral
behind the grid's x_scheme flag.  The difference stencils read their four
shifted operands as slices of one copy of the field padded with two
periodic ghost rows at each end of axis 0; the spectral ones are one
product with a cached dense nx x nx differentiation matrix
(_spectral_matrices), built once per nx from the FFT of the identity.

y-derivatives: 2nd-order three-point stencils on the (possibly graded) y
grid, one-sided at the two boundary rows.  A field is C-contiguous with y
fastest, so flat index k = i ny + j holds (x_i, y_j) and its y neighbours
sit at k - 1 and k + 1.  Every y three-point stencil (dy, d2y, Z2 and the
solver's D_y^2 apply) is one pass of _stencil over the flat buffer: three
contiguous slices, weighted by the interior coefficients tiled once per
grid over the flat index with 0 on the wall and top columns, which each
caller then overwrites with its own closure.  The conormal operator
Z2 = phi(y) d/dy vanishes identically on the wall row because phi(0) = 0.

Every cached coefficient array is read-only.  Each operator returns
Field._computed of its result: the operand is a Field, so already checked,
and the result is not scanned again for NaN or infinity.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import Field, GridSpec


def phi(y: np.ndarray) -> np.ndarray:
    """Wall-degenerate conormal weight y/(1+y)."""
    return y / (1.0 + y)


def _frozen(*arrays):
    """The arrays, write-protected in place (for caches that hand them out)."""
    for v in arrays:
        v.setflags(write=False)
    return arrays


# ---------------------------------------------------------------------------
# x direction (axis 0, periodic)
# ---------------------------------------------------------------------------

def _shifts(v: np.ndarray):
    """v[i-2], v[i-1], v[i+1], v[i+2] (indices mod nx along axis 0), as
    slices of one array padded with two periodic ghost rows at each end."""
    n = v.shape[0]
    p = np.concatenate((v[-2:], v, v[:2]), axis=0)
    return p[:n], p[1:n + 1], p[3:n + 3], p[4:]


def _dx_fd4(v: np.ndarray, dx: float) -> np.ndarray:
    """(8 (v[i+1] - v[i-1]) - (v[i+2] - v[i-2])) / (12 dx), in two buffers."""
    vm2, vm1, vp1, vp2 = _shifts(v)
    out = np.subtract(vp1, vm1)
    out *= 8.0
    tmp = np.subtract(vp2, vm2)
    out -= tmp
    out /= 12.0 * dx
    return out


def _d2x_fd4(v: np.ndarray, dx: float) -> np.ndarray:
    """(-v[i+2] + 16 v[i+1] - 30 v[i] + 16 v[i-1] - v[i-2]) / (12 dx^2), left
    to right, in two buffers: 16 v[i+1] - v[i+2] is -v[i+2] + 16 v[i+1]."""
    vm2, vm1, vp1, vp2 = _shifts(v)
    out = np.multiply(16.0, vp1)
    out -= vp2
    tmp = np.multiply(30.0, v)
    out -= tmp
    np.multiply(16.0, vm1, out=tmp)
    out += tmp
    out -= vm2
    out /= 12.0 * dx * dx
    return out


@lru_cache(maxsize=32)
def _spectral_matrices(nx: int):
    """Read-only nx x nx matrices D1 and D2 of the spectral d/dx and
    d^2/dx^2 on [0, 2pi): the rfft of the identity scaled by i k and -k^2
    (integer wavenumbers k), transformed back column by column, so that
    D @ v is the same linear map as the FFT formula, to round-off.

    At the lab's widths (nx <= 128) one BLAS product is cheaper than an
    rfft/irfft pair.  Its cost grows as nx^2 per y-line against the FFT's
    nx log nx, and the FFT is the cheaper from about nx = 256 (dx at
    ny = 128, one core: 453 against 385 us; 1854 against 815 us at
    nx = 512)."""
    k = np.fft.rfftfreq(nx, d=1.0 / nx)[:, None]
    eye_hat = np.fft.rfft(np.eye(nx), axis=0)
    return _frozen(
        np.fft.irfft(1j * k * eye_hat, n=nx, axis=0),
        np.fft.irfft(-(k**2) * eye_hat, n=nx, axis=0),
    )


def dx(f: Field) -> Field:
    g = f.grid
    if g.x_scheme == "spectral":
        return Field._computed(_spectral_matrices(g.nx)[0] @ f.values, g)
    return Field._computed(_dx_fd4(f.values, g.dx), g)


def d2x(f: Field) -> Field:
    g = f.grid
    if g.x_scheme == "spectral":
        return Field._computed(_spectral_matrices(g.nx)[1] @ f.values, g)
    return Field._computed(_d2x_fd4(f.values, g.dx), g)


# ---------------------------------------------------------------------------
# y direction (axis 1, wall at j=0, top at j=ny-1)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _dy_coeffs(grid: GridSpec):
    """Three-point first-derivative coefficients (interior central,
    one-sided 2nd order at both ends).  Returns (lo, di, up) arrays of
    length ny addressing values at j-1, j, j+1 for interior rows; rows 0
    and ny-1 are handled separately with forward/backward stencils."""
    y = grid.y
    h1 = y[1:-1] - y[:-2]
    h2 = y[2:] - y[1:-1]
    lo = -h2 / (h1 * (h1 + h2))
    di = (h2 - h1) / (h1 * h2)
    up = h1 / (h2 * (h1 + h2))
    # one-sided: f'(y0) from (y0, y1, y2); f'(yN) from (yN-2, yN-1, yN)
    a, b = y[1] - y[0], y[2] - y[0]
    c0 = np.array([-(a + b) / (a * b), b / (a * (b - a)), -a / (b * (b - a))])
    a, b = y[-1] - y[-2], y[-1] - y[-3]
    cN = np.array([a / (b * (b - a)), -b / (a * (b - a)), (a + b) / (a * b)])
    return _frozen(lo, di, up, c0, cN)


@lru_cache(maxsize=64)
def _d2y_coeffs(grid: GridSpec):
    """Three-point second-derivative coefficients on the graded grid, plus
    four-point one-sided 2nd-order closures for the boundary rows."""
    y = grid.y
    h1 = y[1:-1] - y[:-2]
    h2 = y[2:] - y[1:-1]
    lo = 2.0 / (h1 * (h1 + h2))
    di = -2.0 / (h1 * h2)
    up = 2.0 / (h2 * (h1 + h2))
    c0 = _onesided_d2(y[:4] - y[0])
    cN = _onesided_d2(y[-4:] - y[-1])
    return _frozen(lo, di, up, c0, cN)


def _onesided_d2(t: np.ndarray) -> np.ndarray:
    """Second-derivative weights at t=0 from 4 nodes via Vandermonde."""
    A = np.vander(t, 4, increasing=True).T
    rhs = np.zeros(4)
    rhs[2] = 2.0
    return np.linalg.solve(A, rhs)


@lru_cache(maxsize=64)
def _flat_rows(grid: GridSpec, order: int, lines: int):
    """The interior (lo, di, up) of _dy_coeffs (order 1) or _d2y_coeffs
    (order 2) tiled over the flat index of a (lines, ny) array (lines is
    nx for a field): entry k - 1 weighs flat index k = i ny + j, and is 0
    where j is the wall or top column.  Read-only, lines ny - 2 entries
    each."""
    coeffs = _dy_coeffs(grid) if order == 1 else _d2y_coeffs(grid)
    rows = []
    for c in coeffs[:3]:
        line = np.zeros(grid.ny)
        line[1:-1] = c
        rows.append(np.tile(line, lines)[1:-1])
    return _frozen(*rows)


@lru_cache(maxsize=64)
def _phi_row(grid: GridSpec) -> np.ndarray:
    """phi(y) tiled over the flat index of an (nx, ny) field; read-only."""
    return _frozen(np.tile(phi(grid.y), grid.nx))[0]


def _stencil(v: np.ndarray, grid: GridSpec, order: int) -> np.ndarray:
    """(lo v[j-1] + di v[j]) + up v[j+1] with the order-th y-derivative's
    interior coefficients, as one pass over the flat buffer of v, whose
    rows are y-lines of the grid.  Returns a new C-contiguous array whose
    wall and top columns the caller must overwrite: they hold 0, except
    the first and last entries, which are left uninitialised."""
    lo, di, up = _flat_rows(grid, order, v.shape[0])
    vf = v.reshape(-1)
    out = np.empty(v.shape)
    o = out.reshape(-1)[1:-1]
    tmp = np.empty_like(o)
    np.multiply(lo, vf[:-2], out=o)
    np.multiply(di, vf[1:-1], out=tmp)
    o += tmp
    np.multiply(up, vf[2:], out=tmp)
    o += tmp
    return out


def dy_wall(f: Field) -> np.ndarray:
    """d_y f on the wall row: the one-sided stencil of dy at j = 0."""
    return f.values[:, :3] @ _dy_coeffs(f.grid)[3]


def dy(f: Field) -> Field:
    v = f.values
    out = _stencil(v, f.grid, 1)
    out[:, 0] = dy_wall(f)
    out[:, -1] = v[:, -3:] @ _dy_coeffs(f.grid)[4]
    return Field._computed(out, f.grid)


def d2y(f: Field) -> Field:
    _, _, _, c0, cN = _d2y_coeffs(f.grid)
    v = f.values
    out = _stencil(v, f.grid, 2)
    out[:, 0] = v[:, :4] @ c0
    out[:, -1] = v[:, -4:] @ cN
    return Field._computed(out, f.grid)


def z2(f: Field) -> Field:
    """Wall-degenerate conormal derivative Z2 = phi(y) d/dy.

    The wall row is exactly zero (phi(0) = 0), so no one-sided stencil is
    needed there; dy's values are scaled by phi in place."""
    v = f.values
    out = _stencil(v, f.grid, 1)
    out[:, 0] = 0.0
    out[:, -1] = v[:, -3:] @ _dy_coeffs(f.grid)[4]
    flat = out.reshape(-1)
    np.multiply(flat, _phi_row(f.grid), out=flat)
    return Field._computed(out, f.grid)


@lru_cache(maxsize=64)
def _half_dy(grid: GridSpec) -> np.ndarray:
    """0.5 (y[j+1] - y[j]), the trapezoid weights of integrate_y; read-only."""
    return _frozen(0.5 * np.diff(grid.y))[0]


def integrate_y(f: Field) -> Field:
    """Antiderivative in y vanishing at the wall: (Iy f)(x, y) = int_0^y f.

    Cumulative trapezoid on the graded grid.  Each segment is
    (v[j] + v[j+1]) (0.5 dy), bitwise equal to 0.5 (v[j] + v[j+1]) dy: the
    scaling by 0.5 is exact (barring subnormal sums)."""
    v = f.values
    seg = v[:, 1:] + v[:, :-1]
    seg *= _half_dy(f.grid)
    out = np.empty(v.shape)
    out[:, 0] = 0.0
    np.cumsum(seg, axis=1, out=out[:, 1:])
    return Field._computed(out, f.grid)
