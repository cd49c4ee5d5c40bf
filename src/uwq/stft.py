"""Short-time Fourier transform with the unit Gaussian window, its adjoint,
and the inversion identity V* V = (2 pi)^d.

The window translates are circular shifts of the sampled base window, the
natural translation on a periodic grid; the periodization they introduce is
below e^{-L^2/2} and in exchange the discrete inversion identity holds to
rounding for every grid function, decaying or not.  Transforms are computed
as n^d independent windowed DFTs (no subsampled lattice).
"""

from __future__ import annotations

import math

import numpy as np

from .grid import (
    AxisGrid,
    FunctionGrid,
    PhaseFunctionGrid,
    _shifted_fft,
    _shifted_ifft,
    l2_norm,
    phase_l2_norm,
)

__all__ = ["window_translates", "stft", "stft_adjoint", "stft_norm_check"]


def window_translates(axis: AxisGrid) -> np.ndarray:
    """W[y, t] = G0((x_t - x_y) mod 2L), flattened to (n^d, n^d), real.

    Row y is the sampled unit Gaussian window recentred at grid point y by
    circular shift; all rows share one l2 norm exactly.
    """
    n = axis.n
    x = axis.points()
    w1 = math.pi ** (-0.25) * np.exp(-0.5 * x**2)
    ridx = (np.arange(n)[:, None] - np.arange(n)[None, :] + n // 2) % n
    w1shift = w1[ridx]  # [t, y] -> w1 at (x_t - x_y) wrapped
    if axis.d == 1:
        return w1shift.T.copy()
    full = np.einsum("ac,bd->abcd", w1shift, w1shift)  # [t1,t2,y1,y2]
    return full.reshape(n * n, n * n).T.copy()


def stft(u: FunctionGrid) -> PhaseFunctionGrid:
    """V u(y, eta) = F_{t -> eta}( u(t) G0(t - y) ), y over the full grid."""
    axis = u.axis
    d = axis.d
    W = window_translates(axis)  # (N, N) rows y
    windowed = W.reshape((axis.size,) + axis.shape) * u.values[None, ...]
    axes = tuple(range(1, d + 1))
    spec = _shifted_fft(windowed, axes)
    vals = (axis.dx**d) * spec
    return PhaseFunctionGrid(axis, vals.reshape(axis.shape * 2))


def stft_adjoint(F: PhaseFunctionGrid) -> FunctionGrid:
    """V* F(t) = (2 pi)^d * sum_y dy^d G0(t - y) F^{-1}_{eta -> t} F(y, .),
    the exact adjoint of ``stft`` for the discrete weighted inner products."""
    axis = F.xaxis
    d = axis.d
    N = axis.size
    W = window_translates(axis)
    rows = F.values.reshape((N,) + axis.shape)
    axes = tuple(range(1, d + 1))
    back = _shifted_ifft(rows, axes) / (axis.dx**d)
    # (2 pi)^{-d} is part of inverse_fourier; dy^d (2 pi)^d remain
    out = (axis.dx**d) * np.einsum("yt,yt->t", W, back.reshape(N, N))
    out = (2.0 * math.pi) ** d * out
    return FunctionGrid(axis, out.reshape(axis.shape))


def stft_norm_check(u: FunctionGrid) -> dict:
    """Both sides of ||V u|| = (2 pi)^{d/2} ||u|| by discrete quadrature."""
    lhs = phase_l2_norm(stft(u))
    rhs = (2.0 * math.pi) ** (u.axis.d / 2.0) * l2_norm(u)
    return {"lhs": lhs, "rhs": rhs}
