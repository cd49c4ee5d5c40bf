"""Short-time Fourier transform with the unit Gaussian window, its adjoint,
and the inversion identity V* V = (2 pi)^d.

The window translates are circular shifts of the sampled base window, the
natural translation on a periodic grid; the periodization they introduce is
below e^{-L^2/2} and in exchange V* V u = (2 pi)^d c^d u holds to rounding
for every grid function, decaying or not, with c = dx sum_z G0(z)^2 equal
to 1 up to e^{-L^2} and e^{-pi^2/dx^2}.

The window is a tensor product over axes, so no N x N window (N = n^d) is
ever formed: each axis uses one n x n circulant table.  The shifted-DFT
bookkeeping folds into O(N) vectors, because for even n

    fftshift(fft(ifftshift(v)))[k] = fft((-1)^m v[(m + n/2) mod n])[k],

so u is rolled by n/2 and signed before the FFTs, the window table is
built with its columns in that folded order, and the adjoint undoes the
roll and the sign on its O(N) result.  In d = 2 the transform along the
first axis does not depend on the second window centre; it runs on n^3
points, and the second axis is windowed into the result's own array and
transformed there, in place along the contiguous last array axis.  The
adjoint mirrors this one y1 slab at a time: the inverse xi2 transform and
the y2 sum bring each slab down to n^2 points of an n^3 table.  So the
forward holds one N^2-sized array, its result, and the adjoint none beside
its input.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import (
    AxisGrid,
    FunctionGrid,
    PhaseFunctionGrid,
    l2_norm,
    phase_l2_norm,
)

__all__ = ["window_translates", "stft", "stft_adjoint", "stft_norm_check"]


def window_translates(axis: AxisGrid) -> np.ndarray:
    """G[y, m] = G0((x_t - x_y) mod 2L) with t = (m + n/2) mod n: the
    window table of one axis, (n, n) and real for every d; the
    d-dimensional window is the tensor product of this table.

    Row y is the sampled unit Gaussian window recentred at grid point y by
    circular shift; all rows share one l2 norm exactly.  Its columns are in
    the folded FFT order, so row n/2 is the window at circular offsets
    0, 1, ..., n-1 and the table is never needed as the N x N kron(G, G).
    """
    n = axis.n
    w1 = math.pi ** (-0.25) * np.exp(-0.5 * axis.points() ** 2)
    z = np.arange(n)
    return w1[(z[None, :] - z[:, None]) % n]


def _sign(axis: AxisGrid) -> np.ndarray:
    """(-1)^(m_1 + ... + m_d) on the grid."""
    return 1.0 - 2.0 * (np.indices(axis.shape).sum(axis=0) % 2)


def stft(u: FunctionGrid) -> PhaseFunctionGrid:
    """V u(y, eta) = F_{t -> eta}( u(t) G0(t - y) ), y over the full grid."""
    axis = u.axis
    d = axis.d
    G = window_translates(axis)
    v = _sign(axis) * np.fft.ifftshift(u.values)
    if d == 1:
        spec = np.fft.fft(G * v, axis=-1)
    else:
        # A[y1, k1, m2] does not depend on y2; V = fft_m2(G[y2, m2] A[y1, k1, m2]),
        # windowed into the result's own array and transformed there
        A = np.fft.fft(G[:, :, None] * v, axis=1)
        spec = np.multiply(A[:, None], G[:, None, :], out=np.empty(axis.shape * 2, complex))
        np.fft.fft(spec, axis=-1, out=spec)
    spec *= axis.dx**d
    return PhaseFunctionGrid(axis, spec)


def stft_adjoint(F: PhaseFunctionGrid) -> FunctionGrid:
    """V* F(t) = (2 pi)^d * sum_y dy^d G0(t - y) F^{-1}_{eta -> t} F(y, .),
    the exact adjoint of ``stft`` for the discrete weighted inner products."""
    axis = F.xaxis
    d = axis.d
    G = window_translates(axis)
    # (2 pi)^{-d} is part of inverse_fourier; dy^d (2 pi)^d remain
    if d == 1:
        back = np.fft.ifft(F.values, axis=-1)
        back /= axis.dx**d
        out = np.einsum("ym,ym->m", G, back)
    else:
        # one y1 slab at a time: the inverse xi2 transform and the y2 sum
        # bring it down to C[y1, k1, m2], then the first axis at n^3
        n = axis.n
        back = np.empty((n,) * 3, complex)
        C = np.empty((n,) * 3, complex)
        for y1 in range(n):
            np.fft.ifft(F.values[y1], axis=-1, out=back)
            back /= axis.dx**d
            np.einsum("bm,bkm->km", G, back, out=C[y1])
        np.fft.ifft(C, axis=1, out=C)
        out = np.einsum("am,amk->mk", G, C)
    out = (2.0 * math.pi) ** d * ((axis.dx**d) * out)
    return FunctionGrid(axis, np.fft.fftshift(_sign(axis) * out))


def stft_norm_check(u: FunctionGrid) -> dict:
    """Both sides of ||V u|| = (2 pi)^{d/2} ||u|| by discrete quadrature."""
    lhs = phase_l2_norm(stft(u))
    rhs = (2.0 * math.pi) ** (u.axis.d / 2.0) * l2_norm(u)
    return {"lhs": lhs, "rhs": rhs}
