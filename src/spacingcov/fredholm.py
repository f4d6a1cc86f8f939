"""Sine-kernel Fredholm determinants by Nystrom quadrature.

det(I - zeta K_s) for the sine kernel K(x, y) = sin(pi (x - y)) / (pi (x - y))
acting on L^2(0, s).  At zeta = 1 this is the gap probability E(s) of the
Sine_2 process; for zeta on the circle |1 - zeta| = 1 it is an independent
oracle for the Painlevé route: det(I - zeta K_{lam/2pi}) must equal
exp(integral_0^lam sigma0(t; zeta)/t dt).

The kernel is entire, so a Gauss-Legendre Nystrom discretization converges
spectrally; the node count is doubled from START_NODES, at most to
MAX_NODES, until two successive determinants agree to DET_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DET_TOL, START_NODES, MAX_NODES = 1e-12, 40, 640


class ConvergenceError(RuntimeError):
    """Node doubling hit the cap without the determinant settling."""


@dataclass(frozen=True)
class DeterminantRequest:
    """One determinant evaluation: det(I - zeta K_s) at `nodes` quadrature points."""

    zeta: complex
    interval_length: float
    nodes: int = 80

    def __post_init__(self):
        z = complex(self.zeta)
        if not (np.isfinite(z.real) and np.isfinite(z.imag)):
            raise ValueError("zeta must be finite")
        s = complex(self.interval_length)
        if not (np.isfinite(s.real) and np.isfinite(s.imag)):
            raise ValueError("interval_length must be finite")
        if s.imag == 0 and s.real < 0:
            raise ValueError("interval_length must be >= 0")
        if self.nodes < 4:
            raise ValueError("nodes must be >= 4")


@lru_cache(maxsize=1024)
def _nystrom_rule(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only: leggauss
    costs an O(n^3) eigensolve, over half of a determinant at n = 241.
    The spectral module's panels and lift share the 32-node rule."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def sine_kernel_det(req: DeterminantRequest) -> complex:
    """det(I - zeta W^{1/2} K W^{1/2}) on Gauss-Legendre nodes in (0, s).

    Complex s is allowed (nodes placed on the straight segment from 0 to s);
    used when cross-checking the lifted Painlevé contour.
    """
    s = complex(req.interval_length)
    if s == 0:
        return 1.0 + 0j
    x, w = _nystrom_rule(req.nodes)
    # map [-1, 1] to the segment [0, s]
    t = 0.5 * s * (x + 1.0)
    w = 0.5 * s * w
    sq = np.sqrt(w.astype(complex))
    K = np.sinc(np.subtract.outer(t, t))
    A = np.eye(req.nodes, dtype=complex) - req.zeta * (sq[:, None] * K * sq[None, :])
    sign, logdet = np.linalg.slogdet(A)
    return sign * np.exp(logdet)


def sine_kernel_det_auto(zeta, interval_length) -> complex:
    """Node-doubling wrapper: return the determinant once two successive
    node counts agree to DET_TOL (absolute)."""
    n = START_NODES
    prev = sine_kernel_det(DeterminantRequest(zeta, interval_length, n))
    while 2 * n <= MAX_NODES:
        n *= 2
        cur = sine_kernel_det(DeterminantRequest(zeta, interval_length, n))
        if abs(cur - prev) < DET_TOL:
            return cur
        prev = cur
    raise ConvergenceError(
        f"determinant not converged to {DET_TOL} at {MAX_NODES} nodes "
        f"(s = {interval_length}, zeta = {zeta})")


def gap_probability(s: float) -> float:
    """Probability of no Sine_2 level in an interval of length s."""
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0:
        return 1.0
    det = sine_kernel_det_auto(1.0, s)
    if abs(det.imag) > 1e-10:
        raise ConvergenceError(
            f"gap probability has imaginary part {det.imag:.3e} at s = {s}")
    return float(det.real)
