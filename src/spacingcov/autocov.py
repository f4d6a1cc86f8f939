"""Auto-covariances of Sine_2 level spacings.

Exact values come from Fourier inversion of the spacing power spectrum,

    dI_k = (1/pi) integral_0^pi S(omega) cos(omega k) domega,

on one fixed composite Gauss-Legendre rule.  Breaks sit at 0, at
omega_min and at the interpolant's panel edges; each interval is cut into
equal sub-panels no longer than four periods of cos(K_CAP omega), and each
sub-panel carries GAUSS_NODES nodes.  S is read through the interpolant,
which returns the certified small-omega closed form below omega_min, in
one call over all 1 696 nodes of the default interpolant.  The rule
integrates cos(k omega) over [0, pi] to within 2e-15 for k <= 50 and
1e-14 for k <= K_CAP.  It does not depend on the lags asked for.

The cosines come from angle addition: a lag k = q B + r, with
B = ceil(sqrt(K_CAP + 1)) = 21, reads

    cos(k omega) = cos(q B omega) cos(r omega) - sin(q B omega) sin(r omega),

so a table of cos and sin of q B omega and of r omega, for the q and r
that occur, serves every lag: 2 (20 + 21) x 1 696 = 139 k transcendentals
for k = 0..K_CAP instead of 680 k cosines, one per lag and node.  The
identity adds a few ulp of 1 to each cosine; both it and cos(k omega)
carry the rounding of the angle, up to half an ulp of K_CAP pi (1.1e-13).
Over k <= K_CAP the values stay within 7.8e-16 (at k = 373) of a direct
cosine sum on the same rule.  A lag's value is the same whichever other
lags share the call, up to the rounding of the matrix product (at most
8.3e-17, at k = 0).

Closed asymptotics: the leading -1/(2 pi^2 k^2) term, the refined form
with the k^-4 (log + const) bracket, and its variant carrying the
cosine-integral term Ci(pi k) inside the bracket (the two differ by
O(k^-6) for integer k).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .spectral import SpectrumInterpolant

TWO_PI = 2.0 * np.pi
K_CAP = 400                # largest lag the inversion is certified for
GAUSS_NODES = 32           # Gauss-Legendre nodes per sub-panel
PANEL_WIDTH = 4 * TWO_PI / K_CAP   # 4 periods of cos(K_CAP omega)
# lags split as k = q _LAG_BLOCK + r: the block that keeps both cosine
# tables of the angle addition near sqrt(K_CAP) rows
_LAG_BLOCK = int(np.ceil(np.sqrt(K_CAP + 1)))


@dataclass
class AutocovSeries:
    """Exact delta I_k for k = 0..k_max; symmetric in k."""

    k_max: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.k_max < 0:
            raise ValueError("k_max must be >= 0")
        if self.values.shape != (self.k_max + 1,):
            raise ValueError("values must have length k_max + 1")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite autocovariance values")


def autocov_exact(k: int, spectrum: SpectrumInterpolant) -> float:
    """Fourier inversion of the power spectrum at lag 0 <= k <= K_CAP."""
    return float(_fourier_inversion([k], spectrum)[0])


def autocov_series_exact(k_max: int, spectrum: SpectrumInterpolant) -> AutocovSeries:
    (k_max,) = _lags([k_max])
    vals = _fourier_inversion(np.arange(k_max + 1), spectrum)
    return AutocovSeries(int(k_max), vals)


def _lags(ks) -> np.ndarray:
    """ks as an int array; ValueError unless it holds at least one lag and
    every lag is an integer in [0, K_CAP]."""
    ks = np.asarray(ks)
    if ks.size == 0:
        raise ValueError("no lags requested")
    integral = np.issubdtype(ks.dtype, np.integer) or (
        np.issubdtype(ks.dtype, np.floating)
        and np.all(np.isfinite(ks)) and np.all(ks == np.floor(ks)))
    if not integral:
        raise ValueError(f"lags must be integers, got {ks}")
    ks = ks.astype(int)
    if ks.min() < 0:
        raise ValueError(f"lags must be >= 0, got {ks.min()}")
    if ks.max() > K_CAP:
        # the rule resolves cos(k omega) only up to k = K_CAP
        raise ValueError(f"lag {ks.max()} exceeds the resolution guard {K_CAP}")
    return ks


def _fourier_inversion(ks, spectrum: SpectrumInterpolant) -> np.ndarray:
    """delta I_k for every k in the 1-d sequence ks, on the fixed rule of
    _rule, with the cosines from angle addition."""
    ks = _lags(ks)
    om, w = _rule(tuple(map(float, spectrum.edges)))
    v = w * spectrum(om)
    q, iq = np.unique(ks // _LAG_BLOCK, return_inverse=True)
    r, ir = np.unique(ks % _LAG_BLOCK, return_inverse=True)
    big = np.outer(q * _LAG_BLOCK, om)
    small = np.outer(r, om)
    # table[i, j] = sum_n v_n cos((q_i B + r_j) omega_n)
    table = ((np.cos(big) * v) @ np.cos(small).T
             - (np.sin(big) * v) @ np.sin(small).T)
    return table[iq, ir] / np.pi


@lru_cache(maxsize=8)
def _rule(edges: tuple):
    """The inversion rule on [0, pi] for the interpolant edges ``edges``
    (omega_min first), read-only and built once per tuple: (nodes,
    weights) over the intervals between breaks at 0 and the edges,
    GAUSS_NODES per equal sub-panel no wider than PANEL_WIDTH."""
    gx, gw = leggauss(GAUSS_NODES)
    breaks = (0.0,) + edges
    nodes, weights = [], []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        m = int(np.ceil((hi - lo) / PANEL_WIDTH))
        h = (hi - lo) / m
        starts = lo + h * np.arange(m)
        nodes.append((starts[:, None] + 0.5 * h * (gx + 1.0)).ravel())
        weights.append(np.tile(0.5 * h * gw, m))
    om, w = np.concatenate(nodes), np.concatenate(weights)
    om.flags.writeable = w.flags.writeable = False
    return om, w


def autocov_dyson(k: int) -> float:
    """Conjectured leading decay -1/(2 pi^2 k^2)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return -1.0 / (2.0 * np.pi ** 2 * k ** 2)


def autocov_asymptotic(k: int) -> float:
    """-1/(2 pi^2 k^2) - (3/(2 pi^4 k^4)) (log(2 pi k) + gamma - 11/6)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    sub = 3.0 / (2.0 * np.pi ** 4 * k ** 4) * (
        np.log(TWO_PI * k) + np.euler_gamma - 11.0 / 6.0)
    return autocov_dyson(k) - sub


def autocov_asymptotic_ci(k: int) -> float:
    """Refined form with the -Ci(pi k) term kept inside the k^-4 bracket."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # scipy.special loads here, not with the package: the exact route is
    # numpy alone
    from scipy.special import sici
    ci = sici(np.pi * k)[1]
    sub = 3.0 / (2.0 * np.pi ** 4 * k ** 4) * (
        np.log(TWO_PI * k) - ci + np.euler_gamma - 11.0 / 6.0)
    return autocov_dyson(k) - sub


def sum_rule_residual(k_max: int, series: AutocovSeries) -> float:
    """dI_0 + 2 sum_{k=1}^{k_max} dI_k; tends to 0 (zero compressibility).

    The omitted tail is about -1/(pi^2 k_max) by the leading-decay form.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if k_max > series.k_max:
        raise ValueError("k_max exceeds series length")
    return float(series.values[0] + 2.0 * np.sum(series.values[1:k_max + 1]))


def dyson_tail_estimate(k_max: int) -> float:
    """Leading-decay estimate of the truncated sum-rule residual.

    The residual equals -2 sum_{k > k_max} dI_k, which is
    +(1/pi^2) sum_{k > k_max} k^-2 under the leading k^-2 decay;
    sum_{k>K} k^-2 = 1/K - 1/(2K^2) + 1/(6K^3) + O(K^-5).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    K = k_max
    return (1.0 / K - 0.5 / K ** 2 + 1.0 / (6.0 * K ** 3)) / np.pi ** 2
