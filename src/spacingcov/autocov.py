"""Auto-covariances of Sine_2 level spacings.

Exact values come from Fourier inversion of the spacing power spectrum,

    dI_k = (1/pi) integral_0^pi S(omega) cos(omega k) domega,

with the [0, omega_min) end integrated using the certified small-omega
closed form.  Each interpolant panel, and that end, gets one Gauss-Legendre
rule with NODES_PER_CYCLE nodes per period of cos(omega k) at the largest
requested lag, shared by all lags, so a series matches single-lag values to
about 1e-13 rather than bit for bit.  Closed asymptotics: the leading
-1/(2 pi^2 k^2) term, the refined form with the k^-4 (log + const)
bracket, and its variant carrying the cosine-integral term Ci(pi k) inside
the bracket (the two differ by O(k^-6) for integer k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .spectral import (DEFAULT_SPECTRUM_CONFIG, SpectrumConfig,
                       SpectrumInterpolant, power_spectrum_small_omega)

# Euler-Mascheroni constant, 20 digits
EULER_GAMMA = 0.57721566490153286061

TWO_PI = 2.0 * np.pi
NODES_PER_CYCLE = 10       # Gauss nodes per period of cos(omega k)
K_CAP = 400                # largest lag the inversion is certified for


@dataclass
class AutocovSeries:
    """delta I_k for k = 0..k_max from one backend; symmetric in k."""

    k_max: int
    values: np.ndarray
    backend: str                      # exact | dyson | asymptotic | asymptotic_ci | montecarlo
    uncertainty: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.k_max + 1,):
            raise ValueError("values must have length k_max + 1")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite autocovariance values")

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("k,backend,value,uncertainty\n")
            for k, v in enumerate(self.values):
                u = "" if self.uncertainty is None else f"{self.uncertainty[k]:.17g}"
                fh.write(f"{k},{self.backend},{v:.17g},{u}\n")


def autocov_exact(k: int, spectrum: SpectrumInterpolant) -> float:
    """Fourier inversion of the power spectrum at lag 0 <= k <= K_CAP."""
    return float(_fourier_inversion([k], spectrum)[0])


def autocov_series_exact(k_max: int, spectrum: SpectrumInterpolant) -> AutocovSeries:
    vals = _fourier_inversion(np.arange(k_max + 1), spectrum)
    return AutocovSeries(k_max, vals, "exact")


def _fourier_inversion(ks, spectrum: SpectrumInterpolant) -> np.ndarray:
    """delta I_k for every k in ks, on one rule per panel sized by max(ks)."""
    ks = np.asarray(ks, dtype=int)
    k_top = max(int(ks.max()), 1)
    if ks.min() < 0:
        raise ValueError("k must be >= 0")
    if k_top > K_CAP:
        # Nyquist-type guard: the fixed-degree panel model is not certified
        # against quadrature node counts this large
        raise ValueError(f"lag {k_top} exceeds the resolution guard {K_CAP}")
    panels = [(0.0, spectrum.omega_min, 48, power_spectrum_small_omega)]
    panels += [(lo, hi, 24, spectrum)
               for lo, hi in zip(spectrum.edges[:-1], spectrum.edges[1:])]
    total = np.zeros(ks.shape)
    for lo, hi, n_min, S in panels:
        n = int(np.ceil(NODES_PER_CYCLE * (hi - lo) * k_top / TWO_PI)) + 8
        gx, gw = leggauss(max(n_min, n))
        om = 0.5 * (hi - lo) * (gx + 1.0) + lo
        # cosines in place: (len(ks), n) stays below leggauss's n x n matrix
        c = np.outer(ks, om)
        total += np.cos(c, out=c) @ (0.5 * (hi - lo) * gw * S(om))
    return total / np.pi


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
        np.log(TWO_PI * k) + EULER_GAMMA - 11.0 / 6.0)
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
        np.log(TWO_PI * k) - ci + EULER_GAMMA - 11.0 / 6.0)
    return autocov_dyson(k) - sub


def sum_rule_residual(k_max: int, series: AutocovSeries) -> float:
    """dI_0 + 2 sum_{k=1}^{k_max} dI_k; tends to 0 (zero compressibility).

    The omitted tail is about -1/(pi^2 k_max) by the leading-decay form.
    """
    if series.backend != "exact":
        raise ValueError("sum rule applies to the exact backend")
    if k_max > series.k_max:
        raise ValueError("k_max exceeds series length")
    return float(series.values[0] + 2.0 * np.sum(series.values[1:k_max + 1]))


def dyson_tail_estimate(k_max: int) -> float:
    """Leading-decay estimate of the truncated sum-rule residual.

    The residual equals -2 sum_{k > k_max} dI_k, which is
    +(1/pi^2) sum_{k > k_max} k^-2 under the leading k^-2 decay;
    sum_{k>K} k^-2 = 1/K - 1/(2K^2) + 1/(6K^3) + O(K^-5).
    """
    K = k_max
    return (1.0 / K - 0.5 / K ** 2 + 1.0 / (6.0 * K ** 3)) / np.pi ** 2


def build_spectrum_interpolant(config: SpectrumConfig = DEFAULT_SPECTRUM_CONFIG,
                               **kw) -> SpectrumInterpolant:
    """Convenience wrapper used by the CLI and tests."""
    return SpectrumInterpolant.build(config, **kw)
