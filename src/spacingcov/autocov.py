"""Auto-covariances of Sine_2 level spacings.

Exact values come from Fourier inversion of the spacing power spectrum,

    dI_k = (1/pi) integral_0^pi S(omega) cos(omega k) domega,

on one fixed composite Gauss-Legendre rule.  Breaks sit at 0, at
omega_min and at the interpolant's panel edges; each interval is cut into
equal sub-panels no longer than four periods of cos(K_CAP omega), and each
sub-panel carries GAUSS_NODES nodes.  S is read through the interpolant,
which returns the certified small-omega closed form below omega_min.  The
rule integrates cos(k omega) over [0, pi] to within 2e-15 for k <= 50 and
1e-14 for k <= K_CAP.  It does not depend on the lags asked for, so a
lag's value is the same whichever other lags share the call, up to the
rounding of the matrix-vector product.  Closed asymptotics: the leading
-1/(2 pi^2 k^2) term, the refined form with the k^-4 (log + const)
bracket, and its variant carrying the cosine-integral term Ci(pi k) inside
the bracket (the two differ by O(k^-6) for integer k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .spectral import (DEFAULT_SPECTRUM_CONFIG, SpectrumConfig,
                       SpectrumInterpolant)

# Euler-Mascheroni constant, 20 digits
EULER_GAMMA = 0.57721566490153286061

TWO_PI = 2.0 * np.pi
K_CAP = 400                # largest lag the inversion is certified for
GAUSS_NODES = 32           # Gauss-Legendre nodes per sub-panel
PANEL_WIDTH = 4 * TWO_PI / K_CAP   # 4 periods of cos(K_CAP omega)


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
    """delta I_k for every k in ks, on the fixed rule of _rule."""
    ks = np.asarray(ks, dtype=int)
    if ks.min() < 0:
        raise ValueError("k must be >= 0")
    if ks.max() > K_CAP:
        # the rule resolves cos(k omega) only up to k = K_CAP
        raise ValueError(f"lag {ks.max()} exceeds the resolution guard {K_CAP}")
    total = np.zeros(ks.shape)
    for om, w in _rule(spectrum):
        # cosines in place, one interval at a time: at most about
        # len(ks) x 800 doubles
        c = np.outer(ks, om)
        total += np.cos(c, out=c) @ (w * spectrum(om))
    return total / np.pi


def _rule(spectrum: SpectrumInterpolant):
    """The inversion rule on [0, pi]: (nodes, weights) for each interval
    between breaks at 0 and the interpolant's edges (omega_min first),
    GAUSS_NODES per equal sub-panel no wider than PANEL_WIDTH."""
    gx, gw = leggauss(GAUSS_NODES)
    breaks = np.concatenate([[0.0], spectrum.edges])
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        m = int(np.ceil((hi - lo) / PANEL_WIDTH))
        h = (hi - lo) / m
        starts = lo + h * np.arange(m)
        yield ((starts[:, None] + 0.5 * h * (gx + 1.0)).ravel(),
               np.tile(0.5 * h * gw, m))


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
