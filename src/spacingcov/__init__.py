"""Auto-covariances of Sine_2 level spacings, three independent ways.

- painleve / fredholm: the exact route (Painlevé V log-integral and its
  sine-kernel determinant oracle)
- spectral / autocov: power spectrum of spacings and its Fourier inversion,
  plus closed-form large-lag asymptotics
- montecarlo / cmv: CUE(N) Monte Carlo with streaming statistics, and its
  sampler (the Killip-Nenciu CMV model)
- cli: the `spacingcov` command

The exact route and the Monte Carlo sampler need numpy alone; importing
the package loads no scipy, and only `autocov_asymptotic_ci` (the cosine
integral) loads it.  The montecarlo names below resolve on first use.
"""

from .autocov import (AutocovSeries, autocov_asymptotic, autocov_asymptotic_ci,
                      autocov_dyson, autocov_exact, autocov_series_exact,
                      sum_rule_residual)
from .fredholm import (DeterminantRequest, gap_probability, sine_kernel_det,
                       sine_kernel_det_auto)
from .painleve import (SigmaTrajectory, log_generating_function, series_sigma0,
                       solve_sigma0)
from .spectral import (PowerSpectrumTable, SpectrumConfig, SpectrumInterpolant,
                       power_spectrum, power_spectrum_small_omega,
                       spacing_distribution)

__version__ = "0.1.0"

__all__ = [
    "AutocovSeries", "CueBatch", "DeterminantRequest", "MCConfig",
    "MCEstimate", "PowerSpectrumTable", "SigmaTrajectory", "SpectrumConfig",
    "SpectrumInterpolant", "aggregate",
    "autocov_asymptotic", "autocov_asymptotic_ci", "autocov_dyson",
    "autocov_exact", "autocov_series_exact", "finite_n_power_spectra",
    "gap_probability", "log_generating_function", "power_spectrum",
    "power_spectrum_small_omega", "sample_cue_eigenangles", "series_sigma0",
    "sine_kernel_det", "sine_kernel_det_auto", "solve_sigma0",
    "spacing_distribution", "sum_rule_residual", "unfold",
]

# imported on first use: the exact route needs none of montecarlo
_MONTECARLO_NAMES = frozenset({
    "CueBatch", "MCConfig", "MCEstimate", "aggregate",
    "finite_n_power_spectra", "sample_cue_eigenangles", "unfold"})


def __getattr__(name):
    """The montecarlo names, imported on first use (PEP 562)."""
    if name in _MONTECARLO_NAMES:
        from . import montecarlo
        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
