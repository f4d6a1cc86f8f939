"""Power spectrum of level spacings of the Sine_2 process.

The exact representation is

    S(omega) = (1/pi) Re integral_0^inf exp(L(lam; omega)) dlam,

where L(lam; omega) is the Painlevé log-integral of the painleve module at
zeta = 1 - e^{i omega}; equivalently exp(L) is the sine-kernel Fredholm
determinant at interval length lam/2pi (the selectable "fredholm" backend).

The integrand decays only algebraically, so the integral is split at
lam = Lambda = 250 (TAIL_START).  The head [0, Lambda] is composite
Gauss-Legendre quadrature of the trajectory: along the real axis to the
series radius, up the vertical lift, then along Im t = elevation.  The
tail is closed with the Fisher-Hartwig expansion of the sine-kernel
determinant: with v = omega/2pi,

    exp L(t) = sum_j C_j t^{-2(v+j)^2} e^{i(v+j)t} (1 + sum_m c_jm t^{-m}),

a sum over the representations v + j, j = -2..2 (Basor-Widom 1983 and
Budylin-Buslaev 1995 for the leading term; Deift-Its-Krasovsky, Ann. Math.
2011, and Bothner-Deift-Its-Krasovsky, CMP 2015, for the sum).  The
exponents and rates are known, so the 30 amplitudes C_j c_jm (m < 6) are a
linear least-squares fit to exp L on the window lam in [90, 250], taken on
the same path and the same quadrature nodes as the head.  Each term is
integrated from Lambda to infinity by Gauss-Laguerre along the ray
t = Lambda +- i s on which its oscillation decays.  One design matrix,
its columns exp(p log(t/90) + i (v+j) t), serves this fit and the
fifth-order one of the error estimate, which solves on its columns m < 5;
one table of the rays serves both tails.  Both backends share this
closure.

The leading amplitude is known in closed form, C_0 = [G(1+v) G(1-v)]^2
with G the Barnes G-function, so every value carries an analytic check: a
fit whose misfit or whose C_0 is off raises TruncationError and returns no
value.  The error estimate is the change of the tail when the fit drops its
highest order, plus the C_0 mismatch (the relative error of the fitted
values, ODE error included) times |integral_0^inf exp L|, the factor by
which such a relative error reaches S; at small omega that factor is about
1/v.

Also here: the small-omega closed form, the spacing density P(s) from the
zeta = 1 trajectory, and a piecewise-Chebyshev interpolant of S(omega) used
by the Fourier inversion.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np
from numpy.polynomial.laguerre import laggauss

from . import store
from .fredholm import DeterminantRequest, _nystrom_rule, sine_kernel_det
from .painleve import SERIES_ORDER, SolverError, series_sigma0, solve_sigma0

TWO_PI = 2.0 * np.pi

# analytic tail closure (see the module docstring).  The sixth-order fit
# lets the path stop at 250: the 96 interpolant nodes stay within 9.8e-14
# of a fifth-order fit on a path to 400, and their worst error estimate is
# 5.0e-12 (one BLAS thread)
TAIL_START = 250.0             # Lambda: quadrature on [0, Lambda], model beyond
FIT_WINDOW = (90.0, 250.0)     # path positions whose values fix the amplitudes
FIT_ORDER = 6                  # corrections lam^{-m}, m < 6: 30 amplitudes
FIT_SHIFTS = np.arange(-2, 3)  # Fisher-Hartwig representations v + j
LAGUERRE_NODES = 80            # Gauss-Laguerre nodes per rotated ray
FIT_RESIDUAL_TOL = 1e-8        # relative rms misfit on the window
C0_RTOL = 1e-6                 # fitted C_0 against [G(1+v) G(1-v)]^2
DENSITY_RTOL = 1e-6            # |Im P| / |P| of a returned spacing density
# below this omega the closure's error estimate understates its error, so
# the exact route raises (reachable only with OMEGA_MIN below it).  Deviation
# from the closed form plus -1.59e-3 omega^4 against the reported error,
# with OMEGA_MIN = 1e-4 and one BLAS thread:
#   omega = 0.002: 2.8e-9 against 3.2e-11;  0.005: 1.0e-9 against 6.4e-12;
#   omega = 0.01: 1.1e-11 against 1.1e-11;  0.015: 2.4e-13 against 6.3e-12
TAIL_OMEGA_MIN = 0.015
SMALL_OMEGA_MAX = 0.2          # the closed small-omega form serves (0, this]
# below this S is that form; the interpolant's panel edges double from here
# to pi, so it must be positive
OMEGA_MIN = 0.05
PANEL_NODES = 32               # Gauss-Legendre nodes per sub-panel of the head
SUB_LEN = 10.0                 # max sub-panel length; resolves e^{+-i lam}
ERR_CAP = 1e-6                 # an error estimate beyond this raises

# the modules whose code computes S(omega); spectrum.npz is keyed by their
# code as it was imported and by their constants as they are
_PRODUCERS = ("painleve", "spectral", "fredholm")
_SOURCES = tuple(os.path.join(os.path.dirname(__file__), f"{name}.py")
                 for name in _PRODUCERS)
_SOURCE_DIGEST = store.digest(_SOURCES)


class TruncationError(RuntimeError):
    """The tail closure failed a check or its error estimate is too large;
    no value is returned."""


@dataclass(frozen=True)
class SpectrumConfig:
    backend: str = "painleve"      # or "fredholm"

    def __post_init__(self):
        if self.backend not in ("painleve", "fredholm"):
            raise ValueError(f"unknown backend {self.backend!r}")


DEFAULT_SPECTRUM_CONFIG = SpectrumConfig()

ZETA_DIRECT = 11               # terms of zeta(s) summed directly
# B_2, B_4, ..., B_12: the Euler-Maclaurin corrections of zeta's tail
BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)


def _zeta(s):
    """Riemann zeta(s), elementwise for real s >= 3: the terms k <= 11
    summed directly, the rest by Euler-Maclaurin at n = 12 with the
    corrections B_2j/(2j)! s(s+1)...(s+2j-2) n^(1-s-2j), j <= 6.  The first
    neglected correction is 3.9e-17 relative at s = 3 and falls fast with
    s, below the rounding of the sum; smallest terms are added first."""
    s = np.asarray(s, dtype=float)
    n = ZETA_DIRECT + 1
    rising = s                               # s(s+1)...(s+2j-2)
    corrections = []
    for j, b in enumerate(BERNOULLI, 1):
        corrections.append(b / factorial(2 * j) * rising * n ** (1 - s - 2 * j))
        rising = rising * (s + 2 * j - 1) * (s + 2 * j)
    total = n ** (1 - s) / (s - 1) + 0.5 * n ** -s + sum(reversed(corrections))
    for k in range(ZETA_DIRECT, 0, -1):
        total = total + float(k) ** -s
    return total


def _barnes_g_product(v):
    """G(1+v) G(1-v) for |v| <= 1/2, G the Barnes G-function, from
    log G(1+v)G(1-v) = -(1+gamma) v^2 - sum_{n>=2} zeta(2n-1) v^{2n}/n."""
    v = float(v)
    if abs(v) > 0.5:
        raise ValueError(f"|v| must be <= 1/2, got {v}")
    n = np.arange(40, 1, -1)                 # smallest terms first
    series = np.sum(_zeta(2 * n - 1) * v ** (2 * n) / n)
    return float(np.exp(-(1.0 + np.euler_gamma) * v * v - series))


def _panel_rule(breaks):
    """Composite Gauss-Legendre rule over the consecutive intervals between
    ``breaks`` (empty ones skipped), in sub-panels no longer than SUB_LEN,
    which resolve the unit-rate oscillations."""
    edges = [breaks[0]]
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b > a:
            n = max(1, int(np.ceil((b - a) / SUB_LEN)))
            edges.extend(np.linspace(a, b, n + 1)[1:])
    gx, gw = _nystrom_rule(PANEL_NODES)
    half = 0.5 * np.diff(edges)[:, None]
    return ((half * (gx + 1.0) + np.array(edges[:-1])[:, None]).ravel(),
            (half * gw).ravel())


def _painleve_path(omega: float, x_max: float):
    """(x, w, values, vertical, elevation): the head's quadrature rule x, w
    on [0, x_max] and values = exp L at its path positions x, on the real
    axis up to the series radius t0 and on Im t = elevation beyond it (exp L
    jumps at t0, so no panel straddles it); vertical is the integral over
    the lift t = t0 + i tau in between.  One solve to x_max; its trajectory
    gives t0, the elevation and every value."""
    traj = solve_sigma0(1.0 - np.exp(1j * omega), x_max)
    t0, elevation = traj.series_radius, traj.elevation
    x, w = _panel_rule([0.0, t0, TAIL_START, x_max])
    gx, gw = _nystrom_rule(PANEL_NODES)
    # contour piece t = t0 + i tau, dt = i dtau
    tau = 0.5 * elevation * (gx + 1.0)
    vertical = 0.5 * elevation * np.sum(
        gw * (1j * np.exp(traj.vertical_log_integral(tau))))
    return x, w, np.exp(traj.eval_log_integral(x)), vertical, elevation


def _fredholm_path(omega: float, x_max: float):
    """As _painleve_path, on the real axis: det(I - zeta K_{lam/2pi}) with a
    fixed Nystrom node count ceil(3.4 s + 24) at s = lam/2pi."""
    zeta = 1.0 - np.exp(1j * omega)
    x, w = _panel_rule([0.0, TAIL_START, x_max])
    values = np.array([
        sine_kernel_det(DeterminantRequest(
            zeta, l / TWO_PI, int(np.ceil(3.4 * l / TWO_PI + 24))))
        for l in x])
    return x, w, values, 0j, 0.0


@lru_cache(maxsize=1)
def _laguerre_rule():
    """Gauss-Laguerre nodes and weights for the rays, read-only: built once
    per process."""
    x, w = laggauss(LAGUERRE_NODES)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _tail(v: float, x, values, elevation: float):
    """(tail, coarse, C_0, misfit): integral of exp L from t = Lambda + i
    elevation to infinity, from the model fitted to ``values`` = exp L at
    path positions x (t = x + i elevation) in the window; coarse is the
    same integral from the fit that drops the highest order.

    The model is sum_j C_j t^{-2(v+j)^2} e^{i(v+j)t} (1 + sum_m c_jm t^{-m});
    the exponents and rates are fixed, so the amplitudes C_j c_jm are a
    linear least-squares fit.  One design matrix, its column (j, m)
    exp(p_jm log(t/lo) + i (v+j) t) with p_jm = -2(v+j)^2 - m, serves both
    fits: the coarse one solves on its columns m < FIT_ORDER - 1.  Each
    term is integrated on the ray t = Lambda + i elevation +- i s along
    which its e^{i(v+j)t} decays; one table of the rays serves both fits.
    """
    lo = FIT_WINDOW[0]
    rates = v + FIT_SHIFTS
    powers = -2.0 * rates[:, None] ** 2 - np.arange(FIT_ORDER)    # (j, m)
    t = (x + 1j * elevation)[:, None, None]
    A = np.exp(np.log(t / lo) * powers + 1j * rates[:, None] * t)  # (n, j, m)
    # rotated rays: t = t_L + i sgn(r) s, e^{irt} = e^{irt_L} e^{-|r| s}
    lx, lw = _laguerre_rule()
    sgn, speed = np.sign(rates), np.abs(rates)
    t_L = TAIL_START + 1j * elevation
    rays = t_L + 1j * (sgn / speed)[:, None] * lx                  # (j, k)
    ray_sums = np.exp(np.log(rays / lo)[:, None, :]
                      * powers[:, :, None]) @ lw                   # (j, m)
    terms = (1j * sgn / speed * np.exp(1j * rates * t_L))[:, None] * ray_sums

    def fit(orders):
        cols = A[:, :, :orders].reshape(len(x), -1)
        amp = np.linalg.lstsq(cols, values, rcond=None)[0]
        return amp, cols, complex(amp @ terms[:, :orders].ravel())

    amp, cols, tail = fit(FIT_ORDER)
    misfit = np.linalg.norm(cols @ amp - values) / np.linalg.norm(values)
    c0 = amp.reshape(powers.shape)[FIT_SHIFTS == 0, 0][0] * lo ** (2.0 * v * v)
    return tail, fit(FIT_ORDER - 1)[2], complex(c0), float(misfit)


def power_spectrum(omega: float,
                   config: SpectrumConfig = DEFAULT_SPECTRUM_CONFIG):
    """S(omega) for omega in (0, pi]; returns (value, error_estimate).

    Below OMEGA_MIN the certified closed small-omega form is returned with
    its remainder bound as the error.  The error estimate is described in
    the module docstring.  At or above OMEGA_MIN but below
    TAIL_OMEGA_MIN the estimate cannot be trusted and TruncationError is
    raised.
    """
    if not (0.0 < omega <= np.pi + 1e-12):
        raise ValueError(f"omega must lie in (0, pi], got {omega}")
    omega = min(omega, np.pi)
    if omega < OMEGA_MIN:
        return power_spectrum_small_omega(omega), 5.0 * omega ** 4
    if omega < TAIL_OMEGA_MIN:
        raise TruncationError(
            f"the tail closure's error estimate cannot be trusted below "
            f"omega = {TAIL_OMEGA_MIN}, got {omega}")
    lo, hi = FIT_WINDOW
    end = max(TAIL_START, hi)
    path = _painleve_path if config.backend == "painleve" else _fredholm_path
    x, w, values, vertical, elevation = path(omega, end)
    inside = x < TAIL_START
    head = vertical + np.sum(w[inside] * values[inside])
    fit = (x >= lo) & (x <= hi)
    v = omega / TWO_PI
    tail, coarse, c0, misfit = _tail(v, x[fit], values[fit], elevation)
    drift = abs(c0 / _barnes_g_product(v) ** 2 - 1.0)
    if misfit > FIT_RESIDUAL_TOL or drift > C0_RTOL:
        raise TruncationError(
            f"tail model misfit {misfit:.2e}, C_0 off by {drift:.2e} "
            f"for omega = {omega}")
    total = head + tail
    # the fit's truncation, plus the relative error of the trajectory's
    # values as the closed-form C_0 measures it, times the sensitivity
    # |integral exp L| of S to such an error
    err = (abs(tail.real - coarse.real) + drift * abs(total)) / np.pi
    if err > ERR_CAP:
        raise TruncationError(
            f"tail error estimate {err:.2e} for omega = {omega}")
    return total.real / np.pi, err


def power_spectrum_small_omega(omega):
    """Closed small-omega form omega/2pi + (omega^3/4pi^3) log(omega/2pi)
    on (0, SMALL_OMEGA_MAX]; elementwise for arrays."""
    w = np.asarray(omega, dtype=float)
    if not np.all((0.0 < w) & (w <= SMALL_OMEGA_MAX)):
        raise ValueError(
            f"small-omega form valid on (0, {SMALL_OMEGA_MAX}], got {omega}")
    val = w / TWO_PI + w ** 3 / (4.0 * np.pi ** 3) * np.log(w / TWO_PI)
    return float(val) if val.ndim == 0 else val


# ---------------------------------------------------------------------------
# spacing distribution

def spacing_distribution(s: float) -> float:
    """Spacing density P(s) = E''(s) of the Sine_2 process.

    E(s) = det(I - K_s) = exp L(t) at zeta = 1 and t = 2 pi s, and
    L' = sigma/t, so P(s) = (2 pi)^2 E [(sigma/t)^2 + sigma'/t - sigma/t^2]
    at the real_axis_state of one solve to max(t, 1).  Below the series
    radius the bracket, whose terms in 1/t, t^0 and t cancel, is summed as
    a series from t^2 on: P keeps its relative accuracy as s -> 0 (2e-16
    at s = 1e-4).  On [0, 6] P integrates to 1 with mean 1 to 6e-15.

    Domain s in [0, about 8.3]: the exact state is real, and |Im P| / |P|,
    an estimate of the relative error, grows about as e^{pi s} (8e-10 at
    s = 6, 4e-7 at 8, 2e-4 at 10, 0.1 to 1 from 12 on).  Above DENSITY_RTOL
    it raises SolverError.
    """
    if not (np.isfinite(s) and s >= 0):
        raise ValueError(f"s must be finite and >= 0, got {s}")
    t = TWO_PI * s
    traj = solve_sigma0(1.0, max(t, 1.0))
    sigma, sp, _, L = traj.real_axis_state(t)
    if t > traj.series_radius:
        bracket = (sigma / t) ** 2 + sp / t - sigma / t ** 2
    else:   # sigma^2 + t sigma' - sigma = sum over n >= 4 of g_n t^n
        c = series_sigma0(1.0, SERIES_ORDER)
        n = np.arange(4, len(c) + 1)
        g = np.convolve(c, c)[n - 2] + (n - 1) * c[n - 1]
        bracket = np.sum(g * t ** (n - 2))
    p = TWO_PI ** 2 * np.exp(L) * bracket
    if not abs(p.imag) <= DENSITY_RTOL * abs(p.real):
        raise SolverError(f"spacing density at s = {s}: Im P = {p.imag:.2e} "
                          f"against Re P = {p.real:.2e}", t_star=t)
    return float(p.real)


# ---------------------------------------------------------------------------
# tabulated spectrum

@dataclass
class PowerSpectrumTable:
    """Grid of (omega, S(omega)) values with per-point error estimates."""

    omegas: np.ndarray
    values: np.ndarray
    err_estimates: np.ndarray
    backend: str

    @classmethod
    def build(cls, omegas, config: SpectrumConfig = DEFAULT_SPECTRUM_CONFIG):
        omegas = np.asarray(omegas, dtype=float)
        if omegas.size == 0:
            raise ValueError("empty omega grid")
        if np.any(np.diff(omegas) <= 0):
            raise ValueError("omega grid must be strictly increasing")
        vals = np.empty(omegas.shape)
        errs = np.empty(omegas.shape)
        for i, w in enumerate(omegas):
            vals[i], errs[i] = power_spectrum(float(w), config)
        return cls(omegas, vals, errs, config.backend)


class SpectrumInterpolant:
    """Piecewise-Chebyshev model of S(omega) on [omega_min, pi].

    Panel edges grow geometrically from omega_min so that the logarithmic
    singularity of S at omega = 0 sits at the same Bernstein-ellipse
    parameter (about 5.8) for every panel; ``nodes`` Chebyshev points per
    panel then give ~1e-12 interpolation error.  Below omega_min the
    closed small-omega form is used directly.
    """

    def __init__(self, edges, coeffs, omega_min, backend):
        self.edges = np.asarray(edges, dtype=float)
        self.coeffs = [np.asarray(c) for c in coeffs]
        self.omega_min = float(omega_min)
        self.backend = backend

    @classmethod
    def build(cls, config: SpectrumConfig = DEFAULT_SPECTRUM_CONFIG,
              nodes: int = 16, cache_path=None):
        omega_min = OMEGA_MIN
        edges = [omega_min]
        while edges[-1] * 2.0 < np.pi:
            edges.append(edges[-1] * 2.0)
        edges.append(np.pi)
        if cache_path is None:
            cache_path = os.environ.get("SPACINGCOV_SPECTRUM_CACHE")
        # the edges follow from OMEGA_MIN, a part of the key; no scipy code
        # computes S, so the scipy version is not one.  A stale file is
        # rebuilt
        key = store.key(config, _SOURCE_DIGEST, _PRODUCERS, nodes=nodes)
        names = [f"c{i}" for i in range(len(edges) - 1)]
        if cache_path:
            try:
                return cls(np.array(edges), store.load(cache_path, key, names),
                           omega_min, config.backend)
            except store.StaleState:
                pass
        coeffs = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            xc = np.cos(np.pi * (np.arange(nodes) + 0.5) / nodes)  # Cheb pts
            om = 0.5 * (hi - lo) * (xc + 1.0) + lo
            vals = np.array([power_spectrum(float(w), config)[0] for w in om])
            coeffs.append(np.polynomial.chebyshev.chebfit(xc, vals, nodes - 1))
        if cache_path:
            store.save(cache_path, key, dict(zip(names, coeffs)))
        return cls(np.array(edges), coeffs, omega_min, config.backend)

    def __call__(self, omega):
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        if not np.all((omega >= 0) & (omega <= np.pi + 1e-12)):
            raise ValueError("omega must be finite and in [0, pi]")
        out = np.zeros(omega.shape)
        small = (omega > 0.0) & (omega < self.omega_min)
        out[small] = power_spectrum_small_omega(omega[small])
        idx = np.searchsorted(self.edges[1:-1], omega, side="right")
        for j, c in enumerate(self.coeffs):
            sel = (omega >= self.omega_min) & (idx == j)
            lo, hi = self.edges[j], self.edges[j + 1]
            x = 2.0 * (omega[sel] - lo) / (hi - lo) - 1.0
            out[sel] = np.polynomial.chebyshev.chebval(x, c)
        return out if out.size > 1 else float(out[0])
