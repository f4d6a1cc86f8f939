"""Power spectrum of level spacings of the Sine_2 process.

The exact representation is

    S(omega) = (1/pi) Re integral_0^inf exp(L(lam; omega)) dlam,

where L(lam; omega) is the Painlevé log-integral of the painleve module at
zeta = 1 - e^{i omega}; equivalently exp(L) is the sine-kernel Fredholm
determinant at interval length lam/2pi (the selectable "fredholm" backend).

The integrand decays only algebraically, like lam^{-omega^2/2pi^2}, while
oscillating at the base rate nu0 = omega/2pi plus weaker components at
|nu0 +- 1| and |nu0 +- 2| (from e^{+-i lam} correction terms of the
determinant asymptotics).  The improper integral is therefore evaluated by
partial sums over panels of a resonance-aware length T, followed by exact
annihilation of each oscillatory component (the transformation
(S_{n+1} - rho S_n)/(1 - rho) with rho = e^{+-i nu T} removes a tail
component proportional to e^{+-i nu lam} exactly), and iterated averaging
of what remains.  The spread of the last few extrapolants is the reported
error estimate; 48-64 panels give ~1e-12 across omega in (0, pi].

Also here: the small-omega closed form, the spacing density P(s) = E''(s),
the spacings-to-eigenlevels spectrum transform, and a piecewise-Chebyshev
interpolant of S(omega) used by the Fourier-inversion module.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .fredholm import DeterminantRequest, gap_probability, sine_kernel_det
from .painleve import DEFAULT_CONFIG, SolverConfig, solve_sigma0

TWO_PI = 2.0 * np.pi


class TruncationError(RuntimeError):
    """Tail extrapolation did not reach the requested accuracy.

    ``partial`` holds the best available value.
    """

    def __init__(self, message, partial=None, err=None):
        super().__init__(message)
        self.partial = partial
        self.err = err


@dataclass(frozen=True)
class SpectrumConfig:
    backend: str = "painleve"      # or "fredholm"
    n_panels: int = 56             # tail panels feeding the extrapolation
    panel_nodes: int = 32          # Gauss-Legendre nodes per sub-panel
    sub_len: float = 10.0          # max sub-panel length; resolves e^{+-i lam}
    lam_head: float = 30.0         # plain integration up to max(T, lam_head)
    omega_min: float = 0.05        # below this, the closed small-omega form
    err_cap: float = 1e-6          # raise TruncationError beyond this
    solver: SolverConfig = field(default_factory=lambda: DEFAULT_CONFIG)
    # fredholm backend only: fixed Nystrom node policy (deterministic cost)
    det_nodes_cap: int = 720

    def __post_init__(self):
        if self.backend not in ("painleve", "fredholm"):
            raise ValueError(f"unknown backend {self.backend!r}")


DEFAULT_SPECTRUM_CONFIG = SpectrumConfig()


def _resonant_panel_length(omega: float, mmax: int = 2):
    """Panel length T in [0.5, 1.5] pi/nu0 keeping every oscillation rate
    nu_j away from the annihilation blind spots nu_j T = 0 mod 2pi."""
    nu0 = omega / TWO_PI
    rates = [nu0] + [abs(nu0 + s * m) for m in range(1, mmax + 1) for s in (1, -1)]
    rates = np.array([r for r in rates if r > 1e-12])
    base = np.pi / nu0
    Ts = base * np.linspace(0.5, 1.5, 4001)
    ph = np.mod(np.outer(Ts, rates), TWO_PI)
    dist = np.minimum(ph, TWO_PI - ph).min(axis=1)
    i = int(np.argmax(dist))
    return float(Ts[i]), float(dist[i])


def _annihilate_and_average(partial_sums: np.ndarray, T: float, nu0: float):
    """Extrapolate the limit of oscillatory-tailed partial sums.

    Tiered exact annihilation over the known rates (heaviest on the base
    rate), then iterated pairwise averaging; the error estimate is the
    change over the last few averaging diagonals.
    """
    seq = partial_sums.astype(complex)
    sched = ([(nu0, 5)]
             + [(abs(nu0 + s), 3) for s in (1, -1)]
             + [(abs(nu0 + 2 * s), 2) for s in (1, -1)])
    for rate, reps in sched:
        for _ in range(reps):
            for sg in (1, -1):
                if len(seq) < 2:
                    break
                rho = np.exp(1j * sg * rate * T)
                seq = (seq[1:] - rho * seq[:-1]) / (1.0 - rho)
    hist = []
    while len(seq) > 1:
        seq = 0.5 * (seq[:-1] + seq[1:])
        hist.append(seq[-1].real)
    if len(hist) < 3:
        raise ValueError("too few panels for tail extrapolation")
    return hist[-1], abs(hist[-1] - hist[-3])


def _segment_integral(f, a: float, b: float, nodes_x, nodes_w, sub_len: float):
    """integral_a^b f, split into sub-panels short enough to resolve the
    unit-rate oscillations; f maps an array of positions to real values."""
    nsub = max(1, int(np.ceil((b - a) / sub_len)))
    edges = np.linspace(a, b, nsub + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        lam = 0.5 * (hi - lo) * (nodes_x + 1.0) + lo
        total += 0.5 * (hi - lo) * float(np.sum(nodes_w * f(lam)))
    return total


def _painleve_integrand(omega: float, x_max: float, config: SpectrumConfig):
    """(f, extra, split): f(x) = Re of the contour-weighted integrand at
    path position x; extra is the vertical-lift contribution and split the
    handoff point where a lifted contour leaves the real axis (f jumps
    there, so quadrature panels must not straddle it)."""
    zeta = 1.0 - np.exp(1j * omega)
    traj = solve_sigma0(zeta, x_max, config.solver)

    def f(x):
        return np.real(np.exp(traj.eval_log_integral(x)))

    extra = 0.0
    split = 0.0
    if traj.elevation:
        # contour piece t = t0 + i tau: Re(i exp(L)) = -Im exp(L)
        gx, gw = leggauss(config.panel_nodes)
        tau = 0.5 * traj.elevation * (gx + 1.0)
        Lv = traj.vertical_log_integral(tau)
        extra = 0.5 * traj.elevation * float(np.sum(gw * (-np.imag(np.exp(Lv)))))
        split = traj.series_radius
    return f, extra, split


def _fredholm_integrand(omega: float, config: SpectrumConfig):
    zeta = 1.0 - np.exp(1j * omega)

    def f(lam):
        out = np.empty(len(lam))
        for i, l in enumerate(lam):
            s = l / TWO_PI
            n = min(config.det_nodes_cap, int(np.ceil(3.4 * s + 24)))
            out[i] = sine_kernel_det(DeterminantRequest(zeta, s, n)).real
        return out

    return f, 0.0, 0.0


def power_spectrum(omega: float,
                   config: SpectrumConfig = DEFAULT_SPECTRUM_CONFIG):
    """S(omega) for omega in (0, pi]; returns (value, error_estimate).

    Below config.omega_min the certified closed small-omega form is
    returned with its remainder bound as the error.
    """
    if not (0.0 < omega <= np.pi + 1e-12):
        raise ValueError(f"omega must lie in (0, pi], got {omega}")
    omega = min(omega, np.pi)
    if omega < config.omega_min:
        return power_spectrum_small_omega(omega), 5.0 * omega ** 4
    T, _ = _resonant_panel_length(omega)
    nu0 = omega / TWO_PI
    lam0 = max(T, config.lam_head)
    x_max = lam0 + config.n_panels * T
    if config.backend == "painleve":
        f, extra, split = _painleve_integrand(omega, x_max, config)
    else:
        f, extra, split = _fredholm_integrand(omega, config)
    gx, gw = leggauss(config.panel_nodes)
    head = extra
    if split > 0.0:
        head += _segment_integral(f, 0.0, split, gx, gw, config.sub_len)
    head += _segment_integral(f, split, lam0, gx, gw, config.sub_len)
    panels = np.array([
        _segment_integral(f, lam0 + i * T, lam0 + (i + 1) * T, gx, gw,
                          config.sub_len)
        for i in range(config.n_panels)])
    partial = head + np.cumsum(panels)
    est, err = _annihilate_and_average(partial, T, nu0)
    value, err = est / np.pi, err / np.pi
    if err > config.err_cap:
        raise TruncationError(
            f"tail extrapolation stuck at error {err:.2e} for omega = {omega}",
            partial=value, err=err)
    return value, err


def power_spectrum_small_omega(omega, validity_max: float = 0.2):
    """Closed small-omega form omega/2pi + (omega^3/4pi^3) log(omega/2pi);
    elementwise for arrays."""
    w = np.asarray(omega, dtype=float)
    if not np.all((0.0 < w) & (w <= validity_max)):
        raise ValueError(
            f"small-omega form valid on (0, {validity_max}], got {omega}")
    val = w / TWO_PI + w ** 3 / (4.0 * np.pi ** 3) * np.log(w / TWO_PI)
    return float(val) if val.ndim == 0 else val


def eig_spectrum_from_sp(omega: float,
                         config: SpectrumConfig = DEFAULT_SPECTRUM_CONFIG) -> float:
    """Eigenlevel power spectrum S(omega) / (4 sin^2(omega/2)).

    The spacing-spectrum value at omega = 0 drops out by the sum rule
    (zero level compressibility).
    """
    if not (0.0 < omega <= np.pi + 1e-12):
        raise ValueError(f"omega must lie in (0, pi], got {omega}")
    value, _ = power_spectrum(omega, config)
    return value / (4.0 * np.sin(0.5 * omega) ** 2)


# ---------------------------------------------------------------------------
# spacing distribution

@lru_cache(maxsize=4096)
def _gap(s: float) -> float:
    return gap_probability(s)


def spacing_distribution(s: float, h: float = 1e-3) -> float:
    """Spacing density P(s) as the second derivative of the gap probability.

    Richardson-extrapolated central second differences (steps h and h/2);
    near s = 0 a one-sided stencil avoids negative arguments.  A density
    below -1e-7 signals a differentiation failure and raises.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0.0:
        return 0.0

    def second_diff(step):
        if s >= step:
            return (_gap(s - step) - 2.0 * _gap(s) + _gap(s + step)) / step ** 2
        # one-sided 4-point stencil, O(step^2)
        return (2.0 * _gap(s) - 5.0 * _gap(s + step) + 4.0 * _gap(s + 2 * step)
                - _gap(s + 3 * step)) / step ** 2

    val = (4.0 * second_diff(0.5 * h) - second_diff(h)) / 3.0
    if val < -1e-7:
        raise RuntimeError(
            f"negative spacing density {val:.3e} at s = {s}; decrease h")
    return max(val, 0.0)


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

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("omega,S,err,backend\n")
            for w, v, e in zip(self.omegas, self.values, self.err_estimates):
                fh.write(f"{w:.17g},{v:.17g},{e:.17g},{self.backend}\n")


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
        omega_min = config.omega_min
        edges = [omega_min]
        while edges[-1] * 2.0 < np.pi:
            edges.append(edges[-1] * 2.0)
        edges.append(np.pi)
        if cache_path is None:
            cache_path = os.environ.get("SPACINGCOV_SPECTRUM_CACHE")
        # the file is keyed by everything that produced it (the edges follow
        # from config.omega_min); any other file is rebuilt and overwritten
        key = json.dumps(asdict(config), sort_keys=True)
        if cache_path and os.path.exists(cache_path):
            with np.load(cache_path, allow_pickle=False) as data:
                if (str(data.get("config")) == key
                        and int(data["nodes"]) == nodes):
                    coeffs = [data[f"c{i}"] for i in range(len(edges) - 1)]
                    return cls(np.array(edges), coeffs, omega_min,
                               config.backend)
        coeffs = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            xc = np.cos(np.pi * (np.arange(nodes) + 0.5) / nodes)  # Cheb pts
            om = 0.5 * (hi - lo) * (xc + 1.0) + lo
            vals = np.array([power_spectrum(float(w), config)[0] for w in om])
            coeffs.append(np.polynomial.chebyshev.chebfit(xc, vals, nodes - 1))
        if cache_path:
            payload = {"config": key, "nodes": nodes}
            for i, c in enumerate(coeffs):
                payload[f"c{i}"] = c
            np.savez(cache_path, **payload)
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
