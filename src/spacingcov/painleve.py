"""Sigma-form Painlevé V solver for the sine-process generating function.

The central object is the one-parameter family sigma0(t; zeta) of solutions
of the sigma-Painlevé V equation

    (t s'')^2 + (t s' - s) (t s' - s + 4 s'^2) = 0

that are analytic at t = 0 and start off as

    sigma0(t; zeta) = -(t/2pi) zeta - (t/2pi)^2 zeta^2 + O(t^3).

For zeta on the circle |1 - zeta| = 1 (parametrized by zeta = 1 - e^{i omega})
the accumulated log-integral  integral_0^lambda sigma0(t)/t dt  is the
logarithm of a sine-kernel Fredholmdeterminant; its exponential is the
integrand of the spacing power spectrum.

Integration strategy: a truncated power series on [0, t0], then one
adaptive DOP853 solve, which keeps either its dense output or only the
values at positions asked for in advance.  On the real axis it runs the
branch-free differentiated third-order form.  That form does not damp
constraint perturbations: at omega around 2.5-2.9 the error in the
log-integral grows about quadratically with t (7e-9 by t = 400 at
omega = 2.86), and for omega close to pi the determinant has zeros on the
real t-axis (sigma has poles there).  So from omega = 2.7 on the path is
lifted to Im t = delta, and the solve runs the second-order form
s'' = +-sqrt(-f (f + 4 s'^2))/t, f = t s' - s, with the complex square-root
branch tracked by continuity; it keeps the trajectory exactly on the
constraint manifold, from which the third-order form drifts exponentially
along complex paths.  Real-axis values are recovered by a short vertical
descent.

The lifted path runs below the real axis, at delta = -2.  With v =
omega/2pi, the determinant's zeros lie where its two leading
Fisher-Hartwig terms, t^{-2v^2} e^{ivt} and t^{-2(1-v)^2} e^{i(v-1)t}
(Deift-Its-Krasovsky, Ann. Math. 2011), cancel: to leading order at
Im t = 2 ln(Gamma(v)/Gamma(1-v)) + (2 - 4v) ln Re t.  For omega in
[2.7, pi) that is between the axis and Im t = 2.2, so a path above the
axis runs among the poles of sigma: at Im t = +1 it needed a 0.02 step
cap to hold the spectrum to 1e-12, and at omega = 2.95 it meets a
branch near-tie at t = 508.93 + i.  Below the axis the term e^{ivt}
dominates and no zero lies near the path; the solve needs no step cap
and takes about a fifth of the steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import DOP853, OdeSolution

TWO_PI = 2.0 * np.pi
# smallest sigma'' branch margin accepted (see _select_spp).  Over the six
# lifted nodes of the 96-node spectrum build the smallest margin seen was
# 0.954 on the node-reading and on the dense solve (omega = 2.73,
# t = 383.4 - 2i) and 0.971 on descents from lambda in [0.7, 399]; the
# bound sits 9.5 times below that
BRANCH_MARGIN = 0.1


class SolverError(RuntimeError):
    """Adaptive integration failed; carries the failure location."""

    def __init__(self, message, t_star=None):
        super().__init__(message)
        self.t_star = t_star


class BranchAmbiguityError(SolverError):
    """The two sigma'' roots lie nearly as close to the tracked value: the
    branch is not decided by continuity.  t_star is the point t."""


@dataclass(frozen=True)
class SpectralParameter:
    """Point zeta = 1 - e^{i omega} on the circle |1 - zeta| = 1."""

    omega: float

    def __post_init__(self):
        if not np.isfinite(self.omega):
            raise ValueError("omega must be finite")
        if not (0.0 <= self.omega <= np.pi):
            raise ValueError(f"omega must lie in [0, pi], got {self.omega}")

    @property
    def zeta(self) -> complex:
        return 1.0 - np.exp(1j * self.omega)

    @property
    def z(self) -> complex:
        return np.exp(1j * self.omega)


@dataclass(frozen=True)
class SolverConfig:
    series_order: int = 14
    series_rtol: float = 1e-14     # last retained series term vs partial sum
    rtol: float = 1e-12
    atol: float = 1e-13
    # lift the path for omega beyond this: from about 2.7 on, the real-axis
    # path's error in L grows to ~1e-8 by t = 400
    elevation_omega: float = 2.7
    # Im t of the lifted path.  For omega in [2.7, pi) the determinant's
    # zeros near the path (poles of sigma) lie between the axis and
    # Im t = 2.2, where its two leading Fisher-Hartwig terms cancel (module
    # docstring).  Below the axis the path needs no step cap; at +1 it ran
    # among the zeros and needed a 0.02 cap
    elevation: float = -2.0


DEFAULT_CONFIG = SolverConfig()


def _as_zeta(zeta) -> complex:
    if isinstance(zeta, SpectralParameter):
        return zeta.zeta
    z = complex(zeta)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ValueError("zeta must be finite")
    return z


def series_sigma0(zeta, order: int) -> np.ndarray:
    """Coefficients c_1..c_order of sigma0(t; zeta) = sum c_n t^n.

    c_1 and c_2 are fixed by the boundary behaviour; every higher
    coefficient is determined by substituting the truncated series into the
    sigma equation and matching powers of t, where it enters linearly.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    z = _as_zeta(zeta)
    c = np.zeros(order + 1, dtype=complex)
    if z == 0:
        return c[1:]
    c[1] = -z / TWO_PI
    c[2] = -(z / TWO_PI) ** 2

    def residual_coeff(coeffs, n):
        # coefficient of t^n of (t s'')^2 + f^2 + 4 f s'^2, f = t s' - s
        sp = np.arange(1, len(coeffs)) * coeffs[1:]
        spp = np.arange(1, len(sp)) * sp[1:]
        t_spp = np.concatenate(([0.0], spp))
        f = np.concatenate(([0.0], sp)) - coeffs[: len(sp) + 1]
        g = npoly.polymul(t_spp, t_spp)
        g = npoly.polyadd(g, npoly.polymul(f, f))
        g = npoly.polyadd(g, 4.0 * npoly.polymul(f, npoly.polymul(sp, sp)))
        return g[n] if n < len(g) else 0.0

    for n in range(3, order + 1):
        r0 = residual_coeff(c, n)
        c[n] = 1.0
        r1 = residual_coeff(c, n)
        c[n] = -r0 / (r1 - r0)
    return c[1:]


class _Series:
    """Truncated sigma0 series with evaluation helpers."""

    def __init__(self, zeta: complex, config: SolverConfig):
        self.zeta = zeta
        self.order = config.series_order
        self.coeffs = series_sigma0(zeta, self.order)  # c_1..c_order

    def radius(self, config: SolverConfig) -> float:
        """Largest t0 at which the last term is negligible vs the sum."""
        t0 = 0.5
        c = self.coeffs
        n = np.arange(1, self.order + 1)
        while t0 > 1e-3:
            total = np.sum(c * t0 ** n)
            if abs(c[-1] * t0 ** self.order) < config.series_rtol * max(abs(total), 1e-30):
                break
            t0 *= 0.8
        return t0

    def sigma(self, t):
        n = np.arange(1, self.order + 1)
        t = np.asarray(t, dtype=complex)
        return np.sum(self.coeffs * t[..., None] ** n, axis=-1)

    def sigma_prime(self, t):
        n = np.arange(1, self.order + 1)
        t = np.asarray(t, dtype=complex)
        return np.sum(n * self.coeffs * t[..., None] ** (n - 1), axis=-1)

    def sigma_pp(self, t):
        n = np.arange(1, self.order + 1)
        t = np.asarray(t, dtype=complex)
        return np.sum(n * (n - 1) * self.coeffs * t[..., None] ** (n - 2), axis=-1)

    def log_integral(self, t):
        n = np.arange(1, self.order + 1)
        t = np.asarray(t, dtype=complex)
        return np.sum(self.coeffs / n * t[..., None] ** n, axis=-1)


def _select_spp(t, s, sp, prev):
    """The root sigma'' of (t s'')^2 = -f (f + 4 s'^2), f = t s' - s,
    on the branch closer to the previously selected value ``prev``.

    The choice is decided by the margin |Re(r conj(prev))| / (|r| |prev|),
    the |cosine| of the angle between r and prev: 1 when prev points along
    a root, 0 at a tie.  With the distances a = |r - prev| and
    b = |r + prev|, Re(r conj(prev)) = (b^2 - a^2)/4.  Below BRANCH_MARGIN
    it raises BranchAmbiguityError rather than guess.
    """
    f = t * sp - s
    r = np.sqrt(-f * (f + 4.0 * sp * sp) + 0j) / t
    a, b = abs(r - prev), abs(-r - prev)
    if r and abs(b * b - a * a) <= 4.0 * BRANCH_MARGIN * abs(r) * abs(prev):
        raise BranchAmbiguityError(
            f"sigma'' branch undecided at t = {t}: the roots +-{r} lie "
            f"{a:.3g} and {b:.3g} from the tracked value", t_star=complex(t))
    return r if a <= b else -r


def _make_rhs(t_of_x, branch_state):
    """RHS of the first-order system (sigma, sigma', log_integral).

    sigma'' is the square root of -f (f + 4 sigma'^2)/t^2 whose branch is
    the one closer to the previously selected value, kept in
    ``branch_state["spp"]`` by the one integration that owns the dict.
    Used on the complex (lifted) path pieces, where it keeps the trajectory
    exactly on the constraint manifold; the differentiated third-order
    form drifts there.
    """

    def rhs(x, y):
        t = t_of_x(x)
        s, sp, _ = y
        spp = _select_spp(t, s, sp, branch_state["spp"])
        branch_state["spp"] = spp
        return np.array([sp, spp, s / t], dtype=complex)

    return rhs


def _rhs_third_order(x, y):
    """RHS of (sigma, sigma', sigma'', log_integral) on the real axis.

    The differentiated form sigma''' = -(t s'' + t f + 2 t s'^2 + 4 f s')/t^2
    is branch-free, but nothing holds it on the constraint manifold: at
    omega around 2.5-2.9 the error in the log-integral grows about
    quadratically with t, to 7e-9 by t = 400 at omega = 2.86 (rtol 1e-12
    against 1e-14).  That is why paths are lifted from
    SolverConfig.elevation_omega = 2.7 on.  On complex paths the
    perturbations grow exponentially, so the branch-tracked second-order
    form is used there instead.
    """
    t = x
    s, sp, spp, _ = y
    f = t * sp - s
    sppp = -(t * spp + t * f + 2.0 * t * sp * sp + 4.0 * f * sp) / (t * t)
    return np.array([sp, spp, sppp, s / t], dtype=complex)


def _integrate(fun, span, y0, rtol, atol, what, t_star=None, at=None):
    """One DOP853 solve over ``span``, stepped as solve_ivp steps it.

    Returns (ends, y, out): the end of every accepted step, the final
    state, and either the dense OdeSolution (``at`` None) or the states at
    the positions ``at``, each read from the interpolant of the step from
    t_old to t that holds it (t_old excluded, t included), as OdeSolution
    reads it; the span may run either way.  A step's interpolant
    (Hairer-Norsett-Wanner, Solving ODEs I, II.6: three more
    right-hand-side stages) is built only when a position falls inside it.
    A failed step raises SolverError at ``t_star``, by default where the
    solve stalled.
    """
    solver = DOP853(fun, span[0], y0, span[1], rtol=rtol, atol=atol)
    if at is not None:
        # positions in the direction of travel: d * x increases
        d = 1.0 if span[1] >= span[0] else -1.0
        order = np.argsort(d * at, kind="stable")
        pending = d * at[order]
    ends, pieces, done = [], [], 0
    while solver.status == "running":
        solver.step()
        if solver.status == "failed":
            raise SolverError(
                f"{what} stalled at {solver.t:.6g}",
                t_star=float(solver.t) if t_star is None else t_star)
        ends.append(solver.t)
        if at is None:
            pieces.append(solver.dense_output())
            continue
        upto = np.searchsorted(pending, d * solver.t, side="right")
        if upto > done:
            pieces.append(solver.dense_output()(d * pending[done:upto]))
            done = upto
    if at is None:
        out = OdeSolution([span[0]] + ends, pieces)
    else:
        out = np.empty((len(y0), len(at)), dtype=complex)
        out[:, order] = np.hstack([out[:, :0]] + pieces)
    return np.array(ends), solver.y, out


def _checked(x, end: float, what: str) -> np.ndarray:
    """x as a float array, if every entry lies between 0 and ``end``
    (either sign); nothing is extrapolated."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = min(0.0, end), max(0.0, end)
    if not np.all((x >= lo) & (x <= hi)):
        raise ValueError(f"{what} must lie in [{lo}, {hi}]")
    return x


@dataclass(frozen=True)
class SigmaTrajectory:
    """sigma0 along a path in the t-plane, with its accumulated log-integral:
    the frozen result of one integration.

    The truncated power series is authoritative up to ``series_radius``.
    Beyond it one dense solution runs in path position x up to ``t_max``,
    on the path Im t = ``elevation``; on a lifted path a second dense
    solution covers the vertical lift t = series_radius + i tau.  Every
    value is read from these pieces, and a position outside them raises
    ValueError.  ``t_grid`` lists the accepted integration steps.
    """

    zeta: complex
    series_radius: float
    elevation: float                      # 0.0 for a real-axis path
    _series: _Series
    # scipy OdeSolution on [series_radius, t_max]; its state is
    # [s, s', s'', L] on the real axis and [s, s', L] on a lifted path
    _dense: object = None
    _vertical: object = None              # OdeSolution of the lift in tau
    _config: SolverConfig = DEFAULT_CONFIG

    @property
    def t_max(self) -> float:
        return self.series_radius if self._dense is None else self._dense.t_max

    @property
    def t_grid(self) -> np.ndarray:
        """0 followed by the end of every accepted integration step."""
        steps = [] if self._dense is None else self._dense.ts[1:]
        return np.concatenate([[0.0], steps])

    def _eval(self, x, row: int) -> np.ndarray:
        """State entry ``row`` (0: sigma, 1: sigma', -1: log-integral) at
        path positions x: the series up to the series radius, the dense
        solution beyond it."""
        x = _checked(x, self.t_max, "path positions")
        ser = self._series
        series = (ser.sigma, ser.sigma_prime, ser.log_integral)[row]
        out = np.empty(x.shape, dtype=complex)
        small = x <= self.series_radius
        out[small] = series(x[small])
        if not small.all():
            out[~small] = self._dense(x[~small])[row]
        return out

    def eval_log_integral(self, x) -> np.ndarray:
        """Log-integral at path positions x (vectorized)."""
        return self._eval(x, -1)

    def eval_sigma(self, x) -> np.ndarray:
        """sigma0 at path positions x (vectorized)."""
        return self._eval(x, 0)

    def vertical_log_integral(self, tau) -> np.ndarray:
        """Log-integral along the initial lift t = t0 + i tau (lifted paths)."""
        if self._vertical is None:
            raise ValueError("trajectory has no vertical segment")
        return self._vertical(_checked(tau, self.elevation, "lift heights"))[-1]

    def log_integral_real_axis(self, lam: float) -> complex:
        """Log-integral at the real point t = lam, descending if lifted.

        The descent starts on the sigma'' root nearer a central difference
        of the path's own sigma' at lam; only the nearer-root choice
        matters, so a coarse stencil is enough.
        """
        lam = float(_checked(lam, self.t_max, "lambda")[0])
        if lam <= self.series_radius or not self.elevation:
            return complex(self._eval(lam, -1)[0])
        y = self._dense(lam)
        lo, hi = max(lam - 1e-3, self.series_radius), min(lam + 1e-3, self.t_max)
        sp_lo, sp_hi = self._dense([lo, hi])[1]
        branch = {"spp": _select_spp(complex(lam, self.elevation), y[0], y[1],
                                     (sp_hi - sp_lo) / (hi - lo))}
        rhs = _make_rhs(lambda tau: complex(lam, tau), branch)
        # no positions: no interpolant, only the end state
        _, y, _ = _integrate(
            lambda tau, yy: 1j * rhs(tau, yy), (self.elevation, 0.0), y,
            self._config.rtol, self._config.atol,
            f"the descent to the real axis at t = {lam}", t_star=lam,
            at=np.empty(0))
        return complex(y[-1])

    # -- residual diagnostics ---------------------------------------------

    def residual(self, x) -> np.ndarray:
        """|(t s'')^2 + f (f + 4 s'^2)| / max(1, |s|^2) along the path.

        sigma'' is re-derived by differentiating sigma' with central
        differences, independently of the branch selection.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        # (t sigma'')^2 is large on lifted paths, so the stencil must
        # deliver sigma'' to ~1e-11: a wide 7-point rule keeps the state
        # noise averaged down while its h^6 truncation stays negligible
        h = 4e-3
        out = np.empty(x.shape)
        for i, xi in enumerate(x):
            t = xi + 1j * self.elevation if xi > self.series_radius else xi
            s, sp = self._eval(xi, 0)[0], self._eval(xi, 1)[0]
            if xi > 3 * h + 1e-3:
                vals = self._eval(xi + h * np.array([-3, -2, -1, 1, 2, 3]), 1)
                spp_fd = np.dot([-1, 9, -45, 45, -9, 1], vals) / (60.0 * h)
            else:
                lo = max(xi - h, 1e-3)
                sp_lo, sp_hi = self._eval([lo, xi + h], 1)
                spp_fd = (sp_hi - sp_lo) / (xi + h - lo)
            f = t * sp - s
            g = (t * spp_fd) ** 2 + f * (f + 4.0 * sp * sp)
            out[i] = abs(g) / max(1.0, abs(s) ** 2)
        return out


@dataclass(frozen=True)
class PathValues:
    """The log-integral of one integration at the points asked for in
    advance, and nothing else of it."""

    t_grid: np.ndarray                    # as SigmaTrajectory.t_grid
    log_integral: np.ndarray              # at the path positions
    vertical_log_integral: np.ndarray     # at the lift heights


def _default_elevation(z: complex, config: SolverConfig) -> float:
    omega = _omega_of(z)
    lifted = omega is not None and omega > config.elevation_omega
    return config.elevation if lifted else 0.0


def path_geometry(zeta, config: SolverConfig = DEFAULT_CONFIG):
    """(series_radius, elevation) of the path solve_sigma0 takes by
    default for zeta != 0; a lifted path (elevation != 0) leaves the real
    axis at the series radius."""
    z = _as_zeta(zeta)
    return _Series(z, config).radius(config), _default_elevation(z, config)


def solve_sigma0(zeta, t_max: float, config: SolverConfig = DEFAULT_CONFIG,
                 elevation: float | None = None, positions=None, heights=()):
    """Integrate sigma0(t; zeta) with its log-integral up to t_max.

    ``elevation`` overrides the automatic path choice: for zeta on the
    circle with omega > config.elevation_omega the path is lifted to
    Im t = config.elevation to stay clear of real-axis poles.  The
    trajectory is frozen; a longer path is a new solve.

    With ``positions`` (path positions in [0, t_max]) the solve keeps no
    dense solution: it returns PathValues, the log-integral at those
    positions and, on a lifted path, at the lift ``heights`` between 0 and
    the elevation, read off the same steps the dense solution is made of.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    z = _as_zeta(zeta)
    if elevation is None:
        elevation = _default_elevation(z, config)
    ser = _Series(z, config)
    # sigma0 vanishes identically at zeta = 0: the series serves any t_max
    t0 = ser.radius(config) if z else t_max
    at = at_lift = None
    if positions is not None:
        positions = _checked(positions, t_max, "path positions")
        small = positions <= t0
        at = positions[~small]
        if len(heights) and not (elevation and t_max > t0):
            raise ValueError("trajectory has no vertical segment")
        at_lift = _checked(heights, elevation, "lift heights")
    ends, path, lift = [], None, None
    if t_max > t0:
        head = [ser.sigma(t0), ser.sigma_prime(t0)]
        if not elevation:
            head.append(ser.sigma_pp(t0))
        y0 = np.array(head + [ser.log_integral(t0)], dtype=complex)
        if elevation:
            # one branch tracker for the whole integration: seeded by the
            # series sigma'' at t0, carried up the lift t = t0 + i tau and
            # on along the path
            branch = {"spp": complex(ser.sigma_pp(t0))}
            up = _make_rhs(lambda tau: complex(t0, tau), branch)
            _, y0, lift = _integrate(
                lambda tau, yy: 1j * up(tau, yy), (0.0, elevation), y0,
                config.rtol, config.atol, "the vertical lift",
                t_star=t0, at=at_lift)
            rhs = _make_rhs(lambda x: complex(x, elevation), branch)
            # tighter tolerances on the lifted path: at the config ones the
            # error estimate of a lifted spectrum node grows to 3.5e-10
            # (elevation -2) or 2.7e-9 (elevation -1)
            rtol, atol = 1e-13, 1e-14
        else:
            rhs = _rhs_third_order
            rtol, atol = config.rtol, config.atol
        ends, _, path = _integrate(
            rhs, (t0, t_max), y0, rtol, atol,
            f"the omega-path for zeta = {z}", at=at)
    if positions is None:
        return SigmaTrajectory(zeta=z, series_radius=t0, elevation=elevation,
                               _series=ser, _dense=path, _vertical=lift,
                               _config=config)
    logint = np.empty(positions.shape, dtype=complex)
    logint[small] = ser.log_integral(positions[small])
    if path is not None:
        logint[~small] = path[-1]
    return PathValues(
        t_grid=np.concatenate([[0.0], ends]), log_integral=logint,
        vertical_log_integral=np.empty(0, complex) if lift is None
        else lift[-1])


def _omega_of(z: complex) -> float | None:
    """omega with zeta = 1 - e^{i omega}, if z lies on the circle."""
    if abs(abs(1.0 - z) - 1.0) > 1e-9:
        return None
    w = np.angle(1.0 - z)
    return abs(w) if abs(w) > 0 else 0.0


def log_generating_function(zeta, lam: float,
                            config: SolverConfig = DEFAULT_CONFIG) -> complex:
    """integral_0^lambda sigma0(t; zeta)/t dt at real lambda >= 0.

    Each call integrates afresh up to max(lambda, 1), so the value is a
    function of (zeta, lambda, config) alone, whatever was asked before.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if lam == 0:
        return 0j
    z = _as_zeta(zeta)
    if z == 0:
        return 0j
    return solve_sigma0(z, max(lam, 1.0), config).log_integral_real_axis(lam)


def dump_trajectory_csv(traj: SigmaTrajectory, path):
    """Debug dump: t, Re sigma, Im sigma, Re log-integral, Im log-integral
    at the accepted integration steps."""
    t = traj.t_grid
    sigma, logint = traj.eval_sigma(t), traj.eval_log_integral(t)
    rows = np.column_stack([t, sigma.real, sigma.imag, logint.real, logint.imag])
    np.savetxt(path, rows, delimiter=",",
               header="t,re_sigma,im_sigma,re_logint,im_logint", comments="")
