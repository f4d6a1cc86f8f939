"""Sigma-form Painlevé V solver for the sine-process generating function.

The central object is the one-parameter family sigma0(t; zeta) of solutions
of the sigma-Painlevé V equation

    (t s'')^2 + (t s' - s) (t s' - s + 4 s'^2) = 0

that are analytic at t = 0 and start off as

    sigma0(t; zeta) = -(t/2pi) zeta - (t/2pi)^2 zeta^2 + O(t^3).

For zeta on the circle |1 - zeta| = 1 (parametrized by zeta = 1 - e^{i omega})
the accumulated log-integral  integral_0^lambda sigma0(t)/t dt  is the
logarithm of a sine-kernel Fredholm determinant; its exponential is the
integrand of the spacing power spectrum.

Integration strategy: a truncated power series on [0, t0], then Taylor
steps of fixed order TAYLOR_ORDER = 38 (Jorba-Zou, Exp. Math. 14, 2005).
The sigma equation is polynomial in (t, s, s', s''), so at each step centre
the Taylor coefficients of sigma follow from its differentiated third-order
form by a short recurrence, and those of the log-integral L from L' = s/t.
The step is the longest at which the last two terms of sigma and of L stay
below TRUNCATION = 1e-19: more than three orders below the float64
rounding of the state, |sigma| being about 2 at omega = 0.05 and 120 at
omega = pi at t = 250.  The trajectory is the list of these polynomial
pieces; values are read from them by Horner evaluation, so where values
are asked for does not move a step.  t is complex, so one stepper with a
complex direction serves the lift, the path and the descent.

One contour serves every zeta != 0.  From the series radius t0 it rises
vertically to Im t = delta (the lift t = t0 + i tau), runs along
Im t = delta, and reaches a real point lambda by a short vertical descent
from lambda + i delta.  On all three legs the pieces run the second-order
form (t s'')^2 = -f (f + 4 s'^2), f = t s' - s: at each centre sigma'' is
the root nearer the sigma'' that the previous piece carries there.  That
keeps the state on the constraint manifold, from which the third-order
form, with sigma'' carried from piece to piece, drifts exponentially
along complex paths.

The contour runs below the real axis, at delta = ELEVATION = -4.  With v =
omega/2pi, the determinant's zeros (poles of sigma) lie where its two
leading Fisher-Hartwig terms, t^{-2v^2} e^{ivt} and t^{-2(1-v)^2}
e^{i(v-1)t} (Deift-Its-Krasovsky, Ann. Math. 2011), cancel: to leading
order at Im t = 2 ln(Gamma(v)/Gamma(1-v)) + (2 - 4v) ln Re t.  For v in
(0, 1/2] that is on or above the axis: on it at omega = pi, between the
axis and Im t = 2.2 for omega in [2.7, pi) up to t = 400, and higher for
smaller omega.  So a path on or above the axis can run among the poles of
sigma, where the steps shrink to the distance from the nearest pole.
Below the axis the term e^{ivt} dominates and no zero lies near the path.
A step still reaches only about a fixed fraction of the way to the
nearest pole, so near omega = pi, where the poles sit on the axis, the
depth sets the step length: at omega = 3 the path to t = 250 takes 292
steps at delta = -2 and 181 at -4.  The depth comes from a sweep against
the pinned values of S and delta I_k.  At -3 and -3.5, S(0.05) moved by
2e-13 and 5e-13, beyond its 1e-13 near-pins.  At -4.5 the worst error
estimate of the 96 interpolant nodes rose to 1.9e-10 (omega = 0.05), and
at -5 to 1.6e-10.  Only -4 kept every bound.

Off the circle the same contour serves: at zeta = 0.5 and 1 its descents
match the Fredholm determinant to 5.6e-16 for lambda <= 39.  On the circle
the worst |exp L - det| seen at lambda <= 399 is 9.7e-13
(omega = 1.5, lambda = 399), and the worst error estimate of S over the
96 interpolant nodes is 5.0e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import numpy as np

TWO_PI = 2.0 * np.pi
# order of the Taylor steps.  It and TRUNCATION come from a
# measured sweep (orders 30, 34, 38 against truncations 1e-21, 1e-20,
# 1e-19): of the pairs that moved no pinned value of S or delta I_k beyond
# its bound, order 38 at 1e-19 took the least thread time.  In Python the
# fixed cost of a step (branch choice, step size, state) outweighs the K^2
# of the recurrence, so a higher order than Jorba-Zou's K^2-cost optimum,
# -ln(eps)/2 + 1 = 23, wins
TAYLOR_ORDER = 38
# smallest sigma'' branch margin accepted (see _select_spp).  A Taylor
# piece carries sigma'' onto a root to within its truncation: over the
# node-reading solves of the 96-node spectrum build (paths to t = 250 - 4i)
# the smallest margin seen was 1 - 6e-16 (omega = 0.200, t = 104.0 - 4i),
# and no smaller on descents from lambda in {0.7, 5, 50, 200, 249} at
# those omegas.  The bound sits ten times below that; it catches a carried
# sigma'' turned off both roots
BRANCH_MARGIN = 0.1
# the sigma0 series: its last retained coefficient, and the bound on its
# last term relative to the partial sum at the series radius
SERIES_ORDER = 14
SERIES_RTOL = 1e-14
# a Taylor step's last two terms of sigma and of L stay below this
TRUNCATION = 1e-19
# Im t of the path beyond the series radius, for every zeta != 0: below
# the axis, clear of the poles of sigma (module docstring)
ELEVATION = -4.0


class SolverError(RuntimeError):
    """Adaptive integration failed; carries the failure location."""

    def __init__(self, message, t_star=None):
        super().__init__(message)
        self.t_star = t_star


class BranchAmbiguityError(SolverError):
    """The two sigma'' roots lie nearly as close to the tracked value: the
    branch is not decided by continuity.  t_star is the point t."""


def _as_zeta(zeta) -> complex:
    z = complex(zeta)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ValueError("zeta must be finite")
    return z


def series_sigma0(zeta, order: int) -> np.ndarray:
    """Coefficients c_1..c_order of sigma0(t; zeta) = sum c_n t^n.

    c_1 and c_2 are fixed by the boundary behaviour; every higher
    coefficient is determined by substituting the truncated series into the
    sigma equation and matching powers of t, where it enters linearly.
    Returns a fresh, writable array.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    return _series_coeffs(_as_zeta(zeta), order).copy()


@lru_cache(maxsize=64)
def _series_coeffs(z: complex, order: int) -> np.ndarray:
    """series_sigma0 at a complex zeta, read-only: built once per (zeta,
    order) and shared by the series radius and the solve.

    With u = t s'', f = t s' - s and p = s', the coefficient of t^n of
    u^2 + f^2 + 4 f p^2 holds c_n only in 2 u_1 u_{n-1} + 4 f_n p_0^2,
    which is 4 (n-1)^2 c_2 c_n since c_1^2 = -c_2.  So c_n is minus the
    rest of that coefficient over 4 (n-1)^2 c_2.  Plain Python, as in
    _taylor.  Raises ValueError if a coefficient overflows.
    """
    c = [0j] * (order + 1)
    if z != 0:
        c[1] = -z / TWO_PI
        c[2] = -(z / TWO_PI) ** 2
        f = [0j, 0j, c[2]]                 # t s' - s: f_i = (i - 1) c_i
        u = [0j, 2.0 * c[2]]               # t s'': u_i = i (i + 1) c_{i+1}
        p = [c[1], 2.0 * c[2]]             # s': p_i = (i + 1) c_{i+1}
        q = [c[1] * c[1]]                  # s'^2
        for n in range(3, order + 1):
            q.append(sum(map(mul, p, reversed(p))))
            r = (sum(map(mul, u[2:], reversed(u[2:])))
                 + sum(map(mul, f[2:n - 1], reversed(f[2:n - 1])))
                 + 4.0 * sum(map(mul, f[2:], reversed(q[1:]))))
            c[n] = -r / (4.0 * (n - 1) ** 2 * c[2])
            f.append((n - 1) * c[n])
            u.append((n - 1) * n * c[n])
            p.append(n * c[n])
    c = np.array(c[1:], dtype=complex)
    if not np.all(np.isfinite(c)):
        raise ValueError(f"the sigma0 series overflows at zeta = {z}")
    c.flags.writeable = False
    return c


class _Series:
    """Truncated sigma0 series, c_1..c_SERIES_ORDER."""

    def __init__(self, zeta: complex):
        self.zeta = zeta
        self.coeffs = c = _series_coeffs(zeta, SERIES_ORDER)
        n = np.arange(1, SERIES_ORDER + 1)
        # (coefficient, power) of each term, indexed by row as in __call__;
        # n - 2 clipped at 0: the n = 1 term of sigma'' is 0 at any t
        self._terms = ((c, n), (n * c, n - 1),
                       (n * (n - 1) * c, np.maximum(n - 2, 0)), (c / n, n))

    def radius(self) -> float:
        """Largest t0 in 0.5 * 0.8^k above 1e-3 at which the last term is
        negligible vs the sum; ValueError if there is none."""
        t0 = 0.5
        c = self.coeffs
        n = np.arange(1, SERIES_ORDER + 1)
        while t0 > 1e-3:
            total = np.sum(c * t0 ** n)
            if abs(c[-1] * t0 ** SERIES_ORDER) < SERIES_RTOL * max(abs(total), 1e-30):
                return t0
            t0 *= 0.8
        raise ValueError(f"the sigma0 series does not converge at t = 1e-3 "
                         f"for zeta = {self.zeta}")

    def __call__(self, t, row: int) -> np.ndarray:
        """sigma (row 0) or its derivative number ``row`` (1, 2), or L (row
        -1), at t: the sum of (coefficient) * t**power over the terms."""
        coeff, power = self._terms[row]
        t = np.asarray(t, dtype=complex)
        return np.sum(coeff * t[..., None] ** power, axis=-1)


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
    return complex(r if a <= b else -r)


def _taylor(tc, s, sp, spp, L):
    """Taylor coefficients at t = tc of sigma (a_0..a_K) and of the
    log-integral (l_0..l_{K+1}), K = TAYLOR_ORDER, from the state
    (sigma, sigma', sigma'', L) there.

    With t = tc + tau, the coefficient of tau^k of the third-order form
    t^2 s''' + t s'' + t^2 s' - t s + s' (6 t s' - 4 s) = 0 is linear in the
    k-th coefficient d_k of s''' and fixes it from lower ones; L' = s/t
    gives l from t q = s.  Plain Python: at this order numpy's per-call
    cost exceeds the arithmetic.
    """
    a = [s, sp, 0.5 * spp]                 # sigma
    b = [sp, spp]                          # sigma'
    c = [spp]                              # sigma''
    g = []                                 # 6 t sigma' - 4 sigma
    tc2 = tc * tc
    a1 = b1 = b2 = c1 = d1 = d2 = 0j       # coefficients k-1 and k-2
    for k in range(TAYLOR_ORDER - 2):
        ak, bk, ck = a[k], b[k], c[k]
        g.append(6.0 * (tc * bk + b1) - 4.0 * ak)
        dk = -(tc * (ck - ak) + tc2 * bk + 2.0 * tc * (b1 + d1)
               + c1 - a1 + b2 + d2 + sum(map(mul, b, reversed(g)))) / tc2
        c.append(dk / (k + 1))
        b.append(c[-1] / (k + 2))
        a.append(b[-1] / (k + 3))
        a1, b2, b1, c1, d2, d1 = ak, b1, bk, ck, d1, dk
    l, q = [L], 0j
    for k, ak in enumerate(a):
        q = (ak - q) / tc
        l.append(q / (k + 1))
    return a, l


def _step(a, l, eps):
    """Largest step at which the last two Taylor terms of sigma and of L
    are each at most eps (Jorba-Zou, Exp. Math. 14, 2005, 3.2); nan if one
    of those terms is nan, as min() would pass over it."""
    h = np.inf
    for coeff, j in ((a[-2], TAYLOR_ORDER - 1), (a[-1], TAYLOR_ORDER),
                     (l[-2], TAYLOR_ORDER), (l[-1], TAYLOR_ORDER + 1)):
        if coeff != coeff:
            return np.nan
        if coeff:
            h = min(h, (eps / abs(coeff)) ** (1.0 / j))
    return h


def _state_at(a, l, tau):
    """(sigma, sigma', sigma'', L) of one piece at offset tau (Horner)."""
    s, sp, spp = a[-1], 0j, 0j
    for ak in reversed(a[:-1]):
        spp = spp * tau + sp
        sp = sp * tau + s
        s = s * tau + ak
    L = l[-1]
    for lk in reversed(l[:-1]):
        L = L * tau + lk
    return s, sp, 2.0 * spp, L


@dataclass(frozen=True)
class _Pieces:
    """The Taylor pieces of one integration in a real path parameter p,
    with t = t(p) and dt = rot dp.  Piece i is centred at knots[i] and
    holds p in (knots[i], knots[i + 1]]; the first also holds its centre."""

    rot: complex
    knots: np.ndarray                     # the centres, then the end
    sigma: np.ndarray                     # (pieces, K + 1): sigma in t - t_c
    logint: np.ndarray                    # (pieces, K + 2): L in t - t_c

    def __call__(self, p, row: int) -> np.ndarray:
        """sigma (row 0) or its derivative number ``row``, or L (row -1),
        at the parameters p, each by Horner in its own piece."""
        d = 1.0 if self.knots[-1] >= self.knots[0] else -1.0
        i = np.searchsorted(d * self.knots[1:-1], d * p, side="left")
        tau = self.rot * (p - self.knots[i])
        c = self.logint[i] if row < 0 else self.sigma[i]
        for _ in range(max(row, 0)):
            c = c[:, 1:] * np.arange(1, c.shape[1])
        out = c[:, -1]
        for j in range(c.shape[1] - 2, -1, -1):
            out = out * tau + c[:, j]
        return out


def _integrate(t_of, rot, span, state, what, t_star=None):
    """Taylor steps from p = span[0] to span[1] (either way) along
    t = t_of(p), dt = rot dp, from state = (sigma, sigma', sigma'', L).

    At each centre sigma'' is the _select_spp root nearer the carried one:
    the branch-tracked second-order form.  Each step is as long as _step
    allows at TRUNCATION, so where values are read later does not move it.
    Returns the _Pieces and the end state; a step that collapses raises
    SolverError at ``t_star``, by default where the solve stalled.
    """
    p, end = span
    d = 1.0 if end >= p else -1.0
    s, sp, spp, L = state
    knots, sigma, logint = [p], [], []
    while p != end:
        tc = t_of(p)
        spp = _select_spp(tc, s, sp, spp)
        a, l = _taylor(tc, s, sp, spp, L)
        h = _step(a, l, TRUNCATION)
        if not h > 1e-9 * max(1.0, abs(p)):
            raise SolverError(
                f"{what} {'stalled' if h == h else 'met a nan state'} at "
                f"{p:.6g}", t_star=p if t_star is None else t_star)
        start, p = p, p + d * h if h < d * (end - p) else end
        s, sp, spp, L = _state_at(a, l, rot * (p - start))
        knots.append(p)
        sigma.append(a)
        logint.append(l)
    return (_Pieces(rot, np.array(knots), np.array(sigma, dtype=complex),
                    np.array(logint, dtype=complex)), (s, sp, spp, L))


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
    the frozen result of one integration.  The spectrum's quadrature and
    the descents to the real axis read it.

    The truncated power series is authoritative up to ``series_radius``.
    Beyond it the Taylor pieces of the path run in path position x up to
    ``t_max``, on the path Im t = ``elevation``; the pieces of the vertical
    lift t = series_radius + i tau lead there.  Every value is read from
    the series or these pieces, both indexed by row (sigma 0, sigma' 1,
    sigma'' 2, L -1), and a position outside them raises ValueError.
    ``t_grid`` lists the ends of the path's steps.
    """

    zeta: complex
    series_radius: float
    elevation: float                      # Im t of the path
    _series: _Series
    _path: _Pieces = None                 # in x, on [series_radius, t_max]
    _lift: _Pieces = None                 # in tau, on [0, elevation]

    @property
    def t_max(self) -> float:
        return self.series_radius if self._path is None else self._path.knots[-1]

    @property
    def t_grid(self) -> np.ndarray:
        """0 followed by the end of every step along the path."""
        steps = [] if self._path is None else self._path.knots[1:]
        return np.concatenate([[0.0], steps])

    def _eval(self, x, row: int) -> np.ndarray:
        """sigma (row 0), sigma' (row 1), sigma'' (row 2) or the
        log-integral (row -1) at path positions x: the series up to the
        series radius, the Taylor pieces beyond it."""
        x = _checked(x, self.t_max, "path positions")
        out = np.empty(x.shape, dtype=complex)
        small = x <= self.series_radius
        out[small] = self._series(x[small], row)
        if not small.all():
            out[~small] = self._path(x[~small], row)
        return out

    def eval_log_integral(self, x) -> np.ndarray:
        """Log-integral at path positions x (vectorized)."""
        return self._eval(x, -1)

    def vertical_log_integral(self, tau) -> np.ndarray:
        """Log-integral along the lift t = t0 + i tau."""
        if self._lift is None:
            raise ValueError("trajectory has no vertical segment")
        return self._lift(_checked(tau, self.elevation, "lift heights"), -1)

    def real_axis_state(self, lam: float) -> tuple:
        """(sigma, sigma', sigma'', L) at the real point t = lam: the series
        up to the series radius, beyond it the end of a descent from
        lam + i elevation, which starts from the path's state at lam on the
        sigma'' root nearer the path's own sigma'' there."""
        lam = float(_checked(lam, self.t_max, "lambda")[0])
        state = tuple(complex(self._eval(lam, row)[0]) for row in (0, 1, 2, -1))
        if lam <= self.series_radius:
            return state
        return _integrate(
            lambda tau: complex(lam, tau), 1j, (self.elevation, 0.0), state,
            f"the descent to the real axis at t = {lam}", t_star=lam)[1]

    def log_integral_real_axis(self, lam: float) -> complex:
        """Log-integral at the real point t = lam (real_axis_state's L)."""
        return self.real_axis_state(lam)[3]


def solve_sigma0(zeta, t_max: float):
    """Integrate sigma0(t; zeta) with its log-integral up to path position
    t_max.

    Beyond the series radius t0 the path rises from t0 to
    Im t = ELEVATION and runs along it to t_max + i elevation
    (module docstring).  The trajectory is frozen; a longer path is a new
    solve.
    """
    if not (np.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    z = _as_zeta(zeta)
    elevation = ELEVATION
    ser = _Series(z)
    # sigma0 vanishes identically at zeta = 0: the series serves any t_max
    t0 = ser.radius() if z else t_max
    path = lift = None
    if t_max > t0:
        state = tuple(complex(ser(t0, row)) for row in (0, 1, 2, -1))
        # one branch tracker for the whole integration: seeded by the
        # series sigma'' at t0, carried up the lift t = t0 + i tau and on
        # along the path
        lift, state = _integrate(
            lambda tau: complex(t0, tau), 1j, (0.0, elevation), state,
            "the vertical lift", t_star=t0)
        path, _ = _integrate(
            lambda x: complex(x, elevation), 1.0, (t0, t_max), state,
            f"the path for zeta = {z}")
    return SigmaTrajectory(zeta=z, series_radius=t0, elevation=elevation,
                           _series=ser, _path=path, _lift=lift)


def log_generating_function(zeta, lam: float) -> complex:
    """integral_0^lambda sigma0(t; zeta)/t dt at real lambda >= 0.

    Each call integrates afresh up to max(lambda, 1), so the value is a
    function of (zeta, lambda) alone, whatever was asked before.
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    if lam == 0:
        return 0j
    z = _as_zeta(zeta)
    if z == 0:
        return 0j
    return solve_sigma0(z, max(lam, 1.0)).log_integral_real_axis(lam)
