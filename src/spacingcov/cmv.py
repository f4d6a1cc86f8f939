"""CUE(N) eigenangles from the Killip-Nenciu CMV model, exact Haar.

``sample`` draws and decodes a block of samples at a time (see
``_decode``).  The Szego recursion in coefficient space gives the
characteristic polynomial P of each sample.  P is self-inversive, so
R(theta) = mu e^{-i N theta / 2} P(e^{i theta}) is a real trigonometric sum
of degree N/2, whose N zeros are the eigenangles.  Two FFTs give R, R',
R'' and R''' on a grid of GRID_PER_ZERO N angles, whose sign changes
bracket each zero in its own cell.  Newton steps on the degree-7 Hermite
interpolant of those values at a cell's ends start its zero about 3e-12
off at N = 256, so one exact value of R there, summed alone, ends all but
about one zero in a thousand by one step that a rounding bound accepts;
a Newton search kept inside the brackets ends the rest.  At N = 256 a
sample takes about 0.6 ms on one core of a shared 2.1 GHz Xeon: 0.06 ms
drawing alpha, 0.18 ms in the recursion, 0.15 ms in the FFTs and
bracketing (and 0.08 ms more on average cutting the cells of the one
sample in eight whose grid holds two zeros in a cell), 0.04 ms in the
degree-7 starts, 0.11 ms in the pass of R alone and its step, and 0.04 ms
in the Newton search.  No eigensolver runs: the module needs no LAPACK
and no scipy, and the decoder uses no BLAS, so the angles do not depend on
the BLAS thread count.
"""

from __future__ import annotations

from math import comb

import numpy as np

TWO_PI = 2.0 * np.pi

GRID_PER_ZERO = 8       # angles per zero of R on the grid that brackets them
_TABLE = 2 ** 12        # complex entries, 64 KB: the largest decode arrays,
                        # below malloc's 128 KB mmap threshold; 256 KB ones
                        # raised a two-thread run's peak resident size 0.7 MB.
                        # A block of max(16, _TABLE // N) samples is decoded
                        # together: about _TABLE polynomial coefficients
_NEWTON_STEPS = 64      # more than the bisections that shrink any grid cell
                        # below the spacing of floats near 2 pi
_EPS = np.finfo(float).eps


def _paraorthogonal(alpha: np.ndarray) -> np.ndarray:
    """Coefficients (N + 1, B), constant term first, of
    P = z Phi_{N-1} - conj(alpha_{N-1}) Phi*_{N-1} for the rows of alpha
    (B, N): the characteristic polynomial det(z - C) of the CMV matrix.

    The Szego recursion in coefficient space, from Phi_0 = 1:
        Phi_{n+1} = z Phi_n - conj(alpha_n) Phi*_n,
    with Phi*_n[k] = conj(Phi_n[n - k]), so the step subtracts
    conj(alpha_n Phi_n[n - k]) from coefficient k of z Phi_n.  Phi_n sits in
    rows N - n .. N of the one buffer, so z Phi_n is the same memory read
    from row N - n - 1, which is still zero.  Each step is three in-place
    ufuncs on contiguous (n + 1, B) rows: u = alpha_n Phi_n reversed,
    conj(u), and z Phi_n -= u.  As conj(x y) = conj(x) conj(y) exactly, P
    has the bits of the recursion that carries Phi*_n in a second buffer.
    """
    B, N = alpha.shape
    phi = np.zeros((N + 1, B), dtype=complex)
    phi[N] = 1.0
    a = np.ascontiguousarray(alpha.T)
    u = np.empty_like(phi)
    for n in range(N):
        u_n, z_phi = u[:n + 1], phi[N - n - 1:N]
        np.multiply(a[n], phi[N:N - n - 1:-1], out=u_n)
        np.conjugate(u_n, out=u_n)
        np.subtract(z_phi, u_n, out=z_phi)
    return phi


def _real_form(alpha: np.ndarray):
    """(f, A, B): frequencies f (F,) and coefficients A, B (rows of alpha, F)
    of the real function
        R(theta) = mu e^{-i N theta / 2} P(e^{i theta})
                 = sum_f A_f cos(f theta) + B_f sin(f theta),
    mu^2 = -alpha_{N-1}, f = k - N/2 >= 0 (half-integers for odd N).

    P is self-inversive, P* = -alpha_{N-1} P, so the coefficient c_k = mu p_k
    of e^{i f theta} is the conjugate of that of e^{-i f theta}.  Each pair is
    summed as computed, so R is the real part of the rounded sum.
    """
    N = alpha.shape[1]
    c = _paraorthogonal(alpha) * np.sqrt(-alpha[:, -1])
    k = np.arange((N + 1) // 2, N + 1)
    A = (c[k].real + c[N - k].real).T
    B = (c[N - k].imag - c[k].imag).T
    if N % 2 == 0:
        A[:, 0] *= 0.5                  # f = 0 is its own pair
    return k - 0.5 * N, A, B


def _trig_sums(f, A, B, theta: np.ndarray, order: int = 3) -> np.ndarray:
    """R and its first three derivatives, (4, rows of A, n), at the angles
    theta (rows of A, n): the sum over f of A_f cos(f h) + B_f sin(f h) at
    h = theta, and its derivatives in h; at order 0, R alone (1, rows, n).

    R^(m)(h) is the real part of i^m e^{i f_0 h} (f_0 + E)^m q(e^{i h}),
    where q(z) = sum_j (A_f - i B_f) z^j, f = f_0 + j, and E = z d/dz.  A
    set with at most _TABLE terms (angles times frequencies), such as the
    Newton passes and the cuts of ``_refine``, is summed term by term by
    ``_power_sums``; a larger one, such as the pass of R alone over every
    zero, by Horner's scheme in ``_horner_sums``, whose steps cost the same
    for one angle as for a few hundred.  Either way R^(m) carries a
    rounding error of order (N/2)^m F eps sum_f (|A_f| + |B_f|), F
    frequencies: against a long-double sum at N = 3 to 256 both stay below
    0.6 of that.  Both use ufuncs alone, no BLAS, so the sums do not depend
    on the BLAS thread count.
    """
    if theta.size * f.size <= _TABLE:
        return _power_sums(f, A, B, theta, order)
    return _horner_sums(f, A, B, theta, order)


def _power_sums(f, A, B, theta: np.ndarray, order: int = 3) -> np.ndarray:
    """``_trig_sums`` with no loop over f: e^{i f h} as running products of
    e^{i h} from e^{i f_0 h} (their phase errors grow as f eps, not as the
    f h eps of exp(i f h)), times A_f - i B_f, contracted with (i f)^m by
    np.einsum, which calls no BLAS at its default optimize=False."""
    e = np.empty((*theta.shape, f.size), dtype=complex)
    e[..., 0] = np.exp(1j * f[0] * theta)
    e[..., 1:] = np.exp(1j * theta)[..., None]
    np.multiply.accumulate(e, axis=-1, out=e)
    e *= (A - 1j * B)[:, None]
    return np.einsum("rnf,fm->mrn", e,
                     (1j * f[:, None]) ** np.arange(order + 1)).real


def _horner_sums(f, A, B, theta: np.ndarray, order: int = 3) -> np.ndarray:
    """``_trig_sums`` by Horner's scheme for q and, at order 3, its Taylor
    coefficients q', q''/2 and q'''/6 at z = e^{i h}, a batch of rows of
    theta at a time.  Each is summed in its own array of the batch's shape,
    so every step multiplies by z in the same shape; a batch holds at most
    _TABLE angles, or one row.  At the end
        E q = z q',    E^2 q = z q' + z^2 q'',
        E^3 q = z q' + 3 z^2 q'' + z^3 q''',
    shifted to (f_0 + E)^m q for odd N.  q's recurrence is the same at
    either order, so R has the same bits with its derivatives as alone.
    """
    rows, n = theta.shape
    step = max(1, _TABLE // max(n, f.size))
    out = np.empty((order + 1, rows, n))
    for r in range(0, rows, step):
        h = theta[r:r + step]
        coef = (A[r:r + step] - 1j * B[r:r + step]).T[::-1, :, None]
        z = np.exp(1j * h)
        s = [np.zeros(h.shape, dtype=complex) for _ in range(order + 1)]
        s0 = s[0]
        for c in coef:                  # highest frequency first
            for m in range(order, 0, -1):
                s[m] *= z
                s[m] += s[m - 1]
            s0 *= z
            s0 += c
        if order:
            s1, s2, s3 = s[1:]
            s1 *= z                     # E q
            s2 *= z
            s2 *= z                     # z^2 q'' / 2
            for _ in range(3):
                s3 *= z                 # z^3 q''' / 6
            s3 += s2
            s3 *= 6.0
            s3 += s1                    # E^3 q
            s2 *= 2.0
            s2 += s1                    # E^2 q
        if f[0]:                        # (f_0 + E)^m q, by the Taylor shift
            for k in range(1, order + 1):
                for m in range(order, k - 1, -1):
                    s[m] += f[0] * s[m - 1]
            z = np.exp(1j * f[0] * h)
            for x in s:
                x *= z
        out[0, r:r + step] = s0.real
        if order:
            np.negative(s1.imag, out=out[1, r:r + step])
            np.negative(s2.real, out=out[2, r:r + step])
            out[3, r:r + step] = s3.imag
    return out


class DecodeError(RuntimeError):
    """A sample's zeros could not all be bracketed in cells wider than the
    grid floor, or Newton's method did not converge inside a bracket; no
    angles are returned."""


def _values(f, A, B, row: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """``_trig_sums`` (4, n) at the angles theta (n,) of the rows row
    (ascending) of A and B.  Rows of one count are passed as they are.  Of
    rows of unequal counts, a set of at most _TABLE terms in all is summed
    term by term, each angle with its own row's coefficients; a larger one
    by Horner's scheme in one call over those rows, each padded with its
    first angle to the longest row's count.  So the regime follows the
    number of angles, never the padded count."""
    first = np.flatnonzero(np.diff(row, prepend=-1))
    counts = np.diff(first, append=row.size)
    rows = row[first]
    if np.all(counts == counts[0]):
        return _trig_sums(f, A[rows], B[rows],
                          theta.reshape(rows.size, -1)).reshape(4, -1)
    if row.size * f.size <= _TABLE:
        return _power_sums(f, A[row], B[row], theta[:, None])[..., 0]
    group = np.repeat(np.arange(first.size), counts)
    at = np.arange(row.size) - first[group]
    padded = np.repeat(theta[first, None], counts.max(), axis=1)
    padded[group, at] = theta
    return _horner_sums(f, A[rows], B[rows], padded)[:, group, at]


def _cubic(r0, r1, m0, m1):
    """(a2, a3): H(s) = r0 + m0 s + a2 s^2 + a3 s^3 is the cubic with values
    r0, r1 and slopes m0, m1 at s = 0 and 1."""
    return 3.0 * (r1 - r0) - 2.0 * m0 - m1, 2.0 * (r0 - r1) + m0 + m1


def _cubic_zero(c0, c1, c2, c3, s, clip=False):
    """(s, last): three Newton steps on the cubic c0 + c1 s + c2 s^2 +
    c3 s^3 from s, each kept in [0, 1] if clip, and the last step.  From
    the starts used here, that solves the cubic far below its distance
    from R.  Call it under np.errstate: a zero slope gives inf or nan,
    which the callers catch."""
    for _ in range(3):
        last = (c0 + s * (c1 + s * (c2 + s * c3))) / (
            c1 + s * (2.0 * c2 + 3.0 * s * c3))
        s = s - last
        if clip:
            s = np.clip(s, 0.0, 1.0)
    return s, last


def _hermite_zero(r0, r1, m0, m1) -> np.ndarray:
    """A zero s in [0, 1] of that cubic, r0 and r1 of opposite signs, from
    the secant zero."""
    a2, a3 = _cubic(r0, r1, m0, m1)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = _cubic_zero(r0, m0, a2, a3, r0 / (r0 - r1), clip=True)[0]
    return np.where(np.isnan(s), 0.5, s)


def _cubic_min(r0, r1, m0, m1):
    """(low, s): the least value low of sign(r0) H over [0, 1], H that
    cubic, which it takes at an end or at a zero s of H' inside; s = 1/2
    where it takes it at an end."""
    a2, a3 = _cubic(r0, r1, m0, m1)
    sign = np.where(np.signbit(r0), -1.0, 1.0)
    low, at = np.minimum(sign * r0, sign * r1), np.full(r0.shape, 0.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -(a2 + np.copysign(np.sqrt(a2 * a2 - 3.0 * m0 * a3), a2))
        for s in (q / (3.0 * a3), m0 / q):
            H = sign * (r0 + s * (m0 + s * (a2 + s * a3)))
            lower = (s > 0.0) & (s < 1.0) & (H < low)
            low, at = np.where(lower, H, low), np.where(lower, s, at)
    return low, at


def _cell_ends(t, V, row, cell) -> list:
    """[lo, hi, P(lo), P(hi), Q(lo), Q(hi)] of the cells cell of the rows
    row of V = (P, Q), P = R + i R' and Q = R'' + i R''', sampled at t:
    cell j runs from t[j] to t[j + 1]."""
    ends = (cell, cell + 1)
    return [t[j] for j in ends] + [X[row, j] for X in V for j in ends]


def _refine(f, A, B, t, V) -> list:
    """``_cell_ends`` of one row (A, B of shape (1, F)) whose grid
    (t, V = (R + i R', R'' + i R''')) brackets fewer than N zeros.

    On a cell of width w, R is within E = w^4 max|R''''| / 384 of the cubic
    H of its end values and slopes, and |R''''| <= sum_f f^4 (|A_f| + |B_f|).
    So a cell without a sign change can hide zeros only if sign(R) H comes
    within E of 0, plus 2 K eps sum_f (1 + f) (|A_f| + |B_f|) for the
    rounding of the grid.  Those cells are cut, at exact values of R and
    its derivatives where H comes nearest 0 (kept in the middle three
    quarters of the cell, so that cells shrink), until N sign changes
    bracket the N zeros.  If no such cell is left, a cell with a sign
    change holds three zeros, and the cells with a sign change are cut in
    half.  Cells narrower than the grid floor sqrt(eps) 2 pi / N are not
    cut: there two zeros move R by less than its rounding, and DecodeError
    is raised.
    """
    N = int(2 * f[-1])
    weight = np.abs(A[0]) + np.abs(B[0])
    quartic = np.sum(f ** 4 * weight) / 384.0
    rounding = 2.0 * GRID_PER_ZERO * N * _EPS * np.sum((1.0 + f) * weight)
    floor = np.sqrt(_EPS) * TWO_PI / N
    while True:
        R, D = V[0].real, V[0].imag
        change = np.signbit(R[1:]) != np.signbit(R[:-1])
        found = np.count_nonzero(change)
        if found == N:
            return _cell_ends(t, [X[None] for X in V], 0,
                              np.flatnonzero(change))
        w = np.diff(t)
        low, s = _cubic_min(R[:-1], R[1:], w * D[:-1], w * D[1:])
        cut = ~change & (low <= quartic * w ** 4 + rounding)
        if not cut.any():
            cut, s = change, np.full(w.shape, 0.5)
        if found > N or not cut.any() or w[cut].min() < floor:
            raise DecodeError(f"the grid brackets {found} of the {N} zeros "
                              "of R in cells wider than its floor")
        new = t[:-1][cut] + np.clip(s[cut], 0.125, 0.875) * w[cut]
        at = np.flatnonzero(cut) + 1
        exact = _values(f, A, B, np.zeros(new.size, int), new)
        t = np.insert(t, at, new)
        V = [np.insert(X, at, exact[m] + 1j * exact[m + 1])
             for X, m in zip(V, (0, 2))]


def _start(lo, hi, P0, P1, Q0, Q1) -> list:
    """[lo, hi, R(lo), theta, slope] of the cells [lo, hi] with the
    ``_cell_ends`` values P = R + i R' and Q = R'' + i R''' (0 at lo, 1 at
    hi): theta, kept in its cell, is a zero of the degree-7 Hermite
    interpolant H of R, R', R'' and R''' at the cell's ends, and
    slope = H'(theta).

    In s = (theta - lo) / w, w = hi - lo, H = T + s^4 g, T the Taylor cubic
    of R at lo.  s^4 g takes the remainders of T at s = 1; in powers of
    t = s - 1 they are divided by s^4 = (1 + t)^4 and shifted back to
    powers of s.  Newton's method on H starts at the zero of the cubic of
    R and R' at the cell's ends (``_hermite_zero``, about 1e-7 off at
    N = 256) and takes two steps, each clipped to the cell; its next step
    is ``_decode``'s, with R exact.
    """
    w = hi - lo
    start = _hermite_zero(P0.real, P1.real, w * P0.imag, w * P1.imag)
    w2, w3 = 0.5 * w * w, w ** 3 / 6.0  # R^(m) w^m / m! in powers of s:
    c = [P0.real, w * P0.imag, w2 * Q0.real, w3 * Q0.imag]      # at lo,
    u = [P1.real.copy(), w * P1.imag, w2 * Q1.real, w3 * Q1.imag]  # at hi
    for k in range(4):                  # less T(1 + t)
        for j in range(k, 4):
            u[k] -= comb(j, k) * c[j]
    for k in range(1, 4):               # over (1 + t)^4
        for j in range(1, k + 1):
            u[k] -= comb(4, j) * u[k - j]
    for k in range(3):                  # in powers of s = 1 + t
        for j in range(2, k - 1, -1):
            u[j] -= u[j + 1]
    c += u
    s = start
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            H, slope = _septic(c, s)
            s = np.clip(s - H / slope, 0.0, 1.0)
    s = np.where(np.isnan(s), start, s)
    return [lo, hi, c[0], lo + w * s, _septic(c, s)[1] / w]


def _septic(c, s):
    """(H, H') at s of H = sum_k c[k] s^k, by Horner's scheme."""
    H, slope = c[-1].copy(), np.zeros_like(s)
    for ck in c[-2::-1]:
        slope *= s
        slope += H
        H *= s
        H += ck
    return H, slope


def _brackets(f, A, B) -> list:
    """``_cell_ends`` [lo, hi, P(lo), P(hi), Q(lo), Q(hi)], each (rows of
    A, N), P = R + i R' and Q = R'' + i R''': for each row, N cells
    [lo, hi] in increasing order, each holding one zero of R.

    R has N simple zeros in [0, 2 pi), so where its signs on the grid of
    K = GRID_PER_ZERO N angles 2 pi j / K change N times, each change
    brackets one zero in its own cell, exactly.  R + i R' is the sum of
    d_g (1 - g) e^{i g theta} over g = +-f, with d_f = (A_f - i B_f) / 2 and
    d_{-f} its conjugate, so one inverse FFT of its coefficients at
    k = g + N / 2, times e^{-i N theta / 2}, gives both on the grid; a
    second, of those coefficients times (i g)^2, gives R'' + i R'''; and
    R^(m)(2 pi) = (-1)^N R^(m)(0).  Rows are transformed a batch at a time,
    so that no array exceeds _TABLE complex entries.  A row with fewer sign
    changes goes to ``_refine``.
    """
    rows, N = A.shape[0], int(2 * f[-1])
    K = GRID_PER_ZERO * N
    d = 0.5 * (A - 1j * B)
    coef = np.zeros((rows, N + 1), dtype=complex)
    coef[:, (0.5 * N + f).astype(int)] = d * (1.0 - f)
    coef[:, (0.5 * N - f).astype(int)] += d.conj() * (1.0 + f)
    curve = -(np.arange(N + 1) - 0.5 * N) ** 2       # (i g)^2
    t = np.linspace(0.0, TWO_PI, K + 1)
    phase = np.exp(-0.5j * N * t[:K])
    ends = [np.empty((rows, N), dtype=float if k < 2 else complex)
            for k in range(6)]
    batch = max(1, _TABLE // K)
    grids = [np.empty((min(batch, rows), K + 1), dtype=complex)
             for _ in range(2)]
    for lo in range(0, rows, batch):
        c = coef[lo:lo + batch]
        V = [v[:len(c)] for v in grids]
        for v, x in zip(V, (c, c * curve)):
            v[:, :K] = np.fft.ifft(x, n=K, axis=1, norm="forward")
            v[:, :K] *= phase
            v[:, K] = (-1) ** N * v[:, 0]
        R = V[0].real
        change = np.signbit(R[:, 1:]) != np.signbit(R[:, :-1])
        whole = np.count_nonzero(change, axis=1) == N
        row = np.flatnonzero(whole)
        cell = np.nonzero(change[whole])[1].reshape(-1, N)
        for x, e in zip(ends, _cell_ends(t, V, row[:, None], cell)):
            x[lo + row] = e
        for i in np.flatnonzero(~whole):
            one = slice(lo + i, lo + i + 1)
            for x, e in zip(ends, _refine(f, A[one], B[one], t,
                                          [X[i] for X in V])):
                x[lo + i] = e
    return ends


def _newton(f, A, B, row, lo, hi, R_lo, theta) -> np.ndarray:
    """The zeros of R in the brackets [lo, hi] of the rows row (ascending)
    of A and B, where R is R_lo at lo, searched from theta: the zeros whose
    step in ``_decode`` is not taken.

    Each pass takes R and R', R'', R''' at theta exactly and steps to the
    zero d of their Taylor cubic T, by ``_cubic_zero`` from -R / R'.
    |R''''| <= (N/2)^4 S, S = sum_f (|A_f| + |B_f|), so R(theta + d) is
    within (N/2)^4 S d^4 / 24 of T(d) = 0.  Once (|d| N/2)^4 <= 24 eps,
    that is below the rounding of R (about eps S), so theta + d is as near
    the zero as R's rounding lets an angle be; an angle also stops only when
    the last step on T is below the spacing of floats near 2 pi.  So each
    angle stops by rounding, not at a tuned tolerance.  Where the step
    would leave the bracket, which each pass shrinks to the side where R
    keeps its sign, the bracket is bisected instead.
    """
    limit = (24.0 * _EPS) ** 0.25 / f[-1]
    falls = np.signbit(R_lo)
    out = np.empty_like(theta)
    todo = np.arange(theta.size)
    for _ in range(_NEWTON_STEPS):
        R, D1, D2, D3 = _values(f, A, B, row[todo], theta[todo])
        D2, D3 = 0.5 * D2, D3 / 6.0
        with np.errstate(divide="ignore", invalid="ignore"):
            d, last = _cubic_zero(R, D1, D2, D3, -R / D1)
        at = theta[todo] + d
        done = ((np.abs(d) <= limit) & (np.abs(last) <= _EPS * TWO_PI)
                & (lo[todo] <= at) & (at <= hi[todo]))
        out[todo[done]] = at[done]
        todo, R, d = todo[~done], R[~done], d[~done]
        if not todo.size:
            return out
        at = theta[todo]
        left = np.signbit(R) == falls[todo]
        lo[todo] = np.where(left, at, lo[todo])
        hi[todo] = np.where(left, hi[todo], at)
        at = at + d
        theta[todo] = np.where((lo[todo] < at) & (at < hi[todo]), at,
                               0.5 * (lo[todo] + hi[todo]))
    raise DecodeError("Newton's method did not converge inside a bracket")


def _step_bound(N, lo, hi, theta, d):
    """A bound on |R(theta + d)| / S, S = sum_f (|A_f| + |B_f|), for the
    step d = -R(theta) / H'(theta) from theta in the cell [lo, hi] of the
    Hermite interpolant H of ``_start``.

    R(theta + d) = (R' - H')(theta) d + R''(x) d^2 / 2 for some x, and
    |R''| <= (N/2)^2 S.  R - H vanishes to fourth order at lo and hi, so
    R' - H' vanishes to third order there and, by Rolle, once between:
    H' interpolates R' at seven points, and the Hermite remainder gives
    |R' - H'| <= max|R^(8)| w (theta - lo)^3 (hi - theta)^3 / 7!, w the
    cell's width, with |R^(8)| <= (N/2)^8 S.  The rounding of H', of
    order K eps (N/2) S on the grid of K angles, adds at most
    K sqrt(2 eps) eps S, far below eps S, wherever the d^2 term is below
    eps S.
    """
    n, d = 0.5 * N, np.abs(d)
    wedge = (theta - lo) * (hi - theta)
    return n ** 8 * (hi - lo) * wedge ** 3 / 5040.0 * d + 0.5 * (n * d) ** 2


def _decode(alpha: np.ndarray) -> np.ndarray:
    """Sorted eigenangles in [0, 2 pi) of the CMV matrices of the rows of
    alpha (B, N).

    The eigenvalues are the zeros of P on |z| = 1, the N zeros of the real
    R of ``_real_form``.  ``_brackets`` puts each in its own cell of
    [0, 2 pi] and starts its search at a zero of the degree-7 Hermite
    interpolant H of R, R', R'' and R''' at the cell's ends, about 3e-12
    off at N = 256.  One exact pass of R alone at every start then steps
    to theta - R / H'.  That angle is taken if it stays in its cell and
    ``_step_bound`` puts |R| there below the rounding of R, eps S; so it
    is as near the zero as ``_newton`` would end, and it ends all but
    about one zero in a thousand.  ``_newton`` ends the rest.  The cells
    are in order, so the angles are; a zero at 1 found at 2 pi is moved
    to 0.  Rows are independent: a block decodes to the same angles as its
    rows one at a time.
    """
    f, A, B = _real_form(alpha)
    lo, hi, R_lo, theta, slope = _start(*_brackets(f, A, B))
    with np.errstate(divide="ignore", invalid="ignore"):
        d = -_trig_sums(f, A, B, theta, order=0)[0] / slope
        at = theta + d
        miss = ~((lo <= at) & (at <= hi)
                 & (_step_bound(alpha.shape[1], lo, hi, theta, d) <= _EPS))
    if miss.any():
        at[miss] = _newton(f, A, B, np.nonzero(miss)[0], lo[miss], hi[miss],
                           R_lo[miss], theta[miss])
    wrap = at[:, -1] == TWO_PI
    at[wrap] = np.roll(np.where(at[wrap] == TWO_PI, 0.0, at[wrap]), 1, axis=1)
    return at


def _verblunsky(N: int, rng) -> np.ndarray:
    # Killip-Nenciu Verblunsky coefficients of a Haar unitary:
    # |alpha_k|^2 ~ Beta(1, N - 1 - k), |alpha_{N-1}| = 1, uniform phases
    radii = np.sqrt(rng.beta(np.ones(N - 1), np.arange(N - 1, 0, -1.0)))
    alpha = np.exp(1j * TWO_PI * rng.random(N))
    alpha[:-1] *= radii
    return alpha


def sample(N: int, count: int, rng) -> np.ndarray:
    """(count, N) sorted CUE(N) eigenangles in [0, 2 pi), drawn and decoded
    block by block, so that a chunk's alpha is never held whole."""
    if N < 2:
        raise ValueError("N must be >= 2")
    out = np.empty((count, N))
    block = max(16, _TABLE // N)
    for lo in range(0, count, block):
        alpha = np.array([_verblunsky(N, rng)
                          for _ in range(min(block, count - lo))])
        out[lo:lo + len(alpha)] = _decode(alpha)
    return out
