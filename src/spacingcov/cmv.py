"""CUE(N) eigenangles from the Killip-Nenciu CMV model, exact Haar.

``sample`` draws and decodes a block of samples at a time (see
``_decode``).  The Szego recursion in coefficient space gives the
characteristic polynomial P of each sample.  P is self-inversive, so
R(theta) = mu e^{-i N theta / 2} P(e^{i theta}) is a real trigonometric sum
of degree N/2, whose N zeros are the eigenangles.  One FFT gives R and R'
on a grid of GRID_PER_ZERO N angles, whose sign changes bracket each zero
in its own cell; one exact pass of R and its first three derivatives at
the zero of each cell's cubic ends almost every zero, and a Newton search
kept inside the brackets ends the rest.  At N = 256 a sample takes about
0.85 ms on one core of a shared 2.1 GHz Xeon: 0.06 ms drawing alpha,
0.18 ms in the recursion, 0.17 ms bracketing (and 0.08 ms more on average
cutting the cells of the one sample in eight whose grid holds two zeros in
a cell) and 0.36 ms in the exact passes, most of it in the Horner pass
over every zero.  No eigensolver runs: the module needs no LAPACK and no
scipy, and the decoder uses no BLAS, so the angles do not depend on the
BLAS thread count.
"""

from __future__ import annotations

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


def _trig_sums(f, A, B, theta: np.ndarray) -> np.ndarray:
    """R and its first three derivatives, (4, rows of A, n), at the angles
    theta (rows of A, n): the sum over f of A_f cos(f h) + B_f sin(f h) at
    h = theta, and its derivatives in h.

    R^(m)(h) is the real part of i^m e^{i f_0 h} (f_0 + E)^m q(e^{i h}),
    where q(z) = sum_j (A_f - i B_f) z^j, f = f_0 + j, and E = z d/dz.  A
    set with at most _TABLE terms (angles times frequencies), such as most
    Newton follow-ups and the cuts of ``_refine``, is summed term by term by
    ``_power_sums``; a larger one, such as the pass over every zero, by
    Horner's scheme in ``_horner_sums``, whose steps cost the same for one
    angle as for a few hundred.  Either way R^(m) carries a rounding error
    of order (N/2)^m F eps sum_f (|A_f| + |B_f|), F frequencies: against a
    long-double sum at N = 3 to 256 both stay below 0.6 of that.  Both use
    ufuncs alone, no BLAS, so the sums do not depend on the BLAS thread
    count.
    """
    if theta.size * f.size <= _TABLE:
        return _power_sums(f, A, B, theta)
    return _horner_sums(f, A, B, theta)


def _power_sums(f, A, B, theta: np.ndarray) -> np.ndarray:
    """``_trig_sums`` with no loop over f: e^{i f h} as running products of
    e^{i h} from e^{i f_0 h} (their phase errors grow as f eps, not as the
    f h eps of exp(i f h)), times A_f - i B_f, contracted with (i f)^m by
    np.einsum, which calls no BLAS at its default optimize=False."""
    e = np.empty((*theta.shape, f.size), dtype=complex)
    e[..., 0] = np.exp(1j * f[0] * theta)
    e[..., 1:] = np.exp(1j * theta)[..., None]
    np.multiply.accumulate(e, axis=-1, out=e)
    e *= (A - 1j * B)[:, None]
    return np.einsum("rnf,fm->mrn", e, (1j * f[:, None]) ** np.arange(4)).real


def _horner_sums(f, A, B, theta: np.ndarray) -> np.ndarray:
    """``_trig_sums`` by Horner's scheme for q and its Taylor coefficients
    q', q''/2 and q'''/6 at z = e^{i h}, a batch of rows of theta at a time.
    Each is summed in its own array of the batch's shape, so every step
    multiplies by z in the same shape; a batch holds at most _TABLE
    angles, or one row.  At the end
        E q = z q',    E^2 q = z q' + z^2 q'',
        E^3 q = z q' + 3 z^2 q'' + z^3 q''',
    shifted to (f_0 + E)^m q for odd N.  q's recurrence is Horner's scheme
    for R alone, so R has the bits it would have alone.
    """
    rows, n = theta.shape
    step = max(1, _TABLE // max(n, f.size))
    out = np.empty((4, rows, n))
    for r in range(0, rows, step):
        h = theta[r:r + step]
        coef = (A[r:r + step] - 1j * B[r:r + step]).T[::-1, :, None]
        z = np.exp(1j * h)
        s = [np.zeros(h.shape, dtype=complex) for _ in range(4)]
        s0, s1, s2, s3 = s
        for c in coef:                  # highest frequency first
            s3 *= z
            s3 += s2
            s2 *= z
            s2 += s1
            s1 *= z
            s1 += s0
            s0 *= z
            s0 += c
        s1 *= z                         # E q
        s2 *= z
        s2 *= z                         # z^2 q'' / 2
        for _ in range(3):
            s3 *= z                     # z^3 q''' / 6
        s3 += s2
        s3 *= 6.0
        s3 += s1                        # E^3 q
        s2 *= 2.0
        s2 += s1                        # E^2 q
        if f[0]:                        # (f_0 + E)^m q, by the Taylor shift
            for k in range(1, 4):
                for m in range(3, k - 1, -1):
                    s[m] += f[0] * s[m - 1]
            z = np.exp(1j * f[0] * h)
            for x in s:
                x *= z
        out[0, r:r + step] = s0.real
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
    (ascending) of A and B: one call over those rows, each padded with its
    first angle to the longest row's count.  Rows of one count, as in the
    pass over every zero, are passed as they are: their index and padded
    arrays would hold 0.1 MB more while the Horner pass runs."""
    first = np.flatnonzero(np.diff(row, prepend=-1))
    counts = np.diff(first, append=row.size)
    rows = row[first]
    if np.all(counts == counts[0]):
        return _trig_sums(f, A[rows], B[rows],
                          theta.reshape(rows.size, -1)).reshape(4, -1)
    group = np.repeat(np.arange(first.size), counts)
    at = np.arange(row.size) - first[group]
    padded = np.repeat(theta[first, None], counts.max(), axis=1)
    padded[group, at] = theta
    return _trig_sums(f, A[rows], B[rows], padded)[:, group, at]


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


def _cell_ends(t, R, D, row, cell) -> np.ndarray:
    """(lo, hi, R(lo), R(hi), R'(lo), R'(hi)) of the cells cell of the rows
    row of R and D, sampled at t: cell j runs from t[j] to t[j + 1]."""
    ends = (cell, cell + 1)
    return np.stack([t[j] for j in ends]
                    + [X[row, j] for X in (R, D) for j in ends])


def _refine(f, A, B, t, R, D) -> np.ndarray:
    """``_cell_ends`` (6, N) of one row (A, B of shape (1, F)) whose grid
    (t, R, D) brackets fewer than N zeros.

    On a cell of width w, R is within E = w^4 max|R''''| / 384 of the cubic
    H of its end values and slopes, and |R''''| <= sum_f f^4 (|A_f| + |B_f|).
    So a cell without a sign change can hide zeros only if sign(R) H comes
    within E of 0, plus 2 K eps sum_f (1 + f) (|A_f| + |B_f|) for the
    rounding of the grid.  Those cells are cut, at exact values of R where
    H comes nearest 0 (kept in the middle three quarters of the cell, so
    that cells shrink), until N sign changes bracket the N zeros.  If no
    such cell is left, a cell with a sign change holds three zeros, and the
    cells with a sign change are cut in half.  Cells narrower than the grid
    floor sqrt(eps) 2 pi / N are not cut: there two zeros move R by less
    than its rounding, and DecodeError is raised.
    """
    N = int(2 * f[-1])
    weight = np.abs(A[0]) + np.abs(B[0])
    quartic = np.sum(f ** 4 * weight) / 384.0
    rounding = 2.0 * GRID_PER_ZERO * N * _EPS * np.sum((1.0 + f) * weight)
    floor = np.sqrt(_EPS) * TWO_PI / N
    while True:
        change = np.signbit(R[1:]) != np.signbit(R[:-1])
        found = np.count_nonzero(change)
        if found == N:
            return _cell_ends(t, R[None], D[None], 0, np.flatnonzero(change))
        w = np.diff(t)
        low, s = _cubic_min(R[:-1], R[1:], w * D[:-1], w * D[1:])
        cut = ~change & (low <= quartic * w ** 4 + rounding)
        if not cut.any():
            cut, s = change, np.full(w.shape, 0.5)
        if found > N or not cut.any() or w[cut].min() < floor:
            raise DecodeError(f"the grid brackets {found} of the {N} zeros "
                              "of R in cells wider than its floor")
        new = t[:-1][cut] + np.clip(s[cut], 0.125, 0.875) * w[cut]
        R_new, D_new = _values(f, A, B, np.zeros(new.size, int), new)[:2]
        at = np.flatnonzero(cut) + 1
        t, R, D = (np.insert(t, at, new), np.insert(R, at, R_new),
                   np.insert(D, at, D_new))


def _brackets(f, A, B) -> np.ndarray:
    """(lo, hi, R(lo), start), each (rows of A, N): for each row, N cells
    [lo, hi] in increasing order, each holding one zero of R, and the zero
    of the cubic of R and R' at each cell's ends to start its search.

    R has N simple zeros in [0, 2 pi), so where its signs on the grid of
    K = GRID_PER_ZERO N angles 2 pi j / K change N times, each change
    brackets one zero in its own cell, exactly.  R + i R' is the sum of
    d_g (1 - g) e^{i g theta} over g = +-f, with d_f = (A_f - i B_f) / 2 and
    d_{-f} its conjugate, so one inverse FFT of its coefficients at
    k = g + N / 2, times e^{-i N theta / 2}, gives both on the grid; and
    R(2 pi) = (-1)^N R(0).  Rows are transformed a batch at a time, so that
    no array exceeds _TABLE complex entries.  A row with fewer sign changes
    goes to ``_refine``.
    """
    rows, N = A.shape[0], int(2 * f[-1])
    K = GRID_PER_ZERO * N
    d = 0.5 * (A - 1j * B)
    coef = np.zeros((rows, N + 1), dtype=complex)
    coef[:, (0.5 * N + f).astype(int)] = d * (1.0 - f)
    coef[:, (0.5 * N - f).astype(int)] += d.conj() * (1.0 + f)
    t = np.linspace(0.0, TWO_PI, K + 1)
    phase = np.exp(-0.5j * N * t[:K])
    out = np.empty((4, rows, N))
    batch = max(1, _TABLE // K)
    grid = np.empty((min(batch, rows), K + 1), dtype=complex)
    for lo in range(0, rows, batch):
        v = grid[:min(batch, rows - lo)]
        v[:, :K] = np.fft.ifft(coef[lo:lo + batch], n=K, axis=1,
                               norm="forward")
        v[:, :K] *= phase
        v[:, K] = (-1) ** N * v[:, 0]
        R, D = v.real, v.imag
        change = np.signbit(R[:, 1:]) != np.signbit(R[:, :-1])
        whole = np.count_nonzero(change, axis=1) == N
        ends = np.empty((6, len(v), N))
        row = np.flatnonzero(whole)
        ends[:, row] = _cell_ends(t, R, D, row[:, None],
                                  np.nonzero(change[whole])[1].reshape(-1, N))
        for i in np.flatnonzero(~whole):
            one = slice(lo + i, lo + i + 1)
            ends[:, i] = _refine(f, A[one], B[one], t, R[i], D[i])
        a, b, Ra, Rb, Da, Db = ends
        w = b - a
        out[:, lo:lo + batch] = a, b, Ra, a + w * _hermite_zero(Ra, Rb, w * Da,
                                                               w * Db)
    return out


def _newton(f, A, B, lo, hi, R_lo, theta) -> np.ndarray:
    """The zeros of R in the brackets [lo, hi] (flat, N per row of A and B,
    row by row), where R is R_lo at lo, searched from theta.

    Each pass takes R and R', R'', R''' at theta exactly and steps to the
    zero d of their Taylor cubic T, by ``_cubic_zero`` from -R / R'.
    |R''''| <= (N/2)^4 S, S = sum_f (|A_f| + |B_f|), so R(theta + d) is
    within (N/2)^4 S d^4 / 24 of T(d) = 0.  Once (|d| N/2)^4 <= 24 eps,
    that is below the rounding of R (about eps S), so theta + d is as near
    the zero as R's rounding lets an angle be; an angle also stops only when
    the last step on T is below the spacing of floats near 2 pi.  So each
    angle stops by rounding, not at a tuned tolerance, and from the cubic
    starts of ``_brackets`` one pass ends almost every angle.  Where the
    step would leave the bracket, which each pass shrinks to the side where
    R keeps its sign, the bracket is bisected instead.
    """
    N = int(2 * f[-1])
    limit = (24.0 * _EPS) ** 0.25 / f[-1]
    falls = np.signbit(R_lo)
    out = np.empty_like(theta)
    todo = np.arange(theta.size)
    for _ in range(_NEWTON_STEPS):
        R, D1, D2, D3 = _values(f, A, B, todo // N, theta[todo])
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


def _decode(alpha: np.ndarray) -> np.ndarray:
    """Sorted eigenangles in [0, 2 pi) of the CMV matrices of the rows of
    alpha (B, N).

    The eigenvalues are the zeros of P on |z| = 1, the N zeros of the real
    R of ``_real_form``.  ``_brackets`` puts each in its own cell of
    [0, 2 pi] and starts its search at the zero of the cubic of R and R' at
    the cell's ends, about 1e-7 off at N = 256; ``_newton`` ends it, after
    one exact ``_trig_sums`` pass for almost every zero.  The cells are in
    order, so the angles are; a zero at 1 found at 2 pi is moved to 0.
    Rows are independent: a block decodes to the same angles as its rows one
    at a time.
    """
    f, A, B = _real_form(alpha)
    theta = _newton(f, A, B, *(x.ravel() for x in _brackets(f, A, B)))
    theta = theta.reshape(alpha.shape)
    wrap = theta[:, -1] == TWO_PI
    theta[wrap] = np.roll(np.where(theta[wrap] == TWO_PI, 0.0, theta[wrap]),
                          1, axis=1)
    return theta


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
