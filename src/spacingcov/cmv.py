"""CUE(N) eigenangles from the Killip-Nenciu CMV model, exact Haar.

``sample`` draws and decodes a block of samples at a time (see
``_decode``).  The Szego recursion in coefficient space gives the
characteristic polynomial P of each sample.  P is self-inversive, so
R(theta) = mu e^{-i N theta / 2} P(e^{i theta}) = Re sum_f C_f e^{i f theta}
is a real trigonometric sum of degree N/2, one complex coefficient C_f per
frequency f, and its N zeros are the eigenangles; its sums are rounded on
the scale S = sum_f (|Re C_f| + |Im C_f|).  Two FFTs of C give R, R', R''
and R''' on a grid of GRID_PER_ZERO N angles, whose sign changes bracket
each zero in its own cell.  Newton steps on the degree-7 Hermite
interpolant of those values at a cell's ends, kept in its sign bracket,
start its zero about 3e-12 off at N = 256, so one exact value of R there,
by Horner's scheme, ends all but about one zero in fifty thousand by one
step that a rounding bound accepts.  A zero whose step is refused has its
cell cut, with R to R''' summed at the cut, and goes round again.  Each
angle's sums do not depend on what is decoded with it, so a block decodes
to its rows' exact bits.  At N = 256 a sample takes about 0.42 ms on one
core of a shared 2.1 GHz Xeon: 0.03 ms drawing alpha, 0.12 ms in the
recursion, 0.13 ms in the FFTs and bracketing (with the cuts of the one
sample in eight whose grid holds two zeros in a cell), 0.04 ms in the
degree-7 starts, 0.06 ms in the pass of R alone and the rest in its step.
No eigensolver runs: the module needs no LAPACK and no scipy, and the
decoder uses no BLAS, so the angles do not depend on the BLAS thread
count.
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
    """(f, C): frequencies f (F,) and coefficients C (rows of alpha, F) of
    the real function
        R(theta) = mu e^{-i N theta / 2} P(e^{i theta})
                 = Re sum_f C_f e^{i f theta},
    mu^2 = -alpha_{N-1}, f = k - N/2 >= 0 (half-integers for odd N).

    P is self-inversive, P* = -alpha_{N-1} P, so the coefficient c_k = mu p_k
    of e^{i f theta} is the conjugate of that of e^{-i f theta}, and
    C_f = c_k + conj(c_{N-k}).  Each pair is summed as computed, so R is
    the real part of the rounded sum.
    """
    N = alpha.shape[1]
    c = _paraorthogonal(alpha) * np.sqrt(-alpha[:, -1])
    k = np.arange((N + 1) // 2, N + 1)
    C = (c[k] + c[N - k].conj()).T
    if N % 2 == 0:
        C[:, 0] *= 0.5                  # f = 0 is its own pair
    return k - 0.5 * N, C


def _horner_sums(f, C, theta: np.ndarray) -> np.ndarray:
    """R at the angles theta (rows of C, n), each row with its row of C:
    the real part of e^{i f_0 h} q(e^{i h}), q(z) = sum_j C_f z^j,
    f = f_0 + j, by Horner's scheme, a batch of at most _TABLE angles (or
    one row) at a time, so that a step costs the same for one angle as for
    a few hundred.  R carries a rounding error of order F eps S, F
    frequencies, S = sum_f (|Re C_f| + |Im C_f|): against a long-double sum
    at N = 3 to 256 it stays below 0.6 of that.  Ufuncs alone, no BLAS."""
    rows, n = theta.shape
    step = max(1, _TABLE // max(n, f.size))
    out = np.empty((rows, n))
    for r in range(0, rows, step):
        h = theta[r:r + step]
        z = np.exp(1j * h)
        q = np.zeros(h.shape, dtype=complex)
        for c in C[r:r + step].T[::-1, :, None]:
            q *= z                      # highest frequency first
            q += c
        if f[0]:
            q *= np.exp(1j * f[0] * h)
        out[r:r + step] = q.real
    return out


class DecodeError(RuntimeError):
    """A cell that must be cut, to bracket a zero or to end one, is
    narrower than the grid floor, where the rounding of R cannot tell its
    zeros apart; no angles are returned."""


def _values(f, C, row: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """R, R', R'' and R''' (4, n) at the angles theta (n,), each with its
    own row C[row], at most _TABLE terms a chunk: e^{i f h} as running
    products of e^{i h} from e^{i f_0 h} (their phase errors grow as f eps,
    not as the f h eps of exp(i f h)), times C_f, contracted with (i f)^m by
    np.einsum, which calls no BLAS at its default optimize=False.  R^(m)
    carries a rounding error of order (N/2)^m F eps S."""
    powers = (1j * f[:, None]) ** np.arange(4)
    out = np.empty((4, theta.size))
    step = max(1, _TABLE // f.size)
    for i in range(0, theta.size, step):
        h = theta[i:i + step]
        e = np.empty((h.size, f.size), dtype=complex)
        e[:, 0] = np.exp(1j * f[0] * h)
        e[:, 1:] = np.exp(1j * h)[:, None]
        np.multiply.accumulate(e, axis=1, out=e)
        e *= C[row[i:i + step]]
        out[:, i:i + step] = np.einsum("nf,fm->mn", e, powers).real
    return out


def _cut(f, C, row, lo, hi, s) -> list:
    """[at, P, Q]: the points at = lo + s w of the cells [lo, hi] of the
    rows row of C, w = hi - lo, with s kept in the middle three quarters,
    so that each cut leaves at most 7/8 of its cell, and P = R + i R',
    Q = R'' + i R''' there, exact (``_values``).  Cells narrower than the
    grid floor sqrt(eps) 2 pi / N are not cut: there two zeros move R by
    less than its rounding, and DecodeError is raised."""
    w = hi - lo
    if not np.all(w >= np.sqrt(_EPS) * TWO_PI / (2.0 * f[-1])):
        raise DecodeError("a cell to cut is narrower than the grid floor")
    at = lo + np.clip(s, 0.125, 0.875) * w
    R, D1, D2, D3 = _values(f, C, row, at)
    return [at, R + 1j * D1, D2 + 1j * D3]


def _cubic_min(r0, r1, m0, m1):
    """(low, s): the least value low of sign(r0) H over [0, 1], H the cubic
    with values r0, r1 and slopes m0, m1 at s = 0 and 1, which it takes at
    an end or at a zero s of H' inside; s = 1/2 where it takes it at an
    end."""
    a2, a3 = 3.0 * (r1 - r0) - 2.0 * m0 - m1, 2.0 * (r0 - r1) + m0 + m1
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


def _refine(f, C, t, V) -> list:
    """``_cell_ends`` of one row (C of shape (1, F)) whose grid
    (t, V = (R + i R', R'' + i R''')) brackets fewer than N zeros.

    On a cell of width w, R is within E = w^4 max|R''''| / 384 of the cubic
    H of its end values and slopes, and
    |R''''| <= sum_f f^4 (|Re C_f| + |Im C_f|).  So a cell without a sign
    change can hide zeros only if sign(R) H comes within E of 0, plus
    2 K eps sum_f (1 + f) (|Re C_f| + |Im C_f|) for the rounding of the
    grid.  Those cells are ``_cut`` where H comes nearest 0, until N sign
    changes bracket the N zeros.  If no such cell is left, a cell with a
    sign change holds three zeros, and the cells with a sign change are
    cut in half.
    """
    N = int(2 * f[-1])
    weight = np.abs(C[0].real) + np.abs(C[0].imag)
    quartic = np.sum(f ** 4 * weight) / 384.0
    rounding = 2.0 * GRID_PER_ZERO * N * _EPS * np.sum((1.0 + f) * weight)
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
        if found > N or not cut.any():
            raise DecodeError(f"the grid brackets {found} of the {N} zeros "
                              "of R")
        new, *exact = _cut(f, C, np.zeros(np.count_nonzero(cut), int),
                           t[:-1][cut], t[1:][cut], s[cut])
        at = np.flatnonzero(cut) + 1
        t = np.insert(t, at, new)
        V = [np.insert(X, at, x) for X, x in zip(V, exact)]


def _start(lo, hi, P0, P1, Q0, Q1):
    """(theta, slope) of the cells [lo, hi] with the ``_cell_ends`` values
    P = R + i R' and Q = R'' + i R''' (0 at lo, 1 at hi): theta is a zero
    of the degree-7 Hermite interpolant H of R, R', R'' and R''' at the
    cell's ends, and slope = H'(theta).

    In s = (theta - lo) / w, w = hi - lo, H = T + s^4 g, T the Taylor cubic
    of R at lo.  s^4 g takes the remainders of T at s = 1; in powers of
    t = s - 1 they are divided by s^4 = (1 + t)^4 and shifted back to
    powers of s.  Newton's method on H starts at the secant zero
    R(lo) / (R(lo) - R(hi)) and takes six steps, each kept in the bracket
    [a, b] where H changes sign: s becomes the bracket's end on its side of
    the zero, and a step that leaves the closed bracket is replaced by the
    bracket's midpoint.  So no start sticks at a cell end where H's slope
    points out of the cell, and a converged step, which may not move s at
    all, stays in the closed bracket.  Its next step is ``_decode``'s, with
    R exact.
    """
    w = hi - lo
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
    falls = np.signbit(P0.real)
    a, b = np.zeros(w.shape), np.ones(w.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = P0.real / (P0.real - P1.real)
        for _ in range(6):
            H, slope = _septic(c, s)
            above = np.signbit(H) == falls      # the zero is above s
            a, b = np.where(above, s, a), np.where(above, b, s)
            s = s - H / slope
            s = np.where((a <= s) & (s <= b), s, 0.5 * (a + b))
    return lo + w * s, _septic(c, s)[1] / w


def _septic(c, s):
    """(H, H') at s of H = sum_k c[k] s^k, by Horner's scheme."""
    H, slope = c[-1].copy(), np.zeros_like(s)
    for ck in c[-2::-1]:
        slope *= s
        slope += H
        H *= s
        H += ck
    return H, slope


def _brackets(f, C) -> list:
    """``_cell_ends`` [lo, hi, P(lo), P(hi), Q(lo), Q(hi)], each (rows of
    C, N), P = R + i R' and Q = R'' + i R''': for each row, N cells
    [lo, hi] in increasing order, each holding one zero of R.

    R has N simple zeros in [0, 2 pi), so where its signs on the grid of
    K = GRID_PER_ZERO N angles 2 pi j / K change N times, each change
    brackets one zero in its own cell, exactly.  R + i R' is the sum of
    d_g (1 - g) e^{i g theta} over g = +-f, with d_f = C_f / 2 and
    d_{-f} its conjugate, so one inverse FFT of its coefficients at
    k = g + N / 2, times e^{-i N theta / 2}, gives both on the grid; a
    second, of those coefficients times (i g)^2, gives R'' + i R'''; and
    R^(m)(2 pi) = (-1)^N R^(m)(0).  Rows are transformed a batch at a time,
    so that no array exceeds _TABLE complex entries.  A row with fewer sign
    changes goes to ``_refine``.
    """
    rows, N = C.shape[0], int(2 * f[-1])
    K = GRID_PER_ZERO * N
    d = 0.5 * C
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
            for x, e in zip(ends, _refine(f, C[one], t, [X[i] for X in V])):
                x[lo + i] = e
    return ends


def _step_bound(N, lo, hi, theta, d):
    """A bound on |R(theta + d)| / S, S = sum_f (|Re C_f| + |Im C_f|), for
    the step d = -R(theta) / H'(theta) from theta in the cell [lo, hi] of
    the Hermite interpolant H of ``_start``.

    R(theta + d) = (R' - H')(theta) d + R''(x) d^2 / 2 for some x, and
    |R''| <= (N/2)^2 S.  R - H vanishes to fourth order at lo and hi, so
    R' - H' vanishes to third order there and, by Rolle, once between:
    H' interpolates R' at seven points, and the Hermite remainder gives
    |R' - H'| <= max|R^(8)| w (theta - lo)^3 (hi - theta)^3 / 7!, w the
    cell's width, with |R^(8)| <= (N/2)^8 S.  The rounding of H', of
    order K eps (N/2) S on the grid of K angles, adds at most
    K sqrt(2 eps) eps S, far below eps S, wherever the d^2 term is below
    eps S.  A step whose bound exceeds eps is not taken: ``_decode`` cuts
    its cell and starts the zero again.
    """
    n, d = 0.5 * N, np.abs(d)
    wedge = (theta - lo) * (hi - theta)
    return n ** 8 * (hi - lo) * wedge ** 3 / 5040.0 * d + 0.5 * (n * d) ** 2


def _decode(alpha: np.ndarray) -> np.ndarray:
    """Sorted eigenangles in [0, 2 pi) of the CMV matrices of the rows of
    alpha (B, N).

    The eigenvalues are the zeros of P on |z| = 1, the N zeros of the real
    R of ``_real_form``.  ``_brackets`` puts each in its own cell of
    [0, 2 pi], and one loop ends them.  Each open zero starts at the zero
    theta of the degree-7 Hermite interpolant H of its cell (``_start``),
    takes one exact value of R there (``_horner_sums`` over every zero in
    the first round, ``_values`` later), and steps to theta - R / H'.  That angle is
    taken if it stays in its cell and ``_step_bound`` puts |R| there below
    the rounding of R, eps S; so it is as near the zero as R's rounding
    lets an angle be.  Otherwise the cell is ``_cut`` at theta, the cut
    point becomes its end on the side where R keeps its sign, and the zero
    goes round again.  Each cut leaves at most 7/8 of a cell, so the loop
    ends, at the latest with DecodeError at the grid floor.  At N = 256
    about one zero in fifty thousand needs a second round.  The cells
    are in order, so the angles are; a zero at 1 found at 2 pi is moved to
    0.  Rows are independent: a block decodes to the same bits as its rows
    one at a time.
    """
    f, C = _real_form(alpha)
    rows, N = alpha.shape
    ends = [x.ravel() for x in _brackets(f, C)]
    theta, slope = _start(*ends)
    R = _horner_sums(f, C, theta.reshape(rows, N)).ravel()
    zero = np.arange(rows * N)
    out = np.empty(rows * N)
    while True:
        lo, hi = ends[:2]
        with np.errstate(divide="ignore", invalid="ignore"):
            d = -R / slope
            at = theta + d
            done = ((lo <= at) & (at <= hi)
                    & (_step_bound(N, lo, hi, theta, d) <= _EPS))
        out[zero[done]] = at[done]
        if done.all():
            break
        keep = ~done
        zero, theta = zero[keep], theta[keep]
        ends = [x[keep] for x in ends]
        lo, hi, row = *ends[:2], zero // N
        cut = _cut(f, C, row, lo, hi, (theta - lo) / (hi - lo))
        above = np.signbit(cut[1].real) == np.signbit(ends[2].real)
        for k, x in enumerate(cut):     # the zero lies above the cut point
            ends[2 * k] = np.where(above, x, ends[2 * k])
            ends[2 * k + 1] = np.where(above, ends[2 * k + 1], x)
        theta, slope = _start(*ends)
        R = _values(f, C, row, theta)[0]
    out = out.reshape(rows, N)
    wrap = out[:, -1] == TWO_PI
    out[wrap] = np.roll(np.where(out[wrap] == TWO_PI, 0.0, out[wrap]), 1,
                        axis=1)
    return out


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
