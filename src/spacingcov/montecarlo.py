"""Monte Carlo auto-covariances of CUE level spacings.

Pipeline (mirrors the reference numerical procedure): draw M independent
CUE(N) spectra, form the N-1 consecutive eigenangle spacings per sample,
unfold each position by its ensemble-mean spacing Delta_l, average the
lagged products within each sample (running energy average) and then over
samples, and attach 99% confidence intervals from the sample variance.

The run is streamed in deterministic chunks.  A chunk returns only its raw
spacings; the caller folds them, in chunk-index order, into fixed sums
(spacing first moments, the full spacing cross-moment matrix, and per-lag
product second moments), from which the exact two-pass statistics --
including Delta_l from all M samples -- are reconstructed at the end.
For the batch-means error of the level statistics, the LEAD x LEAD leading
cross-moments are also summed per batch of contiguous chunks, at most
LEAD_BATCHES of them, so no sum grows with M: 3.5 MB at N = 256 from 100
chunks on, in memory and in the checkpoint.
Chunk RNG streams are spawned from one seed, so results are bit-identical
for a given config whatever the number of worker threads, at a fixed BLAS
thread count: the cross-moment sums are BLAS products, formed in the
folding thread, whose summation order follows that count (about 1 ulp
apart between 1 and 2 OpenBLAS threads).  A checkpoint of the sums, a
``store`` file keyed by the config, this module's code and constants and
the numpy and scipy versions, makes runs resumable.

Sampler: the Killip-Nenciu CMV model, exact Haar, drawing a whole block of
samples in one call.  It takes cos(theta) of each sample from one banded
eigensolve of C + C^H, built in O(N) from the Verblunsky coefficients, and
then decodes fixed blocks of samples at once (see ``_decode``).  The Szego
recursion in coefficient space gives the characteristic polynomial P of
each sample.  P is self-inversive, so R(theta) = mu e^{-i N theta / 2}
P(e^{i theta}) is a real trigonometric sum, and one pass over a table of
e^{i f arccos c} gives R and R' at both candidates +-arccos c: each angle
is the candidate of smaller |R / R'| after one Newton step.  The decoder
uses no BLAS, so the angles do not depend on the BLAS thread count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice

import numpy as np
import scipy
from scipy.linalg import eig_banded

from . import store

TWO_PI = 2.0 * np.pi
C_99 = 2.5758                      # 99% two-sided normal quantile
LEAD = 66                          # leading window of the level statistics
LEAD_BATCHES = 100                 # at most this many batches of its sums


# a checkpoint of another key, or one that cannot be read or lacks an array
CheckpointMismatch = store.StaleState


@dataclass(frozen=True)
class MCConfig:
    N: int = 256
    M: int = 100_000
    seed: int = 1
    k_max: int = 12
    # the one sampler; a field still, as perfbench/workloads.py passes it
    sampler: str = "sparse_cmv"
    chunk_size: int = 500

    def __post_init__(self):
        if self.N < 4:
            raise ValueError("N must be >= 4")
        if self.M < 2:
            raise ValueError("M must be >= 2")
        if not (1 <= self.k_max <= self.N - 2):
            raise ValueError("k_max must lie in [1, N - 2]")
        if self.sampler != "sparse_cmv":
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")

    @property
    def n_chunks(self) -> int:
        return -(-self.M // self.chunk_size)

    def chunk_bounds(self, c: int):
        lo = c * self.chunk_size
        return lo, min(lo + self.chunk_size, self.M)


# ---------------------------------------------------------------------------
# the sampler: (N, count, rng) -> (count, N) sorted eigenangles in [0, 2 pi)

_DECODE_BLOCK = 32      # samples whose polynomials are built together


def _cmv_matrix(alpha: np.ndarray) -> np.ndarray:
    """K = C + C^H for the CMV matrix C = L M of alpha, in the upper banded
    storage of ``eig_banded`` (rows: second superdiagonal, first, diagonal).

    With alpha_{-1} = -1 and rho_j = sqrt(1 - |alpha_j|^2), the 2 x 2 blocks
    [[conj(alpha_j), rho_j], [rho_j, -alpha_j]] of L (even j) and M (odd j)
    multiply out to
        K[j, j]     = -2 Re(conj(alpha_j) alpha_{j-1}),
        K[j, j + 1] = rho_j (alpha_{j+1} - alpha_{j-1}), conjugated for even j,
        K[j, j + 2] = rho_j rho_{j+1}.
    """
    prev = np.concatenate(([-1.0], alpha[:-1]))
    rho = np.sqrt(np.clip(1.0 - np.abs(alpha[:-1]) ** 2, 0.0, None))
    d = alpha[1:] - prev[:-1]
    d[::2] = d[::2].conj()
    ab = np.zeros((3, alpha.size), dtype=complex)
    ab[0, 2:] = rho[:-1] * rho[1:]
    ab[1, 1:] = rho * d
    ab[2] = -2.0 * (alpha.conj() * prev).real
    return ab


def _paraorthogonal(alpha: np.ndarray) -> np.ndarray:
    """Coefficients (N + 1, B), constant term first, of
    P = z Phi_{N-1} - conj(alpha_{N-1}) Phi*_{N-1} for the rows of alpha
    (B, N): the characteristic polynomial det(z - C) of the CMV matrix.

    The Szego recursion in coefficient space, from Phi_0 = Phi*_0 = 1:
        Phi_{n+1} = z Phi_n - conj(alpha_n) Phi*_n,
        Phi*_{n+1} = Phi*_n - alpha_n z Phi_n.
    Phi_n sits in rows N - n .. N of its buffer, so z Phi_n is the same
    memory read from row N - n - 1, which is still zero; Phi*_n sits in rows
    0 .. n.  Each step is four in-place ufuncs on contiguous (n + 2, B) rows.
    """
    B, N = alpha.shape
    phi = np.zeros((N + 1, B), dtype=complex)
    phi_star = np.zeros((N + 1, B), dtype=complex)
    phi[N] = phi_star[0] = 1.0
    a = np.ascontiguousarray(alpha.T)
    a_conj = a.conj()
    u, v = np.empty_like(phi), np.empty_like(phi)
    for n in range(N):
        z_phi, star = phi[N - n - 1:], phi_star[:n + 2]
        u_n, v_n = u[:n + 2], v[:n + 2]
        np.multiply(a_conj[n], star, out=u_n)
        np.multiply(a[n], z_phi, out=v_n)
        np.subtract(z_phi, u_n, out=z_phi)
        np.subtract(star, v_n, out=star)
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


def _trig_sums(f, A, B, half: np.ndarray) -> np.ndarray:
    """(C, S, C1, S1), each shaped like half (rows of A, N): the sums over f
    of A_f cos(f h), B_f sin(f h), f B_f cos(f h) and f A_f sin(f h) at the
    angles h = half in [0, pi].  So R(+-h) = C +- S and R'(+-h) = C1 -+ S1.

    The table of e^{i f h} is built by repeated multiplication by e^{i h},
    one row at a time: (N, N/2 + 1) complex, 0.5 MB at N = 256.  It is read
    by einsum, which uses no BLAS, so the sums do not depend on the BLAS
    thread count.
    """
    out = np.empty((4, *half.shape))
    table = np.empty((half.shape[1], f.size), dtype=complex)
    for i, h in enumerate(half):
        table[:, 0] = np.exp(1j * f[0] * h)
        table[:, 1:] = np.exp(1j * h)[:, None]
        np.multiply.accumulate(table, axis=1, out=table)
        for row, part, w in zip(out[:, i], (table.real, table.imag) * 2,
                                (A[i], B[i], f * B[i], f * A[i])):
            np.einsum("jf,f->j", part, w, out=row)
    return out


class DecodeError(RuntimeError):
    """A sample's decoded angles are not N distinct zeros of its
    characteristic polynomial (two cosines gave the same zero); no angles
    are returned."""


def _decode(alpha: np.ndarray, cosines: np.ndarray) -> np.ndarray:
    """Sorted eigenangles in [0, 2 pi) of the CMV matrices of the rows of
    alpha (B, N), given their cosines (B, N).

    The eigenvalues are the zeros of P on |z| = 1, the zeros of the real R
    of ``_real_form``.  One pass of ``_trig_sums`` at h = arccos c gives R
    and R' at both candidates +-h; each angle is the candidate of smaller
    |R / R'| after one Newton step theta - R / R', which removes the arccos
    error (up to 1e-8 near 0 and pi).

    R' alternates in sign from one simple zero of R to the next, and
    R(theta + 2 pi) = (-1)^N R(theta).  If the sorted angles break that
    alternation, a zero was taken twice and another missed, as when the
    spectrum holds exact pairs +-theta; then DecodeError is raised.  Rows
    are independent: a block decodes to the same angles as its rows one at
    a time.
    """
    N = alpha.shape[1]
    half = np.arccos(np.clip(cosines, -1.0, 1.0))
    C, S, C1, S1 = _trig_sums(*_real_form(alpha), half)
    slope_up, slope_down = C1 - S1, C1 + S1
    step_up, step_down = (C + S) / slope_up, (C - S) / slope_down
    up = np.abs(step_up) <= np.abs(step_down)
    theta = np.where(up, half - step_up, -half - step_down)
    slope = np.where(up, slope_up, slope_down)
    if N % 2:
        slope[theta < 0] *= -1.0        # these move on by 2 pi
    theta = np.mod(theta, TWO_PI)
    order = np.argsort(theta, axis=1)
    falling = np.signbit(np.take_along_axis(slope, order, axis=1))
    if np.any(falling[:, 1:] == falling[:, :-1]):
        raise DecodeError("a zero of the characteristic polynomial was "
                          "decoded twice")
    return np.take_along_axis(theta, order, axis=1)


def _verblunsky(N: int, rng) -> np.ndarray:
    # Killip-Nenciu Verblunsky coefficients of a Haar unitary:
    # |alpha_k|^2 ~ Beta(1, N - 1 - k), |alpha_{N-1}| = 1, uniform phases
    radii = np.sqrt(rng.beta(np.ones(N - 1), np.arange(N - 1, 0, -1.0)))
    alpha = np.exp(1j * TWO_PI * rng.random(N))
    alpha[:-1] *= radii
    return alpha


def _sample_sparse_cmv(N: int, count: int, rng) -> np.ndarray:
    # per sample: draw alpha, one banded eigensolve for cos(theta); then
    # decode block by block, so a chunk's alpha is never held whole
    if N < 2:
        raise ValueError("N must be >= 2")
    out = np.empty((count, N))
    for lo in range(0, count, _DECODE_BLOCK):
        alpha = np.array([_verblunsky(N, rng)
                          for _ in range(min(_DECODE_BLOCK, count - lo))])
        two_cos = np.array([eig_banded(_cmv_matrix(a), lower=False,
                                       eigvals_only=True) for a in alpha])
        out[lo:lo + len(alpha)] = _decode(alpha, 0.5 * two_cos)
    return out


# a table of one, read at call time: perfbench/tracing.py wraps its entries
_SAMPLERS = {"sparse_cmv": _sample_sparse_cmv}


def sample_cue_eigenangles(N: int, rng) -> np.ndarray:
    """One sorted CUE(N) eigenangle sample in [0, 2 pi)."""
    return _sample_sparse_cmv(N, 1, rng)[0]


# ---------------------------------------------------------------------------
# in-memory ensembles

@dataclass
class CueBatch:
    """A batch of spectra: angles, raw spacings, optionally unfolded ones."""

    eigenangles: np.ndarray                 # (M_b, N), sorted rows
    raw_spacings: np.ndarray                # (M_b, N - 1)
    unfolded_spacings: np.ndarray | None = None

    @classmethod
    def generate(cls, N: int, M: int, rng):
        ang = _sample_sparse_cmv(N, M, rng)
        return cls(ang, np.diff(ang, axis=1))


def unfold(batch: CueBatch, mean_spacings: np.ndarray) -> CueBatch:
    """Divide each spacing by its per-position mean Delta_l."""
    delta = np.asarray(mean_spacings, dtype=float)
    if delta.shape != (batch.raw_spacings.shape[1],):
        raise ValueError("mean_spacings length must be N - 1")
    if np.any(delta <= 0):
        raise ValueError("mean spacings must be positive")
    return CueBatch(batch.eigenangles, batch.raw_spacings,
                    batch.raw_spacings / delta)


@dataclass
class MCEstimate:
    """Sample-averaged lagged covariances with 99% half-widths."""

    values: np.ndarray
    sample_std: np.ndarray
    half_widths: np.ndarray
    N: int
    M: int
    seed: int | None = None


def aggregate(per_sample) -> MCEstimate:
    """Mean, unbiased std, and C_99 * std / sqrt(M) half-widths over
    samples, with N = 0: the samples carry no matrix size.

    ``per_sample`` is (M,) or (M, K+1); rows are independent samples.
    """
    x = np.asarray(per_sample, dtype=float).reshape(len(per_sample), -1)
    M = x.shape[0]
    if M < 2:
        raise ValueError("need at least 2 samples")
    mean = x.mean(axis=0)
    std = x.std(axis=0, ddof=1)
    half = C_99 * std / np.sqrt(M)
    return MCEstimate(mean, std, half, 0, M)


# ---------------------------------------------------------------------------
# streaming run

@dataclass
class _Accumulators:
    sum_s: np.ndarray                       # (N-1,)
    cross: np.ndarray                       # (N-1, N-1): sum of outer(s, s)
    prod_sq: list                           # per k: (n_k, n_k) fourth moments
    lead_cross: np.ndarray                  # (G, L, L): batch c G // n_chunks
    n_chunks: int
    next_chunk: int = 0

    @classmethod
    def fresh(cls, config: MCConfig):
        n = config.N - 1
        L = min(LEAD, n)
        return cls(
            np.zeros(n), np.zeros((n, n)),
            [np.zeros((n - k, n - k)) for k in range(config.k_max + 1)],
            np.zeros((min(LEAD_BATCHES, config.n_chunks), L, L)),
            config.n_chunks)


def _chunk_partials(config: MCConfig, c: int, child_seed) -> np.ndarray:
    """Raw spacings R of chunk c, shape (hi - lo, N - 1)."""
    rng = np.random.Generator(np.random.Philox(child_seed))
    lo, hi = config.chunk_bounds(c)
    return np.diff(_SAMPLERS[config.sampler](config.N, hi - lo, rng), axis=1)


def _fold(acc: _Accumulators, c: int, R: np.ndarray):
    """Add chunk c's spacings R to the sums, each product straight into its
    accumulator, so no partial sum of the chunk is held beside them."""
    n = R.shape[1]
    L = acc.lead_cross.shape[1]
    acc.sum_s += R.sum(axis=0)
    acc.cross += R.T @ R
    for k, m in enumerate(acc.prod_sq):
        P = R[:, :n - k] * R[:, k:]
        m += P.T @ P
    acc.lead_cross[c * len(acc.lead_cross) // acc.n_chunks] += (
        R[:, :L].T @ R[:, :L])
    acc.next_chunk = c + 1


@dataclass
class MCRunResult:
    """Finalized statistics of a streaming run."""

    config: MCConfig
    delta: np.ndarray                       # per-position mean raw spacing
    estimate: MCEstimate
    cov: np.ndarray                         # unfolded spacing covariances
    _lead_cross: np.ndarray = field(repr=False, default=None)

    def second_difference(self, k: int):
        """(value, half_width) of (var l_{k+1} - 2 var l_k + var l_{k-1})/2.

        Half-width at 99% from batch means over the run's chunk batches.
        """
        L = self._lead_cross.shape[1]
        if not (2 <= k <= L - 2):
            raise ValueError("k out of range for the stored leading window")
        est = aggregate(self._chunk_second_diffs(k))
        return float(est.values[0]), float(est.half_widths[0])

    def _chunk_second_diffs(self, k: int) -> np.ndarray:
        """The second difference of each batch of chunks."""
        M, size = self.config.M, self.config.chunk_size
        counts = np.diff([*range(0, M, size), M])   # the last may be short
        batch = np.arange(counts.size) * len(self._lead_cross) // counts.size
        counts = np.bincount(batch, weights=counts)
        d = self.delta[:self._lead_cross.shape[1]]
        C = (self._lead_cross / counts[:, None, None]
             / np.outer(d, d) - 1.0)
        return 0.5 * (C[:, :k + 1, :k + 1].sum(axis=(1, 2))
                      - 2.0 * C[:, :k, :k].sum(axis=(1, 2))
                      + C[:, :k - 1, :k - 1].sum(axis=(1, 2)))


def run(config: MCConfig, checkpoint_path=None, resume: bool = False,
        threads: int = 1, checkpoint_every: int = 50) -> MCRunResult:
    """Execute (or resume) a full streaming Monte Carlo run."""
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    if resume and not checkpoint_path:
        raise CheckpointMismatch("no checkpoint to resume from")
    acc = (_load_checkpoint(checkpoint_path, config) if resume
           else _Accumulators.fresh(config))
    children = np.random.SeedSequence(config.seed).spawn(config.n_chunks)
    todo = range(acc.next_chunk, config.n_chunks)
    # fold in index order: thread-count invariant.  A checkpoint is written
    # every checkpoint_every chunks and after the last, each state once
    for c, R in _chunk_results(config, todo, children, threads):
        _fold(acc, c, R)
        del R               # free it before the next chunk is computed
        if checkpoint_path and ((c + 1) % checkpoint_every == 0
                                or c + 1 == config.n_chunks):
            _save_checkpoint(checkpoint_path, config, acc)
    return _finalize(config, acc)


def _chunk_results(config: MCConfig, todo, children, threads: int):
    """(c, R) for every chunk c in todo, R its raw spacings, in index order.

    One thread samples each chunk in the caller's thread.  More threads
    share a pool that holds at most 2 x threads chunks submitted and not
    yet folded, so at most 2 x threads spacing arrays of (chunk_size, N - 1)
    are in flight and memory does not grow with M.
    """
    if threads <= 1:
        for c in todo:
            yield c, _chunk_partials(config, c, children[c])
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as ex:
        submit = (ex.submit(_chunk_partials, config, c, children[c])
                  for c in todo)
        pending = deque(islice(submit, 2 * threads))
        for c in todo:
            yield c, pending.popleft().result()
            pending.extend(islice(submit, 1))


def _finalize(config: MCConfig, acc: _Accumulators) -> MCRunResult:
    N, M = config.N, config.M
    delta = acc.sum_s / M
    cov = acc.cross / M / np.outer(delta, delta) - 1.0
    values = np.empty(config.k_max + 1)
    stds = np.empty(config.k_max + 1)
    for k in range(config.k_max + 1):
        n_k = N - 1 - k
        # weights of the running energy average in terms of raw products
        c_k = 1.0 / (n_k * delta[:n_k] * delta[k:N - 1])
        raw_diag = np.diagonal(acc.cross, k)
        mean_x = float(c_k @ raw_diag) / M          # mean of s_l s_{l+k} avg
        second = float(c_k @ acc.prod_sq[k] @ c_k) / M
        values[k] = mean_x - 1.0
        var = max((second - mean_x ** 2) * M / (M - 1), 0.0)
        stds[k] = np.sqrt(var)
    half = C_99 * stds / np.sqrt(M)
    est = MCEstimate(values, stds, half, N, M, config.seed)
    return MCRunResult(config, delta, est, cov, acc.lead_cross)


# the code that fills the checkpoint's sums, as it was imported
_SOURCE_DIGEST = store.digest((__file__,))


def _checkpoint_key(config: MCConfig) -> dict:
    return store.key(config, _SOURCE_DIGEST, ["montecarlo"],
                     scipy=scipy.__version__)


def _save_checkpoint(path, config: MCConfig, acc: _Accumulators):
    store.save(path, _checkpoint_key(config), {
        "sum_s": acc.sum_s, "cross": acc.cross, "lead_cross": acc.lead_cross,
        "next_chunk": acc.next_chunk,
        **{f"prod_sq_{k}": m for k, m in enumerate(acc.prod_sq)}})


def _load_checkpoint(path, config: MCConfig) -> _Accumulators:
    names = ["sum_s", "cross", "lead_cross", "next_chunk",
             *(f"prod_sq_{k}" for k in range(config.k_max + 1))]
    sum_s, cross, lead_cross, done, *prod_sq = store.load(
        path, _checkpoint_key(config), names)
    return _Accumulators(sum_s, cross, prod_sq, lead_cross, config.n_chunks,
                         int(done))


@dataclass
class FiniteNSpectra:
    """Empirical finite-n spacing and eigenlevel power spectra."""

    n: int
    omegas: np.ndarray
    s_sp: np.ndarray
    s_eig: np.ndarray
    s_sp0: float
    r_n: np.ndarray


def finite_n_power_spectra(cov: np.ndarray, n: int, omegas) -> FiniteNSpectra:
    """Finite-n power spectra from an empirical spacing covariance matrix.

    s_sp(omega) = (1/n) sum_{l,m} cov(s_l, s_m) z^{l-m} and the analogous
    eigenlevel spectrum with cov(lambda_l, lambda_m) = partial sums of cov.
    The exact finite-n link is
        s_eig = (s_sp + s_sp(0) - 2 r_n / n) / (4 sin^2(omega/2)),
    with r_n = Re sum_{l,m} cov(s_l, s_m) z^{l - n - 1} (1-based l).
    """
    if n < 16:
        raise ValueError("n too small for a meaningful spectrum (need >= 16)")
    if n > cov.shape[0]:
        raise ValueError("n exceeds the covariance matrix size")
    C = np.asarray(cov, dtype=float)[:n, :n]
    covlam = np.cumsum(np.cumsum(C, axis=0), axis=1)
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    s_sp = np.empty(omegas.shape)
    s_eig = np.empty(omegas.shape)
    r_n = np.empty(omegas.shape)
    rowsum = C.sum(axis=1)
    for i, w in enumerate(omegas):
        z = np.exp(1j * w)
        v = z ** np.arange(n)
        s_sp[i] = np.real(np.conj(v) @ C @ v) / n
        s_eig[i] = np.real(np.conj(v) @ covlam @ v) / n
        r_n[i] = np.real(np.sum(rowsum * z ** (np.arange(1, n + 1) - (n + 1))))
    return FiniteNSpectra(n, omegas, s_sp, s_eig, float(C.sum()) / n, r_n)
