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
``store`` file keyed by the config, the code and constants of this module
and of ``cmv`` and the numpy version, makes runs resumable.

Samples come from ``cmv.sample``, the Killip-Nenciu CMV model, exact Haar.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import cmv, store

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


# a table of one, read at call time: perfbench/tracing.py wraps its entries
_SAMPLERS = {"sparse_cmv": cmv.sample}


def sample_cue_eigenangles(N: int, rng) -> np.ndarray:
    """One sorted CUE(N) eigenangle sample in [0, 2 pi)."""
    return cmv.sample(N, 1, rng)[0]


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
        ang = cmv.sample(N, M, rng)
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
    if threads < 1:
        raise ValueError("threads must be >= 1")
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


# the modules whose code fills the checkpoint's sums; it is keyed by their
# code as it was imported and by their constants as they are
_PRODUCERS = ("montecarlo", "cmv")
_SOURCES = tuple(os.path.join(os.path.dirname(__file__), f"{name}.py")
                 for name in _PRODUCERS)
_SOURCE_DIGEST = store.digest(_SOURCES)


def _checkpoint_key(config: MCConfig) -> dict:
    return store.key(config, _SOURCE_DIGEST, _PRODUCERS)


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
