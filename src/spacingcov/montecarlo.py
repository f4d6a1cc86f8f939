"""Monte Carlo auto-covariances of CUE level spacings.

Pipeline (mirrors the reference numerical procedure): draw M independent
CUE(N) spectra, form the N-1 consecutive eigenangle spacings per sample,
unfold each position by its ensemble-mean spacing Delta_l, average the
lagged products within each sample (running energy average) and then over
samples, and attach 99% confidence intervals from the sample variance.

The run is streamed in deterministic chunks: each chunk keeps only fixed
sums (spacing first moments, the full spacing cross-moment matrix, and
per-lag product second moments), from which the exact two-pass statistics
-- including Delta_l from all M samples -- are reconstructed at the end.
Chunk RNG streams are spawned from one seed, so results are bit-identical
for a given config regardless of thread count, and a checkpoint of the
partial sums makes runs resumable.

Samplers: dense QR of a complex Ginibre matrix with the phase correction
(exact Haar), and a pentadiagonal CMV-matrix route whose banded
eigensolves are an order of magnitude faster at N = 256.  Eigenangles of
the CMV matrix C are decoded from two Hermitian banded problems: the
spectra of C + C^H and of C + C^H + eps (C - C^H)/i give 2 cos(theta) and
2 cos(theta) + 2 eps sin(theta) on matching (sorted) positions, since the
two matrices commute.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field
from itertools import islice

import numpy as np
from scipy.linalg import eig_banded
from scipy.stats import norm

TWO_PI = 2.0 * np.pi
C_99 = 2.5758                      # 99% two-sided normal quantile
_DECODE_EPS = 1e-5


class CheckpointMismatch(RuntimeError):
    """Checkpoint file does not match the requested configuration."""


@dataclass(frozen=True)
class MCConfig:
    N: int = 256
    M: int = 100_000
    seed: int = 1
    k_max: int = 12
    sampler: str = "sparse_cmv"    # or "qr_haar"
    chunk_size: int = 500
    lead: int = 66                 # leading window kept chunk-wise for level stats

    def __post_init__(self):
        if self.N < 4:
            raise ValueError("N must be >= 4")
        if self.M < 2:
            raise ValueError("M must be >= 2")
        if not (1 <= self.k_max <= self.N - 2):
            raise ValueError("k_max must lie in [1, N - 2]")
        if self.sampler not in ("qr_haar", "sparse_cmv"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")

    @property
    def n_chunks(self) -> int:
        return -(-self.M // self.chunk_size)

    def chunk_bounds(self, c: int):
        lo = c * self.chunk_size
        return lo, min(lo + self.chunk_size, self.M)

    def key(self) -> str:
        return json.dumps({"N": self.N, "M": self.M, "seed": self.seed,
                           "k_max": self.k_max, "sampler": self.sampler,
                           "chunk_size": self.chunk_size, "lead": self.lead})


# ---------------------------------------------------------------------------
# samplers

def _sample_qr_haar(N: int, rng) -> np.ndarray:
    Z = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    Q = Q * (d / np.abs(d))
    return np.sort(np.mod(np.angle(np.linalg.eigvals(Q)), TWO_PI))


def _cmv_matrix(N: int, rng) -> np.ndarray:
    """Pentadiagonal CMV matrix of a Haar unitary, from Verblunsky
    coefficients alpha_k with |alpha_k|^2 ~ Beta(1, N - 1 - k)."""
    k = np.arange(N - 1)
    radii = np.sqrt(rng.beta(np.ones(N - 1), (N - 1 - k).astype(float)))
    phases = np.exp(1j * TWO_PI * rng.random(N))
    alpha = np.empty(N, dtype=complex)
    alpha[:-1] = radii * phases[:-1]
    alpha[-1] = phases[-1]
    rho = np.sqrt(np.clip(1.0 - np.abs(alpha) ** 2, 0.0, None))

    def theta_block(j):
        return np.array([[np.conj(alpha[j]), rho[j]],
                         [rho[j], -alpha[j]]])

    L = np.zeros((N, N), dtype=complex)
    Mm = np.zeros((N, N), dtype=complex)
    j = 0
    while j < N:                   # L carries even-index blocks
        if j == N - 1:
            L[j, j] = np.conj(alpha[j])
        else:
            L[j:j + 2, j:j + 2] = theta_block(j)
        j += 2
    Mm[0, 0] = 1.0
    j = 1
    while j < N:                   # M carries odd-index blocks
        if j == N - 1:
            Mm[j, j] = np.conj(alpha[j])
        else:
            Mm[j:j + 2, j:j + 2] = theta_block(j)
        j += 2
    return L @ Mm


def _upper_bands(A: np.ndarray, bw: int) -> np.ndarray:
    n = A.shape[0]
    ab = np.zeros((bw + 1, n), dtype=complex)
    for d in range(bw + 1):
        ab[bw - d, d:] = np.diagonal(A, d)
    return ab


def _sample_sparse_cmv(N: int, rng) -> np.ndarray:
    C = _cmv_matrix(N, rng)
    K = C + C.conj().T
    B = (C - C.conj().T) / 1j
    a = eig_banded(_upper_bands(K, 2), lower=False, eigvals_only=True)
    b = eig_banded(_upper_bands(K + _DECODE_EPS * B, 2), lower=False,
                   eigvals_only=True)
    sin_t = (b - a) / (2.0 * _DECODE_EPS)
    theta = np.mod(np.arctan2(sin_t, 0.5 * a), TWO_PI)
    return np.sort(theta)


_SAMPLERS = {"qr_haar": _sample_qr_haar, "sparse_cmv": _sample_sparse_cmv}


def sample_cue_eigenangles(N: int, rng, sampler: str = "qr_haar") -> np.ndarray:
    """One sorted CUE(N) eigenangle sample in [0, 2 pi)."""
    if N < 2:
        raise ValueError("N must be >= 2")
    return _SAMPLERS[sampler](N, rng)


# ---------------------------------------------------------------------------
# in-memory ensembles

@dataclass
class CueBatch:
    """A batch of spectra: angles, raw spacings, optionally unfolded ones."""

    eigenangles: np.ndarray                 # (M_b, N), sorted rows
    raw_spacings: np.ndarray                # (M_b, N - 1)
    unfolded_spacings: np.ndarray | None = None

    @classmethod
    def generate(cls, N: int, M: int, rng, sampler: str = "qr_haar"):
        ang = np.array([sample_cue_eigenangles(N, rng, sampler)
                        for _ in range(M)])
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


def running_autocov(sample: np.ndarray, k: int) -> float:
    """Energy average (1/(n-k)) sum_l (s_l s_{l+k} - 1) over one sample."""
    s = np.asarray(sample, dtype=float)
    n = s.size
    if not (0 <= k <= n - 1):
        raise ValueError(f"lag {k} out of range for {n} spacings")
    return float(np.mean(s[:n - k] * s[k:]) - 1.0)


@dataclass
class MCEstimate:
    """Sample-averaged lagged covariances with 99% half-widths."""

    values: np.ndarray
    sample_std: np.ndarray
    half_widths: np.ndarray
    N: int
    M: int
    seed: int | None = None
    confidence: float = 0.99

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("k,mean,std,half_width,N,M,seed\n")
            seed = "" if self.seed is None else str(self.seed)
            for k, (v, s, h) in enumerate(
                    zip(self.values, self.sample_std, self.half_widths)):
                fh.write(f"{k},{v:.17g},{s:.17g},{h:.17g},"
                         f"{self.N},{self.M},{seed}\n")


def confidence_factor(confidence: float = 0.99) -> float:
    if confidence == 0.99:
        return C_99
    return float(norm.ppf(0.5 + 0.5 * confidence))


def aggregate(per_sample, confidence: float = 0.99, N: int = 0,
              seed: int | None = None) -> MCEstimate:
    """Mean, unbiased std, and c * std / sqrt(M) half-widths over samples.

    ``per_sample`` is (M,) or (M, K+1); rows are independent samples.
    """
    x = np.atleast_2d(np.asarray(per_sample, dtype=float))
    if x.shape[0] == 1 and x.ndim == 2 and np.asarray(per_sample).ndim == 1:
        x = x.T
    M = x.shape[0]
    if M < 2:
        raise ValueError("need at least 2 samples")
    mean = x.mean(axis=0)
    std = x.std(axis=0, ddof=1)
    half = confidence_factor(confidence) * std / np.sqrt(M)
    return MCEstimate(mean, std, half, N, M, seed, confidence)


# ---------------------------------------------------------------------------
# streaming run

@dataclass
class _Accumulators:
    sum_s: np.ndarray                       # (N-1,)
    cross: np.ndarray                       # (N-1, N-1): sum of outer(s, s)
    prod_sq: list                           # per k: (n_k, n_k) fourth moments
    chunk_lead_sum: np.ndarray              # (n_chunks, L)
    chunk_lead_cross: np.ndarray            # (n_chunks, L, L)
    next_chunk: int = 0

    @classmethod
    def fresh(cls, config: MCConfig):
        n = config.N - 1
        L = min(config.lead, n)
        return cls(
            np.zeros(n), np.zeros((n, n)),
            [np.zeros((n - k, n - k)) for k in range(config.k_max + 1)],
            np.zeros((config.n_chunks, L)),
            np.zeros((config.n_chunks, L, L)))


def _chunk_partials(config: MCConfig, c: int, child_seed):
    rng = np.random.Generator(np.random.Philox(child_seed))
    lo, hi = config.chunk_bounds(c)
    sampler = _SAMPLERS[config.sampler]
    R = np.empty((hi - lo, config.N - 1))
    for i in range(hi - lo):
        R[i] = np.diff(sampler(config.N, rng))
    L = min(config.lead, config.N - 1)
    prod_sq = []
    for k in range(config.k_max + 1):
        n_k = config.N - 1 - k
        P = R[:, :n_k] * R[:, k:]
        prod_sq.append(P.T @ P)
    return (R.sum(axis=0), R.T @ R, prod_sq,
            R[:, :L].sum(axis=0), R[:, :L].T @ R[:, :L])


def _fold(acc: _Accumulators, c: int, partials):
    sum_s, cross, prod_sq, lead_sum, lead_cross = partials
    acc.sum_s += sum_s
    acc.cross += cross
    for k, m in enumerate(prod_sq):
        acc.prod_sq[k] += m
    acc.chunk_lead_sum[c] = lead_sum
    acc.chunk_lead_cross[c] = lead_cross
    acc.next_chunk = c + 1


@dataclass
class MCRunResult:
    """Finalized statistics of a streaming run."""

    config: MCConfig
    delta: np.ndarray                       # per-position mean raw spacing
    estimate: MCEstimate
    cov: np.ndarray                         # unfolded spacing covariances
    _chunk_lead_sum: np.ndarray = field(repr=False, default=None)
    _chunk_lead_cross: np.ndarray = field(repr=False, default=None)

    def var_lambda(self, k: int) -> float:
        """Variance of the k-th unfolded cumulative level lambda_k."""
        if not (1 <= k <= self.cov.shape[0]):
            raise ValueError("k out of range")
        return float(self.cov[:k, :k].sum())

    def second_difference(self, k: int):
        """(value, half_width) of (var l_{k+1} - 2 var l_k + var l_{k-1})/2.

        Half-width at 99% from batch means over the run's chunks.
        """
        L = self._chunk_lead_sum.shape[1]
        if not (2 <= k <= L - 2):
            raise ValueError("k out of range for the stored leading window")
        per_chunk = self._chunk_second_diffs(k)
        est = aggregate(per_chunk)
        return float(est.values[0]), float(est.half_widths[0])

    def _chunk_second_diffs(self, k: int) -> np.ndarray:
        B = self.config.chunk_size
        d = self.delta[:self._chunk_lead_sum.shape[1]]
        scale = np.outer(d, d)
        out = np.empty(self._chunk_lead_cross.shape[0])
        for c in range(out.size):
            C = self._chunk_lead_cross[c] / B / scale - 1.0
            out[c] = 0.5 * (C[:k + 1, :k + 1].sum() - 2.0 * C[:k, :k].sum()
                            + C[:k - 1, :k - 1].sum())
        return out


def run(config: MCConfig, checkpoint_path=None, resume: bool = False,
        threads: int = 1, checkpoint_every: int = 50) -> MCRunResult:
    """Execute (or resume) a full streaming Monte Carlo run."""
    acc = None
    if resume:
        if not (checkpoint_path and os.path.exists(checkpoint_path)):
            raise CheckpointMismatch("no checkpoint to resume from")
        acc = _load_checkpoint(checkpoint_path, config)
    if acc is None:
        acc = _Accumulators.fresh(config)
    children = np.random.SeedSequence(config.seed).spawn(config.n_chunks)
    todo = range(acc.next_chunk, config.n_chunks)
    # fold in index order: thread-count invariant
    for c, partials in _chunk_results(config, todo, children, threads):
        _fold(acc, c, partials)
        del partials        # free it before the next chunk is computed
        if checkpoint_path and (c + 1) % checkpoint_every == 0:
            _save_checkpoint(checkpoint_path, config, acc)
    if checkpoint_path:
        _save_checkpoint(checkpoint_path, config, acc)
    return _finalize(config, acc)


def _chunk_results(config: MCConfig, todo, children, threads: int):
    """(c, partials) for every chunk c in todo, in index order.

    One thread computes each chunk in the caller's thread.  More threads
    share a pool that holds at most 2 x threads chunks submitted and not
    yet folded, so memory does not grow with M.
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
    return MCRunResult(config, delta, est, cov,
                       acc.chunk_lead_sum, acc.chunk_lead_cross)


_CKPT_VERSION = 1


def _save_checkpoint(path, config: MCConfig, acc: _Accumulators):
    payload = {"version": _CKPT_VERSION, "config": config.key(),
               "next_chunk": acc.next_chunk, "sum_s": acc.sum_s,
               "cross": acc.cross, "chunk_lead_sum": acc.chunk_lead_sum,
               "chunk_lead_cross": acc.chunk_lead_cross}
    for k, m in enumerate(acc.prod_sq):
        payload[f"prod_sq_{k}"] = m
    tmp = str(path) + ".tmp"
    np.savez(tmp, **payload)
    os.replace(tmp + ".npz" if not tmp.endswith(".npz") else tmp, path)


def _load_checkpoint(path, config: MCConfig) -> _Accumulators:
    data = np.load(path, allow_pickle=False)
    if int(data["version"]) != _CKPT_VERSION:
        raise CheckpointMismatch("unsupported checkpoint version")
    if str(data["config"]) != config.key():
        raise CheckpointMismatch(
            "checkpoint was produced by a different configuration")
    return _Accumulators(
        data["sum_s"].copy(), data["cross"].copy(),
        [data[f"prod_sq_{k}"].copy() for k in range(config.k_max + 1)],
        data["chunk_lead_sum"].copy(), data["chunk_lead_cross"].copy(),
        int(data["next_chunk"]))


# ---------------------------------------------------------------------------
# level statistics on ensembles

def ordered_level_variance(unfolded_spacings: np.ndarray, k: int):
    """(var(lambda_k), second difference) across an in-memory ensemble."""
    s = np.asarray(unfolded_spacings, dtype=float)
    if not (1 <= k <= s.shape[1] - 1):
        raise ValueError("k out of range")
    lam = np.cumsum(s, axis=1)
    v = lam.var(axis=0, ddof=1)
    second = (0.5 * (v[k] - 2.0 * v[k - 1] + v[k - 2]) if k >= 2 else np.nan)
    return float(v[k - 1]), float(second)


def number_variance(levels: np.ndarray, L: float) -> float:
    """Variance of the level count in windows of length L (pooled over
    non-overlapping bulk windows and samples)."""
    lam = np.asarray(levels, dtype=float)
    span = lam.shape[1]
    if not (0 < L <= span / 4):
        raise ValueError("L out of range (must be <= span/4)")
    starts = np.arange(L, span - 2 * L, L)
    if starts.size == 0:
        raise ValueError("no complete windows for this L")
    counts = []
    for row in lam:
        left = np.searchsorted(row, starts)
        right = np.searchsorted(row, starts + L)
        counts.append(right - left)
    counts = np.concatenate(counts).astype(float)
    return float(counts.var())


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
