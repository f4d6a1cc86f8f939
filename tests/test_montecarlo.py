import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from spacingcov import cmv
from spacingcov import montecarlo as mc
from spacingcov import store
from spacingcov.montecarlo import (CheckpointMismatch, CueBatch, MCConfig,
                                   aggregate, finite_n_power_spectra,
                                   sample_cue_eigenangles, unfold)

TWO_PI = 2.0 * np.pi


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def running_autocov(sample: np.ndarray, k: int) -> float:
    """Energy average (1/(n-k)) sum_l (s_l s_{l+k} - 1) over one sample:
    the per-sample statistic that a streaming run reconstructs from its
    sums."""
    s = np.asarray(sample, dtype=float)
    n = s.size
    if not (0 <= k <= n - 1):
        raise ValueError(f"lag {k} out of range for {n} spacings")
    return float(np.mean(s[:n - k] * s[k:]) - 1.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MCConfig(N=3)
        with pytest.raises(ValueError):
            MCConfig(M=1)
        with pytest.raises(ValueError):
            MCConfig(N=16, k_max=15)
        with pytest.raises(ValueError):
            MCConfig(sampler="dense")
        with pytest.raises(ValueError):
            MCConfig(sampler="qr_haar")         # the deleted dense sampler


class TestSampling:
    def test_sorted_in_range(self):
        ang = sample_cue_eigenangles(24, _rng(1))
        assert ang.shape == (24,)
        assert np.all(np.diff(ang) >= 0)
        assert ang[0] >= 0 and ang[-1] < TWO_PI

    def test_samplers_agree_in_distribution(self):
        # mid-position mean raw spacing = 2 pi / N
        N, M = 16, 3000
        batch = CueBatch.generate(N, M, _rng(2))
        mid = batch.raw_spacings[:, N // 2].mean()
        assert mid == pytest.approx(TWO_PI / N, rel=0.05)

    def test_n2_gap_density(self):
        # first linear spacing of CUE(2): circular-gap density sin^2(g/2)/pi
        # times the chance (2pi - g)/(2pi) that angle 0 cuts the other arc,
        # twice (either circular gap can land as the sorted difference)
        gaps = np.array([np.diff(sample_cue_eigenangles(2, r))[0]
                         for r in (_rng(s) for s in range(4000))])
        hist, edges = np.histogram(gaps, bins=8, range=(0, TWO_PI),
                                   density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        expect = np.sin(centers / 2) ** 2 * (TWO_PI - centers) / np.pi ** 2
        assert np.max(np.abs(hist - expect)) < 0.05

    def test_spacing_histogram_matches_density(self):
        from spacingcov.spectral import spacing_distribution
        N, M = 64, 1500
        batch = CueBatch.generate(N, M, _rng(3))
        delta = batch.raw_spacings.mean(axis=0)
        u = unfold(batch, delta)
        s = u.unfolded_spacings[:, 16:48].ravel()
        hist, edges = np.histogram(s, bins=10, range=(0.0, 2.5), density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        expect = np.array([spacing_distribution(float(c)) for c in centers])
        # histogram mass is scaled by the fraction below 2.5
        frac = np.mean(s < 2.5)
        assert np.max(np.abs(hist * frac - expect)) < 0.06

    def test_spacing_sum_closes_circle(self):
        batch = CueBatch.generate(12, 5, _rng(4))
        wrap = TWO_PI - batch.eigenangles[:, -1] + batch.eigenangles[:, 0]
        total = batch.raw_spacings.sum(axis=1) + wrap
        assert np.allclose(total, TWO_PI, atol=1e-12)


class TestLawAtProductionN:
    """The sampler's law at N = 256 against exact CUE identities, with M,
    the seed and the bounds fixed before the draws were looked at.

    Diaconis-Shahshahani (J. Appl. Probab. 31A, 1994): for Haar U in U(N)
    and j, m <= N / 2, E|Tr U^m|^2 = m, E|Tr U^m|^4 = 2 m^2 and
    E|Tr U^j|^2 |Tr U^m|^2 = j m (j != m).  So over M samples
    z_m = (mean |Tr U^m|^2 - m) / (m / sqrt(M)), m = 1..128, are
    uncorrelated with unit variance.  And Haar measure is invariant under
    U -> e^{i phi} U, so the phase of det U, sum(theta) mod 2 pi, is
    uniform.
    """

    N, M, SEED = 256, 2000, 12345

    @pytest.fixture(scope="class")
    def angles(self):
        return CueBatch.generate(self.N, self.M, _rng(self.SEED)).eigenangles

    def test_trace_moments(self, angles):
        # chi^2 / dof of z_1..z_128 at most 1.43, the 99.9% point of
        # chi^2 with 128 degrees of freedom over 128
        z = np.exp(1j * angles)
        power = z.copy()
        m = np.arange(1, self.N // 2 + 1)
        mean_sq = np.empty(m.size)
        for i in range(m.size):             # power holds z^(i + 1)
            mean_sq[i] = np.mean(np.abs(power.sum(axis=1)) ** 2)
            power *= z
        score = (mean_sq - m) / (m / np.sqrt(self.M))
        assert np.mean(score ** 2) <= 1.43

    def test_det_phase_uniform(self, angles):
        # det C = +-conj(alpha_{N-1}): a sampler with a fixed last
        # Verblunsky coefficient puts every phase at 0 or pi
        from scipy.stats import kstest
        phase = np.mod(angles.sum(axis=1), TWO_PI) / TWO_PI
        assert kstest(phase, "uniform").pvalue > 1e-3


def _verblunsky(N, rng):
    # the sampler's draws, in its order: N - 1 Beta radii, then
    # N uniform phases
    k = np.arange(N - 1)
    radii = np.sqrt(rng.beta(np.ones(N - 1), (N - 1 - k).astype(float)))
    alpha = np.exp(1j * TWO_PI * rng.random(N))
    alpha[:-1] *= radii
    return alpha


def _dense_cmv(alpha):
    """C = L M with the 2 x 2 blocks [[conj(a_j), rho_j], [rho_j, -a_j]] on
    even j in L and odd j in M (1 x 1 conj(a_j) at j = N - 1, M[0, 0] = 1)."""
    N = alpha.size
    L = np.zeros((N, N), dtype=complex)
    M = np.zeros((N, N), dtype=complex)
    M[0, 0] = 1.0
    for j in range(N):
        F = L if j % 2 == 0 else M
        if j == N - 1:
            F[j, j] = np.conj(alpha[j])
        else:
            rho = np.sqrt(1.0 - abs(alpha[j]) ** 2)
            F[j:j + 2, j:j + 2] = [[np.conj(alpha[j]), rho],
                                   [rho, -alpha[j]]]
    return L @ M


def _cayley_angles(C):
    """Sorted eigenangles of the unitary C by its Cayley transform.

    U = e^{-i phi} C maps to the Hermitian H = i (I - U)(I + U)^{-1}, whose
    eigenvalue x = tan((theta - phi)/2) gives theta = phi + 2 arctan x: one
    solve and one eigvalsh, several times faster than eigvals at N = 256.
    C is five-diagonal (checked), so I + U is solved as a banded system.  An
    eigenvalue of U near -1 makes ||H|| large, and each x is off by about
    eps ||H||, so when phi = 0 gives |x| >= 1e4 a quarter turn is taken.
    H is checked, not made, Hermitian: a C that is not unitary fails.
    """
    assert not np.any(np.triu(C, 3)) and not np.any(np.tril(C, -3))
    I = np.eye(len(C))
    for phi in (0.0, 0.5 * np.pi):
        U = np.exp(-1j * phi) * C
        band = [np.pad(np.diagonal(I + U, k), (max(k, 0), max(-k, 0)))
                for k in (2, 1, 0, -1, -2)]
        H = 1j * solve_banded((2, 2), np.array(band), I - U)
        x = np.linalg.eigvalsh(H)
        if np.max(np.abs(x)) < 1e4:
            break
    assert np.max(np.abs(H - H.conj().T)) <= 1e-11 * np.max(np.abs(H))
    return np.sort(np.mod(phi + 2.0 * np.arctan(x), TWO_PI))


def _both_regimes(h, N):
    """The angles h (rows, n), cut or cycled along each row to a count whose
    product with the N // 2 + 1 frequencies is at most cmv._TABLE, where
    _trig_sums sums directly, and to one above it, where it takes Horner's
    scheme; one of the two is h itself."""
    rows, n = h.shape
    most = cmv._TABLE // (rows * (N // 2 + 1))
    return [h[:, np.arange(k) % n] for k in (min(n, most), max(n, most + 1))]


def _two_buffer_recursion(alpha):
    """The Szego recursion that carries Phi*_n in its own buffer,
    Phi*_{n+1} = Phi*_n - alpha_n z Phi_n, in the layout of
    cmv._paraorthogonal."""
    B, N = alpha.shape
    phi = np.zeros((N + 1, B), dtype=complex)
    star = np.zeros((N + 1, B), dtype=complex)
    phi[N] = star[0] = 1.0
    a = np.ascontiguousarray(alpha.T)
    for n in range(N):
        z_phi, s = phi[N - n - 1:], star[:n + 2]
        u, v = a[n].conj() * s, a[n] * z_phi
        z_phi -= u
        s -= v
    return phi


class TestSparseCMVDecoder:
    @pytest.mark.parametrize("N", [256, 255, 64, 17, 5, 4, 3, 2])
    def test_cayley_oracle_matches_eigvals(self, N):
        # the oracle against the general eigensolver, a tenth of the 1e-9
        # bound below, also for turned C, the last with an eigenvalue at -1;
        # a C off the unitary group fails
        for seed in range(4):
            C = _dense_cmv(_verblunsky(N, _rng(seed)))
            for turn in (1.0, -1.0, 1j, -1.0 / np.linalg.eigvals(C)[0]):
                ref = np.sort(np.mod(np.angle(np.linalg.eigvals(turn * C)),
                                     TWO_PI))
                err = np.angle(np.exp(1j * (_cayley_angles(turn * C) - ref)))
                assert np.max(np.abs(err)) < 1e-10
        with pytest.raises(AssertionError):
            _cayley_angles(C + 1e-6 * np.eye(N))

    @pytest.mark.parametrize("N, seeds", [(256, 500), (255, 50), (64, 200),
                                          (17, 200), (5, 200), (4, 200),
                                          (3, 200), (2, 200)])
    def test_matches_dense_eigenvalues(self, N, seeds):
        worst = 0.0
        for seed in range(seeds):
            C = _dense_cmv(_verblunsky(N, _rng(seed)))
            ref = _cayley_angles(C)
            got = sample_cue_eigenangles(N, _rng(seed))
            err = np.abs(np.angle(np.exp(1j * (got - ref))))   # on the circle
            worst = max(worst, err.max())
        assert worst < 1e-9

    @staticmethod
    def _block(N, count, seed):
        rng = _rng(seed)
        return np.array([_verblunsky(N, rng) for _ in range(count)])

    @pytest.mark.parametrize("N", [256, 24, 2])
    def test_block_matches_rows(self, N):
        alpha = self._block(N, 40, seed=N)
        block = cmv._decode(alpha)
        rows = np.array([cmv._decode(alpha[i:i + 1])[0]
                         for i in range(len(alpha))])
        assert block.shape == (40, N)
        assert np.max(np.abs(block - rows)) <= 1e-13

    @pytest.mark.parametrize("N", [256, 255, 24, 3])
    def test_angles_are_zeros_to_rounding(self, N):
        # each angle stops where the Taylor cubic of R has its zero and
        # differs from R by less than the rounding of R, so R at the angles
        # is at most N eps sum_f (|A_f| + |B_f|)
        alpha = self._block(N, 8, seed=21)
        theta = cmv._decode(alpha)
        f, A, B = cmv._real_form(alpha)
        R = cmv._trig_sums(f, A, B, theta)[0]
        scale = N * np.finfo(float).eps * (np.abs(A) + np.abs(B)).sum(axis=1)
        assert np.all(np.abs(R) <= scale[:, None])

    def test_coarse_grid_refines_every_sample(self, monkeypatch):
        # at two grid angles per zero no N = 256 sample brackets all its
        # zeros on the grid, so every one is decoded through _refine
        refined = []
        refine = cmv._refine
        monkeypatch.setattr(cmv, "GRID_PER_ZERO", 2)
        monkeypatch.setattr(cmv, "_refine",
                            lambda *args: refined.append(1) or refine(*args))
        N, seeds = 256, 6
        for seed in range(seeds):
            got = sample_cue_eigenangles(N, _rng(seed))
            ref = _cayley_angles(_dense_cmv(_verblunsky(N, _rng(seed))))
            assert np.max(np.abs(np.angle(np.exp(1j * (got - ref))))) < 1e-9
        assert len(refined) == seeds

    def test_step_out_of_its_bracket_is_not_taken(self):
        # in the 231st draw of this stream one cell's cubic start lies at
        # the cell's end, 5e-7 from the zero of the next cell: a step taken
        # there out of the bracket finds that zero twice and misses one
        # 2.2e-3 away
        rng = _rng(31)
        for _ in range(231):
            alpha = _verblunsky(256, rng)
        got = cmv._decode(alpha[None])[0]
        ref = _cayley_angles(_dense_cmv(alpha))
        assert np.max(np.abs(np.angle(np.exp(1j * (got - ref))))) < 1e-9

    def test_step_out_of_its_cell_is_not_taken(self):
        # the draw above, turned so that its zero 4.9e-7 from a grid angle
        # lies 1e-11 from it: the start of the cell on the other side of
        # that angle stays at its end, and its exact step, within its
        # bound, lands on this zero; taken, it would find it twice and miss
        # one 2.2e-3 away.  Turning alpha_k by e^{-i (k + 1) phi} turns
        # every eigenangle by phi
        rng = _rng(31)
        for _ in range(231):
            alpha = _verblunsky(256, rng)
        K = cmv.GRID_PER_ZERO * 256
        zeros = _cayley_angles(_dense_cmv(alpha))
        gap = TWO_PI * np.round(zeros * K / TWO_PI) / K - zeros
        near = gap[np.argmin(np.abs(gap))]
        phi = near - np.sign(near) * 1e-11
        alpha = alpha * np.exp(-1j * np.arange(1, 257) * phi)
        got = cmv._decode(alpha[None])[0]
        ref = _cayley_angles(_dense_cmv(alpha))
        assert np.max(np.abs(np.angle(np.exp(1j * (got - ref))))) < 1e-9

    def test_unconverged_newton_raises(self, monkeypatch):
        # started at the middle of their cells, the zeros' steps are not
        # taken, and one pass of _newton does not end them, so a decoder
        # held to one pass returns no angles
        start = cmv._start

        def middle(*ends):
            out = start(*ends)
            out[3] = 0.5 * (out[0] + out[1])
            return out

        monkeypatch.setattr(cmv, "_start", middle)
        monkeypatch.setattr(cmv, "_NEWTON_STEPS", 1)
        with pytest.raises(cmv.DecodeError, match="Newton"):
            sample_cue_eigenangles(256, _rng(0))

    def test_few_zeros_reach_newton(self, monkeypatch):
        # from the degree-7 Hermite starts one exact value of R ends all
        # but a few zeros: at most 1% of those of 320 samples at N = 256
        # reach the fallback
        sent = []
        newton = cmv._newton
        monkeypatch.setattr(cmv, "_newton",
                            lambda *args: sent.append(args[3].size)
                            or newton(*args))
        cmv.sample(256, 320, _rng(51))
        assert sum(sent) <= 0.01 * 320 * 256

    def test_every_zero_through_newton_matches_dense(self, monkeypatch):
        # with a bound that takes no step, _newton ends every zero from its
        # start, and the angles still match the dense oracle
        sent = []
        newton = cmv._newton
        monkeypatch.setattr(cmv, "_step_bound",
                            lambda N, lo, *rest: np.full(lo.shape, np.inf))
        monkeypatch.setattr(cmv, "_newton",
                            lambda *args: sent.append(args[3].size)
                            or newton(*args))
        N, seeds = 256, 6
        for seed in range(seeds):
            got = sample_cue_eigenangles(N, _rng(seed))
            ref = _cayley_angles(_dense_cmv(_verblunsky(N, _rng(seed))))
            assert np.max(np.abs(np.angle(np.exp(1j * (got - ref))))) < 1e-9
        assert sum(sent) == N * seeds

    def test_cell_ends_carry_four_derivatives(self, monkeypatch):
        # at two grid angles per zero every N = 256 row is cut by _refine;
        # every cell end, on the grid or cut, carries R + i R' and
        # R'' + i R''' at its angle, as _trig_sums gives them, within
        # 1e-9 (N/2)^m sum_f (|A_f| + |B_f|) for R^(m)
        monkeypatch.setattr(cmv, "GRID_PER_ZERO", 2)
        alpha = self._block(256, 4, seed=52)
        f, A, B = cmv._real_form(alpha)
        lo, hi, P0, P1, Q0, Q1 = cmv._brackets(f, A, B)
        weight = (np.abs(A) + np.abs(B)).sum(axis=1)[:, None]
        for x, P, Q in ((lo, P0, Q0), (hi, P1, Q1)):
            want = cmv._trig_sums(f, A, B, x)
            for m, v in enumerate((P.real, P.imag, Q.real, Q.imag)):
                assert np.all(np.abs(v - want[m])
                              <= 1e-9 * 128.0 ** m * weight)

    def test_ragged_sets_summed_by_their_own_size(self, monkeypatch):
        # angles over rows of unequal counts take the regime of their own
        # number, never of the padded count, with the bits of each row's
        # own sum: 24 angles over 11 rows at N = 256 are summed term by
        # term, 64 by Horner's scheme
        alpha = self._block(256, 11, seed=53)
        f, A, B = cmv._real_form(alpha)
        horner = []
        run = cmv._horner_sums
        monkeypatch.setattr(cmv, "_horner_sums",
                            lambda *args: horner.append(1) or run(*args))
        rng = _rng(54)
        for n, regime in ((24, cmv._power_sums), (64, run)):
            row = np.sort(rng.integers(0, 11, n))
            theta = rng.uniform(0.0, TWO_PI, n)
            counts = np.bincount(row)
            padded = counts.max() * np.count_nonzero(counts) * f.size
            assert padded > cmv._TABLE
            got = cmv._values(f, A, B, row, theta)
            assert len(horner) == (n * f.size > cmv._TABLE)
            for r in np.unique(row):
                alone = regime(f, A[[r]], B[[r]], theta[None, row == r])
                assert np.array_equal(got[:, row == r], alone[:, 0])

    @pytest.mark.parametrize("N", [17, 24])
    def test_coefficients_match_characteristic_polynomial(self, N):
        # P = det(z - C) from the dense eigenvalues: their product at the
        # (N + 1)-th roots of unity, interpolated by an FFT.  np.poly's
        # expansion of the same eigenvalues is itself off by up to 1.2e-11
        # at N = 24 (against a 40-digit one), this form by 3e-14
        alpha = self._block(N, 6, seed=11)
        P = cmv._paraorthogonal(alpha)
        assert P.shape == (N + 1, 6)
        z = np.exp(2j * np.pi * np.arange(N + 1) / (N + 1))
        for a, p in zip(alpha, P.T):
            lam = np.linalg.eigvals(_dense_cmv(a))
            ref = np.fft.fft(np.prod(z[:, None] - lam, axis=1)) / (N + 1)
            assert np.max(np.abs(p - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("N", [256, 255, 24, 17, 3])
    def test_real_form_is_real(self, N):
        # R = mu e^{-i N theta / 2} P(e^{i theta}) summed in complex from
        # the coefficients is real, and its real part is the R of
        # _trig_sums in either regime, at theta of either sign.  A random
        # theta can fall near a zero of R, where |R| is near the rounding
        # of its terms, so both are measured against the row's largest |R|
        alpha = self._block(N, 4, seed=12)
        h = _rng(13).uniform(0.0, np.pi, (4, 16))
        mu = np.sqrt(-alpha[:, -1:])
        for theta in [s * x for x in _both_regimes(h, N) for s in (1, -1)]:
            R_real = cmv._trig_sums(*cmv._real_form(alpha), theta)[0]
            powers = np.exp(1j * np.arange(N + 1) * theta[..., None])
            R = (mu * np.exp(-0.5j * N * theta)
                 * np.einsum("bjk,kb->bj", powers, cmv._paraorthogonal(alpha)))
            scale = np.max(np.abs(R), axis=1, keepdims=True)
            assert np.all(np.abs(R.imag) <= 1e-12 * scale)
            assert np.max(np.abs(R.real - R_real) / scale) <= 1e-12

    @pytest.mark.parametrize("N", [256, 24, 17])
    def test_slope_matches_finite_difference(self, N):
        # R', R'' and R''' against a Richardson-extrapolated central
        # difference of the derivative below, in either regime of
        # _trig_sums, at theta of either sign, with the step scaled to the
        # frequencies
        alpha = self._block(N, 8, seed=5)
        f, A, B = cmv._real_form(alpha)
        h = _rng(6).uniform(0.2, np.pi - 0.2, (8, 16))
        step = 0.02 / N
        for theta in [s * x for x in _both_regimes(h, N) for s in (1, -1)]:
            got = cmv._trig_sums(f, A, B, theta)
            central = [(cmv._trig_sums(f, A, B, theta + d)
                        - cmv._trig_sums(f, A, B, theta - d)) / (2.0 * d)
                       for d in (0.5 * step, step)]
            want = (4.0 * central[0] - central[1]) / 3.0
            for m in (1, 2, 3):
                scale = np.max(np.abs(got[m]), axis=1, keepdims=True)
                assert np.max(np.abs(got[m] - want[m - 1]) / scale) < 1e-6

    @pytest.mark.parametrize("N", [256, 255, 17, 3])
    def test_trig_sum_regimes_agree_with_an_oracle(self, N):
        # on the same angles the direct sum and Horner's scheme agree with
        # each other and with sum_f A_f cos(f h) + B_f sin(f h) and its
        # derivatives summed term by term in float64, each within
        # 8 (N/2)^m F eps sum_f (|A_f| + |B_f|) for R^(m), F frequencies;
        # odd N has half-integer f
        alpha = self._block(N, 3, seed=41)
        f, A, B = cmv._real_form(alpha)
        theta = _rng(42).uniform(-np.pi, np.pi, (3, 40))
        direct = cmv._power_sums(f, A, B, theta)
        horner = cmv._horner_sums(f, A, B, theta)
        fh = f * theta[..., None]
        a, b = A[:, None], B[:, None]
        even = a * np.cos(fh) + b * np.sin(fh)
        odd = b * np.cos(fh) - a * np.sin(fh)
        oracle = [even.sum(-1), (f * odd).sum(-1), -(f ** 2 * even).sum(-1),
                  -(f ** 3 * odd).sum(-1)]
        weight = (np.abs(A) + np.abs(B)).sum(axis=1)[:, None]
        eps = np.finfo(float).eps
        for m in range(4):
            bound = 8.0 * (0.5 * N) ** m * f.size * eps * weight
            for got, want in ((direct, horner), (direct, oracle),
                              (horner, oracle)):
                assert np.all(np.abs(got[m] - want[m]) <= bound)

    @pytest.mark.parametrize("N", [256, 255, 17, 4])
    def test_horner_value_is_horner_for_r_alone(self, N):
        # the value of the four-accumulator pass, and of the pass at
        # order 0, has the bits of Horner's scheme for R alone
        alpha = self._block(N, 3, seed=43)
        f, A, B = cmv._real_form(alpha)
        theta = _rng(44).uniform(-np.pi, np.pi, (3, 40))
        z, q = np.exp(1j * theta), np.zeros(theta.shape, dtype=complex)
        for c in (A - 1j * B).T[::-1, :, None]:
            q = q * z + c
        R = (q * np.exp(1j * f[0] * theta)).real
        assert np.array_equal(cmv._horner_sums(f, A, B, theta)[0], R)
        assert np.array_equal(cmv._horner_sums(f, A, B, theta, 0)[0], R)

    @pytest.mark.parametrize("N", [256, 255, 64, 17, 5, 4])
    def test_one_buffer_recursion_matches_two(self, N):
        # Phi*_n = conj(Phi_n reversed) holds bit for bit, since
        # conj(x y) = conj(x) conj(y) exactly, so carrying Phi_n alone
        # gives the same P
        alpha = self._block(N, 5, seed=45)
        assert np.array_equal(cmv._paraorthogonal(alpha),
                              _two_buffer_recursion(alpha))

    @pytest.mark.parametrize("N", [4, 24, 256])
    def test_conjugate_pairs_never_decode_twice(self, N):
        # real alpha with alpha_{N-1} = 1 give a real C, whose eigenvalues
        # come in exact pairs +-theta and may include -1, where the Cayley
        # oracle is singular: the angles match eigvals as sets on the
        # circle, so no zero is taken twice.  Each of these C has the
        # eigenvalue 1, found at 2 pi and returned as 0, first
        for seed in range(5):
            rng = _rng(seed)
            alpha = np.ones(N, dtype=complex)
            alpha[:-1] = (np.sqrt(rng.beta(np.ones(N - 1),
                                           np.arange(N - 1, 0, -1.0)))
                          * rng.choice([-1.0, 1.0], N - 1))
            got = cmv._decode(alpha[None])[0]
            assert got[0] == 0.0 and np.all(np.diff(got) > 0.0)
            assert got[-1] < TWO_PI
            ref = np.angle(np.linalg.eigvals(_dense_cmv(alpha)))
            gap = np.abs(np.angle(np.exp(1j * (got[:, None] - ref))))
            assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) < 1e-9

    def test_samples_independent_of_blas_threads(self):
        # the decoder uses no BLAS, so a sample's bits are the same under
        # one and two OpenBLAS threads
        src = os.path.dirname(os.path.dirname(mc.__file__))
        code = ("import numpy as np\n"
                "from spacingcov.montecarlo import sample_cue_eigenangles\n"
                "for seed in range(4):\n"
                "    rng = np.random.Generator(np.random.Philox(seed))\n"
                "    print(sample_cue_eigenangles(256, rng).tobytes().hex())")
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       PYTHONPATH=src)
            runs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                       capture_output=True, text=True,
                                       check=True).stdout)
        assert runs[0] and runs[0] == runs[1]

    def test_batch_matches_sequential_samples(self):
        # one sampler call for the batch draws in the same order as one
        # call per sample; 400 samples span three decode blocks, of
        # 4096 // 24 = 170 samples
        N, M = 24, 400
        batch = CueBatch.generate(N, M, _rng(7))
        rng = _rng(7)
        rows = np.array([sample_cue_eigenangles(N, rng) for _ in range(M)])
        assert np.max(np.abs(batch.eigenangles - rows)) <= 1e-13


class TestUnfold:
    def test_mean_one_by_construction(self):
        batch = CueBatch.generate(16, 200, _rng(5))
        delta = batch.raw_spacings.mean(axis=0)
        u = unfold(batch, delta)
        assert np.allclose(u.unfolded_spacings.mean(axis=0), 1.0, atol=1e-13)
        assert np.all(u.unfolded_spacings > 0)

    def test_guards(self):
        batch = CueBatch.generate(8, 4, _rng(6))
        with pytest.raises(ValueError):
            unfold(batch, np.zeros(7))
        with pytest.raises(ValueError):
            unfold(batch, np.ones(3))


class TestRunningAutocov:
    def test_constant_sample_is_zero(self):
        s = np.ones(10)
        for k in range(0, 9):
            assert running_autocov(s, k) == 0.0

    def test_hand_computed_example(self):
        assert running_autocov(np.array([2.0, 0.5, 1.0]), 1) == pytest.approx(
            -0.25, abs=0)

    def test_lag_range_guard(self):
        with pytest.raises(ValueError):
            running_autocov(np.ones(5), 5)

    @given(st.integers(min_value=0, max_value=6))
    @settings(max_examples=7, deadline=None)
    def test_matches_direct_sum(self, k):
        rng = _rng(7)
        s = rng.random(12) + 0.5
        direct = np.mean([s[i] * s[i + k] - 1.0 for i in range(12 - k)])
        assert running_autocov(s, k) == pytest.approx(direct, rel=1e-12, abs=0)


class TestAggregate:
    def test_identical_values_zero_width(self):
        est = aggregate(np.full(50, 1.23))
        assert est.half_widths[0] == 0.0
        assert est.values[0] == pytest.approx(1.23, abs=0)

    def test_quartering_m_doubles_width(self):
        rng = _rng(8)
        x = rng.standard_normal(40000)
        full = aggregate(x).half_widths[0]
        quarter = aggregate(x[:10000]).half_widths[0]
        assert quarter / full == pytest.approx(2.0, rel=0.05)

    def test_m_guard(self):
        with pytest.raises(ValueError):
            aggregate(np.array([1.0]))

    def test_confidence_factor(self):
        # C_99 is the 99% two-sided normal quantile, rounded to 4 places
        from scipy.special import ndtri
        assert mc.C_99 == round(float(ndtri(0.995)), 4)

    def test_import_leaves_stats_and_integrate_out(self):
        # scipy takes most of the package's import time, and neither the
        # exact route nor the sampler needs it: no scipy module, stats and
        # integrate included, loads with the package or with montecarlo
        import subprocess
        import sys
        src = os.path.dirname(os.path.dirname(mc.__file__))
        code = ("import sys, spacingcov.montecarlo\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestTracedNames:
    def test_traced_attributes_exist(self):
        # perfbench/tracing.py wraps or reads these by name; one renamed
        # away would make a layer metric (decode_s, eigensolve_s, solve_s,
        # ode_steps, ...) read 0 without failing the run
        from spacingcov import autocov, painleve, spectral
        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(mc.__file__))), "perfbench", "tracing.py")
        with open(path) as fh:
            tracing = fh.read()
        owners = {"montecarlo": mc, "spectral": spectral, "autocov": autocov,
                  "painleve.SigmaTrajectory": painleve.SigmaTrajectory,
                  "spectral.SpectrumInterpolant": spectral.SpectrumInterpolant,
                  "traj": painleve.SigmaTrajectory}
        # (how, owner, name): wrapped or read by getattr, with a loop
        # variable standing for each name of its tuple, or read as a module
        # constant.  Other owners (the regime hook's optional config fields,
        # the tracer's own state) are not package names
        loops = {var: re.findall(r'"(\w+)"', names) for var, names in
                 re.findall(r'for (\w+) in \(([^)]*)\):', tracing)}
        found = {("read", mod, const) for mod, const in re.findall(
            r'\b(spectral|painleve|autocov|montecarlo)\.([A-Z][A-Z_]+)\b',
            tracing)}
        for how, owner, name, var in re.findall(
                r'(tracer\.wrap|getattr)\(([\w.]+), (?:"(\w+)"|(\w+))',
                tracing):
            if owner in owners:
                found.update((how, owner, n)
                             for n in ([name] if name else loops[var]))
        # the banded eigensolve and its band were deleted, not renamed: the
        # eigensolve_s and cmv_assembly_s metrics read 0 until the benchmark
        # hooks the zero finder's stages
        found = {item for item in found
                 if item[2] not in ("eig_banded", "_cmv_matrix")}
        assert {name for _, _, name in found} >= {
            "_SAMPLERS", "_chunk_partials",
            "_fold", "_finalize", "_save_checkpoint", "solve_sigma0",
            "power_spectrum", "__call__", "eval_log_integral",
            "vertical_log_integral", "t_grid", "leggauss",
            "DEFAULT_SPECTRUM_CONFIG"}
        for how, owner, name in found:
            attr = getattr(owners[owner], name, None)
            assert attr is not None, f"{owner}.{name}"
            if how == "tracer.wrap":
                assert callable(attr), f"{owner}.{name}"
        assert all(map(callable, mc._SAMPLERS.values()))


class TestLazyExports:
    def test_names_are_the_module_objects(self):
        import spacingcov
        assert spacingcov.MCConfig is mc.MCConfig
        assert spacingcov.unfold is mc.unfold

    def test_star_import_binds_all(self):
        import spacingcov
        namespace = {}
        exec("from spacingcov import *", namespace)
        for name in spacingcov.__all__:
            assert namespace[name] is getattr(spacingcov, name)

    def test_unknown_name_raises(self):
        import spacingcov
        with pytest.raises(AttributeError):
            spacingcov.no_such_name


class TestStreamingRun:
    def test_matches_two_pass_reference(self, mc_small_run):
        cfg = mc_small_run.config
        children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_chunks)
        rows = []
        for c in range(cfg.n_chunks):
            rng = np.random.Generator(np.random.Philox(children[c]))
            lo, hi = cfg.chunk_bounds(c)
            for _ in range(hi - lo):
                rows.append(np.diff(sample_cue_eigenangles(cfg.N, rng)))
        raw = np.array(rows)
        delta = raw.mean(axis=0)
        s = raw / delta
        per = np.array([[running_autocov(s[a], k)
                         for k in range(cfg.k_max + 1)]
                        for a in range(cfg.M)])
        est = aggregate(per)
        assert np.allclose(est.values, mc_small_run.estimate.values,
                           rtol=0, atol=1e-13)
        assert np.allclose(est.sample_std, mc_small_run.estimate.sample_std,
                           rtol=1e-10, atol=1e-13)
        assert np.allclose(delta, mc_small_run.delta, rtol=0, atol=1e-14)

    def test_determinism(self):
        cfg = MCConfig(N=24, M=600, seed=9, k_max=4, chunk_size=200)
        a = mc.run(cfg)
        b = mc.run(cfg)
        assert np.array_equal(a.estimate.values, b.estimate.values)
        assert np.array_equal(a.cov, b.cov)

    def test_thread_count_invariance(self):
        cfg = MCConfig(N=24, M=600, seed=9, k_max=4, chunk_size=200)
        a = mc.run(cfg, threads=1)
        b = mc.run(cfg, threads=3)
        assert np.array_equal(a.estimate.values, b.estimate.values)
        assert np.array_equal(a.cov, b.cov)

    def test_in_flight_chunks_bounded(self, monkeypatch):
        cfg = MCConfig(N=24, M=600, seed=9, k_max=4, chunk_size=20)
        threads = 2
        lock = threading.Lock()
        count = {"started": 0, "folded": 0, "max": 0}
        chunk_partials, fold = mc._chunk_partials, mc._fold

        def counted_chunk(*args):
            with lock:
                count["started"] += 1
                count["max"] = max(count["max"],
                                   count["started"] - count["folded"])
            return chunk_partials(*args)

        def slow_fold(*args):
            time.sleep(0.02)            # let the workers race ahead
            fold(*args)
            with lock:
                count["folded"] += 1

        monkeypatch.setattr(mc, "_chunk_partials", counted_chunk)
        monkeypatch.setattr(mc, "_fold", slow_fold)
        bounded = mc.run(cfg, threads=threads)
        assert count["folded"] == cfg.n_chunks
        assert count["max"] <= 2 * threads
        monkeypatch.undo()
        serial = mc.run(cfg, threads=1)
        assert np.array_equal(bounded.estimate.values, serial.estimate.values)
        assert np.array_equal(bounded.cov, serial.cov)

    def test_chunk_returns_its_spacings(self):
        # 90 samples in chunks of 40: the last chunk holds 10
        cfg = MCConfig(N=24, M=90, seed=4, k_max=3, chunk_size=40)
        children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_chunks)
        for c in range(cfg.n_chunks):
            lo, hi = cfg.chunk_bounds(c)
            R = mc._chunk_partials(cfg, c, children[c])
            assert R.dtype == np.float64
            assert R.shape == (hi - lo, cfg.N - 1)
            rng = np.random.Generator(np.random.Philox(children[c]))
            ang = CueBatch.generate(cfg.N, hi - lo, rng)
            assert np.array_equal(R, ang.raw_spacings)

    def test_fold_matches_per_chunk_sums(self):
        # each fold adds what the per-chunk sums, formed apart, would add
        cfg = MCConfig(N=24, M=90, seed=4, k_max=5, chunk_size=40)
        children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_chunks)
        acc = mc._Accumulators.fresh(cfg)
        ref = mc._Accumulators.fresh(cfg)
        for c in range(cfg.n_chunks):
            R = mc._chunk_partials(cfg, c, children[c])
            mc._fold(acc, c, R)
            sum_s, cross = R.sum(axis=0), R.T @ R
            prod_sq = []
            for k in range(cfg.k_max + 1):
                P = R[:, :cfg.N - 1 - k] * R[:, k:]
                prod_sq.append(P.T @ P)
            ref.sum_s += sum_s
            ref.cross += cross
            for k, m in enumerate(prod_sq):
                ref.prod_sq[k] += m
            ref.lead_cross[c] = R[:, :mc.LEAD].T @ R[:, :mc.LEAD]
            assert acc.next_chunk == c + 1
            assert np.array_equal(acc.sum_s, ref.sum_s)
            assert np.array_equal(acc.cross, ref.cross)
            for k in range(cfg.k_max + 1):
                assert np.array_equal(acc.prod_sq[k], ref.prod_sq[k])
            assert np.array_equal(acc.lead_cross, ref.lead_cross)

    def test_traced_peak_near_accumulators(self):
        # a chunk in flight holds (chunk_size, N - 1) spacings, not dense
        # sums: the traced peak of a threaded run stays within six dense
        # (N - 1)^2 arrays of the accumulators (the fold's product and
        # finalize's cov, outer(delta, delta) and temporaries).  A chunk that
        # held its 14 dense sums would exceed it with one chunk in flight
        cfg = MCConfig(N=256, M=96, seed=3, k_max=12, chunk_size=8)
        acc = mc._Accumulators.fresh(cfg)
        held = (acc.sum_s.nbytes + acc.cross.nbytes + acc.lead_cross.nbytes
                + sum(m.nbytes for m in acc.prod_sq))
        margin = 6 * acc.cross.nbytes
        del acc
        mc.run(cfg, threads=2)          # load code and caches untraced
        tracemalloc.start()
        try:
            mc.run(cfg, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < held + margin

    def test_checkpoint_resume_equivalence(self, tmp_path):
        cfg = MCConfig(N=24, M=800, seed=10, k_max=3, chunk_size=200)
        full = mc.run(cfg)
        ck = str(tmp_path / "ck.npz")
        children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_chunks)
        acc = mc._Accumulators.fresh(cfg)
        for c in range(2):                      # interrupted after 2 chunks
            mc._fold(acc, c, mc._chunk_partials(cfg, c, children[c]))
        mc._save_checkpoint(ck, cfg, acc)
        resumed = mc.run(cfg, checkpoint_path=ck, resume=True)
        assert np.array_equal(full.estimate.values, resumed.estimate.values)
        assert np.array_equal(full.cov, resumed.cov)

    def test_checkpoint_config_mismatch(self, tmp_path, monkeypatch):
        cfg = MCConfig(N=24, M=400, seed=1, k_max=3, chunk_size=200)
        other = MCConfig(N=24, M=400, seed=2, k_max=3, chunk_size=200)
        # written by another configuration
        ck = str(tmp_path / "ck_other.npz")
        mc.run(other, checkpoint_path=ck)
        with pytest.raises(CheckpointMismatch, match="config"):
            mc.run(cfg, checkpoint_path=ck, resume=True)
        # written by this configuration under another montecarlo.py: the
        # digest of a copy of the source stands in for the module's, then
        # that of an edited copy
        with open(mc.__file__, "rb") as fh:
            source = fh.read()
        same, edited = tmp_path / "same.py", tmp_path / "edited.py"
        same.write_bytes(source)
        edited.write_bytes(source + b"\n")
        ck = str(tmp_path / "ck_source.npz")
        monkeypatch.setattr(mc, "_SOURCE_DIGEST", store.digest([same]))
        mc.run(cfg, checkpoint_path=ck)
        mc.run(cfg, checkpoint_path=ck, resume=True)      # same code: resumed
        monkeypatch.setattr(mc, "_SOURCE_DIGEST", store.digest([edited]))
        with pytest.raises(CheckpointMismatch, match="source"):
            mc.run(cfg, checkpoint_path=ck, resume=True)
        # or under another numpy
        monkeypatch.setattr(mc, "_SOURCE_DIGEST", store.digest([same]))
        monkeypatch.setattr(np, "__version__", np.__version__ + "+other")
        with pytest.raises(CheckpointMismatch, match="numpy"):
            mc.run(cfg, checkpoint_path=ck, resume=True)

    def test_checkpoint_keyed_by_constant_values(self, tmp_path, monkeypatch):
        # written under LEAD_BATCHES = 3, the checkpoint holds 3 batches of
        # lead sums where a default run of its 7 chunks holds 7: a default
        # resume refuses it and names the constant
        cfg = MCConfig(N=24, M=650, seed=9, k_max=3, chunk_size=100)
        ck = str(tmp_path / "ck.npz")
        with monkeypatch.context() as patched:
            patched.setattr(mc, "LEAD_BATCHES", 3)
            mc.run(cfg, checkpoint_path=ck)
            mc.run(cfg, checkpoint_path=ck, resume=True)  # same: resumed
        with pytest.raises(CheckpointMismatch,
                           match=r"different montecarlo\.LEAD_BATCHES$"):
            mc.run(cfg, checkpoint_path=ck, resume=True)
        # the sampler's constants are keyed too
        assert mc._checkpoint_key(cfg)["cmv.GRID_PER_ZERO"] == "8"

    def test_keys_name_the_code_as_imported(self, tmp_path):
        # a copy of the package is imported, then its montecarlo.py and
        # spectral.py are edited before any key is made: the checkpoint key
        # and the spectrum cache key hold the digests of the code that was
        # loaded, and only a fresh import reads the edits
        from spacingcov import spectral
        pkg = tmp_path / "spacingcov"
        shutil.copytree(os.path.dirname(mc.__file__), pkg,
                        ignore=shutil.ignore_patterns("__pycache__"))
        mc_files = [pkg / os.path.basename(f) for f in mc._SOURCES]
        spectral_files = [pkg / os.path.basename(f) for f in spectral._SOURCES]
        code = textwrap.dedent("""\
            import json, os, sys
            from spacingcov import montecarlo as mc, spectral, store
            if sys.argv[2] == "edit":
                for name in ("montecarlo.py", "spectral.py"):
                    with open(os.path.join(sys.argv[3], name), "a") as fh:
                        fh.write("\\n")
            spectral.power_spectrum = lambda omega, config=None: (omega, 0.0)
            spectral.SpectrumInterpolant.build(nodes=4, cache_path=sys.argv[1])
            with store.np.load(sys.argv[1]) as data:
                cached = json.loads(str(data["key"]))["source"]
            print(json.dumps([mc._checkpoint_key(mc.MCConfig())["source"],
                              cached]))
            """)

        def keys(*args):
            env = dict(os.environ, PYTHONPATH=str(tmp_path))
            out = subprocess.run([sys.executable, "-c", code, *args],
                                 env=env, capture_output=True, text=True,
                                 check=True).stdout
            return json.loads(out)

        loaded = [store.digest(mc_files), store.digest(spectral_files)]
        assert keys(str(tmp_path / "a.npz"), "edit", str(pkg)) == loaded
        edited = [store.digest(mc_files), store.digest(spectral_files)]
        assert edited[0] != loaded[0] and edited[1] != loaded[1]
        assert keys(str(tmp_path / "b.npz"), "keep", str(pkg)) == edited

    def test_checkpoint_without_key_is_refused(self, tmp_path):
        # the layout before the key: a version number and the config
        cfg = MCConfig(N=24, M=400, seed=1, k_max=3, chunk_size=200)
        ck = str(tmp_path / "ck.npz")
        mc.run(cfg, checkpoint_path=ck)
        with np.load(ck) as data:
            payload = {k: data[k] for k in data.files if k != "key"}
        np.savez(ck, version=3, config=json.dumps(asdict(cfg)), **payload)
        with pytest.raises(CheckpointMismatch):
            mc.run(cfg, checkpoint_path=ck, resume=True)

    def test_unreadable_checkpoint_is_refused(self, tmp_path):
        # a write cut short: refused like a file of another key, so a
        # caller that starts afresh on CheckpointMismatch does so
        cfg = MCConfig(N=24, M=400, seed=1, k_max=3, chunk_size=200)
        ck = tmp_path / "ck.npz"
        mc.run(cfg, checkpoint_path=str(ck))
        whole = ck.read_bytes()
        for broken in (whole[: len(whole) // 2], b""):
            ck.write_bytes(broken)
            with pytest.raises(CheckpointMismatch, match="cannot be read"):
                mc.run(cfg, checkpoint_path=str(ck), resume=True)

    def test_checkpoint_without_an_array_is_refused(self, tmp_path):
        # a matching key but a missing sum: refused, so a caller that
        # starts afresh on CheckpointMismatch does so
        cfg = MCConfig(N=24, M=400, seed=1, k_max=3, chunk_size=200)
        ck = str(tmp_path / "ck.npz")
        mc.run(cfg, checkpoint_path=ck)
        with np.load(ck) as data:
            payload = {k: data[k] for k in data.files if k != "cross"}
        np.savez(ck, **payload)
        with pytest.raises(CheckpointMismatch, match="cannot be read"):
            mc.run(cfg, checkpoint_path=ck, resume=True)

    def test_checkpoint_written_when_sums_change(self, tmp_path, monkeypatch):
        # a write per checkpoint_every chunks, and one at the end unless
        # the last of those already holds the final sums
        cfg = MCConfig(N=8, M=80, seed=3, k_max=2, chunk_size=2)
        save, writes = mc._save_checkpoint, []

        def counting(path, config, acc):
            writes.append(acc.next_chunk)
            save(path, config, acc)

        monkeypatch.setattr(mc, "_save_checkpoint", counting)
        ck = str(tmp_path / "ck.npz")
        full = mc.run(cfg, checkpoint_path=ck, checkpoint_every=10)
        assert writes == [10, 20, 30, 40]
        writes.clear()
        mc.run(cfg, checkpoint_path=ck, checkpoint_every=15)
        assert writes == [15, 30, 40]
        writes.clear()
        mc.run(cfg, checkpoint_path=ck, resume=True)     # nothing left
        assert writes == []
        # interrupted after 25 chunks: the resume ends with its final write
        children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_chunks)
        acc = mc._Accumulators.fresh(cfg)
        for c in range(25):
            mc._fold(acc, c, mc._chunk_partials(cfg, c, children[c]))
        save(ck, cfg, acc)
        writes.clear()
        resumed = mc.run(cfg, checkpoint_path=ck, resume=True,
                         checkpoint_every=10)
        assert writes == [30, 40]
        assert np.array_equal(resumed.cov, full.cov)
        assert mc._load_checkpoint(ck, cfg).next_chunk == cfg.n_chunks

    def test_checkpoint_every_guard(self, tmp_path, monkeypatch):
        cfg = MCConfig(N=24, M=400, seed=1, k_max=3, chunk_size=200)

        def no_chunk(*args):
            raise AssertionError("a chunk was computed")

        monkeypatch.setattr(mc, "_chunk_partials", no_chunk)
        ck = tmp_path / "ck.npz"
        with pytest.raises(ValueError):
            mc.run(cfg, checkpoint_path=str(ck), checkpoint_every=0)
        assert not ck.exists()

    def test_resume_without_checkpoint(self, tmp_path):
        cfg = MCConfig(N=24, M=400, seed=1, k_max=3, chunk_size=200)
        with pytest.raises(CheckpointMismatch):
            mc.run(cfg, checkpoint_path=str(tmp_path / "absent.npz"),
                   resume=True)


class TestLevelStatistics:
    @staticmethod
    def _per_sample_second_diffs(res, k):
        # per chunk, each sample's term of the chunk's second difference:
        # the chunk value is their mean
        cfg = res.config
        L = min(mc.LEAD, cfg.N - 1)
        children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_chunks)
        out = []
        for c in range(cfg.n_chunks):
            rng = np.random.Generator(np.random.Philox(children[c]))
            lo, hi = cfg.chunk_bounds(c)
            s = np.array([np.diff(sample_cue_eigenangles(cfg.N, rng))
                          for _ in range(hi - lo)])[:, :L] / res.delta[:L]
            # sum of s s^T - 1 over [:j, :j] is lambda_j^2 - j^2
            j = np.array([k + 1, k, k - 1])
            sq = np.cumsum(s, axis=1)[:, j - 1] ** 2 - j ** 2
            out.append(0.5 * (sq[:, 0] - 2.0 * sq[:, 1] + sq[:, 2]))
        return out

    def test_second_difference_short_last_chunk(self):
        # 450 samples in chunks of 200: the last chunk holds 50
        cfg = MCConfig(N=24, M=450, seed=9, k_max=3, chunk_size=200)
        res = mc.run(cfg)
        for k in (2, 3, 5):
            got = res._chunk_second_diffs(k)
            terms = self._per_sample_second_diffs(res, k)
            ref = np.array([t.mean() for t in terms])
            assert np.max(np.abs(got - ref)) < 1e-12
            # the short chunk agrees with the full ones within 4 standard
            # errors of the difference of the means
            full = np.concatenate(terms[:-1])
            se = full.std(ddof=1) * np.sqrt(1 / terms[-1].size + 1 / full.size)
            assert abs(got[-1] - full.mean()) < 4.0 * se

    def test_second_difference_full_chunks_unchanged(self):
        # with M a multiple of chunk_size every chunk holds chunk_size
        # samples: its lead cross-moments are divided by it, bit for bit
        cfg = MCConfig(N=24, M=600, seed=9, k_max=3, chunk_size=200)
        res = mc.run(cfg)
        d = res.delta[:min(mc.LEAD, cfg.N - 1)]
        for k in (2, 3, 5):
            C = res._lead_cross / cfg.chunk_size / np.outer(d, d) - 1.0
            per = 0.5 * (C[:, :k + 1, :k + 1].sum(axis=(1, 2))
                         - 2.0 * C[:, :k, :k].sum(axis=(1, 2))
                         + C[:, :k - 1, :k - 1].sum(axis=(1, 2)))
            assert np.array_equal(res._chunk_second_diffs(k), per)
            assert res.second_difference(k) == (
                float(aggregate(per).values[0]),
                float(aggregate(per).half_widths[0]))

    def test_chunks_share_batches_past_the_cap(self, monkeypatch):
        # 7 chunks, the last short: at or below the cap each chunk is its
        # own batch; with a cap of 3 the batches are chunks 0-2, 3-4 and
        # 5-6, and each batch's value is the mean of its samples' terms
        cfg = MCConfig(N=24, M=650, seed=9, k_max=3, chunk_size=100)
        per_chunk = mc.run(cfg)
        monkeypatch.setattr(mc, "LEAD_BATCHES", cfg.n_chunks)
        at_cap = mc.run(cfg)
        assert np.array_equal(at_cap._lead_cross, per_chunk._lead_cross)
        monkeypatch.setattr(mc, "LEAD_BATCHES", 3)
        res = mc.run(cfg)
        assert np.array_equal(res.cov, per_chunk.cov)
        assert res._lead_cross.shape == (3, 23, 23)
        batches = ([0, 1, 2], [3, 4], [5, 6])
        for g, chunks in enumerate(batches):
            ref = np.zeros((23, 23))
            for c in chunks:
                ref += per_chunk._lead_cross[c]
            assert np.array_equal(res._lead_cross[g], ref)
        for k in (2, 3, 5):
            terms = self._per_sample_second_diffs(res, k)
            ref = [np.concatenate([terms[c] for c in chunks]).mean()
                   for chunks in batches]
            assert np.max(np.abs(res._chunk_second_diffs(k) - ref)) < 1e-12
            assert np.array_equal(at_cap._chunk_second_diffs(k),
                                  per_chunk._chunk_second_diffs(k))

    def test_checkpoint_size_bounded(self, tmp_path, monkeypatch):
        # the same size at the cap and at twice as many chunks
        monkeypatch.setattr(mc, "LEAD_BATCHES", 4)
        sizes = []
        for M in (400, 800):
            ck = tmp_path / f"ck{M}.npz"
            mc.run(MCConfig(N=24, M=M, seed=2, k_max=3, chunk_size=100),
                   checkpoint_path=str(ck))
            sizes.append(ck.stat().st_size)
        assert sizes[0] == sizes[1]

    def test_var_lambda_1_equals_spacing_variance(self, mc_small_run):
        # var lambda_1 from the chunk-wise window the level statistics
        # read equals the spacing variance from the run's full sums
        res = mc_small_run
        raw = res._lead_cross[:, 0, 0].sum() / res.config.M
        v1 = raw / res.delta[0] ** 2 - 1.0
        assert v1 == pytest.approx(res.cov[0, 0], rel=1e-12, abs=0)

    def test_var_lambda_grows(self, mc_small_run):
        # var lambda_k is the sum of the spacing covariances of [:k, :k]
        cov = mc_small_run.cov
        v = [cov[:k, :k].sum() for k in (2, 4, 8, 16)]
        assert np.all(np.diff(v) > 0)


class TestFiniteNSpectra:
    def test_exact_identity(self, mc_small_run):
        omegas = np.array([0.4, 1.1, 2.3, 3.0])
        f = finite_n_power_spectra(mc_small_run.cov, 32, omegas)
        rhs = (f.s_sp + f.s_sp0 - 2.0 * f.r_n / f.n) / (
            4.0 * np.sin(omegas / 2.0) ** 2)
        assert np.max(np.abs(f.s_eig - rhs)) < 1e-12

    def test_residual_scales_as_one_over_n(self, mc_acceptance_run):
        omegas = np.array([1.0, 2.0])
        resid = []
        for n in (64, 128, 240):
            f = finite_n_power_spectra(mc_acceptance_run.cov, n, omegas)
            resid.append(np.abs(f.r_n / f.n))
        resid = np.array(resid)
        assert np.all(resid[2] < resid[0])

    def test_small_n_guard(self, mc_small_run):
        with pytest.raises(ValueError):
            finite_n_power_spectra(mc_small_run.cov, 8, [1.0])
        with pytest.raises(ValueError):
            finite_n_power_spectra(mc_small_run.cov, 2000, [1.0])

    def test_sp_spectrum_approaches_infinite_n(self, mc_acceptance_run,
                                               spectrum_interpolant):
        omegas = np.array([1.0, 2.0, 3.0])
        f = finite_n_power_spectra(mc_acceptance_run.cov, 240, omegas)
        exact = spectrum_interpolant(omegas)
        assert np.max(np.abs(f.s_sp - exact)) < 0.01
