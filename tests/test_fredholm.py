import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacingcov import fredholm
from spacingcov.fredholm import (ConvergenceError, DeterminantRequest,
                                 gap_probability, sine_kernel_det,
                                 sine_kernel_det_auto)

# converged reference det(I - K_s) at zeta = 1, s = 1 (Nystrom
# self-convergence baseline, frozen from a 60- vs 80-node agreement run)
GAP_S1 = 0.17021742137918544


class TestDeterminant:
    @pytest.mark.parametrize("nodes", [24, 241])
    def test_cached_rule_matches_direct(self, nodes):
        x, w = fredholm._nystrom_rule(nodes)
        assert fredholm._nystrom_rule(nodes)[0] is x
        gx, gw = np.polynomial.legendre.leggauss(nodes)
        assert np.array_equal(x, gx) and np.array_equal(w, gw)
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        zeta, s = 1.0 - np.exp(2.0j), 7.3
        t, wt = 0.5 * (s + 0j) * (gx + 1.0), 0.5 * (s + 0j) * gw
        sq = np.sqrt(wt)
        A = np.eye(nodes, dtype=complex) - zeta * (
            sq[:, None] * np.sinc(np.subtract.outer(t, t)) * sq[None, :])
        sign, logdet = np.linalg.slogdet(A)
        assert sine_kernel_det(DeterminantRequest(zeta, s, nodes)) == (
            sign * np.exp(logdet))

    def test_empty_interval(self):
        assert sine_kernel_det(DeterminantRequest(0.5 + 0.5j, 0.0)) == 1.0

    def test_trace_term_small_s(self):
        for zeta in (1.0, 0.3 - 0.7j):
            s = 1e-4
            d = sine_kernel_det(DeterminantRequest(zeta, s, 24))
            assert abs(d - (1.0 - zeta * s)) < 5e-8

    def test_self_convergence_baseline(self):
        d60 = sine_kernel_det(DeterminantRequest(1.0, 1.0, 60))
        d80 = sine_kernel_det(DeterminantRequest(1.0, 1.0, 80))
        assert abs(d60 - d80) < 1e-12
        assert abs(d80 - GAP_S1) < 1e-12

    def test_node_doubling_changes_little(self):
        for s in (2.0, 10.0):
            for zeta in (1.0, 2.0, 1.0 - np.exp(1j * 1.0)):
                a = sine_kernel_det_auto(zeta, s)
                b = sine_kernel_det(DeterminantRequest(zeta, s, 320))
                assert abs(a - b) < 1e-10

    def test_conjugation(self):
        z = 1.0 - np.exp(1j * 2.2)
        a = sine_kernel_det_auto(z, 3.0)
        b = sine_kernel_det_auto(np.conj(z), 3.0)
        assert abs(np.conj(a) - b) < 1e-12

    def test_entire_in_zeta_polynomial_interpolation(self):
        # values on 8 circle points determine a polynomial model that must
        # reproduce 4 held-out points of the entire function
        s = 2.0
        zs = 1.5 * np.exp(2j * np.pi * np.arange(8) / 8)
        vals = np.array([sine_kernel_det_auto(z, s) for z in zs])
        coef = np.polynomial.polynomial.polyfit(zs, vals, 7)
        held = 1.5 * np.exp(2j * np.pi * (np.arange(4) + 0.37) / 4)
        for z in held:
            ref = sine_kernel_det_auto(z, s)
            got = np.polynomial.polynomial.polyval(z, coef)
            assert abs(ref - got) < 1e-8

    def test_rejects_bad_requests(self):
        with pytest.raises(ValueError):
            DeterminantRequest(1.0, -1.0)
        with pytest.raises(ValueError):
            DeterminantRequest(float("nan"), 1.0)
        with pytest.raises(ValueError):
            DeterminantRequest(1.0, 1.0, nodes=3)

    def test_convergence_error_at_tiny_cap(self, monkeypatch):
        monkeypatch.setattr(fredholm, "MAX_NODES", 50)
        with pytest.raises(ConvergenceError):
            sine_kernel_det_auto(1.0, 9.0)

    @given(st.floats(min_value=0.1, max_value=6.0),
           st.floats(min_value=0.0, max_value=2 * np.pi))
    @settings(max_examples=15, deadline=None)
    def test_determinant_finite_on_circle(self, s, phi):
        z = 1.0 - np.exp(1j * phi)
        d = sine_kernel_det_auto(z, s)
        assert np.isfinite(d.real) and np.isfinite(d.imag)
        assert abs(d) <= 1.0 + 1e-9      # |det| <= 1 on this zeta family


class TestGapProbability:
    def test_empty_interval(self):
        assert gap_probability(0.0) == 1.0

    def test_small_s_trace_term(self):
        s = 1e-3
        # subleading O(s^2) term vanishes by kernel symmetry
        assert abs(gap_probability(s) - (1.0 - s)) < 1e-8

    def test_strictly_decreasing(self):
        svals = np.linspace(0.0, 6.0, 25)
        gaps = [gap_probability(float(s)) for s in svals]
        assert np.all(np.diff(gaps) < 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gap_probability(-1.0)
