import numpy as np
import pytest
from scipy.integrate import quad

from spacingcov import autocov
from spacingcov.autocov import (AutocovSeries, autocov_asymptotic,
                                autocov_asymptotic_ci, autocov_dyson,
                                autocov_exact, autocov_series_exact,
                                dyson_tail_estimate, sum_rule_residual)
from spacingcov.spectral import spacing_distribution

TWO_PI = 2.0 * np.pi


class TestClosedForms:
    def test_dyson_values(self):
        assert autocov_dyson(1) == pytest.approx(-1.0 / (2 * np.pi ** 2), abs=0)
        assert autocov_dyson(10) == pytest.approx(-1.0 / (200 * np.pi ** 2), abs=0)
        assert autocov_dyson(2) == pytest.approx(autocov_dyson(1) / 4.0, abs=0)

    def test_asymptotic_k1(self):
        expect = (-1.0 / (2 * np.pi ** 2)
                  - 3.0 / (2 * np.pi ** 4) * (np.log(TWO_PI) + np.euler_gamma - 11 / 6))
        assert autocov_asymptotic(1) == pytest.approx(expect, abs=0)

    def test_asymptotic_approaches_dyson(self):
        assert autocov_asymptotic(500) / autocov_dyson(500) == pytest.approx(
            1.0, abs=1e-4)

    def test_rejects_k_zero(self):
        for fn in (autocov_dyson, autocov_asymptotic, autocov_asymptotic_ci,
                   dyson_tail_estimate):
            for k in (0, -1):
                with pytest.raises(ValueError):
                    fn(k)

    def test_cosine_integral_against_quadrature(self):
        # Ci(pi) = -int_pi^inf cos(t)/t dt
        from scipy.special import sici
        val, _ = quad(lambda t: np.cos(t) / t, np.pi, 400 * np.pi,
                      limit=4000)
        # averaging endpoints half a cosine period (pi) apart cancels the
        # leading oscillatory tail, leaving O(1/a^2)
        val2, _ = quad(lambda t: np.cos(t) / t, np.pi, 401 * np.pi,
                       limit=4000)
        assert sici(np.pi)[1] == pytest.approx(-(val + val2) / 2.0, abs=1e-5)

    def test_ci_variant_scaling(self):
        diffs = np.array([abs(autocov_asymptotic_ci(k) - autocov_asymptotic(k))
                          * k ** 6 for k in range(1, 21)])
        assert np.max(diffs) < 0.1          # bounded constant

    def test_euler_gamma_digits(self):
        # the gamma of the k^-4 bracket
        assert abs(np.euler_gamma - 0.577215664901532860606512) < 1e-16


class TestExactInversion:
    def test_k0_is_spacing_variance(self, spectrum_interpolant):
        # a third route to delta I_0: int s^2 P ds - 1, P from the zeta = 1
        # trajectory (it moves by < 1e-15 with the cut-off between 6 and 8)
        dI0 = autocov_exact(0, spectrum_interpolant)
        x, w = np.polynomial.legendre.leggauss(120)
        s = 3.0 * (x + 1.0)
        P = np.array([spacing_distribution(float(v)) for v in s])
        var = 3.0 * w @ (s ** 2 * P) - 1.0
        assert dI0 > 0
        # measured -2.95e-11: the omega^4 term the small-omega form lacks
        # below omega_min; the bound goes to 1e-13 once that form has it
        assert abs(dI0 - var) < 1e-10

    def test_negative_for_positive_lags(self, exact_series):
        assert np.all(exact_series[1:] < 0)

    def test_dyson_ratio_k20(self, spectrum_interpolant):
        ratio = autocov_exact(20, spectrum_interpolant) / autocov_dyson(20)
        assert ratio == pytest.approx(1.0, abs=0.05)

    def test_asymptotic_consistency_k40(self, spectrum_interpolant):
        diff = abs(autocov_exact(40, spectrum_interpolant)
                   - autocov_asymptotic(40))
        assert diff * 40 ** 4 < 0.01

    def test_resolution_guard(self, spectrum_interpolant):
        with pytest.raises(ValueError):
            autocov_exact(1000, spectrum_interpolant)
        with pytest.raises(ValueError):
            autocov_exact(-1, spectrum_interpolant)

    def test_parseval(self, spectrum_interpolant, exact_series):
        from numpy.polynomial.legendre import leggauss
        total = 0.0
        edges = np.concatenate([[0.0], spectrum_interpolant.edges])
        for lo, hi in zip(edges[:-1], edges[1:]):
            x, w = leggauss(32)
            om = 0.5 * (hi - lo) * (x + 1.0) + lo
            total += 0.5 * (hi - lo) * float(
                np.sum(w * spectrum_interpolant(om) ** 2))
        lhs = total / np.pi
        tail = 2.0 * np.sum(1.0 / (4 * np.pi ** 4 * np.arange(51, 2001) ** 4.0))
        rhs = exact_series[0] ** 2 + 2 * np.sum(exact_series[1:] ** 2) + tail
        assert abs(lhs - rhs) < 1e-6


# delta I_k on the fixed composite rule of autocov._rule (32 Gauss-Legendre
# nodes per sub-panel) on the default 16-node interpolant, as built with the
# analytic spectral tail closure, the Taylor stepper (order 38, steps cut at
# 1e-19) and one contour at Im t = -4 for every omega, the path ending at
# Lambda = 250
PER_LAG_VALUES = {0: 0.17999387772132125, 20: -0.0001269969181678293,
                  400: -3.166256724169136e-07}

# the same with the path at Im t = -2 and the tail fits each building their
# own matrix of powers; the values must agree to 1e-14.  The literals below
# were taken on paths at Im t = -2 as well
ELEVATION_TWO_PER_LAG_VALUES = {0: 0.17999387772132128,
                                20: -0.00012699691816637362,
                                400: -3.166256723439612e-07}

# the same with steps of order 30 cut at 1e-25; the values must agree to
# 1e-14
FINE_STEP_PER_LAG_VALUES = {0: 0.1799938777213213,
                            20: -0.00012699691816479847,
                            400: -3.1662567236380083e-07}

# the same with the path run on to Lambda = 400 and the fifth-order tail
# closure; the values must agree to 1e-14
LONG_PATH_PER_LAG_VALUES = {0: 0.17999387772132372,
                            20: -0.00012699691816357538,
                            400: -3.1662567236380083e-07}

# the same where omega <= 2.7 ran on the real axis with the untracked
# third-order form; the values must agree to 1e-14
AXIS_PATH_PER_LAG_VALUES = {0: 0.17999387772131814,
                            20: -0.00012699691816766483,
                            400: -3.1662567236380083e-07}

# the same on the earlier rules sized by the largest lag (one Gauss-Legendre
# rule per panel with 10 nodes per period of cos(omega k)), whose series and
# single-lag values differed by up to about 1e-13; the values must agree to
# that
SIZED_RULE_PER_LAG_VALUES = {0: 0.17999387772131814, 20: -0.0001269969181675566,
                             400: -3.1662567539264417e-07}

# the sized-rule values on the interpolant that scipy's DOP853 stepper
# built; the values must agree to 1e-12
DOP853_PER_LAG_VALUES = {0: 0.1799938777213375, 20: -0.0001269969181651397,
                         400: -3.1662567397775287e-07}


def rule_nodes(spectrum):
    """Nodes and weights of autocov._rule for the interpolant's edges."""
    return autocov._rule(tuple(map(float, spectrum.edges)))


class TestSeriesExact:
    def test_series_matches_single_lags(self, spectrum_interpolant):
        # one rule for every lag: only the matrix product's rounding
        # separates a series from single lags
        series = autocov_series_exact(50, spectrum_interpolant)
        for k in range(51):
            assert abs(series.values[k]
                       - autocov_exact(k, spectrum_interpolant)) < 1e-16

    def test_guard_before_any_rule(self, spectrum_interpolant, monkeypatch):
        def no_rule(n):
            raise AssertionError("quadrature rule built before the guard")
        monkeypatch.setattr(autocov, "leggauss", no_rule)
        # emptied, the rule cache cannot hide a rule built before the guard
        autocov._rule.cache_clear()
        with pytest.raises(ValueError, match="resolution guard"):
            autocov_series_exact(401, spectrum_interpolant)

    @pytest.mark.parametrize("call, match", [
        (lambda s: autocov_series_exact(-1, s), "must be >= 0"),
        (lambda s: autocov_exact(-3, s), "must be >= 0"),
        (lambda s: autocov._fourier_inversion([], s), "no lags"),
        (lambda s: autocov_exact(2.5, s), "integers"),
        (lambda s: autocov_exact(np.nan, s), "integers"),
        (lambda s: autocov_series_exact(2.5, s), "integers"),
        (lambda s: autocov._fourier_inversion([1, 2.5], s), "integers")],
        ids=["series-negative", "negative", "empty", "fraction", "nan",
             "series-fraction", "fraction-in-set"])
    def test_bad_lags_rejected_before_any_rule(self, spectrum_interpolant,
                                               monkeypatch, call, match):
        def no_rule(n):
            raise AssertionError("quadrature rule built before the check")
        monkeypatch.setattr(autocov, "leggauss", no_rule)
        autocov._rule.cache_clear()
        with pytest.raises(ValueError, match=match):
            call(spectrum_interpolant)

    def test_integral_float_lag_accepted(self, spectrum_interpolant):
        assert (autocov_exact(2.0, spectrum_interpolant)
                == autocov_exact(2, spectrum_interpolant))

    def test_matches_direct_cosine_sums(self, spectrum_interpolant):
        # the reference: one cosine per lag and node on the same rule
        x, w = rule_nodes(spectrum_interpolant)
        v = w * spectrum_interpolant(x)
        series = autocov_series_exact(autocov.K_CAP, spectrum_interpolant)
        for k in range(autocov.K_CAP + 1):
            direct = v @ np.cos(k * x) / np.pi
            assert abs(series.values[k] - direct) < 2e-15, k

    def test_lag_sets_match_series(self, spectrum_interpolant):
        series = autocov_series_exact(autocov.K_CAP,
                                      spectrum_interpolant).values
        rng = np.random.default_rng(16)
        for ks in (rng.permutation(autocov.K_CAP + 1),
                   [400, 3, 3, 0, 400, 21, 20, 42, 3],
                   rng.integers(0, autocov.K_CAP + 1, 60)):
            got = autocov._fourier_inversion(ks, spectrum_interpolant)
            assert np.all(np.abs(got - series[ks]) <= 1e-16), ks

    def test_one_spectrum_call_per_inversion(self, spectrum_interpolant):
        calls = []

        class Counting:
            edges = spectrum_interpolant.edges

            def __call__(self, omega):
                calls.append(omega.size)
                return spectrum_interpolant(omega)

        autocov_series_exact(autocov.K_CAP, Counting())
        autocov_exact(7, Counting())
        assert calls == [rule_nodes(spectrum_interpolant)[0].size] * 2

    def test_no_large_rule(self, spectrum_interpolant, monkeypatch):
        sizes = []

        def recording(n):
            sizes.append(n)
            return np.polynomial.legendre.leggauss(n)
        monkeypatch.setattr(autocov, "leggauss", recording)
        autocov._rule.cache_clear()         # so that this call builds one
        autocov_series_exact(autocov.K_CAP, spectrum_interpolant)
        assert sizes and max(sizes) <= 32

    def test_rule_built_once_per_edges(self, spectrum_interpolant,
                                       monkeypatch):
        # the rule depends on the edges alone: later inversions on the same
        # edges share it, read-only
        sizes = []

        def recording(n):
            sizes.append(n)
            return np.polynomial.legendre.leggauss(n)
        monkeypatch.setattr(autocov, "leggauss", recording)
        autocov._rule.cache_clear()
        autocov_series_exact(20, spectrum_interpolant)
        autocov_exact(7, spectrum_interpolant)
        assert sizes == [autocov.GAUSS_NODES]
        x, w = rule_nodes(spectrum_interpolant)
        assert not (x.flags.writeable or w.flags.writeable)

    @pytest.mark.parametrize("k_max, tol", [(50, 2e-15), (autocov.K_CAP, 2e-14)])
    def test_rule_integrates_cosines(self, spectrum_interpolant, k_max, tol):
        x, w = rule_nodes(spectrum_interpolant)
        assert x.min() > 0.0 and x.max() < np.pi
        for k in range(k_max + 1):
            exact = np.pi if k == 0 else 0.0
            assert abs(w @ np.cos(k * x) - exact) < tol, k

    @pytest.mark.parametrize("k", sorted(PER_LAG_VALUES))
    def test_single_lag_matches_per_lag_quadrature(self, spectrum_interpolant, k):
        assert abs(autocov_exact(k, spectrum_interpolant)
                   - PER_LAG_VALUES[k]) < 1e-15

    @pytest.mark.parametrize("k", sorted(PER_LAG_VALUES))
    def test_per_lag_values_near_elevation_two(self, k):
        assert abs(PER_LAG_VALUES[k] - ELEVATION_TWO_PER_LAG_VALUES[k]) <= 1e-14

    @pytest.mark.parametrize("k", sorted(PER_LAG_VALUES))
    def test_per_lag_values_near_fine_steps(self, k):
        assert abs(PER_LAG_VALUES[k] - FINE_STEP_PER_LAG_VALUES[k]) <= 1e-14

    @pytest.mark.parametrize("k", sorted(PER_LAG_VALUES))
    def test_per_lag_values_near_long_path(self, k):
        assert abs(PER_LAG_VALUES[k] - LONG_PATH_PER_LAG_VALUES[k]) <= 1e-14

    @pytest.mark.parametrize("k", sorted(PER_LAG_VALUES))
    def test_per_lag_values_near_axis_path(self, k):
        assert abs(PER_LAG_VALUES[k] - AXIS_PATH_PER_LAG_VALUES[k]) <= 1e-14

    @pytest.mark.parametrize("k", sorted(PER_LAG_VALUES))
    def test_per_lag_values_near_sized_rule(self, k):
        assert abs(PER_LAG_VALUES[k] - SIZED_RULE_PER_LAG_VALUES[k]) <= 1e-13

    @pytest.mark.parametrize("k", sorted(PER_LAG_VALUES))
    def test_per_lag_values_near_dop853_route(self, k):
        assert abs(PER_LAG_VALUES[k] - DOP853_PER_LAG_VALUES[k]) <= 1e-12


class TestSeriesAndSumRule:
    def test_series_validation(self):
        with pytest.raises(ValueError):
            AutocovSeries(2, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            AutocovSeries(1, np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            AutocovSeries(-1, np.array([]))

    def test_negative_k_max_rejected(self):
        # a negative k_max would slice the values from their end and give
        # a plausible wrong residual
        series = AutocovSeries(10, np.linspace(1.0, 0.1, 11))
        for k_max in (-1, -3):
            with pytest.raises(ValueError):
                sum_rule_residual(k_max, series)
        assert sum_rule_residual(0, series) == 1.0

    def test_constructed_cancellation(self):
        a = 0.7
        series = AutocovSeries(1, np.array([2 * a, -a]))
        assert sum_rule_residual(1, series) == pytest.approx(0.0, abs=0)

    def test_residual_shrinks_with_k_max(self, exact_series):
        series = AutocovSeries(50, exact_series)
        r20 = sum_rule_residual(20, series)
        r50 = sum_rule_residual(50, series)
        assert abs(r50) < abs(r20)

    def test_tail_corrected_residual(self, exact_series):
        series = AutocovSeries(50, exact_series)
        res = sum_rule_residual(50, series)
        corrected = res - dyson_tail_estimate(50)
        assert abs(corrected) < 0.1 * abs(res)
