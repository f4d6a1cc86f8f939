import json
import os
import subprocess
import sys
from functools import lru_cache

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from spacingcov import fredholm, painleve, spectral, store
from spacingcov.spectral import (PowerSpectrumTable, SpectrumConfig,
                                 SpectrumInterpolant, power_spectrum,
                                 power_spectrum_small_omega,
                                 spacing_distribution)

TWO_PI = 2.0 * np.pi

# regression values frozen from knob-convergence runs (nodes and sub-panel
# length varied; stable to ~1e-12).  The panel count they were also varied
# over is no longer a knob: the tail is closed analytically.
FROZEN = {
    0.1: 0.0158819779979,
    0.3: 0.0470759268186,
    1.0: 0.1436605215320,
    2.0: 0.2354088655449,
    3.0: 0.2705019276429,
    np.pi: 0.2710447241763,
}

# power_spectrum as computed by the panel extrapolator that preceded the
# analytic tail closure; the closure must reproduce it to 1e-12
PANEL_EXTRAPOLATOR = {
    0.1: float.fromhex("0x1.0435d80659729p-6"),
    0.3: float.fromhex("0x1.81a55fc3849b9p-5"),
    1.0: float.fromhex("0x1.26377ccda6d5ap-3"),
    2.0: float.fromhex("0x1.e21e0b15a061ep-3"),
    3.0: float.fromhex("0x1.14fe7512b4514p-2"),
    np.pi: float.fromhex("0x1.158cbf885b4d4p-2"),
}

# (value, error) of power_spectrum with one BLAS thread, as float.hex, from
# the route that read exp L off the whole trajectory; read at the
# quadrature nodes only, the same Taylor pieces must give the same bits.
# Every entry is of the one contour (the lift at the series radius, then
# the path at Im t = -4) with the path ending at Lambda = 250, the
# sixth-order Fisher-Hartwig closure fitted on [90, 250] from one design
# matrix, and Taylor steps of order 38 whose last two terms stay below 1e-19
DENSE_ROUTE_BITS = {
    0.05: ("0x1.04997ab22623bp-7", "0x1.fe1cec75dd8e9p-41"),
    0.3: ("0x1.81a55fc38c5b2p-5", "0x1.9db168bc2654bp-40"),
    1.0: ("0x1.26377ccda6cbep-3", "0x1.86fc252bfc29fp-40"),
    2.2: ("0x1.f99918ed235d4p-3", "0x1.4c521c9cba119p-40"),
    2.75: ("0x1.114b2ee949175p-2", "0x1.ae0353873f0e2p-39"),
    3.0: ("0x1.14fe7512b4065p-2", "0x1.0e64cd675a4c5p-38"),
    np.pi: ("0x1.158cbf885b1d7p-2", "0x1.5ae36425e3e93p-38"),
}

# the same (value, error) with the path at Im t = -2 and the tail fits each
# building their own matrix of powers (t/90)^p; the values must agree to
# 1e-13.  The literals below were taken on paths at Im t = -2 as well
ELEVATION_TWO_BITS = {
    0.05: ("0x1.04997ab22e6a5p-7", "0x1.656d26f7f907ep-40"),
    0.3: ("0x1.81a55fc38ca78p-5", "0x1.839100171df62p-41"),
    1.0: ("0x1.26377ccda71ccp-3", "0x1.6c26309d8b055p-40"),
    2.2: ("0x1.f99918ed233f5p-3", "0x1.ef79f76096c32p-41"),
    2.75: ("0x1.114b2ee949265p-2", "0x1.9cac326c08079p-39"),
    3.0: ("0x1.14fe7512b40f4p-2", "0x1.072b4e34f3d83p-38"),
    np.pi: ("0x1.158cbf885b159p-2", "0x1.67a3bf64e34eep-38"),
}

# the same (value, error) with steps of order 30 truncated at 1e-25 and the
# series coefficients from two polynomial residuals each; the values must
# agree to 1e-13
FINE_STEP_BITS = {
    0.05: ("0x1.04997ab231993p-7", "0x1.add13cd19d00dp-41"),
    0.3: ("0x1.81a55fc38da11p-5", "0x1.9aede20fdf217p-39"),
    1.0: ("0x1.26377ccda72e9p-3", "0x1.8c9becd5c6561p-39"),
    2.2: ("0x1.f99918ed2361cp-3", "0x1.202f485ebbed7p-40"),
    2.75: ("0x1.114b2ee94920ap-2", "0x1.921e9b536dd76p-39"),
    3.0: ("0x1.14fe7512b40f8p-2", "0x1.01489083f08c2p-38"),
    np.pi: ("0x1.158cbf885b1a7p-2", "0x1.7e7fb656cebe6p-38"),
}

# the same (value, error) with the path run on to Lambda = 400 and the
# fifth-order closure fitted on [150, 400]; the values must agree to 1e-13
LONG_PATH_BITS = {
    0.05: ("0x1.04997ab233e80p-7", "0x1.31de7e18d385fp-40"),
    0.3: ("0x1.81a55fc38c7c3p-5", "0x1.b698bcdeb5186p-40"),
    1.0: ("0x1.26377ccda7575p-3", "0x1.2b85b6829fcfap-40"),
    2.2: ("0x1.f99918ed236a8p-3", "0x1.3677ab76e3dd3p-38"),
    2.75: ("0x1.114b2ee949300p-2", "0x1.06c484be23f89p-37"),
    3.0: ("0x1.14fe7512b41a2p-2", "0x1.72e7b3d1e4b95p-37"),
    np.pi: ("0x1.158cbf885b195p-2", "0x1.a1e73e6f37818p-37"),
}

# the same (value, error) where omega <= 2.7 ran on the real axis with the
# untracked third-order form; the values must agree to 1e-13
AXIS_PATH_BITS = {
    0.05: ("0x1.04997ab22f4a7p-7", "0x1.19295e8b1f209p-41"),
    0.3: ("0x1.81a55fc38c79bp-5", "0x1.373240ffb17c9p-40"),
    1.0: ("0x1.26377ccda7443p-3", "0x1.0416ba51d0d66p-37"),
    2.2: ("0x1.f99918ed236c1p-3", "0x1.1cb99b20bd835p-39"),
}

# the same (value, error) as scipy's DOP853 stepper gave them, before the
# Taylor stepper; the values must agree to 1e-12
DOP853_ROUTE_BITS = {
    0.05: ("0x1.04997ab2855a9p-7", "0x1.963b1ea4f9ecbp-38"),
    0.3: ("0x1.81a55fc38cb95p-5", "0x1.f5d2c2ba2061dp-39"),
    1.0: ("0x1.26377ccda6619p-3", "0x1.dbd14ad45c9f4p-38"),
    2.2: ("0x1.f99918ed23f0dp-3", "0x1.ddc45f758e9e2p-33"),
    2.75: ("0x1.114b2ee949898p-2", "0x1.d0595c2658fd2p-37"),
    3.0: ("0x1.14fe7512b469bp-2", "0x1.57559214cf1f1p-36"),
    np.pi: ("0x1.158cbf885b88ap-2", "0x1.5c031ddc09653p-35"),
}

# the lifted values as the path at Im t = +1 with its step capped at 0.02
# gave them; the path below the axis must agree to 1e-13
UPPER_PATH_VALUES = {
    2.75: float.fromhex("0x1.114b2ee94971ep-2"),
    3.0: float.fromhex("0x1.14fe7512b4401p-2"),
    np.pi: float.fromhex("0x1.158cbf885b574p-2"),
}

# Glaisher-Kinkelin constant A, for G(1/2) = 2^{1/24} e^{1/8} pi^{-1/4} A^{-3/2}
GLAISHER = 1.2824271291006226368753425688697917277676889273250


class TestPowerSpectrum:
    @pytest.mark.parametrize("omega", sorted(FROZEN))
    def test_regression_values(self, omega):
        val, err = power_spectrum(omega)
        assert abs(val - FROZEN[omega]) < 5e-10
        assert err < 1e-8

    def test_rejects_out_of_range(self):
        for omega in (0.0, -1.0, 3.3):
            with pytest.raises(ValueError):
                power_spectrum(omega)

    @pytest.mark.parametrize("bad", [{"backend": "nystrom"}], ids=str)
    def test_config_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            SpectrumConfig(**bad)

    def test_below_omega_min_uses_closed_form(self):
        val, err = power_spectrum(0.02)
        assert val == power_spectrum_small_omega(0.02)
        assert err > 0

    @pytest.mark.parametrize("backend", ["painleve", "fredholm"])
    @pytest.mark.parametrize("omega", [0.002, 0.005, 0.01])
    def test_untrusted_small_omega_raises(self, omega, backend, monkeypatch):
        # the tail closure understates its error there (see TAIL_OMEGA_MIN);
        # the closed form, below the default OMEGA_MIN, would return
        monkeypatch.setattr(spectral, "OMEGA_MIN", 1e-4)
        with pytest.raises(spectral.TruncationError):
            power_spectrum(omega, SpectrumConfig(backend=backend))

    @pytest.mark.parametrize("omega", [0.015, 0.02])
    def test_trusted_small_omega_returns(self, omega, monkeypatch):
        monkeypatch.setattr(spectral, "OMEGA_MIN", 1e-4)
        val, err = power_spectrum(omega)
        # a value of the exact route, not the closed form, which lacks a
        # term near -1.6e-3 omega^4
        assert val != power_spectrum_small_omega(omega)
        assert abs(val - power_spectrum_small_omega(omega)) < 3e-3 * omega ** 4
        assert err < 1e-10

    @pytest.mark.parametrize("omega", sorted(PANEL_EXTRAPOLATOR))
    def test_matches_panel_extrapolator(self, omega):
        val, _ = power_spectrum(omega)
        assert abs(val - PANEL_EXTRAPOLATOR[omega]) < 1e-12

    def test_bits_match_dense_route(self):
        # the tail fit's lstsq sums in an order that follows the BLAS
        # thread count, so the bits are compared in a one-thread process
        src = os.path.dirname(os.path.dirname(spectral.__file__))
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=src)
        code = ("import json, sys\n"
                "from spacingcov.spectral import power_spectrum\n"
                "print(json.dumps([[v.hex(), e.hex()] for v, e in\n"
                "    (power_spectrum(w) for w in json.loads(sys.argv[1]))]))")
        omegas = sorted(DENSE_ROUTE_BITS)
        out = subprocess.run([sys.executable, "-c", code, json.dumps(omegas)],
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        got = dict(zip(omegas, map(tuple, json.loads(out))))
        assert got == DENSE_ROUTE_BITS

    @pytest.mark.parametrize("omega", sorted(DOP853_ROUTE_BITS))
    def test_values_near_dop853_route(self, omega):
        # test_bits_match_dense_route ties the computed values to the
        # literals; here the literals of both steppers are held together
        val = float.fromhex(DENSE_ROUTE_BITS[omega][0])
        assert abs(val - float.fromhex(DOP853_ROUTE_BITS[omega][0])) <= 1e-12

    @pytest.mark.parametrize("omega", sorted(ELEVATION_TWO_BITS))
    def test_values_near_elevation_two(self, omega):
        # test_bits_match_dense_route ties the computed values to the
        # literals; here the literals of both path depths are held together
        val = float.fromhex(DENSE_ROUTE_BITS[omega][0])
        assert abs(val - float.fromhex(ELEVATION_TWO_BITS[omega][0])) <= 1e-13

    @pytest.mark.parametrize("omega", sorted(FINE_STEP_BITS))
    def test_values_near_fine_steps(self, omega):
        # test_bits_match_dense_route ties the computed values to the
        # literals; here the literals of both step sizes are held together
        val = float.fromhex(DENSE_ROUTE_BITS[omega][0])
        assert abs(val - float.fromhex(FINE_STEP_BITS[omega][0])) <= 1e-13

    @pytest.mark.parametrize("omega", [0.3, 1.0, 2.2, 3.0, np.pi])
    def test_default_truncation_matches_fine_steps(self, omega, monkeypatch):
        # the same order with the steps cut at 1e-25 moved S by at most
        # 2.5e-14 (omega = 2.2) at these omegas, one BLAS thread; the bound
        # is twice that.  At omega = 0.05 it moved S by 1.5e-13: there S
        # follows where the steps fall to about 1e-13, whatever their size
        steps = _spy_steps(monkeypatch)
        val, _ = power_spectrum(omega)
        monkeypatch.setattr(painleve, "TRUNCATION", 1e-25)
        fine = power_spectrum(omega)[0]
        assert steps[1] > steps[0]          # the patch reached the stepper
        assert abs(val - fine) <= 5e-14

    @pytest.mark.parametrize("omega", sorted(LONG_PATH_BITS))
    def test_values_near_long_path(self, omega):
        # test_bits_match_dense_route ties the computed values to the
        # literals; here the literals of both closures are held together
        val = float.fromhex(DENSE_ROUTE_BITS[omega][0])
        assert abs(val - float.fromhex(LONG_PATH_BITS[omega][0])) <= 1e-13

    @pytest.mark.parametrize("omega", [0.05, 0.3, 1.0, 2.2, 3.0, np.pi])
    def test_closure_matches_long_path_closure(self, omega, monkeypatch):
        # the same trajectory run on to Lambda = 400, its tail fitted to
        # fifth order on [150, 400], is the oracle for the default closure
        val, err = power_spectrum(omega)
        monkeypatch.setattr(spectral, "TAIL_START", 400.0)
        monkeypatch.setattr(spectral, "FIT_WINDOW", (150.0, 400.0))
        monkeypatch.setattr(spectral, "FIT_ORDER", 5)
        long_val, long_err = power_spectrum(omega)
        assert abs(val - long_val) <= min(1e-13, err + long_err)

    @pytest.mark.parametrize("omega", sorted(AXIS_PATH_BITS))
    def test_values_near_axis_path(self, omega):
        # test_bits_match_dense_route ties the computed values to the
        # literals; here the literals of both contours are held together
        val = float.fromhex(DENSE_ROUTE_BITS[omega][0])
        assert abs(val - float.fromhex(AXIS_PATH_BITS[omega][0])) <= 1e-13

    @pytest.mark.parametrize("omega", sorted(UPPER_PATH_VALUES))
    def test_lifted_values_near_upper_path(self, omega):
        # test_bits_match_dense_route ties the computed values to the
        # literals; here the literals of both paths are held together
        val, err = (float.fromhex(h) for h in DENSE_ROUTE_BITS[omega])
        assert abs(val - UPPER_PATH_VALUES[omega]) <= 1e-13
        assert err <= 5e-11

    @pytest.mark.parametrize("omega", [0.3, 0.6, 1.0, 2.0, 3.0, np.pi])
    def test_backend_equivalence(self, omega):
        pv, pe = power_spectrum(omega)
        fd, fe = power_spectrum(omega, SpectrumConfig(backend="fredholm"))
        # the two share no code; the worst gap seen is 2.9e-13
        assert abs(pv - fd) < 1e-12
        # and within the two backends' error estimates
        assert abs(pv - fd) <= pe + fe

    def test_small_omega_law_approach(self):
        ratios = []
        for omega in (0.4, 0.2, 0.1, 0.05):
            val, _ = power_spectrum(omega)
            num = val - omega / TWO_PI
            den = omega ** 3 * np.log(omega / TWO_PI) / (4.0 * np.pi ** 3)
            ratios.append(num / den)
        devs = np.abs(np.array(ratios) - 1.0)
        assert np.all(np.diff(devs) < 0)       # closer to 1 as omega drops
        assert devs[-1] < 0.01

    def test_flat_at_band_edge(self):
        # odd-order derivatives vanish at omega = pi: one-sided slope of a
        # fine local grid must be tiny compared to mid-band slopes
        h = 0.01
        om = np.pi - h * np.arange(3)
        v = [power_spectrum(float(w))[0] for w in om]
        slope_edge = abs((3 * v[0] - 4 * v[1] + v[2]) / (2 * h))
        slope_mid = abs(power_spectrum(1.0 + h)[0] - power_spectrum(1.0)[0]) / h
        assert slope_edge < 1e-3 * slope_mid


def _spy_steps(monkeypatch):
    """Record the path steps of every solve that power_spectrum makes."""
    steps = []
    orig = spectral.solve_sigma0

    def spy(zeta, t_max):
        traj = orig(zeta, t_max)
        steps.append(len(traj.t_grid) - 1)
        return traj

    monkeypatch.setattr(spectral, "solve_sigma0", spy)
    return steps


def _spy_tail(monkeypatch):
    """Record the (tail, coarse, C_0, misfit) of every tail closure."""
    fits = []
    orig = spectral._tail

    def spy(v, x, values, elevation):
        out = orig(v, x, values, elevation)
        fits.append((v, out))
        return out

    monkeypatch.setattr(spectral, "_tail", spy)
    return fits


class TestBuiltOncePerOmega:
    def test_series_built_once(self, monkeypatch):
        # one solve builds the sigma0 series once: its radius and its
        # values read the same coefficients
        builds = []
        build = painleve._series_coeffs.__wrapped__

        def recording(z, order):
            builds.append((z, order))
            return build(z, order)
        monkeypatch.setattr(painleve, "_series_coeffs",
                            lru_cache(maxsize=64)(recording))
        power_spectrum(0.7)
        assert builds == [(1.0 - np.exp(0.7j), painleve.SERIES_ORDER)]

    def test_rule_built_once(self, monkeypatch):
        # the head's panels and the lift share one Gauss-Legendre rule,
        # which later omegas reuse
        sizes = []
        leggauss = np.polynomial.legendre.leggauss

        def recording(n):
            sizes.append(n)
            return leggauss(n)
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", recording)
        monkeypatch.setattr(spectral, "_nystrom_rule", lru_cache(maxsize=8)(
            fredholm._nystrom_rule.__wrapped__))
        power_spectrum(0.7)
        power_spectrum(2.9)
        assert sizes == [spectral.PANEL_NODES]


class TestTailClosure:
    def test_g_product_at_one_half(self):
        g_half = (2.0 ** (1 / 24) * np.exp(1 / 8) * np.pi ** -0.25
                  * GLAISHER ** -1.5)
        expect = g_half ** 2 * np.sqrt(np.pi)     # G(3/2) G(1/2)
        assert abs(spectral._barnes_g_product(0.5) - expect) < 1e-15

    def test_g_product_at_zero(self):
        assert spectral._barnes_g_product(0.0) == 1.0

    def test_zeta_matches_scipy(self):
        from scipy.special import zeta
        s = 2.0 * np.arange(2, 41) - 1.0       # the odd values the G series uses
        expect = zeta(s)
        assert np.all(np.abs(spectral._zeta(s) - expect)
                      <= 2 * np.spacing(expect))

    def test_exact_route_loads_no_scipy(self):
        # the spectrum cache key leaves the scipy version out; that holds
        # only while nothing on this route imports scipy
        src = os.path.dirname(os.path.dirname(spectral.__file__))
        code = ("import sys, spacingcov.spectral, spacingcov.autocov\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("omega", [0.1, 1.0, 3.0])
    def test_fitted_c0_matches_closed_form(self, omega, monkeypatch):
        fits = _spy_tail(monkeypatch)
        power_spectrum(omega)
        (v, (_, _, c0, misfit)), = fits
        exact = spectral._barnes_g_product(v) ** 2
        assert abs(c0 / exact - 1.0) < 1e-9
        assert misfit < 1e-12

    @pytest.mark.parametrize("omega", [0.05, 0.123, 1.0, 2.75, np.pi])
    def test_one_matrix_matches_two_fits(self, omega):
        # the construction the one design matrix replaced: each order's fit
        # built its own matrix of powers (t/lo)^p and its own ray sums
        def two_call_tail(v, x, values, elevation, order):
            lo = spectral.FIT_WINDOW[0]
            rates = v + spectral.FIT_SHIFTS
            powers = -2.0 * rates[:, None] ** 2 - np.arange(order)
            t = (x + 1j * elevation)[:, None, None]
            A = ((t / lo) ** powers
                 * np.exp(1j * rates[:, None] * t)).reshape(len(x), -1)
            amp = np.linalg.lstsq(A, values, rcond=None)[0]
            misfit = np.linalg.norm(A @ amp - values) / np.linalg.norm(values)
            lx, lw = spectral._laguerre_rule()
            sgn, speed = np.sign(rates), np.abs(rates)
            t_L = spectral.TAIL_START + 1j * elevation
            rays = t_L + 1j * (sgn / speed)[:, None] * lx
            ray_sums = np.einsum("k,jmk->jm", lw, (rays[:, None, :] / lo)
                                 ** powers[:, :, None])
            terms = ((1j * sgn / speed * np.exp(1j * rates * t_L))[:, None]
                     * ray_sums)
            c0 = (amp.reshape(powers.shape)[spectral.FIT_SHIFTS == 0, 0][0]
                  * lo ** (2.0 * v * v))
            return complex(amp @ terms.ravel()), complex(c0), float(misfit)

        x, _, values, _, elevation = spectral._painleve_path(
            omega, spectral.TAIL_START)
        lo, hi = spectral.FIT_WINDOW
        fit = (x >= lo) & (x <= hi)
        args = (omega / TWO_PI, x[fit], values[fit], elevation)
        tail, coarse, c0, misfit = spectral._tail(*args)
        old_tail, old_c0, old_misfit = two_call_tail(*args, spectral.FIT_ORDER)
        old_coarse = two_call_tail(*args, spectral.FIT_ORDER - 1)[0]
        # measured at these and three more omegas, with one and two BLAS
        # threads: S moves by at most 9.5e-14 through either tail (omega =
        # 0.05), C_0 by 1.7e-13 relative, the misfit by 1.3e-15
        assert abs(tail.real - old_tail.real) / np.pi <= 2e-13
        assert abs(coarse.real - old_coarse.real) / np.pi <= 2e-13
        assert abs(c0 / old_c0 - 1.0) <= 5e-13
        assert abs(misfit - old_misfit) <= 5e-15

    def test_bad_fit_raises(self, monkeypatch):
        # without the t^-m corrections the lifted-path fit at omega = 2.95
        # is visibly off (misfit 8e-4, C_0 off by 2.8e-3): no value may come
        # back.
        monkeypatch.setattr(spectral, "FIT_ORDER", 1)
        with pytest.raises(spectral.TruncationError):
            power_spectrum(2.95)

    @pytest.mark.parametrize("omega", [0.05, 0.3, 1.0, 3.0])
    def test_error_estimate_covers_knob_spread(self, omega, monkeypatch):
        steps = _spy_steps(monkeypatch)
        val, err = power_spectrum(omega)
        with monkeypatch.context() as tight:
            tight.setattr(painleve, "TRUNCATION", 1e-27)
            moved = [power_spectrum(omega)[0]]
        assert steps[1] > steps[0]          # the patch reached the stepper
        lo, hi = spectral.FIT_WINDOW
        for shift in (-25.0, 25.0):
            monkeypatch.setattr(spectral, "FIT_WINDOW",
                                (lo + shift, hi + shift))
            moved.append(power_spectrum(omega)[0])
        assert np.all(np.abs(np.array(moved) - val) <= err)


class TestSmallOmegaForm:
    def test_leading_term(self):
        x = 1e-5
        assert abs(power_spectrum_small_omega(TWO_PI * x) - x) < 1e-12

    def test_closed_form_arithmetic(self):
        omega = 0.1
        expect = 0.1 / TWO_PI + (0.001 / (4 * np.pi ** 3)) * np.log(0.1 / TWO_PI)
        assert power_spectrum_small_omega(omega) == pytest.approx(expect, abs=0)

    def test_remainder_bound_vs_exact(self):
        omega = 0.1
        exact, _ = power_spectrum(omega)
        assert abs(power_spectrum_small_omega(omega) - exact) < 5 * omega ** 4

    def test_validity_guard(self):
        with pytest.raises(ValueError):
            power_spectrum_small_omega(0.5)
        with pytest.raises(ValueError):
            power_spectrum_small_omega(np.array([0.1, np.nan]))

    def test_elementwise_on_arrays(self):
        omegas = np.linspace(0.001, 0.2, 50)
        expect = [power_spectrum_small_omega(float(w)) for w in omegas]
        assert np.array_equal(power_spectrum_small_omega(omegas), expect)


def _richardson_second_difference(s, h=1e-3):
    """P(s) as the gap probability's Richardson-extrapolated central second
    differences with steps h and h/2: the finite-difference route that the
    closed form replaced, kept as its reference."""
    gap = fredholm.gap_probability

    def second_diff(step):
        return (gap(s - step) - 2.0 * gap(s) + gap(s + step)) / step ** 2

    return (4.0 * second_diff(0.5 * h) - second_diff(h)) / 3.0


class TestSpacingDistribution:
    def test_normalization_and_mean(self):
        x, w = np.polynomial.legendre.leggauss(60)
        s = 3.0 * (x + 1.0)
        W = 3.0 * w
        P = np.array([spacing_distribution(float(v)) for v in s])
        # measured: -5.6e-15 and -5.9e-15
        assert abs(W @ P - 1.0) < 1e-12
        assert abs(W @ (s * P) - 1.0) < 1e-12

    def test_matches_fredholm_second_differences(self):
        # criterion 2's grid; its smallest node, 0.0024, clears the stencil
        x, _ = np.polynomial.legendre.leggauss(60)
        s = 3.0 * (x + 1.0)
        P = np.array([spacing_distribution(float(v)) for v in s])
        fd = np.array([_richardson_second_difference(float(v)) for v in s])
        # measured 1.07e-8: the differences' own error
        assert np.max(np.abs(P - fd)) < 1e-7

    @pytest.mark.parametrize("s", [1e-8, 1e-4])
    def test_small_s_expansion(self, s):
        # the series of the bracket keeps P relative as s -> 0, where the
        # state formula cancels (2e-16 relative measured at both)
        expect = np.pi ** 2 / 3 * s ** 2 - 2 * np.pi ** 4 / 45 * s ** 4
        assert spacing_distribution(s) == pytest.approx(expect, rel=1e-13, abs=0)

    @pytest.mark.parametrize("s", [12.0, 20.0])
    def test_large_s_raises(self, s):
        # the computed state's imaginary part is O(1) of P from s = 13 on;
        # at s = 20 the unchecked value was -7.3e-184
        with pytest.raises(painleve.SolverError):
            spacing_distribution(s)

    def test_level_repulsion_exponent(self):
        s = np.array([0.05, 0.1, 0.2])
        P = np.array([spacing_distribution(float(v)) for v in s])
        slope = np.polyfit(np.log(s), np.log(P), 1)[0]
        assert abs(slope - 2.0) < 0.1

    def test_zero_at_origin(self):
        assert spacing_distribution(0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spacing_distribution(-0.5)

    @pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, s):
        with pytest.raises(ValueError):
            spacing_distribution(s)


class TestTable:
    def test_build(self):
        table = PowerSpectrumTable.build([0.5, 1.0, 2.0])
        assert np.all(table.values > 0)
        assert np.all(np.isfinite(table.values))

    def test_low_end_consistent_with_small_omega_form(self):
        table = PowerSpectrumTable.build([0.08, 0.12])
        for w, v, e in zip(table.omegas, table.values, table.err_estimates):
            law = power_spectrum_small_omega(float(w))
            assert abs(v - law) < 5 * w ** 4 + e

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            PowerSpectrumTable.build([])
        with pytest.raises(ValueError):
            PowerSpectrumTable.build([1.0, 0.5])


class TestInterpolant:
    def test_matches_direct_evaluation(self, spectrum_interpolant):
        for w in (0.07, 0.4, 1.7, 3.0):
            direct, _ = power_spectrum(w)
            assert abs(spectrum_interpolant(w) - direct) < 1e-9

    def test_zero_maps_to_zero(self, spectrum_interpolant):
        assert spectrum_interpolant(0.0) == 0.0

    def test_rejects_non_finite(self, spectrum_interpolant):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                spectrum_interpolant(bad)
            with pytest.raises(ValueError):
                spectrum_interpolant(np.array([1.0, bad]))

    def test_vectorized_matches_pointwise(self, spectrum_interpolant):
        interp = spectrum_interpolant
        omegas = np.concatenate([
            [0.0], np.linspace(0.0, interp.omega_min, 7)[1:-1], interp.edges,
            [np.pi], np.linspace(0.01, np.pi, 301)])

        def pointwise(w):
            if w == 0.0:
                return 0.0
            if w < interp.omega_min:
                return power_spectrum_small_omega(w)
            j = min(int(np.searchsorted(interp.edges, w, side="right")) - 1,
                    len(interp.coeffs) - 1)
            lo, hi = interp.edges[j], interp.edges[j + 1]
            return chebval(2.0 * (w - lo) / (hi - lo) - 1.0, interp.coeffs[j])

        expect = np.array([pointwise(float(w)) for w in omegas])
        assert np.array_equal(interp(omegas), expect)

    def test_cache_file_keyed_by_config_and_nodes(self, tmp_path, monkeypatch):
        calls = []

        def counting_stub(omega, config=spectral.DEFAULT_SPECTRUM_CONFIG):
            calls.append(omega)
            return omega * (2.0 if config.backend == "fredholm" else 1.0), 0.0

        monkeypatch.setattr(spectral, "power_spectrum", counting_stub)
        path = str(tmp_path / "spectrum.npz")

        def build(config=spectral.DEFAULT_SPECTRUM_CONFIG, nodes=4):
            calls.clear()
            return SpectrumInterpolant.build(config, nodes=nodes,
                                             cache_path=path)

        build(SpectrumConfig(backend="fredholm"))
        assert calls
        fresh = build()                     # other backend: rebuilt
        assert calls
        cached = build()                    # matching file: reused
        assert calls == []
        for a, b in zip(fresh.coeffs, cached.coeffs):
            assert np.array_equal(a, b)
        build(nodes=5)                      # other node count: rebuilt
        assert calls
        with open(path, "rb") as fh:
            whole = fh.read()
        for broken in (whole[: len(whole) // 2], b""):
            with open(path, "wb") as fh:    # a write cut short
                fh.write(broken)
            build(nodes=5)                  # unreadable: rebuilt
            assert calls
            build(nodes=5)                  # and overwritten whole
            assert calls == []

    def test_cache_file_keyed_by_source_hash(self, tmp_path, monkeypatch):
        # the digest of a copy of the three source files stands in for the
        # package's
        calls = []

        def counting_stub(omega, config=spectral.DEFAULT_SPECTRUM_CONFIG):
            calls.append(omega)
            return omega, 0.0

        monkeypatch.setattr(spectral, "power_spectrum", counting_stub)
        sources = []
        for src in spectral._SOURCES:
            copy = tmp_path / os.path.basename(src)
            copy.write_bytes(open(src, "rb").read())
            sources.append(str(copy))
        monkeypatch.setattr(spectral, "_SOURCE_DIGEST", store.digest(sources))
        path = str(tmp_path / "spectrum.npz")

        def build():
            calls.clear()
            SpectrumInterpolant.build(nodes=4, cache_path=path)

        build()
        assert calls
        build()                             # same sources: reused
        assert calls == []
        for i, src in enumerate(sources):   # any edit of any of the three
            edit = tmp_path / f"edit{i}"
            edit.mkdir()
            copy = edit / os.path.basename(src)
            copy.write_bytes(open(src, "rb").read() + b"\n")
            monkeypatch.setattr(spectral, "_SOURCE_DIGEST", store.digest(
                (*sources[:i], str(copy), *sources[i + 1:])))
            build()                         # changed hash: rebuilt
            assert calls
            build()
            assert calls == []
        monkeypatch.setattr(np, "__version__", np.__version__ + "+other")
        build()                             # another numpy: rebuilt
        assert calls
