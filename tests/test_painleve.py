import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacingcov import painleve
from spacingcov.fredholm import sine_kernel_det_auto
from spacingcov.painleve import (BranchAmbiguityError, log_generating_function,
                                 series_sigma0, solve_sigma0)

TWO_PI = 2.0 * np.pi


def residual(traj, x) -> np.ndarray:
    """|(t s'')^2 + f (f + 4 s'^2)| / max(1, |s|^2) along the path of traj.

    sigma'' is re-derived by differentiating sigma' with central
    differences, independently of the branch selection.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    # (t sigma'')^2 is large off the real axis, so the stencil must
    # deliver sigma'' to ~1e-11: a wide 7-point rule keeps the state
    # noise averaged down while its h^6 truncation stays negligible
    h = 4e-3
    out = np.empty(x.shape)
    for i, xi in enumerate(x):
        t = xi + 1j * traj.elevation if xi > traj.series_radius else xi
        s, sp = traj._eval(xi, 0)[0], traj._eval(xi, 1)[0]
        if xi > 3 * h + 1e-3:
            vals = traj._eval(xi + h * np.array([-3, -2, -1, 1, 2, 3]), 1)
            spp_fd = np.dot([-1, 9, -45, 45, -9, 1], vals) / (60.0 * h)
        else:
            lo = max(xi - h, 1e-3)
            sp_lo, sp_hi = traj._eval([lo, xi + h], 1)
            spp_fd = (sp_hi - sp_lo) / (xi + h - lo)
        f = t * sp - s
        g = (t * spp_fd) ** 2 + f * (f + 4.0 * sp * sp)
        out[i] = abs(g) / max(1.0, abs(s) ** 2)
    return out


class TestSeries:
    def test_leading_coefficients_zeta_one(self):
        c = series_sigma0(1.0, 2)
        assert abs(c[0] - (-1.0 / TWO_PI)) < 1e-15
        assert abs(c[1] - (-1.0 / (4.0 * np.pi ** 2))) < 1e-15

    def test_zeta_zero_all_coefficients_vanish(self):
        assert np.all(series_sigma0(0.0, 8) == 0)

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            series_sigma0(1.0, 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            series_sigma0(float("inf"), 4)

    def test_third_coefficient_satisfies_equation(self):
        # substitute c1, c2 and an unknown c3 into the equation truncated
        # at the lowest order containing c3 (t^3: the square and cross
        # terms each contribute); the linear solve is reproduced here
        # independently of the library recursion
        c = series_sigma0(1.0, 3)

        def residual_t3(c3):
            # coefficient of t^3 of (t s'')^2 + f^2 + 4 f s'^2, f = t s' - s
            coeffs = np.array([0.0, c[0], c[1], c3], dtype=complex)
            from numpy.polynomial import polynomial as npoly
            sp = np.arange(1, 4) * coeffs[1:]
            spp = np.arange(1, 3) * sp[1:]
            t_spp = np.concatenate(([0.0], spp))
            f = np.concatenate(([0.0], sp)) - coeffs[:4]
            g = npoly.polyadd(npoly.polymul(t_spp, t_spp), npoly.polymul(f, f))
            g = npoly.polyadd(g, 4.0 * npoly.polymul(f, npoly.polymul(sp, sp)))
            return g[3]

        r0, r1 = residual_t3(0.0), residual_t3(1.0)
        assert abs(c[2] - (-r0 / (r1 - r0))) < 1e-14

    @pytest.mark.parametrize("zeta", [1.0, 0.5, 1.0 - np.exp(0.7j),
                                      1.0 - np.exp(3j)])
    def test_recurrence_matches_polymul_construction(self, zeta):
        # the construction the recurrence replaced: c_n from two residuals
        # of the whole polynomial, at c_n = 0 and c_n = 1.  Some c_n cancel
        # far below the terms that make them (c_12 = 2.8e-13 at zeta = 1),
        # so both carry errors up to 3e-11 of their own size against a
        # 50-digit evaluation; measured against the largest coefficient the
        # two differ by at most 4.4e-17
        from numpy.polynomial import polynomial as npoly

        def residual_coeff(coeffs, n):
            # coefficient of t^n of (t s'')^2 + f^2 + 4 f s'^2, f = t s' - s
            sp = np.arange(1, len(coeffs)) * coeffs[1:]
            spp = np.arange(1, len(sp)) * sp[1:]
            t_spp = np.concatenate(([0.0], spp))
            f = np.concatenate(([0.0], sp)) - coeffs[: len(sp) + 1]
            g = npoly.polymul(t_spp, t_spp)
            g = npoly.polyadd(g, npoly.polymul(f, f))
            g = npoly.polyadd(g, 4.0 * npoly.polymul(f, npoly.polymul(sp, sp)))
            return g[n] if n < len(g) else 0.0

        old = np.zeros(15, dtype=complex)
        old[1], old[2] = -zeta / TWO_PI, -(zeta / TWO_PI) ** 2
        for n in range(3, 15):
            r0 = residual_coeff(old, n)
            old[n] = 1.0
            old[n] = -r0 / (residual_coeff(old, n) - r0)
        new = series_sigma0(zeta, 14)
        assert np.max(np.abs(new - old[1:])) <= 1e-14 * np.max(np.abs(old))

    def test_series_out_of_float_range_raises(self):
        # at zeta = 1e25 the coefficients overflow; at zeta = 1e4 they do
        # not, but the series has not converged at t = 1e-3, where the
        # radius search ends: neither may return a value
        with pytest.raises(ValueError, match="overflows"):
            series_sigma0(1e25, 14)
        for zeta in (1e25, 1e4):
            with pytest.raises(ValueError):
                solve_sigma0(zeta, 5.0)

    def test_cached_series_is_read_only(self):
        z = 1.0 - np.exp(0.7j)
        cached = painleve._series_coeffs(z, 8)
        with pytest.raises(ValueError):
            cached[0] = 0.0
        c = series_sigma0(z, 8)
        assert np.array_equal(c, cached)
        c[0] = 0.0                              # a fresh, writable copy
        assert cached[0] != 0.0
        assert painleve._series_coeffs(z, 8) is cached

    @given(st.floats(min_value=0.05, max_value=np.pi))
    @settings(max_examples=20, deadline=None)
    def test_conjugation_symmetry_of_series(self, omega):
        z = 1.0 - np.exp(1j * omega)
        a = series_sigma0(z, 8)
        b = series_sigma0(np.conj(z), 8)
        assert np.allclose(np.conj(a), b, rtol=0, atol=1e-14)


class TestSolver:
    def test_zero_parameter_gives_zero_trajectory(self):
        traj = solve_sigma0(0.0, 10.0)
        x = np.linspace(0.0, 10.0, 11)
        assert np.all(traj._eval(x, 0) == 0)
        assert np.all(traj.eval_log_integral(x) == 0)

    def test_boundary_values(self):
        traj = solve_sigma0(1.0, 5.0)
        assert traj._eval(0.0, 0)[0] == 0
        assert traj.eval_log_integral(0.0)[0] == 0

    def test_small_t_matches_two_term_expansion(self):
        traj = solve_sigma0(1.0, 5.0)
        for t in (1e-3, 5e-3):
            approx = -t / TWO_PI - (t / TWO_PI) ** 2
            assert abs(traj._eval(t, 0)[0] - approx) < 1e-7

    def test_solver_matches_series_inside_half_radius(self):
        traj = solve_sigma0(1.0 - np.exp(1j * 1.0), 5.0)
        t = 0.5 * traj.series_radius
        ser = traj._series(t, 0)
        assert abs(traj._eval(t, 0)[0] - ser) < 1e-10

    def test_real_zeta_stays_real_and_negative(self):
        # on the real axis L is real and strictly decreasing, so that
        # sigma = t L' < 0; the path itself runs below the axis
        for zeta in (0.3, 1.0):
            traj = solve_sigma0(zeta, 8.0)
            L = np.array([traj.log_integral_real_axis(lam)
                          for lam in np.linspace(0.5, 8.0, 16)])
            assert np.max(np.abs(L.imag)) < 1e-10
            assert np.all(np.diff(L.real) < 0)

    def test_conjugate_trajectories(self):
        # the path of conj(zeta) runs at the mirror point of its own, so
        # the two are compared on the real axis
        z = 1.0 - np.exp(1j * 0.7)
        a, b = ([traj.log_integral_real_axis(lam) for lam in (2.0, 5.0)]
                for traj in (solve_sigma0(w, 6.0) for w in (z, np.conj(z))))
        assert np.allclose(np.conj(a), b, rtol=0, atol=1e-10)

    def test_residual_below_tolerance(self):
        traj = solve_sigma0(1.0 - np.exp(1j * 2.0), 20.0)
        res = residual(traj, np.linspace(1.0, 19.0, 12))
        assert np.max(res) < 1e-9

    def test_residual_on_elevated_path(self):
        # zeta = 2 is omega = pi: the default path runs below the axis
        traj = solve_sigma0(2.0, 20.0)
        assert traj.elevation == painleve.ELEVATION < 0
        res = residual(traj, np.linspace(1.0, 19.0, 8))
        assert np.max(res) < 1e-9

    def test_rejects_bad_t_max(self):
        with pytest.raises(ValueError):
            solve_sigma0(1.0, 0.0)

    @pytest.mark.parametrize("t_max", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_t_max(self, t_max):
        # unchecked, a nan t_max gives the series alone and an infinite one
        # a solve that never ends
        with pytest.raises(ValueError):
            solve_sigma0(1.0, t_max)
        with pytest.raises(ValueError):
            log_generating_function(1.0, t_max)

    def test_nan_state_raises(self, monkeypatch):
        # a nan state at the end of the fifth step along the path gives nan
        # Taylor coefficients; min() passes over a nan step size, so
        # unchecked the solve would cross the rest of the path in one step
        # and return nan
        z = 1.0 - np.exp(1.0j)
        state_at, ends = painleve._state_at, []

        def poisoned(a, l, tau):
            s, sp, spp, L = state_at(a, l, tau)
            if isinstance(tau, float):          # along the path, not the lift
                ends.append(tau)
                if len(ends) == 5:
                    return complex(np.nan), sp, spp, L
            return s, sp, spp, L

        monkeypatch.setattr(painleve, "_state_at", poisoned)
        with pytest.raises(painleve.SolverError, match="nan") as info:
            solve_sigma0(z, 50.0)
        assert not isinstance(info.value, BranchAmbiguityError)
        t0 = painleve._Series(z).radius()
        assert len(ends) == 5
        assert abs(info.value.t_star - (t0 + sum(ends))) < 1e-12

    @pytest.mark.parametrize("omega, t_max", [(1.3, 30.0), (3.0, 20.0)],
                             ids=["real", "lifted"])
    def test_vectorized_evaluators_match_pointwise(self, omega, t_max):
        z = 1.0 - np.exp(1j * omega)
        traj = solve_sigma0(z, t_max)
        assert traj.t_max == t_max
        x = np.concatenate([[0.0, 0.5 * traj.series_radius, traj.series_radius],
                            traj.t_grid, np.linspace(0.1, t_max, 41)])
        x = np.random.default_rng(0).permutation(x)

        def pointwise(row):
            # one point at a time, from the Taylor piece that holds it
            return np.array([traj._series(np.array([xi]), row)[0]
                             if xi <= traj.series_radius
                             else traj._path(np.array([xi]), row)[0]
                             for xi in x])

        assert np.array_equal(traj._eval(x, 0), pointwise(0))
        assert np.array_equal(traj.eval_log_integral(x), pointwise(-1))
        # nothing is extrapolated beyond the integrated path
        for bad in (-1e-9, np.nextafter(t_max, np.inf), 2.0 * t_max, np.nan):
            for evaluate in (lambda x: traj._eval(x, 0),
                             traj.eval_log_integral,
                             traj.log_integral_real_axis):
                with pytest.raises(ValueError):
                    evaluate(bad)
            with pytest.raises(ValueError):
                traj.eval_log_integral([1.0, bad])
        tau = np.array([0.0, 0.3, 0.7, 1.0]) * traj.elevation
        assert np.array_equal(traj.vertical_log_integral(tau),
                              [traj._lift(np.array([v]), -1)[0] for v in tau])
        for bad in (1.5 * traj.elevation, -0.3 * traj.elevation):
            with pytest.raises(ValueError):
                traj.vertical_log_integral(bad)
        # a solve that ends inside the series radius takes no step, reads
        # L from the series and has no lift
        short = solve_sigma0(z, 0.1)
        assert np.array_equal(short.t_grid, [0.0])
        assert np.array_equal(short.eval_log_integral([0.05, 0.1]),
                              short._series(np.array([0.05, 0.1]), -1))
        with pytest.raises(ValueError):
            short.vertical_log_integral([-1.0])

    @pytest.mark.parametrize("omega", [2.8, np.pi])
    def test_lifted_descent_below_t_max(self, omega):
        # the descent starts on the sigma'' branch of the trajectory at
        # lambda itself, wherever the integration ended
        z = 1.0 - np.exp(1j * omega)
        for t_max in (10.0, 30.0):
            traj = solve_sigma0(z, t_max)
            assert traj.elevation
            for lam in (0.7, 2.0, 5.0, 9.0, 10.0):
                det = sine_kernel_det_auto(z, lam / TWO_PI)
                L = traj.log_integral_real_axis(lam)
                assert abs(np.exp(L) - det) < 1e-8


    def test_step_budget_near_pi(self):
        # at omega = 3 the poles of sigma lie on or just above the real
        # axis; a path at Im t = -4 keeps them far enough off to take 181
        # steps to t = 250, against 292 at Im t = -2
        traj = solve_sigma0(1.0 - np.exp(3.0j), 250.0)
        assert len(traj.t_grid) - 1 <= 200

    @pytest.mark.parametrize("omega", [0.3, 1.5, 2.6, 2.8, np.pi])
    def test_exp_l_matches_determinant_to_400(self, omega):
        # every omega takes the path at Im t = ELEVATION and its
        # descents; the worst seen was 9.7e-13 (omega = 1.5, lambda = 399)
        z = 1.0 - np.exp(1j * omega)
        traj = solve_sigma0(z, 400.0)
        assert traj.elevation == painleve.ELEVATION
        for lam in (5.0, 50.0, 200.0, 399.0):
            det = sine_kernel_det_auto(z, lam / TWO_PI)
            assert abs(np.exp(traj.log_integral_real_axis(lam)) - det) < 1e-11


class TestBranchChoice:
    def test_tie_raises(self):
        # a tracked value a quarter turn from both roots decides nothing
        t, s, sp = 5.0 + 1.0j, -0.3 + 0.2j, 0.1 - 0.4j
        f = t * sp - s
        r = np.sqrt(-f * (f + 4.0 * sp * sp)) / t
        assert painleve._select_spp(t, s, sp, 0.9 * r) == r
        assert painleve._select_spp(t, s, sp, -1.1 * r) == -r
        for prev in (1j * r, -2j * r, 0.0):
            with pytest.raises(BranchAmbiguityError) as info:
                painleve._select_spp(t, s, sp, prev)
            assert info.value.t_star == t

    def test_upper_path_passes_the_old_near_tie(self, monkeypatch):
        # at omega = 2.95 a path at Im t = +1 runs among the determinant's
        # zeros, past poles of sigma near 505.8 + i and a near-zero of
        # sigma'' near 508.9 + i.  A solver that chose the branch at each of
        # its own stages met a tie there; a Taylor piece carries sigma'' to
        # the next centre, where it points along one root, and the descents
        # match the Fredholm determinant beyond it
        z = 1.0 - np.exp(2.95j)
        monkeypatch.setattr(painleve, "ELEVATION", 1.0)
        traj = solve_sigma0(z, 600.0)
        assert traj.elevation == 1.0        # the patch reached the solve
        for lam in (505.0, 510.0, 550.0, 599.0):
            det = sine_kernel_det_auto(z, lam / TWO_PI)
            assert abs(np.exp(traj.log_integral_real_axis(lam)) - det) < 1e-11

    def test_path_turned_off_branch_raises(self, monkeypatch):
        # every centre of a lifted path checks the sigma'' carried to it:
        # turned a quarter turn at the end of the tenth step along the
        # path, it decides nothing and the solve stops at that centre
        z = 1.0 - np.exp(3.0j)
        state_at, ends = painleve._state_at, []

        def turned(a, l, tau):
            s, sp, spp, L = state_at(a, l, tau)
            if isinstance(tau, float):          # along the path, not the lift
                ends.append(tau)
                if len(ends) == 10:
                    return s, sp, 1j * spp, L
            return s, sp, spp, L

        monkeypatch.setattr(painleve, "_state_at", turned)
        with pytest.raises(BranchAmbiguityError) as info:
            solve_sigma0(z, 20.0)       # 15 steps along the path, unturned
        t0 = painleve._Series(z).radius()
        elevation = painleve.ELEVATION
        assert len(ends) == 10
        assert abs(info.value.t_star - complex(t0 + sum(ends), elevation)) < 1e-12

    def test_default_path_passes_the_near_tie(self):
        # below the axis no zero of the determinant lies near the path:
        # the same solve goes past t = 509 and its descents match the
        # Fredholm determinant
        z = 1.0 - np.exp(2.95j)
        traj = solve_sigma0(z, 600.0)
        assert traj.elevation < 0
        for lam in (505.0, 510.0, 550.0, 599.0):
            det = sine_kernel_det_auto(z, lam / TWO_PI)
            assert abs(np.exp(traj.log_integral_real_axis(lam)) - det) < 1e-11

    def test_lift_seeded_off_branch_raises(self, monkeypatch):
        # a lifted solve whose seed sigma'' is turned a quarter turn away
        # from both roots stops at the foot of the lift
        z = 1.0 - np.exp(3.0j)
        t0 = painleve._Series(z).radius()
        series = painleve._Series.__call__
        monkeypatch.setattr(
            painleve._Series, "__call__", lambda self, t, row:
            1j * series(self, t, row) if row == 2 else series(self, t, row))
        with pytest.raises(BranchAmbiguityError) as info:
            solve_sigma0(z, 5.0)
        assert info.value.t_star == t0


class TestLogGeneratingFunction:
    def test_zero_lambda(self):
        assert log_generating_function(1.0 - np.exp(1j), 0.0) == 0

    def test_gap_probability_link_zeta_one(self):
        # at lam = 2 pi s the exponential is the gap probability
        L = log_generating_function(1.0, TWO_PI * 1.0)
        from spacingcov.fredholm import gap_probability
        assert abs(np.exp(L) - gap_probability(1.0)) < 1e-12  # 8.5e-17 seen
        # zeta = 1 is off the circle and takes the same contour: its
        # descents match the determinant (7e-16 seen)
        traj = solve_sigma0(1.0, 30.0)
        for lam in (0.5, 2.0, 5.0, 10.0, 20.0, 30.0):
            det = sine_kernel_det_auto(1.0, lam / TWO_PI)
            assert abs(np.exp(traj.log_integral_real_axis(lam)) - det) < 1e-12

    @pytest.mark.parametrize("omega", [np.pi / 8, np.pi / 4, np.pi / 2,
                                       3 * np.pi / 4, np.pi])
    def test_determinant_oracle(self, omega):
        z = 1.0 - np.exp(1j * omega)
        for lam in (5.0, 30.0):
            L = log_generating_function(z, lam)
            det = sine_kernel_det_auto(z, lam / TWO_PI)
            assert abs(np.exp(L) - det) < 1e-8

    @pytest.mark.parametrize("omega", [0.9, 3.0], ids=["real", "lifted"])
    def test_history_independence(self, omega):
        # a smaller lambda asked for first at the same zeta must not change
        # the value: every call integrates afresh
        z = 1.0 - np.exp(1j * omega)
        log_generating_function(z, 1.0)
        L = log_generating_function(z, 5.0)
        assert L == solve_sigma0(z, 5.0).log_integral_real_axis(5.0)
