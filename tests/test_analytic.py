import cmath
import math
from fractions import Fraction
from itertools import islice

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from congruence_stacks import analytic
from congruence_stacks.analytic import (
    CircleProfile,
    circle_profile,
    congruence_product,
    congruence_product_main,
    contour_tail,
    cubic_model,
    cubic_remainder_check,
    decay_precision,
    dedekind_eta,
    eta_inversion_residual,
    false_theta,
    false_theta_series_residual,
    major_arc_integral,
    product_decay_fit,
    product_residual,
    tanh_sinh,
    theta_product,
    theta_sum,
    theta_transform_residual,
)
from congruence_stacks.asymptotics import ArcContext
from congruence_stacks.params import StackParams
from congruence_stacks.qseries import congruence_partition_gf, false_theta_gf

P13 = StackParams(1, 3)
P14 = StackParams(1, 4)
P15 = StackParams(1, 5)

TAU = mp.mpc("0.13", "0.21")
W = mp.mpc("0.31", "0.07")

taus = st.builds(
    mp.mpc,
    st.floats(-0.45, 0.45).map(lambda v: mp.mpf(repr(v))),
    st.floats(0.09, 0.7).map(lambda v: mp.mpf(repr(v))),
)
# the whole documented domain: every real part, not only the principal strip
wide_taus = st.builds(
    mp.mpc,
    st.floats(-3, 3).map(lambda v: mp.mpf(repr(v))),
    st.floats(0.09, 0.7).map(lambda v: mp.mpf(repr(v))),
)
# fixed points on -1 < Re tau <= 1 down to Im tau = 0.01, where the Gaussian sums
# run longest.  The edge Re tau = 1 is approached, not hit: there the nome
# e^{pi i tau} is a negative real, and mpmath 1.3's jtheta misses theta by up to
# 0.3 at 130 and 160 digits (right at 80 and 200).
NEAR_AXIS_TAUS = [
    mp.mpc(x, y)
    for x, y in (("0", "0.01"), ("0.37", "0.01"), ("-0.93", "0.01"), ("0.999", "0.02"), ("0.5", "0.05"), ("-0.21", "0.3"))
]
ws = st.builds(
    mp.mpc,
    st.floats(-0.5, 0.5).map(lambda v: mp.mpf(repr(v))),
    st.floats(-0.5, 0.5).map(lambda v: mp.mpf(repr(v))),
)


class TestTheta:
    def test_sum_matches_triple_product(self):
        assert abs(theta_sum(W, TAU, 50) - theta_product(W, TAU, 50)) < mp.mpf("1e-45")

    def test_modular_transform(self):
        assert theta_transform_residual(W, TAU, 50) < mp.mpf("1e-45")

    def test_oddness(self):
        assert abs(theta_sum(-W, TAU, 50) + theta_sum(W, TAU, 50)) < mp.mpf("1e-45")

    def test_zero_at_lattice_points(self):
        # theta vanishes at w in Z tau + Z; the lattice points must be formed
        # at working precision or the zero is missed by the ambient rounding
        with mp.workdps(65):
            points = (mp.mpc(0), mp.mpc(1), TAU, 2 + 3 * TAU)
        for w0 in points:
            assert abs(theta_sum(w0, TAU, 50)) < mp.mpf("1e-45")

    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError):
            theta_sum(W, mp.mpc("0.1", "-0.2"), 50)

    @pytest.mark.parametrize("dps", [50, 100])
    def test_sum_matches_mpmath_jtheta_near_the_real_axis(self, dps):
        # theta(w; tau) = -theta_1(pi w | e^{pi i tau}) in mpmath's convention
        for tau in NEAR_AXIS_TAUS:
            for w in (W, mp.mpc("-0.45", "-0.5")):
                with mp.workdps(dps + 30):
                    ref = -mp.jtheta(1, mp.pi * w, mp.exp(mp.pi * 1j * tau))
                    assert abs(theta_sum(w, tau, dps) - ref) <= mp.mpf(10) ** -dps * max(1, abs(ref)), (tau, w)

    @pytest.mark.parametrize("dps", [50, 100])
    def test_sum_keeps_relative_precision_near_the_real_axis(self, dps):
        # theta(0.1; 0.005i) = -3.1e-43 is a sum of terms of size up to 1; with GUARD
        # digits alone it came out with a relative error of 1.6e-23 at 50 digits
        w, tau = mp.mpf("0.1"), mp.mpc(0, "0.005")
        with mp.workdps(250):
            ref = theta_product(w, tau, 220)
            assert abs(theta_sum(w, tau, dps) / ref - 1) <= mp.mpf(10) ** -dps
        assert theta_transform_residual(w, tau, dps) <= mp.mpf(10) ** -dps

    @pytest.mark.parametrize("dps", [50, 100])
    def test_product_near_its_zeros(self, dps):
        # relative error against 220 digits where the factor 1 - e^{2 pi i w} or
        # 1 - q e^{-2 pi i w} cancels to about 1e-30 or 1e-25: the product loses those
        # digits on any route, and the bounds are 10 times the errors of the mpf loop
        with mp.workdps(250):
            tau = mp.mpc("0.1", "0.3")
            cases = [
                (mp.mpc("1e-30"), {50: "9.1e-37", 100: "1.5e-87"}),
                (tau + mp.mpf("1e-25"), {50: "3.4e-41", 100: "1.8e-91"}),
            ]
            for w, bound in cases:
                ref = theta_product(w, tau, 220)
                assert abs(theta_product(w, tau, dps) / ref - 1) <= mp.mpf(bound[dps]), w

    @pytest.mark.parametrize("dps", [50, 100])
    def test_sum_and_product_with_ratios_far_above_one(self, dps):
        # at w = 0.2 - 20i, |e^{2 pi i w}| = e^{40 pi} while |q| = e^{-32 pi} or e^{-20 pi}:
        # the sum's first term ratio (e^{20 pi} at Im tau = 10) and the product's first
        # factors are far above 1, so x^2 and q must be held exact relative to them
        w = mp.mpc("0.2", "-20")
        for tau in (mp.mpc("0.1", "16"), mp.mpc("0.1", "10")):
            with mp.workdps(250):
                ref = theta_product(w, tau, 220)
                for theta in (theta_sum, theta_product):
                    assert abs(theta(w, tau, dps) / ref - 1) <= mp.mpf(10) ** -dps, (theta.__name__, tau)

    @given(ws, taus)
    @settings(max_examples=12, deadline=None)
    def test_oddness_randomized(self, w, tau):
        assert abs(theta_sum(-w, tau, 40) + theta_sum(w, tau, 40)) < mp.mpf("1e-35")

    @given(ws, wide_taus)
    @settings(max_examples=12, deadline=None)
    def test_sum_matches_triple_product_off_the_principal_strip(self, w, tau):
        assert abs(theta_sum(w, tau, 40) - theta_product(w, tau, 40)) < mp.mpf("1e-35")

    @given(ws, wide_taus)
    @settings(max_examples=12, deadline=None)
    def test_translation_law(self, w, tau):
        # theta(w; tau + 1) = e^{pi i/4} theta(w; tau), on both routes
        with mp.workdps(55):
            phase = mp.exp(mp.pi * 1j / 4)
            for theta in (theta_sum, theta_product):
                assert abs(theta(w, tau + 1, 40) - phase * theta(w, tau, 40)) < mp.mpf("1e-35")


class TestEta:
    def test_inversion(self):
        assert eta_inversion_residual(TAU, 50) < mp.mpf("1e-45")

    def test_special_value_at_i(self):
        with mp.workdps(65):
            expected = mp.gamma(mp.mpf(1) / 4) / (2 * mp.pi ** mp.mpf("0.75"))
            assert abs(dedekind_eta(mp.mpc(0, 1), 50) - expected) < mp.mpf("1e-45")

    @pytest.mark.parametrize("dps", [65, 115])
    def test_agm_gamma_quarter_equals_mpmath_gamma(self, dps):
        # the eta check's Gamma(1/4), at the working precisions of `verify` at -P 50 and 100
        with mp.workdps(dps):
            assert abs(analytic._gamma_quarter() - mp.gamma(mp.mpf(1) / 4)) <= mp.mpf(10) ** -dps

    @given(taus)
    @settings(max_examples=10, deadline=None)
    def test_inversion_randomized(self, tau):
        assert eta_inversion_residual(tau, 40) < mp.mpf("1e-35")

    @pytest.mark.parametrize("tau", [mp.mpc(0, "0.01"), mp.mpc("0.37", "0.01"), mp.mpc(0, "0.001")])
    def test_truncation_near_the_real_axis(self, tau):
        # the sampled tests stay at Im tau >= 0.08; here the cutoff must still
        # follow dps, and at tau = 0.001 i the pentagonal sum cancels from terms
        # of size 1 down to |eta| ~ 1e-112
        low, high = dedekind_eta(tau, 30), dedekind_eta(tau, 60)
        with mp.workdps(60):
            assert abs(low / high - 1) < mp.mpf("1e-30")
        # eta(-1/tau) lies far from the axis, an independent reference
        assert eta_inversion_residual(tau, 60) < mp.mpf("1e-55")

    @pytest.mark.parametrize("dps", [50, 100])
    def test_pentagonal_sum_matches_the_product_near_the_real_axis(self, dps):
        for tau in NEAR_AXIS_TAUS:
            with mp.workdps(dps + 30):
                q = mp.exp(2 * mp.pi * 1j * tau)
                count = analytic._factor_count(mp.im(tau), dps + 30)
                ref = mp.exp(mp.pi * 1j * tau / 12) * analytic._pochhammer(q, q, count)
                assert abs(dedekind_eta(tau, dps) / ref - 1) <= mp.mpf(10) ** -dps, tau


class TestCongruenceProduct:
    def test_matches_series_coefficients(self):
        # termwise sum of the partition series vs the infinite product, with
        # the truncation tail bounded away from the tolerance
        with mp.workdps(60):
            tau = mp.mpc(0, mp.mpf("0.35"))
            q = mp.exp(2 * mp.pi * 1j * tau)
            series = congruence_partition_gf(P13, 220)
            direct = sum(c * q ** i for i, c in enumerate(series.coeffs))
            assert abs(congruence_product(P13, tau, 50) - direct) < mp.mpf("1e-40")

    @pytest.mark.parametrize("params", [P13, P14, P15])
    def test_truncation_near_the_real_axis(self, params):
        for tau in (mp.mpc(0, "0.01"), mp.mpc("0.37", "0.01")):
            low, high = congruence_product(params, tau, 30), congruence_product(params, tau, 60)
            with mp.workdps(60):
                assert abs(low / high - 1) < mp.mpf("1e-30")
        # on the imaginary axis the closed form is within ~e^{-4 pi^2/(m z)} < 1e-54 of F
        assert product_residual(params, mp.mpc(0, "0.01"), 60) < mp.mpf("1e-50")

    def test_residual_decays_along_imaginary_ray(self):
        with mp.workdps(80):
            res_big = product_residual(P13, 1j * mp.mpf("0.40") / (2 * mp.pi), 70)
            res_small = product_residual(P13, 1j * mp.mpf("0.25") / (2 * mp.pi), 70)
            assert res_small < res_big < 1

    def test_decay_rate_modulus_three(self):
        fit = product_decay_fit(P13)
        assert math.isclose(fit.slope, fit.expected, rel_tol=0.01)

    def test_decay_rate_modulus_five(self):
        fit = product_decay_fit(P15)
        assert math.isclose(fit.slope, fit.expected, rel_tol=0.01)

    def test_decay_rate_modulus_four_doubles(self):
        # at m = 4 the residue classes 1 and 3 satisfy 2 cos(2 pi r / m) = 0,
        # so the leading residual term cancels and the rate, expected too, is
        # twice the generic -4 pi^2 / m
        fit = product_decay_fit(P14)
        assert fit.expected == -8 * math.pi ** 2 / 4
        assert math.isclose(fit.slope / fit.expected, 1.0, rel_tol=0.01)

    def test_fit_input_validation(self):
        for z_values in [(0.3,), (0.3, -0.1), (0.3, 0.3), (math.nan, 0.2), (0.3, math.inf)]:
            with pytest.raises(ValueError, match="two distinct, finite, positive z values"):
                product_decay_fit(P13, z_values=z_values)

    @pytest.mark.parametrize("fit", [decay_precision, product_decay_fit])
    def test_subnormal_z_is_refused(self, fit):
        # 8 pi^2/(3 z log 10) overflows a double at z = 5e-324; a 325-digit
        # precision formed past it would only overflow at the noise floor
        with pytest.raises(ValueError, match="z = 5e-324 needs a working precision past double range"):
            fit(P13, (5e-324, 0.3))


class TestFalseTheta:
    def test_termwise_sum(self):
        with mp.workdps(60):
            tau = mp.mpc("0.03", "0.11")
            q = mp.exp(2 * mp.pi * 1j * tau)
            direct = sum((-1) ** n * q ** ((3 * n * n - 7 * n) // 2) for n in range(1, 60))
            assert abs(false_theta(3, -7, tau, 50) - direct) < mp.mpf("1e-40")

    @given(wide_taus)
    @settings(max_examples=12, deadline=None)
    def test_theta_four_off_the_principal_strip(self, tau):
        # f_{1,0}(tau) = (theta_4(0 | e^{pi i tau}) - 1)/2, nome built from tau itself
        with mp.workdps(55):
            expected = (mp.jtheta(4, 0, mp.exp(mp.pi * 1j * tau)) - 1) / 2
            assert abs(false_theta(1, 0, tau, 40) - expected) < mp.mpf("1e-35")

    @given(st.sampled_from([(3, -7), (4, -8), (1, 0), (5, -9)]), wide_taus)
    @settings(max_examples=12, deadline=None)
    def test_period_two(self, ab, tau):
        a, b = ab
        with mp.workdps(55):
            assert abs(false_theta(a, b, tau + 2, 40) - false_theta(a, b, tau, 40)) < mp.mpf("1e-35")

    def test_nonpositive_first_index_rejected(self):
        with pytest.raises(ValueError):
            false_theta(0, -7, TAU, 50)

    @pytest.mark.parametrize("dps", [50, 100])
    @pytest.mark.parametrize("a,b", [(1, 0), (3, -7), (5, -13), (2, -21)])
    def test_matches_a_termwise_exponential_sum_near_the_real_axis(self, a, b, dps):
        for tau in NEAR_AXIS_TAUS:
            with mp.workdps(dps + 30):
                # from n_max on, pi y (a n^2 + b n) >= (dps + 30) log 10
                n_max = int(mp.sqrt((dps + 30) * mp.log(10) / (mp.pi * a * mp.im(tau))) + abs(b) / a) + 1
                ref = sum((-1) ** n * mp.exp(mp.pi * 1j * tau * (a * n * n + b * n)) for n in range(1, n_max + 1))
                assert abs(false_theta(a, b, tau, dps) - ref) <= mp.mpf(10) ** -dps * max(1, abs(ref)), tau

    def test_series_identity_residual(self):
        assert false_theta_series_residual(P13, mp.mpc("0.02", "0.10"), 50) < mp.mpf("1e-40")
        assert false_theta_series_residual(P14, mp.mpc("-0.01", "0.12"), 50) < mp.mpf("1e-40")
        # gap pairs, where t = 2r - m
        for pair in [(2, 3), (3, 4), (3, 5)]:
            assert false_theta_series_residual(StackParams(*pair), mp.mpc("0.01", "0.10"), 50) < mp.mpf("1e-40")


def test_gaussian_sums_take_no_exponential_per_term(monkeypatch):
    # at Im tau = 0.01 and 100 digits a sum has ~100 terms; a fall-back to an
    # exponential per term would take ~180 per theta_sum call
    real_exp = mp.exp
    calls = 0

    def counting_exp(x):
        nonlocal calls
        calls += 1
        return real_exp(x)

    monkeypatch.setattr(mp, "exp", counting_exp)
    tau = mp.mpc("0.37", "0.01")
    # theta_sum takes 2 a pass (one pass here), false_theta 2, and 3 where
    # b < -a, the third for the factor in front of its sum about n = s, and eta
    # 2 for each of its two false thetas (b = -1 and 1) and 1 for e^{pi i tau/12}
    kernels = [
        (lambda: theta_sum(W, tau, 100), 2),
        (lambda: false_theta(3, -7, tau, 100), 3),
        (lambda: false_theta(3, -1, tau, 100), 2),
        (lambda: dedekind_eta(tau, 100), 5),
    ]
    for kernel, expected in kernels:
        calls = 0
        kernel()
        assert calls == expected


def test_kernels_take_a_constant_number_of_mpc_products(monkeypatch):
    # the sums and products run on integers; at Im tau = 0.01 and 100 digits the
    # object loops took 2 products per term or factor, 25 602 for theta_product
    real_mul = mp.mpc.__mul__
    calls = 0

    def counting_mul(self, other):
        nonlocal calls
        calls += 1
        return real_mul(self, other)

    monkeypatch.setattr(mp.mpc, "__mul__", counting_mul)
    tau = mp.mpc("0.37", "0.01")
    kernels = {
        "theta_product": lambda: theta_product(W, tau, 100),
        "theta_sum": lambda: theta_sum(W, tau, 100),
        "dedekind_eta": lambda: dedekind_eta(tau, 100),
        "false_theta": lambda: false_theta(3, -7, tau, 100),
    }
    for name, kernel in kernels.items():
        calls = 0
        kernel()
        assert 0 < calls <= 12, (name, calls)


# The truncation cutoffs are sized in doubles; these are the mpf formulas they
# replaced, at the digits the kernels work at.  log 10 and pi are formed once
# per precision, as mpmath caches them.
SWEEP_YS = [10 ** (-4 + 5 * j / 29) for j in range(30)]  # 1e-4 .. 10
SWEEP_IWS = [0.0, 0.03, 0.3, 1.0, 2.5, 7.0, 10.0]
SWEEP_DPS = [30, 50, 100, 1200]


def _mpf_factor_count(y, digits, iw, ln10):
    t = 2 * mp.pi * mp.mpf(y)
    slack = 2 * mp.pi * abs(mp.mpf(iw))
    return int(mp.ceil((digits * ln10 + slack - mp.log(-mp.expm1(-t))) / t))


def _mpf_theta_terms(y, iw, digits, ln10):
    y, iw = mp.mpf(y), abs(mp.mpf(iw))
    return int(mp.ceil((iw + mp.sqrt(iw * iw + y * digits * ln10 / mp.pi)) / y + 2))


def _mpf_eta_digits(y, dps, ln10):
    return dps + analytic.GUARD + int(mp.pi / (12 * mp.mpf(y) * ln10)) + 1


def _mpf_false_theta_terms(a, b, y, digits, ln10):
    disc = b * b + 4 * a * digits * ln10 / (mp.pi * mp.mpf(y))
    return int(mp.ceil((-b + mp.sqrt(disc)) / (2 * a))) + 2


def _mpf_log10_peak(y, iw):
    y, iw = mp.mpf(y), mp.mpf(iw)
    nu = mp.floor(-iw / y) + mp.mpf(1) / 2
    return -mp.pi * (y * nu * nu + 2 * nu * iw) / mp.log(10)


def _mpf_extra_digits(log10_peak, value, digits):
    # theta_sum formed log10 |value| at the caller's precision
    lost = log10_peak - mp.log10(abs(value)) if value else digits
    return min(int(mp.ceil(lost)), digits) if lost > analytic.GUARD else 0


class TestFloatCutoffs:
    @pytest.mark.parametrize("dps", SWEEP_DPS)
    def test_factor_count_equals_the_mpf_formula(self, dps):
        digits = dps + analytic.GUARD
        with mp.workdps(digits):
            ln10 = mp.log(10)
            for y in SWEEP_YS:
                for iw in SWEEP_IWS:
                    reference = _mpf_factor_count(y, digits, iw, ln10)
                    assert analytic._factor_count(y, digits, 2 * math.pi * iw) == reference, (y, iw)

    @pytest.mark.parametrize("dps", SWEEP_DPS)
    @pytest.mark.parametrize("kind", ["theta", "false-theta", "eta"])
    def test_gauss_cutoff_equals_the_mpf_formula(self, kind, dps):
        cases = []  # (a, b, y, digits, mpf cutoff)
        digits = dps + analytic.GUARD
        if kind == "theta":  # the first pass and a second at up to twice the digits
            for pass_digits in (digits, 2 * digits):
                with mp.workdps(pass_digits):
                    ln10 = mp.log(10)
                    for y in SWEEP_YS:
                        for iw in SWEEP_IWS:
                            cases.append((1, -2 * iw / y, y, pass_digits, _mpf_theta_terms(y, iw, pass_digits, ln10)))
        with mp.workdps(digits):
            ln10 = mp.log(10)
            if kind == "false-theta":
                for y in SWEEP_YS[::3]:
                    for a in range(1, 13):
                        for b in range(-40, 41, 3):
                            cases.append((a, b, y, digits, _mpf_false_theta_terms(a, b, y, digits, ln10)))
            if kind == "eta":  # its two false thetas, at eta's digits D, which include its cancellation digits
                for y in SWEEP_YS:
                    eta_digits = _mpf_eta_digits(y, dps, ln10)
                    for b in (-1, 1):
                        cases.append((3, b, y, eta_digits, _mpf_false_theta_terms(3, b, y, eta_digits, ln10)))
        for a, b, y, case_digits, reference in cases:
            assert analytic._gauss_cutoff(a, b, y, case_digits) == reference, (a, b, y, case_digits)

    @pytest.mark.parametrize("dps", SWEEP_DPS)
    def test_eta_sizes_equal_the_mpf_formula(self, dps):
        with mp.workdps(dps + analytic.GUARD):
            ln10 = mp.log(10)
            for y in SWEEP_YS:
                assert analytic._eta_digits(y, dps) == _mpf_eta_digits(y, dps, ln10), y

    @pytest.mark.parametrize("dps", SWEEP_DPS)
    def test_lost_digits_equal_the_mpf_formula(self, dps):
        # |value| from 10^3 above to 10^(digits + 40) below the largest term, at
        # several phases: the second pass is skipped, taken and capped
        digits = dps + analytic.GUARD
        for y in SWEEP_YS:
            for iw in SWEEP_IWS:
                for signed in (iw, -iw):
                    with mp.workdps(digits):
                        log10_peak = _mpf_log10_peak(y, signed)
                    for k, below in enumerate((-3.3, 2.7, 14.6, 15.4, 16.9, 0.53 * digits, digits + 40.2)):
                        value = mp.power(10, log10_peak - below) * mp.expjpi(mp.mpf(k) / 7)
                        got = analytic._extra_digits(y, signed, value, digits)
                        assert got == _mpf_extra_digits(log10_peak, value, digits), (y, signed, below)

    def test_theta_sum_still_takes_its_second_pass(self, monkeypatch):
        # theta(0.1; 0.005i) = -3.1e-43 is a sum of terms of size up to 1
        # (test_sum_keeps_relative_precision_near_the_real_axis checks its value)
        real = analytic._theta_gauss
        digits = []

        def counting(w, tau, d):
            digits.append(d)
            return real(w, tau, d)

        monkeypatch.setattr(analytic, "_theta_gauss", counting)
        theta_sum(0.1, mp.mpc(0, "0.005"), 50)
        assert len(digits) == 2 and digits[1] > digits[0] == 50 + analytic.GUARD
        digits.clear()
        theta_sum(W, TAU, 50)
        assert digits == [50 + analytic.GUARD]

    @pytest.mark.parametrize(
        "kernel",
        [
            lambda: theta_sum(W, mp.mpc(0, "1e-400")),
            lambda: theta_sum(W, mp.mpc(0, "1e400")),
            lambda: theta_sum(mp.mpc(0, "1e200"), TAU),
            lambda: theta_product(W, mp.mpc(0, "1e-400")),
            lambda: theta_product(mp.mpc(0, "1e400"), TAU),
            lambda: dedekind_eta(mp.mpc(0, "1e-310")),
            lambda: false_theta(3, -7, mp.mpc(0, "1e-400")),
            lambda: false_theta(10**400, -7, TAU),
            lambda: congruence_product(P13, mp.mpc(0, "1e-400")),
            lambda: false_theta_series_residual(P13, mp.mpc(0, "1e-400")),
        ],
        ids=["theta-y-low", "theta-y-high", "theta-w", "product-y", "product-w", "eta", "false-y", "false-a", "F", "L"],
    )
    def test_cutoff_outside_double_range_raises(self, kernel):
        with pytest.raises(ValueError, match="outside double range"):
            kernel()


@pytest.mark.parametrize("dps", [50, 100, 1200])
def test_bessel_references_match_mpmath_at_orders_two_and_three(dps):
    # the verify bessel check's references: mp.besseli at orders 0 and 1 and the
    # upward recurrence, which cancels most at x = 0.5 (about 3 digits at 100)
    with mp.workdps(dps + analytic.GUARD):
        for x in map(mp.mpf, ("0.5", "3", "12", "30")):
            references = analytic._bessel_references(x)
            for nu in (2, 3):
                assert abs(references[nu] / mp.besseli(nu, x) - 1) <= mp.mpf(10) ** -(dps + analytic.GUARD - 4), (x, nu)


@pytest.mark.parametrize("dps", [50, 100, 1200])
@pytest.mark.parametrize("pair", [(1, 3), (2, 3), (2, 5), (3, 4), (5, 12), (7, 12)])
def test_false_theta_series_raises_three_powers_none_above_the_modulus(monkeypatch, pair, dps):
    # the integer series' powers of q are running products; mpmath's q ** e goes
    # through exp(e log q) once e times the mantissa bits passes 10 000: e > 30
    # at 100 digits, e > 2 at 1200.  q^t, q^(m - t) and q^m are the three powers
    real_pow = mp.mpc.__pow__
    exponents = []

    def recording_pow(self, other):
        exponents.append(other)
        return real_pow(self, other)

    monkeypatch.setattr(mp.mpc, "__pow__", recording_pow)
    params = StackParams(*pair)
    assert false_theta_series_residual(params, mp.mpc("0.01", "0.10"), dps) < mp.mpf(10) ** -dps
    assert sorted(exponents) == sorted([params.shift, params.m - params.shift, params.m])


class TestCubicRemainder:
    @pytest.mark.parametrize("a,b", [(3, -7), (4, -8)])
    def test_bound_holds_in_region(self, a, b):
        for y in ("0.05", "0.12", "0.20"):
            for xfrac in ("0", "0.5", "-1"):
                tau = mp.mpc(mp.mpf(y) * mp.mpf(xfrac), mp.mpf(y))
                chk = cubic_remainder_check(a, b, tau, 60)
                assert chk.ok

    def test_region_enforced(self):
        with pytest.raises(ValueError):
            cubic_remainder_check(3, -7, mp.mpc("0.3", "0.1"), 50)  # |x| > y
        with pytest.raises(ValueError):
            cubic_remainder_check(3, -7, mp.mpc("0.0", "0.3"), 50)  # y too large

    def test_model_value_at_zero(self):
        assert cubic_model(3, -7, 0) == mp.mpc(-0.5)


def _last_level_nodes(levels):
    """Nodes of tanh-sinh's last level after `levels` levels: k h, h = 2^-levels, out to the last weight >= 2^-53.

    The weight at t is pi/2 cosh t / cosh^2(pi/2 sinh t), falling in |t|.
    """
    h = 0.5 ** levels
    weight = lambda t: math.pi / 2 * math.cosh(t) / math.cosh(math.pi / 2 * math.sinh(t)) ** 2
    side = next(k for k in range(1, 10**4) if weight(k * h) < 2.0 ** -53) - 1
    return 2 * side + 1


class TestTanhSinh:
    def test_exponential_integral(self, monkeypatch):
        monkeypatch.setattr(analytic, "QUADRATURE_RTOL", 1e-12)
        with mp.workdps(30):
            value, _ = tanh_sinh(mp.exp, 0, 1)
            assert abs(value - (mp.e - 1)) < mp.mpf("1e-11")

    def test_matches_adaptive_quadrature(self, monkeypatch):
        monkeypatch.setattr(analytic, "QUADRATURE_RTOL", 1e-11)
        with mp.workdps(30):
            f = lambda t: mp.cos(3 * t) * mp.exp(-t * t)
            mine, _ = tanh_sinh(f, -2, 2)
            ref = mp.quad(f, [-2, 2])
            assert abs(mine - ref) < mp.mpf("1e-10")

    def test_float_integrand_stays_in_doubles(self):
        value, history = tanh_sinh(math.exp, 0, 1)
        assert type(value) is float
        assert all(type(estimate) is float for estimate in history)
        assert abs(value - (math.e - 1)) < 1e-10

    def test_each_node_of_the_last_level_is_evaluated_once(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.exp(x)

        _, history = tanh_sinh(f, 0, 1)
        # a rule that evaluated every level's nodes afresh would make about twice the calls
        assert len(history) >= 3
        assert len(calls) == _last_level_nodes(len(history))

    def test_nonconvergence_raises_at_the_level_cap(self, monkeypatch):
        monkeypatch.setattr(analytic, "QUADRATURE_RTOL", 1e-25)
        monkeypatch.setattr(analytic, "QUADRATURE_LEVELS", 3)
        calls = []

        def f(x):
            calls.append(x)
            return mp.exp(x)

        with mp.workdps(30):
            with pytest.raises(ValueError, match="did not converge in 4 levels"):
                tanh_sinh(f, 0, 1)
        # levels 0 to 3 ran, and none past the cap
        assert len(calls) == _last_level_nodes(4)


def one_term_bessel(ctx):
    return ctx.bessel_sum((Fraction(1, 2),))


# every coprime (r, m) with m <= 12: 44 pairs
COPRIME_PAIRS = [(r, m) for m in range(3, 13) for r in range(1, m) if math.gcd(r, m) == 1]


def _mpmath_major_arc(ctx):
    """major_arc_integral's value and tanh-sinh history length, in nu, with 65-digit complex exponentials."""
    with mp.workdps(65):
        kappa, A, B = +ctx.kappa, +ctx.A, mp.mpf(ctx.B.numerator) / ctx.B.denominator

        def integrand(nu):
            zz = mp.mpc(kappa, nu)
            return mp.re(mp.exp(B * zz + A / zz))

        half, history = tanh_sinh(integrand, mp.mpf(0), ctx.rho * kappa)
        return ctx.prefactor / (4 * mp.pi) * 2 * half, len(history)


class TestMajorArc:
    @pytest.mark.parametrize(
        "pairs, n",
        [
            (COPRIME_PAIRS, 50),
            (COPRIME_PAIRS, 200),
            (COPRIME_PAIRS, 1000),
            ([(1, 3), (5, 12)], 20000),
            ([(1, 3), (5, 12)], 10**6),
        ],
        ids=["all-50", "all-200", "all-1000", "two-20000", "two-1000000"],
    )
    def test_float_path_matches_the_mpmath_path(self, monkeypatch, pairs, n):
        # the doubles carry a few units of 2^-53 relative; measured at most 8.5e-16
        lengths = []

        def spy(f, a, b):
            value, history = tanh_sinh(f, a, b)
            lengths.append(len(history))
            return value, history

        monkeypatch.setattr(analytic, "tanh_sinh", spy)
        for pair in pairs:
            ctx = ArcContext.build(StackParams(*pair), n, rho=0.9, dps=50)
            value = major_arc_integral(ctx)
            reference, length = _mpmath_major_arc(ctx)
            with mp.workdps(65):
                assert abs(value / reference - 1) <= mp.mpf("1e-13"), pair
            assert lengths.pop() == length, pair

    def test_matches_bessel_form_at_200(self):
        ctx = ArcContext.build(P13, 200, rho=0.9, dps=50)
        h0 = major_arc_integral(ctx)
        with mp.workdps(65):
            gap = abs(h0 / one_term_bessel(ctx) - 1)
            assert gap < mp.mpf("1e-3")

    def test_gap_shrinks_with_n(self):
        gaps = []
        for n in (50, 200):
            ctx = ArcContext.build(P13, n, rho=0.9, dps=50)
            h0 = major_arc_integral(ctx)
            with mp.workdps(65):
                gaps.append(abs(h0 / one_term_bessel(ctx) - 1))
        assert gaps[1] < gaps[0]


def _upper_gamma_down(x):
    """Gamma(0, x) = E_1(x), Gamma(-1, x), ...: Gamma(-k, x) = (x^-k e^-x - Gamma(1-k, x))/k."""
    gamma, power, k = mp.e1(x), mp.exp(-x), 0
    while True:
        yield gamma
        k += 1
        power /= x  # x^-k e^-x
        gamma = (power - gamma) / k


def _series_tail(ctx, dps):
    """contour_tail's value from the incomplete-gamma series, at dps digits.

    With z0 = kappa + i rho kappa, e^{A/z} = sum_k A^k z^-k / k! gives
    int_{z0}^{kappa + i inf} e^{Bz + A/z} dz = -e^{B z0}/B (Abel-summed)
    + sum_{k>=1} (A^k/k!) (-B)^{k-1} Gamma(1-k, -B z0).  Stepping Gamma down
    loses up to e^|x| relative, x = -B z0, and the k-sum cancels too, so the
    precision must be shown right, as _reference_tail does.
    """
    with mp.workdps(dps):
        A, B = +ctx.A, mp.mpf(ctx.B.numerator) / ctx.B.denominator
        x = -B * mp.mpc(ctx.kappa, ctx.rho * ctx.kappa)
        total = -mp.exp(-x) / B
        coeff = -1 / B  # A^k/k! (-B)^(k-1) at k = 0
        for k, gamma in enumerate(_upper_gamma_down(x), 1):
            coeff *= -A * B / k
            term = coeff * gamma
            total += term
            if abs(term) < mp.eps * abs(total):
                break
        # dz = i d nu, so the two tails in nu add up to 2 Im(total)
        return ctx.prefactor / (4 * mp.pi) * 2 * mp.im(total)


def _tail_scale(ctx):
    """The size contour_tail's error is measured against: P/(2 pi) times the integral of its integrand's modulus.

    The ray's part is its bound (kappa/N) |e^{N (w* + 1/w*)}|, w* = 1 + i rho*,
    rho* = max(rho, 1/2); below rho = 1/2 the vertical piece adds
    kappa e^{2N} int_rho^{1/2} e^{-N u} dt.  The tail changes sign with n, so
    its own size is no measure near a zero.
    """
    with mp.workdps(30):
        start = max(ctx.rho, 0.5)
        w_star = mp.mpc(1, start)
        N = ctx.scale
        size = ctx.kappa / N * abs(mp.exp(N * (w_star + 1 / w_star)))
        if ctx.rho < start:
            size += ctx.kappa * mp.exp(2 * N) * mp.quad(lambda t: mp.exp(-N * t * t / (1 + t * t)), [ctx.rho, start])
        return ctx.prefactor / (2 * mp.pi) * size


def _reference_tail(ctx):
    """_series_tail at 35 + 2d digits, d = |x|/log(10) the digits the recurrence loses, shown right by 20 + 2d.

    The two precisions agree to 1e-27 to 1e-31 of _tail_scale for every
    coprime (r, m) with m <= 12 at n = 200; they must agree to 1e-20 of it.
    """
    d = int(float(ctx.B) * float(ctx.kappa) * math.hypot(1, ctx.rho) / math.log(10)) + 1
    low, high = _series_tail(ctx, 20 + 2 * d), _series_tail(ctx, 35 + 2 * d)
    with mp.workdps(40):
        assert abs(low - high) <= mp.mpf("1e-20") * _tail_scale(ctx)
    return high


# contour_tail at the defaults (-P 50, rho = 0.9) against the series at two
# precisions, 200 + 15 + d and 1200 + 15 + d digits with d as in
# _reference_tail; they agree to every digit written.  At n = 2 10^6 the
# series at 65 + d digits, the former production precision, is off by
# 6.4e-4, and at 3 750 872 it has the wrong sign (-1.90e1381).
LARGE_N_TAILS = [
    # 1081 and 2081 digits
    ((1, 3), 2 * 10**6, "1.131840871941861988102202e+991"),
    # 1400 and 2400 digits
    ((1, 3), 3750872, "2.87693390910894310206891e+1359"),
    # 827 and 1827 digits
    ((1, 3), 10**6, "-2.574482220806238643510505e+698"),
    # 521 and 1521 digits
    ((5, 12), 10**6, "-1.035247902923726664910498e+345"),
    # the largest n verify contour accepts: 1575 and 2575 digits
    ((1, 3), 4937777, "-7.143788910207908932128248e+1560"),
    # 895 and 1895 digits
    ((5, 12), 4937777, "-6.020619005685992856163259e+774"),
]


class TestContourTail:
    def test_closes_the_line_for_every_pair_at_the_defaults(self):
        # verify contour's defaults: n = 200, rho = 0.9; the bare arc misses by 2e-4 to 8e-3
        worst = mp.mpf(0)
        for pair in COPRIME_PAIRS:
            ctx = ArcContext.build(StackParams(*pair), 200, rho=0.9, dps=50)
            with mp.workdps(65):
                line = major_arc_integral(ctx) + contour_tail(ctx)
                worst = max(worst, abs(line / one_term_bessel(ctx) - 1))
        assert worst < analytic.QUADRATURE_RTOL

    @pytest.mark.parametrize(
        "r, m, n, rho, bound",
        [
            (41, 194, 0, 0.9, 1e-13),
            (70, 363, 2, 0.9, 1e-12),
            (333, 449, 1, 0.9, 1e-13),
            (263, 330, 5, 0.9, 1e-13),
            (41, 194, 0, 0.3, 1e-13),
            # below rho = 1/2 the tail adds the vertical piece 0.1 <= t <= 1/2 to its ray
            (7, 32, 2, 0.1, 1e-14),
        ],
    )
    def test_closes_the_line_at_small_growth_scale(self, r, m, n, rho, bound):
        # N = 0.0025 to 0.46: the arc (and below rho = 1/2 the vertical piece)
        # exceeds the line up to 115-fold; measured 7.7e-17 to 4.2e-14.  At
        # (70, 363), n = 2, N = 0.0025, the arc and the tail cancel to the line,
        # which is 1/115 of the arc, and the tail is the imaginary part of the
        # ray's value times a factor of phase N rho: the line moves by about
        # 5e4 times the ray's absolute error; the ray stops on a step of 7e-12
        # and is left about 5e-18 off, 1.9e-13 of the line
        ctx = ArcContext.build(StackParams(r, m), n, rho=rho, dps=50)
        with mp.workdps(65):
            line = major_arc_integral(ctx) + contour_tail(ctx)
            assert abs(line / one_term_bessel(ctx) - 1) < bound

    def test_closes_the_line_deep_in_the_regime(self):
        # the ray's start e^{N (w* + 1/w*)} is about 1e94 here, e^{2N} about 1e177
        ctx = ArcContext.build(P13, 20000, rho=0.9, dps=50)
        with mp.workdps(65):
            line = major_arc_integral(ctx) + contour_tail(ctx)
            assert abs(line / one_term_bessel(ctx) - 1) < analytic.QUADRATURE_RTOL

    @pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.9, 0.99])
    def test_matches_the_series_for_every_pair(self, rho):
        # measured at most 7.6e-16 of the scale below rho = 1/2, where the vertical piece carries the tail,
        # and 1.0e-15 from rho = 1/2 on, over n = 0 to 1000
        for pair in COPRIME_PAIRS:
            ctx = ArcContext.build(StackParams(*pair), 200, rho=rho, dps=50)
            reference = _reference_tail(ctx)
            with mp.workdps(65):
                assert abs(contour_tail(ctx) - reference) <= analytic.QUADRATURE_RTOL * _tail_scale(ctx), pair

    @pytest.mark.parametrize("pair", [(1, 3), (5, 12)])
    def test_matches_the_series_deep_in_the_regime(self, pair):
        # 7.4e-18 and 5.3e-16 relative
        ctx = ArcContext.build(StackParams(*pair), 20000, rho=0.9, dps=50)
        reference = _reference_tail(ctx)
        with mp.workdps(65):
            assert abs(contour_tail(ctx) - reference) <= analytic.QUADRATURE_RTOL * _tail_scale(ctx)

    @pytest.mark.parametrize(
        "pair, n, reference", LARGE_N_TAILS, ids=[f"{r}-{m}-{n}" for (r, m), n, _ in LARGE_N_TAILS]
    )
    def test_matches_the_series_at_large_n(self, pair, n, reference):
        # at most 4.2e-16 of the scale, 7.2e-17 to 2.8e-15 relative
        ctx = ArcContext.build(StackParams(*pair), n, rho=0.9, dps=50)
        with mp.workdps(65):
            assert abs(contour_tail(ctx) - mp.mpf(reference)) <= analytic.QUADRATURE_RTOL * _tail_scale(ctx)

    def test_gamma_recurrence_matches_mpmath(self):
        x = mp.mpc(-14, -12)
        with mp.workdps(50):
            for k, gamma in enumerate(islice(_upper_gamma_down(x), 6), 1):
                assert abs(gamma / mp.gammainc(1 - k, x) - 1) < mp.mpf("1e-45")


def _all_factor_reference(params, n, kappa):
    """log |F L q^{-n}| at angle nu, in doubles, one generator term per factor of F and term of L.

    Every factor of F up to the cut of L, with no closed-form tail: the sum
    circle_profile's head and Lambert tail are held to.
    """
    top = analytic._factor_count(kappa / (2 * math.pi), 17)
    l_terms = false_theta_gf(params, top)
    exponents = [e for start in (params.r, params.m - params.r) for e in range(start, top + 1, params.m)]
    f_factors = [(e, math.expm1(-e * kappa), 2 * math.exp(-e * kappa / 2)) for e in exponents]

    def log_magnitude(nu):
        z = complex(-kappa, nu)
        mag = abs(sum(sign * cmath.exp(e * z) for e, sign in l_terms))
        log_f = -math.fsum(math.log(math.hypot(d, s * math.sin(e * nu / 2))) for e, d, s in f_factors)
        return math.log(mag) + log_f + n * kappa

    return log_magnitude


def _head_tail_reference(params, n, kappa, grid):
    """circle_profile's formula at angle index a, nu = pi a/grid, one generator term per term of L, head factor and tail term."""
    m = params.m
    l_terms = false_theta_gf(params, analytic._factor_count(kappa / (2 * math.pi), 17))
    heads, firsts, terms = analytic._lambert_split(params, kappa)
    f_factors = [(e, math.expm1(-e * kappa), 2 * math.exp(-e * kappa / 2)) for head in heads for e in head]

    def log_magnitude(a):
        nu = math.pi * a / grid
        z = complex(-kappa, nu)
        mag = abs(sum(sign * cmath.exp(e * z) for e, sign in l_terms))
        head = math.fsum(math.log(math.hypot(d, s * math.sin(e * nu / 2))) for e, d, s in f_factors)
        tail = 0
        for j in range(1, terms + 1):
            # j (1 - q^{jm}), with its real part a sum of two terms >= 0
            c1 = -j * math.expm1(-j * m * kappa)
            c2 = 2 * j * math.exp(-j * m * kappa)
            s, c = math.sin(j * m * nu / 2), math.cos(j * m * nu / 2)
            den = complex(c1 + c2 * (s * s), -c2 * (s * c))
            # q^{j k_s}, its phase from the integer j k_s a reduced exactly, oddly in a
            r_num, mr_num = (
                cmath.rect(math.exp(-j * k * kappa), math.remainder(j * k * a, 2 * grid) * (math.pi / grid))
                for k in firsts
            )
            tail += (r_num + mr_num) / den
        return math.log(mag) + (tail.real - head) + n * kappa

    return log_magnitude


def _all_factor_bound(n):
    """circle_profile's stated distance from _all_factor_reference, in units of max(1, principal_log)."""
    return 4e-15 if n <= 1_000_000 else 1e-14


PROFILE_CASES = [
    (P13, 200, 720),
    (StackParams(2, 3), 200, 72),
    (StackParams(3, 5), 1000, 8),
    (StackParams(5, 12), 30, 8),
    (StackParams(1, 7), 2000, 120),
    (StackParams(7, 11), 2, 16),
    (P13, 600_000, 8),
]


@pytest.fixture(scope="module")
def profile():
    return circle_profile(ArcContext.build(P13, 500, rho=0.5, dps=12), grid=720)


class TestCircleProfile:
    def test_principal_peak_at_origin(self, profile):
        assert abs(profile.argmax_nu) < 1e-9
        assert profile.major_arc_contains_max

    def test_secondary_peaks_strictly_smaller(self, profile):
        peaks = profile.root_of_unity_peaks()
        assert set(peaks) == {1, 2}
        for nu, height in peaks.values():
            assert height < profile.principal_log - 1

    def test_log_magnitudes_match_the_mpmath_kernels(self):
        cases = [
            # grid 72 puts nu = -pi, -pi/3 and 0 on index 0, 24 and 36; 7 is generic
            (P13, 200, 72, (0, 24, 36, 7)),
            # |1/F| at nu = 0 is beyond double range here (log |F| is about 1621)
            (P13, 600_000, 8, (4, 1)),
            # a gap pair, where t = 2r - m
            (StackParams(2, 3), 200, 72, (0, 24, 36, 7)),
            # the roots of unity nu = 2 pi l/m, l >= 0 (nu < 0 is the mirror image),
            # where 1 - q^{jm} in the tail of F is smallest: grid 2m puts l on m + 2l
            (StackParams(1, 7), 20_000, 14, (7, 9, 11, 13)),
            (StackParams(5, 12), 20_000, 24, (12, 14, 16, 18, 20, 22, 24)),
            (StackParams(1, 7), 1_000_000, 14, (7, 9, 11, 13)),
            (StackParams(5, 12), 1_000_000, 24, (12, 14, 16, 18, 20, 22, 24)),
            # grid 72 puts nu = 0, 2 pi/3 and pi on index 36, 60 and 72
            (P13, 1_000_000, 72, (36, 60, 72, 7)),
        ]
        for params, n, grid, indices in cases:
            prof = circle_profile(ArcContext.build(params, n, rho=0.5, dps=12), grid=grid)
            t, m = params.shift, params.m
            for j in indices:
                with mp.workdps(30):
                    tau = mp.mpc(prof.nus[j], prof.kappa) / (2 * mp.pi)
                    q = mp.exp(2 * mp.pi * 1j * tau)
                    l_val = -q ** t * false_theta(m, -(m + 2 * t), tau, 30)
                    expected = mp.log(abs(congruence_product(params, tau, 30) * l_val)) + n * mp.mpf(prof.kappa)
                assert abs(prof.log_magnitudes[j] - expected) < 1e-10, (params, n, j)

    @pytest.mark.parametrize(
        "params, n, grid", [(P13, 200, 720), (StackParams(2, 3), 200, 720), (P13, 600_000, 8)]
    )
    def test_mirrored_half_equals_the_per_angle_loop(self, params, n, grid):
        # nu < 0 is mirrored from nu > 0; here each such angle is evaluated as nu >= 0 is
        prof = circle_profile(ArcContext.build(params, n, rho=0.5, dps=12), grid=grid)
        reference = _head_tail_reference(params, n, prof.kappa, grid)
        for j in range(grid // 2):
            assert prof.nus[j] < 0
            assert prof.log_magnitudes[j] == reference(2 * j - grid), (params, n, j)

    @pytest.mark.parametrize("params, n, grid", PROFILE_CASES)
    def test_every_sample_equals_the_per_factor_reference(self, params, n, grid):
        # the map chains add the same doubles in the same order as a generator per term
        prof = circle_profile(ArcContext.build(params, n, rho=0.5, dps=12), grid=grid)
        reference = _head_tail_reference(params, n, prof.kappa, grid)
        assert len(prof.log_magnitudes) == grid + 1
        for j in range(grid + 1):
            assert prof.log_magnitudes[j] == reference(2 * j - grid), (params, n, j)

    @pytest.mark.parametrize(
        "params, n, grid",
        [*PROFILE_CASES, (P13, 1_000_000, 16), (StackParams(5, 12), 1_000_000, 16), (P13, 5_000_000, 8)],
    )
    def test_within_the_stated_bound_of_the_all_factor_sum(self, params, n, grid):
        prof = circle_profile(ArcContext.build(params, n, rho=0.5, dps=12), grid=grid)
        reference = _all_factor_reference(params, n, prof.kappa)
        bound = _all_factor_bound(n) * max(1, prof.principal_log)
        for j, nu in enumerate(prof.nus[grid // 2 :], grid // 2):
            assert abs(prof.log_magnitudes[j] - reference(nu)) <= bound, (params, n, j)

    @given(st.sampled_from(COPRIME_PAIRS), st.integers(0, 1_000_000), st.integers(4, 12))
    @settings(max_examples=20, deadline=None)
    # at the root of unity nu = 8 pi/11 the Lambert tail once missed the bound: 4.38e-12 against 4.37e-12
    @example(pair=(9, 11), n=999_101, half=11)
    def test_head_and_tail_hold_for_every_pair(self, pair, n, half):
        params, grid = StackParams(*pair), 2 * half
        try:
            ctx = ArcContext.build(params, n, rho=0.5, dps=12)
        except ValueError:
            assume(False)  # n = 0 has no saddle for 18 of the pairs
        prof = circle_profile(ctx, grid=grid)
        all_factors = _all_factor_reference(params, n, prof.kappa)
        head_tail = _head_tail_reference(params, n, prof.kappa, grid)
        bound = _all_factor_bound(n) * max(1, prof.principal_log)
        for j in range(half, grid + 1):
            assert abs(prof.log_magnitudes[j] - all_factors(prof.nus[j])) <= bound, j
            # nu < 0 is the mirror image of nu > 0 bit for bit
            assert head_tail(grid - 2 * j) == prof.log_magnitudes[j], j

    def test_peaks_see_across_the_seam_at_minus_one(self, monkeypatch):
        # this grid is spaced pi/4, so the windows must reach one step past their centres
        monkeypatch.setattr(analytic, "PEAK_HALFWIDTH", 0.8)
        # nu = -pi (index 0) and nu = pi (index 8) are one point of the circle, so the
        # sample beyond index 8 is index 1; m = 4 centres the window for l = 2 on pi
        nus = tuple(math.pi * (2 * j - 8) / 8 for j in range(9))
        vals = (2.0, 1.0, -1.0, -2.0, 5.0, -2.0, -1.0, 1.0, 2.0)
        prof = CircleProfile(P14, n=1, kappa=1.0, rho=0.5, nus=nus, log_magnitudes=vals)
        # l = 1 and 3 peak on a window edge with a higher sample beyond it
        assert prof.root_of_unity_peaks() == {2: (math.pi, 2.0)}
        vals = vals[:1] + (3.0,) + vals[2:]
        prof = CircleProfile(P14, n=1, kappa=1.0, rho=0.5, nus=nus, log_magnitudes=vals)
        # pi is now below index 1 beyond the seam; index 1 is the edge of the window
        # for l = 3 but higher than both its neighbours
        assert prof.root_of_unity_peaks() == {3: (nus[1], 3.0)}

    def test_window_validation(self):
        # no sample of the grid nu = k pi/2 lies within PEAK_HALFWIDTH = 0.35 of +-2 pi/3:
        # with no sampled peak in either window, l = 1 and 2 are left out
        nus = tuple(math.pi * (2 * j - 4) / 4 for j in range(5))
        prof = CircleProfile(P13, n=1, kappa=1.0, rho=0.5, nus=nus, log_magnitudes=(0.0,) * 5)
        assert prof.root_of_unity_peaks() == {}

    def test_grid_validation(self):
        ctx = ArcContext.build(P13, 100, rho=0.5, dps=10)
        with pytest.raises(ValueError):
            circle_profile(ctx, grid=7)
        with pytest.raises(ValueError):
            circle_profile(ctx, grid=101)
