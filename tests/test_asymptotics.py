import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_stacks import asymptotics
from congruence_stacks.analytic import false_theta
from congruence_stacks.asymptotics import (
    FIXED_EXTRA_BITS,
    MAX_EXPANSION_TERMS,
    ArcContext,
    _fraction_to_mpf,
    asymptotic_sum,
    bessel_i,
    comparison_table,
    false_theta_coeffs,
    growth_dps,
    main_term,
    refined_main_term,
    singular_expansion_coeffs,
)
from congruence_stacks.params import StackParams
from congruence_stacks.qseries import stack_gf

P13 = StackParams(1, 3)
P14 = StackParams(1, 4)
HANKEL_CASES = [(k, x, dps) for dps in (50, 100, 1200) for x in (30, 66, 1000) for k in range(17)]

valid_pairs = st.sampled_from([(1, 3), (1, 4), (1, 5), (2, 5), (2, 7), (3, 7), (1, 7)])


def rel_error(estimate, exact):
    """estimate / exact - 1 at 50 digits."""
    with mp.workdps(50):
        return estimate / exact - 1


def arc(params, n, dps=50):
    return ArcContext.build(params, n, dps=dps)


def mpf_hankel(k, x, dps):
    """The truncated Hankel sum of _bessel_hankel(k, x, dps), summed in mpf at dps + 30 digits.

    Returns (I_k(x) estimate, terms read).  The truncation
    is the production one: stop at the first term not smaller than the last,
    where a term below the unit 2^-wp of the fixed-point sum (wp =
    _fixed_bits() at dps + 10 digits) is 0.  The stop comes by term
    4 floor(x) + 20, as _hankel_sum's docstring says.
    """
    with mp.workdps(dps + 10):
        unit = mp.ldexp(1, -asymptotics._fixed_bits())
    with mp.workdps(dps + 30):
        x = mp.mpf(x)
        term = total = smallest = mp.mpf(1)
        read = j = 1
        while True:
            term = -term * (4 * k * k - (2 * j - 1) ** 2) / (8 * j * x)
            read += 1
            size = abs(term) if abs(term) >= unit else 0
            if size >= smallest:
                break
            total += term
            smallest = size
            j += 1
        assert j <= 4 * int(x) + 20
        return mp.exp(x) / mp.sqrt(2 * mp.pi * x) * total, read


class TestSaddle:
    def test_known_value(self):
        # radicand 3*1*2/2 - 9/4 + 9 = 39/4 at n = 1
        kappa = arc(P13, 1).kappa
        with mp.workdps(40):
            assert abs(kappa - mp.pi / mp.sqrt(mp.mpf(39) / 4)) < mp.mpf("1e-35")

    def test_radius_shrinks_with_n(self):
        values = [arc(P13, n).kappa for n in (1, 10, 100, 1000)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_nonpositive_radicand_rejected(self):
        # B = n + r(m-r)/(2m) - m/12 = n + 6/13 - 13/12 must be positive
        bound = r"m/12 - r\(m-r\)/\(2m\) = 97/156 \(about 0.621795\)"
        with pytest.raises(ValueError, match=rf"needs n > {bound} for \(r=1, m=13, standard\), got n=0$"):
            arc(StackParams(1, 13), 0)

    def test_conjugate_scale_identity(self):
        with mp.workdps(40):
            ctx = arc(P13, 50)
            assert abs(ctx.kappa * ctx.scale - mp.pi ** 2 / 9) < mp.mpf("1e-30")

    @given(valid_pairs, st.integers(1, 5000))
    @settings(max_examples=40, deadline=None)
    def test_scale_kappa_product(self, pair, n):
        params = StackParams(*pair)
        with mp.workdps(40):
            ctx = arc(params, n)
            assert abs(ctx.kappa * ctx.scale - mp.pi ** 2 / (3 * params.m)) < mp.mpf("1e-28")


class TestArcContext:
    def test_build(self):
        ctx = ArcContext.build(P13, 200, rho=0.9, dps=50)
        assert ctx.n == 200 and ctx.rho == 0.9 and ctx.dps == 50
        # B = 200 + 1*2/6 - 3/12, and kappa = pi/sqrt(3mB) = sqrt(A/B)
        assert ctx.B == Fraction(2401, 12)
        with mp.workdps(40):
            assert abs(ctx.A - mp.pi ** 2 / 9) < mp.mpf("1e-35")
            assert abs(ctx.prefactor - 1 / mp.sqrt(3)) < mp.mpf("1e-35")
            assert abs(ctx.kappa - mp.pi / mp.sqrt(mp.mpf(7203) / 4)) < mp.mpf("1e-35")
            assert abs(ctx.scale - mp.sqrt(ctx.A * 2401 / 12)) < mp.mpf("1e-35")

    def test_rho_validated(self):
        with pytest.raises(ValueError):
            ArcContext.build(P13, 200, rho=1.2)
        with pytest.raises(ValueError):
            ArcContext.build(P13, 200, rho=0)


class TestFixedPoint:
    @pytest.mark.parametrize("dps", [15, 50, 1200])
    def test_width_rule(self, dps):
        # mp.prec plus 10 guard bits plus the loop length's bits
        with mp.workdps(dps):
            for length in (0, 1, 400, 10**6):
                assert asymptotics._fixed_bits(length) == mp.mp.prec + 10 + length.bit_length()
            assert asymptotics._fixed_bits() == mp.mp.prec + FIXED_EXTRA_BITS


class TestBessel:
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("x", ["0.3", "2", "11", "30"])
    def test_series_matches_reference(self, order, x):
        with mp.workdps(60):
            xv = mp.mpf(x)
            mine = bessel_i(order, xv, dps=50)
            ref = mp.besseli(order, xv)
            assert abs(mine / ref - 1) < mp.mpf("1e-40")

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_asymptotic_route_large_argument(self, order):
        with mp.workdps(60):
            xv = mp.mpf(30)
            a = asymptotics._bessel_hankel(order, xv, 50)
            s = asymptotics._bessel_series(order, xv, 50)
            assert abs(a / s - 1) < mp.mpf("1e-8")

    @pytest.mark.parametrize("dps", [50, 100])
    @pytest.mark.parametrize("order, x", [(20, "1e-3")] + [(k, "66") for k in range(1, 17)])
    def test_series_error_against_mpmath_at_250_digits(self, order, x, dps):
        # k = 20 at x = 10^-3 puts the whole value in the prefactor (x/2)^k/k!; x = 66 is
        # asym's 2N at n = 1000, where the normalised sum takes 115 to 156 terms and nears 10^26
        with mp.workdps(250):
            xv = mp.mpf(x)
            ref = mp.besseli(order, xv)
            assert abs(bessel_i(order, xv, dps=dps) / ref - 1) <= mp.mpf(10) ** -dps

    @pytest.mark.parametrize("k, x, dps", HANKEL_CASES)
    def test_fixed_point_hankel_sum_equals_the_mpf_sum(self, k, x, dps, monkeypatch):
        read = 0
        terms = asymptotics._hankel_terms

        def counted(*args):
            nonlocal read
            for term in terms(*args):
                read += 1
                yield term

        monkeypatch.setattr(asymptotics, "_hankel_terms", counted)
        ref, ref_read = mpf_hankel(k, x, dps)
        # where the terms grow from the first on (order 16 at x = 30 and 66) both keep one term
        value = asymptotics._bessel_hankel(k, x, dps)
        with mp.workdps(dps + 10):
            assert abs(value / ref - 1) <= mp.mpf(10) ** -dps
        assert read == ref_read

    @pytest.mark.parametrize("dps", [15, 50, 200, 1200])
    def test_both_routes_match_mpmath_on_both_sides_of_the_switch(self, dps, monkeypatch):
        # the switch sits near x = (dps + 5) ln(10) / 2 for small orders; orders 16 and 17 keep
        # the series to x = (4k^2 - 1)/8 at 15 and 50 digits, where their terms grow at first
        switch = (dps + 5) * math.log(10) / 2
        below, above = round(0.95 * switch, 2), round(1.05 * switch, 2)
        series, ran = asymptotics._bessel_series, []

        def tracked(*args):
            ran.append(args)
            return series(*args)

        def refused(*args):
            raise AssertionError("the series route ran")

        monkeypatch.setattr(asymptotics, "_bessel_series", tracked)
        bessel_i(0, below, dps=dps)
        assert ran
        monkeypatch.setattr(asymptotics, "_bessel_series", refused)
        bessel_i(0, above, dps=dps)
        monkeypatch.undo()
        cases = [(k, x) for k in range(18) for x in (1, 10**6)]
        if dps == 1200:  # the series near x = 1400 costs about 0.1 s a call, as does mpmath
            cases += [(k, x) for k in (0, 17) for x in (below, above, 6623)]
        else:
            cases += [(k, x) for k in range(18) for x in (below, 1000, above, 6623)]
        for k, x in cases:
            with mp.workdps(dps + 20):
                x = mp.mpf(x)
                assert abs(bessel_i(k, x, dps=dps) / mp.besseli(k, x) - 1) <= mp.mpf(10) ** -dps, (k, x)

    def test_hankel_route_at_1200_digits(self, monkeypatch):
        # its smallest term at x = 6623, about 10^-5752, is 0 as a double, yet the route is chosen
        def series(*args):
            raise AssertionError("the series route ran")

        monkeypatch.setattr(asymptotics, "_bessel_series", series)
        with mp.workdps(1220):
            x = mp.mpf(6623)
            assert abs(bessel_i(1, x, dps=1200) / mp.besseli(1, x) - 1) <= mp.mpf(10) ** -1200

    def test_walk_skipped_only_where_it_cannot_succeed(self, monkeypatch):
        # order 0's smallest Hankel term bounds every order's walk from below: 10^-1131 at x = 1300 and
        # 10^-577 at x = 662 stay above 10^-1205, 10^-26.7 at x = 29.6 above 10^-58 but not 10^-20
        walks = []
        hankel_sum = asymptotics._hankel_sum

        def counted(k, x):
            walks.append((k, x))
            return hankel_sum(k, x)

        monkeypatch.setattr(asymptotics, "_hankel_sum", counted)
        for (k, x, dps), expected in [
            ((1, 1300, 1200), 0), ((16, 662, 1200), 0), ((0, 29.6, 53), 0), ((1, 10**4, 50), 1), ((1, 29.6, 15), 1)
        ]:
            walks.clear()
            bessel_i(k, x, dps=dps)
            assert len(walks) == expected, (k, x, dps)

    @pytest.mark.parametrize("dps", [15, 50, 1200])
    def test_route_is_the_one_the_walk_picks(self, dps, monkeypatch):
        # walked or skipped, bessel_i takes Hankel exactly where the walk's smallest term is below 10^-(dps+5)
        walks = {}
        hankel_sum = asymptotics._hankel_sum

        def walk(k, x):
            if (k, x) not in walks:
                walks[k, x] = hankel_sum(k, x)
            return walks[k, x]

        monkeypatch.setattr(asymptotics, "_hankel_sum", walk)
        monkeypatch.setattr(asymptotics, "_hankel_form", lambda x, total: "hankel")
        monkeypatch.setattr(asymptotics, "_bessel_series", lambda k, x, dps: "series")
        for k in range(18):
            for x in (1, 10, 30, 66, 300, 662, 1300, 3000):
                with mp.workdps(dps + 10):
                    smallest = walk(k, mp.mpf(x))[1]
                    picked = "hankel" if smallest * 10 ** (dps + 5) < 1 << (mp.mp.prec + 10) else "series"
                assert bessel_i(k, x, dps=dps) == picked, (k, x)

    def test_nonpositive_argument_takes_the_series(self):
        assert bessel_i(0, 0) == 1
        assert bessel_i(3, 0) == 0
        with pytest.raises(ValueError, match="x must be nonnegative"):
            bessel_i(1, -1)

    def test_negative_order_equals_positive(self):
        with mp.workdps(50):
            xv = mp.mpf("17.5")
            assert bessel_i(-1, xv) == bessel_i(1, xv)
            assert bessel_i(-3, xv) == bessel_i(3, xv)


class TestMainTerm:
    def test_anchor_n_100(self):
        x = main_term(P13, 100)
        with mp.workdps(40):
            assert abs(x / mp.mpf("3285951.22650561") - 1) < mp.mpf("1e-12")

    def test_anchor_n_1000(self):
        with mp.workdps(50):
            assert abs(main_term(P13, 1000) / mp.mpf(10) ** 25 - mp.mpf("2.71892886948301")) < mp.mpf("1e-11")

    def test_anchor_n_10000(self):
        with mp.workdps(50):
            assert abs(main_term(P13, 10000) / mp.mpf(10) ** 86 - mp.mpf("7.57255337981766")) < mp.mpf("1e-11")

    def test_relative_error_shrinks(self):
        series = stack_gf(P13, 1000)
        rel100 = abs(rel_error(main_term(P13, 100), series[100]))
        rel1000 = abs(rel_error(main_term(P13, 1000), series[1000]))
        assert rel1000 < rel100 < mp.mpf("0.04")


ONE_TERM = (Fraction(1, 2),)
PAIRS_AND_SIZES = [(pair, n) for pair in [(1, 3), (2, 5), (2, 3), (3, 7)] for n in (200, 1000)]


class TestRefined:
    def test_close_to_bessel_form(self):
        est = refined_main_term(P13, 1000)
        with mp.workdps(60):
            rel = est / arc(P13, 1000).bessel_sum(ONE_TERM) - 1
            # the two-term bracket truncates the uniform expansion of I_1
            assert abs(rel) < mp.mpf("1e-6")

    def test_improves_on_plain_main_term(self):
        series = stack_gf(P13, 1000)
        exact = series[1000]
        plain = abs(rel_error(main_term(P13, 1000), exact))
        refined = abs(rel_error(refined_main_term(P13, 1000), exact))
        assert refined < plain

    def test_small_n_rejected(self):
        # the asymptotic bracket needs the growth scale comfortably large
        with pytest.raises(ValueError, match="needs 2N >= 10"):
            refined_main_term(P13, 1)

    @pytest.mark.parametrize("pair, n", PAIRS_AND_SIZES)
    def test_hankel_route_equals_the_typed_bracket(self, pair, n):
        # csc/(24 m u^(3/4)) e^{2N} [1 - 3/(16N) - 15/(2 (16N)^2)], u = (N/pi)^2
        params = StackParams(*pair)
        r, m = pair
        with mp.workdps(60):
            big_b = n + mp.mpf(r * (m - r)) / (2 * m) - mp.mpf(m) / 12
            scale = mp.pi * mp.sqrt(big_b / (3 * m))
            u = (scale / mp.pi) ** 2
            bracket = 1 - 3 / (16 * scale) - 15 / (2 * (16 * scale) ** 2)
            typed = 1 / mp.sin(mp.pi * r / m) / (24 * m * u ** (mp.mpf(3) / 4)) * mp.exp(2 * scale) * bracket
            assert abs(refined_main_term(params, n) / typed - 1) < mp.mpf("1e-45")


class TestFalseThetaCoefficients:
    @pytest.mark.parametrize("a,b", [(3, -7), (4, -8), (5, -9), (7, -19), (3, -1)])
    def test_first_four_match_closed_forms(self, a, b):
        assert false_theta_coeffs(a, b, 3) == (
            Fraction(-1, 2),
            Fraction(b, 8),
            Fraction(a * b, 32),
            Fraction(b * (6 * a * a - b * b), 384),
        )

    @pytest.mark.parametrize("order", [3, 5, 7])
    def test_truncation_error_has_the_next_order(self, order):
        # halving z must divide the error of the order-K model by about 2^(K+1)
        coeffs = false_theta_coeffs(3, -7, order)
        errors = []
        with mp.workdps(60):
            for z in (mp.mpf("0.02"), mp.mpf("0.01")):
                model = sum(mp.mpf(c.numerator) / c.denominator * z ** k for k, c in enumerate(coeffs))
                errors.append(abs(false_theta(3, -7, 1j * z / (2 * mp.pi), 50) - model))
        assert 2 ** order <= errors[0] / errors[1] <= 2 ** (order + 2)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            false_theta_coeffs(3, -7, -1)


class TestExpansionCoefficients:
    def test_modulus_three(self):
        assert singular_expansion_coeffs(P13) == (
            Fraction(1, 2),
            Fraction(-1, 8),
            Fraction(-3, 32),
            Fraction(-53, 384),
        )

    def test_modulus_four(self):
        # m = 4r collapses the false theta to a genuine theta: every
        # algebraic correction vanishes and only the constant 1/2 survives
        assert singular_expansion_coeffs(P14) == (
            Fraction(1, 2),
            Fraction(0),
            Fraction(0),
            Fraction(0),
        )

    def test_gap_modulus_four(self):
        # (3, 4) has shift 2, so L = 1 + f_{4,0} is a theta function and
        # eta(-2k) = 0 removes every correction, to the last expansion term
        assert singular_expansion_coeffs(StackParams(3, 4), max_order=MAX_EXPANSION_TERMS - 1) == (
            (Fraction(1, 2),) + (Fraction(0),) * (MAX_EXPANSION_TERMS - 1)
        )

    def test_leading_term_is_half(self):
        for pair in [(1, 3), (1, 4), (1, 5), (2, 5), (3, 7)]:
            coeffs = singular_expansion_coeffs(StackParams(*pair))
            assert coeffs[0] == Fraction(1, 2)

    def test_max_order_respected(self):
        assert len(singular_expansion_coeffs(P13, max_order=1)) == 2
        assert len(singular_expansion_coeffs(P13, max_order=MAX_EXPANSION_TERMS - 1)) == MAX_EXPANSION_TERMS
        with pytest.raises(ValueError):
            singular_expansion_coeffs(P13, max_order=MAX_EXPANSION_TERMS)


STEP_PAIRS = [(1, 3), (5, 12), (41, 194)]


def per_order_sum(ctx, alphas):
    """sum_s alphas[s] P kappa^(s+1) I_{s+1}(2N) with one bessel_i call per order, at bessel_sum's digits."""
    digits = growth_dps(ctx.n, ctx.dps)
    with mp.workdps(digits):
        x = 2 * ctx.scale
        return mp.fsum(
            _fraction_to_mpf(alpha) * ctx.prefactor * ctx.kappa ** (s + 1) * bessel_i(s + 1, x, dps=digits)
            for s, alpha in enumerate(alphas)
        )


class TestBesselSum:
    def test_two_bessel_calls_whatever_the_number_of_terms(self, monkeypatch):
        orders = []

        def counted(order, x, dps):
            orders.append(order)
            return bessel_i(order, x, dps=dps)

        monkeypatch.setattr(asymptotics, "bessel_i", counted)
        for terms in (1, 2, 4, 16):
            orders.clear()
            arc(P13, 1000).bessel_sum(singular_expansion_coeffs(P13, max_order=terms - 1))
            assert sorted(orders) == [terms, terms + 1]

    # (41, 194) at n = 0 has 2N about 0.008, where the recurrence's 2v/x is largest
    @pytest.mark.parametrize("dps", [15, 50])
    @pytest.mark.parametrize("terms", [1, 4, 16])
    @pytest.mark.parametrize("n", [0, 50, 10 ** 3, 10 ** 7, 10 ** 30])
    @pytest.mark.parametrize("pair", STEP_PAIRS)
    def test_recurrence_equals_the_per_order_sum(self, pair, n, terms, dps):
        params = StackParams(*pair)
        ctx = arc(params, n, dps=dps)
        alphas = singular_expansion_coeffs(params, max_order=terms - 1)
        with mp.workdps(growth_dps(n, dps)):
            assert abs(ctx.bessel_sum(alphas) / per_order_sum(ctx, alphas) - 1) <= mp.mpf(10) ** (1 - dps)

    def test_recurrence_equals_the_per_order_sum_at_1200_digits(self):
        # 2N is about 662, below the 1200-digit switch: both bessel_i calls take the series
        ctx = arc(P13, 10 ** 5, dps=1200)
        alphas = singular_expansion_coeffs(P13, max_order=MAX_EXPANSION_TERMS - 1)
        with mp.workdps(growth_dps(ctx.n, ctx.dps)):
            assert abs(ctx.bessel_sum(alphas) / per_order_sum(ctx, alphas) - 1) <= mp.mpf(10) ** -1199

    @pytest.mark.parametrize("n", [0, 50, 10 ** 7])
    @pytest.mark.parametrize("pair", STEP_PAIRS)
    def test_one_term_reads_i1_from_bessel_i(self, pair, n):
        ctx = arc(StackParams(*pair), n)
        digits = growth_dps(n, ctx.dps)
        with mp.workdps(digits):
            expected = _fraction_to_mpf(ONE_TERM[0]) * ctx.prefactor * ctx.kappa * bessel_i(1, 2 * ctx.scale, dps=digits)
        assert ctx.bessel_sum(ONE_TERM) == expected


class TestAsymptoticSum:
    def test_accuracy_n_100(self):
        total = asymptotic_sum(P13, 100)
        rel = abs(rel_error(total, 3167122))
        assert rel < mp.mpf("5e-5")

    def test_accuracy_n_1000(self):
        series = stack_gf(P13, 1000)
        total = asymptotic_sum(P13, 1000)
        rel = abs(rel_error(total, series[1000]))
        assert rel < mp.mpf("1e-6")

    def test_first_term_matches_refined_bessel(self):
        for (r, m), n in PAIRS_AND_SIZES:
            params = StackParams(r, m)
            one_term = arc(params, n).bessel_sum(ONE_TERM)
            with mp.workdps(60):
                first = asymptotic_sum(params, n, terms=1)
                assert abs(one_term / first - 1) < mp.mpf("1e-30")
                # (csc/4) kappa I_1(2N) with mpmath's own Bessel function, to 30 digits
                kappa = mp.pi / mp.sqrt(3 * m * n + mp.mpf(3 * r * (m - r)) / 2 - mp.mpf(m * m) / 4)
                scale = mp.pi ** 2 / (3 * m * kappa)
                reference = 1 / mp.sin(mp.pi * r / m) / 4 * kappa * mp.besseli(1, 2 * scale)
                assert abs(one_term / reference - 1) < mp.mpf("1e-30"), (r, m, n)

    def test_terms_validated(self):
        with pytest.raises(ValueError):
            asymptotic_sum(P13, 100, terms=0)
        with pytest.raises(ValueError, match="between 1 and 16"):
            asymptotic_sum(P13, 100, terms=MAX_EXPANSION_TERMS + 1)

    def test_error_falls_with_every_term_at_1000(self):
        exact = stack_gf(P13, 1000)[1000]
        errors = [abs(rel_error(asymptotic_sum(P13, 1000, terms=k), exact)) for k in range(1, 13)]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert errors[-1] < mp.mpf("1e-13")

    def test_gap_error_falls_with_every_term_at_1000(self):
        p23 = StackParams(2, 3)
        exact = stack_gf(p23, 1000)[1000]
        errors = [abs(rel_error(asymptotic_sum(p23, 1000, terms=k), exact)) for k in range(1, 13)]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert errors[-1] < mp.mpf("1e-13")


class TestComparisonTable:
    def test_records_consistent(self):
        records = comparison_table(P13, [10, 100])
        assert [rec.n for rec in records] == [10, 100]
        assert records[1].exact == 3167122
        with mp.workdps(40):
            expected_rel = rel_error(main_term(P13, 100), 3167122)
            assert abs(records[1].relative_error - expected_rel) < mp.mpf("1e-30")

    def test_zero_count_size_rejected(self):
        # no (2, 5) stack sums to 5: the lone candidate peak 2 admits no right
        # part below it in class 3 mod 5
        with pytest.raises(ValueError, match="no stacks of size 5"):
            comparison_table(StackParams(2, 5), [5, 25])
