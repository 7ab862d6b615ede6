import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_stacks.params import StackParams
from congruence_stacks.qseries import (
    TruncatedSeries,
    _inv_one_minus_inplace,
    _theta_terms,
    congruence_partition_gf,
    correction_gf,
    false_theta_gf,
    stack_gf,
    stack_recurrence,
    verify_decomposition,
)

P13 = StackParams(1, 3)
P14 = StackParams(1, 4)
G34 = StackParams(3, 4)

STANDARD_PAIRS = [(1, 3), (1, 4), (1, 5), (2, 5), (3, 7)]
# every family with 3 <= m <= 12, standard and gap alike
ALL_PAIRS = [(r, m) for m in range(3, 13) for r in range(1, m) if math.gcd(r, m) == 1]
GAP_PAIRS = [(r, m) for r, m in ALL_PAIRS if 2 * r > m]


def coprime_pairs(variant: str):
    """(r, m) with m <= 15 in one variant: standard when 2r < m, gap when 2r > m."""
    return st.integers(3, 15).flatmap(
        lambda m: st.sampled_from(
            [r for r in range(1, m) if math.gcd(r, m) == 1 and (2 * r < m) == (variant == "standard")]
        ).map(lambda r: (r, m))
    )


small_series = st.builds(
    lambda cs: TruncatedSeries(tuple(cs)),
    st.lists(st.integers(-9, 9), min_size=1, max_size=12),
)


def inv_one_minus(a: TruncatedSeries, d: int) -> TruncatedSeries:
    """a / (1 - q^d) through the running-sum kernel of stack_gf."""
    c = list(a.coeffs)
    _inv_one_minus_inplace(c, d, a.order)
    return TruncatedSeries(tuple(c))


def product_with_terms(a: TruncatedSeries, terms: list[tuple[int, int]]) -> list[int]:
    """Coefficients of a times the sparse series of (exponent, sign) terms, through a.order."""
    out = [0] * (a.order + 1)
    for e, sign in terms:
        for i in range(e, a.order + 1):
            out[i] += sign * a.coeffs[i - e]
    return out


def brute_partition_count(n: int, allowed: list[int]) -> int:
    """Unbounded partitions of n into parts from `allowed`; the oracle for F."""
    table = [1] + [0] * n
    for part in allowed:
        for v in range(part, n + 1):
            table[v] += table[v - part]
    return table[n]


def times_one_minus(a: TruncatedSeries, d: int) -> TruncatedSeries:
    """a * (1 - q^d), written out coefficient by coefficient."""
    return TruncatedSeries(tuple(c - (a.coeffs[i - d] if i >= d else 0) for i, c in enumerate(a.coeffs)))


class TestSeriesAlgebra:
    def test_mul_inv_one_minus_matches_geometric(self):
        a = TruncatedSeries((1,) + (0,) * 12)
        b = inv_one_minus(a, 3)
        geometric = TruncatedSeries(tuple(1 if i % 3 == 0 else 0 for i in range(13)))
        assert b == geometric

    def test_mul_inv_one_minus_is_inverse(self):
        s = TruncatedSeries((2, -1, 0, 5, 3, 0, 0, 1, 0, 0, 4))
        # multiplying back by (1 - q^2) must recover the input
        assert times_one_minus(inv_one_minus(s, 2), 2) == s

    @given(small_series, st.integers(1, 6))
    def test_inv_one_minus_agrees_with_series_mul(self, a, d):
        # the product with the geometric series 1/(1 - q^d), written out:
        # coefficient i is sum_{k >= 0} a[i - kd]
        expected = tuple(sum(a.coeffs[i - k] for k in range(0, i + 1, d)) for i in range(a.order + 1))
        assert inv_one_minus(a, d).coeffs == expected
        assert times_one_minus(inv_one_minus(a, d), d) == a


class TestStackSeries:
    def test_first_coefficients_modulus_three(self):
        s = stack_gf(P13, 20)
        assert [s[n] for n in range(7)] == [0, 1, 1, 1, 2, 2, 3]

    def test_peak_example_modulus_four(self):
        s = stack_gf(P14, 16)
        assert s[12] == 7
        assert [s[n] for n in range(16)] == [0, 1, 1, 1, 1, 2, 2, 2, 3, 4, 5, 6, 7, 9, 11, 13]

    def test_anchor_value_n_100(self):
        assert stack_gf(P13, 100)[100] == 3167122

    def test_gap_variant_values(self):
        s = stack_gf(G34, 24)
        assert [s[n] for n in range(25)] == [
            0, 0, 0, 1, 1, 1, 2, 3, 3, 4, 5, 6, 8,
            9, 11, 14, 16, 19, 23, 27, 32, 38, 45, 52, 61,
        ]

    @pytest.mark.parametrize("variant", ["standard", "gap"])
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_matches_the_recurrence(self, variant, data):
        r, m = data.draw(coprime_pairs(variant))
        order = data.draw(st.integers(0, 2000))
        params = StackParams(r, m)
        assert stack_gf(params, order) == stack_recurrence(params, order)

    @pytest.mark.parametrize("order", [0, 1, 2, 300])
    def test_matches_the_recurrence_at_every_small_modulus(self, order):
        # at order 300 the first minus and first plus exponent of every
        # family's theta series enter the division's gathers
        for r, m in ALL_PAIRS:
            params = StackParams(r, m)
            assert stack_gf(params, order) == stack_recurrence(params, order), (r, m)

    def test_negative_order_rejected(self):
        for build in (stack_gf, stack_recurrence, congruence_partition_gf):
            with pytest.raises(ValueError):
                build(P13, -1)

    def test_coefficients_nonnegative(self):
        for r, m in STANDARD_PAIRS:
            s = stack_gf(StackParams(r, m), 60)
            assert all(c >= 0 for c in s.coeffs)


class TestPartitionFactor:
    @pytest.mark.parametrize("r,m", ALL_PAIRS)
    def test_division_matches_the_product(self, r, m):
        # the product of 1/(1 - q^e) over e = r or -r mod m, one factor at a time
        c = [1] + [0] * 500
        for e in range(1, 501):
            if e % m in (r, m - r):
                _inv_one_minus_inplace(c, e, 500)
        assert congruence_partition_gf(StackParams(r, m), 500).coeffs == tuple(c)

    def test_counts_parts_avoiding_zero_class(self):
        F = congruence_partition_gf(P13, 20)
        allowed = [k for k in range(1, 21) if k % 3 in (1, 2)]
        for n in range(21):
            assert F[n] == brute_partition_count(n, allowed)

    def test_counts_modulus_five(self):
        p = StackParams(2, 5)
        F = congruence_partition_gf(p, 30)
        allowed = [k for k in range(1, 31) if k % 5 in (2, 3)]
        for n in range(31):
            assert F[n] == brute_partition_count(n, allowed)


class TestFalseThetaSeries:
    def test_support_modulus_three(self):
        assert false_theta_gf(P13, 25) == [(0, 1), (1, -1), (5, 1), (12, -1), (22, 1)]

    def test_alternating_unit_coefficients(self):
        for r, m in ALL_PAIRS:
            signs = [c for _, c in false_theta_gf(StackParams(r, m), 300)]
            assert all(abs(c) == 1 for c in signs)
            assert all(a == -b for a, b in zip(signs, signs[1:]))


class TestCorrectionSeries:
    def test_support_modulus_three(self):
        assert correction_gf(P13, 40) == [
            (0, -1), (1, 1), (3, 1), (10, -1), (15, -1), (28, 1), (36, 1),
        ]

    def test_support_modulus_four(self):
        assert correction_gf(P14, 40) == [
            (0, -1), (2, 1), (5, 1), (15, -1), (22, -1), (40, 1),
        ]

    def test_support_gap_modulus_three(self):
        # the triangular numbers T(3j) and T(3j+1)
        assert correction_gf(StackParams(2, 3), 30) == [
            (0, -1), (1, -1), (6, 1), (10, 1), (21, -1), (28, -1),
        ]

    def test_coefficients_stay_in_unit_range(self):
        for r, m in ALL_PAIRS:
            R = correction_gf(StackParams(r, m), 500)
            assert all(c in (-1, 1) and 0 <= e <= 500 for e, c in R)


class TestSparseTerms:
    def test_exponents_ascend_strictly_with_unit_signs(self):
        # L, R, P and T; stack_gf ends each row of its sparse products at the
        # first exponent past order, which needs the exponents in ascending order
        for r, m in ALL_PAIRS:
            params = StackParams(r, m)
            for name, terms in (
                ("L", false_theta_gf(params, 2000)),
                ("R", correction_gf(params, 2000)),
                ("P", _theta_terms(3 * m, m, 2000)),
                ("T", _theta_terms(m, r, 2000)),
            ):
                exponents = [e for e, _ in terms]
                assert exponents == sorted(set(exponents)), (r, m, name)
                assert 0 <= exponents[0] and exponents[-1] <= 2000, (r, m, name)
                assert all(sign in (-1, 1) for _, sign in terms), (r, m, name)


class TestDecomposition:
    @pytest.mark.parametrize("r,m", [pair for pair in ALL_PAIRS if pair not in GAP_PAIRS])
    def test_holds_for_standard_parameters(self, r, m):
        report = verify_decomposition(StackParams(r, m), 300)
        assert report.ok
        assert report.mismatches == ()
        assert report.max_abs_residual == 0

    @pytest.mark.parametrize("r,m", GAP_PAIRS)
    def test_holds_for_gap_parameters(self, r, m):
        # This test once expected (3, 4) to fail at q^0.  The program was at
        # fault: L and R took the standard exponents 2r, 3r, so for gap pairs
        # L lost its j = 1 term to a negative exponent.  With t = 2r mod m the
        # identity holds exactly through q^2000 for every pair here.
        report = verify_decomposition(StackParams(r, m), 300)
        assert report.ok
        assert report.max_abs_residual == 0

    def test_counts_track_product_within_one(self):
        F = congruence_partition_gf(P13, 300)
        s = stack_gf(P13, 300)
        h = product_with_terms(F, false_theta_gf(P13, 300))
        assert all(abs(s[n] - h[n]) <= 1 for n in range(301))
