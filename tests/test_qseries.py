import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_stacks import qseries
from congruence_stacks.params import StackParams
from congruence_stacks.qseries import (
    TruncatedSeries,
    _inv_one_minus_inplace,
    _quotient_bits,
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
# 0-17 end on every edge of the division's first blocks of LANES = 8
# coefficients; at 2000 the default takes the lanes for m <= 6, one coefficient
# per addition above
DIVISION_ORDERS = [*range(18), 400, 2000]
HUGE_MODULI = [10**30 + 1, 10**400 + 1]


@pytest.fixture(params=["by_coefficient", "in_lanes", "tight", "refuted"])
def division(request, monkeypatch):
    """Forces one route of qseries' sparse division: one coefficient per sum;
    lanes at every order; lanes whose width bound is the widest coefficient
    itself, so only the lanes' own headroom keeps their sums apart; or lanes
    from a bound of 1 bit, which the first coefficient past 1 refutes, so the
    division takes one coefficient per sum.  "tight" reads its bound from the oracles at order 2000."""
    if request.param == "by_coefficient":
        monkeypatch.setattr(qseries, "LANE_BITS_LIMIT", 0)
    else:
        monkeypatch.setattr(qseries, "LANE_MIN_TERMS", 0)
        monkeypatch.setattr(qseries, "LANE_BITS_LIMIT", 10**9)
    if request.param == "tight":
        monkeypatch.setattr(qseries, "_quotient_bits", lambda params, order: widest_coefficient(*params, order))
    if request.param == "refuted":
        monkeypatch.setattr(qseries, "_quotient_bits", lambda params, order: 1)
    return request.param


@functools.cache
def recurrence_coeffs(r: int, m: int, order: int) -> tuple[int, ...]:
    """stack_recurrence's coefficients, shared by every division route."""
    return stack_recurrence(StackParams(r, m), order).coeffs


@functools.cache
def partition_product(r: int, m: int, order: int) -> tuple[int, ...]:
    """The product of 1/(1 - q^e) over e = r or -r mod m, one factor at a time."""
    c = [1] + [0] * order
    for e in range(1, order + 1):
        if e % m in (r, m - r):
            _inv_one_minus_inplace(c, e, order)
    return tuple(c)


def widest_coefficient(r: int, m: int, order: int) -> int:
    """The largest bit length among S's and F's coefficients through q^order, order <= 2000."""
    series = (recurrence_coeffs(r, m, 2000), partition_product(r, m, 2000))
    return max(abs(c).bit_length() for s in series for c in s[: order + 1])


def lane_calls(monkeypatch) -> list:
    """Records [bits, whether it returned coefficients] for every _divide_in_lanes call, in call order."""
    calls = []
    divide = qseries._divide_in_lanes

    def spy(num, terms, bits):
        calls.append(call := [bits, None])
        call[1] = (c := divide(num, terms, bits)) is not None
        return c

    monkeypatch.setattr(qseries, "_divide_in_lanes", spy)
    return calls


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

    @pytest.mark.parametrize("order", DIVISION_ORDERS)
    def test_matches_the_recurrence_at_every_small_modulus(self, order, division):
        # at order 400 the first minus and first plus exponent of every
        # family's theta series enter the division's gathers
        for r, m in ALL_PAIRS:
            assert stack_gf(StackParams(r, m), order).coeffs == recurrence_coeffs(r, m, 2000)[: order + 1], (r, m)

    @pytest.mark.parametrize("m", HUGE_MODULI)
    def test_matches_the_recurrence_at_huge_moduli(self, m, division):
        for r in (1, 2, m // 2, m - 1):
            params = StackParams(r, m)
            assert stack_gf(params, 2000) == stack_recurrence(params, 2000), (r, m)

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
    def test_division_matches_the_product(self, r, m, division):
        product = partition_product(r, m, 2000)
        for order in DIVISION_ORDERS:
            assert congruence_partition_gf(StackParams(r, m), order).coeffs == product[: order + 1], order

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


class TestDivisionWidth:
    """_quotient_bits bounds every coefficient the division makes, so the lanes are never refuted."""

    @pytest.mark.parametrize("r,m", ALL_PAIRS)
    def test_bounds_every_coefficient(self, r, m):
        for order in DIVISION_ORDERS:
            assert _quotient_bits(StackParams(r, m), order) >= widest_coefficient(r, m, order), order

    @pytest.mark.parametrize("r", [1, 2])
    def test_bounds_every_coefficient_at_order_10000(self, r, monkeypatch):
        # (1, 3): bound 317 bits against 289; the lanes take it in one pass
        params = StackParams(r, 3)
        calls = lane_calls(monkeypatch)
        for build in (stack_gf, congruence_partition_gf):
            widest = max(c.bit_length() for c in build(params, 10**4).coeffs)
            assert widest <= _quotient_bits(params, 10**4) <= widest + 40
        assert calls == [[_quotient_bits(params, 10**4), True]] * 2

    def test_a_lane_holds_a_sum_of_every_term(self, monkeypatch):
        # T = 1 - q^8 - ... - q^22 and this num make every c[n] the same M, so
        # each lane sums 15 terms to 15M with M at the bound: the width's
        # len(terms).bit_length() + 1 bits above bits are all used, and the bound holds
        monkeypatch.setattr(qseries, "LANE_MIN_TERMS", 0)
        calls = lane_calls(monkeypatch)
        M = 2**100 - 1
        terms = [(e, -1) for e in range(8, 23)]
        num = [M * (1 + sum(sign for e, sign in terms if e <= n)) for n in range(200)]
        assert qseries._divide_in_lanes(num, terms, M.bit_length()) == [M] * 200
        assert calls == [[M.bit_length(), True]]
        assert qseries._divide_by_coefficient(num, terms) == [M] * 200

    @pytest.mark.parametrize("m", HUGE_MODULI)
    def test_is_finite_at_huge_moduli(self, m):
        for r in (1, m - 1):
            for order in (0, 17, 2000):
                bits = _quotient_bits(StackParams(r, m), order)
                assert isinstance(bits, int) and 1 <= bits <= order.bit_length() + 1

    def test_a_refuted_width_takes_one_coefficient_per_sum(self, monkeypatch, division):
        calls = lane_calls(monkeypatch)
        by_coefficient = []
        divide = qseries._divide_by_coefficient
        monkeypatch.setattr(
            qseries, "_divide_by_coefficient", lambda num, terms: by_coefficient.append(len(num)) or divide(num, terms)
        )
        assert stack_gf(P13, 400) == stack_recurrence(P13, 400)
        if division == "refuted":
            # the first coefficient past 1 ends the one lanes call
            assert calls == [[1, False]] and by_coefficient == [401]
        elif division != "by_coefficient":
            assert calls == [[qseries._quotient_bits(P13, 400), True]] and by_coefficient == []
        else:
            assert calls == [[_quotient_bits(P13, 400), False]] and by_coefficient == [401]

    @pytest.mark.parametrize("order, in_lanes", [(875, False), (876, True)])
    def test_lanes_from_lane_min_terms(self, monkeypatch, order, in_lanes):
        # (1, 3)'s T has 47 terms after T[0] through q^875 and 48 through q^876
        assert len(_theta_terms(3, 1, order)) - 1 == qseries.LANE_MIN_TERMS - 1 + in_lanes
        calls = lane_calls(monkeypatch)
        assert stack_gf(P13, order) == stack_recurrence(P13, order)
        assert calls == [[_quotient_bits(P13, order), in_lanes]]

    def test_lanes_up_to_lane_bits_limit(self, monkeypatch):
        # (1, 3) at order 20 513 packs 74 999 184 bits of blocks, at 20 514 past LANE_BITS_LIMIT
        calls = lane_calls(monkeypatch)
        in_lanes, by_coefficient = stack_gf(P13, 20513), stack_gf(P13, 20514)
        assert calls == [[_quotient_bits(P13, 20513), True], [_quotient_bits(P13, 20514), False]]
        assert by_coefficient.coeffs[:-1] == in_lanes.coeffs

    @pytest.mark.parametrize("r, m, order", [(3, 5, 5000), (2, 5, 3000)])
    def test_the_benchmark_divisions_take_lanes_in_one_call(self, monkeypatch, r, m, order):
        # with (1, 3) at order 10^4 (test_bounds_every_coefficient_at_order_10000)
        # these are the benchmark's exact-workload series in lanes: none is refuted
        calls = lane_calls(monkeypatch)
        stack_gf(StackParams(r, m), order)
        assert calls == [[_quotient_bits(StackParams(r, m), order), True]]


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
