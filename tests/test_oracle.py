import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_stacks.oracle import (
    ENUMERATION_CAP,
    StackWitness,
    count_stacks,
    enumerate_stacks,
)
from congruence_stacks.params import StackParams
from congruence_stacks.qseries import stack_gf, stack_recurrence

P13 = StackParams(1, 3)
P14 = StackParams(1, 4)
G34 = StackParams(3, 4)
# every family with 3 <= m <= 12, standard and gap alike
COPRIME_PAIRS = [(r, m) for m in range(3, 13) for r in range(1, m) if math.gcd(r, m) == 1]


class TestWitness:
    def test_valid_witness(self):
        w = StackWitness((1, 1, 4), 7, (5, 2, 2))
        assert w.weight == 22

    def test_left_must_be_nondecreasing(self):
        with pytest.raises(ValueError):
            StackWitness((4, 1), 7, ())

    def test_right_must_be_nonincreasing(self):
        with pytest.raises(ValueError):
            StackWitness((), 7, (2, 5))

    def test_peak_strictly_exceeds_right(self):
        with pytest.raises(ValueError):
            StackWitness((), 5, (5,))

    def test_peak_bounds_left(self):
        with pytest.raises(ValueError):
            StackWitness((9,), 5, ())
        StackWitness((5,), 5, ())  # equality on the left is allowed

    def test_positive_parts_only(self):
        with pytest.raises(ValueError):
            StackWitness((0,), 5, ())
        with pytest.raises(ValueError):
            StackWitness((), 0, ())

    def test_congruence_check(self):
        w = StackWitness((1, 1), 4, (2,))
        w.check_congruence(P13)
        with pytest.raises(ValueError):
            w.check_congruence(StackParams(2, 5))


def _plain_stack_series(order):
    """sum_{c>=1} q^c / ((q;q)_c (q;q)_{c-1}) through q^order, built densely.

    The peak c contributes q^c, left parts <= c give 1/(q;q)_c and right parts
    < c give 1/(q;q)_{c-1}.
    """
    series = [0] * (order + 1)
    inverse = [1] + [0] * order  # 1/((q;q)_c (q;q)_{c-1}), one c at a time
    for c in range(1, order + 1):
        for part in filter(None, (c, c - 1)):  # (q;q)_0 = 1 adds no factor
            for j in range(part, order + 1):
                inverse[j] += inverse[j - part]
        for j in range(order + 1 - c):
            series[j + c] += inverse[j]
    return series


class TestPlainCounts:
    def test_first_values(self):
        assert [count_stacks(n) for n in range(11)] == [0, 1, 2, 4, 8, 15, 27, 47, 79, 130, 209]

    def test_figure_example(self):
        assert count_stacks(4) == 8

    def test_matches_the_generating_function(self):
        series = _plain_stack_series(300)
        for n in [*range(61), 100, 200, 300]:
            assert count_stacks(n) == series[n], n

    def test_enumeration_matches_counts(self):
        for n in range(1, 13):
            ws = enumerate_stacks(n)
            assert len(ws) == count_stacks(n)
            assert len(set(ws)) == len(ws)
            assert all(w.weight == n for w in ws)


class TestCongruenceCounts:
    def test_first_values_modulus_three(self):
        assert [count_stacks(n, P13) for n in range(7)] == [0, 1, 1, 1, 2, 2, 3]

    def test_peak_example_modulus_four(self):
        assert count_stacks(12, P14) == 7
        peaks = sorted(w.peak for w in enumerate_stacks(12, P14))
        assert peaks == [1, 5, 5, 5, 5, 9, 9]

    def test_gap_variant_small_values(self):
        assert [count_stacks(n, G34) for n in range(8)] == [0, 0, 0, 1, 1, 1, 2, 3]

    @pytest.mark.parametrize("r,m", COPRIME_PAIRS)
    def test_matches_generating_function(self, r, m):
        params = StackParams(r, m)
        series = stack_gf(params, 40)
        recurrence = stack_recurrence(params, 40)
        for n in range(41):
            assert series[n] == recurrence[n] == count_stacks(n, params)

    @pytest.mark.parametrize("r,m", COPRIME_PAIRS)
    def test_matches_the_series_to_200(self, r, m):
        # both tables stop at n - peak, and at these sizes some steps admit
        # right parts larger than that
        params = StackParams(r, m)
        series = stack_gf(params, 200)
        assert [count_stacks(n, params) for n in range(201)] == [series[n] for n in range(201)]

    @pytest.mark.parametrize("pair", [(1, 3), (3, 5)], ids=["standard", "gap"])
    def test_matches_the_series_at_1000(self, pair):
        params = StackParams(*pair)
        assert count_stacks(1000, params) == stack_gf(params, 1000)[1000]

    @pytest.mark.parametrize("r,m", [(1, 3), (1, 4), (2, 5), (3, 4)])
    def test_enumeration_matches_counts(self, r, m):
        params = StackParams(r, m)
        for n in range(1, 21):
            ws = enumerate_stacks(n, params)
            assert len(ws) == count_stacks(n, params)
            for w in ws:
                w.check_congruence(params)
                assert w.weight == n


class TestEnumerationLimits:
    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            enumerate_stacks(ENUMERATION_CAP + 1)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            count_stacks(-1)
        with pytest.raises(ValueError):
            count_stacks(-1, P13)


@given(st.integers(1, 18))
@settings(max_examples=18, deadline=None)
def test_plain_enumeration_is_exhaustive(n):
    ws = enumerate_stacks(n)
    assert len(set(ws)) == count_stacks(n)


@given(st.integers(1, 24), st.sampled_from([(1, 3), (1, 4), (2, 5), (3, 4), (2, 7)]))
@settings(max_examples=40, deadline=None)
def test_congruence_enumeration_is_exhaustive(n, pair):
    params = StackParams(*pair)
    ws = enumerate_stacks(n, params)
    assert len(set(ws)) == count_stacks(n, params)
    for w in ws:
        w.check_congruence(params)
