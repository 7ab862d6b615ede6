import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from congruence_stacks.params import StackParams


def test_standard_construction():
    p = StackParams(1, 3)
    assert p.variant == "standard"
    assert p.r == 1 and p.m == 3
    assert str(p) == "(r=1, m=3, standard)"


def test_gap_construction():
    p = StackParams(3, 4)
    assert p.variant == "gap"
    assert str(p) == "(r=3, m=4, gap)"


def test_from_residue_infers_variant():
    assert StackParams(1, 3).variant == "standard"
    assert StackParams(2, 3).variant == "gap"
    assert StackParams(3, 4).variant == "gap"
    assert StackParams(2, 5).variant == "standard"


def test_variant_is_read_only():
    p = StackParams(1, 3)
    with pytest.raises(AttributeError):
        p.variant = "gap"
    with pytest.raises(TypeError):
        StackParams(1, 3, "gap")


def test_peak_values():
    # the peaks km + r are the parts in r mod m
    p = StackParams(1, 3)
    assert [k * p.m + p.r for k in range(4)] == [v for v in range(1, 11) if v % p.m == p.r] == [1, 4, 7, 10]


@pytest.mark.parametrize("r,m,shift", [(1, 3, 2), (2, 5, 4), (2, 3, 1), (3, 4, 2), (3, 5, 1)])
def test_shift_is_peak_minus_largest_right_part(r, m, shift):
    p = StackParams(r, m)
    assert p.shift == shift
    # right parts lie in -r mod m; the largest one below the peak 2m + r
    peak = 2 * m + r
    assert peak - p.shift == max(v for v in range(1, peak) if v % m == (m - r) % m)
    with pytest.raises(AttributeError):
        p.shift = 0
    g = StackParams(3, 4)
    assert [k * g.m + g.r for k in range(3)] == [v for v in range(1, 12) if v % g.m == g.r] == [3, 7, 11]


@pytest.mark.parametrize(
    "r,m",
    [(2, 4), (3, 6), (0, 3), (3, 3), (5, 3), (-1, 3), (1, 1), (1, 0), (1, 2)],
)
def test_invalid_residue_or_modulus(r, m):
    with pytest.raises(ValueError):
        StackParams(r, m)


def test_non_integer_rejected():
    with pytest.raises(ValueError):
        StackParams(1.5, 3)
    with pytest.raises(ValueError):
        StackParams(1, "3")


@pytest.mark.parametrize("r,m", [(True, 3), (1, True), (False, 3)])
def test_bool_rejected(r, m):
    # bool subclasses int, so True would otherwise pass as the residue 1
    with pytest.raises(ValueError, match="not bool"):
        StackParams(r, m)


@given(st.integers(2, 60), st.integers(1, 59))
def test_from_residue_consistency(m, r):
    # 2r = m occurs only at (1, 2) under coprimality and admits no variant
    if not (0 < r < m) or math.gcd(r, m) != 1 or 2 * r == m:
        with pytest.raises(ValueError):
            StackParams(r, m)
        return
    p = StackParams(r, m)
    assert p.variant == ("standard" if 2 * r < m else "gap")
    # a peak km + r less the shift lies in the right parts' class -r mod m
    assert all((k * m + r - p.shift) % m == (m - r) % m for k in range(5))
