import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from congruence_stacks.params import StackParams, Variant


def test_standard_construction():
    p = StackParams(1, 3)
    assert p.variant is Variant.STANDARD
    assert p.r == 1 and p.m == 3
    assert str(p) == "(r=1, m=3, standard)"


def test_gap_construction():
    p = StackParams(3, 4, Variant.GAP)
    assert p.variant is Variant.GAP
    assert str(p) == "(r=3, m=4, gap)"


def test_from_residue_infers_variant():
    assert StackParams.from_residue(1, 3).variant is Variant.STANDARD
    assert StackParams.from_residue(2, 3).variant is Variant.GAP
    assert StackParams.from_residue(3, 4).variant is Variant.GAP
    assert StackParams.from_residue(2, 5).variant is Variant.STANDARD


def test_peak_values():
    p = StackParams(1, 3)
    assert [p.peak(k) for k in range(4)] == [1, 4, 7, 10]
    g = StackParams(3, 4, Variant.GAP)
    assert [g.peak(k) for k in range(3)] == [3, 7, 11]


@pytest.mark.parametrize(
    "r,m",
    [(2, 4), (3, 6), (0, 3), (3, 3), (5, 3), (-1, 3), (1, 1), (1, 0), (1, 2)],
)
def test_invalid_residue_or_modulus(r, m):
    with pytest.raises(ValueError):
        StackParams.from_residue(r, m)


def test_variant_must_match_residue():
    with pytest.raises(ValueError):
        StackParams(1, 3, Variant.GAP)
    with pytest.raises(ValueError):
        StackParams(3, 4, Variant.STANDARD)


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
    with pytest.raises(ValueError, match="not bool"):
        StackParams.from_residue(r, m)


@given(st.integers(2, 60), st.integers(1, 59))
def test_from_residue_consistency(m, r):
    # 2r = m occurs only at (1, 2) under coprimality and admits no variant
    if not (0 < r < m) or math.gcd(r, m) != 1 or 2 * r == m:
        with pytest.raises(ValueError):
            StackParams.from_residue(r, m)
        return
    p = StackParams.from_residue(r, m)
    assert p.variant is (Variant.STANDARD if 2 * r < m else Variant.GAP)
    assert all(p.peak(k) % m == r % m for k in range(5))
