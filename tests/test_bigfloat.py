"""Magnitudes far beyond double range are plain mpf values; cli's scientific formatter prints them."""

import mpmath as mp
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_stacks.cli import _scientific


def split(x, digits: int) -> tuple[str, int]:
    """The formatter's mantissa digits and exponent of x."""
    mantissa, exponent = _scientific(x, digits).split("e")
    return mantissa, int(exponent)


class TestConstruction:
    def test_from_int(self):
        assert _scientific(mp.mpf(3167122), 5) == "3.1671e+6"

    def test_from_number(self):
        assert _scientific(mp.mpf("0.00125"), 3) == "1.25e-3"

    def test_from_mantissa_exp(self):
        with mp.workdps(50):
            x = mp.mpf("2.6926") * mp.mpf(10) ** 25
        assert split(x, 40) == ("2.6926" + "0" * 35, 25)


class TestDecompose:
    def test_power_of_ten_boundary(self):
        assert split(mp.mpf(1000), 30) == ("1." + "0" * 29, 3)

    def test_just_below_power_of_ten(self):
        assert split(mp.mpf(999999), 30) == ("9.99999" + "0" * 24, 5)

    def test_tiny_value(self):
        with mp.workdps(50):
            x = mp.exp(-5000)
        mantissa, exponent = split(x, 10)
        assert exponent == int(mp.floor(-5000 / mp.log(10)))
        assert 1 <= mp.mpf(mantissa) < 10


class TestArithmetic:
    def test_huge_value_stays_in_log_space(self):
        # e^(10^6) has about 434294 decimal digits; the mpf holds it as a
        # binary exponent, and only the decimal split is computed
        mantissa, exponent = split(mp.exp(mp.mpf(10) ** 6), 10)
        assert exponent == 434294
        assert 1 <= mp.mpf(mantissa) < 10


class TestFormatting:
    def test_negative_exponent(self):
        assert _scientific(mp.mpf("4.2e-7"), 3) == "4.20e-7"

    def test_rounding_in_display(self):
        assert _scientific(mp.mpf("3.28595122"), 5) == "3.2860e+0"

    def test_str(self):
        assert _scientific(mp.mpf(12345), 5) == "1.2345e+4"


@given(st.integers(1, 10 ** 30))
@settings(max_examples=80)
def test_exponent_matches_digit_count(n):
    with mp.workdps(50):
        x = mp.mpf(n)
    mantissa, exponent = split(x, 40)
    assert exponent == len(str(n)) - 1
    assert mantissa.replace(".", "").rstrip("0") == str(n).rstrip("0")


@given(st.integers(1, 9 * 10 ** 6), st.integers(-30, 30))
@settings(max_examples=60)
def test_scaling_shifts_exponent(n, k):
    with mp.workdps(60):
        x = mp.mpf(n)
        shifted = x * mp.mpf(10) ** k
    mantissa, exponent = split(x, 30)
    assert split(shifted, 30) == (mantissa, exponent + k)
