import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_stacks.bigfloat import LogValue10


def from_value(x, dps: int = 50) -> LogValue10:
    """LogValue10 of a positive number, its log taken at dps digits."""
    with mp.workdps(dps):
        return LogValue10.from_ln(mp.log(mp.mpf(x)))


class TestConstruction:
    def test_from_int(self):
        v = from_value(3167122)
        assert v.decompose()[1] == 6
        assert v.format(5) == "3.1671e+6"

    def test_from_number(self):
        v = from_value(0.00125)
        assert v.decompose()[1] == -3
        assert v.format(3) == "1.25e-3"

    def test_from_mantissa_exp(self):
        with mp.workdps(50):
            v = LogValue10.from_ln(mp.log(mp.mpf("2.6926")) + 25 * mp.log(mp.mpf(10)))
        mant, expo = v.decompose()
        assert expo == 25
        with mp.workdps(60):
            assert abs(mant - mp.mpf("2.6926")) < mp.mpf("1e-40")

    def test_rejects_nonpositive(self):
        est = from_value(3)
        with pytest.raises(ValueError):
            est.relative_error_against(0)
        with pytest.raises(ValueError):
            est.relative_error_against(-5)


class TestDecompose:
    def test_power_of_ten_boundary(self):
        v = from_value(1000)
        mant, expo = v.decompose(30)
        assert expo == 3
        assert abs(mant - 1) < mp.mpf("1e-25")

    def test_just_below_power_of_ten(self):
        v = from_value(999999)
        with mp.workdps(40):
            mant, expo = v.decompose(30)
            assert expo == 5
            assert abs(mant - mp.mpf("9.99999")) < mp.mpf("1e-20")

    def test_exact_powers_of_ten_snap(self):
        for k in (1, 6, 30, 120):
            mant, expo = from_value(10 ** k).decompose(40)
            assert (mant, expo) == (1, k)

    def test_tiny_value(self):
        mant, expo = LogValue10.from_ln(mp.mpf(-5000)).decompose()
        assert expo == int(mp.floor(-5000 / mp.log(10)))
        assert 1 <= mant < 10


class TestArithmetic:
    def test_relative_error_against(self):
        est = from_value(103)
        with mp.workdps(45):
            rel = est.relative_error_against(100)
            assert abs(rel - mp.mpf("0.03")) < mp.mpf("1e-30")

    def test_relative_error_sign(self):
        est = from_value(97)
        assert est.relative_error_against(100) < 0

    def test_to_mpf(self):
        # built at the ambient 15 digits from a 50-digit log: from_ln keeps every digit
        with mp.workdps(50):
            ln = mp.log(mp.mpf("2.5e10"))
        v = LogValue10.from_ln(ln)
        with mp.workdps(50):
            assert abs(mp.exp(v.ln_value) / mp.mpf("2.5e10") - 1) < mp.mpf("1e-40")

    def test_huge_value_stays_in_log_space(self):
        mant, expo = LogValue10.from_ln(mp.mpf(10) ** 6).decompose()
        # e^(10^6) has about 434294 decimal digits; only the split is computed
        assert expo == 434294
        assert 1 <= mant < 10


class TestFormatting:
    def test_negative_exponent(self):
        assert from_value("4.2e-7").format(3) == "4.20e-7"

    def test_rounding_in_display(self):
        v = from_value("3.28595122")
        assert v.format(5) == "3.2860e+0"

    def test_str(self):
        assert "e+" in str(from_value(12345))


@given(st.integers(1, 10 ** 30))
@settings(max_examples=80)
def test_exponent_matches_digit_count(n):
    v = from_value(n)
    assert v.decompose()[1] == len(str(n)) - 1
    assert abs(v.relative_error_against(n)) < mp.mpf("1e-35")


@given(st.integers(1, 9 * 10 ** 6), st.integers(-30, 30))
@settings(max_examples=60)
def test_scaling_shifts_exponent(n, k):
    v = from_value(n)
    mant, expo = v.decompose()
    with mp.workdps(60):
        shifted = LogValue10.from_ln(v.ln_value + k * mp.log(mp.mpf(10)))
        shifted_mant, shifted_expo = shifted.decompose()
        assert shifted_expo == expo + k
        assert abs(shifted_mant - mant) < mp.mpf("1e-30")
