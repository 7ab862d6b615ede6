"""Base-10 floating values for quantities far beyond double range.

Stack counts grow like exp(c sqrt(n)), so asymptotic main terms at n = 10^4
are around 10^86 and comparisons at much larger n overflow floats long before
they trouble mpmath.  LogValue10 keeps the natural log as the source of truth
(an mpf carrying its own precision) and exposes a decimal mantissa/exponent
pair for display and CSV export; at the default precision the mantissa
carries at least 30 significant digits.

FIXED_EXTRA_BITS is the one setting of the fixed-point loops: analytic's
theta-type sums and q-Pochhammer product, and asymptotics' Bessel series and
Hankel expansion.  They run on Python integers in units of 2^-wp, with wp the
ambient mp.prec plus these bits (plus log2 of the loop length where the loop
length is known), and convert back to mpf once.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

import mpmath as mp

DEFAULT_DPS = 50
FIXED_EXTRA_BITS = 10


def _fraction_to_mpf(x: Fraction) -> mp.mpf:
    """x at the ambient precision: the numerator rounded once, then one division."""
    return mp.mpf(x.numerator) / x.denominator


class LogValue10(namedtuple("LogValue10", "ln_value")):
    """Positive real stored as its natural logarithm, an mpf."""

    __slots__ = ()

    @classmethod
    def from_ln(cls, ln_value) -> "LogValue10":
        # mp.mpf(x) re-rounds an existing mpf to the ambient precision, which
        # would silently discard digits computed under a higher-dps context
        if isinstance(ln_value, mp.mpf):
            return cls(ln_value)
        return cls(mp.mpf(ln_value))

    def decompose(self, dps: int = DEFAULT_DPS) -> tuple[mp.mpf, int]:
        """(mantissa in [1, 10), exponent10) such that value = mantissa * 10^e.

        Values whose base-10 logarithm sits within the rounding error of an
        integer snap to mantissa exactly 1: otherwise an input like 10^30,
        carried as a log, would land a hair below the boundary and come back
        as 9.99...9 x 10^29.
        """
        with mp.workdps(dps):
            log10v = self.ln_value / mp.log(mp.mpf(10))
            nearest = mp.nint(log10v)
            snap_tol = mp.mpf(10) ** (-(dps - 5)) * (abs(log10v) + 1)
            if abs(log10v - nearest) <= snap_tol:
                return mp.mpf(1), int(nearest)
            e = int(mp.floor(log10v))
            mant = mp.power(10, log10v - e)
            # guard against boundary rounding in the power itself
            if mant >= 10:
                mant /= 10
                e += 1
            if mant < 1:
                mant *= 10
                e -= 1
            return mant, e

    def relative_error_against(self, exact: int, dps: int = DEFAULT_DPS) -> mp.mpf:
        """(self - exact) / exact for an exact positive integer reference."""
        if exact <= 0:
            raise ValueError("reference must be a positive integer")
        with mp.workdps(dps):
            return mp.expm1(self.ln_value - mp.log(mp.mpf(exact)))

    def format(self, digits: int = 5) -> str:
        mant, e = self.decompose()
        return f"{mp.nstr(mant, digits, strip_zeros=False)}e{e:+d}"

    def __str__(self) -> str:
        return self.format()
