"""Precision settings shared by the numerical layers.

DEFAULT_DPS is the working precision, in decimal digits, of every routine that
takes a dps argument.  Magnitudes far beyond double range, such as the main
term at n = 10^4 (about 10^86), are plain mpf values: an mpf carries an
unbounded integer exponent, so e^(10^6) needs no special representation.

FIXED_EXTRA_BITS is the one setting of the fixed-point loops: analytic's
theta-type sums and q-Pochhammer product, and asymptotics' Bessel series and
Hankel expansion.  They run on Python integers in units of 2^-wp, with wp the
ambient mp.prec plus these bits (plus log2 of the loop length where the loop
length is known), and convert back to mpf once.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

DEFAULT_DPS = 50
FIXED_EXTRA_BITS = 10


def _fraction_to_mpf(x: Fraction) -> mp.mpf:
    """x at the ambient precision: the numerator rounded once, then one division."""
    return mp.mpf(x.numerator) / x.denominator
