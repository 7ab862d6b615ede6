"""Parameter validation for congruence stacks.

A stack family is indexed by a residue r and a modulus m with gcd(r, m) = 1
and 0 < r < m.  Peaks and left parts lie in r mod m, right parts in -r mod m.
Below a peak c = km + r the largest admissible right part is c - t with the
shift t = 2r mod m: km - r in the standard variant (2r < m, t = 2r), (k+1)m - r
in the gap variant (2r > m, t = 2r - m).  The shift is the one number the
series, its decomposition S = F*L + R and the expansion read.  The case
2r = m would force gcd(r, m) = r, so it never occurs for m > 2; m = 2 admits
no valid residue at all.
"""

from __future__ import annotations

import math
from collections import namedtuple


class StackParams(namedtuple("StackParams", "r m")):
    """Validated (r, m) pair; raises ValueError naming the violated constraint."""

    __slots__ = ()

    def __new__(cls, r: int, m: int) -> StackParams:
        # bool subclasses int, but True and False are not residues or moduli
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (r, m)):
            raise ValueError(f"r and m must be integers (not bool), got r={r!r}, m={m!r}")
        if m <= 1:
            raise ValueError(f"modulus m must exceed 1, got m={m}")
        if not 0 < r < m:
            raise ValueError(f"residue must satisfy 0 < r < m, got r={r}, m={m}")
        if math.gcd(r, m) != 1:
            raise ValueError(f"r and m must be coprime, got gcd({r}, {m}) = {math.gcd(r, m)}")
        if 2 * r == m:
            # coprimality forces r = 1, m = 2 here; neither variant applies
            raise ValueError("no variant exists at 2r = m; the modulus must exceed 2")
        return super().__new__(cls, r, m)

    @classmethod
    def _make(cls, iterable) -> StackParams:
        # namedtuple's own _make, which _replace calls, would skip the checks in __new__
        return cls(*iterable)

    @property
    def variant(self) -> str:
        """The series variant, "standard" when 2r < m and "gap" when 2r > m."""
        return "standard" if 2 * self.r < self.m else "gap"

    @property
    def shift(self) -> int:
        """t = 2r mod m, a peak minus the largest right part below it."""
        return 2 * self.r % self.m

    def __str__(self) -> str:
        return f"(r={self.r}, m={self.m}, {self.variant})"
