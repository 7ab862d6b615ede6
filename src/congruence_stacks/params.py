"""Parameter validation for congruence stacks.

A stack family is indexed by a residue r and a modulus m with gcd(r, m) = 1
and 0 < r < m.  Peaks and left parts lie in r mod m, right parts in -r mod m.
Two series variants exist: the standard one applies when 2r < m (the largest
admissible right part below a peak c = km + r is km - r), the gap variant when
2r > m (the largest is (k+1)m - r).  The case 2r = m would force gcd(r, m) = r,
so it never occurs for m > 2; m = 2 admits no valid residue at all.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class Variant(str, enum.Enum):
    STANDARD = "standard"
    GAP = "gap"


@dataclass(frozen=True)
class StackParams:
    """Validated (r, m, variant) triple.

    Raises ValueError naming the violated constraint.  Use from_residue() to
    infer the variant from the sign of m - 2r.
    """

    r: int
    m: int
    variant: Variant = Variant.STANDARD

    def __post_init__(self) -> None:
        # bool subclasses int, but True and False are not residues or moduli
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (self.r, self.m)):
            raise ValueError(f"r and m must be integers (not bool), got r={self.r!r}, m={self.m!r}")
        if self.m <= 1:
            raise ValueError(f"modulus m must exceed 1, got m={self.m}")
        if not 0 < self.r < self.m:
            raise ValueError(f"residue must satisfy 0 < r < m, got r={self.r}, m={self.m}")
        if math.gcd(self.r, self.m) != 1:
            raise ValueError(
                f"r and m must be coprime, got gcd({self.r}, {self.m}) = {math.gcd(self.r, self.m)}"
            )
        if 2 * self.r == self.m:
            # coprimality forces r = 1, m = 2 here; neither variant applies
            raise ValueError("no variant exists at 2r = m; the modulus must exceed 2")
        variant = Variant(self.variant)
        object.__setattr__(self, "variant", variant)
        if variant is Variant.STANDARD and not 2 * self.r < self.m:
            raise ValueError(
                f"standard variant requires 2r < m, got r={self.r}, m={self.m}"
            )
        if variant is Variant.GAP and not 2 * self.r > self.m:
            raise ValueError(f"gap variant requires 2r > m, got r={self.r}, m={self.m}")

    @classmethod
    def from_residue(cls, r: int, m: int) -> "StackParams":
        """Build params with the variant inferred from (r, m)."""
        if isinstance(r, int) and isinstance(m, int) and 0 < 2 * r < m:
            return cls(r, m, Variant.STANDARD)
        return cls(r, m, Variant.GAP)

    def peak(self, k: int) -> int:
        """k-th admissible peak value, k >= 0."""
        return k * self.m + self.r

    def __str__(self) -> str:
        return f"(r={self.r}, m={self.m}, {self.variant.value})"
