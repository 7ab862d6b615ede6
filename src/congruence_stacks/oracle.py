"""Direct combinatorial counting of stacks, independent of any q-series.

A stack of n is a unimodal sequence summing to n: nondecreasing left parts,
a peak, nonincreasing right parts, where every copy of the maximum is kept on
the left of the split (right parts are strictly below the peak).  A family is
read as three numbers (first peak, step, first right part): peaks and left
parts run first, first + step, ..., right parts first right part, first right
part + step, ...  A congruence family (r, m) is (r, m, m - r), so peak and left
parts lie in r mod m and right parts in -r mod m; the plain stacks
(params=None), with unrestricted parts, are the family (1, 1, 1).

count_stacks is a bounded-knapsack dynamic program; enumerate_stacks lists
the witnesses themselves.  Both implement the definition directly so they can
serve as ground truth for the generating functions.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from operator import mul

from .params import StackParams

ENUMERATION_CAP = 30  # explicit listings blow up combinatorially past this


class StackWitness(namedtuple("StackWitness", "left peak right")):
    """One stack: the tuple of left parts, the peak and the tuple of right parts."""

    __slots__ = ()

    def __new__(cls, left: tuple[int, ...], peak: int, right: tuple[int, ...]) -> StackWitness:
        if peak <= 0:
            raise ValueError("peak must be positive")
        if any(p <= 0 for p in left) or any(p <= 0 for p in right):
            raise ValueError("parts must be positive")
        if list(left) != sorted(left):
            raise ValueError("left parts must be nondecreasing")
        if list(right) != sorted(right, reverse=True):
            raise ValueError("right parts must be nonincreasing")
        if left and left[-1] > peak:
            raise ValueError("left parts may not exceed the peak")
        if right and right[0] >= peak:
            raise ValueError("right parts must stay strictly below the peak")
        return super().__new__(cls, left, peak, right)

    @classmethod
    def _make(cls, iterable) -> StackWitness:
        # namedtuple's own _make, which _replace calls, would skip the checks in __new__
        return cls(*iterable)

    @property
    def weight(self) -> int:
        return sum(self.left) + self.peak + sum(self.right)

    def check_congruence(self, params: StackParams) -> None:
        m, r = params.m, params.r
        if self.peak % m != r % m:
            raise ValueError(f"peak {self.peak} not in {r} mod {m}")
        for p in self.left:
            if p % m != r % m:
                raise ValueError(f"left part {p} not in {r} mod {m}")
        for p in self.right:
            if p % m != (m - r) % m:
                raise ValueError(f"right part {p} not in {m - r} mod {m}")


def _family(params: StackParams | None) -> tuple[int, int, int]:
    """(first peak, step, first right part) of the family; plain stacks are (1, 1, 1)."""
    if params is None:
        return 1, 1, 1
    return params.r, params.m, params.m - params.r


def count_stacks(n: int, params: StackParams | None = None) -> int:
    """Number of stacks of n (congruence mode when params given, else plain)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    first, step, next_right = _family(params)
    left = [1] + [0] * n    # partitions into left parts admitted so far
    right = [1] + [0] * n   # partitions into right parts admitted so far
    total = 0
    for peak in range(first, n + 1, step):
        # peaks grow, so no later step reads either table above this rem
        rem = n - peak
        for j in range(peak, rem + 1):
            left[j] += left[j - peak]
        while next_right < peak:  # admit the right parts below this peak
            for j in range(next_right, rem + 1):
                right[j] += right[j - next_right]
            next_right += step
        total += sum(map(mul, left[:rem + 1], right[rem::-1]))
    return total


def enumerate_stacks(n: int, params: StackParams | None = None) -> list[StackWitness]:
    """Explicit witness list; capped at n <= ENUMERATION_CAP."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > ENUMERATION_CAP:
        raise ValueError(f"explicit enumeration capped at n <= {ENUMERATION_CAP}")
    first, step, first_right = _family(params)
    out: list[StackWitness] = []
    for peak in range(first, n + 1, step):
        rem = n - peak
        left_parts = list(range(first, peak + 1, step))
        right_parts = list(range(first_right, peak, step))
        for a in range(rem + 1):
            for lhs in _partitions(a, left_parts):
                ascending = tuple(reversed(lhs))
                for rhs in _partitions(rem - a, right_parts):
                    out.append(StackWitness(ascending, peak, rhs))
    return out


def _partitions(total: int, parts: list[int]) -> Iterator[tuple[int, ...]]:
    """Partitions of total into the given parts, nonincreasing tuples."""
    def rec(rest: int, idx: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            yield tuple(prefix)
            return
        for i in range(idx, -1, -1):
            p = parts[i]
            if p <= rest:
                prefix.append(p)
                yield from rec(rest - p, i, prefix)
                prefix.pop()
    yield from rec(total, len(parts) - 1, [])
