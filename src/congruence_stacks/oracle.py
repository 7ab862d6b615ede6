"""Direct combinatorial counting of stacks, independent of any q-series.

A stack of n is a unimodal sequence summing to n: nondecreasing left parts,
a peak, nonincreasing right parts, where every copy of the maximum is kept on
the left of the split (right parts are strictly below the peak).  In
congruence mode the peak and left parts lie in r mod m and the right parts in
-r mod m; in plain mode (params=None) parts are unrestricted.

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


def count_stacks(n: int, params: StackParams | None = None) -> int:
    """Number of stacks of n (congruence mode when params given, else plain)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0
    if params is None:
        return _count_plain(n)
    return _count_congruence(n, params)


def _count_plain(n: int) -> int:
    # table[j]: partitions of j into parts <= c, grown one part bound at a time
    table = [1] + [0] * n
    total = 0
    for c in range(1, n + 1):
        prev = table.copy()  # parts <= c - 1, for the right side
        for j in range(c, n + 1):
            table[j] += table[j - c]
        rem = n - c
        total += sum(table[a] * prev[rem - a] for a in range(rem + 1))
    return total


def _count_congruence(n: int, params: StackParams) -> int:
    m, r = params.m, params.r
    left = [1] + [0] * n    # partitions into left parts admitted so far
    right = [1] + [0] * n   # partitions into right parts admitted so far
    largest_right = 0
    total = 0
    k = 0
    while params.peak(k) <= n:
        peak = params.peak(k)
        # peaks grow, so no later step reads either table above this rem
        rem = n - peak
        for j in range(peak, rem + 1):
            left[j] += left[j - peak]
        v = largest_right + m if largest_right else m - r
        while v < peak:
            for j in range(v, rem + 1):
                right[j] += right[j - v]
            largest_right = v
            v += m
        total += sum(map(mul, left[:rem + 1], right[rem::-1]))
        k += 1
    return total


def enumerate_stacks(n: int, params: StackParams | None = None) -> list[StackWitness]:
    """Explicit witness list; capped at n <= ENUMERATION_CAP."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > ENUMERATION_CAP:
        raise ValueError(f"explicit enumeration capped at n <= {ENUMERATION_CAP}")
    out: list[StackWitness] = []
    for peak in _admissible_peaks(n, params):
        rem = n - peak
        if params is None:
            left_parts = list(range(1, peak + 1))
            right_parts = list(range(1, peak))
        else:
            left_parts = list(range(params.r, peak + 1, params.m))
            right_parts = list(range(params.m - params.r, peak, params.m))
        for a in range(rem + 1):
            for lhs in _partitions(a, left_parts):
                ascending = tuple(reversed(lhs))
                for rhs in _partitions(rem - a, right_parts):
                    out.append(StackWitness(ascending, peak, rhs))
    return out


def _admissible_peaks(n: int, params: StackParams | None) -> Iterator[int]:
    if params is None:
        yield from range(1, n + 1)
    else:
        k = 0
        while params.peak(k) <= n:
            yield params.peak(k)
            k += 1


def _partitions(total: int, parts: list[int]) -> Iterator[tuple[int, ...]]:
    """Partitions of total into the given parts, nonincreasing tuples."""
    if total == 0:
        yield ()
        return
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
