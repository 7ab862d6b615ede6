"""Exact q-series for stack counting.

Everything here is integer-exact, in two shapes: a sparse theta-type series
is an ascending list of (exponent, sign) pairs, a dense result is a
TruncatedSeries, the tuple of Python ints c[0..order].  The stack series is

    S(q)  = sum_{k>=0} q^{km+r} / ((q^r; q^m)_{k+1} (q^{m-r}; q^m)_{k+d})

whose right parts below the peak km + r run up to km + r - t with the shift
t = 2r mod m, one rule for the whole family: d = 0 in the standard variant
(2r < m, t = 2r) and d = 1 in the gap variant (2r > m, t = 2r - m).  It
decomposes as

    S = F * L + R,

where F is the partition product 1/((q^r; q^m)_inf (q^{m-r}; q^m)_inf),
L(q) = sum_{j>=0} (-1)^j q^{m j(j+1)/2 - tj} = 1 + f_{m, m-2t}(q) is a false
theta series, and R is a sparse correction with coefficients in {-1, 0, +1};
false_theta_gf and correction_gf return their terms.

stack_gf builds S from the right-hand side: by the Jacobi triple product F is
a quotient P / T of two sparse theta series, each two false thetas formed by
L's own term loop, so S = (P*L + R*T) / T is one sparse division, in
O(order^1.5 / sqrt(m)) integer additions.
stack_recurrence builds S from the sum over the peaks in O(order^2 / m); it
is kept as an independent oracle, and verify_decomposition compares the two
coefficient by coefficient.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add, itemgetter

from .params import StackParams


class TruncatedSeries:
    """Power series modulo q^(order+1) with exact integer coefficients.

    Not a tuple: series[n] is the coefficient of q^n.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as __setattr__ refuses
        return TruncatedSeries, (self.coeffs,)

    def __repr__(self) -> str:
        return f"TruncatedSeries(coeffs={self.coeffs!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient index {n} outside [0, {self.order}]")
        return self.coeffs[n]


def _inv_one_minus_inplace(c: list[int], d: int, hi: int) -> None:
    # forward pass: after it, c is the old c times 1/(1-q^d), valid through hi
    for i in range(d, hi + 1):
        c[i] += c[i - d]


def _alternating_terms(period: int, t: int, order: int) -> list[tuple[int, int]]:
    """Terms of sum_{j>=0} (-1)^j q^(period j(j+1)/2 - tj) through q^order, for 0 <= t < period.

    L and both halves of every theta series.  The exponents start at 0 and
    rise strictly with j, so the pairs (exponent, sign) come in ascending order.
    """
    terms = []
    j = 0
    while (e := period * j * (j + 1) // 2 - t * j) <= order:
        terms.append((e, (-1) ** j))
        j += 1
    return terms


def _theta_terms(period: int, a: int, order: int) -> list[tuple[int, int]]:
    """Nonzero terms of sum_{n in Z} (-1)^n q^(period n(n-1)/2 + an) through q^order.

    Requires 0 < a < period.  By the Jacobi triple product the sum is
    (q^a; q^period)_inf (q^(period-a); q^period)_inf (q^period; q^period)_inf.
    It is two false thetas, n = j >= 0 the one at t = period - a and n = -j
    the one at t = a, which share their j = 0 term: O(sqrt(order / period))
    terms, every exponent but n = 0's positive, as ascending (exponent, sign) pairs.
    """
    return sorted(_alternating_terms(period, period - a, order) + _alternating_terms(period, a, order)[1:])


def _divide_by_theta(num: list[int], theta: list[tuple[int, int]]) -> TruncatedSeries:
    """num / T for a theta series T of _theta_terms, by sparse division.

    T[0] = 1, so c[n] = num[n] - sum_{e>=1} T[e] c[n-e]; with the
    O(sqrt(order/m)) terms of T that is O(order^1.5 / sqrt(m)) integer
    additions.  c grows behind a leading 0, so c[n-e] is c[-e] while c[n] is
    made, and one itemgetter per sign gathers the c[n-e] of the terms with
    e <= n; it is rebuilt only where the next term's exponent is reached.
    num is emptied before the result is built, so at most two full-length
    sequences are alive at once: num and c, then c and the result.
    """
    terms = theta[1:]
    c = [0]
    # indices into c of the terms with e <= n, by sign; the two reads of the
    # leading 0 keep each itemgetter's result a tuple
    minus, plus = [0, 0], [0, 0]
    k = n = 0
    while n < len(num):
        while k < len(terms) and terms[k][0] <= n:
            e, sign = terms[k]
            (minus if sign < 0 else plus).append(-e)
            k += 1
        stop = terms[k][0] if k < len(terms) else len(num)
        gather_minus, gather_plus = itemgetter(*minus), itemgetter(*plus)
        for a in num[n:stop]:
            c.append(a + sum(gather_minus(c)) - sum(gather_plus(c)))
        n = stop
    del c[0]
    num.clear()
    return TruncatedSeries(tuple(c))


def congruence_partition_gf(params: StackParams, order: int) -> TruncatedSeries:
    """Partitions into parts congruent to r or -r mod m (the product F).

    By the triple product F = P / T, with Euler's pentagonal series
    P = (q^m; q^m)_inf = sum_{k in Z} (-1)^k q^(m k(3k-1)/2), the theta series
    of period 3m at a = m, and T = sum_{n in Z} (-1)^n q^(m n(n-1)/2 + rn),
    the one of period m at a = r.  Both have O(sqrt(order/m)) nonzero terms,
    and the quotient is one sparse division.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    num = [0] * (order + 1)
    for e, sign in _theta_terms(3 * params.m, params.m, order):
        num[e] = sign
    return _divide_by_theta(num, _theta_terms(params.m, params.r, order))


def stack_gf(params: StackParams, order: int) -> TruncatedSeries:
    """Generating function of stack counts, coefficients through q^order.

    Built as S = F*L + R = (P*L + R*T) / T with P and T the theta series of
    congruence_partition_gf.  All four factors are sparse, so both products
    have O(order) small integer terms, and the quotient is one sparse
    division: O(order^1.5 / sqrt(m)) integer additions in all.
    stack_recurrence computes the same series by the sum over the peaks, as
    an independent check.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    m = params.m
    theta = _theta_terms(m, params.r, order)
    num = [0] * (order + 1)
    products = (
        (_theta_terms(3 * m, m, order), false_theta_gf(params, order)),
        (correction_gf(params, order), theta),
    )
    for left, right in products:
        for ea, ca in left:
            for eb, cb in right:  # ascending, so the first exponent past order ends the row
                if ea + eb > order:
                    break
                num[ea + eb] += ca * cb
    return _divide_by_theta(num, theta)


def stack_recurrence(params: StackParams, order: int) -> TruncatedSeries:
    """The stack series summed over the peaks; an oracle for stack_gf.

    Each peak's summand is accumulated from a running product over the inverse
    factors (1 - q^e)^(-1); factors and accumulation are capped at the
    shrinking window order - peak, which keeps the whole construction at
    O(order^2 / m) integer additions.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    acc = [0] * (order + 1)
    prod = [0] * (order + 1)
    prod[0] = 1
    for peak in range(params.r, order + 1, params.m):
        hi = order - peak
        _inv_one_minus_inplace(prod, peak, hi)
        right = peak - params.shift
        if right > 0:
            _inv_one_minus_inplace(prod, right, hi)
        acc[peak:] = map(add, acc[peak:], prod[: hi + 1])
    return TruncatedSeries(tuple(acc))


def false_theta_gf(params: StackParams, order: int) -> list[tuple[int, int]]:
    """Terms of L(q) = sum_{j>=0} (-1)^j q^(m j(j+1)/2 - tj), t = params.shift, through q^order."""
    return _alternating_terms(params.m, params.shift, order)


def correction_gf(params: StackParams, order: int) -> list[tuple[int, int]]:
    """Terms of the sparse correction R(q) closing the gap between S and F*L, through q^order.

    With t = params.shift, d = (2r - t)/m (0 standard, 1 gap) and
    Q(n) = n(mn + (1+d)m - 3t)/6,

        R = sum_{j>=0} (-1)^(j+1) q^Q(3j) + sum_{j>=1-d} (-1)^(j+1) q^Q(3j-1+2d).

    For d = 0 this is sum_{j>=0} (-1)^(j-1) q^(m j(3j+1)/2 - 3rj) (1 - q^((2j+1)m - 2r));
    for (2, 3) the support is the triangular numbers T(3j) and T(3j+1).  The
    gap form was found by search and is checked, not proved: S = F*L + R holds
    exactly through q^2000 for all 44 coprime (r, m) with 3 <= m <= 12.
    Returns (exponent, sign) pairs in ascending order.
    """
    r, m, t = params.r, params.m, params.shift
    d = (2 * r - t) // m
    terms = []
    # 3j and 3j - 1 + 2d are the n >= 0 with n % 3 != 1 + d; Q(0) = 0, Q > 0 on
    # the others, and Q rises from n = 1 on, so the exponents ascend and the
    # first one past order ends the sum
    n = 0
    while (e := n * (m * n + (1 + d) * m - 3 * t) // 6) <= order:
        if n % 3 != 1 + d:
            terms.append((e, -(-1) ** ((n + 1 - d) // 3)))
        n += 1
    return terms


class DecompositionReport(namedtuple("DecompositionReport", "params order mismatches max_abs_residual")):
    """Residual of S - (F*L + R) through a given order: the mismatched indices and the largest |residual|."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_decomposition(params: StackParams, order: int) -> DecompositionReport:
    """Compare the peak sum stack_recurrence against stack_gf = F*L + R coefficientwise."""
    pairs = zip(stack_recurrence(params, order).coeffs, stack_gf(params, order).coeffs)
    residual = [(i, a - b) for i, (a, b) in enumerate(pairs) if a != b]
    mismatches = tuple(i for i, _ in residual)
    max_abs = max((abs(c) for _, c in residual), default=0)
    return DecompositionReport(params, order, mismatches, max_abs)
