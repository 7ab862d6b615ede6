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
O(order^1.5 / sqrt(m)) integer additions.  Where T has many terms the
division packs LANES coefficients into one integer and adds those, so a
block of LANES coefficients costs one addition per term of T
(_divide_in_lanes): (1, 3) at order 10^4 in 0.63x the time of one
coefficient per addition, for 3.5 MB more.
stack_recurrence builds S from the sum over the peaks in O(order^2 / m); it
is kept as an independent oracle, and verify_decomposition compares the two
coefficient by coefficient.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import add, itemgetter

from .params import StackParams

# coefficients per packed integer in the division (_divide_in_lanes); a block
# costs one addition of LANES * width bits per term of T, where each
# coefficient cost one of width bits
LANES = 8
# fewest terms of T (after T[0]) for lanes.  At order 2*10^4, r = 1, the lanes
# cost about 0.8 us more per coefficient and 20 ns less per term than one
# coefficient per addition: 1.72x the time at 19 terms (m = 400), 1.40x at 33,
# 1.03x at 44 and 0.89x at 49 (m = 64)
LANE_MIN_TERMS = 48
# most bits the packed blocks may hold, order * LANES * width, about 10 MB:
# (1, 3) at order 2*10^4 (width 452) takes 0.81x the time and 9.9 MB more
# peak.  Past it the division takes one coefficient per addition.  A bound on
# the width alone would not do: at (1, 3) from 3*10^4 on (width 550) the lanes
# gained nothing for 18 MB more, and at order 10^5 they took 23-51 MB more for
# m from 100 down to 14, and 1.17x the time at m = 40
LANE_BITS_LIMIT = 75 * 10**6


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


def _quotient_bits(params: StackParams, order: int) -> int:
    """A bit length that bounds |c[n]| for n <= order, for S and F alike.

    A stack is a pair of partitions, its peak and left parts into parts = r
    and its right parts into parts = -r (mod m), so S(n) <= p_F(n), and for
    0 < x < 1, p_F(n) <= F(x) x^(-n).  At x = e^(-t), t = pi / sqrt(3 m order),
    each residue class's sum of -log(1 - x^k) is at most its first term plus
    the integral pi^2 / (6 m t), so log F(x) <= f(r) + f(m - r) + pi^2 / (3 m t)
    with f(k) = -log(1 - e^(-kt)), and with t * order the last two terms are
    2 pi sqrt(order / (3m)).  In doubles, plus 2 bits for their rounding.
    Past m > order at most two part sizes r and m - r are <= order, so
    p_F(n) <= n + 1: that also keeps a huge m out of the doubles.  At (1, 3)
    the bound is 317, 443, 540 and 973 bits where F's widest coefficient has
    290, 415, 510 and 941, at orders 10^4, 2*10^4, 3*10^4 and 10^5.
    """
    r, m = params
    if m > order:
        return (order + 1).bit_length()
    t = math.pi / math.sqrt(3 * m * order)
    nats = -math.log(-math.expm1(-r * t)) - math.log(-math.expm1(-(m - r) * t))
    nats += 2 * math.pi * math.sqrt(order / (3 * m))
    return math.ceil(nats / math.log(2)) + 2


def _divide_by_theta(num: list[int], theta: list[tuple[int, int]], bits: int) -> TruncatedSeries:
    """num / T for a theta series T of _theta_terms, by sparse division.

    T[0] = 1, so c[n] = num[n] - sum_{e>=1} T[e] c[n-e]; with the
    O(sqrt(order/m)) terms of T that is O(order^1.5 / sqrt(m)) integer
    additions.  bits bounds the bit length of every |c[n]| (_quotient_bits).
    Where T has LANE_MIN_TERMS terms and the packed blocks fit
    LANE_BITS_LIMIT, _divide_in_lanes makes a block of LANES coefficients
    with one addition per term, and checks the bound as it goes; elsewhere,
    and where a coefficient refutes the bound, _divide_by_coefficient makes
    one coefficient per addition.  Both are exact, so the result does not
    depend on the route.  num is emptied before the result is built.
    """
    terms = theta[1:]
    c = _divide_in_lanes(num, terms, bits)
    if c is None:
        c = _divide_by_coefficient(num, terms)
    num.clear()
    return TruncatedSeries(tuple(c))


def _divide_by_coefficient(num: list[int], terms: list[tuple[int, int]]) -> list[int]:
    """num / T one coefficient per sum, terms being T's terms after T[0] = 1.

    c grows behind a leading 0, so c[n-e] is c[-e] while c[n] is made, and
    one itemgetter per sign gathers the c[n-e] of the terms with e <= n; it
    is rebuilt only where the next term's exponent is reached.
    """
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
    return c


def _divide_in_lanes(num: list[int], terms: list[tuple[int, int]], bits: int) -> list[int] | None:
    """num / T, LANES coefficients per sum of `width`-bit lanes; None below
    LANE_MIN_TERMS terms or past LANE_BITS_LIMIT bits of blocks.

    Beside c it keeps packed[k] = sum_j c[k+j] 2^(j width), j < LANES, rolled
    forward one coefficient at a time.  For the block c[n0 .. n0+LANES-1] the
    terms with e >= LANES read only earlier blocks, and one sum of -T[e]
    packed[n0-e] over them holds in lane j their part of c[n0+j]: a block
    costs one big-integer addition per term where one coefficient cost one
    per term, each about LANES times as long, and CPython's cost per addition
    is mostly fixed.  The terms with e < LANES are added one coefficient at
    a time.  A lane is a signed sum of at most len(terms) coefficients below
    2^bits, so width = bits + len(terms).bit_length() + 1 holds it with its
    sign; a bias of 2^(width-1) per lane keeps every lane nonnegative, so the
    lanes read off the low end without borrows.  Each block is checked
    against 2^bits before the next reads it, so no lane overflows unseen: a
    coefficient that reaches it refutes the bound, and None is returned.
    packed adds about order * LANES * width bits to c.
    """
    width = bits + len(terms).bit_length() + 1
    if len(terms) < LANE_MIN_TERMS or len(num) * LANES * width > LANE_BITS_LIMIT:
        return None
    lanes, limit = LANES, 1 << bits
    mask, half, top = (1 << width) - 1, 1 << (width - 1), (lanes - 1) * width
    bias = sum(half << (j * width) for j in range(lanes))
    # c starts with lanes zeros and packed with packed[-lanes] = 0, so c[n-e] is
    # c[-e] while c[n] is made and packed[n0-e] is packed[lanes-1-e] while the
    # block from n0 is; the reads of index 0 keep each itemgetter's result a tuple
    c, packed, p = [0] * lanes, [0], 0
    near_minus, near_plus, minus, plus = [0, 0], [0, 0], [0, 0], [0, 0]
    for e, sign in terms:
        if e < lanes:
            (near_minus if sign < 0 else near_plus).append(-e)
    near_minus, near_plus = itemgetter(*near_minus), itemgetter(*near_plus)
    far = [term for term in terms if term[0] >= lanes]
    gather_minus, gather_plus = itemgetter(*minus), itemgetter(*plus)
    k = 0
    for n0 in range(0, len(num), lanes):
        if k < len(far) and far[k][0] < n0 + lanes:
            while k < len(far) and far[k][0] < n0 + lanes:
                e, sign = far[k]
                (minus if sign < 0 else plus).append(lanes - 1 - e)
                k += 1
            gather_minus, gather_plus = itemgetter(*minus), itemgetter(*plus)
        d = sum(gather_minus(packed), bias) - sum(gather_plus(packed))
        for a in num[n0 : n0 + lanes]:
            v = a + (d & mask) - half + sum(near_minus(c)) - sum(near_plus(c))
            d >>= width
            p = ((p - c[-lanes]) >> width) + (v << top)
            c.append(v)
            packed.append(p)
        block = c[-lanes:]
        if n0 + lanes < len(num) and not -limit < min(block) <= max(block) < limit:
            return None
    del c[:lanes]
    return c


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
    return _divide_by_theta(num, _theta_terms(params.m, params.r, order), _quotient_bits(params, order))


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
    return _divide_by_theta(num, theta, _quotient_bits(params, order))


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
