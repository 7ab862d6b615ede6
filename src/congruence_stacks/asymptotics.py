"""Asymptotic main terms for stack counts and their supporting machinery.

Wright's circle method on the major arc near q = 1 (ArcContext): with q = e^{-z},

    S(e^{-z}) e^{nz} ~ P L(e^{-z}) e^{A/z + Bz},   A = pi^2/(3m),
    B = n + r(m-r)/(2m) - m/12,   P = csc(pi r/m)/2,

and (1/2 pi i) int z^s e^{A/z + Bz} dz = kappa^(s+1) I_{s+1}(2N), with the
saddle radius kappa = sqrt(A/B) and the growth scale N = sqrt(AB), turns each
Taylor coefficient alpha_s of L at z = 0 (alpha_0 = 1/2) into one term of
sum_s alpha_s P kappa^(s+1) I_{s+1}(2N).  The headline closed form

    X(n) = csc(pi r/m) / (8 3^(1/4) m^(1/4) n^(3/4)) * exp(2 pi sqrt(n/(3m)))

is the leading Hankel approximation of the first term with N reduced to its
large-n limit.  refined_main_term keeps N intact and two Hankel correction
terms, which is noticeably closer at accessible n.

Magnitudes are returned as positive mpf values, whose unbounded exponent
holds e^{2N} at any n although doubles overflow from n of a few thousand;
a relative error is estimate / exact - 1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cache
from itertools import count, islice

import mpmath as mp

from .bigfloat import DEFAULT_DPS
from .params import StackParams
from .qseries import stack_gf

MAX_EXPANSION_TERMS = 16
BESSEL_GUARD_DIGITS = 5  # both Bessel routes stop below 10^-(dps + BESSEL_GUARD_DIGITS)
BESSEL_EXTRA_DIGITS = 10  # and work at dps + BESSEL_EXTRA_DIGITS digits
FIXED_EXTRA_BITS = 10  # guard bits of every fixed-point loop (_fixed_bits)
REFINED_MIN_2N = 10  # refined_main_term refuses below this 2N, where its three-term bracket fails


def _fixed_bits(length: int = 0) -> int:
    """Width wp of the fixed-point loops: mp.prec plus FIXED_EXTRA_BITS plus log2 of the loop length, if known.

    analytic's theta-type sums and q-Pochhammer product, and this module's
    Bessel series and Hankel expansion, run on Python integers in units of
    2^-wp and convert back to mpf once.
    """
    return mp.mp.prec + FIXED_EXTRA_BITS + length.bit_length()


def _fraction_to_mpf(x: Fraction) -> mp.mpf:
    """x at the ambient precision: the numerator rounded once, then one division."""
    return mp.mpf(x.numerator) / x.denominator


def growth_dps(n: int, dps: int) -> int:
    """Digits that keep dps digits of e^E, E < 4 sqrt(|n|): main_term's exponent and the arc's 2N.

    e^E turns E's absolute error into a relative one, so E gets one more digit
    than sqrt(n) has before the point (at n = 10^100, 50 digits lie before it).
    """
    return dps + math.ceil(n.bit_length() * math.log10(2) / 2) + 1


def index_digits(*indices: int) -> int:
    """Decimal digits of the largest |index|, which a kernel that forms e^{pi i tau a} adds to its own.

    The factor carries a times tau's rounding in its phase, and f_{a,b}'s
    terms, of moderate size for b near -a, lose log10 |a| digits
    (analytic.false_theta and its series check).  congruence_product's q^m
    needs none: 1 - q^k carries k |q^k| <= 1/(2 pi e y) times q's rounding.
    """
    return math.ceil(max(map(abs, indices)).bit_length() * math.log10(2))


def _arc_constants(params: StackParams) -> tuple[mp.mpf, Fraction, mp.mpf]:
    """A, B - n (exact) and P of the q = 1 arc, at the caller's working precision."""
    r, m = params.r, params.m
    return mp.pi ** 2 / (3 * m), Fraction(r * (m - r), 2 * m) - Fraction(m, 12), 1 / mp.sin(mp.pi * r / m) / 2


class ArcContext(namedtuple("ArcContext", "params n A B prefactor kappa scale rho dps")):
    """The q = 1 arc at fixed (params, n): A, B, P, kappa and N (`scale`), as in the module docstring.

    B is an exact Fraction; A, P, kappa and N are mpf values with
    growth_dps(n, dps) digits, as are 2N and the Bessel values of bessel_sum.
    rho, a float, is the half-width of the major arc |nu| <= rho kappa on the
    circle q = e^{-(kappa + i nu)}.
    """

    __slots__ = ()

    @classmethod
    def build(cls, params: StackParams, n: int, rho: float = 0.9, dps: int = DEFAULT_DPS) -> "ArcContext":
        if not 0 < rho < 1:
            raise ValueError(f"rho must lie in (0, 1), got {rho}")
        with mp.workdps(growth_dps(n, dps)):
            A, offset, prefactor = _arc_constants(params)
            B = n + offset
            radicand = 3 * params.m * B
            if radicand <= 0:
                bound = f"m/12 - r(m-r)/(2m) = {-offset} (about {mp.nstr(_fraction_to_mpf(-offset), 6)})"
                raise ValueError(f"the saddle point needs n > {bound} for {params}, got n={n}")
            kappa = mp.pi / mp.sqrt(_fraction_to_mpf(radicand))
            return cls(params, n, A, B, prefactor, kappa, A / kappa, float(rho), dps)

    def bessel_sum(self, alphas: Sequence[Fraction]) -> mp.mpf:
        """sum_s alphas[s] P kappa^(s+1) I_{s+1}(2N), the arc's expansion with these coefficients, to dps digits.

        bessel_i gives I_{S+1}(2N) and I_S(2N), S = len(alphas); each lower order is I_{v-1}(x) =
        I_{v+1}(x) + (2v/x) I_v(x) (DLMF 10.29.1), two positive terms for x > 0, so no digit cancels.
        """
        digits = growth_dps(self.n, self.dps)
        with mp.workdps(digits):
            x, total = 2 * self.scale, mp.mpf(0)
            above, bessel = (bessel_i(v, x, dps=digits) for v in (len(alphas) + 1, len(alphas)))
            for s in reversed(range(len(alphas))):
                weight = _fraction_to_mpf(alphas[s])
                total += weight * self.prefactor * self.kappa ** (s + 1) * bessel
                above, bessel = bessel, above + 2 * (s + 1) / x * bessel
            if total <= 0:
                raise ValueError("expansion sum is not positive; n is too small for this use")
            return total


def bessel_i(order: int, x, dps: int = DEFAULT_DPS) -> mp.mpf:
    """Modified Bessel function I_order(x) for integer order and x >= 0, to dps digits.

    The Hankel expansion e^x / sqrt(2 pi x) sum_j (-1)^j a_j(k) / x^j serves
    where its terms fall below 10^-(dps + BESSEL_GUARD_DIGITS) before they
    stop falling (_hankel_sum's smallest term): from x of about
    (dps + 5) ln(10) / 2 on, 62 at 50 digits and 1385 at 1200, and from
    (4k^2 - 1)/8 for large k.  It costs O(dps + k^2) terms at any x.  The
    ascending series, O(x) positive terms, serves the rest and x <= 0, with
    no walk of the Hankel terms where _hankel_misses rules it out.  Both
    sum in fixed point; I_{-k} = I_k.  For real x > 0 the expansion cut after
    its smallest term errs by about the first term left out, plus the
    recessive part, e^{-2x} relative and of that size there (DLMF 10.40(ii);
    Olver, Asymptotics and Special Functions, 1974, ch. 7).
    """
    k = abs(int(order))
    with mp.workdps(dps + BESSEL_EXTRA_DIGITS):
        x = mp.mpf(x)
        if x > 0 and not _hankel_misses(x, dps):
            total, smallest = _hankel_sum(k, x)
            if smallest * 10 ** (dps + BESSEL_GUARD_DIGITS) < 1 << _fixed_bits():
                return _hankel_form(x, total)
    return _bessel_series(k, x, dps)


def _hankel_misses(x, dps: int) -> bool:
    """Whether every order's Hankel terms at x stay a digit above bessel_i's stop, in doubles.

    For integer k, |a_j(k)| >= |a_j(0)|: the partial products of
    |1 - 4k^2/(2i-1)^2| rise, then fall to |cos pi k| = 1.  So order 0's
    smallest term, Gamma(j + 1/2)^2 / (pi j! (2x)^j) at j = floor(2x) or one
    more (its terms fall while j < x - 1/2 + sqrt(x^2 + x), just under 2x),
    bounds every order's from below; it lies under e^{-2x} from x = 1 on.
    False outside 0 < x < double range.
    """
    x, limit = float(x), (1 - dps - BESSEL_GUARD_DIGITS) * math.log(10)
    if not 0 < 2 * x < -limit:
        return False
    turn = int(2 * x)
    smallest = min(2 * math.lgamma(j + 0.5) - math.lgamma(j + 1) - j * math.log(2 * x) for j in (turn, turn + 1))
    return smallest - math.log(math.pi) > limit


def _bessel_series(k: int, x, dps: int) -> mp.mpf:
    """I_k(x) = (x/2)^k / k! * sum_j (x^2/4)^j k! / (j! (j+k)!).

    The sum runs in fixed point at wp = _fixed_bits() bits.
    Every term is >= 0 and the sum is >= 1, so fixed point keeps relative
    precision: J terms lose at most about J 2^-wp.  It stops at the first
    term below 10^-(dps+5) of the running total, and the prefactor is applied
    once, in mpf.
    """
    with mp.workdps(dps + BESSEL_EXTRA_DIGITS):
        x = mp.mpf(x)
        if x < 0:
            raise ValueError("x must be nonnegative")
        if x == 0:
            return mp.mpf(1) if k == 0 else mp.mpf(0)
        half = x / 2
        wp = _fixed_bits()
        half_fixed = half.to_fixed(wp)
        quarter_x2 = half_fixed * half_fixed >> wp
        term = total = 1 << wp
        inverse_eps = 10 ** (dps + BESSEL_GUARD_DIGITS)
        for j in count(1):
            term = (term * quarter_x2 >> wp) // (j * (j + k))
            total += term
            if term * inverse_eps < total:
                break
        return half ** k / mp.factorial(k) * mp.ldexp(total, -wp)


def _hankel_terms(k: int, x):
    """Terms 1, -(4k^2 - 1)/(8x), ... of I_k(x) sqrt(2 pi x) e^{-x} as x -> inf, each from the last.

    The terms are Python integers in units of 2^-wp, wp = _fixed_bits() at
    the ambient precision, as in _bessel_series; 1/(8x) is rounded to that
    unit once, and each term is truncated toward zero, so a term below 2^-wp
    is 0.
    """
    wp = _fixed_bits()
    step = (1 / (8 * mp.mpf(x))).to_fixed(wp)
    mu = 4 * k * k
    term = 1 << wp
    for j in count(1):
        yield term
        product = term * (mu - (2 * j - 1) ** 2) * step
        term = (abs(product) >> wp) // j
        if product > 0:
            term = -term


def _hankel_sum(k: int, x) -> tuple[int, int]:
    """The Hankel terms of I_k(x) summed up to the first not smaller than the last, and the smallest term's size.

    Both in _hankel_terms' units; the stop comes by term 4 floor(x) + 20,
    whatever the order.
    """
    terms = _hankel_terms(k, x)
    total = smallest = next(terms)
    for term in terms:
        if abs(term) >= smallest:
            break
        total += term
        smallest = abs(term)
    return total, smallest


def _hankel_form(x, total: int) -> mp.mpf:
    """e^x / sqrt(2 pi x) times a sum of Hankel terms in _hankel_terms' units: I_k(x) from its expansion."""
    return mp.exp(x) / mp.sqrt(2 * mp.pi * x) * mp.ldexp(total, -_fixed_bits())


def _bessel_hankel(k: int, x, dps: int) -> mp.mpf:
    """I_k(x), x > 0, from the Hankel expansion cut as _hankel_sum cuts it."""
    with mp.workdps(dps + BESSEL_EXTRA_DIGITS):
        x = mp.mpf(x)
        return _hankel_form(x, _hankel_sum(k, x)[0])


def main_term(params: StackParams, n: int, dps: int = DEFAULT_DPS) -> mp.mpf:
    """Closed-form leading asymptotic X(n), to dps digits at every n: its exponent has growth_dps(n, dps) digits."""
    if n < 1:
        raise ValueError("n must be positive")
    m = params.m
    with mp.workdps(growth_dps(n, dps)):
        growth = mp.exp(2 * mp.pi * mp.sqrt(mp.mpf(n) / (3 * m)))
    with mp.workdps(dps):
        csc = 2 * _arc_constants(params)[2]
        return csc / (8 * mp.root(3 * m, 4) * mp.power(n, mp.mpf(3) / 4)) * growth


def refined_main_term(params: StackParams, n: int, dps: int = DEFAULT_DPS) -> mp.mpf:
    """The arc's first term, alpha_0 P kappa I_1(2N), with I_1 cut to three Hankel terms.

    (P/2) kappa e^{2N} / sqrt(4 pi N) [1 - 3/(16N) - 15/(2 (16N)^2)], which is
    csc(pi r/m) / (24 m u^(3/4)) e^{2N} [...] with u = (N/pi)^2.  Requires
    2N >= 10 so the truncated bracket stays meaningful.  2N and e^{2N} carry
    growth_dps(n, dps) digits.
    """
    ctx = ArcContext.build(params, n, dps=dps)
    with mp.workdps(growth_dps(n, dps)):
        x = 2 * ctx.scale
        if x < REFINED_MIN_2N:
            raise ValueError(
                f"refined estimate needs 2N >= {REFINED_MIN_2N}, got 2N = {mp.nstr(x, 6)}; increase n"
            )
        # alpha_0 = 1/2
        return ctx.prefactor / 2 * ctx.kappa * _hankel_form(x, sum(islice(_hankel_terms(1, x), 3)))


@cache
def false_theta_coeffs(a: int, b: int, max_order: int) -> tuple[Fraction, ...]:
    """Exact c_0 .. c_max_order of f_{a,b}(e^{-z}) ~ sum_k c_k z^k as z -> 0+, memoised.

    Expanding each term (-1)^n e^{-z (a n^2 + b n)/2} in z and Abel-summing the
    alternating power sums, sum_{n>=1} (-1)^n n^s = -eta(-s), gives

        c_k = ((-1/2)^k / k!) sum_j C(k, j) a^j b^(k-j) (-eta(-(k+j)))

    with the Dirichlet eta values eta(0) = 1/2 and
    eta(-s) = (2^(s+1) - 1) B_(s+1) / (s+1) (Lawrence-Zagier 1999).
    """
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    top = 2 * max_order + 1
    bernoulli = [Fraction(1)]  # sum_{j<=s} C(s+1, j) B_j = 0 for s >= 1
    for s in range(1, top + 1):
        bernoulli.append(-sum(math.comb(s + 1, j) * bernoulli[j] for j in range(s)) / (s + 1))
    eta = [Fraction(1, 2)] + [(2 ** (s + 1) - 1) * bernoulli[s + 1] / (s + 1) for s in range(1, top)]
    return tuple(
        -Fraction(-1, 2) ** k / math.factorial(k)
        * sum(math.comb(k, j) * a ** j * b ** (k - j) * eta[k + j] for j in range(k + 1))
        for k in range(max_order + 1)
    )


def singular_expansion_coeffs(params: StackParams, max_order: int = 3) -> tuple[Fraction, ...]:
    """Exact Taylor coefficients alpha_0 .. alpha_max_order of L(e^{-z}) at z = 0.

    L(q) = 1 + f_{m, m-2t}(q) with t = params.shift (b = m - 4r in the standard
    variant, 3m - 4r in the gap one), so these are the false theta
    coefficients with 1 added to the constant one; max_order < MAX_EXPANSION_TERMS.
    """
    if not 0 <= max_order < MAX_EXPANSION_TERMS:
        raise ValueError(f"max_order must be between 0 and {MAX_EXPANSION_TERMS - 1}")
    coeffs = false_theta_coeffs(params.m, params.m - 2 * params.shift, max_order)
    return (coeffs[0] + 1,) + coeffs[1:]


def asymptotic_sum(params: StackParams, n: int, terms: int = 4, dps: int = DEFAULT_DPS) -> mp.mpf:
    """Sum of the first `terms` Bessel-weighted expansion terms, 1 <= terms <= 16.

    The q = 1 arc's Bessel sum over singular_expansion_coeffs.  The
    expansion is asymptotic: for (1, 3) its relative error at n = 10^4 falls
    from 2.6e-3 (one term) to 7.6e-24 (sixteen), while at n = 100 it stalls
    near 4e-5 from five terms on.
    """
    if not 1 <= terms <= MAX_EXPANSION_TERMS:
        raise ValueError(f"terms must be between 1 and {MAX_EXPANSION_TERMS}, got {terms}")
    alphas = singular_expansion_coeffs(params, max_order=terms - 1)
    return ArcContext.build(params, n, dps=dps).bessel_sum(alphas)


class ComparisonRecord(namedtuple("ComparisonRecord", "n exact estimate relative_error")):
    """Exact count against the asymptotic estimate (a positive mpf) at one n, and estimate / exact - 1."""

    __slots__ = ()


def relative_error(params: StackParams, n: int, estimate: mp.mpf, exact: int, dps: int = DEFAULT_DPS) -> mp.mpf:
    """estimate / exact - 1 at dps digits; a size with no stacks, where it has no meaning, raises."""
    if exact == 0:
        raise ValueError(f"no stacks of size {n} exist for {params}; the relative error is undefined, drop this size")
    with mp.workdps(dps):
        return estimate / exact - 1


def comparison_table(params: StackParams, ns: Sequence[int], dps: int = DEFAULT_DPS) -> list[ComparisonRecord]:
    """Exact counts vs main_term at each n (one stack_gf call at order max(ns))."""
    if not ns:
        return []
    if any(n < 1 for n in ns):
        raise ValueError("all n must be positive")
    series = stack_gf(params, max(ns))
    records = []
    for n in ns:
        estimate = main_term(params, n, dps=dps)
        rel = relative_error(params, n, estimate, series[n], dps)
        records.append(ComparisonRecord(n=n, exact=series[n], estimate=estimate, relative_error=rel))
    return records
