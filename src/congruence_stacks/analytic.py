"""High-precision numerical checks of the modular and contour machinery.

Conventions, fixed once for the whole module:

    q = e^{2 pi i tau},  Im(tau) > 0;
    theta(w; tau) = sum over nu in 1/2 + Z of e^{pi i nu^2 tau + 2 pi i nu (w + 1/2)};
    eta(tau) = e^{pi i tau / 12} prod_{k>=1} (1 - q^k);
    F(tau) = 1 / ((q^r; q^m)_inf (q^{m-r}; q^m)_inf)  for validated (r, m);
    f_{a,b}(tau) = sum_{n>=1} (-1)^n q^{(a n^2 + b n)/2},  a > 0.

A non-integer power q^x always means e^{2 pi i tau x}: going through the
principal log of q would be wrong outside -1/2 < Re(tau) <= 1/2.

Every function takes a decimal working precision `dps` and performs the whole
computation inside a single mpmath context with guard digits, including the
construction of derived points like -1/tau.  Truncation cutoffs are derived
from the requested precision: one Gaussian tail bound for the theta and
false theta sums (_gauss_cutoff: 2 past the root of pi y (a n^2 + b n) =
D log 10, D the dps plus guard digits; eta, 1 + f_{3,-1} + f_{3,1}, adds its
cancellation digits), geometric bounds for the products.  Every such
decision, and theta_sum's count of lost digits, is made in doubles from
float(Im tau) and float(Im w), with no mpmath call; each equals the mpf
formula it replaced over the tested sweep (tests/test_analytic.py).  An Im tau that leaves double range, or a cutoff
that does (only past about 10^150 terms), raises ValueError.  The two sums
are sum_n (+-1)^n X^{n^2} Y^n and are summed by their term ratio, with no
exponential per term.  That recurrence and the q-Pochhammer product loop run
in complex fixed point, on Python integers in units of 2^-wp with wp a few
bits above mp.prec, and convert back to one mpc at the end: no mpmath object
per term.  Residual checks return mpf values; fits and profile reports come
back as small named tuples.  Two routes run in doubles: circle_profile, which
wants a float log magnitude and sums the far factors of F as a Lambert
series, and the q = 1 line of the contour check, major_arc_integral plus
contour_tail: both integrate in Wright's normalised variable with the one
rule tanh_sinh, a real integrand on the arc and a complex one on the tail's
ray, each of size at most 1 times a factor applied once, in mpf.

The `cstacks verify` targets are the check functions of VERIFY_CHECKS, run in
its order; each returns Check records, which cli only formats.
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from collections import namedtuple
from collections.abc import Callable, Sequence
from itertools import repeat
from operator import add, mul, truediv

import mpmath as mp

from .asymptotics import ArcContext, _arc_constants, _bessel_hankel, _bessel_series, _fixed_bits, _fraction_to_mpf
from .asymptotics import false_theta_coeffs, index_digits, singular_expansion_coeffs
from .bigfloat import DEFAULT_DPS
from .oracle import count_stacks
from .params import StackParams
from .qseries import false_theta_gf, stack_gf, verify_decomposition

GUARD = 15
PEAK_HALFWIDTH = 0.35  # half-width in nu of the window searched for each root-of-unity peak
QUADRATURE_LEVELS = 8  # tanh-sinh levels after the first, past which the rule gives up
QUADRATURE_RTOL = 1e-10  # relative agreement of successive tanh-sinh estimates, the contour's tolerance
PROFILE_HEAD_FLOOR = 1e-2  # circle_profile sums F's factors with |q^k| >= this one by one, the rest in closed form
PROFILE_CUT_DIGITS = 17  # circle_profile drops L's terms and F's Lambert terms below 10^-this, a double's rounding
CONTOUR_PROFILE_GRID = 720  # grid of the contour check's circle profile
DECOMPOSITION_ORDER = 400  # series order of the decomposition check
DECAY_Z_VALUES = (0.30, 0.25, 0.20, 0.16, 0.13, 0.10)  # product_decay_fit's points z of the ray q = e^{-z}
RAY_CUT = 40  # contour_tail cuts its ray where the bound e^{-c x} on the integrand reaches e^-RAY_CUT


def _require_upper_half(tau) -> mp.mpc:
    """tau as an mpc at the current precision; raises unless Im(tau) > 0."""
    tau = mp.mpc(tau)
    if not mp.im(tau) > 0:
        raise ValueError(f"tau must lie in the upper half plane, got {tau}")
    return tau


def _fixed(z, wp: int) -> tuple[int, int]:
    """Real and imaginary parts of z as integers in units of 2^-wp (rounded down)."""
    z = mp.mpc(z)
    return z.real.to_fixed(wp), z.imag.to_fixed(wp)


def _pochhammer(a, q, count: int, acc=1):
    """acc * prod_{k < count} (1 - a q^k): the one product loop of this module.

    Complex fixed point at wp = _fixed_bits(count) bits.
    a q^k is held in units of 2^-wp, and q carries log2|a| more bits, so
    each factor 1 - a q^k is exact to a unit or two, as in mpf arithmetic at
    that precision.  The accumulator is a wp-bit mantissa pair times a power
    of two, renormalised after every factor: a factor near zero, at a zero of
    theta, costs relative precision only through its own cancellation, and
    the rounding of the product stays below count 2^-wp relative.
    """
    wp = _fixed_bits(count)
    wq = wp + max(0, mp.mag(a))
    one = 1 << wp
    ar, ai = _fixed(a, wp)
    qr, qi = _fixed(q, wq)
    acc = mp.mpc(acc)
    # acc = (pr + i pi) 2^e with pr, pi of about wp bits
    e = mp.mag(acc) - wp if acc else 0
    pr, pi = _fixed(acc, -e)
    for _ in range(count):
        fr = one - ar
        pr, pi = pr * fr + pi * ai, pi * fr - pr * ai
        shift = (abs(pr) | abs(pi)).bit_length() - wp
        if shift >= 0:
            pr >>= shift
            pi >>= shift
        else:
            pr <<= -shift
            pi <<= -shift
        e += shift - wp
        ar, ai = (ar * qr - ai * qi) >> wq, (ar * qi + ai * qr) >> wq
    return mp.mpc(mp.ldexp(pr, e), mp.ldexp(pi, e))


def _im_double(tau) -> float:
    """Im(tau) > 0 as a double, the variable every truncation cutoff is sized in.

    Raises when Im(tau) leaves double range, where it rounds to 0 or to
    infinity: no cutoff can be sized there.
    """
    y = float(mp.im(tau))
    if not 0 < y < math.inf:
        raise ValueError(f"Im(tau) = {mp.nstr(mp.im(tau), 5)} is outside double range, where truncation cutoffs are sized")
    return y


def _cutoff(value: float) -> int:
    """ceil(value), a truncation cutoff sized in doubles; raises when it left double range."""
    if not math.isfinite(value):
        raise ValueError(
            "a truncation cutoff is outside double range: Im(tau) is too close to 0, or |Im w| or an index too large"
        )
    return math.ceil(value)


def _factor_count(y: float, digits: int, slack: float = 0.0) -> int:
    """Smallest K with e^slack |q|^K / (1 - |q|) <= 10^-digits, |q| = e^{-2 pi y}, in doubles.

    When the k-th factor of a product deviates from 1 by at most
    e^slack |q|^k, the factors from K on move it by a relative 10^-digits at
    most; the same bound caps the tail of a series with terms of size |q|^k.
    y is a positive double (_im_double, or circle_profile's kappa / 2 pi).
    """
    t = 2 * math.pi * y
    return _cutoff((digits * math.log(10) + slack - math.log(-math.expm1(-t))) / t)


def _gauss_cutoff(a: int, b: float, y: float, digits: int) -> int:
    """Cutoff of a Gaussian sum: 2 past the root n of pi y (a n^2 + b n) = digits log 10, in doubles.

    A term of size e^{-pi y (a n^2 + b n)}, a > 0, is below 10^-digits past
    the root.  theta takes (1, -2 |Im w| / y) and f_{a,b} its own (a, b), or
    (a, c) and (a, -c) about n = s where b < -a; only a root above about
    10^150 leaves double range.
    """
    try:
        disc = float(b) * b + 4 * a * digits * math.log(10) / (math.pi * y)
        root = (math.sqrt(disc) - b) / (2 * a)
    except OverflowError:  # a or b beyond double range
        root = math.inf
    return _cutoff(root) + 2


def _gauss_sum(x, y, n_max: int, sign=1):
    """sum_{0 <= n <= n_max} sign^n x^{n^2} y^n, one term from the last by the ratio sign x^{2n+1} y.

    Complex fixed point scaled to 1 at wp = _fixed_bits(n_max) bits, four
    integer products and shifts per term; Python ints grow, so large terms
    cannot overflow.  The first ratio x y and x^2 are formed in mpf, and x^2
    carries log2|x y| more bits, so every ratio is exact to a unit of 2^-wp
    however small x is.  The term sizes are unimodal (the ratio
    |x|^{2n+1} |y| falls with n), and the absolute error stays below about
    n_max 2^-wp max|term|, the order of an mpf loop at mp.prec.  The Gaussian
    sums of theta and false theta, and so eta's, all go through here.
    """
    wp = _fixed_bits(n_max)
    ratio = x * y
    wx = wp + max(0, mp.mag(ratio))
    rr, ri = _fixed(ratio if sign > 0 else -ratio, wp)
    x2r, x2i = _fixed(x * x, wx)
    tr, ti = 1 << wp, 0
    sr, si = tr, ti
    for _ in range(n_max):
        tr, ti = (tr * rr - ti * ri) >> wp, (tr * ri + ti * rr) >> wp
        sr += tr
        si += ti
        rr, ri = (rr * x2r - ri * x2i) >> wx, (rr * x2i + ri * x2r) >> wx
    return mp.mpc(mp.ldexp(sr, -wp), mp.ldexp(si, -wp))


def _theta_gauss(w, tau, digits: int) -> mp.mpc:
    """theta(w; tau) from its two Gaussian sums, cut and formed at `digits` digits, from two exponentials."""
    with mp.workdps(digits):
        w = mp.mpc(w)
        tau = mp.mpc(tau)
        y = float(tau.imag)
        k_max = _gauss_cutoff(1, -2 * abs(float(w.imag)) / y, y, digits)
        quarter = mp.exp(mp.pi * 1j * tau / 4)
        half_turn = mp.exp(mp.pi * 1j * (w + 0.5))
        # X = e^{pi i tau}, Y = X e^{2 pi i (w + 1/2)}, c = e^{pi i (tau/4 + w + 1/2)}
        x = (quarter * quarter) ** 2
        yk = x * half_turn * half_turn
        c = quarter * half_turn
        return c * (_gauss_sum(x, yk, k_max) + _gauss_sum(x, 1 / yk, k_max + 1) - 1)


def _extra_digits(y: float, iw: float, value, digits: int) -> int:
    """Digits theta_sum's second pass adds: the lost ones, at most digits, when more than GUARD are lost, else 0.

    The lost digits are log10 of the largest term, at the half-integer nu
    nearest -iw / y (iw = Im w, signed), minus log10 |value|, in doubles:
    |value| is a binary exponent from mp.mag times a double mantissa.
    """
    if not value:
        return digits
    nu = math.floor(-iw / y) + 0.5
    e = max(mp.mag(value.real), mp.mag(value.imag))
    mantissa = math.hypot(float(mp.ldexp(value.real, -e)), float(mp.ldexp(value.imag, -e)))
    lost = -math.pi * (y * nu * nu + 2 * nu * iw) / math.log(10) - math.log10(mantissa) - e * math.log10(2)
    return min(math.ceil(lost), digits) if lost > GUARD else 0


def theta_sum(w, tau, dps: int = DEFAULT_DPS) -> mp.mpc:
    """Jacobi theta as a half-integer index sum.

    The term at index nu has magnitude e^{-pi nu^2 y - 2 pi nu Im(w)}, so the
    cutoff solves pi y nu^2 - 2 pi |Im w| nu = D log 10, D = dps + GUARD.
    With nu = k + 1/2 the term is c X^{k^2} Y^k, X = e^{pi i tau},
    Y = X e^{2 pi i (w + 1/2)} and c = e^{pi i (tau/4 + w + 1/2)}; k >= 0 and
    k < 0 are two Gaussian sums.  Near the real axis theta can be far below
    its largest term.  When that ratio costs more than GUARD digits, the sum
    is formed again, cutoff and precision, with the lost digits added to D;
    at most D of them, all that a pass at D digits can measure (theta may
    vanish).  Both decisions, the cutoff and the lost digits, are made in
    doubles from Im tau and Im w (_gauss_cutoff, _extra_digits).
    """
    digits = dps + GUARD
    with mp.workdps(digits):
        tau_c = _require_upper_half(tau)
    y, iw = _im_double(tau_c), float(mp.im(w))
    value = _theta_gauss(w, tau, digits)
    extra = _extra_digits(y, iw, value, digits)
    if extra:
        value = _theta_gauss(w, tau, digits + extra)
    return value


def theta_product(w, tau, dps: int = DEFAULT_DPS) -> mp.mpc:
    """Jacobi theta via the triple product

    -i q^{1/8} e^{-pi i w} (q; q)_inf (e^{2 pi i w}; q)_inf (e^{-2 pi i w} q; q)_inf.
    """
    with mp.workdps(dps + GUARD):
        w = mp.mpc(w)
        tau = _require_upper_half(tau)
        # factor k deviates from 1 by at most e^{2 pi |Im w|} |q|^k
        count = _factor_count(_im_double(tau), dps + GUARD, slack=2 * math.pi * abs(float(w.imag)))
        q = mp.exp(2 * mp.pi * 1j * tau)
        zp = mp.exp(2 * mp.pi * 1j * w)
        prod = _pochhammer(q, q, count)
        prod = _pochhammer(zp, q, count + 1, prod)
        prod = _pochhammer(q / zp, q, count, prod)
        return -1j * mp.exp(mp.pi * 1j * (tau / 4 - w)) * prod


def theta_transform_residual(w, tau, dps: int = DEFAULT_DPS) -> mp.mpf:
    """Residual of theta(w/tau; -1/tau) = -i sqrt(-i tau) e^{pi i w^2/tau} theta(w; tau).

    Relative when the right side is away from zero, absolute otherwise.
    """
    with mp.workdps(dps + GUARD):
        w = mp.mpc(w)
        tau = _require_upper_half(tau)
        lhs = theta_sum(w / tau, -1 / tau, dps=dps)
        rhs = -1j * mp.sqrt(-1j * tau) * mp.exp(mp.pi * 1j * w * w / tau) * theta_sum(w, tau, dps=dps)
        diff, scale = abs(lhs - rhs), abs(rhs)
        return diff if scale < mp.mpf(10) ** (-dps) else diff / scale


def dedekind_eta(tau, dps: int = DEFAULT_DPS) -> mp.mpc:
    """eta(tau) = e^{pi i tau/12} (1 + f_{3,-1}(tau) + f_{3,1}(tau)), Euler's pentagonal series.

    The series sum_{k in Z} (-1)^k q^{k(3k-1)/2} is two false thetas: k >= 1
    gives f_{3,-1} and k <= -1 gives f_{3,1}.  The terms have size up to 1
    while the sum is as small as e^{-pi/(12 y)} near the cusp 0, so both are
    formed at D = dps + GUARD + pi/(12 y log 10) digits (_eta_digits), each
    cut by false_theta's own Gaussian bound.
    """
    with mp.workdps(dps + GUARD):
        tau = _require_upper_half(tau)
    digits = _eta_digits(_im_double(tau), dps)
    with mp.workdps(digits):
        total = 1 + false_theta(3, -1, tau, digits - GUARD) + false_theta(3, 1, tau, digits - GUARD)
        return mp.exp(mp.pi * 1j * tau / 12) * total


def _eta_digits(y: float, dps: int) -> int:
    """dedekind_eta's digits D, dps plus GUARD plus the digits its sum cancels, in doubles."""
    return dps + GUARD + _cutoff(math.pi / (12 * y * math.log(10)))


def eta_inversion_residual(tau, dps: int = DEFAULT_DPS) -> mp.mpf:
    """Relative residual of eta(-1/tau) = sqrt(-i tau) eta(tau)."""
    with mp.workdps(dps + GUARD):
        tau = _require_upper_half(tau)
        lhs = dedekind_eta(-1 / tau, dps=dps)
        rhs = mp.sqrt(-1j * tau) * dedekind_eta(tau, dps=dps)
        return abs(lhs - rhs) / abs(rhs)


def congruence_product(params: StackParams, tau, dps: int = DEFAULT_DPS) -> mp.mpc:
    """F(tau): inverse product over exponents congruent to r and m - r mod m."""
    with mp.workdps(dps + GUARD):
        tau = _require_upper_half(tau)
        q = mp.exp(2 * mp.pi * 1j * tau)
        top = _factor_count(_im_double(tau), dps + GUARD)
        qm = q ** params.m
        prod = 1
        for start in (params.r, params.m - params.r):
            prod = _pochhammer(q ** start, qm, (top - start) // params.m + 1, prod)
        return 1 / prod


def congruence_product_main(params: StackParams, tau, dps: int = DEFAULT_DPS) -> mp.mpc:
    """Closed-form main factor of F under tau -> -1/(m tau) inversion:

    P e^{A/z + (B - n) z} with z = -2 pi i tau and the q = 1 arc's A, B and P
    (asymptotics.ArcContext), that is
    csc(pi r/m)/2 * e^{pi i tau (m/6 - r + r^2/m) + pi i/(6 m tau)}.
    """
    with mp.workdps(dps + GUARD):
        tau = _require_upper_half(tau)
        A, offset, prefactor = _arc_constants(params)
        z = -2 * mp.pi * 1j * tau
        return prefactor * mp.exp(A / z + _fraction_to_mpf(offset) * z)


def product_residual(params: StackParams, tau, dps: int = DEFAULT_DPS) -> mp.mpf:
    """|F / closed form - 1| at tau, computed in one precision context."""
    with mp.workdps(dps + GUARD):
        tau = mp.mpc(tau)
        ratio = congruence_product(params, tau, dps=dps) / congruence_product_main(params, tau, dps=dps)
        return abs(ratio - 1)


class DecayFit(namedtuple("DecayFit", "params slope expected points excluded dps")):
    """Least-squares fit of log residual against 1/z along tau = iz/(2 pi).

    expected is the rate of the residual's leading power of e^{-4 pi^2/(m z)}:
    -4 pi^2 / m, but -8 pi^2 / m at m = 4, where the first power's coefficient
    2 cos(2 pi r/m) vanishes and the second's is -1.  points holds the (1/z,
    log residual) pairs fitted and excluded counts the points at the numerical
    noise floor, if any.
    """

    __slots__ = ()


def decay_precision(params: StackParams, z_values: Sequence) -> int:
    """Working precision of product_decay_fit, 8 pi^2/(m z_min log 10) + 40 digits.

    Its margin of two powers of e^{-4 pi^2/(m z)} lets m = 4, where the
    leading power vanishes, clear the noise floor.  An m past double range,
    where the fit cannot hold its rate 4 pi^2/m, raises.
    """
    zs = [float(z) for z in z_values]
    if len(set(zs)) < 2 or not all(math.isfinite(z) and z > 0 for z in zs):
        raise ValueError(f"need at least two distinct, finite, positive z values to fit a slope, got {tuple(zs)}")
    if params.m > sys.float_info.max:
        raise ValueError(f"m = {params.m} is past double range, where the fit holds its rate 4 pi^2/m")
    digits = 8 * math.pi ** 2 / (params.m * min(zs)) / math.log(10)
    if digits == math.inf:  # a subnormal z_min: formed in mpf, so the count stays finite
        digits = 8 * mp.pi ** 2 / (params.m * mp.mpf(min(zs))) / mp.log(10)
    return int(digits) + 40


def product_decay_fit(params: StackParams, z_values: Sequence = DECAY_Z_VALUES) -> DecayFit:
    """Fit the decay rate of the closed-form residual along the imaginary ray.

    The residual behaves like a power of e^{-4 pi^2/(m z)}, so log residual is
    close to linear in 1/z, at decay_precision digits.
    """
    dps = decay_precision(params, z_values)
    xs: list[float] = []
    ys: list[float] = []
    excluded = 0
    floor = -(dps - 8) * math.log(10)
    for z in z_values:
        with mp.workdps(dps + GUARD):
            zv = mp.mpf(str(z)) if not isinstance(z, mp.mpf) else z
            tau = 1j * zv / (2 * mp.pi)
            res = product_residual(params, tau, dps=dps)
            logres = float(mp.log(res)) if res > 0 else floor
        if logres <= floor:
            excluded += 1
            continue
        xs.append(1.0 / float(zv))
        ys.append(logres)
    if len(xs) < 2:
        raise ValueError("all sample points sit at the noise floor; raise dps")
    # imported here, so verify and profile never load statistics
    import statistics

    return DecayFit(
        params=params,
        slope=statistics.linear_regression(xs, ys).slope,
        expected=-4 * math.pi ** 2 * (2 if params.m == 4 else 1) / params.m,
        points=tuple(zip(xs, ys)),
        excluded=excluded,
        dps=dps,
    )


def false_theta(a: int, b: int, tau, dps: int = DEFAULT_DPS) -> mp.mpc:
    """f_{a,b}(tau) = sum_{n>=1} (-1)^n q^{(a n^2 + b n)/2}, a > 0, at dps + GUARD + index_digits(a, b) digits.

    For b < -a the terms first grow, to about |q|^{-b^2/(8a)}, past what a
    fixed-point sum scaled to 1 can hold (at a = 10^19 and b = -3 10^19
    its integers would have 10^19 bits).  There the sum is taken about
    n = s = ceil(-(a + b)/(2a)): f = (-1)^s q^{(a s^2 + b s)/2} times
    sum_{k >= 1-s} (-1)^k q^{(a k^2 + c k)/2} with c = b + 2as in [-a, a),
    whose terms are at most 1, the one at k = 0 equal to 1.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    s = max(0, -((a + b) // (2 * a)))
    with mp.workdps(dps + GUARD + index_digits(a, b)):
        tau = _require_upper_half(tau)
        y, digits = _im_double(tau), dps + GUARD
        pi_i_tau = mp.pi * 1j * tau
        x = mp.exp(pi_i_tau * a)
        if not s:
            return _gauss_sum(x, mp.exp(pi_i_tau * b), _gauss_cutoff(a, b, y, digits), -1) - 1
        c = b + 2 * a * s
        z = mp.exp(pi_i_tau * c)
        # k >= 0, then k = 0, -1, .., 1 - s as j = -k, each cut where its terms fall below 10^-digits
        total = _gauss_sum(x, z, _gauss_cutoff(a, c, y, digits), -1)
        total += _gauss_sum(x, 1 / z, min(s - 1, _gauss_cutoff(a, -c, y, digits)), -1) - 1
        return (-1) ** s * mp.exp(pi_i_tau * s * (a * s + b)) * total


def cubic_model(a: int, b: int, z) -> mp.mpc:
    """Small-z cubic approximation of f_{a,b} with z = -2 pi i tau."""
    z = mp.mpc(z)
    return sum(_fraction_to_mpf(c) * z ** k for k, c in enumerate(false_theta_coeffs(a, b, 3)))


class RemainderCheck(namedtuple("RemainderCheck", "a b tau delta bound")):
    """|f_{a,b}(tau) - cubic| (delta) against its bound c y^4, both mpf, at a complex tau."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.delta < self.bound


def cubic_remainder_check(a: int, b: int, tau, dps: int = DEFAULT_DPS) -> RemainderCheck:
    """Check |f_{a,b}(tau) - cubic| < c y^4 with c = 105 pi^4 a^4 b^14 e^{pi sqrt(3) b^2/(32a)}.

    Valid on |Re tau| <= Im tau <= sqrt(3)/8; arguments outside raise.
    """
    with mp.workdps(dps + GUARD):
        tau_c = _require_upper_half(tau)
        x, y = mp.re(tau_c), mp.im(tau_c)
        if not abs(x) <= y:
            raise ValueError(f"need |Re tau| <= Im tau, got {tau}")
        if not y <= mp.sqrt(3) / 8:
            raise ValueError(f"need Im tau <= sqrt(3)/8 ~ 0.2165, got {tau}")
        z = -2 * mp.pi * 1j * tau_c
        delta = abs(false_theta(a, b, tau_c, dps=dps) - cubic_model(a, b, z))
        c = 105 * mp.pi ** 4 * mp.mpf(a) ** 4 * mp.mpf(b) ** 14 * mp.exp(mp.pi * mp.sqrt(3) * b * b / (32 * a))
        bound = c * y ** 4
        return RemainderCheck(a=a, b=b, tau=complex(tau_c), delta=delta, bound=bound)


def false_theta_series_residual(params: StackParams, tau, dps: int = DEFAULT_DPS) -> mp.mpf:
    """Cross-check L(q) = -q^t f_{m, -(m+2t)}(q), t = params.shift, against the exact expansion.

    The left side comes from the analytic false theta evaluator, the right
    from summing the integer series termwise at q.  Returns the relative gap.
    The series' exponents come from qseries.false_theta_gf, not from
    _gauss_sum's term ratio, and its powers of q are running products: q^e
    advances by q^gap, and q^gap by q^(change of gap).  The gap changes by m
    from the second term on, and each such power is formed once: mpmath
    raises an mpc to an integer k through exp(k log q) once k times the
    mantissa bits passes 10 000, already at k = 3 at -P 1200.  So no term
    pays an exponential or a log.  Like false_theta, it adds index_digits.
    """
    t = params.shift
    with mp.workdps(dps + GUARD + index_digits(params.m, params.m + 2 * t)):
        tau = _require_upper_half(tau)
        q = mp.exp(2 * mp.pi * 1j * tau)
        via_false_theta = -q ** t * false_theta(params.m, -(params.m + 2 * t), tau, dps=dps)
        direct = mp.mpc(0)
        power = step = mp.mpc(1)
        last = gap = 0
        powers = {}
        for e, sign in false_theta_gf(params, _factor_count(_im_double(tau), dps + GUARD)):
            if e - last != gap:
                change = e - last - gap
                if change not in powers:
                    powers[change] = q ** change
                step *= powers[change]
                gap = e - last
            power *= step
            last = e
            direct += sign * power
        return abs(via_false_theta - direct) / abs(direct)


def tanh_sinh(f: Callable[[float], float | complex], a, b) -> tuple[complex, tuple[complex, ...]]:
    """int_a^b f by nested tanh-sinh quadrature (Takahashi and Mori, 1974) until two levels agree.

    x = tanh(u), u = (pi/2) sinh t, maps the t line onto (-1, 1), and the
    trapezoid rule in t, step h = 1/2 halved at each level, converges about as
    e^{-c/h} for an f analytic on [a, b].  A level adds only the odd multiples
    of its step, so no node is evaluated twice, out to the first weight
    dx/dt = (pi/2) cosh t / cosh^2 u below a double's rounding, 2^-53.  A node
    lies (b - a) d, d = 1/(1 + e^{2u}), from an end, which keeps its digits,
    and its weight is 2 pi cosh t d (1 - d).  The nodes are doubles; mpf
    values of f are summed in mpf.  Returns (value, history of estimates).
    The rule stops once two estimates differ by at most QUADRATURE_RTOL of
    the latest, by modulus: that step bounds the coarser estimate's error,
    and the finer one's is about its square.  It raises after QUADRATURE_LEVELS.
    """
    a = float(a)
    b = float(b)
    total = math.pi / 2 * f((a + b) / 2)
    history: list[complex] = []
    for level in range(QUADRATURE_LEVELS + 1):
        h = t = 0.5 ** (level + 1)
        while True:
            d = 1 / (1 + math.exp(math.pi * math.sinh(t)))
            weight = 2 * math.pi * math.cosh(t) * d * (1 - d)
            if weight < sys.float_info.epsilon / 2:
                break
            total += weight * (f(a + (b - a) * d) + f(b - (b - a) * d))
            t += h if level == 0 else 2 * h
        history.append((b - a) / 2 * h * total)
        if level and abs(history[-1] - history[-2]) <= QUADRATURE_RTOL * abs(history[-1]):
            return history[-1], tuple(history)
    raise ValueError(f"tanh-sinh quadrature did not converge in {QUADRATURE_LEVELS + 1} levels")


def _arc_integral(ctx: ArcContext, t0: float, t1: float) -> mp.mpf:
    """The line over t0 <= |nu|/kappa <= t1: major_arc_integral's formula with these limits."""
    scale = float(ctx.scale)

    def integrand(t: float) -> float:
        u = t * t / (1 + t * t)
        return math.exp(-scale * u) * math.cos(scale * t * u)

    half, _ = tanh_sinh(integrand, t0, t1)
    with mp.workdps(ctx.dps + GUARD):
        return ctx.prefactor / (4 * mp.pi) * 2 * ctx.kappa * mp.exp(2 * ctx.scale) * half


def major_arc_integral(ctx: ArcContext) -> mp.mpf:
    """Numeric leading contour piece h_0 over the restricted arc |nu| <= rho kappa.

    Evaluates (P/2)/(2 pi) int e^{B (kappa + i nu) + A/(kappa + i nu)} d nu,
    alpha_0 = 1/2 times the arc's P, A and B (the constant is csc(pi r/m)/(8 pi)),
    by tanh_sinh to QUADRATURE_RTOL of the arc.  Added to contour_tail, the
    rest of the line, it gives the arc's one-term Bessel sum (P/2) kappa
    I_1(2N).  The arc can exceed the line (115-fold at N = 0.0025, rho = 0.9),
    but tanh_sinh leaves about the square of its last step, so the stop
    relative to the arc alone suffices.

    In Wright's normalised variable t = nu/kappa, with kappa = sqrt(A/B) and
    N = sqrt(AB), the exponent is exactly N (2 - u) + i N t u, u = t^2/(1 + t^2),
    so the integral is

        (P/2)/(2 pi) 2 kappa e^{2N} int_0^rho e^{-N u} cos(N t u) dt,

    with an integrand of size at most 1 (_arc_integral).  The integrand, its
    nodes and the sums run in doubles, and the factor in front once, in mpf.
    The exponent N u and the phase N t u are each a few roundings of size
    2^-53 relative, so a node errs by a few 2^-53 times
    (N u + N t u) e^{-N u} <= (1 + rho)/e, small beside the integral wherever
    the integrand is not negligible, and the sums over 53 to 419 nodes add a
    few units of 2^-53.  The value agrees with the 65-digit complex integrand
    in nu to 8.5e-16 relative for every coprime (r, m) with m <= 12 at n = 50,
    200 and 1000 and rho = 0.1 to 0.99, and for (1, 3) and (5, 12) at
    n = 20000 and 10^6, with the same levels (tests/test_analytic.py).
    """
    # even in t, so integrate the half arc
    return _arc_integral(ctx, 0, ctx.rho)


def contour_tail(ctx: ArcContext) -> mp.mpf:
    """The q = 1 line beyond the major arc, |nu| > rho kappa, in major_arc_integral's units.

    In Wright's variable w = z/kappa the exponent Bz + A/z is N (w + 1/w), and
    the tail nu > rho kappa is the Abel-summed kappa int e^{N (w + 1/w)} dw up
    the line Re w = 1; nu < -rho kappa is its conjugate.  With rho* = max(rho,
    1/2) and w* = 1 + i rho*, the integrand is analytic for Im w >= rho* and
    e^{Bz} decays as Re z -> -inf, so the line above w* equals the ray w = w* - x/N:

        -(kappa/N) e^{N (w* + 1/w*)} int_0^inf g(x) dx,  g(x) = exp(x/(w w*) - x).

    Re(w + 1/w) falls along the ray at rate c >= 1 - 1/(8 rho*^2) >= 1/2, so
    |g(x)| <= e^{-cx}, and the cut at X = RAY_CUT/c leaves at most
    e^{-RAY_CUT}/c.  g has no cancellation and no large factor of N; it runs
    in complex doubles in x on [0, X].  Where N is small g varies on the
    scale N rho* near 0, and tanh_sinh's nodes crowd both ends double
    exponentially, so no change of variable is needed: 5 to 7 levels (209
    to 837 nodes) for N from 0.0025 to 2400.  The factor in front, below
    e^{2N} in modulus and with a phase that can exceed 1000 rad, is applied
    once, in mpf.  Below rho = 1/2, Re(w + 1/w) would first rise along the
    ray (by 3.1 at rho = 0.1), so the line's piece rho <= t <= 1/2 is
    integrated as the arc is.

    Against the incomplete-gamma series at two agreeing precisions
    (tests/test_analytic.py) the error is at most 1.0e-15 of the tail's scale,
    P/(2 pi) times the ray's (kappa/N) |e^{N (w* + 1/w*)}| plus the vertical
    piece's integral of |integrand|, for every coprime (r, m) with m <= 12 at
    n = 0 to 1000 and rho = 0.1 to 0.99, and 4.2e-16 of it for (1, 3) and
    (5, 12) from n = 2 10^4 to 4 937 777.  With the arc, the line misses the
    one-term Bessel form by at most 1.4e-15 there and 4.5e-15 over 4 000
    cases with m from 13 to 600 and n <= 20, except below N = 0.004, where
    the line is down to 1/115 of the arc: 1.9e-13 at (70, 363), n = 2.
    """
    start = max(ctx.rho, 0.5)
    w_star = complex(1, start)
    cut = RAY_CUT / (1 - 1 / (8 * start * start))
    # w w* = w*^2 - x w*/N
    square, step = w_star * w_star, w_star / float(ctx.scale)

    def integrand(x: float) -> complex:
        return cmath.exp(x / (square - step * x) - x)

    ray, _ = tanh_sinh(integrand, 0, cut)
    with mp.workdps(ctx.dps + GUARD):
        w0 = mp.mpc(w_star)
        total = -ctx.kappa / ctx.scale * mp.exp(ctx.scale * (w0 + 1 / w0)) * mp.mpc(ray)
        # dz = i d nu, so the two tails in nu add up to 2 Im(total)
        tail = ctx.prefactor / (4 * mp.pi) * 2 * mp.im(total)
        if ctx.rho < start:
            tail += _arc_integral(ctx, ctx.rho, start)
        return tail


class CircleProfile(namedtuple("CircleProfile", "params n kappa rho nus log_magnitudes")):
    """Log magnitude of F(q) L(q) q^{-n} sampled on |q| = e^{-kappa}: floats at the angles nus."""

    __slots__ = ()

    @property
    def argmax_nu(self) -> float:
        i = max(range(len(self.nus)), key=lambda j: self.log_magnitudes[j])
        return self.nus[i]

    @property
    def principal_log(self) -> float:
        return max(self.log_magnitudes)

    @property
    def major_arc_contains_max(self) -> bool:
        return abs(self.argmax_nu) <= self.rho * self.kappa

    def root_of_unity_peaks(self) -> dict[int, tuple[float, float]]:
        """Sampled peak near nu = 2 pi l / m for each l = 1 .. m - 1 that has one.

        The window for l spans PEAK_HALFWIDTH either side of its centre.  A
        window's maximum is a peak only when no grid neighbour, across the
        seam nu = -pi = pi too, is higher.  Otherwise l is left out, as it is
        when a coarse grid puts no sample in the window.
        """
        vals = self.log_magnitudes
        last = len(vals) - 1
        out = {}
        for ell in range(1, self.params.m):
            center = 2 * math.pi * ell / self.params.m
            if center > math.pi:
                center -= 2 * math.pi
            inside = [j for j, nu in enumerate(self.nus) if abs(nu - center) <= PEAK_HALFWIDTH]
            if not inside:
                continue
            j = max(inside, key=vals.__getitem__)
            left = vals[j - 1] if j > 0 else vals[last - 1]
            right = vals[j + 1] if j < last else vals[1]
            if vals[j] >= max(left, right):
                out[ell] = (self.nus[j], vals[j])
        return out


def _lambert_split(params: StackParams, kappa: float) -> tuple[list[range], list[int], int]:
    """circle_profile's split of F's factors 1 - q^k, |q| = e^{-kappa}, into head and tail.

    Returns the head's exponents in each class s of k = s mod m, s = r and
    m - r (the k with |q^k| >= PROFILE_HEAD_FLOOR), the first exponent k_s
    past the head in each class, and the number J of Lambert terms the tail
    takes.  With x = |q^{k_s}| < PROFILE_HEAD_FLOOR, the larger of the two,
    and |1 - q^{jm}| >= 1 - |q|^{jm}, whose product with j grows with j, the
    terms of both classes past J sum to at most
    2 x^{J+1} / ((J + 1)(1 - |q|^{(J+1) m})(1 - x)); J is the least that puts
    this below 10^-PROFILE_CUT_DIGITS, the cut the profile makes in L.
    """
    m = params.m
    last = int(math.log(1 / PROFILE_HEAD_FLOOR) / kappa)
    heads = [range(s, last + 1, m) for s in (params.r, m - params.r)]
    firsts = [head.start + m * len(head) for head in heads]
    x, cut = math.exp(-min(firsts) * kappa), 10.0 ** -PROFILE_CUT_DIGITS
    terms = 0
    while 2 * x ** (terms + 1) / ((terms + 1) * -math.expm1(-(terms + 1) * m * kappa) * (1 - x)) > cut:
        terms += 1
    return heads, firsts, terms


def circle_profile(ctx: ArcContext, grid: int = 720) -> CircleProfile:
    """Sample log |F L q^{-n}| in doubles at grid+1 angles nu = pi (2j - grid)/grid.

    grid must be even so nu = 0 is sampled exactly.  The result does not
    depend on ctx.dps.  log |F| is a sum of logs, because |F| itself leaves
    double range once n reaches a few 10^5.  Its head, the factors with
    |q^k| >= PROFILE_HEAD_FLOOR, is summed factor by factor; in each class of
    exponents the factors from k_s on, the first past the head, make up the
    Lambert series

        -sum_{k >= k_s, k = k_s mod m} log |1 - q^k| = Re sum_{j >= 1} (1/j) q^{j k_s} / (1 - q^{jm}),

    cut after the J terms _lambert_split picks.  Only nu >= 0 is evaluated;
    nu < 0 is its mirror image.

    Error, measured over every coprime (r, m) with m <= 12 at grids 16, 22,
    72 and 2m (4m at m = 3), the last on the roots of unity: the samples
    differ from the sum over every factor of F (to the cut of L) by at most
    1.9e-15 times max(1, principal_log) for n <= 10^6, and 2.3e-15 times it
    at n = 5 10^6; tests/test_analytic.py holds them to 4e-15 and 1e-14.
    Most of it is that sum's own error, from its rounded phases e nu: at
    (5, 12), n = 6 10^5, nu = 11 pi/12 it misses 40-digit mpmath by 1.4e-12,
    the sample by 1.1e-13.  The tail's phases come from the integer angle
    index: the rounded j k_s nu, about 10^4 at (9, 11), n = 999 101,
    nu = 8 pi/11, missed mpmath there by 4.6e-12, the index by 2.3e-13.
    Against 30-digit mpmath kernels, at the roots of unity too, where
    1 - q^{jm} is smallest, the samples tests/test_analytic.py checks err by
    at most 2.9e-15 at n = 200, 2.1e-13 at n = 2 10^4 and 7.5e-13 at
    n = 10^6, as the sum over every factor does; the largest errors come
    from L's sum, which cancels where |L| is small.
    """
    if grid < 8 or grid % 2:
        raise ValueError("grid must be even and at least 8")
    params, n, kappa = ctx.params, ctx.n, float(ctx.kappa)
    m = params.m
    top = _factor_count(kappa / (2 * math.pi), PROFILE_CUT_DIGITS)
    l_terms = false_theta_gf(params, top)
    l_exps = [e for e, _ in l_terms]
    signs = [sign for _, sign in l_terms]
    heads, firsts, terms = _lambert_split(params, kappa)
    f_exps = [e for head in heads for e in head]
    # |1 - e^{a + ib}| = hypot(expm1(a), 2 e^{a/2} sin(b/2)) keeps every digit near q = 1
    ds = [math.expm1(-e * kappa) for e in f_exps]
    ss = [2 * math.exp(-e * kappa / 2) for e in f_exps]
    # float * float below, not int * float's slower path; exact, e < 2^53
    f_exps = list(map(float, f_exps))
    js = range(1, terms + 1)
    r_exps, mr_exps = ([float(j * k) for j in js] for k in firsts)
    r_mags, mr_mags = ([math.exp(-e * kappa) for e in exps] for exps in (r_exps, mr_exps))
    jms = [float(j * m) for j in js]
    # j (1 - q^{jm}) = j (1 - |q|^{jm}) + 2j |q|^{jm} sin(b/2)^2 - 2ij |q|^{jm} sin(b/2) cos(b/2), b = jm nu:
    # its real part adds two terms >= 0, so no digit cancels near a root of unity
    jc1 = [-j * math.expm1(-j * m * kappa) for j in js]
    jc2 = [2 * j * math.exp(-j * m * kappa) for j in js]
    jc2_neg = [-c for c in jc2]
    nus = [math.pi * (2 * j - grid) / grid for j in range(grid + 1)]
    period, half_turn = 2.0 * grid, math.pi / grid
    half = []
    # per angle, C-level map chains over the terms of L, the head of F and the
    # tail's terms; e (nu / 2) equals e nu / 2 bit for bit, halving being exact
    for a, nu in zip(range(0, grid + 1, 2), nus[grid // 2:]):
        z = complex(-kappa, nu)
        mag = abs(sum(map(mul, signs, map(cmath.exp, map(mul, l_exps, repeat(z))))))
        half_nu = nu / 2
        sines = map(math.sin, map(mul, f_exps, repeat(half_nu)))
        head = math.fsum(map(math.log, map(math.hypot, ds, map(mul, ss, sines))))
        s = list(map(math.sin, map(mul, jms, repeat(half_nu))))
        c = map(math.cos, map(mul, jms, repeat(half_nu)))
        dens = map(complex, map(add, jc1, map(mul, jc2, map(mul, s, s))), map(mul, jc2_neg, map(mul, s, c)))
        # q^{j k_s} has phase pi/grid times (j k_s a rem 2 grid), nu = pi a/grid: exact, odd
        # in a, and free of the rounding that 1/(1 - q^{jm}) amplifies at the roots of unity
        r_phases, mr_phases = (
            map(mul, map(math.remainder, map(mul, exps, repeat(a)), repeat(period)), repeat(half_turn))
            for exps in (r_exps, mr_exps)
        )
        nums = map(add, map(cmath.rect, r_mags, r_phases), map(cmath.rect, mr_mags, mr_phases))
        tail = sum(map(truediv, nums, dens)).real
        half.append(math.log(mag) + (tail - head) + n * kappa if mag else -math.inf)
    # real coefficients make the magnitude even in nu, and nus[grid - j] == -nus[j] exactly
    logs = half[:0:-1] + half
    return CircleProfile(params, n, kappa, ctx.rho, tuple(nus), tuple(logs))


class Check(namedtuple("Check", "name ok measured tolerance detail")):
    """One verify check.  A measured check passes when measured <= tolerance; a yes/no check has both None.

    ok is None when the check does not apply; the detail says why.
    """

    __slots__ = ()


def _measured(name: str, measured, tolerance, detail: str = "") -> Check:
    return Check(name, measured <= tolerance, measured, tolerance, detail)


def _sample_tau(rng: random.Random) -> mp.mpc:
    return mp.mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.08, 0.6))


def _sample_w(rng: random.Random) -> mp.mpc:
    return mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))


def _check_decomposition(params, dps, rng, ctx) -> list[Check]:
    report = verify_decomposition(params, DECOMPOSITION_ORDER)
    detail = "coefficients agree exactly" if report.ok else f"{len(report.mismatches)} mismatched coefficients"
    return [Check(f"decomposition {params} to order {DECOMPOSITION_ORDER}", report.ok, None, None, detail)]


def _check_theta(params, dps, rng, ctx) -> list[Check]:
    worst_pair = worst_odd = mp.mpf(0)
    for _ in range(4):
        tau, w = _sample_tau(rng), _sample_w(rng)
        worst_pair = max(worst_pair, abs(theta_sum(w, tau, dps) - theta_product(w, tau, dps)))
        # theta_sum(w, tau) again, as perfbench's hand count of 12 theta_sum calls expects
        worst_odd = max(worst_odd, abs(theta_sum(-w, tau, dps) + theta_sum(w, tau, dps)))
    tol = mp.mpf(10) ** (-dps)
    return [
        _measured("theta sum vs triple product (4 samples)", worst_pair, tol),
        _measured("theta oddness in the elliptic variable", worst_odd, tol),
    ]


def _check_transform(params, dps, rng, ctx) -> list[Check]:
    worst = max(theta_transform_residual(_sample_w(rng), _sample_tau(rng), dps) for _ in range(4))
    return [_measured("theta modular transform (4 samples)", worst, mp.mpf(10) ** (-dps))]


def _gamma_quarter() -> mp.mpf:
    """Gamma(1/4) at the ambient precision, from Gauss's Gamma(1/4)^2 = (2 pi)^{3/2} / AGM(1, sqrt 2).

    The identity is in Borwein & Borwein, Pi and the AGM (1987).  It needs one
    AGM and no gamma coefficient table, and it shares nothing with
    dedekind_eta's pentagonal series, so the eta check stays independent.
    """
    two_pi = 2 * mp.pi
    return mp.sqrt(two_pi * mp.sqrt(two_pi) / mp.agm(1, mp.sqrt(2)))


def _check_eta(params, dps, rng, ctx) -> list[Check]:
    worst = max(eta_inversion_residual(_sample_tau(rng), dps) for _ in range(4))
    # eta(i) = Gamma(1/4) / (2 pi^{3/4}), at the fixed point of tau -> -1/tau
    with mp.workdps(dps + GUARD):
        special = abs(dedekind_eta(mp.mpc(0, 1), dps) - _gamma_quarter() / (2 * mp.pi ** mp.mpf("0.75")))
    tol = mp.mpf(10) ** (-dps)
    return [
        _measured("eta inversion (4 samples)", worst, tol),
        _measured("eta at the fixed point of the inversion", special, tol),
    ]


def _check_falsetheta(params, dps, rng, ctx) -> list[Check]:
    worst = max(false_theta_series_residual(params, mp.mpc("0.01", y), dps) for y in ("0.10", "0.14", "0.18"))
    a, b = params.m, -(params.m + 2 * params.shift)
    worst_ratio = mp.mpf(0)
    for y in map(mp.mpf, ("0.05", "0.12", "0.20")):
        for xfrac in (mp.mpf(0), mp.mpf("0.5"), mp.mpf(-1)):
            chk = cubic_remainder_check(a, b, mp.mpc(y * xfrac, y), dps)
            worst_ratio = max(worst_ratio, chk.delta / chk.bound)
    ratio_name = f"cubic remainder bound for indices ({a}, {b}) over 9 points"
    return [
        _measured("false theta vs integer series (3 points)", worst, mp.mpf(10) ** (-dps)),
        _measured(ratio_name, worst_ratio, mp.mpf(1), "delta over bound"),
    ]


def _bessel_references(x) -> list[mp.mpf]:
    """I_0(x) .. I_3(x) at the ambient precision: mp.besseli at orders 0 and 1, then the recurrence

    I_{nu+1}(x) = I_{nu-1}(x) - (2 nu / x) I_nu(x) (DLMF 10.29.1).  Upward it
    cancels, most at x = 0.5, where I_3 loses about 3 digits.
    """
    refs = [mp.besseli(0, x), mp.besseli(1, x)]
    for nu in (1, 2):
        refs.append(refs[nu - 1] - 2 * nu / x * refs[nu])
    return refs


def _check_bessel(params, dps, rng, ctx) -> list[Check]:
    """The series route against mpmath's I_0, I_1 and their recurrence at dps + GUARD digits, and the Hankel route."""
    with mp.workdps(dps + GUARD):
        xs = [mp.mpf(x) for x in ("0.5", "3", "12", "30")]
        series = [[_bessel_series(nu, x, dps) for x in xs] for nu in range(4)]
        references = list(zip(*map(_bessel_references, xs)))
        worst_series = max(abs(value / ref - 1) for nu in range(4) for value, ref in zip(series[nu], references[nu]))
        # the Hankel route at x = 30 against the series values above
        worst_hankel = max(abs(_bessel_hankel(nu, xs[-1], dps) / series[nu][-1] - 1) for nu in range(4))
    return [
        _measured("modified bessel series vs reference (orders 0..3)", worst_series, mp.mpf(10) ** (-(dps - 10))),
        _measured("asymptotic bessel route at x = 30", worst_hankel, mp.mpf("1e-8")),
    ]


def _check_contour(params, dps, rng, ctx) -> list[Check]:
    """The arc plus its tail against the one-term Bessel form, and where the integrand peaks.

    The peak's place says nothing from kappa >= pi on (N <= pi/(3m)): the
    principal part's log magnitude A kappa/(kappa^2 + nu^2) is wider than the
    circle, and the major arc covers it all from rho >= pi/kappa on.
    """
    line = major_arc_integral(ctx) + contour_tail(ctx)
    bessel_form = ctx.bessel_sum(singular_expansion_coeffs(params, max_order=0))
    with mp.workdps(dps + GUARD):
        gap = abs(line / bessel_form - 1)
    kappa = float(ctx.kappa)
    if kappa >= math.pi:
        inside, detail = None, f"does not apply: kappa = {kappa:.4f} >= pi, the peak spans the circle"
    else:
        prof = circle_profile(ctx, grid=CONTOUR_PROFILE_GRID)
        inside, detail = prof.major_arc_contains_max, f"argmax nu = {prof.argmax_nu:.4f}"
    return [
        _measured(f"restricted contour vs bessel closed form at n = {ctx.n}, rho = {ctx.rho}", gap, QUADRATURE_RTOL),
        Check("integrand maximum lies on the major arc", inside, None, None, detail),
    ]


def _check_oracle(params, dps, rng, ctx) -> list[Check]:
    ok = True
    for pp in (StackParams(r, m) for r, m in ((1, 3), (1, 4), (2, 5), (3, 4), (3, 5))):
        series = stack_gf(pp, 40)
        ok &= all(series[n] == count_stacks(n, pp) for n in range(41))
    return [Check("generating function vs direct enumeration to n = 40 (5 parameter pairs)", ok, None, None, "")]


# The verify targets in run order, each a function (params, dps, rng, ctx) ->
# [Check]: rng draws the sample points and ctx is the contour's q = 1 arc (None
# for the other targets).
VERIFY_CHECKS: dict[str, Callable[..., list[Check]]] = {
    "decomposition": _check_decomposition,
    "theta": _check_theta,
    "transform": _check_transform,
    "eta": _check_eta,
    "falsetheta": _check_falsetheta,
    "bessel": _check_bessel,
    "contour": _check_contour,
    "oracle": _check_oracle,
}
