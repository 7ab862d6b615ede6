"""Command line front end.

Subcommands:

    count    exact number of stacks of a given size, optionally with witnesses
    table    exact counts against the asymptotic main term over a range of sizes
    asym     asymptotic estimates (main term, refined term, full expansion) for one size
    verify   numerical verification suites for the analytic machinery
    profile  integrand magnitude around the saddle circle: major arc and root-of-unity peaks
    decay    fitted decay rate of the closed-form residual of F, per modulus

Exit codes: 0 success, 1 a verification check failed, 2 invalid input.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys

import mpmath as mp

from . import __version__
from .asymptotics import (
    MAX_EXPANSION_TERMS,
    REFINED_MIN_2N,
    ArcContext,
    ComparisonRecord,
    asymptotic_sum,
    comparison_table,
    main_term,
    refined_main_term,
    relative_error,
    singular_expansion_coeffs,
)
from .bigfloat import DEFAULT_DPS
from .oracle import ENUMERATION_CAP, count_stacks, enumerate_stacks
from .params import StackParams
from .qseries import stack_gf

MIN_PRECISION = 30
DEFAULT_SEED = 20260815
# largest size `count` and `table` build the exact series for; there
# `count -n` takes 2.3-3.2 s and 32 MB max RSS (Python 3.11, one Xeon core)
MAX_SERIES_ORDER = 10**5
# largest `asym --exact` size for the O(n^2) direct count count_stacks; there
# `asym --exact` takes 3.4-4.0 s and 21 MB max RSS (same machine)
MAX_DIRECT_COUNT_SIZE = 10**4
# largest `profile` work grid * (PROFILE_FIXED_WORK + sqrt(n)).  An angle costs
# about 15 us, the tail and a few terms of L, plus 1.1 us sqrt(n), the factors
# of F one by one; PROFILE_FIXED_WORK is their ratio, fitted at n = 0 and 500.
# The edges then cost alike: grid 115 000 at n = 0 takes 0.7 s and 30 MB max
# RSS, grid 44 278 at n = 500 0.9 s, n = 4 937 777 at grid 720 0.8 s (same machine)
PROFILE_FIXED_WORK = 14
MAX_PROFILE_WORK = 1_610_000
# largest -P.  Costs grow steeply with it: `verify all -P 1200` takes 2.1-4.3 s
# (seeds 1-3) and 21 MB max RSS, about half of it theta_product's q-Pochhammer
# loops (same machine)
MAX_DPS = 1200
# `verify` targets in run order, the keys of analytic.VERIFY_CHECKS; the parser
# lists them without importing analytic.  The contour target refuses an -n whose
# grid-720 circle profile has work above MAX_PROFILE_WORK (n > 4 937 777,
# whatever -P and m).  There `verify contour` takes 0.8-1.3 s, most of it the
# profile, and 1.2-1.9 s at -P 1200, 21 MB max RSS (same machine)
VERIFY_TARGETS = ("decomposition", "theta", "transform", "eta", "falsetheta", "bessel", "contour", "oracle")


def _resolve_precision(args: argparse.Namespace) -> int:
    dps = args.precision
    if dps < MIN_PRECISION:
        raise ValueError(f"precision must be at least {MIN_PRECISION} digits, got {dps}")
    if dps > MAX_DPS:
        raise ValueError(f"precision {dps} exceeds the working-precision bound MAX_DPS = {MAX_DPS}")
    return dps


def _csv(header: tuple[str, ...], rows) -> str:
    """Comma separated header and rows, one line each, for `table` and `profile`."""
    return "\n".join(",".join(map(str, row)) for row in [header, *rows])


_RECORD_FIELDS = ("n", "exact", "asymptotic_mantissa", "asymptotic_exp10", "relative_error")
_RECORD_DIGITS = 10


def _scientific(x: mp.mpf, digits: int) -> str:
    """A positive x as mantissa in [1, 10) with `digits` digits, 'e' and a signed decimal exponent.

    mpmath rounds the mantissa once, carrying a rounded 10 into the exponent
    (9.999996e5 at 5 digits is 1.0000e+6).  It finds the decimal exponent e
    with as many bits as x's binary exponent has and forms 10^e with log2(e)
    guard bits, so the mantissa is right however large x is.
    """
    return mp.nstr(x, digits, strip_zeros=False, min_fixed=1, max_fixed=1, show_zero_exponent=True)


def _format_error(rel: mp.mpf, digits: int, dps: int) -> str:
    """estimate / exact - 1 to `digits` digits, or `< 1e-(dps-2)` below that floor.

    Estimates keep dps digits at any n (asymptotics.growth_dps), so the floor
    covers their rounding and the quotient's at dps digits.
    """
    return f"< 1e-{dps - 2}" if abs(rel) < mp.mpf(10) ** (2 - dps) else mp.nstr(rel, digits)


def _record_row(rec: ComparisonRecord, dps: int) -> tuple:
    """One table record in _RECORD_FIELDS order, for CSV and JSON alike."""
    mant, e = _scientific(rec.estimate, _RECORD_DIGITS).split("e")
    return (
        rec.n,
        str(rec.exact),
        mant,
        int(e),
        _format_error(rec.relative_error, _RECORD_DIGITS, dps),
    )


def _check_series_order(n: int) -> None:
    if n > MAX_SERIES_ORDER:
        raise ValueError(f"size {n} exceeds the exact-series bound MAX_SERIES_ORDER = {MAX_SERIES_ORDER}")


def _add_residue(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-r", "--r", type=int, default=1, help="residue class of left parts and peak (default 1)")


def _add_common(parser: argparse.ArgumentParser, precision: bool = True) -> None:
    _add_residue(parser)
    parser.add_argument("-m", "--m", type=int, default=3, help="modulus (default 3)")
    if precision:
        parser.add_argument(
            "-P",
            "--precision",
            type=int,
            default=DEFAULT_DPS,
            help=f"working decimal precision (default {DEFAULT_DPS}, minimum {MIN_PRECISION}, at most {MAX_DPS})",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstacks",
        description="Unimodal stacks with congruence conditions: exact counts and asymptotics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="exact count of stacks of size n")
    _add_common(p_count, precision=False)
    p_count.add_argument(
        "-n", "--size", type=int, required=True, help=f"stack size to count (at most {MAX_SERIES_ORDER})"
    )
    p_count.add_argument(
        "--witnesses",
        action="store_true",
        help=f"also list the stacks themselves (only for n <= {ENUMERATION_CAP})",
    )
    p_count.add_argument("--format", choices=["text", "json"], default="text")
    p_count.set_defaults(func=cmd_count)

    p_table = sub.add_parser("table", help="exact counts against the asymptotic main term")
    _add_common(p_table)
    p_table.add_argument(
        "--values",
        default="10,50,100,500,1000",
        help=f"comma separated sizes, each at most {MAX_SERIES_ORDER} (default 10,50,100,500,1000)",
    )
    p_table.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p_table.set_defaults(func=cmd_table)

    p_asym = sub.add_parser("asym", help="asymptotic estimates for one size")
    _add_common(p_asym)
    p_asym.add_argument("-n", "--size", type=int, required=True)
    p_asym.add_argument(
        "--full",
        action="store_true",
        help="include the refined term and the multi-term expansion",
    )
    p_asym.add_argument(
        "--terms",
        type=int,
        default=4,
        help=f"terms in the full expansion (default 4, at most {MAX_EXPANSION_TERMS})",
    )
    p_asym.add_argument(
        "--exact",
        action="store_true",
        help=f"also compute the exact count for comparison (only for n <= {MAX_DIRECT_COUNT_SIZE})",
    )
    p_asym.add_argument("--format", choices=["text", "json"], default="text")
    p_asym.set_defaults(func=cmd_asym)

    p_verify = sub.add_parser("verify", help="numerical verification suites")
    _add_common(p_verify)
    p_verify.add_argument(
        "targets",
        nargs="*",
        metavar="TARGET",
        help=f"suites to run: {', '.join(sorted(VERIFY_TARGETS))}, or all (default all)",
    )
    p_verify.add_argument("-n", "--size", type=int, default=200, help="size used by the contour check")
    p_verify.add_argument("--rho", type=float, default=0.9, help="major arc fraction for the contour check")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for sampled test points")
    p_verify.set_defaults(func=cmd_verify)

    p_profile = sub.add_parser("profile", help="integrand magnitude around the saddle circle")
    _add_common(p_profile, precision=False)
    p_profile.add_argument("-n", "--size", type=int, default=500, help="coefficient index (default 500)")
    p_profile.add_argument("--rho", type=float, default=0.5, help="major arc half-width in units of kappa (default 0.5)")
    p_profile.add_argument(
        "--grid",
        type=int,
        default=720,
        help=f"angular sample count, even (default 720); grid * ({PROFILE_FIXED_WORK} + sqrt(n)) "
        f"is at most {MAX_PROFILE_WORK}",
    )
    p_profile.add_argument("--format", choices=["text", "csv"], default="text", help="csv lists every sample")
    p_profile.set_defaults(func=cmd_profile)

    p_decay = sub.add_parser("decay", help="decay rate of the closed-form residual of F per modulus")
    _add_residue(p_decay)
    p_decay.add_argument("--moduli", default="3,4,5,6,7", help="comma separated moduli (default 3,4,5,6,7)")
    p_decay.set_defaults(func=cmd_decay)

    return parser


def cmd_count(args: argparse.Namespace) -> int:
    params = StackParams(args.r, args.m)
    n = args.size
    if n < 0:
        raise ValueError("size must be nonnegative")
    _check_series_order(n)
    # enumerate first: past ENUMERATION_CAP it refuses before the count is paid for
    witnesses = enumerate_stacks(n, params) if args.witnesses else None
    count = stack_gf(params, n)[n]
    if args.format == "json":
        # imported here, as in table and asym, so text output never loads json
        import json

        payload = {"r": params.r, "m": params.m, "variant": params.variant, "n": n, "count": str(count)}
        if witnesses is not None:
            payload["witnesses"] = [
                {"left": list(w.left), "peak": w.peak, "right": list(w.right)} for w in witnesses
            ]
        print(json.dumps(payload, indent=2))
    else:
        lines = [f"stacks of size {n} with parts {params}: {count}"]
        if witnesses is not None:
            for w in witnesses:
                parts = [str(x) for x in w.left] + [f"[{w.peak}]"] + [str(x) for x in w.right]
                lines.append("  " + " ".join(parts))
        print("\n".join(lines))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    params = StackParams(args.r, args.m)
    dps = _resolve_precision(args)
    try:
        ns = [int(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"--values must be comma separated integers, got {args.values!r}")
    if not ns or any(n < 1 for n in ns):
        raise ValueError("sizes must be positive integers")
    _check_series_order(max(ns))
    records = comparison_table(params, ns, dps=dps)
    if args.format == "csv":
        print(_csv(_RECORD_FIELDS, (_record_row(rec, dps) for rec in records)))
    elif args.format == "json":
        import json

        print(json.dumps([dict(zip(_RECORD_FIELDS, _record_row(rec, dps))) for rec in records]))
    else:
        lines = [f"{params}", f"{'n':>8}  {'exact':>28}  {'main term':>14}  {'rel error':>12}"]
        for rec in records:
            exact = str(rec.exact)
            if len(exact) > 28:
                exact = exact[:10] + "..." + exact[-10:]
            lines.append(
                f"{rec.n:>8}  {exact:>28}  {_scientific(rec.estimate, 5):>14}  "
                f"{_format_error(rec.relative_error, 5, dps):>12}"
            )
        print("\n".join(lines))
    return 0


def cmd_asym(args: argparse.Namespace) -> int:
    params = StackParams(args.r, args.m)
    dps = _resolve_precision(args)
    n = args.size
    if n < 1:
        raise ValueError("size must be positive")
    if not 1 <= args.terms <= MAX_EXPANSION_TERMS:
        raise ValueError(f"--terms must be between 1 and {MAX_EXPANSION_TERMS}, got {args.terms}")
    if args.exact and n > MAX_DIRECT_COUNT_SIZE:
        raise ValueError(
            f"size {n} exceeds the direct-count bound of --exact MAX_DIRECT_COUNT_SIZE = {MAX_DIRECT_COUNT_SIZE}"
        )
    x = main_term(params, n, dps=dps)
    rows: list[tuple[str, str]] = [("main term", _scientific(x, 6))]
    data: dict[str, object] = {
        "r": params.r,
        "m": params.m,
        "variant": params.variant,
        "n": n,
        "main_term": _scientific(x, 10),
    }
    if args.full:
        ctx = ArcContext.build(params, n, dps=dps)
        rows.append(("saddle radius", mp.nstr(ctx.kappa, 8)))
        rows.append(("growth scale", mp.nstr(ctx.scale, 8)))
        data["saddle_radius"] = mp.nstr(ctx.kappa, 12)
        data["growth_scale"] = mp.nstr(ctx.scale, 12)
        # below 2N = REFINED_MIN_2N only the refined term is undefined
        if 2 * ctx.scale >= REFINED_MIN_2N:
            refined = refined_main_term(params, n, dps=dps)
            rows.append(("refined term", _scientific(refined, 6)))
            data["refined_term"] = _scientific(refined, 10)
        else:
            rows.append(("refined term", f"unavailable (needs 2N >= {REFINED_MIN_2N})"))
            data["refined_term"] = None
        alphas = singular_expansion_coeffs(params, max_order=args.terms - 1)
        bessel_form = ctx.bessel_sum(alphas[:1])
        rows.append(("bessel form", _scientific(bessel_form, 6)))
        data["bessel_form"] = _scientific(bessel_form, 10)
        full = asymptotic_sum(params, n, terms=args.terms, dps=dps)
        rows.append((f"expansion ({args.terms} terms)", _scientific(full, 6)))
        data["expansion"] = _scientific(full, 10)
        data["expansion_terms"] = args.terms
        rows.append(("expansion coefficients", ", ".join(str(a) for a in alphas)))
        data["expansion_coefficients"] = [str(a) for a in alphas]
    if args.exact:
        exact = count_stacks(n, params)
        rel = relative_error(params, n, x, exact, dps)
        rows.append(("exact count", str(exact)))
        data["exact"] = str(exact)
        data["relative_error_floor"] = f"1e-{dps - 2}"
        rows.append(("rel error of main term", _format_error(rel, 6, dps)))
        data["main_term_relative_error"] = _format_error(rel, 12, dps)
        if args.full:
            full = asymptotic_sum(params, n, terms=args.terms, dps=dps)
            rel_full = relative_error(params, n, full, exact, dps)
            rows.append(("rel error of expansion", _format_error(rel_full, 6, dps)))
            data["expansion_relative_error"] = _format_error(rel_full, 12, dps)
    if args.format == "json":
        import json

        print(json.dumps(data, indent=2))
    else:
        width = max(len(label) for label, _ in rows)
        lines = [f"{params}, n = {n}"]
        lines += [f"  {label:<{width}}  {value}" for label, value in rows]
        print("\n".join(lines))
    return 0


def _check_line(check) -> str:
    """An analytic.Check as its PASS/FAIL/SKIP line, with measured against tolerance and the detail if it has them."""
    line = f"{'SKIP' if check.ok is None else 'PASS' if check.ok else 'FAIL'}  {check.name}"
    if check.measured is not None:
        measured, tolerance = (mp.nstr(mp.mpf(value), 4) for value in (check.measured, check.tolerance))
        line += f": measured {measured} vs tolerance {tolerance}"
    return line + (f"  ({check.detail})" if check.detail else "")


def cmd_verify(args: argparse.Namespace) -> int:
    # imported here, as in profile and decay: count, table and asym never load analytic
    from . import analytic

    params = StackParams(args.r, args.m)
    dps = _resolve_precision(args)
    requested = set(args.targets or ["all"])
    unknown = requested.difference(VERIFY_TARGETS, {"all"})
    if unknown:
        raise ValueError(f"unknown verify target(s): {', '.join(sorted(unknown))}")
    targets = [target for target in VERIFY_TARGETS if target in requested or "all" in requested]
    ctx = None
    # the contour check's size bound, before any check runs
    if "contour" in targets:
        _check_profile_work(analytic.CONTOUR_PROFILE_GRID, args.size)
        ctx = ArcContext.build(params, args.size, rho=args.rho, dps=dps)
    rng = random.Random(args.seed)
    checks = [check for target in targets for check in analytic.VERIFY_CHECKS[target](params, dps, rng, ctx)]
    failures = sum(check.ok is False for check in checks)
    lines = [*map(_check_line, checks), f"{failures} failure(s)" if failures else "all checks passed"]
    print("\n".join(lines))
    return 1 if failures else 0


def _check_profile_work(grid: int, size: int) -> None:
    """Refuse a circle profile whose work grid * (PROFILE_FIXED_WORK + sqrt(n)) is above MAX_PROFILE_WORK."""
    # mp.sqrt takes n whole; math.sqrt would first round n to a double, which overflows past 10^308
    work = grid * (PROFILE_FIXED_WORK + float(mp.sqrt(max(size, 0))))
    if work > MAX_PROFILE_WORK:
        raise ValueError(
            f"grid * ({PROFILE_FIXED_WORK} + sqrt(n)) = {grid} * ({PROFILE_FIXED_WORK} + sqrt({size})) = {work:.10g} "
            f"exceeds the profile bound MAX_PROFILE_WORK = {MAX_PROFILE_WORK}"
        )


def cmd_profile(args: argparse.Namespace) -> int:
    from . import analytic

    params = StackParams(args.r, args.m)
    _check_profile_work(args.grid, args.size)
    ctx = ArcContext.build(params, args.size, rho=args.rho)
    profile = analytic.circle_profile(ctx, grid=args.grid)
    if args.format == "csv":
        rows = ((f"{nu:.10f}", f"{val:.6f}") for nu, val in zip(profile.nus, profile.log_magnitudes))
        print(_csv(("nu", "log_magnitude"), rows))
        return 0
    kappa = float(ctx.kappa)
    lines = [
        f"family {params}, n = {args.size}, kappa = {kappa:.6f}",
        f"maximum at nu = {profile.argmax_nu:+.4f} "
        f"(major arc |nu| <= {args.rho * kappa:.4f}: "
        f"{'inside' if profile.major_arc_contains_max else 'OUTSIDE'})",
        f"principal log magnitude {profile.principal_log:.3f}",
    ]
    peaks = profile.root_of_unity_peaks()
    for ell in range(1, params.m):
        if ell not in peaks:
            lines.append(f"  no peak within {analytic.PEAK_HALFWIDTH} of 2 pi {ell}/{params.m}")
            continue
        nu, height = peaks[ell]
        lines.append(
            f"  peak near 2 pi {ell}/{params.m}: nu = {nu:+.4f}, "
            f"log magnitude {height:.3f} ({profile.principal_log - height:.3f} below)"
        )
    print("\n".join(lines))
    return 0


def cmd_decay(args: argparse.Namespace) -> int:
    from . import analytic

    try:
        moduli = [int(v) for v in args.moduli.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"--moduli must be comma separated integers, got {args.moduli!r}")
    if not moduli:
        raise ValueError(f"--moduli lists no modulus, got {args.moduli!r}")
    families: list[tuple[int, StackParams | ValueError]] = []
    for m in moduli:
        try:
            params = StackParams(args.r, m)
        except ValueError as exc:
            families.append((m, exc))
            continue
        # every modulus is checked before the first fit runs: one past double range raises
        analytic.decay_precision(params, analytic.DECAY_Z_VALUES)
        families.append((m, params))
    if all(isinstance(params, ValueError) for _, params in families):
        reasons = "; ".join(f"m = {m}: {exc}" for m, exc in families)
        raise ValueError(f"--moduli lists no modulus that forms a valid family with -r {args.r} ({reasons})")
    lines = [f"{'family':>18}  {'fitted':>10}  {'expected':>10}  {'ratio':>7}  {'points':>6}"]
    for m, params in families:
        label = f"(r={args.r}, m={m})"
        if isinstance(params, ValueError):
            lines.append(f"{label:>18}  skipped: {params}")
            continue
        fit = analytic.product_decay_fit(params)
        lines.append(
            f"{label:>18}  {fit.slope:>10.4f}  {fit.expected:>10.4f}  "
            f"{fit.slope / fit.expected:>7.4f}  {len(fit.points):>6}"
        )
    print("\n".join(lines))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Process entry point of `cstacks` and `python -m congruence_stacks`: exit with main()'s code.

    Everything imported by now (mpmath, argparse, the layer modules) lives
    until the process ends, so gc.freeze() takes it out of the collector's
    reach: the full collections during the command and at interpreter exit
    no longer walk it.  Called in-process, main() freezes nothing.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
