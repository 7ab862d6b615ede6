"""Correctness gate for the benchmark's commands (text output; JSON for `table`).

A command fails when it exits with a status other than 0 or when its output
is wrong.  Output is wrong when:

- a reference recorded at the seed commit exists for the command line
  (`reference.json`, keyed without `--seed`) and the output differs from it.
  `count`, `table` and `asym` output is compared token by token, so exact
  integers must match bit for bit and decimal values at their printed digits.
  `verify` output is compared by the PASS/FAIL status of each named check
  the reference lists; checks added later must pass;
- a `count` disagrees with the exact column of a `table` of the same (r, m)
  and size in the same pass;
- an `asym` or `table` value differs, at its printed digits, from the closed
  forms re-evaluated here with mpmath's own Bessel function: the main term,
  saddle radius, growth scale, refined term, Bessel form and the expansion
  with the coefficients the command printed.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import mpmath as mp

VERIFY_LINE = re.compile(r"^(PASS|FAIL)  (.*?)(?:: measured .*|  \(.*\))?$")


def reference_key(argv: list[str]) -> str:
    """Command line without its --seed option: verify statuses do not depend on it."""
    out, skip = [], False
    for arg in argv:
        if skip:
            skip = False
        elif arg == "--seed":
            skip = True
        else:
            out.append(arg)
    return " ".join(out)


def facts(argv: list[str], stdout: str) -> list[str]:
    """What the reference pins: status lines for verify, every token otherwise."""
    if argv[0] == "verify":
        return [f"{m.group(2)} {m.group(1)}" for m in map(VERIFY_LINE.match, stdout.splitlines()) if m]
    return stdout.split()


def check_pass(results, reference: dict) -> list[str | None]:
    """One error message (or None) per command result of a pass.

    `results` holds objects with `argv`, `returncode`, `stdout` and `stderr`.
    """
    tables: dict[tuple[str, str, int], str] = {}
    for res in results:
        if res.argv[0] == "table" and res.returncode == 0:
            r, m = _option(res.argv, "-r", "1"), _option(res.argv, "-m", "3")
            for row in _table_rows(res.argv, res.stdout):
                tables[(r, m, row["n"])] = row["exact"]
    return [_check(res, reference, tables) for res in results]


def _check(res, reference: dict, tables: dict) -> str | None:
    if res.returncode != 0:
        return f"exit status {res.returncode}: {res.stderr.strip()[-300:]}"
    try:
        ref = reference.get(reference_key(res.argv))
        if ref is not None and res.argv[0] != "verify" and facts(res.argv, res.stdout) != ref:
            return "output differs from the reference"
        if res.argv[0] == "verify":
            return _check_verify(res.stdout, ref)
        if res.argv[0] == "count":
            return _check_count(res.argv, res.stdout, tables)
        if res.argv[0] == "table":
            return _check_table(res.argv, res.stdout)
        if res.argv[0] == "asym":
            return _check_asym(res.argv, res.stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    return None


def _option(argv: list[str], flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _check_verify(stdout: str, ref: list[str] | None) -> str | None:
    got = facts(["verify"], stdout)
    failing = [line for line in got if line.endswith(" FAIL")]
    if not got or failing or stdout.strip().splitlines()[-1] != "all checks passed":
        return f"verify did not pass: {failing}"
    missing = [line for line in ref or () if line not in got]
    if missing:
        return f"verify statuses differ from the reference: {missing}"
    return None


def _check_count(argv: list[str], stdout: str, tables: dict) -> str | None:
    count = stdout.splitlines()[0].rsplit(": ", 1)[1]
    key = (_option(argv, "-r", "1"), _option(argv, "-m", "3"), int(_option(argv, "-n", "")))
    exact = tables.get(key)
    if exact is not None and exact != _truncate_like(count, exact):
        return f"count {count} disagrees with the table's exact column {exact}"
    return None


def _truncate_like(digits: str, shown: str) -> str:
    """The text table shows long integers as first 10 ... last 10 digits."""
    return digits[:10] + "..." + digits[-10:] if "..." in shown else digits


def _table_rows(argv: list[str], stdout: str) -> list[dict]:
    if "--format" in argv:  # json
        return [dict(n=row["n"], exact=row["exact"],
                     estimate=f"{row['asymptotic_mantissa']}e{row['asymptotic_exp10']}") for row in json.loads(stdout)]
    out = []
    for line in stdout.splitlines()[2:]:
        n, exact, estimate, _ = line.split()
        out.append(dict(n=int(n), exact=exact, estimate=estimate))
    return out


def _check_table(argv: list[str], stdout: str) -> str | None:
    r, m = int(_option(argv, "-r", "1")), int(_option(argv, "-m", "3"))
    for row in _table_rows(argv, stdout):
        err = _at_printed_digits("main term", row["estimate"], closed_forms(r, m, row["n"])["main term"])
        if err:
            return f"n = {row['n']}: {err}"
    return None


def _check_asym(argv: list[str], stdout: str) -> str | None:
    r, m, n = int(_option(argv, "-r", "1")), int(_option(argv, "-m", "3")), int(_option(argv, "-n", ""))
    printed = {}
    for line in stdout.splitlines()[1:]:
        label, value = re.split(r"\s{2,}", line.strip(), maxsplit=1)
        printed[label.split(" (")[0]] = value
    alphas = printed.pop("expansion coefficients", None)
    alphas = alphas.split(", ") if alphas else None
    expected = closed_forms(r, m, n, [Fraction(a) for a in alphas] if alphas else None)
    for label, value in printed.items():
        if label in expected:
            err = _at_printed_digits(label, value, expected[label])
            if err:
                return err
    return None


def _at_printed_digits(label: str, printed: str, expected) -> str | None:
    """printed must equal expected up to one unit in its last printed digit."""
    mantissa = printed.lower().split("e")[0]
    digits = len(mantissa.replace("-", "").replace(".", "").lstrip("0")) or 1
    with mp.workdps(30):
        gap = abs(mp.mpf(printed) / expected - 1)
        if gap > mp.mpf(10) ** (1 - digits):
            return f"{label} {printed} differs from {mp.nstr(expected, digits + 2)}"
    return None


def closed_forms(r: int, m: int, n: int, alphas: list[Fraction] | None = None) -> dict:
    """The asymptotic quantities of the package's documented formulas, at 30 digits."""
    with mp.workdps(30):
        csc = 1 / mp.sin(mp.pi * r / m)
        out = {
            "main term": csc / (8 * mp.mpf(3) ** 0.25 * mp.mpf(m) ** 0.25 * mp.mpf(n) ** 0.75)
            * mp.exp(2 * mp.pi * mp.sqrt(mp.mpf(n) / (3 * m))),
        }
        radicand = mp.mpf(3 * r * (m - r)) / 2 - mp.mpf(m * m) / 4 + 3 * m * n
        if radicand <= 0:
            return out
        kappa = mp.pi / mp.sqrt(radicand)
        scale = mp.pi ** 2 / (3 * m * kappa)
        u = (scale / mp.pi) ** 2
        out["saddle radius"] = kappa
        out["growth scale"] = scale
        out["refined term"] = (
            csc / (24 * m * u ** 0.75) * mp.exp(2 * scale)
            * (1 - mp.mpf(3) / (16 * scale) - mp.mpf(15) / (2 * (16 * scale) ** 2))
        )
        out["bessel form"] = csc / 4 * kappa * mp.besseli(1, 2 * scale)
        if alphas:
            out["expansion"] = sum(
                mp.mpf(a.numerator) / a.denominator * csc / 2 * kappa ** (s + 1) * mp.besseli(s + 1, 2 * scale)
                for s, a in enumerate(alphas)
            )
        return out
