import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import time

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congruence_stacks import analytic, asymptotics, cli
from congruence_stacks.asymptotics import ComparisonRecord, singular_expansion_coeffs
from congruence_stacks.cli import _scientific, build_parser, main
from congruence_stacks.oracle import ENUMERATION_CAP, StackWitness, enumerate_stacks
from congruence_stacks.params import StackParams


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "count", "--r", "1", "--m", "3", "-n", "100")
        assert code == 0
        assert "3167122" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "count", "--r", "1", "--m", "4", "-n", "12", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == "7"
        assert payload["variant"] == "standard"

    def test_witnesses(self, capsys):
        code, out, _ = run(capsys, "count", "--r", "1", "--m", "4", "-n", "12", "--witnesses")
        assert code == 0
        assert out.count("[") == 7

    def test_witnesses_json(self, capsys):
        code, out, _ = run(
            capsys, "count", "--r", "1", "--m", "4", "-n", "12", "--witnesses", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["count"] == "7"
        rebuilt = [StackWitness(tuple(d["left"]), d["peak"], tuple(d["right"])) for d in payload["witnesses"]]
        assert rebuilt == enumerate_stacks(12, StackParams(1, 4))

    def test_witnesses_above_the_cap_exit_2_before_counting(self, capsys, monkeypatch):
        def stack_gf(params, order):
            raise AssertionError("stack_gf ran although the listing is refused")

        monkeypatch.setattr(cli, "stack_gf", stack_gf)
        code, out, err = run(capsys, "count", "-n", "10000", "--witnesses")
        assert code == 2
        assert out == ""
        assert f"n <= {ENUMERATION_CAP}" in err

    def test_size_zero_counts_nothing(self, capsys):
        code, out, _ = run(capsys, "count", "-n", "0")
        assert code == 0
        assert out.endswith(": 0\n")

    def test_size_above_the_series_bound_exit_2_before_counting(self, capsys, monkeypatch):
        def stack_gf(params, order):
            raise AssertionError("stack_gf ran although the size is refused")

        monkeypatch.setattr(cli, "stack_gf", stack_gf)
        code, out, err = run(capsys, "count", "-n", str(cli.MAX_SERIES_ORDER + 1))
        assert code == 2
        assert out == ""
        assert f"MAX_SERIES_ORDER = {cli.MAX_SERIES_ORDER}" in err

    def test_gap_variant_auto(self, capsys):
        code, out, _ = run(capsys, "count", "--r", "3", "--m", "4", "-n", "7", "--format", "json")
        assert code == 0
        assert json.loads(out)["variant"] == "gap"

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run(capsys, "count", "--r", "2", "--m", "4", "-n", "10")
        assert code == 2
        assert "coprime" in err

    def test_variant_conflict_exit_2(self, capsys):
        # the variant follows from r and m, and an exact count has no precision
        for option in (["--variant", "gap"], ["-P", "40"]):
            with pytest.raises(SystemExit) as exc:
                main(["count", "-n", "5", *option])
            assert exc.value.code == 2


class TestTable:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "table", "--values", "10,100")
        assert code == 0
        assert "3167122" in out and "rel error" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--values", "10,100", "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "n,exact,asymptotic_mantissa,asymptotic_exp10,relative_error"
        assert len(lines) == 3
        assert lines[1].startswith("10,10,")
        assert lines[2].startswith("100,3167122,")
        assert out.endswith("\n") and not out.endswith("\n\n")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table", "--values", "10,100", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [row["n"] for row in payload] == [10, 100]
        assert [int(row["exact"]) for row in payload] == [10, 3167122]
        assert list(payload[0]) == ["n", "exact", "asymptotic_mantissa", "asymptotic_exp10", "relative_error"]

    def test_relative_error_below_the_floor_prints_the_floor(self, capsys, monkeypatch):
        def comparison_table(params, ns, dps):
            return [ComparisonRecord(n, 10, main_term(params, n, dps), mp.mpf("-1.4e-29")) for n in ns]

        main_term = cli.main_term
        monkeypatch.setattr(cli, "comparison_table", comparison_table)
        _, out, _ = run(capsys, "table", "--values", "10", "-P", "30")
        assert out.splitlines()[-1].endswith("  < 1e-28")
        _, out, _ = run(capsys, "table", "--values", "10", "-P", "30", "--format", "csv")
        assert out.splitlines()[-1].endswith(",< 1e-28")
        _, out, _ = run(capsys, "table", "--values", "10", "-P", "30", "--format", "json")
        assert json.loads(out)[0]["relative_error"] == "< 1e-28"
        _, out, _ = run(capsys, "table", "--values", "10", "-P", "31")
        assert out.splitlines()[-1].endswith("  -1.4e-29")

    def test_bad_values_exit_2(self, capsys):
        code, _, err = run(capsys, "table", "--values", "10,abc")
        assert code == 2
        assert "comma separated" in err

    def test_size_above_the_series_bound_exit_2_before_any_work(self, capsys, monkeypatch):
        def comparison_table(params, ns, dps):
            raise AssertionError("the table was built although a size is refused")

        monkeypatch.setattr(cli, "comparison_table", comparison_table)
        code, out, err = run(capsys, "table", "--values", f"10,{cli.MAX_SERIES_ORDER + 1}")
        assert code == 2
        assert out == ""
        assert f"MAX_SERIES_ORDER = {cli.MAX_SERIES_ORDER}" in err


class TestAsym:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "asym", "-n", "100")
        assert code == 0
        assert "main term" in out and "3.28595e+6" in out

    def test_full_json(self, capsys):
        code, out, _ = run(capsys, "asym", "-n", "1000", "--full", "--exact", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == "26882773324683672711027761"
        assert payload["expansion_coefficients"] == ["1/2", "-1/8", "-3/32", "-53/384"]
        assert float(payload["expansion_relative_error"]) < 1e-5

    @pytest.mark.parametrize("r,m,n,bound", [(2, 3, 1000, 1e-15), (3, 5, 3000, 1e-16)])
    def test_full_expansion_is_exact_for_gap_pairs(self, capsys, r, m, n, bound):
        # for gap pairs L = 1 + f_{m, 3m-4r}
        code, out, _ = run(
            capsys, "asym", "-r", str(r), "-m", str(m), "-n", str(n),
            "--full", "--exact", "--terms", "16", "--format", "json",
        )
        assert code == 0
        assert abs(float(json.loads(out)["expansion_relative_error"])) < bound

    @pytest.mark.parametrize(
        "argv, two_n",
        [(["-n", "1", "-r", "1", "-m", "3"], 2.18), (["-n", "300", "-r", "1", "-m", "101"], 6.17)],
    )
    def test_full_below_the_refined_bound_prints_the_other_rows(self, capsys, argv, two_n):
        # 2N < REFINED_MIN_2N: the refined term alone is unavailable, the command succeeds
        code, out, err = run(capsys, "asym", *argv, "--full")
        assert code == 0, err
        rows = dict(line.strip().split("  ", 1) for line in out.splitlines()[1:])
        assert rows["refined term"].strip() == "unavailable (needs 2N >= 10)"
        assert abs(2 * float(rows["growth scale"]) - two_n) < 0.01
        for label in ("main term", "bessel form", "expansion (4 terms)"):
            assert float(rows[label]) > 0
        code, out, err = run(capsys, "asym", *argv, "--full", "--format", "json")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["refined_term"] is None
        assert list(payload)[7:9] == ["refined_term", "bessel_form"]
        assert float(payload["bessel_form"]) > 0 and float(payload["expansion"]) > 0

    def test_full_at_the_refined_bound_prints_the_refined_term(self, capsys):
        # (1, 3) has 2N = 10.06 at n = 23 and 9.84 at n = 22
        _, out, _ = run(capsys, "asym", "-n", "23", "--full", "--format", "json")
        assert json.loads(out)["refined_term"] is not None
        _, out, _ = run(capsys, "asym", "-n", "22", "--full", "--format", "json")
        assert json.loads(out)["refined_term"] is None

    def test_terms_bound(self, capsys):
        code, _, err = run(capsys, "asym", "-n", "1000", "--full", "--terms", "17")
        assert code == 2
        assert "between 1 and 16" in err
        code, out, _ = run(capsys, "asym", "-n", "1000", "--full", "--terms", "8")
        assert code == 0
        assert "expansion (8 terms)" in out

    def test_exact_above_the_direct_count_bound_exit_2_before_counting(self, capsys, monkeypatch):
        def count_stacks(n, params):
            raise AssertionError("count_stacks ran although the size is refused")

        monkeypatch.setattr(cli, "count_stacks", count_stacks)
        code, out, err = run(capsys, "asym", "-n", str(cli.MAX_DIRECT_COUNT_SIZE + 1), "--exact")
        assert code == 2
        assert out == ""
        assert f"MAX_DIRECT_COUNT_SIZE = {cli.MAX_DIRECT_COUNT_SIZE}" in err

    @pytest.mark.parametrize("n", [10**30, 10**100])
    def test_full_at_huge_n_matches_300_digits_in_every_printed_digit(self, capsys, n):
        # e^{2N} needs the growth exponent's extra digits; the Hankel route costs O(dps) terms at any n
        r, m, terms = 1, 3, 16
        alphas = singular_expansion_coeffs(StackParams(r, m), max_order=terms - 1)
        with mp.workdps(300):
            A, P = mp.pi ** 2 / (3 * m), 1 / mp.sin(mp.pi * r / m) / 2
            B = n + mp.mpf(r * (m - r)) / (2 * m) - mp.mpf(m) / 12
            kappa, N = mp.sqrt(A / B), mp.sqrt(A * B)
            main_term = 1 / mp.sin(mp.pi * r / m) / (8 * mp.root(3 * m, 4) * mp.power(n, mp.mpf(3) / 4))
            main_term *= mp.exp(2 * mp.pi * mp.sqrt(mp.mpf(n) / (3 * m)))
            bracket = 1 - 3 / (16 * N) - 15 / (2 * (16 * N) ** 2)
            refined = P / 2 * kappa * mp.exp(2 * N) / mp.sqrt(4 * mp.pi * N) * bracket
            parts = [mp.mpf(a.numerator) / a.denominator * P * kappa ** (s + 1) * mp.besseli(s + 1, 2 * N)
                     for s, a in enumerate(alphas)]
            values = {"main term": main_term, "refined term": refined, "bessel form": parts[0], "expansion": sum(parts)}
        argv = ["asym", "-n", str(n), "--full", "--terms", str(terms)]
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv)
        assert code == 0 and time.perf_counter() - start < 0.5
        rows = dict(line.strip().split("  ", 1) for line in out.splitlines()[1:])
        rows["expansion"] = rows.pop(f"expansion ({terms} terms)")
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and time.perf_counter() - start < 0.5
        payload = json.loads(out)
        for label, value in values.items():
            assert rows[label].strip() == cli._scientific(value, 6), label
            assert payload[label.replace(" ", "_")] == cli._scientific(value, 10), label

    def test_relative_error_below_the_floor_prints_the_floor(self, capsys, monkeypatch):
        # (1, 4)'s expansion is its Bessel form, off by 6.5e-38 at n = 5000: at 30 digits that is rounding
        monkeypatch.setattr(cli, "count_stacks", lambda n, params: cli.stack_gf(params, n)[n])
        argv = ["asym", "-r", "1", "-m", "4", "-n", "5000", "--full", "--exact", "--terms", "16"]
        _, out, _ = run(capsys, *argv, "-P", "30")
        assert out.splitlines()[-1] == "  rel error of expansion  < 1e-28"
        _, out, _ = run(capsys, *argv, "-P", "30", "--format", "json")
        payload = json.loads(out)
        assert payload["relative_error_floor"] == "1e-28"
        assert payload["expansion_relative_error"] == "< 1e-28"
        assert payload["main_term_relative_error"] == "0.00241008283145"
        _, out, _ = run(capsys, *argv, "-P", "50")
        assert out.splitlines()[-1] == "  rel error of expansion  6.46201e-38"

    def test_route_choice_at_1200_digits_takes_hankel(self, capsys, monkeypatch):
        # 2N = 6623 at n = 10^7: its smallest Hankel term, about 10^-5752, is 0 as a double
        def series(*args):
            raise AssertionError("the series route ran")

        monkeypatch.setattr(asymptotics, "_bessel_series", series)
        code, out, _ = run(capsys, "asym", "-n", "10000000", "--full", "--terms", "16", "-P", "1200")
        assert code == 0
        assert "  expansion (16 terms)    1.06827e+2870" in out.splitlines()

    def test_full_past_double_range_exits_0(self, capsys):
        # 2N = 2.1e350 is no double: the route choice reads it as infinite and takes Hankel
        code, out, err = run(capsys, "asym", "-n", str(10**700), "--full")
        assert code == 0, err
        assert "  growth scale            1.0471976e+350" in out.splitlines()

    def test_exact_with_no_stacks_exit_2(self, capsys):
        # (2, 3) has no stack of size 1: the peak alone is 2
        code, out, err = run(capsys, "asym", "-n", "1", "-r", "2", "-m", "3", "--exact")
        assert code == 2
        assert out == ""
        assert (
            "no stacks of size 1 exist for (r=2, m=3, gap); the relative error is undefined, drop this size"
            in err
        )

    @pytest.mark.parametrize(
        "argv, bound",
        [
            (["verify", "contour", "-n", "-5"], "-1/12 (about -0.0833333) for (r=1, m=3, standard), got n=-5"),
            (["profile", "-n", "-5"], "-1/12 (about -0.0833333) for (r=1, m=3, standard), got n=-5"),
            (["asym", "-r", "1", "-m", "1000003", "-n", "5000", "--full"],
             "999999999997/12000036 (about 83333.1) for (r=1, m=1000003, standard), got n=5000"),
        ],
        ids=["verify-contour", "profile", "asym-full"],
    )
    def test_arc_below_its_size_bound_exit_2(self, capsys, argv, bound):
        # the q = 1 arc needs B = n + r(m-r)/(2m) - m/12 > 0
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: the saddle point needs n > m/12 - r(m-r)/(2m) = {bound}\n"

    def test_precision_floor_exit_2(self, capsys):
        code, _, err = run(capsys, "asym", "-n", "100", "-P", "10")
        assert code == 2
        assert "precision" in err

    @pytest.mark.parametrize(
        "argv",
        [["-n", str(10**100)], ["-n", str(10**100), "--format", "json"], ["-n", str(10**56), "-P", "30"]],
        ids=["1e100", "1e100-json", "1e56-P30"],
    )
    def test_main_term_keeps_every_printed_digit_at_huge_sizes(self, capsys, argv):
        # the exponent 2 pi sqrt(n/9) is about 2e50 at n = 10^100: formed at the
        # working precision alone, it leaves no correct digit in the mantissa
        code, out, _ = run(capsys, "asym", *argv)
        assert code == 0
        printed = json.loads(out)["main_term"] if "json" in argv else out.splitlines()[1].split()[-1]
        mantissa, exponent = printed.split("e")
        n = int(argv[1])
        with mp.workdps(200):
            reference = 1 / mp.sin(mp.pi / 3) / (8 * mp.root(9, 4) * mp.mpf(n) ** 0.75) * mp.exp(
                2 * mp.pi * mp.sqrt(mp.mpf(n) / 9)
            )
            expected_exponent = int(mp.floor(mp.log10(reference)))
            expected_mantissa = reference / mp.mpf(10) ** expected_exponent
            half_unit = mp.mpf(10) ** (2 - len(mantissa)) / 2
            assert int(exponent) == expected_exponent
            assert abs(mp.mpf(mantissa) - expected_mantissa) <= half_unit, (printed, mp.nstr(expected_mantissa, 12))


def _ten_to_the_30_from_a_15_digit_log():
    with mp.workdps(15):
        return mp.exp(mp.log(mp.mpf(10) ** 30))


@pytest.mark.parametrize(
    "value, text",
    [(mp.mpf("9.999996e5"), "1.0000e+6"), (_ten_to_the_30_from_a_15_digit_log(), "1.0000e+30")],
    ids=["9.999996e5", "1e30-from-15-digits"],
)
def test_scientific_carries_a_rounded_ten_into_the_exponent(value, text):
    assert value < 10 ** int(text.split("e")[1])
    assert cli._scientific(value, 5) == text


# _scientific, the one formatter of magnitudes: mpf values far beyond double
# range print as a mantissa and a decimal exponent
def split(x, digits: int) -> tuple[str, int]:
    """The formatter's mantissa digits and exponent of x."""
    mantissa, exponent = _scientific(x, digits).split("e")
    return mantissa, int(exponent)


class TestConstruction:
    def test_from_int(self):
        assert _scientific(mp.mpf(3167122), 5) == "3.1671e+6"

    def test_from_number(self):
        assert _scientific(mp.mpf("0.00125"), 3) == "1.25e-3"

    def test_from_mantissa_exp(self):
        with mp.workdps(50):
            x = mp.mpf("2.6926") * mp.mpf(10) ** 25
        assert split(x, 40) == ("2.6926" + "0" * 35, 25)


class TestDecompose:
    def test_power_of_ten_boundary(self):
        assert split(mp.mpf(1000), 30) == ("1." + "0" * 29, 3)

    def test_just_below_power_of_ten(self):
        assert split(mp.mpf(999999), 30) == ("9.99999" + "0" * 24, 5)

    def test_tiny_value(self):
        with mp.workdps(50):
            x = mp.exp(-5000)
        mantissa, exponent = split(x, 10)
        assert exponent == int(mp.floor(-5000 / mp.log(10)))
        assert 1 <= mp.mpf(mantissa) < 10


class TestArithmetic:
    def test_huge_value_stays_in_log_space(self):
        # e^(10^6) has about 434294 decimal digits; the mpf holds it as a
        # binary exponent, and only the decimal split is computed
        mantissa, exponent = split(mp.exp(mp.mpf(10) ** 6), 10)
        assert exponent == 434294
        assert 1 <= mp.mpf(mantissa) < 10


class TestFormatting:
    def test_negative_exponent(self):
        assert _scientific(mp.mpf("4.2e-7"), 3) == "4.20e-7"

    def test_rounding_in_display(self):
        assert _scientific(mp.mpf("3.28595122"), 5) == "3.2860e+0"

    def test_str(self):
        assert _scientific(mp.mpf(12345), 5) == "1.2345e+4"


@given(st.integers(1, 10 ** 30))
@settings(max_examples=80)
def test_exponent_matches_digit_count(n):
    with mp.workdps(50):
        x = mp.mpf(n)
    mantissa, exponent = split(x, 40)
    assert exponent == len(str(n)) - 1
    assert mantissa.replace(".", "").rstrip("0") == str(n).rstrip("0")


@given(st.integers(1, 9 * 10 ** 6), st.integers(-30, 30))
@settings(max_examples=60)
def test_scaling_shifts_exponent(n, k):
    with mp.workdps(60):
        x = mp.mpf(n)
        shifted = x * mp.mpf(10) ** k
    mantissa, exponent = split(x, 30)
    assert split(shifted, 30) == (mantissa, exponent + k)


# the check names `verify all` prints at the defaults, in run order, and the
# slice of them each target prints alone
VERIFY_ALL_NAMES = [
    "decomposition (r=1, m=3, standard) to order 400",
    "theta sum vs triple product (4 samples)",
    "theta oddness in the elliptic variable",
    "theta modular transform (4 samples)",
    "eta inversion (4 samples)",
    "eta at the fixed point of the inversion",
    "false theta vs integer series (3 points)",
    "cubic remainder bound for indices (3, -7) over 9 points",
    "modified bessel series vs reference (orders 0..3)",
    "asymptotic bessel route at x = 30",
    "restricted contour vs bessel closed form at n = 200, rho = 0.9",
    "integrand maximum lies on the major arc",
    "generating function vs direct enumeration to n = 40 (5 parameter pairs)",
]
VERIFY_SLICES = {
    "decomposition": slice(0, 1),
    "theta": slice(1, 3),
    "transform": slice(3, 4),
    "eta": slice(4, 6),
    "falsetheta": slice(6, 8),
    "bessel": slice(8, 10),
    "contour": slice(10, 12),
    "oracle": slice(12, 13),
}
CHECK_LINE = re.compile(r"^(?:PASS|FAIL)  (.*?)(?:: measured .*|  \(.*\))?$")


def check_names(out: str) -> list[str]:
    """The name of each PASS/FAIL line: the text before ": measured" or the two-space detail."""
    return [m.group(1) for m in map(CHECK_LINE.match, out.splitlines()) if m]


class TestVerify:
    def test_targets_are_the_check_table_in_run_order(self):
        assert tuple(analytic.VERIFY_CHECKS) == cli.VERIFY_TARGETS
        assert list(VERIFY_SLICES) == list(cli.VERIFY_TARGETS)
        assert [name for part in VERIFY_SLICES.values() for name in VERIFY_ALL_NAMES[part]] == VERIFY_ALL_NAMES

    def test_all_prints_every_check_name_in_order(self, capsys):
        code, out, _ = run(capsys, "verify", "all")
        assert code == 0
        assert check_names(out) == VERIFY_ALL_NAMES
        assert out.splitlines()[-1] == "all checks passed"

    @pytest.mark.parametrize("target", list(VERIFY_SLICES))
    def test_each_target_prints_its_slice_of_the_names(self, capsys, target):
        code, out, _ = run(capsys, "verify", target)
        assert code == 0
        assert check_names(out) == VERIFY_ALL_NAMES[VERIFY_SLICES[target]]

    def test_targets_run_in_table_order_whatever_the_command_line_order(self, capsys):
        _, forward, _ = run(capsys, "verify", "theta", "oracle")
        _, backward, _ = run(capsys, "verify", "oracle", "theta")
        assert check_names(backward) == check_names(forward) == [*VERIFY_ALL_NAMES[1:3], VERIFY_ALL_NAMES[12]]
        assert backward == forward

    def test_help_lists_the_targets_sorted(self):
        targets = next(a for a in _subcommands()["verify"]._actions if a.dest == "targets")
        assert targets.help == (
            "suites to run: bessel, contour, decomposition, eta, falsetheta, oracle, theta, transform, "
            "or all (default all)"
        )

    def test_oracle_target(self, capsys):
        code, out, _ = run(capsys, "verify", "oracle")
        assert code == 0
        assert out.count("PASS") == 1 and "FAIL" not in out

    def test_decomposition_standard(self, capsys):
        code, out, _ = run(capsys, "verify", "decomposition")
        assert code == 0
        assert "agree exactly" in out

    def test_decomposition_gap_agrees_exactly(self, capsys):
        # This test once expected exit 1 with mismatched coefficients.  The
        # program was at fault: L and R used the standard exponents for the
        # gap pair (3, 4).  With t = 2r mod m, S = F*L + R holds exactly for
        # every coprime pair with m <= 12 through q^2000.
        code, out, _ = run(capsys, "verify", "decomposition", "--r", "3", "--m", "4")
        assert code == 0
        assert "PASS" in out and "agree exactly" in out

    @pytest.mark.parametrize("r,m", [(2, 3), (3, 4), (3, 5)])
    def test_every_check_passes_for_gap_pairs(self, capsys, r, m):
        code, out, _ = run(capsys, "verify", "all", "-r", str(r), "-m", str(m))
        assert code == 0, out
        assert "FAIL" not in out

    def test_bessel_target(self, capsys):
        code, out, _ = run(capsys, "verify", "bessel")
        assert code == 0
        assert out.count("PASS") == 2

    def test_unknown_target_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "nonsense")
        assert code == 2
        assert "unknown verify target" in err

    @pytest.mark.parametrize(
        "argv, bound",
        [
            # the grid-720 profile's bound is the contour's one size bound: n <= 4 937 777, whatever -P and m
            (["contour", "-n", "10000000"], "MAX_PROFILE_WORK"),
            (["-n", "10000000"], "MAX_PROFILE_WORK"),
            (["contour", "-n", "4937778", "-r", "1", "-m", "4"], "MAX_PROFILE_WORK"),
            (["contour", "-n", "4937778"], "MAX_PROFILE_WORK"),
            (["contour", "-n", "4937778", "-P", "1200"], "MAX_PROFILE_WORK"),
        ],
    )
    def test_size_above_the_contour_bounds_exit_2_before_any_work(self, capsys, monkeypatch, argv, bound):
        def refuse(*args, **kwargs):
            raise AssertionError("a check ran although the size is refused")

        # decomposition is the first check of `verify all`, theta the first kernel
        monkeypatch.setattr(analytic, "verify_decomposition", refuse)
        for name in ("theta_sum", "major_arc_integral", "contour_tail", "circle_profile"):
            monkeypatch.setattr(analytic, name, refuse)
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert f"{bound} = {getattr(cli, bound)}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["-n", "4937777"],
            ["-n", "4937777", "-P", "1200"],
            ["-n", "4937777", "-r", "1", "-m", "4"],
        ],
    )
    def test_largest_accepted_contour_sizes_pass_the_bounds(self, argv, monkeypatch):
        # stop at the first piece of contour work: only the bound checks run
        def started(*args, **kwargs):
            raise RuntimeError("work started")

        monkeypatch.setattr(analytic, "major_arc_integral", started)
        with pytest.raises(RuntimeError, match="work started"):
            main(["verify", "contour", *argv])

    @pytest.mark.parametrize("rho", ["0.1", "0.3"])
    def test_contour_passes_below_the_ray_start(self, capsys, rho):
        # below rho = 1/2 the tail adds the vertical piece rho <= t <= 1/2 to its ray
        code, out, _ = run(capsys, "verify", "contour", "--rho", rho)
        assert code == 0
        assert out.count("PASS") == 2 and "FAIL" not in out
        assert f"rho = {rho}" in out

    @pytest.mark.parametrize("argv", [["-r", "41", "-m", "194", "-n", "0"], ["-r", "70", "-m", "363", "-n", "2"]])
    def test_contour_passes_at_small_growth_scale(self, capsys, argv):
        # N = 0.0038 and 0.0025, where the arc is 76 and 115 times the line:
        # its stop, relative to the arc, leaves an error near the square of the last step
        code, out, _ = run(capsys, "verify", "contour", *argv)
        assert code == 0
        assert out.startswith("PASS  restricted contour") and "FAIL" not in out

    @pytest.mark.parametrize("rho", ["0.9", "0.1"])
    @pytest.mark.parametrize("argv", [["-r", "41", "-m", "194", "-n", "0"], ["-r", "70", "-m", "363", "-n", "2"]])
    def test_peak_check_does_not_apply_below_n_pi_over_3m(self, capsys, argv, rho):
        # kappa = 4.44 and 3.63 exceed pi: the peak's place says nothing, at any rho
        code, out, _ = run(capsys, "verify", "contour", *argv, "--rho", rho)
        assert code == 0
        line = out.splitlines()[1]
        assert line.startswith("SKIP  integrand maximum lies on the major arc  (does not apply: kappa = ")
        assert line.endswith(" >= pi, the peak spans the circle)")

    def test_size_is_not_bounded_without_the_contour_target(self, capsys):
        code, out, _ = run(capsys, "verify", "theta", "-n", "10000000")
        assert code == 0
        assert out.count("PASS") == 2 and "FAIL" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["all", "--seed", "21"],
            ["theta", "transform", "eta", "falsetheta", "bessel", "-r", "2", "-m", "5", "-P", "100", "--seed", "21"],
        ],
    )
    def test_benchmark_commands_call_neither_gamma_nor_power(self, capsys, monkeypatch, argv):
        # the perfbench `verify` workload: Gamma(1/4) comes from the AGM, which costs
        # under 5 ms at 1215 digits, where mp.gamma first builds a coefficient table
        # for 6-7 s; the false theta series takes integer powers of q
        def refuse(*args, **kwargs):
            raise AssertionError("a verify reference took the general mpmath route")

        monkeypatch.setattr(mp, "gamma", refuse)
        monkeypatch.setattr(mp, "power", refuse)
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert "FAIL" not in out

    def test_bessel_makes_eight_reference_calls(self, capsys, monkeypatch):
        # mp.besseli at orders 0 and 1 for each of the 4 arguments; orders 2 and 3
        # come from the recurrence
        real_besseli = mp.besseli
        orders = []

        def counting(nu, x, **kwargs):
            orders.append(nu)
            return real_besseli(nu, x, **kwargs)

        monkeypatch.setattr(mp, "besseli", counting)
        code, out, _ = run(capsys, "verify", "bessel")
        assert code == 0
        assert "FAIL" not in out
        assert sorted(orders) == [0] * 4 + [1] * 4

    def test_eta_at_the_largest_precision(self, capsys):
        # about 0.2 s: Gamma(1/4) comes from the AGM, not from mp.gamma's table
        code, out, _ = run(capsys, "verify", "eta", "-P", str(cli.MAX_DPS))
        assert code == 0
        assert check_names(out) == VERIFY_ALL_NAMES[VERIFY_SLICES["eta"]]
        assert [line.split()[0] for line in out.splitlines() if CHECK_LINE.match(line)] == ["PASS", "PASS"]

    def test_seed_changes_samples_not_outcome(self, capsys):
        code1, out1, _ = run(capsys, "verify", "theta", "--seed", "1")
        code2, out2, _ = run(capsys, "verify", "theta", "--seed", "2")
        assert code1 == code2 == 0
        assert out1 != out2  # measured residuals move with the sample points


class TestProfile:
    def test_small_profile(self, capsys):
        code, out, _ = run(capsys, "profile", "-n", "50", "--grid", "72")
        assert code == 0
        assert out.splitlines() == [
            "family (r=1, m=3, standard), n = 50, kappa = 0.147973",
            "maximum at nu = +0.0000 (major arc |nu| <= 0.0740: inside)",
            "principal log magnitude 13.536",
            # Was "peak near 2 pi 1/3: nu = +2.4435, log magnitude 7.852 (5.685 below)" and
            # its mirror image.  The window around 2 pi/3 spans grid points 56..64; its
            # maximum sits on the edge, j = 64 (nu = 2.4435, 7.8515), j = 65 beyond it is
            # higher (7.9209) and nu = 2 pi/3 itself is a dip (5.3513): no peak there.
            "  no peak within 0.35 of 2 pi 1/3",
            "  no peak within 0.35 of 2 pi 2/3",
        ]

    @pytest.mark.parametrize(
        "argv, edges",
        [
            (["-n", "1"], ("+2.4435", "-2.4435")),
            (["-n", "2", "-r", "2", "-m", "5"], ("+2.8623", "-2.8623")),
        ],
    )
    def test_window_edges_are_not_peaks(self, capsys, argv, edges):
        # the windows' edges, 2 pi l/m +- 0.35, that used to be printed as peaks
        code, out, _ = run(capsys, "profile", *argv)
        assert code == 0
        for nu in edges:
            assert f"nu = {nu}" not in out
        assert "no peak within 0.35 of 2 pi 1/" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "profile", "-n", "50", "--grid", "72", "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "nu,log_magnitude"
        # grid + 1 samples from nu = -pi to pi
        assert len(lines) == 74
        assert lines[1].startswith("-3.1415926536,") and lines[-1].startswith("3.1415926536,")
        assert lines[37].startswith("0.0000000000,")
        assert out.endswith("\n") and not out.endswith("\n\n")

    @pytest.mark.parametrize("m, empty", [(11, 2), (13, 4)])
    def test_coarse_grid_leaves_empty_windows_without_a_peak(self, capsys, m, empty):
        # grid 8 samples nu = k pi/4, and none lies within 0.35 of 2 pi empty/m
        code, out, err = run(capsys, "profile", "-r", "1", "-m", str(m), "--grid", "8")
        assert code == 0, err
        lines = out.splitlines()[3:]
        assert len(lines) == m - 1
        for ell, line in enumerate(lines, 1):
            assert line.startswith((f"  peak near 2 pi {ell}/{m}:", f"  no peak within 0.35 of 2 pi {ell}/{m}"))
        assert f"  no peak within 0.35 of 2 pi {empty}/{m}" in lines

    # the default run, tied peaks at 2 pi 2/12 and 2 pi 3/12, and n = 10^6; the CSV lists
    # every sample to six decimals, as the sum over every factor of F gives them too
    @pytest.mark.parametrize(
        "argv, text, csv_sha256",
        [
            (
                [],
                [
                    "family (r=1, m=3, standard), n = 500, kappa = 0.046828",
                    "maximum at nu = +0.0000 (major arc |nu| <= 0.0234: inside)",
                    "principal log magnitude 45.581",
                    "  peak near 2 pi 1/3: nu = +2.3562, log magnitude 24.286 (21.295 below)",
                    "  peak near 2 pi 2/3: nu = -2.3562, log magnitude 24.286 (21.295 below)",
                ],
                "68493c3196cecfe845955baae3c60cb8025a097614e9e11e3849cbd2c0952f9d",
            ),
            (
                ["-n", "1", "-r", "5", "-m", "12"],
                [
                    "family (r=5, m=12, standard), n = 1, kappa = 0.433581",
                    "maximum at nu = -1.2828 (major arc |nu| <= 0.2168: OUTSIDE)",
                    "principal log magnitude 0.827",
                    "  no peak within 0.35 of 2 pi 1/12",
                    "  peak near 2 pi 2/12: nu = +1.2828, log magnitude 0.827 (0.000 below)",
                    "  peak near 2 pi 3/12: nu = +1.2828, log magnitude 0.827 (0.000 below)",
                    "  no peak within 0.35 of 2 pi 4/12",
                    "  peak near 2 pi 5/12: nu = +2.3387, log magnitude 0.562 (0.264 below)",
                    "  no peak within 0.35 of 2 pi 6/12",
                    "  peak near 2 pi 7/12: nu = -2.3387, log magnitude 0.562 (0.264 below)",
                    "  no peak within 0.35 of 2 pi 8/12",
                    "  peak near 2 pi 9/12: nu = -1.2828, log magnitude 0.827 (0.000 below)",
                    "  peak near 2 pi 10/12: nu = -1.2828, log magnitude 0.827 (0.000 below)",
                    "  no peak within 0.35 of 2 pi 11/12",
                ],
                "9a502835d15f2ef034ed2a5b828028c0d6b6d212367707ef34003356faf75f25",
            ),
            (
                ["-n", "1000000", "--grid", "72"],
                [
                    "family (r=1, m=3, standard), n = 1000000, kappa = 0.001047",
                    "maximum at nu = +0.0000 (major arc |nu| <= 0.0005: inside)",
                    "principal log magnitude 2093.152",
                    "  peak near 2 pi 1/3: nu = +2.3562, log magnitude 1063.636 (1029.517 below)",
                    "  peak near 2 pi 2/3: nu = -2.3562, log magnitude 1063.636 (1029.517 below)",
                ],
                "2ea84f83bb16202c2042e61a56a9bb0d95c663029ab36e7e7a1616c8fa073c43",
            ),
        ],
    )
    def test_output_bytes_are_pinned(self, capsys, argv, text, csv_sha256):
        code, out, _ = run(capsys, "profile", *argv)
        assert (code, out.splitlines()) == (0, text)
        assert out.endswith("\n") and not out.endswith("\n\n")
        code, out, _ = run(capsys, "profile", *argv, "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == csv_sha256

    def test_odd_grid_exit_2(self, capsys):
        code, _, err = run(capsys, "profile", "-n", "50", "--grid", "73")
        assert code == 2
        assert "grid must be even" in err

    def test_grid_above_the_profile_bound_exit_2_before_any_work(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the profile was built although the grid is refused")

        monkeypatch.setattr(analytic, "circle_profile", refuse)
        monkeypatch.setattr(cli.ArcContext, "build", refuse)
        # the default n is 500: the first even grid above 44 278
        grid = 2 * int(cli.MAX_PROFILE_WORK / (cli.PROFILE_FIXED_WORK + math.sqrt(500)) / 2) + 2
        code, out, err = run(capsys, "profile", "--grid", str(grid))
        assert code == 2
        assert out == ""
        assert f"MAX_PROFILE_WORK = {cli.MAX_PROFILE_WORK}" in err

    def test_grid_above_the_profile_bound_at_n_0_exit_2_before_any_work(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the profile was built although the grid is refused")

        monkeypatch.setattr(analytic, "circle_profile", refuse)
        monkeypatch.setattr(cli.ArcContext, "build", refuse)
        # each angle's fixed cost bounds the grid at n = 0: the first even grid above 115 000
        grid = 2 * int(cli.MAX_PROFILE_WORK / cli.PROFILE_FIXED_WORK / 2) + 2
        code, out, err = run(capsys, "profile", "-n", "0", "--grid", str(grid))
        assert code == 2
        assert out == ""
        assert f"MAX_PROFILE_WORK = {cli.MAX_PROFILE_WORK}" in err

    def test_size_above_the_profile_bound_exit_2_before_any_work(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the profile was built although the size is refused")

        monkeypatch.setattr(analytic, "circle_profile", refuse)
        monkeypatch.setattr(cli.ArcContext, "build", refuse)
        # the default grid is 720: n = 4 937 778
        n = int((cli.MAX_PROFILE_WORK / 720 - cli.PROFILE_FIXED_WORK) ** 2) + 1
        code, out, err = run(capsys, "profile", "-n", str(n))
        assert code == 2
        assert out == ""
        assert f"MAX_PROFILE_WORK = {cli.MAX_PROFILE_WORK}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["-n", "1000000"],
            ["-n", "1000000", "--grid", "8"],
            ["-n", "0", "--grid", "115000"],
            ["--grid", "44278"],
            ["-n", "4937777"],
        ],
    )
    def test_largest_documented_sizes_stay_within_the_bound(self, argv, monkeypatch):
        # stop at the first piece of work: only the bound check runs
        def started(*args, **kwargs):
            raise RuntimeError("work started")

        monkeypatch.setattr(cli.ArcContext, "build", started)
        with pytest.raises(RuntimeError, match="work started"):
            main(["profile", *argv])

    def test_takes_no_precision(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "-P", "40"])
        assert exc.value.code == 2


class TestDecay:
    def test_default_moduli(self, capsys):
        code, out, _ = run(capsys, "decay")
        assert code == 0
        assert out.splitlines() == [
            "            family      fitted    expected    ratio  points",
            "        (r=1, m=3)    -13.1595    -13.1595   1.0000       6",
            "        (r=1, m=4)    -19.7392    -19.7392   1.0000       6",
            "        (r=1, m=5)     -7.8957     -7.8957   1.0000       6",
            "        (r=1, m=6)     -6.5797     -6.5797   1.0000       6",
            "        (r=1, m=7)     -5.6398     -5.6398   1.0000       6",
        ]

    def test_no_valid_family_exit_2_before_any_fit(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a fit ran although no modulus forms a valid family")

        monkeypatch.setattr(analytic, "product_decay_fit", refuse)
        code, out, err = run(capsys, "decay", "-r", "2", "--moduli", "4,6")
        assert code == 2
        assert out == ""
        assert "--moduli lists no modulus that forms a valid family with -r 2" in err
        assert "r and m must be coprime" in err

    def test_invalid_modulus_skipped(self, capsys):
        code, out, _ = run(capsys, "decay", "-r", "2", "--moduli", "3,4")
        assert code == 0
        assert "(r=2, m=4)  skipped: r and m must be coprime" in out

    def test_bad_list_exit_2(self, capsys):
        code, _, err = run(capsys, "decay", "--moduli", "3,x")
        assert code == 2
        assert "comma separated" in err

    @pytest.mark.parametrize("moduli", [",", ""])
    def test_empty_moduli_exit_2(self, capsys, moduli):
        code, out, err = run(capsys, "decay", "--moduli", moduli)
        assert code == 2
        assert out == ""
        assert "--moduli lists no modulus" in err

    def test_modulus_past_double_range_exit_2_before_any_fit(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a fit ran although a modulus is refused")

        monkeypatch.setattr(analytic, "product_decay_fit", refuse)
        code, out, err = run(capsys, "decay", "--moduli", f"3,{10**400 + 1}")
        assert code == 2
        assert out == ""
        assert "is past double range, where the fit holds its rate" in err

    def test_fits_at_most_154_digits(self):
        # the precision falls with m, so m = 3 sets the largest
        assert analytic.decay_precision(StackParams(1, 3), analytic.DECAY_Z_VALUES) == 154
        assert analytic.decay_precision(StackParams(1, 4), analytic.DECAY_Z_VALUES) < 154


@pytest.mark.parametrize(
    "argv, module, first_work",
    [
        (["table", "--values", "10"], cli, "comparison_table"),
        (["asym", "-n", "100"], cli, "main_term"),
        (["verify", "decomposition"], analytic, "verify_decomposition"),
    ],
    ids=["table", "asym", "verify"],
)
def test_precision_above_the_bound_exit_2_before_any_work(capsys, monkeypatch, argv, module, first_work):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{first_work} ran although the precision is refused")

    monkeypatch.setattr(cli, "MAX_DPS", 40)
    monkeypatch.setattr(module, first_work, refuse)
    code, out, err = run(capsys, *argv, "-P", "41")
    assert code == 2
    assert out == ""
    assert "MAX_DPS = 40" in err


def test_largest_precision_stays_within_the_bound(monkeypatch):
    # stop at the first piece of work: only the bound check runs
    def started(*args, **kwargs):
        raise RuntimeError("work started")

    monkeypatch.setattr(cli, "comparison_table", started)
    with pytest.raises(RuntimeError, match="work started"):
        main(["table", "--values", "10", "-P", str(cli.MAX_DPS)])


SADDLE_BOUND = "the saddle point needs n > m/12 - r(m-r)/(2m)"


@pytest.mark.parametrize(
    "line, code, message",
    [
        ("count -n {n}", 2, "MAX_SERIES_ORDER"),
        ("count -m {m} -n 5", 0, ""),
        ("table --values {n}", 2, "MAX_SERIES_ORDER"),
        ("table -m {m} --values 10", 0, ""),
        ("asym -n {n}", 0, ""),
        ("asym -m {m} -n {n}", 0, ""),
        ("asym --full -n {n}", 0, ""),
        ("asym --full -m {m} -n {n}", 0, ""),
        ("asym --full -m {m} -n 5", 2, SADDLE_BOUND),
        ("verify all -n {n}", 2, "MAX_PROFILE_WORK"),
        ("verify all -m {m}", 2, SADDLE_BOUND),
        ("verify contour -n {n}", 2, "MAX_PROFILE_WORK"),
        ("verify contour -m {m} -n 5", 2, SADDLE_BOUND),
        ("profile -n {n}", 2, "MAX_PROFILE_WORK"),
        ("profile -m {m} -n 5", 2, SADDLE_BOUND),
        ("decay --moduli {m}", 2, "is past double range, where the fit holds its rate"),
        ("decay -r {n} --moduli 3", 2, "residue must satisfy 0 < r < m"),
        ("decay -r {n} --moduli {m}", 2, "is past double range, where the fit holds its rate"),
    ],
)
def test_integer_extremes_exit_0_or_2_in_seconds(capsys, line, code, message):
    # n = 10^400 and m = 10^400 + 1 are past double range
    argv = line.format(n=10**400, m=10**400 + 1).split()
    start = time.perf_counter()
    got, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 10
    assert got == code, err
    assert (out == "") == (code == 2)
    assert message in err


@pytest.mark.parametrize("m, code", [(10**20 + 1, 0), (10**30 + 1, 0), (10**400 + 1, 2)])
def test_falsetheta_at_a_large_index(capsys, m, code):
    # false theta takes as many more digits as its largest index has; without them
    # 10^20 + 1 and 10^30 + 1 measured 2.2e-47 and 3.7e-37 against 1e-50
    got, out, err = run(capsys, "verify", "falsetheta", "-r", "1", "-m", str(m))
    assert got == code, err
    if code == 0:
        assert out.count("PASS") == 2 and "FAIL" not in out
    else:
        assert out == ""
        assert "a truncation cutoff is outside double range" in err


@st.composite
def coprime_pairs(draw, largest=10**30):
    m = draw(st.integers(3, largest))
    return draw(st.integers(1, m - 1).filter(lambda r: math.gcd(r, m) == 1)), m


# a shift t = 2r of about 1.8e19, where false theta's terms first grow to about |q|^-t
@example((8999366892653588109, 32996121944328664729), 1674216077, 30)
@given(coprime_pairs(), st.integers(0, 2**32 - 1), st.integers(30, 100))
@settings(max_examples=40, deadline=None)
def test_verify_passes_or_names_a_bound_over_the_domain(pair, seed, precision):
    r, m = pair
    argv = ["verify", *(t for t in cli.VERIFY_TARGETS if t != "contour"),
            "-r", str(r), "-m", str(m), "--seed", str(seed), "-P", str(precision)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = out.getvalue().splitlines()
    if code == 2:
        assert lines == [] and re.search(r"bound|double range", err.getvalue()), err.getvalue()
    else:
        assert code == 0 and all(line.startswith("PASS") for line in lines[:-1]), out.getvalue()
        assert lines[-1] == "all checks passed"


@given(coprime_pairs(600), st.integers(0, 1000), st.floats(0.1, 0.99))
@settings(max_examples=30, deadline=None)
def test_contour_quadrature_passes_over_the_domain(pair, n, rho):
    r, m = pair
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "contour", "-r", str(r), "-m", str(m), "-n", str(n), "--rho", str(rho)])
    lines = out.getvalue().splitlines()
    if code == 2:
        assert lines == [] and SADDLE_BOUND in err.getvalue(), err.getvalue()
    else:
        # the peak line may PASS, FAIL or SKIP: only the quadrature is checked here
        assert lines[0].startswith("PASS  restricted contour vs bessel closed form"), out.getvalue()
        assert code == (1 if lines[1].startswith("FAIL") else 0), out.getvalue()


# one cheap command line per subcommand, for every --format it accepts
CHEAP_ARGV = {
    "count": ["-r", "1", "-m", "4", "-n", "12", "--witnesses"],
    "table": ["--values", "10,20", "-P", "30"],
    "asym": ["-n", "100", "--full", "--exact", "-P", "30"],
    "verify": ["decomposition", "oracle", "-P", "30"],
    "profile": ["-n", "50", "--grid", "72"],
    "decay": ["--moduli", "3"],
}


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices


def _format_runs():
    for command, sub in _subcommands().items():
        formats = next((a.choices for a in sub._actions if a.dest == "format"), [None])
        for fmt in formats:
            argv = [command, *CHEAP_ARGV[command], *(["--format", fmt] if fmt else [])]
            yield pytest.param(argv, id=f"{command}-{fmt or 'text'}")


@pytest.mark.parametrize("argv", list(_format_runs()))
def test_every_format_of_every_subcommand_exits_0(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.endswith("\n")


@pytest.mark.parametrize("command", list(CHEAP_ARGV))
def test_output_option_is_unrecognized_and_writes_no_file(capsys, monkeypatch, tmp_path, command):
    # the result goes to stdout alone; the parser refuses --output before the command runs
    def refuse(args):
        raise AssertionError(f"{args.command} ran although its arguments are refused")

    monkeypatch.setattr(cli, f"cmd_{command}", refuse)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, *CHEAP_ARGV[command], "--output", "x"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --output x" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, option",
    [
        (["verify", "decomposition", "--order", "400"], "--order 400"),
        (["decay", "--z-values", "0.3,0.2"], "--z-values 0.3,0.2"),
        # with no target named, 400 is read as one
        (["verify", "--order", "400"], "--order\n"),
        (["verify", "theta", "--order=0"], "--order=0"),
        # argparse takes a unique prefix for an option: neither prefix may reach another one
        (["verify", "theta", "--ord", "10000"], "--ord 10000"),
        (["decay", "--moduli", "3", "--z", "0.3,0.01"], "--z 0.3,0.01"),
    ],
    ids=["verify-order", "decay-z-values", "verify-all-order", "verify-order-equals",
         "verify-order-prefix", "decay-z-values-prefix"],
)
def test_removed_inputs_are_unrecognized(capsys, monkeypatch, argv, option):
    # verify checks the decomposition to order 400 and decay fits analytic.DECAY_Z_VALUES, always
    def refuse(args):
        raise AssertionError(f"{args.command} ran although its arguments are refused")

    monkeypatch.setattr(cli, f"cmd_{argv[0]}", refuse)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {option}" in err


@pytest.mark.parametrize(
    "argv",
    [["table", "--values", "10,20"], ["asym", "-n", "100"], ["verify", "decomposition", "oracle"]],
    ids=["table", "asym", "verify"],
)
def test_precision_comes_from_the_command_line_alone(capsys, monkeypatch, argv):
    # CSTACKS_PRECISION = 12 is below MIN_PRECISION: read, it would refuse the run
    monkeypatch.delenv("CSTACKS_PRECISION", raising=False)
    unset = run(capsys, *argv)
    monkeypatch.setenv("CSTACKS_PRECISION", "12")
    assert run(capsys, *argv) == unset
    assert unset[0] == 0


def test_precision_cases_cover_every_subcommand_with_a_precision():
    with_precision = {c for c, sub in _subcommands().items() if any(a.dest == "precision" for a in sub._actions)}
    assert with_precision == {"table", "asym", "verify"}


class ReadRecorder:
    """Stands in for a parsed Namespace and records which attributes are read."""

    def __init__(self, namespace: argparse.Namespace) -> None:
        self.namespace = namespace
        self.read: set[str] = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.namespace, name)


def test_every_option_is_read():
    # one cheap command line per subcommand that sets every option it has
    argvs = {
        "count": ["-r", "1", "-m", "4", "-n", "12", "--witnesses", "--format", "json"],
        "table": ["-r", "1", "-m", "3", "--values", "10,20", "--format", "csv", "-P", "30"],
        "asym": ["-r", "1", "-m", "3", "-n", "100", "--full", "--terms", "2", "--exact", "--format", "json", "-P", "30"],
        "verify": ["decomposition", "contour", "-r", "1", "-m", "3", "-n", "200", "--rho", "0.9", "--seed", "1",
                   "-P", "30"],
        "profile": ["-r", "1", "-m", "3", "-n", "50", "--rho", "0.5", "--grid", "72", "--format", "text"],
        "decay": ["-r", "1", "--moduli", "3"],
    }
    parser = build_parser()
    subcommands = _subcommands()
    assert set(argvs) == set(subcommands) == set(CHEAP_ARGV)
    for command, sub in subcommands.items():
        argv = [command, *argvs[command]]
        options = [a for a in sub._actions if a.dest != "help"]
        for action in options:
            assert not action.option_strings or set(action.option_strings) & set(argv), (command, action.dest)
        args = ReadRecorder(parser.parse_args(argv))
        assert args.func(args) in (0, 1)
        unread = {a.dest for a in options} - args.read
        assert not unread, f"{command} never reads {sorted(unread)}"


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "cstacks" in capsys.readouterr().out


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
