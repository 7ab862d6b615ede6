"""Tests of the benchmark itself: the traced launcher, the span accounting and the gate.

    python3 -m pytest perfbench -q

Run from the source root; the package is imported from ./src.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import corespeed  # noqa: E402
import launcher  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
ENV.pop("CSTACKS_PRECISION", None)


def cstacks(args: list[str], spans: Path | None = None) -> subprocess.CompletedProcess:
    prefix = [str(ROOT / "perfbench" / "launcher.py"), str(spans)] if spans else ["-m", "congruence_stacks"]
    return subprocess.run([sys.executable, *prefix, *args], env=ENV, cwd=ROOT, capture_output=True)


def span_counts(args: list[str], tmp_path: Path) -> Counter:
    spans = tmp_path / "spans.json"
    assert cstacks(args, spans).returncode == 0
    return Counter(span[0] for span in json.loads(spans.read_text()))


def test_verify_theta_calls_match_hand_count(tmp_path):
    # 4 samples, each theta_sum(w), theta_product(w), theta_sum(-w), theta_sum(w)
    counts = span_counts(["verify", "theta"], tmp_path)
    assert counts["analytic.theta_sum"] == 12
    assert counts["analytic.theta_product"] == 4


def test_asym_full_exact_computes_the_expansion_twice(tmp_path):
    counts = span_counts(["asym", "-n", "1000", "--full", "--exact"], tmp_path)
    assert counts["asymptotics.asymptotic_sum"] == 2
    assert counts["oracle.count_stacks"] == 1


@pytest.mark.parametrize("args", [
    ["count", "-n", "12", "-r", "1", "-m", "4", "--witnesses"],
    ["table", "--values", "10,100,1000", "--format", "csv"],
    ["asym", "-n", "5000", "--full", "-r", "3", "-m", "5", "--format", "json"],
    ["verify", "eta", "bessel", "--seed", "7"],
    ["count", "-n", "10", "-r", "2", "-m", "4"],  # invalid parameters: exit 2
])
def test_traced_output_is_byte_identical(args, tmp_path):
    plain = cstacks(args)
    traced = cstacks(args, tmp_path / "spans.json")
    assert traced.stdout == plain.stdout
    assert traced.stderr == plain.stderr
    assert traced.returncode == plain.returncode


def test_every_public_function_is_wrapped_in_every_namespace():
    tracer = launcher.Tracer()
    wrappers = launcher.install(tracer)
    modules = {name: mod for name, mod in sys.modules.items()
               if name == launcher.PACKAGE or name.startswith(launcher.PACKAGE + ".")}
    layer_modules = {f"{launcher.PACKAGE}.{layer}" for layer in launcher.LAYERS}
    bindings = 0
    for module in modules.values():
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ in layer_modules and not name.startswith("_"):
                bindings += 1
                assert hasattr(obj, "perfbench_span"), f"{module.__name__}.{name} is not wrapped"
            if inspect.isclass(obj) and obj.__module__ in layer_modules and not name.startswith("_"):
                for attr, member in vars(obj).items():
                    func = getattr(member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(func):
                        assert hasattr(func, "perfbench_span"), f"{obj.__name__}.{attr} is not wrapped"
    # names the package re-exports are bound in the package and in their module
    assert bindings > len(wrappers)
    assert importlib.import_module(launcher.PACKAGE).stack_gf is wrappers["qseries.stack_gf"]
    assert importlib.import_module(f"{launcher.PACKAGE}.asymptotics").stack_gf is wrappers["qseries.stack_gf"]


def test_self_times_subtract_children():
    spans = [
        ["launcher", 0.0, 10.0, None, False, None],
        ["cli.main", 1.0, 9.0, 0, False, None],
        ["qseries.stack_gf", 2.0, 5.0, 1, False, None],
        ["oracle.count_stacks", 5.0, 6.0, 1, True, {"n": 7}],
    ]
    own = layers.self_times(spans)
    assert own == [2.0, 4.0, 3.0, 1.0]
    assert sum(own) == 10.0
    summary = layers.pass_summary([spans, spans])
    assert summary["self_s"]["cli.main"] == 8.0
    assert summary["counts"]["oracle.count_stacks.calls"] == 2
    assert summary["counts"]["oracle.count_stacks.n_sum"] == 14
    assert summary["counts"]["oracle.raised"] == 2


def _result(argv: list[str]) -> run.Result:
    proc = cstacks(argv)
    return run.Result(argv, proc.returncode, proc.stdout.decode(), proc.stderr.decode(), 0.0, 0.0)


def test_gate_accepts_the_program_and_rejects_wrong_outputs():
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    table = _result(["table", "-r", "3", "-m", "5", "--values", "127,420", "--format", "json"])
    count = _result(["count", "-n", "127", "-r", "3", "-m", "5"])
    asym = _result(["asym", "-n", "1000", "--full", "--exact"])
    unseen = _result(["asym", "-n", "2000", "--full", "-r", "2", "-m", "7"])
    verify = _result(["verify", "eta", "--seed", "3"])
    assert checks.check_pass([table, count, asym, unseen, verify], reference) == [None] * 5

    wrong_count = run.Result(count.argv, 0, count.stdout.replace(": ", ": 1"), "", 0.0, 0.0)
    wrong_asym = run.Result(asym.argv, 0, asym.stdout.replace("2.71893e+25", "2.71894e+25"), "", 0.0, 0.0)
    expansion = next(line for line in unseen.stdout.splitlines() if "expansion (" in line).split()[-1]
    mantissa, exponent = expansion.split("e")
    wrong_unseen = run.Result(unseen.argv, 0, unseen.stdout.replace(
        expansion, f"{float(mantissa) * 1.001:.5f}e{exponent}"), "", 0.0, 0.0)
    failing = run.Result(verify.argv, 0, verify.stdout.replace("PASS", "FAIL"), "", 0.0, 0.0)
    errors = checks.check_pass([table, wrong_count, wrong_asym, wrong_unseen, failing], reference)
    assert errors[0] is None
    assert all(errors[1:]), errors


def test_core_speed_scales_by_the_chunks_of_the_command():
    speed = corespeed.CoreSpeed()
    speed.samples = [(1.0, 1e-3), (2.0, 2e-3), (3.0, 4e-3), (4.0, 3e-3)]
    assert speed.chunk_s(1.5, 3.0) == 3e-3
    assert speed.scale(1.5, 3.0) == corespeed.REFERENCE_CHUNK_S / 3e-3
    assert speed.chunk_s(2.2, 2.8) == 4e-3  # shorter than a period: the next sample
    assert speed.chunk_s(5.0, 6.0) == 3e-3


def test_core_speed_pins_children_to_the_sampled_core():
    with corespeed.CoreSpeed() as speed:
        out = subprocess.run([sys.executable, "-c", "import os; print(sorted(os.sched_getaffinity(0)))"],
                             capture_output=True, text=True).stdout
        while not speed.samples:
            time.sleep(0.01)
    assert json.loads(out) == [speed.cpu]
    assert speed.samples[0][1] > 0


def test_benchmark_reports_the_metrics_it_declares():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "5",
             "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, proc.stdout
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
