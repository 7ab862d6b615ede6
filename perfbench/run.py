"""Benchmark of the `cstacks` command line, end to end and per layer.

    python3 perfbench/run.py --workload exact|verify --seed N --seconds S --trace 0|1

Run it from the root of a source tree: the package is imported from ./src,
and the run fails (exit 2, no result) when ./src holds no package.  Every
command runs as `python3 -m congruence_stacks ARG...` in its own interpreter,
one at a time (a closed loop with one client), and repeats in passes over the
workload until --seconds have been spent, with at least two passes.  Every
output is checked (see checks.py).

--trace 0 reports the end-to-end metrics: set-up time (fresh interpreter plus
`import congruence_stacks`, the median of several), the median wall time of a
pass, and the median over passes of the largest max-RSS of a command.  Both
times are scaled to a reference core speed sampled on the core each command
ran on (see corespeed.py); the plain wall time is printed beside them.

--trace 1 alternates untraced passes with passes through launcher.py, which
times every public function of the package, and reports the per-layer
metrics of layers.py, import times from `python -X importtime`, the tracing
overhead and the share of each command's wall time its spans account for.

The last line of stdout is the result as one JSON object; the lines before it
give the machine, each command's median time and every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import corespeed
import layers
import workloads

HERE = Path(__file__).resolve().parent
# set-up is timed a few times at the start and then between commands at
# most every SETUP_EVERY_S seconds, so that its median spans the whole run
SETUP_INITIAL = 5
SETUP_EVERY_S = 3.0
MIN_PASSES = 2
HARD_LIMIT_S = 170.0
# the spans of a traced command must account for its wall time up to this
# many seconds: the interpreter's start-up before the launcher's first line
# and its exit after the last, about 0.08 s on the 2-core machine of the
# recorded baseline
UNTRACED_ALLOWANCE_S = 0.5
FAMILIES = ("count", "table", "asym", "verify")
MACHINE_KEYS = ("cores", "cpu", "python", "mpmath", "backend")


@dataclass
class Result:
    argv: list[str]
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float
    scaled_s: float = 0.0  # wall_s at the reference core speed
    spans: list | None = None


class Runner:
    """Starts the child interpreters of one benchmark run and waits for each."""

    def __init__(self, root: Path, workdir: Path, deadline: float,
                 speed: corespeed.CoreSpeed | None = None) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.speed = speed
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("CSTACKS_")}
        self.env["PYTHONPATH"] = str(root / "src")

    def run(self, args: list[str]) -> tuple[int, str, str, float, float, float]:
        """(exit status, stdout, stderr, wall seconds, max-RSS in MB, scaled wall seconds) of one child."""
        with tempfile.TemporaryFile(dir=self.workdir) as out, tempfile.TemporaryFile(dir=self.workdir) as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=self.env)
            watchdog = threading.Timer(max(self.deadline - start, 0.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            end = time.perf_counter()
            wall = end - start
            scaled = wall * self.speed.scale(start, end) if self.speed else wall
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read().decode(), err.read().decode(), wall, usage.ru_maxrss / 1024, scaled

    def command(self, argv: list[str], traced: bool) -> Result:
        if not traced:
            return Result(argv, *self.run(["-m", "congruence_stacks", *argv]))
        spans_path = self.workdir / "spans.json"
        result = Result(argv, *self.run([str(HERE / "launcher.py"), str(spans_path), *argv]))
        if spans_path.exists():
            result.spans = json.loads(spans_path.read_text())
            spans_path.unlink()
        return result

    def setup_s(self) -> float:
        status, _, err, _, _, scaled = self.run(["-c", "import congruence_stacks"])
        if status:
            raise SystemExit(f"perfbench: importing the package failed:\n{err}")
        return scaled

    def import_times(self) -> dict[str, float]:
        """Cumulative import seconds of the package's own modules and of mpmath."""
        _, _, err, *_ = self.run(["-X", "importtime", "-c", "import congruence_stacks"])
        cumulative = {}
        for line in err.splitlines():
            match = re.match(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)$", line)
            if match:
                cumulative[match.group(2)] = int(match.group(1)) / 1e6
        mpmath_s = cumulative["mpmath"]
        return {"congruence_stacks.import_s": cumulative["congruence_stacks"] - mpmath_s, "mpmath.import_s": mpmath_s}

    def machine(self, root: Path) -> dict:
        probe = ("import json, mpmath, mpmath.libmp, congruence_stacks; print(json.dumps("
                 "[congruence_stacks.__file__, mpmath.__version__, mpmath.libmp.BACKEND]))")
        status, out, err, *_ = self.run(["-c", probe])
        if status:
            raise SystemExit(f"perfbench: importing the package failed:\n{err}")
        package_file, mpmath_version, backend = json.loads(out)
        if not Path(package_file).resolve().is_relative_to((root / "src").resolve()):
            raise SystemExit(f"perfbench: imported {package_file}, not the package under {root / 'src'}")
        return {
            "cores": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "mpmath": mpmath_version,
            "backend": backend,
            "commit": _commit(root),
            "source_sha256": _source_digest(root / "src"),
        }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_pass(runner: Runner, cmds: list[list[str]], reference: dict, traced: bool,
             between) -> tuple[list[Result], list]:
    results = []
    for argv in cmds:
        results.append(runner.command(argv, traced))
        between()
    return results, checks.check_pass(results, reference)


def accounting(results: list[Result]) -> tuple[float, list[str]]:
    """Share of a traced pass's wall time that the spans' self times add up to, and violations.

    Per command, the self times must be nonnegative and their sum must lie
    between the command's wall time less UNTRACED_ALLOWANCE_S and the wall time.
    """
    covered, errors = 0.0, []
    for res in results:
        own = layers.self_times(res.spans or [])
        covered += sum(own)
        if not own or min(own) < 0 or not res.wall_s - UNTRACED_ALLOWANCE_S <= sum(own) <= res.wall_s:
            errors.append(f"{' '.join(res.argv)}: self times add up to {sum(own):.4f} s"
                          f" of {res.wall_s:.4f} s wall time")
    return covered / sum(r.wall_s for r in results), errors


def measure(args: argparse.Namespace, root: Path, workdir: Path, started: float,
            speed: corespeed.CoreSpeed) -> dict:
    cmds = workloads.commands(args.workload, args.seed)
    reference = json.loads((HERE / "reference.json").read_text())
    runner = Runner(root, workdir, started + HARD_LIMIT_S, speed)
    machine = runner.machine(root)  # also compiles the package's bytecode once
    out = {"machine": machine, "errors": [], "problems": [], "attempted": 0}

    def record(results: list[Result], errors: list) -> None:
        out["attempted"] += len(results)
        out["errors"] += [f"{' '.join(r.argv)}: {e}" for r, e in zip(results, errors) if e]

    setup = runner.import_times if args.trace else runner.setup_s
    samples = [setup() for _ in range(SETUP_INITIAL)]
    last_sample = time.perf_counter()

    def between() -> None:
        nonlocal last_sample
        if time.perf_counter() - last_sample >= SETUP_EVERY_S:
            samples.append(setup())
            last_sample = time.perf_counter()

    plain, traced = [], []
    t0 = time.perf_counter()
    while True:
        results, errors = run_pass(runner, cmds, reference, False, between)
        record(results, errors)
        plain.append(results)
        if args.trace:
            results, errors = run_pass(runner, cmds, reference, True, between)
            for res, base, i in zip(results, plain[-1], range(len(errors))):
                if res.stdout != base.stdout and not errors[i]:
                    errors[i] = "traced stdout differs from untraced stdout"
            record(results, errors)
            traced.append(results)
        rounds = len(plain)
        spent = time.perf_counter() - t0
        per_round = spent / rounds
        if rounds >= (1 if args.trace else MIN_PASSES) and spent + per_round > args.seconds:
            break
        if time.perf_counter() + per_round > started + HARD_LIMIT_S - 10:
            break
    out["plain"], out["traced"] = plain, traced
    if args.trace:
        out["imports"] = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    else:
        out["setup"] = samples
    return out


def end_to_end(run: dict) -> tuple[dict, dict]:
    """The end-to-end metrics, and the plain wall time and scaled time of each subcommand family."""
    metrics = {
        "setup_s": (statistics.median(run["setup"]), "s"),
        "scaled_wall_s": (statistics.median(sum(r.scaled_s for r in p) for p in run["plain"]), "s"),
        "peak_rss_mb": (statistics.median(max(r.rss_mb for r in p) for p in run["plain"]), "MB"),
    }
    printed = {"wall_s": (statistics.median(sum(r.wall_s for r in p) for p in run["plain"]), "s")}
    for family in FAMILIES:
        sums = [sum(r.scaled_s for r in p if r.argv[0] == family) for p in run["plain"]]
        if any(sums):
            printed[f"{family}_s"] = (statistics.median(sums), "s")
    return metrics, printed


def per_layer(run: dict) -> dict:
    metrics, repeated = layers.layer_metrics(
        [layers.pass_summary([r.spans or [] for r in p]) for p in run["traced"]])
    if not repeated:
        run["problems"].append("per-layer counts differ between traced passes")
    out = {name: (value, layers.UNITS[name]) for name, value in metrics.items()}
    out.update({name: (value, "s") for name, value in run["imports"].items()})
    overhead = (statistics.median(sum(r.wall_s for r in p) for p in run["traced"])
                - statistics.median(sum(r.wall_s for r in p) for p in run["plain"]))
    out["trace.overhead_s"] = (overhead, "s")
    shares = []
    for p in run["traced"]:
        share, problems = accounting(p)
        shares.append(share)
        run["problems"] += problems
    out["trace.self_coverage"] = (statistics.median(shares), "ratio")
    return out


def machine_warnings(machine: dict) -> list[str]:
    """Differences from the machine of the recorded baseline, which make timings incomparable."""
    path = HERE / "baseline.json"
    if not path.exists():
        return []
    base = json.loads(path.read_text())["machine"]
    return [f"{key} is {machine[key]!r} here but {base.get(key)!r} in the baseline; timings are not comparable"
            for key in MACHINE_KEYS if machine[key] != base.get(key)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time to spend on passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # leave through the finally blocks, which stop the running command
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "congruence_stacks" / "cli.py").is_file():
        print(f"perfbench: no package at {root / 'src' / 'congruence_stacks'}; run from the source root",
              file=sys.stderr)
        return 2
    build = root / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build, prefix="perfbench-") as workdir, corespeed.CoreSpeed() as speed:
        run = measure(args, root, Path(workdir), started, speed)
    metrics, printed = (per_layer(run), {}) if args.trace else end_to_end(run)

    print("perfbench machine " + json.dumps(run["machine"]))
    for warning in machine_warnings(run["machine"]):
        print("perfbench warning: " + warning)
    for i, argv_ in enumerate(workloads.commands(args.workload, args.seed)):
        times = [p[i].wall_s for p in run["plain"]]
        scaled = [p[i].scaled_s for p in run["plain"]]
        print(f"perfbench command {statistics.median(times):9.4f} s  scaled {statistics.median(scaled):9.4f} s"
              f"  {max(p[i].rss_mb for p in run['plain']):7.1f} MB  cstacks {' '.join(argv_)}")
    print("perfbench passes " + " ".join(f"{sum(r.wall_s for r in p):.4f}" for p in run["plain"])
          + "  scaled " + " ".join(f"{sum(r.scaled_s for r in p):.4f}" for p in run["plain"]))
    chunks = [s for _, s in speed.samples]
    print(f"perfbench core {speed.cpu}: {len(chunks)} chunks, {statistics.fmean(chunks) * 1e3:.4f} ms mean,"
          f" {min(chunks) * 1e3:.4f} ms fastest (reference {corespeed.REFERENCE_CHUNK_S * 1e3:g} ms)")
    failed = len(run["errors"])
    print(f"perfbench metric fail_ratio {failed / run['attempted']:.4f} ratio"
          f"  ({failed} of {run['attempted']} commands, {len(run['plain'])} passes)")
    for name, (value, unit) in {**metrics, **printed}.items():
        print(f"perfbench metric {name} {value:.6g} {unit}")
    for error in run["errors"] + run["problems"]:
        print("perfbench FAILED " + error)
    print(json.dumps({
        "correct": not run["errors"] and not run["problems"],
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
