"""The benchmark's workloads: lists of `cstacks` command lines.

Each workload is a closed loop with one client: the benchmark runs one
command at a time, each in its own interpreter, and waits for it.  The
program is single-threaded, so more clients would only measure contention.

    exact   large exact series and direct counts; qseries and oracle do almost
            all the work, analytic none.  The gap-variant rows take the
            recurrence route that a standard-only fast series keeps.  The
            README's witness listing and `asym --full --exact` add the
            enumeration oracle, the expansion and the asym command.
    verify  the numerical self-checks; analytic (circle_profile above all)
            does almost all the work, plus the 100-digit kernel checks;
            qseries and oracle run only at small orders.

The seed is passed to `verify --seed`, which draws the sampled test points;
the exact workload does not depend on it.
"""

from __future__ import annotations

WORKLOADS = ("exact", "verify")


def commands(workload: str, seed: int) -> list[list[str]]:
    """Command lines (arguments after `cstacks`) of one pass over a workload."""
    if workload == "exact":
        return [
            ["count", "-n", "10000"],
            ["table", "--values", "100,1000,10000"],
            ["count", "-n", "3000", "-r", "2", "-m", "5"],
            ["table", "-r", "3", "-m", "5", "--values", "100,1000,5000", "--format", "json"],
            ["count", "-n", "12", "-r", "1", "-m", "4", "--witnesses"],
            ["asym", "-n", "1000", "--full", "--exact"],
        ]
    if workload == "verify":
        return [
            ["verify", "all", "--seed", str(seed)],
            ["verify", "theta", "transform", "eta", "falsetheta", "bessel",
             "-r", "2", "-m", "5", "-P", "100", "--seed", str(seed)],
        ]
    raise ValueError(f"unknown workload {workload!r}, expected one of {', '.join(WORKLOADS)}")
