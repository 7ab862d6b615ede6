"""Per-layer metrics from the spans of the traced launcher.

A span's self time is its duration minus the durations of its child spans.
Self times and counts are summed over the commands of one pass; counts repeat
exactly from pass to pass, self times are reported as the median over passes.
"""

from __future__ import annotations

import statistics

# span names whose self time is reported, grouped by layer
SELF_TIMES = (
    "qseries.stack_gf", "qseries.verify_decomposition", "qseries.congruence_partition_gf",
    "qseries.series_mul", "qseries.false_theta_gf",
    "oracle.count_stacks", "oracle.enumerate_stacks",
    "asymptotics.comparison_table", "asymptotics.main_term", "asymptotics.refined_main_term",
    "asymptotics.asymptotic_sum", "asymptotics.bessel_i",
    "bigfloat.LogValue10.decompose", "bigfloat.LogValue10.relative_error_against",
    "analytic.circle_profile", "analytic.major_arc_integral", "analytic.simpson_refine",
    "analytic.theta_sum", "analytic.theta_product", "analytic.false_theta", "analytic.dedekind_eta",
    "analytic.theta_transform_residual", "analytic.eta_inversion_residual",
    "analytic.false_theta_series_residual", "analytic.cubic_remainder_check",
    "cli.main", "cli.cmd_count", "cli.cmd_table", "cli.cmd_asym", "cli.cmd_verify",
)
CALLS = (
    "qseries.stack_gf", "oracle.count_stacks",
    "asymptotics.main_term", "asymptotics.asymptotic_sum", "asymptotics.bessel_i", "asymptotics.saddle_point",
    "bigfloat.LogValue10.decompose",
    "analytic.circle_profile", "analytic.theta_sum", "analytic.theta_product",
    "analytic.false_theta", "analytic.dedekind_eta",
)
# metric name -> (span name, fact, how the facts of one pass combine)
FACTS = {
    "qseries.stack_gf.order_sum": ("qseries.stack_gf", "order", sum),
    "qseries.stack_gf.max_coeff_bits": ("qseries.stack_gf", "coeff_bits", lambda xs: max(xs, default=0)),
    "oracle.count_stacks.n_sum": ("oracle.count_stacks", "n", sum),
    "analytic.circle_profile.points": ("analytic.circle_profile", "points", sum),
    "analytic.simpson_refine.panels": ("analytic.simpson_refine", "panels", sum),
}
RAISED = ("qseries", "oracle", "asymptotics", "bigfloat", "analytic")

UNITS = {
    **{f"{name}.self_s": "s" for name in SELF_TIMES},
    **{f"{name}.calls": "count" for name in CALLS},
    **{name: "bits" if name.endswith("_bits") else "count" for name in FACTS},
    **{f"{layer}.raised": "count" for layer in RAISED},
}


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus its children's durations."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def pass_summary(commands: list[list[list]]) -> dict:
    """Self times and counts of one traced pass (one span list per command)."""
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    facts: dict[str, list] = {}
    for spans in commands:
        for span, own in zip(spans, self_times(spans)):
            name, raised, fact = span[0], span[4], span[5]
            self_s[name] = self_s.get(name, 0.0) + own
            counts[name] = counts.get(name, 0) + 1
            if raised:
                layer = name.split(".")[0]
                counts[f"{layer}.raised"] = counts.get(f"{layer}.raised", 0) + 1
            for key, value in (fact or {}).items():
                facts.setdefault(f"{name}.{key}", []).append(value)
    out_counts = {f"{name}.calls": counts.get(name, 0) for name in CALLS}
    out_counts.update({f"{layer}.raised": counts.get(f"{layer}.raised", 0) for layer in RAISED})
    for metric, (span, fact, combine) in FACTS.items():
        out_counts[metric] = combine(facts.get(f"{span}.{fact}", []))
    return {"self_s": {name: self_s.get(name, 0.0) for name in SELF_TIMES}, "counts": out_counts}


def layer_metrics(summaries: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics over several passes, and whether the counts repeated exactly."""
    metrics = {f"{name}.self_s": statistics.median(s["self_s"][name] for s in summaries) for name in SELF_TIMES}
    metrics.update(summaries[0]["counts"])
    return metrics, all(s["counts"] == summaries[0]["counts"] for s in summaries)
