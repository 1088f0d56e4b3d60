"""Per-layer metrics of a traced run, and what each should move.

Values are per-request means over the traced requests of a run, except
``suite.item.<slug>.s`` (the item's own ``ItemResult.seconds``, mean over
the requests that ran it) and the ratios, which are taken over all traced
requests and name their base.
"""

from __future__ import annotations

import math
from statistics import fmean, stdev

from trace_entry import TARGETS

SUITE_SLUGS = (
    "counting-values", "flip-identity", "mixed-upper-family", "duality-lower",
    "power-commutator", "commutator-packing", "section-extension",
    "fragmentation-norm", "pure-braid-splitting", "word-algebra",
    "certificate-integrity",
)

# summed counters, reported as per-request means
COUNTERS = (
    ("groups.ball.elements", "count"),
    ("braids.normal_form.letters", "count"),
    ("quasimorphisms.defect_search.pairs", "count"),
    ("scl.mixed_cl_search.moves", "count"),
    ("extension.defect_chain_check.pairs", "count"),
    ("certio.load_document.bytes", "bytes"),
)

# each ratio's base is itself a reported metric: braids.cached_normal_form.calls
# and scl.mixed_cl_search.calls
RATIOS = ("braids.nf_cache.hit_ratio", "scl.mixed_cl_search.found_ratio")

TRACE = (
    ("trace.requests", "count"),          # traced requests behind the means
    ("trace.request_s", "s"),             # mean traced wall time, spawn to exit
    ("trace.untraced_request_s", "s"),    # the same requests untraced
    ("trace.overhead_s", "s"),            # traced minus untraced
    ("trace.overhead_se_s", "s"),         # standard error of that difference
    ("trace.self_sum_s", "s"),            # every self_s, cli.import_s and cli.exit_s
    ("trace.unattributed_s", "s"),        # request_s minus self_sum_s
)

# layer -> the end-to-end metric and workload it should move
SHOULD_MOVE = {
    "words": "latency_p50_s on search and paper-suite",
    "groups": "latency_tail_s and peak_rss_mb on search",
    "braids": "latency_p50_s on flip and verify",
    "quasimorphisms": "requests_per_s on paper-suite",
    "norms": "requests_per_s on paper-suite",
    "scl": "search (mixed_cl_search) and flip (the decomposition metrics)",
    "extension": "requests_per_s on paper-suite",
    "specs": "latency_p50_s on verify",
    "certio": "latency_p50_s on verify; flip through self-verification",
    "suite": "requests_per_s on paper-suite",
    "cli": "latency_p50_s on every workload, most on the cheap search requests",
}


def traced_names() -> list[str]:
    return [name for name, _, _ in TARGETS] + ["cli.main"]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"cli.import_s": "s", "cli.exit_s": "s"}
    for name in traced_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    del units["cli.main.calls"]
    units.update(COUNTERS)
    units.update((name, "ratio") for name in RATIOS)
    units.update((f"suite.item.{slug}.s", "s") for slug in SUITE_SLUGS)
    units.update(TRACE)
    return units


def aggregate(docs: list[dict], traced_s: list[float], untraced_s: list[float]) -> dict[str, float]:
    """Per-layer metrics from the span documents of the traced requests and
    the wall times of the same requests traced and untraced."""
    n = max(len(docs), 1)

    def mean(total: float) -> float:
        return total / n

    def stat(name: str, k: int) -> float:
        return sum(d["stats"].get(name, (0, 0.0))[k] for d in docs)

    def counter(name: str) -> float:
        return sum(d["counters"].get(name, 0) for d in docs)

    out = {"cli.import_s": mean(stat("cli.import", 1)),
           "cli.exit_s": mean(sum(d["exit_s"] for d in docs))}
    for name in traced_names():
        out[f"{name}.calls"] = mean(stat(name, 0))
        out[f"{name}.self_s"] = mean(stat(name, 1))
    del out["cli.main.calls"]
    for name, _ in COUNTERS:
        out[name] = mean(counter(name))
    lookups = stat("braids.cached_normal_form", 0)
    hits = lookups - counter("braids.nf_cache.misses")
    out["braids.nf_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    searches = stat("scl.mixed_cl_search", 0)
    found = counter("scl.mixed_cl_search.found")
    out["scl.mixed_cl_search.found_ratio"] = found / searches if searches else 0.0
    for slug in SUITE_SLUGS:
        runs = [d["suite_items"][slug] for d in docs if slug in d["suite_items"]]
        out[f"suite.item.{slug}.s"] = fmean(runs) if runs else 0.0
    self_sum = out["cli.import_s"] + out["cli.exit_s"] + sum(
        out[f"{name}.self_s"] for name in traced_names())
    diffs = [t - u for t, u in zip(traced_s, untraced_s)]
    request_s = fmean(traced_s) if traced_s else 0.0
    out.update({
        "trace.requests": float(len(docs)),
        "trace.request_s": request_s,
        "trace.untraced_request_s": fmean(untraced_s) if untraced_s else 0.0,
        "trace.overhead_s": fmean(diffs) if diffs else 0.0,
        "trace.overhead_se_s": stdev(diffs) / math.sqrt(len(diffs)) if len(diffs) > 1 else 0.0,
        "trace.self_sum_s": self_sum,
        "trace.unattributed_s": request_s - self_sum,
    })
    return out


def accounted(metrics: dict[str, float]) -> bool:
    """Do the self times add up to the traced request time, within the
    tracing overhead (allowing two standard errors of its measurement)?
    What they leave out is the tracer's own set-up and write-out."""
    slack = metrics["trace.overhead_s"] + 2 * metrics["trace.overhead_se_s"]
    return 0 <= metrics["trace.unattributed_s"] <= slack
