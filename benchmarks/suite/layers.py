"""Per-layer numbers from one traced pass.

Everything here reads what the engine already exposes: the span trees
of a ``repro.obs.Tracer`` handed in through the public ``tracer=``
argument, ``Result.profile`` work counts, the process-wide metrics
registry, and ``PerformanceModel.breakdown``. Nothing under ``src/`` is
patched. Each function returns raw per-pass sums keyed by the names in
``spec.PER_LAYER``; ``run.py`` averages them over the traced passes.
"""

from __future__ import annotations

import math
import time

from repro.hardware import PI_KEY, PerformanceModel, get_platform
from repro.obs import metrics

_OP_METRIC = {
    "scan": "op.scan_ms",
    "filter": "op.filter_ms",
    "project": "op.project_ms",
    "hashjoin": "op.hashjoin_ms",
    "aggregate": "op.aggregate_ms",
    "sort": "op.sort_ms",
    "topk": "op.sort_ms",
    "limit": "op.sort_ms",
}

_MB = 1e6


def nearest_rank(values, q: float) -> float:
    """Nearest-rank quantile: the smallest value with at least a share
    ``q`` of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def span_layers(query_spans) -> dict:
    """Operator and morsel time under a list of ``query`` spans.

    Operator spans of one context are sequential siblings, so a span's
    duration is its self time. Inside a parallel segment they run on
    worker threads: ``op.*`` then sums thread time, and the segment's
    wall interval is what counts as covered for ``exec.untraced_ms``.
    ``covered_ms`` is returned under a private key for the caller.
    """
    out = {name: 0.0 for name in set(_OP_METRIC.values())}
    out.update({"op.other_ms": 0.0, "morsel.count": 0.0, "morsel.busy_ms": 0.0,
                "morsel.segment_ms": 0.0, "_covered_ms": 0.0, "_query_ms": 0.0})
    for query in query_spans:
        out["_query_ms"] += query.duration_s * 1e3
        stack = [(child, False) for child in query.children]
        while stack:
            span, in_segment = stack.pop()
            ms = span.duration_s * 1e3
            if span.kind == "operator":
                if not span.attrs.get("coalesced"):
                    out[_OP_METRIC.get(span.name, "op.other_ms")] += ms
                    if not in_segment:
                        out["_covered_ms"] += ms
            elif span.kind == "morsel":
                out["morsel.count"] += 1
                out["morsel.busy_ms"] += ms
            elif span.kind == "pipeline" and span.name.startswith("segment:"):
                out["morsel.segment_ms"] += ms
                if not in_segment:
                    out["_covered_ms"] += ms
                in_segment = True
            stack.extend((child, in_segment) for child in span.children)
    return out


def profile_layers(profiles) -> dict:
    """Exact work counts from the ``WorkProfile`` of every request that
    was really executed in the pass."""
    ops = [op for profile in profiles for op in profile.operators]
    skipped = sum(op.blocks_skipped for op in ops)
    scanned = sum(op.blocks_scanned for op in ops)
    return {
        "scan.seq_mb": sum(op.seq_bytes for op in ops if op.operator == "scan") / _MB,
        "scan.skipped_mb": sum(op.skipped_bytes for op in ops) / _MB,
        "scan.blocks_scanned": scanned,
        "scan.blocks_skipped": skipped,
        "scan.skip_ratio": skipped / (skipped + scanned) if skipped + scanned else 0.0,
        "latemat.gather_mb": sum(op.gather_bytes for op in ops) / _MB,
        "latemat.saved_mb": sum(op.saved_bytes for op in ops) / _MB,
        "encoded.decoded_mb": sum(op.decoded_bytes for op in ops) / _MB,
        "encoded.eval_rows": sum(op.encoded_eval_rows for op in ops),
        "encoded.runs_touched": sum(op.runs_touched for op in ops),
        "spill.spilled_mb": sum(op.spilled_bytes for op in ops) / _MB,
        "spill.partitions": sum(op.spill_partitions for op in ops),
        "spill.respill_depth_max": max(
            (profile.respill_depth for profile in profiles), default=0.0
        ),
    }


def modeled_layers(profiles) -> dict:
    """The second clock: each profile priced for the paper's Pi 3B+ at
    the bench scale factor, with the roofline decomposition."""
    model, platform = PerformanceModel(), get_platform(PI_KEY)
    start = time.perf_counter()
    parts = [model.breakdown(profile, platform) for profile in profiles]
    predict_ms = (time.perf_counter() - start) * 1e3
    return {
        "modeled_pi_s": sum(p.total for p in parts),
        "perfmodel.predict_ms": predict_ms,
        "modeled.compute_s": sum(p.compute for p in parts),
        "modeled.memory_s": sum(p.memory for p in parts),
        "modeled.random_s": sum(p.random for p in parts),
        "modeled.dispatch_s": sum(p.dispatch for p in parts),
        "modeled.spill_s": sum(p.spill for p in parts),
    }


_HIT_RATIOS = {
    "encoded.predicate_hit_ratio": "engine.encoded.predicate",
    "encoded.aggregate_hit_ratio": "engine.encoded.aggregate",
    "rollup.route_hit_ratio": "rollup.router",
    "cache.result_hit_ratio": "engine.result_cache",
    "cache.semantic_hit_ratio": "rollup.semantic_cache",
    "keycache.hit_ratio": "engine.key_cache",
}


def registry_snapshot() -> dict:
    """Plain counter values (histograms dropped) for a later delta."""
    return {
        name: value
        for name, value in metrics.snapshot().items()
        if isinstance(value, (int, float))
    }


def registry_layers(before: dict, after: dict) -> dict:
    """Hit ratios and counts from registry counters moved in a pass."""

    def moved(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    out = {}
    for metric, prefix in _HIT_RATIOS.items():
        hits, misses = moved(prefix + ".hits"), moved(prefix + ".misses")
        out[metric] = hits / (hits + misses) if hits + misses else 0.0
    out["rollup.routed_count"] = moved("rollup.router.hits")
    out["serve.admitted"] = moved("serve.admitted")
    out["serve.shed"] = moved("serve.shed")
    return out
