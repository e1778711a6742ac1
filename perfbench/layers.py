"""Per-layer metrics computed from the program's own counters.

Layer counters are before/after differences of the cumulative
``snapshot()`` dicts; kernel stage times come from a
``repro.core.profiling.StageProfiler`` installed around a phase.
"""

from __future__ import annotations

from common import TIER_CONFIGS, mean_delta


def histogram_delta(before: dict, after: dict) -> dict[int, int]:
    keys = set(before) | set(after)
    return {
        int(k): after.get(k, 0) - before.get(k, 0) for k in keys
    }


def histogram_mean(hist: dict[int, int]) -> float:
    total = sum(hist.values())
    return sum(k * v for k, v in hist.items()) / total if total else 0.0


def kernel_layers(profile: dict, dispatches: int) -> dict:
    """Kernel stage milliseconds per dispatch from a StageProfiler."""
    def per_dispatch(stage):
        cell = profile.get(stage)
        return 1e3 * cell["total_seconds"] / dispatches if cell else 0.0

    return {
        "kernel.boundary_estimate_ms": per_dispatch("search.boundary_estimate"),
        "kernel.stream_extraction_ms": per_dispatch("search.stream_extraction"),
        "kernel.gated_walk_ms": per_dispatch("search.gated_walk"),
        "kernel.accumulate_ms": per_dispatch("search.accumulate"),
        "kernel.score_gemm_ms": per_dispatch("attend.score_gemm"),
        "kernel.softmax_scatter_ms": per_dispatch("attend.softmax_scatter"),
    }


def bytes_per_query(n: int, d: int, tier: str, candidate_fraction: float,
                    kept_of_candidates: float) -> float:
    """Bytes one query reads, computed from sizes, not measured.

    Candidate search walks ``2 (M + d)`` sorted (value, row) entries of
    16 bytes each; post-scoring reads each candidate's key row and each
    kept row's value row as 8-byte floats.  The exact tier reads the
    whole key and value.
    """
    cfg = TIER_CONFIGS[tier]()
    if not cfg.candidate_selection:
        return 8.0 * n * 2 * d
    walk = 16.0 * 2 * (cfg.iterations(n) + d)
    return walk + 8.0 * d * n * candidate_fraction * (1 + kept_of_candidates)


def snapshot_layers(before: dict, after: dict, dispatches: int) -> dict:
    """Batcher, scheduler, session-cache and selection metrics from two
    ``AttentionServer.snapshot()`` dicts taken around a phase."""
    cache0, cache1 = before["cache"], after["cache"]
    hits = cache1["hits"] - cache0["hits"]
    misses = cache1["misses"] - cache0["misses"]
    return {
        "batcher.queue_wait_ms": 1e3 * mean_delta(
            before, after, "mean_queue_wait_seconds", "completed"
        ),
        "batcher.mean_batch_size": (
            (after["completed"] - before["completed"]) / max(dispatches, 1)
        ),
        "batcher.fused_segments": histogram_mean(histogram_delta(
            before["fused"]["segment_histogram"],
            after["fused"]["segment_histogram"],
        )),
        "batcher.peak_queue_depth": after["peak_queue_depth"],
        "batcher.rejected": after["rejected"] - before["rejected"],
        "scheduler.service_ms": 1e3 * mean_delta(
            before, after, "mean_service_seconds", "batches"
        ),
        "sessions.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "sessions.misses": misses,
        "sessions.evictions": cache1["evictions"] - cache0["evictions"],
        "sessions.spills": cache1["spills"] - cache0["spills"],
        "sessions.promotes": cache1["promotes"] - cache0["promotes"],
        "sessions.prepare_ms": 1e3 * (
            cache1["prepare_seconds"] - cache0["prepare_seconds"]
        ),
        **selection_layers(before["selection"], after["selection"]),
    }


def selection_layers(before: dict, after: dict) -> dict:
    """Candidate share of rows and kept share of candidates (useful over
    attempted) over a phase.  The cumulative fractions are per-query
    means, so the ``calls``-weighted difference is the phase's mean."""
    candidates = mean_delta(before, after, "candidate_fraction", "calls")
    kept = mean_delta(before, after, "kept_fraction", "calls")
    return {
        "kernel.candidate_fraction": candidates,
        "kernel.kept_fraction": kept / candidates if candidates else 0.0,
    }


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Pool per-shard ``AttentionServer.snapshot()`` dicts into one with
    the fields :func:`snapshot_layers` reads: counts add, means are
    weighted by their counts, and the queue-depth peak is the largest."""

    def weighted(part, mean_key, count_key):
        total = sum(s[count_key] for s in part)
        return (
            sum(s[mean_key] * s[count_key] for s in part) / total
            if total else 0.0
        )

    hist: dict[str, int] = {}
    for snap in snapshots:
        for k, v in snap["fused"]["segment_histogram"].items():
            hist[k] = hist.get(k, 0) + v
    selections = [s["selection"] for s in snapshots]
    return {
        "completed": sum(s["completed"] for s in snapshots),
        "batches": sum(s["batches"] for s in snapshots),
        "rejected": sum(s["rejected"] for s in snapshots),
        "peak_queue_depth": max(s["peak_queue_depth"] for s in snapshots),
        "mean_queue_wait_seconds": weighted(
            snapshots, "mean_queue_wait_seconds", "completed"
        ),
        "mean_service_seconds": weighted(
            snapshots, "mean_service_seconds", "batches"
        ),
        "fused": {"segment_histogram": hist},
        "cache": {
            k: sum(s["cache"][k] for s in snapshots)
            for k in ("hits", "misses", "evictions", "spills", "promotes",
                      "prepare_seconds")
        },
        "selection": {
            "calls": sum(s["calls"] for s in selections),
            "candidate_fraction": weighted(
                selections, "candidate_fraction", "calls"
            ),
            "kept_fraction": weighted(selections, "kept_fraction", "calls"),
        },
    }
