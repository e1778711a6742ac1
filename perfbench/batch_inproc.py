"""``batch_inproc``: closed loop in process, one phase per quality tier.

Two caller threads each call ``AttentionServer.attend_many`` with
64-query blocks, round-robin over 16 sessions, so every batch the
scheduler forms is already full and every cache lookup hits.  The
kernel does almost all of the work; the ``exact`` phase skips
candidate search and is the control for kernel changes.
"""

from __future__ import annotations

import threading

import numpy as np

from common import (
    APPROX_TIERS,
    Gate,
    SpanLog,
    clock,
    exact_attention,
    make_queries,
    make_session,
    median,
    pct,
    relative_errors,
    timed_setups,
)
from layers import bytes_per_query, kernel_layers, snapshot_layers
from repro.core.profiling import StageProfiler
from repro.serve import AttentionServer, ServerConfig

PARAMS = {
    "n": 320,
    "d": 64,
    "sessions": 16,
    "block": 64,
    "threads": 2,
    "blocks_per_session": 4,
    "probes_per_session": 256,
    "tiers": ["exact", "conservative", "aggressive"],
    "tier_shares": {"exact": 0.25, "conservative": 0.5, "aggressive": 0.25},
    "rounds": 5,
    "server": "ServerConfig() defaults: 2 workers, batch 64, 5 ms wait",
}


def _inputs(seed: int):
    rng = np.random.default_rng(seed)
    sessions = {}
    for s in range(PARAMS["sessions"]):
        key, value = make_session(rng, PARAMS["n"], PARAMS["d"])
        blocks = make_queries(
            rng, key, PARAMS["blocks_per_session"] * PARAMS["block"]
        ).reshape(PARAMS["blocks_per_session"], PARAMS["block"], -1)
        probes = make_queries(rng, key, PARAMS["probes_per_session"])
        sessions[f"b{s}"] = (key, value, blocks, probes)
    return sessions


def _build(sessions):
    def build():
        server = AttentionServer(ServerConfig()).start()
        for sid, (key, value, _, probes) in sessions.items():
            server.register_session(sid, key, value)
            for tier in PARAMS["tiers"]:
                server.attend_many(sid, probes[:8], tier=tier)
        return server, server.stop
    return build


def _phase(server, sessions, tier, seconds, spans=None):
    """Closed loop for ``seconds``; returns per-block latencies, counts
    and a few served blocks kept for the correctness gate."""
    ids = list(sessions)
    latencies: list[list[float]] = [[] for _ in range(PARAMS["threads"])]
    attempted = [0] * PARAMS["threads"]
    failed = [0] * PARAMS["threads"]
    kept: list[tuple] = []
    lock = threading.Lock()
    deadline = clock() + seconds

    def caller(t: int) -> None:
        k = 0
        while clock() < deadline:
            sid = ids[(k * PARAMS["threads"] + t) % len(ids)]
            block = sessions[sid][2][k % PARAMS["blocks_per_session"]]
            attempted[t] += 1
            t0 = clock()
            try:
                out = server.attend_many(sid, block, tier=tier)
            except Exception:  # noqa: BLE001 — counted, run fails below
                failed[t] += 1
                k += 1
                continue
            t1 = clock()
            latencies[t].append(t1 - t0)
            if spans is not None:
                spans.add("service.attend_many", t0, t1, rid=f"{t}.{k}",
                          tier=tier, session=sid)
            if k % 16 == 0:
                with lock:
                    kept.append((sid, block, out))
            k += 1

    t_start = clock()
    threads = [
        threading.Thread(target=caller, args=(t,))
        for t in range(PARAMS["threads"])
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    wall = clock() - t_start
    flat = [x for lat in latencies for x in lat]
    return {
        "latencies": flat,
        "attempted": sum(attempted) * PARAMS["block"],
        "failed": sum(failed) * PARAMS["block"],
        "qps": len(flat) * PARAMS["block"] / wall,
        "kept": kept,
    }


def _probe(server, sessions, gate):
    """Gate the probes at every tier; mean relative error per
    approximate tier."""
    errors = {tier: [] for tier in APPROX_TIERS}
    for tier in PARAMS["tiers"]:
        for sid, (key, value, _, probes) in sessions.items():
            served = server.attend_many(sid, probes, tier=tier)
            gate.check(f"probe {sid}", tier, key, value, probes, served)
            if tier in errors:
                errors[tier].append(relative_errors(
                    served, exact_attention(key, value, probes)
                ))
    return {tier: float(np.mean(e)) for tier, e in errors.items()}


def _tier_summary(segments) -> dict:
    latencies = [x for seg in segments for x in seg["latencies"]]
    return {
        "attempted": sum(seg["attempted"] for seg in segments),
        "failed": sum(seg["failed"] for seg in segments),
        # Every round's segment of a tier lasts equally long, so the
        # mean rate is the tier's completions over its measured time.
        "qps": float(np.mean([seg["qps"] for seg in segments])),
        "qps_per_round": [seg["qps"] for seg in segments],
        "blocks": len(latencies),
        "block_p50_ms": 1e3 * median(
            [pct(seg["latencies"], 50) for seg in segments]
        ),
        "block_p95_ms": 1e3 * pct(latencies, 95),
        "block_p99_ms": 1e3 * pct(latencies, 99),
    }


def _traced_tier(server, sessions, tier, seconds, spans) -> tuple:
    """Half of ``seconds`` untraced, half traced with the kernel stage
    profiler on; returns both segments and the tier's layer metrics."""
    untraced = _phase(server, sessions, tier, seconds / 2)
    before = server.snapshot()
    with StageProfiler() as prof:
        traced = _phase(server, sessions, tier, seconds / 2, spans)
    after = server.snapshot()
    dispatches = after["batches"] - before["batches"]
    layers = {
        **kernel_layers(prof.summary(), max(dispatches, 1)),
        **snapshot_layers(before, after, dispatches),
        "trace.overhead": (
            median(traced["latencies"]) / median(untraced["latencies"])
        ),
    }
    if tier == "exact":
        layers["kernel.candidate_fraction"] = 1.0
        layers["kernel.kept_fraction"] = 1.0
    layers["kernel.bytes_per_query"] = bytes_per_query(
        PARAMS["n"], PARAMS["d"], tier,
        layers["kernel.candidate_fraction"], layers["kernel.kept_fraction"],
    )
    return [untraced, traced], layers


def run(seed: int, seconds: float, trace: bool) -> dict:
    sessions = _inputs(seed)
    build = _build(sessions)
    gate = Gate()
    spans = SpanLog() if trace else None
    segments = {tier: [] for tier in PARAMS["tiers"]}
    tier_layers: dict = {}
    if trace:
        server, close, setup_s, setups = timed_setups(build, PARAMS["rounds"])
        try:
            for tier in PARAMS["tiers"]:
                segments[tier], tier_layers[tier] = _traced_tier(
                    server, sessions, tier,
                    PARAMS["tier_shares"][tier] * seconds, spans,
                )
            rel_err = _probe(server, sessions, gate)
        finally:
            close()
    else:
        # Interleaved rounds, each on a freshly set-up server: a slow
        # spell of the machine lands on one segment of each tier, the
        # placement of a server's worker threads differs per round, and
        # each tier reports the median over its segments.
        setups = []
        for r in range(PARAMS["rounds"]):
            t0 = clock()
            server, close = build()
            setups.append(clock() - t0)
            try:
                for tier in PARAMS["tiers"]:
                    segments[tier].append(_phase(
                        server, sessions, tier,
                        PARAMS["tier_shares"][tier] * seconds / PARAMS["rounds"],
                    ))
                if r == PARAMS["rounds"] - 1:
                    rel_err = _probe(server, sessions, gate)
            finally:
                close()
        setup_s = median(setups)
    detail: dict = {"setup_s_each": setups, "phases": {}}
    for tier, segs in segments.items():
        for seg in segs:
            for sid, block, out in seg["kept"]:
                key, value = sessions[sid][:2]
                gate.check(f"served {sid}", tier, key, value, block, out)
        detail["phases"][tier] = _tier_summary(segs)
        if tier in tier_layers:
            detail["phases"][tier]["layers"] = tier_layers[tier]
    layers = tier_layers.get("conservative", {})

    phases = detail["phases"]
    cons = phases["conservative"]
    named = {
        "exact.qps": (phases["exact"]["qps"], "1/s"),
        "conservative.qps": (cons["qps"], "1/s"),
        "aggressive.qps": (phases["aggressive"]["qps"], "1/s"),
        "rel_err.conservative": (rel_err["conservative"], "ratio"),
        "rel_err.aggressive": (rel_err["aggressive"], "ratio"),
    }
    return {
        "params": PARAMS,
        "setup_s": setup_s,
        "phases": phases,
        "gate": gate.report(),
        "named": named,
        "headline": {
            "throughput_per_s": cons["qps"],
            "p50_ms": cons["block_p50_ms"],
            "p95_ms": cons["block_p95_ms"],
            "rel_err": float(np.mean(list(rel_err.values()))),
        },
        "layers": layers,
        "spans": spans,
        "detail": detail,
    }
