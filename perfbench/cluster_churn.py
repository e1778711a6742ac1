"""``cluster_churn``: reads and writes against a replicated spawn cluster.

Two caller threads run a closed loop against a 2-shard
``ShardedAttentionServer`` whose shards are spawned processes, with
every session on both shards (``replication=2``).  Sessions are picked
with Zipf-skewed popularity; 80% of operations read 8 queries and 20%
write through the session's ``mutator``: append 4 rows, or delete 4
rows once the session has grown, so n stays bounded.  Each shard's RAM
cache holds fewer prepared sessions than are hot and the disk tier is
on, so reads miss, spill and promote.  Writes next to reads, pipe RPC,
replication fan-out and cache churn appear only in this workload.
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
    mean_delta,
    median,
    pct,
    relative_errors,
    timed_setups,
)
from layers import bytes_per_query, merge_snapshots, snapshot_layers
from repro.core.backends import ApproximateBackend
from repro.core.config import conservative
from repro.serve import ClusterConfig, ServerConfig, ShardedAttentionServer

PARAMS = {
    "n": 320,
    "d": 64,
    "sessions": 32,
    "shards": 2,
    "replication": 2,
    "threads": 2,
    "zipf_exponent": 1.0,
    "read_share": 0.8,
    "read_queries": 8,
    "write_rows": 4,
    "max_extra_rows": 8,
    "queries_per_session": 32,
    "probes_per_session": 128,
    "ram_cache_sessions": 6,
    "disk_cache_mib": 64,
    "ping_every_ops": 10,
    "rounds": 3,
}


def _inputs(seed: int):
    rng = np.random.default_rng(seed)
    sessions = {}
    for s in range(PARAMS["sessions"]):
        key, value = make_session(rng, PARAMS["n"], PARAMS["d"])
        queries = make_queries(rng, key, PARAMS["queries_per_session"])
        sessions[f"c{s}"] = (key, value, queries)
    return sessions


def _config() -> ClusterConfig:
    per_session = ApproximateBackend(conservative()).prepared_nbytes(
        np.zeros((PARAMS["n"], PARAMS["d"]))
    )
    shard = ServerConfig(
        cache_capacity_bytes=PARAMS["ram_cache_sessions"] * per_session,
        cache_disk_capacity_bytes=PARAMS["disk_cache_mib"] << 20,
    )
    return ClusterConfig(
        num_shards=PARAMS["shards"],
        shard=shard,
        spawn=True,
        replication=PARAMS["replication"],
    )


def _build(sessions):
    def build():
        cluster = ShardedAttentionServer(_config()).start()
        for sid, (key, value, queries) in sessions.items():
            cluster.register_session(sid, key, value)
            for tier in ("exact", *APPROX_TIERS):
                cluster.attend_many(sid, queries[:8], tier=tier)
        return cluster, cluster.stop
    return build


class Record:
    """The benchmark's own account of every session's key and value,
    updated with each write the program acknowledged."""

    def __init__(self, sessions):
        self.memory = {sid: (s[0], s[1]) for sid, s in sessions.items()}
        self.locks = {sid: threading.Lock() for sid in sessions}

    def write(self, cluster, sid, rng) -> str:
        """One write, serialized per session so the program sees the
        mutations in the order the record applies them."""
        with self.locks[sid]:
            key, value = self.memory[sid]
            grown = key.shape[0] - PARAMS["n"]
            rows = PARAMS["write_rows"]
            if grown + rows > PARAMS["max_extra_rows"]:
                drop = np.sort(rng.choice(key.shape[0], rows, replace=False))
                cluster.mutator(sid).delete_rows(drop)
                self.memory[sid] = (
                    np.delete(key, drop, axis=0), np.delete(value, drop, axis=0)
                )
                return "delete"
            new_key = rng.normal(size=(rows, key.shape[1]))
            new_value = rng.normal(size=(rows, value.shape[1]))
            cluster.mutator(sid).append_rows(new_key, new_value)
            self.memory[sid] = (
                np.vstack([key, new_key]), np.vstack([value, new_value])
            )
            return "append"


def _phase(cluster, sessions, record, seconds, seed, spans=None):
    ids = list(sessions)
    weights = 1.0 / np.arange(1, len(ids) + 1) ** PARAMS["zipf_exponent"]
    weights /= weights.sum()
    reads: list[float] = []
    writes: list[float] = []
    pings: list[float] = []
    counts = {"attempted": 0, "failed": 0, "ops": 0}
    lock = threading.Lock()
    deadline = clock() + seconds

    def caller(t: int) -> None:
        rng = np.random.default_rng([seed, t])
        k = 0
        while clock() < deadline:
            sid = ids[rng.choice(len(ids), p=weights)]
            is_read = rng.random() < PARAMS["read_share"]
            t0 = clock()
            try:
                if is_read:
                    queries = sessions[sid][2]
                    start = rng.integers(0, len(queries) - PARAMS["read_queries"])
                    cluster.attend_many(
                        sid, queries[start:start + PARAMS["read_queries"]]
                    )
                    kind = "read"
                else:
                    kind = record.write(cluster, sid, rng)
                ok = True
            except Exception:  # noqa: BLE001 — counted, run fails below
                ok = False
            t1 = clock()
            with lock:
                counts["attempted"] += 1
                if not ok:
                    counts["failed"] += 1
                    continue
                counts["ops"] += 1
                (reads if is_read else writes).append(t1 - t0)
            if spans is not None:
                spans.add(f"cluster.{kind}", t0, t1, rid=f"{t}.{k}",
                          session=sid)
                if k % PARAMS["ping_every_ops"] == 0:
                    shard = cluster.shard_ids[k // PARAMS["ping_every_ops"]
                                              % PARAMS["shards"]]
                    p0 = clock()
                    cluster.ping_shard(shard)
                    p1 = clock()
                    spans.add("cluster.ping", p0, p1, rid=f"{t}.{k}",
                              shard=shard)
                    with lock:
                        pings.append(p1 - p0)
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
    return {
        **counts,
        "ops_per_s": counts["ops"] / wall,
        "reads": reads,
        "writes": writes,
        "pings": pings,
        "read_p50_ms": 1e3 * pct(reads, 50),
        "read_p95_ms": 1e3 * pct(reads, 95),
        "read_p99_ms": 1e3 * pct(reads, 99),
        "write_p50_ms": 1e3 * pct(writes, 50),
        "write_p95_ms": 1e3 * pct(writes, 95),
    }


def _summary(phase) -> dict:
    return {
        k: v for k, v in phase.items() if k not in ("reads", "writes", "pings")
    }


def _probe(cluster, record, gate, seed):
    """Probe every session at both approximate tiers against a fresh
    backend prepared on the final key the record implies.  The probes
    are drawn from the final key, so they stay attention-concentrated
    however the churn changed the rows."""
    rng = np.random.default_rng([seed, 1])
    probes = {
        sid: make_queries(rng, key, PARAMS["probes_per_session"])
        for sid, (key, _) in record.memory.items()
    }
    errors = {tier: [] for tier in APPROX_TIERS}
    for tier in APPROX_TIERS:
        for sid, sid_probes in probes.items():
            key, value = record.memory[sid]
            served = cluster.attend_many(sid, sid_probes, tier=tier)
            gate.check(f"final {sid}", tier, key, value, sid_probes, served)
            errors[tier].append(relative_errors(
                served, exact_attention(key, value, sid_probes)
            ))
    return {tier: float(np.mean(e)) for tier, e in errors.items()}


def _cluster_layers(before, after, phase) -> dict:
    b, a = before["cluster"], after["cluster"]
    shards = sorted(a["completed_per_shard"])
    done = [
        a["completed_per_shard"][s] - b["completed_per_shard"].get(s, 0)
        for s in shards
    ]
    mean_done = sum(done) / len(done) if done else 0.0
    merged = [
        merge_snapshots(list(snap["shards"].values()))
        for snap in (before, after)
    ]
    dispatches = merged[1]["batches"] - merged[0]["batches"]
    shard_request_ms = 1e3 * mean_delta(
        {**b["latency_seconds"], "completed": b["completed"]},
        {**a["latency_seconds"], "completed": a["completed"]},
        "mean", "completed",
    )
    return {
        **snapshot_layers(merged[0], merged[1], dispatches),
        "cluster.rpc_rtt_ms": 1e3 * pct(phase["pings"], 50),
        "cluster.read_overhead_ms": (
            1e3 * float(np.mean(phase["reads"])) - shard_request_ms
        ) if phase["reads"] else 0.0,
        "cluster.load_imbalance": max(done) / mean_done if mean_done else 0.0,
        "cluster.replica_retries": (
            a["failover"]["replica_retries"] - b["failover"]["replica_retries"]
        ),
    }


def _rounds_summary(rounds) -> dict:
    """The gated throughput and p50 are medians over the rounds'
    clusters; the tails pool every round's samples, since one round
    holds too few cache misses for a tail of its own."""
    reads = [x for r in rounds for x in r["reads"]]
    writes = [x for r in rounds for x in r["writes"]]
    return {
        "ops_per_s": median([r["ops_per_s"] for r in rounds]),
        "read_p50_ms": median([r["read_p50_ms"] for r in rounds]),
        "read_p95_ms": 1e3 * pct(reads, 95),
        "read_p99_ms": 1e3 * pct(reads, 99),
        "write_p50_ms": 1e3 * pct(writes, 50),
        "write_p95_ms": 1e3 * pct(writes, 95),
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    sessions = _inputs(seed)
    build = _build(sessions)
    gate = Gate()
    spans = SpanLog() if trace else None
    notes: list[str] = []
    layers: dict = {}
    if trace:
        cluster, close, setup_s, setups = timed_setups(build, PARAMS["rounds"])
        record = Record(sessions)
        try:
            untraced = _phase(cluster, sessions, record, seconds / 2, seed)
            before = cluster.snapshot()
            phase = _phase(cluster, sessions, record, seconds / 2, seed + 1,
                           spans)
            after = cluster.snapshot()
            rel_err = _probe(cluster, record, gate, seed)
        finally:
            close()
        layers = _cluster_layers(before, after, phase)
        layers["kernel.bytes_per_query"] = bytes_per_query(
            PARAMS["n"], PARAMS["d"], "conservative",
            layers["kernel.candidate_fraction"],
            layers["kernel.kept_fraction"],
        )
        layers["trace.overhead"] = (
            median(phase["reads"]) / median(untraced["reads"])
        )
        notes.append(
            "kernel stage times are not observable in spawned shards; "
            "the kernel.*_ms layers read 0 on this workload"
        )
        phases = {"untraced": untraced, "traced": phase}
        churn = _rounds_summary([untraced])
    else:
        # Rounds, each on a freshly set-up cluster: the state its shard
        # processes happen to start in moves latency and throughput, and
        # the median over rounds evens that out.
        setups, rounds = [], []
        for r in range(PARAMS["rounds"]):
            t0 = clock()
            cluster, close = build()
            setups.append(clock() - t0)
            record = Record(sessions)
            try:
                rounds.append(_phase(
                    cluster, sessions, record, seconds / PARAMS["rounds"],
                    seed + r,
                ))
                if r == PARAMS["rounds"] - 1:
                    rel_err = _probe(cluster, record, gate, seed)
            finally:
                close()
        setup_s = median(setups)
        phases = {f"round_{r}": p for r, p in enumerate(rounds)}
        churn = _rounds_summary(rounds)
    detail = {
        "setup_s_each": setups,
        **{name: _summary(p) for name, p in phases.items()},
        "churn": churn,
        "final_rows": {
            sid: int(m[0].shape[0]) for sid, m in record.memory.items()
        },
    }
    named = {
        "ops_per_s": (churn["ops_per_s"], "1/s"),
        "read.p50_ms": (churn["read_p50_ms"], "ms"),
        "read.p99_ms": (churn["read_p99_ms"], "ms"),
        "write.p50_ms": (churn["write_p50_ms"], "ms"),
        "write.p95_ms": (churn["write_p95_ms"], "ms"),
        **{f"rel_err.{t}": (e, "ratio") for t, e in rel_err.items()},
    }
    return {
        "params": PARAMS,
        "setup_s": setup_s,
        "phases": phases,
        "gate": gate.report(),
        "named": named,
        "headline": {
            "p50_ms": churn["read_p50_ms"],
            "p95_ms": churn["read_p95_ms"],
            "throughput_per_s": churn["ops_per_s"],
            "rel_err": float(np.mean(list(rel_err.values()))),
        },
        "layers": layers,
        "spans": spans,
        "notes": notes,
        "detail": detail,
    }
