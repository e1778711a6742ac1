"""Shared pieces of the serving benchmark: inputs, reference answers,
the correctness gate, phase statistics and the benchmark-side span log.

Everything here is benchmark code.  The program under test is reached
only through its public serving surface; the answers it serves are
checked against an attention computed here with plain NumPy and against
a directly constructed ``ApproximateBackend`` on the same key.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from repro.core.backends import ApproximateBackend  # noqa: E402
from repro.core.config import aggressive, conservative, exact  # noqa: E402

clock = time.perf_counter

TIER_CONFIGS = {
    "exact": exact,
    "conservative": conservative,
    "aggressive": aggressive,
}
APPROX_TIERS = ("conservative", "aggressive")

#: Relative tolerance of the correctness gate.  Served rows may differ
#: from a direct backend call in the last bits when the batcher groups
#: queries differently (BLAS picks other kernels for tiny batches);
#: that drift is ~1e-14 relative, far below this bound.
GATE_RTOL = 1e-9

#: Queries are a scaled key row plus unit noise: the dot product with
#: the chosen row is about QUERY_SCALE * d, so softmax weight piles onto
#: a few rows as in the paper's QA and NLP models.
QUERY_SCALE = 1.0


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def make_session(rng: np.random.Generator, n: int, d: int):
    """One tenant's key and value memory."""
    return rng.normal(size=(n, d)), rng.normal(size=(n, d))


def make_queries(rng: np.random.Generator, key: np.ndarray, count: int):
    """``count`` attention-concentrated queries against ``key``."""
    rows = rng.integers(0, key.shape[0], size=count)
    noise = rng.normal(size=(count, key.shape[1]))
    return QUERY_SCALE * key[rows] + noise


def exact_attention(key, value, queries) -> np.ndarray:
    """Softmax attention computed directly, the quality reference."""
    scores = np.atleast_2d(queries) @ key.T
    scores -= scores.max(axis=1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ value


def relative_errors(served, reference) -> np.ndarray:
    """Per-row relative L2 error of ``served`` against ``reference``."""
    num = np.linalg.norm(served - reference, axis=1)
    return num / np.maximum(np.linalg.norm(reference, axis=1), 1e-300)


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------


class Gate:
    """Collects served rows and checks them against a direct backend.

    ``check`` prepares a fresh ``ApproximateBackend`` at the tier's
    operating point on the given key and compares every row; one row
    off by more than :data:`GATE_RTOL` fails the run.
    """

    def __init__(self) -> None:
        self.checked = 0
        self.mismatches: list[str] = []

    def check(self, label, tier, key, value, queries, served) -> None:
        backend = ApproximateBackend(TIER_CONFIGS[tier](), engine="vectorized")
        backend.prepare(key)
        expected = backend.attend_many(key, value, np.atleast_2d(queries))
        served = np.atleast_2d(served)
        scale = max(float(np.abs(expected).max()), 1e-300)
        worst = float(np.abs(served - expected).max()) / scale
        self.checked += len(expected)
        if not worst <= GATE_RTOL:
            self.mismatches.append(
                f"{label} tier={tier}: max relative diff {worst:.3e} "
                f"> {GATE_RTOL:g}"
            )

    def report(self) -> dict:
        return {
            "rows_checked": self.checked,
            "rtol": GATE_RTOL,
            "mismatches": self.mismatches,
            "ok": self.checked > 0 and not self.mismatches,
        }


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def pct(samples, q: float) -> float:
    """Percentile ``q`` of ``samples`` (0.0 for an empty sample)."""
    return float(np.percentile(samples, q)) if len(samples) else 0.0


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean_delta(before: dict, after: dict, mean_key: str, count_key: str):
    """Mean of a cumulative mean statistic over the interval between two
    snapshots: ``(m1 * c1 - m0 * c0) / (c1 - c0)``."""
    c0, c1 = before[count_key], after[count_key]
    if c1 <= c0:
        return 0.0
    return (after[mean_key] * c1 - before[mean_key] * c0) / (c1 - c0)


# ----------------------------------------------------------------------
# benchmark-side spans
# ----------------------------------------------------------------------


class SpanLog:
    """In-memory spans (name, start, end, parent, request id).

    Spans are recorded around the benchmark's calls into each layer and
    written as JSONL when the run ends.  A span's self time is its
    duration minus the durations of its children; the children of one
    span never overlap in this benchmark, so that is also the part of
    its interval no child covers.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._next = 0

    def add(self, name, start, end, rid=None, parent=None, **attrs) -> int:
        with self._lock:
            span_id = self._next
            self._next += 1
            self.spans.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "rid": rid, **attrs,
            })
        return span_id

    def self_times(self) -> dict[str, dict]:
        """Layer name -> request id -> summed self time (seconds)."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        out: dict[str, dict] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - covered.get(span["id"], 0.0)
            per_rid = out.setdefault(span["name"], {})
            per_rid[span["rid"]] = per_rid.get(span["rid"], 0.0) + own
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def timed_setups(build, repeats: int):
    """Run ``build()`` ``repeats`` times, closing all but the last.

    ``build`` returns ``(handle, close)``.  Returns the kept handle, its
    close callable, and the median set-up time in seconds.
    """
    times = []
    kept = None
    for i in range(repeats):
        t0 = clock()
        handle, close = build()
        times.append(clock() - t0)
        if i < repeats - 1:
            close()
        else:
            kept = (handle, close)
    return kept[0], kept[1], median(times), times
