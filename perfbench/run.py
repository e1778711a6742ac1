"""The A3 serving benchmark: one workload per invocation.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch_inproc --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` is the separate traced run: it measures half of the time
untraced and half traced, records benchmark-side spans around every
call into the program's layers, writes them as JSONL under
``perfbench/out/`` and reports the per-layer metrics plus the tracing
overhead.  Metric names, units and workloads come from
``BENCHMARK.json``; the layer -> end-to-end -> workload table is in
``perfbench/README.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every served row passed the correctness gate, no
operation failed and the load generator kept to its schedule.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import tempfile
from multiprocessing import resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import OUT, ROOT, environment  # noqa: E402

WORKLOADS = ("wire_open", "batch_inproc", "cluster_churn")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Temporary files of this process and of the server processes it
    # spawns (the cluster's disk cache tier) stay inside the checkout.
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None

    module = importlib.import_module(args.workload)
    result = module.run(args.seed, args.seconds, bool(args.trace))
    # Spawned servers share one resource-tracker process; stop it and
    # wait for it, so no process this run started outlives the result.
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()

    if args.trace:
        # A layer the workload does not exercise reads 0.
        values = {m["name"]: 0.0 for m in spec["per_layer"]}
        values.update(result["layers"])
        wanted = spec["per_layer"]
    else:
        values = {**result["headline"], "setup_s": result["setup_s"]}
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }
    gate = result["gate"]
    valid = result.get("valid", True)
    phases = {
        name: {"attempted": int(p["attempted"]), "failed": int(p["failed"])}
        for name, p in result["phases"].items()
    }
    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    correct = bool(gate["ok"] and failed == 0 and valid)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "params": result["params"],
        "named_metrics": {
            name: {"value": v, "unit": u}
            for name, (v, u) in result["named"].items()
        },
        "phases": phases,
        "gate": gate,
        "valid": valid,
        "detail": result["detail"],
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if result.get("spans") is not None:
        result["spans"].write(OUT / f"{stem}.spans.jsonl")

    env = report["environment"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']}")
    print(f"# params {json.dumps(result['params'], sort_keys=True)}")
    print(f"setup_s = {result['setup_s']:.4f} s")
    for name, cell in report["named_metrics"].items():
        print(f"{name} = {cell['value']:.6g} {cell['unit']}")
    for name, p in phases.items():
        print(f"# phase {name}: attempted {p['attempted']}, "
              f"failed {p['failed']}")
    for line in result.get("notes", []):
        print(f"# {line}")
    if args.trace:
        for name, cell in metrics.items():
            print(f"layer {name} = {cell['value']:.6g} {cell['unit']}")
    print(f"# gate: {gate['rows_checked']} rows checked at rtol "
          f"{gate['rtol']:g}, {len(gate['mismatches'])} mismatches")
    for mismatch in gate["mismatches"][:10]:
        print(f"# MISMATCH {mismatch}")
    if not valid:
        print("# INVALID: the load generator fell behind its schedule")
    print(f"# report: {(OUT / stem).relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    if not correct:
        reasons = [f"{len(gate['mismatches'])} gate mismatches"
                   if gate["mismatches"] else "",
                   f"{failed} failed operations" if failed else "",
                   "" if valid else "generator fell behind its schedule"]
        failing = [n for n, p in phases.items() if p["failed"]]
        print(f"perfbench: {args.workload} seed {args.seed} not correct: "
              + "; ".join(r for r in reasons if r)
              + (f" (failed in {', '.join(failing)})" if failing else ""),
              file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
