"""Repository benchmark: one APSP scenario, a sweep slice, the oracle server.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload apsp-er-n256 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed; ``--trace 1`` runs the same inputs untraced and then traced
and reports the per-layer metrics.  The metric names, units and bounds
come from ``BENCHMARK.json``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans, samples and the run stamp go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from common import OUT, ROOT, SRC, median, timing_summary

WORKLOADS = ("apsp-er-n256", "sweep-report-slice", "serve-oracle-store")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """One workload's raw outcome (see ``sim`` and ``serve``)."""
    import serve
    import sim

    runner = {"apsp-er-n256": sim.run_apsp,
              "sweep-report-slice": sim.run_sweep,
              "serve-oracle-store": serve.run_serve}[workload]
    return runner(seed, seconds, trace)


def result_line(raw: dict, trace: bool, spec: dict) -> dict:
    """The final JSON object of one run (the last line of standard output)."""
    tally = raw["tally"]
    if trace:
        values = dict(raw["trace"]["layer"])
        wanted = spec["per_layer"]
        for metric in wanted:  # layers a workload does not reach did 0 work
            values.setdefault(metric["name"], 0.0)
    else:
        values = dict(raw["end_to_end"])
        values["setup_s"] = median(raw["setup"])
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in wanted}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    return {"correct": tally.failed == 0 and tally.attempted > 0 and finite,
            "attempted": max(1, tally.attempted), "failed": tally.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC.relative_to(ROOT)}/"
              f"repro; run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from common import stamp

    spec = load_spec()
    trace = bool(args.trace)
    raw = run_workload(args.workload, args.seed, args.seconds, trace)
    line = result_line(raw, trace, spec)
    run_stamp = stamp()
    summary = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "stamp": run_stamp,
        "samples": timing_summary(raw["walls"]) if raw.get("walls") else {},
        "walls": raw["walls"] if len(raw.get("walls", ())) <= 1000 else None,
        "setup_samples": raw["setup"], "rungs": raw.get("rungs"),
        "failures": raw["tally"].reasons, "result": line,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if trace:
        summary["trace"] = {k: v for k, v in raw["trace"].items()
                            if k != "layer"}
    (OUT / name).write_text(json.dumps(summary, default=str) + "\n")
    for reason in raw["tally"].reasons:
        print(f"[fail] {reason}")
    print("stamp " + json.dumps(run_stamp, sort_keys=True))
    print("samples " + json.dumps(summary["samples"], sort_keys=True))
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
