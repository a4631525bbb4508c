"""The two simulation workloads: one APSP scenario and a sweep slice."""

from __future__ import annotations

import resource
import time
from typing import Dict, List, Optional

import numpy as np

import layers
from common import median, peak_rss_mb, remove, scratch_dir, setup_probe
from ledger import Patches, self_times, totals_by_name

#: one det-n43 scenario on ER n=256, batched compressed engine, verified;
#: each run cycles over ``graphs`` instances drawn from the workload seed
APSP = {"family": "er", "n": 256, "algorithm": "det-n43", "graphs": 4}

#: the 50-scenario slice of the ``report`` sweep preset, fast engine
SWEEP = {"families": ["er", "path", "ws", "ba", "rgg"], "sizes": [32, 48],
         "algorithms": None, "workers": 2}

#: a traced scenario's named spans must cover at least this share of its
#: wall time (the rest is run_scenario and algorithm glue)
COVERAGE_MIN = 0.97

SETUP_MODULES = ["repro.experiments.executor", "repro.apsp.driver"]

#: per-scenario self time reported per layer (metric -> span name)
STEP_SPANS = {
    "graphs.make_graph_s": "graphs.make_graph",
    "congest.network_init_s": "congest.network_init",
    "csssp.build_csssp_s": "csssp.build_csssp",
    "blocker.deterministic_blocker_set_s": "blocker.deterministic_blocker_set",
    "blocker.randomized_blocker_set_s": "blocker.randomized_blocker_set",
    "primitives.bellman_ford_many_s": "primitives.bellman_ford_many",
    "primitives.build_bfs_tree_s": "primitives.build_bfs_tree",
    "primitives.gather_and_broadcast_s": "primitives.gather_and_broadcast",
    "apsp.local_closure_s": "apsp.local_closure",
    "pipeline.reversed_qsink_s": "pipeline.reversed_qsink",
    "pipeline.extend_h_hop_s": "pipeline.extend_h_hop",
    "apsp.verify_s": "apsp.verify",
    "congest.network_run_s": "congest.network_run",
    "congest.run_compressed_s": "congest.run_compressed",
}

#: glue spans whose self time is reported as ``apsp.unattributed_s``
GLUE = ("experiments.run_scenario", "apsp.execute")


def graph_seed(seed: int, i: int) -> int:
    """Instance seed ``i`` of workload seed ``seed`` (disjoint per seed)."""
    return seed * 1000 + i


def apsp_specs(seed: int):
    from repro.experiments.spec import ScenarioSpec

    return [ScenarioSpec(family=APSP["family"], n=APSP["n"],
                         algorithm=APSP["algorithm"], seed=graph_seed(seed, i),
                         strict=False, compress=True)
            for i in range(APSP["graphs"])]


def sweep_specs(seed: int):
    from repro.experiments.registry import ALGORITHMS
    from repro.experiments.spec import ScenarioSpec

    algorithms = SWEEP["algorithms"] or sorted(ALGORITHMS)
    return [ScenarioSpec(family=f, n=n, algorithm=a, seed=graph_seed(seed, 0),
                         strict=False)
            for f in SWEEP["families"] for n in SWEEP["sizes"]
            for a in algorithms]


def exact(record: dict) -> dict:
    from repro.experiments.executor import strip_timing

    return strip_timing(record)


class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.reasons) < 10:
            self.reasons.append(reason)


# ----------------------------------------------------------------------
# apsp-er-n256
# ----------------------------------------------------------------------

def _scenario_cycle(specs, tally: Tally, first: Dict[str, dict],
                    walls: List[float], records: List[dict]) -> None:
    """Run every spec once, serially, through ``runner.run_scenario``."""
    from repro.experiments import runner

    for i, spec in enumerate(specs):
        tally.attempted += 1
        layers.LEDGER.op_id = i
        t0 = time.perf_counter()
        try:
            record = runner.run_scenario(spec, verify=True)
        except Exception as exc:  # a failed scenario is counted, not fatal
            tally.fail(f"{spec.label}: {type(exc).__name__}: {exc}")
            continue
        wall = time.perf_counter() - t0
        if not record.get("verified"):
            tally.fail(f"{spec.label}: record not verified")
            continue
        seen = first.setdefault(spec.key, exact(record))
        if seen != exact(record):
            tally.fail(f"{spec.label}: repeated run gave a different record")
            continue
        walls.append(wall)
        records.append(record)


def check_predecessors(result, graph) -> Optional[str]:
    """Exact vectorized check of the predecessor plane; None when right.

    Every finite pair ``x != t`` must name a predecessor ``p`` with an
    edge ``(p, t)`` and ``dist[x, p] + w(p, t) == dist[x, t]`` bit for
    bit (weights sit on a dyadic grid); the source and unreachable pairs
    carry ``-1``.
    """
    n = graph.n
    weight = np.full((n, n), np.inf)
    for v in range(n):
        for u, w, _tb in graph.out_edges(v):
            weight[v, u] = min(weight[v, u], w)
    dist, pred = result.dist, result.pred
    if pred is None:
        return "no predecessor plane"
    finite = np.isfinite(dist)
    np.fill_diagonal(finite, False)
    if (pred[~finite] != -1).any():
        return "predecessor set on a source or unreachable pair"
    xs, ts = np.nonzero(finite)
    ps = pred[xs, ts]
    if (ps < 0).any():
        return "reachable pair without predecessor"
    if not np.isfinite(weight[ps, ts]).all():
        return "predecessor is not an in-neighbour"
    if not (dist[xs, ps] + weight[ps, ts] == dist[xs, ts]).all():
        return "dist[x, p] + w(p, t) != dist[x, t]"
    return None


def _apsp_setup() -> List[float]:
    from repro.experiments.runner import run_scenario
    from repro.experiments.spec import ScenarioSpec

    times = setup_probe(SETUP_MODULES)
    # warm the numpy paths once, untimed, so the first instance is not
    # charged for lazy initialisation
    run_scenario(ScenarioSpec(family="er", n=32, algorithm="det-n43",
                              strict=False, compress=True), verify=True)
    return times


def run_apsp(seed: int, seconds: float, trace: bool) -> dict:
    tally = Tally()
    setup = _apsp_setup()
    specs = apsp_specs(seed)
    first: Dict[str, dict] = {}
    walls: List[float] = []
    records: List[dict] = []
    t0 = time.perf_counter()
    # whole cycles, so every instance weighs the same; another cycle only
    # when at least half of it fits in the measuring time
    while True:
        c0 = time.perf_counter()
        _scenario_cycle(specs, tally, first, walls, records)
        now = time.perf_counter()
        if trace or not walls or now + (now - c0) / 2 - t0 >= seconds:
            break
    untraced_wall = time.perf_counter() - t0
    distinct = list(first.values())
    out = {
        "setup": setup,
        "walls": walls,
        "end_to_end": {
            "op_p50_ms": median(walls) * 1e3 if walls else float("nan"),
            "throughput_per_s": len(walls) / untraced_wall,
            "congest_rounds": float(sum(r["rounds"] for r in distinct)),
            "congest_messages": float(sum(r["messages"] for r in distinct)),
            "peak_rss_mb": peak_rss_mb(),
        },
        "tally": tally,
    }
    if trace:
        out["trace"] = _trace_apsp(specs, tally, first, untraced_wall)
        out["trace"]["layer"]["experiments.scenario_s_p50"] = median(walls)
    return out


def _trace_apsp(specs, tally: Tally, first: Dict[str, dict],
                untraced_wall: float) -> dict:
    from repro.apsp.result import APSPResult

    captured = []
    patches = Patches()
    layers.instrument_simulation(patches)
    patches.attr(APSPResult, "verify", lambda fn: _capture(fn, captured))
    layers.LEDGER.reset()
    layers.LEDGER.enabled = True
    walls: List[float] = []
    records: List[dict] = []
    t0 = time.perf_counter()
    try:
        _scenario_cycle(specs, tally, first, walls, records)
    finally:
        traced_wall = time.perf_counter() - t0
        layers.LEDGER.enabled = False
        patches.undo()
    for result, graph in captured:  # outside the timed region
        problem = check_predecessors(result, graph)
        if problem:
            tally.fail(f"{result.algorithm} n={graph.n}: {problem}")
    ledger = layers.LEDGER.export()
    layer = layer_metrics(ledger["spans"], ledger["counts"], len(records))
    coverage = coverage_by_op(ledger["spans"])
    if min(coverage.values(), default=0.0) < COVERAGE_MIN:
        tally.fail(f"named spans cover {min(coverage.values()):.4f} of a "
                   f"scenario's wall time, below {COVERAGE_MIN}")
    layer["trace.coverage_min"] = min(coverage.values(), default=0.0)
    layer["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    layer["experiments.pool_busy_frac"] = 1.0  # serial: one busy worker
    _check_step_sums(layer, records, tally)
    return {"layer": layer, "ledger": ledger, "coverage": coverage}


def _capture(verify, captured):
    def verify_and_keep(self, graph, *args, **kwargs):
        out = verify(self, graph, *args, **kwargs)
        captured.append((self, graph))
        return out

    return verify_and_keep


def _check_step_sums(layer: dict, records: List[dict], tally: Tally) -> None:
    """Per-step counters must add up to the records' exact totals."""
    for kind in ("rounds", "messages"):
        steps = sum(layer.get(k, 0) for k in (
            f"csssp.{kind}", f"blocker.{kind}", f"primitives.in_sssp_{kind}",
            f"primitives.bfs_{kind}", f"primitives.broadcast_{kind}",
            f"pipeline.qsink_{kind}", f"pipeline.extension_{kind}"))
        total = sum(r[kind] for r in records)
        if steps != total:
            tally.fail(f"per-step {kind} sum {steps} != record total {total}")


def coverage_by_op(spans: List[list]) -> Dict[int, float]:
    """Per scenario: share of wall time inside named (non-glue) spans."""
    own = self_times(spans)
    wall: Dict[int, float] = {}
    glue: Dict[int, float] = {}
    for span, t in zip(spans, own):
        name, start, end, _parent, op = span
        if name == "experiments.run_scenario":
            wall[op] = end - start
        if name in GLUE:
            glue[op] = glue.get(op, 0.0) + t
    return {op: 1.0 - glue.get(op, 0.0) / w for op, w in wall.items()}


def layer_metrics(spans: List[list], counts: Dict[str, float],
                  scenarios: int) -> Dict[str, float]:
    """Per-scenario self times, unattributed glue, and summed counters."""
    totals = totals_by_name(spans)
    per = max(1, scenarios)
    out = {metric: totals.get(name, 0.0) / per
           for metric, name in STEP_SPANS.items()}
    out["apsp.unattributed_s"] = sum(totals.get(g, 0.0) for g in GLUE) / per
    record = totals.get("experiments.record", 0.0)
    store = totals.get("experiments.store", 0.0)
    out["experiments.record_s"] = (record + store) / per
    out.update(counts)
    out["trace.spans"] = float(len(spans))
    return out


# ----------------------------------------------------------------------
# sweep-report-slice
# ----------------------------------------------------------------------

def _one_sweep(specs, tally: Tally, runner=None):
    from repro.experiments import executor

    cache = scratch_dir("sweep-")
    tally.attempted += len(specs)
    t0 = time.perf_counter()
    try:
        sweep = executor.SweepExecutor(cache_dir=str(cache),
                                       workers=SWEEP["workers"], verify=True,
                                       runner=runner)
        try:
            records = sweep.run(specs)
        except executor.SweepError as exc:
            for failure in exc.failures:
                tally.fail(f"{failure.spec.label}: {failure.error}")
            records = exc.records
    finally:
        wall = time.perf_counter() - t0
        remove(cache)
    for spec, record in zip(specs, records):
        if record is not None and not record.get("verified"):
            tally.fail(f"{spec.label}: record not verified")
    return records, wall


def run_sweep(seed: int, seconds: float, trace: bool) -> dict:
    tally = Tally()
    setup = setup_probe(SETUP_MODULES)
    specs = sweep_specs(seed)
    first: Optional[list] = None
    walls: List[float] = []
    busy: List[float] = []
    sweep_walls: List[float] = []
    ok = 0
    t0 = time.perf_counter()
    while True:  # whole sweeps, while at least half of the next one fits
        records, wall = _one_sweep(specs, tally)
        sweep_walls.append(wall)
        done = [r for r in records if r is not None]
        ok += len(done)
        walls += [r["timing"]["wall_s"] for r in done]
        busy.append(sum(r["timing"]["wall_s"] for r in done)
                    / (SWEEP["workers"] * wall))
        first = _compare_sets(first, records, tally)
        if trace or time.perf_counter() + wall / 2 - t0 >= seconds:
            break
    distinct = [r for r in first if r is not None]
    out = {
        "setup": setup,
        "walls": walls,
        "end_to_end": {
            "op_p50_ms": median(walls) * 1e3 if walls else float("nan"),
            "throughput_per_s": ok / sum(sweep_walls),
            "congest_rounds": float(sum(r["rounds"] for r in distinct)),
            "congest_messages": float(sum(r["messages"] for r in distinct)),
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        },
        "tally": tally,
    }
    if trace:
        out["trace"] = _trace_sweep(specs, tally, first, sweep_walls[0])
        out["trace"]["layer"]["experiments.pool_busy_frac"] = median(busy)
        out["trace"]["layer"]["experiments.scenario_s_p50"] = median(walls)
    return out


def _compare_sets(first, records, tally: Tally):
    """The first complete record set; later sets must match it exactly."""
    if first is None:
        return records
    for a, b in zip(first, records):
        if a is not None and b is not None and exact(a) != exact(b):
            tally.fail(f"{a['hash']}: sweep record differs between runs")
    return first


def _trace_sweep(specs, tally: Tally, first, untraced_wall: float) -> dict:
    patches = Patches()
    layers.instrument_simulation(patches)
    layers.LEDGER.reset()
    layers.LEDGER.enabled = True
    try:
        records, traced_wall = _one_sweep(specs, tally,
                                          runner=layers.traced_runner)
    finally:
        layers.LEDGER.enabled = False
        patches.undo()
    _compare_sets(first, records, tally)
    parent = layers.LEDGER.export()
    spans = list(parent["spans"])
    counts = dict(parent["counts"])
    for op, record in enumerate(records):
        if record is None:
            continue
        worker = record["timing"].pop("trace")
        base = len(spans)
        for name, start, end, par, _op in worker["spans"]:
            spans.append([name, start, end, par + base if par >= 0 else -1,
                          op])
        for key, value in worker["counts"].items():
            counts[key] = counts.get(key, 0.0) + value
    done = sum(r is not None for r in records)
    layer = layer_metrics(spans, counts, done)
    layer["trace.coverage_min"] = min(coverage_by_op(spans).values(),
                                      default=0.0)
    layer["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return {"layer": layer, "ledger": {"spans": spans, "counts": counts}}
