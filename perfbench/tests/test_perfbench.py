"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q                      # all, ~15 min
    python3 -m pytest perfbench/tests -q -k "not sensitivity" # ~1 min

The tiny tests shrink every workload to a few seconds by patching the
workload tables; the sensitivity control runs the real sizes.
"""

from __future__ import annotations

import functools
import json
import pathlib
import sys
import time

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import serve  # noqa: E402
import sim  # noqa: E402
from common import median  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}


@pytest.fixture
def tiny(monkeypatch):
    """Every workload at toy size: seconds instead of minutes."""
    monkeypatch.setattr(sim, "APSP", dict(sim.APSP, n=24, graphs=2))
    monkeypatch.setattr(sim, "SWEEP", dict(
        sim.SWEEP, families=["er", "path"], sizes=[12],
        algorithms=["det-n43", "naive-bf"]))
    monkeypatch.setattr(serve, "SERVE", dict(
        serve.SERVE, families=["er", "ws"], sizes=[12],
        algorithms=["det-n43"]))
    monkeypatch.setattr(serve, "NOMINAL_QPS", 100)
    monkeypatch.setattr(serve, "LADDER_QPS", (200,))
    monkeypatch.setattr(serve, "BURST_QPS", 200)
    monkeypatch.setattr(serve, "SETUP_REPS", 1)


def measure(workload, seed=1, trace=False, seconds=2.0):
    raw = run.run_workload(workload, seed, seconds, trace)
    return raw, run.result_line(raw, trace, SPEC)


def worse_by(name, base, new):
    """Relative change of ``name`` in its worse direction."""
    change = (new - base) / base
    return change if BETTER[name] == "lower" else -change


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass_emits_every_metric_with_its_unit(tiny, workload, trace):
    _raw, line = measure(workload, trace=trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in line["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_injected_failing_scenario_raises_error_rate(tiny, monkeypatch):
    from repro.experiments import runner

    real = runner.run_scenario
    target = sim.apsp_specs(1)[0]

    def flaky(spec, verify=True):
        if spec == target:
            raise AssertionError("injected: distance error")
        return real(spec, verify=verify)

    monkeypatch.setattr(runner, "run_scenario", flaky)
    _raw, line = measure("apsp-er-n256")
    assert line["failed"] >= 1 and not line["correct"]


def test_injected_non_200_response_raises_error_rate(tiny, monkeypatch):
    real = serve.make_stream

    def with_unknown_scenario(seed, oracles, count):
        stream = real(seed, oracles, count)
        wire, truth, path = stream[3]
        bad = wire.replace(b"scenario=", b"scenario=missing")
        return stream[:3] + [(bad, truth, path)] + stream[4:]

    monkeypatch.setattr(serve, "make_stream", with_unknown_scenario)
    _raw, line = measure("serve-oracle-store")
    assert line["failed"] >= 1 and not line["correct"]


def test_wrong_served_distance_is_a_failure():
    assert serve.check_response(200, {"distance": 1.5}, 1.5, None) is None
    assert serve.check_response(200, {"distance": 1.5 + 2**-40}, 1.5, None)
    assert serve.check_response(200, {"distance": None}, float("inf"),
                                None) is None
    assert serve.check_response(200, {"distance": 2.0, "path": [0, 2],
                                      "hops": 1}, 2.0, [0, 1, 2])
    assert serve.check_response(404, {"error": "unknown"}, 2.0, None)


class _Plane:
    """A stand-in oracle: distance |s - t| along a path graph."""

    n = 6

    def distance(self, s, t):
        return float(abs(s - t))

    def path(self, s, t):
        step = 1 if t >= s else -1
        return list(range(s, t + step, step))


def test_same_seed_same_counts_other_seed_other_inputs(tiny):
    _r1, a = measure("apsp-er-n256", seed=3, seconds=0.1)
    _r2, b = measure("apsp-er-n256", seed=3, seconds=0.1)
    for name in ("congest_rounds", "congest_messages"):
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"]
    assert sim.apsp_specs(3) == sim.apsp_specs(3)
    assert sim.apsp_specs(3) != sim.apsp_specs(4)
    assert sim.sweep_specs(3) != sim.sweep_specs(4)
    planes = {"a": _Plane(), "b": _Plane()}
    assert serve.make_stream(3, planes, 64) == serve.make_stream(3, planes, 64)
    assert serve.make_stream(3, planes, 64) != serve.make_stream(4, planes, 64)


def test_predecessor_check_catches_a_wrong_predecessor():
    from repro.experiments.registry import make_graph
    from repro.experiments.runner import _execute
    from repro.experiments.spec import ScenarioSpec
    from repro.congest.network import CongestNetwork

    spec = ScenarioSpec(family="er", n=16, algorithm="det-n43", strict=False)
    graph = make_graph(spec.family, spec.n, spec.seed, spec.weights)
    result = _execute(spec, graph, CongestNetwork(graph, strict=False))
    assert sim.check_predecessors(result, graph) is None
    x, t = 0, int(result.dist[0].argmax())
    result.pred[x, t] = x if result.pred[x, t] != x else t
    assert sim.check_predecessors(result, graph) is not None


def test_self_time_subtracts_children_but_not_engine_overlay():
    from ledger import self_times

    spans = [["experiments.run_scenario", 0.0, 10.0, -1, 0],
             ["csssp.build_csssp", 1.0, 5.0, 0, 0],
             ["congest.run_compressed", 2.0, 4.0, 1, 0],
             ["graphs.make_graph", 2.5, 3.0, 2, 0]]
    assert self_times(spans) == [6.0, 3.5, 2.0, 0.5]
    assert sim.coverage_by_op(spans) == {0: 0.4}


def test_server_side_latency_is_the_nominal_rung_only():
    spans = [["serving.server.request", 0.0, 9.0, -1, 0],  # warm-up
             ["serving.server.stats", 9.0, 9.1, -1, 0],
             ["serving.store.get", 9.2, 9.3, -1, 0],
             ["serving.server.request", 9.2, 9.5, -1, 0],
             ["serving.server.request", 9.6, 9.8, -1, 0],
             ["serving.server.stats", 10.0, 10.1, -1, 0],
             ["serving.server.request", 10.2, 19.0, -1, 0]]  # next rung
    assert serve.nominal_requests(spans) == pytest.approx([0.3, 0.2])


def sleep_proportional(fn, factor):
    """``fn`` followed by a sleep of ``factor`` times its own duration."""

    @functools.wraps(fn)
    def slowed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            time.sleep(factor * (time.perf_counter() - t0))

    return slowed


#: the injected delay, as a multiple of the blocker's own time.  Step 2
#: is about a third of an n=256 scenario, so 2x adds about 70%: a delay
#: of half its time (+17%) would sit inside the 0.25 bound this host's
#: drift forces, and a delay of 1x measured only +16% in one attempt.
DELAY_FACTOR = 2.0


def _compressed_blocker_delay(monkeypatch, factor=DELAY_FACTOR):
    """Slow Step 2 by ``factor`` of its own time, in compressed mode only.

    This models a regression of the round-compressed Step-2 path (the
    one ROADMAP item 5 rewrites); the message-level Step 2 that the
    sweep slice runs is left alone, so the sweep must not move.
    """
    from repro.apsp import driver

    real = driver.BLOCKERS["derandomized"]
    slowed = sleep_proportional(real, factor)

    def blocker(net, coll, params=None):
        return (slowed if net.compress else real)(net, coll, params)

    monkeypatch.setitem(driver.BLOCKERS, "derandomized", blocker)


#: alternated base/delayed pairs per workload; the medians are compared
PAIRS = 3


def test_sensitivity_control(monkeypatch):
    """A slower compressed Step 2 shows where it should and nowhere else.

    The blocker's own metric comes from one traced pass each way.  The
    end-to-end metrics come from untraced runs of the real length, in
    ``PAIRS`` base/delayed pairs per workload whose order alternates, so
    host drift hits both sides alike; each side reports its median.
    """
    seconds = SPEC["run_seconds"]

    def measured(workload, delayed, trace):
        with monkeypatch.context() as patch:
            if delayed:
                _compressed_blocker_delay(patch)
            return run.run_workload(workload, 7, seconds, trace)

    step = "blocker.deterministic_blocker_set_s"
    b0 = measured("apsp-er-n256", False, True)["trace"]["layer"][step]
    b1 = measured("apsp-er-n256", True, True)["trace"]["layer"][step]
    report = {"apsp-er-n256": {step: {"base": b0, "slow": b1}}}
    change = {}
    for workload in run.WORKLOADS:
        sides = {False: [], True: []}
        for i in range(PAIRS):
            for delayed in ((False, True) if i % 2 == 0 else (True, False)):
                sides[delayed].append(measured(workload, delayed,
                                               False)["end_to_end"])
        report.setdefault(workload, {})["runs"] = {
            "base": sides[False], "slow": sides[True]}
        change[workload] = {
            name: worse_by(name, median([r[name] for r in sides[False]]),
                           median([r[name] for r in sides[True]]))
            for name in ("op_p50_ms", "throughput_per_s")}
        report[workload]["worse_by"] = change[workload]
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    (ROOT / ".perfbench_out" / "sensitivity.json").write_text(
        json.dumps(report, indent=2))
    assert b1 / b0 - 1 > DELAY_FACTOR / 2, (b0, b1)
    for name in ("op_p50_ms", "throughput_per_s"):
        assert change["apsp-er-n256"][name] > BOUND[name], change
        for workload in ("sweep-report-slice", "serve-oracle-store"):
            assert change[workload][name] <= BOUND[name], change
