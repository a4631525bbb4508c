"""The serving workload: ``repro serve`` under an open-loop request stream.

Set-up sweeps a handful of small scenarios into verified records, builds
an oracle store from them with ``repro build-oracle`` (which re-executes
every spec) and starts ``repro serve`` in its own process.  The store
holds more artifacts than the server's hot set, so lookups miss and
evict.  One generator process then sends a seeded stream of
``/distance`` queries, every eighth one a ``/path``, on a fixed schedule
over two keep-alive connections: first at the nominal rate, then up a
ladder of rates, and last as a few bursts that saturate the server.  Each
request is timed from the moment it was due, so a stall is charged to
every request queued behind it.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import pathlib
import random
import re
import select
import signal
import subprocess
import sys
import time
from collections import deque
from typing import Dict, List, Optional

from common import (BENCH_DIR, ROOT, child_env, median,
                    percentile, remove, scratch_dir)
from sim import Tally

#: the scenarios behind the store; 16 artifacts against a hot set of 8
SERVE = {"families": ["er", "ws", "ba", "rgg"], "sizes": [24, 32],
         "algorithms": ["det-n43", "rand-n43"], "workers": 2}

CONNECTIONS = 2
#: one request in eight is a ``/path``, the mix ``bench_serving.py`` sends
PATH_EVERY = 8
#: The rates are fixed, not probed.  No query log or latency objective
#: exists for this server, so they are anchored to its measured capacity:
#: ``bench_serving.py`` measured about 4.8k qps closed-loop on one hot
#: scenario, and the saturation bursts here measure 2k-4.8k qps on a
#: shared 2-vCPU host.  The nominal rate is about a tenth of the former
#: and at most a quarter of the latter, so its latency is mostly service
#: time.  The ladder doubles it twice; 2000 qps is the last doubling
#: below capacity.
NOMINAL_QPS = 500
LADDER_QPS = (1000, 2000)
#: the p99 latency a rate must meet (failed requests count as misses).
#: An assumption, not a requirement from anywhere: about 15x the
#: nominal p50 (1.4-1.7 ms), so only queueing, not service time, misses it.
LIMIT_MS = 25.0
#: shares of ``--seconds``: warm-up, the nominal rate and each other
#: ladder rung; the saturation bursts take the rest
WARMUP_SHARE, NOMINAL_SHARE, RUNG_SHARE = 0.05, 0.30, 0.10
#: sizes the saturation bursts (about the capacity in the host's slow
#: phases, in 1/s); a burst is sent all at once, so its completion rate
#: is the capacity.  The host's speed swings by about 20% from one second
#: to the next, so the bursts are many, follow every rung (spread over
#: the run) and report their median.
BURST_QPS = 2000
BURSTS = 9

READY_TIMEOUT_S = 60.0

#: set-up repetitions, each rebuilding the whole store; one build scatters
#: by about 30% on a shared host, so the median of several is reported
SETUP_REPS = 5


def store_specs():
    """The store's scenarios, the same on every run (default instances).

    The workload seed draws the request stream, not the store: the store
    is set-up, and a fixed one keeps its CONGEST totals, its size and its
    build time from moving with the seed.
    """
    from repro.experiments.spec import ScenarioSpec

    return [ScenarioSpec(family=f, n=n, algorithm=a, strict=False)
            for f in SERVE["families"] for n in SERVE["sizes"]
            for a in SERVE["algorithms"]]


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------

class Server:
    """``repro serve`` (or its traced twin) running in a child process."""

    def __init__(self, store: pathlib.Path, trace_out: Optional[str] = None):
        args = ["serve", "--store", str(store), "--port", "0"]
        if trace_out is None:
            cmd = [sys.executable, "-u", "-m", "repro"] + args
        else:
            cmd = [sys.executable, "-u", str(BENCH_DIR / "serve_proc.py"),
                   trace_out, "--"] + args
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     env=child_env(), cwd=ROOT, text=True)
        self.host, self.port = self._await_ready()

    def _await_ready(self):
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            found = re.search(r"http://([\d.]+):(\d+)", line)
            if found:
                return found.group(1), int(found.group(2))
        self.stop()
        raise RuntimeError("repro serve did not announce its port")

    def peak_rss_mb(self) -> float:
        status = pathlib.Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = re.search(r"VmHWM:\s+(\d+)", status).group(1)
        return int(kib) / 1024.0

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a shell starting the benchmark in the
        # background makes its children ignore SIGINT
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def build_oracle(records: pathlib.Path, store: pathlib.Path) -> None:
    subprocess.run([sys.executable, "-m", "repro", "build-oracle",
                    "--records", str(records), "--out", str(store)],
                   check=True, env=child_env(), cwd=ROOT,
                   stdout=subprocess.DEVNULL)


# ----------------------------------------------------------------------
# the request stream and the open-loop generator
# ----------------------------------------------------------------------

def make_stream(seed: int, oracles: Dict[str, object], count: int) -> list:
    """``count`` seeded requests, each with the answer it must get back.

    Scenarios are drawn uniformly: no query log says which are hot, and
    a store twice the hot set then misses about half the time.
    Unreachable pairs are asked as ``/distance`` (``/path`` refuses
    them by design).
    """
    rng = random.Random(seed)
    keys = sorted(oracles)
    out = []
    for i, key in enumerate(rng.choices(keys, k=count)):
        oracle = oracles[key]
        s, t = rng.randrange(oracle.n), rng.randrange(oracle.n)
        truth = oracle.distance(s, t)
        want_path = i % PATH_EVERY == PATH_EVERY - 1 and not math.isinf(truth)
        route = "/path" if want_path else "/distance"
        wire = (f"GET {route}?scenario={key}&source={s}&target={t} "
                f"HTTP/1.1\r\nHost: bench\r\n\r\n").encode("latin-1")
        out.append((wire, truth, oracle.path(s, t) if want_path else None))
    return out


def check_response(status: int, payload: dict, truth: float,
                   path: Optional[list]) -> Optional[str]:
    """None when the response is bit-identical to the mmap'd planes."""
    if status != 200:
        return f"HTTP {status}: {payload.get('error', payload)}"
    served = payload.get("distance")
    served = math.inf if served is None else served
    if served != truth:
        return f"served {served!r} != plane {truth!r}"
    if path is not None and (payload.get("path") != path
                             or payload.get("hops") != len(path) - 1):
        return f"inconsistent path {payload.get('path')} != {path}"
    return None


async def _read_response(reader):
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = (await reader.readline()).decode("latin-1").strip()
        if not line:
            break
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, json.loads(await reader.readexactly(length))


async def _open_loop(host: str, port: int, stream: list, rate: float,
                     tally: Tally) -> dict:
    conns = [await asyncio.open_connection(host, port)
             for _ in range(CONNECTIONS)]
    pending = [deque() for _ in conns]
    latencies: List[float] = []
    lags: List[float] = []
    state = {"done": 0, "backlog_max": 0, "last": 0.0}

    async def read_all(ci: int, expected: int) -> None:
        reader = conns[ci][0]
        for _ in range(expected):
            status, payload = await _read_response(reader)
            now = time.perf_counter()
            due, truth, path = pending[ci].popleft()
            problem = check_response(status, payload, truth, path)
            if problem:
                tally.fail(problem)
                latencies.append(math.inf)
            else:
                latencies.append(now - due)
            state["done"] += 1
            state["last"] = now

    total = len(stream)
    readers = [asyncio.ensure_future(read_all(ci, len(range(ci, total,
                                                            CONNECTIONS))))
               for ci in range(CONNECTIONS)]
    start = time.perf_counter() + 0.01
    backlog_end = 0
    for i, (wire, truth, path) in enumerate(stream):
        due = start + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        elif i % 256 == 0:  # a burst still lets the readers drain
            await asyncio.sleep(0)
        ci = i % CONNECTIONS
        pending[ci].append((due, truth, path))
        conns[ci][1].write(wire)
        lags.append(time.perf_counter() - due)
        backlog_end = i + 1 - state["done"]
        state["backlog_max"] = max(state["backlog_max"], backlog_end)
    tally.attempted += total
    try:
        await asyncio.wait_for(asyncio.gather(*readers), timeout=30.0)
    except asyncio.TimeoutError:
        missing = total - state["done"]
        tally.fail(f"{missing} request(s) unanswered at {rate} qps", missing)
        latencies += [math.inf] * missing
    for _reader, writer in conns:
        writer.close()
    span = max(state["last"] - start, 1e-9)
    return {"rate": rate, "n": total, "latencies": latencies,
            "p50_ms": percentile(latencies, 50) * 1e3,
            "p99_ms": percentile(latencies, 99) * 1e3,
            "achieved_qps": state["done"] / span,
            "lag_p99_ms": percentile(lags, 99) * 1e3,
            "backlog_max": state["backlog_max"],
            "backlog_end": backlog_end}


def passes(rung: dict) -> bool:
    """p99 within the limit and a backlog the limit can drain."""
    drainable = rung["rate"] * LIMIT_MS / 1e3 + CONNECTIONS
    return rung["p99_ms"] <= LIMIT_MS and rung["backlog_end"] <= drainable


def _get(host: str, port: int, target: str) -> dict:
    async def fetch():
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(f"GET {target} HTTP/1.1\r\nHost: bench\r\n"
                     f"Connection: close\r\n\r\n".encode("latin-1"))
        _status, payload = await _read_response(reader)
        writer.close()
        return payload

    return asyncio.run(fetch())


def cpu_split() -> Optional[tuple]:
    """(generator CPU, server CPU) when two CPUs are available, else None.

    Both processes are busy during a burst.  Left to the scheduler, which
    may place both on one CPU, single bursts of one run ranged over a
    factor of two; pinned apart, they stayed within about 15%.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else None


def drive(server: Server, stream: list, seconds: float, tally: Tally,
          ladder: bool = True) -> dict:
    """Warm-up and the nominal rate, then (optionally) the rest of the
    ladder, with an equal share of the saturation bursts (rate ``inf``:
    every request due at once) after each ladder rung."""
    rungs = [("warm-up", NOMINAL_QPS, seconds * WARMUP_SHARE),
             ("ladder", NOMINAL_QPS, seconds * NOMINAL_SHARE)]
    if ladder:
        groups = len(LADDER_QPS) + 1
        burst_s = seconds * (1 - WARMUP_SHARE - NOMINAL_SHARE
                             - RUNG_SHARE * len(LADDER_QPS)) / BURSTS
        bursts = [("burst", math.inf, burst_s)] * (BURSTS // groups)
        rungs += bursts
        for rate in LADDER_QPS:
            rungs += [("ladder", rate, seconds * RUNG_SHARE)] + bursts
    results = {"warm-up": [], "ladder": [], "burst": []}
    before = after = None
    offset = 0
    own_cpus = os.sched_getaffinity(0)
    split = cpu_split()
    if split is not None:
        os.sched_setaffinity(0, {split[0]})
        os.sched_setaffinity(server.proc.pid, {split[1]})
    try:
        for i, (kind, rate, duration) in enumerate(rungs):
            count = max(1, int(min(rate, BURST_QPS) * duration))
            part = [stream[(offset + k) % len(stream)] for k in range(count)]
            offset += count
            results[kind].append(asyncio.run(_open_loop(
                server.host, server.port, part, rate, tally)))
            if i == 0:
                before = _get(server.host, server.port, "/stats")
            if i == 1:
                after = _get(server.host, server.port, "/stats")
    finally:
        os.sched_setaffinity(0, own_cpus)
    return {"nominal": results["ladder"][0], "ladder": results["ladder"],
            "bursts": results["burst"],
            "stats_before": before, "stats_after": after}


def max_rate(ladder: List[dict]) -> float:
    """The highest ladder rate that passes; 0 when none does."""
    return max((r["rate"] for r in ladder if passes(r)), default=0.0)


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------

def _setup(work: pathlib.Path, tally: Tally):
    """Records, then (build-oracle + server start) ``SETUP_REPS`` times."""
    from repro.experiments.executor import SweepError, SweepExecutor

    specs = store_specs()
    records_dir = work / "records"
    sweep = SweepExecutor(cache_dir=str(records_dir),
                          workers=SERVE["workers"], verify=True)
    tally.attempted += len(specs)
    try:
        records = sweep.run(specs)
    except SweepError as exc:
        for failure in exc.failures:
            tally.fail(f"{failure.spec.label}: {failure.error}")
        records = [r for r in exc.records if r is not None]
    setup, builds = [], []
    server = None
    for rep in range(SETUP_REPS):
        store = work / f"store{rep}"
        t0 = time.perf_counter()
        build_oracle(records_dir, store)
        built = time.perf_counter()
        server = Server(store)
        setup.append(time.perf_counter() - t0)
        builds.append(built - t0)
        if rep < SETUP_REPS - 1:
            server.stop()
    return records, server, store, setup, builds


def _truth(store: pathlib.Path) -> Dict[str, object]:
    from repro.serving import load_artifact

    return {o.hash: o for o in (load_artifact(p, verify=True)
                                for p in sorted(store.glob("*.oracle")))}


def run_serve(seed: int, seconds: float, trace: bool) -> dict:
    tally = Tally()
    work = scratch_dir("serve-")
    server = None
    oracles: Dict[str, object] = {}
    try:
        records, server, store, setup, builds = _setup(work, tally)
        oracles = _truth(store)
        stream = make_stream(seed, oracles, 8192)
        out = {"setup": setup, "tally": tally}
        if trace:
            untraced = drive(server, stream, seconds / 2, tally, ladder=False)
            server.stop()
            trace_out = work / "server-trace.json"
            server = Server(store, trace_out=str(trace_out))
            run = drive(server, stream, seconds, tally)
            server.stop()
            ledger = json.loads(trace_out.read_text())
            out["trace"] = _layer(run, ledger, builds, untraced)
            out["walls"] = run["nominal"]["latencies"]
        else:
            run = drive(server, stream, seconds, tally)
            rss = server.peak_rss_mb()
            server.stop()
            out["walls"] = run["nominal"]["latencies"]
            out["end_to_end"] = {
                "op_p50_ms": run["nominal"]["p50_ms"],
                "throughput_per_s": median([b["achieved_qps"]
                                            for b in run["bursts"]]),
                "congest_rounds": float(sum(r["rounds"] for r in records)),
                "congest_messages": float(sum(r["messages"]
                                              for r in records)),
                "peak_rss_mb": rss,
            }
        out["rungs"] = [{k: v for k, v in r.items() if k != "latencies"}
                        for r in run["ladder"] + run["bursts"]]
        return out
    finally:
        if server is not None:
            server.stop()
        for oracle in oracles.values():
            oracle.close()
        remove(work)


def nominal_requests(spans: List[list]) -> List[float]:
    """Server-side seconds of the requests of the nominal rung.

    ``drive`` asks ``/stats`` right before and right after the nominal
    rung, so its requests are the ones between the first two ``/stats``
    spans.  (The server's own ``/stats`` window would also hold the
    warm-up, and in long runs lose the rung's start.)
    """
    marks = [i for i, span in enumerate(spans)
             if span[0] == "serving.server.stats"]
    return [end - start for name, start, end, _p, _o
            in spans[marks[0]:marks[1]] if name == "serving.server.request"]


def _layer(run: dict, ledger: dict, builds: List[float],
           untraced: dict) -> dict:
    from ledger import durations_by_name

    nominal = run["nominal"]
    server_side = nominal_requests(ledger["spans"])
    before, after = run["stats_before"], run["stats_after"]
    hits = after["store"]["hits"] - before["store"]["hits"]
    misses = after["store"]["misses"] - before["store"]["misses"]
    loads = durations_by_name(ledger["spans"], "serving.artifact.load")
    layer = {
        "serving.server.p50_ms": percentile(server_side, 50) * 1e3,
        "serving.server.p99_ms": percentile(server_side, 99) * 1e3,
        "serve.p99_ms": nominal["p99_ms"],
        "serve.max_rate_qps": max_rate(run["ladder"]),
        "serve.generator_lag_ms": nominal["lag_p99_ms"],
        "serve.backlog_max": float(nominal["backlog_max"]),
        "serving.store.hit_ratio": hits / max(1, hits + misses),
        "serving.store.misses": float(misses),
        "serving.store.evictions": float(after["store"]["evictions"]
                                         - before["store"]["evictions"]),
        "serving.artifact.load_ms": median(loads) * 1e3 if loads else 0.0,
        "serving.artifact.build_s": median(builds),
        "trace.spans": float(len(ledger["spans"])),
        "trace.overhead_frac": (nominal["p50_ms"]
                                / untraced["nominal"]["p50_ms"] - 1.0),
    }
    return {"layer": layer, "ledger": ledger}
