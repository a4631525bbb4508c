"""Which program calls the benchmark wraps, and under which span names.

Every wrapper sits on the attribute through which the calling layer
reaches the callee, so the program runs unchanged: ``repro.apsp.driver``
reaches the paper's steps through its module globals and ``BLOCKERS``,
``repro.experiments.runner`` reaches graph generation, the network, the
algorithm and the record builder through its own globals, and the
executor and the serving store are wrapped at their methods.
"""

from __future__ import annotations

import functools
import time

from ledger import Ledger, Patches

#: the process-wide ledger (sweep workers inherit it across fork)
LEDGER = Ledger()


def _stats(prefix):
    return lambda st: {f"{prefix}rounds": st.rounds,
                       f"{prefix}messages": st.messages}


def _pair_stats(prefix):
    return lambda out: _stats(prefix)(out[-1])


def _blocker_counts(bres):
    out = _stats("blocker.")(bres.stats)
    out["blocker.q_size"] = len(bres.blockers)
    return out


def _in_sssp_counts(results):
    return {"primitives.in_sssp_rounds": sum(r.rounds.rounds for r in results),
            "primitives.in_sssp_messages": sum(r.rounds.messages
                                               for r in results)}


def _qsink_counts(qs):
    return {"pipeline.qsink_rounds": sum(s.rounds for _l, s in qs.log),
            "pipeline.qsink_messages": sum(s.messages for _l, s in qs.log),
            "pipeline.q_prime_size": len(qs.q_prime)}


def instrument_simulation(patches: Patches, ledger: Ledger = LEDGER) -> None:
    """Wrap graph generation, Steps 1-7, verification, records, engine."""
    from repro.apsp import driver
    from repro.apsp.result import APSPResult
    from repro.congest.network import CongestNetwork
    from repro.experiments import executor, runner

    w = ledger.wrap

    def wrap(obj, attr, name, count=None):
        patches.attr(obj, attr, lambda fn: w(name, fn, count))

    wrap(runner, "run_scenario", "experiments.run_scenario")
    wrap(runner, "make_graph", "graphs.make_graph")
    wrap(runner, "CongestNetwork", "congest.network_init")
    wrap(runner, "_execute", "apsp.execute")
    wrap(runner, "_result_fields", "experiments.record")
    wrap(APSPResult, "verify", "apsp.verify")
    wrap(driver, "build_csssp", "csssp.build_csssp", _pair_stats("csssp."))
    patches.item(driver.BLOCKERS, "derandomized", lambda fn: w(
        "blocker.deterministic_blocker_set", fn, _blocker_counts))
    patches.item(driver.BLOCKERS, "randomized", lambda fn: w(
        "blocker.randomized_blocker_set", fn, _blocker_counts))
    wrap(driver, "bellman_ford_many", "primitives.bellman_ford_many",
         _in_sssp_counts)
    wrap(driver, "build_bfs_tree", "primitives.build_bfs_tree",
         _pair_stats("primitives.bfs_"))
    wrap(driver, "gather_and_broadcast", "primitives.gather_and_broadcast",
         _pair_stats("primitives.broadcast_"))
    wrap(driver, "local_closure", "apsp.local_closure")
    wrap(driver, "reversed_qsink", "pipeline.reversed_qsink", _qsink_counts)
    wrap(driver, "broadcast_delivery", "pipeline.broadcast_delivery")
    wrap(driver, "extend_h_hop", "pipeline.extend_h_hop",
         _pair_stats("pipeline.extension_"))
    wrap(CongestNetwork, "run", "congest.network_run",
         lambda st: {"congest.rounds_simulated": st.rounds})
    wrap(CongestNetwork, "run_compressed", "congest.run_compressed")
    wrap(executor.SweepExecutor, "run", "experiments.sweep")
    wrap(executor.SweepExecutor, "_store", "experiments.store")


def traced_runner(spec_dict: dict, verify: bool) -> dict:
    """Sweep-worker entry point: one scenario with its spans attached.

    Workers are forked from the traced parent, so they inherit the
    wrappers.  The spans travel back inside the record's ``timing``
    block, which every record comparison ignores.
    """
    from repro.experiments import runner

    LEDGER.reset()
    record = runner.run_scenario_dict(spec_dict, verify)
    record["timing"]["trace"] = LEDGER.export()
    return record


def _observed(ledger: Ledger):
    """``ServingMetrics.observe`` also logging each request as a span.

    The server times a request itself (parse, dispatch, write) and hands
    the seconds to ``observe``; the span ends now and lasts that long.
    ``/stats`` requests get their own name, so they mark where the
    generator's rungs begin and end in the span list.
    """

    def make(fn):
        @functools.wraps(fn)
        def observe(metrics, route, seconds, status):
            if ledger.enabled:
                end = time.perf_counter()
                name = ("serving.server.stats" if route == "/stats"
                        else "serving.server.request")
                ledger.spans.append([name, end - seconds, end, -1,
                                     ledger.op_id])
            return fn(metrics, route, seconds, status)

        return observe

    return make


def instrument_serving(patches: Patches, ledger: Ledger = LEDGER) -> None:
    """Wrap the store's lookups, its artifact loads and request timing."""
    from repro.serving import server, store

    w = ledger.wrap
    patches.attr(store.OracleStore, "get",
                 lambda fn: w("serving.store.get", fn))
    patches.attr(store, "load_artifact",
                 lambda fn: w("serving.artifact.load", fn))
    patches.attr(server.ServingMetrics, "observe", _observed(ledger))
