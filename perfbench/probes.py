"""Per-layer probes, timed from outside the program.

Each probe calls one layer's public functions directly and times the
call: the router, the four ``LookupPlan`` stages of every shard, the
sharded fan-out, the JSON encoder, the serving tier through an
in-process ``BackgroundTCPServer`` and the write path.  A workload whose
own load does not reach a layer still measures it here, on its own
store and keys, so every traced run reports every per-layer metric.
"""

from __future__ import annotations

import json
from typing import Dict, List

import numpy as np

from common import (IN_FLIGHT, LineConn, Tracer, check_answers, drive,
                    median, now, reply_answer, request_bodies,
                    request_message)

STAGES = ("existence", "aux", "inference", "decode")
COUNTERS = {"shard.pruned_keys": "pruned_keys",
            "storage.pool_misses": "pool_misses",
            "storage.pool_evictions": "pool_evictions"}


def _stages_once(store, key_cols, tracer: Tracer, request) -> Dict[str, float]:
    """Route one batch and run every shard's plan stage by stage.

    Returns the seconds spent per stage summed over shards, plus the
    route time and the rows served from T_aux and by the model.
    """
    out = dict.fromkeys(STAGES, 0.0)
    out.update(aux_rows=0, model_rows=0)
    parent = tracer.begin("probe.stages", request)
    t0 = now()
    ids = store.router.route(key_cols)
    out["route"] = now() - t0
    tracer.add("shard.route", t0, t0 + out["route"], request)
    for ordinal, shard in enumerate(store.shards):
        sel = np.flatnonzero(ids == ordinal)
        if shard is None or sel.size == 0:
            continue
        plan = shard.plan_lookup({n: np.asarray(v)[sel]
                                  for n, v in key_cols.items()})
        t = [now()]
        plan.run_existence()
        t.append(now())
        plan.run_aux()
        t.append(now())
        plan.run_inference()
        t.append(now())
        plan.finish()
        t.append(now())
        for i, stage in enumerate(STAGES):
            out[stage] += t[i + 1] - t[i]
            tracer.add(f"core.{stage}", t[i], t[i + 1], request)
        out["aux_rows"] += int(plan.aux_rows.size)
        out["model_rows"] += int(plan.model_rows.size)
    tracer.end(parent)
    return out


def stage_probe(store, batches, tracer: Tracer) -> Dict[str, float]:
    """Median per batch of route, stage times and stage row counts."""
    rows = [_stages_once(store, b, tracer, f"stage-{i}")
            for i, b in enumerate(batches)]
    metrics = {"shard.route_ms": median([r["route"] for r in rows]) * 1e3}
    for stage in STAGES:
        metrics[f"core.{stage}_ms"] = median([r[stage] for r in rows]) * 1e3
    metrics["core.aux_rows"] = median([r["aux_rows"] for r in rows])
    metrics["core.model_rows"] = median([r["model_rows"] for r in rows])
    return metrics


def fanout_probe(store, requests, tracer: Tracer) -> float:
    """``store.lookup`` minus its four core stages, on small requests.

    Batches this small dispatch inline, so the difference is prune,
    route, sort, dispatch and scatter.  Median over requests, in ms.
    """
    diffs = []
    for i, req in enumerate(requests):
        t0 = now()
        store.lookup(req)
        t1 = now()
        tracer.add("shard.lookup", t0, t1, f"fanout-{i}")
        stages = _stages_once(store, req, tracer, f"fanout-{i}")
        diffs.append((t1 - t0) - sum(stages[s] for s in STAGES))
    return median(diffs) * 1e3


def encode_probe(store, requests) -> float:
    """``encode_result`` + ``json.dumps`` of one request's reply, in ms."""
    from repro.serve.transport import encode_result

    results = [store.lookup(req) for req in requests]
    times = []
    for rid, result in enumerate(results):
        t0 = now()
        json.dumps({"id": rid, **encode_result(result)})
        times.append(now() - t0)
    return median(times) * 1e3


def size_probe(store) -> Dict[str, float]:
    report = store.size_report()
    return {"core.model_bytes": report.model_bytes,
            "core.aux_bytes": report.aux_bytes,
            "core.exist_bytes": report.exist_bytes,
            "core.decode_bytes": report.decode_bytes,
            "core.aux_ratio": float(store.aux_ratio())}


class TimedStore:
    """Store proxy timing each fused ``lookup_async`` from submit to done."""

    def __init__(self, store, tracer: Tracer):
        self._store = store
        self._tracer = tracer
        self.calls: List[float] = []

    def __getattr__(self, name):
        return getattr(self._store, name)

    def lookup_async(self, keys):
        start = now()
        future = self._store.lookup_async(keys)

        def done(_):
            end = now()
            self.calls.append(end - start)
            self._tracer.add("serve.store_call", start, end)

        future.add_done_callback(done)
        return future


def _serve_once(store, requests, expected, n_one: int, n_loaded: int,
                tracer: Tracer, wrong: List[int]):
    """One in-process serving pass: one-in-flight then loaded phase."""
    from repro.serve.transport import BackgroundTCPServer

    def check(rid, reply, reqs):
        found, values = reply_answer(reply)
        exp_found, exp_values = expected[reqs[rid]]
        wrong[0] += check_answers(found, values, exp_found, exp_values)

    one = [i % len(requests) for i in range(n_one)]
    loaded = [(n_one + i) % len(requests) for i in range(n_loaded)]
    server = BackgroundTCPServer(store)
    try:
        conn = LineConn(server.port)
        try:
            lat_one = []
            overheads = []
            for rid, idx in enumerate(one):
                calls_before = len(getattr(store, "calls", ()))
                t0 = now()
                reply = conn.call(request_message(rid, requests[idx]))
                t1 = now()
                tracer.add("serve.request", t0, t1, rid)
                check(rid, reply, one)
                lat_one.append(t1 - t0)
                calls = getattr(store, "calls", None)
                if calls is not None and len(calls) == calls_before + 1:
                    overheads.append((t1 - t0) - calls[-1])
            before = conn.call({"op": "stats"})["stats"]
            lat_loaded, elapsed, failed = drive(
                conn, request_bodies([requests[i] for i in loaded]),
                IN_FLIGHT,
                lambda rid, reply: check(rid, reply, loaded), tracer,
                "serve.request")
            after = conn.call({"op": "stats"})["stats"]
        finally:
            conn.close()
    finally:
        server.close()
    if failed:
        raise RuntimeError(f"{failed} in-process served requests failed")
    keys = sum(int(np.asarray(next(iter(requests[i].values()))).size)
               for i in loaded)
    delta = {k: after[k] - before[k] for k in
             ("batches_formed", "requests_coalesced", "keys_coalesced",
              "unique_keys")}
    return {
        "p50_ms": median(lat_one) * 1e3,
        "keys_per_s": keys / elapsed,
        "overhead_ms": median(overheads) * 1e3 if overheads else None,
        "batch_keys": delta["keys_coalesced"] / max(delta["batches_formed"], 1),
        "coalesce_ratio": delta["requests_coalesced"]
        / max(delta["batches_formed"], 1),
        "dedup_ratio": delta["keys_coalesced"] / max(delta["unique_keys"], 1),
    }


def serve_probe(store, requests, oracle, n_one: int, n_loaded: int,
                tracer: Tracer, wrong: List[int]) -> Dict[str, float]:
    """Serving-tier metrics through an in-process server on ``store``.

    Runs the plain store, then the timing proxy, then both again.
    Returns the proxy's layer metrics, and separately the proxy's
    overhead on the served p50 and on the loaded throughput.
    """
    expected = [oracle.expect(req) for req in requests]
    plain, timed = [], []
    for _ in range(2):
        plain.append(_serve_once(store, requests, expected, n_one, n_loaded,
                                 Tracer(False), wrong))
        proxy = TimedStore(store, tracer)
        timed.append(_serve_once(proxy, requests, expected, n_one, n_loaded,
                                 tracer, wrong))
    last = timed[-1]
    return {
        "serve.store_call_ms": median(
            [(e - s) / 1e6 for n, s, e, *_ in tracer.spans
             if n == "serve.store_call"]),
        "serve.overhead_ms": median([t["overhead_ms"] for t in timed]),
        "serve.batch_keys": last["batch_keys"],
        "serve.coalesce_ratio": last["coalesce_ratio"],
        "serve.dedup_ratio": last["dedup_ratio"],
    }, {
        "trace.lookup_p50_overhead_pct": 100.0 * (
            median([t["p50_ms"] for t in timed])
            / median([p["p50_ms"] for p in plain]) - 1.0),
        "trace.keys_per_s_overhead_pct": 100.0 * (
            median([p["keys_per_s"] for p in plain])
            / median([t["keys_per_s"] for t in timed]) - 1.0),
    }


def write_one(store, ops, tracer: Tracer, wrong: List[int], request,
              op: str, payload):
    """One timed write call, then a read-back of the written keys.

    ``op`` is ``insert`` / ``update`` (``payload`` holds keys and values)
    or ``delete`` (keys only).  Returns ``(op, seconds, rows)``, or None
    when the write raised.
    """
    key_names = tuple(store.key_names)
    rows = int(np.asarray(payload[key_names[0]]).size)
    fn = getattr(store, op)
    t0 = now()
    if ops.run(op, fn, payload) is None:
        return None
    t1 = now()
    tracer.add(f"core.{op}", t0, t1, request)
    result = ops.run("lookup", store.lookup,
                     {n: payload[n] for n in key_names})
    if result is not None:
        values = {n: np.asarray(v) for n, v in payload.items()
                  if n not in key_names}
        wrong[0] += check_answers(result.found, result.values,
                                  np.full(rows, op != "delete"), values)
    return op, t1 - t0, rows


def write_round(store, ops, tracer: Tracer, wrong: List[int], request,
                inserts, updates, deletes):
    """Insert, update and delete one batch each, checking every write."""
    done = [write_one(store, ops, tracer, wrong, request, op, payload)
            for op, payload in (("insert", inserts), ("update", updates),
                                ("delete", deletes))]
    return [d for d in done if d is not None]


def write_metrics(done) -> Dict[str, float]:
    """Write throughput and per-op call medians from write calls.

    ``core.write_rows_per_s`` is rows per second of a median insert,
    update and delete call together.  Background maintenance (aux compaction,
    filter rebuilds) lands on a few calls as spikes of 80-250 ms that
    decide most of the total time, so the all-calls rate is reported
    apart, as ``core.write_amortized_rows_per_s``.
    """
    out = {"core.write_amortized_rows_per_s":
           sum(r for _, _, r in done) / sum(t for _, t, _ in done)}
    seconds = rows = 0.0
    for op in ("insert", "update", "delete"):
        calls = [(t, r) for o, t, r in done if o == op]
        out[f"core.{op}_ms"] = median([t for t, _ in calls]) * 1e3
        seconds += median([t for t, _ in calls])
        rows += median([r for _, r in calls])
    out["core.write_rows_per_s"] = rows / seconds
    return out


def counter_deltas(store, before: Dict[str, int]) -> Dict[str, int]:
    counters = store.stats.counters
    return {metric: counters.get(name, 0) - before.get(name, 0)
            for metric, name in COUNTERS.items()}


def counter_probe(store, batches) -> Dict[str, float]:
    """Store counters moved by one ``store.lookup``, mean per batch."""
    deltas = []
    for batch in batches:
        before = dict(store.stats.counters)
        store.lookup(batch)
        deltas.append(counter_deltas(store, before))
    return {m: float(np.mean([d[m] for d in deltas])) for m in COUNTERS}


def layer_probes(store, batches, requests, oracle, serve_sizes,
                 tracer: Tracer, wrong: List[int]):
    """Every read-side probe on one store.

    Returns ``(layer_metrics, serve_overheads)``.
    """
    out = stage_probe(store, batches, tracer)
    out.update(counter_probe(store, batches))
    out["shard.fanout_ms"] = fanout_probe(store, requests, tracer)
    out["serve.encode_ms"] = encode_probe(store, requests)
    out.update(size_probe(store))
    serve, overheads = serve_probe(store, requests, oracle, *serve_sizes,
                                   tracer, wrong)
    out.update(serve)
    return out, overheads
