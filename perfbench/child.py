"""Processes the benchmark starts, each one opening a saved store afresh.

``python3 perfbench/child.py lookup <spec.json>``
    One batch-lookup round: a read-only open under a pool budget, the
    cold first batch, warm-up, then timed batches for the round length.
``python3 perfbench/child.py cold <spec.json>``
    One more cold start: open the saved store and answer one batch.
``python3 perfbench/child.py reopen <spec.json>``
    The mixed-rw check after saving: reopen the saved store and compare
    every live row, and the gaps, with the benchmark's own record.

A child prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from common import (LiveRecord, Ops, TableOracle, Tracer, check_answers,
                    median, now, vmhwm_mb)
import probes


def load_batches(path: Path):
    """A list of key dicts saved by :func:`save_batches`."""
    with np.load(path) as z:
        stacked = {name: z[name] for name in z.files}
    count = next(iter(stacked.values())).shape[0]
    return [{name: arr[i] for name, arr in stacked.items()}
            for i in range(count)]


def save_batches(path: Path, batches) -> None:
    np.savez(path, **{name: np.stack([b[name] for b in batches])
                      for name in batches[0]})


def cold_lookup(open_store, batch, expected, ops: Ops, wrong):
    """Open a store and answer its first batch, timing both."""
    t0 = now()
    store = open_store()
    t1 = now()
    result = ops.run("lookup", store.lookup, batch)
    t2 = now()
    if result is not None:
        wrong[0] += check_answers(result.found, result.values, *expected)
    return store, (t1 - t0) * 1e3, (t2 - t0) * 1e3, (t2 - t1)


def open_saved(spec):
    """Open the saved store as the workload opens it."""
    import repro

    if spec.get("pool_budget") is None:
        return lambda: repro.open(spec["store"])
    return lambda: repro.open(spec["store"], writable=False,
                              pool_budget_bytes=spec["pool_budget"])


def cold_main(spec):
    with np.load(Path(spec["work"]) / "cold.npz") as z:
        batch = {n[4:]: z[n] for n in z.files if n.startswith("key_")}
        expected = (z["found"], {n[4:]: z[n] for n in z.files
                                 if n.startswith("val_")})
    ops = Ops()
    wrong = [0]
    store, _, cold_ms, _ = cold_lookup(open_saved(spec), batch, expected,
                                       ops, wrong)
    store.close()
    return {"cold_open_ms": cold_ms, "wrong": wrong[0], "ops": ops.counts}


def save_cold(path: Path, batch, expected) -> None:
    """The batch a ``cold`` child answers, with its expected answer."""
    found, values = expected
    np.savez(path, found=found,
             **{f"key_{n}": v for n, v in batch.items()},
             **{f"val_{n}": v for n, v in values.items()})


def lookup_main(spec):
    work = Path(spec["work"])
    oracle = TableOracle.load(work / "oracle.npz")
    batches = load_batches(work / "batches.npz")
    requests = load_batches(work / "requests.npz")
    expected = [oracle.expect(b) for b in batches]
    trace = bool(spec["trace"])
    tracer = Tracer(trace)
    ops = Ops()
    wrong = [0]

    store, open_ms, cold_ms, first_s = cold_lookup(
        open_saved(spec), batches[0], expected[0], ops, wrong)

    def call(i, traced):
        t0 = now()
        result = ops.run("lookup", store.lookup, batches[i])
        t1 = now()
        if traced:
            tracer.add("shard.lookup", t0, t1, f"batch-{i}")
        if result is not None:
            wrong[0] += check_answers(result.found, result.values,
                                      *expected[i])
        return t1 - t0

    for i in range(len(batches)):
        call(i, False)
    warm_first = median([call(0, False) for _ in range(5)])
    warm_end = time.monotonic()

    # Whole passes over the batch list until the run length is used.
    # Traced runs alternate untraced and traced passes so the tracing
    # overhead is measured against the same process and state.
    times = {False: [], True: []}
    start = now()
    n_pass = 0
    while n_pass == 0 or now() - start < spec["seconds"]:
        traced = trace and n_pass % 2 == 1
        times[traced] += [call(i, traced) for i in range(len(batches))]
        n_pass += 1
    out = {"plain": times[False], "traced": times[True],
           "cold_open_ms": cold_ms, "warm_end": warm_end,
           "rss_mb": vmhwm_mb(), "layers": {}}
    if spec["probes"]:
        out["layers"], _ = probes.layer_probes(
            store, batches[:8], requests, oracle, spec["serve_probe"],
            tracer, wrong)
        out["layers"].update({
            "storage.open_ms": open_ms,
            "core.first_probe_ms": (first_s - warm_first) * 1e3})
    if trace:
        tracer.write(Path(spec["trace_out"]))
    out.update(wrong=wrong[0], ops=ops.counts)
    store.close()
    return out


def reopen_main(spec):
    with np.load(Path(spec["work"]) / "record.npz") as z:
        record = LiveRecord(int(z["live"].size), "value", z["vocab"])
        record.live[:] = z["live"]
        record.code[:] = z["code"]
    ops = Ops()
    wrong = [0]
    with np.load(Path(spec["work"]) / "cold.npz") as z:
        first = {"key": z["key_key"]}
    store, _, cold_ms, _ = cold_lookup(open_saved(spec), first,
                                       record.expect(first), ops, wrong)
    # Every key of the record's range, live or not, plus keys outside it.
    lo, hi = spec["domain"]
    probe = np.concatenate([np.arange(lo, hi + 1, dtype=np.int64),
                            np.arange(lo - 1000, lo, dtype=np.int64),
                            np.arange(hi + 1, hi + 1001, dtype=np.int64)])
    for chunk in np.array_split(probe, max(1, probe.size // 20000)):
        batch = {"key": chunk}
        result = ops.run("lookup", store.lookup, batch)
        if result is not None:
            wrong[0] += check_answers(result.found, result.values,
                                      *record.expect(batch))
    # The store's own live-row count must agree with the record too.
    wrong[0] += abs(len(store) - int(record.live.sum()))
    out = {"cold_open_ms": cold_ms, "rss_mb": vmhwm_mb(), "wrong": wrong[0],
           "ops": ops.counts}
    store.close()
    return out


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[2]).read_text())
    result = {"lookup": lookup_main, "reopen": reopen_main,
              "cold": cold_main}[sys.argv[1]](spec)
    print(json.dumps(result))
