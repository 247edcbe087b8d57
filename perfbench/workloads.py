"""The three workloads, driven from the benchmark's parent process.

Each runner returns ``(e2e_metrics, layer_metrics, ops, wrong_keys,
records)``; ``run.py`` prints the metrics its ``--trace`` flag selects.
"""

from __future__ import annotations

import gc
import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import probes
from child import save_batches, save_cold
from common import (IN_FLIGHT, REQUEST_KEYS, ROOT, WORK, LineConn, LiveRecord,
                    Ops, TableOracle, Tracer, check_answers, dir_bytes, drive,
                    input_record, median, now, reply_answer,
                    request_bodies, request_message, vmhwm_mb)

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Size:
    """Input sizes of one benchmark size (``full`` or ``tiny``)."""

    setups: int            # lineitem builds; setup_s takes their median
    mixed_setups: int      # mixed-rw builds (each is short, so more)
    scale: float           # TPC-H lineitem scale (60,000 rows per unit)
    epochs: int            # training epochs of the lineitem shards
    batch: int             # keys per batch-lookup call
    n_batches: int         # distinct batch-lookup batches, cycled
    pool_budget: int       # bytes; below the decompressed T_aux of `scale`
    requests: int          # distinct 16-key requests, cycled
    warm: int              # served warm-up requests per phase
    blocks: int            # phase-one + phase-two blocks per serve round
    one: int               # phase-one requests per block
    loaded: int            # phase-two requests per block
    probe_one: int         # in-process serve probe, one in flight
    probe_loaded: int      # in-process serve probe, 32 in flight
    lookup_rounds: int     # batch-lookup processes per run
    write_rounds: int      # write-probe rounds of a traced read-only run
    cold_extra: int        # extra cold-open processes of a traced run
    rows: int              # mixed-rw table rows
    mixed_epochs: int      # training epochs of the mixed-rw shards
    read_keys: int         # keys per mixed-rw lookup call
    write_rows: int        # rows per insert / update / delete call


SIZES = {
    "full": Size(setups=3, mixed_setups=5, scale=2.0, epochs=2,
                 batch=10_000, n_batches=32, pool_budget=1 << 20,
                 requests=512, warm=64, blocks=6, one=100, loaded=1000,
                 probe_one=150, probe_loaded=2000, lookup_rounds=3,
                 write_rounds=40, cold_extra=3,
                 rows=100_000, mixed_epochs=4, read_keys=2000,
                 write_rows=250),
    "tiny": Size(setups=1, mixed_setups=1, scale=0.1, epochs=1, batch=500,
                 n_batches=4, pool_budget=1 << 16, requests=32, warm=4,
                 blocks=2, one=5, loaded=32, probe_one=8, probe_loaded=64,
                 lookup_rounds=1, write_rounds=2,
                 cold_extra=1, rows=4000, mixed_epochs=1, read_keys=200,
                 write_rows=20),
}

N_SHARDS = 4


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def run_child(mode: str, spec: dict, work: Path) -> dict:
    """Run ``child.py <mode>`` to completion; its last line is the result."""
    path = work / f"{mode}-spec.json"
    path.write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), mode,
                           str(path)], env=child_env(), capture_output=True,
                          text=True, timeout=150)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cold_opens(spec: dict, batch, expected, work: Path, ops: Ops, wrong,
               count: int):
    """Cold starts in ``count`` fresh processes: open, answer ``batch``.

    A second read-only open in one process shares the first open's
    payload cache, so each cold start needs a process of its own.
    Returns the samples in ms.
    """
    save_cold(work / "cold.npz", batch, expected)
    samples = []
    for _ in range(count):
        out = run_child("cold", {**spec, "work": str(work)}, work)
        ops.merge(out["ops"])
        wrong[0] += out["wrong"]
        samples.append(out["cold_open_ms"])
    return samples


def shard_ranges(router, leading: np.ndarray):
    """Per-shard ``(lo, hi)`` of the leading key column at fit time."""
    ids = router.route({router.key_names[0]: leading})
    lo = np.full(router.n_shards, np.iinfo(np.int64).max)
    hi = np.full(router.n_shards, np.iinfo(np.int64).min)
    np.minimum.at(lo, ids, leading)
    np.maximum.at(hi, ids, leading)
    return lo, hi


def inside_shards(router, ranges, candidates: np.ndarray) -> np.ndarray:
    """Mask of leading keys inside their owning shard's fitted range.

    A range shard's key domain spans only its own keys; a key between
    one shard's largest key and the next cut routes to that shard but
    lies outside its domain, and inserting it retrains the shard.
    """
    ids = router.route({router.key_names[0]: candidates})
    return (candidates >= ranges[0][ids]) & (candidates <= ranges[1][ids])


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def lineitem_table(seed: int, size: Size):
    from repro.data import tpch

    return tpch.generate("lineitem", size.scale, seed=seed)


def lineitem_keys(table, rng, n: int):
    """``n`` composite keys: half hits, a quarter in-domain gaps, a
    quarter outside the key domain.

    Order keys are 1 mod 4, so keys 3 mod 4 inside the order-key range
    are gaps; keys past the largest order key, and line numbers 0 and
    8-15, fall outside the domain.
    """
    ok = table.column("l_orderkey")
    ln = table.column("l_linenumber")
    lo, hi = int(ok.min()), int(ok.max())
    n_hit, n_gap = n // 2, n // 4
    n_out = n - n_hit - n_gap
    rows = rng.integers(0, ok.size, n_hit)
    gap_ok = lo + 2 + 4 * rng.integers(0, max((hi - lo) // 4, 1), n_gap)
    half = n_out // 2
    out_ok = np.concatenate([hi + 4 * rng.integers(1, 1000, half),
                             ok[rng.integers(0, ok.size, n_out - half)]])
    out_ln = np.concatenate([rng.integers(1, 8, half),
                             rng.choice([0, 8, 9, 15], n_out - half)])
    perm = rng.permutation(n)
    return {"l_orderkey": np.concatenate([ok[rows], gap_ok, out_ok])[perm],
            "l_linenumber": np.concatenate([ln[rows],
                                            rng.integers(1, 8, n_gap),
                                            out_ln])[perm].astype(np.int64)}


def lineitem_writes(table, router, rng, width: int):
    """Write rounds for the lineitem store: gap inserts, then updates and
    deletes of disjoint live rows, each with values from the table's own
    vocabulary.  Inserted order keys stay inside their shard's range."""
    ok = table.column("l_orderkey")
    lo, hi = int(ok.min()), int(ok.max())
    gaps = lo + 2 + 4 * rng.permutation(max((hi - lo) // 4, 1))
    gaps = gaps[inside_shards(router, shard_ranges(router, ok), gaps)]
    live = rng.permutation(table.n_rows)
    vocab = {n: np.unique(table.column(n)) for n in table.value_columns}

    def values(count):
        return {n: v[rng.integers(0, v.size, count)] for n, v in vocab.items()}

    for r in range(min(gaps.size // width, table.n_rows // (2 * width))):
        ins = {"l_orderkey": gaps[r * width:(r + 1) * width],
               "l_linenumber": rng.integers(1, 8, width).astype(np.int64),
               **values(width)}
        upd_rows = live[2 * r * width:(2 * r + 1) * width]
        del_rows = live[(2 * r + 1) * width:(2 * r + 2) * width]
        upd = {k: table.column(k)[upd_rows] for k in table.key}
        upd.update(values(width))
        dele = {k: table.column(k)[del_rows] for k in table.key}
        yield ins, upd, dele


def build_store(make_table, config, directory: Path):
    """Generate, fit and save once; returns the table, store and times."""
    from repro import ShardedDeepMapping, ShardingConfig

    t0 = now()
    table = make_table()
    t1 = now()
    store = ShardedDeepMapping.fit(table, config,
                                   ShardingConfig(n_shards=N_SHARDS))
    t2 = now()
    store.save(str(directory))
    t3 = now()
    return table, store, {"build": t3 - t0, "fit": t2 - t1, "save": t3 - t2}


def setup_builds(make_table, config, work: Path, repeats: int):
    """Build ``repeats`` times from the same inputs; keep the last store.

    The build part of ``setup_s`` is the median of the repetitions, so
    one slow build (a busy neighbour, a cold first fit) does not move it.
    """
    times = []
    store = None
    for r in range(repeats):
        if store is not None:
            store.close()
        directory = work / f"store-{r}"
        table, store, t = build_store(make_table, config, directory)
        times.append(t)
    return table, store, directory, {
        k: median([t[k] for t in times]) for k in ("build", "fit", "save")}


def lineitem_config(seed: int, epochs: int):
    from repro import DeepMappingConfig

    return DeepMappingConfig(epochs=epochs, batch_size=4096,
                             shared_sizes=(64,), private_sizes=(32,),
                             aux_partition_bytes=32 * 1024, seed=seed)


def store_layers(directory: Path, build: dict) -> dict:
    disk = dir_bytes(directory)
    return {"shard.fit_s": build["fit"], "storage.save_s": build["save"],
            "storage.payload_bytes": disk["payload"],
            "shard.manifest_bytes": disk["manifest"]}


class WriteProbe:
    """Write rounds on the parent's fitted lineitem store.

    The timed phase reads the saved copy in another process; this probe
    measures the write path on the same table in the parent, and only
    between timed phases.
    """

    def __init__(self, store, table, seed: int, size: Size):
        self.store = store
        self.rounds = lineitem_writes(table, store.router,
                                      np.random.default_rng([seed, 7]),
                                      size.write_rows)
        self.done = []
        self.count = 0

    def run(self, rounds: int, ops: Ops, tracer: Tracer, wrong) -> None:
        for _ in range(rounds):
            ins, upd, dele = next(self.rounds)
            self.done += probes.write_round(self.store, ops, tracer, wrong,
                                            f"write-{self.count}", ins, upd,
                                            dele)
            self.count += 1


def traced_extras(store, table, seed: int, size: Size, tracer: Tracer,
                  wrong, cold_spec: dict, cold_batch, cold_expected,
                  work: Path) -> dict:
    """Write-path and cold-open metrics of a read-only workload.

    Traced runs only.  The write probe runs on the parent's fitted
    lineitem store (the timed phase read the saved copy); the cold opens
    are fresh processes.  Their operations are checked but not counted,
    like every probe.
    """
    writer = WriteProbe(store, table, seed, size)
    writer.run(size.write_rounds, Ops(), tracer, wrong)
    layers = probes.write_metrics(writer.done)
    layers["storage.cold_open_ms"] = median(cold_opens(
        cold_spec, cold_batch, cold_expected, work, Ops(), wrong,
        size.cold_extra))
    return layers


# ----------------------------------------------------------------------
# batch-lookup
# ----------------------------------------------------------------------
def run_batch_lookup(args, work: Path, size: Size):
    table, store, directory, build = setup_builds(
        lambda: lineitem_table(args.seed, size),
        lineitem_config(args.seed, size.epochs), work, size.setups)
    records = [input_record(table)]
    oracle = TableOracle.of(table)
    rng = np.random.default_rng([args.seed, 1])
    oracle.save(work / "oracle.npz")
    batches = [lineitem_keys(table, rng, size.batch)
               for _ in range(size.n_batches)]
    save_batches(work / "batches.npz", batches)
    save_batches(work / "requests.npz",
                 [lineitem_keys(table, rng, REQUEST_KEYS)
                  for _ in range(size.requests)])
    ops = Ops()
    wrong = [0]
    tracer = Tracer(bool(args.trace))
    # Rounds, each a fresh lookup process, so every metric samples the
    # whole run and not one slow or fast stretch of it.
    rounds = []
    for r in range(size.lookup_rounds):
        spawned = time.monotonic()
        out = run_child("lookup", {
            "work": str(work), "store": str(directory),
            "pool_budget": size.pool_budget,
            "seconds": args.seconds / size.lookup_rounds,
            "trace": args.trace,
            "probes": bool(args.trace) and r == size.lookup_rounds - 1,
            "serve_probe": [size.probe_one, size.probe_loaded],
            "trace_out": str(trace_path(args, f"lookup{r}"))}, work)
        out["setup_s"] = out["warm_end"] - spawned
        ops.merge(out["ops"])
        wrong[0] += out["wrong"]
        rounds.append(out)
    plain = [t for r in rounds for t in r["plain"]]
    e2e = {
        "setup_s": build["build"] + rounds[0]["setup_s"],
        "keys_per_s": size.batch * len(plain) / sum(plain),
        "lookup_p50_ms": median(plain) * 1e3,
        "disk_bytes_per_raw_byte": dir_bytes(directory)["total"]
        / table.uncompressed_bytes(),
        "rss_mb": median([r["rss_mb"] for r in rounds]),
    }
    layers = {}
    if args.trace:
        traced = [t for r in rounds for t in r["traced"]]
        layers.update(rounds[-1]["layers"])
        layers.update(traced_extras(
            store, table, args.seed, size, tracer, wrong,
            {"store": str(directory), "pool_budget": size.pool_budget},
            batches[0], oracle.expect(batches[0]), work))
        layers.update(store_layers(directory, build))
        layers.update({
            "shard.lookup_ms": median(traced) * 1e3,
            "trace.keys_per_s_overhead_pct": 100.0 * (
                np.mean(traced) / np.mean(plain) - 1.0),
            "trace.lookup_p50_overhead_pct": 100.0 * (
                median(traced) / median(plain) - 1.0)})
    tracer.write(trace_path(args, "parent"))
    store.close()
    return e2e, layers, ops, wrong[0], records


# ----------------------------------------------------------------------
# serve-tcp
# ----------------------------------------------------------------------
def serve_round(directory: Path, requests, expected, size: Size, ops: Ops,
                wrong, tracer: Tracer, work: Path, r: int) -> dict:
    """Start ``repro serve``, run both phases on one connection, SIGTERM.

    Every round issues the same requests and one shutdown, so the share
    of failed operations is the same in every run.
    """
    n = len(requests)
    bodies = request_bodies(requests)

    def check(idx):
        def fn(rid, reply):
            found, values = reply_answer(reply)
            wrong[0] += check_answers(found, values, *expected[idx[rid]])
        return fn

    def phase(offset, count, in_flight, span):
        idx = [(offset + i) % n for i in range(count)]
        lat, elapsed, failed = drive(conn, [bodies[i] for i in idx],
                                     in_flight, check(idx), tracer, span)
        ops.add("request", count, failed)
        return lat, elapsed

    err_path = work / f"serve-{r}.err"
    spawned = time.monotonic()
    with open(err_path, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(directory)],
            stdout=subprocess.PIPE, stderr=err, env=child_env(), text=True)
    conn = None
    try:
        ready = proc.stdout.readline()
        match = re.search(r" on [^ ]+:(\d+) ", ready)
        if match is None:
            raise RuntimeError(f"repro serve did not start: {ready!r}")
        conn = LineConn(int(match.group(1)))
        ops.add("request", 1)
        check([0])(0, conn.call(request_message(0, requests[0])))
        phase(1, size.warm, 1, "warm")
        phase(1, size.warm, IN_FLIGHT, "warm")
        warm_end = time.monotonic()
        # The two phases alternate in short blocks, so both sample the
        # whole round rather than one slow or fast stretch of it.
        lat_one, lat_loaded, elapsed = [], [], 0.0
        # The client's own cyclic GC is not the server's cost.
        gc.disable()
        for b in range(size.blocks):
            first = (r * size.blocks + b) * (size.one + size.loaded)
            lat_one += phase(first, size.one, 1, "serve.request")[0]
            lat, took = phase(first + size.one, size.loaded, IN_FLIGHT,
                              "serve.request")
            lat_loaded += lat
            elapsed += took
        gc.enable()
        rss = vmhwm_mb(proc.pid)
        # The connection stays open across SIGTERM, as a client's would.
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=60)
    finally:
        gc.enable()
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        if conn is not None:
            conn.close()
    stderr = err_path.read_text()
    failed = proc.returncode != 0 or "Traceback" in stderr
    ops.add("shutdown", 1, int(failed))
    return {"setup_s": warm_end - spawned, "one": lat_one, "loaded": lat_loaded,
            "loaded_keys": size.blocks * size.loaded * REQUEST_KEYS,
            "loaded_s": elapsed, "rss": rss}


def run_serve_tcp(args, work: Path, size: Size):
    import repro

    table, store, directory, build = setup_builds(
        lambda: lineitem_table(args.seed, size),
        lineitem_config(args.seed, size.epochs), work, size.setups)
    records = [input_record(table)]
    oracle = TableOracle.of(table)
    rng = np.random.default_rng([args.seed, 2])
    requests = [lineitem_keys(table, rng, REQUEST_KEYS)
                for _ in range(size.requests)]
    expected = [oracle.expect(req) for req in requests]
    ops = Ops()
    wrong = [0]
    tracer = Tracer(bool(args.trace))
    rounds = []
    start = now()
    while not rounds or now() - start < args.seconds:
        rounds.append(serve_round(directory, requests, expected, size, ops,
                                  wrong, tracer, work, len(rounds)))
    one = [x for r in rounds for x in r["one"]]
    e2e = {
        "setup_s": build["build"] + rounds[0]["setup_s"],
        "keys_per_s": sum(r["loaded_keys"] for r in rounds)
        / sum(r["loaded_s"] for r in rounds),
        "lookup_p50_ms": median(one),
        "disk_bytes_per_raw_byte": dir_bytes(directory)["total"]
        / table.uncompressed_bytes(),
        "rss_mb": median([r["rss"] for r in rounds]),
    }
    layers = {}
    if args.trace:
        # In-process layer probes over a read-only open of the same store.
        t0 = now()
        ro = repro.open(str(directory), writable=False)
        t1 = now()
        batch = {k: np.concatenate([req[k] for req in requests[:64]])
                 for k in table.key}
        ro.lookup(batch)
        t2 = now()
        warm = median([_timed_lookup(ro, batch) for _ in range(5)])
        layers, overheads = probes.layer_probes(
            ro, requests[:200], requests[:200], oracle,
            (size.probe_one, size.probe_loaded), tracer, wrong)
        layers.update(overheads)
        layers.update(traced_extras(
            store, table, args.seed, size, tracer, wrong,
            {"store": str(directory)}, requests[0], expected[0], work))
        layers.update({"storage.open_ms": (t1 - t0) * 1e3,
                       "core.first_probe_ms": (t2 - t1 - warm) * 1e3,
                       "shard.lookup_ms": median(
                           tracer.durations_ms("shard.lookup"))})
        ro.close()
        layers.update(store_layers(directory, build))
    store.close()
    tracer.write(trace_path(args, "parent"))
    return e2e, layers, ops, wrong[0], records


def _timed_lookup(store, batch) -> float:
    t0 = now()
    store.lookup(batch)
    return now() - t0


# ----------------------------------------------------------------------
# mixed-rw
# ----------------------------------------------------------------------
class MixedLoad:
    """Seeded operation rounds over a single-column store and its record.

    A round is lookup, insert, lookup, update, lookup, delete: three
    lookup calls and one write call of each kind, each write read back.
    Inserts go into gaps of the original key range, so the key domain
    never widens and nothing retrains.
    """

    def __init__(self, table, size: Size, router):
        keys = table.column("key")
        values = table.column("value")
        self.lo, self.hi = int(keys.min()), int(keys.max())
        self.vocab = np.unique(values)
        self.record = LiveRecord(self.hi + 1, "value", self.vocab)
        self.record.put(keys, values)
        self.size = size
        self.router = router
        self.ranges = shard_ranges(router, keys)

    def read_batch(self, rng):
        n = self.size.read_keys
        live = self.record.live_keys()
        n_hit, n_gap = n // 2, n // 4
        gaps = rng.integers(self.lo, self.hi + 1, 4 * n_gap)
        gaps = gaps[~self.record.live[gaps]][:n_gap]
        outside = np.concatenate([
            self.lo - rng.integers(1, 1000, (n - n_hit - gaps.size) // 2),
            self.hi + rng.integers(1, 1000, n - n_hit - gaps.size
                                   - (n - n_hit - gaps.size) // 2)])
        keys = np.concatenate([live[rng.integers(0, live.size, n_hit)],
                               gaps, outside])
        return {"key": keys[rng.permutation(keys.size)]}

    def writes(self, rng):
        w = self.size.write_rows
        live = self.record.live_keys()
        free = rng.integers(self.lo, self.hi + 1, 8 * w)
        free = free[~self.record.live[free]
                    & inside_shards(self.router, self.ranges, free)]
        _, first = np.unique(free, return_index=True)
        free = free[np.sort(first)][:w]
        chosen = rng.choice(live, 2 * w, replace=False)

        def values(count):
            return self.vocab[rng.integers(0, self.vocab.size, count)]

        return ({"key": free, "value": values(free.size)},
                {"key": chosen[:w], "value": values(w)},
                {"key": chosen[w:]})


def run_mixed_rw(args, work: Path, size: Size):
    import repro
    from repro import DeepMappingConfig
    from repro.data import ColumnTable, synthetic

    config = DeepMappingConfig(epochs=size.mixed_epochs, batch_size=4096,
                               shared_sizes=(64,), private_sizes=(32,),
                               aux_partition_bytes=32 * 1024, seed=args.seed)
    table, built, directory, build = setup_builds(
        lambda: synthetic.single_column(size.rows, "high", seed=args.seed,
                                        domain_factor=2.0),
        config, work, size.mixed_setups)
    built.close()
    records = [input_record(table)]
    tracer = Tracer(bool(args.trace))
    ops = Ops()
    wrong = [0]

    t0 = now()
    store = repro.open(str(directory))
    t_open = now()
    load = MixedLoad(table, size, store.router)
    warm_batch = load.read_batch(np.random.default_rng([args.seed, 3]))
    expected = load.record.expect(warm_batch)

    def warm_lookup():
        t = now()
        result = ops.run("lookup", store.lookup, warm_batch)
        took = now() - t
        if result is not None:
            wrong[0] += check_answers(result.found, result.values, *expected)
        return took

    first = warm_lookup()
    warm = median([warm_lookup() for _ in range(8)][3:])
    setup_s = build["build"] + now() - t0

    reads = {False: [], True: []}
    done = []
    start = now()
    r = 0
    while r == 0 or now() - start < args.seconds:
        # Traced runs alternate untraced and traced rounds, so tracing
        # overhead is measured against the same process and state.
        traced = bool(args.trace) and r % 2 == 1
        rng = np.random.default_rng([args.seed, 4, r])
        for op, write in zip(("insert", "update", "delete"),
                             load.writes(rng)):
            batch = load.read_batch(rng)
            t = now()
            result = ops.run("lookup", store.lookup, batch)
            dt = now() - t
            if result is not None:
                reads[traced].append(dt)
                if traced:
                    tracer.add("shard.lookup", t, t + dt, f"round-{r}")
                wrong[0] += check_answers(result.found, result.values,
                                          *load.record.expect(batch))
            kept = probes.write_one(store, ops, tracer, wrong, f"round-{r}",
                                    op, write)
            if kept is None:
                continue
            done.append(kept)
            if op == "delete":
                load.record.drop(write["key"])
            else:
                load.record.put(write["key"], write["value"])
        r += 1
    plain = reads[False]
    n_keys = size.read_keys
    layers = {}
    if args.trace:
        traced_reads = reads[True]
        rng = np.random.default_rng([args.seed, 5])
        batches = [load.read_batch(rng) for _ in range(8)]
        keys = np.concatenate([b["key"] for b in batches])
        requests = [{"key": keys[i:i + REQUEST_KEYS]} for i in
                    range(0, min(keys.size, 200 * REQUEST_KEYS) - REQUEST_KEYS
                          + 1, REQUEST_KEYS)]
        layers, _ = probes.layer_probes(
            store, batches, requests, load.record,
            (size.probe_one, size.probe_loaded), tracer, wrong)
        layers.update({
            "storage.open_ms": (t_open - t0) * 1e3,
            "core.first_probe_ms": (first - warm) * 1e3,
            "shard.lookup_ms": median(traced_reads) * 1e3,
            "trace.keys_per_s_overhead_pct": 100.0 * (
                np.mean(traced_reads) / np.mean(plain) - 1.0),
            "trace.lookup_p50_overhead_pct": 100.0 * (
                median(traced_reads) / median(plain) - 1.0),
        })
    final = work / "final"
    store.save(str(final))
    store.close()
    live = load.record.live_keys()
    np.savez(work / "record.npz", live=load.record.live,
             code=load.record.code, vocab=load.vocab)
    first = load.read_batch(np.random.default_rng([args.seed, 6]))
    save_cold(work / "cold.npz", first, load.record.expect(first))
    out = run_child("reopen", {"work": str(work), "store": str(final),
                               "domain": [load.lo, load.hi]}, work)
    ops.merge(out["ops"])
    wrong[0] += out["wrong"]
    raw = ColumnTable({"key": live, "value": load.vocab[load.record.code[live]]},
                      key=("key",)).uncompressed_bytes()
    e2e = {
        "setup_s": setup_s,
        "keys_per_s": n_keys * len(plain) / sum(plain),
        "lookup_p50_ms": median(plain) * 1e3,
        "disk_bytes_per_raw_byte": dir_bytes(final)["total"] / raw,
        "rss_mb": out["rss_mb"],
    }
    if args.trace:
        layers.update(probes.write_metrics(done))
        layers.update(store_layers(final, build))
        layers["storage.cold_open_ms"] = median(
            [out["cold_open_ms"]] + cold_opens(
                {"store": str(final)}, first, load.record.expect(first),
                work, Ops(), wrong, size.cold_extra))
    tracer.write(trace_path(args, "parent"))
    return e2e, layers, ops, wrong[0], records


def trace_path(args, part: str) -> Path:
    return WORK / "traces" / f"{args.workload}-seed{args.seed}-{part}.jsonl"


RUNNERS = {"batch-lookup": run_batch_lookup, "serve-tcp": run_serve_tcp,
           "mixed-rw": run_mixed_rw}
