"""The sharded DeepMapping store.

:class:`ShardedDeepMapping` partitions a table's key domain across N
independent :class:`~repro.core.deep_mapping.DeepMapping` shards and gives
them one facade with the same surface (``lookup`` / ``lookup_one`` /
``insert`` / ``delete`` / ``update`` / ``save`` / ``load`` /
``size_report``), so existing layers — :func:`repro.core.query.select`,
the CLI, the bench harness — work over it transparently.

Batched lookups run through a pipelined, vectorized read path:

1. **route + prune + sort** — the :mod:`~repro.shard.router` assigns
   every query key a shard ordinal with NumPy array arithmetic; when the
   store carries per-shard
   :class:`~repro.core.negative_filter.NegativeFilter`\\ s (built at fit
   time, persisted in the manifest), keys the owning shard's filter
   rejects go straight to the miss output — no sort slot, no job, no
   dispatch (the filter never false-negatives, so pruning is lossless);
   then one sort puts the *surviving* batch in (shard, key) order: shard
   groups come out contiguous *and* pre-sorted, so no downstream stage
   (notably the aux partition probe) ever sorts again;
2. **staged fan out** — each owning shard runs a
   :class:`~repro.core.deep_mapping.LookupPlan` (existence gate,
   ``T_aux`` probe, aux-gated fused inference through its
   :class:`~repro.nn.compiled.CompiledSession`, decode) as its own job
   on the store's pluggable
   :class:`~repro.store.executors.ExecutorStrategy` (serial, thread
   pool, or free-threading aware; NumPy kernels release the GIL, so
   shard *i* can run inference while shard *j* decompresses aux
   partitions) under one completion-driven dispatcher (inline, one
   unit, or one unit per shard; hedges; deadline).
   :meth:`lookup_async` schedules the whole batch on the same strategy
   and returns a future;
3. **streaming assembly** — every job scatters its finished segment
   straight into preallocated output arrays (disjoint positions), so
   there is no serial concatenate-and-permute merge behind a barrier;
   keys owned by an empty shard (or matching no row) are reported as
   per-key misses.  :meth:`lookup_barrier` keeps the pre-pipeline
   map/merge path as the unpruned reference oracle — bit-identical by
   the parity suite, tracked for speedup by
   ``benchmarks/bench_pipeline.py``.

Modifications route the same way: each row is applied to the owning
shard's auxiliary table, and an insert that targets an empty shard
materializes a fresh shard over those rows.  When the sharding config
carries a :class:`~repro.lifecycle.LifecycleConfig`, every mutation batch
ends with a :class:`~repro.lifecycle.MaintenanceEngine` pass — policy-
driven retrains on the fan-out pool, plus range shard split/merge
rebalancing with per-shard MHAS sizing (``split_shard`` /
``merge_shards`` hold the mechanics; the engine holds the policy).

Persistence reuses the storage substrate: every shard's auxiliary table
runs through :class:`~repro.storage.partition.SortedPartitionStore` with a
per-shard blob prefix into one *shared*
:class:`~repro.storage.buffer_pool.BufferPool`, so a single byte budget
caps resident partitions across the whole store.  ``save()`` writes one
``DeepMapping`` payload per non-empty shard plus a JSON manifest
(:mod:`~repro.shard.manifest`) into any
:class:`~repro.storage.backends.StorageBackend` — a local directory,
an in-memory container, or a zip archive, selected by URL scheme.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from concurrent.futures import ALL_COMPLETED, FIRST_COMPLETED, Future
from concurrent.futures import wait as futures_wait
from contextlib import nullcontext
from dataclasses import dataclass
from math import inf
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.config import DeepMappingConfig
from ..core.deep_mapping import (DeepMapping, KeysLike, LookupResult,
                                 RowsLike, SizeReport, normalize_keys,
                                 normalize_rows)
from ..core.negative_filter import (FilterBank, NegativeFilter,
                                    build_store_filter, filter_from_json,
                                    hash_key_columns)
from ..data.table import ColumnTable
from ..lifecycle import LifecycleConfig, MaintenanceEngine, derive_build_config
from ..resilience.deadline import Deadline
from ..resilience.errors import DeadlineExceeded
from ..resilience.hedging import HedgeController
from ..resilience.partial import PartialResult
from ..storage.backends import StorageBackend, backend_for_url
from ..storage.blob_cache import payload_cache
from ..storage.buffer_pool import BufferPool
from ..storage.hydration import LazyShard
from ..storage.stats import StoreStats
from ..store.executors import ExecutorStrategy, make_executor
from .manifest import CONFIG_NAME, ShardEntry, ShardManifest
from .router import RangeShardRouter, ShardRouter, make_router, router_from_state

__all__ = ["ShardedDeepMapping", "ShardingConfig"]

#: The decode code every per-shard encoder maps a miss to — pruned keys
#: must carry the same vocab[0] filler a dispatched miss would get (see
#: ``LookupPlan.execute_into`` in core/deep_mapping.py).
_ZERO_CODE = np.zeros(1, dtype=np.int64)

#: Filter sizing for the two pruning tiers, in bits per inserted key.
#: The combined manifest growth must stay under 2 bytes/key after the
#: base64 framing (see docs/sharding.md).  The store-level filter is
#: the workhorse — it answers every batch key with zero routing work —
#: so it gets most of the bit budget; the skinny per-shard filters only
#: screen its survivors, where even a ~30% single-tier FPR compounds
#: with the store tier's ~2% to a sub-percent combined pass rate.
_STORE_FILTER_BITS = 8
_SHARD_FILTER_BITS = 3

#: Fan-outs dispatching at most this many keys run inline instead of
#: through the executor: at that size the thread hand-off costs more
#: than the shard work itself (pruned batches especially — the handful
#: of false-positive survivors is existence-checked without inference).
_SERIAL_DISPATCH_MAX = 4096

#: Hit-heavy batches lose money on pruning (the full-batch probe plus
#: survivor compaction outweigh the few skipped dispatches), so batches
#: above ``_PRUNE_SAMPLE_MIN_N`` first probe a ``_PRUNE_SAMPLE``-key
#: stride sample and skip the prune pass entirely unless the sampled
#: prunable fraction clears ``_PRUNE_MIN_FRACTION``.  Results are
#: bit-identical either way — pruning only moves *where* a miss's
#: filler gets written.
_PRUNE_SAMPLE = 4096
_PRUNE_SAMPLE_MIN_N = 16384
_PRUNE_MIN_FRACTION = 0.55


@dataclass
class ShardingConfig:
    """Knobs of the sharded store (orthogonal to the per-shard build)."""

    #: Number of shards the key domain is split into.
    n_shards: int = 4
    #: ``"range"`` (contiguous leading-key ranges, shrinks per-shard
    #: domains) or ``"hash"`` (uniform placement over all key columns).
    strategy: str = "range"
    #: Thread-pool width for fan-out; ``None`` means
    #: ``min(n_shards, cpu_count)``.  Effective width 1 runs inline.
    max_workers: Optional[int] = None
    #: Executor strategy behind the fan-out and ``lookup_async`` — a name
    #: from :data:`repro.store.EXECUTOR_NAMES` (``"serial"`` /
    #: ``"threads"`` / ``"free-threads"``) or an
    #: :class:`~repro.store.executors.ExecutorStrategy` instance.
    #: ``None`` means a thread pool of :meth:`effective_workers` width —
    #: exactly the pre-strategy behavior.
    executor: Union[str, ExecutorStrategy, None] = None
    #: Shared buffer-pool budget for all shards' aux partitions
    #: (``None`` = unbounded).
    pool_budget_bytes: Optional[int] = None
    #: Write-side maintenance: retrain policy, split/merge rebalancing,
    #: per-shard MHAS sizing (see :mod:`repro.lifecycle`).  ``None`` keeps
    #: the store unmanaged — shards retrain inline on their own
    #: thresholds, exactly the pre-lifecycle behavior.
    lifecycle: Optional[LifecycleConfig] = None
    #: Fault-isolation mode of the lookup fan-out.  ``"raise"`` (the
    #: default, the historical behavior): any shard failure fails the
    #: whole batch.  ``"partial"``: a failing or timed-out shard does not
    #: poison the batch — its keys come back marked in a
    #: :class:`~repro.resilience.partial.PartialResult` while healthy
    #: shards' results stay bit-identical.  Overridable per call via
    #: ``lookup(..., on_shard_error=...)``.
    on_shard_error: str = "raise"
    #: Manifest-level miss pruning: build a compact per-shard
    #: :class:`~repro.core.negative_filter.NegativeFilter` (blocked
    #: Bloom, guaranteed no false negatives) at fit time, keep it in
    #: step through inserts and lifecycle split/merge, and persist it in
    #: the shard manifest (<= 2 bytes/key).  The lookup fan-out consults
    #: the filters before any (shard, key) sort or job submission, so
    #: miss keys skip dispatch entirely; results stay bit-identical
    #: either way.  ``False`` disables building (and, on load, ignores
    #: persisted filters).
    negative_filter: bool = True
    #: Hedged shard reads: when a routed shard's plan-job runs well past
    #: an adaptive multiple of what its batch peers needed (see
    #: :class:`~repro.resilience.hedging.HedgeController`), launch ONE
    #: backup attempt on the fan-out lane and take whichever finishes
    #: first.  Safe because shard lookups are pure reads of an
    #: atomically-snapshotted topology and both attempts scatter
    #: bit-identical bytes into disjoint output rows; bounded by a
    #: per-batch hedge budget.  Off by default (the historical
    #: sequential-wait fan-out).
    hedged_reads: bool = False

    def __post_init__(self):
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.strategy not in ("range", "hash"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.on_shard_error not in ("raise", "partial"):
            raise ValueError(
                f"on_shard_error must be 'raise' or 'partial', "
                f"got {self.on_shard_error!r}")
        if (self.lifecycle is not None and self.lifecycle.rebalance
                and self.strategy != "range"):
            raise ValueError(
                "split/merge rebalancing requires the 'range' strategy "
                "(hash placement has no contiguous ranges to cut)"
            )

    def effective_workers(self) -> int:
        """Resolved thread-pool width."""
        if self.max_workers is not None:
            return max(1, int(self.max_workers))
        return max(1, min(self.n_shards, os.cpu_count() or 1))


class ShardedDeepMapping:
    """N independent DeepMapping shards behind one mapping facade.

    Build with :meth:`fit`; the facade mirrors
    :class:`~repro.core.deep_mapping.DeepMapping` closely enough that
    query layers accept either.

    Concurrency contract: :meth:`lookup` is safe to call from many
    threads at once (that is the point of the fan-out).  Mutations
    (:meth:`insert` / :meth:`delete` / :meth:`update`) are
    single-writer and must not run concurrently with lookups — a
    mutation can trigger a shard rebuild that swaps structures
    non-atomically, exactly like the monolithic ``rebuild()``.  Racing
    readers fail loudly (an exception), never silently return wrong
    rows.
    """

    def __init__(
        self,
        router: ShardRouter,
        shards: List[Optional[DeepMapping]],
        config: DeepMappingConfig,
        sharding: ShardingConfig,
        value_names: Tuple[str, ...],
        value_dtypes: Dict[str, np.dtype],
        stats: Optional[StoreStats] = None,
        pool: Optional[BufferPool] = None,
        executor: Optional[ExecutorStrategy] = None,
        filters: Optional[List[Optional[NegativeFilter]]] = None,
        store_filter: Optional[NegativeFilter] = None,
    ):
        if len(shards) != router.n_shards:
            raise ValueError(
                f"router expects {router.n_shards} shards, got {len(shards)}"
            )
        if filters is None:
            filters = [None] * router.n_shards
        if len(filters) != router.n_shards:
            raise ValueError(
                f"router expects {router.n_shards} filters, got {len(filters)}"
            )
        #: Router, shard list and per-shard negative filters live in ONE
        #: tuple so lifecycle actions (split/merge) can swap all three
        #: with a single atomic attribute store; readers snapshot the
        #: triple once per operation (a filter must never be consulted
        #: against a shard from a different topology generation).
        self._topology: Tuple[ShardRouter, List[Optional[DeepMapping]],
                              List[Optional[NegativeFilter]]] = (
            router, list(shards), list(filters))
        #: Lazily built ``(filters_list, FilterBank)`` pair backing the
        #: one-gather prune pass; keyed by the filters list's identity
        #: (every topology swap installs a fresh list) and reset
        #: explicitly by the in-place mutators (``insert``,
        #: :meth:`refresh_filter`).
        self._filter_bank: Optional[
            Tuple[List[Optional[NegativeFilter]], FilterBank]] = None
        #: Tier-1 pruning filter over the union of every shard's keys.
        #: Since key->shard placement is a pure function of the key, "in
        #: no shard" and "not in the owning shard" are the same
        #: predicate — so this filter prunes without routing anything.
        #: Kept outside the topology triple: splits/merges/retrains
        #: preserve the key union, so it survives them unchanged, and
        #: deletes only ever leave it a stale superset (never a false
        #: negative) until :meth:`refresh_store_filter`.
        self._store_filter = store_filter
        #: Cached per-topology fill/dtype metadata for the prune fast
        #: lane (see :meth:`_prune_meta`); keyed by the shard list's
        #: identity and reset by the in-place mutators, which can grow a
        #: shard's value vocabulary (and with it the vocab[0] filler)
        #: without swapping the list.
        self._prune_meta_cache = None
        self.config = config
        self.sharding = sharding
        self.stats = stats if stats is not None else StoreStats()
        self.pool = pool
        self._value_names = tuple(value_names)
        self._value_dtypes = dict(value_dtypes)
        #: Executor strategy: lookup fan-out goes through ``submit_job``,
        #: builds through ``map``, ``lookup_async`` through ``submit``.
        #: A strategy the store built itself (config named it, or None)
        #: is store-owned; an instance supplied via
        #: ``ShardingConfig.executor`` stays caller-owned and is never
        #: closed by :meth:`close`.
        self.executor: ExecutorStrategy = (
            executor if executor is not None
            else make_executor(sharding.executor,
                               sharding.effective_workers()))
        self._owns_executor = self.executor is not sharding.executor
        #: Adaptive hedge-delay controller (None when hedging is off);
        #: shared across batches so the duration EWMA spans traffic.
        self.hedger: Optional[HedgeController] = (
            HedgeController() if sharding.hedged_reads else None)
        #: False for stores opened via ``repro.open(..., writable=False)``:
        #: shard components may be shared with other opens of the same
        #: blobs, so every mutating entry point refuses.
        self.writable = True
        #: Monotonic source of aux-partition prefixes: splits and merges
        #: materialize shards at shifting ordinals, so prefixes are issued
        #: from a counter instead of being derived from the ordinal.
        self._prefix_seq = router.n_shards
        #: Maintenance engine (None = unmanaged store).
        self.engine: Optional[MaintenanceEngine] = None
        if sharding.lifecycle is not None:
            self.engine = MaintenanceEngine(self, sharding.lifecycle)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        table: ColumnTable,
        config: Optional[DeepMappingConfig] = None,
        sharding: Optional[ShardingConfig] = None,
        stats: Optional[StoreStats] = None,
    ) -> "ShardedDeepMapping":
        """Partition ``table`` and train one DeepMapping per shard.

        Shards build concurrently on the fan-out thread pool when the
        effective worker count exceeds one; each shard trains over only
        its own rows (and, under range sharding, over a proportionally
        smaller key domain).
        """
        config = config if config is not None else DeepMappingConfig()
        sharding = sharding if sharding is not None else ShardingConfig()
        stats = stats if stats is not None else StoreStats()

        key_cols = table.key_columns_dict()
        router = make_router(sharding.strategy, key_cols, table.key,
                             sharding.n_shards)
        with stats.timing("route"):
            shard_ids = router.route(key_cols)

        pool = BufferPool(budget_bytes=sharding.pool_budget_bytes,
                          stats=stats)
        value_names = tuple(sorted(table.value_columns))
        value_dtypes = {name: table.column(name).dtype
                        for name in value_names}

        lifecycle = sharding.lifecycle

        def build_one(ordinal: int) -> Optional[DeepMapping]:
            rows = np.flatnonzero(shard_ids == ordinal)
            if rows.size == 0:
                return None
            shard_config = config
            if lifecycle is not None and lifecycle.per_shard_mhas:
                shard_config = derive_build_config(config, int(rows.size),
                                                   lifecycle)
            # Shards share the store's stats sink so pool/io/inference
            # buckets aggregate; increments race benignly under threads.
            return DeepMapping.fit(
                table.take(rows), shard_config, pool=pool, stats=stats,
                aux_name_prefix=_aux_prefix(ordinal),
            )

        # The same strategy that will fan lookups out also fans the
        # per-shard builds out (NumPy training kernels release the GIL).
        executor = make_executor(sharding.executor,
                                 sharding.effective_workers())
        shards = executor.map(build_one, range(sharding.n_shards))

        # One hash pass over the whole table seeds the store-level
        # filter and every shard's filter (empty shards need none:
        # absence prunes).
        filters: List[Optional[NegativeFilter]] = [None] * sharding.n_shards
        store_filter: Optional[NegativeFilter] = None
        if sharding.negative_filter:
            with stats.timing("filter_build"):
                hashes = hash_key_columns(key_cols, router.key_names)
                store_filter = build_store_filter(
                    hashes, bits_per_key=_STORE_FILTER_BITS)
                for ordinal in range(sharding.n_shards):
                    if shards[ordinal] is not None:
                        filters[ordinal] = NegativeFilter.build(
                            hashes[shard_ids == ordinal],
                            bits_per_key=_SHARD_FILTER_BITS)

        # No compile_engines() here: DeepMapping.fit already leaves each
        # shard holding its freshly compiled engine.
        return cls(router, shards, config, sharding,
                   value_names=value_names, value_dtypes=value_dtypes,
                   stats=stats, pool=pool, executor=executor,
                   filters=filters, store_filter=store_filter)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def router(self) -> ShardRouter:
        """The live key→shard router (swapped atomically with the shards)."""
        return self._topology[0]

    @property
    def shards(self) -> List[Optional[DeepMapping]]:
        """The live shard list (swapped atomically with the router)."""
        return self._topology[1]

    @property
    def filters(self) -> List[Optional[NegativeFilter]]:
        """Per-shard negative filters (swapped atomically with the
        router); ``None`` entries mean "never prune this shard"."""
        return self._topology[2]

    def _swap_topology(
        self,
        router: ShardRouter,
        shards: List[Optional[DeepMapping]],
        filters: List[Optional[NegativeFilter]],
    ) -> None:
        """Install a new (router, shards, filters) triple atomically."""
        if len(shards) != router.n_shards:
            raise ValueError(
                f"router expects {router.n_shards} shards, got {len(shards)}"
            )
        if len(filters) != router.n_shards:
            raise ValueError(
                f"router expects {router.n_shards} filters, got {len(filters)}"
            )
        self._topology = (router, list(shards), list(filters))
        # Keep the recorded knob in step so save/load round-trips the
        # post-rebalance shard count.
        self.sharding.n_shards = router.n_shards

    @property
    def n_shards(self) -> int:
        """Number of shards (including empty ones)."""
        return self.router.n_shards

    @property
    def key_names(self) -> Tuple[str, ...]:
        """Key column names."""
        return self.router.key_names

    @property
    def value_names(self) -> Tuple[str, ...]:
        """Value column (task) names."""
        return self._value_names

    def __len__(self) -> int:
        """Live keys across all shards."""
        return sum(len(shard) for shard in self.shards if shard is not None)

    def shard_row_counts(self) -> List[int]:
        """Live keys per shard, in shard order."""
        return [0 if shard is None else len(shard) for shard in self.shards]

    def compile_engines(self) -> int:
        """Eagerly build every live shard's fused lookup kernel.

        Lookups would compile lazily on first use; doing it at load time
        (fit-time shards already carry the engine their build produced)
        keeps first-query latency flat and guarantees the thread-pool
        fan-out hits a ready :class:`~repro.nn.compiled.CompiledSession`
        in each shard.  Returns the number of engines ready; no-op when
        the config disables the compiled path.
        """
        if not getattr(self.config, "compiled_lookup", True):
            return 0
        count = 0
        for shard in self.shards:
            if shard is not None:
                shard.compiled_session()
                count += 1
        return count

    def storage_bytes(self) -> int:
        """Total offline footprint across shards."""
        return self.size_report().total_bytes

    def size_report(self) -> SizeReport:
        """Aggregated per-component storage breakdown (Eq. 1 summed)."""
        reports = [shard.size_report() for shard in self.shards
                   if shard is not None]
        return SizeReport(
            model_bytes=sum(r.model_bytes for r in reports),
            aux_bytes=sum(r.aux_bytes for r in reports),
            exist_bytes=sum(r.exist_bytes for r in reports),
            decode_bytes=sum(r.decode_bytes for r in reports),
            dataset_bytes=sum(r.dataset_bytes for r in reports),
            n_rows=len(self),
            n_in_aux=sum(r.n_in_aux for r in reports),
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, keys: KeysLike, *,
               deadline: Optional[Deadline] = None,
               on_shard_error: Optional[str] = None) -> LookupResult:
        """Batched exact-match lookup across shards, input order preserved.

        The pipelined read path: the route stage sorts the batch **by
        key within shard groups** once (so every shard receives its
        segment pre-sorted and no later stage ever sorts again), each
        shard then runs a staged
        :class:`~repro.core.deep_mapping.LookupPlan` — existence gate,
        ``T_aux`` probe, aux-gated fused inference, decode — as its own
        job on the executor strategy, and finished segments stream
        straight into the preallocated output arrays (shard *i* can be
        decompressing aux partitions while shard *j* runs inference;
        there is no serial merge behind a barrier).  One dispatcher runs
        the jobs (see :meth:`_dispatch` for how it picks inline, one
        unit, or one unit per shard).  Results are bit-identical to
        :meth:`lookup_barrier`, the pre-pipeline reference path kept as
        the parity oracle.

        Resilience knobs (see ``docs/resilience.md``):

        ``deadline``
            A :class:`~repro.resilience.Deadline` bounding the whole
            call.  Queued shard jobs past the deadline are never started,
            and the dispatcher stops waiting on stragglers once the
            budget is gone; what happens to their keys depends on the
            error mode.
        ``on_shard_error``
            ``"raise"`` (default, the historical behavior) fails the
            whole batch with the lowest failing shard's error.
            ``"partial"`` isolates the fault: healthy shards' results
            are returned bit-identical in a
            :class:`~repro.resilience.PartialResult` whose
            ``failed_mask`` marks the keys owned by failing or
            timed-out shards (forced to ``found=False``).  ``None``
            defers to ``ShardingConfig.on_shard_error``.  When every
            shard succeeds, partial mode returns a plain
            :class:`LookupResult` — zero overhead on the healthy path.
        """
        mode = on_shard_error if on_shard_error is not None \
            else self.sharding.on_shard_error
        if mode not in ("raise", "partial"):
            raise ValueError(
                f"on_shard_error must be 'raise' or 'partial', got {mode!r}")
        key_cols = self._normalize_keys(keys)
        n = int(np.asarray(key_cols[self.key_names[0]]).size)
        # One topology snapshot for the whole batch: route, prune,
        # fan-out and merge all see the same (router, shards, filters)
        # triple, so a lifecycle swap between the route and index steps
        # can never mispair cuts (or filters) with ordinals.  This does
        # NOT license concurrent mutation — the single-writer contract
        # stands (a retired shard's dropped aux storage is not safe to
        # read through).
        router, shards, filters = self._topology
        if n == 0:
            return LookupResult(
                found=np.zeros(0, dtype=bool),
                values={c: self._placeholder(c, 0) for c in self.value_names},
            )
        if deadline is not None:
            deadline.check("sharded lookup")
        if router.n_shards == 1 and shards[0] is not None \
                and mode == "raise":
            # Single shard, fail-fast mode: no routing, merging, or
            # fault-isolation bookkeeping to do.  (Partial mode still
            # takes the generic path so a failure comes back marked
            # rather than raised.)
            return shards[0].lookup(key_cols)

        # Manifest-tier miss pruning: consult the store-level and
        # per-shard negative filters before any (shard, key) sort or job
        # submission.  A pruned key is a guaranteed miss (neither tier
        # ever false-negatives); only the survivors pay sort + dispatch.
        idx = fill_plan = pre_dtypes = None
        if self._store_filter is not None \
                or any(f is not None for f in filters):
            with self.stats.timing("prune"):
                idx, fill_plan, pre_dtypes = self._prune(
                    router, shards, filters, key_cols, n)

        if idx is not None and int(idx.size) == 0:
            # Every key pruned (typical for an all-miss batch under the
            # exact dense filter): build the outputs directly — there is
            # nothing to route, sort, or dispatch.
            self.stats.bump("pruned_keys", n)
            return self._all_pruned_result(router, shards, fill_plan,
                                           pre_dtypes, n)

        with self.stats.timing("route"):
            if idx is None:
                # Nothing pruned (or no filters): the historical path,
                # including the single-sort range fast lane.
                order, bounds, grouped = self._sorted_route(
                    router, key_cols, n)
            else:
                self.stats.bump("pruned_keys", n - int(idx.size))
                survivors = {name: np.asarray(arr)[idx]
                             for name, arr in key_cols.items()}
                order, bounds, grouped = self._sorted_route(
                    router, survivors, int(idx.size))
                # Destinations live in the ORIGINAL batch positions.
                order = idx[order]

        # Prefetch hint from the batch's per-shard histogram: fire
        # hydration for every cold lazy shard this batch routes into
        # *before* the dtype-promotion probe below (which touches shards
        # serially) and before any plan job runs — remote downloads then
        # overlap on the fan-out workers instead of serializing.  The
        # proxy's hydrate lock makes the race with the main thread
        # benign (one loader runs; the other waits and shares).
        cold = [shards[ordinal] for ordinal in range(router.n_shards)
                if bounds[ordinal + 1] > bounds[ordinal]
                and isinstance(shards[ordinal], LazyShard)
                and not shards[ordinal].hydrated]
        if len(cold) > 1:
            for proxy in cold:
                self.executor.submit_job(proxy.hydrate)

        # (ordinal, shard, segment, dest) per non-empty routed group.
        jobs: List[Tuple[int, DeepMapping, Dict[str, np.ndarray],
                         np.ndarray]] = []
        segment_dtypes: Dict[str, List[np.dtype]] = \
            {c: [] for c in self.value_names}
        for ordinal in range(router.n_shards):
            start, stop = int(bounds[ordinal]), int(bounds[ordinal + 1])
            if stop <= start:
                continue
            shard = shards[ordinal]
            if shard is None:
                # Misses by definition; the preallocated outputs already
                # read as misses, but the segment still participates in
                # dtype promotion exactly as its placeholder array would
                # have in the barrier merge's concatenate.
                for c in self.value_names:
                    segment_dtypes[c].append(self._placeholder(c, 0).dtype)
                continue
            for c in self.value_names:
                segment_dtypes[c].append(
                    shard.fdecode.encoders[c].vocab.dtype)
            segment = {name: arr[start:stop] for name, arr in grouped.items()}
            jobs.append((ordinal, shard, segment, order[start:stop]))
        if pre_dtypes is not None:
            # Promotion must reflect PRE-prune occupancy: a group the
            # filters emptied entirely still contributed its dtype in
            # the unpruned path, and results are bit-identical only if
            # the output dtypes match too.
            segment_dtypes = pre_dtypes

        # A dispatched miss gets the owning shard's vocab[0] decode
        # filler written by execute_into; a pruned key must read
        # identically.  _prune picked the cheapest write plan:
        #
        # - "paint": every shard shares one filler, and most of the batch
        #   was pruned — allocate the output already holding the filler
        #   (one np.full instead of zeros + fancy assignment; survivors
        #   are overwritten by execute_into with found values or that
        #   same filler).
        # - "assign": shared filler, minority pruned — scalar broadcast
        #   into the pruned positions.
        # - "gather": fillers differ by shard (or shards are missing) —
        #   one filler-by-shard table per column, then a single fancy
        #   assignment.  Rows for EMPTY shards are the dtype zero /
        #   None, which is exactly the placeholder those keys read in
        #   the unpruned path.
        paint = fill_plan is not None and fill_plan[0] == "paint"
        found_out = np.zeros(n, dtype=bool)
        values_out = {}
        for c in self.value_names:
            dtype = (np.result_type(*segment_dtypes[c])
                     if segment_dtypes[c] else self._placeholder(c, 0).dtype)
            if paint:
                values_out[c] = np.full(n, fill_plan[1][c], dtype=dtype)
            elif dtype == object:
                values_out[c] = np.full(n, None, dtype=object)
            else:
                values_out[c] = np.zeros(n, dtype=dtype)
        if fill_plan is not None and fill_plan[0] == "assign":
            _, pruned_pos, col_fillers = fill_plan
            for c in self.value_names:
                values_out[c][pruned_pos] = col_fillers[c]
        elif fill_plan is not None and fill_plan[0] == "gather":
            _, pruned_pos, pruned_ids = fill_plan
            for c in self.value_names:
                out = values_out[c]
                fillers = np.zeros(router.n_shards, dtype=out.dtype) \
                    if out.dtype != object \
                    else np.full(router.n_shards, None, dtype=object)
                for ordinal, shard in enumerate(shards):
                    if shard is not None:
                        fillers[ordinal] = \
                            shard.fdecode.encoders[c].decode(_ZERO_CODE)[0]
                out[pruned_pos] = fillers[pruned_ids]

        shard_errors, stragglers = self._dispatch(
            jobs, found_out, values_out, deadline, int(order.size))
        if shard_errors and mode == "raise":
            # Deterministic choice: lowest failing ordinal wins.
            raise shard_errors[min(shard_errors)]
        if not shard_errors:
            return LookupResult(found=found_out, values=values_out)

        failed = np.zeros(n, dtype=bool)
        for job in jobs:
            if job[0] in shard_errors:
                failed[job[3]] = True
        if stragglers:
            # A running attempt scatters into the arrays it was
            # dispatched with; the caller gets copies nothing writes to.
            found_out = found_out.copy()
            values_out = {c: arr.copy() for c, arr in values_out.items()}
        # A failing job may have scattered part of its segment before
        # dying; force its keys back to misses so found/values agree.
        found_out[failed] = False
        return PartialResult(found=found_out, values=values_out,
                             failed_mask=failed, shard_errors=shard_errors)

    def _dispatch(self, jobs, found_out, values_out,
                  deadline: Optional[Deadline], n_keys: int):
        """Run the shard plan jobs; return ``(shard_errors, stragglers)``.

        What one executor hand-off carries follows from the call: with
        no deadline, no hedger and at most ``_SERIAL_DISPATCH_MAX`` keys
        the jobs run inline (a hand-off costs more than the work); with
        a deadline and at most that many keys ONE unit runs every job (a
        single thread wake-up, still abandonable at the deadline — jobs
        it never reached fail even when their shard is healthy); else
        one unit per shard.  One loop then waits for completions up to
        the earlier of the deadline and the next hedge fire, and gives a
        unit running past the hedger's delay one backup within the batch
        budget (zero without a hedger).  The first clean attempt settles
        a unit — a loser's identical writes are benign, see
        ``resilience/hedging.py`` — and a unit fails only when every
        attempt failed.  At the deadline an unsettled job keeps any
        outcome an attempt recorded, else fails with
        ``DeadlineExceeded``.  ``stragglers`` says an attempt may still
        scatter into the arrays it was dispatched with.
        """
        shard_errors: Dict[int, BaseException] = {}
        small = n_keys <= _SERIAL_DISPATCH_MAX
        hedger = self.hedger
        if not jobs or (small and deadline is None and hedger is None):
            outcomes: Dict[int, Optional[BaseException]] = {}
            self._run_unit(jobs, found_out, values_out, None, outcomes)
            return {o: e for o, e in outcomes.items() if e is not None}, False
        units = [jobs] if small and hedger is None \
            else [[job] for job in jobs]
        budget = hedger.batch_budget(len(units)) if hedger is not None else 0
        # Per unit, every attempt as (future, outcomes-it-fills).
        attempts: List[List[Tuple[Future, dict]]] = [[] for _ in units]
        failures: List[List[dict]] = [[] for _ in units]
        pending: Dict[Future, Tuple[int, dict]] = {}

        def launch(u: int) -> None:
            outcomes: Dict[int, Optional[BaseException]] = {}
            future = self.executor.submit_job(
                self._run_unit, units[u], found_out, values_out, deadline,
                outcomes, deadline=deadline)
            attempts[u].append((future, outcomes))
            pending[future] = (u, outcomes)

        started = []
        for u in range(len(units)):
            started.append(time.monotonic())
            launch(u)
        peers: List[float] = []
        unsettled = set(range(len(units)))
        while unsettled:
            timeout = inf if deadline is None else deadline.remaining()
            delay = hedger.hedge_delay_s(peers) if budget > 0 else None
            if delay is not None:
                now = time.monotonic()
                for u in sorted(unsettled):
                    if budget > 0 and len(attempts[u]) == 1 \
                            and now - started[u] >= delay:
                        launch(u)
                        budget -= 1
                        self.stats.bump("hedges_launched", 1)
                if budget > 0:
                    timeout = min([timeout] + [
                        started[u] + delay - now for u in unsettled
                        if len(attempts[u]) == 1])
            # Without a hedger every unit has one attempt: nothing to
            # react to until all of them finish (or the deadline).
            done, _ = futures_wait(
                pending, timeout=None if timeout == inf else max(0.0, timeout),
                return_when=ALL_COMPLETED if hedger is None
                else FIRST_COMPLETED)
            now = time.monotonic()
            for future in done:
                u, outcomes = pending.pop(future)
                if u not in unsettled:
                    continue  # a losing attempt wrote the winner's bytes
                errors = {o: e for o, e in outcomes.items() if e is not None}
                refused = future.exception()  # by the dequeue gate
                if refused is not None:
                    errors.update((job[0], refused) for job in units[u]
                                  if job[0] not in outcomes)
                if errors:
                    failures[u].append(errors)
                    if len(failures[u]) == len(attempts[u]):
                        unsettled.discard(u)  # every attempt failed
                        shard_errors.update(failures[u][0])
                    continue
                unsettled.discard(u)
                if hedger is not None:
                    peers.append(now - started[u])
                    hedger.record(peers[-1])
                    if future is not attempts[u][0][0]:
                        self.stats.bump("hedges_won", 1)
            if deadline is not None and deadline.expired:
                break
        for u in unsettled:
            # Deadline gone with attempts outstanding: cancel what has
            # not started; a job keeps any outcome an attempt recorded.
            for future, _ in attempts[u]:
                future.cancel()
            for job in units[u]:
                seen = [outcomes[job[0]] for _, outcomes in attempts[u]
                        if job[0] in outcomes]
                if any(e is None for e in seen):
                    continue
                shard_errors[job[0]] = seen[0] if seen else DeadlineExceeded(
                    f"shard {job[0]} lookup exceeded its deadline")
        # Unsettled units and hedge losers may leave attempts running.
        return shard_errors, any(not future.done() for future in pending)

    @staticmethod
    def _run_unit(unit, found_out, values_out,
                  deadline: Optional[Deadline], outcomes: dict) -> None:
        """Run plan jobs back to back into the arrays bound at dispatch,
        recording each job's error (``None`` on success) in ``outcomes``
        the moment the job ends."""
        for ordinal, shard, segment, dest in unit:
            try:
                if deadline is not None:
                    deadline.check(f"shard {ordinal} lookup")
                plan = shard.plan_lookup(segment, presorted=True)
                plan.execute_into(found_out, values_out, dest)
            except Exception as exc:
                outcomes[ordinal] = exc
            else:
                outcomes[ordinal] = None

    def _prune(
        self,
        router: ShardRouter,
        shards: List[Optional[DeepMapping]],
        filters: List[Optional[NegativeFilter]],
        key_cols: Dict[str, np.ndarray],
        n: int,
    ):
        """Negative-filter pass over the batch, before sort/dispatch.

        Two tiers.  Tier 1 is the **store-level** filter over the union
        of every shard's keys, probed with *zero routing* — key→shard
        placement is a pure function of the key, so "in no shard" is
        exactly "not in the owning shard".  Tier 2 is the skinny
        per-shard filters, which only screen tier-1 survivors (a few
        percent of an all-miss batch), so their routed gather runs over
        a tiny index set.  On an all-hit batch tier 1 answers "maybe"
        everywhere and the whole pass is one unrouted probe.

        Returns ``(idx, fill_plan, dtypes)``:

        - ``idx`` — positions surviving the filters, or ``None`` when no
          key was pruned (the caller then runs the exact historical
          path, including the single-sort range fast lane);
        - ``fill_plan`` — ``("paint", fillers)``, ``("assign",
          pruned_pos, fillers)`` or ``("gather", pruned_pos,
          pruned_ids)`` telling the caller the cheapest way to make
          pruned keys read exactly like dispatched misses (see the fill
          block in :meth:`lookup`);
        - ``dtypes`` — per-column dtype promotion lists computed from
          **pre-prune** shard occupancy, so output dtypes match the
          unpruned path even when the filters empty a group entirely.

        The scalar lanes ("paint"/"assign") require every shard live
        with one shared miss filler and vocab dtype per column
        (:meth:`_prune_meta`); then promotion is occupancy-invariant and
        no pre-prune routing is needed at all.  Otherwise the general
        lane routes the full batch and combines both tiers into one
        mask; keys owned by empty shards can be pruned by tier 1 there
        (the "gather" fill table hands them the same placeholder the
        dispatch loop's skip would have).
        """
        hashes = hash_key_columns(key_cols, self.key_names)
        store_filter = self._store_filter
        if store_filter is not None:
            meta = self._prune_meta(shards)
            if meta["scalar_ok"]:
                if n > _PRUNE_SAMPLE_MIN_N:
                    # Cheap strided sample decides whether the batch is
                    # miss-heavy enough for the full pass to pay off.
                    sample = np.ascontiguousarray(
                        hashes[::n // _PRUNE_SAMPLE])
                    frac = 1.0 - float(
                        store_filter.might_contain(sample).mean())
                    if frac < _PRUNE_MIN_FRACTION:
                        return None, None, None
                maybe = store_filter.might_contain(hashes)
                if maybe.all():
                    return None, None, None
                idx = np.flatnonzero(maybe)
                if n - int(idx.size) < _PRUNE_MIN_FRACTION * n:
                    # Not miss-heavy enough for compaction to pay for
                    # itself (small batches skip the sample gate and
                    # land here; the probe itself was cheap).
                    return None, None, None
                if not store_filter.exact:
                    idx = self._screen_survivors(
                        router, filters, key_cols, hashes, idx)
                pre = {c: [meta["dtype"][c]] for c in self.value_names}
                if n - int(idx.size) > n // 2:
                    return idx, ("paint", meta["filler"]), pre
                keep = np.zeros(n, dtype=bool)
                keep[idx] = True
                return idx, ("assign", np.flatnonzero(~keep),
                             meta["filler"]), pre

        shard_ids = router.route(key_cols)
        maybe = None
        if store_filter is not None:
            maybe = store_filter.might_contain(hashes)
        if any(f is not None for f in filters):
            bank = self._bank_for(filters)
            if bank.uniform:
                # The common case: every filter shares one k, so the
                # whole batch is answered by a single routed gather.
                tier2 = bank.might_contain(shard_ids, hashes)
            else:
                tier2 = np.ones(n, dtype=bool)
                for ordinal, filt in enumerate(filters):
                    if filt is None:
                        continue
                    mask = shard_ids == ordinal
                    tier2[mask] = filt.might_contain(hashes[mask])
            maybe = tier2 if maybe is None else (maybe & tier2)
        if maybe is None or maybe.all():
            return None, None, None

        pruned_pos = np.flatnonzero(~maybe)
        pruned_ids = shard_ids[pruned_pos]
        counts = np.bincount(shard_ids, minlength=router.n_shards)
        dtypes: Dict[str, List[np.dtype]] = \
            {c: [] for c in self.value_names}
        for ordinal in range(router.n_shards):
            if not counts[ordinal]:
                continue
            shard = shards[ordinal]
            if shard is None:
                for c in self.value_names:
                    dtypes[c].append(self._placeholder(c, 0).dtype)
                continue
            for c in self.value_names:
                dtypes[c].append(shard.fdecode.encoders[c].vocab.dtype)
        return (np.flatnonzero(maybe),
                ("gather", pruned_pos, pruned_ids), dtypes)

    def _screen_survivors(
        self,
        router: ShardRouter,
        filters: List[Optional[NegativeFilter]],
        key_cols: Dict[str, np.ndarray],
        hashes: np.ndarray,
        idx: np.ndarray,
    ) -> np.ndarray:
        """Tier-2 pass: route only the tier-1 survivors and drop the
        ones their owning shard's filter also rejects."""
        if int(idx.size) == 0 or not any(f is not None for f in filters):
            return idx
        surv_cols = {name: np.asarray(arr)[idx]
                     for name, arr in key_cols.items()}
        shard_ids = router.route(surv_cols)
        surv_hashes = hashes[idx]
        bank = self._bank_for(filters)
        if bank.uniform:
            keep = bank.might_contain(shard_ids, surv_hashes)
        else:
            keep = np.ones(int(idx.size), dtype=bool)
            for ordinal, filt in enumerate(filters):
                if filt is None:
                    continue
                mask = shard_ids == ordinal
                keep[mask] = filt.might_contain(surv_hashes[mask])
        return idx[keep]

    def _prune_meta(self, shards: List[Optional[DeepMapping]]):
        """Cached per-topology facts gating the scalar prune lanes.

        ``scalar_ok`` is True when every shard is live and, per value
        column, all shards share one vocab dtype and one miss filler
        (``vocab[0]``) — then a pruned key's fill is a scalar broadcast
        and dtype promotion is independent of which shards a batch
        touches.  Keyed by the shard *list's identity*: lifecycle swaps
        build a new list, while in-place mutations (insert / update /
        rebuild) invalidate the cache explicitly.
        """
        cached = self._prune_meta_cache
        if cached is not None and cached[0] is shards:
            return cached[1]
        scalar_ok = bool(shards) and all(s is not None for s in shards)
        filler: Dict[str, object] = {}
        dtype: Dict[str, np.dtype] = {}
        if scalar_ok:
            for c in self.value_names:
                dts = [s.fdecode.encoders[c].vocab.dtype for s in shards]
                vals = [s.fdecode.encoders[c].decode(_ZERO_CODE)[0]
                        for s in shards]
                if any(dt != dts[0] for dt in dts[1:]) \
                        or any(v != vals[0] for v in vals[1:]):
                    scalar_ok = False
                    break
                dtype[c] = dts[0]
                filler[c] = vals[0]
        meta = {"scalar_ok": scalar_ok, "filler": filler, "dtype": dtype}
        self._prune_meta_cache = (shards, meta)
        return meta

    def _all_pruned_result(self, router, shards, fill_plan, pre_dtypes,
                           n: int) -> LookupResult:
        """The lookup result when the filters pruned the *whole* batch:
        all misses, every value a fill — bit-identical to what the
        dispatch path produces with zero jobs, minus the route/sort."""
        values_out = {}
        for c in self.value_names:
            dtype = (np.result_type(*pre_dtypes[c]) if pre_dtypes[c]
                     else self._placeholder(c, 0).dtype)
            if fill_plan[0] == "paint" or fill_plan[0] == "assign":
                fillers = (fill_plan[1] if fill_plan[0] == "paint"
                           else fill_plan[2])
                values_out[c] = np.full(n, fillers[c], dtype=dtype)
            else:  # gather
                _, pruned_pos, pruned_ids = fill_plan
                out = (np.full(n, None, dtype=object) if dtype == object
                       else np.zeros(n, dtype=dtype))
                table = np.zeros(router.n_shards, dtype=dtype) \
                    if dtype != object \
                    else np.full(router.n_shards, None, dtype=object)
                for ordinal, shard in enumerate(shards):
                    if shard is not None:
                        table[ordinal] = \
                            shard.fdecode.encoders[c].decode(_ZERO_CODE)[0]
                out[pruned_pos] = table[pruned_ids]
                values_out[c] = out
        return LookupResult(found=np.zeros(n, dtype=bool),
                            values=values_out)

    def _bank_for(self, filters: List[Optional[NegativeFilter]],
                  ) -> FilterBank:
        """The (cached) :class:`FilterBank` for one filters snapshot.

        Concurrent readers may race to build the first bank for a fresh
        topology; both build the same pure function of ``filters`` and
        the last store wins, so the race is benign.
        """
        cached = self._filter_bank
        if cached is not None and cached[0] is filters:
            return cached[1]
        bank = FilterBank(filters)
        self._filter_bank = (filters, bank)
        return bank

    def _sorted_route(
        self, router: ShardRouter, key_cols: Dict[str, np.ndarray], n: int,
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, np.ndarray]]:
        """Route + sort the batch in one pass for the pipelined fan-out.

        Returns ``(order, bounds, grouped)`` where ``order`` permutes the
        batch into (shard, key...) order — shard groups are contiguous
        *and* each group is ascending in flattened-key order, so every
        shard's aux probe rides the partition store's monotonic fast
        path — ``bounds[s]:bounds[s+1]`` delimits shard ``s``'s group,
        and ``grouped`` holds the key columns permuted by ``order``.
        """
        cols = [np.asarray(key_cols[name]) for name in self.key_names]
        if isinstance(router, RangeShardRouter) and len(cols) == 1:
            # Range routing on a single key: shard ordinal is monotone in
            # the key, so one plain sort both groups and orders, and the
            # group boundaries are the cuts' positions in the sorted keys.
            leading = cols[0].astype(np.int64, copy=False)
            order = np.argsort(leading)
            sorted_leading = leading[order]
            bounds = np.empty(router.n_shards + 1, dtype=np.int64)
            bounds[0] = 0
            bounds[-1] = n
            if router.cuts.size:
                bounds[1:-1] = np.searchsorted(sorted_leading, router.cuts,
                                               side="left")
            grouped = {self.key_names[0]: sorted_leading}
            return order, bounds, grouped
        shard_ids = router.route(key_cols)
        # lexsort: last key is primary — shard first, then key columns in
        # significance order, which is exactly ascending flattened-key
        # order inside each shard (the codec is lexicographic).
        order = np.lexsort(tuple(np.asarray(c, dtype=np.int64)
                                 for c in reversed(cols)) + (shard_ids,))
        bounds = np.searchsorted(shard_ids[order],
                                 np.arange(router.n_shards + 1))
        grouped = {name: np.asarray(arr)[order]
                   for name, arr in key_cols.items()}
        return order, bounds, grouped

    def lookup_barrier(self, keys: KeysLike) -> LookupResult:
        """The pre-pipeline read path, kept as the serial reference.

        Routes with a stable sort by shard ordinal only, fans complete
        per-shard lookups out with one barrier, then concatenates and
        inverse-permutes the results.  `benchmarks/bench_pipeline.py`
        tracks :meth:`lookup`'s speedup over this baseline, and the
        parity suite asserts the two stay bit-identical.
        """
        key_cols = self._normalize_keys(keys)
        n = int(np.asarray(key_cols[self.key_names[0]]).size)
        # Reference path: deliberately unpruned (filters ignored), so
        # the parity suite can hold it against the filtered fan-out.
        router, shards, _ = self._topology
        if n == 0:
            return LookupResult(
                found=np.zeros(0, dtype=bool),
                values={c: self._placeholder(c, 0) for c in self.value_names},
            )
        if router.n_shards == 1 and shards[0] is not None:
            return shards[0].lookup(key_cols)

        with self.stats.timing("route"):
            shard_ids = router.route(key_cols)
            order = np.argsort(shard_ids, kind="stable")
            grouped = {name: np.asarray(arr)[order]
                       for name, arr in key_cols.items()}
            bounds = np.searchsorted(shard_ids[order],
                                     np.arange(router.n_shards + 1))

        jobs: List[Tuple[int, int, int]] = []  # (ordinal, start, stop)
        for ordinal in range(router.n_shards):
            start, stop = int(bounds[ordinal]), int(bounds[ordinal + 1])
            if stop > start:
                jobs.append((ordinal, start, stop))

        def run_job(job: Tuple[int, int, int]) -> LookupResult:
            ordinal, start, stop = job
            shard = shards[ordinal]
            count = stop - start
            if shard is None:
                return LookupResult(
                    found=np.zeros(count, dtype=bool),
                    values={c: self._placeholder(c, count)
                            for c in self.value_names},
                )
            segment = {name: arr[start:stop] for name, arr in grouped.items()}
            return shard.lookup(segment)

        results = self.executor.map(run_job, jobs)

        with self.stats.timing("merge"):
            inverse = np.empty(n, dtype=np.int64)
            inverse[order] = np.arange(n)
            found = np.concatenate([r.found for r in results])[inverse]
            values = {
                column: np.concatenate([r.values[column] for r in results])[inverse]
                for column in self.value_names
            }
        return LookupResult(found=found, values=values)

    def lookup_one(self, **key_parts) -> Optional[Dict[str, object]]:
        """Convenience single-key lookup; returns a row dict or None."""
        key_cols = {name: np.array([value]) for name, value in key_parts.items()}
        if set(key_cols) != set(self.key_names):
            raise KeyError(f"expected key columns {self.key_names}")
        return next(self.lookup(key_cols).rows())

    def contains_batch(self, keys: KeysLike) -> np.ndarray:
        """Liveness test per key — routed to each owning shard's
        existence vector, no value inference.  Keys owned by an empty
        shard are absent by definition."""
        key_cols = self._normalize_keys(keys)
        n = int(np.asarray(key_cols[self.key_names[0]]).size)
        router, shards, _ = self._topology
        if n == 0:
            return np.zeros(0, dtype=bool)
        with self.stats.timing("route"):
            order, bounds, grouped = self._sorted_route(router, key_cols, n)
        exists = np.zeros(n, dtype=bool)
        for ordinal in range(router.n_shards):
            start, stop = int(bounds[ordinal]), int(bounds[ordinal + 1])
            shard = shards[ordinal]
            if stop == start or shard is None:
                continue
            segment = {name: arr[start:stop] for name, arr in grouped.items()}
            exists[order[start:stop]] = shard.contains_batch(segment)
        return exists

    def aux_ratio(self) -> float:
        """Fraction of live rows currently served from auxiliary tables,
        aggregated across shards (empty store: 0.0)."""
        n_rows = len(self)
        if n_rows == 0:
            return 0.0
        in_aux = sum(len(shard.aux) for shard in self.shards
                     if shard is not None)
        return in_aux / n_rows

    def rebuild(self, config: Optional[DeepMappingConfig] = None) -> None:
        """Retrain every live shard from its current logical content.

        ``config`` optionally replaces each shard's build configuration;
        when omitted, a lifecycle store with per-shard MHAS re-derives a
        size-appropriate config per shard and an unmanaged store keeps
        each shard's own.  Shards rebuild concurrently on the executor
        strategy.  Runs under the store's single-writer mutation
        contract (a rebuild swaps shard internals non-atomically).
        """
        self._require_writable()
        lifecycle = self.sharding.lifecycle
        per_shard_sizing = (config is None and lifecycle is not None
                            and lifecycle.per_shard_mhas)

        def rebuild_one(shard: DeepMapping) -> None:
            shard_config = config
            if per_shard_sizing:
                shard_config = derive_build_config(self.config, len(shard),
                                                   lifecycle)
            shard.rebuild(shard_config)

        live = [shard for shard in self.shards if shard is not None]
        self.executor.map(rebuild_one, live)
        # A retrain preserves the keyset, so the filters were still
        # correct supersets — but rebuilding them here drops the false
        # positives accumulated by deletes since the last build.
        for ordinal in range(self.n_shards):
            self.refresh_filter(ordinal)
        self.refresh_store_filter()
        self._prune_meta_cache = None

    def lookup_async(self, keys: KeysLike, *,
                     deadline: Optional[Deadline] = None,
                     on_shard_error: Optional[str] = None) -> Future:
        """Schedule :meth:`lookup` on the executor strategy.

        Returns a future resolving to the same :class:`LookupResult` the
        synchronous call would produce; the coordinating job runs off the
        fan-out workers, so awaiting it never deadlocks the shard pool.
        Under the serial strategy the work happens inline and the future
        comes back already resolved.

        ``deadline`` bounds the lookup *and* gates the coordinating job
        itself: if the budget is gone before a coordinator lane frees
        up, the future fails with ``DeadlineExceeded`` without touching
        a shard.  ``on_shard_error`` is forwarded to :meth:`lookup`.
        """
        fn = functools.partial(self.lookup, keys, deadline=deadline,
                               on_shard_error=on_shard_error)
        return self.executor.submit(fn, deadline=deadline)

    def set_executor(self, executor) -> None:
        """Swap the executor strategy (a name from
        :data:`repro.store.EXECUTOR_NAMES` or a strategy instance).

        The outgoing strategy is closed only if this store owned it; a
        passed-in instance stays caller-owned and is never closed here
        or by :meth:`close`.
        """
        new = make_executor(executor, self.sharding.effective_workers())
        if new is not self.executor and self._owns_executor:
            self.executor.close()
        self.executor = new
        self._owns_executor = new is not executor

    def close(self) -> None:
        """Shut down the executor strategy's workers (idempotent).

        The store stays usable — an owned strategy rebuilds its pools
        lazily on next use; a caller-owned strategy is left untouched.
        """
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> "ShardedDeepMapping":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Modifications
    # ------------------------------------------------------------------
    def insert(self, rows: RowsLike) -> int:
        """Route new rows to their owning shards (Algorithm 3 per shard).

        An insert into an empty shard trains a fresh DeepMapping over just
        those rows.  Returns the number of rows materialized in auxiliary
        tables (fresh shards count their own aux rows).

        The batch is validated against existing keys and intra-batch
        duplicates before any shard is mutated: either problem raises
        ``ValueError`` and no shard changes.
        """
        self._require_writable()
        columns = self._normalize_rows(rows)
        self._require_unique_batch_keys(columns)
        groups = list(self._group_rows(columns))
        already = 0
        for ordinal, rows_idx in groups:
            shard = self.shards[ordinal]
            if shard is not None:
                subset = {name: columns[name][rows_idx]
                          for name in self.key_names}
                already += int(shard.contains_batch(subset).sum())
        if already:
            raise ValueError(f"{already} key(s) already exist; use update()")

        landed = 0
        filters = self.filters
        key_hashes = None
        if self.sharding.negative_filter or self._store_filter is not None \
                or any(f is not None for f in filters):
            key_hashes = hash_key_columns(
                {name: columns[name] for name in self.key_names},
                self.key_names)
        for ordinal, rows_idx in groups:
            subset = {name: arr[rows_idx] for name, arr in columns.items()}
            shard = self.shards[ordinal]
            if shard is None:
                fresh = DeepMapping.fit(
                    ColumnTable(subset, key=self.key_names, name="shard"),
                    self._build_config(int(rows_idx.size)),
                    pool=self.pool, stats=self.stats,
                    aux_name_prefix=self._new_aux_prefix(),
                )
                self._register_shard(fresh)
                self.shards[ordinal] = fresh
                if self.sharding.negative_filter and key_hashes is not None:
                    filters[ordinal] = NegativeFilter.build(
                        key_hashes[rows_idx],
                        bits_per_key=_SHARD_FILTER_BITS)
                landed += len(fresh.aux)
            else:
                landed += shard.insert(subset)
                # Grow the filter only after the shard accepted the rows
                # (an insert that raises must not poison the filter with
                # phantom positives beyond the superset guarantee).
                if filters[ordinal] is not None and key_hashes is not None:
                    filters[ordinal].add(key_hashes[rows_idx])
        # The store-level filter grows with every insert regardless of
        # which shard landed the rows — its keyset is the union.  A
        # dense filter can decline keys outside its built domain; the
        # rows have already landed in their shards, so a full rebuild
        # from shard content re-covers them (widening the domain or
        # falling back to Bloom as build_store_filter sees fit).
        if self._store_filter is not None and key_hashes is not None \
                and not self._store_filter.try_add(key_hashes):
            self.refresh_store_filter()
        # Fresh shards and in-place filter growth both invalidate the
        # cached probe bank (it snapshots the filters' words); a fresh
        # shard (or new vocab) also invalidates the prune fast-lane meta.
        self._filter_bank = None
        self._prune_meta_cache = None
        self._maintain()
        return landed

    def delete(self, keys: KeysLike) -> int:
        """Delete keys from their owning shards; absent keys are ignored.

        Negative filters are deliberately left untouched: a Bloom filter
        cannot clear bits, so a deleted key survives as a false positive
        (one wasted dispatch the shard's existence tier rejects) until
        the next filter rebuild — the superset invariant, never a false
        negative.
        """
        self._require_writable()
        key_cols = self._normalize_keys(keys)
        deleted = 0
        for ordinal, rows_idx in self._group_rows(key_cols):
            shard = self.shards[ordinal]
            if shard is None:
                continue
            deleted += shard.delete({name: arr[rows_idx]
                                     for name, arr in key_cols.items()})
        self._maintain()
        return deleted

    def update(self, rows: RowsLike) -> int:
        """Replace values of existing keys in their owning shards.

        The whole batch is validated first: if any key does not exist,
        ``KeyError`` is raised and no shard is mutated (matching the
        monolithic all-or-nothing contract).
        """
        self._require_writable()
        columns = self._normalize_rows(rows)
        groups = list(self._group_rows(columns))
        missing = 0
        for ordinal, rows_idx in groups:
            shard = self.shards[ordinal]
            if shard is None:
                missing += int(rows_idx.size)
                continue
            subset = {name: columns[name][rows_idx] for name in self.key_names}
            missing += int((~shard.contains_batch(subset)).sum())
        if missing:
            raise KeyError(f"{missing} key(s) do not exist; use insert()")

        landed = 0
        for ordinal, rows_idx in groups:
            landed += self.shards[ordinal].update(
                {name: arr[rows_idx] for name, arr in columns.items()})
        # Updates can grow a shard's value vocab (new fill values), which
        # the prune fast lane snapshots — drop the cached meta.
        self._prune_meta_cache = None
        self._maintain()
        return landed

    def _require_writable(self) -> None:
        if not self.writable:
            raise PermissionError(
                "this store was opened writable=False (shared, read-only "
                "shard components); reopen with repro.open(url) to mutate it")

    def _require_unique_batch_keys(self, columns: Dict[str, np.ndarray]) -> None:
        """Reject mutation batches that repeat a key.

        A duplicate would fail *inside* one shard (a fresh fit or domain
        rebuild requires unique keys) after other shards were already
        mutated — so it is rejected up front to keep insert all-or-nothing.
        """
        stacked = np.stack([np.asarray(columns[name], dtype=np.int64)
                            for name in self.key_names], axis=1)
        n_unique = np.unique(stacked, axis=0).shape[0]
        if n_unique != stacked.shape[0]:
            raise ValueError(
                f"{stacked.shape[0] - n_unique} duplicate key(s) in batch"
            )

    def _group_rows(self, columns: Dict[str, np.ndarray]):
        """Yield ``(shard_ordinal, row_indices)`` for routed input rows."""
        key_cols = {name: columns[name] for name in self.key_names}
        with self.stats.timing("route"):
            shard_ids = self.router.route(key_cols)
        for ordinal in np.unique(shard_ids):
            yield int(ordinal), np.flatnonzero(shard_ids == ordinal)

    # ------------------------------------------------------------------
    # Lifecycle: maintenance plumbing and split/merge mechanics
    # ------------------------------------------------------------------
    def _maintain(self) -> None:
        """One engine pass after a mutation batch (no-op when unmanaged)."""
        if self.engine is not None:
            self.engine.run_pending()

    def _register_shard(self, shard: Optional[DeepMapping]) -> None:
        """Hand a newly materialized shard to the engine (if any)."""
        if self.engine is not None:
            self.engine.adopt(shard)

    def _build_config(self, n_rows: int) -> DeepMappingConfig:
        """Config for materializing a shard of ``n_rows`` rows."""
        lifecycle = self.sharding.lifecycle
        if lifecycle is not None and lifecycle.per_shard_mhas:
            return derive_build_config(self.config, n_rows, lifecycle)
        return self.config

    def _new_aux_prefix(self) -> str:
        """A store-unique aux-partition prefix for a new shard."""
        prefix = _aux_prefix(self._prefix_seq)
        self._prefix_seq += 1
        return prefix

    def refresh_filter(self, ordinal: int) -> None:
        """Rebuild shard ``ordinal``'s negative filter from its live keys.

        Keyset-preserving retrains never *require* this (the filter
        stays a correct superset), but deleted keys accumulate as false
        positives until a rebuild — so the lifecycle engine calls this
        after each retrain and :meth:`rebuild` calls it for every shard,
        resetting the filter's FPR along with the model.  No-op when the
        filter knob is off (a legacy-loaded store keeps its ``None``
        filters rather than growing new ones behind the caller's back).
        Runs under the single-writer mutation contract.
        """
        if not self.sharding.negative_filter:
            return
        shard = self.shards[ordinal]
        self.filters[ordinal] = (None if shard is None
                                 else self._build_filter(shard))
        self._filter_bank = None  # in-place filter swap: bank is stale

    def _build_filter(self, shard: DeepMapping) -> NegativeFilter:
        """A fresh negative filter over one shard's live keys."""
        key_cols = shard.key_codec.unflatten(shard.exist.existing_keys())
        return NegativeFilter.build(
            hash_key_columns(key_cols, self.key_names),
            bits_per_key=_SHARD_FILTER_BITS)

    def refresh_store_filter(self) -> None:
        """Rebuild the store-level (tier-1) filter from all live keys.

        Splits, merges, and retrains preserve the key *union*, so the
        store filter normally survives topology changes untouched; like
        the per-shard tier, it only accumulates false positives through
        deletes.  :meth:`rebuild` calls this to reset its FPR.  No-op
        when the filter knob is off or the store never had a tier-1
        filter (legacy load).
        """
        if not self.sharding.negative_filter or self._store_filter is None:
            return
        parts = []
        for shard in self.shards:
            if shard is None or not len(shard):
                continue
            key_cols = shard.key_codec.unflatten(shard.exist.existing_keys())
            parts.append(hash_key_columns(key_cols, self.key_names))
        hashes = (np.concatenate(parts) if parts
                  else np.empty(0, dtype=np.uint64))
        self._store_filter = build_store_filter(
            hashes, bits_per_key=_STORE_FILTER_BITS)

    def _shard_leading_keys(self, shard: DeepMapping) -> np.ndarray:
        """Live leading-key values of one shard (no value inference)."""
        flat = shard.exist.existing_keys()
        key_cols = shard.key_codec.unflatten(flat)
        return np.asarray(key_cols[self.key_names[0]], dtype=np.int64)

    def _require_range_router(self) -> RangeShardRouter:
        router = self.router
        if not isinstance(router, RangeShardRouter):
            raise TypeError(
                "shard split/merge requires a range router; this store "
                f"routes by {router.kind!r}"
            )
        return router

    def can_split(self, ordinal: int) -> bool:
        """True when shard ``ordinal`` has at least two distinct leading
        keys (the minimum to place a cut with both sides non-empty)."""
        if not isinstance(self.router, RangeShardRouter):
            return False
        shard = self.shards[ordinal]
        if shard is None:
            return False
        leading = self._shard_leading_keys(shard)
        return np.unique(leading).size >= 2

    def split_shard(
        self,
        ordinal: int,
        cut: Optional[int] = None,
        configs: Optional[Tuple[Optional[DeepMappingConfig],
                                Optional[DeepMappingConfig]]] = None,
    ) -> int:
        """Split range shard ``ordinal`` into ``[lower, cut)`` / ``[cut,
        upper)`` halves, rebuilding each as its own DeepMapping.

        ``cut`` defaults to the shard's median live leading key; an
        explicit cut must leave both halves non-empty.  ``configs``
        optionally overrides the halves' build configurations (the
        per-shard MHAS hook).  The halves build concurrently on the
        fan-out pool, then the router (with the new cut) and the shard
        list swap in atomically; the retired shard's aux partitions are
        dropped.  Runs under the store's single-writer mutation contract.
        Returns the cut used.
        """
        self._require_writable()
        router = self._require_range_router()
        shard = self.shards[ordinal]
        if shard is None:
            raise ValueError(f"shard {ordinal} is empty; nothing to split")
        table = shard.to_table()
        leading = np.asarray(table.column(self.key_names[0]), dtype=np.int64)
        uniq = np.unique(leading)
        if uniq.size < 2:
            raise ValueError(
                f"shard {ordinal} holds {uniq.size} distinct leading "
                "key(s); a split needs at least two"
            )
        if cut is None:
            cut = int(np.sort(leading)[leading.size // 2])
            if cut <= int(uniq[0]):
                cut = int(uniq[1])  # left half (keys < cut) must be non-empty
        else:
            cut = int(cut)
            if not int(uniq[0]) < cut <= int(uniq[-1]):
                raise ValueError(
                    f"cut {cut} leaves an empty half: live leading keys "
                    f"span [{int(uniq[0])}, {int(uniq[-1])}]"
                )

        left_rows = np.flatnonzero(leading < cut)
        right_rows = np.flatnonzero(leading >= cut)
        cfg_left, cfg_right = configs if configs is not None else (None, None)
        builds = [
            (table.take(left_rows),
             cfg_left if cfg_left is not None
             else self._build_config(int(left_rows.size)),
             self._new_aux_prefix()),
            (table.take(right_rows),
             cfg_right if cfg_right is not None
             else self._build_config(int(right_rows.size)),
             self._new_aux_prefix()),
        ]

        def build_half(job) -> DeepMapping:
            part, cfg, prefix = job
            return DeepMapping.fit(part, cfg, pool=self.pool,
                                   stats=self.stats, aux_name_prefix=prefix)

        left, right = self.executor.map(build_half, builds)
        self._register_shard(left)
        self._register_shard(right)

        new_router = router.split_at(ordinal, cut)
        new_shards = (self.shards[:ordinal] + [left, right]
                      + self.shards[ordinal + 1:])
        # Fresh filters for the halves, built from the same row split
        # the shards were, so they swap in with the topology they match.
        left_filter = right_filter = None
        if self.sharding.negative_filter:
            hashes = hash_key_columns(
                {name: np.asarray(table.column(name))
                 for name in self.key_names}, self.key_names)
            left_filter = NegativeFilter.build(
                hashes[left_rows], bits_per_key=_SHARD_FILTER_BITS)
            right_filter = NegativeFilter.build(
                hashes[right_rows], bits_per_key=_SHARD_FILTER_BITS)
        new_filters = (self.filters[:ordinal] + [left_filter, right_filter]
                       + self.filters[ordinal + 1:])
        self._swap_topology(new_router, new_shards, new_filters)
        shard.aux.drop_storage()
        return cut

    def merge_shards(
        self,
        ordinal: int,
        config: Optional[DeepMappingConfig] = None,
    ) -> None:
        """Merge range shards ``ordinal`` and ``ordinal + 1`` into one.

        The pair's live rows rebuild as a single DeepMapping (``config``
        optionally overrides its build configuration); merging two empty
        shards just removes the boundary.  The router (minus the boundary
        cut) and the shard list swap in atomically; both retired shards'
        aux partitions are dropped.  Runs under the store's single-writer
        mutation contract.
        """
        self._require_writable()
        router = self._require_range_router()
        if not 0 <= ordinal < router.n_shards - 1:
            raise ValueError(
                f"cannot merge shard {ordinal} with its right neighbour "
                f"in a {router.n_shards}-shard store"
            )
        first = self.shards[ordinal]
        second = self.shards[ordinal + 1]
        tables = [s.to_table() for s in (first, second)
                  if s is not None and len(s)]
        merged: Optional[DeepMapping] = None
        merged_filter: Optional[NegativeFilter] = None
        if tables:
            combined = tables[0] if len(tables) == 1 else tables[0].concat(
                tables[1])
            merged = DeepMapping.fit(
                combined,
                config if config is not None
                else self._build_config(combined.n_rows),
                pool=self.pool, stats=self.stats,
                aux_name_prefix=self._new_aux_prefix(),
            )
            self._register_shard(merged)
            if self.sharding.negative_filter:
                merged_filter = NegativeFilter.build(hash_key_columns(
                    {name: np.asarray(combined.column(name))
                     for name in self.key_names}, self.key_names),
                    bits_per_key=_SHARD_FILTER_BITS)

        new_router = router.merge_at(ordinal)
        new_shards = (self.shards[:ordinal] + [merged]
                      + self.shards[ordinal + 2:])
        new_filters = (self.filters[:ordinal] + [merged_filter]
                       + self.filters[ordinal + 2:])
        self._swap_topology(new_router, new_shards, new_filters)
        for retired in (first, second):
            if retired is not None:
                retired.aux.drop_storage()

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def to_table(self) -> ColumnTable:
        """Logical content as one ColumnTable (shard order)."""
        tables = [shard.to_table() for shard in self.shards
                  if shard is not None and len(shard)]
        if not tables:
            columns: Dict[str, np.ndarray] = {
                name: np.empty(0, dtype=np.int64) for name in self.key_names
            }
            for name in self.value_names:
                columns[name] = self._placeholder(name, 0)
            return ColumnTable(columns, key=self.key_names, name="sharded")
        merged = tables[0]
        for part in tables[1:]:
            merged = merged.concat(part)
        merged.name = "sharded"
        return merged

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, target: Union[str, StorageBackend]) -> int:
        """Write manifest + per-shard payloads into a store container.

        ``target`` is a directory path, a ``file:// / mem:// / zip://``
        URL, or a :class:`~repro.storage.backends.StorageBackend`
        instance — payload location is fully decoupled from routing.
        Returns total bytes written.  Empty shards are recorded in the
        manifest with no payload blob; payload blobs from a previous save
        that this store no longer references are deleted so a re-save in
        place cannot leave stale shards behind.
        """
        backend = (backend_for_url(target) if isinstance(target, str)
                   else target)
        # Backends that buffer whole-container rewrites (zip) batch the
        # save into one atomic replace instead of one rewrite per blob.
        batch = getattr(backend, "batch", None)
        with (batch() if batch is not None else nullcontext()):
            return self._save_into(backend)

    def _save_into(self, backend: StorageBackend) -> int:
        total = 0
        entries: List[ShardEntry] = []
        filters = self.filters
        with self.stats.timing("io"):
            for ordinal, shard in enumerate(self.shards):
                if shard is None:
                    entries.append(ShardEntry(file=None))
                    continue
                fname = f"shard-{ordinal:04d}.dm"
                nbytes = backend.write_bytes(fname, shard.to_payload())
                filt = filters[ordinal]
                entries.append(ShardEntry(
                    file=fname, n_rows=len(shard), n_bytes=nbytes,
                    filter=filt.to_json() if filt is not None else None))
                total += nbytes

            config_payload = pickle.dumps(self.config,
                                          protocol=pickle.HIGHEST_PROTOCOL)
            total += backend.write_bytes(CONFIG_NAME, config_payload)

        lifecycle: Dict[str, object] = {}
        if self.sharding.lifecycle is not None:
            lifecycle["config"] = self.sharding.lifecycle.to_state()
        if self.engine is not None:
            lifecycle["counters"] = self.engine.summary()

        manifest = ShardManifest(
            router=self.router.to_state(),
            key_names=list(self.key_names),
            value_names=list(self.value_names),
            value_dtypes={name: dtype.str
                          for name, dtype in self._value_dtypes.items()},
            shards=entries,
            sharding={
                "strategy": self.sharding.strategy,
                "n_shards": self.sharding.n_shards,
                "max_workers": self.sharding.max_workers,
                "pool_budget_bytes": self.sharding.pool_budget_bytes,
                "executor": getattr(self.sharding.executor, "name",
                                    self.sharding.executor),
                "on_shard_error": self.sharding.on_shard_error,
                "negative_filter": self.sharding.negative_filter,
                "hedged_reads": self.sharding.hedged_reads,
            },
            lifecycle=lifecycle,
            store_filter=(self._store_filter.to_json()
                          if self._store_filter is not None else None),
            prune_meta=self._export_prune_meta(),
        )
        total += manifest.save_to(backend)

        # A shrunk store (merges, fewer shards) must not leave orphaned
        # payload blobs for a later loader to trip over.
        referenced = {entry.file for entry in entries if entry.file}
        for name in backend.list():
            if (name.startswith("shard-") and name.endswith(".dm")
                    and name not in referenced):
                backend.delete(name)
        # Every blob under this container may have changed (including
        # deletions after a lifecycle split/merge); retire all cached
        # read-only bundles for it at once.
        payload_cache().invalidate_backend(backend)
        return total

    def _export_prune_meta(self) -> Optional[Dict[str, object]]:
        """Manifest (JSON) form of the scalar prune-lane metadata.

        Written at save time so a hydrating loader can run the
        store-filter scalar fast lane — per-column vocab dtype and miss
        filler — without downloading a single shard to rediscover them.
        ``None`` when the scalar lanes do not apply (mixed dtypes or
        fillers, empty shards) or a filler does not survive JSON.
        """
        meta = self._prune_meta(self.shards)
        if not meta["scalar_ok"]:
            return None
        columns: Dict[str, object] = {}
        for c in self.value_names:
            filler = meta["filler"][c]
            if isinstance(filler, np.generic):
                filler = filler.item()
            if not isinstance(filler, (bool, int, float, str)):
                return None
            columns[c] = {"dtype": meta["dtype"][c].str, "filler": filler}
        return {"scalar_ok": True, "columns": columns}

    @staticmethod
    def _prime_prune_meta(store: "ShardedDeepMapping",
                          manifest: ShardManifest) -> None:
        """Install save-time prune metadata on a hydrating store.

        Without this, the first lookup's :meth:`_prune_meta` pass would
        touch every shard's decoder — hydrating the whole store to
        answer an all-miss batch.  Metadata that is absent or does not
        match the schema is simply ignored (the general prune lane
        still works; it just hydrates the shards it routes into).
        """
        meta = manifest.prune_meta
        if not meta or not meta.get("scalar_ok"):
            return
        columns = meta.get("columns") or {}
        if set(columns) != set(store.value_names):
            return
        try:
            dtype = {c: np.dtype(columns[c]["dtype"]) for c in columns}
            filler = {c: dtype[c].type(columns[c]["filler"])
                      for c in columns}
        except (KeyError, TypeError, ValueError):
            return
        store._prune_meta_cache = (store.shards, {
            "scalar_ok": True, "filler": filler, "dtype": dtype})

    @classmethod
    def load(
        cls,
        target: Union[str, StorageBackend],
        stats: Optional[StoreStats] = None,
        max_workers: Optional[int] = None,
        pool_budget_bytes: Optional[int] = None,
        executor: Union[str, ExecutorStrategy, None] = None,
        writable: bool = True,
        negative_filter: Optional[bool] = None,
    ) -> "ShardedDeepMapping":
        """Inverse of :meth:`save`; ``target`` as there.

        ``max_workers`` / ``pool_budget_bytes`` / ``executor`` override
        the saved knobs (e.g. load a store built on a big box onto a
        small one, or force serial fan-out).  All shards' auxiliary
        partitions share one
        :class:`~repro.storage.buffer_pool.BufferPool` under the budget.
        ``negative_filter=False`` ignores any persisted per-shard
        filters (and stops new ones being built) — the unpruned
        baseline the parity suite and ``benchmarks/bench_prune.py``
        compare against; ``None`` keeps the saved knob.

        ``writable=False`` opens every shard read-only through the
        process-wide payload cache: payload arrays are zero-copy views
        (mmap-backed on local directories), repeated opens of unchanged
        blobs share one deserialized bundle per shard (including its
        compiled lookup kernel and built aux partitions), and mutating
        calls raise ``PermissionError``.  Cached shards keep the buffer
        pool of their *first* (cold) open, so ``pool_budget_bytes``
        overrides only apply to shards loaded cold.

        Remote backends (``http://`` family — anything flagging
        ``remote = True``) open **hydrating**: the load fetches only
        the manifest and the build config, every shard comes up as a
        :class:`~repro.storage.hydration.LazyShard` proxy that
        downloads its payload on first routed touch, and ``writable``
        is forced to ``False`` (the transport refuses writes anyway).
        See ``docs/remote.md``.
        """
        backend = (backend_for_url(target, create=False)
                   if isinstance(target, str) else target)
        hydrating = bool(getattr(backend, "remote", False))
        if hydrating:
            writable = False
        manifest = ShardManifest.load_from(backend)
        router = router_from_state(manifest.router)
        config: DeepMappingConfig = pickle.loads(
            backend.read_bytes(CONFIG_NAME))

        saved = manifest.sharding
        lifecycle_state = manifest.lifecycle.get("config")
        sharding = ShardingConfig(
            n_shards=manifest.n_shards,
            strategy=saved.get("strategy", router.kind),
            max_workers=(max_workers if max_workers is not None
                         else saved.get("max_workers")),
            pool_budget_bytes=(pool_budget_bytes if pool_budget_bytes is not None
                               else saved.get("pool_budget_bytes")),
            executor=(executor if executor is not None
                      else saved.get("executor")),
            lifecycle=(LifecycleConfig.from_state(lifecycle_state)
                       if lifecycle_state else None),
            on_shard_error=saved.get("on_shard_error", "raise"),
            # Manifests written before the pruning tier default to True:
            # they simply carry no filters (entries lack the field), so
            # nothing prunes until a mutation/rebuild grows filters.
            negative_filter=(negative_filter if negative_filter is not None
                             else saved.get("negative_filter", True)),
            # Pre-hedging manifests lack the field: hedging stays off.
            hedged_reads=saved.get("hedged_reads", False),
        )
        stats = stats if stats is not None else StoreStats()
        # Remote transports accumulate range/hydration counters; point
        # them at this store's sink so `store.stats` (and the serving
        # tier's snapshot bracket) sees them.
        bind_stats = getattr(backend, "bind_stats", None)
        if bind_stats is not None:
            bind_stats(stats)
        pool = BufferPool(budget_bytes=sharding.pool_budget_bytes,
                          stats=stats)
        filters: List[Optional[NegativeFilter]] = [
            (NegativeFilter.from_json(entry.filter)
             if sharding.negative_filter and entry.filter is not None
             else None)
            for entry in manifest.shards
        ]
        shards: List[Optional[DeepMapping]] = []
        for ordinal, entry in enumerate(manifest.shards):
            if entry.file is None:
                shards.append(None)
                continue
            if hydrating:
                # Nothing is fetched here: the proxy defers the shared
                # open (a ranged container fetch through the payload
                # cache, which also dedupes concurrent hydrations of
                # the same blob) until a batch actually routes into
                # this shard.
                shards.append(LazyShard(
                    functools.partial(
                        DeepMapping._open_shared, backend, entry.file,
                        stats=stats, pool=pool,
                        aux_name_prefix=_aux_prefix(ordinal)),
                    n_rows=entry.n_rows, stats=stats, label=entry.file))
                continue
            if not writable:
                shards.append(DeepMapping._open_shared(
                    backend, entry.file, stats=stats, pool=pool,
                    aux_name_prefix=_aux_prefix(ordinal),
                ))
                continue
            with stats.timing("io"):
                payload = backend.read_bytes(entry.file)
            shards.append(DeepMapping.from_payload(
                payload, pool=pool, stats=stats,
                aux_name_prefix=_aux_prefix(ordinal),
            ))
        value_dtypes = {name: np.dtype(spec)
                        for name, spec in manifest.value_dtypes.items()}
        store_filter = (filter_from_json(manifest.store_filter)
                        if sharding.negative_filter
                        and manifest.store_filter is not None else None)
        store = cls(router, shards, config, sharding,
                    value_names=tuple(manifest.value_names),
                    value_dtypes=value_dtypes, stats=stats, pool=pool,
                    filters=filters, store_filter=store_filter)
        store.writable = writable
        if store.engine is not None and "counters" in manifest.lifecycle:
            store.engine.restore_counters(manifest.lifecycle["counters"])
        if hydrating:
            # Eager engine compilation would iterate (and download)
            # every shard; hydrated shards come out of _open_shared
            # with their compiled kernel already built.  Prime the
            # prune fast lane from the manifest instead, so an
            # all-miss batch is answered with zero shard fetches.
            cls._prime_prune_meta(store, manifest)
        else:
            store.compile_engines()
        return store

    # ------------------------------------------------------------------
    # Input normalization (shared with DeepMapping: identical shapes)
    # ------------------------------------------------------------------
    def _normalize_keys(self, keys: KeysLike) -> Dict[str, np.ndarray]:
        return normalize_keys(keys, self.key_names)

    def _normalize_rows(self, rows: RowsLike) -> Dict[str, np.ndarray]:
        return normalize_rows(rows, self.key_names, self.value_names)

    def _placeholder(self, column: str, size: int) -> np.ndarray:
        """All-miss value array of the recorded dtype."""
        dtype = self._value_dtypes.get(column, np.dtype(object))
        if dtype == object:
            return np.full(size, None, dtype=object)
        return np.zeros(size, dtype=dtype)

    def __repr__(self) -> str:
        live = sum(1 for shard in self.shards if shard is not None)
        return (
            f"ShardedDeepMapping(key={self.key_names}, "
            f"values={list(self.value_names)}, shards={self.n_shards} "
            f"({live} live), strategy={self.sharding.strategy!r}, "
            f"rows={len(self)})"
        )


def _aux_prefix(ordinal: int) -> str:
    """Unique aux-partition blob prefix per shard (shared pool safety)."""
    return f"shard{ordinal:04d}-aux"
