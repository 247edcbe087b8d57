"""Partial-result fault isolation on the sharded store.

The contract under test: when one shard fails in ``on_shard_error=
"partial"`` mode, every key routed to a *healthy* shard comes back
bit-identical to the fully-healthy lookup, and every key routed to the
broken shard is marked in ``failed_mask`` with ``found == False``.
Exercised deterministically and as a hypothesis property over random
key subsets and random victim shards.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.resilience import (Deadline, DeadlineExceeded, PartialResult,
                              PartialResultError)
from repro.shard import ShardedDeepMapping, ShardingConfig
from repro.testing import break_shard

from ..core.conftest import fast_config


@pytest.fixture(scope="module")
def store():
    from repro.data import synthetic
    table = synthetic.multi_column(1200, "low", seed=3)
    built = ShardedDeepMapping.fit(
        table, fast_config(epochs=5),
        ShardingConfig(n_shards=4, strategy="range",
                       on_shard_error="partial"),
    )
    yield built
    built.close()


@pytest.fixture(scope="module")
def all_keys(store):
    # every key the store holds, in a shuffled order
    rng = np.random.default_rng(11)
    keys = np.arange(1200, dtype=np.int64)
    rng.shuffle(keys)
    return keys


class TestPartialContract:
    def test_healthy_lookup_returns_plain_result(self, store, all_keys):
        result = store.lookup({"key": all_keys[:200]})
        # zero-overhead healthy path: no PartialResult wrapper
        assert not isinstance(result, PartialResult)
        assert result.found.all()

    def test_broken_shard_marks_only_its_keys(self, store, all_keys):
        keys = all_keys[:400]
        want = store.lookup({"key": keys})
        restore = break_shard(store, 1)
        try:
            got = store.lookup({"key": keys})
        finally:
            restore()
        assert isinstance(got, PartialResult)
        assert not got.complete
        assert 0 < got.n_failed < keys.size
        failed = got.failed_mask
        # failed keys: marked not-found
        assert not got.found[failed].any()
        # healthy keys: bit-identical to the healthy run
        healthy = ~failed
        assert np.array_equal(got.found[healthy], want.found[healthy])
        for name in want.values:
            assert np.array_equal(got.values[name][healthy],
                                  want.values[name][healthy])
        assert 1 in got.shard_errors
        with pytest.raises(PartialResultError):
            got.raise_if_failed()

    def test_restore_heals_the_store(self, store, all_keys):
        restore = break_shard(store, 2)
        restore()
        result = store.lookup({"key": all_keys[:100]})
        assert not isinstance(result, PartialResult)
        assert result.found.all()

    def test_two_broken_shards_accumulate(self, store, all_keys):
        keys = all_keys
        restores = [break_shard(store, 0), break_shard(store, 3)]
        try:
            got = store.lookup({"key": keys})
        finally:
            for restore in restores:
                restore()
        assert isinstance(got, PartialResult)
        assert set(got.shard_errors) == {0, 3}

    def test_raise_mode_override_propagates(self, store, all_keys):
        restore = break_shard(store, 1)
        try:
            with pytest.raises(RuntimeError, match="injected failure"):
                store.lookup({"key": all_keys[:50]},
                             on_shard_error="raise")
        finally:
            restore()


class TestTimeoutClassification:
    def test_job_raised_timeout_is_a_shard_error_not_a_straggler(
            self, store, all_keys):
        # On 3.11+ concurrent.futures.TimeoutError aliases the builtin
        # TimeoutError, so a timeout raised *inside* a finished shard
        # job (e.g. a backend socket timeout) used to be misclassified
        # as a deadline straggler and wrapped in DeadlineExceeded.
        restore = break_shard(
            store, 1,
            exc_factory=lambda: TimeoutError("socket read timed out"))
        try:
            got = store.lookup({"key": all_keys[:400]})
        finally:
            restore()
        assert isinstance(got, PartialResult)
        error = got.shard_errors[1]
        assert isinstance(error, TimeoutError)
        assert not isinstance(error, DeadlineExceeded)
        assert "socket read timed out" in str(error)

    @pytest.mark.parametrize("n", [400, 5000])
    def test_deadline_armed_timeout_is_a_shard_error(self, store, all_keys,
                                                    n):
        # With a deadline the jobs run on the executor: 400 keys as one
        # unit for every shard, 5000 keys as one unit per shard.
        keys = np.random.default_rng(n).choice(all_keys, n)
        restore = break_shard(
            store, 1,
            exc_factory=lambda: TimeoutError("socket read timed out"))
        try:
            got = store.lookup({"key": keys}, deadline=Deadline(30.0))
        finally:
            restore()
        assert isinstance(got, PartialResult)
        assert set(got.shard_errors) == {1}
        error = got.shard_errors[1]
        assert isinstance(error, TimeoutError)
        assert not isinstance(error, DeadlineExceeded)
        assert "socket read timed out" in str(error)


class TestStragglerIsolation:
    @pytest.fixture(scope="class")
    def threaded_store(self):
        from repro.data import synthetic
        table = synthetic.multi_column(1200, "low", seed=3)
        built = ShardedDeepMapping.fit(
            table, fast_config(epochs=5),
            ShardingConfig(n_shards=4, strategy="range", max_workers=4,
                           on_shard_error="partial"),
        )
        yield built
        built.close()

    @pytest.mark.parametrize("n", [400, 8000])
    def test_straggler_never_writes_into_the_returned_result(
            self, threaded_store, all_keys, n):
        # The wedge sits in plan_lookup, before the job scatters: once
        # released, the job must write into the arrays it was dispatched
        # with, never into the copies the caller already holds.
        keys = np.random.default_rng(n).choice(all_keys, n)
        gate = threading.Event()
        restore = break_shard(threaded_store, 1, delay_s=10, release=gate)
        try:
            got = threaded_store.lookup({"key": keys},
                                        deadline=Deadline(0.2))
            found = got.found.copy()
            values = {c: arr.copy() for c, arr in got.values.items()}
            assert isinstance(got, PartialResult)
            assert isinstance(got.shard_errors[1], DeadlineExceeded)
            assert not (got.found & got.failed_mask).any()
        finally:
            gate.set()
            restore()
            threaded_store.close()  # joins the released straggler
        np.testing.assert_array_equal(got.found, found)
        for column, arr in values.items():
            np.testing.assert_array_equal(got.values[column], arr)
        assert not (got.found & got.failed_mask).any()


class TestPartialParityProperty:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           victim=st.integers(min_value=0, max_value=3),
           n=st.integers(min_value=1, max_value=300))
    def test_healthy_positions_bit_identical(self, store, all_keys,
                                             seed, victim, n):
        rng = np.random.default_rng(seed)
        # mix of present and absent keys, with duplicates
        keys = rng.choice(np.arange(-50, 1250, dtype=np.int64), size=n)
        want = store.lookup({"key": keys})
        restore = break_shard(store, victim)
        try:
            got = store.lookup({"key": keys})
        finally:
            restore()
        failed = getattr(got, "failed_mask",
                         np.zeros(keys.size, dtype=bool))
        healthy = ~failed
        assert np.array_equal(got.found[healthy], want.found[healthy])
        for name in want.values:
            assert np.array_equal(got.values[name][healthy],
                                  want.values[name][healthy])
        # every failed position reports not-found, never a stale value
        assert not got.found[failed].any()
