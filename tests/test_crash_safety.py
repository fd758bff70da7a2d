"""Crash-safe persistent tiers: checksummed kernel-cache entries,
corruption quarantine, advisory locking, concurrent stores from
threads and processes, the unwritable-root fallback, and the
watchdog's bounded-retry abort policy."""

import multiprocessing as mp
import threading

import numpy as np
import pytest

from repro.obs import metrics
from repro.resilience import WatchdogConfig, corrupt_cache_entry
from repro.runtime import KernelCache, file_lock, locking_available
from repro.runtime.kernel_cache import payload_checksum

pytestmark = pytest.mark.skipif(not locking_available(),
                                reason="platform lacks fcntl locking")


def store_entry(cache, key="k1", source="def f(): pass"):
    cache.store(key, source=source, mode="vector", width=8,
                arg_names=["sv"], function_name="f", fused=True,
                arena=False)


def corrupt_count():
    """This process's ``kernel_cache_corrupt_total``."""
    return metrics.counter("kernel_cache_corrupt_total").value


# ---------------------------------------------------------------------------
# Kernel cache: checksums and quarantine
# ---------------------------------------------------------------------------


class TestKernelCacheChecksums:
    def test_round_trip_verifies(self, tmp_path):
        cache = KernelCache(tmp_path / "kernels")
        store_entry(cache)
        payload = cache.load("k1")
        assert payload["source"] == "def f(): pass"
        assert payload["checksum"] == payload_checksum(payload)

    def test_truncated_entry_quarantined(self, tmp_path):
        cache = KernelCache(tmp_path / "kernels")
        store_entry(cache)
        corrupted = corrupt_cache_entry(cache, mode="truncate")
        assert corrupted is not None
        assert cache.load("k1") is None
        assert corrupt_count() == 1
        # moved aside, not deleted: available for post-mortem
        quarantine = cache.root / "quarantine"
        assert list(quarantine.glob("*.json"))
        assert cache.persistent_stats().corrupt == 1

    def test_scrambled_checksum_quarantined(self, tmp_path):
        cache = KernelCache(tmp_path / "kernels")
        store_entry(cache)
        corrupt_cache_entry(cache, mode="scramble")
        assert cache.load("k1") is None
        assert corrupt_count() == 1

    def test_rebuild_after_quarantine(self, tmp_path):
        cache = KernelCache(tmp_path / "kernels")
        store_entry(cache)
        corrupt_cache_entry(cache, mode="truncate")
        assert cache.load("k1") is None   # quarantined: miss
        store_entry(cache)                # rebuild
        assert cache.load("k1") is not None

    def test_quarantine_does_not_poison_other_entries(self, tmp_path):
        cache = KernelCache(tmp_path / "kernels")
        store_entry(cache, "aaa")
        store_entry(cache, "bbb")
        corrupt_cache_entry(cache.root / "aaa.json", mode="truncate")
        assert cache.load("aaa") is None
        assert cache.load("bbb") is not None

    def test_corrupt_counter_in_metrics(self, tmp_path):
        cache = KernelCache(tmp_path / "kernels")
        store_entry(cache)
        before = getattr(metrics.default_registry()
                         .get("kernel_cache_corrupt_total"), "value", 0)
        corrupt_cache_entry(cache, mode="truncate")
        cache.load("k1")
        after = metrics.default_registry() \
            .get("kernel_cache_corrupt_total").value
        assert after == before + 1

    def test_corrupt_nothing_returns_none(self, tmp_path):
        assert corrupt_cache_entry(tmp_path) is None

    def test_corrupt_rejects_unknown_mode(self, tmp_path):
        cache = KernelCache(tmp_path / "kernels")
        store_entry(cache)
        with pytest.raises(ValueError):
            corrupt_cache_entry(cache, mode="summon")


# ---------------------------------------------------------------------------
# Kernel cache: unwritable directory -> stores kept in the overlay
# ---------------------------------------------------------------------------


class TestKernelCacheFallback:
    def unwritable_root(self, tmp_path):
        # a path UNDER an existing file can never be mkdir'd — this
        # stays unwritable even for root (unlike chmod tricks)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        return blocker / "kernels"

    def test_falls_back_to_memory(self, tmp_path):
        cache = KernelCache(self.unwritable_root(tmp_path))
        assert not cache.writable
        assert cache.load("k1") is None        # a plain miss, not corrupt
        store_entry(cache)
        assert cache.load("k1")["source"] == "def f(): pass"
        assert cache.load("nope") is None
        assert corrupt_count() == 0
        # the directory holds nothing; the store lives in this process
        stats = cache.persistent_stats()
        assert stats.entries == 0 and stats.bytes == 0

    def test_fallback_increments_metric(self, tmp_path):
        before = getattr(metrics.default_registry()
                         .get("cache_readonly_fallbacks_total"), "value", 0)
        KernelCache(self.unwritable_root(tmp_path))
        after = metrics.default_registry() \
            .get("cache_readonly_fallbacks_total").value
        assert after == before + 1

    def test_fallback_logs_diagnostic(self, tmp_path, caplog):
        import logging
        with caplog.at_level(logging.WARNING, logger="repro.resilience"):
            KernelCache(self.unwritable_root(tmp_path))
        assert any("kernel_cache" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# Kernel cache: concurrent stores (threads + processes)
# ---------------------------------------------------------------------------


def _cache_worker(root, worker, n_ops):
    cache = KernelCache(root)
    for i in range(n_ops):
        store_entry(cache, f"w{worker}-{i}")
        assert cache.load(f"w{worker}-{i}") is not None


class TestKernelCacheConcurrency:
    N_WORKERS = 4
    N_OPS = 8

    def test_thread_stress_no_lost_entries_or_stats(self, tmp_path):
        root = tmp_path / "kernels"
        threads = [threading.Thread(target=_cache_worker,
                                    args=(root, w, self.N_OPS))
                   for w in range(self.N_WORKERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        cache = KernelCache(root)
        for w in range(self.N_WORKERS):
            for i in range(self.N_OPS):
                assert cache.load(f"w{w}-{i}") is not None
        assert cache.persistent_stats().entries \
            == self.N_WORKERS * self.N_OPS

    def test_process_stress_no_lost_entries_or_stats(self, tmp_path):
        root = tmp_path / "kernels"
        ctx = mp.get_context("fork")
        procs = [ctx.Process(target=_cache_worker,
                             args=(root, w, self.N_OPS))
                 for w in range(self.N_WORKERS)]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        cache = KernelCache(root)
        for w in range(self.N_WORKERS):
            for i in range(self.N_OPS):
                assert cache.load(f"w{w}-{i}") is not None
        # persistent_stats counts only entries whose checksum holds:
        # none lost, none torn
        assert cache.persistent_stats().entries \
            == self.N_WORKERS * self.N_OPS

    def test_quarantine_under_concurrent_readers(self, tmp_path):
        # readers racing a corrupt entry: exactly one quarantine file,
        # every reader sees a miss, none crashes
        root = tmp_path / "kernels"
        cache = KernelCache(root)
        store_entry(cache)
        corrupt_cache_entry(cache, mode="scramble")
        results = []

        def read():
            results.append(KernelCache(root).load("k1"))

        threads = [threading.Thread(target=read) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [None] * 6
        assert cache.load("k1") is None


# ---------------------------------------------------------------------------
# Advisory file locking
# ---------------------------------------------------------------------------


class TestFileLock:
    def test_acquire_and_release(self, tmp_path):
        lock = tmp_path / ".lock"
        with file_lock(lock) as acquired:
            assert acquired
        with file_lock(lock) as acquired:   # released: reacquirable
            assert acquired

    def test_exclusion_times_out(self, tmp_path):
        lock = tmp_path / ".lock"
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with file_lock(lock):
                entered.set()
                release.wait(5.0)

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert entered.wait(5.0)
            # flock is per-fd: a second open of the same path in this
            # process still contends
            with file_lock(lock, timeout=0.05) as acquired:
                assert not acquired        # held elsewhere: proceed unlocked
        finally:
            release.set()
            thread.join()

    def test_shared_locks_coexist(self, tmp_path):
        lock = tmp_path / ".lock"
        with file_lock(lock, shared=True) as first:
            assert first
            with file_lock(lock, shared=True, timeout=0.2) as second:
                assert second

    def test_unwritable_lock_path_proceeds_unlocked(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with file_lock(blocker / "x" / ".lock", timeout=0.1) as acquired:
            assert not acquired


# ---------------------------------------------------------------------------
# Watchdog: an exhausted retry budget raises
# ---------------------------------------------------------------------------


class TestWatchdogRetryBudget:
    def _runner(self):
        from repro.codegen import generate_limpet_mlir
        from repro.models import load_model
        from repro.runtime import KernelRunner
        return KernelRunner(generate_limpet_mlir(load_model("Plonsey")))

    def test_default_policy_still_raises(self):
        from repro.resilience import NumericalDivergenceError
        runner = self._runner()
        state = runner.make_state(8)

        def always_poison(s):
            s.externals["Vm"][0] = np.nan

        with pytest.raises(NumericalDivergenceError):
            runner.run(state, 50, 0.01,
                       watchdog=WatchdogConfig(check_interval=5,
                                               max_retries=1),
                       step_hook=always_poison)
