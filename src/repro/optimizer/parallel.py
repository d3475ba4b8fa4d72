"""Process-pool runner for the level-wise plan search.

:func:`repro.optimizer.apriori.search` hands its runner one chunk of
candidates at a time.  This runner takes one whole level per chunk: the
candidates inside a level are mutually independent (level k+1 only needs
level k's feasible sets), so their legality tests, and then the costing of
the survivors, fan out to worker processes; levels remain a barrier.  Each
worker runs a :class:`~repro.optimizer.apriori.SerialRunner` of its own.

Polyhedral work is shared across workers through the picklable, mergeable
:class:`~repro.optimizer.constraints.ConstraintCache`:

1. each worker holds a process-persistent cache, seeded from the pickled
   analysis at pool start;
2. every task returns the *delta* of cache entries the worker computed
   (journal-based, see ``begin_delta``/``collect_delta``);
3. the driver merges all deltas into its master cache as results arrive;
4. the next fan-out's tasks carry the entries the driver has not yet
   broadcast, so every worker starts the level warm with the union of all
   workers' previous work.

Merging is sound because cache keys are content-based and values are
deterministic functions of their key — two processes can only ever compute
identical values for the same key.  Consequently ``workers=N`` returns
bit-identical plans to ``workers=1``: the same candidates are tested in the
same canonical order, ``find_schedule`` is deterministic, and results are
collected in submission order regardless of completion order.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Sequence

from ..analysis import ProgramAnalysis
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..polyhedral import lp_memo
from .apriori import AprioriStats, SerialRunner

__all__ = ["ParallelOptimizerPool"]

# Tasks per worker per fan-out: >1 so a fast worker can steal work, small
# enough that each task amortizes its IPC (one find_schedule call is orders
# of magnitude costlier than pickling a candidate batch).
_OVERSUBSCRIBE = 2

# -- worker side ---------------------------------------------------------------

_RUNNER: SerialRunner | None = None


def _init_worker(payload: bytes) -> None:
    """Pool initializer: one analysis + one warm-started cache per process."""
    global _RUNNER
    # Workers forked from an instrumented driver would inherit its tracer /
    # registry globals (and, worse, its open JSONL file descriptor); the
    # driver is the single observer, so observability is off in workers.
    obs_trace.uninstall()
    obs_metrics.uninstall()
    analysis, evaluate, seed = pickle.loads(payload)
    _RUNNER = SerialRunner(analysis, evaluate=evaluate)
    if seed:
        _RUNNER.cache.merge(seed)


def _task(method: str, batch: Sequence, delta: dict | None):
    """``SerialRunner.test`` or ``.cost`` over one batch, in a worker.

    Returns ``(pid, results, cache_delta)``.
    """
    cache = _RUNNER.cache
    if delta:
        cache.merge(delta)
    cache.begin_delta()
    with lp_memo():
        out = getattr(_RUNNER, method)(batch)
    return os.getpid(), out, cache.collect_delta()


# -- driver side ---------------------------------------------------------------


class ParallelOptimizerPool:
    """A search runner that fans each level out over a process pool.

    A crashed worker (:class:`BrokenProcessPool`) restarts the pool once and
    re-runs the fan-out; a second crash degrades the pool for good to the
    serial runner over the master cache.  Re-running is sound — legality
    tests and costings are pure and cache merges are idempotent — so the
    results are bit-identical however they are computed; only
    ``AprioriStats.pool_restarts`` / ``sequential_fallbacks`` show a crash.

    The driver keeps the master :class:`ConstraintCache` (``cache``): it
    holds the union of every worker's polyhedral work, and the walk's
    greedy-maximal completion runs against it.
    """

    chunk = None  # one level per chunk: levels are the pool's barrier

    def __init__(self, analysis: ProgramAnalysis, evaluate, workers: int):
        """``evaluate`` is the :class:`SerialRunner`'s plan-costing
        callable; it is pickled to every worker."""
        if workers < 2:
            raise ValueError("ParallelOptimizerPool needs workers >= 2; "
                             "use the serial runner for workers=1")
        self.workers = workers
        self.serial = SerialRunner(analysis, evaluate=evaluate)
        self.cache = self.serial.cache
        self._degraded = False
        self._restarts = 0
        self._sent_keys: set[tuple] = set()
        self._pool = self._spawn_pool()

    def _spawn_pool(self) -> ProcessPoolExecutor:
        """Fresh pool seeded with the master cache's current contents."""
        payload = pickle.dumps((self.serial.analysis, self.serial.evaluate,
                                self.cache.export()))
        self._sent_keys = set(self.cache.keys())
        return ProcessPoolExecutor(
            max_workers=self.workers, initializer=_init_worker,
            initargs=(payload,))

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "ParallelOptimizerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the runner interface -----------------------------------------------

    def test(self, candidates: Sequence[frozenset[int]],
             stats: AprioriStats) -> list:
        """Legality-test ``candidates``; schedules (or ``None``) in order."""
        return self._fan_out("test", candidates, stats)

    def cost(self, items: Sequence, stats: AprioriStats) -> list:
        """Cost ``(set, schedule)`` items; their :class:`PlanCost`\\ s in
        order."""
        return self._fan_out("cost", items, stats)

    # -- helpers ------------------------------------------------------------

    def _fan_out(self, method: str, items: Sequence,
                 stats: AprioriStats) -> list:
        while not self._degraded:
            try:
                return self._run_on_pool(method, items, stats)
            except BrokenProcessPool:
                self._restart_or_degrade(stats)
        return getattr(self.serial, method)(items)

    def _run_on_pool(self, method: str, items: Sequence,
                     stats: AprioriStats) -> list:
        delta = self._pending_delta()
        self._sent_keys.update(delta)
        futures = [self._pool.submit(_task, method, batch, delta)
                   for batch in self._batches(items)]
        out: list = []
        for fut in futures:
            pid, results, worker_delta = fut.result()
            stats.record_task(pid)
            obs_trace.instant("opt.task", "optimizer",
                              kind="legality" if method == "test" else "cost",
                              pid=pid, candidates=len(results))
            # Merged worker entries are deliberately NOT added to
            # _sent_keys: the *other* workers still lack them, so the next
            # fan-out must carry them (re-merging is idempotent).
            self.cache.merge(worker_delta)
            out.extend(results)
        return out

    def _batches(self, items: Sequence) -> list[list]:
        """Split ``items`` into contiguous batches, preserving order."""
        n = max(1, -(-len(items) // (self.workers * _OVERSUBSCRIBE)))
        return [list(items[i:i + n]) for i in range(0, len(items), n)]

    def _pending_delta(self) -> dict:
        """Master-cache entries not yet shipped to the pool."""
        fresh = [k for k in self.cache.keys() if k not in self._sent_keys]
        return self.cache.export(fresh)

    def _restart_or_degrade(self, stats: AprioriStats) -> None:
        """React to a BrokenProcessPool: restart once, then go serial."""
        self.close()
        if self._restarts > 0:
            self._degraded = True
            stats.sequential_fallbacks += 1
            self._pool = None
        else:
            self._restarts += 1
            stats.pool_restarts += 1
            self._pool = self._spawn_pool()
