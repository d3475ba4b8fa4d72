"""Process-pool execution layer for the optimizer.

The two hot phases of :meth:`repro.optimizer.Optimizer.optimize` are
embarrassingly parallel *within* their natural barriers:

* **Apriori enumeration** — candidates inside one level are mutually
  independent (level k+1 only needs level k's feasible sets), so each
  level's candidate list is fanned out to worker processes; levels remain a
  barrier.
* **Plan costing** — ``evaluate_plan`` over the feasible plans is a pure
  per-plan computation.

Polyhedral work is shared across workers through the picklable, mergeable
:class:`~repro.optimizer.constraints.ConstraintCache`:

1. each worker holds a process-persistent cache, seeded from the pickled
   analysis at pool start;
2. every legality-test task returns the *delta* of cache entries the worker
   computed (journal-based, see ``begin_delta``/``collect_delta``);
3. the driver merges all deltas into its master cache at the level barrier;
4. the next level's tasks carry the entries the driver has not yet
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
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Mapping, Sequence

from ..analysis import ProgramAnalysis
from ..ir import Schedule
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..polyhedral import lp_memo
from .apriori import AprioriStats, generate_level_candidates, grow_greedy_maximal
from .constraints import ConstraintCache
from .costing import (IOModel, elidable_write_bytes, evaluate_plan,
                      io_lower_bound, opportunity_savings_seconds_bound)
from .find_schedule import find_schedule
from .plan import Plan

__all__ = ["ParallelOptimizerPool"]

# Tasks per worker per level: >1 so a fast worker can steal work, small
# enough that each task amortizes its IPC (one find_schedule call is orders
# of magnitude costlier than pickling a candidate batch).
_OVERSUBSCRIBE = 2

# -- worker side ---------------------------------------------------------------

_STATE: dict | None = None


def _init_worker(payload: bytes) -> None:
    """Pool initializer: one analysis + one warm-started cache per process."""
    global _STATE
    # Workers forked from an instrumented driver would inherit its tracer /
    # registry globals (and, worse, its open JSONL file descriptor); the
    # driver is the single observer, so observability is off in workers.
    obs_trace.uninstall()
    obs_metrics.uninstall()
    analysis, params, io_model, dwe, block_bytes, seed = pickle.loads(payload)
    cache = ConstraintCache(analysis.program)
    if seed:
        cache.merge(seed)
    _STATE = {
        "analysis": analysis,
        "by_index": {o.index: o for o in analysis.opportunities},
        "params": params,
        "io_model": io_model,
        "dwe": dwe,
        "block_bytes": block_bytes,
        "cache": cache,
    }


def _test_candidates(batch: Sequence[tuple[int, ...]],
                     delta: dict | None):
    """Legality-test a batch of candidate index tuples.

    Returns ``(pid, [(candidate, schedule-or-None), ...], cache_delta)``.
    """
    st = _STATE
    cache: ConstraintCache = st["cache"]
    if delta:
        cache.merge(delta)
    cache.begin_delta()
    analysis: ProgramAnalysis = st["analysis"]
    out = []
    with lp_memo():
        for cand in batch:
            opps = [st["by_index"][i] for i in cand]
            sched = find_schedule(analysis.program, cache, opps,
                                  analysis.dependences)
            out.append((cand, sched))
    return os.getpid(), out, cache.collect_delta()


def _cost_plans(batch: Sequence[tuple[int, tuple[int, ...], Schedule]]):
    """Cost a batch of ``(plan_id, candidate, schedule)`` triples.

    Returns ``(pid, [(plan_id, PlanCost), ...])``.
    """
    st = _STATE
    analysis: ProgramAnalysis = st["analysis"]
    out = []
    for plan_id, cand, schedule in batch:
        realized = [st["by_index"][i] for i in cand]
        cost = evaluate_plan(analysis.program, st["params"], schedule,
                             realized, st["io_model"],
                             dead_write_elimination=st["dwe"],
                             block_bytes=st["block_bytes"])
        out.append((plan_id, cost))
    return os.getpid(), out


# -- driver side ---------------------------------------------------------------


class ParallelOptimizerPool:
    """Drives Apriori enumeration and plan costing over a process pool.

    The driver keeps the master :class:`ConstraintCache`; use it (e.g. for
    the greedy-maximal completion) after enumeration — it holds the union of
    every worker's polyhedral work.
    """

    def __init__(self, analysis: ProgramAnalysis, params: Mapping[str, int],
                 io_model: IOModel, workers: int,
                 dead_write_elimination: bool = True,
                 block_bytes: Mapping[str, int] | None = None,
                 seed_cache: ConstraintCache | None = None):
        if workers < 2:
            raise ValueError("ParallelOptimizerPool needs workers >= 2; "
                             "use the sequential path for workers=1")
        self.analysis = analysis
        self.params = dict(params)
        self.workers = workers
        self.cache = ConstraintCache(analysis.program)
        if seed_cache is not None:
            self.cache.merge(seed_cache.export())
        self._io_model = io_model
        self._dwe = dead_write_elimination
        self._block_bytes = block_bytes
        # A crashed worker (BrokenProcessPool) triggers one pool restart; a
        # second crash degrades the search to driver-side sequential
        # evaluation — identical results, just slower.
        self._degraded = False
        self._restarts = 0
        self._sent_keys: set[tuple] = set()
        self._pool = self._spawn_pool()

    def _spawn_pool(self) -> ProcessPoolExecutor:
        """Fresh pool seeded with the master cache's current contents."""
        payload = pickle.dumps((self.analysis, self.params, self._io_model,
                                self._dwe, self._block_bytes,
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

    # -- helpers ------------------------------------------------------------

    def _batches(self, items: Sequence) -> list[list]:
        """Split ``items`` into contiguous batches, preserving order."""
        n = max(1, -(-len(items) // (self.workers * _OVERSUBSCRIBE)))
        return [list(items[i:i + n]) for i in range(0, len(items), n)]

    def _pending_delta(self) -> dict:
        """Master-cache entries not yet shipped to the pool."""
        fresh = [k for k in self.cache.keys() if k not in self._sent_keys]
        return self.cache.export(fresh)

    def _restart_or_degrade(self, stats: AprioriStats) -> None:
        """React to a BrokenProcessPool: restart once, then go sequential."""
        self.close()
        if self._restarts > 0:
            self._degraded = True
            stats.sequential_fallbacks += 1
            self._pool = None
        else:
            self._restarts += 1
            stats.pool_restarts += 1
            self._pool = self._spawn_pool()

    def _run_level(self, candidates: Sequence[frozenset[int]],
                   stats: AprioriStats) -> list[tuple[frozenset[int], Schedule | None]]:
        """Test one level's candidates; returns results in candidate order.

        A worker crash (BrokenProcessPool) retries the whole level — first
        on a fresh pool, then sequentially on the driver.  Re-running a
        level is sound: legality tests are pure and cache merges are
        idempotent, so results are bit-identical however they are computed.
        """
        ordered = [tuple(sorted(c)) for c in candidates]
        while not self._degraded:
            try:
                return self._run_level_pool(ordered, stats)
            except BrokenProcessPool:
                self._restart_or_degrade(stats)
        return self._run_level_seq(ordered, stats)

    def _run_level_pool(self, candidates: Sequence[tuple[int, ...]],
                        stats: AprioriStats
                        ) -> list[tuple[frozenset[int], Schedule | None]]:
        delta = self._pending_delta()
        self._sent_keys.update(delta)
        futures = [self._pool.submit(_test_candidates, batch, delta)
                   for batch in self._batches(candidates)]
        ordered: list[tuple[frozenset[int], Schedule | None]] = []
        for fut in futures:
            pid, results, worker_delta = fut.result()
            stats.record_task(pid)
            obs_trace.instant("opt.task", "optimizer", kind="legality",
                              pid=pid, candidates=len(results))
            # Merged worker entries are deliberately NOT added to
            # _sent_keys: the *other* workers still lack them, so the next
            # level's broadcast must carry them (re-merging is idempotent).
            self.cache.merge(worker_delta)
            ordered.extend((frozenset(cand), sched) for cand, sched in results)
        return ordered

    def _run_level_seq(self, candidates: Sequence[tuple[int, ...]],
                       stats: AprioriStats
                       ) -> list[tuple[frozenset[int], Schedule | None]]:
        """Driver-side fallback: same candidates, same canonical order,
        against the master cache — identical results to the pool path."""
        by_index = {o.index: o for o in self.analysis.opportunities}
        ordered: list[tuple[frozenset[int], Schedule | None]] = []
        for batch in self._batches(candidates):
            stats.record_task(os.getpid())
            for cand in batch:
                opps = [by_index[i] for i in cand]
                sched = find_schedule(self.analysis.program, self.cache, opps,
                                      self.analysis.dependences)
                ordered.append((frozenset(cand), sched))
        return ordered

    # -- enumeration --------------------------------------------------------

    def enumerate_feasible_sets(self, max_set_size: int | None = None,
                                max_candidates: int | None = None,
                                include_greedy_maximal: bool = True
                                ) -> tuple[list[tuple[frozenset[int], Schedule]], AprioriStats]:
        """Parallel Algorithm 2: identical results (sets, order, stats
        counters) to :func:`repro.optimizer.apriori.enumerate_feasible_sets`."""
        analysis = self.analysis
        usable = [o for o in analysis.opportunities if o.reduced]
        stats = AprioriStats()
        stats.workers = self.workers
        stats.total_subsets = 2 ** len(usable) - 1
        t0 = time.perf_counter()

        results: list[tuple[frozenset[int], Schedule]] = [
            (frozenset(), analysis.schedule)]
        feasible_prev: set[frozenset[int]] = set()

        def budget_room() -> int | None:
            if max_candidates is None:
                return None
            return max_candidates - stats.candidates_tested

        def take_budget(candidates: list) -> list:
            """Budget-bounded prefix, flagging truncation like the
            sequential walk does."""
            room = budget_room()
            if room is None or len(candidates) <= room:
                return candidates
            stats.truncated = True
            return candidates[:room]

        # Level 1: singletons in opportunity-index order (the canonical sort
        # order, since ``usable`` is index-ascending).
        t_level = time.perf_counter()
        feasible_singletons: list = []
        level1 = take_budget([frozenset([o.index]) for o in usable])
        with obs_trace.span("apriori.level", "optimizer", k=1,
                            candidates=len(level1)) as sp:
            for cand, sched in self._run_level(level1, stats):
                stats.candidates_tested += 1
                obs_trace.instant("opt.solve", "optimizer", set=sorted(cand),
                                  feasible=sched is not None)
                if sched is not None:
                    feasible_prev.add(cand)
                    results.append((cand, sched))
                    feasible_singletons.append(
                        next(o for o in usable if o.index in cand))
                    stats.feasible += 1
            sp["feasible"] = stats.feasible
        stats.record_level(1, stats.candidates_tested, stats.feasible,
                           time.perf_counter() - t_level,
                           generated=len(usable))

        k = 2
        while (feasible_prev and (max_set_size is None or k <= max_set_size)
               and k <= len(usable)):
            candidates = generate_level_candidates(feasible_prev, usable, k)
            if not candidates:
                break
            room = budget_room()
            if room is not None and room <= 0:
                stats.truncated = True
                break
            generated = len(candidates)
            candidates = take_budget(candidates)
            t_level = time.perf_counter()
            tested_before = stats.candidates_tested
            feasible_before = stats.feasible
            feasible_now: set[frozenset[int]] = set()
            with obs_trace.span("apriori.level", "optimizer", k=k,
                                candidates=len(candidates)) as sp:
                for cand, sched in self._run_level(candidates, stats):
                    stats.candidates_tested += 1
                    obs_trace.instant("opt.solve", "optimizer",
                                      set=sorted(cand),
                                      feasible=sched is not None)
                    if sched is not None:
                        feasible_now.add(cand)
                        results.append((cand, sched))
                        stats.feasible += 1
                sp["feasible"] = stats.feasible - feasible_before
            stats.record_level(k, stats.candidates_tested - tested_before,
                               stats.feasible - feasible_before,
                               time.perf_counter() - t_level,
                               generated=generated)
            feasible_prev = feasible_now
            k += 1
        if feasible_prev and max_set_size is not None and k > max_set_size:
            stats.truncated = stats.truncated or any(
                len(s) == max_set_size for s in feasible_prev)

        if stats.truncated and include_greedy_maximal:
            # Runs on the driver against the merged master cache, so it is
            # warm with every worker's polyhedral work.
            seen = {key for key, _ in results}
            grown = grow_greedy_maximal(analysis, self.cache,
                                        feasible_singletons, stats)
            if grown is not None and grown[0] not in seen:
                results.append(grown)
                stats.feasible += 1

        stats.seconds = time.perf_counter() - t0
        return results, stats

    # -- pruned enumeration + costing ---------------------------------------

    def enumerate_and_cost_pruned(self, memory_cap_bytes: int | None = None,
                                  max_set_size: int | None = None,
                                  max_candidates: int | None = None,
                                  include_greedy_maximal: bool = True
                                  ) -> tuple[list[Plan], AprioriStats]:
        """Parallel bound-pruned search (see
        :func:`repro.optimizer.apriori.enumerate_and_cost_pruned`).

        Levels stay the barrier: a level's candidates are legality-tested in
        parallel, the survivors whose static lower bound could still beat
        the incumbent are costed in parallel, and the incumbent/bound checks
        run at the barrier.  The incumbent therefore lags the sequential
        pruned walk by at most one level — it prunes less (``cost_skips`` /
        ``bound_exits`` counters may differ) but never differently: the
        returned best plan and cost are bit-identical to both the sequential
        pruned and the exhaustive searches.
        """
        analysis = self.analysis
        usable = [o for o in analysis.opportunities if o.reduced]
        by_index = {o.index: o for o in analysis.opportunities}
        stats = AprioriStats()
        stats.workers = self.workers
        stats.total_subsets = 2 ** len(usable) - 1
        t0 = time.perf_counter()

        plans: list[Plan] = []
        best: Plan | None = None

        def add_plan(idx_set: frozenset[int], schedule: Schedule,
                     cost) -> Plan:
            nonlocal best
            realized = [by_index[i] for i in sorted(idx_set)]
            plan = Plan(len(plans), schedule, realized, cost)
            plans.append(plan)
            obs_trace.instant("opt.plan_cost", "optimizer", plan=plan.index,
                              read_bytes=cost.read_bytes,
                              write_bytes=cost.write_bytes,
                              io_seconds=cost.io_seconds,
                              memory_bytes=cost.memory_bytes)
            if plan.fits(memory_cap_bytes) and (
                    best is None or cost.io_seconds < best.cost.io_seconds):
                best = plan
            return plan

        # Plan 0 on the driver: one evaluation, and its cost carries the
        # baseline byte volumes the bounds are computed from.
        p0_cost = evaluate_plan(analysis.program, self.params,
                                analysis.schedule, [], self._io_model,
                                dead_write_elimination=self._dwe,
                                block_bytes=self._block_bytes)
        add_plan(frozenset(), analysis.schedule, p0_cost)
        base_reads = p0_cost.baseline_read_bytes
        base_writes = p0_cost.baseline_write_bytes
        elidable = (elidable_write_bytes(analysis.program, self.params,
                                         self._block_bytes)
                    if self._dwe else 0)
        savings_ub = {o.index: opportunity_savings_seconds_bound(
            o, self.params, self._io_model, self._block_bytes)
            for o in usable}
        global_lb = io_lower_bound(base_reads, base_writes,
                                   sum(savings_ub.values()), elidable,
                                   self._io_model)
        stats.io_lower_bound = global_lb

        def candidate_lb(idx_set: frozenset[int]) -> float:
            return io_lower_bound(base_reads, base_writes,
                                  sum(savings_ub[i] for i in idx_set),
                                  elidable, self._io_model)

        def bound_met() -> bool:
            return best is not None and best.cost.io_seconds <= global_lb

        def budget_room() -> int | None:
            if max_candidates is None:
                return None
            return max_candidates - stats.candidates_tested

        def take_budget(candidates: list) -> list:
            room = budget_room()
            if room is None or len(candidates) <= room:
                return candidates
            stats.truncated = True
            return candidates[:room]

        seen_feasible: set[frozenset[int]] = {frozenset()}
        feasible_prev: set[frozenset[int]] = set()
        feasible_singletons: list = []
        done = False

        def run_pruned_level(k: int, candidates: list,
                             generated: int) -> set[frozenset[int]]:
            """Test + cost one level at the barrier; returns its feasible
            sets.  Survivor costing is filtered by the incumbent *entering*
            the level (the bound lags by one barrier, see docstring)."""
            nonlocal done
            t_level = time.perf_counter()
            tested_before = stats.candidates_tested
            feasible_before = stats.feasible
            feasible_now: set[frozenset[int]] = set()
            to_cost: list[tuple[frozenset[int], Schedule]] = []
            with obs_trace.span("apriori.level", "optimizer", k=k,
                                candidates=len(candidates)) as sp:
                for cand, sched in self._run_level(candidates, stats):
                    stats.candidates_tested += 1
                    obs_trace.instant("opt.solve", "optimizer",
                                      set=sorted(cand),
                                      feasible=sched is not None)
                    if sched is None:
                        continue
                    feasible_now.add(cand)
                    seen_feasible.add(cand)
                    stats.feasible += 1
                    if k == 1:
                        feasible_singletons.append(by_index[next(iter(cand))])
                    if best is not None and (candidate_lb(cand)
                                             >= best.cost.io_seconds):
                        stats.cost_skips += 1
                    else:
                        to_cost.append((cand, sched))
                sp["tested"] = stats.candidates_tested - tested_before
                sp["feasible"] = stats.feasible - feasible_before
            items = [(i, tuple(sorted(idx_set)), schedule)
                     for i, (idx_set, schedule) in enumerate(to_cost)]
            costs = self._cost_items(items, stats)
            for i, (idx_set, schedule) in enumerate(to_cost):
                add_plan(idx_set, schedule, costs[i])
            stats.record_level(k, stats.candidates_tested - tested_before,
                               stats.feasible - feasible_before,
                               time.perf_counter() - t_level,
                               generated=generated, costed=len(to_cost))
            if bound_met():
                stats.bound_exits += 1
                done = True
            return feasible_now

        if bound_met():
            # The baseline itself already meets the global bound: no sharing
            # can pay off, so no level ever runs.
            stats.bound_exits += 1
            done = True
        else:
            level1 = take_budget([frozenset([o.index]) for o in usable])
            feasible_prev = run_pruned_level(1, level1, len(usable))

        k = 2
        while (not done and feasible_prev
               and (max_set_size is None or k <= max_set_size)
               and k <= len(usable)):
            candidates = generate_level_candidates(feasible_prev, usable, k)
            if not candidates:
                break
            room = budget_room()
            if room is not None and room <= 0:
                stats.truncated = True
                break
            feasible_prev = run_pruned_level(k, take_budget(candidates),
                                             len(candidates))
            k += 1
        if (not done and feasible_prev and max_set_size is not None
                and k > max_set_size):
            stats.truncated = stats.truncated or any(
                len(s) == max_set_size for s in feasible_prev)

        if stats.truncated and include_greedy_maximal and not done:
            grown = grow_greedy_maximal(analysis, self.cache,
                                        feasible_singletons, stats)
            if grown is not None and grown[0] not in seen_feasible:
                cost = evaluate_plan(analysis.program, self.params, grown[1],
                                     [by_index[i] for i in sorted(grown[0])],
                                     self._io_model,
                                     dead_write_elimination=self._dwe,
                                     block_bytes=self._block_bytes)
                add_plan(grown[0], grown[1], cost)
                stats.feasible += 1

        stats.seconds = time.perf_counter() - t0
        return plans, stats

    # -- costing ------------------------------------------------------------

    def cost_plans(self, feasible: Sequence[tuple[frozenset[int], Schedule]],
                   stats: AprioriStats | None = None) -> list[Plan]:
        """Fan ``evaluate_plan`` out over the feasible plans (order kept).

        Same crash discipline as enumeration: one pool restart, then a
        sequential fallback on the driver.
        """
        items = [(plan_id, tuple(sorted(idx_set)), schedule)
                 for plan_id, (idx_set, schedule) in enumerate(feasible)]
        costs = self._cost_items(items, stats)
        by_index = {o.index: o for o in self.analysis.opportunities}
        plans: list[Plan] = []
        for plan_id, (idx_set, schedule) in enumerate(feasible):
            realized = [by_index[i] for i in sorted(idx_set)]
            cost = costs[plan_id]
            plans.append(Plan(plan_id, schedule, realized, cost))
            obs_trace.instant("opt.plan_cost", "optimizer", plan=plan_id,
                              read_bytes=cost.read_bytes,
                              write_bytes=cost.write_bytes,
                              io_seconds=cost.io_seconds,
                              memory_bytes=cost.memory_bytes)
        return plans

    def _cost_items(self, items, stats) -> dict[int, object]:
        """Cost ``(plan_id, candidate, schedule)`` triples with the usual
        crash discipline: one pool restart, then the driver-side fallback."""
        costs: dict[int, object] = {}
        while not self._degraded:
            try:
                costs = self._cost_plans_pool(items, stats)
                break
            except BrokenProcessPool:
                self._restart_or_degrade(stats or AprioriStats())
        if self._degraded and not costs:
            costs = self._cost_plans_seq(items, stats)
        return costs

    def _cost_plans_pool(self, items, stats) -> dict[int, object]:
        futures = [self._pool.submit(_cost_plans, batch)
                   for batch in self._batches(items)]
        costs: dict[int, object] = {}
        for fut in futures:
            pid, results = fut.result()
            if stats is not None:
                stats.record_task(pid)
            costs.update(results)
        return costs

    def _cost_plans_seq(self, items, stats) -> dict[int, object]:
        by_index = {o.index: o for o in self.analysis.opportunities}
        costs: dict[int, object] = {}
        for batch in self._batches(items):
            if stats is not None:
                stats.record_task(os.getpid())
            for plan_id, cand, schedule in batch:
                realized = [by_index[i] for i in cand]
                costs[plan_id] = evaluate_plan(
                    self.analysis.program, self.params, schedule, realized,
                    self._io_model, dead_write_elimination=self._dwe,
                    block_bytes=self._block_bytes)
        return costs
