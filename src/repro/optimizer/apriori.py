"""Apriori-like plan enumeration (Algorithm 2, Lemma 2).

If a set of sharing opportunities cannot be realized simultaneously, neither
can any superset — so candidate sets are grown level-wise, a set of size k
being considered only when all its size-(k-1) subsets were feasible.  Each
feasible candidate yields one legal schedule; the empty set (the original
program order) is always included as Plan 0.

Candidates within one level are mutually independent (level k+1 only needs
level k's feasible sets), which is what the process-pool search in
:mod:`repro.optimizer.parallel` exploits; the sequential walk here and the
parallel one share :func:`generate_level_candidates` so both test the same
candidates in the same deterministic order.
"""

from __future__ import annotations

import itertools
import time
from typing import Iterable, Mapping, Sequence

from ..analysis import ProgramAnalysis, SharingOpportunity
from ..ir import Schedule
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .constraints import ConstraintCache
from .costing import (IOModel, elidable_write_bytes, evaluate_plan,
                      io_lower_bound, opportunity_savings_seconds_bound)
from .find_schedule import find_schedule
from .plan import Plan

__all__ = ["enumerate_feasible_sets", "enumerate_and_cost_pruned",
           "generate_level_candidates", "AprioriStats"]


class AprioriStats(obs_metrics.StatFields):
    """Search accounting: how much of the power set was pruned.

    Besides the aggregate counters, the search records per-level detail
    (``level_candidates``/``level_feasible``/``level_seconds``, keyed by set
    size k) and — when the parallel search layer is used — worker-utilization
    counters: ``workers`` (configured pool size), ``tasks_dispatched`` and
    ``worker_tasks`` (tasks executed per worker pid), so speedup and load
    balance are observable.

    The bound-pruned search (:func:`enumerate_and_cost_pruned`) additionally
    records ``cost_skips`` (feasible sets whose static I/O lower bound proved
    they could not beat the incumbent, so costing was skipped),
    ``bound_exits`` (1 when the search terminated early because the incumbent
    met the global static lower bound) and the ``io_lower_bound`` gauge (the
    global bound itself, in seconds).
    """

    _COUNTERS = ("candidates_tested", "feasible", "total_subsets",
                 "tasks_dispatched", "pool_restarts", "sequential_fallbacks",
                 "cost_skips", "bound_exits")
    _GAUGES = ("seconds", "io_lower_bound")

    __slots__ = tuple("_" + f for f in _COUNTERS + _GAUGES) + (
        "truncated", "level_candidates", "level_feasible",
        "level_seconds", "level_generated", "level_costed",
        "workers", "worker_tasks")

    def __init__(self):
        self._init_stats("repro_apriori_")
        self.truncated = False
        self.level_candidates: dict[int, int] = {}
        self.level_feasible: dict[int, int] = {}
        self.level_seconds: dict[int, float] = {}
        # Pre-pruning lattice size vs post-pruning costing work, per level:
        # ``level_generated`` counts downward-closure candidates before any
        # budget/bound cut; ``level_costed`` counts plans actually costed.
        self.level_generated: dict[int, int] = {}
        self.level_costed: dict[int, int] = {}
        self.workers = 1
        self.worker_tasks: dict[int, int] = {}
        registry = obs_metrics.CURRENT
        if registry is not None:
            self.bind(registry, search=registry.seq("search"))
        # pool_restarts / sequential_fallbacks: crash recovery in the
        # parallel layer — pools restarted after a BrokenProcessPool, and
        # levels/costings that fell back to the driver when a restarted
        # pool broke again.

    @property
    def pruned_fraction(self) -> float:
        """Fraction of the nonempty power set never even tested."""
        if self.total_subsets == 0:
            return 0.0
        return 1.0 - self.candidates_tested / self.total_subsets

    def record_level(self, k: int, candidates: int, feasible: int,
                     seconds: float, generated: int | None = None,
                     costed: int | None = None) -> None:
        self.level_candidates[k] = self.level_candidates.get(k, 0) + candidates
        self.level_feasible[k] = self.level_feasible.get(k, 0) + feasible
        self.level_seconds[k] = self.level_seconds.get(k, 0.0) + seconds
        self.level_generated[k] = self.level_generated.get(k, 0) + (
            candidates if generated is None else generated)
        self.level_costed[k] = self.level_costed.get(k, 0) + (
            feasible if costed is None else costed)

    def record_task(self, worker_id: int) -> None:
        self.tasks_dispatched += 1
        self.worker_tasks[worker_id] = self.worker_tasks.get(worker_id, 0) + 1

    def __repr__(self) -> str:
        par = f", workers={self.workers}" if self.workers > 1 else ""
        return (f"AprioriStats(tested={self.candidates_tested}/{self.total_subsets}, "
                f"feasible={self.feasible}, pruned={self.pruned_fraction:.1%}, "
                f"{self.seconds:.2f}s{par})")


def generate_level_candidates(feasible_prev: Iterable[frozenset[int]],
                              usable: Sequence[SharingOpportunity],
                              k: int) -> list[frozenset[int]]:
    """Level-k candidate sets in the search's canonical (sorted) order.

    A size-k set is a candidate iff every size-(k-1) subset was feasible
    (Lemma 2's downward closure).
    """
    feasible_prev = set(feasible_prev)
    candidates: set[frozenset[int]] = set()
    for base in feasible_prev:
        for o in usable:
            if o.index in base:
                continue
            cand = base | {o.index}
            if len(cand) != k or cand in candidates:
                continue
            if all(frozenset(sub) in feasible_prev
                   for sub in itertools.combinations(cand, k - 1)):
                candidates.add(cand)
    return sorted(candidates, key=sorted)


def enumerate_feasible_sets(analysis: ProgramAnalysis,
                            cache: ConstraintCache | None = None,
                            max_set_size: int | None = None,
                            max_candidates: int | None = None,
                            include_greedy_maximal: bool = True
                            ) -> tuple[list[tuple[frozenset[int], Schedule]], AprioriStats]:
    """All feasible sharing-opportunity sets with a schedule for each.

    Opportunities that failed multiplicity reduction are excluded (sound).
    Returns ``([(opportunity-index-set, schedule), ...], stats)``; the empty
    set maps to the program's original schedule.

    ``max_set_size`` / ``max_candidates`` bound the level-wise enumeration
    (programs whose opportunities are almost all mutually compatible have an
    exponentially feasible lattice).  The candidate budget is enforced at
    every level — including level 1 — and **every** budget-bounded exit sets
    ``stats.truncated``.  When the enumeration is truncated and
    ``include_greedy_maximal`` is set, one extra plan is added: a maximal
    feasible set grown greedily — the paper's own suggested remedy of
    combining enumeration with costing to terminate search early.
    """
    program = analysis.program
    if cache is None:
        cache = ConstraintCache(program)
    usable = [o for o in analysis.opportunities if o.reduced]
    by_index = {o.index: o for o in usable}
    stats = AprioriStats()
    stats.total_subsets = 2 ** len(usable) - 1
    t0 = time.perf_counter()

    results: list[tuple[frozenset[int], Schedule]] = [
        (frozenset(), analysis.schedule)]
    feasible_prev: set[frozenset[int]] = set()

    def budget_left() -> bool:
        return max_candidates is None or stats.candidates_tested < max_candidates

    # Level 1.  The budget applies here too: an untested singleton is an
    # untested candidate, so running out must mark the search truncated.
    t_level = time.perf_counter()
    feasible_singletons: list = []
    with obs_trace.span("apriori.level", "optimizer", k=1) as sp:
        for o in usable:
            if not budget_left():
                stats.truncated = True
                break
            stats.candidates_tested += 1
            sched = find_schedule(program, cache, [o], analysis.dependences)
            obs_trace.instant("opt.solve", "optimizer", set=[o.index],
                              feasible=sched is not None)
            if sched is not None:
                key = frozenset([o.index])
                feasible_prev.add(key)
                results.append((key, sched))
                feasible_singletons.append(o)
                stats.feasible += 1
        sp["candidates"] = stats.candidates_tested
        sp["feasible"] = stats.feasible
    stats.record_level(1, stats.candidates_tested, stats.feasible,
                       time.perf_counter() - t_level, generated=len(usable))

    k = 2
    while (feasible_prev and (max_set_size is None or k <= max_set_size)
           and k <= len(usable)):
        candidates = generate_level_candidates(feasible_prev, usable, k)
        if not candidates:
            break
        if not budget_left():
            # Candidates remain but the budget is spent: this exit is a
            # truncation just like the mid-level one below.
            stats.truncated = True
            break
        t_level = time.perf_counter()
        tested_before, feasible_before = stats.candidates_tested, stats.feasible
        feasible_now: set[frozenset[int]] = set()
        with obs_trace.span("apriori.level", "optimizer", k=k,
                            candidates=len(candidates)) as sp:
            for cand in candidates:
                if not budget_left():
                    stats.truncated = True
                    break
                stats.candidates_tested += 1
                opps = [by_index[i] for i in sorted(cand)]
                sched = find_schedule(program, cache, opps, analysis.dependences)
                obs_trace.instant("opt.solve", "optimizer", set=sorted(cand),
                                  feasible=sched is not None)
                if sched is not None:
                    feasible_now.add(cand)
                    results.append((cand, sched))
                    stats.feasible += 1
            sp["tested"] = stats.candidates_tested - tested_before
            sp["feasible"] = stats.feasible - feasible_before
        stats.record_level(k, stats.candidates_tested - tested_before,
                           stats.feasible - feasible_before,
                           time.perf_counter() - t_level,
                           generated=len(candidates))
        feasible_prev = feasible_now
        k += 1
    if feasible_prev and max_set_size is not None and k > max_set_size:
        stats.truncated = stats.truncated or any(
            len(s) == max_set_size for s in feasible_prev)

    if stats.truncated and include_greedy_maximal:
        seen = {key for key, _ in results}
        grown = grow_greedy_maximal(analysis, cache, feasible_singletons, stats)
        if grown is not None and grown[0] not in seen:
            results.append(grown)
            stats.feasible += 1

    stats.seconds = time.perf_counter() - t0
    return results, stats


def enumerate_and_cost_pruned(analysis: ProgramAnalysis,
                              cache: ConstraintCache | None,
                              params: Mapping[str, int],
                              io_model: IOModel,
                              *,
                              memory_cap_bytes: int | None = None,
                              max_set_size: int | None = None,
                              max_candidates: int | None = None,
                              dead_write_elimination: bool = True,
                              block_bytes: Mapping[str, int] | None = None,
                              include_greedy_maximal: bool = True
                              ) -> tuple[list[Plan], AprioriStats]:
    """Bound-pruned Apriori search: enumeration interleaved with costing.

    Russian-Doll style: nested subproblems (smaller candidate sets) are
    solved first — level-wise order guarantees it — and the best *fitting*
    plan found so far (the incumbent) becomes the bound for everything that
    follows.  Two static lower bounds drive the pruning:

    * **per-candidate**: a plan realizing set ``S`` can save at most
      ``sum_{o in S} opportunity_savings_seconds_bound(o)`` over baseline
      (plus every elidable intermediate write), so when that optimistic
      bound cannot beat the incumbent, the candidate's costing is skipped
      (``stats.cost_skips``) — its legality is still tested, because a
      *superset* may save more (bounds shrink as sets grow);
    * **global**: once the incumbent's cost meets the lower bound computed
      with *all* usable opportunities' savings, nothing unexplored can beat
      it and the whole search stops (``stats.bound_exits``).

    Both prunings are exact with respect to the chosen plan: a skipped
    candidate can at best *tie* the incumbent, and
    :meth:`OptimizationResult.best` breaks ties toward the earlier plan
    index, which the incumbent holds.  Hence the returned best plan and its
    cost are bit-identical to the exhaustive search's — but the plan *list*
    only covers candidates that could have been optimal under
    ``memory_cap_bytes``; querying ``best()`` with a different cap is only
    supported on the exhaustive result.
    """
    program = analysis.program
    if cache is None:
        cache = ConstraintCache(program)
    usable = [o for o in analysis.opportunities if o.reduced]
    by_index = {o.index: o for o in analysis.opportunities}
    stats = AprioriStats()
    stats.total_subsets = 2 ** len(usable) - 1
    t0 = time.perf_counter()

    plans: list[Plan] = []
    best: Plan | None = None

    def cost_plan(idx_set: frozenset[int], schedule: Schedule) -> Plan:
        nonlocal best
        realized = [by_index[i] for i in sorted(idx_set)]
        cost = evaluate_plan(program, params, schedule, realized, io_model,
                             dead_write_elimination=dead_write_elimination,
                             block_bytes=block_bytes)
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

    # Plan 0 (original order) doubles as the baseline-byte oracle: its cost
    # carries the un-shared, un-elided baseline read/write volumes.
    p0 = cost_plan(frozenset(), analysis.schedule)
    base_reads = p0.cost.baseline_read_bytes
    base_writes = p0.cost.baseline_write_bytes
    # With dead-write elimination off, no writes can be elided, so the
    # tighter (larger) bound with elidable = 0 is the correct one.
    elidable = (elidable_write_bytes(program, params, block_bytes)
                if dead_write_elimination else 0)
    savings_ub = {o.index: opportunity_savings_seconds_bound(
        o, params, io_model, block_bytes) for o in usable}
    global_lb = io_lower_bound(base_reads, base_writes,
                               sum(savings_ub.values()), elidable, io_model)
    stats.io_lower_bound = global_lb

    def candidate_lb(idx_set: frozenset[int]) -> float:
        return io_lower_bound(base_reads, base_writes,
                              sum(savings_ub[i] for i in idx_set),
                              elidable, io_model)

    def bound_met() -> bool:
        return best is not None and best.cost.io_seconds <= global_lb

    def budget_left() -> bool:
        return max_candidates is None or stats.candidates_tested < max_candidates

    seen_feasible: set[frozenset[int]] = {frozenset()}

    def consider(idx_set: frozenset[int], schedule: Schedule) -> None:
        stats.feasible += 1
        seen_feasible.add(idx_set)
        if best is not None and candidate_lb(idx_set) >= best.cost.io_seconds:
            stats.cost_skips += 1
        else:
            cost_plan(idx_set, schedule)

    feasible_prev: set[frozenset[int]] = set()
    feasible_singletons: list[SharingOpportunity] = []
    done = False

    # Level 1 (same canonical order and budget semantics as the exhaustive
    # walk, plus the two bound checks).
    t_level = time.perf_counter()
    plans_before = len(plans)
    with obs_trace.span("apriori.level", "optimizer", k=1) as sp:
        for o in usable:
            if bound_met():
                stats.bound_exits += 1
                done = True
                break
            if not budget_left():
                stats.truncated = True
                break
            stats.candidates_tested += 1
            sched = find_schedule(program, cache, [o], analysis.dependences)
            obs_trace.instant("opt.solve", "optimizer", set=[o.index],
                              feasible=sched is not None)
            if sched is not None:
                key = frozenset([o.index])
                feasible_prev.add(key)
                feasible_singletons.append(o)
                consider(key, sched)
        sp["candidates"] = stats.candidates_tested
        sp["feasible"] = stats.feasible
    stats.record_level(1, stats.candidates_tested, stats.feasible,
                       time.perf_counter() - t_level, generated=len(usable),
                       costed=len(plans) - plans_before)

    k = 2
    while (not done and feasible_prev
           and (max_set_size is None or k <= max_set_size)
           and k <= len(usable)):
        candidates = generate_level_candidates(feasible_prev, usable, k)
        if not candidates:
            break
        if not budget_left():
            stats.truncated = True
            break
        t_level = time.perf_counter()
        tested_before, feasible_before = stats.candidates_tested, stats.feasible
        plans_before = len(plans)
        feasible_now: set[frozenset[int]] = set()
        with obs_trace.span("apriori.level", "optimizer", k=k,
                            candidates=len(candidates)) as sp:
            for cand in candidates:
                if bound_met():
                    stats.bound_exits += 1
                    done = True
                    break
                if not budget_left():
                    stats.truncated = True
                    break
                stats.candidates_tested += 1
                opps = [by_index[i] for i in sorted(cand)]
                sched = find_schedule(program, cache, opps,
                                      analysis.dependences)
                obs_trace.instant("opt.solve", "optimizer", set=sorted(cand),
                                  feasible=sched is not None)
                if sched is not None:
                    feasible_now.add(cand)
                    consider(cand, sched)
            sp["tested"] = stats.candidates_tested - tested_before
            sp["feasible"] = stats.feasible - feasible_before
        stats.record_level(k, stats.candidates_tested - tested_before,
                           stats.feasible - feasible_before,
                           time.perf_counter() - t_level,
                           generated=len(candidates),
                           costed=len(plans) - plans_before)
        feasible_prev = feasible_now
        k += 1
    if (not done and feasible_prev and max_set_size is not None
            and k > max_set_size):
        stats.truncated = stats.truncated or any(
            len(s) == max_set_size for s in feasible_prev)

    if stats.truncated and include_greedy_maximal and not done:
        # A truncated search may have missed the best set entirely; the
        # greedy-maximal completion is always costed (never bound-skipped)
        # because it also serves as the memory-pressure fallback plan.
        grown = grow_greedy_maximal(analysis, cache, feasible_singletons,
                                    stats)
        if grown is not None and grown[0] not in seen_feasible:
            cost_plan(grown[0], grown[1])
            stats.feasible += 1

    stats.seconds = time.perf_counter() - t0
    return plans, stats


def grow_greedy_maximal(analysis: ProgramAnalysis, cache: ConstraintCache,
                        seeds: Sequence[SharingOpportunity],
                        stats: AprioriStats | None = None
                        ) -> tuple[frozenset[int], Schedule] | None:
    """Grow one maximal feasible set greedily from feasible singletons."""
    program = analysis.program
    current: list[SharingOpportunity] = []
    schedule = None
    for o in seeds:
        trial = current + [o]
        if stats is not None:
            stats.candidates_tested += 1
        sched = find_schedule(program, cache, trial, analysis.dependences)
        if sched is not None:
            current = trial
            schedule = sched
    if schedule is None:
        return None
    return frozenset(o.index for o in current), schedule
