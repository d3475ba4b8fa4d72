"""Apriori-like plan search (Algorithm 2, Lemma 2).

If a set of sharing opportunities cannot be realized simultaneously, neither
can any superset — so candidate sets are grown level-wise, a set of size k
being considered only when all its size-(k-1) subsets were feasible.  Each
feasible candidate yields one legal schedule; the empty set (the original
program order) is always included as Plan 0.

:func:`search` is the one walk.  Where its legality tests and costings run
is up to a *runner*: :class:`SerialRunner` runs them in this process, one
candidate per chunk; :class:`~repro.optimizer.parallel.ParallelOptimizerPool`
fans one level per chunk out to worker processes, since candidates within
a level are mutually independent.  An optional static I/O lower bound
(:class:`~repro.optimizer.costing.IOBound`) adds the Russian Doll incumbent
cut to the same lattice.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Iterable, Sequence

from ..analysis import ProgramAnalysis, SharingOpportunity
from ..ir import Schedule
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .constraints import ConstraintCache
from .costing import IOBound, PlanCost
from .find_schedule import find_schedule

__all__ = ["search", "SerialRunner", "enumerate_feasible_sets",
           "grow_greedy_maximal", "AprioriStats"]


class AprioriStats(obs_metrics.StatFields):
    """Search accounting: how much of the power set was pruned.

    Besides the aggregate counters, the search records per-level detail
    (``level_candidates``/``level_feasible``/``level_seconds``, keyed by set
    size k) and — when the search runs on a process pool — worker-utilization
    counters: ``workers`` (configured pool size), ``tasks_dispatched`` and
    ``worker_tasks`` (tasks executed per worker pid), so speedup and load
    balance are observable.

    A bound-pruned search (:func:`search` with a ``bound``) additionally
    records ``cost_skips`` (feasible sets whose static I/O lower bound proved
    they could not beat the incumbent, so costing was skipped),
    ``bound_exits`` (1 when the incumbent met the global static lower bound
    while candidates were still untested, ending the search early) and the
    ``io_lower_bound`` gauge (the global bound itself, in seconds).
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
        # process pool — pools restarted after a BrokenProcessPool, and
        # pools that fell back to the serial runner when a restarted pool
        # broke again.

    @property
    def pruned_fraction(self) -> float:
        """Fraction of the nonempty power set never even tested."""
        if self.total_subsets == 0:
            return 0.0
        return 1.0 - self.candidates_tested / self.total_subsets

    def record_level(self, k: int, candidates: int, feasible: int,
                     seconds: float, generated: int, costed: int) -> None:
        self.level_candidates[k] = self.level_candidates.get(k, 0) + candidates
        self.level_feasible[k] = self.level_feasible.get(k, 0) + feasible
        self.level_seconds[k] = self.level_seconds.get(k, 0.0) + seconds
        self.level_generated[k] = self.level_generated.get(k, 0) + generated
        self.level_costed[k] = self.level_costed.get(k, 0) + costed

    def record_task(self, worker_id: int) -> None:
        self.tasks_dispatched += 1
        self.worker_tasks[worker_id] = self.worker_tasks.get(worker_id, 0) + 1

    def __repr__(self) -> str:
        par = f", workers={self.workers}" if self.workers > 1 else ""
        return (f"AprioriStats(tested={self.candidates_tested}/{self.total_subsets}, "
                f"feasible={self.feasible}, pruned={self.pruned_fraction:.1%}, "
                f"{self.seconds:.2f}s{par})")


class SerialRunner:
    """Runs the search's legality tests and costings in this process.

    ``evaluate(schedule, realized)`` costs one plan (typically
    :func:`~repro.optimizer.costing.evaluate_plan` with the program, the
    parameters and the cost knobs bound); without it the runner only tests
    legality, and every cost it returns is ``None``.  ``chunk = 1`` hands it
    one candidate at a time, so a bound-pruned walk moves its incumbent
    after every plan.
    """

    workers = 1
    chunk = 1

    def __init__(self, analysis: ProgramAnalysis,
                 cache: ConstraintCache | None = None,
                 evaluate: Callable[[Schedule, list[SharingOpportunity]],
                                    PlanCost] | None = None):
        self.analysis = analysis
        self.cache = cache if cache is not None else \
            ConstraintCache(analysis.program)
        self.evaluate = evaluate
        self._by_index = {o.index: o for o in analysis.opportunities}

    def _realized(self, idx_set: Iterable[int]) -> list[SharingOpportunity]:
        return [self._by_index[i] for i in sorted(idx_set)]

    def test(self, candidates: Sequence[frozenset[int]],
             stats: AprioriStats | None = None) -> list[Schedule | None]:
        a = self.analysis
        return [find_schedule(a.program, self.cache, self._realized(c),
                              a.dependences) for c in candidates]

    def cost(self, items: Sequence[tuple[frozenset[int], Schedule]],
             stats: AprioriStats | None = None) -> list[PlanCost | None]:
        if self.evaluate is None:
            return [None] * len(items)
        return [self.evaluate(schedule, self._realized(idx_set))
                for idx_set, schedule in items]


def _level_candidates(feasible_prev: Iterable[frozenset[int]],
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


def search(analysis: ProgramAnalysis, runner, *,
           max_set_size: int | None = None,
           max_candidates: int | None = None,
           bound: IOBound | None = None,
           memory_cap_bytes: int | None = None,
           include_greedy_maximal: bool = True
           ) -> tuple[list[tuple[frozenset[int], Schedule, PlanCost | None]],
                      AprioriStats]:
    """Algorithm 2 on ``runner``: ``([(set, schedule, cost), ...], stats)``.

    Plan 0 (the empty set, the program's original schedule) comes first;
    every feasible set follows in test order.  Opportunities that failed
    multiplicity reduction are excluded (sound).  Each level is handed to
    the runner in chunks of ``runner.chunk`` candidates (``None``: the whole
    level).  Before each chunk the walk checks the bound exit and the
    candidate budget; it then has the runner legality-test the chunk and
    cost the feasible sets, and updates the incumbent.

    ``max_set_size`` / ``max_candidates`` bound the walk (programs whose
    opportunities are almost all mutually compatible have an exponentially
    feasible lattice).  The candidate budget applies at every level, and
    every budget-bounded exit sets ``stats.truncated``.  When the walk is
    truncated and ``include_greedy_maximal`` is set, one extra plan is
    added: a maximal feasible set grown greedily — the paper's own suggested
    remedy of combining enumeration with costing to terminate search early.

    With a ``bound`` the search is Russian-Doll style: smaller sets are
    solved first (the level-wise order guarantees it), and the cheapest plan
    fitting ``memory_cap_bytes`` so far (the incumbent) bounds what follows.

    * A feasible set whose static lower bound cannot beat the incumbent is
      not costed (``stats.cost_skips``).  Its legality is still tested,
      because a *superset* may save more.
    * Once the incumbent meets the global lower bound (all usable
      opportunities' savings), nothing untested can beat it and the walk
      stops (``stats.bound_exits``).

    Both cuts are exact with respect to the chosen plan: a skipped
    candidate can at best *tie* the incumbent, and
    :meth:`OptimizationResult.best` breaks ties toward the earlier plan
    index, which the incumbent holds.  Hence the best plan and its cost are
    bit-identical to the exhaustive search's, but the plan *list* only
    covers candidates that could have been optimal under
    ``memory_cap_bytes``.
    """
    usable = [o for o in analysis.opportunities if o.reduced]
    stats = AprioriStats()
    stats.workers = runner.workers
    stats.total_subsets = 2 ** len(usable) - 1
    t0 = time.perf_counter()

    found: list[tuple[frozenset[int], Schedule, PlanCost | None]] = []
    seen: set[frozenset[int]] = {frozenset()}
    best: PlanCost | None = None
    done = False

    def cost(items: list[tuple[frozenset[int], Schedule]]) -> None:
        nonlocal best
        for (idx_set, schedule), c in zip(items, runner.cost(items, stats)):
            found.append((idx_set, schedule, c))
            if c is None:
                continue
            obs_trace.instant("opt.plan_cost", "optimizer",
                              plan=len(found) - 1, read_bytes=c.read_bytes,
                              write_bytes=c.write_bytes,
                              io_seconds=c.io_seconds,
                              memory_bytes=c.memory_bytes)
            if ((memory_cap_bytes is None
                 or c.memory_bytes <= memory_cap_bytes)
                    and (best is None or c.io_seconds < best.io_seconds)):
                best = c

    # Plan 0's cost carries the un-shared, un-elided baseline byte volumes
    # every bound starts from.
    cost([(frozenset(), analysis.schedule)])
    if bound is not None:
        baseline = found[0][2]
        stats.io_lower_bound = floor = bound(baseline)

    def run_level(k: int, level: list[frozenset[int]]) -> set[frozenset[int]]:
        """Test and cost one level, chunk by chunk; its feasible sets."""
        nonlocal done
        t_level = time.perf_counter()
        tested0, feasible0, costed0 = \
            stats.candidates_tested, stats.feasible, len(found)
        feasible_now: set[frozenset[int]] = set()
        step = runner.chunk or len(level) or 1
        with obs_trace.span("apriori.level", "optimizer", k=k,
                            candidates=len(level)) as sp:
            for i in range(0, len(level), step):
                if (bound is not None and best is not None
                        and best.io_seconds <= floor):
                    stats.bound_exits += 1
                    done = True
                    break
                chunk = level[i:i + step]
                if max_candidates is not None:
                    room = max_candidates - stats.candidates_tested
                    if room < len(chunk):
                        stats.truncated = True
                        chunk = chunk[:max(room, 0)]
                to_cost = []
                for cand, sched in zip(chunk, runner.test(chunk, stats)
                                       if chunk else ()):
                    stats.candidates_tested += 1
                    obs_trace.instant("opt.solve", "optimizer",
                                      set=sorted(cand),
                                      feasible=sched is not None)
                    if sched is None:
                        continue
                    stats.feasible += 1
                    feasible_now.add(cand)
                    seen.add(cand)
                    if (bound is not None and best is not None
                            and bound(baseline, cand) >= best.io_seconds):
                        stats.cost_skips += 1
                    else:
                        to_cost.append((cand, sched))
                if to_cost:
                    cost(to_cost)
                if stats.truncated:
                    break
            sp["tested"] = stats.candidates_tested - tested0
            sp["feasible"] = stats.feasible - feasible0
        stats.record_level(k, stats.candidates_tested - tested0,
                           stats.feasible - feasible0,
                           time.perf_counter() - t_level,
                           generated=len(level), costed=len(found) - costed0)
        return feasible_now

    k = 1
    feasible_prev = run_level(1, [frozenset([o.index]) for o in usable])
    singletons = [o for o in usable if frozenset([o.index]) in feasible_prev]
    while (not done and feasible_prev and k < len(usable)
           and (max_set_size is None or k < max_set_size)):
        level = _level_candidates(feasible_prev, usable, k + 1)
        if not level:
            break
        if max_candidates is not None and \
                stats.candidates_tested >= max_candidates:
            stats.truncated = True  # candidates remain, the budget is spent
            break
        k += 1
        feasible_prev = run_level(k, level)
    if (not done and feasible_prev and k == max_set_size and k < len(usable)
            and _level_candidates(feasible_prev, usable, k + 1)):
        stats.truncated = True  # the level above has candidates, untested

    if stats.truncated and include_greedy_maximal and not done:
        # Always costed, never bound-skipped: it also serves as the
        # memory-pressure fallback plan.
        grown = grow_greedy_maximal(analysis, runner.cache, singletons, stats)
        if grown is not None and grown[0] not in seen:
            cost([grown])
            stats.feasible += 1

    stats.seconds = time.perf_counter() - t0
    return found, stats


def enumerate_feasible_sets(analysis: ProgramAnalysis,
                            cache: ConstraintCache | None = None,
                            max_set_size: int | None = None,
                            max_candidates: int | None = None,
                            include_greedy_maximal: bool = True
                            ) -> tuple[list[tuple[frozenset[int], Schedule]], AprioriStats]:
    """All feasible sharing-opportunity sets with a schedule for each:
    :func:`search` on a serial runner that does not cost.

    Returns ``([(opportunity-index-set, schedule), ...], stats)``; the empty
    set maps to the program's original schedule.
    """
    found, stats = search(analysis, SerialRunner(analysis, cache),
                          max_set_size=max_set_size,
                          max_candidates=max_candidates,
                          include_greedy_maximal=include_greedy_maximal)
    return [(idx_set, schedule) for idx_set, schedule, _ in found], stats


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
