"""RIOTShare's top-level optimizer (Figure 2).

``optimize`` runs the full pipeline for a program and concrete sizes:

1. sharing-opportunity / dependence analysis (Section 4.3, 5.1),
2. Apriori plan enumeration with FindSchedule legality tests (Section 5.3),
3. cost evaluation of every legal plan (Section 5.4),
4. selection of the cheapest plan that fits the memory cap.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, nullcontext
from functools import partial
from typing import Mapping, Sequence

from ..analysis import ProgramAnalysis, analyze
from ..exceptions import OptimizationError
from ..ir import Program
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..polyhedral import lp_memo
from .apriori import AprioriStats, SerialRunner, search
from .costing import IOBound, IOModel, evaluate_plan
from .parallel import ParallelOptimizerPool
from .plan import Plan

__all__ = ["OptimizationResult", "optimize"]


class OptimizationResult:
    """All legal plans plus selection helpers.

    ``cache_hit`` marks a result served from a plan cache: ``plans`` then
    holds just the cached best plan, ``analysis`` is the one that plan was
    costed against (the cache's, not a fresh one) and ``stats`` is a fresh
    :class:`AprioriStats` whose ``candidates_tested`` stays zero — the
    search never ran.  ``fingerprint`` is the key the plan cache was asked
    under, hit or miss (``None`` when no cache was given).
    """

    __slots__ = ("program", "params", "analysis", "plans", "stats",
                 "io_model", "seconds", "cache_hit", "fingerprint")

    def __init__(self, program: Program, params: Mapping[str, int],
                 analysis: ProgramAnalysis, plans: Sequence[Plan],
                 stats: AprioriStats, io_model: IOModel, seconds: float,
                 cache_hit: bool = False, fingerprint: str | None = None):
        self.program = program
        self.params = dict(params)
        self.analysis = analysis
        self.plans = list(plans)
        self.stats = stats
        self.io_model = io_model
        self.seconds = seconds
        self.cache_hit = cache_hit
        self.fingerprint = fingerprint

    @property
    def original_plan(self) -> Plan:
        return next(p for p in self.plans if p.is_original)

    def best(self, memory_cap_bytes: int | None = None) -> Plan:
        fitting = [p for p in self.plans if p.fits(memory_cap_bytes)]
        if not fitting:
            raise OptimizationError(
                f"no plan fits the memory cap of {memory_cap_bytes} bytes "
                f"(cheapest needs {min(p.cost.memory_bytes for p in self.plans)})")
        return min(fitting, key=lambda p: (p.cost.io_seconds, p.index))

    def plan_for(self, labels: Sequence[str]) -> Plan:
        """The plan realizing exactly the given opportunity labels."""
        want = frozenset(labels)
        for p in self.plans:
            if frozenset(p.realized_labels) == want:
                return p
        raise OptimizationError(f"no plan realizes exactly {sorted(want)}")

    def __repr__(self) -> str:
        return (f"OptimizationResult({self.program.name}: {len(self.plans)} plans, "
                f"{self.stats!r})")


def optimize(program: Program, params: Mapping[str, int],
             io_model: IOModel | None = None,
             memory_cap_bytes: int | None = None,
             max_set_size: int | None = None,
             max_candidates: int | None = None,
             block_bytes: Mapping[str, int] | None = None,
             workers: int | None = None,
             plan_cache=None,
             prune: bool = False) -> OptimizationResult:
    """Run the pipeline above for ``program`` at the binding ``params``.

    Every plan is costed with dead writes elided (footnote 8), as the
    engine runs it.  ``io_model`` defaults to :class:`IOModel`'s
    bandwidths; ``block_bytes`` overrides block sizes in the costing only.

    ``workers`` selects the runner of the one level-wise search
    (:func:`repro.optimizer.apriori.search`): ``None`` or ``1`` runs it
    in this process; ``N >= 2`` fans each level's legality tests and
    costings out to a process pool (:mod:`repro.optimizer.parallel`).
    Both runners return identical plans in identical order —
    parallelism changes wall time only.

    ``prune`` passes the search a static I/O lower bound
    (:class:`repro.optimizer.costing.IOBound`): feasible sets that
    provably cannot beat the incumbent are never costed, and the search
    stops outright once the incumbent meets the global bound.
    ``result.best()`` for the *same* ``memory_cap_bytes`` is
    bit-identical to the exhaustive search's, on either runner; the
    full plan list is not materialized, so leave ``prune`` off when the
    result is queried with other caps or mined for alternatives.
    Pruning does not affect the chosen plan, so it is deliberately not
    part of the plan-cache fingerprint: pruned and exhaustive runs share
    cache entries.

    ``plan_cache`` (any object with the
    :class:`repro.service.PlanCache` ``fingerprint``/``lookup``/
    ``flight``/``insert`` and ``structure_key``/``lattice``/
    ``keep_lattice`` protocol) short-circuits the search, and is asked
    *before* the analysis runs: a cached best plan for this exact
    (program, params, memory cap, knobs) fingerprint is returned
    without evaluating a single Apriori candidate
    (``result.cache_hit`` is then true), together with the analysis the
    cache costed it against — from the cache's memory tier that is a
    hash, a ``stat`` and a dict lookup, from its disk tier the cache
    re-analyzes and re-costs.  A miss runs the analysis and the search
    and hands the winner *and* the analysis to the cache for next time.
    It first takes the cache's ``flight`` and looks up again, so
    concurrent misses of one fingerprint run one search.

    The cache's structure tier covers a program it has searched at
    other block sizes: the walk reads no geometry, so on a fingerprint
    miss whose :func:`~repro.service.plan_cache.structure_key` hits
    (and whose fresh analysis finds the same opportunities) the stored
    feasible sets and schedules are re-costed instead of searched — the
    same plan list a cold search returns, with
    ``stats.candidates_tested == 0`` and ``cache_hit`` false.  A
    ``prune`` walk neither reads nor fills that tier.
    """
    if workers is not None and workers < 1:
        raise OptimizationError(f"workers must be >= 1, got {workers}")
    t0 = time.perf_counter()
    io_model = io_model or IOModel()
    knobs = dict(max_set_size=max_set_size, max_candidates=max_candidates,
                 block_bytes=block_bytes)
    fingerprint = None
    # The flight, once taken, is held until the plan is inserted.
    with ExitStack() as flight, obs_trace.span(
            "optimize", "optimizer", program=program.name,
            workers=workers or 1) as top, lp_memo():
        if plan_cache is not None:
            fingerprint = plan_cache.fingerprint(
                program, params, memory_cap_bytes, io_model, **knobs)
            with obs_trace.span("optimize.plan_cache", "optimizer") as sp:
                cached = plan_cache.lookup(fingerprint, program, params,
                                           io_model, count_miss=False)
                if cached is None:
                    flight.enter_context(plan_cache.flight(fingerprint))
                    cached = plan_cache.lookup(fingerprint, program, params,
                                               io_model)
                sp["hit"] = cached is not None
            if cached is not None:
                plan, analysis = cached
                top["cache_hit"] = True
                stats = AprioriStats()
                registry = obs_metrics.CURRENT
                if registry is not None:
                    stats.bind(registry, program=program.name)
                seconds = time.perf_counter() - t0
                return OptimizationResult(
                    program, params, analysis, [plan], stats, io_model,
                    seconds, cache_hit=True, fingerprint=fingerprint)
        with obs_trace.span("optimize.analyze", "optimizer") as sp:
            analysis = analyze(program, param_values=params)
            sp["opportunities"] = len(analysis.opportunities)
        evaluate = partial(evaluate_plan, program, dict(params),
                           io_model=io_model, block_bytes=block_bytes)
        by_index = {o.index: o for o in analysis.opportunities}
        structure = lattice = None
        if plan_cache is not None and not prune:
            structure = plan_cache.structure_key(
                program, params, max_set_size, max_candidates)
            labels = tuple((o.label, o.reduced)
                           for o in analysis.opportunities)
            lattice = plan_cache.lattice(structure, labels)
            top["structure_hit"] = lattice is not None
        if lattice is not None:
            with obs_trace.span("optimize.recost", "optimizer"):
                found = [(idx_set, schedule, evaluate(
                    schedule, [by_index[j] for j in sorted(idx_set)]))
                    for idx_set, schedule in lattice]
            stats = AprioriStats()
        else:
            if workers is not None and workers > 1:
                scope = ParallelOptimizerPool(analysis, evaluate, workers)
            else:
                scope = nullcontext(SerialRunner(analysis, evaluate=evaluate))
            with scope as runner, \
                    obs_trace.span("optimize.search", "optimizer"):
                bound = IOBound(program, params, io_model,
                                analysis.opportunities,
                                block_bytes) if prune else None
                found, stats = search(analysis, runner,
                                      max_set_size=max_set_size,
                                      max_candidates=max_candidates,
                                      bound=bound,
                                      memory_cap_bytes=memory_cap_bytes)
            if structure is not None:
                plan_cache.keep_lattice(structure, labels, [
                    (idx_set, schedule) for idx_set, schedule, _ in found])
        plans = [Plan(i, schedule, [by_index[j] for j in sorted(idx_set)],
                      cost)
                 for i, (idx_set, schedule, cost) in enumerate(found)]
        top["plans"] = len(plans)
        top["tested"] = stats.candidates_tested
        registry = obs_metrics.CURRENT
        if registry is not None:
            stats.bind(registry, program=program.name)
        seconds = time.perf_counter() - t0
        result = OptimizationResult(program, params, analysis, plans, stats,
                                    io_model, seconds,
                                    fingerprint=fingerprint)
        if plan_cache is not None:
            try:
                best = result.best(memory_cap_bytes)
            except OptimizationError:
                pass  # nothing fits the cap — nothing worth caching
            else:
                plan_cache.insert(fingerprint, program, best, analysis,
                                  **knobs)
    return result

