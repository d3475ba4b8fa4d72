"""The advisor's pluggable analyzers.

Every analyzer looks at one axis of the workload and emits zero or more
:class:`~repro.advisor.recommendations.Recommendation` objects whose
predictions cover the *whole* workload (module contract documented there).
The shared :class:`AdvisorContext` memoizes optimizer runs by template so
an analyzer pass costs one pruned Apriori search per distinct
(program, params, cap) triple, not per job.

Built-in analyzers, in the order they run:

* :class:`BlockGeometryAnalyzer` — re-cost each job template under every
  divisor-compatible block-geometry rescaling at fixed logical size
  (generalizing the :mod:`~repro.advisor.blocksize` sweep, which varies
  the *problem*, not the blocking); recommend the best one.
* :class:`MaterializationAnalyzer` — split templates at each intermediate
  array; when several jobs would share the producer prefix (same prefix-
  input seeds), recommend persisting it once.
* :class:`MemoryBudgetAnalyzer` — re-cost templates without the cap to
  find plans the budget is pricing out; otherwise right-size the cap to
  observed admission behaviour (advisory).
* :class:`PrefetchAnalyzer` — read prefetch stage/wait ratios; deepen or
  introduce staging when jobs are I/O-bound (advisory).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..exceptions import OptimizationError
from ..obs import metrics as obs_metrics
from ..optimizer import Plan, optimize
from ..service.jobs import JobSpec
from .apply import AdvisorConfig
from .recommendations import Recommendation, rank
from .workload import WorkloadProfile, geometry_candidates, \
    materialization_split

__all__ = ["AdvisorContext", "Analyzer", "BlockGeometryAnalyzer",
           "MaterializationAnalyzer", "MemoryBudgetAnalyzer",
           "PrefetchAnalyzer", "ANALYZERS",
           "run_analyzers"]


class AdvisorContext:
    """Shared state for one analyzer pass: config, optional observed
    profile, and a plan memo keyed by job template + cap."""

    def __init__(self, config: AdvisorConfig,
                 profile: WorkloadProfile | None = None):
        self.config = config
        self.profile = profile
        self._plans: dict[tuple, Plan | None] = {}

    def cap_for(self, job: JobSpec) -> int:
        return job.memory_cap if job.memory_cap is not None \
            else self.config.memory_cap_bytes

    def best_plan(self, job: JobSpec, cap: int | None = "job"
                  ) -> Plan | None:
        """The cheapest legal plan for a job's template under ``cap``
        (``"job"`` = the job's effective cap; ``None`` = uncapped).
        Memoized; returns None when nothing fits."""
        if cap == "job":
            cap = self.cap_for(job)
        key = job.template_key() + (cap,)
        if key not in self._plans:
            try:
                result = optimize(
                    job.build_program(), job.params,
                    io_model=self.config.io_model, memory_cap_bytes=cap,
                    max_set_size=self.config.max_set_size,
                    max_candidates=self.config.max_candidates, prune=True)
                self._plans[key] = result.best(cap)
            except OptimizationError:
                self._plans[key] = None
        return self._plans[key]

    def groups(self) -> list[list[JobSpec]]:
        """Jobs sharing a template (the unit recommendations rewrite);
        explicit-program jobs are excluded — they are advisor products, not
        advisor inputs."""
        by_key: dict[tuple, list[JobSpec]] = {}
        for job in self.config.jobs:
            if job.program_obj is None:
                by_key.setdefault(job.template_key(), []).append(job)
        return list(by_key.values())

    def baseline(self) -> tuple[int, float]:
        """Predicted whole-workload (bytes, model seconds) under the
        current config — the "before" side of every recommendation."""
        total_b, total_s = 0, 0.0
        for job in self.config.jobs:
            plan = self.best_plan(job)
            if plan is not None:
                total_b += plan.cost.read_bytes + plan.cost.write_bytes
                total_s += plan.cost.io_seconds
        return total_b, total_s

    def confidence_for(self, jobs: Sequence[JobSpec]) -> float:
        """Plan-exact jobs execute their plan's I/O byte-for-byte, so
        predictions about them are near-certain; scheduled execution can
        deviate (pool reuse across jobs), so confidence drops."""
        return 0.9 if all(j.plan_exact for j in jobs) else 0.6


def _plan_bytes(plan: Plan) -> int:
    return plan.cost.read_bytes + plan.cost.write_bytes


class Analyzer:
    """Base: subclasses set ``name``/``kind`` and implement analyze()."""

    name = "base"
    kind = "base"

    def analyze(self, ctx: AdvisorContext) -> list[Recommendation]:
        raise NotImplementedError


class BlockGeometryAnalyzer(Analyzer):
    name = "block_geometry"
    kind = "block_geometry"

    #: Bound on optimizer calls per template group.
    max_candidates_per_group = 12

    def analyze(self, ctx: AdvisorContext) -> list[Recommendation]:
        base_b, base_s = ctx.baseline()
        recs = []
        for jobs in ctx.groups():
            rep = jobs[0]
            cur = ctx.best_plan(rep)
            if cur is None:
                continue
            best_label, best_cand, best_plan = None, None, None
            for label, cand in geometry_candidates(
                    rep)[:self.max_candidates_per_group]:
                plan = ctx.best_plan(cand)
                if plan is None:  # coarser blocks can outgrow the cap
                    continue
                if best_plan is None or _plan_bytes(plan) < _plan_bytes(best_plan):
                    best_label, best_cand, best_plan = label, cand, plan
            if best_plan is None or \
                    _plan_bytes(best_plan) >= _plan_bytes(cur):
                continue
            n = len(jobs)
            saved_b = n * (_plan_bytes(cur) - _plan_bytes(best_plan))
            saved_s = n * (cur.cost.io_seconds - best_plan.cost.io_seconds)
            axis, factor = best_label.split("/")
            recs.append(Recommendation(
                kind=self.kind,
                title=f"Rescale {rep.program} blocks: {axis} ÷ {factor}",
                detail=(f"{n} job(s) of template {rep.program}"
                        f"{rep.params}: coarsening axis {axis} by {factor} "
                        f"(block args {best_cand.args}) cuts the best "
                        f"plan's I/O from {_plan_bytes(cur):,} to "
                        f"{_plan_bytes(best_plan):,} bytes per job at "
                        f"fixed logical array sizes."),
                actions=[{"type": "rescale", "jobs": [j.name for j in jobs],
                          "axis": axis, "factor": int(factor)}],
                predicted_before_bytes=base_b,
                predicted_after_bytes=base_b - saved_b,
                predicted_before_seconds=base_s,
                predicted_after_seconds=base_s - saved_s,
                confidence=ctx.confidence_for(jobs)))
        return recs


class MaterializationAnalyzer(Analyzer):
    name = "materialization"
    kind = "materialize"

    def analyze(self, ctx: AdvisorContext) -> list[Recommendation]:
        base_b, base_s = ctx.baseline()
        recs = []
        for jobs in ctx.groups():
            rep = jobs[0]
            if len(jobs) < 2:
                continue  # nothing to share
            cur = ctx.best_plan(rep)
            if cur is None:
                continue
            program = rep.build_program()
            for aname, arr in sorted(program.arrays.items()):
                if arr.kind.value != "intermediate":
                    continue
                split = materialization_split(program, aname)
                if split is None:
                    continue
                prefix, residual = split
                prefix_inputs = sorted(n for n, a in prefix.arrays.items()
                                       if a.kind.value == "input")
                producers = {tuple((n, j.seed_for(n)) for n in prefix_inputs)
                             for j in jobs}
                n, g = len(jobs), len(producers)
                if g >= n:
                    continue  # no sharing → pure overhead
                pre_plan = self._plan(ctx, rep, prefix)
                post_plan = self._plan(ctx, rep, residual)
                if pre_plan is None or post_plan is None:
                    continue
                before = n * _plan_bytes(cur)
                after = g * _plan_bytes(pre_plan) + n * _plan_bytes(post_plan)
                if after >= before:
                    continue
                before_s = n * cur.cost.io_seconds
                after_s = g * pre_plan.cost.io_seconds \
                    + n * post_plan.cost.io_seconds
                recs.append(Recommendation(
                    kind=self.kind,
                    title=f"Materialize {rep.program}.{aname} "
                          f"({g} producer(s) feed {n} jobs)",
                    detail=(f"{n} jobs share the computation of {aname} "
                            f"(inputs {prefix_inputs} agree across "
                            f"{g} distinct seed group(s)); persisting it "
                            f"runs the producer prefix {g}× instead of "
                            f"{n}× — {before:,} → {after:,} bytes for "
                            f"this template."),
                    actions=[{"type": "materialize", "array": aname,
                              "jobs": [j.name for j in jobs]}],
                    predicted_before_bytes=base_b,
                    predicted_after_bytes=base_b - (before - after),
                    predicted_before_seconds=base_s,
                    predicted_after_seconds=base_s - (before_s - after_s),
                    confidence=ctx.confidence_for(jobs)))
        return recs

    @staticmethod
    def _plan(ctx: AdvisorContext, rep: JobSpec, program) -> Plan | None:
        # Memo-keyed by the derived program's name (embeds the split
        # array), so prefix and residual never collide in the plan cache.
        sub = rep.replace(program_obj=program, args={}, name=program.name)
        return ctx.best_plan(sub)


class MemoryBudgetAnalyzer(Analyzer):
    name = "memory_budget"
    kind = "memory_budget"

    def analyze(self, ctx: AdvisorContext) -> list[Recommendation]:
        base_b, base_s = ctx.baseline()
        recs = []
        # Is the cap pricing out cheaper plans?
        saved_b, saved_s, need = 0, 0.0, 0
        for jobs in ctx.groups():
            rep = jobs[0]
            capped = ctx.best_plan(rep)
            free = ctx.best_plan(rep, cap=None)
            if capped is None or free is None:
                continue
            if _plan_bytes(free) < _plan_bytes(capped):
                saved_b += len(jobs) * (_plan_bytes(capped) - _plan_bytes(free))
                saved_s += len(jobs) * (capped.cost.io_seconds
                                        - free.cost.io_seconds)
                need = max(need, free.cost.memory_bytes)
        if saved_b > 0:
            new_cap = max(need, ctx.config.memory_cap_bytes)
            recs.append(Recommendation(
                kind=self.kind,
                title=f"Raise memory cap to {new_cap:,} bytes",
                detail=(f"The {ctx.config.memory_cap_bytes:,}-byte budget "
                        f"prices out cheaper plans; raising it to the "
                        f"largest such plan's high-water mark "
                        f"({need:,} bytes) unlocks {saved_b:,} bytes of "
                        f"predicted I/O savings."),
                actions=[{"type": "memory_cap", "bytes": new_cap}],
                predicted_before_bytes=base_b,
                predicted_after_bytes=base_b - saved_b,
                predicted_before_seconds=base_s,
                predicted_after_seconds=base_s - saved_s,
                confidence=ctx.confidence_for(ctx.config.jobs)))
            return recs
        # Otherwise right-size against observation (advisory).
        prof = ctx.profile
        if prof is None:
            return recs
        peak = prof.admission.get("peak_admitted_bytes", 0.0)
        waits = prof.admission.get("wait_seconds", 0.0)
        cap = ctx.config.memory_cap_bytes
        if waits > 0 and peak >= 0.9 * cap:
            recs.append(Recommendation(
                kind=self.kind, advisory=True,
                title="Admission-bound: consider raising the memory cap",
                detail=(f"Jobs spent {waits:.3f}s waiting for admission "
                        f"with the budget ~fully committed (peak "
                        f"{peak:,.0f} of {cap:,} bytes).  A larger cap "
                        f"admits more concurrent jobs; plan I/O is "
                        f"unchanged."),
                actions=[{"type": "memory_cap", "bytes": int(cap * 2)}],
                predicted_before_bytes=base_b,
                predicted_after_bytes=base_b,
                predicted_before_seconds=base_s,
                predicted_after_seconds=base_s,
                confidence=0.5))
        elif peak > 0 and peak <= 0.5 * cap:
            new_cap = int(peak * 1.25)
            recs.append(Recommendation(
                kind=self.kind, advisory=True,
                title=f"Memory cap oversized: {new_cap:,} bytes suffice",
                detail=(f"Peak admitted memory was {peak:,.0f} of "
                        f"{cap:,} budgeted bytes; a {new_cap:,}-byte cap "
                        f"(25% headroom over peak) frees the rest without "
                        f"changing any plan."),
                actions=[{"type": "memory_cap", "bytes": new_cap}],
                predicted_before_bytes=base_b,
                predicted_after_bytes=base_b,
                predicted_before_seconds=base_s,
                predicted_after_seconds=base_s,
                confidence=0.6))
        return recs


class PrefetchAnalyzer(Analyzer):
    name = "prefetch"
    kind = "prefetch"

    def analyze(self, ctx: AdvisorContext) -> list[Recommendation]:
        prof = ctx.profile
        if prof is None:
            return []
        base_b, base_s = ctx.baseline()
        depth = ctx.config.prefetch_depth
        reads = prof.totals.get("read_bytes", 0)
        recs = []
        if depth == 0 and reads > 0:
            recs.append(Recommendation(
                kind=self.kind, advisory=True,
                title="Enable prefetch (depth 2) to overlap I/O",
                detail=(f"The workload read {reads:,} bytes with "
                        f"prefetch off; a depth-2 pipeline overlaps "
                        f"reads with compute at a staging budget of two "
                        f"blocks per job.  Counted I/O is unchanged."),
                actions=[{"type": "prefetch_depth", "depth": 2}],
                predicted_before_bytes=base_b,
                predicted_after_bytes=base_b,
                predicted_before_seconds=base_s,
                predicted_after_seconds=base_s,
                confidence=0.5))
            return recs
        stages = prof.prefetch.get("stages", 0)
        ratio = prof.prefetch.get("wait_ratio", 0.0)
        if stages > 0 and ratio > 0.5:
            recs.append(Recommendation(
                kind=self.kind, advisory=True,
                title=f"Deepen prefetch: {depth} → {depth + 2}",
                detail=(f"Consumers waited {ratio:.0%} of the time the "
                        f"stager spent staging (depth {depth}); a deeper "
                        f"window hides more of the read latency.  Counted "
                        f"I/O is unchanged."),
                actions=[{"type": "prefetch_depth", "depth": depth + 2}],
                predicted_before_bytes=base_b,
                predicted_after_bytes=base_b,
                predicted_before_seconds=base_s,
                predicted_after_seconds=base_s,
                confidence=0.5))
        return recs


#: Default analyzer battery, in run order.
ANALYZERS: tuple[Analyzer, ...] = (BlockGeometryAnalyzer(),
                                   MaterializationAnalyzer(),
                                   MemoryBudgetAnalyzer(),
                                   PrefetchAnalyzer())


def run_analyzers(ctx: AdvisorContext,
                  analyzers: Iterable[Analyzer] | None = None
                  ) -> list[Recommendation]:
    """Run the battery and rank the union (most valuable first); counts
    each emitted recommendation on the installed metrics registry as
    ``repro_advisor_recommendations{kind=...}``."""
    recs: list[Recommendation] = []
    for a in (ANALYZERS if analyzers is None else analyzers):
        recs.extend(a.analyze(ctx))
    reg = obs_metrics.CURRENT
    if reg is not None:
        for r in recs:
            reg.counter("repro_advisor_recommendations", kind=r.kind).inc()
            reg.counter("repro_advisor_predicted_saved_bytes",
                        kind=r.kind).inc(r.predicted_saved_bytes)
    return rank(recs)
