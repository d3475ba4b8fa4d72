"""Applying recommendations: config rewriting, workload runs, validation.

:class:`AdvisorConfig` bundles everything a re-run needs — the expanded job
list plus the service knobs (memory cap, prefetch depth).
:func:`apply_recommendations` is a *pure* rewrite: it folds a recommendation
set's actions into a new config without touching the old one, so baseline
and candidate configs coexist.  Action composition order
is fixed (geometry rescales first, then materialization splits, then
service-knob changes): materialization re-splits the possibly-rescaled
programs at apply time, so a geometry + materialization set composes
correctly regardless of the order the analyzers emitted them.

:func:`run_workload` executes a config on a fresh
:class:`~repro.service.ArrayService` under a scoped tracer + metrics
registry and returns the :class:`~repro.advisor.workload.WorkloadProfile`
of what actually happened.  Materialized intermediates are wired through
job dependencies: producer jobs run first and their dense outputs feed the
consumers' inputs (the service's content-addressed input catalog writes
each shared dataset once, uncounted — exactly the persistent-
materialization story).

:func:`validate_recommendations` closes the loop: measure the baseline,
then re-run once per recommendation (and once for the whole applied set)
and score every prediction via :meth:`Recommendation.check` — within
tolerance or flagged ``mispredicted``, never silently dropped.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Sequence

from ..exceptions import AdvisorError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..optimizer import IOModel
from ..service import ArrayService
from ..service.jobs import JobSpec, WorkloadSpec, submit_job
from ..storage import make_disk
from .recommendations import Recommendation
from .workload import (WorkloadProfile, materialization_split,
                       rescale_geometry)

__all__ = ["AdvisorConfig", "apply_recommendations", "run_workload",
           "measured_io_bytes", "validate_recommendations"]


class AdvisorConfig:
    """A fully expanded, runnable workload + service configuration."""

    __slots__ = ("jobs", "memory_cap_bytes", "prefetch_depth", "io_model",
                 "max_set_size", "max_candidates", "workers", "plan_cache")

    def __init__(self, jobs: Iterable[JobSpec], memory_cap_bytes: int,
                 prefetch_depth: int = 0,
                 io_model: IOModel | None = None,
                 max_set_size: int | None = None,
                 max_candidates: int | None = None, workers: int = 2,
                 plan_cache: str | os.PathLike | None = None):
        self.jobs = list(jobs)
        self.memory_cap_bytes = int(memory_cap_bytes)
        self.prefetch_depth = int(prefetch_depth)
        self.io_model = io_model or IOModel()
        self.max_set_size = max_set_size
        self.max_candidates = max_candidates
        self.workers = int(workers)
        # Optional persistent plan-cache directory shared by every run of
        # this config (and its applied variants): repeat jobs of one
        # template plan once, and verification re-runs skip re-searching
        # unchanged templates — fingerprints keep variants apart.
        self.plan_cache = plan_cache

    @classmethod
    def from_spec(cls, spec: WorkloadSpec, memory_cap_bytes: int,
                  **kw) -> "AdvisorConfig":
        return cls(spec.expanded(), memory_cap_bytes, **kw)

    def replace(self, **kw) -> "AdvisorConfig":
        fields = {f: getattr(self, f) for f in self.__slots__}
        fields.update(kw)
        return AdvisorConfig(**fields)

    def describe(self) -> dict:
        return {"jobs": len(self.jobs),
                "memory_cap_bytes": self.memory_cap_bytes,
                "prefetch_depth": self.prefetch_depth}

    def __repr__(self) -> str:
        return (f"AdvisorConfig({len(self.jobs)} jobs, "
                f"cap={self.memory_cap_bytes}, "
                f"prefetch={self.prefetch_depth})")


# -- action application --------------------------------------------------------


def apply_recommendations(config: AdvisorConfig,
                          recs: Sequence[Recommendation]) -> AdvisorConfig:
    """Fold the actions of ``recs`` into a new config (pure; fixed
    composition order — see module docstring)."""
    actions = [a for r in recs for a in r.actions]
    jobs = {j.name: j for j in config.jobs}
    out = config.replace(jobs=list(config.jobs))

    for act in (a for a in actions if a["type"] == "rescale"):
        for name in act["jobs"]:
            job = jobs.get(name)
            if job is None:
                raise AdvisorError(f"rescale names unknown job {name!r}")
            rescaled = rescale_geometry(job, act["axis"], int(act["factor"]))
            if rescaled is None:
                raise AdvisorError(
                    f"rescale {act['axis']}/{act['factor']} is not "
                    f"applicable to job {name!r} (params {job.params})")
            jobs[name] = rescaled

    mat_jobs: list[JobSpec] = []
    for act in (a for a in actions if a["type"] == "materialize"):
        array = act["array"]
        groups: dict[tuple, list[str]] = {}
        for name in act["jobs"]:
            job = jobs.get(name)
            if job is None:
                raise AdvisorError(f"materialize names unknown job {name!r}")
            if job.program_obj is not None or array in job.inputs_from:
                raise AdvisorError(
                    f"job {name!r} was already rewritten; cannot "
                    f"materialize {array!r} in it")
            split = materialization_split(job.build_program(), array)
            if split is None:
                raise AdvisorError(
                    f"{array!r} is not materializable in job {name!r}")
            prefix, residual = split
            # Jobs share one producer iff the prefix would compute the same
            # thing: same template + same seeds for the prefix's inputs.
            prefix_inputs = sorted(
                n for n, a in prefix.arrays.items() if a.kind.value == "input")
            key = job.template_key() + tuple(
                (n, job.seed_for(n)) for n in prefix_inputs)
            groups.setdefault(key, []).append(name)
        for gi, names in enumerate(
                sorted(groups.values(), key=lambda ns: ns[0]), 1):
            first = jobs[names[0]]
            split = materialization_split(first.build_program(), array)
            prefix, residual = split
            producer_name = f"mat_{array}_{gi}"
            mat_jobs.append(first.replace(
                name=producer_name, program_obj=prefix, args={},
                inputs_from={}))
            for name in names:
                job = jobs[name]
                jobs[name] = job.replace(
                    program_obj=residual, args={},
                    inputs_from={**job.inputs_from, array: producer_name})

    for act in (a for a in actions if a["type"] == "memory_cap"):
        out.memory_cap_bytes = int(act["bytes"])
    for act in (a for a in actions if a["type"] == "prefetch_depth"):
        out.prefetch_depth = int(act["depth"])

    # Producers go first so the execution order below never stalls.
    out.jobs = mat_jobs + [jobs[j.name] for j in config.jobs]
    return out


# -- execution -----------------------------------------------------------------


def run_workload(config: AdvisorConfig, workdir: str | os.PathLike,
                 trace_path: str | os.PathLike | None = None,
                 metrics_path: str | os.PathLike | None = None
                 ) -> WorkloadProfile:
    """Execute the config on a fresh service; return the observed profile.

    A scoped tracer + registry capture the run (the previously installed
    globals, if any, are restored afterwards).  ``trace_path`` /
    ``metrics_path`` additionally export the observed workload as the
    JSONL + snapshot files the offline ``advise --trace`` path reads.
    """
    Path(workdir).mkdir(parents=True, exist_ok=True)
    sink = obs_trace.JsonlSink(trace_path) if trace_path is not None else None
    tracer = obs_trace.Tracer(sink=sink)
    registry = obs_metrics.MetricsRegistry()

    producers = [j for j in config.jobs if j.program_obj is not None
                 and not j.inputs_from]
    consumers = [j for j in config.jobs if j not in producers]

    with obs_trace.use(tracer), obs_metrics.use(registry):
        with ArrayService(make_disk(workdir, io_model=config.io_model),
                          memory_cap_bytes=config.memory_cap_bytes,
                          workers=config.workers,
                          plan_cache=config.plan_cache,
                          max_set_size=config.max_set_size,
                          max_candidates=config.max_candidates,
                          prefetch_depth=config.prefetch_depth) as svc:
            produced: dict[str, dict] = {}
            for job in producers:
                produced[job.name] = submit_job(svc, job).result().outputs
            handles = [submit_job(svc, job, produced) for job in consumers]
            for handle in handles:
                handle.result()
        tracer.close()
    profile = WorkloadProfile.from_run(tracer, registry)
    if metrics_path is not None:
        registry.write_snapshot(metrics_path)
    return profile


def measured_io_bytes(profile: WorkloadProfile) -> int:
    """The acceptance metric: total per-job attributed I/O bytes."""
    return int(profile.totals.get("read_bytes", 0)
               + profile.totals.get("write_bytes", 0))


# -- validation ----------------------------------------------------------------


def validate_recommendations(config: AdvisorConfig,
                             recs: Sequence[Recommendation],
                             workdir: str | os.PathLike,
                             baseline: WorkloadProfile | None = None,
                             tolerance: float = 0.02
                             ) -> dict:
    """Verify every prediction by re-running the workload.

    One baseline run (skipped when a measured ``baseline`` profile is
    passed in), then one re-run per recommendation with just that
    recommendation applied, then — when more than one recommendation is
    concrete — a final re-run with the whole set applied.  Each
    recommendation is scored via :meth:`Recommendation.check` against
    ``tolerance`` (relative to workload size; documented there).

    Returns a summary dict: baseline/combined measured bytes, the combined
    reduction fraction, and the per-recommendation verdicts.  Metrics
    (``repro_advisor_validation_runs`` / ``repro_advisor_mispredicted`` /
    ``repro_advisor_measured_saved_bytes``) are recorded on the globally
    installed registry, if any.
    """
    workdir = Path(workdir)
    if config.plan_cache is None:
        # Verification runs share one plan cache: unchanged templates are
        # planned once across the baseline + per-recommendation re-runs.
        config = config.replace(plan_cache=str(workdir / "plancache"))
    if baseline is None:
        baseline = run_workload(config, workdir / "baseline")
    before = measured_io_bytes(baseline)

    reg = obs_metrics.CURRENT
    verdicts = []
    for i, rec in enumerate(recs, 1):
        applied = apply_recommendations(config, [rec])
        profile = run_workload(applied, workdir / f"rec{i}")
        after = measured_io_bytes(profile)
        ok = rec.check(before, after, tolerance)
        if reg is not None:
            reg.counter("repro_advisor_validation_runs").inc()
            if not ok:
                reg.counter("repro_advisor_mispredicted",
                            kind=rec.kind).inc()
            reg.counter("repro_advisor_measured_saved_bytes",
                        kind=rec.kind).inc(before - after)
        verdicts.append({"kind": rec.kind, "title": rec.title,
                         "predicted_saved_bytes": rec.predicted_saved_bytes,
                         "measured_saved_bytes": rec.measured_saved_bytes,
                         "error": rec.validation_error,
                         "mispredicted": rec.mispredicted})

    combined_after = None
    if len(recs) > 1:
        applied = apply_recommendations(config, list(recs))
        profile = run_workload(applied, workdir / "combined")
        combined_after = measured_io_bytes(profile)
        if reg is not None:
            reg.counter("repro_advisor_validation_runs").inc()
    elif len(recs) == 1:
        combined_after = recs[0].measured_after_bytes

    reduction = None
    if combined_after is not None and before > 0:
        reduction = (before - combined_after) / before
    return {"baseline_bytes": before, "combined_bytes": combined_after,
            "reduction": reduction, "tolerance": tolerance,
            "recommendations": verdicts}
