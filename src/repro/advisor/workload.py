"""Workload ingestion for the advisor: profiles, geometry, program surgery.

The re-runnable side of a workload is the service's job file
(:mod:`repro.service.jobs`), since traces carry neither seeds nor input
data.  Here:

* :class:`WorkloadProfile` — the *observed* signal: per-job attributed I/O,
  per-array access totals, per-program frequency × optimization
  fingerprint, pool hit rates, admission waits, prefetch stage/wait ratios,
  and per-file sequentiality.  A profile is built from exactly one pair of
  sources — trace events plus a metrics-series snapshot — whether those
  come from a live in-memory :class:`~repro.obs.Tracer` or from exported
  JSONL/snapshot files.  Using one constructor for both paths is what makes
  ``capture(live run) == rebuild(exported files)`` hold field by field.

Also here, because the analyzers and the apply step both need them:

* the per-builder **geometry axes** table and :func:`rescale_geometry` —
  rewriting a job's block geometry at *fixed logical array size* (halve the
  block-count parameter, double the block dimension);
* :func:`materialization_split` — the program surgery behind persistent
  materialization of shared intermediates: split a program into the prefix
  that produces an intermediate (re-kinded OUTPUT) and the residual that
  consumes it (re-kinded INPUT).
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Mapping, Sequence

from ..exceptions import AdvisorError, ProgramError
from ..ir import ArrayKind, Program
from ..ir.program import Access, Array, Statement
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..service.jobs import JobSpec

__all__ = ["GEOMETRY_AXES", "WorkloadProfile", "JobProfile",
           "rescale_geometry", "geometry_candidates", "materialization_split",
           "load_trace", "load_metrics"]

#: Block-geometry rescaling axes per builder: for each block-count
#: parameter, the builder arguments (and tuple index, None = scalar) that
#: must scale inversely to keep the logical array sizes fixed.
GEOMETRY_AXES = {
    "add_multiply": (
        ("n1", (("block_rows", None),)),
        ("n2", (("block_cols", None),)),
        ("n3", (("d_cols", None),)),
    ),
    "two_matmul": (
        ("n1", (("a_shape", 0),)),
        ("n3", (("a_shape", 1), ("b_shape", 0), ("d_shape", 0))),
        ("n2", (("b_shape", 1),)),
        ("n4", (("d_shape", 1),)),
    ),
    "linreg": (
        ("n", (("x_block", 0),)),
    ),
}


# -- tolerant readers ----------------------------------------------------------


def load_trace(path: str | os.PathLike) -> list[dict]:
    """Read a JSONL trace, tolerating schema drift.

    Lines without a ``"v"`` field predate trace versioning and are accepted
    as v0; lines newer than :data:`repro.obs.trace.SCHEMA_VERSION` raise
    :class:`~repro.exceptions.AdvisorError` instead of being misparsed.
    """
    try:
        events = obs_trace.read_jsonl(path)
    except (OSError, json.JSONDecodeError) as err:
        raise AdvisorError(f"unreadable trace {path}: {err}") from err
    for i, ev in enumerate(events):
        v = ev.get("v", 0)
        if not isinstance(v, int) or v > obs_trace.SCHEMA_VERSION:
            raise AdvisorError(
                f"{path}:{i + 1}: trace line schema v{v} is newer than this "
                f"reader (supports <= v{obs_trace.SCHEMA_VERSION})")
    return events


def load_metrics(path: str | os.PathLike) -> dict[str, float]:
    """Read a metrics snapshot (versioned JSON doc, legacy flat JSON, or
    Prometheus text exposition) into the flat series dict."""
    try:
        return obs_metrics.read_snapshot(path)
    except (OSError, ValueError) as err:
        raise AdvisorError(f"unreadable metrics {path}: {err}") from err


# -- geometry rescaling --------------------------------------------------------


def rescale_geometry(spec: JobSpec, axis_param: str,
                     factor: int) -> JobSpec | None:
    """Coarsen one geometry axis by an integer factor at fixed logical size:
    ``params[axis] //= factor`` while every tied block dimension grows by
    ``factor``.  Returns None when the factor does not divide the parameter
    (or the spec is not a plain builder template)."""
    if spec.program_obj is not None or spec.program not in GEOMETRY_AXES:
        return None
    axes = dict(GEOMETRY_AXES[spec.program])
    slots = axes.get(axis_param)
    if slots is None or factor < 2:
        return None
    n = spec.params.get(axis_param)
    if n is None or n % factor != 0 or n // factor < 1:
        return None
    params = dict(spec.params)
    params[axis_param] = n // factor
    args = dict(spec.args)
    for arg, idx in slots:
        v = args[arg]
        if idx is None:
            args[arg] = v * factor
        else:
            t = list(v)
            t[idx] = t[idx] * factor
            args[arg] = tuple(t)
    return spec.replace(params=params, args=args)


def geometry_candidates(spec: JobSpec, factors: Sequence[int] = (2, 3, 4, 6, 8)
                        ) -> list[tuple[str, JobSpec]]:
    """Every divisor-compatible single-axis coarsening of a job's geometry,
    labeled ``"<param>/<factor>"``."""
    out = []
    if spec.program_obj is not None or spec.program not in GEOMETRY_AXES:
        return out
    for axis_param, _slots in GEOMETRY_AXES[spec.program]:
        for f in factors:
            cand = rescale_geometry(spec, axis_param, f)
            if cand is not None:
                out.append((f"{axis_param}/{f}", cand))
    return out


# -- materialization surgery ---------------------------------------------------


def _subprogram(program: Program, stmts: Sequence[Statement], name: str,
                kinds: Mapping[str, ArrayKind]) -> Program:
    """Rebuild a program from a statement subset with some arrays re-kinded.

    Fresh :class:`Array` and :class:`Access` objects are constructed (the
    originals are never mutated); domains, subscripts and guards are shared
    structurally — they are immutable.
    """
    referenced: dict[str, Array] = {}
    for s in stmts:
        for a in s.accesses:
            old = a.array
            if old.name not in referenced:
                referenced[old.name] = Array(
                    old.name, old.dims, old.block_shape, old.dtype_bytes,
                    kinds.get(old.name, old.kind))
    new_stmts = []
    for s in stmts:
        accesses = [Access(referenced[a.array.name], a.type, a.subscripts,
                           a.guard) for a in s.accesses]
        new_stmts.append(Statement(s.name, s.loop_vars, s.domain, accesses,
                                   kernel=s.kernel, position=s.position,
                                   kernel_args=s.kernel_args))
    sub = Program(name, program.params, referenced, new_stmts,
                  param_context=program.param_context)
    sub.validate()
    return sub


def materialization_split(program: Program, array: str
                          ) -> tuple[Program, Program] | None:
    """Split ``program`` at intermediate ``array`` into (prefix, residual).

    The prefix contains every statement in the producer closure of the
    array (its writers plus, transitively, the writers of every non-INPUT
    array they read) with the target re-kinded OUTPUT; the residual is the
    rest with the target re-kinded INPUT.  Returns None when the split is
    not well-formed: the target is not an intermediate, either side would
    be empty, the residual would read a non-input produced only in the
    prefix, or an original OUTPUT would migrate into the prefix.
    """
    target = program.arrays.get(array)
    if target is None or target.kind is not ArrayKind.INTERMEDIATE:
        return None
    keep: set[str] = set()
    closure = {array}
    frontier = [array]
    while frontier:
        nm = frontier.pop()
        for s in program.statements:
            w = s.write
            if w is None or w.array.name != nm or s.name in keep:
                continue
            keep.add(s.name)
            for r in s.reads:
                rn = r.array.name
                if program.arrays[rn].kind is not ArrayKind.INPUT \
                        and rn not in closure:
                    closure.add(rn)
                    frontier.append(rn)
    prefix_stmts = [s for s in program.statements if s.name in keep]
    residual_stmts = [s for s in program.statements if s.name not in keep]
    if not prefix_stmts or not residual_stmts:
        return None
    residual_writes = {s.write.array.name for s in residual_stmts
                       if s.write is not None}
    # Every original output must still be produced by the residual, so an
    # applied job's outputs are unchanged.
    for nm, arr in program.arrays.items():
        if arr.kind is ArrayKind.OUTPUT and nm not in residual_writes:
            return None
    # The residual may read only: real inputs, the materialized array, and
    # what it writes itself — anything else is an unmaterialized dependence
    # on the prefix.
    for s in residual_stmts:
        for r in s.reads:
            rn = r.array.name
            if rn == array or rn in residual_writes:
                continue
            if program.arrays[rn].kind is not ArrayKind.INPUT:
                return None
    try:
        prefix = _subprogram(program, prefix_stmts,
                             f"{program.name}__pre_{array}",
                             {array: ArrayKind.OUTPUT})
        residual = _subprogram(program, residual_stmts,
                               f"{program.name}__post_{array}",
                               {array: ArrayKind.INPUT})
    except ProgramError:
        return None
    return prefix, residual


# -- the observed profile ------------------------------------------------------


def _num(x) -> float:
    return float(x)


class JobProfile:
    """Everything one ``service.job`` span (plus its nested events) says."""

    FIELDS = ("name", "program", "fingerprint", "params", "attempts",
              "wall_seconds", "read_bytes", "write_bytes", "read_ops",
              "write_ops", "predicted_read_bytes", "predicted_write_bytes",
              "pool_hits", "pool_misses", "plan_index", "cache_hit",
              "need_bytes", "memory_bytes", "plan_exact", "prefetch_depth",
              "optimize_seconds", "admission_wait_seconds", "arrays",
              "per_array")

    __slots__ = FIELDS

    def __init__(self, name: str):
        self.name = name
        self.program = None
        self.fingerprint = None
        self.params: dict = {}
        self.attempts = 0
        self.wall_seconds = 0.0
        self.read_bytes = self.write_bytes = 0
        self.read_ops = self.write_ops = 0
        self.predicted_read_bytes = self.predicted_write_bytes = 0
        self.pool_hits = self.pool_misses = 0
        self.plan_index = None
        self.cache_hit = False
        self.need_bytes = 0
        self.memory_bytes = 0
        self.plan_exact = False
        self.prefetch_depth = 0
        self.optimize_seconds = 0.0
        self.admission_wait_seconds = 0.0
        self.arrays: dict[str, str] = {}
        self.per_array: dict[str, dict[str, int]] = {}

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.FIELDS}

    def __eq__(self, other) -> bool:
        return isinstance(other, JobProfile) and \
            self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (f"JobProfile({self.name}, {self.program}, "
                f"read={self.read_bytes}B, write={self.write_bytes}B)")


class WorkloadProfile:
    """The observed workload, rebuilt identically from a live tracer or
    from exported trace/metrics files (see module docstring)."""

    FIELDS = ("schema_version", "jobs", "programs", "arrays", "pool",
              "plan_cache", "admission", "prefetch", "disk", "files",
              "totals")

    __slots__ = FIELDS

    def __init__(self):
        self.schema_version = 0
        self.jobs: dict[str, JobProfile] = {}
        self.programs: dict[str, dict] = {}
        self.arrays: dict[str, dict] = {}
        self.pool: dict[str, float] = {}
        self.plan_cache: dict[str, float] = {}
        self.admission: dict[str, float] = {}
        self.prefetch: dict[str, float] = {}
        self.disk: dict[str, float] = {}
        self.files: dict[str, dict] = {}
        self.totals: dict[str, float] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable[Mapping],
                    series: Mapping[str, float] | None = None
                    ) -> "WorkloadProfile":
        """Build from trace-event dicts (and optionally a metrics series
        snapshot).  The single constructor behind both the live and the
        offline paths."""
        p = cls()
        stacks: dict[int, list[dict]] = {}
        jobs = p.jobs
        seq_state: dict[str, int] = {}

        def enclosing_job(tid: int) -> JobProfile | None:
            for entry in reversed(stacks.get(tid, ())):
                if entry["name"] == "service.job":
                    key = entry["args"].get("job")
                    return jobs.get(key) if key is not None else None
            return None

        for ev in events:
            p.schema_version = max(p.schema_version, ev.get("v", 0))
            name, ph = ev.get("name"), ev.get("ph")
            tid = ev.get("tid", 0)
            args = ev.get("args") or {}
            ts = ev.get("ts", 0.0)
            if ph == "B":
                stacks.setdefault(tid, []).append(
                    {"name": name, "ts": ts, "args": args})
                if name == "service.job":
                    key = args.get("job")
                    if key is not None and key not in jobs:
                        jobs[key] = JobProfile(key)
                    if key is not None:
                        jobs[key].program = args.get("program",
                                                     jobs[key].program)
                        jobs[key].attempts = max(jobs[key].attempts,
                                                 int(args.get("attempt", 1)))
                continue
            if ph == "E":
                stack = stacks.get(tid)
                if not stack:
                    continue
                begin = stack.pop()
                dur = ts - begin["ts"]
                bname = begin["name"]
                if bname == "service.job":
                    key = begin["args"].get("job")
                    job = jobs.get(key)
                    if job is not None:
                        job.wall_seconds = dur
                        _merge_job_end(job, args)
                        _roll_program(p, job)
                elif bname == "service.admission":
                    p.admission["waits"] = p.admission.get("waits", 0) + 1
                    p.admission["wait_seconds"] = \
                        p.admission.get("wait_seconds", 0.0) + dur
                elif bname == "prefetch.stage":
                    p.prefetch["stages"] = p.prefetch.get("stages", 0) + 1
                    p.prefetch["stage_seconds"] = \
                        p.prefetch.get("stage_seconds", 0.0) + dur
                elif bname == "prefetch.wait":
                    p.prefetch["waits"] = p.prefetch.get("waits", 0) + 1
                    p.prefetch["wait_seconds"] = \
                        p.prefetch.get("wait_seconds", 0.0) + dur
                continue
            # instants
            if name == "exec.io":
                nbytes = int(args.get("bytes", 0))
                op = args.get("op")
                job = enclosing_job(tid)
                akey = args.get("array", "?")
                if job is not None:
                    rec = job.per_array.setdefault(
                        akey, {"read_bytes": 0, "write_bytes": 0,
                               "read_ops": 0, "write_ops": 0})
                    prog = job.program or "?"
                else:
                    rec = None
                    prog = "?"
                arec = p.arrays.setdefault(
                    f"{prog}:{akey}",
                    {"read_bytes": 0, "write_bytes": 0,
                     "read_ops": 0, "write_ops": 0, "jobs": 0,
                     "_seen": set()})
                field = "read" if op == "read" else "write"
                arec[field + "_bytes"] += nbytes
                arec[field + "_ops"] += 1
                if job is not None and job.name not in arec["_seen"]:
                    arec["_seen"].add(job.name)
                    arec["jobs"] += 1
                if rec is not None:
                    rec[field + "_bytes"] += nbytes
                    rec[field + "_ops"] += 1
            elif name in ("disk.read", "disk.write"):
                fname = args.get("file", "?")
                nbytes = int(args.get("bytes", 0))
                offset = int(args.get("offset", 0))
                op = "read" if name == "disk.read" else "write"
                frec = p.files.setdefault(
                    fname, {"read_ops": 0, "read_bytes": 0,
                            "sequential_reads": 0, "write_ops": 0,
                            "write_bytes": 0, "sequential_writes": 0})
                last_end = seq_state.get(f"{op}:{fname}")
                if last_end is not None and offset == last_end:
                    frec[f"sequential_{op}s"] += 1
                seq_state[f"{op}:{fname}"] = offset + nbytes
                frec[f"{op}_ops"] += 1
                frec[f"{op}_bytes"] += nbytes
                p.disk[f"{op}_bytes"] = p.disk.get(f"{op}_bytes", 0) + nbytes
                p.disk[f"{op}_ops"] = p.disk.get(f"{op}_ops", 0) + 1
            elif name == "disk.retry":
                p.disk["retries"] = p.disk.get("retries", 0) + 1

        for arec in p.arrays.values():
            arec.pop("_seen", None)
        p.totals = {
            "jobs": len(jobs),
            "read_bytes": sum(j.read_bytes for j in jobs.values()),
            "write_bytes": sum(j.write_bytes for j in jobs.values()),
            "optimize_seconds": sum(j.optimize_seconds for j in jobs.values()),
            "admission_wait_seconds": sum(j.admission_wait_seconds
                                          for j in jobs.values()),
        }
        if series:
            p._fold_series(series)
        if p.prefetch:
            staged = p.prefetch.get("stage_seconds", 0.0)
            waited = p.prefetch.get("wait_seconds", 0.0)
            p.prefetch["wait_ratio"] = waited / staged if staged else 0.0
        return p

    @classmethod
    def from_run(cls, tracer: obs_trace.Tracer,
                 registry: obs_metrics.MetricsRegistry | None = None
                 ) -> "WorkloadProfile":
        """Capture a live run: the in-memory tracer's events (converted via
        the same ``to_dict`` serialization the JSONL sink writes) plus the
        registry snapshot."""
        events = [e.to_dict() for e in tracer.events]
        series = registry.snapshot() if registry is not None else None
        return cls.from_events(events, series)

    @classmethod
    def from_files(cls, trace_path: str | os.PathLike,
                   metrics_path: str | os.PathLike | None = None
                   ) -> "WorkloadProfile":
        """Rebuild offline from an exported JSONL trace and (optionally) a
        metrics snapshot file — tolerant readers, see :func:`load_trace`."""
        series = load_metrics(metrics_path) if metrics_path is not None \
            else None
        return cls.from_events(load_trace(trace_path), series)

    def _fold_series(self, series: Mapping[str, float]) -> None:
        def total(prefix: str) -> float:
            return sum(_num(v) for k, v in series.items()
                       if k == prefix or k.startswith(prefix + "{"))

        hits, misses = total("repro_pool_hits"), total("repro_pool_misses")
        self.pool = {"hits": hits, "misses": misses,
                     "evictions": total("repro_pool_evictions"),
                     "peak_bytes": max(
                         [_num(v) for k, v in series.items()
                          if k.startswith("repro_pool_peak_bytes")] or [0.0]),
                     "hit_rate": hits / (hits + misses)
                     if hits + misses else 0.0}
        self.plan_cache = {"hits": total("repro_plan_cache_hits"),
                           "misses": total("repro_plan_cache_misses")}
        for k, v in series.items():
            if k.startswith("repro_service_"):
                self.admission.setdefault("service", {})
        self.admission["peak_admitted_bytes"] = max(
            [_num(v) for k, v in series.items()
             if k.startswith("repro_service_admitted_bytes")] or [0.0])
        self.admission.pop("service", None)

    # -- views ---------------------------------------------------------------

    def to_dict(self) -> dict:
        d = {f: getattr(self, f) for f in self.FIELDS
             if f not in ("jobs",)}
        d["jobs"] = {k: j.to_dict() for k, j in sorted(self.jobs.items())}
        return d

    def __eq__(self, other) -> bool:
        if not isinstance(other, WorkloadProfile):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (f"WorkloadProfile({len(self.jobs)} jobs, "
                f"{len(self.programs)} programs, "
                f"read={self.totals.get('read_bytes', 0)}B)")


def _merge_job_end(job: JobProfile, args: Mapping) -> None:
    job.fingerprint = args.get("fingerprint", job.fingerprint)
    if "params" in args:
        job.params = {k: int(v) for k, v in args["params"].items()}
    if "arrays" in args:
        job.arrays = dict(args["arrays"])
    for f in ("read_bytes", "write_bytes", "read_ops", "write_ops",
              "predicted_read_bytes", "predicted_write_bytes", "pool_hits",
              "pool_misses", "need_bytes", "memory_bytes", "prefetch_depth"):
        if f in args:
            setattr(job, f, int(args[f]))
    if "plan" in args:
        job.plan_index = int(args["plan"])
    if "cache_hit" in args:
        job.cache_hit = bool(args["cache_hit"])
    if "plan_exact" in args:
        job.plan_exact = bool(args["plan_exact"])
    for f in ("optimize_seconds", "admission_wait_seconds"):
        if f in args:
            setattr(job, f, float(args[f]))


def _roll_program(p: WorkloadProfile, job: JobProfile) -> None:
    """Fold a finished job into the per-program frequency × fingerprint
    rollup (fingerprint falls back to the program name for v0 traces)."""
    key = job.fingerprint or f"name:{job.program}"
    rec = p.programs.setdefault(
        key, {"program": job.program, "fingerprint": job.fingerprint,
              "params": job.params, "count": 0, "read_bytes": 0,
              "write_bytes": 0, "optimize_seconds": 0.0, "cache_hits": 0,
              "admission_wait_seconds": 0.0, "jobs": []})
    rec["count"] += 1
    rec["read_bytes"] += job.read_bytes
    rec["write_bytes"] += job.write_bytes
    rec["optimize_seconds"] += job.optimize_seconds
    rec["admission_wait_seconds"] += job.admission_wait_seconds
    rec["cache_hits"] += 1 if job.cache_hit else 0
    rec["jobs"].append(job.name)
