"""The one job description: a JSONL job file of :class:`JobSpec` lines.

``repro serve`` and ``repro advise`` both parse it with
:meth:`WorkloadSpec.from_jsonl` (keys: :data:`JobSpec.KEYS`, nothing else),
draw inputs with :func:`generate_input` and submit with :func:`submit_job`.
"""

from __future__ import annotations

import inspect
import json
import os
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from ..exceptions import JobSpecError
from ..ir import ArrayKind, Program
from ..ops import add_multiply_program, linreg_program, two_matmul_program

__all__ = ["BUILDERS", "JobSpec", "WorkloadSpec", "generate_input",
           "submit_job"]

#: Program builders a job may name.
BUILDERS = {"add_multiply": add_multiply_program,
            "two_matmul": two_matmul_program,
            "linreg": linreg_program}


def _canonical_args(builder_name: str, args) -> dict:
    """Normalize builder arguments (positional list or kwargs dict, JSON
    lists for tuples) into a complete kwargs dict with defaults applied."""
    builder = BUILDERS.get(builder_name)
    if builder is None:
        raise JobSpecError(f"unknown program {builder_name!r} "
                           f"(known: {sorted(BUILDERS)})")
    sig = inspect.signature(builder)
    try:
        bound = sig.bind(**args) if isinstance(args, Mapping) \
            else sig.bind(*(args or ()))
    except TypeError as err:
        raise JobSpecError(f"{builder_name}: bad builder args {args!r}: "
                           f"{err}") from err
    bound.apply_defaults()
    out = {}
    for k, v in bound.arguments.items():
        out[k] = tuple(int(x) for x in v) if isinstance(v, (list, tuple)) \
            else int(v)
    return out


def generate_input(array, params: Mapping[str, int], seed: int,
                   name: str) -> np.ndarray:
    """Deterministic dense input for one array: the stream is keyed by
    ``(seed, array name)`` so distinct arrays of one job differ while equal
    ``(seed, name, shape)`` pairs across jobs are bit-identical — which is
    what lets the service's content-addressed catalog share them."""
    seq = np.random.SeedSequence([int(seed) & 0xFFFFFFFF, *name.encode()])
    rng = np.random.default_rng(seq)
    return rng.standard_normal(array.shape_elems(params))


class JobSpec:
    """One job: template + binding + input seeds + per-job service fields.

    ``seeds`` optionally overrides the base ``seed`` per input array —
    ``{"D": 7}`` gives every job a distinct D while A and B stay shared.
    ``count`` repeats the job (expanded into distinct job names).
    ``timeout``, ``retries`` (``None``: no deadline, no retry; ``repro
    serve`` fills them from ``--deadline`` / ``--job-retries``),
    ``checkpoint`` and ``resume`` go to
    :meth:`~repro.service.ArrayService.submit`.

    Two runtime-only fields support applied materialization and are
    neither read from nor written to a job file: ``program_obj`` (an
    explicit :class:`Program` replacing the builder output, e.g. a residual
    program) and ``inputs_from`` (input array -> producer job name whose
    same-named output feeds it).
    """

    __slots__ = ("program", "args", "params", "seed", "seeds", "count",
                 "plan_exact", "memory_cap", "timeout", "retries",
                 "checkpoint", "resume", "name", "program_obj",
                 "inputs_from")

    #: The keys a job-file line may carry: every slot but the two
    #: runtime-only ones.
    KEYS = __slots__[:-2]

    def __init__(self, program: str, params: Mapping[str, int],
                 args=None, seed: int = 0,
                 seeds: Mapping[str, int] | None = None, count: int = 1,
                 plan_exact: bool = False, memory_cap: int | None = None,
                 timeout: float | None = None, retries: int | None = None,
                 checkpoint: bool = False, resume: bool = False,
                 name: str | None = None,
                 program_obj: Program | None = None,
                 inputs_from: Mapping[str, str] | None = None):
        self.program = program
        self.args = _canonical_args(program, args) if program_obj is None \
            else dict(args or {})
        self.params = {k: int(v) for k, v in params.items()}
        self.seed = int(seed)
        self.seeds = {k: int(v) for k, v in (seeds or {}).items()}
        self.count = int(count)
        if self.count < 1:
            raise JobSpecError(f"job count must be >= 1, got {count}")
        self.plan_exact = bool(plan_exact)
        self.memory_cap = memory_cap if memory_cap is None else int(memory_cap)
        self.timeout = timeout if timeout is None else float(timeout)
        self.retries = retries if retries is None else int(retries)
        self.checkpoint = bool(checkpoint)
        self.resume = bool(resume)
        self.name = name
        self.program_obj = program_obj
        self.inputs_from = dict(inputs_from or {})

    def build_program(self) -> Program:
        if self.program_obj is not None:
            return self.program_obj
        return BUILDERS[self.program](**self.args)

    def seed_for(self, array_name: str) -> int:
        return self.seeds.get(array_name, self.seed)

    def inputs(self, program: Program,
               produced: Mapping[str, dict] | None = None
               ) -> dict[str, np.ndarray]:
        """This job's input arrays of ``program``: :func:`generate_input`,
        or for ``inputs_from`` arrays the producer's output in ``produced``."""
        inputs = {}
        for name, arr in program.arrays.items():
            if arr.kind is not ArrayKind.INPUT:
                continue
            src = self.inputs_from.get(name)
            if src is None:
                inputs[name] = generate_input(arr, self.params,
                                              self.seed_for(name), name)
                continue
            try:
                inputs[name] = (produced or {})[src][name]
            except KeyError as err:
                raise JobSpecError(
                    f"job {self.name!r} wants {name!r} from producer "
                    f"{src!r}, which did not run or did not output it") \
                    from err
        return inputs

    def template_key(self) -> tuple:
        """Groups jobs that share a program template and binding (the unit a
        geometry recommendation rewrites).  Explicit-program jobs key on
        the derived program's name (which embeds its provenance, e.g.
        ``add_multiply__pre_C``) instead of the builder name."""
        if self.program_obj is not None:
            prog = self.program_obj.name
            # The builder args are gone; the geometry they encoded lives on
            # in the arrays' block shapes, which must stay in the key.
            args_sig = json.dumps(
                {n: list(a.block_shape)
                 for n, a in sorted(self.program_obj.arrays.items())},
                sort_keys=True)
        else:
            prog = self.program
            args_sig = json.dumps(self.args, sort_keys=True)
        return (prog, args_sig, json.dumps(self.params, sort_keys=True),
                self.memory_cap, self.plan_exact)

    def replace(self, **kw) -> "JobSpec":
        fields = {f: getattr(self, f) for f in self.__slots__}
        fields.update(kw)
        return JobSpec(**fields)

    def to_dict(self) -> dict:
        if self.program_obj is not None:
            raise JobSpecError(
                f"job {self.name!r} carries an explicit program object and "
                f"cannot be serialized")
        d = {"program": self.program, "args": {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in self.args.items()}, "params": self.params,
            "seed": self.seed}
        if self.seeds:
            d["seeds"] = self.seeds
        if self.count != 1:
            d["count"] = self.count
        for key in ("plan_exact", "checkpoint", "resume"):
            if getattr(self, key):
                d[key] = True
        for key in ("memory_cap", "timeout", "retries", "name"):
            if getattr(self, key) is not None:
                d[key] = getattr(self, key)
        return d

    def __repr__(self) -> str:
        return (f"JobSpec({self.program}, params={self.params}, "
                f"seed={self.seed}, count={self.count})")


class WorkloadSpec:
    """An ordered list of :class:`JobSpec`, JSONL round-trippable."""

    __slots__ = ("jobs",)

    def __init__(self, jobs: Iterable[JobSpec]):
        self.jobs = list(jobs)
        if not self.jobs:
            raise JobSpecError("workload spec has no jobs")

    @classmethod
    def from_jsonl(cls, path: str | os.PathLike) -> "WorkloadSpec":
        jobs = []
        named: dict[str, str] = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    spec = json.loads(line)
                except json.JSONDecodeError as err:
                    raise JobSpecError(f"{path}:{lineno}: bad JSON: {err}") \
                        from err
                if not isinstance(spec, dict) or "program" not in spec \
                        or "params" not in spec:
                    raise JobSpecError(f"{path}:{lineno}: job needs "
                                       f"\"program\" and \"params\"")
                unknown = sorted(set(spec) - set(JobSpec.KEYS))
                if unknown:
                    raise JobSpecError(
                        f"{path}:{lineno}: unknown job key(s) {unknown} "
                        f"(a job line takes: {', '.join(JobSpec.KEYS)})")
                try:
                    job = JobSpec(**spec)
                except (JobSpecError, TypeError, ValueError,
                        AttributeError) as err:
                    raise JobSpecError(f"{path}:{lineno}: {err}") from err
                _claim(named, job, f"{path}:{lineno}")
                jobs.append(job)
        if not jobs:
            raise JobSpecError(f"{path}: no jobs")
        return cls(jobs)

    def to_jsonl(self, path: str | os.PathLike) -> None:
        lines = [json.dumps(j.to_dict(), sort_keys=True) for j in self.jobs]
        Path(path).write_text("\n".join(lines) + "\n")

    def expanded(self) -> list[JobSpec]:
        """One :class:`JobSpec` per actual job, ``count`` unrolled and every
        job named, ``<name>_r<k>`` for repeats.  The ``i``-th entry, when
        unnamed, is ``w<i>`` — or ``w<i>.<k>`` for the least ``k`` that no
        named entry uses."""
        named: dict[str, str] = {}
        for i, job in enumerate(self.jobs):
            _claim(named, job, f"entry {i + 1}")
        out = []
        for i, job in enumerate(self.jobs):
            base = job.name
            if base is None:
                base, k = f"w{i + 1}", 1
                while not named.keys().isdisjoint(_names(base, job.count)):
                    k += 1
                    base = f"w{i + 1}.{k}"
            out.extend(job.replace(count=1, name=name)
                       for name in _names(base, job.count))
        return out

    def __len__(self) -> int:
        return sum(j.count for j in self.jobs)

    def __repr__(self) -> str:
        return f"WorkloadSpec({len(self.jobs)} entries, {len(self)} jobs)"


def _names(base: str, count: int) -> list[str]:
    """The job names an entry named ``base`` expands to."""
    return [base] if count == 1 else [f"{base}_r{r + 1}"
                                      for r in range(count)]


def _claim(named: dict[str, str], job: JobSpec, where: str) -> None:
    """Record the names a named ``job`` expands to as used at ``where``;
    a name already in ``named`` is an error there."""
    for name in _names(job.name, job.count) if job.name else ():
        if name in named:
            raise JobSpecError(f"{where}: duplicate job name {name!r} "
                               f"(first at {named[name]})")
        named[name] = where


def submit_job(svc, job: JobSpec, produced: Mapping[str, dict] | None = None):
    """Submit ``job`` to ``svc``, an :class:`~repro.service.ArrayService`,
    with its inputs and per-job fields; returns the job's handle."""
    program = job.build_program()
    return svc.submit(program, job.params, job.inputs(program, produced),
                      name=job.name, memory_cap_bytes=job.memory_cap,
                      plan_exact=job.plan_exact, checkpoint=job.checkpoint,
                      resume=job.resume, timeout=job.timeout,
                      retry=job.retries)
