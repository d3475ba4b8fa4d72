"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``optimize`` — parse a pseudo-code program (plus a JSON array-declaration
  file), run the optimizer, print the plan space and the best plan;
* ``explain``  — like optimize, but also print the generated pseudo-C for
  the chosen plan;
* ``demo``     — run the built-in Example-1 demo end to end (optimize,
  execute on the simulated disk, verify numerically);
* ``serve``    — batch mode for the multi-query service: run a JSONL job
  file through one :class:`~repro.service.ArrayService` (shared buffer
  pool, plan cache, admission control) and report per-job I/O, cache
  hits, queue statistics and latency percentiles; ``--shards`` stripes
  the service disk (see docs/service.md "Scaling out");
* ``advise``   — the workload-driven storage advisor: profile a workload
  (live baseline run, or offline from an exported ``--trace``/``--metrics``
  pair), emit ranked costed recommendations (block geometry,
  materialization, layout, memory budget, prefetch), and with ``--apply``
  verify every prediction by re-running the workload.

A job file (``serve``, ``advise --jobs``) holds one
:class:`~repro.service.JobSpec` per line; docs/service.md "Job files"
lists its keys.

Example array-declaration JSON::

    {
      "params": ["n1", "n2", "n3"],
      "bindings": {"n1": 4, "n2": 4, "n3": 1},
      "arrays": {
        "A": {"dims": ["n1", "n2"], "block_shape": [60, 40], "kind": "input"},
        "C": {"dims": ["n1", "n2"], "block_shape": [60, 40], "kind": "intermediate"},
        ...
      }
    }
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from contextlib import nullcontext

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="RIOTShare I/O-sharing optimizer")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("optimize", "explain"):
        cmd = sub.add_parser(name)
        cmd.add_argument("source", help="pseudo-code file (C-style loop nests)")
        cmd.add_argument("decls", help="JSON array/parameter declaration file")
        cmd.add_argument("--memory-cap", type=int, default=None,
                         help="memory cap in bytes")
        cmd.add_argument("--max-set-size", type=int, default=None)
        cmd.add_argument("--max-candidates", type=int, default=None)
        cmd.add_argument("--workers", type=int, default=None,
                         help="process-pool workers for the plan search "
                              "(1 = sequential; N>=2 parallelizes each "
                              "Apriori level and the plan costing)")

    demo = sub.add_parser("demo")
    demo.add_argument("--workload", choices=("add_multiply", "two_matmuls"),
                      default="add_multiply",
                      help="which paper experiment to run end to end: "
                           "Example 1 (Fig. 3) or the two-matmul workload "
                           "(Fig. 4/5, configuration A)")
    demo.add_argument("--blocks", type=int, default=4,
                      help="block grid size for add_multiply (n1 = n2)")
    demo.add_argument("--workers", type=int, default=None,
                      help="process-pool workers for the plan search")
    demo.add_argument("--faults", type=int, default=None, metavar="SEED",
                      help="inject deterministic transient I/O faults "
                           "(5%% of counted ops) with this seed; the "
                           "retry/backoff layer must absorb them")
    demo.add_argument("--workdir", default=None,
                      help="persistent working directory (enables the "
                           "checkpoint journal; default: a temp dir)")
    demo.add_argument("--resume", action="store_true",
                      help="resume an interrupted --workdir run from its "
                           "execution journal")
    demo.add_argument("--trace", default=None, metavar="FILE",
                      help="stream structured trace events to FILE (JSONL); "
                           "a Chrome/Perfetto-loadable FILE.chrome.json "
                           "companion is written alongside")
    demo.add_argument("--metrics", action="store_true",
                      help="print the metrics registry (Prometheus text "
                           "exposition) after the run")
    demo.add_argument("--validate-cost", action="store_true",
                      help="audit the cost model: join predicted I/O "
                           "against traced actuals per statement/array and "
                           "fail (exit 1) on any mismatch")
    demo.add_argument("--tolerance", type=float, default=0.0,
                      help="relative byte tolerance for --validate-cost "
                           "(default 0 = byte-exact)")
    demo.add_argument("--prefetch", type=int, default=0, metavar="DEPTH",
                      help="overlap I/O with compute: stage up to DEPTH "
                           "upcoming READ blocks on background reader "
                           "threads (0 = serial)")

    serve = sub.add_parser("serve")
    serve.add_argument("jobs", help="JSONL job file: one job object per line "
                                    "({\"program\": ..., \"params\": {...}, "
                                    "\"seed\": 0, ...})")
    serve.add_argument("--service-workers", type=int, default=2,
                       help="concurrent executor threads (default 2)")
    serve.add_argument("--memory-cap", type=int, default=8 << 20,
                       help="global buffer-memory budget in bytes the "
                            "service partitions across jobs (default 8 MiB)")
    serve.add_argument("--plan-cache", default=None, metavar="DIR",
                       help="persistent plan-cache directory; repeat "
                            "submissions of a program template skip the "
                            "Apriori search")
    serve.add_argument("--workdir", default=None,
                       help="service working directory holding the shared "
                            "stores (default: a temp dir)")
    serve.add_argument("--admission-timeout", type=float, default=None,
                       help="default seconds a job may wait for memory "
                            "budget before a typed rejection")
    serve.add_argument("--verify", action="store_true",
                       help="check every job's outputs against the "
                            "in-memory reference implementation")
    serve.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write the metrics registry (Prometheus text "
                            "exposition) to FILE after the batch")
    serve.add_argument("--prefetch", type=int, default=0, metavar="DEPTH",
                       help="default per-job prefetch depth; each job's "
                            "staging budget (DEPTH x its largest block) is "
                            "charged to admission control")
    serve.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="default per-job deadline; a job past it is "
                            "cooperatively cancelled and fails with "
                            "DeadlineExceeded (jobs may override with "
                            "\"timeout\")")
    serve.add_argument("--job-retries", type=int, default=None, metavar="N",
                       help="retry transiently-failed jobs up to N attempts, "
                            "resuming from the checkpoint journal so only "
                            "unfinished instances re-execute (jobs may "
                            "override with \"retries\")")
    serve.add_argument("--degrade", action="store_true",
                       help="enable overload-aware degradation: shed new "
                            "jobs past the backlog watermark, throttle "
                            "prefetch under memory pressure, skip cold "
                            "plan searches when the queue is deep, and "
                            "trip per-store circuit breakers")
    serve.add_argument("--shards", type=int, default=1,
                       help="stripe the service disk across N independent "
                            "shards with per-shard fault/retry domains "
                            "(default 1 = a plain single disk)")
    serve.add_argument("--stripe-bytes", type=int, default=None,
                       help="stripe unit for --shards > 1 (default 64 KiB)")
    serve.add_argument("--io-pace", type=float, default=0.0,
                       help="wall-clock pacing: sleep this multiple of the "
                            "modeled transfer time per counted I/O "
                            "(default 0 = off)")
    serve.add_argument("--pace-channels", type=int, default=None,
                       help="concurrent paced transfers per disk/shard "
                            "(1 models one device channel, making shard "
                            "count show up in throughput; default "
                            "unbounded)")

    advise = sub.add_parser("advise")
    advise.add_argument("--jobs", required=True, metavar="FILE",
                        help="JSONL workload spec: one job object per line "
                             "({\"program\": ..., \"params\": {...}, "
                             "\"seed\": 0, \"seeds\": {\"D\": 1}, "
                             "\"count\": 4, ...}).  Required — observed "
                             "traces carry neither input seeds nor builder "
                             "geometry, so the spec is the re-runnable "
                             "half of the workload")
    advise.add_argument("--trace", default=None, metavar="FILE",
                        help="offline path: profile the workload from this "
                             "exported JSONL trace instead of running a "
                             "baseline (schema-versioned; older traces are "
                             "read tolerantly, newer ones refused)")
    advise.add_argument("--metrics", default=None, metavar="FILE",
                        help="metrics snapshot accompanying --trace (the "
                             "versioned JSON document, a legacy flat "
                             "snapshot, or Prometheus text exposition)")
    advise.add_argument("--apply", action="store_true",
                        help="verify the recommendations: re-run the "
                             "workload once per recommendation and once "
                             "with the whole set applied, scoring every "
                             "prediction against measurement")
    advise.add_argument("--json", default=None, metavar="FILE",
                        help="write the machine-readable report document "
                             "(versioned JSON) to FILE")
    advise.add_argument("--top", type=int, default=None, metavar="N",
                        help="print only the N highest-ranked "
                             "recommendations (all are validated and "
                             "reported in --json)")
    advise.add_argument("--workdir", default=None,
                        help="working directory for baseline/verification "
                             "runs (default: a temp dir)")
    advise.add_argument("--memory-cap", type=int, default=8 << 20,
                        help="service memory budget in bytes for the "
                             "analyzed configuration (default 8 MiB)")
    advise.add_argument("--prefetch", type=int, default=0, metavar="DEPTH",
                        help="prefetch depth of the analyzed configuration")
    advise.add_argument("--service-workers", type=int, default=2,
                        help="executor threads for workload runs (default 2)")
    advise.add_argument("--tolerance", type=float, default=0.02,
                        help="relative savings-error tolerance for "
                             "prediction validation, as a fraction of "
                             "workload bytes (default 0.02)")
    advise.add_argument("--min-savings", type=float, default=None,
                        metavar="FRAC",
                        help="exit 1 unless the applied recommendation set "
                             "reduces measured I/O bytes by at least FRAC "
                             "(e.g. 0.15); requires --apply")

    args = parser.parse_args(argv)
    if args.command == "demo":
        return _demo(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "advise":
        return _advise(args)
    return _optimize(args, explain=args.command == "explain")


def _load_program(args):
    from .ir.parser import ArraySpec, parse_program

    with open(args.decls) as fh:
        decls = json.load(fh)
    arrays = {name: ArraySpec(tuple(spec["dims"]), tuple(spec["block_shape"]),
                              spec.get("kind", "input"),
                              spec.get("dtype_bytes", 8))
              for name, spec in decls["arrays"].items()}
    with open(args.source) as fh:
        source = fh.read()
    program = parse_program("cli", source, tuple(decls.get("params", ())),
                            arrays)
    bindings = {k: int(v) for k, v in decls.get("bindings", {}).items()}
    if not bindings:
        raise SystemExit("declaration file must bind every parameter "
                         "(\"bindings\": {\"n1\": 4, ...})")
    return program, bindings


def _optimize(args, explain: bool) -> int:
    from .optimizer import optimize

    program, bindings = _load_program(args)
    result = optimize(program, bindings, max_set_size=args.max_set_size,
                      max_candidates=args.max_candidates, workers=args.workers)
    print(f"{len(result.analysis.dependences)} dependences, "
          f"{len(result.analysis.opportunities)} sharing opportunities")
    print(f"search: {result.stats}\n")
    print(f"{'plan':>4} {'I/O(s)':>10} {'mem(MB)':>9}  realized")
    for plan in sorted(result.plans, key=lambda p: p.cost.io_seconds):
        print(f"{plan.index:>4} {plan.cost.io_seconds:>10.2f} "
              f"{plan.cost.memory_bytes / 1e6:>9.2f}  "
              f"{', '.join(plan.realized_labels) or '(original)'}")
    best = result.best(args.memory_cap)
    print(f"\nbest plan under cap: #{best.index} — {best.summary()}")
    if explain:
        from .codegen import build_executable_plan, render_c
        from .optimizer import describe_plan
        print("\n" + describe_plan(program, bindings, best))
        print("\n" + render_c(build_executable_plan(program, bindings, best)))
    return 0


def _demo(args) -> int:
    import numpy as np

    from . import obs
    from .engine import reference_outputs, run_program
    from .ops import add_multiply_program
    from .optimizer import optimize
    from .storage import FaultInjector, make_disk
    from .workloads import generate_inputs, two_matmul_config

    if args.workload == "two_matmuls":
        config = two_matmul_config("A")
        program, params = config.program, config.params
        inputs = generate_inputs(config)
        print(f"optimizing two-matmul workload (config A, "
              f"{params['n1']}x{params['n3']} block grid) ...")
    else:
        program = add_multiply_program()
        params = {"n1": args.blocks, "n2": args.blocks, "n3": 1}
        rng = np.random.default_rng(0)
        inputs = {n: rng.standard_normal(program.arrays[n].shape_elems(params))
                  for n in ("A", "B", "D")}
        print(f"optimizing Example 1 at {args.blocks}x{args.blocks} blocks ...")

    observing = bool(args.trace or args.metrics or args.validate_cost)
    tracer = registry = None
    if observing:
        tracer, registry = obs.enable(trace_path=args.trace)
    try:
        result = optimize(program, params, workers=args.workers)
        best = result.best()
        orig = result.original_plan
        print(f"{len(result.plans)} plans; best saves "
              f"{1 - best.cost.total_bytes / orig.cost.total_bytes:.0%} I/O "
              f"realizing {best.realized_labels}")

        if args.resume and not args.workdir:
            raise SystemExit("--resume requires --workdir")
        validate = args.tolerance if args.validate_cost and args.tolerance \
            else args.validate_cost
        with nullcontext(args.workdir) if args.workdir \
                else tempfile.TemporaryDirectory() as workdir:
            if args.faults is not None:
                workdir = make_disk(workdir, fault_injector=FaultInjector
                                    .transient(seed=args.faults))
            report, outputs = run_program(
                program, params, best, workdir, inputs,
                checkpoint=bool(args.workdir), resume=args.resume,
                validate=validate, prefetch_depth=args.prefetch)
    finally:
        if observing:
            obs.disable()

    expected = reference_outputs(program, params, inputs)
    ok = all(np.allclose(outputs[name], expected[name]) for name in outputs)
    exact = (report.io.read_bytes == best.cost.read_bytes
             and report.io.write_bytes == best.cost.write_bytes)
    print(f"executed: {report.io.read_bytes / 1e6:.1f} MB read, "
          f"{report.io.write_bytes / 1e6:.1f} MB written; "
          f"result correct: {ok}; I/O byte-exact vs prediction: {exact}")
    if args.faults is not None:
        print(f"fault injection (seed {args.faults}): "
              f"{report.io.retries} transient faults absorbed by retry")
    if report.resumed_from:
        print(f"resumed from instance {report.resumed_from}: "
              f"{report.instances} instances re-executed")
    if report.prefetch is not None:
        pf = report.prefetch
        print(f"prefetch (depth {args.prefetch}): {pf.staged_blocks} blocks "
              f"staged ({pf.batched_runs} batched runs), "
              f"{pf.taken_by_main} read inline, "
              f"compute waited {pf.wait_seconds:.3f}s")

    if args.trace:
        chrome_path = args.trace + ".chrome.json"
        from pathlib import Path
        Path(chrome_path).write_text(obs.chrome_trace(tracer.events))
        print(f"trace: {tracer and len(tracer.events)} events -> {args.trace} "
              f"(Chrome/Perfetto: {chrome_path})")
    if args.metrics:
        print("\n" + registry.expose_text(), end="")

    validation_ok = True
    if args.validate_cost:
        print("\n" + report.validation.to_text())
        validation_ok = report.validation.passed

    # A resumed run legitimately differs from the plan's predicted bytes
    # (it skips completed instances and re-warms held blocks).
    return 0 if (ok and (exact or report.resumed_from)
                 and validation_ok) else 1


def _serve(args) -> int:
    import numpy as np

    from . import obs
    from .engine import reference_outputs
    from .exceptions import (JobCancelled, JobSpecError, ReproError,
                             ServiceError, StorageError)
    from .service import ArrayService, WorkloadSpec, submit_job
    from .storage import make_disk

    try:
        jobs = WorkloadSpec.from_jsonl(args.jobs).expanded()
    except JobSpecError as err:
        raise SystemExit(str(err))
    # --deadline / --job-retries are defaults for the lines that set none.
    for job in jobs:
        if job.timeout is None:
            job.timeout = args.deadline
        if job.retries is None:
            job.retries = args.job_retries
    observing = bool(args.metrics_out)
    registry = None
    if observing:
        _, registry = obs.enable()

    def run_batch(workdir) -> int:
        failures = 0
        try:
            disk = make_disk(workdir, args.shards,
                             stripe_bytes=args.stripe_bytes,
                             pace=args.io_pace,
                             pace_channels=args.pace_channels)
        except StorageError as err:
            raise SystemExit(str(err))
        with ArrayService(disk, memory_cap_bytes=args.memory_cap,
                          workers=args.service_workers,
                          plan_cache=args.plan_cache,
                          admission_timeout=args.admission_timeout,
                          prefetch_depth=args.prefetch,
                          degrade=bool(args.degrade)) as svc:
            futures = [(job, submit_job(svc, job)) for job in jobs]
            for job, fut in futures:
                try:
                    r = fut.result()
                except ReproError as err:
                    failures += 1
                    verdict = "CANCELLED" if isinstance(err, JobCancelled) \
                        else "REJECTED" if isinstance(err, ServiceError) \
                        else "FAILED"
                    print(f"job {job.name}: {verdict} "
                          f"({type(err).__name__}: {err})")
                    continue
                line = (f"job {r.job}: plan #{r.plan.index} "
                        f"{'(cached) ' if r.cache_hit else ''}"
                        f"read {r.report.io.read_bytes / 1e6:.2f} MB, "
                        f"wrote {r.report.io.write_bytes / 1e6:.2f} MB, "
                        f"pool {r.report.pool_hits}h/"
                        f"{r.report.pool_misses}m, "
                        f"waited {r.admission_wait_seconds:.3f}s")
                if args.verify:
                    program = job.build_program()
                    expected = reference_outputs(program, job.params,
                                                 job.inputs(program))
                    ok = all(np.allclose(r.outputs[n], expected[n])
                             for n in r.outputs)
                    line += f", verified: {ok}"
                    if not ok:
                        failures += 1
                print(line)
            s = svc.stats
            print(f"\n{s.jobs_completed}/{s.jobs_submitted} jobs completed, "
                  f"{s.jobs_rejected} rejected, {s.jobs_failed} failed; "
                  f"disk totals: {svc.disk.stats!r}")
            if s.jobs_completed:
                q = s.job_seconds.quantiles()
                print("job latency (submit -> result): "
                      + ", ".join(f"{k}={v:.3f}s" for k, v in q.items()
                                  if v is not None))
            if args.shards > 1:
                per = ", ".join(
                    f"shard{i}: {st.read_bytes / 1e6:.2f}/"
                    f"{st.write_bytes / 1e6:.2f} MB r/w"
                    for i, st in enumerate(svc.disk.shard_stats()))
                print(f"shard traffic: {per}")
            resilience = (s.jobs_cancelled + s.jobs_deadline_exceeded
                          + s.jobs_shed + s.retries_attempted
                          + s.degraded_plans + s.breaker_trips)
            if resilience:
                print(f"resilience: {s.jobs_cancelled} cancelled, "
                      f"{s.jobs_deadline_exceeded} past deadline, "
                      f"{s.jobs_shed} shed, "
                      f"{s.retries_attempted} retries "
                      f"({s.retries_exhausted} exhausted), "
                      f"{s.degraded_plans} degraded plans, "
                      f"{s.breaker_trips} breaker trips")
            pc = svc.plan_cache
            print(f"plan cache: {pc.hits} hits ({pc.memory_hits} from "
                  f"memory), {pc.misses} misses ({pc.structure_hits} "
                  f"re-costed from another block size), "
                  f"{pc.invalidations} invalidations, {len(pc)} plans "
                  f"stored")
        return failures

    try:
        if args.workdir:
            failures = run_batch(args.workdir)
        else:
            with tempfile.TemporaryDirectory() as workdir:
                failures = run_batch(workdir)
    finally:
        if observing:
            from pathlib import Path
            text = registry.expose_text()
            quantiles = registry.quantiles()
            if quantiles:
                lines = ["# Histogram quantile estimates (linear "
                         "interpolation within buckets):"]
                for series, qs in sorted(quantiles.items()):
                    est = ", ".join(f"{k}={v:.6g}" for k, v in qs.items()
                                    if v is not None)
                    lines.append(f"# quantiles {series} {est}")
                text += "\n".join(lines) + "\n"
            Path(args.metrics_out).write_text(text)
            print(f"metrics exposition -> {args.metrics_out}")
            obs.disable()
    return 1 if failures else 0


def _advise(args) -> int:
    from .advisor import (AdvisorConfig, AdvisorContext, WorkloadProfile,
                          WorkloadSpec, measured_io_bytes, render_report,
                          run_analyzers, run_workload,
                          validate_recommendations, write_report)
    from .exceptions import AdvisorError, JobSpecError

    if args.min_savings is not None and not args.apply:
        raise SystemExit("--min-savings requires --apply (it judges "
                         "*measured* bytes, not predictions)")
    try:
        config = AdvisorConfig.from_spec(
            WorkloadSpec.from_jsonl(args.jobs),
            memory_cap_bytes=args.memory_cap, prefetch_depth=args.prefetch,
            workers=args.service_workers)
    except JobSpecError as err:
        raise SystemExit(str(err))

    def advise_in(workdir) -> int:
        from pathlib import Path
        workdir = Path(workdir)
        try:
            if args.trace:
                profile = WorkloadProfile.from_files(args.trace, args.metrics)
                print(f"profiled {int(profile.totals.get('jobs', 0))} jobs "
                      f"offline from {args.trace}"
                      + (f" + {args.metrics}" if args.metrics else ""))
            else:
                print(f"running baseline: {len(config.jobs)} jobs ...")
                profile = run_workload(config, workdir / "baseline")
                print(f"baseline measured I/O: "
                      f"{measured_io_bytes(profile) / 1e6:.2f} MB")
        except AdvisorError as err:
            raise SystemExit(str(err))

        recs = run_analyzers(AdvisorContext(config, profile))
        validation = None
        if args.apply and recs:
            print(f"verifying {len(recs)} recommendation(s) by re-running "
                  f"the workload ...")
            validation = validate_recommendations(
                config, recs, workdir / "verify", tolerance=args.tolerance,
                baseline=None if args.trace else profile)
        print()
        print(render_report(recs, profile, validation, top=args.top), end="")
        if args.json:
            write_report(args.json, recs, profile, validation,
                         config=config.describe())
            print(f"\nreport document -> {args.json}")
        mispredicted = sum(1 for r in recs if r.mispredicted)
        if mispredicted:
            print(f"\nWARNING: {mispredicted} recommendation(s) "
                  f"mispredicted beyond tolerance {args.tolerance:.2%}")
        if args.min_savings is not None:
            reduction = (validation or {}).get("reduction") or 0.0
            if reduction < args.min_savings:
                print(f"\nFAIL: applied set reduced measured I/O by "
                      f"{reduction:.1%} < required {args.min_savings:.1%}")
                return 1
            print(f"\nOK: applied set reduced measured I/O by "
                  f"{reduction:.1%} (required {args.min_savings:.1%})")
        return 0

    if args.workdir:
        return advise_in(args.workdir)
    with tempfile.TemporaryDirectory() as workdir:
        return advise_in(workdir)


if __name__ == "__main__":
    sys.exit(main())
