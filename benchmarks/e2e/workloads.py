"""The four workloads: what each sets up, times, checks and (traced) replays.

Every workload answers the same three calls: ``setup()`` before the first
timed operation, ``measure(seconds)`` with tracing off for the end-to-end
metrics, and ``layers(seconds, rec)`` for the per-layer metrics of a traced
run.  A workload's *job* is the unit its user waits for: one analyst pass
over its two programs (``plan_cold``, ``exec_large``) or one service job
(``serve_*``).  Units of work (passes, epochs) have a fixed, seed-determined
content and are repeated until ``seconds`` of timed work has accumulated, so
per-job counters repeat exactly while timings get a sample that fills the run.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import numpy as np

import harness as H
from replay import STAGES, Recorder, replay_job
from repro import obs
from repro.analysis import analyze
from repro.engine import reference_outputs, run_program
from repro.exceptions import ReproError
from repro.ops import add_multiply_program
from repro.optimizer import optimize
from repro.service import ArrayService, PlanCache
from repro.storage import BufferPool, SharedBufferPool, make_disk
from repro.verify import verify_plan
from repro.workloads import (add_multiply_config, generate_inputs,
                             two_matmul_config)

_clock = time.perf_counter

MB = 1e6


class Checks:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: " + "; ".join(problems))


def outputs_differ(outputs, expected) -> bool:
    return not outputs or any(
        not np.allclose(got, expected[name]) for name, got in outputs.items())


def plan_problems(program, params, plan, analysis) -> list[str]:
    try:
        verify_plan(program, params, plan, analysis)
    except ReproError as err:
        return [f"verify_plan: {err}"]
    return []


def repeat_until(seconds: float, unit) -> int:
    """Call ``unit(k)`` (returns its timed seconds) until the timed total
    reaches ``seconds``; always at least once.  Returns the number of calls."""
    total, k = 0.0, 0
    while k == 0 or total < seconds:
        total += unit(k)
        k += 1
    return k


def io_ratio(plans_and_originals) -> float:
    best = sum(p.cost.io_seconds for p, _ in plans_and_originals)
    plan0 = sum(o.cost.io_seconds for _, o in plans_and_originals)
    return best / plan0


def stage_layers(rec: Recorder, n_jobs: int, reports, exec_plans,
                 first: int = 0) -> dict:
    """Per-job means of everything the replay measured, from span index
    ``first`` on."""
    dur, selft, calls = rec.totals(first)

    def per(name):
        return dur.get(name, 0.0) / n_jobs

    io = {f: sum(getattr(r.io, f) for r in reports) / n_jobs
          for f in ("read_ops", "write_ops", "read_bytes", "write_bytes",
                    "retries", "checksum_failures")}
    instances = sum(len(p.instances) for p in exec_plans) / n_jobs
    pool_calls = [n for n in calls if n.startswith("buffer.")
                  and n != "buffer.sweep"]
    execute_s = sum(r.wall_seconds for r in reports) / n_jobs
    kernel_s = sum(r.cpu_seconds for r in reports) / n_jobs
    read_s, write_s = per("storage.read_block"), per("storage.write_block")
    return {
        "codegen.build_s": per("codegen.build"),
        "codegen.instances": instances,
        "storage.create_s": per("storage.create"),
        "storage.ingest_s": per("storage.ingest"),
        "storage.prealloc_s": per("storage.prealloc"),
        "storage.read_out_s": per("storage.read_out"),
        "storage.close_s": per("storage.close"),
        "storage.read_block_s": read_s,
        "storage.write_block_s": write_s,
        "storage.read_ops": io["read_ops"],
        "storage.write_ops": io["write_ops"],
        "storage.read_mb": io["read_bytes"] / MB,
        "storage.write_mb": io["write_bytes"] / MB,
        "storage.us_per_read_op":
            read_s / io["read_ops"] * 1e6 if io["read_ops"] else 0.0,
        "storage.mb_per_s_read":
            io["read_bytes"] / MB / read_s if read_s else 0.0,
        "storage.mb_per_s_write":
            io["write_bytes"] / MB / write_s if write_s else 0.0,
        "storage.retries": io["retries"],
        "storage.checksum_failures": io["checksum_failures"],
        "buffer.pool_self_s": sum(selft[n] for n in pool_calls) / n_jobs,
        "buffer.calls": sum(calls[n] for n in pool_calls) / n_jobs,
        "engine.execute_s": execute_s,
        "engine.kernel_s": kernel_s,
        "engine.loop_self_s": selft["engine.execute"] / n_jobs - kernel_s,
        "engine.us_per_instance": execute_s / instances * 1e6,
        "bench.stage_coverage":
            sum(dur.get(s, 0.0) for s in STAGES) / dur["job"],
    }


def pool_layers(pools, n_jobs: int) -> dict:
    """Pool counters per job, over the pools those jobs used."""
    hits = sum(p.hits for p in pools)
    misses = sum(p.misses for p in pools)
    return {
        "buffer.hits": hits / n_jobs, "buffer.misses": misses / n_jobs,
        "buffer.evictions": sum(p.evictions for p in pools) / n_jobs,
        "buffer.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "buffer.peak_mb": max(p.peak_bytes for p in pools) / MB,
    }


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.checks = Checks()
        self.detail: dict = {}
        self._scratch = 0

    def scratch(self, label: str) -> Path:
        self._scratch += 1
        return self.workdir / f"{label}-{self._scratch}"


# -- the analyst's two workloads -------------------------------------------------

class _Case:
    """One program of an analyst workload, with inputs and dense reference."""

    def __init__(self, cfg, rng):
        self.cfg = cfg
        self.name = cfg.name
        self.inputs = generate_inputs(cfg, rng=rng)
        self.expected = reference_outputs(cfg.program, cfg.params,
                                          self.inputs)
        self.plan = self.original = None
        # plan.cost bytes per counted byte; 1 unless planned at another
        # geometry than the run's.
        self.byte_scale = 1


class _Analyst(Workload):
    """Shared shape: each pass plans and/or runs every case once."""

    def make_cases(self, configs):
        self.cases = [_Case(cfg, np.random.default_rng([self.seed, i]))
                      for i, cfg in enumerate(configs)]
        self.plan_t = {c.name: [] for c in self.cases}
        self.exec_t = {c.name: [] for c in self.cases}
        self.latencies: list[float] = []
        self.io_bytes = 0

    def run_case(self, case, plan) -> float:
        """Execute ``plan`` plan-exactly in a fresh directory and check the
        outputs and the counted bytes; returns the timed seconds."""
        cfg, byte_scale = case.cfg, case.byte_scale
        wd = self.scratch(case.name)
        t0 = _clock()
        report, outputs = run_program(cfg.program, cfg.params, plan, wd,
                                      case.inputs, plan_exact=True,
                                      validate=False)
        spent = _clock() - t0
        problems = []
        if outputs_differ(outputs, case.expected):
            problems.append("outputs differ from reference_outputs")
        if (report.io.read_bytes * byte_scale != plan.cost.read_bytes
                or report.io.write_bytes * byte_scale
                != plan.cost.write_bytes):
            problems.append(
                f"counted {report.io.read_bytes}r/{report.io.write_bytes}w "
                f"bytes x{byte_scale} != plan.cost "
                f"{plan.cost.read_bytes}r/{plan.cost.write_bytes}w")
        self.checks.record(problems, f"run {case.name}")
        self.io_bytes += report.io.read_bytes + report.io.write_bytes
        self.exec_t[case.name].append(spent)
        shutil.rmtree(wd)
        return spent

    def end_to_end(self, passes: int) -> dict:
        p_tail, tail = H.tail_percentile(self.latencies)
        self.detail.update(
            passes=passes, tail_percentile=p_tail,
            latency_samples=len(self.latencies),
            per_program={
                c.name: {"plan_s": H.median(self.plan_t[c.name]),
                         "exec_s": H.median(self.exec_t[c.name])}
                for c in self.cases})
        return {
            "plan_s": sum(H.median(self.plan_t[c.name]) for c in self.cases),
            "plan_io_ratio": io_ratio([(c.plan, c.original)
                                       for c in self.cases]),
            "exec_s": sum(H.median(self.exec_t[c.name]) for c in self.cases),
            "jobs_per_s": passes / sum(self.latencies),
            "job_p50_ms": H.median(self.latencies) * 1e3,
            "job_p90_ms": tail * 1e3,
            "io_mb_per_job": self.io_bytes / passes / MB,
        }

    def replay_cases(self, rec, pools):
        """One traced pass; returns (reports, exec plans, untraced seconds)."""
        reports, exec_plans, untraced = [], [], 0.0
        for case in self.cases:
            cfg = case.cfg
            wd = self.scratch("replay")
            pool = BufferPool(None)
            report, outputs, exec_plan = replay_job(
                rec, case.name, cfg.program, cfg.params, case.inputs, pool,
                workdir=wd, plan=case.plan)
            self.checks.record(
                ["outputs differ from reference_outputs"]
                if outputs_differ(outputs, case.expected) else [],
                f"replay {case.name}")
            shutil.rmtree(wd)
            reports.append(report)
            exec_plans.append(exec_plan)
            pools.append(pool)
            wd = self.scratch("untraced")
            t0 = _clock()
            run_program(cfg.program, cfg.params, case.plan, wd, case.inputs,
                        plan_exact=True, validate=False)
            untraced += _clock() - t0
            shutil.rmtree(wd)
        return reports, exec_plans, untraced


class PlanCold(_Analyst):
    """Cold ``optimize()`` of the paper's Table 2 and Table 3-B programs at
    paper geometry; each chosen plan is then run once at 1/100 scale, which
    is the output check and the source of this workload's ``exec_s`` and
    ``io_mb_per_job``."""

    name = "plan_cold"

    def setup(self):
        self.make_cases((add_multiply_config(), two_matmul_config("B")))
        self.expected_plans = H.load_json(
            H.HERE / "expected_plans.json")["plans"]
        for case in self.cases:
            cfg = case.cfg
            scales = {cfg.paper_block_bytes[n] // a.block_bytes
                      for n, a in cfg.program.arrays.items()}
            # Plans are costed in paper bytes and run at 1/100 per axis; one
            # common factor makes the byte check exact.
            (case.byte_scale,) = scales

    def plan_case(self, case, prune: bool = False):
        cfg = case.cfg
        t0 = _clock()
        result = optimize(cfg.program, cfg.params,
                          block_bytes=cfg.paper_block_bytes, prune=prune)
        best = result.best()
        spent = _clock() - t0
        return result, best, spent

    def check_plan(self, case, result, best):
        exp = self.expected_plans[case.name]
        tol = exp["tolerance"]
        problems = plan_problems(case.cfg.program, case.cfg.params, best,
                                 result.analysis)
        if abs(best.cost.io_seconds - exp["best_io_seconds"]) > tol:
            problems.append(f"best plan {best.cost.io_seconds} s, expected "
                            f"{exp['best_io_seconds']}")
        plan0 = result.original_plan.cost.io_seconds
        if "plan0_io_seconds" in exp and \
                abs(plan0 - exp["plan0_io_seconds"]) > tol:
            problems.append(f"plan 0 {plan0} s, expected "
                            f"{exp['plan0_io_seconds']}")
        if "realized" in exp and \
                sorted(best.realized_labels) != sorted(exp["realized"]):
            problems.append(f"realizes {best.realized_labels}")
        if len(result.plans) != exp["plans"]:
            problems.append(f"{len(result.plans)} plans, expected "
                            f"{exp['plans']}")
        if "opportunities" in exp and \
                len(result.analysis.opportunities) != exp["opportunities"]:
            problems.append(f"{len(result.analysis.opportunities)} "
                            f"opportunities")
        self.checks.record(problems, f"plan {case.name}")

    def measure(self, seconds: float) -> dict:
        def one_pass(_k):
            spent = 0.0
            for case in self.cases:
                result, best, t_plan = self.plan_case(case)
                self.plan_t[case.name].append(t_plan)
                case.plan, case.original = best, result.original_plan
                self.check_plan(case, result, best)
                spent += t_plan + self.run_case(case, best)
            self.latencies.append(spent)
            return spent

        passes = repeat_until(seconds, one_pass)
        first = sum(self.plan_t[c.name][0] for c in self.cases)
        last = sum(self.plan_t[c.name][-1] for c in self.cases)
        out = self.end_to_end(passes)
        # Process-level memoisation would show as later passes beating the
        # first; within plan_s's bound the passes may share an interpreter.
        self.detail["plan_last_over_first_pass"] = last / first
        return out

    def layers(self, seconds: float, rec: Recorder) -> dict:
        out = dict.fromkeys(("analysis.analyze_s", "analysis.opportunities",
                             "optimizer.search_s",
                             "optimizer.candidates_tested",
                             "optimizer.feasible", "optimizer.plans",
                             "optimizer.pruned_search_s",
                             "optimizer.best_io_s", "optimizer.plan0_io_s"),
                            0.0)
        for case in self.cases:
            cfg = case.cfg
            rec.job = case.name
            with rec.span("analysis.analyze"):
                analysis = analyze(cfg.program, param_values=cfg.params)
            t_analyze = rec.spans[-1][2] - rec.spans[-1][1]
            with rec.span("optimizer.optimize"):
                result, best, t_opt = self.plan_case(case)
            with rec.span("optimizer.optimize_pruned"):
                _, pruned_best, t_pruned = self.plan_case(case, prune=True)
            rec.job = None
            case.plan, case.original = best, result.original_plan
            self.check_plan(case, result, best)
            self.checks.record(
                [] if pruned_best.cost.io_seconds == best.cost.io_seconds
                else ["pruned search chose another plan"],
                f"pruned {case.name}")
            out["analysis.analyze_s"] += t_analyze
            out["analysis.opportunities"] += len(analysis.opportunities)
            out["optimizer.search_s"] += t_opt - t_analyze
            out["optimizer.pruned_search_s"] += t_pruned - t_analyze
            out["optimizer.candidates_tested"] += \
                result.stats.candidates_tested
            out["optimizer.feasible"] += result.stats.feasible
            out["optimizer.plans"] += len(result.plans)
            out["optimizer.best_io_s"] += best.cost.io_seconds
            out["optimizer.plan0_io_s"] += \
                result.original_plan.cost.io_seconds
        out["optimizer.ms_per_candidate"] = \
            out["optimizer.search_s"] * 1e3 / out["optimizer.candidates_tested"]
        first = len(rec.spans)
        pools: list = []
        reports, exec_plans, untraced = self.replay_cases(rec, pools)
        out.update(stage_layers(rec, 1, reports, exec_plans, first))
        out.update(pool_layers(pools, 1))
        out["bench.trace_overhead_ratio"] = \
            rec.totals(first)[0]["job"] / untraced
        return out


class ExecLarge(_Analyst):
    """``run_program`` of the same two programs at 1/20 scale (blocks of
    hundreds of KB), plans chosen once in set-up: the byte path dominates."""

    name = "exec_large"

    def setup(self):
        self.make_cases((add_multiply_config(scale=20),
                         two_matmul_config("B", scale=20)))
        for case in self.cases:
            cfg = case.cfg
            t0 = _clock()
            result = optimize(cfg.program, cfg.params)
            case.plan = result.best()
            self.plan_t[case.name].append(_clock() - t0)
            case.original = result.original_plan
            self.checks.record(
                plan_problems(cfg.program, cfg.params, case.plan,
                              result.analysis), f"plan {case.name}")

    def measure(self, seconds: float) -> dict:
        def one_pass(_k):
            spent = sum(self.run_case(c, c.plan) for c in self.cases)
            self.latencies.append(spent)
            return spent

        return self.end_to_end(repeat_until(seconds, one_pass))

    def layers(self, seconds: float, rec: Recorder) -> dict:
        pools: list = []
        reports, exec_plans, untraced = [], [], 0.0
        passes = 0
        t_end = _clock() + seconds
        while passes < 2 or (_clock() < t_end and passes < 4):
            r, e, u = self.replay_cases(rec, pools)
            reports += r
            exec_plans += e
            untraced += u
            passes += 1
        out = stage_layers(rec, passes, reports, exec_plans)
        out.update(pool_layers(pools, passes))
        out["bench.trace_overhead_ratio"] = \
            rec.totals()[0]["job"] / untraced
        return out


# -- the service's two workloads ---------------------------------------------------

P = {"n1": 2, "n2": 2, "n3": 1}
CAP = 64 << 20
CLIENTS = WORKERS = 2
CLASSES = {
    "small": (120, 80, 100),
    "medium": (300, 200, 250),
    "large": (600, 400, 500),
}
MIX = (("small", 0.75), ("medium", 0.225), ("large", 0.025))
DATASETS_PER_CLASS = 8


def make_inputs(program, rng) -> dict:
    return {n: rng.standard_normal(program.arrays[n].shape_elems(P))
            for n in ("A", "B", "D")}


class _Job:
    """One generated service job: template, inputs, reference, dataset id."""

    __slots__ = ("kind", "dataset", "inputs", "expected")

    def __init__(self, kind, dataset, inputs, expected):
        self.kind = kind
        self.dataset = dataset
        self.inputs = inputs
        self.expected = expected


class _Serve(Workload):
    """Shared shape: epochs of a fixed job list, each on a fresh service."""

    epoch_want = 0       # jobs per epoch
    epoch_shrinks = False
    cell_jobs = 0        # jobs per traced cell, and at most replayed
    pinned = False       # submit(plan=, plan_exact=True) or the default path

    def setup_common(self):
        soft = H.raise_fd_limit()
        self.epoch_n = H.epoch_jobs(soft, self.epoch_want, self.epoch_shrinks)
        self.programs = {k: add_multiply_program(*CLASSES[k])
                         for k in self.kinds}
        self.plans, self.originals = {}, {}
        self.plan_seconds = {}
        self.cache = None

    def plan_template(self, kind, passes: int = 1, plan_cache=None):
        """Plan one template cold ``passes`` times (median kept as its
        ``plan_s`` share); the last pass may fill ``plan_cache``."""
        program = self.programs[kind]
        times = []
        for k in range(passes):
            t0 = _clock()
            result = optimize(program, P, memory_cap_bytes=CAP,
                              plan_cache=plan_cache
                              if k == passes - 1 else None)
            self.plans[kind] = result.best(CAP)
            times.append(_clock() - t0)
        self.plan_seconds[kind] = H.median(times)
        self.originals[kind] = result.original_plan
        self.checks.record(
            plan_problems(program, P, self.plans[kind], result.analysis),
            f"plan {kind}")

    def submit(self, svc: ArrayService, job: _Job):
        plan = self.plans[job.kind] if self.pinned else None
        return svc.submit(self.programs[job.kind], P, job.inputs, plan=plan,
                          plan_exact=self.pinned).result()

    def check_job(self, job: _Job, result) -> bool:
        problems = []
        if isinstance(result, Exception):
            problems.append(f"raised {type(result).__name__}: {result}")
        else:
            if outputs_differ(result.outputs, job.expected):
                problems.append("outputs differ from reference_outputs")
            cost, io = result.plan.cost, result.report.io
            if self.pinned and (io.read_bytes != cost.read_bytes
                                or io.write_bytes != cost.write_bytes):
                problems.append(
                    f"counted {io.read_bytes}r/{io.write_bytes}w bytes != "
                    f"plan.cost {cost.read_bytes}r/{cost.write_bytes}w")
            if not self.pinned and not result.cache_hit:
                problems.append("planned cold: plan cache was not warm")
        self.checks.record(problems, f"job {job.kind}/{job.dataset}")
        return not problems

    def run_cell(self, label, jobs, clients, workers):
        """One closed-loop pass over ``jobs`` on a fresh service, service
        construction, shutdown and checking outside the window.  Returns
        (loop result, jobs that verified, facts read before shutdown)."""
        svc = ArrayService(self.scratch(label), memory_cap_bytes=CAP,
                           workers=workers, plan_cache=self.cache)
        fds_before = H.open_fds()
        cache0 = (self.cache.hits, self.cache.misses) if self.cache else (0, 0)
        try:
            loop = H.closed_loop(lambda job: self.submit(svc, job), jobs,
                                 clients)
            facts = {
                "open_fds": H.open_fds() - fds_before,
                "left": H.tree_usage(svc.workdir),
                "stats": {f: getattr(svc.stats, f) for f in
                          ("jobs_failed", "jobs_rejected",
                           "retries_attempted")},
                "pool": pool_layers([svc.pool], len(jobs)),
                "cache_hits": self.cache.hits - cache0[0] if self.cache else 0,
                "cache_misses":
                    self.cache.misses - cache0[1] if self.cache else 0,
            }
        finally:
            svc.shutdown()
        if loop.max_in_flight > clients:
            raise AssertionError("closed loop exceeded its client count")
        ok = [r for job, r in zip(jobs, loop.results)
              if self.check_job(job, r)]
        shutil.rmtree(svc.workdir)
        return loop, ok, facts

    def measure(self, seconds: float) -> dict:
        latencies, rates, exec_s, io_mb = [], [], [], []

        def epoch(k):
            loop, ok, _ = self.run_cell(f"epoch{k}", self.jobs, CLIENTS,
                                        WORKERS)
            latencies.extend(loop.latencies)
            rates.append(len(ok) / loop.window)
            n = max(len(ok), 1)
            exec_s.append(sum(r.report.wall_seconds for r in ok) / n)
            io_mb.append(sum(r.report.io.read_bytes + r.report.io.write_bytes
                             for r in ok) / n / MB)
            return loop.window

        epochs = repeat_until(seconds, epoch)
        p_tail, tail = H.tail_percentile(latencies)
        self.detail.update(
            epochs=epochs, jobs_per_epoch=len(self.jobs),
            latency_samples=len(latencies), tail_percentile=p_tail,
            epoch_jobs_per_s=rates, plan_seconds=self.plan_seconds)
        # Every epoch replays the same job list, so the median over epochs
        # drops an epoch that hit a slow spell of the machine.
        return {
            "plan_s": sum(self.plan_seconds.values()),
            "plan_io_ratio": io_ratio([(self.plans[k], self.originals[k])
                                       for k in self.kinds]),
            "exec_s": H.median(exec_s),
            "jobs_per_s": H.median(rates),
            "job_p50_ms": H.median(latencies) * 1e3,
            "job_p90_ms": tail * 1e3,
            "io_mb_per_job": H.median(io_mb),
        }

    # -- traced run -------------------------------------------------------------

    def layers(self, seconds: float, rec: Recorder) -> dict:
        cell = self.jobs[:self.cell_jobs]
        one, ok1, facts = self.run_cell("cell1x1", cell, 1, 1)
        two, _ok2, _ = self.run_cell("cell2x2", cell, CLIENTS, WORKERS)
        n = len(cell)
        out = {
            "service.scaling_2v1": one.window / two.window,  # same jobs
            "service.open_fds_per_job": facts["open_fds"] / n,
            "service.files_left_per_job": facts["left"][0] / n,
            "service.disk_mb_left_per_job": facts["left"][1] / MB / n,
            "service.jobs_failed": facts["stats"]["jobs_failed"],
            "service.jobs_rejected": facts["stats"]["jobs_rejected"],
            "service.retries_attempted": facts["stats"]["retries_attempted"],
            "service.admission_wait_s": float(np.mean(
                [r.admission_wait_seconds for r in ok1])),
        }
        out.update(facts["pool"])
        hits = [r.optimize_seconds for r in ok1 if r.cache_hit]
        lookups = facts["cache_hits"] + facts["cache_misses"]
        out["plan_cache.hit_s"] = float(np.mean(hits)) if hits else 0.0
        out["plan_cache.hit_ratio"] = \
            facts["cache_hits"] / lookups if lookups else 0.0
        out["service.overhead_s"] = float(np.mean(
            [lat - r.optimize_seconds - r.admission_wait_seconds
             - r.report.wall_seconds
             for lat, r in zip(one.latencies, one.results)
             if not isinstance(r, Exception)]))

        if self.pinned:
            tracer, _registry = obs.enable()
            try:
                traced, _ok, _ = self.run_cell("cell_obs", cell, CLIENTS,
                                               WORKERS)
            finally:
                obs.disable()
            self.detail["obs_events"] = len(tracer.events)
            out["obs.tracer_overhead_ratio"] = traced.window / two.window

        # Stage-by-stage replay on a stand-in for the service's disk, pool
        # and dataset catalog.
        wd = self.scratch("replay")
        disk = make_disk(wd)
        pool = SharedBufferPool(CAP)
        datasets: dict = {}
        reports, exec_plans = [], []
        t_end = _clock() + seconds
        try:
            for i, job in enumerate(cell):
                if i >= 10 and _clock() > t_end:
                    break
                report, outputs, exec_plan = replay_job(
                    rec, f"r{i}", self.programs[job.kind], P, job.inputs,
                    pool, disk=disk,
                    plan=self.plans[job.kind] if self.pinned else None,
                    plan_source=lambda r, job=job: self.load_plan(r, job),
                    plan_exact=self.pinned, datasets=datasets,
                    dataset_ids={n: f"{job.kind}{job.dataset}_{n}"
                                 for n in ("A", "B", "D")})
                self.checks.record(
                    ["outputs differ from reference_outputs"]
                    if outputs_differ(outputs, job.expected) else [],
                    f"replay {job.kind}/{job.dataset}")
                reports.append(report)
                exec_plans.append(exec_plan)
        finally:
            disk.close()
        shutil.rmtree(wd)
        replayed = len(reports)
        out.update(stage_layers(rec, replayed, reports, exec_plans))
        dur = rec.totals()[0]
        out["analysis.analyze_s"] = dur.get("analysis.analyze", 0.0) / replayed
        out["plan_cache.load_s"] = dur.get("plan_cache.load", 0.0) / replayed
        if not self.pinned:
            out["analysis.opportunities"] = \
                sum(self.opportunities) / replayed
        # The same jobs, through the service with one client and replayed.
        served = one.latencies[:replayed]
        out["service.unattributed_s"] = H.median(served) - H.median(
            [end - start for name, start, end, *_ in rec.spans
             if name == "job"])
        out["bench.trace_overhead_ratio"] = dur["job"] / sum(served)
        return out


class ServePinned(_Serve):
    """Small jobs with distinct inputs and a pinned plan: the service's
    fixed cost per job, with planning removed."""

    name = "serve_pinned"
    kinds = ("small",)
    epoch_want = 300
    epoch_shrinks = True
    cell_jobs = 300
    pinned = True

    def setup(self):
        self.setup_common()
        self.plan_template("small", passes=3)
        program = self.programs["small"]
        rng = np.random.default_rng([self.seed, 0])
        self.jobs = []
        for i in range(self.epoch_n):
            inputs = make_inputs(program, rng)
            self.jobs.append(_Job("small", i, inputs,
                                  reference_outputs(program, P, inputs)))
        self.run_cell("warmup", self.jobs[:20], CLIENTS, WORKERS)


def cached_jobs(seed: int, programs: dict, n: int) -> tuple[list, dict]:
    """The ``serve_cached`` job list: ``n`` jobs split over the size classes
    by ``MIX`` and, within a class, over its datasets by Zipf(1.5), both by
    largest remainder.  The composition is therefore the same under every
    seed; the seed draws the data, which dataset holds which Zipf rank, and
    the order of the jobs."""
    rng = np.random.default_rng([seed, 1])
    per_class = H.stratified_counts(n, [share for _, share in MIX])
    jobs = []
    for (kind, _), n_kind in zip(MIX, per_class):
        program = programs[kind]
        order = rng.permutation(DATASETS_PER_CLASS)
        per_rank = H.stratified_counts(n_kind,
                                       H.zipf_weights(DATASETS_PER_CLASS))
        for rank, count in enumerate(per_rank):
            if count:
                inputs = make_inputs(program, rng)
                jobs += [_Job(kind, int(order[rank]), inputs,
                              reference_outputs(program, P, inputs))] * count
    rng.shuffle(jobs)
    return jobs, dict(zip((kind for kind, _ in MIX), per_class))


class ServeCached(_Serve):
    """The default submit path on a mix of job sizes over shared datasets:
    plans come through a warm ``PlanCache``, the pool is a shared LRU with a
    working set above its cap, inputs mostly hit the dataset catalog."""

    name = "serve_cached"
    kinds = tuple(CLASSES)
    epoch_want = 100
    cell_jobs = 40

    def setup(self):
        self.setup_common()
        self.cache = PlanCache(self.scratch("plan_cache"))
        self.opportunities: list[int] = []
        for kind in self.kinds:
            self.plan_template(kind, plan_cache=self.cache)
        self.jobs, self.detail["mix"] = cached_jobs(
            self.seed, self.programs, self.epoch_n)
        # One job per template through the service: the cache must hit.
        warm = [next(j for j in self.jobs if j.kind == k) for k in self.kinds]
        self.run_cell("warmup", warm, 1, 1)

    def load_plan(self, rec: Recorder, job: _Job):
        program = self.programs[job.kind]
        with rec.span("analysis.analyze"):
            analysis = analyze(program, param_values=P)
        self.opportunities.append(len(analysis.opportunities))
        with rec.span("plan_cache.load"):
            return self.cache.load(program, P, CAP, None, analysis=analysis,
                                   max_set_size=None, max_candidates=None,
                                   dead_write_elimination=True,
                                   block_bytes=None)


BY_NAME = {w.name: w for w in (PlanCold, ExecLarge, ServePinned, ServeCached)}
