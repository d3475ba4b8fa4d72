"""Analyzer battery: costed recommendations from config (and profile)."""

import pytest

from repro.advisor import (AdvisorConfig, AdvisorContext,
                           BlockGeometryAnalyzer, JobSpec,
                           MaterializationAnalyzer, MemoryBudgetAnalyzer,
                           PrefetchAnalyzer, Recommendation, WorkloadSpec,
                           rank, run_analyzers)
from repro.advisor.workload import WorkloadProfile

CAP = 8 << 20


def shared_workload(n_jobs=4, n1=4, n2=4):
    """Jobs sharing A and B (seed 0) with per-job D — the shape where both
    geometry rescaling and materializing C pay off."""
    return WorkloadSpec([
        JobSpec("add_multiply", {"n1": n1, "n2": n2, "n3": 1}, seed=0,
                seeds={"D": 100 + i}, plan_exact=True, name=f"t{i}")
        for i in range(n_jobs)])


@pytest.fixture(scope="module")
def ctx():
    cfg = AdvisorConfig.from_spec(shared_workload(), CAP)
    return AdvisorContext(cfg)


class TestContext:
    def test_groups_by_template(self, ctx):
        groups = ctx.groups()
        assert len(groups) == 1
        assert len(groups[0]) == 4

    def test_best_plan_is_memoized(self, ctx):
        job = ctx.config.jobs[0]
        p1 = ctx.best_plan(job)
        p2 = ctx.best_plan(job)
        assert p1 is p2

    def test_baseline_covers_all_jobs(self, ctx):
        bytes_, seconds = ctx.baseline()
        job = ctx.config.jobs[0]
        plan = ctx.best_plan(job)
        assert bytes_ == 4 * (plan.cost.read_bytes + plan.cost.write_bytes)
        assert seconds == pytest.approx(4 * plan.cost.io_seconds)

    def test_confidence_reflects_plan_exactness(self, ctx):
        assert ctx.confidence_for(ctx.config.jobs) == 0.9
        loose = [j.replace(plan_exact=False) for j in ctx.config.jobs]
        assert ctx.confidence_for(loose) == 0.6


class TestBlockGeometry:
    def test_recommends_coarsening_and_predicts_savings(self, ctx):
        recs = BlockGeometryAnalyzer().analyze(ctx)
        assert len(recs) == 1
        rec = recs[0]
        assert rec.kind == "block_geometry"
        assert not rec.advisory
        assert rec.predicted_saved_bytes > 0
        (act,) = rec.actions
        assert act["type"] == "rescale"
        assert sorted(act["jobs"]) == ["t0", "t1", "t2", "t3"]
        assert act["axis"] in {"n1", "n2", "n3"}
        assert act["factor"] >= 2


class TestMaterialization:
    def test_shared_prefix_recommended_once(self, ctx):
        recs = MaterializationAnalyzer().analyze(ctx)
        assert len(recs) == 1
        rec = recs[0]
        assert rec.kind == "materialize"
        assert rec.predicted_saved_bytes > 0
        (act,) = rec.actions
        assert act == {"type": "materialize", "array": "C",
                       "jobs": ["t0", "t1", "t2", "t3"]}
        # 1 producer group feeds 4 jobs (A and B seeds all agree).
        assert "1 producer(s) feed 4 jobs" in rec.title

    def test_no_sharing_no_recommendation(self):
        # Distinct base seeds: every job would need its own producer.
        spec = WorkloadSpec([
            JobSpec("add_multiply", {"n1": 4, "n2": 4, "n3": 1}, seed=i,
                    plan_exact=True, name=f"t{i}") for i in range(3)])
        ctx = AdvisorContext(AdvisorConfig.from_spec(spec, CAP))
        assert MaterializationAnalyzer().analyze(ctx) == []

    def test_single_job_group_skipped(self):
        spec = WorkloadSpec([JobSpec("add_multiply",
                                     {"n1": 4, "n2": 4, "n3": 1}, name="t")])
        ctx = AdvisorContext(AdvisorConfig.from_spec(spec, CAP))
        assert MaterializationAnalyzer().analyze(ctx) == []


class TestMemoryBudget:
    def test_tight_cap_yields_concrete_raise(self):
        # A cap that admits some plan but prices out the cheapest ones.
        spec = shared_workload(n_jobs=2)
        ctx = AdvisorContext(AdvisorConfig.from_spec(spec, 120_000))
        recs = MemoryBudgetAnalyzer().analyze(ctx)
        if recs:  # concrete only when the uncapped plan is strictly cheaper
            rec = recs[0]
            assert rec.actions[0]["type"] == "memory_cap"
            assert rec.actions[0]["bytes"] > 120_000
            assert not rec.advisory
            assert rec.predicted_saved_bytes > 0

    def test_oversized_cap_advisory_from_profile(self):
        prof = WorkloadProfile()
        prof.admission = {"peak_admitted_bytes": CAP * 0.25,
                          "wait_seconds": 0.0}
        ctx = AdvisorContext(AdvisorConfig.from_spec(shared_workload(2), CAP),
                             profile=prof)
        recs = MemoryBudgetAnalyzer().analyze(ctx)
        assert len(recs) == 1
        assert recs[0].advisory
        assert recs[0].actions[0]["bytes"] < CAP
        assert recs[0].predicted_saved_bytes == 0


class TestPrefetch:
    def test_depth_zero_with_reads_suggests_enabling(self):
        prof = WorkloadProfile()
        prof.totals = {"read_bytes": 1 << 20}
        ctx = AdvisorContext(AdvisorConfig.from_spec(shared_workload(2), CAP),
                             profile=prof)
        recs = PrefetchAnalyzer().analyze(ctx)
        assert len(recs) == 1
        assert recs[0].advisory
        assert recs[0].actions[0] == {"type": "prefetch_depth", "depth": 2}

    def test_wait_bound_stager_deepens(self):
        prof = WorkloadProfile()
        prof.prefetch = {"stages": 10, "wait_ratio": 0.8}
        cfg = AdvisorConfig.from_spec(shared_workload(2), CAP,
                                      prefetch_depth=2)
        recs = PrefetchAnalyzer().analyze(AdvisorContext(cfg, profile=prof))
        assert len(recs) == 1
        assert recs[0].actions[0]["depth"] == 4

    def test_no_profile_no_advice(self):
        ctx = AdvisorContext(AdvisorConfig.from_spec(shared_workload(2), CAP))
        assert PrefetchAnalyzer().analyze(ctx) == []


class TestRanking:
    def test_rank_prefers_savings_then_concreteness(self):
        def rec(kind, saved, advisory=False, conf=0.5):
            return Recommendation(
                kind=kind, title=kind, detail="", actions=[],
                advisory=advisory, confidence=conf,
                predicted_before_bytes=100, predicted_after_bytes=100 - saved,
                predicted_before_seconds=1.0,
                predicted_after_seconds=1.0 - saved / 100)
        big = rec("a", 50)
        small = rec("b", 10)
        advisory = rec("c", 0, advisory=True)
        concrete_zero = rec("d", 0)
        order = rank([advisory, small, concrete_zero, big])
        assert order[0] is big
        assert order[1] is small
        assert order.index(concrete_zero) < order.index(advisory)

    def test_run_analyzers_counts_metrics(self, ctx):
        from repro.obs import metrics as obs_metrics
        reg = obs_metrics.MetricsRegistry()
        with obs_metrics.use(reg):
            recs = run_analyzers(ctx)
        assert recs  # geometry + materialization at least
        snap = reg.snapshot()
        total = sum(v for k, v in snap.items()
                    if k.startswith("repro_advisor_recommendations"))
        assert total == len(recs)
