"""Apply + verify: config rewriting, workload execution, the closed loop."""

import pytest

from repro.advisor import (AdvisorConfig, AdvisorContext, JobSpec,
                           Recommendation, WorkloadSpec,
                           apply_recommendations, measured_io_bytes,
                           run_analyzers, run_workload,
                           validate_recommendations)
from repro.exceptions import AdvisorError

CAP = 8 << 20


def shared_spec(n_jobs=4):
    return WorkloadSpec([
        JobSpec("add_multiply", {"n1": 4, "n2": 4, "n3": 1}, seed=0,
                seeds={"D": 100 + i}, plan_exact=True, name=f"t{i}")
        for i in range(n_jobs)])


def rec(actions, kind="block_geometry", advisory=False):
    return Recommendation(kind=kind, title="t", detail="", actions=actions,
                          advisory=advisory, predicted_before_bytes=100,
                          predicted_after_bytes=90,
                          predicted_before_seconds=1.0,
                          predicted_after_seconds=0.9)


class TestApply:
    def test_apply_is_pure(self):
        cfg = AdvisorConfig.from_spec(shared_spec(2), CAP)
        out = apply_recommendations(
            cfg, [rec([{"type": "memory_cap", "bytes": 123}],
                      kind="memory_budget")])
        assert out.memory_cap_bytes == 123
        assert cfg.memory_cap_bytes == CAP
        assert out is not cfg

    def test_rescale_rewrites_named_jobs(self):
        cfg = AdvisorConfig.from_spec(shared_spec(2), CAP)
        out = apply_recommendations(
            cfg, [rec([{"type": "rescale", "jobs": ["t0", "t1"],
                        "axis": "n1", "factor": 2}])])
        assert all(j.params["n1"] == 2 for j in out.jobs)
        assert all(j.args["block_rows"] == 120 for j in out.jobs)

    def test_rescale_unknown_job_raises(self):
        cfg = AdvisorConfig.from_spec(shared_spec(2), CAP)
        with pytest.raises(AdvisorError, match="unknown job"):
            apply_recommendations(
                cfg, [rec([{"type": "rescale", "jobs": ["nope"],
                            "axis": "n1", "factor": 2}])])

    def test_rescale_inapplicable_factor_raises(self):
        cfg = AdvisorConfig.from_spec(shared_spec(1), CAP)
        with pytest.raises(AdvisorError, match="not.*applicable"):
            apply_recommendations(
                cfg, [rec([{"type": "rescale", "jobs": ["t0"],
                            "axis": "n1", "factor": 3}])])

    def test_materialize_adds_shared_producer(self):
        cfg = AdvisorConfig.from_spec(shared_spec(3), CAP)
        out = apply_recommendations(
            cfg, [rec([{"type": "materialize", "array": "C",
                        "jobs": ["t0", "t1", "t2"]}], kind="materialize")])
        producers = [j for j in out.jobs if j.program_obj is not None
                     and not j.inputs_from]
        consumers = [j for j in out.jobs if j.inputs_from]
        assert len(producers) == 1  # A, B seeds agree across all three
        assert producers[0].name == "mat_C_1"
        assert len(consumers) == 3
        for j in consumers:
            assert j.inputs_from == {"C": "mat_C_1"}
            assert j.program_obj.arrays["C"].kind.value == "input"

    def test_materialize_splits_by_prefix_seed_groups(self):
        spec = WorkloadSpec(
            [JobSpec("add_multiply", {"n1": 4, "n2": 4, "n3": 1},
                     seed=s, plan_exact=True, name=f"t{i}")
             for i, s in enumerate([0, 0, 7])])
        cfg = AdvisorConfig.from_spec(spec, CAP)
        out = apply_recommendations(
            cfg, [rec([{"type": "materialize", "array": "C",
                        "jobs": ["t0", "t1", "t2"]}], kind="materialize")])
        producers = sorted(j.name for j in out.jobs
                           if j.program_obj is not None and not j.inputs_from)
        assert producers == ["mat_C_1", "mat_C_2"]

    def test_geometry_composes_with_materialization(self):
        cfg = AdvisorConfig.from_spec(shared_spec(2), CAP)
        out = apply_recommendations(cfg, [
            rec([{"type": "rescale", "jobs": ["t0", "t1"],
                  "axis": "n1", "factor": 2}]),
            rec([{"type": "materialize", "array": "C",
                  "jobs": ["t0", "t1"]}], kind="materialize"),
        ])
        # The split happened on the rescaled program.
        producer = next(j for j in out.jobs if j.program_obj is not None
                        and not j.inputs_from)
        assert producer.params["n1"] == 2
        assert producer.program_obj.arrays["A"].block_shape[0] == 120

    def test_service_knob_actions(self):
        cfg = AdvisorConfig.from_spec(shared_spec(1), CAP)
        out = apply_recommendations(cfg, [
            rec([{"type": "memory_cap", "bytes": 2 * CAP}],
                kind="memory_budget", advisory=True),
            rec([{"type": "prefetch_depth", "depth": 2}], kind="prefetch",
                advisory=True),
        ])
        assert out.memory_cap_bytes == 2 * CAP
        assert out.prefetch_depth == 2
        # DAF is the only store format: there is no layout action to apply.
        with pytest.raises(ValueError):
            rec([{"type": "store_format", "array": "C",
                  "format": "labtree"}], kind="layout", advisory=True)


class TestRunWorkload:
    def test_run_produces_attributed_profile(self, tmp_path):
        cfg = AdvisorConfig.from_spec(shared_spec(2), CAP)
        profile = run_workload(cfg, tmp_path)
        assert set(profile.jobs) == {"t0", "t1"}
        assert measured_io_bytes(profile) > 0
        assert all(jp.read_bytes > 0 for jp in profile.jobs.values())

    def test_materialized_run_matches_reference(self, tmp_path):
        """Producer outputs feed consumers; results must equal the
        unsplit run's outputs (correctness of the rewiring)."""
        import numpy as np

        from repro.advisor import generate_input
        from repro.engine import reference_outputs

        cfg = AdvisorConfig.from_spec(shared_spec(2), CAP)
        applied = apply_recommendations(
            cfg, [rec([{"type": "materialize", "array": "C",
                        "jobs": ["t0", "t1"]}], kind="materialize")])
        run_workload(applied, tmp_path / "mat")
        # Reference: the original (unsplit) program on the same inputs.
        job = cfg.jobs[0]
        prog = job.build_program()
        inputs = {n: generate_input(a, job.params, job.seed_for(n), n)
                  for n, a in prog.arrays.items() if a.kind.value == "input"}
        ref = reference_outputs(prog, job.params, inputs)
        # Re-run the applied pipeline in-process to grab outputs.
        from repro.service.jobs import submit_job as _submit
        from repro.service import ArrayService
        with ArrayService(tmp_path / "svc", memory_cap_bytes=CAP,
                          workers=1) as svc:
            producer = next(j for j in applied.jobs
                            if j.program_obj is not None)
            consumer = next(j for j in applied.jobs if j.inputs_from)
            produced = {producer.name: _submit(svc, producer, {})
                        .result().outputs}
            out = _submit(svc, consumer, produced).result().outputs
        np.testing.assert_allclose(out["E"], ref["E"], rtol=1e-10)


class TestValidate:
    def test_closed_loop_validates_and_reduces(self, tmp_path):
        cfg = AdvisorConfig.from_spec(shared_spec(4), CAP)
        recs = run_analyzers(AdvisorContext(cfg))
        concrete = [r for r in recs if not r.advisory]
        assert concrete, "expected geometry and/or materialization recs"
        summary = validate_recommendations(cfg, concrete, tmp_path)
        assert summary["baseline_bytes"] > 0
        for r in concrete:
            assert r.validated
            assert not r.mispredicted, \
                (r.title, r.validation_error)
        # The applied set must actually shrink measured I/O (the
        # acceptance lever; the CI job requires >= 15% on the fixture).
        assert summary["reduction"] is not None
        assert summary["reduction"] > 0.15

    def test_misprediction_is_flagged_not_hidden(self, tmp_path):
        cfg = AdvisorConfig.from_spec(shared_spec(2), CAP)
        bogus = Recommendation(
            kind="memory_budget", title="bogus", detail="",
            actions=[{"type": "memory_cap", "bytes": CAP}],
            predicted_before_bytes=10 ** 9,
            predicted_after_bytes=0,  # claims to save a GB; saves nothing
            predicted_before_seconds=1.0, predicted_after_seconds=0.0)
        summary = validate_recommendations(cfg, [bogus], tmp_path)
        assert bogus.validated
        assert bogus.mispredicted
        assert summary["recommendations"][0]["mispredicted"]
