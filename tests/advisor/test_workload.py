"""Workload ingestion: specs, geometry rewrites, splits, profile round-trip."""

import json

import numpy as np
import pytest

from repro.advisor import (JobSpec, WorkloadProfile, WorkloadSpec,
                           generate_input, geometry_candidates, load_trace,
                           materialization_split, rescale_geometry)
from repro.advisor.apply import AdvisorConfig, run_workload
from repro.advisor.workload import load_metrics
from repro.exceptions import AdvisorError, JobSpecError
from repro.ops import add_multiply_program


class TestJobSpec:
    def test_args_are_canonicalized_to_builder_defaults(self):
        j = JobSpec("add_multiply", {"n1": 2, "n2": 2, "n3": 1})
        assert j.args == {"block_rows": 60, "block_cols": 40, "d_cols": 50}

    def test_unknown_builder_rejected(self):
        with pytest.raises(JobSpecError):
            JobSpec("nope", {"n": 1})

    def test_seed_for_falls_back_to_base_seed(self):
        j = JobSpec("add_multiply", {"n1": 2, "n2": 2, "n3": 1},
                    seed=3, seeds={"D": 9})
        assert j.seed_for("D") == 9
        assert j.seed_for("A") == 3

    def test_template_key_groups_equal_bindings(self):
        a = JobSpec("add_multiply", {"n1": 2, "n2": 2, "n3": 1}, seeds={"D": 1})
        b = JobSpec("add_multiply", {"n1": 2, "n2": 2, "n3": 1}, seeds={"D": 2})
        c = JobSpec("add_multiply", {"n1": 4, "n2": 2, "n3": 1})
        assert a.template_key() == b.template_key()
        assert a.template_key() != c.template_key()

    def test_template_key_distinguishes_derived_programs(self):
        j = JobSpec("add_multiply", {"n1": 2, "n2": 2, "n3": 1})
        prefix, residual = materialization_split(j.build_program(), "C")
        jp = j.replace(program_obj=prefix, args={})
        jr = j.replace(program_obj=residual, args={})
        assert jp.template_key() != jr.template_key()
        assert jp.template_key() != j.template_key()

    def test_program_obj_jobs_refuse_serialization(self):
        j = JobSpec("add_multiply", {"n1": 2, "n2": 2, "n3": 1})
        prefix, _ = materialization_split(j.build_program(), "C")
        with pytest.raises(JobSpecError):
            j.replace(program_obj=prefix, args={}).to_dict()


class TestWorkloadSpec:
    def test_jsonl_round_trip(self, tmp_path):
        spec = WorkloadSpec([
            JobSpec("add_multiply", {"n1": 2, "n2": 2, "n3": 1},
                    seeds={"D": 7}, plan_exact=True, name="t1"),
            JobSpec("linreg", {"n": 2}, count=3),
        ])
        p = tmp_path / "w.jsonl"
        spec.to_jsonl(p)
        back = WorkloadSpec.from_jsonl(p)
        assert [j.to_dict() for j in back.jobs] == \
            [j.to_dict() for j in spec.jobs]

    def test_from_jsonl_skips_comments_and_blanks(self, tmp_path):
        p = tmp_path / "w.jsonl"
        p.write_text('# header\n\n{"program": "linreg", "params": {"n": 2}}\n')
        assert len(WorkloadSpec.from_jsonl(p)) == 1

    def test_from_jsonl_reports_line_numbers(self, tmp_path):
        p = tmp_path / "w.jsonl"
        p.write_text('{"program": "linreg"}\n')
        with pytest.raises(JobSpecError, match="w.jsonl:1"):
            WorkloadSpec.from_jsonl(p)

    def test_expansion_unrolls_count_and_names_jobs(self):
        spec = WorkloadSpec([
            JobSpec("linreg", {"n": 2}, count=2, name="rep"),
            JobSpec("linreg", {"n": 2}),
        ])
        names = [j.name for j in spec.expanded()]
        assert names == ["rep_r1", "rep_r2", "w2"]
        assert all(j.count == 1 for j in spec.expanded())

    def test_expansion_rejects_duplicate_names(self):
        spec = WorkloadSpec([JobSpec("linreg", {"n": 2}, name="x"),
                             JobSpec("linreg", {"n": 2}, name="x")])
        with pytest.raises(JobSpecError, match="duplicate"):
            spec.expanded()


class TestGeometry:
    def test_rescale_halves_param_and_doubles_blocks(self):
        j = JobSpec("add_multiply", {"n1": 4, "n2": 4, "n3": 1})
        r = rescale_geometry(j, "n1", 2)
        assert r.params == {"n1": 2, "n2": 4, "n3": 1}
        assert r.args["block_rows"] == 120
        assert r.args["block_cols"] == 40  # untied axis untouched
        # Logical array sizes are preserved.
        a0 = j.build_program().arrays["A"]
        a1 = r.build_program().arrays["A"]
        assert a0.shape_elems(j.params) == a1.shape_elems(r.params)

    def test_rescale_refuses_indivisible_factor(self):
        j = JobSpec("add_multiply", {"n1": 4, "n2": 4, "n3": 1})
        assert rescale_geometry(j, "n1", 3) is None

    def test_candidates_are_labelled_and_divisor_compatible(self):
        j = JobSpec("add_multiply", {"n1": 4, "n2": 4, "n3": 1})
        labels = [label for label, _ in geometry_candidates(j)]
        assert "n1/2" in labels and "n1/4" in labels
        assert all("/3" not in lab for lab in labels)

    def test_two_matmul_rescale_keeps_shared_axis_consistent(self):
        j = JobSpec("two_matmul", {"n1": 2, "n2": 2, "n3": 2, "n4": 2},
                    args={"a_shape": [60, 40], "b_shape": [40, 50],
                          "d_shape": [40, 30]})
        r = rescale_geometry(j, "n3", 2)
        assert r.params["n3"] == 1
        # All three block dims tied to n3 scale together.
        assert r.args["a_shape"] == (60, 80)
        assert r.args["b_shape"] == (80, 50)
        assert r.args["d_shape"] == (80, 30)
        r.build_program().validate()


class TestMaterializationSplit:
    def test_split_rekinds_target_and_partitions_statements(self):
        prog = add_multiply_program()
        prefix, residual = materialization_split(prog, "C")
        assert prefix.arrays["C"].kind.value == "output"
        assert residual.arrays["C"].kind.value == "input"
        assert len(prefix.statements) + len(residual.statements) == \
            len(prog.statements)
        prefix.validate()
        residual.validate()

    def test_split_refuses_outputs_and_inputs(self):
        prog = add_multiply_program()
        assert materialization_split(prog, "E") is None
        assert materialization_split(prog, "A") is None


class TestGenerateInput:
    def test_deterministic_and_keyed_by_name(self):
        prog = add_multiply_program()
        params = {"n1": 2, "n2": 2, "n3": 1}
        a1 = generate_input(prog.arrays["A"], params, 0, "A")
        a2 = generate_input(prog.arrays["A"], params, 0, "A")
        b = generate_input(prog.arrays["B"], params, 0, "B")
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)  # same seed, different array
        assert a1.shape == prog.arrays["A"].shape_elems(params)


class TestTraceReaders:
    def test_load_trace_refuses_newer_schema(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text(json.dumps({"v": 99, "name": "x", "ph": "i"}) + "\n")
        with pytest.raises(AdvisorError, match="schema"):
            load_trace(p)

    def test_load_trace_accepts_legacy_unversioned_lines(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text(json.dumps({"name": "x", "cat": "c", "ph": "i",
                                 "ts": 0.0, "tid": 1, "depth": 0}) + "\n")
        assert len(load_trace(p)) == 1

    def test_load_metrics_refuses_newer_snapshot(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"v": 99, "kind": "repro.metrics.snapshot",
                                 "series": {}}))
        with pytest.raises(AdvisorError):
            load_metrics(p)


class TestProfileRoundTrip:
    def test_live_profile_equals_offline_profile(self, tmp_path):
        """Satellite (c): ``from_run`` and ``from_files`` agree field by
        field on the same run."""
        spec = WorkloadSpec([
            JobSpec("add_multiply", {"n1": 2, "n2": 2, "n3": 1}, seed=0,
                    seeds={"D": 1}, plan_exact=True, name="j1"),
            JobSpec("add_multiply", {"n1": 2, "n2": 2, "n3": 1}, seed=0,
                    seeds={"D": 2}, plan_exact=True, name="j2"),
        ])
        cfg = AdvisorConfig.from_spec(spec, memory_cap_bytes=8 << 20,
                                      workers=2)
        trace_p = tmp_path / "trace.jsonl"
        metrics_p = tmp_path / "metrics.json"
        live = run_workload(cfg, tmp_path / "run", trace_path=trace_p,
                            metrics_path=metrics_p)
        offline = WorkloadProfile.from_files(trace_p, metrics_p)
        for field in WorkloadProfile.FIELDS:
            assert getattr(live, field) == getattr(offline, field), field
        assert live == offline
        assert set(live.jobs) == {"j1", "j2"}
        assert live.totals["read_bytes"] > 0
