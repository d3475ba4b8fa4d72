"""Cost-model validation: predicted-vs-actual joins, faults, tolerance."""

import numpy as np
import pytest

from repro.engine import run_program
from repro.obs import trace as obs_trace
from repro.obs.validate import (RESUME_STMT, CostValidation, ValidationRow,
                                actual_io_from_events, validate_cost)
from repro.optimizer import optimize
from repro.report import predicted_vs_actual_csv
from repro.storage import FaultInjector, FaultPolicy, RetryPolicy, make_disk
from tests.fixtures import example1_program

P = {"n1": 2, "n2": 2, "n3": 1}
BLOCK_BYTES = 6 * 4 * 8          # example1_program(6, 4) block payload


@pytest.fixture(autouse=True)
def no_ambient_obs():
    obs_trace.uninstall()
    yield
    obs_trace.uninstall()


@pytest.fixture(scope="module")
def prog():
    return example1_program(6, 4)


@pytest.fixture(scope="module")
def result(prog):
    return optimize(prog, P)


@pytest.fixture(scope="module")
def inputs(prog):
    rng = np.random.default_rng(3)
    return {n: rng.standard_normal(prog.arrays[n].shape_elems(P))
            for n in ("A", "B", "D")}


class TestFaultFreeAudit:
    def test_best_plan_validates_byte_exact(self, prog, result, inputs,
                                            tmp_path):
        report, outputs = run_program(prog, P, result.best(), tmp_path,
                                      inputs, validate=True)
        v = report.validation
        assert isinstance(v, CostValidation)
        assert v.passed
        assert v.tolerance == 0.0
        assert not v.failures()
        total = v.total
        assert total.predicted_read == total.actual_read == report.io.read_bytes
        assert total.predicted_write == total.actual_write == report.io.write_bytes
        truth = (inputs["A"] + inputs["B"]) @ inputs["D"]
        assert np.allclose(outputs["E"], truth)

    def test_row_scopes_cover_every_level(self, prog, result, inputs,
                                          tmp_path):
        report, _ = run_program(prog, P, result.best(), tmp_path, inputs,
                                validate=True)
        scopes = {r.scope for r in report.validation.rows}
        assert "total" in scopes
        assert any(s.startswith("array ") for s in scopes)
        assert any(" x " in s for s in scopes)

    def test_to_csv_and_text(self, prog, result, inputs, tmp_path):
        report, _ = run_program(prog, P, result.best(), tmp_path, inputs,
                                validate=True)
        csv = report.validation.to_csv()
        assert csv.startswith("scope,predicted_read_bytes,actual_read_bytes,"
                              "predicted_write_bytes,actual_write_bytes,ok\n")
        assert '"total"' in csv
        text = report.validation.to_text()
        assert "cost-model validation: PASS" in text

    def test_no_validation_without_flag(self, prog, result, inputs, tmp_path):
        report, _ = run_program(prog, P, result.best(), tmp_path, inputs)
        assert report.validation is None

    def test_ambient_tracer_reused_without_double_count(self, prog, result,
                                                        inputs,
                                                        tmp_path_factory):
        """Two validated runs on one installed tracer: each audit must see
        only its own exec.io events."""
        t = obs_trace.install(obs_trace.Tracer())
        for i in range(2):
            td = tmp_path_factory.mktemp(f"run{i}")
            report, _ = run_program(prog, P, result.best(), td, inputs,
                                    validate=True)
            assert report.validation.passed, f"run {i} double-counted"
        assert sum(1 for e in t.events if e.name == "run_program"
                   and e.ph == "B") == 2


class TestFaultedAudit:
    def test_checksum_healing_reconciles(self, prog, result, inputs,
                                         tmp_path):
        """Satellite (a): each healed checksum failure re-reads one block;
        the audit carries the counters that explain the read-byte excess."""
        inj = FaultInjector(5, [FaultPolicy(match="A.daf", op="read",
                                            corrupt=1.0, max_faults=1)])
        disk = make_disk(tmp_path, fault_injector=inj,
                         retry=RetryPolicy(5, backoff_base=0))
        report, outputs = run_program(prog, P, result.best(), disk, inputs,
                                      validate=True)
        assert report.io.checksum_failures == 1
        v = report.validation
        assert v.checksum_failures == report.io.checksum_failures
        assert v.retries == report.io.retries
        excess = v.total.actual_read - v.total.predicted_read
        assert excess == report.io.checksum_failures * BLOCK_BYTES
        assert v.total.actual_write == v.total.predicted_write
        # the healed run still computes the right answer
        truth = (inputs["A"] + inputs["B"]) @ inputs["D"]
        assert np.allclose(outputs["E"], truth)
        # ... and the figure-series CSV carries the durability columns
        csv = predicted_vs_actual_csv([
            ("best", v.predicted_io_seconds, v.actual_io_seconds, 0.1,
             report.io.retries, report.io.checksum_failures)])
        header, row = csv.strip().split("\n")
        assert header.endswith("retries,checksum_failures")
        assert row.endswith(f",{report.io.retries},1")

    def test_transient_faults_stay_byte_exact(self, prog, result, inputs,
                                              tmp_path):
        """Failed transient attempts transfer nothing counted, so the audit
        still passes byte-exact."""
        inj = FaultInjector(1, [FaultPolicy(transient=0.2)])
        disk = make_disk(tmp_path, fault_injector=inj,
                         retry=RetryPolicy(8, backoff_base=0))
        report, _ = run_program(prog, P, result.best(), disk, inputs,
                                validate=True)
        assert report.io.retries > 0
        assert report.validation.passed
        assert report.validation.retries == report.io.retries

    def test_tolerance_forgives_small_excess(self, prog, result, inputs,
                                             tmp_path):
        inj = FaultInjector(5, [FaultPolicy(match="A.daf", op="read",
                                            corrupt=1.0, max_faults=1)])
        disk = make_disk(tmp_path, fault_injector=inj,
                         retry=RetryPolicy(5, backoff_base=0))
        report, _ = run_program(prog, P, result.best(), disk, inputs,
                                validate=0.5)
        assert report.validation.tolerance == 0.5
        assert report.validation.passed


class TestJoinLogic:
    """validate_cost is duck-typed: drive it with a real plan + fake events."""

    @pytest.fixture()
    def exec_plan(self, prog, result):
        from repro.codegen import build_executable_plan
        return build_executable_plan(prog, P, result.best())

    def _events_matching(self, exec_plan):
        from repro.obs.validate import predicted_io_by_group
        evs = []
        for (stmt, array), (r, w) in predicted_io_by_group(exec_plan).items():
            if r:
                evs.append({"name": "exec.io", "args": {
                    "stmt": stmt, "array": array, "op": "read", "bytes": r}})
            if w:
                evs.append({"name": "exec.io", "args": {
                    "stmt": stmt, "array": array, "op": "write", "bytes": w}})
        return evs

    def test_dict_events_accepted(self, exec_plan):
        v = validate_cost(exec_plan, self._events_matching(exec_plan))
        assert v.passed

    def test_tampered_events_fail(self, exec_plan):
        evs = self._events_matching(exec_plan)
        evs[0]["args"]["bytes"] += 1
        v = validate_cost(exec_plan, evs)
        assert not v.passed
        assert v.failures()

    def test_resume_rows_reported_not_audited(self, exec_plan):
        evs = self._events_matching(exec_plan)
        evs.append({"name": "exec.io", "args": {
            "stmt": RESUME_STMT, "array": "A", "op": "read", "bytes": 999}})
        v = validate_cost(exec_plan, evs)
        assert v.passed                              # re-warm excluded
        assert len(v.extra_rows) == 1
        assert v.extra_rows[0].actual_read == 999
        assert "(not audited)" in v.to_text()

    def test_non_io_events_ignored(self, exec_plan):
        evs = self._events_matching(exec_plan)
        evs.append({"name": "pool.hit", "args": {"key": "x", "bytes": 12345}})
        assert validate_cost(exec_plan, evs).passed

    def test_io_model_headline_seconds(self, exec_plan):
        from repro.optimizer import IOModel
        v = validate_cost(exec_plan, self._events_matching(exec_plan),
                          io_model=IOModel())
        assert v.predicted_io_seconds == v.actual_io_seconds
        assert v.predicted_io_seconds > 0


class TestHelpers:
    def test_actual_io_groups_by_stmt_and_array(self):
        evs = [
            {"name": "exec.io", "args": {"stmt": "s1", "array": "A",
                                         "op": "read", "bytes": 10}},
            {"name": "exec.io", "args": {"stmt": "s1", "array": "A",
                                         "op": "read", "bytes": 5}},
            {"name": "exec.io", "args": {"stmt": "s1", "array": "C",
                                         "op": "write", "bytes": 7}},
        ]
        groups = actual_io_from_events(evs)
        assert groups == {("s1", "A"): [15, 0], ("s1", "C"): [0, 7]}

    def test_row_within_tolerance(self):
        row = ValidationRow("s", "A", 100, 104, 0, 0)
        assert not row.ok(0.0)
        assert row.ok(0.05)
