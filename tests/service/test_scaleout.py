"""Service parity with ``run_program``, its metrics, and a sharded disk.

* a service job produces outputs byte-identical to ``run_program``, with
  identical per-job I/O attribution on plan-exact jobs;
* an installed registry sees the service's disk and latency series;
* the service disk stripes across shards with unchanged results.
"""

import numpy as np
import pytest

from repro import (add_multiply_program, optimize, reference_outputs,
                   run_program)
from repro.exceptions import ServiceError, StorageError
from repro.obs import metrics as obs_metrics
from repro.ops import Pipeline
from repro.service import ArrayService, classify_error
from repro.optimizer import IOModel
from repro.optimizer.costing import MB
from repro.storage import FaultInjector, FaultPolicy, RetryPolicy, make_disk

P = {"n1": 2, "n2": 2, "n3": 1}
CAP = 4 << 20


@pytest.fixture(autouse=True)
def no_ambient_registry():
    obs_metrics.uninstall()
    yield
    obs_metrics.uninstall()


@pytest.fixture(scope="module")
def prog():
    return add_multiply_program()


@pytest.fixture(scope="module")
def best_plan(prog):
    return optimize(prog, P).best(CAP)


def _inputs(prog, seed):
    rng = np.random.default_rng(seed)
    return {n: rng.standard_normal(prog.arrays[n].shape_elems(P))
            for n in ("A", "B", "D")}


def _run(svc, prog, seeds, plan):
    futures = [svc.submit(prog, P, _inputs(prog, s), plan=plan)
               for s in seeds]
    return [f.result(timeout=180) for f in futures]


def _typed_program(dtype_bytes):
    """``add_multiply`` with INPUT arrays of the given element width."""
    p = Pipeline("add_multiply", params=("n1", "n2", "n3"))
    a, b, d = (p.input(n, blocks=blocks, block_shape=shape,
                       dtype_bytes=dtype_bytes)
               for n, blocks, shape in (("A", ("n1", "n2"), (60, 40)),
                                        ("B", ("n1", "n2"), (60, 40)),
                                        ("D", ("n2", "n3"), (40, 50))))
    p.mark_output(p.matmul(p.add(a, b, name="C"), d, name="E"))
    return p.build()


@pytest.fixture(scope="module")
def typed(prog, best_plan):
    """dtype_bytes -> (program, its best plan)."""
    prog4 = _typed_program(4)
    return {8: (prog, best_plan), 4: (prog4, optimize(prog4, P).best(CAP))}


def _run_via(runner, prog, plan, inputs, workdir):
    """One plan-exact job through ``run_program`` or the service;
    returns (outputs, counted I/O)."""
    if runner == "run_program":
        report, outputs = run_program(prog, P, plan, workdir, inputs,
                                      plan_exact=True, validate=True)
        assert report.validation.passed, report.validation.failures()
        return outputs, report.io
    with ArrayService(workdir, memory_cap_bytes=4 * CAP, workers=2) as svc:
        r = svc.submit(prog, P, inputs, plan=plan,
                       plan_exact=True).result(timeout=180)
    return r.outputs, r.report.io


class TestRunnerParity:
    @pytest.mark.parametrize("dtype_bytes", [8, 4])
    def test_outputs_and_attribution_match_threads(self, typed, tmp_path,
                                                   dtype_bytes):
        """``run_program`` and the service run a job through one function:
        same outputs, same counted I/O, and that I/O is the plan's — in
        either element width."""
        prog, plan = typed[dtype_bytes]
        runs = {}
        for seed in (0, 1):
            for runner in ("run_program", "service"):
                runs[runner, seed] = _run_via(
                    runner, prog, plan, _inputs(prog, seed),
                    tmp_path / f"{runner}{seed}")
        for (runner, seed), (outputs, io) in runs.items():
            base_outputs, base_io = runs["service", seed]
            assert outputs.keys() == base_outputs.keys()
            for name in outputs:
                assert np.array_equal(outputs[name], base_outputs[name])
            # Plan-exact attribution is runner-independent ...
            for f in ("read_bytes", "write_bytes", "read_ops", "write_ops"):
                assert getattr(io, f) == getattr(base_io, f), (runner, f)
            # ... and is what the optimizer costed.
            assert io.read_bytes == plan.cost.read_bytes
            assert io.write_bytes == plan.cost.write_bytes

    def test_missing_input_is_a_permanent_service_error(self, prog,
                                                        best_plan, tmp_path):
        inputs = _inputs(prog, 0)
        del inputs["B"]
        with ArrayService(tmp_path, memory_cap_bytes=4 * CAP,
                          workers=1) as svc:
            with pytest.raises(ServiceError) as err:
                svc.submit(prog, P, inputs, plan=best_plan,
                           retry=3).result(timeout=180)
            assert type(err.value) is ServiceError
            assert classify_error(err.value) != "transient"
            assert svc.stats.retries_attempted == 0
            assert svc.stats.jobs_failed == 1


class TestServiceMetrics:
    def test_job_series_land_on_installed_registry(self, prog, best_plan,
                                                   tmp_path):
        reg = obs_metrics.MetricsRegistry()
        obs_metrics.install(reg)
        with ArrayService(tmp_path, memory_cap_bytes=4 * CAP,
                          workers=1) as svc:
            _run(svc, prog, (0, 1), best_plan)
        snap = reg.snapshot()

        assert snap['repro_io_read_bytes{disk="disk1"}'] > 0
        counts = [v for k, v in snap.items()
                  if k.startswith("repro_service_job_seconds_count")]
        assert counts == [2]
        q = reg.quantiles()
        assert any(k.startswith("repro_service_job_seconds") for k in q)


class TestShardedServiceDisk:
    def test_results_unchanged_on_sharded_disk(self, prog, best_plan,
                                               tmp_path):
        with ArrayService(tmp_path / "s1", memory_cap_bytes=4 * CAP,
                          workers=2) as svc:
            base = _run(svc, prog, (8, 9), best_plan)
        with ArrayService(make_disk(tmp_path / "s4", 4),
                          memory_cap_bytes=4 * CAP, workers=2) as svc:
            sharded = _run(svc, prog, (8, 9), best_plan)
        for b, s in zip(base, sharded):
            for name in b.outputs:
                assert np.array_equal(s.outputs[name], b.outputs[name])
            assert s.report.io.read_bytes == b.report.io.read_bytes

    def test_job_seconds_histogram_observes_completions(self, prog,
                                                        best_plan,
                                                        tmp_path):
        with ArrayService(make_disk(tmp_path, 2), memory_cap_bytes=4 * CAP,
                          workers=2) as svc:
            _run(svc, prog, (0, 1, 2), best_plan)
            assert svc.stats.job_seconds.count == 3
            assert svc.stats.job_seconds.quantile(0.5) is not None


class TestGivenDisk:
    """A sharded, faulted disk with its own I/O model, built by
    ``make_disk``, is the storage config of the service and of
    ``run_program`` alike."""

    MODEL = IOModel(read_bw=40 * MB, write_bw=10 * MB)

    def _disk(self, root):
        inj = FaultInjector(5, [FaultPolicy(transient=0.2)])
        return make_disk(root, 2, io_model=self.MODEL, stripe_bytes=8192,
                         fault_injectors=[inj, None],
                         retry=RetryPolicy(max_retries=8, backoff_base=0))

    def test_service_runs_on_the_disk_it_is_handed(self, prog, tmp_path):
        disk = self._disk(tmp_path)
        inputs = _inputs(prog, 4)
        with ArrayService(disk, memory_cap_bytes=CAP, workers=2) as svc:
            assert svc.disk is disk and svc.io_model is disk.io_model
            assert svc.workdir == disk.root
            r = svc.run(prog, P, inputs, plan_exact=True)
        assert disk.atomic_writes
        expected = reference_outputs(prog, P, inputs)
        assert np.allclose(r.outputs["E"], expected["E"])
        assert r.report.io.read_bytes == r.plan.cost.read_bytes
        assert r.report.io.write_bytes == r.plan.cost.write_bytes
        assert disk.stats.retries > 0
        assert r.report.simulated_io_seconds == self.MODEL.seconds(
            r.plan.cost.read_bytes, r.plan.cost.write_bytes)
        # Planned under the disk's model, not the default one.
        _same_plan(optimize(prog, P, io_model=self.MODEL).best(CAP), r.plan)
        with pytest.raises(StorageError, match="closed"):
            disk.open("x")

    def test_run_program_runs_on_the_disk_it_is_handed(self, prog, tmp_path):
        disk = self._disk(tmp_path)
        inputs = _inputs(prog, 4)
        plan = optimize(prog, P, io_model=self.MODEL).best(CAP)
        report, out = run_program(prog, P, plan, disk, inputs, validate=True)
        expected = reference_outputs(prog, P, inputs)
        assert np.allclose(out["E"], expected["E"])
        assert report.io.read_bytes == plan.cost.read_bytes
        assert report.io.write_bytes == plan.cost.write_bytes
        assert report.io.retries > 0
        assert report.validation.passed
        assert report.simulated_io_seconds == self.MODEL.seconds(
            plan.cost.read_bytes, plan.cost.write_bytes)
        with pytest.raises(StorageError, match="closed"):
            disk.open("x")


def _same_plan(a, b):
    assert a.realized_labels == b.realized_labels
    for f in a.cost.__slots__:
        assert getattr(a.cost, f) == getattr(b.cost, f), f
