"""End-to-end fault tolerance: the fig4 two-matmuls workload under injected
faults, checkpointed execution, and crash/resume.

Acceptance criteria from the durability work: a run under a >=5% transient
fault policy completes bit-identical to the fault-free run with the retries
reported in ``IOStats``; a run killed mid-plan resumes via ``resume=True``
and produces identical outputs without re-executing completed instances.

Seeds come from ``REPRO_FAULT_SEEDS`` (fast CI: three seeds; nightly: 25).
"""

import os

import numpy as np
import pytest

from repro.codegen import build_executable_plan
from repro.engine import run_program
from repro.exceptions import ExecutionError, StorageError
from repro.optimizer import optimize
from repro.storage import FaultInjector, FaultPolicy, RetryPolicy, make_disk
from tests.fixtures import two_matmul_program

P = {"n1": 2, "n2": 2, "n3": 2, "n4": 2}


def _seeds():
    env = os.environ.get("REPRO_FAULT_SEEDS")
    if not env:
        return [0, 1, 2]
    return [int(s) for s in env.replace(",", " ").split()]


@pytest.fixture(scope="module")
def prog():
    return two_matmul_program(blk=8)


@pytest.fixture(scope="module")
def result(prog):
    return optimize(prog, P)


@pytest.fixture(scope="module")
def best(result):
    return result.best()


@pytest.fixture(scope="module")
def inputs(prog):
    rng = np.random.default_rng(11)
    return {n: rng.standard_normal(prog.arrays[n].shape_elems(P))
            for n in ("A", "B", "D")}


@pytest.fixture(scope="module")
def clean(prog, best, inputs, tmp_path_factory):
    """Fault-free baseline run of the best plan."""
    td = tmp_path_factory.mktemp("clean")
    return run_program(prog, P, best, td, inputs)


@pytest.fixture(scope="module")
def total_instances(prog, best):
    return len(build_executable_plan(prog, P, best).instances)


def _no_backoff(max_retries=6):
    return RetryPolicy(max_retries, backoff_base=0)


class TestFaultyRunsBitIdentical:
    @pytest.mark.parametrize("seed", _seeds())
    def test_transient_faults_absorbed_bit_exact(self, prog, best, inputs,
                                                 clean, tmp_path, seed):
        """>=5% transient faults on every counted op: same bits out, same
        counted bytes, every injected fault visible as a retry."""
        clean_report, clean_out = clean
        inj = FaultInjector(seed, [FaultPolicy(transient=0.1)])
        disk = make_disk(tmp_path, fault_injector=inj, retry=_no_backoff())
        report, outputs = run_program(prog, P, best, disk, inputs)
        for name in clean_out:
            assert np.array_equal(outputs[name], clean_out[name]), name
        assert all(f.kind == "transient" for f in inj.trace)
        assert report.io.retries == len(inj.trace)
        # Failed attempts transfer nothing, so counted I/O stays byte-exact.
        assert report.io.read_bytes == clean_report.io.read_bytes
        assert report.io.write_bytes == clean_report.io.write_bytes

    def test_high_rate_actually_exercises_retries(self, prog, best, inputs,
                                                  tmp_path):
        inj = FaultInjector(0, [FaultPolicy(transient=0.3)])
        disk = make_disk(tmp_path, fault_injector=inj,
                         retry=_no_backoff(10))
        report, _ = run_program(prog, P, best, disk, inputs)
        assert report.io.retries > 0
        assert inj.counts()["transient"] == report.io.retries

    def test_seed_as_faults_shorthand(self, prog, best, inputs, clean,
                                      tmp_path):
        """``FaultInjector.transient(<seed>)`` is the default 5%-transient
        policy."""
        _, clean_out = clean
        disk = make_disk(tmp_path, fault_injector=FaultInjector.transient(7),
                         retry=_no_backoff())
        report, outputs = run_program(prog, P, best, disk, inputs)
        for name in clean_out:
            assert np.array_equal(outputs[name], clean_out[name]), name


class TestCheckpointResume:
    def _kill_mid_plan(self, prog, best, inputs, workdir, after=3):
        """Run until the (after+1)-th counted write, which always fails."""
        inj = FaultInjector(0, [FaultPolicy(op="write", transient=1.0,
                                            after=after)])
        with pytest.raises(StorageError, match="failed after"):
            run_program(prog, P, best,
                        make_disk(workdir, fault_injector=inj,
                                  retry=RetryPolicy(0, backoff_base=0)),
                        inputs, checkpoint=True)

    def test_killed_mid_plan_resumes_identically(self, prog, best, inputs,
                                                 clean, total_instances,
                                                 tmp_path):
        _, clean_out = clean
        self._kill_mid_plan(prog, best, inputs, tmp_path)
        report, outputs = run_program(prog, P, best, tmp_path, inputs,
                                      checkpoint=True, resume=True)
        # Completed instances were not re-executed ...
        assert report.resumed_from >= 1
        assert report.instances < total_instances
        assert report.instances + report.resumed_from == total_instances
        # ... and the outputs are bit-identical to the uninterrupted run.
        for name in clean_out:
            assert np.array_equal(outputs[name], clean_out[name]), name

    def test_resume_of_completed_run_executes_nothing(self, prog, best,
                                                      inputs, clean,
                                                      total_instances,
                                                      tmp_path):
        _, clean_out = clean
        run_program(prog, P, best, tmp_path, inputs, checkpoint=True)
        report, outputs = run_program(prog, P, best, tmp_path, inputs,
                                      checkpoint=True, resume=True)
        assert report.resumed_from == total_instances
        assert report.instances == 0
        for name in clean_out:
            assert np.array_equal(outputs[name], clean_out[name]), name

    def test_resume_with_different_plan_rejected(self, prog, result, best,
                                                 inputs, tmp_path):
        """The journal is bound to one plan by fingerprint."""
        self._kill_mid_plan(prog, best, inputs, tmp_path)
        with pytest.raises(ExecutionError, match="fingerprint"):
            run_program(prog, P, result.original_plan, tmp_path, inputs,
                        checkpoint=True, resume=True)

    def test_resume_without_journal_is_a_fresh_run(self, prog, best, inputs,
                                                   clean, tmp_path):
        _, clean_out = clean
        report, outputs = run_program(prog, P, best, tmp_path, inputs,
                                      resume=True)
        assert report.resumed_from == 0
        for name in clean_out:
            assert np.array_equal(outputs[name], clean_out[name]), name


class TestKernelFailureCleanup:
    def test_mid_plan_kernel_error_leaves_clean_disk(self, prog, best, inputs,
                                                     clean, tmp_path):
        """A kernel blowing up mid-plan must not leak staging temps or undo
        records, and the checkpoint must allow a clean resume once the
        kernel is fixed."""
        import repro.engine.executor as executor
        _, clean_out = clean
        real = executor.run_kernel
        calls = {"n": 0}

        def flaky(name, reads, out_shape, args):
            calls["n"] += 1
            if calls["n"] == 6:
                raise ExecutionError("injected kernel failure (boom)")
            return real(name, reads, out_shape, args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(executor, "run_kernel", flaky)
            with pytest.raises(ExecutionError, match="boom"):
                run_program(prog, P, best, tmp_path, inputs, checkpoint=True)
        # No leaked temp files or undo records: the stores were closed and
        # every completed write committed cleanly.
        assert list(tmp_path.glob("*.tmp")) == []
        assert list(tmp_path.glob(".*.undo")) == []
        assert list(tmp_path.glob(".*.undo.tmp")) == []
        # Kernel fixed: resume completes from the checkpoint.
        report, outputs = run_program(prog, P, best, tmp_path, inputs,
                                      checkpoint=True, resume=True)
        assert report.resumed_from >= 1
        for name in clean_out:
            assert np.array_equal(outputs[name], clean_out[name]), name
