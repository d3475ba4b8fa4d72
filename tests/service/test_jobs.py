"""The one job description: the job-file parser, the per-job service
fields, and ``repro serve`` / the advisor submitting identical inputs."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.advisor import AdvisorConfig, run_workload
from repro.cli import main
from repro.exceptions import JobSpecError
from repro.service import ArrayService, JobSpec, WorkloadSpec, submit_job

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
P = {"n1": 2, "n2": 2, "n3": 1}
LINE = '{"program": "add_multiply", "params": {"n1": 2, "n2": 2, "n3": 1}'


class TestParser:
    def test_unknown_key_rejected_with_path_and_line(self, tmp_path):
        p = tmp_path / "jobs.jsonl"
        p.write_text("# header\n" + LINE + "}\n" + LINE + ', "bogus": 1}\n')
        with pytest.raises(JobSpecError,
                           match=r"jobs\.jsonl:3: unknown job key\(s\) "
                                 r"\['bogus'\]"):
            WorkloadSpec.from_jsonl(p)

    @pytest.mark.parametrize("key,value", [("program_obj", {"x": 1}),
                                           ("inputs_from", {"D": "w1"})])
    def test_runtime_only_fields_rejected(self, tmp_path, key, value):
        p = tmp_path / "jobs.jsonl"
        p.write_text(LINE + f', "{key}": {json.dumps(value)}, '
                            f'"timeout": 5}}\n')
        with pytest.raises(JobSpecError,
                           match=rf"jobs\.jsonl:1: unknown job key\(s\) "
                                 rf"\['{key}'\]"):
            WorkloadSpec.from_jsonl(p)

    def test_bad_value_rejected_with_path_and_line(self, tmp_path):
        p = tmp_path / "jobs.jsonl"
        p.write_text(LINE + ', "seeds": 5}\n')
        with pytest.raises(JobSpecError, match=r"jobs\.jsonl:1: "):
            WorkloadSpec.from_jsonl(p)

    def test_service_fields_round_trip(self, tmp_path):
        spec = WorkloadSpec([
            JobSpec("add_multiply", P, timeout=2.5, retries=3,
                    checkpoint=True, resume=True, name="a"),
            JobSpec("linreg", {"n": 2}),
        ])
        p = tmp_path / "jobs.jsonl"
        spec.to_jsonl(p)
        back = WorkloadSpec.from_jsonl(p)
        assert [j.to_dict() for j in back.jobs] == \
            [j.to_dict() for j in spec.jobs]
        a, b = back.jobs
        assert (a.timeout, a.retries, a.checkpoint, a.resume) == \
            (2.5, 3, True, True)
        assert (b.timeout, b.retries, b.checkpoint, b.resume) == \
            (None, None, False, False)


class _RecordingService:
    def submit(self, program, params, inputs, **kwargs):
        self.kwargs = kwargs


class TestSubmit:
    def test_service_fields_reach_submit(self):
        svc = _RecordingService()
        submit_job(svc, JobSpec("add_multiply", P, plan_exact=True,
                                memory_cap=1 << 20, timeout=2.5, retries=3,
                                checkpoint=True, resume=True, name="a"))
        assert svc.kwargs == {"name": "a", "memory_cap_bytes": 1 << 20,
                              "plan_exact": True, "checkpoint": True,
                              "resume": True, "timeout": 2.5, "retry": 3}

    def test_unset_timeout_and_retries_keep_the_service_defaults(self):
        svc = _RecordingService()
        submit_job(svc, JobSpec("add_multiply", P, name="a"))
        assert "timeout" not in svc.kwargs and "retry" not in svc.kwargs


class TestServe:
    def test_serve_runs_count_seeds_and_two_matmul(self, tmp_path, capsys):
        p = tmp_path / "jobs.jsonl"
        p.write_text(
            LINE + ', "seed": 1, "seeds": {"D": 5}, "count": 2, '
                   '"name": "am"}\n'
            '{"program": "two_matmul", "params": {"n1": 2, "n2": 2, '
            '"n3": 2, "n4": 1}, "args": {"a_shape": [6, 4], '
            '"b_shape": [4, 5], "d_shape": [4, 3]}, "seed": 2}\n')
        assert main(["serve", str(p), "--service-workers", "2", "--verify",
                     "--workdir", str(tmp_path / "w")]) == 0
        out = capsys.readouterr().out
        for name in ("am_r1", "am_r2", "w2"):
            line = next(ln for ln in out.splitlines()
                        if ln.startswith(f"job {name}:"))
            assert line.endswith("verified: True")
        assert "3/3 jobs completed" in out

    def test_spec_error_exits_with_path_and_line(self, tmp_path):
        p = tmp_path / "jobs.jsonl"
        p.write_text(LINE + ', "bogus": 1}\n')
        with pytest.raises(SystemExit, match=r"jobs\.jsonl:1: unknown"):
            main(["serve", str(p)])


def _record_inputs(monkeypatch) -> dict:
    """Wrap ``ArrayService.submit``: job name -> {array: SHA-256}."""
    seen = {}
    real = ArrayService.submit

    def recording(self, program, params, inputs, **kwargs):
        seen[kwargs["name"]] = {
            n: hashlib.sha256(a.tobytes()).hexdigest()
            for n, a in inputs.items()}
        return real(self, program, params, inputs, **kwargs)

    monkeypatch.setattr(ArrayService, "submit", recording)
    return seen


@pytest.mark.parametrize("example", ["service_jobs.jsonl",
                                     "advisor_workload.jsonl"])
def test_serve_and_advisor_submit_the_same_inputs(example, tmp_path,
                                                  monkeypatch, capsys):
    path = EXAMPLES / example
    plans = str(tmp_path / "plans")
    seen = _record_inputs(monkeypatch)
    assert main(["serve", str(path), "--service-workers", "2",
                 "--plan-cache", plans, "--workdir",
                 str(tmp_path / "serve")]) == 0
    served = dict(seen)
    seen.clear()
    config = AdvisorConfig.from_spec(WorkloadSpec.from_jsonl(path),
                                     memory_cap_bytes=8 << 20,
                                     plan_cache=plans)
    run_workload(config, tmp_path / "advise")
    assert len(served) == len(config.jobs)
    assert seen == served
    if example == "advisor_workload.jsonl":
        assert len({digests["D"] for digests in served.values()}) == 8
        assert len({digests["A"] for digests in served.values()}) == 1
