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

    def test_default_name_skips_names_a_line_uses(self, tmp_path):
        p = tmp_path / "jobs.jsonl"
        p.write_text('{"program": "linreg", "params": {"n": 2}, '
                     '"name": "w2"}\n'
                     '{"program": "linreg", "params": {"n": 2}}\n')
        names = [j.name for j in WorkloadSpec.from_jsonl(p).expanded()]
        assert len(set(names)) == 2 and names[0] == "w2"

    def test_default_names_unchanged_without_a_collision(self):
        spec = WorkloadSpec([JobSpec("linreg", {"n": 2}, name="w1"),
                             JobSpec("linreg", {"n": 2}, count=2),
                             JobSpec("linreg", {"n": 2})])
        assert [j.name for j in spec.expanded()] == \
            ["w1", "w2_r1", "w2_r2", "w3"]

    @pytest.mark.parametrize("second", ['"name": "a"', '"name": "b_r2"'])
    def test_duplicate_name_rejected_with_path_and_line(self, tmp_path,
                                                        second):
        p = tmp_path / "jobs.jsonl"
        p.write_text('{"program": "linreg", "params": {"n": 2}, '
                     '"name": "a"}\n'
                     '{"program": "linreg", "params": {"n": 2}, '
                     '"name": "b", "count": 2}\n\n'
                     f'{{"program": "linreg", "params": {{"n": 2}}, '
                     f'{second}}}\n')
        with pytest.raises(JobSpecError,
                           match=r"jobs\.jsonl:4: duplicate job name "
                                 r".* \(first at .*jobs\.jsonl:[12]\)"):
            WorkloadSpec.from_jsonl(p)


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

    def test_unset_timeout_and_retries_pass_as_none(self):
        svc = _RecordingService()
        submit_job(svc, JobSpec("add_multiply", P, name="a"))
        assert svc.kwargs["timeout"] is None and svc.kwargs["retry"] is None


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

    def test_zero_shards_exits_with_an_error(self, tmp_path):
        p = tmp_path / "jobs.jsonl"
        p.write_text(LINE + "}\n")
        with pytest.raises(SystemExit, match="shards must be >= 1"):
            main(["serve", str(p), "--shards", "0",
                  "--workdir", str(tmp_path / "w")])
        assert not (tmp_path / "w").exists()

    def test_spec_error_exits_with_path_and_line(self, tmp_path):
        p = tmp_path / "jobs.jsonl"
        p.write_text(LINE + ', "bogus": 1}\n')
        with pytest.raises(SystemExit, match=r"jobs\.jsonl:1: unknown"):
            main(["serve", str(p)])


class TestServeDefaults:
    """``--deadline`` / ``--job-retries`` fill the lines that set no
    ``timeout`` / ``retries``; a line's own value wins."""

    def _serve(self, tmp_path, lines, *flags) -> int:
        p = tmp_path / "jobs.jsonl"
        p.write_text("".join(LINE + f', "name": "{name}"{extra}}}\n'
                             for name, extra in lines))
        return main(["serve", str(p), "--service-workers", "1",
                     "--workdir", str(tmp_path / "w"), *flags])

    def test_deadline_fails_every_line_but_one_with_a_timeout(
            self, tmp_path, capsys):
        rc = self._serve(tmp_path, [("a", ""), ("b", ', "timeout": 60'),
                                    ("c", ', "seed": 1')],
                         "--deadline", "1e-9")
        out = capsys.readouterr().out
        verdicts = {ln.split(":")[0][4:]: ln for ln in out.splitlines()
                    if ln.startswith("job ")}
        assert rc == 1
        for name in ("a", "c"):
            assert "CANCELLED (DeadlineExceeded" in verdicts[name]
        assert verdicts["b"].startswith("job b: plan #")
        assert "1/3 jobs completed" in out

    def test_job_retries_fill_lines_without_retries(self, tmp_path,
                                                    monkeypatch, capsys):
        seen = {}
        real = ArrayService.submit

        def recording(self, program, params, inputs, **kwargs):
            seen[kwargs["name"]] = (kwargs["retry"], kwargs["timeout"])
            return real(self, program, params, inputs, **kwargs)

        monkeypatch.setattr(ArrayService, "submit", recording)
        rc = self._serve(tmp_path, [("a", ""), ("b", ', "retries": 1')],
                         "--job-retries", "3")
        assert rc == 0
        assert seen == {"a": (3, None), "b": (1, None)}


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
