"""Self-tests of the e2e harness: ``pytest benchmarks/e2e/tests``.

Outside tier-1 (``testpaths = ["tests"]``).  The smoke runs shrink
``serve_pinned`` to 60-job epochs the way a low ``ulimit -n`` does, so the
file-descriptor guard is exercised on the way.
"""

import json
import re
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
sys.path[:0] = [str(E2E), str(ROOT / "src")]

import harness as H  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_pinned(trace: int, nofile: int, seed: int = 1):
    """One ``serve_pinned`` run of a single epoch under a descriptor limit."""
    def limit():
        resource.setrlimit(resource.RLIMIT_NOFILE, (nofile, nofile))

    return subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--workload", "serve_pinned",
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, preexec_fn=limit)


@pytest.fixture(scope="module")
def smoke():
    # (800 - 200 reserved) // 10 descriptors per job = 60 jobs per epoch.
    proc = run_pinned(trace=0, nofile=800)
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced_smoke():
    proc = run_pinned(trace=1, nofile=800)
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stdout.splitlines()[-1])


# -- the percentile rule ----------------------------------------------------------

@pytest.mark.parametrize("n, p, beyond", [
    (2400, 90.0, 240),   # serve_pinned: 8 epochs x 300
    (100, 90.0, 10),     # serve_cached: exactly ten beyond
    (80, 87.5, 10),      # too few for p90: the highest that keeps ten
    (20, 50.0, 10),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, p, beyond):
    samples = list(range(1, n + 1))
    got_p, value = H.tail_percentile(samples)
    assert got_p == pytest.approx(p)
    assert sum(1 for s in samples if s > value) == beyond


def test_tail_percentile_omits_the_tail_of_a_handful():
    p, value = H.tail_percentile([5.0, 1.0, 9.0, 3.0])
    assert (p, value) == (50.0, 4.0)


def test_stratified_counts_are_seed_free_and_exact():
    assert H.stratified_counts(100, [0.75, 0.225, 0.025]) == [75, 23, 2]
    for n in (2, 23, 75):
        counts = H.stratified_counts(n, H.zipf_weights(8))
        assert sum(counts) == n and counts == sorted(counts, reverse=True)


# -- the closed loop ----------------------------------------------------------------

def test_closed_loop_never_exceeds_its_clients():
    lock = threading.Lock()
    live = {"now": 0, "peak": 0}

    def call(job):
        with lock:
            live["now"] += 1
            live["peak"] = max(live["peak"], live["now"])
        time.sleep(0.002)
        with lock:
            live["now"] -= 1
        if job == 7:
            raise ValueError("a failed job is an outcome, not a crash")
        return job * 2

    loop = H.closed_loop(call, range(40), clients=2)
    assert live["peak"] == 2 and loop.max_in_flight == 2
    assert isinstance(loop.results[7], ValueError)
    assert [r for i, r in enumerate(loop.results) if i != 7] == \
        [2 * i for i in range(40) if i != 7]
    assert all(lat >= 0.002 for lat in loop.latencies)
    assert loop.window >= 40 * 0.002 / 2


# -- the descriptor guard -------------------------------------------------------------

def test_epoch_shrinks_to_the_descriptor_limit():
    assert H.epoch_jobs(20000, 300, shrink=True) == 300
    assert H.epoch_jobs(1024, 300, shrink=True) == 82
    with pytest.raises(SystemExit, match="ulimit -n"):
        H.epoch_jobs(400, 300, shrink=True)
    with pytest.raises(SystemExit, match="ulimit -n"):
        H.epoch_jobs(1024, 100, shrink=False)


def test_too_few_descriptors_fail_before_the_run():
    proc = run_pinned(trace=0, nofile=400)
    assert proc.returncode != 0
    assert "ulimit -n" in proc.stderr
    assert "correct" not in proc.stdout


# -- seeds ------------------------------------------------------------------------------

def test_same_seed_same_jobs_and_exact_counters(smoke):
    import numpy as np
    import workloads

    programs = {k: workloads.add_multiply_program(*dims)
                for k, dims in workloads.CLASSES.items()}
    (a, mix), (b, _), (c, _) = (workloads.cached_jobs(seed, programs, 100)
                                for seed in (5, 5, 6))
    assert mix == {"small": 75, "medium": 23, "large": 2}
    assert [(j.kind, j.dataset) for j in a] == [(j.kind, j.dataset) for j in b]
    assert all(np.array_equal(x.inputs["A"], y.inputs["A"])
               for x, y in zip(a, b))
    assert [(j.kind, j.dataset) for j in a] != [(j.kind, j.dataset) for j in c]
    # The composition of the mix does not depend on the seed.
    assert sorted(j.kind for j in a) == sorted(j.kind for j in c)

    again = json.loads(run_pinned(trace=0, nofile=800).stdout.splitlines()[-1])
    for exact in ("plan_io_ratio", "io_mb_per_job", "verified_share"):
        assert again["metrics"][exact] == smoke[1]["metrics"][exact]
    assert again["attempted"] == smoke[1]["attempted"]


# -- names, and every metric printed ------------------------------------------------------

def test_names_and_tables_agree_with_benchmark_json():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(H.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]} == H.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]} == H.PER_LAYER
    assert BENCHMARK["run_seconds"] == H.DEFAULT_SECONDS
    assert not [p.name for p in E2E.iterdir()
                if p.name.startswith(("bench_", "test_"))]


def test_smoke_run_prints_every_end_to_end_metric(smoke):
    proc, last = smoke
    assert last["correct"] and last["failed"] == 0
    # 60-job epoch + 20 warm-up jobs + the template's plan.
    assert last["attempted"] == 81
    assert list(last["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for m in BENCHMARK["end_to_end"]:
        cell = last["metrics"][m["name"]]
        assert cell["unit"] == m["unit"] and cell["value"] > 0
        assert re.search(rf"^\s+{re.escape(m['name'])}\s+[\d.]+ ", proc.stdout,
                         re.M)


def test_traced_run_prints_every_layer_metric_and_sums_up(traced_smoke):
    proc, last = traced_smoke
    assert last["correct"]
    assert list(last["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    m = {k: v["value"] for k, v in last["metrics"].items()}
    # The replay's stage spans account for its own total within 3 %.
    assert 0.97 <= m["bench.stage_coverage"] <= 1.0
    assert m["service.open_fds_per_job"] == 10
    assert m["storage.read_mb"] + m["storage.write_mb"] == pytest.approx(1.0624)
    assert m["analysis.analyze_s"] == 0 and m["plan_cache.hit_ratio"] == 0
    trace = json.loads((E2E / "results" / "trace_serve_pinned.json").read_text())
    assert trace["fields"] == ["name", "start", "end", "parent", "job"]
    jobs = [s for s in trace["spans"] if s[0] == "job"]
    # The replay is bounded by --seconds, with a floor of ten jobs.
    assert 10 <= len(jobs) <= 60 and all(s[3] == -1 for s in jobs)
