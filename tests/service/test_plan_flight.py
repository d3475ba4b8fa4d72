"""Concurrent misses of one fingerprint run one search.

``optimize()`` takes the plan cache's per-fingerprint flight after
a miss and looks up again before it searches, so a second caller waits
for the first one's search and then hits what it stored.
"""

import sys
import threading
import time
from pathlib import Path

from repro import optimize
from repro.cli import main
from repro.optimizer import optimizer as optimizer_module
from repro.service import PlanCache
from tests.fixtures import example1_program

P = {"n1": 2, "n2": 2, "n3": 1}
CAP = 4 << 20
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _race(cache, n=2, cap=CAP):
    """Start ``n`` optimize calls together; returns (results, errors)."""
    barrier = threading.Barrier(n)
    results, errors = [], []

    def run():
        barrier.wait()
        try:
            results.append(optimize(example1_program(), P,
                                    memory_cap_bytes=cap, plan_cache=cache))
        except Exception as err:  # collected for the assertions
            errors.append(err)

    threads = [threading.Thread(target=run) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    return results, errors


def test_two_concurrent_misses_search_once(tmp_path):
    cache = PlanCache(tmp_path)
    results, errors = _race(cache)
    assert not errors
    cold = [r for r in results if not r.cache_hit]
    hit = [r for r in results if r.cache_hit]
    assert len(cold) == 1 and len(hit) == 1
    assert cold[0].stats.candidates_tested > 0
    assert (cache.misses, cache.hits, cache.memory_hits, cache.stores) == \
        (1, 1, 1, 1)
    assert hit[0].plans[0].index == cold[0].best(CAP).index
    assert cache._flights == {}


def test_waiter_searches_itself_when_the_leader_stores_nothing(tmp_path):
    # No plan fits a 1-byte cap, so the leader inserts nothing; the waiter
    # plans too, re-costing the lattice the leader's walk left behind.
    cache = PlanCache(tmp_path)
    results, errors = _race(cache, cap=1)
    assert not errors and len(results) == 2
    assert not any(r.cache_hit for r in results)
    assert sorted(r.stats.candidates_tested > 0 for r in results) == \
        [False, True]
    assert (cache.misses, cache.structure_hits, cache.hits, cache.stores) \
        == (2, 1, 0, 0)


def test_waiter_searches_itself_when_the_leader_fails(tmp_path, monkeypatch):
    real_search = optimizer_module.search
    calls = []

    def failing_first(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("leader failed")
        return real_search(*args, **kwargs)

    monkeypatch.setattr(optimizer_module, "search", failing_first)
    cache = PlanCache(tmp_path)
    results, errors = _race(cache)
    assert [type(e) for e in errors] == [RuntimeError]
    assert len(results) == 1 and not results[0].cache_hit
    assert results[0].stats.candidates_tested > 0
    assert (cache.misses, cache.stores) == (2, 1)
    assert cache._flights == {}


def test_a_hit_does_not_take_the_flight(tmp_path, monkeypatch):
    cache = PlanCache(tmp_path)
    optimize(example1_program(), P, memory_cap_bytes=CAP, plan_cache=cache)

    def no_flight(fingerprint):
        raise AssertionError("a hit took the flight")

    monkeypatch.setattr(cache, "flight", no_flight)
    assert optimize(example1_program(), P, memory_cap_bytes=CAP,
                    plan_cache=cache).cache_hit


def test_serve_example_plans_each_fingerprint_once(tmp_path, capsys):
    # q1/q2/q3 share one fingerprint and q4/q5 another (q1's program at a
    # second block size): one search, one re-costing, three memory hits.
    assert main(["serve", str(EXAMPLES / "service_jobs.jsonl"),
                 "--service-workers", "2", "--plan-cache",
                 str(tmp_path / "plans"), "--workdir", str(tmp_path / "w"),
                 "--verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("verified: True") == 5
    assert "plan cache: 3 hits (3 from memory), 2 misses (1 re-costed " \
        "from another block size)" in out


def test_three_concurrent_misses_search_once(tmp_path):
    cache = PlanCache(tmp_path)
    results, errors = _race(cache, n=3)
    assert not errors
    assert sorted(r.cache_hit for r in results) == [False, True, True]
    assert (cache.misses, cache.hits) == (1, 2)


def test_flight_excludes_per_fingerprint_under_thread_churn(tmp_path):
    # More threads than cores, a short switch interval, and a
    # read-yield-write update that a second holder would lose.
    cache = PlanCache(tmp_path)
    counts = {"a": 0, "b": 0, "c": 0}

    def churn():
        for i in range(150):
            key = "abc"[i % 3]
            with cache.flight(key):
                seen = counts[key]
                time.sleep(0)
                counts[key] = seen + 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert counts == {"a": 400, "b": 400, "c": 400}
    assert cache._flights == {}
