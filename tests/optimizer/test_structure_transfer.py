"""The plan cache's structure tier: a program searched at one block size is
re-costed, not re-searched, at another.

The Apriori walk reads no block geometry (``block_shape``/``dtype_bytes``
enter only the costing), so the feasible sets and schedules of one walk
serve every geometry of the same program, parameter binding and walk
bounds.  These tests pin that the transfer is exact — the plan list a cold
search returns, field for field and in order — over the golden corpus at
three geometries each, and that everything the walk does read keeps two
programs apart.
"""

import importlib.util
import pathlib
import sys
import threading

import pytest

from repro import optimize
from repro.obs import trace as obs_trace
from repro.service import PlanCache
from repro.service.plan_cache import structure_key
from repro.verify import verify_plan
from repro.workloads import (add_multiply_config, linreg_config,
                             two_matmul_config)
from tests.fixtures import example1_program

GOLDEN_DIR = (pathlib.Path(__file__).resolve().parents[1] / "fixtures"
              / "golden_plans")
_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", GOLDEN_DIR / "regenerate.py")
_regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_regen)

# Three geometries of each golden-corpus program, all at the golden case's
# parameters: the workload configs at 1/100, 1/20 and full paper block
# size; Example 1 with its blocks rebuilt.
GEOMETRIES = {
    "example1": [lambda r=r, c=c: example1_program(r, c)
                 for r, c in ((60, 40), (30, 20), (600, 400))],
    "add_multiply": [lambda s=s: add_multiply_config(s).program
                     for s in (100, 20, 1)],
    "two_matmul_A": [lambda s=s: two_matmul_config("A", s).program
                     for s in (100, 20, 1)],
    "two_matmul_B": [lambda s=s: two_matmul_config("B", s).program
                     for s in (100, 20, 1)],
    "linreg": [lambda s=s: linreg_config(s).program for s in (100, 20, 1)],
}

CASES = [
    pytest.param("example1"),
    pytest.param("add_multiply"),
    pytest.param("two_matmul_B"),
    pytest.param("two_matmul_A", marks=pytest.mark.slow),
    pytest.param("linreg", marks=pytest.mark.slow),
]


def _walk_knobs(name):
    """The golden case's parameters and walk bounds; ``block_bytes`` is
    dropped so that each geometry is costed at its own block size."""
    _, params, knobs = _regen.build_case(name)
    knobs.pop("block_bytes", None)
    return params, knobs


def _plan_row(plan):
    return (plan.index, sorted(plan.realized_labels), plan.schedule.rows,
            [getattr(plan.cost, f) for f in plan.cost.__slots__])


def _plan_rows(result):
    return [_plan_row(p) for p in result.plans]


def _caps(result):
    mems = sorted({p.cost.memory_bytes for p in result.plans})
    return (None, mems[len(mems) // 2], mems[0])


@pytest.fixture(scope="module", params=CASES)
def transfer(request, tmp_path_factory):
    """``(name, params, [(program, transferred result, cold result)])``:
    the first geometry searched cold into a fresh cache, the others
    transferred from it, each beside a cache-free cold search."""
    name = request.param
    params, knobs = _walk_knobs(name)
    cache = PlanCache(tmp_path_factory.mktemp("plans"))
    runs = []
    for k, build in enumerate(GEOMETRIES[name]):
        program = build()
        got = optimize(program, params, plan_cache=cache, **knobs)
        assert cache.structure_hits == k
        cold = got if k == 0 else optimize(program, params, **knobs)
        runs.append((program, got, cold))
    return name, params, runs


class TestExactTransfer:
    def test_geometries_really_differ(self, transfer):
        _, _, runs = transfer
        costs = {tuple(p.cost.io_seconds for p in cold.plans)
                 for _, _, cold in runs}
        assert len(costs) == len(runs)

    def test_plan_list_equals_a_cold_search(self, transfer):
        _, _, runs = transfer
        for program, got, cold in runs[1:]:
            assert not got.cache_hit
            assert got.stats.candidates_tested == 0
            assert cold.stats.candidates_tested > 0
            assert got.analysis.program is program
            assert _plan_rows(got) == _plan_rows(cold)

    def test_best_under_three_caps_is_identical_and_verified(self,
                                                             transfer):
        _, params, runs = transfer
        for program, got, cold in runs[1:]:
            for cap in _caps(cold):
                best = got.best(cap)
                assert _plan_row(best) == _plan_row(cold.best(cap))
                verify_plan(program, params, best, got.analysis)


P = {"n1": 3, "n2": 2, "n3": 1}


@pytest.fixture
def warm(tmp_path):
    """A cache holding Example 1's walk, searched at its default blocks."""
    cache = PlanCache(tmp_path)
    optimize(example1_program(), P, plan_cache=cache)
    assert len(cache._lattices) == 1 and cache.structure_hits == 0
    return cache


def _searched(result):
    return result.stats.candidates_tested > 0


class TestWhatMisses:
    def test_other_geometry_hits(self, warm):
        r = optimize(example1_program(30, 20), P, plan_cache=warm)
        assert not _searched(r) and warm.structure_hits == 1

    @pytest.mark.parametrize("params", [
        {"n1": 4, "n2": 2, "n3": 1}, {"n1": 3, "n2": 3, "n3": 1}])
    def test_changed_binding_misses(self, warm, params):
        r = optimize(example1_program(30, 20), params, plan_cache=warm)
        assert _searched(r) and warm.structure_hits == 0

    @pytest.mark.parametrize("knobs", [
        dict(max_set_size=1), dict(max_candidates=2)])
    def test_changed_walk_bounds_miss(self, warm, knobs):
        r = optimize(example1_program(30, 20), P, plan_cache=warm, **knobs)
        assert _searched(r) and warm.structure_hits == 0

    def test_changed_access_misses(self, warm):
        program = example1_program(30, 20)
        program.statements[1].accesses[-1].guard = ()  # read E at k = 0 too
        assert structure_key(program, P) != structure_key(
            example1_program(30, 20), P)
        r = optimize(program, P, plan_cache=warm)
        assert _searched(r) and warm.structure_hits == 0

    def test_changed_kernel_misses(self, warm):
        program = example1_program(30, 20)
        program.statements[0].kernel = "sub"
        r = optimize(program, P, plan_cache=warm)
        assert _searched(r) and warm.structure_hits == 0

    def test_costing_knobs_and_cap_do_not_miss(self, warm):
        r = optimize(example1_program(30, 20), P, memory_cap_bytes=1 << 30,
                     block_bytes={"A": 8}, plan_cache=warm)
        assert not _searched(r) and warm.structure_hits == 1
        cold = optimize(example1_program(30, 20), P, block_bytes={"A": 8})
        assert _plan_rows(r) == _plan_rows(cold)

    def test_changed_opportunities_search_cold_and_replace(self, warm):
        (key, (labels, found)), = warm._lattices.items()
        warm.keep_lattice(key, labels[::-1], found)
        r = optimize(example1_program(30, 20), P, plan_cache=warm)
        assert _searched(r) and warm.structure_hits == 0
        assert warm._lattices[key][0] == labels
        assert not _searched(optimize(example1_program(90, 60), P,
                                      plan_cache=warm))


class TestPrunedWalks:
    def test_prune_neither_fills_nor_reads(self, tmp_path):
        cache = PlanCache(tmp_path)
        r = optimize(example1_program(), P, plan_cache=cache, prune=True)
        assert _searched(r) and not cache._lattices
        optimize(example1_program(30, 20), P, plan_cache=cache)
        assert len(cache._lattices) == 1
        r = optimize(example1_program(90, 60), P, plan_cache=cache,
                     prune=True)
        assert _searched(r) and cache.structure_hits == 0


class TestFillers:
    def test_process_pool_fills_the_tier(self, tmp_path):
        cache = PlanCache(tmp_path)
        optimize(example1_program(), P, plan_cache=cache, workers=2)
        r = optimize(example1_program(30, 20), P, plan_cache=cache)
        assert not _searched(r) and cache.structure_hits == 1
        assert _plan_rows(r) == _plan_rows(
            optimize(example1_program(30, 20), P))

    def test_threads_filling_one_key_leave_one_entry(self, tmp_path):
        """Four threads look the key up before any of them stores (a
        barrier holds the lookups), so all four search and all four store
        under one key."""
        sizes = ((60, 40), (30, 20), (90, 60), (120, 80))
        cache = PlanCache(tmp_path)
        barrier = threading.Barrier(len(sizes), timeout=120)
        lookup = cache.lattice

        def held_lookup(key, labels):
            barrier.wait()
            return lookup(key, labels)

        cache.lattice = held_lookup
        results, errors = [], []

        def fill(program):
            try:
                results.append(optimize(program, P, plan_cache=cache))
            except BaseException as err:  # surfaced below
                errors.append(err)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=fill, args=(example1_program(
                r, c),)) for r, c in sizes]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(old)
        del cache.lattice
        assert not errors and not any(t.is_alive() for t in threads)
        assert len(results) == len(sizes)
        assert all(_searched(r) for r in results)
        assert len(cache._lattices) == 1 and cache.structure_hits == 0
        r = optimize(example1_program(600, 400), P, plan_cache=cache)
        assert not _searched(r) and cache.structure_hits == 1
        assert _plan_rows(r) == _plan_rows(
            optimize(example1_program(600, 400), P))


class TestTrace:
    def test_optimize_span_carries_structure_hit(self, warm):
        tracer = obs_trace.Tracer()
        with obs_trace.use(tracer):
            optimize(example1_program(30, 20), P, plan_cache=warm)
            optimize(example1_program(30, 20), P, plan_cache=warm)
        ends = [e.args or {} for e in tracer.events
                if e.name == "optimize" and e.ph == "E"]
        assert ends[0]["structure_hit"] is True
        assert "structure_hit" not in ends[1]  # a memory-tier hit
        assert any(e.name == "optimize.recost" for e in tracer.events)


class TestDamagedCache:
    def test_entry_that_fails_to_load_empties_the_tier(self, warm):
        (path,) = warm.root.glob("*.json")
        path.write_text("{not json")
        r = optimize(example1_program(), P, plan_cache=warm)
        assert _searched(r) and warm.structure_hits == 0
        assert len(warm._lattices) == 1  # refilled by that search
