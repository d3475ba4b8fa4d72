"""The plan cache's in-memory tier: analysis-free hits, revalidated by stat.

``test_plan_cache.py`` is the spec the tier had to satisfy unedited (a
corrupted entry on the *same* object degrades to a miss; ``clear`` empties
everything; hit/miss/store counts keep their meaning).  This file pins what
is new: what a memory hit skips, that its plan is as good as the cold one
for a rebuilt program, when it must *not* be served, its bound, and that the
fingerprint it is keyed by covers every field the analysis reads.
"""

import json
import os
import shutil
import statistics
import sys
import threading
import time

import numpy as np
import pytest

import repro.optimizer.optimizer as optimizer_mod
import repro.persist as persist_mod
import repro.service.plan_cache as plan_cache_mod
from repro import build_executable_plan, optimize, reference_outputs
from repro.ir import Access, Array, Program, Statement
from repro.ir.program import AccessType
from repro.polyhedral import Polyhedron
from repro.service import ArrayService, PlanCache, optimization_fingerprint
from tests.fixtures import example1_program

P = {"n1": 2, "n2": 2, "n3": 1}
CAP = 4 << 20
KNOBS = dict(max_set_size=None, max_candidates=None,
             dead_write_elimination=True, block_bytes=None)


@pytest.fixture(scope="module")
def prog():
    return example1_program()


@pytest.fixture(scope="module")
def cold(prog, tmp_path_factory):
    """One cold search of Example 1 and the directory its entry went to."""
    root = tmp_path_factory.mktemp("plans")
    return optimize(prog, P, memory_cap_bytes=CAP,
                    plan_cache=PlanCache(root)), root


@pytest.fixture
def warm_dir(cold, tmp_path):
    """A private copy of the warm directory (tests below damage entries)."""
    return shutil.copytree(cold[1], tmp_path / "plans")


def _entry(cache, prog):
    return cache.path_for(optimization_fingerprint(prog, P, CAP, None,
                                                   **KNOBS))


def _spies(monkeypatch):
    """Counting wrappers over everything a memory hit must not call."""
    calls = {}

    def wrap(owner, name):
        real = getattr(owner, name)

        def spy(*a, **kw):
            calls[name] = calls.get(name, 0) + 1
            return real(*a, **kw)

        monkeypatch.setattr(owner, name, spy)

    # ``analyze`` and ``evaluate_plan`` are imported by name: wrap each
    # importing module's binding.
    wrap(optimizer_mod, "analyze")
    wrap(plan_cache_mod, "analyze")
    wrap(plan_cache_mod, "load_plan")
    wrap(optimizer_mod, "evaluate_plan")
    wrap(persist_mod, "evaluate_plan")
    wrap(json, "loads")
    return calls


def _lowered(program, plan):
    ep = build_executable_plan(program, P, plan)
    return ep.io_summary(), [(i.stmt.name, i.point) for i in ep.instances]


def _same_plan(program, a, b):
    assert a.realized_labels == b.realized_labels
    for f in a.cost.__slots__:
        assert getattr(a.cost, f) == getattr(b.cost, f), f
    assert _lowered(program, a) == _lowered(program, b)


class TestAnalysisFreeHit:
    def test_second_optimize_calls_nothing_it_cached(self, prog,
                                                     monkeypatch, tmp_path):
        cache = PlanCache(tmp_path)
        r1 = optimize(prog, P, memory_cap_bytes=CAP, plan_cache=cache)
        calls = _spies(monkeypatch)
        r2 = optimize(prog, P, memory_cap_bytes=CAP, plan_cache=cache)
        rebuilt = example1_program()
        r3 = optimize(rebuilt, P, memory_cap_bytes=CAP, plan_cache=cache)
        assert calls == {}
        for r, program in ((r2, prog), (r3, rebuilt)):
            assert r.cache_hit and r.analysis is not None
            assert r.stats.candidates_tested == 0
            assert r.fingerprint == r1.fingerprint == _entry(cache, prog).stem
            _same_plan(program, r1.best(CAP), r.best(CAP))
        assert (cache.hits, cache.memory_hits, cache.misses,
                cache.stores, cache.invalidations) == (2, 2, 1, 1, 0)

    def test_first_hit_in_a_process_still_recosts_from_disk(
            self, prog, cold, warm_dir, monkeypatch):
        """The disk tier is unchanged: a fresh object analyzes and re-costs
        once, then serves from memory."""
        cache = PlanCache(warm_dir)
        calls = _spies(monkeypatch)
        r1 = optimize(prog, P, memory_cap_bytes=CAP, plan_cache=cache)
        assert calls["analyze"] == 1 and calls["load_plan"] == 1
        assert calls["evaluate_plan"] == 1 and calls["loads"] >= 1
        assert (cache.hits, cache.memory_hits) == (1, 0)
        calls.clear()
        r2 = optimize(prog, P, memory_cap_bytes=CAP, plan_cache=cache)
        assert calls == {}
        assert (cache.hits, cache.memory_hits) == (2, 1)
        assert r2.best(CAP) is r1.best(CAP) and r2.analysis is r1.analysis
        _same_plan(prog, cold[0].best(CAP), r2.best(CAP))

    def test_load_serves_memory_whatever_analysis_is_passed(self, prog,
                                                            cold, warm_dir):
        cache = PlanCache(warm_dir)
        first = cache.load(prog, P, CAP, None, **KNOBS)
        again = cache.load(example1_program(), P, CAP, None,
                           analysis=cold[0].analysis, **KNOBS)
        assert again is first
        assert (cache.hits, cache.memory_hits) == (2, 1)

    def test_store_without_an_analysis_fills_disk_only(self, prog, cold,
                                                       tmp_path):
        cache = PlanCache(tmp_path)
        cache.store(prog, P, cold[0].best(CAP), CAP, None, **KNOBS)
        assert cache.load(prog, P, CAP, None, **KNOBS) is not None
        assert (cache.stores, cache.hits, cache.memory_hits) == (1, 1, 0)

    def test_warm_optimize_is_sub_millisecond(self, prog, tmp_path):
        cache = PlanCache(tmp_path)
        optimize(prog, P, memory_cap_bytes=CAP, plan_cache=cache)
        times = []
        for _ in range(50):
            t0 = time.perf_counter()
            optimize(prog, P, memory_cap_bytes=CAP, plan_cache=cache)
            times.append(time.perf_counter() - t0)
        # ~0.15 ms here; the disk tier's analyze + re-cost was ~150 ms.
        assert statistics.median(times) < 0.005


class TestServiceOnMemoryHit:
    def test_rebuilt_program_runs_right_and_plan_exact(self, prog, cold,
                                                       warm_dir, tmp_path):
        cache = PlanCache(warm_dir)
        rng = np.random.default_rng(7)
        with ArrayService(tmp_path / "svc", memory_cap_bytes=CAP, workers=1,
                          plan_cache=cache) as svc:
            for k in range(2):  # from disk, then from memory
                program = example1_program()
                inputs = {n: rng.standard_normal(
                    program.arrays[n].shape_elems(P)) for n in "ABD"}
                r = svc.run(program, P, inputs, plan_exact=True)
                assert r.cache_hit and cache.memory_hits == k
                expected = reference_outputs(program, P, inputs)
                assert set(r.outputs) == {"E"}
                assert np.allclose(r.outputs["E"], expected["E"])
                assert r.report.io.read_bytes == r.plan.cost.read_bytes
                assert r.report.io.write_bytes == r.plan.cost.write_bytes
                _same_plan(program, cold[0].best(CAP), r.plan)


class TestNoDirectory:
    def test_cacheless_service_plans_a_template_once(self, prog, cold,
                                                     tmp_path):
        rng = np.random.default_rng(3)
        with ArrayService(tmp_path, memory_cap_bytes=CAP, workers=1) as svc:
            cache = svc.plan_cache
            results = []
            for _ in range(2):
                program = example1_program()
                inputs = {n: rng.standard_normal(
                    program.arrays[n].shape_elems(P)) for n in "ABD"}
                r = svc.run(program, P, inputs)
                expected = reference_outputs(program, P, inputs)
                assert np.allclose(r.outputs["E"], expected["E"])
                results.append(r)
        assert cache.root is None
        assert [r.cache_hit for r in results] == [False, True]
        assert (cache.misses, cache.hits, cache.memory_hits,
                cache.stores, len(cache)) == (1, 1, 1, 1, 1)
        _same_plan(prog, cold[0].best(CAP), results[1].plan)

    def test_memory_and_structure_tiers_without_a_directory(self, prog,
                                                            cold):
        cache = PlanCache()
        assert optimize(prog, P, memory_cap_bytes=CAP,
                        plan_cache=cache).stats.candidates_tested > 0
        again = optimize(prog, P, memory_cap_bytes=CAP, plan_cache=cache)
        assert again.cache_hit
        _same_plan(prog, cold[0].best(CAP), again.best(CAP))
        coarse = example1_program(block_rows=120, block_cols=80)
        recosted = optimize(coarse, P, memory_cap_bytes=CAP,
                            plan_cache=cache)
        assert not recosted.cache_hit
        assert recosted.stats.candidates_tested == 0
        assert (cache.hits, cache.misses, cache.structure_hits,
                cache.stores) == (1, 2, 1, 2)
        assert cache.clear() == 2 and len(cache) == 0
        assert not optimize(prog, P, memory_cap_bytes=CAP,
                            plan_cache=cache).cache_hit


class TestConcurrentLoads:
    def test_8_threads_50_loads_one_plan(self, prog, warm_dir):
        cache = PlanCache(warm_dir)
        seen, errors = [], []

        def client():
            try:
                for _ in range(50):
                    seen.append(cache.load(prog, P, CAP, None, **KNOBS))
            except BaseException as err:  # surfaced below
                errors.append(err)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not errors and not any(t.is_alive() for t in threads)
        assert cache.hits == 400 and cache.misses == 0
        # At most one disk load per thread before the first one lands.
        assert cache.memory_hits >= 392
        assert len(seen) == 400 and len({id(p) for p in seen}) == 1


class TestRevalidation:
    """The entry file changes between two hits: the memory entry is dropped
    and the disk tier decides."""

    def _warm(self, warm_dir, prog):
        cache = PlanCache(warm_dir)
        assert cache.load(prog, P, CAP, None, **KNOBS) is not None
        assert cache.load(prog, P, CAP, None, **KNOBS) is not None
        assert (cache.hits, cache.memory_hits) == (2, 1)
        return cache, _entry(cache, prog)

    def test_unlinked_entry_is_a_miss(self, prog, warm_dir):
        cache, path = self._warm(warm_dir, prog)
        path.unlink()
        assert cache.load(prog, P, CAP, None, **KNOBS) is None
        assert (cache.invalidations, cache.misses, cache.hits) == (1, 1, 2)
        assert cache.load(prog, P, CAP, None, **KNOBS) is None
        assert (cache.invalidations, cache.misses) == (1, 2)

    def test_truncated_entry_is_a_miss(self, prog, warm_dir):
        cache, path = self._warm(warm_dir, prog)
        os.truncate(path, path.stat().st_size // 2)
        assert cache.load(prog, P, CAP, None, **KNOBS) is None
        assert (cache.invalidations, cache.misses, cache.hits) == (1, 1, 2)

    def test_replaced_entry_is_reloaded_from_disk(self, prog, warm_dir):
        cache, path = self._warm(warm_dir, prog)
        before = cache.load(prog, P, CAP, None, **KNOBS)
        tmp = path.with_suffix(".new")
        tmp.write_bytes(path.read_bytes())
        os.rename(tmp, path)  # same bytes, another inode
        after = cache.load(prog, P, CAP, None, **KNOBS)
        assert after is not None and after is not before
        assert (cache.invalidations, cache.misses) == (1, 0)
        assert (cache.hits, cache.memory_hits) == (4, 2)
        assert cache.load(prog, P, CAP, None, **KNOBS) is after
        assert (cache.hits, cache.memory_hits) == (5, 3)

    def test_own_store_is_not_an_invalidation(self, prog, tmp_path):
        cache = PlanCache(tmp_path)
        r = optimize(prog, P, memory_cap_bytes=CAP, plan_cache=cache)
        cache.insert(r.fingerprint, prog, r.best(CAP), r.analysis)
        assert optimize(prog, P, memory_cap_bytes=CAP,
                        plan_cache=cache).cache_hit
        assert (cache.stores, cache.memory_hits, cache.invalidations) \
            == (2, 1, 0)

    def test_clear_empties_memory_too(self, prog, warm_dir):
        cache, _ = self._warm(warm_dir, prog)
        assert cache.clear() == 1
        assert cache.load(prog, P, CAP, None, **KNOBS) is None
        assert cache.invalidations == 0 and cache.misses == 1


class TestLruBound:
    def test_evicted_fingerprint_reloads_from_disk(self, prog, cold,
                                                   tmp_path, monkeypatch):
        monkeypatch.setattr(plan_cache_mod, "MEMORY_ENTRIES", 2)
        cache = PlanCache(tmp_path)
        best, analysis = cold[0].best(CAP), cold[0].analysis
        # The same (valid) plan under three keys: max_candidates is part of
        # the fingerprint and irrelevant to a load.
        knobs = [dict(KNOBS, max_candidates=n) for n in (101, 102, 103)]
        for k in knobs:
            cache.insert(optimization_fingerprint(prog, P, CAP, None, **k),
                         prog, best, analysis)
        assert len(cache._memory) == 2 and len(cache) == 3
        assert cache.load(prog, P, CAP, None, **knobs[2]) is best
        assert cache.load(prog, P, CAP, None, **knobs[1]) is best
        assert cache.memory_hits == 2
        reloaded = cache.load(prog, P, CAP, None, **knobs[0])  # evicted
        assert reloaded is not None and reloaded is not best
        assert (cache.hits, cache.memory_hits, cache.invalidations) \
            == (3, 2, 0)
        _same_plan(prog, best, reloaded)
        # ...which in turn evicted the least recently used of the others.
        assert list(cache._memory) == [
            optimization_fingerprint(prog, P, CAP, None, **k)
            for k in (knobs[1], knobs[0])]


class TestFingerprintCoversTheIR:
    """A memory hit hands one Program's plan to another Program that hashes
    the same, so every field of the IR the analysis can read must be under
    the fingerprint, or be derived from fields that are."""

    SIGNED = "in _program_signature"
    FIELDS = {
        Program: {
            "name": SIGNED, "params": SIGNED, "arrays": SIGNED,
            "statements": SIGNED, "param_context": SIGNED,
        },
        Statement: {
            "name": SIGNED, "loop_vars": SIGNED, "domain": SIGNED,
            "accesses": SIGNED, "kernel": SIGNED, "kernel_args": SIGNED,
            "position": SIGNED,
            "_instances_cache": "memo of domain.bind(params).integer_points()",
        },
        Access: {
            "array": SIGNED, "type": SIGNED, "subscripts": SIGNED,
            "guard": SIGNED,
            "statement": "back-pointer set by the owning Statement",
            "micro": "0 for reads, 1 for the write: derived from type",
        },
        Array: {
            "name": SIGNED, "dims": SIGNED, "block_shape": SIGNED,
            "dtype_bytes": SIGNED, "kind": SIGNED,
        },
    }

    def test_every_slot_is_signed_or_explained(self):
        for cls, fields in self.FIELDS.items():
            assert set(cls.__slots__) == set(fields), (
                f"{cls.__name__} grew or lost a field: sign it in "
                f"plan_cache._program_signature or explain here why a plan "
                f"cannot depend on it")

    @staticmethod
    def _mutants():
        """One program per signed field, differing from Example 1 in it."""
        def mutate(edit):
            program = example1_program()
            edit(program)
            return program

        def setter(pick, field, value):
            return lambda p: setattr(pick(p), field, value)

        s1 = lambda p: p.statements[0]             # noqa: E731
        s2_read_e = lambda p: p.statements[1].accesses[-1]  # noqa: E731
        arr_c = lambda p: p.arrays["C"]            # noqa: E731
        space = example1_program().param_context.space
        return {
            (Program, "name"): mutate(setter(lambda p: p, "name", "other")),
            (Program, "params"): mutate(
                setter(lambda p: p, "params", ("n1", "n2", "n3", "n4"))),
            (Program, "arrays"): mutate(lambda p: p.arrays.pop("A")),
            (Program, "statements"): mutate(
                setter(lambda p: p, "statements",
                       example1_program().statements[::-1])),
            (Program, "param_context"): mutate(
                setter(lambda p: p, "param_context",
                       Polyhedron.universe(space).add_constraints(
                           ineqs=[[1, 0, 0, -1]]))),
            (Statement, "name"): mutate(setter(s1, "name", "s9")),
            (Statement, "loop_vars"): mutate(
                setter(s1, "loop_vars", ("k", "i"))),
            (Statement, "domain"): mutate(
                setter(s1, "domain", example1_program().statements[1].domain)),
            (Statement, "accesses"): mutate(
                setter(s1, "accesses", example1_program().statements[0]
                       .accesses[::-1])),
            (Statement, "kernel"): mutate(setter(s1, "kernel", "sub")),
            (Statement, "kernel_args"): mutate(
                setter(s1, "kernel_args", {"alpha": 2})),
            (Statement, "position"): mutate(setter(s1, "position", (5, 0, 0))),
            (Access, "array"): mutate(
                setter(s2_read_e, "array", example1_program().arrays["C"])),
            (Access, "type"): mutate(
                setter(s2_read_e, "type", AccessType.WRITE)),
            (Access, "subscripts"): mutate(
                setter(s2_read_e, "subscripts",
                       example1_program().statements[1].accesses[1]
                       .subscripts)),
            (Access, "guard"): mutate(setter(s2_read_e, "guard", ())),
            (Array, "name"): mutate(setter(arr_c, "name", "C2")),
            (Array, "dims"): mutate(
                setter(arr_c, "dims", example1_program().arrays["D"].dims)),
            (Array, "block_shape"): mutate(
                setter(arr_c, "block_shape", (30, 40))),
            (Array, "dtype_bytes"): mutate(setter(arr_c, "dtype_bytes", 4)),
            (Array, "kind"): mutate(
                setter(arr_c, "kind", example1_program().arrays["E"].kind)),
        }

    def test_every_signed_field_moves_the_fingerprint(self, prog):
        base = optimization_fingerprint(prog, P, CAP)
        mutants = self._mutants()
        signed = {(cls, f) for cls, fields in self.FIELDS.items()
                  for f, why in fields.items() if why is self.SIGNED}
        assert set(mutants) == signed
        for (cls, field), program in mutants.items():
            assert optimization_fingerprint(program, P, CAP) != base, \
                f"{cls.__name__}.{field} is not under the fingerprint"

    #: The structure tier's key signs every slot the fingerprint signs but
    #: these: only the costing reads the block geometry.
    GEOMETRY = {(Array, "block_shape"), (Array, "dtype_bytes")}

    def test_structure_key_signs_all_but_the_geometry(self, prog):
        key = plan_cache_mod.structure_key
        base_fp, base_key = optimization_fingerprint(prog, P, CAP), key(prog, P)
        for (cls, field), program in self._mutants().items():
            where = f"{cls.__name__}.{field}"
            assert optimization_fingerprint(program, P, CAP) != base_fp, where
            assert (key(program, P) != base_key) is \
                ((cls, field) not in self.GEOMETRY), where
