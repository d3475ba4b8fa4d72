"""The plan cache's structure tier behind a service: one program at three
block sizes is searched once and re-costed twice, and each job runs the
plan a cold search would have chosen."""

import numpy as np

import repro.optimizer.optimizer as optimizer_mod
from repro import optimize, reference_outputs
from repro.obs import metrics as obs_metrics
from repro.ops import add_multiply_program
from repro.service import ArrayService, PlanCache

P = {"n1": 2, "n2": 2, "n3": 1}
CAP = 4 << 20
GEOMETRIES = ((12, 8, 10), (30, 20, 25), (60, 40, 50))


def test_three_block_sizes_one_search(tmp_path, monkeypatch):
    searches = []
    search = optimizer_mod.search

    def counted(*args, **kwargs):
        searches.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(optimizer_mod, "search", counted)
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.use(registry):
        cache = PlanCache(tmp_path / "plans")
        rng = np.random.default_rng(3)
        with ArrayService(tmp_path / "svc", memory_cap_bytes=CAP, workers=1,
                          plan_cache=cache) as svc:
            for dims in GEOMETRIES:
                program = add_multiply_program(*dims)
                inputs = {n: rng.standard_normal(
                    program.arrays[n].shape_elems(P)) for n in "ABD"}
                r = svc.run(program, P, inputs, plan_exact=True)
                assert not r.cache_hit
                monkeypatch.setattr(optimizer_mod, "search", search)
                cold = optimize(program, P, memory_cap_bytes=CAP).best(CAP)
                monkeypatch.setattr(optimizer_mod, "search", counted)
                assert r.plan.realized_labels == cold.realized_labels
                assert r.plan.schedule.rows == cold.schedule.rows
                for f in cold.cost.__slots__:
                    assert getattr(r.plan.cost, f) == getattr(cold.cost, f)
                expected = reference_outputs(program, P, inputs)
                assert np.allclose(r.outputs["E"], expected["E"])
                assert r.report.io.read_bytes == r.plan.cost.read_bytes
                assert r.report.io.write_bytes == r.plan.cost.write_bytes
    assert len(searches) == 1
    assert (cache.misses, cache.structure_hits, cache.stores) == (3, 2, 3)
    series = {k: v for k, v in registry.snapshot().items()
              if k.startswith("repro_plan_cache_structure_hits{")}
    assert list(series.values()) == [2]
