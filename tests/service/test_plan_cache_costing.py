"""A disk-tier plan-cache hit reports the cost the search computed.

The saved entry records the ``block_bytes`` the search costed under and a
load re-costs under it; a fresh :class:`PlanCache` on the same directory
has no memory tier, so its hit is a disk load.
"""

import json

import pytest

from repro import analyze
from repro.optimizer import IOModel, evaluate_plan, optimize
from repro.persist import load_plan, save_plan
from repro.service import PlanCache, optimization_fingerprint
from repro.workloads import add_multiply_config


def cost_fields(cost) -> list:
    return [getattr(cost, f) for f in cost.__slots__]


@pytest.fixture(scope="module")
def cfg():
    return add_multiply_config()


@pytest.mark.parametrize("knobs", ["block_bytes"])
def test_disk_hit_costs_like_the_cold_search(cfg, tmp_path, knobs):
    kw = {knobs: cfg.paper_block_bytes}
    cold = optimize(cfg.program, cfg.params, plan_cache=PlanCache(tmp_path),
                    **kw)
    hit = optimize(cfg.program, cfg.params, plan_cache=PlanCache(tmp_path),
                   **kw)
    assert not cold.cache_hit and hit.cache_hit
    assert cost_fields(hit.best().cost) == cost_fields(cold.best().cost)


def test_entry_without_costing_knobs_loads_with_the_defaults(cfg, tmp_path):
    """Files written before the knobs were recorded stay readable."""
    result = optimize(cfg.program, cfg.params)
    best = result.best()
    path = tmp_path / "plan.json"
    save_plan(path, best, cfg.program, block_bytes=cfg.paper_block_bytes)
    payload = json.loads(path.read_text())
    del payload["costing"]
    path.write_text(json.dumps(payload))
    analysis = analyze(cfg.program, param_values=cfg.params)
    loaded = load_plan(path, cfg.program, analysis, cfg.params)
    default = evaluate_plan(cfg.program, cfg.params, best.schedule,
                            best.realized)
    assert cost_fields(loaded.cost) == cost_fields(default)


#: ``optimization_fingerprint`` of add_multiply_config() with no cap, the
#: default I/O model and no search bounds.  Entries on disk are named by
#: it, so the value is part of the cache's format.
ADD_MULTIPLY_FINGERPRINT = \
    "dff28ecd2887ee75e463476d1fbffee1f53e6ea9ba4d346c6fbec76b802e38ca"


@pytest.fixture(scope="module")
def warm(cfg, tmp_path_factory):
    """A cache directory holding the entry a cold ``optimize()`` stored."""
    root = tmp_path_factory.mktemp("plans")
    return root, optimize(cfg.program, cfg.params, plan_cache=PlanCache(root))


def test_fingerprint_is_pinned(cfg, warm):
    fp = optimization_fingerprint(
        cfg.program, cfg.params, None, IOModel(), max_set_size=None,
        max_candidates=None, dead_write_elimination=True, block_bytes=None)
    assert fp == ADD_MULTIPLY_FINGERPRINT
    assert warm[1].fingerprint == ADD_MULTIPLY_FINGERPRINT
    assert optimization_fingerprint(cfg.program, cfg.params) == fp


def test_load_with_the_old_knob_hits_what_optimize_stored(cfg, warm):
    """The call shape of a caller written while dead-write elimination was
    a knob: it names the knob, and still finds the entry."""
    root, cold = warm
    analysis = analyze(cfg.program, param_values=cfg.params)
    plan = PlanCache(root).load(cfg.program, cfg.params, None, None,
                                analysis=analysis, max_set_size=None,
                                max_candidates=None,
                                dead_write_elimination=True,
                                block_bytes=None)
    assert plan is not None
    assert plan.realized_labels == cold.best().realized_labels
    assert cost_fields(plan.cost) == cost_fields(cold.best().cost)


def test_saved_knob_off_is_ignored_on_load(cfg, tmp_path):
    """An entry written with ``dead_write_elimination: false`` re-costs as
    the engine runs it, with dead writes elided."""
    best = optimize(cfg.program, cfg.params).best()
    assert best.cost.elided_write_bytes > 0
    path = tmp_path / "plan.json"
    save_plan(path, best, cfg.program)
    payload = json.loads(path.read_text())
    payload["costing"]["dead_write_elimination"] = False
    path.write_text(json.dumps(payload))
    analysis = analyze(cfg.program, param_values=cfg.params)
    loaded = load_plan(path, cfg.program, analysis, cfg.params)
    assert cost_fields(loaded.cost) == cost_fields(best.cost)
