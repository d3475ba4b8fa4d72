"""A disk-tier plan-cache hit reports the cost the search computed.

The saved entry records the costing knobs the search ran with
(``block_bytes``, ``dead_write_elimination``) and a load re-costs under
them; a fresh :class:`PlanCache` on the same directory has no memory tier,
so its hit is a disk load.
"""

import json

import pytest

from repro import analyze
from repro.optimizer import evaluate_plan, optimize
from repro.persist import load_plan, save_plan
from repro.service import PlanCache
from repro.workloads import add_multiply_config


def cost_fields(cost) -> list:
    return [getattr(cost, f) for f in cost.__slots__]


@pytest.fixture(scope="module")
def cfg():
    return add_multiply_config()


@pytest.mark.parametrize("knobs", ["block_bytes", "no_dead_write_elimination",
                                   "both"])
def test_disk_hit_costs_like_the_cold_search(cfg, tmp_path, knobs):
    kw = {}
    if knobs in ("block_bytes", "both"):
        kw["block_bytes"] = cfg.paper_block_bytes
    if knobs in ("no_dead_write_elimination", "both"):
        kw["dead_write_elimination"] = False
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
