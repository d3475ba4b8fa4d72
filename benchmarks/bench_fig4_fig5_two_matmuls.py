"""Reproduction of Section 6.2: two matrix multiplications (C=AB, E=AD).

Regenerates Table 3 and Figures 4/5: the plan spaces of both size
configurations, the paper's four selected plans, and the headline
observation that the optimal plan flips between configurations (Plan 2 —
merged nests sharing the read of A — wins under Config A; Plan 3 — sharing
B and D instead — wins under Config B).
"""

import numpy as np
import pytest

from conftest import banner, save_artifact
from repro.report import plan_space_csv
from repro import run_program
from repro.engine import reference_outputs
from repro.optimizer import evaluate_plan
from repro.storage import make_disk
from repro.workloads import generate_inputs, two_matmul_config

# The paper's selected plans (Section 6.2).
PLAN1 = {"s1WC->s1RC", "s1WC->s1WC", "s2WE->s2RE", "s2WE->s2WE"}
PLAN2 = PLAN1 | {"s1RA->s2RA"}
PLAN3 = {"s1RA->s2RA", "s1RB->s1RB", "s2RD->s2RD"}


def _print_space(result, title):
    banner(title)
    print(f"{'plan':>4} {'mem(MB)':>9} {'I/O time(s)':>12}  realized")
    for plan in sorted(result.plans, key=lambda p: p.cost.io_seconds)[:12]:
        print(f"{plan.index:>4} {plan.cost.memory_bytes / 2**20:>9.1f} "
              f"{plan.cost.io_seconds:>12.1f}  "
              f"{', '.join(plan.realized_labels) or '-'}")
    print(f"   ... {len(result.plans)} plans total; search: {result.stats}")


def test_table3_sizes(fig4_result, fig5_result, benchmark):
    cfg_a, _ = fig4_result
    cfg_b, _ = fig5_result
    banner("Table 3: two matrix multiplications — matrix sizes")
    for cfg in (cfg_a, cfg_b):
        print(f"Config {cfg.name[-1]}:")
        for name in sorted(cfg.program.arrays):
            arr = cfg.program.arrays[name]
            nb = arr.num_blocks(cfg.params)
            print(f"  {name}: {nb[0]}x{nb[1]} blocks, "
                  f"{cfg.paper_total_gib(name):.1f}GiB")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # Paper totals: A 15.2 / B,D 9.2 / C,E 10.8 (config A);
    #               A 12.8 / B 8.4 / C 6.4 / D 10.0 / E 7.6 (config B).
    assert cfg_a.paper_total_gib("A") == pytest.approx(15.0, abs=0.3)
    assert cfg_a.paper_total_gib("B") == pytest.approx(9.4, abs=0.3)
    assert cfg_b.paper_total_gib("A") == pytest.approx(12.9, abs=0.3)
    assert cfg_b.paper_total_gib("D") == pytest.approx(10.0, abs=0.3)


def test_fig4_config_a(fig4_result, benchmark):
    cfg, result = fig4_result
    _print_space(result, "Figure 4(a): Config A plan space (predicted)")
    save_artifact("fig4a_plan_space.csv", plan_space_csv(result))
    benchmark.pedantic(lambda: result.best(), rounds=1, iterations=1)
    # Paper: 9 sharing opportunities; dozens of plans.
    assert len(result.analysis.opportunities) == 9
    assert len(result.plans) >= 30
    best = result.best()
    # Plan 2 (merged nests + shared A read) is optimal under Config A.
    assert set(best.realized_labels) == PLAN2
    # And it beats Plan 3 here.
    p2 = result.plan_for(sorted(PLAN2))
    p3 = result.plan_for(sorted(PLAN3))
    print(f"\nPlan2 io={p2.cost.io_seconds:.0f}s vs Plan3 io={p3.cost.io_seconds:.0f}s")
    assert p2.cost.io_seconds < p3.cost.io_seconds


def test_fig5_config_b_crossover(fig4_result, fig5_result, benchmark):
    cfg_b, result_b = fig5_result
    _print_space(result_b, "Figure 5(a): Config B plan space (predicted)")
    save_artifact("fig5a_plan_space.csv", plan_space_csv(result_b))
    benchmark.pedantic(lambda: result_b.best(), rounds=1, iterations=1)
    p2 = result_b.plan_for(sorted(PLAN2))
    p3 = result_b.plan_for(sorted(PLAN3))
    print(f"\nPlan2 io={p2.cost.io_seconds:.0f}s vs Plan3 io={p3.cost.io_seconds:.0f}s")
    # The paper's headline: the ranking flips — Plan 3 beats Plan 2 under B.
    assert p3.cost.io_seconds < p2.cost.io_seconds
    # And Plan 3 is (one of) the best plans overall under Config B.
    best = result_b.best()
    assert best.cost.io_seconds <= p3.cost.io_seconds
    assert best.cost.io_seconds < p2.cost.io_seconds


@pytest.mark.parametrize("which", ["A", "B"])
def test_fig45b_predicted_vs_actual(which, fig4_result, fig5_result, benchmark,
                                    tmp_path_factory):
    cfg, result = fig4_result if which == "A" else fig5_result
    banner(f"Figure {'4' if which == 'A' else '5'}(b): predicted vs actual "
           f"(selected plans, run scale)")
    inputs = generate_inputs(cfg)
    refs = reference_outputs(cfg.program, cfg.params, inputs)
    run_bytes = cfg.run_block_bytes()
    selected = [result.original_plan,
                result.plan_for(sorted(PLAN1)),
                result.plan_for(sorted(PLAN2)),
                result.plan_for(sorted(PLAN3))]

    def run_all():
        rows = []
        for tag, plan in enumerate(selected):
            pred = evaluate_plan(cfg.program, cfg.params, plan.schedule,
                                 plan.realized, io_model=result.io_model,
                                 block_bytes=run_bytes)
            td = tmp_path_factory.mktemp(f"fig45_{which}_{tag}")
            report, outputs = run_program(
                cfg.program, cfg.params, plan,
                make_disk(td, io_model=result.io_model), inputs)
            rows.append((tag, pred, report, outputs))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print(f"{'plan':>4} {'pred I/O(s)':>12} {'actual I/O(s)':>13} {'CPU(s)':>8}")
    for tag, pred, report, outputs in rows:
        print(f"{tag:>4} {pred.io_seconds:>12.3f} "
              f"{report.simulated_io_seconds:>13.3f} {report.cpu_seconds:>8.3f}")
        assert report.io.read_bytes == pred.read_bytes
        assert report.io.write_bytes == pred.write_bytes
        assert np.allclose(outputs["C"], refs["C"])
        assert np.allclose(outputs["E"], refs["E"])
