"""Reproduction of Section 6.1: matrix addition + multiplication.

Regenerates, at the paper's exact Table-2 geometry:

* Table 2   — array geometries (sizes printed in GiB as the paper reports);
* Figure 3(a) — the plan space (memory footprint vs predicted I/O time),
  including the clubsuit big-block variant of Plan 0;
* Figure 3(b) — predicted vs actual I/O per plan (actual measured by
  executing every plan at run scale and extrapolating bytes linearly);
* the Matlab / SciDB / manual-best comparison of the section's text.
"""

import numpy as np
import pytest

from conftest import banner, save_artifact
from repro.report import plan_space_csv, predicted_vs_actual_csv
from repro import run_program
from repro.baselines import manual_best, matlab_like, scidb_like
from repro.engine import reference_outputs
from repro.optimizer import evaluate_plan
from repro.storage import make_disk
from repro.workloads import add_multiply_config, generate_inputs

PAPER_BEST_SET = {"s1WC->s2RC", "s2WE->s2RE", "s2WE->s2WE"}
PAPER_ORIGINAL_IO_S = 2394.0
PAPER_BEST_IO_S = 836.0


def test_table2_sizes(fig3_result, benchmark):
    cfg, _ = fig3_result
    banner("Table 2: matrix addition and multiplication — matrix sizes")
    rows = [("A, B, C", "A"), ("D", "D"), ("E", "E")]
    print(f"{'Matrix':>8} {'#Blocks':>9} {'Total size':>12}")
    for label, name in rows:
        arr = cfg.program.arrays[name]
        nb = arr.num_blocks(cfg.params)
        print(f"{label:>8} {f'{nb[0]}x{nb[1]}':>9} {cfg.paper_total_gib(name):>9.1f}GiB")
    benchmark.pedantic(lambda: cfg.paper_total_gib("A"), rounds=1, iterations=1)
    # Paper: 25.6GB / 1.8GB / 2.7GB.
    assert cfg.paper_total_gib("A") == pytest.approx(25.7, abs=0.2)
    assert cfg.paper_total_gib("D") == pytest.approx(1.8, abs=0.1)
    assert cfg.paper_total_gib("E") == pytest.approx(2.7, abs=0.1)


def test_fig3a_plan_space(fig3_result, benchmark):
    cfg, result = fig3_result
    banner("Figure 3(a): plan space (predicted)")
    print(f"{'plan':>4} {'mem(MB)':>9} {'I/O time(s)':>12}  realized")
    for plan in sorted(result.plans, key=lambda p: p.cost.io_seconds):
        print(f"{plan.index:>4} {plan.cost.memory_bytes / 2**20:>9.1f} "
              f"{plan.cost.io_seconds:>12.1f}  {', '.join(plan.realized_labels) or '-'}")
    benchmark.pedantic(lambda: result.best(), rounds=1, iterations=1)
    save_artifact("fig3a_plan_space.csv", plan_space_csv(result))

    # Paper: 8 legal plans (ours finds the same lattice + 2 extra feasible
    # combinations); exactly 3 distinct memory footprints; best plan realizes
    # the paper's Plan-7 set; ~2.9x I/O improvement.
    assert len(result.plans) >= 8
    assert len({p.cost.memory_bytes for p in result.plans}) == 3
    best = result.best()
    assert set(best.realized_labels) == PAPER_BEST_SET
    ratio = result.original_plan.cost.io_seconds / best.cost.io_seconds
    paper_ratio = PAPER_ORIGINAL_IO_S / PAPER_BEST_IO_S
    print(f"\nI/O improvement: {ratio:.2f}x (paper: {paper_ratio:.2f}x)")
    assert ratio == pytest.approx(paper_ratio, rel=0.15)
    # Absolute predicted seconds are produced by the same linear model with
    # the paper's bandwidths; they should land near the paper's numbers.
    assert result.original_plan.cost.io_seconds == pytest.approx(
        PAPER_ORIGINAL_IO_S, rel=0.08)
    assert best.cost.io_seconds == pytest.approx(PAPER_BEST_IO_S, rel=0.08)


def test_fig3a_clubsuit_bigger_blocks(fig3_result, benchmark):
    """The clubsuit point: Plan 0 with 9000-row blocks for A, B, C, E."""
    cfg, result = fig3_result
    grow = 9000 / 6000
    big = {n: (int(b * grow) if n in ("A", "B", "C", "E") else b)
           for n, b in cfg.paper_block_bytes.items()}
    club = evaluate_plan(cfg.program, cfg.params, result.original_plan.schedule,
                         [], io_model=result.io_model, block_bytes=big)
    best = result.best()
    banner("Figure 3(a) clubsuit: bigger blocks for Plan 0")
    print(f"clubsuit: mem={club.memory_bytes / 2**20:.0f}MB io={club.io_seconds:.0f}s")
    print(f"best:     mem={best.cost.memory_bytes / 2**20:.0f}MB io={best.cost.io_seconds:.0f}s")
    benchmark.pedantic(lambda: club.io_seconds, rounds=1, iterations=1)
    # More memory than the best plan, and still far more I/O.
    assert club.memory_bytes > best.cost.memory_bytes
    assert club.io_seconds > 1.5 * best.cost.io_seconds


def test_fig3b_predicted_vs_actual(fig3_result, benchmark, tmp_path_factory):
    cfg, result = fig3_result
    banner("Figure 3(b): predicted vs actual I/O (run scale, byte-exact)")
    inputs = generate_inputs(cfg)
    truth = reference_outputs(cfg.program, cfg.params, inputs)["E"]
    run_bytes = cfg.run_block_bytes()

    def run_all():
        rows = []
        for plan in sorted(result.plans, key=lambda p: p.index):
            pred = evaluate_plan(cfg.program, cfg.params, plan.schedule,
                                 plan.realized, io_model=result.io_model,
                                 block_bytes=run_bytes)
            td = tmp_path_factory.mktemp(f"fig3b_{plan.index}")
            report, outputs = run_program(
                cfg.program, cfg.params, plan,
                make_disk(td, io_model=result.io_model), inputs)
            rows.append((plan, pred, report, outputs))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    save_artifact("fig3b_predicted_vs_actual.csv", predicted_vs_actual_csv(
        [(f"plan {p.index}", pred.io_seconds, rep.simulated_io_seconds,
          rep.cpu_seconds, rep.io.retries, rep.io.checksum_failures)
         for p, pred, rep, _ in rows]))
    print(f"{'plan':>4} {'pred I/O(s)':>12} {'actual I/O(s)':>13} "
          f"{'CPU(s)':>8} {'err':>6}")
    for plan, pred, report, outputs in rows:
        err = abs(report.simulated_io_seconds - pred.io_seconds) / pred.io_seconds
        print(f"{plan.index:>4} {pred.io_seconds:>12.3f} "
              f"{report.simulated_io_seconds:>13.3f} {report.cpu_seconds:>8.3f} "
              f"{err:>6.1%}")
        assert np.allclose(outputs["E"], truth)
        # Byte-exact agreement (the paper measured 1.7% mean error on a
        # physical drive; our substrate removes the residual noise).
        assert report.io.read_bytes == pred.read_bytes
        assert report.io.write_bytes == pred.write_bytes


def test_comparison_baselines(fig3_result, benchmark, tmp_path_factory):
    cfg, result = fig3_result
    banner("Section 6.1 comparison: Matlab-like / SciDB-like / manual-best")
    inputs = generate_inputs(cfg)

    def run():
        mk = tmp_path_factory.mktemp
        m = matlab_like(cfg.program, cfg.params, result, mk("matlab"), inputs)
        s = scidb_like(cfg.program, cfg.params, result, mk("scidb"), inputs)
        h = manual_best(cfg.program, cfg.params, result, mk("manual"), inputs)
        td = mk("ours")
        ours, _ = run_program(cfg.program, cfg.params, result.best(),
                              make_disk(td, io_model=result.io_model), inputs)
        return m, s, h, ours

    m, s, h, ours = benchmark.pedantic(run, rounds=1, iterations=1)
    ours_total = ours.simulated_total_seconds
    print(f"ours (best plan): {ours_total:10.3f} s")
    for rep in (h, m, s):
        print(f"{rep.name:>16}: {rep.total_seconds:10.3f} s "
              f"({rep.total_seconds / ours_total:5.2f}x)")
    # Paper ordering: manual-best ~ ours < blocked Matlab << SciDB.
    assert h.total_seconds <= ours_total * 1.02
    assert m.total_seconds > ours_total
    assert s.total_seconds > m.total_seconds
