"""Reproduction of Section 6's "Datasets of Different Scales".

The paper ran every experiment at several data scales and found consistent
results, with optimization time unaffected by scale (the optimizer works on
polyhedra, not data).  Checked here on the add+multiply program at three
block-grid scales: the schedule search visits the same candidate lattice,
finds the same winning sharing-opportunity set, and the relative I/O saving
is scale-invariant.
"""

import json

import numpy as np
import pytest

from conftest import banner, save_artifact
from repro import optimize
from repro.engine import run_program
from repro.ops import add_multiply_program
from repro.storage import make_disk

SCALES = [
    {"n1": 6, "n2": 6, "n3": 1},
    {"n1": 12, "n2": 12, "n3": 1},
    {"n1": 18, "n2": 18, "n3": 1},
]


def test_scale_invariance(benchmark, tmp_path_factory):
    program = add_multiply_program()

    def run_all():
        return [optimize(program, params) for params in SCALES]

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    banner("Datasets of different scales (add+multiply)")
    print(f"{'grid':>10} {'plans':>6} {'tested':>7} {'best set':>42} "
          f"{'saving':>7} {'opt(s)':>7}")
    savings = []
    records = []
    rng = np.random.default_rng(0)
    for params, result in zip(SCALES, results):
        best = result.best()
        saving = 1 - best.cost.io_seconds / result.original_plan.cost.io_seconds
        savings.append(saving)
        print(f"{params['n1']}x{params['n2']:>3} {len(result.plans):>6} "
              f"{result.stats.candidates_tested:>7} "
              f"{','.join(sorted(best.realized_labels)):>42} "
              f"{saving:>7.1%} {result.seconds:>7.1f}")
        # Execute the winner so the record carries actual (traced) I/O next
        # to the prediction — at every scale they must agree byte for byte.
        inputs = {n: rng.standard_normal(program.arrays[n].shape_elems(params))
                  for n in ("A", "B", "D")}
        workdir = tmp_path_factory.mktemp(
            f"scaling_{params['n1']}x{params['n2']}")
        report, _ = run_program(program, params, best,
                                make_disk(workdir, io_model=result.io_model),
                                inputs)
        records.append({
            "workload": program.name,
            "params": dict(params),
            "plans": len(result.plans),
            "candidates_tested": result.stats.candidates_tested,
            "optimizer_seconds": result.seconds,
            "best_realized": sorted(best.realized_labels),
            "io_saving_fraction": saving,
            "predicted_read_bytes": best.cost.read_bytes,
            "predicted_write_bytes": best.cost.write_bytes,
            "actual_read_bytes": report.io.read_bytes,
            "actual_write_bytes": report.io.write_bytes,
            "predicted_io_seconds": best.cost.io_seconds,
            "actual_io_seconds": report.simulated_io_seconds,
        })
        assert report.io.read_bytes == best.cost.read_bytes
        assert report.io.write_bytes == best.cost.write_bytes
    save_artifact("BENCH_scaling.json", json.dumps(records, indent=2) + "\n")

    # Same search space and same winner at every scale.
    first = results[0]
    for result in results[1:]:
        assert result.stats.candidates_tested == first.stats.candidates_tested
        assert len(result.plans) == len(first.plans)
        assert (sorted(result.best().realized_labels)
                == sorted(first.best().realized_labels))
    # Relative savings are nearly scale-free (block-count edge effects only).
    assert max(savings) - min(savings) < 0.06
