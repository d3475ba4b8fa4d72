"""I/O–compute overlap: serial execution vs the plan-driven prefetch pipeline.

The disk runs with ``io_pace=1.0`` so every counted operation sleeps its
modeled transfer time — wall clock then *is* the modeled timeline, and the
pipeline's win (pushing ``io + compute`` toward ``max(io, compute)``) shows
up directly as wall-clock saved.  Blocks are 1024x1024 (8 MiB) so each
paced read is ~87 ms against a matmul of comparable cost.

Emits ``BENCH_prefetch.json``: one row per prefetch depth with wall /
modeled-I/O / CPU seconds, the pipeline counters, and the fraction of the
hideable time (``min(paced read I/O, compute)``) the overlap actually hid.
Every depth must stay numerically correct AND byte-exact under
``validate=True`` — overlap may never change what I/O happens, only when.
"""

import json
import tempfile

import numpy as np
import pytest

from conftest import banner, save_artifact
from repro import add_multiply_program, optimize, run_program
from repro.engine import reference_outputs
from repro.optimizer import IOModel
from repro.storage import make_disk

P = {"n1": 2, "n2": 2, "n3": 1}
DEPTHS = (0, 2, 8)


def test_prefetch_overlap_json(benchmark):
    prog = add_multiply_program(block_rows=1024, block_cols=1024,
                                d_cols=1024)
    best = optimize(prog, P).best()
    rng = np.random.default_rng(7)
    inputs = {n: rng.standard_normal(prog.arrays[n].shape_elems(P))
              for n in ("A", "B", "D")}
    truth = reference_outputs(prog, P, inputs)
    model = IOModel()

    banner("Prefetch pipeline: I/O-compute overlap at io_pace=1.0")
    records = []
    for depth in DEPTHS:
        with tempfile.TemporaryDirectory() as td:
            report, outputs = run_program(prog, P, best,
                                          make_disk(td, pace=1.0), inputs,
                                          prefetch_depth=depth, validate=True)
        for name in outputs:
            assert np.allclose(outputs[name], truth[name]), \
                f"depth {depth}: output {name} wrong"
        assert report.validation.passed, report.validation.summary()
        assert report.io.read_bytes == best.cost.read_bytes
        assert report.io.write_bytes == best.cost.write_bytes
        rec = {
            "depth": depth,
            "wall_seconds": report.wall_seconds,
            "modeled_io_seconds": report.simulated_io_seconds,
            "cpu_seconds": report.cpu_seconds,
            "read_bytes": report.io.read_bytes,
            "write_bytes": report.io.write_bytes,
        }
        if report.prefetch is not None:
            rec.update(report.prefetch.as_dict())
        records.append(rec)
        print(f"depth {depth}: wall={rec['wall_seconds']:.3f}s "
              f"(modeled io={rec['modeled_io_seconds']:.3f}s, "
              f"cpu={rec['cpu_seconds']:.3f}s)"
              + (f" staged={rec['staged_blocks']} "
                 f"waited={rec['wait_seconds']:.3f}s"
                 if depth else " [serial]"))

    serial = records[0]
    # Only paced *read* time can hide, and it hides behind everything the
    # main thread does meanwhile: compute plus the paced writes that stay
    # on the main thread.  That's the ceiling overlap is measured against.
    read_io = model.seconds(serial["read_bytes"], 0)
    write_io = model.seconds(0, serial["write_bytes"])
    hideable = min(read_io, serial["cpu_seconds"] + write_io)
    for rec in records[1:]:
        rec["hidden_seconds"] = serial["wall_seconds"] - rec["wall_seconds"]
        rec["overlap_fraction"] = (rec["hidden_seconds"] / hideable
                                   if hideable > 0 else 0.0)
        print(f"depth {rec['depth']}: hid {rec['hidden_seconds']:.3f}s "
              f"of {hideable:.3f}s hideable "
              f"({rec['overlap_fraction']:.0%})")

    save_artifact("BENCH_prefetch.json", json.dumps(records, indent=2) + "\n")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    # Overlap must be real: the deepest pipeline beats serial wall clock,
    # hiding a meaningful fraction of the hideable time.  (Loose bound —
    # CI machines are noisy; locally this hides ~80%.)
    deepest = records[-1]
    assert deepest["wall_seconds"] < serial["wall_seconds"], \
        f"no overlap: {deepest['wall_seconds']:.3f}s >= " \
        f"{serial['wall_seconds']:.3f}s serial"
    assert deepest["overlap_fraction"] >= 0.25, \
        f"overlap too small: {deepest['overlap_fraction']:.0%}"
