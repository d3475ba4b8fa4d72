"""Comparator systems for the Section 6.1 comparison (substitution #5).

Matlab and SciDB are closed substrates; we model them as *execution
policies* over the same storage engine, which preserves what the comparison
is actually about — who shares I/O and who materializes everything:

* :func:`matlab_like` — operator-at-a-time blocked execution: exactly the
  program's original plan (every intermediate materialized, no cross-
  operator sharing) plus a control/storage overhead factor on total time.
  The paper measured blocked Matlab at 2.65x the best plan.
* :func:`scidb_like` — chunk-at-a-time execution without an optimized BLAS:
  the original plan with a kernel-efficiency multiplier on CPU time and a
  per-chunk management overhead on I/O.  The paper measured 33x; the factor
  here is configurable and defaults far smaller — we reproduce the ordering
  (SciDB >> Matlab > optimized), not the closed-source constant.
* :func:`manual_best` — the paper's hand-written Matlab implementation of
  the optimizer's best plan: same I/O as the best plan, marginally better
  in-memory constant (they measured 6%).

All three run the real engine, so their I/O volumes are measured, not
asserted.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..engine import run_program
from ..ir import Program
from ..optimizer import OptimizationResult
from ..storage import make_disk

__all__ = ["BaselineReport", "matlab_like", "scidb_like", "manual_best"]


class BaselineReport:
    """Simulated total running time of one comparator."""

    __slots__ = ("name", "io_seconds", "cpu_seconds", "overhead_factor")

    def __init__(self, name: str, io_seconds: float, cpu_seconds: float,
                 overhead_factor: float = 1.0):
        self.name = name
        self.io_seconds = io_seconds
        self.cpu_seconds = cpu_seconds
        self.overhead_factor = overhead_factor

    @property
    def total_seconds(self) -> float:
        return (self.io_seconds + self.cpu_seconds) * self.overhead_factor

    def __repr__(self) -> str:
        return (f"BaselineReport({self.name}: io={self.io_seconds:.2f}s, "
                f"cpu={self.cpu_seconds:.2f}s, x{self.overhead_factor:.2f} "
                f"=> {self.total_seconds:.2f}s)")


def matlab_like(program: Program, params: Mapping[str, int],
                result: OptimizationResult, workdir,
                inputs: Mapping[str, np.ndarray],
                control_overhead: float = 1.35) -> BaselineReport:
    """Blocked, operator-at-a-time execution (the original plan) with a
    control/storage overhead factor."""
    report, _ = run_program(program, params, result.original_plan,
                            make_disk(workdir, io_model=result.io_model),
                            inputs)
    return BaselineReport("matlab-like", report.simulated_io_seconds,
                          report.cpu_seconds, control_overhead)


def scidb_like(program: Program, params: Mapping[str, int],
               result: OptimizationResult, workdir,
               inputs: Mapping[str, np.ndarray],
               kernel_slowdown: float = 12.0,
               chunk_overhead: float = 1.6) -> BaselineReport:
    """Chunk-at-a-time execution with an unoptimized kernel model.

    ``chunk_overhead`` models per-chunk management I/O (> Matlab's control
    factor, so the ordering SciDB > Matlab holds even when measured CPU time
    is negligible at run scale); ``kernel_slowdown`` models the non-BLAS
    in-memory execution the paper observed."""
    report, _ = run_program(program, params, result.original_plan,
                            make_disk(workdir, io_model=result.io_model),
                            inputs)
    return BaselineReport("scidb-like",
                          report.simulated_io_seconds * chunk_overhead,
                          report.cpu_seconds * kernel_slowdown, 1.0)


def manual_best(program: Program, params: Mapping[str, int],
                result: OptimizationResult, workdir,
                inputs: Mapping[str, np.ndarray],
                inmemory_advantage: float = 0.94) -> BaselineReport:
    """Hand-implementing the optimizer's best plan in a Matlab-like host."""
    report, _ = run_program(program, params, result.best(),
                            make_disk(workdir, io_model=result.io_model),
                            inputs)
    return BaselineReport("manual-best", report.simulated_io_seconds,
                          report.cpu_seconds * inmemory_advantage, 1.0)
