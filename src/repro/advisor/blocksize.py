"""Single-program block-size advisor (paper Section 7, Figure 3(a)).

The workload-level generalization is
:class:`repro.advisor.analyzers.BlockGeometryAnalyzer`, which rescales the
block geometry of every job template *at fixed logical array size* and
validates the prediction by re-running.  This class remains the direct,
single-program form of the paper's joint question: the caller supplies a
program factory parameterized by a block-size option, the advisor runs the
full sharing optimizer for every option, and recommends the (option, plan)
pair with the least I/O that fits the memory cap.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from ..exceptions import OptimizationError
from ..ir import Program
from ..optimizer import IOModel, OptimizationResult, Plan, optimize

__all__ = ["BlockSizeChoice", "BlockSizeAdvisor"]


class BlockSizeChoice:
    """One evaluated option: the factory argument, its plans, its best plan."""

    __slots__ = ("option", "result", "best")

    def __init__(self, option, result: OptimizationResult, best: Plan | None):
        self.option = option
        self.result = result
        self.best = best

    def __repr__(self) -> str:
        if self.best is None:
            return f"BlockSizeChoice({self.option!r}: no plan fits)"
        return (f"BlockSizeChoice({self.option!r}: io={self.best.cost.io_seconds:.1f}s, "
                f"mem={self.best.cost.memory_bytes / 1e6:.0f}MB)")


class BlockSizeAdvisor:
    """Joint block-size + I/O-sharing optimization."""

    def __init__(self, program_factory: Callable[..., Program],
                 params: Mapping[str, int],
                 io_model: IOModel | None = None,
                 block_bytes_factory: Callable[..., Mapping[str, int]] | None = None):
        self.program_factory = program_factory
        self.params = dict(params)
        self.io_model = io_model or IOModel()
        # Optional: paper-scale byte sizes per option (for predicted seconds).
        self.block_bytes_factory = block_bytes_factory

    def evaluate(self, option, memory_cap_bytes: int | None = None,
                 max_set_size: int | None = None) -> BlockSizeChoice:
        program = self.program_factory(option)
        block_bytes = (self.block_bytes_factory(option)
                       if self.block_bytes_factory else None)
        result = optimize(program, self.params, io_model=self.io_model,
                          max_set_size=max_set_size, block_bytes=block_bytes)
        try:
            best = result.best(memory_cap_bytes)
        except OptimizationError:
            best = None
        return BlockSizeChoice(option, result, best)

    def sweep(self, options: Iterable, memory_cap_bytes: int | None = None,
              max_set_size: int | None = None) -> list[BlockSizeChoice]:
        return [self.evaluate(opt, memory_cap_bytes, max_set_size)
                for opt in options]

    def recommend(self, options: Iterable, memory_cap_bytes: int | None = None,
                  max_set_size: int | None = None) -> BlockSizeChoice:
        """The option whose best fitting plan has the least I/O time."""
        choices = self.sweep(options, memory_cap_bytes, max_set_size)
        fitting = [c for c in choices if c.best is not None]
        if not fitting:
            raise OptimizationError("no block-size option fits the memory cap")
        return min(fitting, key=lambda c: c.best.cost.io_seconds)
