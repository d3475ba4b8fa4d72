"""Execution engine: runs optimizer plans against real (simulated-timing)
storage with numpy block kernels.

Public surface:

* :func:`run_program` — storage setup + plan execution + output readback,
  with optional fault injection, checkpointing, and resume;
* :func:`execute_plan` — the inner loop over an :class:`ExecutablePlan`;
  between the two sits ``executor.run_job``, the internal job runner that
  ``run_program`` and :class:`~repro.service.ArrayService` share;
* :class:`ExecutionReport` — measured I/O, simulated seconds, CPU time;
* :class:`ExecutionJournal` / :func:`plan_fingerprint` — the instance-level
  checkpoint log behind ``resume=True``;
* :class:`PrefetchPipeline` / :class:`PrefetchStats` — the plan-driven
  I/O–compute overlap behind ``prefetch_depth=N``;
* :func:`reference_outputs` — dense in-memory oracle for verification;
* ``KERNELS`` / :func:`register_kernel` — the block-kernel registry.
"""

from .executor import ExecutionReport, execute_plan, run_program
from .journal import ExecutionJournal, plan_fingerprint
from .kernels import KERNELS, register_kernel, run_kernel
from .prefetch import PrefetchPipeline, PrefetchStats
from .reference import reference_outputs

__all__ = [
    "run_program",
    "execute_plan",
    "ExecutionReport",
    "ExecutionJournal",
    "plan_fingerprint",
    "PrefetchPipeline",
    "PrefetchStats",
    "reference_outputs",
    "KERNELS",
    "register_kernel",
    "run_kernel",
]
