"""The RIOTShare I/O-sharing optimizer (Section 5).

Public surface:

* :func:`optimize` — full pipeline: analysis, Apriori enumeration
  (Algorithm 2), FindSchedule (Algorithm 3), cost evaluation, plan
  selection under a memory cap;
* :class:`OptimizationResult`, :class:`Plan`, :class:`PlanCost`,
  :class:`IOModel`;
* :func:`find_schedule`, :func:`enumerate_feasible_sets` — the algorithmic
  pieces, usable on their own;
* :class:`ConstraintCache` — memoized Farkas constraint spaces.
"""

from .apriori import AprioriStats, enumerate_feasible_sets
from .constraints import CoefficientSpace, ConstraintCache, coaccess_key
from .costing import (IOModel, PlanCost, PlanTrace, collect_events,
                      evaluate_plan, trace_plan)
from .find_schedule import enum_row, find_schedule
from .describe import describe_plan, per_array_io
from .optimizer import OptimizationResult, optimize
from .parallel import ParallelOptimizerPool
from .plan import Plan
from .symbolic import (access_count_formula, opportunity_pair_formula,
                       symbolic_io_report)

__all__ = [
    "optimize",
    "OptimizationResult",
    "Plan",
    "PlanCost",
    "PlanTrace",
    "IOModel",
    "evaluate_plan",
    "trace_plan",
    "collect_events",
    "find_schedule",
    "enum_row",
    "enumerate_feasible_sets",
    "AprioriStats",
    "ConstraintCache",
    "CoefficientSpace",
    "coaccess_key",
    "ParallelOptimizerPool",
    "symbolic_io_report",
    "access_count_formula",
    "opportunity_pair_formula",
    "describe_plan",
    "per_array_io",
]
