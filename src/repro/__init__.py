"""repro — a reproduction of RIOTShare: "Optimizing I/O for Big Array
Analytics" (Zhang & Yang, PVLDB 5(8), 2012).

The package implements the paper's full stack:

* a pure-Python exact integer-polyhedra library (:mod:`repro.polyhedral`),
* a static-control program IR with a loop-nest builder (:mod:`repro.ir`),
* dependence / I/O-sharing-opportunity analysis (:mod:`repro.analysis`),
* the Apriori + Farkas schedule optimizer (:mod:`repro.optimizer`),
* code generation to executable plans and pseudo-C (:mod:`repro.codegen`),
* RIOTStore-style blocked storage, buffer pool and a byte-accurate
  simulated disk (:mod:`repro.storage`),
* a numpy-kerneled execution engine with verification
  (:mod:`repro.engine`),
* the operator library, paper workloads, comparator baselines, and the
  block-size-advisor extension,
* an opt-in observability subsystem — structured tracing, metrics, and
  predicted-vs-actual cost-model validation (:mod:`repro.obs`),
* a concurrent multi-query service with plan caching, admission
  control, and inter-query I/O sharing (:mod:`repro.service`),
* a workload-driven storage advisor that turns obs traces into costed,
  applied, verified recommendations (:mod:`repro.advisor`).

Quickstart::

    from repro import Pipeline, optimize, run_program

    p = Pipeline("demo", params=("n1", "n2", "n3"))
    a = p.input("A", blocks=("n1", "n2"), block_shape=(60, 40))
    b = p.input("B", blocks=("n1", "n2"), block_shape=(60, 40))
    d = p.input("D", blocks=("n2", "n3"), block_shape=(40, 50))
    e = p.matmul(p.add(a, b, name="C"), d, name="E")
    p.mark_output(e)
    prog = p.build()

    result = optimize(prog, {"n1": 4, "n2": 4, "n3": 1})
    best = result.best(memory_cap_bytes=2 * 1024 ** 2)
"""

from . import advisor, obs
from .advisor import AdvisorConfig, Recommendation, WorkloadProfile
from .analysis import analyze
from .codegen import build_executable_plan, render_c
from .engine import reference_outputs, run_program
from .exceptions import ReproError
from .ir import Program, ProgramBuilder, Schedule
from .ops import (Pipeline, add_multiply_program, linreg_program,
                  two_matmul_program)
from .optimizer import IOModel, OptimizationResult, Plan, optimize
from .service import (ArrayService, DegradePolicy, JobHandle, JobResult,
                      JobRetryPolicy, JobSpec, PlanCache, WorkloadSpec)
from .workloads import (add_multiply_config, generate_inputs, linreg_config,
                        two_matmul_config)

__version__ = "1.0.0"

__all__ = [
    "analyze",
    "optimize",
    "run_program",
    "reference_outputs",
    "build_executable_plan",
    "render_c",
    "Pipeline",
    "Program",
    "ProgramBuilder",
    "Schedule",
    "Plan",
    "OptimizationResult",
    "IOModel",
    "ArrayService",
    "JobHandle",
    "JobResult",
    "JobRetryPolicy",
    "DegradePolicy",
    "PlanCache",
    "ReproError",
    "add_multiply_program",
    "two_matmul_program",
    "linreg_program",
    "add_multiply_config",
    "two_matmul_config",
    "linreg_config",
    "generate_inputs",
    "obs",
    "advisor",
    "AdvisorConfig",
    "JobSpec",
    "Recommendation",
    "WorkloadProfile",
    "WorkloadSpec",
    "__version__",
]
