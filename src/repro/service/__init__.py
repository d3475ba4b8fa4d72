"""Concurrent multi-query array service (see :mod:`repro.service.service`).

Public surface:

* :class:`ArrayService` — submit jobs (program + params + inputs), get
  :class:`JobHandle` futures of :class:`JobResult`; one shared buffer
  pool, plan caching, admission control, deadlines and cancellation;
* :class:`JobRetryPolicy` / :func:`classify_error` — automatic
  retry-with-resume for transiently-failed jobs;
* :class:`DegradePolicy` / :class:`HealthController` /
  :class:`CircuitBreaker` — overload-aware graceful degradation;
* :func:`run_chaos` / :class:`ChaosReport` — the seeded chaos harness
  auditing the service's resilience invariants;
* :class:`PlanCache` / :func:`optimization_fingerprint` — the persistent
  plan cache also usable standalone via ``optimize(plan_cache=...)``;
* :class:`JobSpec` / :class:`WorkloadSpec` / :func:`generate_input` /
  :func:`submit_job` — the one job description (the JSONL job file of
  ``repro serve`` and ``repro advise``), its inputs and its submission;
* :class:`ServiceStats`, :class:`JobPoolView` — accounting and the per-job
  shared-pool facade, exposed for tests and instrumentation.
"""

from ..engine.executor import CountingStore
from .chaos import ChaosReport, run_chaos
from .jobs import JobSpec, WorkloadSpec, generate_input, submit_job
from .plan_cache import PlanCache, optimization_fingerprint
from .resilience import (CircuitBreaker, DegradePolicy, HealthController,
                         JobRetryPolicy, classify_error)
from .service import (ArrayService, JobHandle, JobPoolView, JobResult,
                      ServiceStats)

__all__ = [
    "ArrayService",
    "JobHandle",
    "JobResult",
    "JobPoolView",
    "ServiceStats",
    "JobRetryPolicy",
    "classify_error",
    "DegradePolicy",
    "HealthController",
    "CircuitBreaker",
    "ChaosReport",
    "run_chaos",
    "PlanCache",
    "optimization_fingerprint",
    "JobSpec",
    "WorkloadSpec",
    "generate_input",
    "submit_job",
    "CountingStore",
]
