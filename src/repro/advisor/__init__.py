"""repro.advisor — workload-driven storage advisor.

Turns observed workloads into **costed, applied, verified** storage and
configuration recommendations.  Three stages, mirrored by the submodules:

1. **Ingest** (:mod:`~repro.advisor.workload`): build a
   :class:`WorkloadProfile` from a workload's obs signal — live from a
   traced :class:`~repro.service.ArrayService` run, or offline from an
   exported JSONL trace + metrics snapshot (both schema-versioned; the
   readers are tolerant of older writers and refuse newer ones).  The two
   paths produce field-identical profiles.
2. **Analyze** (:mod:`~repro.advisor.analyzers`): pluggable analyzers emit
   typed :class:`Recommendation` objects — block-geometry rescaling,
   persistent materialization of shared intermediates, memory-budget
   sizing, prefetch depth — each carrying predicted whole-workload
   before/after I/O bytes and model seconds plus a confidence.
3. **Apply & verify** (:mod:`~repro.advisor.apply`): fold a recommendation
   set into a new :class:`AdvisorConfig` (job rewrites + service knobs),
   re-run the workload, and score every prediction against measurement
   within a documented tolerance — mispredictions are flagged, never
   hidden.

CLI: ``python -m repro advise --jobs workload.jsonl --apply`` (or
``--trace run.jsonl --metrics metrics.json`` for the offline path).

The single-program :class:`BlockSizeAdvisor` (paper §7 / Figure 3(a))
lives on in :mod:`~repro.advisor.blocksize`.
"""

from ..service.jobs import BUILDERS, JobSpec, WorkloadSpec, generate_input
from .analyzers import (ANALYZERS, AdvisorContext, Analyzer,
                        BlockGeometryAnalyzer, MaterializationAnalyzer,
                        MemoryBudgetAnalyzer, PrefetchAnalyzer,
                        run_analyzers)
from .apply import (AdvisorConfig, apply_recommendations, measured_io_bytes,
                    run_workload, validate_recommendations)
from .blocksize import BlockSizeAdvisor, BlockSizeChoice
from .recommendations import ACTION_TYPES, Recommendation, rank
from .report import REPORT_VERSION, render_report, report_doc, write_report
from .workload import (GEOMETRY_AXES, JobProfile, WorkloadProfile,
                       geometry_candidates, load_metrics, load_trace,
                       materialization_split, rescale_geometry)

__all__ = [
    # workload
    "BUILDERS", "GEOMETRY_AXES", "JobSpec", "WorkloadSpec", "JobProfile",
    "WorkloadProfile", "generate_input", "rescale_geometry",
    "geometry_candidates", "materialization_split", "load_trace",
    "load_metrics",
    # recommendations
    "Recommendation", "ACTION_TYPES", "rank",
    # analyzers
    "AdvisorContext", "Analyzer", "BlockGeometryAnalyzer",
    "MaterializationAnalyzer", "MemoryBudgetAnalyzer", "PrefetchAnalyzer",
    "ANALYZERS", "run_analyzers",
    # apply
    "AdvisorConfig", "apply_recommendations", "run_workload",
    "measured_io_bytes", "validate_recommendations",
    # report
    "REPORT_VERSION", "render_report", "report_doc", "write_report",
    # single-program advisor (paper §7)
    "BlockSizeAdvisor", "BlockSizeChoice",
]
