"""Typed, costed advisor recommendations.

A :class:`Recommendation` is the unit the whole subsystem trades in: each
one names a *kind* (block geometry, materialization, memory budget,
prefetch depth), carries machine-applicable ``actions``, and
states its prediction as **whole-workload** before/after I/O bytes and
model seconds — never a per-job delta, so two recommendations' predictions
are directly comparable and the acceptance check ("applying the top set
cuts measured bytes by ≥ X%") needs no further arithmetic.

Predictions are promises, so they are checked: the apply pipeline
(:mod:`repro.advisor.apply`) re-runs the workload with a recommendation
applied and fills in the ``measured_*`` fields; :meth:`Recommendation.
check` then compares predicted and measured savings within a tolerance
and flags mispredictions rather than hiding them.  *Advisory*
recommendations (prefetch-depth, some memory sizing) predict a
zero byte delta by construction — they target footprint, latency, or
headroom, not traffic — and validate trivially on the byte axis.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

__all__ = ["Recommendation", "ACTION_TYPES", "rank"]

#: The closed vocabulary of machine-applicable actions.  ``rescale`` and
#: ``materialize`` rewrite job specs; the rest rewrite the service config.
ACTION_TYPES = ("rescale", "materialize", "memory_cap", "prefetch_depth")


class Recommendation:
    """One costed recommendation; see module docstring for the contract."""

    FIELDS = ("kind", "title", "detail", "confidence", "advisory",
              "actions", "predicted_before_bytes", "predicted_after_bytes",
              "predicted_before_seconds", "predicted_after_seconds",
              "measured_before_bytes", "measured_after_bytes", "validated",
              "mispredicted", "validation_error", "validation_tolerance")

    __slots__ = FIELDS

    def __init__(self, kind: str, title: str, detail: str,
                 actions: Sequence[Mapping], predicted_before_bytes: int,
                 predicted_after_bytes: int,
                 predicted_before_seconds: float,
                 predicted_after_seconds: float, confidence: float = 0.5,
                 advisory: bool = False):
        self.kind = kind
        self.title = title
        self.detail = detail
        self.actions = [dict(a) for a in actions]
        for a in self.actions:
            if a.get("type") not in ACTION_TYPES:
                raise ValueError(f"unknown action type {a.get('type')!r} "
                                 f"(known: {ACTION_TYPES})")
        self.predicted_before_bytes = int(predicted_before_bytes)
        self.predicted_after_bytes = int(predicted_after_bytes)
        self.predicted_before_seconds = float(predicted_before_seconds)
        self.predicted_after_seconds = float(predicted_after_seconds)
        self.confidence = max(0.0, min(1.0, float(confidence)))
        self.advisory = bool(advisory)
        # Filled by validation (apply.validate_recommendations):
        self.measured_before_bytes: int | None = None
        self.measured_after_bytes: int | None = None
        self.validated = False        # a verification re-run happened
        self.mispredicted = False     # ... and missed the tolerance
        self.validation_error: float | None = None
        self.validation_tolerance: float | None = None

    # -- predicted deltas ----------------------------------------------------

    @property
    def predicted_saved_bytes(self) -> int:
        return self.predicted_before_bytes - self.predicted_after_bytes

    @property
    def predicted_saved_seconds(self) -> float:
        return self.predicted_before_seconds - self.predicted_after_seconds

    @property
    def predicted_saved_fraction(self) -> float:
        if self.predicted_before_bytes <= 0:
            return 0.0
        return self.predicted_saved_bytes / self.predicted_before_bytes

    @property
    def measured_saved_bytes(self) -> int | None:
        if self.measured_before_bytes is None \
                or self.measured_after_bytes is None:
            return None
        return self.measured_before_bytes - self.measured_after_bytes

    # -- validation ----------------------------------------------------------

    def check(self, measured_before: int, measured_after: int,
              tolerance: float) -> bool:
        """Record a verification re-run and judge the prediction.

        The judgment metric is the *relative savings error*
        ``|measured_saved − predicted_saved| / max(measured_before, 1)`` —
        normalizing by workload size, not by the (possibly tiny) delta, so
        a near-zero advisory prediction is not penalized for noise.
        Returns True when within ``tolerance``; on a miss the
        recommendation is flagged ``mispredicted``, never silently
        re-scored.
        """
        self.measured_before_bytes = int(measured_before)
        self.measured_after_bytes = int(measured_after)
        self.validated = True
        self.validation_tolerance = float(tolerance)
        err = abs(self.measured_saved_bytes - self.predicted_saved_bytes) \
            / max(measured_before, 1)
        self.validation_error = err
        self.mispredicted = err > tolerance
        return not self.mispredicted

    # -- views ---------------------------------------------------------------

    def to_dict(self) -> dict:
        d = {f: getattr(self, f) for f in self.FIELDS}
        d["predicted_saved_bytes"] = self.predicted_saved_bytes
        d["predicted_saved_seconds"] = self.predicted_saved_seconds
        d["measured_saved_bytes"] = self.measured_saved_bytes
        return d

    def __repr__(self) -> str:
        flag = " ADVISORY" if self.advisory else ""
        if self.validated:
            flag += " MISPREDICTED" if self.mispredicted else " VALIDATED"
        return (f"Recommendation({self.kind}: {self.title!r}, "
                f"saves {self.predicted_saved_bytes}B "
                f"/ {self.predicted_saved_seconds:.3f}s{flag})")


def rank(recs: Sequence[Recommendation]) -> list[Recommendation]:
    """Most valuable first: by predicted saved model-seconds, then saved
    bytes, then confidence; advisory recommendations sort after concrete
    ones at equal savings.  Deterministic (ties broken on the serialized
    action list)."""
    return sorted(recs, key=lambda r: (
        -r.predicted_saved_seconds, -r.predicted_saved_bytes, r.advisory,
        -r.confidence, r.kind, json.dumps(r.actions, sort_keys=True)))
