"""Plan persistence: save an optimized plan, reload it later.

The §5.4 Remark's workflow: "schedule search and evaluation need to be done
only once for a given program template; should the parameters change, we can
simply plug the new values in".  A saved plan stores the schedule (affine
rows per statement), the labels of the realized sharing opportunities and
the ``block_bytes`` override the search costed under; loading re-attaches
it to a freshly analyzed program and re-costs it for the current
parameters under that override — nothing numeric is trusted from the
file.  An entry saved without it is re-costed at the arrays' own block
sizes.  Files written while dead-write elimination was a knob also carry a
``dead_write_elimination`` entry, which loading ignores: every plan is
costed with dead writes elided.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from .analysis import ProgramAnalysis
from .exceptions import ReproError
from .ir import AffineExpr, Program, Schedule
from .optimizer import IOModel, evaluate_plan
from .optimizer.plan import Plan

__all__ = ["schedule_to_dict", "schedule_from_dict", "save_plan", "load_plan"]


def schedule_to_dict(schedule: Schedule) -> dict:
    """JSON-safe encoding: per statement, rows as {var: coeff} + const."""
    out = {}
    for name, rows in schedule.rows.items():
        out[name] = [{"coeffs": {v: str(c) for v, c in r.coeffs.items()},
                      "const": str(r.const)} for r in rows]
    return {"rows": out, "meta": {k: v for k, v in schedule.meta.items()
                                  if isinstance(v, (str, int, float, list))}}


def schedule_from_dict(data: dict) -> Schedule:
    from fractions import Fraction
    rows = {}
    for name, rs in data["rows"].items():
        rows[name] = [AffineExpr({v: Fraction(c) for v, c in r["coeffs"].items()},
                                 Fraction(r["const"])) for r in rs]
    return Schedule(rows, meta=dict(data.get("meta", {})))


def save_plan(path: str | Path, plan: Plan, program: Program,
              block_bytes: Mapping[str, int] | None = None) -> None:
    """Write the plan's schedule, realized-opportunity labels and the
    ``block_bytes`` it was costed under to JSON."""
    payload = {
        "format": "repro-plan-v1",
        "program": program.name,
        "realized": plan.realized_labels,
        "schedule": schedule_to_dict(plan.schedule),
        "costing": {"block_bytes": dict(block_bytes) if block_bytes else None},
    }
    Path(path).write_text(json.dumps(payload, indent=2))


def load_plan(path: str | Path, program: Program, analysis: ProgramAnalysis,
              params: Mapping[str, int],
              io_model: IOModel | None = None) -> Plan:
    """Reload a saved plan against a (re-)analyzed program and re-cost it.

    The realized opportunities are looked up by label in ``analysis``; a
    label that no longer resolves (the program changed) raises.  Costs are
    recomputed for ``params`` under the saved ``block_bytes`` — stale
    numbers cannot leak in, and the cost is the one the search saw.
    """
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != "repro-plan-v1":
        raise ReproError(f"{path}: not a saved plan")
    if payload.get("program") != program.name:
        raise ReproError(
            f"{path}: saved for program {payload.get('program')!r}, "
            f"got {program.name!r}")
    schedule = schedule_from_dict(payload["schedule"])
    for stmt in program.statements:
        if stmt.name not in schedule.rows:
            raise ReproError(f"{path}: no schedule rows for statement {stmt.name}")
    realized = [analysis.opportunity(label) for label in payload["realized"]]
    cost = evaluate_plan(
        program, params, schedule, realized, io_model,
        block_bytes=payload.get("costing", {}).get("block_bytes"))
    return Plan(-1, schedule, realized, cost)
