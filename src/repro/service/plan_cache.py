"""Persistent plan cache: optimization fingerprint -> best saved plan.

The §5.4 Remark observes that the Apriori schedule search "need[s] to be
done only once for a given program template".  The service turns that into
a cache: the first submission of a (program, params, memory-cap, cost-model
knobs) combination pays for the search; every repeat loads the winning
schedule from disk through :mod:`repro.persist` and only re-costs it —
**zero Apriori candidates are evaluated on a hit**.

Keying is structural, not nominal: the fingerprint digests the program's
arrays, statements, iteration domains (normalized polyhedra), accesses, the
concrete parameter binding, the memory cap the best plan was selected
under, the I/O model bandwidths, and the search knobs.  Two programs that
differ in any of these hash apart even if they share a name; a re-built but
identical program hashes together.

Cache files are written atomically (temp + ``os.rename``), so a cache
directory shared by concurrent workers — or concurrent services — never
exposes a torn plan.  Nothing numeric is trusted from the file: loading
re-analyzes the program and re-costs the schedule (see
:func:`repro.persist.load_plan`).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Mapping

from ..analysis import analyze
from ..exceptions import ReproError
from ..ir import Program
from ..obs import metrics as obs_metrics
from ..optimizer import IOModel
from ..optimizer.plan import Plan
from ..persist import load_plan, save_plan

__all__ = ["PlanCache", "optimization_fingerprint"]


def _program_signature(program: Program) -> dict:
    """Canonical JSON-able structure of everything the optimizer sees."""
    arrays = []
    for name in sorted(program.arrays):
        arr = program.arrays[name]
        arrays.append({
            "name": arr.name,
            "dims": [str(d) for d in arr.dims],
            "block_shape": list(arr.block_shape),
            "dtype_bytes": arr.dtype_bytes,
            "kind": arr.kind.value,
        })
    statements = []
    for stmt in program.statements:
        accesses = []
        for a in stmt.accesses:
            accesses.append({
                "type": a.type.value,
                "array": a.array.name,
                "subscripts": [str(s) for s in a.subscripts],
                "guard": [str(g) for g in a.guard],
            })
        statements.append({
            "name": stmt.name,
            "loop_vars": list(stmt.loop_vars),
            "kernel": stmt.kernel,
            "kernel_args": sorted((str(k), str(v))
                                  for k, v in stmt.kernel_args.items()),
            "position": list(stmt.position),
            # eqs/ineqs are normalized, deduplicated, sorted integer rows —
            # a canonical form of the iteration domain.
            "domain": {
                "space": list(stmt.domain.space.names),
                "eqs": [list(r) for r in stmt.domain.eqs],
                "ineqs": [list(r) for r in stmt.domain.ineqs],
            },
        })
    return {
        "name": program.name,
        "params": list(program.params),
        "arrays": arrays,
        "statements": statements,
    }


def optimization_fingerprint(program: Program, params: Mapping[str, int],
                             memory_cap_bytes: int | None = None,
                             io_model: IOModel | None = None,
                             **knobs) -> str:
    """SHA-256 over everything that determines the optimizer's best plan."""
    model = io_model or IOModel()
    payload = {
        "program": _program_signature(program),
        "bindings": {k: int(v) for k, v in sorted(params.items())},
        "memory_cap_bytes": memory_cap_bytes,
        "io_model": {"read_bw": model.read_bw, "write_bw": model.write_bw},
        "knobs": {k: (sorted(v.items()) if isinstance(v, dict) else v)
                  for k, v in sorted(knobs.items()) if v is not None},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class PlanCache(obs_metrics.StatFields):
    """Directory of saved best plans, one ``<fingerprint>.json`` per entry.

    ``hits``/``misses`` are thin views over metrics counters (the service
    exposes them as gauges in its exposition dump); :meth:`bind` adopts
    them into a registry, done automatically when one is installed.
    """

    _COUNTERS = ("hits", "misses", "stores")

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._init_stats("repro_plan_cache_")
        self._lock = threading.Lock()
        registry = obs_metrics.CURRENT
        if registry is not None:
            self.bind(registry, cache=registry.seq("plan_cache"))

    # -- lookup ----------------------------------------------------------------

    def path_for(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def load(self, program: Program, params: Mapping[str, int],
             memory_cap_bytes: int | None = None,
             io_model: IOModel | None = None, analysis=None,
             **knobs) -> Plan | None:
        """The cached best plan, re-analyzed and re-costed — or ``None``.

        A hit skips the Apriori search entirely; only the (cheap) sharing
        analysis and the single-schedule costing run (pass ``analysis`` to
        reuse one already computed).  A cache file that no longer resolves
        against the program (stale directory reused across incompatible
        code versions) counts as a miss and is ignored.
        """
        fp = optimization_fingerprint(program, params, memory_cap_bytes,
                                      io_model, **knobs)
        path = self.path_for(fp)
        if not path.exists():
            with self._lock:
                self._misses.value += 1
            return None
        try:
            if analysis is None:
                analysis = analyze(program, param_values=params)
            plan = load_plan(path, program, analysis, params, io_model)
        except (ReproError, OSError, ValueError, KeyError):
            with self._lock:
                self._misses.value += 1
            return None
        with self._lock:
            self._hits.value += 1
        return plan

    def store(self, program: Program, params: Mapping[str, int], plan: Plan,
              memory_cap_bytes: int | None = None,
              io_model: IOModel | None = None, **knobs) -> Path:
        """Persist ``plan`` as the best for this fingerprint (atomic)."""
        fp = optimization_fingerprint(program, params, memory_cap_bytes,
                                      io_model, **knobs)
        path = self.path_for(fp)
        tmp = path.parent / f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        save_plan(tmp, plan, program)
        os.rename(tmp, path)
        with self._lock:
            self._stores.value += 1
        return path

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        n = 0
        for path in self.root.glob("*.json"):
            path.unlink()
            n += 1
        return n

    def __repr__(self) -> str:
        return (f"PlanCache({self.root}, {len(self)} plans, "
                f"hits={self.hits}, misses={self.misses})")
