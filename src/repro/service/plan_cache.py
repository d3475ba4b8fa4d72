"""Plan cache: optimization fingerprint -> best plan, on disk and in memory.

The §5.4 Remark observes that the Apriori schedule search and its
evaluation "need to be done only once for a given program template".  The
service turns that into a cache with two tiers under one fingerprint, and a
third under the program's structure:

* **On disk**, one ``<fingerprint>.json`` per entry, written atomically
  (temp + ``os.rename``), so a cache directory shared by concurrent workers
  — or concurrent services, or successive processes — never exposes a torn
  plan.  Nothing else travels between processes, and nothing numeric is
  trusted from the file: loading re-analyzes the program and re-costs the
  schedule (see :func:`repro.persist.load_plan`) — **zero Apriori
  candidates are evaluated**, but the polyhedral analysis runs.
* **In memory**, a small LRU map per :class:`PlanCache` object,
  ``fingerprint -> (Plan, ProgramAnalysis, stat signature of the entry
  file)``.  It is filled by the search that stores an entry (with its own
  plan and analysis) and by the first disk load, so everything in it was
  analysed and costed *by this process*.  A hit is one SHA-256 over the
  program signature, one ``os.stat`` and a dict lookup: no polyhedra, no
  pair enumeration, no JSON.  The ``stat`` is the revalidation: unless
  inode, size and mtime are those of the file the entry came from, the
  entry is dropped, counted as an *invalidation*, and the lookup falls
  through to the disk tier — a deleted, truncated, corrupted or replaced
  entry file is never served from memory.
* **Structure**, in memory only, under :func:`structure_key`: the
  fingerprint's program signature without any array's ``block_shape`` or
  ``dtype_bytes``, plus the parameter binding, ``max_set_size`` and
  ``max_candidates``.  It maps to what an exhaustive walk found — the
  analysis's opportunities and the feasible ``(set, schedule)`` list, in
  test order.  Block geometry enters only the costing, so on a fingerprint
  miss for a known program at a new block size
  :func:`~repro.optimizer.optimize` analyzes the program and
  re-costs that list instead of walking the lattice again (when the
  opportunities match; otherwise it searches cold and replaces the entry).
  A bound-pruned walk skips costings and can stop early, so it neither
  fills nor reads this tier, and an entry file that fails to load empties
  it.  It shares the lock and the LRU bound of the memory tier.

Keying is structural, not nominal: the fingerprint digests the program's
parameter context, arrays, statements, iteration domains (normalized
polyhedra), accesses, the concrete parameter binding, the memory cap the
best plan was selected under, the I/O model bandwidths, and the search
knobs.  Two programs that differ in any of these hash apart even if they
share a name; a re-built but identical program hashes together — which is
what lets a memory hit hand a ``Plan`` made for one ``Program`` object to a
structurally equal other one (``Access.key()`` and schedule rows go by
name; ``tests/service/test_plan_cache_memory.py`` walks the IR's slots so
that every field the analysis reads stays under the fingerprint).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Mapping

from ..analysis import ProgramAnalysis, analyze
from ..exceptions import ReproError
from ..ir import Program, Schedule
from ..obs import metrics as obs_metrics
from ..optimizer import IOModel
from ..optimizer.plan import Plan
from ..persist import load_plan, save_plan

__all__ = ["PlanCache", "optimization_fingerprint", "structure_key"]

#: Entries the in-memory tier keeps per :class:`PlanCache` (LRU beyond it).
#: An entry is one plan plus the analysis it was costed against — ≈50 KB
#: for the paper's add+multiply program — and a service sees one per
#: (template, sizes, cap) it is asked to run.
MEMORY_ENTRIES = 64


def _polyhedron_signature(poly) -> dict:
    # eqs/ineqs are normalized, deduplicated, sorted integer rows — a
    # canonical form of the polyhedron.
    return {
        "space": list(poly.space.names),
        "eqs": [list(r) for r in poly.eqs],
        "ineqs": [list(r) for r in poly.ineqs],
    }


def _program_signature(program: Program, geometry: bool = True) -> dict:
    """Canonical JSON-able structure of everything the optimizer sees;
    without ``geometry``, of everything but the block sizes, which only the
    costing reads."""
    arrays = []
    for name in sorted(program.arrays):
        arr = program.arrays[name]
        sig = {"name": arr.name, "dims": [str(d) for d in arr.dims],
               "kind": arr.kind.value}
        if geometry:
            sig.update(block_shape=list(arr.block_shape),
                       dtype_bytes=arr.dtype_bytes)
        arrays.append(sig)
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
            "domain": _polyhedron_signature(stmt.domain),
            "accesses": accesses,
        })
    return {
        "name": program.name,
        "params": list(program.params),
        # The analysis judges emptiness under these assumptions, so two
        # programs that differ only here can have different opportunities.
        "param_context": _polyhedron_signature(program.param_context),
        "arrays": arrays,
        "statements": statements,
    }


def optimization_fingerprint(program: Program, params: Mapping[str, int],
                             memory_cap_bytes: int | None = None,
                             io_model: IOModel | None = None,
                             **knobs) -> str:
    """SHA-256 over everything that determines the optimizer's best plan.

    ``knobs`` are :func:`~repro.optimizer.optimize`'s search and costing
    arguments that shape the plan (``max_set_size``, ``max_candidates``,
    ``block_bytes``); ``None`` values are left out.  The payload always
    carries ``dead_write_elimination: true``, a constant of the format
    since elimination stopped being optional, so fingerprints made before
    then still match (a caller passing the old knob gets the same key).
    """
    model = io_model or IOModel()
    knobs = {**knobs, "dead_write_elimination": True}
    payload = {
        "program": _program_signature(program),
        "bindings": {k: int(v) for k, v in sorted(params.items())},
        "memory_cap_bytes": memory_cap_bytes,
        "io_model": {"read_bw": model.read_bw, "write_bw": model.write_bw},
        "knobs": {k: (sorted(v.items()) if isinstance(v, dict) else v)
                  for k, v in sorted(knobs.items()) if v is not None},
    }
    return _digest(payload)


def structure_key(program: Program, params: Mapping[str, int],
                  max_set_size: int | None = None,
                  max_candidates: int | None = None) -> str:
    """SHA-256 over everything the exhaustive Apriori walk reads: the
    program without its block geometry, the binding and the walk's bounds.
    The memory cap, the I/O model and the costing knobs are left out."""
    return _digest({
        "program": _program_signature(program, geometry=False),
        "bindings": {k: int(v) for k, v in sorted(params.items())},
        "max_set_size": max_set_size, "max_candidates": max_candidates,
    })


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _stat_signature(path: Path | None) -> tuple | None:
    """What identifies the file now at ``path``, or ``None`` without one.

    Entries are only ever replaced by ``os.rename`` of a new file, which
    changes the inode; size and mtime also catch an in-place rewrite or
    truncation by something that is not this class.
    """
    if path is None:
        return None
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns)


class PlanCache(obs_metrics.StatFields):
    """Directory of saved best plans, one ``<fingerprint>.json`` per entry,
    with the plans this object has loaded or stored kept ready in memory.

    ``hits``/``misses``/``stores`` count lookups and stores whichever tier
    served them; ``memory_hits`` is the share of ``hits`` that needed no
    analysis, ``invalidations`` counts memory entries dropped because the
    entry file was no longer the one they came from, and
    ``structure_hits`` counts misses re-costed from the structure tier.
    All are thin views over metrics counters (the service exposes them in
    its exposition dump); :meth:`bind` adopts them into a registry, done
    automatically when one is installed.

    :meth:`load` and :meth:`store` compute the fingerprint from the program
    and knobs; :meth:`lookup` and :meth:`insert` are the same two
    operations for a caller that already holds the fingerprint, and they
    carry the analysis along with the plan — ``insert`` takes the one the
    search ran on, ``lookup`` returns the one the plan is costed against.

    With ``root=None`` there is no disk tier, only the memory and structure
    tiers (what :class:`~repro.service.ArrayService` keeps by default).
    """

    _COUNTERS = ("hits", "misses", "stores", "memory_hits", "invalidations",
                 "structure_hits")

    fingerprint = staticmethod(optimization_fingerprint)
    structure_key = staticmethod(structure_key)

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = None if root is None else Path(root)
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self._init_stats("repro_plan_cache_")
        self._lock = threading.Lock()
        # fingerprint -> ((plan, analysis), stat signature), oldest first.
        self._memory: "OrderedDict[str, tuple[tuple, tuple]]" = OrderedDict()
        # structure key -> (opportunity labels, [(set, schedule), ...]).
        self._lattices: "OrderedDict[str, tuple[tuple, list]]" = OrderedDict()
        # fingerprint -> [lock, holders and waiters]; see flight().
        self._flights: dict[str, list] = {}
        registry = obs_metrics.CURRENT
        if registry is not None:
            self.bind(registry, cache=registry.seq("plan_cache"))

    # -- lookup ----------------------------------------------------------------

    def path_for(self, fingerprint: str) -> Path | None:
        return self.root and self.root / f"{fingerprint}.json"

    def load(self, program: Program, params: Mapping[str, int],
             memory_cap_bytes: int | None = None,
             io_model: IOModel | None = None, analysis=None,
             **knobs) -> Plan | None:
        """The cached best plan for this program and knobs — or ``None``.

        See :meth:`lookup`, which this calls with the fingerprint of its
        arguments.
        """
        entry = self.lookup(
            optimization_fingerprint(program, params, memory_cap_bytes,
                                     io_model, **knobs),
            program, params, io_model, analysis)
        return entry[0] if entry is not None else None

    def lookup(self, fingerprint: str, program: Program,
               params: Mapping[str, int], io_model: IOModel | None = None,
               analysis: ProgramAnalysis | None = None,
               count_miss: bool = True
               ) -> "tuple[Plan, ProgramAnalysis] | None":
        """The cached best plan and the analysis it is costed against.

        A hit skips the Apriori search entirely.  From memory it also skips
        the analysis: the entry is returned as this process last costed it,
        once one ``os.stat`` has confirmed the entry file is unchanged.
        From disk the sharing analysis and the single-schedule costing run
        (pass ``analysis`` to reuse one already computed) and the result is
        kept for the next lookup.  A cache file that no longer resolves
        against the program (stale directory reused across incompatible
        code versions) counts as a miss and is ignored (uncounted with
        ``count_miss=False``, for a probe repeated under :meth:`flight`).
        """
        path = self.path_for(fingerprint)
        # Taken before the file is read: if it is replaced in between, the
        # memory entry carries the older signature and the next lookup
        # reloads — never the other way round.
        signature = _stat_signature(path)
        with self._lock:
            entry = self._memory.get(fingerprint)
            if entry is not None:
                if entry[1] == signature:
                    self._memory.move_to_end(fingerprint)
                    self._hits.value += 1
                    self._memory_hits.value += 1
                    return entry[0]
                del self._memory[fingerprint]
                self._invalidations.value += 1
            if signature is None:
                self._misses.value += count_miss
                return None
        try:
            if analysis is None:
                analysis = analyze(program, param_values=params)
            plan = load_plan(path, program, analysis, params, io_model)
        except (ReproError, OSError, ValueError, KeyError):
            with self._lock:
                self._misses.value += count_miss
                # The file is damaged, or the fingerprint missed something
                # the analysis reads.  The structure key signs less than
                # the fingerprint, so its tier is not trusted either: the
                # next search of any program here runs cold.
                self._lattices.clear()
            return None
        with self._lock:
            self._hits.value += 1
            return self._remember(fingerprint, plan, analysis, signature)

    def _remember(self, fingerprint: str, plan: Plan,
                  analysis: ProgramAnalysis, signature: tuple
                  ) -> tuple[Plan, ProgramAnalysis]:
        """Keep an entry in the memory tier (lock held); returns the one
        kept — threads that loaded the same file concurrently all end up
        with the first one's plan."""
        entry = self._memory.get(fingerprint)
        if entry is None or entry[1] != signature:
            entry = self._memory[fingerprint] = ((plan, analysis), signature)
            while len(self._memory) > MEMORY_ENTRIES:
                self._memory.popitem(last=False)
        self._memory.move_to_end(fingerprint)
        return entry[0]

    def store(self, program: Program, params: Mapping[str, int], plan: Plan,
              memory_cap_bytes: int | None = None,
              io_model: IOModel | None = None, **knobs) -> Path:
        """Persist ``plan`` as the best for this fingerprint (atomic)."""
        return self.insert(
            optimization_fingerprint(program, params, memory_cap_bytes,
                                     io_model, **knobs), program, plan,
            **knobs)

    def insert(self, fingerprint: str, program: Program, plan: Plan,
               analysis: ProgramAnalysis | None = None, **knobs) -> Path | None:
        """Persist ``plan`` under ``fingerprint`` (atomic).  With the
        ``analysis`` the plan was costed against, the pair also enters the
        memory tier, so the next lookup need not re-derive it (without a
        root, nothing else keeps it).  ``knobs`` are the search's
        (as for :func:`optimization_fingerprint`); ``block_bytes`` is
        saved so a disk load re-costs under it."""
        path = self.path_for(fingerprint)
        signature = None
        if path is not None:
            tmp = path.parent / f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
            save_plan(tmp, plan, program, block_bytes=knobs.get("block_bytes"))
            # Of the file this call wrote — rename keeps inode, size and mtime
            # — not of whatever a concurrent writer renamed over it afterwards.
            signature = _stat_signature(tmp)
            os.rename(tmp, path)
        with self._lock:
            self._stores.value += 1
            # Whatever memory held belonged to the file just replaced.
            self._memory.pop(fingerprint, None)
            if analysis is not None:
                self._remember(fingerprint, plan, analysis, signature)
        return path

    @contextmanager
    def flight(self, fingerprint: str):
        """Held by one caller per fingerprint at a time: a miss waits here
        for a search of its fingerprint under way, then looks up again."""
        with self._lock:
            entry = self._flights.setdefault(fingerprint, [threading.Lock(), 0])
            entry[1] += 1
        try:
            with entry[0]:
                yield
        finally:
            with self._lock:
                entry[1] -= 1
                if not entry[1]:
                    del self._flights[fingerprint]

    # -- the structure tier --------------------------------------------------------

    def lattice(self, key: str, labels: tuple
                ) -> "list[tuple[frozenset[int], Schedule]] | None":
        """The feasible sets and schedules, in test order, of the walk
        stored under ``key`` — if its analysis found the same ``labels``
        (each opportunity's label and ``reduced`` flag, in order); ``None``
        otherwise.  A hit counts in ``structure_hits``.  The schedules are
        shared, not copied: nothing mutates a ``Schedule`` once the search
        has made it."""
        with self._lock:
            entry = self._lattices.get(key)
            if entry is None or entry[0] != labels:
                return None
            self._lattices.move_to_end(key)
            self._structure_hits.value += 1
            return entry[1]

    def keep_lattice(self, key: str, labels: tuple,
                     found: "list[tuple[frozenset[int], Schedule]]") -> None:
        """Store an exhaustive walk's feasible sets and schedules under
        ``key``, replacing whatever was there."""
        with self._lock:
            self._lattices[key] = (labels, found)
            self._lattices.move_to_end(key)
            while len(self._lattices) > MEMORY_ENTRIES:
                self._lattices.popitem(last=False)

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        if self.root is None:
            with self._lock:
                return len(self._memory)
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        with self._lock:
            n = len(self._memory) if self.root is None else 0
            self._memory.clear()
            self._lattices.clear()
        if self.root is not None:
            for path in self.root.glob("*.json"):
                path.unlink()
                n += 1
        return n

    def __repr__(self) -> str:
        return (f"PlanCache({self.root}, {len(self)} plans, "
                f"hits={self.hits} ({self.memory_hits} from memory), "
                f"misses={self.misses})")
