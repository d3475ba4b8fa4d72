"""Stage-by-stage replay of one job through the public calls that
``run_program`` and the thread backend of ``ArrayService`` make, with a span
around each call into a layer.

``execute_plan`` takes its ``stores`` mapping and its ``pool=`` argument from
the caller, so store and pool time are measured at that seam by handing it
timing proxies.  A store read issued by a pool loader nests under the pool
span, and self time (span minus children) keeps it out of the pool's share.
Spans stay in memory; :meth:`Recorder.dump` writes them when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from repro.codegen import build_executable_plan
from repro.engine import execute_plan
from repro.ir import ArrayKind
from repro.service import JobPoolView
from repro.storage import DAFMatrix, make_disk

_clock = time.perf_counter


class _Span:
    __slots__ = ("rec", "index")

    def __init__(self, rec: "Recorder", index: int):
        self.rec = rec
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        rec = self.rec
        rec.spans[self.index][2] = _clock()
        rec.current = rec.spans[self.index][3]


class Recorder:
    """In-memory span list: ``[name, start, end, parent, job]`` per span."""

    def __init__(self):
        self.spans: list[list] = []
        self.current = -1
        self.job = None

    def span(self, name: str) -> _Span:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.current, self.job])
        self.current = index
        self.spans[index][1] = _clock()
        return _Span(self, index)

    def totals(self, first: int = 0) -> tuple[dict, dict, dict]:
        """(duration, self time, call count) by span name, from span
        ``first`` on."""
        dur: dict = defaultdict(float)
        selft: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        child = defaultdict(float)
        for name, start, end, parent, _job in self.spans[first:]:
            d = end - start
            dur[name] += d
            calls[name] += 1
            if parent >= first:
                child[parent] += d
        for i, (name, start, end, _p, _j) in enumerate(self.spans[first:],
                                                       first):
            selft[name] += (end - start) - child.get(i, 0.0)
        return dur, selft, calls

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "job")
        with open(path, "w") as fh:
            json.dump({"fields": keys, "spans": self.spans}, fh)


class TimedStore:
    """Times the two block calls the executor makes; the rest passes through."""

    def __init__(self, store, rec: Recorder):
        self._store = store
        self._rec = rec

    def read_block(self, coords, count=True):
        with self._rec.span("storage.read_block"):
            return self._store.read_block(coords, count)

    def write_block(self, coords, block, count=True):
        with self._rec.span("storage.write_block"):
            return self._store.write_block(coords, block, count)

    def __getattr__(self, name):
        return getattr(self._store, name)


class TimedPool:
    """Times every pool call the executor's serial loop makes."""

    thread_safe = True  # prefetch is off in every workload; nothing wraps us

    def __init__(self, pool, rec: Recorder):
        self._pool = pool
        self._rec = rec

    def contains(self, key):
        with self._rec.span("buffer.contains"):
            return self._pool.contains(key)

    def fetch(self, key, loader, pin=0):
        with self._rec.span("buffer.fetch"):
            return self._pool.fetch(key, loader, pin=pin)

    def put(self, key, data, dirty=False, pin=0, force=False):
        with self._rec.span("buffer.put"):
            return self._pool.put(key, data, dirty, pin=pin, force=force)

    def pin(self, key):
        with self._rec.span("buffer.pin"):
            return self._pool.pin(key)

    def unpin(self, key):
        with self._rec.span("buffer.unpin"):
            return self._pool.unpin(key)

    def release_if_unpinned(self, key, force=False):
        with self._rec.span("buffer.release_if_unpinned"):
            return self._pool.release_if_unpinned(key, force)

    def __getattr__(self, name):
        return getattr(self._pool, name)


#: The direct children of a ``job`` span; their sum over the job span is
#: ``bench.stage_coverage``.
STAGES = ("analysis.analyze", "plan_cache.load", "codegen.build",
          "storage.create", "storage.ingest", "storage.prealloc",
          "engine.execute", "storage.read_out", "buffer.sweep",
          "storage.close")


def replay_job(rec: Recorder, job, program, params, inputs, pool, *,
               disk=None, workdir=None, plan=None, plan_source=None,
               plan_exact=True, datasets=None, dataset_ids=None):
    """One job, stage by stage.  Returns ``(report, outputs, exec_plan)``.

    Two shapes, as in the code under test.  With ``workdir`` the job owns
    its disk, as in ``run_program``: the disk is made first and stores and
    disk are closed last.  With ``disk`` the job runs on a service's
    long-lived disk: ``pool`` is its ``SharedBufferPool`` (a ``JobPoolView``
    goes in front and the job's blocks are swept afterwards), and nothing is
    closed, because the thread backend closes nothing.

    ``plan_source(rec)`` stands for the planning a job does when no plan is
    pinned (it records its own spans).  ``datasets``/``dataset_ids`` model
    the service's content-addressed catalog: an INPUT whose id is already in
    ``datasets`` is neither created nor ingested again.
    """
    rec.job = job
    own_disk = disk is None
    with rec.span("job"):
        if plan is None:
            plan = plan_source(rec)
        if own_disk:
            with rec.span("storage.create"):
                disk = make_disk(workdir)
        with rec.span("codegen.build"):
            exec_plan = build_executable_plan(program, params, plan)

        stores, names = {}, {}
        if datasets is None:
            datasets = {}
        for name, arr in program.arrays.items():
            grid = arr.num_blocks(params)
            if arr.kind is ArrayKind.INPUT:
                gname = f"ds_{dataset_ids[name]}" if dataset_ids \
                    else f"{job}__{name}"
                store = datasets.get(gname)
                if store is None:
                    with rec.span("storage.create"):
                        store = DAFMatrix.create(disk, gname, grid,
                                                 arr.block_shape)
                    with rec.span("storage.ingest"):
                        store.write_matrix(inputs[name], count=False)
                    datasets[gname] = store
            else:
                gname = f"{job}__{name}"
                with rec.span("storage.create"):
                    store = DAFMatrix.create(disk, gname, grid,
                                             arr.block_shape)
                with rec.span("storage.prealloc"):
                    store.preallocate()
            stores[name] = store
            names[name] = gname

        view = pool if own_disk else JobPoolView(pool, names, owner=job)
        timed_stores = {n: TimedStore(s, rec) for n, s in stores.items()}
        with rec.span("engine.execute"):
            report = execute_plan(exec_plan, timed_stores, disk,
                                  plan_exact=plan_exact,
                                  pool=TimedPool(view, rec))
        with rec.span("storage.read_out"):
            outputs = {n: stores[n].read_matrix(count=False)
                       for n, arr in program.arrays.items()
                       if arr.kind is ArrayKind.OUTPUT}
        if not own_disk:
            prefix = f"{job}__"
            with rec.span("buffer.sweep"):
                pool.release_owner(job)
                pool.drop_matching(lambda k: k[0].startswith(prefix),
                                   force=True)
        if own_disk:
            with rec.span("storage.close"):
                for store in stores.values():
                    store.close()
                disk.close()
    rec.job = None
    return report, outputs, exec_plan
