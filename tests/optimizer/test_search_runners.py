"""The level-wise search gives the same answer on either runner.

``workers=1`` runs the walk on the serial runner (one candidate per chunk);
``workers=2`` runs the same walk on the process pool (one level per chunk).
Under every budget setting, with the bound on or off and with or without a
memory cap:

* exhaustive search returns the same plan list and the same search
  accounting on both runners (only the worker and task counters differ);
* bound-pruned search chooses the same plan after testing the same
  candidates (its incumbent moves per plan on one runner and per level on
  the other, so ``cost_skips`` may differ; on these programs the bound
  never ends the walk early).

The second half pins ``bound_exits``: it counts an early termination only
when the bound actually left candidates untested, and where it does, the
pool's lagging incumbent tests more of them than the serial runner.
"""

import functools

import pytest

from repro import optimize
from repro.ir import ProgramBuilder
from repro.optimizer import IOModel
from repro.workloads.generator import random_program
from tests.fixtures import example1_program

PROGRAMS = {
    "example1": (example1_program, {"n1": 2, "n2": 2, "n3": 1}),
    "fuzz1": (lambda: random_program(1, n_statements=3), {"n": 3}),
    "fuzz9": (lambda: random_program(9, n_statements=3), {"n": 3}),
}
BUDGETS = {
    "unbounded": {},
    "max_candidates=0": {"max_candidates": 0},
    "max_candidates=2": {"max_candidates": 2},
    "max_candidates=4": {"max_candidates": 4},
    "max_candidates=7": {"max_candidates": 7},
    "max_set_size=1": {"max_set_size": 1},
}
# Everything AprioriStats accounts for except wall clocks and the worker /
# task counters, which differ between runners by design.
SAME_STATS = ("candidates_tested", "feasible", "total_subsets", "truncated",
              "pool_restarts", "sequential_fallbacks", "cost_skips",
              "bound_exits", "io_lower_bound", "level_candidates",
              "level_feasible", "level_generated", "level_costed")


@functools.cache
def _program(name):
    """(program, params, the median memory footprint of its plans)."""
    build, params = PROGRAMS[name]
    program = build()
    sizes = sorted({p.cost.memory_bytes
                    for p in optimize(program, params).plans})
    return program, params, sizes[len(sizes) // 2]


def _plan_list(result):
    return [(p.index, tuple(p.realized_labels), p.cost.io_seconds,
             p.cost.read_bytes, p.cost.write_bytes, p.cost.memory_bytes)
            for p in result.plans]


def _best(result, cap):
    b = result.best(cap)
    return (tuple(b.realized_labels), b.cost.io_seconds, b.cost.memory_bytes)


@pytest.mark.parametrize("capped", [False, True], ids=["nocap", "cap"])
@pytest.mark.parametrize("prune", [False, True], ids=["exhaustive", "pruned"])
@pytest.mark.parametrize("budget", list(BUDGETS))
@pytest.mark.parametrize("name", list(PROGRAMS))
def test_pool_runner_matches_serial_runner(name, budget, prune, capped):
    program, params, cap = _program(name)
    cap = cap if capped else None
    kw = dict(memory_cap_bytes=cap, prune=prune, **BUDGETS[budget])
    serial = optimize(program, params, workers=1, **kw)
    pool = optimize(program, params, workers=2, **kw)

    assert serial.stats.workers == 1 and pool.stats.workers == 2
    assert _best(pool, cap) == _best(serial, cap)
    if prune:
        for field in ("feasible", "candidates_tested", "truncated",
                      "io_lower_bound"):
            assert getattr(pool.stats, field) == \
                getattr(serial.stats, field), field
    else:
        assert _plan_list(pool) == _plan_list(serial)
        for field in SAME_STATS:
            assert getattr(pool.stats, field) == \
                getattr(serial.stats, field), field


# -- bound_exits -------------------------------------------------------------

# Equal bandwidths make every per-opportunity savings bound tight, so the
# incumbent meets the global bound exactly when the lattice is exhausted.
TIGHT = IOModel(read_bw=1e6, write_bw=1e6)


def _fanout_program():
    """One generated intermediate read by two statements.

    Realizing both of ``s1``'s write-to-read shares leaves no I/O at all,
    which meets the (clamped) global lower bound of zero at level 2 while
    a 2-set and the 3-set are still untested.
    """
    b = ProgramBuilder("fanout", params=("n",))
    c = b.array("C", dims=("n",), block_shape=(10,), kind="intermediate")
    e = b.array("E", dims=("n",), block_shape=(10,), kind="intermediate")
    f = b.array("F", dims=("n",), block_shape=(10,), kind="intermediate")
    with b.loop("i", 0, "n"):
        b.statement("s1", kernel="fill", write=c["i"], reads=[])
    with b.loop("i", 0, "n"):
        b.statement("s2", kernel="copy", write=e["i"], reads=[c["i"]])
    with b.loop("i", 0, "n"):
        b.statement("s3", kernel="copy", write=f["i"], reads=[c["i"]])
    return b.build()


@pytest.mark.parametrize("program, params", [
    (example1_program(), {"n1": 1, "n2": 1, "n3": 1}),
    (random_program(3, n_statements=1), {"n": 2}),
    # No usable opportunity at all: the walk has nothing to test.
    (random_program(0, n_statements=1), {"n": 2}),
], ids=["example1-n1", "fuzz3-1stmt", "no-usable"])
def test_no_exit_counted_when_the_lattice_is_exhausted(program, params):
    exhaustive = optimize(program, params, io_model=TIGHT)
    serial = optimize(program, params, io_model=TIGHT, prune=True, workers=1)
    pool = optimize(program, params, io_model=TIGHT, prune=True, workers=2)
    for result in (serial, pool):
        assert result.stats.bound_exits == 0
        assert result.stats.candidates_tested == \
            exhaustive.stats.candidates_tested
        assert result.stats.level_candidates == \
            exhaustive.stats.level_candidates
        assert _best(result, None) == _best(exhaustive, None)


def test_bound_exit_skips_untested_candidates():
    """An exit the default I/O model really takes, on both runners."""
    program, params = _fanout_program(), {"n": 4}
    exhaustive = optimize(program, params)
    assert exhaustive.stats.candidates_tested == 7
    assert exhaustive.best().cost.io_seconds == 0.0
    serial = optimize(program, params, prune=True, workers=1)
    pool = optimize(program, params, prune=True, workers=2)
    # The serial incumbent moves after every plan, so the walk stops right
    # after the first zero-I/O plan; the pool finishes that level first.
    assert serial.stats.candidates_tested == 4
    assert pool.stats.candidates_tested == 6
    for result in (serial, pool):
        assert result.stats.bound_exits == 1
        assert result.stats.io_lower_bound == 0.0
        assert _best(result, None) == _best(exhaustive, None)
