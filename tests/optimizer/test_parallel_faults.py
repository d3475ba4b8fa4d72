"""Crash tolerance of the process-pool runner.

A worker crash surfaces as :class:`BrokenProcessPool` on the driver.  The
contract (mirroring the storage layer's retry discipline): restart the pool
once and re-run the fan-out — re-running is sound because legality tests
and costings are pure and cache merges idempotent — and if the restarted
pool breaks too, degrade permanently to the serial runner over the master
cache.  Either way the results are bit-identical to the serial search; only
``AprioriStats.pool_restarts`` / ``sequential_fallbacks`` reveal the crash.
"""

from concurrent.futures.process import BrokenProcessPool
from functools import partial

import pytest

from repro.analysis import analyze
from repro.optimizer import IOModel
from repro.optimizer.apriori import AprioriStats, SerialRunner, search
from repro.optimizer.costing import IOBound, evaluate_plan
from repro.optimizer.parallel import ParallelOptimizerPool
from tests.fixtures import example1_program

P = {"n1": 2, "n2": 2, "n3": 1}


class _BrokenPool:
    """An executor whose workers are already dead."""

    def submit(self, *args, **kwargs):
        raise BrokenProcessPool("worker died")

    def shutdown(self, *args, **kwargs):
        pass


@pytest.fixture(scope="module")
def prog():
    return example1_program()


@pytest.fixture(scope="module")
def analysis(prog):
    return analyze(prog, param_values=P)


@pytest.fixture(scope="module")
def evaluate(prog):
    return partial(evaluate_plan, prog, P, io_model=IOModel())


@pytest.fixture(scope="module")
def bound(prog, analysis):
    return IOBound(prog, P, IOModel(), analysis.opportunities)


@pytest.fixture(scope="module")
def seq(analysis, evaluate):
    return search(analysis, SerialRunner(analysis, evaluate=evaluate))


@pytest.fixture(scope="module")
def seq_pruned(analysis, evaluate, bound):
    return search(analysis, SerialRunner(analysis, evaluate=evaluate),
                  bound=bound)


def _keys(found):
    return [idx_set for idx_set, _, _ in found]


def _items(found):
    return [(idx_set, schedule) for idx_set, schedule, _ in found]


def _best(found):
    """The chosen plan: cheapest, ties to the earlier index."""
    i = min(range(len(found)), key=lambda i: (found[i][2].io_seconds, i))
    return found[i][0], found[i][2].io_seconds


def _break(pool, restarted_too=False):
    pool._pool.shutdown(wait=False)
    pool._pool = _BrokenPool()
    if restarted_too:
        pool._spawn_pool = lambda: _BrokenPool()


def test_broken_pool_restarts_once_and_matches_sequential(analysis, evaluate,
                                                          seq):
    seq_found, _ = seq
    with ParallelOptimizerPool(analysis, evaluate, workers=2) as pool:
        _break(pool)
        found, stats = search(analysis, pool)
        assert stats.pool_restarts == 1
        assert stats.sequential_fallbacks == 0
        assert not pool._degraded
        assert _keys(found) == _keys(seq_found)


def test_double_break_degrades_to_sequential(analysis, evaluate, seq):
    seq_found, seq_stats = seq
    with ParallelOptimizerPool(analysis, evaluate, workers=2) as pool:
        # The "restarted" pool is broken too: permanent degradation.
        _break(pool, restarted_too=True)
        found, stats = search(analysis, pool)
        assert stats.pool_restarts == 1
        assert stats.sequential_fallbacks >= 1
        assert pool._degraded
        assert _keys(found) == _keys(seq_found)
        assert stats.candidates_tested == seq_stats.candidates_tested
        assert stats.feasible == seq_stats.feasible
        # Costing on a degraded pool never touches a pool again.
        costs = pool.cost(_items(found), stats)
        assert len(costs) == len(found)
        assert all(c is not None for c in costs)


def test_costing_survives_broken_pool(analysis, evaluate, seq):
    seq_found, _ = seq
    with ParallelOptimizerPool(analysis, evaluate, workers=2) as pool:
        healthy = pool.cost(_items(seq_found), AprioriStats())
        _break(pool, restarted_too=True)
        stats = AprioriStats()
        degraded = pool.cost(_items(seq_found), stats)
        assert stats.sequential_fallbacks >= 1
        assert [c.io_seconds for c in degraded] == \
            [c.io_seconds for c in healthy]
        assert [c.total_bytes for c in degraded] == \
            [c.total_bytes for c in healthy]


@pytest.mark.parametrize("restarted_too", [False, True],
                         ids=["restart", "degrade"])
def test_pruned_search_survives_broken_pool(analysis, evaluate, bound,
                                            seq_pruned, restarted_too):
    seq_found, seq_stats = seq_pruned
    with ParallelOptimizerPool(analysis, evaluate, workers=2) as pool:
        _break(pool, restarted_too)
        found, stats = search(analysis, pool, bound=bound)
        assert stats.pool_restarts == 1
        assert pool._degraded == restarted_too
        assert (stats.sequential_fallbacks >= 1) == restarted_too
        assert _best(found) == _best(seq_found)
        assert stats.feasible == seq_stats.feasible
        assert stats.io_lower_bound == seq_stats.io_lower_bound
