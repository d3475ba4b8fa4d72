"""The costing event table: built once per program and binding, reused by
every plan, and producing the same traces the per-plan enumeration did.

``trace_plan`` takes each statement's schedule-independent events from
:meth:`repro.ir.Statement.events` and each realized co-access's pairs from
:meth:`repro.analysis.CoAccess.event_pairs`; only time vectors, one sort
and the save / downgrade / elide / memory passes are per plan.
"""

import hashlib
import importlib.util
import pathlib
import sys
import threading

import pytest

from repro import optimize
from repro.analysis import CoAccess, analyze
from repro.codegen import build_executable_plan
from repro.ir import Access, Schedule, Statement
from repro.optimizer import evaluate_plan
from tests.fixtures import example1_program

P = {"n1": 3, "n2": 2, "n3": 2}

GOLDEN_DIR = (pathlib.Path(__file__).resolve().parents[1] / "fixtures"
              / "golden_plans")
_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", GOLDEN_DIR / "regenerate.py")
_regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_regen)


@pytest.fixture(scope="module")
def case():
    prog = example1_program()
    return prog, optimize(prog, P).best()


class _Spy:
    """Counts calls of the functions that enumerate instances and pairs."""

    TARGETS = [(Statement, "instances"), (Access, "block_at"),
               (Access, "guard_holds"), (CoAccess, "pairs")]

    def __init__(self, monkeypatch):
        self.calls = {name: 0 for _, name in self.TARGETS}
        for cls, name in self.TARGETS:
            monkeypatch.setattr(cls, name, self._counted(getattr(cls, name),
                                                         name))

    def _counted(self, fn, name):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def test_second_plan_enumerates_nothing(monkeypatch):
    prog = example1_program()
    analysis = analyze(prog, param_values=P)
    realized = list(analysis.opportunities)
    spy = _Spy(monkeypatch)
    first = evaluate_plan(prog, P, Schedule.original(prog), realized)
    assert spy.calls["instances"] and spy.calls["block_at"] \
        and spy.calls["guard_holds"] and spy.calls["pairs"]
    spy.calls = dict.fromkeys(spy.calls, 0)
    second = evaluate_plan(prog, P, Schedule.original(prog), realized)
    assert spy.calls == dict.fromkeys(spy.calls, 0)
    assert [getattr(second, f) for f in second.__slots__] \
        == [getattr(first, f) for f in first.__slots__]


def test_other_bindings_and_block_sizes_get_their_own_numbers():
    prog = example1_program()
    s1, s2 = prog.statements
    small = {"n1": 2, "n2": 2, "n3": 1}
    assert s1.events(P) is s1.events(dict(P))
    assert s1.events(small) is not s1.events(P)
    assert len(s1.events(small).inst) == 4 * 3  # 4 instances, 2 reads + 1 write
    sched = Schedule.original(prog)
    base = evaluate_plan(prog, small, sched, [])
    doubled = {name: 2 * arr.block_bytes for name, arr in prog.arrays.items()}
    bigger = evaluate_plan(prog, small, sched, [], block_bytes=doubled)
    again = evaluate_plan(prog, small, sched, [])
    assert bigger.read_bytes == 2 * base.read_bytes
    assert bigger.write_bytes == 2 * base.write_bytes
    assert [getattr(again, f) for f in again.__slots__] \
        == [getattr(base, f) for f in base.__slots__]


def _order(ep) -> list:
    return [(inst.stmt.name, inst.point,
             [(pa.access.array.name, pa.block, pa.action.value, pa.pin_after,
               pa.unpin_before)
              for pa in inst.reads + ([inst.write] if inst.write else [])])
            for inst in ep.instances]


def test_threads_building_one_program_agree(case):
    """The service builds executable plans per job on shared program
    objects: threads racing to fill the same statement tables and
    co-access positions must all see the single-threaded plan."""
    prog, best = case
    reference = build_executable_plan(prog, P, best)
    expected = (_order(reference), reference.io_summary())
    nthreads = 6
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            fresh = example1_program()  # no tables yet: every thread builds
            results, errors = [None] * nthreads, []
            barrier = threading.Barrier(nthreads)

            def build(slot):
                try:
                    barrier.wait()
                    ep = build_executable_plan(fresh, P, best)
                    results[slot] = (_order(ep), ep.io_summary())
                except Exception as exc:  # reported below
                    errors.append(exc)

            threads = [threading.Thread(target=build, args=(i,))
                       for i in range(nthreads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert not errors
            assert results == [expected] * nthreads
    finally:
        sys.setswitchinterval(switch)


def digest(ep) -> str:
    return hashlib.sha256(repr(_order(ep)).encode()).hexdigest()[:16]


# build_executable_plan of each golden case's (pruned-search) best plan, as
# produced by the per-plan instance enumeration the event table replaced.
EXPECTED = {
    "example1": ("4f5578fe644361b2",
                 {"read": 18, "reuse": 9, "write": 3, "write_skip": 9}),
    "add_multiply": ("18fc22accf84bc19",
                     {"read": 36, "reuse": 20, "write": 4, "write_skip": 20}),
    "two_matmul_B": ("708125e73484da59",
                     {"read": 92, "reuse": 36, "write": 48, "write_skip": 0}),
    "two_matmul_A": ("e11eda9c7712524b",
                     {"read": 108, "reuse": 36, "write": 18, "write_skip": 36}),
    "linreg": ("348bfde08b9e1903",
               {"read": 16, "reuse": 28, "write": 2, "write_skip": 20}),
}


@pytest.mark.parametrize("name", [
    pytest.param("example1"),
    pytest.param("add_multiply"),
    pytest.param("two_matmul_B"),
    pytest.param("two_matmul_A", marks=pytest.mark.slow),
    pytest.param("linreg", marks=pytest.mark.slow),
])
def test_golden_best_plans_execute_as_before(name):
    program, params, knobs = _regen.build_case(name)
    best = optimize(program, params, prune=True, **knobs).best()
    ep = build_executable_plan(program, params, best)
    assert (digest(ep), ep.io_summary()) == EXPECTED[name]
