"""Tests for FindSchedule (Algorithm 3), EnumRow (Algorithm 1) and the
Apriori enumeration (Algorithm 2), on the paper's Example 1."""

import pytest

from repro.analysis import analyze
from repro.exceptions import OptimizationError
from repro.ir import lex_less
from repro.optimizer import (ConstraintCache, enum_row, enumerate_feasible_sets,
                             find_schedule, optimize)
from repro.workloads.generator import random_program
from tests.fixtures import example1_program

P = {"n1": 3, "n2": 2, "n3": 1}


@pytest.fixture(scope="module")
def prog():
    return example1_program()


@pytest.fixture(scope="module")
def analysis(prog):
    return analyze(prog, param_values=P)


@pytest.fixture(scope="module")
def cache(prog):
    return ConstraintCache(prog)


@pytest.fixture(scope="module")
def result(prog):
    return optimize(prog, P)


class TestEnumRow:
    def test_forced_independent(self):
        # d~=3, row 1, statement depth 3, no independent rows yet: 3-0 == 3-0
        assert enum_row(3, 1, 3, 0) == [1]

    def test_free_choice_for_shallow_statement(self):
        # depth-2 statement at row 1 of a 3-row schedule has slack
        assert enum_row(3, 1, 2, 0) == [0, 1]

    def test_forced_after_slack_used(self):
        # depth-2 statement at row 2 with 0 independent rows: 3-1 == 2-0
        assert enum_row(3, 2, 2, 0) == [1]

    def test_done_statement_keeps_choice(self):
        # all rows found already: 3-2 = 1 != 0 = 2-2
        assert enum_row(3, 3, 2, 2) == [0, 1]


class TestFindSchedule:
    def test_empty_set_finds_schedule(self, prog, cache, analysis):
        sched = find_schedule(prog, cache, [], analysis.dependences)
        assert sched is not None

    def test_paper_plan7_set_feasible(self, prog, cache, analysis):
        opps = [analysis.opportunity("s1WC->s2RC"),
                analysis.opportunity("s2WE->s2RE"),
                analysis.opportunity("s2WE->s2WE")]
        sched = find_schedule(prog, cache, opps, analysis.dependences)
        assert sched is not None

    def test_conflicting_set_infeasible(self, prog, cache, analysis):
        """E-pinning needs k innermost; D-sharing needs i innermost."""
        opps = [analysis.opportunity("s2WE->s2RE"),
                analysis.opportunity("s2RD->s2RD")]
        assert find_schedule(prog, cache, opps, analysis.dependences) is None

    def test_schedules_are_legal(self, prog, analysis, result):
        """Every dependence pair executes in order under every plan."""
        for plan in result.plans:
            for dep in analysis.dependences:
                src_s = dep.co.src.statement
                tgt_s = dep.co.tgt.statement
                for (ps, pt) in dep.co.pairs(P):
                    ts = plan.schedule.time_vector(src_s, ps, P)
                    tt = plan.schedule.time_vector(tgt_s, pt, P)
                    assert lex_less(ts, tt), (
                        f"plan {plan.index} violates {dep.label} at {ps}->{pt}")

    def test_realized_pairs_are_adjacent(self, prog, result):
        """Table 1 semantics: realized non-self pairs differ only in the
        constant dimension; self pairs are consecutive at the last depth."""
        for plan in result.plans:
            for opp in plan.realized:
                src_s, tgt_s = opp.co.src.statement, opp.co.tgt.statement
                for (ps, pt) in opp.co.pairs(P):
                    ts = plan.schedule.time_vector(src_s, ps, P)
                    tt = plan.schedule.time_vector(tgt_s, pt, P)
                    if opp.is_self:
                        assert ts[:-2] == tt[:-2]
                        assert abs(ts[-2] - tt[-2]) == 1
                    else:
                        assert ts[:-1] == tt[:-1]
                        assert ts[-1] != tt[-1]


class TestApriori:
    def test_plan_count_example1(self, result):
        """Paper Section 6.1 reports 8 legal plans; our search finds the same
        sharing-opportunity lattice plus two extra feasible combinations
        (documented in EXPERIMENTS.md)."""
        assert len(result.plans) == 10

    def test_empty_set_is_plan0(self, result):
        assert result.plans[0].is_original

    def test_apriori_downward_closure(self, prog, analysis, cache):
        """Every subset of a feasible set is feasible (Lemma 2 sanity)."""
        feasible, _ = enumerate_feasible_sets(analysis, cache)
        keys = {k for k, _ in feasible}
        for k in keys:
            for drop in k:
                assert (k - {drop}) in keys

    def test_stats_accounting(self, prog, analysis, cache):
        feasible, stats = enumerate_feasible_sets(analysis, cache)
        assert stats.feasible == len(feasible) - 1  # minus the empty set
        assert stats.candidates_tested <= stats.total_subsets
        assert 0.0 <= stats.pruned_fraction <= 1.0

    def test_max_set_size_truncates(self, prog, analysis, cache):
        feasible, stats = enumerate_feasible_sets(
            analysis, cache, max_set_size=1, include_greedy_maximal=False)
        assert all(len(k) <= 1 for k, _ in feasible)

    def test_truncation_adds_greedy_maximal(self, prog, analysis, cache):
        feasible, stats = enumerate_feasible_sets(
            analysis, cache, max_set_size=1, include_greedy_maximal=True)
        assert stats.truncated
        sizes = sorted(len(k) for k, _ in feasible)
        assert sizes[-1] > 1  # the greedily grown maximal set

    def test_budget_truncation(self, prog, analysis, cache):
        feasible, stats = enumerate_feasible_sets(
            analysis, cache, max_candidates=5, include_greedy_maximal=False)
        assert stats.candidates_tested <= 5 or stats.truncated


class TestBudgetAccounting:
    """Regression tests for the budget bugs: level 1 ignored
    ``max_candidates`` entirely, and a budget exhausted exactly at a level
    boundary exited without setting ``stats.truncated`` (silently skipping
    the greedy-maximal fallback)."""

    def test_level1_respects_budget(self, prog, analysis, cache):
        feasible, stats = enumerate_feasible_sets(
            analysis, cache, max_candidates=2, include_greedy_maximal=False)
        assert stats.candidates_tested == 2
        assert stats.truncated
        assert all(len(k) <= 1 for k, _ in feasible)

    def test_boundary_exhaustion_marks_truncated(self, prog, analysis, cache):
        """Example 1 has 4 usable opportunities, all feasible as singletons,
        and 6 level-2 candidates.  A budget of exactly 4 runs dry at the
        level boundary: level 2 was never entered, so the search IS
        truncated even though no mid-level break happened."""
        feasible, stats = enumerate_feasible_sets(
            analysis, cache, max_candidates=4, include_greedy_maximal=False)
        assert stats.candidates_tested == 4
        assert stats.truncated
        assert all(len(k) <= 1 for k, _ in feasible)

    def test_boundary_exhaustion_adds_greedy_fallback(self, prog, analysis,
                                                      cache):
        """The truncated flag is what gates the greedy-maximal completion;
        the boundary bug therefore silently dropped that plan."""
        feasible, stats = enumerate_feasible_sets(
            analysis, cache, max_candidates=4, include_greedy_maximal=True)
        assert stats.truncated
        assert max(len(k) for k, _ in feasible) > 1  # the grown maximal set

    def test_untruncated_run_stays_untruncated(self, prog, analysis, cache):
        feasible, stats = enumerate_feasible_sets(
            analysis, cache, max_candidates=10_000,
            include_greedy_maximal=True)
        assert not stats.truncated
        assert len(feasible) == 10  # the full Example-1 plan space


class TestSelection:
    def test_best_is_min_io(self, result):
        best = result.best()
        assert all(best.cost.io_seconds <= p.cost.io_seconds for p in result.plans)

    def test_best_respects_memory_cap(self, result):
        lows = sorted({p.cost.memory_bytes for p in result.plans})
        cap = lows[0]  # only the smallest-footprint plans fit
        best = result.best(memory_cap_bytes=cap)
        assert best.cost.memory_bytes <= cap

    def test_impossible_cap_raises(self, result):
        with pytest.raises(OptimizationError):
            result.best(memory_cap_bytes=1)

    def test_plan_for_lookup(self, result):
        plan = result.plan_for(["s1WC->s2RC"])
        assert plan.realized_labels == ["s1WC->s2RC"]
        with pytest.raises(OptimizationError):
            result.plan_for(["bogus"])

    def test_best_plan_is_papers(self, result):
        assert set(result.best().realized_labels) == {
            "s1WC->s2RC", "s2WE->s2RE", "s2WE->s2WE"}


class TestTruncationAtMaxSetSize:
    """A walk that stops at ``max_set_size`` is truncated only when the
    next level has candidates: ``random_program(7, n_statements=3)`` at
    n=3 has two usable opportunities, so ``max_set_size=2`` walks the
    whole lattice and must not add a greedy-maximal completion."""

    def test_complete_walk_is_not_truncated(self):
        program, params = random_program(7, n_statements=3), {"n": 3}
        capped = optimize(program, params, max_set_size=2)
        full = optimize(program, params)
        stats = capped.stats
        assert stats.total_subsets == 3
        assert not stats.truncated
        assert stats.candidates_tested == 3
        assert 0.0 <= stats.pruned_fraction <= 1.0

        def plans(result):
            return [(p.index, tuple(p.realized_labels), p.cost.io_seconds,
                     p.cost.read_bytes, p.cost.write_bytes,
                     p.cost.memory_bytes) for p in result.plans]

        assert plans(capped) == plans(full)
