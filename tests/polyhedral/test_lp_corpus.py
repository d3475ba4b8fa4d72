"""An LP corpus the kernel under test did not write.

``tests/fixtures/lp_corpus.json`` holds a few hundred distinct LPs with
their answers, recorded during cold ``optimize()`` runs of the Table 2
(add+multiply) and Table 3-B (two matmuls) programs by the row-by-row
simplex kernel that the whole-tableau kernel replaced: emptiness tests
(feasible and infeasible), min and max objective LPs (bounded and
unbounded), and branch-and-bound branches.  Exact arithmetic plus Bland's
rule fix the pivot sequence, so any exact tableau must return every
recorded status, value and witness point, on both arithmetic backends.
Regenerating the file with the kernel it checks would make this test
vacuous.
"""

import json
import pathlib
from collections import Counter
from fractions import Fraction

import pytest

from repro.polyhedral.simplex import KERNEL_STATS, set_fast_path, solve_lp

CORPUS = (pathlib.Path(__file__).resolve().parents[1] / "fixtures"
          / "lp_corpus.json")


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())["lps"]


@pytest.fixture
def backend(request):
    previous = set_fast_path(request.param)
    yield request.param
    set_fast_path(previous)


def _solve(lp):
    objective = lp["objective"]
    if objective is not None and lp["rational_objective"]:
        objective = [Fraction(v) for v in objective]
    return solve_lp([tuple(r) for r in lp["eqs"]],
                    [tuple(r) for r in lp["ineqs"]],
                    lp["nvars"], objective, lp["maximize"])


def test_corpus_covers_every_kind_of_lp(corpus):
    kinds = Counter((lp["objective"] is None, lp["maximize"], lp["status"])
                    for lp in corpus)
    assert kinds[(True, False, "optimal")] and kinds[(True, False, "infeasible")]
    assert kinds[(False, False, "optimal")] and kinds[(False, True, "optimal")]
    assert kinds[(False, False, "unbounded")]
    assert any(lp["caller"] == "_branch_and_bound" for lp in corpus)
    assert len(corpus) >= 200


@pytest.mark.parametrize("backend", [True, False], indirect=True,
                         ids=["int64", "exact"])
def test_kernel_reproduces_every_recorded_answer(corpus, backend):
    rows_before = KERNEL_STATS["numpy_rows"]
    mismatches = []
    for n, lp in enumerate(corpus):
        result = _solve(lp)
        value = None if lp["value"] is None else Fraction(lp["value"])
        point = (None if lp["point"] is None
                 else tuple(Fraction(v) for v in lp["point"]))
        if (result.status.value, result.value, result.point) \
                != (lp["status"], value, point):
            mismatches.append((n, lp["caller"], result))
    assert not mismatches, mismatches[:5]
    # The int64 path really ran (and the exact backend really did not).
    assert (KERNEL_STATS["numpy_rows"] > rows_before) is backend
