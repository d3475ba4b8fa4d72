"""Differential check of the grid sampler's emptiness proofs.

``_Searcher._witness`` skips branch-and-bound when
``Polyhedron.small_integer_sample`` reports ``(None, True)`` — a proof that
the polyhedron holds no integer point.  Over every polyhedron the witness
samples in the golden corpus's cold searches, branch-and-bound must agree
with each such proof.
"""

import importlib.util
import json
import pathlib

import pytest

from repro import optimize
from repro.polyhedral import Polyhedron

GOLDEN_DIR = (pathlib.Path(__file__).resolve().parents[1] / "fixtures"
              / "golden_plans")
_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", GOLDEN_DIR / "regenerate.py")
_regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_regen)


@pytest.mark.parametrize("name", [
    pytest.param("example1"),
    pytest.param("add_multiply"),
    pytest.param("two_matmul_B"),
    pytest.param("two_matmul_A", marks=pytest.mark.slow),
    pytest.param("linreg", marks=pytest.mark.slow),
])
def test_every_sampler_proof_is_confirmed_by_branch_and_bound(
        name, monkeypatch):
    sample = Polyhedron.small_integer_sample
    proved = []

    def spy(poly, *args, **kwargs):
        point, decided = sample(poly, *args, **kwargs)
        if point is None and decided:
            proved.append(poly)
        return point, decided

    monkeypatch.setattr(Polyhedron, "small_integer_sample", spy)
    program, params, knobs = _regen.build_case(name)
    result = optimize(program, params, **knobs)
    monkeypatch.undo()

    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert len(result.plans) == golden["n_plans"]
    for poly in proved:
        assert poly.find_integer_point() is None, poly
