"""Integration tests: workload configs, baselines, block-size advisor."""

import numpy as np
import pytest

from repro import optimize, run_program
from repro.advisor.blocksize import BlockSizeAdvisor
from repro.baselines import manual_best, matlab_like, scidb_like
from repro.exceptions import OptimizationError
from repro.ops import add_multiply_program
from repro.storage import make_disk
from repro.workloads import (add_multiply_config, generate_inputs,
                             linreg_config, two_matmul_config)

SMALL = {"n1": 2, "n2": 2, "n3": 1}


@pytest.fixture(scope="module")
def small_result():
    prog = add_multiply_program()
    return prog, optimize(prog, SMALL)


class TestConfigs:
    def test_table2_geometry(self):
        cfg = add_multiply_config()
        assert cfg.params == {"n1": 12, "n2": 12, "n3": 1}
        assert cfg.program.arrays["A"].num_blocks(cfg.params) == (12, 12)
        assert cfg.paper_block_bytes["A"] == 6000 * 4000 * 8

    def test_table3_configs_differ(self):
        a = two_matmul_config("A")
        b = two_matmul_config("B")
        assert a.params != b.params
        assert a.paper_block_bytes["A"] != b.paper_block_bytes["A"]

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            two_matmul_config("C")

    def test_linreg_geometry(self):
        cfg = linreg_config()
        assert cfg.program.arrays["X"].num_blocks(cfg.params) == (25, 1)
        assert len(cfg.program.statements) == 7

    def test_generate_inputs_shapes(self):
        cfg = add_multiply_config()
        inputs = generate_inputs(cfg, seed=1)
        assert set(inputs) == {"A", "B", "D"}
        assert inputs["A"].shape == cfg.program.arrays["A"].shape_elems(cfg.params)

    def test_generate_inputs_deterministic(self):
        cfg = add_multiply_config()
        a = generate_inputs(cfg, seed=5)["A"]
        b = generate_inputs(cfg, seed=5)["A"]
        assert np.array_equal(a, b)

    def test_run_block_bytes_scaled_down(self):
        cfg = add_multiply_config(scale=100)
        assert cfg.run_block_bytes()["A"] == 60 * 40 * 8
        assert cfg.paper_block_bytes["A"] // cfg.run_block_bytes()["A"] == 100 * 100


class TestBaselines:
    def test_ordering(self, small_result, tmp_path_factory):
        prog, result = small_result
        inputs = {n: np.random.default_rng(0).standard_normal(
            prog.arrays[n].shape_elems(SMALL)) for n in ("A", "B", "D")}
        mk = tmp_path_factory.mktemp
        m = matlab_like(prog, SMALL, result, mk("m"), inputs)
        s = scidb_like(prog, SMALL, result, mk("s"), inputs)
        h = manual_best(prog, SMALL, result, mk("h"), inputs)
        ours, _ = run_program(prog, SMALL, result.best(),
                              make_disk(mk("o"), io_model=result.io_model),
                              inputs)
        assert h.total_seconds <= ours.simulated_total_seconds * 1.05
        assert m.total_seconds > ours.simulated_total_seconds
        assert s.total_seconds >= m.total_seconds * 0.9

    def test_report_repr(self, small_result, tmp_path):
        prog, result = small_result
        inputs = {n: np.zeros(prog.arrays[n].shape_elems(SMALL))
                  for n in ("A", "B", "D")}
        rep = matlab_like(prog, SMALL, result, tmp_path, inputs)
        assert "matlab-like" in repr(rep)
        assert rep.total_seconds == pytest.approx(
            (rep.io_seconds + rep.cpu_seconds) * rep.overhead_factor)


@pytest.mark.slow
class TestBlockSizeAdvisor:
    def test_sweep_and_recommend(self):
        advisor = BlockSizeAdvisor(
            lambda rows: add_multiply_program(block_rows=rows), SMALL)
        choices = advisor.sweep([40, 60], max_set_size=2)
        assert len(choices) == 2
        assert all(c.best is not None for c in choices)
        rec = advisor.recommend([40, 60], max_set_size=2)
        assert rec.best.cost.io_seconds == min(
            c.best.cost.io_seconds for c in choices)

    def test_memory_cap_filters_options(self):
        advisor = BlockSizeAdvisor(
            lambda rows: add_multiply_program(block_rows=rows), SMALL)
        # Cap below any plan's footprint: nothing fits anywhere.
        with pytest.raises(OptimizationError):
            advisor.recommend([40], memory_cap_bytes=16, max_set_size=1)

    def test_bigger_blocks_lose_to_sharing(self):
        """The clubsuit claim at unit-test scale."""
        advisor = BlockSizeAdvisor(
            lambda rows: add_multiply_program(block_rows=rows), SMALL)
        small_opt = advisor.evaluate(40, max_set_size=3)
        big_plan0 = advisor.evaluate(90, max_set_size=0).result.original_plan
        assert small_opt.best.cost.io_seconds < big_plan0.cost.io_seconds
