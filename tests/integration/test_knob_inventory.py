"""The public knob inventory, pinned.

Every parameter of the planning and job-running entry points, every slot of the specs
that carry a job or a workload between layers, and every ``repro serve``
flag is listed here.  Adding, removing or renaming a knob is a design
change, so it has to show up as an edit to this file.
"""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.advisor import AdvisorConfig
from repro.engine.executor import execute_plan, run_job, run_program
from repro.optimizer import optimize
from repro.service import ArrayService, JobSpec
from repro.storage import make_disk

SRC = Path(__file__).resolve().parents[2] / "src"

INVENTORY = {
    "optimize": """
        program params io_model memory_cap_bytes max_set_size max_candidates
        block_bytes workers plan_cache prune""",
    "run_program": """
        program params plan workdir inputs memory_cap_bytes plan_exact
        checkpoint resume validate prefetch_depth""",
    "run_job": """
        program params plan inputs disk names catalog breaker_for
        journal_path resume pool plan_exact prefetch_depth
        prefetch_budget_bytes cancel""",
    "execute_plan": """
        plan stores disk plan_exact journal resume pool
        prefetch_depth prefetch_budget_bytes cancel""",
    "ArrayService.__init__": """
        workdir memory_cap_bytes workers plan_cache max_pending
        admission_timeout max_set_size max_candidates prefetch_depth
        degrade""",
    "ArrayService.submit": """
        program params inputs name memory_cap_bytes plan plan_exact
        checkpoint resume admission_timeout prefetch_depth timeout
        retry""",
    "make_disk": """
        root shards io_model fault_injector fault_injectors retry
        atomic_writes fsync pace pace_channels stripe_bytes""",
    "AdvisorConfig.__slots__": """
        jobs memory_cap_bytes prefetch_depth io_model max_set_size
        max_candidates workers plan_cache""",
    "JobSpec.__slots__": """
        program args params seed seeds count plan_exact memory_cap timeout
        retries checkpoint resume name program_obj inputs_from""",
    "repro serve --help": """
        --help --service-workers --memory-cap --plan-cache --workdir
        --admission-timeout --verify --metrics-out --prefetch --deadline
        --job-retries --degrade --shards --stripe-bytes --io-pace
        --pace-channels""",
}


def _params(fn):
    return [p for p in inspect.signature(fn).parameters if p != "self"]


def _serve_flags():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-m", "repro", "serve", "--help"],
                         capture_output=True, text=True, env=env,
                         check=True).stdout
    flags = []
    for line in out.splitlines():
        m = re.match(r"\s+(?:-\w, )?(--[\w-]+)", line)
        if m:
            flags.append(m.group(1))
    return flags


ACTUAL = {
    "optimize": lambda: _params(optimize),
    "run_program": lambda: _params(run_program),
    "run_job": lambda: _params(run_job),
    "execute_plan": lambda: _params(execute_plan),
    "ArrayService.__init__": lambda: _params(ArrayService.__init__),
    "ArrayService.submit": lambda: _params(ArrayService.submit),
    "make_disk": lambda: _params(make_disk),
    "AdvisorConfig.__slots__": lambda: list(AdvisorConfig.__slots__),
    "JobSpec.__slots__": lambda: list(JobSpec.__slots__),
    "repro serve --help": _serve_flags,
}


@pytest.mark.parametrize("surface", list(INVENTORY))
def test_knob_inventory(surface):
    assert ACTUAL[surface]() == INVENTORY[surface].split()
