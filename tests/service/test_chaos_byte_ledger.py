"""The chaos post-mortem audits the pool's byte ledger, not only its pins.

A load that overwrote a block installed while it ran used to count the
block's bytes twice for good (``used_bytes`` 800 -> 1600 with one block
resident) while pins and stage marks still summed to zero — invisible to
the harness.  This drives the check itself: a ledger that disagrees with
what is resident must come back as a violation.
"""

from repro.service.chaos import run_chaos
from repro.storage import BufferPool


def test_byte_ledger_mismatch_is_a_violation(tmp_path, monkeypatch):
    honest = BufferPool.resident_bytes
    monkeypatch.setattr(BufferPool, "resident_bytes",
                        lambda pool: honest(pool) + 800)
    report = run_chaos(tmp_path, seed=0, jobs=6)
    assert any(v.startswith("pool byte ledger leaked: used_bytes=0 but 800 ")
               for v in report.violations), report.violations
    assert len(report.violations) == 1
