"""Compare two result sets of ``run.py --out``: ``compare.py A.json B.json``.

One row per workload x end-to-end metric: the median of A (the base) and of
B, the ratio B/A, the metric's bound, both run-to-run spreads (interquartile
range over median) and a verdict:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — not regressed, but a spread is wider than the bound, so
  "no change" cannot be claimed (unless every run of B beats every run of A);
* ``ok``         — otherwise.

Exits 1 when any row regressed or any run of B failed an output check.
"""

from __future__ import annotations

import sys

import harness as H


def values(result_set: dict, workload: str, metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in result_set["runs"]
            if run["workload"] == workload and run["trace"] == 0]


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = H.median(a)
    # Share of A's median by which B's median is worse.
    if sign * (H.median(b) - base) / base > bound:
        return "regressed"
    if max(H.spread(a), H.spread(b)) > bound:
        b_always_better = max(sign * v for v in b) < min(sign * v for v in a)
        if not b_always_better:
            return "unresolved"
    return "ok"


def compare(a: dict, b: dict, out=sys.stdout) -> int:
    regressed = 0
    print(f"A (base): seed {a['header']['seed']} sha {a['header']['git_sha'][:12]}"
          f"   B: seed {b['header']['seed']} sha {b['header']['git_sha'][:12]}",
          file=out)
    print(f"{'workload':<13} {'metric':<15} {'unit':<6} {'A median':>13} "
          f"{'B median':>13} {'B/A':>8} {'bound':>8} {'iqr A':>7} "
          f"{'iqr B':>7}  verdict", file=out)
    for workload in H.WORKLOADS:
        for metric, (unit, better, bound) in H.END_TO_END.items():
            va, vb = values(a, workload, metric), values(b, workload, metric)
            if not va or not vb:
                print(f"{workload:<13} {metric:<15} missing in "
                      f"{'A' if not va else 'B'}", file=out)
                regressed += 1
                continue
            status = verdict(va, vb, better, bound)
            regressed += status == "regressed"
            print(f"{workload:<13} {metric:<15} {unit:<6} "
                  f"{H.median(va):>13.5f} {H.median(vb):>13.5f} "
                  f"{H.median(vb) / H.median(va):>8.4f} {bound:>8.2g} "
                  f"{H.spread(va):>7.3f} {H.spread(vb):>7.3f}  {status}",
                  file=out)
    failed = [r for r in b["runs"] if not r["correct"]]
    for run in failed:
        print(f"B: {run['workload']} seed {run['seed']} failed "
              f"{run['failed']} of {run['attempted']} checks", file=out)
    print(f"{regressed} regressed, {len(failed)} incorrect run(s)", file=out)
    return 1 if regressed or failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(H.load_json(sys.argv[1]), H.load_json(sys.argv[2])))
