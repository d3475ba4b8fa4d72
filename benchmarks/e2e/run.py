"""The repository's end-to-end benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py                      # all four workloads
    python3 benchmarks/e2e/run.py --trace 1 --out F    # plus per-layer runs
    python3 benchmarks/e2e/run.py --workload serve_pinned --seed 3 \\
            --seconds 15 --trace 0                     # one run, one workload

With ``--workload`` the run happens in this interpreter and the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  Without it every workload runs in a fresh
interpreter of its own, so ``setup_s``, ``peak_rss_mb`` and "cold" mean what
they say.  The exit code is non-zero when any output check failed.
See README.md beside this file for what is measured and why.
"""

import time

T_START = time.perf_counter()  # imports below are part of set-up

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import harness as H  # noqa: E402


def scratch_dir(prefix: str) -> Path:
    """A fresh directory inside the checkout (ignored by git), never /tmp."""
    root = ROOT / ".e2e_work"
    root.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=root))


def remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()  # the last run out removes .e2e_work itself
    except OSError:
        pass


def run_one(args) -> int:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"e2e: {src}/repro not found; the benchmark measures the "
                 f"repository it is checked out in")
    sys.path.insert(0, str(src))
    import workloads
    from replay import Recorder

    workdir = scratch_dir(f"{args.workload}-")
    try:
        w = workloads.BY_NAME[args.workload](args.seed, workdir)
        w.setup()
        setup_s = time.perf_counter() - T_START
        if args.trace:
            rec = Recorder()
            measured = w.layers(args.seconds, rec)
            units = {name: spec[0] for name, spec in H.PER_LAYER.items()}
            # A layer this workload never enters reads 0.
            metrics = {name: float(measured.get(name, 0.0)) for name in units}
            results = HERE / "results"
            results.mkdir(exist_ok=True)
            rec.dump(results / f"trace_{args.workload}.json")
            w.detail["spans"] = len(rec.spans)
        else:
            metrics = w.measure(args.seconds)
            metrics["setup_s"] = setup_s
            metrics["verified_share"] = \
                (w.checks.attempted - w.checks.failed) / w.checks.attempted
            metrics["peak_rss_mb"] = H.peak_rss_mb()
            units = {name: spec[0] for name, spec in H.END_TO_END.items()}
            metrics = {name: float(metrics[name]) for name in units}
    finally:
        remove_scratch(workdir)

    checks = w.checks
    print(f"{args.workload}  seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}  set-up {setup_s:.2f} s")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>16.6f} {units[name]}")
    for key, value in w.detail.items():
        print(f"  . {key}: {value}")
    for message in checks.messages:
        print(f"  FAILED {message}")
    record = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({**record, "workload": args.workload,
                       "seed": args.seed, "trace": args.trace,
                       "detail": w.detail, "messages": checks.messages}, fh)
    print(json.dumps(record))
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    runs, bad = [], 0
    scratch = scratch_dir("all-")
    try:
        for seed in range(args.seed, args.seed + args.runs):
            for name in H.WORKLOADS:
                for trace in ((0, 1) if args.trace else (0,)):
                    out = scratch / f"{name}-{seed}-{trace}.json"
                    code = subprocess.run(
                        [sys.executable, str(HERE / "run.py"),
                         "--workload", name, "--seed", str(seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(trace), "--out", str(out)]).returncode
                    if out.exists():
                        runs.append(H.load_json(out))
                    bad += code != 0
    finally:
        remove_scratch(scratch)

    for trace, title in ((0, "end-to-end (tracing off)"),
                         (1, "per layer (traced run)")):
        rows = [r for r in runs if r["trace"] == trace]
        if not rows:
            continue
        print(f"\n== {title}: median of {args.runs} run(s) per workload ==")
        print(f"{'metric':<32} {'unit':<6}"
              + "".join(f"{w:>16}" for w in H.WORKLOADS))
        for metric, cell in rows[0]["metrics"].items():
            line = f"{metric:<32} {cell['unit']:<6}"
            for w in H.WORKLOADS:
                values = [r["metrics"][metric]["value"] for r in rows
                          if r["workload"] == w]
                line += f"{H.median(values):>16.4f}" if values else f"{'-':>16}"
            print(line)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"header": H.header(args.seed, args.seconds),
                       "runs": runs}, fh, indent=1)
            fh.write("\n")
    if bad:
        print(f"\n{bad} run(s) failed an output check or crashed")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=H.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=H.DEFAULT_SECONDS,
                    help="timed work per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: stage-by-stage replay, per-layer metrics")
    ap.add_argument("--runs", type=int, default=1,
                    help="all-workload mode: runs per workload, seeds "
                         "seed..seed+runs-1")
    ap.add_argument("--out", help="write the result set as JSON")
    args = ap.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
