"""Layered BLEND benchmark: seekers, plans and index builds on one lake.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload seekers --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

One closed-loop client issues one operation after another on the Spark
session that ``jobs/_session.get_spark`` creates, over the Table III bench
lake of seed 100; the workload inputs come from ``--seed``. A run sets up
(session, then several lake and index builds), warms up, measures whole
cycles until ``--seconds`` of operation time have passed, then checks every
output outside the timed region (see ``check.py``).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each
operation twice, once traced and once not, and reports the per-layer
metrics from the traced calls plus the median difference between the two
(``trace.overhead_ms``). Human-readable lines start with ``#``; the last
line of standard output is one JSON object. Details of every run go to
``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ["seekers", "plans"]


def _prepare_environment() -> None:
    """Keep every file Spark, the JVM and Python write inside the checkout,
    and fail before any output when the program's sources are missing."""
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "jobs" / "_session.py").is_file():
        sys.exit(f"perfbench: no src/repro or jobs/_session.py under {ROOT}; "
                 "run it from a checkout of the repository")
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ.setdefault("SPARK_LOCAL_DIRS", str(WORK / "spark-local"))
    os.environ.setdefault("JAVA_TOOL_OPTIONS", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def run_all(args) -> int:
    """Run every workload in its own process; print one summary table."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr[-4000:], file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    names = sorted({k for r in results.values() for k in r["metrics"]})
    print("# " + "metric".ljust(34) + "".join(w.rjust(14) for w in results))
    for k in names:
        row = [results[w]["metrics"].get(k, {}).get("value") for w in results]
        unit = next(r["metrics"][k]["unit"] for r in results.values() if k in r["metrics"])
        print("# " + f"{k} ({unit})".ljust(34)
              + "".join(("-" if v is None else f"{v:.4g}").rjust(14) for v in row))
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    _prepare_environment()
    if args.workload == "all":
        return run_all(args)
    from bench import run_one

    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
