"""One command for every workload: end-to-end metrics and gate verdicts.

    python3 bench/report.py [--seed 1]

Runs bench/run.py once per workload, untraced, each in its own process and
for the `run_seconds` that BENCHMARK.json fixes.
Prints one row per workload with every end-to-end metric by name and unit,
then the correctness-gate verdict of every job.  Exits 1 when a run fails
or a job gives a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hardgen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open(os.path.join(hardgen.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    names = list(run.END_TO_END)
    rows, verdicts, status = [], [], 0
    for workload in sorted(workloads.BUILDERS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        metrics = result["metrics"]
        rows.append([workload] + [f"{metrics[n]['value']:.4g}" for n in names]
                    + [f"{result['failed']}/{result['attempted']}"])
        verdicts.extend(f"{workload}: {line[4:]}" for line in lines if line.startswith("job "))
    header = ["workload"] + [f"{n} ({u})" for n, u in run.END_TO_END.items()] + ["failed"]
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    print()
    for line in verdicts:
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
