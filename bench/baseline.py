"""Measure a baseline point and write it as JSON.

    python3 bench/baseline.py --seeds 1-10 --seconds 20 --out bench/baseline.json

Runs `run.py --trace 0` once per seed on every workload and one `--trace 1`
run per workload (first seed), one after another.  It records, per metric,
the median and quartiles over the seeds, and the spread (q3 - q1) / median.
It also records the printed-only shares, the wall-clock figure behind each
scaled time (`<metric>.wall`), the reference kernel's median, the report
digests, the git revision, the Python version and the core count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
_METRIC_LINE = re.compile(r"^([A-Za-z0-9_.]+)\s+(-?[0-9.]+(?:e[-+]?[0-9]+)?) (\S+)")
_WALL = re.compile(r"\(wall (-?[0-9.]+(?:e[-+]?[0-9]+)?) ")
_REFERENCE = re.compile(r"^reference kernel median ([0-9.]+) ms")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        m = _METRIC_LINE.match(line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
            wall = _WALL.search(line)
            if wall:
                printed[m.group(1) + ".wall"] = (float(wall.group(1)), m.group(3))
        elif _REFERENCE.match(line):
            printed["reference_kernel_ms"] = (float(_REFERENCE.match(line).group(1)), "ms")
        elif line.startswith("report_sha256"):
            result["report_sha256"] = line.split()[1]
    # exact values where the result line has them, printed ones for the shares
    printed.update({k: (v["value"], v["unit"]) for k, v in result["metrics"].items()})
    result["printed"] = printed
    return result


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def revision() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=BENCH.parent, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--workloads", default="headline,spectral,billiard,germ")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))

    out = {
        "revision": revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, 0) for s in seeds]
        end_to_end = {
            name: {"unit": runs[0]["printed"][name][1],
                   **summary([r["printed"][name][0] for r in runs])}
            for name in runs[0]["printed"]
        }
        traced = run_once(workload, seeds[0], args.seconds, 1)
        out["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "report_sha256": {str(s): r["report_sha256"] for s, r in zip(seeds, runs)},
            "end_to_end": end_to_end,
            "per_layer": {"seed": seeds[0], **{k: v["value"] for k, v in traced["metrics"].items()}},
        }
        print(workload, {k: round(v["spread"], 3) for k, v in end_to_end.items()}, flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
