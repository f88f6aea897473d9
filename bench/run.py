"""refdyn benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload headline --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload (see workloads.py) through the public entry
points `refdyn.cli.main(argv)` and `transitions.dominant_growth` until
`--seconds` of loop time have passed, then checks every output (checks.py)
outside the timed loop.  It prints each metric by name with its unit and, as
the last line, one JSON object with the keys correct, attempted, failed and
metrics.

--trace 0  end-to-end metrics, tracing off; `setup_s` is the fastest of
           24 fresh interpreters that import `refdyn.cli` and call
           `build_parser()`, half started before the loop and half after.
           Every other time is scaled to a reference machine speed (see
           REFERENCE_S); the wall-clock figure is printed beside it.
--trace 1  per-layer metrics: after the untraced loop, the first rounds are
           replayed with every layer's public functions wrapped (tracing.py);
           spans go to bench/out/.

The package is imported from `src/` of the checkout this file sits in; the
benchmark exits with status 2 when it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 12  # fresh interpreters before the loop, and again after it
# The shared machines this runs on drift between speed states up to 1.7x
# apart that last minutes, longer than a run.  A fixed exact-arithmetic
# kernel (reference_kernel) is timed before every operation, and the
# operation times are multiplied by sqrt(REFERENCE_S / the kernel's median in
# the run).  The square root because over thirty runs per workload the
# operations' wall times mostly moved with the 0.35 to 0.9th power of the
# kernel's (spectral: 0.6 to 1.75); bench/NOTES.md has the figures.
# REFERENCE_S is about the kernel's median on the 2-core machine of
# bench/baseline.json.  The program never runs the kernel, so a change to
# the program moves the scaled times as it moves the wall times.
# Interpreter start-up does not follow the kernel, so `setup_s` stays a wall
# time.
REFERENCE_S = 0.012
# shares shown by name but left out of the result line: they are 0 on whole
# workloads, and the result's `failed` count already carries both failures
# and certificates lost against the baseline (`Op.expect_certified`)
PRINTED_ONLY = ("failed_share", "uncertified_share")

sys.path.insert(0, str(BENCH))
from checks import FAILED, OK, UNCERTIFIED, Outcome, classify  # noqa: E402
from tracing import LAYERS, Tracer, bindings  # noqa: E402
from workloads import WORKLOADS, round_ops  # noqa: E402


def reference_kernel() -> float:
    """Wall time of fixed Fraction arithmetic of the package's kind: a
    harmonic sum, whose denominators grow to thousands of bits, and a product
    of two polynomials with 30 Fraction coefficients each.  It measures the
    machine's speed, not the program's."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i)
    a = [Fraction(i + 1, 2 * i + 3) for i in range(30)]
    b = [Fraction(3 * i + 1, i + 7) for i in range(30)]
    c = [Fraction(0)] * 59
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    return time.perf_counter() - t0


def measure_setup(warm_up: bool) -> list[float]:
    """Wall times of SETUP_SAMPLES fresh interpreters importing refdyn.cli and
    building its parser; a warm-up run first compiles the bytecode."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "import refdyn.cli; refdyn.cli.build_parser()"
    )
    samples = []
    for i in range(SETUP_SAMPLES + warm_up):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120, capture_output=True)
        if i or not warm_up:
            samples.append(time.perf_counter() - t0)
    return samples


class Runner:
    """Executes operations through the package's public entry points."""

    def __init__(self):
        from refdyn import cli, transitions
        from refdyn.core import RatMatrix

        self.cli, self.transitions, self.RatMatrix = cli, transitions, RatMatrix

    def execute(self, op) -> Outcome:
        if op.kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = self.cli.main(list(op.payload))
                except SystemExit as exc:
                    return Outcome(None, out.getvalue(), f"SystemExit({exc.code!r})")
                except Exception as exc:  # a traceback: recorded as a failed operation
                    return Outcome(None, out.getvalue(), f"{type(exc).__name__}: {exc}")
            return Outcome(rc, out.getvalue())
        dim = len(op.payload)
        try:
            data = self.transitions.dominant_growth(self.RatMatrix(op.payload), [1] * dim)
            rc, obj = 0, data.to_obj()
        except self.transitions.CertificationError as exc:
            rc, obj = 1, {"error": str(exc), "report": exc.report}
        except Exception as exc:  # a traceback: recorded as a failed operation
            return Outcome(None, "", f"{type(exc).__name__}: {exc}")
        return Outcome(rc, json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")

    def run_rounds(self, workload: str, seed: int, rounds: int, seconds: float = 0.0, tracer=None,
                   reference=None):
        """Run whole rounds 0, 1, ...: at least `rounds`, and on until `seconds`
        of loop time have passed.  Returns the records (round, op, outcome,
        op seconds) and the loop wall time.  With a `reference` list, the
        reference kernel is timed into it before each operation."""
        records = []
        started = time.perf_counter()
        r = 0
        while r < rounds or time.perf_counter() - started < seconds:
            for op in round_ops(workload, seed, r):
                if reference is not None:
                    reference.append(reference_kernel())
                if tracer is not None:
                    tracer.begin_op(len(records))
                t0 = time.perf_counter()
                outcome = self.execute(op)
                records.append((r, op, outcome, time.perf_counter() - t0))
            r += 1
        return records, time.perf_counter() - started


def verdicts(records) -> list[tuple[str, str]]:
    """Classify every record; a repeated input must repeat its output bytes,
    and an input the baseline certified must stay certified."""
    first: dict = {}
    checked: dict = {}
    out = []
    for _, op, outcome, _ in records:
        key = (op.kind, op.payload)
        digest = hashlib.sha256(f"{outcome.rc}|{outcome.error}|{outcome.out}".encode()).hexdigest()
        if first.setdefault(key, digest) != digest:
            out.append((FAILED, "output differs from an earlier run of the same input"))
            continue
        if key not in checked:
            checked[key] = classify(op.kind, op.payload, outcome)
            if checked[key][0] == UNCERTIFIED and op.expect_certified:
                checked[key] = (FAILED, "uncertified, but certified at the baseline revision")
        out.append(checked[key])
    return out


def first_round_digest(records) -> tuple[str, int]:
    h = hashlib.sha256()
    n = 0
    for r, op, outcome, _ in records:
        if r == 0:
            h.update(f"{op.label()}\n{outcome.rc}\n{outcome.error}\n{outcome.out}\n".encode())
            n += 1
    return h.hexdigest(), n


def source_lines(layer: str) -> int:
    path = SRC / "refdyn" / (layer.replace(".", "/") + ".py")
    return sum(1 for line in path.read_text().splitlines() if line.strip())


def end_to_end(records, tail_pct: int, classes, scale: float) -> tuple[dict, dict]:
    """Timings over all operations, multiplied by `scale` (see REFERENCE_S);
    the notes give the wall-clock figures.  The throughput is the median over
    rounds, which a slow stretch of a shared machine moves less than the mean."""
    by_round: dict[int, list[float]] = {}
    for r, *_, t in records:
        by_round.setdefault(r, []).append(t)
    times = sorted(t for *_, t in records)
    n = len(times)
    tail = statistics.quantiles(times, n=100, method="inclusive")[tail_pct - 1] if n > 1 else times[0]
    beyond = sum(1 for t in times if t > tail)
    p50 = statistics.median(times)
    rate = statistics.median(len(ts) / sum(ts) for ts in by_round.values())
    metrics = {
        "report_p50_s": (p50 * scale, "s"),
        "report_tail_s": (tail * scale, "s"),
        "reports_per_s": (rate / scale, "1/s"),
        "failed_share": (classes.count(FAILED) / n, "ratio"),
        "uncertified_share": (classes.count(UNCERTIFIED) / n, "ratio"),
    }
    notes = {
        "report_p50_s": f"wall {p50:.6g} s",
        "report_tail_s": f"wall {tail:.6g} s; p{tail_pct} of {n} operations, {beyond} beyond it",
        "reports_per_s": f"wall {rate:.6g} 1/s",
    }
    return metrics, notes


def per_layer(tracer, traced_records, traced_s: float, untraced_s: float) -> dict:
    op_time = sum(t for *_, t in traced_records)
    m: dict = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
        m[f"{layer}.self_share"] = (tracer.self_s[layer] / op_time, "ratio")
        m[f"{layer}.raised"] = (tracer.raised[layer], "count")
        m[f"{layer}.source_lines"] = (source_lines(layer), "lines")
    calls = {
        "core.roots.sturm_chain.calls": "core.roots.sturm_chain",
        "core.roots.count_roots_in.calls": "core.roots.count_roots_in",
        "core.roots.AlgebraicReal.init.calls": "core.roots.AlgebraicReal.init",
        "core.unipoly.gcd.calls": "core.unipoly.UniPoly.gcd",
        "core.unipoly.square_free_part.calls": "core.unipoly.UniPoly.square_free_part",
        "core.factor.factor_over_rationals.calls": "core.factor.factor_over_rationals",
        "billiards.check_configuration.calls": "billiards.check_configuration",
        "billiards.third_intersection.calls": "billiards.third_intersection",
        "core.multipoly.MultiPoly.__call__.calls": "core.multipoly.MultiPoly.__call__",
    }
    for metric, span in calls.items():
        m[metric] = (tracer.calls[span], "count")
    for metric in (
        "core.factor.factor_over_rationals",
        "transitions.check_log_concavity",
        "elliptic.avoidance_check",
        "core.numberfield.field_kernel",
        "billiards.build_configuration",
        "reflection_maps.random_chart",
    ):
        m[f"{metric}.s"] = (tracer.seconds[metric], "s")
    for metric in ("transitions.dominant_growth", "germs.series_evolve", "cli.main"):
        m[f"{metric}.self_s"] = (tracer.fn_self[metric], "s")
    growth_calls = tracer.calls["transitions.dominant_growth"]
    m["transitions.dominant_growth.certified_ratio"] = (
        (growth_calls - tracer.fn_raised["transitions.dominant_growth"]) / growth_calls if growth_calls else 0.0,
        "ratio",
    )
    attempts = 0
    for _, op, outcome, _ in traced_records:
        if op.payload[:2] == ("billiard", "check") and outcome.rc is not None:
            attempts += json.loads(outcome.out)["outputs"]["attempts"]
    checks = tracer.calls["billiards.check_configuration"]
    m["billiards.useful_ratio"] = (attempts / checks if checks else 0.0, "ratio")
    m["billiards.orbit_coord_bits.max"] = (tracer.counters["billiards.orbit_coord_bits.max"], "bits")
    m["germs.series_evolve.steps"] = (tracer.counters["germs.series_evolve.steps"], "count")
    m["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "refdyn" / "cli.py").is_file():
        print(f"bench: no refdyn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("REFDYN_THREADS", None)  # the search runs on the default one-worker pool
    workload = WORKLOADS[args.workload]

    # the fastest start is the set-up cost itself; sampling on both sides of
    # the loop keeps one slow stretch of a shared machine from setting it
    reference: list[float] = []
    setup = measure_setup(warm_up=True) if args.trace == 0 else []
    runner = Runner()
    min_rounds = workload.trace_rounds if args.trace == 1 else 1
    records, loop_s = runner.run_rounds(args.workload, args.seed, min_rounds, args.seconds,
                                        reference=reference if args.trace == 0 else None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before sympy loads
    lines = [f"workload {args.workload}  seed {args.seed}  rounds {records[-1][0] + 1}  loop {loop_s:.2f} s"]
    if args.trace == 0:
        setup += measure_setup(warm_up=False)
        reference_s = statistics.median(reference)
        scale = math.sqrt(REFERENCE_S / reference_s)
        lines.append(
            f"reference kernel median {reference_s * 1e3:.3f} ms over {len(reference)} samples: "
            f"operation times below are scaled by {scale:.4f}, the square root of "
            f"{REFERENCE_S * 1e3:g} ms over that median"
        )
    traced = []
    if args.trace == 1:
        rounds = workload.trace_rounds
        untraced_s = sum(t for r, *_, t in records if r < rounds)
        before = bindings()
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = runner.run_rounds(args.workload, args.seed, rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        after = bindings()
        if after.keys() != before.keys() or any(after[k] is not v for k, v in before.items()):
            print("bench: tracing left a wrapper behind", file=sys.stderr)
            return 2
        traced_s = sum(t for *_, t in traced)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        lines.append(
            f"traced rounds {rounds}: {len(traced)} operations, {traced_s:.2f} s, "
            f"{len(tracer.spans)} spans kept, {tracer.spans_dropped} dropped"
        )

    all_records = records + traced
    checked = verdicts(all_records)
    classes = [v for v, _ in checked]
    failures = [(op.label(), why) for (_, op, *_), (v, why) in zip(all_records, checked) if v == FAILED]
    digest, n_first = first_round_digest(records)
    lines.append(
        f"operations {len(all_records)}: ok {classes.count(OK)}, "
        f"uncertified {classes.count(UNCERTIFIED)}, failed {len(failures)}"
    )
    notes = {}
    if args.trace == 0:
        metrics, notes = end_to_end(records, workload.tail_pct, classes, scale)
        metrics = {"setup_s": (min(setup), "s"), **metrics, "peak_rss_mb": (peak_rss_mb, "MB")}
        notes["setup_s"] = f"wall, not scaled; fastest of {len(setup)} fresh interpreters"
    else:
        metrics = per_layer(tracer, traced, traced_s, untraced_s)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name:<44} {value:.6g} {unit}{note}")
    lines.append(f"report_sha256 {digest}  (round 0, {n_first} operations)")
    for label, why in failures[:20]:
        lines.append(f"FAILED {label[:120]}: {why}")
    print("\n".join(lines))
    result = {
        "correct": not failures,
        "attempted": len(all_records),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if name not in PRINTED_ONLY
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
