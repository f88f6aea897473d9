"""Command-line front end.

Subcommands reproduce the three headline computations with their
certificates, drive the billiard configuration search, and expose the germ,
formal-orbit and transition-system pipelines as JSON/CSV reports.  Reports
are deterministic byte-for-byte for identical seeds and flags: wall-clock
timing goes to stderr, never into the report.  The exit status is zero
exactly when every certificate in the report is satisfied, 1 when one
fails, and 2 on bad input or an undecidable question (with a one-line
message on stderr and no report).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from . import billiards, elliptic, germs, picard, transitions
from .core import (
    RatMatrix, UniPoly, char_poly, minimal_poly, rat_from_str, rat_to_str
)


# The general report prints 4^N in full; above this N it has more than the
# 4300 digits CPython converts to a string by default.
_MAX_GENERAL_N = 7142


@dataclass
class RunReport:
    command: str
    inputs: dict
    outputs: dict = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return _all_true(self.certificates)

    def to_json(self) -> str:
        obj = {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "certificates": self.certificates,
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _all_true(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, dict):
        return all(_all_true(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_all_true(v) for v in value)
    return True  # non-boolean payloads are data, not verdicts


def _emit(text: str, out: str | None) -> None:
    # the file first: if it cannot be written, nothing reaches stdout
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _enclosure(value, digits: int) -> dict:
    lo, hi = value.decimal_enclosure(digits)
    return {
        "decimal_enclosure": [lo, hi],
        "defining_poly": value.poly.format(),
        "interval": [rat_to_str(value.lo), rat_to_str(value.hi)],
    }


def _tuple_certificates(t: transitions.DegreeTuple) -> dict:
    holds, _ = transitions.check_log_concavity(t)
    return {
        "log_concave": holds,
        "palindromic": transitions.tuples_equal(t, transitions.inverse_tuple(t)),
    }


def _ratio_within(ratio: Fraction, value, tol: Fraction) -> bool:
    """|ratio - value| < tol, certified from the value's refined interval."""
    refined = value.refined(tol / 4)
    return abs(ratio - refined.lo) < tol and abs(ratio - refined.hi) < tol


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def _cmd_reproduce(args) -> RunReport:
    digits = args.precision
    report = RunReport(
        "reproduce", {"target": args.target, "n": args.n, "precision": digits}
    )
    if args.target == "general":
        n = args.n
        if n is None or n < 1:
            raise ValueError("reproduce general requires --n N with N >= 1")
        if n > _MAX_GENERAL_N:
            raise ValueError(f"reproduce general supports --n up to {_MAX_GENERAL_N}")
        triple = picard.degree_tuple_generic(n)
        t = transitions.degree_tuple([1, *triple, 1])
        report.outputs["degree_tuple"] = t.display(digits)
        report.certificates.update(_tuple_certificates(t))
        if n >= 3:
            proof = elliptic.avoidance_proof(n)
            report.outputs["orbit_avoidance"] = proof
            report.certificates["orbit_avoidance_clean"] = not proof["hits"]
        elif n == 2:
            action = picard.two_point_action()
            cp = char_poly(action.matrix)
            report.outputs["picard_char_poly"] = cp.format()
            report.certificates["unipotent_action"] = cp == UniPoly((-1, 1)) ** 4
        else:
            action = picard.single_reflection_action()
            sq = action.matrix * action.matrix
            report.outputs["picard_char_poly"] = char_poly(action.matrix).format()
            report.certificates["involution"] = sq == RatMatrix.identity(3)
        return report

    if args.target == "conic-line":
        matrix = transitions.conic_line_matrix()
        start = transitions.StateVector((0, 0, 1))
        spectral = transitions.dominant_growth(matrix, start)
        mu = spectral.mu1.refined(Fraction(1, 10**digits))
        t = transitions.degree_tuple([1, mu, mu, mu, 1])
        seq = [s.entries[2] for s in transitions.iterate(transitions.conic_line_system(), start, 12)]
        report.outputs["value"] = _enclosure(mu, digits)
        report.outputs["degree_tuple"] = t.display(digits)
        report.outputs["degree_sequence"] = seq[:6]
        report.certificates["growth_hypotheses"] = spectral.hypotheses
        report.certificates.update(_tuple_certificates(t))
        report.certificates["ratio_converges"] = _ratio_within(
            Fraction(seq[-1], seq[-2]), mu, Fraction(1, 10**6)
        )
        return report

    if args.target == "triangle":
        product = transitions.triangle_cycle_product()
        start = transitions.StateVector((1, 0, 0, 0, 0, 0))
        spectral = transitions.dominant_growth(product, start)
        mu = spectral.mu1.refined(Fraction(1, 10**digits))
        t = transitions.degree_tuple([1, mu, mu, mu, 1])
        report.outputs["value"] = _enclosure(mu, digits)
        report.outputs["degree_tuple"] = t.display(digits)
        report.outputs["char_poly"] = char_poly(product).format()
        report.outputs["minimal_poly"] = minimal_poly(product).format()
        report.certificates["growth_hypotheses"] = spectral.hypotheses
        report.certificates.update(_tuple_certificates(t))
        pair_report = germs.verify_minimal_pairs(60)
        report.certificates["minimal_pairs_match"] = pair_report["all_match"]
        trait = germs.random_transverse_trait(seed=args.seed or 0)
        try:
            vals = germs.series_evolve(trait, 30, seed=args.seed or 0)
            report.certificates["series_cross_check"] = True
        except germs.CancellationError as exc:
            report.certificates["series_cross_check"] = False
            report.outputs["cancellation"] = str(exc)
            vals = []
        if vals:
            blocks = [v.vals[0] for v in vals if v.phase % 3 == 0]
            report.outputs["block_first_components"] = blocks[:6]
            if len(blocks) >= 2 and blocks[-2]:
                ratio = Fraction(blocks[-1], blocks[-2])
                report.certificates["block_ratio_converges"] = _ratio_within(
                    ratio, mu, Fraction(1, 10**4)
                )
        return report

    raise ValueError(f"unknown reproduce target {args.target!r}")


# ---------------------------------------------------------------------------
# billiard
# ---------------------------------------------------------------------------


def _cmd_billiard(args) -> RunReport:
    if args.action == "build":
        cfg = billiards.build_configuration(args.seed)
        report = RunReport("billiard build", {"seed": args.seed})
        report.outputs["configuration"] = cfg.to_obj()
        report.certificates["valid"] = True
        return report

    if args.action == "orbit":
        cfg = billiards.build_configuration(args.seed)
        if args.start is None:
            raise ValueError("billiard orbit requires --start u/v (a parameter on L)")
        if ":" in args.start:
            coords = tuple(
                rat_from_str(c) for c in args.start.strip("() ").split(":")
            )
            start = billiards.RationalPoint(coords)
        else:
            u, _, v = args.start.partition("/")
            start = cfg.point_from_parameter(
                rat_from_str(u), rat_from_str(v or "1")
            )
        word = args.word or billiards.RETURN_WORD
        points = billiards.orbit_points(cfg, start, word)
        rows = []
        for step, pt in enumerate(points):
            where = "L" if cfg.on_line(pt) else ("C" if cfg.on_conic(pt) else "X")
            rows.append([step, where, *pt.to_obj()])
        report = RunReport(
            "billiard orbit", {"seed": args.seed, "start": args.start, "word": word}
        )
        report.outputs["columns"] = ["step", "locus", "x0", "x1", "x2", "x3"]
        report.outputs["rows"] = rows
        report.certificates["on_surface"] = all(
            cfg.surface.contains(pt) for pt in points
        )
        return report

    if args.action == "check":
        seeds = _parse_seed_range(args)
        horizon = 300 if args.horizon is None else args.horizon
        precision = args.precision
        workers = max(1, int(os.environ.get("REFDYN_THREADS", "1")))

        def attempt(seed: int) -> tuple[int, dict | None]:
            try:
                cfg = billiards.build_configuration(seed)
                chk = billiards.check_configuration(cfg, horizon, precision)
            except (billiards.ConfigurationError, billiards.IndeterminacyError) as exc:
                return seed, {"status": "build-failed", "detail": str(exc)}
            return seed, chk

        report = RunReport(
            "billiard check",
            {
                "seeds": [seeds[0], seeds[-1]],
                "horizon": horizon,
                "precision": precision,
            },
        )
        found = None
        attempts = 0
        chunk = workers  # at most workers - 1 seeds run past the first pass
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # one worker runs in this thread: under the GIL a pool thread
            # would only add a hand-off to it and back for every seed
            search = map if workers == 1 else pool.map
            for base in range(0, len(seeds), chunk):
                batch = seeds[base : base + chunk]
                for seed, chk in search(attempt, batch):
                    attempts += 1
                    if chk is not None and chk.get("status") == "success":
                        found = (seed, chk)
                        break
                if found:
                    break
        report.outputs["attempts"] = attempts
        if found:
            seed, chk = found
            report.outputs["seed"] = seed
            report.outputs["check"] = chk
            report.certificates["passed"] = True
            report.certificates["k0_multiples_of_3"] = all(
                entry.get("k0_mod_3") == 0 for entry in chk["starts"].values()
            )
        else:
            report.certificates["passed"] = False
        return report

    raise ValueError(f"unknown billiard action {args.action!r}")


def _parse_seed_range(args) -> range:
    if args.seed_range:
        return args.seed_range
    if args.seed is not None:
        return range(args.seed, args.seed + 1)
    raise ValueError("billiard check requires --seed or --seed-range A..B")


# ---------------------------------------------------------------------------
# germ / elliptic / transition
# ---------------------------------------------------------------------------


def _cmd_germ(args) -> RunReport:
    if args.action == "evolve":
        steps = 30 if args.steps is None else args.steps
        trait = germs.random_transverse_trait(seed=args.seed or 0, order=args.order)
        report = RunReport(
            "germ evolve",
            {"steps": steps, "seed": args.seed or 0, "order": args.order},
        )
        columns = ["step", "phase", *(f"d{i}" for i in range(6)), "ratio"]
        try:
            vals = germs.series_evolve(trait, steps, seed=args.seed or 0)
        except germs.CancellationError as exc:
            report.outputs["cancellation"] = {
                "step": exc.step,
                "component": exc.component,
                "detail": str(exc),
            }
            if args.format == "csv":
                # the header row alone; the failed certificate sets exit 1
                report.outputs.update(columns=columns, rows=[])
            report.certificates["no_cancellation"] = False
            return report
        rows = []
        firsts: dict[int, int] = {}
        for step, v in enumerate(vals):
            ratio = ""
            if v.phase % 3 == 0:
                firsts[step] = v.vals[0]
                prev = firsts.get(step - 3)
                if prev:
                    ratio = rat_to_str(Fraction(v.vals[0], prev))
            rows.append([step, v.phase % 3, *v.vals, ratio])
        report.outputs["columns"] = columns
        report.outputs["rows"] = rows
        report.certificates["no_cancellation"] = True
        return report

    if args.action == "pairs":
        steps = 60 if args.steps is None else args.steps
        pair_report = germs.verify_minimal_pairs(steps)
        report = RunReport("germ pairs", {"steps": steps})
        report.outputs["report"] = pair_report
        report.certificates["all_match"] = pair_report["all_match"]
        return report

    raise ValueError(f"unknown germ action {args.action!r}")


def _cmd_elliptic(args) -> RunReport:
    if args.n is None:
        raise ValueError("elliptic check requires --n")
    proof = elliptic.avoidance_proof(args.n)
    report = RunReport("elliptic check", {"n": args.n})
    report.outputs["report"] = proof
    report.certificates["no_hits"] = not proof["hits"]
    return report


_SYSTEMS = {
    "conic-line": (transitions.conic_line_system, (0, 0, 1), 2, 1),
    "triangle": (transitions.triangle_system, (1, 0, 0, 0, 0, 0), 0, 3),
}


def _cmd_transition(args) -> RunReport:
    steps = 20 if args.steps is None else args.steps
    if args.matrix_file:
        with open(args.matrix_file) as fh:
            system = transitions.TransitionSystem.from_json(fh.read())
        if not args.start:
            raise ValueError("--matrix-file requires --start (StateVector JSON)")
        start = transitions.StateVector.from_json(args.start)
        component, period = 0, system.period
        name = args.matrix_file
    else:
        if args.system not in _SYSTEMS:
            raise ValueError("--system must be conic-line or triangle")
        factory, start_entries, component, period = _SYSTEMS[args.system]
        system = factory()
        start = transitions.StateVector(start_entries)
        name = args.system
    states = transitions.iterate(system, start, steps)
    rows = []
    tracked: dict[int, int] = {}
    for step, v in enumerate(states):
        ratio = ""
        value = v.entries[component]
        tracked[step] = value
        prev = tracked.get(step - period)
        if prev:
            ratio = rat_to_str(Fraction(value, prev))
        rows.append([step, v.phase % system.period, *v.entries, ratio])
    report = RunReport(
        "transition growth", {"system": name, "steps": steps}
    )
    report.outputs["columns"] = [
        "step",
        "phase",
        *(f"v{i}" for i in range(system.dimension)),
        "ratio",
    ]
    report.outputs["rows"] = rows
    report.certificates["exact_iteration"] = True
    return report


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _to_csv(report: RunReport) -> str:
    cols = report.outputs.get("columns")
    rows = report.outputs.get("rows")
    if cols is None or rows is None:
        raise ValueError("this subcommand has no CSV form; use --format json")
    lines = [",".join(str(c) for c in cols)]
    lines.extend(",".join(str(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refdyn",
        description="exact dynamical degrees of reflection compositions on cubics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("reproduce", help="reproduce a headline value with certificates")
    rep.add_argument("target", choices=("general", "conic-line", "triangle"))
    rep.add_argument("--n", type=int, default=None)
    rep.add_argument("--seed", type=int, default=None)
    _common_flags(rep)
    rep.set_defaults(func=_cmd_reproduce)

    bil = sub.add_parser("billiard", help="cubic-surface billiard pipelines")
    bil.add_argument("action", choices=("build", "orbit", "check"))
    bil.add_argument("--seed", type=int, default=None)
    bil.add_argument("--seed-range", type=_seed_range, default=None)
    bil.add_argument("--start", default=None)
    bil.add_argument("--word", default=None)
    bil.add_argument("--horizon", type=_int_at_least(1), default=None)
    _common_flags(bil)
    bil.set_defaults(func=_cmd_billiard)

    ger = sub.add_parser("germ", help="triangle valuation dynamics")
    ger.add_argument("action", choices=("evolve", "pairs"))
    ger.add_argument("--steps", type=int, default=None)
    ger.add_argument("--seed", type=int, default=None)
    ger.add_argument("--order", type=_int_at_least(2), default=64)
    _common_flags(ger)
    ger.set_defaults(func=_cmd_germ)

    ell = sub.add_parser("elliptic", help="formal orbit avoidance, proved for all time")
    ell.add_argument("action", choices=("check",))
    ell.add_argument("--n", type=int, default=None)
    _common_flags(ell)
    ell.set_defaults(func=_cmd_elliptic)

    tra = sub.add_parser("transition", help="transition-system iteration")
    tra.add_argument("action", choices=("growth",))
    tra.add_argument("--system", default=None)
    tra.add_argument("--steps", type=int, default=None)
    tra.add_argument("--matrix-file", default=None)
    tra.add_argument("--start", default=None)
    _common_flags(tra)
    tra.set_defaults(func=_cmd_transition)
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--precision", type=_int_at_least(0), default=9)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)


def _int_at_least(low: int):
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}: {text!r}")
        return int(text)

    return integer


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("..")
    try:
        seeds = range(int(lo), int(hi) + 1)
    except ValueError:
        seeds = range(0)
    if not seeds:
        raise argparse.ArgumentTypeError(f"expected A..B, integers A <= B: {text!r}")
    return seeds


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value with a leading "-", such as a negative start, for
    # an option unless it is joined to its flag
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] == "--start":
            argv[i : i + 2] = [f"--start={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        report: RunReport = args.func(args)
        elapsed = time.monotonic() - started
        text = _to_csv(report) if args.format == "csv" else report.to_json()
        _emit(text, args.out)
    except (ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        print(f"refdyn {args.command}: {exc}", file=sys.stderr)
        return 2
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return 0 if report.ok() else 1


if __name__ == "__main__":
    sys.exit(main())
