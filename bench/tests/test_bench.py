"""Tests of the benchmark itself: generator, checker and tracer.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from checks import FAILED, OK, UNCERTIFIED, classify  # noqa: E402
from tracing import Tracer, bindings, targets  # noqa: E402
from workloads import WORKLOADS, Op, round_ops  # noqa: E402


def test_generator_is_deterministic_per_seed():
    for name in WORKLOADS:
        first = [round_ops(name, 7, r) for r in range(4)]
        assert first == [round_ops(name, 7, r) for r in range(4)]
        assert first != [round_ops(name, 8, r) for r in range(4)]
        # every round has the workload's fixed composition
        assert all(len(ops) == len(WORKLOADS[name].slots) for ops in first)
        # odd rounds repeat one input of the round before
        slot = WORKLOADS[name].repeat_slot
        assert first[1][slot] == first[0][slot]


def test_generator_feeds_only_argv_or_matrices():
    for name in WORKLOADS:
        for op in round_ops(name, 3, 0):
            assert isinstance(op, Op)
            if op.kind == "cli":
                assert all(isinstance(a, str) for a in op.payload)
            else:
                assert op.kind == "spectral"
                assert all(isinstance(v, int) for row in op.payload for v in row)
                assert all(len(row) == len(op.payload) <= 5 for row in op.payload)


def test_checker_fails_a_corrupted_defining_polynomial():
    runner = run.Runner()
    op = Op("cli", ("reproduce", "conic-line", "--precision", "9"))
    outcome = runner.execute(op)
    assert classify(op.kind, op.payload, outcome) == (OK, "")
    needle = '"defining_poly":"x^2 - 5x - 2"'
    assert outcome.out.count(needle) == 1
    at = outcome.out.index(needle) + len('"defining_poly":"x^2 - ')
    corrupted = outcome.out[:at] + "6" + outcome.out[at + 1 :]
    verdict, why = classify(op.kind, op.payload, run.Outcome(outcome.rc, corrupted))
    assert verdict == FAILED and "defining polynomial" in why


def test_checker_marks_certification_error_uncertified():
    runner = run.Runner()
    # eigenvalues 1 and -1 tie in modulus: dominance cannot be certified
    op = Op("spectral", ((0, 1), (1, 0)))
    outcome = runner.execute(op)
    assert outcome.rc == 1 and outcome.error is None
    assert classify(op.kind, op.payload, outcome) == (UNCERTIFIED, "")
    # a certified matrix checks out against sympy
    op = Op("spectral", ((2, 1), (1, 1)))
    assert classify(op.kind, op.payload, runner.execute(op)) == (OK, "")


def test_a_certificate_lost_against_the_baseline_fails():
    tie = ((0, 1), (1, 0))
    outcome = run.Runner().execute(Op("spectral", tie))
    known = Op("spectral", tie, expect_certified=False)
    assert run.verdicts([(0, known, outcome, 0.0)])[0][0] == UNCERTIFIED
    assert run.verdicts([(0, Op("spectral", tie), outcome, 0.0)])[0][0] == FAILED


def test_times_are_scaled_to_the_reference_speed():
    op = Op("cli", ("reproduce", "general", "--n", "3"))
    records = [(0, op, None, 1.0), (0, op, None, 3.0), (1, op, None, 2.0)]
    metrics, notes = run.end_to_end(records, 50, [OK] * 3, 0.5)
    assert metrics["report_p50_s"] == (1.0, "s") and notes["report_p50_s"] == "wall 2 s"
    # two rounds of 0.5 reports per wall second each
    assert metrics["reports_per_s"] == (1.0, "1/s")


def test_checker_fails_a_traceback_and_a_changed_repeat():
    op = Op("cli", ("germ", "evolve", "--order", "1"))
    outcome = run.Runner().execute(op)
    assert outcome.rc is None and classify(op.kind, op.payload, outcome)[0] == FAILED
    same = Op("cli", ("reproduce", "general", "--n", "3"))
    good = run.Runner().execute(same)
    changed = run.Outcome(good.rc, good.out.replace('"horizon":200', '"horizon":201'))
    records = [(0, same, good, 0.0), (1, same, changed, 0.0)]
    assert [v for v, _ in run.verdicts(records)] == [OK, FAILED]


def test_traced_run_restores_every_wrapped_function():
    runner = run.Runner()
    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert bindings()[("refdyn.transitions", "char_poly")] is not before[("refdyn.transitions", "char_poly")]
        tracer.begin_op(0)
        runner.execute(Op("cli", ("reproduce", "general", "--n", "4")))
        runner.execute(Op("cli", ("billiard", "check", "--seed-range", "0..1")))
        runner.execute(Op("spectral", ((2, 1), (1, 1))))
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tracer.calls["core.matrix.char_poly"] >= 1
    # the pool's worker thread carried the operation id
    check_spans = [s for s in tracer.spans if s[1] == "billiards.check_configuration"]
    assert check_spans and all(s[5] == 0 and s[4] is not None for s in check_spans)
    for layer, owner, attr, raw, name in targets():
        assert vars(owner)[attr] is raw
