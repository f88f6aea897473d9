"""Output checker for the refdyn benchmark, run outside the timed loop.

Every operation is classified as
  ok           all certificates hold and the output is right,
  uncertified  the program reported that a certificate did not hold (exit 1,
               or `CertificationError` from `dominant_growth`), with an
               otherwise well-formed output,
  failed       it raised, hit `SystemExit`, exited 2, produced a wrong or
               malformed output, or a byte-different output for an input it
               had already answered.

References: the paper's defining polynomials x^2 - 5x - 2 (line + conic) and
x^2 - 4x - 1 (triangle) and the growth 2^N in general position; sympy as the
independent oracle for `dominant_growth`; the reports' own certificate flags
for the billiard and germ pipelines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

OK, UNCERTIFIED, FAILED = "ok", "uncertified", "failed"


@dataclass(frozen=True)
class Outcome:
    """What one operation produced.  `rc` is the exit code (spectral: 0 for a
    certificate, 1 for `CertificationError`); `error` names an exception or
    `SystemExit` that escaped, in which case `rc` is None."""

    rc: int | None
    out: str
    error: str | None = None


class CheckError(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


# -- parsing the report formats --------------------------------------------------


def parse_rational(s: str) -> Fraction:
    num, sep, den = s.partition("/")
    _require(num.lstrip("-").isdigit() and (not sep or den.isdigit()), f"bad rational {s!r}")
    return Fraction(int(num), int(den) if sep else 1)


def parse_decimal(s: str) -> Fraction:
    whole, _, frac = s.partition(".")
    _require(whole.lstrip("-").isdigit() and (frac.isdigit() or not frac), f"bad decimal {s!r}")
    sign = -1 if whole.startswith("-") else 1
    return sign * (abs(int(whole)) + (Fraction(int(frac), 10 ** len(frac)) if frac else 0))


def parse_poly(s: str) -> list[Fraction]:
    """Coefficients (constant first) of a polynomial in refdyn's display
    format, e.g. "x^6 - 6x^5 + 8x^4 - 2x^3 - x^2"."""
    coeffs: dict[int, Fraction] = {}
    for i, term in enumerate(s.replace(" - ", " + -").split(" + ")):
        _require(bool(term) and (i == 0 or term.strip() == term), f"bad polynomial {s!r}")
        if "x" in term:
            head, _, power = term.partition("x")
            coef = {"": Fraction(1), "-": Fraction(-1)}.get(head)
            if coef is None:
                coef = parse_rational(head)
            if power:
                _require(power.startswith("^") and power[1:].isdigit(), f"bad power in {s!r}")
                deg = int(power[1:])
            else:
                deg = 1
        else:
            coef, deg = parse_rational(term), 0
        _require(deg not in coeffs and coef != 0, f"bad polynomial {s!r}")
        coeffs[deg] = coef
    _require(bool(coeffs), f"empty polynomial {s!r}")
    return [coeffs.get(d, Fraction(0)) for d in range(max(coeffs) + 1)]


def _primitive(cs: list[Fraction]) -> list[int]:
    """Integer coefficients divided by their content, leading one positive."""
    den = lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs]
    g = gcd(*ints) * (-1 if ints[-1] < 0 else 1)
    return [v // g for v in ints]


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _all_true(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, dict):
        return all(_all_true(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_true(v) for v in value)
    return True


def _below_quadratic_root(q: Fraction, b: int, c: int) -> bool:
    """q < r, r the larger root of x^2 - b x - c, decided exactly:
    q < (b + sqrt(b^2 + 4c)) / 2  <=>  2q - b < sqrt(b^2 + 4c)."""
    t = 2 * q - b
    return t < 0 or t * t < b * b + 4 * c


def _encloses_quadratic_root(lo: Fraction, hi: Fraction, b: int, c: int) -> bool:
    return _below_quadratic_root(lo, b, c) and not _below_quadratic_root(hi, b, c)


# -- per-command checks ------------------------------------------------------------


def _json_report(outcome: Outcome) -> dict:
    try:
        report = json.loads(outcome.out)
    except json.JSONDecodeError as exc:
        raise CheckError(f"report is not JSON: {exc}") from None
    _require(isinstance(report, dict), "report is not an object")
    _require(outcome.rc == (0 if _all_true(report.get("certificates")) else 1),
             "exit code disagrees with the certificate flags")
    return report


def _csv_rows(outcome: Outcome, header: str) -> list[list[str]]:
    lines = outcome.out.split("\n")
    _require(lines[-1] == "" and lines[0] == header, "bad CSV header or ending")
    return [line.split(",") for line in lines[1:-1]]


def _check_headline_value(report: dict, digits: int, poly: list[int], b: int, c: int) -> None:
    value = report["outputs"]["value"]
    _require(_primitive(parse_poly(value["defining_poly"])) == poly, "wrong defining polynomial")
    lo, hi = (parse_decimal(s) for s in value["decimal_enclosure"])
    # an interval narrower than 10^-digits, rounded outward at both ends
    _require(0 < hi - lo <= Fraction(2, 10**digits), "enclosure wider than the precision")
    _require(_encloses_quadratic_root(lo, hi, b, c), "decimal enclosure misses the growth rate")
    ilo, ihi = (parse_rational(s) for s in value["interval"])
    _require(_encloses_quadratic_root(ilo, ihi, b, c), "isolating interval misses the growth rate")
    t = report["outputs"]["degree_tuple"]
    _require(t[0] == t[4] == "1" and t[1] == t[2] == t[3] == value["decimal_enclosure"][0],
             "degree tuple is not (1, mu, mu, mu, 1)")


_TRIANGLE_CHAR = _poly_mul(_poly_mul([0, 0, 1], [1, -2, 1]), [-1, -4, 1])  # x^2 (x-1)^2 (x^2-4x-1)
_TRIANGLE_MIN = _poly_mul(_poly_mul([0, 1], [-1, 1]), [-1, -4, 1])  # x (x-1) (x^2-4x-1)


def _options(argv: tuple) -> dict:
    """--flag value pairs after the subcommand and its action ("--k=v" too)."""
    opts, rest = {}, list(argv[2:])
    while rest:
        flag = rest.pop(0)
        key, eq, value = flag.partition("=")
        opts[key] = value if eq else rest.pop(0)
    return opts


def _check_reproduce(argv: tuple, outcome: Outcome) -> str:
    report = _json_report(outcome)
    target, opts = argv[1], _options(argv)
    digits = int(opts.get("--precision", 9))
    if target == "triangle":
        _check_headline_value(report, digits, [-1, -4, 1], 4, 1)
        _require(_primitive(parse_poly(report["outputs"]["char_poly"])) == _TRIANGLE_CHAR, "wrong char poly")
        _require(_primitive(parse_poly(report["outputs"]["minimal_poly"])) == _TRIANGLE_MIN, "wrong minimal poly")
    elif target == "conic-line":
        _check_headline_value(report, digits, [-2, -5, 1], 5, 2)
    else:
        n = int(opts["--n"])
        power = str(2**n)
        _require(report["outputs"]["degree_tuple"] == ["1", power, power, power, "1"], "degree tuple is not 2^N")
    return OK if outcome.rc == 0 else UNCERTIFIED


def _check_billiard(argv: tuple, outcome: Outcome) -> str:
    opts = _options(argv)
    if argv[1] == "orbit":
        rows = _csv_rows(outcome, "step,locus,x0,x1,x2,x3")
        _require(outcome.rc in (0, 1), "bad exit code")
        _require(len(rows) == len(opts["--word"]) + 1, "orbit length differs from the word")
        for step, row in enumerate(rows):
            _require(len(row) == 6 and row[0] == str(step) and row[1] in ("L", "C", "X"), "bad orbit row")
            _require(any(parse_rational(x) != 0 for x in row[2:]), "zero projective point")
        return OK if outcome.rc == 0 else UNCERTIFIED
    report = _json_report(outcome)
    first, last = (int(s) for s in opts["--seed-range"].split(".."))
    certs, outs = report["certificates"], report["outputs"]
    if not certs["passed"]:
        _require(outs["attempts"] == last - first + 1, "search stopped without a passing seed")
        return UNCERTIFIED
    seed = outs["seed"]
    _require(first <= seed <= last and outs["attempts"] == seed - first + 1, "reported seed outside the search")
    check = outs["check"]
    _require(check["status"] == "success", "passing seed without a successful check")
    _require(all(e["status"] == "safe" for e in check["starts"].values()), "a start is not certified safe")
    return OK if outcome.rc == 0 else UNCERTIFIED


_GERM_COLUMNS = ["step", "phase", "d0", "d1", "d2", "d3", "d4", "d5", "ratio"]


def _check_germ(argv: tuple, outcome: Outcome) -> str:
    opts = _options(argv)
    report = _json_report(outcome)
    outs = report["outputs"]
    if not report["certificates"]["no_cancellation"]:
        _require(0 <= outs["cancellation"]["step"] < int(opts["--steps"]), "cancellation outside the run")
        return UNCERTIFIED
    _require(outs["columns"] == _GERM_COLUMNS, "bad germ columns")
    rows = outs["rows"]
    _require(len(rows) == int(opts["--steps"]), "row count differs from --steps")
    firsts: dict[int, int] = {}
    ratio = None
    for step, row in enumerate(rows):
        _require(len(row) == 9 and row[0] == step and row[1] == (step + 1) % 3, "bad germ row")
        vals = row[2:8]
        _require(all(isinstance(v, int) for v in vals) and min(vals) == 0, "valuations are not normalised")
        expect = ""
        if step % 3 == 2:
            firsts[step] = vals[0]
            prev = firsts.get(step - 3)
            if prev:
                ratio = Fraction(vals[0], prev)
                expect = f"{ratio.numerator}/{ratio.denominator}" if ratio.denominator != 1 else str(ratio.numerator)
        _require(row[8] == expect, "ratio column disagrees with d0")
    # the block ratio converges to the triangle growth 2 + sqrt(5)
    tol = Fraction(1, 10**6)
    _require(ratio is not None and _encloses_quadratic_root(ratio - tol, ratio + tol, 4, 1),
             "block ratio does not converge to 2 + sqrt(5)")
    return OK


def _check_spectral(matrix: tuple, outcome: Outcome) -> str:
    import sympy

    obj = json.loads(outcome.out)
    x = sympy.Symbol("x")
    cp = sympy.Matrix(matrix).charpoly(x).as_expr()
    cp_poly = sympy.Poly(cp, x)
    if outcome.rc == 1:
        _require(set(obj) == {"error", "report"}, "malformed certification failure")
        return UNCERTIFIED
    _require(outcome.rc == 0, "bad outcome code")

    def to_poly(s: str) -> sympy.Poly:
        return sympy.Poly(list(reversed(parse_poly(s))), x)

    _require(to_poly(obj["char_poly"]) == cp_poly, "char poly differs from sympy")
    product = sympy.Poly(1, x)
    for fac, mult in obj["factors"]:
        product *= to_poly(fac) ** mult
    _require(product == cp_poly, "factors do not multiply to the char poly")
    oracle = {
        tuple(_primitive([Fraction(int(c)) for c in reversed(sympy.Poly(f, x).all_coeffs())]))
        for f, _ in sympy.factor_list(cp, x)[1]
    }
    mu = obj["mu1"]
    factor = to_poly(mu["defining_poly"])
    _require(tuple(_primitive(parse_poly(mu["defining_poly"]))) in oracle, "mu1 factor is not a sympy factor")
    lo, hi = (parse_rational(s) for s in mu["interval"])
    dlo, dhi = (parse_decimal(s) for s in mu["enclosure"])
    rational = sympy.Rational
    _require(factor.count_roots(rational(lo), rational(hi)) == 1, "interval does not isolate a root of the factor")
    _require(cp_poly.count_roots(rational(lo), rational(hi)) == 1, "interval holds another eigenvalue")
    _require(cp_poly.count_roots(rational(hi), None) == 0, "a real eigenvalue lies above mu1")
    both_lo, both_hi = max(lo, dlo), min(hi, dhi)
    _require(both_lo < both_hi and factor.count_roots(rational(both_lo), rational(both_hi)) == 1,
             "decimal enclosure misses mu1")
    _require(_all_true(obj["hypotheses"]), "certified with a failed hypothesis")
    return OK


def classify(kind: str, payload: tuple, outcome: Outcome) -> tuple[str, str]:
    """(verdict, reason) for one operation's outcome."""
    if outcome.error is not None:
        return FAILED, outcome.error
    if kind == "cli" and outcome.rc not in (0, 1):
        return FAILED, f"exit code {outcome.rc}"
    try:
        if kind == "spectral":
            verdict = _check_spectral(payload, outcome)
        elif payload[0] == "reproduce":
            verdict = _check_reproduce(payload, outcome)
        elif payload[0] == "billiard":
            verdict = _check_billiard(payload, outcome)
        elif payload[0] == "germ":
            verdict = _check_germ(payload, outcome)
        else:
            raise CheckError(f"no check for {payload[0]!r}")
    except (CheckError, KeyError, IndexError, TypeError, ValueError) as exc:
        return FAILED, f"{type(exc).__name__}: {exc}"
    return verdict, ""
