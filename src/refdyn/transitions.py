"""Degree-evolution transition systems and certified dominant growth.

Two concrete systems live here: the period-1 system of the line-conic
configuration (reflections through two points of a line and one point of a
residual conic) and the period-3 system of the triangle of lines.  The
growth rate of either is certified by `dominant_growth`, an exact
implementation of the dominant-eigenvalue criterion, over Q alone: the top
eigenvalue mu1 must be a simple positive real root of the characteristic
polynomial; every other root must lie in a disk |z| < r < mu1, counted by the
Schur-Cohn test on the square-free part; the start vector must have a nonzero
component along the dominant eigenspace, and the dominant eigenvector must
see the first coordinate.  Both eigenvector tests read the adjugate of
mu1 I - m, written as a polynomial in mu1 with integer Krylov vectors, modulo
the minimal polynomial of mu1.  No floating point is used anywhere in the
certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable, Sequence

from .core import (
    AlgebraicReal,
    RatMatrix,
    UniPoly,
    algebraic_cmp,
    algebraic_equal,
    as_rational,
    char_poly,
    cmp_with_rational,
    factor_over_rationals,
    isolate_real_roots,
    rat_to_str,
)


class CertificationError(RuntimeError):
    """A growth-certificate hypothesis failed; the partial report is attached."""

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = report or {}


# ---------------------------------------------------------------------------
# transition systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateVector:
    entries: tuple[int, ...]
    phase: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))

    def to_obj(self) -> dict:
        return {"phase": self.phase, "v": list(self.entries)}

    @classmethod
    def from_obj(cls, obj: dict) -> "StateVector":
        try:
            entries, phase = tuple(obj["v"]), obj.get("phase", 0)
            if not all(isinstance(x, int) for x in (*entries, phase)):
                raise TypeError("entries and phase must be integers")
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(
                f'malformed state vector, expected {{"v": [integers], "phase": integer}}: {exc!r}'
            ) from exc
        return cls(entries, phase)

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, s: str) -> "StateVector":
        return cls.from_obj(json.loads(s))


@dataclass(frozen=True)
class TransitionSystem:
    matrices: tuple[RatMatrix, ...]

    def __post_init__(self) -> None:
        if not self.matrices:
            raise ValueError("a transition system needs at least one matrix")
        dim = self.matrices[0].rows
        for m in self.matrices:
            if not m.is_square() or m.rows != dim:
                raise ValueError("all matrices must be square of a shared dimension")
            if not m.is_integer():
                raise ValueError("transition matrices must be integral")

    @property
    def period(self) -> int:
        return len(self.matrices)

    @property
    def dimension(self) -> int:
        return self.matrices[0].rows

    def matrix_at(self, phase: int) -> RatMatrix:
        return self.matrices[phase % self.period]

    def to_obj(self) -> dict:
        return {
            "period": self.period,
            "matrices": [m.to_int_lists() for m in self.matrices],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "TransitionSystem":
        try:
            mats = tuple(RatMatrix(m) for m in obj["matrices"])
            period = obj.get("period", len(mats))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(
                f'malformed transition system, expected {{"matrices": [integer rows]}}: {exc!r}'
            ) from exc
        if period != len(mats):
            raise ValueError("period field disagrees with the matrix list")
        return cls(mats)

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, s: str) -> "TransitionSystem":
        return cls.from_obj(json.loads(s))


def iterate(sys: TransitionSystem, v0: StateVector, steps: int) -> list[StateVector]:
    """v0, v1, ..., v_steps with v_{k+1} = (matrix at v0.phase + k) v_k, exact."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if len(v0.entries) != sys.dimension:
        raise ValueError("state dimension mismatch")
    out = [v0]
    cur = v0
    for k in range(steps):
        m = sys.matrix_at(cur.phase)
        nxt = m.matvec(cur.entries)
        cur = StateVector(tuple(int(x) for x in nxt), cur.phase + 1)
        out.append(cur)
    return out


# ---------------------------------------------------------------------------
# the line-conic system
# ---------------------------------------------------------------------------

# counted state: (points on the line L, points on the conic C, curve degree)


def _check_line_conic_state(s: StateVector) -> tuple[int, int, int]:
    if len(s.entries) != 3:
        raise ValueError("line-conic states are 3-vectors (lambda, gamma, delta)")
    lam, gam, delta = s.entries
    if lam < 0 or gam < 0 or delta < 0:
        raise ValueError("state entries must be nonnegative counts")
    if lam > delta:
        raise ValueError("inconsistent state: more points on L than the degree")
    return lam, gam, delta


def conic_line_step(s: StateVector, reflection: str) -> StateVector:
    """One reflection applied to the state.

    Reflecting through a point of L sends (lam, gam, delta) to
    (delta, gam, 2*delta - lam); reflecting through the conic point swaps the
    roles of L and C: (gam, lam + delta, 2*delta).  Chaining p, q, r
    reproduces the one-cycle matrix of `conic_line_matrix` exactly.
    """
    lam, gam, delta = _check_line_conic_state(s)
    if reflection in ("p", "q"):
        nxt = (delta, gam, 2 * delta - lam)
    elif reflection == "r":
        nxt = (gam, lam + delta, 2 * delta)
    else:
        raise ValueError("reflection must be one of 'p', 'q', 'r'")
    return StateVector(nxt, s.phase + 1)


def conic_line_table_row(s: StateVector, reflection: str) -> StateVector:
    """Cumulative state after applying the p,q,r cycle up through the given
    reflection, starting from s; these are the rows of the bookkeeping table
    (row q = two steps from s, row r = the full cycle = the matrix)."""
    lam, gam, delta = _check_line_conic_state(s)
    if reflection == "p":
        nxt = (delta, gam, 2 * delta - lam)
    elif reflection == "q":
        nxt = (2 * delta - lam, gam, 3 * delta - 2 * lam)
    elif reflection == "r":
        nxt = (gam, 5 * delta - 3 * lam, 6 * delta - 4 * lam)
    else:
        raise ValueError("reflection must be one of 'p', 'q', 'r'")
    return StateVector(nxt, s.phase)


def conic_line_matrix() -> RatMatrix:
    """Matrix of one full p,q,r cycle acting on (lambda, gamma, delta)^t."""
    return RatMatrix([[0, 1, 0], [-3, 0, 5], [-4, 0, 6]])


def conic_line_system() -> TransitionSystem:
    return TransitionSystem((conic_line_matrix(),))


# ---------------------------------------------------------------------------
# the triangle system
# ---------------------------------------------------------------------------


_TRIANGLE_MATRICES = (
    RatMatrix(
        [
            [2, 0, 0, -1, -1, 0],
            [1, 1, 0, -1, -1, 0],
            [1, 0, 1, -1, -1, 0],
            [1, 0, 0, 0, -1, 0],
            [1, 0, 0, -1, 0, 0],
            [0, 0, 0, 0, 0, 0],
        ]
    ),
    RatMatrix(
        [
            [1, 1, 0, -1, 0, -1],
            [0, 2, 0, -1, 0, -1],
            [0, 1, 1, -1, 0, -1],
            [0, 1, 0, 0, 0, -1],
            [0, 0, 0, 0, 0, 0],
            [0, 1, 0, -1, 0, 0],
        ]
    ),
    RatMatrix(
        [
            [1, 0, 1, 0, -1, -1],
            [0, 1, 1, 0, -1, -1],
            [0, 0, 2, 0, -1, -1],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, -1],
            [0, 0, 1, 0, -1, 0],
        ]
    ),
)


def triangle_matrices() -> tuple[RatMatrix, RatMatrix, RatMatrix]:
    """The phase-0, 1 and 2 valuation transitions, one tuple built at import."""
    return _TRIANGLE_MATRICES


def triangle_system() -> TransitionSystem:
    """Period-3 valuation-transition system of the triangle configuration."""
    return TransitionSystem(triangle_matrices())


def triangle_cycle_product() -> RatMatrix:
    """One full cycle: the phase-2 matrix times phase-1 times phase-0."""
    p0, p1, p2 = triangle_matrices()
    return p2 * p1 * p0


# ---------------------------------------------------------------------------
# dominant growth certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralData:
    mu1: AlgebraicReal
    factor: UniPoly
    hypotheses: dict
    char_polynomial: UniPoly
    factorization: tuple[tuple[UniPoly, int], ...]

    def to_obj(self) -> dict:
        lo, hi = self.mu1.decimal_enclosure(12)
        return {
            "mu1": {
                "defining_poly": self.factor.format(),
                "enclosure": [lo, hi],
                "interval": [rat_to_str(self.mu1.lo), rat_to_str(self.mu1.hi)],
            },
            "char_poly": self.char_polynomial.format(),
            "factors": [[f.format(), m] for f, m in self.factorization],
            "hypotheses": dict(self.hypotheses),
        }


def _roots_in_disk(h: UniPoly, r: Fraction) -> int | None:
    """Number of roots of h in |z| < r (rational r > 0), with multiplicity,
    by the counting form of the Schur-Cohn test; None when its table is
    singular.  h must be nonzero."""
    # substitute x = r*y and count in the unit disk
    h = UniPoly(c * r**i for i, c in enumerate(h.coeffs)).primitive()
    steps: list[tuple[int, bool]] = []
    while h.degree >= 1:
        a0, an = h.coeff(0), h.leading()
        delta = an * an - a0 * a0
        if delta == 0:
            return None
        steps.append((h.degree, delta > 0))
        rev = UniPoly(tuple(reversed(h.coeffs)))
        # the constant term cancels exactly; shift down by one degree
        h = UniPoly((h.scale(an) - rev.scale(a0)).coeffs[1:]).primitive()
    # the next polynomial g has x*g = a_n*h - a_0*h*, where h* has the reciprocal
    # roots and |h*| = |h| on |z| = 1.  By Rouche, x*g has as many roots inside as
    # h when delta > 0, and as many as h* (deg - k of them) when delta < 0.  A
    # regular table puts no root on the circle: h and h* share such a root, so g
    # has it too, down to the nonzero constant at degree 0.
    k = 0
    for deg, larger in reversed(steps):
        k = k + 1 if larger else deg - 1 - k
    return k


def _strictly_dominant(sf: UniPoly, mu: AlgebraicReal) -> bool:
    """Whether every root of the square-free sf other than its root mu lies in
    |z| < r for some r < mu: then exactly deg - 1 roots lie in |z| < mu.lo.
    A disk |z| < mu.hi that misses a root refutes it at once, since that root
    has modulus >= mu.hi > mu; a root of modulus exactly mu spends all 64
    refinements."""
    cur = mu
    for _ in range(64):
        if cur.lo > 0:
            if _roots_in_disk(sf, cur.lo) == sf.degree - 1:
                return True
            outer = _roots_in_disk(sf, cur.hi)
            if outer is not None and outer < sf.degree:
                return False
        cur = cur.refined(cur.width() / 4)
    return False


def _adjugate_sees(cp: UniPoly, krylov: list, modulus: UniPoly) -> bool:
    """Whether sum_k q_k(theta) * krylov[k] is nonzero at a root theta of the
    irreducible `modulus`.  With q_k = cp.coeffs[k+1:] read as a polynomial,
    adj(x I - m) = sum_k q_k(x) m^k for cp the characteristic polynomial of m."""
    qs = [UniPoly(cp.coeffs[k + 1 :]) for k in range(len(krylov))]
    for i in range(len(krylov[0])):
        component = UniPoly.zero()
        for q, v in zip(qs, krylov):
            component = component + q.scale(v[i])
        if not (component % modulus).is_zero():
            return True
    return False


def dominant_growth(m: RatMatrix, v0: StateVector | Sequence[int]) -> SpectralData:
    """Certify the dominant-eigenvalue growth hypotheses for (m, v0).

    Returns the dominant eigenvalue as an exact algebraic number together
    with its irreducible factor and the verified hypothesis flags; raises
    CertificationError (with the partial report attached) when any
    hypothesis cannot be certified.
    """
    if not m.is_square():
        raise ValueError("non-square matrix")
    if not m.is_integer():
        raise ValueError("dominant_growth expects an integer matrix")
    entries = v0.entries if isinstance(v0, StateVector) else tuple(v0)
    if len(entries) != m.rows:
        raise ValueError("start vector dimension mismatch")

    cp = char_poly(m)
    factors = tuple(factor_over_rationals(cp))
    real_roots: list[tuple[AlgebraicReal, UniPoly, int]] = []
    for fac, mult in factors:
        for root in isolate_real_roots(fac):
            real_roots.append((root, fac, mult))

    report: dict = {"char_poly": cp.format()}
    positives = [t for t in real_roots if cmp_with_rational(t[0], 0) > 0]
    if not positives:
        raise CertificationError("no positive real eigenvalue", report)
    mu, mu_factor, mu_mult = positives[0]
    for cand in positives[1:]:
        if algebraic_cmp(cand[0], mu) > 0:
            mu, mu_factor, mu_mult = cand

    hypotheses = {
        "positive": True,
        "simple": mu_mult == 1,
        "strictly_dominant": True,
        "v0_sees_dominant_eigenspace": False,
        "eigenvector_sees_first_coordinate": False,
    }
    report["mu1_factor"] = mu_factor.format()

    failures: list[str] = []
    if mu_mult > 1:
        hypotheses["simple"] = False
        hypotheses["strictly_dominant"] = False  # the eigenvalue ties with itself
        failures.append(
            f"dominant eigenvalue is a repeated root (multiplicity {mu_mult})"
        )

    if hypotheses["strictly_dominant"]:
        # the product of the primitive irreducible factors is the primitive
        # square-free part of cp (Gauss's lemma)
        square_free = prod((fac for fac, _ in factors), start=UniPoly.one())
        if not _strictly_dominant(square_free, mu):
            hypotheses["strictly_dominant"] = False
            failures.append("strict dominance over the other roots not certified")

    # mu1 is simple, so adj(mu1 I - m) = c r w^T with c != 0, r and w the right
    # and left eigenvectors: w.v0 != 0 iff adj v0 != 0, r_0 != 0 iff e0^T adj != 0
    if mu_mult == 1:
        rows = m.to_int_lists()
        cols = list(zip(*rows))
        right, left = [entries], [tuple(int(i == 0) for i in range(m.rows))]
        for _ in range(m.rows - 1):
            right.append(tuple(sum(a * b for a, b in zip(r, right[-1])) for r in rows))
            left.append(tuple(sum(a * b for a, b in zip(c, left[-1])) for c in cols))
        sees_v0 = _adjugate_sees(cp, right, mu_factor)
        sees_first = _adjugate_sees(cp, left, mu_factor)
        hypotheses["v0_sees_dominant_eigenspace"] = sees_v0
        hypotheses["eigenvector_sees_first_coordinate"] = sees_first
        if not sees_v0:
            failures.append("start vector lies in the span of the other eigenspaces")
        if not sees_first:
            failures.append("dominant eigenvector has zero first coordinate")

    report["hypotheses"] = dict(hypotheses)
    if failures:
        raise CertificationError("; ".join(failures), report)

    return SpectralData(
        mu1=mu.refined(Fraction(1, 10**12)),
        factor=mu_factor,
        hypotheses=hypotheses,
        char_polynomial=cp,
        factorization=factors,
    )


# ---------------------------------------------------------------------------
# growth diagnostics from integer sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthEstimate:
    ratios: tuple[Fraction, ...]
    mth_roots: tuple[Fraction, ...]

    def to_obj(self) -> dict:
        return {
            "ratios": [rat_to_str(r) for r in self.ratios],
            "mth_roots": [rat_to_str(r) for r in self.mth_roots],
        }


def integer_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, by Newton iteration on integers."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if n == 0:
        return 0
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def growth_estimate(seq: Sequence[int], digits: int = 9) -> GrowthEstimate:
    """Ratio and m-th-root diagnostics for a positive integer degree sequence.

    Ratios d_{m+1}/d_m are exact rationals; the m-th roots d_m^{1/m} are
    fixed-precision approximations (floor at the given digit count), for
    display only.
    """
    if not seq:
        raise ValueError("empty sequence")
    if any(s < 1 for s in seq):
        raise ValueError("entries must be at least 1")
    ratios = tuple(Fraction(b, a) for a, b in zip(seq, seq[1:]))
    scale = 10**digits
    roots = tuple(
        Fraction(integer_nth_root(int(s) * scale**m, m), scale)
        for m, s in enumerate(seq[1:], start=1)
    )
    return GrowthEstimate(ratios, roots)


# ---------------------------------------------------------------------------
# degree tuples
# ---------------------------------------------------------------------------

ValueLike = AlgebraicReal | Fraction | int


def _as_value(v: ValueLike) -> AlgebraicReal:
    if isinstance(v, AlgebraicReal):
        return v
    return AlgebraicReal.from_rational(as_rational(v))


@dataclass(frozen=True)
class DegreeTuple:
    values: tuple[AlgebraicReal, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise ValueError("a degree tuple has at least two entries")
        for end in (self.values[0], self.values[-1]):
            if not end.contains_rational(1):
                raise ValueError("the outer degrees must equal 1 exactly")
        for v in self.values:
            if cmp_with_rational(v, 1) < 0:
                raise ValueError("degrees are at least 1")

    def __len__(self) -> int:
        return len(self.values)

    def display(self, digits: int = 9) -> list[str]:
        out = []
        for v in self.values:
            q = v.rational_value()
            out.append(rat_to_str(q) if q is not None else v.decimal_enclosure(digits)[0])
        return out


def degree_tuple(values: Iterable[ValueLike]) -> DegreeTuple:
    return DegreeTuple(tuple(_as_value(v) for v in values))


def inverse_tuple(t: DegreeTuple) -> DegreeTuple:
    """Degree tuple of the inverse map: the reversed tuple."""
    return DegreeTuple(tuple(reversed(t.values)))


def tuples_equal(a: DegreeTuple, b: DegreeTuple) -> bool:
    return len(a) == len(b) and all(
        algebraic_equal(x, y) for x, y in zip(a.values, b.values)
    )


def _max_value(a: AlgebraicReal, b: AlgebraicReal) -> AlgebraicReal:
    return a if algebraic_cmp(a, b) >= 0 else b


def fibration_degrees(base: DegreeTuple) -> DegreeTuple:
    """Degrees of a fibration-preserving lift: lambda_k = max of the base
    degrees at k and k-1."""
    vals = base.values
    out = [vals[0]]
    for k in range(1, len(vals)):
        out.append(_max_value(vals[k], vals[k - 1]))
    out.append(vals[-1])
    return DegreeTuple(tuple(out))


_LOG_CONCAVITY_ROUNDS = 96


def check_log_concavity(t: DegreeTuple) -> tuple[bool, list[dict]]:
    """Certify lambda_j^2 >= lambda_{j-1} * lambda_{j+1} for interior j.

    An all-equal triple is a tie, decided first by exact equality tests on
    the defining polynomials; other triples are decided by exact interval
    refinement.  Returns the verdict and a per-index certificate recording
    the refined intervals.
    """
    certificate: list[dict] = []
    verdict = True
    for j in range(1, len(t.values) - 1):
        a, b, c = t.values[j], t.values[j - 1], t.values[j + 1]
        holds, cert = _certify_square_vs_product(a, b, c)
        cert["j"] = j
        certificate.append(cert)
        verdict = verdict and holds
    return verdict, certificate


def _certify_square_vs_product(
    a: AlgebraicReal, b: AlgebraicReal, c: AlgebraicReal
) -> tuple[bool, dict]:
    qa, qb, qc = a.rational_value(), b.rational_value(), c.rational_value()
    if qa is not None and qb is not None and qc is not None:
        holds = qa * qa >= qb * qc
        return holds, {
            "decided_by": "rational",
            "lhs": rat_to_str(qa * qa),
            "rhs": rat_to_str(qb * qc),
            "holds": holds,
        }
    if algebraic_equal(b, c) and algebraic_equal(a, b):
        return True, {"decided_by": "exact-equality", "holds": True}
    x, y, z = a, b, c
    for _ in range(_LOG_CONCAVITY_ROUNDS):
        if x.lo > 0 and y.lo > 0 and z.lo > 0:
            sq = (x.lo * x.lo, x.hi * x.hi)
            pr = (y.lo * z.lo, y.hi * z.hi)
            cert = {
                "decided_by": "interval",
                "lhs_interval": [rat_to_str(sq[0]), rat_to_str(sq[1])],
                "rhs_interval": [rat_to_str(pr[0]), rat_to_str(pr[1])],
            }
            if sq[0] >= pr[1]:
                cert["holds"] = True
                return True, cert
            if sq[1] <= pr[0]:
                cert["holds"] = False
                return False, cert
        x, y, z = x._bisect_once(), y._bisect_once(), z._bisect_once()
    raise ArithmeticError("log-concavity comparison undecided at maximum refinement")
