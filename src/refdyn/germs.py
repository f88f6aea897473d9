"""Valuation dynamics of curve branches through the triangle configuration.

A branch through the first vertex is a 6-tuple of power series in a local
parameter; each reflection substitutes the tuple into an explicit quadratic
map and divides out the largest common power of t, so only the vector of
valuations matters for the degree bookkeeping.  One private rule,
`_valuation_rule`, computes what a reflection does to that vector: the
valuation sums of the quadric's support pairs and the normalized image.  It
reads the quadric slot and the pair supports from
`reflection_maps.QUADRIC_SLOTS` and `MONOMIAL_SUPPORTS`.  `valuation_step` applies the rule (and checks it
against the transition matrices), `verify_minimal_pairs` records its minimal
pairs, and `series_evolve` pushes an actual series tuple through the maps and
verifies that no coefficient cancellation ever disturbs the predicted
valuations.

Series evolution bookkeeping: each component is a coefficient window of
fixed length starting at its leading term, at the valuation the symbolic
chain predicts, with coefficients reduced modulo a large prime.  A nonzero
residue certifies that the true rational coefficient is nonzero, which is all
the valuation check needs, while keeping coefficient growth bounded; residues
above a guard index are re-randomized each step so that the evolution stays
generic.  A zero leading residue is reported as a cancellation, never
silently absorbed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import TruncatedSeries, valuation as series_valuation
from .reflection_maps import (
    MONOMIAL_SUPPORTS,
    QUADRIC_SLOTS,
    TriangleChart,
    monomial_pair,
    random_chart,
)
from .transitions import triangle_matrices

_PRIME = (1 << 61) - 1
# window residues from this index on are re-randomized after every step
_GUARD = 8

# support pair achieving the minimal valuation sum, per phase
PREDICTED_PAIRS = {0: (3, 4), 1: (3, 5), 2: (4, 5)}


class GenericityError(RuntimeError):
    """The predicted minimal pair does not achieve the minimum."""


class CancellationError(RuntimeError):
    """A leading series coefficient vanished against the valuation prediction."""

    def __init__(self, message: str, step: int, component: int):
        super().__init__(message)
        self.step = step
        self.component = component


@dataclass(frozen=True)
class ValuationVector:
    vals: tuple[int, int, int, int, int, int]
    phase: int = 0

    def __post_init__(self) -> None:
        vals = tuple(int(v) for v in self.vals)
        object.__setattr__(self, "vals", vals)
        if len(vals) != 6 or any(v < 0 for v in vals):
            raise ValueError("valuation vectors are 6-tuples of nonnegative integers")
        if min(vals) != 0:
            raise ValueError("valuation vectors are normalized: some entry is zero")
        if not dominance_holds(vals):
            raise ValueError("dominance violated: a tail entry exceeds a head entry")


def dominance_holds(vals: Sequence[int]) -> bool:
    """Each of the first three entries is >= each of the last three."""
    return min(vals[0], vals[1], vals[2]) >= max(vals[3], vals[4], vals[5])


def _valuation_rule(
    vals: Sequence[int], phase: int
) -> tuple[dict, list, tuple[int, ...]]:
    """The valuation rule of one reflection.

    Returns the valuation sum of every support pair of the phase's quadric,
    the pairs that reach the minimal sum (in support order) and the image
    valuations normalized to minimum zero.  Component j of the image is
    x_phase * x_j, valued vals[phase] + vals[j], except the quadric slot,
    which a generic quadric values at the minimal pair sum.
    """
    sums = {pair: vals[pair[0]] + vals[pair[1]] for pair in MONOMIAL_SUPPORTS[phase]}
    vq = min(sums.values())
    raw = [vals[phase] + v for v in vals]
    raw[QUADRIC_SLOTS[phase]] = vq
    mn = min(raw)
    return sums, [p for p, s in sums.items() if s == vq], tuple(v - mn for v in raw)


def valuation_step(d: ValuationVector) -> tuple[ValuationVector, tuple[int, int]]:
    """One reflection applied to a valuation vector.

    Applies the valuation rule and increments the phase.  Raises
    GenericityError when the phase's predicted pair does not reach the
    minimal sum; the result is asserted against left-multiplication by the
    corresponding transition matrix.
    """
    phase = d.phase % 3
    _, ties, new_vals = _valuation_rule(d.vals, phase)
    pair = PREDICTED_PAIRS[phase]
    if pair not in ties:
        raise GenericityError(
            f"predicted pair {pair} does not achieve the minimum at phase {phase};"
            f" minimizers: {ties}"
        )
    predicted = triangle_matrices()[phase].matvec(d.vals)
    if tuple(int(x) for x in predicted) != new_vals:
        raise AssertionError(
            f"valuation step disagrees with the phase-{phase} transition matrix"
        )
    return ValuationVector(new_vals, d.phase + 1), pair


def transverse_start() -> ValuationVector:
    """Valuation vector of a branch transverse to the first tangent divisor."""
    return ValuationVector((1, 0, 0, 0, 0, 0), 0)


def verify_minimal_pairs(steps: int) -> dict:
    """Run the valuation chain from the transverse start and record, at every
    step, whether the phase-predicted support pair achieves the minimum.

    Mismatches become report rows with match=False; the run continues so the
    report shows the full horizon.
    """
    if steps < 3:
        raise ValueError("need at least 3 steps to cover all phases")
    rows = []
    d = transverse_start()
    for k in range(steps):
        phase = d.phase % 3
        predicted = PREDICTED_PAIRS[phase]
        _, ties, image = _valuation_rule(d.vals, phase)
        match = predicted in ties
        rows.append(
            {
                "step": k,
                "phase": phase,
                "valuations": list(d.vals),
                "minimal_pair": list(predicted if match else ties[0]),
                "predicted_pair": list(predicted),
                "match": match,
                "tied_pairs": [list(t) for t in ties],
            }
        )
        d = ValuationVector(image, d.phase + 1)
    first_bad = next((r["step"] for r in rows if not r["match"]), None)
    return {"steps": steps, "all_match": first_bad is None, "first_mismatch": first_bad, "rows": rows}


# ---------------------------------------------------------------------------
# actual series evolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveTrait:
    """Six truncated power series with their valuation vector."""

    series: tuple[TruncatedSeries, ...]
    valuations: ValuationVector

    def __post_init__(self) -> None:
        if len(self.series) != 6:
            raise ValueError("a trait has six coordinate series")
        orders = {s.order for s in self.series}
        if len(orders) != 1:
            raise ValueError("coordinate series must share a truncation order")
        computed = tuple(series_valuation(s) for s in self.series)
        if computed != self.valuations.vals:
            raise ValueError("stored valuations disagree with the series")


def random_transverse_trait(seed: int = 0, order: int = 64) -> CurveTrait:
    """A random branch transverse to the first tangent divisor: component 0
    vanishes to order exactly one, the others are units."""
    rng = random.Random(f"trait-{seed}")
    def unit_coeffs(val: int) -> list[int]:
        cs = [0] * order
        cs[val] = rng.choice([c for c in range(-9, 10) if c])
        for i in range(val + 1, order):
            cs[i] = rng.randint(-9, 9)
        return cs

    series = tuple(
        TruncatedSeries(unit_coeffs(1 if i == 0 else 0), order) for i in range(6)
    )
    return CurveTrait(series, transverse_start())


def _to_window(s: TruncatedSeries, length: int) -> list[int]:
    """Residues of the coefficients from the leading term on."""
    val = series_valuation(s)
    window = []
    for i in range(val, val + length):
        c = s.coeffs[i] if i < s.order else Fraction(0)
        window.append(c.numerator * pow(c.denominator, -1, _PRIME) % _PRIME)
    return window


def _window_mul(a: list[int], b: list[int], length: int) -> list[int]:
    out = [0] * length
    for i, x in enumerate(a):
        if x:
            for j in range(min(len(b), length - i)):
                if b[j]:
                    out[i + j] = (out[i + j] + x * b[j]) % _PRIME
    return out


def series_evolve(
    trait: CurveTrait,
    steps: int,
    chart: TriangleChart | None = None,
    seed: int = 0,
) -> list[ValuationVector]:
    """Push a trait through the reflections cyclically, recording the
    valuation vector after each step.

    The valuations follow the symbolic chain of `valuation_step`; the series
    certify it, because each component's valuation is the predicted one
    exactly when its leading residue is nonzero.  A zero leading residue
    aborts with the offending step and component.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if chart is None:
        chart = random_chart(seed)
    order = trait.series[0].order
    rng = random.Random(f"evolve-{seed}")
    windows = [_to_window(s, order) for s in trait.series]
    quadrics = [
        {
            monomial_pair(e): c.numerator * pow(c.denominator, -1, _PRIME) % _PRIME
            for e, c in q.terms.items()
        }
        for q in (chart.q0, chart.q1, chart.q2)
    ]
    d = trait.valuations
    out: list[ValuationVector] = []
    for k in range(steps):
        phase = d.phase % 3
        sums, _, _ = _valuation_rule(d.vals, phase)
        d, _ = valuation_step(d)
        vq = min(sums.values())
        acc = [0] * order
        for pair, coef in quadrics[phase].items():
            off = sums[pair] - vq
            if off >= order:
                continue
            prod = _window_mul(windows[pair[0]], windows[pair[1]], order - off)
            for idx, x in enumerate(prod):
                acc[idx + off] = (acc[idx + off] + coef * x) % _PRIME
        slot = QUADRIC_SLOTS[phase]
        windows = [
            acc if j == slot else _window_mul(windows[phase], w, order)
            for j, w in enumerate(windows)
        ]
        for j, w in enumerate(windows):
            if w[0] == 0:
                raise CancellationError(
                    f"leading coefficient vanished at step {k}, component {j}",
                    step=k,
                    component=j,
                )
            for idx in range(_GUARD, order):
                w[idx] = rng.randrange(_PRIME)
        out.append(d)
    return out
