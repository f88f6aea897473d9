"""Seeded workload generator for the refdyn benchmark.

A workload is an endless sequence of rounds.  Every round of a workload has
the same fixed list of slots (one operation each), and the seed only draws
the inputs inside each slot.  Fixing the composition keeps the median and
the tail of a run inside the same kind of operation from seed to seed.
Precisions, N, seed-range starts, word lengths and step counts are systematic
samples with a seeded start, so every run covers their ranges alike; the
spectral matrices are one fixed population that the seed permutes (see
_population).  In odd rounds one designated slot repeats the previous round's
input, so every run checks that a repeated input gives byte-identical output.

The program sees nothing but what an `Op` carries: a `refdyn` argv, or an
integer matrix for `transitions.dominant_growth`.  Each `Op` also records,
for the checker only, whether the baseline revision certified that input
(see bench/NOTES.md, "Known baseline outcomes"): every input's baseline
outcome is known, so a certificate lost later is caught as a failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Op:
    """One operation: `kind` is "cli" (payload is an argv tuple) or
    "spectral" (payload is a square integer matrix as a tuple of rows)."""

    kind: str
    payload: tuple
    # the baseline revision certified this input: an uncertified outcome is a
    # regression, and the run counts it as failed
    expect_certified: bool = True

    def label(self) -> str:
        if self.kind == "cli":
            return " ".join(self.payload)
        return "dominant_growth " + ";".join(",".join(map(str, r)) for r in self.payload)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # slot generators: (rng, round_index, slot_index, seed_offset) -> Op
    slots: tuple[Callable[[random.Random, int, int, int], Op], ...]
    repeat_slot: int
    # fixed tail percentile: the highest percentile with at least ten samples
    # beyond it in a baseline run; fixed so every commit is read at the same one
    tail_pct: int
    # rounds replayed under tracing; fixed so traced counts repeat exactly
    trace_rounds: int


def _systematic(offset: int, k: int, step: int, size: int) -> int:
    """k-th point of a systematic sample of range(size) with a seeded start:
    consecutive draws are spread evenly instead of independently, so every
    run covers the range alike."""
    return (offset + step * k) % size


# -- headline ---------------------------------------------------------------


def _triangle(rng, r, j, offset) -> Op:
    p = 9 + _systematic(offset, r, 20, 32)
    return Op("cli", ("reproduce", "triangle", "--precision", str(p), "--seed", str(rng.randrange(4))))


def _conic_line(rng, r, j, offset) -> Op:
    # the two conic-line slots of a round take mirrored precisions p and 49 - p
    p = 9 + _systematic(offset + 5, r, 7, 32)
    return Op("cli", ("reproduce", "conic-line", "--precision", str(p if j == 1 else 49 - p)))


def _general(rng, r, j, offset) -> Op:
    n = 3 + _systematic(offset, r, 29, 78)
    # even N >= 68 exceed the default horizon and exit 1 at the baseline
    return Op("cli", ("reproduce", "general", "--n", str(n)), expect_certified=n % 2 == 1 or n < 68)


# -- spectral ---------------------------------------------------------------


def _positive(dim: int):
    def make(rng) -> tuple:
        return tuple(tuple(rng.randint(1, 3) for _ in range(dim)) for _ in range(dim))

    return make


def _block(dominant: int, rotation: int):
    """[[A, B], [0, C]]: A positive (the dominant factor), C a rotation-scaling
    block whose characteristic polynomial has a pair of complex roots of
    modulus at most sqrt(5), below the Perron root of A (at least 2 * dim A)."""

    def make(rng) -> tuple:
        n = dominant + rotation
        m = [[0] * n for _ in range(n)]
        for i in range(dominant):
            for k in range(dominant):
                m[i][k] = rng.randint(2, 5)
            for k in range(dominant, n):
                m[i][k] = rng.randint(0, 2)
        a, b = rng.randint(-1, 1), rng.randint(1, 2)
        c = dominant
        m[c][c], m[c][c + 1], m[c + 1][c], m[c + 1][c + 1] = a, -b, b, a
        if rotation == 3:
            m[c][c + 2] = rng.randint(0, 1)
            m[c + 2][c + 2] = rng.choice((-1, 1))
        return tuple(tuple(row) for row in m)

    return make


# positive 4x4 and 5x5 matrices carry the Kronecker search; they are weighted
# so that factor_over_rationals takes about half of the operation time
_SPECTRAL_KINDS = (_positive(3), _positive(4), _positive(4), _positive(5), _positive(5), _block(2, 2), _block(2, 3))


def _population() -> tuple[tuple, ...]:
    """The matrices of the spectral workload: one fixed random population of
    five matrices of each kind, all of it in every round.  Which matrices a
    sample holds decides how many are rejected, and rejected ones are fast,
    so fresh matrices per seed would move every metric by the luck of the
    draw; the seed instead draws a permutation of each matrix (_spectral)."""
    rng = random.Random("spectral-population")
    return tuple(make(rng) for _ in range(5) for make in _SPECTRAL_KINDS)


_SPECTRAL_POPULATION = _population()
# population indices that the baseline revision rejects ("dominant factor has
# complex roots"); all of them positive matrices, see bench/NOTES.md
_SPECTRAL_REJECTED = frozenset({1, 2, 3, 4, 8, 9, 10, 11, 16, 17, 21, 22, 23, 24, 25, 29, 31, 32})


def _spectral(rng, r, j, offset) -> Op:
    """Population matrix j conjugated by a seeded permutation that fixes the
    first coordinate: P M P^T has the same characteristic polynomial,
    spectrum and certificate (the start vector is all ones, and the
    eigenvector test reads the first coordinate), with its entries moved."""
    m = _SPECTRAL_POPULATION[j]
    perm = list(range(1, len(m)))
    rng.shuffle(perm)
    perm.insert(0, 0)
    return Op(
        "spectral",
        tuple(tuple(m[perm[a]][perm[b]] for b in range(len(m))) for a in range(len(m))),
        expect_certified=j not in _SPECTRAL_REJECTED,
    )


# -- billiard ---------------------------------------------------------------

_SEED_RANGE_SPAN = 7  # one pool chunk of eight seeds
# 24 seed-range starts: 20 spread over 0..99 and the failing seeds 2, 23, 42
# and 53 themselves, whose searches go on to the next seed.  A search costs
# 0.2 to 0.8 s depending on where it starts, so runs that drew different
# starts read different tails; every seed uses this set instead, and a run of
# twelve rounds or more covers all of it.  The seed picks where in the
# increasing order a run begins.  In that order the five searches that need
# more than one seed (2, 23, 42, 53 and 81) lie three to six places apart,
# so the part of the set that a run meets twice holds about as many of them
# whatever the seed.
_CHECK_STARTS = tuple(sorted((*(_systematic(0, k, 37, 100) for k in range(20)), 2, 23, 42, 53)))


def _billiard_check(rng, r, j, offset) -> Op:
    start = _CHECK_STARTS[(offset + 2 * r + j) % len(_CHECK_STARTS)]
    return Op("cli", ("billiard", "check", "--seed-range", f"{start}..{start + _SEED_RANGE_SPAN}"))


def _billiard_orbit(rng, r, j, offset) -> Op:
    # Starts of height at least 100: the parameters whose orbit runs into a
    # reflection point (an undefined reflection, exit 2) have small height.
    u, v = rng.choice((-1, 1)) * rng.randint(100, 999), rng.randint(100, 999)
    word = "rqprqp" * (4 + _systematic(offset, 6 * r + j, 1, 7))
    return Op(
        "cli",
        ("billiard", "orbit", "--seed", str(rng.randrange(100)), f"--start={u}/{v}",
         "--word", word, "--format", "csv"),
    )


# -- germ -------------------------------------------------------------------


# (order, seed) pairs among seeds 0..99 whose trait cancels at step 1 at the
# baseline revision, whatever --steps is
_GERM_CANCELLING = frozenset({(32, 95), (64, 52), (96, 88)})


def _germ(order: int, first: int, span: int, step: int):
    def make(rng, r, j, offset) -> Op:
        steps = first + _systematic(offset, r, step, span)
        seed = rng.randrange(100)
        return Op(
            "cli",
            ("germ", "evolve", "--steps", str(steps), "--order", str(order), "--seed", str(seed)),
            expect_certified=(order, seed) not in _GERM_CANCELLING,
        )

    return make


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "headline",
            "the paper's headline certificates: Sturm isolation, bisection and gcds "
            "(core.roots, core.unipoly) dominate; log-concavity and orbit checks ride along",
            (_triangle, _conic_line, _conic_line, _general),
            repeat_slot=3,
            tail_pct=70,
            trace_rounds=4,
        ),
        Workload(
            "spectral",
            "dominant_growth on generated integer matrices: the only workload where "
            "Kronecker search (core.factor), Schur-Cohn and field_kernel do the work",
            (_spectral,) * len(_SPECTRAL_POPULATION),
            repeat_slot=0,
            tail_pct=94,
            trace_rounds=1,
        ),
        Workload(
            "billiard",
            "billiard seed searches and long return-word orbits: billiards and "
            "MultiPoly evaluation on Fractions dominate, no Sturm or factor work",
            (_billiard_check, _billiard_check, *([_billiard_orbit] * 6)),
            repeat_slot=2,
            tail_pct=90,
            trace_rounds=12,
        ),
        Workload(
            "germ",
            "germ evolve reports at order 32/64/96 and steps 100-139: germ window "
            "products dominate; headline runs only 30 germ steps",
            (_germ(32, 100, 40, 17), _germ(32, 100, 40, 23), _germ(32, 100, 40, 29),
             _germ(64, 100, 10, 3), _germ(96, 100, 5, 2)),
            repeat_slot=0,
            tail_pct=65,
            trace_rounds=3,
        ),
    )
}


def seed_offset(name: str, seed: int) -> int:
    return random.Random(f"{name}/{seed}").randrange(1 << 30)


def round_ops(name: str, seed: int, r: int) -> list[Op]:
    """The operations of round r of workload `name` under `seed`."""
    w = WORKLOADS[name]
    offset = seed_offset(name, seed)
    rng = random.Random(f"{name}/{seed}/{r}")
    ops = [make(rng, r, j, offset) for j, make in enumerate(w.slots)]
    if r % 2 == 1:
        ops[w.repeat_slot] = round_ops(name, seed, r - 1)[w.repeat_slot]
    return ops
