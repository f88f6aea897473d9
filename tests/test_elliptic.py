import random
from dataclasses import dataclass

import pytest

from refdyn.elliptic import _meeting, avoidance_check, avoidance_proof

# The formal model the walks of avoidance_check and avoidance_proof are
# compared against: points as coefficient vectors over the symbols p_1..p_N,
# and reflection through p_i as y -> -p_i - y.


@dataclass(frozen=True)
class FormalPoint:
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coefficients", tuple(int(c) for c in self.coefficients)
        )

    @property
    def n(self) -> int:
        return len(self.coefficients)

    @classmethod
    def basis(cls, i: int, n: int) -> "FormalPoint":
        if not 1 <= i <= n:
            raise ValueError("basis index out of range")
        return cls(tuple(1 if k == i - 1 else 0 for k in range(n)))

    def coefficient_of(self, i: int) -> int:
        return self.coefficients[i - 1]


@dataclass(frozen=True)
class ReflectionWord:
    """Reflection indices in the order they are applied."""

    indices: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if any(not 1 <= i <= self.n for i in self.indices):
            raise ValueError("word index out of range")


def reflect(i: int, x: FormalPoint) -> FormalPoint:
    """y -> -p_i - y on coefficient vectors."""
    if not 1 <= i <= x.n:
        raise ValueError("reflection index out of range")
    coeffs = [-c for c in x.coefficients]
    coeffs[i - 1] -= 1
    return FormalPoint(tuple(coeffs))


def orbit(start: FormalPoint, word: ReflectionWord) -> list[FormalPoint]:
    """start and all successive images under the word, exact."""
    if word.n != start.n:
        raise ValueError("word and point disagree on the symbol count")
    points = [start]
    cur = start
    for i in word.indices:
        cur = reflect(i, cur)
        points.append(cur)
    return points


def coeffs(*c):
    return FormalPoint(tuple(c))


def test_reflect_examples():
    p1 = FormalPoint.basis(1, 3)
    assert reflect(2, p1) == coeffs(-1, -1, 0)
    assert reflect(3, coeffs(-1, -1, 0)) == coeffs(1, 1, -1)
    x = coeffs(4, -2, 7)
    assert reflect(1, reflect(1, x)) == x


def test_reflect_index_validation():
    with pytest.raises(ValueError):
        reflect(4, FormalPoint.basis(1, 3))
    with pytest.raises(ValueError):
        FormalPoint.basis(0, 3)


def test_reflect_is_involution_randomized():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(3, 7)
        x = FormalPoint(tuple(rng.randint(-9, 9) for _ in range(n)))
        i = rng.randint(1, n)
        assert reflect(i, reflect(i, x)) == x


def test_sign_flip_law():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(3, 6)
        x = FormalPoint(tuple(rng.randint(-9, 9) for _ in range(n)))
        i = rng.randint(1, n)
        k = rng.choice([j for j in range(1, n + 1) if j != i])
        assert reflect(k, x).coefficient_of(i) == -x.coefficient_of(i)


def test_orbit_three_symbols_first_return():
    word = ReflectionWord((2, 3, 1, 2, 3, 1), 3)
    points = orbit(FormalPoint.basis(1, 3), word)
    assert [p.coefficients for p in points] == [
        (1, 0, 0),
        (-1, -1, 0),
        (1, 1, -1),
        (-2, -1, 1),
        (2, 0, -1),
        (-2, 0, 0),
        (1, 0, 0),
    ]


def test_orbit_empty_word():
    start = coeffs(1, 2, 3)
    assert orbit(start, ReflectionWord((), 3)) == [start]


def test_first_return_word_five_symbols():
    word = ReflectionWord((2, 3, 4, 5, 1, 2, 3, 4, 5, 1), 5)
    points = orbit(FormalPoint.basis(1, 5), word)
    assert points[-1] == FormalPoint.basis(1, 5)
    basis = [FormalPoint.basis(k, 5) for k in range(1, 6)]
    assert all(p not in basis for p in points[1:-1])


def test_orbit_four_symbols_coefficient_drift():
    # coefficient of the start symbol right after each own reflection
    report = avoidance_check(4, 100)
    cert = report["certificate"]["starts"]["1"]
    assert cert["coeffs_after_own_reflection"][:4] == [0, -1, -2, -3]
    assert cert["base_is_zero"] and cert["step_decrements"]
    assert cert["sign_flips_between"] and cert["conclusive"]


@pytest.mark.parametrize("n", range(3, 9))
def test_avoidance_no_hits(n):
    report = avoidance_check(n, 200)
    assert report["hits"] == []
    if n % 2 == 0:
        assert all(c["conclusive"] for c in report["certificate"]["starts"].values())


def test_avoidance_even_long_horizons():
    for n in (4, 6, 8, 10):
        report = avoidance_check(n, 500)
        assert report["hits"] == []
        for cert in report["certificate"]["starts"].values():
            coeffs_seq = cert["coeffs_after_own_reflection"]
            assert coeffs_seq == [-(m - 1) for m in range(1, len(coeffs_seq) + 1)]


def _avoidance_by_points(n, horizon):
    """Hits and own-reflection coefficients of the cyclic word, walked on
    FormalPoints with reflect()."""
    hits, own = [], {}
    for i in range(1, n + 1):
        cur, k, own[str(i)] = FormalPoint.basis(i, n), i % n + 1, []
        for step in range(horizon):
            if cur == FormalPoint.basis(k, n):
                hits.append({"start": i, "step": step, "reflection": k})
            cur = reflect(k, cur)
            if k == i:
                own[str(i)].append(cur.coefficient_of(i))
            k = k % n + 1
    return hits, own


@pytest.mark.parametrize("n", range(3, 13))
def test_avoidance_check_matches_a_walk_on_points(n):
    for horizon in (1, 2, n, 3 * n + 1, 150):
        report = avoidance_check(n, horizon)
        hits, own = _avoidance_by_points(n, horizon)
        assert report["hits"] == hits
        if n % 2 == 0:
            starts = report["certificate"]["starts"]
            assert {i: c["coeffs_after_own_reflection"] for i, c in starts.items()} == own


@pytest.mark.parametrize("n", range(3, 15))
def test_avoidance_proof_matches_a_walk_on_points(n):
    proof = avoidance_proof(n)
    horizon = 6 * n
    # a hit recurs every period steps exactly when the translation is zero
    repeats = range(0, horizon, proof["period"]) if not any(proof["translation"]) else [0]
    expanded = sorted(
        (hit["start"], hit["step"] + shift, hit["reflection"])
        for hit in proof["hits"]
        for shift in repeats
        if hit["step"] + shift < horizon
    )
    hits, _ = _avoidance_by_points(n, horizon)
    assert expanded == [(h["start"], h["step"], h["reflection"]) for h in hits]
    word = ReflectionWord(tuple((s + 1) % n + 1 for s in range(2 * n)), n)
    points = orbit(FormalPoint.basis(1, n), word)
    assert proof["period"] == 2 * n
    assert set(proof["translation"]) == ({0} if n % 2 else {-2, 2})
    assert proof["translation"] == [
        a - b for a, b in zip(points[-1].coefficients, points[0].coefficients)
    ]


def test_meeting_solves_the_linear_equation_exactly():
    t = (2, -2, 0)
    assert _meeting((-6, 6, 1), t, 3) == 3  # (-6, 6, 1) + 3 * t = p_3
    assert _meeting((-5, 5, 1), t, 3) is None  # m = 5/2
    assert _meeting((6, -6, 1), t, 3) is None  # m = -3
    assert _meeting((-6, 4, 1), t, 3) is None  # m = 3 and m = 2
    assert _meeting((-6, 6, 0), t, 3) is None  # t_3 = 0 but y_3 != 1
    assert _meeting((0, 0, 1), (0, 0, 0), 3) == 0
    assert _meeting((0, 1, 0), (0, 0, 0), 3) is None


def test_avoidance_proof_rotates_hits_to_every_start(monkeypatch):
    # no real orbit meets a basis point: feign one on every p_3 step to see
    # that each start reports the reflection its own walk applies there
    monkeypatch.setattr("refdyn.elliptic._meeting", lambda y, t, k: 0 if k == 3 else None)
    n = 6
    hits = avoidance_proof(n)["hits"]
    assert hits and {h["start"] for h in hits} == set(range(1, n + 1))
    for h in hits:
        # the walk from p_1 applies p_3 at the steps s = 1 mod n; the walk
        # from p_i applies p_{(i + s) mod n + 1} at step s
        assert h["step"] % n == 1
        assert h["reflection"] == (h["start"] + h["step"]) % n + 1


def test_avoidance_proof_validation():
    with pytest.raises(ValueError):
        avoidance_proof(2)


def test_avoidance_check_validation():
    with pytest.raises(ValueError):
        avoidance_check(2, 10)
    with pytest.raises(ValueError):
        avoidance_check(4, 0)


def test_word_validation():
    with pytest.raises(ValueError):
        ReflectionWord((1, 5), 4)
