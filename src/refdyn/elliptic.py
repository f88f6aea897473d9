"""Formal reflection orbits on a free abelian group over N symbols.

Reflecting a point y through a point x of a plane elliptic section sends it
to -x - y for the section's group law.  For symbols p_1..p_N with no
relations (the regime of points in general position) every orbit element is
an integer coefficient vector, every equality test is exact, and the two
statements the general-position degree count rests on become finite
computations:
for an odd number of symbols the orbit of p_1 under the cyclic word first
returns to p_1 exactly at the stated word, meeting no basis point on the
way, and for an even number the coefficient of p_1 observed after each
application of the first reflection drifts monotonically 0, -1, -2, ..., so
no horizon-bounded check ever needs to be extended.
"""

from __future__ import annotations

from dataclasses import dataclass


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


def first_return_word(n: int) -> ReflectionWord:
    """The word returning p_1 to itself for an odd number of symbols,
    verified: the orbit ends at p_1 and never meets a basis point earlier."""
    if n < 3 or n % 2 == 0:
        raise ValueError("first return requires an odd symbol count >= 3")
    indices = tuple(range(2, n + 1)) + tuple(range(1, n + 1)) + (1,)
    word = ReflectionWord(indices, n)
    points = orbit(FormalPoint.basis(1, n), word)
    if points[-1] != FormalPoint.basis(1, n):
        raise AssertionError("first-return word failed to return")
    basis = [FormalPoint.basis(k, n) for k in range(1, n + 1)]
    if any(p in basis for p in points[1:-1]):
        raise AssertionError("first-return orbit met a basis point early")
    return word


def avoidance_check(n: int, horizon: int) -> dict:
    """Iterate the cyclic reflection word from every basis point, testing
    before each application of reflection k that the moving point is not
    p_k; reports any hit.

    For an even symbol count the report carries the conclusive drift
    certificate: the p_i coefficient observed right after the m-th
    application of reflection i must be -(m-1), and between applications it
    only flips sign (an odd number of flips per cycle), hence past the
    horizon the coefficient magnitude grows without bound and no further
    coincidence with any basis point is possible.
    """
    if n < 3:
        raise ValueError("need at least three symbols")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    hits: list[dict] = []
    certificates: dict[str, dict] = {}
    for i in range(1, n + 1):
        # the moving point is sign * v: reflecting through p_k gives
        # -sign * (v + sign * e_k), so a step touches one coefficient, and
        # the point is p_k exactly when v has one nonzero entry, sign at k
        v = [0] * n
        v[i - 1] = 1
        sign, nonzero = 1, 1
        k = i % n + 1
        own_coeffs: list[int] = []
        flips_ok = True
        for step in range(horizon):
            if nonzero == 1 and sign * v[k - 1] == 1:
                hits.append({"start": i, "step": step, "reflection": k})
            before = sign * v[i - 1]
            nonzero -= v[k - 1] != 0
            v[k - 1] += sign
            nonzero += v[k - 1] != 0
            sign = -sign
            if k == i:
                own_coeffs.append(sign * v[i - 1])
            elif sign * v[i - 1] != -before:
                flips_ok = False
            k = k % n + 1
        if n % 2 == 0:
            expected = [-(m - 1) for m in range(1, len(own_coeffs) + 1)]
            certificates[str(i)] = {
                "coeffs_after_own_reflection": own_coeffs,
                "base_is_zero": bool(own_coeffs and own_coeffs[0] == 0),
                "step_decrements": own_coeffs == expected,
                "sign_flips_between": flips_ok,
                "conclusive": own_coeffs == expected and flips_ok and len(own_coeffs) >= 3,
            }
    certificate: dict = {}
    if n % 2 == 0:
        certificate = {
            "coeffs_after_sigma1": certificates["1"]["coeffs_after_own_reflection"],
            "starts": certificates,
        }
    return {"N": n, "horizon": horizon, "hits": hits, "certificate": certificate}
