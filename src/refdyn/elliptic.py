"""Formal reflection orbits on a free abelian group over N symbols.

Reflecting a point y through a point x of a plane elliptic section sends it
to -x - y for the section's group law.  For symbols p_1..p_N with no
relations (the regime of points in general position) every orbit element is
an integer coefficient vector and every equality test is exact.

The general-position degree count rests on one statement: the orbit of a
basis point under the cyclic word never reaches p_k just before the
reflection through p_k.  Every reflection is x -> -x - p_k, so 2N
consecutive reflections of the word compose to a translation x -> x + t, and
the orbit is y_s + m*t for 0 <= s < 2N and m >= 0.  Each step is then one
linear equation in m, solved exactly: `avoidance_proof` proves avoidance for
all time in one pass of 2N steps.  `avoidance_check` walks the word up to a
horizon and stays as the reference simulation.
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


def avoidance_proof(n: int) -> dict:
    """Prove, for all time, that the cyclic word started at any p_i never
    meets p_k right before the reflection through p_k.

    From p_1, step s applies p_{k_s}, k_s = 2, ..., n, 1, 2, ...  The steps
    s < 2n compose to x -> x + t, t = sum_s (-1)^s p_{k_s}: each p_k comes
    at s and s + n, so t is 0 for odd n and has entries +-2 for even n.  A
    hit before step s + 2n*m is the equation y_s + m*t = p_{k_s} in m.  The
    rotation p_j -> p_{j+1} carries the orbit of p_i to that of p_{i+1}, so
    every start's hits are those of p_1, rotated.  A hit is reported at its
    first step; when t = 0 it recurs every 2n steps.
    """
    if n < 3:
        raise ValueError("need at least three symbols")
    period = 2 * n
    translation = [0] * n
    for s in range(period):
        translation[(s + 1) % n] += (-1) ** s
    # the walk of avoidance_check from p_1: the point is sign * v
    v = [0] * n
    v[0] = 1
    sign = 1
    meetings = []
    for s in range(period):
        k = (s + 1) % n + 1
        m = _meeting((sign * c for c in v), translation, k)
        if m is not None:
            meetings.append((s + period * m, k))
        v[k - 1] += sign
        sign = -sign
    hits = [
        {"start": i, "step": step, "reflection": (k + i - 2) % n + 1}
        for i in range(1, n + 1)
        for step, k in sorted(meetings)
    ]
    return {"N": n, "period": period, "translation": translation, "hits": hits}


def _meeting(y, t, k: int) -> int | None:
    """The least m >= 0 with y + m*t = p_k, or None: coordinate j reads
    y_j + m*t_j = [j = k], one linear equation in m."""
    m = None  # every m solves the equations read so far
    for j, (yj, tj) in enumerate(zip(y, t)):
        rest = (j == k - 1) - yj
        if tj == 0:
            if rest:
                return None
            continue
        q, r = divmod(rest, tj)
        if r or q < 0 or m not in (None, q):
            return None
        m = q
    return 0 if m is None else m
