"""Factorization over the rationals by modular methods.

Pipeline: square-free decomposition (Musser's form of Yun, on the Z[x]
remainder sequence of `unipoly`), stripping of the x^k content, then the
Zassenhaus method on each primitive square-free core h, all in integers:

1. Screen.  Take a few primes p that divide neither lc(h) nor disc(h), so
   that h stays square-free mod p.  Distinct-degree factorization mod p gives
   the degrees of the irreducible factors of h mod p.  A factor of h over Q
   reduces to a product of some of them, so its degree is a subset sum of
   every prime's degree pattern.  If the sums common to all primes are only
   0 and deg h, then h is irreducible and nothing more is done.
2. Split.  Otherwise, mod the screened prime with the fewest factors, the
   equal-degree parts are split into irreducibles by Cantor-Zassenhaus with a
   fixed seeded generator.
3. Lift.  Each monic factor mod p is Hensel-lifted against its cofactor to
   p^k above twice the coefficient bound B: the Mignotte bound for h times
   lc(h), which bounds lc(h)/lc(g) * g for every factor g of h.
4. Recombine.  Subsets of the lifted factors, in increasing size and only of
   degrees the screen left, give lc(h) times a candidate factor in symmetric
   residues mod p^k.  Exact trial division in Z[x] certifies each factor it
   finds; the factors mod p lift uniquely, so once no subset divides, what
   is left of h is irreducible.

The factorization has no degree bound.  The randomness of step 2 moves only
its running time: the output is the unique factorization, sorted.

References: H. Zassenhaus, "On Hensel factorization I", J. Number Theory 1
(1969); D. Cantor and H. Zassenhaus, "A new algorithm for factoring
polynomials over finite fields", Math. Comp. 36 (1981); D. Knuth, The Art of
Computer Programming, vol. 2, section 4.6.2.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import isqrt

from .unipoly import UniPoly, _exact_quotient, _primitive, _square_free_decomposition, _trim

# good primes whose degree patterns the screen intersects, at most
_SCREEN_PRIMES = 5

# Below factor_over_rationals, polynomials are lists of
# ints, lowest degree first, with no zero leading coefficient; [] is zero.


def factor_over_rationals(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Irreducible monic-free factorization: p = const * prod f_i^{m_i}.

    Each returned factor is a primitive integer polynomial with positive
    leading coefficient, irreducible over the rationals; multiplicities are
    positive.  Factors are sorted by degree, then coefficients.  Raises on
    the zero polynomial.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    factors: dict[UniPoly, int] = {}
    for sf, mult in _square_free_decomposition(p._integer_form()[1]):
        for g in _factor_square_free(sf):
            f = UniPoly(g)
            factors[f] = factors.get(f, 0) + mult
    return sorted(factors.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))


def _factor_square_free(h: list[int]) -> list[list[int]]:
    """Irreducible factors of a primitive square-free integer polynomial with
    positive leading coefficient, each primitive with positive leading
    coefficient."""
    k = next(i for i, c in enumerate(h) if c)  # x^k content
    h = h[k:]
    factors = [[0, 1]] * k
    if len(h) == 2:
        factors.append(h)
    elif len(h) > 2:
        factors += _zassenhaus(h)
    return factors


def _zassenhaus(h: list[int]) -> list[list[int]]:
    """Irreducible factors of h (as in _factor_square_free) of degree >= 2
    with h(0) != 0."""
    n = len(h) - 1
    allowed = (1 << (n + 1)) - 1  # bit d: a factor of degree d may exist
    best = None  # (p, distinct-degree parts, factor count): fewest factors
    for p in _good_primes(h):
        parts = _distinct_degree(_monic([c % p for c in h], p), p)
        sums = 1
        count = 0
        for d, g in parts:
            for _ in range((len(g) - 1) // d):
                sums |= sums << d
                count += 1
        allowed &= sums
        if best is None or count < best[2]:
            best = (p, parts, count)
        if allowed == 1 | 1 << n:
            return [h]
    p, parts, _ = best
    rng = random.Random(0)
    modular = [f for d, g in parts for f in _equal_degree(g, d, p, rng)]
    bound = 2 * _mignotte_bound(h, n - 1)
    m = p
    while m <= bound:
        m *= p
    lifted = [_hensel_lift(h, f, p, m) for f in modular]
    return _recombine(h, lifted, m, allowed)


def _good_primes(h: list[int]):
    """Odd primes not dividing lc(h) mod which h stays square-free, in
    increasing order, at most _SCREEN_PRIMES of them."""
    dh = [i * c for i, c in enumerate(h)][1:]
    found = 0
    p = 1
    while found < _SCREEN_PRIMES:
        p += 2
        if any(p % q == 0 for q in range(3, isqrt(p) + 1, 2)) or h[-1] % p == 0:
            continue
        if len(_gcd([c % p for c in h], _trim([c % p for c in dh]), p)) == 1:
            found += 1
            yield p


def _mignotte_bound(h: list[int], d: int) -> int:
    """Coefficient bound for lc(h)/lc(g) * g, for any degree-d integer
    factor g of h."""
    norm_sq = sum(c * c for c in h)
    return (2**d) * (isqrt(norm_sq) + 1) * abs(h[-1])


def _hensel_lift(h: list[int], f: list[int], p: int, m: int) -> list[int]:
    """The monic factor of h mod m (a power of p) that reduces to the monic
    irreducible factor f of h mod p, by linear Hensel lifting (Knuth 4.6.2).

    Invariant: h = f * u mod q, with f monic and lc(u) = lc(h).  The
    correction c = (h - f*u)/q mod p is split as c = a*u + b*f mod p with
    deg a < deg f, from the Bezout relation s*f + t*u = 1 mod p.
    """
    u = _divmod(h, f, p)[0]
    u[-1] = h[-1]
    s, t = _bezout(f, u, p)
    q = p
    while q < m:
        fu = _mul(f, u, None)
        c = _trim([(a - b) // q % p for a, b in zip(h, fu)])
        quot, a = _divmod(_mul(t, c, p), f, p)
        b = _add(_mul(s, c, p), _mul(quot, u, p), p)
        f = _add(f, [q * x for x in a], None)
        u = _add(u, [q * x for x in b], None)
        q *= p
    return [x % m for x in f]


def _recombine(h: list[int], lifted: list[list[int]], m: int, allowed: int) -> list[list[int]]:
    """Zassenhaus recombination: lc(h) times the product of each subset of
    the lifted factors, in symmetric residues mod m, is lc(h)/lc(g) * g for
    every factor g of h; exact division certifies it."""
    out: list[list[int]] = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            if not allowed >> sum(len(lifted[i]) - 1 for i in subset) & 1:
                continue
            g = [h[-1]]
            for i in subset:
                g = _mul(g, lifted[i], m)
            g = _primitive([c - m if 2 * c > m else c for c in g])
            quot = _exact_quotient(h, g)
            if quot is not None:
                out.append(g)
                h = quot
                lifted = [f for i, f in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    out.append(h)
    return out


# -- polynomials mod p ---------------------------------------------------------


def _add(f: list[int], g: list[int], m: int | None) -> list[int]:
    """f + g, reduced mod m unless m is None."""
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, b in enumerate(g):
        out[i] += b
    return _trim(out if m is None else [c % m for c in out])


def _mul(f: list[int], g: list[int], m: int | None) -> list[int]:
    """f * g, reduced mod m unless m is None."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _trim(out if m is None else [c % m for c in out])


def _divmod(f: list[int], g: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder mod m; lc(g) must be a unit mod m."""
    inv = pow(g[-1], -1, m)
    rem = list(f)
    dg = len(g) - 1
    quot = [0] * max(len(f) - dg, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = rem[k + dg] * inv % m
        if c:
            for i in range(dg):  # rem[k + dg] becomes 0 mod m
                rem[k + i] -= c * g[i]
    return _trim(quot), _trim([c % m for c in rem[:dg]])


def _monic(f: list[int], p: int) -> list[int]:
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _gcd(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic gcd mod the prime p of f and g, not both zero."""
    while g:
        f, g = g, _divmod(f, g, p)[1]
    return _monic(f, p)


def _bezout(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """(s, t) with s*f + t*g = 1 mod p, for f and g coprime mod p."""
    r0, r1 = f, g
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        quot, rem = _divmod(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, _add(s0, [-c for c in _mul(quot, s1, p)], p)
        t0, t1 = t1, _add(t0, [-c for c in _mul(quot, t1, p)], p)
    inv = pow(r0[0], -1, p)  # r0 is a nonzero constant
    return _mul([inv], s0, p), _mul([inv], t0, p)


def _powmod(f: list[int], e: int, g: list[int], p: int) -> list[int]:
    """f^e mod g, mod p."""
    result = [1]
    base = _divmod(f, g, p)[1]
    while e:
        if e & 1:
            result = _divmod(_mul(result, base, p), g, p)[1]
        e >>= 1
        if e:
            base = _divmod(_mul(base, base, p), g, p)[1]
    return result


def _distinct_degree(f: list[int], p: int) -> list[tuple[int, list[int]]]:
    """(d, g_d) for each d with g_d, the product of the degree-d irreducible
    factors of the monic square-free f mod p, not 1."""
    out = []
    w = [0, 1]  # x^(p^d) mod f
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        w = _powmod(w, p, f, p)
        g = _gcd(f, _add(w, [0, p - 1], p), p)
        if len(g) > 1:
            out.append((d, g))
            f = _divmod(f, g, p)[0]
            w = _divmod(w, f, p)[1]
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _equal_degree(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Monic irreducible factors mod the odd prime p of the monic f, a
    product of distinct irreducibles of degree d (Cantor-Zassenhaus)."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        g = _gcd(f, _add(_powmod(a, (p**d - 1) // 2, f, p), [p - 1], p), p)
        if 1 < len(g) < len(f):
            break
    return _equal_degree(g, d, p, rng) + _equal_degree(_divmod(f, g, p)[0], d, p, rng)
