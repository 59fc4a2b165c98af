"""Dense univariate polynomial arithmetic over F_q.

Polynomials are lists of Python ints: the coefficients in ascending
degree, residues in [0, q), trimmed so the last entry is nonzero; the zero
polynomial is the empty list.  Only what the stratification needs:
product, value at a point, and squarefree part, which divides by
gcd(f, f') through the private ``_divmod`` and ``_gcd``.

The polynomials the stratification feeds them have a few dozen
coefficients, where a loop over Python ints beats an array call per step,
and Python ints make every operation exact for every q.
"""

from __future__ import annotations


def trim(f: list[int]) -> list[int]:
    """f with its trailing zeros dropped (in place)."""
    while f and not f[-1]:
        f.pop()
    return f


def deg(f: list[int]) -> int:
    """Degree, -1 for the zero polynomial."""
    return len(f) - 1


def mul(f: list[int], g: list[int], q: int) -> list[int]:
    """Product by schoolbook multiplication, reduced once per coefficient."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, c in enumerate(g, i):
            out[j] += a * c
    return trim([c % q for c in out])


def value(f: list[int], x: int, q: int) -> int:
    """f(x) mod q by Horner's rule."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % q
    return acc


def _divmod(f: list[int], g: list[int], q: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder, g nonzero.

    g is made monic once; each step reduces only the leading coefficient it
    reads, and the subtractions run unreduced (Python ints cannot overflow)
    until the remainder is reduced at the end.
    """
    dg = len(g) - 1
    if len(f) <= dg:
        return [], f
    inv = pow(g[-1], -1, q)
    low = [c * inv % q for c in g[:-1]]
    r = f.copy()
    quo = [0] * (len(f) - dg)
    for i in range(len(f) - 1 - dg, -1, -1):
        c = r[i + dg] % q
        if c:
            quo[i] = c * inv % q
            for j, a in enumerate(low, i):
                r[j] -= c * a
    return quo, trim([c % q for c in r[:dg]])


def _gcd(a: list[int], b: list[int], q: int) -> list[int]:
    """Monic gcd by Euclid's algorithm."""
    while b:
        a, b = b, _divmod(a, b, q)[1]
    if not a:
        return a
    inv = pow(a[-1], -1, q)
    return [c * inv % q for c in a]


def squarefree_part(f: list[int], q: int) -> list[int]:
    """f / gcd(f, f'); its degree counts the distinct roots of f over the
    algebraic closure, provided q > deg(f) (so no multiplicity reaches p)."""
    if not f:
        raise ZeroDivisionError("squarefree part of the zero polynomial")
    df = trim([i * c % q for i, c in enumerate(f)][1:])
    quo, rem = _divmod(f, _gcd(f, df, q), q)
    assert not rem
    return quo
