"""Dense univariate polynomial arithmetic over F_q.

Polynomials are numpy int64 arrays of coefficients in ascending degree,
normalized so the last entry is nonzero; the zero polynomial is the empty
array.  Only what the stratification needs: product, value at a point,
and squarefree part, which divides by gcd(f, f') through the private
``_divmod`` and ``_gcd``.

The product runs in numpy.  Value and the squarefree part run their inner
loops on Python-int lists: the polynomials the stratification feeds them
have a few dozen coefficients, where a loop over Python ints beats a numpy
call per step, and Python ints make them exact for every q.
"""

from __future__ import annotations

import numpy as np


def trim(f: np.ndarray) -> np.ndarray:
    nz = np.nonzero(f)[0]
    return f[: nz[-1] + 1].astype(np.int64) if len(nz) else np.zeros(0, dtype=np.int64)


def deg(f: np.ndarray) -> int:
    """Degree, -1 for the zero polynomial."""
    return len(f) - 1


def mul(f: np.ndarray, g: np.ndarray, q: int) -> np.ndarray:
    """Product of reduced polynomials, exact in int64 for every q < 2^31.

    A coefficient of f*g sums min(len f, len g) products below q^2.  When
    that can pass 2^63, f is split into 16-bit halves, whose partial sums
    stay below 2^63 for inputs shorter than 2^16 terms.
    """
    if len(f) == 0 or len(g) == 0:
        return np.zeros(0, dtype=np.int64)
    terms = min(len(f), len(g))
    if terms * (q - 1) ** 2 < 2**63:
        return trim(np.convolve(f, g) % q)
    if terms >= 2**16:
        raise ValueError(f"{terms}-term products overflow int64 at q = {q}")
    hi = np.convolve(f >> 16, g) % q
    lo = np.convolve(f & 0xFFFF, g) % q
    return trim((hi * 2**16 + lo) % q)


def value(f: np.ndarray, x: int, q: int) -> int:
    """f(x) mod q by Horner's rule on Python ints, exact for every q."""
    acc = 0
    for c in reversed(f.tolist()):
        acc = (acc * x + c) % q
    return acc


def _ints(f: np.ndarray, q: int) -> list[int]:
    """The coefficients of f reduced mod q as Python ints, trailing zeros
    dropped."""
    return _trimmed([c % q for c in np.asarray(f).tolist()])


def _trimmed(f: list[int]) -> list[int]:
    while f and not f[-1]:
        f.pop()
    return f


def _array(f: list[int]) -> np.ndarray:
    return np.array(f, dtype=np.int64)


def _divmod(f: list[int], g: list[int], q: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of reduced, trimmed Python-int lists, g nonzero.

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
    return quo, _trimmed([c % q for c in r[:dg]])


def _gcd(a: list[int], b: list[int], q: int) -> list[int]:
    """Monic gcd of reduced, trimmed Python-int lists by Euclid's algorithm."""
    while b:
        a, b = b, _divmod(a, b, q)[1]
    if not a:
        return a
    inv = pow(a[-1], -1, q)
    return [c * inv % q for c in a]


def squarefree_part(f: np.ndarray, q: int) -> np.ndarray:
    """f / gcd(f, f'); its degree counts the distinct roots of f over the
    algebraic closure, provided q > deg(f) (so no multiplicity reaches p).
    Runs on Python ints, exact for every q."""
    f = _ints(f, q)
    if not f:
        raise ZeroDivisionError("squarefree part of the zero polynomial")
    df = _trimmed([i * c % q for i, c in enumerate(f)][1:])
    quo, rem = _divmod(f, _gcd(f, df, q), q)
    assert not rem
    return _array(quo)
