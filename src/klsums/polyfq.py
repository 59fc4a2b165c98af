"""Dense univariate polynomial arithmetic over F_q.

Polynomials are numpy int64 arrays of coefficients in ascending degree,
normalized so the last entry is nonzero; the zero polynomial is the empty
array.  Only what the stratification needs: product, value at a point, gcd,
derivative, and squarefree part.
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


def divmod_poly(f: np.ndarray, g: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    if len(g) == 0:
        raise ZeroDivisionError("polynomial division by zero")
    r = f.copy() % q
    dq = len(f) - len(g)
    if dq < 0:
        return np.zeros(0, dtype=np.int64), trim(r)
    quo = np.zeros(dq + 1, dtype=np.int64)
    ginv = pow(int(g[-1]), q - 2, q)
    for i in range(dq, -1, -1):
        c = r[i + len(g) - 1] * ginv % q
        if c:
            quo[i] = c
            r[i : i + len(g)] = (r[i : i + len(g)] - c * g) % q
    return trim(quo), trim(r)


def monic(f: np.ndarray, q: int) -> np.ndarray:
    if len(f) == 0:
        return f
    return f * pow(int(f[-1]), q - 2, q) % q


def gcd(f: np.ndarray, g: np.ndarray, q: int) -> np.ndarray:
    a, b = trim(f % q), trim(g % q)
    while len(b):
        _, r = divmod_poly(a, b, q)
        a, b = b, r
    return monic(a, q)


def derivative(f: np.ndarray, q: int) -> np.ndarray:
    if len(f) <= 1:
        return np.zeros(0, dtype=np.int64)
    return trim(f[1:] * np.arange(1, len(f), dtype=np.int64) % q)


def squarefree_part(f: np.ndarray, q: int) -> np.ndarray:
    """f / gcd(f, f'); its degree counts the distinct roots of f over the
    algebraic closure, provided q > deg(f) (so no multiplicity reaches p)."""
    f = trim(f % q)
    if len(f) == 0:
        raise ZeroDivisionError("squarefree part of the zero polynomial")
    g = gcd(f, derivative(f, q), q)
    quo, rem = divmod_poly(f, g, q)
    assert len(rem) == 0
    return quo
