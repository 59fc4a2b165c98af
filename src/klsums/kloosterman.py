"""Generalized Kloosterman sums Kl_k(x; chi, q) over all of F_q^x.

Kl_k(x) = q^{-(k-1)/2} * sum over y_1*...*y_k = x of
          chi_1(y_1)...chi_k(y_k) e((y_1+...+y_k)/q).

This is the (k-1)-fold multiplicative convolution of the k functions
f_i(y) = chi_i(y) e(y/q), which after discrete-log reindexing becomes a
cyclic convolution of length q-1.  The DFT of f_i on log coordinates is the
field's Gauss spectrum G rotated by a_i: with G[j] = tau(chi_{-j}), the
transform of m -> chi_{a_i}(g^m) e(g^m/q) at j is G[j - a_i].  Two
evaluation routes are provided:

* ``kl_table_naive`` -- the package's one direct evaluation: the cyclic
  convolutions of the log factors as direct sums by ``np.convolve``,
  O(k q^2) time in O(k q) bytes (``bilinear.kl3_direct`` reads it);
* ``kl_table_fast``  -- one inverse transform of prod_i roll(G, a_i),
  O(q log q) per table on top of the one forward transform per field that
  G costs.  Both are ``field.log_dft``, which splits a q - 1 with one large
  prime factor by the prime-factor algorithm rather than let numpy pad the
  whole length, and transforms its input in place: a table holds one
  product buffer, one roll of G at a time and the table it returns.

The fast route is the production path and the naive one its oracle: the
oracle never reads G, and the two share nothing but the field's character
vectors.  No sign factor is applied: the table holds the unsigned
normalization above.  The sheaf trace function carries an extra (-1)^{k-1};
that constant relates the two conventions and is never applied silently.

The table index runs over residues 0..q-1 with the value at 0 fixed to 0
(the stalk at 0 vanishes), which is the convention every downstream complete
sum relies on when an argument s*(r+b_i) hits 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .chartuples import CharTuple
from .errors import InternalConsistencyError, PreconditionError, check_bytes
from .field import PrimeField, additive_char_by_log, gauss_sum, log_dft, MultChar

DELIGNE_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class KlTable:
    """Table of x -> Kl_k(a*x; chi, q) for all x, normalized by q^{-(k-1)/2}.

    values has length q; values[0] = 0 by the vanishing-stalk convention and
    values[x] for x != 0 is the normalized sum, read-only complex128.  A
    table compares and hashes by identity (eq=False), so ``sums`` can key
    its per-table cache on it.
    """

    field: PrimeField
    tuple: CharTuple
    scale: int
    values: np.ndarray = dc_field(repr=False)

    @property
    def k(self) -> int:
        return self.tuple.k

    def value(self, x: int) -> complex:
        return complex(self.values[x % self.field.q])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def _factor_logs(field: PrimeField, t: CharTuple) -> list[np.ndarray]:
    """Log-reindexed factors h_i[m] = chi_i(g^m) e(g^m/q): Kl_k(g^nu) is
    q^{-(k-1)/2} times their cyclic convolution at nu (h_1 itself at k = 1).
    psi is built after the characters, so that no character's temporaries
    sit beside it, and multiplied into them in place."""
    hs = [MultChar(field, ai).values_by_log() for ai in t.indices]
    psi = additive_char_by_log(field)
    for h in hs:
        h *= psi
    return hs


def _assemble(field: PrimeField, t: CharTuple, a: int, conv_log: np.ndarray) -> KlTable:
    """Normalize conv_log in place, then scatter it from logs to residues
    with the scale applied.

    The scale-a table is the exact index permutation x -> a*x of the a = 1
    table (same float values, no separate transform): value nu lands at
    g^nu / a, so fast(a)[x] equals fast(1)[a*x] bit for bit.
    """
    k, q, s = t.k, field.q, a % field.q
    conv_log /= q ** ((k - 1) / 2)
    vals = np.zeros(q, dtype=np.complex128)
    vals[field.exp if s == 1 else field.exp * pow(s, -1, q) % q] = conv_log
    vals.flags.writeable = False
    table = KlTable(field=field, tuple=t, scale=s, values=vals)
    m = table.max_abs()
    if not np.isfinite(m) or m > k + DELIGNE_SLACK:
        raise InternalConsistencyError(
            f"Deligne bound violated: max |Kl_{k}| = {m} > {k} (numerical failure)"
        )
    return table


def kl_table_fast(field: PrimeField, t: CharTuple, a: int = 1) -> KlTable:
    """Full Kl_k table: one inverse transform of length q-1 (``log_dft``)
    of prod_i roll(G, a_i), computed in place in prod (G itself where
    a_i = 0)."""
    if a % field.q == 0:
        raise PreconditionError(f"scale a must be nonzero mod q, got a={a} at q={field.q}")
    # prod, then one roll of G or the split's (m, p) array in log_dft, then
    # the residue-order table with the scatter's index: 40.0 bytes per
    # element unscaled and 48.0 scaled at q = 96001 and 97159 (k = 1, 2, 3),
    # counted as 48, plus 16 KiB (build_field counts G).  This admits q below
    # 2.24e7 and build_field's 56 below 1.92e7, so no q that build_field
    # admits is refused here.
    check_bytes(48 * field.q + 2**14, "fast Kl table", q=field.q)
    if t.k == 1:
        conv = _factor_logs(field, t)[0]
    else:
        spec = field.gauss_spectrum
        prod = np.roll(spec, t.indices[0])
        for ai in t.indices[1:]:
            prod *= np.roll(spec, ai) if ai else spec
        conv = log_dft(field, prod, inverse=True)
    return _assemble(field, t, a, conv)


def _cyclic_conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cyclic convolution of two equal-length vectors: ``np.convolve``'s
    direct sum (no FFT) with its upper half folded onto the lower, copied
    out so that the 2n - 1 entry output is freed on return."""
    n = len(a)
    full = np.convolve(a, b)
    full[:n - 1] += full[n:]
    return full[:n].copy()


def kl_table_naive(field: PrimeField, t: CharTuple, a: int = 1) -> KlTable:
    """Oracle table: the direct O(k q^2) cyclic convolution of the log
    factors, folded by ``_cyclic_conv``; no transforms, O(k q) bytes."""
    if a % field.q == 0:
        raise PreconditionError(f"scale a must be nonzero mod q, got a={a} at q={field.q}")
    # the k log factors, then per fold the last fold's output, np.convolve's
    # reversed copy of h and its 2(q-1) - 1 entry output: 4 vectors past the
    # factors, counted as 5 (assembly, with the table and its scatter
    # index, holds 2.5), 16 KiB for small arrays
    check_bytes(16 * field.q * (t.k + 5) + 2**14, "naive Kl table", q=field.q)
    hs = _factor_logs(field, t)
    conv = hs[0]
    for h in hs[1:]:
        conv = _cyclic_conv(conv, h)
    return _assemble(field, t, a, conv)


def table_agreement(t1: KlTable, t2: KlTable) -> float:
    """max_x |t1 - t2| / max(1, max_x |t2|): the oracle-equivalence statistic."""
    d = float(np.max(np.abs(t1.values - t2.values)))
    return d / max(1.0, t2.max_abs())


def fourier_identity_check(table: KlTable, lam: MultChar) -> tuple[complex, complex, float]:
    """Multiplicative-Fourier check: sum_x Kl_k(x) lambda(x) vs q^{-(k-1)/2} prod tau(chi_i lambda).

    Requires scale a = 1 (the identity as stated is for the unscaled table).
    Returns (lhs, rhs, |lhs - rhs|).
    """
    if table.scale % table.field.q != 1:
        raise PreconditionError(f"fourier_identity_check needs a table with scale 1, "
                                f"got scale={table.scale} at q={table.field.q}")
    f = table.field
    lhs = complex(np.sum(table.values * lam.values_by_residue()))
    rhs = 1 + 0j
    for ai in table.tuple.indices:
        rhs *= gauss_sum(MultChar(f, ai + lam.a))
    rhs /= f.q ** ((table.k - 1) / 2)
    return lhs, rhs, abs(lhs - rhs)
