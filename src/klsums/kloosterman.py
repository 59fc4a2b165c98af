"""Generalized Kloosterman sums Kl_k(x; chi, q) over all of F_q^x.

Kl_k(x) = q^{-(k-1)/2} * sum over y_1*...*y_k = x of
          chi_1(y_1)...chi_k(y_k) e((y_1+...+y_k)/q).

This is the (k-1)-fold multiplicative convolution of the k functions
f_i(y) = chi_i(y) e(y/q), which after discrete-log reindexing becomes a
cyclic convolution of length q-1.  The DFT of f_i on log coordinates is the
field's Gauss spectrum G rotated by a_i: with G[j] = tau(chi_{-j}), the
transform of m -> chi_{a_i}(g^m) e(g^m/q) at j is G[j - a_i].  Three
evaluation routes are provided:

* ``kl_pointwise``   -- the package's one direct enumeration of the y with
  y_1...y_k = x, O(q^{k-1}) per point, k <= 3, in the same log coordinates:
  at k = 3 a Hankel matrix of the last factor times the middle one, by BLAS
  over blocks of rows (``bilinear.kl3_direct`` is a call to it);
* ``kl_table_naive`` -- direct O(k q^2) circulant convolution;
* ``kl_table_fast``  -- one inverse transform of prod_i roll(G, a_i),
  O(q log q) per table on top of the one forward transform per field that
  G costs.  Both are ``field.log_dft``, which splits a q - 1 with one large
  prime factor by the prime-factor algorithm rather than let numpy pad the
  whole length.

The fast route is the production path; the other two are oracles: neither
reads G, and they share nothing but the field's character vectors.  No sign
factor is applied: the table holds the unsigned normalization above.  The
sheaf trace function carries an extra (-1)^{k-1}; that constant relates the
two conventions and is never applied silently.

The table index runs over residues 0..q-1 with the value at 0 fixed to 0
(the stalk at 0 vanishes), which is the convention every downstream complete
sum relies on when an argument s*(r+b_i) hits 0.

``values`` is always complex128.  The Sigma kernel reads the table through
two lazily cached arrays built from it, so ``kl_table_fast`` pays for
neither: ``kernel``, which is values.real or values.imag as float64 when
``chartuples.kl_value_kind`` says K is real or purely imaginary (K = kappa
or i kappa), and values itself otherwise; and
``kmat[x, sigma] = kernel[x*g^sigma]``, q x (q - 1) in the kernel's dtype,
its columns the nonzero s = g^sigma in log order.  Row x is a window of
the doubled log table at dlog(x), so kmat is one gather with no modular
arithmetic, and its contiguous row slices are the factors of every Sigma
block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .chartuples import CharTuple, kl_value_kind
from .errors import InternalConsistencyError, PreconditionError, check_bytes
from .field import PrimeField, additive_char_vector, gauss_sum, log_dft, MultChar

DELIGNE_SLACK = 1e-9
# Entries per row block of the Sigma kernel (block_rows): the numpy calls
# of a block are paid once per 2^16 entries (512 KiB as float64).  Sigma
# per b, one BLAS thread: 1-6% faster than at 2^15 for q = 307..2003,
# while 2^17 was slower at q = 997 and 2003.
BLOCK_ENTRIES = 2**16
# Hankel rows per kl_pointwise block at k = 3: its one complex buffer holds
# 64 * (q - 1) entries (1 MB at q = 1009) instead of q^2.
POINTWISE_ROWS = 64


@dataclass(frozen=True)
class KlTable:
    """Table of x -> Kl_k(a*x; chi, q) for all x, normalized by q^{-(k-1)/2}.

    values has length q; values[0] = 0 by the vanishing-stalk convention and
    values[x] for x != 0 is the normalized sum.
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

    @cached_property
    def kernel(self) -> np.ndarray:
        """The values the Sigma kernel reads, built on first use: by the
        tuple's ``kl_value_kind``, values.real (K = kappa) or values.imag
        (K = i kappa) as a read-only float64 copy, or values itself.

        A real kappa serves both kinds, with no conjugation: bfK has l plain
        and l conjugated factors, and i^l (-i)^l = 1.
        """
        kind = kl_value_kind(self.tuple)
        if kind == "complex":
            return self.values
        out = np.ascontiguousarray(self.values.real if kind == "real" else self.values.imag)
        out.flags.writeable = False
        return out

    @property
    def block_rows(self) -> int:
        """Rows per block of every Sigma pass over kmat: BLOCK_ENTRIES // q,
        at least 1 and at most q (all of N up to q = 256, 131 rows at
        q = 499, 65 at q = 997, 15 at q = 4099)."""
        q = self.field.q
        return min(max(1, BLOCK_ENTRIES // q), q)

    @cached_property
    def kmat(self) -> np.ndarray:
        """Read-only q x (q - 1) matrix kmat[x, sigma] = kernel[x*g^sigma],
        built on first use, of the kernel's dtype.

        Row x holds K(x*s) for the nonzero s = g^sigma in log order, so
        K(s*(r + b)) for a block of rows r and all s is the slice of kmat
        rows r + b onward: the shift kernel of ``sums.kr_matrix``.  Every
        Sigma quantity sums over s, so the column order is free.
        16 q (q - 1) bytes (8 q (q - 1) for a float64 kernel); the caller
        counts 16 q^2 against the byte budget before touching it.  Row x
        is the window at dlog(x) of logs = [L, L, 0...0], L[m] = kernel[g^m]
        (3 (q - 1) entries), so the build is one gather of the windows of a
        read-only strided view of logs by ``field.dlog``: dlog(0) = -1 reads
        the last window, all zero, and every other entry is the kernel's
        value bit for bit.  It holds kmat and logs, and no index array.
        """
        n = self.field.q - 1
        logs = np.zeros(3 * n, dtype=self.kernel.dtype)
        logs[:n] = logs[n:2 * n] = self.kernel[self.field.exp]
        logs.flags.writeable = False
        win = np.ndarray((2 * n + 1, n), logs.dtype, logs, strides=(logs.itemsize,) * 2)
        out = win[self.field.dlog]
        out.flags.writeable = False
        return out


def _factor_logs(field: PrimeField, t: CharTuple) -> list[np.ndarray]:
    """Log-reindexed factors h_i[m] = chi_i(g^m) e(g^m/q), the oracle's input."""
    psi = additive_char_vector(field)[field.exp]
    return [MultChar(field, ai).values_by_log() * psi for ai in t.indices]


def _assemble(field: PrimeField, t: CharTuple, a: int, conv_log: np.ndarray) -> KlTable:
    """Normalize, reindex from logs to residues, and apply the scale.

    The scale-a table is the exact index permutation x -> a*x of the a = 1
    table (same float values, no separate transform), so fast(a)[x] equals
    fast(1)[a*x] bit for bit.
    """
    k = t.k
    vals = np.zeros(field.q, dtype=np.complex128)
    vals[field.exp] = conv_log / field.q ** ((k - 1) / 2)
    if a % field.q != 1:
        vals = vals[(a * np.arange(field.q)) % field.q]
    vals.flags.writeable = False
    table = KlTable(field=field, tuple=t, scale=a % field.q, values=vals)
    m = table.max_abs()
    if not np.isfinite(m) or m > k + DELIGNE_SLACK:
        raise InternalConsistencyError(
            f"Deligne bound violated: max |Kl_{k}| = {m} > {k} (numerical failure)"
        )
    return table


def kl_table_fast(field: PrimeField, t: CharTuple, a: int = 1) -> KlTable:
    """Full Kl_k table: one inverse transform of length q-1 (``log_dft``)
    of prod_i roll(G, a_i)."""
    if a % field.q == 0:
        raise PreconditionError(f"scale a must be nonzero mod q, got a={a} at q={field.q}")
    if t.k == 1:
        conv = _factor_logs(field, t)[0]
    else:
        spec = field.gauss_spectrum
        prod = np.roll(spec, t.indices[0])
        for ai in t.indices[1:]:
            prod *= np.roll(spec, ai)
        conv = log_dft(field, prod, inverse=True)
    return _assemble(field, t, a, conv)


def kl_table_naive(field: PrimeField, t: CharTuple, a: int = 1) -> KlTable:
    """Oracle table: direct O(k q^2) cyclic convolution, no transforms."""
    if a % field.q == 0:
        raise PreconditionError(f"scale a must be nonzero mod q, got a={a} at q={field.q}")
    n = field.q - 1
    # the (q-1)^2 int64 index matrix and two complex128 temporaries of its shape
    check_bytes(40 * n * n, "naive Kl table", q=field.q)
    hs = _factor_logs(field, t)
    conv = hs[0]
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    for h in hs[1:]:
        conv = (h[idx] * conv[None, :]).sum(axis=1)
    return _assemble(field, t, a, conv)


def kl_pointwise(field: PrimeField, t: CharTuple, x: int) -> complex:
    """Definitional sum at a single point by direct enumeration; k <= 3 only.

    In log coordinates y_i = g^{m_i}, with h_i[m] = chi_i(g^m) psi(g^m) read
    from the residue vectors through ``field.exp`` and x = g^nu,
    Kl_3(x) = q^{-1} sum_a h_1[nu + a] sum_c h_2[c] h_3[-(a + c)], indices
    mod q - 1.  The inner sums are a Hankel matrix W[a, c] = r[a + c] times
    h_2, where r[j] = h_3[-j]; row a of W is a contiguous window of r
    doubled.  The rows go in blocks of POINTWISE_ROWS, each copied into one
    reused buffer and contracted with h_2 by BLAS, so the temporaries stay
    O(POINTWISE_ROWS * q); the block partials are combined with math.fsum.
    k = 2 is the dot of the rotated h_1 with r built from h_2, and k = 1 is
    h_1[nu].  Still O(q^{k-1}) per point; reads neither the Gauss spectrum
    nor the naive table's convolution.
    """
    q = field.q
    if x % q == 0:
        raise PreconditionError(f"Kl_k(x) is defined for x in F_q^x only, got x={x} at q={q}")
    k = t.k
    if k > 3:
        raise PreconditionError(f"pointwise enumeration supported for k <= 3, got k={k} at q={q}")
    n = q - 1
    psi = additive_char_vector(field)
    hs = [(MultChar(field, a).values_by_residue() * psi)[field.exp] for a in t.indices]
    nu = int(field.dlog[x % q])
    if k == 1:
        return complex(hs[0][nu])
    lead = np.roll(hs[0], -nu)  # lead[a] = h_1[nu + a]
    r = np.roll(hs[-1][::-1], 1)  # r[j] = h_k[-j]
    if k == 2:
        total = complex(lead @ r)
    else:
        doubled = np.concatenate((r, r[:-1]))
        rows = np.ndarray((n, n), r.dtype, doubled, strides=(r.itemsize,) * 2)  # rows[a] = r[a:a + n]
        buf = np.empty((min(POINTWISE_ROWS, n), n), dtype=np.complex128)
        partials = []
        for lo in range(0, n, POINTWISE_ROWS):
            blk = buf[:min(POINTWISE_ROWS, n - lo)]
            np.copyto(blk, rows[lo:lo + len(blk)])
            partials.append(complex(lead[lo:lo + len(blk)] @ (blk @ hs[1])))
        total = complex(math.fsum(z.real for z in partials), math.fsum(z.imag for z in partials))
    return total / q ** ((k - 1) / 2)


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
