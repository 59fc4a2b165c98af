"""Complete sum-product sums over the shift parameters b.

For a table K(x) = Kl_k(a*x) and a 2l-tuple b, with

    bfK(r, b) = prod_{i<=l} K(r + b_i) * conj(K(r + b_{i+l})),

this module computes

    bfR(r, b)     = sum over s in F_q^x of bfK(s*r, s*b),
    Sigma_I(K,b)  = sum over r in F_q, s in F_q^x of bfK(s*r, s*b),
    Sigma_II(K,b) = sum over r, s1 != s2 of bfK(s1 r, s1 b) conj(bfK(s2 r, s2 b)),

the last one by default in the rearranged difference form

    Sigma_II = sum_r |bfR(r,b)|^2 - sum_s sum_r |bfK(sr, sb)|^2,

which costs O(q^2 l) instead of O(q^3 l).  The direct (s1 != s2) evaluation
is kept as an oracle behind a flag; the two must agree to 1e-6 * q^{3/2}.

Every quantity is a sum over the matrix M[s-1, r] = bfK(s*r, s*b).  Sigma_I,
Sigma_II and ``bilinear.averaged_comparison_full_sample`` take it in one
sweep of KR_ROWS-row blocks from ``kr_matrix(table, b, lo, hi)``, each
reduced while in cache to the column sums bfR(r, b) and sum |bfK|^2, so M
is never held whole.  Against the byte budget (``errors.MAX_BYTES``) the
sweep counts the table's cached kmat, 16 q^2 bytes, plus one block, which
admits q <= 8147; the direct route counts 64 q^2 bytes, q <= 4093.

``kr_matrix`` reads kmat[s, x] = K(s*x): factor i of row s is row s of kmat
rotated left by b_i, so a b costs 2l slice copies and multiplies per block
of KR_ROWS rows, with no per-b integer arithmetic and no q x q temporaries.
``_bfk_product`` evaluates the same product pointwise from the table; it
is the oracle the kernel is tested against, bit for bit.

Any factor K(0) contributes 0 (vanishing stalk), which the table's
zero-entry at index 0 implements for free.

Numerics: the O(q^2)-term accumulations run through numpy sums and dot
products (absolute error well below 1e3 * q^2 * eps for these unit-scale
terms); scalar combination steps use math.fsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalInstabilityError, PreconditionError, check_bytes
from .field import check_b
from .kloosterman import KlTable

SIGMA_II_AGREE_RTOL = 1e-6
# Rows of s per kr_matrix block: the (rows, q) factor buffer and output block
# stay in L2 (1 MB at q = 1999).
KR_ROWS = 32


def _bfk_product(table: KlTable, s, r, b: np.ndarray, l: int) -> np.ndarray:
    """bfK(s*r, s*b) = prod_i K(s*(r + b_i)), conjugated for i > l, with s
    and r broadcast against each other.  The pointwise oracle for
    ``kr_matrix``: it indexes the table directly and shares no code with
    the kernel."""
    q = table.field.q
    out = np.ones(np.broadcast_shapes(np.shape(s), np.shape(r)), dtype=np.complex128)
    for i in range(2 * l):
        factor = table.values[(s * ((r + b[i]) % q)) % q]
        out *= factor if i < l else np.conj(factor)
    return out


def kr_matrix(table: KlTable, b, lo: int = 1, hi: int | None = None) -> np.ndarray:
    """Rows s = lo..hi-1 of the matrix M[s-1, r] = bfK(s*r, s*b), r = 0..q-1;
    by default all of them, s = 1..q-1.

    Row s of factor i is row s of ``table.kmat`` rotated left by b_i; the
    rows are processed in blocks of KR_ROWS through one reused factor
    buffer, so a row range gives the matching rows of the full matrix bit
    for bit.
    """
    b, l = check_b(table.field, b)
    q = table.field.q
    hi = q if hi is None else hi
    if not 1 <= lo < hi <= q:
        raise PreconditionError(f"kr_matrix rows need 1 <= lo < hi <= q, got q={q}, lo={lo}, hi={hi}")
    rows = min(KR_ROWS, hi - lo)
    # kmat (q rows of 16 q bytes), the output (hi - lo rows), one more row
    # and the factor buffer (rows), so the full range counts 32 q^2 + 512 q
    check_bytes(16 * q * (q + hi - lo + 1 + rows), "kr_matrix", q=q)
    kmat = table.kmat
    out = np.ones((hi - lo, q), dtype=np.complex128)
    buf = np.empty((rows, q), dtype=np.complex128)
    for start in range(lo, hi, KR_ROWS):
        stop = min(start + KR_ROWS, hi)
        block = out[start - lo:stop - lo]
        factor = buf[:stop - start]
        for i, bi in enumerate(b):
            factor[:, :q - bi] = kmat[start:stop, bi:]
            factor[:, q - bi:] = kmat[start:stop, :bi]
            if i >= l:
                np.conjugate(factor, out=factor)
            block *= factor
    return out


def _sweep(table: KlTable, b) -> tuple[np.ndarray, float, float]:
    """One pass over M in KR_ROWS-row blocks from ``kr_matrix``: the column
    sums bfR(r, b) for r = 0..q-1, sum |bfK|^2 over all of M, and the same
    over its r = 0 column."""
    b, _ = check_b(table.field, b)
    q = table.field.q
    rows = min(KR_ROWS, q - 1)
    # kmat (q rows of 16 q bytes), one block and its factor buffer (rows
    # each), the bfR vector and one column-sum temporary, and 16 KiB for the
    # small arrays
    check_bytes(16 * q * (q + 2 * rows + 2) + 2**14, "Sigma sweep", q=q)
    r_vec = np.zeros(q, dtype=np.complex128)
    k2, k2_col0 = [], []
    for lo in range(1, q, KR_ROWS):
        block = kr_matrix(table, b, lo, min(lo + KR_ROWS, q))
        r_vec += block.sum(axis=0)
        k2.append(np.vdot(block, block).real)
        k2_col0.append(np.vdot(block[:, 0], block[:, 0]).real)
        del block  # freed before the next block is built
    return r_vec, math.fsum(k2), math.fsum(k2_col0)


def sigma_I(table: KlTable, b) -> complex:
    """Sigma_I(K, b) = sum over r in F_q, s in F_q^x of bfK(sr, sb)."""
    return complex(_sweep(table, b)[0].sum())


@dataclass
class SumReport:
    """Sigma_I / Sigma_II values for one b, with components and scale ratios."""

    b: tuple[int, ...]
    l: int
    sigma_I: complex
    sigma_II: float
    comp_R2: float  # sum_r |bfR(r,b)|^2          (nonnegative)
    comp_K2: float  # sum_s sum_r |bfK(sr,sb)|^2  (nonnegative)
    sigma_II_imag: float
    ratio_I: float  # |sigma_I| / q
    ratio_II: float  # |sigma_II| / q^{3/2}
    sigma_II_direct: float | None = None


def sigma_II(table: KlTable, b, direct: bool = False) -> SumReport:
    """Sigma_II(K, b) in difference form; optionally cross-check the direct sum.

    With ``direct=True`` also evaluates the s1 != s2 double sum through the
    Gram matrix of M and raises NumericalInstabilityError if the two routes
    disagree beyond 1e-6 * q^{3/2}.  The direct route runs first, so its
    larger byte count is checked before any matrix is built, and its M is
    freed before the difference form sweeps M one row block at a time.
    """
    bt, l = check_b(table.field, b)
    q = table.field.q
    d = sigma_II_direct(table, bt) if direct else None
    r_vec, comp_K2, _ = _sweep(table, bt)
    comp_R2 = float(np.vdot(r_vec, r_vec).real)
    s2 = comp_R2 - comp_K2
    si = complex(r_vec.sum())
    rep = SumReport(
        b=tuple(int(x) for x in bt),
        l=l,
        sigma_I=si,
        sigma_II=s2,
        comp_R2=comp_R2,
        comp_K2=comp_K2,
        sigma_II_imag=0.0,
        ratio_I=abs(si) / q,
        ratio_II=abs(s2) / q**1.5,
    )
    if d is not None:
        rep.sigma_II_direct = d.real
        rep.sigma_II_imag = abs(d.imag)
        if abs(d.real - s2) > SIGMA_II_AGREE_RTOL * q**1.5:
            raise NumericalInstabilityError(
                f"Sigma_II direct/difference disagreement beyond {SIGMA_II_AGREE_RTOL}*q^1.5: "
                f"direct={d.real!r}, difference={s2!r}",
                d.real,
                s2,
            )
    return rep


def sigma_II_direct(table: KlTable, b) -> complex:
    """Direct Sigma_II: explicit off-diagonal sum of the Gram matrix G = M M^H.

    G[s1, s2] = sum_r bfK(s1 r, s1 b) conj(bfK(s2 r, s2 b)); the result is
    the sum of all off-diagonal entries.  Different floating-point route
    from the difference form, same algebraic value.
    """
    q = table.field.q
    # kmat, M, the copy M.conj().T and the Gram matrix, 16 q^2 bytes each
    check_bytes(64 * q * q, "sigma_II_direct", q=q)
    m = kr_matrix(table, b)
    gram = m @ m.conj().T
    total = complex(gram.sum())
    diag = complex(np.trace(gram))
    return total - diag


def sigma_envelope(table: KlTable, l: int) -> tuple[float, float]:
    """Trivial envelopes |Sigma_I| <= k^{2l} q^2 and |Sigma_II| <= k^{4l} q^3."""
    q = table.field.q
    k = table.k
    return float(k ** (2 * l)) * q**2, float(k ** (4 * l)) * q**3
