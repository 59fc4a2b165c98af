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

Every quantity is a sum over the matrix M[s-1, r] = bfK(s*r, s*b).  The
``sigma_II`` report (Sigma_I and Sigma_II) and
``bilinear.averaged_comparison_full_sample`` take it in one sweep of
KR_ROWS-row blocks from ``kr_matrix(table, b, lo, hi)``, each reduced while
in cache to the column sums bfR(r, b) and sum |bfK|^2, so M is never held
whole.

``kr_matrix``, the sweep and ``sigma_II`` take b by the rule of
``field.check_b``.  They are one kernel whose dtype follows the table's
``kernel`` (``kloosterman.KlTable``): float64 kappa when the tuple makes K
real or purely imaginary (``chartuples.kl_value_kind``), since bfK then
equals the product of its 2l kappa factors with no conjugation
(i^l (-i)^l = 1); complex128 values otherwise.  Only the imaginary
rounding residue of a real table's values is dropped, so Sigma moves by
rounding only (at most 2.2e-14 q^{3/2} measured at q = 101..1009).
``kr_matrix`` reads kmat[s, x] = kernel[s*x]: factor i of row s is row s
of kmat rotated left by b_i.  Per block it conjugates complex kmat rows
once and shares them across every b of the call (a float64 block is its
own conjugate and needs no buffer); per b it copies factor 0's rotation
into the output and multiplies in factors 1..2l-1, each rotated from the
plain or the conjugated block into one reused factor buffer, so a b costs
2l - 1 multiplies per block, with no per-b integer arithmetic and no q x q
temporaries.  The sweep hands ``kr_matrix`` chunks of as many b as keep
their output blocks and bfR vectors, 16 q (KR_ROWS + 1) bytes per b, within
SIGMA_CHUNK_BYTES (1 MiB), and at least one: 19 b at q = 101, 6 at
q = 307, 3 at q = 499, one from q = 997 up.  Per b it reduces the same
blocks in the same order whatever the chunk, so every value is
bit-identical to the one-b call.  ``_bfk_product`` evaluates the same
product pointwise from the table's kernel; it is the oracle the kernel is
tested against, bit for bit.  The direct oracle's Gram blocks are real
GEMMs on a float64 M, a quarter of the complex flops.

Against the byte budget (``errors.MAX_BYTES``) every count is the complex
one, an upper bound for a float64 kernel.  The sweep counts the
table's cached kmat, 16 q^2 bytes, the conjugated block and the factor
buffer, and one chunk: one b counts 16 q (q + 3 KR_ROWS + 2) + 16 KiB and
admits q <= 8123.  A chunk holds more than one b only for q < 1000, where
the count stays under 20 MB, so under the 1 GiB budget a batch is admitted
exactly when one b is.  A full one-b ``kr_matrix`` counts
32 q^2 + 1024 q, q <= 5749.  The direct route holds kmat and the whole M
and forms the Gram matrix GRAM_ROWS (64) rows at a time: 32 q^2 + 3072 q
bytes, q <= 5743.

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
# Rows of s per kr_matrix block: the (rows, q) conjugated block, factor
# buffer and output block stay in L2 (1 MB at q = 1999).
KR_ROWS = 32
# Counted bytes of one chunk of b in the Sigma sweep: each b holds its
# KR_ROWS-row output block and its bfR vector, 16 q (KR_ROWS + 1) bytes.
SIGMA_CHUNK_BYTES = 2**20
# Rows of s per block of the direct oracle's Gram sum: one conjugated block
# and its (q - 1, GRAM_ROWS) slab of Gram entries.
GRAM_ROWS = 64


def _bfk_product(table: KlTable, s, r, b: np.ndarray, l: int) -> np.ndarray:
    """bfK(s*r, s*b) = prod_i K(s*(r + b_i)), conjugated for i > l, with s
    and r broadcast against each other, in the dtype of ``table.kernel``.
    The pointwise oracle for ``kr_matrix``: it indexes the table's kernel
    directly and shares no code with the kernel's kmat."""
    q = table.field.q
    src = table.kernel
    out = np.ones(np.broadcast_shapes(np.shape(s), np.shape(r)), dtype=src.dtype)
    for i in range(2 * l):
        factor = src[(s * ((r + b[i]) % q)) % q]
        out *= factor if i < l else np.conj(factor)
    return out


def kr_matrix(table: KlTable, b, lo: int = 1, hi: int | None = None) -> np.ndarray:
    """Rows s = lo..hi-1 of the matrix M[s-1, r] = bfK(s*r, s*b), r = 0..q-1;
    by default all of them, s = 1..q-1.  For a (B, 2l) array of b, a
    (B, hi - lo, q) array whose slab j is the matrix of row j.

    Row s of factor i is row s of ``table.kmat`` rotated left by b_i, and
    the output has kmat's dtype.  The rows go in blocks of KR_ROWS; a
    complex block of kmat is conjugated once and serves every b (a float64
    block is its own conjugate).  Per b, factor 0 is copied into the output,
    and factors 1..2l-1 are rotated, from the plain block for i < l and the
    conjugated one after, into one reused factor buffer and multiplied in,
    in order, so a row range or a slab gives the matching rows of the one-b
    full matrix bit for bit.
    """
    bt, l = check_b(table.field, b)
    batch = np.atleast_2d(bt)
    q = table.field.q
    hi = q if hi is None else hi
    if not 1 <= lo < hi <= q:
        raise PreconditionError(f"kr_matrix rows need 1 <= lo < hi <= q, got q={q}, lo={lo}, hi={hi}")
    rows = min(KR_ROWS, hi - lo)
    # kmat (q rows of 16 q bytes), the output and one more row per b (hi - lo
    # + 1 rows), the conjugated block and the factor buffer (rows each), so
    # one b over the full range counts 32 q^2 + 1024 q
    check_bytes(16 * q * (q + len(batch) * (hi - lo + 1) + 2 * rows), "kr_matrix",
                **_named(q, batch))
    kmat = table.kmat
    real = not np.iscomplexobj(kmat)
    out = np.empty((len(batch), hi - lo, q), dtype=kmat.dtype)
    conj_buf = None if real else np.empty((rows, q), dtype=kmat.dtype)
    factor_buf = np.empty((rows, q), dtype=kmat.dtype)
    for start in range(lo, hi, KR_ROWS):
        stop = min(start + KR_ROWS, hi)
        plain, factor = kmat[start:stop], factor_buf[:stop - start]
        conj = plain if real else np.conjugate(plain, out=conj_buf[:stop - start])
        for row, block in zip(batch.tolist(), out[:, start - lo:stop - lo]):
            _rotate(block, plain, row[0])
            for i in range(1, 2 * l):
                _rotate(factor, plain if i < l else conj, row[i])
                block *= factor
    return out if bt.ndim == 2 else out[0]


def _rotate(dst: np.ndarray, src: np.ndarray, shift: int) -> None:
    """dst = src rotated left by shift along its rows, as two slice copies."""
    q = src.shape[1]
    dst[:, :q - shift] = src[:, shift:]
    dst[:, q - shift:] = src[:, :shift]


def _named(q: int, batch: np.ndarray) -> dict:
    """The parameters a byte-budget refusal names: q, and B for a batch of
    other than one b."""
    return {"q": q} if len(batch) == 1 else {"q": q, "B": len(batch)}


def _sweep(table: KlTable, b, col0: bool = False):
    """One pass over M in KR_ROWS-row blocks from ``kr_matrix``: the column
    sums bfR(r, b) for r = 0..q-1, sum |bfK|^2 over all of M, and, with
    ``col0``, the same over its r = 0 column (None without).

    For a (B, 2l) array, an iterator of the triples of its rows in order;
    for one b, its triple.  The rows go in chunks of as many b as keep their
    row blocks and bfR vectors within SIGMA_CHUNK_BYTES, at least one, so
    each kr_matrix call serves a chunk; the byte budget is checked before
    the first triple.
    """
    bt, _ = check_b(table.field, b)
    batch = np.atleast_2d(bt)
    q = table.field.q
    rows = min(KR_ROWS, q - 1)
    per_b = 16 * q * (rows + 1)
    chunk = max(1, min(len(batch), SIGMA_CHUNK_BYTES // per_b))
    # kmat (q rows of 16 q bytes), the conjugated block and the factor buffer
    # (rows each), one chunk of output blocks and bfR vectors, one column-sum
    # temporary, and 16 KiB for the small arrays; one b counts
    # 16 q (q + 3 rows + 2) + 16 KiB
    check_bytes(16 * q * (q + 2 * rows + 1) + chunk * per_b + 2**14, "Sigma sweep",
                **_named(q, batch))
    triples = _sweep_chunks(table, batch, chunk, col0)
    return triples if bt.ndim == 2 else next(triples)


def _sweep_chunks(table: KlTable, bt: np.ndarray, chunk: int, col0: bool):
    """The sweep triples of the rows of bt, one kr_matrix call per chunk of
    b and row block."""
    q = table.field.q
    for c0 in range(0, len(bt), chunk):
        rows_b = bt[c0:c0 + chunk]
        r_vec = [np.zeros(q, dtype=table.kernel.dtype) for _ in rows_b]
        k2 = [[] for _ in rows_b]
        k2_col0 = [[] for _ in rows_b]
        for lo in range(1, q, KR_ROWS):
            blocks = kr_matrix(table, rows_b, lo, min(lo + KR_ROWS, q))
            for j, block in enumerate(blocks):
                r_vec[j] += block.sum(axis=0)
                k2[j].append(np.vdot(block, block).real)
                if col0:
                    k2_col0[j].append(np.vdot(block[:, 0], block[:, 0]).real)
            del blocks, block  # freed before the next blocks are built
        for j in range(len(rows_b)):
            yield r_vec[j], math.fsum(k2[j]), math.fsum(k2_col0[j]) if col0 else None


@dataclass
class SumReport:
    """Sigma_I / Sigma_II values for one b, with components and scale ratios."""

    b: tuple[int, ...]
    l: int
    sigma_I: complex
    sigma_II: float
    comp_R2: float  # sum_r |bfR(r,b)|^2          (nonnegative)
    comp_K2: float  # sum_s sum_r |bfK(sr,sb)|^2  (nonnegative)
    sigma_II_imag: float  # |Im| of the direct sum: rounding in its diagonal Gram blocks
    ratio_I: float  # |sigma_I| / q
    ratio_II: float  # |sigma_II| / q^{3/2}
    sigma_II_direct: float | None = None


def sigma_II(table: KlTable, b, direct: bool = False) -> SumReport | list[SumReport]:
    """Sigma_II(K, b) in difference form, with Sigma_I from the same sweep;
    optionally cross-check the direct sum.

    For a (B, 2l) array of b, one report per row in order, from one sweep
    that serves a chunk of b per row block; for one b, its report.  With
    ``direct=True`` (one b only) also evaluates the s1 != s2 double sum
    through the row-blocked Hermitian Gram sum of ``sigma_II_direct`` and
    raises NumericalInstabilityError if the two routes disagree beyond
    1e-6 * q^{3/2}.  The direct route runs first, so its larger byte count
    is checked before any matrix is built, and its M is freed before the
    difference form sweeps M one row block at a time.
    """
    bt, l = check_b(table.field, b)
    if direct and bt.ndim == 2:
        raise PreconditionError(f"the direct Sigma_II oracle takes one b, got a batch of "
                                f"B={len(bt)} at l={l}")
    d = sigma_II_direct(table, bt) if direct else None
    batch = np.atleast_2d(bt)
    reps = [_report(table, row, l, r_vec, k2)
            for row, (r_vec, k2, _) in zip(batch, _sweep(table, batch))]
    if bt.ndim == 2:
        return reps
    rep = reps[0]
    if d is not None:
        q = table.field.q
        rep.sigma_II_direct = d.real
        rep.sigma_II_imag = abs(d.imag)
        if abs(d.real - rep.sigma_II) > SIGMA_II_AGREE_RTOL * q**1.5:
            raise NumericalInstabilityError(
                f"Sigma_II direct/difference disagreement beyond {SIGMA_II_AGREE_RTOL}*q^1.5: "
                f"direct={d.real!r}, difference={rep.sigma_II!r}",
                d.real,
                rep.sigma_II,
            )
    return rep


def _report(table: KlTable, b: np.ndarray, l: int, r_vec: np.ndarray, comp_K2: float) -> SumReport:
    """The difference-form report of one b from its sweep."""
    q = table.field.q
    comp_R2 = float(np.vdot(r_vec, r_vec).real)
    s2 = comp_R2 - comp_K2
    si = complex(r_vec.sum())
    return SumReport(
        b=tuple(int(x) for x in b),
        l=l,
        sigma_I=si,
        sigma_II=s2,
        comp_R2=comp_R2,
        comp_K2=comp_K2,
        sigma_II_imag=0.0,
        ratio_I=abs(si) / q,
        ratio_II=abs(s2) / q**1.5,
    )


def sigma_II_direct(table: KlTable, b) -> complex:
    """Direct Sigma_II: the explicit off-diagonal sum of the Gram matrix
    G = M M^H, G[s1, s2] = sum_r bfK(s1 r, s1 b) conj(bfK(s2 r, s2 b)).

    G is Hermitian by definition, so only its lower block triangle is
    formed.  For each block a of GRAM_ROWS rows, conj(M[a]) goes into one
    reused buffer and X = M[a_start:] @ conj(M[a]).T holds G[s2, s1] for s1
    in a and s2 from a's first row on: its diagonal block adds its sum minus
    its trace, and the part z below it adds z + conj(z), which stands for
    the block above the diagonal too.  The pairwise inner products share no
    code with the difference form; the two agree to rounding.  The
    imaginary residue comes only from the diagonal blocks.  M has kmat's
    dtype, so a float64 M is its own conjugate and each block is a real
    GEMM with no residue.
    """
    q = table.field.q
    n = q - 1
    rows = min(GRAM_ROWS, n)
    # 16 q bytes per row: kmat and M with one more row, kr_matrix's two
    # KR_ROWS-row buffers, and the conjugated block and X, whose (q - 1) x
    # GRAM_ROWS entries fit in GRAM_ROWS rows: 32 q^2 + 3072 q
    check_bytes(16 * q * (2 * q + 2 * KR_ROWS + 2 * GRAM_ROWS), "sigma_II_direct", q=q)
    m = kr_matrix(table, b)
    real = not np.iscomplexobj(m)
    conj_buf = None if real else np.empty((rows, q), dtype=m.dtype)
    parts = []
    for start in range(0, n, GRAM_ROWS):
        width = min(GRAM_ROWS, n - start)
        block = m[start:start + width]
        conj = block if real else np.conjugate(block, out=conj_buf[:width])
        x = m[start:] @ conj.T
        diag, z = x[:width], complex(x[width:].sum())
        parts += [complex(diag.sum()) - complex(np.trace(diag)), z, z.conjugate()]
        del x, diag  # freed before the next block's X is formed
    return complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts))
