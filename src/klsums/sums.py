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

Every quantity is a sum over the matrix N[r, s] = bfK(s*r, s*b) for
r in F_q and s in F_q^x, whose columns hold s = g^sigma in log order
(sigma = 0..q-2, no column for s = 0): bfR(r, b) is the sum of row r.
The ``sigma_II`` report (Sigma_I and Sigma_II) and
``bilinear.averaged_comparison_full_sample`` take it, one b at a time, in
one sweep of row blocks from ``kr_matrix(table, b, lo, hi)``, each reduced
while in cache to its row sums and sum |bfK|^2, so N is never held whole.

``sigma_II``, ``kr_matrix``, the sweep and the direct oracle take one b
(``field.check_b``'s batch form is the strata's), and ``kr_matrix`` refuses
a batch for all of them.  They are one kernel, which reads the table's
values through ``_kernel``: float64 kappa (values.real for K = kappa,
values.imag for K = i kappa, a read-only view) when the tuple makes K real
or purely imaginary (``chartuples.kl_value_kind``), since bfK then equals
the product of its 2l kappa factors with no conjugation (i^l (-i)^l = 1);
complex128 values otherwise.  Only the imaginary rounding residue of a real
table's values is dropped, so Sigma moves by rounding only (at most
2.2e-14 q^{3/2} measured at q = 101..1009).

The kernel reads one matrix per table, kmat[x, sigma] = kernel[(x % q) g^sigma]
in the kernel's dtype, built on first use by ``_kmat`` and cached until the
table is freed.  Its columns are N's, and its rows q onward repeat its first
rows - 1 for the one block rule, ``_block_rows``: BLOCK_ENTRIES // q rows,
at least 1 and at most q (2^16 entries: all of N up to q = 256, 65 rows at
q = 997, 15 at q = 4099).  So factor i of a block of at most that many rows
from r = a, K(s (r + b_i)) for all s, is the contiguous slice of kmat rows
(a + b_i) % q onward, read with no copy.  Row x is the window at dlog(x % q)
of logs = [L, L, 0...0], L[m] = kernel[g^m] (3 (q - 1) entries), so the
build is one gather of the windows of a read-only strided view of logs by
``field.dlog`` and its first rows - 1 entries, with no modular arithmetic:
dlog(0) = -1 reads the last window, all zero, and every other entry is the
kernel's value bit for bit.  The build holds kmat, logs and that index.

``kr_matrix`` cuts its rows into blocks and writes each as 2l - 1
multiplies of kmat slices in factor order.  A complex block is conjugated
in place before factor l and at the end, which rounds exactly as
conjugating factors l..2l-1 (a sign flip), so every entry equals the
pointwise product ``_bfk_product``, the oracle it is tested against,
whatever the rows or the block size; a float64 kmat needs no conjugation.
The sweep asks ``kr_matrix`` for one block of rows at a time; each bfR(r) is
one pairwise sum along row r, and each block's sum |bfK|^2 one ``vdot``.
The direct oracle's Gram blocks are real GEMMs on a float64 N, a quarter of
the complex flops.

Against the byte budget (``errors.MAX_BYTES``) every count is the complex
one, an upper bound for a float64 kernel, and includes 16 KiB for the
small arrays.  Each starts from kmat's ``_kmat_bytes``, 16 q (q + rows), and
adds its own.  The sweep adds one row block, the bfR vector and 8 bytes per
block for its partial sums (kmat's build, 24 q bytes past kmat's count,
comes before the first block):
16 q (q + 2 rows + 1) + 8 ceil(q / rows) + 16 KiB, which admits q <= 8179.
``kr_matrix`` adds its output and one row more for kmat's build:
16 q (q + (hi - lo) + rows + 1) + 16 KiB, so all rows admit q <= 5783.
The direct route adds the whole N and forms the Gram matrix GRAM_ROWS (64)
columns at a time, and numpy buffers 128 KiB for a strided block:
16 q (2 q + rows + 128) + 144 KiB bytes, q <= 5749.

Any factor K(0) contributes 0 (vanishing stalk), which the table's
zero-entry at index 0 implements for free.

Numerics: the O(q^2)-term accumulations run through numpy sums and dot
products (absolute error well below 1e3 * q^2 * eps for these unit-scale
terms); scalar combination steps use math.fsum.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .chartuples import kl_value_kind
from .errors import NumericalInstabilityError, PreconditionError, check_bytes
from .field import check_b
from .kloosterman import KlTable

SIGMA_II_AGREE_RTOL = 1e-6
# Entries per row block of the Sigma kernel (_block_rows): the numpy calls
# of a block are paid once per 2^16 entries (512 KiB as float64).  Sigma
# per b, one BLAS thread: 1-6% faster than at 2^15 for q = 307..2003,
# while 2^17 was slower at q = 997 and 2003.
BLOCK_ENTRIES = 2**16
# Columns of s per block of the direct oracle's Gram sum: one conjugated
# block and its (GRAM_ROWS, q - 1) slab of Gram entries.
GRAM_ROWS = 64
# kmat per table, dropped when its table is freed
_KMATS: weakref.WeakKeyDictionary[KlTable, np.ndarray] = weakref.WeakKeyDictionary()


def _block_rows(q: int) -> int:
    """Rows per block of every Sigma pass over kmat, one more than kmat's
    repeated rows: BLOCK_ENTRIES // q, at least 1 and at most q."""
    return min(max(1, BLOCK_ENTRIES // q), q)


def _kmat_bytes(q: int) -> int:
    """kmat's count, 16 q bytes per row, to which every Sigma count adds its own."""
    return 16 * q * (q + _block_rows(q))


def _kernel(table: KlTable) -> np.ndarray:
    """The values the Sigma kernel reads (module docstring): values.real or
    values.imag as a read-only float64 view, or values itself."""
    kind = kl_value_kind(table.tuple)
    if kind == "complex":
        return table.values
    return table.values.real if kind == "real" else table.values.imag


def _kmat(table: KlTable) -> np.ndarray:
    """The table's read-only (q + rows - 1) x (q - 1) kmat (module
    docstring), rows = ``_block_rows(q)``, built on first use and cached in
    _KMATS.  Counted by the caller."""
    kmat = _KMATS.get(table)
    if kmat is None:
        q, dlog = table.field.q, table.field.dlog
        n, kernel = q - 1, _kernel(table)
        logs = np.zeros(3 * n, dtype=kernel.dtype)
        logs[:n] = logs[n:2 * n] = kernel[table.field.exp]
        logs.flags.writeable = False
        win = np.ndarray((2 * n + 1, n), logs.dtype, logs, strides=(logs.itemsize,) * 2)
        kmat = _KMATS[table] = win[np.concatenate((dlog, dlog[:_block_rows(q) - 1]))]
        kmat.flags.writeable = False
    return kmat


def _bfk_product(table: KlTable, s, r, b: np.ndarray, l: int) -> np.ndarray:
    """bfK(s*r, s*b) = prod_i K(s*(r + b_i)), conjugated for i > l, with s
    and r broadcast against each other, in the dtype of ``_kernel``.
    The pointwise oracle for ``kr_matrix``: it indexes the kernel directly
    and shares no code with kmat; s = ``field.exp`` gives kr_matrix's
    columns."""
    q = table.field.q
    src = _kernel(table)
    out = np.ones(np.broadcast_shapes(np.shape(s), np.shape(r)), dtype=src.dtype)
    for i in range(2 * l):
        factor = src[(s * ((r + b[i]) % q)) % q]
        out *= factor if i < l else np.conj(factor)
    return out


def kr_matrix(table: KlTable, b, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Rows r = lo..hi-1 of the matrix N[r, sigma] = bfK(s*r, s*b) for
    s = g^sigma, sigma = 0..q-2, for one b; by default all of them,
    r = 0..q-1.  A (B, 2l) array of b is refused.

    Each block of ``_block_rows(q)`` rows from lo is 2l - 1 multiplies of
    kmat slices in factor order (module docstring), so every entry equals
    ``_bfk_product`` whatever the row range.  The output has kmat's dtype.
    """
    bt, l = check_b(table.field, b)
    if bt.ndim == 2:
        raise PreconditionError(f"the Sigma layer (sigma_II, kr_matrix, the direct oracle) takes "
                                f"one b, got a batch of B={len(bt)} at l={l}")
    q = table.field.q
    hi = q if hi is None else hi
    if not 0 <= lo < hi <= q:
        raise PreconditionError(f"kr_matrix rows need 0 <= lo < hi <= q, got q={q}, lo={lo}, hi={hi}")
    rows = _block_rows(q)
    # the output (hi - lo rows of 16 q bytes), one row more for kmat's build
    # (its logs and index, 24 q bytes past kmat's count, before the output
    # exists) and 16 KiB for the small arrays
    check_bytes(_kmat_bytes(q) + 16 * q * (hi - lo + 1) + 2**14, "kr_matrix", q=q)
    kmat = _kmat(table)
    out = np.empty((hi - lo, q - 1), dtype=kmat.dtype)
    conj = np.iscomplexobj(kmat)
    row = bt.tolist()
    for start in range(lo, hi, rows):
        dst = out[start - lo:start - lo + rows]
        acc = kmat[(start + row[0]) % q:][:len(dst)]
        for i in range(1, 2 * l):
            if conj and i == l:
                acc = np.conjugate(acc, out=dst)
            acc = np.multiply(acc, kmat[(start + row[i]) % q:][:len(dst)], out=dst)
        if conj:
            np.conjugate(dst, out=dst)
    return out


def _sweep(table: KlTable, b: np.ndarray) -> tuple[np.ndarray, float]:
    """One pass over N for one b in blocks of ``_block_rows(q)`` rows from
    ``kr_matrix``: the row sums bfR(r, b) for r = 0..q-1, and sum |bfK|^2
    over all of N, the fsum of one float64 partial per block.  The byte
    budget is checked before kmat is built."""
    q = table.field.q
    rows = _block_rows(q)
    starts = range(0, q, rows)
    # past kmat: kr_matrix's block (rows of 16 q bytes), the bfR vector (one
    # row), 8 bytes per block partial and 16 KiB for the small arrays
    check_bytes(_kmat_bytes(q) + 16 * q * (rows + 1) + 8 * len(starts) + 2**14, "Sigma sweep", q=q)
    r_vec = np.empty(q, dtype=_kmat(table).dtype)
    k2 = np.empty(len(starts))
    for j, lo in enumerate(starts):
        block = kr_matrix(table, b, lo, min(lo + rows, q))
        block.sum(axis=1, out=r_vec[lo:lo + len(block)])
        k2[j] = np.vdot(block, block).real
        del block  # freed before the next block is built
    return r_vec, math.fsum(k2)


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


def sigma_II(table: KlTable, b, direct: bool = False) -> SumReport:
    """The report of one b: Sigma_II(K, b) in difference form, with Sigma_I
    from the same sweep; optionally cross-check the direct sum.  A (B, 2l)
    array of b is refused (``kr_matrix``).

    With ``direct=True`` also evaluates the s1 != s2 double sum through the
    column-blocked Hermitian Gram sum of ``sigma_II_direct`` and raises
    NumericalInstabilityError if the two routes disagree beyond
    1e-6 * q^{3/2}.  The direct route runs first, so its larger byte count
    is checked before any matrix is built, and its N is freed before the
    difference form sweeps N one row block at a time.
    """
    bt, l = check_b(table.field, b)
    q = table.field.q
    d = sigma_II_direct(table, bt) if direct else None
    r_vec, comp_K2 = _sweep(table, bt)
    comp_R2 = float(np.vdot(r_vec, r_vec).real)
    si, s2 = complex(r_vec.sum()), comp_R2 - comp_K2
    rep = SumReport(b=tuple(bt.tolist()), l=l, sigma_I=si, sigma_II=s2, comp_R2=comp_R2,
                    comp_K2=comp_K2, sigma_II_imag=0.0, ratio_I=abs(si) / q,
                    ratio_II=abs(s2) / q**1.5)
    if d is not None:
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


def sigma_II_direct(table: KlTable, b) -> complex:
    """Direct Sigma_II: the explicit off-diagonal sum of the Gram matrix
    G = N^T conj(N) over the columns of N, one per s in F_q^x,
    G[s1, s2] = sum_r bfK(s1 r, s1 b) conj(bfK(s2 r, s2 b)).

    G is Hermitian by definition, so only its lower block triangle is
    formed.  For each block a of GRAM_ROWS columns, conj(N[:, a]) goes into
    one reused (q, GRAM_ROWS) buffer, and X = conj(N[:, a]).T @ N[:, a0:]
    holds G[s2, s1] at [s1, s2] for s1 in a and s2 from a's first column a0
    on: its diagonal block adds its sum minus its trace, and the part z
    right of it adds z + conj(z), which stands for the block above the
    diagonal too.
    The pairwise inner products share no code with the difference form; the
    two agree to rounding.  The imaginary residue comes only from the
    diagonal blocks.  N has kmat's dtype, so a float64 N is its own
    conjugate and each block is a real GEMM with no residue.
    """
    q = table.field.q
    n = q - 1
    rows = min(GRAM_ROWS, n)
    # past kmat, 16 q bytes per row: N, and the conjugated block and X,
    # whose (q - 1) x GRAM_ROWS entries fit in GRAM_ROWS rows; and 144 KiB:
    # numpy's 8192-entry buffer (128 KiB) for a strided block's conjugate
    # and sum, and 16 KiB for the small arrays
    check_bytes(_kmat_bytes(q) + 16 * q * (q + 2 * GRAM_ROWS) + 9 * 2**14, "sigma_II_direct", q=q)
    m = kr_matrix(table, b)
    real = not np.iscomplexobj(m)
    conj_buf = None if real else np.empty((q, rows), dtype=m.dtype)
    parts = []
    for start in range(0, n, GRAM_ROWS):
        width = min(GRAM_ROWS, n - start)
        block = m[:, start:start + width]
        conj = block if real else np.conjugate(block, out=conj_buf[:, :width])
        x = conj.T @ m[:, start:]
        diag, z = x[:, :width], complex(x[:, width:].sum())
        parts += [complex(diag.sum()) - complex(np.trace(diag)), z, z.conjugate()]
        del x, diag  # freed before the next block's X is formed
    return complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts))
