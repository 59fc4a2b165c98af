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
while in cache to its row sums and sum |bfK|^2 (and row 0's, which the
comparison drops), so N is never held whole.  The direct oracle reads N
in blocks of DIRECT_ROWS rows from ``kr_matrix`` too.

``sigma_II``, ``kr_matrix``, the sweep and the direct oracle take one b
(``field.check_b``'s batch form is the strata's) and refuse a batch
(``_one_b``) before anything is counted.  They are one kernel, which reads
the table's values through ``_kernel``: float64 kappa (values.real for
K = kappa, values.imag for K = i kappa, a read-only view) when the tuple
makes K real or purely imaginary (``chartuples.kl_value_kind``), since bfK
then equals the product of its 2l kappa factors with no conjugation
(i^l (-i)^l = 1); complex128 values otherwise.  Only the imaginary
rounding residue of a real table's values is dropped, so Sigma moves by
rounding only (at most 2.2e-14 q^{3/2} measured at q = 101..1009).

The kernel's factors are the rows of one matrix per table,
kmat[x, sigma] = kernel[(x % q) g^sigma] in the kernel's dtype.  Its
columns are N's, and its rows q onward repeat its first rows - 1 for the
one block rule, ``_block_rows``: BLOCK_ENTRIES // q rows, at least 1 and
at most q (2^16 entries: all of N up to q = 256, 65 rows at q = 997, 15
at q = 4099, 8 at q = 8191, 1 past q = 2^16).  So factor i of a block of
at most that many rows from r = a, K(s (r + b_i)) for all s, is kmat's
rows (a + b_i) % q onward.  Row x is the window at dlog(x % q) of
logs = [L, L, 0...0], L[m] = kernel[g^m] (3 (q - 1) entries), so kmat is
win[idx] for ``_windows``' read-only strided view win of logs and the index
idx, ``field.dlog`` followed by its first rows - 1 entries, with no
modular arithmetic: dlog(0) = -1 reads the last window, all zero, and every
other entry is the kernel's value bit for bit.

Those rows come from one of two sources (``_source``), chosen per route
by its byte count.  Where kmat fits the budget beside the route, kmat is
built once by that gather (``_kmat``; it holds kmat, logs and the index)
and cached until the table is freed, and each factor of a block is a
contiguous slice of it, read with no copy.  Past that, no kmat is built:
the route holds win and idx alone, and each row of a block is the product
of its 2l windows win[idx[(a + b_i) % q + j]], the same rows as kmat's,
so every output is bit-identical to the cached route's.  The gathered
route needs no buffer past the block, and pays one numpy call per row and
factor instead of per block (at q = 8191, l = 2, one BLAS thread: 0.23 s
per b for a real table and 0.48 s for a complex one, in 0.8 and 1.6 MB).

``kr_matrix`` cuts its rows into blocks and writes each as 2l - 1
multiplies in factor order, of kmat slices or, gathered, row by row.  A
complex block is conjugated in place before factor l and at the end, which
rounds exactly as conjugating factors l..2l-1 (a sign flip), so every entry
equals the pointwise product ``_bfk_product``, the oracle it is tested
against, whatever the rows, the block size or the source; a float64 kernel
needs no conjugation.  The sweep asks ``kr_matrix`` for one block of rows
at a time; each bfR(r) is one pairwise sum along row r, and each block's
sum |bfK|^2 one ``vdot``.  The direct oracle's Gram blocks are real GEMMs
on a float64 N, a quarter of the complex flops.

Against the byte budget (``errors.MAX_BYTES``) every count is the complex
one, an upper bound for a float64 kernel, and includes 16 KiB for the
small arrays.  Each is the route's own bytes beside the source's:
kmat's ``_kmat_bytes``, 16 q (q + rows), or the windows', 64 q (logs and
idx, four rows of 16 q).  The sweep holds one row block, the bfR vector
and 8 bytes per block for its partial sums beside them (kmat's build,
24 q bytes past kmat's count, comes before the first block):
16 q (q + 2 rows + 1) + 8 ceil(q / rows) + 16 KiB with kmat, which admits
q <= 8179, and 16 q (rows + 5) + 8 ceil(q / rows) + 16 KiB gathered,
which admits q <= 8947709, far past where time bounds a run (one b at
q = 65537 takes about 10 s).  ``kr_matrix`` holds its output and one row more for
kmat's build: 16 q (q + (hi - lo) + rows + 1) + 16 KiB with kmat, so all
rows admit q <= 5783 cached, and 16 q ((hi - lo) + 5) + 16 KiB gathered,
so all rows admit q <= 8179.  The direct route is O(q^3) in time and
requires kmat: beside it, one block of DIRECT_ROWS rows of N, the Gram
slab of GRAM_ROWS rows and the DIRECT_ROWS x GRAM_ROWS conjugated block,
16 q (q + rows + DIRECT_ROWS + GRAM_ROWS) + 16 DIRECT_ROWS GRAM_ROWS
+ 16 KiB bytes, q <= 8017.

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

from . import errors
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
# Rows of N per block of the direct oracle (at most q): a quarter of N at
# q = 997.  The direct sum at q = 997, kmat built, one BLAS thread, medians
# of 30 interleaved calls: real 28.96 ms against 28.82 for all of N in one
# block (29.56 at 128 rows, 28.54 at 512); complex 109.8 against 114.4.
DIRECT_ROWS = 256
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
    """kmat's count, 16 q bytes per row."""
    return 16 * q * (q + _block_rows(q))


def _kernel(table: KlTable) -> np.ndarray:
    """The values the Sigma kernel reads (module docstring): values.real or
    values.imag as a read-only float64 view, or values itself."""
    kind = kl_value_kind(table.tuple)
    if kind == "complex":
        return table.values
    return table.values.real if kind == "real" else table.values.imag


def _windows(table: KlTable) -> tuple[np.ndarray, np.ndarray]:
    """kmat's sources (module docstring): the read-only (2q - 1, q - 1)
    strided view of the doubled log table, and the index of its windows,
    ``field.dlog`` followed by its first rows - 1 entries, so that kmat is
    win[idx] and kmat[x:x + m] is win[idx[x:x + m]]."""
    q, dlog = table.field.q, table.field.dlog
    n, kernel = q - 1, _kernel(table)
    logs = np.zeros(3 * n, dtype=kernel.dtype)
    logs[:n] = logs[n:2 * n] = kernel[table.field.exp]
    logs.flags.writeable = False
    win = np.ndarray((2 * n + 1, n), logs.dtype, logs, strides=(logs.itemsize,) * 2)
    return win, np.concatenate((dlog, dlog[:_block_rows(q) - 1]))


def _kmat(table: KlTable) -> np.ndarray:
    """The table's read-only (q + rows - 1) x (q - 1) kmat (module
    docstring), rows = ``_block_rows(q)``, built on first use and cached in
    _KMATS.  Counted by the caller."""
    kmat = _KMATS.get(table)
    if kmat is None:
        win, idx = _windows(table)
        kmat = _KMATS[table] = win[idx]
        kmat.flags.writeable = False
    return kmat


def _source(table: KlTable, beside: int, what: str) -> tuple[np.ndarray, np.ndarray | None]:
    """kmat's rows for a route that holds ``beside`` bytes beside them:
    (kmat, None), the cached kmat, where its count fits the byte budget
    beside them, else ``_windows`` (win, idx), from which the route gathers
    the same rows as it needs them, and which the budget must admit
    instead."""
    q = table.field.q
    if _kmat_bytes(q) + beside <= errors.MAX_BYTES:
        return _kmat(table), None
    # the windows' logs (3 (q - 1) entries) and index (q + rows - 1 int64)
    # in place of kmat: four rows of 16 q bytes
    check_bytes(64 * q + beside, what, q=q)
    return _windows(table)


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


def _one_b(table: KlTable, b) -> tuple[np.ndarray, int]:
    """``field.check_b``'s (b, l) for one b: the Sigma layer refuses a
    (B, 2l) array, before anything is counted or built."""
    bt, l = check_b(table.field, b)
    if bt.ndim == 2:
        raise PreconditionError(f"the Sigma layer (sigma_II, kr_matrix, the direct oracle) takes "
                                f"one b, got a batch of B={len(bt)} at l={l}")
    return bt, l


def kr_matrix(table: KlTable, b, lo: int = 0, hi: int | None = None,
              source: tuple[np.ndarray, np.ndarray | None] | None = None) -> np.ndarray:
    """Rows r = lo..hi-1 of the matrix N[r, sigma] = bfK(s*r, s*b) for
    s = g^sigma, sigma = 0..q-2, for one b; by default all of them,
    r = 0..q-1.  A (B, 2l) array of b is refused.

    Each block of ``_block_rows(q)`` rows from lo is 2l - 1 multiplies of
    kmat's rows in factor order, sliced from the cached kmat or gathered
    from its windows (module docstring), so every entry equals
    ``_bfk_product`` whatever the row range and the source.  The output has
    kmat's dtype.  ``source`` is a Sigma route's ``_source``, whose count
    includes the output; by default kr_matrix chooses its own by counting
    the output beside it.
    """
    bt, l = _one_b(table, b)
    q = table.field.q
    hi = q if hi is None else hi
    if not 0 <= lo < hi <= q:
        raise PreconditionError(f"kr_matrix rows need 0 <= lo < hi <= q, got q={q}, lo={lo}, hi={hi}")
    rows = _block_rows(q)
    if source is None:
        # the output (hi - lo rows of 16 q bytes), one row more for kmat's
        # build (its logs and index, 24 q bytes past kmat's count, before
        # the output exists) and 16 KiB for the small arrays
        source = _source(table, 16 * q * (hi - lo + 1) + 2**14, "kr_matrix")
    src, idx = source
    out = np.empty((hi - lo, q - 1), dtype=src.dtype)
    conj = np.iscomplexobj(out)
    row = bt.tolist()
    for start in range(lo, hi, rows):
        dst = out[start - lo:start - lo + rows]
        xs = [(start + v) % q for v in row]  # kmat rows (start + b_i) % q onward
        if idx is None:  # one product of kmat slices
            products = [(dst, [src[x:x + len(dst)] for x in xs])]
        else:  # one product of windows per row, the same rows of kmat
            products = ((dst[j], [src[idx[x + j]] for x in xs]) for j in range(len(dst)))
        for into, factors in products:
            acc = factors[0]
            for i in range(1, 2 * l):
                if conj and i == l:
                    acc = np.conjugate(acc, out=into)
                acc = np.multiply(acc, factors[i], out=into)
        if conj:
            np.conjugate(dst, out=dst)
    return out


def _sweep(table: KlTable, b: np.ndarray) -> tuple[np.ndarray, float, float]:
    """One pass over N for one b in blocks of ``_block_rows(q)`` rows from
    ``kr_matrix``: the row sums bfR(r, b) for r = 0..q-1, sum |bfK|^2 over
    all of N, the fsum of one float64 partial per block, and sum |bfK|^2
    over row r = 0 alone.  The byte budget is checked before kmat's rows
    are built or gathered."""
    q = table.field.q
    rows = _block_rows(q)
    starts = range(0, q, rows)
    # beside kmat's rows: kr_matrix's block (rows of 16 q bytes), the bfR
    # vector (one row), 8 bytes per block partial and 16 KiB for the small
    # arrays
    source = _source(table, 16 * q * (rows + 1) + 8 * len(starts) + 2**14, "Sigma sweep")
    r_vec = np.empty(q, dtype=source[0].dtype)
    k2 = np.empty(len(starts))
    for j, lo in enumerate(starts):
        block = kr_matrix(table, b, lo, min(lo + rows, q), source)
        block.sum(axis=1, out=r_vec[lo:lo + len(block)])
        k2[j] = np.vdot(block, block).real
        if lo == 0:
            first = np.vdot(block[0], block[0]).real
        del block  # freed before the next block is built
    return r_vec, math.fsum(k2), first


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
    array of b is refused.

    With ``direct=True`` also evaluates the s1 != s2 double sum through the
    blocked Hermitian Gram sum of ``sigma_II_direct`` and raises
    NumericalInstabilityError if the two routes disagree beyond
    1e-6 * q^{3/2}.  The direct route runs first, so its byte count, which
    requires kmat, is checked before anything is built, and the difference
    form then sweeps the kmat it built.
    """
    bt, l = _one_b(table, b)
    q = table.field.q
    d = sigma_II_direct(table, bt) if direct else None
    r_vec, comp_K2, _ = _sweep(table, bt)
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

    G is the sum of P^T conj(P) over the blocks P of DIRECT_ROWS rows of N,
    read in turn from ``kr_matrix``, so N is never held whole.  Each term is
    Hermitian, so only its lower block triangle is formed.  For each block a
    of GRAM_ROWS columns from a0, conj(P[:, a]) goes into one reused
    (DIRECT_ROWS, GRAM_ROWS) buffer, and its products with P[:, a] and with
    the slab P[:, a0 + GRAM_ROWS:] hold P's part of G[s2, s1] at [s1, s2]:
    the diagonal block adds its sum minus its trace, and the slab's sum z
    adds z + conj(z), which stands for the block above the diagonal too.
    Both products are fresh contiguous arrays, so their sums need no numpy
    iterator buffer.  The pairwise inner products share no code with the
    difference form; the two agree to rounding.  The imaginary residue
    comes only from the diagonal blocks.  N has kmat's dtype, so a float64
    N is its own conjugate and each product is a real GEMM with no residue.
    The route reads N from kmat alone, so its count includes kmat's.
    """
    _one_b(table, b)
    q = table.field.q
    n = q - 1
    rows = min(DIRECT_ROWS, q)
    # beside kmat, 16 q bytes per row: one block of N and the Gram slab,
    # whose GRAM_ROWS x (q - 1) entries fit in GRAM_ROWS rows; the
    # conjugated block; 16 KiB for the small arrays
    beside = 16 * q * (rows + GRAM_ROWS) + 16 * rows * GRAM_ROWS + 2**14
    check_bytes(_kmat_bytes(q) + beside, "sigma_II_direct", q=q)
    kmat = _kmat(table)
    conj_buf = np.empty((rows, GRAM_ROWS), kmat.dtype) if np.iscomplexobj(kmat) else None
    parts = []
    for lo in range(0, q, rows):
        p = kr_matrix(table, b, lo, min(lo + rows, q), (kmat, None))
        for start in range(0, n, GRAM_ROWS):
            block = p[:, start:start + GRAM_ROWS]
            w = block.shape[1]
            conj = block if conj_buf is None else np.conjugate(block, out=conj_buf[:len(p), :w])
            diag = conj.T @ block
            z = complex((conj.T @ p[:, start + w:]).sum())
            parts += [complex(diag.sum()) - complex(np.trace(diag)), z, z.conjugate()]
        del p, block, conj  # freed before the next block of N is read
    return complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts))
