"""Singular-support stratification of the parameter space of b-tuples.

The singular set of the r-family attached to a 2l-tuple b is the hypersurface
cut out (over F_q containing the k-th roots of unity) by

    P_b(r) = prod over zeta in mu_k^{2l} of L_zeta,
    L_zeta = sum_{i<=l} zeta_i x_i  -  sum_{i>l} zeta_i x_i,

in F_q[r][x_1..x_{2l}] modulo the relations x_i^k = r + b_i.  The forms fall
in orbits {c L_zeta : c in mu_k} of size k.  The product of mu_k is
(-1)^(k+1), raised here to the power k^{2l-1}, which is even when k is, so
P_b = M^k exactly, with

    M(r) = prod over zeta in mu_k^{2l} with zeta_1 = 1 of L_zeta.

M is invariant under every substitution x_i -> c x_i (for i >= 2 it
permutes the representatives; for i = 1 it also scales M by
c^{k^{2l-1}} = 1), so after full reduction only the monomial with all
x-exponents 0 mod k survives.  Grouping the representatives by zeta_2l,
the norm identity prod_{c in mu_k} (A - c y) = A^k - y^k, with y = x_2l
(whose sign is -) and y^k = r + b_2l, eliminates x_2l:

    M(r) = prod over zeta_2..zeta_{2l-1} in mu_k of (A_zeta^k - (r + b_2l)),
    A_zeta = x_1 + sum_{1<i<=l} zeta_i x_i - sum_{l<i<2l} zeta_i x_i,

k^{2l-2} factors in the ring on x_1..x_{2l-1}, which is a subring of the
one on all 2l variables, so the product is the same element.  The
operation computes M by these factors, asserts the collapse, and returns
M^k as a polynomial in r.

The full singular set adds the hyperplanes r = -b_i:

    F_b(r) = P_b(r) * prod_i (r + b_i),

and the geometric fiber count z(b) = |Z_b| is the number of distinct roots
of F_b over the algebraic closure.  Those are the roots of P_b, counted as
deg of the squarefree part P/gcd(P, P') (valid because q > deg P is a
precondition), plus each distinct -b_i with P_b(-b_i) != 0, so F_b itself
is never formed.  Strata are the loci {b : z(b) <= j}; "generic" b are
those attaining the maximum observed z, and b with subgeneric z serve as
the empirical proxy for the low-dimensional exceptional locus (a superset
of it, restricted to rational points, since the strata are closed).

Since each x_i has r-degree 1/k, deg M <= k^{2l-2}.  As r -> infinity, each
representative whose leading coefficient sum_{i<=l} zeta_i - sum_{i>l} zeta_i
vanishes loses a full power of r.  Writing V(k,l) for their number counted
over C (``vanishing_sum_count``), ``generic_z_bound`` is

    z(b) <= 2l + k^{2l-2} - V(k,l),

which is 5, 8, 12 for (k,l) = (2,2), (3,2), (2,3) (V = 3, 5, 10) and 2 for
l = 1.  The bound is proved for every admitted q: a signed sum of roots of
unity that vanishes over C vanishes in F_q too, so at least V forms lose
their top power there, and the squarefree part of M^k has degree at most
deg M.  Every z the module computes is checked against it.  That generic b
attain it is observed, not proved: seeded scans at q = 499 attain it for
over 90% of b.  So ``generic_z_value`` scans the first 20 of its 200
seeded draws and stops there when they attain the bound, whose maximum the
200 cannot exceed; otherwise it scans all 200.  The squarefree reduction
makes z(b) insensitive to the k-th power multiplicity.

``singular_polynomial`` and ``z_fiber_count`` take b by the rule of
``field.check_b``, and every multi-b caller hands its b over as one
(B, 2l) array.  The resolvent product carries a leading b axis: its state
S is (B, k^(2l-1), D), one row per exponent tuple of x_1..x_{2l-1}.  A
factor multiplies S by its form A k times, each a step of one gather
S[:, src] and two contractions over the coordinate axis (the constant term
and the r term), summed and reduced mod q once, then subtracts
(r + b_2l) S; so one numpy call per step serves every b of a chunk, and
each of the k^(2l-1) steps gathers k times fewer rows, over one variable
fewer, than a product of the k^(2l-1) forms on all 2l variables would.  A
batch runs in chunks of as many b as keep the chunk's counted bytes,
24 (n-1) k^(n-1) (k^(n-2) + 1) + 512 per b with n = 2l and 8192 more,
within RESOLVENT_CHUNK_BYTES (4 MiB), and at least one b: 1234 b at
(k,l) = (2,2), 209 at (3,2), 63 at (2,3), 53 at (4,2), 17 at (5,2), 2 at
(2,4) and one at (3,3).  Each chunk pays the same numpy calls per step
whatever its size, so a scan of up to 209 b at (3,2) or 63 at (2,3) pays
them once.  Each M leaves the chunk once, as a list of Python ints, and
the polyfq finish stays per b on those lists: M^k, the squarefree part of
P_b, and P_b evaluated at each -b_i by Horner's rule.

Against the package's byte budget (``errors.MAX_BYTES``) the resolvent
counts one chunk before it allocates, which grows as k^(4l-3) per b, so
under any budget above 4 MiB a batch is admitted exactly when a single b
is: (k,l) = (2,6) counts 554 MB and is admitted under the 1 GiB budget,
(2,7) counts 10.5 GB and is refused.  The exhaustive scan counts 400 bytes
per b, q^(2l) of them, and the largest resolvent chunk beside them.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import polyfq
from .errors import (
    DegenerateFiberError,
    InternalConsistencyError,
    PreconditionError,
    check_bytes,
)
from .field import PrimeField, check_b

# Counted resolvent bytes per chunk of b: each chunk costs about 8 numpy
# calls per multiplication by a form, and as many again per factor, so
# fewer, larger chunks cut a scan's fixed cost, at the price of a scan's
# peak memory.
RESOLVENT_CHUNK_BYTES = 2**22


def is_diagonal(b) -> bool:
    """b lies on the diagonal variety: every coordinate value repeats."""
    counts = Counter(int(x) for x in b)
    return all(c >= 2 for c in counts.values())


@functools.lru_cache(maxsize=16)
def vanishing_sum_count(k: int, l: int) -> int:
    """V(k, l): tuples zeta in mu_k^{2l} with zeta_1 = 1 whose signed sum
    sum_{i<=l} zeta_i - sum_{i>l} zeta_i vanishes, counted over C.

    A nonzero such sum s is an algebraic integer of degree phi(k) <= k - 1
    whose conjugates all have modulus <= 2l and whose norm is a nonzero
    integer, so |s| >= (2l)^(1 - phi(k)) >= (2l)^(2 - k); half that bound
    separates the zero sums exactly.
    """
    n = 2 * l
    roots = [cmath.exp(2j * cmath.pi * t / k) for t in range(k)]
    tol = 0.5 * n ** (2 - k)
    return sum(abs(1 + sum(rest[:l - 1]) - sum(rest[l - 1:])) < tol
               for rest in itertools.product(roots, repeat=n - 1))


def generic_z_bound(k: int, l: int) -> int:
    """2l + k^(2l-2) - V(k, l), an upper bound for z(b) at every admitted q
    (module docstring); generic b are observed to attain it."""
    return 2 * l + k ** (2 * l - 2) - vanishing_sum_count(k, l)


def _resolvent_bytes(k: int, l: int, rows: int) -> int:
    """Counted bytes of a chunk of rows b.

    Per b, 3x the int64 gather state[src] ((2l-1) x k^(2l-1) rows by up to
    k^(2l-2) + 1 r-degrees) and 512 bytes of Python ints; per chunk, 8 KiB of
    numpy call overhead.  Measured, one b peaks at 1.1-2.7x its gather for
    k^(2l-1) >= 27 and under 5 KiB at l = 1, where a large batch holds up to
    360 bytes per b.
    """
    n = 2 * l
    return rows * (24 * (n - 1) * k ** (n - 1) * (k ** (n - 2) + 1) + 2**9) + 2**13


def _chunk_rows(k: int, l: int) -> int:
    """b per chunk: as many as RESOLVENT_CHUNK_BYTES holds, at least one."""
    fixed = _resolvent_bytes(k, l, 0)
    return max(1, (RESOLVENT_CHUNK_BYTES - fixed) // (_resolvent_bytes(k, l, 1) - fixed))


def _chunks(b: np.ndarray, k: int, l: int):
    rows = _chunk_rows(k, l)
    return (b[lo:lo + rows] for lo in range(0, len(b), rows))


def _check_preconditions(field: PrimeField, k: int, b) -> tuple[np.ndarray, int]:
    b, l = check_b(field, b)
    if k < 2:
        raise PreconditionError(f"need k >= 2, got k={k}")
    if (field.q - 1) % k != 0:
        raise PreconditionError(f"q = {field.q} is not 1 mod k = {k}: mu_k not in F_q")
    # the largest chunk, which every chunk's bytes stay within
    rows = min(len(np.atleast_2d(b)), _chunk_rows(k, l))
    check_bytes(_resolvent_bytes(k, l, rows), "resolvent", q=field.q, k=k, l=l)
    if field.q <= 2 * l + k ** (2 * l - 1):
        raise PreconditionError(
            f"q = {field.q} <= 2l + k^(2l-1) = {2 * l + k ** (2 * l - 1)}: "
            "no separability headroom"
        )
    return b, l


@functools.lru_cache(maxsize=16)
def _row_maps(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row maps of the reduced state, whose rows are the exponent tuples
    e in [0, k)^n in C order (cached, read-only).

    Multiplying by x_i sends row e to e + u_i (mod k); src[i, f] is the row
    that lands on f, and wrap[i, f] marks f_i = 0, where the exponent wrapped
    and x_i^k -> (r + b_i) picks up a factor.
    """
    digits = np.indices((k,) * n).reshape(n, -1)
    stride = (k ** np.arange(n - 1, -1, -1, dtype=np.int64))[:, None]
    wrap = digits == 0
    src = np.arange(k**n, dtype=np.int64) - stride + k * stride * wrap
    src.flags.writeable = wrap.flags.writeable = False
    return src, wrap


def _form_terms(const: np.ndarray, lin: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_i const_i g_i + r * sum_i lin_i g_i over a gathered (B, n, k^n, D)
    state g, unreduced: (B, k^n, D + 1)."""
    out = np.zeros((g.shape[0], g.shape[2], g.shape[3] + 1), dtype=np.int64)
    out[..., :-1] = np.einsum("bif,bifd->bfd", const, g)
    out[..., 1:] += np.einsum("if,bifd->bfd", lin, g)
    return out


def _trim(state: np.ndarray) -> np.ndarray:
    """The state without the r-degrees that are zero in every row and b."""
    while state.shape[2] > 1 and not state[:, :, -1].any():
        state = state[:, :, :-1]
    return state


def _resolvent(field: PrimeField, k: int, b: np.ndarray) -> list[list[int]]:
    """P_b = M^k for each row of a (B, 2l) chunk of reduced b, as polyfq
    lists."""
    q = field.q
    n = b.shape[1]
    nx = n - 1  # x_2l is eliminated by the norm identity
    zeta = pow(field.g, (q - 1) // k, q)
    zpow = np.array([pow(zeta, t, q) for t in range(k)], dtype=np.int64)
    src, wrap = _row_maps(k, nx)
    wrap_b = np.where(wrap, b[:, :nx, None], 1)
    b_last = b[:, nx, None, None]
    sign = np.where(np.arange(nx) < n // 2, 1, -1)
    forms = np.array([(0, *ts) for ts in itertools.product(range(k), repeat=nx - 1)])
    coeffs = sign * zpow[forms] % q
    # a coefficient sums at most 2 nx products below q^2; when that can pass
    # 2^63 the state is split into 16-bit halves
    split = 2 * nx * (q - 1) ** 2 >= 2**63
    state = np.zeros((len(b), k**nx, 1), dtype=np.int64)
    state[:, 0, 0] = 1
    for c in coeffs[:, :, None]:
        const, lin = c * wrap_b % q, c * wrap
        out = state
        for _ in range(k):  # A^k S, for the form A and the state S
            g = out.take(src, axis=1)
            if split:
                hi = _form_terms(const, lin, g >> 16) % q
                out = (hi * 2**16 + _form_terms(const, lin, g & 0xFFFF)) % q
            else:
                out = _form_terms(const, lin, g) % q
            out = _trim(out)
        # A^k S - (r + b_2l) S, whose r-degrees reach one past S's
        d = state.shape[2]
        if out.shape[2] <= d:
            out = np.pad(out, ((0, 0), (0, 0), (0, d + 1 - out.shape[2])))
        out[:, :, :d] -= b_last * state
        out[:, :, 1:d + 1] -= state
        state = _trim(out % q)
    if state[:, 1:].any():
        raise InternalConsistencyError(
            "residual x-dependence after reduction: Galois cancellation failed"
        )
    polys = []
    for row in state[:, 0].tolist():
        m = p = polyfq.trim(row)
        for _ in range(k - 1):
            p = polyfq.mul(p, m, q)
        polys.append(p)
    return polys


def singular_polynomial(field: PrimeField, k: int, b) -> list[int] | list[list[int]]:
    """P_b over F_q as a polyfq list: ascending Python-int residues, trimmed
    (empty if P_b = 0).

    For one b, its P_b; for a (B, 2l) array (``field.check_b``), the list of
    P_b of its rows in order.  Computes M as the k^(2l-2) factors
    A^k - (r + b_2l) on x_1..x_{2l-1} (module docstring) and returns M^k.
    Each of the k multiplications by A costs one gather of the
    (B, k^(2l-1), D) state per chunk: the term for x_i is
    c_i * state[:, src_i], times 1 or, on a wrapped row, (b_i + r).  The
    2(2l-1) products that make up a coefficient are summed, then reduced
    mod q once; int64 stays exact for every q < 2^31 (16-bit halves past
    2(2l-1) (q-1)^2 >= 2^63).  After each multiplication and each factor
    the r-degree axis is trimmed to the chunk's largest degree.
    """
    bt, l = _check_preconditions(field, k, b)
    polys = [p for chunk in _chunks(np.atleast_2d(bt), k, l) for p in _resolvent(field, k, chunk)]
    return polys if bt.ndim == 2 else polys[0]


@dataclass
class StratumReport:
    b: tuple[int, ...]
    deg_P: int  # -1 when P_b = 0
    z_count: int
    generic: bool | None = None  # filled once a scan establishes the generic maximum

    def row(self) -> list:
        return [*self.b, self.deg_P, self.z_count, self.generic]


def _report(field: PrimeField, k: int, l: int, b: np.ndarray, p: list[int]) -> StratumReport:
    """The report for one reduced b from its P_b; deg_P = z_count = -1 when
    P_b = 0.  A z above ``generic_z_bound`` is a bug, and raises."""
    q = field.q
    bt = tuple(int(x) for x in b)
    if not p:
        return StratumReport(b=bt, deg_P=-1, z_count=-1)
    hyper = {-bi % q for bi in bt}
    # the roots of P_b, plus the hyperplane roots -b_i that P_b misses
    z = polyfq.deg(polyfq.squarefree_part(p, q)) + sum(polyfq.value(p, r, q) != 0 for r in hyper)
    if not len(hyper) <= z <= polyfq.deg(p) + 2 * l:
        raise InternalConsistencyError(f"z_count {z} outside [{len(hyper)}, {polyfq.deg(p) + 2 * l}]")
    if z > generic_z_bound(k, l):
        raise InternalConsistencyError(f"z_count {z} above the bound {generic_z_bound(k, l)} "
                                       f"at k={k}, l={l}, q={q}, b={bt}")
    return StratumReport(b=bt, deg_P=polyfq.deg(p), z_count=z)


def z_fiber_count(field: PrimeField, k: int, b) -> StratumReport | list[StratumReport]:
    """Distinct geometric points of Z_b = {P_b = 0} union {r = -b_i}.

    For a (B, 2l) array, one report per row in order, with
    deg_P = z_count = -1 on the degenerate rows; the rows reach
    ``singular_polynomial`` one chunk per call.  For one b, its report, and
    DegenerateFiberError when P_b = 0.
    """
    bt, l = _check_preconditions(field, k, b)
    reports = [_report(field, k, l, row, p)
               for chunk in _chunks(np.atleast_2d(bt), k, l)
               for row, p in zip(chunk, singular_polynomial(field, k, chunk))]
    if bt.ndim == 2:
        return reports
    rep = reports[0]
    if rep.z_count < 0:
        raise DegenerateFiberError(
            f"P_b vanishes identically at b = {rep.b}"
            + (" (b is diagonal)" if is_diagonal(rep.b) else "")
        )
    return rep


@dataclass
class ScanResult:
    histogram: dict[int, int]  # z_count -> frequency; key -1 collects degenerate fibers
    generic: int  # maximum z_count observed
    reports: list[StratumReport]

    def generic_fraction(self) -> float:
        total = sum(self.histogram.values())
        return self.histogram.get(self.generic, 0) / total if total else 0.0


def stratum_scan(
    field: PrimeField,
    k: int,
    l: int,
    samples: int | None = None,
    seed: int = 0,
    exhaustive: bool = False,
    threads: int = 1,
) -> ScanResult:
    """Histogram of z_count over b, exhaustive (no ``samples``, seed 0) or
    seeded-random (``samples`` >= 1 draws from PCG64(seed)).

    Degenerate fibers (P_b = 0) land in the -1 bucket and never define the
    generic value.  All b go to ``z_fiber_count`` as one (B, 2l) array, so
    reports come in b order.  ``threads`` has no effect (the batch replaced
    the thread pool, which the GIL made slower than one thread); it must be
    at least 1.
    """
    if threads < 1:
        raise PreconditionError(f"threads must be >= 1, got {threads}")
    if l < 1:
        raise PreconditionError(f"need l >= 1, got {l}")
    q, n = field.q, 2 * l
    if exhaustive:
        if samples is not None:
            raise PreconditionError(f"an exhaustive scan takes no samples, got samples={samples}")
        if seed:
            raise PreconditionError(f"an exhaustive scan takes no seed, got seed={seed}")
        # the q^(2l) x 2l b array and one report per b (220-275 bytes per b
        # measured at l = 1, 2), beside the resolvent's largest chunk
        rows = min(q**n, _chunk_rows(k, l))
        check_bytes(400 * q**n + _resolvent_bytes(k, l, rows), "exhaustive stratum scan",
                    q=q, l=l)
        bs = np.indices((q,) * n, dtype=np.int64).reshape(n, -1).T
    else:
        if not samples or samples < 1:
            raise PreconditionError(f"random scan needs samples >= 1, got samples={samples}")
        rng = np.random.Generator(np.random.PCG64(seed))
        bs = rng.integers(0, q, size=(samples, n), dtype=np.int64)
    reports = z_fiber_count(field, k, bs)
    hist: dict[int, int] = {}
    for rep in reports:
        hist[rep.z_count] = hist.get(rep.z_count, 0) + 1
    generic = max((z for z in hist if z >= 0), default=-1)
    for rep in reports:
        if rep.z_count >= 0:
            rep.generic = rep.z_count == generic
    return ScanResult(histogram=hist, generic=generic, reports=reports)


def generic_z_value(field: PrimeField, k: int, l: int, seed: int) -> int:
    """The generic |Z_b| for (q, k, l): the maximum z over a seeded
    200-sample scan.

    The first 20 of those draws are scanned first: their maximum is the
    answer when it reaches ``generic_z_bound``, which no z exceeds (each
    report checks it), since a seeded draw of 20 b is the head of the draw
    of 200.  Only otherwise are all 200 scanned.
    """
    head = stratum_scan(field, k, l, samples=20, seed=seed).generic
    if head == generic_z_bound(k, l):
        return head
    return stratum_scan(field, k, l, samples=200, seed=seed).generic


def diagonal_box_count(B: int, l: int) -> int:
    """|V_diag ∩ [B,2B)^{2l}| exactly: tuples whose equality pattern has all
    blocks of size >= 2, summed as S(2l, m) B(B-1)...(B-m+1) over the block
    count m.  S(n, m), the partitions of n items into m blocks of size >= 2,
    follows S(n, m) = m S(n-1, m) + (n-1) S(n-2, m-1) from S(0, 0) = 1: item
    n lies in a block of 3 or more, which it leaves a partition of the rest,
    or in a pair with one of the other n-1 items."""
    n = 2 * l
    S = [[0] * (l + 1) for _ in range(n + 1)]
    S[0][0] = 1
    for j in range(2, n + 1):
        for m in range(1, l + 1):
            S[j][m] = m * S[j - 1][m] + (j - 1) * S[j - 2][m - 1]
    return sum(S[n][m] * math.perm(B, m) for m in range(l + 1))


def box_count_variety(field: PrimeField, B: int, l: int) -> int:
    """Exact count of the points of [B, 2B)^{2l} (integer coordinates,
    reduced mod q) on the diagonal variety, by ``diagonal_box_count``."""
    if l < 1:
        raise PreconditionError(f"box count needs l >= 1, got l={l}")
    if not 0 <= B < field.q / 2:
        raise PreconditionError(
            f"need 0 <= B < q/2 so the box injects into F_q, got B={B} at q={field.q}"
        )
    return diagonal_box_count(B, l)
