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
x-exponents 0 mod k survives.  The operation computes M over the k^{2l-1}
representatives, asserts this collapse, and returns M^k as a polynomial
in r.

The full singular set adds the hyperplanes r = -b_i:

    F_b(r) = P_b(r) * prod_i (r + b_i),

and the geometric fiber count z(b) = |Z_b| is the number of distinct roots
of F_b over the algebraic closure, obtained as deg of the squarefree part
F/gcd(F, F') (valid because q > deg F is a precondition).  Strata are the
loci {b : z(b) <= j}; "generic" b are those attaining the maximum observed
z, and b with subgeneric z serve as the empirical proxy for the
low-dimensional exceptional locus (a superset of it, restricted to rational
points, since the strata are closed).

Since each x_i has r-degree 1/k, deg M <= k^{2l-2}.  As r -> infinity, each
representative whose leading coefficient sum_{i<=l} zeta_i - sum_{i>l} zeta_i
vanishes loses a full power of r.  Writing V(k,l) for their number,

    z(b) <= 2l + k^{2l-2} - V(k,l),

which is 5, 8, 12 for (k,l) = (2,2), (3,2), (2,3) (V = 3, 5, 10) and 2 for
l = 1.  Seeded scans at q = 499 attain it for over 90% of b, so it is the
generic value there (observed, not proved).  The squarefree reduction makes
z(b) insensitive to the k-th power multiplicity.

The resolvent product and the exhaustive scan count their bytes against
the package's byte budget (``errors.MAX_BYTES``) before they allocate: the
first grows as k^(4l), the second as q^(2l).
"""

from __future__ import annotations

import itertools
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
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


def is_diagonal(b) -> bool:
    """b lies on the diagonal variety: every coordinate value repeats."""
    counts = Counter(int(x) for x in b)
    return all(c >= 2 for c in counts.values())


def _check_preconditions(field: PrimeField, k: int, b) -> tuple[np.ndarray, int]:
    b, l = check_b(field, b)
    if k < 2:
        raise PreconditionError("need k >= 2")
    if (field.q - 1) % k != 0:
        raise PreconditionError(f"q = {field.q} is not 1 mod k = {k}: mu_k not in F_q")
    # 3x the int64 gather state[src] (2l x k^(2l) rows by up to k^(2l-2) + 1
    # r-degrees): the measured peak is 1.6-2.4x the gather for k^(2l) >= 81
    n = 2 * l
    check_bytes(3 * 8 * n * k**n * (k ** (n - 2) + 1), "resolvent", q=field.q, k=k, l=l)
    if field.q <= 2 * l + k ** (2 * l - 1):
        raise PreconditionError(
            f"q = {field.q} <= 2l + k^(2l-1) = {2 * l + k ** (2 * l - 1)}: "
            "no separability headroom"
        )
    return b, l


def _row_maps(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row maps of the reduced state, whose rows are the exponent tuples
    e in [0, k)^n in C order.

    Multiplying by x_i sends row e to e + u_i (mod k); src[i, f] is the row
    that lands on f, and wrap[i, f] marks f_i = 0, where the exponent wrapped
    and x_i^k -> (r + b_i) picks up a factor.
    """
    digits = np.indices((k,) * n).reshape(n, -1)
    stride = (k ** np.arange(n - 1, -1, -1, dtype=np.int64))[:, None]
    wrap = digits == 0
    src = np.arange(k**n, dtype=np.int64) - stride + k * stride * wrap
    return src, wrap


def singular_polynomial(field: PrimeField, k: int, b) -> np.ndarray:
    """P_b as coefficients over F_q (ascending degree; empty array if P_b = 0).

    Computes M over the k^(2l-1) forms with zeta_1 = 1 and returns M^k.
    Each form costs one gather of the (k^(2l), D) state: the term for x_i
    is c_i * state[src_i], times 1 or, on a wrapped row, (b_i + r).  Every
    product of two residues is reduced mod q before it is summed, so int64
    stays exact for every q < 2^31.  After each form the r-degree axis is
    trimmed to the current degree.
    """
    b, l = _check_preconditions(field, k, b)
    q = field.q
    zeta = pow(field.g, (q - 1) // k, q)
    zpow = [pow(zeta, t, q) for t in range(k)]
    n = 2 * l
    src, wrap = _row_maps(k, n)
    wrap_b = np.where(wrap, b[:, None], 1)
    sign = np.where(np.arange(n) < l, 1, -1)
    forms = np.array([(0, *ts) for ts in itertools.product(range(k), repeat=n - 1)])
    coeffs = sign * np.array(zpow, dtype=np.int64)[forms] % q
    state = np.zeros((k**n, 1), dtype=np.int64)
    state[0, 0] = 1
    for c in coeffs[:, :, None]:
        g = state[src]
        out = np.zeros((k**n, state.shape[1] + 1), dtype=np.int64)
        out[:, :-1] = ((c * wrap_b % q)[..., None] * g % q).sum(axis=0)
        out[:, 1:] += ((c * wrap)[..., None] * g % q).sum(axis=0)
        out %= q
        while out.shape[1] > 1 and not out[:, -1].any():
            out = out[:, :-1]
        state = out
    m = polyfq.trim(state[0])
    if state[1:].any():
        raise InternalConsistencyError(
            "residual x-dependence after reduction: Galois cancellation failed"
        )
    p = m
    for _ in range(k - 1):
        p = polyfq.mul(p, m, q)
    return p


@dataclass
class StratumReport:
    b: tuple[int, ...]
    on_diagonal: bool
    deg_P: int  # -1 when P_b = 0
    z_count: int
    generic: bool | None = None  # filled once a scan establishes the generic maximum

    def row(self) -> list:
        return [*self.b, self.deg_P, self.z_count, self.generic]


def z_fiber_count(field: PrimeField, k: int, b) -> StratumReport:
    """Distinct geometric points of Z_b = {P_b = 0} union {r = -b_i}."""
    bt, l = _check_preconditions(field, k, b)
    q = field.q
    p = singular_polynomial(field, k, bt)
    diag = is_diagonal(bt)
    if len(p) == 0:
        raise DegenerateFiberError(
            f"P_b vanishes identically at b = {tuple(int(x) for x in bt)}"
            + (" (b is diagonal)" if diag else "")
        )
    hyper = np.ones(1, dtype=np.int64)
    for bi in bt:
        hyper = polyfq.mul(hyper, np.array([bi % q, 1], dtype=np.int64), q)
    full = polyfq.mul(p, hyper, q)
    sf = polyfq.squarefree_part(full, q)
    z = polyfq.deg(sf)
    n_hyper = len({int(-bi) % q for bi in bt})
    if not n_hyper <= z <= polyfq.deg(p) + 2 * l:
        raise InternalConsistencyError(f"z_count {z} outside [{n_hyper}, {polyfq.deg(p) + 2 * l}]")
    return StratumReport(
        b=tuple(int(x) for x in bt),
        on_diagonal=diag,
        deg_P=polyfq.deg(p),
        z_count=z,
    )


@dataclass
class ScanResult:
    histogram: dict[int, int]  # z_count -> frequency; key -1 collects degenerate fibers
    generic: int  # maximum z_count observed
    reports: list[StratumReport]

    def generic_fraction(self) -> float:
        total = sum(self.histogram.values())
        return self.histogram.get(self.generic, 0) / total if total else 0.0


def _scan_one(field: PrimeField, k: int, b) -> StratumReport:
    try:
        return z_fiber_count(field, k, b)
    except DegenerateFiberError:
        return StratumReport(
            b=tuple(int(x) for x in np.asarray(b) % field.q),
            on_diagonal=is_diagonal(np.asarray(b) % field.q),
            deg_P=-1,
            z_count=-1,
        )


def stratum_scan(
    field: PrimeField,
    k: int,
    l: int,
    samples: int | None = None,
    seed: int = 0,
    exhaustive: bool = False,
    threads: int = 1,
) -> ScanResult:
    """Histogram of z_count over b, exhaustive or seeded-random (PCG64(seed)).

    Degenerate fibers (P_b = 0) land in the -1 bucket and never define the
    generic value.  Results are independent of thread count: the b list is
    fixed up front and reports are merged in list order.
    """
    q = field.q
    if exhaustive:
        # each of the q^(2l) b holds an int64 array and a report: 314-346 bytes
        # per b measured at l = 1, 2
        check_bytes(400 * q ** (2 * l), "exhaustive stratum scan", q=q, l=l)
        bs = [np.array(t, dtype=np.int64) for t in itertools.product(range(q), repeat=2 * l)]
    else:
        if not samples or samples < 1:
            raise PreconditionError("random scan needs samples >= 1")
        rng = np.random.Generator(np.random.PCG64(seed))
        bs = list(rng.integers(0, q, size=(samples, 2 * l), dtype=np.int64))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(lambda b: _scan_one(field, k, b), bs))
    else:
        reports = [_scan_one(field, k, b) for b in bs]
    hist: dict[int, int] = {}
    for rep in reports:
        hist[rep.z_count] = hist.get(rep.z_count, 0) + 1
    generic = max((z for z in hist if z >= 0), default=-1)
    for rep in reports:
        if rep.z_count >= 0:
            rep.generic = rep.z_count == generic
    return ScanResult(histogram=hist, generic=generic, reports=reports)


def generic_z_value(field: PrimeField, k: int, l: int, seed: int, samples: int = 200) -> int:
    """The generic |Z_b| for (q, k, l): the maximum z over a seeded scan."""
    return stratum_scan(field, k, l, samples=samples, seed=seed).generic


def _partitions_min_block2(items: tuple[int, ...]):
    """Set partitions of items with every block of size >= 2."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for rsize in range(1, len(rest) + 1):
        for mates in itertools.combinations(rest, rsize):
            block = (first, *mates)
            remaining = tuple(x for x in rest if x not in mates)
            for sub in _partitions_min_block2(remaining):
                yield [block, *sub]


def diagonal_box_count(B: int, l: int) -> int:
    """|V_diag ∩ [B,2B)^{2l}| exactly: tuples whose equality pattern has all
    blocks of size >= 2, counted by summing falling factorials over patterns."""
    n = 2 * l
    total = 0
    for part in _partitions_min_block2(tuple(range(n))):
        m = len(part)
        ways = 1
        for j in range(m):
            ways *= B - j
        if ways > 0:
            total += ways
    return total


def box_count_variety(field: PrimeField, predicate: str, B: int, l: int) -> int:
    """Exact count of points of [B, 2B)^{2l} (integer coordinates, reduced
    mod q) on a variety: predicate "diagonal" (pruned combinatorial count)
    or "empty" (no equations: B^{2l})."""
    if not 0 <= B < field.q / 2:
        raise PreconditionError("need 0 <= B < q/2 so the box injects into F_q")
    if predicate == "diagonal":
        return diagonal_box_count(B, l)
    if predicate == "empty":
        return B ** (2 * l)
    raise PreconditionError(f"predicate must be 'diagonal' or 'empty', got {predicate!r}")
