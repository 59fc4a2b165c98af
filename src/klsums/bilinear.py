"""Bilinear forms with Kloosterman coefficients, bound formulas, the
shift-reduction diagnostic harness, the Gauss-sum / Kl_3 moment identity,
and averaged comparisons over constrained b-families.

The moment identity is implemented in the exact form the direct two-sided
oracle validates at prime modulus: with the sum running over ALL even
characters (the trivial one included) and normalized by their number
(q-1)/2,

    (2/(q-1)) * sum over even chi of eps_chi^2 eps_{chi xi} conj(chi)(n)
        = ( Kl_3(n; (1,1,xi), q) + Kl_3(-n; (1,1,xi), q) ) / sqrt(q),

for xi even and n != 0.  This holds to machine precision; restricting to
primitive (nontrivial) characters or dropping the 1/2 breaks exactness.
eps of the trivial character is tau(1)/sqrt(q) = -1/sqrt(q).

The power-sum comparison over b in (F_q^x)^n (sum b_i = 0 when m = 1) is
lhs = (q-1)/q^m sum_{u,t} D(u, t)^n against rhs = (q-1)/q^m sum_u D(u, 1)^n,
D(u, t) = sum_{b != 0} psi(u b) K(b) conj K(b t) with u over F_q (m = 1) or
u = 0 (m = 0): for each u one correlation in log coordinates through
``field.log_dft``, O(q log q) per u, O(q) bytes, and no b enumerated.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field as dc_field

import numpy as np

from .chartuples import CharTuple
from .errors import InternalConsistencyError, PreconditionError, check_bytes
from .field import MultChar, PrimeField, additive_char_vector, gauss_sum, log_dft
from .kloosterman import KlTable, kl_table_naive
from .sums import BLOCK_ENTRIES, _sweep, kr_matrix, sigma_II
from .strata import generic_z_value, is_diagonal, z_fiber_count

# Entries (keys times shifts b) per majorant block of shift_reduction_trace:
# its int64 and complex temporaries stay near 1 MB whatever the key count.
MAJORANT_ENTRIES = 2**14


@dataclass
class CoeffSeq:
    """Complex coefficient sequence on a support of integer indices."""

    support: np.ndarray
    values: np.ndarray
    l1: float = dc_field(init=False)
    l2: float = dc_field(init=False)

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.support.shape != self.values.shape or self.support.ndim != 1:
            raise PreconditionError(f"support and values must be flat arrays of equal length, "
                                    f"got shapes {self.support.shape} and {self.values.shape}")
        seen = Counter(self.support.tolist())
        if len(seen) != len(self.support):
            dup = min(i for i, c in seen.items() if c > 1)
            raise PreconditionError(f"support indices must be distinct, got index {dup} "
                                    f"{seen[dup]} times")
        absv = np.abs(self.values)
        self.l1 = float(np.sum(absv))
        self.l2 = float(math.sqrt(np.sum(absv**2)))

    @classmethod
    def ones(cls, n: int) -> "CoeffSeq":
        """Unit coefficients on 1..n, empty for n < 1."""
        support = np.arange(1, n + 1)
        return cls(support, np.ones(len(support)))

    @property
    def m_plus(self) -> int:
        return int(self.support.max())


def _check_support(q: int, **seqs: CoeffSeq) -> None:
    """Each sequence is nonempty and every coefficient index lies in [1, q-1],
    as the sums over m and n assume."""
    for name, seq in seqs.items():
        if len(seq.support) == 0:
            raise PreconditionError(f"coefficient sequence {name} is empty")
        if seq.support.min() < 1 or seq.support.max() > q - 1:
            raise PreconditionError(f"coefficient support must lie within [1, q-1] at q={q}: "
                                    f"{name} has indices {seq.support.min()}..{seq.support.max()}")


def bilinear_form(table: KlTable, alpha: CoeffSeq, beta: CoeffSeq) -> complex:
    """B(K, alpha, beta) = sum_{m,n} alpha_m beta_n K(m n mod q), over blocks
    of BLOCK_ENTRIES // N rows m (at least one): each block's
    alpha_blk K[blk] beta is one partial, and math.fsum adds them."""
    q = table.field.q
    _check_support(q, alpha=alpha, beta=beta)
    M, N = len(alpha.support), len(beta.support)
    rows = min(M, max(1, BLOCK_ENTRIES // N))
    blocks = -(-M // rows)
    # one block's int64 index and complex128 gather, the row alpha_blk K[blk],
    # 16 bytes per block partial and 16 KiB for the small arrays
    check_bytes((24 * rows + 16) * N + 16 * blocks + 2**14, "bilinear form", q=q, M=M, N=N)
    parts = np.empty(blocks, dtype=np.complex128)
    for j, a in enumerate(range(0, M, rows)):
        idx = alpha.support[a:a + rows, None] * beta.support % q
        parts[j] = alpha.values[a:a + rows] @ table.values[idx] @ beta.values
    return complex(math.fsum(parts.real), math.fsum(parts.imag))


@dataclass
class BoundReport:
    kind: str  # "I" or "II"
    q: int
    M: int
    N: int
    l: int
    trivial_bound: float
    theorem_bound: float
    cond_interval: bool  # first displayed range condition
    cond_mplus: bool | None  # M^+ variant; None when M^+ was not supplied
    computed: float | None = None

    @property
    def in_range(self) -> bool:
        return self.cond_interval or bool(self.cond_mplus)

    @property
    def ratio_trivial(self) -> float | None:
        return None if self.computed is None else self.computed / self.trivial_bound

    @property
    def ratio_theorem(self) -> float | None:
        return None if self.computed is None else self.computed / self.theorem_bound


def theorem_bounds(
    q: int,
    M: int,
    N: int,
    l: int,
    *,
    k: int,
    alpha_l1: float,
    alpha_l2: float,
    beta_l2: float,
    m_plus: int | None = None,
    kind: str = "II",
) -> BoundReport:
    """Evaluate the type-I / type-II bound formulas and their range flags.

    The q^eps factor is set to 1; constants are reported, never asserted.
    The trivial bound is the universal envelope k * ||alpha||_2 ||beta||_2
    (MN)^{1/2}.

    The type-II interval q^(1.5/l) <= N < 0.5 q^(0.5 - 0.75/l) needs
    q^(2.25/l - 0.5) < 0.5, so it is empty for every l <= 4 and every q.
    Its M^+ variant needs q^(1.5/l) <= N <= N M^+ < 0.5 q^(1 - 1.5/l), i.e.
    q^(3/l - 1) < 0.5, which no q satisfies for l <= 3.  So ``in_range`` is
    false for every type-II input at l <= 3.
    """
    if min(q, M, N, l) < 1:
        raise PreconditionError(f"q, M, N, l must be positive, got q={q}, M={M}, N={N}, l={l}")
    trivial = k * alpha_l2 * beta_l2 * math.sqrt(M * N)
    if kind == "II":
        if l < 2:
            raise PreconditionError(f"type II needs l >= 2, got l={l}")
        theorem = (
            alpha_l2
            * beta_l2
            * math.sqrt(M * N)
            * math.sqrt(1.0 / M + (q ** (0.75 + 0.75 / l) / (M * N)) ** (1.0 / l))
        )
        cond_interval = q ** (1.5 / l) <= N < 0.5 * q ** (0.5 - 0.75 / l)
        cond_mplus = (
            None
            if m_plus is None
            else (q ** (1.5 / l) <= N and N * m_plus < 0.5 * q ** (1 - 1.5 / l))
        )
    elif kind == "I":
        theorem = (
            alpha_l1 ** (1 - 1.0 / l)
            * alpha_l2 ** (1.0 / l)
            * M ** (1.0 / (2 * l))
            * N
            * (q ** (1 + 1.0 / l) / (M * N**2)) ** (1.0 / (2 * l))
        )
        cond_interval = q ** (1.0 / l) <= N <= 0.5 * q ** (0.5 + 0.5 / l)
        cond_mplus = (
            None
            if m_plus is None
            else (q ** (1.0 / l) <= N and N * m_plus <= 0.5 * q ** (1 + 0.5 / l))
        )
    else:
        raise PreconditionError(f"kind must be 'I' or 'II', got {kind!r}")
    return BoundReport(
        kind=kind,
        q=q,
        M=M,
        N=N,
        l=l,
        trivial_bound=trivial,
        theorem_bound=theorem,
        cond_interval=bool(cond_interval),
        cond_mplus=cond_mplus,
    )


# ---------------------------------------------------------------------------
# shift-reduction diagnostic harness


@dataclass
class ShiftTrace:
    """Record of one +ab-shift reduction trace (a validation harness, not a prover)."""

    q: int
    A: int
    B: int
    N: int
    l: int
    s_neq: complex
    nu_sum: float
    nu_sum_identity: float  # A * N * (||alpha||_1^2 - sum |alpha_m|^2), must equal nu_sum
    nu_first_bound_l1: float  # A N ||alpha||_1^2
    nu_first_bound_l2: float  # A M N ||alpha||_2^2
    nu_sum_sq: float
    nu_second_ratio: float  # nu_sum_sq / (A N ||alpha||_2^4)
    majorant: float  # (1/AB) sum nu * |sum_{b~B} K(s1(r+b)) conj(K(s2(r+b)))|
    box_sum: float | None = None  # sum over b in [B,2B)^{2l} of |Sigma_II|
    box_shape: float | None = None  # q^3 n_diag + q^2 n_subgeneric + q^{3/2} B^{2l}
    box_ratio: float | None = None
    n_diag_box: int | None = None
    n_subgeneric_box: int | None = None
    generic_z: int | None = None


def shift_reduction_trace(
    table: KlTable,
    alpha: CoeffSeq,
    N: int,
    A: int,
    B: int,
    l: int,
    box_sum: bool = False,
    seed: int = 0,
) -> ShiftTrace:
    """Trace the +ab-shift reduction: S^{!=}, the nu-weight moments with their
    bound checks, and (optionally) the Hoelder-chain box sum of |Sigma_II|
    compared against the three-strata bound shape with empirical counts.

    All on arrays: S^{!=} in difference form, sum_n |sum_m alpha_m K(mn)|^2 -
    sum_m |alpha_m|^2 sum_n |K(mn)|^2 (imaginary part exactly 0); the keys
    (n/a, a m1, a m2) mod q over a, n and pairs m1 != m2, grouped by one stable
    lexsort so each nu is a bincount in loop order; the majorant over blocks
    of MAJORANT_ENTRIES (key, b) entries.  Counts 24 bytes per M N gather
    entry, 104 per key and 64 per block entry before it allocates.
    """
    q = table.field.q
    _check_support(q, alpha=alpha)
    got = f"got A={A}, B={B}, N={N}, M^+={alpha.m_plus}, q={q}"
    if A < 1 or B < 1 or A * B > N:
        raise PreconditionError(f"need A, B >= 1 and A*B <= N, {got}")
    if not (2 * A * N < q or 2 * A * alpha.m_plus < q):
        raise PreconditionError(f"need 2AN < q or 2AM^+ < q for the injectivity step, {got}")
    if N > q - 1:
        raise PreconditionError(f"need N <= q - 1, {got}")
    M = len(alpha.support)
    check_bytes(24 * M * N + 104 * A * N * M * (M - 1) + 64 * max(B, MAJORANT_ENTRIES),
                "shift-reduction trace", q=q, M=M, N=N, A=A, B=B)

    ns = np.arange(1, N + 1, dtype=np.int64)
    w = table.values[(alpha.support[:, None] * ns[None, :]) % q]
    absa = np.abs(alpha.values)
    wv = w.view(np.float64)  # |K(mn)|^2 summed over n without a temporary
    s_neq = complex(np.sum(np.abs(alpha.values @ w) ** 2) - absa**2 @ np.einsum("mn,mn->m", wv, wv))

    a = np.arange(A, 2 * A, dtype=np.int64)
    i1, i2 = np.nonzero(~np.eye(M, dtype=bool))
    s = a[:, None] * alpha.support % q
    r = ns * np.array([pow(int(x), -1, q) for x in a], dtype=np.int64)[:, None] % q
    keys = np.stack(np.broadcast_arrays(r[:, :, None], s[:, None, i1], s[:, None, i2])).reshape(3, -1)
    order = np.lexsort(keys[::-1])
    keys = keys[:, order]
    first = np.diff(keys, axis=1, prepend=-1).any(axis=0)
    weights = np.broadcast_to(absa[i1] * absa[i2], (A, N, len(i1))).ravel()
    nu = np.bincount(np.cumsum(first) - 1, weights=weights[order])
    r, s1, s2 = keys[:, first]
    nu_sum_sq = math.fsum(nu * nu)

    rows = max(1, MAJORANT_ENTRIES // B)
    major = np.empty(len(nu))
    for lo in range(0, len(nu), rows):
        x = (r[lo:lo + rows, None] + np.arange(B, 2 * B)) % q
        t = table.values[s1[lo:lo + rows, None] * x % q]
        t *= np.conj(table.values[s2[lo:lo + rows, None] * x % q])
        major[lo:lo + rows] = nu[lo:lo + rows] * np.abs(t.sum(axis=1))
    majorant = math.fsum(major) / (A * B)

    trace = ShiftTrace(
        q=q,
        A=A,
        B=B,
        N=N,
        l=l,
        s_neq=s_neq,
        nu_sum=math.fsum(nu),
        nu_sum_identity=A * N * (alpha.l1**2 - float(np.sum(absa**2))),
        nu_first_bound_l1=A * N * alpha.l1**2,
        nu_first_bound_l2=A * M * N * alpha.l2**2,
        nu_sum_sq=nu_sum_sq,
        nu_second_ratio=nu_sum_sq / (A * N * alpha.l2**4),
        majorant=majorant,
    )
    if box_sum:
        _attach_box_sum(trace, table, l, seed)
    return trace


def _attach_box_sum(trace: ShiftTrace, table: KlTable, l: int, seed: int) -> None:
    q, B, k = table.field.q, trace.B, table.k
    try:
        generic = generic_z_value(table.field, k, l, seed)
    except PreconditionError:  # outside the strata's rule for (k, l, q): no strata counts
        generic = None
    box = np.array(list(itertools.product(range(B, 2 * B), repeat=2 * l)), dtype=np.int64)
    diag = np.array([is_diagonal(b) for b in box], dtype=bool)
    n_diag = int(diag.sum())
    n_sub = 0
    if generic is not None:  # degenerate b report z = -1, which counts as subgeneric
        n_sub = sum(rep.z_count < generic for rep in z_fiber_count(table.field, k, box[~diag]))
    trace.box_sum = math.fsum(abs(sigma_II(table, b).sigma_II) for b in box)
    trace.n_diag_box = n_diag
    trace.n_subgeneric_box = None if generic is None else n_sub
    trace.generic_z = generic
    trace.box_shape = q**3 * n_diag + q**1.5 * B ** (2 * l) + q**2 * n_sub
    trace.box_ratio = trace.box_sum / trace.box_shape


# ---------------------------------------------------------------------------
# moment identity


def kl3_direct(field: PrimeField, xi: MultChar, x) -> complex | np.ndarray:
    """Kl_3(x; (1,1,xi), q) at an int x or at each of a sequence of x, all
    read from one naive table, the package's one direct evaluation (no
    transforms), with xi on the third factor."""
    return kl_table_naive(field, CharTuple(field, (0, 0, xi.a))).values[np.asarray(x) % field.q]


def moment_identity_check(field: PrimeField, xi: MultChar, n: int) -> tuple[complex, complex, float]:
    """Both sides of the even-character Gauss-sum / Kl_3 moment identity.

    lhs averages eps_chi^2 eps_{chi xi} conj(chi)(n) over all even chi
    (trivial included), reading every tau(chi_a) = G[-a] from the field's
    Gauss spectrum G in one vectorised pass; rhs is (Kl_3(n) + Kl_3(-n))/sqrt(q)
    for the tuple (1, 1, xi), read from the naive table.  Returns
    (lhs, rhs, |lhs - rhs|).

    Raises InternalConsistencyError if G disagrees with the direct
    ``gauss_sum`` at index 1 or at xi beyond 1e-9 * sqrt(q): that pins the
    index convention G[j] = tau(chi_{-j}) the lhs relies on.
    """
    q = field.q
    if not xi.is_even:
        raise PreconditionError(
            f"the moment identity is derived for even xi only, got xi={xi.a} at q={q}"
        )
    if n % q == 0:
        raise PreconditionError(f"n must be nonzero mod q, got n={n} at q={q}")
    n %= q
    sq = math.sqrt(q)
    N = q - 1
    spec = field.gauss_spectrum
    for j in {1, xi.a}:
        tau = gauss_sum(MultChar(field, -j))
        if not abs(spec[j] - tau) <= 1e-9 * sq:
            raise InternalConsistencyError(
                f"Gauss spectrum at q={q}, index {j}: {complex(spec[j])!r} != "
                f"tau(chi_{-j % N}) = {tau!r}"
            )
    a = np.arange(0, N, 2, dtype=np.int64)  # even characters are exactly the even indices
    eps_chi = spec[-a % N] / sq
    eps_chixi = spec[-(a + xi.a) % N] / sq
    conj_chi_n = np.exp(-2j * np.pi * (a * int(field.dlog[n]) % N) / N)
    terms = eps_chi**2 * eps_chixi * conj_chi_n
    lhs = complex(math.fsum(terms.real), math.fsum(terms.imag)) * 2 / N
    kn, kmn = kl3_direct(field, xi, (n, q - n))
    rhs = complex(kn + kmn) / sq
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# averaged comparisons


@dataclass
class ComparisonReport:
    family: str
    q: int
    count: int  # number of b-tuples in the family
    lhs: float
    rhs: float
    gap: float
    normalized_gap: float
    normalizer_exponent: float  # gap is divided by q**normalizer_exponent (times count for samples)
    lhs_imag: float = 0.0  # |Im lhs|, |Im rhs|: rounding residues of the power-sum's
    rhs_imag: float = 0.0  # sums over u and t, 0 for the full sample


def averaged_comparison_power_sum(table: KlTable, n: int, m: int) -> ComparisonReport:
    """Power-sum family comparison: b in (F_q^x)^n with sum b_i^t = 0 for t <= m.

    lhs = sum_b |sum_s prod_i K(b_i s)|^2,  rhs with |.|^2 inside the s-sum;
    the gap is normalized by q^{n-m+1/2}; m is 0 or 1.  No b is enumerated:
    expand |.|^2 over (s1, s2), write sum b_i = 0 as (1/q) sum_u prod_i
    psi(u b_i), put t = s2/s1 and b_i -> b_i/s1: each b_i sums alone to the
    D(u, t) of the module docstring.  With b = g^beta, t = g^tau and
    L[beta] = K(g^beta), D(u, g^tau) = sum_beta w_u[beta] conj L[beta + tau]
    for w_u[beta] = psi(u g^beta) L[beta], so D_u is the inverse log_dft of
    S = (q - 1) log_dft(conj L) times the inverse log_dft of w_u; tau = 0 is
    t = 1.  The rows are u = 0 (w = L) and, at m = 1, u = g^mu, with
    psi(g^(mu + beta)) the window at mu of the doubled psi in log order.
    math.fsum adds the rows' sum_tau D_u^n into lhs and D_u[0]^n into rhs.
    ``values`` serves every table kind: K = c kappa with |c| = 1 has
    K(b) conj K(bt) = kappa(b) kappa(bt).  Counts six length-q vectors (L,
    S, a row, its transforms and product), the doubled psi and 2 q^m partials.

    Rounding: |D| <= (q-1) k^2; an FFT correlation puts a D entry off by
    about eps log(q) ||w|| ||L|| <= eps log(q) (q-1) k^2, its n-th power by
    n |D|^(n-1) times that; lhs ~ q^(n-m+1) E|K|^(2n) adds q^(m+1) powers, so
    relative error <= n eps k^(2n) q^(m+1) log(q), and tests gate at 1e-12.
    n is refused once q^2 ((q-1) k^2)^n leaves float64.
    """
    f, q, k = table.field, table.field.q, table.k
    if n < 1 or m not in (0, 1):
        raise PreconditionError(f"power-sum needs n >= 1 and m in {{0, 1}}, got n={n}, m={m}")
    if n * math.log((q - 1) * k * k) + 2 * math.log(q) >= math.log(np.finfo(np.float64).max):
        raise PreconditionError(f"power-sum sums leave float64 at q={q}, k={k}, n={n}")
    check_bytes(16 * (6 + 2 * m) * q + 32 * q**m + 2**14, "power-sum comparison", q=q, n=n, m=m)
    lv = table.values[f.exp]  # L
    spec = log_dft(f, np.conj(lv)) * (q - 1)
    psi = np.tile(additive_char_vector(f)[f.exp], 2 * m)  # empty at m = 0
    rows = itertools.chain((psi[mu:mu + q - 1] * lv for mu in range(m * (q - 1))), [lv])
    part = np.empty((2, 1 + m * (q - 1)), dtype=np.complex128)
    for i, w in enumerate(rows):
        d = log_dft(f, log_dft(f, w, inverse=True) * spec, inverse=True)
        np.power(d, n, out=d)  # d[tau] = D(u, g^tau)^n
        part[:, i] = d.sum(), d[0]
    lhs, rhs = (complex(math.fsum(z.real), math.fsum(z.imag)) * (q - 1) / q**m for z in part)
    gap, expo = abs(lhs.real - rhs.real), n - m + 0.5
    count = (q - 1) ** n if m == 0 else ((q - 1) ** n + (-1) ** n * (q - 1)) // q
    return ComparisonReport(family=f"power-sum(n={n},m={m})", q=q, count=count, lhs=lhs.real,
                            rhs=rhs.real, gap=gap, normalized_gap=gap / q**expo,
                            normalizer_exponent=expo, lhs_imag=abs(lhs.imag),
                            rhs_imag=abs(rhs.imag))


def averaged_comparison_full_sample(
    table: KlTable, l: int, count: int, seed: int = 0
) -> ComparisonReport:
    """Sampled form of the stratum-level comparison, r restricted to F_q^x:

    lhs = sum_b sum_{r != 0} |sum_s bfK(sr, sb)|^2, rhs with |.|^2 inside.
    The per-b error density of the underlying estimate is O(q^{3/2}), so the
    gap is normalized by count * q^{3/2}.  Each b is one ``rng.integers``
    call, swept before the next is drawn; rhs subtracts the sum over row
    r = 0 of N, read by ``kr_matrix``, from each b's total.
    """
    q = table.field.q
    if count < 0:
        raise PreconditionError(f"count must be >= 0, got count={count}")
    if l < 1:
        raise PreconditionError(f"need l >= 1, got l={l}")
    rng = np.random.Generator(np.random.PCG64(seed))
    lhs_terms: list[float] = []
    rhs_terms: list[float] = []
    for _ in range(count):
        b = rng.integers(0, q, size=2 * l, dtype=np.int64)
        r_vec, k2 = _sweep(table, b)
        first_row = kr_matrix(table, b, 0, 1)[0]
        lhs_terms.append(float(np.vdot(r_vec[1:], r_vec[1:]).real))  # drop r = 0
        rhs_terms.append(k2 - np.vdot(first_row, first_row).real)
    lhs = math.fsum(lhs_terms)
    rhs = math.fsum(rhs_terms)
    gap = abs(lhs - rhs)
    return ComparisonReport(
        family=f"full-sample(l={l},count={count},seed={seed})",
        q=q,
        count=count,
        lhs=lhs,
        rhs=rhs,
        gap=gap,
        normalized_gap=gap / (count * q**1.5) if count else 0.0,
        normalizer_exponent=1.5,
    )

