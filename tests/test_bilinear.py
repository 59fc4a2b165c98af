import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from klsums.bilinear import (
    CoeffSeq,
    ComparisonReport,
    averaged_comparison_full_sample,
    averaged_comparison_power_sum,
    bilinear_form,
    kl3_direct,
    moment_identity_check,
    shift_reduction_trace,
    theorem_bounds,
)
from klsums import sums
from klsums.chartuples import CharTuple
from klsums.errors import InternalConsistencyError, PreconditionError
from klsums.field import MultChar, _split_prime, build_field, gauss_sum
from klsums.kloosterman import kl_table_fast, kl_table_naive
from klsums.serialize import jsonify
from klsums.sums import kr_matrix


def json_sha256(report):
    return hashlib.sha256(json.dumps(jsonify(report), sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def tab101():
    f = build_field(101)
    return kl_table_fast(f, CharTuple(f, (0, 0)))


# --- bilinear form -----------------------------------------------------------


def test_indicator_recovers_K(tab101):
    alpha = beta = CoeffSeq(np.array([1]), np.ones(1))
    assert bilinear_form(tab101, alpha, beta) == pytest.approx(tab101.value(1), abs=1e-12)


def test_envelope(tab101):
    rng = np.random.Generator(np.random.PCG64(1))
    alpha = CoeffSeq(np.arange(1, 16), rng.standard_normal(15) + 1j * rng.standard_normal(15))
    beta = CoeffSeq(np.arange(1, 13), rng.standard_normal(12))
    assert abs(bilinear_form(tab101, alpha, beta)) <= 2 * alpha.l1 * beta.l1 + 1e-9


def test_brute_force_oracle(tab101):
    rng = np.random.Generator(np.random.PCG64(4))
    alpha = CoeffSeq(np.arange(1, 21), rng.standard_normal(20) + 1j * rng.standard_normal(20))
    beta = CoeffSeq(np.arange(1, 21), rng.standard_normal(20))
    want = 0j
    for m, am in zip(alpha.support, alpha.values):
        for n, bn in zip(beta.support, beta.values):
            want += am * bn * tab101.value(int(m) * int(n) % 101)
    assert bilinear_form(tab101, alpha, beta) == pytest.approx(want, abs=1e-9)


def test_row_blocks_match_dense_product():
    # M = N = 1008 runs in 16 blocks of BLOCK_ENTRIES // N = 65 rows, the
    # last one 33; the oracle is the whole M x N product at once
    q = 1009
    f = build_field(q)
    tab = kl_table_fast(f, CharTuple(f, (1, 5)))
    rng = np.random.Generator(np.random.PCG64(3))
    alpha = CoeffSeq(np.arange(1, q), rng.standard_normal(q - 1) + 1j * rng.standard_normal(q - 1))
    beta = CoeffSeq(np.arange(1, q), rng.standard_normal(q - 1))
    want = alpha.values @ tab.values[np.outer(alpha.support, beta.support) % q] @ beta.values
    assert bilinear_form(tab, alpha, beta) == pytest.approx(complex(want), abs=1e-9)


def test_support_bounds(tab101):
    def at(m):
        return CoeffSeq(np.array([m]), np.ones(1))

    with pytest.raises(PreconditionError):
        bilinear_form(tab101, at(0), at(1))
    with pytest.raises(PreconditionError):
        bilinear_form(tab101, at(1), at(101))


def test_support_refusal_names_sequence_and_indices(tab101):
    # the message names the offending sequence and its index range
    with pytest.raises(PreconditionError, match=r"^coefficient support must lie within "
                                                r"\[1, q-1\] at q=101: beta has indices 1\.\.101$"):
        bilinear_form(tab101, CoeffSeq.ones(100), CoeffSeq.ones(101))
    with pytest.raises(PreconditionError, match=r": alpha has indices -3\.\.2$"):
        shift_reduction_trace(tab101, CoeffSeq(np.array([0, -3, 2]), np.ones(3)), N=5, A=1, B=1, l=2)


def test_empty_sequence_refused(tab101):
    empty = CoeffSeq(np.zeros(0, dtype=np.int64), np.zeros(0))
    for alpha, beta, name in ((empty, CoeffSeq.ones(3), "alpha"), (CoeffSeq.ones(3), empty, "beta"),
                              (CoeffSeq.ones(0), CoeffSeq.ones(-3), "alpha")):
        with pytest.raises(PreconditionError, match=f"^coefficient sequence {name} is empty$"):
            bilinear_form(tab101, alpha, beta)
    with pytest.raises(PreconditionError, match="^coefficient sequence alpha is empty$"):
        shift_reduction_trace(tab101, empty, N=5, A=1, B=1, l=2)


def test_coeffseq_refusals_name_their_values():
    with pytest.raises(PreconditionError, match=r"^support and values must be flat arrays of "
                                                r"equal length, got shapes \(3,\) and \(2,\)$"):
        CoeffSeq(np.array([1, 2, 3]), np.ones(2))
    with pytest.raises(PreconditionError, match=r"^support indices must be distinct, "
                                                r"got index 2 3 times$"):
        CoeffSeq(np.array([5, 2, 7, 2, 5, 2]), np.ones(6))


def test_coeffseq_norms():
    c = CoeffSeq(np.array([1, 2, 3]), np.array([3.0, -4.0, 0.0]))
    assert c.l1 == pytest.approx(7.0)
    assert c.l2 == pytest.approx(5.0)
    assert c.m_plus == 3


# --- theorem bound formulas ----------------------------------------------------


def test_trivial_bound_M1N1():
    rep = theorem_bounds(101, 1, 1, 2, k=3, alpha_l1=2.5, alpha_l2=2.5, beta_l2=0.5)
    assert rep.trivial_bound == pytest.approx(3 * 2.5 * 0.5)


def test_range_flags_pinned_cases():
    # hand-evaluated range conditions, type II
    # (1) q=101, l=2, N=10: q^{3/4} = 31.9 > 10: fails the lower cut
    r = theorem_bounds(101, 10, 10, 2, k=2, alpha_l1=1, alpha_l2=1, beta_l2=1, m_plus=10)
    assert not r.cond_interval and not r.cond_mplus and not r.in_range
    # (2) q=10007, l=9, N=16: q^{1/6} = 4.64 <= 16 < 0.5 q^{5/12} = 23.3
    r = theorem_bounds(10007, 50, 16, 9, k=2, alpha_l1=1, alpha_l2=1, beta_l2=1)
    assert 10007 ** (3 / 18) <= 16 < 0.5 * 10007 ** (1 / 2 - 3 / 36)
    assert r.cond_interval
    # (3) q=10007, l=9, N=16, M^+ huge: interval holds, mplus variant fails
    r = theorem_bounds(10007, 50, 16, 9, k=2, alpha_l1=1, alpha_l2=1, beta_l2=1, m_plus=10**6)
    assert r.cond_interval and not r.cond_mplus and r.in_range
    # (4) type I: q=101, l=2, N=12 inside [q^{1/2}, 0.5 q^{3/4}] = [10.05, 15.94]
    r = theorem_bounds(101, 10, 12, 2, k=2, alpha_l1=1, alpha_l2=1, beta_l2=1, kind="I")
    assert r.cond_interval
    # (5) type I: N=30 breaks the interval; M^+ = 5 rescues via N*M^+ <= 0.5 q^{1.25}
    r = theorem_bounds(101, 10, 30, 2, k=2, alpha_l1=1, alpha_l2=1, beta_l2=1, m_plus=5, kind="I")
    assert not r.cond_interval
    assert 30 * 5 <= 0.5 * 101**1.25
    assert r.cond_mplus and r.in_range


@pytest.mark.parametrize("l", [2, 3, 4])
def test_type_II_range_empty_for_small_l(l):
    # the interval q^(1.5/l) <= N < 0.5 q^(0.5 - 0.75/l) needs
    # q^(2.25/l - 0.5) < 0.5, false for l <= 4; its M^+ variant needs
    # q^(3/l - 1) < 0.5, false for l <= 3 (M^+ = 1 is the most lenient)
    for q in (101, 10007, 10**6 + 3, 10**9 + 7, 10**15 + 37):
        lo, hi = q ** (1.5 / l), 0.5 * q ** (0.5 - 0.75 / l)
        assert lo >= hi
        edges = {n for c in (lo, hi) for n in range(max(1, int(c) - 2), int(c) + 3)}
        for N in set(range(1, 2000)) | edges:
            r = theorem_bounds(q, 10, N, l, k=2, alpha_l1=1, alpha_l2=1, beta_l2=1, m_plus=1)
            assert not r.cond_interval
            if l <= 3:
                assert not r.cond_mplus and not r.in_range


def test_type_II_bound_decreasing_in_MN():
    # beyond MN = q^{3/4+3/(4l)} the second term decays; spot-check 3 points
    q, l = 10007, 3
    cut = q ** (0.75 + 0.75 / l)
    vals = []
    for mn in (2 * cut, 4 * cut, 8 * cut):
        m = math.sqrt(mn)
        rep = theorem_bounds(q, int(m), int(mn / int(m)), l, k=2, alpha_l1=1, alpha_l2=1, beta_l2=1)
        # strip the (MN)^{1/2} growth: compare the parenthesized factor
        vals.append(rep.theorem_bound / math.sqrt(int(m) * int(mn / int(m))))
    assert vals[0] > vals[1] > vals[2]


def test_theorem_bounds_validation():
    with pytest.raises(PreconditionError):
        theorem_bounds(101, 0, 1, 2, k=2, alpha_l1=1, alpha_l2=1, beta_l2=1)
    with pytest.raises(PreconditionError, match=r"^type II needs l >= 2, got l=1$"):
        theorem_bounds(101, 1, 1, 1, k=2, alpha_l1=1, alpha_l2=1, beta_l2=1, kind="II")
    with pytest.raises(PreconditionError):
        theorem_bounds(101, 1, 1, 2, k=2, alpha_l1=1, alpha_l2=1, beta_l2=1, kind="X")


# --- shift-reduction trace -----------------------------------------------------


def test_shift_trace_first_moment_identity(tab101):
    alpha = CoeffSeq(np.array([2, 3, 5, 7]), np.array([1.0, -2.0, 0.5, 1.0]))
    tr = shift_reduction_trace(tab101, alpha, N=12, A=2, B=2, l=2)
    assert tr.nu_sum == pytest.approx(tr.nu_sum_identity, rel=1e-12)
    assert tr.nu_sum <= tr.nu_first_bound_l1 + 1e-9
    assert tr.nu_first_bound_l1 <= tr.nu_first_bound_l2 + 1e-9
    assert tr.nu_sum_sq > 0 and tr.majorant >= 0


def test_shift_trace_A1_B1_degenerates_to_unshifted(tab101):
    """With A = B = 1 the (a,b)-average is the literal unshifted sum; check
    against an independent triple loop that actually performs the shift."""
    alpha = CoeffSeq(np.array([1, 2, 4]), np.array([1.0, 1.0, -1.0]))
    N = 9
    tr = shift_reduction_trace(tab101, alpha, N=N, A=1, B=1, l=2)
    want = 0j
    a, b = 1, 1
    for i1, m1 in enumerate(alpha.support):
        for i2, m2 in enumerate(alpha.support):
            if m1 == m2:
                continue
            for n in range(1 - a * b, N + 1 - a * b):  # n + ab runs over [1, N]
                x = int(m1) * (n + a * b) % 101
                y = int(m2) * (n + a * b) % 101
                want += (
                    alpha.values[i1]
                    * np.conj(alpha.values[i2])
                    * tab101.value(x)
                    * np.conj(tab101.value(y))
                )
    assert tr.s_neq == pytest.approx(want, abs=1e-9)


def test_shift_trace_preconditions(tab101):
    alpha = CoeffSeq.ones(5)
    with pytest.raises(PreconditionError,
                       match=r"^need A, B >= 1 and A\*B <= N, got A=3, B=2, N=4, M\^\+=5, q=101$"):
        shift_reduction_trace(tab101, alpha, N=4, A=3, B=2, l=2)  # AB > N
    with pytest.raises(PreconditionError, match=r"^need A, B >= 1 .*, got A=0, B=2, N=4, "):
        shift_reduction_trace(tab101, alpha, N=4, A=0, B=2, l=2)
    with pytest.raises(PreconditionError, match=r"^need 2AN < q or 2AM\^\+ < q for the injectivity step, "
                                                r"got A=30, B=2, N=60, M\^\+=5, q=101$"):
        shift_reduction_trace(tab101, alpha, N=60, A=30, B=2, l=2)  # both 2AN, 2AM^+ >= q
    with pytest.raises(PreconditionError,
                       match=r"^need N <= q - 1, got A=1, B=1, N=101, M\^\+=5, q=101$"):
        shift_reduction_trace(tab101, alpha, N=101, A=1, B=1, l=2)  # 2AM^+ < q admits it


def test_shift_trace_box_sum():
    q = 199
    f = build_field(q)
    tab = kl_table_fast(f, CharTuple(f, (0, 0)))
    alpha = CoeffSeq.ones(4)
    tr = shift_reduction_trace(tab, alpha, N=8, A=2, B=2, l=2, box_sum=True, seed=1)
    assert tr.box_sum is not None and tr.box_sum >= 0
    # [2,4)^4 diagonal tuples: 2 all-equal plus 6 two-pair arrangements
    assert tr.n_diag_box == 8
    assert tr.generic_z == 5
    # harness sanity: the measured box sum sits within the three-strata shape
    assert tr.box_ratio <= 10


def test_shift_trace_box_sum_pinned():
    """The box-sum trace as sorted-key JSON, pinned by sha256; the box sum
    calls sigma_II once per b of the box."""
    f = build_field(199)
    tab = kl_table_fast(f, CharTuple(f, (0, 0)))
    tr = shift_reduction_trace(tab, CoeffSeq.ones(4), N=8, A=2, B=2, l=2, box_sum=True, seed=1)
    assert json_sha256(tr) == "fbf3b876367accffc3dd7ac524faf26cbe325e0ab1fd5ad7c47148d3467203c3"


def literal_shift_trace(table, alpha, N, A, B):
    """The harness as a literal loop: a dict of nu-weights over (a, n, m1, m2)
    with a^{-1} by pow, one majorant term per key, and S^{!=} as the
    off-diagonal double sum accumulated by fsum."""
    q = table.field.q
    K = table.values
    sup = alpha.support.tolist()
    absa = np.abs(alpha.values)
    nu = {}
    for a in range(A, 2 * A):
        a_inv = pow(a, q - 2, q)
        for n in range(1, N + 1):
            for i1, m1 in enumerate(sup):
                for i2, m2 in enumerate(sup):
                    if i1 != i2:
                        key = (n * a_inv % q, a * m1 % q, a * m2 % q)
                        nu[key] = nu.get(key, 0.0) + absa[i1] * absa[i2]
    major = []
    for (r, s1, s2), weight in nu.items():
        inner = sum(K[s1 * (r + b) % q] * np.conj(K[s2 * (r + b) % q]) for b in range(B, 2 * B))
        major.append(weight * abs(inner))
    terms = [
        alpha.values[i1] * np.conj(alpha.values[i2]) * K[m1 * n % q] * np.conj(K[m2 * n % q])
        for i1, m1 in enumerate(sup)
        for i2, m2 in enumerate(sup)
        if i1 != i2
        for n in range(1, N + 1)
    ]
    s_neq = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
    return {
        "nu_sum": math.fsum(nu.values()),
        "nu_sum_sq": math.fsum(v * v for v in nu.values()),
        "majorant": math.fsum(major) / (A * B),
        "s_neq": s_neq,
    }


def shift_cases():
    """Seeded (q, chars, alpha, N, A, B), real and complex alpha, plus the
    colliding-key input."""
    # (2,2,3,6) and (3,3,2,4) in (a, n, m1, m2) both give the key (1, 6, 12)
    yield 101, (0, 0), CoeffSeq(np.array([2, 3, 4, 6]), np.ones(4)), 12, 2, 2
    rng = np.random.Generator(np.random.PCG64(9))
    for i in range(24):
        q = (101, 199, 1009)[i % 3]
        chars = ((0, 0), (3,), (1, 5), (0, 0, 0))[i // 3 % 4]
        M = int(rng.integers(2, 7))
        A = int(rng.integers(1, 4))
        N = int(rng.integers(2, min((q - 1) // (2 * A), 30) + 1))
        B = int(rng.integers(1, N // A + 1))
        support = rng.choice(np.arange(1, min(q, 40)), M, replace=False)
        values = rng.standard_normal(M)
        if i % 2:
            values = values + 1j * rng.standard_normal(M)
        yield q, chars, CoeffSeq(support, values), N, A, B


@pytest.mark.parametrize("case", list(shift_cases()), ids=lambda c: f"q{c[0]}-N{c[3]}-A{c[4]}-B{c[5]}")
def test_shift_trace_matches_literal_loop(case):
    q, chars, alpha, N, A, B = case
    f = build_field(q)
    tab = kl_table_fast(f, CharTuple(f, chars))
    tr = shift_reduction_trace(tab, alpha, N=N, A=A, B=B, l=2)
    want = literal_shift_trace(tab, alpha, N, A, B)
    assert tr.nu_sum == want["nu_sum"]
    assert tr.nu_sum_sq == want["nu_sum_sq"]
    assert tr.majorant == pytest.approx(want["majorant"], rel=1e-12)
    assert tr.s_neq == pytest.approx(want["s_neq"], rel=1e-12)
    assert tr.s_neq.imag == 0.0


def test_shift_trace_s_neq_error_bound():
    """On a cancelling input the difference form meets an absolute bound
    scaled by T = sum_m |alpha_m|^2 sum_n |K(mn)|^2, not a relative one.

    With u = eps/2 and A_n = sum_m |alpha_m||K(mn)| (so sum_n A_n^2 <= M T by
    Cauchy-Schwarz), to first order in u:
    - v = alpha @ w is a complex inner product of length M, off by at most
      sqrt(2)(M+2) u A_n; |v|^2 adds 5u relative (abs, square), so each term
      of the first sum is off by (2 sqrt(2)(M+2) + 5) u A_n^2, and its
      N-term sum of nonnegative terms adds N u sum_n A_n^2;
    - the subtracted sum has 2N + 1 roundings per row (squares and their
      sum), 5 for |alpha_m|^2, one per product and M for the dot: all terms
      nonnegative, (2N + M + 6) u T in all;
    - the final subtraction adds u M T, and the literal loop's reference
      (three complex products per term, then fsum) 10 u M T.
    With 2 sqrt(2) < 3 the total is below (M(3M + N + 23) + 2N + 6) u T,
    which is at most c eps T for c = (M + 2)(3M + N + 23) / 2: 136 here.
    """
    f = build_field(101)
    tab = kl_table_fast(f, CharTuple(f, (3,)))
    alpha = CoeffSeq(np.array([12, 30]), np.ones(2))
    M, N = 2, 39
    tr = shift_reduction_trace(tab, alpha, N=N, A=1, B=1, l=2)
    want = literal_shift_trace(tab, alpha, N, 1, 1)["s_neq"]
    w = tab.values[(alpha.support[:, None] * np.arange(1, N + 1)) % 101]
    T = math.fsum(np.abs(alpha.values) ** 2 * np.sum(np.abs(w) ** 2, axis=1))
    assert abs(tr.s_neq.real + 0.016) < 1e-3 and T == pytest.approx(78.0)  # cancels 1 : 5000
    c = (M + 2) * (3 * M + N + 23) / 2
    assert abs(tr.s_neq - want) <= c * np.finfo(float).eps * T


def test_shift_trace_support_checked_like_bilinear_form(tab101):
    # m = 0 gives K(0) = 0 and -3 = 98 mod 101 breaks 2AM^+ < q: both refused
    # with the message bilinear_form gives
    alpha = CoeffSeq(np.array([0, -3, 2]), np.ones(3))
    with pytest.raises(PreconditionError, match="q=101") as trace_exc:
        shift_reduction_trace(tab101, alpha, N=5, A=1, B=1, l=2)
    with pytest.raises(PreconditionError) as form_exc:
        bilinear_form(tab101, alpha, CoeffSeq.ones(5))
    assert str(trace_exc.value) == str(form_exc.value)
    with pytest.raises(PreconditionError, match="q=101"):
        shift_reduction_trace(tab101, CoeffSeq(np.array([1, 101]), np.ones(2)), N=5, A=1, B=1, l=2)


def test_shift_trace_colliding_keys(tab101):
    # distinct (a, n, m1, m2) share nu keys: the second moment exceeds the
    # first, which it cannot when every weight is 1
    tr = shift_reduction_trace(tab101, CoeffSeq(np.array([2, 3, 4, 6]), np.ones(4)), N=12, A=2, B=2, l=2)
    assert (tr.nu_sum, tr.nu_sum_sq) == (288.0, 304.0)


def test_shift_trace_box_sum_k1_skips_strata():
    # the strata need k >= 2: a k = 1 box sum reports no strata counts
    f = build_field(199)
    tab = kl_table_fast(f, CharTuple(f, (3,)))
    tr = shift_reduction_trace(tab, CoeffSeq.ones(4), N=8, A=2, B=2, l=2, box_sum=True, seed=1)
    assert tr.n_subgeneric_box is None and tr.generic_z is None
    assert tr.n_diag_box == 8
    assert tr.box_shape == 199**3 * 8 + 199**1.5 * 2**4


def test_moment_identity_small_grid():
    for q in (13, 17):
        f = build_field(q)
        for xia in (0, 2, 4):
            xi = MultChar(f, xia)
            if not xi.is_even:
                continue
            for n in (1, 2, 3):
                lhs, rhs, diff = moment_identity_check(f, xi, n)
                assert diff <= 1e-12


def test_moment_identity_lhs_matches_per_character_gauss_sums():
    """The spectrum-read lhs against the definition, one gauss_sum per even
    character, on a small grid."""
    for q in (5, 13, 17, 29):
        f = build_field(q)
        sq = math.sqrt(q)
        for xia in range(0, q - 1, 2):
            for n in (1, 2, q - 1):
                terms = []
                for a in range(0, q - 1, 2):
                    chi = MultChar(f, a)
                    eps = gauss_sum(chi) / sq
                    eps_xi = gauss_sum(MultChar(f, a + xia)) / sq
                    terms.append(eps**2 * eps_xi * np.conj(chi(n)))
                expected = 2 * sum(terms) / (q - 1)
                lhs, _, _ = moment_identity_check(f, MultChar(f, xia), n)
                assert abs(lhs - expected) <= 1e-12, (q, xia, n)


def test_moment_identity_rejects_corrupted_spectrum():
    f = build_field(13)
    spec = f.gauss_spectrum
    # index sign flipped: G[j] = tau(chi_j) instead of tau(chi_{-j})
    f.__dict__["gauss_spectrum"] = spec[-np.arange(12) % 12]
    with pytest.raises(InternalConsistencyError, match="q=13"):
        moment_identity_check(f, MultChar(f, 2), 1)
    g = build_field(13)
    g.__dict__["gauss_spectrum"] = g.gauss_spectrum * (1 + 1e-6)
    with pytest.raises(InternalConsistencyError):
        moment_identity_check(g, MultChar(g, 0), 1)


def test_moment_identity_builds_one_naive_table(monkeypatch):
    """One check reads Kl_3(n) and Kl_3(-n) from a single naive table."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return kl_table_naive(*args, **kwargs)

    monkeypatch.setattr("klsums.bilinear.kl_table_naive", counted)
    f = build_field(101)
    moment_identity_check(f, MultChar(f, 4), 7)
    assert len(calls) == 1


def test_kl3_direct_row_blocks_small_peak():
    """kl3_direct reads the naive table, whose convolutions hold O(q)
    bytes: its tracemalloc peak stays under 1 MiB at q = 1009, a sixteenth
    of one q x q complex array."""
    q = 1009
    f = build_field(q)
    xi = MultChar(f, 4)
    tracemalloc.start()
    try:
        kl3_direct(f, xi, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_moment_identity_plus_minus_symmetry(f13):
    xi = MultChar(f13, 2)
    for n in (1, 5):
        l1, r1, _ = moment_identity_check(f13, xi, n)
        l2, r2, _ = moment_identity_check(f13, xi, 13 - n)
        assert l1 == pytest.approx(l2, abs=1e-12)
        assert r1 == pytest.approx(r2, abs=1e-12)


def test_moment_identity_rejects_odd_xi(f13):
    with pytest.raises(PreconditionError):
        moment_identity_check(f13, MultChar(f13, 1), 1)
    with pytest.raises(PreconditionError):
        moment_identity_check(f13, MultChar(f13, 0), 0)


# --- averaged comparisons -------------------------------------------------------


def test_avg_power_sum_q29():
    f = build_field(29)
    tab = kl_table_fast(f, CharTuple(f, (0, 0)))
    rep = averaged_comparison_power_sum(tab, 4, 1)
    # family size: triples of units whose sum is a unit
    want_count = sum(
        1
        for b1 in range(1, 29)
        for b2 in range(1, 29)
        for b3 in range(1, 29)
        if (b1 + b2 + b3) % 29 != 0
    )
    assert rep.count == want_count
    assert rep.lhs >= 0 and rep.rhs >= 0
    assert rep.lhs_imag <= 1e-6
    assert rep.normalized_gap <= 10


def enumerated_power_sum(table, n, m):
    """averaged_comparison_power_sum by enumerating every b, n gathers each,
    as it computed the report before the closed form (kept verbatim but for
    its q <= 31, n <= 4 caps): the closed form's oracle."""
    q = table.field.q
    s = np.arange(1, q, dtype=np.int64)
    lhs_terms: list[complex] = []
    rhs_terms: list[float] = []
    count = 0
    free = n - m
    for bfree in itertools.product(range(1, q), repeat=free):
        if m == 1:
            last = -sum(bfree) % q
            if last == 0:
                continue
            b = bfree + (last,)
        else:
            b = bfree
        count += 1
        prod = np.ones(q - 1, dtype=np.complex128)
        for bi in b:
            prod = prod * table.values[(bi * s) % q]
        t = complex(np.sum(prod))
        lhs_terms.append(t * np.conj(t))
        rhs_terms.append(float(np.sum(np.abs(prod) ** 2)))
    lhs_c = math.fsum(z.real for z in lhs_terms) + 1j * math.fsum(z.imag for z in lhs_terms)
    rhs = math.fsum(rhs_terms)
    gap = abs(lhs_c.real - rhs)
    expo = n - m + 0.5
    return ComparisonReport(
        family=f"power-sum(n={n},m={m})",
        q=q,
        count=count,
        lhs=lhs_c.real,
        rhs=rhs,
        gap=gap,
        normalized_gap=gap / q**expo,
        normalizer_exponent=expo,
        lhs_imag=abs(lhs_c.imag),
        rhs_imag=0.0,
    )


def power_sum_cases():
    """Every (q, n, m) whose family the enumeration walks in at most 3e4 b,
    with the trivial tuple (a real table, so a float64 kmat) and a
    nontrivial one (complex).  Past 3e3 b one tuple runs, the trivial at
    m = 1 and the nontrivial at m = 0, which keeps the oracle's walk near
    1.4e5 b.  At q = 31 the Salie tuple (0, 15) (a purely imaginary table)
    runs every family of at most 3e3 b."""
    for q, n, m in itertools.product((3, 5, 7, 13, 29, 31), range(1, 5), (0, 1)):
        size = (q - 1) ** (n - m)
        for chars in ((0, 0), (1, 3, 4)):
            if size <= 3000 or (size <= 3 * 10**4 and (chars == (0, 0)) == (m == 1)):
                yield q, n, m, chars
        if q == 31 and size <= 3000:
            yield q, n, m, (0, 15)


POWER_SUM_CASES = list(power_sum_cases())


@pytest.mark.parametrize("q,n,m,chars", POWER_SUM_CASES,
                         ids=[f"q{q}-n{n}-m{m}-chars{','.join(map(str, c))}"
                              for q, n, m, c in POWER_SUM_CASES])
def test_power_sum_matches_enumeration(q, n, m, chars):
    """The closed form against the enumeration: equal counts, lhs and rhs to
    1e-12 relative.  The empty family n = 1, m = 1 reads about 1e-16 in
    place of 0, hence the absolute 1e-9.  The imaginary residues are gated
    at 1e-12 of q^(n - m + 1), the size of a family's lhs, not of lhs
    itself: the Salie family n = 2, m = 1 at q = 31 is b_2 = -b_1, where
    K(x) K(-x) = 0 since -1 is not a square, so lhs cancels to 0 and leaves
    a residue of 1.2e-12 on the float64 kernel."""
    f = build_field(q)
    tab = kl_table_fast(f, CharTuple(f, chars))
    rep = averaged_comparison_power_sum(tab, n, m)
    want = enumerated_power_sum(tab, n, m)
    scale = float(q) ** (n - m + 1)
    assert rep.count == want.count
    assert rep.lhs == pytest.approx(want.lhs, rel=1e-12, abs=1e-9)
    assert rep.rhs == pytest.approx(want.rhs, rel=1e-12, abs=1e-9)
    assert rep.lhs_imag <= 1e-12 * scale and rep.rhs_imag <= 1e-12 * scale


@pytest.mark.parametrize("q", [3, 7, 11, 19, 23, 31])
def test_power_sum_imaginary_table_matches_enumeration(q):
    """The Salie tuple (0, (q - 1)/2) at q = 3 mod 4 has a purely imaginary
    table (a float64 kernel), and the closed form reads its values.  Every
    family of at most 3e3 b against the enumeration: equal counts, lhs and
    rhs to 1e-12 of q^(n - m + 1), the size of lhs, and so are the
    imaginary residues.  That scale, not lhs, because at n = 2, m = 1 the
    family is b_2 = -b_1 and K(x) K(-x) = 0 when -1 is not a square: lhs
    and rhs are 0, and the complex kernel leaves the same 1e-12 residue."""
    f = build_field(q)
    tab = kl_table_fast(f, CharTuple(f, (0, (q - 1) // 2)))
    assert sums._kernel(tab).dtype == np.float64
    for n, m in itertools.product(range(1, 5), (0, 1)):
        if (q - 1) ** (n - m) > 3000:
            continue
        rep = averaged_comparison_power_sum(tab, n, m)
        want = enumerated_power_sum(tab, n, m)
        scale = float(q) ** (n - m + 1)
        assert rep.count == want.count
        for got, ref in ((rep.lhs, want.lhs), (rep.rhs, want.rhs), (rep.lhs_imag, 0.0),
                         (rep.rhs_imag, 0.0)):
            assert abs(got - ref) <= 1e-12 * scale, (n, m, got, ref)


def test_power_sum_refuses_n_past_float64(f13):
    # q^2 (12 * 4)^n passes float64's largest value between n = 182 and 183
    tab = kl_table_fast(f13, CharTuple(f13, (0, 0)))
    assert math.isfinite(averaged_comparison_power_sum(tab, 182, 0).lhs)
    with pytest.raises(PreconditionError, match="at q=13, k=2, n=183"):
        averaged_comparison_power_sum(tab, 183, 0)


def dense_power_sum(table, n, m):
    """lhs and rhs of the power-sum comparison as one dense product: D = W
    conj(K) for W[u, b] = psi(u b) K(b) and K[b, t] = K(b t), both gathered
    from ``values`` by modular index over b, t = 1..q-1 (t = 1 is column
    0), with psi from np.exp.  No kmat and no log_dft: the closed form's
    oracle where the enumeration cannot go."""
    q = table.field.q
    x = np.arange(1, q, dtype=np.int64)
    w = np.exp(2j * np.pi * (np.outer(np.arange(q**m), x) % q) / q) * table.values[x]
    d = (w @ np.conj(table.values[np.outer(x, x) % q])) ** n
    return complex(d.sum()) * (q - 1) / q**m, complex(d[:, 0].sum()) * (q - 1) / q**m


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("chars", [(0, 0), (1, 5, 9)])
def test_power_sum_matches_dense_product(chars, m):
    """The closed form against the dense product at q = 1009, n = 4, where
    the family has 10^12 b: lhs and rhs to 1e-12 relative."""
    f = build_field(1009)
    tab = kl_table_fast(f, CharTuple(f, chars))
    rep = averaged_comparison_power_sum(tab, 4, m)
    lhs, rhs = dense_power_sum(tab, 4, m)
    assert rep.lhs == pytest.approx(lhs.real, rel=1e-12)
    assert rep.rhs == pytest.approx(rhs.real, rel=1e-12)


@pytest.mark.parametrize("q", [10007, 100003])
@pytest.mark.parametrize("chars", [(0, 0), (1, 5, 9)])
def test_power_sum_n1_m0_closed_form(q, chars):
    """At n = 1, m = 0 the family is b in F_q^x, and the comparison has a
    closed form: lhs = (q-1) |sum_x K(x)|^2, rhs = (q-1) sum_x |K(x)|^2,
    read from ``values`` by math.fsum.  Both q - 1 take log_dft's
    prime-factor split, past the enumeration's and the dense product's
    reach.  Gated at 1e-12 of rhs, the size of lhs's terms."""
    f = build_field(q)
    assert _split_prime(f)
    tab = kl_table_fast(f, CharTuple(f, chars))
    v = tab.values[1:]
    lhs = (q - 1) * abs(complex(math.fsum(v.real), math.fsum(v.imag))) ** 2
    rhs = (q - 1) * math.fsum(np.abs(v) ** 2)
    rep = averaged_comparison_power_sum(tab, 1, 0)
    for got, want in ((rep.lhs, lhs), (rep.rhs, rhs), (rep.lhs_imag, 0.0), (rep.rhs_imag, 0.0)):
        assert abs(got - want) <= 1e-12 * rhs, (got, want)


def test_avg_full_sample_nonnegative_real(f13):
    tab = kl_table_fast(f13, CharTuple(f13, (0, 0)))
    rep = averaged_comparison_full_sample(tab, 2, 10, seed=3)
    assert rep.lhs >= 0 and rep.rhs >= 0
    assert rep.normalized_gap >= 0


def test_avg_full_sample_pinned(f13):
    """The full-sample report as sorted-key JSON, pinned by sha256 taken while
    each b was drawn and swept on its own: the batch keeps the draws and floats.
    Re-taken when the real (0, 0) table moved to the float64 sweep: lhs and
    gap moved by 1.1e-13 from the complex sweep's."""
    tab = kl_table_fast(f13, CharTuple(f13, (0, 0)))
    rep = averaged_comparison_full_sample(tab, 2, 10, seed=3)
    assert json_sha256(rep) == "b8f16c1b91485746b3358c244f7d5f9dd41a152f31f105ab01b524f5fffd4d0c"


def test_avg_full_sample_paired_cauchy_schwarz(f13):
    # paired b: bfK(sr, sb) >= 0, so (sum_s)^2 >= sum_s of squares per (b, r)
    tab = kl_table_fast(f13, CharTuple(f13, (0, 0)))
    b = np.array([2, 7, 2, 7])
    n = kr_matrix(tab, b)[1:]
    lhs_per_r = np.abs(n.sum(axis=1)) ** 2
    rhs_per_r = np.sum(np.abs(n) ** 2, axis=1)
    assert (lhs_per_r >= rhs_per_r - 1e-9).all()


def test_avg_full_sample_zero_count(f13):
    tab = kl_table_fast(f13, CharTuple(f13, (0, 0)))
    rep = averaged_comparison_full_sample(tab, 2, 0)
    assert rep.lhs == rep.rhs == rep.normalized_gap == 0.0


def test_avg_full_sample_refuses_l_below_1(f13):
    tab = kl_table_fast(f13, CharTuple(f13, (0, 0)))
    for l, count in ((0, 0), (0, 2), (-1, 0), (-1, 2)):
        with pytest.raises(PreconditionError, match=f"got l={l}"):
            averaged_comparison_full_sample(tab, l, count)


def parent_full_sample(table, l, count, seed=0):
    """averaged_comparison_full_sample's lhs and rhs over the whole kr_matrix,
    as it computed them before the row-block sweep."""
    q = table.field.q
    rng = np.random.Generator(np.random.PCG64(seed))
    lhs_terms: list[float] = []
    rhs_terms: list[float] = []
    for _ in range(count):
        b = rng.integers(0, q, size=2 * l, dtype=np.int64)
        n = kr_matrix(table, b)[1:]  # drop r = 0
        r_vec = n.sum(axis=1)
        lhs_terms.append(float(np.sum(np.abs(r_vec) ** 2)))
        rhs_terms.append(float(np.sum(np.abs(n) ** 2)))
    return math.fsum(lhs_terms), math.fsum(rhs_terms)


# at q = 307 the sweep's row blocks are 213 and 94 of the 307 rows, so the
# separate read of row r = 0 is checked where one block is not all of N
@pytest.mark.parametrize("q,chars,l", [(13, (0, 0), 2), (31, (1, 5), 1), (101, (0, 0, 0), 2),
                                       (101, (2, 7, 3), 3), (307, (1, 5), 2)])
def test_avg_full_sample_matches_full_matrix(q, chars, l):
    f = build_field(q)
    tab = kl_table_fast(f, CharTuple(f, chars))
    rep = averaged_comparison_full_sample(tab, l, 6, seed=q)
    lhs, rhs = parent_full_sample(tab, l, 6, seed=q)
    assert rep.lhs == pytest.approx(lhs, rel=1e-12)
    assert rep.rhs == pytest.approx(rhs, rel=1e-12)
    assert abs(rep.gap - abs(lhs - rhs)) <= 1e-12 * 6 * q**1.5
