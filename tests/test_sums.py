import cmath
import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from klsums import sums
from klsums.chartuples import CharTuple
from klsums.errors import MAX_BYTES, PreconditionError, ResourceLimitError
from klsums.field import build_field, is_prime
from klsums.kloosterman import kl_table_fast
from klsums.sums import (
    _bfk_product,
    kr_matrix,
    sigma_II,
    sigma_II_direct,
)


@pytest.fixture(scope="module")
def tab13():
    f = build_field(13)
    return kl_table_fast(f, CharTuple(f, (0, 0)))


def bfk_at(table, r, b):
    """bfK(r, b) at one point, read from the pointwise oracle."""
    b = np.asarray(b, dtype=np.int64)
    return complex(_bfk_product(table, 1, r, b, len(b) // 2))


def test_KR_paired_is_modulus_squared(tab13):
    for r in range(13):
        bfk = bfk_at(tab13, r, (4, 4))
        v = tab13.value(r + 4)
        assert bfk == pytest.approx(abs(v) ** 2, abs=1e-12)
        assert bfk.imag == pytest.approx(0, abs=1e-12)
        assert bfk.real >= -1e-12


def test_KR_vanishing_stalk(tab13):
    # r + b_i = 0 kills the product
    assert bfk_at(tab13, 9, (4, 7, 2, 5)) == 0


def test_quadruple_loop_oracle_q7():
    """Cross-check bfK, bfR, Sigma_I, Sigma_II against literal nested loops
    that build everything from scratch (definitional Kl_2, no tables)."""
    q = 7

    def K(x):
        x %= q
        if x == 0:
            return 0j
        acc = 0j
        for y in range(1, q):
            yinv = pow(y, q - 2, q)
            acc += cmath.exp(2j * cmath.pi * ((y + x * yinv) % q) / q)
        return acc / math.sqrt(q)

    def bfK(r, b):
        out = 1 + 0j
        for i in range(2):
            out *= K(r + b[i])
        for i in range(2, 4):
            out *= K(r + b[i]).conjugate()
        return out

    b = (1, 3, 4, 6)
    f = build_field(q)
    tab = kl_table_fast(f, CharTuple(f, (0, 0)))

    bfr = kr_matrix(tab, b).sum(axis=1)
    for r in (0, 2, 5):
        want_k = bfK(r, b)
        want_r = sum(bfK(s * r % q, tuple(s * bi % q for bi in b)) for s in range(1, q))
        got_k, got_r = bfk_at(tab, r, b), bfr[r]
        assert got_k == pytest.approx(want_k, abs=1e-9)
        assert got_r == pytest.approx(want_r, abs=1e-9)

    want_sI = sum(
        bfK(s * r % q, tuple(s * bi % q for bi in b))
        for r in range(q)
        for s in range(1, q)
    )
    assert sigma_II(tab, b).sigma_I == pytest.approx(want_sI, abs=1e-8)

    want_sII = sum(
        bfK(s1 * r % q, tuple(s1 * bi % q for bi in b))
        * bfK(s2 * r % q, tuple(s2 * bi % q for bi in b)).conjugate()
        for r in range(q)
        for s1 in range(1, q)
        for s2 in range(1, q)
        if s1 != s2
    )
    rep = sigma_II(tab, b, direct=True)
    assert rep.sigma_II == pytest.approx(want_sII.real, abs=1e-8)
    assert abs(want_sII.imag) < 1e-8


def test_sigma_I_paired_nonnegative(tab13):
    # b with b_{i+l} = b_i: every term is a product of squared moduli
    val = sigma_II(tab13, (2, 5, 2, 5)).sigma_I
    assert val.real >= -1e-6
    assert abs(val.imag) <= 1e-6


def test_sigma_I_brute_q11():
    q = 11
    f = build_field(q)
    tab = kl_table_fast(f, CharTuple(f, (0, 0)))
    rng = np.random.Generator(np.random.PCG64(8))
    kv = [0j] + [complex(tab.value(x)) for x in range(1, q)]
    for _ in range(5):
        b = [int(v) for v in rng.integers(0, q, size=4)]
        want = 0j
        for r in range(q):
            for s in range(1, q):
                term = kv[s * (r + b[0]) % q] * kv[s * (r + b[1]) % q]
                term *= (kv[s * (r + b[2]) % q] * kv[s * (r + b[3]) % q]).conjugate()
                want += term
        assert sigma_II(tab, b).sigma_I == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("q,k,l", [(13, 2, 1), (13, 3, 2), (53, 2, 2)])
def test_sigma_II_rearrangement(q, k, l):
    f = build_field(q)
    tab = kl_table_fast(f, CharTuple(f, (0,) * k))
    rng = np.random.Generator(np.random.PCG64(q * k * l))
    for _ in range(20):
        b = rng.integers(0, q, size=2 * l)
        rep = sigma_II(tab, b, direct=True)  # raises on disagreement
        assert abs(rep.sigma_II_direct - rep.sigma_II) <= 1e-6 * q**1.5
        assert rep.sigma_II_imag <= 1e-6
        assert rep.sigma_II == pytest.approx(rep.comp_R2 - rep.comp_K2, abs=1e-6)


def test_sigma_II_hermitian_real(tab13):
    d = sigma_II_direct(tab13, (1, 2, 3, 4))
    assert abs(d.imag) <= 1e-6


def test_sigma_II_l1_paired(tab13):
    rep = sigma_II(tab13, (5, 5), direct=True)
    assert abs(rep.sigma_II_direct - rep.sigma_II) <= 1e-6 * 13**1.5


@pytest.mark.parametrize("l", [1, 2])
def test_scale_invariance(l):
    q = 13
    f = build_field(q)
    t = CharTuple(f, (0, 0))
    rng = np.random.Generator(np.random.PCG64(l))
    tabs = {a: kl_table_fast(f, t, a) for a in (1, 2, f.g)}
    for _ in range(20):
        b = rng.integers(0, q, size=2 * l)
        ref = sigma_II(tabs[1], b)
        for a in (2, f.g):
            got = sigma_II(tabs[a], b)
            for name in ("sigma_I", "sigma_II"):
                want = getattr(ref, name)
                assert getattr(got, name) == pytest.approx(want, abs=1e-6 * max(1.0, abs(want)))


@pytest.mark.parametrize("chars", [(0, 0), (3, 17), (1, 5, 9)])
def test_scale_invariance_within_budget(chars):
    """Sigma_I and Sigma_II of the scale-a table equal those of a = 1 within
    the module's 1e3 q^2 eps budget: the sum over s absorbs a."""
    q = 101
    f = build_field(q)
    t = CharTuple(f, chars)
    budget = 1e3 * q**2 * np.finfo(float).eps
    ref = kl_table_fast(f, t)
    tabs = [kl_table_fast(f, t, a) for a in (2, 5, 77, q - 1)]
    rng = np.random.Generator(np.random.PCG64(list(chars)))
    for l in (1, 2):
        for _ in range(4):
            b = rng.integers(0, q, size=2 * l)
            want = sigma_II(ref, b)
            for tab in tabs:
                got = sigma_II(tab, b)
                assert abs(got.sigma_I - want.sigma_I) <= budget, (tab.scale, b)
                assert abs(got.sigma_II - want.sigma_II) <= budget, (tab.scale, b)


def test_trivial_envelopes(tab13):
    # |Sigma_I| <= k^(2l) q^2 and |Sigma_II| <= k^(4l) q^3 at k = l = 2
    env_i, env_ii = 2**4 * 13**2, 2**8 * 13**3
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(10):
        b = rng.integers(0, 13, size=4)
        rep = sigma_II(tab13, b)
        assert abs(rep.sigma_I) <= env_i
        assert abs(rep.sigma_II) <= env_ii


def affine_case(q):
    """(l, b, lam, c) at q: l in {2, 3}, any b, lam != 0 and any c."""
    st = pytest.importorskip("hypothesis.strategies")
    return st.tuples(
        st.sampled_from((2, 3)).flatmap(
            lambda l: st.tuples(st.just(l), st.lists(st.integers(0, q - 1), min_size=2 * l,
                                                     max_size=2 * l))),
        st.integers(1, q - 1),
        st.integers(0, q - 1),
    )


@pytest.mark.parametrize("chars", [(0, 0), (0, 51), (3, 7)], ids=["real", "imaginary", "complex"])
def test_affine_invariance_property(chars):
    """Sigma(lam b + c) = Sigma(b) for lam != 0 at l >= 2 (r -> lam r - c and
    s -> s / lam), on a real, an imaginary and a complex table at q = 103,
    so the float64 and the complex kernel are both held to it."""
    hyp = pytest.importorskip("hypothesis")
    q = 103
    f = build_field(q)
    table = kl_table_fast(f, CharTuple(f, chars))
    assert sums._kmat(table).dtype == (np.complex128 if chars == (3, 7) else np.float64)

    @hyp.settings(max_examples=25, deadline=None, derandomize=True)
    @hyp.given(affine_case(q))
    @hyp.example(((2, [0, 1, 2, 3]), q - 1, 5))
    @hyp.example(((2, [4, 4, 9, 9]), 2, 0))
    def check(c):
        (l, b), lam, shift = c
        b = np.array(b, dtype=np.int64)
        want = sigma_II(table, b)
        got = sigma_II(table, (lam * b + shift) % q)
        assert abs(got.sigma_I - want.sigma_I) <= 1e-12 * q**2, c
        assert abs(got.sigma_II - want.sigma_II) <= 1e-12 * q**2, c
        assert got.comp_K2 == pytest.approx(want.comp_K2, rel=1e-12), c

    check()


@pytest.mark.parametrize("q,chars", [(101, (0, 0)), (103, (0, 51)), (103, (1, 101, 0, 51))])
def test_float64_kernel_matches_complex_path(q, chars, monkeypatch):
    """A real or imaginary table runs kr_matrix, the sweep and the direct
    Gram in float64; the same table forced through the complex kernel gives
    the same reports to 1e-12 q^{3/2} (Sigma_I to 1e-12 q), with Sigma_I's
    imaginary part and the direct residue exactly 0 on the float64 path."""
    f = build_field(q)
    t = CharTuple(f, chars)
    real = kl_table_fast(f, t)
    monkeypatch.setattr("klsums.sums.kl_value_kind", lambda _t: "complex")
    cplx = kl_table_fast(f, t)
    assert sums._kernel(cplx) is cplx.values and sums._kmat(cplx).dtype == np.complex128
    monkeypatch.undo()
    assert sums._kmat(real).dtype == np.float64
    rng = np.random.Generator(np.random.PCG64(q))
    for l in (1, 2, 3):
        bs = rng.integers(0, q, size=(4, 2 * l))
        assert kr_matrix(real, bs[0]).dtype == np.float64
        assert _bfk_product(real, 2, 5, bs[0], l).dtype == np.float64
        for got, want in ((sigma_II(real, b), sigma_II(cplx, b)) for b in bs):
            assert got.sigma_I.imag == 0.0
            assert abs(got.sigma_I - want.sigma_I) <= 1e-12 * q
            for name in ("sigma_II", "comp_R2", "comp_K2"):
                assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12 * q**1.5, name
        got, want = sigma_II(real, bs[1], direct=True), sigma_II(cplx, bs[1], direct=True)
        assert got.sigma_II_imag == 0.0
        assert abs(got.sigma_II_direct - want.sigma_II_direct) <= 1e-12 * q**1.5


def test_translation_covariance_exact(tab13):
    # bfK(r, b + c*1) = bfK(r + c, b): identical index arithmetic, exact equality
    b = np.array([1, 4, 6, 11])
    c = 3
    for r in range(13):
        lhs = bfk_at(tab13, r, (b + c) % 13)
        rhs = bfk_at(tab13, (r + c) % 13, b)
        assert lhs == rhs


def test_b_validation(tab13):
    with pytest.raises(PreconditionError):
        sigma_II(tab13, (1, 2, 3))
    # a (B, 2l) array is a batch of b; any other shape is refused
    for bad in (np.zeros((2, 2, 2), dtype=np.int64), np.zeros((2, 3), dtype=np.int64)):
        for call in (kr_matrix, sigma_II):
            with pytest.raises(PreconditionError,
                               match=re.escape(f"or a (B, 2l) array of them, got shape {bad.shape}")):
                call(tab13, bad)


def test_kr_matrix_shape_and_zero_column(tab13):
    n = kr_matrix(tab13, (1, 2, 3, 4))
    # one column per s = g^sigma in F_q^x, none for s = 0
    assert n.shape == (13, 12)
    # every row r with some r + b_i = 0 vanishes (K(0) = 0), and no other entry
    for r in (12, 11, 10, 9):
        assert not n[r].any()
    assert n[:9].all()


def test_sigma_II_direct_byte_budget():
    # kmat (q + BLOCK_ENTRIES // q rows) and beside it one block of
    # DIRECT_ROWS (256) rows of N, the 64-row Gram slab, the 256 x 64
    # conjugated block and 16 KiB for the small arrays
    def rows(q):
        return max(1, sums.BLOCK_ENTRIES // q)

    def direct_bytes(q):
        return 16 * q * (q + rows(q)) + 16 * q * (256 + 64) + 16 * 256 * 64 + 2**14

    # 8017 is the last prime the direct route admits, 8039 the first past
    # it; the difference form still caches kmat at q = 8039 (it does up to
    # 8179), and past that it streams
    assert sums.DIRECT_ROWS == 256 and sums.GRAM_ROWS == 64
    assert direct_bytes(8017) <= MAX_BYTES < direct_bytes(8039)
    assert 16 * 8039 * (8039 + 2 * rows(8039) + 1) + 8 * -(-8039 // rows(8039)) + 2**14 <= MAX_BYTES
    f = build_field(8039)
    table = kl_table_fast(f, CharTuple(f, (0, 0)))
    need = direct_bytes(8039)
    for call in (lambda: sigma_II(table, (1, 2, 3, 4), direct=True),
                 lambda: sigma_II_direct(table, (1, 2, 3, 4))):
        with pytest.raises(ResourceLimitError, match=f"q=8039 needs {need} bytes"):
            call()
    assert table not in sums._KMATS


def full_gram_direct(table, b):
    """The direct sum as sigma_II_direct formed it before the blocks, kept
    as their oracle: the whole Gram matrix over the columns s of N,
    N^T conj(N), its sum minus its trace."""
    n = kr_matrix(table, b)
    gram = n.T @ n.conj()
    total = complex(gram.sum())
    diag = complex(np.trace(gram))
    return total - diag


def assert_direct_matches_full_gram(table, b):
    q = table.field.q
    got = sigma_II_direct(table, b)
    assert abs(got - full_gram_direct(table, b)) <= 1e-9 * q**1.5, (q, b)


@pytest.mark.parametrize("q", [3, 53, 131, 193])
def test_sigma_II_direct_matches_full_gram_at_block_edges(q):
    """One partial block (q = 3, 53), whole blocks only (192 = 3 * 64
    columns at q = 193), and a last block of two columns (130 = 2 * 64 + 2
    at q = 131); k = 2 and 3, l = 1 and 2, with paired and zero entries among
    the b, and a complex l = 3 b with 0, q - 1 and a repeated entry."""
    assert sums.GRAM_ROWS == 64
    f = build_field(q)
    rng = np.random.Generator(np.random.PCG64(q))
    for chars in ((0, 0), (1, q - 2), (0, 1, 2)):
        table = kl_table_fast(f, CharTuple(f, tuple(c % (q - 1) for c in chars)))
        bs = [rng.integers(0, q, size=2 * l) for l in (1, 2, 2)] + [(0, q - 1), (1, 2, 1, 2),
                                                                    (0, q - 1, 2, 2, 1, q - 2)]
        for b in bs:
            assert_direct_matches_full_gram(table, b)


def test_sigma_II_direct_matches_full_gram_property():
    """Primes below 600 (up to ten Gram blocks), random characters and b,
    l in {1, 2}."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    primes = [q for q in range(3, 600) if is_prime(q)]

    def case(q):
        return st.tuples(
            st.just(q),
            st.lists(st.integers(0, q - 2), min_size=2, max_size=3),
            st.sampled_from((1, 2)).flatmap(
                lambda l: st.lists(st.integers(0, q - 1), min_size=2 * l, max_size=2 * l)),
        )

    @hyp.settings(max_examples=40, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from(primes).flatmap(case))
    @hyp.example((5, [0, 0], [1, 4]))
    @hyp.example((257, [0, 0], [3, 7, 11, 2]))
    @hyp.example((599, [1, 5], [0, 598, 1, 1]))
    def check(c):
        q, chars, b = c
        f = build_field(q)
        assert_direct_matches_full_gram(kl_table_fast(f, CharTuple(f, tuple(chars))), b)

    check()


def test_sigma_II_direct_builds_each_row_once(monkeypatch):
    """The direct route reads N from kr_matrix in consecutive blocks of
    DIRECT_ROWS rows, each row once: one block of all 131 rows, and 256,
    256 and 11 rows at q = 523; N is never built whole (past one block)."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2:4])
        return kr_matrix(*args, **kwargs)

    monkeypatch.setattr(sums, "kr_matrix", counted)
    for q, blocks in ((131, [(0, 131)]), (523, [(0, 256), (256, 512), (512, 523)])):
        f = build_field(q)
        sigma_II_direct(kl_table_fast(f, CharTuple(f, (0, 0))), (1, 2, 3, 4))
        assert calls == blocks
        calls.clear()


def test_b_must_be_integral(tab13):
    for bad in ((1.7, 2.2, 3.9, 4.0), ("1", "2"), (2**70, 1), (np.inf, 1.0)):
        with pytest.raises(PreconditionError, match="must be integers"):
            sigma_II(tab13, bad)
    assert sigma_II(tab13, (1.0, 2.0, 3, 4)).b == (1, 2, 3, 4)
    assert sigma_II(tab13, np.array([14, -1], dtype=np.int32)).b == (1, 12)


def broadcast_oracle(table, b):
    """kr_matrix through the pointwise product with r a column and s a row,
    s = g^sigma in kr_matrix's column order."""
    q = table.field.q
    r = np.arange(q, dtype=np.int64)[:, None]
    s = table.field.exp[None, :]
    b = np.asarray(b, dtype=np.int64) % q
    return _bfk_product(table, s, r, b, len(b) // 2)


def test_kr_matrix_matches_oracle_property():
    """The kmat-slice kernel equals the broadcast oracle bit for bit, over
    q in {3, 5, 13, 101}, k in {2, 3}, l in {1, 2, 3}, any characters and
    scale, with b drawn to hit 0, q - 1 (slices that start at kmat rows 0
    and q - 1) and repeated entries; so do its reversal and its rotation."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def case(q):
        entry = st.one_of(st.sampled_from((0, q - 1)), st.integers(0, q - 1))
        return st.tuples(
            st.just(q),
            st.lists(st.integers(0, q - 2), min_size=2, max_size=3),
            st.integers(1, q - 1),
            st.sampled_from((1, 2, 3)).flatmap(lambda l: st.lists(entry, min_size=2 * l, max_size=2 * l)),
        )

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from((3, 5, 13, 101)).flatmap(case))
    @hyp.example((3, [1, 0], 2, [0, 2]))
    @hyp.example((5, [1, 2, 3], 3, [4, 4, 0, 0]))
    @hyp.example((13, [5, 7], 6, [0, 12, 12, 3, 0, 12]))
    @hyp.example((101, [3, 50, 99], 2, [100, 0, 7, 7]))
    @hyp.example((101, [1, 5, 9], 1, [0, 100, 50, 1, 1, 7]))
    def check(c):
        q, chars, a, b = c
        f = build_field(q)
        table = kl_table_fast(f, CharTuple(f, tuple(chars)), a)
        for row in (b, b[::-1], b[1:] + b[:1]):
            assert np.array_equal(kr_matrix(table, row), broadcast_oracle(table, row)), c

    check()


def test_kmat_cached_and_read_only(tab13):
    kmat = sums._kmat(tab13)
    assert kmat is sums._kmat(tab13)
    assert not kmat.flags.writeable
    with pytest.raises(ValueError):
        kmat[1, 1] = 0
    # kmat[x, sigma] = K(x g^sigma): row 0 is zero, row 1 the kernel in log
    # order, and rows q .. q + block_rows - 2 repeat rows 0 .. block_rows - 2
    rows = sums._block_rows(13)
    assert kmat.shape == (13 + rows - 1, 12)
    x, s = np.meshgrid(np.arange(13), tab13.field.exp, indexing="ij")
    assert np.array_equal(kmat[:13], sums._kernel(tab13)[(x * s) % 13])
    assert not kmat[0].any()
    assert np.array_equal(kmat[1], sums._kernel(tab13)[tab13.field.exp])
    assert np.array_equal(kmat[13:], kmat[:rows - 1])


def test_kmat_cache_reused_and_freed_with_its_table():
    """A second report on the same table reads the kmat the first one built,
    and the cache holds no reference to the table, so freeing the table
    drops its kmat.  (That the power-sum comparison leaves no entry is
    asserted in test_budget.py.)"""
    f = build_field(101)
    table = kl_table_fast(f, CharTuple(f, (1, 5)))
    assert table not in sums._KMATS
    sigma_II(table, (1, 2, 3, 4))
    kmat = sums._KMATS[table]
    sigma_II(table, (5, 6, 7, 8))
    assert sums._KMATS[table] is kmat and sums._kmat(table) is kmat
    gc.collect()  # tables left by earlier tests, so that only this one drops out below
    held, refs = len(sums._KMATS), (weakref.ref(table), weakref.ref(kmat))
    del table, kmat
    gc.collect()
    assert all(ref() is None for ref in refs) and len(sums._KMATS) == held - 1



def test_kr_matrix_no_q2_temporaries():
    """One kr_matrix call on a fresh table, kmat build included, holds kmat
    and its output (32 q^2 bytes) plus one bounded block, nothing q x q more."""
    q = 499
    f = build_field(q)
    table = kl_table_fast(f, CharTuple(f, (0, 0)))
    tracemalloc.start()
    try:
        kr_matrix(table, (1, 2, 3, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * 16 * q**2


@pytest.fixture(scope="module")
def tab997():
    f = build_field(997)
    table = kl_table_fast(f, CharTuple(f, (1, 5)))
    assert sums._kmat(table).dtype == np.complex128  # built here, outside every measurement
    return table


@pytest.mark.parametrize("full", [False, True], ids=["block", "full"])
@pytest.mark.parametrize("b", [(1, 2), (1, 2, 3, 4), (1, 2, 3, 4, 5, 6)], ids=["l1", "l2", "l3"])
def test_kr_matrix_holds_only_its_output(tab997, b, full):
    """With kmat built, a complex kr_matrix call, one block (65 rows) or all
    of N, holds its output and 16 KiB at most: each block is conjugated in
    place, with no (rows, q - 1) conjugate buffer (1 MB here)."""
    tracemalloc.start()
    try:
        out = kr_matrix(tab997, b, 0, None if full else sums._block_rows(997))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 2**14


def test_kr_matrix_byte_budget():
    # kmat (q + BLOCK_ENTRIES // q rows), the output, one row for kmat's
    # build and 16 KiB: all rows with kmat cached fit up to 5783; past it
    # the rows are gathered from kmat's windows (4 rows of 16 q bytes in
    # place of kmat's count), so all rows fit up to 8179 and q = 8191 is
    # refused before anything is built; one row streams there
    def rows(q):
        return max(1, sums.BLOCK_ENTRIES // q)

    def cached(q):
        return 16 * q * (2 * q + rows(q) + 1) + 2**14

    def gathered(q, n):
        return 16 * q * (n + 1 + 4) + 2**14

    assert cached(1999) <= cached(5783) <= MAX_BYTES < cached(5791)
    assert gathered(8179, 8179) <= MAX_BYTES < gathered(8191, 8191)
    f = build_field(8191)
    table = kl_table_fast(f, CharTuple(f, (0, 0)))
    b = (1, 2, 3, 4)
    with pytest.raises(ResourceLimitError, match=f"q=8191 needs {gathered(8191, 8191)} bytes"):
        kr_matrix(table, b)
    row = kr_matrix(table, b, 8190, 8191)
    assert np.array_equal(row, _bfk_product(table, f.exp[None, :], np.array([[8190]]), np.array(b), 2))
    assert table not in sums._KMATS


def full_matrix_reductions(table, b):
    """The reductions sigma_II made over the whole matrix before the row-block
    sweep, kept as the sweep's oracle: (Sigma_I, Sigma_II, comp_R2, comp_K2)."""
    n = kr_matrix(table, b)
    r_vec = n.sum(axis=1)
    comp_R2 = float(np.sum(np.abs(r_vec) ** 2))
    comp_K2 = float(np.sum(np.abs(n) ** 2))
    return complex(n.sum()), comp_R2 - comp_K2, comp_R2, comp_K2


def assert_sweep_matches_full_matrix(table, b):
    q = table.field.q
    want_i, want_ii, want_r2, want_k2 = full_matrix_reductions(table, b)
    rep = sigma_II(table, b)
    # Sigma_I can cancel to rounding noise, so its scale has a floor at q
    assert abs(rep.sigma_I - want_i) <= 1e-12 * max(abs(want_i), q)
    assert complex(sums._sweep(table, b)[0].sum()) == rep.sigma_I
    assert rep.comp_R2 == pytest.approx(want_r2, rel=1e-12)
    assert rep.comp_K2 == pytest.approx(want_k2, rel=1e-12)
    assert abs(rep.sigma_II - want_ii) <= 1e-12 * q**1.5


def sweep_cases(q):
    """k = 2 and 3 tables with trivial and complex characters, and seeded b
    at l = 1, 2, 3 with a repeated and a zero entry among them; and an l = 3
    b whose zero rows r = -b_i fall on the first and the last row and on
    the block boundaries of one-, five- and 32-row blocks, with a repeated
    entry."""
    f = build_field(q)
    rng = np.random.Generator(np.random.PCG64(q))
    wraps = (0, q - 1, (q - 5) % q, (q - 32) % q, 1, 1)
    for chars in ((0, 0), (1, 5), (0, 0, 0), (2, 7, 3)):
        table = kl_table_fast(f, CharTuple(f, tuple(c % (q - 1) for c in chars)))
        bs = [rng.integers(0, q, size=2 * l) for l in (1, 2, 3)] + [(0, 3, 3, q - 1), wraps]
        for b in bs:
            yield table, b


def test_kr_matrix_row_range_is_bit_identical():
    for q in (3, 13, 101, 307):
        f = build_field(q)
        table = kl_table_fast(f, CharTuple(f, (1, q - 2)))
        for b in ((0, 2), (1, 2, 0, q - 1)):
            full = kr_matrix(table, b)
            for lo, hi in ((0, q), (0, 1), (q - 1, q), (1, min(q, 40)), (q // 2, q)):
                part = kr_matrix(table, b, lo, hi)
                assert part.shape == (hi - lo, q - 1)
                want = _bfk_product(table, f.exp[None, :], np.arange(lo, hi)[:, None],
                                    np.asarray(b) % q, len(b) // 2)
                assert np.array_equal(part, want)
                assert np.array_equal(part.view(np.uint64), full[lo:hi].view(np.uint64))


def test_kr_matrix_bad_row_range(tab13):
    for lo, hi in ((-1, 5), (0, 14), (1, 14), (5, 5), (7, 5)):
        with pytest.raises(PreconditionError, match=f"q=13, lo={lo}, hi={hi}"):
            kr_matrix(tab13, (1, 2, 3, 4), lo, hi)


@pytest.mark.parametrize("q", [13, 31, 97, 101])
@pytest.mark.parametrize("rows", [1, 5, 32, 10**6])
def test_sweep_block_size_invariance(q, rows, monkeypatch):
    """Blocks of any number of rows, from one to more than q (one block),
    with a last block that is not full: kr_matrix stays bit-identical to the
    pointwise oracle and the sweep agrees with the full-matrix reductions.
    sums._block_rows follows sums.BLOCK_ENTRIES."""
    monkeypatch.setattr(sums, "BLOCK_ENTRIES", rows * q)
    for table, b in sweep_cases(q):
        assert sums._block_rows(q) == min(rows, q)
        assert np.array_equal(kr_matrix(table, b), broadcast_oracle(table, b))
        assert_sweep_matches_full_matrix(table, b)


def test_sigma_II_batch_edges(tab13):
    # the Sigma layer takes one b: a (B, 2l) array is refused naming B and
    # l, the empty batch too; any other shape is refused by check_b
    bs = np.array([(1, 2, 3, 4), (5, 5, 0, 12), (7, 1, 1, 7)])
    for call in (lambda b: sigma_II(tab13, b), lambda b: kr_matrix(tab13, b, 3, 7)):
        with pytest.raises(PreconditionError, match="B=3 at l=2"):
            call(bs)
        with pytest.raises(PreconditionError, match="B=0 at l=2"):
            call(np.zeros((0, 4), dtype=np.int64))
    with pytest.raises(PreconditionError, match="B, 2l"):
        sigma_II(tab13, np.zeros((2, 2, 4), dtype=np.int64))


def test_direct_oracle_refuses_a_batch(tab13):
    # kr_matrix takes one b, so the direct oracle refuses a batch whichever
    # way it is reached, with a PreconditionError naming B and l
    bs = np.array([(1, 2, 3, 4), (5, 5, 0, 12), (7, 1, 1, 7)])
    for call in (lambda: sigma_II_direct(tab13, bs), lambda: sigma_II(tab13, bs, direct=True)):
        with pytest.raises(PreconditionError, match="B=3 at l=2"):
            call()


def test_sweep_matches_full_matrix_at_larger_q():
    for q in (211, 499):
        for table, b in sweep_cases(q):
            assert_sweep_matches_full_matrix(table, b)


def closed_form_l1(table):
    """Sigma_I, comp_R2 and comp_K2 at l = 1 for any b with b_1 != b_2, from
    table.values alone.  For r != -b_1 put u = s (r + b_1) and
    t = (r + b_2) / (r + b_1): as r runs over F_q minus -b_1, t runs over F_q
    minus 1, and bfK(s r, s b) = K(u) conj K(u t).  So bfR(r) = c(t) with
    c(t) = sum_s K(s) conj K(s t), and |bfK|^2 sums over s to
    e(t) = sum_s |K(s)|^2 |K(s t)|^2; c(0) = e(0) = 0, as K(0) = 0.  In log
    coordinates s = g^m, t = g^j both are circular correlations of
    a[m] = K(g^m), one FFT each; j = 0 is t = 1."""
    field = table.field
    q, g = field.q, field.g
    a = table.values[[pow(g, m, q) for m in range(q - 1)]]
    c = np.conj(np.fft.ifft(np.abs(np.fft.fft(a)) ** 2))  # c[j] = c(g^j)
    e = np.fft.ifft(np.abs(np.fft.fft(np.abs(a) ** 2)) ** 2).real  # e[j] = e(g^j)
    return complex(c[1:].sum()), float(np.sum(np.abs(c[1:]) ** 2)), float(e[1:].sum())


@pytest.mark.parametrize("chars", [(0, 0), (3, 17), (1, 5, 9), (0, 0, 0)])
@pytest.mark.parametrize("q", [101, 211, 997, 2003])
def test_sweep_matches_closed_form_at_l1(q, chars):
    """The sweep's oracle at every q at l = 1: Sigma_I, comp_R2 and comp_K2
    are the same for every b with b_1 != b_2 (one affine orbit), and equal
    the closed form, which shares no code with kr_matrix or kmat."""
    f = build_field(q)
    table = kl_table_fast(f, CharTuple(f, chars))
    want_i, want_r2, want_k2 = closed_form_l1(table)
    rng = np.random.Generator(np.random.PCG64([q, len(chars)]))
    bs = [(0, q - 1)] + [b for b in rng.integers(0, q, size=(8, 2)) if b[0] != b[1]][:3]
    for b in bs:
        rep = sigma_II(table, b)
        assert abs(rep.sigma_I - want_i) <= 1e-13 * q, b
        assert abs(rep.comp_R2 - want_r2) <= 1e-13 * q**2, b
        assert abs(rep.comp_K2 - want_k2) <= 1e-13 * q**2, b
        assert abs(rep.sigma_II - (want_r2 - want_k2)) <= 1e-13 * q**2, b


def test_gathered_route_matches_cached_property(monkeypatch):
    """With the byte budget below kmat's count, kr_matrix and the sweep
    gather kmat's rows from its windows instead, and every sigma_II report
    and kr_matrix block equals the cached route's bit for bit: q from 3
    through the primes below 600, real, imaginary and complex tables,
    l = 1, 2, 3, and b with 0, q - 1 and repeated entries."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    primes = [q for q in range(3, 600) if is_prime(q)]

    def case(q):
        entry = st.one_of(st.sampled_from((0, q - 1)), st.integers(0, q - 1))
        return st.tuples(
            st.just(q),
            st.sampled_from(("real", "imaginary", "complex")),
            st.sampled_from((1, 2, 3)).flatmap(lambda l: st.lists(entry, min_size=2 * l, max_size=2 * l)),
            st.tuples(st.integers(0, q - 1), st.integers(1, q)).map(sorted),
        )

    def chars(q, kind):
        # (0, 0) is real; (0, (q - 1) / 2) is the Salie pair, imaginary at
        # q = 3 mod 4 and real otherwise; (1, 5) is complex for q > 5
        return {"real": (0, 0), "imaginary": (0, (q - 1) // 2), "complex": (1, 5 % (q - 1))}[kind]

    def gathered(q, beside):
        # a route's gathered count, kmat's windows (4 rows) beside the rest,
        # which is below its cached count, kmat's q + rows rows beside it
        assert 16 * q * 4 < sums._kmat_bytes(q)
        return 16 * q * 4 + beside

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from(primes).flatmap(case))
    @hyp.example((3, "real", [0, 2], [0, 3]))
    @hyp.example((7, "imaginary", [6, 6, 0, 0], [2, 7]))
    @hyp.example((103, "complex", [0, 102, 51, 1, 1, 7], [0, 103]))
    @hyp.example((599, "imaginary", [598, 0, 5, 5], [590, 599]))
    def check(c):
        q, kind, b, (lo, hi) = c
        hi = max(hi, lo + 1)
        f = build_field(q)
        t = CharTuple(f, chars(q, kind))
        rows = sums._block_rows(q)
        fresh = kl_table_fast(f, t)
        # beside the sweep's rows: its block, the bfR vector, the partials
        # and 16 KiB; beside kr_matrix's: its output, one row and 16 KiB
        monkeypatch.setattr(sums.errors, "MAX_BYTES",
                            gathered(q, 16 * q * (rows + 1) + 8 * -(-q // rows) + 2**14))
        got_rep = sigma_II(fresh, b)
        monkeypatch.setattr(sums.errors, "MAX_BYTES", gathered(q, 16 * q * (hi - lo + 1) + 2**14))
        got_kr = kr_matrix(fresh, b, lo, hi)
        assert fresh not in sums._KMATS
        monkeypatch.undo()
        cached = kl_table_fast(f, t)
        want_rep, want_kr = sigma_II(cached, b), kr_matrix(cached, b, lo, hi)
        assert cached in sums._KMATS
        assert got_rep == want_rep, c
        assert got_kr.dtype == want_kr.dtype and got_kr.tobytes() == want_kr.tobytes(), c

    check()


@pytest.mark.parametrize("chars", [(0, 0), (1, 5)])
def test_gathered_sweep_matches_closed_form_at_l1_q10007(chars):
    """At q = 10007 kmat (1.6 GB) does not fit the budget, so the sweep
    gathers kmat's rows; at l = 1 it still equals the closed form."""
    q = 10007
    f = build_field(q)
    table = kl_table_fast(f, CharTuple(f, chars))
    want_i, want_r2, want_k2 = closed_form_l1(table)
    for b in [(0, q - 1), (17, 5003)]:
        rep = sigma_II(table, b)
        assert abs(rep.sigma_I - want_i) <= 1e-13 * q, b
        assert abs(rep.comp_R2 - want_r2) <= 1e-13 * q**2, b
        assert abs(rep.comp_K2 - want_k2) <= 1e-13 * q**2, b
        assert abs(rep.sigma_II - (want_r2 - want_k2)) <= 1e-13 * q**2, b
    assert sums._kmat_bytes(q) > MAX_BYTES and table not in sums._KMATS
