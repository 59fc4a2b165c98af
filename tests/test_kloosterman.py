import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from klsums import sums
from klsums.chartuples import CharTuple
from klsums.errors import PreconditionError
from klsums.field import (
    MultChar,
    _split_prime,
    additive_char_vector,
    build_field,
    eval_additive,
    eval_char,
    gauss_sum,
)
from klsums.kloosterman import (
    fourier_identity_check,
    kl_table_fast,
    kl_table_naive,
    table_agreement,
)



def test_kl1_is_twisted_additive(f13):
    t = CharTuple(f13, (3,))
    tab = kl_table_fast(f13, t)
    for x in range(1, 13):
        expected = eval_char(MultChar(f13, 3), x) * eval_additive(f13, 1, x)
        assert tab.value(x) == pytest.approx(expected, abs=1e-12)
        assert kl_table_naive(f13, t).value(x) == pytest.approx(expected, abs=1e-12)


def test_kl2_q5_frozen_value(f5):
    # direct enumeration over y in F_5^x: pairs y + 1/y land in {2, 0, 0, 3}
    expected = (2 + 2 * math.cos(4 * math.pi / 5)) / math.sqrt(5)
    t = CharTuple(f5, (0, 0))
    assert kl_table_naive(f5, t).value(1).real == pytest.approx(expected, abs=1e-12)
    assert abs(kl_table_naive(f5, t).value(1).imag) < 1e-12
    assert kl_table_fast(f5, t).value(1) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.1708203932499369, abs=1e-12)


def test_kl3_q7_triple_loop_oracle(f7):
    # literal triple loop over y1*y2*y3 = x, no package calls
    def oracle(x):
        acc = 0j
        for y1 in range(1, 7):
            for y2 in range(1, 7):
                for y3 in range(1, 7):
                    if y1 * y2 * y3 % 7 == x:
                        acc += cmath.exp(2j * cmath.pi * ((y1 + y2 + y3) % 7) / 7)
        return acc / 7

    t = CharTuple(f7, (0, 0, 0))
    tab = kl_table_fast(f7, t)
    for x in range(1, 7):
        assert kl_table_naive(f7, t).value(x) == pytest.approx(oracle(x), abs=1e-10)
        assert tab.value(x) == pytest.approx(oracle(x), abs=1e-10)


def residue_gather(field, t, x):
    """Kl_k(x) for k <= 3 by enumeration over residues: y_1..y_{k-1} run
    over F_q^x (y_1 in blocks of 64 at k = 3), y_k = x / (y_1...y_{k-1})
    is read from a table of pow(y, -1, q), the additive character is gathered at
    (y_1 + ... + y_k) mod q and each nontrivial character at its y_i.  The
    oracle of the naive table's log-coordinate convolutions: it shares only
    the field's character vectors with them."""
    q = field.q
    x %= q
    k = t.k
    psi = additive_char_vector(field)
    chis = [(i, MultChar(field, a).values_by_residue()) for i, a in enumerate(t.indices) if a]
    y = np.arange(1, q, dtype=np.int64)
    inv = np.array([0] + [pow(v, -1, q) for v in range(1, q)], dtype=np.int64)
    if k == 3:
        blocks = [[y[lo:lo + 64, None], y[None, :]] for lo in range(0, q - 1, 64)]
    else:
        blocks = [[y] * (k - 1)]
    partials = []
    for free in blocks:
        prod = 1
        for yi in free:
            prod = prod * yi % q
        ys = [*free, x * inv[prod] % q]
        terms = psi[sum(ys) % q]
        for i, chi in chis:
            terms *= chi[ys[i]]
        partials.append(complex(np.sum(terms)))
    return complex(math.fsum(z.real for z in partials),
                   math.fsum(z.imag for z in partials)) / q ** ((k - 1) / 2)


@pytest.mark.parametrize("q", [3, 5, 7, 13, 101, 1009])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_pointwise_matches_residue_gather(q, k):
    """The naive table at every slot nontrivial at once, then a nontrivial
    character on one slot at a time; x in {1, 2, q - 1} and two random
    points."""
    f = build_field(q)
    rng = np.random.Generator(np.random.PCG64([q, k]))
    every = [int(a) for a in rng.integers(1, q - 1, size=k)]
    tuples = [tuple(every)] + [tuple(a if i == j else 0 for i, a in enumerate(every)) for j in range(k)]
    xs = [1, 2, q - 1, *(int(v) for v in rng.integers(1, q, size=2))]
    for idx in tuples:
        t = CharTuple(f, idx)
        for x in xs:
            assert kl_table_naive(f, t).value(x) == pytest.approx(residue_gather(f, t, x), abs=1e-12), (idx, x)


def test_residue_gather_matches_literal_loop():
    """The oracle itself against a literal double loop at q = 7, a
    nontrivial character on every slot."""
    q, g, idx = 7, 3, (1, 2, 5)
    log = {pow(g, m, q): m for m in range(q - 1)}

    def term(ys):
        phase = sum(a * log[y] for a, y in zip(idx, ys)) / (q - 1) + sum(ys) / q
        return cmath.exp(2j * cmath.pi * phase)

    f = build_field(q)
    assert f.g == g
    t = CharTuple(f, idx)
    for x in range(1, q):
        want = sum(term((y1, y2, x * pow(y1 * y2, -1, q) % q))
                   for y1 in range(1, q) for y2 in range(1, q)) / q
        assert residue_gather(f, t, x) == pytest.approx(want, abs=1e-12), x


def test_pointwise_matches_residue_gather_property():
    """The naive table equals the residue-gather oracle over primes below 300,
    k in {1, 2, 3}, any characters and any x != 0 (reduced mod q or not)."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    primes = [p for p in range(3, 300) if all(p % d for d in range(2, int(p**0.5) + 1))]

    def case(q):
        return st.tuples(
            st.just(q),
            st.integers(1, 3).flatmap(lambda k: st.lists(st.integers(0, q - 2), min_size=k, max_size=k)),
            st.integers(1, 3 * q).filter(lambda x: x % q),
        )

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from(primes).flatmap(case))
    @hyp.example((3, [1, 1, 1], 2))
    @hyp.example((293, [1, 291, 146], 292))
    def check(c):
        q, chars, x = c
        f = build_field(q)
        t = CharTuple(f, tuple(chars))
        assert kl_table_naive(f, t).value(x) == pytest.approx(residue_gather(f, t, x), abs=1e-12), c

    check()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_fast_vs_naive_q101(f101, k):
    rng = np.random.Generator(np.random.PCG64(k))
    for trial in range(3):
        idx = (0,) * k if trial == 0 else tuple(int(v) for v in rng.integers(0, 100, size=k))
        t = CharTuple(f101, idx)
        assert table_agreement(kl_table_fast(f101, t), kl_table_naive(f101, t)) <= 1e-9


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_fast_vs_naive_smallest_fields(q, k):
    """Every tuple of length k at q = 3 and q = 5, nontrivial characters
    included, at scales 1 and q - 1."""
    f = build_field(q)
    for idx in itertools.product(range(q - 1), repeat=k):
        t = CharTuple(f, idx)
        for a in (1, q - 1):
            assert table_agreement(kl_table_fast(f, t, a), kl_table_naive(f, t, a)) <= 1e-9, idx


@pytest.mark.parametrize("q", [3, 13, 101])
def test_kl1_table_is_exactly_chi_psi(q):
    f = build_field(q)
    psi = additive_char_vector(f)
    for a in range(0, q - 1, max(1, (q - 1) // 7)):
        expected = np.zeros(q, dtype=np.complex128)
        expected[f.exp] = MultChar(f, a).values_by_log() * psi[f.exp]
        assert np.array_equal(kl_table_fast(f, CharTuple(f, (a,))).values, expected), a


def test_fast_vs_pointwise_nontrivial_chars(f13):
    t = CharTuple(f13, (1, 6, 4))
    tab = kl_table_fast(f13, t)
    for x in (1, 5, 12):
        assert tab.value(x) == pytest.approx(kl_table_naive(f13, t).value(x), abs=1e-10)


@pytest.mark.parametrize("chars", [(0, 0), (5, 17), (0, 0, 0), (1, 5, 9)])
def test_fast_vs_pointwise_split_field(chars):
    """At q = 4099 (4098 = 6*683) the spectrum and the table's inverse
    transform both take log_dft's prime-factor split; the naive table
    reads neither."""
    q = 4099
    f = build_field(q)
    assert _split_prime(f) == 683
    t = CharTuple(f, chars)
    tab = kl_table_fast(f, t)
    for x in (1, 2, 683, q - 1, 1234):
        assert tab.value(x) == pytest.approx(kl_table_naive(f, t).value(x), abs=1e-10), x


def test_pointwise_literal_oracle_nontrivial_chars():
    """The naive table against a literal nested loop over y1*y2*y3 = x whose
    characters come from discrete logs found by pow, no package calls."""
    q, g, idx = 13, 2, (1, 6, 4)
    log = {pow(g, m, q): m for m in range(q - 1)}

    def chi(a, y):
        return cmath.exp(2j * cmath.pi * a * log[y] / (q - 1))

    def oracle(x):
        acc = 0j
        for y1 in range(1, q):
            for y2 in range(1, q):
                for y3 in range(1, q):
                    if y1 * y2 * y3 % q == x:
                        acc += (chi(idx[0], y1) * chi(idx[1], y2) * chi(idx[2], y3)
                                * cmath.exp(2j * cmath.pi * (y1 + y2 + y3) / q))
        return acc / q

    f = build_field(q)
    assert f.g == g
    t = CharTuple(f, idx)
    for x in range(1, q):
        assert kl_table_naive(f, t).value(x) == pytest.approx(oracle(x), abs=1e-12), x


def test_scale_is_index_permutation(f101):
    t = CharTuple(f101, (0, 5))
    t1 = kl_table_fast(f101, t, 1)
    for a in (2, f101.g, 100):
        ta = kl_table_fast(f101, t, a)
        perm = t1.values[(a * np.arange(101)) % 101]
        assert np.array_equal(ta.values, perm)
    # scale-a table really holds x -> Kl(a*x): spot-check against the naive table
    t3 = kl_table_fast(f101, t, 3)
    for x in (1, 7, 50):
        assert t3.value(x) == pytest.approx(kl_table_naive(f101, t).value(3 * x % 101), abs=1e-10)


def test_scale_zero_rejected(f13):
    with pytest.raises(PreconditionError):
        kl_table_fast(f13, CharTuple(f13, (0, 0)), 0)
    with pytest.raises(PreconditionError):
        kl_table_naive(f13, CharTuple(f13, (0, 0)), 13)


def test_value_at_zero_is_zero(f13):
    tab = kl_table_fast(f13, CharTuple(f13, (0, 0)))
    assert tab.value(0) == 0
    assert tab.value(13) == 0


def test_deligne_bound_sweep():
    rng = np.random.Generator(np.random.PCG64(77))
    for q in (13, 101, 199):
        f = build_field(q)
        for k in (2, 3, 4):
            for trial in range(3):
                idx = (0,) * k if trial == 0 else tuple(int(v) for v in rng.integers(0, q - 1, size=k))
                tab = kl_table_fast(f, CharTuple(f, idx))
                assert tab.max_abs() <= k + 1e-9


def test_classical_kloosterman_real():
    for q in (13, 101):
        f = build_field(q)
        tab = kl_table_fast(f, CharTuple(f, (0, 0)))
        assert np.max(np.abs(tab.values.imag)) < 1e-10


def test_salie_bound(f13):
    # Kummer-induced tuples still satisfy the rank bound
    tab = kl_table_fast(f13, CharTuple(f13, (0, 6)))
    assert tab.max_abs() <= 2 + 1e-9


def test_fourier_identity_k1(f13):
    tab = kl_table_fast(f13, CharTuple(f13, (2,)))
    lam = MultChar(f13, 5)
    lhs, rhs, diff = fourier_identity_check(tab, lam)
    assert lhs == pytest.approx(gauss_sum(MultChar(f13, 7)), abs=1e-10)
    assert diff < 1e-10


def test_fourier_identity_trivial_lambda_q13(f13):
    # both sides equal tau(1)^2 / sqrt(13) = 1/sqrt(13)
    tab = kl_table_fast(f13, CharTuple(f13, (0, 0)))
    lhs, rhs, diff = fourier_identity_check(tab, MultChar(f13, 0))
    assert rhs == pytest.approx(1 / math.sqrt(13), abs=1e-12)
    assert diff < 1e-10


def test_fourier_identity_k3_random_lambdas(f13):
    tab = kl_table_fast(f13, CharTuple(f13, (0, 0, 6)))
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(10):
        lam = MultChar(f13, int(rng.integers(0, 12)))
        _, _, diff = fourier_identity_check(tab, lam)
        assert diff <= 1e-9


def test_fourier_identity_requires_scale_one(f13):
    tab = kl_table_fast(f13, CharTuple(f13, (0, 0)), 2)
    with pytest.raises(PreconditionError, match="^fourier_identity_check needs a table with "
                                                "scale 1, got scale=2 at q=13$"):
        fourier_identity_check(tab, MultChar(f13, 0))


@pytest.mark.parametrize("chars,q", [((0, 0), 1009), ((1, 5), 1009), ((0, 0), 4099), ((1, 5), 4099)],
                         ids=["chars0", "chars1", "chars0-4099", "chars1-4099"])
def test_kmat_build_holds_kmat_and_logs(chars, q):
    """Building a fresh kmat, real and complex, costs its own bytes plus
    logs, the log table doubled and a zero window (3 (q - 1) entries), the
    field's dlog with its first block_rows - 1 entries repeated (q + rows
    int64s), and 4 KiB for small arrays: one gather of windows, with no
    row-block buffer.  kmat[x, sigma] = K((x % q) g^sigma)."""
    f = build_field(q)
    table = kl_table_fast(f, CharTuple(f, chars))
    kernel = sums._kernel(table)  # a float64 view for the real table
    tracemalloc.start()
    try:
        kmat = sums._kmat(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kmat.dtype == (np.float64 if chars == (0, 0) else np.complex128)
    rows = sums._block_rows(q)
    assert kmat.shape == (q + rows - 1, q - 1)
    assert peak <= kmat.nbytes + 3 * (q - 1) * kmat.itemsize + 8 * (q + rows) + 2**12
    x = np.arange(q + rows - 1, dtype=np.int64) % q
    for lo in range(0, q + rows - 1, 256):  # the oracle in row blocks, with no q x q index
        assert np.array_equal(kmat[lo:lo + 256], kernel[x[lo:lo + 256, None] * f.exp % q])


def test_table_hashes_and_compares_by_identity(f13):
    """Two tables of the same tuple and scale are distinct keys: == is
    identity and hash is defined, with no comparison of the arrays."""
    t, u = (kl_table_fast(f13, CharTuple(f13, (1, 5))) for _ in range(2))
    assert np.array_equal(t.values, u.values)
    assert t == t and t != u
    assert len({t, u, t}) == 2 and hash(t) == hash(t)


def test_values_immutable(f13):
    tab = kl_table_fast(f13, CharTuple(f13, (0, 0)))
    with pytest.raises(ValueError):
        tab.values[1] = 0
