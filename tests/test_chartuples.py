"""Classification tests, cross-checked against a literal brute-force
classifier that enumerates divisors and dualizing characters straight from
the definition, and the coset test for Kummer induction against a greedy
search that peels off one fiber of a -> d*a at a time."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from klsums.chartuples import (
    CharTuple,
    KummerWitness,
    cgm_twist_from_nio,
    classify_tuple,
    dualizing_characters,
    is_kummer_induced,
    kl_value_kind,
)
from klsums.errors import PreconditionError
from klsums.field import build_field
from klsums.kloosterman import kl_table_fast
from klsums.serialize import jsonify

from conftest import primes_up_to


# --- literal oracle, written independently from the definition --------------


def oracle_kummer(indices, n):
    """True iff the multiset is a union of full fibers of a -> d*a for some
    d | k, d != 1.  Enumerates ALL tuples of fiber base points."""
    k = len(indices)
    target = Counter(indices)
    for d in range(2, k + 1):
        if k % d != 0:
            continue
        base_points = [e for e in range(n) if any(d * a % n == e for a in range(n))]
        for xi in itertools.combinations_with_replacement(base_points, k // d):
            acc = Counter()
            for e in xi:
                acc.update(a for a in range(n) if d * a % n == e)
            if acc == target:
                return True
    return False


def fiber(d, xi_index, n):
    """Indices a with d*a = xi_index mod n, i.e. the d-th power fiber over xi."""
    g = math.gcd(d, n)
    if xi_index % g != 0:
        return None
    # one solution of d*a = xi (mod n), then translate by the kernel n/g * t
    a0 = (xi_index // g) * pow(d // g, -1, n // g) % (n // g)
    return sorted((a0 + (n // g) * t) % n for t in range(g))


def peel_kummer(indices, n):
    """(flag, witness) by greedy peeling: for each d | k with d | n, remove
    the fiber through the smallest remaining index until the multiset is
    empty (distinct fibers are disjoint, so greedy peeling is exact) or a
    fiber is missing."""
    k = len(indices)
    for d in range(2, k + 1):
        if k % d != 0 or n % d != 0:
            continue
        remaining = Counter(indices)
        xi_list = []
        while remaining:
            a = min(remaining)
            fib = fiber(d, d * a % n, n)
            if any(remaining[b] < 1 for b in fib):
                break
            remaining.subtract(fib)
            remaining = +remaining
            xi_list.append(d * a % n)
        else:
            return True, KummerWitness(d=d, xi_indices=tuple(sorted(xi_list)))
    return False, None


def check_kummer_witness(t, w):
    """The multiset of the witness fibers reproduces the tuple exactly."""
    n = t.field.q - 1
    acc = Counter()
    for e in w.xi_indices:
        fib = fiber(w.d, e, n)
        if fib is None:
            return False
        acc.update(fib)
    return acc == Counter(t.indices)


def oracle_dualizing(indices, n):
    ms = Counter(indices)
    out = []
    k = len(indices)
    lam = sum(indices) % n
    for e in range(n):
        if Counter((e - a) % n for a in indices) == ms:
            alt = k % 2 == 0 and (e * (k // 2)) % n == lam
            out.append((e, "alternating" if alt else "symmetric"))
    return out


def oracle_nio(indices, n):
    k = len(indices)
    if oracle_kummer(indices, n):
        return False
    if k % 2 == 1:
        return True
    return not any(tag == "symmetric" for _, tag in oracle_dualizing(indices, n))


def oracle_cgm(indices, n):
    k = len(indices)
    if oracle_kummer(indices, n):
        return False
    if sum(indices) % n != 0:
        return False
    duals = oracle_dualizing(indices, n)
    if k % 2 == 1 or not duals:
        return True
    return any(e == 0 and tag == "alternating" for e, tag in duals)


# --- exhaustive cross-checks -------------------------------------------------


@pytest.mark.parametrize("q,k", [(5, 1), (5, 2), (5, 3), (7, 2), (7, 3), (13, 2), (13, 3)])
def test_exhaustive_cross_check(q, k):
    f = build_field(q)
    n = q - 1
    for idx in itertools.product(range(n), repeat=k):
        t = CharTuple(f, idx)
        rep = classify_tuple(t)
        assert rep.kummer_induced == oracle_kummer(idx, n), idx
        assert sorted(rep.dualizing) == sorted(oracle_dualizing(idx, n)), idx
        assert rep.nio == oracle_nio(idx, n), idx
        assert rep.cgm == oracle_cgm(idx, n), idx
        if rep.kummer_induced:
            assert check_kummer_witness(t, rep.kummer_witness)


def kummer_cases():
    """(q, indices, d) for primes q < 200 and k <= 6: random multisets, which
    are almost never induced, and unions of k/d random fibers of a -> d*a
    (then d is set and the tuple is induced), shuffled."""
    st = pytest.importorskip("hypothesis.strategies")

    def case(q):
        n = q - 1

        def fibers(k, d):
            base = st.lists(st.integers(0, n - 1), min_size=k // d, max_size=k // d)
            union = base.map(lambda b: [(a + j * (n // d)) % n for a in b for j in range(d)])
            return st.tuples(st.just(q), union.flatmap(st.permutations), st.just(d))

        def tuples(k):
            rand = st.tuples(st.just(q), st.lists(st.integers(0, n - 1), min_size=k, max_size=k),
                             st.none())
            ds = [d for d in range(2, k + 1) if k % d == 0 and n % d == 0]
            if not ds:
                return rand
            return st.one_of(rand, st.sampled_from(ds).flatmap(lambda d: fibers(k, d)))

        return st.integers(1, 6).flatmap(tuples)

    return st.sampled_from(primes_up_to(200)[1:]).flatmap(case)


def test_kummer_coset_test_matches_peeling():
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=400, deadline=None, derandomize=True)
    @hyp.given(kummer_cases())
    @hyp.example((3, [0, 1], 2))  # q = 3: the Salie pair
    @hyp.example((197, [0, 49, 98, 147], 4))  # also a union of two fibers of d = 2
    @hyp.example((7, [0, 2, 4, 0, 2, 4], 3))
    @hyp.example((13, [1, 7, 1, 7, 1, 5], None))
    def check(case):
        q, idx, d = case
        t = CharTuple(build_field(q), tuple(idx))
        flag, witness = is_kummer_induced(t)
        assert (flag, witness) == peel_kummer(idx, q - 1)
        if d is not None:
            assert flag and witness.d <= d
        if flag:
            assert check_kummer_witness(t, witness)

    check()


# --- pinned examples ---------------------------------------------------------


def test_salie_is_kummer_induced(f5):
    flag, witness = is_kummer_induced(CharTuple(f5, (0, 2)))
    assert flag and witness.d == 2


def test_double_trivial_not_kummer_induced(f5):
    # the fiber of squaring above the trivial character is {1, chi_(2)}, not {1, 1}
    flag, _ = is_kummer_induced(CharTuple(f5, (0, 0)))
    assert not flag


def test_k_coprime_to_group_order(f7):
    # k = 5 has no divisor d != 1 with d | q-1 = 6, so never Kummer-induced
    flag, _ = is_kummer_induced(CharTuple(f7, (1, 2, 3, 4, 5)))
    assert not flag


def test_all_trivial_has_nio():
    for q, k in [(5, 2), (5, 3), (7, 4), (13, 5)]:
        f = build_field(q)
        assert classify_tuple(CharTuple(f, (0,) * k)).nio


def test_classical_kloosterman_cgm(f5):
    rep = classify_tuple(CharTuple(f5, (0, 0)))
    assert rep.dualizing == [(0, "alternating")]
    assert rep.cgm and rep.nio


def test_odd_k_nio_iff_not_induced(f13):
    for idx in [(0, 0, 1), (1, 2, 3), (0, 5, 5)]:
        t = CharTuple(f13, idx)
        rep = classify_tuple(t)
        assert rep.nio == (not rep.kummer_induced)


def test_permutation_invariance(f13):
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(50):
        k = int(rng.integers(2, 5))
        idx = tuple(int(v) for v in rng.integers(0, 12, size=k))
        perm = tuple(idx[i] for i in rng.permutation(k))
        a, b = classify_tuple(CharTuple(f13, idx)), classify_tuple(CharTuple(f13, perm))
        assert (a.nio, a.cgm, a.kummer_induced) == (b.nio, b.cgm, b.kummer_induced)
        assert sorted(a.dualizing) == sorted(b.dualizing)


@pytest.mark.parametrize("q", [5, 7, 13])
def test_twist_preserves_kummer_induced(q):
    f = build_field(q)
    n = q - 1
    rng = np.random.Generator(np.random.PCG64(9))
    for _ in range(200):
        k = int(rng.integers(2, 4))
        idx = tuple(int(v) for v in rng.integers(0, n, size=k))
        a0 = int(rng.integers(0, n))
        t = CharTuple(f, idx)
        assert is_kummer_induced(t)[0] == is_kummer_induced(t.twist(a0))[0]


@pytest.mark.parametrize("q,k", [(5, 2), (5, 3), (7, 2), (7, 3), (13, 2), (13, 3)])
def test_lemma_how_to_twist(q, k):
    """Every NIO tuple whose required root character exists over F_q twists to CGM."""
    f = build_field(q)
    n = q - 1
    checked = 0
    for idx in itertools.product(range(n), repeat=k):
        t = CharTuple(f, idx)
        if not classify_tuple(t).nio:
            continue
        twisted = cgm_twist_from_nio(t)
        if twisted is None:
            continue  # needs an extension field: out of scope
        checked += 1
        assert classify_tuple(twisted).cgm, idx
    assert checked > 0


def test_cgm_twist_requires_nio(f5):
    with pytest.raises(PreconditionError, match=r"^tuple does not have NIO: chars=\(0, 2\) at q=5$"):
        cgm_twist_from_nio(CharTuple(f5, (0, 2)))  # Salie: not NIO


def test_empty_tuple_refused(f13):
    with pytest.raises(PreconditionError, match="^need k >= 1 characters, got k=0 at q=13$"):
        CharTuple(f13, ())


def test_report_json_fields(f5):
    data = jsonify(classify_tuple(CharTuple(f5, (0, 0))))
    assert set(data) == {
        "lambda_index",
        "kummer_induced",
        "kummer_witness",
        "dualizing",
        "nio",
        "cgm",
        "mixed_duality",
    }
    assert data["dualizing"][0] == {"xi_index": 0, "tag": "alternating"}


def test_empty_tuple_rejected(f5):
    with pytest.raises(PreconditionError):
        CharTuple(f5, ())


def test_mixed_duality_flagged(f5):
    assert classify_tuple(CharTuple(f5, (0, 2))).mixed_duality


def test_dualizing_direct(f13):
    # self-dual with xi = chi1*chi2 always holds for k = 2
    for idx in [(0, 0), (1, 3), (5, 2)]:
        duals = dualizing_characters(CharTuple(f13, idx))
        assert any(e == sum(idx) % 12 for e, _ in duals)


def test_dualizing_matches_full_loop_in_order():
    # seeded tuples for q <= 41, k <= 6; every other one forced self-dual:
    # pairs (a, e - a), plus a middle c with e = 2c when k is odd
    rng = np.random.Generator(np.random.PCG64(3))
    primes = primes_up_to(41)[1:]
    for q in primes:
        f = build_field(q)
        n = q - 1
        for k in range(1, 7):
            for i in range(12):
                idx = [int(a) for a in rng.integers(0, n, size=k)]
                if i % 2:
                    c = int(rng.integers(0, n))
                    e = 2 * c if k % 2 else int(rng.integers(0, n))
                    half = idx[: k // 2]
                    idx = half + [c] * (k % 2) + [(e - a) % n for a in half]
                    assert oracle_dualizing(idx, n), idx
                assert dualizing_characters(CharTuple(f, idx)) == oracle_dualizing(idx, n), (q, idx)


def test_dualizing_at_large_q():
    f = build_field(1000003)
    assert dualizing_characters(CharTuple(f, (1, 5))) == [(6, "alternating")]
    assert dualizing_characters(CharTuple(f, (1, 2, 3))) == [(4, "symmetric")]


# --- value kind: the rule from the tuple against the tables ------------------


def value_kind_cases(q):
    """Named tuples at k = 2, 3, 4 (h = (q - 1)/2), seeded tuples closed
    under negation, self-dual under a -> e - a for e != 0 and not closed
    under negation, and seeded tuples with no structure."""
    n = q - 1
    h = n // 2
    rng = np.random.Generator(np.random.PCG64(q))
    named = [(0, 0), (h, h), (3, -3), (0, h), (1, -1), (3, 7), (1, 3), (0, 0, 0), (0, 1, -1),
             (0, h, h), (1, 5, 9), (0, 0, 0, 0), (1, -1, h, h), (1, -1, 0, h), (3, -3, 7, -7),
             (3, 7, -7, -3), (1, 2, 3, 4), (1, 5, 2, 4)]
    cases = [tuple(a % n for a in idx) for idx in named]
    for k in (2, 4):
        for _ in range(6):
            half = [int(a) for a in rng.integers(0, n, size=k // 2)]
            cases.append(tuple(half + [-a % n for a in half]))
            e = int(rng.integers(1, n))
            cases.append(tuple(half + [(e - a) % n for a in half]))
    for k in (2, 3, 4):
        cases += [tuple(int(a) for a in rng.integers(0, n, size=k)) for _ in range(4)]
    return cases


@pytest.mark.parametrize("q", [101, 103])
def test_value_kind_matches_tables(q):
    """kl_value_kind, read from the tuple alone, against max |Im K| and
    max |Re K| of the fast table: the part the rule says vanishes is within
    1e-12, and a complex table has both parts of size.  The table's kernel
    reproduces its values: kappa for a real table, i kappa for an imaginary
    one, the values themselves for a complex one."""
    f = build_field(q)
    seen = Counter()
    for idx in value_kind_cases(q):
        t = CharTuple(f, idx)
        kind = kl_value_kind(t)
        seen[kind] += 1
        table = kl_table_fast(f, t, 3)
        re, im = (float(np.max(np.abs(part))) for part in (table.values.real, table.values.imag))
        assert (im <= 1e-12, re <= 1e-12) == (kind == "real", kind == "imaginary"), (idx, kind, re, im)
        assert kind != "complex" or min(re, im) > 0.1, (idx, re, im)
        unit = {"real": 1, "imaginary": 1j}.get(kind)
        if unit is None:
            assert table.kernel is table.values
        else:
            assert table.kernel.dtype == np.float64 and not table.kernel.flags.writeable
            assert float(np.max(np.abs(unit * table.kernel - table.values))) <= 1e-12, idx
    # Salie (0, h) and (1, -1, 0, h) are imaginary exactly when q = 3 mod 4
    assert seen["imaginary"] >= (2 if q % 4 == 3 else 0) and seen["real"] >= 10 and seen["complex"] >= 20


def test_value_kind_pinned(f7, f13):
    """A pair (a, -a) adds q - 1 to the index sum, so only an odd count of
    h = (q - 1)/2 makes the sign odd: no tuple is imaginary at q = 1 mod 4."""
    def kinds(f, tuples):
        return [kl_value_kind(CharTuple(f, idx)) for idx in tuples]

    assert kinds(f13, [(0, 0), (6, 6), (3, 9), (0, 6), (1, 11, 0, 6), (3, 7), (1, 3), (0, 1, 11),
                       (2,)]) == ["real"] * 5 + ["complex"] * 4
    assert kinds(f7, [(0, 3), (1, 5, 0, 3), (3, 3), (2, 4), (0, 0, 0)]) == [
        "imaginary", "imaginary", "real", "real", "complex"]
