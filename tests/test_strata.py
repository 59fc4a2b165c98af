"""Stratification tests.

The key oracle here is an independent symbolic expansion of the resolvent
product for k = 2, written with plain integer dict-polynomials over Z
(no numpy, no quotient-ring shortcut): expand the product of all sign
patterns as a multivariate polynomial in x_1..x_{2l}, check every exponent
is even, substitute x_i^2 = r + b_i, and reduce mod q.  For k >= 2 the
fiber count z(b) and the coefficients of P_b (up to one sign per shape) are
checked against iterated resultants over GF(q) (sympy), which never form
the quotient ring or pick a root of unity.
"""

import itertools
import types
from collections import Counter

import numpy as np
import pytest

from klsums import polyfq, strata
from klsums.errors import (
    DegenerateFiberError,
    InternalConsistencyError,
    PreconditionError,
    ResourceLimitError,
)
from klsums.field import build_field
from klsums.strata import (
    box_count_variety,
    diagonal_box_count,
    generic_z_bound,
    generic_z_value,
    is_diagonal,
    singular_polynomial,
    stratum_scan,
    z_fiber_count,
)

from conftest import primes_up_to


# --- independent k = 2 oracle ------------------------------------------------


def oracle_poly_k2(b, q):
    """P_b over F_q for k = 2 via literal expansion over Z."""
    n = len(b)
    prod = {(0,) * n: 1}  # exponent tuple -> integer coefficient
    for signs in itertools.product((1, -1), repeat=n):
        coeffs = [s if i < n // 2 else -s for i, s in enumerate(signs)]
        new = {}
        for e, c in prod.items():
            for i, ci in enumerate(coeffs):
                e2 = list(e)
                e2[i] += 1
                e2 = tuple(e2)
                new[e2] = new.get(e2, 0) + c * ci
        prod = {e: c for e, c in new.items() if c != 0}
    assert all(all(ei % 2 == 0 for ei in e) for e in prod)
    # substitute x_i^2 = r + b_i: each monomial becomes prod_i (r+b_i)^{e_i/2}
    out = []
    for e, c in prod.items():
        term = polyfq.trim([c % q])
        for i, ei in enumerate(e):
            for _ in range(ei // 2):
                term = polyfq.mul(term, [b[i] % q, 1], q)
        out += [0] * (len(term) - len(out))
        for j, t in enumerate(term):
            out[j] = (out[j] + t) % q
    return polyfq.trim(out)


def test_independent_expansion_oracle_l1(f97):
    for b in [(3, 7), (10, 96), (0, 5)]:
        got = singular_polynomial(f97, 2, b)
        want = oracle_poly_k2(b, 97)
        assert got == want == [(b[0] - b[1]) ** 2 % 97]


def test_independent_expansion_oracle_l2(f97):
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(3):
        b = tuple(int(v) for v in rng.integers(0, 97, size=4))
        got = singular_polynomial(f97, 2, b)
        want = oracle_poly_k2(b, 97)
        assert got == want, b


def test_singular_poly_diagonal_vanishes(f97):
    assert singular_polynomial(f97, 2, (5, 5)) == []
    assert singular_polynomial(f97, 2, (3, 8, 3, 8)) == []


def test_singular_poly_symmetry(f97):
    # invariance under permuting 1..l and l+1..2l separately
    base = singular_polynomial(f97, 2, (3, 7, 11, 2))
    assert base == singular_polynomial(f97, 2, (7, 3, 11, 2))
    assert base == singular_polynomial(f97, 2, (3, 7, 2, 11))


def test_preconditions():
    f11 = build_field(11)
    with pytest.raises(PreconditionError, match="not 1 mod k"):
        singular_polynomial(f11, 3, (1, 2))  # 10 is not divisible by 3
    with pytest.raises(PreconditionError, match="headroom"):
        singular_polynomial(build_field(5), 2, (1, 2, 3, 4))  # 5 <= 4 + 8
    with pytest.raises(ResourceLimitError):
        singular_polynomial(build_field(29), 7, (1,) * 6)  # 7^6 > 10^4
    with pytest.raises(PreconditionError):
        singular_polynomial(build_field(13), 2, (1, 2, 3))  # odd length


def test_b_must_be_integral():
    """The strata share the complete sums' rule for b: non-integral, NaN and
    out-of-int64 entries are refused, not truncated; integral floats pass."""
    f = build_field(101)
    too_big = (np.array([2**63, 1, 2, 3], dtype=np.uint64), (2.0**63, 1.0, 2.0, 3.0))
    for bad in ((1.7, 2.2, 3.9, 4.0), (float("nan"), 1.0, 2.0, 3.0), (2**70, 1, 2, 3), *too_big):
        for call in (z_fiber_count, singular_polynomial):
            with pytest.raises(PreconditionError, match="must be integers"):
                call(f, 2, bad)
    b = (1.0, 2.0, 3.0, 4.0)
    assert z_fiber_count(f, 2, b) == z_fiber_count(f, 2, (1, 2, 3, 4))
    assert singular_polynomial(f, 2, b) == singular_polynomial(f, 2, (1, 2, 3, 4))


def test_zcount_l1_is_two(f97):
    for b in [(3, 7), (0, 1), (50, 96)]:
        rep = z_fiber_count(f97, 2, b)
        assert rep.z_count == 2
        assert rep.deg_P == 0
        assert not is_diagonal(rep.b)


def test_zcount_l1_exhaustive_q13(f13):
    for b1 in range(13):
        for b2 in range(13):
            if b1 == b2:
                with pytest.raises(DegenerateFiberError):
                    z_fiber_count(f13, 2, (b1, b2))
            else:
                assert z_fiber_count(f13, 2, (b1, b2)).z_count == 2


def test_root_set_sanity(f97):
    b = (3, 7, 11, 2)
    p = singular_polynomial(f97, 2, b)
    hyper_roots = {(-bi) % 97 for bi in b}
    full = p
    for bi in b:
        full = polyfq.mul(full, [bi, 1], 97)
    for r in hyper_roots:
        val = 0
        for j, c in enumerate(full):
            val = (val + c * pow(r, j, 97)) % 97
        assert val == 0


def test_diagonal_examples():
    assert is_diagonal((3, 3, 7, 7))
    assert not is_diagonal((3, 3, 7, 8))
    assert is_diagonal((4, 4))
    assert is_diagonal((1, 1, 1, 1))


def test_diagonal_k2_degenerates(f97):
    with pytest.raises(DegenerateFiberError):
        z_fiber_count(f97, 2, (5, 5, 9, 9))


def test_diagonal_k3_not_degenerate():
    # -1 is not a cube root of unity, so same-side pairings cannot kill a form
    f37 = build_field(37)
    rep = z_fiber_count(f37, 3, (5, 5, 9, 9))
    assert is_diagonal(rep.b)
    assert rep.deg_P == 12
    assert rep.z_count == 4


def test_coordinate_merge_never_increases_zcount(f97):
    rng = np.random.Generator(np.random.PCG64(3))
    tested = 0
    while tested < 100:
        b = rng.integers(0, 97, size=4)
        if len(set(b.tolist())) != 4:
            continue
        merged = b.copy()
        merged[1] = merged[0]
        try:
            z0 = z_fiber_count(f97, 2, b).z_count
            z1 = z_fiber_count(f97, 2, merged).z_count
        except DegenerateFiberError:
            continue
        tested += 1
        assert z1 <= z0, (b, merged)


TRUE_GENERIC = {(2, 2): 5, (3, 2): 8, (2, 3): 12}


@pytest.mark.parametrize("k,l", sorted(TRUE_GENERIC))
def test_generic_zcount_true_values(k, l):
    """Measured generic |Z_b|; the values equal the closed form
    2l + k^(2l-2) - V(k,l) and agree with iterated resultants over GF(499),
    both checked by test_resultant_oracle_zcount."""
    f = build_field(499)
    res = stratum_scan(f, k, l, samples=150, seed=77)
    assert res.generic == TRUE_GENERIC[(k, l)]
    assert res.generic_fraction() >= 0.85


def resultant_poly(b, k, q):
    """(z(b), P_b) with P_b = Res_{y_1..y_2l}(sum_{i<=l} y_i - sum_{i>l} y_i,
    y_i^k - (r + b_i)) over GF(q) as ascending coefficients in [0, q), and
    z(b) the squarefree degree of P_b * prod (r + b_i)."""
    import sympy

    n = len(b)
    r = sympy.Symbol("r")
    ys = sympy.symbols(f"y1:{n + 1}")
    gens = (*ys, r)
    p = sympy.Poly(sum(ys[: n // 2]) - sum(ys[n // 2 :]), *gens, modulus=q)
    for y, bi in zip(ys, b):
        p = sympy.Poly(sympy.resultant(p.as_expr(), y**k - (r + bi), y), *gens, modulus=q)
    p = sympy.Poly(p.as_expr(), r, modulus=q)
    full = p
    for bi in b:
        full = full * sympy.Poly(r + bi, r, modulus=q)
    return full.sqf_part().degree(), polyfq.trim([int(c) % q for c in reversed(p.all_coeffs())])


def test_resultant_oracle_zcount():
    """z_fiber_count and singular_polynomial against iterated resultants at
    q = 499 on three seeded b per (k,l) plus the subgeneric merge b_2 = b_1:
    z(b), and P_b coefficient by coefficient up to one sign per shape (the
    resultant's sign convention, not the orbit sign, which is +1).  Also the
    closed form 2l + k^(2l-2) - V(k,l) against TRUE_GENERIC, with generic
    deg P_b = k * (k^(2l-2) - V(k,l)) from P_b = M^k."""
    pytest.importorskip("sympy")
    q = 499
    f = build_field(q)
    assert generic_z_bound(2, 1) == 2
    for (k, l), true_z in sorted(TRUE_GENERIC.items()):
        assert generic_z_bound(k, l) == true_z
        rng = np.random.Generator(np.random.PCG64([k, l]))
        bs = [tuple(int(v) for v in rng.integers(0, q, size=2 * l)) for _ in range(3)]
        merged = (bs[0][0], bs[0][0], *bs[0][2:])
        signs = set()
        for b in [*bs, merged]:
            z, res = resultant_poly(b, k, q)
            got = singular_polynomial(f, k, b)
            matched = {s for s in (1, -1) if got == [s * c % q for c in res]}
            signs |= matched
            assert matched and len(signs) == 1, (k, l, b, matched, signs)
            rep = z_fiber_count(f, k, b)
            assert (rep.z_count, rep.deg_P) == (z, polyfq.deg(res)), (k, l, b)
            if b in bs:
                assert z == true_z, (k, l, b)
                assert rep.deg_P == k * (true_z - 2 * l), (k, l, b)
            else:
                assert z < true_z, (k, l, b)


# --- the b axis ---------------------------------------------------------------

# (k, l, q, diagonal b, degenerate b): at k = 2 the diagonal b is degenerate;
# at k >= 3 only cross pairs (b_1..b_l a permutation of b_{l+1}..b_2l) are
BATCH_SHAPES = [
    (2, 2, 97, (5, 5, 9, 9), (3, 8, 8, 3)),
    (3, 2, 499, (5, 5, 9, 9), (5, 9, 9, 5)),
    (2, 3, 97, (1, 1, 2, 2, 3, 3), (1, 2, 3, 3, 1, 2)),
    (5, 2, 131, (7, 7, 4, 4), (7, 4, 7, 4)),
]


def batch_of(k, l, q, diagonal, degenerate, size):
    rng = np.random.Generator(np.random.PCG64([k, l, q]))
    rows = list(rng.integers(0, q, size=(size, 2 * l)))
    rows[1:1] = [diagonal, degenerate]
    return np.array(rows, dtype=np.int64)


def single_report(f, k, b):
    try:
        return z_fiber_count(f, k, b)
    except DegenerateFiberError:
        return strata.StratumReport(b=tuple(int(x) for x in b), deg_P=-1, z_count=-1)


@pytest.mark.parametrize("k,l,q,diagonal,degenerate", BATCH_SHAPES)
def test_batched_singular_polynomial_rows_match_single(k, l, q, diagonal, degenerate):
    f = build_field(q)
    bs = batch_of(k, l, q, diagonal, degenerate, 3 if k == 5 else 16)
    got = singular_polynomial(f, k, bs)
    assert isinstance(got, list) and len(got) == len(bs)
    for p, b in zip(got, bs):
        # a polyfq list: Python-int residues, trimmed
        assert type(p) is list and all(type(c) is int and 0 <= c < q for c in p), b
        assert not p or p[-1] != 0, b
        assert p == singular_polynomial(f, k, b), b
    assert got[2] == []  # the degenerate row
    assert singular_polynomial(f, k, bs[:0]) == []


@pytest.mark.parametrize("k,l,q,diagonal,degenerate", BATCH_SHAPES)
def test_batched_z_fiber_count_matches_single(k, l, q, diagonal, degenerate):
    f = build_field(q)
    bs = batch_of(k, l, q, diagonal, degenerate, 3 if k == 5 else 16)
    reports = z_fiber_count(f, k, bs)
    assert reports == [single_report(f, k, b) for b in bs]
    assert (reports[2].deg_P, reports[2].z_count) == (-1, -1)
    assert (reports[1].z_count == -1) == (k == 2)
    assert z_fiber_count(f, k, bs[:0]) == []


# --- z from P_b and the hyperplane roots it misses ------------------------------


def z_via_full_product(p, b, q):
    """deg sqfree(P_b * prod (r + b_i)): z by forming F_b.  The value depends
    only on P_b and the set of b_i, which keys the cache of the exhaustive
    test."""
    full = p
    for bi in b:
        full = polyfq.mul(full, [bi, 1], q)
    return polyfq.deg(polyfq.squarefree_part(full, q))


def hits_hyperplane_root(p, b, q):
    """Some -b_i is a root of P_b, by direct evaluation."""
    return any(sum(int(c) * pow(-bi, j, q) for j, c in enumerate(p)) % q == 0 for bi in b)


def check_z_against_full_product(f, k, bs):
    """Every z in a batch against the full-product rule; returns how many
    nondegenerate b have a hyperplane root that is also a root of P_b."""
    q, cache, hits = f.q, {}, 0
    polys = singular_polynomial(f, k, bs)
    for rep, b, p in zip(z_fiber_count(f, k, bs), bs, polys):
        if not p:
            assert rep.z_count == -1, b
            continue
        key = (tuple(p), frozenset(b.tolist()))
        if key not in cache:
            cache[key] = z_via_full_product(p, b.tolist(), q)
        assert rep.z_count == cache[key], b
        hits += hits_hyperplane_root(p, b.tolist(), q)
    return hits


def test_z_matches_full_product_exhaustive_q13(f13):
    """All of F_13^4 at (k,l) = (2,2), and the space holds b where P_b
    vanishes at some -b_i, so the rule's missed-root count is exercised."""
    bs = np.indices((13,) * 4, dtype=np.int64).reshape(4, -1).T
    assert check_z_against_full_product(f13, 2, bs) > 0


@pytest.mark.parametrize("k,l,q", [(2, 2, 97), (3, 2, 37), (2, 3, 41)])
def test_z_matches_full_product_sampled(k, l, q):
    # half the draws merge b_2 into b_1, which lands on the subgeneric strata
    f = build_field(q)
    rng = np.random.Generator(np.random.PCG64([k, l, q]))
    bs = rng.integers(0, q, size=(120, 2 * l), dtype=np.int64)
    bs[::2, 1] = bs[::2, 0]
    check_z_against_full_product(f, k, bs)


def test_single_b_degenerate_message_unchanged(f97):
    with pytest.raises(DegenerateFiberError) as exc:
        z_fiber_count(f97, 2, (5, 5, 9, 9))
    assert str(exc.value) == "P_b vanishes identically at b = (5, 5, 9, 9) (b is diagonal)"
    with pytest.raises(DegenerateFiberError) as exc:
        z_fiber_count(f97, 2, (3, 8, 8, 100))
    assert str(exc.value) == "P_b vanishes identically at b = (3, 8, 8, 3) (b is diagonal)"


def test_batch_shape_rule(f97):
    for bad in (np.zeros((3, 3), dtype=np.int64), np.zeros((2, 2, 2), dtype=np.int64)):
        for call in (z_fiber_count, singular_polynomial):
            with pytest.raises(PreconditionError, match="even length 2l >= 2, or a"):
                call(f97, 2, bad)
    with pytest.raises(PreconditionError, match="must be integers"):
        z_fiber_count(f97, 2, np.full((2, 4), 1.5))


@pytest.mark.parametrize("chunk_bytes", [1, 2**40])
def test_scan_chunk_invariance(chunk_bytes, monkeypatch):
    """One b per chunk, and one chunk for the whole scan, give the scan the
    default chunks give, through one singular_polynomial call per chunk."""
    f = build_field(499)
    want = [stratum_scan(f, k, l, samples=30, seed=9) for k, l in ((3, 2), (2, 3))]
    calls = []

    def counted(field, k, b):
        calls.append(len(b))
        return singular_polynomial(field, k, b)

    monkeypatch.setattr(strata, "RESOLVENT_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(strata, "singular_polynomial", counted)
    for (k, l), res in zip(((3, 2), (2, 3)), want):
        calls.clear()
        got = stratum_scan(f, k, l, samples=30, seed=9)
        assert got == res
        assert calls == ([1] * 30 if chunk_bytes == 1 else [30])


def test_resolvent_exact_at_largest_admitted_q():
    """At q = 2^31 - 1 a coefficient's 2n products pass 2^63, so the state
    goes through 16-bit halves; P_b and z(b) still match iterated resultants.
    The stub field carries only q and its primitive root 7, which is all the
    resolvent reads."""
    pytest.importorskip("sympy")
    q = 2**31 - 1
    f = types.SimpleNamespace(q=q, g=7)
    cases = [(2, 1, (q - 1, 3)), (2, 2, (q - 1, q - 2, 12345, 2**30 + 7)),
             (3, 2, (q - 3, 5, q - 99, 77))]
    for k, l, b in cases:
        assert 2 * 2 * l * (q - 1) ** 2 >= 2**63
        z, res = resultant_poly(b, k, q)
        got = singular_polynomial(f, k, b)
        assert any(got == [s * c % q for c in res] for s in (1, -1)), (k, b)
        assert z_fiber_count(f, k, b).z_count == z
        batch = np.array([b, b[::-1]], dtype=np.int64)
        assert singular_polynomial(f, k, batch)[0] == got
        assert z_fiber_count(f, k, batch)[0] == z_fiber_count(f, k, b)


def test_batch_matches_single_near_headroom_bound():
    """Batched singular_polynomial and z_fiber_count against single-b calls
    at the smallest primes past the separability bound 2l + k^(2l-1), on
    batches mixing random, diagonal and cross-paired (degenerate) b."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    primes = primes_up_to(200)

    def shape(kl):
        k, l = kl
        admitted = [p for p in primes if p > 2 * l + k ** (2 * l - 1) and (p - 1) % k == 0][:3]
        row = st.lists(st.integers(0, 10_000), min_size=2 * l, max_size=2 * l)
        kind = st.sampled_from(("random", "diagonal", "cross"))
        rows = st.lists(st.tuples(row, kind), min_size=1, max_size=6)
        return st.tuples(st.just(k), st.just(l), st.sampled_from(admitted), rows)

    @hyp.settings(max_examples=30, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from(((2, 1), (2, 2), (3, 2), (2, 3))).flatmap(shape))
    @hyp.example((2, 2, 13, [([1, 2, 3, 4], "random"), ([5, 9, 0, 0], "diagonal")]))
    @hyp.example((3, 2, 37, [([1, 2, 3, 4], "cross"), ([5, 9, 0, 0], "random")]))
    def check(case):
        k, l, q, rows = case
        bs = []
        for raw, kind in rows:
            b = [v % q for v in raw]
            if kind == "diagonal":  # b_1 = b_2, b_3 = b_4, ...
                b = [b[i // 2 * 2] for i in range(2 * l)]
            elif kind == "cross":  # the second half permutes the first
                b = b[:l] + b[:l][::-1]
            bs.append(b)
        bs = np.array(bs, dtype=np.int64)
        f = build_field(q)
        polys = singular_polynomial(f, k, bs)
        for p, b in zip(polys, bs):
            assert p == singular_polynomial(f, k, b), (q, b)
        assert z_fiber_count(f, k, bs) == [single_report(f, k, b) for b in bs], q

    check()


LARGER_GENERIC = [(4, 2, 509, 11), (5, 2, 521, 20), (2, 4, 499, 37)]


@pytest.mark.parametrize("k,l,q,true_z", LARGER_GENERIC)
def test_generic_zcount_larger_shapes(k, l, q, true_z):
    """Seeded scans at the shapes beyond TRUE_GENERIC attain the closed form
    2l + k^(2l-2) - V(k,l), and no b exceeds it."""
    res = stratum_scan(build_field(q), k, l, samples=30, seed=77)
    assert res.generic == true_z == generic_z_bound(k, l)
    assert max(rep.z_count for rep in res.reports) <= true_z


# (k, l) -> the separability edge, the least admitted q: q = 1 mod k and
# q > 2l + k^(2l-1)
EARLY_STOP_SHAPES = {(2, 1): 5, (3, 1): 7, (2, 2): 13, (3, 2): 37, (2, 3): 41}


@pytest.mark.parametrize("k,l", sorted(EARLY_STOP_SHAPES))
def test_generic_z_value_matches_full_scan(k, l):
    """generic_z_value, which stops after 20 draws when they reach the
    bound, against the maximum of the seeded 200-sample scan, at the
    separability edge, q = 97 and q = 307; the 20 draws are the head of the
    200."""
    for q in (EARLY_STOP_SHAPES[(k, l)], 97, 307):
        f = build_field(q)
        for seed in range(3):
            full = stratum_scan(f, k, l, samples=200, seed=seed)
            head = stratum_scan(f, k, l, samples=20, seed=seed)
            assert [rep.b for rep in head.reports] == [rep.b for rep in full.reports[:20]]
            assert generic_z_value(f, k, l, seed) == full.generic, (q, seed)


def spy_scans(monkeypatch):
    """Record the samples of every stratum_scan call."""
    calls, scan = [], strata.stratum_scan

    def spy(field, k, l, samples=None, seed=0, **kw):
        calls.append(samples)
        return scan(field, k, l, samples=samples, seed=seed, **kw)

    monkeypatch.setattr(strata, "stratum_scan", spy)
    return calls


def test_generic_z_value_stops_at_the_bound(monkeypatch):
    """At q = 499 the 20-draw head reaches the bound 5 of (2, 2), so no
    200-sample scan runs."""
    calls = spy_scans(monkeypatch)
    assert generic_z_value(build_field(499), 2, 2, seed=0) == 5
    assert calls == [20]


@pytest.mark.parametrize("k,l,q", [(2, 2, 13), (2, 2, 307), (3, 2, 37), (2, 3, 41)])
def test_generic_z_value_falls_back_past_an_unattained_bound(k, l, q, monkeypatch):
    """The bound with V(k, l) = 0, above the true one, which no b reaches:
    the head cannot stop the scan, so the 200-sample scan runs and gives
    its maximum."""
    f = build_field(q)
    want = [stratum_scan(f, k, l, samples=200, seed=seed).generic for seed in range(2)]
    monkeypatch.setattr(strata, "generic_z_bound", lambda k, l: 2 * l + k ** (2 * l - 2))
    calls = spy_scans(monkeypatch)
    assert [generic_z_value(f, k, l, seed) for seed in range(2)] == want
    assert calls == [20, 200] * 2


def test_z_above_the_bound_raises(f97, monkeypatch):
    """Every report checks its z against generic_z_bound, naming k, l, q and
    b: a bound lowered by one is reached by the generic b (1, 2, 3, 5)."""
    assert z_fiber_count(f97, 2, (1, 2, 3, 5)).z_count == 5
    monkeypatch.setattr(strata, "generic_z_bound", lambda k, l: 4)
    with pytest.raises(InternalConsistencyError,
                       match=r"z_count 5 above the bound 4 at k=2, l=2, q=97, b=\(1, 2, 3, 5\)"):
        z_fiber_count(f97, 2, (1, 2, 3, 5))


def test_expansion_oracle_k2_property():
    """singular_polynomial against oracle_poly_k2 for l in {1, 2}, with q from
    just above the headroom bound 2l + 2^(2l-1) (5 and 13) to 10^4 and with
    random and diagonal b."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    primes = primes_up_to(10_000)

    def shape(l):
        admitted = [p for p in primes if p > 2 * l + 2 ** (2 * l - 1)]
        raw_b = st.lists(st.integers(0, 10_000), min_size=2 * l, max_size=2 * l)
        return st.tuples(st.just(l), st.sampled_from(admitted), raw_b, st.booleans())

    @hyp.settings(max_examples=40, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from((1, 2)).flatmap(shape))
    @hyp.example((1, 5, [3, 4], False))
    @hyp.example((2, 13, [1, 2, 3, 4], False))
    @hyp.example((2, 13, [5, 9, 0, 0], True))
    @hyp.example((2, 9973, [1234, 9000, 17, 4242], False))
    def check(case):
        l, q, raw_b, diagonal = case
        b = [v % q for v in raw_b]
        if diagonal:  # every value repeats: (b_1..b_l, a permutation of it)
            b = b[:l] + b[:l][::-1]
        f = build_field(q)
        assert singular_polynomial(f, 2, b) == oracle_poly_k2(b, q), (q, b)

    check()


def test_scan_determinism(f97):
    a = stratum_scan(f97, 2, 2, samples=50, seed=123)
    b = stratum_scan(f97, 2, 2, samples=50, seed=123)
    assert a.histogram == b.histogram
    assert [r.b for r in a.reports] == [r.b for r in b.reports]
    c = stratum_scan(f97, 2, 2, samples=50, seed=124)
    assert [r.b for r in a.reports] != [r.b for r in c.reports]


def test_scan_threads_match_serial(f97):
    a = stratum_scan(f97, 2, 2, samples=40, seed=5, threads=1)
    b = stratum_scan(f97, 2, 2, samples=40, seed=5, threads=4)
    assert a.histogram == b.histogram
    assert [r.z_count for r in a.reports] == [r.z_count for r in b.reports]


def test_scan_exhaustive_small():
    f13 = build_field(13)
    res = stratum_scan(f13, 2, 1, exhaustive=True)
    # l = 1: every b1 != b2 gives z = 2; the 13 diagonal points degenerate
    assert res.histogram == {2: 13 * 12, -1: 13}
    assert res.generic == 2


def test_scan_exhaustive_refuses_samples(f13):
    with pytest.raises(PreconditionError, match="samples=5"):
        stratum_scan(f13, 2, 1, samples=5, exhaustive=True)


def test_scan_exhaustive_refuses_seed(f13):
    with pytest.raises(PreconditionError, match="seed=5"):
        stratum_scan(f13, 2, 1, seed=5, exhaustive=True)


def test_scan_resource_bound(f101):
    with pytest.raises(ResourceLimitError):
        stratum_scan(f101, 2, 2, exhaustive=True)


def test_scan_threads_must_be_positive(f97):
    with pytest.raises(PreconditionError, match="threads must be >= 1, got 0"):
        stratum_scan(f97, 2, 2, samples=4, threads=0)


@pytest.mark.parametrize("exhaustive", [False, True])
def test_scan_needs_positive_l(f13, exhaustive):
    with pytest.raises(PreconditionError, match="need l >= 1, got 0"):
        stratum_scan(f13, 2, 0, samples=4, exhaustive=exhaustive)


def test_scan_generic_flags(f97):
    res = stratum_scan(f97, 2, 2, samples=60, seed=2)
    for rep in res.reports:
        if rep.z_count >= 0:
            assert rep.generic == (rep.z_count == res.generic)


# --- box counting -------------------------------------------------------------


def test_box_diagonal_l1(f97):
    # half-open box [B, 2B): the diagonal b1 = b2 has exactly B points
    for B in (1, 5, 20):
        assert box_count_variety(f97, B, 1) == B


def test_box_diagonal_pruned_vs_exhaustive():
    for B, l in [(3, 1), (5, 1), (3, 2), (5, 2), (2, 3), (2, 5), (2, 6)]:
        brute = 0
        for tup in itertools.product(range(B, 2 * B), repeat=2 * l):
            if all(c >= 2 for c in Counter(tup).values()):
                brute += 1
        assert diagonal_box_count(B, l) == brute


def test_box_diagonal_l2_formula():
    # 2+2 pairings give 3B(B-1) ordered value pairs plus B all-equal tuples
    for B in (10, 20, 40):
        assert diagonal_box_count(B, 2) == 3 * B * B - 2 * B


def test_box_preconditions(f97):
    with pytest.raises(PreconditionError):
        box_count_variety(f97, 60, 1)  # B >= q/2
    for l in (0, -1):
        with pytest.raises(PreconditionError, match=f"l >= 1, got l={l}"):
            box_count_variety(f97, 4, l)


# --- an all-forms oracle on Python ints ----------------------------------------


def root_of_unity(k, q):
    """A primitive k-th root of unity mod q, found by trial (q = 1 mod k)."""
    primes = [p for p in range(2, k + 1) if k % p == 0 and all(p % d for d in range(2, p))]
    for a in range(2, q):
        z = pow(a, (q - 1) // k, q)
        if all(pow(z, k // p, q) != 1 for p in primes):
            return z
    raise AssertionError(f"no primitive {k}-th root of unity mod {q}")


def oracle_poly_all_forms(b, k, q):
    """P_b = M^k over F_q as ascending coefficients, trimmed, with M the
    product of all k^(2l-1) forms sum_{i<=l} zeta_i x_i - sum_{i>l} zeta_i x_i
    with zeta_1 = 1, expanded on all 2l variables in
    F_q[r][x]/(x_i^k - r - b_i).  The state maps exponent tuples to
    ascending r-coefficient lists, Python ints throughout."""
    n = len(b)
    zeta = root_of_unity(k, q)
    state = {(0,) * n: [1]}
    for ts in itertools.product(range(k), repeat=n - 1):
        coeffs = [pow(zeta, t, q) * (1 if i < n // 2 else -1) for i, t in enumerate((0, *ts))]
        new = {}
        for e, p in state.items():
            for i, c in enumerate(coeffs):
                e2 = list(e)
                e2[i] += 1
                term = [c * v for v in p]
                if e2[i] == k:  # x_i^k = r + b_i
                    e2[i] = 0
                    term = [b[i] * v for v in term] + [0]
                    for j, v in enumerate(p):
                        term[j + 1] += c * v
                acc = new.setdefault(tuple(e2), [])
                acc += [0] * (len(term) - len(acc))
                for j, v in enumerate(term):
                    acc[j] = (acc[j] + v) % q
        state = {e: p for e, p in new.items() if any(p)}
    assert set(state) <= {(0,) * n}, "x-dependence left in M"
    m = state.get((0,) * n, [])
    while m and m[-1] == 0:
        m.pop()
    p = [1] if m else []
    for _ in range(k):
        p = [sum(p[j] * m[d - j] for j in range(len(p)) if 0 <= d - j < len(m)) % q
             for d in range(len(p) + len(m) - 1)]
    return p


# (k, l, q): every (k, l) with k in {2, 3, 4} and l in {1, 2}, and (2, 3), at
# the separability edge, the least prime q = 1 mod k above 2l + k^(2l-1); and
# q = 2^31 - 1, the largest admitted q, where the state goes through 16-bit
# halves (k = 4 does not divide q - 1)
ORACLE_SHAPES = ([(2, 1, 5), (2, 2, 13), (3, 1, 7), (3, 2, 37), (4, 1, 13), (4, 2, 73), (2, 3, 41)]
                 + [(k, l, 2**31 - 1) for k, l in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3))])


def test_resolvent_matches_all_forms_oracle():
    """singular_polynomial on batches against the product of all k^(2l-1)
    forms on all 2l variables, at the separability edge and at q = 2^31 - 1
    (a stub field of q and its primitive root 7), for b with repeated
    values, zeros, diagonal rows and cross-paired rows."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def case(shape):
        k, l, q = shape
        # values from a pool of four, one of them 0, so repeats are common
        pool = st.lists(st.integers(0, q - 1), min_size=3, max_size=3).map(lambda v: [0, *v])
        picks = st.lists(st.integers(0, 3), min_size=2 * l, max_size=2 * l)
        kind = st.sampled_from(("pool", "diagonal", "cross"))
        rows = st.lists(st.tuples(picks, kind), min_size=1, max_size=3)
        return st.tuples(st.just(shape), pool, rows)

    @hyp.settings(max_examples=40, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from(ORACLE_SHAPES).flatmap(case))
    @hyp.example(((4, 2, 73), [0, 1, 2, 3], [([1, 2, 3, 0], "pool")]))
    @hyp.example(((2, 3, 2**31 - 1), [0, 2**31 - 2, 5, 2**30], [([1, 0, 3, 2, 1, 1], "pool"),
                                                                ([1, 3, 2, 0, 0, 0], "cross")]))
    @hyp.example(((3, 2, 2**31 - 1), [0, 2**31 - 2, 7, 9], [([1, 2, 1, 2], "diagonal")]))
    def check(c):
        (k, l, q), pool, rows = c
        bs = []
        for picks, kind in rows:
            b = [pool[i] for i in picks]
            if kind == "diagonal":  # b_1 = b_2, b_3 = b_4, ...
                b = [b[i // 2 * 2] for i in range(2 * l)]
            elif kind == "cross":  # the second half permutes the first
                b = b[:l] + b[:l][::-1]
            bs.append(b)
        f = types.SimpleNamespace(q=q, g=7) if q == 2**31 - 1 else build_field(q)
        got = singular_polynomial(f, k, np.array(bs, dtype=np.int64))
        assert got == [oracle_poly_all_forms(b, k, q) for b in bs], (k, l, q, bs)

    check()
