"""polyfq against oracles that share none of its code: the product,
division, gcd and squarefree part against sympy's polynomials over GF(q),
from q = 3 up to 2^31 - 1; value against direct evaluation in Python
integers."""

import pytest

from klsums import polyfq
from klsums.field import is_prime

Q = 2**31 - 1


def sym(coeffs, q):
    """The ascending coefficient list as a sympy polynomial over GF(q)."""
    sympy = pytest.importorskip("sympy")
    return sympy.Poly(list(reversed(coeffs)) or [0], sympy.Symbol("x"), modulus=q)


def coeffs(p, q):
    """A sympy polynomial over GF(q) as trimmed ascending residues."""
    out = [int(c) % q for c in reversed(p.all_coeffs())]
    while out and not out[-1]:
        out.pop()
    return out


def test_mul_exact_property():
    assert is_prime(Q)
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def polys(q):
        c = st.lists(st.integers(0, q - 1), min_size=1, max_size=80)
        return st.tuples(st.just(q), c, c)

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from((3, 499, 10**8 + 7, 10**9 + 7, Q)).flatmap(polys))
    @hyp.example((Q, [Q - 1] * 80, [Q - 1] * 80))
    def check(case):
        q, f, g = case
        got = polyfq.mul(polyfq.trim(list(f)), polyfq.trim(list(g)), q)
        assert got == coeffs(sym(f, q) * sym(g, q), q)

    check()


def test_value_matches_direct_evaluation():
    """polyfq.value against sum c_j x^j reduced once, in Python integers."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def cases(q):
        return st.tuples(st.just(q), st.lists(st.integers(0, q - 1), max_size=40),
                         st.integers(0, q - 1))

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from((3, 13, 499, 10**9 + 7, Q)).flatmap(cases))
    @hyp.example((Q, [Q - 1] * 40, Q - 1))
    @hyp.example((Q, [Q - 2, Q - 1, 1], Q - 3))
    @hyp.example((13, [], 5))
    def check(case):
        q, f, x = case
        got = polyfq.value(f, x, q)
        assert got == sum(c * x**j for j, c in enumerate(f)) % q
        assert type(got) is int

    check()


# --- division, gcd and squarefree part ------------------------------------------

DIV_QS = (3, 13, 499, 10**9 + 7, Q)


def poly_cases(max_size):
    """(q, f, g, h) with f, g, h coefficient lists mod q, some with trailing
    zeros; g may be zero or constant."""
    st = pytest.importorskip("hypothesis.strategies")

    def cases(q):
        c = st.lists(st.integers(0, q - 1), max_size=max_size)
        return st.tuples(st.just(q), c, c, st.lists(st.integers(0, q - 1), max_size=6))

    return st.sampled_from(DIV_QS).flatmap(cases)


def test_divmod_poly_matches_sympy():
    """The private division on trimmed Python-int lists, which the squarefree
    part runs on; a zero divisor is outside its contract."""
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=150, deadline=None, derandomize=True)
    @hyp.given(poly_cases(30))
    @hyp.example((Q, [Q - 1] * 30, [Q - 1] * 7, []))
    @hyp.example((13, [5, 0, 12, 1], [7], []))  # constant divisor
    @hyp.example((499, [3, 1], [1, 2, 3], []))  # deg f < deg g
    @hyp.example((3, [], [1, 1], []))  # zero dividend
    def check(case):
        q, f, g, _ = case
        fs, gs = sym(f, q), sym(g, q)
        if gs.is_zero:
            return
        quo, rem = polyfq._divmod(coeffs(fs, q), coeffs(gs, q), q)
        want_quo, want_rem = fs.div(gs)
        assert (quo, rem) == (coeffs(want_quo, q), coeffs(want_rem, q))

    check()


def test_gcd_matches_sympy():
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=150, deadline=None, derandomize=True)
    @hyp.given(poly_cases(15))
    @hyp.example((13, [], [], []))  # gcd(0, 0) = 0
    @hyp.example((Q, [], [Q - 2, 0, 4], []))  # gcd(0, g) = monic g
    @hyp.example((499, [1, 2, 3], [9], []))  # a constant: gcd 1
    def check(case):
        q, f, g, h = case
        # a common factor h, so the gcd is not 1 by chance alone
        fh, gh = sym(f, q) * sym(h, q), sym(g, q) * sym(h, q)
        got = polyfq._gcd(coeffs(fh, q), coeffs(gh, q), q)
        want = coeffs(fh.gcd(gh), q)
        if want:
            inv = pow(want[-1], -1, q)
            want = [c * inv % q for c in want]
        assert got == want

    check()


def test_squarefree_part_matches_sympy():
    """f g^2 h^3 with f, g, h random: the squarefree part is f / gcd(f, f'),
    which sympy's gcd and division give independently; while the degree
    stays below q it is also sympy's sqf_part times the leading coefficient."""
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=150, deadline=None, derandomize=True)
    @hyp.given(poly_cases(8))
    @hyp.example((3, [1, 1], [2, 1], [1]))  # deg 6 >= q: f' can lose a factor
    @hyp.example((Q, [Q - 1] * 8, [Q - 1] * 8, [Q - 1] * 6))
    @hyp.example((13, [4], [], [1]))  # zero: refused
    @hyp.example((499, [7], [1], [5]))  # a constant is its own squarefree part
    def check(case):
        q, f, g, h = case
        p = sym(f, q) * sym(g, q) ** 2 * sym(h, q) ** 3
        c = coeffs(p, q)
        if not c:
            with pytest.raises(ZeroDivisionError):
                polyfq.squarefree_part(c, q)
            return
        got = polyfq.squarefree_part(c, q)
        assert got == coeffs(p.quo(p.gcd(p.diff(p.gens[0]))), q)
        if len(c) - 1 < q:
            assert got == coeffs(p.sqf_part() * c[-1], q)

    check()
