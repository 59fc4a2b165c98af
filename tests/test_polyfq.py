"""polyfq.mul against schoolbook multiplication with Python integers, which
cannot overflow, from q = 3 up to 2^31 - 1, the largest prime at which
products of two residues stay exact in int64."""

import numpy as np
import pytest

from klsums import polyfq
from klsums.field import is_prime

Q = 2**31 - 1


def schoolbook(f, g, q):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, c in enumerate(g):
            out[i + j] += a * c
    out = [c % q for c in out]
    while out and out[-1] == 0:
        out.pop()
    return out


def test_mul_exact_property():
    assert is_prime(Q)
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def polys(q):
        coeffs = st.lists(st.integers(0, q - 1), min_size=1, max_size=80)
        return st.tuples(st.just(q), coeffs, coeffs)

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from((3, 499, 10**8 + 7, 10**9 + 7, Q)).flatmap(polys))
    @hyp.example((Q, [Q - 1] * 80, [Q - 1] * 80))
    def check(case):
        q, f, g = case
        got = polyfq.mul(np.array(f, dtype=np.int64), np.array(g, dtype=np.int64), q)
        assert got.tolist() == schoolbook(f, g, q)

    check()


def test_mul_rejects_overflowing_length():
    long = np.ones(2**16, dtype=np.int64)
    with pytest.raises(ValueError, match="overflow"):
        polyfq.mul(long, long, Q)


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
        got = polyfq.value(np.array(f, dtype=np.int64), x, q)
        assert got == sum(c * x**j for j, c in enumerate(f)) % q
        assert type(got) is int

    check()
