"""polyfq.mul against schoolbook multiplication with Python integers, which
cannot overflow, at the smallest and the largest q that build_field admits."""

import numpy as np
import pytest

from klsums import polyfq
from klsums.field import MAX_Q, is_prime


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
    assert is_prime(MAX_Q - 1)  # the largest q that build_field admits
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def polys(q):
        coeffs = st.lists(st.integers(0, q - 1), min_size=1, max_size=80)
        return st.tuples(st.just(q), coeffs, coeffs)

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from((3, 499, 10**8 + 7, 10**9 + 7, MAX_Q - 1)).flatmap(polys))
    @hyp.example((MAX_Q - 1, [MAX_Q - 2] * 80, [MAX_Q - 2] * 80))
    def check(case):
        q, f, g = case
        got = polyfq.mul(np.array(f, dtype=np.int64), np.array(g, dtype=np.int64), q)
        assert got.tolist() == schoolbook(f, g, q)

    check()


def test_mul_rejects_overflowing_length():
    long = np.ones(2**16, dtype=np.int64)
    with pytest.raises(ValueError, match="overflow"):
        polyfq.mul(long, long, MAX_Q - 1)
