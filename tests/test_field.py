import math

import numpy as np
import pytest

from klsums.errors import PreconditionError, ResourceLimitError
from klsums.field import (
    SPLIT_MIN_N,
    MultChar,
    _powers_mod,
    _split_prime,
    additive_char_vector,
    build_field,
    eval_additive,
    eval_char,
    gauss_sum,
    is_prime,
    log_dft,
    smallest_primitive_root,
)

from conftest import primes_up_to


def test_build_field_q5_exhaustive_dlog(f5):
    # oracle: powers of 2 mod 5 are 1,2,4,3
    assert f5.g == 2
    assert f5.dlog[1] == 0 and f5.dlog[2] == 1 and f5.dlog[4] == 2 and f5.dlog[3] == 3
    assert f5.dlog[0] == -1


def test_build_field_q7_generator(f7):
    assert f7.g == 3
    # exhaustive check that 3 generates F_7^x
    assert {pow(3, m, 7) for m in range(6)} == {1, 2, 3, 4, 5, 6}


def test_build_field_rejects_nonprime():
    with pytest.raises(PreconditionError, match="not prime"):
        build_field(4)
    with pytest.raises(PreconditionError):
        build_field(1)
    with pytest.raises(PreconditionError):
        build_field(2)  # q >= 3 required


def test_build_field_resource_bound():
    with pytest.raises(ResourceLimitError):
        build_field(2**31 + 11)


def test_is_prime_small():
    ps = set(primes_up_to(200))
    for n in range(200):
        assert is_prime(n) == (n in ps)


@pytest.mark.parametrize("q", primes_up_to(300)[1:])
def test_primitive_root_invariant(q):
    g = smallest_primitive_root(q)
    assert pow(g, q - 1, q) == 1
    n = q - 1
    d = 2
    factors = []
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    for p in factors:
        assert pow(g, (q - 1) // p, q) != 1


def test_dlog_roundtrip(f101):
    for x in range(1, 101):
        assert pow(f101.g, int(f101.dlog[x]), 101) == x
    assert (f101.exp[f101.dlog[1:]] == np.arange(1, 101)).all()


def test_eval_char_trivial(f5):
    chi = MultChar(f5, 0)
    assert all(eval_char(chi, x) == 1 for x in range(1, 5))
    assert eval_char(chi, 0) == 0


def test_eval_char_quadratic_q5(f5):
    # 2 is a non-square mod 5 (squares are {1, 4}), so chi_(2)(2) = -1
    squares = {x * x % 5 for x in range(1, 5)}
    assert 2 not in squares
    chi2 = MultChar(f5, 2)
    assert eval_char(chi2, 2) == pytest.approx(-1)
    for x in squares:
        assert eval_char(chi2, x) == pytest.approx(1)


def test_eval_additive_at_zero(f5):
    assert eval_additive(f5, 1, 0) == 1
    assert eval_additive(f5, 3, 5) == pytest.approx(1)  # periodicity


@pytest.mark.parametrize("q", [5, 13, 101])
def test_char_multiplicativity(q):
    f = build_field(q)
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(100):
        a = int(rng.integers(0, q - 1))
        x, y = (int(v) for v in rng.integers(1, q, size=2))
        chi = MultChar(f, a)
        assert eval_char(chi, x * y) == pytest.approx(
            eval_char(chi, x) * eval_char(chi, y), abs=1e-12
        )


@pytest.mark.parametrize("q", [5, 13, 101])
def test_orthogonality(q):
    f = build_field(q)
    for a in range(q - 1):
        s = sum(eval_char(MultChar(f, a), x) for x in range(1, q))
        if a == 0:
            assert s == pytest.approx(q - 1)
        else:
            assert abs(s) < 1e-9


def test_char_order_and_parity(f13):
    assert MultChar(f13, 0).order == 1
    assert MultChar(f13, 6).order == 2  # the quadratic character
    assert MultChar(f13, 1).order == 12
    assert MultChar(f13, 6).is_even  # chi_(2)(-1) = (-1)^6 = 1 for q = 13 (q = 1 mod 4)
    assert not MultChar(f13, 1).is_even


def test_gauss_sum_trivial_is_minus_one():
    for q in (5, 13, 101):
        f = build_field(q)
        assert gauss_sum(MultChar(f, 0)) == pytest.approx(-1, abs=1e-10)


def test_gauss_sum_quadratic_q5(f5):
    # q = 5 = 1 mod 4: tau(chi_(2)) = sqrt(5), real
    tau = gauss_sum(MultChar(f5, 2))
    assert tau.real == pytest.approx(math.sqrt(5), abs=1e-10)
    assert abs(tau.imag) < 1e-10


def test_gauss_sum_modulus_q13(f13):
    for a in range(1, 12):
        assert abs(gauss_sum(MultChar(f13, a))) == pytest.approx(math.sqrt(13), abs=1e-10)


def test_gauss_modulus_all_primes_to_499():
    """|tau(chi)| = sqrt(q) for every nontrivial chi and every prime q <= 499."""
    for q in primes_up_to(499)[1:]:  # odd primes
        f = build_field(q)
        n = q - 1
        psi = np.exp(2j * np.pi * f.exp / q)
        ms = np.arange(n)
        w = np.exp(2j * np.pi * (np.outer(np.arange(1, n), ms) % n) / n)
        taus = w @ psi
        assert np.max(np.abs(np.abs(taus) - math.sqrt(q))) < 1e-9, q


def test_normalized_gauss_sum(f13):
    # epsilon_chi = tau(chi) / sqrt(q): -1/sqrt(q) for trivial chi, modulus 1 otherwise
    assert gauss_sum(MultChar(f13, 0)) / math.sqrt(13) == pytest.approx(-1 / math.sqrt(13),
                                                                        abs=1e-12)
    assert abs(gauss_sum(MultChar(f13, 5)) / math.sqrt(13)) == pytest.approx(1.0, abs=1e-10)


def test_char_index_reduction(f13):
    assert MultChar(f13, 25).a == 1
    assert MultChar(f13, -1).a == 11


def test_tables_immutable(f13):
    with pytest.raises(ValueError):
        f13.dlog[3] = 0
    with pytest.raises(ValueError):
        f13.exp[0] = 5


def test_powers_mod_prefix_near_2_31():
    # 7 is a primitive root of 2^31 - 1; the field itself (32 GB of tables)
    # is never built, only a prefix of its power table
    q = 2**31 - 1
    for g, n in ((7, 1000), (q - 1, 5), (2**31 - 2**16, 777)):
        assert _powers_mod(g, q, n).tolist() == [pow(g, m, q) for m in range(n)]


@pytest.mark.parametrize("q", [3, 5, 13, 101, 1009, 65537])
def test_exp_table_matches_pow(q):
    f = build_field(q)
    assert f.exp.tolist() == [pow(f.g, m, q) for m in range(q - 1)]


@pytest.mark.parametrize("q", [3, 5, 13, 101, 1009, 4099])
def test_gauss_spectrum_is_every_gauss_sum(q):
    """gauss_spectrum[j] = tau(chi_{-j}) for every j, against direct sums."""
    f = build_field(q)
    taus = np.array([gauss_sum(MultChar(f, -j)) for j in range(q - 1)])
    assert f.gauss_spectrum.shape == (q - 1,)
    assert np.max(np.abs(f.gauss_spectrum - taus)) <= 1e-9 * math.sqrt(q)


def test_gauss_spectrum_property():
    """The same identity on random (q, j), q over the primes below 2000."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=80, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from(primes_up_to(2000)[1:]).flatmap(
        lambda q: st.tuples(st.just(q), st.integers(0, q - 2))))
    @hyp.example((3, 1))
    @hyp.example((1999, 1997))
    def check(c):
        q, j = c
        f = build_field(q)
        assert abs(f.gauss_spectrum[j] - gauss_sum(MultChar(f, -j))) <= 1e-9 * math.sqrt(q), c

    check()


def test_gauss_spectrum_cached_and_read_only(f13):
    spec = f13.gauss_spectrum
    assert spec is f13.gauss_spectrum
    assert not spec.flags.writeable
    with pytest.raises(ValueError):
        spec[0] = 0


# Fields whose q - 1 = m*p log_dft splits: the smallest at the length floor
# (4098 = 6*683), q = 2p + 1 at the floor and above it (m = 2), and
# 100002 = 42*2381.
SPLIT_QS = [4099, 4127, 10007, 39983, 100003]


def test_split_rule():
    first = next(q for q in range(SPLIT_MIN_N + 1, 2 * SPLIT_MIN_N)
                 if is_prime(q) and _split_prime(build_field(q)))
    assert first == SPLIT_QS[0]
    assert [_split_prime(build_field(q)) for q in SPLIT_QS] == [683, 2063, 5003, 19991, 2381]
    assert build_field(100003).factors == (2, 3, 7, 2381)


def test_log_dft_split_matches_numpy_property():
    """Forward and inverse split transforms against numpy's unsplit FFT of
    the same vector; the split writes its output over x."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    fields = {q: build_field(q) for q in SPLIT_QS}

    @hyp.settings(max_examples=30, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from(SPLIT_QS), st.integers(0, 2**32 - 1), st.booleans())
    @hyp.example(SPLIT_QS[0], 0, False)
    @hyp.example(SPLIT_QS[-1], 0, True)
    def check(q, seed, inverse):
        n = q - 1
        rng = np.random.Generator(np.random.PCG64(seed))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        want = (np.fft.ifft if inverse else np.fft.fft)(x)
        y = x.copy()
        got = log_dft(fields[q], y, inverse=inverse)
        assert got is y
        scale = np.max(np.abs(x)) * (1 / math.sqrt(n) if inverse else math.sqrt(n))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, (q, seed, inverse)

    check()


@pytest.mark.parametrize("q", [13, 1009, 1019, 4261, 96001])
def test_log_dft_unsplit_is_numpy(q):
    """Below the floors or with smooth q - 1, x goes to np.fft whole: the
    output is numpy's bit for bit.  1018 = 2*509 is below the length floor,
    and 4260 = 60*71 has p below the prime floor."""
    f = build_field(q)
    assert _split_prime(f) == 0
    re, im = np.random.Generator(np.random.PCG64(q)).standard_normal((2, q - 1))
    x = re + 1j * im
    for inverse, fft in ((False, np.fft.fft), (True, np.fft.ifft)):
        assert np.array_equal(log_dft(f, x.copy(), inverse=inverse), fft(x))


def test_log_dft_rejects():
    f = build_field(4099)
    with pytest.raises(PreconditionError, match="length q-1 = 4098, got complex128 of shape"):
        log_dft(f, np.zeros(4099, dtype=np.complex128))
    with pytest.raises(PreconditionError, match="got float64 of shape"):
        log_dft(f, np.zeros(4098))
    with pytest.raises(PreconditionError, match="contiguous"):
        log_dft(f, np.zeros(2 * 4098, dtype=np.complex128)[::2])
