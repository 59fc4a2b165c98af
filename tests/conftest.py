import numpy as np
import pytest

from klsums.field import build_field


def primes_up_to(n):
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


@pytest.fixture(scope="session")
def f5():
    return build_field(5)


@pytest.fixture(scope="session")
def f7():
    return build_field(7)


@pytest.fixture(scope="session")
def f13():
    return build_field(13)


@pytest.fixture(scope="session")
def f97():
    return build_field(97)


@pytest.fixture(scope="session")
def f101():
    return build_field(101)
