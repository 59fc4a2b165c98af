"""Argument checks of the prime-ladder experiment."""

import pytest

from klsums import experiments
from klsums.errors import PreconditionError
from klsums.experiments import bound_ladder


def test_ladder_refuses_l1_before_any_field(monkeypatch):
    # at l = 1 every non-diagonal b has z = 2: no subgeneric b to sample
    def forbidden(*args, **kwargs):
        raise AssertionError("the ladder should refuse l = 1 before any work")

    monkeypatch.setattr(experiments, "z_fiber_count", forbidden)
    monkeypatch.setattr(experiments, "build_field", forbidden)
    with pytest.raises(PreconditionError, match=r"l >= 2, got l=1: .* no non-diagonal subgeneric b"):
        bound_ladder([101, 151], k=2, l=1, samples=5, subgeneric_samples=2)
