"""Argument checks of the prime-ladder experiment."""

import hashlib
import json

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


def test_bound_ladder_json_pinned():
    """bound_ladder([101, 307, 499], seed=0) as sorted-key JSON, pinned by
    sha256 taken before the resolvent gained its b axis: the batched scans
    and the unchanged per-b samplers reproduce every draw, count and float."""
    text = json.dumps(bound_ladder([101, 307, 499], seed=0).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "33d02e52407223a87f201baea805aa0cbced5e95a5e5cfdfdaa25ecb7cedbbf0")
