"""Argument checks of the prime-ladder experiment."""

import os
import re
import subprocess
import sys

import pytest

import numpy as np

from klsums import experiments
from klsums.errors import DegenerateFiberError, PreconditionError
from klsums.experiments import bound_ladder, sample_generic_b, sample_subgeneric_b
from klsums.field import build_field
from klsums.strata import generic_z_value, is_diagonal, z_fiber_count


def test_ladder_refuses_l1_before_any_field(monkeypatch):
    # at l = 1 every non-diagonal b has z = 2: no subgeneric b to sample
    def forbidden(*args, **kwargs):
        raise AssertionError("the ladder should refuse l = 1 before any work")

    monkeypatch.setattr(experiments, "z_fiber_count", forbidden)
    monkeypatch.setattr(experiments, "build_field", forbidden)
    with pytest.raises(PreconditionError, match=r"l >= 2, got l=1: .* no non-diagonal subgeneric b"):
        bound_ladder([101, 151], k=2, l=1, samples=5, subgeneric_samples=2)


@pytest.mark.parametrize("samples,subgeneric", [(0, 20), (-1, 20), (100, 0), (100, -1)])
def test_ladder_refuses_empty_sample_sets_before_any_field(samples, subgeneric, monkeypatch):
    # no generic b leaves the trend ratios 0/0; no subgeneric b passes vacuously
    def forbidden(*args, **kwargs):
        raise AssertionError("the ladder should refuse its sample counts before any work")

    monkeypatch.setattr(experiments, "build_field", forbidden)
    msg = f"samples={samples}, subgeneric_samples={subgeneric}"
    with pytest.raises(PreconditionError, match=msg):
        bound_ladder([101, 151], samples=samples, subgeneric_samples=subgeneric)


@pytest.mark.parametrize("k,chars,named", [(2, (0, 0, 0), "k=2, chars=[0, 0, 0]"),
                                           (0, (), "k=0, chars=[]")])
def test_ladder_refuses_chars_of_wrong_length_by_value(k, chars, named):
    with pytest.raises(PreconditionError,
                       match=rf"^need exactly k >= 1 character indices, got {re.escape(named)}$"):
        bound_ladder([101, 151], k=k, chars=chars)


# perfbench/run.py sets these before numpy loads.  np.vdot in the Sigma sweep
# splits a block of about 10^4 entries or more across BLAS threads, which
# moves the last bits of Sigma with the thread count.
ONE_BLAS_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")}
LADDER_SHA256 = """
import hashlib, json
from klsums.experiments import bound_ladder
text = json.dumps(bound_ladder([101, 307, 499], seed=0).to_json(), sort_keys=True)
print(hashlib.sha256(text.encode()).hexdigest())
"""


def test_bound_ladder_json_pinned():
    """bound_ladder([101, 307, 499], seed=0) as sorted-key JSON, pinned by
    sha256 in a fresh process with one BLAS thread, so the pin does not
    depend on the machine's core count.  The per-b code gave the same JSON:
    the batched scans, the samplers' batched rounds and the batched Sigma
    sweep reproduce every draw, count and float.  The (0, 0) table is real,
    so the sweep runs in float64; the pin was re-taken there, and the
    complex sweep's JSON differed from it by rounding only (at most
    2.3e-16 in a ratio).  Re-taken again when bfR became a sum along each
    row of N: r_I, sub_max_I, sub_max_II and trend_ratio_I moved in their
    last digits (at most 8.5e-15 relative, in r_I at q = 307).  Re-taken
    when the Sigma row blocks grew from 2^15 to 2^16 entries, which regroups
    the fsum of sum |bfK|^2: sub_max_II moved by 2.1e-16 at q = 307 and
    4.3e-16 at q = 499, relative."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, **ONE_BLAS_THREAD,
           "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", LADDER_SHA256], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == (
        "d1c754b20bf4f291dd93e59d3ce99882138bb339a152e7177512bded40afc77d")


# --- the samplers against a one-draw-at-a-time loop ----------------------------


def one_at_a_time(field, k, l, count, rng, admit, accept):
    """The rejection loop the batched samplers must reproduce: one draw, one
    single-b z_fiber_count, degenerate b skipped."""
    out, attempts = [], 0
    while len(out) < count:
        attempts += 1
        if attempts > 100 * count + 1000:
            raise PreconditionError("too many draws")
        b = rng.integers(0, field.q, size=2 * l, dtype=np.int64)
        if not admit(b):
            continue
        try:
            if accept(z_fiber_count(field, k, b).z_count):
                out.append(b)
        except DegenerateFiberError:
            continue
    return out


def distinct(b):
    return len(set(b.tolist())) == len(b)


def collide(b):
    b[1] = b[0]
    return len(set(b[1:].tolist())) == len(b) - 1 and not is_diagonal(b)


def assert_same_draws(batched, reference, seed_key):
    rng_b = np.random.Generator(np.random.PCG64(seed_key))
    rng_r = np.random.Generator(np.random.PCG64(seed_key))
    got, want = batched(rng_b), reference(rng_r)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert rng_b.bit_generator.state == rng_r.bit_generator.state


@pytest.mark.parametrize("q", [101, 307])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_samplers_match_one_at_a_time(q, seed):
    f = build_field(q)
    generic = generic_z_value(f, 2, 2, seed)
    assert_same_draws(lambda rng: sample_generic_b(f, 2, 2, 30, rng, generic),
                      lambda rng: one_at_a_time(f, 2, 2, 30, rng, distinct,
                                                lambda z: z == generic),
                      [seed, q, 0])
    assert_same_draws(lambda rng: sample_subgeneric_b(f, 2, 2, 8, rng, generic),
                      lambda rng: one_at_a_time(f, 2, 2, 8, rng, collide,
                                                lambda z: z < generic),
                      [seed, q, 1])


def test_sampler_skips_degenerate_b():
    # at q = 13 about 2% of b are diagonal, where P_b = 0 at k = 2: z = -1
    # passes z < generic but must not be kept
    f = build_field(13)
    draws = []

    def admit(b):
        draws.append(b)
        return True

    for seed in range(3):
        assert_same_draws(
            lambda rng: experiments._sample_b(f, 2, 2, 60, rng, admit, lambda z: z < 5, "never"),
            lambda rng: one_at_a_time(f, 2, 2, 60, rng, lambda b: True, lambda z: z < 5),
            [seed, 13])
    assert any(is_diagonal(b) for b in draws)


@pytest.mark.parametrize("admit_all", [True, False])
def test_sampler_gives_up_after_the_draw_cap(admit_all):
    f, count = build_field(101), 2
    rng = np.random.Generator(np.random.PCG64(5))
    draws = []

    def admit(b):
        draws.append(b)
        return admit_all

    with pytest.raises(PreconditionError, match="^no b$"):
        experiments._sample_b(f, 2, 2, count, rng, admit, lambda z: False, "no b")
    assert len(draws) == 100 * count + 1000
    fresh = np.random.Generator(np.random.PCG64(5))
    for _ in range(100 * count + 1000):
        fresh.integers(0, 101, size=4, dtype=np.int64)
    assert rng.bit_generator.state == fresh.bit_generator.state
