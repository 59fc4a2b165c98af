"""Prime-ladder experiments for the square-root cancellation trends.

For a fixed (k, l) and an increasing ladder of primes, sample b-tuples with
all-distinct coordinates sitting on the generic stratum (z_count equal to
the scan maximum), record

    R_I(q)  = max_b |Sigma_I(K, b)|  / q,
    R_II(q) = max_b |Sigma_II(K, b)| / q^{3/2},

and check that neither ratio grows along the ladder beyond a noise
allowance (qmax/qmin)^0.15.  Subgeneric, non-diagonal b are sampled
separately and held against the weaker middle-stratum bounds
|Sigma_II| <= 10 q^2 and |Sigma_I| <= 10 q^{3/2}.

Sampling is deterministic: each prime uses PCG64 seeded with
(seed, q, k, l).  The samplers draw in rounds and read z for each round's
admitted b from one batched ``z_fiber_count`` call; they keep the b, the
order and the generator state of a one-draw-at-a-time rejection loop.
Each sampled b then gets its own ``sigma_II`` report.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .chartuples import CharTuple
from .errors import PreconditionError
from .field import PrimeField, build_field
from .kloosterman import kl_table_fast
from .serialize import jsonify
from .sums import sigma_II
from .strata import generic_z_value, is_diagonal, z_fiber_count

TREND_EXPONENT = 0.15
SUBGENERIC_CONSTANT = 10.0


def _rng_for(seed: int, q: int, k: int, l: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, q, k, l]))


def _sample_b(field, k, l, count, rng, admit, accept, failure: str) -> list[np.ndarray]:
    """Rejection sampling shared by the samplers, in rounds.  A round draws
    as many b of 2l residues as are still missing, keeps those for which
    admit(b) holds (it may edit b in place), and sends them to
    ``z_fiber_count`` as one array; a b is kept, in draw order, when it is
    not degenerate and accept(z_count) holds.  Each draw adds at most one b,
    so the rounds make exactly the draws of a one-at-a-time loop, up to
    100 count + 1000 of them."""
    out: list[np.ndarray] = []
    cap, attempts = 100 * count + 1000, 0
    while len(out) < count:
        n = min(count - len(out), cap - attempts)
        if n == 0:
            raise PreconditionError(failure)
        attempts += n
        drawn = [rng.integers(0, field.q, size=2 * l, dtype=np.int64) for _ in range(n)]
        admitted = [b for b in drawn if admit(b)]
        if admitted:
            reps = z_fiber_count(field, k, np.array(admitted))
            out += [b for b, rep in zip(admitted, reps) if rep.z_count >= 0 and accept(rep.z_count)]
    return out


def sample_generic_b(
    field: PrimeField, k: int, l: int, count: int, rng: np.random.Generator, generic: int
) -> list[np.ndarray]:
    """b with pairwise-distinct coordinates and z_count equal to the generic value."""
    return _sample_b(
        field, k, l, count, rng,
        admit=lambda b: len(set(b.tolist())) == 2 * l,
        accept=lambda z: z == generic,
        failure=f"could not sample {count} generic b at q={field.q}: generic stratum too thin",
    )


def sample_subgeneric_b(
    field: PrimeField, k: int, l: int, count: int, rng: np.random.Generator, generic: int
) -> list[np.ndarray]:
    """Non-diagonal b with z_count strictly below generic (one repeated pair
    forces a root collision; membership is verified, not assumed)."""

    def admit(b: np.ndarray) -> bool:
        b[1] = b[0]  # collide one pair; remaining coordinates keep it off-diagonal
        return len(set(b[1:].tolist())) == 2 * l - 1 and not is_diagonal(b)

    return _sample_b(
        field, k, l, count, rng,
        admit=admit,
        accept=lambda z: z < generic,
        failure=f"could not sample {count} subgeneric b at q={field.q}",
    )


@dataclass
class PrimePoint:
    q: int
    generic_z: int
    n_generic: int
    r_I: float  # max |Sigma_I| / q over generic samples
    r_II: float  # max |Sigma_II| / q^{3/2} over generic samples
    n_subgeneric: int
    sub_max_I: float  # max |Sigma_I| / q^{3/2} over subgeneric samples
    sub_max_II: float  # max |Sigma_II| / q^2 over subgeneric samples


@dataclass
class LadderReport:
    k: int
    l: int
    chars: tuple[int, ...]
    seed: int
    points: list[PrimePoint] = dc_field(default_factory=list)

    @property
    def trend_allowance(self) -> float:
        qs = [p.q for p in self.points]
        return (max(qs) / min(qs)) ** TREND_EXPONENT

    @property
    def trend_ratio_I(self) -> float:
        first, last = self.points[0], self.points[-1]
        return last.r_I / first.r_I

    @property
    def trend_ratio_II(self) -> float:
        first, last = self.points[0], self.points[-1]
        return last.r_II / first.r_II

    @property
    def trend_pass_I(self) -> bool:
        return self.trend_ratio_I <= self.trend_allowance

    @property
    def trend_pass_II(self) -> bool:
        return self.trend_ratio_II <= self.trend_allowance

    @property
    def subgeneric_pass(self) -> bool:
        return all(
            p.sub_max_I <= SUBGENERIC_CONSTANT and p.sub_max_II <= SUBGENERIC_CONSTANT
            for p in self.points
        )

    def to_json(self) -> dict:
        return jsonify(self)


def bound_ladder(
    primes: list[int],
    k: int = 2,
    l: int = 2,
    chars: tuple[int, ...] | None = None,
    samples: int = 100,
    subgeneric_samples: int = 20,
    seed: int = 0,
) -> LadderReport:
    """Run the full generic/subgeneric Sigma_I / Sigma_II ratio experiment."""
    if len(primes) < 2:
        raise PreconditionError(f"need at least two primes for a trend, got primes={list(primes)}")
    if l < 2:
        raise PreconditionError(f"bound ladder needs l >= 2, got l={l}: at l = 1 every non-"
                                "diagonal b has z = 2, so no non-diagonal subgeneric b exists")
    if samples < 1 or subgeneric_samples < 1:
        raise PreconditionError(f"bound ladder needs samples >= 1 and subgeneric_samples >= 1, "
                                f"got samples={samples}, subgeneric_samples={subgeneric_samples}")
    if sorted(primes) != list(primes):
        raise PreconditionError(f"primes must be increasing, got primes={list(primes)}")
    chars = tuple(chars) if chars is not None else (0,) * k
    if k < 1 or len(chars) != k:
        raise PreconditionError(f"need exactly k >= 1 character indices, got k={k}, "
                                f"chars={list(chars)}")
    report = LadderReport(k=k, l=l, chars=chars, seed=seed)
    for q in primes:
        field = build_field(q)
        if (q - 1) % k != 0:
            raise PreconditionError(f"ladder prime {q} is not 1 mod k={k}")
        table = kl_table_fast(field, CharTuple(field, chars))
        rng = _rng_for(seed, q, k, l)
        generic = generic_z_value(field, k, l, seed)
        gen_bs = sample_generic_b(field, k, l, samples, rng, generic)
        gen = [sigma_II(table, b) for b in gen_bs]
        max_i = max(rep.ratio_I for rep in gen)
        max_ii = max(rep.ratio_II for rep in gen)
        sub_bs = sample_subgeneric_b(field, k, l, subgeneric_samples, rng, generic)
        sub = [sigma_II(table, b) for b in sub_bs]
        sub_i = max(abs(rep.sigma_I) / q**1.5 for rep in sub)
        sub_ii = max(abs(rep.sigma_II) / q**2 for rep in sub)
        report.points.append(
            PrimePoint(
                q=q,
                generic_z=generic,
                n_generic=len(gen_bs),
                r_I=max_i,
                r_II=max_ii,
                n_subgeneric=len(sub_bs),
                sub_max_I=sub_i,
                sub_max_II=sub_ii,
            )
        )
    return report
