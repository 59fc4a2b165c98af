"""The four benchmark workloads.

Each workload builds its inputs from a seed in ``setup`` (timed as set-up,
and called again, untimed, before every pass so that each pass gets fresh
input objects), lists the library calls of one pass in ``ops`` (the timed
phase repeats the pass), reduces each call's output to a comparable ``summary``
and judges one pass's outputs in ``check``.  Checks run outside the timed
phase.  Library functions are looked up on their module at call time, so
the tracer's rebinding sees them.

Why these four: each open ROADMAP item speeds up a different layer, and
each layer needs a workload where it dominates and one where it is absent.

* ladder   -- the paper's prime-ladder experiment; strata and sums share
              the time (traced: singular_polynomial 52%, kr_matrix 37%),
              small q (kr matrices <= 4 MB).
* scan     -- resolvent stratification only (strata + polyfq), two shapes
              (k,l) = (3,2) and (2,3); never touches kloosterman or sums.
* spectrum -- Kl tables at q ~ 10^5 on a field whose q-1 has a large prime
              factor (Bluestein FFTs) and on a 5-smooth one (the bypass
              for a padding change), plus the O(q^2) moment identity;
              never touches strata or sums.
* sums     -- Sigma_II at q = 997 (16 MB kr matrices, past L2) with the
              direct BLAS oracle on every 20th b; no strata work.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from klsums import bilinear, experiments, field, kloosterman, strata, sums
from klsums.chartuples import CharTuple

HERE = os.path.dirname(os.path.abspath(__file__))
BYTES_C128 = 16
BYTES_I64 = 8


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, salt]))


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class Ladder:
    """bound_ladder at the `klsums bound-check` default sample counts (100
    generic, 20 subgeneric per rung) on three of its six primes: the first
    and last, which decide the trend verdicts, and 307.  Each rung's draws
    depend only on (seed, q), so these rungs give exactly the values of the
    default six-rung run.  Each rung also runs a fixed 200-sample scan for
    the generic z, so cutting samples would shift the time from kr_matrix to
    strata; cutting rungs keeps roughly the split of the full experiment
    (traced: singular_polynomial 52% and kr_matrix 37% of a pass)."""

    name = "ladder"
    primes = [101, 307, 499]
    k, l = 2, 2
    samples, subgeneric_samples = 100, 20
    generic_z = 5
    expect_hit = ("field.build_field", "kloosterman.kl_table_fast", "sums.kr_matrix",
                  "sums.sigma_II", "strata.z_fiber_count", "strata.singular_polynomial",
                  "strata.stratum_scan", "polyfq.squarefree_part", "polyfq.mul",
                  "experiments.bound_ladder", "experiments.sample_generic_b",
                  "experiments.sample_subgeneric_b")
    expect_zero = ("sums.sigma_II_direct", "bilinear.", "field.gauss_sum")

    def setup(self, seed):
        return {"seed": seed}

    def ops(self, inp):
        return [lambda: experiments.bound_ladder(
            self.primes, k=self.k, l=self.l, samples=self.samples,
            subgeneric_samples=self.subgeneric_samples, seed=inp["seed"])]

    def summary(self, i, out):
        return json.dumps(out.to_json(), sort_keys=True)

    def check(self, inp, outs):
        # trend_pass_II is a statistical verdict, not a check of the outputs:
        # at the default 100 samples it fails for 3 of seeds 0..19 (NOTES.md).
        # It is reported by verdicts(), not counted as a failure.
        rep = outs[0]
        ok = (all(p.generic_z == self.generic_z and p.n_generic == self.samples
                  and p.n_subgeneric == self.subgeneric_samples for p in rep.points)
              and rep.trend_pass_I and rep.subgeneric_pass)
        return [ok]

    def verdicts(self, outs):
        rep = outs[0]
        return {"trend_ratio_I": rep.trend_ratio_I, "trend_ratio_II": rep.trend_ratio_II,
                "trend_allowance": rep.trend_allowance, "trend_pass_II": rep.trend_pass_II}

    def working_set(self, inp):
        q = max(self.primes)
        return {"kr_matrix_bytes": BYTES_C128 * q * (q - 1), "table_bytes": BYTES_C128 * q}


class Scan:
    """Seeded stratum scans at q = 499 for two shapes, one thread."""

    name = "scan"
    q = 499
    shapes = ((3, 2, 8), (2, 3, 12))  # (k, l, true generic z)
    samples = 20
    expect_hit = ("field.build_field", "strata.stratum_scan", "strata.z_fiber_count",
                  "strata.singular_polynomial", "polyfq.squarefree_part", "polyfq.mul")
    expect_zero = ("sums.", "kloosterman.", "experiments.", "bilinear.", "field.gauss_sum")

    def setup(self, seed):
        return {"seed": seed, "field": field.build_field(self.q)}

    def ops(self, inp):
        return [lambda k=k, l=l: strata.stratum_scan(inp["field"], k, l, samples=self.samples,
                                                     seed=inp["seed"], threads=1)
                for k, l, _ in self.shapes]

    def summary(self, i, out):
        return (sorted(out.histogram.items()), out.generic)

    def check(self, inp, outs):
        return [out.generic == z and sum(out.histogram.values()) == self.samples
                for (_, _, z), out in zip(self.shapes, outs)]

    def working_set(self, inp):
        # resolvent state: k^(2l) int64 coefficient vectors of length <= k^(2l-1) + 1
        return {f"resolvent_state_bytes_k{k}_l{l}": BYTES_I64 * k ** (2 * l) * (k ** (2 * l - 1) + 1)
                for k, l, _ in self.shapes}


ROUGH_Q = 97159  # q - 1 = 2 * 3 * 16193: the FFTs take the Bluestein path
SMOOTH_Q = 96001  # q - 1 = 2^8 * 3 * 5^3


class Spectrum:
    """Kl tables for a k = 3 and a k = 2 tuple on a rough and a smooth field
    near 10^5 and on q = 1009 (whose tables the naive oracle re-checks), plus
    the moment identity at q = 1009.  Near 10^6 a table takes about a second
    and a run holds only a few passes; at 10^5 the Bluestein tables still
    cost 3-4 times the smooth ones, and each call is short enough to repeat
    dozens of times in a run."""

    name = "spectrum"
    small_q = 1009
    n_lambdas = 2
    expect_hit = ("field.build_field", "field.gauss_sum", "kloosterman.kl_table_fast",
                  "bilinear.moment_identity_check", "bilinear.kl3_direct")
    expect_zero = ("sums.", "strata.", "polyfq.", "experiments.")

    def setup(self, seed):
        rng = _rng(seed, 3)
        fields = [field.build_field(q) for q in (ROUGH_Q, SMOOTH_Q, self.small_q)]
        tuples = [CharTuple(f, idx) for f in fields
                  for idx in ((0, 0, 0), (0, int(rng.integers(1, f.q - 1))))]
        small = fields[-1]
        xi = field.MultChar(small, 2 * int(rng.integers(0, (small.q - 1) // 2)))
        n = int(rng.integers(1, small.q))
        lambdas = [[field.MultChar(t.field, int(a)) for a in rng.integers(0, t.field.q - 1, self.n_lambdas)]
                   for t in tuples]
        return {"tuples": tuples, "xi": xi, "n": n, "lambdas": lambdas}

    def ops(self, inp):
        tabs = [lambda t=t: kloosterman.kl_table_fast(t.field, t) for t in inp["tuples"]]
        small = inp["xi"].field
        return tabs + [lambda: bilinear.moment_identity_check(small, inp["xi"], inp["n"])]

    def summary(self, i, out):
        return _digest(out.values) if isinstance(out, kloosterman.KlTable) else out

    def check(self, inp, outs):
        res = []
        for t, table, lams in zip(inp["tuples"], outs, inp["lambdas"]):
            q = t.field.q
            ok = all(kloosterman.fourier_identity_check(table, lam)[2] <= 1e-9 * math.sqrt(q)
                     for lam in lams)
            if q == self.small_q:
                naive = kloosterman.kl_table_naive(t.field, t)
                ok = ok and kloosterman.table_agreement(table, naive) <= 1e-9
            res.append(ok)
        res.append(outs[-1][2] <= 1e-8)
        return res

    def working_set(self, inp):
        return {f"q{q}_table_bytes": BYTES_C128 * q for q in (ROUGH_Q, SMOOTH_Q, self.small_q)} | {
            f"q{q}_field_bytes": 2 * BYTES_I64 * q for q in (ROUGH_Q, SMOOTH_Q)}


class Sums:
    """Sigma_II for seeded b at q = 997, l = 2, with the direct oracle on
    every 20th b."""

    name = "sums"
    q = 997
    n_b = 20
    direct_every = 20
    oracle_every = 5
    reference_seed = 0
    reference_file = os.path.join(HERE, "reference_sums.json")
    expect_hit = ("field.build_field", "kloosterman.kl_table_fast", "sums.kr_matrix",
                  "sums.sigma_II", "sums.sigma_II_direct")
    expect_zero = ("strata.", "polyfq.", "experiments.", "bilinear.", "field.gauss_sum")

    def setup(self, seed):
        f = field.build_field(self.q)
        table = kloosterman.kl_table_fast(f, CharTuple(f, (0, 0)))
        bs = _rng(seed, 4).integers(0, self.q, size=(self.n_b, 4), dtype=np.int64)
        return {"seed": seed, "table": table, "bs": bs}

    def ops(self, inp):
        return [lambda j=j, b=b: sums.sigma_II(inp["table"], b, direct=j % self.direct_every == 0)
                for j, b in enumerate(inp["bs"])]

    def summary(self, i, out):
        return (out.sigma_I, out.sigma_II, out.sigma_II_direct)

    def check(self, inp, outs):
        tol = 1e-6 * self.q**1.5
        res = []
        for j, (b, rep) in enumerate(zip(inp["bs"], outs)):
            ok = True
            if j % self.oracle_every == 0:
                s1, s2 = sums_oracle(inp["table"].values, b)
                ok = abs(rep.sigma_I - s1) <= tol and abs(rep.sigma_II - s2) <= tol
            res.append(ok)
        if inp["seed"] == self.reference_seed:
            with open(self.reference_file) as fh:
                ref = json.load(fh)
            for j, (rep, (re_i, im_i, s2)) in enumerate(zip(outs, ref["values"])):
                if abs(rep.sigma_I - complex(re_i, im_i)) > tol or abs(rep.sigma_II - s2) > tol:
                    res[j] = False
        return res

    def working_set(self, inp):
        q = self.q
        return {"kr_matrix_bytes": BYTES_C128 * q * (q - 1), "table_bytes": BYTES_C128 * q,
                "gram_bytes": BYTES_C128 * (q - 1) ** 2}


def sums_oracle(values: np.ndarray, b) -> tuple[complex, float]:
    """(Sigma_I, Sigma_II) for l = len(b)/2 without the library's kr_matrix.

    Substitutes t = s*r: bfK(s r, s b) = prod_i K(t + s b_i), so the
    s-by-t matrix needs no multiplication of r by s; bfR(r) then reads that
    matrix along t = s r.
    """
    q = len(values)
    l = len(b) // 2
    s = np.arange(1, q, dtype=np.int64)[:, None]
    t = np.arange(q, dtype=np.int64)[None, :]
    m = np.ones((q - 1, q), dtype=np.complex128)
    for i, bi in enumerate(b):
        v = values[(t + s * int(bi)) % q]
        m *= v if i < l else np.conj(v)
    r_vec = m[np.arange(q - 1)[:, None], (s * t) % q].sum(axis=0)
    return complex(m.sum()), float(np.sum(np.abs(r_vec) ** 2) - np.sum(np.abs(m) ** 2))


WORKLOADS = {w.name: w for w in (Ladder(), Scan(), Spectrum(), Sums())}
