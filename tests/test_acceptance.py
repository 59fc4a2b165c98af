"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete (they also appear in captured output on failure).

Criterion 9b pins the generic fiber count at 2l + k^(2l-2) - V(k,l), where
V(k,l) counts the tuples zeta in mu_k^{2l} with zeta_1 = 1 whose signed sum
sum_{i<=l} zeta_i - sum_{i>l} zeta_i vanishes.  The resolvent product is
P_b = +-M^k, M the product over the k^(2l-1) forms with zeta_1 = 1, so the
squarefree part of F_b has degree at most 2l + k^(2l-2), and every vanishing
leading sum costs M a full power of r.  This gives 5, 8, 12 for
(k,l) = (2,2), (3,2), (2,3) and 2 at l = 1 (criterion 9a).  The earlier
value 2l + k^(2l-1) exceeds that bound and is attained by no b.
"""

import math

import numpy as np
import pytest

from klsums.bilinear import averaged_comparison_power_sum, moment_identity_check
from klsums.chartuples import CharTuple
from klsums.errors import NumericalInstabilityError
from klsums.experiments import bound_ladder
from klsums.field import MultChar, build_field
from klsums.kloosterman import (
    fourier_identity_check,
    kl_table_fast,
    kl_table_naive,
    table_agreement,
)
from klsums.strata import (
    box_count_variety,
    generic_z_bound,
    stratum_scan,
    vanishing_sum_count,
    z_fiber_count,
)
from klsums.sums import sigma_II

from conftest import primes_up_to

LADDER_PRIMES = [101, 151, 211, 307, 401, 499]


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def random_tuples(rng, q, k, count):
    """The trivial tuple plus count-1 seeded-random index tuples."""
    out = [(0,) * k]
    while len(out) < count:
        out.append(tuple(int(v) for v in rng.integers(0, q - 1, size=k)))
    return out


@pytest.fixture(scope="module")
def ladder():
    return bound_ladder(LADDER_PRIMES, k=2, l=2, samples=100, subgeneric_samples=20, seed=0)


def test_criterion_1_deligne_bound():
    """max_x |Kl_k| <= k + 1e-9 over all primes q <= 499 with q = 1 mod k,
    k in {2,3,4}, >= 5 tuples each."""
    rng = np.random.Generator(np.random.PCG64(1))
    worst = 0.0
    checked = 0
    for q in primes_up_to(499)[1:]:
        field = build_field(q)
        for k in (2, 3, 4):
            if (q - 1) % k != 0:
                continue
            for idx in random_tuples(rng, q, k, 5):
                table = kl_table_fast(field, CharTuple(field, idx))
                worst = max(worst, table.max_abs() - k)
                checked += 1
                assert table.max_abs() <= k + 1e-9, (q, k, idx)
    assert report(1, True, f"Deligne bound on {checked} tables; worst slack {worst:.2e}")


def test_criterion_2_oracle_equivalence():
    """kl_table_fast vs kl_table_naive, relative diff <= 1e-9, q <= 199, k <= 4."""
    rng = np.random.Generator(np.random.PCG64(2))
    worst = 0.0
    checked = 0
    for q in primes_up_to(199)[1:]:
        field = build_field(q)
        for k in (1, 2, 3, 4):
            for idx in random_tuples(rng, q, k, 2):
                t = CharTuple(field, idx)
                diff = table_agreement(kl_table_fast(field, t), kl_table_naive(field, t))
                worst = max(worst, diff)
                checked += 1
                assert diff <= 1e-9, (q, k, idx)
    assert report(2, True, f"fast/naive agreement on {checked} tables; worst {worst:.2e}")


def test_criterion_3_fourier_identity():
    """|sum_x Kl_k(x) lambda(x) - q^{-(k-1)/2} prod tau(chi_i lambda)| <= 1e-9 sqrt(q),
    20 random lambda per configuration, q <= 199."""
    rng = np.random.Generator(np.random.PCG64(3))
    worst = 0.0
    checked = 0
    for q in primes_up_to(199)[1:]:
        field = build_field(q)
        for k in (2, 3, 4):
            idx = tuple(int(v) for v in rng.integers(0, q - 1, size=k))
            table = kl_table_fast(field, CharTuple(field, idx))
            for _ in range(20):
                lam = MultChar(field, int(rng.integers(0, q - 1)))
                _, _, diff = fourier_identity_check(table, lam)
                worst = max(worst, diff / math.sqrt(q))
                checked += 1
                assert diff <= 1e-9 * math.sqrt(q), (q, k, idx, lam.a)
    assert report(3, True, f"Fourier identity on {checked} checks; worst {worst:.2e}*sqrt(q)")


def test_criterion_4_sigma_ii_rearrangement():
    """Direct (s1 != s2) form equals the difference form to 1e-6 relative,
    100 random b per (q, k, l) with q <= 101, k <= 3, l <= 2."""
    checked = 0
    worst = 0.0
    for q in (13, 53, 101):
        field = build_field(q)
        for k in (2, 3):
            table = kl_table_fast(field, CharTuple(field, (0,) * k))
            for l in (1, 2):
                rng = np.random.Generator(np.random.PCG64([4, q, k, l]))
                for _ in range(100):
                    b = rng.integers(0, q, size=2 * l)
                    try:
                        rep = sigma_II(table, b, direct=True)
                    except NumericalInstabilityError as exc:
                        report(4, False, f"disagreement at q={q} k={k} l={l} b={b}: {exc}")
                        raise
                    worst = max(worst, abs(rep.sigma_II_direct - rep.sigma_II) / q**1.5)
                    checked += 1
    assert report(4, True, f"rearrangement identity on {checked} b; worst {worst:.2e}*q^1.5")


def test_criterion_5_scale_invariance():
    """Sigma_I and Sigma_II unchanged to 1e-6 under table scale a in {1, 2, g},
    20 random b per configuration."""
    checked = 0
    for q in (13, 101):
        field = build_field(q)
        for k in (2, 3):
            t = CharTuple(field, (0,) * k)
            tables = {a: kl_table_fast(field, t, a) for a in (1, 2, field.g)}
            for l in (1, 2):
                rng = np.random.Generator(np.random.PCG64([5, q, k, l]))
                for _ in range(20):
                    b = rng.integers(0, q, size=2 * l)
                    ref = sigma_II(tables[1], b)
                    for a in (2, field.g):
                        rep = sigma_II(tables[a], b)
                        tol_i = 1e-6 * max(1.0, abs(ref.sigma_I))
                        tol_ii = 1e-6 * max(1.0, abs(ref.sigma_II))
                        assert abs(rep.sigma_I - ref.sigma_I) <= tol_i, (q, k, l, a, b)
                        assert abs(rep.sigma_II - ref.sigma_II) <= tol_ii, (q, k, l, a, b)
                        checked += 1
    assert report(5, True, f"a-invariance on {checked} (b, a) pairs")


def test_criterion_6_square_root_cancellation_trend(ladder):
    """R_II(499)/R_II(101) and R_I(499)/R_I(101) within (499/101)^0.15 for
    k=2 trivial tuple, l=2, 100 generic all-distinct b per prime."""
    med = {p.q: p for p in ladder.points}
    detail = "; ".join(
        f"q={p.q}: R_I={p.r_I:.4f} R_II={p.r_II:.3f}" for p in ladder.points
    )
    ok = ladder.trend_pass_I and ladder.trend_pass_II
    assert report(
        6,
        ok,
        f"allowance {ladder.trend_allowance:.4f}, ratio_I {ladder.trend_ratio_I:.4f}, "
        f"ratio_II {ladder.trend_ratio_II:.4f} | {detail}",
    )
    assert all(p.n_generic == 100 for p in ladder.points)
    assert med[101].generic_z == 5


def test_criterion_7_subgeneric_weaker_bounds(ladder):
    """Subgeneric non-diagonal b: |Sigma_II| <= 10 q^2 and |Sigma_I| <= 10 q^{3/2}
    across the ladder."""
    detail = "; ".join(
        f"q={p.q}: |S_I|/q^1.5={p.sub_max_I:.4f} |S_II|/q^2={p.sub_max_II:.4f}"
        for p in ladder.points
    )
    assert report(7, ladder.subgeneric_pass, detail)
    assert ladder.subgeneric_pass


def test_criterion_8_moment_identity():
    """max |lhs - rhs| <= 1e-8 over q in {13,17,29,37,41}, >= 3 even xi per q,
    n in {1,2,3}."""
    worst = 0.0
    checked = 0
    for q in (13, 17, 29, 37, 41):
        field = build_field(q)
        for xi_idx in (0, 2, 4):
            xi = MultChar(field, xi_idx)
            assert xi.is_even
            for n in (1, 2, 3):
                _, _, diff = moment_identity_check(field, xi, n)
                worst = max(worst, diff)
                checked += 1
                assert diff <= 1e-8, (q, xi_idx, n, diff)
    assert report(8, True, f"moment identity on {checked} triples; worst diff {worst:.2e}")


def test_criterion_9a_l1_fiber_count():
    """l=1, k=2, b1 != b2 implies z_count = 2 exactly."""
    field = build_field(13)
    for b1 in range(13):
        for b2 in range(13):
            if b1 != b2:
                assert z_fiber_count(field, 2, (b1, b2)).z_count == 2
    assert report(9, True, "(a) l=1 k=2: z_count = 2 for all b1 != b2 (exhaustive q=13)")


def test_criterion_9b_generic_zcount_formula():
    """Generic z_count equal to 2l + k^(2l-2) - V(k,l) attained by >= 90% of
    1000 random b.

    V(k,l) is enumerated over C, not read from a scan.  The value is the
    bound z(b) <= 2l + deg M, deg M <= k^(2l-2) - V(k,l), from P_b = +-M^k;
    see the module docstring.
    """
    field = build_field(499)  # 499 = 1 mod 2 and mod 3, and > 2l + k^(2l-1) for all configs
    results = []
    ok = True
    for k, l in ((2, 2), (3, 2), (2, 3)):
        v = vanishing_sum_count(k, l)
        expected = generic_z_bound(k, l)
        res = stratum_scan(field, k, l, samples=1000, seed=9)
        frac = res.histogram.get(expected, 0) / 1000
        results.append(
            f"(k={k},l={l}): 2l + k^(2l-2) - V = {2 * l} + {k ** (2 * l - 2)} - {v} = "
            f"{expected} attained {frac:.1%}, "
            f"measured generic {res.generic} attained {res.generic_fraction():.1%}"
        )
        ok = ok and frac >= 0.9
    report(9, ok, "(b) " + "; ".join(results))
    if not ok:
        pytest.fail(
            "criterion 9b: generic z_count 2l + k^(2l-2) - V(k,l) (the bound from "
            "P_b = +-M^k) attained by < 90% of b; " + "; ".join(results)
        )


def test_criterion_10_box_counting():
    """Diagonal count in [B,2B)^4 <= 3 B^2 for q=997, B in {10,20,40}."""
    field = build_field(997)
    counts = {}
    for B in (10, 20, 40):
        counts[B] = box_count_variety(field, B, 2)
        assert counts[B] <= 3 * B**2, (B, counts[B])
    assert report(
        10,
        True,
        "; ".join(f"B={B}: count={c} <= {3 * B ** 2}" for B, c in counts.items()),
    )


def test_criterion_11_averaged_comparison_power_sum():
    """Power-sum family (k=2, n=4, m=1): normalized gap <= 10 at q in {29, 31}."""
    gaps = {}
    for q in (29, 31):
        field = build_field(q)
        table = kl_table_fast(field, CharTuple(field, (0, 0)))
        rep = averaged_comparison_power_sum(table, 4, 1)
        gaps[q] = rep.normalized_gap
        assert rep.normalized_gap <= 10, (q, rep.normalized_gap)
    trend = gaps[31] / gaps[29]
    assert report(
        11,
        True,
        f"gap/q^3.5 = {gaps[29]:.3f} (q=29), {gaps[31]:.3f} (q=31); trend x{trend:.2f}",
    )
