"""Classification of k-tuples of multiplicative characters.

A tuple is stored as its multiset of indices in Z/(q-1).  The properties
decided here are purely combinatorial:

* Kummer-induced: the multiset is a union of full fibers of the d-th power
  map a -> d*a on Z/(q-1), for some divisor d != 1 of k with d | q-1.  Such
  a fiber is a coset of the subgroup generated by (q-1)/d, so this says the
  multiset is stable under a -> a + (q-1)/d.
* self-dual with dualizing character xi: the multiset is stable under
  a -> e - a, where e is the index of xi.  A dualizing xi is alternating
  when k is even and Lambda = xi^(k/2), otherwise symmetric.  For odd k
  this is a property of the multiset, not a self-duality of the trace
  function: the dual of Kl_k is its pullback by x -> (-1)^k x.  At
  q = 100003 and k = 3, |E K(x) K(-x) conj(xi)(x)| is 1 and
  |E K(x)^2 conj(xi)(x)| is 0 (for k even, the other way round).
* NIO: not Kummer-induced, and (k odd, or no dualizing character is
  symmetric).  When several dualizing characters of mixed tags exist we take
  the conservative reading: one symmetric dualizing character kills NIO; the
  report carries a ``mixed_duality`` flag so the ambiguity stays visible.
* CGM: not Kummer-induced, Lambda trivial, and (k odd, or not self-dual, or
  the trivial character is a dualizing character with the alternating tag).
* value kind: every value of Kl_k(x; chi) is real, purely imaginary, or
  neither.  For k even, y -> -y in the defining sum gives
  conj Kl(x; chi) = eps Kl(x; conj chi) with eps = prod chi_i(-1) =
  (-1)^(sum a_i), so a multiset closed under a -> -a has real values when
  eps = 1 and purely imaginary ones when eps = -1.  Nothing else has: the
  Mellin transform of Kl at lambda is q^(-(k-1)/2) prod tau(chi_i lambda),
  whose modulus counts the i with chi_i lambda trivial, so conj Kl = +-Kl
  forces the multiset closed under negation; for k odd the same step gives
  conj Kl(x) = eps Kl(-x; chi), so conj Kl = +-Kl would make the transform
  vanish at every lambda with lambda(-1) = -+eps, and no Gauss sum vanishes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .errors import PreconditionError
from .field import PrimeField


@dataclass(frozen=True)
class CharTuple:
    """Ordered tuple of character indices over one prime field."""

    field: PrimeField
    indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) < 1:
            raise PreconditionError(f"need k >= 1 characters, got k=0 at q={self.field.q}")
        n = self.field.q - 1
        object.__setattr__(self, "indices", tuple(a % n for a in self.indices))

    @property
    def k(self) -> int:
        return len(self.indices)

    @property
    def lambda_index(self) -> int:
        """Index of Lambda = chi_1 * ... * chi_k."""
        return sum(self.indices) % (self.field.q - 1)

    def twist(self, a0: int) -> "CharTuple":
        """The tuple chi_0 * chars with chi_0 of index a0."""
        return CharTuple(self.field, tuple(a + a0 for a in self.indices))


@dataclass(frozen=True)
class KummerWitness:
    d: int
    xi_indices: tuple[int, ...]  # k/d fiber base points, with multiplicity


class Dualizing(NamedTuple):
    xi_index: int
    tag: str  # "symmetric" | "alternating"


@dataclass
class ClassificationReport:
    lambda_index: int
    kummer_induced: bool
    kummer_witness: KummerWitness | None
    dualizing: list[Dualizing]
    nio: bool
    cgm: bool
    mixed_duality: bool


def is_kummer_induced(t: CharTuple) -> tuple[bool, KummerWitness | None]:
    """The first divisor d | k, d != 1, whose d-th power fibers tile the tuple.

    A nonempty fiber of a -> d*a has gcd(d, q-1) elements, so k/d fibers
    fill k slots only when d | q-1; then each fiber is a coset of the
    subgroup generated by (q-1)/d, and a multiset is a union of such cosets
    exactly when translation by (q-1)/d fixes it.  Each fiber gives its base
    point d*a d times, so the witness keeps every d-th of the sorted d*a.
    """
    n = t.field.q - 1
    k = t.k
    ms = Counter(t.indices)
    for d in range(2, k + 1):
        if k % d == 0 and n % d == 0 and Counter((a + n // d) % n for a in t.indices) == ms:
            xi = sorted(d * a % n for a in t.indices)[::d]
            return True, KummerWitness(d=d, xi_indices=tuple(xi))
    return False, None


def dualizing_characters(t: CharTuple) -> list[Dualizing]:
    """All xi with the multiset stable under a -> xi - a, tagged symmetric/alternating.

    The map sends the smallest index a0 into the tuple, so only e = a0 + a can work.
    """
    n = t.field.q - 1
    ms = Counter(t.indices)
    lam = t.lambda_index
    a0 = min(t.indices)
    out = []
    for e in sorted({(a0 + a) % n for a in ms}):
        if Counter((e - a) % n for a in t.indices) == ms:
            alternating = t.k % 2 == 0 and (e * (t.k // 2)) % n == lam
            out.append(Dualizing(e, "alternating" if alternating else "symmetric"))
    return out


def classify_tuple(t: CharTuple) -> ClassificationReport:
    ki, witness = is_kummer_induced(t)
    duals = dualizing_characters(t)
    tags = {tag for _, tag in duals}
    has_symmetric = "symmetric" in tags
    trivial_alternating = any(e == 0 and tag == "alternating" for e, tag in duals)
    nio = (not ki) and (t.k % 2 == 1 or not has_symmetric)
    cgm = (
        (not ki)
        and t.lambda_index == 0
        and (t.k % 2 == 1 or not duals or trivial_alternating)
    )
    return ClassificationReport(
        lambda_index=t.lambda_index,
        kummer_induced=ki,
        kummer_witness=witness,
        dualizing=duals,
        nio=nio,
        cgm=cgm,
        mixed_duality=len(tags) > 1,
    )


def kl_value_kind(t: CharTuple) -> str:
    """"real", "imaginary" or "complex": what the values of Kl_k(x; chi) are,
    decided from the tuple alone (module docstring): k even and the index
    multiset closed under a -> -a, with (-1)^(sum a_i) = 1 for "real"."""
    n = t.field.q - 1
    if t.k % 2 or Counter(-a % n for a in t.indices) != Counter(t.indices):
        return "complex"
    return "real" if sum(t.indices) % 2 == 0 else "imaginary"


def cgm_twist_from_nio(t: CharTuple) -> CharTuple | None:
    """Twist an NIO tuple into a CGM tuple over F_q itself, when possible.

    For a self-dual alternating tuple the twist is the inverse of a square
    root of the dualizing character; otherwise it is the inverse of a k-th
    root of Lambda.  Passing to an extension field is out of scope, so when
    the required root does not exist in Z/(q-1) this returns None
    ("needs extension").
    """
    rep = classify_tuple(t)
    if not rep.nio:
        raise PreconditionError(f"tuple does not have NIO: chars={t.indices} at q={t.field.q}")
    n = t.field.q - 1
    if t.k % 2 == 0 and rep.dualizing:
        # all dualizing tags are alternating here (NIO excludes symmetric ones)
        for e, _tag in rep.dualizing:
            a0 = _solve_root(2, -e % n, n)
            if a0 is not None:
                return t.twist(a0)
        return None
    a0 = _solve_root(t.k, -rep.lambda_index % n, n)
    return None if a0 is None else t.twist(a0)


def _solve_root(m: int, target: int, n: int) -> int | None:
    """Some a with m*a = target mod n, or None."""
    g = math.gcd(m, n)
    if target % g != 0:
        return None
    return (target // g) * pow(m // g, -1, n // g) % n
