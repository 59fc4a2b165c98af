"""Prime-field arithmetic, discrete logarithms, characters, and Gauss sums.

Everything downstream works inside a fixed ``PrimeField``: a prime q, the
smallest primitive root g, its power table exp, and the full discrete-log
table of F_q^x, built the first time it is read (no Kl table or Gauss
spectrum reads it; the Sigma kernel, the characters' pointwise values and
the moment identity do).  The additive character is fixed once and for all
as psi(x) = exp(2*pi*i*x / q); variants psi_a(x) = psi(a*x) are realized
through the scale parameter a.  Multiplicative characters are indices a in
Z/(q-1) with chi_a(g^m) = exp(2*pi*i*a*m / (q-1)) and chi(0) = 0 (all sums
here range over F_q^x, so the middle-extension value at 0 is never used).

Gauss sums come two ways.  ``gauss_sum`` sums one character directly in
O(q); it is the oracle.  ``PrimeField.gauss_spectrum`` is one transform of
psi(g^m) over m, which holds every Gauss sum of the field at once:
gauss_spectrum[j] = tau(chi_{-j}).  The Kl tables and the moment identity
read the spectrum; the checks that validate them call ``gauss_sum``.  Both,
like every other reader of psi in log order, take psi(g^m) from
``additive_char_by_log``, which evaluates psi straight at exp (the same
floats as ``additive_char_vector`` gathered by exp, with no length-q vector).

``log_dft`` is the package's one length-(q-1) transform: the spectrum, the
fast Kl tables and the power sum go through it.  When q - 1 = m*p with p a
prime above sqrt(q - 1) (so gcd(m, p) = 1), numpy would pad the whole length
for Bluestein's algorithm; past measured floors on q - 1 and p, ``log_dft``
splits it by the Good-Thomas prime-factor algorithm instead, so only the
length-p rows are padded.  Every other q - 1 goes to ``np.fft`` whole.  On
both paths the transform is written over its input, which is returned.

``build_field`` counts its tables against the package's byte budget
(``errors.MAX_BYTES``), which admits q up to about 1.9e7.  Every admitted q
is below 2^31, so a product of two residues is exact in int64.

Summation policy: bulk reductions use numpy pairwise summation, and the few
scalar accumulations use math.fsum; both keep the absolute error of an
n-term unit-scale sum well below 1e3 * n * eps, the budget assumed by the
tolerance constants in this package.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import PreconditionError, check_bytes


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3,215,031,751 (witnesses 2,3,5,7)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factorize(n: int) -> list[int]:
    """Distinct prime factors of n by trial division (n < 2^31 here)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def smallest_primitive_root(q: int) -> int:
    """Smallest g generating F_q^x, found by checking g^((q-1)/p) != 1 for p | q-1."""
    if q == 2:
        return 1
    exponents = [(q - 1) // p for p in _factorize(q - 1)]
    g = 2
    while True:
        if all(pow(g, e, q) != 1 for e in exponents):
            return g
        g += 1


@dataclass(frozen=True)
class PrimeField:
    """Prime field F_q with primitive root, power and discrete-log tables.

    exp has length q-1 with exp[m] = g^m mod q.  dlog has length q with
    dlog[0] = -1 (0 has no logarithm) and dlog[g^m mod q] = m for
    0 <= m < q-1.  Both are read-only int64.  The cached properties
    ``dlog``, ``factors`` and ``gauss_spectrum`` are built on first use
    (``build_field`` counts dlog and the spectrum among its bytes).
    """

    q: int
    g: int
    exp: np.ndarray = dc_field(repr=False)

    @cached_property
    def dlog(self) -> np.ndarray:
        """The discrete-log table, scattered from exp on first read."""
        dlog = np.full(self.q, -1, dtype=np.int64)
        dlog[self.exp] = np.arange(self.q - 1)
        dlog.flags.writeable = False
        return dlog

    @cached_property
    def factors(self) -> tuple:
        """The distinct primes dividing q - 1, ascending (``log_dft`` reads
        the largest)."""
        return tuple(_factorize(self.q - 1))

    @cached_property
    def gauss_spectrum(self) -> np.ndarray:
        """Every Gauss sum from one transform: gauss_spectrum[j] = tau(chi_{-j}).

        The DFT of m -> psi(g^m) at frequency j is the sum over y of
        psi(y) exp(-2 pi i j dlog(y) / (q-1)) = tau(chi_{-j}).  Length q-1,
        complex128, 16 q bytes: psi(g^m) is evaluated into the one buffer
        that ``log_dft`` then transforms in place.
        """
        spec = log_dft(self, additive_char_by_log(self))
        spec.flags.writeable = False
        return spec


# log_dft splits q - 1 = m*p only from these lengths and primes on: below
# them numpy's own transform of the whole length is about as fast or faster
# (one thread, 2-core Xeon VM, primes q < 6e4): numpy runs a direct radix-p
# pass rather than Bluestein for p below about 2^7, and below 2^12 entries
# the split's 4m slice copies cost what it saves.
SPLIT_MIN_N = 2**12
SPLIT_MIN_P = 2**8


def _split_prime(field: PrimeField) -> int:
    """The prime p that ``log_dft`` splits q - 1 = m*p by, or 0 if it
    does not split: p is the largest prime factor of q - 1, and the split
    needs p^2 > q - 1 (so p divides q - 1 once and gcd(m, p) = 1),
    q - 1 >= SPLIT_MIN_N and p >= SPLIT_MIN_P."""
    n = field.q - 1
    p = field.factors[-1]
    return p if p * p > n and n >= SPLIT_MIN_N and p >= SPLIT_MIN_P else 0


def log_dft(field: PrimeField, x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """The length-(q-1) DFT of x (``np.fft.fft``, or ``np.fft.ifft`` with
    its 1/(q-1) when inverse).

    x is a contiguous complex128 vector of length n = q - 1, taken as
    scratch: both paths write the transform over x and return x.  When
    ``_split_prime`` gives p, n = m*p with gcd(m, p) = 1 and the Good-Thomas
    prime-factor algorithm applies, with no twiddles: with
    a[j1, j2] = x[(j1*p + j2*m) mod n], the transform of a along p and then
    along m is C[k1, k2] = X[k] at the k with k = k1 mod m and k = k2 mod p.
    Both index maps are cyclic slices here.  Row j of a is filled for
    j1 = j * (p^-1 mod m), so that the transform along m gives
    D[c] = C[p*c mod m]; read as (p, m), x holds a[j1] as a column rotated
    by (j1*p) // m, and read as (m, p), X[c*p + d] = D[(c + d*p^-1) mod m, d],
    a rotation of D's rows per class d mod m.  The index arithmetic is on
    Python ints, exact for every n, and past x the split holds a alone
    (16 bytes per entry); only the length-p rows are padded by numpy.
    Otherwise x goes to ``np.fft`` whole, with x as its out.
    """
    n = field.q - 1
    if x.shape != (n,) or x.dtype != np.complex128 or not x.flags.c_contiguous:
        raise PreconditionError(f"log_dft takes a contiguous complex128 vector of length "
                                f"q-1 = {n}, got {x.dtype} of shape {x.shape}")
    fft = np.fft.ifft if inverse else np.fft.fft
    p = _split_prime(field)
    if not p:
        return fft(x, out=x)
    m = n // p
    pinv = pow(p, -1, m)
    a = np.empty((m, p), dtype=np.complex128)
    by_col = x.reshape(p, m)  # by_col[u, v] = x[u*m + v]
    for j in range(m):
        u, v = divmod(pinv * j % m * p, m)  # j1*p = u*m + v
        a[j, :p - u] = by_col[u:, v]
        a[j, p - u:] = by_col[:u, v]
    fft(a, axis=1, out=a)
    fft(a, axis=0, out=a)
    out = x.reshape(m, p)
    for r in range(m):
        s = r * pinv % m
        out[:m - s, r::m] = a[s:, r::m]
        out[m - s:, r::m] = a[:s, r::m]
    return x


def _powers_mod(g: int, q: int, n: int) -> np.ndarray:
    """[g^0, g^1, ..., g^(n-1)] mod q by blocked doubling: once the first s
    powers are known, the next s are those times g^s mod q.  Exact in int64
    for q < 2^31, where every product stays below 2^62."""
    out = np.empty(n, dtype=np.int64)
    out[0] = 1
    s = 1
    while s < n:
        m = min(s, n - s)
        np.multiply(out[:m], pow(g, s, q), out=out[s:s + m])
        np.remainder(out[s:s + m], q, out=out[s:s + m])
        s += m
    return out


def build_field(q: int) -> PrimeField:
    """Construct F_q with a verified primitive root and its power table
    (dlog is built on first read)."""
    if not isinstance(q, int):
        raise PreconditionError(f"q must be an integer, got {type(q).__name__}")
    # exp, dlog (built on first read) and its scatter's arange source,
    # then gauss_spectrum, the one buffer log_dft transforms in place, and
    # the split's (m, p) array: 49.3 bytes per element at q = 100003 with
    # dlog read first (40.0 with the spectrum alone), counted as 56, plus
    # 16 KiB
    check_bytes(56 * q + 2**14, "field", q=q)
    if q < 3:
        raise PreconditionError(f"q = {q} < 3: need an odd prime")
    if not is_prime(q):
        raise PreconditionError(f"q = {q} is not prime (composite or unit)")
    g = smallest_primitive_root(q)
    exp = _powers_mod(g, q, q - 1)
    if int(exp[-1]) * g % q != 1:
        raise ArithmeticError("primitive-root table construction failed")  # pragma: no cover
    exp.flags.writeable = False
    return PrimeField(q=q, g=g, exp=exp)


def check_b(field: PrimeField, b) -> tuple[np.ndarray, int]:
    """A shift tuple b as int64 residues mod q, with its l = len(b) / 2.

    The one rule for b, shared by the complete sums and the strata: b is one
    2l-tuple or a (B, 2l) array holding one per row.  Entries are integers
    within int64 (integral floats such as 4.0 count; 1.7, NaN and 2**70 do
    not), and 2l is even and at least 2.  Only the strata take a batch, and
    return one result per row; the complete sums of ``sums`` take one b and
    refuse a batch.
    """
    raw = np.asarray(b)
    if raw.dtype.kind == "f":
        ok = np.all(np.isfinite(raw) & (raw == np.floor(raw)) & (np.abs(raw) < 2.0**63))
    else:
        ok = raw.dtype.kind == "i" or (raw.dtype.kind == "u" and np.all(raw < 2**63))
    if not ok:
        raise PreconditionError(f"b entries must be integers within int64, got {b!r}")
    reduced = raw.astype(np.int64) % field.q
    n = reduced.shape[-1] if reduced.ndim else 0
    if reduced.ndim not in (1, 2) or n < 2 or n % 2 != 0:
        raise PreconditionError(f"b must be a flat tuple of even length 2l >= 2, "
                                f"or a (B, 2l) array of them, got shape {raw.shape}")
    return reduced, n // 2


@dataclass(frozen=True)
class MultChar:
    """Multiplicative character of F_q^x, as an index a in Z/(q-1)."""

    field: PrimeField
    a: int

    def __post_init__(self):
        object.__setattr__(self, "a", self.a % (self.field.q - 1))

    @property
    def order(self) -> int:
        n = self.field.q - 1
        return n // math.gcd(self.a, n)

    @property
    def is_even(self) -> bool:
        """chi(-1) = 1, i.e. a*(q-1)/2 = 0 mod q-1."""
        return (self.a * ((self.field.q - 1) // 2)) % (self.field.q - 1) == 0

    def __call__(self, x: int) -> complex:
        return eval_char(self, x)

    def values_by_log(self) -> np.ndarray:
        """Vector chi(g^m) for m = 0..q-2."""
        n = self.field.q - 1
        return np.exp(2j * np.pi * (self.a * np.arange(n) % n) / n)

    def values_by_residue(self) -> np.ndarray:
        """Vector of length q: chi(x) for x = 0..q-1, with chi(0) = 0."""
        q = self.field.q
        out = np.zeros(q, dtype=np.complex128)
        out[self.field.exp] = self.values_by_log()
        return out


def eval_char(chi: MultChar, x: int) -> complex:
    """chi(x); returns 0 at x = 0, 1 for the trivial character at x != 0."""
    q = chi.field.q
    x %= q
    if x == 0:
        return 0j
    if chi.a == 0:
        return 1 + 0j
    m = int(chi.field.dlog[x])
    return cmath.exp(2j * math.pi * ((chi.a * m) % (q - 1)) / (q - 1))


def eval_additive(field: PrimeField, a: int, x: int) -> complex:
    """psi_a(x) = exp(2*pi*i*a*x / q)."""
    q = field.q
    return cmath.exp(2j * math.pi * ((a * x) % q) / q)


def additive_char_vector(field: PrimeField) -> np.ndarray:
    """Vector psi(x) for x = 0..q-1."""
    q = field.q
    return np.exp(2j * np.pi * np.arange(q) / q)


def additive_char_by_log(field: PrimeField) -> np.ndarray:
    """Vector psi(g^m) for m = 0..q-2 in one new complex128 buffer: the
    expression of ``additive_char_vector`` evaluated at exp in place, so
    equal bit for bit to ``additive_char_vector(field)[field.exp]``."""
    psi = field.exp * (2j * np.pi)
    psi /= field.q
    return np.exp(psi, out=psi)


def gauss_sum(chi: MultChar) -> complex:
    """tau(chi) = sum over y in F_q^x of chi(y) e(y/q), by direct summation."""
    return complex(np.sum(chi.values_by_log() * additive_char_by_log(chi.field)))
