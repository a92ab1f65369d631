"""Exact base arithmetic: p-adic valuations, extended gcd, finite-precision residues.

Everything here is pure and exact.  Rationals are `fractions.Fraction`
throughout the package; valuations are plain ints except for the valuation
of zero, which is the `INF` sentinel.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class DomainError(ValueError):
    """A precondition of a library operation was violated."""


class InputParseError(ValueError):
    """Malformed textual input (rationals, polynomials, ideal specs, matrices)."""


class Infinity:
    """Valuation of zero; compares greater than every integer."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __hash__(self):
        return hash(("intpoly", "infinity"))

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, Infinity)

    def __gt__(self, other):
        return not isinstance(other, Infinity)

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "INF"


INF = Infinity()


# Miller-Rabin to the first 13 primes as bases is exact below psi_13
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017); above it no answer is proven.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


def is_prime(p) -> bool:
    """Deterministic primality: division by the 13 bases, which decides
    p < 41^2, then a strong probable-prime test to each base.  A p at or
    above PRIMALITY_BOUND with no factor among the bases is a DomainError."""
    if not isinstance(p, int) or p < 2:
        return False
    for b in _PRIME_BASES:
        if p % b == 0:
            return p == b
    if p < 41 * 41:
        return True
    if p >= PRIMALITY_BOUND:
        raise DomainError(
            f"{p} is not below {PRIMALITY_BOUND}, the bound of the primality test"
        )
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_prime(p) -> int:
    if not is_prime(p):
        raise DomainError(f"{p!r} is not prime")
    return p


def vp_int(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n."""
    if n == 0:
        raise ValueError("vp_int needs a nonzero integer")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(x, p: int):
    """p-adic valuation of a rational; INF for zero, negative values allowed."""
    require_prime(p)
    return _vp(Fraction(x), p)


def _vp(x, p: int):
    """`vp` of an int or Fraction without the primality check.

    For inner loops whose public entry has already called `require_prime`.
    """
    if not x:
        return INF
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with g = gcd(a, b) > 0 and u*a + v*b = g."""
    if a == 0 and b == 0:
        raise DomainError("ext_gcd(0, 0) is undefined")
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class PAdicResidue:
    """An approximation `value mod p^precision` of a p-adic integer."""

    p: int
    value: int
    precision: int

    def __post_init__(self):
        require_prime(self.p)
        if self.precision < 1:
            raise DomainError("precision must be >= 1")
        if not 0 <= self.value < self.p ** self.precision:
            raise DomainError(
                f"residue {self.value} out of range [0, {self.p}^{self.precision})"
            )

    @property
    def modulus(self) -> int:
        return self.p ** self.precision

    def reduce(self, precision: int) -> "PAdicResidue":
        """Truncate to a coarser precision."""
        if precision > self.precision:
            raise DomainError("cannot refine a residue beyond its precision")
        return PAdicResidue(self.p, self.value % self.p ** precision, precision)

    def __str__(self):
        return f"{self.value} mod {self.p}^{self.precision}"


def padic_residue(x, p: int, precision: int) -> PAdicResidue:
    """Image of a p-integral rational in Z/p^N, N = precision.

    Rejects rationals with negative valuation (no image in the residue ring).
    """
    require_prime(p)
    if precision < 1:
        raise DomainError("precision must be >= 1")
    x = Fraction(x)
    if _vp(x, p) < 0:
        raise DomainError(f"{x} has negative valuation at p={p}")
    modulus = p ** precision
    return PAdicResidue(p, x.numerator * pow(x.denominator, -1, modulus) % modulus, precision)


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or "a" into a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputParseError(f"bad rational {text!r}: {exc}") from None
