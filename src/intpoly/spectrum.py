"""Membership and residue computations at the points of the prime spectrum of
a ring of integer-valued polynomials over a p-local valuation ring.

Five concrete kinds of point are supported: height-one primes attached to a
monic nonconstant rational polynomial, maximal ideals attached to a point of
the set, to a finite-precision p-adic element, or to a pseudo-convergent
window, and the ideal of polynomials mapping the whole set into the maximal
ideal.  Verdicts are three-valued: finite data sometimes cannot decide, and
then the answer is UNKNOWN with a reason rather than a guess.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .arith import (
    DomainError,
    InputParseError,
    PAdicResidue,
    padic_residue,
    require_prime,
    vp_int,
)
from .poly import (
    MAX_DEGREE,
    MAX_HEIGHT,
    Polynomial,
    _binomial_valuation,
    _residue_sweep,
    parse_polynomial,
    residue_period_exp,
)
from .sequences import SeqWindow, WindowClass, classify_window, require_window_length
from .vorder import ALL_INTEGERS, MembershipTarget, SubsetDescriptor, int_membership

INSUFFICIENT_PRECISION = "insufficient_precision"
WINDOW_AMBIGUOUS = "window_ambiguous"


@dataclass(frozen=True)
class TriVerdict:
    value: str  # "yes" | "no" | "unknown"
    reason: str | None = None

    @property
    def is_yes(self) -> bool:
        return self.value == "yes"

    @property
    def is_no(self) -> bool:
        return self.value == "no"

    @property
    def decided(self) -> bool:
        return self.value in ("yes", "no")

    def __str__(self):
        if self.reason:
            return f"{self.value} ({self.reason})"
        return self.value


YES = TriVerdict("yes")
NO = TriVerdict("no")


def unknown(reason: str) -> TriVerdict:
    return TriVerdict("unknown", reason)


# -- the ideal kinds ----------------------------------------------------------


@dataclass(frozen=True)
class PrimeAboveZero:
    """Height-one prime: multiples of a fixed monic nonconstant q."""

    q: Polynomial

    def __post_init__(self):
        if self.q.degree < 1:
            raise DomainError("the generator must be nonconstant")
        if self.q.leading_coefficient != 1:
            raise DomainError("the generator must be monic")

    def __str__(self):
        return f"pq:{self.q}"


@dataclass(frozen=True)
class MaxTrivial:
    """Maximal ideal of polynomials whose value at a fixed point a is non-unit."""

    p: int
    a: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        SubsetDescriptor((self.a,)).require_p_integral(self.p)

    def __str__(self):
        return f"max:p={self.p},a={self.a}"


@dataclass(frozen=True)
class MaxCompletion:
    """Maximal ideal attached to a finite-precision p-adic element."""

    x: PAdicResidue

    @property
    def p(self) -> int:
        return self.x.p

    def __str__(self):
        return f"comp:p={self.p},x={self.x.value},N={self.x.precision}"


@dataclass(frozen=True)
class MaxSequence:
    """Maximal ideal attached to a pseudo-convergent window."""

    window: SeqWindow

    def __post_init__(self):
        if classify_window(self.window) is not WindowClass.PSEUDO_CONVERGENT:
            raise DomainError("sequence ideal needs a pseudo-convergent window")

    @property
    def p(self) -> int:
        return self.window.p

    def __str__(self):
        pts = ",".join(str(x) for x in self.window.points)
        return f"seq:p={self.p},pts={pts}"


@dataclass(frozen=True)
class IntEM:
    """The ideal of polynomials mapping the whole set into the maximal ideal."""

    p: int

    def __post_init__(self):
        require_prime(self.p)

    def __str__(self):
        return f"iem:p={self.p}"


IdealSpec = PrimeAboveZero | MaxTrivial | MaxCompletion | MaxSequence | IntEM

# a comp: ideal is refused before p^N is built when N * ceil(log2 p) exceeds
# MAX_COMPLETION_BITS.  No decision needs more: `_completion_threshold` is at
# most the base-p digits of MAX_DEGREE or 1 + v_p(m) with m <= 2^MAX_HEIGHT,
# and there N * ceil(log2 p) stays below 1.3 * MAX_HEIGHT (largest at p = 5).
# Building x mod p^N took 2 ms at 2^16 bits, 0.14 s at 2^20 and 0.95 s at
# 2^22 (Python 3.11, 2-core Xeon)
MAX_COMPLETION_BITS = 2 * MAX_HEIGHT


def parse_ideal(text: str) -> IdealSpec:
    """Parse the mini-grammar: pq:<poly> | max:p=,a= | comp:p=,x=,N= |
    seq:p=,pts= | iem:p=."""
    text = text.strip()
    kind, _, body = text.partition(":")
    if not body:
        raise InputParseError(f"bad ideal spec {text!r}")
    if kind == "seq":  # refused before the spec, which holds every point, is echoed
        require_window_length(body.partition("pts=")[2])
    try:
        if kind == "pq":
            return PrimeAboveZero(parse_polynomial(body))
        if kind == "seq":
            # the pts= value itself contains commas, so split it off first
            head, sep, pts_text = body.partition("pts=")
            if not sep:
                raise InputParseError(f"seq ideal needs pts=: {text!r}")
            fields = _parse_fields(head.rstrip(","))
            pts = tuple(Fraction(s) for s in pts_text.split(","))
            return MaxSequence(SeqWindow(int(fields["p"]), pts))
        fields = _parse_fields(body)
        if kind == "max":
            return MaxTrivial(int(fields["p"]), Fraction(fields["a"]))
        if kind == "comp":
            x, p, N = int(fields["x"]), int(fields["p"]), int(fields["N"])
            bits = N * (p - 1).bit_length()
            if bits > MAX_COMPLETION_BITS:
                raise InputParseError(
                    f"precision {p}^{N} of size up to 2^{bits} exceeds the cap of "
                    f"2^{MAX_COMPLETION_BITS}"
                )
            return MaxCompletion(padic_residue(x, p, N))
        if kind == "iem":
            return IntEM(int(fields["p"]))
    except (KeyError, ValueError) as exc:
        raise InputParseError(f"bad ideal spec {text!r}: {exc}") from None
    raise InputParseError(f"unknown ideal kind {kind!r}")


def _parse_fields(body: str) -> dict:
    fields = {}
    for item in body.split(","):
        if not item.strip():
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise InputParseError(f"expected key=value, got {item!r}")
        fields[key.strip()] = value.strip()
    return fields


def _require_in_ring(f: Polynomial, E: SubsetDescriptor, p: int) -> None:
    """Refuse f unless it lies in the ring, v_E(f) >= 0."""
    if not int_membership(f, E, p):
        raise DomainError(
            f"{f} is not integer-valued on {E} at p={p}; membership query is not defined"
        )


def _completion_threshold(f: Polynomial, E: SubsetDescriptor, p: int) -> int:
    """Precision from which x mod p^N fixes f(x) mod p: `residue_period_exp`
    when f is p-integral on Z, as ring membership makes it over Z; else only
    the denominator bound 1 + v_p(m)."""
    if E.is_finite and _binomial_valuation(f, p) < 0:
        return 1 + vp_int(f.denominator_lcm(), p)
    return residue_period_exp(f, p)


def _window_tail(ideal: MaxSequence, E: SubsetDescriptor) -> tuple:
    """The later half of the window, on which f decides membership."""
    pts = ideal.window.points
    for x in pts:
        if not E.contains(x):
            raise DomainError(f"window point {x} does not belong to {E}")
    return pts[len(pts) - ceil(len(pts) / 2):]


def _point_residues(f: Polynomial, ideal: IdealSpec, E: SubsetDescriptor):
    """The residues mod p of f at the points that decide f at a maximal ideal:
    the point a of max:, the approximation x of comp: and the window tail of
    seq:.  None when x is too coarse to fix f(x) mod p.  A value of negative
    valuation, from comp: over a finite set at an x outside it, is refused."""
    p = ideal.p
    _require_in_ring(f, E, p)
    if isinstance(ideal, MaxTrivial):
        if not E.contains(ideal.a):
            raise DomainError(f"point {ideal.a} does not belong to {E}")
        points = (ideal.a,)
    elif isinstance(ideal, MaxCompletion):
        if ideal.x.precision < _completion_threshold(f, E, p):
            return None
        points = (ideal.x.value,)
    elif isinstance(ideal, MaxSequence):
        points = _window_tail(ideal, E)
    else:
        raise DomainError(f"unsupported ideal spec {ideal!r}")
    return [padic_residue(f(x), p, 1).value for x in points]


def ideal_membership(
    f: Polynomial, ideal: IdealSpec, E: SubsetDescriptor = ALL_INTEGERS
) -> TriVerdict:
    """Three-valued membership of f in the given spectrum point over E."""
    if isinstance(ideal, PrimeAboveZero):
        return YES if ideal.q.divides(f) else NO
    if isinstance(ideal, IntEM):
        if int_membership(f, E, ideal.p, MembershipTarget.MAXIMAL_IDEAL):
            return YES
        _require_in_ring(f, E, ideal.p)
        return NO
    residues = _point_residues(f, ideal, E)
    if residues is None:
        return unknown(INSUFFICIENT_PRECISION)
    if all(r == 0 for r in residues):
        return YES
    if all(r != 0 for r in residues):
        return NO
    return unknown(WINDOW_AMBIGUOUS)


def residue_representative(
    f: Polynomial, ideal: IdealSpec, E: SubsetDescriptor = ALL_INTEGERS
):
    """The residue s in [0, p) with f - s in the ideal, or None if undecidable.

    Only defined for the maximal ideals; by the separation property below,
    such an s exists and is unique whenever the available data decides
    membership.
    """
    if isinstance(ideal, (PrimeAboveZero, IntEM)):
        raise DomainError("residue representatives exist only for maximal ideals")
    residues = _point_residues(f, ideal, E)
    if residues is None or len(set(residues)) != 1:
        return None
    return residues[0]


def separation_check(f: Polynomial, p: int):
    """Residue image of f together with the separation product test.

    Computes R = { f(x) mod p } and checks that prod_{s in R} (f - s) maps
    every integer into the maximal ideal; for valid inputs the product test
    must come out true, which is what makes the residues R a complete set of
    representatives at every maximal ideal above p.  A product of degree
    |R| * deg f above MAX_DEGREE is refused before it is built.
    """
    require_prime(p)
    if _binomial_valuation(f, p) < 0:
        raise DomainError(f"{f} is not integer-valued at p={p}")
    residues = frozenset(_residue_sweep(f, p, residue_period_exp(f, p)))
    if len(residues) * f.degree > MAX_DEGREE:
        raise DomainError(
            f"the separation product of degree {len(residues) * f.degree} "
            f"exceeds the cap of degree {MAX_DEGREE}"
        )
    product = Polynomial.one()
    for s in sorted(residues):
        product = product * (f - s)
    return residues, _binomial_valuation(product, p) >= 1
