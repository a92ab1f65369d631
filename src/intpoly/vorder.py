"""Orderings of a set that minimize difference-product valuations step by step,
the generalized factorial valuations w(k) they produce, the interpolation
bases built from them, and membership tests for integer-valued polynomials
on a set, locally at one prime.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from enum import Enum
from math import lcm, prod

from .arith import DomainError, _vp, require_prime, vp_int
from .poly import Polynomial, _binomial_valuation


@dataclass(frozen=True)
class SubsetDescriptor:
    """Either an explicit finite set of rationals or the symbolic set Z."""

    points: tuple | None  # None means "all rational integers"

    def __post_init__(self):
        if self.points is None:
            return
        if len(set(self.points)) != len(self.points):
            raise DomainError("finite set points must be pairwise distinct")
        if not self.points:
            raise DomainError("finite set must be nonempty")

    @classmethod
    def finite(cls, points) -> "SubsetDescriptor":
        return cls(tuple(Fraction(x) for x in points))

    @classmethod
    def all_integers(cls) -> "SubsetDescriptor":
        return cls(None)

    @property
    def is_finite(self) -> bool:
        return self.points is not None

    def require_p_integral(self, p: int) -> None:
        require_prime(p)
        if self.is_finite:
            for x in self.points:
                if _vp(x, p) < 0:
                    raise DomainError(f"point {x} is not p-integral at p={p}")

    def contains(self, x: Fraction) -> bool:
        x = Fraction(x)
        if self.is_finite:
            return x in self.points
        return x.denominator == 1

    def __str__(self):
        if self.is_finite:
            return "{" + ", ".join(str(x) for x in self.points) + "}"
        return "Z"


ALL_INTEGERS = SubsetDescriptor.all_integers()


@dataclass(frozen=True)
class VOrdering:
    """A chosen ordering of points with the step valuations w(k).

    w[k] is the valuation of prod_{j<k}(points[k] - points[j]); the greedy
    construction makes each w[k] the minimum of that product valuation over
    the whole set, so the w list does not depend on tie-breaking.
    """

    E: SubsetDescriptor
    p: int
    points: tuple
    w: tuple

    def __len__(self):
        return len(self.points)

    @property
    def last_index(self) -> int:
        return len(self.points) - 1


def factorial_valuation(k: int, p: int) -> int:
    """v_p(k!) as the digit sum: sum of floor(k / p^i)."""
    total = 0
    q = p
    while q <= k:
        total += k // q
        q *= p
    return total


def v_ordering(E: SubsetDescriptor, n: int, p: int, tie_break: str = "min") -> VOrdering:
    """Greedy construction of an ordering of length n+1 with its w values.

    At each step the next point minimizes the valuation of the difference
    product against the points already chosen; ties go to the smallest point
    in (numerator, denominator) lexicographic order (or the largest, with
    tie_break="max", which must produce the same w list).

    Each remaining candidate keeps its running difference-product valuation,
    and a step adds only its valuation against the point just chosen: for a
    finite set E this is O(n*|E|) valuations, with primality checked once.

    For the symbolic set of all integers the ordering 0, 1, ..., n is used
    with w[k] = v_p(k!); that this is a valid choice is covered by the
    factorial-valuation property tests.
    """
    require_prime(p)
    if n < 0:
        raise DomainError("ordering length must be >= 1 (n >= 0)")
    if tie_break not in ("min", "max"):
        raise DomainError(f"unknown tie_break {tie_break!r}")
    if not E.is_finite:
        points = tuple(Fraction(k) for k in range(n + 1))
        w = tuple(factorial_valuation(k, p) for k in range(n + 1))
        return VOrdering(E, p, points, w)

    E.require_p_integral(p)
    if len(E.points) < n + 1:
        raise DomainError(
            f"set of size {len(E.points)} cannot host an ordering of length {n + 1}"
        )
    order_key = (lambda x: (x.numerator, x.denominator))
    remaining = sorted(E.points, key=order_key)
    if tie_break == "max":
        remaining.reverse()
    # The points are p-integral, so their denominators are prime to p and
    # v_p(r/s - t/u) = v_p(r*u - t*s): the valuations need only integers,
    # and r*u - t*s is never zero because the points are distinct.
    pairs = [(x.numerator, x.denominator) for x in remaining]
    chosen = [remaining.pop(0)]
    t, u = pairs.pop(0)
    w = [0]
    sums = [0] * len(remaining)
    for _ in range(n):
        sums = [v + vp_int(r * u - t * s, p) for v, (r, s) in zip(sums, pairs)]
        # min returns the first minimum: ties go to the earliest in `remaining`
        best = min(range(len(remaining)), key=sums.__getitem__)
        chosen.append(remaining.pop(best))
        t, u = pairs.pop(best)
        w.append(sums.pop(best))
    return VOrdering(E, p, tuple(chosen), tuple(w))


def regular_basis(vord: VOrdering, k: int) -> Polynomial:
    """The k-th interpolation basis polynomial N_k / N_k(a_k), N_k = prod_{j<k}(X - a_j)."""
    if not 0 <= k <= vord.last_index:
        raise DomainError(f"basis index {k} out of range 0..{vord.last_index}")
    points = vord.points[:k + 1]
    # at the points scaled to integers b_j = D*a_j, both gain D^k, which cancels
    denominator = lcm(*(a.denominator for a in points))
    *scaled, b_k = [a.numerator * (denominator // a.denominator) for a in points]
    numerator = Polynomial.one()
    for b_j in scaled:
        numerator = numerator * Polynomial((-b_j, denominator))
    return numerator / prod(b_k - b_j for b_j in scaled)


def expand_in_basis(f: Polynomial, vord: VOrdering) -> list:
    """Coefficients c_k with f = sum c_k f_k, by the triangular recursion
    c_k = f(a_k) - sum_{h<k} c_h f_h(a_k).

    With N_h(x) = prod_{j<h}(x - a_j), f_h = N_h / N_h(a_h), so the sum is
    the Newton form sum_{h<k} q_h N_h(a_k) with q_h = c_h / N_h(a_h), and
    N_h(a_k) is a running product over h.  No basis polynomial is built.
    The divided difference q_k vanishes for k > d = deg f, and with it
    c_k = q_k N_k(a_k): only c_0 .. c_d are computed, the rest are
    Fraction(0).  That is O(n + d^2) field operations and d + 1
    evaluations of f for an ordering of length n+1.
    """
    n = vord.last_index
    if f.degree > n:
        raise DomainError(
            f"degree {f.degree} exceeds ordering length (need deg <= {n})"
        )
    points = vord.points[:f.degree + 1]
    # Scaling every point by a common denominator D scales N_h by D^h,
    # which cancels in f_h: the running products stay integers.
    denominator = lcm(*(a.denominator for a in points))
    scaled = [a.numerator * (denominator // a.denominator) for a in points]
    coeffs = []
    newton = []  # q_h = c_h / N_h(a_h), with N_h taken at the scaled points
    for k, a_k in enumerate(points):
        value = f(a_k)
        product = 1  # N_h(a_k)
        for h in range(k):
            value -= newton[h] * product
            product *= scaled[k] - scaled[h]
        coeffs.append(value)
        newton.append(value / product)
    return coeffs + [Fraction(0)] * (n - f.degree)


class MembershipTarget(Enum):
    VALUATION_RING = "v"
    MAXIMAL_IDEAL = "m"


def int_membership(
    f: Polynomial,
    E: SubsetDescriptor,
    p: int,
    target: MembershipTarget = MembershipTarget.VALUATION_RING,
) -> bool:
    """Membership of f in the p-local integer-valued ring over E, v_E(f) >= 0,
    or in its maximal-ideal layer, v_E(f) >= 1 (all values in pZ_(p)).
    """
    E.require_p_integral(p)
    threshold = 0 if target is MembershipTarget.VALUATION_RING else 1
    if E.is_finite:  # v_E(f) >= threshold, stopping at the first point below it
        return all(_vp(f(a), p) >= threshold for a in E.points)
    return _binomial_valuation(f, p) >= threshold
