"""Workload `orderings`: the generalized-factorial machinery behind the
spectrum description.

Each operation takes one seeded set E of 16 p-integral rationals and one
seeded polynomial f, and runs `v_ordering` (both tie-breaks),
`expand_in_basis` and `int_membership` (both targets).  A round holds 50
operations: at each of the primes 2, 3, 5 and 7, eight random sets and two
arithmetic progressions; at the prime 1000003 (a fixed fifth of the round)
the same split.  The work is dominated by `arith.vp`.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

from exact import Op, expect, peval, trim, vp_factorial, vp_int, vp_q

SIZE = 16
PRIMES = (2, 3, 5, 7, 1000003)
RANDOM_SETS, PROGRESSIONS = 8, 2
DENOMINATORS = (1, 1, 1, 2, 3, 5, 7, 11)


def _unit_fraction(rng, p: int, top: int) -> Fraction:
    """A p-integral rational a/b with |a| <= top and b prime to p."""
    den = rng.choice([d for d in DENOMINATORS if d % p])
    return Fraction(rng.randint(-top, top), den)


def _random_set(rng, p: int) -> tuple:
    pts = set()
    while len(pts) < SIZE:
        pts.add(_unit_fraction(rng, p, 60))
    return tuple(sorted(pts))


def _progression(rng, p: int) -> tuple:
    """a + d*i with v_p(d) = 0, so that w[k] = v_p(k!)."""
    start = _unit_fraction(rng, p, 30)
    while True:
        step = _unit_fraction(rng, p, 9)
        if step and step.numerator % p:
            return tuple(start + step * i for i in range(SIZE))


def _polynomial(rng, p: int) -> tuple:
    """Degree 3..6, small integer coefficients, scaled by p^t, t in {-1, 0, 1}."""
    d = rng.randint(3, 6)
    cs = [rng.randint(-9, 9) for _ in range(d)] + [rng.choice((-3, -2, -1, 1, 2, 3))]
    scale = Fraction(p) ** rng.choice((-1, 0, 1))
    return trim(c * scale for c in cs)


def build(seed: int) -> list:
    import intpoly  # called through the package, so that traced wrappers are seen

    def run(points, coeffs, p):
        E = intpoly.SubsetDescriptor.finite(points)
        f = intpoly.Polynomial(coeffs)
        by_min = intpoly.v_ordering(E, SIZE - 1, p)
        by_max = intpoly.v_ordering(E, SIZE - 1, p, tie_break="max")
        return (
            by_min.points, by_min.w, by_max.points, by_max.w,
            tuple(intpoly.expand_in_basis(f, by_min)),
            intpoly.int_membership(f, E, p, intpoly.MembershipTarget.VALUATION_RING),
            intpoly.int_membership(f, E, p, intpoly.MembershipTarget.MAXIMAL_IDEAL),
        )

    rng = random.Random(seed)
    ops = []
    for p in PRIMES:
        for i in range(RANDOM_SETS + PROGRESSIONS):
            progression = i >= RANDOM_SETS
            points = _progression(rng, p) if progression else _random_set(rng, p)
            coeffs = _polynomial(rng, p)
            ops.append(Op(
                "orderings",
                partial(run, points, coeffs, p),
                partial(check, points, coeffs, p, progression),
                alter,
            ))
    rng.shuffle(ops)
    return ops


def greedy_w(points, p: int) -> list:
    """Step minima of the greedy ordering, from integer pair valuations.

    For p-integral a = r/s and b = t/u (p prime to s and u),
    v_p(a - b) = v_p(r*u - t*s).
    """
    n = len(points)
    val = [[0] * n for _ in range(n)]
    for i, a in enumerate(points):
        for j in range(i + 1, n):
            b = points[j]
            val[i][j] = val[j][i] = vp_int(
                a.numerator * b.denominator - b.numerator * a.denominator, p
            )
    sums = list(val[0])
    left = set(range(1, n))
    w = [0]
    while left:
        best = min(left, key=lambda x: sums[x])
        w.append(sums[best])
        left.remove(best)
        for x in left:
            sums[x] += val[x][best]
    return w


def _check_ordering(points, chosen, w, p: int, label: str) -> None:
    expect(len(chosen) == SIZE and len(set(chosen)) == SIZE, f"{label}: not {SIZE} distinct points")
    expect(set(chosen) <= set(points), f"{label}: points outside the set")
    for k, a in enumerate(chosen):
        total = sum(vp_q(a - b, p) for b in chosen[:k])
        expect(total == w[k], f"{label}: w[{k}] = {w[k]} but the step valuation is {total}")


def check(points, coeffs, p: int, progression: bool, answer) -> bool:
    min_pts, min_w, max_pts, max_w, expansion, member_v, member_m = answer
    own = greedy_w(points, p)
    expect(list(min_w) == own, f"p={p}: w = {list(min_w)}, greedy recomputation gives {own}")
    expect(list(max_w) == own, f"p={p}: tie_break=max gives w = {list(max_w)}, expected {own}")
    _check_ordering(points, min_pts, min_w, p, "tie_break=min")
    _check_ordering(points, max_pts, max_w, p, "tie_break=max")
    if progression:
        expect(
            list(min_w) == [vp_factorial(k, p) for k in range(SIZE)],
            f"p={p}: progression w differs from v_p(k!)",
        )
    # f and sum c_k f_k have degree <= n, so agreeing at n+1 points is equality
    expect(len(expansion) == SIZE, "expansion has the wrong length")
    for x in range(SIZE):
        total = Fraction(0)
        for k, c in enumerate(expansion):
            basis = Fraction(1)
            for a in min_pts[:k]:
                basis *= Fraction(x - a) / (min_pts[k] - a)
            total += c * basis
        expect(total == peval(coeffs, x), f"p={p}: the expansion misses f at {x}")
    low = min(vp_q(peval(coeffs, a), p) for a in points)
    expect(member_v == (low >= 0), f"p={p}: membership {member_v}, min valuation {low}")
    expect(member_m == (low >= 1), f"p={p}: maximal-ideal membership {member_m}, min valuation {low}")
    return True


def alter(answer):
    min_pts, min_w, *rest = answer
    return (min_pts, tuple(min_w[:-1]) + (min_w[-1] + 1,), *rest)
