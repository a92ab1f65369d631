"""Workload `search`: `bounded_search` on every small box, as
`intpoly example search` runs it.

`bounded_search(max_deg, max_height, budget)` takes nothing but these three
numbers, so at one fixed budget the boxes with degree <= 2 and height <= 4
are the whole input space: twelve boxes.  A round runs all twelve plus the
CLI's default box (1, 3) once more, in an order drawn from the seed; the odd
count puts the median inside one box's cluster of latencies rather than on
the edge between two.  The work is the paper's 2x2 strong-Bezout exploration
over integer polynomials: products, `poly_sqrt`, the binomial transform and
the height enumeration.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import product
from math import isqrt

from exact import (
    Op,
    deg,
    eval_int,
    expect,
    is_int_valued,
    is_square_int,
    padd,
    parse_out_poly,
    pmul,
    pscale,
    psub,
    trim,
)

BUDGET = 300
DEFAULT_BOX = (1, 3)
BOXES = tuple((d, h) for d in range(3) for h in range(1, 5)) + (DEFAULT_BOX,)
X = (Fraction(0), Fraction(1))
X_PLUS_1 = (Fraction(1), Fraction(1))
ONE = (Fraction(1),)


def build(seed: int) -> list:
    import intpoly  # called through the package, so that traced wrappers are seen

    def run(max_deg, max_height):
        return [c.to_json() for c in intpoly.bounded_search(max_deg, max_height, BUDGET)]

    boxes = list(BOXES)
    random.Random(seed).shuffle(boxes)
    return [
        Op("search", partial(run, d, h), partial(check_search, d, h), alter_search)
        for d, h in boxes
    ]


# -- the visit order, re-derived --------------------------------------------------


def _exact_degree(d, height: int):
    """Integer coefficient tuples of exact degree d with entries in
    [-height, height], lexicographic in ascending-degree order; None is the
    zero polynomial."""
    if d is None:
        yield ()
        return
    span = range(-height, height + 1)
    for cs in product(span, repeat=d + 1):
        if cs[-1] != 0:
            yield cs


def visited_pairs(max_deg: int, max_height: int, budget: int):
    """The first `budget` pairs in the documented order: degree classes
    (zero, 0, ..., max_deg) lexicographically in (deg beta, deg gamma), then
    pair height, then coefficient tuples lexicographically."""
    classes = [None] + list(range(max_deg + 1))
    seen = 0
    for db in classes:
        for dg in classes:
            heights = [0] if db is None and dg is None else range(1, max_height + 1)
            for h in heights:
                for beta in _exact_degree(db, h):
                    hb = max(map(abs, beta), default=0)
                    for gamma in _exact_degree(dg, h):
                        if max(hb, max(map(abs, gamma), default=0)) != h:
                            continue
                        if seen >= budget:
                            return
                        seen += 1
                        yield beta, gamma


# -- squareness of the discriminant ---------------------------------------------


def relation(beta, gamma):
    """f = (X+1)*beta + X*gamma - 1 and disc = f^2 - 24*beta*gamma."""
    f = psub(padd(pmul(X_PLUS_1, beta), pmul(X, gamma)), ONE)
    return f, psub(pmul(f, f), pscale(pmul(beta, gamma), 24))


def poly_square_root(h):
    """g with g*g == h and positive leading coefficient, or None."""
    if not h:
        return ()
    if deg(h) % 2 or h[-1] < 0:
        return None
    n = deg(h) // 2
    num, den = h[-1].numerator, h[-1].denominator
    if not (is_square_int(num) and is_square_int(den)):
        return None
    g = [Fraction(0)] * (n + 1)
    g[n] = Fraction(isqrt(num), isqrt(den))
    for k in range(n - 1, -1, -1):
        acc = sum((g[i] * g[n + k - i] for i in range(k + 1, n)), Fraction(0))
        g[k] = (h[n + k] - acc) / (2 * g[n])
    g = trim(g)
    return g if pmul(g, g) == h else None


def solution_sign(beta, gamma):
    """The first sign in (+1, -1) giving an integer-valued u, or None.

    A pair has a solution only if its discriminant is a square; a value
    disc(x) that is not a perfect square at some integer x proves it is not.
    """
    beta = trim(beta)
    gamma = trim(gamma)
    f, disc = relation(beta, gamma)
    F = [int(c) for c in disc]
    if any(not is_square_int(eval_int(F, x)) for x in range(12)):
        return None
    g = poly_square_root(disc)
    if g is None:
        expect(
            any(not is_square_int(eval_int(F, x)) for x in range(12, 400)),
            f"squareness of the discriminant of {beta}, {gamma} undecided",
        )
        return None
    for sign in (1, -1):
        u = pscale(psub(pscale(g, sign), pscale(f, 5)), Fraction(1, 12))
        if is_int_valued(u):
            return sign
    return None


# -- checks ------------------------------------------------------------------------


def check_certificate(cert: dict) -> None:
    """Re-check a printed certificate with the benchmark's own arithmetic."""
    part = {k: parse_out_poly(cert[k]) for k in ("beta", "gamma", "f", "g", "u", "alpha", "delta")}
    beta, gamma, f, g, u = (part[k] for k in ("beta", "gamma", "f", "g", "u"))
    alpha, delta = part["alpha"], part["delta"]
    sign = cert["sign"]
    f_own, disc = relation(beta, gamma)
    expect(f == f_own, "certificate f differs from (X+1)beta + X gamma - 1")
    expect(pmul(g, g) == disc, "certificate g^2 differs from the discriminant")
    expect(sign in (1, -1), "certificate sign is not +-1")
    expect(
        u == pscale(psub(pscale(g, sign), pscale(f, 5)), Fraction(1, 12)),
        "certificate u differs from (sign*g - 5f)/12",
    )
    expect(alpha == padd(pscale(u, 3), f), "alpha != 3u + f")
    expect(delta == psub(pscale(u, -2), f), "delta != -2u - f")
    lhs = padd(
        padd(pscale(alpha, 2), pmul(X_PLUS_1, beta)),
        padd(pmul(X, gamma), pscale(delta, 3)),
    )
    expect(lhs == ONE, "2 alpha + (X+1) beta + X gamma + 3 delta != 1")
    expect(pmul(alpha, delta) == pmul(beta, gamma), "alpha*delta != beta*gamma")
    for name in ("u", "alpha", "beta", "gamma", "delta"):
        expect(is_int_valued(part[name]), f"certificate {name} is not integer-valued")
    expect(cert["checks"] and all(cert["checks"].values()), "certificate reports a failed check")


def check_search(max_deg: int, max_height: int, answer) -> bool:
    expected = [
        (b, g, s)
        for b, g in visited_pairs(max_deg, max_height, BUDGET)
        if (s := solution_sign(b, g)) is not None
    ]
    expect(
        len(answer) == len(expected),
        f"box ({max_deg}, {max_height}): {len(answer)} solutions, expected {len(expected)}",
    )
    for cert, (b, g, s) in zip(answer, expected):
        expect(
            parse_out_poly(cert["beta"]) == trim(b)
            and parse_out_poly(cert["gamma"]) == trim(g)
            and cert["sign"] == s,
            f"box ({max_deg}, {max_height}): unexpected solution {cert['beta']}, {cert['gamma']}",
        )
        check_certificate(cert)
    return True


def alter_search(answer):
    """A solution the search cannot have found: beta = gamma = 0 has the
    square discriminant 1 but no integer-valued u."""
    fake = {
        "beta": "0", "gamma": "0", "f": "-1", "g": "1", "u": "1/3",
        "alpha": "0", "delta": "1/3", "sign": 1, "checks": {"relation_unit": True},
    }
    return list(answer) + [fake]

