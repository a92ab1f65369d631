"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every assertion is exact (zero tolerance); the stated runtime budgets
are asserted too.
"""
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm

from intpoly import (
    ALL_INTEGERS,
    MaxCompletion,
    MaxSequence,
    MaxTrivial,
    Polynomial,
    SeqWindow,
    SubsetDescriptor,
    classify_window,
    expand_in_basis,
    from_binomial_basis,
    ideal_membership,
    padic_residue,
    parse_polynomial,
    separation_check,
    snf_with_transforms,
    strong_bezout_z,
    trace_combination_z,
    trace_normalize,
    ucs_pair_check,
    unit_content_decide,
    v_ordering,
    verify_known_solution,
    vp,
)
from intpoly.arith import vp_int
from intpoly.example_lab import B_MATRIX, GARBLED_G_INDEX, PRINTED_G
from intpoly.matrices import (
    poly_det2,
    poly_mat_mul,
    poly_matrix,
    poly_trace,
)
from intpoly.poly import bezout_gcd_many
from oracles import (
    brute_force_w,
    classify_triples,
    content_oracle_unit,
    int_det,
    int_mat_mul,
    pairwise_product_minima,
    prime_factors,
)

X = Polynomial.x()


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL {description}")
        raise
    elapsed = time.time() - start
    in_budget = elapsed < budget_s
    tag = "PASS" if in_budget else "FAIL"
    print(f"[criterion {number:2d}] {tag} {description} ({elapsed:.2f}s / {budget_s}s)")
    assert in_budget, f"runtime {elapsed:.2f}s exceeds the {budget_s}s budget"


def test_criterion_1_example_reproduction():
    with criterion(1, "worked example reproduced exactly", 1.0):
        cert = verify_known_solution()
        assert cert.all_ok
        # the recomputed square root matches the printed g away from the
        # corrupted degree-3 slot (and both signs of that slot are checked)
        assert any(
            all(
                c.coefficient(k) == PRINTED_G.coefficient(k)
                for k in range(max(c.degree, PRINTED_G.degree) + 1)
                if k != GARBLED_G_INDEX
            )
            for c in (cert.g, -cert.g)
        )
        assert cert.checks["u_int_valued"]
        relation = (
            cert.alpha * 2 + (X + 1) * cert.beta + X * cert.gamma + cert.delta * 3
        )
        assert relation == Polynomial.one()
        assert cert.alpha * cert.delta == cert.beta * cert.gamma
        C = poly_matrix(((cert.alpha, cert.beta), (cert.gamma, cert.delta)))
        BC = poly_mat_mul(B_MATRIX, C)
        assert poly_det2(C).is_zero
        assert poly_trace(BC) == Polynomial.one()
        assert poly_mat_mul(BC, BC) == BC
        assert unit_content_decide(tuple(e for row in BC for e in row)).unit


def test_criterion_2_side_conditions():
    with criterion(2, "matrix qualification side conditions", 1.0):
        report = ucs_pair_check(B_MATRIX, ((1, 0), (0, 1)))
        assert report.a_nonunit_integer  # a = 2 is an integer, not 0 or a unit
        assert report.acd_content_unit  # {2, X, 3} generates the unit ideal
        assert report.det_outside_integers
        assert report.qualifies
        det_b = poly_det2(B_MATRIX)
        assert det_b == parse_polynomial("6 - X - X^2")
        assert not det_b.is_integer_constant
        assert unit_content_decide(
            (Polynomial.constant(2), X, Polynomial.constant(3))
        ).unit


def test_criterion_3_vordering_oracle_equivalence():
    with criterion(3, "greedy step valuations match brute force on all small sets", 60.0):
        for size in range(2, 7):
            for pts in combinations(range(13), size):
                E = SubsetDescriptor.finite(pts)
                for p in (2, 3, 5):
                    lo = v_ordering(E, size - 1, p, tie_break="min")
                    hi = v_ordering(E, size - 1, p, tie_break="max")
                    assert lo.w == hi.w
                    assert list(lo.w) == brute_force_w(pts, p)
                    partial = [sum(lo.w[1:k + 1]) for k in range(size)]
                    assert partial == pairwise_product_minima(pts, p)


def test_criterion_4_factorial_valuations():
    with criterion(4, "step valuations over Z are the factorial valuations", 1.0):
        for p in (2, 3, 5):
            vord = v_ordering(ALL_INTEGERS, 30, p)
            for k in range(31):
                direct = 0 if k == 0 else vp_int(factorial(k), p)
                assert vord.w[k] == direct


def test_criterion_5_expansion_valuation_identity():
    with criterion(5, "min coefficient valuation equals min value valuation", 10.0):
        rng = random.Random(20260500)
        fraction_dens = {2: (3, 5, 7), 3: (2, 4, 5), 5: (2, 3, 4)}
        for i in range(200):
            p = (2, 3, 5)[i % 3]
            size = rng.randrange(7, 10)
            ints = rng.sample(range(-15, 16), size - 2)
            dens = fraction_dens[p]
            extras = []
            while len(extras) < 2:
                cand = Fraction(rng.randint(-20, 20), rng.choice(dens))
                if cand not in extras and cand not in ints:
                    extras.append(cand)
            pts = [Fraction(x) for x in ints] + extras
            deg = rng.randrange(0, 6)
            f = Polynomial(
                [
                    Fraction(rng.randint(-60, 60), rng.randint(1, 10))
                    for _ in range(deg + 1)
                ]
            )
            if f.is_zero:
                f = Polynomial.one()
            E = SubsetDescriptor.finite(pts)
            vord = v_ordering(E, size - 1, p)
            coeffs = expand_in_basis(f, vord)
            assert min(vp(c, p) for c in coeffs) == min(vp(f(a), p) for a in pts)


def test_criterion_6_classifier_equivalence():
    with criterion(6, "window classifier equals the triple brute force", 30.0):
        fixtures = [
            (2, (1, 3, 7, 15), "pseudo_convergent"),
            (2, (0, 4, 6, 7), "pseudo_divergent"),
            (5, (1, 2, 3, 4), "pseudo_stationary"),
        ]
        for p, pts, expected in fixtures:
            assert classify_window(SeqWindow(p, pts)).value == expected
            assert classify_triples(pts, p) == expected
        rng = random.Random(20260600)
        for _ in range(10**4):
            length = rng.randrange(3, 7)
            pts = tuple(rng.sample(range(64), length))
            assert classify_window(SeqWindow(2, pts)).value == classify_triples(pts, 2)


def test_criterion_7_snf_and_strong_bezout():
    with criterion(7, "Smith normal form and strong Bezout random suites", 10.0):
        rng = random.Random(20260700)
        for _ in range(500):
            m = rng.randrange(1, 6)
            n = rng.randrange(1, 6)
            A = tuple(
                tuple(rng.randint(-100, 100) for _ in range(n)) for _ in range(m)
            )
            result = snf_with_transforms(A)
            assert int_mat_mul(int_mat_mul(result.U, A), result.W) == result.S
            assert abs(int_det(result.U)) == 1
            assert abs(int_det(result.W)) == 1
            diag = result.diagonal
            for i, row in enumerate(result.S):
                for j, entry in enumerate(row):
                    if i != j:
                        assert entry == 0
            prev = None
            for d in diag:
                assert d >= 0
                if prev is not None and prev != 0:
                    assert d % prev == 0
                if prev == 0:
                    assert d == 0
                prev = d
            entries_gcd = 0
            for row in A:
                for x in row:
                    entries_gcd = gcd(entries_gcd, abs(x))
            assert diag[0] == entries_gcd

        done = 0
        while done < 500:
            quad = [rng.randint(-10**6, 10**6) for _ in range(4)]
            g = gcd(gcd(abs(quad[0]), abs(quad[1])), gcd(abs(quad[2]), abs(quad[3])))
            if g != 1:
                continue
            done += 1
            a, b, gm, d = strong_bezout_z(*quad)
            assert quad[0] * a + quad[1] * b + quad[2] * gm + quad[3] * d == 1
            assert a * d == b * gm


def test_criterion_8_unit_content_decision():
    with criterion(8, "unit-content verdicts and brute-force agreement", 60.0):
        assert not unit_content_decide((Polynomial.constant(2), X ** 2 + X)).unit
        assert (
            unit_content_decide((Polynomial.constant(2), X ** 2 + X)).witness_prime
            == 2
        )
        assert unit_content_decide(
            (Polynomial.constant(2), X, X + 1, Polynomial.constant(3))
        ).unit
        assert unit_content_decide((X, X - 1)).unit

        rng = random.Random(20260800)
        checked = 0
        while checked < 100:
            fc = [rng.randint(-4, 4) for _ in range(rng.randrange(1, 5))]
            gc = [rng.randint(-4, 4) for _ in range(rng.randrange(1, 5))]
            f, g = Polynomial(fc), Polynomial(gc)
            if f.is_zero and g.is_zero:
                continue
            h, mults = bezout_gcd_many((f, g))
            if h.degree < 1:
                scale = 1
                for u in mults:
                    scale = lcm(scale, u.denominator_lcm())
                if any(q > 13 for q in prime_factors(scale)):
                    # outside the pinned oracle's prime range: the oracle is
                    # not a decision procedure there, so resample
                    continue
            checked += 1
            verdict = unit_content_decide((f, g))
            assert verdict.unit == content_oracle_unit(fc, gc)
            if not verdict.unit and verdict.witness_prime is not None:
                modulus = verdict.witness_prime ** verdict.witness_modulus_exp
                for t in range(20):
                    point = verdict.witness_residue + t * modulus
                    assert vp(f(point), verdict.witness_prime) >= 1
                    assert vp(g(point), verdict.witness_prime) >= 1


def test_criterion_9_trace_normalization_roundtrip():
    with criterion(9, "unit-trace normalization yields nontrivial idempotents", 10.0):
        rng = random.Random(20260900)
        done = 0
        while done < 200:
            B = (
                (rng.randint(-9, 9), rng.randint(-9, 9)),
                (rng.randint(-9, 9), rng.randint(-9, 9)),
            )
            if B[0][0] * B[1][1] - B[0][1] * B[1][0] == 0:
                continue
            v = (rng.randint(-6, 6), rng.randint(-6, 6))
            w = (rng.randint(-6, 6), rng.randint(-6, 6))
            C = ((v[0] * w[0], v[0] * w[1]), (v[1] * w[0], v[1] * w[1]))
            M = int_mat_mul(B, C)
            entries_gcd = gcd(
                gcd(abs(M[0][0]), abs(M[0][1])), gcd(abs(M[1][0]), abs(M[1][1]))
            )
            if entries_gcd != 1:
                continue
            done += 1
            comb = trace_combination_z(M)
            C0 = trace_normalize(B, C, comb)
            product = poly_mat_mul(poly_matrix(B), C0)
            assert poly_trace(product) == Polynomial.one()
            assert poly_mat_mul(product, product) == product
            assert any(not e.is_zero for row in product for e in row)
            assert product != poly_matrix(((1, 0), (0, 1)))


def test_criterion_10_separation_products():
    with criterion(10, "separation products land in the maximal-ideal layer", 30.0):
        rng = random.Random(20261000)
        for _ in range(50):
            deg = rng.randrange(0, 7)
            f = from_binomial_basis([rng.randint(-9, 9) for _ in range(deg + 1)])
            for p in (2, 3, 5):
                residues, in_ideal = separation_check(f, p)
                assert in_ideal
                assert residues <= set(range(p))


def test_criterion_11_spectrum_coherence():
    with criterion(11, "spectrum containments, precision monotonicity, limits", 30.0):
        rng = random.Random(20261100)
        unknown_counts = {"completion": 0, "sequence": 0}

        for _ in range(100):
            deg = rng.randrange(0, 6)
            h = from_binomial_basis([rng.randint(-9, 9) for _ in range(deg + 1)])
            for p in (2, 3, 5):
                for a in range(-3, 4):
                    f = (X - a) * h
                    assert ideal_membership(f, MaxTrivial(p, a)).is_yes

        for _ in range(100):
            deg = rng.randrange(0, 6)
            f = from_binomial_basis([rng.randint(-9, 9) for _ in range(deg + 1)])
            p = rng.choice((2, 3, 5))
            x = Fraction(rng.randint(-50, 50))
            m = f.denominator_lcm()
            # f mod p has period p^N with N the smaller of 1 + v_p(m) and
            # the number of base-p digits of deg f (Lucas); precision >= 1
            digits = 0
            while p ** digits <= f.degree:
                digits += 1
            threshold = max(1, min(1 + vp_int(m, p), digits))
            below = ideal_membership(
                f, MaxCompletion(padic_residue(x, p, max(threshold - 1, 1)))
            )
            if threshold > 1:
                assert below.value == "unknown"
                unknown_counts["completion"] += 1
            first = ideal_membership(f, MaxCompletion(padic_residue(x, p, threshold)))
            assert first.decided
            for extra in (1, 2):
                again = ideal_membership(
                    f, MaxCompletion(padic_residue(x, p, threshold + extra))
                )
                assert again == first

        both = agree = 0
        for _ in range(50):
            p = rng.choice((2, 3, 5))
            units = [m for m in (1, 2, 3) if m % p != 0]
            x = Fraction(rng.randint(-30, 30))
            pts = tuple(
                x - rng.choice(units) * Fraction(p) ** (n + 1) for n in range(12)
            )
            window = SeqWindow(p, pts)
            deg = rng.randrange(0, 6)
            f = from_binomial_basis([rng.randint(-9, 9) for _ in range(deg + 1)])
            seq_verdict = ideal_membership(f, MaxSequence(window))
            comp_verdict = ideal_membership(f, MaxCompletion(padic_residue(x, p, 12)))
            if not seq_verdict.decided:
                unknown_counts["sequence"] += 1
            if seq_verdict.decided and comp_verdict.decided:
                both += 1
                assert seq_verdict == comp_verdict
                agree += 1
        assert both > 0
        print(
            f"    (unknown rates: completion {unknown_counts['completion']}/100, "
            f"sequence {unknown_counts['sequence']}/50; "
            f"agreement {agree}/{both})"
        )
