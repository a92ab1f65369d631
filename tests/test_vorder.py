import random
from fractions import Fraction
from math import factorial

import pytest

from intpoly import (
    ALL_INTEGERS,
    DomainError,
    MembershipTarget,
    Polynomial,
    SubsetDescriptor,
    expand_in_basis,
    factorial_valuation,
    int_membership,
    regular_basis,
    to_binomial_basis,
    v_ordering,
    vp,
)
from intpoly import arith
from intpoly.arith import vp_int
from oracles import (
    brute_force_w,
    frac_valuation,
    pairwise_product_minima,
    reference_expand_in_basis,
    reference_int_membership_all_integers,
    reference_regular_basis,
    reference_v_ordering,
)

X = Polynomial.x()


def finite(*pts):
    return SubsetDescriptor.finite(pts)


class TestVOrdering:
    def test_example_finite(self):
        vord = v_ordering(finite(0, 1, 2, 4), 3, 2)
        assert vord.points == (0, 1, 2, 4)
        assert vord.w == (0, 0, 1, 3)

    def test_example_all_integers(self):
        vord = v_ordering(ALL_INTEGERS, 4, 2)
        assert vord.points == (0, 1, 2, 3, 4)
        assert vord.w == (0, 0, 1, 1, 3)

    def test_single_point(self):
        vord = v_ordering(finite(5), 0, 7)
        assert vord.points == (Fraction(5),)
        assert vord.w == (0,)

    def test_too_small(self):
        with pytest.raises(DomainError):
            v_ordering(finite(0, 1), 2, 3)

    def test_rejects_non_integral_points(self):
        with pytest.raises(DomainError):
            v_ordering(finite(Fraction(1, 2), 1), 1, 2)

    def test_direct_construction_checked(self):
        points = (Fraction(1), Fraction(1), Fraction(3))
        with pytest.raises(DomainError):
            v_ordering(SubsetDescriptor(points), 2, 2)
        with pytest.raises(DomainError):
            SubsetDescriptor(())
        assert SubsetDescriptor(None) == ALL_INTEGERS

    @pytest.mark.parametrize("p", (4, 1000001))
    def test_rejects_composite_p(self, p):
        E = finite(0, 1, 2)
        with pytest.raises(DomainError):
            v_ordering(E, 2, p)
        with pytest.raises(DomainError):
            v_ordering(ALL_INTEGERS, 2, p)
        with pytest.raises(DomainError):
            E.require_p_integral(p)
        for target in MembershipTarget:
            with pytest.raises(DomainError):
                int_membership(X, E, p, target)
            with pytest.raises(DomainError):
                int_membership(X, ALL_INTEGERS, p, target)

    def test_greedy_matches_brute_force_smoke(self):
        rng = random.Random(11)
        for _ in range(25):
            size = rng.randrange(2, 7)
            pts = rng.sample(range(0, 13), size)
            for p in (2, 3, 5):
                vord = v_ordering(finite(*pts), size - 1, p)
                assert list(vord.w) == brute_force_w(pts, p)

    def test_tie_break_policies_same_w(self):
        rng = random.Random(12)
        for _ in range(25):
            size = rng.randrange(2, 7)
            pts = rng.sample(range(0, 13), size)
            for p in (2, 3, 5):
                lo = v_ordering(finite(*pts), size - 1, p, tie_break="min")
                hi = v_ordering(finite(*pts), size - 1, p, tie_break="max")
                assert lo.w == hi.w

    def test_cumulative_subset_minima(self):
        rng = random.Random(13)
        for _ in range(10):
            size = rng.randrange(2, 7)
            pts = rng.sample(range(0, 13), size)
            for p in (2, 3, 5):
                vord = v_ordering(finite(*pts), size - 1, p)
                sums = [sum(vord.w[1:k + 1]) for k in range(size)]
                assert sums == pairwise_product_minima(pts, p)

    def test_legendre_digit_sums(self):
        for p in (2, 3, 5):
            for k in range(31):
                assert factorial_valuation(k, p) == (
                    0 if k == 0 else vp_int(factorial(k), p)
                )


def _sixteen_point_sets(rng, p):
    """Random 16-point sets of p-integral rationals, then two arithmetic
    progressions: one with a p-adic unit step, one with step divisible by p."""
    dens = [d for d in (1, 1, 1, 2, 3, 5, 7, 11) if d % p]
    for _ in range(4):
        pts = set()
        while len(pts) < 16:
            pts.add(Fraction(rng.randint(-60, 60), rng.choice(dens)))
        yield tuple(pts)
    start = Fraction(rng.randint(-30, 30), rng.choice(dens))
    unit = Fraction(rng.choice([k for k in (-4, -3, -2, -1, 1, 2, 3, 4) if k % p]), rng.choice(dens))
    for step in (unit, unit * p):
        yield tuple(start + step * i for i in range(16))


class TestReferenceKernels:
    """The running-sum ordering and the Newton-form expansion against the
    earlier kernels kept in tests/oracles.py: identical reprs."""

    @pytest.mark.parametrize("p", (2, 3, 5, 7, 1000003))
    def test_matches_reference(self, p):
        rng = random.Random(4000 + p)
        for pts in _sixteen_point_sets(rng, p):
            E = finite(*pts)
            for n in (15, rng.randrange(0, 15)):
                for tie_break in ("min", "max"):
                    fast = v_ordering(E, n, p, tie_break)
                    ref = reference_v_ordering(E, n, p, tie_break)
                    assert repr(fast) == repr(ref)
                scale = Fraction(p) ** rng.choice((-1, 0, 1))
                f = Polynomial(
                    [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) * scale
                     for _ in range(rng.randrange(0, n + 2))]
                )
                coeffs = expand_in_basis(f, fast)
                assert repr(coeffs) == repr(reference_expand_in_basis(f, fast))
                beyond = coeffs[f.degree + 1:]
                assert all(type(c) is Fraction and c == 0 for c in beyond)

    def test_evaluates_f_at_most_deg_plus_one_times(self, monkeypatch):
        calls = []
        real = Polynomial.__call__
        monkeypatch.setattr(Polynomial, "__call__", lambda f, x: calls.append(x) or real(f, x))
        vord = v_ordering(finite(*range(16)), 15, 3)
        for f, most in ((Polynomial.zero(), 0), (X ** 3 / 3 - X, 4), (X ** 15 + 1, 16)):
            calls.clear()
            assert len(expand_in_basis(f, vord)) == 16
            assert len(calls) <= most
        assert len(calls) == 16  # deg f = n needs every point

    def test_primality_checked_a_constant_number_of_times(self, monkeypatch):
        calls = []
        real = arith.is_prime

        def counting(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(arith, "is_prime", counting)
        counts = []
        for size in (4, 16):
            calls.clear()
            v_ordering(finite(*range(size)), size - 1, 1000003)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 2
        f = X ** 9 / 1000003 + X
        for E in (finite(*range(16)), ALL_INTEGERS):
            for target in MembershipTarget:
                calls.clear()
                int_membership(f, E, 1000003, target)
                assert calls == [1000003]


class TestRegularBasis:
    def test_all_integers_is_binomial(self):
        vord = v_ordering(ALL_INTEGERS, 4, 3)
        assert regular_basis(vord, 2) == X * (X - 1) / 2
        assert regular_basis(vord, 0) == Polynomial.one()

    def test_finite_example(self):
        vord = v_ordering(finite(0, 1, 2, 4), 3, 2)
        expected = X * (X - 1) * (X - 2) / (4 * 3 * 2)
        assert regular_basis(vord, 3) == expected

    def test_triangular_values_and_integrality(self):
        vord = v_ordering(finite(0, 1, 2, 4, 6, 9), 5, 2)
        for k in range(6):
            fk = regular_basis(vord, k)
            assert fk(vord.points[k]) == 1
            for j in range(k):
                assert fk(vord.points[j]) == 0
            for x in vord.E.points:
                assert vp(fk(x), 2) >= 0

    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_matches_reference_seeded(self, p):
        # N_k / N_k(a_k) against one division per factor, on every index of
        # seeded finite orderings and of the ordering 0..n over Z
        rng = random.Random(5000 + p)
        orderings = [v_ordering(finite(*pts), 15, p) for pts in _sixteen_point_sets(rng, p)]
        orderings.append(v_ordering(ALL_INTEGERS, 40, p))
        for vord in orderings:
            for k in range(len(vord)):
                assert regular_basis(vord, k).coeffs == reference_regular_basis(vord, k).coeffs

    def test_index_out_of_range(self):
        vord = v_ordering(finite(0, 1), 1, 2)
        with pytest.raises(DomainError):
            regular_basis(vord, 2)


class TestExpansion:
    def test_matches_binomial_form(self):
        vord = v_ordering(ALL_INTEGERS, 2, 5)
        assert expand_in_basis(X ** 2, vord) == [0, 1, 2]
        assert list(to_binomial_basis(X ** 2)) == [0, 1, 2]

    def test_basis_element_is_unit_vector(self):
        vord = v_ordering(finite(0, 1, 2, 4), 3, 2)
        f3 = regular_basis(vord, 3)
        assert expand_in_basis(f3, vord) == [0, 0, 0, 1]

    def test_reexpansion_identity(self):
        vord = v_ordering(finite(0, 1, 2, 4), 3, 2)
        f = 2 + X * (X - 1)
        coeffs = expand_in_basis(f, vord)
        assert coeffs[0] == 2
        rebuilt = Polynomial.zero()
        for k, c in enumerate(coeffs):
            rebuilt = rebuilt + regular_basis(vord, k) * c
        assert rebuilt == f

    def test_degree_too_large(self):
        vord = v_ordering(finite(0, 1), 1, 2)
        with pytest.raises(DomainError):
            expand_in_basis(X ** 2, vord)

    def test_min_coefficient_valuation_is_min_value_valuation(self):
        rng = random.Random(14)
        for _ in range(30):
            size = rng.randrange(3, 8)
            pts = rng.sample(range(-6, 13), size)
            p = rng.choice((2, 3, 5))
            deg = rng.randrange(0, size)
            f = Polynomial(
                [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(deg + 1)]
            )
            if f.is_zero:
                continue
            vord = v_ordering(finite(*pts), size - 1, p)
            coeffs = expand_in_basis(f, vord)
            lhs = min(vp(c, p) for c in coeffs)
            rhs = min(vp(f(a), p) for a in pts)
            assert lhs == rhs


class TestMembership:
    def test_examples(self):
        half = X * (X - 1) / 2
        assert int_membership(half, ALL_INTEGERS, 2, MembershipTarget.VALUATION_RING)
        assert not int_membership(half, ALL_INTEGERS, 2, MembershipTarget.MAXIMAL_IDEAL)
        assert int_membership(X ** 2 + X, ALL_INTEGERS, 2, MembershipTarget.MAXIMAL_IDEAL)

    def test_finite_set(self):
        E = finite(1, 3, 5)
        assert int_membership(X / 2, E, 2, MembershipTarget.VALUATION_RING) is False
        assert int_membership((X - 1) / 2, E, 3, MembershipTarget.VALUATION_RING)

    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_all_integers_matches_reference(self, p):
        rng = random.Random(500 + p)
        dens = (1, 1, 2, 3, p, p * p)
        for _ in range(40):
            f = Polynomial(
                [Fraction(rng.randint(-30, 30), rng.choice(dens))
                 for _ in range(rng.randrange(0, 10))]
            ) * rng.choice((1, p))
            for target in MembershipTarget:
                maximal = target is MembershipTarget.MAXIMAL_IDEAL
                assert int_membership(f, ALL_INTEGERS, p, target) == (
                    reference_int_membership_all_integers(f, p, maximal)
                ), (str(f), target)

    def test_all_integers_above_the_sweep_cap(self):
        # p^1 classes exceed the reference's sweep cap; the values at
        # 0..deg f decide instead, since they and the binomial coefficients
        # determine each other over Z
        p = 100003
        with pytest.raises(DomainError, match="cap of"):
            reference_int_membership_all_integers(X ** 2 - X, p, True)
        for f in (X ** 2 - X, p * (X ** 2 - X) / 2, X * (X - 1) * (X - 2) / p, p * X + p):
            least = min(frac_valuation(f(x), p) for x in range(f.degree + 1) if f(x))
            for target in MembershipTarget:
                threshold = 1 if target is MembershipTarget.MAXIMAL_IDEAL else 0
                assert int_membership(f, ALL_INTEGERS, p, target) == (least >= threshold)

    def test_agrees_with_expansion_valuations(self):
        # the paper's identity: f lies in the ring exactly when its
        # coefficients in the basis of any p-ordering of length > deg f are
        # p-integral; E is Z or a finite set of rationals prime to p, and
        # the orderings run from deg f + 1 to |E| points with either
        # tie-break.  Half the finite cases add L/p to an integer f, L the
        # Lagrange polynomial of one point a: f then fails at a alone.
        rng = random.Random(15)
        outcomes = set()
        for kind in ("finite", "Z") * 100:
            p = rng.choice((2, 3, 5))
            size = rng.randrange(2, 9)
            f = Polynomial(
                [Fraction(rng.randint(-20, 20), rng.randint(1, 8)) for _ in range(rng.randrange(size))]
            ) * rng.choice((1, 2 * 3 * 5 * 7, 8 * 9 * 25))
            if kind == "finite":
                dens = [d for d in (1, 1, 2, 3, 5, 7) if d % p]
                pts = set()
                while len(pts) < size:
                    pts.add(Fraction(rng.randint(-12, 12), rng.choice(dens)))
                E = finite(*pts)
                if rng.random() < 0.5:
                    a = rng.choice(E.points)
                    lagrange = Polynomial.one()
                    for b in E.points:
                        if b != a:
                            lagrange = lagrange * Polynomial((-b, 1)) / (a - b)
                    f = Polynomial([rng.randint(-20, 20) for _ in range(size)]) + lagrange / p
            else:
                E = ALL_INTEGERS
            n = rng.randrange(max(f.degree, 0), size)
            vord = v_ordering(E, n, p, rng.choice(("min", "max")))
            coeffs = expand_in_basis(f, vord)
            member = int_membership(f, E, p, MembershipTarget.VALUATION_RING)
            assert member == all(vp(c, p) >= 0 for c in coeffs), (str(f), str(E), p)
            outcomes.add((kind, member))
        assert len(outcomes) == 4
