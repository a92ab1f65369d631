import copy
import pickle
import random
import sys
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from intpoly import (
    DomainError,
    InputParseError,
    Polynomial,
    bezout_gcd_qx,
    from_binomial_basis,
    is_int_valued,
    parse_polynomial,
    poly_sqrt,
    residue_image,
    to_binomial_basis,
)
from intpoly.arith import INF, vp_int
from intpoly.poly import (
    MAX_DEGREE,
    MAX_HEIGHT,
    MAX_RESIDUE_CLASSES,
    _height,
    _Parser,
    _binomial_valuation,
    _tokenize,
    bezout_gcd_many,
    binomial_poly,
)

from oracles import (
    ReferencePolynomial,
    frac_valuation,
    reference_residue_image,
    reference_to_binomial_basis,
)

X = Polynomial.x()


def poly_from_ints(*coeffs):
    return Polynomial(coeffs)


class TestArithmetic:
    def test_basic_ops(self):
        f = X ** 2 + 3 * X - 2
        g = X - 1
        assert f + g == X ** 2 + 4 * X - 3
        assert f - g == X ** 2 + 2 * X - 1
        assert f * g == X ** 3 + 2 * X ** 2 - 5 * X + 2
        assert (-f).coeffs == tuple(-c for c in f.coeffs)

    def test_divmod(self):
        f = X ** 3 - 1
        g = X - 1
        q, r = divmod(f, g)
        assert r.is_zero
        assert q == X ** 2 + X + 1
        assert g * q + r == f
        with pytest.raises(ZeroDivisionError):
            divmod(f, Polynomial.zero())

    def test_divmod_and_pow_seeded(self):
        rng = random.Random(41)

        def rand_poly(deg):
            return Polynomial(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg + 1)]
            )

        for _ in range(300):
            f, g = rand_poly(rng.randrange(-1, 9)), rand_poly(rng.randrange(0, 6))
            if g.is_zero:
                continue
            q, r = divmod(f, g)
            assert g * q + r == f and r.degree < g.degree
            n = rng.randrange(0, 7)
            power = Polynomial.one()
            for _ in range(n):
                power = power * f
            assert f ** n == power

    def test_copy_deepcopy_and_pickle(self):
        for f in (Polynomial.zero(), Polynomial.constant(Fraction(-4, 9)),
                  Polynomial((2**4096 - 1, Fraction(1, 2**4096 - 3)))):
            for clone in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
                assert clone == f and hash(clone) == hash(f)
                assert (clone._F, clone._m) == (f._F, f._m)

    def test_evaluation(self):
        f = (X ** 2 + X) / 2
        assert f(3) == 6
        assert f(Fraction(1, 2)) == Fraction(3, 8)

    def test_degree_and_trim(self):
        assert Polynomial((1, 2, 0, 0)).degree == 1
        assert Polynomial.zero().degree == -1
        assert Polynomial.zero().is_zero


def _division_pairs(rng):
    """Dividend and divisor coefficient lists: a zero dividend, deg f < deg g,
    constant divisors, sparse divisors with leading coefficients up to
    2^2000 of either sign, and monic divisors with large denominators."""
    def small(deg):
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(deg + 1)]

    for _ in range(12):
        yield [], small(rng.randrange(0, 5))
        yield small(rng.randrange(0, 3)), small(rng.randrange(3, 7))
        yield small(rng.randrange(0, 12)), [Fraction(rng.choice((-1, 1)) * rng.randint(1, 2**64),
                                                     rng.randint(1, 99))]
        deg = rng.randrange(1, 8)
        sparse = [0] * deg + [rng.choice((-1, 1)) * rng.randint(1, 2**2000)]
        for k in rng.sample(range(deg), min(deg, 2)):
            sparse[k] = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        yield small(rng.randrange(deg, deg + 12)), sparse
        monic = [Fraction(rng.randint(-3, 3), 2 ** rng.randint(0, 2000)) for _ in range(deg)] + [1]
        yield small(rng.randrange(deg, deg + 12)), monic


class TestDivision:
    """`divmod` on integer numerators against the earlier Fraction long
    division, and the divisions that took minutes in Fractions."""

    def test_matches_reference_seeded(self):
        rng = random.Random(1414)
        for fc, gc in _division_pairs(rng):
            q, r = divmod(Polynomial(fc), Polynomial(gc))
            ref_q, ref_r = divmod(ReferencePolynomial(fc), ReferencePolynomial(gc))
            assert (q.coeffs, r.coeffs) == (ref_q.coeffs, ref_r.coeffs)
            _assert_canonical(q)
            _assert_canonical(r)

    @pytest.mark.parametrize("f, g, cap", [
        # 110, 37, 4.0 and 4.2 s in Fraction long division (Python 3.11, 2-core Xeon)
        ("X^300", "X + 1/2^2000", 8.0),
        ("X^300 + 3", "X^2 + X/2^1000 + 1", 8.0),
        ("(X+1)^300/3^100", "2^2000*X^7 + 5*X + 1", 2.0),
        ("(X+1)^300/3^100", "X^7 + X/2^2000 + 1/2^2000", 2.0),
    ])
    def test_large_scales_timed(self, f, g, cap):
        f, g = parse_polynomial(f), parse_polynomial(g)
        start = time.perf_counter()
        q, r = divmod(f, g)
        assert time.perf_counter() - start < cap
        assert q.degree == f.degree - g.degree and r.degree < g.degree
        for x in (2, -3):
            assert q(x) * g(x) + r(x) == f(x)


class TestTextFormat:
    def test_canonical_printing(self):
        f = Fraction(-3, 2) * X ** 5 + X - 7
        assert str(f) == "-3/2*X^5 + X - 7"
        assert str(Polynomial.zero()) == "0"
        assert str(X ** 2 - X) == "X^2 - X"

    @pytest.mark.parametrize(
        "text",
        ["-3/2*X^5 + X - 7", "X^2 - X", "0", "5", "X*(X-1)/2", "3X^2 - 1/2", "(X+1)(X-1)"],
    )
    def test_parse_print_roundtrip(self, text):
        f = parse_polynomial(text)
        assert parse_polynomial(str(f)) == f

    def test_parse_matches_construction(self):
        assert parse_polynomial("X*(X-1)/2") == (X * (X - 1)) / 2
        assert parse_polynomial("-X^2") == -(X ** 2)
        assert parse_polynomial("2 - X") == 2 - X

    def test_parse_rejects_garbage(self):
        for bad in ["", "X^", "X**2", "1/(X+1)", "Y+1", "(X"]:
            with pytest.raises(InputParseError):
                parse_polynomial(bad)

    @pytest.mark.parametrize(
        "text, degree",
        [
            ("X^301", 301),
            ("X^100000/2", 100000),
            ("(X^2)^151", 302),
            ("X^200*X^101", 301),
            ("X^200X^200", 400),
            ("(X^300)(X+1)", 301),
        ],
    )
    def test_degree_cap(self, text, degree):
        with pytest.raises(InputParseError, match=f"degree {degree} exceeds the cap of degree 300"):
            parse_polynomial(text)

    def test_degree_cap_admits_the_cap(self):
        assert parse_polynomial("(X^2)^150/2").degree == MAX_DEGREE
        # a zero factor keeps the product at zero, however many factors follow
        assert parse_polynomial("0*X^300*X^300").is_zero

    @pytest.mark.parametrize(
        "text, height",
        [
            ("2^20000*X", 20000),  # was a 6,021-digit coefficient, too long to print
            ("2^4097", 4097),
            (str(2**4200), 4200),
            ("X/2^4096/2", 4097),
            ("(2^4000*X+1)(2^4000X+1)", 8002),
            ("(X+1)^200/2^4000", 4200),
        ],
    )
    def test_height_cap(self, text, height):
        message = rf"size up to 2\^{height} exceed the cap of 2\^{MAX_HEIGHT}"
        with pytest.raises(InputParseError, match=message):
            parse_polynomial(text)

    def test_height_cap_on_a_sum(self):
        # each term is below the cap, their common denominator is not
        with pytest.raises(InputParseError, match=r"size up to 2\^\d+ exceed the cap"):
            parse_polynomial("1/2^4000 + 1/5^1300")
        # the bound 2 * (sum of the terms' heights) + 1 passes the cap here,
        # the measured height does not
        assert parse_polynomial("2^4000*X + 2^4000").coefficient(0) == 2**4000

    def test_height_cap_admits_the_cap(self):
        assert parse_polynomial("2^4096*X").coefficient(1) == 2**4096
        assert parse_polynomial("X/2^4096").coefficient(1) == Fraction(1, 2**4096)
        assert parse_polynomial("(100X+99)^300").coefficient(0) == 99**300

    def test_height_bound_seeded(self):
        # the bound the parser carries is at least the height it measures,
        # and that height bounds every numerator and denominator
        rng = random.Random(20261018)

        def expression(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(["X", str(rng.randint(0, 99)), str(rng.randint(0, 2**40))])
            kind = rng.randrange(5)
            if kind == 0:
                return f"({expression(depth - 1)})^{rng.randint(0, 4)}"
            if kind == 1:
                return f"{expression(depth - 1)}/{rng.randint(1, 10**6)}"
            if kind == 2:
                return f"({expression(depth - 1)})"
            return expression(depth - 1) + "+-*"[kind - 3 + rng.randrange(2)] + expression(depth - 1)

        for _ in range(500):
            text = expression(4)
            try:
                f, bound = _Parser(_tokenize(text)).expr()
            except InputParseError:
                continue
            height = _height(f)
            assert height <= bound, text
            for c in f.coeffs:
                assert abs(c.numerator) <= 2**height and c.denominator <= 2**height, text


class TestBinomialBasis:
    def test_examples(self):
        assert tuple(to_binomial_basis(X ** 2)) == (0, 1, 2)
        assert tuple(to_binomial_basis(Polynomial.constant(5))) == (5,)
        cubed = X * (X - 1) * (X - 2) / 6
        assert tuple(to_binomial_basis(cubed)) == (0, 0, 0, 1)

    def test_roundtrip_500_random(self):
        rng = random.Random(20260810)
        for _ in range(500):
            deg = rng.randrange(0, 11)
            coeffs = [
                Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                for _ in range(deg + 1)
            ]
            f = Polynomial(coeffs)
            assert from_binomial_basis(to_binomial_basis(f).coeffs) == f

    def test_binomial_poly_values(self):
        assert binomial_poly(2) == X * (X - 1) / 2
        assert binomial_poly(0) == Polynomial.one()


class TestIntValued:
    def test_examples(self):
        assert is_int_valued(X * (X - 1) / 2) is True
        assert is_int_valued(X / 2) is False
        f = (X ** 2 + X) / 2
        m = f.denominator_lcm()
        assert is_int_valued(f) and m == 2 ** vp_int(m, 2) and vp_int(m, 2) == 1

    def test_matches_reference_seeded(self):
        # integrality and the least valuation on Z, against the reference
        # binomial coefficients: all integers, and their least v_p
        rng = random.Random(36)
        for p in (2, 3, 5, 7):
            cases = [Polynomial.zero(), Polynomial.constant(p), Polynomial.constant(Fraction(1, p))]
            for m in (1, 2, 12, p, p * p):
                for _ in range(12):
                    deg = rng.randrange(0, 8)
                    big = rng.random() < 0.25  # numerators near 2^4096
                    F = [rng.randint(-9, 9) + (2**4096 - rng.randrange(2**20) if big else 0)
                         for _ in range(deg + 1)]
                    cases.append(Polynomial([Fraction(c, m) for c in F]))
                    binomial = [Fraction(rng.randint(-9, 9), rng.choice((1, m))) for _ in range(deg + 1)]
                    cases.append(from_binomial_basis(binomial) * rng.choice((1, p, p * p)))
            valued = 0
            for f in cases:
                ref = reference_to_binomial_basis(ReferencePolynomial(f.coeffs))
                assert is_int_valued(f) == all(c.denominator == 1 for c in ref)
                least = min((frac_valuation(c, p) for c in ref if c), default=INF)
                assert _binomial_valuation(f, p) == least
                valued += is_int_valued(f) and not f.has_integer_coeffs()
            assert valued > 10

    def test_values_are_integers(self):
        rng = random.Random(7)
        for _ in range(40):
            deg = rng.randrange(0, 7)
            f = from_binomial_basis([rng.randint(-9, 9) for _ in range(deg + 1)])
            assert is_int_valued(f)
            for x in range(-50, 51):
                assert f(x).denominator == 1


class TestResidueImage:
    def test_examples(self):
        assert residue_image(X * (X - 1) / 2, 2) == {0, 1}
        assert residue_image(X, 3) == {0, 1, 2}
        assert residue_image(Polynomial.constant(7), 5) == {2}

    def test_precondition(self):
        with pytest.raises(DomainError):
            residue_image(X / 2, 2)

    def test_sweep_cap(self):
        # 1000003 classes, over the cap: refused before the sweep starts
        with pytest.raises(DomainError, match=f"cap of {MAX_RESIDUE_CLASSES} classes"):
            residue_image(X, 1000003)

    def test_matches_oversampled_brute_force(self):
        rng = random.Random(99)
        for p in (2, 3, 5):
            for _ in range(25):
                deg = rng.randrange(0, 6)
                f = from_binomial_basis(
                    [rng.randint(-20, 20) for _ in range(deg + 1)]
                )
                span = p ** (1 + vp_int(f.denominator_lcm(), p) + 2)
                brute = {f(x) % p for x in range(span)}
                assert residue_image(f, p) == brute


def _seeded_coefficients(rng, deg: int, bits: int) -> list:
    """deg + 1 rationals with numerators below 2^bits and small denominators."""
    big = 1 << bits
    return [
        Fraction(rng.randint(-big, big), rng.choice((1, 1, 2, 3, 4, 6, 9, 35)))
        for _ in range(deg + 1)
    ]


def _fraction_constructions(call) -> int:
    """The number of calls to Fraction.__new__ that call() makes."""
    count = 0
    new = Fraction.__new__.__code__

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is new:
            count += 1

    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


class TestIntegerForm:
    """Arithmetic, evaluation, text, the binomial transform and the residue
    image on integer numerators over one denominator agree with the earlier
    Fraction arithmetic."""

    POINTS = (0, 1, -1, 7, -12, 10**30 + 1, Fraction(3), Fraction(-5, 3), Fraction(7, 11))
    SCALARS = (1, -1, 6, -35, Fraction(-9, 4), Fraction(2**MAX_HEIGHT - 1, 3))

    def _cases(self):
        rng = random.Random(1212)
        yield []  # the zero polynomial
        yield [Fraction(-4, 9)]  # a constant
        yield [2**MAX_HEIGHT - 1, Fraction(1, 2**MAX_HEIGHT - 1)]
        for _ in range(120):
            deg = rng.randrange(0, 9)
            bits = rng.choice((3, 20, MAX_HEIGHT - 8))
            yield _seeded_coefficients(rng, deg, bits)

    def test_matches_reference_seeded(self):
        cases = list(self._cases())
        rng = random.Random(12)
        for coeffs in cases:
            f, ref = Polynomial(coeffs), ReferencePolynomial(coeffs)
            other = rng.choice(cases)
            assert (f * Polynomial(other)).coeffs == (ref * ReferencePolynomial(other)).coeffs
            for x in self.POINTS:
                value = f(x)
                assert type(value) is Fraction and value == ref(x)
            assert to_binomial_basis(f).coeffs == reference_to_binomial_basis(ref)

    def test_sums_quotients_and_text_match_reference_seeded(self):
        cases = list(self._cases())
        rng = random.Random(13)
        for coeffs in cases:
            other = rng.choice(cases)
            f, g = Polynomial(coeffs), Polynomial(other)
            ref, ref_g = ReferencePolynomial(coeffs), ReferencePolynomial(other)
            assert f.coeffs == ref.coeffs
            assert (str(f), repr(f)) == (str(ref), f"Polynomial({str(ref)!r})")
            assert (f == g) == (ref.coeffs == ref_g.coeffs)
            assert (f + g).coeffs == (ref + ref_g).coeffs
            assert (f - g).coeffs == (ref + -ref_g).coeffs
            assert str(-f) == str(-ref) and (-f).coeffs == (-ref).coeffs
            for scalar in self.SCALARS:
                assert (f / scalar).coeffs == (ref / scalar).coeffs
            if not g.is_zero:
                q, r = divmod(f, g)
                assert r.degree < g.degree
                back = ReferencePolynomial(q.coeffs) * ref_g + ReferencePolynomial(r.coeffs)
                assert back.coeffs == ref.coeffs

    def test_residue_image_matches_reference_seeded(self):
        rng = random.Random(34)
        for p in (2, 3, 5, 7):
            for k in range(32):
                deg = rng.randrange(0, 7)
                binomial = [rng.randint(-2**40, 2**40) for _ in range(deg + 1)]
                f = from_binomial_basis(binomial[:k])  # k = 0, 1: zero and a constant
                assert residue_image(f, p) == reference_residue_image(
                    ReferencePolynomial(f.coeffs), p
                )

    def test_binomial_transform_builds_one_fraction_per_coefficient(self):
        rng = random.Random(56)
        for deg in (0, 1, 5, 12):
            coeffs = _seeded_coefficients(rng, deg, 20)
            assert _fraction_constructions(
                lambda: to_binomial_basis(Polynomial(coeffs))
            ) == deg + 1

    def test_residue_image_builds_no_fraction(self):
        """Neither the precondition's binomial valuation nor the sweep builds
        a Fraction."""
        f = from_binomial_basis([3, -1, 4, 1, -5, 9, 2])
        for p in (2, 3, 7):
            g = Polynomial(f.coeffs)
            assert _fraction_constructions(lambda: residue_image(g, p)) == 0
            assert residue_image(g, p) == reference_residue_image(ReferencePolynomial(f.coeffs), p)

    def test_arithmetic_builds_no_fraction(self):
        rng = random.Random(78)
        f = Polynomial(_seeded_coefficients(rng, 6, 20))
        g = Polynomial(_seeded_coefficients(rng, 4, 20))
        quarter, three_quarters = Fraction(-9, 4), Fraction(3, 4)
        for call in (
            lambda: Polynomial.constant(7),
            lambda: Polynomial.constant(three_quarters),
            lambda: X + 1,
            lambda: 2 * X,
            lambda: f * g,
            lambda: f + g,
            lambda: f - g,
            lambda: -f,
            lambda: f / -6,
            lambda: f / quarter,
            lambda: divmod(f, g),
            lambda: is_int_valued(f),
            lambda: _binomial_valuation(f, 3),
        ):
            assert _fraction_constructions(call) == 0


def _assert_canonical(f: Polynomial) -> None:
    """f holds integer numerators F with no trailing zero over m > 0 with
    gcd(m, F...) = 1, and rebuilding it from its coeffs gives an equal
    polynomial with an equal hash."""
    F, m = f._F, f._m
    assert type(F) is tuple and all(type(c) is int for c in F)
    assert type(m) is int and m > 0 and gcd(m, *F) == 1
    assert not F or F[-1] != 0
    rebuilt = Polynomial(f.coeffs)
    assert rebuilt == f and hash(rebuilt) == hash(f)


class TestCanonicalForm:
    def test_constructors(self):
        for f in (
            Polynomial(),
            Polynomial.zero(),
            Polynomial.one(),
            Polynomial.x(),
            Polynomial.constant(0),
            Polynomial.constant(Fraction(-6, 4)),
            Polynomial((0, 0, 0)),
            Polynomial((Fraction(2, 3), -4, Fraction(0), 0)),
            Polynomial((True, False, Fraction(-10, 15))),
            Polynomial((Fraction(6, 4), Fraction(9, 4), Fraction(15, 12))),
            parse_polynomial("X*(X-1)/2 - X^2/2"),
            parse_polynomial("-6/4*X^3 + 2/6"),
            binomial_poly(7),
            from_binomial_basis([4, -2, 6, 0, 0]),
        ):
            _assert_canonical(f)

    def test_operators_seeded(self):
        rng = random.Random(91)
        cases = [[], [0], [Fraction(-4, 9)], [2**MAX_HEIGHT - 1, Fraction(1, 2**MAX_HEIGHT - 1)]]
        cases += [_seeded_coefficients(rng, rng.randrange(0, 6), rng.choice((3, 40))) for _ in range(60)]
        for coeffs in cases:
            f, g = Polynomial(coeffs), Polynomial(rng.choice(cases))
            results = [f, -f, f + g, f - g, g - f, f + (-f), f * g, f * 0, f ** 3, 3 - f, f + 1]
            results += [f / s for s in (2, -3, Fraction(-4, 9), Fraction(10, 3))]
            results += [f * f / 9, poly_sqrt(f * f / 9)]
            if not g.is_zero:
                results += [*divmod(f, g), f // g, f % g]
                if not f.is_zero:
                    results += bezout_gcd_qx(f, g)
            for h in results:
                _assert_canonical(h)

    def test_equal_values_have_one_form(self):
        # the same polynomial reached by different routes
        half = Polynomial((0, Fraction(1, 2)))
        assert (X / 2)._F == half._F == (0, 1) and (X / 2)._m == half._m == 2
        assert X * 2 / 4 == half and hash(X * 2 / 4) == hash(half)
        assert (X + 1) - (X + 1) == Polynomial.zero()
        assert ((X + 1) - (X + 1))._m == 1
        assert -X / -2 == half
        assert Polynomial.constant(Fraction(3, 1)) == 3 and Polynomial.constant(0) == 0


class TestBezout:
    def test_examples(self):
        h, u, v = bezout_gcd_qx(X, X - 1)
        assert h == Polynomial.one()
        assert u * X + v * (X - 1) == h
        h, _, _ = bezout_gcd_qx(X ** 2 - 1, X - 1)
        assert h == X - 1
        h, u, v = bezout_gcd_qx((X ** 2 + X) / 2, X)
        assert h == X
        assert u * ((X ** 2 + X) / 2) + v * X == X

    def test_rejects_double_zero(self):
        with pytest.raises(DomainError):
            bezout_gcd_qx(Polynomial.zero(), Polynomial.zero())

    def test_many_with_zero_entries_seeded(self):
        rng = random.Random(1010)
        leading_zero = single = 0
        for _ in range(400):
            family = [
                Polynomial.zero()
                if rng.random() < 0.3
                else Polynomial(
                    [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randrange(1, 6))]
                )
                for _ in range(rng.randrange(1, 6))
            ]
            nonzero = [i for i, q in enumerate(family) if not q.is_zero]
            if not nonzero:
                continue
            h, mults = bezout_gcd_many(family)
            assert sum((m * q for m, q in zip(mults, family)), Polynomial.zero()) == h
            assert h.leading_coefficient == 1
            assert all(m.is_zero for m, q in zip(mults, family) if q.is_zero)
            if len(nonzero) == 1:
                q = family[nonzero[0]]
                expected = [Polynomial.zero()] * len(family)
                expected[nonzero[0]] = Polynomial.constant(1 / q.leading_coefficient)
                assert (h, mults) == (q / q.leading_coefficient, expected)
                single += 1
            leading_zero += nonzero[0] > 0
        assert leading_zero > 50 and single > 50

    def test_identity_and_divisibility_random(self):
        rng = random.Random(4242)
        for _ in range(60):
            f = Polynomial([rng.randint(-6, 6) for _ in range(rng.randrange(1, 6))])
            g = Polynomial([rng.randint(-6, 6) for _ in range(rng.randrange(1, 6))])
            if f.is_zero and g.is_zero:
                continue
            h, u, v = bezout_gcd_qx(f, g)
            assert u * f + v * g == h
            assert h.divides(f) and h.divides(g)
            if not h.is_zero:
                assert h.leading_coefficient == 1


class TestPolySqrt:
    def test_examples(self):
        assert poly_sqrt(X ** 2 + 2 * X + 1) == X + 1
        assert poly_sqrt(X ** 2 + 1) is None
        square = (2 * X ** 2 - 3) ** 2
        assert poly_sqrt(square) == 2 * X ** 2 - 3
        # rational coefficients: the root of h*m^2 scaled back by m
        half = Fraction(1, 2)
        assert poly_sqrt((X / 3 - half) ** 2) == X / 3 - half
        assert poly_sqrt(X ** 2 * half) is None
        assert poly_sqrt((X / 3 - half) ** 2 + half) is None

    def test_odd_degree_and_zero(self):
        assert poly_sqrt(X ** 3) is None
        assert poly_sqrt(Polynomial.zero()) == Polynomial.zero()

    @settings(max_examples=60)
    @given(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=6),
            min_size=1,
            max_size=9,
        )
    )
    def test_roundtrip_random(self, coeffs):
        g = Polynomial(coeffs)
        if g.is_zero:
            return
        recovered = poly_sqrt(g * g)
        assert recovered in (g, -g)
        assert recovered.leading_coefficient > 0
