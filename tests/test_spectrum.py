import random
from fractions import Fraction

import pytest

from intpoly import (
    DomainError,
    InputParseError,
    IntEM,
    MaxCompletion,
    MaxSequence,
    MaxTrivial,
    Polynomial,
    PrimeAboveZero,
    SeqWindow,
    SubsetDescriptor,
    from_binomial_basis,
    ideal_membership,
    padic_residue,
    parse_ideal,
    residue_image,
    residue_representative,
    separation_check,
)
from intpoly import arith, poly, spectrum
from intpoly.poly import MAX_DEGREE as MAX_SEPARATION_DEGREE

X = Polynomial.x()


def random_int_valued(rng, max_deg=6, height=9):
    deg = rng.randrange(0, max_deg + 1)
    return from_binomial_basis([rng.randint(-height, height) for _ in range(deg + 1)])


class TestIdealSpecs:
    def test_prime_above_zero_invariants(self):
        PrimeAboveZero(X - 3)
        with pytest.raises(DomainError):
            PrimeAboveZero(Polynomial.constant(5))
        with pytest.raises(DomainError):
            PrimeAboveZero(2 * X - 1)

    def test_sequence_needs_convergent_window(self):
        with pytest.raises(DomainError):
            MaxSequence(SeqWindow(5, (1, 2, 3)))

    def test_grammar_roundtrip(self):
        specs = [
            "pq:X - 3",
            "max:p=2,a=3",
            "comp:p=2,x=5,N=3",
            "seq:p=2,pts=1,3,7,15",
            "iem:p=2",
        ]
        for text in specs:
            ideal = parse_ideal(text)
            assert parse_ideal(str(ideal)) == ideal

    def test_grammar_rejects_garbage(self):
        for bad in ["", "pq:", "max:p=2", "foo:p=2", "seq:p=2", "comp:p=2,x=1"]:
            with pytest.raises(InputParseError):
                parse_ideal(bad)

    def test_completion_cap_admits_every_threshold(self):
        # a parsed polynomial's denominator p^v is at most 2^MAX_HEIGHT, and
        # over a finite set its comp: threshold can reach 1 + v
        E = SubsetDescriptor.finite((0,))
        for p in (2, 3, 5, 17, 257, 1000003):
            v = 0
            while p ** (v + 1) <= 2 ** poly.MAX_HEIGHT:
                v += 1
            N = spectrum._completion_threshold(X / p**v, E, p)
            assert N == 1 + v
            assert parse_ideal(f"comp:p={p},x=1,N={N}").x.precision == N
        with pytest.raises(InputParseError, match=r"exceeds the cap of 2\^8192"):
            parse_ideal("comp:p=2,x=1,N=8193")


class TestMembership:
    def test_prime_above_zero(self):
        f = (X - 3) * (X + 1)
        assert ideal_membership(f, PrimeAboveZero(X - 3)).is_yes
        assert ideal_membership(X + 1, PrimeAboveZero(X - 3)).is_no

    def test_max_trivial(self):
        f = X * (X - 1) / 2
        assert ideal_membership(f, MaxTrivial(2, 2)).is_no  # f(2) = 1
        assert ideal_membership(f, MaxTrivial(2, 0)).is_yes

    def test_max_completion_decided(self):
        verdict = ideal_membership(X ** 2 + X, MaxCompletion(padic_residue(5, 2, 3)))
        assert verdict.is_yes  # f(5) = 30 has valuation 1

    def test_max_completion_insufficient_precision(self):
        f = X * (X - 1) / 2  # needs precision >= 2 at p = 2
        verdict = ideal_membership(f, MaxCompletion(padic_residue(1, 2, 1)))
        assert verdict.value == "unknown"
        assert verdict.reason == "insufficient_precision"

    def test_max_completion_finite_set_keeps_denominator_bound(self):
        # f is in the ring over E but not 2-integral on Z, so the binary
        # digits of deg f do not bound its period: f(0) = 0 but f(4) = 3
        f = (X ** 2 - X) / 4
        E = SubsetDescriptor.finite((0, 1, 4, 5))
        below = ideal_membership(f, MaxCompletion(padic_residue(0, 2, 2)), E)
        assert below.reason == "insufficient_precision"
        assert ideal_membership(f, MaxCompletion(padic_residue(0, 2, 3)), E).is_yes

    def test_max_completion_without_a_residue(self):
        # f(2) = 1/2 has no residue mod 2, so membership and the
        # representative both refuse the point instead of answering
        f = (X ** 2 - X) / 4
        E, x = SubsetDescriptor.finite((0, 1)), MaxCompletion(padic_residue(2, 2, 3))
        for decide in (ideal_membership, residue_representative):
            with pytest.raises(DomainError, match="negative valuation"):
                decide(f, x, E)

    def test_max_sequence(self):
        w = SeqWindow(2, (1, 3, 7, 15, 31, 63))
        # x_n = 2^(n+1) - 1 -> pseudo-limit -1; f = X + 1 lands in the ideal
        assert ideal_membership(X + 1, MaxSequence(w)).is_yes
        assert ideal_membership(X, MaxSequence(w)).is_no

    def test_max_sequence_ambiguous(self):
        from intpoly.poly import binomial_poly

        w = SeqWindow(2, (4, 6, 10, 18))
        f = binomial_poly(8)  # final half: C(10,8) = 45 odd, C(18,8) = 43758 even
        verdict = ideal_membership(f, MaxSequence(w))
        assert verdict.value == "unknown"
        assert verdict.reason == "window_ambiguous"

    def test_int_e_m(self):
        assert ideal_membership(X ** 2 + X, IntEM(2)).is_yes
        assert ideal_membership(X * (X - 1) / 2, IntEM(2)).is_no

    def test_membership_precondition(self):
        with pytest.raises(DomainError):
            ideal_membership(X / 2, MaxTrivial(2, 0))

    def test_point_must_be_in_set(self):
        E = SubsetDescriptor.finite((0, 1, 2))
        with pytest.raises(DomainError):
            ideal_membership(X, MaxTrivial(2, 5), E)


class TestResidueRepresentative:
    def test_examples(self):
        assert residue_representative(X * (X - 1) / 2, MaxTrivial(2, 2)) == 1
        assert residue_representative(Polynomial.constant(7), MaxTrivial(5, 0)) == 2
        assert residue_representative(X, MaxCompletion(padic_residue(4, 3, 2))) == 1

    def test_unknown_propagates(self):
        f = X * (X - 1) / 2
        assert residue_representative(f, MaxCompletion(padic_residue(1, 2, 1))) is None

    def test_rejects_nonmaximal(self):
        with pytest.raises(DomainError):
            residue_representative(X, PrimeAboveZero(X))
        with pytest.raises(DomainError):
            residue_representative(X, IntEM(2))

    def test_postcondition_membership(self):
        rng = random.Random(31)
        for _ in range(30):
            f = random_int_valued(rng, max_deg=5)
            p = rng.choice((2, 3, 5))
            a = rng.randint(-5, 5)
            ideal = MaxTrivial(p, a)
            s = residue_representative(f, ideal)
            assert 0 <= s < p
            assert ideal_membership(f - s, ideal).is_yes

    def test_sequence_representative(self):
        w = SeqWindow(2, (1, 3, 7, 15, 31, 63))
        s = residue_representative(X, MaxSequence(w))
        assert s == 1  # all window points are odd
        assert ideal_membership(X - 1, MaxSequence(w)).is_yes


class TestSeparation:
    def test_examples(self):
        residues, ok = separation_check(X, 2)
        assert residues == {0, 1} and ok
        residues, ok = separation_check(X * (X - 1) / 2, 2)
        assert residues == {0, 1} and ok
        residues, ok = separation_check(Polynomial.constant(3), 5)
        assert residues == {3} and ok

    def test_precondition(self):
        with pytest.raises(DomainError, match="is not integer-valued at p=2"):
            separation_check(X / 2, 2)

    def test_preconditions_checked_once(self, monkeypatch):
        # one binomial valuation of f and one of the product; one primality check.
        # The valuation is spied on under both names, so that one reached
        # through a poly helper such as residue_image is counted too
        valuations, primes = [], []
        real_valuation, real_is_prime = poly._binomial_valuation, arith.is_prime

        def valuation(f, p):
            valuations.append(f)
            return real_valuation(f, p)

        monkeypatch.setattr(poly, "_binomial_valuation", valuation)
        monkeypatch.setattr(spectrum, "_binomial_valuation", valuation)
        monkeypatch.setattr(arith, "is_prime", lambda p: primes.append(p) or real_is_prime(p))
        residues, ok = separation_check(X * (X - 1) / 2, 2)
        assert residues == {0, 1} and ok
        assert (len(valuations), primes) == (2, [2])

    def test_product_cap(self):
        # |R| * deg f = 307 > MAX_SEPARATION_DEGREE: refused before the product is built
        with pytest.raises(DomainError, match=f"cap of degree {MAX_SEPARATION_DEGREE}"):
            separation_check(X, 307)

    def test_random_int_valued(self):
        # the product test holds on every valid input: integer-valued f, and
        # f integer-valued at p only, with binomial denominators prime to p
        rng = random.Random(32)
        for _ in range(15):
            f = random_int_valued(rng)
            for p in (2, 3, 5, 7):
                local = from_binomial_basis(
                    [Fraction(rng.randint(-9, 9), rng.choice([d for d in (1, 2, 3, 5, 7) if d != p]))
                     for _ in range(rng.randrange(1, 7))]
                )
                for g in (f, local):
                    residues, ok = separation_check(g, p)
                    assert ok and residues == residue_image(g, p)


class TestSpectrumCoherence:
    def test_linear_prime_inside_point_ideal(self):
        rng = random.Random(33)
        for _ in range(30):
            h = random_int_valued(rng, max_deg=5)
            for p in (2, 3, 5):
                for a in range(-3, 4):
                    f = (X - a) * h
                    assert ideal_membership(f, MaxTrivial(p, a)).is_yes

    def test_precision_monotonicity(self):
        rng = random.Random(34)
        for _ in range(40):
            f = random_int_valued(rng, max_deg=5)
            p = rng.choice((2, 3, 5))
            x = Fraction(rng.randint(-50, 50))
            m = f.denominator_lcm()
            base = 1
            while m % p == 0:
                base += 1
                m //= p
            for extra in range(3):
                n1 = base + extra
                v1 = ideal_membership(f, MaxCompletion(padic_residue(x, p, n1)))
                v2 = ideal_membership(f, MaxCompletion(padic_residue(x, p, n1 + 1)))
                assert v1.decided and v2.decided
                assert v1 == v2

    def test_sequence_and_completion_agree_on_rational_limits(self):
        rng = random.Random(35)
        agree = both = 0
        for _ in range(50):
            p = rng.choice((2, 3, 5))
            units = [m for m in (1, 2, 3) if m % p != 0]
            x = Fraction(rng.randint(-30, 30))
            # x_n = x - u_n p^(n+1), so v(x - x_n) = n + 1 climbs: x is the
            # window's pseudo-limit
            pts = tuple(
                x - rng.choice(units) * Fraction(p) ** (n + 1) for n in range(12)
            )
            window = SeqWindow(p, tuple(pts))
            f = random_int_valued(rng)
            seq_verdict = ideal_membership(f, MaxSequence(window))
            comp_verdict = ideal_membership(
                f, MaxCompletion(padic_residue(x, p, 12))
            )
            if seq_verdict.decided and comp_verdict.decided:
                both += 1
                if seq_verdict == comp_verdict:
                    agree += 1
        assert both > 0
        assert agree == both
