import random
import time
from math import gcd

import pytest

from intpoly import (
    DomainError,
    MaxTrivial,
    Polynomial,
    from_binomial_basis,
    ideal_membership,
    idempotent_check,
    snf_with_transforms,
    strong_bezout_z,
    trace_combination_search,
    trace_combination_z,
    trace_normalize,
    ucs_pair_check,
    unit_content_decide,
)
from intpoly.arith import vp
from intpoly.matrices import (
    MAX_CONTENT_DEGREE,
    MAX_SNF_HEIGHT,
    _require_snf_height,
    poly_det2,
    poly_mat_mul,
    poly_matrix,
    poly_trace,
)
from intpoly.poly import MAX_RESIDUE_CLASSES
from oracles import (
    content_oracle_unit,
    int_det,
    int_valuation,
    int_mat_mul,
    prime_factors,
    reference_content_sweep,
)

X = Polynomial.x()


def _period_exp(entries, p: int) -> int:
    """The classes mod p^N of one content sweep: N = max(1, N_e) over the
    entries, N_e = min(1 + v_p(m_e), the number of base-p digits of deg e)."""
    exp = 1
    for e in entries:
        digits = 0
        while p ** digits <= e.degree:
            digits += 1
        exp = max(exp, min(1 + int_valuation(e.denominator_lcm(), p), digits))
    return exp


def check_snf_postconditions(A, result):
    m, n = len(A), len(A[0])
    UA = int_mat_mul(result.U, tuple(tuple(r) for r in A))
    UAW = int_mat_mul(UA, result.W)
    assert UAW == result.S
    assert abs(int_det(result.U)) == 1
    assert abs(int_det(result.W)) == 1
    diag = list(result.diagonal)
    for i in range(m):
        for j in range(n):
            if i != j:
                assert result.S[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    entries_gcd = 0
    for row in A:
        for x in row:
            entries_gcd = gcd(entries_gcd, abs(x))
    assert diag[0] == entries_gcd if diag else True


class TestSNF:
    def test_identity(self):
        result = snf_with_transforms(((1, 0), (0, 1)))
        assert result.S == ((1, 0), (0, 1))
        assert result.U == ((1, 0), (0, 1))
        assert result.W == ((1, 0), (0, 1))

    def test_diag_2_3(self):
        result = snf_with_transforms(((2, 0), (0, 3)))
        assert result.diagonal == (1, 6)
        check_snf_postconditions(((2, 0), (0, 3)), result)

    def test_2468(self):
        A = ((2, 4), (6, 8))
        result = snf_with_transforms(A)
        assert result.diagonal[0] == 2
        check_snf_postconditions(A, result)

    def test_zero_matrix(self):
        result = snf_with_transforms(((0, 0), (0, 0)))
        assert result.S == ((0, 0), (0, 0))
        assert result.U == ((1, 0), (0, 1))
        assert result.W == ((1, 0), (0, 1))

    def test_deterministic(self):
        A = ((12, -4, 7), (0, 5, -3))
        assert snf_with_transforms(A) == snf_with_transforms(A)

    def test_height_cap(self):
        assert snf_with_transforms(((2**MAX_SNF_HEIGHT - 1,),)).diagonal == (2**MAX_SNF_HEIGHT - 1,)
        with pytest.raises(DomainError, match=f"size up to 2\\^{MAX_SNF_HEIGHT + 1} exceed"):
            snf_with_transforms(((-(2**MAX_SNF_HEIGHT),),))
        with pytest.raises(DomainError):
            _require_snf_height((1,), (1, -(2**MAX_SNF_HEIGHT)))

    def test_height_cap_admits_64_by_64_of_two_digits(self):
        # the highest of 25 seeded 64 x 64 matrices with entries in [-99, 99]
        rng = random.Random(4)
        A = [[rng.randint(-99, 99) for _ in range(64)] for _ in range(64)]
        result = snf_with_transforms(A)
        height = max(abs(x) for M in (result.U, result.S, result.W) for row in M for x in row)
        assert 13_800 < height.bit_length() <= MAX_SNF_HEIGHT

    def test_random_suite(self):
        rng = random.Random(71)
        for _ in range(200):
            m = rng.randrange(1, 6)
            n = rng.randrange(1, 6)
            A = tuple(
                tuple(rng.randint(-100, 100) for _ in range(n)) for _ in range(m)
            )
            check_snf_postconditions(A, snf_with_transforms(A))


class TestStrongBezout:
    def test_examples(self):
        a, b, g, d = strong_bezout_z(2, 3, 4, 5)
        assert 2 * a + 3 * b + 4 * g + 5 * d == 1 and a * d == b * g
        a, b, g, d = strong_bezout_z(6, 10, 15, 0)
        assert 6 * a + 10 * b + 15 * g + 0 * d == 1 and a * d == b * g
        assert strong_bezout_z(1, 0, 0, 0) == (1, 0, 0, 0)

    def test_rejects_non_coprime(self):
        with pytest.raises(DomainError) as err:
            strong_bezout_z(6, 10, 2, 4)
        assert "2" in str(err.value)

    def test_random_quadruples(self):
        rng = random.Random(72)
        count = 0
        while count < 200:
            quad = [rng.randint(-10**6, 10**6) for _ in range(4)]
            g = gcd(gcd(abs(quad[0]), abs(quad[1])), gcd(abs(quad[2]), abs(quad[3])))
            if g != 1:
                continue
            count += 1
            a, b, gm, d = strong_bezout_z(*quad)
            assert quad[0] * a + quad[1] * b + quad[2] * gm + quad[3] * d == 1
            assert a * d == b * gm


class TestUnitContent:
    def test_examples(self):
        verdict = unit_content_decide((Polynomial.constant(2), X, X + 1, Polynomial.constant(3)))
        assert verdict.unit
        verdict = unit_content_decide((Polynomial.constant(2), X ** 2 + X))
        assert not verdict.unit
        assert verdict.witness_prime == 2
        verdict = unit_content_decide((X, X - 1))
        assert verdict.unit

    def test_nonconstant_gcd_witness(self):
        verdict = unit_content_decide((X * (X - 1), X ** 2 * (X - 1)))
        assert not verdict.unit
        assert verdict.witness_gcd is not None
        assert verdict.witness_gcd.divides(X * (X - 1))

    def test_preconditions(self):
        with pytest.raises(DomainError):
            unit_content_decide(())
        with pytest.raises(DomainError):
            unit_content_decide((Polynomial.zero(),))
        with pytest.raises(DomainError):
            unit_content_decide((X / 2,))

    def test_sweep_builds_no_fraction_per_class(self):
        # X^2 + 1 has no root mod p = 3 mod 4, so every class is swept; the
        # Fractions of the Bezout step do not grow with the p classes
        from test_poly import _fraction_constructions

        counts = set()
        for p in (3, 7, 10007):
            entries = (Polynomial.constant(p), X ** 2 + 1)
            verdict = unit_content_decide(entries)
            assert verdict.unit and len(verdict.coverage[p]) == p
            counts.add(_fraction_constructions(lambda: unit_content_decide(entries)))
        assert len(counts) == 1

    def test_sweep_cap(self):
        # c = 1000003 is prime: its class sweep is over the cap
        with pytest.raises(DomainError, match=f"cap of {MAX_RESIDUE_CLASSES} classes"):
            unit_content_decide((Polynomial.constant(1000003), X + 1))

    def test_cofactor_above_the_cap(self):
        # c = (10^9+7)(10^9+9): trial division stops at the cap and the
        # unfactored cofactor is refused whole, at once
        big = (10**9 + 7) * (10**9 + 9)
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"sweeping {big}\\^1 residue classes"):
            unit_content_decide((Polynomial.constant(big), X + 1))
        assert time.perf_counter() - start < 1.0
        # a smaller prime that already decides is swept first, as before
        verdict = unit_content_decide((Polynomial.constant(2 * big), X * (X + 1)))
        assert (verdict.unit, verdict.witness_prime, verdict.witness_residue) == (False, 2, 0)

    def test_degree_cap(self):
        # two seeded monic entries of degree 50 took about 2.9 s before the cap
        rng = random.Random(50)
        entries = [Polynomial([rng.randint(-9, 9) for _ in range(50)] + [1]) for _ in range(2)]
        start = time.perf_counter()
        with pytest.raises(
            DomainError,
            match=f"entries of degree 50 exceeds the cap of degree {MAX_CONTENT_DEGREE}",
        ):
            unit_content_decide(entries)
        assert time.perf_counter() - start < 1.0
        at_cap = X ** MAX_CONTENT_DEGREE + 1
        assert unit_content_decide((at_cap, Polynomial.constant(2))).witness_prime == 2

    def test_unit_certificate_reverifies(self):
        entries = (X * (X - 1) / 2, Polynomial.constant(3), X + 1)
        verdict = unit_content_decide(entries)
        assert verdict.unit
        total = Polynomial.zero()
        for u, f in zip(verdict.multipliers, entries):
            assert u.has_integer_coeffs()
            total = total + u * f
        assert total == Polynomial.constant(verdict.c)
        for p, table in verdict.coverage.items():
            assert verdict.c % p == 0
            for alpha, idx in table.items():
                assert vp(entries[idx](alpha), p) == 0

    def test_non_unit_witness_reverifies(self):
        entries = (Polynomial.constant(2), X ** 2 + X)
        verdict = unit_content_decide(entries)
        p = verdict.witness_prime
        modulus = p ** verdict.witness_modulus_exp
        for t in range(20):
            point = verdict.witness_residue + t * modulus
            for e in entries:
                assert vp(e(point), p) >= 1

    def test_matches_brute_force_oracle(self):
        # the truncated oracle is only complete when every prime that could
        # host a common residue class (a divisor of the Bezout constant) is
        # within its range, so sampling is conditioned on that
        from math import lcm

        from intpoly.poly import bezout_gcd_many

        rng = random.Random(73)
        checked = 0
        while checked < 40:
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
                    continue
            checked += 1
            verdict = unit_content_decide((f, g))
            assert verdict.unit == content_oracle_unit(fc, gc)


    def test_sweep_matches_fraction_reference_seeded(self):
        # coverage tables and residue witnesses against one Fraction valuation
        # per entry and class.  Entries are binomial combinations of degree up
        # to p + 1, whose denominators carry p and lengthen the period, taken
        # as they are, times p, times p plus a unit, or times X - a
        seen = set()
        for p in (2, 3, 5, 7):
            rng = random.Random(1400 + p)
            for _ in range(40):
                a = rng.randrange(p)
                entries = []
                for _ in range(rng.randrange(2, 4)):
                    e = from_binomial_basis(
                        [rng.randint(-5, 5) for _ in range(rng.randrange(1, p + 3))]
                    )
                    r = rng.random()
                    if r < 0.3:
                        e = e * p
                    elif r < 0.5:
                        e = e * p + rng.choice((1, -1, p + 1))
                    elif r < 0.7:
                        e = e * (X - a)
                    entries.append(e)
                if all(e.is_zero for e in entries):
                    continue
                try:
                    verdict = unit_content_decide(entries)
                except DomainError:
                    continue  # a content prime above the sweep cap
                coeffs = [e.coeffs for e in entries]
                if verdict.unit:
                    for q, table in verdict.coverage.items():
                        exp = _period_exp(entries, q)
                        assert (table, None) == reference_content_sweep(coeffs, q, exp)
                        seen.add((q, "unit", exp))
                elif verdict.witness_prime is not None:
                    q, exp = verdict.witness_prime, verdict.witness_modulus_exp
                    assert exp == _period_exp(entries, q)
                    _, witness = reference_content_sweep(coeffs, q, exp)
                    assert witness == verdict.witness_residue
                    seen.add((q, "residue", exp))
        assert {(p, "unit") for p in (2, 3, 5, 7)} <= {s[:2] for s in seen}
        assert {(p, "residue") for p in (2, 3, 5)} <= {s[:2] for s in seen}
        assert max(exp for _, _, exp in seen) >= 3

    def test_walk_matches_full_sweeps_seeded(self):
        # the class-by-class walk against every entry's whole sweep list,
        # zipped: the same coverage tables and the same first witness
        from intpoly.poly import _residue_sweep

        def full_sweeps(entries, p, exp):
            table = {}
            for alpha, residues in enumerate(zip(*(_residue_sweep(e, p, exp) for e in entries))):
                units = [i for i, r in enumerate(residues) if r]
                if not units:
                    return table, alpha
                table[alpha] = units[0]
            return table, None

        rng = random.Random(2014)
        seen = set()
        for _ in range(120):
            p = rng.choice((2, 3, 5, 101, 997, 9973))
            entries = [Polynomial.constant(p * rng.choice((1, 1, 2, 3)))]
            for _ in range(rng.randrange(1, 3)):
                e = from_binomial_basis([rng.randint(-6, 6) for _ in range(rng.randrange(2, 6))])
                entries.insert(rng.randrange(len(entries) + 1), e * rng.choice((1, 1, p)))
            if any(e.is_zero for e in entries):
                continue
            try:
                verdict = unit_content_decide(entries)
            except DomainError:
                continue  # a content prime above the sweep cap
            if verdict.unit:
                for q, table in verdict.coverage.items():
                    assert (table, None) == full_sweeps(entries, q, _period_exp(entries, q))
                    seen.add((q > 5, "unit"))
            elif verdict.witness_prime is not None:
                q, exp = verdict.witness_prime, verdict.witness_modulus_exp
                assert full_sweeps(entries, q, exp)[1] == verdict.witness_residue
                seen.add((q > 5, "residue"))
        assert seen == {(small, kind) for small in (False, True) for kind in ("unit", "residue")}

    def test_walk_stops_at_the_witness(self, monkeypatch):
        # (99991, (X^2+1)(X^3+2)X^2 - 1): the witness is class 17,518 of
        # 99,991, and the walk evaluates both entries at each class up to it
        # and at no class after it
        from intpoly import matrices

        evaluations = 0
        horner = matrices._horner

        def counted(F, x):
            nonlocal evaluations
            evaluations += 1
            return horner(F, x)

        monkeypatch.setattr(matrices, "_horner", counted)
        f = (X**2 + 1) * (X**3 + 2) * X**2 - 1
        verdict = unit_content_decide((Polynomial.constant(99991), f))
        assert verdict.to_json() == {
            "unit": False,
            "witness": {"kind": "residue", "p": 99991, "residue": 17518, "modulus_exp": 1},
        }
        assert evaluations == 2 * 17519

    def test_verdicts_agree_with_membership_seeded(self):
        # the paper's identity: a class that a unit certificate covers with
        # entry i is a maximal ideal max:p,alpha that entry i lies outside,
        # and a residue witness is one that every entry lies in
        rng = random.Random(20261018)
        kinds = set()
        covered = 0
        for _ in range(80):
            entries = tuple(
                from_binomial_basis([rng.randint(-6, 6) for _ in range(rng.randrange(1, 4))])
                for _ in range(rng.randrange(1, 4))
            )
            if all(e.is_zero for e in entries):
                continue
            verdict = unit_content_decide(entries)
            if verdict.unit:
                kinds.add("unit")
                for p, table in verdict.coverage.items():
                    for alpha, i in table.items():
                        assert ideal_membership(entries[i], MaxTrivial(p, alpha)).is_no
                        covered += 1
            elif verdict.witness_prime is not None:
                kinds.add("residue")
                ideal = MaxTrivial(verdict.witness_prime, verdict.witness_residue)
                assert all(ideal_membership(e, ideal).is_yes for e in entries)
        assert kinds == {"unit", "residue"} and covered > 0


class TestUcsPairCheck:
    def test_paper_matrix_qualification(self):
        B = ((2, X), (X + 1, 3))
        C = ((1, 0), (0, 1))
        report = ucs_pair_check(B, C)
        assert report.a_nonunit_integer
        assert report.acd_content_unit
        assert report.det_outside_integers
        assert report.qualifies

    def test_identity_times_rank_one(self):
        report = ucs_pair_check(((1, 0), (0, 1)), ((1, 1), (0, 0)))
        assert report.content_unit and report.det_zero
        # a = 1 is a unit, so the known-suitable C is reported
        assert not report.qualifies
        assert report.suggested_c is not None

    def test_scalar_two_fails_content(self):
        report = ucs_pair_check(((2, 0), (0, 2)), ((1, 0), (0, 1)))
        assert not report.content_unit
        assert not report.det_zero

    def test_integer_det_suggestion(self):
        # det(B) = 1 is an integer; a suitable C of the (1 1 / r r) shape exists
        B = ((2, X), (1, (X + 1) / 2 + 1))
        with pytest.raises(DomainError):
            ucs_pair_check(B, ((1, 0), (0, 1)))  # (X+1)/2 not integer-valued

        B = ((3, X), (2, X + 1))  # det = 3X + 3 - 2X = X + 3, not integer: qualifies path
        report = ucs_pair_check(B, ((1, 0), (0, 1)))
        assert report.det_outside_integers


class TestIdempotent:
    def test_examples(self):
        assert idempotent_check(((1, 0), (0, 0))) == (True, True)
        assert idempotent_check(((1, 0), (0, 1))) == (True, False)
        assert idempotent_check(((0, 0), (0, 0))) == (True, False)

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            idempotent_check(((1, 0, 0), (0, 1, 0)))

    def test_det_zero_trace_one_is_idempotent(self):
        rng = random.Random(74)
        for _ in range(40):
            # rank-one v w^T with w.v = 1 has trace 1 and det 0
            v1, v2 = rng.randint(-9, 9), rng.randint(-9, 9)
            if v1 == 0 and v2 == 0:
                continue
            g, w1, w2 = _ext(v1, v2)
            if g != 1:
                continue
            M = ((v1 * w1, v1 * w2), (v2 * w1, v2 * w2))
            idem, nontrivial = idempotent_check(M)
            assert idem and nontrivial


def _ext(a, b):
    from intpoly import ext_gcd

    return ext_gcd(a, b)


class TestTraceNormalize:
    def test_trivial_example(self):
        B = ((1, 0), (0, 1))
        C = ((1, 0), (0, 0))
        C0 = trace_normalize(B, C, (1, 0, 0, 0))
        assert C0 == poly_matrix(C)
        product = poly_mat_mul(poly_matrix(B), C0)
        assert poly_trace(product) == Polynomial.one()

    def test_bad_combination_rejected(self):
        B = ((1, 0), (0, 1))
        C = ((1, 0), (0, 0))
        with pytest.raises(DomainError) as err:
            trace_normalize(B, C, (0, 0, 0, 0))
        assert "misses the unit" in str(err.value)

    def test_nonzero_det_c_rejected(self):
        with pytest.raises(DomainError):
            trace_normalize(((1, 0), (0, 1)), ((1, 0), (0, 1)), (1, 0, 0, 0))

    @pytest.mark.parametrize("M", [((1,), (1,)), ((1, 0), (1,)), ((1, 0), (0, 1), (1, 1))])
    def test_integer_combination_rejects_other_shapes(self, M):
        with pytest.raises(DomainError, match="integer combination expects a 2x2 matrix"):
            trace_combination_z(M)

    @pytest.mark.parametrize(
        "A, B",
        [(((1,), (X,)), ((1, 0), (0, 1))), (((1, 0), (0, 1)), ((1, 0), (1,)))],
    )
    def test_product_rejects_mismatched_shapes(self, A, B):
        with pytest.raises(DomainError):
            poly_mat_mul(A, B)

    def test_integer_pipeline(self):
        rng = random.Random(75)
        done = 0
        while done < 60:
            B = ((rng.randint(-9, 9), rng.randint(-9, 9)),
                 (rng.randint(-9, 9), rng.randint(-9, 9)))
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
            assert poly_det2(C0).is_zero
            assert poly_mat_mul(product, product) == product
            idem, nontrivial = idempotent_check(product)
            assert idem and nontrivial

    def test_polynomial_combination_search(self):
        # a combination needing genuine degree-1 multipliers
        M = poly_matrix(((X, 1 - X), (0, 0)))
        comb = trace_combination_search(M, max_deg=1, max_height=10)
        assert comb is not None
        r, s, t, u = comb
        total = M[0][0] * r + M[1][0] * s + M[0][1] * t + M[1][1] * u
        assert total == Polynomial.one()

    def test_search_feeds_trace_normalize(self):
        B = poly_matrix(((1, X), (0, 1)))
        C = poly_matrix(((1, 1), (1, 1)))  # rank one
        M = poly_mat_mul(B, C)
        comb = trace_combination_search(M, max_deg=2, max_height=10)
        assert comb is not None
        C0 = trace_normalize(B, C, comb)
        product = poly_mat_mul(B, C0)
        assert poly_trace(product) == Polynomial.one()
        idem, nontrivial = idempotent_check(product)
        assert idem and nontrivial

    def test_search_reports_unsolvable(self):
        # entries 2, X+1: reducing mod 2 shows no Z[X] combination reaches 1
        M = poly_matrix(((2, Polynomial.zero()), (X + 1, Polynomial.zero())))
        assert trace_combination_search(M, max_deg=2, max_height=10) is None
        # entries 2, 0, 0, 0: 2r = 1 has no integer solution
        M = poly_matrix(((2, 0), (0, 0)))
        assert trace_combination_search(M, max_deg=2, max_height=10) is None

    def test_search_rounds_huge_quotients_exactly(self):
        # size reduction divides integers far beyond the float range
        big = 10 ** 400
        M = poly_matrix(((big * X + 1, X), (X, big)))
        assert trace_combination_search(M, max_deg=2, max_height=10) is None
        r, s, t, u = trace_combination_search(M, max_deg=2, max_height=10 ** 802)
        total = M[0][0] * r + M[1][0] * s + M[0][1] * t + M[1][1] * u
        assert total == Polynomial.one()


class TestAlgebraFacts:
    def test_det_multiplicativity_consequence(self):
        rng = random.Random(76)
        for _ in range(40):
            B = ((rng.randint(-9, 9), rng.randint(-9, 9)),
                 (rng.randint(-9, 9), rng.randint(-9, 9)))
            detB = B[0][0] * B[1][1] - B[0][1] * B[1][0]
            if detB == 0:
                continue
            C = ((rng.randint(-9, 9), rng.randint(-9, 9)),
                 (rng.randint(-9, 9), rng.randint(-9, 9)))
            M = int_mat_mul(B, C)
            detM = M[0][0] * M[1][1] - M[0][1] * M[1][0]
            detC = C[0][0] * C[1][1] - C[0][1] * C[1][0]
            assert detM == detB * detC
            if detM == 0:
                assert detC == 0

    def test_idempotent_forces_det_zero_trace_one(self):
        # the converse direction of the equivalence, on generated idempotents
        rng = random.Random(77)
        for _ in range(40):
            v1, v2 = rng.randint(-9, 9), rng.randint(-9, 9)
            if gcd(abs(v1), abs(v2)) != 1:
                continue
            _, w1, w2 = _ext(v1, v2)
            M = ((v1 * w1, v1 * w2), (v2 * w1, v2 * w2))
            idem, nontrivial = idempotent_check(M)
            assert idem and nontrivial
            Mp = poly_matrix(M)
            assert poly_det2(Mp).is_zero
            assert poly_trace(Mp) == Polynomial.one()
