import random
from itertools import product

import pytest

from intpoly import (
    DomainError,
    Polynomial,
    SolutionFailure,
    bounded_search,
    from_binomial_basis,
    is_int_valued,
    poly_sqrt,
    recover_solution,
    reduce_relation,
    verify_known_solution,
)
from intpoly.example_lab import (
    B_MATRIX,
    GARBLED_G_INDEX,
    KNOWN_BETA,
    KNOWN_GAMMA,
    PRINTED_G,
    _box,
    _int_relation,
    _u_int_valued,
)
from intpoly.matrices import poly_det2, poly_mat_mul, poly_matrix, poly_trace
from intpoly.poly import _int_sqrt
from oracles import reference_bounded_search, reference_reduce_relation, reference_visited_pairs

X = Polynomial.x()
ZERO = Polynomial.zero()
ONE = Polynomial.one()


class TestReduceRelation:
    def test_zero_pair(self):
        f, disc = reduce_relation(ZERO, ZERO)
        assert f == Polynomial.constant(-1)
        assert disc == ONE

    def test_beta_one(self):
        f, disc = reduce_relation(ONE, ZERO)
        assert f == X
        assert disc == X ** 2

    def test_membership_guard(self):
        with pytest.raises(DomainError):
            reduce_relation(X / 2, ZERO)

    def test_matches_reference_seeded(self):
        # integer and rational integer-valued pairs, and pairs that are not
        # integer-valued, which both refuse
        rng = random.Random(85)

        def draw():
            kind = rng.randrange(5)
            deg = rng.randrange(0, 7)
            if kind == 0:
                return Polynomial([rng.randint(-9, 9) for _ in range(deg)])
            if kind == 1:
                return Polynomial([rng.randint(-2**64, 2**64) for _ in range(deg)])
            u = from_binomial_basis([rng.randint(-9, 9) for _ in range(deg)])
            return u if kind < 4 else u + X ** rng.randrange(0, 4) / rng.choice((2, 3, 12))

        refused = rational = 0
        for _ in range(400):
            beta, gamma = draw(), draw()
            try:
                want = reference_reduce_relation(beta, gamma)
            except DomainError:
                refused += 1
                with pytest.raises(DomainError):
                    reduce_relation(beta, gamma)
                continue
            assert reduce_relation(beta, gamma) == want
            rational += not (beta.has_integer_coeffs() and gamma.has_integer_coeffs())
        assert refused > 50 and rational > 100


class TestRecoverSolution:
    def test_degenerate_zero_pair_fails_both_signs(self):
        f, disc = reduce_relation(ZERO, ZERO)
        g = poly_sqrt(disc)
        assert g == ONE
        for sign in (1, -1):
            with pytest.raises(SolutionFailure) as err:
                recover_solution(ZERO, ZERO, g, sign)
            assert err.value.failed_check == "u_int_valued"

    def test_beta_one_fails_both_signs(self):
        f, disc = reduce_relation(ONE, ZERO)
        g = poly_sqrt(disc)
        assert g == X
        for sign in (1, -1):
            with pytest.raises(SolutionFailure):
                recover_solution(ONE, ZERO, g, sign)

    def test_wrong_square_rejected(self):
        with pytest.raises(DomainError):
            recover_solution(ZERO, ZERO, X, 1)

    def test_relation_identity_structure(self):
        # for any beta, gamma and u, alpha = 3u + f and delta = -2u - f give
        # the unit relation identically
        rng = random.Random(81)
        for _ in range(25):
            beta = Polynomial([rng.randint(-5, 5) for _ in range(3)])
            gamma = Polynomial([rng.randint(-5, 5) for _ in range(3)])
            u = Polynomial([rng.randint(-5, 5) for _ in range(3)])
            f, _ = reduce_relation(beta, gamma)
            alpha = u * 3 + f
            delta = u * (-2) - f
            relation = alpha * 2 + (X + 1) * beta + X * gamma + delta * 3
            assert relation == ONE

    def test_square_identity_equivalence(self):
        # 6u^2 + 5fu + f^2 + beta*gamma == 0 iff (12u+5f)^2 == f^2 - 24*beta*gamma
        rng = random.Random(82)
        for _ in range(40):
            u = Polynomial([rng.randint(-4, 4) for _ in range(2)])
            beta = Polynomial([rng.randint(-4, 4) for _ in range(2)])
            gamma = Polynomial([rng.randint(-4, 4) for _ in range(2)])
            f, disc = reduce_relation(beta, gamma)
            quad = u * u * 6 + f * u * 5 + f * f + beta * gamma
            square_form = (u * 12 + f * 5) ** 2
            assert (quad == ZERO) == (square_form == disc)


class TestKnownSolution:
    def test_full_certificate(self):
        cert = verify_known_solution()
        assert cert.all_ok
        assert set(cert.checks) >= {
            "u_int_valued",
            "relation_unit",
            "rank_one",
            "square_identity",
            "det_c_zero",
            "trace_bc_one",
            "bc_idempotent",
            "bc_nontrivial",
            "content_bc_unit",
            "printed_g_agreement",
        }

    def test_recomputed_g_matches_printed_including_corrupted_slot(self):
        cert = verify_known_solution()
        candidates = (cert.g, -cert.g)
        assert any(
            all(
                c.coefficient(k) == PRINTED_G.coefficient(k)
                for k in range(7)
                if k != GARBLED_G_INDEX
            )
            for c in candidates
        )
        # and the re-derived corrupted coefficient comes out as 22
        assert (-cert.g).coefficient(GARBLED_G_INDEX) == 22

    def test_matrix_facts(self):
        cert = verify_known_solution()
        C = poly_matrix(((cert.alpha, cert.beta), (cert.gamma, cert.delta)))
        BC = poly_mat_mul(B_MATRIX, C)
        assert poly_det2(C).is_zero
        assert poly_trace(BC) == ONE
        assert poly_mat_mul(BC, BC) == BC

    def test_round_trip(self):
        cert = verify_known_solution()
        again = cert.re_verify()
        assert again.beta == cert.beta
        assert again.u == cert.u
        assert again.alpha == cert.alpha
        assert again.delta == cert.delta
        assert all(again.checks.values())

    def test_json_round_trip(self):
        from intpoly import ExampleCertificate

        cert = verify_known_solution()
        data = cert.to_json()
        rebuilt = ExampleCertificate.from_json(data)
        assert rebuilt == cert


class TestBoundedSearch:
    def test_zero_budget(self):
        assert bounded_search(2, 5, 0) == []

    def test_small_box_certificates_reverify(self):
        results = bounded_search(0, 3, 10**6)
        for cert in results:
            assert cert.all_ok
            again = cert.re_verify()
            assert all(again.checks.values())

    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            bounded_search(-1, 3, 10)
        with pytest.raises(DomainError):
            bounded_search(1, 0, 10)

    def test_deterministic(self):
        a = [c.to_json() for c in bounded_search(1, 2, 2000)]
        b = [c.to_json() for c in bounded_search(1, 2, 2000)]
        assert a == b


def _ints(q: Polynomial) -> tuple:
    return tuple(int(c) for c in q.coeffs)


def _sampled_pairs():
    """The first 3,000 visited pairs of boxes (1, 2) (all 625) and (2, 2)."""
    for box in ((1, 2), (2, 2)):
        for k, pair in enumerate(reference_visited_pairs(*box)):
            if k == 3000:
                break
            yield pair


class TestIntegerKernel:
    @pytest.mark.parametrize("budget", [300, 10**4])
    @pytest.mark.parametrize("max_height", [1, 2, 3, 4])
    @pytest.mark.parametrize("max_deg", [0, 1, 2])
    def test_matches_reference(self, max_deg, max_height, budget):
        got = [c.to_json() for c in bounded_search(max_deg, max_height, budget)]
        want = [
            c.to_json() for c in reference_bounded_search(max_deg, max_height, budget)
        ]
        assert got == want

    def test_finds_the_hit_of_box_2_4(self):
        # the only hit in boxes d <= 2, h <= 4 lies near pair 10^5; the
        # reference search (slow at this size) found exactly this one
        beta, gamma = -X - 1, -X ** 2 - 2 * X + 4
        g = X ** 3 + 3 * X ** 2 - 2 * X - 10
        got = [c.to_json() for c in bounded_search(2, 4, 10**5)]
        assert got == [recover_solution(beta, gamma, g, 1).to_json()]

    @pytest.mark.parametrize("deg", [None, 0, 1, 2, 3])
    def test_box_and_shell_enumeration(self, deg):
        for h in (1, 2, 3):
            full = [
                cs
                for cs in product(range(-h, h + 1), repeat=0 if deg is None else deg + 1)
                if deg is None or cs[-1]
            ]
            assert list(_box(deg, h)) == full
            assert list(_box(deg, h, shell=True)) == [
                cs for cs in full if h in cs or -h in cs
            ]

    def test_relation_and_square_root_match_polynomial_path(self):
        pairs = squares = 0
        for beta, gamma in _sampled_pairs():
            pairs += 1
            f, disc = reference_reduce_relation(beta, gamma)
            f_int, disc_int = _int_relation(_ints(beta), _ints(gamma))
            assert Polynomial(f_int) == f and Polynomial(disc_int) == disc
            assert list(_ints(disc)) == disc_int
            g = poly_sqrt(disc)
            g_int = _int_sqrt(disc_int)
            if g is None:
                assert g_int is None
            else:
                squares += 1
                assert g_int is not None and Polynomial(g_int) == g
        # the square discriminants here are those with beta or gamma zero
        assert pairs == 625 + 3000 and squares == 198

    def test_square_root_matches_poly_sqrt_near_squares(self):
        # squares of random integer polynomials and their one-coefficient
        # perturbations, which reach the divisibility and final checks
        rng = random.Random(83)
        cases = 0
        for _ in range(300):
            g = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
            square = g * g
            perturbed = [
                square + Polynomial([0] * k + [rng.choice((-2, -1, 1, 2, 4))])
                for k in range(square.degree + 1)
            ]
            for h in [square] + perturbed:
                want = poly_sqrt(h)
                got = _int_sqrt(list(_ints(h)))
                assert (got is None) == (want is None)
                if want is not None:
                    assert Polynomial(got) == want
                cases += want is None
        assert cases > 1000

    def test_u_filter_matches_recover_solution(self):
        for beta, gamma in _sampled_pairs():
            f, disc = _int_relation(_ints(beta), _ints(gamma))
            g = _int_sqrt(disc)
            if g is None:
                continue
            for sign in (1, -1):
                try:
                    recover_solution(beta, gamma, Polynomial(g), sign)
                    past_u = True
                except SolutionFailure as exc:
                    past_u = exc.failed_check != "u_int_valued"
                assert _u_int_valued(f, g, sign) == past_u

    def test_u_filter_matches_is_int_valued(self):
        # sign*g - 5f = 12u + j*X^k: u integer-valued, so integer-valued
        # exactly when j == 0
        rng = random.Random(84)
        for _ in range(400):
            f = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 4))])
            u = from_binomial_basis([rng.randint(-5, 5) for _ in range(rng.randint(0, 4))])
            j, k = rng.choice((0, 0, 1, 3, 4, 6, 11)), rng.randint(0, 3)
            sign = rng.choice((1, -1))
            g = (u * 12 + f * 5 + Polynomial([0] * k + [j])) * sign
            assert _u_int_valued(list(_ints(f)), list(_ints(g)), sign) == (j == 0)
            assert (j == 0) == is_int_valued((g * sign - f * 5) / 12)

    def test_known_solution_passes_filter(self):
        f, disc = _int_relation(_ints(KNOWN_BETA), _ints(KNOWN_GAMMA))
        g = _int_sqrt(disc)
        assert g is not None
        signs = [sign for sign in (1, -1) if _u_int_valued(f, g, sign)]
        assert signs
        cert = recover_solution(KNOWN_BETA, KNOWN_GAMMA, Polynomial(g), signs[0])
        known = verify_known_solution().to_json()
        del known["checks"]["printed_g_agreement"]
        assert cert.to_json() == known
