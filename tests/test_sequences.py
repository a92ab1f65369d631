import random
from fractions import Fraction
from itertools import product

import pytest

from intpoly import (
    DomainError,
    ImageDichotomy,
    Polynomial,
    SeqWindow,
    WindowClass,
    classify_window,
    image_window_classify,
    is_pseudo_limit,
)
from intpoly.arith import INF
from intpoly.sequences import _observed_dichotomy
from oracles import classify_triples, reference_image_window_classify

X = Polynomial.x()


class TestWindowInvariants:
    def test_needs_three_points(self):
        with pytest.raises(DomainError):
            SeqWindow(2, (1, 3))

    def test_needs_distinct_points(self):
        with pytest.raises(DomainError):
            SeqWindow(2, (1, 3, 1))

    def test_needs_integral_points(self):
        with pytest.raises(DomainError):
            SeqWindow(2, (1, 3, Fraction(1, 2)))


class TestClassify:
    def test_fixtures(self):
        assert classify_window(SeqWindow(2, (1, 3, 7, 15))) is WindowClass.PSEUDO_CONVERGENT
        assert classify_window(SeqWindow(2, (0, 4, 6, 7))) is WindowClass.PSEUDO_DIVERGENT
        assert classify_window(SeqWindow(5, (1, 2, 3, 4))) is WindowClass.PSEUDO_STATIONARY

    def test_none_fixture(self):
        # gaps 0, 0, 1 and unequal pairwise valuations
        assert classify_window(SeqWindow(2, (0, 1, 2, 4))) is WindowClass.NONE

    def test_consecutive_equality_is_not_stationary(self):
        # consecutive gaps all 0 but the constrained pair (x_0, x_2) has v = 1
        assert classify_window(SeqWindow(2, (0, 1, 2, 3))) is WindowClass.NONE

    def test_first_last_pair_is_unconstrained(self):
        # every triple difference has valuation 0; only the first-to-last
        # difference deviates, and no triple ever compares it
        assert classify_window(SeqWindow(2, (0, 1, 2))) is WindowClass.PSEUDO_STATIONARY
        assert classify_window(SeqWindow(3, (0, 1, 2, 3))) is WindowClass.PSEUDO_STATIONARY

    def test_matches_triple_brute_force(self):
        rng = random.Random(61)
        for _ in range(400):
            length = rng.randrange(3, 7)
            pts = tuple(rng.sample(range(0, 64), length))
            w = SeqWindow(2, pts)
            assert classify_window(w).value == classify_triples(pts, 2)

    def test_convergent_pair_valuations_collapse(self):
        w = SeqWindow(2, (1, 3, 7, 15, 31))
        gaps = w.gap_valuations()
        pts = w.points
        for m in range(len(pts)):
            for n in range(m + 1, len(pts)):
                from intpoly import vp

                assert vp(pts[n] - pts[m], 2) == gaps[m]


class TestPseudoLimit:
    def test_examples(self):
        w = SeqWindow(2, (1, 3, 7, 15))
        assert is_pseudo_limit(-1, w) is True
        assert is_pseudo_limit(0, w) is False
        assert is_pseudo_limit(15, w) is False  # window point: degenerate case

    def test_needs_convergent_window(self):
        with pytest.raises(DomainError):
            is_pseudo_limit(0, SeqWindow(5, (1, 2, 3)))

    def test_cauchy_window_has_its_limit(self):
        # x_n -> 5 with strictly increasing agreement depth
        rng = random.Random(62)
        for p in (2, 3, 5):
            for _ in range(20):
                x = Fraction(rng.randint(-20, 20))
                pts = tuple(x + rng.choice((1, -1)) * p ** (n + 1) for n in range(4))
                w = SeqWindow(p, pts)
                assert classify_window(w) is WindowClass.PSEUDO_CONVERGENT
                assert is_pseudo_limit(x, w)


class TestImageClassification:
    def test_square_example(self):
        w = SeqWindow(2, (1, 3, 7, 15))
        start, cls, dichotomy = image_window_classify(X ** 2, w)
        assert start == 1
        assert cls is WindowClass.PSEUDO_CONVERGENT
        assert dichotomy is ImageDichotomy.EVENTUALLY_CONSTANT

    def test_identity_example(self):
        w = SeqWindow(2, (1, 3, 7, 15))
        start, cls, _ = image_window_classify(X, w)
        assert start == 0
        assert cls is WindowClass.PSEUDO_CONVERGENT

    def test_constant_is_undetermined(self):
        w = SeqWindow(2, (1, 3, 7, 15))
        start, cls, dichotomy = image_window_classify(Polynomial.constant(3), w)
        assert start == len(w.points)
        assert dichotomy is ImageDichotomy.UNDETERMINED

    def test_matches_reference_seeded(self):
        # convergent, symmetric and random windows under polynomials that
        # merge image points, keep them apart or have a denominator p
        rng = random.Random(64)
        found = 0
        for _ in range(600):
            p = rng.choice((2, 3, 5, 7))
            n = rng.randrange(3, 9)
            kind = rng.randrange(3)
            if kind == 0:
                acc, pts = Fraction(rng.randint(-9, 9)), []
                for k in range(n):
                    acc += rng.choice((1, 2)) * p ** rng.randrange(k, k + 3)
                    pts.append(acc)
            elif kind == 1:
                center = rng.randint(-9, 9)
                pts = [center + s * k for k in range(1, n) for s in (1, -1)][:n]
            else:
                pts = []
                while len(pts) < n:
                    x = Fraction(rng.randint(-60, 60), rng.choice((1, p + 1)))
                    if x not in pts:
                        pts.append(x)
            w = SeqWindow(p, tuple(pts))
            f = Polynomial([rng.randint(-4, 4) for _ in range(rng.randrange(0, 4))] + [1])
            f = f / rng.choice((1, 1, p))
            start, cls, dichotomy = image_window_classify(f, w)
            want = reference_image_window_classify(f, w.points, p)
            assert (start, cls.value, dichotomy.value) == want, (p, pts, f)
            found += start < len(w)
        assert 100 < found < 500

    def test_zero_polynomial_rejected(self):
        with pytest.raises(DomainError):
            image_window_classify(Polynomial.zero(), SeqWindow(2, (1, 3, 7)))

    def test_observed_dichotomy_matches_tail_search(self):
        def by_tails(vals):
            if all(a < b for a, b in zip(vals, vals[1:])):
                return ImageDichotomy.INCREASING
            for n0 in range(len(vals) - 1):
                tail = vals[n0:]
                if all(v == tail[0] for v in tail) and tail[0] is not INF:
                    return ImageDichotomy.EVENTUALLY_CONSTANT
            return ImageDichotomy.UNDETERMINED

        lists = [list(v) for n in range(2, 6) for v in product((0, 1, 2, INF), repeat=n)]
        assert len(lists) == 1360
        for vals in lists:
            assert _observed_dichotomy(vals) is by_tails(vals), vals

    def test_dichotomy_on_generated_fixtures(self):
        # increasing kind: pseudo-limit 0, so v(x_n) climbs
        w = SeqWindow(3, tuple(3 ** (n + 1) * 2 for n in range(5)))
        start, cls, dichotomy = image_window_classify(X, w)
        assert cls is WindowClass.PSEUDO_CONVERGENT
        assert dichotomy is ImageDichotomy.INCREASING
        # eventually constant kind: pseudo-limit 1, so v(x_n) freezes at 0
        w = SeqWindow(3, tuple(1 + 3 ** (n + 1) for n in range(5)))
        start, cls, dichotomy = image_window_classify(X, w)
        assert cls is WindowClass.PSEUDO_CONVERGENT
        assert dichotomy is ImageDichotomy.EVENTUALLY_CONSTANT

    def test_dichotomy_holds_on_random_convergent_images(self):
        rng = random.Random(63)
        for _ in range(60):
            p = rng.choice((2, 3))
            units = [m for m in (1, 2, 3) if m % p != 0]
            x0 = rng.randint(-9, 9)
            pts = []
            acc = Fraction(x0)
            for n in range(6):
                acc = acc + rng.choice(units) * Fraction(p) ** (n + 1)
                pts.append(acc)
            w = SeqWindow(p, tuple(pts))
            assert classify_window(w) is WindowClass.PSEUDO_CONVERGENT
            deg = rng.randrange(1, 4)
            f = Polynomial([rng.randint(-5, 5) for _ in range(deg)] + [rng.choice((1, -1))])
            start, cls, dichotomy = image_window_classify(f, w)
            if cls is WindowClass.PSEUDO_CONVERGENT:
                assert dichotomy in (
                    ImageDichotomy.INCREASING,
                    ImageDichotomy.EVENTUALLY_CONSTANT,
                )
