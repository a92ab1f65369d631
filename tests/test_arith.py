import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from intpoly import INF, DomainError, PAdicResidue, ext_gcd, padic_residue, vp
from intpoly.arith import PRIMALITY_BOUND, is_prime, require_prime, vp_int

from oracles import int_valuation

nonzero_rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=1000
).filter(lambda q: q != 0)
small_primes = st.sampled_from([2, 3, 5, 7, 11])


def test_vp_examples():
    assert vp(12, 2) == 2
    assert vp(0, 5) is INF
    assert vp(Fraction(9, 10), 5) == -1


def test_vp_int_matches_the_one_step_loop():
    # every exponent across the one-at-a-time steps and the squares, seeded
    # exponents up to 5,000, and the window i * 2^200
    rng = random.Random(5000)
    cases = [(p, k) for p in (2, 3, 1000003) for k in range(70)]
    cases += [(rng.choice((2, 3, 5, 7, 1000003)), rng.randint(0, 5000)) for _ in range(40)]
    cases += [(2, 5000), (3, 4999)]
    for p, k in cases:
        n = rng.choice((1, -1)) * p**k * rng.randint(1, 10**12)
        assert vp_int(n, p) == int_valuation(n, p), (p, k)
    for i in range(1, 1601):
        assert vp_int(i * 2**200, 2) == 200 + int_valuation(i, 2)
    with pytest.raises(ValueError):
        vp_int(0, 2)


def test_vp_rejects_composite():
    with pytest.raises(DomainError):
        vp(12, 6)
    with pytest.raises(DomainError):
        vp(12, 1)


def test_infinity_ordering():
    assert INF > 10**100
    assert not INF < 0
    assert INF >= INF
    assert INF == INF
    assert min(INF, 3) == 3


@given(nonzero_rationals, nonzero_rationals, small_primes)
def test_vp_multiplicative(x, y, p):
    assert vp(x * y, p) == vp(x, p) + vp(y, p)


@given(nonzero_rationals, nonzero_rationals, small_primes)
def test_vp_ultrametric(x, y, p):
    if x + y == 0:
        return
    vx, vy = vp(x, p), vp(y, p)
    assert vp(x + y, p) >= min(vx, vy)
    if vx != vy:
        assert vp(x + y, p) == min(vx, vy)


def test_ext_gcd_examples():
    assert ext_gcd(2, 3) == (1, -1, 1)
    g, u, v = ext_gcd(240, 46)
    assert g == 2 and 240 * u + 46 * v == 2
    assert ext_gcd(0, 7) == (7, 0, 1)


def test_ext_gcd_rejects_double_zero():
    with pytest.raises(DomainError):
        ext_gcd(0, 0)


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_ext_gcd_identity(a, b):
    if a == 0 and b == 0:
        return
    g, u, v = ext_gcd(a, b)
    assert g > 0
    assert u * a + v * b == g
    assert a % g == 0 and b % g == 0


def test_padic_residue_examples():
    assert padic_residue(7, 2, 3).value == 7
    assert padic_residue(Fraction(1, 3), 2, 3).value == 3
    with pytest.raises(DomainError):
        padic_residue(Fraction(1, 2), 2, 3)


@given(
    st.fractions(min_value=-500, max_value=500, max_denominator=99),
    st.sampled_from([2, 3, 5]),
    st.integers(1, 6),
    st.integers(1, 6),
)
def test_padic_residue_truncation_compatible(x, p, n_small, extra):
    if x != 0 and vp(x, p) < 0:
        return
    n_big = n_small + extra
    big = padic_residue(x, p, n_big)
    small = padic_residue(x, p, n_small)
    assert big.reduce(n_small) == small


def test_residue_invariants_and_printing():
    r = PAdicResidue(3, 7, 2)
    assert str(r) == "7 mod 3^2"
    with pytest.raises(DomainError):
        PAdicResidue(3, 9, 2)
    with pytest.raises(DomainError):
        PAdicResidue(4, 1, 2)
    with pytest.raises(DomainError):
        r.reduce(5)


# Carmichael numbers, then the least strong pseudoprimes to the first 4, 5,
# 6, 8, 11 and 12 prime bases, which fool Miller-Rabin on a shorter list of
# bases
PSEUDOPRIMES = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    5394826801, 232250619601, 9746347772161,
    3215031751, 2152302898747, 3474749660383, 341550071728321,
    3825123056546413051, 318665857834031151167461,
)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    below = list(range(-3, 5000))
    spread = [rng.randrange(2, 10 ** rng.randrange(4, 25)) for _ in range(3000)]
    primes = [sympy.nextprime(rng.randrange(PRIMALITY_BOUND // 2)) for _ in range(50)]
    primes.append(sympy.prevprime(PRIMALITY_BOUND))
    semiprimes = [sympy.nextprime(10**11 + i) * sympy.nextprime(10**12 + i) for i in range(50)]
    for n in below + spread + primes + semiprimes + list(PSEUDOPRIMES):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_decides_small_p_by_division(monkeypatch):
    # below 41^2 a number prime to the 13 bases is prime: no power is taken
    def no_pow(*args):
        raise AssertionError("pow called")

    monkeypatch.setattr("builtins.pow", no_pow)
    assert [p for p in range(41 * 41) if is_prime(p)][-3:] == [1663, 1667, 1669]


def test_primality_bound():
    # psi_13 itself is a strong pseudoprime to all 13 bases
    for n in (PRIMALITY_BOUND, 10**30 + 57):
        with pytest.raises(DomainError, match=f"not below {PRIMALITY_BOUND}"):
            require_prime(n)
    # a factor among the bases decides any size
    assert not is_prime(2 * 10**30)
    assert not is_prime(41 * 10**40)
