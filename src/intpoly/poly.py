"""Univariate polynomials over Q with exact arithmetic, the binomial-basis
transform, the integer-valuedness test, residue images mod p, extended gcd
in Q[X] and exact square roots.

A polynomial f is stored as integer numerators F over one positive
denominator m, f = F/m: F is indexed by degree with no trailing zero (the
zero polynomial is F = () over m = 1) and gcd(m, F...) = 1, so the pair is
unique and equality and hashing compare it directly.  This is the content
and primitive part of Cohen, "A Course in Computational Algebraic Number
Theory", section 3.1; degrees stay small, so the layout is dense.

Arithmetic, `divmod`, the integrality tests and the residue sweep run on
integers; the integrality tests read the values F(0), ..., F(deg f).
Results reduce by one gcd when they are built.  Fractions are
built only where a value leaves the class: `coeffs`, `coefficient`,
`leading_coefficient`, `constant_value`, the value of `__call__` and
`to_binomial_basis`, which divides the integer forward differences by m.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, isqrt, lcm

from .arith import (
    INF,
    DomainError,
    InputParseError,
    require_prime,
    vp_int,
)


class Polynomial:
    """Immutable univariate polynomial over Q, stored as F/m."""

    __slots__ = ("_F", "_m")

    def __new__(cls, coeffs=()):
        cs = tuple(coeffs)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"cannot use {type(c).__name__} as a coefficient")
        m = lcm(*(c.denominator for c in cs))
        return _make([c.numerator * (m // c.denominator) for c in cs], m)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through _make, not __setattr__
        return _make, (list(self._F), self._m)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def constant(cls, value) -> "Polynomial":
        if isinstance(value, (int, Fraction)):
            return _make([value.numerator], value.denominator)
        return cls((Fraction(value),))

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Coefficients as Fractions, ascending, trimmed; built on each access."""
        m = self._m
        return tuple(Fraction(c, m) for c in self._F)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._F) - 1

    @property
    def is_zero(self) -> bool:
        return not self._F

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coefficient(self.degree)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self._F):
            return Fraction(self._F[k], self._m)
        return Fraction(0)

    @property
    def is_constant(self) -> bool:
        return len(self._F) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise DomainError(f"{self} is not constant")
        return self.coefficient(0)

    @property
    def is_integer_constant(self) -> bool:
        return self.is_constant and self._m == 1

    def denominator_lcm(self) -> int:
        """Minimal positive m with m*f having integer coefficients."""
        return self._m

    def has_integer_coeffs(self) -> bool:
        return self._m == 1

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self._F == other._F and self._m == other._m
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash((self._F, self._m))

    def __bool__(self):
        return bool(self._F)

    def __neg__(self):
        return _make([-c for c in self._F], self._m)

    def __add__(self, other):
        other = self._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, den = self._F, other._F, lcm(self._m, other._m)
        u, v = den // self._m, den // other._m
        out = [c * u for c in a] + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] += c * v
        return _make(out, den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._F, other._F
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _make(out, self._m * other._m)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            if scalar == 0:
                raise ZeroDivisionError("division of polynomial by zero scalar")
            d = scalar.denominator
            return _make([c * d for c in self._F], self._m * scalar.numerator)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return Polynomial.one()
        # left to right over the bits of n below the top one
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __divmod__(self, other):
        """(q, r) with self == q*other + r and deg r < deg other: long division
        of the numerators over a scale S that grows only where G's leading
        coefficient a does not divide the window's top entry, not by a^e up front."""
        other = self._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        G, d = other._F, other.degree
        a = G[-1]
        R = list(self._F)
        Q = [0] * max(len(R) - d, 0)
        growth = [1] * len(Q)
        S = 1
        for k in reversed(range(len(Q))):
            R[k] *= S  # the window R[k..k+d] is now all at scale S
            growth[k] = s = abs(a) // gcd(a, R[k + d])
            if s > 1:
                S *= s
                R[k:k + d + 1] = [c * s for c in R[k:k + d + 1]]
            Q[k] = c = R[k + d] // a
            for i in range(d):
                R[k + i] -= c * G[i]
        # Q[k] takes the later steps' growth; f = F/m, g = G/n: q = Q*n/(S*m),
        # with gcd(n, S) divided out first so that _make does not divide it
        # out of every numerator
        common = gcd(other._m, S)
        later = other._m // common
        for k, s in enumerate(growth):
            Q[k] *= later
            later *= s
        return _make(Q, S // common * self._m), _make(R[:d], S * self._m)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "Polynomial") -> bool:
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def __call__(self, x):
        # an int point stays in integers; bool, Fraction and other points,
        # integral or not, take Fraction arithmetic
        if type(x) is not int:
            x = Fraction(x)
        return Fraction(_horner(self._F, x), self._m)

    @staticmethod
    def _as_poly(other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other)
        return NotImplemented

    # -- text --------------------------------------------------------------

    def __str__(self):
        if not self._F:
            return "0"
        m = self._m
        parts = []
        for k in range(self.degree, -1, -1):
            c = self._F[k]
            if c == 0:
                continue
            g = gcd(c, m)
            mag = f"{abs(c) // g}" if g == m else f"{abs(c) // g}/{m // g}"
            if k == 0:
                body = mag
            elif mag == "1":
                body = "X" if k == 1 else f"X^{k}"
            else:
                body = f"{mag}*X" if k == 1 else f"{mag}*X^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" {'+' if c > 0 else '-'} {body}")
        return "".join(parts)

    def __repr__(self):
        return f"Polynomial({str(self)!r})"


def _make(F: list, m: int) -> Polynomial:
    """The polynomial F/m for integers F (ascending) and m != 0, brought to
    the stored form: trailing zeros trimmed, m > 0 and gcd(m, F...) = 1."""
    while F and not F[-1]:
        F.pop()
    g = gcd(m, *F)
    if m < 0:
        g = -g
    if g != 1:
        F = [c // g for c in F]
        m //= g
    f = object.__new__(Polynomial)
    object.__setattr__(f, "_F", tuple(F))
    object.__setattr__(f, "_m", m)
    return f


def _horner(F, x):
    """The integer coefficient list F, ascending, evaluated at x: an int at
    an int point, else a value of x's type."""
    acc = 0
    for c in reversed(F):
        acc = acc * x + c
    return acc


# -- parsing ----------------------------------------------------------------

# the highest degree the parser builds and a separation product may reach:
# building a polynomial and transforming it to the binomial basis takes about
# one second at degree 300 (Python 3.11, 2-core Xeon)
MAX_DEGREE = 300

# the parser keeps every numerator and denominator at most 2^MAX_HEIGHT,
# checked before a power or product is built: at that size `expand`,
# `residues` and `member` on a polynomial of degree 300 take about 1.3 s,
# and the values they print stay below Python's 4,300-digit limit on int
# to str conversion (Python 3.11, 2-core Xeon)
MAX_HEIGHT = 4096

_TOKEN_RE = re.compile(r"\s*(\d+|[Xx]|[()+\-*/^])")


def _tokenize(text: str) -> list[str]:
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise InputParseError(f"bad character in polynomial at {text[pos:]!r}")
        tok = m.group(1)
        tokens.append("X" if tok in ("x", "X") else tok)
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent for sums of products; '/' only by nonzero constants.

    Each rule returns its polynomial with a bound on its `_height`: a
    product, quotient or power adds or multiplies the bounds of its operands
    and is refused above the caps before it is built.  A sum of k terms has
    height at most 2*(sum of theirs) + ceil(log2 k); only when that bound
    passes the cap is the sum's height measured, and a parenthesised sum,
    which may become a factor or a base, is always measured."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        result, _ = self.expr()
        if self.peek() is not None:
            raise InputParseError(f"trailing tokens near {self.peek()!r}")
        return result

    def expr(self) -> tuple:
        result, height = self.term()
        terms = 1
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs, rhs_height = self.term()
            result = result + rhs if op == "+" else result - rhs
            height += rhs_height
            terms += 1
        if terms > 1:
            height = 2 * height + (terms - 1).bit_length()
            if height > MAX_HEIGHT:
                height = _height(result)
                _require_height(height)
        return result, height

    def term(self) -> tuple:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        result, height = self.power()
        while True:
            nxt = self.peek()
            if nxt == "/":
                self.take()
                rhs, rhs_height = self.power()
                if not rhs.is_constant or rhs.is_zero:
                    raise InputParseError("division is only allowed by a nonzero constant")
                height += rhs_height
                _require_height(height)
                result = result / rhs.constant_value()
                continue
            if nxt == "*":
                self.take()
            elif nxt is None or not (nxt == "X" or nxt == "(" or nxt.isdigit()):
                break
            # "*" or an implicit product, e.g. "3X^2" or "X(X-1)"
            rhs, rhs_height = self.power()
            _require_degree(result.degree + rhs.degree)
            height += rhs_height
            _require_height(height)
            result = result * rhs
        return (result if sign == 1 else -result), height

    def power(self) -> tuple:
        base, height = self.atom()
        if self.peek() == "^":
            self.take()
            exp_tok = self.take()
            if exp_tok is None or not exp_tok.isdigit():
                raise InputParseError("exponent must be a non-negative integer")
            exp = int(exp_tok)
            _require_degree(base.degree * exp)
            _require_height(height * exp)
            return base ** exp, height * exp
        return base, height

    def atom(self) -> tuple:
        tok = self.take()
        if tok is None:
            raise InputParseError("unexpected end of polynomial")
        if tok == "(":
            inner, _ = self.expr()
            if self.take() != ")":
                raise InputParseError("unbalanced parentheses")
            return inner, _height(inner)
        if tok == "X":
            return Polynomial.x(), 0
        if tok.isdigit():
            value = int(tok)
            height = (value - 1).bit_length()
            _require_height(height)
            return Polynomial.constant(value), height
        raise InputParseError(f"unexpected token {tok!r}")


def _require_degree(degree: int) -> None:
    """Refuse a parsed polynomial above MAX_DEGREE before it is built."""
    if degree > MAX_DEGREE:
        raise InputParseError(
            f"polynomial of degree {degree} exceeds the cap of degree {MAX_DEGREE}"
        )


def _height(f: Polynomial) -> int:
    """h(f) = a + b for the least a, b with 2^a at least the common
    denominator m of f and 2^b at least the sum of the absolute values of
    the coefficients of m*f.  Every numerator and denominator of f is at
    most 2^h(f), and h(f*g) <= h(f) + h(g)."""
    norm = sum(map(abs, f._F))
    return (f._m - 1).bit_length() + (max(norm, 1) - 1).bit_length()


def _require_height(height: int) -> None:
    """Refuse a parsed polynomial whose height bound exceeds
    MAX_HEIGHT before it is built."""
    if height > MAX_HEIGHT:
        raise InputParseError(
            f"polynomial coefficients of size up to 2^{height} exceed the cap "
            f"of 2^{MAX_HEIGHT}"
        )


def parse_polynomial(text: str) -> Polynomial:
    """Parse e.g. "-3/2*X^5 + X - 7" or "X*(X-1)/2" into a Polynomial; one of
    degree above MAX_DEGREE, or whose height may exceed MAX_HEIGHT, is an
    InputParseError."""
    tokens = _tokenize(text)
    if not tokens:
        raise InputParseError("empty polynomial text")
    try:
        return _Parser(tokens).parse()
    except RecursionError:
        raise InputParseError("polynomial nested too deeply") from None


# -- binomial basis ----------------------------------------------------------


@lru_cache(maxsize=None)
def binomial_poly(k: int) -> Polynomial:
    """The binomial polynomial X(X-1)...(X-k+1)/k!."""
    if k < 0:
        raise ValueError("k must be >= 0")
    result = Polynomial.one()
    for j in range(k):
        result = result * Polynomial((-j, 1))
    return result / factorial(k)


@dataclass(frozen=True)
class BinomialForm:
    """Coefficients c_k of f = sum c_k * C(X, k)."""

    coeffs: tuple

    def to_polynomial(self) -> Polynomial:
        result = Polynomial.zero()
        for k, c in enumerate(self.coeffs):
            if c != 0:
                result = result + binomial_poly(k) * c
        return result

    def __iter__(self):
        return iter(self.coeffs)


def to_binomial_basis(f: Polynomial) -> BinomialForm:
    """Binomial-basis coefficients: F's forward differences at 0, over m."""
    F = f._F
    out = [_horner(F, x) for x in range(len(F))]
    for k in range(1, len(out)):  # out[k:] becomes the k-th differences
        for i in range(len(out) - 1, k - 1, -1):
            out[i] -= out[i - 1]
    return BinomialForm(tuple(Fraction(c, f._m) for c in out))


def from_binomial_basis(coeffs) -> Polynomial:
    return BinomialForm(tuple(Fraction(c) for c in coeffs)).to_polynomial()


def _divides_values(F, m: int) -> bool:
    """Whether m divides F(0), ..., F(len F - 1), stopping at the first value
    it does not divide: for F of degree below len F, whether F/m is
    integer-valued (Polya).  Horner is inline because a call per point
    costs the search more calls than the early stop saves."""
    top = F[::-1]
    for x in range(len(F)):
        acc = 0
        for c in top:
            acc = acc * x + c
        if acc % m:
            return False
    return True


def is_int_valued(f: Polynomial) -> bool:
    """Whether f maps Z into Z: m divides F(0), ..., F(deg f)."""
    return f._m == 1 or _divides_values(f._F, f._m)


def residue_period_exp(f: Polynomial, p: int) -> int:
    """Exponent N such that f(x) mod p depends only on x mod p^N.

    N = min(1 + v_p(m), L) with m the common denominator of f and L the
    number of base-p digits of deg f (0 for a constant).  Writing f = F/m
    with F integral, f(x + p^N t) - f(x) has valuation >= N - v_p(m), which
    gives the first bound for every f.  The second holds when every binomial
    coefficient of f is p-integral: C(x, k) mod p only reads the lowest L
    base-p digits of x for k <= deg f (Lucas).
    """
    digits = 0
    q = 1
    while q <= f.degree:
        q *= p
        digits += 1
    return min(1 + vp_int(f.denominator_lcm(), p), digits)


def _binomial_valuation(f: Polynomial, p: int):
    """The least v_p of f on Z, INF for f = 0: min v_p(F(x)) - v_p(m) over
    x = 0 .. deg f.  These values and the binomial coefficients of F are
    integer combinations of each other (Polya), so it is also the least v_p
    of the binomial coefficients of f.  The prime is not checked."""
    F = f._F
    values = [vp_int(c, p) for c in [_horner(F, x) for x in range(len(F))] if c]
    return min(values) - vp_int(f._m, p) if values else INF


# the most residue classes one sweep may visit: at up to 3 us a class and
# entry of degree 30 (Python 3.11, 2-core Xeon), under 0.5 s an entry
MAX_RESIDUE_CLASSES = 10**5


def residue_image(f: Polynomial, p: int) -> frozenset:
    """The set { f(x) mod p : x in Z }, swept on integers over one period.

    Requires every binomial coefficient of f to be p-integral; the period
    is p^residue_period_exp(f, p), at most MAX_RESIDUE_CLASSES.
    """
    require_prime(p)
    if _binomial_valuation(f, p) < 0:
        raise DomainError(f"{f} is not p-integrally valued at p={p}")
    return frozenset(_residue_sweep(f, p, residue_period_exp(f, p)))


def _residue_sweep(f: Polynomial, p: int, exp: int) -> list:
    """f(x) mod p for x = 0 .. p^exp - 1, at most MAX_RESIDUE_CLASSES, as
    (F(x)/p^v) * (m/p^v)^-1 mod p with v = v_p(m), from F mod p^(v+1).  p
    prime and f p-integral on Z are the caller's to ensure."""
    if p ** exp > MAX_RESIDUE_CLASSES:
        raise DomainError(
            f"sweeping {p}^{exp} residue classes exceeds the cap of "
            f"{MAX_RESIDUE_CLASSES} classes"
        )
    unit = p ** vp_int(f._m, p)
    modulus = unit * p
    F = [c % modulus for c in f._F]
    inverse = pow(f._m // unit, -1, p)
    return [_horner(F, x) % modulus // unit * inverse % p for x in range(p ** exp)]


# -- gcd and square roots in Q[X] --------------------------------------------


def bezout_gcd_qx(f: Polynomial, g: Polynomial):
    """Monic gcd h of f, g in Q[X] with multipliers: u*f + v*g = h exactly."""
    if f.is_zero and g.is_zero:
        raise DomainError("gcd of two zero polynomials is undefined")
    r0, r1 = f, g
    s0, s1 = Polynomial.one(), Polynomial.zero()
    while not r1.is_zero:
        q, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - q * s1
    lc = r0.leading_coefficient
    h, u = r0 / lc, s0 / lc
    # v follows from u by one exact division, which costs less than
    # carrying its own cofactor sequence through every step
    return h, u, (h - u * f) // g if g else Polynomial.zero()


def bezout_gcd_many(polys):
    """Monic gcd of several polynomials with one multiplier per input.

    Zero entries get a zero multiplier.  Returns (h, multipliers) with
    sum(multipliers[i] * polys[i]) == h.
    """
    polys = list(polys)
    if all(q.is_zero for q in polys):
        raise DomainError("gcd of all-zero family is undefined")
    h = Polynomial.zero()
    mults = []
    for q in polys:
        if q.is_zero:
            mults.append(Polynomial.zero())
            continue
        # at the first nonzero q, h = 0 and this gives (q/lc, 0, 1/lc)
        h, a, b = bezout_gcd_qx(h, q)
        mults = [a * m for m in mults]
        mults.append(b)
    return h, mults


def _int_sqrt(h: list):
    """Square root of an integer coefficient list (ascending, trimmed): the
    list g with g*g == h and a positive leading coefficient, or None.

    By Gauss's lemma a square root in Q[X] of a polynomial in Z[X] lies in
    Z[X], so every step of the coefficient recurrence must divide exactly.
    """
    if not h:
        return []
    if len(h) % 2 == 0 or h[-1] < 0:
        return None
    r = isqrt(h[-1])
    if r * r != h[-1]:
        return None
    n = len(h) // 2
    g = [0] * (n + 1)
    g[n] = r
    for k in range(n - 1, -1, -1):
        acc = h[n + k]
        for i in range(k + 1, n):
            acc -= g[i] * g[n + k - i]
        g[k], rem = divmod(acc, 2 * r)
        if rem:
            return None
    square = [0] * len(h)
    for i, a in enumerate(g):
        for j, b in enumerate(g):
            square[i + j] += a * b
    return g if square == h else None


def poly_sqrt(h: Polynomial):
    """Exact g with g*g == h and positive leading coefficient, else None.

    With h = F/m, h*m^2 = F*m lies in Z[X] and its
    root, if any, is m*g; so the integer recurrence serves rational h too.
    """
    m = h._m
    g = _int_sqrt([c * m for c in h._F])
    return None if g is None else _make(g, m)
