"""The benchmark's own exact arithmetic, written apart from `intpoly`.

Every answer the benchmark receives from the program is checked with these
helpers.  Polynomials are tuples of `Fraction` coefficients in ascending
degree with trailing zeros trimmed; integer sweeps work on the integer
numerator F = m*f.  Nothing here imports `intpoly`.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

INF = float("inf")


class Mismatch(AssertionError):
    """An answer of the program disagrees with the independent computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# -- valuations -----------------------------------------------------------------


def vp_int(n: int, p: int):
    if n == 0:
        return INF
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_q(q, p: int):
    q = Fraction(q)
    if q == 0:
        return INF
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


def vp_factorial(k: int, p: int) -> int:
    """v_p(k!) by multiplying out k! (no digit-sum shortcut)."""
    n = 1
    for i in range(2, k + 1):
        n *= i
    return vp_int(n, p)


def prime_divisors(n: int) -> list:
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_square_int(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


# -- dense polynomials over Q ---------------------------------------------------


def trim(cs) -> tuple:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def padd(a, b) -> tuple:
    n = max(len(a), len(b))
    return trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def pscale(a, c) -> tuple:
    return trim(x * c for x in a)


def psub(a, b) -> tuple:
    return padd(a, pscale(b, -1))


def pmul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def pdivmod(a, b):
    """Quotient and remainder over Q (b nonzero)."""
    rem = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(rem) >= len(b) and rem:
        k = len(rem) - len(b)
        factor = rem[-1] / b[-1]
        q[k] = factor
        for i, c in enumerate(b):
            rem[k + i] -= factor * c
        rem = list(trim(rem))
    return trim(q), trim(rem)


def pgcd(a, b) -> tuple:
    """Monic gcd over Q (empty tuple when both are zero)."""
    while b:
        a, b = b, pdivmod(a, b)[1]
    if not a:
        return ()
    return pscale(a, 1 / a[-1])


def peval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def deg(a) -> int:
    return len(a) - 1


def den_lcm(a) -> int:
    m = 1
    for c in a:
        m = lcm(m, c.denominator)
    return m


def int_numerator(a):
    """(F, m) with a = F/m, F integral and m the least common denominator."""
    m = den_lcm(a)
    return [int(c * m) for c in a], m


def eval_int(F, x: int) -> int:
    acc = 0
    for c in reversed(F):
        acc = acc * x + c
    return acc


def eval_mod(F, x: int, mod: int) -> int:
    acc = 0
    for c in reversed(F):
        acc = (acc * x + c) % mod
    return acc


def is_int_valued(a) -> bool:
    """A polynomial of degree d maps Z into Z iff it does so on 0..d."""
    return all(peval(a, x).denominator == 1 for x in range(max(len(a), 1)))


def binomial(k: int) -> tuple:
    out = (Fraction(1),)
    for j in range(k):
        out = pmul(out, (Fraction(-j), Fraction(1)))
    fact = 1
    for j in range(2, k + 1):
        fact *= j
    return pscale(out, Fraction(1, fact))


def den_period_exp(a, p: int) -> int:
    """1 + v_p(m): f mod p is constant on classes mod p^(1 + v_p(m))."""
    return 1 + vp_int(den_lcm(a), p)


def period_exp(a, p: int) -> int:
    """min(1 + v_p(m), number of base-p digits of deg f): the exponent at
    which f mod p is known to be periodic (Lucas for the digit bound)."""
    d = deg(a)
    digits = 0
    q = 1
    while q <= d:
        q *= p
        digits += 1
    return min(den_period_exp(a, p), digits)


def residue_mod_p(F, m: int, p: int, x: int) -> int:
    """f(x) mod p for f = F/m, p-integral at x."""
    v = vp_int(m, p)
    top = eval_mod(F, x, p ** (v + 1))
    expect(top % p ** v == 0, f"value at {x} is not p-integral at p={p}")
    unit = m // p ** v
    return (top // p ** v) * pow(unit, -1, p) % p


def value_set_mod_p(a, p: int) -> set:
    """{ f(x) mod p : x in Z } by an integer sweep over the full
    denominator-bound period p^(1 + v_p(m))."""
    F, m = int_numerator(a)
    return {residue_mod_p(F, m, p, x) for x in range(p ** den_period_exp(a, p))}


def all_values_valuation_at_least(a, p: int, k: int) -> bool:
    """Whether v_p(f(x)) >= k for every integer x (k in {0, 1})."""
    F, m = int_numerator(a)
    need = vp_int(m, p) + k
    mod = p ** need
    if mod == 1:
        return True
    return all(eval_mod(F, x, mod) == 0 for x in range(p ** den_period_exp(a, p)))


# -- text ------------------------------------------------------------------------


def fmt_poly(a) -> str:
    """Render as a user types it, e.g. "3/2*X^2 - X + 1/6"."""
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            mono = "X" if k == 1 else f"X^{k}"
            body = mono if mag == 1 else f"{mag}*{mono}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


def parse_out_poly(text: str) -> tuple:
    """Parse the program's printed form: terms "c", "X", "X^k", "c*X", "c*X^k"
    joined by " + " / " - ", the first possibly led by "-"."""
    text = text.strip()
    if text == "0":
        return ()
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:]
    out: dict = {}
    for token in text.replace(" - ", " + -").split(" + "):
        s = sign
        sign = 1
        if token.startswith("-"):
            s = -1
            token = token[1:]
        coef_text, star, mono = token.rpartition("*")
        if not star:
            coef_text, mono = ("", token) if "X" in token else (token, "")
        coef = Fraction(coef_text) if coef_text else Fraction(1)
        if not mono:
            k = 0
        elif mono == "X":
            k = 1
        else:
            expect(mono.startswith("X^"), f"bad monomial {mono!r}")
            k = int(mono[2:])
        expect(k not in out, f"repeated degree {k} in {text!r}")
        out[k] = s * coef
    top = max(out)
    return trim(out.get(k, 0) for k in range(top + 1))


# -- sequences -------------------------------------------------------------------


def triple_class(points, p: int) -> str:
    """Class of a window from the triple conditions over all l < m < n."""
    conv = div = stat = True
    for l in range(len(points)):
        for m in range(l + 1, len(points)):
            right = vp_q(points[m] - points[l], p)
            for n in range(m + 1, len(points)):
                left = vp_q(points[n] - points[m], p)
                conv = conv and left > right
                div = div and left < right
                stat = stat and left == right
    if conv:
        return "pseudo_convergent"
    if div:
        return "pseudo_divergent"
    if stat:
        return "pseudo_stationary"
    return "none"


# -- integer matrices ------------------------------------------------------------


def matmul(A, B) -> list:
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def det_int(M) -> int:
    """Determinant by cofactor expansion (matrices here are at most 4x4)."""
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        if M[0][j]:
            minor = [row[:j] + row[j + 1:] for row in M[1:]]
            total += (-1) ** j * M[0][j] * det_int(minor)
    return total


# -- unit content ----------------------------------------------------------------


def resultant(a, b) -> Fraction:
    """Resultant of two nonzero polynomials by Gaussian elimination on the
    Sylvester matrix (1 when both are constant)."""
    m, n = deg(a), deg(b)
    if m == 0 and n == 0:
        return Fraction(1)
    size = m + n
    rows = []
    for i in range(n):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(a)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(b)):
            row[i + j] = c
        rows.append(row)
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def common_zero_class(entries, p: int):
    """A class alpha mod p^E (E the largest denominator-bound period exponent)
    on which every entry has positive valuation, or None."""
    E = max(den_period_exp(e, p) for e in entries)
    forms = [int_numerator(e) for e in entries]
    for alpha in range(p ** E):
        if all(residue_mod_p(F, m, p, alpha) == 0 for F, m in forms):
            return alpha
    return None


def unit_content(entries, known_integer: int | None = None) -> bool:
    """Whether integer-valued polynomials generate the unit ideal of Int(Z).

    A nonconstant gcd over Q is a common prime above 0.  Otherwise a nonzero
    integer lies in the ideal (the given one, or the resultant of the integer
    numerators of two coprime entries), and only its prime divisors can host
    a common maximal ideal; those are swept class by class.
    """
    nonzero = [e for e in entries if e]
    expect(bool(nonzero), "content of the zero family")
    g = ()
    for e in nonzero:
        g = pgcd(g, e)
    if deg(g) >= 1:
        return False
    c = known_integer
    if c is None:
        c = next((int(e[0]) for e in nonzero if deg(e) == 0), None)
    if c is None:
        numerators = [tuple(Fraction(x) for x in int_numerator(e)[0]) for e in nonzero]
        c = next(
            (
                int(r)
                for i, a in enumerate(numerators)
                for b in numerators[i + 1:]
                if (r := resultant(a, b)) != 0
            ),
            None,
        )
    expect(c is not None and c != 0, "no integer found in the ideal")
    return all(common_zero_class(nonzero, p) is None for p in prime_divisors(c))


# -- operations ------------------------------------------------------------------


class Op:
    """One benchmark operation: `call()` runs the program and returns its
    answer; `check(answer)` returns True for a correct answer and False when
    the program gave no answer (a failed operation), and raises Mismatch on a
    wrong one; `alter(answer)` returns a wrong answer of the same shape, for
    the checker self-test."""

    __slots__ = ("kind", "call", "check", "alter")

    def __init__(self, kind, call, check, alter):
        self.kind = kind
        self.call = call
        self.check = check
        self.alter = alter
