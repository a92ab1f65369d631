"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: the ordering oracle
works from the definition by set-level search, the window oracle checks the
triple conditions directly, the content oracle sweeps small primes with
integer arithmetic and decides common divisors through a resultant, and the
subset-product bound re-derives step minima from pair valuations.

`ReferencePolynomial` is the library's earlier `Polynomial`, a tuple of
`Fraction`s that does every sum, negation, scalar division, product, long
division, evaluation and binomial transform, and its text, in `Fraction`
arithmetic; the integer numerators over one denominator of the current class
must agree with it.  The earlier `regular_basis` (one division per factor)
and the earlier content sweep (one `Fraction` valuation per entry and
class) are kept beside it.

The reference kernels at the end are the library's earlier `v_ordering`,
`expand_in_basis`, `bounded_search`, `reduce_relation`,
`image_window_classify` and membership over all integers: the first two
recompute every candidate's whole difference product at each step and build
every basis polynomial, the search builds every candidate pair's
polynomials and certificate attempt, the relation is computed with
`Polynomial` operators, the image classification classifies every suffix of
the image in turn, and the membership test sweeps the residues of f for the
maximal-ideal layer.  The faster kernels must give the same results.  The
integer matrix helpers check Smith normal form transforms.

`ReferenceParser` is the library's earlier polynomial parser, which builds a
`Polynomial` for every atom, power, quotient, product and partial sum; the
integer parser must give the same polynomial, or the same exception and
message.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd

from intpoly import (
    INF,
    DomainError,
    Polynomial,
    SolutionFailure,
    VOrdering,
    factorial_valuation,
    poly_sqrt,
    recover_solution,
    reduce_relation,
    regular_basis,
    residue_image,
    to_binomial_basis,
    vp,
)
from intpoly.arith import InputParseError, require_prime
from intpoly.poly import (
    MAX_HEIGHT,
    _height,
    _require_degree,
    _require_height,
    _tokenize,
)


def int_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero requested")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def frac_valuation(q: Fraction, p: int) -> int:
    q = Fraction(q)
    if q == 0:
        raise ValueError("valuation of zero requested")
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


def _pair_valuations(points, p: int):
    n = len(points)
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                d[i][j] = frac_valuation(Fraction(points[i]) - Fraction(points[j]), p)
    return d


def brute_force_w(points, p: int) -> list:
    """Step minima over every ordering that follows the defining rule.

    Explores, level by level, every set of points reachable by repeatedly
    choosing a minimizer of the difference-product valuation; asserts that
    the step minimum is the same across all reachable sets of each size
    (ordering independence observed by brute force) and returns the w list.
    """
    n = len(points)
    d = _pair_valuations(points, p)
    w = [0]
    level = {frozenset([i]) for i in range(n)}
    for _ in range(1, n):
        step_values = set()
        next_level = set()
        for chosen in level:
            best = None
            minimizers = []
            for x in range(n):
                if x in chosen:
                    continue
                val = sum(d[x][a] for a in chosen)
                if best is None or val < best:
                    best = val
                    minimizers = [x]
                elif val == best:
                    minimizers.append(x)
            step_values.add(best)
            for x in minimizers:
                next_level.add(chosen | {x})
        assert len(step_values) == 1, f"step minimum not unique: {step_values}"
        w.append(step_values.pop())
        level = next_level
    return w


def pairwise_product_minima(points, p: int) -> list:
    """minima[k] = min over (k+1)-subsets of the summed pair valuations.

    Equals w[1] + ... + w[k] by the divisibility of difference products by
    the generalized factorials; an oracle for cumulative step minima.
    """
    n = len(points)
    d = _pair_valuations(points, p)
    out = [0]
    for k in range(1, n):
        best = None
        for sub in combinations(range(n), k + 1):
            tot = sum(d[i][j] for i, j in combinations(sub, 2))
            if best is None or tot < best:
                best = tot
        out.append(best)
    return out


def classify_triples(points, p: int) -> str:
    """Direct check of the three triple conditions; returns the class tag."""
    pts = [Fraction(x) for x in points]
    conv = div = stat = True
    for l in range(len(pts)):
        for m in range(l + 1, len(pts)):
            for n in range(m + 1, len(pts)):
                left = frac_valuation(pts[n] - pts[m], p)
                right = frac_valuation(pts[m] - pts[l], p)
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


# -- content oracle -------------------------------------------------------------

ORACLE_PRIMES = (2, 3, 5, 7, 11, 13)


def _sylvester_det(f_coeffs, g_coeffs) -> Fraction:
    """Resultant via Gaussian elimination on the Sylvester matrix."""
    m = len(f_coeffs) - 1
    n = len(g_coeffs) - 1
    size = m + n
    rows = []
    for i in range(n):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(f_coeffs)):
            row[i + j] = Fraction(c)
        rows.append(row)
    for i in range(m):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(g_coeffs)):
            row[i + j] = Fraction(c)
        rows.append(row)
    det = Fraction(1)
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def has_nonconstant_common_divisor(f_coeffs, g_coeffs) -> bool:
    """Whether two integer polynomials share a nonconstant factor over Q."""
    f = list(f_coeffs)
    g = list(g_coeffs)
    while f and f[-1] == 0:
        f.pop()
    while g and g[-1] == 0:
        g.pop()
    if not f and not g:
        raise ValueError("both polynomials are zero")
    if not f:
        return len(g) - 1 >= 1
    if not g:
        return len(f) - 1 >= 1
    if len(f) == 1 or len(g) == 1:
        return False
    return _sylvester_det(f, g) == 0


def _int_poly_eval_mod(coeffs, x: int, mod: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % mod
    return acc


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n|, ascending (n != 0)."""
    if n == 0:
        raise ValueError("prime_factors(0) is undefined")
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def content_oracle_unit(f_coeffs, g_coeffs) -> bool:
    """Exhaustive small-prime residue search plus the common-divisor check.

    Sound and complete whenever every prime that could host a common maximal
    ideal is at most 13 (the caller constrains its samples accordingly).
    """
    if has_nonconstant_common_divisor(f_coeffs, g_coeffs):
        return False
    for p in ORACLE_PRIMES:
        cube = p ** 3
        for alpha in range(cube):
            fv = _int_poly_eval_mod(f_coeffs, alpha, p)
            gv = _int_poly_eval_mod(g_coeffs, alpha, p)
            if fv == 0 and gv == 0:
                return False
    return True


# -- integer matrices -----------------------------------------------------------


def int_mat_mul(A, B) -> tuple:
    rows, inner, cols = len(A), len(B), len(B[0])
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(inner)) for j in range(cols))
        for i in range(rows)
    )


def int_det(M) -> int:
    """Exact integer determinant (fraction-free elimination)."""
    n = len(M)
    if any(len(r) != n for r in M):
        raise DomainError("determinant needs a square matrix")
    A = [list(r) for r in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


# -- reference kernels ----------------------------------------------------------


def reference_step_valuation(x: Fraction, chosen, p: int):
    total = 0
    for a in chosen:
        v = vp(x - a, p)
        if v is INF:
            return INF
        total += v
    return total


def reference_v_ordering(E, n: int, p: int, tie_break: str = "min") -> VOrdering:
    """Greedy ordering scoring every candidate against all chosen points."""
    require_prime(p)
    if n < 0:
        raise DomainError("ordering length must be >= 1 (n >= 0)")
    if tie_break not in ("min", "max"):
        raise DomainError(f"unknown tie_break {tie_break!r}")
    if not E.is_finite:
        points = tuple(Fraction(k) for k in range(n + 1))
        w = tuple(factorial_valuation(k, p) for k in range(n + 1))
        return VOrdering(E, p, points, w)

    E.require_p_integral(p)
    if len(E.points) < n + 1:
        raise DomainError(
            f"set of size {len(E.points)} cannot host an ordering of length {n + 1}"
        )
    order_key = (lambda x: (x.numerator, x.denominator))
    remaining = sorted(E.points, key=order_key)
    if tie_break == "max":
        remaining.reverse()
    chosen = [remaining.pop(0)]
    w = [0]
    for _ in range(n):
        best_val = None
        best_x = None
        best_i = None
        for i, x in enumerate(remaining):
            val = reference_step_valuation(x, chosen, p)
            if best_val is None or val < best_val:
                best_val, best_x, best_i = val, x, i
        chosen.append(best_x)
        w.append(best_val)
        remaining.pop(best_i)
    return VOrdering(E, p, tuple(chosen), tuple(w))


def reference_expand_in_basis(f, vord: VOrdering) -> list:
    """c_k = f(a_k) - sum_{h<k} c_h f_h(a_k), with every f_h built."""
    n = vord.last_index
    if f.degree > n:
        raise DomainError(
            f"degree {f.degree} exceeds ordering length (need deg <= {n})"
        )
    coeffs = []
    bases = [regular_basis(vord, h) for h in range(n + 1)]
    for k in range(n + 1):
        a_k = vord.points[k]
        value = f(a_k)
        for h in range(k):
            value -= coeffs[h] * bases[h](a_k)
        coeffs.append(value)
    return coeffs


def reference_int_membership_all_integers(f, p: int, maximal: bool) -> bool:
    """The earlier membership test over Z: every binomial coefficient of f
    p-integral, and for the maximal-ideal layer a residue image of {0}.  The
    sweep refuses a period of more than poly.MAX_RESIDUE_CLASSES classes."""
    if any(vp(c, p) < 0 for c in to_binomial_basis(f).coeffs):
        return False
    return not maximal or residue_image(f, p) == {0}


def _exact_degree_candidates(deg, height: int):
    """Integer polynomials with the given exact degree and coefficients in
    [-height, height]; deg None stands for the zero polynomial."""
    if deg is None:
        yield Polynomial.zero()
        return
    span = range(-height, height + 1)
    lead_span = [c for c in span if c != 0]
    for lower in product(span, repeat=deg):
        for lead in lead_span:
            yield Polynomial(tuple(lower) + (lead,))


def _pair_height(beta, gamma) -> int:
    coeffs = list(beta.coeffs) + list(gamma.coeffs)
    return max((abs(c.numerator) for c in coeffs), default=0)


def reference_visited_pairs(max_deg: int, max_height: int):
    """(beta, gamma) Polynomials in the search's visit order: every box
    re-enumerated at every height, pairs off the height shell skipped."""
    classes = [None] + list(range(max_deg + 1))
    for deg_b in classes:
        for deg_g in classes:
            heights = [0] if (deg_b is None and deg_g is None) else range(
                1, max_height + 1
            )
            for h in heights:
                for beta in _exact_degree_candidates(deg_b, h):
                    for gamma in _exact_degree_candidates(deg_g, h):
                        if _pair_height(beta, gamma) == h:
                            yield beta, gamma


def reference_bounded_search(max_deg: int, max_height: int, budget: int) -> list:
    """The search on Polynomials: poly_sqrt on each visited pair's
    discriminant and recover_solution for both signs."""
    if max_deg < 0 or max_height < 1:
        raise DomainError("bounds must be positive")
    results = []
    seen = 0
    for beta, gamma in reference_visited_pairs(max_deg, max_height):
        if seen >= budget:
            return results
        seen += 1
        _, disc = reduce_relation(beta, gamma)
        g = poly_sqrt(disc)
        if g is None:
            continue
        for sign in (1, -1):
            try:
                results.append(recover_solution(beta, gamma, g, sign))
                break
            except SolutionFailure:
                continue
    return results


def reference_reduce_relation(beta, gamma):
    """f = (X+1)*beta + X*gamma - 1 and f^2 - 24*beta*gamma with Polynomial
    operators, for beta and gamma whose reference binomial coefficients are
    all integers."""
    for name, q in (("beta", beta), ("gamma", gamma)):
        if any(c.denominator != 1 for c in reference_to_binomial_basis(ReferencePolynomial(q.coeffs))):
            raise DomainError(f"{name} = {q} is not integer-valued")
    X = Polynomial.x()
    f = (X + 1) * beta + X * gamma - 1
    return f, f * f - 24 * beta * gamma


def reference_image_window_classify(f, points, p: int) -> tuple:
    """(suffix start, class, dichotomy) as strings: the first suffix of at
    least three pairwise-distinct image points that the triple oracle calls
    pseudo-convergent, tried from the start one by one, and the tail
    behavior of the image valuations on it."""
    images = [Fraction(f(x)) for x in points]
    for start in range(len(images) - 2):
        tail = images[start:]
        if len(set(tail)) != len(tail) or classify_triples(tail, p) != "pseudo_convergent":
            continue
        vals = [frac_valuation(y, p) if y else INF for y in tail]
        if all(a < b for a, b in zip(vals, vals[1:])):
            dichotomy = "increasing"
        elif vals[-1] == vals[-2] and vals[-1] is not INF:
            dichotomy = "eventually_constant"
        else:
            dichotomy = "undetermined"
        return start, "pseudo_convergent", dichotomy
    return len(images), "none", "undetermined"


# -- the Fraction-arithmetic polynomial -------------------------------------------


class ReferencePolynomial:
    """The earlier `Polynomial`: a tuple of Fractions, trailing zeros trimmed,
    with Fraction sums, quotients, products and Fraction Horner at every
    point."""

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def denominator_lcm(self) -> int:
        m = 1
        for c in self.coeffs:
            m = m * c.denominator // gcd(m, c.denominator)
        return m

    def __neg__(self):
        return ReferencePolynomial(-c for c in self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ReferencePolynomial(out)

    def __truediv__(self, scalar):
        return ReferencePolynomial(c / Fraction(scalar) for c in self.coeffs)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ReferencePolynomial()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return ReferencePolynomial(out)

    def __divmod__(self, other):
        """Long division in Fractions, one quotient coefficient per step."""
        d = other.degree
        divisor = other.coeffs
        lc = divisor[-1]
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - d, 0)
        for k in reversed(range(len(q))):
            q[k] = factor = rem[k + d] / lc
            for i, c in enumerate(divisor):
                rem[k + i] -= factor * c
        return ReferencePolynomial(q), ReferencePolynomial(rem[:d])

    def __call__(self, x):
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if k == 0:
                body = str(mag)
            elif mag == 1:
                body = "X" if k == 1 else f"X^{k}"
            else:
                body = f"{mag}*X" if k == 1 else f"{mag}*X^{k}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)


def reference_to_binomial_basis(f: ReferencePolynomial) -> tuple:
    """Binomial-basis coefficients from Fraction values at 0..deg f."""
    work = [f(x) for x in range(f.degree + 1)]
    coeffs = []
    while work:
        coeffs.append(work[0])
        work = [work[i + 1] - work[i] for i in range(len(work) - 1)]
    return tuple(coeffs)


def reference_residue_image(f: ReferencePolynomial, p: int) -> frozenset:
    """{ f(x) mod p } over the period p^N, N = min(1 + v_p(m), the number of
    base-p digits of deg f), for f with p-integral binomial coefficients."""
    require_prime(p)
    if any(c and frac_valuation(c, p) < 0 for c in reference_to_binomial_basis(f)):
        raise DomainError(f"not p-integrally valued at p={p}")
    digits = 0
    while p ** digits <= f.degree:
        digits += 1
    exp = min(1 + int_valuation(f.denominator_lcm(), p), digits)
    values = (f(x) for x in range(p ** exp))
    return frozenset(v.numerator * pow(v.denominator, -1, p) % p for v in values)


def reference_regular_basis(vord: VOrdering, k: int) -> ReferencePolynomial:
    """prod_{j<k} (X - a_j)/(a_k - a_j), one product and one division per
    factor."""
    result = ReferencePolynomial((1,))
    a_k = vord.points[k]
    for j in range(k):
        a_j = vord.points[j]
        result = result * ReferencePolynomial((-a_j, 1)) / (a_k - a_j)
    return result


def reference_content_sweep(entries, p: int, exp: int):
    """The coverage table of the classes 0 .. p^exp - 1, each mapped to the
    first entry that is a p-unit there, and the first class where none is
    (None when every class is covered), from Fraction values of the
    integer-valued entries, each given by its coefficients."""
    entries = [ReferencePolynomial(coeffs) for coeffs in entries]
    table = {}
    for alpha in range(p ** exp):
        values = [e(alpha) for e in entries]
        units = [i for i, v in enumerate(values) if v and frac_valuation(v, p) == 0]
        if not units:
            return table, alpha
        table[alpha] = units[0]
    return table, None


# -- the Polynomial-building parser ------------------------------------------------


class ReferenceParser:
    """The earlier parser: recursive descent that builds a `Polynomial` for
    every atom, power, quotient, product and partial sum.

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


def reference_parse_polynomial(text: str) -> Polynomial:
    """`parse_polynomial` through `ReferenceParser`: the same tokens, caps
    and messages."""
    tokens = _tokenize(text)
    if not tokens:
        raise InputParseError("empty polynomial text")
    try:
        return ReferenceParser(tokens).parse()
    except RecursionError:
        raise InputParseError("polynomial nested too deeply") from None
