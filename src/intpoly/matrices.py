"""Matrix machinery: Smith normal form over Z with transformation matrices,
the four-term strong Bezout relation over Z, content-ideal decisions for
matrices of integer-valued polynomials, and the trace-normalization step that
turns a unit-content product with vanishing determinant into a nontrivial
idempotent.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .arith import DomainError, ext_gcd
from .poly import (
    MAX_RESIDUE_CLASSES,
    Polynomial,
    _residue_sweep,
    bezout_gcd_many,
    is_int_valued,
    residue_period_exp,
)

# -- integer matrices ---------------------------------------------------------


def _matrix(rows, entry) -> list:
    """The rows of a nonempty rectangular matrix as lists, each element
    replaced by entry(element)."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        raise DomainError("matrix must be nonempty")
    if any(len(r) != len(rows[0]) for r in rows):
        raise DomainError("matrix rows must have equal length")
    return [[entry(x) for x in r] for r in rows]


def _int_entry(x) -> int:
    if not isinstance(x, int):
        raise DomainError(f"integer matrix entry {x!r} is not an int")
    return x


def _identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class SNFResult:
    """S = U * A * W with U, W unimodular and S diagonal with a divisibility chain."""

    U: tuple
    S: tuple
    W: tuple

    @property
    def diagonal(self) -> tuple:
        return tuple(self.S[i][i] for i in range(min(len(self.S), len(self.S[0]))))


def snf_with_transforms(A) -> SNFResult:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Deterministic policy: the pivot is the entry of smallest absolute value in
    the active submatrix (row-major tie-break), rows are cleared before
    columns, and diagonal entries are normalized non-negative.  The zero
    matrix comes back unchanged with identity transforms.
    """
    S = _matrix(A, _int_entry)
    m, n = len(S), len(S[0])
    U = _identity(m)
    W = _identity(n)

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in W:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row[dst] += q * row[src]
        S[dst] = [a + q * b for a, b in zip(S[dst], S[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for row in S:
            row[dst] += q * row[src]
        for row in W:
            row[dst] += q * row[src]

    def negate_row(i):
        S[i] = [-a for a in S[i]]
        U[i] = [-a for a in U[i]]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(S[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        return best

    for t in range(min(m, n)):
        if find_pivot(t) is None:
            break
        while True:
            _, pi, pj = find_pivot(t)
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            dirty = False
            for i in range(t + 1, m):
                if S[i][t] != 0:
                    q = S[i][t] // S[t][t]
                    add_row(i, t, -q)
                    if S[i][t] != 0:
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if S[t][j] != 0:
                    q = S[t][j] // S[t][t]
                    add_col(j, t, -q)
                    if S[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if S[i][j] % S[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if S[t][t] < 0:
            negate_row(t)

    return SNFResult(
        U=tuple(tuple(r) for r in U),
        S=tuple(tuple(r) for r in S),
        W=tuple(tuple(r) for r in W),
    )


def strong_bezout_z(a: int, b: int, c: int, d: int) -> tuple:
    """Integers (alpha, beta, gamma, delta) with
    a*alpha + b*beta + c*gamma + d*delta == 1 and alpha*delta == beta*gamma.

    Construction: diagonalize the column module spanned by (a, b) and (c, d);
    unit content makes the first invariant factor 1, so the first transformed
    column e = lambda*(a, b) + mu*(c, d) is a unimodular vector, and a Bezout
    pair for its two components splits into the required rank-one quadruple.
    """
    g = gcd(gcd(abs(a), abs(b)), gcd(abs(c), abs(d)))
    if g != 1:
        raise DomainError(f"inputs must be coprime; common divisor {g}")
    A = ((a, c), (b, d))
    result = snf_with_transforms(A)
    assert result.S[0][0] == 1, "first invariant factor of a coprime quadruple is 1"
    lam = result.W[0][0]
    mu = result.W[1][0]
    e1 = lam * a + mu * c
    e2 = lam * b + mu * d
    _, u, v = ext_gcd(e1, e2)
    alpha, beta, gamma, delta = u * lam, v * lam, u * mu, v * mu
    assert a * alpha + b * beta + c * gamma + d * delta == 1
    assert alpha * delta == beta * gamma
    return alpha, beta, gamma, delta


# -- matrices of integer-valued polynomials ------------------------------------


def poly_matrix(rows) -> tuple:
    """Coerce a rectangular nest of ints/Fractions/Polynomials to Polynomial entries."""
    entry = lambda e: e if isinstance(e, Polynomial) else Polynomial.constant(e)
    return tuple(map(tuple, _matrix(rows, entry)))


def require_2x2(what: str, *matrices) -> None:
    """Raise DomainError unless every one of the matrices is 2x2."""
    if any([len(row) for row in M] != [2, 2] for M in matrices):
        shape = "two 2x2 matrices" if len(matrices) == 2 else "a 2x2 matrix"
        raise DomainError(f"{what} expects {shape}")


def require_intpoly_matrix(M) -> tuple:
    M = poly_matrix(M)
    for row in M:
        for e in row:
            if not is_int_valued(e):
                raise DomainError(f"entry {e} is not integer-valued")
    return M


def poly_mat_mul(A, B) -> tuple:
    A, B = poly_matrix(A), poly_matrix(B)
    if len(A[0]) != len(B):
        raise DomainError("matrix product needs as many columns in A as rows in B")
    rows, inner, cols = len(A), len(B), len(B[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = Polynomial.zero()
            for k in range(inner):
                acc = acc + A[i][k] * B[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def poly_det2(M) -> Polynomial:
    if len(M) != 2 or len(M[0]) != 2:
        raise DomainError("determinant helper is for 2x2 matrices")
    return M[0][0] * M[1][1] - M[0][1] * M[1][0]


def poly_trace(M) -> Polynomial:
    acc = Polynomial.zero()
    for i in range(len(M)):
        acc = acc + M[i][i]
    return acc


# -- content decision ----------------------------------------------------------


@dataclass(frozen=True)
class ContentVerdict:
    """Outcome of the unit-content decision, with a checkable certificate.

    Unit verdicts carry a positive integer c in the ideal, integral
    multipliers with sum(multipliers[i] * entries[i]) == c, and per-prime
    coverage tables mapping every residue class to an entry that stays a
    p-unit there.  Non-unit verdicts carry either a nonconstant common
    divisor or a prime and residue class where every entry has positive
    valuation.
    """

    unit: bool
    c: int | None = None
    multipliers: tuple | None = None
    coverage: dict | None = None
    witness_gcd: Polynomial | None = None
    witness_prime: int | None = None
    witness_residue: int | None = None
    witness_modulus_exp: int | None = None

    def to_json(self) -> dict:
        if self.unit:
            return {
                "unit": True,
                "c": self.c,
                "multipliers": [str(u) for u in self.multipliers],
                "coverage": {
                    str(p): {str(r): i for r, i in table.items()}
                    for p, table in self.coverage.items()
                },
            }
        if self.witness_gcd is not None:
            return {"unit": False, "witness": {"kind": "pq", "gcd": str(self.witness_gcd)}}
        return {
            "unit": False,
            "witness": {
                "kind": "residue",
                "p": self.witness_prime,
                "residue": self.witness_residue,
                "modulus_exp": self.witness_modulus_exp,
            },
        }


# the highest entry degree the content decision accepts: Euclid over Q with
# cofactors grows steeply in the degree.  Two entries with binomial
# coefficients in [-9, 9] took 0.56, 0.92, 1.6 and 7.3 s at degree 28, 30,
# 32 and 40; two with integer coefficients in [-999, 999] took 0.62 s at 30
# and 2.9 s at 40; two monic ones with coefficients in [-9, 9] took 0.11 s
# at 30 and 0.49 s at 40 (Python 3.11, 2-core Xeon)
MAX_CONTENT_DEGREE = 30


def _content_primes(c: int):
    """The prime factors of c > 0 in ascending order, by trial division up
    to MAX_RESIDUE_CLASSES.  A cofactor left above it comes last, whole: its
    primes all exceed the cap, so no sweep may visit their classes."""
    d = 2
    while d * d <= c and d <= MAX_RESIDUE_CLASSES:
        if c % d == 0:
            yield d
            while c % d == 0:
                c //= d
        d += 1 if d == 2 else 2
    if c > 1:
        yield c


def unit_content_decide(entries) -> ContentVerdict:
    """Decide whether integer-valued polynomials generate the unit ideal.

    Procedure: (1) a nonconstant gcd in Q[X] is an immediate non-unit witness
    (no factorization into irreducibles is attempted; the gcd itself is the
    composite witness).  (2) Otherwise a Bezout combination scaled integral
    gives c = sum(u_i * f_i) with u_i integral, so any maximal ideal above p
    containing all entries forces p | c.  (3) For each such p, sweep one full
    period of residues; a class where every entry has positive valuation is a
    non-unit witness, and full coverage certifies the unit verdict.  A
    period of more than poly.MAX_RESIDUE_CLASSES classes is a DomainError,
    and so are a factor of c that trial division up to that cap leaves and
    an entry of degree above MAX_CONTENT_DEGREE.
    """
    if not entries:
        raise DomainError("content of an empty family is undefined")
    (entries,) = require_intpoly_matrix((entries,))
    if all(e.is_zero for e in entries):
        raise DomainError("content of the zero family is the zero ideal")
    degree = max(e.degree for e in entries)
    if degree > MAX_CONTENT_DEGREE:
        raise DomainError(
            f"content of entries of degree {degree} exceeds the cap of "
            f"degree {MAX_CONTENT_DEGREE}"
        )

    h, mults = bezout_gcd_many(entries)
    if h.degree >= 1:
        return ContentVerdict(unit=False, witness_gcd=h)

    scale = 1
    for u in mults:
        scale = lcm(scale, u.denominator_lcm())
    c = scale
    int_mults = tuple(u * scale for u in mults)

    coverage = {}
    for p in _content_primes(c):
        # every entry's values mod p are constant on the classes mod p^exp
        exp = max(1, *(residue_period_exp(e, p) for e in entries))
        table = {}
        sweeps = zip(*(_residue_sweep(e, p, exp) for e in entries))
        for alpha, residues in enumerate(sweeps):
            units = [i for i, r in enumerate(residues) if r]
            if not units:
                return ContentVerdict(
                    unit=False,
                    witness_prime=p,
                    witness_residue=alpha,
                    witness_modulus_exp=exp,
                )
            table[alpha] = units[0]
        coverage[p] = table
    return ContentVerdict(unit=True, c=c, multipliers=int_mults, coverage=coverage)


# -- pair checking and trace normalization --------------------------------------


@dataclass(frozen=True)
class UcsReport:
    """Checked facts about a candidate pair (B, C) and B's qualification."""

    content_unit: bool
    det_zero: bool
    a_nonunit_integer: bool
    acd_content_unit: bool
    det_outside_integers: bool
    qualifies: bool
    content_verdict: ContentVerdict | None
    suggested_c: tuple | None

    def to_json(self) -> dict:
        return {
            "content_unit": self.content_unit,
            "det_zero": self.det_zero,
            "qualification": {
                "a_nonunit_integer": self.a_nonunit_integer,
                "acd_content_unit": self.acd_content_unit,
                "det_outside_integers": self.det_outside_integers,
                "qualifies": self.qualifies,
            },
            "content": None if self.content_verdict is None else self.content_verdict.to_json(),
            "suggested_c": None
            if self.suggested_c is None
            else [[str(e) for e in row] for row in self.suggested_c],
        }


def _known_suitable_c(B) -> tuple | None:
    """For degenerate B (unit corner or integer determinant) the literature
    gives an explicit suitable C; report it instead of searching."""
    a = B[0][0]
    one = Polynomial.one()
    zero = Polynomial.zero()
    if a.is_integer_constant and abs(a.coefficient(0)) == 1:
        return ((one, one), (zero, zero))
    det = poly_det2(B)
    if det.is_integer_constant:
        c_entry, b_entry, d_entry = B[0][1], B[1][0], B[1][1]
        for k in range(0, 21):
            for r in ((0,) if k == 0 else (k, -k)):
                first = a + c_entry * r
                second = b_entry + d_entry * r
                if first.is_zero and second.is_zero:
                    continue
                try:
                    if unit_content_decide((first, second)).unit:
                        rp = Polynomial.constant(r)
                        return ((one, one), (rp, rp))
                except DomainError:
                    continue
    return None


def ucs_pair_check(B, C) -> UcsReport:
    """Exact facts about the product B*C plus the qualification of B.

    B qualifies as a genuine test instance when its top-left entry is an
    integer that is neither zero nor a unit, the three entries (top-left,
    top-right, bottom-right) generate the unit ideal, and det(B) is not an
    integer constant.
    """
    B = require_intpoly_matrix(B)
    C = require_intpoly_matrix(C)
    require_2x2("pair check", B, C)
    M = poly_mat_mul(B, C)
    det_zero = poly_det2(M).is_zero
    entries = tuple(e for row in M for e in row)
    if all(e.is_zero for e in entries):
        verdict = None
        content_unit = False
    else:
        verdict = unit_content_decide(entries)
        content_unit = verdict.unit

    a = B[0][0]
    a_ok = a.is_integer_constant and a.coefficient(0) not in (0, 1, -1)
    acd = (B[0][0], B[0][1], B[1][1])
    if all(e.is_zero for e in acd):
        acd_ok = False
    else:
        acd_ok = unit_content_decide(acd).unit
    det_b = poly_det2(B)
    det_outside = not det_b.is_integer_constant
    qualifies = a_ok and acd_ok and det_outside

    suggested = None
    if not qualifies and (not a_ok or not det_outside):
        suggested = _known_suitable_c(B)

    return UcsReport(
        content_unit=content_unit,
        det_zero=det_zero,
        a_nonunit_integer=a_ok,
        acd_content_unit=acd_ok,
        det_outside_integers=det_outside,
        qualifies=qualifies,
        content_verdict=verdict,
        suggested_c=suggested,
    )


def idempotent_check(M) -> tuple:
    """(M*M == M, M not in {0, identity}) for a square polynomial matrix."""
    M = poly_matrix(M)
    if len(M) != len(M[0]):
        raise DomainError("idempotency needs a square matrix")
    idem = poly_mat_mul(M, M) == M
    zero = all(e.is_zero for row in M for e in row)
    identity = all(
        e == (1 if i == j else 0) for i, row in enumerate(M) for j, e in enumerate(row)
    )
    return idem, not (zero or identity)


def trace_combination_z(M) -> tuple:
    """(r, s, t, u) integers with r*M00 + s*M10 + t*M01 + u*M11 == 1,
    by folding the extended gcd over the four entries."""
    require_2x2("integer combination", M)
    vals = [M[0][0], M[1][0], M[0][1], M[1][1]]
    if any(not isinstance(v, int) for v in vals):
        raise DomainError("integer combination needs an integer matrix")
    g = 0
    coeffs: list[int] = []
    for v in vals:
        if g == 0 and v == 0:
            coeffs.append(0)
            continue
        g2, x, y = ext_gcd(g, v)
        coeffs = [x * cc for cc in coeffs]
        coeffs.append(y)
        g = g2
    if g != 1:
        raise DomainError(f"matrix entries have common content {g}")
    return tuple(coeffs)


def trace_normalize(B, C, comb) -> tuple:
    """Post-multiply C so that the product with B becomes a nontrivial idempotent.

    comb = (r, s, t, u) must satisfy r*M00 + s*M10 + t*M01 + u*M11 == 1 for
    M = B*C, i.e. Tr(B*C*D) == 1 with D = [[r, s], [t, u]].  Given det(C) == 0
    the result C0 = C*D keeps determinant zero and Tr(B*C0) == 1, hence B*C0
    has characteristic polynomial X^2 - X and is a nontrivial idempotent.
    """
    B = require_intpoly_matrix(B)
    C = require_intpoly_matrix(C)
    require_2x2("trace normalization", B, C)
    ((r, s, t, u),) = poly_matrix((comb,))
    if not poly_det2(C).is_zero:
        raise DomainError("C must have determinant zero")
    M = poly_mat_mul(B, C)
    residual = M[0][0] * r + M[1][0] * s + M[0][1] * t + M[1][1] * u - 1
    if not residual.is_zero:
        raise DomainError(f"combination misses the unit by {residual}")
    D = ((r, s), (t, u))
    C0 = poly_mat_mul(C, D)
    product = poly_mat_mul(B, C0)
    assert poly_det2(C0).is_zero
    assert poly_trace(product) == Polynomial.one()
    idem, nontrivial = idempotent_check(product)
    assert idem and nontrivial
    return C0


def trace_combination_search(M, max_deg: int = 2, max_height: int = 10):
    """Best-effort polynomial combination (r, s, t, u) for a 2x2 polynomial
    matrix: solves the coefficient-matching linear system over Z exactly via
    Smith normal form, then size-reduces with kernel vectors; returns None if
    no solution exists within the degree bound or the height bound is missed.
    """
    M = poly_matrix(M)
    entries = [M[0][0], M[1][0], M[0][1], M[1][1]]
    if all(e.is_zero for e in entries):
        return None
    deg_m = max(e.degree for e in entries)
    n_rows = deg_m + max_deg + 1
    n_cols = 4 * (max_deg + 1)
    int_rows = []
    rhs = []
    for power in range(n_rows):
        row = [e.coefficient(power - k) for e in entries for k in range(max_deg + 1)]
        denom = lcm(*(f.denominator for f in row))
        int_rows.append([int(f * denom) for f in row])
        rhs.append(denom if power == 0 else 0)  # the combination equals 1

    result = snf_with_transforms(int_rows)
    diag = result.diagonal
    rank = sum(1 for d in diag if d != 0)
    ub = [sum(result.U[i][k] * rhs[k] for k in range(n_rows)) for i in range(n_rows)]
    y = [0] * n_cols
    for i in range(n_rows):
        if i < len(diag) and diag[i] != 0:
            if ub[i] % diag[i] != 0:
                return None
            y[i] = ub[i] // diag[i]
        elif ub[i] != 0:
            return None
    z = [sum(result.W[i][j] * y[j] for j in range(n_cols)) for i in range(n_cols)]

    kernel = [
        [result.W[i][j] for i in range(n_cols)] for j in range(rank, n_cols)
    ]
    for _ in range(4):
        improved = False
        for kvec in kernel:
            kk = sum(v * v for v in kvec)
            if kk == 0:
                continue
            zk = sum(a * b for a, b in zip(z, kvec))
            # zk / kk rounded half to even, exactly: a float quotient
            # overflows above ~1e308 and is inexact above 2^53
            base, rem = divmod(zk, kk)
            if 2 * rem > kk or (2 * rem == kk and base % 2):
                base += 1
            best = max(abs(v) for v in z)
            best_m = 0
            for m in range(base - 3, base + 4):
                cand = max(abs(a - m * b) for a, b in zip(z, kvec))
                if cand < best:
                    best, best_m = cand, m
            if best_m != 0:
                z = [a - best_m * b for a, b in zip(z, kvec)]
                improved = True
        if not improved:
            break

    if max(abs(v) for v in z) > max_height:
        return None
    polys = []
    for block in range(4):
        coeffs = z[block * (max_deg + 1):(block + 1) * (max_deg + 1)]
        polys.append(Polynomial(coeffs))
    return tuple(polys)
