"""The closing worked instance: for the fixed matrix B = [[2, X], [X+1, 3]],
solve the four-term strong Bezout problem over the integer-valued polynomials
by the (beta, gamma) parametrization, verify the known solution exactly, and
search small parameter boxes for further solutions.

Every solution is packaged as a certificate whose named checks are all
recomputed from scratch, so certificates can be re-verified independently.
"""
from __future__ import annotations

from itertools import product
from math import lcm

from .arith import DomainError, InputParseError, Record
from .matrices import (
    idempotent_check,
    poly_det2,
    poly_mat_mul,
    poly_matrix,
    poly_trace,
    unit_content_decide,
)
from .poly import (
    Polynomial,
    _divides_values,
    _int_sqrt,
    _make,
    is_int_valued,
    parse_polynomial,
    poly_sqrt,
)

X = Polynomial.x()

B_MATRIX = poly_matrix(((2, X), (X + 1, 3)))

# the known solution parameters; the degree-3 coefficient of the printed g is
# corrupted in the source text, so it is re-derived and only the remaining
# coefficients are matched (see verify_known_solution)
KNOWN_BETA = Polynomial((13, 31, 20, -2, -5, -1))
KNOWN_GAMMA = Polynomial((0, 4, 4, 1))
PRINTED_G = Polynomial((-12, 8, 43, 22, -6, -6, -1))
GARBLED_G_INDEX = 3


class SolutionFailure(DomainError):
    """A candidate does not yield a valid certificate; names the failed check."""

    def __init__(self, failed_check: str, detail: str = ""):
        self.failed_check = failed_check
        message = f"check failed: {failed_check}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


# the polynomial fields of a certificate, which its JSON record holds as text
_POLY_FIELDS = ("beta", "gamma", "f", "g", "u", "alpha", "delta")


class ExampleCertificate(Record):
    """A full solution record: 2*alpha + (X+1)*beta + X*gamma + 3*delta == 1
    with alpha*delta == beta*gamma, all parts integer-valued, and the
    equivalent matrix facts for C = [[alpha, beta], [gamma, delta]]."""

    beta: Polynomial
    gamma: Polynomial
    f: Polynomial
    g: Polynomial
    u: Polynomial
    alpha: Polynomial
    delta: Polynomial
    sign: int
    checks: dict

    @property
    def all_ok(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        data = {name: str(getattr(self, name)) for name in _POLY_FIELDS}
        data.update(sign=self.sign, checks=dict(self.checks))
        return data

    @classmethod
    def from_json(cls, data) -> "ExampleCertificate":
        """The certificate of a `to_json` record; a record with a missing
        field or a field of the wrong type is an InputParseError."""
        try:
            return cls(
                **{name: parse_polynomial(data[name]) for name in _POLY_FIELDS},
                sign=int(data["sign"]),
                checks={k: bool(v) for k, v in data["checks"].items()},
            )
        except KeyError as exc:
            raise InputParseError(f"certificate field {exc} is missing") from None
        except (TypeError, AttributeError) as exc:
            raise InputParseError(f"malformed certificate: {exc}") from None

    def re_verify(self) -> "ExampleCertificate":
        """Recompute the certificate from its own (beta, gamma, g, sign)."""
        return recover_solution(self.beta, self.gamma, self.g, self.sign)


def reduce_relation(beta: Polynomial, gamma: Polynomial):
    """The reduction step: f = (X+1)*beta + X*gamma - 1 and the discriminant
    f^2 - 24*beta*gamma whose squareness governs solvability.  Over the
    common denominator m, beta = B/m and gamma = C/m, and m*f and m^2*disc
    are `_int_relation(B, C, m)`."""
    for name, q in (("beta", beta), ("gamma", gamma)):
        if not is_int_valued(q):
            raise DomainError(f"{name} = {q} is not integer-valued")
    m = lcm(beta._m, gamma._m)
    f, disc = _int_relation(
        [c * (m // beta._m) for c in beta._F], [c * (m // gamma._m) for c in gamma._F], m
    )
    return _make(f, m), _make(disc, m * m)


def recover_solution(
    beta: Polynomial, gamma: Polynomial, g: Polynomial, sign: int
) -> ExampleCertificate:
    """Assemble and fully verify a certificate from (beta, gamma, g, sign).

    Requires g*g == f^2 - 24*beta*gamma exactly.  The candidate multiplier is
    u = (sign*g - 5f)/12; if it is integer-valued then alpha = 3u + f and
    delta = -2u - f complete the quadruple, and every named check is
    recomputed.  Raises SolutionFailure naming the first failing check.
    """
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    f, disc = reduce_relation(beta, gamma)
    if g * g != disc:
        raise DomainError(
            f"g^2 differs from the discriminant: g={g}, discriminant={disc}"
        )
    u = (g * sign - f * 5) / 12
    alpha = u * 3 + f
    delta = u * (-2) - f

    checks: dict = {}

    def record(name: str, ok: bool, detail: str = ""):
        checks[name] = ok
        if not ok:
            raise SolutionFailure(name, detail)

    record("u_int_valued", is_int_valued(u), f"u = {u}")
    record("alpha_int_valued", is_int_valued(alpha))
    record("beta_int_valued", is_int_valued(beta))
    record("gamma_int_valued", is_int_valued(gamma))
    record("delta_int_valued", is_int_valued(delta))

    relation = alpha * 2 + (X + 1) * beta + X * gamma + delta * 3
    record("relation_unit", relation == Polynomial.one(), f"relation = {relation}")
    record("rank_one", alpha * delta == beta * gamma)
    lhs = (u * 12 + f * 5) ** 2
    record("square_identity", lhs == disc)

    C = poly_matrix(((alpha, beta), (gamma, delta)))
    record("det_c_zero", poly_det2(C).is_zero)
    BC = poly_mat_mul(B_MATRIX, C)
    record("trace_bc_one", poly_trace(BC) == Polynomial.one())
    idem, nontrivial = idempotent_check(BC)
    record("bc_idempotent", idem)
    record("bc_nontrivial", nontrivial)
    entries = tuple(e for row in BC for e in row)
    record("content_bc_unit", unit_content_decide(entries).unit)

    return ExampleCertificate(
        beta=beta,
        gamma=gamma,
        f=f,
        g=g,
        u=u,
        alpha=alpha,
        delta=delta,
        sign=sign,
        checks=checks,
    )


def verify_known_solution() -> ExampleCertificate:
    """Re-derive the known solution from its (beta, gamma) and verify it.

    The square root g of the discriminant is recomputed; it must agree with
    the printed g in every coefficient except possibly the corrupted
    degree-3 one, and recover_solution must succeed for one of the signs.
    """
    f, disc = reduce_relation(KNOWN_BETA, KNOWN_GAMMA)
    g = poly_sqrt(disc)
    if g is None:
        raise DomainError(
            "discriminant is not a perfect square, the embedded constants are "
            f"wrong: f^2 - 24*beta*gamma = {disc}"
        )
    agrees = False
    for candidate in (g, -g):
        deltas = [
            k
            for k in range(max(candidate.degree, PRINTED_G.degree) + 1)
            if candidate.coefficient(k) != PRINTED_G.coefficient(k)
        ]
        if all(k == GARBLED_G_INDEX for k in deltas):
            agrees = True
            break
    if not agrees:
        raise DomainError(
            f"recomputed square root {g} disagrees with the printed g beyond "
            f"the corrupted degree-{GARBLED_G_INDEX} coefficient"
        )
    failure = None
    for sign in (1, -1):
        try:
            cert = recover_solution(KNOWN_BETA, KNOWN_GAMMA, g, sign)
        except SolutionFailure as exc:
            failure = exc
            continue
        return cert.replace(checks={**cert.checks, "printed_g_agreement": True})
    raise DomainError(f"known solution failed for both signs: {failure}")


def _int_relation(beta, gamma, m: int = 1):
    """The relation on integer coefficient lists (ascending, trimmed):
    f = (X+1)*beta + X*gamma - m and disc = f^2 - 24*beta*gamma."""
    f = [0] * (max(len(beta), len(gamma)) + 1)
    for k, b in enumerate(beta):
        f[k] += b
        f[k + 1] += b
    for k, c in enumerate(gamma):
        f[k + 1] += c
    f[0] -= m
    while f and not f[-1]:
        f.pop()
    disc = [0] * max(2 * len(f) - 1, len(beta) + len(gamma) - 1, 0)
    for i, a in enumerate(f):
        for j, b in enumerate(f):
            disc[i + j] += a * b
    for i, b in enumerate(beta):
        b *= 24
        for j, c in enumerate(gamma):
            disc[i + j] -= b * c
    while disc and not disc[-1]:
        disc.pop()
    return f, disc


def _u_int_valued(f: list, g: list, sign: int) -> bool:
    """Whether u = (sign*g - 5f)/12 is integer-valued, on integer
    coefficient lists: 12 must divide w = sign*g - 5f at 0, ..., deg w."""
    w = [0] * max(len(f), len(g))
    for k, c in enumerate(g):
        w[k] += sign * c
    for k, c in enumerate(f):
        w[k] -= 5 * c
    return _divides_values(w, 12)


def _box(deg, height: int, shell: bool = False):
    """Iterator over the integer coefficient tuples of exact degree deg with
    entries in [-height, height], in lexicographic order; with shell, only
    those with an entry of absolute value height.  deg None stands for the
    zero polynomial (), which lies on no shell (height >= 1)."""
    if deg is None:
        return iter(() if shell else ((),))
    coeffs = range(-height, height + 1)
    last = [c for c in coeffs if c]
    if not shell:
        return product(*[coeffs] * deg, last)
    edge = (-height, height)
    return (
        head + (c,)
        for head in product(coeffs, repeat=deg)
        for c in (last if height in head or -height in head else edge)
    )


def bounded_search(max_deg: int, max_height: int, budget: int) -> list:
    """Exhaustive scan of integer-coefficient (beta, gamma) boxes.

    Candidates are visited in a fixed order: degree classes (zero, 0, 1, ...,
    max_deg) lexicographically in (deg beta, deg gamma), then increasing pair
    height (the max absolute coefficient over both), then coefficient tuples
    lexicographically.  Each pair counts against the budget.  A pair is
    rejected on integer coefficient tuples first: its discriminant must have
    an integer square root g, and u = (sign*g - 5f)/12 must be
    integer-valued for a sign.  For a surviving pair the certificate of the
    first working sign is recomputed and checked in full by
    recover_solution, and collected.
    """
    if max_deg < 0 or max_height < 1:
        raise DomainError("bounds must be positive")
    results = []
    seen = 0
    classes = [None] + list(range(max_deg + 1))
    for deg_b in classes:
        for deg_g in classes:
            heights = [0] if (deg_b is None and deg_g is None) else range(
                1, max_height + 1
            )
            for h in heights:
                for beta in _box(deg_b, h):
                    # a pair has height h when beta or gamma has height h
                    off_shell = h > 0 and h not in beta and -h not in beta
                    for gamma in _box(deg_g, h, shell=off_shell):
                        if seen >= budget:
                            return results
                        seen += 1
                        f, disc = _int_relation(beta, gamma)
                        g = _int_sqrt(disc)
                        if g is None:
                            continue
                        for sign in (1, -1):
                            if not _u_int_valued(f, g, sign):
                                continue
                            try:
                                results.append(
                                    recover_solution(
                                        Polynomial(beta),
                                        Polynomial(gamma),
                                        Polynomial(g),
                                        sign,
                                    )
                                )
                                break
                            except SolutionFailure:
                                continue
    return results
