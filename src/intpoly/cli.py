"""Command-line front door.

One subcommand per library operation, each with a --json twin of its
human-readable output.  Exit codes: 0 for success (including honest
"unknown" verdicts), 1 for domain errors (precondition failures), 2 for
unparseable requests.  Identical requests produce byte-identical output.
An error is reported as {"error": {"kind", "message"}} on stdout when
--json is given, and on stderr otherwise.  `main(argv)` may be called any
number of times in one process; the parser is built on the first call.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .arith import DomainError, InputParseError, parse_rational
from .example_lab import (
    ExampleCertificate,
    bounded_search,
    verify_known_solution,
)
from .matrices import (
    idempotent_check,
    poly_det2,
    poly_mat_mul,
    poly_trace,
    require_2x2_pair,
    snf_with_transforms,
    strong_bezout_z,
    trace_combination_search,
    trace_combination_z,
    trace_normalize,
    ucs_pair_check,
    unit_content_decide,
)
from .poly import Polynomial, parse_polynomial, residue_image
from .sequences import SeqWindow, classify_window, image_window_classify, is_pseudo_limit
from .spectrum import (
    ideal_membership,
    parse_ideal,
    residue_representative,
    separation_check,
)
from .vorder import (
    ALL_INTEGERS,
    MembershipTarget,
    SubsetDescriptor,
    expand_in_basis,
    int_membership,
    regular_basis,
    v_ordering,
)


def _parse_input(builder):
    """Run an input-construction callable; invariant violations there are
    request errors (exit 2), not domain errors."""
    try:
        return builder()
    except (DomainError, ValueError) as exc:
        raise InputParseError(str(exc)) from None


def _parse_points(text: str) -> tuple:
    return tuple(parse_rational(s) for s in text.split(","))


def _parse_set(args) -> SubsetDescriptor:
    if getattr(args, "all", False) and getattr(args, "set", None):
        raise InputParseError("--set and --all are mutually exclusive")
    if getattr(args, "all", False):
        return ALL_INTEGERS
    if getattr(args, "set", None):
        return _parse_input(lambda: SubsetDescriptor.finite(_parse_points(args.set)))
    raise InputParseError("one of --set or --all is required")


def _parse_set_default_all(args) -> SubsetDescriptor:
    if getattr(args, "set", None):
        return _parse_input(lambda: SubsetDescriptor.finite(_parse_points(args.set)))
    return ALL_INTEGERS


def _parse_poly(text: str) -> Polynomial:
    return parse_polynomial(text)


def _parse_poly_matrix(text: str) -> tuple:
    rows = []
    for row_text in text.split(";"):
        rows.append(tuple(parse_polynomial(cell) for cell in row_text.split(",")))
    if len({len(r) for r in rows}) != 1:
        raise InputParseError("matrix rows must have equal length")
    return tuple(rows)


def _parse_int_matrix(text: str) -> tuple:
    try:
        rows = tuple(
            tuple(int(cell) for cell in row_text.split(","))
            for row_text in text.split(";")
        )
    except ValueError as exc:
        raise InputParseError(f"bad integer matrix: {exc}") from None
    if len({len(r) for r in rows}) != 1:
        raise InputParseError("matrix rows must have equal length")
    return rows


def _poly_rows(M) -> list:
    return [[str(e) for e in row] for row in M]


# -- subcommand handlers --------------------------------------------------------
# each returns (payload_dict, human_lines)


def cmd_vorder(args):
    E = _parse_set(args)
    n = args.n if args.n is not None else (len(E.points) - 1 if E.is_finite else None)
    if n is None:
        raise InputParseError("--n is required with --all")
    vord = v_ordering(E, n, args.p)
    payload = {"points": [str(x) for x in vord.points], "w": list(vord.w)}
    lines = [
        "points: " + ", ".join(str(x) for x in vord.points),
        "w: " + ", ".join(str(v) for v in vord.w),
    ]
    return payload, lines


def cmd_basis(args):
    E = _parse_set(args)
    n = args.n if args.n is not None else (len(E.points) - 1 if E.is_finite else args.k)
    vord = v_ordering(E, n, args.p)
    fk = regular_basis(vord, args.k)
    return {"k": args.k, "basis": str(fk)}, [f"f_{args.k} = {fk}"]


def cmd_expand(args):
    f = _parse_input(lambda: _parse_poly(args.poly))
    E = _parse_set(args)
    n = args.n if args.n is not None else (
        len(E.points) - 1 if E.is_finite else max(f.degree, 0)
    )
    vord = v_ordering(E, n, args.p)
    coeffs = expand_in_basis(f, vord)
    payload = {
        "points": [str(x) for x in vord.points],
        "coefficients": [str(c) for c in coeffs],
    }
    return payload, ["c: " + ", ".join(str(c) for c in coeffs)]


def cmd_member(args):
    f = _parse_input(lambda: _parse_poly(args.poly))
    E = _parse_set(args)
    target = (
        MembershipTarget.VALUATION_RING if args.target == "v" else MembershipTarget.MAXIMAL_IDEAL
    )
    result = int_membership(f, E, args.p, target)
    return {"member": result}, [f"member: {str(result).lower()}"]


def cmd_residues(args):
    f = _parse_input(lambda: _parse_poly(args.poly))
    image = sorted(residue_image(f, args.p))
    return {"residues": image}, ["residues mod p: " + ", ".join(map(str, image))]


def cmd_classify(args):
    window = _parse_input(lambda: SeqWindow(args.p, _parse_points(args.seq)))
    cls = classify_window(window)
    gaps = window.gap_valuations()
    payload = {"class": cls.value, "gapValuations": [str(v) for v in gaps]}
    return payload, [
        f"class: {cls.value}",
        "gap valuations: " + ", ".join(str(v) for v in gaps),
    ]


def cmd_pseudolimit(args):
    window = _parse_input(lambda: SeqWindow(args.p, _parse_points(args.seq)))
    x = _parse_input(lambda: parse_rational(args.x))
    result = is_pseudo_limit(x, window)
    return {"pseudo_limit": result}, [f"pseudo-limit: {str(result).lower()}"]


def cmd_imageclass(args):
    window = _parse_input(lambda: SeqWindow(args.p, _parse_points(args.seq)))
    f = _parse_input(lambda: _parse_poly(args.poly))
    start, cls, dichotomy = image_window_classify(f, window)
    payload = {
        "suffix_start": start,
        "class": cls.value,
        "dichotomy": dichotomy.value,
    }
    return payload, [
        f"suffix start: {start}",
        f"class: {cls.value}",
        f"dichotomy: {dichotomy.value}",
    ]


def cmd_ideal(args):
    if args.action != "member":
        raise InputParseError(f"unknown ideal action {args.action!r}")
    ideal = _parse_input(lambda: parse_ideal(args.ideal))
    f = _parse_input(lambda: _parse_poly(args.poly))
    E = _parse_set_default_all(args)
    verdict = ideal_membership(f, ideal, E)
    payload = {"verdict": verdict.value}
    if verdict.reason:
        payload["reason"] = verdict.reason
    return payload, [f"membership: {verdict}"]


def cmd_representative(args):
    ideal = _parse_input(lambda: parse_ideal(args.ideal))
    f = _parse_input(lambda: _parse_poly(args.poly))
    E = _parse_set_default_all(args)
    s = residue_representative(f, ideal, E)
    if s is None:
        return {"verdict": "unknown"}, ["representative: unknown"]
    return {"verdict": "yes", "residue": s}, [f"representative: {s}"]


def cmd_frisch(args):
    f = _parse_input(lambda: _parse_poly(args.poly))
    residues, in_ideal = separation_check(f, args.p)
    payload = {
        "residues": sorted(residues),
        "product_in_ideal": in_ideal,
    }
    return payload, [
        "residues: " + ", ".join(map(str, sorted(residues))),
        f"separation product in maximal-ideal layer: {str(in_ideal).lower()}",
    ]


def cmd_snf(args):
    A = _parse_input(lambda: _parse_int_matrix(args.matrix))
    result = snf_with_transforms(A)
    payload = {
        "U": [list(r) for r in result.U],
        "S": [list(r) for r in result.S],
        "W": [list(r) for r in result.W],
        "diagonal": list(result.diagonal),
    }
    lines = []
    for name in ("U", "S", "W"):
        rows = getattr(result, name)
        lines.append(name + ": " + "; ".join(",".join(map(str, r)) for r in rows))
    return payload, lines


def cmd_bezout4(args):
    a, b, c, d = args.a, args.b, args.c, args.d
    alpha, beta, gamma, delta = strong_bezout_z(a, b, c, d)
    payload = {
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
        "delta": delta,
        "unit_identity": a * alpha + b * beta + c * gamma + d * delta == 1,
        "rank_one_identity": alpha * delta == beta * gamma,
    }
    lines = [
        f"alpha={alpha} beta={beta} gamma={gamma} delta={delta}",
        f"{a}*({alpha}) + {b}*({beta}) + {c}*({gamma}) + {d}*({delta}) = 1",
        f"alpha*delta = beta*gamma = {alpha * delta}",
    ]
    return payload, lines


def cmd_content(args):
    entries = _parse_input(
        lambda: tuple(parse_polynomial(t) for t in args.entries.split(";"))
    )
    verdict = unit_content_decide(entries)
    payload = verdict.to_json()
    if verdict.unit:
        lines = [f"content: unit (c = {verdict.c})"]
    elif verdict.witness_gcd is not None:
        lines = [f"content: non-unit (common divisor {verdict.witness_gcd})"]
    else:
        lines = [
            "content: non-unit (all entries vanish mod "
            f"{verdict.witness_prime} on the class "
            f"{verdict.witness_residue} mod "
            f"{verdict.witness_prime}^{verdict.witness_modulus_exp})"
        ]
    return payload, lines


def cmd_ucs(args):
    B = _parse_input(lambda: _parse_poly_matrix(args.B))
    C = _parse_input(lambda: _parse_poly_matrix(args.C))
    report = ucs_pair_check(B, C)
    payload = report.to_json()
    lines = [
        f"cont(BC) unit: {str(report.content_unit).lower()}",
        f"det(BC) zero: {str(report.det_zero).lower()}",
        f"B qualifies: {str(report.qualifies).lower()}",
    ]
    return payload, lines


def cmd_tracenorm(args):
    B = _parse_input(lambda: _parse_poly_matrix(args.B))
    C = _parse_input(lambda: _parse_poly_matrix(args.C))
    require_2x2_pair(B, C, "trace normalization")
    if args.comb:
        comb = _parse_input(
            lambda: tuple(parse_polynomial(t) for t in args.comb.split(";"))
        )
        if len(comb) != 4:
            raise InputParseError("--comb needs exactly four ;-separated entries")
    else:
        M = poly_mat_mul(B, C)
        if all(e.is_integer_constant for row in M for e in row):
            ints = tuple(
                tuple(int(e.coefficient(0)) for e in row) for row in M
            )
            comb = trace_combination_z(ints)
        else:
            comb = trace_combination_search(M)
            if comb is None:
                raise DomainError(
                    "no combination found within the bounded search; pass --comb"
                )
    C0 = trace_normalize(B, C, comb)
    product = poly_mat_mul(B, C0)
    payload = {
        "C0": _poly_rows(C0),
        "BC0": _poly_rows(product),
        "trace": str(poly_trace(product)),
        "det_C0": str(poly_det2(C0)),
        "idempotent": True,
    }
    lines = ["C0: " + "; ".join(",".join(row) for row in _poly_rows(C0))]
    return payload, lines


def cmd_idem(args):
    M = _parse_input(lambda: _parse_poly_matrix(args.M))
    idem, nontrivial = idempotent_check(M)
    payload = {"idempotent": idem, "nontrivial": nontrivial}
    return payload, [
        f"idempotent: {str(idem).lower()}",
        f"nontrivial: {str(nontrivial).lower()}",
    ]


def _certificate_lines(cert: ExampleCertificate) -> list:
    lines = [
        f"beta  = {cert.beta}",
        f"gamma = {cert.gamma}",
        f"f     = {cert.f}",
        f"g     = {cert.g} (sign {cert.sign:+d})",
        f"u     = {cert.u}",
        f"alpha = {cert.alpha}",
        f"delta = {cert.delta}",
    ]
    for name, ok in cert.checks.items():
        lines.append(f"check {name}: {str(ok).lower()}")
    return lines


def cmd_example(args):
    if args.action == "verify":
        if args.stdin:
            data = _parse_input(lambda: json.loads(sys.stdin.read()))
            supplied = _parse_input(lambda: ExampleCertificate.from_json(data))
            cert = supplied.re_verify()
            recomputed = cert.to_json()
            given = supplied.to_json()
            fields = ("beta", "gamma", "f", "g", "u", "alpha", "delta", "sign")
            matches = all(recomputed[k] == given[k] for k in fields) and all(
                given["checks"].get(name) == ok
                for name, ok in recomputed["checks"].items()
            )
            payload = {
                "certificate": recomputed,
                "matches_input": matches,
            }
            return payload, _certificate_lines(cert) + [
                f"matches input: {str(matches).lower()}"
            ]
        cert = verify_known_solution()
        return {"certificate": cert.to_json()}, _certificate_lines(cert)
    if args.action == "search":
        certs = bounded_search(args.max_deg, args.max_height, args.budget)
        payload = {"count": len(certs), "certificates": [c.to_json() for c in certs]}
        lines = [f"solutions found: {len(certs)}"]
        for c in certs:
            lines.append(f"  beta={c.beta} gamma={c.gamma} sign={c.sign:+d}")
        return payload, lines
    raise InputParseError(f"unknown example action {args.action!r}")


# -- parser -----------------------------------------------------------------


class _UsageError(Exception):
    """An argparse usage error, raised instead of exiting so that main()
    can report it in the format the request asked for."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser that reads `--option -value` as `--option=-value`
    and raises _UsageError where argparse would print usage and exit.

    argparse takes a value that starts with '-' and does not look like a
    negative number (the matrix -2,4;6,8, the polynomial -X, the set
    -1,0,2) for an option string and exits without an answer.  Here a token
    that starts with a single '-', is no option string itself and follows
    an option that takes a value, named in full or by an unambiguous
    prefix, is that option's value.  Subparsers are built with the parent's
    class, so every subcommand reads its own options this way.
    """

    def _takes_value(self, token: str) -> bool:
        actions = self._option_string_actions
        action = actions.get(token)
        if action is None and token.startswith("--") and self.allow_abbrev:
            named = {a for s, a in actions.items() if s.startswith(token)}
            action = named.pop() if len(named) == 1 else None
        return action is not None and action.nargs is None

    def parse_known_args(self, args=None, namespace=None):
        if args is not None:
            joined = []
            for arg in args:
                if (
                    joined
                    and arg.startswith("-")
                    and not arg.startswith("--")
                    and arg not in self._option_string_actions
                    and self._takes_value(joined[-1])
                ):
                    joined[-1] += "=" + arg
                else:
                    joined.append(arg)
            args = joined
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise _UsageError(self, message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by all later
    ones.  Parsing never changes it and no option has a mutable default, so
    one parser serves every main() call in the process."""
    parser = _ArgumentParser(
        prog="intpoly",
        description="Exact computations with integer-valued polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    p = add("vorder", help="greedy ordering with step valuations")
    p.add_argument("--set", help="comma-separated points")
    p.add_argument("--all", action="store_true", help="the set of all integers")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, help="last index of the ordering")

    p = add("basis", help="interpolation basis polynomial f_k")
    p.add_argument("--set", help="comma-separated points")
    p.add_argument("--all", action="store_true")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int, required=True)

    p = add("expand", help="expansion coefficients in the basis")
    p.add_argument("--poly", required=True)
    p.add_argument("--set", help="comma-separated points")
    p.add_argument("--all", action="store_true")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int)

    p = add("member", help="integer-valued membership at one prime")
    p.add_argument("--poly", required=True)
    p.add_argument("--set", help="comma-separated points")
    p.add_argument("--all", action="store_true")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--target", choices=("v", "m"), default="v")

    p = add("residues", help="value set mod p over the integers")
    p.add_argument("--poly", required=True)
    p.add_argument("--p", type=int, required=True)

    p = add("classify", help="classify a sequence window")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--seq", required=True, help="comma-separated points")

    p = add("pseudolimit", help="pseudo-limit test")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--x", required=True)

    p = add("imageclass", help="classify the image of a window")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--poly", required=True)

    p = add("ideal", help="ideal membership")
    p.add_argument("action", choices=("member",))
    p.add_argument("--ideal", required=True, help="pq:|max:|comp:|seq:|iem: spec")
    p.add_argument("--poly", required=True)
    p.add_argument("--set", help="finite set (default: all integers)")

    p = add("representative", help="residue representative")
    p.add_argument("--ideal", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--set")

    p = add("frisch", help="residue separation product check")
    p.add_argument("--poly", required=True)
    p.add_argument("--p", type=int, required=True)

    p = add("snf", help="Smith normal form with transforms")
    p.add_argument("--matrix", required=True, help="rows ;-separated, entries ,-separated")

    p = add("bezout4", help="four-term strong Bezout relation over Z")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("d", type=int)

    p = add("content", help="unit-content decision")
    p.add_argument("--entries", required=True, help=";-separated polynomials")

    p = add("ucs", help="pair check for the 2x2 matrix criterion")
    p.add_argument("--B", required=True)
    p.add_argument("--C", required=True)

    p = add("tracenorm", help="normalize a pair to an idempotent")
    p.add_argument("--B", required=True)
    p.add_argument("--C", required=True)
    p.add_argument("--comb", help="four ;-separated combination polynomials")

    p = add("idem", help="idempotency check")
    p.add_argument("--M", required=True)

    p = add("example", help="the worked strong-Bezout instance")
    p.add_argument("action", choices=("verify", "search"))
    p.add_argument("--stdin", action="store_true", help="re-verify a JSON certificate")
    p.add_argument("--max-deg", type=int, default=1)
    p.add_argument("--max-height", type=int, default=3)
    p.add_argument("--budget", type=int, default=10000)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        if "--json" in argv:
            _emit_error(True, "parse_error", str(exc))
        else:
            exc.parser.print_usage(sys.stderr)
            print(f"{exc.parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # -h printed the help
        return exc.code if isinstance(exc.code, int) else 2
    # looked up on each call, not stored in the shared parser, so that a
    # handler replaced on this module (traced, or patched in a test) is used
    handler = globals()[f"cmd_{args.command}"]
    try:
        payload, lines = handler(args)
    except InputParseError as exc:
        _emit_error(args.json, "parse_error", str(exc))
        return 2
    except DomainError as exc:
        _emit_error(args.json, "domain_error", str(exc))
        return 1
    except Exception as exc:  # a fault of the program, reported, not raised
        _emit_error(args.json, "internal_error", f"{type(exc).__name__}: {exc}")
        return 1
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


def _emit_error(json_mode: bool, kind: str, message: str) -> None:
    if json_mode:
        print(json.dumps({"error": {"kind": kind, "message": message}}, sort_keys=True))
    else:
        print(f"error: {message}", file=sys.stderr)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
