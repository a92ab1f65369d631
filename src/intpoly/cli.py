"""Command-line front door.

One subcommand per library operation, each with a --json twin of its
human-readable output.  Exit codes: 0 for success (including honest
"unknown" verdicts), 1 for domain errors (precondition failures), 2 for
unparseable requests.  Identical requests produce byte-identical output.
An error is reported as {"error": {"kind", "message"}} on stdout when
--json is given, and on stderr otherwise.  `main(argv)` may be called any
number of times in one process; the parser is built on the first call.

Each subcommand is one row of `_COMMANDS`, registered by `@_command`: its
help, its options, a function from the request to its JSON payload, and the
renderer of its text from that payload where the text is not the payload's
`key: value` mirror.  `_convert` turns the option text into values, in
declared order, before the payload function runs.  Adding a subcommand is
one such row and a case in tests/golden_cli.json.

At module level only `arith` and `poly` are imported.  The rest of the
library is reached through the package, as `intpoly.vorder.v_ordering`,
which loads a module on first use: a request loads the modules of its own
subcommand only, and a function replaced in its module (traced, or patched
in a test) is the one that runs.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .arith import DomainError, InputParseError, parse_rational
from .poly import MAX_DEGREE, Polynomial, _height, parse_polynomial, residue_image

intpoly = sys.modules[__package__]

# -- option values ----------------------------------------------------------


def _parse_points(text: str) -> tuple:
    return tuple(parse_rational(s) for s in text.split(","))


def _parse_window(args):
    intpoly.sequences.require_window_length(args.seq)
    return intpoly.sequences.SeqWindow(args.p, _parse_points(args.seq))


def _parse_polys(text: str) -> tuple:
    return tuple(parse_polynomial(t) for t in text.split(";"))


def _parse_matrix(text: str, parse_cell) -> tuple:
    rows = tuple(tuple(parse_cell(c) for c in row.split(",")) for row in text.split(";"))
    if len({len(r) for r in rows}) != 1:
        raise InputParseError("matrix rows must have equal length")
    return rows


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise InputParseError(f"bad integer matrix: {exc}") from None


# the most rows and columns of an `snf` matrix: with entries in [-9, 9] a
# square matrix took 0.06 s at side 40, 0.45 s at 64 and 1.3 s at 80
# (Python 3.11, 2-core Xeon)
MAX_SNF_SIDE = 64

# an `snf` matrix of r rows and c columns whose entries are at most 2^h in
# size keeps r * c * h at most MAX_SNF_BITS.  The transforms' entries grow
# with it: at the cap, square matrices of side 64, 48, 32 and 16 reached
# matrices.MAX_SNF_HEIGHT and were refused in 1.3, 0.9, 0.44 and 0.17 s,
# and 64 x 16 and 16 x 64 answered in 0.5 and 0.25 s; 64 x 64 near 2^64,
# four times the cap, took 2.6 s to that refusal (Python 3.11, 2-core Xeon)
MAX_SNF_BITS = 2**16


def _snf_matrix(args) -> tuple:
    """The integer matrix of --matrix, refused above MAX_SNF_SIDE rows or
    columns, or with entries above 2^(MAX_SNF_BITS / (rows * columns))."""
    matrix = _parse_matrix(args.matrix, _parse_int)
    rows, columns = len(matrix), len(matrix[0])
    for size, unit in ((rows, "rows"), (columns, "columns")):
        if size > MAX_SNF_SIDE:
            raise InputParseError(
                f"a matrix of {size} {unit} exceeds the cap of {MAX_SNF_SIDE} {unit}"
            )
    height = max(abs(x) for row in matrix for x in row).bit_length()
    if rows * columns * height > MAX_SNF_BITS:
        raise InputParseError(
            f"an entry of size up to 2^{height} exceeds the cap of "
            f"2^{MAX_SNF_BITS // (rows * columns)} at {rows} x {columns}"
        )
    return matrix


def _parse_set(args):
    """The set --set and --all name; a subcommand without --all reads a
    missing --set as all integers."""
    every = getattr(args, "all", None)
    if every and args.set is not None:
        raise InputParseError("--set and --all are mutually exclusive")
    if args.set is not None:
        return intpoly.vorder.SubsetDescriptor.finite(_parse_points(args.set))
    if every is False:
        raise InputParseError("one of --set or --all is required")
    return intpoly.vorder.ALL_INTEGERS


def _read_certificate(args):
    """The certificate `example verify --stdin` reads; None otherwise."""
    if args.stdin and args.action == "verify":
        try:
            record = json.loads(sys.stdin.read())
        except RecursionError:
            raise InputParseError("certificate nested too deeply") from None
        return intpoly.example_lab.ExampleCertificate.from_json(record)
    return None


def _opt(flag: str, convert=None, **kwargs) -> tuple:
    """An option: its flag, its value as a function of the request, its add_argument keywords."""
    return flag, convert, kwargs


def _at_most(flag: str, cap: int):
    """The value of the integer option `flag`, refused above `cap`."""

    def convert(args):
        value = getattr(args, flag.lstrip("-"))
        if value is not None and value > cap:
            raise InputParseError(f"{flag} {value} exceeds the cap of {cap}")
        return value

    return convert


# the largest --n: an ordering of all integers of this length, its
# expansion or one basis polynomial on it takes about 0.3 s in process,
# and ten times as many about 3.5 s (Python 3.11, 2-core Xeon)
MAX_ORDERING_INDEX = 100_000


# a request of degree D (that of --poly, or --k; 1 without either) builds
# values of about D times the size of a point, so every point a must keep
# D * h(a) at most MAX_POINT_HEIGHT, where numerator and denominator of a are
# at most 2^h(a).  At the cap `expand`, `basis` and `member` at degree 300
# took at most 2.9, 1.4 and 0.7 s (1.4, 1.3 and 0.7 s with points below 2^10),
# and every value printed stays below Python's 4,300-digit limit on int to
# str conversion; at three times the cap `expand` reaches that limit
# (Python 3.11, 2-core Xeon)
MAX_POINT_HEIGHT = 4096


def _request_points(args) -> list:
    """The points of a converted request: those of --set, --seq and --x, and
    the point, window or approximation of a max:, seq: or comp: ideal."""
    points = []
    E, seq, ideal = (getattr(args, name, None) for name in ("set", "seq", "ideal"))
    if E is not None and E.is_finite:
        points += E.points
    if seq is not None:
        points += seq.points
    if getattr(args, "x", None) is not None:
        points.append(args.x)
    if ideal is not None:
        if isinstance(ideal, intpoly.spectrum.MaxTrivial):
            points.append(ideal.a)
        elif isinstance(ideal, intpoly.spectrum.MaxSequence):
            points += ideal.window.points
        elif isinstance(ideal, intpoly.spectrum.MaxCompletion):
            points.append(ideal.x.value)
    return points


def _require_point_heights(args) -> None:
    """Refuse a request whose degree times the height of a point exceeds
    MAX_POINT_HEIGHT."""
    points = _request_points(args)
    if not points:
        return
    poly = getattr(args, "poly", None)
    degree = max(1, poly.degree if poly is not None else 0, getattr(args, "k", None) or 0)
    height = max(_height(Polynomial.constant(x)) for x in points)
    if degree * height > MAX_POINT_HEIGHT:
        raise InputParseError(
            f"a point of size up to 2^{height} exceeds the cap of "
            f"2^{MAX_POINT_HEIGHT // degree} at degree {degree}"
        )


_MATRIX = "rows ;-separated, entries ,-separated"
_POINTS = "comma-separated points"
_P = _opt("--p", type=int, required=True)
_N = _opt(
    "--n", _at_most("--n", MAX_ORDERING_INDEX), type=int, help="last index of the ordering"
)
_POLY = _opt("--poly", lambda a: parse_polynomial(a.poly), required=True)
_SET = _opt("--set", _parse_set, help=_POINTS)
_ALL = _opt("--all", action="store_true", help="the set of all integers")
_SEQ = _opt("--seq", _parse_window, required=True, help=_POINTS)
_IDEAL = _opt(
    "--ideal", lambda a: intpoly.spectrum.parse_ideal(a.ideal), required=True,
    help="pq:|max:|comp:|seq:|iem: spec",
)
_B = _opt("--B", lambda a: _parse_matrix(a.B, parse_polynomial), required=True, help=_MATRIX)
_C = _opt("--C", lambda a: _parse_matrix(a.C, parse_polynomial), required=True, help=_MATRIX)


def _convert(args, options) -> None:
    """Replace the text of each option by its value, in declared order, then
    check the size of the request's points.  A value that is malformed or
    breaks an invariant of its type makes the request unparseable (exit 2),
    not a domain error."""
    try:
        for flag, convert, _ in options:
            if convert is not None:
                setattr(args, flag.lstrip("-"), convert(args))
    except (DomainError, ValueError) as exc:
        raise InputParseError(str(exc)) from None
    _require_point_heights(args)


# -- text from payloads -----------------------------------------------------


def _word(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return ", ".join(map(str, value))
    return str(value)


def _mirror(payload: dict, args) -> list:
    """One `key: value` line per payload key, in payload order."""
    return [f"{key.replace('_', ' ')}: {_word(value)}" for key, value in payload.items()]


def _rows(matrix) -> str:
    return "; ".join(",".join(map(str, row)) for row in matrix)


def _certificate_lines(cert: dict) -> list:
    lines = [f"{name:<5} = {cert[name]}" for name in intpoly.example_lab._POLY_FIELDS]
    lines[3] += f" (sign {cert['sign']:+d})"
    return lines + [f"check {name}: {_word(ok)}" for name, ok in cert["checks"].items()]


# -- the subcommands --------------------------------------------------------


# name -> (summary, options, payload function, renderer): the payload function
# maps the converted request to its JSON payload, the renderer maps
# (payload, request) to the text lines
_COMMANDS: dict = {}


def _command(name: str, summary: str, *options, render=_mirror):
    """Register the decorated payload function as subcommand `name`.  It and
    `render` look up what they call in its module, through the package, when
    they run (see the module docstring)."""

    def register(payload):
        _COMMANDS[name] = (summary, options, payload, render)
        return payload

    return register


def _last_index(a, otherwise):
    """--n, else the last index of a finite --set, else `otherwise`."""
    if a.n is not None:
        return a.n
    return len(a.set.points) - 1 if a.set.is_finite else otherwise


@_command("vorder", "greedy ordering with step valuations", _SET, _ALL, _P, _N)
def _vorder(a):
    n = _last_index(a, None)
    if n is None:
        raise InputParseError("--n is required with --all")
    vord = intpoly.vorder.v_ordering(a.set, n, a.p)
    return {"points": [str(x) for x in vord.points], "w": list(vord.w)}


@_command(
    "basis", "interpolation basis polynomial f_k", _SET, _ALL, _P, _N,
    _opt("--k", _at_most("--k", MAX_DEGREE), type=int, required=True),
    render=lambda p, a: [f"f_{p['k']} = {p['basis']}"],
)
def _basis(a):
    vorder = intpoly.vorder
    fk = vorder.regular_basis(vorder.v_ordering(a.set, _last_index(a, a.k), a.p), a.k)
    return {"k": a.k, "basis": str(fk)}


@_command(
    "expand", "expansion coefficients in the basis", _POLY, _SET, _ALL, _P, _N,
    render=lambda p, a: ["c: " + _word(p["coefficients"])],
)
def _expand(a):
    vorder = intpoly.vorder
    vord = vorder.v_ordering(a.set, _last_index(a, max(a.poly.degree, 0)), a.p)
    coeffs = vorder.expand_in_basis(a.poly, vord)
    return {"points": [str(x) for x in vord.points], "coefficients": [str(c) for c in coeffs]}


@_command(
    "member", "integer-valued membership at one prime", _POLY, _SET, _ALL, _P,
    _opt("--target", choices=("v", "m"), default="v"),
)
def _member(a):
    target = intpoly.vorder.MembershipTarget(a.target)
    return {"member": intpoly.vorder.int_membership(a.poly, a.set, a.p, target)}


@_command(
    "residues", "value set mod p over the integers", _POLY, _P,
    render=lambda p, a: ["residues mod p: " + _word(p["residues"])],
)
def _residues(a):
    return {"residues": sorted(residue_image(a.poly, a.p))}


@_command(
    "classify", "classify a sequence window", _P, _SEQ,
    render=lambda p, a: [f"class: {p['class']}", "gap valuations: " + _word(p["gapValuations"])],
)
def _classify(a):
    gaps = a.seq.gap_valuations()
    cls = intpoly.sequences._classify_gaps(a.seq, gaps)
    return {"class": cls.value, "gapValuations": [str(v) for v in gaps]}


@_command(
    "pseudolimit", "pseudo-limit test", _P, _SEQ,
    _opt("--x", lambda a: parse_rational(a.x), required=True),
    render=lambda p, a: [f"pseudo-limit: {_word(p['pseudo_limit'])}"],
)
def _pseudolimit(a):
    return {"pseudo_limit": intpoly.sequences.is_pseudo_limit(a.x, a.seq)}


@_command("imageclass", "classify the image of a window", _P, _SEQ, _POLY)
def _imageclass(a):
    start, cls, dichotomy = intpoly.sequences.image_window_classify(a.poly, a.seq)
    return {"suffix_start": start, "class": cls.value, "dichotomy": dichotomy.value}


def _render_ideal(p, a):
    reason = f" ({p['reason']})" if "reason" in p else ""
    return [f"membership: {p['verdict']}{reason}"]


@_command(
    "ideal", "ideal membership over --set or all integers",
    _opt("action", choices=("member",)), _IDEAL, _POLY, _SET,
    render=_render_ideal,
)
def _ideal(a):
    verdict = intpoly.spectrum.ideal_membership(a.poly, a.ideal, a.set)
    payload = {"verdict": verdict.value}
    if verdict.reason:
        payload["reason"] = verdict.reason
    return payload


@_command(
    "representative", "residue representative over --set or all integers",
    _IDEAL, _POLY, _SET,
    render=lambda p, a: [f"representative: {p.get('residue', 'unknown')}"],
)
def _representative(a):
    s = intpoly.spectrum.residue_representative(a.poly, a.ideal, a.set)
    return {"verdict": "unknown"} if s is None else {"verdict": "yes", "residue": s}


def _render_frisch(p, a):
    return [
        "residues: " + _word(p["residues"]),
        "separation product in maximal-ideal layer: " + _word(p["product_in_ideal"]),
    ]


@_command("frisch", "residue separation product check", _POLY, _P, render=_render_frisch)
def _frisch(a):
    residues, in_ideal = intpoly.spectrum.separation_check(a.poly, a.p)
    return {"residues": sorted(residues), "product_in_ideal": in_ideal}


@_command(
    "snf", "Smith normal form with transforms",
    _opt("--matrix", _snf_matrix, required=True, help=_MATRIX),
    render=lambda p, a: [f"{name}: {_rows(p[name])}" for name in "USW"],
)
def _snf(a):
    result = intpoly.matrices.snf_with_transforms(a.matrix)
    payload = {name: [list(r) for r in getattr(result, name)] for name in "USW"}
    payload["diagonal"] = list(result.diagonal)
    return payload


def _render_bezout4(p, a):
    alpha, beta, gamma, delta = p["alpha"], p["beta"], p["gamma"], p["delta"]
    return [
        f"alpha={alpha} beta={beta} gamma={gamma} delta={delta}",
        f"{a.a}*({alpha}) + {a.b}*({beta}) + {a.c}*({gamma}) + {a.d}*({delta}) = 1",
        f"alpha*delta = beta*gamma = {alpha * delta}",
    ]


@_command(
    "bezout4", "four-term strong Bezout relation over Z",
    *(_opt(name, type=int) for name in "abcd"),
    render=_render_bezout4,
)
def _bezout4(a):
    alpha, beta, gamma, delta = intpoly.matrices.strong_bezout_z(a.a, a.b, a.c, a.d)
    return {
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
        "delta": delta,
        "unit_identity": a.a * alpha + a.b * beta + a.c * gamma + a.d * delta == 1,
        "rank_one_identity": alpha * delta == beta * gamma,
    }


def _render_content(p, a):
    if p["unit"]:
        return [f"content: unit (c = {p['c']})"]
    w = p["witness"]
    if w["kind"] == "pq":
        return [f"content: non-unit (common divisor {w['gcd']})"]
    return [
        f"content: non-unit (all entries vanish mod {w['p']} on the class "
        f"{w['residue']} mod {w['p']}^{w['modulus_exp']})"
    ]


@_command(
    "content", "unit-content decision",
    _opt("--entries", lambda a: _parse_polys(a.entries), required=True,
         help=";-separated polynomials"),
    render=_render_content,
)
def _content(a):
    return intpoly.matrices.unit_content_decide(a.entries).to_json()


def _render_ucs(p, a):
    return [
        f"cont(BC) unit: {_word(p['content_unit'])}",
        f"det(BC) zero: {_word(p['det_zero'])}",
        f"B qualifies: {_word(p['qualification']['qualifies'])}",
    ]


@_command("ucs", "pair check for the 2x2 matrix criterion", _B, _C, render=_render_ucs)
def _ucs(a):
    return intpoly.matrices.ucs_pair_check(a.B, a.C).to_json()


@_command(
    "tracenorm", "normalize a pair to an idempotent", _B, _C,
    _opt("--comb", lambda a: a.comb and _parse_polys(a.comb),
         help="four ;-separated combination polynomials"),
    render=lambda p, a: ["C0: " + _rows(p["C0"])],
)
def _tracenorm(a):
    matrices = intpoly.matrices
    B, C, comb = a.B, a.C, a.comb
    matrices.require_2x2("trace normalization", B, C)
    if comb and len(comb) != 4:
        raise InputParseError("--comb needs exactly four ;-separated entries")
    if not comb:
        M = matrices.poly_mat_mul(B, C)
        if all(e.is_integer_constant for row in M for e in row):
            entries = tuple(tuple(int(e.coefficient(0)) for e in r) for r in M)
            comb = matrices.trace_combination_z(entries)
        else:
            comb = matrices.trace_combination_search(M)
            if comb is None:
                raise DomainError("no combination found within the bounded search; pass --comb")
    C0 = matrices.trace_normalize(B, C, comb)
    product = matrices.poly_mat_mul(B, C0)
    return {
        "C0": [[str(e) for e in row] for row in C0],
        "BC0": [[str(e) for e in row] for row in product],
        "trace": str(matrices.poly_trace(product)),
        "det_C0": str(matrices.poly_det2(C0)),
        "idempotent": True,
    }


@_command(
    "idem", "idempotency check",
    _opt("--M", lambda a: _parse_matrix(a.M, parse_polynomial), required=True, help=_MATRIX),
)
def _idem(a):
    idem, nontrivial = intpoly.matrices.idempotent_check(a.M)
    return {"idempotent": idem, "nontrivial": nontrivial}


def _render_example(p, a):
    if a.action == "search":
        return [f"solutions found: {p['count']}"] + [
            f"  beta={c['beta']} gamma={c['gamma']} sign={c['sign']:+d}"
            for c in p["certificates"]
        ]
    lines = _certificate_lines(p["certificate"])
    if "matches_input" in p:
        lines.append(f"matches input: {_word(p['matches_input'])}")
    return lines


@_command(
    "example", "the worked strong-Bezout instance",
    _opt("action", choices=("verify", "search")),
    _opt("--stdin", _read_certificate, action="store_true",
         help="re-verify a JSON certificate"),
    _opt("--max-deg", type=int, default=1),
    _opt("--max-height", type=int, default=3),
    _opt("--budget", type=int, default=10000),
    render=_render_example,
)
def _example(a):
    example_lab = intpoly.example_lab
    if a.action == "search":
        certs = example_lab.bounded_search(a.max_deg, a.max_height, a.budget)
        return {"count": len(certs), "certificates": [c.to_json() for c in certs]}
    if a.stdin is None:
        return {"certificate": example_lab.verify_known_solution().to_json()}
    recomputed, given = a.stdin.re_verify().to_json(), a.stdin.to_json()
    matches = all(given[k] == v for k, v in recomputed.items() if k != "checks") and all(
        given["checks"].get(name) == ok for name, ok in recomputed["checks"].items()
    )
    return {"certificate": recomputed, "matches_input": matches}


# -- parser -----------------------------------------------------------------


class _UsageError(Exception):
    """An argparse usage error, raised instead of exiting so that main()
    can report it in the format the request asked for."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser that reads a token that starts with a single '-'
    and names no option as a value, and raises _UsageError where argparse
    would print usage and exit.

    argparse reads such a token as a value only when it looks like a negative
    number, so `--matrix -2,4;6,8`, `--poly -X` or `--set -1,0,2` would leave
    the option without a value.  Here its negative-number rule matches every
    such token; one that names an option is still that option, and `-hX` is
    -h with X attached.  Subparsers are built with the parent's class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile("-[^-]")

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
    for name, (summary, options, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--json", action="store_true", help="emit JSON")
        for flag, _, kwargs in options:
            p.add_argument(flag, **kwargs)
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
    _, options, payload_of, render = _COMMANDS[args.command]
    try:
        _convert(args, options)
        payload = payload_of(args)
        if args.json:
            lines = [json.dumps(payload, sort_keys=True)]
        else:
            lines = render(payload, args)
    except InputParseError as exc:
        _emit_error(args.json, "parse_error", str(exc))
        return 2
    except DomainError as exc:
        _emit_error(args.json, "domain_error", str(exc))
        return 1
    except Exception as exc:  # a fault of the program, reported, not raised
        _emit_error(args.json, "internal_error", f"{type(exc).__name__}: {exc}")
        return 1
    print("\n".join(lines))
    return 0


def _emit_error(json_mode: bool, kind: str, message: str) -> None:
    if json_mode:
        print(json.dumps({"error": {"kind": kind, "message": message}}, sort_keys=True))
    else:
        print(f"error: {message}", file=sys.stderr)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed standard output: exit 1 without a traceback, with
        # the descriptor pointed at devnull so that the interpreter's last
        # flush of what is still buffered does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
