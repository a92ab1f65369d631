"""Workload `requests`: a seeded mix of CLI requests, run in process through
`intpoly.cli.main(argv + ["--json"])` with standard output captured.

Arguments are typed as a user types them.  A value that starts with "-" is
passed as `--option=value`, the form that works around the argparse fault
kept below; the fault itself is exercised by fixed requests.

A round holds `REPEAT` copies of the mix in `MIX` (seeded inputs, fresh for
each copy) plus `REPEAT` copies of the five fixed requests in `FAULTS`.
Those five fail on every run until their faults are fixed, so the failed
share is the same for every seed and every run length.
"""
from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial
from math import ceil, gcd

from exact import (
    INF,
    Op,
    all_values_valuation_at_least,
    binomial,
    deg,
    den_period_exp,
    det_int,
    expect,
    fmt_poly,
    int_numerator,
    is_int_valued,
    matmul,
    padd,
    parse_out_poly,
    pdivmod,
    period_exp,
    peval,
    pmul,
    prime_divisors,
    pscale,
    psub,
    residue_mod_p,
    triple_class,
    trim,
    unit_content,
    value_set_mod_p,
    vp_int,
    vp_q,
)
from search import check_certificate

REPEAT = 4
PRIMES = (2, 3, 5, 7, 11, 13)
ONE = (Fraction(1),)
X = (Fraction(0), Fraction(1))
# the printed g of the worked example; its degree-3 coefficient is corrupted
PRINTED_G = tuple(map(Fraction, (-12, 8, 43, 22, -6, -6, -1)))


def run_cli(argv):
    from intpoly.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv) + ["--json"])
    return code, out.getvalue()


def answer_json(answer):
    """The JSON answer, or None when the request produced none."""
    code, text = answer
    if code != 0 or not text.strip():
        return None
    return json.loads(text)


def on_json(check, alter) -> tuple:
    """Lift a check and an alteration of the JSON answer to (exit code,
    stdout) answers.  A request that printed no JSON answer has failed, and
    so has one whose check returns False; a check raises Mismatch on a
    wrong answer."""

    def judge(answer):
        got = answer_json(answer)
        return got is not None and check(got) is not False

    def altered(answer):
        got = alter(answer_json(answer) or {})
        return 0, json.dumps(got, sort_keys=True) + "\n"

    return judge, altered


def opt(name: str, value: str) -> list:
    return [f"--{name}={value}"] if value.startswith("-") else [f"--{name}", value]


# -- seeded inputs -------------------------------------------------------------------


def gen_poly(rng, p, dmin: int = 2, dmax: int = 6) -> tuple:
    """sum c_k C(X, k) with small c_k.  With a prime p, some c_k carry a
    denominator prime to p (integer-valued at p only); with p None all c_k
    are integers (integer-valued everywhere)."""
    d = rng.randint(dmin, dmax)
    total = ()
    for k in range(d + 1):
        c = rng.randint(-4, 4) if k < d else rng.choice((-3, -2, -1, 1, 2, 3))
        den = 1 if p is None else rng.choice([1, 1, 1] + [q for q in (2, 3, 5) if q != p])
        total = padd(total, pscale(binomial(k), Fraction(c, den)))
    return total


def gen_window(rng, p: int, length: int, kind: str = "convergent") -> tuple:
    """Integer windows: gap valuations increasing (pseudo-convergent),
    decreasing (pseudo-divergent), all pairwise valuations equal
    (pseudo-stationary; needs p >= length) or random."""
    start = rng.randint(-20, 20)
    if kind == "random":
        pts = set()
        while len(pts) < length:
            pts.add(rng.randint(-60, 60))
        return tuple(rng.sample(sorted(pts), length))
    if kind == "stationary":
        k = rng.randint(0, 1)
        return tuple(start + p ** k * r for r in rng.sample(range(p), length))
    shift = rng.randint(0, 1)
    pts = [start]
    for i in range(length - 1):
        k = i + shift if kind == "convergent" else length - 2 - i + shift
        pts.append(pts[-1] + p ** k * rng.choice([u for u in range(-p + 1, p) if u % p]))
    return tuple(pts)


def comp_precision(rng, f, p: int) -> int:
    """N outside [e, 1 + v_p(m)), e the period exponent: the window where the
    denominator-only threshold answers unknown is left to the fixed faults."""
    e, d = period_exp(f, p), den_period_exp(f, p)
    return rng.choice(list(range(1, e)) + [d, d + 1])


# -- checks shared by several kinds --------------------------------------------------


def residue(f, p: int, x) -> int:
    F, m = int_numerator(f)
    return residue_mod_p(F, m, p, x)


def lifts_agree(f, p: int, x: int, N: int) -> bool:
    """Whether f mod p is the same on every lift of x mod p^N to the period."""
    e = den_period_exp(f, p)
    if N >= e:
        return True
    return len({residue(f, p, x + p ** N * t) for t in range(p ** (e - N))}) == 1


def half_window(pts):
    return pts[len(pts) - ceil(len(pts) / 2):]


def expect_comp_verdict(f, p, x, N, got) -> bool:
    """False when the program answers unknown at a precision that decides."""
    if got["verdict"] == "unknown":
        expect(got.get("reason") == "insufficient_precision", f"unknown reason {got.get('reason')}")
        return N < period_exp(f, p)
    expect(lifts_agree(f, p, x, N), f"decided although lifts of {x} mod {p}^{N} disagree")
    want = "yes" if residue(f, p, x) == 0 else "no"
    expect(got["verdict"] == want, f"comp verdict {got['verdict']}, expected {want}")


def check_content_certificate(entries, got) -> None:
    """A unit verdict must carry an integer c in the ideal and coverage of
    every class at every prime of c; a non-unit verdict a common divisor or a
    class on which every entry vanishes mod p."""
    if got["unit"]:
        c = got["c"]
        mults = [parse_out_poly(u) for u in got["multipliers"]]
        expect(len(mults) == len(entries), "one multiplier per entry")
        combo = ()
        for u, e in zip(mults, entries):
            expect(is_int_valued(u), f"multiplier {fmt_poly(u)} is not integer-valued")
            combo = padd(combo, pmul(u, e))
        expect(isinstance(c, int) and c > 0 and combo == trim((c,)), "multipliers do not sum to c")
        cover = got["coverage"]
        for p in prime_divisors(c):
            table = {int(r): i for r, i in cover[str(p)].items()}
            size = len(table)
            expect(set(table) == set(range(size)) and size > 1 and p ** vp_int(size, p) == size,
                   f"coverage at {p} is not one period")
            for alpha in range(max(size, p ** max(den_period_exp(e, p) for e in entries if e))):
                idx = table[alpha % size]
                expect(entries[idx] and residue(entries[idx], p, alpha) != 0,
                       f"entry {idx} is not a unit at {alpha} mod {p}")
        return
    witness = got["witness"]
    if witness["kind"] == "pq":
        h = parse_out_poly(witness["gcd"])
        expect(deg(h) >= 1, "gcd witness is constant")
        for e in entries:
            expect(not pdivmod(e, h)[1], f"{witness['gcd']} does not divide {fmt_poly(e)}")
        return
    p, r, k = witness["p"], witness["residue"], witness["modulus_exp"]
    E = max(den_period_exp(e, p) for e in entries if e)
    for t in range(p ** max(E - k, 0)):
        for e in entries:
            expect(not e or residue(e, p, r + p ** k * t) == 0,
                   f"{fmt_poly(e)} is a unit on {r} mod {p}^{k}")


# -- request kinds -------------------------------------------------------------------
# each maker draws one request: (argv, check(json answer), alter(json answer))


def flip_verdict(got):
    got["verdict"] = {"yes": "no", "no": "yes", "unknown": "yes"}[got["verdict"]]
    got.pop("reason", None)
    return got


def make_ideal_max(rng):
    p = rng.choice(PRIMES)
    f, a = gen_poly(rng, p), rng.randint(-40, 40)

    def check(got):
        want = "yes" if residue(f, p, a) == 0 else "no"
        expect(got["verdict"] == want, f"max verdict {got['verdict']}, expected {want}")

    argv = ["ideal", "member", "--ideal", f"max:p={p},a={a}", *opt("poly", fmt_poly(f))]
    return argv, check, flip_verdict


def make_ideal_comp(rng):
    p = rng.choice(PRIMES)
    f = gen_poly(rng, p)
    N = comp_precision(rng, f, p)
    x = rng.randrange(p ** N)

    def check(got):
        return expect_comp_verdict(f, p, x, N, got)

    argv = ["ideal", "member", "--ideal", f"comp:p={p},x={x},N={N}", *opt("poly", fmt_poly(f))]
    return argv, check, flip_verdict


def seq_verdict(f, p, pts):
    vals = [vp_q(peval(f, x), p) for x in half_window(pts)]
    if all(v >= 1 for v in vals):
        return "yes"
    if all(v == 0 for v in vals):
        return "no"
    return "unknown"


def make_ideal_seq(rng):
    p = rng.choice(PRIMES[:4])
    f = gen_poly(rng, p)
    pts = gen_window(rng, p, rng.randint(4, 6))

    def check(got):
        want = seq_verdict(f, p, pts)
        expect(got["verdict"] == want, f"seq verdict {got['verdict']}, expected {want}")

    spec = f"seq:p={p},pts=" + ",".join(map(str, pts))
    return ["ideal", "member", "--ideal", spec, *opt("poly", fmt_poly(f))], check, flip_verdict


def make_ideal_iem(rng):
    p = rng.choice(PRIMES)
    f = gen_poly(rng, p)
    if rng.random() < 0.5:
        f = pscale(f, p)

    def check(got):
        want = "yes" if all_values_valuation_at_least(f, p, 1) else "no"
        expect(got["verdict"] == want, f"iem verdict {got['verdict']}, expected {want}")

    return ["ideal", "member", "--ideal", f"iem:p={p}", *opt("poly", fmt_poly(f))], check, flip_verdict


def shift_residue(p):
    def alter(got):
        if got["verdict"] == "unknown":
            got = {"verdict": "yes", "residue": 0}
        else:
            got["residue"] = (got["residue"] + 1) % p
        return got

    return alter


def make_rep(rng, where: str):
    p = rng.choice(PRIMES if where != "seq" else PRIMES[:4])
    f = gen_poly(rng, p)
    if where == "max":
        a = rng.randint(-40, 40)
        spec = f"max:p={p},a={a}"
    elif where == "comp":
        N = comp_precision(rng, f, p)
        x = rng.randrange(p ** N)
        spec = f"comp:p={p},x={x},N={N}"
    else:
        pts = gen_window(rng, p, rng.randint(4, 6))
        spec = f"seq:p={p},pts=" + ",".join(map(str, pts))

    def check(got):
        if where == "max":
            expect(got == {"verdict": "yes", "residue": residue(f, p, a)}, f"max representative {got}")
        elif where == "comp":
            if got["verdict"] == "unknown":
                return N < period_exp(f, p)
            expect(lifts_agree(f, p, x, N), "representative decided on disagreeing lifts")
            expect(got["residue"] == residue(f, p, x), f"comp representative {got}")
        else:
            tail = {residue(f, p, x) for x in half_window(pts)}
            if got["verdict"] == "unknown":
                expect(len(tail) > 1, "seq representative unknown on a constant tail")
            else:
                expect(tail == {got["residue"]}, f"seq representative {got}, tail residues {tail}")

    return ["representative", "--ideal", spec, *opt("poly", fmt_poly(f))], check, shift_residue(p)


def make_residues(rng):
    p = rng.choice(PRIMES)
    f = gen_poly(rng, p)

    def check(got):
        want = sorted(value_set_mod_p(f, p))
        expect(got["residues"] == want, f"residues {got['residues']}, expected {want}")

    def alter(got):
        got["residues"] = sorted(set(got["residues"]) ^ {0})
        return got

    return ["residues", *opt("poly", fmt_poly(f)), "--p", str(p)], check, alter


def make_frisch(rng):
    p = rng.choice(PRIMES[:3])
    f = gen_poly(rng, p, 2, 4)

    def check(got):
        want = sorted(value_set_mod_p(f, p))
        expect(got == {"residues": want, "product_in_ideal": True}, f"frisch {got}, residues {want}")

    def alter(got):
        got["product_in_ideal"] = False
        return got

    return ["frisch", *opt("poly", fmt_poly(f)), "--p", str(p)], check, alter


def flip_bool(key):
    def alter(got):
        got[key] = not got[key]
        return got

    return alter


def make_member(rng, finite: bool, target: str):
    p = rng.choice(PRIMES)
    f = gen_poly(rng, p)
    if rng.random() < 0.3:
        f = pscale(f, Fraction(1, p))
    k = 0 if target == "v" else 1
    if finite:
        pts = sorted({Fraction(rng.randint(-30, 30), rng.choice((1, 1, 7, 11, 13) if p < 7 else (1, 2, 3))) for _ in range(6)})
        argv = ["member", *opt("poly", fmt_poly(f)), *opt("set", ",".join(map(str, pts)))]
    else:
        argv = ["member", *opt("poly", fmt_poly(f)), "--all"]

    def check(got):
        if finite:
            want = min(vp_q(peval(f, a), p) for a in pts) >= k
        else:
            want = all_values_valuation_at_least(f, p, k)
        expect(got["member"] == want, f"member {got['member']}, expected {want}")

    return argv + ["--p", str(p), "--target", target], check, flip_bool("member")


def make_classify(rng, kind: str):
    p = rng.choice((5, 7)) if kind == "stationary" else rng.choice(PRIMES[:4])
    pts = gen_window(rng, p, rng.randint(4, 5 if kind == "stationary" else 6), kind)

    def check(got):
        gaps = [str(vp_q(b - a, p)) for a, b in zip(pts, pts[1:])]
        want = {"class": triple_class(pts, p), "gapValuations": gaps}
        expect(got == want, f"classify {got}, expected {want}")

    def alter(got):
        got["class"] = "none" if got["class"] != "none" else "pseudo_convergent"
        return got

    return ["classify", "--p", str(p), *opt("seq", ",".join(map(str, pts)))], check, alter


def make_pseudolimit(rng):
    p = rng.choice(PRIMES[:4])
    pts = gen_window(rng, p, rng.randint(4, 6))
    if rng.random() < 0.5:
        top = vp_q(pts[-1] - pts[-2], p)
        x = pts[-1] + p ** (top + 1) * rng.choice((1, -1, p))
    else:
        x = rng.randint(-60, 60)

    def check(got):
        vals = [vp_q(x - a, p) for a in pts]
        want = INF not in vals and all(a < b for a, b in zip(vals, vals[1:]))
        expect(got["pseudo_limit"] == want, f"pseudo-limit {got}, expected {want}")

    argv = ["pseudolimit", "--p", str(p), *opt("seq", ",".join(map(str, pts))), *opt("x", str(x))]
    return argv, check, flip_bool("pseudo_limit")


def image_class(f, pts, p):
    images = [peval(f, x) for x in pts]
    for start in range(len(images) - 2):
        tail = images[start:]
        if len(set(tail)) == len(tail) and triple_class(tail, p) == "pseudo_convergent":
            vals = [vp_q(y, p) for y in tail]
            if all(a < b for a, b in zip(vals, vals[1:])):
                dich = "increasing"
            elif any(
                all(v == vals[n0] for v in vals[n0:]) and vals[n0] != INF
                for n0 in range(len(vals) - 1)
            ):
                dich = "eventually_constant"
            else:
                dich = "undetermined"
            return {"suffix_start": start, "class": "pseudo_convergent", "dichotomy": dich}
    return {"suffix_start": len(images), "class": "none", "dichotomy": "undetermined"}


def make_imageclass(rng):
    p = rng.choice(PRIMES[:4])
    pts = gen_window(rng, p, rng.randint(4, 6))
    f = gen_poly(rng, p, 1, 4)

    def check(got):
        want = image_class(f, pts, p)
        expect(got == want, f"imageclass {got}, expected {want}")

    def alter(got):
        got["suffix_start"] += 1
        return got

    argv = ["imageclass", "--p", str(p), *opt("seq", ",".join(map(str, pts))), *opt("poly", fmt_poly(f))]
    return argv, check, alter


def small_poly(rng, top: int = 1) -> tuple:
    return gen_poly(rng, None, 0, top)


def make_content(rng):
    """An integer with a polynomial, two polynomials, or g with g*h + 1
    (a unit pair by construction)."""
    shape = rng.randrange(3)
    g = gen_poly(rng, None, 1, 2)
    if shape == 0:
        entries = (trim((rng.randint(2, 12),)), g)
    elif shape == 1:
        entries = (g, gen_poly(rng, None, 1, 2))
    else:
        entries = (g, padd(pmul(g, small_poly(rng)), ONE))

    def check(got):
        check_content_certificate(entries, got)

    def alter(got):
        if got["unit"]:
            got["c"] += 1
        elif got["witness"]["kind"] == "pq":
            got["witness"]["gcd"] = "X + 12345"
        else:
            got = {"unit": True, "c": 1, "multipliers": ["0"] * len(entries), "coverage": {}}
        return got

    return ["content", *opt("entries", ";".join(fmt_poly(e) for e in entries))], check, alter


def poly_det2(M):
    return psub(pmul(M[0][0], M[1][1]), pmul(M[0][1], M[1][0]))


def poly_matmul(A, B):
    return [
        [padd(pmul(A[i][0], B[0][j]), pmul(A[i][1], B[1][j])) for j in range(2)]
        for i in range(2)
    ]


def fmt_matrix(M) -> str:
    return ";".join(",".join(fmt_poly(e) for e in row) for row in M)


def parse_out_matrix(rows):
    return [[parse_out_poly(e) for e in row] for row in rows]


def make_ucs(rng):
    """B = [[a, X + s], [b, d]] with an integer corner a (a unit in a quarter
    of the draws, so that a suggested C is reported) and d half the time a
    constant prime to a; C = v (1, r) of rank one, so det(BC) = 0."""
    a = rng.choice((1, -1)) if rng.random() < 0.25 else rng.choice((2, 3, 4, 6))
    if rng.random() < 0.5:
        d = trim((rng.choice([k for k in range(-7, 8) if gcd(k, a) == 1]),))
    else:
        d = small_poly(rng)
    B = [[trim((a,)), trim((rng.randint(-3, 3), 1))], [small_poly(rng), d]]
    v, r = (small_poly(rng), small_poly(rng)), rng.randint(-2, 2)
    C = [[v[0], pscale(v[0], r)], [v[1], pscale(v[1], r)]]

    def check(got):
        M = poly_matmul(B, C)
        entries = [e for row in M for e in row]
        expect(got["det_zero"] == (not poly_det2(M)), "det(BC) zero flag")
        if any(entries):
            check_content_certificate(entries, got["content"])
            expect(got["content_unit"] == got["content"]["unit"], "content_unit flag")
        else:
            expect(got["content"] is None and not got["content_unit"], "zero product content")
        q = got["qualification"]
        a_ok = abs(a) != 1
        acd = unit_content([B[0][0], B[0][1], B[1][1]], known_integer=a)
        det_out = deg(poly_det2(B)) >= 1
        want = {"a_nonunit_integer": a_ok, "acd_content_unit": acd,
                "det_outside_integers": det_out, "qualifies": a_ok and acd and det_out}
        expect(q == want, f"qualification {q}, expected {want}")
        suggested = got["suggested_c"]
        if suggested is None:
            expect(a_ok or want["qualifies"], "a unit corner comes with the suggested C [[1,1],[0,0]]")
            if not (want["qualifies"] or det_out):
                for r in range(-20, 21):
                    pair = [padd(B[0][0], pscale(B[0][1], r)), padd(B[1][0], pscale(B[1][1], r))]
                    expect(not any(pair) or not unit_content(pair), f"C = [[1,1],[{r},{r}]] is suitable")
        else:
            Cs = parse_out_matrix(suggested)
            expect(not poly_det2(Cs), "suggested C has nonzero determinant")
            expect(unit_content([e for row in poly_matmul(B, Cs) for e in row]), "suggested C gives non-unit content")

    argv = ["ucs", *opt("B", fmt_matrix(B)), *opt("C", fmt_matrix(C))]
    return argv, check, flip_bool("det_zero")


def check_snf(A, got) -> None:
    U, S, W, diag = got["U"], got["S"], got["W"], got["diagonal"]
    expect(matmul(matmul(U, A), W) == S, "U*A*W != S")
    expect(abs(det_int(U)) == 1 and abs(det_int(W)) == 1, "transform is not unimodular")
    r = min(len(S), len(S[0]))
    expect(all(S[i][j] == 0 for i in range(len(S)) for j in range(len(S[0])) if i != j), "S is not diagonal")
    expect(diag == [S[i][i] for i in range(r)] and all(d >= 0 for d in diag), "bad diagonal")
    expect(all(diag[i + 1] % diag[i] == 0 if diag[i] else diag[i + 1] == 0 for i in range(r - 1)),
           f"diagonal {diag} is not a divisibility chain")


def alter_snf(got):
    got["S"][0][0] += 1
    got["diagonal"][0] += 1
    return got


def make_snf(rng):
    rows, cols = rng.randint(2, 4), rng.randint(2, 4)
    A = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]

    def check(got):
        check_snf(A, got)

    return ["snf", *opt("matrix", ";".join(",".join(map(str, r)) for r in A))], check, alter_snf


def make_bezout4(rng):
    while True:
        q = [rng.randint(-30, 30) for _ in range(4)]
        if gcd(gcd(q[0], q[1]), gcd(q[2], q[3])) == 1:
            break

    def check(got):
        al, be, ga, de = got["alpha"], got["beta"], got["gamma"], got["delta"]
        expect(q[0] * al + q[1] * be + q[2] * ga + q[3] * de == 1, "unit identity fails")
        expect(al * de == be * ga, "rank-one identity fails")
        expect(got["unit_identity"] and got["rank_one_identity"], "identity flags")

    def alter(got):
        got["alpha"] += 1
        return got

    return ["bezout4", *map(str, q)], check, alter


def make_idem(rng):
    if rng.random() < 0.5:
        # v w^T with w.v = 1: v = (1, f), w = (1 - f g, g)
        f, g = small_poly(rng), small_poly(rng)
        fg = pmul(f, g)
        M = [[psub(ONE, fg), g], [pmul(f, psub(ONE, fg)), fg]]
    else:
        M = [[small_poly(rng) for _ in range(2)] for _ in range(2)]

    def check(got):
        idem = poly_matmul(M, M) == M
        nontrivial = any(e for row in M for e in row) and M != [[ONE, ()], [(), ONE]]
        expect(got == {"idempotent": idem, "nontrivial": nontrivial}, f"idem {got}")

    return ["idem", *opt("M", fmt_matrix(M))], check, flip_bool("idempotent")


def check_example(got) -> None:
    cert = got["certificate"]
    check_certificate(cert)
    g = parse_out_poly(cert["g"])
    expect(
        any({k for k, c in enumerate(psub(cand, PRINTED_G)) if c} <= {3} for cand in (g, pscale(g, -1))),
        "g differs from the printed g beyond its degree-3 coefficient",
    )


def alter_example(got):
    got["certificate"]["alpha"] = fmt_poly(padd(parse_out_poly(got["certificate"]["alpha"]), X))
    return got


# -- fixed requests that fail on two known faults ------------------------------------

C4 = binomial(4)  # X(X-1)(X-2)(X-3)/24


def check_fault_comp_member(got):
    return expect_comp_verdict(C4, 2, 5, 3, got)


def check_fault_comp_rep(got):
    if got["verdict"] == "unknown":
        return False
    expect(got["residue"] == residue(C4, 2, 5), f"comp representative {got}")


def check_fault_snf(got):
    check_snf([[-2, 4], [6, 8]], got)


def check_fault_member(got):
    expect(got["member"] is True, "-X is integer-valued")


def check_fault_vorder(got):
    pts = [Fraction(s) for s in got["points"]]
    expect(sorted(pts) == [-1, 0, 2], "vorder points")
    w = [sum(vp_q(a - b, 2) for b in pts[:k]) for k, a in enumerate(pts)]
    expect(got["w"] == w and w == [0, 0, 1], f"vorder w {got['w']}")


def fault_alter(payload):
    return lambda got: payload


# faults: (1) comp: thresholds use only the denominator bound, so
# comp:p=2,x=5,N=3 on C(X,4) answers unknown though N=3 decides it;
# (2) argparse takes a value that starts with "-" and has no space for an option.
FAULTS = (
    ("fault.comp_member",
     ["ideal", "member", "--ideal", "comp:p=2,x=5,N=3", "--poly", "X(X-1)(X-2)(X-3)/24"],
     check_fault_comp_member, fault_alter({"verdict": "yes"})),
    ("fault.comp_representative",
     ["representative", "--ideal", "comp:p=2,x=5,N=3", "--poly", "X(X-1)(X-2)(X-3)/24"],
     check_fault_comp_rep, fault_alter({"verdict": "yes", "residue": 0})),
    ("fault.snf_negative", ["snf", "--matrix", "-2,4;6,8"], check_fault_snf,
     fault_alter({"U": [[1, 0], [0, 1]], "S": [[2, 0], [0, 8]], "W": [[1, 0], [0, 1]], "diagonal": [2, 8]})),
    ("fault.member_negative", ["member", "--poly", "-X", "--all", "--p", "2"], check_fault_member,
     fault_alter({"member": False})),
    ("fault.vorder_negative", ["vorder", "--set", "-1,0,2", "--p", "2"], check_fault_vorder,
     fault_alter({"points": ["-1", "0", "2"], "w": [0, 0, 2]})),
)

MIX = (
    ("ideal.max", 3, make_ideal_max),
    ("ideal.comp", 4, make_ideal_comp),
    ("ideal.seq", 3, make_ideal_seq),
    ("ideal.iem", 3, make_ideal_iem),
    ("representative.max", 2, partial(make_rep, where="max")),
    ("representative.comp", 3, partial(make_rep, where="comp")),
    ("representative.seq", 2, partial(make_rep, where="seq")),
    ("residues", 4, make_residues),
    ("frisch", 2, make_frisch),
    ("member.all_v", 1, partial(make_member, finite=False, target="v")),
    ("member.all_m", 1, partial(make_member, finite=False, target="m")),
    ("member.set_v", 1, partial(make_member, finite=True, target="v")),
    ("member.set_m", 1, partial(make_member, finite=True, target="m")),
    ("classify.convergent", 1, partial(make_classify, kind="convergent")),
    ("classify.divergent", 1, partial(make_classify, kind="divergent")),
    ("classify.stationary", 1, partial(make_classify, kind="stationary")),
    ("classify.random", 1, partial(make_classify, kind="random")),
    ("pseudolimit", 2, make_pseudolimit),
    ("imageclass", 2, make_imageclass),
    ("content", 3, make_content),
    ("ucs", 2, make_ucs),
    ("snf", 3, make_snf),
    ("bezout4", 2, make_bezout4),
    ("idem", 3, make_idem),
)


def build(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for _ in range(REPEAT):
        for kind, count, make in MIX:
            for _ in range(count):
                argv, check, alter = make(rng)
                ops.append(Op(kind, partial(run_cli, argv), *on_json(check, alter)))
        ops.append(Op("example.verify", partial(run_cli, ["example", "verify"]),
                      *on_json(check_example, alter_example)))
        for kind, argv, check, alter in FAULTS:
            ops.append(Op(kind, partial(run_cli, argv), *on_json(check, alter)))
    rng.shuffle(ops)
    return ops
