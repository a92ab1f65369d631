import argparse
import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from intpoly.cli import _COMMANDS, MAX_SNF_BITS, MAX_SNF_SIDE, build_parser, main
from intpoly.matrices import MAX_SNF_HEIGHT
from intpoly.sequences import MAX_WINDOW_POINTS

# exit code, stdout and stderr of every README CLI example, then of one
# parse_error and one domain_error request per subcommand that can raise
# them, and of the text branches the README examples miss, each in text and
# --json mode; "stdin" is fed to the request when present
GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
README = Path(__file__).parent.parent / "README.md"
# 0, 1, ..., one point past the window cap
OVERSIZED_WINDOW = ",".join(map(str, range(MAX_WINDOW_POINTS + 1)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def readme_commands() -> list:
    """The argv of each example in README's CLI section, in order."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.strip().splitlines()]


def dash_requests():
    """One request per value-taking option of every subcommand: the
    subcommand's last README example with that option taken out, and the
    option's value there made to start with a single '-', or -1 where the
    example does not give the option."""
    examples = {argv[0]: argv for argv in readme_commands()}
    for name, (_, options, _, _) in _COMMANDS.items():
        for flag, _, kwargs in options:
            if flag.startswith("--") and "action" not in kwargs:
                argv = list(examples[name])
                value = "-1"
                if flag in argv:
                    at = argv.index(flag)
                    value = "-" + argv[at + 1].lstrip("-")
                    del argv[at:at + 2]
                yield pytest.param(argv, flag, value, id=f"{name} {flag}")


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, "vorder", "--set", "0,1,2,4", "--p", "2", "--n", "3")
        assert code == 0
        assert "points: 0, 1, 2, 4" in out
        assert "w: 0, 0, 1, 3" in out

    def test_parse_error_short_window(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--p", "2", "--seq", "1,3")
        assert code == 2
        assert "3 points" in err

    def test_parse_error_bad_poly(self, capsys):
        code, _, _ = run_cli(capsys, "member", "--poly", "Y^2", "--all", "--p", "2")
        assert code == 2

    def test_domain_error_non_coprime(self, capsys):
        code, _, err = run_cli(capsys, "bezout4", "2", "4", "6", "8")
        assert code == 1
        assert "coprime" in err

    def test_unknown_flag_rejected(self, capsys):
        code = main(["vorder", "--set", "0,1", "--p", "2", "--n", "1", "--bogus"])
        capsys.readouterr()
        assert code == 2

    def test_unknown_verdict_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ideal",
            "member",
            "--ideal",
            "comp:p=2,x=1,N=1",
            "--poly",
            "X*(X-1)/2",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "unknown"
        assert payload["reason"] == "insufficient_precision"

    def test_parse_error_deep_nesting(self, capsys):
        poly = "(" * 3000 + "X" + ")" * 3000
        code, out, _ = run_cli(capsys, "residues", "--poly", poly, "--p", "2", "--json")
        assert code == 2
        payload = json.loads(out)
        assert payload["error"]["kind"] == "parse_error"
        assert "nested too deeply" in payload["error"]["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("snf", "--matrix", "-2,4;6,8"),
            ("member", "--poly", "-X", "--all", "--p", "2"),
            ("vorder", "--set", "-1,0,2", "--p", "2"),
            ("snf", "--mat", "-2,4;6,8"),
            ("member", "--po", "-X", "--all", "--p", "2"),
        ],
    )
    def test_values_starting_with_dash(self, capsys, argv):
        # `--option -value` answers exactly as `--option=-value`, also when
        # the option is abbreviated
        joined = (argv[0], f"{argv[1]}={argv[2]}") + argv[3:]
        code, out, err = run_cli(capsys, *argv, "--json")
        assert code == 0 and err == ""
        assert (code, out) == run_cli(capsys, *joined, "--json")[:2]
        json.loads(out)

    @pytest.mark.parametrize("argv, flag, value", dash_requests())
    def test_every_option_reads_values_starting_with_dash(self, capsys, argv, flag, value):
        # `--option -value` answers exactly as `--option=-value`, in text and
        # --json mode, also when the option is abbreviated; a refused value
        # is refused by its option, not read as a missing one
        for name in {flag, flag[:-1]} if len(flag) > 3 else {flag}:
            for extra in ((), ("--json",)):
                apart = run_cli(capsys, *argv, name, value, *extra)
                assert apart == run_cli(capsys, *argv, f"{name}={value}", *extra)
            assert "expected one argument" not in apart[1]
            json.loads(apart[1])

    def test_value_starting_with_h_is_the_help_option(self, capsys):
        # argparse reads -hX as -h with X attached, so --poly has no value;
        # written --poly=-hX, the value reaches the polynomial parser
        code, out, err = run_cli(capsys, "member", "--poly", "-hX", "--all", "--p", "2", "--json")
        assert (code, err) == (2, "")
        assert json.loads(out) == {
            "error": {"kind": "parse_error", "message": "argument --poly: expected one argument"}
        }
        code, out, _ = run_cli(capsys, "member", "--poly=-hX", "--all", "--p", "2", "--json")
        assert code == 2
        assert json.loads(out)["error"]["message"].startswith("bad character in polynomial")

    def test_missing_value_still_rejected(self, capsys):
        code, out, err = run_cli(capsys, "member", "--poly", "--json", "--all", "--p", "2")
        assert code == 2 and err == ""
        assert out.count("\n") == 1
        assert json.loads(out) == {
            "error": {"kind": "parse_error", "message": "argument --poly: expected one argument"}
        }

    @pytest.mark.parametrize(
        "argv, stderr",
        [
            (
                ["member", "--poly", "--all", "--p", "2"],
                "usage: intpoly member [-h] [--json] --poly POLY [--set SET] [--all] --p P\n"
                "                      [--target {v,m}]\n"
                "intpoly member: error: argument --poly: expected one argument\n",
            ),
            (
                ["residues", "--poly", "X", "--p", "two"],
                "usage: intpoly residues [-h] [--json] --poly POLY --p P\n"
                "intpoly residues: error: argument --p: invalid int value: 'two'\n",
            ),
            (
                ["vorder", "--set", "0,1", "--p", "2", "--n", "1", "--bogus"],
                "usage: intpoly [-h]\n"
                "               {vorder,basis,expand,member,residues,classify,pseudolimit,"
                "imageclass,ideal,representative,frisch,snf,bezout4,content,ucs,tracenorm,"
                "idem,example}\n"
                "               ...\n"
                "intpoly: error: unrecognized arguments: --bogus\n",
            ),
            (
                [],
                "usage: intpoly [-h]\n"
                "               {vorder,basis,expand,member,residues,classify,pseudolimit,"
                "imageclass,ideal,representative,frisch,snf,bezout4,content,ucs,tracenorm,"
                "idem,example}\n"
                "               ...\n"
                "intpoly: error: the following arguments are required: command\n",
            ),
        ],
        ids=["missing-value", "invalid-int", "unrecognized", "no-command"],
    )
    def test_usage_errors(self, capsys, monkeypatch, argv, stderr):
        # text mode: argparse's usage and message on stderr, byte for byte
        # as recorded before usage errors were reported by main(); --json:
        # the same message as one JSON object on stdout
        monkeypatch.setenv("COLUMNS", "80")
        assert run_cli(capsys, *argv) == (2, "", stderr)
        code, out, err = run_cli(capsys, *argv, "--json")
        assert (code, err) == (2, "")
        message = stderr.splitlines()[-1].split(": error: ", 1)[1]
        assert json.loads(out) == {"error": {"kind": "parse_error", "message": message}}

    @pytest.mark.parametrize("extra", [(), ("--json",)])
    def test_help(self, capsys, extra):
        code, out, err = run_cli(capsys, "member", "-h", *extra)
        assert (code, err) == (0, "")
        assert out.startswith("usage: intpoly member")

    @pytest.mark.parametrize(
        "B, C",
        [("2,1;1,1", "1;1"), ("2;1", "1,1;1,1")],
    )
    def test_tracenorm_rejects_other_shapes(self, capsys, B, C):
        code, out, _ = run_cli(capsys, "tracenorm", "--B", B, "--C", C, "--json")
        assert code == 1
        assert json.loads(out) == {
            "error": {
                "kind": "domain_error",
                "message": "trace normalization expects two 2x2 matrices",
            }
        }

    def test_unexpected_exception_reported(self, capsys, monkeypatch):
        def broken(M):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr("intpoly.matrices.idempotent_check", broken)
        code, out, _ = run_cli(capsys, "idem", "--M", "1,0;0,0", "--json")
        assert code == 1
        assert json.loads(out) == {
            "error": {"kind": "internal_error", "message": "ZeroDivisionError: boom"}
        }
        assert run_cli(capsys, "idem", "--M", "1,0;0,0") == (
            1, "", "error: ZeroDivisionError: boom\n"
        )

    def test_residue_sweep_cap(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "residues", "--poly", "X", "--p", "1000000007", "--json")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "domain_error"
        assert "cap of 100000 classes" in error["message"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("frisch", "--poly", "X", "--p", "1009"), "cap of degree 300"),
            (
                ("content", "--entries", "1000000016000000063;X+1"),
                "sweeping 1000000016000000063^1 residue classes exceeds the cap",
            ),
        ],
    )
    def test_work_caps(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "domain_error"
        assert message in error["message"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("vorder", "--all", "--p", "2", "--n", "2000000"), "--n 2000000 exceeds the cap of 100000"),
            (("basis", "--all", "--p", "2", "--k", "3000"), "--k 3000 exceeds the cap of 300"),
            (
                ("expand", "--poly", "X", "--all", "--p", "2", "--n", "10000000"),
                "--n 10000000 exceeds the cap of 100000",
            ),
            (
                ("expand", "--poly", "2^20000*X", "--all", "--p", "2"),
                "polynomial coefficients of size up to 2^20000 exceed the cap of 2^4096",
            ),
            (
                ("classify", "--p", "2", "--seq", OVERSIZED_WINDOW),
                "a window of 1601 points exceeds the cap of 1600 points",
            ),
            (
                ("pseudolimit", "--p", "2", "--seq", OVERSIZED_WINDOW, "--x", "-1"),
                "a window of 1601 points exceeds the cap of 1600 points",
            ),
            (
                ("ideal", "member", "--ideal", f"seq:p=2,pts={OVERSIZED_WINDOW}", "--poly", "X"),
                "a window of 1601 points exceeds the cap of 1600 points",
            ),
            # a 100 x 100 Smith normal form takes seconds
            (("snf", "--matrix", ";".join([",".join(["7"] * 100)] * 100)),
             "a matrix of 100 rows exceeds the cap of 64 rows"),
            (("snf", "--matrix", ";".join([",".join(["7"] * 65)] * 2)),
             "a matrix of 65 columns exceeds the cap of 64 columns"),
        ],
    )
    def test_parse_caps(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert time.perf_counter() - start < 1.0
        assert (code, json.loads(out)) == (2, {"error": {"kind": "parse_error", "message": message}})

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("expand", "--poly", "X^2", "--set", "0,1," + "7" * 2500, "--p", "2"),
                "a point of size up to 2^8305 exceeds the cap of 2^2048 at degree 2",
            ),
            (
                ("basis", "--set", f"0,1,2,{2**600 + 1}", "--p", "2", "--k", "7"),
                "a point of size up to 2^601 exceeds the cap of 2^585 at degree 7",
            ),
            (
                ("pseudolimit", "--p", "2", "--seq", "1,3,5", "--x", f"1/{3**3000}"),
                "a point of size up to 2^4755 exceeds the cap of 2^4096 at degree 1",
            ),
            (
                ("imageclass", "--p", "3", "--seq", f"1,{2**2000},4", "--poly", "X^3"),
                "a point of size up to 2^2000 exceeds the cap of 2^1365 at degree 3",
            ),
            (
                ("ideal", "member", "--ideal", f"max:p=2,a={3**1000}", "--poly", "X^3"),
                "a point of size up to 2^1585 exceeds the cap of 2^1365 at degree 3",
            ),
            (
                ("ideal", "member", "--ideal", f"seq:p=2,pts=1,3,7,{2**3000 + 15}", "--poly", "X^2"),
                "a point of size up to 2^3001 exceeds the cap of 2^2048 at degree 2",
            ),
            (
                ("representative", "--ideal", "comp:p=2,x=-1,N=5000", "--poly", "X^2"),
                "a point of size up to 2^5000 exceeds the cap of 2^2048 at degree 2",
            ),
        ],
    )
    def test_point_caps(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert time.perf_counter() - start < 1.0
        assert (code, json.loads(out)) == (2, {"error": {"kind": "parse_error", "message": message}})

    def test_snf_cap_admits_the_cap(self, capsys):
        for matrix in (";".join(["1"] * MAX_SNF_SIDE), ",".join(["1"] * MAX_SNF_SIDE)):
            code, out, _ = run_cli(capsys, "snf", "--matrix", matrix, "--json")
            assert code == 0 and json.loads(out)["diagonal"] == [1]

    def test_refused_ideal_spec_echo_is_bounded(self, capsys):
        # the whole 200-point spec was echoed: 775 bytes in text mode, 817 in --json
        spec = "seq:p=2,pts=" + ",".join(map(str, range(200)))
        for extra in ((), ("--json",)):
            code, out, err = run_cli(capsys, "ideal", "member", "--ideal", spec, "--poly", "X", *extra)
            assert code == 2
            assert len((out + err).encode()) < 300
            assert f"({len(spec)} characters)" in out + err

    def test_imageclass_window_of_1600_points(self, capsys):
        # classifying every suffix anew, with its pairwise check, took 31 s
        # at 400 points and did not finish in 4 minutes at 1,600
        seq = ",".join(map(str, range(1600)))
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "imageclass", "--p", "2", "--seq", seq, "--poly", "X", "--json")
        assert time.perf_counter() - start < 1.0
        assert (code, json.loads(out)) == (
            0, {"class": "none", "dichotomy": "undetermined", "suffix_start": 1600}
        )

    @pytest.mark.parametrize(
        "argv, expected",
        [
            # the pairwise stationary check took 31.7 s on these points
            (
                ("classify", "--p", "2", "--seq", ",".join(str(i * 2**200) for i in range(1, 1601))),
                (0, {"class": "none", "gapValuations": ["200"] * 1599}),
            ),
            # both refusals ran the pairwise check first: 5.4 and 5.3 s
            (
                ("ideal", "member", "--ideal", "seq:p=2,pts=" + ",".join(map(str, range(1600))), "--poly", "X"),
                (2, {"error": {"kind": "parse_error", "message": (
                    "bad ideal spec 'seq:p=2,pts=0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,1'"
                    "... (6901 characters): sequence ideal needs a pseudo-convergent window"
                )}}),
            ),
            (
                ("pseudolimit", "--p", "2", "--seq", ",".join(map(str, range(1600))), "--x", "-1"),
                (1, {"error": {"kind": "domain_error", "message": (
                    "pseudo-limit test needs a pseudo-convergent window"
                )}}),
            ),
        ],
    )
    def test_window_of_1600_points(self, capsys, argv, expected):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert time.perf_counter() - start < 1.0
        assert (code, json.loads(out)) == expected

    def test_snf_height_cap(self, capsys):
        # 32 x 32 entries near 2^64: the transforms reach 2^22674, and the
        # interpreter refused to print them
        rng = random.Random(1)
        matrix = ";".join(",".join(str(rng.randint(-2**64, 2**64)) for _ in range(32)) for _ in range(32))
        code, out, _ = run_cli(capsys, "snf", "--matrix", matrix, "--json")
        error = json.loads(out)["error"]
        assert (code, error["kind"]) == (1, "domain_error")
        assert error["message"].endswith(f"exceed the cap of 2^{MAX_SNF_HEIGHT}")

    def test_snf_bits_cap(self, capsys):
        # 64 x 64 near 2^64 was refused by the height cap only after 2.6-2.9 s
        rng = random.Random(1)
        matrix = ";".join(",".join(str(rng.randint(-2**64, 2**64)) for _ in range(64)) for _ in range(64))
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "snf", "--matrix", matrix, "--json")
        assert time.perf_counter() - start < 1.0
        message = "an entry of size up to 2^64 exceeds the cap of 2^16 at 64 x 64"
        assert (code, json.loads(out)) == (2, {"error": {"kind": "parse_error", "message": message}})
        # 64 x 2: entries up to 2^512 are at the cap, one bit more is over it
        at_cap = MAX_SNF_BITS // (64 * 2)
        for bits, expected in ((at_cap, 0), (at_cap + 1, 2)):
            column = [str(rng.randint(1, 2**bits - 1) | 1 << bits - 1) for _ in range(128)]
            matrix = ";".join(",".join(column[2 * i:2 * i + 2]) for i in range(64))
            code, out, _ = run_cli(capsys, "snf", "--matrix", matrix, "--json")
            assert code == expected, json.loads(out)
        assert json.loads(out)["error"]["message"] == (
            f"an entry of size up to 2^{at_cap + 1} exceeds the cap of 2^{at_cap} at 64 x 2"
        )

    def test_point_cap_admits_the_cap(self, capsys):
        # degree 2 times a point of height 2048, 2^2048 itself, is at the cap
        argv = ("expand", "--poly", "X^2", "--set", f"0,1,{2**2048}", "--p", "2", "--json")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and len(json.loads(out)["coefficients"]) == 3

    def test_completion_precision_cap(self, capsys):
        # 3^(10^7) took about 10 s to build before the point cap refused it
        start = time.perf_counter()
        argv = ("representative", "--ideal", "comp:p=3,x=-1,N=10000000", "--poly", "X")
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert time.perf_counter() - start < 1.0
        assert (code, json.loads(out)) == (2, {"error": {"kind": "parse_error", "message": (
            "bad ideal spec 'comp:p=3,x=-1,N=10000000': precision 3^10000000 "
            "of size up to 2^20000000 exceeds the cap of 2^8192"
        )}})
        # 2^8192 itself is at the cap
        argv = ("representative", "--ideal", "comp:p=2,x=1,N=8192", "--poly", "X", "--json")
        assert run_cli(capsys, *argv)[:2] == (0, '{"residue": 1, "verdict": "yes"}\n')

    def test_degree_cap(self, capsys):
        # about 2 s without the cap: the binomial transform is O(d^2) in Fractions
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "member", "--poly", "X^500/2", "--all", "--p", "2", "--json")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert json.loads(out) == {
            "error": {
                "kind": "parse_error",
                "message": "polynomial of degree 500 exceeds the cap of degree 300",
            }
        }

    def test_large_prime(self, capsys):
        # trial division ran without end on both primes; below the bound
        # Miller-Rabin answers, at or above it the request is refused
        start = time.perf_counter()
        argv = ("classify", "--p", str(10**24 + 7), "--seq", "1,3,7,15", "--json")
        assert run_cli(capsys, *argv)[:2] == (0, '{"class": "pseudo_stationary", '
                                                 '"gapValuations": ["0", "0", "0"]}\n')
        message = f"{10**30 + 57} is not below 3317044064679887385961981, the bound"
        for argv, kind in (
            (("classify", "--p", str(10**30 + 57), "--seq", "1,3,7,15"), "parse_error"),
            (("member", "--poly", "X", "--all", "--p", str(10**30 + 57)), "domain_error"),
        ):
            _, out, _ = run_cli(capsys, *argv, "--json")
            error = json.loads(out)["error"]
            assert error["kind"] == kind and error["message"].startswith(message)
        assert time.perf_counter() - start < 1.0

    def test_maximal_layer_over_z_needs_no_sweep(self, capsys):
        # 100003 classes would exceed the sweep cap; one binomial transform decides
        start = time.perf_counter()
        argv = ("member", "--poly", "X^2-X", "--all", "--p", "100003", "--target", "m", "--json")
        assert run_cli(capsys, *argv) == (0, '{"member": false}\n', "")
        argv = ("ideal", "member", "--ideal", "iem:p=100003", "--poly", "100003*X", "--json")
        assert run_cli(capsys, *argv) == (0, '{"verdict": "yes"}\n', "")
        assert time.perf_counter() - start < 1.0

    def test_pq_membership_with_a_large_denominator(self, capsys):
        # the division of X^300 by X + 1/2^2000 ran past 20 s in Fractions
        start = time.perf_counter()
        argv = ("ideal", "member", "--ideal", "pq:X + 1/2^2000", "--poly", "X^300", "--json")
        assert run_cli(capsys, *argv) == (0, '{"verdict": "no"}\n', "")
        assert time.perf_counter() - start < 10.0

    @pytest.mark.parametrize("blob", ['{"beta": "X"}', "null", "[1, 2]", '{"beta": 5}'])
    def test_malformed_certificate_is_parse_error(self, capsys, monkeypatch, blob):
        monkeypatch.setattr("sys.stdin", io.StringIO(blob))
        code, out, _ = run_cli(capsys, "example", "verify", "--stdin", "--json")
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "parse_error"

    def test_deeply_nested_certificate_is_parse_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100000))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "example", "verify", "--stdin", "--json")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (2, "")
        assert json.loads(out) == {
            "error": {"kind": "parse_error", "message": "certificate nested too deeply"}
        }

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("member", "--poly", "X", "--set", "", "--all", "--p", "2"),
             "--set and --all are mutually exclusive"),
            (("ideal", "member", "--ideal", "max:p=2,a=3", "--poly", "X", "--set", ""),
             "bad rational ''"),
        ],
    )
    def test_empty_set_is_parse_error(self, capsys, argv, message):
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "parse_error"
        assert message in error["message"]

    def test_domain_error_json_object(self, capsys):
        code, out, _ = run_cli(capsys, "bezout4", "2", "4", "6", "8", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"]["kind"] == "domain_error"

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (["example", "verify"], 1),
            (["example", "verify"], 0),
            (["vorder", "--all", "--p", "2", "--n", "20000"], 1),
        ],
        ids=["example verify, one line read", "example verify, none read", "vorder of 258 kB"],
    )
    def test_closed_stdout_exits_without_traceback(self, argv, lines):
        """A reader that closes the pipe after one line, as `| head -1` does,
        or before reading any, leaves no traceback on stderr.  The vorder
        answer is larger than a pipe's buffer, and the unread answer is
        written after the pipe closed, so those writers always find it
        closed and exit 1."""
        src = str(Path(__file__).parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "intpoly.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
        )
        for _ in range(lines):
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        code = proc.wait(timeout=60)
        assert "Traceback" not in err and "Exception ignored" not in err, err
        assert code == 1 if argv[0] == "vorder" or not lines else code in (0, 1)


class TestSubcommands:
    def test_bezout4_echoes_identities(self, capsys):
        code, out, _ = run_cli(capsys, "bezout4", "2", "3", "4", "5")
        assert code == 0
        assert "= 1" in out
        assert "alpha*delta = beta*gamma" in out

    def test_basis(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--all", "--p", "2", "--k", "2")
        assert code == 0
        assert "1/2*X^2 - 1/2*X" in out

    def test_expand(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--poly", "X^2", "--all", "--p", "3", "--n", "2", "--json"
        )
        payload = json.loads(out)
        assert payload["coefficients"] == ["0", "1", "2"]

    def test_member(self, capsys):
        code, out, _ = run_cli(
            capsys, "member", "--poly", "X*(X-1)/2", "--all", "--p", "2", "--json"
        )
        assert json.loads(out)["member"] is True

    def test_residues(self, capsys):
        _, out, _ = run_cli(capsys, "residues", "--poly", "X*(X-1)/2", "--p", "2", "--json")
        assert json.loads(out)["residues"] == [0, 1]

    def test_classify_json_schema(self, capsys):
        _, out, _ = run_cli(capsys, "classify", "--p", "2", "--seq", "1,3,7,15", "--json")
        payload = json.loads(out)
        assert payload["class"] == "pseudo_convergent"
        assert payload["gapValuations"] == ["1", "2", "3"]

    def test_classify_takes_the_gaps_once(self, capsys, monkeypatch):
        from intpoly.sequences import SeqWindow

        taken, real = [], SeqWindow.gap_valuations
        monkeypatch.setattr(SeqWindow, "gap_valuations", lambda w: taken.append(w) or real(w))
        assert run_cli(capsys, "classify", "--p", "2", "--seq", "1,3,7,15")[0] == 0
        assert len(taken) == 1

    def test_pseudolimit(self, capsys):
        _, out, _ = run_cli(
            capsys, "pseudolimit", "--p", "2", "--seq", "1,3,7,15", "--x", "-1", "--json"
        )
        assert json.loads(out)["pseudo_limit"] is True

    def test_imageclass(self, capsys):
        _, out, _ = run_cli(
            capsys, "imageclass", "--p", "2", "--seq", "1,3,7,15", "--poly", "X^2", "--json"
        )
        payload = json.loads(out)
        assert payload["suffix_start"] == 1
        assert payload["class"] == "pseudo_convergent"

    def test_representative(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "representative",
            "--ideal",
            "max:p=5,a=0",
            "--poly",
            "7",
            "--json",
        )
        payload = json.loads(out)
        assert payload == {"residue": 2, "verdict": "yes"}

    def test_completion_digit_bound_decides(self, capsys):
        # C(X, 4) mod 2 reads only three binary digits of x, so N = 3
        # decides, though the denominator 24 alone would ask for N = 4
        spec = "comp:p=2,x=5,N=3"
        poly = "X(X-1)(X-2)(X-3)/24"
        _, out, _ = run_cli(
            capsys, "ideal", "member", "--ideal", spec, "--poly", poly, "--json"
        )
        assert json.loads(out) == {"verdict": "no"}
        _, out, _ = run_cli(capsys, "representative", "--ideal", spec, "--poly", poly, "--json")
        assert json.loads(out) == {"residue": 1, "verdict": "yes"}

    def test_frisch(self, capsys):
        _, out, _ = run_cli(capsys, "frisch", "--poly", "X", "--p", "2", "--json")
        payload = json.loads(out)
        assert payload["residues"] == [0, 1]
        assert payload["product_in_ideal"] is True

    def test_snf_roundtrip_facts(self, capsys):
        _, out, _ = run_cli(capsys, "snf", "--matrix", "2,4;6,8", "--json")
        payload = json.loads(out)
        assert payload["diagonal"] == [2, 4]

    def test_content(self, capsys):
        _, out, _ = run_cli(capsys, "content", "--entries", "2;X^2+X", "--json")
        payload = json.loads(out)
        assert payload["unit"] is False
        assert payload["witness"]["p"] == 2

    def test_ucs(self, capsys):
        _, out, _ = run_cli(
            capsys, "ucs", "--B", "2,X;X+1,3", "--C", "1,0;0,1", "--json"
        )
        payload = json.loads(out)
        assert payload["qualification"]["qualifies"] is True
        assert payload["det_zero"] is False

    def test_tracenorm_integer_auto(self, capsys):
        code, out, _ = run_cli(
            capsys, "tracenorm", "--B", "2,1;1,1", "--C", "1,1;1,1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trace"] == "1"
        assert payload["det_C0"] == "0"

    def test_idem(self, capsys):
        _, out, _ = run_cli(capsys, "idem", "--M", "1,0;0,0", "--json")
        assert json.loads(out) == {"idempotent": True, "nontrivial": True}


class TestExample:
    def test_verify(self, capsys):
        code, out, _ = run_cli(capsys, "example", "verify", "--json")
        assert code == 0
        payload = json.loads(out)
        assert all(payload["certificate"]["checks"].values())

    def test_search_small(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "example",
            "search",
            "--max-deg",
            "0",
            "--max-height",
            "3",
            "--budget",
            "1000",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == len(payload["certificates"])

    def test_verify_stdin_roundtrip(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "example", "verify", "--json")
        payload = json.loads(out)
        blob = json.dumps(payload["certificate"])
        monkeypatch.setattr("sys.stdin", io.StringIO(blob))
        code, out, _ = run_cli(capsys, "example", "verify", "--stdin", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["matches_input"] is True
        assert all(payload["certificate"]["checks"].values())


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("vorder", "--set", "0,1,2,4", "--p", "2", "--n", "3", "--json"),
            ("content", "--entries", "2;X;X+1;3", "--json"),
            ("snf", "--matrix", "12,-4,7;0,5,-3", "--json"),
            ("example", "verify", "--json"),
        ],
    )
    def test_byte_identical_repeat(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestSharedParser:
    VALID = ("vorder", "--set", "0,1,2,4", "--p", "2", "--n", "3")

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_usage_error_then_valid_request(self, capsys):
        expected = run_cli(capsys, *self.VALID)
        for bad in (("vorder", "--set", "--p", "2"), ("vorder", "--p", "x", "--json")):
            assert run_cli(capsys, *bad)[0] == 2
            assert run_cli(capsys, *self.VALID) == expected
        assert expected[0] == 0

    def test_no_mutable_defaults(self):
        immutable = (type(None), bool, int, str, tuple, frozenset)
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert len(sub.choices) == 18
        for p in (parser, *sub.choices.values()):
            for action in p._actions:
                assert isinstance(action.default, immutable), (p.prog, action.dest)
            assert all(isinstance(v, immutable) for v in p._defaults.values()), p.prog


class TestGolden:
    def test_covers_every_readme_example(self):
        commands = readme_commands()
        expected = [argv + extra for argv in commands for extra in ([], ["--json"])]
        assert [case["argv"] for case in GOLDEN[: len(expected)]] == expected

    def test_every_subcommand_has_a_case(self):
        assert set(_COMMANDS) <= {case["argv"][0] for case in GOLDEN}

    def test_byte_identical(self, capsys, monkeypatch):
        # one process, one shared parser; the reverse pass shows that no
        # call leaves state behind for the next
        for case in GOLDEN + GOLDEN[::-1]:
            monkeypatch.setattr("sys.stdin", io.StringIO(case.get("stdin", "")))
            expected = (case["exit"], case["stdout"], case.get("stderr", ""))
            assert run_cli(capsys, *case["argv"]) == expected, case["argv"]
