import io
import json

import pytest

from intpoly.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_missing_value_still_rejected(self, capsys):
        code = main(["member", "--poly", "--json", "--all", "--p", "2"])
        capsys.readouterr()
        assert code == 2

    def test_domain_error_json_object(self, capsys):
        code, out, _ = run_cli(capsys, "bezout4", "2", "4", "6", "8", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"]["kind"] == "domain_error"


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
