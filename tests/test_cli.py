"""CLI behaviour: exit codes, output formats, determinism, round-trips."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from mtomega import cli
from mtomega import cyclo as C
from mtomega import numeric as N
from mtomega.errors import ConfigError


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_values_omega_mod():
    code, out, _ = run_cli("values", "omega-mod", "2.1", "--primes", "5,7")
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[0]) == {"index": "2.1", "p": 5, "res": 0}
    assert json.loads(lines[1]) == {"index": "2.1", "p": 7, "res": 0}


def test_values_omega_root_roundtrip():
    code, out, _ = run_cli("values", "omega-root", "1.1", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 3 and data["coeffs"] == ["0", "-2"]
    elem = C.CycloElem.from_json(data)
    assert elem == C.omega_at_root((1, 1), 3)


def test_values_omega_limit():
    code, out, _ = run_cli("values", "omega-limit", "1.1", "--digits", "40")
    assert code == 0
    data = json.loads(out)
    assert data["certified_digits"] == 40
    assert data["value"].startswith("-3.28986813369645287294483")


def test_values_zeta_s():
    code, out, _ = run_cli("values", "zeta-s", "2.1", "--digits", "40")
    assert code == 0
    data = json.loads(out)
    assert data["value"].startswith("3.6061707094787828")


def test_values_bad_index_exits_1():
    code, _out, err = run_cli("values", "omega-mod", "2.x", "--primes", "5")
    assert code == 1
    assert "index" in err


def test_values_composite_modulus_exits_1():
    code, out, err = run_cli("values", "omega-mod", "2.1", "--primes", "9,15,4")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("n", ["1", "0"])
def test_values_omega_root_small_n_exits_1(n):
    code, out, err = run_cli("values", "omega-root", "1.1", "--n", n)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("omega-root", "1.1", "--n", "x"),
        ("omega-mod", "2.1", "--primes", "x"),
        ("omega-mod", "2.1", "--primes", "5,,7"),
    ],
)
def test_values_bad_int_list_exits_1(argv):
    code, out, err = run_cli("values", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("spec", ["x", "2..y", "1,z"])
def test_dims_bad_weights_exits_1(spec):
    code, out, err = run_cli("dims", "finite", "--weights", spec)
    assert code == 1
    assert out == ""
    assert err.startswith("config error:") and err.count("\n") == 1


def test_config_file_bad_int_exits_1(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("digits = abc\n")
    code, out, err = run_cli("values", "omega-limit", "1.1", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err.startswith("config error:") and err.count("\n") == 1


def test_bad_flag_exits_1():
    code, _out, _err = run_cli("values", "omega-mod", "2.1", "--nope")
    assert code == 1


def test_dims_finite_csv():
    code, out, _ = run_cli("dims", "finite", "--weights", "1..4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "weight,dimension,status"
    dims = [line.split(",")[1] for line in lines[1:]]
    assert dims == ["0", "0", "1", "0"]


def test_dims_guardrail():
    code, _out, err = run_cli("dims", "finite", "--weights", "11")
    assert code == 1
    assert "guardrail" in err


def test_dims_cyclotomic_json():
    code, out, _ = run_cli(
        "dims", "cyclotomic", "--weights", "2..3", "--n-max", "12", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    rows = {r["weight"]: r for r in data["rows"]}
    assert rows[2]["dimension"] == 1 and rows[2]["quotient_dimension"] == 1
    assert rows[3]["dimension"] == 2 and rows[3]["quotient_dimension"] == 1


def test_verify_exit_codes_and_report():
    code, out, _ = run_cli("verify", "identity-words", "--max-weight", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].endswith("0 failures")
    assert all(line.startswith("ok") for line in lines[:-1])


def test_verify_json_deterministic():
    args = ("verify", "generating", "--max-weight", "4", "--format", "json")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["failed"] == 0


def test_relations_finite_json():
    code, out, _ = run_cli("relations", "finite", "--weights", "3")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "weight": 3,
        "provenance": "finite",
        "generators": [{"index": "2.1", "m": 0}, {"index": "1.1.1", "m": 0}],
        "relations": [{"status": "proven", "vector": [1, 0]}],
        "dimension": 1,
        "status": "conjectural-numeric",
    }


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("digits = 42\nn_max = 5\n# comment\n")
    code, out, _ = run_cli(
        "values", "omega-limit", "1.1", "--config", str(cfg)
    )
    assert code == 0
    assert json.loads(out)["certified_digits"] == 42


def test_config_validation():
    code, _out, err = run_cli("values", "omega-limit", "1.1", "--digits", "10")
    assert code == 1
    assert "digits" in err


def test_parse_weights():
    assert cli._parse_weights("3..6") == [3, 4, 5, 6]
    assert cli._parse_weights("2,5,3") == [2, 3, 5]
    with pytest.raises(ConfigError):
        cli._parse_weights("0")
    with pytest.raises(ConfigError):
        cli._parse_weights("")
