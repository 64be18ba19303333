"""CLI behaviour: exit codes, output formats, determinism, round-trips."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mtomega import cli, relations
from mtomega import cyclo as C
from mtomega import modular as M
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


def test_values_omega_mod_prime_max_is_inclusive():
    # the primes above the index length and at most --prime-max, as in verify
    code, out, _ = run_cli("values", "omega-mod", "2.1", "--prime-max", "7")
    assert code == 0
    assert [json.loads(line)["p"] for line in out.splitlines()] == [3, 5, 7]


def test_values_omega_root_roundtrip():
    code, out, _ = run_cli("values", "omega-root", "1.1", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 3 and data["coeffs"] == ["0", "-2"]
    assert data == {"index": "1.1", **C.omega_at_root((1, 1), C.packed_ring(3)).to_json()}


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


def test_huge_digits_exits_1(tmp_path):
    # rejected by validation, before any value is evaluated
    code, out, err = run_cli("values", "omega-limit", "3.1.1", "--digits", "40000000000")
    assert code == 1 and out == ""
    assert err.startswith("config error:") and err.count("\n") == 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text("digits = 40000000000\n")
    code, out, err = run_cli("values", "omega-limit", "3.1.1", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        # flags a subcommand does not read, and the dropped csv format
        ("verify", "generating", "--digits", "40"),
        ("verify", "generating", "--height-bound", "8"),
        ("verify", "generating", "--force"),
        ("verify", "generating", "--format", "csv"),
        ("verify", "q-kamano", "--n", "3"),  # not a prefix of --n-max
        ("dims", "finite", "--weights", "3", "--prime-max", "50"),
        ("dims", "finite", "--weights", "3", "--height-bound", "8"),
        ("dims", "finite", "--weights", "3", "--format", "csv"),
        ("relations", "finite", "--weights", "3", "--prime-max", "50"),
        ("relations", "finite", "--weights", "3", "--height-bound", "8"),
        ("relations", "finite", "--weights", "3", "--format", "json"),
        # the symmetric miner picks its own digits
        ("dims", "symmetric", "--weights", "3", "--digits", "60"),
        ("relations", "symmetric", "--weights", "3", "--digits", "60"),
        ("values", "omega-mod", "2.1", "--height-bound", "8"),
        ("values", "omega-mod", "2.1", "--format", "json"),
        ("values", "omega-mod", "2.1", "--force"),
    ],
    ids=" ".join,
)
def test_undeclared_flag_exits_1(argv):
    code, out, err = run_cli(*argv)
    assert code == 1 and out == ""
    assert err.startswith("mtomega") and ": error: " in err and err.count("\n") == 1


def test_bad_flag_exits_1():
    code, _out, _err = run_cli("values", "omega-mod", "2.1", "--nope")
    assert code == 1
    code, out, _err = run_cli("dims", "finite", "--weights", "3", "--prime-min", "7")
    assert code == 1 and out == ""


def test_config_file_unknown_key_exits_1(tmp_path):
    cfg = tmp_path / "run.cfg"
    for key, val in (("prime_min", 7), ("height_bound", 1), ("digits", 60)):
        cfg.write_text(f"{key} = {val}\n")
        code, out, err = run_cli("dims", "finite", "--weights", "3", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err == f"config error: unknown config key: {key}\n"


def test_config_file_bad_format_exits_1(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("output_format = xml\n")
    code, out, err = run_cli("dims", "finite", "--weights", "3", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == "config error: output_format must be one of text|json\n"


@pytest.mark.parametrize("value", ["ture", "on", ""])
def test_config_file_bad_boolean_exits_1(tmp_path, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"force = {value}\n")
    code, out, err = run_cli("dims", "finite", "--weights", "11", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith("config error: bad value for force") and err.count("\n") == 1


def test_config_file_key_of_another_subcommand_exits_1(tmp_path):
    # values declares no --weights and no --force, so neither is a key for it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("weights = 3\nforce = yes\n")
    code, out, err = run_cli("values", "omega-mod", "2.1", "--primes", "5", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == "config error: unknown config key: weights\n"


# (command, its flags, the same settings as config-file lines)
PARITY = (
    ("dims finite", "--weights 2..4 --format json", "weights = 2..4\noutput_format = json"),
    ("dims finite", "--weights 11 --force", "weights = 11\nforce = yes"),
    ("verify q-kamano", "--max-weight 3 --n-max 4 --format json",
     "max_weight = 3\nn-max = 4\noutput_format = json"),
    ("verify fmzv-reduction", "--max-weight 3 --prime-max 20", "max_weight = 3\nprime_max = 20"),
    ("relations cyclotomic", "--weights 3 --n-max 8", "weights = 3\nn_max = 8"),
    ("values omega-mod 2.1.1", "--primes 5,7,11", "primes = 5,7,11"),
    ("values omega-root 2.1", "--n 5,6", "n = 5,6"),
    ("values omega-limit 2.1", "--digits 40", "digits = 40"),
)


@pytest.mark.parametrize("command,flags,lines", PARITY, ids=[f"{c} {f}" for c, f, _ in PARITY])
def test_config_file_matches_flags(tmp_path, command, flags, lines):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines + "\n")
    expected = run_cli(*command.split(), *flags.split())
    assert expected[0] == 0 and expected[1]
    assert run_cli(*command.split(), "--config", str(cfg)) == expected


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("digits = 42\n")
    for argv in (
        ("values", "omega-limit", "1.1", "--digits", "40", "--config", str(cfg)),
        ("values", "omega-limit", "1.1", "--config", str(cfg), "--digits", "40"),
    ):
        code, out, _ = run_cli(*argv)
        assert code == 0 and json.loads(out)["certified_digits"] == 40
    code, out, _ = run_cli("values", "omega-limit", "1.1", "--config", str(cfg))
    assert code == 0 and json.loads(out)["certified_digits"] == 42
    # force = false leaves the guardrail in place; --force on the command line lifts it
    cfg.write_text("weights = 11\nforce = false\n")
    code, out, err = run_cli("dims", "finite", "--config", str(cfg))
    assert code == 1 and "guardrail" in err
    code, out, _ = run_cli("dims", "finite", "--force", "--config", str(cfg))
    assert code == 0 and out == run_cli("dims", "finite", "--weights", "11", "--force")[1]


def test_config_file_unreadable_exits_1(tmp_path):
    (tmp_path / "bin.cfg").write_bytes(b"digits = \xff\n")
    for path in (tmp_path / "missing.cfg", tmp_path, tmp_path / "bin.cfg"):
        code, out, err = run_cli("values", "omega-limit", "1.1", "--config", str(path))
        assert code == 1 and out == ""
        assert err.startswith("config error: cannot read config file") and err.count("\n") == 1


def test_config_file_weights(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("weights = 2..3\n")
    code, out, _ = run_cli("dims", "finite", "--config", str(cfg))
    assert code == 0
    assert out == "weight,dimension,status\n2,0,proven\n3,1,conjectural-numeric\n"
    for command in ("dims", "relations"):
        code, out, err = run_cli(command, "finite")
        assert code == 1 and out == ""
        assert err == f"config error: {command} needs --weights\n"


@pytest.mark.parametrize("extra,checks", [((), 15), (("--prime-max", "200"), 46)])
def test_fmzv_reduction_prime_max(extra, checks):
    # the suite's own default is 50; an explicit --prime-max, 200 included, is kept
    code, out, _ = run_cli("verify", "fmzv-reduction", "--max-weight", "2", *extra)
    assert code == 0
    assert out.splitlines()[-1] == f"{checks} checks, 0 failures"


@pytest.mark.parametrize("side", ["finite", "symmetric"])
@pytest.mark.parametrize("command", ["dims", "relations"])
def test_n_max_refused_on_the_sides_without_n(tmp_path, command, side):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_max = 8\n")
    for extra in (("--n-max", "8"), ("--n-max", "20"), ("--config", str(cfg))):
        code, out, err = run_cli(command, side, "--weights", "3", *extra)
        assert code == 1 and out == "", extra
        assert err == f"config error: --n-max does nothing on the {side} side\n", extra


UNREAD_BY_SUITES = [
    ("n_max", "3", suite)
    for suite in ("fmzv-reduction", "identity-words", "generating", "corollary52", "specials")
] + [("prime_max", "5", suite) for suite in ("q-kamano", "identity-words", "generating", "sym-sum")]


@pytest.mark.parametrize("key,value,suite", UNREAD_BY_SUITES)
def test_verify_refuses_the_flag_its_suite_ignores(tmp_path, key, value, suite):
    flag = "--" + key.replace("_", "-")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    for extra in ((flag, value), ("--config", str(cfg))):
        code, out, err = run_cli("verify", suite, "--max-weight", "2", *extra)
        assert code == 1 and out == "", extra
        assert err == f"config error: {flag} does nothing in the {suite} suite\n", extra


def test_verify_all_takes_every_flag():
    flags = ("--max-weight", "3", "--prime-max", "5", "--n-max", "3")
    code, out, _ = run_cli("verify", "all", *flags)
    assert code == 0 and out.endswith(" checks, 0 failures\n")
    assert "[q-kamano]" in out and "p=5" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("dims", "cyclotomic", "--weights", "3"),
        ("relations", "conjecture", "--weights", "3"),
        ("verify", "q-kamano", "--max-weight", "2"),
        ("values", "omega-root", "2.1"),
    ],
    ids=" ".join,
)
def test_n_max_defaults_to_20(argv):
    code, out, _ = run_cli(*argv)
    assert code == 0 and out == run_cli(*argv, "--n-max", "20")[1]


def test_dims_finite_csv():
    code, out, _ = run_cli("dims", "finite", "--weights", "1..4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "weight,dimension,status"
    dims = [line.split(",")[1] for line in lines[1:]]
    assert dims == ["0", "0", "1", "0"]


def test_dims_guardrail():
    for command in ("dims", "relations"):
        code, out, err = run_cli(command, "finite", "--weights", "11")
        assert code == 1 and out == ""
        assert err == (
            "config error: weight 11 over the finite guardrail 10; use --force to override\n"
        )


def test_dims_symmetric_precision_refusal_exits_1(monkeypatch):
    # at 60 digits every weight-10 row passes the height and residual tests,
    # and with the cap at 60 the miner cannot retry at 120
    monkeypatch.setattr(relations, "MAX_DIGITS", 60)
    code, out, err = run_cli("dims", "symmetric", "--weights", "10", "--force")
    assert code == 1
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: weight 10: no lattice gap at 60 digits: all 45 rows pass"]


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


# (flags of `values omega-mod 2.1`, the one error line); 2097169 is the
# first prime above 2^21
PRIMES_PAST_THE_BOUND = (
    ("--primes 1000000007", "error: modulus must be below 2^21, got 1000000007"),
    ("--primes 2097169", "error: modulus must be below 2^21, got 2097169"),
    ("--prime-max 1000000000", "config error: prime_max must be in 3..2097152"),
)


@pytest.mark.parametrize(
    "flags,error", PRIMES_PAST_THE_BOUND, ids=[f for f, _ in PRIMES_PAST_THE_BOUND]
)
def test_primes_past_two_limbs_exit_1(flags, error, monkeypatch):
    # refused before a sieve or a table of p entries is built
    def no_table(*args):
        raise AssertionError(f"table built for {args}")

    for name in ("primes_upto", "_inverses", "_power_array"):
        monkeypatch.setattr(M, name, no_table)
    assert run_cli("values", "omega-mod", "2.1", *flags.split()) == (1, "", error + "\n")


def test_config_validation():
    for argv, key in (
        (("values", "omega-limit", "1.1", "--digits", "10"), "digits"),
        (("verify", "generating", "--max-weight", "1"), "max_weight"),
        (("verify", "q-kamano", "--max-weight", "-3"), "max_weight"),
        # 0 is out of range, not a request for the default
        (("verify", "q-kamano", "--max-weight", "0", "--n-max", "3"), "max_weight"),
        (("verify", "fmzv-reduction", "--prime-max", "0"), "prime_max"),
        (("values", "omega-mod", "2.1", "--prime-max", "0"), "prime_max"),
    ):
        code, out, err = run_cli(*argv)
        assert code == 1 and out == "", argv
        assert err.startswith(f"config error: {key}") and err.count("\n") == 1, argv


def test_parse_weights():
    assert cli._parse_weights("3..6") == [3, 4, 5, 6]
    assert cli._parse_weights("2,5,3") == [2, 3, 5]
    with pytest.raises(ConfigError):
        cli._parse_weights("0")
    with pytest.raises(ConfigError):
        cli._parse_weights("")


# The child runs one command with its stdout discarded, then prints which of
# the two heavy libraries, and of dataclasses and the inspect module it
# imports, the command loaded.  numpy imports inspect itself.
_LOADED = """
import contextlib, io, sys
from mtomega import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *(m for m in ("numpy", "mpmath", "dataclasses", "inspect") if m in sys.modules))
"""


_LOADS = [
    ([], []),
    (["dims", "symmetric", "--weights", "3..5"], ["mpmath"]),
    (["dims", "finite", "--weights", "3..6"], ["numpy", "inspect"]),
    (["dims", "cyclotomic", "--weights", "2..4", "--n-max", "12"], ["numpy", "inspect"]),
    (["values", "omega-mod", "2.1", "--primes", "5"], ["numpy", "inspect"]),
    (["verify", "identity-words", "--max-weight", "5"], []),
    (["verify", "corollary52", "--max-weight", "5"], ["numpy", "inspect"]),
    (["verify", "all"], ["numpy", "inspect"]),
    (["values", "omega-root", "1.1", "--n", "3"], []),
]


@pytest.mark.parametrize(
    "argv, loaded", _LOADS, ids=["-".join(argv[:2]) or "import" for argv, _ in _LOADS]
)
def test_commands_load_only_the_libraries_they_use(argv, loaded):
    """numpy builds the residue arrays and mpmath the real values; a command
    that needs neither starts without importing them, and no command loads
    dataclasses."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert out.split() == ["0", *loaded]
