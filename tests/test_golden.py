"""Byte-identity gate: fixed CLI commands must keep their exact stdout.

Each command runs in-process through `cli.main`; the SHA-256 digest of its
stdout must match the digest recorded before the nested-sum refactor.  A
mismatch means some value, ordering or formatting changed.  Regenerate a
digest only for an intended change of output, and say so in the changelog.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from mtomega import cli

GOLDEN = (
    ("relations conjecture --weights 4 --n-max 12", "269aafa70d794d4151ba55adeda97b5d3fa285f8f71761c0c61f84e9d6b33a19"),
    ("relations cyclotomic --weights 5 --n-max 12", "bc6b3cf7f9e1500659daf7804e466426d44cc858957c509c764a59e740e031d6"),
    ("relations finite --weights 8", "046129d968bf00d30e29863ac511b36b9525451a67bb181a9ed2b2fb2c43d5a3"),
    ("relations symmetric --weights 6", "eaba8632938c2ffe37f735502e40961bb1bc34ab910dafc9385b6e305cc750a6"),
    ("verify sym-sum --max-weight 6 --n-max 8 --format json", "d8044ebbb203bb003c82ce3422d9637d069d00224780dca071fd932e156fd510"),
    ("verify q-kamano --max-weight 4 --n-max 8 --format json", "539a3d683e12bc301d318f49f54057cdb46a4814b416a3afa828641663fc3811"),
    ("verify corollary52 --max-weight 6 --prime-max 40 --format json", "1cb78034ab0f7e08e9755f9729ea96d658445604f34bc6354af35471b0aff980"),
    ("values omega-root 2.1.1 --n 7,12", "297f697cda0585cff39ef846aeef3e7ca4a3a662b819219041bab1dcf62dc338"),
    ("values omega-limit 3.1.1 --digits 40", "aec23a466b5942ca1ca068f94731485e5b8c3ca60d293ab94b0d8bf34333f992"),
    ("values zeta-s 3.1", "12c429c17fc9eed5b97443ef4bfada2e21710b74b0db12bbc9194c06aeb16c90"),
    ("values omega-mod 2.1.1 --primes 5,7,11", "5a306550d3b5a54383e408de9d079cc6f78b8bb30929615653e8d39e248ecef7"),
    ("dims finite --weights 1..9 --format json", "f374933d7724090ef7861595e5b3b380293d901fbc80338daaa765bb6fd3adb0"),
    ("dims cyclotomic --weights 2..5 --n-max 12 --format json", "02548c7ef1d30f82a3ac28151b234e143633b7f37c72fabbe0c8331f362e16b8"),
)


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_cli_output_digest(command, digest):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(command.split())
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
