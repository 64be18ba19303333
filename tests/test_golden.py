"""Byte-identity gate: fixed CLI commands must keep their exact stdout.

Each command runs in-process through `cli.main`; the SHA-256 digest of its
stdout must match the digest recorded before the refactor that added it.  A
mismatch means some value, ordering or formatting changed.  Regenerate a
digest only for an intended change of output, and say so in the changelog.

Run directly (`PYTHONPATH=src python tests/test_golden.py`), the file prints
the command/digest pairs of the current tree.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from mtomega import cli

GOLDEN = (
    ("relations conjecture --weights 4 --n-max 12", "97279a024d0df2891faee928be49028d0cd8c1d55357c418c6a67a886f345eed"),
    ("relations cyclotomic --weights 5 --n-max 12", "bc6b3cf7f9e1500659daf7804e466426d44cc858957c509c764a59e740e031d6"),
    ("relations finite --weights 8", "046129d968bf00d30e29863ac511b36b9525451a67bb181a9ed2b2fb2c43d5a3"),
    ("relations symmetric --weights 6", "f851b8887a4f55226897acc7b787075d16957c776052e127cdfa1c062bbfa8fe"),
    ("verify sym-sum --max-weight 6 --n-max 8 --format json", "d8044ebbb203bb003c82ce3422d9637d069d00224780dca071fd932e156fd510"),
    ("verify q-kamano --max-weight 4 --n-max 8 --format json", "539a3d683e12bc301d318f49f54057cdb46a4814b416a3afa828641663fc3811"),
    ("verify corollary52 --max-weight 6 --prime-max 40 --format json", "1cb78034ab0f7e08e9755f9729ea96d658445604f34bc6354af35471b0aff980"),
    ("values omega-root 2.1.1 --n 7,12", "297f697cda0585cff39ef846aeef3e7ca4a3a662b819219041bab1dcf62dc338"),
    ("values omega-limit 3.1.1 --digits 40", "aec23a466b5942ca1ca068f94731485e5b8c3ca60d293ab94b0d8bf34333f992"),
    ("values zeta-s 3.1", "12c429c17fc9eed5b97443ef4bfada2e21710b74b0db12bbc9194c06aeb16c90"),
    ("values omega-mod 2.1.1 --primes 5,7,11", "5a306550d3b5a54383e408de9d079cc6f78b8bb30929615653e8d39e248ecef7"),
    ("dims finite --weights 1..9 --format json", "f374933d7724090ef7861595e5b3b380293d901fbc80338daaa765bb6fd3adb0"),
    ("dims cyclotomic --weights 2..5 --n-max 12 --format json", "02548c7ef1d30f82a3ac28151b234e143633b7f37c72fabbe0c8331f362e16b8"),
    ("verify identity-words --max-weight 8 --format json", "e040d7f52f7f6ee4cb5b649ff16c728005f2025463e0b2101e9c91b8feb754d2"),
    ("verify generating --max-weight 6 --format json", "c41a5c101cca00f84958210cc5a297f2f0be696fd39c490cd890d784682ffe7a"),
    ("relations conjecture --weights 5 --n-max 12", "f491775bb57f406f20596607bf55862373f394c2577ebb27b46d2a31586d569b"),
    ("relations symmetric --weights 2..3", "3e9de1ebec09ad72815c89eef5d297d977b765a1903a91e156828bf4ab4c7af2"),
    ("relations cyclotomic --weights 2..3 --n-max 20", "8e435db6692cee83bcc2b0bc1499aa184572414998048eb66c6d8255ba406e3d"),
    ("relations finite --weights 10", "c1e4b41badea3c0503ed65bb23002dcc0ef1dd07d21a3bb76a6f406b93539ea8"),
    ("verify q-kamano --max-weight 5 --n-max 6 --format json", "7771afec36c4091d89d24eebd55529dc8c8dff7e4d2ec687c397ef418ccf6045"),
    ("verify fmzv-reduction --max-weight 3 --format json", "f9f34214f83c610fbce766af65916cd7b5e73186b6d696743bc1a9947040018c"),
    ("relations finite --weights 11..12 --force", "6ab98b34b137e6941bf590ec61e3a2b243e80f40a3c64c258527b4a7afd244d0"),
    ("values omega-limit 3.1.1 --digits 300", "3dba74f6332d88da068436a6964978205dc8282e85cad4a9d5e4ecc57501eb31"),
    ("values zeta-s 4.2.1 --digits 200", "e22ae60906a3596d60e28c473679b418ec1c10469d6e3e6d2bfb3c1834058e87"),
    ("relations cyclotomic --weights 7 --n-max 40", "0ddbe902e3af9b79a479a9f902b37c6ebdb8cc78bb54b317576be078c14c50bc"),
    ("relations finite --weights 13..14 --force", "fb73ff12993f9ebda632a4a9bab240977729f69041375cdcc39cd53810d7ca38"),
    ("verify all", "12b93a8764d6590d7ddad60ef49ebd94beeeb5cd18676755a417e35ca3877649"),
    ("dims symmetric --weights 3..8 --force", "55903c8b589beeab5fce492dc269fac89a722ecdcf263d1eee4292672f136c8b"),
)


def stdout_digest(command):
    """(exit code, SHA-256 of stdout) of one in-process CLI run."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(command.split())
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_cli_output_digest(command, digest):
    assert stdout_digest(command) == (0, digest)


if __name__ == "__main__":
    for command, _digest in GOLDEN:
        code, digest = stdout_digest(command)
        print(f'    ("{command}", "{digest}"),' + (f"  # exit {code}" if code else ""))
