"""Expected-output checks for the benchmark commands.

Every command's stdout must match the golden digest captured from the
reference implementation (golden.json) and, independently of it, the
paper's tables as stated below.  `problems` returns a list of what is wrong;
an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())

CYCLO_DIMS = {2: 1, 3: 2, 4: 4, 5: 7, 6: 12}
CYCLO_QUOTIENTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 5}
FINITE_DIMS = dict(enumerate([0, 0, 1, 0, 1, 1, 1, 2, 2, 3, 4, 5], start=1))
VERIFY_TAILS = {
    "verify all": "4253 checks, 0 failures",
    "verify identity-words --max-weight 9": "502 checks, 0 failures",
}


def zagier_d(k_max):
    """d_0..d_k_max of d_k = d_{k-2} + d_{k-3}, d_0 = 1, d_1 = 0, d_2 = 1."""
    d = [1, 0, 1]
    while len(d) <= k_max:
        d.append(d[-2] + d[-3])
    return d


def _table(stdout):
    """Rows of a `dims` CSV table as dicts of column -> int or str, by weight."""
    lines = stdout.splitlines()
    keys = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        vals = line.split(",")
        if len(vals) != len(keys):
            raise ValueError(f"bad row {line!r}")
        row = {k: int(v) if v.isdigit() else v for k, v in zip(keys, vals)}
        rows[int(row["weight"])] = row
    return rows


def _verify_problems(cmd, stdout):
    lines = stdout.splitlines()
    out = []
    if not lines or lines[-1] != VERIFY_TAILS[cmd]:
        out.append(f"summary is not {VERIFY_TAILS[cmd]!r}")
    if any(line.startswith("FAIL") for line in lines):
        out.append("a check printed FAIL")
    return out


def _dims_problems(cmd, stdout):
    side = cmd.split()[1]
    lo, hi = cmd.split("--weights ")[1].split()[0].split("..")
    weights = list(range(int(lo), int(hi) + 1))
    try:
        rows = _table(stdout)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"unparsable dims table: {exc}"]
    if sorted(rows) != weights:
        return [f"{side} table has weights {sorted(rows)}, not {weights}"]
    dims = {w: rows[w]["dimension"] for w in weights}
    if side == "cyclotomic":
        out = []
        for col, table in (("dimension", CYCLO_DIMS), ("quotient_dimension", CYCLO_QUOTIENTS)):
            got, want = {w: rows[w][col] for w in weights}, {w: table[w] for w in weights}
            if got != want:
                out.append(f"cyclotomic {col} {got} != {want}")
        return out
    # finite and symmetric share the table (symmetric = finite at weights 3..8)
    want = {w: FINITE_DIMS[w] for w in weights}
    out = [] if dims == want else [f"{side} dimensions {dims} != {want}"]
    d = zagier_d(weights[-1])
    for w in weights:
        if w >= 3 and dims[w] != d[w] - d[w - 2]:
            out.append(f"{side} weight {w}: {dims[w]} != d_k - d_(k-2) = {d[w] - d[w - 2]}")
    return out


def problems(cmd: str, code: int, stdout: bytes) -> list:
    """What is wrong with one run of `python -m mtomega.cli <cmd>`."""
    out = []
    if code != 0:
        out.append(f"exit code {code}")
    golden = GOLDEN[cmd]
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != golden["sha256"]:
        out.append(f"stdout sha256 {digest[:12]} != golden {golden['sha256'][:12]}")
    text = stdout.decode("utf-8", "replace")
    out.extend(_verify_problems(cmd, text) if cmd.startswith("verify") else _dims_problems(cmd, text))
    return out
