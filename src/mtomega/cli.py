"""Batch command-line front end.

Subcommands: `verify` (machine checks of the identities), `dims` (dimension
tables), `relations` (relation mining reports), `values` (individual value
streams).  Output is deterministic for a fixed configuration: JSON objects
are emitted with sorted iteration order and no timestamps, so identical runs
are byte-identical.

Exit codes: 0 all checks pass, 1 configuration error, 2 a verified identity
failed (the falsifying instance is printed).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import sys

from . import cyclo, modular, relations, words
from .errors import ConfigError, MTOmegaError

#: Largest weight each side mines without --force; conjecture mines all three
#: sides, so it takes the smallest limit.
GUARDRAILS = {"finite": 10, "cyclotomic": 8, "symmetric": 7, "conjecture": 7}
FORMATS = ("text", "json")


#: Config-file spellings of a boolean flag's value.
BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _load_config_file(path) -> dict:
    """The file's `key = value` lines; `#` starts a comment."""
    try:
        with open(path) as fh:
            lines = [line.split("#", 1)[0].strip() for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    out = {}
    for line in filter(None, lines):
        if "=" not in line:
            raise ConfigError(f"bad config line: {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        out[key.replace("-", "_")] = val
    return out


def _config_flags(args) -> list:
    """The --config file's `key = value` lines as the subcommand's own flags.

    A key is valid only when the subcommand declares its flag; the values are
    then converted and checked by the flags' own argparse types.
    """
    dests = {spec.get("dest", name[2:].replace("-", "_")): name for name, spec in FLAGS.items()}
    flags = []
    for key, val in _load_config_file(args.config).items():
        name = dests.get(key)
        if name in (None, "--config") or not hasattr(args, key):
            raise ConfigError(f"unknown config key: {key}")
        spec = FLAGS[name]
        if spec.get("action") == "store_true":
            if val.lower() not in BOOLEANS:
                raise ConfigError(f"bad value for {key}: {val!r} (true|yes|1|false|no|0)")
            if BOOLEANS[val.lower()]:
                flags.append(name)
        elif val not in spec.get("choices", [val]):
            raise ConfigError(f"{key} must be one of {'|'.join(spec['choices'])}")
        else:
            flags.append(f"{name}={val}")
    return flags


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"bad {what}: {text!r}") from None


def _bounded(key: str, lo: int, hi: int | None = None):
    """argparse type: an integer in lo..hi, or at least lo when hi is None."""

    def parse(text: str) -> int:
        value = _parse_int(text, f"value for {key}")
        if hi is None and value < lo:
            raise ConfigError(f"{key} must be >= {lo}")
        if hi is not None and not lo <= value <= hi:
            raise ConfigError(f"{key} must be in {lo}..{hi}")
        return value

    return parse


def _parse_weights(spec: str) -> list:
    out = []
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = (_parse_int(x, "weights spec") for x in part.split("..", 1))
            out.extend(range(lo, hi + 1))
        elif part:
            out.append(_parse_int(part, "weights spec"))
    if not out or any(w < 1 for w in out):
        raise ConfigError(f"bad weights spec: {spec!r}")
    return sorted(set(out))


def _parse_ints(spec: str) -> list:
    return [_parse_int(x, f"entry in {spec!r}") for x in spec.split(",")]


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # a flag is accepted only as spelled in FLAGS, not as a prefix of one
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(line: str):
    sys.stdout.write(line + "\n")


# ---------------------------------------------------------------------------
# verify suites
#
# A suite lists its checks as (instance, test, needs): test(*values) decides
# a check, values being f(k, ring(m)) for the (ring, f, k, m) of needs, which
# cmd_verify forms for all its suites together, modulus by modulus.


def _values(needs) -> dict:
    """f(k, ring(m)) for each (ring, f, k, m) of needs, modulus by modulus: one
    ring per (ring, m), shared by its needs and dropped before the next."""
    by_ring = {}
    for ring, f, k, m in needs:
        by_ring.setdefault((ring, m), {})[f, k] = None
    out = {}
    for (ring, m), fks in by_ring.items():
        out.update(((ring, f, k, m), f(k, r)) for r in [ring(m)] for f, k in fks)
    return out


def _indices(lo, max_w, **kw) -> list:
    return [k for w in range(lo, max_w + 1) for k in words.indices_of_weight(w, min_len=2, **kw)]


def _suite_fmzv_reduction(args):
    def reduced(k, ring):
        return cyclo.reduce_at_one(cyclo.omega_at_root(k, ring), ring.n)

    for k in _indices(2, args.max_weight or 5):
        for p in modular.primes_upto(args.prime_max or 50):
            finite = (modular.prime_ring, modular.omega_mod, k, p)
            needs = [(cyclo.packed_ring, reduced, k, p), finite]
            yield (f"reduce_at_one(omega_at_root) == omega_mod {k} p={p}", operator.eq, needs)


def _suite_q_kamano(args):
    for k in _indices(2, args.max_weight or 5):
        for n in _n_range(args):
            yield (f"q-kamano {k} n={n}", bool, [(cyclo.packed_ring, cyclo.check_q_kamano, k, n)])


def _suite_identity_words(args):
    for k in _indices(2, args.max_weight or 7):
        yield (f"word identity {k}", functools.partial(words.check_identity_words, k), ())


def _suite_generating(args):
    for rec in words.check_generating_identities(args.max_weight or 5):
        yield (f"{rec.identity} [{rec.instance}]", functools.partial(bool, rec.ok), ())


def _suite_sym_sum(args):
    for k in _indices(4, args.max_weight or 8, min_part=2):
        for n in _n_range(args):
            yield (f"sym-sum {k} n={n}", bool, [(cyclo.packed_ring, cyclo.check_sym_sum, k, n)])


def _suite_corollary52(args):
    terms = {k: words.corollary52_terms(k) for k in _indices(4, args.max_weight or 8, min_part=2)}
    primes = modular.primes_upto(args.prime_max or 200)
    for k, ts in terms.items():
        for p in primes:
            needs = [(modular.prime_ring, modular.omega_mod, t, p) for t in ts]
            yield (f"corollary52 finite {k} p={p}", lambda *res, p=p: sum(res) % p == 0, needs)
    for k, ts in terms.items():
        if sum(k) <= 7:  # the Omega words of the terms cancel exactly
            cancel = lambda ts=ts: not sum(map(words.omega_word, ts), words.WordSum.zero())
            yield (f"corollary52 symmetric {k}", cancel, ())


def _suite_specials(args):
    # each identity is proved for p > weight + 2, so smaller primes are skipped
    max_w = args.max_weight or 8
    primes = modular.primes_upto(args.prime_max or 200)
    families = {
        "pair vanishing": [(k1, w - k1) for w in range(2, max_w + 1) for k1 in range(1, w)],
        "two-one vanishing": [(2,) * r + (1,) for r in range(1, 4) if 2 * r + 1 <= max_w],
        "ones value": [(1,) * n for n in range(2, 7)],
    }
    for name, ks in families.items():
        for k, p in ((k, p) for k in ks for p in primes if p > sum(k) + 2):
            needs, n = [(modular.prime_ring, modular.omega_mod, k, p)], len(k)
            if name != "ones value":
                yield (f"{name} {k} p={p}", operator.not_, needs)
            else:  # omega({1}^n) = -n! B_(p-n)/n mod p
                want = -math.factorial(n) * modular.bern_div_mod(n, p) % p
                yield (f"ones value {{1}}^{n} p={p}", functools.partial(operator.eq, want), needs)


SUITES = {
    "fmzv-reduction": _suite_fmzv_reduction,
    "q-kamano": _suite_q_kamano,
    "identity-words": _suite_identity_words,
    "generating": _suite_generating,
    "sym-sum": _suite_sym_sum,
    "corollary52": _suite_corollary52,
    "specials": _suite_specials,
}


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = [(name, *check) for name in names for check in SUITES[name](args)]
    values = _values(need for *_check, needs in checks for need in needs)
    records = [(name, i, test(*(values[n] for n in needs))) for name, i, test, needs in checks]
    failed = sum(not ok for *_record, ok in records)
    if args.output_format == "json":
        _emit(
            json.dumps(
                {
                    "suites": names,
                    "checked": len(records),
                    "failed": failed,
                    "instances": [
                        {"suite": s, "instance": i, "ok": ok} for s, i, ok in records
                    ],
                },
                sort_keys=True,
            )
        )
    else:
        for s, i, ok in records:
            _emit(f"{'ok  ' if ok else 'FAIL'} [{s}] {i}")
        _emit(f"{len(records)} checks, {failed} failures")
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# dims / relations


# side -> miner(weights, n_range) yielding each weight's (RelationBasis, DimReport)
MINERS = {
    "finite": lambda ws, ns: relations.finite_relation_spaces(ws),
    "cyclotomic": relations.cyclotomic_relation_spaces,
    "symmetric": lambda ws, ns: relations.symmetric_relation_spaces(ws),
}


def _n_range(args) -> range:
    """n = 2..--n-max, 20 when unset."""
    return range(2, (args.n_max or 20) + 1)


#: Where each flag does nothing: --n-max on the sides and verify suites that
#: have no n, --prime-max on the suites that have no primes, and on a value
#: kind every flag but its own: the primes of omega-mod, the n of omega-root
#: and the digits of the real values.
UNREAD = {
    "--n-max": {"finite", "symmetric", *SUITES, "omega-mod", "omega-limit", "zeta-s"}
    - {"q-kamano", "sym-sum"},
    "--prime-max": {"q-kamano", "identity-words", "generating", "sym-sum"}
    | {"omega-root", "omega-limit", "zeta-s"},
    "--n": {"omega-mod", "omega-limit", "zeta-s"},
    "--primes": {"omega-root", "omega-limit", "zeta-s"},
    "--digits": {"omega-mod", "omega-root"},
}


def _refuse_unread(args):
    """Refuse a flag, or its config key, that the side, suite or kind would
    ignore, and a value list given with the bound that would be ignored."""
    given = {flag for flag in FLAGS if getattr(args, flag[2:].replace("-", "_"), None) is not None}
    wheres = {"side": "on the {} side", "suite": "in the {} suite", "kind": "for {} values"}
    for attr, where in wheres.items():
        name = getattr(args, attr, None)
        for flag, names in UNREAD.items():
            if name in names and flag in given:
                raise ConfigError(f"{flag} does nothing {where.format(name)}")
    for pair in (("--primes", "--prime-max"), ("--n", "--n-max")):
        if given.issuperset(pair):
            raise ConfigError(f"{pair[0]} and {pair[1]} exclude each other")


def _guarded_weights(args) -> list:
    """The run's weights, refused past the side's guardrail unless forced."""
    if not args.weights:
        raise ConfigError(f"{args.command} needs --weights")
    top, limit = max(args.weights), GUARDRAILS[args.side]
    if top > limit:
        if not args.force:
            raise ConfigError(
                f"weight {top} over the {args.side} guardrail {limit}; use --force to override"
            )
        sys.stderr.write(f"warning: over guardrail {limit}, this may take long\n")
    return args.weights


def cmd_dims(args) -> int:
    weights = _guarded_weights(args)
    # the cyclotomic quotient by (1-z) shifts needs the dimension one weight down
    quotient = args.side == "cyclotomic"
    need = sorted(set(weights) | {w - 1 for w in weights if quotient and w - 1 >= 2})
    mined = MINERS[args.side](need, _n_range(args))
    reps = {w: rep for w, (_basis, rep) in zip(need, mined)}
    rows = []
    for w in weights:
        row = {"weight": w, "dimension": reps[w].dimension}
        if quotient:
            prev = reps[w - 1].dimension if w - 1 >= 2 else 0
            row["quotient_dimension"] = reps[w].dimension - prev
        row["status"] = reps[w].status
        rows.append(row)
    if args.output_format == "json":
        _emit(json.dumps({"side": args.side, "rows": rows}, sort_keys=True))
    else:
        keys = list(rows[0]) if rows else []
        _emit(",".join(keys))
        for r in rows:
            _emit(",".join(str(r[k]) for k in keys))
    return 0


def cmd_relations(args) -> int:
    weights, n_range = _guarded_weights(args), _n_range(args)
    if args.side == "conjecture":
        outs = relations.conjecture_reports(weights, n_range)
    else:
        outs = (relations.basis_report_json(*r) for r in MINERS[args.side](weights, n_range))
    for out in outs:
        _emit(json.dumps(out, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# values


def cmd_values(args) -> int:
    try:
        index = modular.parse_index(args.index)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.kind == "omega-mod":
        primes = args.primes or modular.primes_in(len(index), (args.prime_max or 200) + 1)
        for p in primes:  # one ring per prime, dropped before the next
            res = modular.omega_mod(index, modular.prime_ring(p))
            _emit(json.dumps({"index": args.index, "p": p, "res": res}))
    elif args.kind == "omega-root":
        for n in args.n or [args.n_max or 20]:
            val = cyclo.omega_at_root(index, cyclo.packed_ring(n))
            _emit(json.dumps({"index": args.index, **val.to_json()}))
    else:  # omega-limit or zeta-s, the real values
        from . import numeric

        num = numeric.omega_limit_num if args.kind == "omega-limit" else numeric.zeta_s_num
        _emit(json.dumps({"index": args.index, **num(index, args.digits or 60).to_json()}))
    return 0


# ---------------------------------------------------------------------------


# Every flag with its type, range check and default; each subcommand declares
# the ones it reads.  A --max-weight, --prime-max, --n-max or --digits left
# at None takes the verify suite's or the command's own default.
FLAGS = {
    "--weights": {"type": _parse_weights, "help": "e.g. 3..8 or 2,3,5"},
    "--max-weight": {"type": _bounded("max_weight", 2)},
    "--primes": {"type": _parse_ints, "help": "comma-separated primes"},
    "--n": {"type": _parse_ints, "help": "comma-separated n values"},
    "--prime-max": {"type": _bounded("prime_max", 3, modular.MAX_PRIME)},
    "--n-max": {"type": _bounded("n_max", 2)},
    "--digits": {"type": _bounded("digits", 30, relations.MAX_DIGITS)},
    "--format": {"dest": "output_format", "choices": FORMATS, "default": "text"},
    "--force": {"action": "store_true"},
    "--config": {"help": "key = value config file; flags on the command line win"},
}


def _add_flags(p, *names):
    for name in names:
        p.add_argument(name, **FLAGS[name])


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mtomega", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="machine-check the identities")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    _add_flags(p, "--max-weight", "--prime-max", "--n-max", "--format", "--config")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dims", help="dimension tables")
    p.add_argument("side", choices=["finite", "cyclotomic", "symmetric"])
    _add_flags(p, "--weights", "--n-max", "--format", "--force", "--config")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("relations", help="relation mining reports (JSON)")
    p.add_argument("side", choices=["finite", "cyclotomic", "symmetric", "conjecture"])
    _add_flags(p, "--weights", "--n-max", "--force", "--config")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("values", help="stream individual values as JSON")
    p.add_argument("kind", choices=["omega-mod", "omega-root", "omega-limit", "zeta-s"])
    p.add_argument("index", help="dot-separated index, e.g. 2.1.1")
    _add_flags(p, "--primes", "--n", "--prime-max", "--n-max", "--digits", "--config")
    p.set_defaults(func=cmd_values)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's flags go right after the subcommand name, so the
            # command line's own flags come later and win
            args = parser.parse_args(argv[:1] + _config_flags(args) + argv[1:])
        _refuse_unread(args)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except MTOmegaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
