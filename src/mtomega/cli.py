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
import json
import math
import sys
from dataclasses import dataclass, field, fields

import mpmath as mp

from . import cyclo, modular, numeric, relations, words
from .errors import ConfigError, MTOmegaError

DIMS_GUARDRAILS = {"finite": 10, "cyclotomic": 8, "symmetric": 7}


@dataclass
class RunConfig:
    weights: list = field(default_factory=list)
    prime_min: int = 0  # 0 = derive from weight
    prime_max: int = 200
    n_max: int = 20
    digits: int = 60
    height_bound: int = 2**10
    output_format: str = "text"  # text | json | csv
    force: bool = False
    max_weight: int = 0  # 0 = suite default

    def validate(self):
        if self.digits < 30:
            raise ConfigError("digits must be >= 30")
        if self.prime_max <= 2 or self.n_max < 2 or self.height_bound < 1:
            raise ConfigError("bounds must be positive (prime_max > 2, n_max >= 2)")
        if self.weights and self.prime_min:
            if self.prime_min <= max(self.weights) + 2:
                raise ConfigError("prime_min must exceed max weight + 2")


def _load_config_file(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


def _build_config(args) -> RunConfig:
    cfg = RunConfig()
    file_vals = _load_config_file(args.config) if getattr(args, "config", None) else {}
    typed = {f.name: f.type for f in fields(RunConfig)}
    for key, val in file_vals.items():
        if key not in typed:
            raise ConfigError(f"unknown config key: {key}")
        cur = getattr(cfg, key)
        if isinstance(cur, bool):
            setattr(cfg, key, val.lower() in ("1", "true", "yes"))
        elif isinstance(cur, int):
            setattr(cfg, key, _parse_int(val, f"value for {key}"))
        elif isinstance(cur, list):
            setattr(cfg, key, _parse_weights(val))
        else:
            setattr(cfg, key, val)
    for key in typed:
        if hasattr(args, key) and getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
    if getattr(args, "format", None):
        cfg.output_format = args.format
    if getattr(args, "weights", None):
        cfg.weights = _parse_weights(args.weights)
    cfg.validate()
    return cfg


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"bad {what}: {text!r}") from None


def _parse_weights(spec: str) -> list:
    out = []
    for part in str(spec).split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = (_parse_int(x, "weights spec") for x in part.split("..", 1))
            out.extend(range(lo, hi + 1))
        elif part:
            out.append(_parse_int(part, "weights spec"))
    if not out or any(w < 1 for w in out):
        raise ConfigError(f"bad weights spec: {spec!r}")
    return sorted(set(out))


def _parse_ints(spec: str, flag: str) -> list:
    return [_parse_int(x, f"{flag} entry") for x in spec.split(",")]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(line: str):
    sys.stdout.write(line + "\n")


# ---------------------------------------------------------------------------
# verify suites


def _suite_fmzv_reduction(cfg):
    max_w = cfg.max_weight or 5
    prime_max = min(cfg.prime_max, 50) if cfg.prime_max == 200 else cfg.prime_max
    for w in range(2, max_w + 1):
        for k in words.indices_of_weight(w, min_len=2):
            for p in modular.primes_upto(prime_max):
                ok = (
                    cyclo.reduce_at_one(cyclo.omega_at_root(k, p), p)
                    == modular.omega_mod(k, p)
                )
                yield (f"reduce_at_one(omega_at_root) == omega_mod {k} p={p}", ok)


def _suite_q_kamano(cfg):
    max_w = cfg.max_weight or 5
    for w in range(2, max_w + 1):
        for k in words.indices_of_weight(w, min_len=2):
            for n in range(2, cfg.n_max + 1):
                yield (f"q-kamano {k} n={n}", cyclo.check_q_kamano(k, n))


def _suite_identity_words(cfg):
    max_w = cfg.max_weight or 7
    for w in range(2, max_w + 1):
        for k in words.indices_of_weight(w, min_len=2):
            yield (f"word identity {k}", words.check_identity_words(k))


def _suite_generating(cfg):
    max_w = cfg.max_weight or 5
    for rec in words.check_generating_identities(max_w):
        yield (f"{rec.identity} [{rec.instance}]", rec.ok)


def _suite_sym_sum(cfg):
    max_w = cfg.max_weight or 8
    for w in range(4, max_w + 1):
        for k in words.indices_of_weight(w, min_len=2, min_part=2):
            for n in range(2, cfg.n_max + 1):
                yield (f"sym-sum {k} n={n}", cyclo.check_sym_sum(k, n))


def _suite_corollary52(cfg):
    max_w = cfg.max_weight or 8
    primes = modular.primes_upto(cfg.prime_max)
    for w in range(4, max_w + 1):
        for k in words.indices_of_weight(w, min_len=2, min_part=2):
            terms = words.corollary52_terms(k)
            for p in primes:
                total = sum(modular.omega_mod(t, p) for t in terms)
                yield (f"corollary52 finite {k} p={p}", total % p == 0)
    digits = 40
    tol = mp.mpf(10) ** (-digits + 5)
    for w in range(4, min(max_w, 7) + 1):
        for k in words.indices_of_weight(w, min_len=2, min_part=2):
            with mp.workdps(digits + numeric.GUARD_DIGITS):
                total = mp.fsum(
                    numeric.omega_limit_num(t, digits).value
                    for t in words.corollary52_terms(k)
                )
                yield (f"corollary52 symmetric {k}", abs(total) < tol)


def _suite_specials(cfg):
    # almost-all-primes identities bind above the weight floor; see ledger
    max_w = cfg.max_weight or 8
    primes = modular.primes_upto(cfg.prime_max)
    for w in range(2, max_w + 1):
        for k1 in range(1, w):
            k = (k1, w - k1)
            for p in primes:
                if p <= w + 2:
                    continue
                yield (f"pair vanishing {k} p={p}", modular.omega_mod(k, p) == 0)
    for r in range(2, 5):
        k = (2,) * (r - 1) + (1,)
        if sum(k) > max_w:
            continue
        for p in primes:
            if p <= sum(k) + 2:
                continue
            yield (f"two-one vanishing {k} p={p}", modular.omega_mod(k, p) == 0)
    for kk in range(2, 7):
        for p in primes:
            if p < kk + 3:
                continue
            lhs = modular.omega_mod((1,) * kk, p)
            rhs = (-math.factorial(kk) * modular.bern_div_mod(kk, p)) % p
            yield (f"ones value {{1}}^{kk} p={p}", lhs == rhs)


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
    cfg = _build_config(args)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    records = []
    failed = 0
    for name in names:
        for instance, ok in SUITES[name](cfg):
            records.append((name, instance, ok))
            if not ok:
                failed += 1
    if cfg.output_format == "json":
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


# side -> miner(weight, cfg) returning (RelationBasis, DimReport)
MINERS = {
    "finite": lambda w, cfg: relations.finite_relation_space(w, height_bound=cfg.height_bound),
    "cyclotomic": lambda w, cfg: relations.cyclotomic_relation_space(w, range(2, cfg.n_max + 1)),
    "symmetric": lambda w, cfg: relations.symmetric_relation_space(w, digits=cfg.digits),
}


def cmd_dims(args) -> int:
    cfg = _build_config(args)
    if not cfg.weights:
        raise ConfigError("dims needs --weights")
    limit = DIMS_GUARDRAILS[args.side]
    if max(cfg.weights) > limit and not cfg.force:
        raise ConfigError(
            f"weight {max(cfg.weights)} over the {args.side} guardrail {limit}; "
            "use --force to override"
        )
    if max(cfg.weights) > limit:
        sys.stderr.write(f"warning: over guardrail {limit}, this may take long\n")
    # the cyclotomic quotient by (1-z) shifts needs the dimension one weight down
    quotient = args.side == "cyclotomic"
    need = set(cfg.weights) | {w - 1 for w in cfg.weights if quotient and w - 1 >= 2}
    reps = {w: MINERS[args.side](w, cfg)[1] for w in sorted(need)}
    rows = []
    for w in cfg.weights:
        row = {"weight": w, "dimension": reps[w].dimension}
        if quotient:
            prev = reps[w - 1].dimension if w - 1 >= 2 else 0
            row["quotient_dimension"] = reps[w].dimension - prev
        row["status"] = reps[w].status
        rows.append(row)
    if cfg.output_format == "json":
        _emit(json.dumps({"side": args.side, "rows": rows}, sort_keys=True))
    else:
        keys = list(rows[0]) if rows else []
        _emit(",".join(keys))
        for r in rows:
            _emit(",".join(str(r[k]) for k in keys))
    return 0


def cmd_relations(args) -> int:
    cfg = _build_config(args)
    if not cfg.weights:
        raise ConfigError("relations needs --weights")
    for w in cfg.weights:
        if args.side == "conjecture":
            out = relations.conjecture_report(
                w, n_range=range(2, cfg.n_max + 1), digits=cfg.digits
            ).to_json()
        else:
            out = relations.basis_report_json(*MINERS[args.side](w, cfg))
        _emit(json.dumps(out, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# values


def cmd_values(args) -> int:
    cfg = _build_config(args)
    try:
        index = modular.parse_index(args.index)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.kind == "omega-mod":
        primes = (
            _parse_ints(args.primes, "--primes")
            if args.primes
            else modular.primes_in(len(index), cfg.prime_max)
        )
        for p in primes:
            _emit(json.dumps({"index": args.index, "p": p, "res": modular.omega_mod(index, p)}))
    elif args.kind == "omega-root":
        ns = _parse_ints(args.n, "--n") if args.n else [cfg.n_max]
        for n in ns:
            val = cyclo.omega_at_root(index, n)
            _emit(json.dumps({"index": args.index, **val.to_json()}))
    elif args.kind == "omega-limit":
        val = numeric.omega_limit_num(index, cfg.digits)
        _emit(json.dumps({"index": args.index, **val.to_json()}))
    else:  # zeta-s
        val = numeric.zeta_s_num(index, cfg.digits)
        _emit(json.dumps({"index": args.index, **val.to_json()}))
    return 0


# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--digits", type=int, default=None)
    p.add_argument("--prime-min", dest="prime_min", type=int, default=None)
    p.add_argument("--prime-max", dest="prime_max", type=int, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--height-bound", dest="height_bound", type=int, default=None)
    p.add_argument("--format", choices=["text", "json", "csv"], default=None)
    p.add_argument("--force", action="store_true", default=None)
    p.add_argument("--config", default=None, help="key = value config file")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mtomega", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="machine-check the identities")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--max-weight", dest="max_weight", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dims", help="dimension tables")
    p.add_argument("side", choices=["finite", "cyclotomic", "symmetric"])
    p.add_argument("--weights", required=True, help="e.g. 3..8 or 2,3,5")
    _add_common(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("relations", help="relation mining reports (JSON)")
    p.add_argument("side", choices=["finite", "cyclotomic", "symmetric", "conjecture"])
    p.add_argument("--weights", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("values", help="stream individual values as JSON")
    p.add_argument("kind", choices=["omega-mod", "omega-root", "omega-limit", "zeta-s"])
    p.add_argument("index", help="dot-separated index, e.g. 2.1.1")
    p.add_argument("--primes", default=None, help="comma-separated primes")
    p.add_argument("--n", default=None, help="comma-separated n values")
    _add_common(p)
    p.set_defaults(func=cmd_values)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except MTOmegaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
