"""Outside-in tracer for the mtomega layers.

`Tracer.install()` replaces every public function of `mtomega.words`,
`modular`, `cyclo`, `numeric` and `relations` by a timing wrapper, as a
module attribute.  Cross-module calls (`modular.omega_mod(...)` in `relations`)
and intra-module calls through globals (`in_span` -> `rank` -> `rref`) both
look the name up in the module dict at call time, so both are caught without
editing the package.  `CycloElem.__mul__` gets a call counter, not a span.
A generator function's span covers only the call that creates the generator
(`words.indices_of_weight` is the one public case); iterating it is charged
to the consumer.

Spans live in memory as (id, name, start, end, parent) tuples and are written
as JSONL by `write_spans`; the summary gives per-function and per-layer self
time and call counts, plus ratios derived from call arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time

LAYERS = ("words", "modular", "cyclo", "numeric", "relations")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _repeat_key(args, kwargs, point):
    """(sorted index, n or p): the values are symmetric in the index."""
    index = _arg(args, kwargs, 0, "index")
    return tuple(sorted(index)), _arg(args, kwargs, 1, point)


class _Stats:
    """Counts and extrema gathered from the arguments and results of calls."""

    def __init__(self):
        self.seen = {"cyclo.omega_at_root": set(), "modular.omega_mod": set()}
        self.repeats = {name: 0 for name in self.seen}
        self.kernel_updates = 0
        self.kernel_shrinks = 0
        self.lll_dim_max = 0
        self.lll_bits_max = 0
        self.pslq_accepted = 0
        self.pslq_dim_max = 0
        self.mul_calls = 0

    def observer(self, name):
        if name == "cyclo.omega_at_root":
            return lambda a, k, r: self._repeat(name, _repeat_key(a, k, "n"))
        if name == "modular.omega_mod":
            return lambda a, k, r: self._repeat(name, _repeat_key(a, k, "p"))
        if name == "relations.kernel_basis":
            return self._kernel
        if name == "relations.lll_reduce":
            return self._lll
        if name == "relations.pslq":
            return self._pslq
        return None

    def _repeat(self, name, key):
        seen = self.seen[name]
        if key in seen:
            self.repeats[name] += 1
        else:
            seen.add(key)

    def _kernel(self, args, kwargs, result):
        self.kernel_updates += 1
        if len(result) < _arg(args, kwargs, 1, "ncols"):
            self.kernel_shrinks += 1

    def _lll(self, args, kwargs, result):
        basis = _arg(args, kwargs, 0, "basis")
        self.lll_dim_max = max(self.lll_dim_max, len(basis))
        bits = max((abs(x).bit_length() for v in basis for x in v), default=0)
        self.lll_bits_max = max(self.lll_bits_max, bits)

    def _pslq(self, args, kwargs, result):
        self.pslq_dim_max = max(self.pslq_dim_max, len(_arg(args, kwargs, 0, "xs")))
        if result is not None:
            self.pslq_accepted += 1


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.names = []
        self.self_s = {}
        self.calls = {}
        self.stats = _Stats()
        self._stack = []
        self._ids = itertools.count()

    def install(self):
        for layer in LAYERS:
            mod = importlib.import_module(f"mtomega.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                setattr(mod, attr, self._wrap(f"{layer}.{attr}", obj))
        cyclo = importlib.import_module("mtomega.cyclo")
        elem = cyclo.CycloElem
        elem.__mul__ = self._count_mul(elem.__mul__)
        elem.__rmul__ = elem.__mul__

    def _count_mul(self, fn):
        stats = self.stats

        def mul(a, b):
            stats.mul_calls += 1
            return fn(a, b)

        return mul

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        self.self_s[name] = 0.0
        self.calls[name] = 0
        observe = self.stats.observer(name)
        spans, stack, ids = self.spans, self._stack, self._ids
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, name_id, start, end, parent))

        return functools.wraps(fn)(wrapper)

    def summary(self) -> dict:
        """Per-function self time and calls plus the derived counters."""
        st = self.stats
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "repeats": dict(st.repeats),
            "kernel_updates": st.kernel_updates,
            "kernel_shrinks": st.kernel_shrinks,
            "lll_dim_max": st.lll_dim_max,
            "lll_bits_max": st.lll_bits_max,
            "pslq_accepted": st.pslq_accepted,
            "pslq_dim_max": st.pslq_dim_max,
            "mul_calls": st.mul_calls,
        }

    def write_spans(self, path):
        names = [json.dumps(n) for n in self.names]
        run = json.dumps(self.run_id)
        with open(path, "a") as fh:
            for sid, name_id, start, end, parent in self.spans:
                fh.write(
                    f'{{"run": {run}, "id": {sid}, "name": {names[name_id]}, '
                    f'"start": {start!r}, "end": {end!r}, "parent": {parent}}}\n'
                )
