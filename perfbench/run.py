#!/usr/bin/env python3
"""Benchmark of the mtomega CLI on the paper's tables.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload is a fixed list of
`python -m mtomega.cli ...` commands; every command runs in a fresh child
process, one child at a time (closed loop, one client).  The seed only draws
the order of commands and of traced/untraced twins; the inputs are fixed.

--trace 0 repeats the workload for about S seconds and reports the
end-to-end metrics (medians over repetitions), with times scaled to a
nominal host speed measured alongside each child (run_child).  --trace 1 runs each command
untraced and traced (perfbench/tracer.py wraps the layer functions from
outside) and reports per-layer self times, call counts and ratios.  Every
child's stdout is checked against the golden digest and the paper's tables
(perfbench/checks.py).  Metrics are printed one per line with their unit;
the last line is a JSON object {correct, attempted, failed, metrics}.
Run metadata and every sample go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

WORKLOADS = {
    "cyclotomic": ["dims cyclotomic --weights 2..6 --n-max 30"],
    "symmetric": ["dims symmetric --weights 3..8 --force"],
    "finite": ["dims finite --weights 1..12 --force"],
    "verify": ["verify all", "verify identity-words --max-weight 9"],
    "smoke": ["dims finite --weights 1..5"],
}
LAYERS = ("words", "modular", "cyclo", "numeric", "relations")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# functions whose self time (s) and call count the traced run reports
TRACED_SELF = (
    "cyclo.omega_at_root",
    "cyclo.z_at_root",
    "cyclo.reduce_at_one",
    "relations.cyclotomic_relation_space",
    "relations.lll_reduce",
    "relations.in_span",
    "relations.rref",
    "modular.omega_mod",
    "relations.pslq",
    "numeric.mzv_num",
    "numeric.omega_limit_num",
    "words.phi",
    "words.shuffle",
    "words.shuffle_hbar",
)
TRACED_CALLS = (
    "cyclo.omega_at_root",
    "relations.kernel_basis",
    "relations.lll_reduce",
    "modular.omega_mod",
    "relations.pslq",
    "numeric.mzv_num",
)
# ratio -> the call count it is a share of
RATIO_BASES = {
    "cyclo.omega_at_root.repeat_ratio": "cyclo.omega_at_root.calls",
    "modular.omega_mod.repeat_ratio": "modular.omega_mod.calls",
    "relations.kernel.useful_ratio": "relations.kernel_basis.calls",
    "relations.pslq.accept_ratio": "relations.pslq.calls",
}
PER_LAYER = {
    **{f"{layer}.{m}": u for layer in LAYERS + ("cli",) for m, u in (("self_s", "s"), ("calls", "count"))},
    **{f"{f}.self_s": "s" for f in TRACED_SELF},
    **{f"{f}.calls": "count" for f in TRACED_CALLS},
    "cyclo.mul.calls": "count",
    **{name: "ratio" for name in RATIO_BASES},
    "relations.lll_reduce.dim_max": "count",
    "relations.lll_reduce.bits_max": "bits",
    "relations.pslq.dim_max": "count",
    "trace.wall_s": "s",
    "trace.overhead": "x",
    "host.ref_s": "s",
}

SETUP_SAMPLES = 9  # import-only children per run, after the discarded warm-up
MIN_REPS = 2  # untraced repetitions per run, even when they outlast --seconds
RUN_DEADLINE_S = 170  # children still running this long after the start are killed
PACE_S = 0.2  # an untraced command child runs this long between host-speed readings
REF_NOMINAL_S = 0.003  # ref_loop()'s time at the nominal host speed


@dataclass
class Sample:
    """One child process: a CLI command, or set-up only when cmd is None.

    Times are as measured; `speed` scales them to the nominal host speed.
    """

    cmd: str | None
    traced: bool
    wall_s: float  # the child's run time, pauses for host-speed readings excluded
    cpu_s: float
    rss_mb: float
    code: int
    digest: str
    speed: float  # host_speed() over the child's run
    ref_s: float  # median of the ref_loop() readings around and during the child
    setup_s: float | None = None
    main_s: float | None = None
    problems: list = field(default_factory=list)
    trace: dict | None = None

    @property
    def ok(self):
        return not self.problems


def child_env():
    """The caller's environment with `src/` first on the path and a fixed hash seed.

    Without PYTHONDONTWRITEBYTECODE the warm-up child caches bytecode, so no
    timed child compiles; without PYTHONUNBUFFERED stdout is block-buffered,
    as for any run redirected to a file.
    """
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def ref_loop():
    """Seconds for one pass of a fixed pure-Python loop (about 3 ms): the host's speed now."""
    t = time.perf_counter()
    acc, x, d = Fraction(0), 1, {}
    for i in range(1, 600):
        acc += Fraction(i % 7 + 1, i)
        x = (x * 1103515245 + i) % (1 << 200)
        d[i % 97, i % 13] = d.get((i % 97, i % 13), 0) ^ x
    return time.perf_counter() - t


def host_speed(slices, readings):
    """REF_NOMINAL_S over the reference time, averaged over the slices' run time.

    Slice i ran between readings i and i + 1.  It is weighted by the median
    of those two readings and their neighbours, so one stray reading counts
    little.
    """
    total = sum(slices)
    if not total:
        return REF_NOMINAL_S / statistics.median(readings)
    return sum(
        a * REF_NOMINAL_S / statistics.median(readings[max(0, i - 1): i + 3])
        for i, a in enumerate(slices)
    ) / total


def run_child(workdir, cmd, deadline, trace_path=None, run_id="-", paced=False) -> Sample:
    """Start one child, wait for it, and check its output.

    The host's speed on this shared machine drifts by up to a factor of two
    within seconds, so every child is timed against ref_loop() run on the same
    CPU (run() pins the benchmark and its children to one).  The loop runs
    just before the start and just after the end; a paced child is also
    stopped every PACE_S seconds while it runs once more.  The child's wall
    time excludes those pauses.  Its stdout, stderr and report go to files in
    `workdir`.
    """
    report = workdir / "child-report.json"
    out, err = workdir / "child-stdout.txt", workdir / "child-stderr.txt"
    report.unlink(missing_ok=True)
    readings, slices = [ref_loop()], []
    with open(out, "wb") as fo, open(err, "wb") as fe:
        launch = resumed = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(launch), str(report),
             str(trace_path or "-"), run_id, *(cmd.split() if cmd else [])],
            stdout=fo, stderr=fe, cwd=ROOT, env=child_env(),
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                left = max(0.0, deadline - time.monotonic())
                done = select.select([pidfd], [], [], min(PACE_S, left) if paced else left)[0]
                if done or time.monotonic() >= deadline:
                    slices.append((time.monotonic_ns() - resumed) / 1e9)
                    break
                os.kill(proc.pid, signal.SIGSTOP)
                slices.append((time.monotonic_ns() - resumed) / 1e9)
                readings.append(ref_loop())
                os.kill(proc.pid, signal.SIGCONT)
                resumed = time.monotonic_ns()
            if not done:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
    readings.append(ref_loop())
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stdout = out.read_bytes()
    sample = Sample(
        cmd, trace_path is not None, sum(slices), usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024, code, hashlib.sha256(stdout).hexdigest(),
        host_speed(slices, readings), statistics.median(readings),
    )
    try:
        rep = json.loads(report.read_text())
        sample.setup_s, sample.main_s, sample.trace = rep["setup_s"], rep["main_s"], rep.get("trace")
    except (OSError, ValueError, KeyError):
        tail = err.read_text(errors="replace")[-300:].strip()
        sample.problems.append(f"no child report (killed at the deadline?): {tail}")
    if cmd:
        sample.problems.extend(checks.problems(cmd, code, stdout))
    elif code:
        sample.problems.append(f"exit code {code}")
    return sample


def per_layer(traced, untraced) -> dict:
    """Per-layer metrics of one repetition: its traced samples, summed."""
    self_s, calls, agg = {}, {}, {}
    for t in (s.trace for s in traced):
        for k, v in t["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in t["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in [*t["repeats"].items(), *((k, t[k]) for k in
                     ("kernel_updates", "kernel_shrinks", "pslq_accepted", "mul_calls"))]:
            agg[k] = agg.get(k, 0) + v
        for k in ("lll_dim_max", "lll_bits_max", "pslq_dim_max"):
            agg[k] = max(agg.get(k, 0), t[k])
    traced_wall = sum(s.main_s for s in traced)

    m = {}
    for layer in LAYERS:
        fns = [k for k in self_s if k.startswith(layer + ".")]
        m[f"{layer}.self_s"] = sum(self_s[k] for k in fns)
        m[f"{layer}.calls"] = sum(calls[k] for k in fns)
    m["cli.self_s"] = traced_wall - sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["cli.calls"] = len(traced)
    for f in TRACED_SELF:
        m[f"{f}.self_s"] = self_s.get(f, 0.0)
    for f in TRACED_CALLS:
        m[f"{f}.calls"] = calls.get(f, 0)
    m["cyclo.mul.calls"] = agg["mul_calls"]
    hits = {
        "cyclo.omega_at_root.repeat_ratio": agg["cyclo.omega_at_root"],
        "modular.omega_mod.repeat_ratio": agg["modular.omega_mod"],
        "relations.kernel.useful_ratio": agg["kernel_shrinks"],
        "relations.pslq.accept_ratio": agg["pslq_accepted"],
    }
    for name, base in RATIO_BASES.items():
        m[name] = hits[name] / m[base] if m[base] else 0.0
    m["relations.lll_reduce.dim_max"] = agg["lll_dim_max"]
    m["relations.lll_reduce.bits_max"] = agg["lll_bits_max"]
    m["relations.pslq.dim_max"] = agg["pslq_dim_max"]
    m["trace.wall_s"] = traced_wall
    m["trace.overhead"] = traced_wall / sum(s.main_s for s in untraced)
    return m


@dataclass
class Run:
    setup: list  # set-up-only children, the discarded warm-up first
    reps: list  # per repetition: {workload: [Sample]}
    order: list  # [workload, command, traced] in the order run

    def samples(self):
        return self.setup + [s for rep in self.reps for ss in rep.values() for s in ss]

    def host_ref_s(self):
        return statistics.median(s.ref_s for s in self.samples())

    def end_to_end(self, w, nominal=True):
        """Medians over repetitions; times at the nominal host speed unless `nominal` is false."""
        plain = [[s for s in rep[w] if not s.traced] for rep in self.reps]
        scale = (lambda s: s.speed) if nominal else (lambda s: 1.0)
        setups = [s.setup_s * scale(s) for s in self.setup[1:] if s.setup_s is not None] or [0.0]
        return {
            "wall_s": statistics.median(sum(s.wall_s * scale(s) for s in p) for p in plain),
            "cpu_s": statistics.median(sum(s.cpu_s * scale(s) for s in p) for p in plain),
            "peak_rss_mb": max(s.rss_mb for p in plain for s in p),
            "setup_s": statistics.median(setups),
        }

    def per_layer(self, w):
        """Per-layer metrics of the repetition with the median traced wall time.

        One repetition is reported whole, so its layer self times plus
        cli.self_s add up to its trace.wall_s exactly.
        """
        reps = [rep[w] for rep in self.reps if all(s.trace for s in rep[w] if s.traced)]
        if not reps:
            return {name: 0.0 for name in PER_LAYER}
        ms = sorted(
            (per_layer([s for s in r if s.traced], [s for s in r if not s.traced]) for r in reps),
            key=lambda m: m["trace.wall_s"],
        )
        return {**ms[(len(ms) - 1) // 2], "host.ref_s": self.host_ref_s()}


def run(workloads, seed, seconds, trace) -> Run:
    """Repeat the workloads' commands for about `seconds` seconds.

    Every repetition runs each (workload, command) once, in an order drawn
    from the seed; with tracing each command runs untraced and traced, in a
    drawn order too.  Repetitions stop when the next one would likely end
    after `seconds`, but not before MIN_REPS untraced ones (one traced).
    """
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        return _run(Path(tmp), workloads, seed, seconds, trace)


def _run(workdir, workloads, seed, seconds, trace) -> Run:
    rng = random.Random(seed)
    # children inherit the pin, so a child and its host-speed readings share a CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + RUN_DEADLINE_S
    jobs = [(w, c) for w in workloads for c in WORKLOADS[w]]
    spans = {w: RESULTS / f"{w}.spans.jsonl" for w in workloads}
    if trace:
        for f in spans.values():
            f.write_text("")
    # the warm-up compiles stale .pyc files; its timing is discarded
    setup = [run_child(workdir, None, deadline) for _ in range(1 + SETUP_SAMPLES)]
    res = Run(setup, [], [])
    rep_times = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        rep = {w: [] for w in workloads}
        for w, cmd in rng.sample(jobs, len(jobs)):
            for traced in rng.sample([False, True], 2) if trace else [False]:
                run_id = f"{w}-seed{seed}-rep{len(res.reps)}"
                s = run_child(workdir, cmd, deadline, spans[w] if traced else None, run_id, paced=not trace)
                rep[w].append(s)
                res.order.append([w, cmd, traced])
        for samples in rep.values():
            plain = {s.cmd: s.digest for s in samples if not s.traced}
            for s in samples:
                if s.traced and s.digest != plain[s.cmd]:
                    s.problems.append("traced stdout differs from the untraced run")
        res.reps.append(rep)
        rep_times.append(time.monotonic() - t0)
        now = time.monotonic()
        enough = len(res.reps) >= (1 if trace else MIN_REPS)
        if (enough and now - start + statistics.median(rep_times) > seconds) or now > deadline:
            break
    return res


# ---------------------------------------------------------------------------
# metadata and output


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    h = hashlib.sha256()
    for p in sorted((SRC / "mtomega").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(workloads, seed):
    from importlib.metadata import version

    probe = subprocess.run(
        [sys.executable, "-c", "import mpmath.libmp as m; print(m.BACKEND)"],
        capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=60,
    )
    return {
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
        "commands": {w: [f"python -m mtomega.cli {c}" for c in WORKLOADS[w]] for w in workloads},
        "interpreter": sys.executable,
        "python": platform.python_version(),
        "mpmath_backend": probe.stdout.strip() or None,
        "numpy": version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def fmt_metric(name, value, unit, base=None):
    line = f"{name:44s} {value:16.6f} {unit}"
    return line + (f"  (share of {base:g})" if base is not None else "")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "mtomega" / "cli.py").is_file():
        sys.stderr.write(f"no mtomega sources under {SRC}; run from a full checkout\n")
        return 2
    workloads = [w for w in WORKLOADS if w != "smoke"] if args.workload == "all" else [args.workload]
    res = run(workloads, args.seed, args.seconds, args.trace)
    samples = res.samples()
    attempted, failed = len(samples), sum(not s.ok for s in samples)
    print(f"# {len(res.reps)} repetitions, {attempted} children, {failed} failed")
    print(fmt_metric("fail_frac", failed / attempted, "ratio", attempted))
    if not args.trace:  # with tracing it is among the per-layer metrics
        print(fmt_metric("host.ref_s", res.host_ref_s(), "s"))
    metrics = {}
    for w in workloads:
        prefix = f"{w}." if len(workloads) > 1 else ""
        e2e = res.end_to_end(w)
        print(f"# workload {w}")
        raw = res.end_to_end(w, nominal=False)
        for name, unit in END_TO_END.items():
            print(fmt_metric(prefix + name, e2e[name], unit))
            if unit == "s":
                print(fmt_metric(f"{prefix}raw.{name}", raw[name], unit))
        chosen = {n: (e2e[n], u) for n, u in END_TO_END.items()}
        if args.trace:
            layer = res.per_layer(w)
            for name, unit in PER_LAYER.items():
                base = layer[RATIO_BASES[name]] if name in RATIO_BASES else None
                print(fmt_metric(prefix + name, layer[name], unit, base))
            chosen = {n: (layer[n], u) for n, u in PER_LAYER.items()}
        metrics.update({prefix + n: {"value": v, "unit": u} for n, (v, u) in chosen.items()})
    for s in samples:
        if s.problems:
            print(f"# FAILED {s.cmd or '(set-up)'}{' traced' if s.traced else ''}: {'; '.join(s.problems)}")
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        **metadata(workloads, args.seed),
        "host_ref_s": res.host_ref_s(),
        "raw": {w: res.end_to_end(w, nominal=False) for w in workloads},
        "order": res.order,
        "samples": [{k: v for k, v in asdict(s).items() if k != "trace"} | {"ok": s.ok} for s in samples],
        "fail_frac": failed / attempted,
        "metrics": metrics,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"# results: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
