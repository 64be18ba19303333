"""Smoke test of the benchmark on a tiny input (`dims finite --weights 1..5`).

    python3 perfbench/smoke.py        # or: python3 -m pytest perfbench/smoke.py

Takes a few seconds.  Checks that both modes of run.py print every metric
with its unit and end with the result line, that the traced run's layer self
times add up to its traced wall time, and that a corrupted output is counted
as a failure.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import run

CMD = run.WORKLOADS["smoke"][0]


def bench(trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "smoke",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=120, check=True,
    )
    lines = proc.stdout.splitlines()
    shown = {ln.split()[0]: ln.split()[2] for ln in lines[:-1] if not ln.startswith("#")}
    return shown, json.loads(lines[-1])


def check_result(res, names):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names


def test_untraced_prints_every_end_to_end_metric():
    shown, res = bench(0)
    check_result(res, run.END_TO_END)
    for name, unit in {**run.END_TO_END, "fail_frac": "ratio", "host.ref_s": "s"}.items():
        assert shown.get(name) == unit, name


def test_traced_prints_every_per_layer_metric():
    shown, res = bench(1)
    check_result(res, run.PER_LAYER)
    for name, unit in {**run.END_TO_END, **run.PER_LAYER, "fail_frac": "ratio"}.items():
        assert shown.get(name) == unit, name
    m = {k: v["value"] for k, v in res["metrics"].items()}
    layers = sum(m[f"{layer}.self_s"] for layer in (*run.LAYERS, "cli"))
    assert abs(layers - m["trace.wall_s"]) < 1e-9
    assert m["modular.omega_mod.calls"] > 0 and m["relations.lll_reduce.calls"] > 0
    assert m["cli.calls"] == 1 and m["cyclo.calls"] == 0


def test_corrupted_output_counts_as_failure():
    real = subprocess.run(
        [sys.executable, "-m", "mtomega.cli", *CMD.split()],
        capture_output=True, cwd=run.ROOT, env=run.child_env(), timeout=60, check=True,
    ).stdout
    corrupted = real.replace(b"\n4,0,", b"\n4,1,")
    assert corrupted != real
    assert checks.problems(CMD, 0, real) == []
    found = checks.problems(CMD, 0, corrupted)
    assert any("sha256" in p for p in found) and any("dimensions" in p for p in found)
    # a stand-in package whose CLI prints the corrupted table, run end to end
    run.RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
        pkg = Path(tmp) / "mtomega"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "cli.py").write_text(
            "import sys\n\n\ndef main(argv=None):\n"
            f"    sys.stdout.buffer.write({corrupted!r})\n    return 0\n"
        )
        real_src, run.SRC = run.SRC, Path(tmp)
        try:
            res = run.run(["smoke"], seed=1, seconds=1, trace=0)
        finally:
            run.SRC = real_src
    samples = res.samples()
    commands = [s for s in samples if s.cmd]
    assert commands and all(not s.ok for s in commands)
    assert sum(not s.ok for s in samples) == len(commands)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
