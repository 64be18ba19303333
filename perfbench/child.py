"""One benchmark child: import the CLI, optionally trace it, run one command.

    python child.py LAUNCH_NS REPORT TRACE_FILE RUN_ID [CLI ARGS...]

LAUNCH_NS is the parent's `time.monotonic_ns()` just before it started this
process, so `setup_s` covers interpreter start plus `import mtomega.cli`.
With no CLI arguments the child only sets up.  TRACE_FILE is `-` for an
untraced run; otherwise the tracer wraps the layers before `cli.main` and
appends its spans there after `main` returns.  REPORT receives a JSON object
with the timings and the trace summary.  Stdout is the CLI's alone.
"""

import json
import sys
import time

launch_ns = int(sys.argv[1])
report_path, trace_path, run_id = sys.argv[2:5]
cli_args = sys.argv[5:]

import mtomega.cli as cli  # noqa: E402

setup_s = (time.monotonic_ns() - launch_ns) / 1e9
tracer = None
if trace_path != "-":
    from tracer import Tracer

    tracer = Tracer(run_id)
    tracer.install()
code = cli.main(cli_args) if cli_args else 0
sys.stdout.flush()
main_s = (time.monotonic_ns() - launch_ns) / 1e9
report = {"setup_s": setup_s, "main_s": main_s}
if tracer is not None:
    report["trace"] = tracer.summary()
    tracer.write_spans(trace_path)
with open(report_path, "w") as fh:
    json.dump(report, fh)
sys.exit(code)
