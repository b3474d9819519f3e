"""Run one platjones console call in this fresh interpreter; report as JSON.

Usage: python3 bench/child.py < job.json, with the job
{"argv": [arg, ...], "trace": false}. The call goes through
platjones.cli.main with its stdout and stderr captured. The one line
this prints holds the CLOCK_MONOTONIC time just before the call
("ready") and just after it ("done"), its exit code and output, the
peak resident set size in KiB, the time of a fixed loop run after the
call ("probe_s", a measure of the host's current speed on the core the
program ran on) and, with "trace" set, the per-layer counters of
layers.py.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def probe() -> float:
    """Seconds the host takes now for a fixed pure-Python loop."""
    start = time.perf_counter()
    table = list(range(4096))
    for i in range(200_000):
        table[i & 4095] = table[(i * 7919) & 4095] + 1
    return time.perf_counter() - start


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import platjones.cli

    recorder = None
    if job["trace"]:
        import layers

        recorder = layers.Recorder()
        recorder.install()
    out, err = io.StringIO(), io.StringIO()
    ready = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = platjones.cli.main(job["argv"])
        except SystemExit as e:  # argparse usage errors
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:  # a traceback is a failed call, not a dead run
            traceback.print_exc()
            rc = 1
    done = time.monotonic()
    report = {
        "ready": ready,
        "done": done,
        "rc": rc,
        "out": out.getvalue(),
        "err": err.getvalue(),
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probe_s": probe(),
        "trace": recorder.report() if recorder else None,
    }
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
