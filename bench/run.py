"""Benchmark platjones `eval`, `oracle` and `verify` end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the program from src/. The
workloads are eval-wide, oracle-deep and verify-batch (README.md says
what each holds and why). The inputs are made from --seed. Each program
process is a fresh interpreter running bench/child.py, which calls the
console entry point platjones.cli.main with --json; one process runs at
a time, with one BLAS thread. The run repeats whole rounds of the same
inputs while another round fits in --seconds, checks every output
against facts computed in words.py, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are wall_s, setup_s and peak_rss_mb, each a
median over the run. With --trace 1 untraced and traced rounds
alternate, and the metrics are the per-layer counters of layers.py,
medians over the traced rounds, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import words
from layers import METRICS

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
DEADLINE_S = 170.0  # a run must end within 180 s, whatever the program does
# The shared host's speed drifts by a third over minutes, for the program
# and for any fixed loop alike. Every time metric is scaled by
# CALIBRATION_S / (the run's median of the probe in child.py), so it reads
# as seconds on a host where that probe takes CALIBRATION_S.
CALIBRATION_S = 0.035
CHILD_ENV = {
    var: "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}

TREFOIL = "strands=4; g2^3"
HOPF = "strands=4; g2^2"
# Right trefoil V = t + t^3 - t^4 and Hopf link V = -t^{-1/2} - t^{-5/2},
# exponents in x = t^{1/2}; both hold up to +-x^s.
LITERATURE = {TREFOIL: {2: 1, 6: 1, 8: -1}, HOPF: {-1: -1, -5: -1}}
# The reference word and the 6-strand word fail the fit (exit 4) on
# every run: the arc-sampled least squares rejects their rounding.
FIXED_EVAL = [
    TREFOIL,
    HOPF,
    "strands=4; b2^3 h1^-2 h3^-2 b2^3",
    "strands=6; g4^-2 g2^-3 g3^-3 g4^-2 g4^-2 g4^2",
]
EVAL_PLAN = [(4, 4), (4, 6), (4, 8), (5, 6)]  # (n, crossings)
# Widest Jones support, in powers of x, that the fit accepts at the
# default tolerance: at n = 4 every word up to 10 passes and every word
# from 12 fails; at n = 5 up to 8. Seeded words past it would fail on
# some seeds only, so they are drawn again (README, "Failures").
FIT_SPAN = {4: 10, 5: 8}
ORACLE_PLAN = [(2, 14), (3, 16), (4, 17)]
VERIFY_PLAN = [(n, c) for n in (2, 3) for c in range(1, 11)]
VERIFY_PER_CLASS = 12

bracket = functools.cache(words.bracket)


@dataclass
class Job:
    """One program process: a console call and the check of its output."""

    argv: list[str]
    # returns one (status, detail) per operation; status is ok, failed or wrong
    check: Callable[[dict], list[tuple[str, str]]]
    ops: int = 1


def _coeffs(payload) -> dict[int, int]:
    return {int(k): v for k, v in payload["coeffs"].items()}


def check_eval(text: str):
    mu = words.components(text)

    def check(r):
        if r["rc"] != 0:
            return [("failed", f"{text}: exit {r['rc']}: {r['err'].strip()[:90]}")]
        out = json.loads(r["out"])
        poly = _coeffs(out["polynomial"])
        errors = words.identity_errors(poly, mu)
        oracle = out["oracle_polynomial"]
        if oracle is None or not words.same_up_to_unit(poly, _coeffs(oracle)):
            errors.append("not +-x^s times the oracle polynomial")
        if not words.same_up_to_unit(bracket(text), words.in_bracket_variable(poly)):
            errors.append("not +-A^k times the Kauffman bracket")
        if text in LITERATURE and not words.same_up_to_unit(poly, LITERATURE[text]):
            errors.append("not +-x^s times the literature value")
        return [("wrong", f"{text}: {'; '.join(errors)}")] if errors else [("ok", "")]
    return check


def check_oracle(text: str):
    mu = words.components(text)

    def check(r):
        if r["rc"] != 0:
            return [("failed", f"{text}: exit {r['rc']}: {r['err'].strip()[:90]}")]
        errors = words.identity_errors(_coeffs(json.loads(r["out"])["oracle_polynomial"]), mu)
        return [("wrong", f"{text}: {'; '.join(errors)}")] if errors else [("ok", "")]
    return check


def check_verify(corpus: dict[str, str]):
    def check(r):
        count = len(corpus)
        try:
            out = json.loads(r["out"])
        except ValueError:
            return [("failed", f"verify exit {r['rc']}: {r['err'].strip()[:90]}")] * count
        cases = out["cases"]
        if sorted(c["name"] for c in cases) != sorted(corpus):
            return [("wrong", f"{len(cases)} cases for {count} words")] * count
        outcomes = []
        for case in cases:
            text = corpus[case["name"]]
            if not case["pass"]:
                outcomes.append(("failed", f"{text}: {case['report']['deviations']}"))
                continue
            errors = words.identity_errors(
                _coeffs(case["report"]["oracle_polynomial"]), words.components(text))
            outcomes.append(("wrong", f"{text}: {'; '.join(errors)}") if errors else ("ok", ""))
        passed = all(case["pass"] for case in cases)
        if out["passed"] != passed or (r["rc"] == 0) != passed:
            return [("wrong", f"verify exit {r['rc']} with passed={out['passed']}")] * count
        return outcomes
    return check


def _write(path: Path, text: str) -> str:
    path.write_text(text + "\n")
    return str(path)


def _eval_word(rng, n: int, crossings: int) -> str:
    """A seeded word that needs the duality build and that the fit can round.

    A word of odd generators only compiles to diagonals and builds no
    duality matrix, so it would cost a hundredth of the others.
    """
    while True:
        text = words.random_word(rng, n, crossings)
        if (any(i % 2 == 0 for i, _ in words.parse(text)[1])
                and words.span(bracket(text)) // 2 <= FIT_SPAN[n]):
            return text


def eval_wide(rng, workdir: Path) -> list[Job]:
    texts = FIXED_EVAL + [_eval_word(rng, n, c) for n, c in EVAL_PLAN]
    return [Job(["eval", _write(workdir / f"{i:02d}.txt", t), "--json"], check_eval(t))
            for i, t in enumerate(texts)]


def oracle_deep(rng, workdir: Path) -> list[Job]:
    texts = [words.random_word(rng, n, c) for n, c in ORACLE_PLAN]
    return [Job(["oracle", _write(workdir / f"{i:02d}.txt", t), "--json"], check_oracle(t))
            for i, t in enumerate(texts)]


def verify_batch(rng, workdir: Path) -> list[Job]:
    corpus_dir = workdir / "corpus"
    corpus_dir.mkdir()
    corpus = {}
    for n, c in VERIFY_PLAN:
        for _ in range(VERIFY_PER_CLASS):
            name = f"w{len(corpus):03d}.txt"
            corpus[name] = words.random_word(rng, n, c)
            _write(corpus_dir / name, corpus[name])
    return [Job(["verify", str(corpus_dir), "--json"], check_verify(corpus), len(corpus))]


WORKLOADS = {"eval-wide": eval_wide, "oracle-deep": oracle_deep, "verify-batch": verify_batch}


def run_round(jobs: list[Job], traced: bool, deadline: float) -> dict:
    env = {**os.environ, **CHILD_ENV}
    rnd = {"traced": traced, "walls": [], "rss_kib": 0, "setups": [], "probes": [],
           "outcomes": [], "layers": Counter(), "absent": set()}
    for job in jobs:
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(CHILD)],
            input=json.dumps({"argv": job.argv, "trace": traced}),
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - spawned),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"child process exited {proc.returncode}:\n{proc.stderr}")
        report = json.loads(proc.stdout)
        rnd["setups"].append(report["ready"] - spawned)
        rnd["walls"].append(report["done"] - report["ready"])
        rnd["probes"].append(report["probe_s"])
        rnd["rss_kib"] = max(rnd["rss_kib"], report["maxrss_kib"])
        try:
            rnd["outcomes"] += job.check(report)
        except (ValueError, KeyError, TypeError) as e:  # unreadable output
            rnd["outcomes"] += [("wrong", f"{job.argv}: {e!r}")] * job.ops
        if traced:
            rnd["layers"].update(report["trace"]["metrics"])
            rnd["absent"].update(report["trace"]["absent"])
    return rnd


def wall(rounds: list[dict]) -> float:
    """Sum over the round's processes of each one's median call time.

    Host noise comes in bursts of a few seconds; a per-process median
    drops a burst that hits one process in one round.
    """
    return sum(statistics.median(times) for times in zip(*(r["walls"] for r in rounds)))


def host_scale(rounds: list[dict]) -> float:
    return CALIBRATION_S / statistics.median(p for r in rounds for p in r["probes"])


def metrics(rounds: list[dict], trace: bool) -> dict:
    plain = [r for r in rounds if not r["traced"]]
    scale = host_scale(rounds)
    if not trace:
        return {
            "wall_s": {"value": wall(plain) * scale, "unit": "s"},
            "setup_s": {"value": statistics.median(s for r in plain for s in r["setups"]) * scale,
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["rss_kib"] for r in plain) / 1024,
                            "unit": "MB"},
        }
    traced = [r for r in rounds if r["traced"]]
    out = {}
    for name, (unit, _, _) in METRICS.items():
        value = statistics.median(r["layers"][name] for r in traced)
        out[name] = {"value": value * scale if unit == "s" else value, "unit": unit}
    overhead = wall(traced) / wall(plain) - 1.0
    out["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-inputs", action="store_true",
                        help="print the seed's words, one a line, and exit")
    args = parser.parse_args()
    if args.seconds is None and not args.print_inputs:
        parser.error("--seconds is required")
    if not (ROOT / "src" / "platjones" / "cli.py").is_file():
        print(f"error: no platjones sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # on SIGTERM unwind, so subprocess.run kills the running child and the
    # temporary directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    rng = random.Random(f"{args.workload}/{args.seed}")
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        jobs = WORKLOADS[args.workload](rng, Path(tmp))
        if args.print_inputs:
            for path in sorted(Path(tmp).rglob("*.txt")):
                print(path.read_text(), end="")
            return 0
        rounds = []
        start = time.monotonic()
        longest = 0.0
        while True:
            began = time.monotonic()
            rounds.append(run_round(jobs, args.trace == 1 and len(rounds) % 2 == 1, deadline))
            now = time.monotonic()
            longest = max(longest, now - began)
            # start no round that would end past --seconds, judged by the longest so far
            if now - start + longest > args.seconds and (len(rounds) >= 2 or not args.trace):
                break
    outcomes = [o for r in rounds for o in r["outcomes"]]
    problems = Counter(o for o in outcomes if o[0] != "ok")
    print(f"{args.workload} seed {args.seed}: host scale {host_scale(rounds):.3f}, "
          f"{len(rounds)} rounds, unscaled walls "
          + " ".join(f"{sum(r['walls']):.3f}{'T' if r['traced'] else ''}" for r in rounds),
          file=sys.stderr)
    for (status, detail), count in sorted(problems.items()):
        print(f"  {status} x{count}: {detail}", file=sys.stderr)
    for name in sorted(set().union(*(r["absent"] for r in rounds))):
        print(f"  absent: {name} (its metrics read 0)", file=sys.stderr)
    print(json.dumps({
        "correct": not any(status == "wrong" for status, _ in outcomes),
        "attempted": len(outcomes),
        "failed": sum(problems.values()),
        "metrics": metrics(rounds, args.trace == 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
