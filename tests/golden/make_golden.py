"""Write the golden CLI corpus, cli.json, from the program in src/.

    PYTHONPATH=src python3 tests/golden/make_golden.py

Each call runs in this process through platjones.cli.main, with its
word files written to a temporary directory first. cli.json keeps, per
call, its argv and files, its stdout, its stderr and its exit code, with
the directory's path replaced by TMP in all of them. tests/test_golden.py
replays every call the same way and compares the outputs.

Regenerating the corpus is a test change: list each regeneration, and
why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

TMP = "<tmp>"
GOLDEN = Path(__file__).resolve().with_name("cli.json")

TREFOIL = "strands=4; g2^-3"
HOPF = "strands=4; g2^2"
REFERENCE = "strands=4; b2^3 h1^-2 h3^-2 b2^3"
SMALL_CORPUS = {
    "corpus/a.txt": REFERENCE,
    "corpus/b.txt": "strands=6; b2^-1 b4 h1^-2 h3^-3 h5^-2 h2 h4^2 b1 h2",
    "corpus/c.txt": "strands=8; g2^-1 g4^2 g3^1 g6^1 g5^-2",
    "corpus/d.txt": TREFOIL,
}
# every *.txt entry, dotfiles included, in name order (B before a); the rest is skipped
MIXED_NAMES = {
    "mixed/B.txt": HOPF,
    "mixed/a.txt": "strands=6; g2^-1 g4^2 g3^1",
    "mixed/.h.txt": TREFOIL,
    "mixed/notes.md": "not a word",
    "mixed/x.TXT": "not a word",
}
BAD_CAPS = {"bad/a.txt": TREFOIL, "bad/b.txt": "strands=6; flips=000; g4^1"}


def seeded_word(n: int, crossings: int, seed: int) -> str:
    """A word on 2n strands with the given crossings whose caps resolve, drawn from (n, crossings, seed).

    Syllables g_i^{+-p}, i uniform in 1..2n-1 and p in 1..3, clipped
    to the crossings left; drawn again until the orientations resolve.
    """
    from platjones.braid import parse, resolve_orientations
    from platjones.errors import AnnotationConflict, CapMismatch

    rng = random.Random(f"golden/{n}/{crossings}/{seed}")
    while True:
        syllables, left = [], crossings
        while left:
            p = min(rng.randint(1, 3), left)
            left -= p
            syllables.append(f"g{rng.randint(1, 2 * n - 1)}^{rng.choice((p, -p))}")
        text = f"strands={2 * n}; " + " ".join(syllables)
        try:
            resolve_orientations(parse(text))
        except (CapMismatch, AnnotationConflict):
            continue
        return text


def calls() -> list[dict]:
    """(name, argv, files) of every golden call; argv and file names are relative to TMP."""
    out = []

    def add(name, argv, files=None):
        out.append({"name": name, "argv": argv, "files": files or {}})

    word = lambda text: {"w.txt": text}
    w = f"{TMP}/w.txt"
    add("eval-trefoil", ["eval", w], word(TREFOIL))
    add("eval-trefoil-json", ["eval", w, "--json"], word(TREFOIL))
    add("eval-flips", ["eval", w, "--flips", "01"], word("strands=4; g2^1"))
    for n in range(2, 7):
        text = seeded_word(n, 2 * n if n < 5 else 8, 0)
        add(f"eval-n{n}-json", ["eval", w, "--json"], word(text))
        add(f"prob-n{n}-json", ["prob", w, "--theta", "0.3", "--json"], word(text))
        if n in (3, 5):
            add(f"eval-n{n}", ["eval", w], word(text))
            add(f"prob-n{n}", ["prob", w, "--theta", "0.3"], word(text))
    add("prob-root-order", ["prob", w, "--root-order", "9"], word(TREFOIL))
    add("prob-root-order-json", ["prob", w, "--root-order", "7", "--json"], word(REFERENCE))
    add("oracle-hopf", ["oracle", w], word(HOPF))
    add("oracle-hopf-json", ["oracle", w, "--json"], word(HOPF))
    add("oracle-deep-json", ["oracle", w, "--json"], word("strands=4; g2^9 g1^-8 g2^8"))
    # test_oracle's 120-crossing word, and a seeded word whose largest
    # coefficient needs 76 bits
    forty = ("g2^3 g4^-2 g3^3 g6^2 g5^-3 g1^2 g7^-3 g2^-2 g4^3 "
             "g3^-2 g6^-3 g5^2 g4^2 g2^3 g6^-3 g3^2")
    for name, text in (("120", "strands=8; " + " ".join([forty] * 3)),
                       ("n3-c300", seeded_word(3, 300, 0))):
        add(f"oracle-{name}", ["oracle", w], word(text))
        add(f"oracle-{name}-json", ["oracle", w, "--json"], word(text))
    add("verify-corpus", ["verify", f"{TMP}/corpus"], SMALL_CORPUS)
    add("verify-corpus-json", ["verify", f"{TMP}/corpus", "--json"], SMALL_CORPUS)
    add("verify-random", ["verify", "--random", "30"])
    add("verify-random-json", ["verify", "--random", "30", "--json"])
    add("verify-random-200-json", ["verify", "--random", "200", "--json"])
    add("verify-mixed-names-json", ["verify", f"{TMP}/mixed", "--json"], MIXED_NAMES)
    # exit 1: a tolerance no deviation can meet fails every case
    add("verify-fail", ["verify", "--random", "5", "--seed", "3", "--tolerance", "1e-300"])
    add("verify-fail-json", ["verify", f"{TMP}/corpus", "--tolerance", "1e-300", "--json"],
        SMALL_CORPUS)
    # exit 2: word syntax, a missing file, a bad flag value, usage
    add("eval-syntax", ["eval", w], word("strands=4; g2^1 x"))
    add("eval-missing-json", ["eval", f"{TMP}/missing.txt", "--json"])
    add("eval-bad-flips", ["eval", w, "--flips", "012"], word("strands=4; g2^1"))
    add("prob-nan-json", ["prob", w, "--theta", "nan", "--json"], word(TREFOIL))
    add("prob-no-phase", ["prob", w], word(TREFOIL))
    add("verify-seed-corpus", ["verify", f"{TMP}/corpus", "--seed", "1"], SMALL_CORPUS)
    # exit 3: caps that cannot close
    add("eval-caps", ["eval", w, "--flips", "00"], word("strands=4; g2^1"))
    add("verify-caps-json", ["verify", f"{TMP}/bad", "--json"], BAD_CAPS)
    # exit 4: a read-out tolerance below the rounding shift
    add("eval-readout", ["eval", w, "--tolerance", "1e-300"], word(REFERENCE))
    add("eval-readout-json", ["eval", w, "--tolerance", "1e-300", "--json"], word(REFERENCE))
    # exit 5: a phase past the arc
    add("prob-theta-past-arc", ["prob", w, "--theta", "2.5"], word(TREFOIL))
    # exit 0: r = 4 puts theta = pi/2 on the trefoil's arc, which check_arc decides
    add("prob-root-order-small-json", ["prob", w, "--root-order", "4", "--json"], word(TREFOIL))
    return out


def run_call(argv: list[str], files: dict[str, str], directory: Path) -> dict:
    """Run one call through cli.main in this process: stdout, stderr and exit code, TMP for directory."""
    from platjones import cli

    for name, text in files.items():
        path = directory / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    stdout, stderr = io.StringIO(), io.StringIO()
    # argparse wraps its usage line to the terminal width
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([arg.replace(TMP, str(directory)) for arg in argv])
        except SystemExit as e:  # argparse exits on a usage error
            code = e.code
    unplace = lambda text: text.replace(str(directory), TMP)
    return {"stdout": unplace(stdout.getvalue()), "stderr": unplace(stderr.getvalue()), "exit": code}


def main() -> int:
    golden = []
    for call in calls():
        with tempfile.TemporaryDirectory() as tmp:
            golden.append({**call, **run_call(call["argv"], call["files"], Path(tmp))})
    GOLDEN.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n")
    codes = sorted({g["exit"] for g in golden})
    print(f"wrote {len(golden)} calls to {GOLDEN.name}, exit codes {codes}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
