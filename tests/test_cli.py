import argparse
import ast
import contextlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import platjones
from platjones import braid, cli, evaluator, fusion, oracle, qsim
from platjones.braid import parse
from platjones.cli import main
from platjones.errors import NonUnitaryBlock, ResidualTooLarge, UnannotatedSyllable
from platjones.laurent import LaurentPoly, laurent_eval
from platjones.oracle import jones_exact
from platjones.qnum import QPoint

REPORT_KEYS = {
    "word",
    "n",
    "polynomial",
    "residual",
    "operator_count",
    "p_k",
    "im_amplitude",
    "oracle_polynomial",
    "deviations",
}


def _word_file(tmp_path, text, name="word.txt"):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def test_eval_trefoil_text(tmp_path, capsys):
    path = _word_file(tmp_path, "strands=4; g2^-3")
    assert main(["eval", path]) == 0
    out = capsys.readouterr().out
    assert "polynomial: q^-4 - q^-3 - q^-1" in out
    assert "operators (3): a f a†" in out
    assert "oracle (t=q): -t^-4 + t^-3 + t^-1" in out


def test_eval_json_schema_and_determinism(tmp_path, capsys):
    path = _word_file(tmp_path, "strands=4; g2^-3")
    assert main(["eval", path, "--json"]) == 0
    first = capsys.readouterr().out
    report = json.loads(first)
    assert set(report) == REPORT_KEYS
    assert report["n"] == 2
    assert report["polynomial"]["coeffs"] == {"-8": 1, "-6": -1, "-2": -1}
    assert report["oracle_polynomial"]["coeffs"] == {"-8": -1, "-6": 1, "-2": 1}
    assert report["p_k"] is None
    assert report["im_amplitude"] is None
    assert report["operator_count"] == 3
    assert main(["eval", path, "--json"]) == 0
    assert capsys.readouterr().out == first  # byte stable


def test_eval_flips_override_changes_orientation(tmp_path, capsys):
    path = _word_file(tmp_path, "strands=4; g2^1")
    assert main(["eval", path, "--flips", "01"]) == 0
    out = capsys.readouterr().out
    assert "b2^1" in out  # parallel under these cups
    assert main(["eval", path, "--flips", "00"]) == 3  # caps cannot close


def test_eval_bad_flips(tmp_path, capsys):
    # a bad flag value is not a word-file position: the error names the
    # flag, the expected length and the value, with no line or column
    path = _word_file(tmp_path, "strands=4; g2^1")
    assert main(["eval", path, "--flips", "012"]) == 2
    assert capsys.readouterr().err == "error: --flips must be a bitstring of length 2, got '012'\n"
    path = _word_file(tmp_path, "strands=4; g2^3")
    for command in (["eval"], ["prob", "--theta", "0.3"], ["oracle"]):
        for bits in ("1", "3"):
            assert main(command + [path, "--flips", bits]) == 2
            err = capsys.readouterr().err
            assert err == f"error: --flips must be a bitstring of length 2, got '{bits}'\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_rejected(tmp_path, capsys, value):
    # a NaN tolerance would pass every comparison in the rounding check
    # and disable the rejection
    path = _word_file(tmp_path, "strands=6; g4^-2 g2^-3 g3^-3 g4^-2 g4^-2 g4^2")
    (tmp_path / "corpus").mkdir()
    assert main(["eval", path, "--tolerance", value]) == 2
    assert "error: tolerance" in capsys.readouterr().err
    assert main(["verify", str(tmp_path / "corpus"), "--tolerance", value]) == 2
    assert "error: tolerance" in capsys.readouterr().err


def test_eval_syntax_error_reports_position(tmp_path, capsys):
    path = _word_file(tmp_path, "strands=4; gg2^3")
    assert main(["eval", path]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_eval_residual_failure(tmp_path, capsys):
    # the wide-support reference word rounds at the default tolerance; a
    # tolerance below its rounding shift must fail loudly
    path = _word_file(tmp_path, "strands=4; b2^3 h1^-2 h3^-2 b2^3")
    assert main(["eval", path]) == 0
    capsys.readouterr()
    assert main(["eval", path, "--tolerance", "1e-300"]) == 4
    assert "rounding shifted a coefficient" in capsys.readouterr().err


def test_prob_identity(tmp_path, capsys):
    path = _word_file(tmp_path, "strands=4;")
    assert main(["prob", path, "--root-order", "5", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["p_k"] == pytest.approx(1.0)
    assert report["im_amplitude"] == pytest.approx(0.0)
    assert report["polynomial"] is None
    assert set(report) == REPORT_KEYS


def test_prob_trefoil(tmp_path, capsys):
    path = _word_file(tmp_path, "strands=4; g2^-3")
    assert main(["prob", path, "--root-order", "5"]) == 0
    out = capsys.readouterr().out
    assert "P_K:" in out
    assert main(["prob", path, "--root-order", "2"]) == 5
    # theta = pi/2 lies on the arc at n = 2 (below 2*pi/3), past it at n = 3 (2*pi/4)
    assert main(["prob", path, "--root-order", "4"]) == 0
    capsys.readouterr()
    n3 = _word_file(tmp_path, "strands=6; g2^1 g4^-1", "n3.txt")
    assert main(["prob", n3, "--root-order", "4"]) == 5
    assert "triangle(2/2,1/2,3/2) needs |theta| < 2*pi/4" in capsys.readouterr().err
    # 2*pi/r underflows past the float range: the same one-line error, no traceback
    assert main(["prob", path, "--root-order", str(10**400)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sin(theta/2) vanishes at theta=0.0\n"
    assert main(["prob", path, "--theta", "0"]) == 5


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_prob_non_finite_theta_rejected(tmp_path, capsys, value):
    path = _word_file(tmp_path, "strands=4; g2^-3")
    assert main(["prob", path, "--theta", value, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: theta must be finite" in captured.err


def test_prob_requires_phase_flag(tmp_path):
    path = _word_file(tmp_path, "strands=4; g2^-3")
    with pytest.raises(SystemExit) as exc:
        main(["prob", path])
    assert exc.value.code == 2


def test_oracle_hopf(tmp_path, capsys):
    path = _word_file(tmp_path, "strands=4; g2^2")
    assert main(["oracle", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == REPORT_KEYS
    assert report["oracle_polynomial"]["coeffs"] == {"-5": -1, "-1": -1}
    assert report["polynomial"] is None


def test_oracle_past_20_crossings(tmp_path, capsys):
    polys = []
    for name, text in [
        ("w.txt", "strands=4; g2^9 g1^-8 g2^8"),
        ("mirror.txt", "strands=4; g2^-9 g1^8 g2^-8"),
    ]:
        assert main(["oracle", _word_file(tmp_path, text, name), "--json"]) == 0
        coeffs = json.loads(capsys.readouterr().out)["oracle_polynomial"]["coeffs"]
        polys.append(LaurentPoly({int(k): v for k, v in coeffs.items()}))
    assert polys[0] == polys[1].invert_variable()


def test_verify_corpus(tmp_path, capsys):
    (tmp_path / "a.txt").write_text("strands=4; b2^3 h1^-2 h3^-2 b2^3")
    (tmp_path / "b.txt").write_text(
        "strands=6; b2^-1 b4 h1^-2 h3^-3 h5^-2 h2 h4^2 b1 h2"
    )
    assert main(["verify", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "a f a† g a h a†" in out
    assert "a f a† g a h a† f1 a g1 a†" in out
    assert "result: PASS" in out


def test_verify_empty_corpus(tmp_path, capsys):
    assert main(["verify", str(tmp_path)]) == 0
    assert "0 case(s)" in capsys.readouterr().out


def test_verify_random_deterministic(tmp_path, capsys):
    assert main(["verify", "--random", "4", "--seed", "9", "--json"]) == 0
    first = capsys.readouterr().out
    payload = json.loads(first)
    assert set(payload) == {"source", "seed", "cases", "worst", "passed"}
    assert payload["passed"] is True
    assert payload["seed"] == 9
    assert len(payload["cases"]) == 4
    for case in payload["cases"]:
        assert set(case) == {"name", "pass", "tokens", "report"}
        assert set(case["report"]) == REPORT_KEYS
    assert main(["verify", "--random", "4", "--seed", "9", "--json"]) == 0
    assert capsys.readouterr().out == first


def test_verify_needs_source(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2


def test_verify_rejects_corpus_with_random(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(tmp_path), "--random", "2"])
    assert exc.value.code == 2
    assert "result:" not in capsys.readouterr().out


def test_verify_rejects_negative_random(capsys):
    assert main(["verify", "--random", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "result:" not in captured.out


def test_verify_rejects_seed_without_random(tmp_path, capsys):
    assert main(["verify", str(tmp_path), "--seed", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "result:" not in captured.out


def test_eval_missing_file_exits_2(tmp_path, capsys):
    assert main(["eval", str(tmp_path / "no-such-word.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_verify_missing_corpus_exits_2(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "no-such-dir")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "result:" not in captured.out


def test_huge_power_exits_2_without_traceback(tmp_path, capsys):
    # g2^(10^20 - 1) at once: prob and verify stop on the syllable's
    # x-exponents leaving int64 (eval's exit 4 is the next test's)
    text = "strands=4; g2^99999999999999999999"
    path = _word_file(tmp_path, text)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    _word_file(corpus, text)
    for argv in (["prob", path, "--theta", "0.3"], ["verify", str(corpus)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: power 99999999999999999999 has more crossings than int64 can tally\n"


@pytest.mark.parametrize("power", ["99999999999999999999", "100000000"])
def test_eval_huge_power_exits_4_before_sampling(tmp_path, capsys, power):
    # the window of g2^p is 2p wide; past laurent.MAX_SAMPLES samples eval
    # exits 4 naming the window and M, before it allocates any of them
    text = f"strands=4; g2^{power}"
    assert main(["eval", _word_file(tmp_path, text)]) == 4
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: window \[-?\d+, -?\d+\] needs M \d+ > 4096 samples .*\n", err)
    tracemalloc.start()
    try:
        with pytest.raises(ResidualTooLarge, match=r"needs M \d+ > 4096"):
            evaluator.jones(parse(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_verify_corpus_reads_every_txt_entry_in_name_order(tmp_path, capsys):
    # dotfiles included, names case-sensitive and in code-point order
    files = {"B.txt": "strands=4; g2^2", "a.txt": "strands=6; g2^-1 g4^2 g3^1",
             ".h.txt": "strands=4; g2^-3", "notes.md": "not a word", "x.TXT": "not a word"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(["verify", str(tmp_path), "--json"]) == 0
    cases = json.loads(capsys.readouterr().out)["cases"]
    assert [case["name"] for case in cases] == [".h.txt", "B.txt", "a.txt"]
    # an entry that is no file is unreadable input
    (tmp_path / "d.txt").mkdir()
    assert main(["verify", str(tmp_path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1 and "d.txt" in captured.err


def test_failed_allocation_exits_6_without_traceback(tmp_path, capsys, monkeypatch):
    # a MemoryError from the evaluator or the simulator is exit 6 with a
    # one-line message; the stubs raise it without allocating anything
    def fail(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "jones", fail)
    monkeypatch.setattr(cli, "qsim_p_ks", fail)
    for argv in (["eval", _word_file(tmp_path, "strands=4; g2^-3")], ["verify", "--random", "3"]):
        assert main(argv) == 6
        captured = capsys.readouterr()
        assert captured.err == "error: MemoryError\n"
        assert captured.out == ""


def test_exit_codes_documented_consistently():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("### Exit codes", 1)[1].split("\n## ", 1)[0]
    readme_codes = {int(c) for c in re.findall(r"^\|\s*(\d+)\s*\|", table, re.M)}
    doc = cli.__doc__.split("Exit codes:", 1)[1]
    doc_codes = {int(c) for c in re.findall(r"(?<![\w.^-])(\d+)(?![\w.])", doc)}
    assert readme_codes == doc_codes
    assert readme_codes == set(cli.EXIT_CODES.values()) | {0, 1}


def test_cli_flags_documented_consistently():
    # README's synopsis names each subcommand's flags, and only those
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    synopsis = readme.split("## CLI", 1)[1].split("```", 2)[1]
    documented = {
        entry.split()[1]: set(re.findall(r"--[a-z][a-z-]*", entry))
        for entry in re.split(r"\n(?=platjones )", synopsis.strip())
    }
    sub = next(
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    flags = {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert documented == flags
    # the table the direct parse reads declares the same flags, and the
    # same positional as the parser and the synopsis
    table = {command: _table_names(command) for command in cli.COMMANDS}
    assert {command: {n for n in names if n.startswith("-")} for command, names in table.items()} == flags
    positionals = {
        name: [a.dest for a in p._actions if not a.option_strings] for name, p in sub.choices.items()
    }
    assert {command: [n for n in names if not n.startswith("-")] for command, names in table.items()} == positionals
    for entry in re.split(r"\n(?=platjones )", synopsis.strip()):
        bare = re.findall(r"[A-Z][A-Z_]+", re.sub(r"--[a-z-]+( [A-Z]+)?", "", entry))
        assert len(bare) == len(positionals[entry.split()[1]]), entry


def _table_names(command):
    """Every argument name cli.COMMANDS declares for a subcommand, in order."""
    entries = cli.COMMANDS[command][2]
    return [name for e in entries for name, _ in (e if isinstance(e, list) else [e])]


VALUES = ["7", "01", "0.3", "nan", "-1", "-0.5", "-", "-x", "x", ""]
JUNK = ["-h", "--help", "--", "--bogus", "-j", "--json=1", "w.txt", "corpus", "word_file"]


@st.composite
def _argvs(draw):
    """An argv from cli.COMMANDS: the subcommand, mostly a positional, and
    distinct flags each with a value that converts, in any order (so
    both or neither side of a one-of group), and up to two bad chunks:
    an abbreviation, --flag=value, a value starting with "-", a repeated
    flag, a missing value, or junk with or without a value."""
    command = draw(st.sampled_from([*cli.COMMANDS] * 3 + ["ev", "help"]))
    names = _table_names(command) if command in cli.COMMANDS else ["--json"]
    flags = st.sampled_from([n for n in names if n.startswith("-")])
    value = st.sampled_from(VALUES)
    good = st.tuples(flags, st.sampled_from(["7", "01"])).map(
        lambda pair: pair[:1] if pair[0] == "--json" else pair)
    bad = st.one_of(
        st.tuples(flags.map(lambda f: f[:5]), value),
        st.tuples(st.builds("{}={}".format, flags, value)),
        st.tuples(flags, value),
        st.tuples(flags),
        st.tuples(st.sampled_from(JUNK + VALUES)),
        st.tuples(st.sampled_from(JUNK), value),
    )
    chunks = draw(st.lists(good, max_size=4, unique_by=lambda chunk: chunk[0]))
    for _ in range(draw(st.integers(0, 2))):
        chunks.insert(draw(st.integers(0, len(chunks))), draw(bad))
    head = draw(st.sampled_from([["w.txt"]] * 4 + [[], ["-w"]]))
    return [command, *head, *(token for chunk in chunks for token in chunk)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_argvs())
def test_direct_parse_agrees_with_argparse(argv):
    # the direct parse declines an argv, or gives argparse's namespace;
    # every argv that makes argparse exit (a usage error, --help) is declined
    direct = cli._parse(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            want = vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            want = None
    if direct is not None:
        assert vars(direct) == want


def test_direct_parse_takes_canonical_argv_and_declines_the_rest():
    # every flag of the table, with a value, in one canonical argv per
    # side of each one-of group; each other spelling goes to argparse
    for argv in (
        ["eval"], ["eval", "-h"], ["eval", "w.txt", "--tol", "1e-3"], ["eval", "w.txt", "--json=1"],
        ["eval", "w.txt", "--tolerance", "-1"], ["eval", "w.txt", "--flips", "-x"],
        ["eval", "w.txt", "--flips", "--json"], ["eval", "w.txt", "--flips"],
        ["eval", "w.txt", "--json", "--json"], ["eval", "--json", "w.txt"],
        ["eval", "--json", "word_file", "x"], ["eval", "w.txt", "x"], ["oracle", "w.txt", "--tolerance", "1"],
        ["prob", "w.txt"], ["prob", "w.txt", "--theta", "1", "--root-order", "7"],
        ["prob", "w.txt", "--root-order", "0.3"],
        ["verify"], ["verify", "corpus", "--random", "3"], ["verify", "--random", "3", "corpus", "x"],
    ):
        assert cli._parse(argv) is None, argv
    for argv in (
        ["eval", "w.txt", "--tolerance", "1e-3", "--flips", "01", "--json"],
        ["prob", "w.txt", "--root-order", "7", "--flips", "01", "--json"],
        ["prob", "w.txt", "--json", "--theta", "0.3"],
        ["oracle", "w.txt", "--flips", "01", "--json"],
        ["verify", "corpus", "--tolerance", "1e-3", "--json"],
        ["verify", "--random", "3", "--seed", "2", "--json"],
    ):
        assert vars(cli._parse(argv)) == vars(cli.build_parser().parse_args(argv))


def _run_python(code, *args, cwd):
    """Run code in a fresh interpreter on the package in src/: (exit code, stdout, stderr)."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
    done = subprocess.run([sys.executable, "-B", *code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


FOOTPRINT = """
import contextlib, io, json, sys
from platjones import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as e:
            codes.append(e.code)
front = ("argparse", "gettext", "locale", "numpy.fft")
print(json.dumps([codes, [m for m in front if m in sys.modules]]))
"""


def test_canonical_calls_load_no_argparse_and_no_fft(tmp_path):
    # a canonical call parses straight from the table and reads its
    # coefficients without numpy.fft; --help and a usage error still
    # reach argparse, which answers with exit 0 and exit 2
    (tmp_path / "corpus").mkdir()
    (tmp_path / "w.txt").write_text("strands=4; g2^-3")
    (tmp_path / "corpus" / "a.txt").write_text("strands=4; g2^2")
    canonical = [["eval", "w.txt", "--json"], ["oracle", "w.txt"], ["verify", "corpus", "--json"]]
    code, out, err = _run_python(["-c", FOOTPRINT], json.dumps(canonical), cwd=tmp_path)
    assert (code, err) == (0, "")
    assert json.loads(out) == [[0, 0, 0], []]
    code, out, err = _run_python(["-c", FOOTPRINT], json.dumps([["--help"], ["eval"]]), cwd=tmp_path)
    codes, loaded = json.loads(out)
    assert codes == [0, 2] and "argparse" in loaded


def test_console_script_reads_sys_argv(tmp_path):
    # the platjones entry point is main(None), which reads sys.argv
    (tmp_path / "w.txt").write_text("strands=4; g2^2")
    code, out, err = _run_python(["-m", "platjones.cli"], "oracle", "w.txt", cwd=tmp_path)
    assert (code, err) == (0, "")
    assert "jones (t): -t^{-5/2} - t^{-1/2}" in out
    code, out, err = _run_python(["-m", "platjones.cli"], "oracle", cwd=tmp_path)
    assert (code, out) == (2, "")
    assert err.endswith("error: the following arguments are required: word_file\n")


def _count_calls(monkeypatch, fn) -> list:
    """Count calls to fn through every platjones module binding of it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "platjones":
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, counted)
    return calls


def _skeleton(program):
    return tuple(op.basis for op in program.letters)


def _scalar_deviations(program):
    """Test-only reference: one case's deviations, by the per-case formulas of the scalar check."""
    n = program.n
    point = QPoint(tuple(evaluator.phase_grid(n, 10).tolist()))
    amps = evaluator.comb_elements([program.word], point)[0]
    mirrored = evaluator.comb_elements([braid.mirror(program.word)], point)[0]
    exact = jones_exact(program.word)
    floor = 1e-9 * max(1.0, float(sum(abs(v) for v in exact.coeffs().values())))
    got = abs(amps) * abs(evaluator.unlink_normalization(n, point.thetas))
    want = abs(laurent_eval(exact, point))
    mid = len(point.theta) // 2
    probability = qsim.p_ks([program.word], point.theta[mid])[0]
    return {
        "modulus_rel": float((abs(got - want) / np.maximum(want, floor)).max()),
        "mirror": float(abs(mirrored - amps.conj()).max()),
        "qsim": float(abs(probability - abs(amps[mid]) ** 2)),
    }


@pytest.mark.parametrize("seed", [0, 4])
def test_verify_group_deviations_equal_the_scalar_formulas(seed):
    # each n's checks run as (words, phases) arrays over words of many
    # lengths and generators; every case must read the same bits as its
    # own scalar computation
    cases = cli._random_words(200, seed)
    programs = [evaluator.compile(braid.resolve_orientations(w)) for _, w in cases]
    assert min(Counter(p.n for p in programs).values()) > 20
    assert len({(p.n, _skeleton(p)) for p in programs}) > 10
    results = cli._verify_cases(cases, 1e-6)
    for result, program in zip(results, programs):
        assert result["report"]["deviations"] == _scalar_deviations(program)


def test_verify_batching_leaves_each_report_unchanged():
    # words of n = 2, 3 and 4 with many skeletons, and the empty word,
    # in one corpus: every case reads the same report as when verified
    # alone
    cases = cli._random_words(200, 2)
    cases += [("n4-odd", parse("strands=8; g3^1 g2^-1 g4^2 g5^1")),
              ("n4-even", parse("strands=8; g2^-1 g4^2 g3^1 g6^1 g5^-2")),
              ("empty", parse("strands=4;"))]
    results = cli._verify_cases(cases, 1e-6)
    assert results[-1]["tokens"] == "" and results[-1]["pass"]
    assert all(r["pass"] for r in results)
    for case, result in zip(cases, results):
        assert cli._verify_cases([case], 1e-6) == [result]


def test_verify_case_resolves_each_word_once_and_compiles_none(monkeypatch):
    # resolves: the word, once, for the comb, the oracle's diagram and
    # its tokens, spelled from the annotated word with no compile, as its
    # mirror goes to the comb as a word. The words of each n and their
    # mirrors, whatever their letters, are one comb_elements call and the
    # words one qsim pass, reversed; the oracle sweeps every word on one
    # tables dict, keyed by n; and the rotations' unitarity check runs
    # once per (n, point) over the whole corpus, for the n whose words
    # move a 2 x 2 block
    cases = cli._random_words(40, 5)
    cases.append(("n4", parse("strands=8; g2^-1 g4^2 g3^1 g6^1 g5^-2")))
    programs = [evaluator.compile(braid.resolve_orientations(w)) for _, w in cases]
    groups = Counter(p.n for p in programs)
    assert len({(p.n, _skeleton(p)) for p in programs}) > len(groups) + 5
    deviation = fusion.move_deviation
    deviation.cache_clear()
    resolves = _count_calls(monkeypatch, braid.resolve_orientations)
    compiles = _count_calls(monkeypatch, evaluator.compile)
    batches = _count_calls(monkeypatch, evaluator.comb_elements)
    checks = _count_calls(monkeypatch, deviation)
    brackets = _count_calls(monkeypatch, oracle.kauffman_bracket)
    results = cli._verify_cases(cases, 1e-6)
    # qsim runs the comb reversed, its third argument
    simulated = [args for args in batches if args[2:3] == (True,)]
    batches = [args for args in batches if args[2:3] != (True,)]
    assert [r["name"] for r in results] == [name for name, _ in cases]
    assert [r["tokens"] for r in results] == [" ".join(p.tokens()) for p in programs]
    assert all(r["pass"] for r in results)
    assert len(resolves) == len(cases)
    assert compiles == []
    assert [r["report"]["operator_count"] for r in results] == [p.operator_count for p in programs]
    assert [word for word, _ in brackets] == [p.word for n in groups for p in programs if p.n == n]
    (tables,) = {id(tables): tables for _, tables in brackets}.values()
    assert sorted(tables) == sorted(groups)
    for calls, per_word in ((batches, 2), (simulated, 1)):
        keys = []
        for words, *_ in calls:
            (n,) = {w.n for w in words}
            assert len(words) == per_word * groups[n]
            keys.append(n)
        assert sorted(keys) == sorted(groups)
    paired = {p.n for p in programs if any(len(fusion.comb_move(p.n, s.index)[0]) for s in p.word.syllables)}
    assert {n for n, _ in checks} == paired
    assert deviation.cache_info().misses == len(paired)


def test_verify_random_zero_cases(capsys):
    assert main(["verify", "--random", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("verify random(0, seed=0): 0 case(s)\n")
    assert out.endswith("result: PASS\n")


def test_verify_first_bad_word_decides_the_error(tmp_path, capsys):
    # words are resolved in corpus order before any group is evaluated,
    # so the n = 3 cap mismatch wins over the n = 2 one after it; a
    # syntax error anywhere fails the corpus load first
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, text in [
        ("a.txt", "strands=4; g2^-3"),
        ("b.txt", "strands=6; g2^1 g4^-1"),
        ("c.txt", "strands=6; flips=000; g4^1"),
        ("d.txt", "strands=4; flips=00; g2^1"),
    ]:
        (corpus / name).write_text(text)
    assert main(["verify", str(corpus)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cap pairs [2, 3] have equal directions\n"
    (corpus / "e.txt").write_text("strands=6; g2^1 x")
    assert main(["verify", str(corpus), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad syllable 'x' (line 1, column 17)\n"


def test_eval_compiles_once_and_resolves_twice(tmp_path, monkeypatch, capsys):
    resolves = _count_calls(monkeypatch, braid.resolve_orientations)
    compiles = _count_calls(monkeypatch, evaluator.compile)
    path = _word_file(tmp_path, "strands=8; g2^-1 g4^2 g3^1")
    assert main(["eval", path]) == 0
    assert "operators (4): a f a† g" in capsys.readouterr().out
    assert len(compiles) == 1
    assert len(resolves) <= 2


def test_eval_resolves_the_word_once(tmp_path, monkeypatch, capsys):
    # the oracle's diagram is built from the evaluator's resolved word
    text = "strands=8; g2^-1 g4^2 g3^1"
    propagate, walks = braid._propagate, []

    def counted(*args):
        walks.append(args[1])
        return propagate(*args)

    monkeypatch.setattr(braid, "_propagate", counted)
    braid.resolve_orientations(parse(text))
    alone = list(walks)
    assert len(alone) > 1  # the auto resolution tries more than one flip vector
    walks.clear()
    assert main(["eval", _word_file(tmp_path, text)]) == 0
    assert "oracle (t=q)" in capsys.readouterr().out
    assert walks == alone


def test_prob_compiles_and_resolves_once(tmp_path, monkeypatch, capsys):
    resolves = _count_calls(monkeypatch, braid.resolve_orientations)
    compiles = _count_calls(monkeypatch, evaluator.compile)
    path = _word_file(tmp_path, "strands=8; g2^-1 g4^2 g3^1")
    assert main(["prob", path, "--theta", "0.5"]) == 0
    assert "operators (4): a f a† g" in capsys.readouterr().out
    assert len(resolves) == 1
    assert len(compiles) == 1


def test_prob_reads_amplitude_zero_off_the_d_block(tmp_path, monkeypatch, capsys):
    # prob prints the register's amplitude 0 without building the 2^{2n} register
    text = "strands=8; g2^-1 g4^2 g3^1"
    path = _word_file(tmp_path, text)
    program = evaluator.compile(braid.resolve_orientations(parse(text)))
    amp = complex(qsim.run(program, 0.5)[0])

    def fail(*args):
        raise AssertionError("prob built the register")

    monkeypatch.setattr(qsim, "_register", fail)
    assert main(["prob", path, "--theta", "0.5", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["p_k"], report["im_amplitude"]) == (abs(amp) ** 2, amp.imag)
    assert main(["prob", path, "--theta", "0.5"]) == 0
    out = capsys.readouterr().out
    assert f"amplitude: {amp.real:.15g} {amp.imag:+.15g}i\n" in out
    assert f"P_K: {abs(amp) ** 2:.15g}\n" in out


def test_fit_rejection_names_window_and_samples(tmp_path, capsys):
    # ten crossings on four strands: Kauffman's state bounds give the
    # window [5, 25] and M = 21 + 16; the error names rho, M and the window
    path = _word_file(tmp_path, "strands=4; b2^3 h1^-2 h3^-2 b2^3")
    assert main(["eval", path, "--tolerance", "1e-300", "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(
        r"rounding shifted a coefficient by \S+ > 1\.000e-300 "
        r"\(rho 1\.05, M 37, window \[5, 25\]\)",
        captured.err,
    )


def test_eval_36_crossings_is_exact_and_fast(tmp_path, capsys):
    path = _word_file(
        tmp_path,
        "strands=4; g2^3 g3^1 g1^-1 g3^1 g3^-2 g3^-1 g3^-2 g2^3 g3^-1 g3^3 "
        "g2^-1 g1^-2 g1^-2 g1^2 g1^1 g1^-3 g2^3 g1^-3 g1^1",
    )
    start = time.perf_counter()
    assert main(["eval", path, "--json"]) == 0
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)
    poly = report["polynomial"]["coeffs"]
    oracle = report["oracle_polynomial"]["coeffs"]
    # two components on four strands: the sign (-1)^{mu+n} is +1
    assert poly == oracle
    assert elapsed < 1.0


def test_verify_checks_words_past_20_crossings(tmp_path, capsys):
    (tmp_path / "a.txt").write_text("strands=4; g2^3")
    (tmp_path / "b.txt").write_text("strands=4; g2^9 g1^-8 g2^4")
    assert main(["verify", str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    for case in payload["cases"]:
        assert case["pass"]
        assert case["report"]["oracle_polynomial"] is not None
        assert case["report"]["deviations"] is not None


def test_internal_errors_cannot_reach_the_cli(tmp_path, monkeypatch, capsys):
    """UnannotatedSyllable has no exit code; NonUnitaryBlock exits 4.

    Every subcommand resolves orientations before it compiles, so
    UnannotatedSyllable cannot reach main; an escaped one on the words
    below fails this test. The blocks are unitary on the admissible arc
    only up to round-off, which grows with the power: prob --theta 0.3
    on strands=4; g2^1000000 fails the unitarity check, round-off past
    a fixed bound like a rejected read-out, and exits 4 with one line.
    """
    assert not issubclass(UnannotatedSyllable, tuple(cli.EXIT_CODES))
    assert main(["prob", _word_file(tmp_path, "strands=4; g2^1000000", name="big.txt"), "--theta", "0.3", "--json"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: operator 'f' deviates from unitarity by ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert cli.EXIT_CODES[NonUnitaryBlock] == 4
    compile_word = evaluator.compile
    compiled = []

    def annotated_only(word):
        assert word.is_annotated()
        compiled.append(word)
        return compile_word(word)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "platjones":
            for attr, value in list(vars(module).items()):
                if value is compile_word:
                    monkeypatch.setattr(module, attr, annotated_only)
    texts = [
        "strands=4; g2^-3",
        "strands=4; flips=10; g2^2 g1^1",
        "strands=4; b2^3 h1^-2 h3^-2 b2^3",
        "strands=6; g4^-2 g2^-3 g3^-3 g4^-2",
        "strands=8; g2^-1 g4^2 g3^1 g6^1 g5^-2",
    ]
    codes = []
    for i, text in enumerate(texts):
        path = _word_file(tmp_path, text, name=f"w{i}.txt")
        edge = evaluator.admissible_arc(parse(text).n)[1]
        codes.append(main(["eval", path, "--json"]))
        codes.append(main(["oracle", path]))
        for theta in (edge - 1e-9, edge + 1e-9):
            codes.append(main(["prob", path, "--theta", repr(theta)]))
        (tmp_path / "corpus").mkdir(exist_ok=True)
        (tmp_path / "corpus" / f"w{i}.txt").write_text(text)
    codes.append(main(["verify", str(tmp_path / "corpus")]))
    capsys.readouterr()
    assert compiled
    assert set(codes) <= set(cli.EXIT_CODES.values()) | {0, 1}


def test_all_names_the_public_attributes():
    # every export resolves, and every public non-module attribute is exported
    public = {
        name for name, value in vars(platjones).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(platjones.__all__) == sorted(public | {"__version__"})
    assert all(hasattr(platjones, name) for name in platjones.__all__)


def test_src_keeps_what_the_cli_runs():
    # every module-level function and class of the package is exported or
    # referenced by other package code, not reached from the tests alone;
    # qsim.evolution is documented API, and vertex.sigma_matrix waits for
    # the vertex-model check that verify is to run
    kept = {("qsim", "evolution"), ("vertex", "sigma_matrix")}
    statements = []  # (module, top-level statement, names it references)
    for path in sorted(Path(platjones.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   for a in node.names if a.asname}
        for stmt in tree.body:
            names = {aliases.get(node.id, node.id) for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            statements.append((path.stem, stmt, names))
    unused = [
        f"{module}.{stmt.name}" for module, stmt, _ in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name not in platjones.__all__ and (module, stmt.name) not in kept
        and not any(stmt.name in names for _, other, names in statements if other is not stmt)
    ]
    assert unused == []
