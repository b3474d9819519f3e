"""Command-line front end.

Subcommands: eval (reconstruct the Jones polynomial), prob (acceptance
probability at a root of unity), oracle (exact skein computation),
verify (cross-check the pipeline against the oracle on a corpus or on
seeded random words).

main parses a canonically spelled argv straight from COMMANDS; argparse,
built from the same table, is imported only for --help and usage errors.

Exit codes: 0 success, 1 verify found a failing case, 2 usage, word syntax,
bad flag value or unreadable input, 3 cap/orientation failure, 4 coefficient
read-out rejected, 5 degenerate or too-large theta, 6 out of memory.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .braid import BraidWord, format_word, mirror, parse, resolve_orientations, writhe
from .errors import (
    AnnotationConflict,
    CapMismatch,
    DegenerateQ,
    NegativeRadicand,
    NonUnitaryBlock,
    ResidualTooLarge,
    WordSyntaxError,
)
from .evaluator import (
    comb_elements,
    compile as compile_word,
    convention_factor,
    jones,
    phase_grid,
    tokens,
    unlink_normalization,
)
from .laurent import LaurentPoly, render_q
from .oracle import bracket_span, kauffman_bracket, writhe_correction
from .qnum import QPoint
from .qsim import amplitudes as qsim_amplitudes, p_ks as qsim_p_ks

MIRROR_TOL = 1e-10
QSIM_TOL = 1e-12

# Exception -> exit code; the first row the exception is an instance of
# wins, so a subclass must come before its base.
EXIT_CODES = {
    WordSyntaxError: 2,
    CapMismatch: 3,
    AnnotationConflict: 3,
    ResidualTooLarge: 4,
    NonUnitaryBlock: 4,
    NegativeRadicand: 5,
    DegenerateQ: 5,
    ValueError: 2,
    OSError: 2,
    MemoryError: 6,
}


def _check_tolerance(tolerance: float) -> None:
    # a NaN tolerance would pass every comparison in the read-out checks
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")


def _load_word(args) -> BraidWord:
    text = Path(args.word_file).read_text()
    word = parse(text)
    if args.flips is not None:
        bits = args.flips
        if len(bits) != word.n or any(ch not in "01" for ch in bits):
            raise ValueError(f"--flips must be a bitstring of length {word.n}, got {bits!r}")
        word = dataclasses.replace(
            word, flips=tuple(ch == "1" for ch in bits)
        )
    return word


def _poly_payload(p: Optional[LaurentPoly]):
    if p is None:
        return None
    return {"coeffs": {str(k): v for k, v in p.coeffs().items()}}


def _report(
    word: str,
    n: int,
    polynomial: Optional[LaurentPoly] = None,
    residual: Optional[float] = None,
    operator_count: Optional[int] = None,
    p_k: Optional[float] = None,
    im_amplitude: Optional[float] = None,
    oracle_polynomial: Optional[LaurentPoly] = None,
    deviations: Optional[dict] = None,
) -> dict:
    return {
        "word": word,
        "n": n,
        "polynomial": _poly_payload(polynomial),
        "residual": residual,
        "operator_count": operator_count,
        "p_k": p_k,
        "im_amplitude": im_amplitude,
        "oracle_polynomial": _poly_payload(oracle_polynomial),
        "deviations": deviations,
    }


def _emit(args, report, lines) -> None:
    if args.json:
        sys.stdout.write(
            json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
        )
    else:
        for ln in lines:
            print(ln)


def cmd_eval(args) -> int:
    _check_tolerance(args.tolerance)
    word = _load_word(args)
    result = jones(word, tolerance=args.tolerance)
    annotated = result.program.word
    exact = writhe_correction(kauffman_bracket(annotated), writhe(annotated))
    report = _report(format_word(word), result.n, result.polynomial, result.residual, result.operator_count,
                     oracle_polynomial=exact, deviations={"rounding_shift": result.max_shift})

    def lines():  # built only for the text output
        flips = "".join("1" if b else "0" for b in annotated.flips)
        yield f"word: {format_word(word)}"
        yield f"resolved: {format_word(annotated)} [flips={flips}]"
        yield f"n: {result.n}  writhe: {writhe(annotated):+d}"
        yield f"operators ({result.operator_count}): " + " ".join(result.program.tokens())
        yield f"window: [{result.window[0]}, {result.window[1]}]"
        yield f"normalization: {result.normalization}"
        yield f"polynomial: {render_q(result.polynomial)}"
        yield f"residual: {result.residual:.3e}  rounding shift: {result.max_shift:.3e}"
        yield f"oracle (t=q): {render_q(exact, 't')}"
        factor = convention_factor(result.polynomial, exact)
        if factor is None:
            yield "convention factor: none found"
        else:
            sign = "+" if factor[0] > 0 else "-"
            yield f"convention factor: {sign}q^{{{factor[1]}/4}} (polynomial = factor * oracle)"

    _emit(args, report, lines())
    return 0


def cmd_prob(args) -> int:
    if args.root_order is not None and args.root_order < 1:
        # a phase 2*pi/r past the arc is check_arc's to reject, once the word's n is known
        raise NegativeRadicand(f"root order {args.root_order} is too small; need at least 1")
    word = _load_word(args)
    if args.root_order is not None:
        try:
            theta = 2.0 * math.pi / args.root_order
        except OverflowError:  # r past the float range: 2*pi/r underflows to 0
            theta = 0.0
        theta_label = f"2*pi/{args.root_order}"
    else:
        theta = args.theta
        theta_label = f"{theta!r}"
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta!r}")
    annotated = resolve_orientations(word)
    program = compile_word(annotated)
    amp = complex(qsim_amplitudes([annotated], theta)[0])
    pk = abs(amp) ** 2
    report = _report(format_word(word), word.n, operator_count=program.operator_count, p_k=pk, im_amplitude=amp.imag)
    lines = [
        f"word: {format_word(word)}",
        f"theta: {theta_label} = {theta:.12f}",
        f"operators ({program.operator_count}): " + " ".join(program.tokens()),
        f"amplitude: {amp.real:.15g} {amp.imag:+.15g}i",
        f"P_K: {pk:.15g}",
        f"|Im amplitude|: {abs(amp.imag):.3e}",
    ]
    _emit(args, report, lines)
    return 0


def cmd_oracle(args) -> int:
    word = _load_word(args)
    annotated = resolve_orientations(word)
    bracket = kauffman_bracket(annotated)
    w = writhe(annotated)
    poly = writhe_correction(bracket, w)
    span = bracket_span(bracket)
    report = _report(format_word(word), word.n, oracle_polynomial=poly)

    def lines():  # built only for the text output
        yield f"word: {format_word(word)}"
        yield f"n: {word.n}  crossings: {word.crossing_count}  writhe: {w:+d}"
        yield f"bracket span (A-exponents): [{span[0]}, {span[1]}]"
        yield f"jones (t): {render_q(poly, 't')}"

    _emit(args, report, lines())
    return 0


def _random_words(count: int, seed: int) -> list[tuple[str, BraidWord]]:
    """Seeded sample of all-g words with at most 10 crossings.

    Each resolves: an orientation of each link component orients each
    cup and cap, an arc, with its two ends pointing opposite ways.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice([2, 3])
        length = rng.randint(1, 5)
        syllables = []
        for _ in range(length):
            idx = rng.randint(1, 2 * n - 1)
            k = rng.choice([-3, -2, -1, 1, 2, 3])
            syllables.append(f"g{idx}^{k}")
        text = f"strands={2 * n}; " + " ".join(syllables)
        word = parse(text)
        if word.crossing_count > 10:
            continue
        out.append((f"random-{len(out)}", word))
    return out


def _corpus_words(path: Path) -> list[tuple[str, BraidWord]]:
    """Every *.txt entry of the directory, dotfiles included, parsed in name order (B.txt before a.txt)."""
    if not path.is_dir():
        raise NotADirectoryError(f"corpus {path} is not a directory")
    words = []
    for name in sorted(name for name in os.listdir(path) if name.endswith(".txt")):
        with open(os.path.join(path, name)) as f:  # a directory named *.txt is an OSError, exit 2
            words.append((name, parse(f.read())))
    return words


def _verify_cases(cases: list[tuple[str, BraidWord]], tolerance: float) -> list[dict]:
    """Check each word against the oracle, its mirror and the simulator.

    Every word is resolved first, in corpus order, so the first bad word
    decides the error; tokens spells it, uncompiled. Then the words of
    each n in turn are evaluated with their mirrors in one comb_elements
    call, simulated at the middle phase in one qsim pass, swept by the
    oracle on the call's one tables dict, and checked as (words, phases)
    arrays reduced per row.
    """
    groups = {}
    for i, (_, word) in enumerate(cases):
        annotated = resolve_orientations(word)
        groups.setdefault(annotated.n, []).append((i, annotated))
    results, tables = [None] * len(cases), {}
    for n in list(groups):
        group = groups.pop(n)  # frees the group's words once checked
        point = QPoint(tuple(phase_grid(n, 10).tolist()))
        words = [word for _, word in group]
        values = comb_elements(words + [mirror(w) for w in words], point)
        amps, mirrored = values[: len(group)], values[len(group) :]
        exacts = [writhe_correction(kauffman_bracket(w, tables), writhe(w)) for w in words]
        coeffs = [e.coeffs() for e in exacts]
        exponents = sorted(set().union(*coeffs))
        at = {k: j for j, k in enumerate(exponents)}
        word_rows, columns, entries = zip(*((row, at[k], v) for row, c in enumerate(coeffs) for k, v in c.items()))
        table = np.zeros((len(coeffs), len(exponents)), complex)
        table[word_rows, columns] = entries
        # laurent_eval's terms in laurent_eval's order, so each row has its bits
        want = sum(column[:, None] * point.q_half**k for column, k in zip(table.T, exponents))
        # polynomial roots can land on sample phases; floor the relative
        # scale by the coefficient mass so a true zero does not divide out
        floor = 1e-9 * np.maximum(1.0, abs(table).sum(1, keepdims=True))
        got, want = abs(amps) * abs(unlink_normalization(n, point.thetas)), abs(want)
        moduli = (abs(got - want) / np.maximum(want, floor)).max(1).tolist()
        mirrors = abs(mirrored - amps.conj()).max(1).tolist()
        mid = len(point.theta) // 2
        probabilities = qsim_p_ks(words, point.theta[mid])
        rows = zip(group, exacts, moduli, mirrors, probabilities, amps[:, mid])
        for (i, word), exact, worst_mod, worst_mirror, probability, amp in rows:
            qsim_dev = float(abs(probability - abs(amp) ** 2))
            deviations = {"modulus_rel": worst_mod, "mirror": worst_mirror, "qsim": qsim_dev}
            passed = worst_mod < tolerance and worst_mirror < MIRROR_TOL and qsim_dev < QSIM_TOL
            spelled = tokens(word)
            report = _report(format_word(cases[i][1]), n, operator_count=len(spelled),
                             oracle_polynomial=exact, deviations=deviations)
            results[i] = {"name": cases[i][0], "pass": passed, "tokens": " ".join(spelled), "report": report}
    return results


def cmd_verify(args) -> int:
    _check_tolerance(args.tolerance)
    if args.corpus is not None:
        if args.seed is not None:
            raise ValueError("--seed applies only to --random")
        seed = None
        cases = _corpus_words(Path(args.corpus))
        source = f"corpus({args.corpus})"
    else:
        if args.random < 0:
            raise ValueError(f"--random must be at least 0, got {args.random}")
        seed = args.seed if args.seed is not None else 0
        cases = _random_words(args.random, seed)
        source = f"random({args.random}, seed={seed})"
    results = _verify_cases(cases, args.tolerance)
    all_pass = all(r["pass"] for r in results)
    worst = {
        key: max((r["report"]["deviations"][key] for r in results), default=0.0)
        for key in ("modulus_rel", "mirror", "qsim")
    }

    def lines():  # built only for the text output
        yield f"verify {source}: {len(results)} case(s)"
        for i, r in enumerate(results):
            dev = r["report"]["deviations"]
            yield (
                f"  [{i:3d}] {'PASS' if r['pass'] else 'FAIL'} {r['report']['word']}\n"
                f"        operators: {r['tokens']}\n"
                f"        modulus {dev['modulus_rel']:.2e}  mirror {dev['mirror']:.2e}"
                f"  qsim {dev['qsim']:.2e}"
            )
        yield ("worst: modulus {modulus_rel:.2e}  mirror {mirror:.2e}"
               "  qsim {qsim:.2e}".format(**worst))
        yield "result: " + ("PASS" if all_pass else "FAIL")

    payload = {"source": source, "seed": seed, "cases": results, "worst": worst, "passed": all_pass}
    _emit(args, payload, lines())
    return 0 if all_pass else 1


SWITCH = {"action": "store_true", "default": False}
# subcommand: (help, command, arguments in --help order); an argument is (name,
# add_argument keywords), a bare name the positional, a list the required one-of group
COMMANDS = {
    "eval": ("reconstruct the Jones polynomial", cmd_eval, [
        ("word_file", {"help": "file containing one braid word"}),
        ("--tolerance", {"type": float, "default": 1e-6}),
        ("--flips", {"help": "cup orientation bits, overrides the word"}), ("--json", SWITCH)]),
    "prob": ("acceptance probability at one phase", cmd_prob, [
        ("word_file", {}),
        [("--root-order", {"type": int, "help": "theta = 2*pi/r"}), ("--theta", {"type": float})],
        ("--flips", {}), ("--json", SWITCH)]),
    "oracle": ("exact Kauffman-bracket Jones polynomial", cmd_oracle, [
        ("word_file", {}), ("--flips", {}), ("--json", SWITCH)]),
    "verify": ("cross-check evaluator, simulator and oracle", cmd_verify, [
        [("corpus", {"nargs": "?", "help": "directory of *.txt word files"}),
         ("--random", {"type": int, "metavar": "N"})],
        ("--seed", {"type": int}), ("--tolerance", {"type": float, "default": 1e-6}),
        ("--json", SWITCH)]),
}


def build_parser():
    """argparse's parser of COMMANDS, for --help and every argv that _parse declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="platjones",
        description="Jones polynomials of plat closures via a unitary "
        "braid representation, with an exact skein oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, func, arguments) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.set_defaults(func=func)
        for entry in arguments:
            grouped = isinstance(entry, list)
            group = p.add_mutually_exclusive_group(required=True) if grouped else p
            for name, keywords in entry if grouped else [entry]:
                group.add_argument(name, **keywords)
    return parser


def _parse(argv: list[str]) -> Optional[SimpleNamespace]:
    """build_parser().parse_args(argv) if argv is canonical, else None, for argparse.

    Canonical: the subcommand, its positional next, then full flag names, each once
    and each value its own token not starting with "-", and one side of the one-of group.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, arguments = COMMANDS[argv[0]]
    groups = [entry if isinstance(entry, list) else [entry] for entry in arguments]
    declared = {name: keywords for group in groups for name, keywords in group}
    values = {name: keywords.get("default") for name, keywords in declared.items()}
    positional = [name for name in declared if not name.startswith("-")]  # at most one
    given = set(positional if argv[1:2] and not argv[1].startswith("-") else ())
    for name in given:
        values[name] = argv[1]
    tokens = iter(argv[1 + len(given) :])
    for token in tokens:
        if not token.startswith("--") or token not in declared or token in given:
            return None
        given.add(token)
        if declared[token] is SWITCH:
            values[token] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            values[token] = declared[token].get("type", str)(value)
        except ValueError:
            return None
    # the lone positional, and one side of the one-of group, must be given
    required = [group for group in groups if len(group) > 1 or group[0][0] in positional]
    if any(len({name for name, _ in group} & given) != 1 for group in required):
        return None
    dests = {name.lstrip("-").replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(**dests, command=argv[0], func=func)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)  # MemoryError() has no text
        return next(code for cls, code in EXIT_CODES.items() if isinstance(e, cls))


if __name__ == "__main__":
    sys.exit(main())
