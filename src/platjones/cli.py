"""Command-line front end.

Subcommands: eval (reconstruct the Jones polynomial), prob (acceptance
probability at a root of unity), oracle (exact skein computation),
verify (cross-check the pipeline against the oracle on a corpus or on
seeded random words).

Exit codes: 0 success, 1 verify found a failing case, 2 usage, word syntax,
bad flag value or unreadable input, 3 cap/orientation failure, 4 coefficient
read-out rejected, 5 degenerate or too-large theta, 6 out of memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .braid import BraidWord, format_word, mirror, parse, resolve_orientations, writhe
from .errors import (
    AnnotationConflict,
    CapMismatch,
    DegenerateQ,
    NegativeRadicand,
    NonAdmissibleTriple,
    ResidualTooLarge,
    WordSyntaxError,
)
from .evaluator import (
    compile as compile_word,
    convention_factor,
    elements,
    jones,
    phase_grid,
    unlink_normalization,
)
from .laurent import LaurentPoly, render_q
from .oracle import (
    bracket_span,
    jones_exact,
    kauffman_bracket,
    plat_diagram,
    writhe_correction,
)
from .qnum import QPoint
from .qsim import p_ks as qsim_p_ks, run as qsim_run

MIRROR_TOL = 1e-10
QSIM_TOL = 1e-12

# Exception -> exit code; the first row the exception is an instance of
# wins, so a subclass must come before its base.
EXIT_CODES = {
    WordSyntaxError: 2,
    CapMismatch: 3,
    AnnotationConflict: 3,
    ResidualTooLarge: 4,
    NegativeRadicand: 5,
    DegenerateQ: 5,
    NonAdmissibleTriple: 5,
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
            raise WordSyntaxError(
                f"flips must be a bitstring of length {word.n}", 1, 1
            )
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
    exact = jones_exact(annotated)
    factor = convention_factor(result.polynomial, exact)
    deviations = {"rounding_shift": result.max_shift}
    report = _report(
        word=format_word(word),
        n=result.n,
        polynomial=result.polynomial,
        residual=result.residual,
        operator_count=result.operator_count,
        oracle_polynomial=exact,
        deviations=deviations,
    )
    flips = "".join("1" if b else "0" for b in annotated.flips)
    lines = [
        f"word: {format_word(word)}",
        f"resolved: {format_word(annotated)} [flips={flips}]",
        f"n: {result.n}  writhe: {writhe(annotated):+d}",
        f"operators ({result.operator_count}): " + " ".join(result.program.tokens()),
        f"window: [{result.window[0]}, {result.window[1]}]",
        f"normalization: {result.normalization}",
        f"polynomial: {render_q(result.polynomial)}",
        f"residual: {result.residual:.3e}  rounding shift: {result.max_shift:.3e}",
        f"oracle (t=q): {render_q(exact, 't')}",
    ]
    if factor is not None:
        c, s = factor
        sign = "+" if c > 0 else "-"
        lines.append(
            f"convention factor: {sign}q^{{{s}/4}} (polynomial = factor * oracle)"
        )
    else:
        lines.append("convention factor: none found")
    _emit(args, report, lines)
    return 0


def cmd_prob(args) -> int:
    if args.root_order is not None and args.root_order < 5:
        # q-numbers up to [n+1] must stay positive; below the fifth
        # root even the two-strand build degenerates
        raise NegativeRadicand(
            f"root order {args.root_order} is too small; need at least 5"
        )
    word = _load_word(args)
    if args.root_order is not None:
        theta = 2.0 * math.pi / args.root_order
        theta_label = f"2*pi/{args.root_order}"
    else:
        theta = args.theta
        theta_label = f"{theta!r}"
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta!r}")
    annotated, _ = resolve_orientations(word)
    program = compile_word(annotated)
    state = qsim_run(program, theta)
    amp = complex(state.amplitudes[0])
    pk = abs(amp) ** 2
    report = _report(
        word=format_word(word),
        n=word.n,
        operator_count=program.operator_count,
        p_k=pk,
        im_amplitude=amp.imag,
    )
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
    diagram = plat_diagram(word)
    bracket = kauffman_bracket(diagram)
    w = writhe(diagram.word)
    poly = writhe_correction(bracket, w)
    span = bracket_span(bracket)
    report = _report(format_word(word), word.n, oracle_polynomial=poly)
    lines = [
        f"word: {format_word(word)}",
        f"n: {word.n}  crossings: {diagram.crossing_count}  writhe: {w:+d}",
        f"bracket span (A-exponents): [{span[0]}, {span[1]}]",
        f"jones (t): {render_q(poly, 't')}",
    ]
    _emit(args, report, lines)
    return 0


def _random_words(count: int, seed: int) -> list[tuple[str, BraidWord]]:
    """Seeded cap-valid sample of words with at most 10 crossings."""
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
        if word.crossing_count() > 10:
            continue
        try:
            resolve_orientations(word)
        except (CapMismatch, AnnotationConflict):
            continue
        out.append((f"random-{len(out)}", word))
    return out


def _corpus_words(path: Path) -> list[tuple[str, BraidWord]]:
    if not path.is_dir():
        raise NotADirectoryError(f"corpus {path} is not a directory")
    files = sorted(path.glob("*.txt"))
    return [(f.name, parse(f.read_text())) for f in files]


def _verify_cases(cases: list[tuple[str, BraidWord]], tolerance: float) -> list[dict]:
    """Check each word against the oracle, its mirror and the simulator.

    Every word is resolved and compiled first, in corpus order, so the
    first bad word decides the error. Then the words of each n in turn,
    whatever their operators, are evaluated with their mirrors in one
    elements call, simulated at the middle phase in one qsim pass, and
    checked as (words, phases) arrays reduced per row.
    """
    groups = {}
    for i, (_, word) in enumerate(cases):
        diagram = plat_diagram(word)
        program = compile_word(diagram.word)
        groups.setdefault(program.n, []).append((i, program, diagram))
    results = [None] * len(cases)
    for n in list(groups):
        group = groups.pop(n)  # frees the group's programs once checked
        point = QPoint(tuple(phase_grid(n, 10).tolist()))
        programs = [program for _, program, _ in group]
        values = elements(programs + [compile_word(mirror(p.word)) for p in programs], point)
        amps, mirrored = values[: len(group)], values[len(group) :]
        exacts = [writhe_correction(kauffman_bracket(d), writhe(d.word)) for _, _, d in group]
        coeffs = [e.coeffs() for e in exacts]
        exponents = sorted(set().union(*coeffs))
        table = np.array([[c.get(k, 0) for k in exponents] for c in coeffs], dtype=complex)
        # laurent_eval's terms in laurent_eval's order, so each row has its bits
        want = sum(column[:, None] * point.q_half**k for column, k in zip(table.T, exponents))
        # polynomial roots can land on sample phases; floor the relative
        # scale by the coefficient mass so a true zero does not divide out
        mass = [[float(sum(map(abs, c.values())))] for c in coeffs]
        floor = 1e-9 * np.maximum(1.0, mass)
        got, want = abs(amps) * abs(unlink_normalization(n, point.thetas)), abs(want)
        moduli = (abs(got - want) / np.maximum(want, floor)).max(1).tolist()
        mirrors = abs(mirrored - amps.conj()).max(1).tolist()
        mid = len(point.theta) // 2
        probabilities = qsim_p_ks(programs, point.theta[mid])
        rows = zip(group, exacts, moduli, mirrors, probabilities, amps[:, mid])
        for (i, program, _), exact, worst_mod, worst_mirror, probability, amp in rows:
            qsim_dev = float(abs(probability - abs(amp) ** 2))
            deviations = {"modulus_rel": worst_mod, "mirror": worst_mirror, "qsim": qsim_dev}
            passed = worst_mod < tolerance and worst_mirror < MIRROR_TOL and qsim_dev < QSIM_TOL
            report = _report(format_word(cases[i][1]), n, operator_count=program.operator_count,
                             oracle_polynomial=exact, deviations=deviations)
            results[i] = {"name": cases[i][0], "pass": passed,
                          "tokens": " ".join(program.tokens()), "report": report}
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platjones",
        description="Jones polynomials of plat closures via a unitary "
        "braid representation, with an exact skein oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="reconstruct the Jones polynomial")
    pe.add_argument("word_file", help="file containing one braid word")
    pe.add_argument("--tolerance", type=float, default=1e-6)
    pe.add_argument("--flips", help="cup orientation bits, overrides the word")
    pe.add_argument("--json", action="store_true")
    pe.set_defaults(func=cmd_eval)

    pp = sub.add_parser("prob", help="acceptance probability at one phase")
    pp.add_argument("word_file")
    grp = pp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--root-order", type=int, help="theta = 2*pi/r")
    grp.add_argument("--theta", type=float)
    pp.add_argument("--flips")
    pp.add_argument("--json", action="store_true")
    pp.set_defaults(func=cmd_prob)

    po = sub.add_parser("oracle", help="exact Kauffman-bracket Jones polynomial")
    po.add_argument("word_file")
    po.add_argument("--flips")
    po.add_argument("--json", action="store_true")
    po.set_defaults(func=cmd_oracle)

    pv = sub.add_parser("verify", help="cross-check evaluator, simulator and oracle")
    source = pv.add_mutually_exclusive_group(required=True)
    source.add_argument("corpus", nargs="?", help="directory of *.txt word files")
    source.add_argument("--random", type=int, metavar="N")
    pv.add_argument("--seed", type=int)
    pv.add_argument("--tolerance", type=float, default=1e-6)
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)  # MemoryError() has no text
        return next(code for cls, code in EXIT_CODES.items() if isinstance(e, cls))


if __name__ == "__main__":
    sys.exit(main())
