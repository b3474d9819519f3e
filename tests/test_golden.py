"""The golden CLI corpus: every call of tests/golden/cli.json, replayed through cli.main.

Exit codes, stderr (the error lines) and every exact stdout field must
match byte for byte: words, polynomials, tokens, operator counts, pass
flags, sources and the text around each number. The float fields move
with round-off, so they match within FLOAT_TOL: in --json output the
keys of FLOAT_KEYS, and in text output the numbers on FLOAT_LINE lines.
Every such field is a deviation, a residual, a rounding shift, a
probability or an amplitude part, of modulus at most about 1.
"""

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).with_name("golden")))
import make_golden  # noqa: E402

CASES = json.loads(make_golden.GOLDEN.read_text())
FLOAT_TOL = 1e-12
FLOAT_KEYS = {"residual", "p_k", "im_amplitude", "rounding_shift", "modulus_rel", "mirror", "qsim"}
FLOAT_LINE = re.compile(r"(residual|amplitude|P_K|\|Im amplitude\|):|\s+modulus |worst: ")
NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?")


def _compare_json(got, want, key=None):
    if key in FLOAT_KEYS and want is not None:
        assert type(got) is float and abs(got - want) <= FLOAT_TOL, (key, got, want)
    elif isinstance(want, dict):
        assert type(got) is dict and got.keys() == want.keys()
        for k in want:
            _compare_json(got[k], want[k], k)
    elif isinstance(want, list):
        assert type(got) is list and len(got) == len(want)
        for g, w in zip(got, want):
            _compare_json(g, w)
    else:
        assert type(got) is type(want) and got == want, (key, got, want)


def _compare_text(got, want):
    got, want = got.split("\n"), want.split("\n")
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if FLOAT_LINE.match(w):
            assert NUMBER.sub("#", g) == NUMBER.sub("#", w)
            for a, b in zip(NUMBER.findall(g), NUMBER.findall(w)):
                assert abs(float(a) - float(b)) <= FLOAT_TOL, (g, w)
        else:
            assert g == w


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_call(case, tmp_path):
    got = make_golden.run_call(case["argv"], case["files"], tmp_path)
    assert got["exit"] == case["exit"]
    assert got["stderr"] == case["stderr"]
    if "--json" in case["argv"] and case["stdout"]:
        _compare_json(json.loads(got["stdout"]), json.loads(case["stdout"]))
    else:
        _compare_text(got["stdout"], case["stdout"])


def test_golden_corpus_is_its_generators_and_covers_the_cli():
    # the stored calls are the script's, each subcommand exits 0 with and
    # without --json, and the exit codes 0-5 all occur
    fields = ("name", "argv", "files")
    assert [[c[f] for f in fields] for c in CASES] == [[c[f] for f in fields] for c in make_golden.calls()]
    assert {c["exit"] for c in CASES} == set(range(6))
    for command in ("eval", "prob", "oracle", "verify"):
        ok = [c for c in CASES if c["argv"][0] == command and c["exit"] == 0]
        assert {"--json" in c["argv"] for c in ok} == {False, True}
