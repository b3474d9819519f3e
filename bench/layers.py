"""Per-layer counters for a traced run, taken from outside the program.

Each public function in LAYERS is replaced, at every module attribute
that holds it, by a wrapper that counts the call and, if timed, records
a span. The modules import each other's functions by name (`from .x
import y`), so `evaluate` is reached as both platjones.cli.evaluate and
platjones.evaluator.evaluate, and every such binding is patched. Return
values and exceptions pass through unchanged. A function that no longer
exists is reported as absent and its metrics read 0.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter


def _note_duality(rec, args):
    n, point = args[0], args[1]
    rec.duality_keys.add((n, point.theta))


def _note_states(rec, args):
    rec.extra["oracle.states"] += 2 ** args[0].crossing_count


# (module, attribute, span key, timed, hook on the call's arguments)
LAYERS = [
    ("platjones.cli", "main", "cli", True, None),
    ("platjones.braid", "resolve_orientations", "braid.resolve", True, None),
    ("platjones.evaluator", "compile", "evaluator.compile", True, None),
    ("platjones.evaluator", "jones", "evaluator.contract", True, None),
    ("platjones.evaluator", "evaluate", "evaluator.contract", True, None),
    ("platjones.evaluator", "CompiledProgram.matrices", "evaluator.phase", False, None),
    ("platjones.fusion", "duality_matrix", "fusion.duality", True, _note_duality),
    ("platjones.fusion", "racah", "fusion.racah", False, None),
    ("platjones.laurent", "find_support_window", "laurent.support", True, None),
    ("platjones.laurent", "laurent_fit", "laurent.fit", True, None),
    ("numpy.linalg", "lstsq", "laurent.lstsq", False, None),
    ("platjones.oracle", "kauffman_bracket", "oracle.bracket", True, _note_states),
    ("platjones.qsim", "embed", "qsim.embed", False, None),
    ("platjones.qsim", "run", "qsim.run", True, None),
    ("platjones.qsim", "p_k", "qsim.run", True, None),
]

# metric name -> (unit, kind, span key); kind picks the recorded quantity
METRICS = {
    "fusion.duality_calls": ("count", "calls", "fusion.duality"),
    "fusion.duality_unique": ("count", "extra", "fusion.duality_unique"),
    "fusion.duality_s": ("s", "total", "fusion.duality"),
    "fusion.racah_calls": ("count", "calls", "fusion.racah"),
    "evaluator.contract_s": ("s", "own", "evaluator.contract"),
    "evaluator.phase_points": ("count", "calls", "evaluator.phase"),
    "braid.resolve_calls": ("count", "calls", "braid.resolve"),
    "braid.resolve_s": ("s", "total", "braid.resolve"),
    "evaluator.compile_calls": ("count", "calls", "evaluator.compile"),
    "evaluator.compile_s": ("s", "total", "evaluator.compile"),
    "laurent.support_s": ("s", "total", "laurent.support"),
    "laurent.fit_s": ("s", "total", "laurent.fit"),
    "laurent.lstsq_calls": ("count", "calls", "laurent.lstsq"),
    "oracle.bracket_s": ("s", "total", "oracle.bracket"),
    "oracle.states": ("count", "extra", "oracle.states"),
    "qsim.embed_calls": ("count", "calls", "qsim.embed"),
    "qsim.run_s": ("s", "total", "qsim.run"),
    "cli.self_s": ("s", "own", "cli"),
}


class Recorder:
    """Spans kept in memory: call counts, outermost totals and self times."""

    def __init__(self):
        self.stack = []  # open spans: [key, seconds covered by child spans]
        self.calls = Counter()
        self.total = Counter()  # outermost span of each key only
        self.own = Counter()  # span minus its child spans
        self.extra = Counter()
        self.duality_keys = set()
        self.absent = []

    def _wrap(self, fn, key, timed, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            if hook is not None:
                hook(self, args)
            if not timed:
                return fn(*args, **kwargs)
            nested = any(k == key for k, _ in self.stack)
            frame = [key, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += spent
                self.own[key] += spent - frame[1]
                if not nested:
                    self.total[key] += spent
        return wrapper

    def install(self) -> None:
        """Patch every binding of every LAYERS function in loaded modules."""
        for module_name, attr, key, timed, hook in LAYERS:
            owner = sys.modules.get(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, name, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(fn, key, timed, hook)
            if path:
                setattr(owner, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (
                    mod_name == module_name or mod_name.split(".")[0] == "platjones"
                ):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, binding, wrapper)

    def report(self) -> dict:
        extra = dict(self.extra)
        extra["fusion.duality_unique"] = len(self.duality_keys)
        kinds = {"calls": self.calls, "total": self.total, "own": self.own,
                 "extra": extra}
        return {
            "metrics": {name: kinds[kind].get(key, 0)
                        for name, (_, kind, key) in METRICS.items()},
            "absent": self.absent,
        }
