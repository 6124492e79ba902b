"""Spans around ptlang's public functions, installed from outside the package.

Every public function a ptlang module defines is wrapped, and every module
attribute that refers to it, including the names other ptlang modules
imported, is pointed at the wrapper; ``remove`` puts the originals back.
A span records its name, start, end and parent.  Counters record sizes at
the same boundaries.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("automata", "subwords", "pt", "kpt", "extremal", "cli")
# embeds runs once per pair of words inside decompose; a span per call would
# cost more than the work it measures.
UNTRACED = frozenset({"embeds"})

# Sizes recorded at a function's return: counter name -> size of the result.
SIZES = {
    "automata.determinize": ("states_out", lambda r: len(r.states)),
    "automata.minimize": ("states_out", lambda r: len(r.states)),
    "automata.transition_monoid": ("elements", lambda r: len(r.elements)),
    "pt.certify_pt_nfa": ("hits", bool),
    "kpt.is_3pt": ("decided", lambda r: r is not None),
    "kpt.decompose": ("clauses", lambda r: len(r.clauses)),
    "subwords.canonical_automaton_classes": ("classes", lambda r: len(r[1])),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []  # name id, start, end, parent
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        size = SIZES.get(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if size is not None:
                counts[f"{name}.{size[0]}"] += size[1](result)
            return result

        return traced

    def install(self) -> None:
        if not self._wrappers:
            for layer in LAYERS:
                module = sys.modules[f"ptlang.{layer}"]
                for attr, fn in vars(module).items():
                    if (
                        inspect.isfunction(fn)
                        and fn.__module__ == module.__name__
                        and not attr.startswith("_")
                        and attr not in UNTRACED
                    ):
                        self._wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for key, module in list(sys.modules.items()):
            if key == "ptlang" or key.startswith("ptlang."):
                for attr, value in list(vars(module).items()):
                    if id(value) in self._wrappers:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, self._wrappers[id(value)])

    def remove(self) -> None:
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()

    def self_times(self) -> dict[str, list]:
        """Per function name: [self seconds, calls, total seconds]; a span's
        self time is its duration minus that of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0, 0.0])
        for i, (name_id, start, end, _) in enumerate(self.spans):
            entry = out[self.names[name_id]]
            entry[0] += end - start - child[i]
            entry[1] += 1
            entry[2] += end - start
        return out

    def dump(self) -> list:
        return [[self.names[n], start, end, parent] for n, start, end, parent in self.spans]


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, per traced round: name -> (value, unit)."""
    times = tracer.self_times()
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def fn(name, *extra, total=False):
        s, calls, inclusive = times.get(name, (0.0, 0, 0.0))
        out[f"{name}.self_s"] = (s / rounds, "s")
        if total:
            out[f"{name}.total_s"] = (inclusive / rounds, "s")
        out[f"{name}.calls"] = (calls / rounds, "count")
        for counter in extra:
            out[f"{name}.{counter}"] = (counts.get(f"{name}.{counter}", 0.0) / rounds, "count")

    def ratio(name, counter, label):
        calls = times.get(name, (0.0, 0, 0.0))[1]
        out[f"{name}.{label}"] = (counts.get(f"{name}.{counter}", 0.0) / calls if calls else 0.0, "ratio")

    for layer in LAYERS:
        total = sum(entry[0] for name, entry in times.items() if name.startswith(layer + "."))
        out[f"{layer}.self_s"] = (total / rounds, "s")
    fn("automata.determinize", "states_out")
    fn("automata.minimize", "states_out")
    fn("automata.transition_monoid", "elements")
    fn("automata.check_identity")
    fn("automata.is_partially_ordered")
    fn("automata.depth")
    fn("automata.make_automaton")
    # certify_pt_nfa's work is in find_ums_violation, which it calls; the
    # total time shows what the fast path costs as a whole.
    fn("pt.certify_pt_nfa", total=True)
    ratio("pt.certify_pt_nfa", "hits", "hit_ratio")
    fn("pt.find_confluence_violation")
    fn("pt.find_ums_violation")
    fn("kpt.is_1pt")
    fn("kpt.is_2pt")
    fn("kpt.is_3pt")
    ratio("kpt.is_3pt", "decided", "decided_ratio")
    fn("kpt.is_kpt_oracle")
    fn("kpt.decompose", "clauses")
    fn("kpt.verify_pair")
    fn("kpt.min_k", total=True)
    fn("subwords.k_equivalent")
    fn("subwords.subwords_up_to_k")
    fn("subwords.canonical_automaton_classes", "classes")
    fn("extremal.gen_tight_depth_dfa")
    fn("extremal.gen_ak")
    fn("extremal.gen_intersection_nfa")
    fn("cli.parse_automaton")
    fn("cli.serialize_automaton")
    return out
