"""Core automaton model and the classical constructions on it.

A single :class:`Automaton` type covers both NFAs and DFAs; determinism is a
derived property, never a separate type.  All operations are pure: they never
mutate their input and return fresh automata.  Algorithms on complete DFAs
read one cached integer view of them, `Automaton.table`, and the library's
DFA constructions build their results from integer rows (`dfa_from_rows`).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

Word = tuple[str, ...]

DEFAULT_MONOID_BUDGET = 10**6
DEFAULT_ASSIGNMENT_BUDGET = 10**6


class InputError(ValueError):
    """Malformed input: unknown letters or states, unparsable files."""


class ContractError(ValueError):
    """An operation's precondition was violated by the caller."""


class CyclicAutomatonError(Exception):
    """The transition graph has a cycle through distinct states, so the
    acyclic-only notion of depth does not apply."""


class BudgetExceededError(RuntimeError):
    """An explicit size budget was exhausted before the computation finished."""

    def __init__(self, budget: int, reached: int, what: str = "items"):
        super().__init__(f"budget of {budget} {what} exceeded (reached {reached})")
        self.budget = budget
        self.reached = reached


class DfaTable(NamedTuple):
    """The integer view of a complete DFA: state i is names[i], the names in
    sorted order, and rows[i][j] is the successor of state i under the j-th
    letter of the alphabet."""

    names: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    start: int
    accepting: frozenset[int]

    def reachable(self, sources: Iterable[int]) -> set[int]:
        """The states reachable from `sources`, the sources included."""
        seen = set(sources)
        stack = list(seen)
        while stack:
            for nxt in self.rows[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen


@dataclass(frozen=True)
class Automaton:
    """Nondeterministic finite automaton (a DFA is a validated restriction).

    `transitions` maps (state, letter) to the frozenset of target states;
    pairs with no transition are simply absent.
    """

    states: frozenset[str]
    alphabet: tuple[str, ...]
    transitions: Mapping[tuple[str, str], frozenset[str]]
    initials: frozenset[str]
    accepting: frozenset[str]

    @cached_property
    def deterministic(self) -> bool:
        return len(self.initials) == 1 and all(len(dsts) <= 1 for dsts in self.transitions.values())

    @cached_property
    def complete(self) -> bool:
        return all(self.transitions.get((q, a)) for q in self.states for a in self.alphabet)

    @cached_property
    def table(self) -> DfaTable:
        """The state table every complete-DFA algorithm reads."""
        if not (self.deterministic and self.complete):
            raise ContractError("this operation requires a deterministic complete automaton")
        names = tuple(sorted(self.states))
        index = {q: i for i, q in enumerate(names)}
        rows = tuple(
            tuple(index[q] for a in self.alphabet for q in self.transitions[p, a])
            for p in names
        )
        (start,) = self.initials
        return DfaTable(names, rows, index[start], frozenset(index[q] for q in self.accepting))

    def targets(self, q: str, a: str) -> frozenset[str]:
        return self.transitions.get((q, a), frozenset())

    def step(self, current: Iterable[str], a: str) -> frozenset[str]:
        if a not in self.alphabet:
            raise InputError(f"unknown letter {a!r}")
        out: set[str] = set()
        for q in current:
            out |= self.targets(q, a)
        return frozenset(out)

    def run(self, w: Word) -> frozenset[str]:
        """The set of states reached from the initial states under `w`."""
        current = self.initials
        for a in w:
            current = self.step(current, a)
        return current

    def accepts(self, w: Word) -> bool:
        return bool(self.run(w) & self.accepting)

    def dstate(self, w: Word) -> Optional[str]:
        """The single state a DFA reaches under `w`, or None if undefined."""
        if not self.deterministic:
            raise ContractError("dstate requires a deterministic automaton")
        reached = self.run(w)
        return next(iter(reached)) if reached else None

    def dstep(self, q: str, a: str) -> Optional[str]:
        dsts = self.targets(q, a)
        return next(iter(dsts)) if dsts else None

    def dstate_from(self, q: str, w: Word) -> Optional[str]:
        """Deterministic run starting at `q` instead of the initial state."""
        for a in w:
            if q is None:
                return None
            q = self.dstep(q, a)
        return q


def make_automaton(
    states: Iterable[str],
    alphabet: Iterable[str],
    transitions: Iterable[tuple[str, str, str]],
    initials: Iterable[str],
    accepting: Iterable[str],
) -> Automaton:
    """Build and validate an automaton from transition triples (src, letter, dst)."""
    state_set = frozenset(states)
    letters = tuple(alphabet)
    letter_set = set(letters)
    if len(letter_set) != len(letters):
        raise InputError("duplicate letters in alphabet")
    table: dict[tuple[str, str], set[str]] = {}
    for src, letter, dst in transitions:
        if src not in state_set:
            raise InputError(f"transition source {src!r} not a declared state")
        if dst not in state_set:
            raise InputError(f"transition target {dst!r} not a declared state")
        if letter not in letter_set:
            raise InputError(f"transition letter {letter!r} not in alphabet")
        table.setdefault((src, letter), set()).add(dst)
    init = frozenset(initials)
    acc = frozenset(accepting)
    for name, group in (("initial", init), ("accepting", acc)):
        bad = group - state_set
        if bad:
            raise InputError(f"{name} state {sorted(bad)[0]!r} not a declared state")
    frozen = {key: frozenset(dsts) for key, dsts in table.items()}
    return Automaton(state_set, letters, frozen, init, acc)


def dfa_from_rows(
    names: Sequence[str], alphabet: tuple[str, ...], rows: Sequence[Sequence[int]],
    start: int, accepting: Iterable[int],
) -> Automaton:
    """The DFA with state i named names[i] and rows[i][j] its successor under
    alphabet[j].  The library's constructions build their results with it;
    data from outside goes through make_automaton, which validates it."""
    targets = [frozenset((name,)) for name in names]
    transitions = {
        (name, letter): targets[j] for name, row in zip(names, rows) for letter, j in zip(alphabet, row)
    }
    return Automaton(
        frozenset(names), alphabet, transitions, targets[start], frozenset(names[i] for i in accepting)
    )


def determinize(a: Automaton) -> Automaton:
    """Subset construction: a deterministic complete language-equivalent DFA.

    States are the reachable subsets, canonically named by their sorted member
    lists; the empty subset acts as the sink when it is reachable.  Should two
    subsets print alike, backslashes, commas and braces in members are escaped.
    """
    start = a.initials
    index: dict[frozenset[str], int] = {start: 0}
    subsets = [start]
    rows: list[list[int]] = []
    for current in subsets:
        row = []
        for letter in a.alphabet:
            nxt = frozenset(
                itertools.chain.from_iterable(a.targets(q, letter) for q in current)
            )
            if nxt not in index:
                index[nxt] = len(subsets)
                subsets.append(nxt)
            row.append(index[nxt])
        rows.append(row)
    names = ["{" + ",".join(sorted(s)) + "}" for s in subsets]
    if len(set(names)) < len(names):
        escape = str.maketrans({c: "\\" + c for c in "\\,{}"})
        names = ["{" + ",".join(m.translate(escape) for m in sorted(s)) + "}" for s in subsets]
    accepting = [i for i, s in enumerate(subsets) if s & a.accepting]
    return dfa_from_rows(names, a.alphabet, rows, 0, accepting)


def minimize(a: Automaton) -> Automaton:
    """Minimal complete DFA by Moore partition refinement.

    Requires a deterministic complete input; unreachable states are dropped
    first.  Each block of merged states is named after its lexicographically
    smallest member, which keeps names short and the result reproducible.
    """
    t = a.table
    reachable = sorted(t.reachable((t.start,)))
    # Moore refinement numbers the blocks in the order of their least
    # members; names sort like their indices.
    block = [1 if q in t.accepting else 0 for q in range(len(t.names))]
    while True:
        signatures: dict[tuple[int, ...], int] = {}
        new_block = block[:]
        for q in reachable:
            sig = (block[q], *(block[nxt] for nxt in t.rows[q]))
            new_block[q] = signatures.setdefault(sig, len(signatures))
        if new_block == block:
            break
        block = new_block
    least: dict[int, int] = {}
    for q in reachable:
        least.setdefault(block[q], q)
    rows = [[block[nxt] for nxt in t.rows[q]] for q in least.values()]
    accepting = [b for b, q in least.items() if q in t.accepting]
    names = [t.names[q] for q in least.values()]
    return dfa_from_rows(names, a.alphabet, rows, block[t.start], accepting)


def complete_with_sink(a: Automaton, sink_name: str = "sink") -> Automaton:
    """Route every missing transition to a fresh non-accepting sink state.

    Already-complete automata are returned unchanged.
    """
    if a.complete and a.states:
        return a
    sink = sink_name
    while sink in a.states:
        sink = sink + "'"
    triples = [
        (src, letter, dst)
        for (src, letter), dsts in a.transitions.items()
        for dst in dsts
    ]
    for q in a.states | {sink}:
        for letter in a.alphabet:
            if not a.targets(q, letter):
                triples.append((q, letter, sink))
    return make_automaton(
        a.states | {sink}, a.alphabet, triples, a.initials, a.accepting
    )


def _longest_paths(a: Automaton) -> Optional[dict[str, int]]:
    """One Kahn pass over the graph without self-loops: the number of
    transitions on the longest path into each state, or None if cyclic."""
    adj: dict[str, set[str]] = {q: set() for q in a.states}
    for (src, _letter), dsts in a.transitions.items():
        for dst in dsts:
            if dst != src:
                adj[src].add(dst)
    indegree = dict.fromkeys(a.states, 0)
    for dsts in adj.values():
        for dst in dsts:
            indegree[dst] += 1
    longest = dict.fromkeys(a.states, 0)
    order = [q for q, d in indegree.items() if d == 0]
    for q in order:
        step = longest[q] + 1
        for dst in adj[q]:
            if step > longest[dst]:
                longest[dst] = step
            indegree[dst] -= 1
            if indegree[dst] == 0:
                order.append(dst)
    return longest if len(order) == len(a.states) else None


def is_partially_ordered(a: Automaton) -> bool:
    """True iff reachability is a partial order: no cycles but self-loops."""
    return _longest_paths(a) is not None


def depth(a: Automaton) -> int:
    """Number of transitions on the longest path, self-loops ignored.

    Only defined for partially ordered automata, where the longest simple
    path is the longest path of the self-loop-free DAG.
    """
    longest = _longest_paths(a)
    if longest is None:
        raise CyclicAutomatonError("depth is undefined on cyclic automata")
    return max(longest.values(), default=0)


def self_loop_alphabet(a: Automaton, p: str) -> frozenset[str]:
    """The letters under which `p` has a self-loop."""
    if p not in a.states:
        raise InputError(f"unknown state {p!r}")
    return frozenset(letter for letter in a.alphabet if p in a.targets(p, letter))


StateMap = tuple[int, ...]


@dataclass(frozen=True)
class TransitionMonoid:
    """Closure of the letter-induced state maps under composition.

    Elements are total maps on the states of a deterministic complete
    automaton, encoded as tuples of state indices over `state_order`.
    """

    state_order: tuple[str, ...]
    elements: frozenset[StateMap]
    generators: Mapping[str, StateMap]
    identity: StateMap = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "identity", tuple(range(len(self.state_order))))

    @staticmethod
    def compose(first: StateMap, second: StateMap) -> StateMap:
        """The map 'apply first, then second'."""
        return tuple(second[x] for x in first)

    def evaluate(self, assignment: Mapping[str, StateMap], word: str) -> StateMap:
        out = self.identity
        for symbol in word:
            out = self.compose(out, assignment[symbol])
        return out


def transition_monoid(
    a: Automaton, budget: int = DEFAULT_MONOID_BUDGET
) -> TransitionMonoid:
    """Generate the transition monoid of a deterministic complete automaton."""
    t = a.table
    generators = {
        letter: tuple(row[j] for row in t.rows) for j, letter in enumerate(a.alphabet)
    }
    identity = tuple(range(len(t.names)))
    elements = {identity}
    queue = deque([identity])
    while queue:
        m = queue.popleft()
        for g in generators.values():
            composed = TransitionMonoid.compose(m, g)
            if composed not in elements:
                if len(elements) >= budget:
                    raise BudgetExceededError(budget, len(elements) + 1, "monoid elements")
                elements.add(composed)
                queue.append(composed)
    return TransitionMonoid(t.names, frozenset(elements), generators)


def check_identity(
    m: TransitionMonoid,
    lhs: str,
    rhs: str,
    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
) -> Optional[dict[str, StateMap]]:
    """Check an identity such as ``xy = yx`` over all assignments of elements.

    `lhs` and `rhs` are words over single-character variable names.  Returns
    None when the identity holds, otherwise one violating assignment.
    """
    variables = sorted(set(lhs) | set(rhs))
    size = len(m.elements)
    if size ** len(variables) > budget:
        raise BudgetExceededError(budget, size ** len(variables), "assignments")
    pool = sorted(m.elements)
    if size * size <= 4 * 10**6:
        # Precomputed composition table: word evaluation becomes index lookups.
        index = {e: i for i, e in enumerate(pool)}
        table = [
            [index[TransitionMonoid.compose(e, f)] for f in pool] for e in pool
        ]
        identity = index[m.identity]
        lhs_vars = [variables.index(c) for c in lhs]
        rhs_vars = [variables.index(c) for c in rhs]
        for choice in itertools.product(range(size), repeat=len(variables)):
            left = identity
            for v in lhs_vars:
                left = table[left][choice[v]]
            right = identity
            for v in rhs_vars:
                right = table[right][choice[v]]
            if left != right:
                return {variables[i]: pool[choice[i]] for i in range(len(variables))}
        return None
    for choice in itertools.product(pool, repeat=len(variables)):
        assignment = dict(zip(variables, choice))
        if m.evaluate(assignment, lhs) != m.evaluate(assignment, rhs):
            return assignment
    return None
