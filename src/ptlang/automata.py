"""Core automaton model and the classical constructions on it.

A single :class:`Automaton` type covers both NFAs and DFAs; determinism is a
derived property, never a separate type.  All operations are pure: they never
mutate their input and return fresh automata.  An automaton is stored in one
integer form: state i is the i-th of the sorted state names, and each state
has one sorted tuple of successor indices per letter.  Every algorithm reads
that form and every construction builds it; the name-keyed `states`,
`transitions`, `initials` and `accepting` are views computed on first use.
So is `minimal`, the minimal complete DFA of the language and the one place
where minimality is established: `minimize` marks its own results.
`partial_order` is the one test of partial order: one pass over the rows
splits each state's transitions into moves to other states and self-loop
letters, and Kahn's algorithm orders the states or raises
CyclicAutomatonError, a ContractError, on a cycle through distinct states.
`depth` folds over that order (`longest_path`), and the UMS check of `pt`
reads the same split.  `determinize` keys each subset by the sorted tuple
of its member indices, the form of a row's cells, and unites the
successors of a larger subset as bit sets, one letter-wise OR per member.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import or_
from typing import Iterable, Mapping, Optional, Sequence

Word = tuple[str, ...]

DEFAULT_MONOID_BUDGET = 10**6


class InputError(ValueError):
    """Malformed input: unknown letters or states, unparsable files."""


class ContractError(ValueError):
    """An operation's precondition was violated by the caller."""


class CyclicAutomatonError(ContractError):
    """The transition graph has a cycle through distinct states, so neither
    depth nor the UMS property, both defined on partially ordered automata
    only, applies."""


class BudgetExceededError(RuntimeError):
    """An explicit size budget was exhausted before the computation finished."""

    def __init__(self, budget: int, reached: int, what: str):
        super().__init__(f"budget of {budget} {what} exceeded (reached {reached})")
        self.budget = budget
        self.reached = reached


@dataclass(frozen=True, init=False)
class Automaton:
    """Nondeterministic finite automaton (a DFA is a validated restriction).

    State i is names[i], the names distinct and sorted.  rows[i][j] is the
    sorted tuple of the successors of state i under alphabet[j], empty when
    there is no transition.  `starts` and `finals` hold the indices of the
    initial and accepting states.
    """

    names: tuple[str, ...]
    alphabet: tuple[str, ...]
    rows: tuple[tuple[tuple[int, ...], ...], ...]
    starts: frozenset[int]
    finals: frozenset[int]

    def __init__(self, names, alphabet, rows, starts, finals, *, accepting=None):
        # State names given as `accepting` replace `finals`, so that
        # dataclasses.replace(a, accepting=...) swaps the accepting states.
        if accepting is not None:
            finals = frozenset(map(names.index, accepting))
        # Frozen, so the fields go straight into __dict__, in field order,
        # which keeps the instance dicts' shared keys.
        fields = self.__dict__
        fields["names"] = names
        fields["alphabet"] = alphabet
        fields["rows"] = rows
        fields["starts"] = starts
        fields["finals"] = finals

    @cached_property
    def states(self) -> frozenset[str]:
        return frozenset(self.names)

    @cached_property
    def transitions(self) -> Mapping[tuple[str, str], frozenset[str]]:
        """(state, letter) to the frozenset of its targets; pairs with no
        transition are absent.  Equal target sets share one frozenset."""
        names = self.names
        as_names: dict[tuple[int, ...], frozenset[str]] = {}
        view = {}
        for name, row in zip(names, self.rows):
            for letter, dsts in zip(self.alphabet, row):
                if dsts:
                    if dsts not in as_names:
                        as_names[dsts] = frozenset(names[q] for q in dsts)
                    view[name, letter] = as_names[dsts]
        return view

    @cached_property
    def initials(self) -> frozenset[str]:
        return frozenset(self.names[q] for q in self.starts)

    @cached_property
    def accepting(self) -> frozenset[str]:
        return frozenset(self.names[q] for q in self.finals)

    @property
    def minimal(self) -> Automaton:
        """The minimal complete DFA, built on first use and kept:
        `minimize(self)`, which keeps state names, for a complete DFA, else
        `minimize(determinize(self))`.  A result of `minimize` keeps None for
        itself: a self-reference is a cycle, freed only by the collector."""
        fields = self.__dict__
        if "_minimal" not in fields:
            fields["_minimal"] = minimize(self if self.deterministic and self.complete else determinize(self))
        return fields["_minimal"] or self

    @cached_property
    def deterministic(self) -> bool:
        return len(self.starts) == 1 and all(len(dsts) <= 1 for row in self.rows for dsts in row)

    @cached_property
    def complete(self) -> bool:
        return all(all(row) for row in self.rows)

    def reachable(self, sources: Iterable[int]) -> set[int]:
        """The states reachable from `sources`, the sources included."""
        seen = set(sources)
        stack = list(seen)
        while stack:
            for dsts in self.rows[stack.pop()]:
                for nxt in dsts:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        return seen

    def _run(self, w: Word) -> Iterable[int]:
        """The indices of the states reached from the initial states under `w`."""
        current: Iterable[int] = self.starts
        for a in w:
            try:
                j = self.alphabet.index(a)
            except ValueError:
                raise InputError(f"unknown letter {a!r}") from None
            current = {nxt for q in current for nxt in self.rows[q][j]}
        return current

    def run(self, w: Word) -> frozenset[str]:
        """The set of states reached from the initial states under `w`."""
        return frozenset(self.names[q] for q in self._run(w))

    def accepts(self, w: Word) -> bool:
        return not self.finals.isdisjoint(self._run(w))

    def dstate(self, w: Word) -> Optional[str]:
        """The single state a DFA reaches under `w`, or None if undefined."""
        if not self.deterministic:
            raise ContractError("dstate requires a deterministic automaton")
        reached = self.run(w)
        return next(iter(reached)) if reached else None


def make_automaton(
    states: Iterable[str],
    alphabet: Iterable[str],
    transitions: Iterable[tuple[str, str, str]],
    initials: Iterable[str],
    accepting: Iterable[str],
) -> Automaton:
    """Build and validate an automaton from transition triples (src, letter, dst)."""
    names = tuple(sorted(set(states)))
    index = {q: i for i, q in enumerate(names)}
    letters = tuple(alphabet)
    column = {letter: j for j, letter in enumerate(letters)}
    if len(column) != len(letters):
        raise InputError("duplicate letters in alphabet")
    width = len(letters)
    # The targets of state i under letter j, in cell i * width + j; cells
    # with more than one target collect them in `several`.
    cells: list[tuple[int, ...]] = [()] * (len(names) * width)
    several: dict[int, set[int]] = {}
    for src, letter, dst in transitions:
        try:
            cell, target = index[src] * width + column[letter], index[dst]
        except KeyError:
            if src not in index:
                raise InputError(f"transition source {src!r} not a declared state") from None
            if dst not in index:
                raise InputError(f"transition target {dst!r} not a declared state") from None
            raise InputError(f"transition letter {letter!r} not in alphabet") from None
        if cells[cell]:
            several.setdefault(cell, set(cells[cell])).add(target)
        else:
            cells[cell] = (target,)
    for cell, dsts in several.items():
        cells[cell] = tuple(sorted(dsts))
    init, acc = frozenset(initials), frozenset(accepting)
    try:
        starts = frozenset(map(index.__getitem__, init))
        finals = frozenset(map(index.__getitem__, acc))
    except KeyError:
        for name, group in (("initial", init), ("accepting", acc)):
            bad = group - index.keys()
            if bad:
                raise InputError(f"{name} state {sorted(bad)[0]!r} not a declared state") from None
    # The cells, width at a time, are the rows.
    rows = tuple(zip(*[iter(cells)] * width)) if width else ((),) * len(names)
    return Automaton(names, letters, rows, starts, finals)


def dfa_from_successors(
    names: Sequence[str], alphabet: tuple[str, ...], successors: Sequence[int],
    start: int, accepting: Iterable[int],
) -> Automaton:
    """The DFA with state i named names[i] and successors[i * len(alphabet) + j]
    its successor under alphabet[j], renumbered in name order.  The library's
    constructions build their results with it; data from outside goes
    through make_automaton, which validates it."""
    width = len(alphabet)
    order = sorted(range(len(names)), key=names.__getitem__)
    # single[i] is the one-element target tuple of old state i's new index.
    single: list[tuple[int]] = [(0,)] * len(order)
    for new, old in enumerate(order):
        single[old] = (new,)
    # The targets, width at a time, are the rows of the old states.
    targets = map(single.__getitem__, successors)
    old_rows = list(zip(*[targets] * width)) if width else [()] * len(order)
    return Automaton(
        tuple(map(names.__getitem__, order)), alphabet, tuple(map(old_rows.__getitem__, order)),
        frozenset(single[start]), frozenset(single[i][0] for i in accepting),
    )


def require_complete_dfa(a: Automaton) -> None:
    """Raise ContractError unless `a` is deterministic and complete."""
    if not (a.deterministic and a.complete):
        raise ContractError("this operation requires a deterministic complete automaton")


def dfa_rows(a: Automaton) -> list[list[int]]:
    """The successor table of a deterministic complete automaton: entry
    [i][j] is the successor of state i under the j-th letter."""
    require_complete_dfa(a)
    return [[nxt for (nxt,) in row] for row in a.rows]


def dfa_columns(a: Automaton) -> list[list[int]]:
    """The successor table of a deterministic complete automaton, one list
    per letter: entry [j][i] is the successor of state i under the j-th
    letter."""
    require_complete_dfa(a)
    return [[nxt for (nxt,) in col] for col in zip(*a.rows)]


def determinize(a: Automaton) -> Automaton:
    """Subset construction: a deterministic complete language-equivalent DFA.

    States are the reachable subsets, numbered breadth-first with letters in
    alphabet order and canonically named by their sorted member lists; the
    empty subset acts as the sink when it is reachable.  Should two subsets
    print alike, backslashes, commas and braces in members are escaped.

    A subset is keyed by the ascending tuple of its member indices, the form
    of a row's cells, so a one-member subset's successors are the cells of
    its own row.  A larger subset's successors are one letter-wise OR per
    member over bit sets, each state's built once, on its first use in such
    a subset.  A second dict maps each union to its subset, so a union is
    decoded into members only the first time it is seen.  No set is built
    per (subset, letter).
    """
    rows = a.rows
    start = tuple(sorted(a.starts))
    index = {start: 0}
    by_bits: dict[int, int] = {}
    subsets = [start]
    # bits[q][j]: the successors of state q under the j-th letter, as a bit set.
    bits: list[Optional[list[int]]] = [None] * len(rows)
    successors: list[int] = []
    append = successors.append
    for current in subsets:
        if len(current) == 1:
            for cell in rows[current[0]]:
                i = index.get(cell)
                if i is None:
                    i = index[cell] = len(subsets)
                    subsets.append(cell)
                append(i)
            continue
        unions: Iterable[int] = [0] * len(a.alphabet)
        for q in current:
            if bits[q] is None:
                bits[q] = [sum(1 << r for r in cell) for cell in rows[q]]
            unions = map(or_, unions, bits[q])
        for u in unions:
            i = by_bits.get(u)
            if i is None:
                # The set bits of u, lowest first.
                found = []
                rest = u
                while rest:
                    low = rest & -rest
                    found.append(low.bit_length() - 1)
                    rest ^= low
                cell = tuple(found)
                i = index.get(cell)
                if i is None:
                    i = index[cell] = len(subsets)
                    subsets.append(cell)
                by_bits[u] = i
            append(i)
    # Indices sort like the names they stand for.
    members = [[a.names[q] for q in s] for s in subsets]
    names = ["{" + ",".join(m) + "}" for m in members]
    if len(set(names)) < len(names):
        escape = str.maketrans({c: "\\" + c for c in "\\,{}"})
        names = ["{" + ",".join(q.translate(escape) for q in m) + "}" for m in members]
    accepting = [i for i, s in enumerate(subsets) if not a.finals.isdisjoint(s)]
    return dfa_from_successors(names, a.alphabet, successors, 0, accepting)


def minimize(a: Automaton) -> Automaton:
    """Minimal complete DFA by Moore partition refinement.

    Requires a deterministic complete input.  The refinement runs over the
    successor columns of `dfa_columns`, one per letter; the reachable
    states are found by frontier passes over the same columns, and only
    when some state is unreachable are the reachable ones renumbered
    0..r-1 in name order.  A round that splits no block ends the
    refinement.  Each block of merged states is named after its
    lexicographically smallest member, which keeps names short and the
    result reproducible.  The result is its own `minimal`.
    """
    cols = dfa_columns(a)
    (start,) = a.starts
    seen = {start}
    frontier: Iterable[int] = (start,)
    while frontier:
        frontier = {nxt for col in cols for nxt in map(col.__getitem__, frontier)} - seen
        seen |= frontier
    if len(seen) < len(a.names):
        reachable: Sequence[int] = sorted(seen)
        index = dict(zip(reachable, range(len(reachable))))
        cols = [[index[col[q]] for q in reachable] for col in cols]
        start = index[start]
    else:
        reachable = range(len(a.names))
    final = [1 if q in a.finals else 0 for q in reachable]
    block = final
    count = len(set(block))
    # Each round numbers the blocks in the order of their least members;
    # names sort like their indices.
    while True:
        signatures: dict[tuple[int, ...], int] = {}
        sigs = zip(block, *[map(block.__getitem__, col) for col in cols])
        block = [signatures.setdefault(sig, len(signatures)) for sig in sigs]
        if len(signatures) == count:
            break
        count = len(signatures)
    least: dict[int, int] = {}
    for i, b in enumerate(block):
        least.setdefault(b, i)
    successors = [block[col[i]] for i in least.values() for col in cols]
    accepting = [b for b, i in least.items() if final[i]]
    names = [a.names[reachable[i]] for i in least.values()]
    m = dfa_from_successors(names, a.alphabet, successors, block[start], accepting)
    m.__dict__["_minimal"] = None
    return m


def complete_with_sink(a: Automaton) -> Automaton:
    """Route every missing transition to a fresh non-accepting sink state,
    named `sink` with primes appended until no state has that name.

    Already-complete automata are returned unchanged.
    """
    if a.complete and a.names:
        return a
    sink = "sink"
    while sink in a.names:
        sink += "'"
    s = bisect_left(a.names, sink)
    shift = [q + (q >= s) for q in range(len(a.names))]
    rows = [tuple(tuple(shift[q] for q in dsts) or (s,) for dsts in row) for row in a.rows]
    rows.insert(s, ((s,),) * len(a.alphabet))
    return Automaton(
        a.names[:s] + (sink,) + a.names[s:], a.alphabet, tuple(rows),
        frozenset(shift[q] for q in a.starts), frozenset(shift[q] for q in a.finals),
    )


# The moves of each state to other states, as (letter index, target)
# pairs; the letter indices of its self-loops; and the states in an order
# in which every move goes forward.
PartialOrder = tuple[list[list[tuple[int, int]]], list[list[int]], list[int]]


def partial_order(a: Automaton) -> PartialOrder:
    """Split each state's transitions into moves and self-loop letters in
    one pass over the rows, then order the states by Kahn's algorithm.

    Raises CyclicAutomatonError on a cycle through distinct states, whose
    states the order cannot reach: `depth` and the UMS check of `pt` are
    defined on partially ordered automata only.
    """
    moves: list[list[tuple[int, int]]] = []
    loops: list[list[int]] = []
    indegree = [0] * len(a.rows)
    for q, row in enumerate(a.rows):
        out = []
        own = []
        # A counter, not enumerate, numbers the letters: this loop runs once
        # per transition of every PT, UMS and depth question.
        j = 0
        for dsts in row:
            for r in dsts:
                if r == q:
                    own.append(j)
                else:
                    out.append((j, r))
                    indegree[r] += 1
            j += 1
        moves.append(out)
        loops.append(own)
    order = [q for q, d in enumerate(indegree) if not d]
    for q in order:
        for _, r in moves[q]:
            indegree[r] -= 1
            if not indegree[r]:
                order.append(r)
    if len(order) < len(moves):
        raise CyclicAutomatonError("depth is undefined on cyclic automata")
    return moves, loops, order


def depth(a: Automaton) -> int:
    """Number of transitions on the longest path, self-loops ignored: the
    `longest_path` of a partially ordered automaton's `partial_order`."""
    return longest_path(partial_order(a))


def longest_path(po: PartialOrder) -> int:
    """The depth of an automaton from its partial order `po`: the longest
    simple path is the longest path over the moves, folded over the order
    from the last state back.  A state's longest path is one move longer
    than the longest from any target of its moves.
    """
    moves, _, order = po
    longest = [0] * len(order)
    for q in reversed(order):
        for _, r in moves[q]:
            if longest[r] >= longest[q]:
                longest[q] = longest[r] + 1
    return max(longest, default=0)


StateMap = tuple[int, ...]


@dataclass(frozen=True)
class TransitionMonoid:
    """Closure of the letter-induced state maps under composition.

    Elements are total maps on the states of a deterministic complete
    automaton, encoded as tuples of state indices in name order; `identity`
    is the map that fixes every state.
    """

    elements: frozenset[StateMap]
    identity: StateMap

    @staticmethod
    def compose(first: StateMap, second: StateMap) -> StateMap:
        """The map 'apply first, then second'."""
        return tuple(second[x] for x in first)


def transition_monoid(
    a: Automaton, budget: int = DEFAULT_MONOID_BUDGET
) -> TransitionMonoid:
    """Generate the transition monoid of a deterministic complete automaton."""
    generators = list(map(tuple, dfa_columns(a)))
    identity = tuple(range(len(a.names)))
    elements = {identity}
    queue = deque([identity])
    while queue:
        m = queue.popleft()
        for g in generators:
            composed = TransitionMonoid.compose(m, g)
            if composed not in elements:
                if len(elements) >= budget:
                    raise BudgetExceededError(budget, len(elements) + 1, "monoid elements")
                elements.add(composed)
                queue.append(composed)
    return TransitionMonoid(frozenset(elements), identity)


def check_identity(
    m: TransitionMonoid,
    identities: Sequence[tuple[str, str]],
    budget: int = DEFAULT_MONOID_BUDGET,
) -> Optional[dict[str, StateMap]]:
    """Check identities such as ``xy = yx`` over all assignments of elements.

    Each identity is a pair (lhs, rhs) of words over single-character
    variable names.  An identity in v variables needs max(size^2, size^v)
    of the budget, for the size x size composition table its words are read
    through and for its assignments; the first identity over budget raises
    before any table is built.  Returns None when every identity holds,
    otherwise a violating assignment of the first one that fails.
    """
    size = len(m.elements)
    for lhs, rhs in identities:
        needed = max(size * size, size ** len(set(lhs + rhs)))
        if needed > budget:
            raise BudgetExceededError(budget, needed, "assignments")
    pool = sorted(m.elements)
    index = {e: i for i, e in enumerate(pool)}
    table = [[index[TransitionMonoid.compose(e, f)] for f in pool] for e in pool]
    identity = index[m.identity]
    for lhs, rhs in identities:
        variables = sorted(set(lhs + rhs))
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
