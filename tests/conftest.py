"""Shared helpers: brute-force oracles and random automaton corpora."""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import deque

from ptlang import Automaton, BudgetExceededError, determinize, is_pt_min_dfa, make_automaton, minimize
from ptlang.automata import dfa_from_successors, dfa_rows, require_complete_dfa
from ptlang.subwords import DEFAULT_CLASS_BUDGET, EPSILON_CLASS


def reference_determinize(a: Automaton) -> Automaton:
    """The subset construction with one frozenset per (subset, letter), as
    `determinize` once ran it: the reference its bit-set unions must match
    name for name and row for row."""
    start = a.starts
    index: dict[frozenset[int], int] = {start: 0}
    subsets = [start]
    successors: list[int] = []
    letters = range(len(a.alphabet))
    for current in subsets:
        rows = [a.rows[q] for q in current]
        for j in letters:
            nxt = frozenset(itertools.chain.from_iterable(row[j] for row in rows))
            if nxt not in index:
                index[nxt] = len(subsets)
                subsets.append(nxt)
            successors.append(index[nxt])
    # Indices sort like the names they stand for.
    members = [[a.names[q] for q in sorted(s)] for s in subsets]
    names = ["{" + ",".join(m) + "}" for m in members]
    if len(set(names)) < len(names):
        escape = str.maketrans({c: "\\" + c for c in "\\,{}"})
        names = ["{" + ",".join(q.translate(escape) for q in m) + "}" for m in members]
    accepting = [i for i, s in enumerate(subsets) if s & a.finals]
    return dfa_from_successors(names, a.alphabet, successors, 0, accepting)


def reference_minimize(a: Automaton) -> Automaton:
    """Moore refinement one state at a time over the full state range, as
    `minimize` once ran it: the reference its columns must match."""
    require_complete_dfa(a)
    rows = a.rows
    (start,) = a.starts
    reachable = sorted(a.reachable(a.starts))
    block = [1 if q in a.finals else 0 for q in range(len(rows))]
    while True:
        signatures: dict[tuple[int, ...], int] = {}
        new_block = block[:]
        for q in reachable:
            sig = (block[q], *(block[nxt] for (nxt,) in rows[q]))
            new_block[q] = signatures.setdefault(sig, len(signatures))
        if new_block == block:
            break
        block = new_block
    least: dict[int, int] = {}
    for q in reachable:
        least.setdefault(block[q], q)
    successors = [block[nxt] for q in least.values() for (nxt,) in rows[q]]
    accepting = [b for b, q in least.items() if q in a.finals]
    names = [a.names[q] for q in least.values()]
    return dfa_from_successors(names, a.alphabet, successors, block[start], accepting)


def reference_is_1pt(a: Automaton) -> bool:
    """1-PT of a minimal DFA one state at a time, as `is_1pt` once checked
    it: for every state p and letters x, y, p.x.x = p.x and p.x.y = p.y.x.
    The reference its column compositions must match."""
    rows = dfa_rows(a)
    return all(
        rows[px][x] == px and all(rows[px][y] == rows[py][x] for y, py in enumerate(row))
        for row in rows
        for x, px in enumerate(row)
    )


def reference_is_2pt(a: Automaton) -> bool:
    """2-PT of a minimal DFA one letter at a time, as `is_2pt` once checked
    it: PT, and for every letter x, every state s reached by a word that
    contains x and every letter b, s.x.x = s.x and s.b.x = s.x.b.x, over
    one search per letter.  The reference its partial-order fold must
    match."""
    rows = dfa_rows(a)
    if not is_pt_min_dfa(a):
        return False
    reachable = a.reachable(a.starts)
    for x in range(len(a.alphabet)):
        for s in a.reachable({rows[q][x] for q in reachable}):
            sx = rows[s][x]
            if rows[sx][x] != sx or any(
                rows[sb][x] != rows[sxb][x] for sb, sxb in zip(rows[s], rows[sx])
            ):
                return False
    return True


def reference_pkn_stirling(k: int, n: int) -> int:
    """P(k, n) through Stirling cycle numbers, as `pkn --stirling` once
    computed it: (1/k!) * sum_i [k+1, i+1] * n^i for i = 1..k.  The
    reference `pkn`'s binomial must match."""
    # Row k + 1 of the cycle numbers, built one row at a time from
    # [0, 0] = 1 by [m+1, j] = [m, j-1] + m [m, j].
    row = [1]
    for m in range(k + 1):
        row = [left + m * right for left, right in zip([0] + row, row + [0])]
    total = sum(row[i + 1] * n**i for i in range(1, k + 1))
    quotient, remainder = divmod(total, math.factorial(k))
    assert remainder == 0, "the Stirling sum is not divisible by k!"
    return quotient


def reference_class_edges(alphabet, k, budget=DEFAULT_CLASS_BUDGET):
    """Breadth-first search over the ~_k classes one edge at a time, as the
    class search once ran it: yields (class, letter, successor, first_visit)
    per edge, classes in discovery order and letters in alphabet order, and
    raises BudgetExceededError on discovering class budget + 1.  The
    reference the chunked search must match edge for edge."""
    n = len(alphabet)

    def grow(members, i):
        # block L of `members` (offset, n^L bits) shifted into block L + 1
        # at the place of letter i
        grown, offset, size = members, 0, 1
        for _ in range(k):
            if offset >= members.bit_length():
                break
            grown |= ((members >> offset) & ((1 << size) - 1)) << (offset + (i + 1) * size)
            offset, size = offset + size, size * n
        return grown

    seen = {EPSILON_CLASS}
    queue = deque([EPSILON_CLASS])
    while queue:
        members = queue.popleft()
        for i, a in enumerate(alphabet):
            nxt = grow(members, i)
            first_visit = nxt not in seen
            if first_visit:
                if len(seen) >= budget:
                    raise BudgetExceededError(budget, len(seen) + 1, "classes")
                seen.add(nxt)
                queue.append(nxt)
            yield members, a, nxt, first_visit


def brute_subwords(w, k):
    """All subsequences of length <= k by enumerating index subsets."""
    out = {()}
    for r in range(1, min(k, len(w)) + 1):
        for idx in itertools.combinations(range(len(w)), r):
            out.add(tuple(w[i] for i in idx))
    return frozenset(out)


def sub_k(w, k):
    """sub_k(w) grown one letter at a time: each letter extends every member
    shorter than k.  A set-based reference for the integer class search."""
    members = frozenset({()})
    for a in w:
        members = members | {u + (a,) for u in members if len(u) < k}
    return members


def all_words(alphabet, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def random_word(rng, alphabet, max_len):
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def languages_agree(a: Automaton, b: Automaton, words) -> bool:
    return all(a.accepts(w) == b.accepts(w) for w in words)


def dfa_walk(a: Automaton, q: str, w) -> str:
    """The state a complete DFA reaches from state `q` under `w`, read off
    the name-keyed `transitions` view rather than the integer rows."""
    for x in w:
        (q,) = a.transitions[q, x]
    return q


def brute_locally_confluent(a: Automaton, max_len=8) -> bool:
    """Word-search reference for local confluence of a complete DFA: for each
    state q and letters x, y, some word over {x, y} takes q.x and q.y to the
    same state.  With partial order, this is piecewise testability of a
    minimal DFA (Klima & Polak 2013), the condition the UMS test decides."""
    for q in a.states:
        for x in a.alphabet:
            for y in a.alphabet:
                p1, p2 = dfa_walk(a, q, (x,)), dfa_walk(a, q, (y,))
                if not any(
                    dfa_walk(a, p1, w) == dfa_walk(a, p2, w)
                    for w in all_words((x, y), max_len)
                ):
                    return False
    return True


def has_cycle_dfs(a: Automaton) -> bool:
    """Brute-force cycle detection (self-loops ignored), independent of the
    library's Kahn-style check."""
    adj = {q: set() for q in a.states}
    for (src, _), dsts in a.transitions.items():
        adj[src] |= dsts - {src}
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {q: WHITE for q in a.states}

    def visit(q):
        color[q] = GRAY
        for r in adj[q]:
            if color[r] == GRAY:
                return True
            if color[r] == WHITE and visit(r):
                return True
        color[q] = BLACK
        return False

    return any(color[q] == WHITE and visit(q) for q in sorted(a.states))


def reference_depth(a: Automaton) -> int:
    """Longest path through distinct states, self-loops ignored, by memoized
    recursion over the name-keyed transitions of a partially ordered
    automaton: the reference `depth`'s fold over Kahn's order must match."""
    succ = {q: set() for q in a.states}
    for (src, _), dsts in a.transitions.items():
        succ[src] |= dsts - {src}

    @functools.cache
    def longest(q):
        return max((1 + longest(r) for r in succ[q]), default=0)

    return max(map(longest, a.states), default=0)


def random_nfa(rng: random.Random, max_states=5, letters=("a", "b")) -> Automaton:
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    triples = []
    for q in states:
        for a in letters:
            for dst in rng.sample(states, rng.randint(0, n)):
                triples.append((q, a, dst))
    initials = rng.sample(states, rng.randint(1, n))
    accepting = rng.sample(states, rng.randint(0, n))
    return make_automaton(states, letters, triples, initials, accepting)


def random_complete_dfa(rng: random.Random, max_states=6, letters=("a", "b")) -> Automaton:
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    triples = [(q, a, rng.choice(states)) for q in states for a in letters]
    accepting = rng.sample(states, rng.randint(0, n))
    return make_automaton(states, letters, triples, [states[0]], accepting)


def all_complete_dfas(max_states=3, letters=("a", "b")):
    """Every complete DFA with states q0, q1, ... up to `max_states` over
    `letters`, started at q0: every successor table with every accepting
    set, minimal or not, all states reachable or not.  5,898 DFAs for the
    defaults."""
    for n in range(1, max_states + 1):
        names = [f"q{i}" for i in range(n)]
        for successors in itertools.product(range(n), repeat=n * len(letters)):
            for accepting in range(1 << n):
                finals = [q for q in range(n) if accepting >> q & 1]
                yield dfa_from_successors(names, letters, successors, 0, finals)


def random_acyclic_complete_dfa(rng: random.Random, max_states=6, letters=("a", "b")) -> Automaton:
    """Transitions never go backwards in the state order, so the result is
    partially ordered; these are the interesting candidates for PT tests."""
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    triples = [
        (states[i], a, states[rng.randint(i, n - 1)])
        for i in range(n)
        for a in letters
    ]
    accepting = rng.sample(states, rng.randint(0, n))
    return make_automaton(states, letters, triples, [states[0]], accepting)


def random_min_dfa(rng: random.Random, max_states=6, letters=("a", "b"), acyclic_bias=0.5) -> Automaton:
    if rng.random() < acyclic_bias:
        a = random_acyclic_complete_dfa(rng, max_states, letters)
    else:
        a = random_complete_dfa(rng, max_states, letters)
    return minimize(determinize(a))


def random_po_complete_nfa(rng: random.Random, max_states=5, letters=("a", "b")) -> Automaton:
    """Complete partially ordered NFA: every transition stays at or above the
    current state in a fixed order."""
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    triples = []
    for i in range(n):
        for a in letters:
            choices = states[i:]
            picked = rng.sample(choices, rng.randint(1, len(choices)))
            triples.extend((states[i], a, dst) for dst in picked)
    initials = rng.sample(states, rng.randint(1, n))
    accepting = rng.sample(states, rng.randint(0, n))
    return make_automaton(states, letters, triples, initials, accepting)


# Small hand-built DFAs used across modules.

def dfa_only_epsilon(letters=("a",)) -> Automaton:
    """Minimal complete DFA of the language {empty word}."""
    triples = [("i", a, "d") for a in letters] + [("d", a, "d") for a in letters]
    return make_automaton(["i", "d"], letters, triples, ["i"], ["i"])


def dfa_piece(word, letters) -> Automaton:
    """Minimal complete DFA of the piece language of `word` (all words with
    `word` as a subsequence)."""
    n = len(word)
    states = [f"s{i}" for i in range(n + 1)]
    triples = []
    for i in range(n):
        for a in letters:
            triples.append((states[i], a, states[i + 1] if a == word[i] else states[i]))
    triples += [(states[n], a, states[n]) for a in letters]
    return make_automaton(states, letters, triples, [states[0]], [states[n]])


def dfa_parity() -> Automaton:
    """Minimal DFA of (aa)*: the canonical non-partially-ordered example."""
    return make_automaton(
        ["even", "odd"], ["a"],
        [("even", "a", "odd"), ("odd", "a", "even")],
        ["even"], ["even"],
    )


def dfa_ab_star() -> Automaton:
    """Minimal complete DFA of (ab)*."""
    return make_automaton(
        ["e", "o", "d"], ["a", "b"],
        [("e", "a", "o"), ("e", "b", "d"), ("o", "b", "e"), ("o", "a", "d"),
         ("d", "a", "d"), ("d", "b", "d")],
        ["e"], ["e"],
    )
