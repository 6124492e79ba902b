"""Deciding plain piecewise testability.

A minimal complete DFA recognizes a PT language iff it is partially ordered
and each state is the unique maximal state of its component in the graph
restricted to its self-loop letters (the UMS property).  Being partially
ordered and locally confluent is an equivalent condition; the tests check
the UMS decision against a word search for it.  The UMS form also yields a
sound certificate on complete partially ordered NFAs, with no
determinization; `is_pt` gives an incomplete NFA a sink before it tries the
certificate, and determinizes only when the certificate fails.

`find_ums_violation` checks every state at once, in one pass per window of
4,096 state indices over the states in reverse topological order.  Per
window it costs O(moves) big-integer operations on integers of at most
4,096 bits, so its bit sets take at most n * 512 bytes for n states.  Its
moves, self-loop letters and order come from `automata.partial_order`, the
pass `depth` folds over too, which raises CyclicAutomatonError on a cycle
through distinct states.  An automaton has the UMS property iff
`find_ums_violation` returns None.  `pt_partial_order` runs that check on
`a.minimal`, once per minimal DFA, and keeps the partial order it returns
for a PT language, so that `kpt` folds over the same pass;
`is_pt_min_dfa` asks whether it returns one.  `certify_pt_nfa` runs the
same check on the NFA itself.
"""

from __future__ import annotations

from typing import Optional

from ptlang.automata import (
    Automaton,
    CyclicAutomatonError,
    PartialOrder,
    complete_with_sink,
    partial_order,
)


# States per pass of `find_ums_violation`: its bit sets hold at most this
# many bits, so they take at most n * 512 bytes for n states.
UMS_WINDOW = 4096


def find_ums_violation(a: Automaton) -> Optional[tuple[str, str]]:
    """A pair (p, q) of distinct maximal states sharing p's self-loop component.

    Raises CyclicAutomatonError unless `a` is partially ordered.  For each
    state p the graph is restricted to the letters with a self-loop at p;
    within the weakly connected component of p, a state is maximal when it
    has no outgoing edge to a different state.  Returns None when every p is the unique
    maximal state of its component; otherwise p is the least violating
    state and q the least other maximal state of p's component.
    """
    return _ums_violation(a, partial_order(a))


def _ums_violation(a: Automaton, po: PartialOrder) -> Optional[tuple[str, str]]:
    """`find_ums_violation` on the partial order `po` of `a`, which it
    leaves as it is."""
    n = len(a.rows)
    moves, loops, order = po
    # Per window of UMS_WINDOW states, per letter, the bit set of the
    # window's states that loop on it.
    windows = [[0] * len(a.alphabet) for _ in range(0, n, UMS_WINDOW)]
    for q, own in enumerate(loops):
        window, bit = windows[q // UMS_WINDOW], 1 << q % UMS_WINDOW
        for j in own:
            window[j] |= bit
    order = order[::-1]  # successors first, in a copy: `po` stays as it is
    visit = order
    if len(windows) > 1:
        # Bit w of hits[q]: q reaches a state of window w, which a pass over
        # window w must then visit.
        hits = [0] * n
        for q in order:
            h = 1 << q // UMS_WINDOW
            for _, r in moves[q]:
                h |= hits[r]
            hits[q] = h
    # One pass per window, successors first.  reach[q] holds the window's
    # states p that q reaches by moves on p's self-loop letters; p breaks
    # UMS iff some move q -x-> r has p in reach[q], an x-loop at p, and p
    # not in reach[r].  `miss` collects, over q's moves, the looping states
    # that the move's target does not reach.
    for w, window in enumerate(windows):
        lo = w * UMS_WINDOW
        if len(windows) > 1:
            visit = [q for q in order if hits[q] >> w & 1]
        reach = [0] * n
        bad = 0
        for q in visit:
            here = 1 << (q - lo) if lo <= q < lo + UMS_WINDOW else 0
            miss = 0
            for j, r in moves[q]:
                x = window[j]
                t = x & reach[r]
                here |= t
                miss |= x ^ t
            bad |= here & miss
            reach[q] = here
        if bad:
            p = lo + (bad & -bad).bit_length() - 1
            return a.names[p], a.names[_other_maximal(moves, set(loops[p]), p)]
    return None


def _other_maximal(moves: list[list[tuple[int, int]]], gamma: set[int], p: int) -> int:
    """The least maximal state other than p in p's self-loop component,
    gamma the indices of p's self-loop letters."""
    links: list[list[int]] = [[] for _ in moves]
    stuck = [True] * len(moves)
    for q, out in enumerate(moves):
        for j, r in out:
            if j in gamma:
                links[q].append(r)
                links[r].append(q)
                stuck[q] = False
    component = [p]
    seen = {p}
    for q in component:
        for r in links[q]:
            if r not in seen:
                seen.add(r)
                component.append(r)
    return min(q for q in component if stuck[q] and q != p)


def _pt_order(a: Automaton) -> Optional[PartialOrder]:
    """The partial order of `a`, as `automata.partial_order` gives it, when
    `a` is partially ordered with the UMS property; None otherwise."""
    try:
        po = partial_order(a)
    except CyclicAutomatonError:
        return None
    return po if _ums_violation(a, po) is None else None


def pt_partial_order(a: Automaton) -> Optional[PartialOrder]:
    """The partial order of `a.minimal` when the language of `a` is
    piecewise testable; None otherwise.  Each minimal DFA computes it once
    and keeps it, so callers share it and must leave it as it is."""
    m = a.minimal
    if "_pt_order" not in m.__dict__:
        m.__dict__["_pt_order"] = _pt_order(m)
    return m.__dict__["_pt_order"]


def is_pt_min_dfa(a: Automaton) -> bool:
    """Piecewise testability of the language of `a`, decided on its minimal
    DFA: partially ordered, with the UMS property."""
    return pt_partial_order(a) is not None


def certify_pt_nfa(a: Automaton) -> bool:
    """Sound PT certificate for NFAs, with no determinization.

    True means the language is certainly PT: the NFA itself is complete,
    partially ordered and has the UMS property, the test that decides PT on
    a minimal DFA and is sound on complete NFAs.  False is inconclusive;
    callers fall back to the minimal DFA.
    """
    return bool(a.names) and a.complete and _pt_order(a) is not None


def is_pt(a: Automaton) -> bool:
    """Piecewise testability of the language of an arbitrary NFA.

    An incomplete NFA gets a non-accepting sink first (`complete_with_sink`,
    which keeps its language), so the certificate answers for every ptNFA
    with no determinization; otherwise the minimal DFA decides."""
    return certify_pt_nfa(complete_with_sink(a)) or is_pt_min_dfa(a)
