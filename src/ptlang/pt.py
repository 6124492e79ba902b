"""Deciding plain piecewise testability.

A minimal complete DFA recognizes a PT language iff it is partially ordered
and each state is the unique maximal state of its component in the graph
restricted to its self-loop letters (the UMS property).  Being partially
ordered and locally confluent is an equivalent condition; the tests check
the UMS decision against a word search for it.  The UMS form also yields a
sound certificate on complete partially ordered NFAs, with no
determinization.
"""

from __future__ import annotations

from typing import Optional

from ptlang.automata import (
    Automaton,
    ContractError,
    determinize,
    is_partially_ordered,
    minimize,
)


def find_ums_violation(a: Automaton) -> Optional[tuple[str, str]]:
    """A pair (p, q) of distinct maximal states sharing p's self-loop component.

    Requires a partially ordered automaton.  For each state p the graph is
    restricted to the letters with a self-loop at p; within the weakly
    connected component of p, a state is maximal when it has no outgoing
    edge to a different state.  Returns None when every p is the unique
    maximal state of its component.
    """
    if not is_partially_ordered(a):
        raise ContractError("the UMS property is defined on partially ordered automata")
    # Letter bit sets per state: its self-loops and its moves to other
    # states; and the edges between distinct states, listed once in both
    # directions for the components, each labelled with its letters.
    loops = [0] * len(a.rows)
    moves = [0] * len(a.rows)
    both: list[dict[int, int]] = [{} for _ in a.rows]
    for src, row in enumerate(a.rows):
        for j, dsts in enumerate(row):
            bit = 1 << j
            for dst in dsts:
                if dst == src:
                    loops[src] |= bit
                else:
                    moves[src] |= bit
                    both[src][dst] = both[src].get(dst, 0) | bit
                    both[dst][src] = both[dst].get(src, 0) | bit
    for p in range(len(a.rows)):
        gamma = loops[p]
        component = [p]
        seen = {p}
        maximal = []
        for q in component:
            for r, letters in both[q].items():
                if letters & gamma and r not in seen:
                    seen.add(r)
                    component.append(r)
            if not moves[q] & gamma:
                maximal.append(q)
        if maximal != [p]:
            # indices sort like names
            return (a.names[p], a.names[min(q for q in maximal if q != p)])
    return None


def satisfies_ums(a: Automaton) -> bool:
    return find_ums_violation(a) is None


def is_pt_min_dfa(a: Automaton) -> bool:
    """Piecewise testability of the language of a minimal complete DFA:
    partially ordered, with the UMS property."""
    try:
        return find_ums_violation(a) is None
    except ContractError:  # not partially ordered
        return False


def certify_pt_nfa(a: Automaton) -> bool:
    """Sound PT certificate for NFAs, with no determinization.

    True means the language is certainly PT: the NFA is complete and passes
    the test of `is_pt_min_dfa`, which is sound on complete NFAs.  False is
    inconclusive; callers fall back to the minimal-DFA check.
    """
    return bool(a.names) and a.complete and is_pt_min_dfa(a)


def is_pt(a: Automaton) -> bool:
    """Piecewise testability of the language of an arbitrary NFA."""
    if certify_pt_nfa(a):
        return True
    return is_pt_min_dfa(minimize(determinize(a)))
