"""Subsequence embedding, sub_k sets and Simon's k-equivalence of words.

Words are tuples of letter names.  Two words are k-equivalent when they have
the same scattered subwords of length at most k, their sub_k set.  A ~_k
class is that set itself, a plain frozenset of words closed under taking
subwords: the class search, reduce_word and class_pieces all work on it.
The test of two given words (k_equivalent) builds no such set and compares
the words' suffixes instead.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from ptlang.automata import (
    Automaton,
    BudgetExceededError,
    InputError,
    Word,
    dfa_from_rows,
)

DEFAULT_CLASS_BUDGET = 2 * 10**6

# A ~_k class: the sub_k set its words share.  It always holds the empty
# word and every subword of a member; other modules only hash it.
ClassKey = frozenset[Word]
EPSILON_CLASS: ClassKey = frozenset({()})


def embeds(v: Word, w: Word) -> bool:
    """True iff v is a scattered subword (subsequence) of w."""
    it = iter(w)
    return all(letter in it for letter in v)


def class_pieces(
    members: ClassKey, alphabet: tuple[str, ...], k: int
) -> tuple[frozenset[Word], frozenset[Word]]:
    """The pieces that pin down a ~_k class among words over `alphabet`: its
    maximal members, which every word of the class contains, and its minimal
    missing words (every single-letter deletion is a member), which none does.

    Since the members are closed under taking subwords, a member is maximal
    when no one-letter insertion of it is a member, and a minimal missing
    word extends a member shorter than k by one letter.
    """
    maximal = frozenset(
        w for w in members
        if w and not any(w[:i] + (a,) + w[i:] in members for i in range(len(w) + 1) for a in alphabet)
    )
    missing = frozenset(
        v for v in {m + (a,) for m in members if len(m) < k for a in alphabet}
        if v not in members and all(v[:i] + v[i + 1 :] in members for i in range(len(v)))
    )
    return maximal, missing


def _grow(members: ClassKey, a: str, k: int) -> ClassKey:
    return members | {u + (a,) for u in members if len(u) < k}


def subwords_up_to_k(w: Word, k: int) -> ClassKey:
    """sub_k(w): all subsequences of w of length at most k."""
    if k < 0:
        raise InputError("k must be non-negative")
    members = EPSILON_CLASS
    for a in w:
        members = _grow(members, a, k)
    return members


def k_equivalent(w1: Word, w2: Word, k: int) -> bool:
    """Simon's congruence: sub_k(w1) == sub_k(w2), tested on suffix pairs.

    By leftmost embedding (Simon 1975),
    sub_m(w[i:]) = {epsilon} | U_{a in alph(w[i:])} a . sub_{m-1}(w[next(i, a):]),
    where next(i, a) is one past the first a at or after position i.  So
    w1[i:] ~_m w2[j:] iff both suffixes have the same letters and, for each
    letter, the suffixes after its first occurrence are ~_{m-1}.  A
    breadth-first search from (0, 0) checks this for at most k levels.  A
    pair met again deeper down needs only a coarser equivalence than it was
    checked for, so each of the (|w1|+1)(|w2|+1) pairs is checked at most
    once: O(|w1| |w2| |alphabet|) time for any k, and no set that grows as
    |alphabet|^k.  The search stops once no new pair is left.
    """
    if k < 0:
        raise InputError("k must be non-negative")
    after1, after2 = _next_table(w1), _next_table(w2)
    seen = {(0, 0)}
    frontier = [(0, 0)]
    for _ in range(k):
        if not frontier:
            break
        successors = set()
        for i, j in frontier:
            first1, first2 = after1[i], after2[j]
            if first1.keys() != first2.keys():
                return False
            successors.update((p, first2[a]) for a, p in first1.items())
        frontier = successors - seen
        seen |= frontier
    return True


def _next_table(w: Word) -> list[dict[str, int]]:
    """Entry i maps each letter of w[i:] to one past its first position."""
    table = [{}]
    for i in range(len(w) - 1, -1, -1):
        table.append({**table[-1], w[i]: i + 1})
    table.reverse()
    return table


def class_edges(
    alphabet: tuple[str, ...], k: int, budget: int = DEFAULT_CLASS_BUDGET
) -> Iterator[tuple[ClassKey, str, ClassKey, bool]]:
    """Breadth-first search over the ~_k classes reachable from EPSILON_CLASS:
    yields (class, letter, successor, first_visit) per edge, classes in
    discovery order and letters in alphabet order.  Discovering class
    budget + 1 raises BudgetExceededError."""
    if k < 0:
        raise InputError("k must be non-negative")
    seen = {EPSILON_CLASS}
    queue = deque([EPSILON_CLASS])
    while queue:
        members = queue.popleft()
        for a in alphabet:
            nxt = _grow(members, a, k)
            first_visit = nxt not in seen
            if first_visit:
                if len(seen) >= budget:
                    raise BudgetExceededError(budget, len(seen) + 1, "classes")
                seen.add(nxt)
                queue.append(nxt)
            yield members, a, nxt, first_visit


def canonical_automaton(
    alphabet: Iterable[str], k: int, budget: int = DEFAULT_CLASS_BUDGET
) -> Automaton:
    """The ~_k-canonical DFA: one state per class reachable from [epsilon],
    named c0, c1, ... in discovery order.  The accepting set is left empty;
    callers attach their own."""
    letters = tuple(alphabet)
    if not letters:
        raise InputError("alphabet must be nonempty")
    # Edges come class by class in discovery order, letters in alphabet order.
    index = {EPSILON_CLASS: 0}
    successors: list[int] = []
    for _members, _a, nxt, first_visit in class_edges(letters, k, budget):
        if first_visit:
            index[nxt] = len(index)
        successors.append(index[nxt])
    rows = [successors[i : i + len(letters)] for i in range(0, len(successors), len(letters))]
    return dfa_from_rows([f"c{i}" for i in range(len(index))], letters, rows, 0, ())


def reduce_word(w: Word, k: int) -> Word:
    """Drop every letter that does not grow the sub_k set of the prefix.

    The result is k-equivalent to w and its prefixes have strictly growing
    sub_k sets, a chain of ~_k classes, so over n distinct letters its length
    is at most the paper's tight depth bound P(k, n) = C(k+n, k) - 1.
    """
    if k < 0:
        raise InputError("k must be non-negative")
    members = EPSILON_CLASS
    kept: list[str] = []
    for a in w:
        grown = _grow(members, a, k)
        if grown != members:
            kept.append(a)
            members = grown
    return tuple(kept)
