"""Subsequence embedding, sub_k sets and Simon's k-equivalence of words.

Words are tuples of letter names.  Two words are k-equivalent when they have
the same scattered subwords of length at most k, their sub_k set.  The class
search (class_edges, canonical_automaton) stores a ~_k class as one integer
bit set, a ClassKey, with one bit per word of length at most k, so a class
whose longest member has length L spans n^0 + ... + n^L bits over n letters;
decode_class turns it back into its set of words, the one set form left,
which class_pieces reads.  The test of two given words (k_equivalent)
builds no such set and compares the words' suffixes instead.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Iterator

from ptlang.automata import (
    Automaton,
    BudgetExceededError,
    InputError,
    Word,
    dfa_from_successors,
)

DEFAULT_CLASS_BUDGET = 2 * 10**6

# A ~_k class over an alphabet of n letters: the sub_k set its words share,
# as an int with bit b set iff word number b is a member.  Words are
# numbered in blocks by length: block L starts at bit n^0 + ... + n^(L-1)
# and holds n^L bits, and inside it the word x_0 ... x_(L-1), with x_i the
# number of its i-th letter in alphabet order, is bit x_0 + x_1 n + ... +
# x_(L-1) n^(L-1).  A class always holds the empty word (bit 0) and every
# subword of a member; other modules only hash and compare it.
ClassKey = int
EPSILON_CLASS: ClassKey = 1


def embeds(v: Word, w: Word) -> bool:
    """True iff v is a scattered subword (subsequence) of w."""
    it = iter(w)
    return all(letter in it for letter in v)


def class_pieces(
    members: frozenset[Word], alphabet: tuple[str, ...], k: int
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


class ClassGrower:
    """Appends letters to ~_k classes over an alphabet of n letters.

    Appending letter number i to a word of length L < k moves its bit from
    index x in block L to index x + i n^L in block L + 1.  So the class of
    w + (letter i,) is the class of w OR, for each L < k, block L of that
    class shifted into block L + 1: k masked shifts, all read from the class
    before the letter is added (shifting the running value would add words
    two letters longer).  The table of shifts grows lazily up to the
    longest member met so far, so a huge k never forms n^k.
    """

    def __init__(self, n: int, k: int):
        self._n = n
        self._k = k
        # _steps[i][L] = (offset of block L, its mask, shift for letter i)
        # for the blocks built so far; _limit is the offset of the first
        # block not built, or infinity once all k are built.
        self._steps: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        self._limit = 0 if k else math.inf

    def _build_to(self, bits: int) -> None:
        """Build the blocks below k that hold bits of a class `bits` long."""
        while self._limit < bits:
            length = len(self._steps[0])
            offset, size = self._limit, self._n**length
            mask = (1 << size) - 1
            for i, steps in enumerate(self._steps):
                steps.append((offset, mask, offset + (i + 1) * size))
            self._limit = offset + size if length + 1 < self._k else math.inf

    def grow(self, members: ClassKey, i: int) -> ClassKey:
        """The class of w + (letter i,), given the class `members` of w."""
        bits = members.bit_length()
        if bits > self._limit:
            self._build_to(bits)
        grown = members
        for offset, mask, shift in self._steps[i]:
            if offset >= bits:
                break
            grown |= ((members >> offset) & mask) << shift
        return grown


def decode_class(members: ClassKey, alphabet: tuple[str, ...]) -> frozenset[Word]:
    """The words of a ~_k class over `alphabet`, as a set."""
    n = len(alphabet)
    words = []
    offset, size, length = 0, 1, 0
    while offset < members.bit_length():
        block = (members >> offset) & ((1 << size) - 1)
        for index, bit in enumerate(bin(block)[:1:-1]):
            if bit == "1":
                word = []
                for _ in range(length):
                    index, letter = divmod(index, n)
                    word.append(alphabet[letter])
                words.append(tuple(word))
        offset, size, length = offset + size, size * n, length + 1
    return frozenset(words)


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
    grow = ClassGrower(len(alphabet), k).grow
    letters = tuple(enumerate(alphabet))
    seen = {EPSILON_CLASS}
    queue = deque([EPSILON_CLASS])
    while queue:
        members = queue.popleft()
        for i, a in letters:
            nxt = grow(members, i)
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
    if len(set(letters)) != len(letters):
        raise InputError("duplicate letters in alphabet")
    # Edges come class by class in discovery order, letters in alphabet order.
    index = {EPSILON_CLASS: 0}
    successors: list[int] = []
    for _members, _a, nxt, first_visit in class_edges(letters, k, budget):
        if first_visit:
            index[nxt] = len(index)
        successors.append(index[nxt])
    count = len(index)
    del index  # free the classes before the states are built
    return dfa_from_successors([f"c{i}" for i in range(count)], letters, successors, 0, ())

