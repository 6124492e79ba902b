"""Subsequence embedding, sub_k sets and Simon's k-equivalence of words.

Words are tuples of letter names.  Two words are k-equivalent when they have
the same scattered subwords of length at most k, their sub_k set.  The class
search (ClassSearch, which canonical_automaton and the k-PT oracle run)
stores a ~_k class as one integer bit set, a ClassKey, with one bit per word
of length at most k, so a class whose longest member has length L spans
n^0 + ... + n^L bits over n letters; decode_class turns it back into its
set of words, the one set form left, which class_pieces reads.  The test of
two given words (k_equivalent) builds no such set and compares the words'
suffixes instead.

The search is breadth-first and runs a chunk at a time: it takes up to
CHUNK classes found but not yet expanded, forms all their successors in one
list pass for the two shortest blocks of the bit set and one more for each
longer block, numbers them in one pass over a dict, and hands its caller
the chunk's row of successor numbers.  No generator step or method call
runs per edge: canonical_automaton over 5 letters at k = 2 (52,132
classes, 260,660 edges) takes 0.06 s.  A search of a few classes pays a
fixed cost per breadth-first level instead.  A budget is checked once
per chunk, so a search forms at most CHUNK * n classes past it; the rows
handed out stop just before the edge that found class budget + 1, as a
search one edge at a time would.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import chain, count, cycle, islice
from typing import Iterable, Iterator

from ptlang.automata import (
    Automaton,
    BudgetExceededError,
    InputError,
    Word,
    dfa_from_successors,
)

DEFAULT_CLASS_BUDGET = 2 * 10**6
# Classes expanded per step of the class search: large enough that the
# list passes outweigh each step's fixed cost, small enough to bound the
# work past a budget.
CHUNK = 1024

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


class ClassSearch:
    """Breadth-first search over the ~_k classes reachable from [epsilon]
    over an alphabet of n letters, a chunk of classes at a time.

    Appending letter number i to a word of length L < k moves its bit from
    index x in block L to index x + i n^L in block L + 1.  So the class of
    w + (letter i,) is the class of w OR, for each L < k, block L of that
    class shifted into block L + 1: k masked shifts, all read from the class
    before the letter is added (shifting the running value would add words
    two letters longer).  The table of blocks grows lazily up to the
    longest member met so far, so a huge k never forms n^k.

    `rows` runs the search once: it numbers the classes 0, 1, ... in
    discovery order and keeps them in `classes`.  Each step takes the next
    CHUNK classes found but not yet expanded, forms all their successors
    (`successors`) and numbers them with one pass over a dict.
    """

    def __init__(self, n: int, k: int, budget: int = DEFAULT_CLASS_BUDGET):
        if k < 0:
            raise InputError("k must be non-negative")
        self._n = n
        self._k = k
        self._budget = budget
        self.classes: list[ClassKey] = [EPSILON_CLASS]
        # Block 0 holds the empty word, a member of every class, so letter i
        # always moves it to bit 1 + i.
        self._letter_bits = [2 << i if k else 0 for i in range(n)]
        # _blocks[L - 1] = (offset of block L, its mask, the shift of its
        # bits for each letter) for the blocks L >= 1 built so far; _limit
        # is the offset of the first block not built, or infinity once all
        # k are built.
        self._blocks: list[tuple[int, int, range]] = []
        self._limit = 1 if k > 1 else math.inf

    def _build_to(self, bits: int) -> None:
        """Build the blocks below k that hold bits of a class `bits` long."""
        while self._limit < bits:
            length = len(self._blocks) + 1
            offset, size = self._limit, self._n**length
            shifts = range(offset + size, offset + (self._n + 1) * size, size)
            self._blocks.append((offset, (1 << size) - 1, shifts))
            self._limit = offset + size if length + 1 < self._k else math.inf

    def successors(self, chunk: list[ClassKey]) -> list[ClassKey]:
        """The class of w + (a,) for each class of w in `chunk` and each
        letter a: class by class, letters in alphabet order.  One list pass
        moves blocks 0 and 1 and one more pass moves each longer block."""
        bits = max(chunk).bit_length()
        if bits > self._limit:
            self._build_to(bits)
        if not self._blocks:
            return [members | bit for members in chunk for bit in self._letter_bits]
        _, mask, shifts = self._blocks[0]
        moves = list(zip(self._letter_bits, shifts))
        grown = [
            members | bit | part << shift
            for members in chunk
            for part in ((members >> 1) & mask,)
            for bit, shift in moves
        ]
        for offset, mask, shifts in self._blocks[1:]:
            # Each class's block, once per letter.
            parts = chain.from_iterable(zip(*[[(members >> offset) & mask for members in chunk]] * self._n))
            grown = [g | part << shift for g, part, shift in zip(grown, parts, cycle(shifts))]
        return grown

    def rows(self) -> Iterator[list[int]]:
        """Yield, for each chunk in turn, the numbers of the successors of
        its classes, class by class and letters in alphabet order.  A chunk
        that discovers class budget + 1 yields its row cut just before that
        edge, then raises BudgetExceededError; it forms at most CHUNK * n
        classes past the budget."""
        if not self._n:
            return  # no letters, no edges
        classes, successors = self.classes, self.successors
        # number[c] is the number of class c, handed out on first lookup.
        number: defaultdict[ClassKey, int] = defaultdict(count().__next__)
        number[EPSILON_CLASS]
        lookup = number.__getitem__
        # [epsilon] needs no edge, so the first class a budget can refuse
        # is class 1.
        limit = max(self._budget, 1)
        done = 0
        while done < len(classes):
            chunk = classes[done : done + CHUNK]
            done += len(chunk)
            known = len(number)
            row = list(map(lookup, successors(chunk)))
            found = len(number) - known
            if found:
                # The new classes are the last keys of `number`, in order.
                new = list(islice(reversed(number), found))
                new.reverse()
                classes += new
                if known + found > limit:
                    yield row[: row.index(limit)]
                    raise BudgetExceededError(self._budget, limit + 1, "classes")
            yield row


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
    search = ClassSearch(len(letters), k, budget)
    successors: list[int] = []
    for row in search.rows():
        successors += row
    names = [f"c{i}" for i in range(len(search.classes))]
    del search  # free the classes before the states are built
    return dfa_from_successors(names, letters, successors, 0, ())

