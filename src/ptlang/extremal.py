"""Extremal automata and words witnessing the depth bounds.

The families generated here realize the exponential gap between the minimal
k and the depth of the minimal DFA, and the tight binomial bound on the
depth of minimal DFAs of k-PT languages over n letters.
"""

from __future__ import annotations

import dataclasses
import math

from ptlang.automata import Automaton, InputError, Word, make_automaton
from ptlang.subwords import DEFAULT_CLASS_BUDGET, canonical_automaton

# The longest word gen_wk and gen_wkn build, and the most transitions gen_ak
# builds; more would exhaust memory.
MAX_WORD_LENGTH = 2**21

# The most decimal digits of a result of pkn.  It stays below Python's
# default limit of 4300 digits for printing an int.
MAX_PKN_DIGITS = 4000


def gen_ak(k: int) -> Automaton:
    """The depth-k NFA whose language is (k+1)-PT but not k-PT, while its
    minimal DFA has depth 2^(k+1) - 1.

    States 0..k are all initial, 0 accepts; state i self-loops under a_j for
    j < i and falls to every smaller state under a_i.
    """
    if k < 0:
        raise InputError("k must be non-negative")
    if k * (k + 1) > MAX_WORD_LENGTH:  # 2i transitions leave state i
        raise InputError(f"A_{k} would have more than {MAX_WORD_LENGTH} transitions")
    states = [str(i) for i in range(k + 1)]
    alphabet = [f"a{i}" for i in range(k + 1)]
    triples = []
    for i in range(k + 1):
        for j in range(i):
            triples.append((str(i), f"a{j}", str(i)))
        for j in range(i):
            triples.append((str(i), f"a{i}", str(j)))
    return make_automaton(states, alphabet, triples, states, ["0"])


def gen_wk(k: int) -> Word:
    """The word w_k with w_0 = a0 and w_l = w_{l-1} a_l w_{l-1}; its even
    prefixes are accepted by gen_ak(k) and its odd prefixes are not."""
    if k < 0:
        raise InputError("k must be non-negative")
    if 2 ** min(k + 1, 64) - 1 > MAX_WORD_LENGTH:  # |w_k| = 2^(k+1) - 1
        raise InputError(f"w_{k} would have more than {MAX_WORD_LENGTH} letters")
    word: Word = ("a0",)
    for level in range(1, k + 1):
        word = word + (f"a{level}",) + word
    return word


def pkn(k: int, n: int) -> int:
    """P(k, n) = C(k+n, k) - 1: the tight depth bound for k-PT languages
    over n letters."""
    if k < 1 or n < 1:
        raise InputError("k and n must be positive")
    if _log10_binomial(k + n, k) >= MAX_PKN_DIGITS:
        raise InputError(f"P({k}, {n}) has more than {MAX_PKN_DIGITS} digits")
    return math.comb(k + n, k) - 1


def _log10_binomial(m: int, j: int) -> float:
    """log10 C(m, j) for 0 <= j <= m, estimated without forming C(m, j);
    infinity when C(m, j) >= 2^min(j, m - j) already has too many digits."""
    j = min(j, m - j)
    if j > 4 * MAX_PKN_DIGITS:  # 2^j > 10^MAX_PKN_DIGITS
        return math.inf
    return sum(math.log10(m - i) for i in range(j)) - math.lgamma(j + 1) / math.log(10)


def gen_wkn(k: int, n: int) -> Word:
    """The length-P(k,n) word over a1..an whose sub_k set is full and whose
    prefixes have pairwise distinct sub_k sets.

    W(0,m) = epsilon, W(j,1) = a1^j and W(j,m) = W(j,m-1) a_m W(j-1,m), built
    one letter at a time: row j holds W(j,m) for the letters seen so far.
    """
    if k < 1 or n < 1:
        raise InputError("k and n must be positive")
    size = 1
    for j in range(1, min(k, n) + 1):  # size = C(k+n, j) grows up to P(k, n) + 1
        size = size * (k + n + 1 - j) // j
        if size - 1 > MAX_WORD_LENGTH:
            raise InputError(f"W({k},{n}) would have more than {MAX_WORD_LENGTH} letters")
    if n == 1:
        return ("a1",) * k
    row = [["a1"] * j for j in range(k + 1)]
    for m in range(2, n):
        for j in range(1, k + 1):
            row[j].append(f"a{m}")
            row[j].extend(row[j - 1])
    # The last row W(1..k,n) would hold far more letters than W(k,n), so only
    # the running word is built: W(k,n-1) a_n W(k-1,n-1) a_n ... W(1,n-1) a_n.
    word: list[str] = []
    for _ in range(k):
        word += row.pop()
        word.append(f"a{n}")
    return tuple(word)


def gen_tight_depth_dfa(
    k: int, n: int, budget: int = DEFAULT_CLASS_BUDGET
) -> Automaton:
    """The ~_k-canonical DFA over a1..an accepting the classes of the
    even-length prefixes of gen_wkn(k, n); its minimization has depth
    exactly pkn(k, n)."""
    word = gen_wkn(k, n)
    alphabet = tuple(f"a{i}" for i in range(1, n + 1))
    automaton = canonical_automaton(alphabet, k, budget)
    (state,) = automaton.starts
    accepting = {state}
    for length, letter in enumerate(word, start=1):
        (state,) = automaton.rows[state][alphabet.index(letter)]
        if length % 2 == 0:
            accepting.add(state)
    return dataclasses.replace(automaton, finals=frozenset(accepting))


def gen_intersection_nfa(alphabet: tuple[str, ...]) -> Automaton:
    """The 2^n-state automaton for "contains every letter": states are the
    letter sets seen so far.  Its language is 1-PT, yet no NFA for it is
    smaller."""
    letters = tuple(alphabet)
    if not letters:
        raise InputError("alphabet must be nonempty")
    if len(letters) > 20:
        raise InputError("alphabet too large for the powerset construction")

    # names[m] names the subset whose letters, in sorted order, are the set
    # bits of m: each letter appends itself to the names of the subsets of
    # the letters before it.
    ordered = sorted(letters)
    members = [""]
    for x in ordered:
        members += [m + "," + x for m in members]
    names = ["{" + m[1:] + "}" for m in members]
    bits = {x: 1 << i for i, x in enumerate(ordered)}
    triples = [(names[m], x, names[m | bits[x]]) for m in range(len(names)) for x in letters]
    return make_automaton(names, letters, triples, [names[0]], [names[-1]])
