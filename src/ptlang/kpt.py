"""k-piecewise testability: deciders, certificates and piece decompositions.

The specialized deciders for k = 0..2 run directly on the minimal DFA's
successor table; `is_3pt` checks three identities on its transition monoid,
which it generates only up to the MAX_3PT_MONOID = 15 elements that the
identities admit at the default budget.  The generic oracle pairs ~_k
classes with the states they reach and answers "no" with a two-word
certificate as soon as one class reaches two distinct states.  It reads
the class search (subwords.ClassSearch) a chunk of classes at a time: the
DFA successors of a chunk's edges come from one pass over the DFA rows,
each class keeps its state and first edge in plain lists indexed by class
number, and one list comparison checks the chunk's edges against the
states their classes already hold.  The certificate is the first edge, in
breadth-first order, that disagrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Optional, Union

from ptlang.automata import (
    Automaton,
    BudgetExceededError,
    ContractError,
    InputError,
    Word,
    check_identity,
    depth,
    determinize,
    dfa_columns,
    dfa_rows,
    minimize,
    require_complete_dfa,
    transition_monoid,
)
from ptlang.pt import is_pt_min_dfa
from ptlang.subwords import (
    DEFAULT_CLASS_BUDGET,
    ClassKey,
    ClassSearch,
    class_pieces,
    decode_class,
    embeds,
    k_equivalent,
)

# The identities (lhs, rhs) whose truth in the transition monoid of the
# minimal DFA characterizes k-PT, for k = 1, 2, 3.
IDENTITIES = {
    1: (("x", "xx"), ("xy", "yx")),
    2: (("xyxy", "yxyx"), ("xyzx", "xyxzx")),
    3: (("xyxyxy", "yxyxyx"), ("xzyxvxwy", "xzxyxvxwy"), ("ywxvxyzx", "ywxvxyxzx")),
}

# The largest monoid `is_3pt` checks.  Identities 2 and 3 of IDENTITIES[3]
# have 5 variables, and 15^5 <= DEFAULT_MONOID_BUDGET = 10^6 < 16^5, so
# `check_identity` refuses any larger monoid at its default budget.
MAX_3PT_MONOID = 15


@dataclass(frozen=True)
class Certificate:
    """Witness of non-k-piecewise-testability: two k-equivalent words that
    drive the minimal DFA to two different states."""

    k: int
    w1: Word
    w2: Word
    state1: str
    state2: str


@dataclass(frozen=True)
class Clause:
    """Words that must embed into a member, and words that must not."""

    required: frozenset[Word]
    forbidden: frozenset[Word]


@dataclass(frozen=True)
class PieceExpression:
    """Union of clauses; denotes a boolean combination of pieces L_v."""

    clauses: tuple[Clause, ...]


@dataclass(frozen=True)
class OracleAnswer:
    verdict: str  # "yes" | "no" | "unknown"
    certificate: Optional[Certificate] = None


def is_0pt(a: Automaton) -> bool:
    """A minimal DFA recognizes a 0-PT language iff it has a single state."""
    require_complete_dfa(a)
    return len(a.names) == 1


def is_1pt(a: Automaton) -> bool:
    """Letter-level characterization of 1-PT on the minimal DFA: every
    letter's map is idempotent (x·x = x), and the maps of any two letters
    commute (x·y = y·x), checked on whole successor columns."""
    cols = dfa_columns(a)
    for cx in cols:
        if list(map(cx.__getitem__, cx)) != cx:
            return False
    for cx, cy in combinations(cols, 2):
        if list(map(cy.__getitem__, cx)) != list(map(cx.__getitem__, cy)):
            return False
    return True


def is_2pt(a: Automaton) -> bool:
    """2-PT on the minimal DFA: PT plus s.ba = s.aba for every letter a, every
    state s reachable by a word containing a, and every b in the alphabet or
    empty."""
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


def is_3pt(a: Automaton) -> Optional[bool]:
    """3-PT via the three defining identities of the transition monoid.

    The monoid is generated up to MAX_3PT_MONOID elements and checked at
    the default budget.  Returns None, before any composition table is
    built, when the monoid outgrows that; callers fall back to the generic
    oracle.
    """
    try:
        return check_identity(transition_monoid(a, MAX_3PT_MONOID), IDENTITIES[3]) is None
    except BudgetExceededError:
        return None


# The classes by number, the DFA state each one reaches, and the edge that
# first reached it: parent * n + letter number, or -1 for [epsilon].
ClassStates = tuple[list[ClassKey], list[int], list[int]]


def _class_state_map(a: Automaton, k: int, budget: int) -> Union[Certificate, ClassStates]:
    """Pair each ~_k class with the DFA state (an index into `a.names`) its
    first access word reaches, a chunk of classes at a time: the classes,
    their states and first edges when every class meets a single state, or
    a Certificate for the first edge that takes a class to a second one."""
    rows = dfa_rows(a)
    n = len(a.alphabet)
    (start,) = a.starts
    search = ClassSearch(n, k, budget)
    states, reached = [start], [-1]
    edge = 0  # the number of edges checked so far
    for row in search.rows():
        # The DFA successor of each edge, in the row's order.
        first = edge // n
        targets = list(chain.from_iterable(map(rows.__getitem__, states[first : first - (-len(row) // n)])))
        del targets[len(row) :]  # a row cut at the budget ends inside a class
        # New classes first occur in the row in the order of their numbers.
        position = -1
        for cls in range(len(states), max(row, default=-1) + 1):
            position = row.index(cls, position + 1)
            states.append(targets[position])
            reached.append(edge + position)
        if list(map(states.__getitem__, row)) != targets:
            e = next(e for e, (cls, state) in enumerate(zip(row, targets)) if states[cls] != state)
            return Certificate(
                k,
                _access_word(reached, row[e], a.alphabet),
                _access_word(reached, first + e // n, a.alphabet) + (a.alphabet[e % n],),
                a.names[states[row[e]]],
                a.names[targets[e]],
            )
        edge += len(row)
    return search.classes, states, reached


def _access_word(reached: list[int], cls: int, alphabet: tuple[str, ...]) -> Word:
    """The word that first reached class number `cls`, read back through
    the first edges."""
    letters = []
    e = reached[cls]
    while e >= 0:
        parent, letter = divmod(e, len(alphabet))
        letters.append(alphabet[letter])
        e = reached[parent]
    return tuple(reversed(letters))


def is_kpt_oracle(
    a: Automaton, k: int, budget: int = DEFAULT_CLASS_BUDGET
) -> OracleAnswer:
    """Exact k-PT test on a minimal complete DFA by class/state reachability."""
    try:
        outcome = _class_state_map(a, k, budget)
    except BudgetExceededError:
        return OracleAnswer("unknown")
    if isinstance(outcome, Certificate):
        return OracleAnswer("no", outcome)
    return OracleAnswer("yes")


def is_kpt(a: Automaton, k: int, budget: int = DEFAULT_CLASS_BUDGET) -> OracleAnswer:
    """Decide k-PT on a minimal complete DFA, cheapest check first.

    k = 0..2 use the specialized deciders.  From k = 3 on, a language that
    is not PT is "no"; a PT one is tried on the monoid identities at k = 3,
    and is k-PT for every k at least the depth of its minimal DFA.
    """
    require_complete_dfa(a)
    if k < 0:
        raise InputError("k must be non-negative")
    if k == 0:
        return OracleAnswer("yes" if is_0pt(a) else "no")
    if k == 1:
        return OracleAnswer("yes" if is_1pt(a) else "no")
    if k == 2:
        return OracleAnswer("yes" if is_2pt(a) else "no")
    if not is_pt_min_dfa(a):
        return OracleAnswer("no")
    if k == 3:
        verdict = is_3pt(a)
        if verdict is not None:
            return OracleAnswer("yes" if verdict else "no")
    if k >= depth(a):
        return OracleAnswer("yes")
    return is_kpt_oracle(a, k, budget)


def verify_pair(a: Automaton, k: int, w1: Word, w2: Word) -> bool:
    """True iff (w1, w2) witnesses non-k-PT: k-equivalent words reaching two
    distinct states of the DFA."""
    for w in (w1, w2):
        for letter in w:
            if letter not in a.alphabet:
                raise InputError(f"unknown letter {letter!r} in witness word")
    if not k_equivalent(w1, w2, k):
        return False
    s1, s2 = a.dstate(w1), a.dstate(w2)
    return s1 is not None and s2 is not None and s1 != s2


def verify_certificate(a: Automaton, c: Certificate) -> bool:
    """Recompute everything a certificate claims and check it against `a`."""
    if not verify_pair(a, c.k, c.w1, c.w2):
        return False
    return a.dstate(c.w1) == c.state1 and a.dstate(c.w2) == c.state2


def min_k(
    a: Automaton, budget: int = DEFAULT_CLASS_BUDGET
) -> Union[int, tuple[int, int], None]:
    """The minimal k for which the language is k-PT.

    Asks `is_kpt` at k = 0, 1, 2, ... and returns the first k it says "yes"
    to.  The walk ends by k = max(3, depth of the minimal DFA), where
    `is_kpt` says "yes" with no search.  Returns the interval (lo, hi) when
    the budget ran out at lo, with hi the depth of the minimal DFA, a
    guaranteed upper bound; or None when the language is not piecewise
    testable at all.
    """
    m = minimize(determinize(a))
    if not is_pt_min_dfa(m):
        return None
    k = 0
    while (verdict := is_kpt(m, k, budget).verdict) == "no":
        k += 1
    return k if verdict == "yes" else (k, depth(m))


def decompose(
    a: Automaton, k: int, budget: int = DEFAULT_CLASS_BUDGET
) -> PieceExpression:
    """Write the language of a k-PT minimal DFA as a union of clauses, one per
    accepted ~_k class: the maximal members are required, the minimal missing
    words are forbidden."""
    outcome = _class_state_map(a, k, budget)
    if isinstance(outcome, Certificate):
        raise ContractError("decompose requires a k-PT language at this k")
    classes, states, reached = outcome
    access = {
        cls: _access_word(reached, cls, a.alphabet) for cls, state in enumerate(states) if state in a.finals
    }
    order = sorted(access, key=lambda cls: (len(access[cls]), access[cls]))
    return PieceExpression(
        tuple(Clause(*class_pieces(decode_class(classes[cls], a.alphabet), a.alphabet, k)) for cls in order)
    )


def eval_piece_expression(e: PieceExpression, w: Word) -> bool:
    """Union-of-clauses semantics via embedding."""
    return any(
        all(embeds(v, w) for v in clause.required)
        and not any(embeds(v, w) for v in clause.forbidden)
        for clause in e.clauses
    )
