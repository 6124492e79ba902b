"""Reference semantics for checking ptlang's outputs, written from the
definitions in the paper and sharing no code with ptlang.

Languages are given as *references*: objects with ``alphabet``, ``start()``,
``step(state, letter)`` and ``accepting(state)`` whose states are hashable.
A reference is a deterministic machine.  Every search below takes an
explicit limit and raises :class:`CheckLimit` when it would exceed it, so a
check that cannot be decided fails instead of passing silently; only
``language_difference`` may instead stop at its limit, which checks every
word up to the length reached.

ptlang objects are read as plain data only: an automaton's ``states``,
``alphabet``, ``transitions``, ``initials`` and ``accepting`` fields, an
oracle answer's ``verdict`` and certificate words, a piece expression's
clauses.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Iterable, Iterator, Optional

Word = tuple


class CheckLimit(RuntimeError):
    """A reference search would exceed its explicit size limit."""


# ---------------------------------------------------------------- subwords


def subwords_by_index_subsets(w: Word, k: int) -> frozenset:
    """sub_k(w) by definition: the letters of w at every index subset of size <= k."""
    out = {()}
    for r in range(1, min(k, len(w)) + 1):
        for idx in itertools.combinations(range(len(w)), r):
            out.add(tuple(w[i] for i in idx))
    return frozenset(out)


def subwords_by_leftmost_embedding(w: Word, k: int) -> frozenset:
    """sub_k(w) by extending each subword at the leftmost position where its
    next letter occurs; every subword has exactly one leftmost embedding, so
    each is produced once.  Used for long words, where index subsets are
    too many to list."""
    n = len(w)
    letters = sorted(set(w))
    # nxt[i][a]: smallest j >= i with w[j] == a, or n.
    nxt = [dict.fromkeys(letters, n) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        nxt[i].update(nxt[i + 1])
        nxt[i][w[i]] = i
    out = {()}
    stack = [((), 0)]
    while stack:
        v, pos = stack.pop()
        if len(v) == k:
            continue
        for a in letters:
            j = nxt[pos][a]
            if j < n:
                u = v + (a,)
                out.add(u)
                stack.append((u, j + 1))
    return frozenset(out)


def sub_k(w: Word, k: int) -> frozenset:
    """sub_k(w): by index subsets when they are few, else by leftmost embedding."""
    subsets = sum(math.comb(len(w), r) for r in range(min(k, len(w)) + 1))
    if subsets <= 20000:
        return subwords_by_index_subsets(w, k)
    return subwords_by_leftmost_embedding(w, k)


def words_up_to(alphabet: Iterable[str], max_len: int) -> Iterator[Word]:
    letters = tuple(alphabet)
    for length in range(max_len + 1):
        yield from itertools.product(letters, repeat=length)


def length_for(alphabet_size: int, max_words: int) -> int:
    """The largest L such that all words of length <= L number at most max_words."""
    length, total = 0, 1
    while total + alphabet_size ** (length + 1) <= max_words:
        length += 1
        total += alphabet_size**length
    return length


# ------------------------------------------------------- paper's families


def pkn(k: int, n: int) -> int:
    """P(k, n) = C(k+n, k) - 1, the tight depth bound."""
    return math.comb(k + n, k) - 1


def wkn(k: int, n: int) -> Word:
    """W(k,1) = a1^k, W(1,n) = a1...an, W(k,n) = W(k,n-1) a_n W(k-1,n)."""
    if n == 1:
        return ("a1",) * k
    if k == 1:
        return tuple(f"a{i}" for i in range(1, n + 1))
    return wkn(k, n - 1) + (f"a{n}",) + wkn(k - 1, n)


def wk(k: int) -> Word:
    """w_0 = a0, w_l = w_{l-1} a_l w_{l-1}."""
    word: Word = ("a0",)
    for level in range(1, k + 1):
        word = word + (f"a{level}",) + word
    return word


def ak_nfa(k: int) -> "NFARef":
    """The paper's A_k: states 0..k, all initial, 0 accepting; state i loops
    under a_j (j < i) and moves under a_i to every smaller state."""
    delta = {}
    for i in range(k + 1):
        for j in range(i):
            delta.setdefault((i, f"a{j}"), set()).add(i)
            delta.setdefault((i, f"a{i}"), set()).add(j)
    return NFARef(
        tuple(f"a{i}" for i in range(k + 1)), delta, frozenset(range(k + 1)), frozenset({0})
    )


# ------------------------------------------------------------- references


class NFARef:
    """A nondeterministic automaton run by the subset construction on the fly."""

    def __init__(self, alphabet, delta, initials, accepting):
        self.alphabet = tuple(alphabet)
        self.delta = {key: frozenset(v) for key, v in delta.items()}
        self.initials = frozenset(initials)
        self.final = frozenset(accepting)

    def start(self):
        return self.initials

    def step(self, state, letter):
        out = set()
        for q in state:
            out |= self.delta.get((q, letter), frozenset())
        return frozenset(out)

    def accepting(self, state):
        return not state.isdisjoint(self.final)


def parse_text(text: str) -> NFARef:
    """The automaton text format: four headers, then 'src letter dst' lines."""
    headers, delta = {}, {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, rest = line.partition(":")
        if sep and head.strip() in ("alphabet", "states", "initial", "accepting"):
            headers[head.strip()] = rest.split()
            continue
        src, letter, dst = line.split()
        delta.setdefault((src, letter), set()).add(dst)
    return NFARef(headers["alphabet"], delta, headers["initial"], headers["accepting"])


def automaton_ref(a) -> NFARef:
    """A ptlang automaton, read as data, as a reference."""
    return NFARef(a.alphabet, a.transitions, a.initials, a.accepting)


class CapRef:
    """The words that contain every letter of the alphabet."""

    def __init__(self, alphabet):
        self.alphabet = tuple(alphabet)

    def start(self):
        return frozenset()

    def step(self, state, letter):
        return state | {letter}

    def accepting(self, state):
        return len(state) == len(self.alphabet)


class TightRef:
    """The words whose sub_k set is that of an even-length prefix of W(k,n);
    a state is the sub_k set of the word read so far."""

    def __init__(self, k: int, n: int):
        self.k = k
        self.alphabet = tuple(f"a{i}" for i in range(1, n + 1))
        word = wkn(k, n)
        self.targets = {sub_k(word[:length], k) for length in range(0, len(word) + 1, 2)}

    def start(self):
        return frozenset({()})

    def step(self, state, letter):
        return state | {u + (letter,) for u in state if len(u) < self.k}

    def accepting(self, state):
        return state in self.targets


def run(ref, w: Word):
    state = ref.start()
    for a in w:
        state = ref.step(state, a)
    return state


def member(ref, w: Word) -> bool:
    return ref.accepting(run(ref, w))


class Explicit:
    """The reachable part of a reference as an indexed DFA, with the blocks
    of its language-equivalence (Moore refinement)."""

    def __init__(self, ref, limit: int = 20000):
        self.ref = ref
        self.alphabet = ref.alphabet
        start = ref.start()
        index = {start: 0}
        self.states = [start]
        self.words = [()]
        self.succ = []
        for state, word in zip(self.states, self.words):
            row = []
            for a in self.alphabet:
                nxt = ref.step(state, a)
                if nxt not in index:
                    if len(index) >= limit:
                        raise CheckLimit(f"more than {limit} reference states")
                    index[nxt] = len(self.states)
                    self.states.append(nxt)
                    self.words.append(word + (a,))
                row.append(index[nxt])
            self.succ.append(row)
        block = [1 if ref.accepting(s) else 0 for s in self.states]
        while True:
            sigs: dict = {}
            new = [
                sigs.setdefault((block[i], *(block[j] for j in self.succ[i])), len(sigs))
                for i in range(len(self.states))
            ]
            if len(set(new)) == len(set(block)):
                break
            block = new
        self.block = new
        self.size = len(set(new))


def separating_suffix(ref, w1: Word, w2: Word, limit: int = 200000) -> Optional[Word]:
    """A shortest s with exactly one of w1 s, w2 s in the language, or None
    when none exists."""
    start = (run(ref, w1), run(ref, w2))
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (p, q), s = queue.popleft()
        if ref.accepting(p) != ref.accepting(q):
            return s
        for a in ref.alphabet:
            nxt = (ref.step(p, a), ref.step(q, a))
            if nxt not in seen:
                if len(seen) >= limit:
                    raise CheckLimit(f"more than {limit} state pairs")
                seen.add(nxt)
                queue.append((nxt, s + (a,)))
    return None


def language_difference(a, ref, limit: int = 20000, exhaustive: bool = True) -> Optional[Word]:
    """A word on which the ptlang automaton `a` and `ref` disagree, or None.

    Explores pairs of states breadth-first.  With `exhaustive`, exceeding
    `limit` pairs raises; without it, the search stops there, which checks
    every word up to the length it reached.
    """
    mine = automaton_ref(a)
    if tuple(a.alphabet) != tuple(ref.alphabet):
        return ("<alphabet differs>",)
    start = (mine.start(), ref.start())
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (p, q), w = queue.popleft()
        if mine.accepting(p) != ref.accepting(q):
            return w
        for letter in ref.alphabet:
            nxt = (mine.step(p, letter), ref.step(q, letter))
            if nxt not in seen:
                if len(seen) >= limit:
                    if exhaustive:
                        raise CheckLimit(f"more than {limit} state pairs")
                    return None
                seen.add(nxt)
                queue.append((nxt, w + (letter,)))
    return None


# --------------------------------------------------------- automaton facts


def is_complete_dfa(a) -> bool:
    if len(a.initials) != 1:
        return False
    return all(
        len(a.transitions.get((q, x), ())) == 1 for q in a.states for x in a.alphabet
    )


def dfa_depth(a) -> int:
    """Longest path with self-loops ignored, by memoized search; raises on a cycle."""
    adj = {q: set() for q in a.states}
    for (src, _), dsts in a.transitions.items():
        adj[src] |= set(dsts) - {src}
    longest: dict = {}
    for root in sorted(a.states):
        stack = [(root, iter(sorted(adj[root])))]
        on_path = {root}
        while stack:
            q, children = stack[-1]
            child = next(children, None)
            if child is None:
                longest[q] = max((longest[c] + 1 for c in adj[q]), default=0)
                on_path.discard(q)
                stack.pop()
            elif child in on_path:
                raise ValueError("cycle through distinct states")
            elif child not in longest:
                on_path.add(child)
                stack.append((child, iter(sorted(adj[child]))))
    return max(longest.values(), default=0)


# --------------------------------------------------------- k-PT semantics


def k_conflict(ref, k: int, limit: int = 50000) -> Optional[tuple[Word, Word]]:
    """Two words with equal sub_k sets and different residual languages, or
    None when the language is a union of ~_k classes (k-PT).

    Breadth-first over (sub_k set, language block) pairs; exact.
    """
    ex = Explicit(ref)
    start = frozenset({()})
    seen = {start: (0, ())}
    queue = deque([(start, 0, ())])
    while queue:
        cls, i, w = queue.popleft()
        for j, a in enumerate(ex.alphabet):
            nxt_cls = cls | {u + (a,) for u in cls if len(u) < k}
            nxt_i = ex.succ[i][j]
            nxt_w = w + (a,)
            if nxt_cls not in seen:
                if len(seen) >= limit:
                    raise CheckLimit(f"more than {limit} ~_{k} classes")
                seen[nxt_cls] = (nxt_i, nxt_w)
                queue.append((nxt_cls, nxt_i, nxt_w))
            elif ex.block[seen[nxt_cls][0]] != ex.block[nxt_i]:
                return seen[nxt_cls][1], nxt_w
    return None


def own_min_k(ref, max_k: int, limit: int = 50000) -> Optional[int]:
    """The least k <= max_k with no ~_k conflict, or None."""
    for k in range(max_k + 1):
        if k_conflict(ref, k, limit) is None:
            return k
    return None


def check_witness(ref, k: int, w1: Word, w2: Word) -> Optional[str]:
    """None when (w1, w2) shows the language is not k-PT: equal sub_k sets
    and a suffix that separates them; otherwise the reason."""
    if sub_k(w1, k) != sub_k(w2, k):
        return f"witness words differ in sub_{k}"
    if separating_suffix(ref, w1, w2) is None:
        return "no suffix separates the witness words"
    return None


def check_decomposition(ref, expr, max_len: int) -> Optional[str]:
    """None when the piece expression agrees with membership on every word
    up to max_len; otherwise a word where it does not.

    Words are visited depth first, carrying the reference state and, for
    each piece, the length of its longest prefix embedded so far, so each
    word costs one step per piece.
    """
    pieces = sorted({v for c in expr.clauses for v in (*c.required, *c.forbidden)})
    slot = {v: i for i, v in enumerate(pieces)}
    clauses = [
        ([slot[v] for v in c.required], [slot[v] for v in c.forbidden]) for c in expr.clauses
    ]
    stack = [((), ref.start(), tuple(0 for _ in pieces))]
    while stack:
        w, state, progress = stack.pop()
        done = [p == len(v) for p, v in zip(progress, pieces)]
        value = any(all(done[i] for i in req) and not any(done[i] for i in forb) for req, forb in clauses)
        if value != ref.accepting(state):
            return f"decomposition disagrees with membership on {w}"
        if len(w) < max_len:
            for a in ref.alphabet:
                grown = tuple(
                    p + 1 if p < len(v) and v[p] == a else p for p, v in zip(progress, pieces)
                )
                stack.append((w + (a,), ref.step(state, a), grown))
    return None


def check_min_k(
    ref,
    m,
    witness: Optional[tuple[Word, Word]],
    expr,
    max_len: int,
) -> Optional[str]:
    """None when m is the minimal k: the witness pair shows "no" at m - 1
    (required when m > 0), and the decomposition uses pieces of length at
    most m and agrees with membership on all words up to max_len; otherwise
    the reason."""
    if not isinstance(m, int) or m < 0:
        return f"min k {m!r} is not a natural number"
    if m > 0:
        if witness is None:
            return f"no witness against {m - 1}-PT"
        reason = check_witness(ref, m - 1, *witness)
        if reason:
            return f"at k = {m - 1}: {reason}"
    if expr is None:
        return f"no decomposition at {m}"
    if any(len(v) > m for c in expr.clauses for v in (*c.required, *c.forbidden)):
        return f"decomposition uses pieces longer than {m}"
    return check_decomposition(ref, expr, max_len)


# ------------------------------------------------------ J-triviality (PT)


def _power_idempotent(f: tuple) -> int:
    """The least n >= 1 with f^n idempotent."""
    g, n = f, 1
    while tuple(g[x] for x in g) != g:
        g = tuple(f[x] for x in g)
        n += 1
    return n


def _shortest_paths(succ, source: int) -> dict:
    paths = {source: ()}
    queue = deque([source])
    while queue:
        i = queue.popleft()
        for j, nxt in enumerate(succ[i]):
            if nxt not in paths:
                paths[nxt] = paths[i] + (j,)
                queue.append(nxt)
    return paths


def jt_counterexample(ref, limit: int = 20000) -> Optional[tuple[Word, Word]]:
    """Two words the language separates although every J-trivial monoid
    identifies them, or None when the language is piecewise testable.

    The pair has one of the forms p (xy)^n x  vs  p (xy)^n, p y (xy)^n vs
    p (xy)^n, or p (xy)^n vs p (yx)^n, where (xy)^n and (yx)^n are
    idempotent in the transition monoid of the reachable reference, followed
    by a separating suffix.  A J-trivial syntactic monoid (Simon: PT)
    identifies each pair.  Candidates for (x, y) are letter pairs and the
    two halves of each cycle of the minimal automaton, which covers both
    ways a minimal DFA can fail to be PT (a cycle, or non-confluence).
    """
    ex = Explicit(ref, limit)
    n_states = len(ex.states)
    letters = range(len(ex.alphabet))

    def transform(word: tuple) -> tuple:
        f = tuple(range(n_states))
        for j in word:
            f = tuple(ex.succ[i][j] for i in f)
        return f

    def power(f: tuple, n: int) -> tuple:
        g = tuple(range(n_states))
        for _ in range(n):
            g = tuple(f[i] for i in g)
        return g

    candidates = [((x,), (y,)) for x in letters for y in letters if x != y]
    candidates += [((x,), ()) for x in letters]
    rep: dict = {}
    for i, b in enumerate(ex.block):
        rep.setdefault(b, i)
    for b1, i1 in rep.items():
        paths = _shortest_paths(ex.succ, i1)
        for b2, i2 in rep.items():
            if b1 < b2 and i2 in paths:
                back = _shortest_paths(ex.succ, i2)
                if i1 in back:
                    candidates.append((paths[i2], back[i1]))
    for x, y in candidates:
        fxy, fyx = transform(x + y), transform(y + x)
        n = math.lcm(_power_idempotent(fxy), _power_idempotent(fyx))
        exy, eyx = power(fxy, n), power(fyx, n)
        fx, fy = transform(x), transform(y)
        forms = (
            (lambda p: fx[exy[p]], (x + y) * n + x),
            (lambda p: exy[fy[p]], y + (x + y) * n),
            (lambda p: eyx[p], (y + x) * n),
        )
        for p in range(n_states):
            for reach, left in forms:
                if ex.block[reach(p)] != ex.block[exy[p]]:
                    prefix = ex.words[p]
                    w1 = prefix + tuple(ex.alphabet[j] for j in left)
                    w2 = prefix + tuple(ex.alphabet[j] for j in (x + y) * n)
                    suffix = separating_suffix(ref, w1, w2)
                    if suffix is None:
                        raise CheckLimit("distinct blocks with no separating suffix")
                    return w1 + suffix, w2 + suffix
    return None


def check_not_pt(ref, limit: int = 20000) -> Optional[str]:
    """None when a J-triviality counterexample backs a not-PT verdict."""
    pair = jt_counterexample(ref, limit)
    if pair is None:
        return "no counterexample to J-triviality: the language is PT"
    w1, w2 = pair
    if member(ref, w1) == member(ref, w2):
        return "counterexample words are not separated"
    return None

