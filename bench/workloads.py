"""The benchmark's workloads: seeded inputs and the operation plan of each case.

A case is a generator.  It yields one operation at a time as
``(name, function, *args)`` and receives the function's result; the
round runner times the call and nothing else.  Between yields the case
checks each result against the references in :mod:`checks` through
``ctx.verify``.  Functions are looked up on the ``ptlang`` modules at the
moment they are yielded, so a traced round sees the tracing wrappers.

Inputs depend only on the seed.  The extremal families are fixed; the seed
draws the random automata and words.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import checks

# Class budget for min_k on the minimal DFA of gen_ak(3): its minimal k is 4,
# and the ~_4 class space over four letters does not fit in memory, so the
# search must stop and answer with an interval.
AK3_BUDGET = 30000
# Words checked against a decomposition: all words up to the length that
# keeps their number below this.
DECOMPOSE_WORDS = 1000


@dataclass
class Case:
    name: str
    plan: Callable  # plan(ctx, api) -> generator of operations
    known_fault: frozenset = field(default_factory=frozenset)  # op names that fail today


@dataclass
class Workload:
    cases: list
    texts: dict  # file name -> automaton text written during set-up


# ------------------------------------------------------------ text format


def automaton_text(alphabet, states, initials, accepting, triples) -> str:
    """Canonical text: sorted states and transitions, as ptlang serializes."""
    lines = [
        "alphabet: " + " ".join(alphabet),
        "states: " + " ".join(sorted(states)),
        "initial: " + " ".join(sorted(initials)),
        "accepting: " + " ".join(sorted(accepting)),
    ]
    lines += [f"{s} {a} {d}" for s, a, d in sorted(set(triples))]
    return "\n".join(lines) + "\n"


def same_automaton(a, ref: checks.NFARef) -> Optional[str]:
    """None when a ptlang automaton holds exactly the data of `ref`."""
    if tuple(a.alphabet) != ref.alphabet:
        return "alphabet differs"
    if set(a.initials) != set(ref.initials) or set(a.accepting) != set(ref.final):
        return "initial or accepting states differ"
    mine = {key: frozenset(v) for key, v in a.transitions.items() if v}
    theirs = {key: v for key, v in ref.delta.items() if v}
    return None if mine == theirs else "transitions differ"


def lang_matches(a, ref, limit: int = 20000, exhaustive: bool = True) -> Optional[str]:
    """None when the ptlang automaton `a` has the language of `ref`."""
    w = checks.language_difference(a, ref, limit, exhaustive)
    return None if w is None else f"language differs on {w}"


def dfa_matches(a, ref, limit: int = 20000, exhaustive: bool = True) -> Optional[str]:
    """None when `a` is a complete DFA with the language of `ref`."""
    if not checks.is_complete_dfa(a):
        return "not a complete DFA"
    return lang_matches(a, ref, limit, exhaustive)


def minimal_matches(a, ref) -> Optional[str]:
    """None when `a` is a minimal complete DFA for the language of `ref`."""
    reason = dfa_matches(a, ref)
    if reason:
        return reason
    size = checks.Explicit(ref).size
    return None if len(a.states) == size else f"{len(a.states)} states, minimal is {size}"


def expect(value, wanted) -> Optional[str]:
    return None if value == wanted else f"got {value!r}, expected {wanted!r}"


def kpt_verdict(ref, k: int, answer) -> Optional[str]:
    """None when an is_kpt answer matches the reference's ~_k conflicts."""
    truth = "yes" if checks.k_conflict(ref, k) is None else "no"
    return expect(answer.verdict, truth)


def pt_verdict(ref, verdict: bool) -> Optional[str]:
    if verdict:
        pair = checks.jt_counterexample(ref)
        return None if pair is None else f"not PT: {pair[0]} vs {pair[1]}"
    return checks.check_not_pt(ref)


# ------------------------------------------------------------ nfa-pt


def random_nfa_text(rng: random.Random, complete_po: bool, n: int, letter_count: int) -> str:
    """Plain: any targets, possibly none.  Complete partially ordered: every
    (state, letter) has targets, all at or after the state in index order."""
    letters = ("a", "b", "c")[:letter_count]
    states = [f"q{i}" for i in range(n)]
    triples = []
    for i, q in enumerate(states):
        for a in letters:
            if complete_po:
                pool = states[i:]
                # Mostly a self-loop or a single forward edge.
                count = 1 if rng.random() < 0.7 else rng.randint(1, min(2, len(pool)))
                targets = rng.sample(pool, count)
            else:
                targets = rng.sample(states, rng.choice((0, 1, 1, 1, 2)))
            triples += [(q, a, d) for d in targets]
    initials = [states[0]] if complete_po or rng.random() < 0.5 else rng.sample(states, 2)
    accepting = rng.sample(states, rng.randint(1, max(1, n // 2)))
    return automaton_text(letters, states, initials, accepting, triples)


def collision_text(names: tuple, letters: tuple) -> str:
    """s reads x into {A, B} and y into the single state named 'A,B'; both go
    on to the accepting sink t, and A accepts.  The language is every
    nonempty word except y.  Subset names joined by commas make {A, B} and
    {A,B} one state, whose DFA accepts y as well."""
    s, a, b, ab, t = names
    x, y = letters
    triples = [(s, x, a), (s, x, b), (s, y, ab)]
    triples += [(q, c, t) for q in (a, b, ab, t) for c in letters]
    return automaton_text(letters, names, [s], [a, t], triples)


COLLISIONS = (
    (("s", "a", "b", "a,b", "t"), ("x", "y")),
    (("{s}", "{a}", "{b}", "{a},{b}", "{t}"), ("a", "b")),
    (("s0", "0", "1", "0,1", "s1"), ("0", "1")),
)


def nfa_pt(seed: int) -> Workload:
    rng = random.Random(seed)
    cases, texts = [], {}

    def text_case(name, text, plan, known_fault=frozenset()):
        texts[name] = text
        cases.append(Case(name, lambda ctx, api: plan(ctx, api, text), known_fault))

    for n in (8, 9, 10):
        cases.append(Case(f"cap{n}", lambda ctx, api, n=n: cap_plan(ctx, api, n)))
    for k in (6, 7, 8, 9):
        cases.append(Case(f"ak{k}", lambda ctx, api, k=k: ak_nfa_plan(ctx, api, k)))
    # Sizes and alphabets are fixed per slot, so the seed changes the
    # automata but not the make-up of the workload.  About 23 operations on
    # extremal NFAs take 40 ms or more; with 24 seeded NFAs they fill the
    # top tenth of the operations, where the 90th percentile falls.
    for i in range(12):
        text_case(f"nfa{i}", random_nfa_text(rng, False, 3 + i % 5, 2 + i % 2), random_nfa_plan)
    for i in range(12):
        text_case(f"po{i}", random_nfa_text(rng, True, 4 + i % 6, 2 + i % 2), random_nfa_plan)
    for i, (names, letters) in enumerate(COLLISIONS):
        text_case(
            f"collision{i}",
            collision_text(names, letters),
            collision_plan,
            frozenset({"determinize", "min_k"}),
        )
    return Workload(cases, texts)


def cap_plan(ctx, api, n: int) -> Iterator:
    letters = tuple(f"a{i}" for i in range(1, n + 1))
    ref = checks.CapRef(letters)
    a = yield "gen_intersection_nfa", api.gen_intersection_nfa, letters
    ctx.verify(lambda: lang_matches(a, ref), a)
    verdict = yield "is_pt", api.is_pt, a
    ctx.verify(lambda: expect(verdict, True), verdict)
    d = yield "determinize", api.determinize, a
    ctx.verify(lambda: dfa_matches(d, ref), d)
    m = yield "minimize", api.minimize, d
    ctx.verify(lambda: minimal_matches(m, ref), m)
    for k in (1, 2):
        answer = yield "is_kpt", api.is_kpt, m, k
        ctx.verify(lambda: expect(answer.verdict, "yes"), answer)
    result = yield "min_k", api.min_k, a
    ctx.verify(lambda: expect(result, 1), result)


def ak_nfa_plan(ctx, api, k: int) -> Iterator:
    ref = checks.ak_nfa(k)
    a = yield "gen_ak", api.gen_ak, k
    ctx.verify(lambda: lang_matches(a, ref), a)
    verdict = yield "is_pt", api.is_pt, a
    ctx.verify(lambda: expect(verdict, True), verdict)
    d = yield "determinize", api.determinize, a
    ctx.verify(lambda: dfa_matches(d, ref), d)
    m = yield "minimize", api.minimize, d
    ctx.verify(lambda: minimal_matches(m, ref), m)
    for j in (1, 2):
        # A_k is (k+1)-PT and not k-PT, so "no" at every j <= k.
        answer = yield "is_kpt", api.is_kpt, m, j
        ctx.verify(lambda: expect(answer.verdict, "no"), answer)


def random_nfa_plan(ctx, api, text: str) -> Iterator:
    ref = checks.parse_text(text)
    a = yield "parse_automaton", api.cli.parse_automaton, text
    ctx.verify(lambda: same_automaton(a, ref), a)
    verdict = yield "is_pt", api.is_pt, a
    ctx.verify(lambda: pt_verdict(ref, verdict), verdict)
    d = yield "determinize", api.determinize, a
    ctx.verify(lambda: dfa_matches(d, ref), d)
    m = yield "minimize", api.minimize, d
    ctx.verify(lambda: minimal_matches(m, ref), m)
    for k in (1, 2):
        answer = yield "is_kpt", api.is_kpt, m, k
        ctx.verify(lambda: kpt_verdict(ref, k, answer), answer)


def collision_plan(ctx, api, text: str) -> Iterator:
    ref = checks.parse_text(text)
    a = yield "parse_automaton", api.cli.parse_automaton, text
    ctx.verify(lambda: same_automaton(a, ref), a)
    d = yield "determinize", api.determinize, a
    ctx.verify(lambda: dfa_matches(d, ref), d)
    result = yield "min_k", api.min_k, a
    ctx.verify(lambda: expect(result, checks.own_min_k(ref, checks.Explicit(ref).size)), result)


# ------------------------------------------------------------ kpt-corpus


def monoid_size(letters, delta, n: int, limit: int) -> int:
    """Elements of the transition monoid, counted up to limit + 1."""
    gens = [tuple(next(iter(delta[(i, a)])) for i in range(n)) for a in letters]
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier and len(seen) <= limit:
        f = frontier.pop()
        for g in gens:
            h = tuple(g[x] for x in f)
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    return len(seen)


def block_count(succ: list, accepting: set) -> int:
    """Number of language-equivalence classes of a DFA (Moore refinement).

    The same refinement as ``checks.Explicit``, on plain integer rows: the
    corpus tries thousands of drafts, and this keeps set-up short.
    """
    block = [int(i in accepting) for i in range(len(succ))]
    count = len(set(block))
    while True:
        sigs: dict = {}
        block = [sigs.setdefault((block[i], *(block[j] for j in row)), len(sigs)) for i, row in enumerate(succ)]
        if len(sigs) == count:
            return count
        count = len(sigs)


def random_min_dfa_text(
    rng: random.Random, letters: tuple, target: tuple, max_n: int, max_depth: int
) -> str:
    """A random minimal complete DFA of at most max_n states whose minimal k,
    by the reference's own search, and transition monoid size are the pair
    `target` (k None: not PT).

    The minimal k and the monoid size set most of the cost of a corpus DFA
    (is_3pt enumerates |M|^5 assignments), so fixing them per slot keeps
    the make-up of the corpus the same across seeds.  Drafts over
    three letters or with more than four states, and seven in ten of the
    others, are partially ordered with depth at most max_depth: each state
    after the first is entered from a state of lower level, and every other
    move stays put or goes to a state of higher level.  Drafts that are not
    minimal or miss the target are drawn again.
    """
    target_k, target_m = target
    while True:
        # A minimal DFA's monoid has at least as many elements as it has states.
        n = 1 if target_m == 1 else rng.randint(2, min(target_m, max_n))
        ordered = n > 4 or len(letters) > 2 or rng.random() < 0.7
        delta = {}
        level = [0] * n
        for i in range(1, n):
            free = [
                (p, a) for p in range(i) for a in letters
                if (p, a) not in delta and level[p] < max_depth
            ]
            if ordered and free:
                p, a = rng.choice(free)
                delta[(p, a)] = {i}
                level[i] = level[p] + 1
        for i in range(n):
            higher = [j for j in range(n) if level[j] > level[i]]
            for a in letters:
                if (i, a) not in delta:
                    if not ordered:
                        delta[(i, a)] = {rng.randrange(n)}
                    else:
                        delta[(i, a)] = {rng.choice(higher) if higher and rng.random() < 0.5 else i}
        succ = [[next(iter(delta[(i, a)])) for a in letters] for i in range(n)]
        reached = [0]
        for i in reached:
            reached += [j for j in succ[i] if j not in reached]
        if len(reached) < n or monoid_size(letters, delta, n, target_m) != target_m:
            continue
        accepting = {i for i in range(n) if rng.random() < 0.5}
        if block_count(succ, accepting) < n:
            continue
        ref = checks.NFARef(letters, delta, {0}, accepting)
        if checks.jt_counterexample(ref) is None:
            k = checks.own_min_k(ref, max_depth)
        else:
            k = None
        if k == target_k:
            states = [f"q{i}" for i in range(n)]
            triples = [(states[i], a, states[j]) for (i, a), (j,) in delta.items()]
            return automaton_text(
                letters, states, [states[0]], [states[i] for i in accepting], triples
            )


# (minimal k, monoid size) of each corpus slot, cycled; k None: not PT.
CORPUS_MIX = {
    ("a", "b"): ((None, 3), (None, 4), (None, 6), (0, 1), (1, 2), (1, 2), (2, 3), (2, 4), (3, 6), (3, 6)),
    ("a", "b", "c"): ((None, 3), (None, 3), (None, 5), (0, 1), (1, 2), (1, 2), (2, 3), (2, 4), (2, 4), (2, 5)),
}


def kpt_corpus(seed: int) -> Workload:
    rng = random.Random(seed)
    cases, texts = [], {}
    # (letters, (k, |M|), states at most, depth at most).  The depth bounds
    # the minimal k: at k = 7 over two letters one min_k call takes 12 s,
    # and decompose at k = 3 over three letters 2 to 3 s.
    specs = [(("a", "b"), CORPUS_MIX[("a", "b")][i % 10], 8, 3) for i in range(100)]
    specs += [(("a", "b", "c"), CORPUS_MIX[("a", "b", "c")][i % 10], 4, 2) for i in range(50)]
    for i, spec in enumerate(specs):
        text = random_min_dfa_text(rng, *spec)
        texts[f"dfa{i}"] = text
        cases.append(Case(f"dfa{i}", lambda ctx, api, text=text: corpus_plan(ctx, api, text)))
    return Workload(cases, texts)


def corpus_plan(ctx, api, text: str) -> Iterator:
    ref = checks.parse_text(text)
    max_len = checks.length_for(len(ref.alphabet), DECOMPOSE_WORDS)
    a = yield "parse_automaton", api.cli.parse_automaton, text
    ctx.verify(lambda: same_automaton(a, ref), a)
    m = yield "minimize", api.minimize, a
    ctx.verify(lambda: minimal_matches(m, ref), m)
    out = yield "serialize_automaton", api.cli.serialize_automaton, m
    ctx.verify(lambda: same_automaton(m, checks.parse_text(out)), out)
    verdict = yield "is_pt", api.is_pt, a
    ctx.verify(lambda: pt_verdict(ref, verdict), verdict)
    answers = []
    for k in (1, 2, 3):
        answer = yield "is_kpt", api.is_kpt, m, k
        answers.append((ctx.last, answer))
    mk = yield "min_k", api.min_k, a
    min_k_op = ctx.last
    witness = expr = None
    if isinstance(mk, int):
        if mk > 0:
            answer = yield "is_kpt_oracle", api.is_kpt_oracle, m, mk - 1
            c = answer.certificate
            ctx.verify(
                lambda: expect(answer.verdict, "no")
                or checks.check_witness(ref, mk - 1, c.w1, c.w2),
                answer,
            )
            if c is not None:
                witness = (c.w1, c.w2)
                ok = yield "verify_pair", api.verify_pair, m, mk - 1, c.w1, c.w2
                ctx.verify(lambda: expect(ok, True), ok, witness)
        expr = yield "decompose", api.decompose, m, mk
        ctx.verify(lambda: checks.check_decomposition(ref, expr, max_len), expr)
        ctx.verify(
            lambda: checks.check_min_k(ref, mk, witness, expr, max_len),
            mk, witness, expr, op=min_k_op,
        )
    else:
        ctx.verify(lambda: expect(mk, None) or checks.check_not_pt(ref), mk, op=min_k_op)
    for k, (op, answer) in zip((1, 2, 3), answers):
        wanted = "yes" if isinstance(mk, int) and k >= mk else "no"
        ctx.verify(lambda: expect(answer.verdict, wanted), answer, mk, op=op)


# ------------------------------------------------------------ class-search

TIGHT = ((3, 2), (4, 2), (2, 3), (3, 3), (2, 4), (2, 5))
# The seeded class-search pairs (k, length): a word over the letters of
# A_k and the same word with one letter inserted, checked by verify_pair at
# k.  A random word of 90 letters over four letters has every word of
# length <= 3 as a subword, so the cost of k_equivalent is the same for
# every seed: about 2.7 ms, the median of the other operations.  The median
# then lands among these steady operations, and the 90th percentile stays
# among the extremal ones.
PAIRS = ((3, 90),) * 20
# The canonical DFA of (2, 5) is the one gen_tight_depth_dfa(2, 5) builds
# first; listing it again would only double that case.
CANONICAL = frozenset(TIGHT) - {(2, 5)}


def class_search(seed: int) -> Workload:
    rng = random.Random(seed)
    cases = [Case(f"tight{k},{n}", lambda ctx, api, k=k, n=n: tight_plan(ctx, api, k, n)) for k, n in TIGHT]
    minimal = {}
    cases += [
        Case(f"ak{k}", lambda ctx, api, k=k: ak_class_plan(ctx, api, k, minimal))
        for k in range(1, 7)
    ]
    pairs = []
    for k, length in PAIRS:
        u = [f"a{rng.randrange(k + 1)}" for _ in range(length)]
        v = list(u)
        v.insert(rng.randrange(len(v) + 1), f"a{rng.randrange(k + 1)}")
        pairs.append((k, tuple(u), tuple(v)))
    cases.append(Case("pairs", lambda ctx, api: pairs_plan(ctx, api, pairs, minimal)))
    return Workload(cases, {})


def tight_plan(ctx, api, k: int, n: int) -> Iterator:
    ref = checks.TightRef(k, n)
    alphabet = ref.alphabet
    max_len = checks.length_for(n, DECOMPOSE_WORDS)
    g = yield "gen_tight_depth_dfa", api.gen_tight_depth_dfa, k, n
    # (2, 5) has 52,132 classes: its language is checked on all words up to
    # the length the first 20,000 state pairs reach.
    ctx.verify(lambda: dfa_matches(g, ref, exhaustive=False), g)
    m = yield "minimize", api.minimize, g
    del g
    ctx.verify(
        lambda: expect(checks.dfa_depth(m), checks.pkn(k, n))
        or dfa_matches(m, ref, exhaustive=False),
        m,
    )
    mk = yield "min_k", api.min_k, m
    ctx.verify(lambda: expect(mk, k), mk)
    answer = yield "is_kpt_oracle", api.is_kpt_oracle, m, k - 1
    c = answer.certificate
    ctx.verify(
        lambda: expect(answer.verdict, "no") or checks.check_witness(ref, k - 1, c.w1, c.w2),
        answer,
    )
    answer = yield "is_kpt", api.is_kpt, m, k
    ctx.verify(lambda: expect(answer.verdict, "yes"), answer)
    expr = yield "decompose", api.decompose, m, k
    ctx.verify(lambda: checks.check_decomposition(ref, expr, max_len), expr)
    if (k, n) in CANONICAL:
        c = yield "canonical_automaton", api.canonical_automaton, alphabet, k
        ctx.verify(lambda: canonical_matches(c, k, alphabet, max_len), c)


def canonical_matches(a, k: int, alphabet, max_len: int) -> Optional[str]:
    """None when `a` is a complete DFA with one state per ~_k class: the
    number of classes matches, and on short words states and classes
    determine each other."""
    if not checks.is_complete_dfa(a):
        return "not a complete DFA"
    classes = checks.TightRef(k, len(alphabet))
    count = len(checks.Explicit(classes).states)
    if len(a.states) != count:
        return f"{len(a.states)} states for {count} classes"
    ref = checks.automaton_ref(a)
    pairs = {(checks.run(ref, w), checks.sub_k(w, k)) for w in checks.words_up_to(alphabet, max_len)}
    states = {s for s, _ in pairs}
    found = {c for _, c in pairs}
    if not len(pairs) == len(states) == len(found):
        return "states and classes do not correspond"
    return None


def ak_class_plan(ctx, api, k: int, minimal: dict) -> Iterator:
    """gen, determinize and minimize A_k; k <= 3 then search the class space
    around its minimal k, which is k + 1.  The minimal DFAs are kept for the
    verify_pair cases."""
    ref = checks.ak_nfa(k)
    a = yield "gen_ak", api.gen_ak, k
    ctx.verify(lambda: lang_matches(a, ref), a)
    d = yield "determinize", api.determinize, a
    ctx.verify(lambda: dfa_matches(d, ref), d)
    m = yield "minimize", api.minimize, d
    ctx.verify(lambda: minimal_matches(m, ref), m)
    minimal[k] = m
    if k <= 3:
        mk = yield "min_k", api.min_k, m, AK3_BUDGET
        ctx.verify(lambda: within(mk, k + 1), mk)
        answer = yield "is_kpt_oracle", api.is_kpt_oracle, m, k
        c = answer.certificate
        ctx.verify(
            lambda: expect(answer.verdict, "no") or checks.check_witness(ref, k, c.w1, c.w2),
            answer,
        )
    if k <= 2:
        max_len = checks.length_for(k + 1, DECOMPOSE_WORDS)
        answer = yield "is_kpt", api.is_kpt, m, k + 1
        ctx.verify(lambda: expect(answer.verdict, "yes"), answer)
        expr = yield "decompose", api.decompose, m, k + 1
        ctx.verify(lambda: checks.check_decomposition(ref, expr, max_len), expr)
    if k >= 3:
        # (w_k minus its last letter, w_k): k-equivalent, and A_k accepts
        # exactly the even-length prefixes of w_k.
        w = checks.wk(k)
        ok = yield "verify_pair", api.verify_pair, m, k, w[:-1], w
        ctx.verify(lambda: expect(ok, pair_truth(ref, k, w[:-1], w)), ok)


def within(result, k: int) -> Optional[str]:
    """An exact minimal k, or an interval from a spent budget that holds it."""
    if isinstance(result, tuple) and len(result) == 2 and result[0] <= k <= result[1]:
        return None
    return expect(result, k)


def pair_truth(ref, k: int, w1, w2) -> bool:
    return checks.sub_k(w1, k) == checks.sub_k(w2, k) and (
        checks.separating_suffix(ref, w1, w2) is not None
    )


def pairs_plan(ctx, api, pairs, minimal: dict) -> Iterator:
    for k, u, v in pairs:
        ok = yield "verify_pair", api.verify_pair, minimal[k], k, u, v
        ctx.verify(lambda: expect(ok, pair_truth(checks.ak_nfa(k), k, u, v)), ok, u, v)


WORKLOADS = {"nfa-pt": nfa_pt, "kpt-corpus": kpt_corpus, "class-search": class_search}
