import random
import time
from itertools import chain

import pytest
from conftest import (
    all_words,
    dfa_ab_star,
    dfa_only_epsilon,
    dfa_parity,
    dfa_piece,
    random_complete_dfa,
    random_min_dfa,
    reference_class_edges,
    reference_is_1pt,
)

from ptlang import kpt
from ptlang import (
    BudgetExceededError,
    Certificate,
    ContractError,
    TransitionMonoid,
    canonical_automaton,
    check_identity,
    decompose,
    depth,
    determinize,
    eval_piece_expression,
    gen_ak,
    gen_intersection_nfa,
    gen_tight_depth_dfa,
    gen_wk,
    is_0pt,
    is_1pt,
    is_2pt,
    is_3pt,
    is_kpt,
    is_kpt_oracle,
    make_automaton,
    min_k,
    minimize,
    pkn,
    transition_monoid,
    verify_certificate,
    verify_pair,
)
from ptlang.automata import DEFAULT_MONOID_BUDGET
from ptlang.cli import serialize_automaton
from ptlang.kpt import IDENTITIES, MAX_3PT_MONOID, OracleAnswer
from ptlang.subwords import EPSILON_CLASS


def min_dfa(a):
    return minimize(determinize(a))


def test_is_0pt():
    sigma_star = make_automaton(["q"], ["a"], [("q", "a", "q")], ["q"], ["q"])
    empty = make_automaton(["q"], ["a"], [("q", "a", "q")], ["q"], [])
    assert is_0pt(sigma_star) and is_0pt(empty)
    assert not is_0pt(dfa_only_epsilon())


def test_is_1pt_examples():
    assert is_1pt(dfa_piece(("a",), ("a", "b")))
    assert is_1pt(dfa_only_epsilon())
    # a.b requires order between two letters, so it is 2-PT but not 1-PT
    assert not is_1pt(dfa_piece(("a", "b"), ("a", "b")))
    assert not is_1pt(dfa_parity())


def test_is_1pt_matches_the_row_reference():
    rng = random.Random(29)
    cases = [
        random_complete_dfa(rng, max_states=6, letters=("a", "b", "c")[: rng.randint(1, 3)])
        for _ in range(300)
    ]
    assert any(len(a.reachable(a.starts)) < len(a.names) for a in cases)
    cases += [random_min_dfa(rng, max_states=6, letters=("a", "b", "c")[: rng.randint(1, 3)]) for _ in range(300)]
    cases += [
        make_automaton(["q"], letters, [("q", x, "q") for x in letters], ["q"], accepting)
        for letters in ((), ("a",), ("a", "b", "c"))
        for accepting in ([], ["q"])
    ]
    cases += [make_automaton(["p", "q"], [], [], ["q"], ["p"])]
    verdicts = [is_1pt(a) for a in cases]
    assert verdicts == [reference_is_1pt(a) for a in cases]
    assert 0 < sum(verdicts[:300]) < 300 and 0 < sum(verdicts[300:600]) < 300
    assert all(verdicts[600:])


def test_is_2pt_examples():
    assert is_2pt(dfa_piece(("a", "b"), ("a", "b")))
    assert is_2pt(dfa_only_epsilon())
    assert not is_2pt(dfa_piece(("a", "b", "a"), ("a", "b")))
    # Over one letter only the empty b tells a^3 apart: s1.a = s2, s1.aa = s3.
    assert not is_2pt(dfa_piece(("a", "a", "a"), ("a",)))
    assert not is_2pt(min_dfa(dfa_parity()))


def test_is_2pt_reads_only_reachable_states():
    # The chain u0 -a-> u1 -a-> u2 -a-> u3 breaks s.a = s.aa at u1, but no
    # word reaches it: the language is a*, 2-PT as its one-state minimization.
    states = ["q0", "u0", "u1", "u2", "u3"]
    transitions = [("q0", "a", "q0"), ("u0", "a", "u1"), ("u1", "a", "u2"), ("u2", "a", "u3"), ("u3", "a", "u3")]
    a = make_automaton(states, ["a"], transitions, ["q0"], ["q0"])
    assert is_2pt(a)
    assert is_2pt(min_dfa(a))


def test_is_3pt_examples():
    assert is_3pt(dfa_piece(("a", "b", "a"), ("a", "b"))) is True
    assert is_3pt(min_dfa(gen_ak(2))) is True
    assert is_3pt(min_dfa(dfa_parity())) is False
    # a^4 a*: PT but not 3-PT, and its 5-element monoid fits the cap
    a4 = dfa_piece(("a",) * 4, ("a",))
    assert len(a4.names) == len(transition_monoid(a4).elements) == 5
    assert is_3pt(a4) is False
    assert min_k(a4) == 4
    # A_3's 16-element monoid is over the cap, but at a budget of 16^5 or
    # more the identities find that it is not 3-PT.
    whole = transition_monoid(min_dfa(gen_ak(3)))
    assert len(whole.elements) == 16
    assert check_identity(whole, IDENTITIES[3], 2 * 10**6) is not None


def test_is_3pt_budget_returns_unknown(monkeypatch):
    # 16 monoid elements and 5 variables exceed the default budget
    assert is_3pt(min_dfa(gen_ak(3))) is None
    # The minimal tight (3,3) and (4,2) DFAs have 144 and 65 monoid
    # elements: identity 1 fits the default budget, the 5-variable ones do
    # not, so is_3pt gives up before it composes two elements and is_kpt
    # asks the oracle.
    composed = []
    compose = TransitionMonoid.compose
    monkeypatch.setattr(TransitionMonoid, "compose", staticmethod(lambda f, s: composed.append(f) or compose(f, s)))
    for k, n, size, verdict in [(3, 3, 144, "yes"), (4, 2, 65, "no")]:
        m = min_dfa(gen_tight_depth_dfa(k, n))
        monoid = transition_monoid(m)
        assert len(monoid.elements) == size
        monkeypatch.setattr(kpt, "transition_monoid", lambda a, budget: monoid)
        composed.clear()
        assert is_3pt(m) is None
        assert composed == []
        answer = is_kpt(m, 3)
        assert answer.verdict == verdict
        if verdict == "no":
            assert verify_certificate(m, answer.certificate)


def test_max_3pt_monoid_is_the_largest_the_default_budget_admits():
    # Identities 2 and 3 of IDENTITIES[3] have 5 variables.
    assert MAX_3PT_MONOID**5 <= DEFAULT_MONOID_BUDGET < (MAX_3PT_MONOID + 1) ** 5


def test_is_3pt_asks_only_for_a_monoid_its_identities_admit(monkeypatch):
    # The minimal tight (2,5) DFA's monoid is given up at its 16th element.
    asked = []
    build = kpt.transition_monoid
    monkeypatch.setattr(kpt, "transition_monoid", lambda a, budget: asked.append(budget) or build(a, budget))
    assert is_3pt(minimize(gen_tight_depth_dfa(2, 5))) is None
    assert asked == [15]


def test_is_3pt_cap_keeps_every_verdict():
    # is_3pt says what check_identity says on the whole monoid when it has
    # at most 15 elements, and None otherwise.  The random draws reach
    # monoids of 14, 15 and 16 elements, on both sides of the cap.
    rng = random.Random(1)
    cases = [min_dfa(gen_ak(2)), min_dfa(gen_ak(3))]
    cases += [min_dfa(gen_tight_depth_dfa(3, 3)), min_dfa(gen_tight_depth_dfa(4, 2))]
    draws = (random_min_dfa(rng, max_states=6) for _ in range(3000))
    sizes = set()
    for a in chain(cases, draws):
        whole = transition_monoid(a)
        size = len(whole.elements)
        sizes.add(size)
        expected = check_identity(whole, IDENTITIES[3]) is None if size <= MAX_3PT_MONOID else None
        assert is_3pt(a) is expected, a
        if {14, 15, 16} <= sizes:
            break
    assert {1, 14, 15, 16, 65, 144} <= sizes


def test_is_kpt_asks_is_3pt_only_of_pt_languages(monkeypatch):
    # A 9-cycle and a transposition generate S_9: the minimal DFA has 9
    # states and 9! monoid elements, and its cycles make it not PT.
    states = [f"q{i}" for i in range(9)]
    triples = [(f"q{i}", "c", f"q{(i + 1) % 9}") for i in range(9)]
    triples += [("q0", "t", "q1"), ("q1", "t", "q0")] + [(f"q{i}", "t", f"q{i}") for i in range(2, 9)]
    s9 = min_dfa(make_automaton(states, ["c", "t"], triples, ["q0"], ["q0"]))
    assert len(s9.names) == 9
    asked = []

    def recording_is_3pt(a):
        asked.append(a)
        return True

    monkeypatch.setattr(kpt, "is_3pt", recording_is_3pt)
    assert is_kpt(s9, 3).verdict == "no"
    assert asked == []
    piece = dfa_piece(("a", "b", "a"), ("a", "b"))
    assert is_kpt(piece, 3).verdict == "yes"
    assert asked == [piece]


def test_oracle_on_ak_family():
    for k in range(3):
        m = min_dfa(gen_ak(k))
        assert is_kpt_oracle(m, k).verdict == "no"
        assert is_kpt_oracle(m, k + 1).verdict == "yes"


def test_oracle_certificate_is_valid():
    m = min_dfa(gen_ak(2))
    answer = is_kpt_oracle(m, 2)
    assert answer.verdict == "no"
    assert verify_certificate(m, answer.certificate)


def test_oracle_budget_gives_unknown():
    m = min_dfa(gen_ak(2))
    assert is_kpt_oracle(m, 2, budget=3).verdict == "unknown"


def test_oracle_with_huge_k_stops_at_budget():
    # the classes reached within the budget hold only short words
    m = min_dfa(gen_ak(2))
    start = time.perf_counter()
    assert is_kpt_oracle(m, 10**6, 1000).verdict == "unknown"
    assert time.perf_counter() - start < 1.0


def reference_oracle(a, k, budget):
    """is_kpt_oracle one edge at a time over reference_class_edges, as the
    oracle once ran: each class keeps the state, parent and letter of its
    first edge, and the first later edge to another state is the
    certificate."""
    rows = [[nxt for (nxt,) in row] for row in a.rows]
    (start,) = a.starts
    seen = {EPSILON_CLASS: (start, None, None)}

    def access(cls):
        letters = []
        _, parent, letter = seen[cls]
        while parent is not None:
            letters.append(letter)
            _, parent, letter = seen[parent]
        return tuple(reversed(letters))

    try:
        for cls, letter, nxt, first_visit in reference_class_edges(a.alphabet, k, budget):
            state = rows[seen[cls][0]][a.alphabet.index(letter)]
            if first_visit:
                seen[nxt] = (state, cls, letter)
            elif seen[nxt][0] != state:
                certificate = Certificate(
                    k, access(nxt), access(cls) + (letter,), a.names[seen[nxt][0]], a.names[state]
                )
                return OracleAnswer("no", certificate)
    except BudgetExceededError:
        return OracleAnswer("unknown")
    return OracleAnswer("yes")


def budget_error(search):
    """The message of the BudgetExceededError `search()` raises, or None."""
    try:
        search()
    except BudgetExceededError as e:
        return str(e)
    return None


BUDGET_CASES = {
    "ak1": lambda: min_dfa(gen_ak(1)),
    "ak2": lambda: min_dfa(gen_ak(2)),
    "tight32": lambda: min_dfa(gen_tight_depth_dfa(3, 2)),
    "ab_star": dfa_ab_star,
}


@pytest.mark.parametrize(
    "case, k, verdicts",
    [
        ("ak1", 1, {("no", True), ("unknown", False)}),
        ("ak1", 2, {("yes", True), ("unknown", False)}),
        ("ak2", 2, {("no", True), ("no", False), ("unknown", False)}),
        ("tight32", 2, {("no", True), ("no", False), ("unknown", False)}),
        ("tight32", 3, {("yes", True), ("unknown", False)}),
        ("ab_star", 1, {("no", True), ("no", False), ("unknown", False)}),
    ],
)
def test_oracle_and_canonical_budgets_match_reference(case, k, verdicts):
    # every budget from 0 to the class count + 1: the same verdict and
    # certificate, and canonical_automaton raises at the same budgets with
    # the same message.  ("no", False) is a budget that runs out after the
    # first disagreeing edge: for ak2 at budget 66 and for (ab)* at budget
    # 3, inside the chunk that holds that edge.
    a = BUDGET_CASES[case]()
    count = 1 + sum(first for *_, first in reference_class_edges(a.alphabet, k))
    seen = set()
    for budget in range(count + 2):
        answer = is_kpt_oracle(a, k, budget)
        assert answer == reference_oracle(a, k, budget), budget
        error = budget_error(lambda: canonical_automaton(a.alphabet, k, budget))
        assert error == budget_error(lambda: list(reference_class_edges(a.alphabet, k, budget))), budget
        assert (error is None) == (budget >= count)
        seen.add((answer.verdict, error is None))
    assert seen == verdicts


def test_oracle_rejects_nfa():
    with pytest.raises(ContractError):
        is_kpt_oracle(gen_ak(1), 1)


def test_is_kpt_rejects_nfa():
    with pytest.raises(ContractError, match="^this operation requires a deterministic complete automaton$"):
        is_kpt(gen_ak(1), 1)


def test_specialized_deciders_agree_with_oracle():
    rng = random.Random(53)
    # The 300 draws hold fewer than 100 distinct DFAs, and an oracle "yes"
    # at k = 5 visits every ~_5 class, so each distinct DFA asks it once.
    oracle = {}
    for _ in range(300):
        m = random_min_dfa(rng, max_states=5)
        text = serialize_automaton(m)
        for k in range(6):
            if (text, k) not in oracle:
                oracle[text, k] = is_kpt_oracle(m, k).verdict
            assert is_kpt(m, k).verdict == oracle[text, k], (m, k)


def test_is_kpt_at_huge_k_needs_no_class_search():
    # A PT language is k-PT for every k from the depth of its minimal DFA
    # on (7 for A_2); a language that is not PT is k-PT for no k.
    for m, verdict in ((min_dfa(gen_ak(2)), "yes"), (min_dfa(dfa_parity()), "no")):
        start = time.perf_counter()
        assert is_kpt(m, 10**6).verdict == verdict
        assert time.perf_counter() - start < 1.0


def test_is_kpt_depth_bound_is_tight_on_pieces():
    # The piece of a word of length n is n-PT but not (n-1)-PT, and its
    # minimal DFA has depth n: the depth answers "yes" at n and no sooner.
    for n in (4, 5, 6):
        m = dfa_piece((("a", "b") * 3)[:n], ("a", "b"))
        assert depth(m) == n
        assert is_kpt(m, n - 1).verdict == is_kpt_oracle(m, n - 1).verdict == "no"
        assert is_kpt(m, n).verdict == "yes"


def test_kpt_is_monotone_in_k():
    rng = random.Random(59)
    for _ in range(100):
        m = random_min_dfa(rng, max_states=5)
        verdicts = [is_kpt_oracle(m, k).verdict for k in range(6)]
        first_yes = verdicts.index("yes") if "yes" in verdicts else len(verdicts)
        assert all(v == "no" for v in verdicts[:first_yes])
        assert all(v == "yes" for v in verdicts[first_yes:])


def test_verify_pair_and_certificate_roundtrip():
    m = min_dfa(gen_ak(3))
    w = gen_wk(3)
    assert verify_pair(m, 3, w[:-1], w)
    assert not verify_pair(m, 4, w[:-1], w)  # not 4-equivalent
    assert not verify_pair(m, 3, w, w)  # same state
    assert not verify_pair(m, 10**9, w, w)  # answered without 10**9 levels
    c = Certificate(3, w[:-1], w, m.dstate(w[:-1]), m.dstate(w))
    assert verify_certificate(m, c)
    wrong_state = Certificate(c.k, c.w1, c.w2, c.state2, c.state1)
    assert not verify_certificate(m, wrong_state)
    wrong_k = Certificate(4, c.w1, c.w2, c.state1, c.state2)
    assert not verify_certificate(m, wrong_k)


def test_min_k_examples():
    sigma_star = make_automaton(["q"], ["a"], [("q", "a", "q")], ["q"], ["q"])
    assert min_k(sigma_star) == 0
    assert min_k(dfa_only_epsilon()) == 1
    assert min_k(dfa_piece(("a", "b"), ("a", "b"))) == 2
    assert min_k(dfa_parity()) is None
    assert min_k(dfa_ab_star()) is None
    for k in range(3):
        assert min_k(gen_ak(k)) == k + 1
    assert min_k(gen_tight_depth_dfa(3, 3)) == 3
    assert min_k(gen_tight_depth_dfa(4, 2)) == 4


def test_min_k_interval_on_budget():
    # the k = 0..2 deciders say "no" without touching the budget; at k = 3
    # is_3pt gives up before it checks an identity: the monoid of A_3's
    # minimal DFA has 16 elements, one more than its cap MAX_3PT_MONOID = 15;
    # the oracle runs out of its 5 classes, and the walk stops with an
    # interval
    m = gen_ak(3)
    lo, hi = min_k(m, budget=5)
    assert lo <= 4 <= hi
    assert (lo, hi) == (3, 15)
    assert hi == depth(min_dfa(m))


def test_min_k_computes_depth_only_for_an_interval(monkeypatch):
    # An exact answer needs no depth of its own: is_kpt says "yes" or "no"
    # at each k below it, and the walk stops at the first "yes".
    calls = []
    monkeypatch.setattr(kpt, "depth", lambda a: calls.append(a) or depth(a))
    cases = [
        (gen_intersection_nfa(("a", "b", "c")), 1),
        (gen_ak(1), 2),
        (gen_tight_depth_dfa(2, 3), 2),
        (gen_ak(2), 3),  # is_3pt decides k = 3
    ]
    for a, expected in cases:
        assert min_k(a) == expected
    assert calls == []


def test_depth_within_the_tight_bound_at_min_k():
    # The paper's bound read the other way: the minimal DFA of a k-PT
    # language over n letters has depth at most P(k, n) = C(k+n, k) - 1.
    rng = random.Random(67)
    checked = 0
    for letters in (("a", "b"), ("a", "b", "c")):
        for _ in range(150):
            m = random_min_dfa(rng, max_states=6, letters=letters)
            k = min_k(m)
            if k is None or k == 0:
                continue
            assert isinstance(k, int)
            assert depth(m) <= pkn(k, len(m.alphabet)), (m, k)
            checked += 1
    assert checked >= 50


def test_min_k_bounded_by_depth():
    rng = random.Random(61)
    for _ in range(100):
        m = random_min_dfa(rng, max_states=5)
        k = min_k(m)
        if k is None:
            continue
        assert 0 <= k <= depth(m)


def test_decompose_piece_language():
    lab = dfa_piece(("a", "b"), ("a", "b"))
    expr = decompose(lab, 2)
    for w in all_words(("a", "b"), 7):
        assert eval_piece_expression(expr, w) == lab.accepts(w)


def test_decompose_epsilon_language():
    expr = decompose(dfa_only_epsilon(("a", "b")), 1)
    assert len(expr.clauses) == 1
    (clause,) = expr.clauses
    assert clause.required == frozenset()
    assert clause.forbidden == frozenset({("a",), ("b",)})


def test_empty_alphabet():
    # The class search has no edge to follow; [epsilon] is the only class.
    everything = make_automaton(["q"], [], [], ["q"], ["q"])
    assert is_kpt_oracle(everything, 2).verdict == "yes"
    (clause,) = decompose(everything, 2).clauses
    assert clause.required == clause.forbidden == frozenset()


def test_decompose_rejects_wrong_k():
    with pytest.raises(ContractError):
        decompose(dfa_piece(("a", "b"), ("a", "b")), 1)


def test_decompose_random_corpus():
    rng = random.Random(67)
    checked = 0
    for _ in range(200):
        m = random_min_dfa(rng, max_states=4)
        k = min_k(m)
        if not isinstance(k, int) or k > 3:
            continue
        checked += 1
        expr = decompose(m, k)
        for w in all_words(m.alphabet, 6):
            assert eval_piece_expression(expr, w) == m.accepts(w), (m, k, w)
    assert checked >= 30
