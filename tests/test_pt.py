import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    brute_locally_confluent,
    dfa_ab_star,
    dfa_only_epsilon,
    dfa_parity,
    has_cycle_dfs,
    random_min_dfa,
    random_nfa,
    random_po_complete_nfa,
)

from ptlang import (
    ContractError,
    CyclicAutomatonError,
    complete_with_sink,
    depth,
    determinize,
    gen_ak,
    gen_intersection_nfa,
    is_pt,
    is_pt_min_dfa,
    is_kpt_oracle,
    certify_pt_nfa,
    make_automaton,
    min_k,
    minimize,
    verify_pair,
)
from ptlang import automata
from ptlang.automata import partial_order
from ptlang.cli import parse_automaton
from ptlang.pt import find_ums_violation


def pt_by_confluence(m):
    """PT of a minimal DFA by partial order and local confluence (word search)."""
    return not has_cycle_dfs(m) and brute_locally_confluent(m)


def reference_ums_violation(a):
    """The UMS test written out state by state: for each p, rebuild the graph
    restricted to p's self-loop letters, take p's component in both
    directions, and list its states with no edge to another state."""
    for p in sorted(a.states):
        gamma = {x for (q, x), dsts in a.transitions.items() if q == p and p in dsts}
        out = {q: set() for q in a.states}
        und = {q: set() for q in a.states}
        for (src, letter), dsts in a.transitions.items():
            if letter in gamma:
                for dst in dsts:
                    out[src].add(dst)
                    und[src].add(dst)
                    und[dst].add(src)
        component, frontier = {p}, [p]
        while frontier:
            for r in und[frontier.pop()] - component:
                component.add(r)
                frontier.append(r)
        maximal = sorted(q for q in component if not (out[q] - {q}))
        if maximal != [p]:
            return (p, next(q for q in maximal if q != p))
    return None


def test_one_state_dfa_is_confluent():
    one = make_automaton(["q"], ["a", "b"], [("q", "a", "q"), ("q", "b", "q")], ["q"], ["q"])
    assert pt_by_confluence(one)
    assert is_pt_min_dfa(one) == pt_by_confluence(one)


def test_epsilon_dfa_is_confluent():
    m = dfa_only_epsilon(("a", "b"))
    assert pt_by_confluence(m)
    assert is_pt_min_dfa(m) == pt_by_confluence(m)


def test_ab_star_confluence_and_pt():
    a = dfa_ab_star()
    assert is_pt_min_dfa(a) == pt_by_confluence(a)
    # the PT pipeline rejects the language at the partial-order stage
    with pytest.raises(ContractError):
        find_ums_violation(a)
    assert not is_pt(a)


def test_confluence_matches_brute_force_on_random_dfas():
    rng = random.Random(17)
    for _ in range(100):
        a = random_min_dfa(rng, max_states=5)
        assert is_pt_min_dfa(a) == pt_by_confluence(a)


def test_ums_on_a2_and_trivia():
    assert find_ums_violation(gen_ak(2)) is None
    single = make_automaton(["q"], ["a", "b"], [("q", "a", "q")], ["q"], [])
    assert find_ums_violation(single) is None


def test_ums_two_maximal_states():
    a = make_automaton(
        ["p", "q1", "q2"], ["a"],
        [("p", "a", "q1"), ("p", "a", "q2"), ("q1", "a", "q1"), ("q2", "a", "q2")],
        ["p"], ["q1"],
    )
    violation = find_ums_violation(a)
    assert violation is not None
    assert set(violation) == {"q1", "q2"}


def test_ums_requires_partial_order():
    with pytest.raises(ContractError):
        find_ums_violation(dfa_parity())


def test_is_pt_min_dfa_examples():
    assert is_pt_min_dfa(dfa_only_epsilon())
    assert not is_pt_min_dfa(minimize(determinize(dfa_parity())))
    sigma_star = make_automaton(["q"], ["a"], [("q", "a", "q")], ["q"], ["q"])
    assert is_pt_min_dfa(sigma_star)


def test_certify_pt_nfa():
    a2 = gen_ak(2)
    assert not certify_pt_nfa(a2)  # incomplete, hence inconclusive
    assert certify_pt_nfa(complete_with_sink(a2))
    # a minimal DFA of a PT language certifies itself
    assert certify_pt_nfa(minimize(determinize(a2)))


def test_is_pt_examples():
    for k in range(6):
        assert is_pt(gen_ak(k))
    assert not is_pt(dfa_parity())
    empty = make_automaton(["q"], ["a"], [("q", "a", "q")], ["q"], [])
    assert is_pt(empty)


def test_confluence_iff_ums_on_partially_ordered_dfas():
    rng = random.Random(41)
    for _ in range(500):
        m = random_min_dfa(rng, max_states=6, letters=("a", "b", "c"))
        if has_cycle_dfs(m):
            continue
        assert is_pt_min_dfa(m) == pt_by_confluence(m), find_ums_violation(m)


def test_ums_matches_state_by_state_reference():
    rng = random.Random(53)
    cases = [random_po_complete_nfa(rng, max_states=5) for _ in range(500)]
    drawn = (random_min_dfa(rng, max_states=6, letters=("a", "b", "c")) for _ in range(500))
    cases += [m for m in drawn if not has_cycle_dfs(m)]
    cases += [complete_with_sink(gen_ak(k)) for k in range(6)]
    cases += [gen_intersection_nfa(tuple(f"a{i}" for i in range(n))) for n in range(1, 7)]
    cases += [
        make_automaton([], [], [], [], []),
        make_automaton([], ["a"], [], [], []),
        make_automaton(["p", "q"], [], [], ["p"], ["q"]),
        # a loop and a move on one letter: p is not maximal in its component
        make_automaton(["p", "q"], ["a"], [("p", "a", "p"), ("p", "a", "q"), ("q", "a", "q")], ["p"], ["q"]),
        make_automaton(
            ["p", "q", "r"], ["a", "b"],
            [("p", "a", "p"), ("p", "a", "r"), ("p", "b", "q"), ("q", "a", "q"), ("q", "b", "q"),
             ("r", "a", "r"), ("r", "b", "r")],
            ["p"], ["r"],
        ),
        # several initial states
        make_automaton(
            ["p", "q1", "q2"], ["a", "b"],
            [("p", "b", "q1"), ("p", "b", "q2"), ("q1", "a", "q1"), ("q1", "b", "q1"), ("q2", "b", "q2")],
            ["p", "q1", "q2"], ["q1"],
        ),
        make_automaton(["p", "q"], ["a"], [("p", "a", "p"), ("q", "a", "q")], ["p", "q"], ["p"]),
    ]
    violations = 0
    for a in cases:
        expected = reference_ums_violation(a)
        assert find_ums_violation(a) == expected, a
        violations += expected is not None
    assert 0 < violations < len(cases)


def _beside_intersection_nfa(gadget):
    """The 12-letter intersection NFA (4,096 states, no UMS violation) with
    the triples of `gadget` added; gadget states are named "~..." so they
    sort after every "{...}" state, past the first 4,096 indices."""
    a = gen_intersection_nfa(tuple(f"a{i}" for i in range(12)))
    triples = [(q, x, r) for (q, x), rs in a.transitions.items() for r in rs] + gadget
    states = sorted(a.states | {q for q, _, r in gadget} | {r for _, _, r in gadget})
    return make_automaton(states, a.alphabet, triples, a.initials, a.accepting)


def test_ums_beyond_the_first_window():
    # ~q1 and ~q2 both loop on a0 and share ~p: the only violation is ~q1,
    # at index 4,097
    a = _beside_intersection_nfa(
        [("~p", "a0", "~q1"), ("~p", "a0", "~q2"), ("~q1", "a0", "~q1"), ("~q2", "a0", "~q2")]
    )
    assert len(a.names) == 4099
    assert find_ums_violation(a) == ("~q1", "~q2")
    # ~p joins {a0}'s a0-edges to ~q1, a maximal state, so every state
    # looping on a0, the full letter set (index 0) first, now violates;
    # its partner lies past the first window
    b = _beside_intersection_nfa([("~p", "a0", "~q1"), ("~p", "a0", "{a0}"), ("~q1", "a0", "~q1")])
    assert find_ums_violation(b) == ("{a0,a1,a10,a11,a2,a3,a4,a5,a6,a7,a8,a9}", "~q1")
    assert find_ums_violation(_beside_intersection_nfa([])) is None


@st.composite
def po_complete_nfas(draw):
    """Complete NFAs whose moves never lead to an earlier state."""
    names = [f"q{i}" for i in range(draw(st.integers(0, 10)))]
    letters = tuple("abcd"[: draw(st.integers(0, 4))])
    triples = [
        (q, x, r)
        for i, q in enumerate(names)
        for x in letters
        for r in draw(st.sets(st.sampled_from(names[i:]), min_size=1))
    ]
    initials = draw(st.sets(st.sampled_from(names))) if names else set()
    accepting = draw(st.sets(st.sampled_from(names))) if names else set()
    return make_automaton(names, letters, triples, initials, accepting)


@settings(max_examples=200, deadline=None)
@given(po_complete_nfas())
def test_ums_and_certificate_properties(a):
    assert find_ums_violation(a) == reference_ums_violation(a)
    if certify_pt_nfa(a):
        assert is_pt_min_dfa(minimize(determinize(a)))


def test_nfa_certificate_soundness():
    rng = random.Random(43)
    certified = 0
    for _ in range(500):
        a = random_po_complete_nfa(rng, max_states=5)
        if certify_pt_nfa(a):
            certified += 1
            assert is_pt_min_dfa(minimize(determinize(a)))
    assert certified > 0


def test_sink_completed_certificate_is_sound_and_is_pt_agrees():
    # is_pt tries the certificate on the sink-completed NFA: it must never
    # certify a non-PT language, and the verdict must stay the minimal DFA's.
    rng = random.Random(59)
    cases = [random_nfa(rng, max_states=5, letters=("a", "b", "c")[: rng.randint(1, 3)]) for _ in range(500)]
    cases += [gen_ak(k) for k in range(10)]
    certified = incomplete_certified = 0
    for a in cases:
        verdict = is_pt_min_dfa(minimize(determinize(a)))
        if certify_pt_nfa(complete_with_sink(a)):
            assert verdict, a
            certified += 1
            incomplete_certified += not a.complete
        assert is_pt(a) == verdict, a
    assert incomplete_certified >= 10 and certified < len(cases)


def test_is_pt_certifies_ak_without_determinizing(monkeypatch):
    # The minimal DFA of A_12 has 2^13 states; the sink-completed A_12 is a
    # ptNFA, so no subset construction is needed.  Any other NFA is
    # determinized where `Automaton.minimal` is built.
    def refuse(a):
        raise AssertionError("is_pt determinized a certified ptNFA")

    monkeypatch.setattr(automata, "determinize", refuse)
    assert is_pt(gen_ak(12))
    with pytest.raises(AssertionError):
        is_pt(parse_automaton(CYCLIC_NFA))


def test_pt_implies_kpt_at_depth():
    # a PT language is k-PT for k at least the depth of its minimal DFA
    rng = random.Random(47)
    checked = 0
    for _ in range(200):
        m = random_min_dfa(rng, max_states=5)
        if not is_pt_min_dfa(m):
            continue
        checked += 1
        assert is_kpt_oracle(m, depth(m)).verdict == "yes"
    assert checked >= 20


# An NFA that is not PT: its minimal DFA has the cycle {q2,q4} b {q3,q4} a
# {q4,q5} a {q2,q4}.  A cycle check that keeps one subset per minimal state,
# the first one found, misses it: the state of {q2,q4} is first reached at
# the equivalent subset {q2}, which is not on the cycle.  It is the NFA
# `nfa8` of the benchmark's `nfa-pt` workload at seed 72, whose reference
# check `jt_counterexample` makes that mistake and flags the correct "not PT".
CYCLIC_NFA = """\
alphabet: a b
states: q0 q1 q2 q3 q4 q5
initial: q1 q4
accepting: q2 q3
q1 a q3
q1 b q2
q2 a q0
q2 b q3
q3 a q5
q4 a q4
q5 a q2
q5 b q4
"""


def test_cycle_through_non_representative_states_is_not_pt():
    a = parse_automaton(CYCLIC_NFA)
    assert not is_pt(a)
    assert min_k(a) is None
    m = minimize(determinize(a))
    assert len(m.names) == 5
    with pytest.raises(CyclicAutomatonError):
        partial_order(m)
    assert has_cycle_dfs(m)
    for k in range(1, 5):
        w = ("b", "b") + ("a", "a", "b") * k + ("a",)
        assert verify_pair(m, k, w, w + ("a",))
