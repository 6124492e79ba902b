import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import (
    all_words,
    dfa_only_epsilon,
    dfa_piece,
    dfa_walk,
    has_cycle_dfs,
    languages_agree,
    random_acyclic_complete_dfa,
    random_complete_dfa,
    random_min_dfa,
    random_nfa,
    random_po_complete_nfa,
    random_word,
    reference_depth,
    reference_determinize,
    reference_minimize,
)

import ptlang
from ptlang import (
    BudgetExceededError,
    ContractError,
    CyclicAutomatonError,
    InputError,
    TransitionMonoid,
    canonical_automaton,
    check_identity,
    complete_with_sink,
    depth,
    determinize,
    gen_ak,
    gen_intersection_nfa,
    gen_tight_depth_dfa,
    is_pt,
    is_pt_min_dfa,
    make_automaton,
    minimize,
    transition_monoid,
)
from ptlang.automata import dfa_columns, dfa_rows, partial_order
from ptlang.cli import parse_automaton, serialize_automaton
from ptlang.pt import find_ums_violation


def test_run_empty_word_gives_initials():
    a2 = gen_ak(2)
    assert a2.run(()) == frozenset({"0", "1", "2"})
    rng = random.Random(1)
    for _ in range(20):
        a = random_nfa(rng)
        assert a.run(()) == a.initials


def test_run_single_letter_on_a2():
    # 2.a2 = {0,1}; states 0 and 1 have no a2 transition at all.
    a2 = gen_ak(2)
    assert a2.run(("a2",)) == frozenset({"0", "1"})
    assert a2.run(("a1",)) == frozenset({"0", "2"})
    with pytest.raises(ContractError, match="^dstate requires a deterministic automaton$"):
        a2.dstate(("a2",))


def test_accepts_agrees_with_run():
    rng = random.Random(53)
    for _ in range(100):
        a = random_nfa(rng)
        for w in all_words(a.alphabet, 4):
            assert a.accepts(w) == bool(a.run(w) & a.accepting)


def test_run_unknown_letter():
    with pytest.raises(InputError):
        gen_ak(1).run(("b",))


def test_determinize_a0():
    d = determinize(gen_ak(0))
    assert d.states == frozenset({"{0}", "{}"})
    assert d.deterministic and d.complete
    assert d.accepts(()) and not d.accepts(("a0",)) and not d.accepts(("a0", "a0"))


def test_determinize_idempotent_on_complete_dfa():
    rng = random.Random(7)
    for _ in range(30):
        a = random_complete_dfa(rng)
        d = determinize(a)
        words = list(all_words(a.alphabet, 6))
        assert languages_agree(a, d, words)
        # the subset automaton of a DFA is its reachable part
        assert len(d.states) <= len(a.states)


def test_min_dfa_of_a2_size_and_depth():
    # 8 residual languages, counted independently by acceptance profiles;
    # depth 7 = 2^(2+1) - 1.
    m = minimize(determinize(gen_ak(2)))
    assert len(m.states) == 8
    assert depth(m) == 7


def _fields(a):
    return a.names, a.rows, a.starts, a.finals


def test_minimize_fixpoint():
    # On a minimal DFA, minimize gives back the same names, rows, starts
    # and finals.
    rng = random.Random(43)
    minimal = [minimize(determinize(gen_ak(1)))]
    minimal += [random_min_dfa(rng, max_states=7, letters=("a", "b", "c")[: rng.randint(1, 3)]) for _ in range(300)]
    for m in minimal:
        assert _fields(minimize(m)) == _fields(m)


def test_minimize_of_det_a0_accepts_only_epsilon():
    m = minimize(determinize(gen_ak(0)))
    assert len(m.states) == 2
    for w in all_words(m.alphabet, 5):
        assert m.accepts(w) == (w == ())


def test_minimize_collapses_equivalent_states():
    a = make_automaton(
        ["i", "p", "q1", "q2"], ["a", "b"],
        [("i", "a", "p"), ("i", "b", "p"),
         ("p", "a", "q1"), ("p", "b", "q2"),
         ("q1", "a", "q1"), ("q1", "b", "q1"),
         ("q2", "a", "q2"), ("q2", "b", "q2")],
        ["i"], ["q1", "q2"],
    )
    m = minimize(a)
    assert len(m.states) == 3
    assert languages_agree(a, m, all_words(a.alphabet, 6))


def test_minimize_rejects_nondeterministic_input():
    with pytest.raises(ContractError):
        minimize(gen_ak(1))


def _shuffled_complete_dfa(rng):
    """A random complete DFA whose state names sort unlike their creation
    order, with unreachable and equivalent states likely."""
    names = rng.sample(["q0", "q1", "q10", "q2", "b", "a,b", "Z", "z"], rng.randint(1, 7))
    letters = ("x", "y")
    triples = [(q, c, rng.choice(names)) for q in names for c in letters]
    return make_automaton(names, letters, triples, [names[0]], rng.sample(names, rng.randint(0, len(names))))


def test_table_rows_agree_with_transitions():
    rng = random.Random(37)
    for _ in range(200):
        a = _shuffled_complete_dfa(rng)
        rows = dfa_rows(a)
        assert list(a.names) == sorted(a.states)
        assert {a.names[q] for q in a.starts} == a.initials
        assert {a.names[q] for q in a.finals} == a.accepting
        for q, row in enumerate(rows):
            assert [{a.names[r]} for r in row] == [a.transitions[a.names[q], c] for c in a.alphabet]
            assert [(r,) for r in row] == list(a.rows[q])
        cols = dfa_columns(a)
        assert len(cols) == len(a.alphabet)
        for j, col in enumerate(cols):
            assert col == [row[j] for row in rows]
    # An empty alphabet has no columns.
    assert dfa_columns(make_automaton(["p", "q"], [], [], ["q"], [])) == []


def test_table_requires_a_complete_dfa():
    partial = make_automaton(["p", "q"], ["a"], [("p", "a", "q")], ["p"], ["q"])
    # The k-PT deciders read `Automaton.minimal` instead, so an NFA gets its
    # minimal DFA's answer there (test_kpt.py).
    for algorithm in (dfa_rows, dfa_columns, minimize, transition_monoid):
        for a in (gen_ak(1), partial):
            with pytest.raises(ContractError, match="^this operation requires a deterministic complete automaton$"):
                algorithm(a)


def test_minimize_names_each_state_after_its_least_member():
    # Brute force: states with the same residual language, probed on every
    # word up to the state count, merge into one named after the least.
    rng = random.Random(41)
    for _ in range(150):
        a = _shuffled_complete_dfa(rng)
        probes = list(all_words(a.alphabet, len(a.states)))
        reachable = {a.dstate(w) for w in probes}

        def residual(dfa, q):
            return tuple(dfa_walk(dfa, q, w) in dfa.accepting for w in probes)

        merged = {}
        for q in reachable:
            merged.setdefault(residual(a, q), []).append(q)
        m = minimize(a)
        assert m.states == {min(qs) for qs in merged.values()}
        assert m.initials == {min(merged[residual(a, a.dstate(()))])}
        for q in m.states:
            assert residual(m, q) == residual(a, q)


def test_minimize_matches_the_reference_refinement():
    rng = random.Random(47)
    inputs = [_shuffled_complete_dfa(rng) for _ in range(200)]
    inputs += [
        random_complete_dfa(rng, max_states=8, letters=("a", "b", "c")[: rng.randint(1, 3)])
        for _ in range(200)
    ]
    inputs += [determinize(gen_ak(k)) for k in range(6)]
    inputs += [gen_tight_depth_dfa(2, 3), gen_tight_depth_dfa(3, 2)]
    for a in inputs:
        assert _fields(minimize(a)) == _fields(reference_minimize(a)), a


def test_minimize_edge_cases():
    # An empty alphabet: the start state alone remains.
    empty = make_automaton(["p", "q"], [], [], ["q"], ["q"])
    assert _fields(minimize(empty)) == (("q",), ((),), {0}, {0})
    # A start state no other state reaches, and a 2-cycle it cannot reach.
    cycle = make_automaton(
        ["a", "b", "c"], ["x"], [("a", "x", "a"), ("b", "x", "c"), ("c", "x", "b")], ["a"], ["b"],
    )
    assert _fields(minimize(cycle)) == (("a",), (((0,),),), {0}, set())
    # One state, accepting or not.
    for accepting in ([], ["s"]):
        one = make_automaton(["s"], ["x", "y"], [("s", "x", "s"), ("s", "y", "s")], ["s"], accepting)
        assert _fields(minimize(one)) == (("s",), (((0,), (0,)),), {0}, {0} if accepting else set())


def test_complete_with_sink():
    a2 = gen_ak(2)
    done = complete_with_sink(a2)
    assert done.complete
    assert len(done.states) == len(a2.states) + 1
    sink = next(iter(done.states - a2.states))
    assert done.transitions["0", "a0"] == frozenset({sink})
    assert languages_agree(a2, done, all_words(a2.alphabet, 5))
    # already complete: unchanged, no sink added
    assert complete_with_sink(done) is done


def test_complete_with_sink_primes_a_taken_name():
    # `sink` and `sink'` are taken, so the sink is `sink''`
    a = make_automaton(
        ["p", "sink", "sink'", "z"], ["a", "b"],
        [("p", "a", "sink"), ("sink", "b", "sink'"), ("sink'", "a", "z"), ("z", "b", "z")],
        ["p"], ["z"],
    )
    done = complete_with_sink(a)
    assert done.complete
    assert done.names == ("p", "sink", "sink'", "sink''", "z")
    assert done.states - a.states == {"sink''"}
    assert done.transitions["p", "b"] == {"sink''"}
    assert languages_agree(a, done, all_words(a.alphabet, 5))
    assert is_pt(a) == is_pt_min_dfa(minimize(determinize(a)))


def _raises(error, check, a) -> bool:
    try:
        check(a)
    except error:
        return True
    return False


def _refuses_cycle(a) -> bool:
    # depth and the UMS check must agree on whether a is partially ordered
    refused = _raises(CyclicAutomatonError, depth, a)
    assert _raises(CyclicAutomatonError, find_ums_violation, a) == refused
    return refused


def test_is_partially_ordered_examples():
    assert not _refuses_cycle(gen_ak(2))
    loops = make_automaton(["q"], ["a", "b"], [("q", "a", "q"), ("q", "b", "q")], ["q"], ["q"])
    assert not _refuses_cycle(loops)
    two_cycle = make_automaton(["p", "q"], ["a"], [("p", "a", "q"), ("q", "a", "p")], ["p"], [])
    assert _refuses_cycle(two_cycle)


def test_is_partially_ordered_matches_dfs():
    # depth and the UMS check each refuse a cycle through distinct states,
    # exactly when the depth-first reference finds one
    rng = random.Random(11)
    for _ in range(500):
        a = random_nfa(rng, max_states=6, letters=("a", "b", "c"))
        cyclic = has_cycle_dfs(a)
        assert _raises(CyclicAutomatonError, depth, a) == cyclic
        assert _raises(CyclicAutomatonError, find_ums_violation, a) == cyclic


def test_depth_of_ak_family():
    for k in range(6):
        assert depth(gen_ak(k)) == k
        assert depth(minimize(determinize(gen_ak(k)))) == 2 ** (k + 1) - 1


def test_depth_trivial_and_cyclic():
    single = make_automaton(["q"], ["a"], [("q", "a", "q")], ["q"], [])
    assert depth(single) == 0
    two_cycle = make_automaton(["p", "q"], ["a"], [("p", "a", "q"), ("q", "a", "p")], ["p"], [])
    with pytest.raises(CyclicAutomatonError):
        depth(two_cycle)


def test_partial_order_splits_each_row_and_orders_moves_forward():
    # The one pass splits every row exactly into moves to other states and
    # self-loop letters, every move goes forward in its order, and it
    # raises exactly when the depth-first reference finds a cycle.
    rng = random.Random(23)
    cases = [random_nfa(rng, max_states=6, letters=("a", "b", "c")) for _ in range(500)]
    cases += [random_po_complete_nfa(rng, max_states=6, letters=("a", "b", "c")) for _ in range(500)]
    ordered = 0
    for a in cases:
        if has_cycle_dfs(a):
            with pytest.raises(CyclicAutomatonError):
                partial_order(a)
            continue
        ordered += 1
        moves, loops, order = partial_order(a)
        assert sorted(order) == list(range(len(a.names)))
        position = {q: i for i, q in enumerate(order)}
        for q, row in enumerate(a.rows):
            split = [
                sorted([r for x, r in moves[q] if x == j] + [q] * loops[q].count(j))
                for j in range(len(a.alphabet))
            ]
            assert split == [list(dsts) for dsts in row]
            assert all(position[q] < position[r] for _, r in moves[q])
    assert ordered >= 500


def test_depth_matches_longest_path_reference():
    rng = random.Random(29)
    letters = ("a", "b", "c")
    cases = [random_po_complete_nfa(rng, max_states=7, letters=letters) for _ in range(200)]
    dfas = [random_acyclic_complete_dfa(rng, max_states=8, letters=letters) for _ in range(200)]
    cases += dfas + [minimize(d) for d in dfas]
    cases += [a for a in (random_nfa(rng, max_states=6) for _ in range(300)) if not has_cycle_dfs(a)]
    cases += [gen_ak(k) for k in range(4)] + [minimize(determinize(gen_ak(k))) for k in range(4)]
    cases += [gen_tight_depth_dfa(2, 3), minimize(gen_tight_depth_dfa(3, 2))]
    assert len(cases) > 600
    for a in cases:
        assert depth(a) == reference_depth(a), a


def test_transition_monoid_of_piece_dfa():
    la = dfa_piece(("a",), ("a",))
    m = transition_monoid(la)
    assert len(m.elements) == 2
    (gen,) = map(tuple, dfa_columns(la))
    assert gen in m.elements
    assert TransitionMonoid.compose(gen, gen) == gen


def test_transition_monoid_one_state():
    one = make_automaton(["q"], ["a"], [("q", "a", "q")], ["q"], ["q"])
    m = transition_monoid(one)
    assert m.elements == frozenset({m.identity})


def test_monoid_of_pt_language_is_aperiodic():
    # x^omega = x^(omega+1): no nontrivial group inside.
    m = transition_monoid(minimize(determinize(gen_ak(2))))
    n = len(m.elements)
    for x in m.elements:
        power = x
        for _ in range(n):
            power = TransitionMonoid.compose(power, x)
        assert TransitionMonoid.compose(power, x) == power


def test_transition_monoid_budget():
    with pytest.raises(BudgetExceededError):
        transition_monoid(minimize(determinize(gen_ak(2))), budget=3)


def test_check_identity_on_epsilon_dfa():
    m = transition_monoid(dfa_only_epsilon())
    assert len(m.elements) == 2
    assert check_identity(m, [("x", "xx")]) is None
    assert check_identity(m, [("xy", "yx")]) is None


def test_check_identity_violation():
    lab = dfa_piece(("a", "b"), ("a", "b"))
    m = transition_monoid(lab)
    violation = check_identity(m, [("xy", "yx")])
    assert violation is not None
    x, y = violation["x"], violation["y"]
    assert TransitionMonoid.compose(x, y) != TransitionMonoid.compose(y, x)
    assert check_identity(m, [("x", "x")]) is None
    # Of two identities, only the second fails: its violation comes back.
    violation = check_identity(m, [("x", "x"), ("xy", "yx")])
    x, y = violation["x"], violation["y"]
    assert TransitionMonoid.compose(x, y) != TransitionMonoid.compose(y, x)


def test_check_identity_beyond_the_table():
    # The full transformation monoid on 5 states, generated by a 5-cycle, a
    # transposition and the map 0 -> 1 fixing the rest, has 5^5 = 3125
    # elements.  Its composition table has 3125^2 cells, more than the
    # default budget, even for an identity in one variable.
    states = [str(i) for i in range(5)]
    triples = [(str(i), "c", str((i + 1) % 5)) for i in range(5)]
    triples += [("0", "t", "1"), ("1", "t", "0")] + [(str(i), "t", str(i)) for i in range(2, 5)]
    triples += [("0", "e", "1")] + [(str(i), "e", str(i)) for i in range(1, 5)]
    m = transition_monoid(make_automaton(states, ["c", "t", "e"], triples, ["0"], []))
    assert len(m.elements) == 3125
    with pytest.raises(BudgetExceededError, match=r"^budget of 1000000 assignments exceeded \(reached 9765625\)$"):
        check_identity(m, [("x", "xx")])


def test_check_identity_budget(monkeypatch):
    m = transition_monoid(dfa_piece(("a", "b"), ("a", "b")))
    with pytest.raises(BudgetExceededError):
        check_identity(m, [("xy", "yx")], budget=10)
    # Over 5 elements xy=yx needs 25 and xyz=zyx 125: a budget between the
    # two refuses the list for the wider identity before it composes any
    # two elements.
    composed = []
    compose = TransitionMonoid.compose
    monkeypatch.setattr(TransitionMonoid, "compose", staticmethod(lambda f, s: composed.append(f) or compose(f, s)))
    with pytest.raises(BudgetExceededError, match=r"^budget of 100 assignments exceeded \(reached 125\)$"):
        check_identity(m, [("xy", "yx"), ("xyz", "zyx")], budget=100)
    assert composed == []


def test_determinize_preserves_language():
    rng = random.Random(23)
    for _ in range(20):
        a = random_nfa(rng)
        d = determinize(a)
        assert d.deterministic and d.complete
        words = [random_word(rng, a.alphabet, 12) for _ in range(200)]
        assert languages_agree(a, d, words)


@st.composite
def nfas_with_separator_names(draw):
    names = draw(
        st.lists(st.text(alphabet="ab,{}", min_size=1, max_size=3), min_size=1, max_size=5, unique=True)
    )
    state = st.sampled_from(names)
    triples = draw(st.lists(st.tuples(state, st.sampled_from("xy"), state), max_size=12))
    initials = draw(st.sets(state, min_size=1))
    accepting = draw(st.sets(state))
    return make_automaton(names, ("x", "y"), triples, initials, accepting)


def _collision(s, a, b, ab):
    # s -x-> {a, b} and s -y-> {ab}, where ab is a's and b's names joined
    # by a comma: both subsets print as the same sorted member list.
    return make_automaton(
        [s, a, b, ab], ("x", "y"), [(s, "x", a), (s, "x", b), (s, "y", ab)], [s], [a]
    )


def assert_same_subset_dfa(a):
    d, ref = determinize(a), reference_determinize(a)
    assert (d.names, d.rows, d.starts, d.finals) == (ref.names, ref.rows, ref.starts, ref.finals)


def test_determinize_matches_the_reference_construction():
    rng = random.Random(41)
    cases = [random_nfa(rng, letters=("a", "b", "c")[: rng.randint(1, 3)]) for _ in range(300)]
    cases += [_collision("s", "a", "b", "a,b"), _collision("{s}", "{a}", "{b}", "{a},{b}")]
    # No initial state: the empty subset is the start and the sink.
    cases.append(make_automaton(["p", "q"], ("a",), [("p", "a", "q")], [], ["q"]))
    # No letters: the start subset is the only state.
    cases.append(make_automaton(["p", "q"], (), [], ["p", "q"], ["q"]))
    cases += [gen_ak(k) for k in range(9)]
    cases += [gen_intersection_nfa(tuple(f"a{i}" for i in range(n))) for n in range(1, 9)]
    for a in cases:
        assert_same_subset_dfa(a)


@example(_collision("s", "a", "b", "a,b"))
@example(_collision("{s}", "{a}", "{b}", "{a},{b}"))
@settings(max_examples=60)
@given(nfas_with_separator_names())
def test_determinize_with_separator_state_names(a):
    assert_same_subset_dfa(a)
    d = determinize(a)
    assert d.deterministic and d.complete
    subsets: dict[str, set] = {}
    for w in all_words(a.alphabet, 4):
        assert d.accepts(w) == a.accepts(w)
        subsets.setdefault(d.dstate(w), set()).add(a.run(w))
    # distinct reachable subsets never share a DFA state
    assert all(len(found) == 1 for found in subsets.values())


def test_minimize_preserves_language_and_distinguishes():
    rng = random.Random(29)
    for _ in range(20):
        a = random_nfa(rng)
        m = minimize(determinize(a))
        words = [random_word(rng, a.alphabet, 12) for _ in range(200)]
        assert languages_agree(a, m, words)
        # every state pair has a distinguishing word
        probes = list(all_words(m.alphabet, len(m.states)))
        for p in m.states:
            for q in m.states:
                if p >= q:
                    continue
                assert any(
                    (dfa_walk(m, p, w) in m.accepting)
                    != (dfa_walk(m, q, w) in m.accepting)
                    for w in probes
                ), (p, q)


def test_monoid_associativity_and_identity():
    rng = random.Random(31)
    for _ in range(10):
        a = random_complete_dfa(rng, max_states=4)
        m = transition_monoid(a)
        elems = sorted(m.elements)
        for x in elems:
            assert TransitionMonoid.compose(x, m.identity) == x
            assert TransitionMonoid.compose(m.identity, x) == x
        for x in elems[:8]:
            for y in elems[:8]:
                for z in elems[:8]:
                    left = TransitionMonoid.compose(TransitionMonoid.compose(x, y), z)
                    right = TransitionMonoid.compose(x, TransitionMonoid.compose(y, z))
                    assert left == right


def test_determinize_escapes_names_only_on_collision():
    # Without a collision the subsets keep their plain names, separators and all.
    plain = make_automaton(["s", "a,b"], ("x",), [("s", "x", "a,b")], ["s"], ["a,b"])
    assert determinize(plain).states == {"{s}", "{a,b}", "{}"}
    # With one, every name is escaped, so {a, b} and {a,b} print apart.
    d = determinize(_collision("s", "a", "b", "a,b"))
    assert d.states == {"{s}", "{a,b}", "{a\\,b}", "{}"}


# The stored form: sorted distinct names, sorted in-range target tuples.

TRICKY_NAMES = ["q10", "q2", "q1", "a,b", "{x}", "Z", "b", "{a},{b}", "p"]


def assert_stored_form(a):
    n = len(a.names)
    assert all(p < q for p, q in zip(a.names, a.names[1:]))
    assert len(a.rows) == n
    for row in a.rows:
        assert len(row) == len(a.alphabet)
        for dsts in row:
            assert isinstance(dsts, tuple)
            assert list(dsts) == sorted(set(dsts))
            assert all(0 <= q < n for q in dsts)
    assert a.starts <= set(range(n)) and a.finals <= set(range(n))


@st.composite
def automata_from_triples(draw):
    states = draw(st.lists(st.sampled_from(TRICKY_NAMES), min_size=1, max_size=6, unique=True))
    letters = draw(st.lists(st.sampled_from(["x", "y", "a1", "-x"]), max_size=3, unique=True))
    triples = []
    if letters:
        triple = st.tuples(st.sampled_from(states), st.sampled_from(letters), st.sampled_from(states))
        triples = draw(st.lists(triple, max_size=20))
    if triples:
        triples += draw(st.lists(st.sampled_from(triples), max_size=3))  # duplicates
    initials = draw(st.lists(st.sampled_from(states), max_size=2))
    accepting = draw(st.lists(st.sampled_from(states), max_size=3))
    return states, letters, triples, initials, accepting


@settings(max_examples=200)
@given(automata_from_triples())
def test_stored_form_from_triples(spec):
    states, letters, triples, initials, accepting = spec
    a = make_automaton(*spec)
    expected: dict = {}
    for src, letter, dst in triples:
        expected.setdefault((src, letter), set()).add(dst)
    assert a.states == set(states) and a.alphabet == tuple(letters)
    assert a.transitions == expected
    assert a.initials == set(initials) and a.accepting == set(accepting)
    assert_stored_form(a)
    assert parse_automaton(serialize_automaton(a)) == a
    assert a.deterministic == (len(a.initials) == 1 and all(len(d) <= 1 for d in a.transitions.values()))
    assert a.complete == all(a.transitions.get((q, c)) for q in a.states for c in a.alphabet)
    d = determinize(a)
    for b in (d, minimize(d), complete_with_sink(a)):
        assert_stored_form(b)


def test_constructions_keep_the_stored_form():
    for letters in range(1, 4):
        for k in range(4):
            assert_stored_form(canonical_automaton([f"a{i}" for i in range(letters)], k))
    for k in range(4):
        assert_stored_form(gen_ak(k))
    for n in range(1, 5):
        assert_stored_form(gen_intersection_nfa(tuple(f"a{i}" for i in range(1, n + 1))))
    for k, n in ((1, 2), (2, 2), (2, 3), (3, 2)):
        assert_stored_form(gen_tight_depth_dfa(k, n))


def test_name_views_are_computed_once():
    a = gen_ak(2)
    for view in ("states", "transitions", "initials", "accepting"):
        assert getattr(a, view) is getattr(a, view)


def test_replace_swaps_accepting_states_by_name():
    d = determinize(gen_ak(1))
    start = next(iter(d.initials))
    swapped = dataclasses.replace(d, accepting={start})
    assert swapped.accepting == {start} and swapped.finals == d.starts
    assert swapped.rows is d.rows and swapped.names is d.names


def test_package_exports():
    # a new export is a deliberate edit here; submodules are not exports
    assert ptlang.__all__ == [
        "Automaton", "BudgetExceededError", "Certificate", "Clause", "ContractError",
        "CyclicAutomatonError", "InputError", "PieceExpression", "TransitionMonoid",
        "canonical_automaton", "certify_pt_nfa", "check_identity", "complete_with_sink",
        "decompose", "depth", "determinize", "embeds", "eval_piece_expression", "gen_ak",
        "gen_intersection_nfa", "gen_tight_depth_dfa", "gen_wk", "gen_wkn", "is_0pt",
        "is_1pt", "is_2pt", "is_3pt", "is_kpt", "is_kpt_oracle", "is_pt", "is_pt_min_dfa",
        "k_equivalent", "make_automaton", "min_k", "minimize", "pkn", "transition_monoid",
        "verify_certificate", "verify_pair",
    ]
    namespace: dict = {}
    exec("from ptlang import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == ptlang.__all__
