import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_words, brute_subwords, has_cycle_dfs, reference_class_edges, sub_k

from ptlang import (
    BudgetExceededError,
    InputError,
    canonical_automaton,
    depth,
    embeds,
    gen_wk,
    k_equivalent,
)
from ptlang.subwords import CHUNK, EPSILON_CLASS, ClassSearch, class_pieces, decode_class

words_ab = st.lists(st.sampled_from("ab"), max_size=10).map(tuple)
words_abc = st.lists(st.sampled_from("abc"), max_size=10).map(tuple)
alphabets = st.sampled_from(["a", "ab", "abc", "abcd"])


@st.composite
def unrelated_pairs(draw):
    letters = draw(alphabets)
    words = st.lists(st.sampled_from(letters), max_size=10).map(tuple)
    return draw(words), draw(words)


@st.composite
def insertion_pairs(draw):
    # a word and the same word with one letter inserted
    letters = draw(alphabets)
    w = draw(st.lists(st.sampled_from(letters), max_size=14).map(tuple))
    i = draw(st.integers(min_value=0, max_value=len(w)))
    return w, w[:i] + (draw(st.sampled_from(letters)),) + w[i:]


def test_embeds_basics():
    assert embeds((), ("a", "b"))
    assert embeds((), ())
    assert not embeds(("a", "b"), ("b", "a"))
    assert embeds(("a", "b"), ("a", "a", "b"))
    assert embeds(("a0", "a1"), gen_wk(2))


@given(words_abc, words_abc)
def test_embeds_matches_brute_force(v, w):
    assert embeds(v, w) == (v in brute_subwords(w, len(v)))


@given(words_ab, words_ab)
def test_embeds_transitive_with_concat(v, w):
    assert embeds(v, w + v)
    assert embeds(v, v + w)


def test_k_equivalent_at_zero():
    rng = random.Random(3)
    for _ in range(50):
        w1 = tuple(rng.choice("abc") for _ in range(rng.randint(0, 8)))
        w2 = tuple(rng.choice("abc") for _ in range(rng.randint(0, 8)))
        assert k_equivalent(w1, w2, 0)


def test_wk_equivalent_to_truncation():
    # w_k and w_k minus its last letter are k-equivalent but not
    # (k+1)-equivalent.
    for k in range(11):
        w = gen_wk(k)
        assert k_equivalent(w, w[:-1], k)
        assert not k_equivalent(w, w[:-1], k + 1)


def test_k_equivalent_letter_powers():
    assert k_equivalent(("a",), ("a", "a"), 1)
    assert not k_equivalent(("a",), ("a", "a"), 2)


def test_k_equivalent_with_hostile_k():
    # the search ends when no new pair of suffixes is left, not after k levels
    w = gen_wk(8)
    start = time.perf_counter()
    assert k_equivalent(w, w, 10**9)
    assert not k_equivalent(w[:-1], w, 10**9)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(InputError):
        k_equivalent(w, w, -1)


@given(unrelated_pairs(), st.integers(min_value=0, max_value=4))
def test_k_equivalent_matches_brute_force(pair, k):
    w1, w2 = pair
    assert k_equivalent(w1, w2, k) == (brute_subwords(w1, k) == brute_subwords(w2, k))


@settings(max_examples=300)
@given(insertion_pairs(), st.integers(min_value=0, max_value=4))
def test_k_equivalent_matches_sets_on_insertions(pair, k):
    w1, w2 = pair
    same = sub_k(w1, k) == sub_k(w2, k)
    assert k_equivalent(w1, w2, k) == same
    assert k_equivalent(w2, w1, k) == same


@pytest.mark.parametrize("letters, k", [("ab", 0), ("ab", 3), ("abc", 2), ("ba", 3)])
def test_class_edges_follow_appended_letters(letters, k):
    # each edge appends its letter to the first access word of its class,
    # and the classes are the sub_k sets of the words up to length P(k, n)
    alphabet = tuple(letters)
    search = ClassSearch(len(alphabet), k)
    access = [()]
    edges = (edge for row in search.rows() for edge in row)
    for e, nxt in enumerate(edges):
        cls, i = divmod(e, len(alphabet))
        w = access[cls]
        assert decode_class(search.classes[cls], alphabet) == sub_k(w, k)
        assert decode_class(search.classes[nxt], alphabet) == sub_k(w + (alphabet[i],), k)
        assert nxt <= len(access)
        if nxt == len(access):
            access.append(w + (alphabet[i],))
    bound = math.comb(k + len(alphabet), k) - 1
    decoded = {decode_class(cls, alphabet) for cls in search.classes}
    assert len(decoded) == len(access) == len(search.classes)
    assert decoded == {sub_k(w, k) for w in all_words(alphabet, bound)}


@pytest.mark.parametrize(
    "letters, k, count, full_chunks",
    [
        ("ab", 0, 1, 0),
        ("ab", 3, 68, 0),
        ("abc", 2, 152, 0),
        ("ba", 3, 68, 0),
        ("abc", 3, 5312, 4),
        ("abcd", 2, 2326, 0),
    ],
)
def test_chunked_class_search_matches_reference(letters, k, count, full_chunks):
    # edge for edge: the source and successor numbers, the letter and the
    # first visits; the last two cases take 13 and 9 chunks, and the first
    # of them cuts breadth-first levels into chunks of CHUNK classes
    alphabet = tuple(letters)
    search = ClassSearch(len(alphabet), k)
    rows = list(search.rows())
    edges = [edge for row in rows for edge in row]
    reference = list(reference_class_edges(alphabet, k))
    assert len(search.classes) == count
    assert len(edges) == len(reference) == count * len(alphabet)
    assert sum(len(row) == CHUNK * len(alphabet) for row in rows) == full_chunks
    number = {EPSILON_CLASS: 0}
    for e, (cls, a, nxt, first_visit) in enumerate(reference):
        assert first_visit == (nxt not in number)
        number.setdefault(nxt, len(number))
        assert (number[cls], alphabet.index(a)) == divmod(e, len(alphabet))
        assert edges[e] == number[nxt]
    assert search.classes == list(number)


@st.composite
def words_over_alphabets(draw):
    alphabet = draw(st.sampled_from([(), ("a",), ("b", "a"), ("a", "b", "c"), ("d", "b", "a", "c")]))
    if not alphabet:
        return alphabet, ()
    return alphabet, draw(st.lists(st.sampled_from(alphabet), max_size=10).map(tuple))


@settings(max_examples=200)
@given(words_over_alphabets(), st.integers(min_value=0, max_value=5))
def test_integer_classes_match_subword_sets(case, k):
    # grow one letter at a time and decode each prefix's class: one bit per
    # member, and the members are the prefix's sub_k set
    alphabet, w = case
    successors = ClassSearch(len(alphabet), k).successors
    members = EPSILON_CLASS
    for i in range(len(w) + 1):
        if i:
            members = successors([members])[alphabet.index(w[i - 1])]
        words = decode_class(members, alphabet)
        assert words == sub_k(w[:i], k) == brute_subwords(w[:i], k)
        assert bin(members).count("1") == len(words)


@st.composite
def sub_k_sets(draw):
    letters = tuple(draw(st.sampled_from(["a", "ab", "abc"])))
    k = draw(st.integers(min_value=0, max_value=3))
    w = draw(st.lists(st.sampled_from(letters), max_size=10).map(tuple))
    return letters, k, sub_k(w, k)


@given(sub_k_sets())
def test_class_pieces_match_definition(case):
    alphabet, k, members = case
    maximal = {w for w in members if w and not any(u != w and embeds(w, u) for u in members)}
    missing = {
        v
        for v in all_words(alphabet, k)
        if v not in members and all(v[:i] + v[i + 1 :] in members for i in range(len(v)))
    }
    assert class_pieces(members, alphabet, k) == (maximal, missing)


def test_canonical_automaton_single_letter():
    a = canonical_automaton(["a"], 1)
    assert len(a.states) == 2
    assert a.deterministic and a.complete


def test_canonical_automaton_depths():
    # depth of the canonical DFA equals the tight bound P(k, n)
    assert depth(canonical_automaton(["a1", "a2"], 2)) == 5
    assert depth(canonical_automaton(["a1", "a2", "a3"], 3)) == 19


def test_canonical_automaton_is_partially_ordered_and_monotone():
    # Every class has an access word no longer than the depth P(2, 2) = 5,
    # so the words up to length 5 reach every state.
    aut = canonical_automaton(["a", "b"], 2)
    assert not has_cycle_dfs(aut)
    classes: dict[str, set] = {q: set() for q in aut.states}
    for w in all_words(("a", "b"), 5):
        classes[aut.dstate(w)].add(brute_subwords(w, 2))
    assert all(len(found) == 1 for found in classes.values())
    sub2 = {q: found.pop() for q, found in classes.items()}
    for (src, _letter), dsts in aut.transitions.items():
        (dst,) = dsts
        assert sub2[src] <= sub2[dst]


def test_canonical_automaton_refuses_duplicate_letters():
    # make_automaton refuses the same alphabet, and so does the text format
    with pytest.raises(InputError, match="^duplicate letters in alphabet$"):
        canonical_automaton(["a", "a"], 2)


def test_canonical_automaton_budget():
    with pytest.raises(BudgetExceededError):
        canonical_automaton(["a", "b"], 2, budget=3)


def test_canonical_automaton_five_letters():
    # the class space gen_tight_depth_dfa(2, 5) is built on
    a = canonical_automaton([f"a{i}" for i in range(1, 6)], 2)
    assert len(a.states) == 52132


def test_canonical_automaton_with_huge_k():
    # the search stops at the budget; it never forms a block of n^k bits
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        canonical_automaton(("a", "b"), 10**6, budget=1000)
    assert time.perf_counter() - start < 1.0


@settings(max_examples=30)
@given(words_ab, words_ab, words_ab, st.integers(min_value=0, max_value=3))
def test_k_equivalence_is_a_congruence(u, v, x, k):
    if k_equivalent(u, v, k):
        assert k_equivalent(u + x, v + x, k)
        assert k_equivalent(x + u, x + v, k)
