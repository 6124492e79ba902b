import itertools
import math
import random

import pytest
from conftest import all_words, has_cycle_dfs, random_word, reference_pkn_stirling, sub_k

from ptlang import (
    InputError,
    depth,
    determinize,
    gen_ak,
    gen_intersection_nfa,
    gen_tight_depth_dfa,
    gen_wk,
    gen_wkn,
    is_kpt_oracle,
    k_equivalent,
    make_automaton,
    min_k,
    minimize,
    pkn,
    verify_pair,
)

PKN_TABLE = {
    (1, 1): 1, (1, 2): 2, (1, 3): 3, (1, 4): 4, (1, 5): 5, (1, 6): 6,
    (2, 1): 2, (2, 2): 5, (2, 3): 9, (2, 4): 14, (2, 5): 20, (2, 6): 27,
    (3, 1): 3, (3, 2): 9, (3, 3): 19, (3, 4): 34, (3, 5): 55, (3, 6): 83,
    (4, 1): 4, (4, 2): 14, (4, 3): 34, (4, 4): 69, (4, 5): 125, (4, 6): 209,
    (5, 1): 5, (5, 2): 20, (5, 3): 55, (5, 4): 125, (5, 5): 251, (5, 6): 461,
    (6, 1): 6, (6, 2): 27, (6, 3): 83, (6, 4): 209, (6, 5): 461, (6, 6): 923,
}


def test_gen_ak_zero():
    a0 = gen_ak(0)
    assert a0.states == frozenset({"0"})
    assert a0.transitions == {}
    assert a0.accepts(()) and not a0.accepts(("a0",))


def test_gen_ak_two_edge_for_edge():
    a2 = gen_ak(2)
    assert a2.initials == frozenset({"0", "1", "2"})
    assert a2.accepting == frozenset({"0"})
    expected = {
        ("1", "a0"): {"1"},
        ("1", "a1"): {"0"},
        ("2", "a0"): {"2"},
        ("2", "a1"): {"2"},
        ("2", "a2"): {"0", "1"},
    }
    assert {key: set(v) for key, v in a2.transitions.items()} == expected


def test_gen_ak_language_is_nested():
    # over the shared letters, each language contains the previous one
    rng = random.Random(71)
    for k in range(1, 5):
        small, big = gen_ak(k - 1), gen_ak(k)
        for _ in range(200):
            w = random_word(rng, small.alphabet, 10)
            if small.accepts(w):
                assert big.accepts(w)


def test_gen_ak_depth_gap():
    for k in range(6):
        a = gen_ak(k)
        assert depth(a) == k
        m = minimize(determinize(a))
        assert len(m.states) == 2 ** (k + 1)
        assert depth(m) == 2 ** (k + 1) - 1


def test_gen_ak_min_k():
    for k in range(3):
        assert min_k(gen_ak(k)) == k + 1


def test_gen_ak_oracle_boundary():
    for k in range(3):
        m = minimize(determinize(gen_ak(k)))
        assert is_kpt_oracle(m, k).verdict == "no"
        assert is_kpt_oracle(m, k + 1).verdict == "yes"


def test_gen_ak_rejects_negative():
    with pytest.raises(InputError):
        gen_ak(-1)


def test_gen_ak_stops_at_the_transition_cap():
    # A_k has k(k+1) transitions; the cap is 2^21, the word-length cap, so
    # A_1447 (2,095,256 transitions) is the largest built.
    assert 1447 * 1448 <= 2**21 < 1448 * 1449
    for k in (1448, 10**9):
        with pytest.raises(InputError, match="transitions"):
            gen_ak(k)


def test_gen_wk_values():
    assert gen_wk(0) == ("a0",)
    assert gen_wk(1) == ("a0", "a1", "a0")
    assert gen_wk(2) == ("a0", "a1", "a0", "a2", "a0", "a1", "a0")
    for k in range(8):
        assert len(gen_wk(k)) == 2 ** (k + 1) - 1


def test_gen_wk_prefix_membership():
    # even prefixes of w_k are accepted by A_k, odd prefixes are not
    for k in range(5):
        a = gen_ak(k)
        w = gen_wk(k)
        for i in range(len(w) + 1):
            assert a.accepts(w[:i]) == (i % 2 == 0), (k, i)


def test_gen_wk_truncation_certificate():
    for k in range(11):
        w = gen_wk(k)
        assert k_equivalent(w, w[:-1], k)
        assert not k_equivalent(w, w[:-1], k + 1)
        m = minimize(determinize(gen_ak(k)))
        assert verify_pair(m, k, w[:-1], w)
        assert not verify_pair(m, k + 1, w[:-1], w)


def test_pkn_table():
    for (k, n), value in PKN_TABLE.items():
        assert pkn(k, n) == value
        assert reference_pkn_stirling(k, n) == value
    for k in range(1, 41):
        for n in range(1, 41):
            assert pkn(k, n) == reference_pkn_stirling(k, n)


def test_pkn_symmetry_and_recursion():
    for k in range(1, 8):
        for n in range(1, 8):
            assert pkn(k, n) == pkn(n, k)
            assert pkn(k, n) == math.comb(k + n, k) - 1
            if k > 1 and n > 1:
                assert pkn(k, n) == pkn(k, n - 1) + 1 + pkn(k - 1, n)


def test_pkn_rejects_zero():
    with pytest.raises(InputError):
        pkn(0, 3)
    with pytest.raises(InputError):
        pkn(2, 0)


def test_gen_wkn_base_cases():
    assert gen_wkn(3, 1) == ("a1", "a1", "a1")
    assert gen_wkn(1, 3) == ("a1", "a2", "a3")
    assert gen_wkn(2, 2) == ("a1", "a1", "a2", "a1", "a2")


def test_generated_words_stop_at_the_length_cap():
    # The cap is 2^21 letters: w_20 and W(2^21, 1) meet it, W(2046, 2) and
    # W(2, 2046) have C(2048, 2) - 1 = 2,096,127 letters, one more letter
    # or level goes beyond.
    assert len(gen_wk(20)) == 2**21 - 1
    assert len(gen_wkn(2**21, 1)) == 2**21
    assert len(gen_wkn(2046, 2)) == len(gen_wkn(2, 2046)) == pkn(2046, 2)
    with pytest.raises(InputError):
        gen_wk(21)
    for k, n in ((2**21 + 1, 1), (2047, 2), (2, 2047), (30, 30), (10**9, 10**9)):
        with pytest.raises(InputError):
            gen_wkn(k, n)


def test_gen_wkn_length_matches_pkn():
    for k in range(1, 7):
        for n in range(1, 7):
            assert len(gen_wkn(k, n)) == pkn(k, n)


def test_gen_wkn_matches_recursive_definition():
    def recursive(k, n):
        if n == 1:
            return ("a1",) * k
        if k == 1:
            return tuple(f"a{i}" for i in range(1, n + 1))
        return recursive(k, n - 1) + (f"a{n}",) + recursive(k - 1, n)

    for k in range(1, 9):
        for n in range(1, 8):
            assert gen_wkn(k, n) == recursive(k, n), (k, n)


def test_gen_wkn_full_subword_set_and_distinct_prefixes():
    # the sub_k set of W(k, n) is everything, and every prefix starts a new
    # ~_k class
    for k, n in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        w = gen_wkn(k, n)
        alphabet = tuple(f"a{i}" for i in range(1, n + 1))
        assert sub_k(w, k) == frozenset(all_words(alphabet, k))
        seen = set()
        for i in range(len(w) + 1):
            members = sub_k(w[:i], k)
            assert members not in seen
            seen.add(members)


def test_no_longer_word_with_distinct_prefixes():
    # exhaustive search at k = n = 2: no word of length pkn(2, 2) + 1 = 6
    # has pairwise inequivalent prefixes
    alphabet = ("a1", "a2")
    target = pkn(2, 2) + 1
    for w in itertools.product(alphabet, repeat=target):
        classes = {sub_k(w[:i], 2) for i in range(target + 1)}
        assert len(classes) < target + 1, w


def test_tight_depth_dfa():
    for k, n in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 2)]:
        a = gen_tight_depth_dfa(k, n)
        assert a.deterministic and a.complete
        m = minimize(a)
        assert depth(m) == pkn(k, n), (k, n)
        assert is_kpt_oracle(m, k).verdict == "yes"


def test_tight_depth_dfa_accepts_even_prefixes():
    k, n = 2, 2
    a = gen_tight_depth_dfa(k, n)
    w = gen_wkn(k, n)
    for i in range(len(w) + 1):
        assert a.accepts(w[:i]) == (i % 2 == 0)


def test_intersection_nfa():
    a = gen_intersection_nfa(("a", "b", "c"))
    assert len(a.states) == 8
    assert depth(a) == 3
    assert not has_cycle_dfs(a)
    assert min_k(a) == 1
    for w in all_words(("a", "b", "c"), 4):
        assert a.accepts(w) == (set(w) == {"a", "b", "c"})


def _intersection_nfa_by_subsets(letters):
    """The intersection NFA as it was first built: every subset of the
    letters named from its sorted members, one name per transition end."""

    def name(subset):
        return "{" + ",".join(sorted(subset)) + "}"

    subsets = [s for r in range(len(letters) + 1) for s in itertools.combinations(sorted(letters), r)]
    triples = [(name(s), x, name(set(s) | {x})) for s in subsets for x in letters]
    return make_automaton([name(s) for s in subsets], letters, triples, [name(())], [name(letters)])


def test_intersection_nfa_matches_the_subset_construction():
    alphabets = [tuple(f"a{i}" for i in range(n)) for n in range(1, 9)]
    alphabets += [("b", "a", "c"), ("a10", "a9", "a1", "b"), ("z", "", "y")]
    for letters in alphabets:
        a, b = gen_intersection_nfa(letters), _intersection_nfa_by_subsets(letters)
        assert (a.names, a.alphabet, a.rows, a.starts, a.finals) == (b.names, b.alphabet, b.rows, b.starts, b.finals)


def test_intersection_nfa_guards():
    with pytest.raises(InputError):
        gen_intersection_nfa(())
    with pytest.raises(InputError):
        gen_intersection_nfa(tuple(f"x{i}" for i in range(25)))
