"""End-to-end acceptance checks.

Each test covers one headline guarantee, enforces its time budget, and
prints a single pass/fail line; run with `-s` to see them.
"""

import itertools
import random
import time

from conftest import (
    all_words,
    brute_locally_confluent,
    has_cycle_dfs,
    random_min_dfa,
    reference_pkn_stirling,
    sub_k,
)

from ptlang import (
    Certificate,
    decompose,
    depth,
    determinize,
    eval_piece_expression,
    gen_ak,
    gen_intersection_nfa,
    gen_tight_depth_dfa,
    gen_wk,
    gen_wkn,
    is_1pt,
    is_2pt,
    is_3pt,
    is_kpt_oracle,
    is_pt_min_dfa,
    min_k,
    minimize,
    pkn,
    verify_certificate,
)
from ptlang.pt import find_ums_violation

CLASS_BUDGET = 2 * 10**6

PKN_TABLE = {
    (1, 1): 1, (1, 2): 2, (1, 3): 3, (1, 4): 4, (1, 5): 5, (1, 6): 6,
    (2, 1): 2, (2, 2): 5, (2, 3): 9, (2, 4): 14, (2, 5): 20, (2, 6): 27,
    (3, 1): 3, (3, 2): 9, (3, 3): 19, (3, 4): 34, (3, 5): 55, (3, 6): 83,
    (4, 1): 4, (4, 2): 14, (4, 3): 34, (4, 4): 69, (4, 5): 125, (4, 6): 209,
    (5, 1): 5, (5, 2): 20, (5, 3): 55, (5, 4): 125, (5, 5): 251, (5, 6): 461,
    (6, 1): 6, (6, 2): 27, (6, 3): 83, (6, 4): 209, (6, 5): 461, (6, 6): 923,
}


def _finish(name, ok, started, limit):
    elapsed = time.monotonic() - started
    in_time = elapsed < limit
    verdict = "PASS" if ok and in_time else "FAIL"
    print(f"{verdict} {name} ({elapsed:.2f}s / limit {limit:.0f}s)")
    assert ok, name
    assert in_time, f"{name} exceeded {limit}s ({elapsed:.2f}s)"


def test_depth_bound_table():
    started = time.monotonic()
    ok = all(
        pkn(k, n) == value and reference_pkn_stirling(k, n) == value
        for (k, n), value in PKN_TABLE.items()
    )
    _finish("depth bound table, 36 entries, both formulas", ok, started, 1)


def test_exponential_depth_gap():
    started = time.monotonic()
    ok = True
    for k in range(6):
        a = gen_ak(k)
        m = minimize(determinize(a))
        ok = ok and depth(a) == k and depth(m) == 2 ** (k + 1) - 1
    _finish("depth gap k..2^(k+1)-1 for k = 0..5", ok, started, 10)


def test_minimal_k_of_gap_family():
    started = time.monotonic()
    ok = all(min_k(gen_ak(k), CLASS_BUDGET) == k + 1 for k in range(3))
    for k in range(3, 6):
        m = minimize(determinize(gen_ak(k)))
        w = gen_wk(k)
        c = Certificate(k, w[:-1], w, m.dstate(w[:-1]), m.dstate(w))
        ok = ok and verify_certificate(m, c)
        ok = ok and depth(m) == 2 ** (k + 1) - 1
    _finish("min k = k+1 (k = 0..2), certified not-k-PT (k = 3..5)", ok, started, 60)


def test_longest_distinct_prefix_words():
    started = time.monotonic()
    ok = True
    for k in range(1, 7):
        for n in range(1, 7):
            if pkn(k, n) > 100:
                continue
            w = gen_wkn(k, n)
            alphabet = tuple(f"a{i}" for i in range(1, n + 1))
            ok = ok and len(w) == pkn(k, n)
            full = frozenset(all_words(alphabet, k))
            ok = ok and sub_k(w, k) == full
            prefixes = {
                sub_k(w[:i], k)
                for i in range(len(w) + 1)
            }
            ok = ok and len(prefixes) == len(w) + 1
    # nothing longer works at k = n = 2: exhaustive over words up to length 8
    alphabet = ("a1", "a2")
    best = 0
    for length in range(9):
        for w in itertools.product(alphabet, repeat=length):
            classes = {
                sub_k(w[:i], 2)
                for i in range(length + 1)
            }
            if len(classes) == length + 1:
                best = max(best, length)
    ok = ok and best == pkn(2, 2)
    _finish("maximal distinct-prefix words, incl. exhaustive (2,2)", ok, started, 30)


def test_tight_depth_witnesses():
    started = time.monotonic()
    ok = True
    for k, n in [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]:
        m = minimize(gen_tight_depth_dfa(k, n, CLASS_BUDGET))
        ok = ok and depth(m) == pkn(k, n)
    _finish("tight depth DFAs reach the bound at 5 (k, n) pairs", ok, started, 120)


def test_decider_concordance():
    started = time.monotonic()
    rng = random.Random(101)
    ok = True
    for _ in range(500):
        m = random_min_dfa(rng, max_states=6)
        if not has_cycle_dfs(m):
            ok = ok and brute_locally_confluent(m) == (find_ums_violation(m) is None)
        if not is_pt_min_dfa(m):
            continue
        for k, decider in ((1, is_1pt), (2, is_2pt), (3, is_3pt)):
            verdict = decider(m)
            oracle = is_kpt_oracle(m, k, CLASS_BUDGET).verdict
            ok = ok and verdict is not None and oracle != "unknown"
            ok = ok and ("yes" if verdict else "no") == oracle
    _finish("specialized deciders vs oracle on 500 random DFAs", ok, started, 60)


def test_certificate_round_trip_and_mutations():
    started = time.monotonic()
    rng = random.Random(103)
    certificates = []
    while len(certificates) < 25:
        m = random_min_dfa(rng, max_states=6, letters=("a", "b", "c"))
        for k in range(4):
            answer = is_kpt_oracle(m, k, CLASS_BUDGET)
            if answer.verdict == "no":
                certificates.append((m, answer.certificate))
    ok = all(verify_certificate(m, c) for m, c in certificates)
    pool = [
        (m, c, pos, letter)
        for m, c in certificates
        for pos in range(len(c.w2))
        for letter in m.alphabet
        if letter != c.w2[pos]
    ]
    rejected = 0
    for m, c, pos, letter in rng.sample(pool, 100):
        mutated = Certificate(
            c.k, c.w1, c.w2[:pos] + (letter,) + c.w2[pos + 1 :], c.state1, c.state2
        )
        if not verify_certificate(m, mutated):
            rejected += 1
    ok = ok and rejected >= 95
    _finish(
        f"certificates verify; {rejected}/100 mutations rejected", ok, started, 60
    )


def test_decomposition_soundness():
    started = time.monotonic()
    rng = random.Random(107)
    ok = True
    found = 0
    while found < 20:
        m = random_min_dfa(rng, max_states=5)
        k = min_k(m, CLASS_BUDGET)
        if not isinstance(k, int) or k > 2:
            continue
        found += 1
        expr = decompose(m, k, CLASS_BUDGET)
        ok = ok and all(
            eval_piece_expression(expr, w) == m.accepts(w)
            for w in all_words(m.alphabet, 8)
        )
    _finish("decomposition exact on 20 instances, words up to length 8", ok, started, 60)


def test_letter_set_automaton():
    started = time.monotonic()
    a = gen_intersection_nfa(("a", "b", "c"))
    ok = len(a.states) == 8 and depth(a) == 3 and min_k(a, CLASS_BUDGET) == 1
    _finish("contains-all-letters NFA: 8 states, depth 3, min k 1", ok, started, 10)
