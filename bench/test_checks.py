"""Tests of the benchmark's reference checks: they accept ptlang's correct
answers and reject mutated ones.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ptlang  # noqa: E402
import ptlang.cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def random_words(rng, letters, count, max_len):
    return [tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len))) for _ in range(count)]


def test_subword_enumerations_agree():
    rng = random.Random(0)
    for w in random_words(rng, "abc", 200, 9):
        for k in range(5):
            assert checks.subwords_by_index_subsets(w, k) == checks.subwords_by_leftmost_embedding(w, k)


def test_wkn_length_and_distinct_prefix_classes():
    for k, n in [(1, 3), (2, 2), (3, 2), (2, 3)]:
        w = checks.wkn(k, n)
        assert len(w) == checks.pkn(k, n)
        classes = {checks.sub_k(w[:i], k) for i in range(len(w) + 1)}
        assert len(classes) == len(w) + 1
        letters = [f"a{i}" for i in range(1, n + 1)]
        assert checks.sub_k(w, k) == frozenset(checks.words_up_to(letters, k))


def test_wk_pair_is_k_equivalent_and_separated_by_ak():
    for k in (1, 2, 3):
        w = checks.wk(k)
        assert checks.check_witness(checks.ak_nfa(k), k, w[:-1], w) is None


def test_witness_check_rejects_mutations():
    ref = checks.ak_nfa(2)
    w = checks.wk(2)
    assert checks.check_witness(ref, 2, w[:-1], w) is None
    # A changed letter breaks sub_k equality; equal words are not separated.
    assert checks.check_witness(ref, 2, w[:-1], w[:-1] + ("a2",)) is not None
    assert checks.check_witness(ref, 2, w, w) is not None
    # At a larger k the pair is no longer k-equivalent.
    assert checks.check_witness(ref, 3, w[:-1], w) is not None


def min_k_inputs(a):
    m = ptlang.minimize(ptlang.determinize(a))
    k = ptlang.min_k(a)
    witness = None
    if k > 0:
        c = ptlang.is_kpt_oracle(m, k - 1).certificate
        witness = (c.w1, c.w2)
    return m, k, witness, ptlang.decompose(m, k)


@pytest.mark.parametrize("k", [1, 2])
def test_min_k_check_accepts_truth_and_rejects_wrong_k(k):
    a = ptlang.gen_ak(k)
    ref = checks.ak_nfa(k)
    m, true_k, witness, expr = min_k_inputs(a)
    assert true_k == k + 1
    assert checks.check_min_k(ref, true_k, witness, expr, 6) is None
    # Too high: the witness does not hold one level up.
    assert checks.check_min_k(ref, true_k + 1, witness, expr, 6) is not None
    # Too low: the decomposition uses pieces longer than the claimed k.
    lower = ptlang.is_kpt_oracle(m, true_k - 2).certificate if true_k >= 2 else None
    pair = (lower.w1, lower.w2) if lower else None
    assert checks.check_min_k(ref, true_k - 1, pair, expr, 6) is not None


def test_decomposition_check_rejects_a_dropped_clause():
    a = ptlang.gen_ak(1)
    m = ptlang.minimize(ptlang.determinize(a))
    expr = ptlang.decompose(m, 2)
    ref = checks.ak_nfa(1)
    assert checks.check_decomposition(ref, expr, 6) is None
    assert checks.check_decomposition(ref, replace(expr, clauses=expr.clauses[1:]), 6) is not None


def test_language_check_rejects_a_changed_accepting_set():
    a = ptlang.gen_intersection_nfa(("a1", "a2", "a3"))
    d = ptlang.determinize(a)
    ref = checks.CapRef(("a1", "a2", "a3"))
    assert workloads.dfa_matches(d, ref) is None
    wrong = replace(d, accepting=d.accepting | {next(iter(d.initials))})
    assert workloads.dfa_matches(wrong, ref) is not None


def test_collision_reference_language():
    ref = checks.parse_text(workloads.collision_text(*workloads.COLLISIONS[0]))
    assert not checks.member(ref, ("y",))
    assert checks.member(ref, ("x",)) and checks.member(ref, ("y", "y"))
    assert checks.own_min_k(ref, 3) == 2


def test_not_pt_check_against_ptlang():
    rng = random.Random(1)
    seen = {True: 0, False: 0}
    for _ in range(150):
        text = workloads.random_nfa_text(rng, rng.random() < 0.5, rng.randint(3, 8), rng.randint(2, 3))
        a = ptlang.cli.parse_automaton(text)
        ref = checks.parse_text(text)
        verdict = ptlang.is_pt(a)
        seen[verdict] += 1
        assert (checks.jt_counterexample(ref) is None) == verdict
        assert (checks.check_not_pt(ref) is None) == (not verdict)
    assert seen[True] and seen[False]


def test_k_conflict_against_ptlang():
    rng = random.Random(2)
    for _ in range(60):
        text = workloads.random_nfa_text(rng, True, rng.randint(3, 8), rng.randint(2, 3))
        a = ptlang.cli.parse_automaton(text)
        m = ptlang.minimize(ptlang.determinize(a))
        ref = checks.parse_text(text)
        for k in (1, 2):
            conflict = checks.k_conflict(ref, k)
            assert (conflict is None) == (ptlang.is_kpt(m, k).verdict == "yes")
            if conflict is not None:
                assert checks.check_witness(ref, k, *conflict) is None


def test_corpus_slots_have_their_minimal_k():
    w = workloads.kpt_corpus(3)
    for i, case in enumerate(w.cases[:40]):
        a = ptlang.cli.parse_automaton(w.texts[case.name])
        assert ptlang.min_k(a) == workloads.CORPUS_MIX[("a", "b")][i % 10][0]
