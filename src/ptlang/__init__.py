"""Piecewise testability toolkit.

Decides whether a regular language (given as a DFA or NFA) is piecewise
testable, finds the minimal k for which it is k-piecewise testable, produces
and verifies non-k-PT certificates, decomposes k-PT languages into boolean
combinations of pieces, and generates the extremal automata and words that
witness the known depth bounds.
"""

from types import ModuleType as _Module

from ptlang.automata import (
    Automaton,
    BudgetExceededError,
    ContractError,
    CyclicAutomatonError,
    InputError,
    TransitionMonoid,
    check_identity,
    complete_with_sink,
    depth,
    determinize,
    make_automaton,
    minimize,
    transition_monoid,
)
from ptlang.subwords import (
    canonical_automaton,
    embeds,
    k_equivalent,
)
from ptlang.pt import (
    certify_pt_nfa,
    is_pt,
    is_pt_min_dfa,
)
from ptlang.kpt import (
    Certificate,
    Clause,
    PieceExpression,
    decompose,
    eval_piece_expression,
    is_0pt,
    is_1pt,
    is_2pt,
    is_3pt,
    is_kpt,
    is_kpt_oracle,
    min_k,
    verify_certificate,
    verify_pair,
)
from ptlang.extremal import (
    gen_ak,
    gen_intersection_nfa,
    gen_tight_depth_dfa,
    gen_wk,
    gen_wkn,
    pkn,
)

# The public names imported above; the submodules are not among them.
__all__ = sorted(n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _Module)))
