"""Golden outputs: SHA-256 digests of the repr of certificates, decompositions
and a canonical DFA, recorded with the earlier search that stored each ~_k
class as a frozenset of words and each class's access word.  They pin the
certificate words, the clause order and the c0, c1, ... discovery order
byte for byte.

Sets print in hash order, so `canonical` sorts every set and mapping before
`repr`; tuples, which carry the orders pinned here, keep theirs.  An
automaton is read through its five name views in a fixed order, so that its
digest does not depend on how it is stored.
"""

import dataclasses
import hashlib

import pytest

from ptlang import (
    Automaton,
    canonical_automaton,
    decompose,
    determinize,
    gen_ak,
    gen_tight_depth_dfa,
    is_kpt_oracle,
    min_k,
    minimize,
)


AUTOMATON_VIEWS = ("states", "alphabet", "transitions", "initials", "accepting")


def canonical(x):
    if isinstance(x, Automaton):
        return ("Automaton", tuple(canonical(getattr(x, view)) for view in AUTOMATON_VIEWS))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, tuple(canonical(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if isinstance(x, (set, frozenset)):
        return tuple(sorted((canonical(v) for v in x), key=repr))
    if isinstance(x, dict):
        return tuple(sorted(((canonical(k), canonical(v)) for k, v in x.items()), key=repr))
    if isinstance(x, tuple):
        return tuple(canonical(v) for v in x)
    return x


def digest(value) -> str:
    return hashlib.sha256(repr(canonical(value)).encode()).hexdigest()


def min_dfa(a: Automaton) -> Automaton:
    return minimize(determinize(a))


FAMILIES = {
    "ak1": lambda: gen_ak(1),
    "ak2": lambda: gen_ak(2),
    "tight23": lambda: gen_tight_depth_dfa(2, 3),
    "tight32": lambda: gen_tight_depth_dfa(3, 2),
    "tight24": lambda: gen_tight_depth_dfa(2, 4),
}

GOLDEN = {
    ("ak1", "min_k"):
        "d4735e3a265e16eee03f59718b9b5d03019c07d8b6c51f90da3a666eec13ab35",
    ("ak1", "decompose"):
        "717e0a2f9eb2a8aa36ea9c03d14e6cddcb2b1e4c50052ca2d61b961196b8daeb",
    ("ak1", "certificate"):
        "1152b54f312c871f112b7a5bca3c30d999bd63b117b96daa269a501a7b4745a9",
    ("ak2", "min_k"):
        "4e07408562bedb8b60ce05c1decfe3ad16b72230967de01f640b7e4729b49fce",
    ("ak2", "decompose"):
        "b5c67cec8d5df4b19107c39cf60cf64d53a259536ef67170c2e2a4a4fdebda94",
    ("ak2", "certificate"):
        "6695013983dc99ad8b51eb8e8ec3e716c494125e2a6eb693d74795bd9d68dc41",
    ("tight23", "min_k"):
        "d4735e3a265e16eee03f59718b9b5d03019c07d8b6c51f90da3a666eec13ab35",
    ("tight23", "decompose"):
        "c6246dc83d7b70f9b46a75f4319a4875b22160156da08588af3dc96390bf85ef",
    ("tight23", "certificate"):
        "446629185b21ca718df3508b5a0c9ba49254541af98a316df4551582a48c64c9",
    ("tight32", "min_k"):
        "4e07408562bedb8b60ce05c1decfe3ad16b72230967de01f640b7e4729b49fce",
    ("tight32", "decompose"):
        "cb829ed4935ddfa19731e0b4eba23d71e556fd60cd555dba183f854aaa61187b",
    ("tight32", "certificate"):
        "b0f121d120eababa50b20d640a20dc81ac10059058084e7fd5048004a971b853",
    ("tight24", "min_k"):
        "d4735e3a265e16eee03f59718b9b5d03019c07d8b6c51f90da3a666eec13ab35",
    ("tight24", "decompose"):
        "dee784e4dcdd2531b7ac3188981f22ebe4adf21212a4450c72ea5956dd9478af",
    ("tight24", "certificate"):
        "b61be9bc051f53794e9971abc7e06259c121fbc1294655c05dd1a4fca5f4a7ba",
}

CANONICAL_BA_3 = "50ba4bfd0de338c3f553bfe81d300776bb39c56f239a53245c5758138488cc00"


def family_outputs(name: str) -> dict[str, object]:
    """min k, the decomposition at min k and the oracle's certificate at
    min k - 1 for one extremal family."""
    m = min_dfa(FAMILIES[name]())
    k = min_k(m)
    return {
        "min_k": k,
        "decompose": decompose(m, k),
        "certificate": is_kpt_oracle(m, k - 1).certificate,
    }


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_outputs_match_golden(name):
    outputs = family_outputs(name)
    assert {what: digest(value) for what, value in outputs.items()} == {
        what: GOLDEN[name, what] for what in outputs
    }


def test_canonical_automaton_matches_golden():
    assert digest(canonical_automaton(("b", "a"), 3)) == CANONICAL_BA_3
