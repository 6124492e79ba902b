import json
import math
import random
import shlex
import time
from pathlib import Path

import pytest
from conftest import all_words, languages_agree, random_nfa

from ptlang import InputError, cli, gen_ak, gen_wk, make_automaton, pkn
from ptlang.cli import (
    load_automaton,
    main,
    parse_automaton,
    parse_word,
    serialize_automaton,
    word_to_str,
)

AB_PIECE = """\
# all words with 'a b' as a subsequence
alphabet: a b
states: s0 s1 s2
initial: s0
accepting: s2

s0 a s1
s0 b s0
s1 a s1
s1 b s2
s2 a s2
s2 b s2
"""

PARITY = """\
alphabet: a
states: even odd
initial: even
accepting: even
even a odd
odd a even
"""


@pytest.fixture
def ab_piece_file(tmp_path):
    path = tmp_path / "ab_piece.aut"
    path.write_text(AB_PIECE)
    return str(path)


@pytest.fixture
def parity_file(tmp_path):
    path = tmp_path / "parity.aut"
    path.write_text(PARITY)
    return str(path)


def test_parse_automaton_basic():
    a = parse_automaton(AB_PIECE)
    assert a.deterministic and a.complete
    assert a.accepts(("b", "a", "b")) and not a.accepts(("b", "a"))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InputError, match="line 2"):
        parse_automaton("alphabet: a\nthis is not a transition line\n")
    with pytest.raises(InputError, match="missing header 'states'"):
        parse_automaton("alphabet: a\ninitial: q\naccepting: q\n")
    with pytest.raises(InputError, match="duplicate header"):
        parse_automaton("alphabet: a\nalphabet: b\n")
    with pytest.raises(InputError, match="invalid automaton"):
        parse_automaton("alphabet: a\nstates: q\ninitial: r\naccepting:\n")


def test_serialize_round_trip_is_canonical():
    a = parse_automaton(AB_PIECE)
    text = serialize_automaton(a)
    assert parse_automaton(text) == a
    assert serialize_automaton(parse_automaton(text)) == text


def test_serialize_round_trip_random():
    rng = random.Random(73)
    for _ in range(50):
        a = random_nfa(rng)
        b = parse_automaton(serialize_automaton(a))
        assert a == b


@pytest.mark.parametrize("name", ["p#1", "p q", "alphabet:", ""])
def test_serialize_refuses_a_state_name_it_cannot_carry(name):
    a = make_automaton([name, "r"], ["a"], [(name, "a", "r")], [name], [])
    with pytest.raises(InputError, match=f"state {name!r} cannot be written"):
        serialize_automaton(a)


@pytest.mark.parametrize("letter", ["a#1", "a b", "", "-"])
def test_serialize_refuses_a_letter_it_cannot_carry(letter):
    a = make_automaton(["p"], [letter], [("p", letter, "p")], ["p"], [])
    with pytest.raises(InputError, match=f"letter {letter!r} cannot be written"):
        serialize_automaton(a)


def test_serialize_carries_names_with_colons_and_separators():
    names = ["a:b", "states", "x:alphabet:", "{a},{b}", "-"]
    a = make_automaton(names, ["alphabet:", "x:"], [(q, "x:", "-") for q in names], ["a:b"], ["-"])
    assert parse_automaton(serialize_automaton(a)) == a
    # "states :" would start a line that reads as the states header.
    b = make_automaton(["states"], [":"], [("states", ":", "states")], ["states"], [])
    with pytest.raises(InputError, match="state 'states' cannot be written"):
        serialize_automaton(b)


def test_parse_refuses_the_empty_word_as_a_letter():
    with pytest.raises(InputError, match="'-' is reserved"):
        parse_automaton("alphabet: - a\nstates: q\ninitial: q\naccepting: q\nq - q\nq a q\n")


def test_cli_refuses_a_dash_letter_before_witness(tmp_path, capsys):
    # Over letters '-' and 'a', the pair (epsilon, '-') would print as '-'
    # and '-', and verify would read both back as the empty word.
    path = tmp_path / "dash.aut"
    path.write_text("alphabet: - a\nstates: p q\ninitial: p\naccepting: q\np - q\np a p\nq - q\nq a q\n")
    assert main(["witness", "--k", "0", str(path)]) == 2
    assert "'-' is reserved" in capsys.readouterr().err


def test_parse_word():
    assert parse_word("-") == ()
    assert parse_word("a b a") == ("a", "b", "a")
    assert word_to_str(()) == "-"
    assert word_to_str(("a", "b")) == "a b"


@pytest.mark.parametrize(
    "alphabet, line, message",
    [
        ("a b", "sX a s1", "transition source 'sX' not a declared state"),
        ("a b", "s0 a sX", "transition target 'sX' not a declared state"),
        ("a b", "s0 z s1", "transition letter 'z' not in alphabet"),
        ("a a", "s0 a s1", "duplicate letters in alphabet"),
    ],
)
def test_cli_info_refuses_an_invalid_automaton(tmp_path, capsys, alphabet, line, message):
    path = tmp_path / "bad.aut"
    path.write_text(f"alphabet: {alphabet}\nstates: s0 s1\ninitial: s0\naccepting: s1\n{line}\n")
    assert main(["info", str(path)]) == 2
    assert capsys.readouterr().err == f"error: invalid automaton: {message}\n"


def test_cli_info(ab_piece_file, capsys):
    assert main(["info", ab_piece_file]) == 0
    out = capsys.readouterr().out
    assert "states: 3" in out
    assert "deterministic: yes" in out
    assert "depth: 2" in out


def test_cli_info_json(parity_file, capsys):
    assert main(["--json", "info", parity_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {
        "states": 2,
        "letters": 1,
        "deterministic": "yes",
        "complete": "yes",
        "depth": "cyclic",
    }


def test_cli_is_pt_exit_codes(ab_piece_file, parity_file, capsys):
    assert main(["is-pt", ab_piece_file]) == 0
    assert capsys.readouterr().out.strip() == "yes"
    assert main(["is-pt", parity_file]) == 1
    assert capsys.readouterr().out.strip() == "no"


def test_cli_is_kpt(ab_piece_file, capsys):
    assert main(["is-kpt", "--k", "1", ab_piece_file]) == 1
    assert main(["is-kpt", "--k", "2", ab_piece_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["no", "yes"]


def test_cli_min_k(ab_piece_file, parity_file, capsys):
    assert main(["min-k", ab_piece_file]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["min-k", parity_file]) == 1
    assert capsys.readouterr().out.strip() == "not-pt"


def test_cli_min_k_interval(tmp_path, capsys):
    path = tmp_path / "a3.aut"
    path.write_text(serialize_automaton(gen_ak(3)))
    assert main(["min-k", "--budget", "5", str(path)]) == 3
    out = capsys.readouterr().out.strip()
    assert out.startswith("interval 3 ")


def test_cli_witness_and_verify(ab_piece_file, capsys):
    assert main(["witness", "--k", "1", ab_piece_file]) == 0
    out = dict(
        line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
    )
    assert out["k"] == "1"
    assert (
        main(["verify", "--k", "1", "--w1", out["w1"], "--w2", out["w2"], ab_piece_file])
        == 0
    )
    assert capsys.readouterr().out.strip() == "valid"
    # no witness exists at k = 2
    assert main(["witness", "--k", "2", ab_piece_file]) == 1
    capsys.readouterr()
    # a non-equivalent pair is rejected
    assert main(["verify", "--k", "1", "--w1", "a", "--w2", "b", ab_piece_file]) == 1
    assert capsys.readouterr().out.strip() == "invalid"
    # a letter outside the alphabet is an input error
    assert main(["verify", "--k", "1", "--w1", "z", "--w2", "a", ab_piece_file]) == 2
    assert capsys.readouterr().err == "error: unknown letter 'z' in witness word\n"
    # the oracle runs out of classes at k = 3
    assert main(["witness", "--k", "3", "--budget", "5", ab_piece_file]) == 3
    assert capsys.readouterr().out == "unknown\n"


def test_cli_verify_wk_pair_beyond_sub_k_sets(tmp_path, capsys):
    # the minimal DFA of A_8 has 512 states; sub_8 of w_8 over 9 letters is
    # far too large to build, so verification must not enumerate subwords
    assert main(["gen", "ak", "8"]) == 0
    path = tmp_path / "a8.aut"
    path.write_text(capsys.readouterr().out)
    w = gen_wk(8)
    pair = ["--w1", word_to_str(w[:-1]), "--w2", word_to_str(w), str(path)]
    assert main(["verify", "--k", "8", *pair]) == 0
    assert main(["verify", "--k", "9", *pair]) == 1
    assert main(["verify", "--k", "1000000000", *pair]) == 1
    same = ["--w1", word_to_str(w), "--w2", word_to_str(w), str(path)]
    assert main(["verify", "--k", "1000000000", *same]) == 1
    assert capsys.readouterr().out.split() == ["valid"] + ["invalid"] * 3


def test_cli_decompose(ab_piece_file, tmp_path, capsys):
    assert main(["decompose", "--k", "2", ab_piece_file]) == 0
    expr = capsys.readouterr().out.strip()
    assert "a.b" in expr
    # decomposing below the true k is a contract error
    assert main(["decompose", "--k", "1", ab_piece_file]) == 2
    assert "error:" in capsys.readouterr().err
    # the empty language has no clause
    empty = tmp_path / "empty.aut"
    empty.write_text("alphabet: a\nstates: q\ninitial: q\naccepting:\nq a q\n")
    assert main(["decompose", "--k", "1", str(empty)]) == 0
    assert capsys.readouterr().out == "FALSE\n"


def test_cli_canonical(capsys):
    assert main(["canonical", "--k", "1", "--letters", "2"]) == 0
    a = parse_automaton(capsys.readouterr().out)
    assert len(a.states) == 4
    assert a.deterministic and a.complete


def test_cli_depth(ab_piece_file, parity_file, capsys):
    assert main(["depth", ab_piece_file]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["depth", parity_file]) == 2
    assert capsys.readouterr().err == "error: depth is undefined on cyclic automata\n"


def test_cli_monoid(ab_piece_file, parity_file, capsys):
    assert main(["monoid", "--check-identities", "1", ab_piece_file]) == 1
    out = capsys.readouterr().out
    assert "size: 5" in out and "violated" in out
    assert main(["monoid", "--check-identities", "1", parity_file]) == 1
    out = capsys.readouterr().out
    assert "x=xx: violated" in out


def test_cli_monoid_budget_bounds_each_identity(tmp_path, capsys):
    # A_1's minimal DFA has a 4-element monoid, so xy=yx needs 16
    # assignments: a budget of 10 is too small and 16 is enough.
    path = tmp_path / "a1.aut"
    path.write_text(serialize_automaton(gen_ak(1)))
    assert main(["monoid", "--check-identities", "1", "--budget", "10", str(path)]) == 3
    assert capsys.readouterr().err == "error: budget of 10 assignments exceeded (reached 16)\n"
    assert main(["monoid", "--check-identities", "1", "--budget", "16", str(path)]) == 1
    assert capsys.readouterr().out == "size: 4\nx=xx: violated\nxy=yx: violated\n"


def test_cli_gen_ak_round_trip(tmp_path, capsys):
    assert main(["gen", "ak", "2"]) == 0
    text = capsys.readouterr().out
    a = parse_automaton(text)
    assert a == gen_ak(2)
    path = tmp_path / "a2.aut"
    path.write_text(text)
    assert load_automaton(str(path)) == gen_ak(2)


def test_cli_gen_words(capsys):
    assert main(["gen", "wk", "1"]) == 0
    assert capsys.readouterr().out.strip() == "a0 a1 a0"
    assert main(["gen", "wkn", "2", "2"]) == 0
    assert capsys.readouterr().out.strip() == "a1 a1 a2 a1 a2"


@pytest.mark.parametrize("argv", [["gen", "wk", "21"], ["gen", "wkn", "30", "30"]])
def test_cli_gen_refuses_words_beyond_the_length_cap(argv, capsys):
    # w_21 has 2^22 - 1 letters and W(30, 30) has C(60, 30) - 1.
    assert main(argv) == 2
    assert "letters" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "wk", "-1"], "k must be non-negative"),
        (["gen", "wkn", "0", "2"], "k and n must be positive"),
        (["gen", "wkn", "2", "0"], "k and n must be positive"),
        (["is-kpt", "--k", "-1", "FILE"], "k must be non-negative"),
        (["witness", "--k", "-1", "FILE"], "k must be non-negative"),
        (["canonical", "--k", "-1", "--letters", "2"], "k must be non-negative"),
        (["canonical", "--k", "2", "--letters", "0"], "alphabet must be nonempty"),
    ],
)
def test_cli_refuses_out_of_range_arguments(argv, message, ab_piece_file, capsys):
    argv = [ab_piece_file if arg == "FILE" else arg for arg in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_is_kpt_at_huge_k(tmp_path, capsys):
    path = tmp_path / "a2.aut"
    path.write_text(serialize_automaton(gen_ak(2)))
    assert main(["is-kpt", "--k", "1000000", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "yes"


@pytest.mark.parametrize("k, n", [(1200, 2), (2, 1200)])
def test_cli_gen_wkn_beyond_recursion_depth(k, n, capsys):
    # each word has P(k, n) = 721,800 letters
    assert main(["gen", "wkn", str(k), str(n)]) == 0
    assert len(capsys.readouterr().out.split()) == pkn(k, n)


def test_cli_gen_cap_and_tight(capsys):
    assert main(["gen", "cap", "2"]) == 0
    cap = parse_automaton(capsys.readouterr().out)
    assert len(cap.states) == 4
    assert main(["gen", "tight", "2", "2"]) == 0
    tight = parse_automaton(capsys.readouterr().out)
    assert tight.deterministic and tight.complete


def test_cli_pkn(capsys):
    assert main(["pkn", "6", "6"]) == 0
    assert capsys.readouterr().out.strip() == "923"
    with pytest.raises(SystemExit) as exit_info:
        main(["pkn", "3", "3", "--stirling"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --stirling" in capsys.readouterr().err


def test_cli_pkn_digit_limit(capsys):
    # 1,203 digits print; 6,019 would pass Python's 4,300-digit print limit
    assert main(["pkn", "2000", "2000"]) == 0
    assert capsys.readouterr().out.strip() == str(math.comb(4000, 2000) - 1)
    assert main(["pkn", "10000", "10000"]) == 2
    assert "more than 4000 digits" in capsys.readouterr().err
    start = time.perf_counter()
    assert main(["pkn", str(2**2000), str(2**2000)]) == 2
    assert time.perf_counter() - start < 1.0
    assert main(["pkn", str(10**400), "1"]) == 0
    assert capsys.readouterr().out.strip() == str(10**400)


def readme_block(heading):
    """The lines of the first fenced block after ``heading`` in README.md."""
    lines = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
    start = lines.index(heading)
    opening = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("```"))
    closing = next(i for i in range(opening + 1, len(lines)) if lines[i].startswith("```"))
    return lines[opening + 1 : closing]


def test_readme_invocations_run(tmp_path, monkeypatch, capsys):
    machine = readme_block("Automata live in a small text format:")
    (tmp_path / "machine.aut").write_text("\n".join(machine) + "\n")
    monkeypatch.chdir(tmp_path)
    invocations = readme_block("Typical invocations:")
    assert any(line.startswith("ptlang pkn 6 6 ") for line in invocations)
    for line in invocations:
        args = shlex.split(line.split("#")[0])
        assert args[0] == "ptlang"
        assert main(args[1:]) in (0, 1), line
        out = capsys.readouterr().out
        if args[1:] == ["pkn", "6", "6"]:
            assert out == "923\n"


def test_cli_determinize(tmp_path, capsys):
    machine = readme_block("Automata live in a small text format:")
    (tmp_path / "machine.aut").write_text("\n".join(machine) + "\n")
    assert main(["determinize", str(tmp_path / "machine.aut")]) == 0
    d = parse_automaton(capsys.readouterr().out)
    assert d.states == {"{s0}", "{s1}"}
    assert d.initials == {"{s0}"} and d.accepting == {"{s1}"}


def test_ci_workflow_steps_are_well_formed():
    yaml = pytest.importorskip("yaml")

    class UniqueKeyLoader(yaml.SafeLoader):
        """Refuses a mapping that repeats a key, as GitHub Actions does."""

        def construct_mapping(self, node, deep=False):
            seen = set()
            for key_node, _ in node.value:
                key = self.construct_object(key_node, deep=deep)
                if key in seen:
                    raise yaml.constructor.ConstructorError(None, None, f"duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
            return super().construct_mapping(node, deep)

    text = (Path(__file__).parent.parent / ".github" / "workflows" / "tests.yml").read_text()
    workflow = yaml.load(text, Loader=UniqueKeyLoader)
    for job in workflow["jobs"].values():
        assert job["steps"]
        for step in job["steps"]:
            assert ("run" in step) != ("uses" in step), step


@pytest.mark.parametrize(
    "exc, code, message",
    [
        (MemoryError(), 3, "out of memory"),
        (RecursionError("maximum recursion depth exceeded"), 4, "RecursionError"),
        (KeyError("q7"), 4, "KeyError: 'q7'"),
    ],
)
def test_cli_crash_exit_codes(ab_piece_file, monkeypatch, capsys, exc, code, message):
    def crash(_automaton):
        raise exc

    monkeypatch.setattr(cli, "is_pt", crash)
    assert main(["is-pt", ab_piece_file]) == code
    assert message in capsys.readouterr().err


def test_cli_minimize_preserves_language(ab_piece_file, capsys):
    assert main(["minimize", ab_piece_file]) == 0
    m = parse_automaton(capsys.readouterr().out)
    a = load_automaton(ab_piece_file)
    assert languages_agree(a, m, all_words(("a", "b"), 7))


def test_cli_missing_file(capsys):
    assert main(["info", "/nonexistent/path.aut"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_budget_exhaustion(capsys):
    assert main(["canonical", "--k", "2", "--letters", "2", "--budget", "3"]) == 3
    assert "error:" in capsys.readouterr().err
