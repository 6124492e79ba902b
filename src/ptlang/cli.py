"""Command-line front end and the automaton text format.

An automaton file has four header lines (`alphabet:`, `states:`, `initial:`,
`accepting:`) with whitespace-separated tokens, followed by one transition
per line as `src letter dst`.  `#` starts a comment, blank lines are
ignored.  Canonical serialization sorts states and transitions, so a parsed
file re-serializes bit-identically.

Every command that asks a k-PT question passes the automaton it reads as it
is: the library decides on `Automaton.minimal`, which `monoid` reads too.
`witness` takes its verdict from `is_kpt`, as `is-kpt` does, and runs the
class-search oracle only for the certificate of a "no" that `is_kpt` gave
without one.

Exit codes: 0 = yes/success, 1 = no, 2 = input or contract error,
3 = unknown (a budget or memory ran out), 4 = internal error (a crash),
141 = the reader closed stdout (128 + SIGPIPE; no verdict uses it).  An
error message that cannot be written leaves the same code.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Optional

from ptlang.automata import (
    DEFAULT_MONOID_BUDGET,
    Automaton,
    BudgetExceededError,
    ContractError,
    CyclicAutomatonError,
    InputError,
    Word,
    check_identity,
    depth,
    determinize,
    make_automaton,
    minimize,
    transition_monoid,
)
from ptlang.subwords import DEFAULT_CLASS_BUDGET, canonical_automaton
from ptlang.pt import is_pt
from ptlang.kpt import (
    IDENTITIES,
    PieceExpression,
    decompose,
    is_kpt,
    is_kpt_oracle,
    min_k,
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

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_UNKNOWN = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141  # 128 + SIGPIPE: the reader closed stdout

_HEADERS = ("alphabet", "states", "initial", "accepting")


def parse_automaton(text: str) -> Automaton:
    headers: dict[str, list[str]] = {}
    triples: list[list[str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        if ":" in line:
            head, _, rest = line.partition(":")
            key = head.strip()
            if key in _HEADERS:
                if key in headers:
                    raise InputError(f"line {lineno}: duplicate header {key!r}")
                headers[key] = rest.split()
                continue
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 3:
            raise InputError(
                f"line {lineno}: expected 'src letter dst', got {line.strip()!r}"
            )
        triples.append(tokens)
    for key in _HEADERS:
        if key not in headers:
            raise InputError(f"missing header {key!r}")
    if "-" in headers["alphabet"]:
        raise InputError("the letter '-' is reserved: it spells the empty word")
    try:
        return make_automaton(
            headers["states"],
            headers["alphabet"],
            triples,
            headers["initial"],
            headers["accepting"],
        )
    except InputError as exc:
        raise InputError(f"invalid automaton: {exc}") from exc


def serialize_automaton(a: Automaton) -> str:
    names, alphabet = a.names, a.alphabet
    states_text, letters_text = " ".join(names), " ".join(alphabet)
    # Every name must stand as one token: not empty, with no whitespace and
    # no '#'.  A transition line reads as a header when the text before its
    # first colon, in its source state or at the start of its letter, is a
    # header name; the letter '-' would read back as the empty word.
    colon_letter = any(letter.startswith(":") for letter in alphabet)
    header_like = lambda q: q.partition(":")[0] in _HEADERS and (":" in q or colon_letter)
    checks = (("state", names, states_text, header_like), ("letter", alphabet, letters_text, "-".__eq__))
    for kind, group, text, refused in checks:
        if text.split() != list(group) or "#" in text or any(map(refused, group)):
            bad = next(x for x in group if x.split() != [x] or "#" in x or refused(x))
            raise InputError(f"{kind} {bad!r} cannot be written in the text format")
    lines = [
        "alphabet: " + letters_text,
        "states: " + states_text,
        "initial: " + " ".join([names[q] for q in sorted(a.starts)]),
        "accepting: " + " ".join([names[q] for q in sorted(a.finals)]),
    ]
    # The triples in sorted order: states sort like their indices.
    letters = sorted(zip(alphabet, range(len(alphabet))))
    lines += [
        f"{name} {letter} {names[q]}"
        for name, row in zip(names, a.rows) for letter, j in letters for q in row[j]
    ]
    return "\n".join(lines) + "\n"


def load_automaton(path: str) -> Automaton:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_automaton(handle.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def parse_word(text: str) -> Word:
    # The empty word is spelled '-' on the command line.
    if text.strip() == "-":
        return ()
    return tuple(text.split())


def word_to_str(w: Word) -> str:
    return " ".join(w) if w else "-"


def render_piece_expression(e: PieceExpression) -> str:
    if not e.clauses:
        return "FALSE"
    shortlex = lambda w: (len(w), w)
    parts = []
    for clause in e.clauses:
        terms = [".".join(v) for v in sorted(clause.required, key=shortlex)]
        terms += ["!" + ".".join(v) for v in sorted(clause.forbidden, key=shortlex)]
        parts.append("(" + " & ".join(terms) + ")" if terms else "TRUE")
    return " | ".join(parts)


def _emit(args, report: dict, bare: Optional[str] = None) -> None:
    if args.json:
        print(json.dumps(report))
    elif bare is not None:
        print(report[bare])
    else:
        for key, value in report.items():
            print(f"{key}: {value}")


def cmd_info(args) -> int:
    a = load_automaton(args.file)
    try:
        d: object = depth(a)
    except CyclicAutomatonError:
        d = "cyclic"
    _emit(
        args,
        {
            "states": len(a.names),
            "letters": len(a.alphabet),
            "deterministic": "yes" if a.deterministic else "no",
            "complete": "yes" if a.complete else "no",
            "depth": d,
        },
    )
    return EXIT_YES


def cmd_determinize(args) -> int:
    _emit(args, {"automaton": serialize_automaton(determinize(load_automaton(args.file)))}, "automaton")
    return EXIT_YES


def cmd_minimize(args) -> int:
    _emit(args, {"automaton": serialize_automaton(minimize(determinize(load_automaton(args.file))))}, "automaton")
    return EXIT_YES


def cmd_is_pt(args) -> int:
    verdict = is_pt(load_automaton(args.file))
    _emit(args, {"piecewise-testable": "yes" if verdict else "no"}, "piecewise-testable")
    return EXIT_YES if verdict else EXIT_NO


def cmd_is_kpt(args) -> int:
    answer = is_kpt(load_automaton(args.file), args.k, args.budget)
    _emit(args, {"k-pt": answer.verdict}, "k-pt")
    return {"yes": EXIT_YES, "no": EXIT_NO}.get(answer.verdict, EXIT_UNKNOWN)


def cmd_min_k(args) -> int:
    result = min_k(load_automaton(args.file), args.budget)
    if result is None:
        _emit(args, {"min-k": "not-pt"}, "min-k")
        return EXIT_NO
    if isinstance(result, tuple):
        _emit(args, {"min-k": f"interval {result[0]} {result[1]}"}, "min-k")
        return EXIT_UNKNOWN
    _emit(args, {"min-k": result}, "min-k")
    return EXIT_YES


def cmd_witness(args) -> int:
    a = load_automaton(args.file)
    answer = is_kpt(a, args.k, args.budget)
    if answer.verdict == "no" and answer.certificate is None:
        answer = is_kpt_oracle(a, args.k, args.budget)
    if answer.verdict == "no":
        c = answer.certificate
        _emit(
            args,
            {"k": c.k, "w1": word_to_str(c.w1), "w2": word_to_str(c.w2)},
        )
        return EXIT_YES
    if answer.verdict == "yes":
        _emit(args, {"witness": "none (language is k-pt)"}, "witness")
        return EXIT_NO
    _emit(args, {"witness": "unknown"}, "witness")
    return EXIT_UNKNOWN


def cmd_verify(args) -> int:
    ok = verify_pair(load_automaton(args.file), args.k, parse_word(args.w1), parse_word(args.w2))
    _emit(args, {"certificate": "valid" if ok else "invalid"}, "certificate")
    return EXIT_YES if ok else EXIT_NO


def cmd_decompose(args) -> int:
    expression = decompose(load_automaton(args.file), args.k, args.budget)
    _emit(args, {"expression": render_piece_expression(expression)}, "expression")
    return EXIT_YES


def cmd_canonical(args) -> int:
    letters = [f"a{i}" for i in range(1, args.letters + 1)]
    a = canonical_automaton(letters, args.k, args.budget)
    _emit(args, {"automaton": serialize_automaton(a)}, "automaton")
    return EXIT_YES


def cmd_depth(args) -> int:
    _emit(args, {"depth": depth(load_automaton(args.file))}, "depth")
    return EXIT_YES


def cmd_monoid(args) -> int:
    monoid = transition_monoid(load_automaton(args.file).minimal, args.budget)
    report: dict = {"size": len(monoid.elements)}
    violated = False
    if args.check_identities is not None:
        for lhs, rhs in IDENTITIES[args.check_identities]:
            counterexample = check_identity(monoid, [(lhs, rhs)], args.budget)
            report[f"{lhs}={rhs}"] = "holds" if counterexample is None else "violated"
            violated = violated or counterexample is not None
    _emit(args, report)
    return EXIT_NO if violated else EXIT_YES


def cmd_gen(args) -> int:
    if args.family in ("wk", "wkn"):
        word = gen_wk(args.k) if args.family == "wk" else gen_wkn(args.k, args.n)
        _emit(args, {"word": word_to_str(word)}, "word")
        return EXIT_YES
    if args.family == "ak":
        a = gen_ak(args.k)
    elif args.family == "cap":
        a = gen_intersection_nfa(tuple(f"a{i}" for i in range(1, args.n + 1)))
    else:  # tight
        a = gen_tight_depth_dfa(args.k, args.n, args.budget)
    _emit(args, {"automaton": serialize_automaton(a)}, "automaton")
    return EXIT_YES


def cmd_pkn(args) -> int:
    _emit(args, {"pkn": pkn(args.k, args.n)}, "pkn")
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptlang",
        description="Piecewise testability of regular languages.",
    )
    parser.add_argument("--json", action="store_true", help="structured output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, file=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        if file:
            p.add_argument("file")
        return p

    def add_budget(p, default=DEFAULT_CLASS_BUDGET):
        p.add_argument("--budget", type=int, default=default)

    add("info", cmd_info, help="state/letter counts, determinism, depth")
    add("determinize", cmd_determinize, help="subset construction")
    add("minimize", cmd_minimize, help="minimal complete DFA (determinizes first)")
    add("is-pt", cmd_is_pt, help="is the language piecewise testable?")

    p = add("is-kpt", cmd_is_kpt, help="is the language k-piecewise testable?")
    p.add_argument("--k", type=int, required=True)
    add_budget(p)

    p = add("min-k", cmd_min_k, help="minimal k for which the language is k-PT")
    add_budget(p)

    p = add("witness", cmd_witness, help="non-k-PT certificate, if one exists")
    p.add_argument("--k", type=int, required=True)
    add_budget(p)

    p = add("verify", cmd_verify, help="verify a non-k-PT certificate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)

    p = add("decompose", cmd_decompose, help="boolean combination of pieces")
    p.add_argument("--k", type=int, required=True)
    add_budget(p)

    p = add("canonical", cmd_canonical, file=False, help="the canonical DFA of k-equivalence")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--letters", type=int, required=True)
    add_budget(p)

    add("depth", cmd_depth, help="longest path of an acyclic automaton")

    p = add("monoid", cmd_monoid, help="transition monoid of the minimal DFA")
    p.add_argument("--check-identities", type=int, choices=(1, 2, 3))
    add_budget(p, default=DEFAULT_MONOID_BUDGET)

    p = add("gen", cmd_gen, file=False, help="generate extremal automata and words")
    gen_sub = p.add_subparsers(dest="family", required=True)
    g = gen_sub.add_parser("ak")
    g.add_argument("k", type=int)
    g = gen_sub.add_parser("wk")
    g.add_argument("k", type=int)
    g = gen_sub.add_parser("wkn")
    g.add_argument("k", type=int)
    g.add_argument("n", type=int)
    g = gen_sub.add_parser("cap")
    g.add_argument("n", type=int)
    g = gen_sub.add_parser("tight")
    g.add_argument("k", type=int)
    g.add_argument("n", type=int)
    add_budget(g)
    for g in gen_sub.choices.values():
        g.set_defaults(func=cmd_gen)

    p = add("pkn", cmd_pkn, file=False, help="the tight depth bound C(k+n,k)-1")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)

    return parser


def _flush(stream) -> Optional[OSError]:
    """Flushes `stream`, which is None when its descriptor was closed at
    startup.  A stream that cannot be flushed is pointed at /dev/null, so
    that the interpreter's final flush cannot fail again, and the error is
    returned."""
    try:
        if stream is not None:
            stream.flush()
        return None
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return exc


def _report(message: str) -> None:
    # A message that cannot be written still leaves its exit code.
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(message, file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        # argparse drops a message it cannot write; its exit code stands.
        _flush(sys.stdout)
        _flush(sys.stderr)
        raise
    try:
        code = args.func(args)
    except BrokenPipeError:
        code = EXIT_PIPE
    except (BudgetExceededError, MemoryError) as exc:
        _report(f"error: {str(exc) or 'out of memory'}")
        code = EXIT_UNKNOWN
    except (InputError, ContractError) as exc:
        _report(f"error: {exc}")
        code = EXIT_ERROR
    except Exception as exc:
        _report(f"internal error: {type(exc).__name__}: {exc}")
        code = EXIT_INTERNAL
    error = _flush(sys.stdout)
    if isinstance(error, BrokenPipeError):
        # A closed stdout ends the run as SIGPIPE would, with nothing said.
        code = EXIT_PIPE
    elif error is not None and code != EXIT_INTERNAL:
        # Output lost otherwise, to a full disk say, is an internal error.
        _report(f"internal error: {type(error).__name__}: {error}")
        code = EXIT_INTERNAL
    _flush(sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
