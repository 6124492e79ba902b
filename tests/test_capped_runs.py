"""Memory, time and exit-code guarantees, each checked in a child process.

A row runs its steps in turn in a fresh directory.  A step runs `python ARGV`, its address space capped at `cap` KB
as by `ulimit -v`, and must exit with `code` within `timeout` seconds.  `out` is its whole stdout less the final
newline and `err` its whole stderr, where given; `save` keeps its stdout in a file.  `streams` points descriptors
elsewhere before the child starts: at a pipe whose reader has gone (GONE), at a file, or nowhere (None, as `2>&-`).
"""

import os
import resource
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Optional

import pytest
from test_cli import readme_block

# Buffered as under a shell, so that a small output waits for main's flush.
ENV = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
ASTAR = "alphabet: a\nstates: q\ninitial: q\naccepting: q\nq a q\n"
NONE = "none (language is k-pt)"
GONE = "a pipe whose reader has gone"
FULL = "internal error: OSError: [Errno 28] No space left on device\n"


def pt(command: str) -> list:
    return ["-m", "ptlang.cli", *command.split()]


class Step(NamedTuple):
    argv: list
    cap: Optional[int] = None
    timeout: Optional[float] = None
    code: int = 0
    out: Optional[str] = None
    err: Optional[str] = None
    save: Optional[str] = None
    streams: dict = {}


ROWS = {
    "gen-ak-refuses-a-huge-k": [Step(pt("gen ak 100000"), 1_000_000, code=2)],
    "default-class-budget-in-2GB": [Step(pt("gen ak 4"), 2_000_000, save="ak4.aut"),
                                    Step(pt("min-k ak4.aut"), 2_000_000, code=3, out="interval 4 31")],
    "min-k-on-ak12-in-20s": [Step(pt("gen ak 12"), 2_000_000, save="ak12.aut"),
                             Step(pt("min-k ak12.aut"), 2_000_000, 20, code=3, out="interval 3 8191")],
    "witness-verifies-and-min-k-walks-past-is_3pt": [
        Step(pt("gen ak 3"), save="ak3.aut"), Step(pt("--json witness --k 3 ak3.aut"), save="witness.json"),
        Step(["-c", """import json, sys; from ptlang.cli import main; w = json.load(open("witness.json")); sys.exit(
             main(["verify", "--k", "3", "--w1", w["w1"], "--w2", w["w2"], "ak3.aut"]))"""], out="valid"),
        Step(pt("gen tight 3 3"), save="tight33.aut"), Step(pt("min-k tight33.aut"), out="3"),
    ],
    "oracle-on-tight-2-4-in-450MB": [Step(pt("gen tight 2 4"), save="tight24.aut"),
                                     Step(pt("witness --k 3 tight24.aut"), 450_000, 60, code=1, out=NONE)],
    "witness-at-a-huge-k-on-astar": [Step(pt("witness --k 1000000 astar.aut"), 600_000, 10, code=1, out=NONE)],
    "canonical-6-letters-in-800MB": [Step(["-c", """from ptlang import canonical_automaton; a = canonical_automaton(
        [f"a{i}" for i in range(1, 7)], 2); assert len(a.names) == 1602420"""], 820_000)],
    "is-pt-on-cap15-in-15s": [Step(pt("gen cap 15"), save="c.aut"), Step(pt("is-pt c.aut"), 600_000, 15, out="yes")],
    "is-pt-on-ak20-in-400MB": [Step(pt("gen ak 20"), save="a.aut"), Step(pt("is-pt a.aut"), 400_000, 10, out="yes")],
    "minimize-tight-2-5-in-20s": [Step(["-c", """from ptlang import gen_tight_depth_dfa, minimize, depth; m = minimize(
        gen_tight_depth_dfa(2, 5)); assert len(m.names) == 111 and depth(m) == 20"""], 600_000, 20)],
    "determinizing-ak14-in-10s": [Step(["-c", """from ptlang import determinize, gen_ak; assert len(determinize(
        gen_ak(14)).names) == 32768"""], 400_000, 10)],
    "readme-example-prints-3": [Step(["-c", "\n".join(readme_block("## Library example"))], out="3")],
    "gone-stdout-exits-141-quietly": [Step(pt("gen cap 12"), code=141, err="", streams={1: GONE}),
                                      Step(pt("is-kpt --k 1 astar.aut"), code=141, err="", streams={1: GONE}),
                                      Step(pt("gen cap 12"), code=141, streams={1: GONE, 2: GONE})],
    "gone-stderr-keeps-the-error-code": [Step(pt("is-kpt --k 1 missing.aut"), code=2, streams={2: GONE}),
                                         Step(pt("is-kpt --k x astar.aut"), code=2, streams={2: GONE})],
    "closed-streams-keep-the-code": [Step(pt("is-pt astar.aut"), out="yes", streams={2: None}),
                                     Step(pt("is-pt astar.aut"), err="", streams={1: None}),
                                     Step(pt("is-kpt --k 1 missing.aut"), code=2, out="", streams={2: None})],
    "full-disk-is-an-internal-error": [Step(pt("is-pt astar.aut"), code=4, err=FULL, streams={1: "/dev/full"}),
                                       Step(pt("gen cap 12"), code=4, err=FULL, streams={1: "/dev/full"})],
}


def start(step: Step) -> None:
    """Caps the child's address space and points its descriptors as the step says; `close_fds` shuts the spares."""
    if step.cap:
        resource.setrlimit(resource.RLIMIT_AS, (step.cap * 1024,) * 2)
    for fd, target in step.streams.items():
        if target is None:
            os.close(fd)
        elif target == GONE:
            reader, writer = os.pipe()
            os.close(reader)
            os.dup2(writer, fd)
        else:
            os.dup2(os.open(target, os.O_WRONLY), fd)


@pytest.mark.parametrize("steps", ROWS.values(), ids=list(ROWS))
def test_capped_run(steps, tmp_path):
    (tmp_path / "astar.aut").write_text(ASTAR)
    for step in steps:
        proc = subprocess.run([sys.executable, *step.argv], cwd=tmp_path, env=ENV, timeout=step.timeout,
                              capture_output=True, text=True, preexec_fn=lambda: start(step))
        assert proc.returncode == step.code, (step.argv, proc.stderr)
        if step.save:
            (tmp_path / step.save).write_text(proc.stdout)
        if step.out is not None:
            assert proc.stdout == (step.out and step.out + "\n"), step.argv
        if step.err is not None:
            assert proc.stderr == step.err, step.argv
