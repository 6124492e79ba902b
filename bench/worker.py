"""One workload in one fresh process: set up, run whole rounds of timed
operations, check every result, print one JSON line.

    python3 bench/worker.py --workload kpt-corpus --seed 1 --seconds 20 --trace 0
    python3 bench/worker.py --workload kpt-corpus --seed 1 --setup-only

``bench/run.py`` starts this process and turns its report into metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import resource
import sys
import time
from collections.abc import Mapping
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# Every run times at least two rounds, so that wall_s is never a single
# sample and a traced run has an untraced round to compare with.
MIN_ROUNDS = 2
# No round starts once this many seconds have passed: a run must end
# within three minutes even when the machine is slow.
ROUND_CUTOFF_S = 100.0

import spans  # noqa: E402  (bench/ is this script's directory)
import workloads  # noqa: E402


def canonical(x):
    """A hashable form of a result that does not depend on set order."""
    if x is None or isinstance(x, (str, int, float, bool)):
        return x
    if hasattr(x, "transitions") and hasattr(x, "initials"):
        return (
            tuple(x.alphabet),
            tuple(sorted(x.states)),
            tuple(sorted((s, a, d) for (s, a), ds in x.transitions.items() for d in ds)),
            tuple(sorted(x.initials)),
            tuple(sorted(x.accepting)),
        )
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, *(canonical(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if isinstance(x, (set, frozenset)):
        return ("set", *sorted((canonical(v) for v in x), key=repr))
    if isinstance(x, Mapping):
        return ("map", *sorted(((canonical(k), canonical(v)) for k, v in x.items()), key=repr))
    if isinstance(x, (tuple, list)):
        return tuple(canonical(v) for v in x)
    return repr(x)


def fingerprint(results) -> str:
    return hashlib.sha256(repr(canonical(results)).encode()).hexdigest()


@dataclasses.dataclass
class Record:
    case: str
    op: str
    seconds: float = 0.0
    failure: str | None = None
    known_fault: bool = False


class Context:
    """Checks results for the case plans.  A check whose inputs have the
    same fingerprint as in an earlier round reuses that round's outcome, so
    only the first round pays for the reference computations."""

    def __init__(self):
        self.outcomes: dict = {}
        self.records: list[Record] = []
        self.case = None
        self.n = 0
        self.last = -1

    def begin(self, case, records) -> None:
        self.case, self.records, self.n, self.last = case, records, 0, -1

    def fail(self, op: int, reason: str) -> None:
        record = self.records[op]
        if record.failure is None:
            record.failure = reason
            record.known_fault = record.op in self.case.known_fault

    def verify(self, check, *results, op: int | None = None) -> None:
        key = (self.case.name, self.n)
        self.n += 1
        fp = fingerprint(results)
        cached = self.outcomes.get(key)
        if cached is not None and cached[0] == fp:
            reason = cached[1]
        else:
            try:
                reason = check()
            except Exception as exc:  # a check that cannot finish is a failed check
                reason = f"check raised {exc!r}"
            self.outcomes[key] = (fp, reason)
        if reason:
            self.fail(self.last if op is None else op, reason)


def run_round(workload, ctx: Context, api) -> list[Record]:
    records: list[Record] = []
    clock = time.perf_counter
    # The round starts with no garbage left and with every object alive so
    # far frozen, so that collections inside its operations walk what the
    # round allocates and not the benchmark's own state.
    gc.collect()
    gc.freeze()
    for case in workload.cases:
        ctx.begin(case, records)
        plan = case.plan(ctx, api)
        try:
            op = plan.send(None)
            while True:
                name, fn, *args = op
                records.append(Record(case.name, name))
                ctx.last = len(records) - 1
                start = clock()
                try:
                    result = fn(*args)
                except Exception as exc:  # an operation that raises has failed
                    records[-1].seconds = clock() - start
                    ctx.fail(ctx.last, f"raised {exc!r}")
                    break
                records[-1].seconds = clock() - start
                op = plan.send(result)
                del result
        except StopIteration:
            pass
        except Exception as exc:  # a fault in the plan itself
            ctx.fail(max(ctx.last, 0), f"plan raised {exc!r}")
        finally:
            plan.close()
    gc.unfreeze()
    return records


def setup(workload_name: str, seed: int):
    """Import ptlang from this checkout, build the seeded inputs and write
    them out; returns (ptlang, workload, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import ptlang
    import ptlang.cli

    if Path(ptlang.__file__).resolve().parent != ROOT / "src" / "ptlang":
        raise SystemExit(f"ptlang imported from {ptlang.__file__}, not from this checkout")
    workload = workloads.WORKLOADS[workload_name](seed)
    folder = OUT / "inputs" / f"{workload_name}-{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    for name, text in workload.texts.items():
        (folder / f"{name}.aut").write_text(text, encoding="utf-8")
    return ptlang, workload, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    api, workload, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # With tracing, untraced and traced rounds alternate, so the overhead
    # compares rounds run under the same conditions.
    tracer = spans.Tracer() if args.trace else None
    ctx = Context()
    rounds = []  # (traced, records)
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            records = run_round(workload, ctx, api)
        finally:
            if traced:
                tracer.remove()
        rounds.append((traced, records))
        elapsed = time.perf_counter() - start
        enough = elapsed >= args.seconds and len(rounds) >= MIN_ROUNDS
        if enough or elapsed >= ROUND_CUTOFF_S:
            break

    report = {
        "setup_s": setup_s,
        "rounds": [
            {"traced": traced, "ops": [[r.case, r.op, r.seconds, r.failure, r.known_fault] for r in records]}
            for traced, records in rounds
        ],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        traced_rounds = sum(1 for traced, _ in rounds if traced)
        report["layers"] = spans.layer_metrics(tracer, traced_rounds)
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"spans-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
