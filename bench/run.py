"""The ptlang benchmark: one workload, measured in fresh single-threaded processes.

    python3 bench/run.py --workload nfa-pt --seed 1 --seconds 20 --trace 0

Set-up runs several times, each in its own process, and ``setup_s`` is their
median.  Then one process runs whole rounds of the workload's operations for
``--seconds`` and checks every result.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and the metrics, the
end-to-end ones with ``--trace 0`` and the per-layer ones with ``--trace 1``.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads  # bench/ is this script's directory

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 20


def worker(args: list[str], timeout: float) -> dict:
    """Run bench/worker.py in a fresh process and return its JSON report."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ptlang" / "__init__.py").is_file():
        print(f"error: no ptlang sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [worker([*common, "--setup-only"], SETUP_TIMEOUT_S)["setup_s"] for _ in range(SETUP_RUNS)]
    report = worker(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], WORKER_TIMEOUT_S
    )
    setups.append(report["setup_s"])

    rounds = report["rounds"]
    ops = [op for r in rounds for op in r["ops"]]
    failures = [op for op in ops if op[3] is not None]
    unexpected = [op for op in failures if not op[4]]
    for case, name, reason, known in sorted({(op[0], op[1], op[3], op[4]) for op in failures}):
        label = "known fault" if known else "FAILED"
        print(f"{label}: {args.workload}/{case} {name}: {reason}", file=sys.stderr)

    plain = [r for r in rounds if not r["traced"]]
    walls = [sum(op[2] for op in r["ops"]) for r in plain]
    if args.trace:
        traced_walls = [sum(op[2] for op in r["ops"]) for r in rounds if r["traced"]]
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in report["layers"].items()}
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(traced_walls) / statistics.median(walls),
            "unit": "ratio",
        }
    else:
        latencies_ms = [op[2] * 1000 for r in plain for op in r["ops"]]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(latencies_ms), "unit": "ms"},
            "op_p90_ms": {
                "value": statistics.quantiles(latencies_ms, n=10, method="inclusive")[8],
                "unit": "ms",
            },
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(
        f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {len(ops)} operations",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": not unexpected,
                "attempted": len(ops),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
