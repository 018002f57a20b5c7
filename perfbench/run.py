#!/usr/bin/env python3
"""Benchmark of the CFD/CIND detection system: one command, five workloads.

Run from the repository root::

    python3 perfbench/run.py --workload cold-check --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --workload repair --trace 1      # per-layer run

Each workload runs in its own process. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``. The line before
it, ``perfbench-detail {...}``, holds everything else: provenance, the
per-configuration medians and tails under their full names, failures,
and, when traced, which end-to-end metric each layer metric should move.

The exit status is 0 for a correct run, 1 when an output was incorrect
(the message names the workload and the op) and 2 when the program under
test cannot be found or the run broke.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: ``serve-wire`` is not in ``BENCHMARK.json`` (a known program defect
#: fails its gate on some seeds, see the README); it runs by name and
#: under ``--workload all``.
WORKLOAD_NAMES = ("cold-check", "dml-recheck", "serve-wire",
                  "serve-wire-memory", "repair")
#: A run that has not ended by then is broken; it aborts with status 2.
RUN_LIMIT_S = 170

PAGE_CACHE_NOTE = (
    "sqlite files are small enough to stay in the OS page cache, so sqlfile "
    "latencies describe this machine's memory and CPU, not a storage device"
)

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(seed: int) -> dict:
    import sqlite3

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "git_commit": git_commit(),
        "source_digest": source_digest(ROOT / "src"),
        "seed": seed,
        "storage": PAGE_CACHE_NOTE,
    }


class RunTimeout(BaseException):
    """Raised by the alarm; a BaseException so no op handler swallows it."""


def _timeout(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_LIMIT_S} s")


def run_one(args: argparse.Namespace, spec: dict) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({src / 'repro'})",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    # Every temporary file of the run, sqlite's included, stays inside the
    # checkout, and the run removes it afterwards.
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = tmpdir
    tempfile.tempdir = tmpdir
    sys.path[:0] = [str(src), str(HERE)]
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    try:
        from pbench.runner import execute
        from pbench.workloads import WORKLOADS
        from pbench import layers

        result = execute(WORKLOADS[args.workload], args.seed, seconds,
                         bool(args.trace), tmpdir)
    except RunTimeout as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    detail = dict(result)
    detail["provenance"] = provenance(args.seed)
    detail["fail_ratio"] = result["failed"] / max(result["attempted"], 1)
    detail["named"] = {
        f"{key}.p50_s": summary["p50_s"]
        for key, summary in result["ops"].items()
    }
    detail["named"]["cycle.p50_s"] = result["cycle"]["p50_s"]
    write_tail = result["ops"].get("write_delta.memory", {}).get("tail_s")
    if write_tail is not None:
        detail["named"]["write_delta.memory.tail_s"] = write_tail

    if args.trace:
        detail["layer_tags"] = layers.tags()
        metrics = {
            entry["name"]: {"value": result["per_layer"][entry["name"]],
                            "unit": entry["unit"]}
            for entry in spec["per_layer"]
        }
    else:
        values = {
            "cycle.p50_rel": result["cycle_p50_rel"],
            "memory.p50_rel": result["memory_p50_rel"],
            "setup_s": result["setup_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {
            entry["name"]: {"value": values[entry["name"]],
                            "unit": entry["unit"]}
            for entry in spec["end_to_end"]
        }

    for name, value in sorted(detail["named"].items()):
        print(f"{name:34s} {value:.6f} s" if value is not None
              else f"{name:34s} n/a")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']} {metric['unit']}")
    print(f"{'fail_ratio':34s} {detail['fail_ratio']} "
          f"({result['failed']}/{result['attempted']} ops)")
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = result["error"] is None
    if not correct:
        print(f"INCORRECT {result['error']}", file=sys.stderr)
    print("perfbench-detail " + json.dumps(detail, default=str))
    missing = [n for n, m in metrics.items() if m["value"] is None]
    if missing:
        print(f"error: no samples for {missing}", file=sys.stderr)
        return 2 if correct else 1
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process; prints each one's result."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--trace", str(args.trace)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(command, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if not line.startswith("perfbench-detail "):
                print(line)
        status = max(status, proc.returncode)
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        spec = benchmark_spec()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
