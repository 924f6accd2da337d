"""Benchmark for starprod: seeded job streams through ``starprod.cli.main``.

    python3 bench/run.py --workload cli_session --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --all            # every workload, one table

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (throughput, latency quantiles, set-up time, peak memory);
with --trace 1 they are the per-layer counts and self times of a traced run.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import jobs
from tracing import Tracer

SETUP_REPEATS = 15


def _round(workload: str, seed: int, round_no: int) -> list[jobs.Job]:
    stream = jobs.round_jobs(workload, seed, round_no)
    harness.write_job_files(stream)
    return stream


def end_to_end(starprod, workload: str, seed: int, seconds: float,
               expected: dict) -> tuple[harness.Checker, dict]:
    """Whole rounds until `seconds` have passed; untraced."""
    setup = harness.setup_seconds(SETUP_REPEATS)
    harness.warm_up(starprod.cli, jobs.WARMUP[workload])
    checker = harness.Checker()
    probe = harness.SpeedProbe()
    latencies: list[float] = []
    start = time.perf_counter()
    round_no = 0
    while round_no == 0 or time.perf_counter() - start < seconds:
        stream = _round(workload, seed, round_no)
        want = harness.expected_digests(expected, workload, seed, round_no)
        latencies += harness.run_pass(starprod.cli, stream, checker, want,
                                      probe)
        round_no += 1
    metrics = {
        "jobs_per_s": (len(latencies) / sum(latencies), "jobs/s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_p90_s": (statistics.quantiles(latencies, n=10,
                                           method="inclusive")[8], "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mib": (harness.peak_rss_mib(), "MiB"),
    }
    return checker, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced(starprod, workload: str, seed: int,
           expected: dict) -> tuple[harness.Checker, dict]:
    """Round 0 untraced, then round 1 traced; counts are exact.

    The two rounds have the same composition but fresh values, so the traced
    pass does the same work as an untraced round rather than replaying one.
    The amount of work is fixed rather than timed, so that every count
    repeats for a given seed.
    """
    harness.warm_up(starprod.cli, jobs.WARMUP[workload])
    checker = harness.Checker()
    probe = harness.SpeedProbe()
    plain = harness.run_pass(starprod.cli, _round(workload, seed, 0), checker,
                             harness.expected_digests(expected, workload,
                                                      seed, 0), probe)
    stream = _round(workload, seed, 1)
    want = harness.expected_digests(expected, workload, seed, 1)
    tracer = Tracer(starprod).install()
    out_bytes = [0]
    try:
        tracer.start()
        spanned = harness.run_pass(starprod.cli, stream, checker, want, probe,
                                   out_bytes)
        tracer.stop()
    finally:
        tracer.restore()
    return checker, tracer.metrics(out_bytes[0], sum(spanned) / sum(plain))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    starprod = harness.import_starprod()
    expected = harness.load_expected()
    try:
        if trace:
            checker, metrics = traced(starprod, workload, seed, expected)
        else:
            checker, metrics = end_to_end(starprod, workload, seed, seconds,
                                          expected)
    finally:
        harness.remove_job_files()
    for problem in checker.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def run_all(seed: int, seconds: int) -> int:
    """Each workload in its own process; print every metric with its unit."""
    status = 0
    for workload in jobs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows = dict(result["metrics"])
        rows["fail_ratio"] = {"value": result["failed"] / result["attempted"],
                              "unit": "ratio"}
        print(f"{workload}  ({result['attempted']} jobs, seed {seed})")
        for name, cell in rows.items():
            print(f"  {name:<14} {cell['value']:>12.6g} {cell['unit']}")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and print a table")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required unless --all is given")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError, RuntimeError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
