"""Record the expected report digests for the shipped seeds.

    python3 bench/record.py

Runs the first RECORDED_ROUNDS rounds of every workload for each shipped
seed, checks every job's exit code and law, and writes bench/expected.json
with one 8-hex-digit digest of (exit code, stdout bytes) per job.  It
refuses to record a stream in which any check fails.  Re-recording changes
what the benchmark calls correct, so it is a benchmark change of its own,
never part of a change to the library.
"""

from __future__ import annotations

import json
import sys

import harness
import jobs

SHIPPED_SEEDS = (1, 2, 3)
# a run of the default length does 3-5 rounds; later rounds get law checks
RECORDED_ROUNDS = 5


def main() -> int:
    starprod = harness.import_starprod()
    digests: dict = {}
    try:
        for workload in jobs.WORKLOADS:
            harness.warm_up(starprod.cli, jobs.WARMUP[workload])
            for seed in SHIPPED_SEEDS:
                rounds = []
                for round_no in range(RECORDED_ROUNDS):
                    stream = jobs.round_jobs(workload, seed, round_no)
                    harness.write_job_files(stream)
                    checker = harness.Checker()
                    text = []
                    for job in stream:
                        code, stdout, _ = harness.call(starprod.cli, job)
                        checker.check(job, code, stdout, None)
                        text.append(harness.digest(code, stdout))
                    if checker.failed:
                        for problem in checker.problems:
                            print(f"FAILED {problem}", file=sys.stderr)
                        print(f"not recording: {workload} seed {seed} round "
                              f"{round_no} fails its checks", file=sys.stderr)
                        return 1
                    rounds.append("".join(text))
                    print(f"{workload} seed {seed} round {round_no}: "
                          f"{len(stream)} jobs", flush=True)
                digests.setdefault(workload, {})[str(seed)] = rounds
    finally:
        harness.remove_job_files()
    with open(harness.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump({"seeds": list(SHIPPED_SEEDS), "rounds": RECORDED_ROUNDS,
                   "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
