"""Self-tests of the benchmark itself.

    python3 bench/selftest.py                  # about 3 minutes

Checks that the job streams are deterministic, that the exactness checks
catch a corrupted expected value and a broken law, and that traced runs
count exactly, restore every patched binding and account for all of the
traced wall time.  Exits 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import harness
import jobs
import tracing
from tracing import Tracer

HERE = Path(__file__).resolve().parent

# layers each workload must reach, and the layer with the most self time
EXPECTED_LAYERS = {
    "wick_orders": ("wick", "scalars", "superalg.mul", "expr", "cli"),
    "coeff_dense": ("scalars", "superalg.mul", "superalg.deriv", "expr",
                    "poisson", "koszul", "bv", "cli"),
    "cli_session": ("wick", "scalars", "superalg.mul", "expr", "poisson",
                    "koszul", "bv", "moduli", "cli"),
}
DOMINANT = {"wick_orders": "wick", "coeff_dense": "scalars",
            "cli_session": "cli"}
SELF_TIMES = ("wick", "scalars", "superalg.mul", "superalg.deriv",
              "superalg.add", "superalg.other", "cli", "expr", "moduli",
              "poisson", "koszul", "bv")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def test_streams() -> None:
    for workload in jobs.WORKLOADS:
        first = jobs.round_jobs(workload, 7, 1)
        expect(first == jobs.round_jobs(workload, 7, 1),
               f"{workload}: the same seed gives identical argv lists")
        expect(first != jobs.round_jobs(workload, 8, 1),
               f"{workload}: another seed gives other argv lists")
        expect(len(first) >= 100, f"{workload}: a round has >= 100 jobs")
        loose = [a for job in first for a in job.argv[1:]
                 if not a.startswith("--")]
        expect(not loose, f"{workload}: every value is passed as --flag=value")


def test_checks(starprod) -> None:
    expected = harness.load_expected()
    workload, seed = "cli_session", expected["seeds"][0]
    stream = jobs.round_jobs(workload, seed, 0)[:80]
    harness.write_job_files(stream)
    recorded = harness.expected_digests(expected, workload, seed, 0)
    want = recorded[:8 * len(stream)]
    probe = harness.SpeedProbe()

    clean = harness.Checker()
    harness.run_pass(starprod.cli, stream, clean, want, probe)
    expect(clean.failed == 0, "recorded digests match on a shipped seed")

    flipped = "0" if want[8 * 5] != "0" else "1"
    corrupted = want[:8 * 5] + flipped + want[8 * 5 + 1:]
    bad = harness.Checker()
    harness.run_pass(starprod.cli, stream, bad, corrupted, probe)
    expect(bad.failed == 1 and "recorded" in bad.problems[0],
           "one corrupted expected digest is reported as one failure")

    laws = harness.Checker()
    wrong = []
    for job in stream:
        if job.check and job.check[0] == "poisson":
            job = dataclasses.replace(job, check=("poisson", not job.check[1]))
        elif job.code:
            job = dataclasses.replace(job, code=0)
        wrong.append(job)
    planted = sum(a != b for a, b in zip(wrong, stream))
    harness.run_pass(starprod.cli, wrong, laws, None, probe)
    expect(planted > 0 and laws.failed == planted,
           f"{planted} wrong verdicts or exit codes give {planted} failures")

    twin = jobs.Job(("star", "--alpha=canonical2d", "--f=x1", "--g=x2",
                     "--at=0,0"), check=("twin", "t"))
    other = jobs.Job(("moyal", "--alpha=canonical2d", "--f=x1", "--g=x1",
                      "--at=0,0"), check=("twin", "t"))
    twins = harness.Checker()
    harness.run_pass(starprod.cli, [twin, other], twins, None, probe)
    expect(twins.failed == 1, "a twin with a different report fails")


def test_tracer(starprod) -> None:
    stream = jobs.round_jobs("cli_session", 1, 0)[:120]
    harness.write_job_files(stream)
    originals = {"cli.main": starprod.cli.main,
                 "cli.parse_poly": starprod.cli.parse_poly,
                 "wick.poisson_bracket": starprod.wick.poisson_bracket,
                 "Scalar.__mul__": starprod.Scalar.__dict__["__mul__"],
                 "GradedPoly.zero": starprod.GradedPoly.__dict__["zero"]}
    wick_star = starprod.wick.star
    tracer = Tracer(starprod).install()
    try:
        expect(starprod.cli.parse_poly is not originals["cli.parse_poly"]
               and starprod.wick.poisson_bracket
               is not originals["wick.poisson_bracket"],
               "bindings by name in other modules are wrapped too")
        tracer.start()
        harness.run_pass(starprod.cli, stream, harness.Checker(), None,
                         harness.SpeedProbe())
        tracer.stop()
    finally:
        tracer.restore()
    now = {"cli.main": starprod.cli.main,
           "cli.parse_poly": starprod.cli.parse_poly,
           "wick.poisson_bracket": starprod.wick.poisson_bracket,
           "Scalar.__mul__": starprod.Scalar.__dict__["__mul__"],
           "GradedPoly.zero": starprod.GradedPoly.__dict__["zero"]}
    expect(all(now[k] is v for k, v in originals.items()),
           "restore puts every original binding back")
    tracing.LAYERS["missing"] = [("wick", ("star", "no_such_function"))]
    try:
        Tracer(starprod).install()
        refused = False
    except RuntimeError:
        refused = True
    finally:
        del tracing.LAYERS["missing"]
    expect(refused and starprod.wick.star is wick_star,
           "a missing layer entry stops the run and leaves nothing patched")
    total = (sum(tracer.self_ns.values()) + tracer.hook_ns
             + tracer.harness_ns)
    expect(total == tracer.wall_ns and tracer.harness_ns >= 0
           and tracer.hook_ns > 0 and min(tracer.self_ns.values()) >= 0,
           "self times plus hook and harness time equal the traced wall time")


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(result["correct"], f"{workload}: traced run is correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_traced_runs(workload: str) -> None:
    first = traced_run(workload, 2)
    second = traced_run(workload, 2)
    counts = [k for k in first if not k.endswith("_s")
              and k != "trace.overhead_ratio"]
    differ = [k for k in counts if first[k] != second[k]]
    expect(not differ, f"{workload}: {len(counts)} counts repeat exactly "
                       f"across two traced runs {differ or ''}")
    for layer in EXPECTED_LAYERS[workload]:
        key = "scalars.ops" if layer == "scalars" else f"{layer}.calls"
        expect(first[key] > 0, f"{workload}: {key} = {first[key]} > 0")
    if workload == "coeff_dense":
        expect(first["wick.calls"] == 0, "coeff_dense: wick.calls == 0")
    if workload != "cli_session":
        expect(first["moduli.calls"] == 0, f"{workload}: moduli.calls == 0")
    top = max(SELF_TIMES, key=lambda layer: first[f"{layer}.self_s"])
    expect(top == DOMINANT[workload],
           f"{workload}: most self time in {top} "
           f"(predicted {DOMINANT[workload]})")


def main() -> int:
    starprod = harness.import_starprod()
    harness.warm_up(starprod.cli, jobs.WARMUP["cli_session"])
    try:
        test_streams()
        test_checks(starprod)
        test_tracer(starprod)
    finally:
        harness.remove_job_files()
    for workload in jobs.WORKLOADS:
        test_traced_runs(workload)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
