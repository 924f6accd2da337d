"""Run job streams through ``starprod.cli.main`` in-process and check them.

One client, one thread: the next job starts when the previous one returns
(a closed loop).  Each job's latency is the wall time of its ``main`` call.

The machine this benchmark was written on changes speed by 20-40 % within
seconds, independently of the program (a fixed pure-Python loop drifted
from 0.157 s to 0.246 s; one job's median over 20 calls read 0.060 s in one
process and 0.113 s in another).  So every reported time is rescaled to a
nominal machine speed: a fixed reference loop of Fraction arithmetic (the
probe) runs at least every PROBE_EVERY_S seconds between jobs, and a job's
latency is multiplied by NOMINAL_PROBE_S over the mean of the probes taken
just before and just after it.  Rescaled, the same job's medians stayed
within 5 % across those processes.  The probe does not call the program, so
a faster program still shows as a shorter time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from jobs import Job

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

# the machine's speed shifts by ~20 % on a 0.1-0.3 s time scale, while two
# consecutive probes differ by ~4 %: frequent single probes track it best
PROBE_EVERY_S = 0.1
# about the probe's time on the reference machine (2-core x86-64, Python
# 3.11); only the scale of reported times depends on it
NOMINAL_PROBE_S = 0.0025


def import_starprod():
    """Import the library from this checkout's src/, never from elsewhere.

    Also makes the checkout's root the working directory: job files are
    passed to the program by paths relative to it (``--json=bench/.work/...``).
    """
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import starprod
    import starprod.cli
    if Path(starprod.__file__).resolve().parent != SRC / "starprod":
        raise ImportError(f"starprod was imported from {starprod.__file__}, "
                          f"not from {SRC}")
    return starprod


# speed probe ----------------------------------------------------------------------

def _probe_once() -> float:
    t0 = time.perf_counter()
    acc: dict = {}
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, i + 3) * Fraction(3, 2 * i + 1)
        key = (i % 7, i % 3)
        acc[key] = acc.get(key, 0) + len(str(i))
    return time.perf_counter() - t0


def probe_seconds(repeats: int = 1) -> float:
    return statistics.median(_probe_once() for _ in range(repeats))


class SpeedProbe:
    """Probes taken between jobs; a job's scale comes from its neighbours."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")

    def take(self) -> None:
        self.samples.append(probe_seconds())
        self.last = time.perf_counter()

    def maybe(self) -> int:
        """Probe if one is due; return the index of the latest probe."""
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.take()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Nominal/actual speed for a job between probes index and index+1."""
        around = self.samples[index:index + 2]
        return NOMINAL_PROBE_S / (sum(around) / len(around))


# exactness ------------------------------------------------------------------------

def digest(code: Optional[int], stdout: str) -> str:
    data = f"{code}\n".encode() + stdout.encode("utf-8")
    return hashlib.blake2b(data, digest_size=4).hexdigest()


def report_field(stdout: str, key: str):
    """A top-level field of a JSON or --format=text report."""
    if stdout.startswith("{"):
        return json.loads(stdout).get(key)
    for line in stdout.splitlines():
        name, _, value = line.partition(": ")
        if name == key:
            return {"True": True, "False": False}.get(value, value)
    return None


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def expected_digests(expected: dict, workload: str, seed: int,
                     round_no: int) -> Optional[str]:
    rounds = expected["digests"].get(workload, {}).get(str(seed), [])
    return rounds[round_no] if round_no < len(rounds) else None


class Checker:
    """Checks each job's exit code, its law, and (when recorded) its digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.twins: dict[str, str] = {}
        self.problems: list[str] = []

    def law_holds(self, job: Job, stdout: str) -> bool:
        kind = job.check[0]
        if kind == "twin":
            first = self.twins.setdefault(job.check[1], stdout)
            return first == stdout
        value = report_field(stdout, kind)
        return value == (job.check[1] if kind == "poisson" else True)

    def check(self, job: Job, code: Optional[int], stdout: str,
              want_digest: Optional[str]) -> bool:
        self.attempted += 1
        problem = None
        if code != job.code:
            problem = f"exit {code}, expected {job.code}"
        elif job.check is not None and code == 0 \
                and not self.law_holds(job, stdout):
            problem = f"law {job.check[0]} fails"
        elif want_digest is not None and digest(code, stdout) != want_digest:
            problem = "report differs from the recorded one"
        if problem is None:
            return True
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{problem}: {' '.join(job.argv)[:300]}")
        return False


# running --------------------------------------------------------------------------

def write_job_files(jobs: list[Job]) -> None:
    for job in jobs:
        for rel, text in job.files:
            path = ROOT / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


def remove_job_files() -> None:
    if WORK.is_dir():
        for path in WORK.iterdir():
            path.unlink()
        WORK.rmdir()


def call(cli, job: Job) -> tuple[Optional[int], str, float]:
    """Run one job; return exit code (None if it raised), stdout, seconds."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(job.argv), out)
        except Exception as exc:  # a crash fails the job, not the benchmark
            code = None
            print(f"job raised {exc!r}", file=sys.__stderr__)
        seconds = time.perf_counter() - t0
    return code, out.getvalue(), seconds


def run_pass(cli, jobs: list[Job], checker: Checker,
             digests: Optional[str], probe: SpeedProbe,
             out_bytes: Optional[list] = None) -> list[float]:
    """Run jobs in order; return their latencies rescaled to nominal speed."""
    raw = []
    for index, job in enumerate(jobs):
        before = probe.maybe()
        code, stdout, seconds = call(cli, job)
        raw.append((seconds, before))
        want = digests[8 * index:8 * index + 8] if digests else None
        checker.check(job, code, stdout, want)
        if out_bytes is not None:
            out_bytes[0] += len(stdout.encode("utf-8"))
    probe.take()
    return [seconds * probe.scale(before) for seconds, before in raw]


def warm_up(cli, argvs) -> None:
    for argv in argvs:
        code, stdout, _ = call(cli, Job(tuple(argv)))
        if code != 0:
            raise RuntimeError(f"warm-up job failed with exit {code}: "
                               f"{' '.join(argv)}")


# set-up time ----------------------------------------------------------------------

SETUP_SCRIPT = """
import io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import starprod, starprod.cli
starprod.all_fixtures()
code = starprod.cli.main(["star", "--alpha=canonical2d", "--f=x1", "--g=x2",
                          "--at=0,0", "--order=1"], io.StringIO())
print(code, time.perf_counter() - t0)
"""


def setup_seconds(repeats: int) -> float:
    """Median time for a fresh interpreter to import starprod and finish
    lazy set-up (fixtures, calibration), rescaled to nominal speed.

    The probes run in this process, before and after each start: a probe
    in the fresh interpreter itself reads slow until its code has warmed up.
    One extra untimed start first writes the bytecode caches.
    """
    values = []
    # a fixed hash seed removes one source of start-to-start variation
    env = dict(os.environ, PYTHONHASHSEED="0")
    for attempt in range(repeats + 1):
        before = probe_seconds(3)
        proc = subprocess.run([sys.executable, "-c", SETUP_SCRIPT, str(SRC)],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60)
        after = probe_seconds(3)
        if proc.returncode != 0 or not proc.stdout.startswith("0 "):
            raise RuntimeError(f"the set-up start failed: {proc.stderr[-500:]}")
        seconds = proc.stdout.split()[1]
        if attempt:
            values.append(float(seconds) * 2 * NOMINAL_PROBE_S
                          / (before + after))
    return statistics.median(values)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

