"""Generated command lines and job files through cli.main.

Whatever argv and the files it names hold, the CLI ends with a report
(exit 0), a refusal of bad input (2) or a refused resource cap (3).  An
exception that escapes main would be a traceback and exit 1 in a real
process; a hang shows as a missed deadline.  Command lines are drawn from
the CLI's own grammar, each option's value from a pool of good and bad
values of its kind, and the files they name hold job objects, raw bytes
or deeply nested JSON; a job file may name itself.
"""

import contextlib
import io
import json
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starprod.cli import main
from starprod.superalg import MAX_COORDINATES

# stand-ins for file names, replaced by paths in the test's directory: an
# example writes the job and data files, the other two hold fixed bytes
JOB, DATA = "<job>", "<data>"
FIXED = {"<bad>": b"\xff\xfe{bad", "<deep>": b"[" * 100_000}

# each subcommand with its required options
COMMANDS = {
    "star": ("alpha", "f", "g", "at"),
    "moyal": ("alpha", "f", "g", "at"),
    "associator": ("alpha", "f", "g", "h", "at"),
    "check-poisson": ("alpha",),
    "schouten": ("a", "b"),
    "koszul": ("alpha", "w1", "w2"),
    "bv-check": ("space", "f", "g", "h"),
    "qme": ("space", "s"),
    "moduli": ("n",),
}
OPTIONAL = ("order", "max-work", "format", "route", "codim", "facets", "json",
            "help", "bogus")

FILES = ["@<bad>", "@\x00", "@<deep>", "@" + DATA, "@" + JOB,
         "@/nonexistent/file"]
JUNK = ["", "x", "\udcff\udcfe", "[" * 3000, "9" * 5000]
POOLS = {
    "json": [
        json.dumps({"dim": 3, "degree": 2, "components": {"1,2": "x3"}}),
        json.dumps({"dim": 3, "degree": 1, "components": {"1": "x2"}}),
        json.dumps({"dim": 2, "degree": 2, "components": {"1,2": "x1^2"}}),
        json.dumps({"fields": [["v", 0], ["c", 1]]}),
        json.dumps({"fields": [["v", 0]], "hbar_order": 1}),
        # past the cap on declared coordinates, which must refuse them at once
        json.dumps({"dim": MAX_COORDINATES + 1, "degree": 2,
                    "components": {"1,2": "x3"}}),
        json.dumps({"dim": 10 ** 8, "degree": 2, "components": {"1,2": "x1"}}),
        json.dumps({"fields": [[f"v{i}", i % 2]
                               for i in range(MAX_COORDINATES + 1)]}),
        '{"dim": 3', "[]", "{}"],
    "expr": ["x1", "x1*x2 - 1/2", "x2^2 + I*x3", "vp*c", "c*v", "v^2",
             "(x1", "x1^", "1/0", "2^40", "x9"],
    "at": ["0,0,0", "1,1/2,-1", "0,0", "-1/2,1,1,2", "a,b", "1e5,0,0"],
    "int": ["0", "1", "2", "-1", "7", "1001", "x"],
    "choice": ["json", "text", "both", "diagram", "geometric", "nope"],
}
KIND = {"alpha": "json", "a": "json", "b": "json", "w1": "json", "w2": "json",
        "space": "json", "f": "expr", "g": "expr", "h": "expr", "s": "expr",
        "at": "at", "order": "int", "max-work": "int", "n": "int",
        "codim": "int", "format": "choice", "route": "choice",
        "facets": "choice", "json": "json", "help": "choice",
        "bogus": "choice"}


def values(kind):
    pool = POOLS[kind] + (["so3", "canonical2d"] if kind == "json" else [])
    return st.one_of(st.sampled_from(FILES), st.sampled_from(pool + JUNK),
                     st.text(max_size=6))


@st.composite
def command_lines(draw):
    """A subcommand with its required options (one may be left out) and
    perhaps one optional one, each as --flag=value or as two tokens."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    names = list(COMMANDS[command])
    if not draw(st.integers(min_value=0, max_value=3)):
        names.remove(draw(st.sampled_from(names)))
    names += draw(st.lists(st.sampled_from(OPTIONAL), max_size=1))
    argv = [command]
    for name in names:
        value = draw(values(KIND[name]))
        argv += [f"--{name}={value}"] if draw(st.booleans()) \
            else [f"--{name}", value]
    return argv


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.sampled_from(POOLS["expr"] + POOLS["at"] + FILES),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["dim", "degree", "components",
                                       "fields", "1,2", "1"])
                      | st.text(max_size=4), inner, max_size=3),
    max_leaves=8)

jobs = st.builds(
    lambda command, rest: json.dumps(dict(rest, command=command)).encode(),
    st.one_of(st.sampled_from(sorted(COMMANDS)),
              st.sampled_from(["--json=" + JOB, "--json=" + DATA, "--help",
                               "bogus"]),
              json_values),
    # no other key half the time: one more option can make argparse refuse
    st.just({}) | st.dictionaries(
        st.sampled_from(sorted(KIND)) | st.text(max_size=4), json_values,
        max_size=5))
raw = st.one_of(
    st.sampled_from(list(FIXED.values()) + [b'{"a": ' * 50_000, b"\x00"]),
    json_values.map(lambda value: json.dumps(value).encode()),
    st.binary(max_size=24))

argvs = command_lines() | st.lists(
    st.sampled_from(sorted(COMMANDS) + [f"--{k}" for k in KIND] + FILES
                    + JUNK), max_size=5)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for name, data in FIXED.items():
        (path / name.strip("<>")).write_bytes(data)
    return path


@given(argv=argvs, data=jobs | raw)
@settings(max_examples=500, deadline=timedelta(seconds=10))
def test_command_lines_end_with_a_report_or_a_refusal(workdir, argv, data):
    assert_ends_cleanly(workdir, argv, b"{}", data)


@given(job=jobs | raw, data=jobs | raw)
@settings(max_examples=300, deadline=timedelta(seconds=10))
def test_job_files_end_with_a_report_or_a_refusal(workdir, job, data):
    assert_ends_cleanly(workdir, ["--json", JOB], job, data)


def assert_ends_cleanly(workdir, argv, job, data):
    paths = {name: str(workdir / name.strip("<>"))
             for name in (JOB, DATA, *FIXED)}
    for stand_in, path in paths.items():
        job = job.replace(stand_in.encode(), path.encode())
        argv = [token.replace(stand_in, path) for token in argv]
    (workdir / "job").write_bytes(job)
    (workdir / "data").write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv, out=io.StringIO())
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
