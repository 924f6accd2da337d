"""End-to-end coverage of the command line interface."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import starprod
from starprod.cli import main


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run(argv)
    assert code == 0, text
    return json.loads(text)


def test_star_series_report():
    report = run_json(["star", "--alpha", "so3", "--f", "x1", "--g", "x2",
                       "--at", "1,1,1", "--order", "2"])
    assert report["basepoint"] == ["1", "1", "1"]
    assert report["series"] == {"0": "1", "1": "1/2i", "2": "0"}


def test_star_accepts_rational_basepoints():
    report = run_json(["star", "--alpha", "canonical2d", "--f", "x1",
                       "--g", "x2", "--at", "1/2,-1/3", "--order", "1"])
    assert report["basepoint"] == ["1/2", "-1/3"]
    assert report["series"]["0"] == "-1/6"


def test_moyal_report():
    report = run_json(["moyal", "--alpha", "canonical2d", "--f", "x1^2",
                       "--g", "x2^2", "--at", "1,1", "--order", "3"])
    assert report["series"] == {"0": "1", "1": "2i", "2": "-1/2", "3": "0"}


def test_associator_report():
    report = run_json(["associator", "--alpha", "so3", "--f", "x1",
                       "--g", "x2", "--h", "x1", "--at", "1,1,1",
                       "--order", "2"])
    assert report["series"] == {"0": "0", "1": "0", "2": "1/2"}


def test_inline_json_bivector():
    alpha = json.dumps({"dim": 2, "degree": 2, "components": {"1,2": "x1"}})
    report = run_json(["check-poisson", "--alpha", alpha])
    assert report["poisson"] is True


def test_bivector_from_file(tmp_path):
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(
        {"dim": 4, "degree": 2,
         "components": {"1,2": "1", "3,4": "x1"}}))
    report = run_json(["check-poisson", "--alpha", f"@{path}"])
    assert report["poisson"] is False
    assert report["witness"]["indices"] == [2, 3, 4]
    assert report["witness"]["defect"] == "1"


def test_missing_payload_file():
    code, _ = run(["check-poisson", "--alpha", "@/nonexistent/alpha.json"])
    assert code == 2


def test_schouten_report():
    a = json.dumps({"dim": 3, "degree": 1, "components": {"1": "x1"}})
    b = json.dumps({"dim": 3, "degree": 2, "components": {"1,2": "x3"}})
    report = run_json(["schouten", "--a", a, "--b", b])
    assert report["bracket"]["degree"] == 2
    assert report["bracket"]["components"] == {"1,2": "x3"}


def test_koszul_routes_agree_flag():
    w = json.dumps({"dim": 3, "degree": 1, "components": {"1": "x2"}})
    v = json.dumps({"dim": 3, "degree": 1, "components": {"2": "1"}})
    report = run_json(["koszul", "--alpha", "so3", "--w1", w, "--w2", v,
                       "--route", "both"])
    assert report["agree"] is True
    assert report["geometric"] == report["diagram"]
    geo = run_json(["koszul", "--alpha", "so3", "--w1", w, "--w2", v,
                    "--route", "geometric"])
    assert geo["geometric"] == report["geometric"]
    assert "agree" not in geo and "diagram" not in geo


def test_bv_check_report():
    space = json.dumps({"fields": [["v", 0], ["c", 1]]})
    report = run_json(["bv-check", "--space", space, "--f", "vp*c",
                       "--g", "v^2 + 2*vp*c", "--h", "c*v"])
    assert report["all_zero"] is True
    assert set(report["residuals"]) == {
        "antisymmetry", "jacobi", "leibniz", "compatibility",
        "laplacian_square"}


def test_qme_report_flags_anomaly():
    space = json.dumps({"fields": [["v", 0], ["c", 1]]})
    report = run_json(["qme", "--space", space, "--s", "vp*c + vp*v*c"])
    assert report["classical"] == "0"
    assert report["residual"] == "-2*I*c*hbar"
    assert report["solves_qme"] is False
    good = run_json(["qme", "--space", space, "--s", "vp*c"])
    assert good["solves_qme"] is True


def test_moduli_reports():
    counts = run_json(["moduli", "--n", "4"])
    assert counts["counts"] == {"0": 1, "1": 5, "2": 5}
    assert counts["total"] == 11
    strata = run_json(["moduli", "--n", "3", "--codim", "1"])
    assert strata["count"] == 2
    assert strata["strata"] == ["((1 2) 3)", "(1 (2 3))"]
    facets = run_json(["moduli", "--n", "3", "--facets"])
    assert [f["notation"] for f in facets["facets"]] == \
        ["m2 o1 m2", "m2 o2 m2"]


def test_text_format_is_flat_and_sorted():
    code, text = run(["check-poisson", "--alpha", "so3", "--format", "text"])
    assert code == 0
    lines = text.strip().splitlines()
    assert "poisson: True" in lines
    assert lines == sorted(lines)


def test_json_job_file(tmp_path):
    job = {"command": "star", "alpha": "so3", "f": "x1*x2", "g": "x3",
           "at": [1, "1/2", 0], "order": 3}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    report = run_json(["--json", str(path)])
    assert report["series"]["1"] == "3/8i"


@pytest.mark.parametrize("job, key, expected", [
    ({"command": "star", "alpha": "canonical2d", "f": "x1", "g": "x2",
      "at": "-1/2,0", "order": 1}, "basepoint", ["-1/2", "0"]),
    ({"command": "star", "alpha": "canonical2d", "f": "-x1", "g": "x2",
      "at": "1,1", "order": 1}, "series", {"0": "-1", "1": "-1/2i"}),
])
def test_json_job_with_negative_values(tmp_path, job, key, expected):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert run_json(["--json", str(path)])[key] == expected


def test_json_job_rejects_extra_command(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "moduli", "n": 3}))
    code, _ = run(["--json", str(path), "moduli"])
    assert code == 2


def test_no_command_is_a_usage_error():
    code, _ = run([])
    assert code == 2


def test_parse_errors_exit_2():
    code, _ = run(["star", "--alpha", "so3", "--f", "x1 +", "--g", "x2",
                   "--at", "0,0,0"])
    assert code == 2
    code, _ = run(["star", "--alpha", "so3", "--f", "x1", "--g", "x2",
                   "--at", "0,0"])
    assert code == 2
    code, _ = run(["check-poisson", "--alpha", "unknown_fixture"])
    assert code == 2


NOT_BIVECTORS = [
    json.dumps({"dim": 3, "degree": 1, "components": {"1": "x2"}}),
    json.dumps({"dim": 3, "degree": 3, "components": {"1,2,3": "1"}}),
]
ONE_FORM = json.dumps({"dim": 3, "degree": 1, "components": {"1": "x2"}})
SERIES_ARGS = ["--f", "x1", "--g", "x2", "--at", "0,0,0"]


@pytest.mark.parametrize("alpha", NOT_BIVECTORS, ids=["degree1", "degree3"])
@pytest.mark.parametrize("command, rest", [
    ("star", SERIES_ARGS),
    ("moyal", SERIES_ARGS),
    ("associator", SERIES_ARGS + ["--h", "x3"]),
    ("check-poisson", []),
    ("koszul", ["--w1", ONE_FORM, "--w2", ONE_FORM]),
])
def test_non_bivector_alpha_exits_2(capsys, command, rest, alpha):
    code, text = run([command, "--alpha", alpha] + rest)
    assert code == 2
    assert text == ""
    assert "error: expected a bivector" in capsys.readouterr().err


def test_resource_limits_exit_3():
    code, _ = run(["star", "--alpha", "so3", "--f", "x1", "--g", "x2",
                   "--at", "0,0,0", "--order", "9"])
    assert code == 3
    code, _ = run(["star", "--alpha", "so3", "--f", "x1^3", "--g", "x2^3",
                   "--at", "0,0,0", "--order", "3", "--max-work", "5"])
    assert code == 3


NINES = "9" * 3000


@pytest.mark.parametrize("f, limit", [
    ("x1^3000000", "cap of 1000"),
    ("2^3000000", "cap of 1000"),
    (f"{NINES}^40", "cap of 100000"),
    (f"{NINES}*{NINES}", "cap of 4300 digits"),
], ids=["monomial-power", "constant-power", "wide-constant-power",
        "long-product"])
def test_oversized_powers_and_results_exit_3(capsys, f, limit):
    assert run(["star", "--alpha", "so3", "--f", f, "--g", "x2",
                "--at", "0,1,0", "--order", "1"]) == (3, "")
    assert limit in capsys.readouterr().err


@pytest.mark.parametrize("order", ["0", "3"])
@pytest.mark.parametrize("command", ["star", "moyal"])
def test_negative_max_work_exits_2(capsys, command, order):
    code, text = run([command, "--alpha", "canonical2d", "--f", "x1",
                      "--g", "x2", "--at", "0,0", "--order", order,
                      "--max-work=-1"])
    assert (code, text) == (2, "")
    assert "max_work" in capsys.readouterr().err


def test_closed_stdout_ends_without_a_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(starprod.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        done = subprocess.run(
            [sys.executable, "-m", "starprod", "star", "--alpha", "so3",
             "--f", "x1", "--g", "x2", "--at", "0,0,0", "--order", "0"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""


def test_repeated_runs_are_byte_identical():
    argv = ["star", "--alpha", "so3", "--f", "x1^2 - x2", "--g", "x3*x1",
            "--at", "1/2,2,-1", "--order", "3"]
    _, first = run(argv)
    _, second = run(argv)
    assert first == second


def test_output_ends_with_newline():
    _, text = run(["moduli", "--n", "3"])
    assert text.endswith("\n")


@pytest.mark.parametrize("at", ["0.5,0,0", "1e5000,0,0", "1e100000000,0,0",
                                "+1,0,0", "1/0,0,0"])
def test_basepoint_entries_are_rational_literals(capsys, at):
    code, text = run(["star", "--alpha", "so3", "--f", "x1", "--g", "x2",
                      f"--at={at}"])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["check-poisson", "--alpha",
     json.dumps({"dim": True, "degree": 2, "components": {}})],
    # the degree is checked by koszul_bracket, not by the loader
    ["koszul", "--alpha", "so3", "--w2", ONE_FORM, "--w1",
     json.dumps({"dim": 3, "degree": 2, "components": {"1,2": "x2"}})],
    ["qme", "--space", json.dumps({"fields": [["v", 0]], "hbar_order": True}),
     "--s", "v"],
    ["star", "--alpha", "so3", "--f", "(" * 300 + "x1" + ")" * 300,
     "--g", "x2", "--at", "0,0,0"],
    ["star", "--alpha", "so3", "--f", "1" * 5000, "--g", "x2",
     "--at", "0,0,0"],
], ids=["bool-dim", "degree2-w1", "bool-hbar-order", "deep-parens",
        "long-literal"])
def test_malformed_input_exits_2(capsys, argv):
    assert run(argv) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["moduli", "--n", "10", "--codim", "1"],
    ["moduli", "--n", "80", "--facets"],
    ["moduli", "--n", "1001"],
])
def test_moduli_jobs_over_the_cap_exit_3(capsys, argv):
    assert run(argv) == (3, "")
    assert "cap of" in capsys.readouterr().err


def test_parser_is_shared_without_leaking_state(tmp_path):
    text_job = ["check-poisson", "--alpha", "so3", "--format", "text"]
    json_job = ["qme", "--space", '{"fields": [["v", 0], ["c", 1]]}',
                "--s", "vp*c", "--order", "1"]
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "moduli", "n": 4, "format": "text"}))
    file_job = ["--json", str(path)]
    argv_job = ["schouten",
                "--a", '{"dim": 3, "degree": 1, "components": {"1": "x1"}}',
                "--b", '{"dim": 3, "degree": 2, "components": {"1,2": "x3"}}']
    env = dict(os.environ, PYTHONPATH=str(Path(starprod.__file__).parents[1]))
    for first, second in ((text_job, json_job), (file_job, argv_job)):
        together = [run(first), run(second)]
        alone = [subprocess.run([sys.executable, "-m", "starprod", *argv],
                                capture_output=True, text=True, env=env,
                                check=True).stdout
                 for argv in (first, second)]
        assert together == [(0, alone[0]), (0, alone[1])]
