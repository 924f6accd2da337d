"""End-to-end coverage of the command line interface."""

import io
import json
import os
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

import starprod
from starprod.cli import main
from starprod.superalg import MAX_COORDINATES


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


def test_koszul_routes_that_disagree_are_rendered_apart(monkeypatch):
    # a diagram route off by a form of its own prints that form, and the
    # report says the routes disagree
    w = json.dumps({"dim": 3, "degree": 1, "components": {"1": "x2"}})
    v = json.dumps({"dim": 3, "degree": 1, "components": {"2": "1"}})
    honest = starprod.koszul.koszul_bracket
    extra = starprod.DifferentialForm.from_data(
        {"dim": 3, "degree": 1, "components": {"3": "x1^2"}})
    wrong = []

    def skewed(alpha, w1, w2, route="geometric"):
        bracket = honest(alpha, w1, w2, route)
        if route == "diagram":
            wrong.append(bracket + extra)
            return wrong[-1]
        return bracket

    monkeypatch.setattr(starprod.koszul, "koszul_bracket", skewed)
    report = run_json(["koszul", "--alpha", "so3", "--w1", w, "--w2", v,
                       "--route", "both"])
    assert report["agree"] is False
    assert report["diagram"] == wrong[0].to_data() != report["geometric"]
    assert report["geometric"]["components"]["3"] == "x2"
    assert report["diagram"]["components"]["3"] == "x2 + x1^2"
    assert report["geometric"] == run_json(
        ["koszul", "--alpha", "so3", "--w1", w, "--w2", v])["geometric"]


@pytest.mark.parametrize("component, code, want", [
    ("x1^999*x1", 0, {"1": "999*x1^1000"}),
    ("x1^1000*x1", 3, "a power of degree 1001 exceeds the cap of 1000"),
], ids=["degree-1000", "degree-1001"])
def test_schouten_degree_refusal_is_the_taylor_shift_power_cap(
        capsys, component, code, want):
    # the symbol's Taylor shift builds xi1 ** e for the component's
    # exponent e, so e = 1000 is admitted and 1001 is refused
    a = json.dumps({"dim": 1, "degree": 1, "components": {"1": component}})
    b = json.dumps({"dim": 1, "degree": 1, "components": {"1": "x1"}})
    got, text = run(["schouten", "--a", a, "--b", b])
    assert got == code
    if code:
        assert text == "" and want in capsys.readouterr().err
    else:
        assert json.loads(text)["bracket"]["components"] == want


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


def test_bv_names_the_grammar_cannot_spell_exit_2(capsys):
    # named I, the antifield would read as the imaginary unit: v*I = i*v
    space = json.dumps({"fields": [["v", 0]], "antifields": {"v": "I"}})
    assert run(["qme", "--space", space, "--s", "v*I"]) == (2, "")
    assert "antifield name 'I' cannot be written in an expression" in \
        capsys.readouterr().err
    space = json.dumps({"fields": [["x y", 0]]})
    assert run(["qme", "--space", space, "--s", "x"]) == (2, "")
    assert "field name 'x y' cannot be written" in capsys.readouterr().err


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
    # a list of objects: one line a field, under the item's index
    code, text = run(["moduli", "--n=4", "--facets", "--format=text"])
    assert code == 0
    assert text.splitlines()[:5] == [
        "facets.0.inner: 3", "facets.0.notation: m2 o1 m3",
        "facets.0.outer: 2", "facets.0.position: 1",
        "facets.0.stratum: ((1 2 3) 4)"]
    assert len(text.splitlines()) == 26 and text.endswith("\nn: 4\n")


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


@pytest.mark.parametrize("argv", [
    ["star", "--alpha", "so3", "--f", "-x1", "--g", "x2", "--at", "-1/2,1,1"],
    ["associator", "--alpha", "so3", "--f", "-x1", "--g", "x2",
     "--h", "-x3*x1", "--at", "1,-1/3,-2", "--order", "2", "--format", "text"],
    ["bv-check", "--space", '{"fields": [["v", 0], ["c", 1]]}',
     "--f", "-v*c", "--g", "-vp", "--h", "-1/2"],
    ["qme", "--space", '{"fields": [["v", 0], ["c", 1]]}', "--s", "-vp*c"],
])
def test_two_token_negative_values_read_as_the_equals_form(argv, monkeypatch):
    equals = [argv[0]] + [f"{flag}={value}"
                          for flag, value in zip(argv[1::2], argv[2::2])]
    code, report = run(equals)
    assert code == 0
    assert run(argv) == (0, report)
    monkeypatch.setattr(sys, "argv", ["starprod", *argv])
    assert run(None) == (0, report)


@pytest.mark.parametrize("argv", [
    ["star", "--alpha", "so3", "--f", "x1", "--g", "x2", "--at", "--order",
     "1"],
    ["star", "--alpha", "so3", "--f", "-h", "--g", "x2", "--at", "1,1,1"],
    ["star", "--alpha", "so3", "--f", "--help", "--g", "x2", "--at", "1,1,1"],
], ids=["option-as-value", "short-help-as-value", "help-as-value"])
def test_an_option_string_is_never_read_as_a_value(argv, capsys):
    assert run(argv) == (2, "")
    assert "expected one argument" in capsys.readouterr().err


def test_moduli_refuses_codim_with_facets(tmp_path, capsys):
    # --facets lists codimension 1 only: a --codim beside it is refused
    assert run(["moduli", "--n=9", "--codim=2", "--facets"]) == (2, "")
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "moduli", "n": 9, "codim": 2,
                                "facets": True}))
    assert run(["--json", str(path)]) == (2, "")
    assert capsys.readouterr().err.count("not allowed with") == 2


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


DENSE = "(x1+x2+x3+1)"


def _star_of(f):
    return ["star", "--alpha", "so3", "--f", f, "--g", "x2",
            "--at", "0,1,0", "--order", "1"]


@pytest.mark.parametrize("argv, limit", [
    (_star_of("x1^3000000"), "cap of 1000"),
    (_star_of("2^3000000"), "cap of 1000"),
    (_star_of(f"{NINES}^40"), "cap of 100000"),
    (_star_of(f"{NINES}*{NINES}"), "cap of 4300 digits"),
    (_star_of(f"{DENSE}^40"), "cap of 5000 terms"),
    (["star", "--alpha", "so3", "--f", f"{DENSE}^20*(x1+x2+x3+2)^20",
      "--g", "x2", "--at", "0,1,0", "--order", "0"], "cap of 5000 terms"),
    (["check-poisson", "--alpha", json.dumps({
        "dim": 3, "degree": 2,
        "components": {"1,2": f"{DENSE}^200", "2,3": "x1"}})],
     "cap of 5000 terms"),
], ids=["monomial-power", "constant-power", "wide-constant-power",
        "long-product", "dense-power", "dense-product", "dense-component"])
def test_oversized_powers_and_results_exit_3(capsys, argv, limit):
    assert run(argv) == (3, "")
    assert limit in capsys.readouterr().err


def test_high_degree_monomials_evaluate_at_a_point():
    # x1^600*x2^600 at (1, 1, 1): the point evaluator must not recurse once
    # per factor; order 1 is (i/2) {f, x2} = (i/2) 600 x1^599 x2^600 x3
    report = run_json(["star", "--alpha", "so3", "--f", "x1^600*x2^600",
                       "--g", "x2", "--at", "1,1,1", "--order", "1"])
    assert report["series"] == {"0": "1", "1": "300i"}


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


def test_the_module_runs_the_cli_and_survives_a_reader_that_leaves():
    """python -m starprod prints what main does; when the reader closes
    stdout in the middle of a long report, it exits 1 without a
    traceback."""
    argv = ["moduli", "--n=60", "--facets"]  # about 0.5 MB, past a pipe
    env = dict(os.environ, PYTHONPATH=str(Path(starprod.__file__).parents[1]))
    cmd = [sys.executable, "-m", "starprod", *argv]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (*run(argv), "")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""  # no traceback
    proc.stderr.close()


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


def _schouten_a(components):
    return ["schouten", "--b", "{}", "--a", json.dumps(
        {"dim": 3, "degree": 1, "components": components})]


def _qme(space):
    return ["qme", "--space", json.dumps(space), "--s", "v"]


@pytest.mark.parametrize("argv, err", [
    (["check-poisson", "--alpha",
      json.dumps({"dim": True, "degree": 2, "components": {}})],
     "dimension must be an integer >= 1"),
    # the degree is checked by koszul_bracket, not by the loader
    (["koszul", "--alpha", "so3", "--w2", ONE_FORM, "--w1",
      json.dumps({"dim": 3, "degree": 2, "components": {"1,2": "x2"}})],
     "bracket arguments must be one-forms"),
    (["qme", "--space", json.dumps({"fields": [["v", 0]], "hbar_order": True}),
      "--s", "v"], "the hbar order of a space must be an integer >= 0"),
    (["star", "--alpha", "so3", "--f", "(" * 300 + "x1" + ")" * 300,
      "--g", "x2", "--at", "0,0,0"],
     "expression nests deeper than the cap of 100 levels at column 101"),
    (["star", "--alpha", "so3", "--f", "1" * 5000, "--g", "x2",
      "--at", "0,0,0"], "literal at column 1 exceeds the cap of 4300 digits"),
    # json reads a number past Python's int digit limit as ValueError, in
    # words that differ between Python versions
    (["schouten", "--b", "{}", "--a", '{"dim": ' + "9" * 5000 + "}"],
     None),
    (["check-poisson", "--alpha", "@alpha\x00.json"],
     "cannot read 'alpha\\x00.json': embedded null byte"),
    (["star", "--alpha", "so3", "--f", "x1", "--g", "x2", "--at="],
     "basepoint has 0 entries, expected 3"),
    # refused before the job file is read
    (["--json", "job.json", "moduli", "--n=3"],
     "--json replaces the command line; drop the explicit command"),
    (_qme({"fields": [["", 0]]}), "field names must be nonempty strings"),
    (_qme({"fields": []}), "a BV space needs at least one field"),
    (_qme({"fields": [["v", 0]], "antifields": ["w"]}),
     "antifields must map field names to names"),
    (_schouten_a(["x1"]), "components must be an object"),
    (_schouten_a({"1": 3}), "component '1' must be an expression string"),
    (_schouten_a({"x": "x1"}), "bad component key 'x'"),
    (["star", "--alpha", json.dumps({"dim": 2, "degree": 2, "components": {
        "1,2": "x1", "01,2": "x2"}}), "--f=x1", "--g=x2", "--at=1,2"],
     "duplicate component key (1, 2)"),
    # json keeps the last value of a repeated name
    (["star", "--alpha", '{"dim": 2, "degree": 2, "components": {"1,2": '
      '"x1"}, "components": {}}', "--f=x1", "--g=x2", "--at=1,2"],
     "bad JSON for bivector: repeated name 'components'"),
], ids=["bool-dim", "degree2-w1", "bool-hbar-order", "deep-parens",
        "long-literal", "long-json-number", "nul-in-file-name", "empty-at",
        "json-and-command", "unnamed-field", "no-fields", "antifield-list",
        "component-list", "component-number", "component-key-name",
        "component-key-twice", "json-name-twice"])
def test_malformed_input_exits_2(capsys, argv, err):
    assert run(argv) == (2, "")
    got = capsys.readouterr().err
    if err is None:
        assert got.startswith("error: bad JSON for multivector: ")
    else:
        assert got == f"error: {err}\n"


@pytest.mark.parametrize("argv", [
    ["moduli", "--n", "10", "--codim", "1"],
    ["moduli", "--n", "80", "--facets"],
    ["moduli", "--n", "1001"],
])
def test_moduli_jobs_over_the_cap_exit_3(capsys, argv):
    assert run(argv) == (3, "")
    assert "cap of" in capsys.readouterr().err


def _bivector(dim, components):
    return json.dumps({"dim": dim, "degree": 2, "components": components})


@pytest.mark.parametrize("argv", [
    ["check-poisson", "--alpha", _bivector(10 ** 8, {"1,2": "x1"})],
    ["check-poisson", "--alpha", _bivector(MAX_COORDINATES + 1, {"1,2": "x1"})],
    ["bv-check", "--space", json.dumps({"fields": [
        [f"v{i}", 0] for i in range(MAX_COORDINATES + 1)]}),
     "--f", "v0", "--g", "v1", "--h", "v2"],
], ids=["dim-1e8", "dim-over-cap", "fields-over-cap"])
def test_declared_coordinates_over_the_cap_exit_3_at_once(capsys, argv):
    start = time.perf_counter()
    assert run(argv) == (3, "")
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ") and err.count("\n") == 1


def test_densest_constant_bivector_under_the_cap_is_poisson():
    components = {f"{i},{j}": str(i + j) for i, j in
                  combinations(range(1, MAX_COORDINATES + 1), 2)}
    report = run_json(["check-poisson", "--alpha",
                       _bivector(MAX_COORDINATES, components)])
    assert report["poisson"] is True and report["witness"] is None


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


def test_only_the_first_associator_imports_tricells():
    """Start-up and a star job leave the tricells module unimported, so
    they compile none of it; the first associator at an order >= 1 imports
    it."""
    script = """if True:
        import io, sys
        from starprod.cli import main
        common = ["--alpha", "so3", "--f", "x1^2*x2 + x3",
                  "--g", "x2*x3^2 + x1", "--at", "1,2,3"]
        for argv in (["star", *common, "--order", "3"],
                     ["associator", *common, "--h", "x1*x3 + x2",
                      "--order", "1"]):
            assert main(argv, out=io.StringIO()) == 0
            print("starprod.tricells" in sys.modules)
    """
    env = dict(os.environ, PYTHONPATH=str(Path(starprod.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "False\nTrue\n", "")


NOT_UTF8 = b"\xff\xfe{bad"


@pytest.mark.parametrize("argv", [
    ["--json", "{path}"],
    ["check-poisson", "--alpha", "@{path}"],
], ids=["job-file", "at-file"])
def test_non_utf8_files_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(NOT_UTF8)
    assert run([a.format(path=path) for a in argv]) == (2, "")
    assert capsys.readouterr().err.startswith("error: cannot read")


def test_job_file_command_must_name_a_subcommand(tmp_path, capsys):
    # a job naming itself through --json would expand forever
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"command": f"--json={path}"}))
    assert run(["--json", str(path)]) == (2, "")
    assert "'command' naming one of: star," in capsys.readouterr().err


@pytest.mark.parametrize("where", ["inline", "job-file"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, where):
    nested = "[" * 100_000
    if where == "inline":
        argv = ["schouten", "--a", nested, "--b", "{}"]
    else:
        path = tmp_path / "deep.json"
        path.write_text(nested)
        argv = ["--json", str(path)]
    assert run(argv) == (2, "")
    assert "nested too deeply" in capsys.readouterr().err


def test_a_job_file_that_repeats_a_name_exits_2(tmp_path, capsys):
    # json keeps the last value of a repeated name
    path = tmp_path / "job.json"
    path.write_text('{"command": "star", "alpha": "so3", "f": "x1", '
                    '"f": "x2", "g": "x3", "at": "0,0,0"}')
    assert run(["--json", str(path)]) == (2, "")
    assert capsys.readouterr().err == ("error: bad JSON for job file: "
                                       "repeated name 'f'\n")
