"""End-to-end tests for the workbench command line.

Subprocess tests pin the exit-code contract and the stdout/stderr split;
direct calls cover matrix loading, config round-trips, and the report
document shape.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from reflection_workbench import cli
from reflection_workbench.cli import (
    PARAM_DEFAULTS,
    SuiteConfig,
    UsageError,
    emit_report,
    form_transposition,
    load_matrix,
    main,
    report_document,
    run_suite,
)
from reflection_workbench.verify import CheckReport

SKEW_JSON = {"n": 2, "entries": [["0", "1"], ["-1", "0"]]}
# sha256 of json.dumps(body, sort_keys=True) for configs/suite.json; a
# refactor must leave the demo suite's canonical body byte-identical
DEMO_BODY_SHA256 = "2a90476740b467cccc73441d611c8b62bf3dece3a8bca75efe0727810936efbf"


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "reflection_workbench.cli", *argv],
        capture_output=True,
        text=True,
    )


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def make_config(tmp_path, checks, **extra):
    data = {"checks": checks}
    data.update(extra)
    return write_json(tmp_path / "config.json", data)


# -- exit codes ---------------------------------------------------------


def test_check_pass_exits_zero():
    proc = run_cli("check", "ybe", "--n", "2")
    assert proc.returncode == 0
    assert "PASS ybe" in proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["body"]["passed"] is True
    assert doc["body"]["checks"][0]["name"] == "ybe"
    assert doc["body"]["checks"][0]["witness"] is None


def test_failing_check_exits_one_with_witness():
    proc = run_cli("check", "characteristic_unprimed", "--n", "2")
    assert proc.returncode == 1
    assert "FAIL characteristic_unprimed" in proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["body"]["passed"] is False
    witness = doc["body"]["checks"][0]["witness"]
    assert witness is not None
    assert {"row", "col", "lhs", "rhs"} <= set(witness)
    assert witness["lhs"] != witness["rhs"]


def test_unknown_check_exits_two_with_usage():
    proc = run_cli("check", "no_such_check")
    assert proc.returncode == 2
    assert "unknown check name" in proc.stderr
    assert "usage:" in proc.stderr
    assert "known checks:" in proc.stderr
    assert proc.stdout == ""


def test_flag_not_accepted_by_check_exits_two():
    # ybe has no truncation order, so --K must be rejected, not ignored
    proc = run_cli("check", "ybe", "--K", "4")
    assert proc.returncode == 2
    assert "does not accept" in proc.stderr


def test_malformed_matrix_file_exits_two(tmp_path):
    path = write_json(tmp_path / "bad.json", {"n": 2, "entries": [["0.5", "0"], ["0", "1"]]})
    proc = run_cli("check", "twisted_evaluation", "--g", path)
    assert proc.returncode == 2
    assert "not an integer or fraction literal" in proc.stderr


def test_n_conflicting_with_matrix_exits_two(tmp_path):
    path = write_json(tmp_path / "g.json", SKEW_JSON)
    proc = run_cli("check", "twisted_evaluation", "--g", path, "--n", "3")
    assert proc.returncode == 2
    assert "conflicts" in proc.stderr


# -- matrix loading ---------------------------------------------------------


def test_load_matrix_exact_rationals(tmp_path):
    path = write_json(
        tmp_path / "m.json", {"n": 2, "entries": [["1/2", "0"], ["0", "-1/3"]]}
    )
    matrix = load_matrix(path)
    assert matrix == ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(-1, 3)))


def test_load_matrix_rejects_decimals(tmp_path):
    path = write_json(tmp_path / "m.json", {"n": 2, "entries": [["0.5", "0"], ["0", "1"]]})
    with pytest.raises(UsageError, match="fraction literal"):
        load_matrix(path)


def test_load_matrix_rejects_non_square(tmp_path):
    path = write_json(tmp_path / "m.json", {"n": 2, "entries": [["1", "0", "0"], ["0", "1", "0"]]})
    with pytest.raises(UsageError, match="entries"):
        load_matrix(path)


def test_load_matrix_rejects_wrong_field_names(tmp_path):
    path = write_json(tmp_path / "m.json", {"size": 2, "rows": [["1", "0"], ["0", "1"]]})
    with pytest.raises(UsageError, match='"n" and "entries"'):
        load_matrix(path)


def test_load_matrix_rejects_non_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("not json {")
    with pytest.raises(UsageError, match="not valid JSON"):
        load_matrix(str(path))


def test_load_matrix_missing_file():
    with pytest.raises(UsageError, match="cannot read"):
        load_matrix("/nonexistent/matrix.json")


def test_form_transposition_infers_sign():
    identity = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    skew = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))
    assert form_transposition(identity).sign == 1
    assert form_transposition(skew).sign == -1


def test_form_transposition_rejects_asymmetric():
    lopsided = ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))
    with pytest.raises(UsageError, match="neither symmetric nor skew"):
        form_transposition(lopsided)


def test_form_transposition_rejects_singular():
    zero = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    with pytest.raises(UsageError, match="singular"):
        form_transposition(zero)


# -- suite config ---------------------------------------------------------


def test_config_fills_defaults(tmp_path):
    cfg = SuiteConfig.from_file(make_config(tmp_path, [{"name": "ybe"}]))
    assert cfg.defaults == PARAM_DEFAULTS
    assert cfg.out is None


def test_config_rejects_unknown_keys(tmp_path):
    path = make_config(tmp_path, [{"name": "ybe"}], extra_field=1)
    with pytest.raises(UsageError, match="unknown config keys"):
        SuiteConfig.from_file(path)


def test_config_rejects_unknown_check(tmp_path):
    path = make_config(tmp_path, [{"name": "nonsense"}])
    with pytest.raises(UsageError, match="unknown check name"):
        SuiteConfig.from_file(path)


def test_config_rejects_out_of_bounds_parameter(tmp_path):
    path = make_config(tmp_path, [{"name": "ybe", "n": 1}])
    with pytest.raises(UsageError, match=">= 2"):
        SuiteConfig.from_file(path)


def test_config_rejects_boolean_parameter(tmp_path):
    path = make_config(tmp_path, [{"name": "ybe", "n": True}])
    with pytest.raises(UsageError, match="must be an integer"):
        SuiteConfig.from_file(path)


def test_config_paths_resolve_relative_to_config_dir(tmp_path):
    write_json(tmp_path / "g.json", SKEW_JSON)
    path = make_config(tmp_path, [{"name": "tau_symmetry", "g": "g.json"}])
    proc = run_cli("suite", "--config", path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["body"]["checks"][0]["params"]["kind"] == "symplectic"


def test_suite_level_input_files_apply_to_all_checks(tmp_path):
    write_json(tmp_path / "g.json", SKEW_JSON)
    write_json(tmp_path / "x.json", SKEW_JSON)
    path = make_config(
        tmp_path,
        [{"name": "membership"}, {"name": "twisted_evaluation"}],
        inputs={"g": "g.json", "x": "x.json"},
    )
    proc = run_cli("suite", "--config", path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    kinds = {c["name"]: c["params"]["kind"] for c in doc["body"]["checks"]}
    assert kinds == {"membership": "symplectic", "twisted_evaluation": "symplectic"}


# every config and record error, with its full text; files named here are
# written by the test next to the config
CONFIG_ERRORS = [
    ([], "config must be a JSON object"),
    ({"checks": {}}, 'config needs a "checks" list'),
    ({"checks": [3]}, "check record must be an object, got 3"),
    ({"checks": [], "inputs": {"y": "y.json"}}, "unknown input file keys: ['y']"),
    ({"checks": [], "inputs": {"g": 3}}, 'input path "g" must be a string, got 3'),
    ({"checks": [], "defaults": []}, '"defaults" must be an object'),
    ({"checks": [], "defaults": {"Q": 1}}, "unknown default keys: ['Q']"),
    ({"checks": [], "out": 3}, "out must be a path string, got 3"),
    (
        {"checks": [{"name": "tau_symmetry", "g": 3}]},
        '"g" must be a file path string, got 3',
    ),
    (
        {"checks": [{"name": "membership", "g": "g.json", "x": "x4.json"}]},
        'check "membership": matrix sizes disagree: g=2, x=4',
    ),
    (
        {"checks": [{"name": "tau_symmetry", "g": "g1.json"}]},
        'check "tau_symmetry": matrices must be at least 2x2',
    ),
    (
        {"checks": [{"name": "tau_symmetry", "g": "lopsided.json"}]},
        "form matrix rejected: matrix is neither symmetric nor skew: "
        "x[1][2]=2 vs x[2][1]=3 breaks symmetry, x[1][1]=1 vs -x[1][1]=-1 breaks skewness",
    ),
    (
        {"checks": [{"name": "tau_symmetry", "g": "zero.json"}]},
        "form matrix rejected: matrix is singular",
    ),
    # the x error comes before the kmax floor
    (
        {"checks": [{"name": "characteristic", "x": "lopsided.json", "kmax": 1}]},
        'check "characteristic": matrix is neither symmetric nor skew: '
        "x[1][2]=2 vs x[2][1]=3 breaks symmetry, x[1][1]=1 vs -x[1][1]=-1 breaks skewness",
    ),
]


@pytest.mark.parametrize("data, message", CONFIG_ERRORS, ids=[m for _, m in CONFIG_ERRORS])
def test_config_and_record_errors_keep_their_text(tmp_path, capsys, data, message):
    write_json(tmp_path / "g.json", SKEW_JSON)
    write_json(tmp_path / "g1.json", {"n": 1, "entries": [["1"]]})
    identity4 = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    write_json(tmp_path / "x4.json", {"n": 4, "entries": identity4})
    write_json(tmp_path / "lopsided.json", {"n": 2, "entries": [["1", "2"], ["3", "4"]]})
    write_json(tmp_path / "zero.json", {"n": 2, "entries": [["0", "0"], ["0", "0"]]})
    with pytest.raises(UsageError) as caught:
        run_suite(SuiteConfig.from_json_dict(data, base_dir=str(tmp_path)))
    assert str(caught.value) == message
    path = write_json(tmp_path / "config.json", data)
    assert main(["suite", "--config", path]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err


# -- suite runs ---------------------------------------------------------


def test_suite_all_pass_exit_zero(tmp_path):
    path = make_config(tmp_path, [{"name": "ybe", "n": 2}, {"name": "quasi_inverse", "n": 2}])
    proc = run_cli("suite", "--config", path)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    names = [c["name"] for c in doc["body"]["checks"]]
    assert names == ["quasi_inverse", "ybe"]
    assert doc["body"]["passed"] is True


def test_suite_with_failure_exits_one(tmp_path):
    path = make_config(
        tmp_path,
        [{"name": "ybe", "n": 2}, {"name": "characteristic_unprimed", "n": 2}],
    )
    proc = run_cli("suite", "--config", path)
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    by_name = {c["name"]: c for c in doc["body"]["checks"]}
    assert by_name["ybe"]["passed"] is True
    assert by_name["characteristic_unprimed"]["passed"] is False
    assert by_name["characteristic_unprimed"]["witness"] is not None


def test_empty_suite_is_valid_and_passes(tmp_path):
    path = make_config(tmp_path, [])
    proc = run_cli("suite", "--config", path)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["body"]["checks"] == []
    assert doc["body"]["passed"] is True


def test_suite_malformed_config_exits_two(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{broken")
    proc = run_cli("suite", "--config", str(path))
    assert proc.returncode == 2
    assert "not valid JSON" in proc.stderr


def test_out_file_written_and_stdout_quiet(tmp_path):
    out = tmp_path / "report.json"
    path = make_config(tmp_path, [{"name": "ybe", "n": 2}], out=str(out))
    proc = run_cli("suite", "--config", path)
    assert proc.returncode == 0
    assert proc.stdout == ""
    doc = json.loads(out.read_text())
    assert doc["body"]["passed"] is True
    assert doc["timing"]["per_check"][0]["name"] == "ybe"


def test_relative_out_resolves_against_the_config_dir(tmp_path, monkeypatch):
    cfg_dir = tmp_path / "cfgdir"
    cfg_dir.mkdir()
    path = make_config(cfg_dir, [{"name": "ybe", "n": 2}], out="report.json")
    monkeypatch.chdir(tmp_path)
    assert main(["suite", "--config", path]) == 0
    assert json.loads((cfg_dir / "report.json").read_text())["body"]["passed"] is True
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("how", ["check", "suite"])
def test_unwritable_out_is_refused_before_any_check(tmp_path, monkeypatch, capsys, how):
    calls = []

    def spy(p):
        calls.append(p)
        return CheckReport("ybe", {}, True, None)

    monkeypatch.setitem(cli.REGISTRY, "ybe", replace(cli.REGISTRY["ybe"], runner=spy))
    if how == "check":
        argv = ["check", "ybe", "--out", str(tmp_path / "missing_dir" / "r.json")]
    else:
        argv = ["suite", "--config", make_config(tmp_path, [{"name": "ybe"}], out="")]
    assert main(argv) == 2
    assert "error: cannot write report to " in capsys.readouterr().err
    assert calls == []


def test_legacy_parallelism_key_loads_and_runs(tmp_path):
    path = make_config(tmp_path, [{"name": "ybe", "n": 2}], parallelism=2)
    proc = run_cli("suite", "--config", path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["body"]["passed"] is True


@pytest.mark.parametrize("value", ["x", 0, True])
def test_malformed_parallelism_exits_two(tmp_path, value):
    path = make_config(tmp_path, [{"name": "ybe", "n": 2}], parallelism=value)
    proc = run_cli("suite", "--config", path)
    assert proc.returncode == 2
    assert '"parallelism"' in proc.stderr


# -- report document ---------------------------------------------------------


def test_report_document_separates_timing(tmp_path):
    cfg = SuiteConfig(
        checks=({"name": "ybe", "n": 2},),
        inputs={},
        defaults=dict(PARAM_DEFAULTS),
        out=None,
    )
    document = report_document(run_suite(cfg))
    assert "elapsed_ms" not in json.dumps(document["body"])
    assert document["timing"]["per_check"][0]["elapsed_ms"] > 0
    assert document["timing"]["total_ms"] > 0


def test_canonical_body_is_stable_under_rerun(tmp_path):
    cfg = SuiteConfig(
        checks=({"name": "quasi_inverse", "n": 2}, {"name": "ybe", "n": 2}),
        inputs={},
        defaults=dict(PARAM_DEFAULTS),
        out=None,
    )
    first = report_document(run_suite(cfg))["body"]
    second = report_document(run_suite(cfg))["body"]
    assert json.dumps(first, sort_keys=True, indent=2) == json.dumps(
        second, sort_keys=True, indent=2
    )


def test_emit_report_to_unwritable_path(tmp_path):
    cfg = SuiteConfig(
        checks=({"name": "ybe", "n": 2},),
        inputs={},
        defaults=dict(PARAM_DEFAULTS),
        out=None,
    )
    runs = run_suite(cfg)
    with pytest.raises(UsageError, match="cannot write"):
        emit_report(runs, str(tmp_path / "missing_dir" / "report.json"))


def test_pairing_check_verifies_all_orders():
    cfg = SuiteConfig(
        checks=({"name": "pairing", "n": 2, "K": 10},),
        inputs={},
        defaults=dict(PARAM_DEFAULTS),
        out=None,
    )
    [(report, _)] = run_suite(cfg)
    assert report.passed
    assert report.params["orders_checked"] == 11


@pytest.mark.parametrize(
    "name, kmax, least",
    [
        ("fused_re", 0, 1),
        ("intertwiner", 0, 1),
        ("membership", 1, 2),
        ("characteristic", 1, 2),
    ],
)
def test_kmax_without_instances_exits_two(name, kmax, least):
    proc = run_cli("check", name, "--kmax", str(kmax))
    assert proc.returncode == 2
    assert f"kmax must be >= {least}, got {kmax}" in proc.stderr
    assert proc.stdout == ""


def test_aggregate_witness_names_the_failing_instance():
    from reflection_workbench.cli import _badge

    good = CheckReport("inner", {}, True, None)
    bad = CheckReport("inner", {}, False, {"row": [1], "col": [1], "lhs": "0", "rhs": "1"})
    combined = _badge("outer", {"n": 2}, [("k=1", good), ("k=2", bad), ("k=3", bad)])
    assert combined.name == "outer"
    assert combined.passed is False
    assert combined.witness["instance"] == "k=2"
    assert combined.params["instances"] == ["k=1", "k=2", "k=3"]


def test_committed_demo_suite_passes():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = run_cli("suite", "--config", os.path.join(root, "configs", "suite.json"))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["body"]["passed"] is True
    names = {c["name"] for c in doc["body"]["checks"]}
    assert "embedding" in names and "intertwiner" in names
    digest = hashlib.sha256(json.dumps(doc["body"], sort_keys=True).encode()).hexdigest()
    assert digest == DEMO_BODY_SHA256
