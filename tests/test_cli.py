import csv
import io
import json
import os
import subprocess
import sys

import pytest

import ncmink
from ncmink.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


DISTANCE_DOC_SCHEMA = {
    "type": "object",
    "required": ["command", "config", "p", "q", "width", "result"],
    "properties": {
        "command": {"const": "distance"},
        "config": {
            "type": "object",
            "required": ["constants", "state", "quadrature"],
        },
        "p": {"type": "array", "items": {"type": "number"}, "minItems": 4, "maxItems": 4},
        "q": {"type": "array", "items": {"type": "number"}, "minItems": 4, "maxItems": 4},
        "width": {"type": "number"},
        "result": {
            "type": "object",
            "required": ["classical", "quantum", "total", "error", "converged"],
            "properties": {
                "classical": {"type": "number"},
                "quantum": {"type": "number"},
                "total": {"type": "number"},
                "error": {"type": "number", "minimum": 0},
                "converged": {"type": "boolean"},
            },
        },
    },
}


def test_distance_classical_flag(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out, _ = run_cli(
        capsys,
        "distance", "--p", "1,0,0,0", "--q", "0,0,0,0", "--width", "1e4",
        "--kappa-sq", "0", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, DISTANCE_DOC_SCHEMA)
    assert doc["result"]["classical"] == -1.0
    assert doc["result"]["quantum"] == 0.0
    assert doc["config"]["constants"]["planck_length"] == 0.0


def test_distance_default_constants(capsys):
    code, out, _ = run_cli(
        capsys,
        "distance", "--p", "0,1,0,0", "--q", "0,0,0,0", "--width", "400",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["classical"] == 1.0
    assert doc["result"]["quantum"] >= 0.0
    assert doc["result"]["converged"] is True
    assert "quadrature" in doc["config"] and "constants" in doc["config"]


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["distance", "--p", "1,0,0", "--q", "0,0,0,0", "--width", "1"])
    assert exc.value.code == 2


def test_missing_config_file_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys,
        "--config", "/nonexistent/config.json",
        "causal", "--p", "1,0,0,0", "--q", "0,0,0,0", "--width", "10",
    )
    assert code == 2
    assert "error" in err


def test_causal_classification(capsys):
    code, out, _ = run_cli(
        capsys,
        "causal", "--p", "1,0,0,0", "--q", "0,0,0,0", "--width", "1e4",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["classification"] == "future"
    assert doc["result"]["value"] == pytest.approx(1.0, abs=1e-3)

    code, out, _ = run_cli(
        capsys,
        "causal", "--p", "0,2,0,0", "--q", "0,0,0,0", "--width", "1e4",
        "--format", "json",
    )
    doc = json.loads(out)
    assert doc["result"]["classification"] == "spacelike"

    code, out, _ = run_cli(
        capsys,
        "causal", "--p", "1.05,1,0,0", "--q", "0,0,0,0", "--width", "100",
        "--format", "json",
    )
    doc = json.loads(out)
    assert doc["result"]["classification"] == "fuzzy"
    assert 0.0 < doc["result"]["value"] < 1.0


def test_config_file_and_flag_precedence(capsys, tmp_path):
    config = {
        "constants": {"planck_length": 0.5},
        "quadrature": {"seed": 4242},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(
        capsys,
        "--config", str(path), "--planck-length", "0.25",
        "distance", "--p", "0,1,0,0", "--q", "0,0,0,0", "--width", "100",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    # flag beats config file, config file beats defaults
    assert doc["config"]["constants"]["planck_length"] == 0.25
    assert doc["config"]["quadrature"]["seed"] == 4242


def test_starved_budget_exits_nonconverged(capsys, tmp_path):
    quadrature = {"rel_tol": 1e-14, "abs_tol": 1e-16, "max_evals": 100}
    path = tmp_path / "starved.json"
    path.write_text(json.dumps({"quadrature": quadrature}))
    code, out, _ = run_cli(
        capsys,
        "--config", str(path), "--format", "json",
        "distance", "--p", "0,1,0,0", "--q", "0,0,0,0", "--width", "50",
    )
    assert code == 3
    result = json.loads(out)["result"]
    assert result["converged"] is False
    tol = max(quadrature["abs_tol"], quadrature["rel_tol"] * abs(result["total"]))
    assert result["error"] > tol


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "alpha-limit")
    assert code == 0
    assert "PASS" in out
    # minvar carries the published-constant defect and must fail honestly
    code, out, _ = run_cli(capsys, "verify", "minvar")
    assert code == 1
    assert "FAIL" in out


def test_verify_json_report_is_machine_readable(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "fourier")
    assert code == 0
    doc = json.loads(out)
    report = doc["report"]
    assert report["suite"] == "fourier" and report["passed"] is True
    for check in report["checks"]:
        assert set(check) == {"name", "expected", "computed", "tolerance", "passed"}


def test_sweep_csv_json_consistency(capsys):
    args = ["sweep", "--axis", "width", "--range", "100:10000:3", "--log", "--separation", "1.0"]
    code, json_out, _ = run_cli(capsys, "--format", "json", *args)
    assert code == 0
    code, csv_out, _ = run_cli(capsys, "--format", "csv", *args)
    assert code == 0
    doc = json.loads(json_out)
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(rows) == len(doc["rows"]) == 3
    for json_row, csv_row in zip(doc["rows"], rows):
        for field in ("value", "classical", "quantum", "total", "causal"):
            assert float(csv_row[field]) == json_row[field]
    # causal approaches the sharp limit as the width grows
    assert abs(doc["rows"][-1]["causal"] - 1.0) <= abs(doc["rows"][0]["causal"] - 1.0)


def test_sweep_deterministic_and_ordered(capsys):
    args = [
        "--format", "json", "sweep", "--axis", "separation", "--range", "0.5:2:4",
        "--width", "400",
    ]
    code, first, _ = run_cli(capsys, *args)
    code, second, _ = run_cli(capsys, *args)
    assert first == second
    doc = json.loads(first)
    values = [row["value"] for row in doc["rows"]]
    assert values == sorted(values)
    # the correction grows logarithmically with the separation
    quanta = [row["quantum"] for row in doc["rows"]]
    assert quanta == sorted(quanta)
    assert all(q > 0 for q in quanta)


def test_sweep_state_alpha_axis(capsys):
    code, out, _ = run_cli(
        capsys,
        "--format", "json", "sweep", "--axis", "state-alpha",
        "--range", "100:1000000:3", "--log", "--width", "400", "--separation", "1.2",
    )
    assert code == 0
    doc = json.loads(out)
    totals = [row["total"] for row in doc["rows"]]
    assert totals[0] >= totals[1] >= totals[2]


def test_sweep_space_direction(capsys):
    code, out, _ = run_cli(
        capsys,
        "--format", "json", "sweep", "--axis", "separation", "--range", "0.5:2:4",
        "--direction", "space", "--width", "400",
    )
    assert code == 0
    for row in json.loads(out)["rows"]:
        assert row["classical"] == row["value"] ** 2
        assert abs(row["causal"]) <= 3.0 * row["causal_error"]


def test_worker_env_does_not_change_results(tmp_path):
    # the subprocesses import the same ncmink as this test, installed or not
    src = os.path.dirname(os.path.dirname(ncmink.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, NCMINK_WORKERS="2", PYTHONPATH=path)
    cmd = [
        sys.executable, "-m", "ncmink.cli", "--format", "csv",
        "sweep", "--axis", "separation", "--range", "0.5:1.5:3", "--width", "200",
    ]
    parallel = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True)
    serial_env = dict(env, NCMINK_WORKERS="1")
    serial = subprocess.run(cmd, capture_output=True, text=True, env=serial_env, check=True)
    assert parallel.stdout == serial.stdout
