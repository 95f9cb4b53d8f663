import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ncmink
from ncmink import DMStateParams, GaussianBump, cli, distance, distance_alpha, verify
from ncmink.cli import main
from ncmink.geometry import _log_quadratic

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_negative_kappa_sq_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys,
        "distance", "--p", "1,0,0,0", "--q", "0,0,0,0", "--width", "10",
        "--kappa-sq", "-1",
    )
    assert code == 2
    assert "kappa_sq" in err


def test_planck_length_with_an_overflowing_kappa_sq_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys,
        "distance", "--p", "1,0,0,0", "--q", "0,0,0,0", "--width", "1e4",
        "--planck-length", "1e200",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: planck_length must be finite and non-negative")
    code, out, _ = run_cli(
        capsys,
        "distance", "--p", "1,0,0,0", "--q", "0,0,0,0", "--width", "1e4",
        "--kappa-sq", "1e308", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["result"]["converged"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["distance", "--p", "1,0,0,0", "--q", "0,0,0,0", "--width", "1e150"],
        ["sweep", "--axis", "state-alpha", "--range", "1e-300:1e-300:1", "--width", "1e4"],
    ],
    ids=["distance", "sweep-state-alpha"],
)
def test_a_correction_that_overflows_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--kappa-sq", "1e308")
    assert (code, out) == (2, "")
    assert err.startswith("error: the quantum correction of the distance is not finite")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["distance", "--p", "1e200,0,0,0", "--width", "1e4"], "the interval (p - q)^2 of the centers is not finite: -inf"),
        (["causal", "--p", "1e250,0,0,0", "--width", "1e150"], "the causal functional is not finite: nan"),
    ],
    ids=["distance", "causal"],
)
def test_an_observable_that_overflows_is_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "--q", "0,0,0,0")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["distance", "--p", "1e154,1e154,1e154,0"],
            (2, "", "error: the spatial separation of the bump centers is not finite: inf\n"),
        ),
        (
            ["causal", "--p", "0,1e200,0,0"],
            (0, "value=0.0  error=0.0  classification='spacelike'  converged=True\n", ""),
        ),
    ],
    ids=["distance", "causal"],
)
def test_a_spatial_separation_whose_square_overflows_does_not_warn(capsys, argv, expected):
    """R^2 past the float range: the log pair is a usage error, the causal value is spacelike.

    The distance's interval, 1e308, is finite; its log pair stops before
    the log moment would turn R = inf into nan.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, *argv, "--q", "0,0,0,0", "--width", "1e4") == expected


def test_causal_past_the_gaussian_tail_is_future(capsys):
    code, out, err = run_cli(capsys, "causal", "--p", "1e200,0,0,0", "--q", "0,0,0,0", "--width", "1e4")
    assert (code, err) == (0, "")
    assert out == "value=1.0  error=0.0  classification='future'  converged=True\n"


def test_a_correction_that_is_zero_is_positive_zero(capsys, cfg, constants):
    """Where the log form Q is not negative the clipped correction is +0.0, not -0.0.

    At width 1e-150 the bumps p = (1, 0, 0, 0) and q = 0 give Q = +0.0,
    where -scale * min(Q, 0) was -0.0, in the library and in both CLI
    outputs.  At alpha = 1e300 the regulator term underflows to +0.0, so
    the finite-alpha correction is the limit's.
    """
    chi_p, chi_q = GaussianBump((1, 0, 0, 0), 1e-150), GaussianBump((0, 0, 0, 0), 1e-150)
    assert _log_quadratic(chi_p, chi_q) >= 0.0
    params = DMStateParams(1e300, GaussianBump((0, 0, 0, 0), 25.0), constants)
    results = [distance(chi_p, chi_q, constants, cfg).quantum, distance_alpha(chi_p, chi_q, params, cfg).quantum]
    argv = ("distance", "--p", "1,0,0,0", "--q", "0,0,0,0", "--width", "1e-150")
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (0, "classical=-1.0  quantum=0.0  total=-1.0  error=0.0  converged=True\n")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    results.append(json.loads(out)["result"]["quantum"])
    assert [(value, math.copysign(1.0, value)) for value in results] == [(0.0, 1.0)] * 3


@pytest.mark.parametrize("command", ["distance", "causal"])
@pytest.mark.parametrize("width", ["1e155", "1e-300"])
def test_width_outside_the_range_is_usage_error(capsys, command, width):
    code, out, err = run_cli(capsys, command, "--p", "1,0,0,0", "--q", "0,0,0,0", "--width", width)
    assert (code, out) == (2, "")
    assert err.startswith("error: width must be positive and finite")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["distance", "--p", "1,0,0", "--q", "0,0,0,0", "--width", "1"])
    assert exc.value.code == 2


def test_negative_values_attach_with_equals(capsys):
    """A value with a leading minus parses when it is attached with '='."""
    with pytest.raises(SystemExit):
        main(["distance", "--p", "0,0,0,0", "--q", "-1,0,0,0", "--width", "100"])
    assert "expected one argument" in capsys.readouterr().err
    code, out, _ = run_cli(
        capsys,
        "--format", "json", "distance", "--p", "0,0,0,0", "--q=-1,0,0,0", "--width", "100",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == [-1.0, 0.0, 0.0, 0.0]
    assert doc["result"]["classical"] == -1.0
    code, out, _ = run_cli(
        capsys, "--format", "json", "sweep", "--axis", "separation", "--range=-1:1:2",
    )
    assert code == 0
    assert [row["value"] for row in json.loads(out)["rows"]] == [-1.0, 1.0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["distance", "--p", "1,a,0,0", "--q", "0,0,0,0", "--width", "1"], "argument --p"),
        (["sweep", "--axis", "width", "--range", "1:2"], "range must be start:stop:count"),
        (["sweep", "--axis", "width", "--range", "1:2:x"], "argument --range"),
        (["sweep", "--axis", "width", "--range", "1:2:0"], "count must be positive"),
    ],
)
def test_malformed_arguments_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err


def test_log_sweep_needs_positive_bounds(capsys):
    code, out, err = run_cli(capsys, "sweep", "--axis", "width", "--range=-1:10:3", "--log")
    assert code == 2
    assert out == ""
    assert "log-scale sweeps need positive bounds" in err


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


@pytest.mark.parametrize("command", ["distance", "causal"])
def test_quadrature_budget_does_not_change_position_space_results(capsys, tmp_path, command):
    # the settings that once starved the radial quadrature; pair integrals
    # are closed forms now, so the result is the same as without a config
    path = tmp_path / "starved.json"
    path.write_text(json.dumps({"quadrature": {"rel_tol": 1e-14, "abs_tol": 1e-16, "max_evals": 100}}))
    pair = [command, "--p", "0,1,0,0", "--q", "0,0,0,0", "--width", "50"]
    code, out, _ = run_cli(capsys, "--config", str(path), "--format", "json", *pair)
    assert code == 0
    code_plain, out_plain, _ = run_cli(capsys, "--format", "json", *pair)
    assert code_plain == 0
    result = json.loads(out)["result"]
    assert result == json.loads(out_plain)["result"]
    assert result["converged"] is True and result["error"] == 0.0


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


@pytest.mark.parametrize(
    "config, named",
    [
        ({"constans": {"planck_length": 0.0}}, "unknown config key config.constans"),
        ({"quadrature": {"reltol": 1e-9}}, "unknown config key config.quadrature.reltol"),
        ({"state": {"psi": {"centre": [0, 0, 0, 0]}}}, "unknown config key config.state.psi.centre"),
        ([1, 2], "config must be a JSON object"),
        (None, "config must be a JSON object"),
        ({"state": {"psi": 3}}, "config.state.psi must be a JSON object"),
        ({"quadrature": {"rel_tol": "1e-9"}}, "config.quadrature.rel_tol must be a number"),
        ({"quadrature": {"seed": True}}, "config.quadrature.seed must be an integer"),
        ({"quadrature": {"seed": 7.5, "mc_samples": 2e4}}, "config.quadrature.seed must be an integer"),
        ({"quadrature": {"mc_samples": 2e4}}, "config.quadrature.mc_samples must be an integer"),
        ({"quadrature": {"max_evals": 0}}, "max_evals must be at least 1"),
        ({"constants": {"u": 5}}, "config.constants.u must be a list of 4 numbers"),
        ({"constants": {"u": "1000"}}, "config.constants.u must be a list of 4 numbers"),
        ({"constants": {"u": [True, 0, 0, 0]}}, "config.constants.u must be a list of 4 numbers"),
        ({"constants": {"u": [1, 0, 0]}}, "config.constants.u must be a list of 4 numbers"),
        # eta(u, u) overflows to nan, which no tolerance test may accept
        ({"constants": {"u": [1e200, 1e200, 0, 0]}}, "u must be unit timelike, got eta(u,u) = nan"),
        ({"state": {"psi": {"center": "1234", "width": 25}}}, "config.state.psi.center must be a list of 4 numbers"),
        ({"state": {"psi": {"center": [0, None, 0, 0]}}}, "config.state.psi.center must be a list of 4 numbers"),
    ],
)
def test_bad_config_file_is_usage_error(capsys, tmp_path, config, named):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(
        capsys,
        "--config", str(path),
        "distance", "--p", "0,1,0,0", "--q", "0,0,0,0", "--width", "100",
    )
    assert code == 2
    assert out == ""
    # one error line, no traceback
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


# the set-up of the benchmark's start-up measurement: the package and its
# CLI, a parsed `distance` command and the configs, through the package
BENCHMARK_SETUP = """
import ncmink, ncmink.cli
args = ncmink.cli.build_parser().parse_args(["distance", "--p", "1,0,0,0", "--q", "0,0,0,0", "--width", "1e4"])
config = ncmink.cli.build_run_config(args)
ncmink.QuadratureConfig(**config["quadrature"])
constants = ncmink.PhysicalConstants(config["constants"]["planck_length"])
psi = config["state"]["psi"]
ncmink.DMStateParams(config["state"]["alpha"], ncmink.GaussianBump(psi["center"], psi["width"]), constants)
"""


def _run_fresh(code):
    """Run code in a fresh interpreter on this checkout's sources; the modules it loaded."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    report = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code + report], env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(run.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [
        ["distance", "--p", "1,0,0,0", "--q", "0,0,0,0", "--width", "1e4"],
        ["causal", "--p", "1,0,0,0", "--q", "0,0,0,0", "--width", "1e4"],
        ["sweep", "--axis", "separation", "--range", "0.1:2:5"],
        ["sweep", "--axis", "state-alpha", "--range", "1e3:1e6:3", "--format", "json"],
    ],
    ids=["distance", "causal", "sweep-separation", "sweep-state-alpha"],
)
def test_the_float_commands_start_without_numpy(argv):
    """distance, causal and sweep run on Python floats: they import no numpy."""
    modules = _run_fresh(f"from ncmink.cli import main\nassert main({argv!r}) == 0")
    assert "ncmink.geometry" in modules
    assert "numpy" not in modules


def test_the_benchmark_setup_imports_no_numpy():
    modules = _run_fresh(BENCHMARK_SETUP)
    assert "ncmink.cli" in modules
    assert "numpy" not in modules


def test_verify_still_runs_its_suites(capsys):
    """verify imports its suites, and numpy, when it runs; the parser's
    suite names are those of verify.SUITES."""
    assert cli.SUITE_NAMES == tuple(sorted(verify.SUITES))
    code, out, _ = run_cli(capsys, "verify", "gram")
    assert code == 0
    assert out.endswith("suite gram: PASS\n")


def test_every_public_name_is_the_object_of_its_home_module():
    """A name of ncmink.__all__, bound at import or looked up on access, is
    the object its defining module holds."""
    for name in ncmink.__all__:
        value = getattr(ncmink, name)
        # the metric arrays have no module of their own
        home = "ncmink.testfn" if name in ("ETA", "IDENTITY") else value.__module__
        assert home.startswith("ncmink.")
        assert getattr(importlib.import_module(home), name) is value
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ncmink.no_such_name


def test_a_numpy_name_follows_its_home_module(monkeypatch):
    """The package keeps no copy of a numpy module's name: rebinding it in its
    module, as a tracer or a monkeypatch does, shows through the package,
    also after the name has been read there, and so does putting it back."""
    original = ncmink.bilinear_form
    monkeypatch.setattr("ncmink.integrate.bilinear_form", "rebound")
    assert ncmink.bilinear_form == "rebound"
    monkeypatch.undo()
    assert ncmink.bilinear_form is original
    assert "bilinear_form" not in vars(ncmink)


def test_importing_the_package_gives_its_numpy_submodules():
    """ncmink.testfn and the other numpy submodules are reachable from a bare
    `import ncmink`, as when the package imported them itself."""
    modules = _run_fresh(
        "import ncmink\nassert ncmink.testfn.smearing_from_json is ncmink.smearing_from_json\n"
        "assert [ncmink.integrate, ncmink.state, ncmink.weyl, ncmink.kernels, ncmink.verify]"
    )
    assert "numpy" in modules
