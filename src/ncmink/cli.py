"""Command-line front door: distances, causal relations, verification, sweeps.

Config precedence is flags > config file > built-in defaults, and the
effective configuration is echoed into every JSON output so a run can be
reproduced from its own artifact.  ``distance``, ``causal`` and ``sweep``
read it; the ``verify`` suites fix their own constants, psi and alpha and
read only ``quadrature.seed`` (gram, weyl) and the tolerances and
``max_evals`` (fourier), so their echoed ``constants`` and ``state``
change no report.  The config schema is :data:`DEFAULTS`:
a config file may set only its keys, nested the same way, and anything
else is a usage error.  Data goes to stdout, logs to stderr.

Exit codes: 0 success, 1 verification failure, 2 usage error.
``distance``, ``causal`` and ``sweep`` import no numpy; ``verify`` loads
its suites, and numpy with them, when it runs.
Position-space results (``distance``, ``causal``, ``sweep``) are closed
forms and always report error 0 and converged; the quadrature tolerances
and ``max_evals`` only steer the momentum route of ``verify fourier``.

A 4-vector or range that starts with a minus sign must be attached to its
flag with ``=`` (``--q=-1,0,0,0``, ``--range=-1:1:2``); otherwise argparse
reads it as a flag.

File formats
------------
Config file (JSON)::

    {"constants":  {"planck_length": 1.0, "u": [1, 0, 0, 0]},
     "state":      {"alpha": 1e6, "psi": {"center": [0, 0, 0, 0], "width": 25.0}},
     "quadrature": {"rel_tol": 1e-3, "abs_tol": 1e-10, "max_evals": 20000000,
                    "mc_samples": 20000, "seed": 20260809}}

``constants.u`` is validated (eta(u, u) = -1) and echoed with the rest
of the config, but no command reads it yet: every bump is isotropic in
the frame of (1, 0, 0, 0), whatever u is.

No command reads a smearing family; its JSON form is the library format
of :func:`ncmink.testfn.smearing_from_json`::

    [{"v": [v0, v1, v2, v3], "center": [t, x, y, z], "width": a, "weight": w}, ...]
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

from .geometry import causal, classify_causal, distance, distance_alpha
from .minkowski import DMStateParams, GaussianBump, PhysicalConstants
from .pair import QuadratureConfig

#: The suites of ``verify``, sorted: ``verify.SUITES`` imports numpy, so the
#: parser names them here and ``cmd_verify`` imports them when it runs.
SUITE_NAMES = ("alpha-limit", "fourier", "gram", "minvar", "weyl")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

DEFAULTS = {
    "constants": {"planck_length": 1.0, "u": [1.0, 0.0, 0.0, 0.0]},
    "state": {"alpha": 1.0e6, "psi": {"center": [0.0, 0.0, 0.0, 0.0], "width": 25.0}},
    "quadrature": dataclasses.asdict(QuadratureConfig()),
}

#: Shared flags in precedence order (a later flag beats an earlier one that
#: sets the same key): flag, config section, key, conversion of the value.
#: Each flag parses as the type of its key's default.
FLAGS = (
    ("--planck-length", "constants", "planck_length", None),
    ("--kappa-sq", "constants", "planck_length",
     lambda kappa_sq: PhysicalConstants.from_kappa_sq(kappa_sq).planck_length),
    ("--state-alpha", "state", "alpha", None),
    ("--rel-tol", "quadrature", "rel_tol", None),
    ("--abs-tol", "quadrature", "abs_tol", None),
    ("--seed", "quadrature", "seed", None),
)


def _four_vector(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected 4 comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _range_spec(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("range must be start:stop:count")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if count <= 0:
        raise argparse.ArgumentTypeError("count must be positive")
    return start, stop, count


def _merge(base, override, path="config"):
    """Overlay ``override`` on ``base``; every key must exist in ``base``.

    A value must have the JSON type of its default: an integer, a number,
    or a list of as many numbers (true and false are not numbers), so that
    the echoed config reproduces the run.
    """
    if not isinstance(override, dict):
        raise ValueError(f"{path} must be a JSON object")
    out = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}"
        if key not in base:
            raise ValueError(f"unknown config key {where}")
        if isinstance(base[key], dict):
            value = _merge(base[key], value, where)
        elif type(base[key]) is int and type(value) is not int:
            raise ValueError(f"{where} must be an integer")
        elif type(base[key]) is float and type(value) not in (int, float):
            raise ValueError(f"{where} must be a number")
        elif type(base[key]) is list and not (
            type(value) is list and len(value) == len(base[key]) and all(type(x) in (int, float) for x in value)
        ):
            raise ValueError(f"{where} must be a list of {len(base[key])} numbers")
        out[key] = value
    return out


def build_run_config(args):
    """Resolve flags > config file > defaults into one config document."""
    config = DEFAULTS
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as handle:
            config = _merge(config, json.load(handle))
    flat = {}
    for flag, section, key, convert in FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            flat.setdefault(section, {})[key] = convert(value) if convert else value
    return _merge(config, flat)


def _instantiate(config):
    constants = PhysicalConstants(planck_length=config["constants"]["planck_length"])
    psi_doc = config["state"]["psi"]
    params = DMStateParams(
        state_alpha=config["state"]["alpha"],
        psi=GaussianBump(tuple(psi_doc["center"]), psi_doc["width"]),
        constants=constants,
        u=tuple(config["constants"]["u"]),
    )
    return constants, params, QuadratureConfig(**config["quadrature"])


def _emit(doc, rows, fmt, row_fields):
    """Render one result document; rows are the tabular part."""
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(row_fields)
        for row in rows:
            writer.writerow([row[field] for field in row_fields])
    else:
        for row in rows:
            print("  ".join(f"{field}={row[field]!r}" for field in row_fields))


def _distance_row(chi_p, chi_q, constants, cfg):
    result = distance(chi_p, chi_q, constants, cfg)
    return {
        "classical": result.classical,
        "quantum": result.quantum,
        "total": result.total,
        "error": result.error,
        "converged": result.converged,
    }


def _causal_row(chi_p, chi_q, constants, cfg):
    result = causal(chi_p, chi_q, cfg)
    return {
        "value": result.value,
        "error": result.error_estimate,
        "classification": classify_causal(result.value),
        "converged": result.converged,
    }


def cmd_pair(args, config, constants, params, cfg):
    """The ``distance`` and ``causal`` commands: one row of two bumps of one width."""
    chi_p, chi_q = (GaussianBump(point, args.width) for point in (args.p, args.q))
    row = args.row(chi_p, chi_q, constants, cfg)
    doc = {"command": args.command, "config": config, "p": list(args.p), "q": list(args.q), "width": args.width, "result": row}
    _emit(doc, [row], args.format, list(row))
    return EXIT_OK


def cmd_verify(args, config, constants, params, cfg):
    # without numpy the suites cannot run: a usage error, not a failed check
    try:
        from .verify import SUITES
    except ImportError as exc:
        print(f"error: verify needs numpy ({exc})", file=sys.stderr)
        return EXIT_USAGE

    report = SUITES[args.suite](cfg)
    rows = [
        {
            "check": c["name"],
            "expected": c["expected"],
            "computed": c["computed"],
            "tolerance": c["tolerance"],
            "passed": c["passed"],
        }
        for c in report["checks"]
    ]
    doc = {"command": "verify", "config": config, "report": report}
    _emit(doc, rows, args.format, ["check", "expected", "computed", "tolerance", "passed"])
    if args.format == "text":
        print(f"suite {report['suite']}: {'PASS' if report['passed'] else 'FAIL'}")
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def cmd_sweep(args, config, constants, params, cfg):
    start, stop, count = args.range
    if args.log_scale:
        if start <= 0 or stop <= 0:
            print("log-scale sweeps need positive bounds", file=sys.stderr)
            return EXIT_USAGE
        values = [
            start * (stop / start) ** (k / max(count - 1, 1)) for k in range(count)
        ]
    else:
        values = [start + (stop - start) * k / max(count - 1, 1) for k in range(count)]
    rows = []
    for value in values:
        width = value if args.axis == "width" else args.width
        alpha = value if args.axis == "state-alpha" else params.state_alpha
        shift = value if args.axis == "separation" else args.separation
        offset = (shift, 0.0, 0.0, 0.0) if args.direction == "time" else (0.0, shift, 0.0, 0.0)
        chi_p = GaussianBump(offset, width)
        chi_q = GaussianBump((0.0, 0.0, 0.0, 0.0), width)
        if args.axis == "state-alpha":
            params_here = dataclasses.replace(params, state_alpha=alpha)
            dist = distance_alpha(chi_p, chi_q, params_here, cfg)
        else:
            dist = distance(chi_p, chi_q, constants, cfg)
        caus = causal(chi_p, chi_q, cfg)
        rows.append({
            "axis": args.axis,
            "value": value,
            "width": width,
            "state_alpha": alpha,
            "classical": dist.classical,
            "quantum": dist.quantum,
            "total": dist.total,
            "distance_error": dist.error,
            "causal": caus.value,
            "causal_error": caus.error_estimate,
            "converged": dist.converged and caus.converged,
        })
    fields = list(rows[0])
    doc = {"command": "sweep", "config": config, "rows": rows}
    _emit(doc, rows, args.format, fields)
    return EXIT_OK


def _add_common(parser, suppress):
    """Shared flags, valid both before and after the subcommand."""
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", default=default, help="JSON config file")
    parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default=argparse.SUPPRESS if suppress else "text",
    )
    for flag, section, key, _ in FLAGS:
        parser.add_argument(flag, type=type(DEFAULTS[section][key]), default=default)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncmink",
        description="Distance and fuzzy causality numerics on noncommutative Minkowski spacetime",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def subparser(name, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, suppress=True)
        return p

    for name, help_text, row in (
        ("distance", "noncommutative distance between two localized points", _distance_row),
        ("causal", "fuzzy causal functional and classification", _causal_row),
    ):
        p_pair = subparser(name, help_text)
        point = "t,x,y,z; a leading minus needs '=', as in --q=-1,0,0,0"
        for flag, kind, help_text in (("--p", _four_vector, point), ("--q", _four_vector, point), ("--width", float, None)):
            p_pair.add_argument(flag, type=kind, required=True, help=help_text)
        p_pair.set_defaults(func=cmd_pair, row=row)

    p_ver = subparser("verify", "run a closed-form verification suite")
    p_ver.add_argument("suite", choices=SUITE_NAMES)
    p_ver.set_defaults(func=cmd_verify)

    p_sweep = subparser("sweep", "emit a table over separation, width or state-alpha")
    p_sweep.add_argument("--axis", choices=("separation", "width", "state-alpha"), required=True)
    p_sweep.add_argument("--range", type=_range_spec, required=True,
                         help="start:stop:count; a leading minus needs '=', as in --range=-1:1:2")
    p_sweep.add_argument("--direction", choices=("time", "space"), default="time")
    p_sweep.add_argument("--width", type=float, default=1e4)
    p_sweep.add_argument("--separation", type=float, default=1.0)
    p_sweep.add_argument("--log", dest="log_scale", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = build_run_config(args)
        return args.func(args, config, *_instantiate(config))
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
