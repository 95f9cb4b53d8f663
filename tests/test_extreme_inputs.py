"""Every input at the ends of its range gives finite numbers or a usage error.

Centers reach +-1e300, widths span their whole range [1e-150, 1e150],
kappa^2 runs from 0 to 1e308 and the state regulator alpha from 1e-300 to
1e300.  Each call runs with numpy's overflow, divide and invalid flags
raising (an underflow to 0 is the right double, so it is left alone) and
with warnings as errors, as pyproject sets them.  It must return finite
numbers or raise ValueError, and the CLI must exit 0 with finite output or
exit 2.  ``verify`` may also exit 1, a failed check, with finite output; it
runs at both ends of the seed range [0, 2**64) and past them, and at
tolerances of 1e300 and 1e-300.
"""

import cmath
import json

import numpy as np
import pytest

from ncmink import (
    ETA,
    DMStateParams,
    GaussianBump,
    KernelKind,
    PhysicalConstants,
    WeylCalculus,
    WeylElement,
    bilinear_form,
    causal,
    distance,
    distance_alpha,
    gram_check,
    mu2,
)
from ncmink.cli import main
from ncmink.testfn import single_term

CENTERS = (0.0, 1.0, -1.0, 1e150, -1e150, 1e300, -1e300)
WIDTHS = (1e-150, 1e-75, 1.0, 1e75, 1e150)
KAPPA_SQ = (0.0, 1e-300, 1.0, 1e308)
ALPHAS = (1e-300, 1.0, 1e300)

# (c, w1, w2, kappa^2, alpha) that once failed otherwise: 4 alpha kappa^2
# underflowing to 0 (ZeroDivisionError), sigma(f, psi) c sigma(g, psi)
# overflowing in a covector product, and the Gram rescaling of a finite N
# overflowing in N_kk + N_ll
NAMED = [
    (1.0, 1.0, 1.0, 1e-300, 1e-300),
    (1.0, 1e-150, 1e-150, 1e308, 1e-300),
    (0.0, 1e-150, 1.0, 1e308, 1.0),
]


def _cases(n=60, seed=32):
    rng = np.random.default_rng(seed)
    drawn = [tuple(float(rng.choice(grid)) for grid in (CENTERS, WIDTHS, WIDTHS, KAPPA_SQ, ALPHAS)) for _ in range(n)]
    return NAMED + drawn


def _finite_or_usage_error(call):
    """call() gives a list of finite numbers, or raises ValueError."""
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            numbers = call()
        except ValueError:
            return
    assert numbers and all(cmath.isfinite(x) for x in numbers), numbers


def _gram_numbers(reports):
    return [x for report in reports for x in (*report.matrix.ravel().tolist(), report.min_eigenvalue)]


@pytest.mark.parametrize("c, w1, w2, kappa_sq, alpha", _cases())
def test_every_call_is_finite_or_a_usage_error(cfg, c, w1, w2, kappa_sq, alpha):
    chi_f, chi_g = GaussianBump((c, c / 2, 0, 0), w1), GaussianBump((0, 0, 0, 0), w2)
    f, g = single_term((1, 0.3, 0, 0), chi_f), single_term((0.2, 1, 0, 0), chi_g, -1.0)
    constants = PhysicalConstants.from_kappa_sq(kappa_sq)
    params = DMStateParams(state_alpha=alpha, psi=GaussianBump((0, 0, 0, 0), 25.0), constants=constants)
    calculus = WeylCalculus(constants, cfg)
    a = WeylElement.generator(f) + WeylElement.generator(g, 0.5)
    calls = [
        lambda: [distance(chi_f, chi_g, constants, cfg).total],
        lambda: [distance_alpha(chi_f, chi_g, params, cfg).total],
        lambda: [causal(chi_f, chi_g, cfg).value],
        *(lambda kind=kind: [bilinear_form(kind, f, g, ETA, cfg).value] for kind in KernelKind),
        lambda: _gram_numbers(gram_check([f, g], params, cfg)),
        lambda: [mu2(f, g, params, cfg)],
        lambda: [calculus.eval_omega(calculus.mul(calculus.star(a), a), params).value],
    ]
    for call in calls:
        _finite_or_usage_error(call)


def _numbers(doc):
    if isinstance(doc, dict):
        return [x for value in doc.values() for x in _numbers(value)]
    if isinstance(doc, list):
        return [x for value in doc for x in _numbers(value)]
    return [doc] if isinstance(doc, float) else []


@pytest.mark.parametrize("c, w1, w2, kappa_sq, alpha", _cases(n=20, seed=33))
def test_every_cli_command_exits_0_with_finite_output_or_2(capsys, c, w1, w2, kappa_sq, alpha):
    common = ["--format", "json", "--kappa-sq", repr(kappa_sq), "--state-alpha", repr(alpha)]
    pair = [f"--p={c!r},{c / 2!r},0,0", "--q=0,0,0,0", "--width", repr(w1)]
    sweeps = [
        ["--axis", "state-alpha", f"--range={alpha!r}:{alpha!r}:1", "--width", repr(w2), f"--separation={c!r}"],
        ["--axis", "width", f"--range={w1!r}:{w2!r}:3", "--log", "--direction", "space", f"--separation={c!r}"],
        ["--axis", "separation", f"--range={-c!r}:{c!r}:3", "--width", repr(w1)],
    ]
    for argv in (["distance", *pair], ["causal", *pair], *(["sweep", *sweep] for sweep in sweeps)):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            code = main(argv + common)
        out = capsys.readouterr().out
        assert code in (0, 2), argv
        if code == 0:
            numbers = _numbers(json.loads(out))
            assert numbers and all(cmath.isfinite(x) for x in numbers), (argv, out)




def _verify_case(*argv, config=None, codes=(0, 1, 2)):
    name = " ".join(argv) + (" under " + json.dumps(config) if config else "")
    return pytest.param(["verify", *argv], config, codes, id=name)


@pytest.mark.parametrize(
    "argv, config, codes",
    [
        *(_verify_case(suite, "--seed", str(seed), codes=(0, 1)) for suite in ("gram", "weyl") for seed in (0, 2**64 - 1)),
        _verify_case("weyl", "--seed=-1", codes=(2,)),
        _verify_case("weyl", "--seed", str(2**64), codes=(2,)),
        _verify_case("fourier", "--rel-tol", "1e300", "--abs-tol", "1e300"),
        # one eval allowed, so the momentum route stops after its first panels
        _verify_case("fourier", "--rel-tol", "1e-300", "--abs-tol", "1e-300", config={"quadrature": {"max_evals": 1}}),
    ],
)
def test_verify_exits_0_or_1_with_finite_output_or_2(capsys, tmp_path, argv, config, codes):
    """``verify`` at the ends of the seed range [0, 2**64) and past them, and
    with tolerances of 1e300 and, on one eval, of 1e-300."""
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "run.json")]
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert code in codes, argv
    if code == 2:
        assert out == ""
    else:
        numbers = _numbers(json.loads(out))
        assert numbers and all(cmath.isfinite(x) for x in numbers), (argv, out)
