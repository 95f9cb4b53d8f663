"""Numerics for a Lorentz-invariant noncommutative Minkowski spacetime.

The package evaluates the Weyl-algebra structure built on the light-cone
symplectic form, the infrared-regularized quasi-free state behind it, and
the two headline observables: the Lorentzian distance functional with its
Planck-scale correction and the fuzzy causal functional with values in
[-1, 1].

Importing the package loads no numpy.  The points, bumps, constants and
configurations and the observables run on Python floats and are bound at
import; the modules that need numpy (smearings, forms, the state and the
Weyl calculus) and their public names are looked up on each access, by
the module ``__getattr__`` of PEP 562.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .geometry import (
    DistanceBreakdown,
    causal,
    causal_via_weyl,
    classical_term,
    classify_causal,
    corrected_synge,
    distance,
    distance_alpha,
)
from .minkowski import DMStateParams, GaussianBump, PhysicalConstants, SpacetimePoint, minkowski_interval, synge
from .pair import KernelKind, Method, QuadratureConfig, QuadratureResult

# the public names of the modules that import numpy, by module
_LAZY = {
    "testfn": "ETA IDENTITY VectorSmearing frame_smearings krein_covector_map krein_matrix mean moment1"
    " scalar_smearing single_term smearing_from_json smearing_to_json",
    "integrate": "bilinear_form mc_oracle momentum_form",
    "state": "GramReport PositivityError dm_bilinear gram_check krein_J mu2 sigma",
    "weyl": "WeylCalculus WeylElement",
}
_HOME = {name: module for module, names in _LAZY.items() for name in names.split()}
# the submodules that import numpy, which importing the package does not bind
_NUMPY_MODULES = {*_LAZY, "kernels", "verify"}

# the public names, without the submodules that the imports bind
__all__ = sorted(
    [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)] + list(_HOME)
)

__version__ = "0.1.0"


def __getattr__(name):
    """Look a numpy submodule, or a public name of one, up in its module.

    Nothing is kept here, so the package always gives what the module holds
    now, also while a function of it is rebound (monkeypatched or traced).
    """
    if name in _NUMPY_MODULES:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
