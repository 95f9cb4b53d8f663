"""Numerics for a Lorentz-invariant noncommutative Minkowski spacetime.

The package evaluates the Weyl-algebra structure built on the light-cone
symplectic form, the infrared-regularized quasi-free state behind it, and
the two headline observables: the Lorentzian distance functional with its
Planck-scale correction and the fuzzy causal functional with values in
[-1, 1].
"""

from types import ModuleType as _ModuleType

from .minkowski import (
    ETA,
    IDENTITY,
    PhysicalConstants,
    SpacetimePoint,
    krein_covector_map,
    krein_matrix,
    minkowski_interval,
    synge,
)
from .testfn import (
    GaussianBump,
    VectorSmearing,
    frame_smearings,
    mean,
    moment1,
    scalar_smearing,
    single_term,
    smearing_from_json,
    smearing_to_json,
)
from .kernels import KernelKind
from .integrate import (
    Method,
    QuadratureConfig,
    QuadratureResult,
    bilinear_form,
    gaussian_pair_reduce,
    mc_oracle,
    momentum_form,
)
from .state import (
    DMStateParams,
    GramReport,
    PositivityError,
    dm_bilinear,
    gram_check,
    krein_J,
    mu2,
    sigma,
)
from .weyl import WeylCalculus, WeylElement
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

# the public names, without the submodules that the imports above bind
__all__ = [name for name, value in sorted(globals().items()) if not name.startswith("_") and not isinstance(value, _ModuleType)]

__version__ = "0.1.0"
