"""Numerics for a Lorentz-invariant noncommutative Minkowski spacetime.

The package evaluates the Weyl-algebra structure built on the light-cone
symplectic form, the infrared-regularized quasi-free state behind it, and
the two headline observables: the Lorentzian distance functional with its
Planck-scale correction and the fuzzy causal functional with values in
[-1, 1].
"""

from .minkowski import (
    DEFAULT_FRAME,
    ETA,
    IDENTITY,
    FourCovector,
    Frame,
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

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
