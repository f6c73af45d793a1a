"""Areal spatial covariance from stationary distributions of graph random walks.

Builds sparse CTMC generators from covariate-driven edge rates, simulates
the finite-population jump process and its deterministic limit, samples and
evaluates the intrinsic random field whose precision is QQ', decides
identifiability of Q from QQ', and fits the Gaussian and multinomial-probit
spatial models by MCMC with DIC comparison.

Importing the package loads numpy and scipy.sparse, and no other scipy
submodule.  Every scipy function from outside scipy.sparse is a stand-in
in ``walkfield._scipy`` that imports its submodule at its first call; a
module imports the stand-in under the scipy name (``field.splu``,
``ident.minimize``), so a command pays only for the submodules it calls.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DataError, NumericalError, WalkfieldError
from .field import (
    IntrinsicField,
    constrained_solve,
    log_density,
    log_pseudo_det,
    sample_fields,
    stationary_precision,
)
from .graph import (
    Edge,
    EdgeCovariates,
    GeneratorMatrix,
    RateModel,
    RateParams,
    SpatialGraph,
    build_generator,
    check_irreducible,
    edge_rates_loglinear,
    generator_from_rates,
    to_sar,
)
from .ident import (
    IdentifiabilityReport,
    check_identifiable,
    construct_confounded_pair,
    verify_unique,
)
from .popsim import (
    DemographyRates,
    PopulationTrajectory,
    convergence_gap,
    integrate_limit_ode,
    simulate_population,
)

__all__ = [
    "ConfigError",
    "DataError",
    "DemographyRates",
    "Edge",
    "EdgeCovariates",
    "GeneratorMatrix",
    "IdentifiabilityReport",
    "IntrinsicField",
    "NumericalError",
    "PopulationTrajectory",
    "RateModel",
    "RateParams",
    "SpatialGraph",
    "WalkfieldError",
    "build_generator",
    "check_identifiable",
    "check_irreducible",
    "constrained_solve",
    "construct_confounded_pair",
    "convergence_gap",
    "edge_rates_loglinear",
    "generator_from_rates",
    "integrate_limit_ode",
    "log_density",
    "log_pseudo_det",
    "sample_fields",
    "simulate_population",
    "stationary_precision",
    "to_sar",
    "verify_unique",
]
