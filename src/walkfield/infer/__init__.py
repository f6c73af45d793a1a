"""Bayesian inference for the spatial models: samplers, DIC, diagnostics."""

from .diagnostics import compute_dic, split_half_diagnostic
from .gaussian import fit_gaussian, gaussian_loglik_fn, graph_generator, smooth_covariate
from .genetics import (
    category_probs,
    fit_probit_genetics,
    genetics_loglik_fn,
    simulate_genetics,
    truncated_normal,
)
from .specs import (
    DIFFUSION,
    SPATIAL,
    DICResult,
    GaussianModelSpec,
    GeneticsModelSpec,
    PosteriorSamples,
    PriorSpec,
)

__all__ = [
    "DIFFUSION",
    "SPATIAL",
    "DICResult",
    "GaussianModelSpec",
    "GeneticsModelSpec",
    "PosteriorSamples",
    "PriorSpec",
    "category_probs",
    "compute_dic",
    "fit_gaussian",
    "fit_probit_genetics",
    "gaussian_loglik_fn",
    "genetics_loglik_fn",
    "graph_generator",
    "simulate_genetics",
    "smooth_covariate",
    "split_half_diagnostic",
    "truncated_normal",
]
