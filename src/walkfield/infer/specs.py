"""Model specifications, priors, and posterior sample containers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from ..errors import DataError
from ..graph import SpatialGraph

SPATIAL = "SpatialRandomEffect"
DIFFUSION = "GraphDiffusion"


@dataclass(frozen=True)
class PriorSpec:
    """Hyperparameters for both model families.

    regression_sd: Gaussian prior sd on regression coefficients.
    re_sd_scale: half-normal scale on the random effect sd.
    tau2_shape/tau2_scale: inverse-gamma on the nonspatial error variance.
    rate_beta_sd / mu_lk_sd: diffuse Gaussian sds in the genetics model.
    Each must be positive and finite, else ``DataError`` naming it.
    """

    regression_sd: float = 100.0
    re_sd_scale: float = 100.0
    tau2_shape: float = 0.01
    tau2_scale: float = 0.01
    rate_beta_sd: float = 10.0
    mu_lk_sd: float = 10.0

    def __post_init__(self):
        for f in fields(self):
            if not 0 < getattr(self, f.name) < math.inf:
                raise DataError(f"prior hyperparameter {f.name} must be positive and finite")


def chain_length(iterations, burnin, thin=1, compute_loglik_every=1) -> int:
    """Draws a chain keeps: every ``thin``-th sweep from ``burnin`` on.

    The samplers' one check of their chain arguments: ``DataError`` unless
    iterations > burnin >= 0, thin >= 1 and compute_loglik_every >= 1.
    """
    if burnin < 0:
        raise DataError(f"burnin must be nonnegative, got {burnin}")
    if iterations <= burnin:
        raise DataError("iterations must exceed burnin")
    if thin < 1:
        raise DataError(f"thin must be at least 1, got {thin}")
    if compute_loglik_every < 1:
        raise DataError(f"compute_loglik_every must be at least 1, got {compute_loglik_every}")
    return (iterations - burnin + thin - 1) // thin


@dataclass(frozen=True)
class GaussianModelSpec:
    """Gaussian response c regressed on covariate h with an intrinsic spatial effect.

    variant selects whether h enters the design raw (SpatialRandomEffect) or
    smoothed once through the constrained inverse of Q' (GraphDiffusion).
    With standardize=True the design column is centered and scaled to unit
    sample sd, which puts the intercept at the response mean.
    """

    response: np.ndarray
    covariate: np.ndarray
    variant: str
    graph: SpatialGraph
    priors: PriorSpec = field(default_factory=PriorSpec)
    standardize: bool = True

    def __post_init__(self):
        c = np.asarray(self.response, dtype=float)
        h = np.asarray(self.covariate, dtype=float)
        m = self.graph.node_count
        if c.shape != (m,) or h.shape != (m,):
            raise DataError("response/covariate length must match the graph")
        if not (np.isfinite(c).all() and np.isfinite(h).all()):
            raise DataError("response and covariate must be finite")
        if self.variant not in (SPATIAL, DIFFUSION):
            raise DataError(f"unknown variant {self.variant!r}")
        object.__setattr__(self, "response", c)
        object.__setattr__(self, "covariate", h)


@dataclass(frozen=True)
class GeneticsModelSpec:
    """Multinomial-probit allele data on a spatial graph.

    alleles[l] is an (n_individuals, 2) integer array of 0-based allele
    categories at locus l; node_of_individual maps individuals to graph
    nodes.  There must be at least one locus, and observations must be
    complete (no missing slots).
    """

    graph: SpatialGraph
    node_of_individual: np.ndarray
    alleles: tuple
    n_categories: tuple
    priors: PriorSpec = field(default_factory=PriorSpec)
    extra_rate_names: tuple = ()

    def __post_init__(self):
        s = np.asarray(self.node_of_individual, dtype=int)
        if s.ndim != 1 or s.size == 0:
            raise DataError("node_of_individual must be a nonempty vector")
        if (s < 0).any() or (s >= self.graph.node_count).any():
            raise DataError("individual placed at an invalid node index")
        if not self.alleles:
            raise DataError("at least one locus is required")
        if len(self.alleles) != len(self.n_categories):
            raise DataError("alleles and n_categories must align per locus")
        alleles = []
        for l, (y, k) in enumerate(zip(self.alleles, self.n_categories)):
            y = np.asarray(y, dtype=int)
            if k < 2:
                raise DataError(f"locus {l} has K={k}; at least 2 categories required")
            if y.shape != (s.size, 2):
                raise DataError(f"locus {l}: allele array must be (n_individuals, 2)")
            if (y < 0).any() or (y >= k).any():
                raise DataError(f"locus {l}: allele category out of range 0..{k-1}")
            alleles.append(y)
        object.__setattr__(self, "node_of_individual", s)
        object.__setattr__(self, "alleles", tuple(alleles))
        object.__setattr__(self, "n_categories", tuple(int(k) for k in self.n_categories))

    @property
    def n_individuals(self):
        return self.node_of_individual.size

    @property
    def n_loci(self):
        return len(self.alleles)


@dataclass(frozen=True)
class PosteriorSamples:
    """Retained MCMC draws with per-draw log-likelihood and sampler metadata."""

    names: tuple
    draws: np.ndarray
    loglik: np.ndarray
    metadata: dict

    def __post_init__(self):
        d = np.asarray(self.draws, dtype=float)
        ll = np.asarray(self.loglik, dtype=float)
        if d.ndim != 2 or d.shape[1] != len(self.names):
            raise DataError("draw matrix must be (iterations, parameters)")
        if ll.shape != (d.shape[0],):
            raise DataError("log-likelihood length must equal retained draw count")
        if not np.isfinite(d).all():
            raise DataError("non-finite posterior draws")
        object.__setattr__(self, "draws", d)
        object.__setattr__(self, "loglik", ll)

    @property
    def n_draws(self):
        return self.draws.shape[0]

    def column(self, name) -> np.ndarray:
        return self.draws[:, self.names.index(name)]

    def mean(self) -> dict:
        mu = self.draws.mean(axis=0)
        return dict(zip(self.names, mu))

    def summary(self) -> dict:
        qs = np.quantile(self.draws, [0.025, 0.5, 0.975], axis=0)
        out = {}
        for j, name in enumerate(self.names):
            col = self.draws[:, j]
            out[name] = {
                "mean": float(col.mean()),
                "sd": float(col.std(ddof=1)) if col.size > 1 else None,
                "q025": float(qs[0, j]),
                "q50": float(qs[1, j]),
                "q975": float(qs[2, j]),
            }
        return out


@dataclass(frozen=True)
class DICResult:
    """Deviance information criterion: dic = dbar + p_d with p_d = dbar - d_at_mean."""

    dbar: float
    d_at_mean: float

    @property
    def p_d(self):
        return self.dbar - self.d_at_mean

    @property
    def dic(self):
        return 2.0 * self.dbar - self.d_at_mean

    def to_dict(self):
        return {"dbar": self.dbar, "d_at_mean": self.d_at_mean,
                "p_d": self.p_d, "dic": self.dic}
