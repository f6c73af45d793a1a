"""Gibbs sampler for the Gaussian response models.

Model: c = mu*1 + beta*x + sigma*eta + eps, eps ~ N(0, tau^2 I), with eta
an intrinsic field (precision QQ', sum-zero) on the neighborhood graph.
Under the GraphDiffusion variant x is the covariate smoothed once through
the constrained inverse of Q'; otherwise x is the covariate itself.

The sampler works in the eigenbasis of F'QQ'F, the precision restricted to
the sum-zero subspace spanned by the orthonormal columns of F, so
constrained sampling of eta reduces to independent Gaussian draws on M-1
coordinates.  (QQ' itself annihilates the stationary law of the walk, which
is the constant vector only for balanced rates.)  Every update is an exact
draw from its full conditional, in the order (mu, beta), eta, sigma, tau^2.
sigma enters the mean linearly and its half-normal prior is a normal
truncated at zero, so its conditional is a normal truncated to sigma > 0.

Each sweep draws the normals of (mu, beta) and eta as one block of M+1:
two for (mu, beta), whose 2x2 posterior precision is factored in closed
form, and M-1 for the eta coordinates.  The residual c - mu - beta*x is
formed once per sweep for eta and sigma; less sigma*eta, it serves the
tau^2 rate and the retained log-likelihood.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DataError, NumericalError
from ..field import constrained_solve, helmert, stationary_precision
from ..graph import GeneratorMatrix, RateModel, check_irreducible
# build_generator and edge_rates_loglinear are no longer called here; they
# stay importable under this module, where bench/spans.py wraps them
from ..graph import build_generator, edge_rates_loglinear  # noqa: F401
from .genetics import _robert_tail
from .specs import DIFFUSION, GaussianModelSpec, PosteriorSamples, chain_length


def graph_generator(graph) -> GeneratorMatrix:
    """Generator implied by the graph at zero rate coefficients (alpha = 1/d)."""
    return RateModel(graph).generator((0.0, 0.0, 0.0))


def smooth_covariate(Q: GeneratorMatrix, h) -> np.ndarray:
    """Covariate smoothed by the constrained inverse of Q'; sums to zero."""
    return constrained_solve(Q, np.asarray(h, dtype=float))


def _design_column(spec: GaussianModelSpec, Q: GeneratorMatrix) -> np.ndarray:
    x = spec.covariate
    if spec.standardize:
        sd = x.std(ddof=1)
        if sd == 0:
            raise DataError("covariate is constant; cannot standardize")
        x = (x - x.mean()) / sd
    if spec.variant == DIFFUSION:
        # The smoothed column keeps its natural scale so that beta stays
        # comparable with the unsmoothed regression coefficient.
        x = smooth_covariate(Q, x)
    return x


def _positive_normal(rng, mean, sd):
    """N(mean, sd^2) truncated to (0, inf): mean + sd*x, x ~ N(0, 1) beyond
    a = -mean/sd, by rejection when a < 0 (acceptance at least 1/2) and by
    Robert's tail sampler when a >= 0."""
    a = -mean / sd
    if a < 0.0:
        x = rng.standard_normal()
        while x <= a:
            x = rng.standard_normal()
    else:
        x = _robert_tail(rng, a)
    return mean + sd * x


def gaussian_loglik_fn(spec: GaussianModelSpec):
    """Log-likelihood of the response conditional on all sampled parameters.

    Returns a callable over a {name: value} dict with keys mu, beta, sigma,
    tau and eta_0..eta_{M-1}; used for the per-draw log-likelihood and DIC.
    """
    Q = graph_generator(spec.graph)
    x = _design_column(spec, Q)
    c = spec.response
    m = c.size

    def loglik(params: dict) -> float:
        # read in the order of the draws' names, so a missing one is the first
        mu, beta, sigma, tau = params["mu"], params["beta"], params["sigma"], params["tau"]
        eta = np.array([params[f"eta_{i}"] for i in range(m)])
        mean = mu + beta * x + sigma * eta
        tau2 = tau**2
        resid = c - mean
        return -0.5 * m * math.log(2.0 * math.pi * tau2) - 0.5 * float(resid @ resid) / tau2

    return loglik


def fit_gaussian(
    spec: GaussianModelSpec,
    iterations: int,
    burnin: int,
    seed: int,
    thin: int = 1,
    include_likelihood: bool = True,
) -> PosteriorSamples:
    """Sample (mu, beta, sigma, tau, eta) from the posterior.

    ``include_likelihood=False`` disables the data terms in every update,
    turning the sweep into a prior sampler (used by the Gibbs audit).
    The metadata records the seed, the chain lengths, the variant and
    ``include_likelihood``.
    A (mu, beta) posterior precision that fails to factor raises
    ``NumericalError``.
    """
    n_keep = chain_length(iterations, burnin, thin)
    pr = spec.priors
    c = spec.response
    m = c.size
    Q = graph_generator(spec.graph)
    if not check_irreducible(Q):
        raise DataError("neighborhood graph must be connected (Q irreducible)")
    x = _design_column(spec, Q)

    # eigenbasis of the intrinsic precision restricted to the sum-zero subspace
    F = helmert(m).T
    d_pos, W = np.linalg.eigh(F.T @ stationary_precision(Q).toarray() @ F)
    if d_pos[0] <= 0.0:
        raise NumericalError("intrinsic precision is not positive on the sum-zero subspace")
    U = F @ W

    rng = np.random.default_rng(seed)
    like = 1.0 if include_likelihood else 0.0

    # initialization: least squares for (mu, beta), eta = 0, tau2 at residual variance
    X = np.column_stack([np.ones(m), x])
    coef, *_ = np.linalg.lstsq(X, c, rcond=None)
    mu, beta = float(coef[0]), float(coef[1])
    resid0 = c - X @ coef
    tau2 = float(resid0 @ resid0) / max(m - 2, 1)
    sigma = 1.0
    eta = np.zeros(m)

    prior_prec_reg = 1.0 / pr.regression_sd**2
    prior_prec_sigma = 1.0 / pr.re_sd_scale**2
    # X'X = [[m, sx], [sx, sxx]] in the (mu, beta) update
    sx = float(x.sum())
    sxx = float(x @ x)
    Ut = U.T
    names = ["mu", "beta", "sigma", "tau"] + [f"eta_{i}" for i in range(m)]
    draws = np.empty((n_keep, len(names)))
    logliks = np.empty(n_keep)
    kept = 0

    for it in range(iterations):
        # one block of noise: 2 for (mu, beta), then m-1 for the eta coordinates
        z = rng.standard_normal(m + 1)
        z_mu, z_beta = z[:2].tolist()

        # (mu, beta): conjugate bivariate Gaussian, coef = L'^-1 (L^-1 b + z)
        # with A = LL' the 2x2 posterior precision, factored in closed form
        y_reg = c - sigma * eta
        a11 = like * m / tau2 + prior_prec_reg
        a12 = like * sx / tau2
        a22 = like * sxx / tau2 + prior_prec_reg
        b1 = like * float(y_reg.sum()) / tau2
        b2 = like * float(x @ y_reg) / tau2
        if not a11 > 0.0:
            raise NumericalError(f"(mu, beta) posterior precision has pivot {a11:g}")
        l11 = math.sqrt(a11)
        l21 = a12 / l11
        pivot = a22 - l21 * l21
        if not pivot > 0.0:
            raise NumericalError(f"(mu, beta) posterior precision has pivot {pivot:g}")
        l22 = math.sqrt(pivot)
        t1 = b1 / l11
        beta = ((b2 - l21 * t1) / l22 + z_beta) / l22
        mu = (t1 + z_mu - l21 * beta) / l11

        # eta coordinates: independent in the eigenbasis
        base = c - mu - beta * x
        proj = Ut @ base
        prec_w = d_pos + like * sigma * sigma / tau2
        mean_w = like * (sigma / tau2) * proj / prec_w
        w = mean_w + z[2:] / np.sqrt(prec_w)
        eta = U @ w

        # sigma: normal truncated to sigma > 0; U has orthonormal columns,
        # so eta'eta = w'w and eta'base = w'proj
        prec_s = like * float(w @ w) / tau2 + prior_prec_sigma
        sigma = _positive_normal(rng, like * float(w @ proj) / tau2 / prec_s,
                                 1.0 / math.sqrt(prec_s))

        # tau2: conjugate inverse-gamma
        r_cur = base - sigma * eta
        rr_cur = float(r_cur @ r_cur)
        shape = pr.tau2_shape + like * 0.5 * m
        rate = pr.tau2_scale + like * 0.5 * rr_cur
        gdraw = rng.gamma(shape, 1.0 / rate)
        if gdraw <= 0.0:
            raise NumericalError(
                f"inverse-gamma draw underflowed (shape={shape:g}); "
                "shapes this small are only reachable in prior-only runs"
            )
        tau2 = 1.0 / gdraw

        if it >= burnin and (it - burnin) % thin == 0:
            draws[kept, 0] = mu
            draws[kept, 1] = beta
            draws[kept, 2] = sigma
            draws[kept, 3] = math.sqrt(tau2)
            draws[kept, 4:] = eta
            logliks[kept] = (-0.5 * m * math.log(2.0 * math.pi * tau2)
                             - 0.5 * rr_cur / tau2)
            kept += 1

    meta = {
        "seed": seed,
        "iterations": iterations,
        "burnin": burnin,
        "thin": thin,
        "variant": spec.variant,
        "include_likelihood": include_likelihood,
    }
    return PosteriorSamples(tuple(names), draws[:kept], logliks[:kept], meta)
