"""Gibbs sampler for the Gaussian response models.

Model: c = mu*1 + beta*x + sigma*eta + eps, eps ~ N(0, tau^2 I), with eta
an intrinsic field (precision QQ', sum-zero) on the neighborhood graph.
Under the GraphDiffusion variant x is the covariate smoothed once through
the constrained inverse of Q'; otherwise x is the covariate itself.

The sampler works in the eigenbasis of F'QQ'F, the precision restricted to
the sum-zero subspace spanned by the orthonormal columns of F, so
constrained sampling of eta reduces to independent Gaussian draws on M-1
coordinates w, with eta = U w for U = F W.  (QQ' itself annihilates the
stationary law of the walk, which is the constant vector only for balanced
rates.)  Every update is an exact draw from its full conditional, in the
order (mu, beta), eta, sigma, tau^2.  sigma enters the mean linearly and
its half-normal prior is a normal truncated at zero, so its conditional is
a normal truncated to sigma > 0.

``gibbs_sweep`` is one sweep over the state (mu, beta, w, sigma, tau2).  It
reads the response only through 1'c, x'c and U'c, computed once per fit,
and works on scalars and (M-1)-vectors alone: since 1'U = 0 and U has
orthonormal columns, the residual c - mu - beta*x - sigma*eta splits into
its mean along 1 and the vector U'(c - mu - beta*x) - sigma*w.  Each sweep
draws the normals of (mu, beta) and w as one block of M+1: two for (mu,
beta), whose 2x2 posterior precision is factored in closed form, and M-1
for w.  ``fit_gaussian`` forms eta = U w for the kept draws only.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..errors import DataError, NumericalError
from ..field import constrained_solve, helmert, stationary_precision
from ..graph import GeneratorMatrix, RateModel, check_irreducible
# build_generator and edge_rates_loglinear are no longer called here; they
# stay importable under this module, where bench/spans.py wraps them
from ..graph import build_generator, edge_rates_loglinear  # noqa: F401
from .genetics import _robert_tail
from .specs import DIFFUSION, GaussianModelSpec, PosteriorSamples, PriorSpec, chain_length


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


class SweepModel(NamedTuple):
    """What a sweep reads that no sweep changes.

    ``U`` holds the eigenvectors of F'QQ'F mapped to node space: orthonormal
    columns that each sum to zero, so [1/sqrt(M), U] is an orthonormal basis
    of R^M.  ``d_pos`` holds their eigenvalues.  ``x`` is the design column,
    with ``px = U'x``, ``sx = 1'x`` and ``sxx = x'x``.
    """

    U: np.ndarray
    d_pos: np.ndarray
    x: np.ndarray
    px: np.ndarray
    sx: float
    sxx: float
    priors: PriorSpec

    def data(self, c) -> tuple:
        """What a sweep reads of the response c: (1'c, x'c, U'c)."""
        return float(c.sum()), float(self.x @ c), self.U.T @ c


def sweep_model(spec: GaussianModelSpec) -> SweepModel:
    """The design, the eigenbasis and the priors of ``spec``; its response is
    not read.  A disconnected graph raises ``DataError``."""
    Q = graph_generator(spec.graph)
    if not check_irreducible(Q):
        raise DataError("neighborhood graph must be connected (Q irreducible)")
    x = _design_column(spec, Q)
    F = helmert(x.size).T
    d_pos, W = np.linalg.eigh(F.T @ stationary_precision(Q).toarray() @ F)
    if d_pos[0] <= 0.0:
        raise NumericalError("intrinsic precision is not positive on the sum-zero subspace")
    U = F @ W
    return SweepModel(U, d_pos, x, U.T @ x, float(x.sum()), float(x @ x), spec.priors)


def gibbs_sweep(rng, state: tuple, model: SweepModel, data: tuple):
    """One sweep from ``state = (mu, beta, w, sigma, tau2)``, with eta = U w,
    given the response's ``data = model.data(c)``.

    Returns the new state and the residual sum of squares
    |c - mu - beta*x - sigma*eta|^2 at its (mu, beta, w, sigma).  A (mu,
    beta) posterior precision that fails to factor, or a 1/tau^2 draw that
    underflows to 0, raises ``NumericalError``.
    """
    mu, beta, w, sigma, tau2 = state
    sc, xc, pc = data
    pr = model.priors
    m = model.x.size
    # one block of noise: 2 for (mu, beta), then m-1 for the eta coordinates
    z = rng.standard_normal(m + 1)
    z_mu, z_beta = z[:2].tolist()

    # (mu, beta): conjugate bivariate Gaussian, coef = L'^-1 (L^-1 b + z)
    # with A = LL' the 2x2 posterior precision, factored in closed form.
    # b = X'(c - sigma*eta)/tau2, and 1'eta = 0 drops eta from b1
    prec_reg = 1.0 / pr.regression_sd**2
    a11 = m / tau2 + prec_reg
    a12 = model.sx / tau2
    a22 = model.sxx / tau2 + prec_reg
    b1 = sc / tau2
    b2 = (xc - sigma * float(model.px @ w)) / tau2
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

    # eta coordinates, independent in the eigenbasis; proj = U'(c - mu - beta*x)
    proj = pc - beta * model.px
    prec_w = model.d_pos + sigma * sigma / tau2
    w = (sigma / tau2) * proj / prec_w + z[2:] / np.sqrt(prec_w)

    # sigma: normal truncated to sigma > 0; U has orthonormal columns,
    # so eta'eta = w'w and eta'(c - mu - beta*x) = w'proj
    prec_s = float(w @ w) / tau2 + 1.0 / pr.re_sd_scale**2
    sigma = _positive_normal(rng, float(w @ proj) / tau2 / prec_s, 1.0 / math.sqrt(prec_s))

    # tau2: conjugate inverse-gamma.  The residual splits into its mean a_bar
    # along 1 and proj - sigma*w along U; the second is summed as squares,
    # since expanding it cancels
    a_bar = (sc - m * mu - beta * model.sx) / m
    r = proj - sigma * w
    rr = m * a_bar * a_bar + float(r @ r)
    shape = pr.tau2_shape + 0.5 * m
    rate = pr.tau2_scale + 0.5 * rr
    gdraw = rng.gamma(shape, 1.0 / rate)
    if gdraw <= 0.0:
        raise NumericalError(
            f"inverse-gamma draw underflowed to 0 (shape={shape:g}, rate={rate:g})"
        )
    return (mu, beta, w, sigma, 1.0 / gdraw), rr


def fit_gaussian(
    spec: GaussianModelSpec,
    iterations: int,
    burnin: int,
    seed: int,
    thin: int = 1,
) -> PosteriorSamples:
    """Sample (mu, beta, sigma, tau, eta) from the posterior.

    Each iteration is one ``gibbs_sweep``; eta = U w is formed for the kept
    rows only, as one product after the loop.  The metadata records the
    seed, the chain lengths and the variant.  A (mu, beta) posterior
    precision that fails to factor raises ``NumericalError``.
    """
    n_keep = chain_length(iterations, burnin, thin)
    model = sweep_model(spec)
    c = spec.response
    m = c.size
    data = model.data(c)
    rng = np.random.default_rng(seed)

    # initialization: least squares for (mu, beta), eta = 0, tau2 at residual variance
    X = np.column_stack([np.ones(m), model.x])
    coef, *_ = np.linalg.lstsq(X, c, rcond=None)
    resid0 = c - X @ coef
    state = (float(coef[0]), float(coef[1]), np.zeros(m - 1), 1.0,
             float(resid0 @ resid0) / max(m - 2, 1))

    names = ["mu", "beta", "sigma", "tau"] + [f"eta_{i}" for i in range(m)]
    draws = np.empty((n_keep, len(names)))
    ws = np.empty((n_keep, m - 1))
    logliks = np.empty(n_keep)
    kept = 0

    for it in range(iterations):
        state, rr = gibbs_sweep(rng, state, model, data)
        if it >= burnin and (it - burnin) % thin == 0:
            mu, beta, w, sigma, tau2 = state
            draws[kept, :4] = mu, beta, sigma, math.sqrt(tau2)
            ws[kept] = w
            logliks[kept] = (-0.5 * m * math.log(2.0 * math.pi * tau2)
                             - 0.5 * rr / tau2)
            kept += 1
    draws[:, 4:] = ws @ model.U.T

    meta = {
        "seed": seed,
        "iterations": iterations,
        "burnin": burnin,
        "thin": thin,
        "variant": spec.variant,
    }
    return PosteriorSamples(tuple(names), draws, logliks, meta)
