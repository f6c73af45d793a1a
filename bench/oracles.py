"""Reference computations the benchmark checks the program against.

Dense numpy and scipy only: nothing here imports walkfield, so a fault in
the package cannot also hide in its own check.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse
from scipy.special import log_ndtr

# Prior hyperparameters written into every fit config, so that the chain
# and the quadrature below describe the same model.
PRIORS = {"regression_sd": 100.0, "re_sd_scale": 100.0,
          "tau2_shape": 0.01, "tau2_scale": 0.01}
SIGMA_GRID = (1e-4, 1e3)
TAU_GRID = (1e-2, 1e3)


def dense_generator(m, rates):
    """Generator with positive diagonal from a {(i, j): rate} dict."""
    q = np.zeros((m, m))
    for (i, j), a in rates.items():
        q[i, j] -= a
        q[i, i] += a
    return q


def sparse_generator(m, rates):
    """The same generator as `dense_generator`, in CSR form."""
    (src, dst), a = zip(*rates), np.array(list(rates.values()))
    rows = np.concatenate([src, src])
    cols = np.concatenate([dst, src])
    return scipy.sparse.csr_matrix((np.concatenate([-a, a]), (rows, cols)), shape=(m, m))


def sum_zero_basis(m):
    """Orthonormal (m, m-1) basis of the sum-zero subspace (Helmert rows)."""
    f = np.zeros((m, m - 1))
    for k in range(1, m):
        f[:k, k - 1] = 1.0
        f[k, k - 1] = -k
        f[:, k - 1] /= math.sqrt(k * (k + 1))
    return f


def restricted_logdet(q):
    """log det(F'QQ'F) for an orthonormal sum-zero basis F, by dense Cholesky."""
    a = q.T @ sum_zero_basis(q.shape[0])
    return 2.0 * float(np.log(np.diag(np.linalg.cholesky(a.T @ a))).sum())


def batch_means(x, n_batches=20):
    """(mean, standard error) of a chain by non-overlapping batch means."""
    x = np.asarray(x, dtype=float)
    size = x.size // n_batches
    means = x[: size * n_batches].reshape(n_batches, size).mean(axis=1)
    return float(x.mean()), float(means.std(ddof=1) / math.sqrt(n_batches))


def effective_size(x, n_batches=20):
    """Effective sample size implied by the batch-means standard error."""
    _, se = batch_means(x, n_batches)
    return float(np.var(x, ddof=1) / se**2)


def gaussian_posterior_means(c, x, lap, n=200):
    """Exact posterior means of mu, beta and tau for the Gaussian model.

    Model: c = mu + beta*x + sigma*eta + eps, eta with precision lap lap'
    on the sum-zero subspace, eps ~ N(0, tau^2 I), priors as in PRIORS.
    In the eigenbasis of lap lap' the covariance of c given (sigma, tau)
    is diagonal, so eta, mu and beta integrate out in closed form; the
    remaining (sigma, tau) posterior is summed on an n x n log grid.
    Returns (means, mass on the grid boundary).
    """
    lam, u = np.linalg.eigh(lap @ lap.T)
    inv = np.where(np.arange(lam.size) == 0, 0.0, 1.0 / np.maximum(lam, 1e-300))
    ct = u.T @ c
    xt = u.T @ np.column_stack([np.ones_like(x), x])
    sig = np.geomspace(*SIGMA_GRID, n)
    tau = np.geomspace(*TAU_GRID, n)
    d = sig[:, None, None] ** 2 * inv + tau[None, :, None] ** 2
    w = 1.0 / d
    a = np.einsum("kp,stk,kq->stpq", xt, w, xt) + np.eye(2) / PRIORS["regression_sd"] ** 2
    b = np.einsum("stk,k,kp->stp", w, ct, xt)
    coef = np.linalg.solve(a, b[..., None])[..., 0]
    quad = w @ ct**2 - np.einsum("stp,stp->st", b, coef)
    logpost = -0.5 * (np.log(d).sum(axis=2) + np.linalg.slogdet(a)[1] + quad)
    logpost += (np.log(sig) - 0.5 * (sig / PRIORS["re_sd_scale"]) ** 2)[:, None]
    logpost -= (PRIORS["tau2_shape"] * np.log(tau**2) + PRIORS["tau2_scale"] / tau**2)[None, :]
    p = np.exp(logpost - logpost.max())
    p /= p.sum()
    means = {"mu": float(np.sum(p * coef[..., 0])),
             "beta": float(np.sum(p * coef[..., 1])),
             "tau": float(p.sum(axis=0) @ tau)}
    return means, 1.0 - float(p[1:-1, 1:-1].sum())


def gaussian_loglik(c, x, draws):
    """Per-draw log-likelihood; draws columns are mu, beta, sigma, tau, eta_0.."""
    draws = np.atleast_2d(draws)
    mu, beta, sigma, tau = (draws[:, k : k + 1] for k in range(4))
    resid = c[None, :] - mu - beta * x[None, :] - sigma * draws[:, 4:]
    m = c.size
    return (-0.5 * m * np.log(2.0 * math.pi * tau[:, 0] ** 2)
            - 0.5 * (resid**2).sum(axis=1) / tau[:, 0] ** 2)


def dic(c, x, draws):
    """DIC = 2*Dbar - D(posterior mean), from the draws alone."""
    dbar = float(np.mean(-2.0 * gaussian_loglik(c, x, draws)))
    return 2.0 * dbar + 2.0 * float(gaussian_loglik(c, x, draws.mean(axis=0))[0])


def probit_category_logprobs(means, n_grid=401):
    """log P(category k has the largest of N(means_k, 1) latents), per row.

    P_k = integral of phi(t - m_k) * prod_{a != k} Phi(t - m_a) dt, by the
    trapezoid rule on a uniform grid wide enough that the tails vanish.
    """
    means = np.atleast_2d(means)
    t = np.linspace(means.min() - 10.0, means.max() + 10.0, n_grid)
    z = t[None, :, None] - means[:, None, :]
    log_cdf = log_ndtr(z)
    log_pdf = -0.5 * z**2 - 0.5 * math.log(2.0 * math.pi)
    integrand = np.exp(log_pdf + log_cdf.sum(axis=2, keepdims=True) - log_cdf)
    return np.log(np.trapezoid(integrand, t, axis=1))
