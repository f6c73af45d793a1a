"""Multinomial-probit sampler for spatial allele data.

Observed allele categories are the argmax of latent Gaussian utilities
z ~ N(mu_lk + eta_{s,l,k}, 1).  Latents are updated by truncated-normal
Gibbs, allele intercepts mu_lk by conjugate Gaussian steps (mu_l0 fixed at
zero for identifiability), each spatial field eta_lk by a constrained
Gaussian draw with prior precision QQ' (unit noise scale), and the rate
coefficients beta by joint random-walk Metropolis on the collapsed model:
the fields are integrated out of the latent likelihood analytically, then
redrawn from their full conditional.  A beta proposal changes Q, so the
precision and its determinant terms are recomputed per proposal; the
normalizing constant is what lets the data inform beta.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_solve, helmert, solve_triangular
from scipy.special import log_ndtr, ndtr, ndtri

from ..errors import DataError, NumericalError
from ..field import constrained_solve, stationary_precision
from ..graph import RateParams, build_generator, check_irreducible, edge_rates_loglinear
from .specs import GeneticsModelSpec, PosteriorSamples

BETA_TARGET_ACC = 0.234
_TAIL = 6.0


def truncated_normal(rng, mean, lower=None, upper=None):
    """Vectorized N(mean, 1) draws truncated to (lower, upper) one side at a time.

    Inverse-CDF in the central regime; for truncation points deeper than
    6 sd the conditional distribution is essentially the exponential tail,
    sampled by Robert's rejection method for accuracy.
    """
    mean = np.asarray(mean, dtype=float)
    if (lower is None) == (upper is None):
        raise ValueError("exactly one of lower/upper must be given")
    if lower is not None:
        a = np.broadcast_to(np.asarray(lower, dtype=float) - mean, mean.shape)
        out = _std_lower_trunc(rng, a.ravel()).reshape(mean.shape)
        return mean + out
    b = np.broadcast_to(np.asarray(upper, dtype=float) - mean, mean.shape)
    return mean - _std_lower_trunc(rng, (-b).ravel()).reshape(mean.shape)


def _std_lower_trunc(rng, a):
    """Standard normal conditioned on exceeding a (vector), seedable and exact."""
    out = np.empty_like(a)
    central = a < _TAIL
    if central.any():
        ac = a[central]
        u = rng.uniform(ndtr(ac), 1.0)
        # clip away from 1.0: ndtri(1.0) is inf
        out[central] = ndtri(np.minimum(u, 1.0 - 1e-16))
    if (~central).any():
        idx = np.flatnonzero(~central)
        for i in idx:
            out[i] = _robert_tail(rng, a[i])
    return out


def _robert_tail(rng, a):
    # translated-exponential proposal with the optimal rate
    lam = 0.5 * (a + math.sqrt(a * a + 4.0))
    while True:
        x = a + rng.exponential(1.0 / lam)
        if math.log(rng.random()) <= -0.5 * (x - lam) ** 2:
            return x


def category_probs(means: np.ndarray, n_quad: int = 40) -> np.ndarray:
    """P(category k attains the max) for latents N(means_k, 1), per row.

    Gauss-Hermite quadrature over the winning latent:
    p_k = E_t[ prod_{a != k} Phi(t + m_k - m_a) ] with t ~ N(0, 1).
    """
    means = np.atleast_2d(np.asarray(means, dtype=float))
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_quad)
    weights = weights / math.sqrt(2.0 * math.pi)
    n, k = means.shape
    # t + m_k - m_a for every (row, k, a, node)
    diff = means[:, :, None, None] - means[:, None, :, None] + nodes[None, None, None, :]
    logcdf = log_ndtr(diff)
    for a in range(k):
        logcdf[:, a, a, :] = 0.0
    inner = np.exp(logcdf.sum(axis=2))  # (n, k, n_quad)
    return inner @ weights


def _rate_params(spec, beta_vec):
    return RateParams(tuple(beta_vec), spec.extra_rate_names)


def _sum_zero_basis(m):
    """Orthonormal basis of the sum-zero subspace as an (m, m-1) matrix."""
    return helmert(m).T


def _precision_bundle(spec, beta_vec, F):
    """Precision of the constrained field for given rate coefficients.

    Returns (P, B_chol, logdet_B) where P = QQ' and B = F'PF is the
    precision restricted to the sum-zero subspace.  With asymmetric rates
    P's null vector is not the constant vector, so the restriction — not
    the pseudo-determinant — is the right normalizing object.
    """
    rates = edge_rates_loglinear(spec.graph, _rate_params(spec, beta_vec))
    Q = build_generator(spec.graph, rates)
    P = stationary_precision(Q).toarray()
    B = F.T @ P @ F
    try:
        B_chol = np.linalg.cholesky((B + B.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "constrained field precision is not positive definite"
        ) from exc
    logdet_B = 2.0 * float(np.log(np.diag(B_chol)).sum())
    return P, B_chol, logdet_B


def simulate_genetics(
    graph,
    beta_true,
    n_loci: int,
    n_categories: int,
    individuals_per_node: int,
    seed: int,
    mu_sd: float = 0.5,
    extra_rate_names=(),
) -> tuple:
    """Forward-simulate allele data from the model; returns (spec, truth dict)."""
    rng = np.random.default_rng(seed)
    m = graph.node_count
    rates = edge_rates_loglinear(graph, RateParams(tuple(beta_true), extra_rate_names))
    Q = build_generator(graph, rates)

    node_of_ind = np.repeat(np.arange(m), individuals_per_node)
    alleles = []
    mus = []
    etas = []
    for _ in range(n_loci):
        mu = np.concatenate([[0.0], rng.normal(0.0, mu_sd, n_categories - 1)])
        # prior draws of the locus's constrained fields, one column per
        # category: unit driving noise pushed through the generator in one
        # solve, sum-zero by construction
        eta_full = constrained_solve(Q, rng.standard_normal((n_categories, m)).T)
        noise = rng.standard_normal((node_of_ind.size, 2, n_categories))
        lat = mu[None, None, :] + eta_full[node_of_ind][:, None, :] + noise
        alleles.append(lat.argmax(axis=2))
        mus.append(mu)
        etas.append(eta_full)
    spec = GeneticsModelSpec(
        graph=graph,
        node_of_individual=node_of_ind,
        alleles=tuple(alleles),
        n_categories=tuple([n_categories] * n_loci),
        extra_rate_names=extra_rate_names,
    )
    truth = {"beta": np.asarray(beta_true, dtype=float), "mu": mus, "eta": etas}
    return spec, truth


def fit_probit_genetics(
    spec: GeneticsModelSpec,
    iterations: int,
    burnin: int,
    seed: int,
    thin: int = 1,
    include_likelihood: bool = True,
    compute_loglik_every: int = 1,
) -> PosteriorSamples:
    """Posterior sampling for (beta, mu_lk, eta fields, latent z).

    The per-draw log-likelihood marginalizes the latents via quadrature
    over category-max probabilities (used for diagnostics, not for any
    update).  ``include_likelihood=False`` freezes the latents out of every
    update, reducing each step to its prior (Gibbs audit mode).
    """
    pr = spec.priors
    m = spec.graph.node_count
    s_of_ind = spec.node_of_individual
    n_ind = spec.n_individuals
    n_beta = 3 + len(spec.extra_rate_names)
    rng = np.random.default_rng(seed)
    like = 1.0 if include_likelihood else 0.0

    beta = np.zeros(n_beta)
    F = _sum_zero_basis(m)
    P, B_chol, logdet_B = _precision_bundle(spec, beta, F)
    Q0 = build_generator(spec.graph, edge_rates_loglinear(spec.graph, _rate_params(spec, beta)))
    if not check_irreducible(Q0):
        raise DataError("graph must be irreducible under the rate model")

    # per-node slot counts (2 ploidy slots per individual) and scatter index
    node_counts = np.bincount(s_of_ind, minlength=m) * 2.0
    mu = [np.zeros(k) for k in spec.n_categories]
    eta = [np.zeros((m, k)) for k in spec.n_categories]
    z = [rng.standard_normal((n_ind, 2, k)) for k in spec.n_categories]
    # start latents consistent with the observed argmax constraint
    for l, k in enumerate(spec.n_categories):
        obs = spec.alleles[l]
        for p in range(2):
            rows = np.arange(n_ind)
            zmax = z[l][:, p, :].max(axis=1)
            z[l][rows, p, obs[:, p]] = zmax + 0.5

    names = [f"beta_{j}" for j in range(n_beta)]
    for l, k in enumerate(spec.n_categories):
        names += [f"mu_{l}_{kk}" for kk in range(1, k)]
    for l, k in enumerate(spec.n_categories):
        names += [f"eta_{l}_{kk}_{s}" for kk in range(k) for s in range(m)]

    n_keep = (iterations - burnin + thin - 1) // thin
    draws = np.empty((n_keep, len(names)))
    logliks = np.empty(n_keep)
    kept = 0
    acc = 0
    rejected = 0  # beta proposals refused on a NumericalError or DataError
    log_scale = math.log(0.1)

    slot_nodes = np.repeat(s_of_ind, 2)
    n_fields = int(sum(spec.n_categories))

    K_slots = (F * node_counts[:, None]).T @ F  # F' G'G F, beta-independent

    def collapsed_loglik(chol_B, ldet_B):
        """Log p(z | mu, beta) with every spatial field integrated out.

        Per field the latents are N(mu, G Sigma G' + I) for the
        node-to-slot incidence G and Sigma the sum-zero-constrained inverse
        of QQ'; Woodbury in the (M-1)-dim constraint basis keeps this cheap.
        """
        B = chol_B @ chol_B.T
        cap = B + K_slots
        try:
            cK = np.linalg.cholesky(cap)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("collapsed covariance not positive definite") from exc
        logdet_c = 2.0 * float(np.log(np.diag(cK)).sum()) - ldet_B
        quad = 0.0
        for l, k in enumerate(spec.n_categories):
            zc = z[l] - mu[l][None, None, :]
            for cat in range(k):
                v = zc[:, :, cat].ravel()
                node_sum = np.bincount(slot_nodes, weights=v, minlength=m)
                t = F.T @ node_sum
                w_ = solve_triangular(cK, t, lower=True)
                quad += float(v @ v) - float(w_ @ w_)
        return (
            -0.5 * quad
            - 0.5 * n_fields * logdet_c
            - 0.5 * n_fields * 2.0 * n_ind * math.log(2.0 * math.pi)
        )

    def marginal_loglik():
        total = 0.0
        for l in range(spec.n_loci):
            means = mu[l][None, :] + eta[l][s_of_ind, :]
            p = np.clip(category_probs(means), 1e-300, 1.0)
            obs = spec.alleles[l]
            for pl in range(2):
                total += float(np.log(p[np.arange(n_ind), obs[:, pl]]).sum())
        return total

    for it in range(iterations):
        if include_likelihood:
            # latent utilities: truncated-normal Gibbs keeping the observed
            # category's latent maximal in its block
            for l, k in enumerate(spec.n_categories):
                obs = spec.alleles[l]
                means = mu[l][None, :] + eta[l][s_of_ind, :]
                for p in range(2):
                    zb = z[l][:, p, :]
                    winner = obs[:, p]
                    rows = np.arange(n_ind)
                    for cat in range(k):
                        is_win = winner == cat
                        zc = zb.copy()
                        zc[:, cat] = -np.inf
                        runner_up = zc.max(axis=1)
                        mcat = means[:, cat]
                        new = np.empty(n_ind)
                        if is_win.any():
                            new[is_win] = truncated_normal(
                                rng, mcat[is_win], lower=runner_up[is_win]
                            )
                        if (~is_win).any():
                            cap = zb[~is_win, winner[~is_win]]
                            new[~is_win] = truncated_normal(
                                rng, mcat[~is_win], upper=cap
                            )
                        zb[:, cat] = new

        # allele intercepts: conjugate Gaussian, mu_l0 pinned at zero
        for l, k in enumerate(spec.n_categories):
            resid = z[l] - eta[l][s_of_ind][:, None, :]  # (n_ind, 2, k)
            for cat in range(1, k):
                prec = like * 2.0 * n_ind + 1.0 / pr.mu_lk_sd**2
                mean_c = like * float(resid[:, :, cat].sum()) / prec
                mu[l][cat] = mean_c + rng.standard_normal() / math.sqrt(prec)

        # rate coefficients: random-walk Metropolis on the collapsed model
        # (fields integrated out of the latent likelihood); the fields are
        # redrawn from their full conditional immediately after, so the
        # sweep is a valid partially collapsed Gibbs sampler.  Conditioning
        # on the fields instead would pin beta to the realized field
        # texture and freeze the chain.
        prop = beta + math.exp(log_scale) * rng.standard_normal(n_beta)
        logprior_cur = -0.5 * float(beta @ beta) / pr.rate_beta_sd**2
        logprior_prop = -0.5 * float(prop @ prop) / pr.rate_beta_sd**2
        try:
            P_prop, B_chol_prop, logdet_B_prop = _precision_bundle(spec, prop, F)
            if include_likelihood:
                ratio = (
                    collapsed_loglik(B_chol_prop, logdet_B_prop) + logprior_prop
                    - collapsed_loglik(B_chol, logdet_B) - logprior_cur
                )
            else:
                ratio = logprior_prop - logprior_cur
            accept = math.log(rng.random()) < ratio
        except (NumericalError, DataError):
            accept = False
            rejected += 1
        if accept:
            beta = prop
            P, B_chol, logdet_B = P_prop, B_chol_prop, logdet_B_prop
            acc += 1
        if it < burnin:
            gain = 1.0 / math.sqrt(it + 1.0)
            log_scale += gain * ((1.0 if accept else 0.0) - BETA_TARGET_ACC)

        # spatial fields: constrained Gaussian via conditioning by kriging.
        # A rank-one shift along 1 makes the precision invertible without
        # changing the conditional distribution on the sum-zero subspace.
        A = like * np.diag(node_counts) + P
        shift = max(float(np.trace(A)) / m, 1.0) / m
        A_eff = A + shift * np.ones((m, m))
        L = np.linalg.cholesky(A_eff)
        chol = (L, True)
        u = cho_solve(chol, np.ones(m))
        uu = float(u.sum())
        for l, k in enumerate(spec.n_categories):
            zsum = z[l] - mu[l][None, None, :]
            for cat in range(k):
                t = like * np.bincount(
                    np.repeat(s_of_ind, 2), weights=zsum[:, :, cat].ravel(), minlength=m
                )
                mean_e = cho_solve(chol, t)
                raw = mean_e + np.linalg.solve(L.T, rng.standard_normal(m))
                eta[l][:, cat] = raw - u * (raw.sum() / uu)

        if it >= burnin and (it - burnin) % thin == 0:
            row = list(beta)
            for l, k in enumerate(spec.n_categories):
                row += list(mu[l][1:])
            for l, k in enumerate(spec.n_categories):
                for cat in range(k):
                    row += list(eta[l][:, cat])
            draws[kept] = row
            if include_likelihood and kept % compute_loglik_every == 0:
                logliks[kept] = marginal_loglik()
            elif kept > 0:
                logliks[kept] = logliks[kept - 1]
            else:
                logliks[kept] = 0.0
            kept += 1

    meta = {
        "seed": seed,
        "iterations": iterations,
        "burnin": burnin,
        "thin": thin,
        "acceptance": {"beta": acc / iterations},
        "rejected_proposals": rejected,
        "include_likelihood": include_likelihood,
    }
    return PosteriorSamples(tuple(names), draws[:kept], logliks[:kept], meta)
