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

Everything one beta determines is formed once.  ``_precision_bundle`` runs
once per beta proposal: it evaluates the rates of a compiled ``RateModel``,
forms P = QQ' densely with the summation order of the sparse product, and
factors the collapsed model.  The field full conditional is factored once,
when the chain moves to a beta; the field update itself factors nothing.
A bundle or factor that cannot be formed raises ``NumericalError``, and
the proposal is rejected and counted.  The fields are the columns of one
(M, sum K) block, so the node scatter, the solves and the field noise are
one call each per sweep.  The random stream is consumed in the same order
as by per-field loops, so seeded chains equal those of the per-field
sampler up to roundoff.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_solve, helmert, solve_triangular
from scipy.special import log_ndtr, ndtr, ndtri

from ..errors import DataError, NumericalError
# stationary_precision is no longer called here; it stays importable under
# this module, where bench/spans.py wraps it with the other layer calls
from ..field import constrained_solve, stationary_precision  # noqa: F401
from ..graph import RateModel, RateParams, build_generator, check_irreducible, edge_rates_loglinear
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
        a = _gap(lower, mean)
        return mean + _std_lower_trunc(rng, a.ravel()).reshape(mean.shape)
    b = _gap(upper, mean)
    return mean - _std_lower_trunc(rng, (-b).ravel()).reshape(mean.shape)


def _gap(bound, mean):
    d = np.asarray(bound, dtype=float) - mean
    return d if d.shape == mean.shape else np.broadcast_to(d, mean.shape)


def _std_lower_trunc(rng, a):
    """Standard normal conditioned on exceeding a (vector), seedable and exact.

    The central entries take one uniform each, in order, then the tail
    entries run Robert's sampler in order.
    """
    if np.maximum.reduce(a, initial=-np.inf) < _TAIL:
        return _central_trunc(rng, a)
    central = a < _TAIL
    out = np.empty_like(a)
    out[central] = _central_trunc(rng, a[central])
    for i in np.flatnonzero(~central):
        out[i] = _robert_tail(rng, a[i])
    return out


def _central_trunc(rng, a):
    lo = ndtr(a)
    # lo + (1 - lo) * U: the doubles rng.uniform(lo, 1.0) returns, without
    # its broadcasting
    u = rng.random(a.size)
    u *= 1.0 - lo
    u += lo
    # clip away from 1.0: ndtri(1.0) is inf
    np.minimum(u, 1.0 - 1e-16, out=u)
    return ndtri(u, out=u)


def _robert_tail(rng, a):
    # translated-exponential proposal with the optimal rate
    lam = 0.5 * (a + math.sqrt(a * a + 4.0))
    while True:
        x = a + rng.exponential(1.0 / lam)
        if math.log(rng.random()) <= -0.5 * (x - lam) ** 2:
            return x


@functools.cache
def _gauss_hermite():
    """Probabilists' 40-node Gauss-Hermite rule, weights scaled to an N(0, 1)
    expectation; formed at the first use, not at import, since it runs LAPACK."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(40)
    weights = weights / math.sqrt(2.0 * math.pi)
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every call
    return nodes, weights


def category_probs(means: np.ndarray) -> np.ndarray:
    """P(category k attains the max) for latents N(means_k, 1), per row.

    Gauss-Hermite quadrature over the winning latent:
    p_k = E_t[ prod_{a != k} Phi(t + m_k - m_a) ] with t ~ N(0, 1).
    """
    means = np.atleast_2d(np.asarray(means, dtype=float))
    k = means.shape[1]
    # others[c] lists the categories a != c in increasing order
    cols = np.arange(k - 1)
    others = cols + (cols >= np.arange(k)[:, None])
    # t + m_k - m_a for every (row, k, a != k, node)
    nodes, weights = _gauss_hermite()
    diff = (means[:, :, None] - means[:, others])[..., None] + nodes
    inner = np.exp(log_ndtr(diff).sum(axis=2))  # (n, k, n_quad)
    return inner @ weights


def _sum_zero_basis(m):
    """Orthonormal basis of the sum-zero subspace as an (m, m-1) matrix."""
    return helmert(m).T


class _Bundle(NamedTuple):
    """What one beta determines for the collapsed likelihood."""

    P: np.ndarray  # QQ'
    cap_chol: np.ndarray  # lower Cholesky factor of F'PF + F'G'GF
    logdet_c: float  # log det(F'PF + F'G'GF) - log det(F'PF)


class _FieldFactor(NamedTuple):
    """The field full conditional's precision A = G'G + P, shifted along 1."""

    chol: np.ndarray  # lower Cholesky factor of A + shift 11'
    u: np.ndarray  # (A + shift 11')^-1 1
    uu: float  # 1'u


def _cholesky(a, what):
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} is not positive definite") from exc


class _PrecisionPattern:
    """P = QQ' for a compiled rate model, dense, bitwise as the sparse product.

    Q's nonzeros are fixed by the graph, so the terms Q_ij Q_kj of every
    P_ik are listed once.  Each P_ik is then summed from zero over j in
    increasing order, and each exit rate Q_ii over the row's edges in
    column order: the arithmetic of ``stationary_precision`` on the sparse
    generator.  Whether a nearly singular F'PF factors therefore does not
    depend on which of the two forms it.
    """

    def __init__(self, rate_model, m):
        self.rate_model = rate_model
        self.m = m
        src, dst = rate_model.src, rate_model.dst
        self.order = np.lexsort((dst, src))  # edges by row, then column
        self.src_sorted = src[self.order]
        self.exits = np.unique(src)  # nodes whose diagonal entry is stored
        # nonzeros of Q: first the edges in self.order, then the diagonal
        rows = np.concatenate([self.src_sorted, self.exits])
        cols = np.concatenate([dst[self.order], self.exits])
        by_row = np.lexsort((cols, rows))
        in_col = [[] for _ in range(m)]
        for e in range(rows.size):
            in_col[cols[e]].append(e)
        out, a, b = [], [], []
        for e in by_row:
            for f in in_col[cols[e]]:
                out.append(rows[e] * m + rows[f])
                a.append(e)
                b.append(f)
        self.out = np.array(out, dtype=np.intp)
        self.a = np.array(a, dtype=np.intp)
        self.b = np.array(b, dtype=np.intp)

    def __call__(self, beta):
        m = self.m
        rates = self.rate_model.rates(beta)[self.order]
        diag = np.bincount(self.src_sorted, weights=rates, minlength=m)
        q = np.concatenate([-rates, diag[self.exits]])
        P = np.bincount(self.out, weights=q[self.a] * q[self.b], minlength=m * m)
        P = P.reshape(m, m)
        return (P + P.T) * 0.5


def _precision_bundle(precision, beta_vec, F, K_slots):
    """Precision of the constrained field, and the collapsed factor, for a beta.

    P = QQ' and B = F'PF is the precision restricted to the sum-zero
    subspace.  With asymmetric rates P's null vector is not the constant
    vector, so the restriction — not the pseudo-determinant — is the right
    normalizing object.  ``K_slots`` = F'G'GF for the node-to-slot
    incidence G (zero in prior mode).
    """
    P = precision(beta_vec)
    B = F.T @ P @ F
    B = (B + B.T) / 2.0
    B_chol = _cholesky(B, "constrained field precision")
    logdet_B = 2.0 * float(np.log(np.diag(B_chol)).sum())
    cap_chol = _cholesky(B + K_slots, "collapsed covariance")
    logdet_c = 2.0 * float(np.log(np.diag(cap_chol)).sum()) - logdet_B
    return _Bundle(P, cap_chol, logdet_c)


def _field_factor(P, slot_counts):
    """Factor of the field full conditional for precision P and slot counts G'G.

    A rank-one shift along 1 makes the precision invertible without
    changing the conditional distribution on the sum-zero subspace.
    """
    m = P.shape[0]
    A = np.diag(slot_counts) + P
    shift = max(float(np.trace(A)) / m, 1.0) / m
    L = _cholesky(A + shift, "field full-conditional precision")
    u = cho_solve((L, True), np.ones(m))
    return _FieldFactor(L, u, float(u.sum()))


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
    update, reducing each step to its prior (Gibbs audit mode).  The
    metadata record the beta acceptance rate, the proposals rejected on a
    ``NumericalError`` and the final beta step, ``beta_step``, which stops
    adapting at the end of burn-in.
    """
    pr = spec.priors
    m = spec.graph.node_count
    s_of_ind = spec.node_of_individual
    n_ind = spec.n_individuals
    n_beta = 3 + len(spec.extra_rate_names)
    rng = np.random.default_rng(seed)
    like = 1.0 if include_likelihood else 0.0

    precision = _PrecisionPattern(RateModel(spec.graph, spec.extra_rate_names), m)
    beta = np.zeros(n_beta)
    rates0 = edge_rates_loglinear(spec.graph, RateParams(tuple(beta), spec.extra_rate_names))
    Q0 = build_generator(spec.graph, rates0)
    if not check_irreducible(Q0):
        raise DataError("graph must be irreducible under the rate model")

    F = _sum_zero_basis(m)
    # per-node slot counts (2 ploidy slots per individual)
    node_counts = np.bincount(s_of_ind, minlength=m) * 2.0
    slot_counts = like * node_counts
    K_slots = like * ((F * node_counts[:, None]).T @ F)  # F' G'G F, beta-independent
    bundle = _precision_bundle(precision, beta, F, K_slots)
    field = _field_factor(bundle.P, slot_counts)

    # the sum(K) fields in (locus, category) order: latents z as one
    # (field, individual, ploidy) array, fields eta as the columns of one
    # (node, field) block, intercepts mu as one vector
    n_cats = spec.n_categories
    n_fields = int(sum(n_cats))
    offsets = np.concatenate([[0], np.cumsum(n_cats)[:-1]]).astype(int)
    z = np.empty((n_fields, n_ind, 2))
    for l, k in enumerate(n_cats):
        zl = rng.standard_normal((n_ind, 2, k))
        # start latents consistent with the observed argmax constraint
        obs = spec.alleles[l]
        for p in range(2):
            rows = np.arange(n_ind)
            zmax = zl[:, p, :].max(axis=1)
            zl[rows, p, obs[:, p]] = zmax + 0.5
        z[offsets[l]:offsets[l] + k] = zl.transpose(2, 0, 1)
    mu = np.zeros(n_fields)
    eta = np.zeros((m, n_fields))
    free_mu = np.concatenate([off + np.arange(1, k) for off, k in zip(offsets, n_cats)])

    # The alleles are fixed, so each (locus, ploidy, category) update of the
    # latent sweep touches the same entries every sweep: flat indices into z
    # and into the (individual, field) means, for the rows the category wins
    # and the rows it loses.
    n_slots = 2 * n_ind
    sweep_plan = []
    for l, k in enumerate(n_cats):
        off = offsets[l]
        for p in range(2):
            winner = spec.alleles[l][:, p]
            for cat in range(k):
                win = np.flatnonzero(winner == cat)
                lose = np.flatnonzero(winner != cat)
                others = off + np.array([c for c in range(k) if c != cat])
                sweep_plan.append((
                    (off + cat) * n_slots + 2 * win + p,
                    win * n_fields + off + cat,
                    others[:, None] * n_slots + 2 * win + p,
                    (off + cat) * n_slots + 2 * lose + p,
                    lose * n_fields + off + cat,
                    (off + winner[lose]) * n_slots + 2 * lose + p,
                ))
    # one bincount scatters every field's slots to its own block of nodes
    slot_nodes = np.repeat(s_of_ind, 2)
    field_bins = (slot_nodes[None, :] + m * np.arange(n_fields)[:, None]).ravel()

    names = [f"beta_{j}" for j in range(n_beta)]
    for l, k in enumerate(n_cats):
        names += [f"mu_{l}_{kk}" for kk in range(1, k)]
    for l, k in enumerate(n_cats):
        names += [f"eta_{l}_{kk}_{s}" for kk in range(k) for s in range(m)]

    n_keep = (iterations - burnin + thin - 1) // thin
    draws = np.empty((n_keep, len(names)))
    logliks = np.empty(n_keep)
    kept = 0
    acc = 0
    rejected = 0  # beta proposals refused on a NumericalError
    log_scale = math.log(0.1)
    mu_prec = like * 2.0 * n_ind + 1.0 / pr.mu_lk_sd**2
    loglik_const = 0.5 * n_fields * 2.0 * n_ind * math.log(2.0 * math.pi)

    def collapsed_loglik(b, Ft, vv):
        """Log p(z | mu, beta) with every spatial field integrated out.

        Per field the latents are N(mu, G Sigma G' + I) for the
        node-to-slot incidence G and Sigma the sum-zero-constrained inverse
        of QQ'; Woodbury in the (M-1)-dim constraint basis keeps this cheap.
        ``Ft`` holds F'G'(z - mu) for every field and ``vv`` the summed
        squares of z - mu.
        """
        w = solve_triangular(b.cap_chol, Ft, lower=True, check_finite=False)
        quad = vv - float(np.einsum("ij,ij->", w, w))
        return -0.5 * quad - 0.5 * n_fields * b.logdet_c - loglik_const

    def marginal_loglik():
        means = mu[None, :] + eta[s_of_ind, :]
        total = 0.0
        rows = np.arange(n_ind)
        for l, k in enumerate(n_cats):
            p = np.clip(category_probs(means[:, offsets[l]:offsets[l] + k]), 1e-300, 1.0)
            obs = spec.alleles[l]
            for pl in range(2):
                total += float(np.log(p[rows, obs[:, pl]]).sum())
        return total

    z_flat = z.reshape(-1)
    for it in range(iterations):
        if include_likelihood:
            # latent utilities: truncated-normal Gibbs keeping the observed
            # category's latent maximal in its block, winners then losers
            means = (mu[None, :] + eta[s_of_ind, :]).ravel()
            for win_z, win_m, win_rival, lose_z, lose_m, lose_cap in sweep_plan:
                if win_z.size:
                    z_flat[win_z] = truncated_normal(
                        rng, means[win_m], lower=z_flat[win_rival].max(axis=0)
                    )
                if lose_z.size:
                    z_flat[lose_z] = truncated_normal(rng, means[lose_m], upper=z_flat[lose_cap])

        # allele intercepts: conjugate Gaussian, mu_l0 pinned at zero
        noise = rng.standard_normal(free_mu.size)
        if include_likelihood:
            resid = z[free_mu] - eta.T[free_mu][:, s_of_ind, None]
            mean_mu = resid.reshape(free_mu.size, n_slots).sum(axis=1) / mu_prec
            mu[free_mu] = mean_mu + noise / math.sqrt(mu_prec)
            zc = (z - mu[:, None, None]).reshape(n_fields, n_slots)
            node_sums = np.bincount(
                field_bins, weights=zc.ravel(), minlength=n_fields * m
            ).reshape(n_fields, m).T
            Ft = F.T @ node_sums
            vv = float(np.einsum("ij,ij->", zc, zc))
        else:
            mu[free_mu] = noise / math.sqrt(mu_prec)

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
            bundle_prop = _precision_bundle(precision, prop, F, K_slots)
            if include_likelihood:
                ratio = (
                    collapsed_loglik(bundle_prop, Ft, vv) + logprior_prop
                    - collapsed_loglik(bundle, Ft, vv) - logprior_cur
                )
            else:
                ratio = logprior_prop - logprior_cur
            accept = math.log(rng.random()) < ratio
            if accept:
                # factored only for a beta the chain moves to, after its
                # uniform is drawn, so a failure here rejects the move
                # without shifting the random stream
                field_prop = _field_factor(bundle_prop.P, slot_counts)
        except NumericalError:
            accept = False
            rejected += 1
        if accept:
            beta = prop
            bundle, field = bundle_prop, field_prop
            acc += 1
        if it < burnin:
            gain = 1.0 / math.sqrt(it + 1.0)
            log_scale += gain * ((1.0 if accept else 0.0) - BETA_TARGET_ACC)

        # spatial fields: constrained Gaussian via conditioning by kriging,
        # every field in one solve against the current beta's field factor
        noise = rng.standard_normal((n_fields, m))
        raw = solve_triangular(field.chol, noise.T, lower=True, trans="T", check_finite=False)
        if include_likelihood:
            raw += cho_solve((field.chol, True), node_sums, check_finite=False)
        eta = raw - field.u[:, None] * (raw.sum(axis=0) / field.uu)

        if it >= burnin and (it - burnin) % thin == 0:
            draws[kept, :n_beta] = beta
            draws[kept, n_beta:n_beta + free_mu.size] = mu[free_mu]
            draws[kept, n_beta + free_mu.size:] = eta.T.ravel()
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
        "beta_step": math.exp(log_scale),
        "include_likelihood": include_likelihood,
    }
    return PosteriorSamples(tuple(names), draws[:kept], logliks[:kept], meta)
