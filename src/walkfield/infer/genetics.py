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
forms Q'F densely for the sum-zero basis F, and factors the restricted
precision F'QQ'F and the collapsed precision F'QQ'F + F'G'GF.  The latter is
also the precision of each field's full conditional in the basis F, so the
field update draws from that factor and factors nothing.  A bundle that
cannot be formed raises ``NumericalError``, and the proposal is rejected and
counted.  The fields are the columns of one (M, sum K) block, so the node
scatter, the solves and the field noise (M - 1 normals per field) are one
call each per sweep.

The latent sweep is one vectorized truncated-normal update per category
index c over every (locus, ploidy) block, each reading what the last wrote.
Its uniforms are drawn in one call and handed out in the per-block order
(locus, ploidy, category, winners then losers), so seeded chains equal
those of per-field loops up to roundoff.  The exception is a latent
truncated ``_TAIL`` sd or more into its tail: it leaves its uniform unused
and takes Robert's exact tail sampler from the stream right after its
category's update, the same law through a different stream.

The per-draw log-likelihood of the alleles integrates the latents out by
Gauss-Hermite quadrature, P(k wins) = sum_q w_q prod_{a != k} Phi(t_q + m_k
- m_a).  Individuals at one node share their means, so one evaluation is
one ``category_probs`` call over the distinct observed (occupied node,
field) pairs of all loci, not a call per locus over every node and
category.  Each entry is summed over its own quadrature nodes, so its bits
do not depend on the other rows; the sums over individuals run per (locus,
ploidy) in individual order.  ``genetics_loglik_fn`` evaluates it for any
{name: value} draw, so ``compute_dic`` takes a genetics fit.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .._scipy import ndtr, ndtri, solve_triangular
from ..errors import DataError, NumericalError
from ..field import helmert
# stationary_precision, build_generator and edge_rates_loglinear are no
# longer called here; they stay importable under this module, where
# bench/spans.py wraps them with the other layer calls
from ..field import constrained_solve, stationary_precision  # noqa: F401
from ..graph import RateModel, check_irreducible
from ..graph import build_generator, edge_rates_loglinear  # noqa: F401
from .specs import GeneticsModelSpec, PosteriorSamples, chain_length

BETA_TARGET_ACC = 0.234
# sd of the simulated category means, mu_k ~ N(0, SIM_MU_SD^2) for k >= 1
SIM_MU_SD = 0.5
_TAIL = 6.0


def truncated_normal(rng, mean, lower=None, upper=None):
    """Vectorized N(mean, 1) draws truncated to (lower, upper) one side at a time.

    The latent sweep's rule, with the one bound taken with a sign as the
    sweep takes a loser's: one uniform per entry, in order, for the
    inverse-CDF draws, then Robert's exact tail sampler, in order, for the
    entries truncated ``_TAIL`` sd or more deep, whose uniforms go unused.
    The law is the same truncated normal as the inverse CDF alone would give.
    """
    mean = np.asarray(mean, dtype=float)
    if (lower is None) == (upper is None):
        raise ValueError("exactly one of lower/upper must be given")
    sign = 1.0 if upper is None else -1.0
    bound = lower if upper is None else upper
    a = sign * (np.asarray(bound, dtype=float) - mean).ravel()
    x = _beyond(rng, a, rng.random(a.size))
    x *= sign
    return mean + x.reshape(mean.shape)


def _beyond(rng, a, u):
    """N(0, 1) draws beyond each a: by inverse CDF from the uniforms u, which
    it overwrites, except where a >= ``_TAIL``, which take Robert's tail
    sampler from rng in index order."""
    lo = ndtr(a)
    # lo + (1 - lo) * U: the doubles rng.uniform(lo, 1.0) returns, without
    # its broadcasting
    u *= 1.0 - lo
    u += lo
    # clip away from 1.0: ndtri(1.0) is inf
    np.minimum(u, 1.0 - 1e-16, out=u)
    x = ndtri(u, out=u)
    for i in np.flatnonzero(a >= _TAIL):
        x[i] = _robert_tail(rng, a[i])
    return x


def _robert_tail(rng, a):
    # N(0, 1) beyond a, exact for every a >= 0: translated-exponential proposal
    # at the optimal rate (Robert 1995).  Callers: _beyond past _TAIL (so the
    # latent sweep and truncated_normal) and fit_gaussian's sigma draw,
    # gaussian._positive_normal
    lam = 0.5 * (a + math.sqrt(a * a + 4.0))
    while True:
        x = a + rng.exponential(1.0 / lam)
        if math.log(rng.random()) <= -0.5 * (x - lam) ** 2:
            return x


class _SweepGroup(NamedTuple):
    """The latents of one category index in every (locus, ploidy) block."""

    z: np.ndarray  # flat index of each latent into z (field, individual, ploidy)
    mean: np.ndarray  # flat index of its mean into the (individual, field) means
    bound: np.ndarray  # (rows, latents) flat indices into z; their max is the bound
    sign: np.ndarray  # +1 for a winner (bounded below), -1 for a loser (above)
    draw: np.ndarray  # position of its uniform in the per-block draw order


def _sweep_plan(alleles, n_categories):
    """The latent sweep as one ``_SweepGroup`` per category index, in order.

    The alleles are fixed, so every sweep touches the same entries.  A
    winner's bound is the max over its rivals, padded with repeats to
    max(K) - 1 rows where a locus has fewer; a loser's bound is its
    winner's latent, in every row.  ``draw`` numbers the latents in the
    per-block order: locus, ploidy, category, then the rows the category
    wins before the rows it loses.  Every block is one row of the same
    arrays, and each group takes the rows of its category index.
    """
    winners = np.stack(alleles).transpose(0, 2, 1)  # (locus, ploidy, individual)
    n_loci, _, n_ind = winners.shape
    k = np.array(n_categories)
    rows = int(k.max()) - 1
    # one block per (locus, ploidy, category), in that order
    k_block = np.repeat(k, 2)
    locus_ploidy = np.repeat(np.arange(2 * n_loci), k_block)
    cat = np.arange(locus_ploidy.size) - np.repeat(np.cumsum(k_block) - k_block, k_block)
    locus, p = np.divmod(locus_ploidy, 2)
    off = (np.cumsum(k) - k)[locus]
    winner = winners.reshape(2 * n_loci, n_ind)[locus_ploidy]
    # each block's winners, then its losers, in individual order
    ind = np.argsort(winner != cat[:, None], axis=1, kind="stable")
    winner = np.take_along_axis(winner, ind, axis=1)
    won = winner == cat[:, None]
    # each block's rival categories in increasing order, the last repeated
    j = np.minimum(np.arange(rows), k[locus][:, None] - 2)
    rival = j + (j >= cat[:, None])
    bound_cat = np.where(won[:, None, :], rival[:, :, None], winner[:, None, :])
    slot = 2 * ind + p[:, None]
    z = (off + cat)[:, None] * 2 * n_ind + slot
    mean = ind * int(k.sum()) + (off + cat)[:, None]
    bound = (off[:, None, None] + bound_cat) * 2 * n_ind + slot[:, None, :]
    sign = np.where(won, 1.0, -1.0)
    draw = np.arange(cat.size * n_ind).reshape(cat.size, n_ind)
    return [_SweepGroup(z[g].ravel(), mean[g].ravel(),
                        bound[g].transpose(1, 0, 2).reshape(rows, -1),
                        sign[g].ravel(), draw[g].ravel())
            for g in (cat == c for c in range(rows + 1))]


def _latent_sweep(rng, plan, z, means):
    """One truncated-normal Gibbs pass over every latent of the flat z, in place.

    Each group's latents are N(mean, 1) truncated to keep the observed
    category maximal in its block: a = s (bound - mean), z = mean + s x for
    x ~ N(0, 1) beyond a.  Latents with a >= ``_TAIL`` take Robert's tail
    sampler from the stream after their group's inverse-CDF draws, in draw
    order, and leave their uniforms unused.
    """
    uniforms = rng.random(z.size)
    for g in plan:
        mean = means[g.mean]
        a = z[g.bound].max(axis=0)
        a -= mean
        a *= g.sign
        x = _beyond(rng, a, uniforms[g.draw])
        x *= g.sign
        x += mean
        z[g.z] = x


@functools.cache
def _gauss_hermite():
    """Probabilists' 40-node Gauss-Hermite rule, weights scaled to an N(0, 1)
    expectation; formed at the first use, not at import, since it runs LAPACK."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(40)
    weights = weights / math.sqrt(2.0 * math.pi)
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every call
    return nodes, weights


def category_probs(means: np.ndarray, category=None) -> np.ndarray:
    """P(category k attains the max) for latents N(means_k, 1), per row.

    Gauss-Hermite quadrature over the winning latent:
    p_k = E_t[ prod_{a != k} Phi(t + m_k - m_a) ] with t ~ N(0, 1).  The
    Phi factors are multiplied in increasing a, and each row's 40 node
    values are summed against the weights on their own, so an entry's bits
    do not depend on the other rows of the call.  With ``category``, one
    index per row, only that category's probability is formed and the
    result has one value per row; a rival mean of -inf then contributes
    Phi(inf) = 1, which pads a row with fewer categories exactly.
    """
    means = np.atleast_2d(np.asarray(means, dtype=float))
    n, k = means.shape
    if category is None:
        rows, cats = np.divmod(np.arange(n * k), k)
    else:
        rows, cats = np.arange(n), np.asarray(category)
    # the k - 1 rivals of each row's category, in increasing order
    cols = np.arange(k - 1)
    rivals = cols + (cols >= cats[:, None])
    nodes, weights = _gauss_hermite()
    # t + m_k - m_a for every (row, rival, node)
    f = (means[rows, cats][:, None] - means[rows[:, None], rivals])[:, :, None] + nodes
    ndtr(f, out=f)
    p = (np.multiply.reduce(f, axis=1) * weights).sum(axis=-1)
    return p if category is not None else p.reshape(n, k)


class _AlleleLoglik:
    """Marginal log-likelihood of the observed alleles given (mu, eta).

    The latents are integrated out by ``category_probs``.  Individuals at
    one node share their means, so an evaluation is one call over the
    distinct observed (occupied node, field) pairs of every locus, a field
    being one category of one locus, and each allele reads its pair's
    probability.  Loci with fewer than max(K) categories pad their rivals
    with a mean of -inf.
    """

    def __init__(self, spec: GeneticsModelSpec):
        self.occupied, row_of_ind = np.unique(spec.node_of_individual, return_inverse=True)
        n_cats = np.array(spec.n_categories)
        n_fields = int(n_cats.sum())
        offsets = np.cumsum(n_cats) - n_cats
        # cols[l]: locus l's fields, padded with column n_fields, which holds -inf
        c = np.arange(n_cats.max())
        cols = np.where(c < n_cats[:, None], offsets[:, None] + c, n_fields)
        # the field of every allele, in (locus, ploidy, individual) order
        fields = offsets[:, None, None] + np.stack(spec.alleles).transpose(0, 2, 1)
        pairs, pair_of_allele = np.unique(row_of_ind * n_fields + fields, return_inverse=True)
        self.pair_of_allele = pair_of_allele.reshape(fields.shape)
        row, field = np.divmod(pairs, n_fields)
        locus = np.repeat(np.arange(n_cats.size), n_cats)[field]
        self.category = field - offsets[locus]
        # flat index of each pair's means into the padded (row, field + 1) block
        self.mean_index = row[:, None] * (n_fields + 1) + cols[locus]

    def __call__(self, mu, eta):
        """``mu``: the (sum K,) intercepts; ``eta``: the (node, sum K) fields."""
        means = mu[None, :] + eta[self.occupied, :]
        padded = np.concatenate([means, np.full((means.shape[0], 1), -np.inf)], axis=1)
        p = category_probs(padded.ravel()[self.mean_index], self.category)
        logp = np.log(np.clip(p, 1e-300, 1.0))
        total = 0.0
        # one sum over individuals per (locus, ploidy), added in that order
        for part in logp[self.pair_of_allele].sum(axis=-1).ravel().tolist():
            total += part
        return total


def genetics_loglik_fn(spec: GeneticsModelSpec):
    """Log-likelihood of the alleles conditional on every sampled parameter.

    Returns a callable over a {name: value} dict with the names of
    ``fit_probit_genetics``'s draws (mu_l0 is pinned at zero); used for the
    per-draw log-likelihood and DIC.
    """
    evaluate = _AlleleLoglik(spec)
    m = spec.graph.node_count
    cats = [(l, c) for l, k in enumerate(spec.n_categories) for c in range(k)]

    def loglik(params: dict) -> float:
        mu = np.array([params[f"mu_{l}_{c}"] if c else 0.0 for l, c in cats])
        eta = np.array([[params[f"eta_{l}_{c}_{s}"] for l, c in cats] for s in range(m)])
        return evaluate(mu, eta)

    return loglik


class _Bundle(NamedTuple):
    """What one beta determines for the collapsed likelihood and the fields."""

    cap_chol: np.ndarray  # lower Cholesky factor of F'PF + F'G'GF
    logdet_c: float  # log det(F'PF + F'G'GF) - log det(F'PF)


def _cholesky(a, what):
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} is not positive definite") from exc


def _precision_bundle(rate_model, beta_vec, F, K_slots):
    """Collapsed factor of the constrained field for a beta.

    With P = QQ', B = F'PF = (Q'F)'(Q'F) is the precision restricted to the
    sum-zero subspace.  With asymmetric rates P's null vector is not the
    constant vector, so the restriction — not the pseudo-determinant — is
    the right normalizing object.  ``K_slots`` = F'G'GF for the node-to-slot
    incidence G (zero in prior mode), so B + K_slots is also the precision
    of each field's full conditional in the basis F.
    """
    m = F.shape[0]
    rates = rate_model.rates(beta_vec)
    Q = np.zeros((m, m))
    Q[rate_model.src, rate_model.dst] = -rates
    np.fill_diagonal(Q, np.bincount(rate_model.src, weights=rates, minlength=m))
    C = Q.T @ F
    B = C.T @ C
    B_chol = _cholesky(B, "constrained field precision")
    logdet_B = 2.0 * float(np.log(np.diag(B_chol)).sum())
    cap_chol = _cholesky(B + K_slots, "collapsed covariance")
    logdet_c = 2.0 * float(np.log(np.diag(cap_chol)).sum()) - logdet_B
    return _Bundle(cap_chol, logdet_c)


def simulate_genetics(
    graph,
    beta_true,
    n_loci: int,
    n_categories: int,
    individuals_per_node: int,
    seed: int,
    extra_rate_names=(),
) -> tuple:
    """Forward-simulate allele data from the model; returns (spec, truth dict).

    Each locus draws its category means mu_k ~ N(0, SIM_MU_SD^2), k >= 1,
    with mu_0 = 0, its field noise and its latent noise; one
    ``constrained_solve`` then turns every locus's field noise into fields.
    ``DataError`` unless n_loci >= 1, n_categories >= 2 and
    individuals_per_node >= 1.
    """
    for name, value, least in (("n_loci", n_loci, 1), ("n_categories", n_categories, 2),
                               ("individuals_per_node", individuals_per_node, 1)):
        if value < least:
            raise DataError(f"{name} must be at least {least}, got {value}")
    rng = np.random.default_rng(seed)
    m = graph.node_count
    Q = RateModel(graph, extra_rate_names).generator(tuple(beta_true))

    node_of_ind = np.repeat(np.arange(m), individuals_per_node)
    mus, gammas, noises = [], [], []
    for _ in range(n_loci):
        mus.append(np.concatenate([[0.0], rng.normal(0.0, SIM_MU_SD, n_categories - 1)]))
        gammas.append(rng.standard_normal((n_categories, m)))
        noises.append(rng.standard_normal((node_of_ind.size, 2, n_categories)))
    # one sum-zero prior field per (locus, category) column
    etas = np.split(constrained_solve(Q, np.vstack(gammas).T), n_loci, axis=1)
    alleles = [
        (mu[None, None, :] + eta[node_of_ind][:, None, :] + noise).argmax(axis=2)
        for mu, eta, noise in zip(mus, etas, noises)
    ]
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
    over category-max probabilities, once per distinct observed (occupied
    node, field) pair (used for diagnostics, not for any update;
    ``genetics_loglik_fn`` is the same evaluation over a named draw).  It
    is evaluated at every
    ``compute_loglik_every``-th kept draw; the rows between carry the last
    evaluated value forward.  ``include_likelihood=False`` freezes the
    latents out of every update, reducing each step to its prior (Gibbs
    audit mode), and leaves every log-likelihood at 0.  The metadata record
    the beta acceptance rate, the proposals rejected on a
    ``NumericalError``, the final beta step, ``beta_step``, which stops
    adapting at the end of burn-in, and ``compute_loglik_every``.
    """
    n_keep = chain_length(iterations, burnin, thin, compute_loglik_every)
    pr = spec.priors
    m = spec.graph.node_count
    s_of_ind = spec.node_of_individual
    n_ind = spec.n_individuals
    n_beta = 3 + len(spec.extra_rate_names)
    rng = np.random.default_rng(seed)
    like = 1.0 if include_likelihood else 0.0

    rate_model = RateModel(spec.graph, spec.extra_rate_names)
    beta = np.zeros(n_beta)
    if not check_irreducible(rate_model.generator(beta)):
        raise DataError("graph must be irreducible under the rate model")

    F = helmert(m).T  # orthonormal basis of the sum-zero subspace
    # per-node slot counts (2 ploidy slots per individual)
    node_counts = np.bincount(s_of_ind, minlength=m) * 2.0
    K_slots = like * ((F * node_counts[:, None]).T @ F)  # F' G'G F, beta-independent
    bundle = _precision_bundle(rate_model, beta, F, K_slots)

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

    n_slots = 2 * n_ind
    sweep_plan = _sweep_plan(spec.alleles, n_cats)
    # one bincount scatters every field's slots to its own block of nodes
    slot_nodes = np.repeat(s_of_ind, 2)
    field_bins = (slot_nodes[None, :] + m * np.arange(n_fields)[:, None]).ravel()

    names = [f"beta_{j}" for j in range(n_beta)]
    for l, k in enumerate(n_cats):
        names += [f"mu_{l}_{kk}" for kk in range(1, k)]
    for l, k in enumerate(n_cats):
        names += [f"eta_{l}_{kk}_{s}" for kk in range(k) for s in range(m)]

    draws = np.empty((n_keep, len(names)))
    logliks = np.empty(n_keep)
    kept = 0
    acc = 0
    rejected = 0  # beta proposals refused on a NumericalError
    log_scale = math.log(0.1)
    mu_prec = like * 2.0 * n_ind + 1.0 / pr.mu_lk_sd**2
    loglik_const = 0.5 * n_fields * 2.0 * n_ind * math.log(2.0 * math.pi)
    allele_loglik = _AlleleLoglik(spec)

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

    z_flat = z.reshape(-1)
    for it in range(iterations):
        if include_likelihood:
            # latent utilities: truncated-normal Gibbs keeping the observed
            # category's latent maximal in its block
            means = (mu[None, :] + eta[s_of_ind, :]).ravel()
            _latent_sweep(rng, sweep_plan, z_flat, means)

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
            bundle_prop = _precision_bundle(rate_model, prop, F, K_slots)
            if include_likelihood:
                ratio = (
                    collapsed_loglik(bundle_prop, Ft, vv) + logprior_prop
                    - collapsed_loglik(bundle, Ft, vv) - logprior_cur
                )
            else:
                ratio = logprior_prop - logprior_cur
            accept = math.log(rng.random()) < ratio
        except NumericalError:
            accept = False
            rejected += 1
        if accept:
            beta = prop
            bundle = bundle_prop
            acc += 1
        if it < burnin:
            gain = 1.0 / math.sqrt(it + 1.0)
            log_scale += gain * ((1.0 if accept else 0.0) - BETA_TARGET_ACC)

        # spatial fields: eta = F w with w ~ N(A^-1 Ft, A^-1) for the
        # collapsed precision A = F'PF + F'G'GF, every field in one solve
        # against the current beta's factor
        w = rng.standard_normal((n_fields, m - 1)).T
        if include_likelihood:
            w += solve_triangular(bundle.cap_chol, Ft, lower=True, check_finite=False)
        w = solve_triangular(bundle.cap_chol, w, lower=True, trans="T", check_finite=False)
        eta = F @ w

        if it >= burnin and (it - burnin) % thin == 0:
            draws[kept, :n_beta] = beta
            draws[kept, n_beta:n_beta + free_mu.size] = mu[free_mu]
            draws[kept, n_beta + free_mu.size:] = eta.T.ravel()
            if include_likelihood and kept % compute_loglik_every == 0:
                logliks[kept] = allele_loglik(mu, eta)
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
        "compute_loglik_every": compute_loglik_every,
    }
    return PosteriorSamples(tuple(names), draws[:kept], logliks[:kept], meta)
