"""Probit-genetics components: truncated normals, category probabilities, sampler."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import helmert, solve_triangular
from scipy.special import log_ndtr, ndtr, ndtri

from walkfield.datasets import stream_network
from walkfield.errors import DataError, NumericalError
from walkfield.field import constrained_solve
from walkfield.graph import (
    Edge,
    EdgeCovariates,
    RateParams,
    SpatialGraph,
    build_generator,
    edge_rates_loglinear,
)
from walkfield.infer import compute_dic, genetics
from walkfield.infer.genetics import (
    category_probs,
    fit_probit_genetics,
    genetics_loglik_fn,
    simulate_genetics,
    truncated_normal,
)
from walkfield.infer.specs import GeneticsModelSpec, PosteriorSamples, PriorSpec


class TestTruncatedNormal:
    def test_moments_match_scipy_central(self):
        rng = np.random.default_rng(0)
        mean = np.zeros(200000)
        draws = truncated_normal(rng, mean, lower=np.full(mean.size, 0.5))
        ref = stats.truncnorm(0.5, np.inf)
        assert draws.mean() == pytest.approx(ref.mean(), abs=0.01)
        assert draws.std() == pytest.approx(ref.std(), abs=0.01)

    def test_upper_truncation_is_mirror(self):
        rng = np.random.default_rng(1)
        mean = np.zeros(100000)
        lo = truncated_normal(rng, mean, lower=np.full(mean.size, 1.0))
        hi = truncated_normal(rng, mean, upper=np.full(mean.size, -1.0))
        assert lo.mean() == pytest.approx(-hi.mean(), abs=0.02)

    def test_deep_tail_finite_and_beyond_bound(self):
        rng = np.random.default_rng(2)
        mean = np.zeros(20000)
        bound = np.full(mean.size, 8.0)  # past the inverse-CDF regime
        draws = truncated_normal(rng, mean, lower=bound)
        assert np.isfinite(draws).all()
        assert (draws >= 8.0).all()
        # conditional tail mean: b + 1/b asymptotically
        assert draws.mean() == pytest.approx(8.0 + 1.0 / 8.0, abs=0.01)

    def test_respects_bound_elementwise(self):
        rng = np.random.default_rng(3)
        mean = rng.normal(size=1000)
        lower = mean + rng.uniform(-2, 4, size=1000)
        draws = truncated_normal(rng, mean, lower=lower)
        assert (draws >= lower).all()

    def test_requires_exactly_one_bound(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            truncated_normal(rng, np.zeros(3))


class TestCategoryProbs:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        p = category_probs(rng.normal(size=(50, 4)))
        np.testing.assert_allclose(p.sum(axis=1), np.ones(50), atol=1e-10)

    def test_two_category_analytic_value(self):
        # K=2 with means (0, delta): P(cat 2 wins) = Phi(delta / sqrt 2)
        for delta in (-1.5, 0.0, 0.7, 2.0):
            p = category_probs(np.array([[0.0, delta]]))
            assert p[0, 1] == pytest.approx(stats.norm.cdf(delta / np.sqrt(2)),
                                            abs=1e-8)

    def test_symmetric_means_equal_probs(self):
        p = category_probs(np.array([[0.3, 0.3, 0.3]]))
        np.testing.assert_allclose(p[0], np.full(3, 1 / 3), atol=1e-10)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(6)
        means = np.array([[0.5, -0.2, 1.1]])
        lat = means[0] + rng.standard_normal((400000, 3))
        emp = np.bincount(lat.argmax(axis=1), minlength=3) / 400000
        np.testing.assert_allclose(category_probs(means)[0], emp, atol=0.005)


class TestSpecValidation:
    def test_rejects_single_category_locus(self):
        g = stream_network()
        n = g.node_count
        with pytest.raises(DataError):
            GeneticsModelSpec(
                graph=g,
                node_of_individual=np.zeros(4, dtype=int),
                alleles=(np.zeros((4, 2), dtype=int),),
                n_categories=(1,),
            )

    def test_rejects_out_of_range_category(self):
        g = stream_network()
        y = np.zeros((4, 2), dtype=int)
        y[0, 0] = 5
        with pytest.raises(DataError):
            GeneticsModelSpec(
                graph=g,
                node_of_individual=np.zeros(4, dtype=int),
                alleles=(y,),
                n_categories=(3,),
            )

    @pytest.mark.parametrize("key", ["rate_beta_sd", "mu_lk_sd"])
    def test_prior_rejects_infinite_sd(self, key):
        with pytest.raises(DataError, match=key):
            PriorSpec(**{key: math.inf})

    def test_rejects_zero_loci(self):
        with pytest.raises(DataError, match="at least one locus"):
            GeneticsModelSpec(graph=stream_network(), node_of_individual=np.zeros(4, dtype=int),
                              alleles=(), n_categories=())

    @pytest.mark.parametrize("sizes, name", [
        ((0, 3, 2), "n_loci"),
        ((2, 1, 2), "n_categories"),
        ((2, 3, 0), "individuals_per_node"),
        ((2, 3, -1), "individuals_per_node"),
    ])
    def test_simulation_rejects_bad_sizes(self, sizes, name):
        with pytest.raises(DataError, match=name):
            simulate_genetics(stream_network(), (0.0, 1.0, -1.0), *sizes, seed=0)

    def test_rejects_bad_node_index(self):
        g = stream_network()
        with pytest.raises(DataError):
            GeneticsModelSpec(
                graph=g,
                node_of_individual=np.array([0, g.node_count]),
                alleles=(np.zeros((2, 2), dtype=int),),
                n_categories=(2,),
            )


def _one_way_into_a_pair():
    # node 0 reaches the pair {1, 2} and nothing returns: Q is reducible
    edges = tuple(Edge(i, j, EdgeCovariates(1.0)) for i, j in [(0, 1), (1, 2), (2, 1)])
    return SpatialGraph(3, ("a", "b", "c"), edges)


def _genetics_spec(graph=None, nodes=(0, 1), alleles=None, n_categories=(2,)):
    graph = stream_network() if graph is None else graph
    alleles = (np.zeros((len(nodes), 2), dtype=int),) if alleles is None else alleles
    return GeneticsModelSpec(graph=graph, node_of_individual=np.array(nodes, dtype=int),
                             alleles=alleles, n_categories=n_categories)


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda: fit_probit_genetics(_genetics_spec(_one_way_into_a_pair()), 10, 2, 0),
                 "irreducible under the rate model", id="reducible-graph"),
    pytest.param(lambda: _genetics_spec(nodes=(), alleles=(np.zeros((0, 2), dtype=int),)),
                 "nonempty vector", id="no-individuals"),
    pytest.param(lambda: _genetics_spec(n_categories=(2, 3)),
                 "align per locus", id="misaligned-loci"),
    pytest.param(lambda: _genetics_spec(alleles=(np.zeros((2, 3), dtype=int),)),
                 r"allele array must be \(n_individuals, 2\)", id="three-alleles"),
    pytest.param(lambda: _genetics_spec(alleles=(np.zeros((3, 2), dtype=int),)),
                 r"allele array must be \(n_individuals, 2\)", id="extra-individual"),
    pytest.param(lambda: PosteriorSamples(("a", "b"), np.zeros((3, 2)), np.zeros(2), {}),
                 "log-likelihood length", id="short-loglik"),
])
def test_rejects_bad_inputs(build, match):
    with pytest.raises(DataError, match=match):
        build()


@pytest.fixture(scope="module")
def small_sim():
    g = stream_network(n_mainstem=6, n_branch=4, confluence=3,
                       barrier_edges=((1, 2),))
    return simulate_genetics(g, beta_true=(0.0, 0.8, -0.8), n_loci=3,
                             n_categories=3, individuals_per_node=4, seed=9)


class TestSampler:
    def test_simulation_shapes(self, small_sim):
        spec, truth = small_sim
        assert spec.n_individuals == 10 * 4
        assert spec.n_loci == 3
        assert all(a.shape == (40, 2) for a in spec.alleles)

    @pytest.mark.parametrize("beta", [(0.0, 1.0, -1.0), (0.3, 2.0, 0.5), (0.0, -0.5, 0.0)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_simulation_is_the_per_locus_solve(self, beta, seed):
        # one solve of every locus's noise columns gives, bit for bit, the
        # fields and alleles of a solve per locus on the same draws
        g = stream_network()
        n_loci, k, per_node = 4, 3, 2
        spec, truth = simulate_genetics(g, beta, n_loci, k, per_node, seed)
        Q = build_generator(g, edge_rates_loglinear(g, RateParams(beta)))
        rng = np.random.default_rng(seed)
        node_of_ind = np.repeat(np.arange(g.node_count), per_node)
        for l in range(n_loci):
            mu = np.concatenate([[0.0], rng.normal(0.0, genetics.SIM_MU_SD, k - 1)])
            eta = constrained_solve(Q, rng.standard_normal((k, g.node_count)).T)
            noise = rng.standard_normal((node_of_ind.size, 2, k))
            assert np.array_equal(truth["mu"][l], mu)
            assert np.array_equal(truth["eta"][l], eta)
            lat = mu[None, None, :] + eta[node_of_ind][:, None, :] + noise
            assert np.array_equal(spec.alleles[l], lat.argmax(axis=2))

    def test_determinism(self, small_sim):
        spec, _ = small_sim
        a = fit_probit_genetics(spec, iterations=80, burnin=30, seed=2)
        b = fit_probit_genetics(spec, iterations=80, burnin=30, seed=2)
        np.testing.assert_array_equal(a.draws, b.draws)

    def test_mu_first_category_pinned_at_zero(self, small_sim):
        # mu_l0 is fixed, so it is simply absent from the draw columns
        spec, _ = small_sim
        s = fit_probit_genetics(spec, iterations=80, burnin=30, seed=2)
        assert "mu_0_0" not in s.names
        assert "mu_0_1" in s.names

    def test_eta_fields_sum_to_zero(self, small_sim):
        spec, _ = small_sim
        s = fit_probit_genetics(spec, iterations=80, burnin=40, seed=3)
        m = spec.graph.node_count
        cols = [s.names.index(f"eta_0_0_{j}") for j in range(m)]
        np.testing.assert_allclose(s.draws[:, cols].sum(axis=1),
                                   np.zeros(s.n_draws), atol=1e-8)

    def test_rejected_proposals_are_counted(self, small_sim, monkeypatch):
        # the first call builds the starting precision; every later call
        # forms one beta proposal's precision
        spec, _ = small_sim
        assert fit_probit_genetics(spec, iterations=30, burnin=10,
                                   seed=2).metadata["rejected_proposals"] == 0
        real = genetics._precision_bundle
        calls = []

        def failing(*args):
            calls.append(None)
            if len(calls) % 3 == 0:
                raise NumericalError("injected")
            return real(*args)

        monkeypatch.setattr(genetics, "_precision_bundle", failing)
        s = fit_probit_genetics(spec, iterations=30, burnin=10, seed=2)
        assert len(calls) == 31
        assert s.metadata["rejected_proposals"] == 10

    def test_prior_audit_beta_and_mu(self, small_sim):
        # likelihood disabled: beta must sample N(0, rate_beta_sd^2),
        # mu_lk its N(0, mu_lk_sd^2) prior
        spec, _ = small_sim
        priors = PriorSpec(rate_beta_sd=2.0, mu_lk_sd=1.5)
        audit_spec = GeneticsModelSpec(
            graph=spec.graph,
            node_of_individual=spec.node_of_individual,
            alleles=spec.alleles,
            n_categories=spec.n_categories,
            priors=priors,
        )
        s = fit_probit_genetics(audit_spec, iterations=12000, burnin=2000,
                                seed=5, include_likelihood=False)
        for j in range(3):
            col = s.column(f"beta_{j}")
            assert abs(col.mean()) < 0.3
            assert col.std() == pytest.approx(2.0, rel=0.15)
        mu_col = s.column("mu_0_1")
        assert abs(mu_col.mean()) < 0.1
        assert mu_col.std() == pytest.approx(1.5, rel=0.1)

    @pytest.mark.parametrize("kw, match", [
        (dict(iterations=10, burnin=10), "iterations must exceed burnin"),
        (dict(iterations=5, burnin=10), "iterations must exceed burnin"),
        (dict(iterations=10, burnin=-1), "burnin must be nonnegative"),
        (dict(iterations=10, burnin=2, thin=0), "thin must be at least 1"),
        (dict(iterations=10, burnin=2, compute_loglik_every=0),
         "compute_loglik_every must be at least 1"),
    ], ids=["no-draws", "burnin-past-end", "negative-burnin", "thin-0", "loglik-every-0"])
    def test_rejects_bad_chain_lengths(self, small_sim, kw, match):
        spec, _ = small_sim
        with pytest.raises(DataError, match=match):
            fit_probit_genetics(spec, seed=2, **kw)

    def test_beta_step_is_recorded(self, small_sim):
        spec, _ = small_sim
        s = fit_probit_genetics(spec, iterations=40, burnin=30, seed=2)
        assert s.metadata["beta_step"] > 0

    def test_beta_step_stops_adapting_at_burnin(self, small_sim):
        spec, _ = small_sim
        short = fit_probit_genetics(spec, iterations=40, burnin=30, seed=2)
        long = fit_probit_genetics(spec, iterations=80, burnin=30, seed=2)
        assert short.metadata["beta_step"] == long.metadata["beta_step"]

    def test_field_draws_have_the_constrained_law(self, small_sim):
        # Prior mode: given beta, each field is N(0, (F'QQ'F)^-1) on the
        # sum-zero subspace, so ||Q'eta||^2 is chi-squared with M - 1
        # degrees of freedom.  Q is rebuilt from each draw's own beta by the
        # sparse generator, and the statistic is formed from Q'eta, since
        # eta'QQ'eta cancels badly.
        spec, _ = small_sim
        spec = replace(spec, priors=PriorSpec(rate_beta_sd=1.0))
        s = fit_probit_genetics(spec, iterations=3000, burnin=0, seed=5,
                                include_likelihood=False)
        g, m = spec.graph, spec.graph.node_count
        eta_cols = [j for j, name in enumerate(s.names) if name.startswith("eta_")]
        stat = np.empty(s.n_draws)
        for r, row in enumerate(s.draws):
            Q = build_generator(g, edge_rates_loglinear(g, RateParams(tuple(row[:3]))))
            eta = row[eta_cols].reshape(-1, m).T  # one field per column
            stat[r] = ((Q.matrix.T @ eta) ** 2).sum(axis=0).mean()
        n_batches = 50
        batches = stat[:stat.size - stat.size % n_batches].reshape(n_batches, -1).mean(axis=1)
        se = batches.std(ddof=1) / math.sqrt(n_batches)
        assert abs(stat.mean() - (m - 1)) < 3.0 * se

    def test_prior_mode_survives_singular_field_precision(self):
        # Under the default N(0, 10^2) rate prior the chain reaches betas
        # whose rates are so uneven that F'PF, which squares the condition
        # of Q'F, cannot be factored; such proposals are rejected and
        # counted.  It is the only factor that can fail: in prior mode the
        # collapsed precision is F'PF itself.
        spec, _ = simulate_genetics(stream_network(), (0.0, 1.0, -1.0), n_loci=8,
                                    n_categories=4, individuals_per_node=5, seed=123)
        s = fit_probit_genetics(spec, iterations=300, burnin=100, seed=0,
                                include_likelihood=False)
        assert np.isfinite(s.draws).all()
        assert s.metadata["rejected_proposals"] > 0


# --- Reference sampler -----------------------------------------------------
#
# The sampler written plainly: per-field loops, a rate dict with math.exp
# per edge, and a dense generator built edge by edge per beta proposal.  It
# states the same algebra as the sampler: B = (Q'F)'(Q'F) restricted to the
# sum-zero basis F, the collapsed factor chol(B + F'G'GF) for the beta step,
# and each field drawn as F w with w ~ N(A^-1 t, A^-1), A = B + F'G'GF,
# from M - 1 normals.  It uses rng.uniform for the central truncated
# normals.  The sampler must consume the random stream in the same order,
# so its chains equal these draw for draw up to roundoff.


def _ref_std_lower_trunc(rng, a):
    out = np.empty_like(a)
    central = a < 6.0
    if central.any():
        ac = a[central]
        u = rng.uniform(ndtr(ac), 1.0)
        out[central] = ndtri(np.minimum(u, 1.0 - 1e-16))
    for i in np.flatnonzero(~central):
        out[i] = _ref_robert_tail(rng, a[i])
    return out


def _ref_robert_tail(rng, a):
    lam = 0.5 * (a + math.sqrt(a * a + 4.0))
    while True:
        x = a + rng.exponential(1.0 / lam)
        if math.log(rng.random()) <= -0.5 * (x - lam) ** 2:
            return x


def _ref_truncated_normal(rng, mean, lower=None, upper=None):
    mean = np.asarray(mean, dtype=float)
    if lower is not None:
        a = np.broadcast_to(np.asarray(lower, dtype=float) - mean, mean.shape)
        return mean + _ref_std_lower_trunc(rng, a.ravel()).reshape(mean.shape)
    b = np.broadcast_to(np.asarray(upper, dtype=float) - mean, mean.shape)
    return mean - _ref_std_lower_trunc(rng, (-b).ravel()).reshape(mean.shape)


def _ref_category_probs(means, n_quad=40):
    """p_k = sum_q w_q prod_{a != k} Phi(t_q + m_k - m_a): the product taken
    in increasing a (the a = k factor set to 1) and each row contracted
    against the weights on its own, the sampler's order of operations."""
    means = np.atleast_2d(np.asarray(means, dtype=float))
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_quad)
    weights = weights / math.sqrt(2.0 * math.pi)
    n, k = means.shape
    diff = means[:, :, None, None] - means[:, None, :, None] + nodes[None, None, None, :]
    cdf = ndtr(diff)
    for a in range(k):
        cdf[:, a, a, :] = 1.0
    return (cdf.prod(axis=2) * weights).sum(axis=-1)


def _ref_category_probs_log(means, n_quad=40):
    """The same quadrature in log space: exp of a sum of log Phi."""
    means = np.atleast_2d(np.asarray(means, dtype=float))
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_quad)
    weights = weights / math.sqrt(2.0 * math.pi)
    n, k = means.shape
    diff = means[:, :, None, None] - means[:, None, :, None] + nodes[None, None, None, :]
    logcdf = log_ndtr(diff)
    for a in range(k):
        logcdf[:, a, a, :] = 0.0
    return np.exp(logcdf.sum(axis=2)) @ weights


def _ref_generator(graph, extra_names, beta):
    """Dense Q through a rate dict, exit rates summed in the graph's edge order."""
    rates = {}
    for e in graph.edges:
        extras = dict(e.cov.extras)
        lp = beta[0] + beta[1] * e.cov.downstream + beta[2] * e.cov.barrier
        for name, coef in zip(extra_names, beta[3:]):
            lp += coef * extras[name]
        if abs(lp) > 700.0:
            raise NumericalError("overflow guard")
        rates[(e.src, e.dst)] = math.exp(lp) / e.cov.distance
    Q = np.zeros((graph.node_count, graph.node_count))
    for (i, j), rate in rates.items():
        Q[i, j] = -rate
        Q[i, i] += rate
    return Q


def _ref_cholesky(a):
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("not positive definite") from exc


def _ref_precision_bundle(spec, beta_vec, F):
    """B = (Q'F)'(Q'F) and log det B, from B's Cholesky factor."""
    C = _ref_generator(spec.graph, spec.extra_rate_names, beta_vec).T @ F
    B = C.T @ C
    return B, 2.0 * float(np.log(np.diag(_ref_cholesky(B))).sum())


def _reference_fit(spec, iterations, burnin, seed, thin=1, include_likelihood=True,
                   compute_loglik_every=1):
    pr = spec.priors
    m = spec.graph.node_count
    s_of_ind = spec.node_of_individual
    n_ind = spec.n_individuals
    n_beta = 3 + len(spec.extra_rate_names)
    rng = np.random.default_rng(seed)
    like = 1.0 if include_likelihood else 0.0

    beta = np.zeros(n_beta)
    F = helmert(m).T
    B, logdet_B = _ref_precision_bundle(spec, beta, F)

    node_counts = np.bincount(s_of_ind, minlength=m) * 2.0
    mu = [np.zeros(k) for k in spec.n_categories]
    eta = [np.zeros((m, k)) for k in spec.n_categories]
    z = [rng.standard_normal((n_ind, 2, k)) for k in spec.n_categories]
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
    rejected = 0
    log_scale = math.log(0.1)
    slot_nodes = np.repeat(s_of_ind, 2)
    n_fields = int(sum(spec.n_categories))
    K_slots = (F * node_counts[:, None]).T @ F

    def collapsed_loglik(B_, ldet_B):
        cK = _ref_cholesky(B_ + K_slots)
        logdet_c = 2.0 * float(np.log(np.diag(cK)).sum()) - ldet_B
        quad = 0.0
        for l, k in enumerate(spec.n_categories):
            zc = z[l] - mu[l][None, None, :]
            for cat in range(k):
                v = zc[:, :, cat].ravel()
                t = F.T @ np.bincount(slot_nodes, weights=v, minlength=m)
                w_ = solve_triangular(cK, t, lower=True)
                quad += float(v @ v) - float(w_ @ w_)
        return (-0.5 * quad - 0.5 * n_fields * logdet_c
                - 0.5 * n_fields * 2.0 * n_ind * math.log(2.0 * math.pi))

    def marginal_loglik():
        total = 0.0
        for l in range(spec.n_loci):
            means = mu[l][None, :] + eta[l][s_of_ind, :]
            p = np.clip(_ref_category_probs(means), 1e-300, 1.0)
            obs = spec.alleles[l]
            for pl in range(2):
                total += float(np.log(p[np.arange(n_ind), obs[:, pl]]).sum())
        return total

    for it in range(iterations):
        if include_likelihood:
            for l, k in enumerate(spec.n_categories):
                obs = spec.alleles[l]
                means = mu[l][None, :] + eta[l][s_of_ind, :]
                for p in range(2):
                    zb = z[l][:, p, :]
                    winner = obs[:, p]
                    for cat in range(k):
                        is_win = winner == cat
                        zc = zb.copy()
                        zc[:, cat] = -np.inf
                        runner_up = zc.max(axis=1)
                        mcat = means[:, cat]
                        new = np.empty(n_ind)
                        if is_win.any():
                            new[is_win] = _ref_truncated_normal(
                                rng, mcat[is_win], lower=runner_up[is_win])
                        if (~is_win).any():
                            new[~is_win] = _ref_truncated_normal(
                                rng, mcat[~is_win], upper=zb[~is_win, winner[~is_win]])
                        zb[:, cat] = new

        for l, k in enumerate(spec.n_categories):
            resid = z[l] - eta[l][s_of_ind][:, None, :]
            for cat in range(1, k):
                prec = like * 2.0 * n_ind + 1.0 / pr.mu_lk_sd**2
                mean_c = like * float(resid[:, :, cat].sum()) / prec
                mu[l][cat] = mean_c + rng.standard_normal() / math.sqrt(prec)

        prop = beta + math.exp(log_scale) * rng.standard_normal(n_beta)
        logprior_cur = -0.5 * float(beta @ beta) / pr.rate_beta_sd**2
        logprior_prop = -0.5 * float(prop @ prop) / pr.rate_beta_sd**2
        try:
            B_prop, logdet_B_prop = _ref_precision_bundle(spec, prop, F)
            if include_likelihood:
                ratio = (collapsed_loglik(B_prop, logdet_B_prop) + logprior_prop
                         - collapsed_loglik(B, logdet_B) - logprior_cur)
            else:
                ratio = logprior_prop - logprior_cur
            accept = math.log(rng.random()) < ratio
        except NumericalError:
            accept = False
            rejected += 1
        if accept:
            beta = prop
            B, logdet_B = B_prop, logdet_B_prop
            acc += 1
        if it < burnin:
            gain = 1.0 / math.sqrt(it + 1.0)
            log_scale += gain * ((1.0 if accept else 0.0) - 0.234)

        L = np.linalg.cholesky(B + like * K_slots)
        for l, k in enumerate(spec.n_categories):
            zsum = z[l] - mu[l][None, None, :]
            for cat in range(k):
                t = like * (F.T @ np.bincount(slot_nodes, weights=zsum[:, :, cat].ravel(),
                                              minlength=m))
                w_ = solve_triangular(L, t, lower=True) + rng.standard_normal(m - 1)
                eta[l][:, cat] = F @ np.linalg.solve(L.T, w_)

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
    return names, draws[:kept], logliks[:kept], acc / iterations, rejected


def _random_directed_graph(rng, m):
    """Irreducible directed graph: a one-way ring plus random chords, with
    random indicators, distances and one extra covariate 'slope'."""
    pairs = {(i, (i + 1) % m) for i in range(m)}
    for i in range(m):
        for j in range(m):
            if i != j and rng.random() < 0.3:
                pairs.add((i, j))
    edges = tuple(
        Edge(i, j, EdgeCovariates(float(rng.uniform(0.5, 2.0)), int(rng.integers(2)),
                                  int(rng.random() < 0.2),
                                  (("slope", float(rng.normal())),)))
        for i, j in sorted(pairs)
    )
    return SpatialGraph(node_count=m, labels=tuple(str(i) for i in range(m)), edges=edges)


def _assert_same_chain(spec, **kw):
    names, draws, logliks, acceptance, rejected = _reference_fit(spec, **kw)
    s = fit_probit_genetics(spec, **kw)
    assert s.names == tuple(names)
    assert s.metadata["acceptance"]["beta"] == acceptance
    assert s.metadata["rejected_proposals"] == rejected
    np.testing.assert_allclose(s.draws, draws, rtol=0, atol=1e-8 * np.abs(draws).max())
    np.testing.assert_allclose(s.loglik, logliks, rtol=1e-9, atol=0)


def _uneven_spec(seed):
    """K = (2, 3, 5) on a random directed graph with an extra rate covariate
    and empty nodes.  Alleles come from the model, so the likelihood holds
    beta where F'PF factors (see test_prior_mode_survives_singular_field_precision
    for where it does not)."""
    rng = np.random.default_rng(100 + seed)
    m = int(rng.integers(6, 12))
    graph = _random_directed_graph(rng, m)
    # individuals on about two thirds of the nodes, the rest empty
    occupied = rng.choice(m, size=max(2, 2 * m // 3), replace=False)
    nodes = np.sort(rng.choice(occupied, size=6 * m))
    Q = build_generator(graph, edge_rates_loglinear(
        graph, RateParams((0.0, 0.5, -0.5, 0.3), ("slope",))))
    n_categories = (2, 3, 5)
    alleles = []
    for k in n_categories:
        mu = np.concatenate([[0.0], rng.normal(0.0, 0.5, k - 1)])
        eta = constrained_solve(Q, rng.standard_normal((m, k)))
        latent = mu + eta[nodes][:, None, :] + rng.standard_normal((nodes.size, 2, k))
        alleles.append(latent.argmax(axis=2))
    assert np.bincount(nodes, minlength=m).min() == 0
    return GeneticsModelSpec(graph=graph, node_of_individual=nodes, alleles=tuple(alleles),
                             n_categories=n_categories, extra_rate_names=("slope",))


def _uneven_fit(seed):
    return dict(iterations=150, burnin=50, seed=seed, compute_loglik_every=5)


def _count_robert_tails(monkeypatch):
    """Record the truncation point of every Robert tail draw from now on."""
    calls = []
    robert = genetics._robert_tail

    def counted(rng, a):
        calls.append(a)
        return robert(rng, a)

    monkeypatch.setattr(genetics, "_robert_tail", counted)
    return calls


class TestAgainstReferenceSampler:
    DEMO_FITS = {"sparse": dict(iterations=200, burnin=60, seed=3, compute_loglik_every=10),
                 "default": dict(iterations=30, burnin=10, seed=4)}

    @pytest.fixture(scope="class")
    def demo_spec(self):
        spec, _ = simulate_genetics(stream_network(), (0.0, 1.0, -1.0), n_loci=8,
                                    n_categories=4, individuals_per_node=5, seed=123)
        return spec

    def test_demo_size_sparse_loglik(self, demo_spec):
        _assert_same_chain(demo_spec, **self.DEMO_FITS["sparse"])

    def test_demo_size_default_loglik(self, demo_spec):
        _assert_same_chain(demo_spec, **self.DEMO_FITS["default"])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_directed_graphs_uneven_categories(self, seed):
        _assert_same_chain(_uneven_spec(seed), **_uneven_fit(seed))

    @pytest.mark.parametrize("chain", ["sparse", "default", 0, 1, 2])
    def test_oracle_chains_draw_no_tails(self, demo_spec, monkeypatch, chain):
        # The sampler consumes the reference's stream only while no latent's
        # truncation point lies 6 sd or more beyond its mean; past that it
        # draws Robert's tail from a different point of the stream.  The
        # chains compared above must stay clear of that rule, so that they
        # compare the same stream.
        calls = _count_robert_tails(monkeypatch)
        if chain in self.DEMO_FITS:
            fit_probit_genetics(demo_spec, **self.DEMO_FITS[chain])
        else:
            fit_probit_genetics(_uneven_spec(chain), **_uneven_fit(chain))
        assert calls == []

    def test_prior_mode(self, small_sim):
        spec, _ = small_sim
        spec = GeneticsModelSpec(graph=spec.graph, node_of_individual=spec.node_of_individual,
                                 alleles=spec.alleles, n_categories=spec.n_categories,
                                 priors=PriorSpec(rate_beta_sd=2.0))
        _assert_same_chain(spec, iterations=200, burnin=50, seed=11,
                           include_likelihood=False)

    def test_prior_mode_near_singular_precisions(self, small_sim):
        # The first 2400 sweeps of the chain in
        # TestSampler::test_prior_audit_beta_and_mu, which reaches betas
        # where F'PF barely factors.  There a last-bit change in Q'F changes
        # which proposals are rejected, and F'PF is the only factor that can
        # fail.
        spec, _ = small_sim
        spec = GeneticsModelSpec(graph=spec.graph, node_of_individual=spec.node_of_individual,
                                 alleles=spec.alleles, n_categories=spec.n_categories,
                                 priors=PriorSpec(rate_beta_sd=2.0, mu_lk_sd=1.5))
        _assert_same_chain(spec, iterations=2400, burnin=2000, seed=5,
                           include_likelihood=False)

    def test_category_probs_match_reference(self):
        rng = np.random.default_rng(12)
        for k in (2, 3, 5):
            means = rng.normal(scale=2.0, size=(40, k))
            np.testing.assert_array_equal(category_probs(means), _ref_category_probs(means))

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
    def test_category_probs_agree_with_the_log_form(self, k, scale):
        # The Phi product and exp(sum log Phi) agree within 1e-13 relative,
        # except where the rounding of the log form's exponent, about
        # eps |log p| relative, is larger: from p ~ 1e-98 down.  There both
        # forms err by up to ~1e-13 against a 40-digit evaluation on the same
        # arguments, which is the accuracy of Phi itself so deep in its tail.
        means = np.random.default_rng(40 + k).normal(scale=scale, size=(300, k))
        p = category_probs(means)
        ref = _ref_category_probs_log(means)
        kept = ref >= 1e-290
        assert kept.mean() > 0.9
        eps = np.finfo(float).eps
        bound = np.maximum(1e-13, 2.0 * eps * (1.0 - np.log(ref[kept])))
        assert (np.abs(p[kept] - ref[kept]) <= bound * ref[kept]).all()

    def test_padded_rival_is_exact(self):
        # a -inf rival contributes Phi(inf) = 1, so padding a K = 3 row to
        # K = 5 leaves each probability's bits unchanged
        means = np.random.default_rng(13).normal(scale=2.0, size=(30, 3))
        padded = np.hstack([means, np.full((30, 2), -np.inf)])
        cats = np.arange(30) % 3
        np.testing.assert_array_equal(category_probs(padded, cats),
                                      category_probs(means)[np.arange(30), cats])


def _ref_sweep_rule(rng, a):
    """N(0, 1) beyond each a by the latent sweep's stream rule: a uniform for
    every entry first, then Robert's tail sampler for the entries with
    a >= 6, in order, in place of their inverse-CDF draws."""
    out = ndtri(np.minimum(rng.uniform(ndtr(a), 1.0), 1.0 - 1e-16))
    for i in np.flatnonzero(a >= 6.0):
        out[i] = _ref_robert_tail(rng, a[i])
    return out


class TestTruncatedNormalStream:
    @staticmethod
    def _mixed(rng, n=400):
        # central entries and tail entries (a >= 6) interleaved
        a = rng.uniform(-3.0, 5.0, size=n)
        tail = rng.random(n) < 0.1
        a[tail] = rng.uniform(6.0, 9.0, size=int(tail.sum()))
        return a

    def test_lower_matches_reference_draw_for_draw(self):
        a = self._mixed(np.random.default_rng(13))
        mean = np.random.default_rng(14).normal(size=a.size)
        rng, ref = np.random.default_rng(15), np.random.default_rng(15)
        lower = mean + a
        got = truncated_normal(rng, mean, lower=lower)
        want = mean + _ref_sweep_rule(ref, lower - mean)
        np.testing.assert_array_equal(got, want)
        assert rng.random() == ref.random()

    def test_upper_matches_reference_draw_for_draw(self):
        a = self._mixed(np.random.default_rng(16))
        mean = np.random.default_rng(17).normal(size=a.size)
        upper = mean - a
        rng, ref = np.random.default_rng(18), np.random.default_rng(18)
        got = truncated_normal(rng, mean, upper=upper)
        want = mean - _ref_sweep_rule(ref, -(upper - mean))
        np.testing.assert_array_equal(got, want)
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_without_tail_entries_the_former_rule_draws_the_same(self, side):
        # the former rule drew the central uniforms, then the tail entries'
        # Robert draws; with no entry at a >= 6 its stream is the sweep's
        a = np.random.default_rng(20).uniform(-3.0, 5.9, size=400)
        mean = np.random.default_rng(21).normal(size=a.size)
        sign = 1.0 if side == "lower" else -1.0
        rng, ref = np.random.default_rng(22), np.random.default_rng(22)
        got = truncated_normal(rng, mean, **{side: mean + sign * a})
        want = _ref_truncated_normal(ref, mean, **{side: mean + sign * a})
        np.testing.assert_array_equal(got, want)
        assert rng.random() == ref.random()

    def test_scalar_bound_broadcasts(self):
        mean = np.linspace(-1.0, 1.0, 7)
        rng, ref = np.random.default_rng(19), np.random.default_rng(19)
        np.testing.assert_array_equal(truncated_normal(rng, mean, lower=0.5),
                                      _ref_truncated_normal(ref, mean, lower=0.5))


def _sweep_state(seed, n_ind=60, n_categories=(2, 3, 5), mean_sd=1.0):
    """Random alleles, (individual, field) means and (field, individual,
    ploidy) latents whose observed category is maximal in every block."""
    rng = np.random.default_rng(seed)
    alleles = tuple(rng.integers(k, size=(n_ind, 2)) for k in n_categories)
    means = rng.normal(scale=mean_sd, size=(n_ind, sum(n_categories)))
    z = rng.standard_normal((sum(n_categories), n_ind, 2))
    for block, obs in _blocks(z, alleles, n_categories):
        block[obs, np.arange(n_ind)] = block.max(axis=0) + 0.5
    return alleles, means, z


def _blocks(z, alleles, n_categories):
    """(category, individual) views of z per (locus, ploidy), with the observed categories."""
    offsets = np.cumsum((0,) + tuple(n_categories))
    for l, obs in enumerate(alleles):
        for p in range(2):
            yield z[offsets[l]:offsets[l + 1], :, p], obs[:, p]


def _per_block_sweep(rng, z, means, alleles, n_categories):
    """The latent sweep as one truncated_normal call per (locus, ploidy,
    category) and winners/losers, in that order."""
    offsets = np.cumsum((0,) + tuple(n_categories))
    for (block, winner), off in zip(_blocks(z, alleles, n_categories), np.repeat(offsets, 2)):
        for cat in range(block.shape[0]):
            win = np.flatnonzero(winner == cat)
            lose = np.flatnonzero(winner != cat)
            rivals = np.delete(block, cat, axis=0)[:, win].max(axis=0)
            if win.size:
                block[cat, win] = truncated_normal(rng, means[win, off + cat], lower=rivals)
            if lose.size:
                block[cat, lose] = truncated_normal(rng, means[lose, off + cat],
                                                    upper=block[winner[lose], lose])


def _ref_sweep_plan(alleles, n_categories):
    """``_sweep_plan`` as one loop over (locus, ploidy, category) blocks."""
    n_ind = alleles[0].shape[0]
    n_fields = sum(n_categories)
    rows = max(n_categories) - 1
    parts = [[] for _ in range(rows + 1)]
    off = drawn = 0
    for obs, k in zip(alleles, n_categories):
        for p in range(2):
            winner = obs[:, p]
            for cat in range(k):
                ind = np.concatenate([np.flatnonzero(winner == cat),
                                      np.flatnonzero(winner != cat)])
                won = winner[ind] == cat
                rivals = [c for c in range(k) if c != cat]
                rivals += rivals[-1:] * (rows - len(rivals))
                bound_cat = np.where(won, np.array(rivals)[:, None], winner[ind])
                parts[cat].append((
                    (off + cat) * 2 * n_ind + 2 * ind + p,
                    ind * n_fields + off + cat,
                    (off + bound_cat) * 2 * n_ind + 2 * ind + p,
                    np.where(won, 1.0, -1.0),
                    drawn + np.arange(n_ind),
                ))
                drawn += n_ind
        off += k
    return [genetics._SweepGroup(*(np.concatenate(col, axis=-1) for col in zip(*group)))
            for group in parts]


@pytest.mark.parametrize("case", ["demo", 0, 1, 2])
def test_sweep_plan_matches_the_block_loop(case):
    if case == "demo":
        spec, _ = simulate_genetics(stream_network(), (0.0, 1.0, -1.0), n_loci=8,
                                    n_categories=4, individuals_per_node=5, seed=123)
    else:
        spec = _uneven_spec(case)
    got = genetics._sweep_plan(spec.alleles, spec.n_categories)
    want = _ref_sweep_plan(spec.alleles, spec.n_categories)
    assert len(got) == len(want) == max(spec.n_categories)
    for g, w in zip(got, want):
        for name, a, b in zip(w._fields, g, w):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            np.testing.assert_array_equal(a, b, err_msg=name)


class TestLatentSweep:
    """``_latent_sweep`` over a ``_sweep_plan``: one update per category index."""

    @staticmethod
    def _sweep(rng, z, means, alleles, n_categories):
        plan = genetics._sweep_plan(alleles, n_categories)
        genetics._latent_sweep(rng, plan, z.reshape(-1), means.ravel())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_per_block_loop_without_tails(self, monkeypatch, seed):
        alleles, means, z = _sweep_state(seed)
        n_categories = (2, 3, 5)
        calls = _count_robert_tails(monkeypatch)
        want = z.copy()
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            self._sweep(rng, z, means, alleles, n_categories)
            _per_block_sweep(ref, want, means, alleles, n_categories)
            np.testing.assert_array_equal(z, want)
        assert calls == []
        assert rng.random() == ref.random()

    def test_observed_category_stays_strictly_maximal(self, monkeypatch):
        # means with sd 6 put many truncation points past the 6 sd tail rule
        n_categories = (2, 3, 5)
        alleles, means, z = _sweep_state(3, n_ind=200, mean_sd=6.0)
        calls = _count_robert_tails(monkeypatch)
        rng = np.random.default_rng(4)
        for _ in range(5):
            self._sweep(rng, z, means, alleles, n_categories)
            for block, obs in _blocks(z, alleles, n_categories):
                rows = np.arange(obs.size)
                rest = block.copy()
                rest[obs, rows] = -np.inf
                assert (block[obs, rows] > rest.max(axis=0)).all()
        assert len(calls) > 100

    def test_tail_draws_have_the_truncated_normal_law(self, monkeypatch):
        # K = 2, every allele 0, rows alternating deep and central: the
        # winner's update of a deep row starts at a = 0 - (-7) = 7, and the
        # loser's at a = 8 - z_0, both past the tail rule
        n_ind = 1500
        deep = np.arange(n_ind) % 2 == 0
        alleles = (np.zeros((n_ind, 2), dtype=int),)
        means = np.zeros((n_ind, 2))
        means[deep] = (-7.0, 8.0)
        z = np.zeros((2, n_ind, 2))
        z[0] = 0.5
        calls = _count_robert_tails(monkeypatch)
        self._sweep(np.random.default_rng(5), z, means, alleles, (2,))
        assert len(calls) == 2 * 2 * deep.sum()
        winner_x = (z[0, deep] + 7.0).ravel()
        assert stats.kstest(winner_x, stats.truncnorm(7.0, np.inf).cdf).pvalue > 1e-3
        loser_a = (8.0 - z[0, deep]).ravel()
        loser_x = (8.0 - z[1, deep]).ravel()
        assert (loser_a >= 6.0).all()
        pit = stats.truncnorm.cdf(loser_x, loser_a, np.inf)
        assert stats.kstest(pit, "uniform").pvalue > 1e-3
        assert (z[0] > z[1]).all()


class TestGeneticsLoglik:
    @pytest.fixture(scope="class")
    def fit(self, small_sim):
        spec, _ = small_sim
        return spec, fit_probit_genetics(spec, iterations=130, burnin=30, seed=6)

    def test_matches_the_stored_loglik(self, fit):
        spec, samples = fit
        assert samples.metadata["compute_loglik_every"] == 1
        loglik = genetics_loglik_fn(spec)
        for row in (0, 57, samples.n_draws - 1):
            assert loglik(dict(zip(samples.names, samples.draws[row]))) == samples.loglik[row]

    def test_stale_rows_carry_the_last_evaluation(self, small_sim):
        spec, _ = small_sim
        s = fit_probit_genetics(spec, iterations=40, burnin=30, seed=6, compute_loglik_every=4)
        assert s.metadata["compute_loglik_every"] == 4
        np.testing.assert_array_equal(s.loglik, np.repeat(s.loglik[::4], 4)[:s.n_draws])

    def test_matches_a_per_individual_reference(self):
        rng = np.random.default_rng(31)
        m = 9
        graph = _random_directed_graph(rng, m)
        n_categories = (2, 3, 5)
        # unsorted individuals on 5 of the 9 nodes
        nodes = rng.choice(rng.choice(m, size=5, replace=False), size=40)
        assert np.bincount(nodes, minlength=m).min() == 0
        assert (np.diff(nodes) < 0).any()
        alleles = tuple(rng.integers(k, size=(nodes.size, 2)) for k in n_categories)
        spec = GeneticsModelSpec(graph=graph, node_of_individual=nodes, alleles=alleles,
                                 n_categories=n_categories)
        draw = {f"mu_{l}_{c}": rng.normal() for l, k in enumerate(n_categories)
                for c in range(1, k)}
        draw.update({f"eta_{l}_{c}_{s}": rng.normal(scale=1.5)
                     for l, k in enumerate(n_categories) for c in range(k) for s in range(m)})
        expected = 0.0
        rows = np.arange(nodes.size)
        for l, (k, y) in enumerate(zip(n_categories, alleles)):
            mu = np.array([0.0] + [draw[f"mu_{l}_{c}"] for c in range(1, k)])
            eta = np.array([[draw[f"eta_{l}_{c}_{s}"] for c in range(k)] for s in range(m)])
            p = np.clip(_ref_category_probs(mu + eta[nodes]), 1e-300, 1.0)
            for pl in range(2):
                expected += float(np.log(p[rows, y[:, pl]]).sum())
        assert genetics_loglik_fn(spec)(draw) == expected

    def test_one_category_probs_call_per_evaluation(self, monkeypatch):
        # one call covers every distinct observed (node, locus, category)
        # triple once, its rivals padded to max(K) with -inf
        spec = _uneven_spec(0)
        k_max = max(spec.n_categories)
        calls = []
        kernel = genetics.category_probs

        def counted(means, category=None):
            calls.append((means.copy(), np.array(category)))
            return kernel(means, category)

        monkeypatch.setattr(genetics, "category_probs", counted)
        rng = np.random.default_rng(32)
        m = spec.graph.node_count
        mu = [np.concatenate([[0.0], rng.normal(size=k - 1)]) for k in spec.n_categories]
        eta = [rng.normal(size=(m, k)) for k in spec.n_categories]
        draw = {f"mu_{l}_{c}": mu[l][c] for l, k in enumerate(spec.n_categories)
                for c in range(1, k)}
        draw.update({f"eta_{l}_{c}_{s}": eta[l][s, c] for l, k in enumerate(spec.n_categories)
                     for c in range(k) for s in range(m)})
        genetics_loglik_fn(spec)(draw)
        assert len(calls) == 1
        means, category = calls[0]
        triples = {(s, l, y) for l, obs in enumerate(spec.alleles)
                   for s, row in zip(spec.node_of_individual, obs) for y in row}
        want = sorted((tuple(np.pad(mu[l] + eta[l][s], (0, k_max - mu[l].size),
                                    constant_values=-np.inf)), y) for s, l, y in triples)
        assert sorted(zip(map(tuple, means), category.tolist())) == want
        assert len(want) < sum(2 * obs.shape[0] for obs in spec.alleles)

        calls.clear()
        s = fit_probit_genetics(spec, iterations=60, burnin=20, seed=0)
        assert len(calls) == s.n_draws

    def test_dic_of_a_genetics_fit(self, fit):
        spec, samples = fit
        dic = compute_dic(samples, genetics_loglik_fn(spec))
        assert dic.dbar == float(np.mean(-2.0 * samples.loglik))
        assert math.isfinite(dic.d_at_mean) and math.isfinite(dic.dic)
