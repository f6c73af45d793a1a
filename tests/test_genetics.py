"""Probit-genetics components: truncated normals, category probabilities, sampler."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy import stats
from scipy.linalg import cho_solve, helmert, solve_triangular
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
from walkfield.infer import genetics
from walkfield.infer.genetics import (
    category_probs,
    fit_probit_genetics,
    simulate_genetics,
    truncated_normal,
)
from walkfield.infer.specs import GeneticsModelSpec, PriorSpec


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

    def test_rejects_bad_node_index(self):
        g = stream_network()
        with pytest.raises(DataError):
            GeneticsModelSpec(
                graph=g,
                node_of_individual=np.array([0, g.node_count]),
                alleles=(np.zeros((2, 2), dtype=int),),
                n_categories=(2,),
            )


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

    def test_beta_step_is_recorded(self, small_sim):
        spec, _ = small_sim
        s = fit_probit_genetics(spec, iterations=40, burnin=30, seed=2)
        assert s.metadata["beta_step"] > 0

    def test_beta_step_stops_adapting_at_burnin(self, small_sim):
        spec, _ = small_sim
        short = fit_probit_genetics(spec, iterations=40, burnin=30, seed=2)
        long = fit_probit_genetics(spec, iterations=80, burnin=30, seed=2)
        assert short.metadata["beta_step"] == long.metadata["beta_step"]

    def test_prior_mode_survives_singular_field_precision(self):
        # Under the default N(0, 10^2) rate prior the chain reaches betas
        # whose rates are so small that the field full conditional cannot
        # be factored; such proposals are rejected and counted.
        spec, _ = simulate_genetics(stream_network(), (0.0, 1.0, -1.0), n_loci=8,
                                    n_categories=4, individuals_per_node=5, seed=123)
        s = fit_probit_genetics(spec, iterations=300, burnin=100, seed=0,
                                include_likelihood=False)
        assert np.isfinite(s.draws).all()
        assert s.metadata["rejected_proposals"] > 0


# --- Frozen reference sampler ---------------------------------------------
#
# The sampler as it was before the precision bundle, the block solves and
# the compiled rate model: per-field loops, a rate dict and a sparse
# generator per beta proposal, and rng.uniform for the central truncated
# normals.  The current sampler must consume the random stream in the same
# order, so its chains equal these draw for draw up to roundoff.


def _ref_std_lower_trunc(rng, a):
    out = np.empty_like(a)
    central = a < 6.0
    if central.any():
        ac = a[central]
        u = rng.uniform(ndtr(ac), 1.0)
        out[central] = ndtri(np.minimum(u, 1.0 - 1e-16))
    if (~central).any():
        for i in np.flatnonzero(~central):
            lam = 0.5 * (a[i] + math.sqrt(a[i] * a[i] + 4.0))
            while True:
                x = a[i] + rng.exponential(1.0 / lam)
                if math.log(rng.random()) <= -0.5 * (x - lam) ** 2:
                    out[i] = x
                    break
    return out


def _ref_truncated_normal(rng, mean, lower=None, upper=None):
    mean = np.asarray(mean, dtype=float)
    if lower is not None:
        a = np.broadcast_to(np.asarray(lower, dtype=float) - mean, mean.shape)
        return mean + _ref_std_lower_trunc(rng, a.ravel()).reshape(mean.shape)
    b = np.broadcast_to(np.asarray(upper, dtype=float) - mean, mean.shape)
    return mean - _ref_std_lower_trunc(rng, (-b).ravel()).reshape(mean.shape)


def _ref_category_probs(means, n_quad=40):
    means = np.atleast_2d(np.asarray(means, dtype=float))
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_quad)
    weights = weights / math.sqrt(2.0 * math.pi)
    n, k = means.shape
    diff = means[:, :, None, None] - means[:, None, :, None] + nodes[None, None, None, :]
    logcdf = log_ndtr(diff)
    for a in range(k):
        logcdf[:, a, a, :] = 0.0
    return np.exp(logcdf.sum(axis=2)) @ weights


def _ref_precision(graph, extra_names, beta):
    """P = QQ' through a rate dict and a sparse generator."""
    rates = {}
    for e in graph.edges:
        extras = dict(e.cov.extras)
        lp = beta[0] + beta[1] * e.cov.downstream + beta[2] * e.cov.barrier
        for name, coef in zip(extra_names, beta[3:]):
            lp += coef * extras[name]
        if abs(lp) > 700.0:
            raise NumericalError("overflow guard")
        rates[(e.src, e.dst)] = math.exp(lp) / e.cov.distance
    m = graph.node_count
    rows, cols, vals = [], [], []
    diag = np.zeros(m)
    for (i, j) in sorted(rates):
        rows.append(i)
        cols.append(j)
        vals.append(-rates[(i, j)])
        diag[i] += rates[(i, j)]
    for i in range(m):
        if diag[i] > 0:
            rows.append(i)
            cols.append(i)
            vals.append(diag[i])
    q = sp.csr_matrix((np.array(vals), (np.array(rows), np.array(cols))), shape=(m, m))
    q.sort_indices()
    p = (q @ q.T).tocsr()
    return ((p + p.T) * 0.5).toarray()


def _ref_precision_bundle(spec, beta_vec, F):
    P = _ref_precision(spec.graph, spec.extra_rate_names, beta_vec)
    B = F.T @ P @ F
    try:
        B_chol = np.linalg.cholesky((B + B.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("not positive definite") from exc
    return P, B_chol, 2.0 * float(np.log(np.diag(B_chol)).sum())


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
    P, B_chol, logdet_B = _ref_precision_bundle(spec, beta, F)

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

    def collapsed_loglik(chol_B, ldet_B):
        cap = chol_B @ chol_B.T + K_slots
        try:
            cK = np.linalg.cholesky(cap)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("not positive definite") from exc
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
            P_prop, B_chol_prop, logdet_B_prop = _ref_precision_bundle(spec, prop, F)
            if include_likelihood:
                ratio = (collapsed_loglik(B_chol_prop, logdet_B_prop) + logprior_prop
                         - collapsed_loglik(B_chol, logdet_B) - logprior_cur)
            else:
                ratio = logprior_prop - logprior_cur
            accept = math.log(rng.random()) < ratio
        except NumericalError:
            accept = False
            rejected += 1
        if accept:
            beta = prop
            P, B_chol, logdet_B = P_prop, B_chol_prop, logdet_B_prop
            acc += 1
        if it < burnin:
            gain = 1.0 / math.sqrt(it + 1.0)
            log_scale += gain * ((1.0 if accept else 0.0) - 0.234)

        A = like * np.diag(node_counts) + P
        shift = max(float(np.trace(A)) / m, 1.0) / m
        L = np.linalg.cholesky(A + shift * np.ones((m, m)))
        u = cho_solve((L, True), np.ones(m))
        uu = float(u.sum())
        for l, k in enumerate(spec.n_categories):
            zsum = z[l] - mu[l][None, None, :]
            for cat in range(k):
                t = like * np.bincount(slot_nodes, weights=zsum[:, :, cat].ravel(),
                                       minlength=m)
                raw = cho_solve((L, True), t) + np.linalg.solve(L.T, rng.standard_normal(m))
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


class TestAgainstReferenceSampler:
    @pytest.fixture(scope="class")
    def demo_spec(self):
        spec, _ = simulate_genetics(stream_network(), (0.0, 1.0, -1.0), n_loci=8,
                                    n_categories=4, individuals_per_node=5, seed=123)
        return spec

    def test_demo_size_sparse_loglik(self, demo_spec):
        _assert_same_chain(demo_spec, iterations=200, burnin=60, seed=3,
                           compute_loglik_every=10)

    def test_demo_size_default_loglik(self, demo_spec):
        _assert_same_chain(demo_spec, iterations=30, burnin=10, seed=4)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_directed_graphs_uneven_categories(self, seed):
        # Alleles come from the model, so the likelihood holds beta where
        # the reference's field factor exists (see
        # test_prior_mode_survives_singular_field_precision for where it
        # does not).
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
        spec = GeneticsModelSpec(graph=graph, node_of_individual=nodes, alleles=tuple(alleles),
                                 n_categories=n_categories, extra_rate_names=("slope",))
        assert np.bincount(nodes, minlength=m).min() == 0
        _assert_same_chain(spec, iterations=150, burnin=50, seed=seed,
                           compute_loglik_every=5)

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
        # where F'PF barely factors.  There a last-bit change in P, or a
        # field factor formed before the Metropolis draw, changes which
        # proposals are rejected.
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
        want = mean + _ref_std_lower_trunc(ref, lower - mean)
        np.testing.assert_array_equal(got, want)
        assert rng.random() == ref.random()

    def test_upper_matches_reference_draw_for_draw(self):
        a = self._mixed(np.random.default_rng(16))
        mean = np.random.default_rng(17).normal(size=a.size)
        upper = mean - a
        rng, ref = np.random.default_rng(18), np.random.default_rng(18)
        got = truncated_normal(rng, mean, upper=upper)
        want = mean - _ref_std_lower_trunc(ref, -(upper - mean))
        np.testing.assert_array_equal(got, want)
        assert rng.random() == ref.random()

    def test_scalar_bound_broadcasts(self):
        mean = np.linspace(-1.0, 1.0, 7)
        rng, ref = np.random.default_rng(19), np.random.default_rng(19)
        np.testing.assert_array_equal(truncated_normal(rng, mean, lower=0.5),
                                      _ref_truncated_normal(ref, mean, lower=0.5))
