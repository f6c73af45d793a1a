"""Gaussian-response samplers: design handling, prior recovery, posterior checks."""

import numpy as np
import pytest

from walkfield.datasets import columbus_fixture
from walkfield.errors import DataError
from walkfield.field import constrained_solve
from walkfield.graph import Edge, EdgeCovariates, SpatialGraph
from walkfield.infer.gaussian import fit_gaussian, gaussian_loglik_fn, graph_generator
from walkfield.infer.specs import (
    DIFFUSION,
    SPATIAL,
    GaussianModelSpec,
    PosteriorSamples,
    PriorSpec,
)

from test_graph import line_graph, random_graph


@pytest.fixture(scope="module")
def columbus():
    return columbus_fixture()


def make_spec(columbus, variant, **kw):
    graph, crime, home = columbus
    return GaussianModelSpec(response=crime, covariate=home, variant=variant,
                             graph=graph, **kw)


class TestSpecValidation:
    def test_length_mismatch_rejected(self, columbus):
        graph, crime, home = columbus
        with pytest.raises(DataError):
            GaussianModelSpec(response=crime[:-1], covariate=home[:-1],
                              variant=SPATIAL, graph=graph)

    def test_unknown_variant_rejected(self, columbus):
        graph, crime, home = columbus
        with pytest.raises(DataError):
            GaussianModelSpec(response=crime, covariate=home,
                              variant="bogus", graph=graph)

    def test_nonfinite_response_rejected(self, columbus):
        graph, crime, home = columbus
        bad = crime.copy()
        bad[0] = np.nan
        with pytest.raises(DataError):
            GaussianModelSpec(response=bad, covariate=home,
                              variant=SPATIAL, graph=graph)


class TestDesignColumn:
    def test_spatial_design_is_standardized_covariate(self, columbus):
        from walkfield.infer.gaussian import _design_column

        spec = make_spec(columbus, SPATIAL)
        x = _design_column(spec, graph_generator(spec.graph))
        h = spec.covariate
        np.testing.assert_allclose(x, (h - h.mean()) / h.std(ddof=1), atol=1e-12)

    def test_diffusion_design_is_smoothed_standardized(self, columbus):
        from walkfield.infer.gaussian import _design_column

        spec = make_spec(columbus, DIFFUSION)
        Q = graph_generator(spec.graph)
        x = _design_column(spec, Q)
        h = spec.covariate
        hs = (h - h.mean()) / h.std(ddof=1)
        np.testing.assert_allclose(x, constrained_solve(Q, hs), atol=1e-10)
        # the smoothed column keeps its natural scale
        assert abs(x.std(ddof=1) - 1.0) > 1e-6


class TestSamplerBasics:
    def test_draw_columns_and_determinism(self, columbus):
        spec = make_spec(columbus, SPATIAL)
        a = fit_gaussian(spec, iterations=400, burnin=100, seed=5)
        b = fit_gaussian(spec, iterations=400, burnin=100, seed=5)
        assert a.names[:4] == ("mu", "beta", "sigma", "tau")
        assert a.n_draws == 300
        np.testing.assert_array_equal(a.draws, b.draws)

    def test_thinning(self, columbus):
        spec = make_spec(columbus, SPATIAL)
        s = fit_gaussian(spec, iterations=400, burnin=100, seed=5, thin=3)
        assert s.n_draws == 100

    def test_iterations_must_exceed_burnin(self, columbus):
        spec = make_spec(columbus, SPATIAL)
        with pytest.raises(DataError):
            fit_gaussian(spec, iterations=100, burnin=100, seed=0)

    def test_eta_draws_sum_to_zero(self, columbus):
        spec = make_spec(columbus, SPATIAL)
        s = fit_gaussian(spec, iterations=300, burnin=100, seed=2)
        m = spec.graph.node_count
        etas = s.draws[:, [s.names.index(f"eta_{i}") for i in range(m)]]
        np.testing.assert_allclose(etas.sum(axis=1), np.zeros(s.n_draws), atol=1e-8)

    def test_loglik_column_matches_recomputation(self, columbus):
        spec = make_spec(columbus, SPATIAL)
        s = fit_gaussian(spec, iterations=300, burnin=200, seed=4)
        fn = gaussian_loglik_fn(spec)
        for k in (0, 50, 99):
            params = dict(zip(s.names, s.draws[k]))
            assert s.loglik[k] == pytest.approx(fn(params), abs=1e-8)


class TestPriorRecovery:
    """With the likelihood disabled every update must sample its prior."""

    def test_regression_and_sigma_priors(self, columbus):
        priors = PriorSpec(regression_sd=2.0, re_sd_scale=1.5,
                           tau2_shape=3.0, tau2_scale=4.0)
        spec = make_spec(columbus, SPATIAL, priors=priors)
        s = fit_gaussian(spec, iterations=21000, burnin=1000, seed=11,
                         include_likelihood=False)
        n = s.n_draws
        for name, prior_sd in (("mu", 2.0), ("beta", 2.0)):
            col = s.column(name)
            se = prior_sd / np.sqrt(n)  # conservative: ignores autocorrelation
            assert abs(col.mean()) < 6 * se + 0.05 * prior_sd
            assert col.std() == pytest.approx(prior_sd, rel=0.1)
        # half-normal(1.5): mean = 1.5*sqrt(2/pi)
        sig = s.column("sigma")
        assert sig.mean() == pytest.approx(1.5 * np.sqrt(2 / np.pi), rel=0.1)
        # IG(3, 4) on tau^2: mean 2, sd 2
        tau2 = s.column("tau") ** 2
        assert tau2.mean() == pytest.approx(2.0, rel=0.15)

    def test_eta_prior_covariance(self, columbus):
        # proper tau2 prior: the IG(0.01, 0.01) default has no moments to audit
        priors = PriorSpec(tau2_shape=3.0, tau2_scale=4.0)
        spec = make_spec(columbus, SPATIAL, priors=priors)
        s = fit_gaussian(spec, iterations=6000, burnin=1000, seed=13,
                         include_likelihood=False)
        from walkfield.field import stationary_precision

        P = stationary_precision(graph_generator(spec.graph)).toarray()
        evals, evecs = np.linalg.eigh(P)
        marg_var = np.einsum("ij,j,ij->i", evecs[:, 1:], 1.0 / evals[1:],
                             evecs[:, 1:])
        m = spec.graph.node_count
        etas = s.draws[:, [s.names.index(f"eta_{i}") for i in range(m)]]
        emp = etas.var(axis=0)
        # prior draws are iid across iterations here, so plain MC error applies
        np.testing.assert_allclose(emp, marg_var, rtol=0.15)


class TestPosteriorRecovery:
    def test_strong_signal_regression_recovered(self):
        # data generated from the model on a small graph; posterior must
        # concentrate near the truth when tau is small
        rng = np.random.default_rng(100)
        g = random_graph(rng, 12, p=0.5)
        h = rng.normal(size=12)
        Q = graph_generator(g)
        c = 3.0 + 2.0 * (h - h.mean()) / h.std(ddof=1) + rng.normal(0, 0.3, 12)
        spec = GaussianModelSpec(response=c, covariate=h, variant=SPATIAL, graph=g)
        s = fit_gaussian(spec, iterations=6000, burnin=2000, seed=3)
        assert s.column("mu").mean() == pytest.approx(3.0, abs=0.5)
        assert s.column("beta").mean() == pytest.approx(2.0, abs=0.5)
        assert s.column("tau").mean() < 1.0

    def test_metropolis_acceptance_near_target(self, columbus):
        spec = make_spec(columbus, SPATIAL)
        s = fit_gaussian(spec, iterations=6000, burnin=3000, seed=6)
        assert s.metadata["acceptance"]["sigma"] == pytest.approx(0.44, abs=0.15)


class TestDirectedGraph:
    def test_eta_sums_to_zero_on_directed_cycle(self):
        # distances drawn apart per direction: in-rates differ from
        # out-rates, so the null vector of QQ' is not the constant vector
        rng = np.random.default_rng(0)
        m = 6
        edges = []
        for i in range(m):
            j = (i + 1) % m
            edges.append(Edge(i, j, EdgeCovariates(float(rng.uniform(0.5, 3.0)))))
            edges.append(Edge(j, i, EdgeCovariates(float(rng.uniform(0.5, 3.0)))))
        g = SpatialGraph(m, tuple(f"n{i}" for i in range(m)), tuple(edges))
        spec = GaussianModelSpec(response=rng.normal(size=m), covariate=rng.normal(size=m),
                                 variant=SPATIAL, graph=g)
        s = fit_gaussian(spec, iterations=2000, burnin=500, seed=1)
        eta = s.draws[:, [s.names.index(f"eta_{i}") for i in range(m)]]
        assert np.abs(eta.sum(axis=1)).max() < 1e-9
