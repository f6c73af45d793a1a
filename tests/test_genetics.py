"""Probit-genetics components: truncated normals, category probabilities, sampler."""

import numpy as np
import pytest
from scipy import stats

from walkfield.datasets import stream_network
from walkfield.errors import DataError, NumericalError
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
