"""Gaussian-response samplers: design handling, prior recovery, posterior checks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import helmert

from walkfield.datasets import columbus_fixture
from walkfield.errors import DataError, NumericalError
from walkfield.field import constrained_solve, stationary_precision
from walkfield.graph import Edge, EdgeCovariates, SpatialGraph, check_irreducible
from walkfield.infer.gaussian import (
    _design_column,
    _positive_normal,
    fit_gaussian,
    gaussian_loglik_fn,
    graph_generator,
)
from walkfield.infer.genetics import _robert_tail
from walkfield.infer.specs import (
    DIFFUSION,
    SPATIAL,
    GaussianModelSpec,
    PosteriorSamples,
    PriorSpec,
    chain_length,
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

    def test_singular_regression_precision_raises(self, columbus):
        # a constant covariate duplicates the intercept, and a prior this
        # flat leaves the 2x2 (mu, beta) precision singular in floating point
        graph, crime, _ = columbus
        spec = GaussianModelSpec(response=crime, covariate=np.ones(crime.size),
                                 variant=SPATIAL, graph=graph, standardize=False,
                                 priors=PriorSpec(regression_sd=1e20))
        with pytest.raises(NumericalError, match="pivot"):
            fit_gaussian(spec, iterations=20, burnin=10, seed=0)

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


@pytest.mark.parametrize("mean, sd", [
    (1.0, 1.0),     # a = -1: rejection from the whole normal
    (0.0, 2.0),     # a = 0: Robert's sampler at its edge, a half-normal
    (-8.0, 1.0),    # a = 8: Robert's sampler deep in the tail
    (0.3, 1e-9),    # tiny sd: a = -3e8, a normal that never meets the bound
], ids=["a<0", "a=0", "a>>0", "tiny-sd"])
def test_positive_normal_matches_truncnorm(mean, sd):
    rng = np.random.default_rng(7)
    x = np.array([_positive_normal(rng, mean, sd) for _ in range(20000)])
    assert (x > 0.0).all()
    law = stats.truncnorm(-mean / sd, np.inf, loc=mean, scale=sd)
    assert stats.kstest(x, law.cdf).pvalue > 1e-3


def directed_cycle_spec():
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
    return GaussianModelSpec(response=rng.normal(size=m), covariate=rng.normal(size=m),
                             variant=SPATIAL, graph=g)


@pytest.mark.parametrize("iterations, burnin, thin, match", [
    (100, -1, 1, "burnin must be nonnegative"),
    (10, 10, 1, "iterations must exceed burnin"),
    (5, 10, 1, "iterations must exceed burnin"),
    (100, 10, 0, "thin must be at least 1"),
    (100, 10, -2, "thin must be at least 1"),
], ids=["negative-burnin", "no-draws", "burnin-past-end", "thin-0", "negative-thin"])
def test_fit_gaussian_rejects_bad_chain_lengths(iterations, burnin, thin, match):
    with pytest.raises(DataError, match=match):
        fit_gaussian(directed_cycle_spec(), iterations=iterations, burnin=burnin, seed=0,
                     thin=thin)


def test_chain_length_counts_the_kept_sweeps():
    for iterations, burnin, thin in [(1, 0, 1), (10, 3, 3), (10, 3, 7), (10, 3, 8), (9, 0, 2)]:
        assert chain_length(iterations, burnin, thin) == len(range(burnin, iterations, thin))
    s = fit_gaussian(directed_cycle_spec(), iterations=20, burnin=5, seed=0, thin=4)
    assert s.n_draws == chain_length(20, 5, 4) == 4


def _two_paths():
    # two 3-node paths with no edge between them: Q is reducible
    edges = [Edge(i, j, EdgeCovariates(1.0))
             for a, b in [(0, 1), (1, 2), (3, 4), (4, 5)] for i, j in [(a, b), (b, a)]]
    return SpatialGraph(6, tuple(f"n{i}" for i in range(6)), tuple(edges))


@pytest.mark.parametrize("spec, match", [
    pytest.param(lambda: GaussianModelSpec(response=np.arange(6.0), covariate=np.arange(6.0),
                                           variant=SPATIAL, graph=_two_paths()),
                 "must be connected", id="disconnected-graph"),
    pytest.param(lambda: replace(directed_cycle_spec(), covariate=np.full(6, 2.5)),
                 "covariate is constant; cannot standardize", id="constant-covariate"),
])
def test_fit_gaussian_rejects_bad_models(spec, match):
    with pytest.raises(DataError, match=match):
        fit_gaussian(spec(), iterations=20, burnin=5, seed=0)


class TestDirectedGraph:
    def test_eta_sums_to_zero_on_directed_cycle(self):
        spec = directed_cycle_spec()
        m = spec.graph.node_count
        s = fit_gaussian(spec, iterations=2000, burnin=500, seed=1)
        eta = s.draws[:, [s.names.index(f"eta_{i}") for i in range(m)]]
        assert np.abs(eta.sum(axis=1)).max() < 1e-9


def _reference_fit_gaussian(
    spec: GaussianModelSpec,
    iterations: int,
    burnin: int,
    seed: int,
    thin: int = 1,
    include_likelihood: bool = True,
) -> PosteriorSamples:
    """The sampler before the closed-form (mu, beta) step and the block of
    noise, frozen as the oracle with the exact sigma draw restated from its
    formula: the new sweep must give the same chain up to roundoff."""
    if iterations <= burnin:
        raise DataError("iterations must exceed burnin")
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
    X = np.column_stack([np.ones(m), x])
    like = 1.0 if include_likelihood else 0.0

    # initialization: least squares for (mu, beta), eta = 0, tau2 at residual variance
    coef, *_ = np.linalg.lstsq(X, c, rcond=None)
    mu, beta = float(coef[0]), float(coef[1])
    resid0 = c - X @ coef
    tau2 = float(resid0 @ resid0) / max(m - 2, 1)
    sigma = 1.0
    w = np.zeros(m - 1)

    prior_prec_reg = 1.0 / pr.regression_sd**2
    n_keep = (iterations - burnin + thin - 1) // thin
    names = ["mu", "beta", "sigma", "tau"] + [f"eta_{i}" for i in range(m)]
    draws = np.empty((n_keep, len(names)))
    logliks = np.empty(n_keep)
    kept = 0

    for it in range(iterations):
        eta = U @ w

        # (mu, beta): conjugate bivariate Gaussian
        y_reg = c - sigma * eta
        A = like * (X.T @ X) / tau2 + prior_prec_reg * np.eye(2)
        bvec = like * (X.T @ y_reg) / tau2
        chol = np.linalg.cholesky(A)
        mean_reg = np.linalg.solve(A, bvec)
        z2 = rng.standard_normal(2)
        coef = mean_reg + np.linalg.solve(chol.T, z2)
        mu, beta = float(coef[0]), float(coef[1])

        # eta coordinates: independent in the eigenbasis
        y_eta = c - mu - beta * x
        proj = U.T @ y_eta
        prec_w = d_pos + like * sigma * sigma / tau2
        mean_w = like * (sigma / tau2) * proj / prec_w
        w = mean_w + rng.standard_normal(m - 1) / np.sqrt(prec_w)
        eta = U @ w

        # sigma | rest ~ N(m, v) truncated to sigma > 0, where the half-normal
        # prior contributes precision 1/s^2: x ~ N(0, 1) beyond a = -m/sqrt(v)
        prec_s = like * float(eta @ eta) / tau2 + 1.0 / pr.re_sd_scale**2
        m_s = like * float(eta @ y_eta) / tau2 / prec_s
        sd_s = 1.0 / math.sqrt(prec_s)
        a = -m_s / sd_s
        if a < 0.0:
            while True:
                z1 = rng.standard_normal()
                if z1 > a:
                    break
        else:
            z1 = _robert_tail(rng, a)
        sigma = m_s + sd_s * z1

        # tau2: conjugate inverse-gamma
        resid = c - mu - beta * x - sigma * eta
        shape = pr.tau2_shape + like * 0.5 * m
        rate = pr.tau2_scale + like * 0.5 * float(resid @ resid)
        gdraw = rng.gamma(shape, 1.0 / rate)
        if gdraw <= 0.0:
            raise NumericalError(
                f"inverse-gamma draw underflowed (shape={shape:g}); "
                "shapes this small are only reachable in prior-only runs"
            )
        tau2 = 1.0 / gdraw

        if it >= burnin and (it - burnin) % thin == 0:
            tau = math.sqrt(tau2)
            draws[kept, 0] = mu
            draws[kept, 1] = beta
            draws[kept, 2] = sigma
            draws[kept, 3] = tau
            draws[kept, 4:] = eta
            r = c - mu - beta * x - sigma * eta
            logliks[kept] = (-0.5 * m * math.log(2.0 * math.pi * tau2)
                             - 0.5 * float(r @ r) / tau2)
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


def _assert_same_chain(spec, **kw):
    ref = _reference_fit_gaussian(spec, **kw)
    s = fit_gaussian(spec, **kw)
    assert s.names == ref.names
    np.testing.assert_allclose(s.draws, ref.draws, rtol=0,
                               atol=1e-12 * np.abs(ref.draws).max())
    np.testing.assert_allclose(s.loglik, ref.loglik, rtol=0,
                               atol=1e-12 * np.abs(ref.loglik).max())
    return s, ref


class TestAgainstReferenceSampler:
    @pytest.mark.parametrize("seed", [21, 22])
    @pytest.mark.parametrize("variant", [SPATIAL, DIFFUSION])
    def test_columbus(self, columbus, variant, seed):
        _assert_same_chain(make_spec(columbus, variant), iterations=3000, burnin=500,
                           seed=seed)

    def test_unstandardized_covariate(self, columbus):
        # x sums to zero in the cases above, so only here does the
        # off-diagonal of the (mu, beta) precision carry weight
        _assert_same_chain(make_spec(columbus, SPATIAL, standardize=False),
                           iterations=3000, burnin=500, seed=25)

    def test_thinned(self, columbus):
        _assert_same_chain(make_spec(columbus, SPATIAL), iterations=1200, burnin=300,
                           seed=23, thin=3)

    def test_prior_mode_is_bitwise(self, columbus):
        spec = make_spec(columbus, SPATIAL,
                         priors=PriorSpec(tau2_shape=3.0, tau2_scale=4.0))
        s, ref = _assert_same_chain(spec, iterations=2000, burnin=500, seed=24,
                                    include_likelihood=False)
        np.testing.assert_array_equal(s.draws, ref.draws)
        np.testing.assert_array_equal(s.loglik, ref.loglik)

    def test_directed_cycle(self):
        _assert_same_chain(directed_cycle_spec(), iterations=2000, burnin=500, seed=1)
