"""End-to-end acceptance checks for the whole package.

Each section exercises one deliverable at its stated tolerance: the
Columbus crime fits against the exact posterior of the documented model
(with the published reference values kept on record), the SAR identity,
the confounded-pair construction, the large-population limit, the field
law against dense oracles, genetics posterior recovery on a synthetic
stream network, the prior-sampling audit of the Gibbs sweeps, and CLI
determinism.  These are intentionally slower than the unit tests.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from walkfield import (
    DemographyRates,
    IntrinsicField,
    check_identifiable,
    construct_confounded_pair,
    convergence_gap,
    generator_from_rates,
    log_density,
    log_pseudo_det,
    sample_fields,
    stationary_precision,
    to_sar,
    verify_unique,
)
from walkfield.cli import main
from walkfield.datasets import columbus_fixture, stream_network
from walkfield.infer import (
    DIFFUSION,
    SPATIAL,
    GaussianModelSpec,
    PriorSpec,
    compute_dic,
    fit_gaussian,
    gaussian_loglik_fn,
)
from walkfield.infer.genetics import fit_probit_genetics, simulate_genetics

SEED = 20260826


def rand_generator(rng, m, lo=0.5, hi=2.0, extra_p=0.3):
    """Random irreducible generator: symmetric spanning path plus extras,
    independent (asymmetric) rates on every directed edge."""
    pairs = {(i, i + 1) for i in range(m - 1)} | {(i + 1, i) for i in range(m - 1)}
    for i in range(m):
        for j in range(m):
            if i != j and rng.random() < extra_p:
                pairs.add((i, j))
    return generator_from_rates(m, {p: float(rng.uniform(lo, hi)) for p in pairs})


# --- 1. Columbus crime fits vs the exact posterior ----------------------
#
# The eight posterior-mean cases compare the chain against the exact
# posterior of the model that walkfield.infer.gaussian documents:
# c = mu + beta*x + sigma*eta + eps, eta ~ N(0, (QQ')^+) on the sum-zero
# subspace, eps ~ N(0, tau^2 I), with the PriorSpec defaults.  Columbus
# has unit distances, so Q is the graph Laplacian L.  The oracle below is
# dense numpy only: L from the graph's edge list, the diffusion covariate
# as pinv(L') times the standardised h.  eta, mu and beta are integrated
# out analytically (c | sigma, tau ~ N(mu + beta*x, sigma^2 (LL')^+ +
# tau^2 I)), and the means are sums over a log-spaced (sigma, tau) grid.
# The fixture checks the grid itself: means on an n and a 2n grid agree to
# 1e-3 and the grid boundary carries under 1e-6 of the posterior mass, so a
# badly placed grid cannot become an expected value.
#
# Measured at this seed and length (chain +/- batch-means SE, 100 batches):
#
#   quantity         chain               exact     REF
#   spatial mu       35.123 +/- 0.006    35.123    35.12
#   spatial beta     -8.661 +/- 0.021    -8.644    -9.28
#   spatial sigma    20.044 +/- 0.209    19.856
#   spatial tau       8.697 +/- 0.043     8.727    10.75
#   diffusion mu     35.127 +/- 0.007    35.120    35.13
#   diffusion beta  -14.983 +/- 0.133   -15.011    -9.38
#   diffusion sigma  17.392 +/- 0.174    17.286
#   diffusion tau    10.778 +/- 0.030    10.795    11.51
#
# Every gap between chain and exact is within 1.1 SE.  The exact tau
# marginal has a plateau towards tau -> 0 (0.35% of the spatial mass lies
# below tau = 1); a grid that starts at 0.5 drops it, reads 8.747 and
# -15.028, and fails the boundary check.
#
# REF holds posterior means from an earlier published analysis of these
# data.  Its spatial tau and diffusion beta belong to a model or prior
# that this repository does not record; none of CAR precision L, inverse-
# centroid-distance rates, row-standardised Q'Q or inverse-gamma priors on
# sigma^2 reproduces all six.  REF stays here as the record of the
# external values.
#
# The DIC-ordering assert is kept as written and fails: under the
# documented model DIC(spatial) = 362.8 < DIC(diffusion) = 383.1.  This is
# not a sampler or DIC artefact: the chain matches the exact posterior,
# DIC with eta integrated out still prefers spatial (387.7 vs 398.9), and
# plugging in the posterior-mean linear predictor moves either DIC by at
# most 1.4.  Which model or prior the published ordering came from is not
# settled here.

REF = {
    "spatial": {"mu": 35.12, "beta": -9.28, "tau": 10.75},
    "diffusion": {"mu": 35.13, "beta": -9.38, "tau": 11.51},
}
REF_TOL = 1.5
MIN_DIC_GAP = 10.0
ORACLE_GRID = 200
ORACLE_SIGMA = (1e-4, 1e3)
ORACLE_TAU = (1e-2, 1e3)


def laplacian_from_edges(graph):
    """Dense generator at zero rate coefficients: rate 1/d on every edge."""
    L = np.zeros((graph.node_count, graph.node_count))
    for e in graph.edges:
        L[e.src, e.dst] -= 1.0 / e.cov.distance
        L[e.src, e.src] += 1.0 / e.cov.distance
    return L


def exact_posterior_means(c, x, L, priors, n):
    """Posterior means of mu, beta, sigma, tau on an n x n log grid.

    Returns (means, boundary mass).  In the eigenbasis of LL' the marginal
    covariance sigma^2 (LL')^+ + tau^2 I is diagonal; mu and beta enter
    through their conjugate Gaussian prior, so each grid point gets its
    collapsed log-likelihood and the conditional mean of (mu, beta) in
    closed form.  Priors become densities on (log sigma, log tau).
    """
    lam2, U = np.linalg.eigh(L @ L.T)
    assert lam2[1] > 1e-10 * lam2[-1], "LL' must have rank M-1"
    inv = np.zeros_like(lam2)
    inv[1:] = 1.0 / lam2[1:]
    X = np.column_stack([np.ones_like(x), x])
    ct, Xt = U.T @ c, U.T @ X
    sig = np.geomspace(*ORACLE_SIGMA, n)
    tau = np.geomspace(*ORACLE_TAU, n)
    logpost = np.empty((n, n))
    coef = np.empty((n, n, 2))
    for i, s in enumerate(sig):
        d = s * s * inv + tau[:, None] ** 2  # (tau, eigen) covariance diagonal
        w = 1.0 / d
        A = np.einsum("kp,tk,kq->tpq", Xt, w, Xt) + np.eye(2) / priors.regression_sd**2
        b = (w * ct) @ Xt
        coef[i] = np.linalg.solve(A, b[..., None])[..., 0]
        quad = w @ ct**2 - np.einsum("tp,tp->t", b, coef[i])
        logpost[i] = -0.5 * (np.log(d).sum(axis=1) + np.linalg.slogdet(A)[1] + quad)
    logpost += (np.log(sig) - 0.5 * (sig / priors.re_sd_scale) ** 2)[:, None]
    logpost -= priors.tau2_shape * np.log(tau**2) + priors.tau2_scale / tau**2
    p = np.exp(logpost - logpost.max())
    p /= p.sum()
    means = {
        "mu": float(np.sum(p * coef[..., 0])),
        "beta": float(np.sum(p * coef[..., 1])),
        "sigma": float(p.sum(axis=1) @ sig),
        "tau": float(p.sum(axis=0) @ tau),
    }
    return means, 1.0 - float(p[1:-1, 1:-1].sum())


@pytest.fixture(scope="module")
def columbus_fits():
    graph, crime, home = columbus_fixture()
    L = laplacian_from_edges(graph)
    h = (home - home.mean()) / home.std(ddof=1)
    out = {}
    for name, variant, x in (("spatial", SPATIAL, h),
                             ("diffusion", DIFFUSION, np.linalg.pinv(L.T) @ h)):
        spec = GaussianModelSpec(
            response=crime, covariate=home, variant=variant, graph=graph
        )
        samples = fit_gaussian(spec, iterations=60000, burnin=10000, seed=SEED)
        assert samples.n_draws >= 50000
        dic = compute_dic(samples, gaussian_loglik_fn(spec))
        exact, boundary = exact_posterior_means(crime, x, L, spec.priors, ORACLE_GRID)
        finer, _ = exact_posterior_means(crime, x, L, spec.priors, 2 * ORACLE_GRID)
        assert boundary < 1e-6, f"{name}: grid boundary holds {boundary:.1e} of the mass"
        for k, v in exact.items():
            assert abs(v - finer[k]) < 1e-3, f"{name} {k}: grid not converged"
        out[name] = (samples, dic, exact)
    return out


@pytest.mark.parametrize("model", ["spatial", "diffusion"])
@pytest.mark.parametrize("param", ["mu", "beta", "sigma", "tau"])
def test_columbus_posterior_means(columbus_fits, model, param):
    samples, _, exact = columbus_fits[model]
    got = float(samples.column(param).mean())
    # the published analysis gave no sigma
    published = REF[model].get(param, "not given")
    assert got == pytest.approx(exact[param], abs=REF_TOL), (
        f"{model} {param}: chain mean {got:.2f} vs exact posterior mean "
        f"{exact[param]:.2f} +/- {REF_TOL} (published {published})"
    )


def test_columbus_dic_prefers_diffusion(columbus_fits):
    dic_s = columbus_fits["spatial"][1].dic
    dic_d = columbus_fits["diffusion"][1].dic
    assert dic_d < dic_s - MIN_DIC_GAP, (
        f"DIC(diffusion)={dic_d:.1f} should beat DIC(spatial)={dic_s:.1f} "
        f"by at least {MIN_DIC_GAP}"
    )


# --- 2. SAR correspondence ----------------------------------------------


def test_sar_identity_200_random_graphs():
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        m = int(rng.integers(3, 33))
        Q = rand_generator(rng, m)
        B, lam = to_sar(Q)
        lhs = (np.eye(m) - B).T @ np.diag(1.0 / lam) @ (np.eye(m) - B)
        P = stationary_precision(Q).toarray()
        np.testing.assert_allclose(lhs, P, atol=1e-10)


# --- 3. Confounded pairs and the uniqueness probe -----------------------


def test_confounded_cycles_all_sizes():
    rng = np.random.default_rng(7)
    for m in range(3, 9):
        rates = rng.uniform(0.3, 3.0, size=m)
        q, w = construct_confounded_pair(rates)
        gap = np.max(np.abs((q.matrix @ q.matrix.T - w.matrix @ w.matrix.T).toarray()))
        assert gap < 1e-12 * float(rates.max()) ** 2
        assert np.max(np.abs((q.matrix - w.matrix).toarray())) > 1e-6


# One Powell restart (at most 4000 evaluations) per graph.  On a 2-vCPU
# x86-64 VM this test takes ~5 s and the whole tier-1 suite ~3 min.  A
# pass means the restarts found no distinct W, not that none exists: see
# the verify_unique docstring.
def test_uniqueness_probe_on_50_identifiable_graphs():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 50:
        Q = rand_generator(rng, int(rng.integers(4, 7)))
        if check_identifiable(Q).classification != "IdentifiableByTheorem":
            continue
        assert verify_unique(Q, trials=1, seed=checked)
        checked += 1


# --- 4. Large-population limit ------------------------------------------


def test_gap_to_ode_shrinks_with_population():
    m = 4
    rates = {(i, (i + 1) % m): 1.0 for i in range(m)}
    rates.update({(i, (i - 1) % m): 1.0 for i in range(m)})
    Q = generator_from_rates(m, rates)
    demo = DemographyRates(b=np.full(m, 0.5), d=np.full(m, 0.5))  # balanced
    gaps = convergence_gap(
        Q, demo, np.full(m, 0.25), t_end=1.0, N_list=[100, 1000, 10000],
        replicates=20, seed=SEED,
    )
    assert gaps[100] > gaps[1000] > gaps[10000]


# --- 5. Field law vs dense oracles --------------------------------------


def sym_generator(rng, m):
    pairs = {(i, i + 1) for i in range(m - 1)}
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.4:
                pairs.add((i, j))
    rates = {}
    for i, j in pairs:
        r = float(rng.uniform(0.5, 2.0))
        rates[(i, j)] = r
        rates[(j, i)] = r
    return generator_from_rates(m, rates)


def test_empirical_field_covariance_matches_dense():
    rng = np.random.default_rng(13)
    Q = sym_generator(rng, 5)
    sigma = 1.4
    n = 100000
    draws = sample_fields(IntrinsicField(Q, sigma=sigma), n, seed=SEED)
    P = stationary_precision(Q).toarray()
    evals, evecs = np.linalg.eigh(P)
    cov = sigma**2 * (evecs[:, 1:] / evals[1:]) @ evecs[:, 1:].T
    emp = np.cov(draws.T)
    # per-entry Monte Carlo standard error of a sample covariance
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
    assert np.all(np.abs(emp - cov) <= 3.0 * se)


def test_log_density_matches_dense_oracle():
    rng = np.random.default_rng(17)
    for _ in range(10):
        m = int(rng.integers(3, 11))
        Q = sym_generator(rng, m)
        sigma = float(rng.uniform(0.5, 2.0))
        fld = IntrinsicField(Q, sigma=sigma)
        pi = sample_fields(fld, 1, seed=int(rng.integers(1 << 30)))[0]
        P = stationary_precision(Q).toarray()
        evals = np.linalg.eigvalsh(P)
        oracle = (
            -0.5 * (m - 1) * math.log(2 * math.pi * sigma**2)
            + 0.5 * float(np.sum(np.log(evals[1:])))
            - 0.5 * float(pi @ P @ pi) / sigma**2
        )
        assert log_density(pi, fld) == pytest.approx(oracle, abs=1e-8)


def test_log_pseudo_det_shift_identity():
    rng = np.random.default_rng(19)
    for _ in range(10):
        m = int(rng.integers(3, 11))
        P_sp = stationary_precision(sym_generator(rng, m))
        lp = log_pseudo_det(P_sp)
        a = float(rng.uniform(0.2, 5.0))
        sign, logdet = np.linalg.slogdet(P_sp.toarray() + a * np.ones((m, m)) / m)
        assert sign == 1.0
        assert logdet == pytest.approx(lp + math.log(a), abs=1e-8)


# --- 6. Genetics posterior recovery -------------------------------------


def test_genetics_recovers_downstream_dominance():
    # Synthetic stream network; true rate coefficients (0, 1, -1): strong
    # downstream bias, barrier penalty.  The fixed-seed posterior must
    # cover beta_1 and put >90% mass on beta_1 > 0.
    spec, truth = simulate_genetics(
        stream_network(), beta_true=(0.0, 1.0, -1.0), n_loci=8,
        n_categories=4, individuals_per_node=5, seed=42,
    )
    samples = fit_probit_genetics(spec, iterations=4000, burnin=1500, seed=7,
                                  compute_loglik_every=20)
    b1 = samples.column("beta_1")
    lo, hi = np.quantile(b1, [0.025, 0.975])
    assert lo <= truth["beta"][1] <= hi
    assert float((b1 > 0).mean()) > 0.9


# --- 7. Prior-recovery audit of the Gibbs sweeps -------------------------


def batch_se(x, n_batches=100):
    """Batch-means standard error of the mean for a correlated chain."""
    n = x.size - x.size % n_batches
    means = x[:n].reshape(n_batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))


def test_gaussian_sweep_prior_audit():
    # Likelihood disabled: each update must return its own prior.  The
    # noise-variance prior is tightened to an inverse-gamma with finite
    # mean and variance so moments are checkable.
    rng = np.random.default_rng(0)
    m = 4
    priors = PriorSpec(regression_sd=100.0, re_sd_scale=100.0,
                       tau2_shape=3.0, tau2_scale=4.0)
    from test_graph import line_graph
    spec = GaussianModelSpec(
        response=rng.normal(size=m), covariate=rng.normal(size=m),
        variant=SPATIAL, graph=line_graph(m), priors=priors,
    )
    n = 100000
    s = fit_gaussian(spec, iterations=n + 1, burnin=1, seed=SEED,
                     include_likelihood=False)
    for name in ("mu", "beta"):
        x = s.column(name)
        se_mean = 100.0 / math.sqrt(n)
        assert abs(x.mean()) < 3.0 * se_mean
        se_var = 100.0**2 * math.sqrt(2.0 / (n - 1))
        assert abs(x.var(ddof=1) - 100.0**2) < 3.0 * se_var
    sig = s.column("sigma")
    hn_mean = 100.0 * math.sqrt(2.0 / math.pi)
    hn_sd = 100.0 * math.sqrt(1.0 - 2.0 / math.pi)
    assert abs(sig.mean() - hn_mean) < 3.0 * hn_sd / math.sqrt(n)
    # the sigma draws are iid here: the sample variance has sd
    # sqrt((mu4 - sd^4) / n), mu4 the half-normal's fourth central moment
    mu4 = 100.0**4 * (3.0 - 4.0 / math.pi - 12.0 / math.pi**2)
    assert abs(sig.var(ddof=1) - hn_sd**2) < 3.0 * math.sqrt((mu4 - hn_sd**4) / n)
    tau2 = s.column("tau") ** 2
    # IG(3, 4): mean 2, variance 4; the variance estimator of a heavy-tailed
    # draw is noisy, so bound it with its own batch-means error
    assert abs(tau2.mean() - 2.0) < 3.0 * batch_se(tau2)
    assert abs(tau2.var(ddof=1) - 4.0) < 3.0 * batch_se((tau2 - 2.0) ** 2)


def test_genetics_sweep_prior_audit():
    # Metropolis updates deliver correlated prior draws; batch-means
    # errors account for that.  The rate-coefficient prior is kept narrow
    # so the prior random walk stays inside the rate model's overflow
    # guard.
    spec, _ = simulate_genetics(
        stream_network(6, 4, 3, barrier_edges=((1, 2),)),
        beta_true=(0.0, 0.5, -0.5), n_loci=2, n_categories=3,
        individuals_per_node=3, seed=1,
    )
    spec = replace(spec, priors=PriorSpec(rate_beta_sd=2.0, mu_lk_sd=1.5))
    n = 100000
    s = fit_probit_genetics(spec, iterations=n, burnin=0, seed=SEED,
                            include_likelihood=False)
    for j in range(3):
        x = s.column(f"beta_{j}")
        assert abs(x.mean()) < 3.0 * batch_se(x)
        x2 = x**2
        assert abs(x2.mean() - 4.0) < 3.0 * batch_se(x2)
    mu = s.column("mu_0_1")
    assert abs(mu.mean()) < 3.0 * batch_se(mu)
    mu2 = mu**2
    assert abs(mu2.mean() - 1.5**2) < 3.0 * batch_se(mu2)


# --- 8. CLI determinism --------------------------------------------------


def test_cli_reruns_are_byte_identical(tmp_path):
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.csv"
    nodes.write_text("node_id,label\n" + "".join(f"{i},n{i}\n" for i in range(4)))
    edges.write_text("from,to,distance\n0,1,1.0\n1,2,2.0\n2,3,1.0\n3,0,1.0\n")
    data = tmp_path / "data.csv"
    rng = np.random.default_rng(1)
    h = rng.normal(size=4)
    y = 2.0 - h + 0.2 * rng.normal(size=4)
    data.write_text(
        "node_id,y,h\n"
        + "".join(f"{i},{float(y[i])!r},{float(h[i])!r}\n" for i in range(4))
    )
    base = f"nodes={nodes}\nedges={edges}\nsymmetric=true\n"
    fit_cfg = tmp_path / "fit.cfg"
    fit_cfg.write_text(
        base + f"model=spatial\ndata={data}\nresponse=y\ncovariate=h\n"
        "iterations=800\nburnin=200\n"
    )
    runs = {
        "build": (base, []),
        "check-ident": (base, []),
        "simulate-field": (base + "sigma=1.5\n", ["--seed", "3"]),
        "simulate-population": (
            base + "N=300\nt_end=1.0\nsnapshot_every=0.25\n", ["--seed", "3"]),
        "convergence": (
            base + "N_list=50;200\nt_end=0.5\nreplicates=3\n", ["--seed", "3"]),
        "fit": (fit_cfg.read_text(), ["--seed", "3"]),
    }
    samples_path = None
    for verb, (cfg_text, extra) in runs.items():
        cfg = tmp_path / f"{verb}.cfg"
        cfg.write_text(cfg_text)
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{verb}-{run}"
            code = main([verb, "--config", str(cfg), "--out", str(out),
                         "--quiet"] + extra)
            assert code == 0, verb
            outs.append(out)
        produced = json.loads((outs[0] / "manifest.json").read_text())["outputs"]
        assert produced
        for path in produced:
            name = path.rsplit("/", 1)[-1]
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (
                f"{verb}: {name} differs between identical runs"
            )
        if verb == "fit":
            samples_path = outs[0] / "samples.csv"
    # dic and diagnose consume the fit output; rerun each twice as well
    dic_cfg = tmp_path / "dic.cfg"
    dic_cfg.write_text(fit_cfg.read_text() + f"samples={samples_path}\n")
    diag_cfg = tmp_path / "diag.cfg"
    diag_cfg.write_text(f"samples={samples_path}\n")
    for verb, cfg in (("dic", dic_cfg), ("diagnose", diag_cfg)):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{verb}-{run}"
            assert main([verb, "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 0
            outs.append(out)
        produced = json.loads((outs[0] / "manifest.json").read_text())["outputs"]
        for path in produced:
            name = path.rsplit("/", 1)[-1]
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
