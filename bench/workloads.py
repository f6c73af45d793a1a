"""The four benchmark workloads.

Each workload is built from --seed in its constructor (the set-up), runs
one round of fixed operations per `round` call through an OpRecorder,
and returns the problems its checks found from `check`.  `figures` gives
its three named timings, medians over the rounds.  Layer functions are
always looked up on their module at call time, so the traced run sees
every call.  Inputs come only from the seed; the program never sees it.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from pathlib import Path

import numpy as np
import scipy.linalg

import oracles
import walkfield.cli as wf_cli
import walkfield.datasets as wf_datasets
import walkfield.field as wf_field
import walkfield.graph as wf_graph
import walkfield.ident as wf_ident
import walkfield.infer.genetics as wf_genetics
import walkfield.popsim as wf_popsim

DATA = Path(wf_datasets.__file__).resolve().parent / "data"
BETA_STREAM = (0.0, 1.0, -1.0)  # intercept, downstream bias, barrier penalty
Z_BOUND = 6.0  # standard errors allowed between a Monte Carlo estimate and its target
# Chain means get a wider band: 20 batch means underestimate the standard
# error of the autocorrelated sigma/tau chain.  Over 60 chains of 3000
# iterations the z-scores had a standard deviation of up to 1.33 and the
# largest |z| was 3.96.
CHAIN_Z = 8.0


def sub_seed(seed, *keys):
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def median(values):
    return statistics.median(values) if values else 0.0


def loglinear_rates(graph, beta):
    """Edge rates exp(b0 + b1*down + b2*barrier) / d, computed apart from the program."""
    return {(e.src, e.dst): math.exp(beta[0] + beta[1] * e.cov.downstream
                                     + beta[2] * e.cov.barrier) / e.cov.distance
            for e in graph.edges}


class ColumbusCli:
    """`walkfield fit`, `dic` and `diagnose` for both variants on Columbus.

    The outputs stay on disk, and `check` reads them back after the timed
    part.
    """

    ITERATIONS = 3000
    BURNIN = 500
    VARIANTS = ("spatial", "diffusion")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.fits = []  # (variant, output directory); read back by check()
        self.ess = []  # per fit, filled by check()
        self.fit_cfg = {}
        for variant in self.VARIANTS:
            keys = {"fixture": "columbus", "model": variant,
                    "iterations": self.ITERATIONS, "burnin": self.BURNIN, **oracles.PRIORS}
            path = self.workdir / f"fit-{variant}.cfg"
            path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
            self.fit_cfg[variant] = (path, keys)

    def round(self, rec):
        for v, variant in enumerate(self.VARIANTS):
            cfg, keys = self.fit_cfg[variant]
            out = self.workdir / f"{variant}-{rec.round}"
            samples = out / "samples.csv"
            post_cfg = self.workdir / f"post-{variant}-{rec.round}.cfg"
            post_cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items())
                                + f"samples = {samples}\n")
            diag_cfg = self.workdir / f"diag-{variant}-{rec.round}.cfg"
            diag_cfg.write_text(f"samples = {samples}\n")
            seed = sub_seed(self.seed, rec.round, v) % 2**31
            rec.run("fit", cli, "fit", "--config", cfg, "--seed", seed, "--out", out)
            rec.run("dic", cli, "dic", "--config", post_cfg, "--out", out)
            rec.run("diagnose", cli, "diagnose", "--config", diag_cfg, "--out", out)
            self.fits.append((variant, out))

    def _data(self):
        with open(DATA / "columbus_nodes.csv") as f:
            rows = sorted(csv.DictReader(f), key=lambda r: int(r["node_id"]))
        c = np.array([float(r["crime"]) for r in rows])
        h = np.array([float(r["home_value"]) for r in rows])
        rates = {}
        with open(DATA / "columbus_edges.csv") as f:
            for r in csv.DictReader(f):
                i, j, d = int(r["from"]), int(r["to"]), float(r["distance"])
                rates[(i, j)] = rates[(j, i)] = 1.0 / d
        lap = oracles.dense_generator(c.size, rates)
        h = (h - h.mean()) / h.std(ddof=1)
        return c, {"spatial": h, "diffusion": np.linalg.pinv(lap.T) @ h}, lap

    def check(self):
        problems = []
        c, design, lap = self._data()
        exact = {}
        for variant, x in design.items():
            exact[variant], boundary = oracles.gaussian_posterior_means(c, x, lap)
            if boundary > 1e-6:
                problems.append(f"{variant}: quadrature grid boundary holds {boundary:.1e}")
        for variant, out in self.fits:
            samples = out / "samples.csv"
            if not samples.is_file():
                continue
            with open(samples) as f:
                names = f.readline().strip().split(",")
            draws = np.loadtxt(samples, delimiter=",", skiprows=1)
            col = {n: draws[:, k] for k, n in enumerate(names)}
            for name in ("mu", "beta", "tau"):
                mean, se = oracles.batch_means(col[name])
                if abs(mean - exact[variant][name]) > CHAIN_Z * se:
                    problems.append(
                        f"{out.name}: {name} chain mean {mean:.4f} +/- {se:.4f} vs exact "
                        f"{exact[variant][name]:.4f}")
            self.ess.append(min(oracles.effective_size(col[n])
                                for n in ("mu", "beta", "sigma", "tau")) / self.ITERATIONS)
            params = draws[:, [names.index(n) for n in
                               ["mu", "beta", "sigma", "tau"]
                               + [f"eta_{i}" for i in range(c.size)]]]
            dic_path = out / "dic.json"
            if dic_path.is_file():
                got = json.loads(dic_path.read_text())["dic"]
                want = oracles.dic(c, design[variant], params)
                if abs(got - want) > 1e-6 * max(1.0, abs(want)):
                    problems.append(f"{out.name}: dic.json {got:.6f} vs recomputed {want:.6f}")
            diag_path = out / "diagnostics.json"
            if diag_path.is_file():
                diag = json.loads(diag_path.read_text())
                half = draws.shape[0] // 2
                for name in ("mu", "beta", "sigma", "tau"):
                    got = (diag[name]["mean_first"], diag[name]["mean_second"])
                    want = (col[name][:half].mean(), col[name][half:].mean())
                    if not np.allclose(got, want, rtol=1e-9, atol=1e-12):
                        problems.append(f"{out.name}: diagnose half-means of {name} differ")
        return problems

    def figures(self, rec):
        return {"fit_s": rec.per_round("fit"), "dic_s": rec.per_round("dic"),
                "diagnose_s": rec.per_round("diagnose")}

    def layer_extras(self):
        return {"infer.gaussian.ess_per_sweep": median(self.ess)}


def cli(*argv):
    """One in-process `walkfield` command; a nonzero exit code is a failure."""
    code = wf_cli.main([str(a) for a in argv] + ["--quiet"])
    if code != 0:
        raise RuntimeError(f"walkfield {argv[0]} exited with code {code}")


class StreamGenetics:
    """simulate_genetics, then fit_probit_genetics with a sparse and with the
    default per-draw log-likelihood.

    Each fit is checked as soon as it returns, outside the operation
    timers, and only the findings are kept: memory stays the same however
    many rounds a run holds.
    """

    LOCI = 8
    CATEGORIES = 4
    PER_NODE = 5
    SWEEPS = 80
    BURNIN = 30
    LOGLIK_EVERY = 10
    # the default fit evaluates the marginal log-likelihood at every kept draw
    DEFAULT_SWEEPS = 16
    DEFAULT_BURNIN = 6
    SIMULATIONS = 4

    def __init__(self, seed, workdir):
        self.seed = seed
        self.graph = wf_datasets.stream_network()
        self.problems = []
        self.acceptance = []

    def round(self, rec):
        sims = [rec.run("simulate", wf_genetics.simulate_genetics, self.graph, BETA_STREAM,
                        self.LOCI, self.CATEGORIES, self.PER_NODE,
                        seed=sub_seed(self.seed, rec.round, 0, k))
                for k in range(self.SIMULATIONS)]
        sim = sims[0]  # the rest only time the short simulate call more often
        if sim is None:
            reason = rec.ops[-self.SIMULATIONS][-1]
            rec.fail("fit", reason)
            rec.fail("default_fit", reason)
            return
        spec, _ = sim
        samples = rec.run("fit", wf_genetics.fit_probit_genetics, spec,
                          iterations=self.SWEEPS, burnin=self.BURNIN,
                          seed=sub_seed(self.seed, rec.round, 1),
                          compute_loglik_every=self.LOGLIK_EVERY)
        if samples is not None:
            self.check_fit(f"round {rec.round} fit", spec, samples, self.LOGLIK_EVERY)
            above = float((samples.column("beta_1") > 0).mean())
            if not above > 0.9:
                self.problems.append(f"round {rec.round} fit: only {above:.2f} of beta_1 "
                                     "lies above 0 (truth 1)")
            self.acceptance.append(samples.metadata["acceptance"]["beta"])
        samples = rec.run("default_fit", wf_genetics.fit_probit_genetics, spec,
                          iterations=self.DEFAULT_SWEEPS, burnin=self.DEFAULT_BURNIN,
                          seed=sub_seed(self.seed, rec.round, 2))
        if samples is not None:
            self.check_fit(f"round {rec.round} default fit", spec, samples, 1)

    def check_fit(self, label, spec, samples, loglik_every):
        """Fields sum to zero, mu_l0 is pinned, and the stored log-likelihood
        of the first and the last evaluated draw matches a recomputation with
        mu_l0 = 0 and an independent quadrature."""
        m = spec.graph.node_count
        names = samples.names
        for l in range(spec.n_loci):
            if f"mu_{l}_0" in names:
                self.problems.append(f"{label}: mu_{l}_0 is sampled, not pinned at 0")
        fields = samples.draws[:, [k for k, s in enumerate(names) if s.startswith("eta_")]]
        fields = fields.reshape(samples.n_draws, -1, m)
        worst = np.abs(fields.sum(axis=2)).max()
        if worst > 1e-8 * max(1.0, np.abs(fields).max()) * m:
            self.problems.append(f"{label}: a retained field sums to {worst:.3g}")
        last = (samples.n_draws - 1) // loglik_every * loglik_every
        for row in (0, last):
            d = dict(zip(names, samples.draws[row]))
            total = 0.0
            for l, y in enumerate(spec.alleles):
                k = spec.n_categories[l]
                mu = np.array([0.0] + [d[f"mu_{l}_{c}"] for c in range(1, k)])
                eta = np.array([[d[f"eta_{l}_{c}_{s}"] for c in range(k)] for s in range(m)])
                logp = oracles.probit_category_logprobs(mu + eta[spec.node_of_individual])
                rows = np.arange(y.shape[0])
                total += float(logp[rows, y[:, 0]].sum() + logp[rows, y[:, 1]].sum())
            if abs(total - samples.loglik[row]) > 1e-6 * abs(total):
                self.problems.append(f"{label} draw {row}: log-likelihood "
                                     f"{samples.loglik[row]:.6f} vs recomputed {total:.6f}")
                break

    def check(self):
        return self.problems

    def figures(self, rec):
        return {"genetics_sweep_s": rec.per_round("fit") / self.SWEEPS,
                "simulate_s": rec.per_round("simulate"),
                "default_sweep_s": rec.per_round("default_fit") / self.DEFAULT_SWEEPS}

    def layer_extras(self):
        return {"infer.genetics.beta_acceptance": median(self.acceptance)}


class WalkerPopulation:
    """Open-population convergence study, then the closed population at larger N."""

    T_END = 1.0
    SNAPSHOT = 0.1
    N_LIST = (100, 400, 1600)
    REPLICATES = 3
    BIRTH = 0.05  # per node, times N; death is the same
    N_CLOSED = 5000

    def __init__(self, seed, workdir):
        self.seed = seed
        graph = wf_datasets.stream_network()
        rates = wf_graph.edge_rates_loglinear(graph, wf_graph.RateParams(BETA_STREAM))
        self.Q = wf_graph.build_generator(graph, rates)
        m = graph.node_count
        self.dense_q = oracles.dense_generator(m, loglinear_rates(graph, BETA_STREAM))
        rng = np.random.default_rng(sub_seed(seed, 0))
        # a moderate concentration keeps the walkers spread over the network,
        # so the event rate, and with it the cost, varies little between seeds
        self.z0 = rng.dirichlet(np.full(m, 20.0))
        self.n0 = rng.multinomial(self.N_CLOSED, self.z0)
        self.open = wf_popsim.DemographyRates(b=np.full(m, self.BIRTH), d=np.full(m, self.BIRTH))
        self.closed = wf_popsim.DemographyRates(b=np.zeros(m), d=np.zeros(m))
        self.exact = None  # expm(-Q't) z0 at the snapshots, from the first closed run
        self.problems = []

    def round(self, rec):
        gaps = rec.run("open", wf_popsim.convergence_gap, self.Q, self.open, self.z0,
                       self.T_END, self.N_LIST, self.REPLICATES, sub_seed(self.seed, rec.round, 0),
                       snapshot_every=self.SNAPSHOT)
        if gaps is not None:
            seq = [gaps[n] for n in self.N_LIST]
            if not all(a > b for a, b in zip(seq, seq[1:])):
                self.problems.append(f"round {rec.round}: open-phase gaps do not fall with N: {seq}")
        traj = rec.run("closed", wf_popsim.simulate_population, self.Q, self.closed, self.n0,
                       self.N_CLOSED, self.T_END, sub_seed(self.seed, rec.round, 1),
                       self.SNAPSHOT)
        ode = rec.run("ode", wf_popsim.integrate_limit_ode, self.Q, self.closed,
                      self.n0 / self.N_CLOSED, self.T_END, snapshot_every=self.SNAPSHOT)
        if traj is not None:
            self.check_closed(rec.round, traj, ode)

    def check_closed(self, n, traj, ode):
        if self.exact is None:
            z0 = self.n0 / self.N_CLOSED
            self.exact = np.array([scipy.linalg.expm(-self.dense_q.T * t) @ z0
                                   for t in traj.times])
        exact = self.exact
        if (traj.values.sum(axis=1) != self.N_CLOSED).any():
            self.problems.append(f"round {n}: closed population does not conserve N")
        var = np.clip(exact * (1.0 - exact), 0.0, None) / self.N_CLOSED
        off = np.abs(traj.density() - exact)
        if (off - Z_BOUND * np.sqrt(var) - 1e-12).max() > 0:
            self.problems.append(f"round {n}: closed density off expm(-Q't)z0 by {off.max():.3g}")
        if ode is not None and np.abs(ode.values - exact).max() > 1e-6:
            self.problems.append(f"round {n}: ODE snapshots off expm(-Q't)z0 by "
                                 f"{np.abs(ode.values - exact).max():.3g}")

    def check(self):
        return self.problems

    def figures(self, rec):
        return {"convergence_s": rec.per_round("open"),
                "closed_population_s": rec.per_round("closed"),
                "ode_s": rec.per_round("ode")}

    def layer_extras(self):
        return {}


def grid_rates(n):
    rates = {}
    for i in range(n):
        for j in range(n):
            k = i * n + j
            if j + 1 < n:
                rates[(k, k + 1)] = rates[(k + 1, k)] = 1.0
            if i + 1 < n:
                rates[(k, k + n)] = rates[(k + n, k)] = 1.0
    return rates


def reach_rates(n):
    """A single two-way reach of n nodes with unit rates."""
    rates = {}
    for i in range(n - 1):
        rates[(i, i + 1)] = rates[(i + 1, i)] = 1.0
    return rates


def dendritic_network(n_main=40, n_trib=49, trib_len=40):
    """Stream network: a mainstem with tributaries joining at even spacing.

    Node 0 is the mouth; the edge toward the mouth carries downstream=1,
    and two mainstem reaches are barriers.  No path is longer than about
    120 nodes, so the field on it can be built (see `reach_rates`).
    """
    pairs = [(i, i + 1) for i in range(n_main - 1)]
    nxt = n_main
    for t in range(n_trib):
        prev = (t * n_main) // n_trib
        for _ in range(trib_len):
            pairs.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    barriers = {(9, 10), (29, 30)}
    edges = []
    for lo, hi in pairs:
        v = int((lo, hi) in barriers)
        edges.append(wf_graph.Edge(hi, lo, wf_graph.EdgeCovariates(1.0, downstream=1, barrier=v)))
        edges.append(wf_graph.Edge(lo, hi, wf_graph.EdgeCovariates(1.0, downstream=0, barrier=v)))
    return wf_graph.SpatialGraph(nxt, tuple(f"site{i}" for i in range(nxt)), tuple(edges))


def small_identifiable(rng, m):
    """Random irreducible generator: a two-way path plus random extra edges."""
    pairs = {(i, i + 1) for i in range(m - 1)} | {(i + 1, i) for i in range(m - 1)}
    pairs |= {(i, j) for i in range(m) for j in range(m) if i != j and rng.random() < 0.3}
    return {p: float(rng.uniform(0.5, 2.0)) for p in sorted(pairs)}


def build_and_draw(Q, sigma, seed):
    fld = wf_field.IntrinsicField(Q, sigma=sigma)
    wf_field.sample_fields(fld, 1, seed)
    return fld


def log_densities(draws, fld):
    return np.array([wf_field.log_density(pi, fld) for pi in draws])


class FieldIdent:
    """Intrinsic fields at M ~ 2000 and a long reach, plus uniqueness probes.

    Four generators: a 44 x 44 grid and a dendritic stream network with
    symmetric rates, the same network with directed rates, and a single
    1000-node reach.  On the last two `IntrinsicField` fails today (see
    the README), so their draws and log densities are counted as failed.
    The reach only counts that failure and has no `constrained_solve`.
    Each round's draws are checked as soon as they exist, outside the
    operation timers; only the findings and one constant per field are
    kept, so memory stays the same however many rounds a run holds.
    """

    DRAWS = 300
    REACH = 1000
    PROBE_SIZE = 5
    PROBE_GRAPHS = 3

    def __init__(self, seed, workdir):
        self.seed = seed
        rng = np.random.default_rng(sub_seed(seed, 0))
        stream = dendritic_network()
        symmetric = wf_graph.RateParams((0.0, 0.0, 0.0))
        directed = wf_graph.RateParams(BETA_STREAM)
        self.generators = {  # name: (Q, rates computed apart from the program)
            "grid": (wf_graph.generator_from_rates(44 * 44, grid_rates(44)), grid_rates(44)),
            "stream": (wf_graph.build_generator(stream, wf_graph.edge_rates_loglinear(
                stream, symmetric)), loglinear_rates(stream, symmetric.beta)),
            "stream-directed": (wf_graph.build_generator(stream, wf_graph.edge_rates_loglinear(
                stream, directed)), loglinear_rates(stream, BETA_STREAM)),
            "reach": (wf_graph.generator_from_rates(self.REACH, reach_rates(self.REACH)),
                      reach_rates(self.REACH)),
        }
        self.sigma = {name: float(rng.uniform(0.5, 2.0)) for name in self.generators}
        self.rhs = {name: rng.standard_normal(Q.dim) for name, (Q, _) in self.generators.items()}
        self.probes = [wf_graph.generator_from_rates(
            self.PROBE_SIZE, small_identifiable(rng, self.PROBE_SIZE))
            for _ in range(self.PROBE_GRAPHS)]
        cycle = rng.uniform(0.5, 2.0, 5)
        self.planted, _ = wf_ident.construct_confounded_pair(cycle)
        self.planted_rates = {(i, (i - 1) % 5): float(cycle[i]) for i in range(5)}
        self.sparse = {}  # name: the benchmark's own CSR generator, built on first use
        self.constants = {}  # name: log_density + pi'QQ'pi/(2 sigma^2) of each round
        self.problems = []

    def round(self, rec):
        for k, (name, (Q, _)) in enumerate(self.generators.items()):
            seed = sub_seed(self.seed, rec.round, k)
            fld = rec.run("build", build_and_draw, Q, self.sigma[name], seed)
            if fld is not None:
                draws = rec.run("draws", wf_field.sample_fields, fld, self.DRAWS, seed + 1)
                logd = None if draws is None else rec.run("log_density", log_densities, draws, fld)
                if draws is not None:
                    self.check_draws(rec.round, name, draws, logd)
            else:
                reason = rec.ops[-1][-1]
                rec.fail("draws", reason)
                rec.fail("log_density", reason)
            if name == "reach":
                continue  # its solve fails on some right-hand sides only (see README)
            pi = rec.run("solve", wf_field.constrained_solve, Q, self.rhs[name])
            if pi is not None:
                self.check_solve(rec.round, name, pi)
        Q = self.probes[rec.round % len(self.probes)]
        if rec.run("probe", wf_ident.verify_unique, Q, 1, sub_seed(self.seed, rec.round, 1)) is False:
            self.problems.append(f"round {rec.round}: verify_unique is False on an "
                                 "identifiable graph")
        if rec.run("planted", wf_ident.verify_unique, self.planted, 0,
                   sub_seed(self.seed, rec.round, 2), candidates=(self.planted_rates,)) is True:
            self.problems.append(f"round {rec.round}: verify_unique is True on the planted "
                                 "confounder")

    def oracle(self, name):
        if name not in self.sparse:
            Q, rates = self.generators[name]
            self.sparse[name] = oracles.sparse_generator(Q.dim, rates)
        return self.sparse[name]

    def check_solve(self, n, name, pi):
        r = self.rhs[name] - self.rhs[name].mean()
        m = pi.size
        if abs(pi.sum()) > 1e-9 * m or np.abs(self.oracle(name).T @ pi - r).max() > 1e-8:
            self.problems.append(f"round {n} {name}: constrained_solve misses Q'pi = r on sum zero")

    def check_draws(self, n, name, draws, logd):
        q = self.oracle(name)
        m = q.shape[0]
        s2 = self.sigma[name] ** 2
        if np.abs(draws.sum(axis=1)).max() > 1e-9 * m * max(1.0, np.abs(draws).max()):
            self.problems.append(f"round {n} {name}: a field draw does not sum to zero")
        quad = ((q.T @ draws.T) ** 2).sum(axis=0) / s2  # pi'QQ'pi / sigma^2
        if abs(quad.mean() - (m - 1)) > Z_BOUND * math.sqrt(2.0 * (m - 1) / len(quad)):
            self.problems.append(f"round {n} {name}: mean pi'QQ'pi/sigma^2 {quad.mean():.1f}, "
                                 f"chi-square mean {m - 1}")
        if logd is None:
            return
        # log_density = const - quad/2; the constant is checked in check()
        const = logd + 0.5 * quad
        if np.ptp(const) > 1e-7 * m:
            self.problems.append(f"round {n} {name}: log_density does not fall by "
                                 f"pi'QQ'pi/(2 sigma^2) (spread {np.ptp(const):.3g})")
        self.constants.setdefault(name, []).append(float(const.mean()))

    def check(self):
        for name, consts in self.constants.items():
            Q, rates = self.generators[name]
            m = Q.dim
            want = (-0.5 * (m - 1) * math.log(2.0 * math.pi * self.sigma[name] ** 2)
                    + 0.5 * oracles.restricted_logdet(oracles.dense_generator(m, rates)))
            worst = max(abs(c - want) for c in consts)
            if worst > 1e-7 * m:
                self.problems.append(f"{name}: log_density off the dense oracle by {worst:.3g}")
        return self.problems

    def figures(self, rec):
        return {"field_build_s": rec.per_round("build"),
                "field_draws_s": rec.per_round("draws", "log_density", per="draws"),
                "probe_restart_s": rec.per_round("probe")}

    def layer_extras(self):
        return {}


WORKLOADS = {
    "columbus-cli": ColumbusCli,
    "stream-genetics": StreamGenetics,
    "walker-population": WalkerPopulation,
    "field-ident": FieldIdent,
}
