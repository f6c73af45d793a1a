"""Command-line surface: reproducible runs driven by flat key=value configs.

Every command is a pure function of (input files, config, seed): rerunning
with identical inputs reproduces byte-identical CSV outputs.  Each run
writes a manifest JSON recording input hashes, the seed, the package
version, and the wall time from reading the config to the last output.
Errors map to exit codes: configuration 2, data 3, numerical 4.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import columbus_fixture
from .errors import ConfigError, DataError, NumericalError, WalkfieldError
from .field import IntrinsicField, sample_field
from .graph import RateParams, build_generator, check_irreducible, edge_rates_loglinear
from .ident import check_identifiable
from .infer.diagnostics import compute_dic, split_half_diagnostic
from .infer.gaussian import fit_gaussian, gaussian_loglik_fn
from .infer.specs import DIFFUSION, SPATIAL, GaussianModelSpec, PriorSpec
from .io import (
    load_graph,
    parse_config,
    read_samples_csv,
    write_field_csv,
    write_graph,
    write_json,
    write_manifest,
    write_samples_csv,
    write_trajectory_csv,
)
from .popsim import DemographyRates, convergence_gap, integrate_limit_ode, simulate_population

EXIT_CODES = {ConfigError: 2, DataError: 3, NumericalError: 4}

GRAPH_KEYS = ("nodes", "edges", "symmetric")
RATE_KEYS = ("beta0", "beta1", "beta2")


def _require(cfg, key, path):
    if key not in cfg:
        raise ConfigError(f"{path}: missing required key '{key}'")
    return cfg[key]


def _as_float(cfg, key, default=None):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required numeric key '{key}'")
        return default
    try:
        return float(cfg[key])
    except ValueError:
        raise ConfigError(f"key '{key}': expected a number, got {cfg[key]!r}")


def _as_int(cfg, key, default=None):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required integer key '{key}'")
        return default
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"key '{key}': expected an integer, got {cfg[key]!r}")


def _as_bool(cfg, key, default=False):
    if key not in cfg:
        return default
    v = cfg[key].strip().lower()
    if v in ("1", "true", "yes"):
        return True
    if v in ("0", "false", "no"):
        return False
    raise ConfigError(f"key '{key}': expected a boolean, got {cfg[key]!r}")


def _load_cfg_graph(cfg, cfg_path):
    """Graph from config keys nodes/edges/symmetric; returns (graph, input paths)."""
    nodes = Path(_require(cfg, "nodes", cfg_path))
    edges = Path(_require(cfg, "edges", cfg_path))
    for p in (nodes, edges):
        if not p.is_file():
            raise DataError(f"input file not found: {p}")
    graph = load_graph(nodes, edges, symmetric=_as_bool(cfg, "symmetric"))
    return graph, [nodes, edges]


def _cfg_rates(cfg, graph):
    params = RateParams(
        beta=(
            _as_float(cfg, "beta0", 0.0),
            _as_float(cfg, "beta1", 0.0),
            _as_float(cfg, "beta2", 0.0),
        )
    )
    return build_generator(graph, edge_rates_loglinear(graph, params))


def _cfg_priors(cfg):
    kwargs = {}
    for key in ("regression_sd", "re_sd_scale", "tau2_shape", "tau2_scale",
                "rate_beta_sd", "mu_lk_sd"):
        if key in cfg:
            kwargs[key] = _as_float(cfg, key)
    return PriorSpec(**kwargs)


def _seed_of(args, cfg):
    """Stochastic commands require an explicit seed (flag or config key)."""
    if args.seed is not None:
        return args.seed
    if "seed" in cfg:
        try:
            seed = int(cfg["seed"])
        except ValueError:
            raise ConfigError(f"config key 'seed': expected an integer, got {cfg['seed']!r}")
        if seed < 0:
            raise ConfigError("seed must be nonnegative")
        return seed
    raise ConfigError("this command is stochastic: pass --seed or set seed= in the config")


def _out_dir(args):
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


PRIOR_KEYS = ("regression_sd", "re_sd_scale", "tau2_shape", "tau2_scale",
              "rate_beta_sd", "mu_lk_sd")


def cmd_build(args):
    """Validate a graph, build its generator, and echo both to the output dir."""
    started = time.time()
    cfg_path = args.config
    cfg = parse_config(cfg_path, GRAPH_KEYS + RATE_KEYS)
    graph, inputs = _load_cfg_graph(cfg, cfg_path)
    Q = _cfg_rates(cfg, graph)
    out = _out_dir(args)
    write_graph(graph, out / "nodes.csv", out / "edges.csv")
    write_json(
        {
            "nodes": graph.node_count,
            "directed_edges": graph.edge_count,
            "generator_nonzeros": int(Q.rates.nnz),
            "irreducible": check_irreducible(Q),
            "max_exit_rate": float(Q.out_rates.max()),
        },
        out / "generator.json",
    )
    outputs = [out / "nodes.csv", out / "edges.csv", out / "generator.json"]
    write_manifest(out / "manifest.json", "build", inputs + [cfg_path], None, started, outputs)
    if not args.quiet:
        print(f"build: {graph.node_count} nodes, {graph.edge_count} directed edges -> {out}")
    return 0


def cmd_check_ident(args):
    """Classify the generator's identifiability and write the report JSON."""
    started = time.time()
    cfg_path = args.config
    cfg = parse_config(cfg_path, GRAPH_KEYS + RATE_KEYS)
    graph, inputs = _load_cfg_graph(cfg, cfg_path)
    Q = _cfg_rates(cfg, graph)
    report = check_identifiable(Q)
    out = _out_dir(args)
    (out / "identifiability.json").write_text(report.to_json() + "\n")
    write_manifest(
        out / "manifest.json", "check-ident", inputs + [cfg_path], None, started,
        [out / "identifiability.json"],
    )
    if not args.quiet:
        print(f"check-ident: {report.classification}")
    return 0


def cmd_simulate_field(args):
    """Draw one intrinsic field realization and write it as node_id,value CSV."""
    started = time.time()
    cfg_path = args.config
    cfg = parse_config(cfg_path, GRAPH_KEYS + RATE_KEYS + ("sigma", "seed"))
    seed = _seed_of(args, cfg)
    graph, inputs = _load_cfg_graph(cfg, cfg_path)
    Q = _cfg_rates(cfg, graph)
    fld = IntrinsicField(Q, sigma=_as_float(cfg, "sigma", 1.0))
    sample = sample_field(fld, seed)
    out = _out_dir(args)
    write_field_csv(sample.pi, out / "field.csv")
    write_manifest(out / "manifest.json", "simulate-field", inputs + [cfg_path], seed,
                   started, [out / "field.csv"])
    if not args.quiet:
        print(f"simulate-field: {fld.dim} nodes -> {out / 'field.csv'}")
    return 0


POPSIM_KEYS = GRAPH_KEYS + RATE_KEYS + (
    "seed", "N", "t_end", "snapshot_every", "birth", "death", "initial_density", "ode"
)


def _cfg_demography(cfg, m):
    b = _as_float(cfg, "birth", 0.0)
    d = _as_float(cfg, "death", 0.0)
    return DemographyRates(b=np.full(m, b), d=np.full(m, d))


def _cfg_density(cfg, m):
    if "initial_density" in cfg:
        parts = cfg["initial_density"].split(";")
        if len(parts) != m:
            raise ConfigError(
                f"initial_density needs {m} ';'-separated values, got {len(parts)}"
            )
        try:
            z0 = np.array([float(p) for p in parts])
        except ValueError:
            raise ConfigError("initial_density entries must be numbers")
        if (z0 < 0).any():
            raise ConfigError("initial_density entries must be nonnegative")
        return z0
    return np.full(m, 1.0 / m)


def cmd_simulate_population(args):
    """Simulate the finite-N jump process (or its large-N limit with ode=true)."""
    started = time.time()
    cfg_path = args.config
    cfg = parse_config(cfg_path, POPSIM_KEYS)
    graph, inputs = _load_cfg_graph(cfg, cfg_path)
    Q = _cfg_rates(cfg, graph)
    m = graph.node_count
    demo = _cfg_demography(cfg, m)
    z0 = _cfg_density(cfg, m)
    t_end = _as_float(cfg, "t_end")
    snap = _as_float(cfg, "snapshot_every", 0.1)
    out = _out_dir(args)
    if _as_bool(cfg, "ode"):
        seed = None
        traj = integrate_limit_ode(Q, demo, z0, t_end, snapshot_every=snap)
        events = None
    else:
        seed = _seed_of(args, cfg)
        N = _as_int(cfg, "N")
        n0 = np.rint(N * z0).astype(np.int64)
        traj = simulate_population(Q, demo, n0, N, t_end, seed, snap)
        events = {"event_count": traj.event_count, "ended_early": traj.ended_early}
    write_trajectory_csv(traj, out / "trajectory.csv")
    write_manifest(out / "manifest.json", "simulate-population", inputs + [cfg_path],
                   seed, started, [out / "trajectory.csv"], extra=events)
    if not args.quiet:
        kind = "ode" if traj.kind == "density" else f"N={traj.scale}"
        print(f"simulate-population ({kind}): {traj.times.size} snapshots "
              f"-> {out / 'trajectory.csv'}")
    return 0


def cmd_convergence(args):
    """Measure the gap between finite-N paths and the deterministic limit."""
    started = time.time()
    cfg_path = args.config
    cfg = parse_config(
        cfg_path,
        GRAPH_KEYS + RATE_KEYS + ("seed", "N_list", "replicates", "t_end",
                                  "snapshot_every", "birth", "death", "initial_density"),
    )
    seed = _seed_of(args, cfg)
    graph, inputs = _load_cfg_graph(cfg, cfg_path)
    Q = _cfg_rates(cfg, graph)
    m = graph.node_count
    try:
        N_list = [int(p) for p in _require(cfg, "N_list", cfg_path).split(";")]
    except ValueError:
        raise ConfigError("N_list entries must be integers (';'-separated)")
    gaps = convergence_gap(
        Q,
        _cfg_demography(cfg, m),
        _cfg_density(cfg, m),
        _as_float(cfg, "t_end"),
        N_list,
        _as_int(cfg, "replicates", 10),
        seed,
        snapshot_every=_as_float(cfg, "snapshot_every", 0.1),
    )
    out = _out_dir(args)
    write_json({str(n): g for n, g in gaps.items()}, out / "convergence.json")
    write_manifest(out / "manifest.json", "convergence", inputs + [cfg_path], seed,
                   started, [out / "convergence.json"])
    if not args.quiet:
        for n in N_list:
            print(f"convergence: N={n} median sup-norm gap {gaps[n]:.4g}")
    return 0


FIT_KEYS = GRAPH_KEYS + PRIOR_KEYS + (
    "seed", "fixture", "model", "data", "response", "covariate",
    "iterations", "burnin", "thin", "standardize",
)


def _fit_spec(cfg, cfg_path):
    """Assemble a GaussianModelSpec from config; returns (spec, input paths)."""
    model = _require(cfg, "model", cfg_path)
    variant = {"spatial": SPATIAL, "diffusion": DIFFUSION}.get(model)
    if variant is None:
        raise ConfigError(f"model must be 'spatial' or 'diffusion', got {model!r}")
    if cfg.get("fixture") == "columbus":
        graph, crime, home = columbus_fixture()
        response, covariate, inputs = crime, home, []
    elif "fixture" in cfg:
        raise ConfigError(f"unknown fixture {cfg['fixture']!r} (available: columbus)")
    else:
        graph, inputs = _load_cfg_graph(cfg, cfg_path)
        data = Path(_require(cfg, "data", cfg_path))
        if not data.is_file():
            raise DataError(f"input file not found: {data}")
        inputs.append(data)
        rcol = _require(cfg, "response", cfg_path)
        hcol = _require(cfg, "covariate", cfg_path)
        import csv as _csv

        with open(data, newline="") as f:
            reader = _csv.DictReader(f)
            cols = reader.fieldnames or []
            for c in ("node_id", rcol, hcol):
                if c not in cols:
                    raise DataError(f"{data}: missing column '{c}'")
            rows = sorted(reader, key=lambda r: int(r["node_id"]))
        if len(rows) != graph.node_count:
            raise DataError(
                f"{data}: expected {graph.node_count} rows, got {len(rows)}"
            )
        response = np.array([float(r[rcol]) for r in rows])
        covariate = np.array([float(r[hcol]) for r in rows])
    spec = GaussianModelSpec(
        response=response,
        covariate=covariate,
        variant=variant,
        graph=graph,
        priors=_cfg_priors(cfg),
        standardize=_as_bool(cfg, "standardize", True),
    )
    return spec, inputs


def cmd_fit(args):
    """Run the Gibbs sampler and write draws, summaries, and the manifest."""
    started = time.time()
    cfg_path = args.config
    cfg = parse_config(cfg_path, FIT_KEYS)
    seed = _seed_of(args, cfg)
    spec, inputs = _fit_spec(cfg, cfg_path)
    samples = fit_gaussian(
        spec,
        iterations=_as_int(cfg, "iterations"),
        burnin=_as_int(cfg, "burnin"),
        seed=seed,
        thin=_as_int(cfg, "thin", 1),
    )
    out = _out_dir(args)
    write_samples_csv(samples, out / "samples.csv")
    write_json(
        {"summary": samples.summary(), "metadata": samples.metadata},
        out / "summary.json",
    )
    write_manifest(out / "manifest.json", "fit", inputs + [cfg_path], seed, started,
                   [out / "samples.csv", out / "summary.json"])
    if not args.quiet:
        s = samples.summary()
        shown = ", ".join(
            f"{k}={s[k]['mean']:.3f}" for k in ("mu", "beta", "sigma", "tau")
        )
        print(f"fit: {samples.n_draws} draws; posterior means {shown}")
    return 0


def cmd_dic(args):
    """DIC for a finished fit: needs the fit config plus its samples.csv."""
    started = time.time()
    cfg_path = args.config
    cfg = parse_config(cfg_path, FIT_KEYS + ("samples",))
    spec, inputs = _fit_spec(cfg, cfg_path)
    samples_path = Path(_require(cfg, "samples", cfg_path))
    if not samples_path.is_file():
        raise DataError(f"input file not found: {samples_path}")
    samples = read_samples_csv(samples_path)
    result = compute_dic(samples, gaussian_loglik_fn(spec))
    out = _out_dir(args)
    write_json(result.to_dict(), out / "dic.json")
    write_manifest(out / "manifest.json", "dic", inputs + [cfg_path, samples_path],
                   None, started, [out / "dic.json"])
    if not args.quiet:
        print(f"dic: {result.dic:.2f} (p_d {result.p_d:.2f})")
    return 0


def cmd_diagnose(args):
    """Split-half convergence check on a samples file; flags unstable marginals."""
    started = time.time()
    cfg_path = args.config
    cfg = parse_config(cfg_path, ("samples",))
    samples_path = Path(_require(cfg, "samples", cfg_path))
    if not samples_path.is_file():
        raise DataError(f"input file not found: {samples_path}")
    report = split_half_diagnostic(read_samples_csv(samples_path))
    out = _out_dir(args)
    write_json(report, out / "diagnostics.json")
    write_manifest(out / "manifest.json", "diagnose", [cfg_path, samples_path], None,
                   started, [out / "diagnostics.json"])
    flagged = [k for k, v in report.items() if v["flagged"]]
    if not args.quiet:
        if flagged:
            print(f"diagnose: {len(flagged)} flagged parameter(s): "
                  + ", ".join(flagged[:10]))
        else:
            print("diagnose: no flags")
    return 0


COMMANDS = {
    "build": cmd_build,
    "check-ident": cmd_check_ident,
    "simulate-field": cmd_simulate_field,
    "simulate-population": cmd_simulate_population,
    "convergence": cmd_convergence,
    "fit": cmd_fit,
    "dic": cmd_dic,
    "diagnose": cmd_diagnose,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="walkfield",
        description="Spatial covariance models built from random walks on graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0], description=fn.__doc__)
        p.add_argument("--config", required=True, type=Path, help="flat key=value config file")
        p.add_argument("--seed", type=int, help="RNG seed (required for stochastic commands)")
        p.add_argument("--out", type=Path, help="output directory (default: cwd)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "fn", None) is None:
        build_parser().print_help()
        return 2
    if args.seed is not None and args.seed < 0:
        print("walkfield: seed must be nonnegative", file=sys.stderr)
        return 2
    if not args.config.is_file():
        print(f"walkfield: config file not found: {args.config}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except WalkfieldError as exc:
        code = EXIT_CODES.get(type(exc), 1)
        print(f"walkfield: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
