"""Command-line surface: reproducible runs driven by flat key=value configs.

Every command is a pure function of (input files, config, seed): rerunning
with identical inputs reproduces byte-identical CSV outputs.  Each run
writes a manifest JSON recording input hashes, the seed, the package
version, and the wall time from reading the config to the last output.
Errors map to exit codes: configuration 2, data 3, numerical 4.

``fit`` writes ``samples.csv``, ``samples.f64`` and ``summary.json``.
``samples.f64`` is the binary copy of the draw table that ``dic`` and
``diagnose`` load in place of parsing ``samples.csv``, as long as it holds
the CSV's SHA-256 (``walkfield.io.read_samples_csv``); their manifests
record which of the two the draws came from as ``draws_from``.

The commands are the rows of one table, ``COMMANDS``.  A row gives the
config keys the command accepts, whether it loads the graph and builds
``Q``, whether it needs a seed, its output files and its ``run`` step,
which does only the command's own work.  One runner, ``_execute``, does
the steps every command shares: it starts the manifest timer, parses the
config, resolves the seed, loads the graph and builds ``Q``, calls
``run``, creates the output directory, writes the outputs and the
manifest, and prints ``run``'s summary line unless ``--quiet``.  Every
input file goes through ``_input_file``, which checks that it exists and
records it for the manifest to hash.  The parser is built from the same
table; a command's help is the first line of its ``run`` docstring.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .datasets import columbus_fixture
from .errors import ConfigError, DataError, NumericalError, WalkfieldError
from .field import IntrinsicField, sample_fields
from .graph import RateModel, check_irreducible
from .ident import check_identifiable
from .infer.diagnostics import compute_dic, split_half_diagnostic
from .infer.gaussian import fit_gaussian, gaussian_loglik_fn
from .infer.specs import DIFFUSION, SPATIAL, GaussianModelSpec, PriorSpec
from .io import (
    draws_sidecar,
    load_graph,
    parse_config,
    read_data_table,
    read_samples_csv,
    write_field_csv,
    write_graph,
    write_json,
    write_manifest,
    write_samples_csv,
    write_trajectory_csv,
)
from .popsim import (
    DemographyRates,
    convergence_gap,
    initial_counts,
    integrate_limit_ode,
    simulate_population,
)

EXIT_CODES = {ConfigError: 2, DataError: 3, NumericalError: 4}

GRAPH_KEYS = ("nodes", "edges", "symmetric")
RATE_KEYS = ("beta0", "beta1", "beta2")
# the Gaussian model's priors; PriorSpec's genetics fields have no CLI key
PRIOR_KEYS = ("regression_sd", "re_sd_scale", "tau2_shape", "tau2_scale")
POPULATION_KEYS = GRAPH_KEYS + RATE_KEYS + (
    "seed", "t_end", "snapshot_every", "birth", "death", "initial_density"
)
FIT_KEYS = GRAPH_KEYS + PRIOR_KEYS + (
    "seed", "fixture", "model", "data", "response", "covariate",
    "iterations", "burnin", "thin", "standardize",
)


def _require(cfg, key, path):
    if key not in cfg:
        raise ConfigError(f"{path}: missing required key '{key}'")
    return cfg[key]


_KINDS = {float: ("numeric", "a number"), int: ("integer", "an integer")}


def _get(cfg, key, kind=float, default=None):
    """cfg[key] converted by ``kind`` (float or int); required without a default."""
    noun, article = _KINDS[kind]
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required {noun} key '{key}'")
        return default
    try:
        return kind(cfg[key])
    except ValueError:
        raise ConfigError(f"key '{key}': expected {article}, got {cfg[key]!r}")


def _as_bool(cfg, key, default=False):
    if key not in cfg:
        return default
    v = cfg[key].strip().lower()
    if v in ("1", "true", "yes"):
        return True
    if v in ("0", "false", "no"):
        return False
    raise ConfigError(f"key '{key}': expected a boolean, got {cfg[key]!r}")


def _input_file(job, key):
    """The file that config key ``key`` names: it must exist, and the manifest hashes it."""
    path = Path(_require(job.cfg, key, job.cfg_path))
    if not path.is_file():
        raise DataError(f"input file not found: {path}")
    job.inputs.setdefault(path, None)
    return path


def _load_cfg_graph(job):
    """Graph from config keys nodes/edges/symmetric."""
    nodes, edges = (_input_file(job, key) for key in ("nodes", "edges"))
    return load_graph(nodes, edges, symmetric=_as_bool(job.cfg, "symmetric"))


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


def _write_text(text, path):
    path.write_text(text)


@dataclass
class Job:
    """One command's run: what the runner has read, and where outputs go."""

    cfg: dict
    cfg_path: Path
    seed: int | None
    out: Path
    inputs: dict  # input file -> its SHA-256 for the manifest, None until hashed
    graph: object = None
    Q: object = None


@dataclass(frozen=True)
class Command:
    """A row of the command table.

    ``run(job)`` returns ``(writes, extra, summary)``: one ``(writer, obj)``
    pair per entry of ``outputs``, each called as ``writer(obj, *paths)``;
    extra manifest fields or None; and the line printed unless ``--quiet``.
    An ``outputs`` entry is a file name, or a tuple of the names that one
    writer fills.  ``seeded`` is a bool, or a predicate on the config.
    """

    run: Callable
    keys: tuple
    outputs: tuple
    graph: bool = False  # load nodes/edges into job.graph and build job.Q
    seeded: object = False


def _build(job):
    """Validate a graph, build its generator, and echo both to the output dir."""
    graph, Q = job.graph, job.Q
    info = {
        "nodes": graph.node_count,
        "directed_edges": graph.edge_count,
        "generator_nonzeros": int(Q.rates.nnz),
        "irreducible": check_irreducible(Q),
        "max_exit_rate": float(Q.out_rates.max()),
    }
    return ([(write_graph, graph), (write_json, info)], None,
            f"build: {graph.node_count} nodes, {graph.edge_count} directed edges -> {job.out}")


def _check_ident(job):
    """Classify the generator's identifiability and write the report JSON."""
    report = check_identifiable(job.Q)
    return ([(_write_text, report.to_json() + "\n")], None,
            f"check-ident: {report.classification}")


def _simulate_field(job):
    """Draw one intrinsic field realization and write it as node_id,value CSV."""
    fld = IntrinsicField(job.Q, sigma=_get(job.cfg, "sigma", default=1.0))
    pi = sample_fields(fld, 1, job.seed)[0]
    return ([(write_field_csv, pi)], None,
            f"simulate-field: {fld.dim} nodes -> {job.out / 'field.csv'}")


def _cfg_population(cfg, m):
    """Demography, initial density, t_end and snapshot_every of a population run."""
    demo = DemographyRates(b=np.full(m, _get(cfg, "birth", default=0.0)),
                           d=np.full(m, _get(cfg, "death", default=0.0)))
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
        if not np.isfinite(z0).all():
            raise ConfigError("initial_density entries must be finite")
    else:
        z0 = np.full(m, 1.0 / m)
    return demo, z0, _get(cfg, "t_end"), _get(cfg, "snapshot_every", default=0.1)


def _simulate_population(job):
    """Simulate the finite-N jump process (or its large-N limit with ode=true)."""
    cfg, Q = job.cfg, job.Q
    demo, z0, t_end, snap = _cfg_population(cfg, job.graph.node_count)
    if _as_bool(cfg, "ode"):
        traj = integrate_limit_ode(Q, demo, z0, t_end, snapshot_every=snap)
        events = None
    else:
        N = _get(cfg, "N", int)
        n0 = initial_counts(N, z0)
        traj = simulate_population(Q, demo, n0, N, t_end, job.seed, snap)
        events = {"event_count": traj.event_count, "ended_early": traj.ended_early}
    kind = "ode" if traj.kind == "density" else f"N={traj.scale}"
    return ([(write_trajectory_csv, traj)], events,
            f"simulate-population ({kind}): {traj.times.size} snapshots "
            f"-> {job.out / 'trajectory.csv'}")


def _convergence(job):
    """Measure the gap between finite-N paths and the deterministic limit."""
    cfg = job.cfg
    try:
        N_list = [int(p) for p in _require(cfg, "N_list", job.cfg_path).split(";")]
    except ValueError:
        raise ConfigError("N_list entries must be integers (';'-separated)")
    demo, z0, t_end, snap = _cfg_population(cfg, job.graph.node_count)
    gaps = convergence_gap(job.Q, demo, z0, t_end, N_list, _get(cfg, "replicates", int, 10),
                           job.seed, snapshot_every=snap)
    return ([(write_json, {str(n): g for n, g in gaps.items()})], None,
            "\n".join(f"convergence: N={n} median sup-norm gap {gaps[n]:.4g}"
                      for n in N_list))


def _fit_spec(job):
    """GaussianModelSpec from the config: the Columbus fixture, or graph and data files."""
    cfg, cfg_path = job.cfg, job.cfg_path
    model = _require(cfg, "model", cfg_path)
    variant = {"spatial": SPATIAL, "diffusion": DIFFUSION}.get(model)
    if variant is None:
        raise ConfigError(f"model must be 'spatial' or 'diffusion', got {model!r}")
    if cfg.get("fixture") == "columbus":
        graph, response, covariate = columbus_fixture()
    elif "fixture" in cfg:
        raise ConfigError(f"unknown fixture {cfg['fixture']!r} (available: columbus)")
    else:
        graph = _load_cfg_graph(job)
        data = _input_file(job, "data")
        columns = (_require(cfg, "response", cfg_path), _require(cfg, "covariate", cfg_path))
        response, covariate = read_data_table(data, columns, graph.node_count)
    return GaussianModelSpec(
        response=response,
        covariate=covariate,
        variant=variant,
        graph=graph,
        priors=PriorSpec(**{key: _get(cfg, key) for key in PRIOR_KEYS if key in cfg}),
        standardize=_as_bool(cfg, "standardize", True),
    )


def _fit(job):
    """Run the Gibbs sampler and write draws, summaries, and the manifest."""
    cfg = job.cfg
    samples = fit_gaussian(
        _fit_spec(job),
        iterations=_get(cfg, "iterations", int),
        burnin=_get(cfg, "burnin", int),
        seed=job.seed,
        thin=_get(cfg, "thin", int, 1),
    )
    s = samples.summary()
    shown = ", ".join(f"{k}={s[k]['mean']:.3f}" for k in ("mu", "beta", "sigma", "tau"))
    return ([(write_samples_csv, samples),
             (write_json, {"summary": s, "metadata": samples.metadata})], None,
            f"fit: {samples.n_draws} draws; posterior means {shown}")


def _read_draws(job):
    """The draws in the file config key ``samples`` names, and the manifest entry
    saying whether they came from its sidecar; the manifest reuses the read's hash."""
    path = _input_file(job, "samples")
    samples = read_samples_csv(path)
    job.inputs[path] = samples.metadata["sha256"]
    return samples, {"draws_from": samples.metadata["draws_from"]}


def _dic(job):
    """DIC for a finished fit: needs the fit config plus its samples.csv."""
    spec = _fit_spec(job)
    samples, read = _read_draws(job)
    result = compute_dic(samples, gaussian_loglik_fn(spec))
    return ([(write_json, result.to_dict())], read,
            f"dic: {result.dic:.2f} (p_d {result.p_d:.2f})")


def _diagnose(job):
    """Split-half convergence check on a samples file; flags unstable marginals."""
    samples, read = _read_draws(job)
    report = split_half_diagnostic(samples)
    flagged = [k for k, v in report.items() if v["flagged"]]
    if flagged:
        summary = f"diagnose: {len(flagged)} flagged parameter(s): " + ", ".join(flagged[:10])
    else:
        summary = "diagnose: no flags"
    return [(write_json, report)], read, summary


COMMANDS = {
    "build": Command(_build, GRAPH_KEYS + RATE_KEYS,
                     (("nodes.csv", "edges.csv"), "generator.json"), graph=True),
    "check-ident": Command(_check_ident, GRAPH_KEYS + RATE_KEYS, ("identifiability.json",),
                           graph=True),
    "simulate-field": Command(_simulate_field, GRAPH_KEYS + RATE_KEYS + ("sigma", "seed"),
                              ("field.csv",), graph=True, seeded=True),
    "simulate-population": Command(_simulate_population, POPULATION_KEYS + ("N", "ode"),
                                   ("trajectory.csv",), graph=True,
                                   seeded=lambda cfg: not _as_bool(cfg, "ode")),
    "convergence": Command(_convergence, POPULATION_KEYS + ("N_list", "replicates"),
                           ("convergence.json",), graph=True, seeded=True),
    "fit": Command(_fit, FIT_KEYS, (("samples.csv", draws_sidecar("samples.csv").name),
                                    "summary.json"), seeded=True),
    "dic": Command(_dic, FIT_KEYS + ("samples",), ("dic.json",)),
    "diagnose": Command(_diagnose, ("samples",), ("diagnostics.json",)),
}


def _execute(args):
    """Run one command end to end; the steps every command shares."""
    cmd = COMMANDS[args.command]
    started = time.time()
    cfg_path = args.config
    cfg = parse_config(cfg_path, cmd.keys)
    seeded = cmd.seeded(cfg) if callable(cmd.seeded) else cmd.seeded
    job = Job(cfg, cfg_path, _seed_of(args, cfg) if seeded else None,
              args.out or Path("."), {cfg_path: None})
    if cmd.graph:
        job.graph = _load_cfg_graph(job)
        job.Q = RateModel(job.graph).generator([_get(cfg, key, default=0.0) for key in RATE_KEYS])
    writes, extra, summary = cmd.run(job)
    job.out.mkdir(parents=True, exist_ok=True)
    outputs = []
    for names, (write, obj) in zip(cmd.outputs, writes, strict=True):
        paths = [job.out / name for name in ((names,) if isinstance(names, str) else names)]
        write(obj, *paths)
        outputs += paths
    write_manifest(job.out / "manifest.json", args.command, job.inputs, job.seed, started,
                   outputs, extra=extra)
    if not args.quiet:
        print(summary)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="walkfield",
        description="Spatial covariance models built from random walks on graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, cmd in COMMANDS.items():
        doc = cmd.run.__doc__
        p = sub.add_parser(name, help=doc.splitlines()[0], description=doc)
        p.add_argument("--config", required=True, type=Path, help="flat key=value config file")
        p.add_argument("--seed", type=int, help="RNG seed (required for stochastic commands)")
        p.add_argument("--out", type=Path, help="output directory (default: cwd)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.seed is not None and args.seed < 0:
        print("walkfield: seed must be nonnegative", file=sys.stderr)
        return 2
    if not args.config.is_file():
        print(f"walkfield: config file not found: {args.config}", file=sys.stderr)
        return 2
    try:
        return _execute(args)
    except WalkfieldError as exc:
        code = EXIT_CODES.get(type(exc), 1)
        print(f"walkfield: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
