"""Serialization round-trips, config parsing, and the command-line interface."""

import csv
import io
import json
import re
import time
import warnings
from importlib import resources

import numpy as np
import pytest

from walkfield import cli
from walkfield.cli import main
from walkfield.datasets import columbus_fixture
from walkfield.errors import ConfigError, DataError
from walkfield.infer import PosteriorSamples
from walkfield.io import (
    draws_sidecar,
    file_sha256,
    load_graph,
    parse_config,
    read_samples_csv,
    write_field_csv,
    write_graph,
    write_samples_csv,
    write_trajectory_csv,
)
from walkfield.popsim import PopulationTrajectory

from test_graph import random_graph


def write_tables(tmp_path, node_rows, edge_rows, edge_header="from,to,distance"):
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.csv"
    nodes.write_text("node_id,label\n" + "".join(f"{r}\n" for r in node_rows))
    edges.write_text(edge_header + "\n" + "".join(f"{r}\n" for r in edge_rows))
    return nodes, edges


def test_graph_round_trip_exact(tmp_path):
    g = random_graph(np.random.default_rng(4), 9)
    write_graph(g, tmp_path / "n.csv", tmp_path / "e.csv")
    g2 = load_graph(tmp_path / "n.csv", tmp_path / "e.csv")
    assert g2.node_count == g.node_count
    assert g2.labels == g.labels
    assert sorted(g2.edges, key=lambda e: (e.src, e.dst)) == sorted(
        g.edges, key=lambda e: (e.src, e.dst)
    )
    # Second round trip is byte-identical.
    write_graph(g2, tmp_path / "n2.csv", tmp_path / "e2.csv")
    assert (tmp_path / "n2.csv").read_bytes() == (tmp_path / "n.csv").read_bytes()
    assert (tmp_path / "e2.csv").read_bytes() == (tmp_path / "e.csv").read_bytes()


def test_load_graph_symmetric_expands_edges(tmp_path):
    nodes, edges = write_tables(tmp_path, ["0,a", "1,b"], ["0,1,2.0"])
    g = load_graph(nodes, edges, symmetric=True)
    assert g.edge_count == 2
    assert {(e.src, e.dst) for e in g.edges} == {(0, 1), (1, 0)}
    assert all(e.cov.distance == 2.0 for e in g.edges)


def test_load_graph_dangling_edge(tmp_path):
    nodes, edges = write_tables(tmp_path, ["0,a", "1,b"], ["0,5,1.0"])
    with pytest.raises(DataError, match=r"edges\.csv:2.*dangling"):
        load_graph(nodes, edges)


def test_load_graph_nonpositive_distance(tmp_path):
    nodes, edges = write_tables(tmp_path, ["0,a", "1,b"], ["0,1,1.0", "1,0,0.0"])
    with pytest.raises(DataError, match=r"edges\.csv:3.*non-positive distance"):
        load_graph(nodes, edges)


def test_load_graph_bad_node_ids(tmp_path):
    nodes, edges = write_tables(tmp_path, ["0,a", "2,b"], ["0,1,1.0"])
    with pytest.raises(DataError, match="node ids must be 0..1"):
        load_graph(nodes, edges)


def test_load_graph_malformed_edge_value(tmp_path):
    nodes, edges = write_tables(tmp_path, ["0,a", "1,b"], ["0,1,abc"])
    with pytest.raises(DataError, match=r"edges\.csv:2.*malformed"):
        load_graph(nodes, edges)


def test_load_graph_node_error_names_the_physical_line(tmp_path):
    # record 1 spans lines 2-3 (a quoted label with a line break)
    nodes, edges = write_tables(tmp_path, ['0,"a\nb"', "x,b"], ["0,1,1.0"])
    with pytest.raises(DataError, match=r"nodes\.csv:4: malformed node record"):
        load_graph(nodes, edges)


def test_load_graph_edge_error_names_the_physical_line(tmp_path):
    # record 1 spans lines 2-3 (a quoted distance with a line break)
    nodes, edges = write_tables(tmp_path, ["0,a", "1,b"], ['0,1,"1.0\n"', "1,0,abc"])
    with pytest.raises(DataError, match=r"edges\.csv:4: malformed edge record"):
        load_graph(nodes, edges)


def test_samples_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    s = PosteriorSamples(
        names=("mu", "beta"),
        draws=rng.normal(size=(25, 2)),
        loglik=rng.normal(size=25),
        metadata={},
    )
    path = tmp_path / "samples.csv"
    write_samples_csv(s, path)
    s2 = read_samples_csv(path)
    assert s2.names == s.names
    np.testing.assert_array_equal(s2.draws, s.draws)  # repr round-trips exactly
    np.testing.assert_array_equal(s2.loglik, s.loglik)


def test_read_samples_requires_loglik_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("mu,beta\n1.0,2.0\n")
    with pytest.raises(DataError, match="log_likelihood"):
        read_samples_csv(path)


@pytest.mark.parametrize("body, match", [
    ("1.0,oops,-3.0\r\n", "could not convert"),
    ("1.0,2.0,-3.0\r\n4.0,-5.0\r\n", "number of columns"),
    ("1.0,2.0\r\n", "draw matrix"),
    ("1.0,nan,-3.0\r\n", "non-finite"),
], ids=["not-a-number", "ragged", "short-rows", "non-finite"])
def test_read_samples_malformed_rows_are_data_errors(tmp_path, body, match):
    path = tmp_path / "samples.csv"
    path.write_text("mu,beta,log_likelihood\r\n" + body)
    with pytest.raises(DataError, match=match) as err:
        read_samples_csv(path)
    assert str(path) in str(err.value)


def test_read_samples_header_only_is_no_draws_without_warning(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("mu,beta,log_likelihood\r\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="no draws"):
            read_samples_csv(path)


def test_read_samples_single_row(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("mu,beta,log_likelihood\r\n1.5,-2.0,-7.25\r\n")
    s = read_samples_csv(path)
    assert s.draws.shape == (1, 2)
    np.testing.assert_array_equal(s.draws, [[1.5, -2.0]])
    np.testing.assert_array_equal(s.loglik, [-7.25])


EXTREME = [-0.0, 0.0, 1e16, -1e16, 1e-5, 5e-324, -5e-324, 1.7976931348623157e308,
           -1.7976931348623157e308, 0.1, 1 / 3, -123456789.125, 2.5e-300, 6.02214076e23]


def _csv_reference(header, rows):
    """What csv.writer writes for repr(float(v)) cells (ints written as is)."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([v if isinstance(v, int) else repr(float(v)) for v in row])
    return buf.getvalue().encode()


def test_writers_match_csv_reference_on_extreme_values(tmp_path):
    rng = np.random.default_rng(12)
    mixed = rng.normal(size=(6, 5)) * 10.0 ** rng.integers(-300, 300, size=(6, 5))
    block = np.vstack([np.resize(EXTREME, (len(EXTREME), 5)), mixed])
    s = PosteriorSamples(("mu", "beta", "sigma", "tau"), block[:, :4], block[:, 4], {})
    path = tmp_path / "samples.csv"
    write_samples_csv(s, path)
    assert path.read_bytes() == _csv_reference(
        ["mu", "beta", "sigma", "tau", "log_likelihood"], block.tolist())
    back = read_samples_csv(path)
    # bitwise, so that -0.0 keeps its sign
    assert back.draws.tobytes() == s.draws.tobytes()
    assert back.loglik.tobytes() == s.loglik.tobytes()

    traj = PopulationTrajectory(times=block[:, 0], values=block[:, 1:], kind="density")
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    assert path.read_bytes() == _csv_reference(
        ["t"] + [f"node_{i}" for i in range(4)], block.tolist())

    path = tmp_path / "field.csv"
    write_field_csv(block[:, 2], path)
    assert path.read_bytes() == _csv_reference(
        ["node_id", "value"], [[i, v] for i, v in enumerate(block[:, 2])])


def _parsed(path):
    """``read_samples_csv(path)`` with the sidecar moved away: the CSV parse."""
    sidecar = draws_sidecar(path)
    away = sidecar.with_name(sidecar.name + ".away")
    if sidecar.exists():
        sidecar.rename(away)
    try:
        return read_samples_csv(path)
    finally:
        if away.exists():
            away.rename(sidecar)


def _assert_bitwise(a, b):
    assert a.names == b.names
    assert a.draws.shape == b.draws.shape and a.draws.tobytes() == b.draws.tobytes()
    assert a.loglik.shape == b.loglik.shape and a.loglik.tobytes() == b.loglik.tobytes()


def _random_table(seed, rows, cols):
    """Finite float64s across the whole range: every magnitude from subnormal
    to 1e300, and the cells -0.0, 0.0, 5e-324, 1e300 and -1e300."""
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-320, 300, size=(rows, cols))
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 2.2250738585072014e-308])
    at = rng.choice(table.size, size=min(table.size, special.size), replace=False)
    table.flat[at] = special[:at.size]
    return table


@pytest.mark.parametrize("rows, cols", [(1, 2), (1, 9), (40, 3), (300, 12)])
def test_sidecar_hit_is_the_parse_bit_for_bit(tmp_path, rows, cols):
    table = _random_table(rows * cols, rows, cols)
    s = PosteriorSamples(tuple(f"p{j}" for j in range(cols - 1)), table[:, :-1],
                         table[:, -1], {})
    path = tmp_path / "samples.csv"
    write_samples_csv(s, path)
    got = read_samples_csv(path)
    assert got.metadata == {"source": str(path), "sha256": file_sha256(path),
                            "draws_from": "sidecar"}
    parsed = _parsed(path)
    assert parsed.metadata == {**got.metadata, "draws_from": "csv"}
    _assert_bitwise(got, parsed)
    _assert_bitwise(got, s)
    assert got.draws.flags.writeable and got.draws.dtype == parsed.draws.dtype


def test_sidecar_layout_is_digest_row_count_then_little_endian_rows(tmp_path):
    table = _random_table(3, 5, 4)
    s = PosteriorSamples(("mu", "beta", "sigma"), table[:, :3], table[:, 3], {})
    path = tmp_path / "draws.csv"
    write_samples_csv(s, path)
    assert draws_sidecar(path) == tmp_path / "draws.f64"
    blob = draws_sidecar(path).read_bytes()
    assert blob[:32].hex() == file_sha256(path)
    assert blob[32:40] == (5).to_bytes(8, "little")
    assert blob[40:] == table.astype("<f8").tobytes()


def _edit_cell(path, sidecar):
    lines = path.read_bytes().split(b"\r\n")
    cells = lines[2].split(b",")
    cells[1] = repr(float(cells[1]) + 1.0).encode()
    lines[2] = b",".join(cells)
    path.write_bytes(b"\r\n".join(lines))


def _truncate_row(path, sidecar):
    sidecar.write_bytes(sidecar.read_bytes()[:-8 * 4])


def _truncate_bytes(path, sidecar):
    sidecar.write_bytes(sidecar.read_bytes()[:-3])


def _extra_row(path, sidecar):
    sidecar.write_bytes(sidecar.read_bytes() + np.zeros(4, "<f8").tobytes())


def _digest_only(path, sidecar):
    sidecar.write_bytes(sidecar.read_bytes()[:32])


def _no_table(path, sidecar):
    sidecar.write_bytes(sidecar.read_bytes()[:40])


def _fewer_rows_stated(path, sidecar):
    blob = sidecar.read_bytes()
    sidecar.write_bytes(blob[:32] + (5).to_bytes(8, "little") + blob[40:])


def _other_fit(path, sidecar):
    other = path.with_name("other.csv")
    write_samples_csv(PosteriorSamples(("mu", "beta", "sigma"), np.ones((6, 3)), np.ones(6),
                                       {}), other)
    draws_sidecar(other).replace(sidecar)


@pytest.mark.parametrize("edit", [_edit_cell, _truncate_row, _truncate_bytes, _extra_row,
                                  _digest_only, _no_table, _fewer_rows_stated, _other_fit],
                         ids=lambda f: f.__name__.strip("_"))
def test_sidecar_that_does_not_match_is_a_miss(tmp_path, edit):
    table = _random_table(5, 6, 4)
    path = tmp_path / "samples.csv"
    write_samples_csv(PosteriorSamples(("mu", "beta", "sigma"), table[:, :3], table[:, 3], {}),
                      path)
    edit(path, draws_sidecar(path))
    assert draws_sidecar(path).exists()
    got = read_samples_csv(path)
    assert got.metadata["draws_from"] == "csv"
    assert got.metadata["sha256"] == file_sha256(path)
    _assert_bitwise(got, _parsed(path))


def test_sidecar_of_a_malformed_csv_keeps_the_parse_error(tmp_path):
    s = PosteriorSamples(("mu", "beta"), [[1.0, 2.0]], [-3.0], {})
    path = tmp_path / "samples.csv"
    write_samples_csv(s, path)
    path.write_text("mu,beta,log_likelihood\r\n1.0,oops,-3.0\r\n")
    with pytest.raises(DataError, match="could not convert") as err:
        read_samples_csv(path)
    assert str(path) in str(err.value)


def test_parse_config_basics(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a = 1  # comment\n\n# full comment line\nb=two\n")
    assert parse_config(cfg, ("a", "b")) == {"a": "1", "b": "two"}


def test_parse_config_errors_carry_location(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a=1\nnot a pair\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2: expected key=value"):
        parse_config(cfg, ("a",))
    cfg.write_text("a=1\nmystery=2\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2: unknown key 'mystery'"):
        parse_config(cfg, ("a",))
    cfg.write_text("a=1\na=2\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2: duplicate key 'a'"):
        parse_config(cfg, ("a",))


def test_columbus_fixture_shape():
    graph, crime, home = columbus_fixture()
    assert graph.node_count == 49
    assert crime.shape == home.shape == (49,)
    # Contiguity is symmetric: every directed edge has its reverse.
    pairs = {(e.src, e.dst) for e in graph.edges}
    assert all((j, i) in pairs for i, j in pairs)
    # Crime declines with home value in these data.
    h = (home - home.mean()) / home.std()
    slope = float(h @ (crime - crime.mean()) / (h @ h))
    assert slope < -5


# --- command-line interface ---------------------------------------------


@pytest.fixture
def cli_graph(tmp_path):
    nodes, edges = write_tables(
        tmp_path,
        [f"{i},n{i}" for i in range(4)],
        ["0,1,1.0", "1,2,2.0", "2,3,1.0", "3,0,1.0"],
    )
    return nodes, edges


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_cli_build_outputs_and_manifest(tmp_path, cli_graph, capsys):
    nodes, edges = cli_graph
    cfg = write_cfg(tmp_path, f"nodes={nodes}\nedges={edges}\nsymmetric=true\nbeta0=0.5\n")
    out = tmp_path / "out"
    assert main(["build", "--config", str(cfg), "--out", str(out)]) == 0
    info = json.loads((out / "generator.json").read_text())
    assert info["nodes"] == 4 and info["directed_edges"] == 8
    assert info["irreducible"] is True
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "build"
    assert manifest["inputs"][str(cfg)] == file_sha256(cfg)
    assert manifest["inputs"][str(nodes)] == file_sha256(nodes)
    assert sorted(manifest["outputs"]) == sorted(
        str(out / f) for f in ("nodes.csv", "edges.csv", "generator.json")
    )
    assert "build: 4 nodes" in capsys.readouterr().out


def test_cli_check_ident(tmp_path, cli_graph):
    nodes, edges = cli_graph
    cfg = write_cfg(tmp_path, f"nodes={nodes}\nedges={edges}\nsymmetric=true\n")
    out = tmp_path / "ident"
    assert main(["check-ident", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "identifiability.json").read_text())
    assert report["classification"] in (
        "IdentifiableByTheorem", "DeterministicLoop", "Reducible"
    )


def test_cli_check_ident_one_node_exit_3(tmp_path, capsys):
    nodes, edges = write_tables(tmp_path, ["0,a"], [])
    cfg = write_cfg(tmp_path, f"nodes={nodes}\nedges={edges}\nsymmetric=true\n")
    assert main(["check-ident", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "identifiability needs at least 2 nodes, got 1" in capsys.readouterr().err


def test_cli_simulate_field_infinite_sigma_exit_3(tmp_path, cli_graph, capsys):
    nodes, edges = cli_graph
    cfg = write_cfg(tmp_path, f"nodes={nodes}\nedges={edges}\nsymmetric=true\nsigma=inf\n")
    out = tmp_path / "f"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate-field", "--config", str(cfg), "--seed", "11",
                     "--out", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "sigma must be positive and finite" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_simulate_field_deterministic(tmp_path, cli_graph):
    nodes, edges = cli_graph
    cfg = write_cfg(tmp_path, f"nodes={nodes}\nedges={edges}\nsymmetric=true\nsigma=2.0\n")
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    for out in (out1, out2):
        assert main(["simulate-field", "--config", str(cfg), "--seed", "11",
                     "--out", str(out), "--quiet"]) == 0
    assert (out1 / "field.csv").read_bytes() == (out2 / "field.csv").read_bytes()
    rows = (out1 / "field.csv").read_text().strip().splitlines()
    vals = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert vals.shape == (4,)
    assert abs(vals.sum()) < 1e-10
    # A different seed gives a different field.
    out3 = tmp_path / "f3"
    main(["simulate-field", "--config", str(cfg), "--seed", "12", "--out", str(out3),
          "--quiet"])
    assert (out3 / "field.csv").read_bytes() != (out1 / "field.csv").read_bytes()


def _simulate_population_twice(tmp_path, cli_graph, demography=""):
    """Run simulate-population twice on one config; returns both manifests."""
    nodes, edges = cli_graph
    cfg = write_cfg(
        tmp_path,
        f"nodes={nodes}\nedges={edges}\nsymmetric=true\n"
        "N=200\nt_end=1.0\nsnapshot_every=0.25\nseed=3\n" + demography,
    )
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    for out in (out1, out2):
        assert main(["simulate-population", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    header = (out1 / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,node_0,node_1,node_2,node_3"
    manifests = [json.loads((out / "manifest.json").read_text()) for out in (out1, out2)]
    for manifest in manifests:
        assert manifest["ended_early"] is False
    assert manifests[0]["event_count"] == manifests[1]["event_count"]
    return manifests


def test_cli_simulate_population_deterministic(tmp_path, cli_graph):
    # no deaths: the counts are drawn at the snapshot times and no event is simulated
    for manifest in _simulate_population_twice(tmp_path, cli_graph):
        assert manifest["event_count"] is None


def test_cli_simulate_population_with_deaths_counts_events(tmp_path, cli_graph):
    for manifest in _simulate_population_twice(tmp_path, cli_graph, "birth=0.2\ndeath=0.1\n"):
        assert isinstance(manifest["event_count"], int) and manifest["event_count"] > 0


@pytest.mark.parametrize("key, bad", [("snapshot_every", "0"), ("N", "0")])
def test_cli_simulate_population_bad_input_exit_3(tmp_path, cli_graph, capsys, key, bad):
    nodes, edges = cli_graph
    settings = {"N": "200", "t_end": "1.0", "snapshot_every": "0.25", "seed": "3", key: bad}
    cfg = write_cfg(
        tmp_path,
        f"nodes={nodes}\nedges={edges}\nsymmetric=true\n"
        + "".join(f"{k}={v}\n" for k, v in settings.items()),
    )
    assert main(["simulate-population", "--config", str(cfg), "--out",
                 str(tmp_path / "p"), "--quiet"]) == 3
    assert key in capsys.readouterr().err


def test_cli_missing_seed_is_config_error(tmp_path, cli_graph, capsys):
    nodes, edges = cli_graph
    cfg = write_cfg(tmp_path, f"nodes={nodes}\nedges={edges}\nsymmetric=true\n")
    code = main(["simulate-field", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_cli_unknown_config_key_exit_2(tmp_path, cli_graph, capsys):
    nodes, edges = cli_graph
    cfg = write_cfg(tmp_path, f"nodes={nodes}\nedges={edges}\nwhat=no\n")
    assert main(["build", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_cli_missing_config_file_exit_2(tmp_path, capsys):
    assert main(["build", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "not found" in capsys.readouterr().err


def test_cli_bad_data_exit_3(tmp_path, capsys):
    nodes, edges = write_tables(tmp_path, ["0,a", "1,b"], ["0,9,1.0"])
    cfg = write_cfg(tmp_path, f"nodes={nodes}\nedges={edges}\n")
    assert main(["build", "--config", str(cfg)]) == 3
    assert "dangling" in capsys.readouterr().err


@pytest.mark.parametrize("row, match", [
    ("x,n1,0.0,1.0", r"nodes\.csv:3: malformed node record"),
    ("1.5,n1,0.0,1.0", r"nodes\.csv:3: malformed node record"),
    ("1,n1,0.0,q", r"nodes\.csv:3: malformed node record"),
    ("1,n1,0.0", r"nodes\.csv:3: malformed node record"),
], ids=["id-not-a-number", "id-not-an-integer", "y-not-a-number", "short-row"])
def test_cli_build_bad_node_table_exit_3(tmp_path, capsys, row, match):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text(f"node_id,label,x,y\n0,n0,0.0,0.0\n{row}\n")
    edges = tmp_path / "edges.csv"
    edges.write_text("from,to,distance\n0,1,1.0\n")
    cfg = write_cfg(tmp_path, f"nodes={nodes}\nedges={edges}\nsymmetric=true\n")
    assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert re.search(match, err) and "Traceback" not in err


@pytest.mark.parametrize("row, match", [
    ("1,0,1.0,2,0,0.5", r"edges\.csv:3: downstream/barrier indicators must be 0 or 1"),
    ("1,0,nan,0,0,0.5", r"edges\.csv:3: non-finite distance nan"),
    ("1,0,inf,0,0,0.5", r"edges\.csv:3: non-finite distance inf"),
    ("1,0,-2.0,0,0,0.5", r"edges\.csv:3: non-positive distance -2.0"),
    ("1,0,1.0,0,0,nan", r"edges\.csv:3: non-finite edge covariate"),
], ids=["downstream-2", "distance-nan", "distance-inf", "distance-negative", "extra-nan"])
def test_cli_build_bad_edge_record_exit_3(tmp_path, capsys, row, match):
    # an infinite distance once gave a zero rate: a warning, the edge dropped
    # from Q and exit 0 with "irreducible": false
    nodes, edges = write_tables(tmp_path, ["0,a", "1,b"], ["0,1,1.0,0,0,0.5", row],
                                edge_header="from,to,distance,downstream,barrier,slope")
    cfg = write_cfg(tmp_path, f"nodes={nodes}\nedges={edges}\n")
    assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert re.search(match, err) and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_build_node_table_without_node_id_exit_3(tmp_path, capsys):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("id,label\n0,a\n1,b\n")
    edges = tmp_path / "edges.csv"
    edges.write_text("from,to,distance\n0,1,1.0\n")
    cfg = write_cfg(tmp_path, f"nodes={nodes}\nedges={edges}\nsymmetric=true\n")
    assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"{nodes}: missing column 'node_id'" in err and "Traceback" not in err


# a quote that never closes swallows the rest of the file into one cell,
# past the csv module's field limit of 131072 characters
UNCLOSED_QUOTE = '0,"a\n' + "".join(f"{i},n{i}\n" for i in range(1, 30000))


@pytest.mark.parametrize("table", ["nodes", "edges"])
def test_cli_build_unclosed_quote_exit_3(tmp_path, capsys, table):
    nodes, edges = write_tables(tmp_path, ["0,a", "1,b"], ["0,1,1.0"])
    path = tmp_path / f"{table}.csv"
    path.write_text(path.read_text().splitlines()[0] + "\n" + UNCLOSED_QUOTE)
    cfg = write_cfg(tmp_path, f"nodes={nodes}\nedges={edges}\nsymmetric=true\n")
    assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert re.search(rf"{table}\.csv:2: malformed CSV \(field larger than field limit", err)
    assert "Traceback" not in err


def test_read_samples_unclosed_quote_in_header(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text('"mu,' + "x" * 140000 + "\r\n1.0,-3.0\r\n")
    with pytest.raises(DataError, match=r"samples\.csv:1: malformed CSV"):
        read_samples_csv(path)


def test_cli_numerical_overflow_exit_4(tmp_path, cli_graph, capsys):
    nodes, edges = cli_graph
    cfg = write_cfg(tmp_path, f"nodes={nodes}\nedges={edges}\nsymmetric=true\nbeta0=1e6\n")
    assert main(["build", "--config", str(cfg)]) == 4
    assert capsys.readouterr().err.startswith("walkfield:")


def test_cli_rate_underflow_exit_4(tmp_path, capsys):
    # exp(-699) / 1e300 is 0 in double precision; the edge was once dropped
    # from Q with a warning, and the build exited 0
    nodes, edges = write_tables(tmp_path, ["0,a", "1,b"], ["0,1,1.0,0", "1,0,1e300,1"],
                                edge_header="from,to,distance,downstream")
    cfg = write_cfg(tmp_path, f"nodes={nodes}\nedges={edges}\nbeta1=-699\n")
    assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
    assert "rate on edge (1,0) underflows to 0" in capsys.readouterr().err


def test_cli_fit_dic_diagnose_pipeline(tmp_path, cli_graph):
    nodes, edges = cli_graph
    rng = np.random.default_rng(8)
    data = tmp_path / "data.csv"
    h = rng.normal(size=4)
    y = 1.0 - 2.0 * h + 0.1 * rng.normal(size=4)
    data.write_text(
        "node_id,y,h\n"
        + "".join(f"{i},{float(y[i])!r},{float(h[i])!r}\n" for i in range(4))
    )
    fit_cfg = write_cfg(
        tmp_path,
        f"nodes={nodes}\nedges={edges}\nsymmetric=true\nmodel=spatial\n"
        f"data={data}\nresponse=y\ncovariate=h\niterations=700\nburnin=200\n",
        name="fit.cfg",
    )
    out = tmp_path / "fit"
    assert main(["fit", "--config", str(fit_cfg), "--seed", "5", "--out", str(out),
                 "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["summary"]) >= {"mu", "beta", "sigma", "tau"}

    dic_cfg = write_cfg(
        tmp_path,
        fit_cfg.read_text() + f"samples={out / 'samples.csv'}\n",
        name="dic.cfg",
    )
    out_dic = tmp_path / "dic"
    assert main(["dic", "--config", str(dic_cfg), "--out", str(out_dic), "--quiet"]) == 0
    dic = json.loads((out_dic / "dic.json").read_text())
    assert dic["dic"] == pytest.approx(2 * dic["dbar"] - dic["d_at_mean"])

    diag_cfg = write_cfg(tmp_path, f"samples={out / 'samples.csv'}\n", name="diag.cfg")
    out_diag = tmp_path / "diag"
    assert main(["diagnose", "--config", str(diag_cfg), "--out", str(out_diag),
                 "--quiet"]) == 0
    report = json.loads((out_diag / "diagnostics.json").read_text())
    assert "mu" in report and "flagged" in report["mu"]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_summary_of_one_draw_has_null_sd():
    s = PosteriorSamples(("mu", "beta"), [[1.5, -2.0]], [-7.25], {})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = s.summary()
    assert summary["mu"] == {"mean": 1.5, "sd": None, "q025": 1.5, "q50": 1.5, "q975": 1.5}
    assert summary["beta"]["sd"] is None
    json.dumps(summary, allow_nan=False)


def test_cli_fit_keeping_one_draw_writes_valid_json(tmp_path):
    cfg = write_cfg(tmp_path, "fixture=columbus\nmodel=spatial\niterations=11\nburnin=10\n")
    out = tmp_path / "fit"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", "--config", str(cfg), "--seed", "1", "--out", str(out),
                     "--quiet"]) == 0
    written = {name: json.loads((out / name).read_text(), parse_constant=_reject_constant)
               for name in ("summary.json", "manifest.json")}
    assert all(entry["sd"] is None for entry in written["summary.json"]["summary"].values())


def test_cli_malformed_samples_exit_3(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text("mu,beta,log_likelihood\r\n1.0,oops,-3.0\r\n")
    cfg = write_cfg(tmp_path, f"samples={samples}\n")
    assert main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "d"),
                 "--quiet"]) == 3
    err = capsys.readouterr().err
    assert str(samples) in err and "Traceback" not in err


def test_read_samples_duplicate_column_is_data_error(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("mu,beta,mu,log_likelihood\r\n1.0,2.0,3.0,-4.0\r\n")
    with pytest.raises(DataError, match="duplicate column 'mu'") as err:
        read_samples_csv(path)
    assert str(path) in str(err.value)


EDITED_COLUMNS = pytest.mark.parametrize("edit, commands, match", [
    ("drop", ["dic"], r"no draws of model parameter 'eta_48'"),
    ("rename", ["dic", "diagnose"], r"duplicate column 'eta_48'"),
], ids=["eta_48-dropped", "eta_47-renamed-eta_48"])


@EDITED_COLUMNS
def test_cli_dic_samples_without_a_parameter_exit_3(tmp_path, capsys, edit, commands, match):
    _run_on_edited_columbus_samples(tmp_path, capsys, edit, commands, match,
                                    tmp_path / "samples.csv")


@EDITED_COLUMNS
def test_cli_samples_edited_beside_their_sidecar_exit_3(tmp_path, capsys, edit, commands,
                                                        match):
    # the sidecar still holds the fit's table, which has every column
    _run_on_edited_columbus_samples(tmp_path, capsys, edit, commands, match,
                                    tmp_path / "fit" / "samples.csv")
    assert (tmp_path / "fit" / "samples.f64").is_file()


def _run_on_edited_columbus_samples(tmp_path, capsys, edit, commands, match, samples):
    """Fit Columbus into tmp_path/fit, write its samples.csv with a column dropped or
    renamed to ``samples``, and run each of ``commands`` on that file."""
    fit = "fixture=columbus\nmodel=spatial\niterations=150\nburnin=20\n"
    out = tmp_path / "fit"
    assert main(["fit", "--config", str(write_cfg(tmp_path, fit, name="fit.cfg")),
                 "--seed", "2", "--out", str(out), "--quiet"]) == 0
    rows = [line.split(",") for line in (out / "samples.csv").read_text().splitlines()]
    if edit == "drop":
        j = rows[0].index("eta_48")
        rows = [r[:j] + r[j + 1:] for r in rows]
    else:
        rows[0][rows[0].index("eta_47")] = "eta_48"
    samples.write_text("".join(",".join(r) + "\r\n" for r in rows))
    for command in commands:
        text = (fit if command == "dic" else "") + f"samples={samples}\n"
        cfg = write_cfg(tmp_path, text, name=f"{command}.cfg")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command),
                     "--quiet"]) == 3, command
        err = capsys.readouterr().err
        assert re.search(match, err) and str(samples) in err and "Traceback" not in err
        assert not (tmp_path / command).exists()


@pytest.mark.parametrize("thin", [1, 3])
def test_cli_sidecar_is_byte_identical_across_reruns_and_equals_the_parse(tmp_path, thin):
    fit = write_cfg(tmp_path, f"fixture=columbus\nmodel=diffusion\niterations=200\n"
                              f"burnin=20\nthin={thin}\n")
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["fit", "--config", str(fit), "--seed", "6", "--out", str(out),
                     "--quiet"]) == 0
    blob = (outs[0] / "samples.f64").read_bytes()
    assert blob == (outs[1] / "samples.f64").read_bytes()
    header = (outs[0] / "samples.csv").read_text().splitlines()[0].split(",")
    assert len(blob) == 40 + 8 * len(header) * (180 // thin)
    got = read_samples_csv(outs[0] / "samples.csv")
    assert got.metadata["draws_from"] == "sidecar"
    _assert_bitwise(got, _parsed(outs[0] / "samples.csv"))


def test_cli_dic_and_diagnose_agree_with_and_without_the_sidecar(tmp_path):
    fit = "fixture=columbus\nmodel=spatial\niterations=420\nburnin=20\nthin=2\n"
    out = tmp_path / "fit"
    assert main(["fit", "--config", str(write_cfg(tmp_path, fit, name="fit.cfg")),
                 "--seed", "3", "--out", str(out), "--quiet"]) == 0
    samples = out / "samples.csv"
    configs = {"dic": fit + f"samples={samples}\n", "diagnose": f"samples={samples}\n"}
    written = {}
    for run in ("sidecar", "csv"):
        if run == "csv":
            (out / "samples.f64").unlink()
        for command, text in configs.items():
            cfg = write_cfg(tmp_path, text, name=f"{command}.cfg")
            dest = tmp_path / f"{command}-{run}"
            assert main([command, "--config", str(cfg), "--out", str(dest), "--quiet"]) == 0
            manifest = json.loads((dest / "manifest.json").read_text())
            assert manifest["draws_from"] == run
            assert manifest["inputs"][str(samples)] == file_sha256(samples)
            written[command, run] = [(dest / p).read_bytes() for p in
                                     ("dic.json", "diagnostics.json") if (dest / p).exists()]
    for command in configs:
        assert written[command, "sidecar"] == written[command, "csv"] != []


FIT_DATA = "node_id,y,h\n0,1.0,0.5\n1,2.0,-0.1\n2,0.5,0.3\n3,1.5,-0.7\n"


def _fit_cfg(tmp_path, cli_graph, data_text=FIT_DATA):
    nodes, edges = cli_graph
    data = tmp_path / "data.csv"
    data.write_text(data_text)
    return write_cfg(
        tmp_path,
        f"nodes={nodes}\nedges={edges}\nsymmetric=true\nmodel=spatial\n"
        f"data={data}\nresponse=y\ncovariate=h\niterations=300\nburnin=100\n",
    )


@pytest.mark.parametrize("old, new, match", [
    ("1,2.0,", "1,two,", r"data\.csv:3: malformed data record"),
    ("2,0.5,", "x,0.5,", r"data\.csv:4: malformed data record"),
    ("1,2.0,-0.1\n", "1,2.0\n", r"data\.csv:3: malformed data record"),
    ("1,2.0,", "0,2.0,", r"data\.csv:3: node ids must be 0\.\.3 with no gaps or duplicates"),
    ("3,1.5,", "4,1.5,", r"data\.csv:5: node ids must be 0\.\.3"),
    ("2,0.5,", "-2,0.5,", r"data\.csv:4: node ids must be 0\.\.3"),
    ("1,2.0,", "1,nan,", r"data\.csv:3: non-finite value in data record"),
    ("0,1.0,", "0,-inf,", r"data\.csv:2: non-finite value in data record"),
    ("-0.7\n", "inf\n", r"data\.csv:5: non-finite value in data record"),
    ("node_id,y,h", "node_id,w,h", r"data\.csv: missing column 'y'"),
], ids=["response-not-a-number", "node-id-not-a-number", "short-row", "duplicate-id",
        "id-past-end", "negative-id", "nan-response", "negative-inf-response",
        "inf-covariate", "no-response-column"])
def test_cli_fit_bad_data_table_exit_3(tmp_path, cli_graph, capsys, old, new, match):
    cfg = _fit_cfg(tmp_path, cli_graph, FIT_DATA.replace(old, new))
    out = tmp_path / "fit"
    assert main(["fit", "--config", str(cfg), "--seed", "5", "--out", str(out),
                 "--quiet"]) == 3
    err = capsys.readouterr().err
    assert re.search(match, err) and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "dic"])
@pytest.mark.parametrize("key", ["rate_beta_sd", "mu_lk_sd"])
def test_cli_fit_rejects_genetics_prior_keys_exit_2(tmp_path, cli_graph, capsys, command, key):
    # the Gaussian fit reads only its own four prior keys
    cfg = _fit_cfg(tmp_path, cli_graph)
    cfg.write_text(cfg.read_text() + f"{key}=1e-9\nseed=5\n"
                   + ("samples=samples.csv\n" if command == "dic" else ""))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"unknown key {key!r}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key", cli.PRIOR_KEYS)
def test_cli_fit_infinite_prior_exit_3(tmp_path, capsys, key):
    cfg = write_cfg(tmp_path, f"fixture=columbus\nmodel=spatial\niterations=60\nburnin=10\n"
                              f"{key}=inf\n")
    out = tmp_path / "fit"
    assert main(["fit", "--config", str(cfg), "--seed", "5", "--out", str(out),
                 "--quiet"]) == 3
    err = capsys.readouterr().err
    assert f"prior hyperparameter {key} must be positive and finite" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_fixture_fit_equals_fit_on_the_bundled_files(tmp_path):
    data = resources.files("walkfield.data")
    with (resources.as_file(data / "columbus_nodes.csv") as nodes,
          resources.as_file(data / "columbus_edges.csv") as edges):
        files = (f"nodes={nodes}\nedges={edges}\nsymmetric=true\ndata={nodes}\n"
                 "response=crime\ncovariate=home_value\n")
        outs = []
        for name, source in (("fixture", "fixture=columbus\n"), ("files", files)):
            cfg = write_cfg(tmp_path, source + "model=diffusion\niterations=300\nburnin=100\n",
                            name=f"{name}.cfg")
            assert main(["fit", "--config", str(cfg), "--seed", "5",
                         "--out", str(tmp_path / name), "--quiet"]) == 0
            outs.append((tmp_path / name / "samples.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_fit_data_rows_in_any_order(tmp_path, cli_graph):
    lines = FIT_DATA.splitlines()
    shuffled = "\n".join([lines[0]] + lines[:0:-1]) + "\n"
    outs = []
    for name, text in (("sorted", FIT_DATA), ("shuffled", shuffled)):
        out = tmp_path / name
        sub = tmp_path / f"{name}-cfg"
        sub.mkdir()
        assert main(["fit", "--config", str(_fit_cfg(sub, cli_graph, text)), "--seed", "5",
                     "--out", str(out), "--quiet"]) == 0
        outs.append((out / "samples.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("old, new, match", [
    ("burnin=100\n", "burnin=100\nthin=0\n", "thin must be at least 1"),
    ("burnin=100\n", "burnin=100\nthin=-1\n", "thin must be at least 1"),
    ("burnin=100", "burnin=-5", "burnin must be nonnegative"),
    ("burnin=100", "burnin=300", "iterations must exceed burnin"),
], ids=["thin-0", "negative-thin", "negative-burnin", "no-draws"])
def test_cli_fit_bad_chain_length_exit_3(tmp_path, cli_graph, capsys, old, new, match):
    cfg = _fit_cfg(tmp_path, cli_graph)
    cfg.write_text(cfg.read_text().replace(old, new))
    assert main(["fit", "--config", str(cfg), "--seed", "5", "--out", str(tmp_path / "f"),
                 "--quiet"]) == 3
    assert match in capsys.readouterr().err


def test_cli_manifest_wall_time_covers_the_fit(tmp_path, cli_graph, monkeypatch):
    nodes, edges = cli_graph
    data = tmp_path / "data.csv"
    data.write_text("node_id,y,h\n0,1.0,0.5\n1,2.0,-0.1\n2,0.5,0.3\n3,1.5,-0.7\n")
    cfg = write_cfg(
        tmp_path,
        f"nodes={nodes}\nedges={edges}\nsymmetric=true\nmodel=spatial\n"
        f"data={data}\nresponse=y\ncovariate=h\niterations=300\nburnin=100\n",
    )
    fast, slow = tmp_path / "fast", tmp_path / "slow"
    assert main(["fit", "--config", str(cfg), "--seed", "5", "--out", str(fast),
                 "--quiet"]) == 0
    real, delay = cli.fit_gaussian, 0.5

    def slow_fit(*args, **kwargs):
        time.sleep(delay)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_gaussian", slow_fit)
    assert main(["fit", "--config", str(cfg), "--seed", "5", "--out", str(slow),
                 "--quiet"]) == 0
    manifest = json.loads((slow / "manifest.json").read_text())
    assert manifest["wall_time_s"] >= delay
    assert (slow / "samples.csv").read_bytes() == (fast / "samples.csv").read_bytes()


@pytest.mark.parametrize("replicates", ["0", "-1"])
def test_cli_convergence_without_replicates_exit_3(tmp_path, cli_graph, capsys, replicates):
    nodes, edges = cli_graph
    cfg = write_cfg(
        tmp_path,
        f"nodes={nodes}\nedges={edges}\nsymmetric=true\n"
        f"N_list=50;200\nt_end=0.5\nreplicates={replicates}\nseed=2\n",
    )
    out = tmp_path / "conv"
    assert main(["convergence", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
    assert "replicates must be at least 1" in capsys.readouterr().err
    assert not (out / "convergence.json").exists()


@pytest.mark.parametrize("command, settings", [
    ("simulate-population", "N=200\nseed=3\n"),
    ("simulate-population", "ode=true\n"),
    ("convergence", "N_list=50\nreplicates=2\nseed=3\n"),
], ids=["population", "ode", "convergence"])
@pytest.mark.parametrize("entry", ["inf", "nan"])
def test_cli_non_finite_initial_density_exit_2(tmp_path, cli_graph, capsys, command,
                                               settings, entry):
    nodes, edges = cli_graph
    cfg = write_cfg(
        tmp_path,
        f"nodes={nodes}\nedges={edges}\nsymmetric=true\nt_end=0.5\n"
        f"initial_density=0.25;{entry};0.25;0.25\n" + settings,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "p"),
                     "--quiet"]) == 2
    assert "initial_density entries must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command, settings", [
    ("simulate-population", "N=200\nseed=3\n"),
    ("simulate-population", "N=200\nseed=3\ndeath=0.1\n"),
    ("simulate-population", "ode=true\n"),
    ("convergence", "N_list=50\nreplicates=2\nseed=3\n"),
], ids=["population", "deaths", "ode", "convergence"])
def test_cli_snapshot_grid_beyond_max_exit_3(tmp_path, cli_graph, capsys, command, settings):
    nodes, edges = cli_graph
    cfg = write_cfg(
        tmp_path,
        f"nodes={nodes}\nedges={edges}\nsymmetric=true\nt_end=1e300\nsnapshot_every=1e-300\n"
        + settings,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "p"),
                     "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "t_end=1e+300 with snapshot_every=1e-300 needs inf snapshot times" in err
    assert "MAX_SNAPSHOTS=1000000" in err and "Traceback" not in err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("command, settings, match", [
    ("simulate-population", "N=1000000000000000000000000000000\nseed=3\n", "N must be"),
    ("simulate-population", "N=1000000000000000000000000000000\nseed=3\ndeath=0.1\n",
     "N must be"),
    ("simulate-population", "N=200\nseed=3\ninitial_density=1e30;0;0;0\n",
     "round(N * z0) with N=200 has a count of 2e+32"),
    ("convergence", "N_list=50;1000000000000000000000000000000\nreplicates=2\nseed=3\n",
     "N must be"),
], ids=["population", "deaths", "density", "convergence"])
def test_cli_counts_beyond_int64_exit_3(tmp_path, cli_graph, capsys, command, settings, match):
    nodes, edges = cli_graph
    cfg = write_cfg(tmp_path, f"nodes={nodes}\nedges={edges}\nsymmetric=true\nt_end=0.5\n"
                    + settings)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "p"),
                     "--quiet"]) == 3
    err = capsys.readouterr().err
    assert match in err and "n0" not in err and "Traceback" not in err
    assert not (tmp_path / "p").exists()


def test_cli_convergence(tmp_path, cli_graph):
    nodes, edges = cli_graph
    cfg = write_cfg(
        tmp_path,
        f"nodes={nodes}\nedges={edges}\nsymmetric=true\n"
        "N_list=50;200\nt_end=0.5\nreplicates=3\nseed=2\n",
    )
    out = tmp_path / "conv"
    assert main(["convergence", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    rep = json.loads((out / "convergence.json").read_text())
    assert set(rep) == {"50", "200"}
    assert all(v >= 0 for v in rep.values())


def test_cli_commands_pin_manifest_and_stdout(tmp_path, cli_graph, capsys):
    """Every command's manifest shape, input order, outputs, seed and summary line.

    Each run goes twice, quiet and then not; the outputs must be the same
    bytes, and the manifests the same apart from their output paths and
    wall time.  The summary line is rebuilt from the written outputs.
    """
    nodes, edges = cli_graph
    data = tmp_path / "data.csv"
    data.write_text(FIT_DATA)
    base = f"nodes={nodes}\nedges={edges}\nsymmetric=true\n"
    fit = (base + f"model=spatial\ndata={data}\nresponse=y\ncovariate=h\n"
           "iterations=300\nburnin=100\n")
    samples = tmp_path / "fit-a" / "samples.csv"

    def read(out, name):
        return json.loads((out / name).read_text())

    def fit_line(out):
        s = read(out, "summary.json")["summary"]
        shown = ", ".join(f"{k}={s[k]['mean']:.3f}" for k in ("mu", "beta", "sigma", "tau"))
        n = len((out / "samples.csv").read_text().splitlines()) - 1
        return [f"fit: {n} draws; posterior means {shown}"]

    def diagnose_line(out):
        names = samples.read_text().splitlines()[0].split(",")[:-1]
        report = read(out, "diagnostics.json")
        flagged = [k for k in names if report[k]["flagged"]]
        if not flagged:
            return ["diagnose: no flags"]
        return [f"diagnose: {len(flagged)} flagged parameter(s): " + ", ".join(flagged[:10])]

    traj = "simulate-population ({}): 5 snapshots -> {}"
    # run, command, config, flags, inputs besides the config, outputs,
    # seed, extra manifest keys, summary lines
    runs = [
        ("build", "build", base, [], [nodes, edges],
         ["nodes.csv", "edges.csv", "generator.json"], None, set(),
         lambda out: [f"build: 4 nodes, 8 directed edges -> {out}"]),
        ("check-ident", "check-ident", base, [], [nodes, edges],
         ["identifiability.json"], None, set(),
         lambda out: [f"check-ident: {read(out, 'identifiability.json')['classification']}"]),
        ("simulate-field", "simulate-field", base + "sigma=1.5\n", ["--seed", "3"],
         [nodes, edges], ["field.csv"], 3, set(),
         lambda out: [f"simulate-field: 4 nodes -> {out / 'field.csv'}"]),
        ("simulate-population", "simulate-population",
         base + "N=300\nt_end=1.0\nsnapshot_every=0.25\n", ["--seed", "3"],
         [nodes, edges], ["trajectory.csv"], 3, {"event_count", "ended_early"},
         lambda out: [traj.format("N=300", out / "trajectory.csv")]),
        ("ode", "simulate-population",
         base + "t_end=1.0\nsnapshot_every=0.25\node=true\n", ["--seed", "3"],
         [nodes, edges], ["trajectory.csv"], None, set(),
         lambda out: [traj.format("ode", out / "trajectory.csv")]),
        ("convergence", "convergence", base + "N_list=50;200\nt_end=0.5\nreplicates=3\n",
         ["--seed", "3"], [nodes, edges], ["convergence.json"], 3, set(),
         lambda out: [f"convergence: N={n} median sup-norm gap "
                      f"{read(out, 'convergence.json')[str(n)]:.4g}" for n in (50, 200)]),
        ("fit", "fit", fit, ["--seed", "3"], [nodes, edges, data],
         ["samples.csv", "samples.f64", "summary.json"], 3, set(), fit_line),
        ("fixture", "fit", "fixture=columbus\nmodel=diffusion\niterations=60\nburnin=10\n",
         ["--seed", "4"], [], ["samples.csv", "samples.f64", "summary.json"], 4, set(),
         fit_line),
        ("dic", "dic", fit + f"samples={samples}\nseed=9\n", ["--seed", "5"],
         [nodes, edges, data, samples], ["dic.json"], None, {"draws_from"},
         lambda out: ["dic: {dic:.2f} (p_d {p_d:.2f})".format(**read(out, "dic.json"))]),
        ("diagnose", "diagnose", f"samples={samples}\n", [], [samples],
         ["diagnostics.json"], None, {"draws_from"}, diagnose_line),
    ]
    for run, command, text, flags, inputs, outputs, seed, extra, lines in runs:
        cfg = write_cfg(tmp_path, text, name=f"{run}.cfg")
        quiet, loud = tmp_path / f"{run}-a", tmp_path / f"{run}-b"
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(quiet), "--quiet"]
                    + flags) == 0, run
        assert capsys.readouterr().out == "", run
        assert main([command, "--config", str(cfg), "--out", str(loud)] + flags) == 0, run
        assert capsys.readouterr().out.splitlines() == lines(loud), run
        manifests = [read(out, "manifest.json") for out in (quiet, loud)]
        for out, manifest in zip((quiet, loud), manifests):
            assert set(manifest) == {"command", "inputs", "outputs", "seed", "version",
                                     "wall_time_s"} | extra, run
            assert manifest["command"] == command
            # written with sorted keys, so the file lists the inputs by path
            assert list(manifest["inputs"]) == sorted(str(p) for p in inputs + [cfg])
            assert manifest["inputs"] == {str(p): file_sha256(p) for p in inputs + [cfg]}
            assert manifest["outputs"] == [str(out / name) for name in outputs], run
            assert manifest["seed"] == seed, run
            assert manifest.get("draws_from", "sidecar") == "sidecar", run
        for key in ("inputs", "seed", "version", *extra):
            assert manifests[0][key] == manifests[1][key], (run, key)
        for name in outputs:
            assert (quiet / name).read_bytes() == (loud / name).read_bytes(), (run, name)
