"""CSV/JSON serialization: graph tables, trajectories, samples, manifests.

Every CSV table the package reads is parsed here.  Node-keyed tables (the
node table of a graph, the fit data table, the bundled Columbus files) go
through ``read_node_table``, the one place that states the node-id rule.

All CSV output is comma-separated UTF-8 with mandatory headers and '.'
decimal separator; floats are written with repr so that identical inputs
produce byte-identical files.  A samples CSV also gets a binary copy of its
table, the sidecar named by ``draws_sidecar``, which ``read_samples_csv``
loads in place of the parse while the CSV is unchanged.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import time
import warnings
from io import StringIO
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .graph import Edge, EdgeCovariates, SpatialGraph
from .infer.specs import PosteriorSamples

RESERVED_EDGE_COLS = ("from", "to", "distance", "downstream", "barrier")
# rows that _write_float_rows encodes at a time: the text of a chunk, not of
# the whole table, is held in memory
CSV_CHUNK_ROWS = 256


@contextlib.contextmanager
def _csv_errors(path, reader):
    """Yield a ``csv.DictReader``; its ``csv.Error`` (say, an unclosed quote
    that overruns the field limit) becomes a ``DataError`` at the bad record's
    first line, one past where the reader's last good record ended."""
    try:
        yield reader
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num + 1}: malformed CSV ({exc})") from None


def read_node_table(path, columns, parse, m=None, record="node") -> list:
    """``parse(row)`` for each record of a node_id-keyed CSV, in node order.

    The header must name node_id and each of ``columns``, and the ids must
    be 0..m-1, each once (``m`` defaults to the number of records).  A
    missing column, a wrong record count, a bad id, and a record that
    ``parse`` rejects raise ``DataError`` naming the file and the line the
    record ends on: a TypeError or ValueError from ``parse`` reads
    "malformed <record> record", a DataError keeps its message.
    """
    with open(path, newline="") as f, _csv_errors(path, csv.DictReader(f)) as reader:
        for c in ("node_id", *columns):
            if c not in (reader.fieldnames or ()):
                raise DataError(f"{path}: missing column '{c}'")
        rows = [(reader.line_num, r) for r in reader]
    if m is None:
        m = len(rows)
    elif len(rows) != m:
        raise DataError(f"{path}: expected {m} rows, got {len(rows)}")
    values = {}
    for lineno, r in rows:
        try:
            i = int(r["node_id"])
            value = parse(r)
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: malformed {record} record ({exc})") from None
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if not 0 <= i < m or i in values:
            raise DataError(
                f"{path}:{lineno}: node ids must be 0..{m-1} with no gaps or duplicates"
            )
        values[i] = value
    return [values[i] for i in range(m)]


def read_data_table(path, columns, m) -> np.ndarray:
    """The numeric ``columns`` of a node_id-keyed table of m rows, as a (k, m) array.

    Rows come out in node order; a cell that is not a finite number is a
    ``DataError`` naming its line.
    """

    def cells(r):
        v = np.array([float(r[c]) for c in columns])
        if not np.isfinite(v).all():
            raise DataError("non-finite value in data record")
        return v

    return np.array(read_node_table(path, columns, cells, m, "data")).T.copy()


def _node(r):
    """(label, (x, y) or None) of a node-table record."""
    xy = (float(r["x"]), float(r["y"])) if "x" in r and "y" in r else None
    return r.get("label", r["node_id"]), xy


def load_graph(nodes_path, edges_path, symmetric: bool = False) -> SpatialGraph:
    """Load a graph from node and edge tables.

    Node table columns: node_id, label, optional x, y.  Edge table columns:
    from, to, distance, downstream, barrier, plus extra named covariates.
    With ``symmetric`` each edge record expands to both directed edges.
    """
    nodes = read_node_table(Path(nodes_path), (), _node)
    m = len(nodes)
    labels = tuple(label for label, _ in nodes)
    xys = tuple(xy for _, xy in nodes)
    coords = None if None in xys else xys

    edges_path = Path(edges_path)
    edges = []
    with open(edges_path, newline="") as f, _csv_errors(edges_path, csv.DictReader(f)) as reader:
        if reader.fieldnames is None or not set(RESERVED_EDGE_COLS[:3]) <= set(reader.fieldnames):
            raise DataError(f"{edges_path}: edge table needs from,to,distance columns")
        extra_cols = [c for c in reader.fieldnames if c not in RESERVED_EDGE_COLS]
        for r in reader:
            lineno = reader.line_num
            try:
                i, j = int(r["from"]), int(r["to"])
                cov = EdgeCovariates(float(r["distance"]), int(r.get("downstream", 0) or 0),
                                     int(r.get("barrier", 0) or 0),
                                     tuple((c, float(r[c])) for c in extra_cols))
            except (TypeError, ValueError) as exc:
                raise DataError(f"{edges_path}:{lineno}: malformed edge record ({exc})")
            except DataError as exc:
                raise DataError(f"{edges_path}:{lineno}: {exc}")
            if not (0 <= i < m and 0 <= j < m):
                raise DataError(f"{edges_path}:{lineno}: edge endpoint {i}->{j} is dangling")
            edges.append(Edge(i, j, cov))
            if symmetric:
                edges.append(Edge(j, i, cov))
    try:
        return SpatialGraph(node_count=m, labels=labels, edges=tuple(edges), coords=coords)
    except DataError as exc:
        raise DataError(f"{edges_path}: {exc}")


def write_graph(graph: SpatialGraph, nodes_path, edges_path):
    """Write a graph back to node/edge tables (directed edges, round-trips exactly)."""
    with open(nodes_path, "w", newline="") as f:
        w = csv.writer(f)
        if graph.coords is not None:
            w.writerow(["node_id", "label", "x", "y"])
            for i in range(graph.node_count):
                x, y = graph.coords[i]
                w.writerow([i, graph.labels[i], repr(x), repr(y)])
        else:
            w.writerow(["node_id", "label"])
            for i in range(graph.node_count):
                w.writerow([i, graph.labels[i]])
    extra_names = []
    for e in graph.edges:
        for name, _ in e.cov.extras:
            if name not in extra_names:
                extra_names.append(name)
    with open(edges_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(list(RESERVED_EDGE_COLS) + extra_names)
        for e in sorted(graph.edges, key=lambda e: (e.src, e.dst)):
            extras = dict(e.cov.extras)
            row = [e.src, e.dst, repr(e.cov.distance), e.cov.downstream, e.cov.barrier]
            row += [repr(extras[n]) for n in extra_names]
            w.writerow(row)


def _write_float_rows(path, header, rows) -> bytes:
    """CSV with a header and one line per row; floats written with repr.

    The lines match ``csv.writer`` over ``repr(float(v))`` cells: no float
    repr holds a delimiter or quote, so no cell needs quoting.  Each chunk
    of ``CSV_CHUNK_ROWS`` rows is encoded once, then written and hashed.
    Returns the SHA-256 digest of the bytes written.
    """
    head = StringIO()
    csv.writer(head).writerow(header)
    h = hashlib.sha256()
    rows = iter(rows)
    with open(path, "wb") as f:
        text = head.getvalue()
        while text:
            data = text.encode()
            f.write(data)
            h.update(data)
            text = "".join([",".join(map(repr, row)) + "\r\n"
                            for row in islice(rows, CSV_CHUNK_ROWS)])
    return h.digest()


def write_trajectory_csv(traj, path):
    """Trajectory to CSV: columns t, node_0 .. node_{M-1} (normalized density)."""
    dens = traj.density()
    m = dens.shape[1]
    _write_float_rows(path, ["t"] + [f"node_{i}" for i in range(m)],
                      np.column_stack([traj.times, dens]).tolist())


def write_field_csv(pi, path):
    """Field sample to CSV: node_id, value."""
    values = np.asarray(pi, dtype=float).tolist()
    _write_float_rows(path, ["node_id", "value"], enumerate(values))


def draws_sidecar(path) -> Path:
    """The sidecar of a samples CSV: its path with the suffix ``.f64``.

    ``samples.csv`` has the sidecar ``samples.f64``.  The sidecar holds the
    SHA-256 digest of the CSV's bytes (32 bytes), the table's row count
    (little-endian uint64), then the table as little-endian float64, row
    after row.
    """
    return Path(path).with_suffix(".f64")


def write_samples_csv(samples: PosteriorSamples, path, sidecar=None):
    """Posterior draws to CSV, one column per parameter plus log_likelihood.

    The table also goes to ``sidecar``, by default ``draws_sidecar(path)``,
    the one place ``read_samples_csv`` looks for it.
    """
    table = np.column_stack([samples.draws, samples.loglik])
    digest = _write_float_rows(path, list(samples.names) + ["log_likelihood"], table.tolist())
    with open(sidecar or draws_sidecar(path), "wb") as f:
        f.write(digest + len(table).to_bytes(8, "little"))
        table.astype("<f8", copy=False).tofile(f)


def _read_sidecar(path, digest, cols):
    """The table in the sidecar at ``path`` if the sidecar starts with
    ``digest`` and holds a whole table of its stated row count by ``cols``
    columns; otherwise None."""
    try:
        with open(path, "rb") as f:
            head = f.read(40)
            if len(head) != 40 or head[:32] != digest:
                return None
            rows = int.from_bytes(head[32:], "little")
            table = np.fromfile(f, "<f8")
    except OSError:
        return None
    return table.reshape(rows, cols) if table.size == rows * cols else None


def read_samples_csv(path) -> PosteriorSamples:
    """Posterior draws from a CSV written by ``write_samples_csv``.

    When the sidecar ``draws_sidecar(path)`` starts with this CSV's SHA-256
    and holds a whole table as wide as the CSV's header, the table comes
    from the sidecar: repr round-trips every float64, so that table is the
    parse's, bit for bit.  Otherwise the CSV is parsed.  The metadata record the source
    path, its SHA-256 (hex) and ``draws_from``, "sidecar" or "csv".  A
    missing or malformed header, a column name given twice, a cell that is
    not a number or not finite, or a ragged row raises ``DataError`` naming
    the file.
    """
    with open(path, newline="") as f, _csv_errors(path, csv.DictReader(f)) as reader:
        header = reader.fieldnames
    if not header or header[-1] != "log_likelihood":
        raise DataError(f"{path}: expected trailing log_likelihood column")
    seen = set()
    for name in header:
        if name in seen:
            raise DataError(f"{path}: duplicate column {name!r}")
        seen.add(name)
    sha256 = file_sha256(path)
    data = _read_sidecar(draws_sidecar(path), bytes.fromhex(sha256), len(header))
    draws_from = "sidecar"
    if data is None:
        draws_from = "csv"
        try:
            with warnings.catch_warnings():
                # a header-only file is reported as "no draws" below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise DataError(f"{path}: malformed draws ({exc})") from None
    if data.size == 0:
        raise DataError(f"{path}: no draws")
    try:
        return PosteriorSamples(
            tuple(header[:-1]), data[:, :-1], data[:, -1],
            {"source": str(path), "sha256": sha256, "draws_from": draws_from},
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_json(obj, path):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def file_sha256(path) -> str:
    """SHA-256 (hex) of a file's bytes, read in 1 MiB chunks."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, command, inputs, seed, started, outputs, extra=None):
    """Run manifest: hashed inputs, seed, version, wall time, output list.

    ``inputs`` maps each input file to its SHA-256 (hex), or to None for a
    file not hashed yet, which is hashed here.  ``extra`` adds
    command-specific entries, such as a simulator's event count.
    """
    from . import __version__

    write_json(
        {
            "command": command,
            "inputs": {str(p): digest or file_sha256(p) for p, digest in inputs.items()},
            "outputs": [str(p) for p in outputs],
            "seed": seed,
            "version": __version__,
            "wall_time_s": time.time() - started,
            **(extra or {}),
        },
        path,
    )


def parse_config(path, allowed_keys) -> dict:
    """Flat key=value config; '#' starts a comment, unknown keys are errors."""
    out = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in allowed_keys:
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key!r} "
                    f"(allowed: {', '.join(sorted(allowed_keys))})"
                )
            if key in out:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value
    return out
