"""Spatial graphs, covariate-driven edge rates, and the sparse generator matrix.

The generator Q follows the sign convention with positive diagonal:
Q_ii = sum_k alpha_ik and Q_ij = -alpha_ij for i != j, so every row sums
to zero and the limiting density obeys dz/dt = -Q'z + (b - d).  Most CTMC
texts use the negated matrix; everything downstream of this module assumes
the positive-diagonal form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, NumericalError

# |linear predictor| beyond this would overflow exp; hard error, never inf
LINPRED_LIMIT = 700.0


@dataclass(frozen=True)
class EdgeCovariates:
    """Covariates attached to one directed edge."""

    distance: float
    downstream: int = 0
    barrier: int = 0
    extras: tuple = ()  # ordered (name, value) pairs

    def __post_init__(self):
        if not 0 < self.distance < math.inf:
            kind = "non-positive" if self.distance <= 0 else "non-finite"
            raise DataError(f"{kind} distance {self.distance}")
        if self.downstream not in (0, 1) or self.barrier not in (0, 1):
            raise DataError("downstream/barrier indicators must be 0 or 1")
        if not all(math.isfinite(v) for _, v in self.extras):
            raise DataError(f"non-finite edge covariate in {self.extras}")


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    cov: EdgeCovariates


@dataclass(frozen=True)
class SpatialGraph:
    """Directed weighted graph of areal nodes.

    Nodes are dense 0-based indices; ``labels`` carries the external names.
    At most one directed edge per ordered pair, no self-edges.
    """

    node_count: int
    labels: tuple
    edges: tuple
    coords: tuple | None = None  # optional (x, y) per node

    def __post_init__(self):
        m = self.node_count
        if m <= 0:
            raise DataError("graph needs at least one node")
        if len(self.labels) != m:
            raise DataError("label count does not match node_count")
        if self.coords is not None and len(self.coords) != m:
            raise DataError("coordinate count does not match node_count")
        seen = set()
        for e in self.edges:
            if not (0 <= e.src < m and 0 <= e.dst < m):
                raise DataError(f"edge ({e.src},{e.dst}) has an endpoint outside 0..{m-1}")
            if e.src == e.dst:
                raise DataError(f"self-edge at node {e.src}")
            if (e.src, e.dst) in seen:
                raise DataError(f"duplicate edge ({e.src},{e.dst})")
            seen.add((e.src, e.dst))

    @property
    def edge_count(self):
        return len(self.edges)


@dataclass(frozen=True)
class RateParams:
    """Log-linear rate coefficients: (intercept, downstream, barrier, *extras).

    Their finiteness is checked where they are used, in :meth:`RateModel.rates`.
    """

    beta: tuple
    extra_names: tuple = ()

    def __post_init__(self):
        if len(self.beta) != 3 + len(self.extra_names):
            raise ConfigError(
                f"expected {3 + len(self.extra_names)} coefficients "
                f"(intercept, downstream, barrier + {len(self.extra_names)} extras), "
                f"got {len(self.beta)}"
            )


class RateModel:
    """Log-linear edge rates for one graph and coefficient names, compiled once.

    Holds the node count ``dim``, the edge endpoints ``src``/``dst``, the
    (E x p) ``design`` with columns (1, downstream, barrier, *extras) and the
    edge ``distance``, so that :meth:`rates` and :meth:`generator` are a few
    array operations per call.  A missing extra covariate raises
    :class:`ConfigError` here, not at the first evaluation.
    """

    def __init__(self, graph: SpatialGraph, extra_names=()):
        extra_names = tuple(extra_names)
        edges = graph.edges
        self.dim = graph.node_count
        self.src = np.array([e.src for e in edges], dtype=np.intp)
        self.dst = np.array([e.dst for e in edges], dtype=np.intp)
        self.distance = np.array([e.cov.distance for e in edges], dtype=float)
        design = np.ones((len(edges), 3 + len(extra_names)))
        design[:, 1] = [e.cov.downstream for e in edges]
        design[:, 2] = [e.cov.barrier for e in edges]
        if extra_names:
            for i, e in enumerate(edges):
                extras = dict(e.cov.extras)
                for j, name in enumerate(extra_names):
                    if name not in extras:
                        raise ConfigError(
                            f"edge ({e.src},{e.dst}) is missing covariate '{name}'"
                        )
                    design[i, 3 + j] = extras[name]
        self.design = design

    def rates(self, beta) -> np.ndarray:
        """alpha_e = (1/d_e) exp(x_e'beta) per edge, in the graph's edge order.

        The linear predictor is accumulated column by column, the order of
        the scalar formula, and is guarded against overflowing exp.
        """
        if len(beta) != self.design.shape[1]:
            raise ConfigError(
                f"expected {self.design.shape[1]} rate coefficients, got {len(beta)}"
            )
        if not all(math.isfinite(b) for b in beta):
            raise ConfigError("rate coefficients must be finite")
        lp = self.design[:, 0] * beta[0]
        for j in range(1, len(beta)):
            lp = lp + beta[j] * self.design[:, j]
        bad = np.flatnonzero(np.abs(lp) > LINPRED_LIMIT)
        if bad.size:
            e = bad[0]
            raise NumericalError(
                f"linear predictor {lp[e]:.3g} on edge ({self.src[e]},{self.dst[e]}) "
                f"exceeds the overflow guard ({LINPRED_LIMIT:g})"
            )
        # math.exp per edge, not np.exp: numpy's vectorized exp differs from
        # the C library's in the last bit for some arguments, and a last-bit
        # change in a rate can decide whether a nearly singular QQ' factors
        return np.array([math.exp(x) for x in lp.tolist()]) / self.distance

    def generator(self, beta) -> GeneratorMatrix:
        """The generator Q of :meth:`rates`; a rate that underflows to 0 raises."""
        rates = self.rates(beta)
        if not rates.all():
            e = np.flatnonzero(rates == 0)[0]
            raise NumericalError(f"rate on edge ({self.src[e]},{self.dst[e]}) underflows to 0")
        return _assemble(self.dim, self.src, self.dst, rates)


def edge_rates_loglinear(graph: SpatialGraph, params: RateParams) -> dict:
    """Per-edge transition rates alpha = (1/d) * exp{b0 + b1*u + b2*v + extras}.

    Returns a dict keyed by (src, dst).  Raises on missing extra covariates
    and on linear predictors that would overflow exp.
    """
    model = RateModel(graph, params.extra_names)
    keys = zip(model.src.tolist(), model.dst.tolist())
    return dict(zip(keys, model.rates(params.beta).tolist()))


@dataclass(frozen=True)
class GeneratorMatrix:
    """Sparse CTMC generator in the positive-diagonal convention.

    ``matrix`` is CSR with Q_ii = sum_k alpha_ik and Q_ij = -alpha_ij.
    Built only through :meth:`RateModel.generator`, :func:`build_generator`
    and :func:`generator_from_rates`, which set each Q_ii to its row's rate
    sum, so rows sum to zero up to rounding.
    """

    dim: int
    matrix: sp.csr_matrix = field(repr=False)

    @property
    def rates(self) -> sp.csr_matrix:
        """Nonnegative rate matrix alpha (off-diagonal part, sign flipped)."""
        a = -self.matrix.copy()
        a.setdiag(0.0)
        a.eliminate_zeros()
        return a.tocsr()

    @property
    def out_rates(self) -> np.ndarray:
        """Total exit rate per node, alpha_i = sum_k alpha_ik."""
        return np.asarray(self.rates.sum(axis=1)).ravel()

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


def _assemble(dim, src, dst, alpha) -> GeneratorMatrix:
    """Q from edge arrays (distinct ``(src, dst)`` pairs, rates ``alpha >= 0``).

    Zero rates are dropped from the sparsity pattern.  Q_ii is the sum of
    row i's rates in increasing ``dst`` order, so its bits do not depend on
    the order of the edges.  The CSR arrays are built directly, once.
    """
    nz = np.flatnonzero(alpha)
    order = nz[np.argsort(src[nz] * dim + dst[nz])]
    src, dst, alpha = src[order], dst[order], alpha[order]
    diag = np.bincount(src, weights=alpha, minlength=dim)
    exits = np.flatnonzero(diag > 0)
    # row i's diagonal goes before its first edge with a column above i
    at = np.searchsorted(src * dim + dst, exits * (dim + 1))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=dim) + (diag > 0))])
    q = sp.csr_matrix((np.insert(-alpha, at, diag[exits]), np.insert(dst, at, exits), indptr),
                      shape=(dim, dim))
    return GeneratorMatrix(dim, q)


def generator_from_rates(dim: int, rates: dict) -> GeneratorMatrix:
    """Assemble Q from a dict of (i, j) -> alpha_ij >= 0.

    Zero rates are dropped from the sparsity pattern.  The diagonal is the
    negated off-diagonal row sum, so Q @ 1 == 0 up to rounding.  A key
    outside the dimension or on the diagonal, or a rate that is negative or
    not finite, is a :class:`DataError` naming the key.
    """
    i, j = np.array(list(rates), dtype=np.intp).reshape(-1, 2).T
    alpha = np.array(list(rates.values()), dtype=float)
    ok = (np.minimum(i, j) >= 0) & (np.maximum(i, j) < dim) & (i != j)
    bad = np.flatnonzero(~(ok & (alpha >= 0) & (alpha < math.inf)))
    if bad.size:
        k = bad[0]
        raise DataError(f"invalid rate {alpha[k]} at key ({i[k]},{j[k]}) for dimension {dim}")
    return _assemble(dim, i, j, alpha)


def build_generator(graph: SpatialGraph, rates: dict) -> GeneratorMatrix:
    """Build the generator for a graph from a per-edge rate map."""
    stray = set(rates) - {(e.src, e.dst) for e in graph.edges}
    if stray:
        raise DataError(f"rate given for {min(stray)}, which is not an edge")
    dropped = [k for k, a in rates.items() if a == 0]
    if dropped:
        warnings.warn(
            f"{len(dropped)} edge(s) with zero rate dropped from the generator "
            f"(first: {dropped[0]}); re-check irreducibility",
            stacklevel=2,
        )
    return generator_from_rates(graph.node_count, rates)


def check_irreducible(Q: GeneratorMatrix) -> bool:
    """True iff the digraph of strictly positive rates is strongly connected.

    That holds iff a search from node 0 reaches every node both along the
    edges and against them.  The edges are the nonzero entries of Q's CSR
    pattern; the diagonal among them adds self-loops, which reach nothing.
    """
    q = Q.matrix
    src = np.repeat(np.arange(Q.dim), np.diff(q.indptr))
    edge = q.data != 0
    src, dst = src[edge], q.indices[edge]
    return _reaches_all(Q.dim, src, dst) and _reaches_all(Q.dim, dst, src)


def _reaches_all(n, src, dst):
    """True iff a depth-first search from node 0 along the edges src -> dst
    reaches all n nodes."""
    order = np.argsort(src, kind="stable")
    start = np.searchsorted(src[order], np.arange(n + 1)).tolist()
    succ = dst[order].tolist()
    seen = [True] + [False] * (n - 1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in succ[start[i]:start[i + 1]]:
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    return all(seen)


def to_sar(Q: GeneratorMatrix):
    """Express Q as an intrinsic SAR pair (B, lam).

    B_ij = alpha_ji / alpha_i and lam_i = 1 / alpha_i**2 (the diagonal of
    the SAR noise covariance), so that (I - B)' diag(1/lam) (I - B) == Q Q'.
    Returned dense; every node must have at least one out-edge.
    """
    alpha_i = Q.out_rates
    dead = np.flatnonzero(alpha_i == 0)
    if dead.size:
        raise DataError(f"node {dead[0]} has no out-edges; SAR form undefined")
    a = Q.rates.toarray()
    b = a.T / alpha_i[:, None]
    np.fill_diagonal(b, 0.0)
    lam = 1.0 / alpha_i**2
    return b, lam
