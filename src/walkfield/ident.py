"""Identifiability of Q from QQ'.

An irreducible generator is recoverable from QQ' whenever some row has two
or more positive rates.  The single exception is the deterministic loop: a
one-directional cycle, whose reversal produces a distinct generator with
the same QQ'.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import DataError
from .graph import GeneratorMatrix, check_irreducible, generator_from_rates

IDENTIFIABLE = "IdentifiableByTheorem"
LOOP = "DeterministicLoop"
REDUCIBLE = "Reducible"

# a rate counts as structurally nonzero iff above this fraction of the max rate
NONZERO_REL_TOL = 1e-12
# verify_unique's confounder: WW' within MATCH_TOL * max|QQ'| of QQ', and
# max|W - Q| above MIN_DIST
MATCH_TOL = 1e-8
MIN_DIST = 1e-4


@dataclass(frozen=True)
class IdentifiabilityReport:
    classification: str
    witness_row: int | None = None
    cycle_order: tuple | None = None

    def __post_init__(self):
        if self.classification not in (IDENTIFIABLE, LOOP, REDUCIBLE):
            raise ValueError(f"unknown classification {self.classification!r}")
        if (self.witness_row is not None) != (self.classification == IDENTIFIABLE):
            raise ValueError("witness_row present iff IdentifiableByTheorem")
        if (self.cycle_order is not None) != (self.classification == LOOP):
            raise ValueError("cycle_order present iff DeterministicLoop")

    def to_json(self) -> str:
        return json.dumps(
            {
                "classification": self.classification,
                "witness_row": self.witness_row,
                "cycle_order": list(self.cycle_order) if self.cycle_order else None,
            },
            sort_keys=True,
        )


def _support(Q: GeneratorMatrix):
    """Structurally nonzero rates, thresholded relative to the max rate."""
    a = Q.rates.toarray()
    mx = a.max() if a.size else 0.0
    return a > NONZERO_REL_TOL * mx


def check_identifiable(Q: GeneratorMatrix) -> IdentifiabilityReport:
    """Classify Q as identifiable, a deterministic loop, or reducible.

    For M = 2 an irreducible graph with one exit per node is reported as a
    loop even though its reversal coincides with Q and no distinct confounder
    exists there; the loop label describes topology only.
    """
    supp = _support(Q)
    thresholded = generator_from_rates(
        Q.dim, {(i, j): 1.0 for i, j in zip(*np.nonzero(supp))}
    )
    if not check_irreducible(thresholded):
        return IdentifiabilityReport(REDUCIBLE)
    out_degree = supp.sum(axis=1)
    witnesses = np.flatnonzero(out_degree >= 2)
    if witnesses.size:
        return IdentifiabilityReport(IDENTIFIABLE, witness_row=int(witnesses[0]))
    # every row has exactly one exit and the graph is strongly connected:
    # the support is a single directed Hamiltonian cycle
    nxt = {i: int(np.flatnonzero(supp[i])[0]) for i in range(Q.dim)}
    cycle = [0]
    while True:
        j = nxt[cycle[-1]]
        if j == 0:
            break
        cycle.append(j)
    return IdentifiabilityReport(LOOP, cycle_order=tuple(cycle))


def construct_confounded_pair(rates):
    """Forward/backward cycle pair (Q, W) with QQ' == WW' and Q != W.

    Node i exits at rate rates[i]: forward to i+1 in Q, backward to i-1
    in W.  Needs M >= 3; for M = 2 the two cycles coincide.
    """
    r = np.asarray(rates, dtype=float)
    m = r.size
    if m < 3:
        raise DataError("confounded pair needs M >= 3 (forward and backward coincide)")
    if not (r > 0).all():
        raise DataError("all cycle rates must be strictly positive")
    q = generator_from_rates(m, {(i, (i + 1) % m): r[i] for i in range(m)})
    w = generator_from_rates(m, {(i, (i - 1) % m): r[i] for i in range(m)})
    gap = np.max(np.abs((q.matrix @ q.matrix.T - w.matrix @ w.matrix.T).toarray()))
    if gap > 1e-12 * float(r.max()) ** 2:
        raise AssertionError(f"confounded pair construction failed, gap {gap:g}")
    return q, w


def _fill_generator(logrates, off, rate, w):
    """Dense W = diag(rowsum) - rate into ``w``, from log-rates on the ``off`` mask.

    ``off`` is the off-diagonal mask, filled in row-major order, which is
    the order of ``pairs`` in :func:`verify_unique`.  ``rate`` is a zeroed
    work array whose diagonal stays 0.
    """
    rate[off] = np.exp(np.clip(logrates, -40, 40))
    np.negative(rate, out=w)
    w.flat[:: w.shape[0] + 1] = rate.sum(axis=1)


def verify_unique(
    Q: GeneratorMatrix,
    trials: int,
    seed: int,
    candidates=(),
) -> bool:
    """Numerical probe: search for a distinct generator W with WW' = QQ'.

    Runs ``trials`` random restarts of a gradient-free local search over
    log-rates on the full off-diagonal support (log-rates can sink edges to
    zero, so denser supports are covered).  Returns True when no candidate
    matches QQ' at ``MATCH_TOL`` while differing from Q by more than
    ``MIN_DIST``.  A supporting check, not a proof.

    True means only that 4000 Powell evaluations per start found nothing,
    and as a search the probe is weak: on random 5-node graphs built as
    a two-way path plus extra edges, Powell stops at ``maxfev`` with
    sum((WW' - QQ')^2) between about 50 and 700, nowhere near Q.  A
    converging ``scipy.optimize.least_squares`` run on the same full
    off-diagonal support finds a distinct W with max|WW' - QQ'| ~ 4e-15
    on 7 of 12 random IdentifiableByTheorem graphs (8 of 12 in a second
    draw), and this function returns False when given such a W as a
    candidate.  So the theorem as coded by :func:`check_identifiable` may
    need the support of Q to be known.

    Explicit ``candidates`` (rate dicts) are polished first and bypass the
    identifiability precondition, so the loop counterexample can be planted.
    A candidate key off the off-diagonal support, or a rate that is not
    finite and positive, is a :class:`DataError`.
    """
    if not candidates:
        report = check_identifiable(Q)
        if report.classification != IDENTIFIABLE:
            raise DataError(
                f"verify_unique requires an IdentifiableByTheorem generator, got "
                f"{report.classification}"
            )
    m = Q.dim
    q_dense = Q.dense()
    target = q_dense @ q_dense.T
    scale = max(float(np.max(np.abs(target))), 1.0)
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    rng = np.random.default_rng(seed)
    off = ~np.eye(m, dtype=bool)
    rate = np.zeros((m, m))
    w = np.empty((m, m))
    d = np.empty((m, m))

    def objective(x):
        _fill_generator(x, off, rate, w)
        np.dot(w, w.T, out=d)
        np.subtract(d, target, out=d)
        return float(np.vdot(d, d))

    def is_confounder(x):
        objective(x)
        close = np.max(np.abs(d)) <= MATCH_TOL * scale
        distinct = np.max(np.abs(w - q_dense)) > MIN_DIST
        return close and distinct

    index = {p: k for k, p in enumerate(pairs)}
    starts = []
    for cand in candidates:
        x0 = np.full(len(pairs), -30.0)
        for p, a in cand.items():
            if p not in index or not 0 < a < np.inf:
                raise DataError(f"candidate {p}: {a} is not a finite rate > 0 off the diagonal")
            x0[index[p]] = np.log(a)
        starts.append(x0)
    base = np.log(max(float(Q.rates.max()), 1e-6))
    for _ in range(trials):
        starts.append(rng.normal(base, 1.0, len(pairs)))

    try:
        for x0 in starts:
            res = minimize(
                objective, x0, method="Powell",
                options={"maxfev": 4000, "xtol": 1e-12, "ftol": 1e-16},
            )
            if is_confounder(res.x):
                return False
        return True
    finally:
        # scipy's Powell line search recovers from each failed bracket by
        # catching a BracketError; every caught error leaves a cycle
        # (exception -> traceback -> frame) whose frames reach the caller's
        # frame through f_back.  Until the cyclic collector runs, those
        # cycles pin the caller's locals, so collect them here.
        gc.collect()
