"""Simulation of the open population process and its ODE limit.

The finite-N process is simulated exactly: births arrive at rate N*b_i,
removals at rate N*d_i, and moves i -> j at rate n_i*alpha_ij.  Removal
rates do not depend on n_i, which would let counts go negative, so removal
events at empty nodes are suppressed; a node re-enters the removal rate sum
as soon as it is occupied.  As N grows, n(t)/N converges to the
deterministic flow dz/dt = -Q'z + (b - d).

Which sampler runs depends only on the death rates:

* Some d_i > 0: Gillespie's direct method, event by event.  Birth rates
  never change, so births are searched in a fixed cumulative table; the
  removal rates of the occupied nodes and the move rates n_i * alpha_i
  each sit in a binary sum tree over the M nodes.  Choosing an event and
  updating the at most four rates it changes costs O(log M) per event
  rather than O(M), and a move, which changes two move rates, recomputes
  their shared ancestors once.  Every random number comes from one stream
  of uniforms, the values successive scalar rng.random() calls would
  return, drawn in blocks: per event, one for the waiting time, taken by
  inversion as -log1p(-u) / total (1 - u is exact for every u that
  random() returns), one to pick the event (first its group: birth,
  removal or move, then the node within the group), and for a move one
  more to pick the target.  A plain cumulative-sum search over the same
  rates that takes the same uniforms in the same order finds the same
  events wherever the rate sums are exact (for instance with dyadic
  rates), so a seed gives the same path either way.
* Every d_i = 0: walkers move independently and births form a Poisson
  stream, so the counts at the snapshot times are an exact Markov chain.
  Over a gap D the walkers at node i spread as Multinomial(n_i, P[i, :])
  with P = exp(-Q D), and the immigrants of the gap add independent
  Poisson(N b'G) counts with G = int_0^D exp(-Q u) du, both summed by
  uniformization in ``_gap_laws``.  No event is simulated, so the cost
  does not depend on N: some dense M x M products once per distinct gap
  (15 on the 2000-node dendritic network at gap 0.1, about 4 s with or
  without births on one core of a 2-vCPU x86-64 VM), then O(M^2) per
  snapshot, where the event loop pays O(log M) per event; for large M and
  few events the event loop is the cheaper path.

The flow is linear with constant coefficients, so ``integrate_limit_ode``
solves it exactly with the same sums: over a gap h, z' goes to
z'P + (b - d)'G, at the snapshot sampler's cost less the draws.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from math import ceil, exp, ldexp, log1p, log2

import numpy as np

from .errors import DataError, NumericalError
from .graph import GeneratorMatrix

DEFAULT_EVENT_CAP = 50_000_000
# most snapshot times a grid may hold; t_end / snapshot_every beyond it is refused
# before the grid (and a snapshot array of that many rows) is allocated
MAX_SNAPSHOTS = 10**6
# _gap_laws: the Poisson tail mass a sum leaves out, and the largest max Q_ii * step per piece
TRUNCATION = 2.0**-56
MAX_JUMPS = 8.0
# uniforms the event loop draws from its generator at a time
_BLOCK = 1024
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class DemographyRates:
    """Per-node birth and death intensity multipliers of N."""

    b: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        d = np.asarray(self.d, dtype=float)
        if b.shape != d.shape or b.ndim != 1:
            raise DataError("b and d must be 1-d arrays of equal length")
        if not (np.isfinite(b).all() and np.isfinite(d).all()):
            raise DataError("demography rates must be finite")
        if (b < 0).any() or (d < 0).any():
            raise DataError("demography rates must be nonnegative")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class PopulationTrajectory:
    """Snapshots of a population path on a time grid.

    ``values`` holds integer counts for the jump process (kind="counts",
    with ``scale`` = N) or normalized densities for the ODE (kind="density").
    ``event_count`` is None when the counts were drawn at the snapshot times
    directly, without simulating events.
    """

    times: np.ndarray
    values: np.ndarray
    kind: str
    scale: int | None = None
    event_count: int | None = 0
    ended_early: bool = False

    def density(self) -> np.ndarray:
        if self.kind == "density":
            return self.values
        return self.values / self.scale


def _snapshot_grid(t_end, snapshot_every):
    """Times 0, s, 2s, ... below t_end, then t_end itself."""
    if not (np.isfinite(t_end) and t_end > 0):
        raise DataError(f"t_end must be finite and positive, got {t_end}")
    if not (np.isfinite(snapshot_every) and snapshot_every > 0):
        raise DataError(f"snapshot_every must be finite and positive, got {snapshot_every}")
    # arange gives ceil(t_end / snapshot_every) points, and t_end may be appended
    if not t_end / snapshot_every <= MAX_SNAPSHOTS - 1:
        raise DataError(
            f"t_end={t_end} with snapshot_every={snapshot_every} needs "
            f"{t_end / snapshot_every + 1:.7g} snapshot times, more than MAX_SNAPSHOTS={MAX_SNAPSHOTS}"
        )
    grid = np.arange(0.0, t_end, snapshot_every)
    if grid.size == 0 or grid[-1] < t_end:
        grid = np.append(grid, t_end)
    return grid


def _sum_tree(leaves) -> list:
    """Flat binary sum tree: leaf k at tree[size + k], tree[v] = tree[2v] + tree[2v+1].

    ``size`` is ``len(tree) // 2``, a power of two; tree[1] is the total.
    """
    size = 1
    while size < len(leaves):
        size *= 2
    tree = [0.0] * (2 * size)
    tree[size:size + len(leaves)] = leaves
    for v in range(size - 1, 0, -1):
        tree[v] = tree[2 * v] + tree[2 * v + 1]
    return tree


def _set_leaf(tree: list, k: int, value: float) -> None:
    """Set leaf k and recompute its ancestors from their children, so sums never drift."""
    v = len(tree) // 2 + k
    tree[v] = value
    v >>= 1
    while v:
        tree[v] = tree[2 * v] + tree[2 * v + 1]
        v >>= 1


def _set_two_leaves(tree: list, i: int, x: float, j: int, y: float) -> None:
    """Set leaves i and j, then recompute their ancestors once each.

    Both paths climb together until they meet, then one climbs on to the
    root; every ancestor is summed after its children, so the tree is the
    one two ``_set_leaf`` calls leave.
    """
    size = len(tree) // 2
    a = size + i
    b = size + j
    tree[a] = x
    tree[b] = y
    a >>= 1
    b >>= 1
    while a != b:
        tree[a] = tree[2 * a] + tree[2 * a + 1]
        tree[b] = tree[2 * b] + tree[2 * b + 1]
        a >>= 1
        b >>= 1
    while a:
        tree[a] = tree[2 * a] + tree[2 * a + 1]
        a >>= 1


def _find_leaf(tree: list, u: float) -> int:
    """Leaf k whose slice of [0, tree[1]) holds u; requires tree[1] > 0.

    On exact sums this is ``searchsorted(cumsum(leaves), u, side="right")``.
    The descent enters only children with a positive sum, so it returns a
    positive leaf even when rounding puts u at or beyond the total.
    """
    size = len(tree) // 2
    v = 1
    while v < size:
        v *= 2
        left = tree[v]
        if left <= 0.0 or (u >= left and tree[v + 1] > 0.0):
            u -= left
            v += 1
    return v - size


def _gap_laws(q: np.ndarray, inflow: np.ndarray, step: float):
    """(P, lam): P = exp(-q step), and lam = inflow'G with G = int_0^step exp(-q u) du.

    Uniformization: with rate = max q_ii, S = I - q/rate is nonnegative with
    unit row sums, P = sum_k w_k S^k for the Poisson(x = rate step) weights
    w_k, and G = (1/rate) sum_k P(N > k) S^k.  The sums stop at the first
    k + 1 > x whose tail bound w_k x / (k + 1 - x) is below TRUNCATION, which
    bounds G's relative error too, and run by Horner with the tail summed
    from the small end: P is nonnegative exactly, with nothing to clip.  A
    gap with x above MAX_JUMPS is cut into 2^s equal parts joined by
    lam <- lam + lam P and P <- P P.  Every row of exp(-q step) sums to 1,
    and each squaring would double its row-sum round-off, so P's rows are
    scaled back to unit sums after every squaring.  lam is None when
    ``inflow`` is zero.
    """
    m = q.shape[0]
    inflows = inflow.any()
    rate = q.diagonal().max()
    if rate <= 0.0:  # no edges: nothing moves
        return np.eye(m), (step * inflow if inflows else None)
    s = ceil(log2(rate * step / MAX_JUMPS)) if rate * step > MAX_JUMPS else 0
    x = ldexp(rate * step, -s)
    S = np.eye(m) - q / rate
    w = [exp(-x)]
    while not (len(w) > x and w[-1] * x / (len(w) - x) < TRUNCATION):
        w.append(w[-1] * x / len(w))
    tail = w.pop()  # P(N > k) for the next k, summed from the small end
    P = tail * np.eye(m)
    lam = np.zeros(m)
    for wk in reversed(w):
        P = S @ P
        P.ravel()[::m + 1] += wk  # P's diagonal, through a view
        if inflows:
            lam = lam @ S + tail * inflow
            tail += wk
    lam /= rate
    for _ in range(s):
        lam += lam @ P
        P = P @ P
        P /= P.sum(axis=1, keepdims=True)
    return P, (lam if inflows else None)


def _grid_gaps(Q, inflow, grid, snapshot_every):
    """Per grid gap, the (P, lam) of ``_gap_laws`` for ``inflow``, one exponential per gap length.

    ``inflow`` is N b for the snapshot sampler and b - d for the ODE.
    """
    gaps = np.diff(grid)
    # arange's gaps miss snapshot_every by round-off only (at most an ulp of
    # t_end); they share its matrix, and only a remainder gap gets its own
    gaps[np.abs(gaps - snapshot_every) <= 4 * np.finfo(float).eps * grid[-1]] = snapshot_every
    steps, which = np.unique(gaps, return_inverse=True)
    q = Q.dense()
    laws = [_gap_laws(q, inflow, step) for step in steps]
    return [laws[w] for w in which]


def _draw_snapshots(Q, births, n, grid, snapshot_every, rng) -> np.ndarray:
    """Counts at the grid times with no removals, drawn gap by gap from their exact law."""
    snaps = np.empty((grid.size, n.size), dtype=np.int64)
    snaps[0] = n
    for k, (P, lam) in enumerate(_grid_gaps(Q, births, grid, snapshot_every), start=1):
        n = rng.multinomial(n, P).sum(axis=0)
        if lam is not None:
            n += rng.poisson(lam)
        snaps[k] = n
    return snaps


def _check_demography(demo: DemographyRates, m: int) -> None:
    """DataError unless ``demo`` has one birth and one death rate per node of an M-node graph."""
    if demo.b.shape != (m,):
        raise DataError("demography rate length does not match the graph")


def _check_scale(N) -> None:
    """DataError unless N, the population scale, is an integer in [1, 2**63)."""
    if not (1 <= N <= _INT64_MAX and float(N).is_integer()):
        raise DataError(f"N must be an integer from 1 to 2**63 - 1, got {N}")


def _counts(n, what: str) -> np.ndarray:
    """``n`` as int64 counts; DataError naming ``what`` unless each is an integer in [0, 2**63)."""
    n = np.asarray(n)
    if (n.dtype.kind not in "iuf" or not np.isfinite(n).all() or (n < 0).any()
            or (n != np.rint(n)).any()):
        raise DataError(f"{what} must be a vector of nonnegative integers, got {n}")
    # int() of the largest entry is exact for integer and float dtypes alike
    if n.size and int(n.max()) > _INT64_MAX:
        raise DataError(f"{what} has a count of {n.max():.4g}, more than an int64 holds")
    return n.astype(np.int64)


def initial_counts(N, z0) -> np.ndarray:
    """round(N * z0), the starting counts of a population of scale N at density z0."""
    _check_scale(N)
    return _counts(np.rint(N * np.asarray(z0, dtype=float)), f"round(N * z0) with N={N}")


def simulate_population(
    Q: GeneratorMatrix,
    demo: DemographyRates,
    n0,
    N: int,
    t_end: float,
    seed: int,
    snapshot_every: float,
    max_events: int = DEFAULT_EVENT_CAP,
) -> PopulationTrajectory:
    """Exact stochastic simulation of the finite-N process (fixed seed, bit-reproducible).

    With every ``demo.d`` zero the counts are drawn at the snapshot times
    directly: ``event_count`` is None, ``max_events`` does not apply, and
    ``ended_early`` is True when the final state has total rate 0 (with no
    removals such a state is absorbing).  Otherwise the path is simulated
    event by event and more than ``max_events`` events raise NumericalError
    carrying the snapshots so far as ``partial``.
    """
    m = Q.dim
    n = _counts(n0, "n0")
    if n.shape != (m,):
        raise DataError(f"n0 must have length M={m}, got shape {n.shape}")
    _check_demography(demo, m)
    _check_scale(N)
    grid = _snapshot_grid(t_end, snapshot_every)
    rng = np.random.default_rng(seed)

    if not demo.d.any():
        births = N * demo.b
        snaps = _draw_snapshots(Q, births, n, grid, snapshot_every, rng)
        final_rate = births.sum() + snaps[-1] @ Q.matrix.diagonal()
        return PopulationTrajectory(
            times=grid, values=snaps, kind="counts", scale=N, event_count=None,
            ended_early=bool(final_rate <= 0.0),
        )

    alpha = Q.rates
    alpha.sum_duplicates()  # canonical CSR: one entry per column, columns ascending
    bounds = alpha.indptr.tolist()
    targets = [alpha.indices[a:z].tolist() for a, z in zip(bounds, bounds[1:])]
    row_cum = [list(accumulate(alpha.data[a:z].tolist())) for a, z in zip(bounds, bounds[1:])]
    # the exit rate is the row's last partial sum, so w = U * alpha_i < row_cum[i][-1]
    # and the target search cannot run past the row
    alpha_i = [c[-1] if c else 0.0 for c in row_cum]
    # births never change rate: a fixed cumulative table, whose last entry is the total
    birth_cum = list(accumulate((N * demo.b).tolist()))
    birth_total = birth_cum[-1]
    death = (N * demo.d).tolist()
    counts = n.tolist()
    removals = _sum_tree([death[i] if counts[i] > 0 else 0.0 for i in range(m)])
    moves = _sum_tree([counts[i] * alpha_i[i] for i in range(m)])

    grid_t = grid.tolist()
    snaps = np.empty((grid.size, m), dtype=np.int64)
    gi = 0
    next_snap = grid_t[0]
    t = 0.0
    events = 0
    ended_early = False
    # one stream of uniforms, drawn a block at a time: the values, in order, of
    # successive scalar rng.random() calls, at a fraction of their per-call cost
    draw = chain.from_iterable(iter(lambda: rng.random(_BLOCK).tolist(), None)).__next__

    while True:
        born_or_removed = birth_total + removals[1]
        total = born_or_removed + moves[1]
        if total <= 0.0:
            ended_early = t < t_end
            break
        # exponential waiting time by inversion
        t_next = t - log1p(-draw()) / total
        if t_next >= next_snap:
            while gi < grid.size and grid_t[gi] <= t_next:
                snaps[gi] = counts  # process is piecewise constant: carry state forward
                gi += 1
            if gi >= grid.size:
                break
            next_snap = grid_t[gi]
        t = t_next
        u = draw() * total
        if u < birth_total:
            i = bisect_right(birth_cum, u)
            counts[i] += 1
            if counts[i] == 1 and death[i]:
                _set_leaf(removals, i, death[i])
            _set_leaf(moves, i, counts[i] * alpha_i[i])
        elif u < born_or_removed:
            i = _find_leaf(removals, u - birth_total)
            counts[i] -= 1
            if counts[i] == 0:
                _set_leaf(removals, i, 0.0)
            _set_leaf(moves, i, counts[i] * alpha_i[i])
        else:
            i = _find_leaf(moves, u - born_or_removed)
            w = draw() * alpha_i[i]
            j = targets[i][bisect_right(row_cum[i], w)]
            counts[i] -= 1
            counts[j] += 1
            if counts[i] == 0 and death[i]:
                _set_leaf(removals, i, 0.0)
            if counts[j] == 1 and death[j]:
                _set_leaf(removals, j, death[j])
            _set_two_leaves(moves, i, counts[i] * alpha_i[i], j, counts[j] * alpha_i[j])
        events += 1
        if events > max_events:
            exc = NumericalError(
                f"event cap {max_events} exceeded at t={t:.4g} "
                f"({gi} of {grid.size} snapshots recorded)"
            )
            exc.partial = PopulationTrajectory(
                times=grid[:gi], values=snaps[:gi], kind="counts", scale=N,
                event_count=events, ended_early=True,
            )
            raise exc

    # remaining grid points see the final (constant) state
    while gi < grid.size:
        snaps[gi] = counts
        gi += 1

    return PopulationTrajectory(
        times=grid,
        values=snaps,
        kind="counts",
        scale=N,
        event_count=events,
        ended_early=ended_early,
    )


def integrate_limit_ode(
    Q: GeneratorMatrix,
    demo: DemographyRates,
    z0,
    t_end: float,
    snapshot_every: float,
) -> PopulationTrajectory:
    """Exact solution of dz/dt = -Q'z + (b - d) at the snapshot times.

    The flow is linear with constant coefficients, so over a gap h it maps
    z' to z'P + (b - d)'G with P = exp(-Q h) and G = int_0^h exp(-Q u) du,
    which ``_gap_laws`` sums for the snapshot sampler: one dense P and one
    vector (b - d)'G per distinct gap, O(M^3) once, then O(M^2) per snapshot.
    """
    m = Q.dim
    z = np.asarray(z0, dtype=float)
    if z.shape != (m,):
        raise DataError("z0 must have length M")
    if not np.isfinite(z).all():
        raise DataError(f"z0 must be finite, got {z0}")
    _check_demography(demo, m)
    grid = _snapshot_grid(t_end, snapshot_every)
    snaps = np.empty((grid.size, m))
    snaps[0] = z
    for k, (P, lam) in enumerate(_grid_gaps(Q, demo.b - demo.d, grid, snapshot_every), start=1):
        z = z @ P
        if lam is not None:
            z += lam
        snaps[k] = z
    return PopulationTrajectory(times=grid, values=snaps, kind="density")


def convergence_gap(
    Q: GeneratorMatrix,
    demo: DemographyRates,
    z0,
    t_end: float,
    N_list,
    replicates: int,
    seed: int,
    snapshot_every: float = 0.1,
) -> dict:
    """Median sup-norm gap between n(t)/N and the ODE limit, per N.

    Each replicate starts from n0 = round(N*z0) and derives an independent
    RNG stream from (seed, N, replicate).
    """
    N_list = list(N_list)
    if any(b >= a for a, b in zip(N_list[1:], N_list)):
        raise DataError("N_list must be strictly increasing")
    if replicates < 1:
        raise DataError(f"replicates must be at least 1, got {replicates}")
    z0 = np.asarray(z0, dtype=float)
    ode = integrate_limit_ode(Q, demo, z0, t_end, snapshot_every=snapshot_every)
    z_ref = ode.values
    out = {}
    for N in N_list:
        n0 = initial_counts(N, z0)
        gaps = []
        for rep in range(replicates):
            stream_seed = np.random.SeedSequence((seed, N, rep)).generate_state(1)[0]
            traj = simulate_population(
                Q, demo, n0, N, t_end, int(stream_seed), snapshot_every
            )
            gaps.append(float(np.max(np.abs(traj.density() - z_ref))))
        out[N] = float(np.median(gaps))
    return out
