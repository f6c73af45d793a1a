"""Jump-process simulation, the deterministic limit, and their agreement."""

from math import log1p

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import quad_vec
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from walkfield import popsim
from walkfield.errors import DataError, NumericalError
from walkfield.field import constrained_solve
from walkfield.graph import generator_from_rates
from walkfield.popsim import (
    DemographyRates,
    PopulationTrajectory,
    _counts,
    _find_leaf,
    _set_leaf,
    _set_two_leaves,
    _snapshot_grid,
    _sum_tree,
    convergence_gap,
    integrate_limit_ode,
    simulate_population,
)


def two_node_Q(a=1.0, b=1.0):
    return generator_from_rates(2, {(0, 1): a, (1, 0): b})


def cycle4_Q():
    rates = {}
    for i in range(4):
        rates[(i, (i + 1) % 4)] = 1.0
        rates[((i + 1) % 4, i)] = 1.0
    return generator_from_rates(4, rates)


def no_demography(m):
    return DemographyRates(b=np.zeros(m), d=np.zeros(m))


def random_directed_rates(rng, m, draw_rate):
    """Irreducible directed rates: a cycle through a random order plus random extra edges."""
    order = rng.permutation(m)
    rates = {(int(order[k]), int(order[(k + 1) % m])): draw_rate() for k in range(m)}
    for i in range(m):
        for j in range(m):
            if i != j and (i, j) not in rates and rng.random() < 0.3:
                rates[(i, j)] = draw_rate()
    return rates


def dense_generator(m, rates):
    """Positive-diagonal generator from a rate dict, built without walkfield."""
    q = np.zeros((m, m))
    for (i, j), a in rates.items():
        q[i, j] -= a
        q[i, i] += a
    return q


def _reference_simulate(Q, demo, n0, N, t_end, seed, snapshot_every,
                        max_events=50_000_000):
    """The simulator as it was before the sum tree: O(M) cumsum searches per event.

    Kept as the oracle for the seeded paths of ``simulate_population``.
    """
    m = Q.dim
    n = np.asarray(n0, dtype=np.int64).copy()
    alpha = Q.rates.toarray()
    alpha_i = alpha.sum(axis=1)
    birth = N * demo.b
    birth_total = birth.sum()
    death = N * demo.d

    rng = np.random.default_rng(seed)
    grid = _snapshot_grid(t_end, snapshot_every)
    snaps = np.empty((grid.size, m), dtype=np.int64)
    gi = 0
    t = 0.0
    events = 0
    ended_early = False

    while True:
        occupied = n > 0
        death_rates = np.where(occupied, death, 0.0)
        move_rates = n * alpha_i
        total = birth_total + death_rates.sum() + move_rates.sum()
        if total <= 0.0:
            ended_early = t < t_end
            break
        t_next = t - log1p(-rng.random()) / total
        while gi < grid.size and grid[gi] <= t_next:
            snaps[gi] = n
            gi += 1
        if gi >= grid.size:
            break
        t = t_next
        u = rng.random() * total
        if u < birth_total:
            i = int(np.searchsorted(np.cumsum(birth), u, side="right"))
            n[i] += 1
        elif u < birth_total + death_rates.sum():
            v = u - birth_total
            i = int(np.searchsorted(np.cumsum(death_rates), v, side="right"))
            n[i] -= 1
        else:
            v = u - birth_total - death_rates.sum()
            i = int(np.searchsorted(np.cumsum(move_rates), v, side="right"))
            w = rng.random() * alpha_i[i]
            j = int(np.searchsorted(np.cumsum(alpha[i]), w, side="right"))
            n[i] -= 1
            n[j] += 1
        events += 1
        if events > max_events:
            exc = NumericalError(f"event cap {max_events} exceeded")
            exc.partial = PopulationTrajectory(
                times=grid[:gi], values=snaps[:gi], kind="counts", scale=N,
                event_count=events, ended_early=True,
            )
            raise exc

    while gi < grid.size:
        snaps[gi] = n
        gi += 1

    return PopulationTrajectory(
        times=grid, values=snaps, kind="counts", scale=N, event_count=events,
        ended_early=ended_early,
    )


class TestJumpProcess:
    def test_closed_system_conserves_individuals(self):
        Q = cycle4_Q()
        traj = simulate_population(Q, no_demography(4), [25, 25, 25, 25], 100,
                                   t_end=2.0, seed=3, snapshot_every=0.5)
        np.testing.assert_array_equal(traj.values.sum(axis=1),
                                      np.full(traj.times.size, 100))

    def test_counts_stay_nonnegative_with_deaths(self):
        Q = two_node_Q()
        demo = DemographyRates(b=np.zeros(2), d=np.array([5.0, 5.0]))
        traj = simulate_population(Q, demo, [3, 3], 10, t_end=5.0, seed=1,
                                   snapshot_every=0.5)
        assert (traj.values >= 0).all()

    def test_same_seed_reproduces_path(self):
        Q = cycle4_Q()
        demo = DemographyRates(b=np.full(4, 0.3), d=np.full(4, 0.3))
        a = simulate_population(Q, demo, [10] * 4, 40, 1.0, seed=8, snapshot_every=0.25)
        b = simulate_population(Q, demo, [10] * 4, 40, 1.0, seed=8, snapshot_every=0.25)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.event_count == b.event_count

    def test_snapshot_grid_includes_endpoints(self):
        Q = two_node_Q()
        traj = simulate_population(Q, no_demography(2), [5, 5], 10, 1.0,
                                   seed=0, snapshot_every=0.25)
        np.testing.assert_allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_rejects_negative_counts(self):
        with pytest.raises(DataError):
            simulate_population(two_node_Q(), no_demography(2), [-1, 2], 1,
                                1.0, seed=0, snapshot_every=0.5)

    def test_event_cap_raises_with_partial_trajectory(self):
        # a positive death rate keeps the path on the event loop, where the cap applies
        Q = two_node_Q(50.0, 50.0)
        demo = DemographyRates(b=np.zeros(2), d=np.full(2, 0.01))
        with pytest.raises(NumericalError) as info:
            simulate_population(Q, demo, [500, 500], 1000, 10.0,
                                seed=0, snapshot_every=1.0, max_events=200)
        partial = info.value.partial
        assert partial.ended_early
        assert partial.times.size < 11

    def test_extinction_ends_path_early_with_flag(self):
        # once every individual has died all rates vanish
        Q = two_node_Q()
        demo = DemographyRates(b=np.zeros(2), d=np.full(2, 50.0))
        traj = simulate_population(Q, demo, [2, 2], 4, t_end=100.0, seed=2,
                                   snapshot_every=10.0)
        assert traj.ended_early
        np.testing.assert_array_equal(traj.values[-1], [0, 0])


def _dyadic(rng, low, high):
    return 2.0 ** int(rng.integers(low, high + 1))


def _dyadic_case(seed, m=None):
    """A random directed graph with power-of-two rates, births and deaths (some 0).

    Without ``m`` the graph has 2 to 8 nodes.
    """
    rng = np.random.default_rng(seed)
    if m is None:
        m = int(rng.integers(2, 9))
    Q = generator_from_rates(m, random_directed_rates(rng, m, lambda: _dyadic(rng, -2, 2)))
    b = np.array([_dyadic(rng, -4, 0) if rng.random() < 0.6 else 0.0 for _ in range(m)])
    d = np.array([_dyadic(rng, -4, 0) if rng.random() < 0.6 else 0.0 for _ in range(m)])
    n0 = rng.integers(0, 12, size=m)
    N = int(rng.integers(1, 40))
    return Q, DemographyRates(b=b, d=d), n0, N


def _assert_same_path(a, b):
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.event_count == b.event_count
    assert a.ended_early == b.ended_early


class TestSumTreeIdentity:
    """With exact (dyadic) rate sums the tree must reproduce the cumsum loop's paths."""

    @pytest.mark.parametrize("seed", range(32))
    def test_matches_reference_loop(self, seed):
        Q, demo, n0, N = _dyadic_case(seed)
        args = (Q, demo, n0, N, 3.0, 1000 + seed, 0.25)
        _assert_same_path(simulate_population(*args), _reference_simulate(*args))

    @pytest.mark.parametrize("births", ["ends-zero", "none"])
    @pytest.mark.parametrize("m", [17, 24, 32, 33, 40])
    def test_deep_trees_match_reference_loop(self, m, births):
        # 17 to 32 nodes give removal and move trees of 32 leaves, 33 to 40 of 64;
        # the two leaves of a move then share only the top levels of their paths
        Q, demo, n0, N = _dyadic_case(600 + m, m=m)
        b = demo.b.copy()
        b[[0, -1]] = 0.0
        if births == "none":
            b[:] = 0.0
        demo = DemographyRates(b=b, d=demo.d)
        assert demo.d.any() and len(_sum_tree([0.0] * m)) == 2 * (32 if m <= 32 else 64)
        args = (Q, demo, n0, N, 1.0, 2000 + m, 0.25)
        new = simulate_population(*args)
        assert new.event_count > 100
        _assert_same_path(new, _reference_simulate(*args))

    def test_extinction_matches_reference_loop(self):
        rng = np.random.default_rng(77)
        Q = generator_from_rates(5, random_directed_rates(rng, 5, lambda: _dyadic(rng, -2, 2)))
        demo = DemographyRates(b=np.zeros(5), d=np.array([4.0, 2.0, 8.0, 0.5, 1.0]))
        args = (Q, demo, [3, 0, 2, 5, 1], 8, 50.0, 5, 1.0)
        new = simulate_population(*args)
        assert new.ended_early
        assert new.values[-1].sum() == 0
        _assert_same_path(new, _reference_simulate(*args))

    def test_event_cap_partial_matches_reference_loop(self):
        Q, demo, n0, N = _dyadic_case(3)
        args = (Q, demo, n0, N, 100.0, 11, 0.5)
        with pytest.raises(NumericalError) as new:
            simulate_population(*args, max_events=300)
        with pytest.raises(NumericalError) as ref:
            _reference_simulate(*args, max_events=300)
        assert 0 < new.value.partial.times.size < 201
        _assert_same_path(new.value.partial, ref.value.partial)

    def test_long_path_crosses_block_refills(self):
        # the event loop draws its uniforms a block at a time; thousands of
        # events cross many refills, and the path must be the one scalar draws give
        Q, demo, n0, _ = _dyadic_case(0)
        args = (Q, demo, n0, 256, 4.0, 99, 0.5)
        new = simulate_population(*args)
        assert new.event_count > 5 * popsim._BLOCK
        _assert_same_path(new, _reference_simulate(*args))


class TestFindLeaf:
    LEAVES = [0.0, 0.0, 1.5, 0.0, 0.25, 0.0, 0.0, 2.0, 0.5, 0.0, 0.0]

    @pytest.mark.parametrize("where", ["zero", "total", "above"])
    def test_edges_land_on_positive_leaf(self, where):
        tree = _sum_tree(self.LEAVES)
        total = tree[1]
        u = {"zero": 0.0, "total": total, "above": np.nextafter(total, np.inf)}[where]
        k = _find_leaf(tree, u)
        assert 0 <= k < len(self.LEAVES)
        assert self.LEAVES[k] > 0.0

    def test_zero_u_picks_first_positive_leaf(self):
        assert _find_leaf(_sum_tree(self.LEAVES), 0.0) == 2

    def test_agrees_with_cumsum_search_on_dyadic_leaves(self):
        rng = np.random.default_rng(4)
        for size in (1, 2, 3, 7, 8, 13, 40):
            leaves = [_dyadic(rng, -3, 3) if rng.random() < 0.7 else 0.0
                      for _ in range(size)]
            leaves[int(rng.integers(size))] = 1.0
            tree = _sum_tree(leaves)
            cum = np.cumsum(leaves)
            assert tree[1] == cum[-1]
            for u in rng.random(200) * tree[1]:
                assert _find_leaf(tree, u) == int(np.searchsorted(cum, u, side="right"))


class TestSetTwoLeaves:
    @pytest.mark.parametrize("size", [1, 2, 3, 8, 17, 40])
    def test_same_tree_as_two_set_leaf_calls(self, size):
        rng = np.random.default_rng(size)
        for _ in range(50):
            tree = _sum_tree(rng.random(size).tolist())
            expected = list(tree)
            i, j = (int(k) for k in rng.integers(size, size=2))
            x, y = rng.random(2).tolist()
            _set_leaf(expected, i, x)
            _set_leaf(expected, j, y)
            _set_two_leaves(tree, i, x, j, y)
            assert tree == expected


class TestPopulationLaw:
    """The law of n(t) on directed graphs with non-dyadic rates, against scipy oracles."""

    REPS = 400

    def _case(self, seed, m):
        rng = np.random.default_rng(seed)
        rates = random_directed_rates(rng, m, lambda: float(rng.uniform(0.5, 2.0)))
        return rng, rates, generator_from_rates(m, rates), dense_generator(m, rates)

    def test_closed_population_mean_is_expm(self):
        m, t = 5, 0.7
        rng, _, Q, q = self._case(21, m)
        n0 = rng.integers(0, 8, size=m)
        finals = np.array([
            simulate_population(Q, no_demography(m), n0, 20, t, seed, t).values[-1]
            for seed in range(self.REPS)
        ])
        P = expm(-q * t)
        mean = n0 @ P
        # walkers move independently: n_j(t) is a sum of Bernoulli(P_ij) over walkers
        var = n0 @ (P * (1.0 - P))
        assert (finals.sum(axis=1) == n0.sum()).all()
        se = np.sqrt(var / self.REPS)
        assert (np.abs(finals.mean(axis=0) - mean) <= 6.0 * se).all()

    def test_immigration_counts_are_poisson_with_integrated_mean(self):
        m, t, N = 4, 1.2, 10
        rng, _, Q, q = self._case(22, m)
        b = rng.uniform(0.2, 1.0, size=m)
        demo = DemographyRates(b=b, d=np.zeros(m))
        finals = np.array([
            simulate_population(Q, demo, np.zeros(m, dtype=int), N, t, seed, t).values[-1]
            for seed in range(self.REPS)
        ])
        mean, _ = quad_vec(lambda s: expm(-q.T * s) @ b, 0.0, t, epsabs=1e-12)
        mean = N * mean
        se = np.sqrt(mean / self.REPS)
        assert (np.abs(finals.mean(axis=0) - mean) <= 6.0 * se).all()


def _master_equation_final(alpha, birth, death, n0, t):
    """Law of n(t) from the forward equation on {n : sum(n) <= K}, births past K leaking.

    ``birth`` and ``death`` are the event rates N*b and N*d; removals are
    suppressed at empty nodes.  K is raised until the mass that has leaked
    by t is below 1e-12.  Returns the states (rows) and their probabilities.
    """
    m = len(n0)
    K = int(sum(n0)) + 10
    while True:
        states = [s for s in np.ndindex(*(K + 1,) * m) if sum(s) <= K]
        index = {s: k for k, s in enumerate(states)}
        rows, cols, vals = [], [], []
        for k, s in enumerate(states):
            moves = []
            for i in range(m):
                up = s[:i] + (s[i] + 1,) + s[i + 1:]
                down = s[:i] + (s[i] - 1,) + s[i + 1:]
                moves.append((up, birth[i]))
                if s[i] > 0:
                    moves.append((down, death[i]))
                    for j in range(m):
                        if alpha[i, j] > 0:
                            to = down[:j] + (down[j] + 1,) + down[j + 1:]
                            moves.append((to, s[i] * alpha[i, j]))
            for to, rate in moves:
                rows.append(k)
                cols.append(k)
                vals.append(-rate)
                if to in index:
                    rows.append(index[to])
                    cols.append(k)
                    vals.append(rate)
        A = sparse.csc_matrix((vals, (rows, cols)), shape=(len(states),) * 2)
        p0 = np.zeros(len(states))
        p0[index[tuple(int(v) for v in n0)]] = 1.0
        p = expm_multiply(A * t, p0)
        if 1.0 - p.sum() < 1e-12:
            return np.array(states), p
        K *= 2


class TestMasterEquation:
    """The event loop's law of n(t) with births and deaths, against the forward equation.

    Non-dyadic rates on 2 and 3 nodes.  Over REPS seeds the per-node mean and
    variance of the final counts must lie within Z standard errors of the
    exact moments; the standard error of the sample variance uses the exact
    fourth central moment.
    """

    REPS = 2000
    Z = 5.0

    # far from equilibrium at t, so the moments depend on the waiting-time law
    @pytest.mark.parametrize("seed, n0, N, t", [
        pytest.param(41, [8, 0], 2, 0.5, id="2-nodes"),
        pytest.param(42, [6, 0, 2], 2, 0.5, id="3-nodes"),
    ])
    def test_final_counts_match_master_equation(self, seed, n0, N, t):
        m = len(n0)
        rng = np.random.default_rng(seed)
        Q = generator_from_rates(
            m, random_directed_rates(rng, m, lambda: float(rng.uniform(0.5, 2.0))))
        demo = DemographyRates(b=rng.uniform(0.2, 1.0, size=m), d=rng.uniform(0.5, 1.5, size=m))
        states, p = _master_equation_final(Q.rates.toarray(), N * demo.b, N * demo.d, n0, t)
        mean = p @ states
        c = states - mean
        var = p @ c**2
        mu4 = p @ c**4
        finals = np.array([simulate_population(Q, demo, n0, N, t, s, t).values[-1]
                           for s in range(self.REPS)])
        n = self.REPS
        se_mean = np.sqrt(var / n)
        se_var = np.sqrt(mu4 / n - var**2 * (n - 3) / (n * (n - 1)))
        assert (np.abs(finals.mean(axis=0) - mean) <= self.Z * se_mean).all()
        assert (np.abs(finals.var(axis=0, ddof=1) - var) <= self.Z * se_var).all()


class TestSnapshotSampler:
    """With d = 0 the counts are drawn at the snapshot times; the event loop is the oracle.

    Two-sample z-scores compare the per-node means at every snapshot and the
    lag-one covariances Cov(n_i(t_k), n_j(t_k+1)), which a sampler drawing
    each snapshot afresh from its marginal law would get wrong.  The grid
    0, 0.3, 0.6, 0.7 ends on a remainder gap.
    """

    REPS = 300
    Z = 5.0
    T_END, EVERY = 0.7, 0.3

    def _paths(self, simulate, Q, demo, n0, N, seeds):
        return np.array([simulate(Q, demo, n0, N, self.T_END, seed, self.EVERY).values
                         for seed in seeds])

    def _assert_within_z(self, x, y):
        """Per-replicate statistics x, y (first axis) have equal means within Z SE."""
        se = np.sqrt(x.var(axis=0, ddof=1) / len(x) + y.var(axis=0, ddof=1) / len(y))
        assert (np.abs(x.mean(axis=0) - y.mean(axis=0)) <= self.Z * se).all()

    def _assert_same_law(self, Q, demo, n0, N):
        new = self._paths(simulate_population, Q, demo, n0, N, range(self.REPS))
        ref = self._paths(_reference_simulate, Q, demo, n0, N,
                          range(self.REPS, 2 * self.REPS))
        assert new.shape == ref.shape == (self.REPS, 4, Q.dim)
        self._assert_within_z(new, ref)

        def lag_one(paths):
            c = paths - paths.mean(axis=0)
            return c[:, :-1, :, None] * c[:, 1:, None, :]

        self._assert_within_z(lag_one(new), lag_one(ref))

    def _case(self, seed, m):
        rng = np.random.default_rng(seed)
        Q = generator_from_rates(
            m, random_directed_rates(rng, m, lambda: float(rng.uniform(0.5, 2.0))))
        return rng, Q

    def test_closed_law_matches_event_loop(self):
        rng, Q = self._case(31, 5)
        self._assert_same_law(Q, no_demography(5), rng.integers(0, 30, size=5), 80)

    def test_births_law_matches_event_loop(self):
        rng, Q = self._case(32, 4)
        demo = DemographyRates(b=rng.uniform(0.2, 1.0, size=4), d=np.zeros(4))
        self._assert_same_law(Q, demo, rng.integers(0, 10, size=4), 40)

    def test_one_expm_per_distinct_gap(self, monkeypatch):
        # the gap exponential P (and with births lam) is formed once per distinct gap
        calls = []

        def counted(q, inflow, step):
            calls.append((step, bool(inflow.any())))
            return gap_laws(q, inflow, step)

        gap_laws = popsim._gap_laws
        monkeypatch.setattr(popsim, "_gap_laws", counted)
        births = DemographyRates(b=np.full(4, 0.2), d=np.zeros(4))
        # arange's 0.1-spaced points differ from multiples of 0.1 by round-off only
        for demo, t_end, every, expected in [(no_demography(4), 1.0, 0.1, [(0.1, False)]),
                                             (no_demography(4), 1.0, 0.3,
                                              [(pytest.approx(0.1), False), (0.3, False)]),
                                             (births, 0.7, 0.1, [(0.1, True)])]:
            calls.clear()
            traj = simulate_population(cycle4_Q(), demo, [5] * 4, 10, t_end, 0, every)
            assert calls == expected
            assert traj.event_count is None

    def test_ended_early_only_in_an_absorbing_state(self):
        Q = cycle4_Q()
        # a plain bool, as the manifest's JSON needs
        empty = simulate_population(Q, no_demography(4), [0] * 4, 5, 1.0, 0, 0.5)
        assert empty.ended_early is True
        np.testing.assert_array_equal(empty.values, np.zeros((3, 4)))
        moving = simulate_population(Q, no_demography(4), [1, 0, 0, 0], 5, 1.0, 0, 0.5)
        assert moving.ended_early is False
        births = DemographyRates(b=np.full(4, 0.1), d=np.zeros(4))
        assert simulate_population(Q, births, [0] * 4, 5, 1.0, 0, 0.5).ended_early is False


class TestGapLaws:
    """One gap's (P, lam) by uniformization, against scipy's expm and the augmented oracle."""

    @pytest.mark.parametrize("x", [1e-3, 0.1, 1.0, 8.0, 8.5, 47.0, 1e3])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_expm_at_any_rate_times_step(self, seed, x):
        # x = max Q_ii * step; above MAX_JUMPS = 8 the gap is split and squared
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 9))
        Q = generator_from_rates(
            m, random_directed_rates(rng, m, lambda: float(rng.uniform(0.5, 2.0))))
        q = Q.dense()
        step = x / q.diagonal().max()
        births = rng.uniform(0.0, 1.0, size=m)
        P, lam = popsim._gap_laws(q, births, step)
        assert (P >= 0).all()
        np.testing.assert_allclose(P, expm(-q * step), rtol=0, atol=1e-13)
        oracle = augmented_oracle(q, births, np.zeros(m), step)
        np.testing.assert_allclose(lam, oracle, rtol=0, atol=1e-13 * oracle.sum())
        P_closed, none = popsim._gap_laws(q, np.zeros(m), step)
        assert none is None
        np.testing.assert_array_equal(P_closed, P)


BAD_GRIDS = [
    pytest.param(1.0, 0.0, id="zero-step"),
    pytest.param(1.0, -0.25, id="negative-step"),
    pytest.param(1.0, np.nan, id="nan-step"),
    pytest.param(1.0, np.inf, id="inf-step"),
    pytest.param(0.0, 0.25, id="zero-t_end"),
    pytest.param(np.inf, 0.25, id="inf-t_end"),
    pytest.param(np.nan, 0.25, id="nan-t_end"),
]


class TestRejectsBadInputs:
    @pytest.mark.parametrize("death", [0.0, 0.5], ids=["closed", "deaths"])
    @pytest.mark.parametrize("N, t_end, every", [
        pytest.param(0, 1.0, 0.25, id="N=0"),
        *(pytest.param(10, *bad.values, id=bad.id) for bad in BAD_GRIDS),
    ])
    def test_simulate_population(self, death, N, t_end, every):
        demo = DemographyRates(b=np.zeros(2), d=np.full(2, death))
        with pytest.raises(DataError):
            simulate_population(two_node_Q(), demo, [5, 5], N, t_end, 0, every)

    @pytest.mark.parametrize("death", [0.0, 0.5], ids=["closed", "deaths"])
    @pytest.mark.parametrize("n0, N", [
        pytest.param([2.7, 3.9], 10, id="fractional-n0"),
        pytest.param([np.nan, 3.0], 10, id="nan-n0"),
        pytest.param([np.inf, 3.0], 10, id="inf-n0"),
        pytest.param([5, 5], 2.5, id="fractional-N"),
        pytest.param([5, 5], np.inf, id="inf-N"),
    ])
    def test_simulate_population_integrality(self, death, n0, N):
        demo = DemographyRates(b=np.zeros(2), d=np.full(2, death))
        with pytest.raises(DataError, match="n0 must|N must"):
            simulate_population(two_node_Q(), demo, n0, N, 1.0, 0, 0.5)

    def test_integral_float_counts_are_accepted(self):
        demo = DemographyRates(b=np.zeros(2), d=np.full(2, 0.5))
        a = simulate_population(two_node_Q(), demo, [5.0, 5.0], 10.0, 1.0, 3, 0.5)
        b = simulate_population(two_node_Q(), demo, [5, 5], 10, 1.0, 3, 0.5)
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("run", ["closed", "deaths", "ode", "convergence"])
    def test_grid_beyond_max_snapshots(self, run):
        demo = DemographyRates(b=np.zeros(2), d=np.full(2, 0.5 if run == "deaths" else 0.0))
        with pytest.raises(DataError, match=r"t_end=1e\+300 with snapshot_every=1e-300 .*MAX_SNAPSHOTS"):
            if run == "ode":
                integrate_limit_ode(two_node_Q(), demo, [0.5, 0.5], 1e300, snapshot_every=1e-300)
            elif run == "convergence":
                convergence_gap(two_node_Q(), demo, [0.5, 0.5], 1e300, [10], 1, 0,
                                snapshot_every=1e-300)
            else:
                simulate_population(two_node_Q(), demo, [5, 5], 10, 1e300, 0, 1e-300)

    def test_grid_bound_is_the_point_count(self, monkeypatch):
        monkeypatch.setattr(popsim, "MAX_SNAPSHOTS", 5)
        assert _snapshot_grid(4.0, 1.0).size == 5  # 0, 1, 2, 3, 4
        assert _snapshot_grid(3.5, 1.0).size == 5  # 0, 1, 2, 3, 3.5
        with pytest.raises(DataError, match="needs 5.5 snapshot times"):
            _snapshot_grid(4.5, 1.0)

    @pytest.mark.parametrize("death", [0.0, 0.5], ids=["closed", "deaths"])
    @pytest.mark.parametrize("n0", [[1e30, 0.0], np.array([2**64 - 1, 0], dtype=np.uint64),
                                    [2.0**63, 0.0]], ids=["1e30", "uint64", "2**63"])
    def test_counts_beyond_int64(self, death, n0):
        demo = DemographyRates(b=np.zeros(2), d=np.full(2, death))
        with pytest.raises(DataError, match="n0 has a count of"):
            simulate_population(two_node_Q(), demo, n0, 10, 1.0, 0, 0.5)

    def test_largest_int64_count_is_kept(self):
        np.testing.assert_array_equal(_counts([2**63 - 1, 0], "n0"), [2**63 - 1, 0])

    @pytest.mark.parametrize("death", [0.0, 0.5], ids=["closed", "deaths"])
    def test_scale_beyond_int64(self, death):
        demo = DemographyRates(b=np.zeros(2), d=np.full(2, death))
        with pytest.raises(DataError, match="N must be an integer"):
            simulate_population(two_node_Q(), demo, [5, 5], 10**30, 1.0, 0, 0.5)
        with pytest.raises(DataError, match="N must be an integer"):
            convergence_gap(two_node_Q(), demo, [0.5, 0.5], 1.0, [10, 10**30], 1, 0)
        with pytest.raises(DataError, match=r"round\(N \* z0\) with N=10 has a count of 1e\+31"):
            convergence_gap(two_node_Q(), demo, [0.5, 1e30], 1.0, [10], 1, 0)

    @pytest.mark.parametrize("t_end, every", BAD_GRIDS)
    def test_integrate_limit_ode(self, t_end, every):
        with pytest.raises(DataError):
            integrate_limit_ode(two_node_Q(), no_demography(2), [0.5, 0.5], t_end,
                                snapshot_every=every)

    @pytest.mark.parametrize("length", [1, 4], ids=["one-rate", "M+1-rates"])
    def test_demography_length(self, length, monkeypatch):
        Q = generator_from_rates(3, {(0, 1): 1.0, (1, 2): 1.0, (2, 0): 1.0})
        demo = DemographyRates(b=np.r_[0.3, np.zeros(length - 1)], d=np.zeros(length))
        match = "demography rate length does not match the graph"
        with pytest.raises(DataError, match=match):
            integrate_limit_ode(Q, demo, np.full(3, 1 / 3), 1.0, snapshot_every=0.5)
        with pytest.raises(DataError, match=match):
            simulate_population(Q, demo, [5, 5, 5], 10, 1.0, 0, 0.5)

        def never(*args, **kwargs):
            raise AssertionError("convergence_gap simulated before checking its demography")

        monkeypatch.setattr(popsim, "simulate_population", never)
        with pytest.raises(DataError, match=match):
            convergence_gap(Q, demo, np.full(3, 1 / 3), 1.0, [10, 100], 2, seed=0)

    @pytest.mark.parametrize("z0", [[np.nan, 0.5], [0.5, np.inf]], ids=["nan", "inf"])
    def test_non_finite_z0(self, z0):
        with pytest.raises(DataError, match="z0 must be finite"):
            integrate_limit_ode(two_node_Q(), no_demography(2), z0, 1.0, snapshot_every=0.5)
        demo = DemographyRates(b=np.full(2, 0.5), d=np.full(2, 0.5))
        with pytest.raises(DataError, match="z0 must be finite"):
            convergence_gap(two_node_Q(), demo, z0, 1.0, N_list=[10], replicates=1, seed=0)

    @pytest.mark.parametrize("call, match", [
        pytest.param(lambda: DemographyRates(b=np.zeros(3), d=np.zeros(2)),
                     "1-d arrays of equal length", id="b-d-lengths"),
        pytest.param(lambda: DemographyRates(b=np.zeros((2, 2)), d=np.zeros((2, 2))),
                     "1-d arrays of equal length", id="matrix-rates"),
        pytest.param(lambda: DemographyRates(b=np.array([np.nan, 0.1]), d=np.zeros(2)),
                     "rates must be finite", id="nan-birth"),
        pytest.param(lambda: DemographyRates(b=np.zeros(2), d=np.array([0.1, np.inf])),
                     "rates must be finite", id="inf-death"),
        pytest.param(lambda: DemographyRates(b=np.array([-0.1, 0.1]), d=np.zeros(2)),
                     "rates must be nonnegative", id="negative-birth"),
        pytest.param(lambda: DemographyRates(b=np.zeros(2), d=np.array([0.1, -0.1])),
                     "rates must be nonnegative", id="negative-death"),
        pytest.param(lambda: simulate_population(two_node_Q(), no_demography(2), [5, 3, 2], 10,
                                                 1.0, 0, 0.5),
                     r"n0 must have length M=2, got shape \(3,\)", id="n0-length"),
        pytest.param(lambda: integrate_limit_ode(two_node_Q(), no_demography(2), [0.5, 0.3, 0.2],
                                                 1.0, snapshot_every=0.5),
                     "z0 must have length M", id="z0-length"),
    ])
    def test_rejects_bad_inputs(self, call, match):
        with pytest.raises(DataError, match=match):
            call()


def augmented_oracle(q, drift, z0, t):
    """z(t) of dz/dt = -q'z + drift, read off expm([[-q' t, drift t], [0, 0]]) @ [z0; 1]."""
    m = q.shape[0]
    block = np.zeros((m + 1, m + 1))
    block[:m, :m] = -q.T * t
    block[:m, m] = drift * t
    return (expm(block) @ np.append(z0, 1.0))[:m]


class TestLimitODE:
    def test_balanced_demography_preserves_total(self):
        Q = cycle4_Q()
        demo = DemographyRates(b=np.array([0.4, 0.1, 0.1, 0.4]),
                               d=np.array([0.1, 0.4, 0.4, 0.1]))
        assert (demo.b - demo.d).sum() == pytest.approx(0.0)
        traj = integrate_limit_ode(Q, demo, np.full(4, 0.25), 3.0, snapshot_every=0.5)
        np.testing.assert_allclose(traj.values.sum(axis=1), np.ones(traj.times.size),
                                   atol=1e-10)

    def test_two_node_analytic_solution(self):
        # dz/dt = -Q'z: symmetric 2-state chain relaxes as exp(-2t)
        Q = two_node_Q()
        z0 = np.array([0.8, 0.2])
        traj = integrate_limit_ode(Q, no_demography(2), z0, 1.0, snapshot_every=0.25)
        for t, z in zip(traj.times, traj.values):
            gap = 0.3 * np.exp(-2.0 * t)
            np.testing.assert_allclose(z, [0.5 + gap, 0.5 - gap], rtol=0, atol=1e-13)

    def test_matches_matrix_exponential_oracle(self):
        Q = cycle4_Q()
        rng = np.random.default_rng(9)
        z0 = rng.dirichlet(np.ones(4))
        traj = integrate_limit_ode(Q, no_demography(4), z0, 2.0, snapshot_every=1.0)
        for t, z in zip(traj.times, traj.values):
            oracle = expm(-Q.dense().T * t) @ z0
            np.testing.assert_allclose(z, oracle, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("t_end, every", [(2.0, 0.5), (1.0, 0.3)],
                             ids=["even-grid", "remainder-gap"])
    def test_net_growth_matches_augmented_oracle(self, t_end, every):
        rng = np.random.default_rng(10)
        Q = generator_from_rates(
            5, random_directed_rates(rng, 5, lambda: float(rng.uniform(0.5, 2.0))))
        demo = DemographyRates(b=rng.uniform(0.0, 0.5, size=5), d=rng.uniform(0.0, 0.5, size=5))
        z0 = rng.dirichlet(np.ones(5))
        traj = integrate_limit_ode(Q, demo, z0, t_end, snapshot_every=every)
        assert traj.times[-1] == t_end
        for t, z in zip(traj.times, traj.values):
            np.testing.assert_allclose(z, augmented_oracle(Q.dense(), demo.b - demo.d, z0, t),
                                       rtol=0, atol=1e-13)

    def test_one_expm_per_distinct_gap(self, monkeypatch):
        calls = []

        def counted(q, inflow, step):
            calls.append((step, bool(inflow.any())))
            return gap_laws(q, inflow, step)

        gap_laws = popsim._gap_laws
        monkeypatch.setattr(popsim, "_gap_laws", counted)
        net = DemographyRates(b=np.full(4, 0.3), d=np.array([0.1, 0.5, 0.3, 0.3]))
        for demo, every, expected in [(no_demography(4), 0.1, [(0.1, False)]),
                                      (net, 0.3, [(pytest.approx(0.1), True), (0.3, True)])]:
            calls.clear()
            integrate_limit_ode(cycle4_Q(), demo, np.full(4, 0.25), 1.0, snapshot_every=every)
            assert calls == expected

    def test_edgeless_graph_grows_linearly(self):
        # max Q_ii = 0: nothing moves, and each node gains (b - d) per unit time
        Q = generator_from_rates(2, {})
        demo = DemographyRates(b=np.array([0.3, 0.1]), d=np.zeros(2))
        traj = integrate_limit_ode(Q, demo, [0.5, 0.5], 1.0, snapshot_every=0.5)
        np.testing.assert_allclose(traj.values, [[0.5, 0.5], [0.65, 0.55], [0.8, 0.6]],
                                   rtol=0, atol=1e-15)

    def test_stiff_gap_reaches_the_stationary_law(self):
        # one gap of max Q_ii * step = 2000, summed as 2^8 parts composed by squaring
        Q = generator_from_rates(3, {(0, 1): 1.0, (1, 0): 1.0, (1, 2): 1.0, (2, 1): 1.0})
        traj = integrate_limit_ode(Q, no_demography(3), [1.0, 0.0, 0.0], 1000.0,
                                   snapshot_every=1000.0)
        np.testing.assert_allclose(traj.values[-1], np.full(3, 1 / 3), rtol=0, atol=1e-13)

    def test_very_long_gap_keeps_its_mass(self):
        # max Q_ii * step = 2e9, 2^28 parts: each squaring would double the
        # row-sum round-off of P if its rows were not scaled back to sum 1
        Q = generator_from_rates(3, {(0, 1): 1.0, (1, 0): 1.0, (1, 2): 1.0, (2, 1): 1.0})
        traj = integrate_limit_ode(Q, no_demography(3), [1.0, 0.0, 0.0], 1e9, snapshot_every=1e9)
        assert abs(traj.values[-1].sum() - 1.0) <= 1e-13
        np.testing.assert_allclose(traj.values[-1], np.full(3, 1 / 3), rtol=0, atol=1e-13)

    def test_equilibrium_is_fixed_point(self):
        Q = cycle4_Q()
        z_eq = np.full(4, 0.25)
        traj = integrate_limit_ode(Q, no_demography(4), z_eq, 1.0, snapshot_every=0.5)
        np.testing.assert_allclose(traj.values, np.tile(z_eq, (3, 1)), atol=1e-12)


class TestConstructiveLink:
    """The ODE limit relaxes to the field's constrained solve plus the walk's own flow.

    With sum-zero net growth g = b - d the flow's fixed point, shifted by the
    mass of z0, is pi + (1'z0) v where Q'pi = g, 1'pi = 0, and v is the
    stationary law; the zero-demography flow from z0 tends to (1'z0) v.
    """

    @pytest.mark.parametrize("seed", range(20))
    def test_limit_is_constrained_solve_plus_free_flow(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 13))
        Q = generator_from_rates(
            m, random_directed_rates(rng, m, lambda: float(rng.uniform(0.5, 2.0))))
        g = rng.normal(0.0, 0.05, size=m)
        g -= g.mean()
        demo = DemographyRates(b=np.clip(g, 0.0, None), d=np.clip(-g, 0.0, None))
        z0 = rng.dirichlet(np.ones(m))
        pi = constrained_solve(Q, demo.b - demo.d)
        for every in (200.0, 7.0):
            end = integrate_limit_ode(Q, demo, z0, 200.0, snapshot_every=every).values[-1]
            free = integrate_limit_ode(Q, no_demography(m), z0, 200.0,
                                       snapshot_every=every).values[-1]
            np.testing.assert_allclose(end, pi + free, rtol=0, atol=1e-10)


class TestConvergenceGap:
    def test_gap_shrinks_with_N(self):
        Q = cycle4_Q()
        demo = DemographyRates(b=np.array([0.2, 0.0, 0.0, 0.2]),
                               d=np.array([0.0, 0.2, 0.2, 0.0]))
        gaps = convergence_gap(Q, demo, np.full(4, 0.25), t_end=1.0,
                               N_list=[50, 5000], replicates=8, seed=12)
        assert gaps[5000] < gaps[50]

    def test_requires_increasing_N(self):
        Q = two_node_Q()
        with pytest.raises(DataError):
            convergence_gap(Q, no_demography(2), [0.5, 0.5], 1.0,
                            N_list=[100, 100], replicates=2, seed=0)

    @pytest.mark.parametrize("replicates", [0, -1])
    def test_requires_a_replicate(self, replicates):
        with pytest.raises(DataError, match="replicates must be at least 1"):
            convergence_gap(two_node_Q(), no_demography(2), [0.5, 0.5], 1.0,
                            N_list=[100], replicates=replicates, seed=0)

    def test_replicate_streams_are_seed_stable(self):
        Q = two_node_Q()
        demo = no_demography(2)
        a = convergence_gap(Q, demo, [0.5, 0.5], 0.5, [100], 4, seed=5)
        b = convergence_gap(Q, demo, [0.5, 0.5], 0.5, [100], 4, seed=5)
        assert a == b
