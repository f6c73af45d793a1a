"""Identifiability classification and the confounded-cycle construction."""

import gc
import json
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import walkfield.ident as ident
from walkfield.errors import DataError
from walkfield.ident import (
    IDENTIFIABLE,
    LOOP,
    REDUCIBLE,
    check_identifiable,
    construct_confounded_pair,
    verify_unique,
)
from walkfield.graph import generator_from_rates

from test_graph import line_graph, random_graph
from walkfield.graph import RateParams, build_generator, edge_rates_loglinear


def directed_cycle(rates):
    """One-directional cycle i -> i+1 (mod m) with given per-node exit rates."""
    m = len(rates)
    return generator_from_rates(
        m, {(i, (i + 1) % m): float(r) for i, r in enumerate(rates)}
    )


class TestClassification:
    def test_line_graph_identifiable(self):
        g = line_graph(4)
        Q = build_generator(g, edge_rates_loglinear(g, RateParams((0.0, 0.0, 0.0))))
        rep = check_identifiable(Q)
        assert rep.classification == IDENTIFIABLE
        assert rep.witness_row is not None

    def test_directed_cycle_is_loop(self):
        rep = check_identifiable(directed_cycle([1.0, 2.0, 3.0]))
        assert rep.classification == LOOP
        assert list(rep.cycle_order) is not None

    def test_disconnected_is_reducible(self):
        Q = generator_from_rates(4, {(0, 1): 1.0, (1, 0): 1.0,
                                     (2, 3): 1.0, (3, 2): 1.0})
        assert check_identifiable(Q).classification == REDUCIBLE

    def test_two_cycle_labeled_loop(self):
        # documented edge case: the 2-cycle's reversal is itself
        Q = generator_from_rates(2, {(0, 1): 1.0, (1, 0): 2.0})
        assert check_identifiable(Q).classification == LOOP

    def test_one_node_is_data_error(self):
        Q = generator_from_rates(1, {})
        with pytest.raises(DataError, match="at least 2 nodes, got 1"):
            check_identifiable(Q)
        with pytest.raises(DataError, match="at least 2 nodes, got 1"):
            verify_unique(Q, 0, 0, candidates=[{}])

    def test_report_serializes(self):
        rep = check_identifiable(directed_cycle([1.0, 1.0, 1.0]))
        decoded = json.loads(rep.to_json())
        assert decoded["classification"] == LOOP


class TestConfoundedPair:
    def test_three_node_hand_values(self):
        # forward/backward cycles with r = (1, 2, 3) share
        # QQ' = [[2,-2,-3],[-2,8,-6],[-3,-6,18]] entrywise
        Q, W = construct_confounded_pair([1.0, 2.0, 3.0])
        expected = np.array([
            [2.0, -2.0, -3.0],
            [-2.0, 8.0, -6.0],
            [-3.0, -6.0, 18.0],
        ])
        np.testing.assert_allclose(Q.dense() @ Q.dense().T, expected, atol=1e-12)
        np.testing.assert_allclose(W.dense() @ W.dense().T, expected, atol=1e-12)
        assert np.abs(Q.dense() - W.dense()).max() > 0.5

    def test_random_cycles_share_precision(self):
        rng = np.random.default_rng(17)
        for m in range(3, 9):
            r = rng.uniform(0.2, 5.0, size=m)
            Q, W = construct_confounded_pair(r)
            d = np.abs(Q.dense() @ Q.dense().T - W.dense() @ W.dense().T).max()
            assert d < 1e-12 * max(r) ** 2
            assert np.abs(Q.dense() - W.dense()).max() > 1e-6

    def test_rejects_short_cycles(self):
        with pytest.raises(DataError):
            construct_confounded_pair([1.0, 2.0])

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
    def test_rejects_a_rate_that_is_not_positive(self, rate):
        with pytest.raises(DataError, match="strictly positive"):
            construct_confounded_pair([1.0, rate, 2.0])


class TestVerifyUnique:
    def test_unique_on_branching_graph(self):
        g = line_graph(4)
        Q = build_generator(g, edge_rates_loglinear(g, RateParams((0.0, 0.0, 0.0))))
        assert verify_unique(Q, trials=5, seed=0)

    def test_planted_confounder_detected(self):
        # supplying the reversed cycle as a candidate must defeat uniqueness
        Q, W = construct_confounded_pair([1.0, 2.0, 3.0])
        w = W.dense()
        w_rates = {(i, j): -w[i, j] for i in range(3) for j in range(3)
                   if i != j and w[i, j] != 0.0}
        assert not verify_unique(Q, trials=0, seed=0, candidates=[w_rates])

    @pytest.mark.parametrize("key, rate", [
        ((0, 0), 1.0), ((0, 3), 1.0), ((-1, 0), 1.0),
        ((0, 1), 0.0), ((0, 1), -1.0), ((0, 1), float("nan")), ((0, 1), float("inf")),
    ], ids=["diagonal", "outside", "negative-index", "zero", "negative", "nan", "inf"])
    def test_bad_candidate_is_data_error_naming_the_key(self, key, rate):
        Q, _ = construct_confounded_pair([1.0, 2.0, 3.0])
        candidate = {(1, 2): 1.0, key: rate}
        with pytest.raises(DataError, match=rf"candidate \({key[0]}, {key[1]}\): {rate} is not"):
            verify_unique(Q, trials=0, seed=0, candidates=[candidate])

    @pytest.mark.parametrize("trials, own", [(3, 0), (1, 2)])
    def test_one_minimize_per_start(self, monkeypatch, trials, own):
        # the benchmark counts restarts by wrapping ident.minimize, so every
        # start must be one call of it when no confounder turns up
        g = line_graph(4)
        Q = build_generator(g, edge_rates_loglinear(g, RateParams((0.0, 0.0, 0.0))))
        q = Q.dense()
        rates = {(i, j): q[i, j] for i in range(4) for j in range(4) if i != j and q[i, j] > 0}
        real = ident.minimize
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(ident, "minimize", counted)
        assert verify_unique(Q, trials=trials, seed=0, candidates=[rates] * own)
        assert len(calls) == trials + own

    def test_loop_precondition_enforced(self):
        Q = directed_cycle([1.0, 2.0, 3.0])
        with pytest.raises(DataError):
            verify_unique(Q, trials=1, seed=0)

    def test_does_not_pin_callers_locals(self):
        # with the collector off, the caller's arrays must be freed as soon as
        # it returns: the probe leaves no reference cycle that reaches its frame
        g = line_graph(4)
        Q = build_generator(g, edge_rates_loglinear(g, RateParams((0.0, 0.0, 0.0))))

        def caller():
            held = np.ones(1000)
            assert verify_unique(Q, 1, 0)
            return weakref.ref(held)

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            ref = caller()
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_runs_no_collection(self):
        # the bounded line search needs no bracket, so no caught error leaves
        # a cycle behind and the probe has nothing to collect
        g = line_graph(4)
        Q = build_generator(g, edge_rates_loglinear(g, RateParams((0.0, 0.0, 0.0))))
        started = []

        def hook(phase, info):
            if phase == "start":
                started.append(info["generation"])

        was_enabled = gc.isenabled()
        gc.disable()
        gc.callbacks.append(hook)
        try:
            assert verify_unique(Q, 2, 0)
        finally:
            gc.callbacks.remove(hook)
            if was_enabled:
                gc.enable()
        assert started == []

    def test_start_beyond_the_box_is_clipped_into_it(self):
        # log(1e20) = 46 lies outside [-40, 40]; the start is clipped, so the
        # result is the clipped rate's and scipy warns of no out-of-box guess
        Q, W = construct_confounded_pair([1.0, 2.0, 3.0])
        w = W.dense()
        w_rates = {(i, j): -w[i, j] for i in range(3) for j in range(3)
                   if i != j and w[i, j] != 0.0}
        for cand, unique in ((w_rates, False), ({(1, 2): 1.0}, True)):
            for rate in (1e20, float(np.exp(40.0))):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    found = verify_unique(Q, 0, 0, candidates=[{**cand, (0, 2): rate}])
                assert found is unique


def random_identifiable(rng, m):
    """A two-way path plus random extra edges, drawn until IdentifiableByTheorem."""
    while True:
        Q = generator_from_rates(m, {(i, j): float(rng.uniform(0.5, 2.0))
                                     for i in range(m) for j in range(m)
                                     if i != j and (abs(i - j) == 1 or rng.random() < 0.3)})
        if check_identifiable(Q).classification == IDENTIFIABLE:
            return Q


def dense_objective(x, target):
    """The probe's objective as first written: Σ(WW' - target)² and W.

    W = diag(rowsum) - rate, with the clipped log-rates filled into the
    off-diagonal mask in row-major order (the order of the probe's pairs).
    """
    m = target.shape[0]
    rate, w, d = np.zeros((m, m)), np.empty((m, m)), np.empty((m, m))
    rate[~np.eye(m, dtype=bool)] = np.exp(np.clip(x, -40, 40))
    np.negative(rate, out=w)
    w.flat[:: m + 1] = rate.sum(axis=1)
    np.dot(w, w.T, out=d)
    np.subtract(d, target, out=d)
    return float(np.vdot(d, d)), w


class TestDenseGenerator:
    """Every value the probe's search sees, against :func:`dense_objective`.

    Equal values, bit for bit, mean that Powell takes the same path and the
    probe gives the same verdict as with the objective written plainly.
    """

    @staticmethod
    def recorded(monkeypatch):
        """Spy on ident.minimize: per call, its objective, the (x, value) pairs
        it evaluated, and the result."""
        real = ident.minimize
        runs = []

        def spy(fun, x0, **kwargs):
            seen = []

            def recording(x):
                value = fun(x)
                seen.append((x.copy(), value))
                return value

            res = real(recording, x0, **kwargs)
            runs.append((fun, seen, res))
            return res

        monkeypatch.setattr(ident, "minimize", spy)
        return runs

    @staticmethod
    def assert_values_equal(Q, runs):
        q = Q.dense()
        target = q @ q.T
        assert runs
        for _, seen, res in runs:
            assert seen
            for x, value in seen:
                assert value == dense_objective(x, target)[0]
            assert res.fun == dense_objective(res.x, target)[0]

    @pytest.mark.parametrize("seed", range(5))
    def test_random_small_graphs(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 7))
        Q = random_identifiable(rng, m)
        runs = self.recorded(monkeypatch)
        assert verify_unique(Q, trials=1, seed=seed)
        self.assert_values_equal(Q, runs)

    @pytest.mark.parametrize("m", [9, 12])
    def test_larger_graphs(self, monkeypatch, m):
        # from m = 9 a row of rates is 8 or more terms, where numpy's pairwise
        # sum starts to group them; the row sums must still match rate.sum(axis=1)
        g = line_graph(m)
        Q = build_generator(g, edge_rates_loglinear(g, RateParams((0.0, 0.5, 0.0))))
        runs = self.recorded(monkeypatch)
        assert verify_unique(Q, trials=1, seed=m)
        self.assert_values_equal(Q, runs)
        fun = runs[0][0]
        rng = np.random.default_rng(m)
        q = Q.dense()
        for _ in range(20):
            x = rng.normal(0.0, 3.0, m * (m - 1))
            assert fun(x) == dense_objective(x, q @ q.T)[0]

    def test_start_clipped_from_beyond_the_box(self, monkeypatch):
        Q, W = construct_confounded_pair([1.0, 2.0, 3.0])
        w = W.dense()
        w_rates = {(i, j): -w[i, j] for i in range(3) for j in range(3)
                   if i != j and w[i, j] != 0.0}
        runs = self.recorded(monkeypatch)
        assert not verify_unique(Q, 0, 0, candidates=[{**w_rates, (0, 2): 1e20}])
        self.assert_values_equal(Q, runs)
        (fun, seen, _), = runs
        first_x = seen[0][0]
        assert first_x[1] == 40.0  # pairs[1] is (0, 2); log(1e20) = 46
        # the search stays in the box, so clip the objective's own input here
        q = Q.dense()
        for x in ([46.0, -50.0, 0.3, 41.0, -41.0, 1.0], [-30.0, 50.0, -40.0, 40.0, 0.0, -1e3]):
            assert fun(np.array(x)) == dense_objective(np.array(x), q @ q.T)[0]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sparse_generator(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 7))
        pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
        x = rng.normal(0.0, 2.0, len(pairs))
        x[rng.choice(len(pairs), 3, replace=False)] = [-30.0, -50.0, 50.0]
        q = generator_from_rates(
            m, {p: float(rng.uniform(0.5, 2.0)) for p in pairs if rng.random() < 0.6})
        target = q.dense() @ q.dense().T
        value, w = dense_objective(x, target)
        # the probe clips log-rates to [-40, 40]; -30 sinks an edge but keeps it
        ref = generator_from_rates(
            m, {p: float(np.exp(a)) for p, a in zip(pairs, np.clip(x, -40, 40))})
        np.testing.assert_allclose(w, ref.dense(), rtol=1e-14, atol=0.0)
        sparse_gap = (ref.matrix @ ref.matrix.T).toarray() - target
        assert value == pytest.approx(float(np.sum(sparse_gap**2)), rel=1e-12)

        # the probe's own objective for q, taken without running the search
        objectives = []

        def no_search(fun, x0, **kwargs):
            objectives.append(fun)
            return SimpleNamespace(x=x0)

        monkeypatch.setattr(ident, "minimize", no_search)
        verify_unique(q, 0, 0, candidates=[{}])
        assert objectives[0](x) == value

    def test_five_node_restart_stops_at_maxfev(self, monkeypatch):
        rng = np.random.default_rng(3)
        Q = random_identifiable(rng, 5)
        runs = self.recorded(monkeypatch)
        assert verify_unique(Q, trials=1, seed=0)
        (_, seen, res), = runs
        assert res.status == 1 and res.nfev == len(seen) == 4000
