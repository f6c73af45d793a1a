"""Identifiability classification and the confounded-cycle construction."""

import gc
import json
import weakref

import numpy as np
import pytest

from walkfield.errors import DataError
from walkfield.ident import (
    IDENTIFIABLE,
    LOOP,
    REDUCIBLE,
    _fill_generator,
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

    def test_loop_precondition_enforced(self):
        Q = directed_cycle([1.0, 2.0, 3.0])
        with pytest.raises(DataError):
            verify_unique(Q, trials=1, seed=0)

    def test_does_not_pin_callers_locals(self):
        # scipy's Powell line search leaves exception -> traceback -> frame
        # cycles behind; their frames reach the caller's frame, so without a
        # collection they keep the caller's arrays alive after it returns
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


class TestDenseGenerator:
    """The probe's dense W against the sparse generator it replaces."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sparse_generator(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 7))
        pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
        x = rng.normal(0.0, 2.0, len(pairs))
        x[rng.choice(len(pairs), 3, replace=False)] = [-30.0, -50.0, 50.0]
        off = ~np.eye(m, dtype=bool)
        rate, w = np.zeros((m, m)), np.empty((m, m))
        _fill_generator(x, off, rate, w)
        # the probe clips log-rates to [-40, 40]; -30 sinks an edge but keeps it
        ref = generator_from_rates(
            m, {p: float(np.exp(a)) for p, a in zip(pairs, np.clip(x, -40, 40))})
        np.testing.assert_allclose(w, ref.dense(), rtol=1e-14, atol=0.0)

        q = generator_from_rates(
            m, {p: float(rng.uniform(0.5, 2.0)) for p in pairs if rng.random() < 0.6})
        target = q.dense() @ q.dense().T
        sparse_gap = (ref.matrix @ ref.matrix.T).toarray() - target
        d = w @ w.T - target
        assert np.vdot(d, d) == pytest.approx(float(np.sum(sparse_gap**2)), rel=1e-12)
