"""Intrinsic field law: precision, pseudo-determinant, constrained solves, density."""

import math
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import helmert

import walkfield.field
from walkfield.datasets import stream_network
from walkfield.errors import DataError, NumericalError
from walkfield.field import (
    IntrinsicField,
    _GroundedLU,
    constrained_solve,
    log_density,
    log_pseudo_det,
    sample_fields,
    stationary_precision,
)
from walkfield.graph import generator_from_rates

from test_graph import line_graph, random_graph
from walkfield.graph import RateParams, build_generator, check_irreducible, edge_rates_loglinear


def sym_generator(rng, m):
    g = random_graph(rng, m)
    params = RateParams(tuple(rng.normal(0, 0.5, size=3)))
    return build_generator(g, edge_rates_loglinear(g, params))


class TestPrecision:
    def test_two_node_hand_value(self):
        # Q = [[1,-1],[-1,1]] -> QQ' = [[2,-2],[-2,2]]
        Q = generator_from_rates(2, {(0, 1): 1.0, (1, 0): 1.0})
        P = stationary_precision(Q).toarray()
        np.testing.assert_allclose(P, [[2.0, -2.0], [-2.0, 2.0]], atol=1e-15)

    def test_psd_with_null_vector_one(self):
        rng = np.random.default_rng(3)
        Q = sym_generator(rng, 9)
        P = stationary_precision(Q).toarray()
        np.testing.assert_allclose(P @ np.ones(9), np.zeros(9), atol=1e-10)
        evals = np.linalg.eigvalsh(P)
        assert evals.min() > -1e-10


class TestLogPseudoDet:
    def test_two_node_hand_value(self):
        # nonzero eigenvalue of [[2,-2],[-2,2]] is 4
        Q = generator_from_rates(2, {(0, 1): 1.0, (1, 0): 1.0})
        P = stationary_precision(Q)
        assert log_pseudo_det(P) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_matches_dense_eig_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            Q = sym_generator(rng, int(rng.integers(4, 11)))
            P = stationary_precision(Q)
            evals = np.linalg.eigvalsh(P.toarray())
            oracle = float(np.log(evals[1:]).sum())
            assert log_pseudo_det(P) == pytest.approx(oracle, abs=1e-8)

    def test_shift_identity(self):
        # adding a*11'/m fills the null direction with eigenvalue a:
        # logdet(P + a*11'/m) = logpdet(P) + log(a)
        rng = np.random.default_rng(5)
        Q = sym_generator(rng, 8)
        P = stationary_precision(Q).toarray()
        lp = log_pseudo_det(stationary_precision(Q))
        m = 8
        for a in (0.5, 1.0, 7.3):
            full = P + a * np.ones((m, m)) / m
            sign, logdet = np.linalg.slogdet(full)
            assert sign == 1.0
            assert logdet == pytest.approx(lp + math.log(a), abs=1e-8)

    def test_rejects_rank_deficiency_beyond_one(self):
        # block-diagonal precision (disconnected graph) has a 2-dim null space
        Q = generator_from_rates(4, {(0, 1): 1.0, (1, 0): 1.0,
                                     (2, 3): 1.0, (3, 2): 1.0})
        with pytest.raises(NumericalError):
            log_pseudo_det(stationary_precision(Q))


class TestConstrainedSolve:
    def test_two_node_hand_value(self):
        # Q' s = r with 1's = 0; Q = [[1,-1],[-1,1]], r = (1,-1) -> s = (0.5,-0.5)
        Q = generator_from_rates(2, {(0, 1): 1.0, (1, 0): 1.0})
        s = constrained_solve(Q, np.array([1.0, -1.0]))
        np.testing.assert_allclose(s, [0.5, -0.5], atol=1e-12)

    def test_matches_pseudoinverse_oracle(self):
        rng = np.random.default_rng(21)
        Q = sym_generator(rng, 10)
        r = rng.normal(size=10)
        r -= r.mean()  # solvable iff r is orthogonal to the null vector
        s = constrained_solve(Q, r)
        oracle = np.linalg.pinv(Q.dense().T) @ r
        np.testing.assert_allclose(s, oracle, atol=1e-8)
        assert abs(s.sum()) < 1e-9


class TestFieldSampling:
    def test_draws_sum_to_zero(self):
        rng = np.random.default_rng(2)
        fld = IntrinsicField(sym_generator(rng, 7), sigma=1.3)
        for seed in range(5):
            pi = sample_fields(fld, 1, seed)[0]
            assert abs(pi.sum()) < 1e-9

    def test_same_seed_same_draw(self):
        rng = np.random.default_rng(2)
        fld = IntrinsicField(sym_generator(rng, 7))
        np.testing.assert_array_equal(sample_fields(fld, 1, 9), sample_fields(fld, 1, 9))

    def test_empirical_covariance_small_graph(self):
        # cheap version of the acceptance field-law check
        Q = generator_from_rates(3, {(0, 1): 1.0, (1, 0): 1.0,
                                     (1, 2): 1.0, (2, 1): 1.0})
        fld = IntrinsicField(Q, sigma=1.0)
        draws = sample_fields(fld, 20000, seed=0)
        P = stationary_precision(Q).toarray()
        evals, evecs = np.linalg.eigh(P)
        oracle = (evecs[:, 1:] / evals[1:]) @ evecs[:, 1:].T
        emp = np.cov(draws.T)
        np.testing.assert_allclose(emp, oracle, atol=4.0 / math.sqrt(20000))

    def test_sigma_scales_sd(self):
        rng = np.random.default_rng(4)
        Q = sym_generator(rng, 6)
        a = sample_fields(IntrinsicField(Q, 1.0), 4000, seed=1)
        b = sample_fields(IntrinsicField(Q, 3.0), 4000, seed=2)
        assert b.std() / a.std() == pytest.approx(3.0, rel=0.1)

    def test_batch_matches_single_draw_law(self):
        # batch sampling shares the law of repeated single draws
        Q = generator_from_rates(2, {(0, 1): 1.0, (1, 0): 1.0})
        fld = IntrinsicField(Q, sigma=2.0)
        batch = sample_fields(fld, 30000, seed=3)
        singles = np.array([sample_fields(fld, 1, s)[0] for s in range(3000)])
        assert batch[:, 0].std() == pytest.approx(singles[:, 0].std(), rel=0.05)

    @pytest.mark.parametrize("beta", [(0.0, 0.0, 0.0), (0.0, 1.0, -1.0), (0.5, -0.8, 0.3)])
    @pytest.mark.parametrize("sigma", [1.0, 0.37, 2.5])
    def test_single_draw_is_the_first_batch_draw(self, beta, sigma):
        # a one-draw batch solves the mean-subtracted noise of one
        # sigma-scaled normal per node, in the seed's stream order
        g = stream_network()
        fld = IntrinsicField(build_generator(g, edge_rates_loglinear(g, RateParams(beta))),
                             sigma=sigma)
        for seed in range(5):
            gamma = np.random.default_rng(seed).normal(0.0, sigma, fld.dim)
            gamma -= gamma.mean()
            assert np.array_equal(sample_fields(fld, 1, seed)[0], fld._factor.solve(gamma))

    def test_sigma_must_be_positive(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DataError):
            IntrinsicField(sym_generator(rng, 5), sigma=0.0)

    def test_sigma_must_be_finite(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DataError, match="sigma"):
            IntrinsicField(sym_generator(rng, 5), sigma=np.inf)


class TestLogDensity:
    def test_two_node_hand_value(self):
        # M=2: logpdet = log 4; pi=(0.5,-0.5): quad = pi'P pi = 2
        # logdens = -(1/2) log(2 pi) + (1/2) log 4 - 2/2
        Q = generator_from_rates(2, {(0, 1): 1.0, (1, 0): 1.0})
        fld = IntrinsicField(Q, sigma=1.0)
        expected = -0.5 * math.log(2 * math.pi) + 0.5 * math.log(4.0) - 1.0
        assert log_density(np.array([0.5, -0.5]), fld) == pytest.approx(
            expected, abs=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            m = int(rng.integers(3, 11))
            Q = sym_generator(rng, m)
            sigma = float(rng.uniform(0.5, 2.0))
            fld = IntrinsicField(Q, sigma=sigma)
            pi = sample_fields(fld, 1, 0)[0]
            P = stationary_precision(Q).toarray()
            evals = np.linalg.eigvalsh(P)
            oracle = (
                -0.5 * (m - 1) * math.log(2 * math.pi * sigma**2)
                + 0.5 * float(np.log(evals[1:]).sum())
                - 0.5 * float(pi @ P @ pi) / sigma**2
            )
            assert log_density(pi, fld) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("m", [1000, 5000])
    def test_long_reach_quadratic_form_is_exact(self, m):
        # On a long reach |pi| grows like M^1.5, so pi'(QQ')pi cancels to
        # 1e-10..1e-8 relative here; log_density's |Q'pi|^2 is a sum of
        # squares.  The reference evaluates |Q'pi|^2 in exact rationals.
        rates = {(i, i + 1): 1.0 for i in range(m - 1)}
        rates.update({(i + 1, i): 1.0 for i in range(m - 1)})
        Q = generator_from_rates(m, rates)
        fld = IntrinsicField(Q)
        pi = sample_fields(fld, 1, seed=0)[0]
        qt = Q.matrix.T.tocsr()
        exact = Fraction(0)
        for i in range(m):
            cols = range(qt.indptr[i], qt.indptr[i + 1])
            g = sum(Fraction(qt.data[c]) * Fraction(pi[qt.indices[c]]) for c in cols)
            exact += g * g
        const = -0.5 * (m - 1) * math.log(2.0 * math.pi) + 0.5 * fld.logpdet
        quad = 2.0 * (const - log_density(pi, fld))
        assert abs(Fraction(quad) - exact) <= 1e-13 * exact

    def test_rejects_unconstrained_argument(self):
        Q = generator_from_rates(2, {(0, 1): 1.0, (1, 0): 1.0})
        fld = IntrinsicField(Q)
        with pytest.raises(DataError):
            log_density(np.array([1.0, 1.0]), fld)

    @pytest.mark.parametrize("share, accepted", [(0.99, True), (1.01, False)])
    def test_sum_bound_scales_above_its_floor(self, share, accepted):
        # |sum| above the 1e-8 floor is held to 1e-8 * M * max|pi| = 1.92e-6
        pi = np.array([64.0, -32.0, -32.0])
        pi[0] += share * 1e-8 * 3 * 64.0
        assert abs(pi.sum()) > 1e-8
        fld = IntrinsicField(directed_chain())
        if accepted:
            assert math.isfinite(log_density(pi, fld))
        else:
            with pytest.raises(DataError, match="sum-to-zero"):
                log_density(pi, fld)

    def test_opposite_infinities_are_a_data_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="field vector pi"):
                log_density(np.array([np.inf, -np.inf, 0.0]), IntrinsicField(directed_chain()))


# --- directed and long graphs against dense oracles ----------------------


def dense_restricted_logdet(q):
    """log det(F'QQ'F) for the Helmert basis F of the sum-zero subspace."""
    f = helmert(q.shape[0]).T
    sign, logdet = np.linalg.slogdet(f.T @ q @ q.T @ f)
    assert sign == 1.0
    return logdet


def dense_sum_zero_solve(q, r):
    """The x with Q'x = r - mean(r) and 1'x = 0, from the stacked system's pinv."""
    m = q.shape[0]
    stacked = np.vstack([q.T, np.ones((1, m))])
    return np.linalg.pinv(stacked) @ np.concatenate([r - r.mean(), [0.0]])


@st.composite
def directed_generators(draw):
    """Irreducible generators: a one-way cycle through every node plus random
    extra edges, each rate drawn on its own, so in-rates differ from out-rates."""
    m = draw(st.integers(3, 12))
    rate = st.floats(0.2, 5.0)
    rates = {(i, (i + 1) % m): draw(rate) for i in range(m)}
    node = st.integers(0, m - 1)
    for i, j in sorted(draw(st.sets(st.tuples(node, node), max_size=2 * m))):
        if i != j and (i, j) not in rates:
            rates[(i, j)] = draw(rate)
    return generator_from_rates(m, rates)


class TestDirectedAndLongGraphs:
    @settings(max_examples=60, deadline=None)
    @given(Q=directed_generators(), sigma=st.floats(0.5, 2.0), seed=st.integers(0, 2**31))
    def test_field_matches_dense_oracles(self, Q, sigma, seed):
        m = Q.dim
        q = Q.dense()
        fld = IntrinsicField(Q, sigma=sigma)
        draws = sample_fields(fld, 4, seed=seed)
        assert np.abs(draws.sum(axis=1)).max() < 1e-9
        oracle_const = (-0.5 * (m - 1) * math.log(2 * math.pi * sigma**2)
                        + 0.5 * dense_restricted_logdet(q))
        for pi in draws:
            oracle = oracle_const - 0.5 * float(pi @ q @ q.T @ pi) / sigma**2
            assert log_density(pi, fld) == pytest.approx(oracle, rel=1e-9, abs=1e-8)
        r = np.random.default_rng(seed).normal(size=m)
        np.testing.assert_allclose(constrained_solve(Q, r), dense_sum_zero_solve(q, r),
                                   atol=1e-9)

    def test_three_node_directed_chain(self):
        Q = generator_from_rates(3, {(0, 1): 1.0, (1, 0): 2.0,
                                     (1, 2): 0.5, (2, 1): 3.0})
        fld = IntrinsicField(Q)
        assert fld.logpdet == pytest.approx(dense_restricted_logdet(Q.dense()), abs=1e-12)
        assert abs(sample_fields(fld, 1, 0)[0].sum()) < 1e-12
        r = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(constrained_solve(Q, r),
                                   dense_sum_zero_solve(Q.dense(), r), atol=1e-12)

    def test_empirical_covariance_directed_chain(self):
        Q = generator_from_rates(3, {(0, 1): 1.0, (1, 0): 2.0,
                                     (1, 2): 0.5, (2, 1): 3.0})
        n = 20000
        draws = sample_fields(IntrinsicField(Q, sigma=1.0), n, seed=0)
        f = helmert(3).T
        q = Q.dense()
        cov = f @ np.linalg.inv(f.T @ q @ q.T @ f) @ f.T
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        assert np.all(np.abs(np.cov(draws.T) - cov) <= 4.0 * se)

    def test_block_solve_matches_columns(self, monkeypatch):
        rng = np.random.default_rng(41)
        Q = sym_generator(rng, 9)
        r = rng.normal(size=(9, 10))
        columns = np.column_stack([constrained_solve(Q, r[:, k]) for k in range(10)])
        # in one block, then in blocks of 3, 3, 3 and 1 columns
        for block_values in (walkfield.field.BLOCK_VALUES, 3 * Q.dim):
            monkeypatch.setattr(walkfield.field, "BLOCK_VALUES", block_values)
            np.testing.assert_allclose(constrained_solve(Q, r), columns, atol=1e-12)

    @pytest.mark.parametrize("m", [500, 1000])
    def test_long_two_way_reach(self, m):
        rates = {(i, i + 1): 1.0 for i in range(m - 1)}
        rates.update({(i + 1, i): 1.0 for i in range(m - 1)})
        Q = generator_from_rates(m, rates)
        fld = IntrinsicField(Q)
        assert fld.logpdet == pytest.approx(dense_restricted_logdet(Q.dense()),
                                            abs=1e-7 * m)
        # F'QF has the nonzero Laplacian eigenvalues of a path, whose
        # product is m (one spanning tree times m nodes)
        assert fld.logpdet == pytest.approx(2.0 * math.log(m), abs=1e-9)
        rng = np.random.default_rng(m)
        for _ in range(20):
            pi = constrained_solve(Q, rng.standard_normal(m))
            assert abs(pi.sum()) < 1e-9 * m

    def test_very_long_reach_solves(self):
        # |pi| grows like M^1.5 on a path: at M = 20000 max|pi| is ~3e5 and
        # the residual ~5e-10, a backward error near machine precision
        m = 20000
        rates = {(i, i + 1): 1.0 for i in range(m - 1)}
        rates.update({(i + 1, i): 1.0 for i in range(m - 1)})
        Q = generator_from_rates(m, rates)
        qt = Q.matrix.T
        r = np.random.default_rng(m).standard_normal((m, 20))
        r_tilde = r - r.mean(axis=0)
        pi = constrained_solve(Q, r)
        assert np.abs(pi.sum(axis=0)).max() < 1e-9 * m * np.abs(pi).max()
        backward = (np.abs(qt @ pi - r_tilde).max(axis=0)
                    / (abs(qt) @ np.abs(pi) + np.abs(r_tilde)).max(axis=0))
        assert backward.max() < 1e-13

    def test_inaccurate_solve_raises(self, monkeypatch):
        # the backward-error test still rejects a solve that is off by 1e-6
        Q = generator_from_rates(3, {(0, 1): 1.0, (1, 0): 2.0,
                                     (1, 2): 0.5, (2, 1): 3.0})
        solve = _GroundedLU.solve
        monkeypatch.setattr(_GroundedLU, "solve",
                            lambda self, r: solve(self, r) * (1.0 + 1e-6))
        with pytest.raises(NumericalError,
                           match=r"worst backward error \S+ against the bound 1e-10"):
            constrained_solve(Q, np.array([1.0, -2.0, 0.5]))

    def test_upstream_drift_names_the_ill_conditioned_minor(self):
        # With beta_1 = -1.5 the demo stream's walk drifts away from node 0,
        # the mouth, so the minor grounded there is nearly singular: Q is
        # irreducible, and the error says what did fail.
        g = stream_network()
        Q = build_generator(g, edge_rates_loglinear(g, RateParams((0.0, -1.5, 0.0))))
        assert check_irreducible(Q)
        r = np.random.default_rng(0).standard_normal((g.node_count, 20))
        with pytest.raises(NumericalError, match="grounded minor of Q' at node 0 is "
                                                 "ill-conditioned") as err:
            constrained_solve(Q, r)
        assert "irreducible" not in str(err.value)

    @pytest.mark.parametrize("rates", [
        {(0, 1): 1.0, (1, 0): 1.0, (2, 3): 1.0, (3, 2): 1.0},  # two components
        {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0},  # one-way chain, node 3 absorbs
    ])
    def test_reducible_generator_raises(self, rates):
        Q = generator_from_rates(4, rates)
        with pytest.raises(NumericalError):
            IntrinsicField(Q)
        with pytest.raises(NumericalError):
            constrained_solve(Q, np.array([1.0, -1.0, 2.0, -2.0]))


# --- the blocked kernel ----------------------------------------------------


def directed_chain():
    return generator_from_rates(3, {(0, 1): 1.0, (1, 0): 2.0, (1, 2): 0.5, (2, 1): 3.0})


class _CountingLU:
    """Forwards solves to a SuperLU object and records each call's column count."""

    def __init__(self, lu):
        self.lu = lu
        self.widths = []

    def solve(self, b):
        self.widths.append(b.shape[1])
        return self.lu.solve(b)


class TestBlockedKernel:
    def test_helmert_is_scipys_bit_for_bit(self):
        for m in range(2, 65):
            assert np.array_equal(walkfield.field.helmert(m), helmert(m))

    @pytest.mark.parametrize("sigma", [1.0, 0.37])
    def test_batch_is_the_noise_stream_solved_block_by_block(self, monkeypatch, sigma):
        # 4 draws per block: 11 draws take blocks of 4, 4 and 3, and equal one
        # (11, M) normal draw, mean-subtracted row by row, solved a block at a time
        g = stream_network()
        fld = IntrinsicField(build_generator(g, edge_rates_loglinear(
            g, RateParams((0.0, 1.0, -1.0)))), sigma=sigma)
        monkeypatch.setattr(walkfield.field, "BLOCK_VALUES", 4 * fld.dim)
        counting = _CountingLU(fld._factor._lu)
        monkeypatch.setattr(fld._factor, "_lu", counting)
        batch = sample_fields(fld, 11, seed=5)
        assert counting.widths == [4, 4, 3]
        gamma = np.random.default_rng(5).normal(0.0, sigma, (11, fld.dim))
        gamma -= gamma.mean(axis=1, keepdims=True)
        blocks = [fld._factor.solve(gamma[a : a + 4].T).T for a in (0, 4, 8)]
        assert np.array_equal(batch, np.vstack(blocks))

    @settings(max_examples=40, deadline=None)
    @given(Q=directed_generators())
    def test_minor_is_eliminated_on_its_diagonal(self, Q):
        # one-way edges make the pattern unsymmetric; the ordering is still
        # applied to rows and columns alike, with no row interchange
        fld = IntrinsicField(Q)
        for factor in (fld._factor, _GroundedLU(stationary_precision(Q))):
            assert np.array_equal(factor._lu.perm_r, factor._lu.perm_c)
        assert fld.logpdet == pytest.approx(dense_restricted_logdet(Q.dense()), abs=1e-9)

    def test_draws_need_little_memory_beyond_the_output(self):
        m = 2000
        fld = IntrinsicField(generator_from_rates(m, {
            **{(i, i + 1): 1.0 for i in range(m - 1)},
            **{(i + 1, i): 1.0 for i in range(m - 1)}}))
        tracemalloc.start()
        try:
            draws = sample_fields(fld, 3000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * draws.nbytes

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_right_hand_side_is_a_data_error(self, bad):
        r = np.array([1.0, bad, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="right-hand side r"):
                constrained_solve(directed_chain(), r)
            with pytest.raises(DataError, match="right-hand side r"):
                constrained_solve(directed_chain(), np.column_stack([r[::-1], r]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_vector_is_a_data_error(self, bad):
        fld = IntrinsicField(directed_chain())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="field vector pi"):
                log_density(np.array([1.0, bad, -1.0]), fld)


class _ThreadRecordingLU:
    """Forwards solves to a SuperLU object and records the thread of each;
    solve number `fail_at` (from 1) raises instead."""

    def __init__(self, lu, fail_at=None):
        self.lu = lu
        self.fail_at = fail_at
        self.threads = []

    def solve(self, b):
        self.threads.append(threading.current_thread())
        if len(self.threads) == self.fail_at:
            raise RuntimeError("stand-in solve failed")
        return self.lu.solve(b)


def dendritic_generator(n_main=40, n_trib=49, trib_len=40):
    """2000 nodes: a mainstem with tributaries of 40 nodes joining it at even
    spacing, with rate 2 toward the mouth (node 0) and 1 away from it."""
    pairs = [(i, i + 1) for i in range(n_main - 1)]
    top = n_main
    for t in range(n_trib):
        below = (t * n_main) // n_trib
        for _ in range(trib_len):
            pairs.append((below, top))
            below, top = top, top + 1
    rates = {}
    for lo, hi in pairs:
        rates[(hi, lo)], rates[(lo, hi)] = 2.0, 1.0
    return generator_from_rates(top, rates)


def three_block_field(monkeypatch):
    """A field on the 30-node stream whose 11 draws take blocks of 4, 4 and 3."""
    g = stream_network()
    fld = IntrinsicField(build_generator(g, edge_rates_loglinear(
        g, RateParams((0.0, 1.0, -1.0)))))
    monkeypatch.setattr(walkfield.field, "BLOCK_VALUES", 4 * fld.dim)
    return fld


def serial_draws(fld, n_draws, seed):
    """sample_fields' draws from one (n_draws, M) normal draw, solved a block at a time."""
    step = walkfield.field.BLOCK_VALUES // fld.dim
    gamma = np.random.default_rng(seed).normal(0.0, fld.sigma, (n_draws, fld.dim))
    gamma -= gamma.mean(axis=1, keepdims=True)
    return [fld._factor.solve(gamma[a : a + step].T).T for a in range(0, n_draws, step)]


class TestPipelinedDraws:
    def test_benchmark_shape_is_the_serial_block_loop(self):
        # 300 draws at M = 2000 take nine blocks of 32 and one of 12
        fld = IntrinsicField(dendritic_generator(), sigma=1.3)
        assert walkfield.field.BLOCK_VALUES // fld.dim == 32
        blocks = serial_draws(fld, 300, seed=11)
        assert [len(b) for b in blocks] == [32] * 9 + [12]
        assert np.array_equal(sample_fields(fld, 300, seed=11), np.vstack(blocks))

    def test_concurrent_callers_match_the_serial_loop(self, monkeypatch):
        # four callers with a helper each, on a short switch interval
        fields = [three_block_field(monkeypatch) for _ in range(4)]
        results = [[] for _ in fields]

        def call(k):
            for seed in range(20):
                results[k].append(sample_fields(fields[k], 11, seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(k,)) for k in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for fld, draws in zip(fields, results):
            assert len(draws) == 20
            for seed, batch in enumerate(draws):
                assert np.array_equal(batch, np.vstack(serial_draws(fld, 11, seed)))

    def test_one_block_is_solved_on_the_calling_thread(self, monkeypatch):
        fld = three_block_field(monkeypatch)
        recording = _ThreadRecordingLU(fld._factor._lu)
        monkeypatch.setattr(fld._factor, "_lu", recording)
        caller = threading.current_thread()
        sample_fields(fld, 4, seed=0)
        assert recording.threads == [caller]
        # with three blocks, a helper solves the first two and the caller the last
        recording.threads.clear()
        sample_fields(fld, 11, seed=0)
        assert [t is caller for t in recording.threads] == [False, False, True]

    def test_no_thread_outlives_a_call(self, monkeypatch):
        fld = three_block_field(monkeypatch)
        before = threading.active_count()
        sample_fields(fld, 11, seed=0)
        assert threading.active_count() == before
        # the helper's failure on block 2 reaches the caller, and the helper is joined
        monkeypatch.setattr(fld._factor, "_lu", _ThreadRecordingLU(fld._factor._lu, fail_at=2))
        with pytest.raises(RuntimeError, match="stand-in solve failed"):
            sample_fields(fld, 11, seed=0)
        assert threading.active_count() == before


class _NaNLU:
    """Stands in for the SuperLU object: every solve returns NaN."""

    def solve(self, b):
        return np.full(b.shape, np.nan)


def _non_finite_draws():
    fld = IntrinsicField(directed_chain())
    fld._factor._lu = _NaNLU()
    sample_fields(fld, 2, seed=0)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: constrained_solve(directed_chain(), np.ones(4)),
                 DataError, "must have 3 rows", id="constrained_solve-rows"),
    pytest.param(lambda: sample_fields(IntrinsicField(directed_chain()), 0, seed=0),
                 DataError, "n_draws must be positive", id="sample_fields-no-draws"),
    pytest.param(_non_finite_draws, NumericalError, "non-finite values",
                 id="sample_fields-non-finite-solve"),
    pytest.param(lambda: log_density(np.zeros(4), IntrinsicField(directed_chain())),
                 DataError, "length 3", id="log_density-length"),
    pytest.param(lambda: log_pseudo_det(np.array([[2.0, -1.0], [-2.0, 2.0]])),
                 DataError, "annihilate the constant", id="log_pseudo_det-P1"),
])
def test_rejects_bad_inputs(call, error, match):
    with pytest.raises(error, match=match):
        call()
