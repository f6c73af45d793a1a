"""Generator construction, log-linear rates, and the SAR correspondence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkfield.datasets import stream_network
from walkfield.errors import ConfigError, DataError, NumericalError
from walkfield.graph import (
    Edge,
    EdgeCovariates,
    GeneratorMatrix,
    RateModel,
    RateParams,
    SpatialGraph,
    build_generator,
    check_irreducible,
    edge_rates_loglinear,
    generator_from_rates,
    to_sar,
)


def line_graph(m, distance=1.0):
    cov = EdgeCovariates(distance, 0, 0, ())
    edges = []
    for i in range(m - 1):
        edges.append(Edge(i, i + 1, cov))
        edges.append(Edge(i + 1, i, cov))
    return SpatialGraph(node_count=m, labels=tuple(str(i) for i in range(m)),
                        edges=tuple(edges))


def random_graph(rng, m, p=0.4):
    """Random symmetric connected graph on m nodes (spanning path + extras)."""
    cov = EdgeCovariates(1.0, 0, 0, ())
    pairs = {(i, i + 1) for i in range(m - 1)}
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < p:
                pairs.add((i, j))
    edges = []
    for i, j in sorted(pairs):
        edges.append(Edge(i, j, cov))
        edges.append(Edge(j, i, cov))
    return SpatialGraph(node_count=m, labels=tuple(str(i) for i in range(m)),
                        edges=tuple(edges))


class TestGraphValidation:
    def test_rejects_self_loop(self):
        cov = EdgeCovariates(1.0, 0, 0, ())
        with pytest.raises(DataError):
            SpatialGraph(node_count=2, labels=("a", "b"),
                         edges=(Edge(0, 0, cov),))

    def test_rejects_duplicate_edge(self):
        cov = EdgeCovariates(1.0, 0, 0, ())
        with pytest.raises(DataError):
            SpatialGraph(node_count=2, labels=("a", "b"),
                         edges=(Edge(0, 1, cov), Edge(0, 1, cov)))

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(DataError):
            EdgeCovariates(0.0, 0, 0, ())

    @pytest.mark.parametrize("distance, kind", [
        (float("nan"), "non-finite"), (float("inf"), "non-finite"),
        (-float("inf"), "non-positive"), (-1.0, "non-positive"),
    ])
    def test_rejects_non_finite_distance(self, distance, kind):
        with pytest.raises(DataError, match=f"{kind} distance {distance}"):
            EdgeCovariates(distance, 0, 0, ())

    def test_rejects_non_finite_extra_covariate(self):
        with pytest.raises(DataError, match="non-finite edge covariate"):
            EdgeCovariates(1.0, 0, 0, (("slope", 0.5), ("width", float("nan"))))

    def test_rejects_out_of_range_endpoint(self):
        cov = EdgeCovariates(1.0, 0, 0, ())
        with pytest.raises(DataError):
            SpatialGraph(node_count=2, labels=("a", "b"),
                         edges=(Edge(0, 5, cov),))


class TestLogLinearRates:
    def test_hand_value(self):
        # alpha = (1/d) exp(b0 + b1*u + b2*v): one edge, d=2, u=1, v=0
        g = SpatialGraph(
            node_count=2, labels=("a", "b"),
            edges=(Edge(0, 1, EdgeCovariates(2.0, 1, 0, ())),),
        )
        rates = edge_rates_loglinear(g, RateParams((0.3, -0.7, 5.0)))
        assert rates[(0, 1)] == pytest.approx(math.exp(0.3 - 0.7) / 2.0, rel=1e-15)

    def test_extra_covariate_enters_linearly(self):
        g = SpatialGraph(
            node_count=2, labels=("a", "b"),
            edges=(Edge(0, 1, EdgeCovariates(1.0, 0, 0, (("grad", 2.5),))),),
        )
        rates = edge_rates_loglinear(
            g, RateParams((0.0, 0.0, 0.0, 1.2), extra_names=("grad",))
        )
        assert rates[(0, 1)] == pytest.approx(math.exp(1.2 * 2.5), rel=1e-15)

    def test_missing_extra_covariate_is_config_error(self):
        g = line_graph(2)
        with pytest.raises(ConfigError):
            edge_rates_loglinear(g, RateParams((0.0, 0.0, 0.0, 1.0),
                                               extra_names=("grad",)))

    def test_overflow_guard(self):
        g = line_graph(2)
        with pytest.raises(NumericalError):
            edge_rates_loglinear(g, RateParams((800.0, 0.0, 0.0)))

    def test_coefficient_arity_checked(self):
        with pytest.raises(ConfigError):
            RateParams((0.0, 0.0))

    @given(b0=st.floats(-5, 5), d=st.floats(0.1, 10))
    @settings(max_examples=50, deadline=None)
    def test_rate_positive_and_scales_inversely_with_distance(self, b0, d):
        g = SpatialGraph(
            node_count=2, labels=("a", "b"),
            edges=(Edge(0, 1, EdgeCovariates(d, 0, 0, ())),),
        )
        r = edge_rates_loglinear(g, RateParams((b0, 0.0, 0.0)))[(0, 1)]
        assert r > 0
        assert r == pytest.approx(math.exp(b0) / d, rel=1e-12)


class TestRateModel:
    @staticmethod
    def random_graph_with_extras(rng, m):
        """Random directed graph whose edges carry two extra covariates."""
        pairs = {(i, (i + 1) % m) for i in range(m)}
        pairs |= {(i, j) for i in range(m) for j in range(m)
                  if i != j and rng.random() < 0.3}
        edges = tuple(
            Edge(i, j, EdgeCovariates(
                float(rng.uniform(0.1, 5.0)), int(rng.integers(2)), int(rng.integers(2)),
                (("slope", float(rng.normal())), ("width", float(rng.uniform(0, 3)))),
            ))
            for i, j in sorted(pairs)
        )
        return SpatialGraph(node_count=m, labels=tuple(str(i) for i in range(m)),
                            edges=edges)

    def test_rates_match_scalar_formula_on_random_graphs(self):
        rng = np.random.default_rng(21)
        names = ("width", "slope")
        for _ in range(20):
            g = self.random_graph_with_extras(rng, int(rng.integers(2, 15)))
            model = RateModel(g, names)
            beta = rng.normal(scale=2.0, size=5)
            want = []
            for e in g.edges:
                x = dict(e.cov.extras)
                lp = (beta[0] + beta[1] * e.cov.downstream + beta[2] * e.cov.barrier
                      + beta[3] * x["width"] + beta[4] * x["slope"])
                want.append(math.exp(lp) / e.cov.distance)
            # bitwise, not only to 1e-14: whether the genetics sampler can
            # factor a nearly singular QQ' may turn on the last bit of a rate
            np.testing.assert_array_equal(model.rates(beta), want)
            assert [(e.src, e.dst) for e in g.edges] == list(zip(model.src, model.dst))
            as_dict = edge_rates_loglinear(g, RateParams(tuple(beta), names))
            assert list(as_dict) == [(e.src, e.dst) for e in g.edges]
            np.testing.assert_array_equal(list(as_dict.values()), model.rates(beta))

    def test_overflow_guard_names_the_edge(self):
        g = self.random_graph_with_extras(np.random.default_rng(22), 6)
        slopes = [dict(e.cov.extras)["slope"] for e in g.edges]
        worst = g.edges[int(np.argmax(np.abs(slopes)))]
        beta = (0.0, 0.0, 0.0, 701.0 / max(np.abs(slopes)) + 1e-9)
        with pytest.raises(NumericalError, match=rf"edge \({worst.src},{worst.dst}\)"):
            RateModel(g, ("slope",)).rates(beta)

    def test_missing_covariate_fails_at_compile(self):
        g = self.random_graph_with_extras(np.random.default_rng(23), 4)
        with pytest.raises(ConfigError, match="missing covariate 'depth'"):
            RateModel(g, ("slope", "depth"))

    def test_coefficient_count_checked(self):
        with pytest.raises(ConfigError):
            RateModel(line_graph(3)).rates((0.0, 0.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("build", [
        lambda g, beta: RateModel(g).rates(beta),
        lambda g, beta: RateModel(g).generator(beta),
        lambda g, beta: edge_rates_loglinear(g, RateParams(beta)),
    ], ids=["rates", "generator", "dict"])
    def test_non_finite_coefficients_are_config_errors(self, bad, build):
        with pytest.raises(ConfigError, match="rate coefficients must be finite"):
            build(stream_network(), (bad, 0.0, 0.0))

    def test_generator_equals_the_dict_route_bitwise(self):
        # same data, indices and indptr as build_generator over the rate dict,
        # and the dense matrix of a loop over the sorted edges: the diagonal
        # is summed in column order whatever the order of the graph's edges
        rng = np.random.default_rng(24)
        names = ("slope", "width")
        cases = [(stream_network(), (), rng.normal(scale=1.5, size=3)) for _ in range(10)]
        for _ in range(30):
            g = self.random_graph_with_extras(rng, int(rng.integers(2, 25)))
            shuffled = tuple(g.edges[k] for k in rng.permutation(g.edge_count))
            g = SpatialGraph(g.node_count, g.labels, shuffled)
            cases.append((g, names, rng.normal(scale=1.5, size=5)))
        for g, extra, beta in cases:
            model = RateModel(g, extra)
            got = model.generator(beta).matrix
            want = build_generator(g, edge_rates_loglinear(g, RateParams(tuple(beta), extra)))
            for attr in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(got, attr), getattr(want.matrix, attr))
            assert got.shape == want.matrix.shape and got.has_canonical_format
            dense = np.zeros(got.shape)
            for i, j, a in sorted(zip(model.src, model.dst, model.rates(beta))):
                dense[i, j] = -a
                dense[i, i] += a
            np.testing.assert_array_equal(got.toarray(), dense)

    def test_generator_rejects_a_rate_that_underflows(self):
        # exp(-699) / 1e300 is below the smallest subnormal double
        cov = EdgeCovariates(1.0, 0, 0, ())
        far = EdgeCovariates(1e300, 1, 0, ())
        g = SpatialGraph(3, ("a", "b", "c"),
                         (Edge(0, 1, cov), Edge(1, 0, cov), Edge(1, 2, far), Edge(2, 1, cov)))
        beta = (0.0, -699.0, 0.0)
        assert RateModel(g).rates(beta)[2] == 0.0
        with pytest.raises(NumericalError, match=r"edge \(1,2\) underflows to 0"):
            RateModel(g).generator(beta)


class TestGenerator:
    def test_hand_values_three_node_path(self):
        # rates: 0->1: 2, 1->0: 1, 1->2: 3, 2->1: 4
        rates = {(0, 1): 2.0, (1, 0): 1.0, (1, 2): 3.0, (2, 1): 4.0}
        Q = generator_from_rates(3, rates)
        expected = np.array([
            [2.0, -2.0, 0.0],
            [-1.0, 4.0, -3.0],
            [0.0, -4.0, 4.0],
        ])
        np.testing.assert_allclose(Q.dense(), expected, atol=0)

    def test_rows_sum_to_zero_exactly(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 12)
        rates = edge_rates_loglinear(g, RateParams((0.4, 0.0, 0.0)))
        Q = build_generator(g, rates)
        np.testing.assert_array_equal(Q.dense().sum(axis=1), np.zeros(12))

    def test_diagonal_is_positive_exit_rate(self):
        g = line_graph(4)
        Q = build_generator(g, edge_rates_loglinear(g, RateParams((0.0, 0.0, 0.0))))
        d = np.diag(Q.dense())
        np.testing.assert_allclose(d, [1.0, 2.0, 2.0, 1.0], atol=0)

    def test_zero_rate_edges_dropped_with_warning(self):
        g = line_graph(2)
        with pytest.warns(UserWarning):
            Q = build_generator(g, {(0, 1): 1.0, (1, 0): 0.0})
        assert Q.rates.nnz == 1

    @pytest.mark.parametrize("key, rate", [
        ((0, 1), float("nan")), ((0, 1), float("inf")), ((0, 1), -1.0),
        ((0, 0), 1.0), ((0, 3), 1.0), ((-1, 1), 1.0),
    ], ids=["nan", "inf", "negative", "diagonal", "outside", "negative-index"])
    def test_bad_rate_is_data_error_naming_the_key(self, key, rate):
        # a nan rate once left row 0 without a diagonal, so Q @ 1 != 0
        match = rf"invalid rate {rate} at key \({key[0]},{key[1]}\) for dimension 3"
        with pytest.raises(DataError, match=match):
            generator_from_rates(3, {(1, 2): 1.0, key: rate, (2, 0): 1.0})

    def test_irreducible_line_graph(self):
        g = line_graph(5)
        Q = build_generator(g, edge_rates_loglinear(g, RateParams((0.0, 0.0, 0.0))))
        assert check_irreducible(Q)

    def test_reducible_when_one_direction_missing(self):
        Q = generator_from_rates(3, {(0, 1): 1.0, (1, 2): 1.0, (2, 1): 1.0,
                                     (1, 0): 1.0, (0, 2): 1.0})
        # node 2 cannot reach... actually it can; build a genuinely reducible one
        Q = generator_from_rates(3, {(0, 1): 1.0, (1, 0): 1.0, (1, 2): 1.0})
        assert not check_irreducible(Q)


class TestSARCorrespondence:
    """The induced autoregression: B_ij = alpha_ji / alpha_i., Lambda_ii = alpha_i.^-2."""

    def test_identity_hand_check(self):
        rates = {(0, 1): 2.0, (1, 0): 1.0, (1, 2): 3.0, (2, 1): 4.0}
        Q = generator_from_rates(3, rates)
        B, lam = to_sar(Q)
        # B_ij = alpha_ji / alpha_i. by hand for row 0: alpha_10 / alpha_0. = 1/2
        assert B[0, 1] == pytest.approx(0.5, rel=1e-15)
        np.testing.assert_allclose(lam, [1 / 2.0**2, 1 / 4.0**2, 1 / 4.0**2],
                                   atol=1e-15)
        IB = np.eye(3) - B
        lhs = IB.T @ np.diag(1.0 / lam) @ IB
        rhs = Q.dense() @ Q.dense().T
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_identity_on_random_graphs(self):
        # The acceptance suite runs 200 graphs; this is the unit-scale version.
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = int(rng.integers(3, 12))
            g = random_graph(rng, m)
            params = RateParams(tuple(rng.normal(0, 0.8, size=3)))
            Q = build_generator(g, edge_rates_loglinear(g, params))
            B, lam = to_sar(Q)
            IB = np.eye(m) - B
            lhs = IB.T @ np.diag(1.0 / lam) @ IB
            rhs = Q.dense() @ Q.dense().T
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)
