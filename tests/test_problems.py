import dataclasses
import json
import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from pytest import approx

import wrdescent as wd
from conftest import finite_diff_check, formula_problem, lipschitz_gradient_check
from wrdescent.problems import PROBLEM_KINDS, ROW_ENTRIES, ReluNet, _expit, _labelled


def logistic_pair():
    # f_1(x) = log(1 + e^{-x}), f_2(x) = log(1 + e^{x})
    return wd.logistic_problem([[1.0], [-1.0]], [1.0, 1.0])


class TestFullValue:
    def test_logistic_pair_at_zero(self):
        prob = logistic_pair()
        assert prob.full_value(np.zeros(1)) == approx(math.log(2.0), rel=1e-14)

    def test_median_symmetric(self):
        prob = wd.median_problem([-1.0, 1.0])
        assert prob.full_value(np.zeros(1)) == approx(1.0)

    def test_matches_extended_precision_sum(self):
        prob = wd.make_problem("logistic", 17, 3, 5)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(3)
            exact = math.fsum(c.value(x) for c in prob.components) / prob.n
            assert prob.full_value(x) == approx(exact, rel=1e-13)

    def test_dimension_mismatch_rejected(self):
        prob = logistic_pair()
        with pytest.raises(ValueError):
            prob.full_value(np.zeros(2))


class TestFullDirection:
    def test_logistic_at_zero_closed_form(self):
        prob = wd.make_problem("logistic", 8, 3, 11)
        A, b = prob.kind.data[:, :-1], prob.kind.data[:, -1]  # rows [a_i, b_i]
        expected = -(b[:, None] * A).sum(axis=0) / (2.0 * prob.n)
        assert prob.full_direction(np.zeros(3)) == approx(expected, rel=1e-12)

    def test_median_symmetric_kinks_cancel(self):
        prob = wd.median_problem([-1.0, 1.0])
        assert prob.full_direction(np.zeros(1)) == approx(np.zeros(1))

    def test_matches_per_component_mean(self):
        prob = wd.make_problem("sigmoid_nonconvex", 9, 4, 3)
        x = np.random.default_rng(1).standard_normal(4)
        mean = sum(c.direction(x) for c in prob.components) / prob.n
        assert prob.full_direction(x) == approx(mean, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wd.median_problem([0.0]).full_direction(np.zeros(3))


class TestFiniteDifferences:
    @pytest.mark.parametrize("kind", ["logistic", "sigmoid_nonconvex"])
    def test_smooth_zoo_matches_central_differences(self, kind):
        prob = wd.make_problem(kind, 12, 4, 7)
        rng = np.random.default_rng(13)
        for _ in range(5):
            x = rng.standard_normal(4)
            assert finite_diff_check(prob, x, 1e-6) <= 1e-5

    def test_constant_zero_problem(self):
        prob = formula_problem(1, 2, lambda x: 0.0, lambda x: np.zeros(2), 0.0, 0.0)
        assert finite_diff_check(prob, np.ones(2), 1e-6) == 0.0

    def test_nonsmooth_unsupported(self):
        with pytest.raises(wd.UnsupportedProblem):
            finite_diff_check(wd.median_problem([0.0, 1.0]), np.zeros(1), 1e-6)

    def test_relu_direction_is_reverse_mode_of_value(self):
        # per-component check at a generic parameter point (no kinks)
        prob = wd.make_problem("relu_net", 4, 3, 19)
        rng = np.random.default_rng(2)
        theta = 0.3 * rng.standard_normal(prob.p)
        comp = prob.components[1]
        g = comp.direction(theta)
        h = 1e-6
        for k in range(prob.p):
            e = np.zeros(prob.p)
            e[k] = h
            fd = (comp.value(theta + e) - comp.value(theta - e)) / (2 * h)
            assert fd == approx(g[k], rel=1e-4, abs=1e-7)


class TestGeneratorSets:
    def test_median_single_kink(self):
        prob = wd.median_problem([0.0])
        gens = prob.generator_set(np.zeros(1))
        assert sorted(g[0] for g in gens) == approx([-1.0, 1.0])

    def test_smooth_problem_singleton_gradient(self):
        prob = wd.make_problem("logistic", 5, 2, 23)
        x = np.array([0.3, -0.7])
        gens = prob.generator_set(x)
        assert len(gens) == 1
        assert gens[0] == approx(prob.full_direction(x), rel=1e-12)

    def test_median_differentiable_point_singleton(self):
        # both components smooth at 0, so the set degenerates to {F'(0)} = {0}
        prob = wd.median_problem([-1.0, 1.0])
        gens = prob.generator_set(np.zeros(1))
        assert len(gens) == 1
        assert gens[0] == approx(np.zeros(1))

    def test_median_double_kink_sign_patterns(self):
        # both components kinked at 0: averages of {-1,+1}x{-1,+1}
        prob = wd.median_problem([0.0, 0.0])
        gens = sorted(g[0] for g in prob.generator_set(np.zeros(1)))
        assert gens == approx([-1.0, 0.0, 1.0])

    def test_direction_in_hull_at_kinks(self):
        prob = wd.median_problem([0.0, 1.0, 2.0])
        for x0 in (0.0, 1.0, 2.0):
            x = np.array([x0])
            d = prob.full_direction(x)[0]
            gens = [g[0] for g in prob.generator_set(x)]
            assert min(gens) - 1e-10 <= d <= max(gens) + 1e-10

    @pytest.mark.parametrize(
        "prob",
        [wd.make_problem("logistic", 40, 3, 5), wd.median_problem([0.5, 1.0, 0.0, 0.0, 0.0])],
        ids=["logistic", "median"],
    )
    def test_matches_deduplicating_every_step(self, prob):
        # skipping np.unique on a single row gives the same bits as calling it
        x = np.zeros(prob.p)
        sums = np.zeros((1, prob.p))
        for c in prob.components:
            gens = np.asarray(c.generators(x), dtype=float).reshape(-1, prob.p)
            sums = np.unique((sums[:, None, :] + gens[None, :, :]).reshape(-1, prob.p), axis=0)
        assert np.array_equal(np.array(prob.generator_set(x)), sums / prob.n)

    def test_unsupported_without_generators(self):
        prob = wd.make_problem("relu_net", 3, 2, 0)
        with pytest.raises(wd.UnsupportedProblem):
            prob.generator_set(np.zeros(prob.p))


class TestMakeProblem:
    def test_logistic_pair_constants(self):
        prob = logistic_pair()
        assert prob.L == approx(0.25)
        assert prob.M == approx(1.0)
        assert prob.kind.lipschitz_values == approx([1.0, 1.0])

    def test_median_known_solution(self):
        prob = wd.median_problem([0.0, 1.0, 2.0])
        assert prob.known_solution == approx(1.0)

    def test_deterministic_in_seed(self):
        a = wd.make_problem("logistic", 6, 3, 42)
        b = wd.make_problem("logistic", 6, 3, 42)
        assert np.array_equal(a.kind.data, b.kind.data)
        x = np.array([0.1, 0.2, -0.4])
        assert np.array_equal(a.full_direction(x), b.full_direction(x))

    def test_stored_constants_match_recomputation(self):
        for kind in wd.problems.PROBLEM_KINDS:
            prob = wd.make_problem(kind, 5, 2, 9)
            values, gradients = prob.kind.lipschitz_values, prob.kind.lipschitz_gradients
            assert prob.M == math.sqrt(math.fsum(v**2 for v in values) / 5)
            assert prob.L == (None if gradients is None else math.fsum(gradients) / 5)

    def test_constants_are_the_kinds_and_not_fields(self):
        prob = wd.make_problem("logistic", 4, 2, 3)
        assert [f.name for f in dataclasses.fields(prob)] == ["kind", "components"]
        assert [f.name for f in dataclasses.fields(prob.components[0])] == ["value", "direction", "generators"]
        with pytest.raises(TypeError):
            dataclasses.replace(prob, f_star_lower=None)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            wd.make_problem("logistic", 0, 1, 0)
        with pytest.raises(ValueError):
            wd.make_problem("nope", 1, 1, 0)

    def test_degenerate_n1_p1(self):
        prob = wd.make_problem("median", 1, 1, 0)
        assert prob.n == 1 and prob.p == 1

    def test_relu_net_box_constant(self):
        prob = wd.make_problem("relu_net", 4, 3, 31)
        assert prob.box_radius == approx(2.0)
        rng = np.random.default_rng(5)
        for _ in range(200):
            theta = rng.uniform(-2.0, 2.0, size=prob.p)
            for c, m in zip(prob.components[:2], prob.kind.lipschitz_values):
                d = c.direction(theta)
                assert np.linalg.norm(d) <= m + 1e-12


class TestBoundednessInvariants:
    @pytest.mark.parametrize(
        "kind,n,p", [("logistic", 7, 3), ("sigmoid_nonconvex", 6, 2), ("median", 5, 2)]
    )
    def test_direction_norm_within_lipschitz_bound(self, kind, n, p):
        prob = wd.make_problem(kind, n, p, 77)
        rng = np.random.default_rng(77)
        pts = rng.standard_normal((1000, p)) * 2.0
        m_full = prob.M
        for x in pts:
            for c, m in zip(prob.components, prob.kind.lipschitz_values):
                assert np.linalg.norm(c.direction(x)) <= m + 1e-12
            assert np.linalg.norm(prob.full_direction(x)) <= m_full + 1e-12

    @pytest.mark.parametrize("kind", ["logistic", "sigmoid_nonconvex"])
    def test_mean_gradient_lipschitz(self, kind):
        prob = wd.make_problem(kind, 6, 3, 123)
        rng = np.random.default_rng(123)
        pairs = [
            (rng.standard_normal(3) * 2, rng.standard_normal(3) * 2) for _ in range(200)
        ]
        assert lipschitz_gradient_check(prob, pairs) <= prob.L + 1e-12


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
@pytest.mark.parametrize("scale", [1e3, -1e3])
def test_vectorized_oracles_saturate_without_warnings(kind, scale):
    # exp overflows far out; the oracles saturate instead of warning
    prob = wd.make_problem(kind, 6, 3, 8)
    x = np.full(prob.p, scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = prob.full_value(x)
        direction = prob.full_direction(x)
        norms = prob.direction_norms(x)
    assert np.isfinite(value)
    assert np.all(np.isfinite(direction)) and np.all(np.isfinite(norms))


def _reference_relu(row, theta, hidden=8):
    # (value, direction) of f_i(theta) = |w2^T relu(W1 x_i + b1) + b2 - y_i|
    xi, yi = row[:-1].copy(), float(row[-1])
    k = hidden * len(xi)
    w1, b1 = theta[:k].reshape(hidden, len(xi)), theta[k : k + hidden]
    w2, b2 = theta[k + hidden : k + 2 * hidden], theta[-1]
    pre = w1 @ xi + b1
    act = np.maximum(pre, 0.0)
    gw2 = w2 * (pre > 0.0).astype(float)
    s = float(np.sign(w2 @ act + b2 - yi))
    value = abs(float(w2 @ act + b2) - yi)
    return value, s * np.concatenate([np.outer(gw2, xi).ravel(), gw2, act, [1.0]])


@given(st.integers(1, 200), st.sampled_from([1, 8, 16]), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_build_and_relu_products_have_the_matmul_and_outer_bits(p_in, hidden, seed):
    # a build's ||a_i||^2 is a.dot(a), the bits of a @ a, and relu_net's
    # dL/dW1 block the broadcast gw2[:, None] * x_i, the bits of np.outer
    zoo, theta = _relu_instance(np.random.default_rng(seed), 3, p_in, hidden, 1.0)
    assert np.array(zoo.sq).tobytes() == np.array([float(a @ a) for a in zoo.A]).tobytes()
    for row, (xi, yi) in zip(zoo.data, zoo.rows()):
        assert zoo.direction(xi, yi, theta).tobytes() == _reference_relu(row, theta, hidden)[1].tobytes()


def _reference_median(row, x):
    dev = x - row
    j = int(np.argmax(np.abs(dev)))
    d = np.zeros(len(row))
    d[j] = np.sign(dev[j])
    return float(np.max(np.abs(dev))), d


def _reference_linear(row, x, value, coefficient):
    a, v = row[:-1].copy(), float(row[-1])
    t = float(a @ x)
    return value(t, v), coefficient(t, v) * a


# (f_i(x), d_i(x)) of each zoo kind from its data row, written out apart from the kind classes
REFERENCE_ORACLES = {
    "logistic": lambda row, x: _reference_linear(
        row, x, lambda t, b: float(np.logaddexp(0.0, -b * t)), lambda t, b: -b * _expit(-b * t)
    ),
    "sigmoid_nonconvex": lambda row, x: _reference_linear(
        row, x, lambda t, c: _expit(t - c), lambda t, c: _expit(t - c) * (1.0 - _expit(t - c))
    ),
    "median": _reference_median,
    "relu_net": _reference_relu,
}


@given(
    st.sampled_from(PROBLEM_KINDS),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([0.0, 0.1, 1.0, 10.0]),
)
@settings(max_examples=60)
def test_kind_oracles_match_their_definitions(kind, n, p, seed, scale):
    # each component's oracles are its row's formula bit for bit; the
    # vectorized full oracles are the per-component means and norms up to
    # rounding (FiniteSumProblem's documented tolerance)
    prob = wd.make_problem(kind, n, p, seed)
    x = scale * np.random.default_rng(seed).standard_normal(prob.p)
    values, directions = [], []
    for c, row in zip(prob.components, prob.kind.data):
        value, direction = REFERENCE_ORACLES[kind](row, x)
        assert type(c.value(x)) is float and c.value(x) == value
        assert c.direction(x).tobytes() == direction.tobytes()
        values.append(value)
        directions.append(direction)
    tol = {"rtol": 1e-12, "atol": 1e-12 * prob.M}
    assert prob.full_value(x) == approx(math.fsum(values) / n, rel=1e-12)
    np.testing.assert_allclose(prob.full_direction(x), np.mean(directions, axis=0), **tol)
    np.testing.assert_allclose(prob.direction_norms(x), np.linalg.norm(directions, axis=1), **tol)


def _relu_instance(rng, n, p_in, hidden, scale):
    """A ReluNet and a parameter point at which some pre-activations and
    some residuals are exactly 0: zero data entries, zero rows of W1 with
    zero biases, and targets y_i set to the network's output."""
    X = rng.standard_normal((n, p_in))
    X[rng.random((n, p_in)) < 0.2] = 0.0
    kind = ReluNet(_labelled(X, rng.standard_normal(n)), 1, hidden)
    theta = scale * rng.standard_normal(kind.p)
    k = hidden * p_in
    dead = rng.random(hidden) < 0.3
    theta[:k].reshape(hidden, p_in)[dead] = 0.0
    theta[k : k + hidden][dead] = 0.0
    # targets on the network: the residual of those rows is exactly 0
    w1, b1 = theta[:k].reshape(hidden, p_in), theta[k : k + hidden]
    w2, b2 = theta[k + hidden : k + 2 * hidden], theta[-1]
    outputs = [float(w2 @ np.maximum(w1 @ x + b1, 0.0) + b2) for x in X]
    y = np.where(rng.random(n) < 0.3, outputs, kind.v)
    return ReluNet(_labelled(X, y), 1, hidden), theta


@given(
    st.sampled_from(["logistic", "sigmoid_nonconvex", "relu_net"]),
    st.sampled_from([(1, 1), (7, 2), (32, 5), (300, 4)]),
    st.sampled_from([1, 2, 3, 8, 16]),
    st.sampled_from([0.0, 1e-3, 1.0, 30.0]),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_row_kernels_have_the_bits_of_the_reference_oracles(kind, shape, hidden, scale, seed):
    # row i of each kernel is REFERENCE_ORACLES' f_i(x) or d_i(x) bit for
    # bit, relu'(0) = 0 at zero pre-activations and sign(0) = 0 at zero
    # residuals included: each product is one BLAS ddot or gemv per row
    n, p = shape
    rng = np.random.default_rng(seed)
    if kind == "relu_net":
        zoo, x = _relu_instance(rng, n, p, hidden, scale)
        reference = partial(_reference_relu, hidden=hidden)
    else:
        zoo = wd.make_problem(kind, n, p, seed).kind
        x, reference = scale * rng.standard_normal(p), REFERENCE_ORACLES[kind]
    rows = [reference(row, x) for row in zoo.data]
    directions = np.array([d for _, d in rows])
    assert zoo.row_directions(x).tobytes() == directions.tobytes()
    block = slice(n // 3, n // 3 + 5)  # the rows of a block are those rows of the whole
    assert zoo.row_directions(x, block).tobytes() == directions[block].tobytes()
    if kind == "relu_net":
        values = np.array([v for v, _ in rows])
        assert zoo.row_values(x).tobytes() == values.tobytes()
        assert zoo.row_values(x, block).tobytes() == values[block].tobytes()


# products a_i @ x of the saturated points of the stacked row-kernel property
SATURATED_PRODUCTS = [-1e4, -746.0, -745.5, -744.0, 744.0, 745.5, 746.0, 1e4, -math.inf, math.inf, math.nan, -math.nan]


@given(
    st.sampled_from(PROBLEM_KINDS),
    st.sampled_from([(1, 1), (7, 2), (32, 5), (300, 4)]),
    st.sampled_from([1, 3, 8]),
    st.sampled_from([0.0, 1e-3, 1.0, 30.0]),
    st.sampled_from([1, 5, 40]),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_stacked_row_kernels_have_the_bits_of_the_point_oracles(kind, shape, hidden, scale, m, seed):
    # over a stack X (m, p) and an index array, row r is component
    # rows[r]'s direction at X[r] bit for bit: indices repeat and come in
    # any order.  Half the points are kinks: relu_net's parameter point
    # with zero pre-activations and residuals, median's data rows and
    # points whose deviations tie in absolute value, and for logistic and
    # sigmoid points x = t a_i / ||a_i||^2 whose product a_i @ x is about
    # t: past +-745, where exp underflows to 0, at +-inf, where exp(-inf)
    # is 0, or NaN, whose sign the kernels keep
    n, p = shape
    rng = np.random.default_rng(seed)
    if kind == "relu_net":
        zoo, kink = _relu_instance(rng, n, p, hidden, scale)
        reference = partial(_reference_relu, hidden=hidden)
    else:
        zoo, reference = wd.make_problem(kind, n, p, seed).kind, REFERENCE_ORACLES[kind]
    rows = rng.integers(0, n, size=m)
    X = scale * rng.standard_normal((m, zoo.p))
    kinks = rng.random(m) < 0.5
    if kind == "relu_net":
        X[kinks] = kink
    elif kind == "median":
        X[kinks] = zoo.data[rows[kinks]] + scale * rng.choice([-1.0, 0.0, 1.0], size=(int(kinks.sum()), p))
    else:
        t = rng.choice(SATURATED_PRODUCTS, size=int(kinks.sum()))
        X[kinks] = t[:, None] * zoo.A[rows[kinks]] / np.array(zoo.sq)[rows[kinks], None]
    with np.errstate(invalid="ignore"):  # the reference's value at a NaN product, not compared
        expected = np.array([reference(zoo.data[i], x)[1] for i, x in zip(rows, X)])
    assert zoo.row_directions(X, rows).tobytes() == expected.tobytes()
    # the problem's stacked directions
    assert zoo.problem().row_directions(X, rows).tobytes() == expected.tobytes()


@given(
    st.sampled_from([(1, 1), (7, 2), (40, 3), (None, 2)]),
    st.sampled_from([1, 3, 8]),
    st.sampled_from([0.0, 1e-3, 1.0, 30.0]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_relu_full_oracles_are_the_component_sums(shape, hidden, scale, m, seed):
    # F is the fsum of the component values over n and the full direction
    # the component directions added to 0.0 in index order, over n, bit
    # for bit, at a point and at every row of a stack (n None: three rows
    # more than one ROW_ENTRIES // p block of the direction sum, so the sum
    # spans two blocks)
    n, p = shape
    if n is None:
        n = ROW_ENTRIES // (hidden * p + 2 * hidden + 1) + 3
    rng = np.random.default_rng(seed)
    zoo, theta = _relu_instance(rng, n, p, hidden, scale)
    prob = zoo.problem()
    stack = np.concatenate([theta[None], scale * rng.standard_normal((m - 1, prob.p))])
    values, directions = prob.full_value(stack), prob.full_direction(stack)
    for x, value, direction in zip(stack, values, directions):
        acc = 0.0
        for c in prob.components:
            acc = acc + c.direction(x)
        expected = acc / n
        assert value == math.fsum(c.value(x) for c in prob.components) / n
        assert direction.tobytes() == expected.tobytes()
        assert prob.full_value(x) == value and prob.full_direction(x).tobytes() == expected.tobytes()


def _reference_generator_set(problem, x):
    """The enumerated generator set: sums of one generator per component,
    deduplicated with np.unique after every component, over n."""
    sums = np.zeros((1, problem.p))
    for c in problem.components:
        gens = np.asarray(c.generators(x), dtype=float).reshape(-1, problem.p)
        sums = np.unique((sums[:, None, :] + gens[None, :, :]).reshape(-1, problem.p), axis=0)
    return sums / problem.n


@given(
    st.sampled_from(["logistic", "sigmoid_nonconvex", "median"]),
    st.sampled_from([(1, 1), (4, 3), (32, 5), (300, 50)]),
    st.sampled_from([0.0, 1e-3, 1.0, 100.0]),
    st.integers(min_value=0, max_value=10_000),
)
# no shrinking: a failure is already small in its four draws, and shrinking
# one at n = 300 reruns the enumeration for minutes
@settings(max_examples=40, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_generator_sets_are_the_enumerated_sums(kind, shape, scale, seed):
    # smooth kinds sum their row kernel's directions; median enumerates
    n, p = shape
    if kind == "median":
        n = min(n, 32)
    prob = wd.make_problem(kind, n, p, seed)
    x = scale * np.random.default_rng(seed).standard_normal(p)
    assert np.array(prob.generator_set(x)).tobytes() == _reference_generator_set(prob, x).tobytes()


class TestSerialization:
    @pytest.mark.parametrize(
        "kind,n,p",
        [("logistic", 4, 2), ("sigmoid_nonconvex", 3, 2), ("median", 5, 1), ("relu_net", 3, 2)],
    )
    def test_json_round_trip_is_exact(self, kind, n, p):
        prob = wd.make_problem(kind, n, p, 55)
        doc = json.loads(json.dumps(wd.problem_to_dict(prob)))
        clone = wd.problem_from_dict(doc, prob.kind.data)
        assert clone.n == prob.n and clone.p == prob.p
        assert clone.M == prob.M
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = rng.standard_normal(prob.p)
            assert clone.full_value(x) == prob.full_value(x)
            assert np.array_equal(clone.full_direction(x), prob.full_direction(x))

    def test_custom_problem_not_serializable(self):
        # a kind outside ZOO_KINDS
        prob = formula_problem(1, 1, lambda x: 0.0, lambda x: np.zeros(1), 0.0)
        with pytest.raises(wd.UnsupportedProblem):
            wd.problem_to_dict(prob)


@given(st.floats(min_value=-700, max_value=700))
def test_scalar_expit_stable_and_correct(t):
    val = _expit(t)
    assert 0.0 <= val <= 1.0
    assert val == approx(1.0 / (1.0 + math.exp(-min(max(t, -700), 700))), rel=1e-12)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25)
def test_zoo_value_direction_consistency(n, p, seed):
    # directions of smooth kinds are descent directions of the mean value
    prob = wd.make_problem("logistic", n, p, seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(p)
    g = prob.full_direction(x)
    if np.linalg.norm(g) > 1e-9:
        step = 1e-6 / max(1.0, np.linalg.norm(g))
        assert prob.full_value(x - step * g) < prob.full_value(x) + 1e-15


def _point_full_oracles(kind, x):
    """(F(x), full direction at x) of a vectorized kind by its one-point
    formulas: A @ x and coef @ A, one BLAS gemv each, written out apart
    from the kind classes."""
    A, v, n = kind.data[:, :-1].copy(), kind.data[:, -1].copy(), kind.n
    with np.errstate(over="ignore"):
        if kind.KIND == "logistic":
            t = A @ x
            coef = -v / (1.0 + np.exp(v * t))
            return float(np.mean(np.logaddexp(0.0, -v * t))), (coef @ A) / n
        if kind.KIND == "sigmoid_nonconvex":
            s = 1.0 / (1.0 + np.exp(-(A @ x - v)))
            return float(np.mean(s)), ((s * (1.0 - s)) @ A) / n
    dev = x[None, :] - kind.data
    j = np.argmax(np.abs(dev), axis=1)
    acc = np.zeros(len(x))
    np.add.at(acc, j, np.sign(dev[np.arange(n), j]))
    return float(np.mean(np.max(np.abs(dev), axis=1))), acc / n


@given(
    st.sampled_from(["logistic", "sigmoid_nonconvex", "median"]),  # the kinds whose full oracles are formulas
    st.sampled_from([(1, 1), (4, 3), (32, 5), (300, 50)]),
    st.integers(min_value=1, max_value=70),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_stacked_full_oracles_match_the_point_formulas(kind, shape, m, seed):
    # each row of a stack has the bits of the one-point formulas, and so
    # does g @ g of each row by a stacked matmul: NumPy hands every product
    # of the stack to BLAS gemv or ddot, as it does the one-point products
    n, p = shape
    prob = wd.make_problem(kind, n, p, seed)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, p)) * 10.0 ** rng.integers(-3, 4, size=(m, 1))
    values, directions = prob.full_value(X), prob.full_direction(X)
    assert values.shape == (m,) and directions.shape == (m, p)
    squares = (directions[:, None, :] @ directions[:, :, None])[:, 0, 0]
    for x, value, direction, square in zip(X, values, directions, squares):
        point_value, point_direction = _point_full_oracles(prob.kind, x)
        assert value == point_value and direction.tobytes() == point_direction.tobytes()
        assert square == float(point_direction @ point_direction)
        assert prob.full_value(x) == point_value and type(prob.full_value(x)) is float
        assert prob.full_direction(x).tobytes() == point_direction.tobytes()


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_stacked_full_oracles_of_every_kind_match_point_calls(kind):
    # relu_net and custom problems loop over the rows of a stack
    prob = wd.make_problem(kind, 5, 2, 8)
    X = np.random.default_rng(8).standard_normal((6, prob.p))
    values, directions = prob.full_value(X), prob.full_direction(X)
    for x, value, direction in zip(X, values, directions):
        assert value == prob.full_value(x)
        assert direction.tobytes() == prob.full_direction(x).tobytes()
    with pytest.raises(ValueError):
        prob.full_value(X[:, :, None])
    with pytest.raises(ValueError):
        prob.full_direction(X[:, :-1])


def _views(rng, p, stride, offset, lo, hi):
    """A float64 vector of p entries, +-10**e with e uniform in [lo, hi],
    as a view of stride ``stride`` starting ``offset`` into a larger buffer."""
    buf = rng.choice([-1.0, 1.0], size=offset + p * stride) * 10.0 ** rng.uniform(lo, hi, size=offset + p * stride)
    return buf[offset::stride][:p]


@given(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=-150, max_value=150),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=200, deadline=None)
def test_row_dot_has_the_bits_of_matmul(p, stride, offset, lo, span, seed):
    # the row oracles and the engine's ||d||^2 take a.dot(x); like a @ x it
    # is one BLAS ddot, on contiguous and positive-stride vectors alike
    rng = np.random.default_rng(seed)
    hi = min(lo + span, 150)
    for a, x in [(_views(rng, p, 1, 0, lo, hi), _views(rng, p, 1, 0, lo, hi)),
                 (_views(rng, p, stride, offset, lo, hi), _views(rng, p, stride, offset, lo, hi))]:
        assert a.dot(x).tobytes() == (a @ x).tobytes()
        assert x.dot(x).tobytes() == (x @ x).tobytes()


def _matmul_row_oracles(kind, a, v, x):
    """(value, direction) of row [a, v] at x by the formulas written with a @ x."""
    if kind == "logistic":
        return float(np.logaddexp(0.0, -v * float(a @ x))), (-v * _expit(-v * float(a @ x))) * a
    s = _expit(float(a @ x) - v)
    return _expit(float(a @ x) - v), (s * (1.0 - s)) * a


@given(
    st.sampled_from(["logistic", "sigmoid_nonconvex"]),
    st.sampled_from([(1, 1), (4, 3), (32, 5), (20, 50)]),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_row_oracles_have_the_bits_of_the_matmul_formulas(kind, shape, scale, stride, seed):
    n, p = shape
    prob = wd.make_problem(kind, n, p, seed)
    rng = np.random.default_rng(seed)
    for x in (rng.standard_normal(p) * 10.0**scale, (rng.standard_normal(p * stride) * 10.0**scale)[::stride]):
        for comp, a, v in zip(prob.components, prob.kind.A, prob.kind.v.tolist()):
            value, direction = _matmul_row_oracles(kind, a, v, x)
            assert comp.value(x).hex() == value.hex()
            assert comp.direction(x).tobytes() == direction.tobytes()


class TestLazyComponents:
    @pytest.mark.parametrize("kind", PROBLEM_KINDS)
    def test_built_on_first_use_all_at_once_and_kept(self, built, kind):
        prob = wd.make_problem(kind, 7, 2, 5)
        assert len(prob.components) == prob.n == 7 and built == []
        first = prob.components[3]
        assert len(built) == 7
        assert prob.components[3] is first and list(prob.components)[3] is first
        assert prob.components[1:3] == tuple(prob.components)[1:3]
        assert len(built) == 7

    @pytest.mark.parametrize("kind", PROBLEM_KINDS)
    def test_components_have_the_bits_of_the_row_oracles(self, kind):
        prob = wd.make_problem(kind, 6, 3, 11)
        kind_ = prob.kind
        x = np.random.default_rng(11).standard_normal(prob.p)
        for c, row in zip(prob.components, kind_.rows()):
            assert c.value(x).hex() == kind_.value(*row, x).hex()
            assert c.direction(x).tobytes() == kind_.direction(*row, x).tobytes()
            if kind_.generators is None:
                assert c.generators is None
            else:
                assert [g.tobytes() for g in c.generators(x)] == [g.tobytes() for g in kind_.generators(*row, x)]

    def test_relu_net_generator_set_raises_before_building(self, built):
        prob = wd.make_problem("relu_net", 3, 2, 0)
        with pytest.raises(wd.UnsupportedProblem, match="^component 0 does not expose generators$"):
            prob.generator_set(np.zeros(prob.p))
        assert built == []

    def test_median_generator_set_builds_none(self, built):
        # the reference builds the components of a twin, so prob's stay unbuilt
        expected = _reference_generator_set(wd.make_problem("median", 5, 2, 3), np.zeros(2))
        built.clear()
        prob = wd.make_problem("median", 5, 2, 3)
        assert [g.tobytes() for g in prob.generator_set(np.zeros(2))] == [g.tobytes() for g in expected]
        assert built == []


@given(
    st.sampled_from(PROBLEM_KINDS),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_stored_constants_are_the_component_aggregates_bit_for_bit(kind, n, p, seed):
    # M and L are the formulas over the kind's constant lists, bit for bit
    prob = wd.make_problem(kind, n, p, seed)
    values, gradients = prob.kind.lipschitz_values, prob.kind.lipschitz_gradients
    assert prob.M.hex() == math.sqrt(math.fsum(v**2 for v in values) / n).hex()
    lip = None if gradients is None else math.fsum(gradients) / n
    assert (prob.L is None and lip is None) or prob.L.hex() == lip.hex()


@pytest.mark.parametrize("n, p_in, hidden, radius", [(5, 1, 8, 2.0), (7, 9, 3, 0.5), (4, 40, 16, 1.5), (3, 0, 2, 1.0)])
def test_relu_net_constants_keep_the_per_row_expression(n, p_in, hidden, radius):
    # M_i from ||x_i||_1 of each row as np.sum(np.abs(x_i)) gave it, and M from those
    rng = np.random.default_rng(n * p_in)
    data = np.column_stack([rng.standard_normal((n, p_in)) * 3.0, rng.standard_normal(n)])
    prob = ReluNet(data, hidden=hidden, box_radius=radius).problem()
    h, r = hidden, radius
    expected = [
        math.sqrt(h * r**2 * (float(np.sum(np.abs(xi))) + 1.0) ** 2 + 1.0 + h * r**2 * float(xi @ xi) + h * r**2)
        for xi in prob.kind.A
    ]
    assert [v.hex() for v in prob.kind.lipschitz_values] == [v.hex() for v in expected]
    assert prob.M.hex() == math.sqrt(math.fsum(v**2 for v in expected) / n).hex()
