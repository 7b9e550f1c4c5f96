import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import wrdescent as wd
from wrdescent.steps import epoch_step, step_value


def drive(strategy, dnorm2_epochs):
    """Feed per-epoch dnorm2 lists through step_value, carrying the
    accumulator from delta (None for a prescribed rule); (v, per-epoch alphas)."""
    v = strategy.delta if isinstance(strategy, wd.Adaptive) else None
    history = []
    for K, epoch in enumerate(dnorm2_epochs):
        alphas = []
        for d2 in epoch:
            v, alpha = step_value(strategy, K, v, d2)
            alphas.append(alpha)
        history.append(alphas)
    return v, history


def alpha_last(strategy, history):
    """Last step size of each completed epoch, as a run's record holds it."""
    return [epoch[-1] for epoch in history if len(epoch) == strategy.n]


class TestStepValue:
    def test_constant(self):
        s = wd.Constant(alpha=0.5, n=5)
        assert step_value(s, 0, None) == (None, approx(0.1))

    def test_adaptive_first_call(self):
        s = wd.Adaptive(delta=8.0, beta=1.0, n=2)
        v, alpha = step_value(s, 0, s.delta, dnorm2=19.0)
        assert v == approx(27.0)
        assert alpha == approx(1.0 / 3.0)

    def test_decreasing_sqrt(self):
        s = wd.DecreasingSqrt(n=2)
        for K in range(4):
            for i in (1, 2):
                _, alpha = step_value(s, K, None)
        assert alpha == approx(0.25)  # K = 3: 1/(2*sqrt(4))

    def test_decreasing_cbrt(self):
        s = wd.DecreasingCbrtWithL(L=2.0, n=4)
        assert step_value(s, 0, None)[1] == approx(1.0 / 8.0)

    def test_negative_dnorm2_rejected(self):
        for s in (wd.Constant(alpha=1.0, n=2), wd.Adaptive(delta=8.0, beta=1.0, n=2)):
            with pytest.raises(ValueError):
                step_value(s, 0, 8.0, dnorm2=-1.0)

    @pytest.mark.parametrize(
        "strategy",
        [wd.Constant(alpha=0.5, n=3), wd.DecreasingSqrt(n=3), wd.DecreasingCbrtWithL(L=2.0, n=3)],
        ids=lambda s: s.VARIANT,
    )
    def test_epoch_step_is_the_epochs_step_values(self, strategy):
        # one call per epoch: the step size of each of its n steps, which leave the accumulator as it was
        for K in range(5):
            steps = [step_value(strategy, K, 1.0, 0.5) for _ in range(3)]
            assert [(1.0, epoch_step(strategy, K))] * 3 == steps

    def test_epoch_step_of_the_adaptive_rule_is_per_step(self):
        s = wd.Adaptive(delta=8.0, beta=1.0, n=2)
        assert epoch_step(s, 0) is None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            wd.Constant(alpha=0.0, n=2)
        with pytest.raises(ValueError):
            wd.DecreasingCbrtWithL(L=0.0, n=2)
        with pytest.raises(ValueError):
            wd.Adaptive(delta=0.0, beta=1.0, n=2)
        with pytest.raises(ValueError):
            wd.Adaptive(delta=1.0, beta=-1.0, n=2)

    def test_recommended_adaptive_defaults(self):
        s = wd.Adaptive.recommended(4)
        assert s.beta == approx(16.0)
        assert s.delta == approx(64.0)


class TestRateParams:
    """The rate rules each strategy meets, at the edges of their assumptions."""

    def test_constant_with_l_up_to_one_over_l(self):
        prob = wd.make_problem("logistic", 8, 3, 5)
        edge = 1.0 / prob.L
        assert wd.Constant(edge, 8).rate_params(prob) == {
            "constant": {"alpha": edge},
            "constant_with_l": {"alpha": edge},
        }
        above = float(np.nextafter(edge, math.inf))
        assert wd.Constant(above, 8).rate_params(prob) == {"constant": {"alpha": above}}

    def test_constant_on_nonsmooth_problem(self):
        prob = wd.make_problem("median", 5, 1, 3)
        assert wd.Constant(1e-6, 5).rate_params(prob) == {"constant": {"alpha": 1e-6}}

    def test_decreasing_sqrt(self):
        prob = wd.make_problem("logistic", 8, 3, 5)
        assert wd.DecreasingSqrt(8).rate_params(prob) == {"decreasing_sqrt": {}}

    def test_adaptive_only_with_recommended_parameters(self):
        prob = wd.make_problem("logistic", 8, 3, 5)
        rec = wd.Adaptive.recommended(8)
        assert rec.rate_params(prob) == {"adaptive": {}}
        doubled = wd.Adaptive(delta=2.0 * rec.delta, beta=rec.beta, n=8)
        assert doubled.rate_params(prob) == {}
        # beta != n^2, with delta = n^3
        for n, beta in ((4, 3.0), (32, 2.0)):
            other = wd.Adaptive(delta=float(n) ** 3, beta=beta, n=n)
            assert other.rate_params(wd.make_problem("logistic", n, 3, 5)) == {}

    def test_cbrt_needs_l_at_least_the_problems(self):
        prob = wd.make_problem("logistic", 8, 3, 5)
        for L in (prob.L, 2.0 * prob.L):
            assert wd.DecreasingCbrtWithL(L, 8).rate_params(prob) == {"decreasing_cbrt": {"L": L}}
        assert wd.DecreasingCbrtWithL(prob.L / 2.0, 8).rate_params(prob) == {}


class TestEpochAnchor:
    def test_constant_any_epoch(self):
        s = wd.Constant(alpha=0.5, n=5)
        assert wd.epoch_anchor(s, 0) == approx(0.1)

    def test_adaptive_initial(self):
        s = wd.Adaptive(delta=8.0, beta=1.0, n=3)
        assert wd.epoch_anchor(s, 0) == approx(0.5)

    def test_adaptive_after_one_epoch(self):
        s = wd.Adaptive(delta=8.0, beta=1.0, n=2)
        _, history = drive(s, [[9.0, 10.0]])  # total beta * sum = 19 -> v = 27
        assert wd.epoch_anchor(s, 1, alpha_last(s, history)) == approx(1.0 / 3.0)

    def test_mid_epoch_rejected(self):
        s = wd.Constant(alpha=1.0, n=2)
        _, history = drive(s, [[0.0]])
        with pytest.raises(ValueError):
            wd.epoch_anchor(s, 1, alpha_last(s, history))


def first_rise(alpha):
    """(K, i) of the first step larger than the one before it in run order, or None: one step at a time."""
    prev = None
    for K, row in enumerate(alpha):
        for i, a in enumerate(row, start=1):
            if prev is not None and a > prev:
                return K, i
            prev = a
    return None


class TestLexMonotone:
    def test_adaptive_history_monotone(self):
        s = wd.Adaptive(delta=2.0, beta=0.7, n=4)
        rng = np.random.default_rng(3)
        _, history = drive(s, rng.random((20, 4)).tolist())
        assert wd.check_lex_monotone(np.array(history))

    def test_constructed_violation_position(self):
        rep = wd.check_lex_monotone(np.array([[0.1, 0.2]]))
        assert not rep.ok
        assert rep.violation == (0, 2)

    def test_cross_epoch_violation(self):
        rep = wd.check_lex_monotone(np.array([[0.2, 0.1], [0.15, 0.1]]))
        assert rep.violation == (1, 1)

    def test_decreasing_sqrt_hundred_epochs(self):
        s = wd.DecreasingSqrt(n=3)
        _, history = drive(s, [[0.0] * 3 for _ in range(100)])
        assert wd.check_lex_monotone(np.array(history))

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            wd.check_lex_monotone([])

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (4,), (2, 2, 2)])
    def test_empty_or_not_2d_alpha_rejected(self, shape):
        with pytest.raises(ValueError, match="nonempty \\(N, n\\) array"):
            wd.check_lex_monotone(np.ones(shape))

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n),
                min_size=1,
                max_size=8,
            )
        ),
        st.lists(st.integers(min_value=0, max_value=47), max_size=3),
    )
    def test_the_scan_is_the_per_step_loop(self, rows, plants):
        # a nonincreasing run of few distinct values, so ties are common,
        # with rises planted at some steps, across epoch boundaries too
        alpha = -np.sort(-np.array(rows).ravel()).reshape(len(rows), -1)
        for q in plants:
            if q < alpha.size:
                alpha.flat[q] += 2.0
        expected = first_rise(alpha.tolist())
        rep = wd.check_lex_monotone(alpha)
        assert (rep.ok, rep.violation) == (expected is None, expected)


class TestAsymptoticConditions:
    """The finite-horizon proxies of the vanishing-step conditions, from the
    recorded steps: the fsum of the first steps alpha_{K,1}, the last of
    them, which should be near 0, and alpha_{K,1} / alpha_{K,n} of the last
    epoch, which should be near 1."""

    def test_constant_flags_alpha(self):
        s = wd.Constant(alpha=0.5, n=2)
        _, history = drive(s, [[0.0, 0.0] for _ in range(10)])
        firsts = [e[0] for e in history]
        ratio = history[-1][0] / history[-1][-1]
        assert ratio == 1.0
        assert abs(ratio - 1.0) <= 1e-3
        assert not firsts[-1] <= 1e-2  # constant steps never vanish
        assert math.fsum(firsts) == approx(10 * 0.25)

    def test_decreasing_sqrt_scaling(self):
        s = wd.DecreasingSqrt(n=2)
        _, history = drive(s, [[0.0, 0.0] for _ in range(10_001)])
        last = history[10_000]
        assert last[0] / last[-1] == 1.0
        assert last[0] == approx(1.0 / (2.0 * math.sqrt(10_001)), rel=1e-12)
        assert last[0] <= 1e-2

    def test_adaptive_ratio_bounded_by_accumulator(self):
        s = wd.Adaptive(delta=8.0, beta=2.0, n=4)
        rng = np.random.default_rng(8)
        epochs = (rng.random((50, 4)) * 1.5).tolist()
        _, history = drive(s, epochs)
        ratio = history[49][0] / history[49][-1]
        m_sq = 1.5  # upper bound on every fed dnorm2
        v_start = 8.0 + 2.0 * math.fsum(v for e in epochs[:49] for v in e)
        assert ratio - 1.0 <= s.beta * s.n * m_sq / v_start


class TestStateInvariants:
    def test_v_nondecreasing_and_replayable(self):
        s = wd.Adaptive(delta=3.0, beta=0.5, n=3)
        rng = np.random.default_rng(4)
        feeds = rng.random((30, 3)).tolist()
        v = v_expected = 3.0
        for K, epoch in enumerate(feeds):
            for d2 in epoch:
                prev = v
                v, _ = step_value(s, K, v, d2)
                v_expected = v_expected + 0.5 * d2
                assert v == v_expected  # exact replay of the recursion
                assert v >= prev

    def test_alpha_upper_bound(self):
        for s in (
            wd.Constant(alpha=0.3, n=4),
            wd.DecreasingSqrt(n=4),
            wd.DecreasingCbrtWithL(L=2.0, n=4),
            wd.Adaptive(delta=5.0, beta=1.0, n=4),
        ):
            rng = np.random.default_rng(1)
            _, history = drive(s, rng.random((15, 4)).tolist())
            flat = np.concatenate(history)
            cap = max(flat[0], 5.0 ** (-1.0 / 3.0))
            assert np.all(flat > 0)
            assert np.all(flat <= cap + 1e-15)


@given(
    st.lists(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=3, max_size=3),
        min_size=1,
        max_size=12,
    ),
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=0.01, max_value=10.0),
)
@settings(max_examples=60)
def test_adaptive_always_lex_monotone(feeds, delta, beta):
    s = wd.Adaptive(delta=delta, beta=beta, n=3)
    _, history = drive(s, feeds)
    assert wd.check_lex_monotone(np.array(history))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=30))
@settings(max_examples=40)
def test_prescribed_rules_lex_monotone(n, epochs):
    for s in (wd.DecreasingSqrt(n=n), wd.DecreasingCbrtWithL(L=0.7, n=n)):
        _, history = drive(s, [[0.0] * n for _ in range(epochs)])
        assert wd.check_lex_monotone(np.array(history))
