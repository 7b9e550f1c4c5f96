import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import wrdescent as wd
from wrdescent.steps import new_state, step_value


def drive(strategy, dnorm2_epochs):
    """Feed per-epoch dnorm2 lists through step_value; (state, per-epoch alphas)."""
    state = new_state(strategy)
    history = []
    for K, epoch in enumerate(dnorm2_epochs):
        history.append([step_value(strategy, state, K, i, d2) for i, d2 in enumerate(epoch, start=1)])
    return state, history


def alpha_last(strategy, history):
    """Last step size of each completed epoch, as a run's record holds it."""
    return [epoch[-1] for epoch in history if len(epoch) == strategy.n]


class TestStepValue:
    def test_constant(self):
        s = wd.Constant(alpha=0.5, n=5)
        state = new_state(s)
        assert step_value(s, state, 0, 1) == approx(0.1)

    def test_adaptive_first_call(self):
        s = wd.Adaptive(delta=8.0, beta=1.0, n=2)
        state = new_state(s)
        alpha = step_value(s, state, 0, 1, dnorm2=19.0)
        assert state.v == approx(27.0)
        assert alpha == approx(1.0 / 3.0)

    def test_decreasing_sqrt(self):
        s = wd.DecreasingSqrt(n=2)
        state = new_state(s)
        for K in range(4):
            for i in (1, 2):
                alpha = step_value(s, state, K, i)
        assert alpha == approx(0.25)  # K = 3: 1/(2*sqrt(4))

    def test_decreasing_cbrt(self):
        s = wd.DecreasingCbrtWithL(L=2.0, n=4)
        state = new_state(s)
        assert step_value(s, state, 0, 1) == approx(1.0 / 8.0)

    def test_state_tracks_position(self):
        s = wd.Constant(alpha=1.0, n=2)
        state = new_state(s)
        step_value(s, state, 0, 1)
        assert (state.K, state.i) == (0, 1)
        step_value(s, state, 0, 2)
        assert (state.K, state.i) == (1, 0)

    def test_call_order_enforced(self):
        s = wd.Constant(alpha=1.0, n=2)
        state = new_state(s)
        with pytest.raises(ValueError):
            step_value(s, state, 1, 1)
        step_value(s, state, 0, 1)
        with pytest.raises(ValueError):
            step_value(s, state, 0, 1)

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


class TestEpochAnchor:
    def test_constant_any_epoch(self):
        s = wd.Constant(alpha=0.5, n=5)
        assert wd.epoch_anchor(s, 0) == approx(0.1)
        assert wd.epoch_anchor(s, 7) == approx(0.1)

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

    def test_prescribed_closed_form_matches_state(self):
        s = wd.DecreasingSqrt(n=3)
        _, history = drive(s, [[0.0] * 3] * 4)
        for K in range(1, 5):
            assert wd.epoch_anchor(s, K) == approx(wd.epoch_anchor(s, K, alpha_last(s, history)))


class TestLexMonotone:
    def test_adaptive_history_monotone(self):
        s = wd.Adaptive(delta=2.0, beta=0.7, n=4)
        rng = np.random.default_rng(3)
        _, history = drive(s, rng.random((20, 4)).tolist())
        assert wd.check_lex_monotone(history)

    def test_constructed_violation_position(self):
        rep = wd.check_lex_monotone([[0.1, 0.2]])
        assert not rep.ok
        assert rep.violation == (0, 2)

    def test_cross_epoch_violation(self):
        rep = wd.check_lex_monotone([[0.2, 0.1], [0.15, 0.1]])
        assert rep.violation == (1, 1)

    def test_decreasing_sqrt_hundred_epochs(self):
        s = wd.DecreasingSqrt(n=3)
        _, history = drive(s, [[0.0] * 3 for _ in range(100)])
        assert wd.check_lex_monotone(history)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            wd.check_lex_monotone([])


class TestAsymptoticConditions:
    def test_constant_flags_alpha(self):
        s = wd.Constant(alpha=0.5, n=2)
        _, history = drive(s, [[0.0, 0.0] for _ in range(10)])
        rep = wd.check_asymptotic_conditions(history)
        assert rep.ratio_first_to_last == 1.0
        assert rep.ratio_ok
        assert not rep.alpha_ok  # constant steps never vanish
        assert rep.sum_alpha_first == approx(10 * 0.25)

    def test_decreasing_sqrt_scaling(self):
        s = wd.DecreasingSqrt(n=2)
        _, history = drive(s, [[0.0, 0.0] for _ in range(10_001)])
        rep = wd.check_asymptotic_conditions(history, K_max=10_000)
        assert rep.ratio_first_to_last == 1.0
        assert rep.last_alpha_first == approx(1.0 / (2.0 * math.sqrt(10_001)), rel=1e-12)
        assert rep.alpha_ok

    def test_adaptive_ratio_bounded_by_accumulator(self):
        s = wd.Adaptive(delta=8.0, beta=2.0, n=4)
        rng = np.random.default_rng(8)
        epochs = (rng.random((50, 4)) * 1.5).tolist()
        _, history = drive(s, epochs)
        rep = wd.check_asymptotic_conditions(history, K_max=49)
        m_sq = 1.5  # upper bound on every fed dnorm2
        v_start = 8.0 + 2.0 * math.fsum(v for e in epochs[:49] for v in e)
        assert rep.ratio_first_to_last - 1.0 <= s.beta * s.n * m_sq / v_start


class TestStateInvariants:
    def test_v_nondecreasing_and_replayable(self):
        s = wd.Adaptive(delta=3.0, beta=0.5, n=3)
        rng = np.random.default_rng(4)
        feeds = rng.random((30, 3)).tolist()
        state = new_state(s)
        v_expected = 3.0
        for K, epoch in enumerate(feeds):
            for i, d2 in enumerate(epoch, start=1):
                prev = state.v
                step_value(s, state, K, i, d2)
                v_expected = v_expected + 0.5 * d2
                assert state.v == v_expected  # exact replay of the recursion
                assert state.v >= prev

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
    assert wd.check_lex_monotone(history)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=30))
@settings(max_examples=40)
def test_prescribed_rules_lex_monotone(n, epochs):
    for s in (wd.DecreasingSqrt(n=n), wd.DecreasingCbrtWithL(L=0.7, n=n)):
        _, history = drive(s, [[0.0] * n for _ in range(epochs)])
        assert wd.check_lex_monotone(history)
