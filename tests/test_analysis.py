import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import wrdescent as wd
from conftest import make_run
from test_engine import zero_problem


class TestStepLengthBound:
    def test_zero_direction_epoch_zero_slack(self):
        trace = make_run(zero_problem(), wd.Constant(0.5, 2), epochs=2)
        rep = wd.check_step_length_bound(trace.records[0])
        assert rep.lhs == 0.0 and rep.rhs == 0.0
        assert rep.ok and rep.rel_slack == 0.0

    def test_n1_single_term_equality(self):
        prob = wd.make_problem("logistic", 1, 2, 4)
        trace = make_run(prob, wd.Constant(0.3, 1), epochs=3)
        for rec in trace.records:
            rep = wd.check_step_length_bound(rec)
            assert abs(rep.rel_slack) <= 1e-12  # LHS = alpha^2 ||d||^2 = RHS

    def test_convex_mix_epochs_hold(self):
        prob = wd.make_problem("logistic", 8, 3, 6)
        trace = make_run(
            prob, wd.Adaptive.recommended(8), eval_policy=wd.ConvexMix(2), epochs=40
        )
        assert wd.check_step_length_bound_trace(trace).rel_slack >= -1e-12

    def test_needs_inner_records(self):
        prob = wd.make_problem("logistic", 3, 2, 6)
        trace = make_run(prob, wd.Constant(0.2, 3), epochs=2, record_level="epoch_only")
        with pytest.raises(ValueError):
            wd.check_step_length_bound_trace(trace)


class TestEpochDescent:
    def test_constant_steps_kill_ratio_term(self, logistic32):
        # alpha = 1/L keeps the S2 coefficient nonnegative, so the combined
        # form is provable here; the ratio term vanishes for equal steps
        trace = make_run(logistic32, wd.Constant(1.0 / logistic32.L, 32), epochs=6)
        rep = wd.check_epoch_descent(trace, 3)
        assert rep.detail["ratio_term"] == approx(0.0, abs=1e-14)
        assert rep.ok

    def test_zero_direction_problem_both_sides_zero(self):
        trace = make_run(zero_problem(), wd.Constant(0.5, 2), epochs=3)
        rep = wd.check_epoch_descent(trace, 1)
        assert rep.lhs == approx(0.0, abs=1e-15)
        assert rep.rhs == approx(0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "strategy_name", ["sqrt", "cbrt", "adaptive", "constant"]
    )
    def test_tight_form_holds_along_seeded_runs(self, strategy_name):
        prob = wd.make_problem("logistic", 8, 3, 15)
        strategies = {
            "sqrt": wd.DecreasingSqrt(8),
            "cbrt": wd.DecreasingCbrtWithL(prob.L, 8),
            "adaptive": wd.Adaptive.recommended(8),
            "constant": wd.Constant(0.5 / prob.L, 8),
        }
        trace = make_run(
            prob,
            strategies[strategy_name],
            eval_policy=wd.MiniBatch(3),
            perm_policy=wd.ShuffledPerEpoch(1),
            epochs=60,
        )
        rep = wd.check_epoch_descent_tight_trace(trace, k_min=1, k_max=59)
        assert rep.rel_slack >= -1e-9

    def test_combined_form_fails_only_via_the_flipped_substitution(self):
        """The diagnostic separates a false substituted combination from its
        provable ingredients.

        On this run the inner-product bound, the step-length bound and the
        smoothness upper bound all hold, and so does the repaired
        combination, yet the substituted form with the (L/2 - 1/(2 n alpha_K))
        coefficient applied to n*S2 is violated: alpha_K < 1/(L n) makes
        that coefficient negative while within-epoch cancellation keeps
        ||x_{K+1} - x_K||^2 far below n*S2.
        """
        prob = wd.make_problem("logistic", 8, 3, 15)
        trace = make_run(
            prob,
            wd.Adaptive.recommended(8),
            eval_policy=wd.MiniBatch(3),
            perm_policy=wd.ShuffledPerEpoch(1),
            epochs=60,
        )
        combined = wd.check_epoch_descent_trace(trace, k_min=1, k_max=59)
        assert not combined.ok
        K = int(combined.name.split("K=")[1].rstrip("]"))
        assert trace.epoch_anchor(K) < 1.0 / (prob.L * prob.n)
        assert wd.check_step_length_bound(trace.records[K]).ok
        assert wd.check_descent_decomposition(trace, K).ok
        assert wd.check_epoch_descent_tight(trace, K).ok

    def test_nonsmooth_unsupported(self):
        prob = wd.make_problem("median", 5, 1, 3)
        trace = make_run(prob, wd.DecreasingSqrt(5), epochs=4)
        with pytest.raises(wd.UnsupportedProblem):
            wd.check_epoch_descent(trace, 1)

    def test_anchor_convention(self):
        prob = wd.make_problem("logistic", 4, 2, 5)
        s = wd.Adaptive(delta=8.0, beta=1.0, n=4)
        trace = make_run(prob, s, epochs=5)
        assert trace.epoch_anchor(0) == approx(0.5)  # delta^(-1/3)
        for K in range(1, 5):
            assert trace.epoch_anchor(K) == trace.records[K - 1].alpha[-1]


class TestDescentDecomposition:
    def test_full_gradient_constant_steps_identity(self, logistic32):
        # zhat = x_K and equal steps: LHS equals -(n alpha_K / 2)||grad F||^2
        trace = make_run(
            logistic32,
            wd.Constant(0.5 / logistic32.L, 32),
            eval_policy=wd.FullGradient(),
            epochs=4,
        )
        K = 2
        rep = wd.check_descent_decomposition(trace, K)
        n, alpha_k = 32, trace.epoch_anchor(K)
        target = -0.5 * n * alpha_k * trace.grad_sq[K]
        assert rep.lhs == approx(target, rel=1e-10)
        assert rep.ok

    def test_holds_on_adaptive_runs(self):
        prob = wd.make_problem("logistic", 8, 3, 16)
        trace = make_run(
            prob, wd.Adaptive.recommended(8), eval_policy=wd.DelayedAsync(2, 4), epochs=50
        )
        for K in range(1, 50):
            assert wd.check_descent_decomposition(trace, K).rel_slack >= -1e-9


class TestRateBound:
    def test_constant_rule_value(self):
        val = wd.rate_bound("constant", f0_minus_fstar=1.0, alpha=0.1, L=1.0, M=1.0, N=99)
        assert val == approx(0.32)

    def test_constant_with_l_rule_value(self):
        val = wd.rate_bound("constant_with_l", f0_minus_fstar=1.0, alpha=0.1, L=1.0, M=1.0, N=99)
        assert val == approx(0.22)

    def test_adaptive_rule_value_n0(self):
        val = wd.rate_bound("adaptive", f0_minus_fstar=1.0, L=1.0, M=1.0, N=0)
        expected = 2.0 * 2.0 ** (1.0 / 3.0) * (
            1.0 + 1.5 + (2.0 ** (1.0 / 3.0) / 2.0 + 1.0) * math.log(2.0)
        )
        assert val == approx(expected, rel=1e-14)

    def test_decreasing_rule_formulas(self):
        v2 = wd.rate_bound("decreasing_sqrt", f0_minus_fstar=2.0, L=1.5, M=0.5, N=9)
        expected2 = (2.0 + (1.5**2 * 0.25 + 1.5 * 0.25 / 2) * (1 + math.log(10.0))) / (
            math.sqrt(10.0) - 1.0
        )
        assert v2 == approx(expected2, rel=1e-14)
        v4 = wd.rate_bound("decreasing_cbrt", f0_minus_fstar=2.0, L=1.5, M=0.5, N=9)
        expected4 = (
            2.0 / (3.0 * (10.0 ** (2.0 / 3.0) - 1.0)) * (1.5 * 2.0 + 0.25 * (1 + math.log(10.0)))
        )
        assert v4 == approx(expected4, rel=1e-14)

    def test_constant_with_l_precondition(self):
        with pytest.raises(ValueError):
            wd.rate_bound("constant_with_l", f0_minus_fstar=1.0, alpha=1.5, L=1.0, M=1.0, N=5)

    def test_adaptive_parameter_contract(self):
        with pytest.raises(ValueError):
            wd.rate_bound("adaptive", f0_minus_fstar=1.0, L=1.0, M=1.0, N=5, n=4, beta=3.0)

    def test_missing_parameter_named(self):
        with pytest.raises(ValueError, match="alpha"):
            wd.rate_bound("constant", f0_minus_fstar=1.0, L=1.0, M=1.0, N=5)


class TestCertifyRun:
    def test_constant_certificates(self, logistic32):
        trace = make_run(
            logistic32,
            wd.Constant(0.5 / logistic32.L, 32),
            epochs=200,
            record_level="epoch_only",
        )
        certs = {c.rule: c for c in wd.certify_run(trace)}
        assert set(certs) == {"constant", "constant_with_l"}
        assert certs["constant"].ok and certs["constant_with_l"].ok
        assert len(certs["constant"].reports) == 201  # N = 0..200

    def test_decreasing_certificates(self, logistic32):
        trace = make_run(
            logistic32, wd.DecreasingSqrt(32), epochs=200, record_level="epoch_only"
        )
        (cert,) = wd.certify_run(trace)
        assert cert.rule == "decreasing_sqrt" and cert.ok
        assert cert.reports[0].N == 1  # min over K = 1..N

    def test_adaptive_certificate(self, logistic32):
        trace = make_run(
            logistic32, wd.Adaptive.recommended(32), epochs=200, record_level="epoch_only"
        )
        (cert,) = wd.certify_run(trace)
        assert cert.rule == "adaptive" and cert.ok

    def test_strategy_mismatch_rejected(self, logistic32):
        trace = make_run(
            logistic32, wd.DecreasingSqrt(32), epochs=10, record_level="epoch_only"
        )
        with pytest.raises(ValueError):
            wd.certify_run(trace, "adaptive")

    def test_non_default_adaptive_matches_nothing(self, logistic32):
        trace = make_run(
            logistic32,
            wd.Adaptive(delta=1.0, beta=1.0, n=32),
            epochs=10,
            record_level="epoch_only",
        )
        with pytest.raises(ValueError):
            wd.certify_run(trace)

    def test_nonsmooth_rejected(self):
        prob = wd.make_problem("median", 5, 1, 1)
        trace = make_run(prob, wd.DecreasingSqrt(5), epochs=10, record_level="epoch_only")
        with pytest.raises(wd.UnsupportedProblem):
            wd.certify_run(trace, "decreasing_sqrt")


class TestSummability:
    def test_zero_direction_run(self):
        prob = zero_problem()
        trace = make_run(prob, wd.Adaptive(delta=1.0, beta=1.0, n=2), epochs=3)
        rep = wd.check_summability_ada(trace)
        assert rep.lhs == 0.0
        assert rep.ok

    def test_one_term_case(self):
        # single term a/(b + c a) with a = b = c = 1 against (1/c) log(1 + c a / b)
        rep = wd.lemma_log_sum_check([1.0], 1.0, 1.0)
        assert rep.lhs == approx(0.5)
        assert rep.rhs == approx(math.log(2.0))
        assert rep.ok

    def test_adaptive_run_certificate(self):
        prob = wd.make_problem("logistic", 8, 3, 9)
        trace = make_run(prob, wd.Adaptive.recommended(8), epochs=150)
        rep = wd.check_summability_ada(trace)
        assert rep.rel_slack >= -1e-9
        assert rep.detail["data_driven_rhs"] <= rep.rhs + 1e-15

    def test_requires_adaptive(self, logistic32):
        trace = make_run(logistic32, wd.DecreasingSqrt(32), epochs=5)
        with pytest.raises(ValueError):
            wd.check_summability_ada(trace)

    def test_adaptive_ratio_bound_variants(self):
        prob = wd.make_problem("logistic", 6, 2, 14)
        trace = make_run(prob, wd.Adaptive(delta=2.0, beta=1.0, n=6), epochs=60)
        rep = wd.check_adaptive_ratio_bound(trace)
        assert rep["ok_with_M_squared"]  # the provable variant always holds
        assert rep["max_ratio"] <= rep["bound_with_M_squared"] * (1 + 1e-9)


class TestLemmas:
    def test_aligned_vectors_equality(self):
        rep = wd.lemma_norm_sum_check([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
        assert rep.lhs == approx(4.0) and rep.rhs == approx(4.0)
        assert abs(rep.rel_slack) <= 1e-12

    def test_cancelling_vectors(self):
        rep = wd.lemma_norm_sum_check([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
        assert rep.lhs == 0.0 and rep.rhs == approx(4.0)

    def test_log_sum_small_terms_vanish(self):
        rep = wd.lemma_log_sum_check([1e-12] * 5, 1.0, 1.0)
        assert rep.lhs == approx(0.0, abs=1e-11)
        assert rep.rhs == approx(0.0, abs=1e-11)
        assert rep.ok

    def test_log_sum_validates_inputs(self):
        with pytest.raises(ValueError):
            wd.lemma_log_sum_check([1.0, -1.0], 1.0, 1.0)
        with pytest.raises(ValueError):
            wd.lemma_log_sum_check([1.0], 0.0, 1.0)


class TestLipschitz:
    def test_constant_gradient_problem_ratio_zero(self):
        comp = wd.ComponentOracle(
            value=lambda x: float(x[0]),
            direction=lambda x: np.array([1.0, 0.0]),
            lipschitz_value=1.0,
            lipschitz_gradient=0.0,
        )
        prob = wd.FiniteSumProblem.assemble([comp], 2)
        rng = np.random.default_rng(0)
        pairs = [(rng.standard_normal(2), rng.standard_normal(2)) for _ in range(20)]
        assert wd.lipschitz_gradient_check(prob, pairs) == 0.0

    def test_collinear_far_pair_on_logistic(self):
        prob = wd.logistic_problem([[1.0], [-1.0]], [1.0, 1.0])
        pairs = [(np.array([-8.0]), np.array([8.0]))]
        assert wd.lipschitz_gradient_check(prob, pairs) <= prob.L

    def test_identical_points_rejected(self):
        prob = wd.logistic_problem([[1.0]], [1.0])
        with pytest.raises(ValueError):
            wd.lipschitz_gradient_check(prob, [(np.zeros(1), np.zeros(1))])


@given(
    st.lists(
        st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=3),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=80)
def test_norm_sum_inequality_random(vectors):
    assert wd.lemma_norm_sum_check([np.array(v) for v in vectors]).ok


@given(
    st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=40),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=80)
def test_log_sum_inequality_random(a, b, c):
    assert wd.lemma_log_sum_check(a, b, c).ok
