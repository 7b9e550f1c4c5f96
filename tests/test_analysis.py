import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import wrdescent as wd
from conftest import (
    formula_problem,
    lemma_log_sum_check,
    lemma_norm_sum_check,
    lipschitz_gradient_check,
    make_run,
)
from wrdescent import analysis
from wrdescent.engine import EPOCH_BLOCK
from test_engine import EVAL_CASES, PERM_CASES, zero_problem


class TestStepLengthBound:
    def test_zero_direction_epoch_zero_slack(self):
        trace = make_run(zero_problem(), wd.Constant(0.5), epochs=2)
        rep = wd.check_step_length_bound_trace(trace, k_min=0, k_max=0)
        assert rep.lhs == 0.0 and rep.rhs == 0.0
        assert rep.ok and rep.rel_slack == 0.0

    def test_n1_single_term_equality(self):
        prob = wd.make_problem("logistic", 1, 2, 4)
        trace = make_run(prob, wd.Constant(0.3), epochs=3)
        for K in range(trace.epochs_completed):
            rep = wd.check_step_length_bound_trace(trace, k_min=K, k_max=K)
            assert abs(rep.rel_slack) <= 1e-12  # LHS = alpha^2 ||d||^2 = RHS

    def test_convex_mix_epochs_hold(self):
        prob = wd.make_problem("logistic", 8, 3, 6)
        trace = make_run(
            prob, wd.Adaptive.recommended(8), eval_policy=wd.ConvexMix(2), epochs=40
        )
        assert wd.check_step_length_bound_trace(trace).rel_slack >= -1e-12

    def test_needs_inner_records(self):
        prob = wd.make_problem("logistic", 3, 2, 6)
        trace = make_run(prob, wd.Constant(0.2), epochs=2, record_level="epoch_only")
        with pytest.raises(ValueError):
            wd.check_step_length_bound_trace(trace)


class TestEpochDescent:
    def test_trace_check_scans_lex_once(self, logistic32, monkeypatch):
        trace = make_run(logistic32, wd.Adaptive.recommended(32), epochs=8)
        per_epoch = min(
            (wd.check_epoch_descent_trace(trace, k_min=K, k_max=K) for K in range(1, 8)),
            key=lambda r: r.rel_slack,
        )
        calls = []
        scan = analysis.check_lex_monotone
        monkeypatch.setattr(analysis, "check_lex_monotone", lambda a: calls.append(1) or scan(a))
        assert repr(wd.check_epoch_descent_trace(trace)) == repr(per_epoch)
        assert len(calls) == 1

    def test_lex_violation_rejected(self, logistic32):
        trace = make_run(logistic32, wd.DecreasingSqrt(), epochs=6)
        trace.alpha[4][2] *= 2.0
        for k_max in (1, None):  # epoch 1 alone, and the default range
            with pytest.raises(ValueError, match=r"lexicographic monotonicity at \(4, 3\)"):
                wd.check_epoch_descent_trace(trace, k_min=1, k_max=k_max)

    def test_constant_steps_kill_ratio_term(self, logistic32):
        # alpha = 1/L keeps the S2 coefficient nonnegative, so the combined
        # form is provable here; the ratio term vanishes for equal steps
        trace = make_run(logistic32, wd.Constant(1.0 / logistic32.L), epochs=6)
        rep = wd.check_epoch_descent_trace(trace, k_min=3, k_max=3)
        assert rep.detail["ratio_term"] == approx(0.0, abs=1e-14)
        assert rep.ok

    def test_zero_direction_problem_both_sides_zero(self):
        trace = make_run(zero_problem(), wd.Constant(0.5), epochs=3)
        rep = wd.check_epoch_descent_trace(trace, k_min=1, k_max=1)
        assert rep.lhs == approx(0.0, abs=1e-15)
        assert rep.rhs == approx(0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "strategy_name", ["sqrt", "cbrt", "adaptive", "constant"]
    )
    def test_tight_form_holds_along_seeded_runs(self, strategy_name):
        prob = wd.make_problem("logistic", 8, 3, 15)
        strategies = {
            "sqrt": wd.DecreasingSqrt(),
            "cbrt": wd.DecreasingCbrtWithL(prob.L),
            "adaptive": wd.Adaptive.recommended(8),
            "constant": wd.Constant(0.5 / prob.L),
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
        assert wd.check_step_length_bound_trace(trace, k_min=K, k_max=K).ok
        assert wd.check_descent_decomposition_trace(trace, k_min=K, k_max=K).ok
        assert wd.check_epoch_descent_tight_trace(trace, k_min=K, k_max=K).ok

    def test_nonsmooth_unsupported(self):
        prob = wd.make_problem("median", 5, 1, 3)
        trace = make_run(prob, wd.DecreasingSqrt(), epochs=4)
        with pytest.raises(wd.UnsupportedProblem):
            wd.check_epoch_descent_trace(trace, k_min=1, k_max=1)

    def test_anchor_convention(self):
        prob = wd.make_problem("logistic", 4, 2, 5)
        s = wd.Adaptive(delta=8.0, beta=1.0)
        trace = make_run(prob, s, epochs=5)
        assert trace.epoch_anchor(0) == approx(0.5)  # delta^(-1/3)
        for K in range(1, 5):
            assert trace.epoch_anchor(K) == trace.alpha[K - 1][-1]


class TestDescentDecomposition:
    def test_full_gradient_constant_steps_identity(self, logistic32):
        # zhat = x_K and equal steps: LHS equals -(n alpha_K / 2)||grad F||^2
        trace = make_run(
            logistic32,
            wd.Constant(0.5 / logistic32.L),
            eval_policy=wd.FullGradient(),
            epochs=4,
        )
        K = 2
        rep = wd.check_descent_decomposition_trace(trace, k_min=K, k_max=K)
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
            assert wd.check_descent_decomposition_trace(trace, k_min=K, k_max=K).rel_slack >= -1e-9


# The per-epoch formulas one epoch K at a time, and the scan that keeps the
# least slack so far: the reference that the range computations of
# ``analysis`` must reproduce report for report.


def _ref_report(name, lhs, rhs, tol, denom, detail):
    slack = rhs - lhs
    rel = slack / denom
    return wd.MarginReport(name, lhs, rhs, slack, rel, rel >= -tol, detail)


def _ref_s2(trace, K):
    return math.fsum(a**2 * d2 for a, d2 in zip(trace.alpha[K].tolist(), trace.dnorm2[K].tolist()))


def _ref_step_length(trace, K, tol=analysis.EXACT_RTOL):
    n = trace.problem.n
    x = trace.xs[K]
    rhs = n * _ref_s2(trace, K)
    worst, arg = -math.inf, None
    xdiff = trace.xs[K + 1] - x
    cand = float(xdiff.dot(xdiff))
    if cand > worst:
        worst, arg = cand, ("x_next", n)
    for i, (z, zhat) in enumerate(zip(trace.z[K], trace.zhat[K]), start=1):
        for label, point in (("z", z), ("zhat", zhat)):
            diff = point - x
            cand = float(diff.dot(diff))
            if cand > worst:
                worst, arg = cand, (label, i)
    denom = 1.0 if rhs == 0.0 and worst == 0.0 else max(rhs, 1e-300)
    return _ref_report(f"step_length[K={K}]", worst, rhs, tol, denom, {"argmax": arg})


def _ref_epoch_descent(trace, K, tight, tol=analysis.INEQ_RTOL):
    problem = trace.problem
    n, L, M = problem.n, problem.L, problem.M
    alpha_k = trace.epoch_anchor(K)
    s2 = _ref_s2(trace, K)
    ratio_cube = math.fsum(1.0 - (a / alpha_k) ** 3 for a in trace.alpha[K].tolist())
    lhs = trace.f_vals[K + 1] - trace.f_vals[K] + 0.5 * n * alpha_k * trace.grad_sq[K]
    if not tight:
        rhs = (
            alpha_k * L**2 * n**2 + L * n / 2.0 - 1.0 / (2.0 * alpha_k)
        ) * s2 + alpha_k * M**2 * ratio_cube
        detail = {"alpha_K": alpha_k, "S2": s2, "ratio_term": ratio_cube}
        name = f"epoch_descent[K={K}]"
        return _ref_report(name, float(lhs), float(rhs), tol, 1.0 + abs(rhs), detail)
    diff = trace.xs[K + 1] - trace.xs[K]
    d2 = float(diff @ diff)
    rhs = (
        alpha_k * L**2 * n**2 * s2
        + alpha_k * M**2 * ratio_cube
        + (L / 2.0 - 1.0 / (2.0 * n * alpha_k)) * d2
    )
    detail = {"alpha_K": alpha_k, "S2": s2, "displacement_sq": d2}
    name = f"epoch_descent_tight[K={K}]"
    return _ref_report(name, float(lhs), float(rhs), tol, 1.0 + abs(rhs), detail)


def _ref_decomposition(trace, K, tol=analysis.INEQ_RTOL):
    problem = trace.problem
    n, L, M = problem.n, problem.L, problem.M
    alpha_k = trace.epoch_anchor(K)
    ratio_sq = math.fsum((a / alpha_k - 1.0) ** 2 for a in trace.alpha[K].tolist())
    g = problem.full_direction(trace.xs[K])
    diff = trace.xs[K + 1] - trace.xs[K]
    lhs = float(g @ diff) + float(diff @ diff) / (2.0 * n * alpha_k)
    rhs = (
        -0.5 * n * alpha_k * float(g @ g)
        + alpha_k * L**2 * n**2 * _ref_s2(trace, K)
        + alpha_k * M**2 * ratio_sq
    )
    name = f"descent_decomposition[K={K}]"
    return _ref_report(name, lhs, rhs, tol, 1.0 + abs(rhs), {"alpha_K": alpha_k})


def _ref_worst(check, trace, k_min, k_max):
    worst = None
    for K in range(k_min, k_max + 1):
        rep = check(trace, K)
        if worst is None or rep.rel_slack < worst.rel_slack:
            worst = rep
    return worst


def _growing_problem(n=4, p=2):
    """Smooth components -||x||^2 / 2: descent steps grow the iterate until it overflows."""
    return formula_problem(n, p, lambda x: -0.5 * float(x @ x), lambda x: -x, 1.0, 1.0, f_star_lower=0.0)


def _property_run(strategy, eval_policy, perm_policy, epochs, track):
    """A run on logistic 4x2 under ``strategy``, or with "aborted" one of at
    most 60 epochs whose iterates overflow (F reaches -inf, ||d||^2 inf)."""
    if strategy == "aborted":
        problem, rule, x0, epochs = _growing_problem(), wd.Constant(1e5), np.ones(2), 60
    else:
        problem, x0 = wd.make_problem("logistic", 4, 2, 6), np.full(2, 0.2)
        rule = {
            "constant": wd.Constant(0.5 / problem.L),
            "sqrt": wd.DecreasingSqrt(),
            "cbrt": wd.DecreasingCbrtWithL(problem.L),
            "adaptive": wd.Adaptive.recommended(4),
        }[strategy]
    with np.errstate(all="ignore"):
        return make_run(
            problem, rule, eval_policy, perm_policy, epochs, x0=x0, track_objective=track
        )


_PROPERTY_STRATEGIES = ["constant", "sqrt", "cbrt", "adaptive", "aborted"]


class TestRangeChecks:
    def test_step_length_names_the_first_non_finite_epoch(self):
        # the growing run's squares overflow in its last epochs: the report
        # stays the per-epoch scan's, at an earlier epoch, and non_finite
        # names the first epoch whose lhs or rhs is not finite
        trace = _property_run("aborted", wd.Incremental(), wd.Identity(), 60, False)
        with np.errstate(all="ignore"):
            refs = [_ref_step_length(trace, K) for K in range(trace.epochs_completed)]
            rep = wd.check_step_length_bound_trace(trace)
        bad = [K for K, r in enumerate(refs) if not (math.isfinite(r.lhs) and math.isfinite(r.rhs))]
        assert bad and rep.name != f"step_length[K={bad[0]}]"
        assert rep.non_finite == f"lhs {refs[bad[0]].lhs}, rhs {refs[bad[0]].rhs} at K={bad[0]}"
        assert "non_finite" not in repr(rep)
        finite = make_run(wd.make_problem("logistic", 4, 2, 6), wd.Constant(0.1), epochs=3)
        assert wd.check_step_length_bound_trace(finite).non_finite is None

    @pytest.mark.parametrize("eval_policy", EVAL_CASES, ids=lambda c: c.VARIANT)
    @given(
        strategy=st.sampled_from(_PROPERTY_STRATEGIES),
        perm_policy=st.sampled_from(PERM_CASES),
        epochs=st.integers(1, EPOCH_BLOCK + 6),
        track=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=12)
    def test_range_checks_match_the_per_epoch_scan(
        self, eval_policy, strategy, perm_policy, epochs, track, data
    ):
        trace = _property_run(strategy, eval_policy, perm_policy, epochs, track)
        N = trace.epochs_completed
        if strategy == "aborted":
            assert trace.aborted_at is not None
        k_min = data.draw(st.integers(0, N - 1), label="k_min")
        k_max = data.draw(st.integers(k_min, N - 1), label="k_max")
        # F missing at some nodes, as where the objective is not tracked:
        # a NaN slack is chosen only as the first epoch's
        holes = data.draw(st.lists(st.integers(0, N), max_size=2), label="nan_nodes")
        trace.f_vals[holes] = np.nan
        with np.errstate(all="ignore"):
            assert repr(wd.check_step_length_bound_trace(trace)) == repr(
                _ref_worst(_ref_step_length, trace, 0, N - 1)
            )
            for tight, check in (
                (False, wd.check_epoch_descent_trace),
                (True, wd.check_epoch_descent_tight_trace),
            ):
                assert repr(check(trace, k_min=k_min, k_max=k_max)) == repr(
                    _ref_worst(lambda t, K: _ref_epoch_descent(t, K, tight), trace, k_min, k_max)
                )
            for K in (k_min, k_max):
                for check, ref in (
                    (wd.check_step_length_bound_trace, _ref_step_length),
                    (wd.check_epoch_descent_trace, lambda t, K: _ref_epoch_descent(t, K, False)),
                    (wd.check_epoch_descent_tight_trace, lambda t, K: _ref_epoch_descent(t, K, True)),
                ):
                    assert repr(check(trace, k_min=K, k_max=K)) == repr(ref(trace, K))

    @pytest.mark.parametrize("eval_policy", EVAL_CASES, ids=lambda c: c.VARIANT)
    @given(
        strategy=st.sampled_from(_PROPERTY_STRATEGIES),
        perm_policy=st.sampled_from(PERM_CASES),
        epochs=st.integers(1, 12),
        data=st.data(),
    )
    @settings(max_examples=8)
    def test_decomposition_matches_the_per_epoch_formula(
        self, eval_policy, strategy, perm_policy, epochs, data
    ):
        trace = _property_run(strategy, eval_policy, perm_policy, epochs, True)
        K = data.draw(st.integers(0, trace.epochs_completed - 1), label="K")
        with np.errstate(all="ignore"):
            rep = wd.check_descent_decomposition_trace(trace, k_min=K, k_max=K)
            assert repr(rep) == repr(_ref_decomposition(trace, K))

    @pytest.mark.parametrize(
        "check, epochs",
        [
            # Single-epoch ranges k_min = k_max = K; the ids keep the names
            # these cases had when each check took one K.
            pytest.param(wd.check_step_length_bound_trace, (-1, -1), id="check_step_length_bound--1"),
            pytest.param(wd.check_step_length_bound_trace, (3, 3), id="check_step_length_bound-3"),
            pytest.param(wd.check_epoch_descent_trace, (3, 3), id="check_epoch_descent-3"),
            pytest.param(wd.check_epoch_descent_tight_trace, (-1, -1), id="check_epoch_descent_tight--1"),
            pytest.param(
                wd.check_descent_decomposition_trace, (3, 3), id="check_descent_decomposition-3"
            ),
            (wd.check_epoch_descent_trace, (2, 1)),
            (wd.check_epoch_descent_tight_trace, (1, 7)),
            (wd.check_epoch_descent_tight_trace, (-1, None)),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_epochs_outside_the_trace_rejected(self, check, epochs):
        trace = make_run(wd.make_problem("logistic", 4, 2, 6), wd.DecreasingSqrt(), epochs=3)
        with pytest.raises(ValueError, match=r"outside the completed epochs 0\.\.2"):
            check(trace, k_min=epochs[0], k_max=epochs[1])

    @pytest.mark.parametrize(
        "check, reason",
        [
            (wd.check_step_length_bound_trace, "no completed epoch"),
            (wd.check_epoch_descent_trace, "needs at least 2 epochs"),
            (wd.check_epoch_descent_tight_trace, "needs at least 2 epochs"),
        ],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_default_range_names_the_epochs_it_needs(self, check, reason):
        with np.errstate(all="ignore"):
            trace = make_run(_growing_problem(), wd.Constant(1e300), x0=np.ones(2), epochs=2)
        assert trace.epochs_completed == 0
        with pytest.raises(ValueError, match=f"^{reason}$"):
            check(trace)


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

    def test_adaptive_parameter_contract(self):
        # the adaptive bound holds for beta = n^2, delta = n^3 only: a strategy
        # with other parameters earns no adaptive rule, and the bound itself
        # takes no step parameter that could stand in for one
        prob = wd.make_problem("logistic", 4, 3, 5)
        assert wd.Adaptive(delta=64.0, beta=3.0).rate_params(prob) == {}
        assert wd.Adaptive.recommended(4).rate_params(prob) == {"adaptive": {}}
        with pytest.raises(TypeError):
            wd.rate_bound("adaptive", f0_minus_fstar=1.0, L=1.0, M=1.0, N=5, n=4, beta=3.0)

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

    def test_missing_parameter_named(self):
        with pytest.raises(ValueError, match="alpha"):
            wd.rate_bound("constant", f0_minus_fstar=1.0, L=1.0, M=1.0, N=5)


class TestCertifyRun:
    def test_constant_certificates(self, logistic32):
        trace = make_run(
            logistic32,
            wd.Constant(0.5 / logistic32.L),
            epochs=200,
            record_level="epoch_only",
        )
        certs = {c.rule: c for c in wd.certify_run(trace)}
        assert set(certs) == {"constant", "constant_with_l"}
        assert certs["constant"].ok and certs["constant_with_l"].ok
        assert certs["constant"].N.tolist() == list(range(201))  # N = 0..200

    def test_decreasing_certificates(self, logistic32):
        trace = make_run(
            logistic32, wd.DecreasingSqrt(), epochs=200, record_level="epoch_only"
        )
        (cert,) = wd.certify_run(trace)
        assert cert.rule == "decreasing_sqrt" and cert.ok
        assert cert.N[0] == 1  # min over K = 1..N

    def test_adaptive_certificate(self, logistic32):
        trace = make_run(
            logistic32, wd.Adaptive.recommended(32), epochs=200, record_level="epoch_only"
        )
        (cert,) = wd.certify_run(trace)
        assert cert.rule == "adaptive" and cert.ok

    def test_adaptive_parameters_checked_once_per_certificate(self, logistic32, monkeypatch):
        # Adaptive.rate_params matches beta and delta to n once; the 201
        # horizons' bounds do not build Adaptive.recommended again
        trace = make_run(logistic32, wd.Adaptive.recommended(32), epochs=200, record_level="epoch_only")
        built = []
        recommended = wd.Adaptive.recommended
        monkeypatch.setattr(wd.Adaptive, "recommended", lambda n: built.append(n) or recommended(n))
        (cert,) = wd.certify_run(trace)
        assert cert.ok and cert.N.size == 201 and built == [32]

    def test_strategy_mismatch_rejected(self, logistic32):
        trace = make_run(
            logistic32, wd.DecreasingSqrt(), epochs=10, record_level="epoch_only"
        )
        with pytest.raises(ValueError):
            wd.certify_run(trace, "adaptive")

    def test_non_default_adaptive_matches_nothing(self, logistic32):
        trace = make_run(
            logistic32,
            wd.Adaptive(delta=1.0, beta=1.0),
            epochs=10,
            record_level="epoch_only",
        )
        with pytest.raises(ValueError):
            wd.certify_run(trace)

    def test_nonsmooth_rejected(self):
        prob = wd.make_problem("median", 5, 1, 1)
        trace = make_run(prob, wd.DecreasingSqrt(), epochs=10, record_level="epoch_only")
        with pytest.raises(wd.UnsupportedProblem):
            wd.certify_run(trace, "decreasing_sqrt")


# certify_run's per-horizon loop for one rule, one float at a time: the
# reference that its arrays must reproduce bit for bit


def _ref_rate_certificate(trace, rule, f_star, tol=analysis.INEQ_RTOL):
    """(N, bound, observed, slack, ok) per horizon, and the index of the row
    that min(rows, key=slack) picks."""
    problem = trace.problem
    params = {
        "f0_minus_fstar": float(trace.f_vals[0]) - f_star,
        "L": problem.L,
        "M": problem.M,
        **trace.config.strategy.rate_params(problem)[rule],
    }
    start = 1 if rule in ("decreasing_sqrt", "decreasing_cbrt") else 0
    running = np.minimum.accumulate(trace.grad_sq[start : trace.epochs_completed + 1])
    rows = []
    for N in range(start, trace.epochs_completed + 1):
        observed = float(running[N - start])
        bound = wd.rate_bound(rule, N=N, **params)
        if not math.isfinite(bound):
            raise OverflowError(f"the {rule} bound is {bound} at N={N}")
        slack = bound - observed
        rows.append((N, bound, observed, slack, observed <= bound + tol * (1.0 + abs(bound))))
    return rows, min(range(len(rows)), key=lambda j: rows[j][3])


# a step rule that each rate rule matches on a 4-component problem
_RATE_STRATEGIES = {
    "constant": lambda problem: wd.Constant(2.0 / problem.L),
    "decreasing_sqrt": lambda problem: wd.DecreasingSqrt(),
    "constant_with_l": lambda problem: wd.Constant(0.5 / problem.L),
    "decreasing_cbrt": lambda problem: wd.DecreasingCbrtWithL(problem.L),
    "adaptive": lambda problem: wd.Adaptive.recommended(4),
}


@given(
    rule=st.sampled_from(analysis.RATE_RULES),
    epochs=st.integers(1, 40),
    f0=st.sampled_from([None, math.inf, math.nan]),
    data=st.data(),
)
@settings(max_examples=40)
def test_certificate_arrays_match_the_per_horizon_loop(rule, epochs, f0, data):
    problem = wd.make_problem("logistic", 4, 2, 6)
    strategy = _RATE_STRATEGIES[rule](problem)
    trace = make_run(problem, strategy, epochs=epochs, record_level="epoch_only", x0=np.full(2, 0.2))
    # ||grad F||^2 that is NaN or inf at some nodes, as after an overflow,
    # and an F(x_0) that takes every bound to inf or NaN
    holes = st.tuples(st.integers(0, epochs), st.sampled_from([math.nan, math.inf]))
    for k, value in data.draw(st.lists(holes, max_size=3), label="grad_sq holes"):
        trace.grad_sq[k] = value
    if f0 is not None:
        trace.f_vals[0] = f0
    try:
        rows, worst = _ref_rate_certificate(trace, rule, 0.0)
    except OverflowError as err:
        with pytest.raises(OverflowError) as got:
            wd.certify_run(trace, rule)
        assert str(got.value) == str(err)
        return
    (cert,) = wd.certify_run(trace, rule)
    N, bound, observed, slack, ok = (np.array(column) for column in zip(*rows))
    assert cert.rule == rule and cert.N.tolist() == N.tolist()
    for got, want in ((cert.bound, bound), (cert.observed, observed), (cert.slack, slack)):
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert cert.passed.tolist() == ok.tolist()
    assert cert.worst == worst and cert.ok == all(ok)


class TestSummability:
    def test_zero_direction_run(self):
        prob = zero_problem()
        trace = make_run(prob, wd.Adaptive(delta=1.0, beta=1.0), epochs=3)
        rep = wd.check_summability_ada(trace)
        assert rep.lhs == 0.0
        assert rep.ok

    def test_one_term_case(self):
        # single term a/(b + c a) with a = b = c = 1 against (1/c) log(1 + c a / b)
        rep = lemma_log_sum_check([1.0], 1.0, 1.0)
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
        trace = make_run(logistic32, wd.DecreasingSqrt(), epochs=5)
        with pytest.raises(ValueError):
            wd.check_summability_ada(trace)

    def test_adaptive_ratio_bound_variants(self):
        prob = wd.make_problem("logistic", 6, 2, 14)
        trace = make_run(prob, wd.Adaptive(delta=2.0, beta=1.0), epochs=60)
        rep = wd.check_adaptive_ratio_bound(trace)
        assert rep["ok_with_M_squared"]  # the provable variant always holds
        assert rep["max_ratio"] <= rep["bound_with_M_squared"] * (1 + 1e-9)


@pytest.mark.parametrize("name", ["epoch_descent", "epoch_descent_tight"])
def test_a_descent_range_with_a_non_finite_side_skips(name):
    # F(x_3) = inf makes the lhs of epoch 2 inf and of epoch 3 -inf: no
    # slack of the range certifies anything, so verify skips the check
    prob = wd.make_problem("logistic", 6, 2, 14)
    trace = make_run(prob, wd.DecreasingSqrt(), epochs=6)
    assert analysis.run_check(trace, name)[0] == "pass"
    trace.f_vals[3] = math.inf
    status, detail, _ = analysis.run_check(trace, name)
    assert status == "skip" and detail.startswith("numeric overflow: lhs inf, rhs ")
    assert detail.endswith(" at K=2")


class TestLemmas:
    def test_aligned_vectors_equality(self):
        rep = lemma_norm_sum_check([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
        assert rep.lhs == approx(4.0) and rep.rhs == approx(4.0)
        assert abs(rep.rel_slack) <= 1e-12

    def test_cancelling_vectors(self):
        rep = lemma_norm_sum_check([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
        assert rep.lhs == 0.0 and rep.rhs == approx(4.0)

    def test_log_sum_small_terms_vanish(self):
        rep = lemma_log_sum_check([1e-12] * 5, 1.0, 1.0)
        assert rep.lhs == approx(0.0, abs=1e-11)
        assert rep.rhs == approx(0.0, abs=1e-11)
        assert rep.ok

    def test_log_sum_validates_inputs(self):
        with pytest.raises(ValueError):
            lemma_log_sum_check([1.0, -1.0], 1.0, 1.0)
        with pytest.raises(ValueError):
            lemma_log_sum_check([1.0], 0.0, 1.0)


class TestLipschitz:
    def test_constant_gradient_problem_ratio_zero(self):
        prob = formula_problem(1, 2, lambda x: float(x[0]), lambda x: np.array([1.0, 0.0]), 1.0, 0.0)
        rng = np.random.default_rng(0)
        pairs = [(rng.standard_normal(2), rng.standard_normal(2)) for _ in range(20)]
        assert lipschitz_gradient_check(prob, pairs) == 0.0

    def test_collinear_far_pair_on_logistic(self):
        prob = wd.logistic_problem([[1.0], [-1.0]], [1.0, 1.0])
        pairs = [(np.array([-8.0]), np.array([8.0]))]
        assert lipschitz_gradient_check(prob, pairs) <= prob.L

    def test_identical_points_rejected(self):
        prob = wd.logistic_problem([[1.0]], [1.0])
        with pytest.raises(ValueError):
            lipschitz_gradient_check(prob, [(np.zeros(1), np.zeros(1))])


@given(
    st.lists(
        st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=3),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=80)
def test_norm_sum_inequality_random(vectors):
    assert lemma_norm_sum_check([np.array(v) for v in vectors]).ok


@given(
    st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=40),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=80)
def test_log_sum_inequality_random(a, b, c):
    assert lemma_log_sum_check(a, b, c).ok
