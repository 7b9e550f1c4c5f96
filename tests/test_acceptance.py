"""Acceptance gate: every criterion as a test, one summary line each.

The grid problem is the seeded logistic instance (n = 32, p = 5); policies
and strategies cover the full cross product where a criterion says so.
The substituted-form epoch-descent criterion is expected to fail: that
form applies the step-length bound with a negative coefficient once the
epoch anchor drops below 1/(L n), which flips the inequality; see
TestEpochDescent in test_analysis.py for the dissection and
``check_epoch_descent_tight`` for the repaired form certified here
alongside.
"""

import math
import time

import numpy as np
import pytest
from pytest import approx

import wrdescent as wd
from conftest import (
    finite_diff_check,
    lemma_log_sum_check,
    lemma_norm_sum_check,
    lipschitz_gradient_check,
    make_run,
    record_criterion,
)
from test_flows import (
    exhaustive_face_min_norm,
    random_hull,
    segment_min_norm,
    simplex_grid_min_norm,
)

N_GRID = 32
P_GRID = 5
GRID_SEED = 2024

POLICIES = {
    "full_gradient": wd.FullGradient(),
    "incremental": wd.Incremental(),
    "mini_batch4": wd.MiniBatch(4),
    "delayed_async3": wd.DelayedAsync(3, 7),
    "convex_mix": wd.ConvexMix(8),
}


def grid_strategies(problem):
    return {
        "constant": wd.Constant(0.5 / problem.L),
        "decreasing_sqrt": wd.DecreasingSqrt(),
        "decreasing_cbrt": wd.DecreasingCbrtWithL(problem.L),
        "adaptive": wd.Adaptive.recommended(problem.n),
    }


@pytest.fixture(scope="module")
def grid_problem():
    return wd.make_problem("logistic", N_GRID, P_GRID, GRID_SEED)


@pytest.fixture(scope="module")
def adaptive_2000_full(grid_problem):
    return make_run(
        grid_problem,
        wd.Adaptive.recommended(N_GRID),
        perm_policy=wd.ShuffledPerEpoch(5),
        epochs=2000,
        record_level="full",
    )


def test_criterion_step_length_grid(grid_problem):
    """Step-length bound over the policy x strategy grid, 200 epochs."""
    worst = math.inf
    slowest = 0.0
    for pol_name, policy in POLICIES.items():
        for strat_name, strategy in grid_strategies(grid_problem).items():
            start = time.perf_counter()
            trace = make_run(
                grid_problem, strategy, eval_policy=policy, epochs=200
            )
            elapsed = time.perf_counter() - start
            slowest = max(slowest, elapsed)
            rep = wd.check_step_length_bound_trace(trace)
            worst = min(worst, rep.rel_slack)
            assert rep.rel_slack >= -1e-12, (pol_name, strat_name, rep)
    record_criterion(
        "step-length bound grid (20 combos, 200 epochs)",
        True,
        f"worst rel slack {worst:.2e}, slowest combo {slowest:.2f}s",
    )
    assert slowest < 30.0


@pytest.fixture(scope="module")
def epoch_descent_grid_runs(grid_problem):
    """The 20 policy x strategy runs of 501 epochs that both epoch-descent forms check."""
    return [
        make_run(grid_problem, strategy, eval_policy=policy, epochs=501)
        for policy in POLICIES.values()
        for strategy in grid_strategies(grid_problem).values()
    ]


def _epoch_descent_grid_worst(traces, checker):
    worst = None
    for trace in traces:
        rep = checker(trace, k_min=1, k_max=500)
        if worst is None or rep.rel_slack < worst.rel_slack:
            worst = rep
    return worst


def test_criterion_epoch_descent_grid_substituted_form(epoch_descent_grid_runs):
    """Per-epoch descent inequality, substituted form, K in [1, 500].

    Expected red: the substituted form is falsified on this grid (worst
    relative slack around -6e-2) by the negative-coefficient substitution,
    even though all of its proof ingredients hold; the repaired form is
    certified green by the companion test below.
    """
    worst = _epoch_descent_grid_worst(epoch_descent_grid_runs, wd.check_epoch_descent_trace)
    ok = worst.rel_slack >= -1e-9
    record_criterion(
        "epoch descent grid, substituted form (K in [1,500])",
        ok,
        f"worst rel slack {worst.rel_slack:.2e} at {worst.name}; "
        "falsified by the flipped step-length substitution, repaired form passes",
    )
    assert ok, (
        f"combined per-epoch inequality violated ({worst.name}, rel slack "
        f"{worst.rel_slack:.2e}): the (L/2 - 1/(2 n alpha_K)) coefficient is "
        "negative for alpha_K < 1/(L n), so substituting the step-length "
        "bound flips the inequality; every proof ingredient and the repaired "
        "form hold (see test_criterion_epoch_descent_grid_displacement_form)"
    )


def test_criterion_epoch_descent_grid_displacement_form(epoch_descent_grid_runs):
    """Repaired per-epoch inequality over the same grid and range."""
    worst = _epoch_descent_grid_worst(epoch_descent_grid_runs, wd.check_epoch_descent_tight_trace)
    ok = worst.rel_slack >= -1e-9
    record_criterion(
        "epoch descent grid, displacement form (K in [1,500])",
        ok,
        f"worst rel slack {worst.rel_slack:.2e}",
    )
    assert ok, worst


def test_criterion_rate_certificates(grid_problem, adaptive_2000_full):
    """Matched rate certificates at every horizon N <= 2000, F* -> 0."""
    L = grid_problem.L
    runs = {
        "constant": wd.Constant(2.0 / L),
        "decreasing_sqrt": wd.DecreasingSqrt(),
        "constant_with_l": wd.Constant(0.5 / L),
        "decreasing_cbrt": wd.DecreasingCbrtWithL(L),
    }
    details = []
    for rule, strategy in runs.items():
        trace = make_run(
            grid_problem,
            strategy,
            perm_policy=wd.ShuffledPerEpoch(5),
            epochs=2000,
            record_level="epoch_only",
        )
        cert = wd.certify_run(trace, rule)[0]
        worst = (cert.N[cert.worst], cert.slack[cert.worst])
        details.append(f"{rule} min slack {worst[1]:.2e}")
        assert cert.ok, (rule, worst)
    cert = wd.certify_run(adaptive_2000_full, "adaptive")[0]
    worst = (cert.N[cert.worst], cert.slack[cert.worst])
    details.append(f"adaptive min slack {worst[1]:.2e}")
    assert cert.ok, worst
    record_criterion(
        "rate certificates, all five rules (N = 2000, all horizons)", True, "; ".join(details)
    )


def test_criterion_adaptive_summability(adaptive_2000_full):
    """Cubed-step energy bound on the N = 2000 adaptive run."""
    rep = wd.check_summability_ada(adaptive_2000_full)
    record_criterion(
        "adaptive summability (N = 2000)", rep.ok, f"rel slack {rep.rel_slack:.2e}"
    )
    assert rep.rel_slack >= -1e-9


def test_criterion_lemma_suite():
    """Both elementary inequalities on 1000 seeded instances each."""
    rng = np.random.default_rng(99)
    for _ in range(1000):
        m = int(rng.integers(1, 8))
        p = int(rng.integers(1, 5))
        vectors = rng.uniform(-5.0, 5.0, size=(m, p))
        assert lemma_norm_sum_check(list(vectors)).ok
    for _ in range(1000):
        m = int(rng.integers(1, 30))
        a = rng.uniform(1e-6, 10.0, size=m)
        b, c = rng.uniform(1e-3, 10.0, size=2)
        assert lemma_log_sum_check(a, b, c).ok
    aligned = lemma_norm_sum_check([np.array([1.0, 0.0])] * 3)
    assert abs(aligned.rel_slack) <= 1e-12
    record_criterion(
        "lemma suite (1000 seeded instances each)",
        True,
        f"aligned-case slack {aligned.slack:.1e}",
    )


def test_criterion_oracle_fidelity():
    """Finite differences and mean-gradient Lipschitz constants."""
    worst_fd = 0.0
    worst_ratio_margin = math.inf
    for kind in ("logistic", "sigmoid_nonconvex"):
        prob = wd.make_problem(kind, 16, 4, 31)
        rng = np.random.default_rng(31)
        for _ in range(100):
            x = rng.standard_normal(4)
            worst_fd = max(worst_fd, finite_diff_check(prob, x, 1e-6))
        assert worst_fd <= 1e-5
        pairs = [
            (rng.standard_normal(4) * 2.0, rng.standard_normal(4) * 2.0)
            for _ in range(1000)
        ]
        ratio = lipschitz_gradient_check(prob, pairs)
        worst_ratio_margin = min(worst_ratio_margin, prob.L - ratio)
        assert ratio <= prob.L + 1e-12
    record_criterion(
        "oracle fidelity (finite differences, gradient Lipschitz)",
        True,
        f"worst fd error {worst_fd:.1e}, smallest Lipschitz margin {worst_ratio_margin:.2e}",
    )


def test_criterion_min_norm_oracle_equivalence():
    """Hull projection vs independent oracles on 100 seeded small hulls."""
    rng = np.random.default_rng(1234)
    worst_point = 0.0
    worst_var = 0.0
    for _ in range(100):
        gens = random_hull(rng)
        v = wd.min_norm_point(gens)
        if len(gens) == 2:
            ref = segment_min_norm(gens[0], gens[1])
        else:
            ref = exhaustive_face_min_norm(gens)
        worst_point = max(worst_point, float(np.linalg.norm(v - ref)))
        assert np.linalg.norm(v - ref) <= 1e-6
        viol = -min(float(v @ (g - v)) for g in gens)
        worst_var = max(worst_var, viol)
        assert viol <= 1e-8
        # dense weight-simplex grid can only overshoot, within the
        # projection inequality around the certified point
        vg = simplex_grid_min_norm(gens, resolution=24)
        gap = float(vg @ vg) - float(v @ v)
        assert gap >= -1e-10
        assert float((vg - v) @ (vg - v)) <= gap + 1e-9
    record_criterion(
        "min-norm oracle equivalence (100 hulls)",
        True,
        f"worst point gap {worst_point:.1e}, worst variational violation {worst_var:.1e}",
    )


def test_criterion_median_convergence():
    """Best iterate of the 1-D median run reaches the sorting-oracle solution."""
    prob = wd.make_problem("median", 101, 1, 404)
    target = prob.known_solution
    trace = make_run(
        prob,
        wd.DecreasingSqrt(),
        epochs=10_000,
        record_level="epoch_only",
        track_objective=False,
    )
    errs = np.abs(np.array([x[0] for x in trace.xs]) - target)
    k_best = int(np.argmin(errs))
    crit = wd.criticality_measure(prob, trace.xs[k_best]).measure
    ok = errs[k_best] <= 1e-2 and crit <= 1e-2
    record_criterion(
        "median convergence (n = 101, 10^4 epochs)",
        ok,
        f"best |x - median| {errs[k_best]:.2e} at K={k_best}, criticality {crit:.4f}",
    )
    assert errs[k_best] <= 1e-2
    assert crit <= 1e-2


def test_criterion_perturbed_inclusion_diagnostics():
    """Perturbation level gamma collapses and the step ratio flattens.

    The adaptive accumulator is configured (beta = 3e4, delta = 1) so the
    initial gamma is dominated by its step-ratio term; with the default
    recommended accumulator the first term n * alpha_{0,1} * M dominates
    both endpoints and gamma(tau_K)/gamma(tau_0) ~ (K n)^(-1/3) >= 1.4e-2
    at K = 10^4, out of reach of the two-decade target by construction.
    """
    prob = wd.make_problem("median", 101, 1, 404)
    trace = make_run(
        prob,
        wd.Adaptive(delta=1.0, beta=3e4),
        epochs=10_001,
        record_level="epoch_only",
        track_objective=False,
    )
    gt = wd.gamma_trace(trace)
    decay = gt.gammas[10_000] / gt.gammas[0]
    ratio_gap = gt.ratios[10_000] - 1.0
    ok = decay <= 1e-2 and ratio_gap <= 1e-3
    record_criterion(
        "perturbed-inclusion diagnostics (gamma decay, ratio flattening)",
        ok,
        f"gamma(1e4)/gamma(0) {decay:.2e}, step ratio - 1 {ratio_gap:.1e}",
    )
    assert decay <= 1e-2
    assert ratio_gap <= 1e-3


def test_criterion_order_independence(grid_problem):
    """Certificates are insensitive to the per-epoch query order.

    Ten seeded shuffles plus the adversarial descending-norm order; the
    step-length bound, the repaired per-epoch inequality and the matched
    rate certificates must pass under every ordering.  (The substituted
    combined form is excluded here: its failure is order-independent and
    already established by its own criterion.)
    """
    orderings = [wd.ShuffledPerEpoch(seed) for seed in range(10)]
    orderings.append(wd.AdversarialMaxNorm())
    L = grid_problem.L
    matched = {
        "constant": wd.Constant(2.0 / L),
        "decreasing_sqrt": wd.DecreasingSqrt(),
        "constant_with_l": wd.Constant(0.5 / L),
        "decreasing_cbrt": wd.DecreasingCbrtWithL(L),
        "adaptive": wd.Adaptive.recommended(N_GRID),
    }
    worst_len = math.inf
    worst_tight = math.inf
    for ordering in orderings:
        for strategy in grid_strategies(grid_problem).values():
            trace = make_run(
                grid_problem, strategy, perm_policy=ordering, epochs=200
            )
            worst_len = min(worst_len, wd.check_step_length_bound_trace(trace).rel_slack)
            worst_tight = min(
                worst_tight,
                wd.check_epoch_descent_tight_trace(trace, k_min=1, k_max=199).rel_slack,
            )
            assert worst_len >= -1e-12
            assert worst_tight >= -1e-9
        for rule, strategy in matched.items():
            trace = make_run(
                grid_problem,
                strategy,
                perm_policy=ordering,
                epochs=2000,
                record_level="epoch_only",
            )
            cert = wd.certify_run(trace, rule)[0]
            assert cert.ok, (type(ordering).__name__, rule)
    record_criterion(
        "order independence (10 shuffles + adversarial)",
        True,
        f"worst step-length slack {worst_len:.1e}, worst displacement-form slack {worst_tight:.1e}",
    )


def test_criterion_rate_regime_evidence():
    """Observed min-gradient decay is steeper for the faster-rate rules.

    On a margin-separated logistic instance (teacher labels) the decay
    exponents over N in [1e2, 1e4] order as the rates do; slopes are pinned
    as regression values from the first build.
    """
    rng = np.random.default_rng(21)
    A = rng.standard_normal((N_GRID, P_GRID))
    w = rng.standard_normal(P_GRID)
    w /= np.linalg.norm(w)
    b = np.sign(A @ w)
    b[b == 0] = 1.0
    prob = wd.logistic_problem(A, b, seed=21)
    pinned = {"decreasing_sqrt": -0.736, "decreasing_cbrt": -0.970, "adaptive": -1.305}
    checkpoints = np.unique(np.round(np.logspace(2, 4, 13)).astype(int))
    slopes = {}
    for name, strategy in grid_strategies(prob).items():
        if name == "constant":
            continue
        trace = make_run(
            prob,
            strategy,
            perm_policy=wd.ShuffledPerEpoch(3),
            epochs=10_000,
            record_level="epoch_only",
        )
        running = trace.running_min_grad_sq()
        x = np.log(checkpoints.astype(float))
        y = np.log(running[checkpoints])
        slopes[name] = float(np.polyfit(x, y, 1)[0])
        assert slopes[name] == approx(pinned[name], abs=0.05)
    margin = 0.1
    ok = (
        slopes["decreasing_cbrt"] <= slopes["decreasing_sqrt"] - margin
        and slopes["adaptive"] <= slopes["decreasing_sqrt"] - margin
    )
    record_criterion(
        "rate-regime evidence (log-log slopes)",
        ok,
        ", ".join(f"{k} {v:.3f}" for k, v in slopes.items()),
    )
    assert ok, slopes
