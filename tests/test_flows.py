import itertools
import math

import numpy as np
import pytest
from pytest import approx

import wrdescent as wd
from conftest import formula_problem, make_run
from test_engine import zero_problem


# ---------------------------------------------------------------------------
# independent minimum-norm oracles (no code shared with flows.min_norm_point)
# ---------------------------------------------------------------------------


def segment_min_norm(g1, g2):
    """Closed-form min-norm point of a two-point hull via 1-D parameterization."""
    diff = g2 - g1
    denom = float(diff @ diff)
    if denom == 0.0:
        return g1.copy()
    t = min(1.0, max(0.0, -float(g1 @ diff) / denom))
    return (1.0 - t) * g1 + t * g2


def exhaustive_face_min_norm(gens):
    """Exact oracle: project 0 onto the affine hull of every generator subset.

    The minimizer lies in some face; each face's affine projection is an
    unconstrained least-squares in the difference parameterization, kept
    only if its barycentric coordinates are nonnegative.
    """
    G = np.atleast_2d(np.asarray(gens, dtype=float))
    best = None
    for size in range(1, len(G) + 1):
        for subset in itertools.combinations(range(len(G)), size):
            S = G[list(subset)]
            if size == 1:
                v, coeffs = S[0], np.array([1.0])
            else:
                D = S[1:] - S[0]
                xi, *_ = np.linalg.lstsq(D.T, -S[0], rcond=None)
                v = S[0] + D.T @ xi
                coeffs = np.concatenate([[1.0 - xi.sum()], xi])
            if np.all(coeffs >= -1e-10):
                if best is None or float(v @ v) < float(best @ best):
                    best = v
    return best


def simplex_grid_min_norm(gens, resolution=40):
    """Dense-grid brute force over the weight simplex (value bracket only)."""
    G = np.atleast_2d(np.asarray(gens, dtype=float))
    m = len(G)
    best_v, best_n2 = None, math.inf
    for comp in itertools.combinations(range(resolution + m - 1), m - 1):
        w = np.diff([-1, *comp, resolution + m - 1]) - 1
        v = (np.asarray(w, dtype=float) / resolution) @ G
        n2 = float(v @ v)
        if n2 < best_n2:
            best_v, best_n2 = v, n2
    return best_v


def random_hull(rng, m=None, p=None):
    m = m or rng.integers(2, 5)
    p = p or rng.integers(1, 4)
    return [rng.uniform(-2.0, 2.0, size=p) for _ in range(m)]


class TestMinNormPoint:
    def test_singleton(self):
        assert wd.min_norm_point([[1.0, 0.0]]) == approx(np.array([1.0, 0.0]))

    def test_symmetric_pair_gives_zero(self):
        v = wd.min_norm_point([[1.0, 0.0], [-1.0, 0.0]])
        assert v == approx(np.zeros(2), abs=1e-12)

    def test_two_point_hull_interior_solution(self):
        v = wd.min_norm_point([[2.0, 1.0], [1.0, 2.0]])
        assert v == approx(np.array([1.5, 1.5]), abs=1e-10)

    def test_zero_in_hull_detected(self):
        gens = [[1.0, 1.0], [-1.0, 0.5], [0.0, -2.0]]
        assert np.linalg.norm(wd.min_norm_point(gens)) <= 1e-7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wd.min_norm_point([])

    def test_matches_segment_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            g1, g2 = random_hull(rng, m=2, p=int(rng.integers(1, 4)))
            expected = segment_min_norm(g1, g2)
            assert wd.min_norm_point([g1, g2]) == approx(expected, abs=1e-8)

    def test_matches_face_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            gens = random_hull(rng)
            expected = exhaustive_face_min_norm(gens)
            assert wd.min_norm_point(gens) == approx(expected, abs=1e-7)

    def test_grid_bracket_and_projection_inequality(self):
        # a dense simplex grid can only overshoot; the overshoot obeys the
        # projection inequality ||v_grid - v*||^2 <= ||v_grid||^2 - ||v*||^2
        rng = np.random.default_rng(5)
        for _ in range(20):
            gens = random_hull(rng)
            v = wd.min_norm_point(gens)
            vg = simplex_grid_min_norm(gens)
            gap = float(vg @ vg) - float(v @ v)
            assert gap >= -1e-10
            assert float((vg - v) @ (vg - v)) <= gap + 1e-9

    def test_variational_certificate(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            gens = random_hull(rng)
            v = wd.min_norm_point(gens)
            assert min(float(v @ (g - v)) for g in gens) >= -1e-8


class TestCriticality:
    def test_median_interior_point(self):
        prob = wd.median_problem([0.0, 1.0, 2.0])
        rep = wd.criticality_measure(prob, np.array([0.5]))
        assert rep.measure == approx(1.0 / 3.0)  # signs (+,-,-) average

    def test_median_at_its_minimizer(self):
        prob = wd.median_problem([0.0, 1.0, 2.0])
        assert wd.criticality_measure(prob, np.array([1.0])).measure <= 1e-12

    def test_smooth_point_equals_gradient_norm(self):
        prob = wd.make_problem("logistic", 4, 2, 2)
        x = np.array([0.4, -0.2])
        rep = wd.criticality_measure(prob, x)
        assert rep.measure == approx(np.linalg.norm(prob.full_direction(x)), rel=1e-10)


class TestInterpolant:
    def test_breakpoints_accumulate_epoch_step_mass(self):
        # interval K carries epoch K's mass: tau_0 = 0, tau_{K+1} = (K+1) alpha
        prob = wd.make_problem("logistic", 4, 2, 5)
        trace = make_run(prob, wd.Constant(0.8), epochs=5, record_level="epoch_only")
        w = wd.interpolant(trace)
        assert w.taus == approx(0.8 * np.arange(6))

    def test_nodes_hit_exactly(self):
        prob = wd.make_problem("logistic", 3, 2, 6)
        trace = make_run(prob, wd.DecreasingSqrt(), epochs=8)
        w = wd.interpolant(trace)
        for K in range(9):
            assert np.array_equal(w(w.taus[K]), trace.xs[K])

    def test_midpoint_affine(self):
        prob = wd.make_problem("logistic", 3, 2, 6)
        trace = make_run(prob, wd.DecreasingSqrt(), epochs=4)
        w = wd.interpolant(trace)
        mid = 0.5 * (w.taus[2] + w.taus[3])
        assert w(mid) == approx(0.5 * (trace.xs[2] + trace.xs[3]), rel=1e-14)

    def test_constant_extension_outside_span(self):
        prob = wd.make_problem("logistic", 3, 2, 6)
        trace = make_run(prob, wd.DecreasingSqrt(), epochs=3)
        w = wd.interpolant(trace)
        assert np.array_equal(w(-1.0), trace.xs[0])
        assert np.array_equal(w(w.horizon + 5.0), trace.xs[3])


class TestGammaTrace:
    def test_constant_steps(self):
        prob = wd.make_problem("logistic", 4, 2, 7)
        trace = make_run(prob, wd.Constant(0.5), epochs=4)
        gt = wd.gamma_trace(trace)
        # gamma = max(n * (alpha/n) * M, 0) = alpha * M per epoch
        assert gt.gammas == approx(np.full(4, 0.5 * prob.M))
        assert gt.lambda_bound_ok

    def test_decreasing_sqrt_profile(self):
        prob = wd.make_problem("logistic", 5, 2, 8)
        trace = make_run(prob, wd.DecreasingSqrt(), epochs=6)
        gt = wd.gamma_trace(trace)
        expected = prob.M / np.sqrt(np.arange(1.0, 7.0))
        assert gt.gammas == approx(expected, rel=1e-12)
        assert np.all(np.diff(gt.gammas) <= 0)  # nonincreasing for prescribed decay

    def test_adaptive_lambda_bound_and_decay(self):
        prob = wd.make_problem("logistic", 6, 2, 9)
        trace = make_run(prob, wd.Adaptive(delta=1.0, beta=36.0), epochs=300)
        gt = wd.gamma_trace(trace)
        assert gt.lambda_bound_ok
        assert gt.max_lambda_excess <= 1e-12
        assert gt.gammas[-1] < 0.2 * gt.gammas[0]

    def test_piecewise_constant_lookup(self):
        prob = wd.make_problem("logistic", 3, 2, 10)
        trace = make_run(prob, wd.DecreasingSqrt(), epochs=4)
        gt = wd.gamma_trace(trace)
        t = 0.5 * (gt.taus[1] + gt.taus[2])
        assert gt(t) == gt.gamma_of_epoch(1)


class TestFlowIntegration:
    def test_zero_direction_deviation_zero(self):
        trace = make_run(zero_problem(), wd.Constant(0.5), epochs=6)
        assert wd.apt_deviation(trace, t=0.1, T=0.5, h=1e-2) == 0.0

    def test_lyapunov_descent_along_flow(self):
        # explicit Euler chatters in an O(h) band at kinks, so per-step
        # increases are allowed up to h * M^2
        h = 1e-3
        for prob in (wd.make_problem("logistic", 6, 2, 11), wd.median_problem([0.0, 1.0, 3.0])):
            y0 = np.full(prob.p, 0.8)
            _, ys = wd.integrate_flow(prob, y0, T=2.0, h=h)
            vals = [prob.full_value(y) for y in ys]
            assert max(np.diff(vals)) <= h * prob.M**2
            assert vals[-1] < vals[0]

    def test_late_window_shadows_better_than_early(self):
        prob = wd.make_problem("logistic", 8, 3, 12)
        trace = make_run(
            prob, wd.DecreasingSqrt(), epochs=400, record_level="epoch_only"
        )
        w = wd.interpolant(trace)
        early = wd.apt_deviation(trace, t=float(w.taus[5]), T=1.0, h=1e-3)
        late = wd.apt_deviation(trace, t=float(w.taus[350]), T=1.0, h=1e-3)
        assert late < early

    def test_deviation_scales_linearly_in_step(self):
        # n = 1 smooth quadratic-like problem on a box: the interpolant is the
        # explicit-Euler polygon, so deviation from the exact flow is O(alpha)
        # M = 3 is valid on the monitored box |x| <= 3; the one generator is the direction
        prob = formula_problem(
            1, 1, lambda x: 0.5 * float(x @ x), lambda x: x.copy(), 3.0, 1.0,
            generators=True, f_star_lower=0.0, box_radius=3.0,
        )
        devs = {}
        for alpha in (0.02, 0.04, 0.08):
            trace = make_run(
                prob,
                wd.Constant(alpha),
                epochs=int(math.ceil(1.5 / alpha)),
                x0=np.array([1.0]),
            )
            devs[alpha] = wd.apt_deviation(trace, t=0.0, T=1.0, h=1e-4)
        assert devs[0.02] < devs[0.04] < devs[0.08]
        for alpha, dev in devs.items():
            assert dev <= 0.5 * alpha  # fitted constant ~0.18/e, pinned with slack

    def test_coarse_step_flagged(self):
        prob = wd.make_problem("logistic", 4, 2, 13)
        trace = make_run(prob, wd.Constant(2.0), epochs=40, record_level="epoch_only")
        with pytest.raises(ValueError, match="too coarse"):
            wd.apt_deviation(trace, t=0.0, T=10.0, h=5.0)

    def test_window_must_fit_span(self):
        prob = wd.make_problem("logistic", 4, 2, 13)
        trace = make_run(prob, wd.Constant(0.5), epochs=4, record_level="epoch_only")
        with pytest.raises(ValueError):
            wd.apt_deviation(trace, t=0.0, T=100.0, h=0.1)
