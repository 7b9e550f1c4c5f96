import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import wrdescent as wd
from wrdescent.schedules import eval_point, eval_support, hull_point, permutation


class TestEvalPoint:
    def test_full_gradient_mass_on_epoch_start(self):
        assert eval_point(wd.FullGradient(), 0, 4).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_incremental_mass_on_latest(self):
        assert eval_point(wd.Incremental(), 0, 4).tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_minibatch_pairwise(self):
        # b = 2 evaluates steps {1,2} at z_0, {3,4} at z_2, ...
        pol = wd.MiniBatch(b=2)
        assert [eval_support(pol, 0, i) for i in (1, 2, 3, 4, 5)] == [0, 0, 2, 2, 4]

    def test_minibatch_general_b(self):
        pol = wd.MiniBatch(b=3)
        assert [eval_support(pol, 0, i) for i in range(1, 8)] == [0, 0, 0, 3, 3, 3, 6]

    def test_delayed_clamped_at_epoch_start(self):
        pol = wd.DelayedAsync(max_delay=2, seed=0)
        for K in range(20):
            assert eval_point(pol, K, 1).tolist() == [1.0]

    def test_delayed_within_bound_and_deterministic(self):
        pol = wd.DelayedAsync(max_delay=3, seed=42)
        for K in range(5):
            for i in range(1, 9):
                j = eval_support(pol, K, i)
                assert max(0, i - 1 - 3) <= j <= i - 1
                assert j == eval_support(pol, K, i)

    def test_convex_mix_weights_are_hull_weights(self):
        pol = wd.ConvexMix(seed=9)
        for i in (1, 2, 5, 17):
            w = eval_point(pol, 3, i)
            assert len(w) == i
            assert np.all(w > 0)
            assert w.sum() == approx(1.0, abs=1e-12)

    def test_zero_index_rejected(self):
        with pytest.raises(ValueError):
            eval_point(wd.Incremental(), 0, 0)

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            wd.MiniBatch(b=0)


class TestHullPoint:
    def test_one_hot_returns_the_point_bitwise(self):
        pts = [np.array([0.1, 0.2]), np.array([0.3, 0.7])]
        w = np.array([0.0, 1.0])
        out = hull_point(w, pts)
        assert np.array_equal(out, pts[1])
        out[0] = 99.0  # must be a copy
        assert pts[1][0] == 0.3

    def test_mix_matches_manual_sum(self):
        pts = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([2.0, 2.0])]
        w = np.array([0.2, 0.3, 0.5])
        assert hull_point(w, pts) == approx(np.array([1.2, 1.3]))

    def test_containment_in_hull_radius(self):
        rng = np.random.default_rng(0)
        pts = [rng.standard_normal(3) for _ in range(6)]
        x = pts[0]
        w = rng.dirichlet(np.ones(6))
        zhat = hull_point(w, pts)
        assert np.linalg.norm(zhat - x) <= max(np.linalg.norm(p - x) for p in pts) + 1e-12

    @pytest.mark.parametrize("p", [1, 2, 5, 50])
    def test_matches_left_to_right_loop_bitwise(self, p):
        rng = np.random.default_rng(p)
        for m in range(1, 40):
            pts = rng.standard_normal((m, p))
            w = rng.dirichlet(np.ones(m))
            acc = w[0] * pts[0]
            for j in range(1, m):
                acc = acc + w[j] * pts[j]
            out = hull_point(w, pts)
            assert np.array_equal(out, acc)
            assert out.base is None  # holds no array of partial sums
            assert np.array_equal(hull_point(w, list(pts)), acc)


class TestPermutation:
    def test_identity(self):
        assert permutation(wd.Identity(), 0, 3).tolist() == [0, 1, 2]

    def test_fixed_validated(self):
        with pytest.raises(ValueError):
            wd.FixedPermutation(perm=(0, 0, 2))
        pol = wd.FixedPermutation(perm=(2, 0, 1))
        assert permutation(pol, 5, 3).tolist() == [2, 0, 1]

    def test_shuffled_reproducible(self):
        pol = wd.ShuffledPerEpoch(seed=7)
        a = permutation(pol, 4, 6)
        b = permutation(pol, 4, 6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, permutation(pol, 5, 6))

    def test_adversarial_sorts_by_probe_descending(self):
        pol = wd.AdversarialMaxNorm()
        perm = permutation(pol, 0, 3, probe=np.array([0.1, 0.9, 0.5]))
        assert perm.tolist() == [1, 2, 0]

    def test_adversarial_ties_stable(self):
        perm = permutation(wd.AdversarialMaxNorm(), 0, 4, probe=np.array([0.5, 0.9, 0.5, 0.1]))
        assert perm.tolist() == [1, 0, 2, 3]

    def test_adversarial_needs_probe(self):
        with pytest.raises(ValueError):
            permutation(wd.AdversarialMaxNorm(), 0, 3)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=1000),
       st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60)
def test_shuffled_is_always_a_bijection(n, K, seed):
    perm = permutation(wd.ShuffledPerEpoch(seed=seed), K, n)
    assert sorted(perm.tolist()) == list(range(n))


@given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=500),
       st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60)
def test_convex_mix_weights_valid(i, K, seed):
    w = eval_point(wd.ConvexMix(seed=seed), K, i)
    assert len(w) == i
    assert np.all(w >= 0)
    assert abs(w.sum() - 1.0) <= 1e-12
