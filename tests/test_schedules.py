import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import wrdescent as wd
from wrdescent import schedules
from wrdescent.schedules import counter_rng, eval_point, eval_support, hull_point, permutation


class TestEvalPoint:
    def test_full_gradient_mass_on_epoch_start(self):
        assert eval_point(wd.FullGradient(), 0, 4).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_incremental_mass_on_latest(self):
        assert eval_point(wd.Incremental(), 0, 4).tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_minibatch_pairwise(self):
        # b = 2 evaluates steps {1,2} at z_0, {3,4} at z_2, ...
        pol = wd.MiniBatch(b=2)
        assert eval_support(pol, 0, 5) == [0, 0, 2, 2, 4]

    def test_minibatch_general_b(self):
        pol = wd.MiniBatch(b=3)
        assert eval_support(pol, 0, 7) == [0, 0, 0, 3, 3, 3, 6]

    def test_delayed_clamped_at_epoch_start(self):
        pol = wd.DelayedAsync(max_delay=2, seed=0)
        for K in range(20):
            assert eval_point(pol, K, 1).tolist() == [1.0]

    def test_delayed_within_bound_and_deterministic(self):
        pol = wd.DelayedAsync(max_delay=3, seed=42)
        for K in range(5):
            support = eval_support(pol, K, 8)
            for i, j in enumerate(support, start=1):
                assert max(0, i - 1 - 3) <= j <= i - 1
            assert support == eval_support(pol, K, 8)

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

    @pytest.mark.parametrize(
        "make",
        [
            lambda: wd.DelayedAsync(max_delay=2, seed=-1),
            lambda: wd.ConvexMix(seed=-1),
            lambda: wd.ShuffledPerEpoch(seed=-1),
        ],
        ids=["delayed_async", "convex_mix", "shuffled"],
    )
    def test_negative_seed_rejected(self, make):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            make()

    def test_convex_mix_has_no_single_support(self):
        assert eval_support(wd.ConvexMix(seed=1), 2, 4) == [None] * 4


def delay_reference(max_delay, seed, K, n):
    """Supports of epoch K drawn the per-step way: one Generator per (K, i)."""
    return [
        max(0, i - 1 - int(counter_rng(seed, 1, K, i).integers(0, max_delay + 1)))
        for i in range(1, n + 1)
    ]


# seeds and epochs on both sides of 2**32, where a key word splits in two
WORDS = st.one_of(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2**32 - 3, max_value=2**32 + 3),
    st.integers(min_value=2**32, max_value=2**64),
)


class TestEpochDraws:
    @given(
        # max_delay 2**32 - 3 is the largest drawn without the fallback
        st.sampled_from([0, 1, 8, 2**31, 2**32 - 3, 2**32 - 2, 2**32 - 1, 2**32, 2**40]),
        WORDS,
        WORDS,
        st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_supports_match_one_generator_per_step(self, max_delay, seed, K, n):
        pol = wd.DelayedAsync(max_delay=max_delay, seed=seed)
        assert pol.supports(K, n) == delay_reference(max_delay, seed, K, n)

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=1, max_value=200), st.data())
    @settings(max_examples=40, deadline=None)
    def test_shorter_epoch_is_a_prefix(self, seed, K, n, data):
        m = data.draw(st.integers(min_value=1, max_value=n))
        pol = wd.DelayedAsync(max_delay=5, seed=seed)
        assert eval_support(pol, K, m) == eval_support(pol, K, n)[:m]

    @pytest.mark.parametrize("max_delay, constructions", [(8, 0), (2**31, (60, 140))])
    def test_rejected_draws_fall_back_per_key(self, monkeypatch, max_delay, constructions):
        # 2**31 + 1 values: a 32-bit draw is rejected when its low product
        # half is below 2**31 - 1, about half the time; 9 values almost never
        calls = []
        real = schedules.counter_rng
        monkeypatch.setattr(schedules, "counter_rng", lambda *key: calls.append(key) or real(*key))
        support = wd.DelayedAsync(max_delay=max_delay, seed=3).supports(4, 200)
        if constructions:
            assert constructions[0] <= len(calls) <= constructions[1]
            assert all(key[:3] == (3, 1, 4) for key in calls)
        else:
            assert calls == []
        monkeypatch.undo()
        assert support == delay_reference(max_delay, 3, 4, 200)

    @pytest.mark.parametrize("high", [1, 2**31 + 1, 2**32 - 2, 2**32, 2**32 + 1, 2**40])
    def test_draws_match_generators_near_the_32_bit_bound(self, high):
        # above 2**32 NumPy draws 64 bits; the supports clamp such delays to
        # 0, so compare the draws themselves
        expected = [int(counter_rng(7, 2, 9, i).integers(0, high)) for i in range(1, 101)]
        assert schedules.counter_integers(7, 2, 9, 100, high).tolist() == expected


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


def reference_hull_point(weights, points):
    """The cumulative-sum definition of a hull point: the terms of the
    nonzero weights summed in index order, a single unit weight's point
    copied."""
    nz = np.flatnonzero(weights)
    if nz.size == 0:
        raise ValueError("weights must have at least one nonzero entry")
    if nz.size == 1 and weights[nz[0]] == 1.0:
        return points[nz[0]].copy()
    return np.cumsum(weights[nz, None] * np.asarray(points)[nz], axis=0)[-1].copy()


_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e-308]


@st.composite
def _hull_cases(draw):
    """(W, points): an (n, n) lower-triangular weight matrix, row r over
    points 0..r, and n points of p entries, with exact zero weights, rows
    of one unit weight and points holding +-0.0, infinities and NaN."""
    n, p = draw(st.integers(1, 64)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-5, 6, size=(n, p))
    special = rng.random((n, p)) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    points[special] = rng.choice(_SPECIALS, size=int(special.sum()))
    W = np.zeros((n, n))
    zero_share = draw(st.sampled_from([0.0, 0.2, 0.6]))
    for r in range(n):
        if rng.random() < 0.2:
            W[r, rng.integers(r + 1)] = 1.0
            continue
        w = rng.dirichlet(np.ones(r + 1))
        w[rng.random(r + 1) < zero_share] = 0.0
        if not w.any():
            w[r] = rng.random() + 0.5
        W[r, : r + 1] = w
    return W, points


def same_bits(a, b) -> bool:
    """Equal bit for bit, signed zeros and infinities included, except that
    any NaN equals any NaN: IEEE 754 leaves open which NaN a sum of two NaNs
    keeps, and NumPy's add loops differ there."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@given(_hull_cases())
@settings(max_examples=80, deadline=None)
def test_hull_points_match_the_cumulative_sum(case):
    # the stacked call, one row at a time and the engine's interleaved
    # accumulation (each point added to the later rows as it appears) all
    # have the bits of the cumulative sum
    W, points = case
    n = len(W)
    with np.errstate(all="ignore"):
        expected = np.array([reference_hull_point(W[r, : r + 1], points[: r + 1]) for r in range(n)])
        assert same_bits(hull_point(W, points), expected)
        assert same_bits(hull_point(W, list(points)), expected)
        for r in range(n):
            assert same_bits(hull_point(W[r, : r + 1], points[: r + 1]), expected[r])
        acc = np.full(points.shape, -0.0)
        for j in range(n):
            schedules.hull_accumulate(acc[j:], W[j:, j], points[j])
            # rows 0..j are complete once point j is in
            assert same_bits(acc[: j + 1], expected[: j + 1])


@pytest.mark.parametrize("n", [1, 3])
def test_hull_point_rejects_all_zero_weights(n):
    points = np.ones((n, 2))
    with pytest.raises(ValueError, match="at least one nonzero"):
        hull_point(np.zeros(n), points)
    W = np.tril(np.ones((n, n)))
    W[n - 1] = 0.0
    with pytest.raises(ValueError, match="at least one nonzero"):
        hull_point(W, points)


def test_zero_weights_skip_non_finite_points():
    points = np.array([[np.inf, np.nan], [-0.0, 2.0], [3.0, -0.0]])
    w = np.array([0.0, 1.0, 0.0])
    assert hull_point(w, points).tobytes() == np.array([-0.0, 2.0]).tobytes()
    w = np.array([0.0, 0.25, 0.75])
    assert hull_point(w, points).tobytes() == reference_hull_point(w, points).tobytes()


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

    def test_adversarial_orders_one_epoch_at_a_time(self):
        with pytest.raises(ValueError, match="one epoch at a time"):
            permutation(wd.AdversarialMaxNorm(), range(0, 2), 3, probe=np.ones(3))

    @pytest.mark.parametrize(
        "policy", [wd.Identity(), wd.FixedPermutation([2, 0, 1])], ids=lambda p: p.VARIANT
    )
    def test_fixed_orders_repeat_per_epoch(self, policy):
        rows = permutation(policy, range(4, 9), 3)
        assert rows.shape == (5, 3)
        assert all(row.tolist() == permutation(policy, 7, 3).tolist() for row in rows)


# epochs and seeds below, at and above 2**32, where the seed sequence splits a key word
_KEYS = st.one_of(st.integers(0, 10**6), st.integers(2**32 - 70, 2**32 + 5))


@given(_KEYS, _KEYS, st.integers(0, 70), st.one_of(st.just(1), st.integers(2, 40)))
@settings(max_examples=60, deadline=None)
def test_shuffled_orders_of_a_range_are_one_generator_per_epoch(seed, K0, count, n):
    rows = permutation(wd.ShuffledPerEpoch(seed=seed), range(K0, K0 + count), n)
    assert rows.shape == (count, n)
    for K, row in zip(range(K0, K0 + count), rows):
        assert row.tolist() == counter_rng(seed, 3, K).permutation(n).tolist()


def test_shuffled_orders_build_one_generator_per_range(monkeypatch):
    calls = []
    real = schedules.counter_rng
    monkeypatch.setattr(schedules, "counter_rng", lambda *key: calls.append(key) or real(*key))
    permutation(wd.ShuffledPerEpoch(seed=9), range(10, 74), 32)
    assert calls == [(9, 3, 10)]


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


@given(_KEYS, _KEYS, st.one_of(st.just(1), st.integers(2, 60)))
@settings(max_examples=40, deadline=None)
def test_convex_mix_epoch_weights_are_one_generator_per_step(seed, K, n):
    policy = wd.ConvexMix(seed=seed)
    weights = eval_point(policy, K, range(1, n + 1))
    assert len(weights) == n
    for i, w in enumerate(weights, start=1):
        assert w.tobytes() == counter_rng(seed, 2, K, i).dirichlet(np.ones(i)).tobytes()
    assert eval_point(policy, K, n).tobytes() == weights[-1].tobytes()


@pytest.mark.parametrize("K", [0, 1, 7])
def test_convex_mix_weights_are_numpys_dirichlet_at_wide_n(K):
    # the exponentials times 1.0 / their left-to-right sum are NumPy's
    # dirichlet(np.ones(i)) loop: the same bits up to a 512-step epoch
    W = wd.ConvexMix(seed=3).weights(K, range(1, 513))
    for i, row in enumerate(W, start=1):
        assert row[:i].tobytes() == counter_rng(3, 2, K, i).dirichlet(np.ones(i)).tobytes()
        assert not row[i:].any()
