import collections
import ctypes
import dataclasses
import hashlib
import json
import math
import tempfile
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import wrdescent as wd
from conftest import decode_payload, encode_payload, formula_problem, make_run, section_payload, with_payload
from wrdescent import engine, problems
from wrdescent.cli import main
from wrdescent.config import VARIANT_SECTIONS, variant_from_dict, variant_to_dict
from wrdescent.engine import (
    EPOCH_BLOCK,
    EPOCH_SERIES,
    INNER_FIELDS,
    NODE_SERIES,
    config_to_dict,
    provenance,
)
from wrdescent.problems import PROBLEM_KINDS
from test_schedules import reference_hull_point


def zero_problem(p=2):
    return formula_problem(2, p, lambda x: 0.0, lambda x: np.zeros(p), 0.0, 0.0, f_star_lower=0.0)


def counting_directions(problem, calls):
    """The problem with each component direction call appended to ``calls``."""
    comps = tuple(
        dataclasses.replace(c, direction=lambda x, f=c.direction: calls.append(1) or f(x))
        for c in problem.components
    )
    return dataclasses.replace(problem, components=comps)


def exploding_problem(scale=1e160, n=1):
    return formula_problem(n, 1, lambda x: float(x[0]), lambda x, s=scale: s * x, 1.0)


def overflow_config(case: str, record_level: str) -> wd.RunConfig:
    """A run whose iterates or step sizes overflow, named by ``case``.

    "exploding": ||d||^2 overflows at step 1 of epoch 1.  "exploding_down"
    and "exploding_up": z_{0,1} overflows to -inf or +inf, then ||d||^2 at
    step 2.  "<problem>/<eval policy>", under
    Constant(1e308): "logistic" is the problem of
    scripts/configs/logistic_small.json, shuffled; "logistic_wide" (20x50)
    and "relu_net" query in the adversarial order.  On logistic_wide the sum
    of z_{0,6} overflows though its entries are finite, and the run goes on.
    """
    if case.startswith("exploding"):
        n = 1 if case == "exploding" else 2
        problem = exploding_problem(scale=1e100 if n == 1 else 10.0, n=n)
        strategy = wd.Constant(1.0 if n == 1 else 1e308)
        return wd.RunConfig(
            problem=problem,
            strategy=strategy,
            eval_policy=wd.Incremental(),
            perm_policy=wd.Identity(),
            x0=np.array([-1.0 if case == "exploding_up" else 1.0]),
            epochs=10,
            record_level=record_level,
            track_objective=False,
        )
    kind, policy = case.split("/")
    eval_policies = {
        "full_gradient": wd.FullGradient(),
        "incremental": wd.Incremental(),
        "mini_batch": wd.MiniBatch(3),
        "delayed_async": wd.DelayedAsync(2, 3),
        "convex_mix": wd.ConvexMix(5),
    }
    problem = {
        "logistic": lambda: wd.make_problem("logistic", 8, 3, 7),
        "logistic_wide": lambda: wd.make_problem("logistic", 20, 50, 1),
        "relu_net": lambda: wd.make_problem("relu_net", 6, 2, 3),
    }[kind]()
    return wd.RunConfig(
        problem=problem,
        strategy=wd.Constant(1e308),
        eval_policy=eval_policies[policy],
        perm_policy=wd.ShuffledPerEpoch(11) if kind == "logistic" else wd.AdversarialMaxNorm(),
        x0=np.full(problem.p, 0.1),
        epochs=6,
        record_level=record_level,
        monitor_radius=None,
    )


# (aborted_at, epochs_completed) of each overflow_config run at either record
# level; the same as when the engine tested each iterate at its own step,
# except for logistic_wide and relu_net, which moved when the test of an
# iterate became a test of each entry instead of their sum
ABORT_PINS = {
    "exploding": ((1, 1), 1),
    "exploding_down": ((0, 1), 0),
    "exploding_up": ((0, 1), 0),
    "logistic/incremental": (None, 6),
    "logistic/mini_batch": (None, 6),
    "logistic/delayed_async": (None, 6),
    "logistic/convex_mix": (None, 6),
    "logistic_wide/full_gradient": (None, 6),
    "relu_net/full_gradient": ((1, 1), 1),
}


class TestRunEpoch:
    def test_zero_directions_fixed_point(self):
        prob = zero_problem()
        x0 = np.array([0.3, -0.4])
        trace = make_run(prob, wd.Constant(0.5), epochs=3, x0=x0)
        for K in range(trace.epochs_completed):
            assert np.array_equal(trace.xs[K + 1], x0)
            for z in trace.z[K]:
                assert np.array_equal(z, x0)

    def test_n1_epoch_is_one_gradient_step(self):
        prob = wd.make_problem("logistic", 1, 2, 3)
        x0 = np.array([0.2, -0.1])
        alpha = 0.7
        for policy in (wd.Incremental(), wd.FullGradient()):
            trace = make_run(prob, wd.Constant(alpha), eval_policy=policy, epochs=1, x0=x0)
            expected = x0 - alpha * prob.full_direction(x0)
            assert trace.xs[1] == approx(expected, rel=1e-15)

    def test_two_step_recursion_matches_extended_precision(self):
        # hand-unrolled incremental epoch on the +-1 logistic pair, 50 digits
        prob = wd.logistic_problem([[1.0], [-1.0]], [1.0, 1.0])
        x0 = np.array([0.37])
        alpha_inner = 0.25
        trace = make_run(prob, wd.Constant(0.5), epochs=1, x0=x0)

        mpmath.mp.dps = 50
        sig = lambda t: 1 / (1 + mpmath.e**-t)
        z0 = mpmath.mpf("0.37")
        d1 = -sig(-z0)  # b=1, a=1
        z1 = z0 - mpmath.mpf("0.25") * d1
        d2 = sig(z1)  # b=1, a=-1
        z2 = z1 - mpmath.mpf("0.25") * d2
        assert trace.z[0][0, 0] == approx(float(z1), rel=1e-15)
        assert trace.xs[1][0] == approx(float(z2), rel=1e-15)

    def test_each_component_queried_once_per_epoch(self):
        prob = wd.make_problem("logistic", 7, 2, 1)
        trace = make_run(
            prob, wd.DecreasingSqrt(), perm_policy=wd.ShuffledPerEpoch(3), epochs=5
        )
        for K in range(trace.epochs_completed):
            assert sorted(trace.index[K].tolist()) == list(range(7))

    def test_adversarial_order_follows_probe(self):
        for kind in PROBLEM_KINDS:
            prob = wd.make_problem(kind, 5, 2, 11)
            trace = make_run(
                prob, wd.Constant(0.1), perm_policy=wd.AdversarialMaxNorm(), epochs=2
            )
            calls = []
            counted = counting_directions(prob, calls)
            for K in range(trace.epochs_completed):
                norms = [
                    np.linalg.norm(c.direction(trace.xs[K])) for c in prob.components
                ]
                expected = np.argsort(-np.asarray(norms), kind="stable")
                probe = counted.direction_norms(trace.xs[K])
                # the vectorized norms reorder the arithmetic: a few ulps of 1e-16
                np.testing.assert_allclose(probe, norms, rtol=1e-12, atol=0)
                assert np.argsort(-probe, kind="stable").tolist() == expected.tolist()
                assert trace.index[K].tolist() == expected.tolist()
            # relu_net has no vectorized norms: its row kernel answers the probe
            assert len(calls) == 0, kind

    def test_median_probe_ties_are_exact(self):
        # components 0, 1 and 3 sit at x: norm 0.0; component 2 has norm 1.0
        prob = wd.median_problem([[0.0, 1.0], [0.0, 1.0], [2.0, 2.0], [0.0, 1.0]])
        for x in ([0.0, 1.0], [1.0, 1.5], [5.0, 5.0]):
            x = np.array(x)
            norms = prob.direction_norms(x)
            expected = [np.linalg.norm(c.direction(x)) for c in prob.components]
            assert set(norms.tolist()) <= {0.0, 1.0}
            assert norms.tolist() == expected
            assert wd.permutation(wd.AdversarialMaxNorm(), 0, 4, probe=norms).tolist() == (
                np.argsort(-np.asarray(expected), kind="stable").tolist()
            )
        # the row kernel's norms are |sign(x - b_i)| at the first maximizing
        # coordinate bit for bit, at b_i and at non-finite entries too
        B = prob.kind.data
        for x in (*B, [0.0, np.nan], [np.nan, 1.0], [np.inf, 1.0], [-np.inf, np.inf], [-0.0, 1.0]):
            dev = np.asarray(x) - B
            j = np.argmax(np.abs(dev), axis=1)
            first_max_sign = np.abs(np.sign(dev[np.arange(4), j]))
            assert prob.direction_norms(np.asarray(x)).tobytes() == first_max_sign.tobytes()


class TestRun:
    def test_bitwise_determinism(self, tmp_path):
        prob = wd.make_problem("logistic", 6, 3, 5)
        traces = []
        for rep in range(2):
            trace = make_run(
                prob,
                wd.Adaptive.recommended(6),
                eval_policy=wd.DelayedAsync(2, 13),
                perm_policy=wd.ShuffledPerEpoch(17),
                epochs=12,
            )
            path = tmp_path / f"t{rep}.txt"
            wd.save_trace(trace, path)
            traces.append(path.read_bytes())
        assert traces[0] == traces[1]

    @pytest.mark.parametrize(
        "policy",
        [wd.Incremental(), wd.DelayedAsync(3, 2), wd.ConvexMix(5)],
        ids=["incremental", "delayed_async", "convex_mix"],
    )
    def test_eval_support_called_once_per_epoch(self, monkeypatch, tmp_path, policy):
        calls = []
        real = wd.engine.eval_support
        monkeypatch.setattr(wd.engine, "eval_support", lambda *a: calls.append(a[1:]) or real(*a))
        prob = wd.make_problem("logistic", 5, 2, 4)
        trace = make_run(prob, wd.Constant(0.3), eval_policy=policy, epochs=7)
        assert calls == [(K, 5) for K in range(7)]
        wd.save_trace(trace, tmp_path / "trace.txt")
        calls.clear()
        loaded = wd.load_trace(tmp_path / "trace.txt")
        assert calls == []  # the load derives z alone; zhat waits for its first read
        loaded.zhat
        assert calls == [(K, 5) for K in range(7)]

    def test_convex_mix_builds_one_generator_per_epoch(self, monkeypatch, tmp_path):
        # the epoch's weights come from one Generator, reseeded for each step
        calls = []
        real = wd.schedules.counter_rng
        monkeypatch.setattr(wd.schedules, "counter_rng", lambda *key: calls.append(key) or real(*key))
        prob = wd.make_problem("logistic", 6, 2, 4)
        trace = make_run(prob, wd.Constant(0.3), eval_policy=wd.ConvexMix(5), epochs=7)
        assert calls == [(5, 2, K, 1) for K in range(7)]
        wd.save_trace(trace, tmp_path / "trace.txt")
        calls.clear()
        loaded = wd.load_trace(tmp_path / "trace.txt")
        assert calls == []  # the load derives z alone; zhat waits for its first read
        loaded.zhat
        assert calls == [(5, 2, K, 1) for K in range(7)]

    def test_replay_of_a_loaded_convex_mix_record_draws_its_weights_once(self, monkeypatch, tmp_path):
        # the record check's hull points become the trace's zhat: no second draw
        prob = wd.make_problem("logistic", 6, 2, 4)
        trace = make_run(prob, wd.Constant(0.3), eval_policy=wd.ConvexMix(5), epochs=7)
        expected = trace.zhat.tobytes()
        wd.save_trace(trace, tmp_path / "trace.txt")
        calls = []
        real = wd.schedules.counter_rng
        monkeypatch.setattr(wd.schedules, "counter_rng", lambda *key: calls.append(key) or real(*key))
        loaded = wd.load_trace(tmp_path / "trace.txt")
        assert wd.replay(loaded).ok
        assert calls == [(5, 2, K, 1) for K in range(7)]
        assert loaded.zhat.tobytes() == expected
        assert calls == [(5, 2, K, 1) for K in range(7)]

    @pytest.mark.parametrize("max_delay", [0, 2, 8, 2**31])
    def test_delayed_async_zhat_is_the_drawn_iterate(self, max_delay):
        n, seed = 9, 5
        prob = wd.make_problem("logistic", n, 3, 6)
        trace = make_run(
            prob,
            wd.Adaptive.recommended(n),
            eval_policy=wd.DelayedAsync(max_delay, seed),
            perm_policy=wd.ShuffledPerEpoch(1),
            epochs=6,
            x0=np.full(3, 0.4),
        )
        for K in range(6):
            zs = np.vstack([trace.xs[K], trace.z[K]])
            for i in range(1, n + 1):
                delay = int(wd.counter_rng(seed, 1, K, i).integers(0, max_delay + 1))
                j = max(0, i - 1 - delay)
                assert np.array_equal(trace.zhat[K, i - 1], zs[j])

    def test_constant_half_over_l_monotone_after_first_epoch(self, logistic32):
        # regression on the seeded instance, not a theorem
        trace = make_run(
            logistic32,
            wd.Constant(0.5 / logistic32.L),
            epochs=200,
            record_level="epoch_only",
        )
        diffs = np.diff(trace.f_vals[1:])
        assert np.max(diffs) <= 1e-9

    def test_full_gradient_descent_lemma_regime(self, logistic32):
        trace = make_run(
            logistic32,
            wd.Constant(1.0 / logistic32.L),
            eval_policy=wd.FullGradient(),
            epochs=60,
            record_level="epoch_only",
        )
        assert np.max(np.diff(trace.f_vals)) <= 0.0

    def test_step_length_bound_holds_on_runs(self):
        prob = wd.make_problem("sigmoid_nonconvex", 9, 3, 2)
        trace = make_run(prob, wd.Adaptive.recommended(9), eval_policy=wd.ConvexMix(5), epochs=30)
        assert wd.check_step_length_bound_trace(trace).ok

    def test_abort_reports_offending_step(self):
        # one epoch survives (|z| ~ 1e100), the next overflows in ||d||^2
        prob = exploding_problem(scale=1e100)
        cfg = wd.RunConfig(
            problem=prob,
            strategy=wd.Constant(1.0),
            eval_policy=wd.Incremental(),
            perm_policy=wd.Identity(),
            x0=np.array([1.0]),
            epochs=10,
            track_objective=False,
        )
        with np.errstate(over="ignore"):
            trace = wd.run(cfg)
        assert trace.aborted_at == (1, 1)
        assert trace.epochs_completed == 1  # partial trace retained

    @pytest.mark.parametrize("record_level", ["full", "epoch_only"])
    @pytest.mark.parametrize("case", sorted(ABORT_PINS))
    def test_abort_location_pinned(self, case, record_level):
        with np.errstate(over="ignore", invalid="ignore"):
            trace = wd.run(overflow_config(case, record_level))
        assert (trace.aborted_at, trace.epochs_completed) == ABORT_PINS[case]

    def test_abort_where_component_values_sum_past_the_float_range(self, tmp_path, capsys):
        # relu_net's F is the fsum of its component values, here inf, 1e308,
        # 1e308 and inf at x_0: the partial sum 2e308 overflows, and the run
        # still records its abort, with F(x_0) the signed infinity of the sum
        problem = wd.make_problem("relu_net", 4, 2, 5)
        x0 = np.full(problem.p, -1e308)
        x0[0] = -0.0
        cfg = wd.RunConfig(problem, wd.Constant(1e308), wd.Incremental(), wd.Identity(), x0, 3)
        with np.errstate(all="ignore"):
            trace = wd.run(cfg)
        assert trace.aborted_at == (0, 1) and trace.f_vals.tolist() == [math.inf]
        wd.save_trace(trace, tmp_path / "trace.txt")
        assert wd.load_trace(tmp_path / "trace.txt").aborted_at == (0, 1)
        assert main(["report", "--trace", str(tmp_path / "trace.txt")]) == 0
        assert "final F: inf" in capsys.readouterr().out.splitlines()
        # finite terms whose partial sums overflow: the exact sum, rounded
        # once, or its signed infinity; a sum that fits keeps fsum's bits
        fsum = problems._fsum
        assert fsum([1e308, 1e308, -1e308]) == 1e308
        assert fsum([-1e308, -1e308, 5.0]) == -math.inf and fsum([1e308, 1e308]) == math.inf
        assert fsum([1e308, 1e308, -math.inf]) == -math.inf
        assert fsum([0.1, 0.2, 1e-300]) == math.fsum([0.1, 0.2, 1e-300])

    def test_box_monitor_flags_exit(self):
        prob = wd.make_problem("logistic", 4, 2, 9)
        cfg = wd.RunConfig(
            problem=prob,
            strategy=wd.Constant(5.0),
            eval_policy=wd.Incremental(),
            perm_policy=wd.Identity(),
            x0=np.zeros(2),
            epochs=40,
            record_level="epoch_only",
            monitor_radius=0.5,
        )
        trace = wd.run(cfg)
        assert trace.bound_exceeded_at is not None
        k = trace.bound_exceeded_at
        assert np.max(np.abs(trace.xs[k])) > 0.5

    def test_adaptive_alpha_recomputable_from_dnorm2(self):
        prob = wd.make_problem("logistic", 5, 2, 21)
        s = wd.Adaptive(delta=4.0, beta=1.5)
        trace = make_run(prob, s, epochs=15)
        v = s.delta
        for K in range(trace.epochs_completed):
            for v_rec, alpha, dnorm2 in zip(trace.v[K].tolist(), trace.alpha[K].tolist(), trace.dnorm2[K].tolist()):
                v = v + s.beta * dnorm2
                assert v_rec == v
                assert alpha == v ** (-1.0 / 3.0)

    def test_epoch_only_skips_inner_records(self):
        prob = wd.make_problem("logistic", 4, 2, 7)
        trace = make_run(prob, wd.DecreasingSqrt(), epochs=6, record_level="epoch_only")
        assert all(getattr(trace, f) is None for f in INNER_FIELDS)
        assert len(trace.xs) == 7
        assert len(trace.alpha_sum) == 6


class TestReplay:
    def test_fresh_trace_replays(self):
        prob = wd.make_problem("logistic", 6, 3, 8)
        trace = make_run(
            prob,
            wd.Adaptive.recommended(6),
            eval_policy=wd.ConvexMix(3),
            perm_policy=wd.ShuffledPerEpoch(4),
            epochs=10,
        )
        assert wd.replay(trace).ok

    def test_perturbed_alpha_detected_at_position(self):
        prob = wd.make_problem("logistic", 4, 2, 8)
        trace = make_run(prob, wd.DecreasingSqrt(), epochs=6)
        trace.alpha[3][1] *= 1.0 + 1e-12
        rep = wd.replay(trace)
        assert not rep.ok
        assert rep.first_mismatch == (3, 2, "alpha")

    @pytest.mark.parametrize("level", ["full", "epoch_only"])
    def test_rerun_compares_bits(self, level):
        # -0.0 == 0.0, but the record's x_0 is not the config's: the check and
        # the re-run both compare bits
        prob = wd.make_problem("logistic", 4, 2, 8)
        trace = make_run(prob, wd.DecreasingSqrt(), epochs=3, record_level=level)
        trace.xs[0, 0] = -0.0
        assert wd.replay(trace) == wd.ReplayReport(False, (0, 0, "xs"))

    @pytest.mark.parametrize("field", ["alpha_first", "alpha_last", "alpha_sum", "v_end"])
    def test_corrupted_epoch_summary_detected(self, field):
        prob = wd.make_problem("logistic", 4, 2, 8)
        trace = make_run(prob, wd.Adaptive.recommended(4), epochs=6)
        getattr(trace, field)[2] *= 1.0 + 1e-12
        rep = wd.replay(trace)
        assert not rep.ok
        assert rep.first_mismatch == (2, 4, field)

    def test_round_trip_through_file(self, tmp_path):
        prob = wd.make_problem("logistic", 5, 2, 31)
        trace = make_run(
            prob,
            wd.Adaptive.recommended(5),
            eval_policy=wd.DelayedAsync(2, 6),
            perm_policy=wd.ShuffledPerEpoch(2),
            epochs=8,
        )
        path = tmp_path / "trace.txt"
        wd.save_trace(trace, path)
        loaded = wd.load_trace(path)
        assert wd.replay(loaded).ok
        wd.save_trace(loaded, tmp_path / "resaved.txt")
        assert path.read_bytes() == (tmp_path / "resaved.txt").read_bytes()

    def test_zhat_reconstructs_bitwise_from_weights(self):
        prob = wd.make_problem("logistic", 6, 3, 12)
        policy = wd.ConvexMix(7)
        trace = make_run(prob, wd.Constant(0.4), eval_policy=policy, epochs=5)
        for K in range(trace.epochs_completed):
            zs = [trace.xs[K]] + list(trace.z[K])
            for i, zhat in enumerate(trace.zhat[K], start=1):
                weights = wd.eval_point(policy, K, i)
                assert np.array_equal(wd.hull_point(weights, zs[:i]), zhat)

    @pytest.mark.parametrize("kind, n, p", [("logistic", 40, 3), ("relu_net", 12, 2), ("median", 7, 2)])
    def test_convex_mix_zhat_is_the_cumulative_sum(self, kind, n, p):
        # each step's evaluation point, as the direction oracle receives it
        # at either record level and as a full record holds it, has the bits
        # of the cumulative-sum hull point of eval_point's weights over
        # z_{K,0..i-1}
        prob = wd.make_problem(kind, n, p, 4)
        policy = wd.ConvexMix(9)
        x0 = np.random.default_rng(4).standard_normal(prob.p)
        x0[0] = -0.0  # zhat_{0,0} = x_0 keeps its sign of zero
        full = make_run(prob, wd.Adaptive.recommended(n), eval_policy=policy, epochs=3, x0=x0)
        expected = []
        for K in range(full.epochs_completed):
            zs = np.concatenate([full.xs[K : K + 1], full.z[K]])
            for i in range(1, n + 1):
                expected.append(reference_hull_point(wd.eval_point(policy, K, i), zs[:i]))
        assert np.concatenate(full.zhat).tobytes() == np.array(expected).tobytes()
        for level in ("full", "epoch_only"):
            queried = []
            comps = tuple(
                dataclasses.replace(c, direction=lambda x, f=c.direction: queried.append(x.copy()) or f(x))
                for c in prob.components
            )
            recorded = dataclasses.replace(prob, components=comps)
            trace = make_run(recorded, wd.Adaptive.recommended(n), eval_policy=policy, epochs=3,
                             record_level=level, x0=x0, track_objective=False)
            assert trace.xs.tobytes() == full.xs.tobytes()
            assert np.array(queried).tobytes() == np.array(expected).tobytes(), level

    def test_epoch_only_trace_replays(self):
        prob = wd.make_problem("logistic", 4, 2, 3)
        trace = make_run(prob, wd.Constant(0.2), epochs=3, record_level="epoch_only")
        assert wd.replay(trace).ok

    @pytest.mark.parametrize(
        "field, row, where",
        [
            ("f_vals", 3, (2, 4, "f_vals")),
            ("grad_sq", 2, (1, 4, "grad_sq")),
            ("xs", 4, (3, 4, "xs")),
            ("f_vals", 0, (0, 0, "f_vals")),
            ("xs", 0, (0, 0, "xs")),
        ],
    )
    @pytest.mark.parametrize("level", ["full", "epoch_only"])
    def test_corrupted_node_series_detected(self, field, row, where, level):
        prob = wd.make_problem("logistic", 4, 2, 8)
        trace = make_run(prob, wd.Adaptive.recommended(4), epochs=6, record_level=level)
        getattr(trace, field)[row] += 1.0
        rep = wd.replay(trace)
        assert not rep.ok
        assert rep.first_mismatch == where

    def test_first_mismatch_in_run_order(self):
        # corrupt values latest first in run order; each one comes earlier
        # than those before it and is the one reported
        prob = wd.make_problem("logistic", 4, 2, 8)
        trace = make_run(prob, wd.Adaptive.recommended(4), epochs=6)
        at_epoch_end = [
            ("v_end", 2, (2, 4)),
            ("alpha_sum", 2, (2, 4)),
            ("alpha_last", 2, (2, 4)),
            ("alpha_first", 2, (2, 4)),
            ("grad_sq", 3, (2, 4)),
            ("f_vals", 3, (2, 4)),
            ("xs", 3, (2, 4)),
        ]
        at_step_n = [(name, (2, 3), (2, 4)) for name in reversed(INNER_FIELDS)]
        earlier = [("alpha", (2, 0), (2, 1)), ("v_end", 1, (1, 4)), ("f_vals", 0, (0, 0))]
        for name, at, where in at_epoch_end + at_step_n + earlier:
            getattr(trace, name)[at] += 1
            assert wd.replay(trace).first_mismatch == where + (name,)

    def test_corrupted_abort_detected(self):
        cfg = wd.RunConfig(
            problem=exploding_problem(scale=1e100),
            strategy=wd.Constant(1.0),
            eval_policy=wd.Incremental(),
            perm_policy=wd.Identity(),
            x0=np.array([1.0]),
            epochs=10,
            track_objective=False,
        )
        with np.errstate(over="ignore"):
            trace = wd.run(cfg)
            assert wd.replay(trace).ok
            trace.aborted_at = None
            rep = wd.replay(trace)
        assert rep.first_mismatch == (1, 1, "aborted_at")

    def test_trace_cut_short_reported_at_its_abort(self):
        # a full run made to look aborted: its arrays cover 3 epochs
        prob = wd.make_problem("logistic", 4, 2, 8)
        trace = make_run(prob, wd.DecreasingSqrt(), epochs=6)
        for name in ("xs", "f_vals", "grad_sq"):
            setattr(trace, name, getattr(trace, name)[:4])
        for name in ("alpha_first", "alpha_last", "alpha_sum", "v_end") + INNER_FIELDS:
            setattr(trace, name, getattr(trace, name)[:3])
        trace.aborted_at = (3, 2)
        assert wd.replay(trace).first_mismatch == (3, 2, "aborted_at")

    @pytest.mark.parametrize("level, where", [("full", (3, 1, "index")), ("epoch_only", (3, 4, "xs"))])
    def test_trace_cut_short_without_an_abort_is_a_mismatch(self, level, where):
        # no abort explains the missing epochs: the first one is the mismatch
        prob = wd.make_problem("logistic", 4, 2, 8)
        trace = make_run(prob, wd.DecreasingSqrt(), epochs=6, record_level=level)
        for name in NODE_SERIES + EPOCH_SERIES + INNER_FIELDS:
            if getattr(trace, name) is not None:
                setattr(trace, name, getattr(trace, name)[: 4 if name in NODE_SERIES else 3])
        assert trace.aborted_at is None
        assert wd.replay(trace) == wd.ReplayReport(False, where)

    @pytest.mark.parametrize("level, where", [("full", (4, 1, "index")), ("epoch_only", (4, 4, "xs"))])
    def test_record_of_more_epochs_than_its_config_is_a_mismatch(self, level, where):
        prob = wd.make_problem("logistic", 4, 2, 8)
        trace = make_run(prob, wd.DecreasingSqrt(), epochs=6, record_level=level)
        trace.config = dataclasses.replace(trace.config, epochs=4)
        assert wd.replay(trace) == wd.ReplayReport(False, where)

    def test_corrupted_box_exit_detected(self):
        cfg = wd.RunConfig(
            problem=wd.make_problem("logistic", 4, 2, 9),
            strategy=wd.Constant(5.0),
            eval_policy=wd.Incremental(),
            perm_policy=wd.Identity(),
            x0=np.zeros(2),
            epochs=40,
            record_level="epoch_only",
            monitor_radius=0.5,
        )
        trace = wd.run(cfg)
        k = trace.bound_exceeded_at
        assert wd.replay(trace).ok
        trace.bound_exceeded_at = None
        assert wd.replay(trace).first_mismatch == (k - 1, 4, "bound_exceeded_at")


EVAL_CASES = [
    wd.FullGradient(),
    wd.Incremental(),
    wd.MiniBatch(2),
    wd.DelayedAsync(2, 3),
    wd.ConvexMix(5),
]
PERM_CASES = [
    wd.Identity(),
    wd.FixedPermutation([2, 0, 3, 1]),
    wd.ShuffledPerEpoch(4),
    wd.AdversarialMaxNorm(),
]
# column of a trace section's rows -> the RunTrace array it is read into; the
# index of an inner step is stored in #INDEX, the rest of the step in #INNER
INNER_COLUMNS = ["index", "alpha", "dnorm2", "v", "d", "d"]
NODE_COLUMNS = ["xs", "xs", "f_vals", "grad_sq"]
EPOCH_COLUMNS = ["alpha_first", "alpha_last", "alpha_sum", "v_end"]


def first_moved_epoch_end(xs, alpha, d):
    """First K whose z_{K,n}, stepped from x_K one update at a time, is not x_{K+1}."""
    for K in range(len(alpha)):
        z = xs[K]
        for a, dk in zip(alpha[K], d[K]):
            z = z - a * dk
        if not np.array_equal(z, xs[K + 1]):
            return K
    return None


class TestTraceFileProperty:
    def test_cases_cover_every_policy(self):
        assert {type(c) for c in EVAL_CASES} == set(VARIANT_SECTIONS["eval_policy"].values())
        assert {type(c) for c in PERM_CASES} == set(VARIANT_SECTIONS["perm_policy"].values())

    @pytest.mark.parametrize("eval_policy", EVAL_CASES, ids=lambda c: c.VARIANT)
    @pytest.mark.parametrize("perm_policy", PERM_CASES, ids=lambda c: c.VARIANT)
    @given(level=st.sampled_from(["full", "epoch_only"]), adaptive=st.booleans(), data=st.data())
    @settings(max_examples=8)
    def test_round_trip_replay_and_located_perturbation(
        self, eval_policy, perm_policy, level, adaptive, data
    ):
        prob = wd.make_problem("logistic", 4, 2, 6)
        strategy = wd.Adaptive.recommended(4) if adaptive else wd.DecreasingSqrt()
        trace = make_run(prob, strategy, eval_policy, perm_policy, epochs=3, record_level=level)

        # one stored value: inner step (K, i) -> (K, i), #NODES row of x_K ->
        # (K-1, n) or (0, 0) for x_0, #EPOCHS row K -> (K, n); a value that
        # moves a derived z_{K,n} is reported by load_trace instead
        sections = ["#NODES", "#EPOCHS"] + (["#INNER"] if level == "full" else [])
        section = data.draw(st.sampled_from(sections), label="section")
        K = data.draw(st.integers(0, 3 if section == "#NODES" else 2), label="K")
        if section == "#INNER":
            i = data.draw(st.integers(1, 4), label="i")
            row, columns, where = K * prob.n + i - 1, INNER_COLUMNS, (K, i)
        elif section == "#NODES":
            row, columns = K, NODE_COLUMNS
            where = (K - 1, prob.n) if K else (0, 0)
        else:
            row, columns, where = K, EPOCH_COLUMNS, (K, prob.n)
        column = data.draw(st.integers(0, len(columns) - 1), label="column")
        name = columns[column]

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.txt"
            wd.save_trace(trace, path)
            blob = path.read_bytes()
            loaded = wd.load_trace(path)
            wd.save_trace(loaded, path)
            assert path.read_bytes() == blob
            assert wd.replay(loaded).ok

            target = "#INDEX" if name == "index" else section
            if name == "index":
                stored = decode_payload(section_payload(blob, target), "<i8")
                stored[row] = (stored[row] + 1) % prob.n
            else:
                skip = section == "#INNER"  # #INNER holds no index column
                stored = decode_payload(section_payload(blob, target)).reshape(-1, len(columns) - skip)
                value = stored[row, column - skip]
                value = stored[row, column - skip] = 1.0 if math.isnan(value) else np.nextafter(value, np.inf)
            path.write_bytes(with_payload(blob, target, encode_payload(stored)))

            moved = None
            if level == "full" and name in ("alpha", "d", "xs"):
                stored = {"xs": trace.xs.copy(), "alpha": trace.alpha.copy(), "d": trace.d.copy()}
                if name == "xs":
                    stored["xs"][K, column] = value
                elif name == "alpha":
                    stored["alpha"][K, i - 1] = value
                else:
                    stored["d"][K, i - 1, column - 4] = value
                moved = first_moved_epoch_end(**stored)
            if moved is not None:
                pattern = rf"^#INNER {moved}: .* \(#NODES row {moved + 2}\)$"
                with pytest.raises(ValueError, match=pattern):
                    wd.load_trace(path)
                return
            rep = wd.replay(wd.load_trace(path))
        assert not rep.ok
        assert rep.first_mismatch == where + (name,)


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
@given(eval_policy=st.sampled_from(EVAL_CASES), perm_policy=st.sampled_from(PERM_CASES), adaptive=st.booleans())
@settings(max_examples=10)
def test_every_zoo_kind_round_trips_through_file(kind, eval_policy, perm_policy, adaptive):
    # the #DATA matrix and the header rebuild each kind exactly; at either
    # record level, whole or aborted at K = 0 (sections of zero rows), every
    # loaded array has the run's bits (NaN and -0.0 included) and is
    # writable, and save -> load -> save writes the same bytes
    prob = wd.make_problem(kind, 4, 2, 13)
    strategy = wd.Adaptive.recommended(4) if adaptive else wd.DecreasingSqrt()
    for level in ("full", "epoch_only"):
        for abort in (False, True):
            x0 = np.full(prob.p, 0.2)
            x0[0] = -0.0
            if abort:
                x0[1] = math.inf  # z_{0,1} is not finite
            config = wd.RunConfig(prob, strategy, eval_policy, perm_policy, x0, 3, record_level=level)
            with np.errstate(all="ignore"):
                trace = wd.run(config)
            assert (trace.aborted_at is not None and trace.aborted_at[0] == 0) == abort
            with tempfile.TemporaryDirectory() as tmp:
                path, resaved = Path(tmp) / "trace.txt", Path(tmp) / "resaved.txt"
                wd.save_trace(trace, path)
                loaded = wd.load_trace(path)
                wd.save_trace(loaded, resaved)
                assert resaved.read_bytes() == path.read_bytes()
            assert type(loaded.problem.kind) is type(prob.kind)
            assert loaded.problem.kind.data.tobytes() == prob.kind.data.tobytes()
            assert (loaded.aborted_at, loaded.bound_exceeded_at) == (trace.aborted_at, trace.bound_exceeded_at)
            for name in NODE_SERIES + EPOCH_SERIES + ("index", "alpha", "dnorm2", "v", "d", "z"):
                new, old = getattr(loaded, name), getattr(trace, name)
                if old is None:
                    assert new is None, name
                    continue
                assert (new.dtype, new.shape) == (old.dtype, old.shape), name
                assert new.tobytes() == old.tobytes(), name
                assert new.flags.writeable, name
            if not abort:
                assert wd.replay(loaded).ok


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_a_loaded_problem_has_the_constants_of_the_saved_one(tmp_path, kind):
    # every constant is the kind's, so the header and #DATA give them all back
    prob = wd.make_problem(kind, 5, 1, 7)
    trace = make_run(prob, wd.DecreasingSqrt(), epochs=2)
    wd.save_trace(trace, tmp_path / "trace.txt")
    loaded = wd.load_trace(tmp_path / "trace.txt").problem
    assert (loaded.n, loaded.p, loaded.M.hex()) == (prob.n, prob.p, prob.M.hex())
    assert (loaded.L and loaded.L.hex()) == (prob.L and prob.L.hex())
    names = ("f_star_lower", "known_solution", "box_radius")
    assert [getattr(loaded, name) for name in names] == [getattr(prob, name) for name in names]


RULES = ("constant", "decreasing_sqrt", "decreasing_cbrt", "adaptive")


def rule_strategy(rule: str, problem):
    n = problem.n
    if rule == "constant":
        return wd.Constant(0.5 / problem.L if problem.is_smooth else 0.1)
    if rule == "decreasing_sqrt":
        return wd.DecreasingSqrt()
    if rule == "decreasing_cbrt":
        return wd.DecreasingCbrtWithL(problem.L or 1.0)
    return wd.Adaptive.recommended(n)


def perm_case(variant: str, n: int):
    return {
        "identity": wd.Identity(),
        "fixed": wd.FixedPermutation(np.random.default_rng(n).permutation(n).tolist()),
        "shuffled": wd.ShuffledPerEpoch(4),
        "adversarial": wd.AdversarialMaxNorm(),
    }[variant]


def rerun_report(trace) -> wd.ReplayReport:
    """replay's report from re-running the config, the record check left out."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_check_record", lambda trace: False)
        return wd.replay(trace)


def assert_replays_as_its_rerun(trace) -> None:
    # the check turns the record down, and replay reports what the re-run does
    assert not engine._check_record(trace)
    with np.errstate(over="ignore"):
        assert wd.replay(trace) == rerun_report(trace)


# records that one comparison of the check alone turns down: each is made by
# an engine changed at one place, or its config or one value is changed
# after the run, so that every other recorded value is the step of its
# recorded inputs
SOLE_CASES = [
    "x0", "epochs_completed", "index", "zhat", "d", "dnorm2", "prescribed_alpha", "adaptive_alpha", "v", "z",
    "x_next", "infinite_dnorm2", "infinite_x", "bound_exceeded_at", "aborted_at",
]
OTHER_CASES = ["epochs", "cut_short", "cut_short_at_its_abort", "aborted", "index_out_of_range", "nan_d"]


def reference_run(config) -> dict:
    """The recursion of the engine's module docstring, one step at a time,
    as {RunTrace field: array}.

    Per epoch K the query order (probing x_K for an adversarial one); per
    step i the policy's point zhat_{K,i-1} (z_{K,j} for its support j, else
    the cumulative sum of eval_point's weights over z_{K,0..i-1}), d =
    components[idx].direction(zhat), ||d||^2 = d.dot(d), (v, alpha) =
    step_value of the accumulator v carried from step to step, and z_{K,i}
    = z_{K,i-1} - alpha * d.  The run aborts at the first step
    whose ||d||^2 or z_{K,i} is not finite, keeping the completed epochs.
    Epoch series from the steps (alpha_sum added from 0.0 in step order),
    node series from one full_value and full_direction call per node.
    """
    problem, strategy, policy, perm = config.problem, config.strategy, config.eval_policy, config.perm_policy
    n = problem.n
    v = strategy.delta if isinstance(strategy, wd.Adaptive) else math.nan  # the accumulator, carried across epochs
    xs, epochs, steps, aborted = [config.x0.copy()], [], [], None
    for K in range(config.epochs):
        probe = problem.direction_norms(xs[K]) if perm.needs_probe else None
        support = wd.eval_support(policy, K, n)
        zs, rows = [xs[K]], []
        for i, idx in enumerate(wd.permutation(perm, K, n, probe=probe).tolist(), start=1):
            j = support[i - 1]
            zhat = zs[j] if j is not None else reference_hull_point(wd.eval_point(policy, K, i), zs)
            d = problem.components[idx].direction(zhat)
            dnorm2 = float(d.dot(d))
            if not math.isfinite(dnorm2):
                aborted = (K, i)
                break
            v, alpha = wd.step_value(strategy, K, n, v, dnorm2)
            zs.append(zs[-1] - alpha * d)
            if not np.isfinite(zs[-1]).all():
                aborted = (K, i)
                break
            rows.append((idx, zhat, d, dnorm2, alpha, zs[-1], v))
        if aborted:
            break
        alpha_sum = 0.0
        for row in rows:
            alpha_sum += row[4]
        epochs.append((rows[0][4], rows[-1][4], alpha_sum, rows[-1][6]))
        steps.append(rows)
        xs.append(zs[-1])
    out = {"xs": np.array(xs), "aborted_at": aborted}
    if config.track_objective:
        grads = [problem.full_direction(x) for x in xs]
        out["f_vals"] = np.array([problem.full_value(x) for x in xs])
        out["grad_sq"] = np.array([float(g @ g) for g in grads])
    for name, column in zip(EPOCH_SERIES, zip(*epochs) if epochs else [()] * 4):
        out[name] = np.array(column, dtype=float)
    if config.record_level == "full":
        for k, name in enumerate(("index", "zhat", "d", "dnorm2", "alpha", "z", "v")):
            out[name] = np.array([[row[k] for row in rows] for rows in steps]).reshape(
                (len(steps), n) + ((problem.p,) if name in ("zhat", "d", "z") else ())
            )
    radius = config.monitor_radius
    outside = [k for k, x in enumerate(xs) if radius is not None and np.max(np.abs(x)) > radius]
    out["bound_exceeded_at"] = outside[0] if outside else None
    return out


def assert_run_is_the_reference(config) -> None:
    with np.errstate(all="ignore"):
        trace, ref = wd.run(config), reference_run(config)
    assert (trace.aborted_at, trace.bound_exceeded_at) == (ref["aborted_at"], ref["bound_exceeded_at"])
    for name in NODE_SERIES + EPOCH_SERIES + INNER_FIELDS:
        new = getattr(trace, name)
        if name not in ref:  # the inner steps at the epoch_only level, or an untracked objective
            assert new is None or np.isnan(new).all(), name
            continue
        assert new.shape == ref[name].shape, name
        assert new.tobytes() == ref[name].astype(new.dtype).tobytes(), name


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
@pytest.mark.parametrize("eval_policy", EVAL_CASES, ids=lambda c: c.VARIANT)
@given(
    perm=st.sampled_from(["identity", "fixed", "shuffled", "adversarial"]),
    rule=st.sampled_from(RULES + ("constant_1e308",)),
    level=st.sampled_from(["full", "epoch_only"]),
    shape=st.sampled_from([(1, 3), (4, 2), (7, 5), (3, EPOCH_BLOCK + 2)]),
    seed=st.integers(0, 1000),
    radius=st.sampled_from([None, 0.2]),
)
@settings(max_examples=6, deadline=None)
def test_run_is_the_reference_recursion(kind, eval_policy, perm, rule, level, shape, seed, radius):
    # every array of a run, at both record levels, has the bits of the
    # per-step loop; a constant step of 1e308 overflows some runs, which
    # then abort where the loop does
    n, epochs = shape
    problem = wd.make_problem(kind, n, 2, seed)
    strategy = wd.Constant(1e308) if rule == "constant_1e308" else rule_strategy(rule, problem)
    config = wd.RunConfig(
        problem=problem,
        strategy=strategy,
        eval_policy=eval_policy,
        perm_policy=perm_case(perm, n),
        x0=0.3 * np.random.default_rng(seed).standard_normal(problem.p),
        epochs=epochs,
        record_level=level,
        monitor_radius=radius,
    )
    assert_run_is_the_reference(config)


@pytest.mark.parametrize("level", ["full", "epoch_only"])
@pytest.mark.parametrize("case", sorted(ABORT_PINS))
def test_overflowing_runs_are_the_reference_recursion(case, level):
    # an ||d||^2 that overflows, an iterate that overflows before the next
    # ||d||^2 does, and iterates whose entries stay finite though their sum
    # overflows, so the run goes on
    assert_run_is_the_reference(overflow_config(case, level))


class TestReplayCheck:
    @given(
        kind=st.sampled_from(PROBLEM_KINDS),
        eval_policy=st.sampled_from(EVAL_CASES),
        perm=st.sampled_from(["identity", "fixed", "shuffled", "adversarial"]),
        rule=st.sampled_from(RULES),
        shape=st.sampled_from([(1, 3), (7, 3), (7, EPOCH_BLOCK + 2), (300, 2)]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_fresh_record_replays_without_a_rerun(self, kind, eval_policy, perm, rule, shape, seed):
        # n = 7 puts epoch ends inside row chunks, n = 300 splits an epoch
        # across them; a zero start puts relu_net at its kinks
        n, epochs = shape
        problem = wd.make_problem(kind, n, 2, seed)
        x0 = np.zeros(problem.p) if seed % 2 else 0.3 * np.random.default_rng(seed).standard_normal(problem.p)
        trace = make_run(problem, rule_strategy(rule, problem), eval_policy, perm_case(perm, n), epochs=epochs, x0=x0)
        assert trace.aborted_at is None
        runs = []
        real_run = engine.run
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            mp.setattr(engine, "run", lambda config: runs.append(config) or real_run(config))
            assert wd.replay(trace).ok
            wd.save_trace(trace, Path(tmp) / "trace.txt")
            assert wd.replay(wd.load_trace(Path(tmp) / "trace.txt")).ok
        assert runs == []

    @pytest.mark.parametrize("name", INNER_FIELDS + NODE_SERIES + EPOCH_SERIES)
    @given(
        kind=st.sampled_from(PROBLEM_KINDS),
        eval_policy=st.sampled_from(EVAL_CASES),
        adaptive=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=6, deadline=None)
    def test_a_corrupted_value_replays_as_its_rerun(self, name, kind, eval_policy, adaptive, data):
        # one recorded value at a drawn position, one ulp up (NaN to 1.0) or,
        # for index, the next component, n at the last: out of range
        problem = wd.make_problem(kind, 5, 2, 3)
        strategy = wd.Adaptive.recommended(5) if adaptive else wd.DecreasingSqrt()
        x0 = np.full(problem.p, 0.2)
        trace = make_run(problem, strategy, eval_policy, wd.ShuffledPerEpoch(2), epochs=EPOCH_BLOCK + 3, x0=x0)
        assert engine._check_record(trace)
        array = getattr(trace, name)
        at = tuple(data.draw(st.integers(0, size - 1), label=f"axis {k}") for k, size in enumerate(array.shape))
        if name == "index":
            array[at] += 1
        else:
            array[at] = 1.0 if math.isnan(array[at]) else np.nextafter(array[at], np.inf)
        assert_replays_as_its_rerun(trace)

    @pytest.mark.parametrize("case", SOLE_CASES + OTHER_CASES)
    def test_a_record_not_of_its_config_replays_as_its_rerun(self, case):
        assert_replays_as_its_rerun(record_not_of_its_config(case))

    @pytest.mark.parametrize("eval_policy", EVAL_CASES, ids=lambda c: c.VARIANT)
    def test_the_check_keeps_its_points_and_compares_a_zhat_read_before(self, monkeypatch, eval_policy):
        prob = wd.make_problem("logistic", 5, 2, 3)

        def record():
            return make_run(prob, wd.DecreasingSqrt(), eval_policy, wd.ShuffledPerEpoch(2), epochs=4)

        expected = record().zhat
        trace = record()
        assert engine._check_record(trace)
        monkeypatch.setattr(engine, "_eval_points", lambda t: pytest.fail("zhat derived again"))
        assert trace.zhat.tobytes() == expected.tobytes()
        monkeypatch.undo()
        # a zhat read before the check, then altered, is compared and turned down
        read = record()
        read.zhat[2, 3, 1] = np.nextafter(read.zhat[2, 3, 1], np.inf)
        assert not engine._check_record(read)
        assigned = record()
        assigned.zhat = np.full_like(expected, 7.0)
        assert not engine._check_record(assigned)
        assert wd.replay(assigned) == wd.ReplayReport(False, (0, 1, "zhat"))


def reference_iterates(trace: wd.RunTrace) -> tuple:
    """z and zhat of a full record as the loader built them before zhat was
    derived on read: z one step i at a time across all epochs from
    z_{K,0} = x_K, then each epoch's points through the eval policy."""
    N, n = trace.alpha.shape
    zs = np.empty((N, n + 1, trace.problem.p))
    zs[:, 0] = trace.xs[:N]
    for i in range(n):
        zs[:, i + 1] = zs[:, i] - trace.alpha[:, i, None] * trace.d[:, i]
    policy = trace.config.eval_policy
    zhat = np.empty((N, n, trace.problem.p))
    for K in range(N):
        support = wd.eval_support(policy, K, n)
        if None in support:
            zhat[K] = wd.hull_point(engine._hull_weights(policy, K, n), zs[K, :n])
        else:
            zhat[K] = zs[K, support]
    return zs[:, 1:], zhat


@pytest.mark.parametrize("eval_policy", EVAL_CASES, ids=lambda c: c.VARIANT)
@given(
    kind=st.sampled_from(PROBLEM_KINDS),
    n=st.sampled_from([1, 5, 9]),
    growth=st.sampled_from([0.0, 1e6, 1e30]),
    seed=st.integers(0, 1000),
)
@settings(max_examples=12, deadline=None)
def test_loaded_z_and_read_zhat_have_the_bits_of_the_run(eval_policy, kind, n, growth, seed):
    # directions d(x) - growth * x make z grow geometrically, so that most
    # runs abort, and every run at growth 1e30; -0.0 in x_0 must reach
    # zhat_{0,0} with its sign
    problem = wd.make_problem(kind, n, 2, seed)
    queried = []
    comps = tuple(
        dataclasses.replace(
            c, direction=lambda x, f=c.direction: queried.append(x.copy()) or (f(x) - growth * x if growth else f(x))
        )
        for c in problem.components
    )
    x0 = 0.1 + np.random.default_rng(seed).random(problem.p)
    x0[0] = -0.0
    config = wd.RunConfig(
        problem=dataclasses.replace(problem, components=comps), strategy=wd.Constant(0.1),
        eval_policy=eval_policy, perm_policy=wd.ShuffledPerEpoch(seed), x0=x0, epochs=12, track_objective=False,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        trace = wd.run(config)
    N = trace.epochs_completed
    assert growth < 1e30 or trace.aborted_at is not None
    z, zhat = reference_iterates(trace)
    with tempfile.TemporaryDirectory() as tmp:
        wd.save_trace(trace, Path(tmp) / "trace.txt")
        loaded = wd.load_trace(Path(tmp) / "trace.txt")
    assert loaded.aborted_at == trace.aborted_at
    for record in (trace, loaded):
        assert record.z.tobytes() == z.tobytes()
        assert record.zhat.tobytes() == zhat.tobytes()
    # the points the direction oracles were queried at, in run order
    assert np.array(queried[: N * n]).tobytes() == zhat.tobytes()




def record_not_of_its_config(case: str) -> wd.RunTrace:
    problem = wd.make_problem("logistic", 5, 2, 3)
    prescribed = case in ("dnorm2", "prescribed_alpha")
    config = wd.RunConfig(
        problem=problem,
        strategy=wd.Constant(0.3) if prescribed else wd.Adaptive.recommended(5),
        eval_policy=wd.FullGradient() if case == "z" else wd.Incremental(),
        perm_policy=wd.ShuffledPerEpoch(2),
        x0=np.full(2, 0.2),
        epochs=4,
        monitor_radius=0.25 if case == "bound_exceeded_at" else None,
        track_objective=case != "x_next",
    )
    K, i = 2, 3  # the step changed
    run_config = config
    with pytest.MonkeyPatch.context() as mp:
        if case == "index":
            real_permutation = engine.permutation

            def swapped(policy, Ks, n, probe=None):
                orders = real_permutation(policy, Ks, n, probe)
                orders[K, [0, 1]] = orders[K, [1, 0]]
                return orders

            mp.setattr(engine, "permutation", swapped)
        elif case == "zhat":
            real_support = engine.eval_support
            mp.setattr(engine, "eval_support", lambda p, k, n: [0] * n if k == K else real_support(p, k, n))
        elif case == "d":
            first, *rest = problem.components
            nudged = dataclasses.replace(first, direction=lambda x, f=first.direction: np.nextafter(f(x), np.inf))
            run_config = dataclasses.replace(config, problem=dataclasses.replace(problem, components=(nudged, *rest)))
        elif case in ("adaptive_alpha", "v"):
            real_step = engine.step_value
            calls = collections.Counter()  # step_value calls per epoch: the j-th is step j

            def nudged_step(strategy, k, n, v, dnorm2):
                calls[k] += 1
                v, alpha = real_step(strategy, k, n, v, dnorm2)
                if (k, calls[k]) != (K, i):
                    return v, alpha
                if case == "v":
                    v = np.nextafter(v, np.inf)  # carried to the epoch's later steps
                    return v, strategy.step_size(v)
                return v, np.nextafter(alpha, np.inf)

            mp.setattr(engine, "step_value", nudged_step)
        elif case == "infinite_dnorm2":
            # ||d||^2 overflows while z stays finite; the run would abort at once
            config = wd.RunConfig(
                problem=formula_problem(1, 1, lambda x: 0.0, lambda x: 1e200 * x, 1.0), strategy=wd.Constant(1e-201),
                eval_policy=wd.Incremental(), perm_policy=wd.Identity(), x0=np.ones(1), epochs=3,
                track_objective=False,
            )
            run_config = config
            mp.setattr(math, "isfinite", lambda value: True)
        elif case == "infinite_x":
            config = wd.RunConfig(
                problem=formula_problem(1, 1, lambda x: 0.0, lambda x: np.zeros(1), 0.0), strategy=wd.Constant(0.5),
                eval_policy=wd.Incremental(), perm_policy=wd.Identity(), x0=np.ones(1), epochs=3,
                track_objective=False,
            )
            run_config = config
        elif case == "aborted":
            config = run_config = overflow_config("exploding", "full")
        with np.errstate(over="ignore"):
            trace = wd.run(run_config)
    trace.config = config
    if case == "x0":
        trace.config = dataclasses.replace(config, x0=np.nextafter(config.x0, np.inf))
    elif case == "epochs":
        trace.config = dataclasses.replace(config, epochs=config.epochs + 1)
    elif case == "epochs_completed":
        trace.alpha_sum = np.append(trace.alpha_sum, 0.0)  # one epoch more than the config runs
    elif case == "prescribed_alpha":
        trace.config = dataclasses.replace(config, strategy=wd.Constant(np.nextafter(0.3, 1.0)))
    elif case in ("dnorm2", "z"):
        getattr(trace, case)[K, i - 1] = np.nextafter(getattr(trace, case)[K, i - 1], np.inf)
    elif case == "x_next":
        trace.xs[-1] = np.nextafter(trace.xs[-1], np.inf)
    elif case == "infinite_x":
        trace.config = dataclasses.replace(config, x0=np.full(1, np.inf))
        for name in ("xs", "zhat", "z"):
            getattr(trace, name)[:] = np.inf
    elif case == "bound_exceeded_at":
        assert trace.bound_exceeded_at is not None
        trace.bound_exceeded_at += 1
    elif case == "aborted_at":
        trace.aborted_at = (K, i)
    elif case.startswith("cut_short"):
        for name in NODE_SERIES + EPOCH_SERIES + INNER_FIELDS:
            setattr(trace, name, getattr(trace, name)[: K + 1 if name in NODE_SERIES else K])
        trace.aborted_at = (K, i) if case == "cut_short_at_its_abort" else None
    elif case == "index_out_of_range":
        trace.index[K, i - 1] = problem.n
    elif case == "nan_d":
        trace.d[K, i - 1, 0] = math.nan
    return trace


class TestTraceHeader:
    def test_provenance_names_the_blas_kernel(self):
        # the kernel NumPy's bundled OpenBLAS selected, read through ctypes
        libs = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas*"))
        expected = "unknown"
        if libs:
            corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
            corename.argtypes = []
            corename.restype = ctypes.c_char_p
            expected = corename().decode()
        assert provenance()["blas_core"] == expected

    def test_provenance_and_config_hash_round_trip(self, tmp_path):
        prob = wd.make_problem("logistic", 4, 2, 8)
        trace = make_run(prob, wd.DecreasingSqrt(), epochs=3)
        assert trace.provenance == provenance()
        assert set(trace.provenance) == {"wrdescent", "numpy", "python", "blas", "blas_core"}
        # a trace made on another machine keeps its provenance through a load
        trace.provenance = dict(trace.provenance, numpy="1.0.0", blas="other 0.1", blas_core="Katmai")
        path = tmp_path / "trace.txt"
        wd.save_trace(trace, path)
        blob = path.read_bytes()
        header = json.loads(blob.partition(b"\n")[0])
        canonical = json.dumps(config_to_dict(trace.config), sort_keys=True, separators=(",", ":"))
        hashed = canonical.encode() + b"\n" + section_payload(blob, "#DATA")
        assert section_payload(blob, "#DATA") == prob.kind.data.tobytes()
        assert header["config_sha256"] == hashlib.sha256(hashed).hexdigest()
        assert header["provenance"] == trace.provenance
        loaded = wd.load_trace(path)
        assert loaded.provenance == trace.provenance
        wd.save_trace(loaded, tmp_path / "resaved.txt")
        assert (tmp_path / "resaved.txt").read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("aborted_at", [5, 1], "'aborted_at' must be null or [K, i], K in 0..4 and i in 1..4, got [5, 1]"),
        ("aborted_at", [-1, 1], "'aborted_at' must be null or [K, i], K in 0..4 and i in 1..4, got [-1, 1]"),
        ("aborted_at", [2, 0], "'aborted_at' must be null or [K, i], K in 0..4 and i in 1..4, got [2, 0]"),
        ("aborted_at", [2, 5], "'aborted_at' must be null or [K, i], K in 0..4 and i in 1..4, got [2, 5]"),
        ("bound_exceeded_at", -1, "'bound_exceeded_at' must be null or a node 0..5, got -1"),
        ("bound_exceeded_at", 6, "'bound_exceeded_at' must be null or a node 0..5, got 6"),
        ("bound_exceeded_at", 0, None),
        ("bound_exceeded_at", 5, None),
    ],
    ids=["abort_past_the_epochs", "abort_before_epoch_0", "abort_at_step_0", "abort_past_step_n",
         "box_exit_before_x0", "box_exit_past_x_N", "box_exit_at_x0", "box_exit_at_x_N"],
)
def test_header_abort_and_box_exit_name_a_step_and_a_node_of_the_run(tmp_path, capsys, key, value, message):
    # the config hash covers neither field, so a load checks each against
    # the run: K in 0..epochs-1 and i in 1..n, a node in 0..N
    trace = make_run(wd.make_problem("logistic", 4, 2, 3), wd.Constant(0.5), epochs=5)
    path = tmp_path / "trace.txt"
    wd.save_trace(trace, path)
    first, _, rest = path.read_bytes().partition(b"\n")
    edited = first.replace(f'"{key}": null'.encode(), f'"{key}": {json.dumps(value)}'.encode())
    assert json.loads(edited)[key] == value
    path.write_bytes(edited + b"\n" + rest)
    if message is None:
        assert wd.load_trace(path).bound_exceeded_at == value
        return
    with pytest.raises(ValueError) as err:
        wd.load_trace(path)
    assert str(err.value) == f"header: {message}"
    capsys.readouterr()
    assert main(["verify", "--trace", str(path)]) == 2
    assert main(["report", "--trace", str(path)]) == 2
    assert capsys.readouterr().err == f"trace error: header: {message}\n" * 2


class TestSummaryCsv:
    def test_row_count_and_columns(self, tmp_path):
        prob = wd.make_problem("logistic", 2, 1, 2)
        trace = make_run(prob, wd.Constant(0.5), epochs=10, record_level="epoch_only")
        path = tmp_path / "summary.csv"
        wd.write_summary_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "K,F,grad_norm_sq,min_so_far,alpha_first,alpha_last,v"
        assert len(lines) == 11  # header + one row per epoch

    def test_min_so_far_is_running_minimum(self, tmp_path):
        prob = wd.make_problem("logistic", 3, 2, 4)
        trace = make_run(prob, wd.DecreasingSqrt(), epochs=7, record_level="epoch_only")
        path = tmp_path / "summary.csv"
        wd.write_summary_csv(trace, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        mins = [float(r[3]) for r in rows]
        grads = [float(r[2]) for r in rows]
        expected = np.minimum.accumulate([trace.grad_sq[0]] + grads)[1:]
        assert mins == approx(expected.tolist())


class TestEpochBlocks:
    @pytest.mark.parametrize("eval_policy", EVAL_CASES, ids=lambda c: c.VARIANT)
    @given(
        E=st.sampled_from([1, EPOCH_BLOCK - 1, EPOCH_BLOCK, EPOCH_BLOCK + 1, 2 * EPOCH_BLOCK + 2]),
        more=st.integers(1, EPOCH_BLOCK + 2),
        level=st.sampled_from(["full", "epoch_only"]),
        perm_policy=st.sampled_from(PERM_CASES),
        adaptive=st.booleans(),
        radius=st.sampled_from([None, 0.3, 0.6]),
    )
    @settings(max_examples=10, deadline=None)
    def test_shorter_run_is_a_bitwise_prefix(
        self, eval_policy, E, more, level, perm_policy, adaptive, radius
    ):
        # runs advance in blocks of EPOCH_BLOCK epochs; where a block ends
        # must not show in the record
        prob = wd.make_problem("logistic", 4, 2, 6)
        strategy = wd.Adaptive.recommended(4) if adaptive else wd.DecreasingSqrt()

        def run(epochs):
            return wd.run(wd.RunConfig(
                problem=prob, strategy=strategy, eval_policy=eval_policy, perm_policy=perm_policy,
                x0=np.full(2, 0.2), epochs=epochs, record_level=level, monitor_radius=radius,
            ))

        short, long = run(E), run(E + more)
        for name in NODE_SERIES + EPOCH_SERIES + INNER_FIELDS:
            if getattr(short, name) is not None:
                rows = E + 1 if name in NODE_SERIES else E
                assert getattr(short, name).tobytes() == getattr(long, name)[:rows].tobytes(), name
        exit_long = long.bound_exceeded_at
        assert short.bound_exceeded_at == (exit_long if exit_long is not None and exit_long <= E else None)

    @pytest.mark.parametrize("level", ["full", "epoch_only"])
    @pytest.mark.parametrize(
        "alpha, aborted_at, box_exit", [(1e204, (77, 1), 63), (6.0257e204, (64, 1), 53)], ids=["K77", "K64"]
    )
    def test_abort_in_a_later_block(self, level, alpha, aborted_at, box_exit):
        # x grows about 1e4-fold (1e204) or 6e4-fold per epoch and z_{K,1}
        # overflows in the second block, inside it or at its first epoch;
        # the nodes up to x_K are evaluated, as in a run of K epochs
        prob = formula_problem(1, 1, lambda x: float(x[0]), lambda x: 1e-200 * x, 1.0)

        def run(epochs):
            return wd.run(wd.RunConfig(
                problem=prob, strategy=wd.Constant(alpha), eval_policy=wd.Incremental(),
                perm_policy=wd.Identity(), x0=np.ones(1), epochs=epochs, record_level=level,
                monitor_radius=1e250,
            ))

        K = aborted_at[0]
        with np.errstate(over="ignore", invalid="ignore"):
            aborted, complete = run(2 * EPOCH_BLOCK), run(K)
        assert (aborted.aborted_at, aborted.epochs_completed, aborted.bound_exceeded_at) == (aborted_at, K, box_exit)
        assert complete.aborted_at is None and complete.bound_exceeded_at == box_exit
        for name in NODE_SERIES + EPOCH_SERIES + INNER_FIELDS:
            if getattr(aborted, name) is not None:
                assert getattr(aborted, name).tobytes() == getattr(complete, name).tobytes(), name
        assert aborted.f_vals.tolist() == aborted.xs[:, 0].tolist()

    @pytest.mark.parametrize("kind", PROBLEM_KINDS)
    def test_node_series_are_the_one_point_calls(self, kind):
        # F and ||grad F||^2 of every node come from stacked calls, with the
        # bits of full_value(x_K) and g @ g of g = full_direction(x_K)
        prob = wd.make_problem(kind, 5, 2, 4)
        trace = make_run(prob, wd.DecreasingSqrt(), epochs=EPOCH_BLOCK + 3, record_level="epoch_only",
                         x0=np.full(prob.p, 0.1))
        for x, f, g2 in zip(trace.xs, trace.f_vals.tolist(), trace.grad_sq.tolist()):
            g = prob.full_direction(x)
            assert f == prob.full_value(x) and g2 == float(g @ g)

    def test_one_objective_pass_and_one_order_draw_per_block(self, monkeypatch):
        calls = []

        def counted(name, fn):
            # fn with each call's name and the length of its second argument appended to calls
            return lambda *args, **kwargs: calls.append((name, len(args[1]))) or fn(*args, **kwargs)

        for name in ("full_value", "full_direction"):
            monkeypatch.setattr(wd.FiniteSumProblem, name, counted(name, getattr(wd.FiniteSumProblem, name)))
        monkeypatch.setattr(engine, "permutation", counted("order", engine.permutation))
        prob = wd.make_problem("logistic", 4, 2, 6)
        make_run(prob, wd.DecreasingSqrt(), perm_policy=wd.ShuffledPerEpoch(3), epochs=2 * EPOCH_BLOCK + 1)
        blocks = [EPOCH_BLOCK, EPOCH_BLOCK, 1]
        nodes = [EPOCH_BLOCK + 1, EPOCH_BLOCK, 1]
        expected = []
        for b, m in zip(blocks, nodes):
            expected += [("order", b), ("full_value", m), ("full_direction", m)]
        assert calls == expected


class TestConfigValidation:
    def test_x0_dimension(self):
        prob = wd.make_problem("logistic", 2, 3, 0)
        with pytest.raises(ValueError):
            wd.RunConfig(
                problem=prob,
                strategy=wd.Constant(0.1),
                eval_policy=wd.Incremental(),
                perm_policy=wd.Identity(),
                x0=np.zeros(2),
                epochs=1,
            )

    def test_fixed_perm_length_must_match(self):
        prob = wd.make_problem("logistic", 4, 3, 0)
        with pytest.raises(ValueError, match="'perm_policy.perm' has 2 entries, the problem has n = 4"):
            wd.RunConfig(
                problem=prob,
                strategy=wd.Constant(0.1),
                eval_policy=wd.Incremental(),
                perm_policy=wd.FixedPermutation([1, 0]),
                x0=np.zeros(3),
                epochs=1,
            )

    def test_epochs_positive(self):
        prob = wd.make_problem("logistic", 2, 3, 0)
        with pytest.raises(ValueError):
            wd.RunConfig(
                problem=prob,
                strategy=wd.Constant(0.1),
                eval_policy=wd.Incremental(),
                perm_policy=wd.Identity(),
                x0=np.zeros(3),
                epochs=0,
            )


_positive = st.floats(min_value=1e-6, max_value=1e6)
_seed = st.integers(min_value=0, max_value=2**32)
VARIANT_VALUES = {
    wd.Constant: st.builds(wd.Constant, alpha=_positive),
    wd.DecreasingSqrt: st.just(wd.DecreasingSqrt()),
    wd.DecreasingCbrtWithL: st.builds(wd.DecreasingCbrtWithL, L=_positive),
    wd.Adaptive: st.builds(wd.Adaptive, delta=_positive, beta=_positive),
    wd.FullGradient: st.just(wd.FullGradient()),
    wd.Incremental: st.just(wd.Incremental()),
    wd.MiniBatch: st.builds(wd.MiniBatch, b=st.integers(min_value=1, max_value=64)),
    wd.DelayedAsync: st.builds(wd.DelayedAsync, max_delay=st.integers(0, 64), seed=_seed),
    wd.ConvexMix: st.builds(wd.ConvexMix, seed=_seed),
    wd.Identity: st.just(wd.Identity()),
    wd.FixedPermutation: st.integers(1, 12)
    .flatmap(lambda n: st.permutations(range(n)))
    .map(wd.FixedPermutation),
    wd.ShuffledPerEpoch: st.builds(wd.ShuffledPerEpoch, seed=_seed),
    wd.AdversarialMaxNorm: st.just(wd.AdversarialMaxNorm()),
}

# the parameters of each step rule, the only keys beside "variant" of its serialized form
RULE_PARAMETERS = {wd.Constant: ("alpha",), wd.DecreasingSqrt: (), wd.DecreasingCbrtWithL: ("L",),
                   wd.Adaptive: ("delta", "beta")}


def _values_of(section):
    return st.one_of(*(VARIANT_VALUES[cls] for cls in VARIANT_SECTIONS[section].values()))


class TestVariantDicts:
    def test_every_variant_is_generated(self):
        tables = VARIANT_SECTIONS.values()
        assert set(VARIANT_VALUES) == {cls for table in tables for cls in table.values()}

    @given(st.sampled_from(list(VARIANT_SECTIONS)).flatmap(lambda s: st.tuples(st.just(s), _values_of(s))))
    def test_round_trip_through_json(self, section_and_value):
        section, value = section_and_value
        doc = json.loads(json.dumps(variant_to_dict(value)))
        assert list(doc)[0] == "variant"
        if section == "strategy":  # the rule's parameters only: n is the problem's
            assert set(doc) == {"variant", *RULE_PARAMETERS[type(value)]}
        assert variant_from_dict(doc, VARIANT_SECTIONS[section]) == value

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            variant_from_dict({"variant": "bogus"}, VARIANT_SECTIONS["strategy"])

    @given(
        _values_of("strategy"),
        _values_of("eval_policy"),
        _values_of("perm_policy"),
        st.lists(st.floats(allow_nan=False), min_size=2, max_size=2),
        st.integers(min_value=1, max_value=10**6),
        st.sampled_from(["full", "epoch_only"]),
        st.none() | _positive,
        st.booleans(),
    )
    def test_run_config_round_trip(
        self, strategy, eval_policy, perm_policy, x0, epochs, level, radius, track
    ):
        # a fixed perm must cover the problem's n components
        n = len(perm_policy.perm) if isinstance(perm_policy, wd.FixedPermutation) else 3
        config = wd.RunConfig(
            problem=wd.make_problem("logistic", n, 2, 5),
            strategy=strategy,
            eval_policy=eval_policy,
            perm_policy=perm_policy,
            x0=np.array(x0),
            epochs=epochs,
            record_level=level,
            monitor_radius=radius,
            track_objective=track,
        )
        text = json.dumps(config_to_dict(config))
        doc = json.loads(text)
        back = wd.RunConfig.from_dict(doc, problems.problem_from_dict(doc["problem"], config.problem.kind.data))
        for key in VARIANT_SECTIONS:
            assert getattr(back, key) == getattr(config, key)
        assert np.array_equal(back.x0, config.x0)
        assert json.dumps(config_to_dict(back)) == text
