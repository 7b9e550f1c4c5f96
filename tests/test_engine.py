import dataclasses
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
from conftest import make_run
from wrdescent.engine import (
    INNER_FIELDS,
    VARIANT_SECTIONS,
    config_from_dict,
    config_to_dict,
    variant_from_dict,
    variant_to_dict,
)


def zero_problem(p=2):
    comp = wd.ComponentOracle(
        value=lambda x: 0.0,
        direction=lambda x: np.zeros(p),
        lipschitz_value=0.0,
        lipschitz_gradient=0.0,
    )
    return wd.FiniteSumProblem.assemble([comp, comp], p, f_star_lower=0.0)


def exploding_problem(scale=1e160):
    comp = wd.ComponentOracle(
        value=lambda x: float(x[0]),
        direction=lambda x, s=scale: s * x,
        lipschitz_value=1.0,
    )
    return wd.FiniteSumProblem.assemble([comp], 1)


class TestRunEpoch:
    def test_zero_directions_fixed_point(self):
        prob = zero_problem()
        x0 = np.array([0.3, -0.4])
        trace = make_run(prob, wd.Constant(0.5, 2), epochs=3, x0=x0)
        for rec in trace.records:
            assert np.array_equal(rec.x_next, x0)
            for z in rec.z:
                assert np.array_equal(z, x0)

    def test_n1_epoch_is_one_gradient_step(self):
        prob = wd.make_problem("logistic", 1, 2, 3)
        x0 = np.array([0.2, -0.1])
        alpha = 0.7
        for policy in (wd.Incremental(), wd.FullGradient()):
            trace = make_run(prob, wd.Constant(alpha, 1), eval_policy=policy, epochs=1, x0=x0)
            expected = x0 - alpha * prob.full_direction(x0)
            assert trace.xs[1] == approx(expected, rel=1e-15)

    def test_two_step_recursion_matches_extended_precision(self):
        # hand-unrolled incremental epoch on the +-1 logistic pair, 50 digits
        prob = wd.logistic_problem([[1.0], [-1.0]], [1.0, 1.0])
        x0 = np.array([0.37])
        alpha_inner = 0.25
        trace = make_run(prob, wd.Constant(0.5, 2), epochs=1, x0=x0)

        mpmath.mp.dps = 50
        sig = lambda t: 1 / (1 + mpmath.e**-t)
        z0 = mpmath.mpf("0.37")
        d1 = -sig(-z0)  # b=1, a=1
        z1 = z0 - mpmath.mpf("0.25") * d1
        d2 = sig(z1)  # b=1, a=-1
        z2 = z1 - mpmath.mpf("0.25") * d2
        assert trace.records[0].z[0, 0] == approx(float(z1), rel=1e-15)
        assert trace.xs[1][0] == approx(float(z2), rel=1e-15)

    def test_each_component_queried_once_per_epoch(self):
        prob = wd.make_problem("logistic", 7, 2, 1)
        trace = make_run(
            prob, wd.DecreasingSqrt(7), perm_policy=wd.ShuffledPerEpoch(3), epochs=5
        )
        for rec in trace.records:
            assert sorted(rec.index.tolist()) == list(range(7))

    def test_adversarial_order_follows_probe(self):
        prob = wd.make_problem("logistic", 5, 2, 11)
        trace = make_run(
            prob, wd.Constant(0.1, 5), perm_policy=wd.AdversarialMaxNorm(), epochs=2
        )
        for rec in trace.records:
            norms = [
                np.linalg.norm(c.direction(rec.x_start)) for c in prob.components
            ]
            expected = np.argsort(-np.asarray(norms), kind="stable")
            assert rec.index.tolist() == expected.tolist()


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

    def test_constant_half_over_l_monotone_after_first_epoch(self, logistic32):
        # regression on the seeded instance, not a theorem
        trace = make_run(
            logistic32,
            wd.Constant(0.5 / logistic32.L, 32),
            epochs=200,
            record_level="epoch_only",
        )
        diffs = np.diff(trace.f_vals[1:])
        assert np.max(diffs) <= 1e-9

    def test_full_gradient_descent_lemma_regime(self, logistic32):
        trace = make_run(
            logistic32,
            wd.Constant(1.0 / logistic32.L, 32),
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
            strategy=wd.Constant(1.0, 1),
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

    def test_box_monitor_flags_exit(self):
        prob = wd.make_problem("logistic", 4, 2, 9)
        cfg = wd.RunConfig(
            problem=prob,
            strategy=wd.Constant(5.0, 4),
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
        s = wd.Adaptive(delta=4.0, beta=1.5, n=5)
        trace = make_run(prob, s, epochs=15)
        v = s.delta
        for rec in trace.records:
            for v_rec, alpha, dnorm2 in zip(rec.v.tolist(), rec.alpha.tolist(), rec.dnorm2.tolist()):
                v = v + s.beta * dnorm2
                assert v_rec == v
                assert alpha == v ** (-1.0 / 3.0)

    def test_epoch_only_skips_inner_records(self):
        prob = wd.make_problem("logistic", 4, 2, 7)
        trace = make_run(prob, wd.DecreasingSqrt(4), epochs=6, record_level="epoch_only")
        assert all(getattr(rec, f) is None for rec in trace.records for f in INNER_FIELDS)
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
        trace = make_run(prob, wd.DecreasingSqrt(4), epochs=6)
        trace.records[3].alpha[1] *= 1.0 + 1e-12
        rep = wd.replay(trace)
        assert not rep.ok
        assert rep.first_mismatch == (3, 2, "alpha")

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
        trace = make_run(prob, wd.Constant(0.4, 6), eval_policy=policy, epochs=5)
        for rec in trace.records:
            zs = [rec.x_start] + list(rec.z)
            for i, zhat in enumerate(rec.zhat, start=1):
                weights = wd.eval_point(policy, rec.K, i)
                assert np.array_equal(wd.hull_point(weights, zs[:i]), zhat)

    def test_epoch_only_replay_rejected(self):
        prob = wd.make_problem("logistic", 4, 2, 3)
        trace = make_run(prob, wd.Constant(0.2, 4), epochs=3, record_level="epoch_only")
        with pytest.raises(ValueError):
            wd.replay(trace)


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
# column of an #INNER row -> field of the record: i,index,alpha,dnorm2,v,zhat0..,d0..,z0..
INNER_COLUMNS = ["i", "index", "alpha", "dnorm2", "v"] + [f for f in ("zhat", "d", "z") for _ in range(2)]


class TestTraceFileProperty:
    def test_cases_cover_every_policy(self):
        assert {type(c) for c in EVAL_CASES} == set(VARIANT_SECTIONS["eval_policy"].values())
        assert {type(c) for c in PERM_CASES} == set(VARIANT_SECTIONS["perm_policy"].values())

    @pytest.mark.parametrize("eval_policy", EVAL_CASES, ids=lambda c: c.VARIANT)
    @pytest.mark.parametrize("perm_policy", PERM_CASES, ids=lambda c: c.VARIANT)
    @given(
        level=st.sampled_from(["full", "epoch_only"]),
        adaptive=st.booleans(),
        K=st.integers(0, 2),
        i=st.integers(1, 4),
        column=st.integers(1, len(INNER_COLUMNS) - 1),
    )
    @settings(max_examples=8)
    def test_round_trip_replay_and_located_perturbation(
        self, eval_policy, perm_policy, level, adaptive, K, i, column
    ):
        prob = wd.make_problem("logistic", 4, 2, 6)
        strategy = wd.Adaptive.recommended(4) if adaptive else wd.DecreasingSqrt(4)
        trace = make_run(prob, strategy, eval_policy, perm_policy, epochs=3, record_level=level)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.txt"
            wd.save_trace(trace, path)
            text = path.read_text()
            loaded = wd.load_trace(path)
            wd.save_trace(loaded, path)
            assert path.read_text() == text
            if level != "full":
                return
            assert wd.replay(loaded).ok

            lines = text.splitlines(keepends=True)
            row = lines.index(f"#INNER {K}\n") + 1 + i
            parts = lines[row].rstrip("\n").split(",")
            if column == 1:
                parts[1] = str((int(parts[1]) + 1) % prob.n)
            else:
                value = float(parts[column])
                parts[column] = repr(1.0 if math.isnan(value) else float(np.nextafter(value, np.inf)))
            lines[row] = ",".join(parts) + "\n"
            path.write_text("".join(lines))
            rep = wd.replay(wd.load_trace(path))
        assert not rep.ok
        assert rep.first_mismatch == (K, i, INNER_COLUMNS[column])


class TestSummaryCsv:
    def test_row_count_and_columns(self, tmp_path):
        prob = wd.make_problem("logistic", 2, 1, 2)
        trace = make_run(prob, wd.Constant(0.5, 2), epochs=10, record_level="epoch_only")
        path = tmp_path / "summary.csv"
        wd.write_summary_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "K,F,grad_norm_sq,min_so_far,alpha_first,alpha_last,v"
        assert len(lines) == 11  # header + one row per epoch

    def test_min_so_far_is_running_minimum(self, tmp_path):
        prob = wd.make_problem("logistic", 3, 2, 4)
        trace = make_run(prob, wd.DecreasingSqrt(3), epochs=7, record_level="epoch_only")
        path = tmp_path / "summary.csv"
        wd.write_summary_csv(trace, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        mins = [float(r[3]) for r in rows]
        grads = [float(r[2]) for r in rows]
        expected = np.minimum.accumulate([trace.grad_sq[0]] + grads)[1:]
        assert mins == approx(expected.tolist())


class TestConfigValidation:
    def test_x0_dimension(self):
        prob = wd.make_problem("logistic", 2, 3, 0)
        with pytest.raises(ValueError):
            wd.RunConfig(
                problem=prob,
                strategy=wd.Constant(0.1, 2),
                eval_policy=wd.Incremental(),
                perm_policy=wd.Identity(),
                x0=np.zeros(2),
                epochs=1,
            )

    def test_strategy_n_must_match(self):
        prob = wd.make_problem("logistic", 2, 3, 0)
        with pytest.raises(ValueError):
            wd.RunConfig(
                problem=prob,
                strategy=wd.Constant(0.1, 3),
                eval_policy=wd.Incremental(),
                perm_policy=wd.Identity(),
                x0=np.zeros(3),
                epochs=1,
            )

    def test_epochs_positive(self):
        prob = wd.make_problem("logistic", 2, 3, 0)
        with pytest.raises(ValueError):
            wd.RunConfig(
                problem=prob,
                strategy=wd.Constant(0.1, 2),
                eval_policy=wd.Incremental(),
                perm_policy=wd.Identity(),
                x0=np.zeros(3),
                epochs=0,
            )


_positive = st.floats(min_value=1e-6, max_value=1e6)
_n = st.integers(min_value=1, max_value=64)
_seed = st.integers(min_value=0, max_value=2**32)
VARIANT_VALUES = {
    wd.Constant: st.builds(wd.Constant, alpha=_positive, n=_n),
    wd.DecreasingSqrt: st.builds(wd.DecreasingSqrt, n=_n),
    wd.DecreasingCbrtWithL: st.builds(wd.DecreasingCbrtWithL, L=_positive, n=_n),
    wd.Adaptive: st.builds(wd.Adaptive, delta=_positive, beta=_positive, n=_n),
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
        config = wd.RunConfig(
            problem=wd.make_problem("logistic", 3, 2, 5),
            strategy=dataclasses.replace(strategy, n=3),
            eval_policy=eval_policy,
            perm_policy=perm_policy,
            x0=np.array(x0),
            epochs=epochs,
            record_level=level,
            monitor_radius=radius,
            track_objective=track,
        )
        text = json.dumps(config_to_dict(config))
        back = config_from_dict(json.loads(text))
        for key in VARIANT_SECTIONS:
            assert getattr(back, key) == getattr(config, key)
        assert np.array_equal(back.x0, config.x0)
        assert json.dumps(config_to_dict(back)) == text
