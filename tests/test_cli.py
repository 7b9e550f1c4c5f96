import concurrent.futures
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import re
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import wrdescent as wd
from conftest import decode_payload, encode_payload, section_payload, section_spans, with_payload
from wrdescent import analysis
from wrdescent.cli import KNOWN_CHECKS, fit_loglog_slope, main, sweep_checkpoints
from wrdescent.config import VARIANT_SECTIONS, ExperimentConfig, load_config, save_config
from wrdescent.engine import EPOCH_SERIES, INNER_FIELDS, NODE_SERIES


def minimal_config(**overrides):
    doc = {
        "problem": {"kind": "logistic", "n": 2, "p": 1, "seed": 3},
        "strategy": {"variant": "constant", "alpha": 0.5},
        "eval_policy": {"variant": "incremental"},
        "perm_policy": {"variant": "identity"},
        "x0": {"kind": "zero"},
        "epochs": 10,
        "record_level": "full",
    }
    doc.update(overrides)
    return doc


# (section, a complete spec, a field that has no default)
MISSING_FIELD_CASES = [
    ("strategy", {"variant": "constant", "alpha": 0.5}, "alpha"),
    ("eval_policy", {"variant": "mini_batch", "b": 2}, "b"),
    ("eval_policy", {"variant": "delayed_async", "max_delay": 1, "seed": 0}, "max_delay"),
    ("eval_policy", {"variant": "delayed_async", "max_delay": 1, "seed": 0}, "seed"),
    ("eval_policy", {"variant": "convex_mix", "seed": 0}, "seed"),
    ("perm_policy", {"variant": "fixed", "perm": [1, 0]}, "perm"),
    ("perm_policy", {"variant": "shuffled", "seed": 0}, "seed"),
]


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(minimal_config(**overrides)))
    return path


class TestConfig:
    def test_round_trip_lossless(self, tmp_path):
        cfg = ExperimentConfig.from_dict(minimal_config())
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path).to_dict() == cfg.to_dict()

    def test_unknown_key_named(self):
        with pytest.raises(wd.ConfigError, match="bogus"):
            ExperimentConfig.from_dict(minimal_config(bogus=1))

    def test_bad_epochs_named(self):
        with pytest.raises(wd.ConfigError, match="epochs"):
            ExperimentConfig.from_dict(minimal_config(epochs=0))

    def test_missing_problem_field_named(self):
        doc = minimal_config()
        del doc["problem"]["seed"]
        with pytest.raises(wd.ConfigError, match="problem.seed"):
            ExperimentConfig.from_dict(doc)

    def test_auto_strategy_parameters(self):
        doc = minimal_config(strategy={"variant": "adaptive"})
        run_config = ExperimentConfig.from_dict(doc).build()
        assert run_config.strategy == wd.Adaptive.recommended(2)

    def test_missing_field_cases_cover_every_variant(self):
        # n comes from the problem; L, beta and delta default to "auto"
        required = {
            (section, cls.VARIANT, f.name)
            for section, table in VARIANT_SECTIONS.items()
            for cls in table.values()
            for f in fields(cls)
            if f.name not in ("n", "L", "beta", "delta")
        }
        assert required == {(s, spec["variant"], key) for s, spec, key in MISSING_FIELD_CASES}

    @pytest.mark.parametrize("section, spec, key", MISSING_FIELD_CASES)
    def test_missing_variant_field_named(self, section, spec, key):
        ExperimentConfig.from_dict(minimal_config(**{section: spec})).build()
        partial = {k: v for k, v in spec.items() if k != key}
        cfg = ExperimentConfig.from_dict(minimal_config(**{section: partial}))
        with pytest.raises(wd.ConfigError, match=re.escape(f"'{section}.{key}'")):
            cfg.build()

    @pytest.mark.parametrize("section", list(VARIANT_SECTIONS))
    def test_unknown_variant_named(self, section):
        cfg = ExperimentConfig.from_dict(minimal_config(**{section: {"variant": "bogus"}}))
        with pytest.raises(wd.ConfigError, match=re.escape(f"'{section}.variant'")):
            cfg.build()

    def test_seeded_ball_x0(self):
        doc = minimal_config(x0={"kind": "ball", "radius": 0.5, "seed": 4})
        a = ExperimentConfig.from_dict(doc).build().x0
        b = ExperimentConfig.from_dict(doc).build().x0
        assert np.array_equal(a, b)
        assert np.linalg.norm(a) <= 0.5


class TestCmdRun:
    def test_summary_row_count(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 11  # header + 10 epochs

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(
                (out / "trace.txt").read_bytes() + (out / "summary.csv").read_bytes()
            )
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("kind, code", [("relu_net", 1), ("median", 0)])
    def test_overflowing_run_warns_nothing(self, tmp_path, capsys, kind, code):
        # under alpha = 1e308 relu_net's first step overflows, which aborts
        # the run, and median's full-gradient sums overflow without an
        # abort; the trace is the report, and NumPy warns of neither
        config = str(Path(__file__).parents[1] / "scripts" / "configs" / "logistic_small.json")
        sets = [
            "epochs=5",
            f'problem={{"kind":"{kind}","n":7,"p":3,"seed":0}}',
            'strategy={"variant":"constant","alpha":1e308}',
            'eval_policy={"variant":"full_gradient"}',
            'x0={"kind":"ball","radius":1.0,"seed":0}',
        ]
        argv = ["run", "--config", config, "--out", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + [arg for s in sets for arg in ("--set", s)]) == code
        aborted = "aborted: non-finite value at epoch 1, inner step 1\n"
        assert capsys.readouterr().err == (aborted if code == 1 else "")

    def test_zero_epochs_rejected_with_message(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=0)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "epochs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, section",
        [
            ({"eval_policy": {"variant": "mini_batch", "b": 0}}, "'eval_policy'"),
            ({"perm_policy": {"variant": "fixed", "perm": [2, 0, 1]}}, "'perm_policy.perm'"),
        ],
        ids=["rejected_value", "fixed_perm_length"],
    )
    def test_invalid_variant_exits_2_naming_the_section(self, tmp_path, capsys, overrides, section):
        cfg = write_config(tmp_path, **overrides)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and section in err

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"eval_policy": {"variant": "delayed_async", "max_delay": 2, "seed": -1}}, "'eval_policy'"),
            ({"eval_policy": {"variant": "convex_mix", "seed": -1}}, "'eval_policy'"),
            ({"perm_policy": {"variant": "shuffled", "seed": -1}}, "'perm_policy'"),
            ({"problem": {"kind": "logistic", "n": 2, "p": 1, "seed": -1}}, "'problem.seed'"),
            ({"x0": {"kind": "ball", "radius": 1.0, "seed": -1}}, "'x0.seed'"),
        ],
        ids=["delayed_async", "convex_mix", "shuffled", "problem", "x0_ball"],
    )
    def test_negative_seed_exits_2_naming_the_key(self, tmp_path, capsys, overrides, key):
        cfg = write_config(tmp_path, **overrides)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err and "nonnegative" in err

    @pytest.mark.parametrize(
        "override, key",
        [
            ('eval_policy={"variant": "delayed_async", "max_delay": 2, "seed": 1.5}', "'eval_policy.seed'"),
            ('eval_policy={"variant": "delayed_async", "max_delay": 2.0, "seed": 1}', "'eval_policy.max_delay'"),
            ('eval_policy={"variant": "mini_batch", "b": true}', "'eval_policy.b'"),
            ('perm_policy={"variant": "shuffled", "seed": false}', "'perm_policy.seed'"),
            ('problem={"kind": "logistic", "n": 2, "p": 1, "seed": true}', "'problem.seed'"),
            ('problem={"kind": "logistic", "n": true, "p": 1, "seed": 3}', "'problem.n'"),
            ("epochs=true", "'epochs'"),
            ('x0={"kind": "ball", "radius": 1.0, "seed": 1.0}', "'x0.seed'"),
            ('perm_policy={"variant": "fixed", "perm": [1.0, 0.0]}', "'perm_policy.perm'"),
            ('perm_policy={"variant": "fixed", "perm": [true, false]}', "'perm_policy.perm'"),
        ],
        ids=["float_seed", "float_max_delay", "bool_b", "bool_perm_seed", "bool_problem_seed", "bool_n",
             "bool_epochs", "float_x0_seed", "float_perm", "bool_perm"],
    )
    def test_non_integer_exits_2_naming_the_key(self, tmp_path, capsys, override, key):
        # JSON integers only: a float (1.0 too) or a bool is not truncated or read as 0/1
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err and "integer" in err

    @pytest.mark.parametrize(
        "override, key",
        [
            ('strategy={"variant": "constant", "alpha": true}', "'strategy.alpha'"),
            ('strategy={"variant": "constant", "alpha": "0.5"}', "'strategy.alpha'"),
            ('strategy={"variant": "constant", "alpha": [0.5]}', "'strategy.alpha'"),
            ('strategy={"variant": "constant", "alpha": 1' + "0" * 400 + "}", "'strategy.alpha'"),
            ('strategy={"variant": "constant", "alpha": 1e400}', "'strategy.alpha'"),
            ('strategy={"variant": "constant", "alpha": NaN}', "'strategy.alpha'"),
            ('strategy={"variant": "decreasing_cbrt", "L": "2"}', "'strategy.L'"),
            ('strategy={"variant": "adaptive", "beta": false}', "'strategy.beta'"),
            ('strategy={"variant": "adaptive", "delta": null}', "'strategy.delta'"),
        ],
        ids=["bool_alpha", "string_alpha", "list_alpha", "huge_int_alpha", "inf_alpha", "nan_alpha", "string_L",
             "bool_beta", "null_delta"],
    )
    def test_non_number_exits_2_naming_the_key(self, tmp_path, capsys, override, key):
        # a float field takes a finite JSON number only: true is not read as
        # 1.0, nor "0.5" as 0.5; JSON reads 1e400 as inf
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err

    @pytest.mark.parametrize("alpha", ["1e308", "2", "0.25"])
    def test_float_fields_take_json_numbers(self, tmp_path, alpha):
        cfg = write_config(tmp_path, epochs=2)
        override = f'strategy={{"variant": "constant", "alpha": {alpha}}}'
        with np.errstate(over="ignore"):
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--set", override])
        header = json.loads((tmp_path / "o" / "trace.txt").read_bytes().partition(b"\n")[0])
        assert header["config"]["strategy"]["alpha"] == float(alpha)

    @pytest.mark.parametrize("radius", ['"abc"', "1e400", "true", "-1", "null"])
    def test_bad_ball_radius_exits_2(self, tmp_path, capsys, radius):
        # 1e400 reads as inf in JSON
        cfg = write_config(tmp_path)
        override = f'x0={{"kind": "ball", "radius": {radius}, "seed": 1}}'
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: 'x0.radius' must be a finite nonnegative number")

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {k: v for k, v in minimal_config().items() if k != "strategy"},
                "missing config key 'strategy'",
            ),
            (
                minimal_config(problem={"kind": "bogus", "n": 2, "p": 1, "seed": 3}),
                "problem.kind must be one of ('logistic', 'sigmoid_nonconvex', 'median', 'relu_net'), got 'bogus'",
            ),
            (minimal_config(record_level="half"), "'record_level' must be 'full' or 'epoch_only'"),
            (minimal_config(x0={"kind": "cube"}), "'x0.kind' must be 'zero' or 'ball'"),
            (minimal_config(x0={"kind": "ball", "seed": 1}), "missing config key 'x0.radius'"),
            (minimal_config(x0={"kind": "ball", "radius": 1.0}), "missing config key 'x0.seed'"),
            (
                minimal_config(
                    problem={"kind": "median", "n": 2, "p": 1, "seed": 3}, strategy={"variant": "decreasing_cbrt"}
                ),
                "'strategy.L' = auto needs a smooth problem",
            ),
            (
                "{not json",
                "config file is not valid JSON: Expecting property name enclosed in double quotes:"
                " line 1 column 2 (char 1)",
            ),
        ],
        ids=["missing_strategy", "unknown_problem_kind", "bad_record_level", "bad_x0_kind", "no_x0_radius",
             "no_x0_seed", "auto_on_nonsmooth", "not_json"],
    )
    def test_rejected_config_exits_2_with_its_message(self, tmp_path, capsys, doc, message):
        path = tmp_path / "config.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "content, message",
        [(None, "config error: cannot read the config file: "), (b"\xff{}", "config error: config file is not valid JSON: ")],
        ids=["missing_file", "not_utf8"],
    )
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_bytes(content)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    def test_set_without_equals_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--set", "epochs"]) == 2
        assert capsys.readouterr().err == "config error: --set expects key=value, got 'epochs'\n"

    def test_set_overrides_file_keys(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["run", "--config", str(cfg), "--out", str(out), "--set", "epochs=3"]
        )
        assert code == 0
        assert len((out / "summary.csv").read_text().splitlines()) == 4


class TestCmdVerify:
    def run_and_verify(self, tmp_path, checks, **overrides):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        code = main(
            ["verify", "--trace", str(out / "trace.txt"), "--checks", checks]
        )
        report = json.loads((out / "certificate.json").read_text())
        return code, report, out

    def test_step_length_passes_on_full_trace(self, tmp_path):
        code, report, _ = self.run_and_verify(tmp_path, "step_length,lex")
        assert code == 0
        assert report["step_length"]["status"] == "pass"
        assert report["lex"]["status"] == "pass"

    def test_l_bound_skipped_when_alpha_exceeds_one_over_l(self, tmp_path):
        # alpha = 6 > 1/L for the seeded pair; the check routes to skipped
        code, report, _ = self.run_and_verify(
            tmp_path, "bound_constant_with_l", strategy={"variant": "constant", "alpha": 6.0}
        )
        assert code == 0
        assert report["bound_constant_with_l"]["status"] == "skip"

    @pytest.mark.parametrize(
        "L, status, detail",
        [(330.0, "pass", "500 horizons"), (0.15, "skip", "strategy does not match this rate rule")],
    )
    def test_cbrt_bound_reads_the_strategys_l(self, tmp_path, L, status, detail):
        # the problem's L is 0.33; any larger L is also a Lipschitz constant
        # of its gradient, and the steps 1/(L n (K+1)^(1/3)) are certified
        # with the L they were built from
        problem = {"kind": "logistic", "n": 16, "p": 2, "seed": 0}
        assert 0.15 < wd.make_problem(**problem).L < 330.0
        code, report, _ = self.run_and_verify(
            tmp_path,
            "bound_decreasing_cbrt",
            problem=problem,
            strategy={"variant": "decreasing_cbrt", "L": L},
            x0={"kind": "ball", "radius": 50.0, "seed": 1},
            epochs=500,
            record_level="epoch_only",
        )
        assert code == 0
        assert report["bound_decreasing_cbrt"]["status"] == status
        assert report["bound_decreasing_cbrt"]["detail"].startswith(detail)

    def test_certificate_csv_written(self, tmp_path):
        code, report, out = self.run_and_verify(
            tmp_path,
            "bound_adaptive",
            strategy={"variant": "adaptive"},
            epochs=50,
            record_level="epoch_only",
        )
        assert code == 0
        assert report["bound_adaptive"]["status"] == "pass"
        rows = (out / "certificate_bound_adaptive.csv").read_text().splitlines()
        assert rows[0] == "N,bound,observed,slack,pass"
        assert len(rows) == 52  # N = 0..50

    def test_exit_status_pure_function_of_trace(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        codes = {
            main(["verify", "--trace", str(out / "trace.txt"), "--checks", "step_length"])
            for _ in range(2)
        }
        assert codes == {0}

    def test_overflowing_checks_skipped_others_run(self, tmp_path, capsys):
        # alpha^2 overflows a float in the step-length and descent sums
        with np.errstate(over="ignore"):
            code, report, _ = self.run_and_verify(
                tmp_path,
                "step_length,epoch_descent,epoch_descent_tight,lex",
                strategy={"variant": "constant", "alpha": 1e308},
            )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        for name in ("step_length", "epoch_descent", "epoch_descent_tight"):
            assert report[name]["status"] == "skip"
            assert any(line.startswith(f"[SKIP] {name}: numeric overflow") for line in out)
        assert report["lex"]["status"] == "pass"

    def test_non_finite_rate_bound_skipped(self, tmp_path, capsys):
        # alpha = 1e308 takes the constant rule's bound to inf at every horizon
        config = str(Path(__file__).parents[1] / "scripts" / "configs" / "logistic_small.json")
        strategy = 'strategy={"variant": "constant", "alpha": 1e308}'
        out = tmp_path / "out"
        with np.errstate(over="ignore"):
            assert main(["run", "--config", config, "--out", str(out), "--set", strategy]) == 0
            code = main(["verify", "--trace", str(out / "trace.txt"), "--checks", "bound_constant"])
            sweep = ["sweep", "--config", config, "--out", str(tmp_path / "sweep"), "--set", strategy]
            sweep += ["--set", "epochs=20", "--grid", "strategy.alpha=1e308,0.1"]
            assert main(sweep) == 0
        assert code == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert "[SKIP] bound_constant: numeric overflow: the constant bound is inf at N=0" in out_lines
        assert json.loads((out / "certificate.json").read_text())["bound_constant"]["status"] == "skip"
        cells = (tmp_path / "sweep" / "cells.csv").read_text().splitlines()[1:]
        assert cells[0].endswith(',"constant=skip",')
        assert cells[1].endswith(',"constant=pass;constant_with_l=pass",')

    def test_overflowing_summability_side_skipped(self, tmp_path, capsys):
        # delta = 1e-310 takes the summability rhs, log1p(beta n M^2 (N+1) /
        # delta) / beta, to inf, where inf / inf would give a NaN slack; both
        # epoch-descent forms stay finite there and pass
        config = str(Path(__file__).parents[1] / "scripts" / "configs" / "logistic_small.json")
        strategy = 'strategy={"variant": "adaptive", "delta": 1e-310, "beta": 1.0}'
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out), "--set", strategy, "--set", "epochs=5"]) == 0
        capsys.readouterr()
        checks = "summability,epoch_descent,epoch_descent_tight"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--trace", str(out / "trace.txt"), "--checks", checks])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("[SKIP] summability: numeric overflow: lhs ")
        assert lines[0].endswith(", rhs inf at summability[N=4]")
        assert [line.split(":")[0] for line in lines[1:]] == ["[PASS] epoch_descent", "[PASS] epoch_descent_tight"]
        report = json.loads((out / "certificate.json").read_text())
        assert [report[name]["status"] for name in checks.split(",")] == ["skip", "pass", "pass"]

    def test_non_finite_gamma_skipped(self, tmp_path, capsys):
        # alpha = 1e308 takes the cumulative step mass tau to inf at K = 2
        config = str(Path(__file__).parents[1] / "scripts" / "configs" / "logistic_small.json")
        strategy = 'strategy={"variant": "constant", "alpha": 1e308}'
        out = tmp_path / "out"
        with np.errstate(over="ignore"):
            assert main(["run", "--config", config, "--out", str(out), "--set", strategy]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would end verify here
            code = main(["verify", "--trace", str(out / "trace.txt"), "--checks", "gamma"])
        assert code == 0
        assert "[SKIP] gamma: numeric overflow: taus[2] is inf" in capsys.readouterr().out.splitlines()
        assert json.loads((out / "certificate.json").read_text())["gamma"]["status"] == "skip"

    def test_overflowing_step_length_squares_skipped(self, tmp_path, capsys):
        # relu_net under alpha = 1e100 leaves the box at once: the squared
        # step lengths and n * S2 are inf from epoch 0, where inf - inf
        # would give a NaN slack
        cfg = write_config(
            tmp_path,
            problem={"kind": "relu_net", "n": 6, "p": 2, "seed": 1},
            strategy={"variant": "constant", "alpha": 1e100},
            perm_policy={"variant": "adversarial"},
            x0={"kind": "ball", "radius": 0.5, "seed": 1},
            epochs=4,
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would end verify here
            code = main(["verify", "--trace", str(out / "trace.txt"), "--checks", "step_length"])
        assert code == 0
        reason = "numeric overflow: lhs inf, rhs inf at K=0"
        assert capsys.readouterr().out.splitlines() == [f"[SKIP] step_length: {reason}"]
        report = json.loads((out / "certificate.json").read_text())
        assert report == {"step_length": {"status": "skip", "detail": reason}}

    @pytest.mark.parametrize(
        "kind, f_star, check, reason",
        [
            ("median", 0.0, "bound_constant", "needs a smooth problem"),
            ("logistic", None, "bound_adaptive", "strategy does not match this rate rule"),
            ("logistic", None, "bound_constant", "no F* lower bound available"),
        ],
    )
    def test_bound_skip_reasons_come_from_certify_run(self, tmp_path, kind, f_star, check, reason):
        # certify_run raises verify's reasons in verify's order: a smooth
        # problem, a matching rate rule, then an F* lower bound
        zoo = wd.make_problem(kind, 2, 1, 3).kind
        if f_star is None:  # a kind outside ZOO_KINDS, over the same data, without F*
            zoo = type("NoFStar", (type(zoo),), {"f_star_lower": None})(zoo.data, zoo.seed)
        problem = zoo.problem()
        assert problem.f_star_lower == f_star
        config = wd.RunConfig(problem, wd.Constant(0.5), wd.Incremental(), wd.Identity(), np.zeros(1), 3)
        trace = wd.run(config)
        with pytest.raises((ValueError, wd.UnsupportedProblem)) as err:
            wd.certify_run(trace, check[len("bound_"):])
        assert str(err.value) == reason
        assert analysis.run_check(trace, check) == ("skip", reason, None)
        if f_star is None:  # its trace cannot be written, so it cannot load back with the zoo's F*
            with pytest.raises(wd.UnsupportedProblem):
                wd.save_trace(trace, tmp_path / "trace.txt")

    def test_known_checks_pinned(self):
        assert KNOWN_CHECKS == (
            "step_length",
            "epoch_descent",
            "epoch_descent_tight",
            "lex",
            "bound_constant",
            "bound_decreasing_sqrt",
            "bound_constant_with_l",
            "bound_decreasing_cbrt",
            "bound_adaptive",
            "summability",
            "gamma",
        )
        assert KNOWN_CHECKS == tuple(analysis.CHECKS)

    def test_unknown_check_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        assert (
            main(["verify", "--trace", str(out / "trace.txt"), "--checks", "corX"]) == 2
        )

    def test_a_check_list_naming_no_check_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert main(["verify", "--trace", str(out / "trace.txt"), "--checks", " , "]) == 2
        assert capsys.readouterr().err.startswith("--checks names no check; known: step_length,")
        assert not (out / "certificate.json").exists()

    def test_a_check_list_repeating_a_check_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        checks = "lex,lex,bound_adaptive,bound_adaptive"
        assert main(["verify", "--trace", str(out / "trace.txt"), "--checks", checks, "--out", str(tmp_path / "v")]) == 2
        assert capsys.readouterr() == ("", "--checks names 'lex' more than once\n")
        assert not (tmp_path / "v").exists() and not (out / "certificate.json").exists()


# the damaged traces below come from a run with n = 4, p = 2 and 6 epochs:
# #DATA rows [a_i, b_i] are 24 bytes, #NODES rows 32 bytes, #INNER rows
# (alpha, dnorm2, v, d) 40 bytes.  A framing error names a byte offset,
# which depends on the header's length (its provenance), so those cases
# give it from the sections of the undamaged file.


def _edit_section(blob, section, edit):
    return with_payload(blob, section, encode_payload(edit(decode_payload(section_payload(blob, section)))))


def _shift_direction(blob):
    def edit(steps):
        steps = steps.reshape(6, 4, 5)
        steps[2, 0, -1] += 1.0  # the last component of d at step 1 of epoch 2
        return steps

    return _edit_section(blob, "#INNER", edit)


def _insert_byte(blob):
    # the #INNER payload keeps its byte count, so its last byte lands where its newline belongs
    start = section_spans(blob)["#INNER"][1]
    return blob[: start + 500] + b"*" + blob[start + 500 :]


def _edit_section_line(blob, section, edit):
    line, start, _ = section_spans(blob)[section]
    return blob[:line] + edit(blob[line : start - 1].decode()).encode() + blob[start - 1 :]


def _edit_header(blob, edit):
    first, _, rest = blob.partition(b"\n")
    header = json.loads(first)
    edit(header)
    return json.dumps(header).encode() + b"\n" + rest


def _edit_config(blob, edit):
    """The trace with its header's config edited and ``config_sha256`` recomputed, as ``save_trace`` writes it."""
    first, _, rest = blob.partition(b"\n")
    header = json.loads(first)
    config = header.pop("config")
    edit(config)
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode() + b"\n" + section_payload(blob, "#DATA"))
    header["config_sha256"] = digest.hexdigest()
    return (json.dumps(header)[:-1] + ', "config": ' + text + "}\n").encode() + rest


class TestTraceErrors:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda c: c.update(epochs=3.0), "'epochs' must be an integer >= 1, got 3.0"),
            (
                lambda c: c.update(eval_policy={"variant": "mini_batch", "b": 2.0}),
                "'eval_policy.b' must be an integer, got 2.0",
            ),
            (lambda c: c.update(monitor_radius="x"), "'monitor_radius' must be a finite nonnegative number, got 'x'"),
            (lambda c: c.update(track_objective="no"), "'track_objective' must be true or false, got 'no'"),
            (lambda c: c["strategy"].update(alpha="0.5"), "'strategy.alpha' must be a finite number, got '0.5'"),
            (
                lambda c: c.update(perm_policy={"variant": "fixed", "perm": [1.0, 0.0, 2.0, 3.0]}),
                "'perm_policy.perm' must be a list of integers, got [1.0, 0.0, 2.0, 3.0]",
            ),
            (lambda c: c.update(x0=[0.0]), "'x0' must have shape (2,), got (1,)"),
            (lambda c: c["problem"].update(n=4.0), "'problem.n' must be an integer >= 1, got 4.0"),
            (lambda c: c["problem"].update(p=2.0), "'problem.p' must be an integer >= 1, got 2.0"),
            (lambda c: c["problem"].update(seed="3"), "'problem.seed' must be a nonnegative integer, got '3'"),
            (lambda c: c.update(strategy="x"), "'strategy' must be a JSON object, got 'x'"),
        ],
        ids=["float_epochs", "float_batch", "string_radius", "string_track_objective", "string_alpha", "float_perm",
             "short_x0", "float_problem_n", "float_problem_p", "string_problem_seed", "string_strategy"],
    )
    def test_header_fields_are_checked_like_config_fields(self, tmp_path, capsys, edit, message):
        # the config hash is recomputed, so only the field's check can reject the header
        cfg = write_config(tmp_path, problem={"kind": "logistic", "n": 4, "p": 2, "seed": 3}, epochs=6)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        path = out / "trace.txt"
        path.write_bytes(_edit_config(path.read_bytes(), edit))
        with pytest.raises(ValueError) as err:
            wd.load_trace(path)
        assert str(err.value) == f"header: {message}"
        capsys.readouterr()
        assert main(["verify", "--trace", str(path)]) == 2
        assert main(["report", "--trace", str(path)]) == 2
        assert capsys.readouterr().err == f"trace error: header: {message}\n" * 2

    @pytest.mark.parametrize("record_level", ["full", "epoch_only"])
    @pytest.mark.parametrize(
        "strategy",
        [
            {"variant": "constant", "alpha": 0.5},
            {"variant": "decreasing_sqrt"},
            {"variant": "decreasing_cbrt"},
            {"variant": "adaptive"},
        ],
        ids=lambda spec: spec["variant"],
    )
    def test_a_header_strategy_with_n_loads_and_replays(self, tmp_path, strategy, record_level):
        # traces written while a strategy held the problem's n carry it in
        # config.strategy, a key that no strategy has now
        cfg = write_config(tmp_path, problem={"kind": "logistic", "n": 4, "p": 2, "seed": 3}, strategy=strategy,
                           epochs=6, record_level=record_level)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        path = out / "trace.txt"
        old = tmp_path / "old.txt"
        old.write_bytes(_edit_config(path.read_bytes(), lambda c: c["strategy"].update(n=4)))
        assert json.loads(old.read_bytes().partition(b"\n")[0])["config"]["strategy"]["n"] == 4
        fresh, trace = wd.load_trace(path), wd.load_trace(old)
        assert trace.config.strategy == fresh.config.strategy
        for name in NODE_SERIES + EPOCH_SERIES + INNER_FIELDS:
            new, want = getattr(trace, name), getattr(fresh, name)
            assert (new is None and want is None) or (new.dtype, new.shape, new.tobytes()) == (
                want.dtype, want.shape, want.tobytes()
            )
        assert wd.replay(trace) == wd.ReplayReport(True)

    @pytest.mark.parametrize("p", [34, 40, 32, 16, 1])
    def test_relu_net_header_p_must_be_the_parameter_count(self, tmp_path, capsys, p):
        # the 4x2 network has p = 8 * 2 + 2 * 8 + 1 = 33; 34 and 40 give its
        # data columns too, 32 and 16 are no hidden * p_in + 17, 1 none at all
        cfg = write_config(tmp_path, problem={"kind": "relu_net", "n": 4, "p": 2, "seed": 1}, epochs=2)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        path = out / "trace.txt"
        path.write_bytes(_edit_config(path.read_bytes(), lambda c: c["problem"].update(p=p)))
        message = f"header: 'problem.p' must be hidden * p_in + 2 * hidden + 1, got {p} for hidden 8"
        with pytest.raises(ValueError) as err:
            wd.load_trace(path)
        assert str(err.value) == message
        capsys.readouterr()
        assert main(["verify", "--trace", str(path)]) == 2
        assert main(["report", "--trace", str(path)]) == 2
        assert capsys.readouterr().err == f"trace error: {message}\n" * 2

    @pytest.mark.parametrize(
        "damage, where",
        [
            # where the cut lands depends on the header's length (its provenance)
            (lambda blob: blob[: 2 * len(blob) // 3], "#INNER "),
            (lambda blob: _edit_section(blob, "#NODES", lambda a: a[:-4]), "#NODES row 7: missing"),
            (lambda blob: _edit_section(blob, "#INNER", lambda a: a[:-15]), "#INNER 5 row 2: missing"),
            (
                lambda blob: _edit_section(blob, "#INNER", lambda a: np.append(a, a[:5])),
                "#INNER 6 row 1: unexpected",
            ),
            (
                lambda blob: _edit_section_line(blob, "#INNER", lambda line: "#INNER"),
                lambda spans: f"#INNER: section line without a byte count (byte {spans['#INNER'][0]})",
            ),
            (
                _insert_byte,
                lambda spans: f"#INNER: payload not followed by its newline (byte {spans['#INNER'][2]})",
            ),
            (
                lambda blob: blob[: section_spans(blob)["#INNER"][1] - 2],
                lambda spans: f"#INNER: section line without a byte count (byte {spans['#INNER'][0]})",
            ),
            (_shift_direction, "#INNER 2: the derived z_{2,n} differs from x_3 (#NODES row 4)"),
            (
                lambda blob: _edit_section_line(blob, "#EPOCHS", lambda line: line.replace("#EPOCHS", "#EPOCH")),
                lambda spans: f"#EPOCH: unknown section (byte {spans['#EPOCHS'][0]})",
            ),
            (
                lambda blob: _edit_section_line(blob, "#INDEX", lambda line: line.replace("#INDEX", "#NODES")),
                lambda spans: f"#NODES: repeated section (byte {spans['#INDEX'][0]})",
            ),
            (
                lambda blob: _edit_section_line(blob, "#DATA", lambda line: line.lstrip("#")),
                lambda spans: f"byte {spans['#DATA'][0]}: not a section line",
            ),
            (lambda blob: blob[: section_spans(blob)["#INDEX"][0]], "#INDEX: section missing"),
            (lambda blob: _edit_section(blob, "#DATA", lambda a: a[:-3]), "#DATA row 4: missing"),
            (
                lambda blob: _edit_section(blob, "#DATA", lambda a: a * np.array([1.0, 1.0, -1.0] * 4)),
                "header: config hash mismatch",
            ),
            (
                lambda blob: _edit_header(blob, lambda h: h["config"].update(epochs=5)),
                "header: config hash mismatch",
            ),
            (
                lambda blob: _edit_header(blob, lambda h: h.pop("provenance")),
                "header: missing key 'provenance'",
            ),
            (
                lambda blob: _edit_header(blob, lambda h: h.pop("config_sha256")),
                "header: missing key 'config_sha256'",
            ),
        ],
        ids=[
            "cut_at_two_thirds",
            "dropped_node_row",
            "last_three_inner_rows_missing",
            "inner_row_added",
            "section_line_without_byte_count",
            "byte_inserted_into_inner_payload",
            "cut_inside_section_line",
            "shifted_direction",
            "unknown_section",
            "repeated_section",
            "section_line_without_hash",
            "missing_section",
            "data_row_missing",
            "data_label_flipped",
            "edited_config",
            "no_provenance",
            "no_config_hash",
        ],
    )
    def test_damaged_trace_exits_2_naming_the_section(self, tmp_path, capsys, damage, where):
        cfg = write_config(tmp_path, problem={"kind": "logistic", "n": 4, "p": 2, "seed": 3}, epochs=6)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        path = out / "trace.txt"
        blob = path.read_bytes()
        path.write_bytes(damage(blob))
        where = where(section_spans(blob)) if callable(where) else where
        capsys.readouterr()
        checks = "step_length,epoch_descent_tight,lex,summability"
        assert main(["verify", "--trace", str(path), "--checks", checks]) == 2
        assert main(["report", "--trace", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith(f"trace error: {where}") for line in err)


    @pytest.mark.parametrize(
        "text, where",
        [
            (None, "trace error: "),
            ("", "trace error: empty trace file"),
            (
                '{"format": "wrdescent-trace/6", "config_sha256": "", "provenance": {},'
                ' "aborted_at": null, "bound_exceeded_at": null}\n',
                "trace error: header: missing key 'config'",
            ),
            # the loader reads only the format of a file of an earlier trace format
            *(
                (f'{{"format": "wrdescent-trace/{k}"}}\n', "trace error: header: not a wrdescent-trace/6 file")
                for k in range(1, 6)
            ),
        ],
        ids=["missing_file", "empty_file", "header_without_config", "format_v1", "format_v2", "format_v3", "format_v4",
             "format_v5"],
    )
    def test_unreadable_trace_exits_2(self, tmp_path, capsys, text, where):
        path = tmp_path / "trace.txt"
        if text is not None:
            path.write_text(text)
        assert main(["verify", "--trace", str(path)]) == 2
        assert main(["report", "--trace", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith(where) for line in err)


LOGISTIC_SMALL = Path(__file__).parents[1] / "scripts" / "configs" / "logistic_small.json"
# one complete spec per variant of each VARIANT_SECTIONS table, for logistic_small's n = 8
VARIANT_SPECS = {
    "strategy": [
        {"variant": "constant", "alpha": 0.05},
        {"variant": "decreasing_sqrt"},
        {"variant": "decreasing_cbrt"},
        {"variant": "adaptive"},
    ],
    "eval_policy": [
        {"variant": "full_gradient"},
        {"variant": "incremental"},
        {"variant": "mini_batch", "b": 3},
        {"variant": "delayed_async", "max_delay": 2, "seed": 1},
        {"variant": "convex_mix", "seed": 2},
    ],
    "perm_policy": [
        {"variant": "identity"},
        {"variant": "fixed", "perm": [3, 1, 4, 0, 5, 2, 7, 6]},
        {"variant": "shuffled", "seed": 5},
        {"variant": "adversarial"},
    ],
}


def header_config(trace_path) -> dict:
    return json.loads(Path(trace_path).read_bytes().partition(b"\n")[0])["config"]


class TestHeaderAsConfig:
    def test_specs_cover_every_variant(self):
        covered = {section: {spec["variant"] for spec in specs} for section, specs in VARIANT_SPECS.items()}
        assert covered == {section: set(table) for section, table in VARIANT_SECTIONS.items()}

    @pytest.mark.parametrize(
        "section, spec",
        [(section, spec) for section, specs in VARIANT_SPECS.items() for spec in specs],
        ids=lambda value: value if isinstance(value, str) else value["variant"],
    )
    def test_header_config_reruns_the_trace(self, tmp_path, section, spec):
        # a trace header's config, written as a config file, runs the same trace
        doc = json.loads(LOGISTIC_SMALL.read_text())
        doc.update({section: spec, "epochs": 5, "x0": {"kind": "ball", "radius": 0.5, "seed": 4}})
        (tmp_path / "config.json").write_text(json.dumps(doc))
        assert main(["run", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "first")]) == 0
        trace = (tmp_path / "first" / "trace.txt").read_bytes()
        (tmp_path / "header.json").write_text(json.dumps(header_config(tmp_path / "first" / "trace.txt")))
        assert main(["run", "--config", str(tmp_path / "header.json"), "--out", str(tmp_path / "again")]) == 0
        assert (tmp_path / "again" / "trace.txt").read_bytes() == trace

    def test_relu_net_header_is_not_a_config_file(self, tmp_path, capsys):
        # its header p is the parameter count, and it adds hidden and box_radius
        cfg = write_config(tmp_path, problem={"kind": "relu_net", "n": 4, "p": 2, "seed": 1}, epochs=2)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "first")]) == 0
        (tmp_path / "header.json").write_text(json.dumps(header_config(tmp_path / "first" / "trace.txt")))
        capsys.readouterr()
        assert main(["run", "--config", str(tmp_path / "header.json"), "--out", str(tmp_path / "again")]) == 2
        assert capsys.readouterr().err == "config error: unknown config key 'problem.hidden'\n"

    def test_null_seed_header_loads(self, tmp_path):
        # a problem built in process has no seed, and its header says null
        cfg = write_config(tmp_path, epochs=3)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        path = tmp_path / "o" / "trace.txt"
        path.write_bytes(_edit_config(path.read_bytes(), lambda c: c["problem"].update(seed=None)))
        assert wd.load_trace(path).problem.kind.seed is None
        assert main(["verify", "--trace", str(path)]) == 0


# config files, each run and its trace header fuzzed below: they cover every
# top-level key, both x0 forms and a problem kind whose header adds SCALARS
FUZZ_BASES = [
    {**json.loads(LOGISTIC_SMALL.read_text()), "epochs": 4},
    {
        "problem": {"kind": "relu_net", "n": 4, "p": 2, "seed": 1},
        "strategy": {"variant": "constant", "alpha": 0.01},
        "eval_policy": {"variant": "delayed_async", "max_delay": 2, "seed": 5},
        "perm_policy": {"variant": "fixed", "perm": [3, 1, 0, 2]},
        "x0": {"kind": "ball", "radius": 0.5, "seed": 2},
        "epochs": 3,
        "record_level": "full",
        "monitor_radius": 1.5,
        "track_objective": False,
        "output_dir": "out",
    },
    {
        "problem": {"kind": "median", "n": 5, "p": 2, "seed": 3},
        "strategy": {"variant": "decreasing_cbrt", "L": 2.0},
        "eval_policy": {"variant": "mini_batch", "b": 2},
        "perm_policy": {"variant": "shuffled", "seed": 3},
        "x0": [0.5, -0.5],
        "epochs": 3,
    },
]
# any JSON value; ints are small or past every size NumPy takes, never a size that allocates much
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-64, 64)
    | st.integers(2**63, 2**80)
    | st.integers(-(2**80), -(2**63))
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["auto", "full", "zero", "ball", "median", "relu_net", "adaptive", "fixed", "convex_mix"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=4,
)
TRACE_SECTION = re.compile(r"#(DATA|NODES|EPOCHS|INDEX|INNER)\b")


def _paths(doc, prefix=()):
    """The key paths of a document: each dict key, and the first entry of each list."""
    items = doc.items() if isinstance(doc, dict) else [(0, doc[0])] if isinstance(doc, list) and doc else []
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _put(doc, path, value):
    doc = json.loads(json.dumps(doc))
    here = doc
    for key in path[:-1]:
        here = here[key]
    here[path[-1]] = value
    return doc


def _cli(*argv) -> tuple:
    """Exit status and stderr of one command, which must not raise."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), np.errstate(all="ignore"):
        code = main(list(argv))
    assert code in (0, 1, 2), argv
    return code, err.getvalue()


def _assert_names(err: str, prefix: str, path: tuple, trace: bool = False) -> None:
    """A rejection is one line that names the key's section, or, for a
    well-typed header value the recorded arrays contradict, a trace section."""
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert path[0] in err or (trace and TRACE_SECTION.search(err)), (path, err)


@pytest.fixture(scope="module")
def fuzz_traces(tmp_path_factory):
    """The trace file of each FUZZ_BASES config, as bytes."""
    traces = []
    for k, doc in enumerate(FUZZ_BASES):
        tmp = tmp_path_factory.mktemp(f"base{k}")
        (tmp / "config.json").write_text(json.dumps(doc))
        assert main(["run", "--config", str(tmp / "config.json"), "--out", str(tmp)]) == 0
        traces.append((tmp / "trace.txt").read_bytes())
    return traces


class TestAnyValueAtAnyKey:
    @settings(max_examples=120)
    @given(data=st.data())
    def test_config_file(self, data):
        doc = data.draw(st.sampled_from(FUZZ_BASES), label="base")
        path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
        doc = _put(doc, path, data.draw(JSON_VALUES, label="value"))
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "config.json").write_text(json.dumps(doc))
            code, err = _cli("run", "--config", str(Path(tmp) / "config.json"), "--out", tmp)
            if code == 2:
                _assert_names(err, "config error: ", path)
                return
            # what run writes, verify and report read
            trace = str(Path(tmp) / "trace.txt")
            assert _cli("verify", "--trace", trace)[0] in (0, 1)
            assert _cli("report", "--trace", trace)[0] == 0

    @settings(max_examples=120)
    @given(data=st.data())
    def test_trace_header(self, fuzz_traces, data):
        k = data.draw(st.integers(0, len(FUZZ_BASES) - 1), label="base")
        blob = fuzz_traces[k]
        header = json.loads(blob.partition(b"\n")[0])
        marks = [(key,) for key in ("provenance", "aborted_at", "bound_exceeded_at")]
        path = data.draw(st.sampled_from(marks + list(_paths(header["config"]))), label="path")
        value = data.draw(JSON_VALUES, label="value")
        if path in marks:
            # the header line is rewritten, so the config text is made canonical again
            blob = _edit_config(_edit_header(blob, lambda h: h.update({path[0]: value})), lambda c: None)
        else:
            blob = _edit_config(blob, lambda c: c.update(_put(c, path, value)))
        with tempfile.TemporaryDirectory() as tmp:
            trace = Path(tmp) / "trace.txt"
            trace.write_bytes(blob)
            for command in ("verify", "report"):
                code, err = _cli(command, "--trace", str(trace))
                if code == 2:
                    _assert_names(err, "trace error: ", path, trace=True)
            if path not in marks and FUZZ_BASES[k]["problem"]["kind"] != "relu_net":
                config = json.loads(blob.partition(b"\n")[0])["config"]
                (Path(tmp) / "config.json").write_text(json.dumps(config))
                code, err = _cli("run", "--config", str(Path(tmp) / "config.json"), "--out", str(Path(tmp) / "o"))
                if code == 2:
                    _assert_names(err, "config error: ", path)


class TestCmdSweep:
    def test_alpha_grid_three_cells(self, tmp_path):
        cfg = write_config(tmp_path, epochs=40, record_level="epoch_only")
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config",
                str(cfg),
                "--grid",
                "strategy.alpha=0.1,0.5,1.0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        cells = (out / "cells.csv").read_text().splitlines()
        assert len(cells) == 4  # header + 3 cells
        curves = (out / "curves.csv").read_text().splitlines()
        assert curves[0] == "cell,N,min_grad_sq"
        assert len(curves) > 4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_strategy_grid_routes_certificates(self, tmp_path, jobs):
        cfg = write_config(tmp_path, epochs=60, record_level="epoch_only")

        def sweep(out, jobs):
            grid = 'strategy.variant="decreasing_sqrt","adaptive"'
            argv = ["sweep", "--config", str(cfg), "--grid", grid, "--jobs", str(jobs)]
            assert main(argv + ["--out", str(out)]) == 0
            return [(out / name).read_bytes() for name in ("cells.csv", "curves.csv")]

        # a parallel sweep writes the bytes of a serial one
        assert sweep(tmp_path / "sweep", jobs) == sweep(tmp_path / "serial", 1)
        rows = list(csv.reader(io.StringIO((tmp_path / "sweep" / "cells.csv").read_text())))[1:]
        assert [row[1] for row in rows] == [
            'strategy.variant="decreasing_sqrt"',
            'strategy.variant="adaptive"',
        ]
        assert [row[4] for row in rows] == ["decreasing_sqrt=pass", "adaptive=pass"]

    @pytest.mark.parametrize(
        "alphas, jobs, pools",
        [("0.1,0.2", 64, [2]), ("0.1", 64, []), ("0.1,0.2,0.3", 2, [2])],
        ids=["64_jobs_2_cells", "64_jobs_1_cell", "2_jobs_3_cells"],
    )
    def test_jobs_capped_at_the_number_of_cells(self, tmp_path, monkeypatch, alphas, jobs, pools):
        # a process pool forks all of its max_workers at the first submit;
        # the stand-in records the pools asked for and maps in this process
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = write_config(tmp_path, epochs=10, record_level="epoch_only")
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(cfg), "--grid", f"strategy.alpha={alphas}", "--jobs", str(jobs)]
        assert main(argv + ["--out", str(out)]) == 0
        assert asked == pools
        assert len((out / "cells.csv").read_text().splitlines()) == 1 + len(alphas.split(","))

    def test_each_cell_takes_the_horizons_of_its_own_epochs(self, tmp_path):
        cfg = write_config(tmp_path, epochs=10, record_level="epoch_only")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--grid", "epochs=10,400", "--out", str(out)]) == 0
        curves = list(csv.DictReader(io.StringIO((out / "curves.csv").read_text())))
        for cell, epochs in (("0", 10), ("1", 400)):
            Ns = [int(row["N"]) for row in curves if row["cell"] == cell]
            assert Ns == sweep_checkpoints(epochs).tolist()
            assert Ns[-1] == epochs

    def test_grid_of_json_objects_is_not_split_inside_them(self, tmp_path):
        # the axis is one JSON list once bracketed, so its commas inside
        # objects stay; a single object is one cell
        cfg = write_config(tmp_path, epochs=10, record_level="epoch_only")
        for grid, overrides in [
            (
                'eval_policy={"variant":"mini_batch","b":2},{"variant":"incremental"}',
                ['eval_policy={"variant": "mini_batch", "b": 2}', 'eval_policy={"variant": "incremental"}'],
            ),
            ('eval_policy={"variant":"mini_batch","b":2}', ['eval_policy={"variant": "mini_batch", "b": 2}']),
        ]:
            out = tmp_path / f"sweep{len(overrides)}"
            assert main(["sweep", "--config", str(cfg), "--grid", grid, "--out", str(out)]) == 0
            rows = list(csv.reader(io.StringIO((out / "cells.csv").read_text())))[1:]
            assert [row[1] for row in rows] == overrides
            assert [row[5] for row in rows] == [""] * len(overrides)

    def test_empty_grid_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_empty_grid_axis_rejected(self, tmp_path, capsys):
        # not one cell whose value is the empty string
        cfg = write_config(tmp_path)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--grid", "strategy.alpha=", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "empty grid axis 'strategy.alpha'\n"
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        # not quietly run serially
        cfg = write_config(tmp_path)
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(cfg), "--grid", "strategy.alpha=0.1", "--jobs", str(jobs), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"--jobs must be at least 1, got {jobs}\n"
        assert not out.exists()

    def test_grid_without_equals_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--grid", "epochs"]) == 2
        assert capsys.readouterr().err == "--grid expects key=v1,v2,..., got 'epochs'\n"

    def test_failing_cell_recorded_sweep_continues(self, tmp_path):
        cfg = write_config(tmp_path, epochs=5, record_level="epoch_only")
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config",
                str(cfg),
                "--grid",
                'strategy.variant="bogus","decreasing_sqrt"',
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = (out / "cells.csv").read_text().splitlines()[1:]
        assert "bogus" in rows[0] and rows[0].rstrip().endswith('"')  # error column
        assert "decreasing_sqrt=pass" in rows[1]

    def test_cbrt_slope_regression_on_standard_instance(self, tmp_path):
        # burn-in dominated decay on the seeded instance; slope pinned <= -0.55
        cfg = write_config(
            tmp_path,
            problem={"kind": "logistic", "n": 32, "p": 5, "seed": 2024},
            strategy={"variant": "decreasing_cbrt", "L": "auto"},
            epochs=1000,
            record_level="epoch_only",
        )
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config",
                str(cfg),
                "--grid",
                'strategy.variant="decreasing_cbrt"',
                "--out",
                str(out),
            ]
        )
        assert code == 0
        row = (out / "cells.csv").read_text().splitlines()[1].split(",")
        slope = float(row[2])
        assert slope <= -0.55


class TestCmdReport:
    def test_writes_gamma_and_criticality(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=30, record_level="epoch_only")
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        assert main(["report", "--trace", str(out / "trace.txt")]) == 0
        gamma = (out / "gamma.csv").read_text().splitlines()
        assert gamma[0] == "K,tau,gamma,ratio"
        assert len(gamma) == 31
        crit = (out / "criticality.csv").read_text().splitlines()
        assert crit[0] == "K,criticality,surrogate_grad_norm"
        assert "min grad_sq" in capsys.readouterr().out


    def test_non_finite_node_has_nan_criticality(self, tmp_path, capsys):
        # at x_0 = NaN the median's generator set is empty: criticality is
        # NaN there, as the surrogate is, instead of a min-norm point of nothing
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "problem": {"kind": "median", "n": 5, "p": 1, "seed": 3},
                    "strategy": {"variant": "constant", "alpha": 0.1},
                    "epochs": 20,
                    "x0": [math.nan],
                }
            )
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "aborted:" in capsys.readouterr().err
        assert main(["report", "--trace", str(out / "trace.txt")]) == 0
        assert (out / "criticality.csv").read_text() == "K,criticality,surrogate_grad_norm\n0,nan,nan\n"

    def test_trace_without_a_completed_epoch(self, tmp_path, capsys):
        # relu_net whose step overflows at (0, 2): report writes the header
        # of gamma.csv and x_0's criticality row, verify skips gamma and
        # step_length
        cfg = write_config(
            tmp_path,
            problem={"kind": "relu_net", "n": 6, "p": 2, "seed": 1},
            strategy={"variant": "constant", "alpha": 1e308},
            perm_policy={"variant": "adversarial"},
            x0={"kind": "ball", "radius": 0.5, "seed": 1},
        )
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        trace = str(out / "trace.txt")
        assert wd.load_trace(trace).aborted_at == (0, 2)
        capsys.readouterr()
        assert main(["report", "--trace", trace]) == 0
        assert "gamma: no completed epoch" in capsys.readouterr().out
        assert (out / "gamma.csv").read_text() == "K,tau,gamma,ratio\n"
        crit = (out / "criticality.csv").read_text().splitlines()
        assert len(crit) == 2 and crit[1].startswith("0,")
        assert main(["verify", "--trace", trace, "--checks", "gamma,step_length"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "[SKIP] gamma: no completed epoch" in lines
        assert "[SKIP] step_length: no completed epoch" in lines
        for name in ("gamma", "step_length"):
            assert analysis.run_check(wd.load_trace(trace), name) == ("skip", "no completed epoch", None)
        assert sweep_checkpoints(0).tolist() == [0]

    @pytest.mark.parametrize(
        "record_level, reason", [("full", "no completed epoch"), ("epoch_only", "needs full records")]
    )
    def test_lex_skip_names_what_is_missing(self, tmp_path, capsys, record_level, reason):
        # the relu_net run above aborts at (0, 2): a full record of no
        # completed epoch lacks an epoch, an epoch-level one the inner steps;
        # step_length skips for lex's reason, gamma (no inner steps needed)
        # for the missing epoch, through verify and the check table alike
        cfg = write_config(
            tmp_path,
            problem={"kind": "relu_net", "n": 6, "p": 2, "seed": 1},
            strategy={"variant": "constant", "alpha": 1e308},
            perm_policy={"variant": "adversarial"},
            x0={"kind": "ball", "radius": 0.5, "seed": 1},
            record_level=record_level,
        )
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        capsys.readouterr()
        trace = str(out / "trace.txt")
        assert main(["verify", "--trace", trace, "--checks", "lex,step_length,gamma"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name, why in (("lex", reason), ("step_length", reason), ("gamma", "no completed epoch")):
            assert f"[SKIP] {name}: {why}" in lines
            assert analysis.run_check(wd.load_trace(trace), name) == ("skip", why, None)


class TestMain:
    def test_commands_and_options_are_read_per_call(self, tmp_path, monkeypatch):
        # the parser is built once; each call still dispatches to the
        # cmd_* of its time, and its --set list starts empty
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "a"), "--set", "epochs=3"]) == 0
        seen = []
        monkeypatch.setattr(wd.cli, "cmd_run", lambda args: seen.append(args) or 7)
        assert main(["run", "--config", str(cfg)]) == 7
        assert seen[0].set == []
        assert wd.cli.build_parser() is wd.cli.build_parser()


class TestOutputDir:
    @pytest.fixture(params=["nul", "under_a_file"])
    def bad_dir(self, request, tmp_path):
        (tmp_path / "file").write_text("")
        return {"nul": str(tmp_path / "a\x00b"), "under_a_file": str(tmp_path / "file" / "out")}[request.param]

    @pytest.mark.parametrize("command", ["run", "sweep", "verify", "report"])
    def test_unmakeable_output_dir_exits_2(self, tmp_path, capsys, bad_dir, command):
        # run and sweep read it from the config's output_dir, verify and report from --out
        cfg = write_config(tmp_path, epochs=3)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        trace = str(tmp_path / "o" / "trace.txt")
        cfg = write_config(tmp_path, "bad.json", epochs=3, output_dir=bad_dir)
        argv = {
            "run": ["run", "--config", str(cfg)],
            "sweep": ["sweep", "--config", str(cfg), "--grid", "strategy.alpha=0.1,0.2"],
            "verify": ["verify", "--trace", trace, "--out", bad_dir],
            "report": ["report", "--trace", trace, "--out", bad_dir],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"output error: cannot make the directory {bad_dir!r}: ")
        assert captured.err.count("\n") == 1


class TestComponentsBuiltOnlyByRun:
    @pytest.mark.parametrize("kind", wd.problems.PROBLEM_KINDS)
    def test_only_run_builds_the_component_oracles(self, tmp_path, capsys, built, kind):
        # loads, checks, replay's record check and report read the kind alone
        wd.make_problem(kind, 6, 2, 3)
        assert built == []
        cfg = write_config(tmp_path, problem={"kind": kind, "n": 6, "p": 2, "seed": 3}, epochs=4,
                           x0={"kind": "ball", "radius": 0.5, "seed": 1})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(built) == 6
        built.clear()
        trace = wd.load_trace(out / "trace.txt")
        assert built == []
        assert main(["verify", "--trace", str(out / "trace.txt"), "--checks", ",".join(KNOWN_CHECKS)]) in (0, 1)
        assert len(KNOWN_CHECKS) == 11 and built == []
        assert wd.replay(trace).ok and built == []
        assert main(["report", "--trace", str(out / "trace.txt")]) == 0
        assert built == []
        # a record the check declines is re-run, which builds them
        trace.config = dataclasses.replace(trace.config, epochs=3)
        assert not wd.replay(trace).ok
        assert len(built) == 6


class TestHelpers:
    def test_loglog_slope_recovers_power_law(self):
        ns = np.array([10, 100, 1000])
        assert fit_loglog_slope(ns, 5.0 * ns ** (-2.0 / 3.0)) == approx(-2.0 / 3.0)

    def test_checkpoints_span_range(self):
        cps = sweep_checkpoints(10_000)
        assert cps[0] == 100 and cps[-1] == 10_000
        assert np.all(np.diff(cps) > 0)
