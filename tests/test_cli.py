import json
import re
from dataclasses import fields

import numpy as np
import pytest
from pytest import approx

import wrdescent as wd
from wrdescent.cli import fit_loglog_slope, main, sweep_checkpoints
from wrdescent.config import ExperimentConfig, load_config, save_config
from wrdescent.engine import VARIANT_SECTIONS


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
        assert run_config.strategy.beta == approx(4.0)
        assert run_config.strategy.delta == approx(8.0)

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

    def test_unknown_check_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        assert (
            main(["verify", "--trace", str(out / "trace.txt"), "--checks", "corX"]) == 2
        )


def _drop_node_row(text):
    lines = text.splitlines(keepends=True)
    del lines[lines.index("#NODES\n") + 4]  # the row of x_2
    return "".join(lines)


class TestTraceErrors:
    @pytest.mark.parametrize(
        "damage, where",
        [
            (lambda text: text[: 2 * len(text) // 3], "#"),
            (_drop_node_row, "#NODES row 3"),
            (lambda text: "".join(text.splitlines(keepends=True)[:-3]), "#INNER 5 row 2"),
        ],
        ids=["cut_at_two_thirds", "dropped_node_row", "last_three_inner_rows_missing"],
    )
    def test_damaged_trace_exits_2_naming_the_section(self, tmp_path, capsys, damage, where):
        cfg = write_config(tmp_path, problem={"kind": "logistic", "n": 4, "p": 2, "seed": 3}, epochs=6)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        path = out / "trace.txt"
        path.write_text(damage(path.read_text()))
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
            ('{"format": "wrdescent-trace/2"}\n', "trace error: header: missing key 'config'"),
            ('{"format": "wrdescent-trace/1"}\n', "trace error: header: not a wrdescent-trace/2 file"),
        ],
        ids=["missing_file", "header_without_config", "format_v1"],
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

    def test_strategy_grid_routes_certificates(self, tmp_path):
        cfg = write_config(tmp_path, epochs=60, record_level="epoch_only")
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config",
                str(cfg),
                "--grid",
                'strategy.variant="decreasing_sqrt","adaptive"',
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = (out / "cells.csv").read_text().splitlines()[1:]
        assert "decreasing_sqrt=pass" in rows[0]
        assert "adaptive=pass" in rows[1]

    def test_empty_grid_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg)]) == 2

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


class TestHelpers:
    def test_loglog_slope_recovers_power_law(self):
        ns = np.array([10, 100, 1000])
        assert fit_loglog_slope(ns, 5.0 * ns ** (-2.0 / 3.0)) == approx(-2.0 / 3.0)

    def test_checkpoints_span_range(self):
        cps = sweep_checkpoints(10_000)
        assert cps[0] == 100 and cps[-1] == 10_000
        assert np.all(np.diff(cps) > 0)
