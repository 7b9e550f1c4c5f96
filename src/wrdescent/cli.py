"""Command-line surface: run, verify, sweep, report.

    wrdescent run    --config cfg.json [--out DIR] [--set key=value ...]
    wrdescent verify --trace trace.txt [--checks step_length,bound_adaptive,...]
    wrdescent sweep  --config cfg.json --grid key=v1,v2[,v3...] [--jobs J]
    wrdescent report --trace trace.txt [--out DIR]

All data files are reproducible from the config and its seeds; numbers are
serialized at full precision so certificates can be re-checked externally.
Exit codes: 0 success / all checks passed, 1 failed checks or aborted run,
2 bad configuration or arguments.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import analysis, flows
from .config import ConfigError, ExperimentConfig, load_config, parse_value, set_key
from .engine import _fmt, load_trace, run, save_trace, write_summary_csv
from .problems import UnsupportedProblem
from .steps import check_lex_monotone

KNOWN_CHECKS = (
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


def _apply_overrides(doc: dict, pairs: list[str]) -> dict:
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        set_key(doc, key, parse_value(value))
    return doc


def _load_config_with_overrides(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if args.set:
        doc = cfg.to_dict()
        _apply_overrides(doc, args.set)
        cfg = ExperimentConfig.from_dict(doc)
    return cfg


def cmd_run(args) -> int:
    try:
        cfg = _load_config_with_overrides(args)
        run_config = cfg.build()
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    out = Path(args.out or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace = run(run_config)
    save_trace(trace, out / "trace.txt")
    write_summary_csv(trace, out / "summary.csv")
    if trace.bound_exceeded_at is not None:
        print(f"note: iterate left the monitored box at epoch {trace.bound_exceeded_at}")
    if trace.aborted_at is not None:
        K, i = trace.aborted_at
        print(f"aborted: non-finite value at epoch {K}, inner step {i}", file=sys.stderr)
        return 1
    print(f"run complete: {trace.epochs_completed} epochs -> {out}")
    return 0


def _verify_one(trace, name: str):
    """(status, detail, certificate) with status in {'pass', 'fail', 'skip'}.

    certificate is the rate certificate of a bound_* check that ran, else None.
    """
    problem = trace.problem
    if name == "step_length":
        if trace.config.record_level != "full":
            return "skip", "needs full records", None
        rep = analysis.check_step_length_bound_trace(trace)
        return ("pass" if rep.ok else "fail"), f"min rel slack {rep.rel_slack:.3e}", None
    if name in ("epoch_descent", "epoch_descent_tight"):
        if trace.config.record_level != "full":
            return "skip", "needs full records", None
        if not problem.is_smooth:
            return "skip", "needs a smooth problem", None
        if trace.epochs_completed < 2:
            return "skip", "needs at least 2 epochs", None
        checker = (
            analysis.check_epoch_descent_trace
            if name == "epoch_descent"
            else analysis.check_epoch_descent_tight_trace
        )
        rep = checker(trace)
        return ("pass" if rep.ok else "fail"), f"min rel slack {rep.rel_slack:.3e}", None
    if name == "lex":
        if trace.config.record_level != "full" or not trace.records:
            return "skip", "needs full records", None
        rep = check_lex_monotone([rec.alpha for rec in trace.records])
        return ("pass" if rep.ok else "fail"), f"violation {rep.violation}", None
    if name.startswith("bound_"):
        rule = name[len("bound_"):]
        if not problem.is_smooth:
            return "skip", "needs a smooth problem", None
        if rule not in analysis.matching_rate_rules(trace):
            return "skip", "strategy does not match this rate rule", None
        cert = analysis.certify_run(trace, rule)[0]
        worst = min(cert.reports, key=lambda r: r.slack)
        return (
            ("pass" if cert.ok else "fail"),
            f"{len(cert.reports)} horizons, min slack {worst.slack:.3e} at N={worst.N}",
            cert,
        )
    if name == "summability":
        if trace.config.record_level != "full":
            return "skip", "needs full records", None
        try:
            rep = analysis.check_summability_ada(trace)
        except ValueError as err:
            return "skip", str(err), None
        return ("pass" if rep.ok else "fail"), f"rel slack {rep.rel_slack:.3e}", None
    if name == "gamma":
        gt = flows.gamma_trace(trace)
        if gt.lambda_bound_ok is None:
            ok = bool(np.all(gt.ratios >= 1.0 - 1e-12))
            return ("pass" if ok else "fail"), "epoch-level ratios only", None
        return (
            ("pass" if gt.lambda_bound_ok else "fail"),
            f"max hull-weight excess {gt.max_lambda_excess:.3e}",
            None,
        )
    return "skip", "unknown check", None


def _load_trace_or_report(path):
    """The trace at ``path``, or None after printing why it cannot be read."""
    try:
        return load_trace(path)
    except (OSError, ValueError) as err:
        print(f"trace error: {err}", file=sys.stderr)
        return None


def cmd_verify(args) -> int:
    trace = _load_trace_or_report(args.trace)
    if trace is None:
        return 2
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    for c in checks:
        if c not in KNOWN_CHECKS:
            print(f"unknown check {c!r}; known: {', '.join(KNOWN_CHECKS)}", file=sys.stderr)
            return 2
    out = Path(args.out) if args.out else Path(args.trace).parent
    out.mkdir(parents=True, exist_ok=True)
    results = {}
    failed = False
    for name in checks:
        try:
            status, detail, cert = _verify_one(trace, name)
        except (UnsupportedProblem, ValueError) as err:
            status, detail, cert = "skip", str(err), None
        results[name] = {"status": status, "detail": detail}
        print(f"[{status.upper():4s}] {name}: {detail}")
        failed = failed or status == "fail"
        if cert is not None:
            rows = ["N,bound,observed,slack,pass"]
            rows += [
                f"{r.N},{_fmt(r.bound)},{_fmt(r.observed)},{_fmt(r.slack)},{int(r.ok)}"
                for r in cert.reports
            ]
            (out / f"certificate_{name}.csv").write_text("\n".join(rows) + "\n")
    (out / "certificate.json").write_text(json.dumps(results, indent=2) + "\n")
    return 1 if failed else 0


def fit_loglog_slope(ns, values) -> float:
    """Least-squares slope of log(values) against log(ns)."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = values > 0
    x = np.log(ns[mask])
    y = np.log(values[mask])
    if len(x) < 2:
        return math.nan
    return float(np.polyfit(x, y, 1)[0])


def sweep_checkpoints(epochs: int, count: int = 13) -> np.ndarray:
    # log-spaced horizons over roughly the last two decades of the run
    lo = max(1, epochs // 100)
    grid = np.unique(
        np.round(np.logspace(math.log10(lo), math.log10(epochs), count)).astype(int)
    )
    return grid


def _sweep_cell(payload):
    doc, overrides, checkpoints = payload
    doc = json.loads(json.dumps(doc))
    try:
        _apply_overrides(doc, overrides)
        cfg = ExperimentConfig.from_dict(doc)
        run_config = cfg.build()
    except ConfigError as err:
        # a failing cell is recorded, the sweep continues
        return {"overrides": overrides, "error": str(err)}
    trace = run(run_config)
    if trace.aborted_at is not None:
        return {"overrides": overrides, "error": f"aborted at {trace.aborted_at}"}
    running = trace.running_min_grad_sq()
    curve = [(int(N), float(running[N])) for N in checkpoints if N <= trace.epochs_completed]
    certs = []
    try:
        if trace.problem.is_smooth:
            certs = [
                (c.rule, c.ok) for c in analysis.certify_run(trace)
            ]
    except ValueError:
        certs = []
    return {
        "overrides": overrides,
        "curve": curve,
        "slope": fit_loglog_slope([n for n, _ in curve], [v for _, v in curve]),
        "final_min_grad_sq": float(running[trace.epochs_completed]),
        "certificates": certs,
    }


def cmd_sweep(args) -> int:
    try:
        cfg = _load_config_with_overrides(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    axes = []
    for spec in args.grid:
        if "=" not in spec:
            print(f"--grid expects key=v1,v2,..., got {spec!r}", file=sys.stderr)
            return 2
        key, _, values = spec.partition("=")
        parsed = [parse_value(v) for v in values.split(",")]
        if not parsed:
            print(f"empty grid axis {key!r}", file=sys.stderr)
            return 2
        axes.append([(key, v) for v in parsed])
    if not axes:
        print("sweep needs at least one --grid axis", file=sys.stderr)
        return 2
    doc = cfg.to_dict()
    checkpoints = sweep_checkpoints(cfg.epochs)
    cells = [
        (doc, [f"{k}={json.dumps(v)}" for k, v in combo], checkpoints)
        for combo in itertools.product(*axes)
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_cell, cells))
    else:
        results = [_sweep_cell(c) for c in cells]

    out = Path(args.out or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    cell_rows = ["cell,overrides,slope,final_min_grad_sq,certificates,error"]
    curve_rows = ["cell,N,min_grad_sq"]
    for idx, res in enumerate(results):
        ov = " ".join(res["overrides"])
        if "error" in res:
            cell_rows.append(f'{idx},"{ov}",,,,"{res["error"]}"')
            continue
        certs = ";".join(f"{rule}={'pass' if ok else 'fail'}" for rule, ok in res["certificates"])
        cell_rows.append(
            f'{idx},"{ov}",{_fmt(res["slope"])},{_fmt(res["final_min_grad_sq"])},"{certs}",'
        )
        for N, v in res["curve"]:
            curve_rows.append(f"{idx},{N},{_fmt(v)}")
    (out / "cells.csv").write_text("\n".join(cell_rows) + "\n")
    (out / "curves.csv").write_text("\n".join(curve_rows) + "\n")
    print(f"sweep complete: {len(results)} cells -> {out}")
    return 0


def cmd_report(args) -> int:
    trace = _load_trace_or_report(args.trace)
    if trace is None:
        return 2
    out = Path(args.out) if args.out else Path(args.trace).parent
    out.mkdir(parents=True, exist_ok=True)
    problem = trace.problem

    gt = flows.gamma_trace(trace)
    rows = ["K,tau,gamma,ratio"]
    for K in range(trace.epochs_completed):
        rows.append(f"{K},{_fmt(gt.taus[K])},{_fmt(gt.gammas[K])},{_fmt(gt.ratios[K])}")
    (out / "gamma.csv").write_text("\n".join(rows) + "\n")

    checkpoints = sweep_checkpoints(trace.epochs_completed, count=16)
    rows = ["K,criticality,surrogate_grad_norm"]
    for K in checkpoints:
        x = trace.xs[K]
        surrogate = math.sqrt(max(trace.grad_sq[K], 0.0)) if np.isfinite(trace.grad_sq[K]) else math.nan
        try:
            measure = flows.criticality_measure(problem, x).measure
        except UnsupportedProblem:
            measure = math.nan
        rows.append(f"{K},{_fmt(measure)},{_fmt(surrogate)}")
    (out / "criticality.csv").write_text("\n".join(rows) + "\n")

    running = trace.running_min_grad_sq()
    print(f"epochs: {trace.epochs_completed}  (record level {trace.config.record_level})")
    print(f"final F: {_fmt(trace.f_vals[trace.epochs_completed])}")
    print(f"min grad_sq: {_fmt(running[trace.epochs_completed])}")
    print(f"gamma: initial {_fmt(gt.gammas[0])}, final {_fmt(gt.gammas[-1])}")
    if trace.bound_exceeded_at is not None:
        print(f"box exit at epoch {trace.bound_exceeded_at}")
    print(f"wrote {out / 'gamma.csv'} and {out / 'criticality.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wrdescent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="certify checks on a recorded trace")
    p_verify.add_argument("--trace", required=True)
    p_verify.add_argument("--checks", default="step_length,epoch_descent_tight,lex")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="grid of runs with aggregated rate table")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--grid", action="append", default=[], metavar="KEY=V1,V2")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="digest and diagnostic CSVs for a trace")
    p_report.add_argument("--trace", required=True)
    p_report.add_argument("--out", default=None)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
