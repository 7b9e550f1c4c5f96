"""Command-line surface: run, verify, sweep, report.

    wrdescent run    --config cfg.json [--out DIR] [--set key=value ...]
    wrdescent verify --trace trace.txt [--checks step_length,bound_adaptive,...]
    wrdescent sweep  --config cfg.json --grid key=v1,v2[,v3...] [--jobs J]
    wrdescent report --trace trace.txt [--out DIR]

All data files are reproducible from the config and its seeds; numbers in
the CSV and JSON outputs are serialized at full precision so certificates
can be re-checked externally, and trace files hold raw float64 bits.
Exit codes: 0 success / all checks passed, 1 failed checks or aborted run,
2 bad configuration or arguments, an unreadable trace or an output
directory that cannot be made.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, flows
from .config import ConfigError, ExperimentConfig, load_config, parse_value, set_key
from .engine import _fmt, load_trace, run, save_trace, write_summary_csv
from .problems import UnsupportedProblem
from .steps import check_lex_monotone  # noqa: F401  (perfbench/tracing.py patches this name here)

KNOWN_CHECKS = tuple(analysis.CHECKS)


def _apply_overrides(doc: dict, pairs: list[str]) -> dict:
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        set_key(doc, key, parse_value(value))
    return doc


def _load_config_with_overrides(args) -> ExperimentConfig:
    return ExperimentConfig.from_dict(_apply_overrides(load_config(args.config).to_dict(), args.set))


def _output_dir(path):
    """The directory ``path``, made with its parents, or None after printing why it cannot be made."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as err:  # ValueError: a path holding NUL
        print(f"output error: cannot make the directory {str(path)!r}: {err}", file=sys.stderr)
        return None
    return out


def cmd_run(args) -> int:
    cfg = _load_config_with_overrides(args)
    run_config = cfg.build()
    out = _output_dir(args.out or cfg.doc["output_dir"])
    if out is None:
        return 2
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
    if not checks:
        print(f"--checks names no check; known: {', '.join(KNOWN_CHECKS)}", file=sys.stderr)
        return 2
    for k, c in enumerate(checks):
        if c not in KNOWN_CHECKS:
            print(f"unknown check {c!r}; known: {', '.join(KNOWN_CHECKS)}", file=sys.stderr)
            return 2
        if c in checks[:k]:
            print(f"--checks names {c!r} more than once", file=sys.stderr)
            return 2
    out = _output_dir(args.out or Path(args.trace).parent)
    if out is None:
        return 2
    results = {}
    failed = False
    for name in checks:
        status, detail, cert = analysis.run_check(trace, name)
        results[name] = {"status": status, "detail": detail}
        print(f"[{status.upper():4s}] {name}: {detail}")
        failed = failed or status == "fail"
        if cert is not None:
            cert.write_csv(out / f"certificate_{name}.csv")
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
    # log-spaced horizons over roughly the last two decades of the run; a
    # run with no completed epoch has the one horizon 0
    if epochs < 1:
        return np.zeros(1, dtype=int)
    lo = max(1, epochs // 100)
    grid = np.unique(
        np.round(np.logspace(math.log10(lo), math.log10(epochs), count)).astype(int)
    )
    return grid


def _sweep_cell(payload):
    doc, overrides = payload
    try:
        doc = _apply_overrides(json.loads(json.dumps(doc)), overrides)
        run_config = ExperimentConfig.from_dict(doc).build()
    except ConfigError as err:
        # a failing cell is recorded, the sweep continues
        return {"overrides": overrides, "error": str(err)}
    trace = run(run_config)
    if trace.aborted_at is not None:
        return {"overrides": overrides, "error": f"aborted at {trace.aborted_at}"}
    running = trace.running_min_grad_sq()
    checkpoints = sweep_checkpoints(run_config.epochs)  # the cell's own horizons, as a grid may set epochs
    curve = [(int(N), float(running[N])) for N in checkpoints if N <= trace.epochs_completed]
    rules = trace.config.strategy.rate_params(trace.problem) if trace.problem.is_smooth else {}
    certs = [(rule, analysis.run_check(trace, f"bound_{rule}")[0]) for rule in rules]
    return {
        "overrides": overrides,
        "curve": curve,
        "slope": fit_loglog_slope([n for n, _ in curve], [v for _, v in curve]),
        "final_min_grad_sq": float(running[trace.epochs_completed]),
        "certificates": certs,
    }


def _quote(text: str) -> str:
    """``text`` as a quoted CSV field, embedded quotes doubled (RFC 4180)."""
    return '"' + text.replace('"', '""') + '"'


def cmd_sweep(args) -> int:
    cfg = _load_config_with_overrides(args)
    axes = []
    for spec in args.grid:
        if "=" not in spec:
            print(f"--grid expects key=v1,v2,..., got {spec!r}", file=sys.stderr)
            return 2
        key, _, values = spec.partition("=")
        if not values:
            print(f"empty grid axis {key!r}", file=sys.stderr)
            return 2
        try:  # an axis that reads as one JSON list once bracketed keeps its objects whole
            parsed = json.loads(f"[{values}]")
        except json.JSONDecodeError:
            parsed = [parse_value(v) for v in values.split(",")]
        axes.append([(key, v) for v in parsed])
    if not axes:
        print("sweep needs at least one --grid axis", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"--jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    doc = cfg.to_dict()
    cells = [(doc, [f"{k}={json.dumps(v)}" for k, v in combo]) for combo in itertools.product(*axes)]
    out = _output_dir(args.out or cfg.doc["output_dir"])
    if out is None:
        return 2
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # about 25 ms to import, so only here

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_cell, cells))
    else:
        results = [_sweep_cell(c) for c in cells]

    cell_rows = ["cell,overrides,slope,final_min_grad_sq,certificates,error"]
    curve_rows = ["cell,N,min_grad_sq"]
    for idx, res in enumerate(results):
        ov = _quote(" ".join(res["overrides"]))
        if "error" in res:
            cell_rows.append(f'{idx},{ov},,,,{_quote(res["error"])}')
            continue
        certs = _quote(";".join(f"{rule}={status}" for rule, status in res["certificates"]))
        cell_rows.append(
            f'{idx},{ov},{_fmt(res["slope"])},{_fmt(res["final_min_grad_sq"])},{certs},'
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
    out = _output_dir(args.out or Path(args.trace).parent)
    if out is None:
        return 2
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
        try:  # nan where x_K is not finite, whose generator set may be empty
            measure = flows.criticality_measure(problem, x).measure if np.isfinite(x).all() else math.nan
        except UnsupportedProblem:
            measure = math.nan
        rows.append(f"{K},{_fmt(measure)},{_fmt(surrogate)}")
    (out / "criticality.csv").write_text("\n".join(rows) + "\n")

    running = trace.running_min_grad_sq()
    print(f"epochs: {trace.epochs_completed}  (record level {trace.config.record_level})")
    print(f"final F: {_fmt(trace.f_vals[trace.epochs_completed])}")
    print(f"min grad_sq: {_fmt(running[trace.epochs_completed])}")
    if trace.epochs_completed:
        print(f"gamma: initial {_fmt(gt.gammas[0])}, final {_fmt(gt.gammas[-1])}")
    else:
        print("gamma: no completed epoch")
    if trace.bound_exceeded_at is not None:
        print(f"box exit at epoch {trace.bound_exceeded_at}")
    print(f"wrote {out / 'gamma.csv'} and {out / 'criticality.csv'}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wrdescent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    p_verify = sub.add_parser("verify", help="certify checks on a recorded trace")
    p_verify.add_argument("--trace", required=True)
    p_verify.add_argument("--checks", default="step_length,epoch_descent_tight,lex")
    p_verify.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="grid of runs with aggregated rate table")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--grid", action="append", default=[], metavar="KEY=V1,V2")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    p_report = sub.add_parser("report", help="digest and diagnostic CSVs for a trace")
    p_report.add_argument("--trace", required=True)
    p_report.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up at call time, so a replaced cmd_* is the one called
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
