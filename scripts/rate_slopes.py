#!/usr/bin/env python3
"""Decay-rate comparison of the step rules on a margin-separated instance.

Labels come from a random teacher direction, so the objective's infimum is
exactly zero and the minimum-gradient curves show the asymptotic separation
between the sqrt rule and the faster cube-root/adaptive rules.  Emits a
long-format CSV (rule, N, min_grad_sq) and prints the fitted log-log slopes.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

import wrdescent as wd
from wrdescent.cli import fit_loglog_slope


def separable_logistic(n, p, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, p))
    w = rng.standard_normal(p)
    w /= np.linalg.norm(w)
    b = np.sign(A @ w)
    b[b == 0] = 1.0
    return wd.logistic_problem(A, b, seed=seed)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=32)
    ap.add_argument("--p", type=int, default=5)
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--epochs", type=int, default=10_000)
    ap.add_argument("--out", default="out/rate_slopes")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    problem = separable_logistic(args.n, args.p, args.seed)
    strategies = {
        "decreasing_sqrt": wd.DecreasingSqrt(),
        "decreasing_cbrt": wd.DecreasingCbrtWithL(problem.L),
        "adaptive": wd.Adaptive.recommended(problem.n),
    }
    checkpoints = np.unique(
        np.round(np.logspace(2, np.log10(args.epochs), 13)).astype(int)
    )
    rows = ["rule,N,min_grad_sq"]
    for name, strategy in strategies.items():
        config = wd.RunConfig(
            problem=problem,
            strategy=strategy,
            eval_policy=wd.Incremental(),
            perm_policy=wd.ShuffledPerEpoch(3),
            x0=np.zeros(problem.p),
            epochs=args.epochs,
            record_level="epoch_only",
        )
        trace = wd.run(config)
        running = trace.running_min_grad_sq()
        for N in checkpoints:
            rows.append(f"{name},{N},{float(running[N])!r}")
        slope = fit_loglog_slope(checkpoints, running[checkpoints])
        print(f"{name:18s} slope {slope:+.3f}  min grad_sq {running[-1]:.3e}")
    (out / "curves.csv").write_text("\n".join(rows) + "\n")
    print(f"curves written to {out / 'curves.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
