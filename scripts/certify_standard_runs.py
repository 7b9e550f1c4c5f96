#!/usr/bin/env python3
"""Run the standard certification battery on the seeded logistic instance.

One run per rate rule (N epochs each), every matched rate certificate
evaluated at all horizons, plus full-record diagnostic runs for the
step-length and per-epoch descent checks.  Writes certificate CSVs and a
summary table; exits nonzero if any certified quantity fails.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

import wrdescent as wd


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=32)
    ap.add_argument("--p", type=int, default=5)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--epochs", type=int, default=2000)
    ap.add_argument("--out", default="out/certify")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    problem = wd.make_problem("logistic", args.n, args.p, args.seed)
    L, n = problem.L, problem.n
    runs = {
        "constant": wd.Constant(2.0 / L),
        "constant_with_l": wd.Constant(0.5 / L),
        "decreasing_sqrt": wd.DecreasingSqrt(),
        "decreasing_cbrt": wd.DecreasingCbrtWithL(L),
        "adaptive": wd.Adaptive.recommended(n),
    }

    failed = False
    for rule, strategy in runs.items():
        config = wd.RunConfig(
            problem=problem,
            strategy=strategy,
            eval_policy=wd.Incremental(),
            perm_policy=wd.ShuffledPerEpoch(5),
            x0=np.zeros(problem.p),
            epochs=args.epochs,
            record_level="epoch_only",
        )
        trace = wd.run(config)
        cert = wd.certify_run(trace, rule)[0]
        status = "pass" if cert.ok else "FAIL"
        print(f"{rule:18s} {status}  min slack {cert.slack[cert.worst]:.3e} at N={cert.N[cert.worst]}")
        failed = failed or not cert.ok
        cert.write_csv(out / f"certificate_{rule}.csv")

    # full-record diagnostics on a shorter adaptive run
    config = wd.RunConfig(
        problem=problem,
        strategy=wd.Adaptive.recommended(n),
        eval_policy=wd.Incremental(),
        perm_policy=wd.ShuffledPerEpoch(5),
        x0=np.zeros(problem.p),
        epochs=min(500, args.epochs),
        record_level="full",
    )
    trace = wd.run(config)
    for name, rep in [
        ("step_length", wd.check_step_length_bound_trace(trace)),
        ("epoch_descent_tight", wd.check_epoch_descent_tight_trace(trace)),
        ("summability", wd.check_summability_ada(trace)),
    ]:
        status = "pass" if rep.ok else "FAIL"
        print(f"{name:18s} {status}  rel slack {rep.rel_slack:.3e}")
        failed = failed or not rep.ok
    ratio = wd.check_adaptive_ratio_bound(trace)
    print(
        f"{'ratio bound':18s} {'pass' if ratio['ok_with_M_squared'] else 'FAIL'}  "
        f"max {ratio['max_ratio']:.6f} vs M^2-bound {ratio['bound_with_M_squared']:.3f} "
        f"(M-variant bound {ratio['bound_with_M']:.3f}, "
        f"holds: {ratio['ok_with_M']})"
    )
    failed = failed or not ratio["ok_with_M_squared"]
    print(f"certificates written to {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
