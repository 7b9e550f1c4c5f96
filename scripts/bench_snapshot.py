#!/usr/bin/env python3
"""Fold alternating parent/change benchmark runs into one BENCH_<label>.json.

    python scripts/bench_snapshot.py --label trace_v4 \\
        --parent certify-grid=runs/p1.json --change certify-grid=runs/c1.json ... \\
        [--out DIR]

Each run is a result file of ``perfbench/run.py``, which writes it to
``.perfbench/result-<workload>-seed<s>-trace<t>.json`` and overwrites it
on the next run with the same workload, seed and trace setting: copy it
away after each run.  Within a workload the k-th ``--parent`` and the k-th
``--change`` run form pair k.  The end-to-end metrics named in
BENCHMARK.json are computed from each run's untraced samples, with the
harness's own ``end_to_end``, so a ``--trace 1`` result serves as well.

For each workload and metric the output holds both sides' per-run values,
medians and quartiles, the change/parent ratio of the medians and the
pairs the change won (ties count for neither side); the environment block
is the first change run's.  Exit status 0 with the file written, 2 on bad
arguments or a run that lacks a metric.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _harness():
    """perfbench/run.py as a module, for its ``end_to_end``."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(specs: list[str]) -> dict:
    """{workload: [path, ...]} from WORKLOAD=PATH arguments, in order."""
    runs: dict = {}
    for spec in specs:
        workload, sep, path = spec.partition("=")
        if not sep or not workload or not path:
            raise ValueError(f"expected WORKLOAD=PATH, got {spec!r}")
        runs.setdefault(workload, []).append(Path(path))
    return runs


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def snapshot(label: str, parent: dict, change: dict, benchmark: dict) -> dict:
    """The BENCH document of paired runs, {workload: [path, ...]} per side."""
    end_to_end = _harness().end_to_end
    if set(parent) != set(change):
        raise ValueError(f"workloads differ: parent {sorted(parent)}, change {sorted(change)}")
    out = {"label": label, "environment": None, "workloads": {}}
    for workload in parent:
        if len(parent[workload]) != len(change[workload]):
            raise ValueError(
                f"{workload}: {len(parent[workload])} parent runs, {len(change[workload])} change runs"
            )
        sides = {}
        for side, paths in (("parent", parent[workload]), ("change", change[workload])):
            docs = [json.loads(path.read_text()) for path in paths]
            if side == "change" and out["environment"] is None:
                out["environment"] = docs[0]["environment"]
            sides[side] = {
                "values": [end_to_end(doc["samples"])[0] for doc in docs],
                "failed": sum(doc["result"]["failed"] for doc in docs),
                "attempted": sum(doc["result"]["attempted"] for doc in docs),
            }
        metrics = {}
        for metric in benchmark["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            p, c = ([run[name] for run in sides[s]["values"]] for s in ("parent", "change"))
            base, new = _summary(p), _summary(c)
            metrics[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": base,
                "change": new,
                "ratio": new["median"] / base["median"] if base["median"] else None,
                "wins": sum((b < a) if lower else (b > a) for a, b in zip(p, c)),
            }
        out["workloads"][workload] = {
            "pairs": len(parent[workload]),
            "runs": [{"parent": a.name, "change": b.name} for a, b in zip(parent[workload], change[workload])],
            "operations": {s: {k: sides[s][k] for k in ("failed", "attempted")} for s in sides},
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    ap.add_argument("--parent", action="append", default=[], metavar="WORKLOAD=PATH")
    ap.add_argument("--change", action="append", default=[], metavar="WORKLOAD=PATH")
    ap.add_argument("--out", type=Path, default=ROOT, help="directory to write to (default: the checkout)")
    args = ap.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        doc = snapshot(args.label, _runs(args.parent), _runs(args.change), benchmark)
    except (ValueError, KeyError, OSError) as err:
        print(f"bench_snapshot: {err}", file=sys.stderr)
        return 2
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for workload, entry in doc["workloads"].items():
        ratios = ", ".join(
            f"{name} {m['ratio']:.3f} ({m['wins']}/{entry['pairs']})"
            for name, m in entry["metrics"].items()
            if m["ratio"] is not None
        )
        print(f"{workload}: change/parent medians {ratios}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
