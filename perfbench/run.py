"""wrdescent benchmark: end-to-end and per-layer timings of the CLI pipeline.

    python3 perfbench/run.py --workload certify-grid --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  Workloads are defined in workloads.py.  A pass runs every cell
of the workload in order, each cell in a fresh process (child.py) with BLAS
and OpenMP pinned to one thread.  Cells cycle while the next one is expected
to end within ``--seconds``; there is always one full pass.

Timings are in seconds at the reference speed (pace.py): each child
times a fixed loop every 40 ms and scales its measured seconds by how much
slower than the reference the host ran meanwhile, because the shared hosts
it runs on change speed by a factor of two or more within seconds.  The raw
seconds are printed next to each value and saved.  A timing's value is one
pass's worth: the sum over cells of each cell's median sample.  setup_s is
the median over every cell process of the time from its start to its first
command.  ``--trace 0`` prints the end-to-end
metrics from untraced samples.  ``--trace 1`` alternates untraced and
traced passes and prints the per-layer metrics of layers.json from the
traced samples, including the tracing overhead (traced minus untraced
wall_s).  The last line of standard output is the result object; the lines
before it give sample counts and the machine, library and thread settings.
Spans and the full result go to ``.perfbench/`` in the checkout.

Exit codes: 0 with a result printed, 2 if the checkout has no wrdescent
sources or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

END_TO_END = ("wall_s", "setup_s", "run_s", "verify_s", "report_s", "peak_rss_mb", "trace_mb")
UNITS = {"peak_rss_mb": "MB", "trace_mb": "MB"}
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def environment(env: dict) -> dict:
    """Machine, interpreter, NumPy/BLAS and thread settings of the children."""
    probe = (
        "import json, sys, io, contextlib, numpy\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    cfg = numpy.show_config(mode='dicts')\n"
        "blas = (cfg or {}).get('Build Dependencies', {}).get('blas', {})\n"
        "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,"
        " 'blas': f\"{blas.get('name')} {blas.get('version')}\"}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    info = json.loads(out.stdout) if out.returncode == 0 else {"probe_error": out.stderr[-300:]}
    info.update(
        {
            "machine": platform.machine(),
            "platform": platform.platform(),
            "cpu_model": _cpu_model(),
            "cpu_count": os.cpu_count(),
            "threads": {name: env[name] for name in THREAD_VARS},
        }
    )
    return info


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor()


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, as (pct, value)."""
    k = len(values) - 10  # the k-th smallest sample has ten above it
    if k < 1:
        return None
    return 100.0 * k / len(values), sorted(values)[k - 1]


class Bench:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.env = child_env()
        self.base = root / ".perfbench"
        self.work = self.base / f"work-{os.getpid()}"
        self.cells = workloads.plan(args.workload, args.seed, args.size)
        self.outcomes: list[dict] = []
        self.spans: list[dict] = []

    def run_cell(self, index: int, traced: bool, tag: str) -> dict:
        """One cell in a fresh process; the sample holds its result, if any."""
        cell = self.cells[index]
        cell_dir = self.work / tag
        result_path = cell_dir / "result.json"
        cell_dir.mkdir(parents=True, exist_ok=True)
        spec = {
            "root": str(self.root),
            "workload": self.args.workload,
            "seed": self.args.seed,
            "size": self.args.size,
            "expected": str(self.args.expected),
            "cell": cell,
            "traced": traced,
            "workdir": str(cell_dir),
            "result": str(result_path),
            "t_spawn": time.monotonic(),
        }
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        sample = {"index": index, "traced": traced, "elapsed": time.monotonic() - start}
        result = json.loads(result_path.read_text()) if result_path.exists() else None
        shutil.rmtree(cell_dir, ignore_errors=True)
        if proc.returncode != 0 or result is None:
            sys.stderr.write(f"cell {cell['name']} exited {proc.returncode}:\n{proc.stderr[-2000:]}\n")
            self.outcomes.append({"what": f"{cell['name']}:process", "ok": False, "counted": True,
                                  "detail": f"exit {proc.returncode}"})
            return sample
        for item in result["outcomes"]:
            self.outcomes.append(dict(item, what=f"{cell['name']}:{item['what']}"))
        self.spans.extend(dict(s, sample=tag) for s in result.pop("spans", []))
        sample["result"] = result
        return sample

    def measure(self) -> list[dict]:
        """Cells in workload order, cycling, until the next would end after --seconds.

        There is always one full untraced cycle; with --trace 1 the cycles
        alternate untraced and traced, and there is always one of each.
        """
        # compile the package's bytecode before anything is timed
        subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import wrdescent.cli"],
            cwd=self.root, env=self.env, check=True, timeout=CHILD_TIMEOUT_S,
        )
        n = len(self.cells)
        kinds = 2 if self.args.trace else 1

        def traced(k):
            return (k // n) % kinds == 1

        samples: list[dict] = []
        start = time.monotonic()
        while True:
            k = len(samples)
            samples.append(self.run_cell(k % n, traced(k), f"sample{k}"))
            k += 1
            if k >= n * kinds:
                like = [s["elapsed"] for s in samples if s["index"] == k % n and s["traced"] == traced(k)]
                if time.monotonic() - start + statistics.median(like) > self.args.seconds:
                    return samples


def by_cell(samples: list[dict], traced: bool) -> list[list[dict]]:
    """Child results grouped by cell, for untraced or traced samples."""
    groups: dict[int, list[dict]] = {}
    for s in samples:
        if s["traced"] == traced and "result" in s:
            groups.setdefault(s["index"], []).append(s["result"])
    return list(groups.values())


def per_cell(groups, get) -> float:
    """Sum over cells of each cell's median sample: one pass's worth."""
    return sum(statistics.median(get(r) for r in results) for results in groups)


def end_to_end(samples: list[dict]) -> tuple[dict, dict]:
    """End-to-end values, their raw-seconds counterparts and sample counts."""
    groups = by_cell(samples, False)
    values, raw = {}, {}
    for name in ("wall_s", "run_s", "verify_s", "report_s"):
        if name == "wall_s":
            values[name] = per_cell(groups, lambda r: r["wall_s"])
            raw[name] = per_cell(groups, lambda r: r["wall_raw_s"])
        else:
            values[name] = per_cell(groups, lambda r: r["times"].get(name, 0.0))
            raw[name] = per_cell(groups, lambda r: r["raw_times"].get(name, 0.0))
    values["peak_rss_mb"] = max(statistics.median(r["maxrss_mb"] for r in g) for g in groups)
    values["trace_mb"] = per_cell(groups, lambda r: r["trace_mb"])
    setups = [r["setup_s"] for g in groups for r in g]
    values["setup_s"] = statistics.median(setups)
    raw["setup_s"] = statistics.median(r["setup_raw_s"] for g in groups for r in g)
    factors = [r["pace_factor"] for g in groups for r in g]
    counts = {"cells": len(groups), "samples": sum(len(g) for g in groups), "setups": len(setups)}
    return values, {"counts": counts, "setups": setups, "raw": raw,
                    "pace_factor_range": [min(factors), max(factors)]}


def per_layer(samples: list[dict], layers: dict, fail_ratio: float) -> dict:
    """Per-layer values: sum over cells of each cell's median traced sample."""
    groups = by_cell(samples, True)
    values = {}
    for name, spec in layers.items():
        stat = spec["stat"]
        if stat == "peak":
            values[name] = max(statistics.median(r.get("record_peak_mb", 0.0) for r in g) for g in groups)
        elif stat == "overhead":
            wall = lambda r: r["wall_s"]  # noqa: E731
            values[name] = per_cell(groups, wall) - per_cell(by_cell(samples, False), wall)
        elif stat == "fail_ratio":
            values[name] = fail_ratio
        else:
            values[name] = per_cell(groups, lambda r: r[stat].get(spec["boundary"], 0))
    return values


def guard(samples: list[dict], layers: dict, workload: str) -> list[str]:
    """Boundaries assigned to this workload that recorded no call."""
    results = [r for g in by_cell(samples, True) for r in g]
    return [
        f"{name} ({spec['boundary']})"
        for name, spec in layers.items()
        if workload in spec.get("guard", ())
        and not any(r["calls"].get(spec["boundary"], 0) for r in results)
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy: small instances for the self-test")
    ap.add_argument("--expected", type=Path, default=HERE / "expected.json",
                    help="expected verdicts and reference values")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "wrdescent" / "cli.py").is_file():
        print(f"no wrdescent sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]

    bench = Bench(args, root)
    try:
        samples = bench.measure()
        env_info = environment(bench.env)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    counted = [o for o in bench.outcomes if o["counted"]]
    failed = [o for o in counted if not o["ok"]]
    attempted = max(len(counted), 1)  # the result format needs at least 1
    fail_ratio = len(failed) / attempted
    complete = all("result" in s for s in samples)
    if not by_cell(samples, False) or (args.trace and not by_cell(samples, True)):
        print("no cell completed; nothing to report", file=sys.stderr)
        return 1
    missing = guard(samples, layers, args.workload) if args.trace else []
    for o in failed:
        print(f"unexpected: {o['what']}: {o['detail']}", file=sys.stderr)
    for m in missing:
        print(f"guard: boundary recorded no call on {args.workload}: {m}", file=sys.stderr)

    print(f"wrdescent benchmark: workload {args.workload}, seed {args.seed} "
          f"(instance {workloads.instance(args.seed)}), size {args.size}, "
          f"{len(samples)} cell runs of {len(bench.cells)} cells, trace {args.trace}")
    print("environment: " + json.dumps(env_info))
    if args.trace:
        values = per_layer(samples, layers, fail_ratio)
        units = {name: spec["unit"] for name, spec in layers.items()}
        detail = {}
        for name, value in values.items():
            print(f"  {name:32s} {value:.6g} {units[name]}")
    else:
        values, detail = end_to_end(samples)
        units = {name: UNITS.get(name, "s") for name in END_TO_END}
        counts = detail["counts"]
        lo, hi = detail["pace_factor_range"]
        print(f"  timings in seconds at the reference speed; host ran at {1 / hi:.3g}-{1 / lo:.3g} "
              "times the reference time per cell process")
        for name, value in values.items():
            line = f"  {name:32s} {value:.6g} {units[name]}"
            if name in detail["raw"]:
                line += f" (raw {detail['raw'][name]:.6g} s)"
            if name == "setup_s":
                high = high_percentile(detail["setups"])
                tail = f"p{high[0]:.0f} {high[1]:.6g}" if high else "no percentile with 10 samples above it"
                line += f" (median of {counts['setups']} set-ups; {tail})"
            elif units[name] == "s":
                line += (f" (sum over {counts['cells']} cells of each cell's median; "
                         f"{counts['samples']} samples; too few for a percentile with 10 above it)")
            print(line)
    print(f"  operations: {len(failed)} failed of {attempted} attempted")

    result = {
        "correct": bool(counted) and not failed and complete and not missing,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    bench.base.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (bench.base / f"result-{stem}.json").write_text(json.dumps(
        {"result": result, "environment": env_info, "detail": detail, "samples": samples,
         "outcomes": bench.outcomes}, indent=1))
    if args.trace:
        (bench.base / f"spans-{stem}.json").write_text(json.dumps(bench.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
