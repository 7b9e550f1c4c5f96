"""One cell of a workload pass, in a process of its own.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON names the cell and where to write the result; run.py builds it.
The child imports wrdescent, writes the cell's config (set-up), then runs
the cell's commands through ``wrdescent.cli.main`` and checks each output.
Per-command times (raw, and at the reference speed of pace.py), ru_maxrss, trace bytes, every checked outcome and, on a
traced pass, the per-boundary totals and spans go to the result file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import pace
import workloads


class Outcomes:
    """Checked outputs: each is one attempted operation, failed or not."""

    def __init__(self):
        self.items: list[dict] = []

    def check(self, what: str, ok: bool, detail: str = "", counted: bool = True) -> None:
        self.items.append({"what": what, "ok": bool(ok), "detail": detail, "counted": counted})


def _resolve_alpha(doc: dict, wd) -> dict:
    """Replace the plan's alpha_over_L by alpha for the instance's L."""
    strategy = doc["strategy"]
    if "alpha_over_L" in strategy:
        p = doc["problem"]
        problem = wd.make_problem(p["kind"], p["n"], p["p"], p["seed"])
        strategy["alpha"] = strategy.pop("alpha_over_L") / problem.L
    return doc


def _cli(wd, speed, argv) -> tuple[int, str, pace.Region]:
    out = io.StringIO()
    mark = speed.mark()
    with contextlib.redirect_stdout(out):
        code = wd.cli.main(argv)
    return code, out.getvalue(), speed.close(mark)


def _check_verify(out_dir: Path, expected: dict, pinned: bool, outcomes: Outcomes, tracer) -> None:
    results = json.loads((out_dir / "certificate.json").read_text())
    for check in workloads.KNOWN_CHECKS:
        got = results.get(check, {}).get("status")
        want = expected.get(check)
        counted = pinned or check != workloads.UNPINNED_CHECK
        outcomes.check(f"verify:{check}", got == want, f"got {got}, expected {want}", counted)
        if tracer is not None and counted:
            tracer.count("analysis.checks_attempted", 1)
            tracer.count("analysis.checks_unexpected", int(got != want))


def _check_sweep(out_dir: Path, config: dict, n_cells: int, outcomes: Outcomes) -> None:
    with open(out_dir / "cells.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    outcomes.check("sweep:cells", len(rows) == n_cells, f"{len(rows)} cells, expected {n_cells}")
    want = sorted(workloads.sweep_rules(config))
    for row in rows:
        certs = dict(item.split("=") for item in row["certificates"].split(";") if item)
        ok = not row["error"] and sorted(certs) == want and set(certs.values()) == {"pass"}
        outcomes.check(f"sweep:{row['overrides']}", ok, f"certificates {certs}, error {row['error']!r}")


def main() -> int:
    spec = json.loads(sys.argv[1])
    speed = pace.Pace()
    speed.start()
    setup_mark = speed.mark()
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    import wrdescent as wd
    import wrdescent.cli  # noqa: F401  (not imported by the package itself)

    cell = spec["cell"]
    work = Path(spec["workdir"])
    work.mkdir(parents=True, exist_ok=True)
    doc = _resolve_alpha(json.loads(json.dumps(cell["config"])), wd)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(doc))
    expected = json.loads(Path(spec["expected"]).read_text())
    ref = expected["final_f"][spec["size"]][spec["workload"]].get(cell["name"])
    verdicts = expected["verify"][spec["size"]][spec["workload"]].get(cell["name"])
    inst = workloads.instance(spec["seed"])

    tracer = restore = None
    if spec["traced"]:
        import tracing

        tracer = tracing.Tracer()
        restore = tracing.install(tracer, wd)

    outcomes = Outcomes()
    times: dict[str, float] = {}
    raw_times: dict[str, float] = {}

    def add(key, region):
        times[key] = times.get(key, 0.0) + region.value
        raw_times[key] = raw_times.get(key, 0.0) + region.raw
    trace_path = work / "trace.txt"
    grids = list(cell.get("grids", []))
    spawned = time.perf_counter() - (time.monotonic() - spec["t_spawn"])
    setup = speed.close(setup_mark, start=spawned)
    wall_mark = speed.mark()
    for step in cell["steps"]:
        if tracer is not None:
            tracer.op = f"{cell['name']}/{step}"
        if step == "run":
            code, text, took = _cli(wd, speed, ["run", "--config", str(config_path), "--out", str(work)])
            want = f"run complete: {doc['epochs']} epochs"
            outcomes.check("run", code == 0 and want in text, f"exit {code}: {text.strip()[-200:]}")
            add("run_s", took)
        elif step == "sweep":
            grid = grids.pop(0)
            out = work / f"sweep{len(grids)}"
            argv = ["sweep", "--config", str(config_path), "--jobs", "1", "--grid", grid, "--out", str(out)]
            code, text, took = _cli(wd, speed, argv)
            outcomes.check("sweep", code == 0, f"exit {code}")
            _check_sweep(out, doc, len(grid.partition("=")[2].split(",")), outcomes)
            add("run_s", took)
        elif step == "verify":
            argv = ["verify", "--trace", str(trace_path), "--checks", ",".join(workloads.KNOWN_CHECKS)]
            code, text, took = _cli(wd, speed, argv)
            failed = re.search(r"^\[FAIL\]", text, re.MULTILINE) is not None
            outcomes.check("verify:exit", code == int(failed), f"exit {code}")
            _check_verify(work, verdicts, inst == 0, outcomes, tracer)
            add("verify_s", took)
        elif step == "replay":
            mark = speed.mark()
            report = wd.engine.replay(wd.engine.load_trace(trace_path))
            add("verify_s", speed.close(mark))
            outcomes.check("replay", report.ok, f"first mismatch {report.first_mismatch}")
        elif step == "report":
            code, text, took = _cli(wd, speed, ["report", "--trace", str(trace_path)])
            add("report_s", took)
            rows = (work / "gamma.csv").read_text().splitlines()[1:] if code == 0 else []
            outcomes.check("report:gamma_rows", len(rows) == doc["epochs"], f"{len(rows)} rows")
            match = re.search(r"^final F: (\S+)$", text, re.MULTILINE)
            final_f = float(match.group(1)) if match else math.nan
            want_f = ref[inst] if ref else math.nan
            outcomes.check(
                "report:final_f",
                abs(final_f - want_f) <= workloads.F_RTOL * max(1.0, abs(want_f)),
                f"final F {final_f!r}, reference {want_f!r}",
            )
    wall = speed.close(wall_mark)
    speed.stop()
    factor = speed.factor()
    if restore is not None:
        restore()

    result = {
        "cell": cell["name"],
        "setup_s": setup.value,
        "setup_raw_s": setup.raw,
        "wall_s": wall.value,
        "wall_raw_s": wall.raw,
        "times": times,
        "raw_times": raw_times,
        "pace_factor": factor,
        "probes": len(speed.ratios),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace_mb": trace_path.stat().st_size / 1e6 if trace_path.exists() else 0.0,
        "outcomes": outcomes.items,
    }
    if tracer is not None:
        if "run" in cell["steps"]:
            # tracemalloc slows every allocation, so the record peak is taken
            # on a repeat of the run, outside the timed spans
            run_config = wd.config.load_config(config_path).build()
            tracemalloc.start()
            wd.engine.run(run_config)
            result["record_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
        # span times at the reference speed, by the cell's mean pace factor
        result["total"] = {k: v * factor for k, v in tracer.total.items()}
        result["self"] = {k: v * factor for k, v in tracer.self_time.items()}
        result["calls"] = dict(tracer.calls)
        result["spans"] = tracer.span_records()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
