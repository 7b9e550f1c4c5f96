"""Regenerate perfbench/expected.json: verify verdicts and final-F references.

    PYTHONPATH=src python3 perfbench/make_reference.py [--sizes full,toy] [--workloads a,b]

For every size, workload cell with a `run` step and instance, the cell's
config is run and its final F stored.  The verify verdicts of every known
check are stored for the documented instance (0).  The script fails if any
other instance gives another verdict on a check other than the substituted
epoch-descent form, whose verdict the benchmark counts at instance 0 only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import wrdescent as wd  # noqa: E402
import wrdescent.cli  # noqa: E402,F401

import child  # noqa: E402
import workloads  # noqa: E402


def verdicts(config_doc: dict, tmp: Path) -> tuple[float, dict]:
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(config_doc))
    with contextlib.redirect_stdout(io.StringIO()):
        wd.cli.main(["run", "--config", str(cfg_path), "--out", str(tmp)])
        wd.cli.main(["verify", "--trace", str(tmp / "trace.txt"),
                     "--checks", ",".join(workloads.KNOWN_CHECKS)])
    trace = wd.load_trace(tmp / "trace.txt")
    results = json.loads((tmp / "certificate.json").read_text())
    return float(trace.f_vals[trace.epochs_completed]), {k: v["status"] for k, v in results.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="full,toy")
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--out", type=Path, default=HERE / "expected.json")
    args = ap.parse_args()

    doc = {"final_f": {}, "verify": {}}
    if args.out.exists():
        doc = json.loads(args.out.read_text())
    ok = True
    for size in args.sizes.split(","):
        doc["final_f"].setdefault(size, {})
        doc["verify"].setdefault(size, {})
        for workload in args.workloads.split(","):
            refs = doc["final_f"][size][workload] = {}
            table = doc["verify"][size][workload] = {}
            for inst in range(workloads.INSTANCES):
                for cell in workloads.plan(workload, inst, size):
                    if "run" not in cell["steps"]:
                        continue
                    config = child._resolve_alpha(json.loads(json.dumps(cell["config"])), wd)
                    with tempfile.TemporaryDirectory() as tmp:
                        final_f, got = verdicts(config, Path(tmp))
                    refs.setdefault(cell["name"], []).append(final_f)
                    if inst == 0:
                        table[cell["name"]] = got
                        continue
                    for check, status in got.items():
                        if check != workloads.UNPINNED_CHECK and status != table[cell["name"]][check]:
                            ok = False
                            print(f"{size}/{workload}/{cell['name']} instance {inst}: "
                                  f"{check} is {status}, instance 0 gives {table[cell['name']][check]}")
                print(f"{size}/{workload}: instance {inst} done", flush=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
