"""Self-test of the benchmark at toy size.

    python3 -m pytest perfbench/tests -q      (from the repository root)

Each workload runs once untraced and once traced; the printed metric names
must be exactly those of BENCHMARK.json, every operation must pass, and an
expected-verdict table with one verdict flipped must make the run report a
failure.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = ROOT / "perfbench" / "expected.json"


def bench(workload, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "toy", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_match_benchmark_json(workload, trace, section):
    result, stdout = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name in declared:
        assert f"  {name} " in stdout  # each metric is printed by name


def test_flipped_verdict_makes_fail_ratio_positive(tmp_path):
    expected = json.loads(EXPECTED.read_text())
    verdicts = expected["verify"]["toy"]["certify-grid"]["adaptive"]
    verdicts["summability"] = "fail" if verdicts["summability"] == "pass" else "pass"
    flipped = tmp_path / "expected.json"
    flipped.write_text(json.dumps(expected))
    result, _ = bench("certify-grid", 1, "--expected", str(flipped))
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["fail_ratio"]["value"] > 0
    assert result["metrics"]["analysis.checks_unexpected"]["value"] > 0


def test_checkout_without_sources_is_refused(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "rate-cells",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_pace_scales_raw_seconds_by_probe_speed():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import pace

    speed = pace.Pace()
    speed.start()
    try:
        mark = speed.mark()
        pace._spin(20 * pace.PROBE_STEPS)
        region = speed.close(mark)
    finally:
        speed.stop()
    assert len(speed.ratios) >= 2  # the probes at the edges of the region
    assert 0 < region.raw
    assert region.value == pytest.approx(region.raw * speed.factor(0))
