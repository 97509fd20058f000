"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Runs every workload at its smallest size (run.py --smoke), untraced and
   traced, and asserts that each run passes its checks and emits exactly the
   metrics BENCHMARK.json names, with their units.
2. Runs the smoke count_sweep in this process against a deliberately wrong
   Heisenberg closed form and asserts that the error rate rises above 0.
3. Feeds the verify check the report of a NaN false pass and asserts that it
   is counted as a failure.
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def smoke_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
            res = json.loads(done.stdout.splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, done.stdout
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: {set(got) ^ set(want)}"
            print(f"ok: {workload} --trace {trace}, {len(got)} metrics")


def wrong_closed_form_counts_as_error() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import foqcs.cli

    import checks
    import child
    import workloads

    def error_rate() -> float:
        with tempfile.TemporaryDirectory(dir=child.OUT) as tmp:
            cmds = workloads.commands("count_sweep", 1, Path(tmp), smoke=True)
            loop = child.Loop(foqcs.cli, cmds)
            loop.run(0.0, (False,), None)
        return sum(1 for r in loop.records if r["error"]) / len(loop.records)

    child.OUT.mkdir(parents=True, exist_ok=True)
    assert error_rate() == 0.0
    right = checks.CNOT_FORMS["heisenberg"]
    checks.CNOT_FORMS["heisenberg"] = lambda n, k: (46 * n + 9, 46 * n + 9)
    try:
        rate = error_rate()
    finally:
        checks.CNOT_FORMS["heisenberg"] = right
    assert rate > 0, rate
    print(f"ok: a wrong Heisenberg closed form gives error_rate {rate:.2f}")


def nan_error_fails() -> None:
    import checks

    report = '{"ok": true, "max_abs_error": NaN, "tolerance": 1e-12}'
    assert checks.check_verify(report, checks.STATE_TOL) is not None
    print("ok: a NaN max_abs_error fails the verify check")


if __name__ == "__main__":
    nan_error_fails()
    wrong_closed_form_counts_as_error()
    smoke_runs()
    print("selftest passed")
