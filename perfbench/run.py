"""foqcs benchmark: closed-loop CLI workloads with independent output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere; it uses the foqcs sources in src/ next to this directory.
With --trace 0 it reports the end-to-end metrics: the set-up time of a fresh
interpreter, then the workload's command list repeated in one fresh process
(child.py) for S seconds. With --trace 1 it runs the workload again with
timing wrappers around foqcs' public functions and reports per-layer self
times, counts and kernel rates. The last line of stdout is one JSON object;
the lines before it record the environment and a readable summary.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import kernels
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5  # timed fresh interpreters before the workload, and again after it
DEADLINE_S = 170  # every process this run starts ends within this, or is killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMBA_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cmd_p50_s": "s", "peak_rss_mb": "MB",
              "success_rate": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in tracing.LAYERS}
    units |= {"sim.block_state_mb": "MB", "sim.state_mb": "MB", "encoder.gates": "count",
              "circuit.lowered_gates": "count", "circuit.qasm_bytes": "B",
              "circuit.json_bytes": "B", "trace.overhead_s": "s"}
    units |= {f"sim.gates.{kind}": "count" for kind in kernels.KINDS}
    for shape in kernels.SHAPES:
        for kind in kernels.KINDS:
            units[f"sim.kernel.{kind}.{shape}_mamps_per_s"] = "Mamp/s"
            units[f"sim.kernel.{kind}.{shape}_gb_per_s_computed"] = "GB/s"
    return units


def child_env() -> dict[str, str]:
    """The workload process's environment: this checkout's src/ first on the
    path, and BLAS/OpenMP threads capped at the CPUs this process may use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = env.get(var, "")
        env[var] = str(min(int(value), nproc) if value.isdigit() and int(value) > 0 else nproc)
    return env


def remaining(start: float) -> float:
    return DEADLINE_S - (time.monotonic() - start)


def setup_times(env: dict[str, str], start: float, reps: int = SETUP_REPS) -> list[float]:
    """Times from starting a fresh interpreter until `import foqcs.cli` returns."""
    code = "import time, foqcs.cli; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    times = []
    for _ in range(reps):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=remaining(start))
        times.append(float(done.stdout) - t0)
    return times


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest sizes, for the self-test")
    args = ap.parse_args()

    if not (ROOT / "src" / "foqcs" / "cli.py").is_file():
        print(f"perfbench: no foqcs sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    env = child_env()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           *["--smoke"] * args.smoke]
    setup = []
    try:
        if not args.trace:
            # The first start is untimed: it writes the bytecode caches that every
            # later start finds. Timing starts before and after the workload, so
            # that the median spans the run's window, not only its first seconds.
            setup_times(env, start, 1)
            setup = setup_times(env, start)
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining(start))
        if not args.trace:
            setup += setup_times(env, start)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {DEADLINE_S} s", file=sys.stderr)
        return 1
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"perfbench: workload process exited {done.returncode}", file=sys.stderr)
        return 1
    res = json.loads(done.stdout.splitlines()[-1])

    print("env " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": res["numpy"],
        "numba": res["numba"], "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "threads": {var: env[var] for var in THREAD_VARS},
    }))
    if not res["numba"]:
        print("note: numba absent, so the numba kernels of foqcs.sim go unmeasured")
    for failure in res["failures"]:
        print(f"FAILED {' '.join(failure['argv'])[:160]}: {failure['error']}")
    error_rate = res["failed"] / res["attempted"]
    # Each command's median over the passes, so that the workload's median
    # command does not jump between two commands of different cost.
    cmd_p50 = {argv: statistics.median(s) for argv, s in res["cmd_seconds"].items()}
    print(f"commands: {res['attempted']} attempted, error_rate {error_rate}, "
          f"untraced passes {len(res['pass_seconds'])}")
    for argv, seconds in cmd_p50.items():
        print(f"  median {seconds:.4f} s  {argv[:100]}")

    if args.trace:
        units = per_layer_units()
        layers = res["layers"]
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in units.items()}
        total = sum(layers.get(f"{name}_s", 0.0) for name in tracing.LAYERS)
        shares = sorted(((layers.get(f"{n}_s", 0.0) / total, n) for n in tracing.LAYERS),
                        reverse=True)
        print("self-time shares: " + ", ".join(f"{n} {s:.1%}" for s, n in shares if s >= 0.001))
        print(f"spans written to {res['spans_file']}")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(res["pass_seconds"]),
            "cmd_p50_s": statistics.median(cmd_p50.values()),
            "peak_rss_mb": res["peak_rss_mb"],
            "success_rate": 1.0 - error_rate,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
