"""Workload process: one workload's command list as a closed loop.

One client sends one `foqcs.cli.main(argv)` call at a time, in a fresh
interpreter, and repeats the list until the time budget is spent (at least
twice, so every command's output can be compared with an earlier one).
Outputs are checked outside the timed region. With --trace 1 the passes
alternate untraced and traced, and the kernel microbenchmark runs after them.

run.py starts it with PYTHONPATH set to the checkout's src/; it prints one
JSON object on stdout.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import checks
import kernels
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
MIN_PASSES = 2
# Verbs whose outputs the README promises byte-identical for identical arguments.
DETERMINISTIC = ("counts", "encode")
ENCODE_FILES = ("circuit.qasm", "circuit.json", "meta.json")


class Loop:
    def __init__(self, cli, cmds):
        self.cli = cli
        self.cmds = cmds
        self.first_digest: dict[tuple, str] = {}
        self.verdicts: dict[tuple, str | None] = {}
        self.records: list[dict] = []  # one per command attempted
        self.passes: list[tuple[bool, float]] = []  # (traced, seconds)

    def call(self, cmd, rec):
        """Run one command; returns (exit code, stdout, stderr, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            span = None
            if rec is not None:
                rec.command += 1
                span = rec.open("cli.self")
            try:
                rc = self.cli.main(list(cmd.argv))
            except SystemExit as e:
                rc = e.code
            except Exception as e:  # a traceback is a failed command, not a crash
                rc = f"raised {type(e).__name__}: {e}"
            finally:
                if span is not None:
                    rec.close(span)
        return rc, out.getvalue(), err.getvalue(), perf_counter() - t0

    def verdict(self, cmd, rc, stdout: str, stderr: str) -> str | None:
        if rc != 0:
            last = stderr.strip().splitlines()[-1:] or [""]
            return f"exit code {rc}: {last[0]}"
        files = {}
        if cmd.outdir is not None:
            try:
                files = {f: (cmd.outdir / f).read_bytes() for f in ENCODE_FILES}
            except OSError as e:
                return f"missing output: {e}"
        h = hashlib.sha256(stdout.encode())
        for name in ENCODE_FILES:
            h.update(files.get(name, b""))
        digest = h.hexdigest()
        if cmd.argv[0] in DETERMINISTIC:
            if self.first_digest.setdefault(cmd.argv, digest) != digest:
                return "output differs from an earlier run of the same command"
        # Identical bytes get the identical verdict, so each is checked once.
        key = (cmd.argv, digest)
        if key not in self.verdicts:
            try:
                self.verdicts[key] = checks.check(cmd.params, stdout, files)
            except Exception as e:  # unparseable output is a failed check
                self.verdicts[key] = f"unreadable output: {type(e).__name__}: {e}"
        return self.verdicts[key]

    def run(self, seconds: float, modes: tuple[bool, ...], rec) -> None:
        start = perf_counter()
        while True:
            traced = modes[len(self.passes) % len(modes)]
            restore = tracing.install(rec) if traced else None
            total = 0.0
            try:
                for cmd in self.cmds:
                    if cmd.outdir is not None:
                        shutil.rmtree(cmd.outdir, ignore_errors=True)
                    rc, stdout, stderr, dt = self.call(cmd, rec if traced else None)
                    total += dt
                    self.records.append({"argv": cmd.argv, "traced": traced, "seconds": dt,
                                         "error": self.verdict(cmd, rc, stdout, stderr)})
            finally:
                if restore is not None:
                    restore()
            self.passes.append((traced, total))
            typical = statistics.median(s for _, s in self.passes)
            if len(self.passes) >= MIN_PASSES and perf_counter() - start + typical > seconds:
                return


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    import foqcs
    import foqcs.cli

    if Path(foqcs.__file__).resolve().parent != ROOT / "src" / "foqcs":
        print(f"perfbench: imported {foqcs.__file__}, not this checkout's", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        cmds = workloads.commands(args.workload, args.seed, tmp, args.smoke)
        loop = Loop(foqcs.cli, cmds)
        rec = tracing.Recorder() if args.trace else None
        loop.run(args.seconds, (False, True) if args.trace else (False,), rec)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / tracing.MB

    import numpy

    result = {
        "attempted": len(loop.records),
        "failed": sum(1 for r in loop.records if r["error"]),
        "failures": [r for r in loop.records if r["error"]][:5],
        "pass_seconds": [s for traced, s in loop.passes if not traced],
        "cmd_seconds": {" ".join(c.argv): [r["seconds"] for r in loop.records
                                            if r["argv"] == c.argv and not r["traced"]]
                        for c in loop.cmds},
        "peak_rss_mb": peak_rss_mb,
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }
    if rec is not None:
        traced = [s for t, s in loop.passes if t]
        per_pass = 1.0 / len(traced)
        layers = {f"{name}_s": s * per_pass for name, s in rec.self_times().items()}
        layers.update({k: v * per_pass for k, v in rec.sums.items()})
        layers.update(rec.peaks)
        layers["trace.overhead_s"] = (statistics.median(traced)
                                      - statistics.median(result["pass_seconds"]))
        layers.update(kernels.kernel_metrics(args.seed, args.smoke))
        result["layers"] = layers
        spans_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({"spans": rec.spans, "passes": loop.passes}))
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
