"""The benchmark's workloads: fixed lists of `foqcs` CLI commands.

Sizes (--n, --k and the sweep ranges) are part of a workload's definition, so
every seed asks for the same amount of work. The benchmark seed draws the
values the program receives: its --seed and the --alphas amplitudes.
"""
from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import NamedTuple

WORKLOADS = ("block_verify", "state_verify", "count_sweep", "encode_export")

# state_verify: every Dicke kind at widths 16-20 (the doubled kinds d1d/d2kd
# use 2n qubits). k is fixed because the gate count depends on n - k.
DICKE_CASES = (
    ("d1", 20, None), ("d1u", 19, None), ("d2k", 18, 3), ("d2ku", 17, 2),
    ("d1d", 10, None), ("d1du", 9, None), ("d2kd", 8, 2), ("d2kdu", 10, 3),
)
SMOKE_DICKE_CASES = tuple((kind, 3, None if k is None else 1) for kind, _, k in DICKE_CASES)


class Command(NamedTuple):
    """One CLI call and what its output check needs to know."""

    argv: tuple[str, ...]
    params: dict
    outdir: Path | None = None


def _alphas(rng: random.Random, m: int) -> str:
    """m complex amplitudes with moduli in [0.25, 1] as a JSON [[re, im], ...]."""
    out = []
    for _ in range(m):
        r, phi = rng.uniform(0.25, 1.0), rng.uniform(0.0, 2 * math.pi)
        out.append([r * math.cos(phi), r * math.sin(phi)])
    return json.dumps(out)


def commands(workload: str, seed: int, outdir: Path, smoke: bool = False) -> list[Command]:
    """The workload's command list; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")

    def prog_seed() -> str:
        return str(rng.randrange(1 << 31))

    if workload == "block_verify":
        nh, ns = (2, 2) if smoke else (4, 3)
        return [
            Command(("verify", "heisenberg", "--n", str(nh), "--seed", prog_seed()),
                    {"check": "verify_block", "n": nh}),
            Command(("verify", "spin-glass", "--n", str(ns), "--seed", prog_seed()),
                    {"check": "verify_block", "n": ns}),
        ]
    if workload == "state_verify":
        cmds = []
        for kind, n, k in SMOKE_DICKE_CASES if smoke else DICKE_CASES:
            argv = ["verify", "dicke", "--kind", kind, "--n", str(n)]
            if k is not None:
                argv += ["--k", str(k)]
            if kind.endswith("u"):
                argv += ["--alphas", _alphas(rng, n if k is None else n - k)]
            cmds.append(Command(tuple(argv), {"check": "verify_state"}))
        return cmds
    if workload == "count_sweep":
        hi_h, hi_sg, hi_d, hi_b = (3, 3, 4, 3) if smoke else (64, 24, 32, 16)
        return [
            Command(("counts", "heisenberg", "--n", f"2:{hi_h}", "--seed", prog_seed()),
                    {"check": "counts", "model": "heisenberg", "ns": range(2, hi_h + 1)}),
            Command(("counts", "spin-glass", "--n", f"2:{hi_sg}", "--seed", prog_seed()),
                    {"check": "counts", "model": "spin_glass", "ns": range(2, hi_sg + 1)}),
            Command(("counts", "dicke", "--kind", "d2k", "--n", f"2:{hi_d}"),
                    {"check": "counts", "model": "d2k", "ns": range(2, hi_d + 1)}),
            Command(("counts", "dicke", "--kind", "d2kd", "--n", f"2:{hi_d}"),
                    {"check": "counts", "model": "d2kd", "ns": range(2, hi_d + 1)}),
            Command(("counts", "heisenberg", "--n", f"2:{hi_b}", "--baseline",
                     "--seed", prog_seed()),
                    {"check": "counts", "model": "heisenberg", "ns": range(2, hi_b + 1),
                     "baseline": True}),
        ]
    if workload == "encode_export":
        nh, ns = (2, 2) if smoke else (64, 24)
        cmds = []
        for model, n in (("heisenberg", nh), ("spin-glass", ns)):
            d = outdir / model
            cmds.append(Command(("encode", model, "--n", str(n), "--seed", prog_seed(),
                                 "-o", str(d)),
                                {"check": "encode", "model": model, "n": n}, d))
        return cmds
    raise ValueError(f"unknown workload {workload!r}")
