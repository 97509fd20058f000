"""Simulator kernel throughput per gate kind, through the public `foqcs.sim.run`.

For each kind, one circuit applies that kind once with its first operand on
every qubit in turn (the other operands on the following qubits), on the
batched shape of `verify heisenberg --n 4` and on the flat shape of a width-20
`verify dicke`. A gate counts as one update of every amplitude in the array;
bytes moved are computed, not measured, at 32 B per update (one complex128
read and one write).
"""
from __future__ import annotations

import random
from time import perf_counter

# kind -> (arity, takes an angle); the gate set of foqcs.circuit.
KINDS = {
    "x": (1, False), "h": (1, False), "s": (1, False), "sdg": (1, False),
    "ry": (1, True), "rz": (1, True), "phase": (1, True),
    "cnot": (2, False), "cz": (2, False), "cry": (2, True), "crz": (2, True),
    "cphase": (2, True), "toffoli": (3, False), "gamma": (2, True), "cgamma": (3, True),
}
# shape label -> (width, batch); batch 1 is a flat vector.
SHAPES = {"batched": (18, 16), "flat": (20, 1)}
SMOKE_SHAPES = {"batched": (8, 4), "flat": (10, 1)}
BYTES_PER_UPDATE = 32


def kernel_metrics(seed: int, smoke: bool = False) -> dict[str, float]:
    import numpy as np

    from foqcs.circuit import Circuit, Gate
    from foqcs.sim import run

    rng = random.Random(f"kernels:{seed}")
    out = {}
    for label, (width, batch) in (SMOKE_SHAPES if smoke else SHAPES).items():
        shape = (1 << width, batch) if batch > 1 else (1 << width,)
        amps = np.zeros(shape, dtype=complex)
        amps[0] = 1.0
        for kind, (arity, angled) in KINDS.items():
            gates = [Gate(kind, tuple((q + i) % width for i in range(arity)),
                          rng.uniform(0.1, 3.0) if angled else None)
                     for q in range(width)]
            circ = Circuit(width, gates)
            t0 = perf_counter()
            run(circ, amps)
            rate = width * amps.size / (perf_counter() - t0)
            out[f"sim.kernel.{kind}.{label}_mamps_per_s"] = rate / 1e6
            out[f"sim.kernel.{kind}.{label}_gb_per_s_computed"] = rate * BYTES_PER_UPDATE / 1e9
    return out
