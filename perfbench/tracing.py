"""In-memory span recorder, fed by timing wrappers around foqcs' public functions.

Wrappers replace a function at the names the calling modules bind (for
example `foqcs.cli.lower` and `foqcs.circuit.lower`, which `count` calls), so
no program file changes. A span is (name, start, end, parent, command id); a
layer's self time is its spans' durations minus their children's.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# Span names whose self time is reported. "cli.self" spans a whole command, so
# its self time is what no wrapped function accounts for (argparse, JSON, writes).
LAYERS = ("sim.extract_block", "sim.assert_state", "encoder.build", "dicke.build",
          "baseline.standard_lcu", "circuit.count", "circuit.lower", "circuit.export_qasm",
          "circuit.to_json", "pauli.hamiltonian_matrix", "models.hamiltonian",
          "report.sweep", "report.format", "cli.self")
MB = 1e6


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, command id]
        self.stack: list[int] = []
        self.command = -1
        self.sums: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.command])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                counter(self, args, result)
            return result

        return timed


def _count_gates(rec: Recorder, circuit) -> None:
    for g in circuit.gates:
        rec.sums[f"sim.gates.{g.kind}"] += 1


def _on_block(rec, args, result):
    circ = args[0].circuit
    _count_gates(rec, circ)
    n = circ.layout["system"][1]
    rec.peaks["sim.block_state_mb"] = max(rec.peaks["sim.block_state_mb"],
                                          16 * 2.0 ** (circ.width + n) / MB)


def _on_state(rec, args, result):
    circ = args[0]
    _count_gates(rec, circ)
    rec.peaks["sim.state_mb"] = max(rec.peaks["sim.state_mb"], 16 * 2.0 ** circ.width / MB)


def _on_encoding(rec, args, result):
    rec.sums["encoder.gates"] += len(result.circuit.gates)


def _on_lower(rec, args, result):
    rec.sums["circuit.lowered_gates"] += len(result.gates)


def _on_qasm(rec, args, result):
    rec.sums["circuit.qasm_bytes"] += len(result.encode())


def _on_json(rec, args, result):
    rec.sums["circuit.json_bytes"] += len(result.encode())


# (module, attribute path, span name, counter)
TARGETS = (
    ("foqcs.cli", "extract_block", "sim.extract_block", _on_block),
    ("foqcs.cli", "assert_state", "sim.assert_state", _on_state),
    ("foqcs.cli", "heisenberg_encoding", "encoder.build", _on_encoding),
    ("foqcs.cli", "spin_glass_encoding", "encoder.build", _on_encoding),
    ("foqcs.report", "heisenberg_encoding", "encoder.build", _on_encoding),
    ("foqcs.report", "spin_glass_encoding", "encoder.build", _on_encoding),
    ("foqcs.cli", "prepare_dicke1", "dicke.build", None),
    ("foqcs.cli", "prepare_dicke1_unbalanced", "dicke.build", None),
    ("foqcs.cli", "prepare_dicke2k", "dicke.build", None),
    ("foqcs.cli", "prepare_double", "dicke.build", None),
    ("foqcs.cli", "dicke_state_map", "dicke.build", None),
    ("foqcs.report", "prepare_dicke1", "dicke.build", None),
    ("foqcs.report", "prepare_dicke2k", "dicke.build", None),
    ("foqcs.report", "prepare_double", "dicke.build", None),
    ("foqcs.report", "standard_lcu", "baseline.standard_lcu", None),
    ("foqcs.report", "count", "circuit.count", None),
    ("foqcs.circuit", "lower", "circuit.lower", _on_lower),
    ("foqcs.cli", "lower", "circuit.lower", _on_lower),
    ("foqcs.cli", "export_qasm", "circuit.export_qasm", _on_qasm),
    ("foqcs.circuit", "Circuit.to_json", "circuit.to_json", _on_json),
    ("foqcs.cli", "hamiltonian_matrix", "pauli.hamiltonian_matrix", None),
    ("foqcs.cli", "heisenberg_hamiltonian", "models.hamiltonian", None),
    ("foqcs.cli", "spin_glass_hamiltonian", "models.hamiltonian", None),
    ("foqcs.report", "heisenberg_hamiltonian", "models.hamiltonian", None),
    ("foqcs.report", "sweep", "report.sweep", None),
    ("foqcs.report", "rows_to_csv", "report.format", None),
    ("foqcs.report", "rows_to_json", "report.format", None),
)


def install(rec: Recorder):
    """Put wrappers in place; returns a function that restores the originals.

    A target the program no longer has is reported on stderr and skipped, so
    its layer then reads 0.
    """
    saved = []
    for module, path, name, counter in TARGETS:
        *owner_path, attr = path.split(".")
        owner = importlib.import_module(module)
        for part in owner_path:
            owner = getattr(owner, part)
        if not hasattr(owner, attr):
            print(f"perfbench: {module}.{path} not found, {name} not traced", file=sys.stderr)
            continue
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, rec.wrap(original, name, counter))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
