"""Quantum circuit IR: gates, composition, controls, lowering, counting, QASM.

Gates carry lowercase kind strings. The lowered target set is
{x, h, s, sdg, ry, rz, phase, cnot, cz}; everything else rewrites onto it.
Qubit indices are little-endian (qubit q = bit q of a basis index).
"""
from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .errors import DomainError

# kind -> (arity, takes_angle)
GATE_KINDS = {
    "x": (1, False),
    "h": (1, False),
    "s": (1, False),
    "sdg": (1, False),
    "ry": (1, True),
    "rz": (1, True),
    "phase": (1, True),
    "cnot": (2, False),
    "cz": (2, False),
    "cry": (2, True),
    "crz": (2, True),
    "cphase": (2, True),
    "toffoli": (3, False),
    "gamma": (2, True),
    "cgamma": (3, True),
}

LOWERED_KINDS = frozenset({"x", "h", "s", "sdg", "ry", "rz", "phase", "cnot", "cz"})

# Two-qubit-gate kinds once lowered (the CNOT-equivalent unit).
_RAW_TWO_QUBIT = frozenset({"cnot", "cz"})


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        spec = GATE_KINDS.get(self.kind)
        if spec is None:
            raise DomainError(f"unknown gate kind {self.kind!r}")
        arity, angled = spec
        if len(self.qubits) != arity:
            raise DomainError(
                f"{self.kind} takes {arity} qubits, got {len(self.qubits)}"
            )
        if arity > 1 and len(set(self.qubits)) != arity:
            raise DomainError(f"{self.kind} operands must be distinct: {self.qubits}")
        if angled:
            try:
                finite = math.isfinite(self.angle)  # the value is stored unchanged
            except TypeError:
                finite = False
            if not finite:
                raise DomainError(f"{self.kind}: angle must be a finite number, got {self.angle!r}")
        elif self.angle is not None:
            raise DomainError(f"{self.kind}: angle not allowed")


def x(q):
    return Gate("x", (q,))


def h(q):
    return Gate("h", (q,))


def s(q):
    return Gate("s", (q,))


def sdg(q):
    return Gate("sdg", (q,))


def ry(theta, q):
    return Gate("ry", (q,), float(theta))


def rz(theta, q):
    return Gate("rz", (q,), float(theta))


def phase(eta, q):
    return Gate("phase", (q,), float(eta))


def cnot(c, t):
    return Gate("cnot", (c, t))


def cz(a, b):
    return Gate("cz", (a, b))


def cry(theta, c, t):
    return Gate("cry", (c, t), float(theta))


def crz(theta, c, t):
    return Gate("crz", (c, t), float(theta))


def cphase(eta, c, t):
    return Gate("cphase", (c, t), float(eta))


def toffoli(c1, c2, t):
    return Gate("toffoli", (c1, c2, t))


def gamma(theta, a, b):
    """Two-qubit excitation-cascade gate: CRy(theta; b->a) followed by CNOT(a->b)."""
    return Gate("gamma", (a, b), float(theta))


def cgamma(theta, c, a, b):
    return Gate("cgamma", (c, a, b), float(theta))


_RANGE_CHUNK = 512  # gates per min/max pass of _first_out_of_range


def _first_out_of_range(gates: tuple[Gate, ...], width: int) -> Gate | None:
    """The first gate with a qubit outside [0, width), or None.

    One min/max over the qubits of each chunk of gates; a chunk is searched
    gate by gate only on a failure. Chunks keep the flattened list small: one
    list over a whole lowered circuit (38k gates for spin glass n=24) raised
    the peak RSS of `encode` by about 0.5 MB.
    """
    for start in range(0, len(gates), _RANGE_CHUNK):
        chunk = gates[start:start + _RANGE_CHUNK]
        qubits = [q for g in chunk for q in g.qubits]
        if min(qubits) < 0 or max(qubits) >= width:
            return next(g for g in chunk if min(g.qubits) < 0 or max(g.qubits) >= width)
    return None


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a fixed width, with a named register layout.

    layout maps register name -> (start, size); ranges must be disjoint and
    in-bounds. Circuits are treated as immutable values.
    """

    width: int
    gates: tuple[Gate, ...] = ()
    layout: dict[str, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.width < 1:
            raise DomainError("circuit width must be >= 1")
        g = _first_out_of_range(self.gates, self.width)
        if g is not None:
            raise DomainError(f"gate {g.kind}{g.qubits} out of range for width {self.width}")
        used = set()
        for name, (start, size) in self.layout.items():
            if size < 1 or start < 0 or start + size > self.width:
                raise DomainError(f"register {name!r} out of bounds")
            span = set(range(start, start + size))
            if span & used:
                raise DomainError(f"register {name!r} overlaps another register")
            used |= span

    def register(self, name: str) -> range:
        start, size = self.layout[name]
        return range(start, start + size)

    def to_dict(self) -> dict:
        return {
            "width": self.width,
            "layout": {k: list(v) for k, v in self.layout.items()},
            "gates": [
                {"kind": g.kind, "qubits": list(g.qubits)}
                | ({"angle": g.angle} if g.angle is not None else {})
                for g in self.gates
            ],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, d: dict) -> "Circuit":
        gates = tuple(
            Gate(g["kind"], tuple(g["qubits"]), g.get("angle")) for g in d["gates"]
        )
        layout = {k: (int(v[0]), int(v[1])) for k, v in d.get("layout", {}).items()}
        return cls(int(d["width"]), gates, layout)

    @classmethod
    def from_json(cls, text: str) -> "Circuit":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class BlockEncoding:
    """The LCU product PL-dagger . SELECT . PR and its normalization N
    (block = H/N), kept as its three parts.

    select is the full-width middle and carries the layout: its "system"
    register holds the top qubits, and every qubit below it is an ancilla
    post-selected on |0>. prep (PR) and unprep (PL as built, not its adjoint)
    act on those ancillae alone. A flat circuit is a select-only encoding.
    """

    select: Circuit
    normalization: float
    prep: tuple[Gate, ...] = ()
    unprep: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "prep", tuple(self.prep))
        object.__setattr__(self, "unprep", tuple(self.unprep))
        if "system" not in self.layout:
            raise DomainError('a block encoding needs a "system" register')
        sys_start, n = self.layout["system"]
        if sys_start + n != self.width:
            raise DomainError("system register must occupy the top qubits")
        for name, part in (("prep", self.prep), ("unprep", self.unprep)):
            g = _first_out_of_range(part, sys_start)
            if g is not None:
                raise DomainError(f"{name} gate {g.kind}{g.qubits} is not on the "
                                  f"{sys_start} ancillae below the system register")
        if any(g.kind == "cgamma" for g in self.unprep):
            raise DomainError("unprep must have an exact adjoint; cgamma has none")

    @property
    def width(self) -> int:
        return self.select.width

    @property
    def layout(self) -> dict[str, tuple[int, int]]:
        return self.select.layout

    @property
    def postselect(self) -> tuple[int, ...]:
        return tuple(range(self.layout["system"][0]))

    @property
    def circuit(self) -> Circuit:
        """The flat circuit PR, SELECT, PL-dagger, built on each access."""
        gates = self.prep + self.select.gates + tuple(dagger_gates(self.unprep))
        return Circuit(self.width, gates, self.layout)


def remap(c: Circuit, qubit_map: dict[int, int], width: int, layout=None) -> Circuit:
    """Re-index a circuit's qubits through qubit_map into a new width."""
    vals = list(qubit_map.values())
    if len(set(vals)) != len(vals):
        raise DomainError("qubit map collides")
    gates = tuple(Gate(g.kind, tuple(qubit_map[q] for q in g.qubits), g.angle) for g in c.gates)
    return Circuit(width, gates, layout or {})


def compose(a: Circuit, b: Circuit, qubit_map: dict[int, int] | None = None) -> Circuit:
    """Concatenate: a then b. b may be embedded through an explicit qubit map."""
    if qubit_map is None:
        if a.width != b.width:
            raise DomainError(f"width mismatch {a.width} != {b.width} (pass a qubit map)")
        bg = b.gates
    else:
        bg = remap(b, qubit_map, a.width).gates
    return Circuit(a.width, a.gates + bg, a.layout)


_CONTROL_MAP = {
    "x": "cnot",
    "ry": "cry",
    "rz": "crz",
    "phase": "cphase",
    "cnot": "toffoli",
    "gamma": "cgamma",
}


def control(g, ctrl: int):
    """Control a gate or a whole circuit by one extra qubit.

    Only kinds with a controlled counterpart in the gate set are accepted;
    anything else means the builder has to rewrite first.
    """
    if isinstance(g, Circuit):
        if ctrl >= g.width:
            raise DomainError("control qubit outside circuit width")
        return Circuit(g.width, tuple(control(gt, ctrl) for gt in g.gates), g.layout)
    if ctrl in g.qubits:
        raise DomainError("control qubit already an operand")
    new_kind = _CONTROL_MAP.get(g.kind)
    if new_kind is None:
        raise DomainError(f"cannot control a {g.kind} gate; rewrite it first")
    return Gate(new_kind, (ctrl, *g.qubits), g.angle)


def gamma_lowering(theta: float, a: int, b: int, ctrl: int | None = None) -> list[Gate]:
    """Two-CNOT realization of gamma; with ctrl, its control-injected variant.

    The controlled variant makes only the two theta-dependent Rz rotations
    controlled and leaves the fixed shell uncontrolled. The shell alone acts as
    gamma(pi), so the variant agrees with a true controlled gamma only when the
    no-control branch sees the pair in |00> (the Dicke-builder context).
    """
    if ctrl is None:
        rz1 = rz(math.pi / 2 - theta / 2, a)
        rz2 = rz(theta / 2 - math.pi / 2, b)
    else:
        rz1 = crz(math.pi / 2 - theta / 2, ctrl, a)
        rz2 = crz(theta / 2 - math.pi / 2, ctrl, b)
    return [
        s(a),
        h(a),
        rz1,
        cnot(a, b),
        rz2,
        h(a),
        h(b),
        sdg(b),
        cnot(a, b),
        s(a),
        h(a),
    ]


def _toffoli_lowering(c1: int, c2: int, t: int) -> list[Gate]:
    # Standard exact 6-CNOT network (T = phase(pi/4)).
    T = math.pi / 4
    return [
        h(t),
        cnot(c2, t),
        phase(-T, t),
        cnot(c1, t),
        phase(T, t),
        cnot(c2, t),
        phase(-T, t),
        cnot(c1, t),
        phase(T, c2),
        phase(T, t),
        h(t),
        cnot(c1, c2),
        phase(T, c1),
        phase(-T, c2),
        cnot(c1, c2),
    ]


def _lower_gate(g: Gate) -> list[Gate]:
    if g.kind in LOWERED_KINDS:
        return [g]
    if g.kind == "gamma":
        return gamma_lowering(g.angle, *g.qubits)
    if g.kind == "cgamma":
        c, a, b = g.qubits
        out = []
        for sub in gamma_lowering(g.angle, a, b, ctrl=c):
            out.extend(_lower_gate(sub))
        return out
    if g.kind == "toffoli":
        return _toffoli_lowering(*g.qubits)
    if g.kind == "crz":
        c, t = g.qubits
        return [rz(g.angle / 2, t), cnot(c, t), rz(-g.angle / 2, t), cnot(c, t)]
    if g.kind == "cry":
        c, t = g.qubits
        return [ry(g.angle / 2, t), cnot(c, t), ry(-g.angle / 2, t), cnot(c, t)]
    if g.kind == "cphase":
        c, t = g.qubits
        return [
            phase(g.angle / 2, t),
            cnot(c, t),
            phase(-g.angle / 2, t),
            phase(g.angle / 2, c),
            cnot(c, t),
        ]
    raise DomainError(f"no lowering for {g.kind}")


def lower(c: Circuit) -> Circuit:
    """Rewrite onto the one/two-qubit target set {x,h,s,sdg,ry,rz,phase,cnot,cz}."""
    out: list[Gate] = []
    for g in c.gates:
        out.extend(_lower_gate(g))
    return Circuit(c.width, tuple(out), c.layout)


def _lowered_cost(kind: str) -> tuple[int, int]:
    """(two-qubit, single-qubit) gates in the lowering of one gate of kind.

    Every lowering has a length that does not depend on the angle, so one
    exemplar gate per kind gives the exact cost of every gate of that kind.
    """
    arity, angled = GATE_KINDS[kind]
    lowered = _lower_gate(Gate(kind, tuple(range(arity)), 1.0 if angled else None))
    two = sum(1 for g in lowered if g.kind in _RAW_TWO_QUBIT)
    return two, len(lowered) - two


# kind -> (two_qubit, single_qubit) gates once lowered, read off _lower_gate.
_LOWERED_COST = {kind: _lowered_cost(kind) for kind in GATE_KINDS}


@dataclass(frozen=True)
class CountReport:
    """Gate accounting.

    toffoli/crz/cphase are composite counts of the circuit as built (cry is
    folded into crz); cnot_equivalent and single_qubit are the gates the
    circuit would have after lowering, with CZ worth one CNOT.
    """

    cnot_equivalent: int
    toffoli: int
    crz: int
    cphase: int
    single_qubit: int


def count(c: Circuit | BlockEncoding) -> CountReport:
    """Tally the gates by kind and sum each kind's lowered cost; the circuit
    itself is never lowered.

    An encoding counts as its flat circuit, but from PR, SELECT and PL as
    built: the adjoint of each gate PL may hold has that gate's lowered cost
    and composite counts, so PL-dagger is never built.
    """
    gates = chain(c.prep, c.select.gates, c.unprep) if isinstance(c, BlockEncoding) else c.gates
    tally = Counter(g.kind for g in gates)
    two = single = 0
    for kind, n in tally.items():
        cost_two, cost_single = _LOWERED_COST[kind]
        two += n * cost_two
        single += n * cost_single
    return CountReport(two, tally["toffoli"], tally["crz"] + tally["cry"], tally["cphase"],
                       single)


_DAGGER_SELF = frozenset({"x", "h", "cnot", "cz", "toffoli"})
_DAGGER_NEG_ANGLE = frozenset({"ry", "rz", "phase", "cry", "crz", "cphase"})


def _dagger_gate(g: Gate) -> list[Gate]:
    if g.kind in _DAGGER_SELF:
        return [g]
    if g.kind in _DAGGER_NEG_ANGLE:
        return [Gate(g.kind, g.qubits, -g.angle)]
    if g.kind == "s":
        return [sdg(g.qubits[0])]
    if g.kind == "sdg":
        return [s(g.qubits[0])]
    if g.kind == "gamma":
        # Adjoint of the exact 2-CNOT realization, still 2 CNOTs.
        seq = gamma_lowering(g.angle, *g.qubits)
        return [dg for sub in reversed(seq) for dg in _dagger_gate(sub)]
    raise DomainError(f"no adjoint for {g.kind}; lower it first")


def dagger_gates(gates) -> list[Gate]:
    """Exact adjoint of a gate sequence (rejects cgamma, whose lowering is
    contextual)."""
    out: list[Gate] = []
    for g in reversed(gates):
        out.extend(_dagger_gate(g))
    return out


def dagger(c: Circuit) -> Circuit:
    """Exact adjoint circuit; see dagger_gates."""
    return Circuit(c.width, tuple(dagger_gates(c.gates)), c.layout)


# --- OpenQASM 2.0 ---

_QASM_NAMES = {
    "x": "x",
    "h": "h",
    "s": "s",
    "sdg": "sdg",
    "ry": "ry",
    "rz": "rz",
    "phase": "u1",
    "cnot": "cx",
    "cz": "cz",
}
_QASM_TO_KIND = {v: k for k, v in _QASM_NAMES.items()}


def _qasm_registers(c: Circuit) -> list[tuple[str, int, int]]:
    if not c.layout:
        return [("q", 0, c.width)]
    regs = sorted(((start, size, name) for name, (start, size) in c.layout.items()))
    covered = 0
    out = []
    for start, size, name in regs:
        if start != covered:
            raise DomainError("layout must cover the full width for QASM export")
        out.append((name, start, size))
        covered = start + size
    if covered != c.width:
        raise DomainError("layout must cover the full width for QASM export")
    return out


def export_qasm(c: Circuit) -> str:
    """Serialize a lowered circuit as OpenQASM 2.0 (one qreg per register)."""
    regs = _qasm_registers(c)

    def ref(q: int) -> str:
        for name, start, size in regs:
            if start <= q < start + size:
                return f"{name}[{q - start}]"
        raise DomainError(f"qubit {q} not in any register")

    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    lines += [f"qreg {name}[{size}];" for name, _, size in regs]
    for g in c.gates:
        if g.kind not in _QASM_NAMES:
            raise DomainError(f"cannot export unlowered gate {g.kind}; call lower() first")
        name = _QASM_NAMES[g.kind]
        argl = ",".join(ref(q) for q in g.qubits)
        if g.angle is not None:
            lines.append(f"{name}({g.angle:.17g}) {argl};")
        else:
            lines.append(f"{name} {argl};")
    return "\n".join(lines) + "\n"


_QASM_GATE_RE = re.compile(r"^(\w+)\s*(?:\(([^)]*)\))?\s+(.*);$")
_QASM_REF_RE = re.compile(r"^(\w+)\[(\d+)\]$")


def parse_qasm(text: str) -> Circuit:
    """Parse the OpenQASM 2.0 subset produced by export_qasm."""
    regs: dict[str, tuple[int, int]] = {}
    width = 0
    gates: list[Gate] = []

    def qubit(ref: str) -> int:
        m = _QASM_REF_RE.match(ref.strip())
        if not m or m.group(1) not in regs:
            raise ValueError(f"bad qubit reference {ref!r}")
        name, idx = m.group(1), int(m.group(2))
        start, size = regs[name]
        if idx >= size:
            raise ValueError(f"qubit index out of range in {ref!r}")
        return start + idx

    for raw in text.splitlines():
        line = raw.split("//")[0].strip()
        if not line:
            continue
        if line.startswith("OPENQASM") or line.startswith("include"):
            continue
        if line.startswith("qreg"):
            m = re.match(r"^qreg\s+(\w+)\[(\d+)\];$", line)
            if not m:
                raise ValueError(f"bad qreg line {line!r}")
            regs[m.group(1)] = (width, int(m.group(2)))
            width += int(m.group(2))
            continue
        m = _QASM_GATE_RE.match(line)
        if not m:
            raise ValueError(f"cannot parse line {line!r}")
        name, angle_s, args = m.groups()
        if name not in _QASM_TO_KIND:
            raise ValueError(f"unsupported gate {name!r}")
        qubits = tuple(qubit(a) for a in args.split(","))
        angle = float(angle_s) if angle_s is not None else None
        gates.append(Gate(_QASM_TO_KIND[name], qubits, angle))
    return Circuit(width, tuple(gates), dict(regs))
