"""Quantum circuit IR: the gate-kind table, gates, composition, controls,
lowering, counting and OpenQASM.

KINDS has one row per gate kind with every rule the package keeps for it: its
arity, whether it takes an angle, its exact unitary, its adjoint, its lowering
onto the target set {x, h, s, sdg, ry, rz, phase, cnot, cz} (None for those
nine), its controlled counterpart and its OpenQASM name. Gate, control, lower,
dagger, export_qasm, parse_qasm and the simulator's gate_unitary each read one
column; GATE_KINDS, LOWERED_KINDS, PERMUTATION_ROWS, DIAGONAL_KINDS,
SELF_TRANSPOSE_KINDS, the per-kind cost that count sums, the QASM parser's
name map and the public constructors (x, h, ..., cgamma) are derived from it
at import. A new kind is one row. Its constructor (_constructor) takes the
angle first if the kind has one, then the operands; it builds the Gate tuple
directly and checks what its signature leaves open (distinct operands, a
finite angle).

Every exporter formats through one function (_formatter), memoized on two
levels. Per kind, a text skeleton is read once per process off the rule that
the exporter applies: the gate as it is, its lowering or its lowered adjoint
(_skeletons). Per distinct (kind, angle), the rule runs once on a placeholder
gate, built only then, and its angles go into the skeleton (_templates). Each
gate then costs one str.format per text, which fills in its operands.
export_qasm and Circuit.to_json format with lowering off. export_lowered
writes the lowered QASM and JSON of a circuit, or of an encoding's PR, SELECT
and PR-transpose, in one walk, without building the flat or the lowered
circuit; PR-transpose reuses the text of each gate of SELF_TRANSPOSE_KINDS. A
gate equals and hashes as its tuple, so rz(0.0) == rz(-0.0) and rz(1) ==
rz(1.0), but these print differently; a template's key therefore holds the
angle's type and the sign of a zero angle as well, and the output is byte for
byte that of formatting every gate on its own.

Qubit indices are little-endian (qubit q = bit q of a basis index). A
unitary's local bit i is the gate's operand qubits[i], controls first.
"""
from __future__ import annotations

import json
import math
import re
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cache
from itertools import chain
from operator import itemgetter
from typing import NamedTuple, NoReturn

import numpy as np

from .errors import DomainError, json_int


def _fixed(m) -> Callable:
    """The unitary rule of a kind without an angle: one shared read-only array."""
    u = np.array(m, dtype=complex)
    u.flags.writeable = False
    return lambda _angle: u


def _controlled(sub: np.ndarray) -> np.ndarray:
    """Controlled-sub with the control on local bit 0 (odd basis indices)."""
    u = np.eye(2 * len(sub), dtype=complex)
    u[1::2, 1::2] = sub
    return u


def _mat_ry(t):
    c, s_ = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s_], [s_, c]], dtype=complex)


def _mat_rz(t):
    return np.array([[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]], dtype=complex)


def _mat_phase(t):
    return np.array([[1, 0], [0, np.exp(1j * t)]], dtype=complex)


def gamma_matrix(theta: float) -> np.ndarray:
    """4x4 unitary of gamma on local basis index bit0=first operand, bit1=second."""
    c, s_ = math.cos(theta / 2), math.sin(theta / 2)
    g = np.zeros((4, 4), dtype=complex)
    # columns: input (a,b); rows: output. local index = a + 2b.
    g[0, 0] = 1.0  # |00> -> |00>
    g[2, 2] = c  # |a=0,b=1> -> cos|01> + sin|10>
    g[1, 2] = s_
    g[3, 1] = 1.0  # |a=1,b=0> -> |11>
    g[2, 3] = -s_  # |a=1,b=1> -> -sin|01> + cos|10>
    g[1, 3] = c
    return g


def _itself(g: Gate) -> list[Gate]:
    return [g]


def _negated(g: Gate) -> list[Gate]:
    return [Gate(g.kind, g.qubits, -g.angle)]


@dataclass(frozen=True)
class GateKind:
    """Every rule for one gate kind. adjoint and lowering map a gate of the
    kind to a gate list; a lowering's length must not depend on the angle,
    because count reads each kind's cost off one exemplar gate."""

    arity: int
    angled: bool
    unitary: Callable[[float | None], np.ndarray]  # angle -> matrix on the local basis
    adjoint: Callable[[Gate], list[Gate]] | None  # None: the kind has no exact adjoint
    lowering: Callable[[Gate], list[Gate]] | None = None  # None: already lowered
    controlled: str | None = None  # the kind with one control prepended
    qasm: str | None = None  # the OpenQASM 2.0 name of a lowered kind


_X = [[0, 1], [1, 0]]
_CNOT = _controlled(np.array(_X))
KINDS: dict[str, GateKind] = {
    "x": GateKind(1, False, _fixed(_X), _itself, controlled="cnot", qasm="x"),
    "h": GateKind(1, False, _fixed(np.array([[1, 1], [1, -1]]) / math.sqrt(2)), _itself,
                  qasm="h"),
    "s": GateKind(1, False, _fixed([[1, 0], [0, 1j]]), lambda g: [sdg(*g.qubits)], qasm="s"),
    "sdg": GateKind(1, False, _fixed([[1, 0], [0, -1j]]), lambda g: [s(*g.qubits)], qasm="sdg"),
    "ry": GateKind(1, True, _mat_ry, _negated, controlled="cry", qasm="ry"),
    "rz": GateKind(1, True, _mat_rz, _negated, controlled="crz", qasm="rz"),
    "phase": GateKind(1, True, _mat_phase, _negated, controlled="cphase", qasm="u1"),
    "cnot": GateKind(2, False, _fixed(_CNOT), _itself, controlled="toffoli", qasm="cx"),
    "cz": GateKind(2, False, _fixed(np.diag([1, 1, 1, -1])), _itself, qasm="cz"),
    "cry": GateKind(2, True, lambda t: _controlled(_mat_ry(t)), _negated,
                    lambda g: _controlled_rotation(ry, *g.qubits, g.angle)),
    "crz": GateKind(2, True, lambda t: _controlled(_mat_rz(t)), _negated,
                    lambda g: _controlled_rotation(rz, *g.qubits, g.angle)),
    "cphase": GateKind(2, True, lambda t: _controlled(_mat_phase(t)), _negated,
                       lambda g: _cphase_lowering(*g.qubits, g.angle)),
    # controls bits 0, 1; target bit 2
    "toffoli": GateKind(3, False, _fixed(_controlled(_CNOT)), _itself,
                        lambda g: _toffoli_lowering(*g.qubits)),
    # The two-qubit excitation-cascade gate: CRy(theta; b->a), then CNOT(a->b). Its
    # adjoint is that of its exact 2-CNOT lowering, still 2 CNOTs.
    "gamma": GateKind(2, True, gamma_matrix,
                      lambda g: dagger_gates(gamma_lowering(g.angle, *g.qubits)),
                      lambda g: gamma_lowering(g.angle, *g.qubits), controlled="cgamma"),
    # control bit 0; (a, b) = bits 1, 2. Its lowering is contextual, so it has no adjoint.
    "cgamma": GateKind(3, True, lambda t: _controlled(gamma_matrix(t)), None,
                       lambda g: _cgamma_lowering(*g.qubits, g.angle)),
}

# kind -> (arity, takes_angle)
GATE_KINDS = {kind: (row.arity, row.angled) for kind, row in KINDS.items()}
LOWERED_KINDS = frozenset(kind for kind, row in KINDS.items() if row.lowering is None)
# Two-qubit-gate kinds once lowered (the CNOT-equivalent unit).
_RAW_TWO_QUBIT = frozenset(kind for kind in LOWERED_KINDS if KINDS[kind].arity == 2)


_EXEMPLARS = {kind: row.unitary(1.0 if row.angled else None) for kind, row in KINDS.items()}
# kind -> the row of the one nonzero in each column of its unitary at one
# exemplar angle, for the kinds whose unitary is a permutation with phases: as
# many nonzeros as columns, since a unitary has no zero column. The sparse
# simulator moves these kinds without its kernel.
PERMUTATION_ROWS = {kind: np.argmax(u != 0, axis=0) for kind, u in _EXEMPLARS.items()
                    if np.count_nonzero(u) == len(u)}
# Kinds whose rows are the identity's: each is its own transpose, and every
# other kind is real.
DIAGONAL_KINDS = frozenset(kind for kind, rows in PERMUTATION_ROWS.items()
                           if rows.tolist() == list(range(rows.size)))


class _GateFields(NamedTuple):
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None


class Gate(_GateFields):
    """One gate: the immutable tuple (kind, qubits, angle), checked against
    its KINDS row when it is made. It equals and hashes as that plain tuple.

    _make and _replace build through the same checks. The per-kind
    constructors (_constructor) build the tuple directly and check only what
    their signatures leave open: distinct operands and a finite angle.
    """

    __slots__ = ()

    def __new__(cls, kind: str, qubits: tuple[int, ...], angle: float | None = None):
        spec = GATE_KINDS.get(kind)
        if spec is None:
            raise DomainError(f"unknown gate kind {kind!r}")
        arity, angled = spec
        if len(qubits) != arity:
            raise DomainError(f"{kind} takes {arity} qubits, got {len(qubits)}")
        if arity > 1 and len(set(qubits)) != arity:
            _not_distinct(kind, qubits)
        if angled:
            try:
                finite = math.isfinite(angle)  # the value is stored unchanged
            except TypeError:
                finite = False
            if not finite:
                _not_finite(kind, angle)
        elif angle is not None:
            raise DomainError(f"{kind}: angle not allowed")
        return _new(cls, (kind, qubits, angle))

    @classmethod
    def _make(cls, iterable) -> Gate:
        return cls(*iterable)


# Builds a Gate without Gate.__new__'s checks. Only Gate.__new__, the per-kind
# constructors (_constructor), which check what their signatures leave open,
# and _placeholder, whose operands are distinct, may call it.
_new = tuple.__new__


def _not_distinct(kind: str, qubits: tuple) -> NoReturn:
    raise DomainError(f"{kind} operands must be distinct: {qubits}")


def _not_finite(kind: str, angle) -> NoReturn:
    raise DomainError(f"{kind}: angle must be a finite number, got {angle!r}")


def _constructor(kind: str) -> Callable[..., Gate]:
    """The public constructor of kind: kind(*operands), or kind(angle,
    *operands) for an angled kind. It builds the Gate tuple directly and
    checks only what its signature leaves open, in this order and with
    Gate's messages: float(angle), distinct operands, a finite angle."""
    arity, angled = GATE_KINDS[kind]
    if arity == 1 and not angled:
        def make(q):
            return _new(Gate, (kind, (q,), None))
    elif arity == 1:
        def make(angle, q):
            angle = float(angle)
            if not math.isfinite(angle):
                _not_finite(kind, angle)
            return _new(Gate, (kind, (q,), angle))
    elif arity == 2 and not angled:
        def make(a, b):
            if a == b:
                _not_distinct(kind, (a, b))
            return _new(Gate, (kind, (a, b), None))
    elif arity == 2:
        def make(angle, a, b):
            angle = float(angle)
            if a == b:
                _not_distinct(kind, (a, b))
            if not math.isfinite(angle):
                _not_finite(kind, angle)
            return _new(Gate, (kind, (a, b), angle))
    elif not angled:
        def make(a, b, c):
            if a == b or a == c or b == c:
                _not_distinct(kind, (a, b, c))
            return _new(Gate, (kind, (a, b, c), None))
    else:
        def make(angle, a, b, c):
            angle = float(angle)
            if a == b or a == c or b == c:
                _not_distinct(kind, (a, b, c))
            if not math.isfinite(angle):
                _not_finite(kind, angle)
            return _new(Gate, (kind, (a, b, c), angle))
    make.__name__ = make.__qualname__ = kind
    return make


# The constructors, each bound by its kind's name.
x, h, s, sdg, ry, rz, phase = map(_constructor, ["x", "h", "s", "sdg", "ry", "rz", "phase"])
cnot, cz, cry, crz, cphase, toffoli, gamma, cgamma = map(
    _constructor, ["cnot", "cz", "cry", "crz", "cphase", "toffoli", "gamma", "cgamma"])


_INT = {int}
_kind, _qubits = itemgetter(0), itemgetter(1)


def _first_out_of_range(gates: tuple[Gate, ...], width: int) -> Gate | None:
    """The first gate, in gate order, with a qubit that is not an int (a bool
    neither, as in json_int) or that lies outside [0, width). The first kind
    raises DomainError and the second is returned; within one gate the type
    rule comes first. None if no gate has either.

    One pass takes the types of every operand and a second the set of
    distinct qubits, which min/max read; neither holds more than that set.
    The gates are searched one by one only on a failure, to name the
    offender.
    """
    if set(map(type, chain.from_iterable(map(_qubits, gates)))) <= _INT:
        qubits = set(chain.from_iterable(map(_qubits, gates)))
        if not qubits or (min(qubits) >= 0 and max(qubits) < width):
            return None
    for g in gates:
        if not set(map(type, g.qubits)) <= _INT:
            raise DomainError(f"gate {g.kind}{g.qubits}: qubits must be integers")
        if min(g.qubits) < 0 or max(g.qubits) >= width:
            return g
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

    def to_json(self) -> str:
        """{"width", "layout": {name: [start, size]}, "gates": [{"kind",
        "qubits", "angle"?}]}, with json.dumps' separators, formatted
        through _formatter."""
        text = _formatter(None, _itself)
        return _json_text(self, (text(g)[1] for g in self.gates))

    @classmethod
    def from_dict(cls, d: dict) -> "Circuit":
        """The circuit of to_json's form, decoded; the width, each layout entry
        and each qubit must be an int (bool rejected)."""
        gates = tuple(
            Gate(g["kind"], tuple(json_int(q, "qubit", DomainError) for q in g["qubits"]),
                 g.get("angle"))
            for g in d["gates"]
        )
        layout = {}
        for k, v in d.get("layout", {}).items():
            if len(v) != 2:
                raise DomainError(f"register {k!r} must be [start, size], got {v!r}")
            layout[k] = (json_int(v[0], f"register {k!r} start", DomainError),
                         json_int(v[1], f"register {k!r} size", DomainError))
        return cls(json_int(d["width"], "width", DomainError), gates, layout)

    @classmethod
    def from_json(cls, text: str) -> "Circuit":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class BlockEncoding:
    """The LCU product PL-dagger . SELECT . PR and its normalization N
    (block = H/N), kept as SELECT and PR.

    select is the full-width middle and carries the layout: its "system"
    register holds the top qubits, and every qubit below it is an ancilla
    post-selected on |0>. prep (PR) acts on those ancillae alone. PL is not
    stored: it is conj(PR), which prepares the conjugate amplitudes, so
    PL-dagger is the transpose of PR. A flat circuit is a select-only encoding.
    """

    select: Circuit
    normalization: float
    prep: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "prep", tuple(self.prep))
        if "system" not in self.layout:
            raise DomainError('a block encoding needs a "system" register')
        sys_start, n = self.layout["system"]
        if sys_start + n != self.width:
            raise DomainError("system register must occupy the top qubits")
        g = _first_out_of_range(self.prep, sys_start)
        if g is not None:
            raise DomainError(f"prep gate {g.kind}{g.qubits} is not on the "
                              f"{sys_start} ancillae below the system register")
        if any(KINDS[kind].adjoint is None for kind in set(map(_kind, self.prep))):
            g = next(g for g in self.prep if KINDS[g.kind].adjoint is None)
            raise DomainError(f"prep must have an exact transpose; {g.kind} has none")

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
        """The flat circuit PR, SELECT, PL-dagger = PR-transpose, built per access."""
        gates = self.prep + self.select.gates + tuple(transpose_gates(self.prep))
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
    new_kind = KINDS[g.kind].controlled
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


def _controlled_rotation(rot, c: int, t: int, theta: float) -> list[Gate]:
    """cry/crz: rot(theta/2) and rot(-theta/2) on the target, each before a CNOT."""
    return [rot(theta / 2, t), cnot(c, t), rot(-theta / 2, t), cnot(c, t)]


def _cphase_lowering(c: int, t: int, eta: float) -> list[Gate]:
    return [phase(eta / 2, t), cnot(c, t), phase(-eta / 2, t), phase(eta / 2, c), cnot(c, t)]


def _cgamma_lowering(c: int, a: int, b: int, theta: float) -> list[Gate]:
    return [low for sub in gamma_lowering(theta, a, b, ctrl=c) for low in _lower_gate(sub)]


def _lower_gate(g: Gate) -> list[Gate]:
    rule = KINDS[g.kind].lowering
    return [g] if rule is None else rule(g)


def lower(c: Circuit) -> Circuit:
    """Rewrite onto the one/two-qubit target set {x,h,s,sdg,ry,rz,phase,cnot,cz}."""
    return Circuit(c.width, tuple(chain.from_iterable(map(_lower_gate, c.gates))), c.layout)


def _placeholder(kind: str, angle) -> Gate:
    """A gate of kind at angle on the operands 0..arity-1, its operand slots."""
    return _new(Gate, (kind, tuple(range(KINDS[kind].arity)), angle))


def _shape(rule: Callable[[Gate], list[Gate]], kind: str) -> tuple[tuple[str, tuple], ...]:
    """(kind, operand slots) of each gate that rule (a lowering, say) makes of
    one gate of kind.

    Every rule's length, kinds and slots (which of the gate's operands each of
    its gates reads) depend on neither the angle nor the operands, so one
    exemplar gate per kind gives them for every gate of that kind.
    """
    exemplar = _placeholder(kind, 1.0 if KINDS[kind].angled else None)
    return tuple((g.kind, g.qubits) for g in rule(exemplar))


def _lowered_cost(kind: str) -> tuple[int, int]:
    """(two-qubit, single-qubit) gates in the lowering of one gate of kind."""
    shape = _shape(_lower_gate, kind)
    two = sum(1 for low_kind, _ in shape if low_kind in _RAW_TWO_QUBIT)
    return two, len(shape) - two


# kind -> (two_qubit, single_qubit) gates once lowered, read off the lowering rules.
_LOWERED_COST = {kind: _lowered_cost(kind) for kind in KINDS}


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

    An encoding counts as its flat circuit PR, SELECT, PL-dagger, but from PR
    and SELECT as built: a gate's transpose has that gate's lowered cost and
    composite counts, so PL-dagger has PR's tally. PR is tallied once and its
    tally added twice; PL-dagger is never built.
    """
    if isinstance(c, BlockEncoding):
        tally = Counter(map(_kind, c.select.gates))
        for kind, n in Counter(map(_kind, c.prep)).items():
            tally[kind] += 2 * n
    else:
        tally = Counter(map(_kind, c.gates))
    two = single = 0
    for kind, n in tally.items():
        cost_two, cost_single = _LOWERED_COST[kind]
        two += n * cost_two
        single += n * cost_single
    get = tally.get
    return CountReport(two, get("toffoli", 0), get("crz", 0) + get("cry", 0), get("cphase", 0),
                       single)


def dagger_gates(gates) -> list[Gate]:
    """Exact adjoint of a gate sequence; a kind without an adjoint rule
    (cgamma, whose lowering is contextual) raises DomainError."""
    out: list[Gate] = []
    for g in reversed(gates):
        rule = KINDS[g.kind].adjoint
        if rule is None:
            raise DomainError(f"no adjoint for {g.kind}; lower it first")
        out.extend(rule(g))
    return out


# Kinds that are their own transpose: the diagonal kinds, and those whose
# adjoint rule returns an exemplar gate (as _shape takes it) itself: x, h,
# cnot, cz and toffoli.
SELF_TRANSPOSE_KINDS = DIAGONAL_KINDS | {
    kind for kind, row in KINDS.items() if row.adjoint is not None
    for g in [_placeholder(kind, 1.0 if row.angled else None)] if row.adjoint(g) == [g]}


def transpose_gates(gates) -> list[Gate]:
    """Exact transpose of a gate sequence: a gate of SELF_TRANSPOSE_KINDS is its
    own, and every other kind is real, so its transpose is its adjoint."""
    return [t for g in reversed(gates)
            for t in ([g] if g.kind in SELF_TRANSPOSE_KINDS else dagger_gates([g]))]


def dagger(c: Circuit) -> Circuit:
    """Exact adjoint circuit; see dagger_gates."""
    return Circuit(c.width, tuple(dagger_gates(c.gates)), c.layout)


# --- OpenQASM 2.0 ---

_QASM_TO_KIND = {row.qasm: kind for kind, row in KINDS.items() if row.qasm is not None}


def _qasm_registers(c: Circuit | BlockEncoding) -> list[tuple[str, int, int]]:
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


def _qasm_head(c: Circuit | BlockEncoding) -> tuple[list[str], list[str]]:
    """The QASM header lines (one qreg per register) and ref, where ref[q] names
    qubit q: the registers tile [0, width) in order."""
    regs = _qasm_registers(c)
    head = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    head += [f"qreg {name}[{size}];" for name, _, size in regs]
    return head, [f"{name}[{i}]" for name, _, size in regs for i in range(size)]


def _json_text(c: Circuit | BlockEncoding, gates) -> str:
    return (f'{{"width": {json.dumps(c.width)}, "layout": {json.dumps(c.layout)}, '
            f'"gates": [{", ".join(gates)}]}}')


def _skeleton(shape) -> tuple[str | None, str]:
    """The QASM lines and the JSON objects of the gates in shape, with %s for
    each angle and {i} for operand slot i, so that, once the angles are in,
    they are str.format templates of the operands. The QASM is None if a kind
    in shape has no OpenQASM name."""
    lines, objs = [], []
    for kind, slots in shape:
        row = KINDS[kind]
        args = [f"{{{i}}}" for i in slots]
        lines.append(row.qasm and f"{row.qasm}{'(%s)' if row.angled else ''} {','.join(args)};")
        angle = ', "angle": %s' if row.angled else ""
        objs.append(f'{{{{"kind": "{kind}", "qubits": [{", ".join(args)}]{angle}}}}}')
    return None if None in lines else "\n".join(lines), ", ".join(objs)


def _lowered_adjoint(g: Gate) -> list[Gate]:
    """The lowering of g's adjoint, the transpose of a gate of a kind not in
    SELF_TRANSPOSE_KINDS (transpose_gates)."""
    return [low for t in dagger_gates([g]) for low in _lower_gate(t)]


@cache
def _skeletons(rule: Callable[[Gate], list[Gate]], kind: str) -> tuple[str | None, str]:
    """The skeletons of the gates that rule makes of one gate of kind: the gate
    as it is, its lowering or the lowering of its adjoint. Read off the rule
    once per process, on first use, so that a run that exports nothing never
    builds them."""
    return _skeleton(_shape(rule, kind))


_qasm_angle = "{:.17g}".format  # format(a, ".17g"), an angle in OpenQASM


def _json_angle(a) -> str:  # as json.dumps writes it; a float subclass too, as a float
    return float.__repr__(a) if isinstance(a, float) else json.dumps(a)


def _templates(skeleton: tuple[str | None, str], gates: list[Gate]) -> tuple[str | None, str]:
    """skeleton's QASM and JSON with the angles of gates in."""
    qasm, objs = skeleton
    angles = [g.angle for g in gates if g.angle is not None]
    if not angles:
        return qasm, objs
    return (None if qasm is None else qasm % tuple(map(_qasm_angle, angles)),
            objs % tuple(map(_json_angle, angles)))


def _formatter(ref: list[str] | None, rule: Callable[[Gate], list[Gate]]
               ) -> Callable[[Gate], tuple]:
    """text(g), the (QASM, JSON) text of the gates that rule makes of g: g as it
    is (_itself), its lowering (_lower_gate) or its lowered adjoint.

    Every exporter formats through it. The templates are made once per
    distinct (kind, angle), by the rule run on a placeholder gate, which is
    built only then; each gate then costs one str.format per text, with its
    operands' names: ref[q] in QASM, q in JSON. Without ref the QASM is None
    (to_json of any circuit).

    Equal angles can print differently (0.0 == -0.0 and 1 == 1.0), so a
    template's key holds the angle's type and its sign, which tells 0.0 from
    -0.0, as well as the angle.
    """
    templates: dict = {}
    copysign = math.copysign

    def text(g: Gate) -> tuple[str | None, str]:
        kind, _, a = g
        key = (kind, a) if a is None else (kind, a, type(a), copysign(1.0, a))
        qasm, objs = templates.get(key) or templates.setdefault(
            key, _templates(_skeletons(rule, kind), rule(_placeholder(kind, a))))
        if ref is None:
            return None, objs.format(*g.qubits)
        if qasm is None:
            raise DomainError(f"cannot export unlowered gate {g.kind}; call lower() first")
        return qasm.format(*map(ref.__getitem__, g.qubits)), objs.format(*g.qubits)

    return text


def export_qasm(c: Circuit) -> str:
    """Serialize a lowered circuit as OpenQASM 2.0 (one qreg per register)."""
    head, ref = _qasm_head(c)
    text = _formatter(ref, _itself)
    return "\n".join(chain(head, (text(g)[0] for g in c.gates))) + "\n"


def export_lowered(c: Circuit | BlockEncoding) -> Iterator[str]:
    """Yield export_qasm(lower(c)), then lower(c).to_json(); an encoding is
    exported as its flat circuit PR, SELECT, PR-transpose.

    Neither the flat nor the lowered circuit is built: one walk over PR and
    SELECT formats each gate, lowered, through _formatter. PR's transpose is
    PR reversed with each gate's transpose in place (transpose_gates): a gate
    of a kind in SELF_TRANSPOSE_KINDS is its own, so its forward text is
    reused, and only the other gates' transposes, their adjoints, are
    formatted, lowered, through the same function. The JSON is joined only
    after the QASM is taken, so a caller can write the QASM and drop it first.
    """
    prep, mid = (c.prep, c.select.gates) if isinstance(c, BlockEncoding) else ((), c.gates)
    head, ref = _qasm_head(c)
    text, adjoint = _formatter(ref, _lower_gate), _formatter(ref, _lowered_adjoint)
    pr = [*map(text, prep)]
    texts = [*pr, *map(text, mid), *(t if g.kind in SELF_TRANSPOSE_KINDS else adjoint(g)
                                     for g, t in zip(reversed(prep), reversed(pr)))]
    yield "\n".join([*head, *[q for q, _ in texts]]) + "\n"
    yield _json_text(c, [j for _, j in texts])


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
            if m.group(1) in regs:
                raise ValueError(f"repeated qreg {m.group(1)!r}")
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
