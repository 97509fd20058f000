"""Property tests on random circuits of width <= 4 over every gate kind."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from foqcs import circuit
from foqcs.circuit import (
    GATE_KINDS,
    Circuit,
    CountReport,
    Gate,
    count,
    dagger,
    export_qasm,
    lower,
    parse_qasm,
)
from foqcs.encoder import heisenberg_encoding
from foqcs.models import random_heisenberg
from foqcs.sim import circuit_unitary

ANGLES = st.floats(min_value=-2 * np.pi, max_value=2 * np.pi, allow_nan=False)
# Angles where a rotation is trivial or self-inverse, mixed into the draw.
EDGE_ANGLES = st.one_of(st.sampled_from([0.0, -0.0, np.pi, -np.pi]), ANGLES)
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def circuits(draw, kinds=tuple(GATE_KINDS), angles=ANGLES):
    width = draw(st.integers(1, 4))
    usable = [k for k in kinds if GATE_KINDS[k][0] <= width]
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(usable))
        arity, angled = GATE_KINDS[kind]
        qubits = tuple(draw(st.permutations(range(width)))[:arity])
        gates.append(Gate(kind, qubits, draw(angles) if angled else None))
    return Circuit(width, tuple(gates))


# cgamma is left out of the unitary checks: its lowering is only correct when
# the uncontrolled branch sees |00> (it differs from the gate's unitary by up
# to 1.0 in a matrix entry), and dagger rejects it for that reason.
EXACT_KINDS = tuple(k for k in GATE_KINDS if k != "cgamma")


@PROPERTY_SETTINGS
@given(circuits())
def test_json_round_trip_is_gate_identical(c):
    back = Circuit.from_json(c.to_json())
    assert back.width == c.width
    assert back.gates == c.gates


@PROPERTY_SETTINGS
@given(circuits())
def test_qasm_round_trip_of_lowered_is_gate_identical(c):
    low = lower(c)
    back = parse_qasm(export_qasm(low))
    assert back.width == low.width
    assert back.gates == low.gates


@PROPERTY_SETTINGS
@given(circuits(EXACT_KINDS))
def test_lower_preserves_unitary(c):
    np.testing.assert_allclose(circuit_unitary(lower(c)), circuit_unitary(c), atol=1e-12)


@PROPERTY_SETTINGS
@given(circuits(EXACT_KINDS))
def test_double_dagger_preserves_unitary(c):
    np.testing.assert_allclose(circuit_unitary(dagger(dagger(c))), circuit_unitary(c),
                               atol=1e-12)


def _count_by_lowering(c: Circuit) -> CountReport:
    """The reference definition of count: lower the whole circuit and tally it."""
    low = lower(c).gates
    two = sum(1 for g in low if g.kind in ("cnot", "cz"))
    kinds = [g.kind for g in c.gates]
    return CountReport(two, kinds.count("toffoli"), kinds.count("crz") + kinds.count("cry"),
                       kinds.count("cphase"), len(low) - two)


@PROPERTY_SETTINGS
@given(circuits(angles=EDGE_ANGLES))
def test_count_equals_tally_of_lowered_circuit(c):
    assert count(c) == _count_by_lowering(c)


def test_count_of_each_kind_equals_its_lowering():
    for kind, (arity, angled) in GATE_KINDS.items():
        for angle in (0.0, np.pi, -np.pi, 1.234) if angled else (None,):
            c = Circuit(4, (Gate(kind, tuple(range(arity))[::-1], angle),))
            assert count(c) == _count_by_lowering(c), (kind, angle)


def test_count_does_not_lower(monkeypatch):
    def refuse(*args):
        raise AssertionError("count lowered the circuit")

    monkeypatch.setattr(circuit, "lower", refuse)
    monkeypatch.setattr(circuit, "_lower_gate", refuse)
    be = heisenberg_encoding(random_heisenberg(8, np.random.default_rng(8)))
    assert count(be.circuit).cnot_equivalent == 46 * 8 + 8
