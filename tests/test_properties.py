"""Property tests on random circuits of width <= 4 over every gate kind, and on
block encodings: random three-part ones and spin models with zero couplings."""
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foqcs import circuit
from foqcs.circuit import (
    GATE_KINDS,
    BlockEncoding,
    Circuit,
    CountReport,
    Gate,
    count,
    dagger,
    export_qasm,
    lower,
    parse_qasm,
)
from foqcs.encoder import heisenberg_encoding, spin_glass_encoding
from foqcs.models import (
    HEISENBERG_FIELDS,
    HeisenbergParams,
    SpinGlassParams,
    heisenberg_hamiltonian,
    random_heisenberg,
    random_spin_glass,
    spin_glass_hamiltonian,
)
from foqcs.pauli import hamiltonian_matrix, one_norm
from foqcs.sim import StateVector, _run_sparse, assert_state, circuit_unitary, extract_block, run
from tests.test_sim import _per_column_block

ANGLES = st.floats(min_value=-2 * np.pi, max_value=2 * np.pi, allow_nan=False)
# Angles where a rotation is trivial or self-inverse, mixed into the draw.
EDGE_ANGLES = st.one_of(st.sampled_from([0.0, -0.0, np.pi, -np.pi]), ANGLES)
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def _gates(draw, width, kinds, angles):
    """Up to 8 random gates of the given kinds on qubits 0..width-1."""
    usable = [k for k in kinds if GATE_KINDS[k][0] <= width]
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(usable))
        arity, angled = GATE_KINDS[kind]
        qubits = tuple(draw(st.permutations(range(width)))[:arity])
        gates.append(Gate(kind, qubits, draw(angles) if angled else None))
    return tuple(gates)


@st.composite
def circuits(draw, kinds=tuple(GATE_KINDS), angles=ANGLES):
    width = draw(st.integers(1, 4))
    return Circuit(width, _gates(draw, width, kinds, angles))


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


AMPS = st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0, allow_nan=False,
                          allow_infinity=False)


def _sparse_init(data, width):
    """A random nonempty support of a width-qubit register and nonzero amplitudes."""
    support = sorted(data.draw(st.sets(st.integers(0, (1 << width) - 1), min_size=1)))
    amps = data.draw(st.lists(AMPS, min_size=len(support), max_size=len(support)))
    return np.array(support, dtype=np.int64), np.array(amps, dtype=complex)


def _dense(width, idx, amps):
    out = np.zeros(1 << width, dtype=complex)
    out[idx] = amps
    return out


@PROPERTY_SETTINGS
@given(circuits(angles=EDGE_ANGLES), st.data())
def test_sparse_driver_agrees_with_dense_run(c, data):
    idx, amps = _sparse_init(data, c.width)
    dense = run(c, _dense(c.width, idx, amps))
    out_idx, out_amps = _run_sparse(c.gates, idx, amps)
    assert out_idx.dtype == np.int64
    assert np.all(np.diff(out_idx) > 0)  # sorted and unique
    assert np.all(out_amps != 0)
    np.testing.assert_allclose(_dense(c.width, out_idx, out_amps), dense, atol=1e-12, rtol=0)


def _dense_assert_state(c, expected, tol, init):
    """Reference verdict: compare the whole dense output vector."""
    out = run(c, init.copy())
    ref = np.zeros_like(out)
    for i, a in expected.items():
        ref[i] = a
    diff = np.abs(out - ref)
    bad = [i for i, d in enumerate(diff) if not d <= tol]
    return not bad, bad[:16], float(diff.max())


def _check_against_dense(c, expected, tol, init):
    r = assert_state(c, expected, tol, StateVector(c.width, init))
    ok, bad, err = _dense_assert_state(c, expected, tol, init)
    assert r.ok == ok
    assert [i for i, _, _ in r.mismatches] == bad
    assert math.isnan(r.max_abs_error) == math.isnan(err)
    if not math.isnan(err):
        assert abs(r.max_abs_error - err) <= 1e-15


@PROPERTY_SETTINGS
@given(circuits(angles=EDGE_ANGLES), st.data())
def test_assert_state_matches_dense_reference(c, data):
    # expected keeps some of the output support (exact, shifted or NaN) and
    # adds indices of its own, so every kind of disagreement is drawn.
    init = _dense(c.width, *_sparse_init(data, c.width))
    out = run(c, init.copy())
    expected = {}
    for i in range(1 << c.width):
        how = data.draw(st.sampled_from(["absent", "exact", "shifted", "nan", "other"]))
        if how == "exact":
            expected[i] = out[i]
        elif how == "shifted":
            expected[i] = out[i] + 0.01
        elif how == "nan":
            expected[i] = complex("nan")
        elif how == "other":
            expected[i] = data.draw(AMPS)
    _check_against_dense(c, expected, data.draw(st.sampled_from([1e-12, 0.1])), init)


def test_assert_state_matches_dense_reference_at_the_edges():
    # A NaN expected amplitude, an output index absent from expected, an
    # expected index outside the output support, and a pass.
    c = Circuit(3, (Gate("h", (0,)), Gate("cnot", (0, 2))))
    init = _dense(3, np.array([0]), np.array([1.0 + 0j]))
    half = 2 ** -0.5
    for expected in ({0: half, 5: complex("nan")}, {0: half}, {0: half, 5: half, 3: 0.5},
                     {0: half, 5: half}):
        _check_against_dense(c, expected, 1e-12, init)


@st.composite
def three_part_encodings(draw):
    """PR and PL on a = 1..3 ancillae and SELECT on a + n, n = 1..2, over every
    gate kind (PL over every kind with an exact adjoint)."""
    a, n = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    select = Circuit(a + n, _gates(draw, a + n, GATE_KINDS, EDGE_ANGLES), {"system": (a, n)})
    return BlockEncoding(select, 1.0, prep=_gates(draw, a, GATE_KINDS, EDGE_ANGLES),
                         unprep=_gates(draw, a, EXACT_KINDS, EDGE_ANGLES))


@PROPERTY_SETTINGS
@given(three_part_encodings())
def test_one_pass_block_equals_the_per_column_reference(be):
    ref = _per_column_block(be.circuit)
    rep = extract_block(be)
    np.testing.assert_allclose(rep.block, ref, atol=1e-12, rtol=0)
    np.testing.assert_allclose(rep.postselect_probability, np.sum(np.abs(ref) ** 2, axis=0),
                               atol=1e-12, rtol=0)


def _assert_block_is_h_over_norm(be, h):
    rep = extract_block(be, hamiltonian_matrix(h) / one_norm(h))
    assert rep.max_abs_error <= 1e-10


SEEDS = st.integers(0, 2**32 - 1)
# Half the examples: each builds and checks an encoding of up to 21 qubits.
ZERO_COUPLING_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=50)


@st.composite
def sparse_spin_glasses(draw):
    """Random couplings with single entries, whole diagonals or whole axes set
    to zero; at least one stays nonzero."""
    p = random_spin_glass(draw(st.integers(2, 3)), np.random.default_rng(draw(SEEDS)))
    n = p.n
    c = p.J.copy()  # each axis's couplings, with the fields g as diagonal k = 0
    c[:, range(n), range(n)] = p.g
    for _ in range(draw(st.integers(1, 5))):
        a, k = draw(st.integers(0, 2)), draw(st.integers(0, n - 1))
        how = draw(st.sampled_from(["entry", "diagonal", "axis"]))
        if how == "axis":
            c[a] = 0.0
        else:
            l = np.arange(n - k) if how == "diagonal" else draw(st.integers(0, n - 1 - k))
            c[a, l, l + k] = 0.0
    assume(np.any(c))
    return SpinGlassParams(n, c.diagonal(axis1=1, axis2=2).copy(), np.triu(c, 1))


@ZERO_COUPLING_SETTINGS
@given(sparse_spin_glasses())
def test_spin_glass_block_with_zero_couplings(p):
    _assert_block_is_h_over_norm(spin_glass_encoding(p), spin_glass_hamiltonian(p))


@ZERO_COUPLING_SETTINGS
@given(st.integers(2, 5), SEEDS, st.sets(st.sampled_from(HEISENBERG_FIELDS), max_size=5))
def test_heisenberg_block_with_zero_couplings(n, seed, zeros):
    p = random_heisenberg(n, np.random.default_rng(seed))
    p = HeisenbergParams(n, *(0.0 if f in zeros else getattr(p, f) for f in HEISENBERG_FIELDS))
    _assert_block_is_h_over_norm(heisenberg_encoding(p), heisenberg_hamiltonian(p))
