"""Property tests on random circuits of width <= 4 over every gate kind, and on
block encodings: random PR and SELECT ones and spin models with zero couplings."""
import json
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
    export_lowered,
    export_qasm,
    lower,
    parse_qasm,
)
from foqcs.encoder import (
    _heisenberg_literal,
    _spin_glass_literal,
    heisenberg_encoding,
    heisenberg_pr,
    spin_glass_encoding,
    spin_glass_pr,
)
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


# Angles of every type a Gate stores unchanged, mostly from a few values that
# are equal across types and zero signs but print differently: 0, 0.0, -0.0,
# False; 1, 1.0, True; each also as np.float64.
SAME_VALUES = (0, 0.0, -0.0, False, 1, 1.0, True, 2.5)
TYPED_ANGLES = st.one_of(st.sampled_from(SAME_VALUES + tuple(map(np.float64, SAME_VALUES))),
                         EDGE_ANGLES)


@st.composite
def repeating_circuits(draw):
    """Up to 24 gates on at most 6 (kind, qubits) slots, each with an angle
    from TYPED_ANGLES, over a layout of two registers, so that most gates
    repeat an earlier one or equal it in another type or zero sign."""
    width = draw(st.integers(2, 4))
    slots = _gates(draw, width, tuple(GATE_KINDS), ANGLES)[:6] or (Gate("h", (0,)),)
    gates = []
    for _ in range(draw(st.integers(0, 24))):
        kind, qubits, angle = draw(st.sampled_from(slots))
        gates.append(Gate(kind, qubits, None if angle is None else draw(TYPED_ANGLES)))
    anc = draw(st.integers(1, width - 1))
    return Circuit(width, tuple(gates), {"anc": (0, anc), "system": (anc, width - anc)})


@PROPERTY_SETTINGS
@given(st.one_of(circuits(angles=EDGE_ANGLES), repeating_circuits()))
def test_lower_equals_the_checked_circuit_of_its_gates(c):
    # lower builds its result without Circuit's checks; the checked one is equal.
    low = lower(c)
    assert low == Circuit(c.width, low.gates, c.layout)


def _lower_by_gate(c: Circuit) -> Circuit:
    """The reference lower: every gate lowered on its own."""
    return Circuit(c.width, tuple(low for g in c.gates for low in circuit._lower_gate(g)),
                   c.layout)


def _qasm_gate_lines(c: Circuit) -> list[str]:
    """The reference QASM gate lines: every gate formatted on its own."""
    ref = [f"{name}[{i}]" for name, (_, size) in sorted(c.layout.items(), key=lambda r: r[1])
           for i in range(size)]
    return [f"{circuit.KINDS[g.kind].qasm}" + ("" if g.angle is None else f"({g.angle:.17g})")
            + f" {','.join(ref[q] for q in g.qubits)};" for g in c.gates]


def _json_by_gate(c: Circuit) -> str:
    """The reference JSON: json.dumps of one dict per gate."""
    return json.dumps({
        "width": c.width,
        "layout": {k: list(v) for k, v in c.layout.items()},
        "gates": [{"kind": g.kind, "qubits": list(g.qubits)}
                  | ({"angle": g.angle} if g.angle is not None else {}) for g in c.gates],
    })


@PROPERTY_SETTINGS
@given(repeating_circuits())
def test_exports_of_repeated_gates_equal_the_per_gate_reference(c):
    low = lower(c)
    # repr tells the angle's type and zero sign apart, which == does not
    assert list(map(repr, low.gates)) == list(map(repr, _lower_by_gate(c).gates))
    assert export_qasm(low).splitlines()[2 + len(c.layout):] == _qasm_gate_lines(low)
    assert c.to_json() == _json_by_gate(c)
    assert low.to_json() == _json_by_gate(low)


@st.composite
def repeating_encodings(draw):
    """A block encoding whose SELECT is a repeating circuit and whose PR is up
    to 12 gates of every kind with a transpose, on at most 4 (kind, qubits)
    slots of the ancillae, each with an angle from TYPED_ANGLES."""
    select = draw(repeating_circuits())
    a = select.layout["anc"][1]
    slots = _gates(draw, a, EXACT_KINDS, ANGLES)[:4] or (Gate("h", (0,)),)
    prep = []
    for _ in range(draw(st.integers(0, 12))):
        kind, qubits, angle = draw(st.sampled_from(slots))
        prep.append(Gate(kind, qubits, None if angle is None else draw(TYPED_ANGLES)))
    return BlockEncoding(select, 1.0, tuple(prep))


@PROPERTY_SETTINGS
@given(st.one_of(repeating_circuits(), repeating_encodings()))
def test_export_lowered_equals_the_exports_of_lower(c):
    low = lower(c.circuit if isinstance(c, BlockEncoding) else c)
    assert list(export_lowered(c)) == [export_qasm(low), low.to_json()]


@st.composite
def every_kind_encodings(draw):
    """A block encoding on 3 ancillae whose PR repeats one gate of every kind
    with a transpose: 1-3 copies each, with angles from TYPED_ANGLES, in a
    random order, below a random SELECT on 1 or 2 system qubits."""
    width = 3 + draw(st.integers(1, 2))
    prep = []
    for kind in EXACT_KINDS:
        arity, angled = GATE_KINDS[kind]
        qubits = tuple(draw(st.permutations(range(3)))[:arity])
        prep += [Gate(kind, qubits, draw(TYPED_ANGLES) if angled else None)
                 for _ in range(draw(st.integers(1, 3)))]
    select = Circuit(width, _gates(draw, width, EXACT_KINDS, TYPED_ANGLES),
                     {"anc": (0, 3), "system": (3, width - 3)})
    return BlockEncoding(select, 1.0, tuple(draw(st.permutations(prep))))


@PROPERTY_SETTINGS
@given(every_kind_encodings())
def test_export_lowered_of_every_transposable_kind_equals_the_exports_of_lower(be):
    # PR's transpose reuses the forward text of each gate in
    # SELF_TRANSPOSE_KINDS and formats the others' adjoints.
    low = lower(be.circuit)
    assert list(export_lowered(be)) == [export_qasm(low), low.to_json()]


def _distinct(values) -> int:
    """How many distinct values, told apart by repr as the exporters must: 0.0,
    -0.0, 0, False and np.float64(0.0) are equal but print differently."""
    return len(set(map(repr, values)))


def test_each_exporter_makes_one_template_per_distinct_kind_and_angle(monkeypatch):
    # SELECT: 14 gates of 6 distinct (kind, angle): h, cnot, rz 0.0, -0.0 and
    # int 0, and cry 0.5. PR: ry 0.3 twice, a diagonal rz, a gamma, and a
    # toffoli twice, an h and a cnot, which are their own transposes.
    built = [circuit.h(2), circuit.h(2), circuit.h(3), circuit.cnot(2, 3), circuit.cnot(2, 3),
             circuit.cnot(0, 3), circuit.rz(0.0, 3), circuit.rz(-0.0, 3), Gate("rz", (3,), 0),
             circuit.rz(0.0, 3), circuit.rz(0.0, 2), circuit.cry(0.5, 0, 2),
             circuit.cry(0.5, 0, 2), circuit.cry(0.5, 1, 3)]
    prep = (circuit.ry(0.3, 0), circuit.ry(0.3, 0), circuit.rz(0.1, 1), circuit.gamma(0.2, 0, 1),
            circuit.toffoli(0, 1, 2), circuit.h(1), circuit.cnot(1, 2), circuit.toffoli(0, 1, 2))
    be = BlockEncoding(Circuit(5, tuple(built), {"anc": (0, 3), "system": (3, 2)}), 1.0, prep)
    formatter, templates = circuit._formatter, circuit._templates
    # Templates made per formatter, in the order the formatters are built. A
    # template is made inside a text call, so it counts to the formatter whose
    # call is running.
    made, running = [], []

    def counting_formatter(ref, rule):
        i = len(made)
        made.append(0)
        text = formatter(ref, rule)

        def counted(g):
            running.append(i)
            try:
                return text(g)
            finally:
                running.pop()

        return counted

    def counting_templates(*args):
        made[running[-1]] += 1
        return templates(*args)

    def made_by(export) -> list[int]:
        made.clear()
        export()
        return made[:]

    def kinds_and_angles(gates) -> int:
        return _distinct((g.kind, g.angle) for g in gates)

    monkeypatch.setattr(circuit, "_formatter", counting_formatter)
    monkeypatch.setattr(circuit, "_templates", counting_templates)
    # export_lowered formats PR and SELECT lowered, and the two distinct PR
    # gates outside SELF_TRANSPOSE_KINDS (ry 0.3 and the gamma) as lowered
    # adjoints; the rz, toffoli, h and cnot are their own transposes and reuse
    # their text.
    assert kinds_and_angles(be.prep + be.select.gates) == 10
    outside = [g for g in prep if g.kind not in circuit.SELF_TRANSPOSE_KINDS]
    assert kinds_and_angles(outside) == 2
    assert made_by(lambda: list(export_lowered(be))) == [10, 2]
    assert made_by(lambda: lower(be.circuit)) == []  # lower formats nothing
    low = lower(be.circuit)
    assert made_by(lambda: export_qasm(low)) == [kinds_and_angles(low.gates)]
    assert made_by(low.to_json) == [kinds_and_angles(low.gates)]
    assert made_by(be.select.to_json) == [6]


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
    out_idx, out_amps, _ = _run_sparse(c.gates, idx, amps)
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
    """SELECT on a + n qubits, n = 1..2, over every gate kind, and PR on
    a = 1..3 ancillae over every kind with an exact transpose; PL = conj(PR)."""
    a, n = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    select = Circuit(a + n, _gates(draw, a + n, GATE_KINDS, EDGE_ANGLES), {"system": (a, n)})
    return BlockEncoding(select, 1.0, prep=_gates(draw, a, EXACT_KINDS, EDGE_ANGLES))


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


@st.composite
def sparse_heisenbergs(draw):
    """Random couplings with up to five of the six set to zero."""
    n, seed = draw(st.integers(2, 5)), draw(SEEDS)
    zeros = draw(st.sets(st.sampled_from(HEISENBERG_FIELDS), max_size=5))
    p = random_heisenberg(n, np.random.default_rng(seed))
    return HeisenbergParams(n, *(0.0 if f in zeros else getattr(p, f) for f in HEISENBERG_FIELDS))


@ZERO_COUPLING_SETTINGS
@given(sparse_spin_glasses())
def test_spin_glass_block_with_zero_couplings(p):
    _assert_block_is_h_over_norm(spin_glass_encoding(p), spin_glass_hamiltonian(p))


@ZERO_COUPLING_SETTINGS
@given(sparse_heisenbergs())
def test_heisenberg_block_with_zero_couplings(p):
    _assert_block_is_h_over_norm(heisenberg_encoding(p), heisenberg_hamiltonian(p))


def _assert_same_state_from_zero(a: Circuit, b: Circuit):
    idx, amps, _ = _run_sparse(a.gates, np.zeros(1, np.int64), np.ones(1, complex))
    check = assert_state(b, dict(zip(idx.tolist(), amps)), tol=1e-12)
    assert check.ok, check.mismatches


@ZERO_COUPLING_SETTINGS
@given(sparse_spin_glasses())
def test_compressed_spin_glass_pr_matches_literal(p):
    _assert_same_state_from_zero(spin_glass_pr(p), _spin_glass_literal(p))


@ZERO_COUPLING_SETTINGS
@given(sparse_heisenbergs())
def test_compact_heisenberg_pr_matches_literal(p):
    _assert_same_state_from_zero(heisenberg_pr(p), _heisenberg_literal(p))
