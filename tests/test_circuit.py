import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foqcs import circuit
from foqcs.circuit import (
    DIAGONAL_KINDS,
    KINDS,
    LOWERED_KINDS,
    PERMUTATION_ROWS,
    SELF_TRANSPOSE_KINDS,
    BlockEncoding,
    Circuit,
    Gate,
    cgamma,
    cnot,
    compose,
    control,
    count,
    cphase,
    cry,
    crz,
    cz,
    dagger,
    export_qasm,
    gamma,
    h,
    lower,
    parse_qasm,
    phase,
    ry,
    rz,
    s,
    sdg,
    toffoli,
    x,
)
from foqcs.errors import DomainError
from foqcs.sim import circuit_unitary, simulate


def test_compose_basic():
    c = Circuit(2, (x(0), cnot(0, 1)))
    empty = Circuit(2, ())
    assert compose(empty, c).gates == c.gates
    # X;X acts as the identity
    cc = compose(Circuit(1, (x(0),)), Circuit(1, (x(0),)))
    np.testing.assert_allclose(circuit_unitary(cc), np.eye(2), atol=1e-15)
    with pytest.raises(DomainError):
        compose(Circuit(2, ()), Circuit(3, ()))


def test_compose_with_map_and_collision():
    a = Circuit(3, (x(0),))
    b = Circuit(2, (cnot(0, 1),))
    m = compose(a, b, {0: 2, 1: 1})
    assert m.gates[-1] == cnot(2, 1)
    with pytest.raises(DomainError):
        compose(a, b, {0: 2, 1: 2})


def test_compose_staircase_and_chain_gives_pair_body():
    # Delta_3 on the top three wires followed by the CNOT ladder equals the
    # body of the nearest-neighbor pair builder on 4 qubits.
    from foqcs.dicke import balanced_thetas, cnot_chain, prepare_dicke2k, staircase

    body = compose(
        compose(Circuit(4, (x(1),)), staircase(3, balanced_thetas(3)), {i: i + 1 for i in range(3)}),
        cnot_chain(4, -1, 3),
    )
    np.testing.assert_allclose(
        simulate(body).amps, simulate(prepare_dicke2k(4, 1)).amps, atol=1e-14
    )


def test_control_mapping():
    assert control(x(3), 0) == cnot(0, 3)
    assert control(phase(0.5, 1), 0) == cphase(0.5, 0, 1)
    assert control(cnot(1, 2), 0) == toffoli(0, 1, 2)
    assert control(ry(0.3, 1), 0) == cry(0.3, 0, 1)
    assert control(rz(0.3, 1), 0) == crz(0.3, 0, 1)
    assert control(gamma(0.3, 1, 2), 0) == cgamma(0.3, 0, 1, 2)
    chain = Circuit(5, (cnot(1, 0), cnot(2, 1), cnot(3, 2)))
    assert sum(1 for g in control(chain, 4).gates if g.kind == "toffoli") == 3
    with pytest.raises(DomainError):
        control(chain, 0)  # collides with an operand
    with pytest.raises(DomainError):
        control(toffoli(0, 1, 2), 3)
    with pytest.raises(DomainError):
        control(h(1), 0)


def test_gamma_lowering_truth_table():
    rng = np.random.default_rng(2)
    for _ in range(10):
        th = rng.uniform(-2 * math.pi, 2 * math.pi)
        c = Circuit(2, (gamma(th, 1, 0),))
        u = circuit_unitary(lower(c))
        cs, sn = math.cos(th / 2), math.sin(th / 2)
        ref = np.zeros((4, 4), complex)
        ref[0, 0] = 1
        ref[1, 1] = cs
        ref[2, 1] = sn  # |01> -> cos|01> + sin|10>   (index = b + 2a)
        ref[3, 2] = 1  # |10> -> |11>
        ref[1, 3] = -sn
        ref[2, 3] = cs  # |11> -> -sin|01> + cos|10>
        np.testing.assert_allclose(u, ref, atol=1e-12)


def test_lowering_gate_budget():
    assert count(lower(Circuit(3, (toffoli(0, 1, 2),)))).cnot_equivalent == 6
    assert count(lower(Circuit(2, (cphase(0.3, 0, 1),)))).cnot_equivalent == 2
    assert count(lower(Circuit(2, (crz(0.3, 0, 1),)))).cnot_equivalent == 2
    assert count(lower(Circuit(2, (gamma(0.3, 1, 0),)))).cnot_equivalent == 2
    lowered = lower(Circuit(3, (toffoli(0, 1, 2),)))
    assert all(g.kind in ("x", "h", "s", "sdg", "ry", "rz", "phase", "cnot", "cz")
               for g in lowered.gates)


def _random_circuit(rng, width, depth, kinds):
    gates = []
    for _ in range(depth):
        kind = rng.choice(kinds)
        qs = rng.choice(width, size=3, replace=False).tolist()
        th = float(rng.uniform(-math.pi, math.pi))
        g = {
            "x": lambda: x(qs[0]),
            "h": lambda: h(qs[0]),
            "s": lambda: s(qs[0]),
            "sdg": lambda: sdg(qs[0]),
            "ry": lambda: ry(th, qs[0]),
            "rz": lambda: rz(th, qs[0]),
            "phase": lambda: phase(th, qs[0]),
            "cnot": lambda: cnot(qs[0], qs[1]),
            "cz": lambda: cz(qs[0], qs[1]),
            "cry": lambda: cry(th, qs[0], qs[1]),
            "crz": lambda: crz(th, qs[0], qs[1]),
            "cphase": lambda: cphase(th, qs[0], qs[1]),
            "toffoli": lambda: toffoli(qs[0], qs[1], qs[2]),
            "gamma": lambda: gamma(th, qs[0], qs[1]),
        }[kind]()
        gates.append(g)
    return Circuit(width, tuple(gates))


ALL_LOWERABLE = ["x", "h", "s", "sdg", "ry", "rz", "phase", "cnot", "cz",
                 "cry", "crz", "cphase", "toffoli", "gamma"]


def test_lower_preserves_unitary():
    # Full gate set except cgamma, whose lowering is contextual (see below).
    rng = np.random.default_rng(3)
    for _ in range(12):
        width = int(rng.integers(3, 6))
        c = _random_circuit(rng, width, 12, ALL_LOWERABLE)
        np.testing.assert_allclose(
            circuit_unitary(c), circuit_unitary(lower(c)), atol=1e-12
        )


def test_cgamma_lowering_in_context():
    # The control-injected variant agrees with the exact controlled gate on
    # weight<=1 control states with the target pair starting in |00>.
    rng = np.random.default_rng(4)
    for _ in range(20):
        th = float(rng.uniform(-math.pi, math.pi))
        c = Circuit(3, (cgamma(th, 0, 2, 1),))
        ctrl = rng.normal(size=2) + 1j * rng.normal(size=2)
        ctrl /= np.linalg.norm(ctrl)
        init = np.zeros(8, complex)
        init[0], init[1] = ctrl[0], ctrl[1]
        from foqcs.sim import run

        a = run(c, init.copy())
        b = run(lower(c), init.copy())
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_count_identity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = _random_circuit(rng, 5, 20,
                            ["cnot", "cz", "toffoli", "crz", "cry", "cphase", "h", "rz"])
        rep = count(c)
        raw = sum(1 for g in c.gates if g.kind in ("cnot", "cz"))
        assert rep.cnot_equivalent == 6 * rep.toffoli + 2 * rep.crz + 2 * rep.cphase + raw


def test_count_examples():
    from foqcs.dicke import prepare_dicke1
    from foqcs.encoder import select_oracle

    assert count(select_oracle(5)).cnot_equivalent == 10
    assert count(prepare_dicke1(8)).cnot_equivalent == 14
    rep = count(Circuit(1, ()))
    assert (rep.cnot_equivalent, rep.toffoli, rep.crz, rep.cphase, rep.single_qubit) == (
        0, 0, 0, 0, 0)


def test_dagger_is_adjoint():
    rng = np.random.default_rng(6)
    c = _random_circuit(rng, 4, 15, ALL_LOWERABLE)
    u = circuit_unitary(c)
    v = circuit_unitary(dagger(c))
    np.testing.assert_allclose(v, u.conj().T, atol=1e-12)
    with pytest.raises(DomainError):
        dagger(Circuit(3, (cgamma(0.3, 0, 1, 2),)))


def test_qasm_export_basics():
    qasm = export_qasm(Circuit(1, (x(0),)))
    assert "x q[0];" in qasm
    assert qasm.startswith("OPENQASM 2.0;")
    qasm = export_qasm(Circuit(2, (cnot(0, 1),)))
    assert "cx q[0],q[1];" in qasm
    with pytest.raises(DomainError):
        export_qasm(Circuit(3, (toffoli(0, 1, 2),)))


def test_qasm_round_trip_heisenberg():
    from foqcs.encoder import heisenberg_encoding
    from foqcs.models import HeisenbergParams

    be = heisenberg_encoding(HeisenbergParams(2, 0.4, -0.3, 0.9, 0.2, 0.8, -0.5))
    lowered = lower(be.circuit)
    back = parse_qasm(export_qasm(lowered))
    assert back.width == lowered.width
    sa = simulate(lowered).amps
    sb = simulate(back).amps
    np.testing.assert_allclose(sa, sb, atol=1e-12)


def test_circuit_json_round_trip():
    c = Circuit(3, (x(0), ry(0.25, 2), cnot(0, 1)), {"a": (0, 2), "b": (2, 1)})
    c2 = Circuit.from_json(c.to_json())
    assert c2 == c


def test_circuit_validation():
    with pytest.raises(DomainError):
        Circuit(2, (x(5),))
    with pytest.raises(DomainError):
        Circuit(2, (), {"a": (0, 2), "b": (1, 1)})
    with pytest.raises(DomainError):
        cnot(1, 1)


@pytest.mark.parametrize("d, text", [
    ({"width": 2, "gates": [{"kind": "x", "qubits": [1.5]}]}, "qubit must be an integer, got 1.5"),
    ({"width": 2, "gates": [{"kind": "x", "qubits": ["0"]}]}, "qubit must be an integer, got '0'"),
    ({"width": 2, "gates": [{"kind": "cnot", "qubits": [0, True]}]},
     "qubit must be an integer, got True"),
    ({"width": 2.7, "gates": []}, "width must be an integer, got 2.7"),
    ({"width": True, "gates": []}, "width must be an integer, got True"),
    ({"width": 2, "gates": [], "layout": {"a": [0.0, 2]}},
     "register 'a' start must be an integer, got 0.0"),
    ({"width": 2, "gates": [], "layout": {"a": [0, "2"]}},
     "register 'a' size must be an integer, got '2'"),
    ({"width": 2, "gates": [], "layout": {"a": [0, 1, 1]}},
     "register 'a' must be [start, size], got [0, 1, 1]"),
])
def test_from_dict_rejects_non_integer_indices(d, text):
    # Once a float qubit was counted and exported as "x q[1.5];", a string one
    # ended in a TypeError, and a float width was truncated.
    with pytest.raises(DomainError) as e:
        Circuit.from_dict(d)
    assert str(e.value) == text


def test_gate_angle_must_be_finite_number():
    for bad in (float("nan"), float("inf"), -float("inf"), "0.5", None):
        with pytest.raises(DomainError):
            Gate("ry", (0,), bad)
    with pytest.raises(DomainError):
        Gate("cnot", (0, 1), 0.5)
    # the value is stored as given, so JSON and QASM bytes do not change
    assert Gate("phase", (0,), 1).angle == 1 and isinstance(Gate("phase", (0,), 1).angle, int)
    d = {"width": 1, "gates": [{"kind": "ry", "qubits": [0], "angle": "0.5"}]}
    with pytest.raises(DomainError):
        Circuit.from_dict(d)
    d["gates"][0]["angle"] = 0.5
    assert Circuit.from_dict(d).gates[0].angle == 0.5
    qasm = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nry({}) q[0];\n'
    assert parse_qasm(qasm.format("0.25")).gates[0].angle == 0.25
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(DomainError):
            parse_qasm(qasm.format(bad))


def test_parse_qasm_rejects_a_repeated_qreg():
    # Once the second q[3] became qubits 2..4 under the name q, layout
    # {"q": (2, 3)}, and x q[2] landed on qubit 4.
    head = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
    with pytest.raises(ValueError, match="repeated qreg 'q'"):
        parse_qasm(head + "qreg q[2];\nqreg q[3];\nx q[2];\n")
    c = parse_qasm(head + "qreg q[2];\nqreg r[3];\nx r[2];\n")
    assert (c.width, c.layout, c.gates) == (5, {"q": (0, 2), "r": (2, 3)}, (x(4),))


@pytest.mark.parametrize("bad, text", [
    (cnot(-1, 2), "gate cnot(-1, 2) out of range for width 3"),
    (cnot(0, 3), "gate cnot(0, 3) out of range for width 3"),
    (toffoli(3, 0, -2), "gate toffoli(3, 0, -2) out of range for width 3"),
])
@pytest.mark.parametrize("before", [1, 1023])
def test_circuit_range_error_names_the_first_bad_gate(bad, text, before):
    ok = (h(0),) * (before - 1) + (cnot(0, 2),)
    with pytest.raises(DomainError) as e:
        Circuit(3, ok + (bad, x(7)) + ok)
    assert str(e.value) == text
    Circuit(3, ok + (toffoli(2, 1, 0),) + ok)


@pytest.mark.parametrize("q", [1.5, "0", None, True, np.int64(0)], ids=repr)
@pytest.mark.parametrize("before", [1, 1023])
def test_in_memory_circuit_rejects_a_non_integer_qubit(q, before):
    # Once x(1.5) was built and counted, and export_qasm and simulate then
    # raised a bare TypeError; x("0") raised one from min(). A numpy integer
    # cannot be written to JSON. The rule is that of from_dict.
    ok = (h(0),) * (before - 1) + (cnot(0, 1),)
    with pytest.raises(DomainError) as e:
        Circuit(2, ok + (x(q), x(7)) + ok)
    assert str(e.value) == f"gate x{(q,)}: qubits must be integers"
    with pytest.raises(DomainError, match="qubits must be integers"):
        BlockEncoding(Circuit(3, (), {"system": (2, 1)}), 1.0, prep=[x(q)])


# One rule names the bad gate, however far apart two bad gates are: the first
# offending gate in gate order, and within one gate the type rule before the
# range rule. Circuit and BlockEncoding's prep keep the same rule.
@pytest.mark.parametrize("gap", [3, 600])
@pytest.mark.parametrize("first, second, bad", [
    (x(7), x(True), "range"),
    (x(True), x(7), "type"),
    (cnot(7, True), x(7), "type"),
], ids=["range-then-type", "type-then-range", "type-and-range-in-one-gate"])
def test_the_first_bad_gate_in_gate_order_is_named(first, second, bad, gap):
    gates = (h(0), first) + (h(0),) * gap + (second,)
    name = f"{first.kind}{first.qubits}"
    with pytest.raises(DomainError) as e:
        Circuit(2, gates)
    assert str(e.value) == (f"gate {name} out of range for width 2" if bad == "range"
                            else f"gate {name}: qubits must be integers")
    with pytest.raises(DomainError) as e:
        BlockEncoding(Circuit(3, (), {"system": (2, 1)}), 1.0, prep=gates)
    assert str(e.value) == (
        f"prep gate {name} is not on the 2 ancillae below the system register"
        if bad == "range" else f"gate {name}: qubits must be integers")


ONE_GATES = [Gate(kind, (3, 1, 2)[:row.arity], angle) for kind, row in KINDS.items()
             for angle in ((0.0, math.pi, -math.pi, 1.234) if row.angled else (None,))]
every_kind = pytest.mark.parametrize("g", ONE_GATES, ids=lambda g: f"{g.kind}-{g.angle}")


@every_kind
def test_control_row_matches_the_unitary(g):
    # operands (3, 1, 2) unsorted; the control is qubit 0
    if KINDS[g.kind].controlled is None:
        with pytest.raises(DomainError):
            control(g, 0)
        return
    u = circuit_unitary(Circuit(4, (g,)))
    on = np.arange(16) & 1
    expected = np.diag(1 - on) + np.diag(on) @ u
    np.testing.assert_allclose(circuit_unitary(Circuit(4, (control(g, 0),))), expected,
                               atol=1e-14, rtol=0)


@every_kind
def test_adjoint_row_matches_the_unitary(g):
    if g.kind == "cgamma":
        with pytest.raises(DomainError):
            dagger(Circuit(4, (g,)))
        return
    u = circuit_unitary(Circuit(4, (g,)))
    np.testing.assert_allclose(circuit_unitary(dagger(Circuit(4, (g,)))), u.conj().T,
                               atol=1e-14, rtol=0)


@every_kind
def test_qasm_row_is_set_for_exactly_the_lowered_kinds(g):
    c = Circuit(4, (g,))
    if g.kind not in LOWERED_KINDS:
        with pytest.raises(DomainError):
            export_qasm(c)
        return
    assert parse_qasm(export_qasm(c)).gates == c.gates


# Each kind's constructor is foqcs.circuit.<kind>; the reference below is each
# constructor's body before it built its tuple directly:
# Gate(kind, operands, float(angle)).
ANY_ANGLE = st.one_of(
    st.floats(),  # NaN and +-inf included
    st.sampled_from([float("nan"), float("inf"), -float("inf"), None, "0.5", "nan", "x",
                     True, 2, 1j, [0.5]]),
    st.integers(-10, 10),
)


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as e:  # the comparison is of what each raises
        return type(e), str(e)


def test_every_kind_has_a_constructor():
    # A row without its public constructor, or a name bound to another
    # kind's, fails here.
    for kind in KINDS:
        assert getattr(circuit, kind).__name__ == kind


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
@example(data=None)
def test_constructor_matches_the_generic_gate(kind, data):
    row = KINDS[kind]
    if data is None:  # repeated operands and a NaN angle together
        ops, angle = (1,) * row.arity, float("nan")
    else:
        ops = tuple(data.draw(st.lists(st.integers(0, 2), min_size=row.arity,
                                       max_size=row.arity)))
        angle = data.draw(ANY_ANGLE) if row.angled else None
    got = _outcome(getattr(circuit, kind), *((angle, *ops) if row.angled else ops))
    want = _outcome(lambda: Gate(kind, ops, float(angle)) if row.angled else Gate(kind, ops))
    assert got == want
    if isinstance(want, Gate):
        assert type(got) is Gate and type(got.angle) is type(want.angle)
        assert Gate._make(got) == got


def test_make_and_replace_check_like_the_constructor():
    g = cnot(0, 1)
    for bad, text in [
        (lambda: g._replace(qubits=(1, 1)), "cnot operands must be distinct: (1, 1)"),
        (lambda: g._replace(angle=0.5), "cnot: angle not allowed"),
        (lambda: g._replace(kind="ry"), "ry takes 1 qubits, got 2"),
        (lambda: Gate._make(("bogus", (0,), None)), "unknown gate kind 'bogus'"),
        (lambda: Gate._make(("ry", (0,), float("nan"))),
         "ry: angle must be a finite number, got nan"),
        (lambda: Gate._make(("rz", (0,))), "rz: angle must be a finite number, got None"),
    ]:
        with pytest.raises(DomainError) as e:
            bad()
        assert str(e.value) == text
    assert g._replace(qubits=(2, 0)) == cnot(2, 0)
    assert Gate._make(("ry", (0,), 0.5)) == ry(0.5, 0)
    assert pickle.loads(pickle.dumps(g)) == g


def test_a_gate_is_an_immutable_plain_tuple():
    g = ry(0.5, 3)
    assert g == ("ry", (3,), 0.5) and hash(g) == hash(("ry", (3,), 0.5))
    assert repr(g) == "Gate(kind='ry', qubits=(3,), angle=0.5)"
    with pytest.raises(AttributeError):
        g.angle = 1.0
    with pytest.raises(AttributeError):
        g.label = "a"
    with pytest.raises(TypeError):
        g[2] = 1.0
    assert g == ("ry", (3,), 0.5)


def _phase_permutation(u: np.ndarray) -> tuple[list, list] | None:
    """(rows, entries) when each column c of u has exactly one nonzero,
    entries[c] in row rows[c]; else None. The sparse simulator once ran this
    scan on every gate; it is the reference for PERMUTATION_ROWS."""
    rows, entries = [], []
    for col in zip(*u.tolist()):
        nonzero = [(r, x) for r, x in enumerate(col) if x]
        if len(nonzero) != 1:
            return None
        rows.append(nonzero[0][0])
        entries.append(nonzero[0][1])
    return rows, entries


def test_permutation_rows_hold_at_every_angle():
    # A listed kind has one nonzero per column, in the listed rows, whatever
    # the angle; an unlisted kind mixes amplitudes at a generic angle.
    rng = np.random.default_rng(15)
    for kind, row in KINDS.items():
        angles = [0.0, -0.0, math.pi, -math.pi, float(rng.uniform(-4, 4))]
        for angle in angles if row.angled else [None]:
            moves = _phase_permutation(row.unitary(angle))
            if kind in PERMUTATION_ROWS:
                assert moves is not None, (kind, angle)
                assert moves[0] == PERMUTATION_ROWS[kind].tolist(), (kind, angle)
        if kind not in PERMUTATION_ROWS:
            assert moves is None, kind  # at the random angle, or h at none
    assert set(PERMUTATION_ROWS) == {"x", "cnot", "toffoli", *DIAGONAL_KINDS}
    assert DIAGONAL_KINDS == {"s", "sdg", "rz", "phase", "cz", "crz", "cphase"}
    assert SELF_TRANSPOSE_KINDS == DIAGONAL_KINDS | {"x", "h", "cnot", "toffoli"}


def test_every_lowering_keeps_to_the_operands_of_its_gate():
    # The exporters format a lowering through its gate's operand slots
    # (_shape), so every lowering, cgamma's included, must emit only int
    # qubits from its gate's operands.
    rng = np.random.default_rng(16)
    for kind, row in KINDS.items():
        for _ in range(4):
            qubits = tuple(int(q) for q in rng.permutation(40)[:row.arity])
            angles = [0.0, -0.0, math.pi, -math.pi, float(rng.uniform(-4, 4))]
            for angle in angles if row.angled else [None]:
                low = lower(Circuit(40, (Gate(kind, qubits, angle),))).gates
                assert low, (kind, angle)
                for g in low:
                    assert {type(q) for q in g.qubits} == {int}, (kind, angle, g)
                    assert set(g.qubits) <= set(qubits), (kind, angle, g)


def test_each_lowering_has_one_shape():
    # The exporters read the kinds and operand slots of each kind's lowering,
    # and of its adjoint's, off one exemplar (_shape): they must depend on
    # neither the operands nor the angle.
    from foqcs.circuit import _lower_gate, _lowered_adjoint, _shape

    rng = np.random.default_rng(20)
    for kind, row in KINDS.items():
        rules = (_lower_gate, _lowered_adjoint) if row.adjoint else (_lower_gate,)
        for rule in rules:
            for angle in (0.7, -2.3) if row.angled else (None,):
                for qubits in (tuple(range(row.arity))[::-1],
                               tuple(int(q) for q in rng.permutation(40)[:row.arity])):
                    low = rule(Gate(kind, qubits, angle))
                    shape = tuple((g.kind, tuple(qubits.index(q) for q in g.qubits))
                                  for g in low)
                    assert shape == _shape(rule, kind), (kind, rule, angle, qubits)
                    assert [g.angle is not None for g in low] == [
                        KINDS[k].angled for k, _ in shape]
