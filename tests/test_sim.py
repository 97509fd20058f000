import tracemalloc

import numpy as np
import pytest

from foqcs.circuit import (
    GATE_KINDS,
    BlockEncoding,
    Circuit,
    Gate,
    cgamma,
    cnot,
    cz,
    gamma,
    h,
    ry,
    toffoli,
    x,
)
from foqcs.errors import DomainError, ResourceGuardError
from foqcs.pauli import PauliSum, PauliTerm
from foqcs.sim import (
    SPARSE_MAX_WIDTH,
    StateVector,
    _run_sparse,
    assert_state,
    extract_block,
    gate_unitary,
    max_width,
    run,
    simulate,
)


def test_x_and_bell():
    st = simulate(Circuit(1, (x(0),)))
    np.testing.assert_allclose(st.amps, [0, 1])
    st = simulate(Circuit(2, (h(0), cnot(0, 1))))
    np.testing.assert_allclose(st.amps, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)


def test_norm_preservation_and_linearity():
    from tests.test_circuit import ALL_LOWERABLE, _random_circuit

    rng = np.random.default_rng(7)
    for _ in range(5):
        c = _random_circuit(rng, 5, 25, ALL_LOWERABLE)
        psi = rng.normal(size=32) + 1j * rng.normal(size=32)
        psi /= np.linalg.norm(psi)
        phi = rng.normal(size=32) + 1j * rng.normal(size=32)
        phi /= np.linalg.norm(phi)
        a, b = rng.normal(size=2)
        out = simulate(c, StateVector(5, psi)).amps
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        mix = simulate(c, StateVector(5, a * psi + b * phi)).amps
        np.testing.assert_allclose(
            mix, a * out + b * simulate(c, StateVector(5, phi)).amps, atol=1e-12
        )


def test_lower_agrees_on_random_states():
    from foqcs.circuit import lower
    from tests.test_circuit import ALL_LOWERABLE, _random_circuit

    rng = np.random.default_rng(8)
    for _ in range(5):
        c = _random_circuit(rng, 6, 20, ALL_LOWERABLE)
        psi = rng.normal(size=64) + 1j * rng.normal(size=64)
        psi /= np.linalg.norm(psi)
        a = simulate(c, StateVector(6, psi.copy())).amps
        b = simulate(lower(c), StateVector(6, psi.copy())).amps
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_extract_block_z():
    from foqcs.encoder import generic_foqcs

    be = generic_foqcs(PauliSum(1, [PauliTerm(1.0, "Z")]))
    rep = extract_block(be, np.diag([1.0, -1.0]))
    assert rep.max_abs_error < 1e-12


def test_extract_block_worked_2x2():
    # alpha_00 I + alpha_01 Z + alpha_10 X + alpha_11 Y from the one-qubit case
    from foqcs.encoder import generic_foqcs
    from foqcs.pauli import hamiltonian_matrix, one_norm

    rng = np.random.default_rng(9)
    al = rng.normal(size=4) + 1j * rng.normal(size=4)
    h_ = PauliSum(1, [PauliTerm(al[0], "I"), PauliTerm(al[1], "Z"),
                      PauliTerm(al[2], "X"), PauliTerm(al[3], "Y")])
    be = generic_foqcs(h_)
    rep = extract_block(be, hamiltonian_matrix(h_) / one_norm(h_))
    assert rep.max_abs_error < 1e-10


def _per_column_block(circ):
    """Reference: the whole circuit run on |0_anc>|b> for every column b."""
    sys_start, n = circ.layout["system"]
    rows = np.arange(1 << n) << sys_start
    block = np.empty((1 << n, 1 << n), dtype=complex)
    for b in range(1 << n):
        amps = np.zeros(1 << circ.width, dtype=complex)
        amps[b << sys_start] = 1.0
        run(circ, amps)
        block[:, b] = amps[rows]
    return block


def _every_kind(rng, qubits):
    """One gate of each kind on the given qubits, random angles."""
    out = []
    for kind, (arity, angled) in GATE_KINDS.items():
        qs = tuple(int(q) for q in rng.permutation(qubits)[:arity])
        out.append(Gate(kind, qs, float(rng.uniform(-np.pi, np.pi)) if angled else None))
    return out


def test_extract_block_every_kind_in_prep_and_unprep():
    # Ancillae 0..2, system 3..4. Every gate kind sits in prep and in select,
    # and every kind with an adjoint (all but cgamma) in unprep; the reference
    # runs the flat circuit, PL-dagger included, on each column.
    from foqcs.circuit import BlockEncoding

    rng = np.random.default_rng(61)
    layout = {"anc": (0, 3), "system": (3, 2)}
    for _ in range(4):
        prep = [h(0), h(1), ry(float(rng.uniform(-np.pi, np.pi)), 2)]
        prep += _every_kind(rng, [0, 1, 2])
        select = [cnot(0, 3), cz(1, 4), toffoli(0, 2, 4), h(1),
                  gamma(float(rng.uniform(-np.pi, np.pi)), 2, 3),
                  cgamma(float(rng.uniform(-np.pi, np.pi)), 1, 4, 0)]
        select += _every_kind(rng, [0, 1, 2, 3, 4])
        unprep = [h(2), ry(float(rng.uniform(-np.pi, np.pi)), 0)]
        unprep += [g for g in _every_kind(rng, [0, 1, 2]) if g.kind != "cgamma"]
        be = BlockEncoding(Circuit(5, tuple(select), layout), 1.0, prep=prep, unprep=unprep)
        ref = _per_column_block(be.circuit)
        rep = extract_block(be, ref)
        assert rep.max_abs_error < 1e-13
        np.testing.assert_allclose(rep.postselect_probability,
                                   np.sum(np.abs(ref) ** 2, axis=0), atol=1e-13)


def test_extract_block_no_system_gate():
    # Without a system gate the block is <0|A|0> times the identity.
    from foqcs.encoder import BlockEncoding

    rng = np.random.default_rng(62)
    circ = Circuit(5, tuple(_every_kind(rng, [0, 1, 2])), {"system": (3, 2)})
    ref = _per_column_block(circ)
    np.testing.assert_allclose(ref, ref[0, 0] * np.eye(4), atol=1e-14)
    rep = extract_block(BlockEncoding(circ, 1.0), ref)
    assert rep.max_abs_error < 1e-13


def test_postselect_probability_eigenvector():
    # For an eigenvector input the all-zero-ancilla probability is |l/N|^2.
    from foqcs.encoder import heisenberg_encoding
    from foqcs.models import HeisenbergParams, heisenberg_hamiltonian
    from foqcs.pauli import hamiltonian_matrix, one_norm

    p = HeisenbergParams(2, 0.7, -0.2, 0.4, 0.1, 0.5, -0.6)
    be = heisenberg_encoding(p)
    hm = hamiltonian_matrix(heisenberg_hamiltonian(p))
    evals, evecs = np.linalg.eigh(hm)
    norm = one_norm(heisenberg_hamiltonian(p))
    sys_start, n = be.circuit.layout["system"]
    for idx in range(len(evals)):
        amps = np.zeros(1 << be.circuit.width, complex)
        amps[np.arange(1 << n) << sys_start] = evecs[:, idx]
        run(be.circuit, amps)
        prob = float(np.sum(np.abs(amps[np.arange(1 << n) << sys_start]) ** 2))
        assert prob == pytest.approx(abs(evals[idx] / norm) ** 2, abs=1e-10)


def test_assert_state():
    from foqcs.dicke import prepare_dicke1, prepare_dicke2k

    r = assert_state(prepare_dicke1(3), {1: 3 ** -0.5, 2: 3 ** -0.5, 4: 3 ** -0.5})
    assert r.ok, r.mismatches
    r = assert_state(prepare_dicke2k(4, 2), {5: 2 ** -0.5, 10: 2 ** -0.5})
    assert r.ok
    r = assert_state(Circuit(2, ()), {0: 1.0})
    assert r.ok
    r = assert_state(Circuit(1, (x(0),)), {0: 1.0})
    assert not r.ok and r.mismatches
    r = assert_state(Circuit(1, ()), {0: complex("nan")})
    assert not r.ok and r.mismatches


def test_width_guard(monkeypatch):
    monkeypatch.setenv("FOQCS_MAX_WIDTH", "4")
    assert max_width() == 4
    with pytest.raises(ResourceGuardError):
        simulate(Circuit(5, (x(0),)))
    monkeypatch.delenv("FOQCS_MAX_WIDTH")
    with pytest.raises(ResourceGuardError):
        simulate(Circuit(25, (x(0),)))


def test_sparse_index_width_guard(monkeypatch):
    # Sparse indices are int64, so the sparse paths stop at 62 qubits even when
    # FOQCS_MAX_WIDTH allows more, and never return a wrapped index.
    monkeypatch.setenv("FOQCS_MAX_WIDTH", "80")
    assert SPARSE_MAX_WIDTH == 62
    r = assert_state(Circuit(62, (x(61),)), {1 << 61: 1.0})
    assert r.ok and r.max_abs_error == 0.0
    wide = Circuit(64, (x(63),), {"system": (62, 2)})
    with pytest.raises(ResourceGuardError, match="width 64 exceeds simulator cap 62"):
        assert_state(wide, {0: 1.0})
    with pytest.raises(ResourceGuardError):
        extract_block(BlockEncoding(wide, 1.0))
    with pytest.raises(ResourceGuardError):
        _run_sparse(wide.gates, np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex))


def test_extract_block_column_bits_fit_in_int64(monkeypatch):
    # extract_block holds each column in n index bits above the top qubit, so
    # width + n must stay within the 62 bits as well.
    monkeypatch.setenv("FOQCS_MAX_WIDTH", "80")
    with pytest.raises(ResourceGuardError, match="width 61 plus 2 column bits"):
        extract_block(BlockEncoding(Circuit(61, (), {"system": (59, 2)}), 1.0))


def test_extract_block_stays_on_the_support():
    # Heisenberg n=5 is 21 qubits: one 2^21 column would take 33.5 MB.
    from foqcs.encoder import heisenberg_encoding
    from foqcs.models import random_heisenberg

    be = heisenberg_encoding(random_heisenberg(5, np.random.default_rng(64)))
    tracemalloc.start()
    try:
        extract_block(be)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_extract_block_splits_the_columns_of_a_dense_pr_state():
    # v has 5 nonzeros on 4 ancillae, so a pass takes 16 // 5 = 3 columns:
    # the 4 columns run as passes [0, 1, 2] and [3].
    prep = (h(0), h(1), toffoli(0, 1, 2), Gate("cry", (2, 3), 0.9))
    select = Circuit(6, (cnot(0, 4), h(5), cz(3, 5), Gate("crz", (2, 4), 0.7), cnot(5, 1)),
                     {"system": (4, 2)})
    be = BlockEncoding(select, 1.0, prep=prep, unprep=(ry(0.4, 1), h(3), cnot(3, 0)))
    ref = _per_column_block(be.circuit)
    rep = extract_block(be)
    np.testing.assert_allclose(rep.block, ref, atol=1e-12, rtol=0)
    np.testing.assert_allclose(rep.postselect_probability, np.sum(np.abs(ref) ** 2, axis=0),
                               atol=1e-12, rtol=0)


def test_extract_block_bounds_the_support_of_a_dense_pr_state():
    # v is dense on 10 ancillae, so one pass over all 2^6 columns would start
    # from 2^16 entries, as many as a whole 2^16 vector (1 MiB); a pass of one
    # column starts from 2^10.
    a, n = 10, 6
    anc = tuple(h(q) for q in range(a))
    select = Circuit(a + n, tuple(cnot(q, a + q % n) for q in range(a)), {"system": (a, n)})
    be = BlockEncoding(select, 1.0, prep=anc, unprep=anc)
    extract_block(be)  # the first call's lazy imports are not the pass's memory
    tracemalloc.start()
    try:
        extract_block(be)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << (a + n)


def test_assert_state_stays_on_the_support():
    # A dense vector at width 20 would take 16 MiB; the support takes 20 entries.
    from foqcs.dicke import dicke_state_map, prepare_dicke1

    circ, expected = prepare_dicke1(20), dicke_state_map("d1", 20)
    tracemalloc.start()
    try:
        r = assert_state(circ, expected)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.ok, r.mismatches
    assert peak < 1e6


def _replace(circ, pos, gate):
    gates = list(circ.gates)
    if gate is None:
        del gates[pos]
    else:
        gates[pos] = gate
    return Circuit(circ.width, tuple(gates), circ.layout)


def test_assert_state_fails_a_perturbed_gamma():
    from foqcs.dicke import dicke_state_map, prepare_dicke1

    circ = prepare_dicke1(20)
    pos = [i for i, g in enumerate(circ.gates) if g.kind == "gamma"][10]
    g = circ.gates[pos]
    r = assert_state(_replace(circ, pos, Gate("gamma", g.qubits, g.angle + 1e-6)),
                     dicke_state_map("d1", 20))
    assert not r.ok and r.max_abs_error > 1e-12
    assert [i for i, _, _ in r.mismatches] == sorted(i for i, _, _ in r.mismatches)


def test_assert_state_lists_the_stray_indices_of_a_dropped_cnot():
    from foqcs.dicke import DICKE_KINDS, dicke_state_map

    circ, expected = DICKE_KINDS["d2kd"].build(10, 3, None), dicke_state_map("d2kd", 10, 3)
    pos = [i for i, g in enumerate(circ.gates) if g.kind == "cnot"][-1]
    r = assert_state(_replace(circ, pos, None), expected)
    assert not r.ok
    stray = [(i, out, ref) for i, out, ref in r.mismatches if i not in expected]
    assert stray and all(abs(out) > 1e-12 and ref == 0 for _, out, ref in stray)
    assert [i for i, _, _ in r.mismatches] == sorted(i for i, _, _ in r.mismatches)


def test_extract_block_fails_a_retargeted_select_gate():
    from foqcs.encoder import heisenberg_encoding
    from foqcs.models import HeisenbergParams, heisenberg_hamiltonian
    from foqcs.pauli import hamiltonian_matrix, one_norm

    p = HeisenbergParams(3, 0.7, -0.2, 0.4, 0.1, 0.5, -0.6)
    be = heisenberg_encoding(p)
    h_ = heisenberg_hamiltonian(p)
    ref = hamiltonian_matrix(h_) / one_norm(h_)
    assert extract_block(be, ref).max_abs_error < 1e-10
    sys_start, n = be.layout["system"]
    pos, g = next((i, g) for i, g in enumerate(be.select.gates) if g.kind == "cnot")
    target = sys_start + (g.qubits[1] - sys_start + 1) % n
    bad = BlockEncoding(_replace(be.select, pos, cnot(g.qubits[0], target)),
                        be.normalization, be.prep, be.unprep)
    assert extract_block(bad, ref).max_abs_error > 1e-10


def test_width_mismatch():
    with pytest.raises(DomainError):
        simulate(Circuit(2, ()), StateVector.zero(3))
    for init in (StateVector.zero(3), StateVector(2, np.ones(8, dtype=complex))):
        with pytest.raises(DomainError):
            assert_state(Circuit(2, ()), {0: 1.0}, init=init)


def _embed(g, width):
    """gate_unitary(g) embedded into the full 2^width matrix, basis index by index."""
    u = gate_unitary(g)
    full = np.zeros((1 << width, 1 << width), dtype=complex)
    for col in range(1 << width):
        local_in = sum(((col >> q) & 1) << i for i, q in enumerate(g.qubits))
        rest = col & ~sum(1 << q for q in g.qubits)
        for local_out in range(u.shape[0]):
            row = rest | sum(((local_out >> i) & 1) << q for i, q in enumerate(g.qubits))
            full[row, col] = u[local_out, local_in]
    return full


@pytest.mark.parametrize("kind", list(GATE_KINDS))
def test_kernel_every_kind(kind):
    # Operands in unsorted order. Angle 0 makes every rotation and phase kind the
    # identity, and other angles make rz/crz/phase/cphase diagonal, so the
    # identity-row skip and the in-place scaling both run.
    width = 4
    arity, angled = GATE_KINDS[kind]
    rng = np.random.default_rng(63)
    operands = [(3, 0, 2)[:arity], (1, 3, 0)[:arity], (2, 1, 3)[:arity]]
    angles = [0.0, 0.7, -2.9, np.pi] if angled else [None]
    for qs in operands:
        for angle in angles:
            g = Gate(kind, qs, angle)
            full = _embed(g, width)
            psi = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
            batch = rng.normal(size=(1 << width, 3)) + 1j * rng.normal(size=(1 << width, 3))
            for amps in (psi, batch):
                out = amps.copy()
                run(Circuit(width, (g,)), out)
                np.testing.assert_allclose(out, full @ amps, atol=1e-14, rtol=0)


def test_gate_unitary_constants_unchanged():
    # The fixed kinds share read-only module constants across calls.
    for kind in ("x", "h", "s", "sdg", "cnot", "cz", "toffoli"):
        g = Gate(kind, tuple(range(GATE_KINDS[kind][0])))
        assert gate_unitary(g) is gate_unitary(g)
        assert not gate_unitary(g).flags.writeable
