import math
import tracemalloc

import numpy as np
import pytest

from foqcs import errors, sim
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
    TRUNCATION,
    BlockReport,
    StateVector,
    _apply_unitary,
    _run_gates,
    _run_sparse,
    assert_state,
    extract_block,
    gate_unitary,
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
    # Ancillae 0..2, system 3..4. Every gate kind sits in select, and every
    # kind with an exact transpose (all but cgamma) in prep, so in PL too; the
    # reference runs the flat circuit, PL-dagger = PR-transpose included, on
    # each column.
    from foqcs.circuit import BlockEncoding

    rng = np.random.default_rng(61)
    layout = {"anc": (0, 3), "system": (3, 2)}
    for _ in range(4):
        prep = [h(0), h(1), ry(float(rng.uniform(-np.pi, np.pi)), 2)]
        prep += [g for g in _every_kind(rng, [0, 1, 2]) if g.kind != "cgamma"]
        select = [cnot(0, 3), cz(1, 4), toffoli(0, 2, 4), h(1),
                  gamma(float(rng.uniform(-np.pi, np.pi)), 2, 3),
                  cgamma(float(rng.uniform(-np.pi, np.pi)), 1, 4, 0)]
        select += _every_kind(rng, [0, 1, 2, 3, 4])
        be = BlockEncoding(Circuit(5, tuple(select), layout), 1.0, prep=prep)
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


def test_width_guard():
    with pytest.raises(ResourceGuardError):
        simulate(Circuit(25, (x(0),)))


def test_sparse_index_width_guard():
    # Indices of up to 62 bits are int64; wider ones are Python ints in an
    # object array, so no sparse path has a width cap and none wraps an index.
    assert sim._index_dtype(62) is np.int64 and sim._index_dtype(63) is object
    r = assert_state(Circuit(62, (x(61),)), {1 << 61: 1.0})
    assert r.ok and r.max_abs_error == 0.0
    wide = Circuit(64, (x(63), h(62)), {"system": (62, 2)})
    r = assert_state(wide, {1 << 63: 0.5 ** 0.5, 3 << 62: 0.5 ** 0.5})
    assert r.ok and r.max_abs_error < 1e-15, r.mismatches
    r = assert_state(wide, {1 << 63: 1.0})
    assert not r.ok and [i for i, _, _ in r.mismatches] == [1 << 63, 3 << 62]
    idx, amps, delta = _run_sparse(wide.gates[:1], np.zeros(1, dtype=object),
                                   np.ones(1, dtype=complex))
    assert idx.dtype == object and idx.tolist() == [1 << 63] and amps.tolist() == [1]
    # x on the top system qubit flips bit 1 of the column.
    rep = extract_block(BlockEncoding(Circuit(64, (x(63),), {"system": (62, 2)}), 1.0),
                        np.eye(4)[[2, 3, 0, 1]])
    assert rep.max_abs_error == 0.0 and rep.postselect_probability.tolist() == [1.0] * 4


def test_a_gate_over_the_entry_budget_is_refused_before_its_block(monkeypatch):
    # Each h doubles the support of |0>: at a budget of 2^10 entries, gate 10's
    # 2 x 2^10 block is the first over it, refused before it is allocated.
    monkeypatch.setattr(errors, "ENTRY_BUDGET_BITS", 10)
    applied, shapes = [], []
    apply, zeros = sim._apply_unitary, np.zeros

    def counted_apply(amps, *args):
        applied.append(amps.shape)
        apply(amps, *args)

    def counted_zeros(shape, *args, **kwargs):
        shapes.append(shape)
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(sim, "_apply_unitary", counted_apply)
    monkeypatch.setattr(np, "zeros", counted_zeros)
    with pytest.raises(ResourceGuardError, match="the 2 x 1024 block of h"):
        assert_state(Circuit(12, tuple(h(q) for q in range(12))), {0: 2 ** -6})
    assert applied == [(2, 1 << q) for q in range(10)]
    assert max(int(np.prod(s)) for s in shapes) == 1 << 10
    monkeypatch.undo()
    assert assert_state(Circuit(12, tuple(h(q) for q in range(12))),
                        dict.fromkeys(range(1 << 12), 2 ** -6)).ok


def _run_sparse_by_blocks(gates, idx, amps):
    """Reference: every gate through _apply_unitary on a (2**k, groups) block,
    grouped with np.unique, as the sparse driver did before its
    permutation-with-phases step."""
    for g in gates:
        qs = g.qubits
        k = len(qs)
        local = np.zeros_like(idx)
        rest = idx.copy()
        for i, q in enumerate(qs):
            bit = (idx >> q) & 1
            local |= bit << i
            rest ^= bit << q
        keys, group = np.unique(rest, return_inverse=True)
        blk = np.zeros((1 << k, keys.size), dtype=complex)
        blk[local, group] = amps
        _apply_unitary(blk, gate_unitary(g), tuple(range(k)), k)
        r, c = np.nonzero(blk)
        spread = np.array([sum(((p >> i) & 1) << q for i, q in enumerate(qs))
                           for p in range(1 << k)], dtype=np.int64)
        idx = keys[c] | spread[r]
        order = np.argsort(idx)
        idx, amps = idx[order], blk[r[order], c[order]]
    return idx, amps


def _random_sparse_case(rng, width):
    """A random sparse state of 1..60 entries, sorted, with exact zeros, signed
    zeros, subnormals, huge values, inf and NaN, and 8 random gates of every
    kind at angles that make rotations the identity or a permutation with
    phases."""
    special = [0.0, -0.0, 5e-324, -1e-310, 1e300, np.inf, -np.inf, np.nan]
    size = int(rng.integers(1, 61))
    idx = np.sort(rng.choice(1 << width, size=size, replace=False)).astype(np.int64)
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    for j in rng.choice(size, size=min(size, 3), replace=False):
        amps[j] = complex(rng.choice(special), rng.choice(special))
    gates = []
    for _ in range(8):
        kind = rng.choice(list(GATE_KINDS))
        arity, angled = GATE_KINDS[kind]
        qs = tuple(int(q) for q in rng.permutation(width)[:arity])
        angle = float(rng.choice([0.0, -0.0, np.pi, -np.pi, rng.uniform(-4, 4)]))
        gates.append(Gate(str(kind), qs, angle if angled else None))
    return idx, amps, gates


def test_sparse_driver_is_bit_identical_to_the_block_reference():
    rng = np.random.default_rng(71)
    for trial in range(150):
        idx, amps, gates = _random_sparse_case(rng, 6)
        given = idx.tobytes(), amps.tobytes()
        with np.errstate(all="ignore"):
            want = _run_sparse_by_blocks(gates, idx, amps)
            got = _run_sparse(gates, idx, amps)
        assert (idx.tobytes(), amps.tobytes()) == given
        assert got[0].dtype == np.int64
        assert np.array_equal(got[0], want[0]), trial
        assert got[1].tobytes() == want[1].tobytes(), trial


def test_sparse_driver_takes_unsorted_input_and_sorts_its_output():
    # The support need only be unique: a shuffled input gives the same bytes.
    rng = np.random.default_rng(15)
    for trial in range(150):
        idx, amps, gates = _random_sparse_case(rng, 6)
        perm = rng.permutation(idx.size)
        shuffled_idx, shuffled_amps = idx[perm], amps[perm]
        given = shuffled_idx.tobytes(), shuffled_amps.tobytes()
        with np.errstate(all="ignore"):
            want = _run_sparse(gates, idx, amps)
            got = _run_sparse(gates, shuffled_idx, shuffled_amps)
        assert (shuffled_idx.tobytes(), shuffled_amps.tobytes()) == given
        assert np.all(got[0][1:] > got[0][:-1]), trial
        assert got[0].tobytes() == want[0].tobytes(), trial
        assert got[1].tobytes() == want[1].tobytes(), trial


def test_extract_block_column_bits_fit_in_int64():
    # extract_block holds each column in n index bits above the top qubit, so
    # width + n picks the index dtype: width 61 plus 2 column bits is past the
    # 62 bits of an int64 and runs on object indices, to the identity block.
    assert sim._index_dtype(61 + 2) is object
    rep = extract_block(BlockEncoding(Circuit(61, (), {"system": (59, 2)}), 1.0), np.eye(4))
    assert rep.block.tolist() == np.eye(4).tolist()
    assert rep.max_abs_error == 0.0 and rep.postselect_probability.tolist() == [1.0] * 4


@pytest.mark.parametrize("truncate", [False, True])
def test_sparse_driver_is_bit_identical_on_int64_and_object_indices(truncate):
    # The same draws on int64 indices, on Python ints in an object array, and
    # with every qubit and index shifted up by 64: equal indices, all Python
    # ints in the object runs, and the same amplitude bytes and budget.
    rng = np.random.default_rng(64)
    for trial in range(150):
        idx, amps, gates = _random_sparse_case(rng, 6)
        high = [Gate(g.kind, tuple(q + 64 for q in g.qubits), g.angle) for g in gates]
        with np.errstate(all="ignore"):
            want = _run_sparse(gates, idx, amps, truncate)
            runs = {0: _run_sparse(gates, idx.astype(object), amps, truncate),
                    64: _run_sparse(high, idx.astype(object) << 64, amps, truncate)}
        assert want[0].dtype == np.int64
        for shift, got in runs.items():
            assert got[0].dtype == object and {type(i) for i in got[0]} <= {int}
            assert got[0].tolist() == [i << shift for i in want[0].tolist()], (trial, shift)
            assert got[1].tobytes() == want[1].tobytes(), (trial, shift)
            assert got[2] == want[2], (trial, shift)


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


def test_extract_block_holds_no_second_block():
    # The probabilities and the error are read a slab of columns at a time, so
    # besides the block (67 MB at n = 11) and the caller's reference, no
    # temporary of 4^n entries is held.
    from foqcs.encoder import heisenberg_encoding
    from foqcs.models import random_heisenberg

    be = heisenberg_encoding(random_heisenberg(11, np.random.default_rng(1)))
    reference = np.zeros((1 << 11, 1 << 11), dtype=complex)
    tracemalloc.start()
    try:
        rep = extract_block(be, reference)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * rep.block.nbytes
    assert rep.max_abs_error == np.max(np.abs(rep.block))
    assert (rep.postselect_probability.tobytes()
            == np.sum(np.abs(rep.block) ** 2, axis=0).tobytes())


def test_extract_block_splits_the_columns_of_a_dense_pr_state():
    # v has 5 nonzeros on 4 ancillae, so a pass takes 16 // 5 = 3 columns:
    # the 4 columns run as passes [0, 1, 2] and [3].
    prep = (h(0), h(1), toffoli(0, 1, 2), Gate("cry", (2, 3), 0.9))
    select = Circuit(6, (cnot(0, 4), h(5), cz(3, 5), Gate("crz", (2, 4), 0.7), cnot(5, 1)),
                     {"system": (4, 2)})
    be = BlockEncoding(select, 1.0, prep=prep)
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
    be = BlockEncoding(select, 1.0, prep=anc)
    extract_block(be)  # the first call's lazy imports are not the pass's memory
    tracemalloc.start()
    try:
        extract_block(be)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << (a + n)


def _spin_encodings(model, ns, seeds=range(5)):
    from foqcs.encoder import heisenberg_encoding, spin_glass_encoding
    from foqcs.models import random_heisenberg, random_spin_glass

    encode, draw = {"heisenberg": (heisenberg_encoding, random_heisenberg),
                    "spin-glass": (spin_glass_encoding, random_spin_glass)}[model]
    for n in ns:
        for seed in seeds:
            yield (model, n, seed), encode(draw(n, np.random.default_rng(seed)))


def _pr_from_zero(be, truncate=False):
    return _run_sparse(be.prep, np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex),
                       truncate=truncate)


def _gap(a, b) -> float:
    """The 2-norm of the difference of two sparse states (idx, amps, ...)."""
    union = np.union1d(a[0], b[0])
    diff = np.zeros(union.size, dtype=complex)
    diff[np.searchsorted(union, a[0])] = a[1]
    diff[np.searchsorted(union, b[0])] -= b[1]
    return float(np.linalg.norm(diff))


def test_sparse_pr_is_bit_identical_to_the_dense_run():
    # Untruncated, extract_block's v = PR|0> is the old dense run's, support
    # and amplitude bytes; so is the truncated v whenever nothing is dropped,
    # which holds for every Heisenberg encoding. Spin glass n = 4 has 20
    # ancillae, the widest of these dense runs within the entry budget.
    cases = [*_spin_encodings("heisenberg", range(2, 7)), *_spin_encodings("spin-glass", (2, 3, 4))]
    for case, be in cases:
        a = be.layout["system"][0]
        dense = _run_gates(be.prep, StateVector.zero(a).amps, a)
        support = np.flatnonzero(dense)
        for truncate in (False, True):
            idx, amps, delta = _pr_from_zero(be, truncate)
            if case[0] == "heisenberg" or not truncate:
                assert delta == 0.0, (case, truncate)
            if delta == 0.0:
                assert idx.tobytes() == support.astype(np.int64).tobytes(), (case, truncate)
                assert amps.tobytes() == dense[support].tobytes(), (case, truncate)


def test_truncation_budget_bounds_the_spin_glass_pr():
    # The untruncated run stands in for the dense one, which it equals bit for
    # bit (above); at n = 5 (25 ancillae) no dense run fits.
    for case, be in _spin_encodings("spin-glass", (3, 4, 5)):
        exact, kept = _pr_from_zero(be), _pr_from_zero(be, truncate=True)
        delta = kept[2]
        assert 0 < delta < 1e-15 and kept[0].size < exact[0].size, case
        assert _gap(exact, kept) <= delta, case


def test_truncation_budget_is_what_each_gate_drops():
    # Gate by gate on generic_foqcs's PR: the truncated run keeps the
    # untruncated output's entries above TRUNCATION byte for byte and drops
    # the rest, and the whole run's delta is the sum of the 2-norms dropped.
    # Each gate is unitary, so the exact v is within delta of the truncated
    # one. End to end the two float runs also differ by the rounding of their
    # kept amplitudes (up to 2e-15 on random sums at n = 5), so the bound is
    # checked per gate here.
    from foqcs.encoder import generic_foqcs
    from tests.test_encoder import random_pauli_sum

    rng = np.random.default_rng(16)
    budgets = []
    for n in (1, 2, 3, 4, 5):
        for _ in range(2):
            be = generic_foqcs(random_pauli_sum(rng, n, hermitian=True))
            idx, amps = np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex)
            total = 0.0
            for g in be.prep:
                full = _run_sparse([g], idx, amps)
                idx, amps, dropped = _run_sparse([g], idx, amps, truncate=True)
                kept = np.isin(full[0], idx)
                assert full[0][kept].tobytes() == idx.tobytes()
                assert full[1][kept].tobytes() == amps.tobytes()
                small = np.abs(full[1][~kept])
                assert np.all(small <= TRUNCATION) and np.all(np.abs(amps) > TRUNCATION)
                assert math.isclose(dropped, math.hypot(*small.tolist()), rel_tol=1e-12)
                total += dropped
            whole = _pr_from_zero(be, truncate=True)
            assert whole[0].tobytes() == idx.tobytes() and whole[1].tobytes() == amps.tobytes()
            assert whole[2] == total, n
            budgets.append(total)
    assert min(budgets[2:]) > 0  # every case at n >= 2 drops something


def test_truncation_keeps_a_nan_and_counts_what_it_drops():
    # h(0) sends NaN at |0> to NaN at |0> and |1>, and 1e-20 at |2> to two
    # entries of 1e-20 / sqrt(2) at |2> and |3>, which are dropped.
    idx, amps = np.array([0, 2], dtype=np.int64), np.array([np.nan, 1e-20], dtype=complex)
    out_idx, out_amps, delta = _run_sparse([h(0)], idx, amps, truncate=True)
    assert out_idx.tolist() == [0, 1] and np.all(np.isnan(out_amps))
    assert math.isclose(delta, 1e-20, rel_tol=1e-12)
    out_idx, _, delta = _run_sparse([h(0)], idx, amps)
    assert out_idx.tolist() == [0, 1, 2, 3] and delta == 0.0


def test_block_passes_only_within_the_truncation_widened_tolerance():
    def within(err, delta, tol):
        return BlockReport(np.zeros((1, 1)), err, np.zeros(1), delta).within(tol)

    assert within(0.0, 0.0, 0.0)
    assert within(0.5, 0.25, 1.0625)  # 0.5 + 2 * 0.25 + 0.25**2, exact in binary
    assert not within(0.5, 0.25, 1.0)  # err <= tol, but not err + 2 delta + delta**2
    assert not within(math.nan, 0.0, 1.0)
    assert not within(0.0, math.nan, 1.0)
    assert not within(math.inf, 0.0, 1e308)


def test_extract_block_of_the_widest_spin_glass_stays_small():
    # Spin glass n = 4: 20 ancillae, width 24. The old dense v alone took
    # 16 MiB.
    from foqcs.encoder import spin_glass_encoding
    from foqcs.models import random_spin_glass, spin_glass_hamiltonian
    from foqcs.pauli import hamiltonian_matrix, one_norm

    p = random_spin_glass(4, np.random.default_rng(24))
    be = spin_glass_encoding(p)
    assert be.width == 24
    h_ = spin_glass_hamiltonian(p)
    ref = hamiltonian_matrix(h_) / one_norm(h_)
    extract_block(be, ref)  # the first call's lazy imports are not the pass's memory
    tracemalloc.start()
    try:
        rep = extract_block(be, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    assert 0 < rep.truncation and rep.within(1e-10), rep.max_abs_error


def test_assert_state_stays_on_the_support():
    # A dense vector at width 20 would take 16 MiB; the support takes 20 entries.
    from foqcs.dicke import dicke_state_map, prepare_dicke1

    circ, expected = prepare_dicke1(20), dicke_state_map("d1", 20)
    assert_state(circ, expected)  # the first call's lazy imports are not the state's memory
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
                        be.normalization, be.prep)
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
