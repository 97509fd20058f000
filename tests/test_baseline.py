import numpy as np
import pytest

from foqcs.baseline import generic_state_prep, standard_lcu
from foqcs.circuit import count
from foqcs.errors import DomainError
from foqcs.models import HeisenbergParams, heisenberg_hamiltonian, random_heisenberg
from foqcs.pauli import PauliSum, PauliTerm, hamiltonian_matrix, one_norm
from foqcs.sim import extract_block, simulate


def test_state_prep_trivial_and_uniform():
    c = generic_state_prep(np.array([1.0, 0, 0, 0]))
    assert len(c.gates) == 0  # empty rotation tree
    amps = np.full(4, 0.5)
    c = generic_state_prep(amps)
    assert all(g.kind == "ry" for g in c.gates)
    np.testing.assert_allclose(simulate(c).amps, amps, atol=1e-14)


def test_state_prep_random():
    rng = np.random.default_rng(40)
    for c_ in (1, 2, 3, 4, 5):
        v = rng.normal(size=1 << c_) + 1j * rng.normal(size=1 << c_)
        v /= np.linalg.norm(v)
        circ = generic_state_prep(v)
        np.testing.assert_allclose(simulate(circ).amps, v, atol=1e-12)
        assert count(circ).cnot_equivalent <= 2 * (1 << c_)
    with pytest.raises(DomainError):
        generic_state_prep(np.array([1.0, 1.0]))


def test_state_prep_rejects_nan():
    with pytest.raises(DomainError):
        generic_state_prep(np.array([np.nan, 0.0]))


def test_state_prep_sparse():
    rng = np.random.default_rng(41)
    v = np.zeros(16, complex)
    v[[1, 5, 11]] = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    np.testing.assert_allclose(simulate(generic_state_prep(v)).amps, v, atol=1e-12)


def test_single_term_lcu():
    h = PauliSum(2, [PauliTerm(0.8, "XZ")])
    be = standard_lcu(h)
    assert be.postselect == () and be.prep == ()
    rep = extract_block(be, hamiltonian_matrix(h) / 0.8)
    assert rep.max_abs_error < 1e-12
    # complex coefficient needs its phase
    h = PauliSum(1, [PauliTerm(1j, "Y")])
    rep = extract_block(standard_lcu(h), hamiltonian_matrix(h) / 1.0)
    assert rep.max_abs_error < 1e-12


def test_lcu_block_identity():
    rng = np.random.default_rng(42)
    for n in (2, 3):
        p = random_heisenberg(n, rng)
        h = heisenberg_hamiltonian(p)
        be = standard_lcu(h)
        rep = extract_block(be, hamiltonian_matrix(h) / one_norm(h))
        assert rep.max_abs_error < 1e-10
        assert be.postselect == tuple(range(4 + 3))  # M = 6n-3 -> c = 4 index + 3 work ancillae


def test_lcu_count_monotone_in_terms():
    p = HeisenbergParams(3, 0.9, -0.7, 0.8, 0.6, -0.5, 0.4)
    h = heisenberg_hamiltonian(p)
    counts = []
    for m in range(1, len(h.terms) + 1):
        sub = PauliSum(h.n, h.terms[:m])
        counts.append(count(standard_lcu(sub).circuit).cnot_equivalent)
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_lcu_vs_foqcs_ratio_small():
    from foqcs.encoder import heisenberg_encoding

    p = HeisenbergParams(8, 1, 1, 1, 1, 1, 1)
    b = count(standard_lcu(heisenberg_hamiltonian(p)).circuit).cnot_equivalent
    f = count(heisenberg_encoding(p).circuit).cnot_equivalent
    assert b > f


def test_lcu_postselects_work_ancillae():
    # The index register and the Toffoli-chain work ancillae all return to |0>.
    h = heisenberg_hamiltonian(HeisenbergParams(2, 0.9, -0.7, 0.8, 0.6, -0.5, 0.4))
    be = standard_lcu(h)
    assert be.layout["prep_anc"] == (0, 4) and be.layout["work_anc"] == (4, 3)
    assert be.postselect == tuple(range(7))
    rep = extract_block(be, hamiltonian_matrix(h) / one_norm(h))
    assert rep.max_abs_error < 1e-10
