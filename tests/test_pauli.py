import numpy as np
import pytest

from foqcs.errors import DomainError, ResourceGuardError
from foqcs.pauli import (
    PAULI_MATRICES,
    PauliSum,
    PauliTerm,
    check_decompose,
    check_term_matrix,
    hamiltonian_matrix,
    one_norm,
    pauli_to_checkpair,
    success_probability,
)


def test_checkpair_table():
    assert pauli_to_checkpair("I") == (0, 0)
    assert pauli_to_checkpair("X") == (1, 0)
    assert pauli_to_checkpair("Y") == (1, 1)
    assert pauli_to_checkpair("Z") == (0, 1)
    with pytest.raises(DomainError):
        pauli_to_checkpair("Q")


def test_check_decompose_single_y():
    h = PauliSum(1, [PauliTerm(0.5, "Y")])
    (ct,) = check_decompose(h)
    assert (ct.i, ct.j) == (1, 1)
    assert ct.alpha_prime == pytest.approx(-0.5j)


def test_check_decompose_identity_and_yy():
    h = PauliSum(2, [PauliTerm(1.0, "II")])
    (ct,) = check_decompose(h)
    assert (ct.i, ct.j, ct.alpha_prime) == (0, 0, 1.0)

    j = 0.73
    h = PauliSum(2, [PauliTerm(j, "YY")])
    (ct,) = check_decompose(h)
    assert (ct.i, ct.j) == (0b11, 0b11)
    assert ct.alpha_prime == pytest.approx(-j)


def test_check_decompose_preserves_one_norm():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        terms = [
            PauliTerm(complex(*rng.normal(size=2)),
                      "".join(rng.choice(list("IXYZ"), size=n)))
            for _ in range(int(rng.integers(1, 8)))
        ]
        h = PauliSum(n, terms)
        cts = check_decompose(h)
        assert sum(abs(c.alpha_prime) for c in cts) == pytest.approx(one_norm(h), abs=1e-14)


def test_check_terms_reconstruct_matrices():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        term = PauliTerm(complex(*rng.normal(size=2)),
                         "".join(rng.choice(list("IXYZ"), size=n)))
        h = PauliSum(n, [term])
        (ct,) = check_decompose(h)
        np.testing.assert_allclose(check_term_matrix(ct, n), term.matrix(), atol=1e-14)


def test_hamiltonian_matrix_small():
    np.testing.assert_allclose(
        hamiltonian_matrix(PauliSum(1, [PauliTerm(1.0, "X")])),
        np.array([[0, 1], [1, 0]]),
    )
    np.testing.assert_allclose(
        hamiltonian_matrix(PauliSum(1, [PauliTerm(1.0, "Z"), PauliTerm(1.0, "X")])),
        np.array([[1, 1], [1, -1]]),
    )


def test_hamiltonian_matrix_heisenberg_vs_bruteforce():
    # Independent Kronecker construction of the n=2, all-ones model.
    from foqcs.models import HeisenbergParams, heisenberg_hamiltonian

    h = heisenberg_hamiltonian(HeisenbergParams(2, 1, 1, 1, 1, 1, 1))
    eye = np.eye(2)
    ref = np.zeros((4, 4), dtype=complex)
    for op in "XYZ":
        sigma = PAULI_MATRICES[op]
        ref += np.kron(eye, sigma) + np.kron(sigma, eye) + np.kron(sigma, sigma)
    np.testing.assert_allclose(hamiltonian_matrix(h), ref, atol=1e-14)


def _kron_term(t):
    """Reference: the term as a Kronecker chain, site n-1 leftmost."""
    m = np.array([[1.0 + 0j]])
    for site in reversed(range(t.n)):
        m = np.kron(m, PAULI_MATRICES[t.ops[site]])
    return t.coefficient * m


def test_matrices_equal_the_kronecker_chains():
    # Spin models and random sums with complex, tiny and huge coefficients.
    # The sum is byte-identical: the same values, added in the same order.
    from foqcs.models import (heisenberg_hamiltonian, random_heisenberg,
                              random_spin_glass, spin_glass_hamiltonian)

    rng = np.random.default_rng(8)
    sums = [heisenberg_hamiltonian(random_heisenberg(5, rng)),
            spin_glass_hamiltonian(random_spin_glass(3, rng))]
    for _ in range(40):
        n = int(rng.integers(1, 6))
        scale = [1.0, 1e-14, 1e300][int(rng.integers(3))]
        sums.append(PauliSum(n, [
            PauliTerm(scale * complex(rng.normal(), rng.choice([0.0, rng.normal()])),
                      "".join(rng.choice(list("IXYZ"), size=n)))
            for _ in range(int(rng.integers(1, 9)))]))
    for h in sums:
        ref = np.zeros((1 << h.n, 1 << h.n), dtype=complex)
        for t in h.terms:
            ref += _kron_term(t)
            assert np.array_equal(t.matrix(), _kron_term(t))
        assert hamiltonian_matrix(h).tobytes() == ref.tobytes()
        for ct, t in zip(check_decompose(h), h.terms):
            assert np.array_equal(check_term_matrix(ct, h.n), _kron_term(t))


def test_matrix_size_guard():
    h = PauliSum(13, [PauliTerm(1.0, "I" * 13)])
    with pytest.raises(ResourceGuardError):
        hamiltonian_matrix(h)


def test_one_norm():
    assert one_norm(PauliSum(1, [PauliTerm(1.0, "X")])) == 1.0
    assert one_norm(PauliSum(1, [PauliTerm(0.3, "Z"), PauliTerm(-0.7, "X")])) == pytest.approx(1.0)
    from foqcs.models import HeisenbergParams, heisenberg_hamiltonian

    h = heisenberg_hamiltonian(HeisenbergParams(4, 1, 1, 1, 1, 1, 1))
    assert one_norm(h) == pytest.approx(21.0)


def test_duplicate_merging_and_cutoff():
    h = PauliSum(1, [PauliTerm(0.5, "X"), PauliTerm(0.25, "X"), PauliTerm(1e-16, "Z")])
    assert len(h) == 1
    assert h.terms[0].coefficient == pytest.approx(0.75)


def test_success_probability_eigenvector():
    h = PauliSum(1, [PauliTerm(1.0, "Z")])
    assert success_probability(h, np.array([1.0, 0.0])) == pytest.approx(1.0)


def test_success_probability_z_plus_x():
    # Eigendecomposition oracle: p = <0|H^2|0>/N^2 = 2/4 = 0.5 for H = Z + X.
    h = PauliSum(1, [PauliTerm(1.0, "Z"), PauliTerm(1.0, "X")])
    assert success_probability(h, np.array([1.0, 0.0])) == pytest.approx(0.5, abs=1e-12)


def test_success_probability_rejects_non_hermitian():
    h = PauliSum(1, [PauliTerm(1j, "X")])
    with pytest.raises(DomainError):
        success_probability(h, np.array([1.0, 0.0]))


def test_success_probability_rejects_nan_state():
    h = PauliSum(1, [PauliTerm(1.0, "Z")])
    with pytest.raises(DomainError):
        success_probability(h, np.array([np.nan, 0.0]))


def test_json_round_trip():
    h = PauliSum(2, [PauliTerm(0.5 - 0.25j, "XZ"), PauliTerm(1.0, "YI")])
    d = h.to_dict()
    # site 0 is the rightmost character of the wire format
    labels = {t["ops"] for t in d["terms"]}
    assert labels == {"ZX", "IY"}
    h2 = PauliSum.from_json(h.to_json())
    assert h2.n == h.n
    assert sorted((t.ops, t.coefficient) for t in h2.terms) == sorted(
        (t.ops, t.coefficient) for t in h.terms
    )


def test_term_validation():
    with pytest.raises(DomainError):
        PauliTerm(1.0, "")
    with pytest.raises(DomainError):
        PauliTerm(1.0, "XQ")
    with pytest.raises(DomainError):
        PauliSum(2, [PauliTerm(1.0, "X")])
    for bad in (float("nan"), complex(0, float("inf")), complex(float("nan"), 0)):
        with pytest.raises(DomainError):
            PauliTerm(bad, "X")
        with pytest.raises(DomainError):
            PauliSum(1, [(bad, "Z"), (1.0, "X")])
