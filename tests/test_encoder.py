import math

import numpy as np
import pytest

from foqcs.circuit import count, lower
from foqcs.dicke import AmplitudeList
from foqcs.encoder import (
    CoefficientMatrix,
    generic_foqcs,
    heisenberg_encoding,
    heisenberg_pr,
    select_oracle,
    spin_glass_encoding,
    spin_glass_pr,
    twobody_state_map,
    twobody_subroutine,
)
from foqcs.errors import DomainError
from foqcs.models import (
    HeisenbergParams,
    SpinGlassParams,
    heisenberg_hamiltonian,
    random_heisenberg,
    random_spin_glass,
    spin_glass_hamiltonian,
)
from foqcs.pauli import PauliSum, PauliTerm, hamiltonian_matrix, one_norm
from foqcs.sim import extract_block, run, simulate

SG_WIRE_OFF = {"x": 1, "z": 2, "y": 3}


def random_pauli_sum(rng, n, max_terms=12, hermitian=False):
    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        ops = "".join(rng.choice(list("IXYZ"), size=n))
        coef = complex(rng.normal(), 0.0 if hermitian else rng.normal())
        terms.append(PauliTerm(coef, ops))
    return PauliSum(n, terms)


# --- SELECT ---

def select_reference_check(n, rng, tol=1e-12):
    """All 4^n control patterns at once: random coefficients per sector."""
    sel = select_oracle(n)
    dim_a, dim_s = 1 << (2 * n), 1 << n
    cvec = rng.normal(size=dim_a) + 1j * rng.normal(size=dim_a)
    phi = rng.normal(size=dim_s) + 1j * rng.normal(size=dim_s)
    psi = np.kron(phi, cvec)
    nrm = np.linalg.norm(psi)
    out = run(sel, psi / nrm).reshape(dim_s, dim_a)
    b = np.arange(dim_s)
    popcnt = np.array([bin(v).count("1") for v in range(dim_s)])
    worst = 0.0
    for i in range(dim_s):
        for j in range(dim_s):
            expected = (-1.0) ** popcnt[j & b] * phi[b ^ i] * cvec[i | (j << n)] / nrm
            worst = max(worst, float(np.abs(out[:, i | (j << n)] - expected).max()))
    assert worst <= tol, worst
    return worst


def test_select_identity_small():
    rng = np.random.default_rng(12)
    for n in (1, 2, 3):
        select_reference_check(n, rng)


def test_select_trivial_patterns():
    sel = select_oracle(2)
    out = run(sel, np.eye(1 << 6, dtype=complex)[:, 0].copy())
    assert out[0] == 1.0  # i = j = 0 acts as identity
    # n=1: i=j=1 on |0>: ZX|0> = -|1>
    sel = select_oracle(1)
    psi = np.zeros(8, complex)
    psi[0b011] = 1.0  # x_anc=1, z_anc=1, system=0
    out = run(sel, psi)
    assert out[0b111] == pytest.approx(-1.0)


# --- generic path ---

def test_generic_single_identity_term():
    alpha = -0.3 + 0.4j
    be = generic_foqcs(PauliSum(1, [PauliTerm(alpha, "I")]))
    rep = extract_block(be, (alpha / abs(alpha)) * np.eye(2))
    assert rep.max_abs_error < 1e-12


def test_generic_worked_case():
    h = PauliSum(1, [PauliTerm(0.5, "X"), PauliTerm(0.5, "Z")])
    be = generic_foqcs(h)
    rep = extract_block(be, (hamiltonian_matrix(h)) / 1.0)
    assert rep.max_abs_error < 1e-12


def test_generic_random_sums():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3):
        for _ in range(4):
            h = random_pauli_sum(rng, n)
            be = generic_foqcs(h)
            rep = extract_block(be, hamiltonian_matrix(h) / one_norm(h))
            assert rep.max_abs_error < 1e-10, (n, rep.max_abs_error)
    with pytest.raises(DomainError):
        generic_foqcs(PauliSum(7, [PauliTerm(1.0, "X" * 7)]))


# --- Heisenberg ---

def heisenberg_pr_expected(p):
    """Direct construction of the prepared ancilla state (subpr tag + patterns)."""
    n, norm = p.n, p.normalization()
    xb, zb = 6, 6 + n
    w = {"gx": 5, "gz": 4, "gy": 3, "jx": 2, "jz": 1, "jy": 0}
    ref = np.zeros(1 << (6 + 2 * n), complex)

    def put(wire, xpat, zpat, amp):
        ref[(1 << wire) | (xpat << xb) | (zpat << zb)] += amp

    for l in range(n):
        put(w["gx"], 1 << l, 0, np.sqrt(n * p.gx / norm + 0j) / math.sqrt(n))
        put(w["gz"], 0, 1 << l, np.sqrt(n * p.gz / norm + 0j) / math.sqrt(n))
        put(w["gy"], 1 << l, 1 << l, np.sqrt(-1j * n * p.gy / norm) / math.sqrt(n))
    for l in range(n - 1):
        pair = (1 << l) | (1 << (l + 1))
        put(w["jx"], pair, 0, np.sqrt((n - 1) * p.jx / norm + 0j) / math.sqrt(n - 1))
        put(w["jz"], 0, pair, np.sqrt((n - 1) * p.jz / norm + 0j) / math.sqrt(n - 1))
        put(w["jy"], pair, pair, np.sqrt(-(n - 1) * p.jy / norm + 0j) / math.sqrt(n - 1))
    return ref


def test_heisenberg_pr_state():
    rng = np.random.default_rng(14)
    for n in (2, 3, 4):
        p = random_heisenberg(n, rng)
        ref = heisenberg_pr_expected(p)
        for compact in (True, False):
            st = simulate(heisenberg_pr(p, compact=compact)).amps
            np.testing.assert_allclose(st, ref, atol=1e-12)


def test_heisenberg_pr_sparsity():
    p = HeisenbergParams(3, 1, 1, 1, 1, 1, 1)
    st = simulate(heisenberg_pr(p)).amps
    assert int(np.sum(np.abs(st) > 1e-12)) == 6 * 3 - 3


def test_heisenberg_pr_no_phases_for_positive_couplings():
    p = HeisenbergParams(3, gx=1.0, gz=0.5, jx=0.25, jz=0.75)
    circ = heisenberg_pr(p)
    assert all(g.kind not in ("phase", "cphase") for g in circ.gates)


def test_heisenberg_encoding_block():
    rng = np.random.default_rng(15)
    for n in (2, 3):
        p = random_heisenberg(n, rng)
        be = heisenberg_encoding(p)
        h = heisenberg_hamiltonian(p)
        rep = extract_block(be, hamiltonian_matrix(h) / one_norm(h))
        assert rep.max_abs_error < 1e-10


def test_heisenberg_layout_and_counts():
    p = HeisenbergParams(4, 1, 1, 1, 1, 1, 1)
    be = heisenberg_encoding(p)
    assert be.normalization == pytest.approx(21.0)
    assert be.layout == {"subpr": (0, 6), "x_anc": (6, 4), "z_anc": (10, 4),
                         "system": (14, 4)}
    rep = extract_block(be)
    np.testing.assert_allclose(rep.block, rep.block.conj().T, atol=1e-10)
    cr = count(be.circuit)
    assert cr.cnot_equivalent == 46 * 4 + 8
    assert cr.toffoli == 6 * 4 - 4


def test_block_spectral_norm():
    rng = np.random.default_rng(16)
    for n in (2, 3):
        p = random_heisenberg(n, rng)
        rep = extract_block(heisenberg_encoding(p))
        assert np.linalg.norm(rep.block, 2) <= 1 + 1e-10


def test_pr_pl_pairing_recovers_coefficients():
    # PL = conj(PR), so sum_t conj(pl[t,i,j]) pr[t,i,j] = sum_t pr[t,i,j]^2
    # = alpha'_ij / N, term by term, whatever square-root branch PR takes.
    from foqcs.encoder import _heisenberg_pr_gates
    from foqcs.circuit import Circuit
    from foqcs.pauli import check_decompose

    rng = np.random.default_rng(17)
    p = random_heisenberg(3, rng)
    n = p.n
    pr = simulate(Circuit(6 + 2 * n, tuple(_heisenberg_pr_gates(p, 6, 6 + n)))).amps
    prod = (pr * pr).reshape(1 << (2 * n), 64).sum(axis=1)
    h = heisenberg_hamiltonian(p)
    norm = one_norm(h)
    for ct in check_decompose(h):
        assert prod[ct.i | (ct.j << n)] == pytest.approx(ct.alpha_prime / norm, abs=1e-12)


# --- spin glass ---

def spin_glass_pr_expected(p):
    """Direct construction of the compressed PR target state."""
    n, norm = p.n, p.normalization()
    xb, zb = 3 * n, 4 * n
    ref = np.zeros(1 << (5 * n), complex)
    cm = CoefficientMatrix.from_params(p)
    for a, axis in enumerate(("x", "y", "z")):
        for k in range(n):
            nk = cm.diag_norms[a, k]
            if nk < 1e-14:
                continue
            wire = 3 * (n - k) - SG_WIRE_OFF[axis]
            if axis == "y":
                sub = np.sqrt(-1j * nk / norm) if k == 0 else np.sqrt(-nk / norm + 0j)
            else:
                sub = math.sqrt(nk / norm)
            cbar = cm.normalized_diagonal(a, k)
            for l in range(n - k):
                pat = (1 << l) | (1 << (l + k)) if k else (1 << l)
                if axis == "x":
                    idx = (1 << wire) | (pat << xb)
                elif axis == "z":
                    idx = (1 << wire) | (pat << zb)
                else:
                    idx = (1 << wire) | (pat << xb) | (pat << zb)
                ref[idx] += sub * cbar[l]
    return ref


def test_coefficient_matrix_normalized_diagonals():
    p = random_spin_glass(4, np.random.default_rng(18))
    cm = CoefficientMatrix.from_params(p)
    for a in range(3):
        for k in range(4):
            d = cm.normalized_diagonal(a, k)
            assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)


def test_spin_glass_pr_state():
    rng = np.random.default_rng(19)
    for n in (2, 3):
        p = random_spin_glass(n, rng)
        ref = spin_glass_pr_expected(p)
        for compressed in (True, False):
            st = simulate(spin_glass_pr(p, compressed=compressed)).amps
            np.testing.assert_allclose(st, ref, atol=1e-12)


def test_spin_glass_diagonal_only():
    # all J = 0: only the k = 0 ladders remain, EC is the sole Toffoli source
    n = 3
    p = SpinGlassParams(n, np.ones((3, n)), np.zeros((3, n, n)))
    circ = spin_glass_pr(p)
    assert count(circ).toffoli == n
    st = simulate(circ).amps
    np.testing.assert_allclose(st, spin_glass_pr_expected(p), atol=1e-12)


def test_spin_glass_encoding_block():
    rng = np.random.default_rng(20)
    p = random_spin_glass(2, rng)
    be = spin_glass_encoding(p)
    h = spin_glass_hamiltonian(p)
    rep = extract_block(be, hamiltonian_matrix(h) / one_norm(h))
    assert rep.max_abs_error < 1e-10
    assert be.layout == {"subpr": (0, 6), "x_anc": (6, 2), "z_anc": (8, 2),
                         "system": (10, 2)}


def test_spin_glass_truncated_interactions_scale():
    # couplings truncated beyond cutoff s drop the controlled blocks
    n = 8
    rng = np.random.default_rng(21)
    counts = []
    for s in (1, 3, 7):
        J = np.zeros((3, n, n))
        for a in range(3):
            for l in range(n):
                for m in range(l + 1, min(l + s + 1, n)):
                    J[a, l, m] = rng.uniform(0.1, 1.0)
        p = SpinGlassParams(n, np.ones((3, n)), J)
        counts.append(count(spin_glass_encoding(p).circuit).cnot_equivalent)
    assert counts[0] < counts[1] < counts[2]
    full = count(spin_glass_encoding(random_spin_glass(n, rng)).circuit).cnot_equivalent
    assert counts[0] < full / 2


def test_spin_glass_counts_in_bounds():
    rng = np.random.default_rng(22)
    for n in (2, 4, 6):
        p = random_spin_glass(n, rng)
        cr = count(spin_glass_encoding(p).circuit)
        assert 24 * n * n + 24 * n - 20 <= cr.cnot_equivalent <= 30 * n * n + 30 * n - 20
        assert cr.toffoli == 2 * n * n


# --- two-body subroutines ---

def test_twobody_all_kinds():
    rng = np.random.default_rng(23)
    for kind in ("xy", "yx", "xz", "zx", "yz", "zy"):
        for n in (3, 5, 7):
            for k in range(1, n):
                circ = twobody_subroutine(kind, n, k)
                ref = np.zeros(1 << (2 * n), complex)
                for idx, amp in twobody_state_map(kind, n, k).items():
                    ref[idx] = amp
                np.testing.assert_allclose(simulate(circ).amps, ref, atol=1e-12)
        # unbalanced variant
        n, k = 6, 2
        a = AmplitudeList(rng.normal(size=n - k) + 1j * rng.normal(size=n - k))
        circ = twobody_subroutine(kind, n, k, a)
        ref = np.zeros(1 << (2 * n), complex)
        for idx, amp in twobody_state_map(kind, n, k, a).items():
            ref[idx] = amp
        np.testing.assert_allclose(simulate(circ).amps, ref, atol=1e-12)


def test_twobody_validation():
    with pytest.raises(DomainError):
        twobody_subroutine("xx", 4, 1)
    with pytest.raises(DomainError):
        twobody_subroutine("xy", 4, 4)
    with pytest.raises(DomainError):
        twobody_subroutine("xy", 4, 1, AmplitudeList([1.0]))


def test_lowered_encodings_still_encode():
    # the block identity survives full lowering to the primitive gate set
    from foqcs.encoder import BlockEncoding

    rng = np.random.default_rng(24)
    p = random_heisenberg(3, rng)
    be = heisenberg_encoding(p)
    low = BlockEncoding(lower(be.circuit), be.normalization)
    h = heisenberg_hamiltonian(p)
    rep = extract_block(low, hamiltonian_matrix(h) / one_norm(h))
    assert rep.max_abs_error < 1e-10
    q = random_spin_glass(2, rng)
    be = spin_glass_encoding(q)
    low = BlockEncoding(lower(be.circuit), be.normalization)
    h = spin_glass_hamiltonian(q)
    rep = extract_block(low, hamiltonian_matrix(h) / one_norm(h))
    assert rep.max_abs_error < 1e-10


def test_per_oracle_count_breakdown():
    # component-level cost table: PR alone is 22n+4 CNOTs / 3n-2 Toffolis for
    # the uniform chain, and 12n^2+11n-10 .. 15n^2+14n-10 / n^2 per oracle for
    # the general couplings
    rng = np.random.default_rng(25)
    for n in (2, 3, 5, 8):
        cr = count(heisenberg_pr(random_heisenberg(n, rng)))
        assert cr.cnot_equivalent == 22 * n + 4
        assert cr.toffoli == 3 * n - 2
    for n in (2, 3, 4):
        cr = count(spin_glass_pr(random_spin_glass(n, rng)))
        assert 12 * n * n + 11 * n - 10 <= cr.cnot_equivalent <= 15 * n * n + 14 * n - 10
        assert cr.toffoli == n * n


def test_every_encoder_returns_one_block_encoding_type():
    # Every ancilla below the system register is post-selected on |0>.
    import foqcs
    from foqcs import circuit, encoder
    from foqcs.baseline import standard_lcu

    assert foqcs.BlockEncoding is encoder.BlockEncoding is circuit.BlockEncoding
    rng = np.random.default_rng(25)
    h = PauliSum(2, [PauliTerm(0.5, "XZ"), PauliTerm(-0.3, "YY")])
    cases = [
        (heisenberg_encoding(random_heisenberg(2, rng)), 6 + 2 * 2),
        (spin_glass_encoding(random_spin_glass(2, rng)), 5 * 2),
        (generic_foqcs(h), 2 * 2),
        (standard_lcu(h), 1),
    ]
    for be, n_anc in cases:
        assert type(be) is circuit.BlockEncoding
        assert be.postselect == tuple(range(n_anc))
