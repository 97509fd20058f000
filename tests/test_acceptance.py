"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and match the stated contract:
  gate counts       -> integer equality / closed interval membership
  state identities  -> 1e-12 max amplitude error
  encoded blocks    -> 1e-10 max entrywise error
"""
import math

import numpy as np

from foqcs.baseline import standard_lcu
from foqcs.circuit import Circuit, count, gamma, lower
from foqcs.dicke import (
    AmplitudeList,
    dicke_state_map,
    prepare_dicke1,
    prepare_dicke2k,
    prepare_double,
)
from foqcs.encoder import (
    _heisenberg_literal,
    _spin_glass_literal,
    generic_foqcs,
    heisenberg_encoding,
    heisenberg_pr,
    select_oracle,
    spin_glass_encoding,
    spin_glass_pr,
    twobody_state_map,
    twobody_subroutine,
)
from foqcs.models import (
    HeisenbergParams,
    SpinGlassParams,
    heisenberg_hamiltonian,
    random_heisenberg,
    random_spin_glass,
    spin_glass_hamiltonian,
)
from foqcs.pauli import (
    PauliSum,
    PauliTerm,
    hamiltonian_matrix,
    one_norm,
    success_probability,
)
from foqcs.sim import assert_state, circuit_unitary, extract_block, run, simulate

BLOCK_TOL = 1e-10
STATE_TOL = 1e-12


def _criterion(capsys, num, desc, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {num:2d}: {desc}")
        raise
    with capsys.disabled():
        print(f"PASS criterion {num:2d}: {desc}")


def test_criterion_01_heisenberg_counts(capsys):
    def body():
        rng = np.random.default_rng(101)
        for n in range(2, 17):
            p = random_heisenberg(n, rng)
            rep = count(heisenberg_encoding(p).circuit)
            assert rep.cnot_equivalent == 46 * n + 8, n
            assert rep.toffoli == 6 * n - 4, n

    _criterion(capsys, 1, "Heisenberg CNOT-equivalents exactly 46n+8, Toffolis 6n-4, n=2..16", body)


def test_criterion_02_spin_glass_count_bounds(capsys):
    def body():
        rng = np.random.default_rng(102)
        for n in range(2, 11):
            lo, hi = 24 * n * n + 24 * n - 20, 30 * n * n + 30 * n - 20
            for _ in range(20):
                mag_g = rng.uniform(0.05, 1.0, size=(3, n)) * rng.choice([-1.0, 1.0], size=(3, n))
                J = np.zeros((3, n, n))
                for a in range(3):
                    for l in range(n):
                        row = rng.uniform(0.05, 1.0, size=n - 1 - l)
                        J[a, l, l + 1 :] = row * rng.choice([-1.0, 1.0], size=row.shape)
                p = SpinGlassParams(n, mag_g, J)
                rep = count(spin_glass_encoding(p).circuit)
                assert lo <= rep.cnot_equivalent <= hi, (n, rep.cnot_equivalent)
                assert rep.toffoli == 2 * n * n, n
            # all-negative couplings attain the upper bound
            p = SpinGlassParams(n, -np.ones((3, n)),
                                -np.triu(np.ones((3, n, n)), 1))
            assert count(spin_glass_encoding(p).circuit).cnot_equivalent == hi, n

    _criterion(capsys, 2, "spin-glass CNOTs within [24n^2+24n-20, 30n^2+30n-20], Toffolis 2n^2, "
                          "upper bound attained for all-negative couplings", body)


def test_criterion_03_dicke_counts(capsys):
    def body():
        for n in range(2, 33):
            assert count(prepare_dicke1(n)).cnot_equivalent == 2 * n - 2
            assert count(prepare_double(n)).cnot_equivalent == 3 * n - 2
            for k in range(1, n):
                assert count(prepare_dicke2k(n, k)).cnot_equivalent == 3 * n - 3 * k - 2
                assert count(prepare_double(n, k)).cnot_equivalent == 4 * n - 3 * k - 2

    _criterion(capsys, 3, "Dicke builder CNOT counts match the closed forms for all n<=32, k", body)


def test_criterion_04_block_encoding_correctness(capsys):
    def body():
        rng = np.random.default_rng(104)
        for n in (2, 3, 4):
            for _ in range(10):
                p = random_heisenberg(n, rng)
                h = heisenberg_hamiltonian(p)
                rep = extract_block(heisenberg_encoding(p),
                                    hamiltonian_matrix(h) / one_norm(h))
                assert rep.max_abs_error <= BLOCK_TOL, ("heisenberg", n, rep.max_abs_error)
        for n in (2, 3):
            for _ in range(10):
                p = random_spin_glass(n, rng)
                h = spin_glass_hamiltonian(p)
                rep = extract_block(spin_glass_encoding(p),
                                    hamiltonian_matrix(h) / one_norm(h))
                assert rep.max_abs_error <= BLOCK_TOL, ("spin_glass", n, rep.max_abs_error)
        for n in (1, 2, 3):
            for _ in range(10):
                terms = [
                    PauliTerm(complex(*rng.normal(size=2)),
                              "".join(rng.choice(list("IXYZ"), size=n)))
                    for _ in range(int(rng.integers(1, 13)))
                ]
                h = PauliSum(n, terms)
                rep = extract_block(generic_foqcs(h),
                                    hamiltonian_matrix(h) / one_norm(h))
                assert rep.max_abs_error <= BLOCK_TOL, ("generic", n, rep.max_abs_error)

    _criterion(capsys, 4, "encoded blocks equal H/N within 1e-10 "
                          "(Heisenberg n=2..4, spin glass n=2..3, generic n=1..3)", body)


def test_criterion_05_dicke_amplitudes(capsys):
    def body():
        for n in range(2, 11):
            r = assert_state(prepare_dicke1(n), dicke_state_map("d1", n), STATE_TOL)
            assert r.ok, ("d1", n)
            r = assert_state(prepare_double(n), dicke_state_map("d1d", n), STATE_TOL)
            assert r.ok, ("d1d", n)
            for k in range(1, n):
                r = assert_state(prepare_dicke2k(n, k), dicke_state_map("d2k", n, k), STATE_TOL)
                assert r.ok, ("d2k", n, k)
                r = assert_state(prepare_double(n, k),
                                 dicke_state_map("d2kd", n, k), STATE_TOL)
                assert r.ok, ("d2kd", n, k)
        rng = np.random.default_rng(105)
        kinds = ("d1", "d1d", "d2k", "d2kd")
        for draw in range(50):
            kind = kinds[draw % 4]
            n = int(rng.integers(2, 11))
            k = int(rng.integers(1, n)) if kind in ("d2k", "d2kd") else None
            m = n if kind in ("d1", "d1d") else n - k
            a = AmplitudeList(rng.normal(size=m) + 1j * rng.normal(size=m))
            if kind == "d1":
                circ = prepare_dicke1(n, a)
            elif kind == "d1d":
                circ = prepare_double(n, a=a)
            elif kind == "d2k":
                circ = prepare_dicke2k(n, k, a)
            else:
                circ = prepare_double(n, k, a)
            r = assert_state(circ, dicke_state_map(kind, n, k, a), STATE_TOL)
            assert r.ok, (kind, n, k, r.max_abs_error)

    _criterion(capsys, 5, "every Dicke builder matches its closed-form state within 1e-12 "
                          "(balanced n<=10 and 50 random amplitude vectors)", body)


def test_criterion_06_select_identity(capsys):
    def body():
        rng = np.random.default_rng(106)
        for n in range(1, 6):
            sel = select_oracle(n)
            dim_a, dim_s = 1 << (2 * n), 1 << n
            cvec = rng.normal(size=dim_a) + 1j * rng.normal(size=dim_a)
            phi = rng.normal(size=dim_s) + 1j * rng.normal(size=dim_s)
            psi = np.kron(phi, cvec)
            nrm = np.linalg.norm(psi)
            out = run(sel, psi / nrm).reshape(dim_s, dim_a)
            b = np.arange(dim_s)
            pop = np.array([bin(v).count("1") for v in range(dim_s)])
            for i in range(dim_s):
                for j in range(dim_s):
                    expected = (-1.0) ** pop[j & b] * phi[b ^ i] * cvec[i | (j << n)] / nrm
                    err = float(np.abs(out[:, i | (j << n)] - expected).max())
                    assert err <= STATE_TOL, (n, i, j, err)

    _criterion(capsys, 6, "SELECT applies Z^j X^i for all 4^n patterns, n<=5, within 1e-12", body)


def test_criterion_07_gamma_truth_table(capsys):
    def body():
        rng = np.random.default_rng(107)
        for _ in range(100):
            th = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            u = circuit_unitary(lower(Circuit(2, (gamma(th, 1, 0),))))
            cs, sn = math.cos(th / 2), math.sin(th / 2)
            ref = np.zeros((4, 4), complex)
            ref[0, 0] = 1
            ref[1, 1] = cs
            ref[2, 1] = sn
            ref[3, 2] = 1
            ref[1, 3] = -sn
            ref[2, 3] = cs
            assert np.abs(u - ref).max() <= STATE_TOL

    _criterion(capsys, 7, "lowered two-CNOT cascade gate matches its four-row truth table "
                          "for 100 random angles within 1e-12", body)


def test_criterion_08_compression_soundness(capsys):
    def body():
        import tests.test_rewrites as tr

        tr.test_two_controls_merge_into_one()
        tr.test_chain_ladder_compression()
        tr.test_elementwise_copy_once()
        tr.test_controlled_dicke_reduces_to_activation()
        tr.test_two_controlled_dickes_share_staircase()
        tr.test_nested_dicke_shares_tail()
        tr.test_shared_gamma_shell()
        rng = np.random.default_rng(108)
        for n in (2, 3, 4):
            p = random_heisenberg(n, rng)
            a = simulate(heisenberg_pr(p)).amps
            b = simulate(_heisenberg_literal(p)).amps
            assert np.abs(a - b).max() <= STATE_TOL, ("heisenberg", n)
        for n in (2, 3):
            p = random_spin_glass(n, rng)
            a = simulate(spin_glass_pr(p)).amps
            b = simulate(_spin_glass_literal(p)).amps
            assert np.abs(a - b).max() <= STATE_TOL, ("spin_glass", n)

    _criterion(capsys, 8, "compression rewrites hold on weight<=1 controls; compact and literal "
                          "PR oracles agree within 1e-12", body)


def test_criterion_09_twobody_subroutines(capsys):
    def body():
        for kind in ("xy", "yx", "xz", "zx", "yz", "zy"):
            for n in range(2, 8):
                for k in range(1, n):
                    st = simulate(twobody_subroutine(kind, n, k)).amps
                    ref = np.zeros_like(st)
                    for idx, amp in twobody_state_map(kind, n, k).items():
                        ref[idx] = amp
                    assert np.abs(st - ref).max() <= STATE_TOL, (kind, n, k)

    _criterion(capsys, 9, "all six two-body preparation kinds match their mapped states "
                          "for n<=7 and every k within 1e-12", body)


def test_criterion_10_success_probability(capsys):
    def body():
        rng = np.random.default_rng(110)
        for n in (2, 3):
            p = random_heisenberg(n, rng)
            h = heisenberg_hamiltonian(p)
            be = heisenberg_encoding(p)
            sys_start, _ = be.circuit.layout["system"]
            dim = 1 << n
            for _ in range(10):
                phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                phi /= np.linalg.norm(phi)
                amps = np.zeros(1 << be.circuit.width, complex)
                amps[np.arange(dim) << sys_start] = phi
                run(be.circuit, amps)
                sim_p = float(np.sum(np.abs(amps[np.arange(dim) << sys_start]) ** 2))
                assert abs(sim_p - success_probability(h, phi)) <= 1e-10

    _criterion(capsys, 10, "post-selection probability matches the eigendecomposition formula "
                           "within 1e-10 (Heisenberg n<=3, 10 random inputs)", body)


def test_criterion_11_order_of_magnitude(capsys):
    def body():
        p = HeisenbergParams(16, 1, 1, 1, 1, 1, 1)
        h = heisenberg_hamiltonian(p)
        baseline = count(standard_lcu(h).circuit).cnot_equivalent
        foqcs = count(heisenberg_encoding(p).circuit).cnot_equivalent
        assert foqcs == 46 * 16 + 8
        assert baseline / foqcs >= 5.0, (baseline, foqcs)

    _criterion(capsys, 11, "standard-LCU / compact CNOT ratio >= 5 at n = 16", body)
