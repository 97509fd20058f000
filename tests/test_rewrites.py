"""State-identity checks for the controlled-subcircuit compressions.

Each identity is exercised on randomized control registers holding at most one
excitation (the regime the preparation networks guarantee), with both circuit
sides simulated from the same initial state.
"""
import math

import numpy as np

from foqcs.circuit import (
    Circuit,
    cgamma,
    cnot,
    control,
    crz,
    gamma,
    h,
    remap,
    s,
    sdg,
    toffoli,
    x,
)
from foqcs.dicke import balanced_thetas, prepare_dicke1, staircase_gates
from foqcs.sim import run, simulate

RNG = np.random.default_rng(30)


def weight_le1_state(num_controls, rng, rest_dim):
    """Random state on (controls + rest): controls carry weight <= 1."""
    basis = [0] + [1 << i for i in range(num_controls)]
    c = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    c /= np.linalg.norm(c)
    ctrl = np.zeros(1 << num_controls, complex)
    for amp, idx in zip(c, basis):
        ctrl[idx] = amp
    rest = rng.normal(size=rest_dim) + 1j * rng.normal(size=rest_dim)
    rest /= np.linalg.norm(rest)
    return np.kron(rest, ctrl)  # controls = low qubits


def both_sides_agree(width, lhs_gates, rhs_gates, init, tol=1e-12):
    a = run(Circuit(width, tuple(lhs_gates)), init.copy())
    b = run(Circuit(width, tuple(rhs_gates)), init.copy())
    assert np.abs(a - b).max() <= tol


def test_two_controls_merge_into_one():
    # controlled-C twice (controls c1, c2) == CNOT(c1,c2), controlled-C, CNOT
    sub = Circuit(5, (cnot(2, 3), cnot(3, 4), x(2)))
    body = remap(sub, {2: 2, 3: 3, 4: 4}, 5)
    for _ in range(10):
        lhs = control(body, 0).gates + control(body, 1).gates
        rhs = (cnot(0, 1),) + control(body, 1).gates + (cnot(0, 1),)
        init = weight_le1_state(2, RNG, 8)
        both_sides_agree(5, lhs, rhs, init)


def test_chain_ladder_compression():
    # three controlled ladders collapse to two plus a control merge
    n = 3
    k = 1
    width = 3 + 2 * n  # controls 0..2, registers x = 3..5, z = 6..8
    ladder_x = [cnot(3 + m + k, 3 + m) for m in range(n - k)]
    ladder_z = [cnot(6 + m + k, 6 + m) for m in range(n - k)]
    cl_x = lambda c: [toffoli(c, g.qubits[0], g.qubits[1]) for g in ladder_x]
    cl_z = lambda c: [toffoli(c, g.qubits[0], g.qubits[1]) for g in ladder_z]
    lhs = cl_x(0) + cl_z(1) + cl_x(2)
    rhs = [cnot(0, 2)] + cl_x(2) + [cnot(0, 2)] + cl_z(1)
    for _ in range(10):
        init = weight_le1_state(3, RNG, 1 << (2 * n))
        both_sides_agree(width, lhs, rhs, init)


def test_elementwise_copy_once():
    # m controlled copies collapse to one behind a CNOT funnel
    m, n = 4, 2
    width = m + 2 * n
    ec = lambda c: [toffoli(c, m + l, m + n + l) for l in range(n)]
    lhs = []
    for c in range(m):
        lhs += ec(c)
    funnel = [cnot(i, i + 1) for i in range(m - 1)]
    rhs = funnel + ec(m - 1) + list(reversed(funnel))
    for _ in range(10):
        init = weight_le1_state(m, RNG, 1 << (2 * n))
        both_sides_agree(width, lhs, rhs, init)


def test_controlled_dicke_reduces_to_activation():
    # controlling the whole preparation == controlling only the initial X
    n = 4
    width = 1 + n
    body = remap(prepare_dicke1(n), {q: 1 + q for q in range(n)}, width)
    lhs = control(body, 0).gates
    rhs = [cnot(0, 1)] + staircase_gates(balanced_thetas(n), [1 + q for q in range(n)])
    for _ in range(10):
        ctrl = RNG.normal(size=2) + 1j * RNG.normal(size=2)
        ctrl /= np.linalg.norm(ctrl)
        init = np.zeros(1 << width, complex)
        init[0], init[1] = ctrl
        both_sides_agree(width, lhs, rhs, init)


def test_two_controlled_dickes_share_staircase():
    n = 4
    width = 2 + n
    body = remap(prepare_dicke1(n), {q: 2 + q for q in range(n)}, width)
    lhs = control(body, 0).gates + control(body, 1).gates
    rhs = [cnot(0, 2), cnot(1, 2)] + staircase_gates(
        balanced_thetas(n), [2 + q for q in range(n)])
    for _ in range(10):
        init = weight_le1_state(2, RNG, 1 << n)
        init2 = np.zeros(1 << width, complex)
        init2[: 1 << 2] = init[: 1 << 2]  # target must start in |0...0>
        both_sides_agree(width, lhs, rhs, init2)


def test_nested_dicke_shares_tail():
    # controlled D1_n plus controlled D1_{n-1} on the upper wires share the
    # (n-1)-qubit staircase once the first cascade step is pulled out
    n = 4
    width = 2 + n
    reg = [2 + q for q in range(n)]
    big = control(remap(prepare_dicke1(n), {q: reg[q] for q in range(n)}, width), 0)
    small = control(
        remap(prepare_dicke1(n - 1), {q: reg[q + 1] for q in range(n - 1)}, width), 1)
    lhs = big.gates + small.gates
    th_last = 2.0 * math.acos(math.sqrt(1.0 / n))
    rhs = (
        [cnot(0, reg[0]), gamma(th_last, reg[1], reg[0]), cnot(1, reg[1])]
        + staircase_gates(balanced_thetas(n - 1), reg[1:])
    )
    for _ in range(10):
        init = np.zeros(1 << width, complex)
        c = RNG.normal(size=3) + 1j * RNG.normal(size=3)
        c /= np.linalg.norm(c)
        init[0], init[1], init[2] = c
        both_sides_agree(width, lhs, rhs, init)


def test_shared_gamma_shell():
    # two controlled cascade steps with different angles share the fixed shell,
    # keeping only the Rz rotations controlled
    width = 4  # controls 0,1; pair (a,b) = (3,2)
    th1, th2 = 0.823, -1.377
    a, b = 3, 2
    lhs = [cnot(0, b), cgamma(th1, 0, a, b), cnot(1, b), cgamma(th2, 1, a, b)]
    rhs = [
        cnot(0, b),
        cnot(1, b),
        s(a),
        h(a),
        crz(math.pi / 2 - th1 / 2, 0, a),
        crz(math.pi / 2 - th2 / 2, 1, a),
        cnot(a, b),
        crz(th1 / 2 - math.pi / 2, 0, b),
        crz(th2 / 2 - math.pi / 2, 1, b),
        h(a),
        h(b),
        sdg(b),
        cnot(a, b),
        s(a),
        h(a),
    ]
    for _ in range(10):
        init = np.zeros(1 << width, complex)
        c = RNG.normal(size=3) + 1j * RNG.normal(size=3)
        c /= np.linalg.norm(c)
        init[0], init[1], init[2] = c
        both_sides_agree(width, lhs, rhs, init)


def test_compact_heisenberg_matches_literal():
    from foqcs.encoder import _heisenberg_literal, heisenberg_pr
    from foqcs.models import random_heisenberg

    rng = np.random.default_rng(31)
    for n in (2, 3, 4):
        p = random_heisenberg(n, rng)
        a = simulate(heisenberg_pr(p)).amps
        b = simulate(_heisenberg_literal(p)).amps
        assert np.abs(a - b).max() <= 1e-12


def test_compressed_spin_glass_matches_literal():
    from foqcs.encoder import _spin_glass_literal, spin_glass_pr
    from foqcs.models import random_spin_glass

    rng = np.random.default_rng(32)
    for n in (2, 3):
        p = random_spin_glass(n, rng)
        a = simulate(spin_glass_pr(p)).amps
        b = simulate(_spin_glass_literal(p)).amps
        assert np.abs(a - b).max() <= 1e-12
