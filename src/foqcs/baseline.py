"""Textbook LCU block encoding, the comparison baseline.

State preparation uses the uniformly-controlled-rotation scheme: one
multiplexed Ry per qubit resolves the magnitudes, one multiplexed Rz per qubit
the phases, each decomposed along a Gray-code walk (at most 2^j CNOTs for j
select qubits, so a full preparation stays below 2 * 2^c CNOTs). The SELECT
oracle resolves each |m>-control with a clean-ancilla Toffoli chain.
"""
from __future__ import annotations

import math

import numpy as np

from .circuit import (
    BlockEncoding,
    Circuit,
    Gate,
    cnot,
    cz,
    phase,
    rz,
    s,
    sdg,
    toffoli,
    x,
)
from .errors import DomainError
from .pauli import PauliSum, one_norm

_ANGLE_TOL = 1e-12


def _fwht(v: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform, w[h] = sum_p (-1)^<h,p> v[p]."""
    v = v.copy()
    dim = len(v)
    m = 1
    while m < dim:
        v = v.reshape(-1, 2, m)
        a = v[:, 0, :].copy()
        b = v[:, 1, :].copy()
        v[:, 0, :] = a + b
        v[:, 1, :] = a - b
        v = v.reshape(dim)
        m <<= 1
    return v


def _mux_rotation(kind: str, target: int, controls: list[int],
                  angles: np.ndarray, gates: list[Gate]) -> None:
    """Emit a multiplexed rotation; angles[p] acts when bit i of p equals
    the value of controls[i]. All-zero multiplexors emit nothing; zero
    Gray-code rotations are skipped with their frame CNOTs cancelled."""
    j = len(controls)
    if j == 0:
        if abs(angles[0]) > _ANGLE_TOL:
            gates.append(Gate(kind, (target,), float(angles[0])))
        return
    if np.max(np.abs(angles)) <= _ANGLE_TOL:
        return
    dim = 1 << j
    w = _fwht(np.asarray(angles, dtype=float))
    gray = np.arange(dim) ^ (np.arange(dim) >> 1)
    phi = w[gray] / dim
    pending = 0
    for g in range(dim):
        if abs(phi[g]) > _ANGLE_TOL:
            for i in range(j):
                if (pending >> i) & 1:
                    gates.append(cnot(controls[i], target))
            pending = 0
            gates.append(Gate(kind, (target,), float(phi[g])))
        flip = j - 1 if g + 1 == dim else ((g + 1) & -(g + 1)).bit_length() - 1
        pending ^= 1 << flip
    for i in range(j):
        if (pending >> i) & 1:
            gates.append(cnot(controls[i], target))


def _global_phase_gates(angle: float, qubit: int) -> list[Gate]:
    if abs(angle) <= _ANGLE_TOL:
        return []
    return [rz(-2.0 * angle, qubit), phase(2.0 * angle, qubit)]


def state_prep_gates(amps: np.ndarray, qubits: list[int]) -> list[Gate]:
    amps = np.asarray(amps, dtype=complex).reshape(-1)
    dim = amps.shape[0]
    c = dim.bit_length() - 1
    if 1 << c != dim:
        raise DomainError("amplitude count must be a power of two")
    if not abs(np.linalg.norm(amps) - 1.0) <= 1e-10:  # NaN fails too
        raise DomainError("amplitudes are not normalized")
    if len(qubits) != c:
        raise DomainError(f"need {c} qubits, got {len(qubits)}")
    gates: list[Gate] = []
    if c == 0:
        return gates
    mags = np.abs(amps)
    # Magnitudes, one multiplexed Ry per qubit from the top down.
    for d in range(c):
        t = c - 1 - d
        sq = (mags**2).reshape(1 << d, 2, 1 << t)
        w = np.sqrt(sq.sum(axis=2))
        theta = 2.0 * np.arctan2(w[:, 1], w[:, 0])
        _mux_rotation("ry", qubits[t], [qubits[t + 1 + i] for i in range(d)], theta, gates)
    # Phases, one multiplexed Rz per qubit from the top down, then the residue.
    rem = np.where(mags > 1e-15, np.angle(amps), 0.0)
    for t in range(c - 1, -1, -1):
        half = rem.reshape(2, 1 << t)
        _mux_rotation("rz", qubits[t], [qubits[i] for i in range(t)],
                      half[1] - half[0], gates)
        rem = (half[0] + half[1]) / 2.0
    gates += _global_phase_gates(float(rem[0]), qubits[0])
    return gates


def generic_state_prep(amps: np.ndarray) -> Circuit:
    """|0^c> -> sum_m amps[m] |m>, exactly (global phase included)."""
    amps = np.asarray(amps, dtype=complex).reshape(-1)
    c = max(1, amps.shape[0].bit_length() - 1)
    return Circuit(c, tuple(state_prep_gates(amps, list(range(c)))))


def _controlled_pauli_gates(ops: str, ctrl: int, sys_base: int) -> list[Gate]:
    out: list[Gate] = []
    for site, p in enumerate(ops):
        q = sys_base + site
        if p == "X":
            out.append(cnot(ctrl, q))
        elif p == "Z":
            out.append(cz(ctrl, q))
        elif p == "Y":
            out += [sdg(q), cnot(ctrl, q), s(q)]
    return out


def standard_lcu(h: PauliSum) -> BlockEncoding:
    """Fig-textbook LCU: PR on ceil(log2 M) ancillae, per-term multi-controlled
    Pauli strings resolved through a clean work-ancilla Toffoli chain, and
    PL-dagger, with PL = conj(PR) as in every encoding. The chain returns the
    work ancillae to |0>, so they are post-selected too."""
    m_terms = len(h.terms)
    if m_terms < 1:
        raise DomainError("empty operator")
    norm = one_norm(h)
    n = h.n
    c = max(0, (m_terms - 1).bit_length())
    work = max(0, c - 1)
    sys_base = c + work
    width = sys_base + n
    layout = {"system": (sys_base, n)}
    if c:
        layout["prep_anc"] = (0, c)
    if work:
        layout["work_anc"] = (c, work)

    gates: list[Gate] = []
    if c == 0:
        term = h.terms[0]
        gates += _global_phase_gates(float(np.angle(term.coefficient)), sys_base)
        for site, p in enumerate(term.ops):
            if p == "X":
                gates.append(x(sys_base + site))
            elif p == "Z":
                gates.append(phase(math.pi, sys_base + site))
            elif p == "Y":
                gates += [sdg(sys_base + site), x(sys_base + site), s(sys_base + site)]
        return BlockEncoding(Circuit(width, tuple(gates), layout), norm)

    amps = np.zeros(1 << c, dtype=complex)
    for i, t in enumerate(h.terms):
        amps[i] = np.sqrt(t.coefficient / norm)
    anc = list(range(c))

    for m, term in enumerate(h.terms):
        if set(term.ops) == {"I"}:
            continue
        flips = [x(q) for q in anc if not (m >> q) & 1]
        gates += flips
        if c == 1:
            ctrl = 0
            chain: list[Gate] = []
        else:
            chain = [toffoli(0, 1, c)]
            for i in range(2, c):
                chain.append(toffoli(c + i - 2, i, c + i - 1))
            ctrl = c + c - 2
        gates += chain
        gates += _controlled_pauli_gates(term.ops, ctrl, sys_base)
        gates += reversed(chain)
        gates += flips

    return BlockEncoding(Circuit(width, tuple(gates), layout), norm,
                         prep=state_prep_gates(amps, anc))
