"""Dense statevector simulation and block extraction.

Amplitudes are complex128 arrays indexed little-endian (qubit q = bit q).
Kernels operate in place on an array shaped (2**width,) or (2**width, batch).
Composite gates (gamma, cgamma, toffoli, ...) are applied via their exact
unitaries, so circuits need not be lowered before simulation.

extract_block splits a block encoding at its first and last gate touching the
system register. The prefix (PR) and the suffix (PL-dagger) act on the
ancillae alone and run once on 2**sys_start amplitudes; only the middle
(SELECT) runs at full width, once per system basis column.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate
from .errors import DomainError, ResourceGuardError

try:  # bitwise kernels JIT-compile when numba is available
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(f):
            return f

        return wrap


DEFAULT_MAX_WIDTH = 24


@njit(cache=True)
def _k_swap(a, log_b, ones, tmask):
    half = tmask << log_b
    for i in range(a.size):
        row = i >> log_b
        if (row & ones) == ones and (row & tmask) == 0:
            j = i + half
            t = a[i]
            a[i] = a[j]
            a[j] = t


@njit(cache=True)
def _k_mix(a, log_b, ones, tmask, u00, u01, u10, u11):
    half = tmask << log_b
    for i in range(a.size):
        row = i >> log_b
        if (row & ones) == ones and (row & tmask) == 0:
            j = i + half
            x0 = a[i]
            x1 = a[j]
            a[i] = u00 * x0 + u01 * x1
            a[j] = u10 * x0 + u11 * x1


@njit(cache=True)
def _k_diag(a, log_b, ones, tmask, p0, p1):
    for i in range(a.size):
        row = i >> log_b
        if (row & ones) == ones:
            a[i] *= p1 if row & tmask else p0


def max_width() -> int:
    """Simulator width cap; override with the FOQCS_MAX_WIDTH env var."""
    return int(os.environ.get("FOQCS_MAX_WIDTH", DEFAULT_MAX_WIDTH))


@dataclass
class StateVector:
    width: int
    amps: np.ndarray

    @classmethod
    def zero(cls, width: int) -> "StateVector":
        amps = np.zeros(1 << width, dtype=complex)
        amps[0] = 1.0
        return cls(width, amps)

    @classmethod
    def basis(cls, width: int, index: int) -> "StateVector":
        amps = np.zeros(1 << width, dtype=complex)
        amps[index] = 1.0
        return cls(width, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def _bit_view(amps: np.ndarray, width: int, qubits: tuple[int, ...]) -> tuple:
    """Reshape (2^w, ...) amplitudes so each qubit in `qubits` gets its own
    length-2 axis (views only, no copies).

    Returns (view, axis_of_qubit) where axis_of_qubit[q] indexes the axis of
    qubit q in the view; trailing batch dimensions are folded into the last
    axis.
    """
    qd = sorted(qubits, reverse=True)
    shape = []
    prev = width
    axes = {}
    for q in qd:
        shape.append(1 << (prev - 1 - q))
        axes[q] = len(shape)
        shape.append(2)
        prev = q
    shape.append(-1)
    return amps.reshape(shape), axes


def _slices(ndim: int, axes: dict[int, int], assign: dict[int, int]) -> tuple:
    idx = [slice(None)] * ndim
    for q, bit in assign.items():
        idx[axes[q]] = bit
    return tuple(idx)


def _mat_ry(t):
    c, s_ = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s_], [s_, c]], dtype=complex)


def _mat_rz(t):
    return np.array([[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]], dtype=complex)


_MAT_FIXED = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "s": np.diag([1, 1j]).astype(complex),
    "sdg": np.diag([1, -1j]).astype(complex),
}


def gamma_matrix(theta: float) -> np.ndarray:
    """4x4 unitary of gamma on local basis index bit0=first operand, bit1=second."""
    c, s_ = math.cos(theta / 2), math.sin(theta / 2)
    g = np.zeros((4, 4), dtype=complex)
    # columns: input (a,b); rows: output. local index = a + 2b.
    g[0, 0] = 1.0  # |00> -> |00>
    g[2, 2] = c  # |a=0,b=1> -> cos|01> + sin|10>
    g[1, 2] = s_
    g[3, 1] = 1.0  # |a=1,b=0> -> |11>
    g[2, 3] = -s_  # |a=1,b=1> -> -sin|01> + cos|10>
    g[1, 3] = c
    return g


def gate_unitary(g: Gate) -> np.ndarray:
    """Exact unitary of any gate kind, on the local basis of g.qubits."""
    k = g.kind
    if k in _MAT_FIXED:
        return _MAT_FIXED[k]
    if k == "ry":
        return _mat_ry(g.angle)
    if k == "rz":
        return _mat_rz(g.angle)
    if k == "phase":
        return np.diag([1, np.exp(1j * g.angle)]).astype(complex)
    if k in ("cnot", "cz", "cry", "crz", "cphase"):
        u = np.eye(4, dtype=complex)
        sub = {
            "cnot": _MAT_FIXED["x"],
            "cz": np.diag([1, -1]).astype(complex),
            "cry": _mat_ry(g.angle) if g.angle is not None else None,
            "crz": _mat_rz(g.angle) if g.angle is not None else None,
            "cphase": np.diag([1, np.exp(1j * g.angle)]) if g.angle is not None else None,
        }[k]
        # control is qubits[0] = local bit 0; rows with bit0=1 are indices 1,3.
        u[np.ix_([1, 3], [1, 3])] = sub
        return u
    if k == "gamma":
        return gamma_matrix(g.angle)
    if k == "toffoli":
        u = np.eye(8, dtype=complex)
        # controls bits 0,1; target bit 2: swap |011> <-> |111> (indices 3, 7).
        u[3, 3] = u[7, 7] = 0.0
        u[3, 7] = u[7, 3] = 1.0
        return u
    if k == "cgamma":
        u = np.eye(8, dtype=complex)
        sub = gamma_matrix(g.angle)
        idx = [1, 3, 5, 7]  # control = local bit 0 set; (a,b) = bits 1,2
        u[np.ix_(idx, idx)] = sub
        return u
    raise DomainError(f"no unitary for {k}")


def _apply_unitary(amps: np.ndarray, u: np.ndarray, qubits: tuple[int, ...],
                   width: int) -> None:
    """Apply a 2^k x 2^k matrix in place, local bit i = qubits[i]."""
    k = len(qubits)
    v, axes = _bit_view(amps, width, qubits)
    subs = [
        _slices(v.ndim, axes, {qubits[i]: (p >> i) & 1 for i in range(k)})
        for p in range(1 << k)
    ]
    vals = [v[ix].copy() for ix in subs]
    for r in range(1 << k):
        acc = None
        for c in range(1 << k):
            if u[r, c] != 0:
                term = u[r, c] * vals[c]
                acc = term if acc is None else acc + term
        v[subs[r]] = 0.0 if acc is None else acc


def _apply_gate(amps: np.ndarray, g: Gate, width: int) -> None:
    """In-place application: jitted bitwise kernels where possible, numpy views
    otherwise (gamma/cgamma always go through their dense unitaries)."""
    batch = amps.shape[1] if amps.ndim == 2 else 1
    if not _HAVE_NUMBA or (batch & (batch - 1)) or not amps.flags.c_contiguous:
        return _apply_gate_numpy(amps, g, width)
    q = g.qubits
    k = g.kind
    flat = amps.reshape(-1)
    log_b = batch.bit_length() - 1
    if k == "x":
        _k_swap(flat, log_b, 0, 1 << q[0])
    elif k == "cnot":
        _k_swap(flat, log_b, 1 << q[0], 1 << q[1])
    elif k == "toffoli":
        _k_swap(flat, log_b, (1 << q[0]) | (1 << q[1]), 1 << q[2])
    elif k in ("h", "ry"):
        u = gate_unitary(g)
        _k_mix(flat, log_b, 0, 1 << q[0],
               complex(u[0, 0]), complex(u[0, 1]), complex(u[1, 0]), complex(u[1, 1]))
    elif k == "cry":
        u = _mat_ry(g.angle)
        _k_mix(flat, log_b, 1 << q[0], 1 << q[1],
               complex(u[0, 0]), complex(u[0, 1]), complex(u[1, 0]), complex(u[1, 1]))
    elif k == "s":
        _k_diag(flat, log_b, 0, 1 << q[0], 1.0 + 0j, 1j)
    elif k == "sdg":
        _k_diag(flat, log_b, 0, 1 << q[0], 1.0 + 0j, -1j)
    elif k == "phase":
        _k_diag(flat, log_b, 0, 1 << q[0], 1.0 + 0j, np.exp(1j * g.angle))
    elif k == "rz":
        _k_diag(flat, log_b, 0, 1 << q[0],
                np.exp(-0.5j * g.angle), np.exp(0.5j * g.angle))
    elif k == "cz":
        _k_diag(flat, log_b, 1 << q[0], 1 << q[1], 1.0 + 0j, -1.0 + 0j)
    elif k == "crz":
        _k_diag(flat, log_b, 1 << q[0], 1 << q[1],
                np.exp(-0.5j * g.angle), np.exp(0.5j * g.angle))
    elif k == "cphase":
        _k_diag(flat, log_b, 1 << q[0], 1 << q[1], 1.0 + 0j, np.exp(1j * g.angle))
    else:
        _apply_unitary(amps, gate_unitary(g), g.qubits, width)


def _apply_gate_numpy(amps: np.ndarray, g: Gate, width: int) -> None:
    """Pure-numpy fallback using strided views."""
    q = g.qubits
    k = g.kind
    if k in ("x", "h", "ry"):
        v, axes = _bit_view(amps, width, q)
        a0 = v[_slices(v.ndim, axes, {q[0]: 0})]
        a1 = v[_slices(v.ndim, axes, {q[0]: 1})]
        if k == "x":
            t = a0.copy()
            a0[...] = a1
            a1[...] = t
        else:
            u = gate_unitary(g)
            t0 = u[0, 0] * a0 + u[0, 1] * a1
            t1 = u[1, 0] * a0 + u[1, 1] * a1
            a0[...] = t0
            a1[...] = t1
    elif k in ("s", "sdg", "rz", "phase"):
        v, axes = _bit_view(amps, width, q)
        a1 = v[_slices(v.ndim, axes, {q[0]: 1})]
        if k == "s":
            a1 *= 1j
        elif k == "sdg":
            a1 *= -1j
        elif k == "phase":
            a1 *= np.exp(1j * g.angle)
        else:
            v[_slices(v.ndim, axes, {q[0]: 0})] *= np.exp(-0.5j * g.angle)
            a1 *= np.exp(0.5j * g.angle)
    elif k == "cnot":
        v, axes = _bit_view(amps, width, q)
        s0 = v[_slices(v.ndim, axes, {q[0]: 1, q[1]: 0})]
        s1 = v[_slices(v.ndim, axes, {q[0]: 1, q[1]: 1})]
        t = s0.copy()
        s0[...] = s1
        s1[...] = t
    elif k == "cz":
        v, axes = _bit_view(amps, width, q)
        v[_slices(v.ndim, axes, {q[0]: 1, q[1]: 1})] *= -1.0
    elif k in ("crz", "cphase", "cry"):
        v, axes = _bit_view(amps, width, q)
        if k == "cphase":
            v[_slices(v.ndim, axes, {q[0]: 1, q[1]: 1})] *= np.exp(1j * g.angle)
        elif k == "crz":
            v[_slices(v.ndim, axes, {q[0]: 1, q[1]: 0})] *= np.exp(-0.5j * g.angle)
            v[_slices(v.ndim, axes, {q[0]: 1, q[1]: 1})] *= np.exp(0.5j * g.angle)
        else:
            a0 = v[_slices(v.ndim, axes, {q[0]: 1, q[1]: 0})]
            a1 = v[_slices(v.ndim, axes, {q[0]: 1, q[1]: 1})]
            u = _mat_ry(g.angle)
            t0 = u[0, 0] * a0 + u[0, 1] * a1
            t1 = u[1, 0] * a0 + u[1, 1] * a1
            a0[...] = t0
            a1[...] = t1
    elif k == "toffoli":
        v, axes = _bit_view(amps, width, q)
        s0 = v[_slices(v.ndim, axes, {q[0]: 1, q[1]: 1, q[2]: 0})]
        s1 = v[_slices(v.ndim, axes, {q[0]: 1, q[1]: 1, q[2]: 1})]
        t = s0.copy()
        s0[...] = s1
        s1[...] = t
    else:
        _apply_unitary(amps, gate_unitary(g), g.qubits, width)


def run(circuit: Circuit, amps: np.ndarray) -> np.ndarray:
    """Apply all gates of `circuit` in place to `amps` (1-D or batched 2-D)."""
    if circuit.width > max_width():
        raise ResourceGuardError(
            f"width {circuit.width} exceeds simulator cap {max_width()}"
        )
    if amps.shape[0] != 1 << circuit.width:
        raise DomainError("state dimension does not match circuit width")
    if not amps.flags.c_contiguous:
        raise DomainError("amplitude array must be C-contiguous")
    for g in circuit.gates:
        _apply_gate(amps, g, circuit.width)
    return amps


def simulate(circuit: Circuit, init: StateVector | None = None) -> StateVector:
    """Exact statevector after the circuit; init defaults to |0...0>."""
    if circuit.width > max_width():
        raise ResourceGuardError(
            f"width {circuit.width} exceeds simulator cap {max_width()}"
        )
    if init is None:
        init = StateVector.zero(circuit.width)
    if init.width != circuit.width:
        raise DomainError(f"state width {init.width} != circuit width {circuit.width}")
    amps = np.array(init.amps, dtype=complex)
    run(circuit, amps)
    return StateVector(circuit.width, amps)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2^w x 2^w unitary (batched over all basis inputs); small widths only."""
    if circuit.width > 12:
        raise ResourceGuardError("circuit_unitary limited to width 12")
    dim = 1 << circuit.width
    amps = np.eye(dim, dtype=complex)
    run(circuit, amps)
    return amps


@dataclass
class BlockReport:
    """Encoded block and its post-selection statistics."""

    block: np.ndarray
    max_abs_error: float
    postselect_probability: np.ndarray


def extract_block(be, reference: np.ndarray | None = None) -> BlockReport:
    """Read off <0_anc| U |0_anc> on the system register, column by column.

    The gates are cut at the first (lo) and one past the last (hi) gate that
    touches a system qubit. Outside [lo, hi) the state factors as
    (ancilla vector) x |b>, so
      - the prefix gates[:lo] run once on |0_anc>, giving v;
      - the suffix S = gates[hi:] runs once, in reverse and
        conjugate-transposed, on |0_anc>, giving w = S^dagger |0_anc>;
      - the middle gates[lo:hi] run on v x |b> for each system basis input b,
        and column b of the block is <w| contracted over the ancillae.
    The per-input post-selection probability is the squared norm of column b.
    """
    circ = be.circuit
    if circ.width > max_width():
        raise ResourceGuardError(f"width {circ.width} exceeds simulator cap {max_width()}")
    sys_start, n = circ.layout["system"]
    if sys_start + n != circ.width:
        raise DomainError("system register must occupy the top qubits")
    gates = circ.gates
    touching = [i for i, g in enumerate(gates) if max(g.qubits) >= sys_start]
    lo, hi = (touching[0], touching[-1] + 1) if touching else (len(gates), len(gates))
    v = StateVector.zero(sys_start).amps
    for g in gates[:lo]:
        _apply_gate(v, g, sys_start)
    w = StateVector.zero(sys_start).amps
    for g in reversed(gates[hi:]):
        _apply_unitary(w, gate_unitary(g).conj().T, g.qubits, sys_start)
    w_bra = w.conj()
    dim = 1 << n
    block = np.empty((dim, dim), dtype=complex)
    amps = np.empty(1 << circ.width, dtype=complex)
    rows = amps.reshape(dim, 1 << sys_start)
    for b in range(dim):
        amps.fill(0.0)
        rows[b] = v
        for g in gates[lo:hi]:
            _apply_gate(amps, g, circ.width)
        block[:, b] = rows @ w_bra
    probs = np.sum(np.abs(block) ** 2, axis=0)
    err = 0.0 if reference is None else float(np.max(np.abs(block - reference)))
    return BlockReport(block=block, max_abs_error=err, postselect_probability=probs)


@dataclass
class StateCheck:
    ok: bool
    max_abs_error: float
    mismatches: list


def assert_state(circuit: Circuit, expected: dict[int, complex], tol: float = 1e-12,
                 init: StateVector | None = None) -> StateCheck:
    """Compare the simulated state against a sparse amplitude map.

    Indices absent from `expected` must carry amplitude below tol. The report
    lists offending basis indices rather than raising.
    """
    out = simulate(circuit, init).amps
    dim = out.shape[0]
    ref = np.zeros(dim, dtype=complex)
    for idx, amp in expected.items():
        if not 0 <= idx < dim:
            raise DomainError(f"expected index {idx} out of range")
        ref[idx] = amp
    diff = np.abs(out - ref)
    within = diff <= tol  # NaN compares False, so NaN is never within tol; inverted in place
    bad = np.nonzero(np.logical_not(within, out=within))[0]
    mism = [(int(i), complex(out[i]), complex(ref[i])) for i in bad[:16]]
    return StateCheck(ok=bad.size == 0, max_abs_error=float(diff.max()), mismatches=mism)
