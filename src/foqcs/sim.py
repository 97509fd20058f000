"""Exact statevector simulation and block extraction.

Amplitudes are complex128 indexed little-endian (qubit q = bit q). Every gate
kind, composite ones (gamma, cgamma, toffoli, ...) included, is applied in
place through its exact unitary by one kernel, _apply_unitary, so circuits need
not be lowered before simulation. The kernel reads the sparsity of the unitary:
it skips rows equal to the identity's, scales a diagonal-only row in place,
multiplies by no coefficient equal to 1, and copies a slice only when a later
row reads it after it has been overwritten. A CNOT is then one slice copy and
two assignments, and a phase gate one in-place scaling of half the amplitudes.

Two drivers feed that kernel:
  - dense: run, simulate and circuit_unitary hold arrays shaped (2**width,) or
    (2**width, batch);
  - sparse: _run_sparse holds a state as its support, sorted unique int64
    basis indices and their amplitudes. Per gate it gathers the amplitudes
    into a (2**k, groups) block, one column per setting of the bits the gate
    does not touch, applies the kernel to that block, and scatters back. A
    gate costs about the support size, not 2**width.

assert_state and the SELECT part of extract_block run sparse. The paper's
Dicke states and check-matrix SELECT keep a tiny support (a d1 state on n
qubits has n nonzeros), so verify dicke costs about gates x support. PR and
PL act on the ancillae alone, so each runs dense once on 2**sys_start
amplitudes; SELECT runs on the support of PR|0_anc> x |b> for many system
columns b per pass, each b held in index bits above the circuit. PL-dagger is
never built: <0_anc| PL-dagger is the bra of PL|0_anc>.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate
from .errors import DomainError, ResourceGuardError

DEFAULT_MAX_WIDTH = 24
# Sparse basis indices are int64; this many bits leave every shift in range.
SPARSE_MAX_WIDTH = 62


def max_width() -> int:
    """Simulator width cap; override with the FOQCS_MAX_WIDTH env var."""
    return int(os.environ.get("FOQCS_MAX_WIDTH", DEFAULT_MAX_WIDTH))


def _check_sparse_width(width: int) -> None:
    """The sparse paths' cap: max_width(), and never above SPARSE_MAX_WIDTH."""
    cap = min(max_width(), SPARSE_MAX_WIDTH)
    if width > cap:
        raise ResourceGuardError(f"width {width} exceeds simulator cap {cap}")


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


def _const(m) -> np.ndarray:
    u = np.array(m, dtype=complex)
    u.flags.writeable = False
    return u


def _controlled(sub: np.ndarray) -> np.ndarray:
    """Controlled-sub with the control on local bit 0 (odd basis indices)."""
    u = np.eye(2 * len(sub), dtype=complex)
    u[1::2, 1::2] = sub
    return u


def _mat_ry(t):
    c, s_ = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s_], [s_, c]], dtype=complex)


def _mat_rz(t):
    return np.array([[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]], dtype=complex)


def _mat_phase(t):
    return np.array([[1, 0], [0, np.exp(1j * t)]], dtype=complex)


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


_X = [[0, 1], [1, 0]]
_CNOT = _controlled(np.array(_X))
_FIXED = {
    "x": _const(_X),
    "h": _const(np.array([[1, 1], [1, -1]]) / math.sqrt(2)),
    "s": _const([[1, 0], [0, 1j]]),
    "sdg": _const([[1, 0], [0, -1j]]),
    "cnot": _const(_CNOT),
    "cz": _const(np.diag([1, 1, 1, -1])),
    "toffoli": _const(_controlled(_CNOT)),  # controls bits 0, 1; target bit 2
}
_ANGLED = {
    "ry": _mat_ry,
    "rz": _mat_rz,
    "phase": _mat_phase,
    "gamma": gamma_matrix,
    "cry": lambda t: _controlled(_mat_ry(t)),
    "crz": lambda t: _controlled(_mat_rz(t)),
    "cphase": lambda t: _controlled(_mat_phase(t)),
    "cgamma": lambda t: _controlled(gamma_matrix(t)),  # control bit 0; (a, b) = bits 1, 2
}


def gate_unitary(g: Gate) -> np.ndarray:
    """Exact unitary of any gate kind, on the local basis of g.qubits.

    Local bit i is g.qubits[i]; controls come first. The fixed kinds return
    shared read-only arrays.
    """
    if g.angle is None:
        return _FIXED[g.kind]
    return _ANGLED[g.kind](g.angle)


def _apply_unitary(amps: np.ndarray, u: np.ndarray, qubits: tuple[int, ...],
                   width: int) -> None:
    """Apply a 2^k x 2^k matrix in place, local bit i = qubits[i].

    Row r of u rewrites the slice where the operands read r. Rows equal to the
    identity's are skipped, a row whose only nonzero is on the diagonal is
    scaled in place, and any other row is summed into a new array, with no
    multiplication by a coefficient equal to 1, and assigned. A slice is copied
    first only if a later row reads it after its own row has overwritten it.
    """
    # u is read as Python lists: numpy calls on a 4x4 cost more than the work.
    work = []  # (r, [(c, u[r, c]) for each nonzero]) of the non-identity rows
    for r, row in enumerate(u.tolist()):
        terms = [(c, x) for c, x in enumerate(row) if x]
        if terms != [(r, 1)]:
            work.append((r, terms))
    if not work:
        return
    v, axes = _bit_view(amps, width, qubits)
    idx = [slice(None)] * v.ndim
    views = {}

    def view(p):
        if p not in views:
            for i, q in enumerate(qubits):
                idx[axes[q]] = (p >> i) & 1
            views[p] = v[tuple(idx)]
        return views[p]

    written = {r for r, _ in work}
    keep = {c for r, terms in work for c, _ in terms if c < r and c in written}
    saved = {c: view(c).copy() for c in keep}
    for r, terms in work:  # a unitary has no zero row
        dst = view(r)
        (src, x), *rest = [(dst if c == r else saved[c] if c in saved else view(c), x)
                           for c, x in terms]
        if not rest and src is dst:
            dst *= x
        elif not rest and x == 1:
            dst[...] = src
        else:
            acc = src.copy() if x == 1 else x * src
            for src, x in rest:
                acc += src if x == 1 else x * src
            dst[...] = acc


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
    return _run_gates(circuit.gates, amps, circuit.width)


def _run_gates(gates, amps: np.ndarray, width: int) -> np.ndarray:
    for g in gates:
        _apply_unitary(amps, gate_unitary(g), g.qubits, width)
    return amps


def _run_sparse(gates, idx: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply `gates` to the state sum_j amps[j] |idx[j]>; returns (idx, amps).

    idx holds sorted unique int64 basis indices. Per gate, the indices are
    split into the operand bits (local index r, read by shifts) and the rest
    (the group); the amplitudes fill a C-contiguous (2**k, groups) block that
    _apply_unitary updates as k qubits batched over the groups. The block's
    nonzeros are scattered back and re-sorted; only exact zeros are dropped,
    so a NaN stays in the support. An operand at or above SPARSE_MAX_WIDTH
    raises ResourceGuardError rather than shift into the sign bit.
    """
    for g in gates:
        qs = g.qubits
        if max(qs) >= SPARSE_MAX_WIDTH:
            raise ResourceGuardError(
                f"qubit {max(qs)} is over the sparse simulator's {SPARSE_MAX_WIDTH}-qubit cap")
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
    """Read off <0_anc| PL-dagger SELECT PR |0_anc> on the system register.

    PR and PL act on the ancillae alone, so v = PR|0_anc> and w = PL|0_anc>
    each run forward once, dense, on the 2**sys_start ancilla amplitudes.
    SELECT then runs sparse on many columns per pass: column b starts as
    v x |b>, with b copied into n extra bits above the top qubit that no gate
    reads, so the columns never mix. A pass starts from at most 2**sys_start
    entries (all columns when v is sparse, one when v is dense), never from
    nnz(v) * 2**n ~ 2**width. Each output entry adds conj(w_anc) times its
    amplitude to block[row, b]. The per-input post-selection probability is
    the squared norm of column b.
    """
    _check_sparse_width(be.width)
    sys_start, n = be.layout["system"]
    if be.width + n > SPARSE_MAX_WIDTH:
        raise ResourceGuardError(f"width {be.width} plus {n} column bits exceeds the "
                                 f"sparse simulator's {SPARSE_MAX_WIDTH}-qubit cap")
    v = _run_gates(be.prep, StateVector.zero(sys_start).amps, sys_start)
    w_bra = _run_gates(be.unprep, StateVector.zero(sys_start).amps, sys_start).conj()
    v_idx = np.flatnonzero(v)
    dim, step = 1 << n, max(1, (1 << sys_start) // v_idx.size)
    block = np.zeros((dim, dim), dtype=complex)
    for lo in range(0, dim, step):
        b = np.arange(lo, min(lo + step, dim), dtype=np.int64)[:, None]
        # column bits on top: sorted and unique, as _run_sparse needs
        start = (v_idx | b << sys_start | b << be.width).ravel()
        idx, amps = _run_sparse(be.select.gates, start, np.tile(v[v_idx], b.size))
        np.add.at(block, ((idx >> sys_start) & (dim - 1), idx >> be.width),
                  w_bra[idx & ((1 << sys_start) - 1)] * amps)
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
    lists offending basis indices, in ascending order, rather than raising.
    The circuit runs sparse from the support of init (default |0...0>), and an
    index outside both that output support and `expected` has diff exactly 0,
    so only the union of the two index sets is compared.
    """
    _check_sparse_width(circuit.width)
    dim = 1 << circuit.width
    if init is None:
        idx, amps = np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex)
    elif init.width != circuit.width:
        raise DomainError(f"state width {init.width} != circuit width {circuit.width}")
    elif np.shape(init.amps) != (dim,):
        raise DomainError("state dimension does not match circuit width")
    else:
        idx = np.flatnonzero(init.amps)
        amps = np.asarray(init.amps, dtype=complex)[idx]
    idx, amps = _run_sparse(circuit.gates, idx, amps)
    for i in expected:
        if not 0 <= i < dim:
            raise DomainError(f"expected index {i} out of range")
    exp_idx = np.fromiter(expected, dtype=np.int64, count=len(expected))
    exp_amps = np.fromiter(expected.values(), dtype=complex, count=len(expected))
    union = np.union1d(idx, exp_idx)
    out = np.zeros(union.size, dtype=complex)
    out[np.searchsorted(union, idx)] = amps
    ref = np.zeros(union.size, dtype=complex)
    ref[np.searchsorted(union, exp_idx)] = exp_amps
    diff = np.abs(out - ref)
    within = diff <= tol  # NaN compares False, so NaN is never within tol; inverted in place
    bad = np.nonzero(np.logical_not(within, out=within))[0]
    mism = [(int(union[i]), complex(out[i]), complex(ref[i])) for i in bad[:16]]
    return StateCheck(ok=bad.size == 0, max_abs_error=float(diff.max(initial=0.0)),
                      mismatches=mism)
