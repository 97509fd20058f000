"""Exact statevector simulation and block extraction.

Amplitudes are complex128 indexed little-endian (qubit q = bit q). Every gate
kind, composite ones (gamma, cgamma, toffoli, ...) included, is applied through
its exact unitary, so circuits need not be lowered before simulation. One
kernel, _apply_unitary, applies it in place; only the sparse driver moves the
kinds of circuit.PERMUTATION_ROWS itself (below). Both read circuit.KINDS,
the unitaries through gate_unitary; this module keeps no per-kind rule of its
own. The kernel reads the sparsity of the unitary:
it skips rows equal to the identity's, scales a diagonal-only row in place,
multiplies by no coefficient equal to 1, and copies a slice only when a later
row reads it after it has been overwritten. A CNOT is then one slice copy and
two assignments, and a phase gate one in-place scaling of half the amplitudes.

Two drivers feed that kernel:
  - dense: run, simulate and circuit_unitary hold arrays shaped (2**width,) or
    (2**width, batch);
  - sparse: _run_sparse holds a state as its support, unique basis indices
    (int64 up to 62 bits, Python ints in an object array above, so any width
    runs) and their amplitudes, sorted once per run. A kind with one nonzero
    per column (x, cnot, toffoli and the diagonal kinds) needs no kernel: each
    index moves to its image and its amplitude is multiplied by the entry
    unless that is 1, as the kernel would. Any gate that mixes amplitudes is
    gathered into a (2**k, groups) block, one column per setting of the bits
    the gate does not touch (found by one argsort), given to the kernel, and
    scattered back. A gate costs about the support size, not 2**width.

errors.check_entries refuses, before it is allocated, each array the input
sizes: a dense state, unitary or block, and a mixing gate's (2**k, groups)
block, the only place a sparse support grows.

assert_state and extract_block run sparse. The paper's Dicke states and check-matrix SELECT
keep a tiny support (a d1 state on n qubits has n nonzeros), so verify dicke
costs about gates x support. PR acts on the ancillae alone and runs sparse
from the single index 0, truncated: after each mixing gate, amplitudes of
modulus at most TRUNCATION (rounding residue of the spin-glass staircases and
of generic_foqcs's brute-force preparation) are dropped and their 2-norm
summed into a budget delta that the block report carries. SELECT runs,
untruncated, on the support of PR|0_anc> x |b> for many system columns b per
pass, each b held in index bits above the circuit. PL is conj(PR), so neither
PL nor PL-dagger is built or run: <0_anc| PL-dagger = (conj v)-dagger = v^T.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import DIAGONAL_KINDS, KINDS, PERMUTATION_ROWS, Circuit, Gate
from .errors import ENTRY_BUDGET_BITS, DomainError, check_entries

# After a mixing gate, a truncating sparse run drops every amplitude with
# 0 < |amp| <= TRUNCATION and reports the 2-norm it dropped.
TRUNCATION = 1e-14


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


def gate_unitary(g: Gate) -> np.ndarray:
    """Exact unitary of any gate kind, on the local basis of g.qubits, read
    from the kind's row in circuit.KINDS.

    Local bit i is g.qubits[i]; controls come first. The fixed kinds return
    shared read-only arrays.
    """
    return KINDS[g.kind].unitary(g.angle)


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
    check_entries(f"the 2^{circuit.width} amplitudes", 1, circuit.width)
    if amps.shape[0] != 1 << circuit.width:
        raise DomainError("state dimension does not match circuit width")
    if not amps.flags.c_contiguous:
        raise DomainError("amplitude array must be C-contiguous")
    return _run_gates(circuit.gates, amps, circuit.width)


def _run_gates(gates, amps: np.ndarray, width: int) -> np.ndarray:
    for g in gates:
        _apply_unitary(amps, gate_unitary(g), g.qubits, width)
    return amps


def _run_starts(a: np.ndarray) -> np.ndarray:
    """The mask of the first entry of each run of equal entries in sorted a."""
    first = np.empty(a.size, dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first


def _index_dtype(bits: int):
    """The dtype of sparse basis indices of `bits` bits: int64 while every
    shift stays clear of the sign bit, else Python ints in an object array."""
    return np.int64 if bits <= 62 else object


def _run_sparse(gates, idx: np.ndarray, amps: np.ndarray,
                truncate: bool = False) -> tuple[np.ndarray, np.ndarray, float]:
    """Apply `gates` to the state sum_j amps[j] |idx[j]>; returns (idx, amps, delta).

    idx holds unique basis indices in any order, int64 or Python ints in an
    object array (_index_dtype), and the result keeps that dtype; it is sorted
    once, on return, and neither input is modified. Per gate, each index's
    operand bits give its local index p (bit i of p is qubits[i]); spread[p]
    puts p's bits back on the qubits. A kind in PERMUTATION_ROWS moves each
    index from column p to row rows[p] and multiplies its amplitude by that
    entry of u unless the entry is 1, as _apply_unitary would. Any other gate
    sorts the indices by their other bits (the group), fills a C-contiguous
    (2**k, groups) block that _apply_unitary updates as k qubits batched over
    the groups, and scatters the block's nonzeros back. Exact zeros are
    dropped. With truncate, so is every entry with |amp| <= TRUNCATION after a
    mixing gate, and delta sums the 2-norms of what each gate dropped: every
    gate is unitary, so in exact arithmetic the untruncated result is within
    delta of the returned one in 2-norm. Without truncate delta is 0.
    |NaN| <= TRUNCATION is False, so a NaN stays in the support. The two
    dtypes give the same indices and the same amplitude bytes.
    """
    amps = amps.copy()  # scaled in place below
    delta = 0.0
    for g in gates:
        qs = g.qubits
        spread = [0]
        for q in qs:
            spread += [s | 1 << q for s in spread]
        spread = np.array(spread, dtype=idx.dtype)
        local = (idx >> qs[0]) & 1
        for i, q in enumerate(qs[1:], 1):
            local |= ((idx >> q) & 1) << i
        local = local.astype(np.int64, copy=False)
        u = gate_unitary(g)
        rows = PERMUTATION_ROWS.get(g.kind)
        if rows is not None:
            if g.kind not in DIAGONAL_KINDS:
                idx = idx ^ (spread ^ spread[rows])[local]
            entries = u[rows, np.arange(rows.size)]
            scale = entries != 1
            if scale.any():
                scaled = scale[local]
                amps[scaled] *= entries[local[scaled]]
            if not amps.all():
                nonzero = amps != 0
                idx, amps = idx[nonzero], amps[nonzero]
        else:
            rest = idx & ~spread[-1]
            order = np.argsort(rest)
            rest = rest[order]
            first = _run_starts(rest)  # first index of its group
            groups = int(first.sum())
            check_entries(f"the {spread.size} x {groups} block of {g.kind}", groups, len(qs))
            blk = np.zeros((spread.size, groups), dtype=complex)
            blk[local[order], np.cumsum(first) - 1] = amps[order]
            _apply_unitary(blk, u, tuple(range(len(qs))), len(qs))
            r, c = np.nonzero(blk)
            idx, amps = rest[first][c] | spread[r], blk[r, c]
            if truncate:
                mag = np.abs(amps)
                small = mag <= TRUNCATION  # False for NaN
                if small.any():
                    delta += math.hypot(*mag[small].tolist())
                    idx, amps = idx[~small], amps[~small]
    order = np.argsort(idx)
    return idx[order], amps[order], delta


def simulate(circuit: Circuit, init: StateVector | None = None) -> StateVector:
    """Exact statevector after the circuit; init defaults to |0...0>."""
    check_entries(f"the 2^{circuit.width} amplitudes", 1, circuit.width)
    if init is None:
        init = StateVector.zero(circuit.width)
    if init.width != circuit.width:
        raise DomainError(f"state width {init.width} != circuit width {circuit.width}")
    amps = np.array(init.amps, dtype=complex)
    run(circuit, amps)
    return StateVector(circuit.width, amps)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2^w x 2^w unitary (batched over all basis inputs); small widths only."""
    check_entries(f"the 2^{circuit.width} x 2^{circuit.width} unitary", 1, 2 * circuit.width)
    dim = 1 << circuit.width
    amps = np.eye(dim, dtype=complex)
    run(circuit, amps)
    return amps


@dataclass
class BlockReport:
    """Encoded block, its post-selection statistics and the truncation budget.

    truncation is the 2-norm delta dropped from v = PR|0_anc>. SELECT is
    unitary and v, of norm at most 1, is both ket and bra, so the exact block
    is within 2 delta + delta**2 of the reported one.
    """

    block: np.ndarray
    max_abs_error: float
    postselect_probability: np.ndarray
    truncation: float

    def within(self, tol: float) -> bool:
        """Whether max_abs_error, widened by the truncation bound, is within
        tol; a NaN error never is."""
        d = self.truncation
        return bool(self.max_abs_error + 2 * d + d * d <= tol)


def extract_block(be, reference: np.ndarray | None = None) -> BlockReport:
    """Read off <0_anc| PL-dagger SELECT PR |0_anc> on the system register.

    PR acts on the ancillae alone, so v = PR|0_anc> runs forward once, sparse
    from the single index 0 and truncated (see _run_sparse), so the report
    carries its budget. PL = conj(PR) prepares conj(v), so the bra
    <0_anc| PL-dagger is v^T: v itself serves as both ket and bra. SELECT then
    runs sparse, untruncated, on many columns per pass: column b starts as
    v x |b>, with b copied into n extra bits above the top qubit that no gate
    reads, so the columns never mix. A pass starts from at most
    2**min(sys_start, ENTRY_BUDGET_BITS) entries (all columns when v is
    sparse, one when v is dense), never from nnz(v) * 2**n ~ 2**width. The
    indices take the dtype of width + n bits (_index_dtype). Each output entry
    whose ancilla part is in the support of v adds v_anc times its amplitude
    to block[row, b]; any other entry meets a zero of the bra. The per-input
    post-selection probability is the squared norm of column b. It and the
    error against `reference` are read a slab of columns at a time, so no
    temporary the size of the block is formed.
    """
    sys_start, n = be.layout["system"]
    check_entries(f"the 2^{n} x 2^{n} block", 1, 2 * n)
    dtype = _index_dtype(be.width + n)
    v_idx, v, delta = _run_sparse(be.prep, np.zeros(1, dtype=dtype),
                                  np.ones(1, dtype=complex), truncate=True)
    dim, step = 1 << n, max(1, (1 << min(sys_start, ENTRY_BUDGET_BITS)) // v_idx.size)
    block = np.zeros((dim, dim), dtype=complex)
    for lo in range(0, dim, step):
        b = np.arange(lo, min(lo + step, dim), dtype=dtype)[:, None]
        # column bits on top: unique, as _run_sparse needs
        start = (v_idx | b << sys_start | b << be.width).ravel()
        idx, amps, _ = _run_sparse(be.select.gates, start, np.tile(v, b.size))
        anc = idx & ((1 << sys_start) - 1)
        pos = np.minimum(np.searchsorted(v_idx, anc), v_idx.size - 1)
        hit = v_idx[pos] == anc
        idx = idx[hit]
        rows = ((idx >> sys_start) & (dim - 1)).astype(np.int64, copy=False)
        np.add.at(block, (rows, (idx >> be.width).astype(np.int64, copy=False)),
                  v[pos[hit]] * amps[hit])
    # Slabs of about 2^16 entries. dim and cols are powers of two, so each slab
    # has at least two columns or is the whole block: numpy then sums each
    # column row by row, as it sums the whole block, so no byte changes.
    cols = min(dim, max(2, (1 << 16) // dim))
    probs, errs = np.empty(dim), []
    for lo in range(0, dim, cols):
        slab = block[:, lo:lo + cols]
        probs[lo:lo + cols] = np.sum(np.abs(slab) ** 2, axis=0)
        if reference is not None:
            errs.append(np.max(np.abs(slab - reference[:, lo:lo + cols])))
    err = 0.0 if reference is None else float(np.max(errs))  # NaN propagates
    return BlockReport(block=block, max_abs_error=err, postselect_probability=probs,
                       truncation=delta)


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
    dim, dtype = 1 << circuit.width, _index_dtype(circuit.width)
    if init is None:
        idx, amps = np.zeros(1, dtype=dtype), np.ones(1, dtype=complex)
    elif init.width != circuit.width:
        raise DomainError(f"state width {init.width} != circuit width {circuit.width}")
    elif np.shape(init.amps) != (dim,):
        raise DomainError("state dimension does not match circuit width")
    else:
        idx = np.flatnonzero(init.amps)
        amps = np.asarray(init.amps, dtype=complex)[idx]
    idx, amps, _ = _run_sparse(circuit.gates, idx, amps)
    for i in expected:
        if not 0 <= i < dim:
            raise DomainError(f"expected index {i} out of range")
    exp_idx = np.fromiter(expected, dtype=dtype, count=len(expected))
    exp_amps = np.fromiter(expected.values(), dtype=complex, count=len(expected))
    # the sorted union, as np.union1d gives it; np.unique imports numpy.ma
    union = np.concatenate((idx, exp_idx))
    union.sort()
    union = union[_run_starts(union)]
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
