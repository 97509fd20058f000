"""Complete block-encoding assemblies: SELECT, PR oracles, spin models.

Register layout is [subpr | x_anc | z_anc | system] in ascending qubit order.
_assemble derives it from the subpr and system sizes, and every encoding, PR
oracle and literal reference reads its registers from there. The SELECT oracle
is one layer of CNOTs (x ancilla l -> system l) followed by one layer of CZs
(z ancilla l -> system l). PR prepares square-rooted coefficients v_a on the
ancillae. PL is conj(PR), which prepares their complex conjugates, so
conj(conj(v_a)) v_a = v_a^2 reproduces each coefficient exactly regardless of
square-root branch; each encoder builds PR alone.

The two-body subroutines follow one rule for every mixed kind: component l
of kind ab at separation k is the check pattern (pauli.CHECK_PAIRS) of a on
site l and b on site l + k over the x and z registers, and both the circuit
and the target state are read off those qubits (_twobody_qubits).
"""
from __future__ import annotations

import math

import numpy as np

from . import dicke
from .baseline import state_prep_gates
from .circuit import (
    BlockEncoding,
    Circuit,
    Gate,
    cnot,
    control,
    cphase,
    crz,
    cz,
    gamma,
    h,
    remap,
    s,
    sdg,
    toffoli,
)
from .dicke import AmplitudeList, balanced_thetas, unbalanced_angles
from .errors import DomainError
from .models import HeisenbergParams, SpinGlassParams
from .pauli import CHECK_PAIRS, PauliSum, check_decompose, one_norm

_ZERO_DIAG_TOL = 1e-14


def select_gates(x_base: int, z_base: int, sys_base: int, n: int) -> list[Gate]:
    layer1 = [cnot(x_base + l, sys_base + l) for l in range(n)]
    layer2 = [cz(z_base + l, sys_base + l) for l in range(n)]
    return layer1 + layer2


def _assemble(subpr: int, n: int, prep: list[Gate], normalization: float) -> BlockEncoding:
    """PR's gates and the check-matrix SELECT over [subpr | x_anc | z_anc |
    system], with no subpr register when subpr is 0; PL is conj(PR)."""
    layout = {"subpr": (0, subpr)} if subpr else {}
    xb, zb, sb = subpr, subpr + n, subpr + 2 * n
    layout |= {"x_anc": (xb, n), "z_anc": (zb, n), "system": (sb, n)}
    select = Circuit(sb + n, tuple(select_gates(xb, zb, sb, n)), layout)
    return BlockEncoding(select, normalization, prep=prep)


def _pr(be: BlockEncoding) -> Circuit:
    """PR alone, over the ancilla registers below the system register."""
    layout = dict(be.layout)
    sys_start, _ = layout.pop("system")
    return Circuit(sys_start, be.prep, layout)


def _literal_pr(subpr: int, n: int, selector: AmplitudeList, families) -> Circuit:
    """The literal controlled-Dicke PR: the selector W state on the subpr
    wires, then for each (wire, axis, k, amplitudes) the family's Dicke state
    (d1 or d2k on the x or z register; d1d or d2kd across both for y),
    controlled by its wire. The compact builders must prepare the same state."""
    frame = _pr(_assemble(subpr, n, [], 1.0))
    (xb, _), (zb, _) = frame.layout["x_anc"], frame.layout["z_anc"]
    x_map = {q: xb + q for q in range(n)}
    qmaps = {"x": x_map, "z": {q: zb + q for q in range(n)},
             "y": x_map | {n + q: zb + q for q in range(n)}}
    gates = dicke._body_gates(subpr, list(range(subpr)), selector)
    for wire, axis, k, amps in families:
        kind = ("d2k" if k else "d1") + ("d" if axis == "y" else "")
        circ = dicke.DICKE_KINDS[kind].build(n, k, amps)
        gates += control(remap(circ, qmaps[axis], frame.width), wire).gates
    return Circuit(frame.width, tuple(gates), frame.layout)


def select_oracle(n: int) -> Circuit:
    """Depth-2 SELECT: n CNOTs then n CZs over layout (x_anc, z_anc, system)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return _assemble(0, n, [], 1.0).select


# --- generic check-matrix path ---

GENERIC_MAX_QUBITS = 6


def generic_foqcs(h: PauliSum) -> BlockEncoding:
    """Block-encode any Pauli sum via brute-force 2n-qubit state preparation."""
    n = h.n
    if n > GENERIC_MAX_QUBITS:
        raise DomainError(f"generic path limited to {GENERIC_MAX_QUBITS} qubits")
    norm = one_norm(h)
    if norm == 0.0:
        raise DomainError("cannot encode the zero operator")
    amps = np.zeros(1 << (2 * n), dtype=complex)
    for ct in check_decompose(h):
        amps[ct.i | (ct.j << n)] = np.sqrt(ct.alpha_prime / norm)
    return _assemble(0, n, state_prep_gates(amps, list(range(2 * n))), norm)


# --- Heisenberg model ---

# subpr wire order, top-to-bottom in the reference layout: gx, gz, gy, jx, jz, jy.
_H_WIRES = {"gx": 5, "gz": 4, "gy": 3, "jx": 2, "jz": 1, "jy": 0}


def _heisenberg_subpr_amps(p: HeisenbergParams) -> AmplitudeList:
    norm = p.normalization()
    amp = np.zeros(6, dtype=complex)
    amp[_H_WIRES["gx"]] = np.sqrt(p.n * p.gx / norm + 0j)
    amp[_H_WIRES["gz"]] = np.sqrt(p.n * p.gz / norm + 0j)
    amp[_H_WIRES["gy"]] = np.sqrt(-1j * p.n * p.gy / norm)
    amp[_H_WIRES["jx"]] = np.sqrt((p.n - 1) * p.jx / norm + 0j)
    amp[_H_WIRES["jz"]] = np.sqrt((p.n - 1) * p.jz / norm + 0j)
    amp[_H_WIRES["jy"]] = np.sqrt(-(p.n - 1) * p.jy / norm + 0j)
    return AmplitudeList(amp)


def _heisenberg_pr_gates(p: HeisenbergParams, x_base: int, z_base: int) -> list[Gate]:
    """Compact PR network: shared staircases, two controlled ladders, one copy."""
    n = p.n
    amps = _heisenberg_subpr_amps(p)
    w = _H_WIRES
    gates = dicke._body_gates(6, list(range(6)), amps)

    # Activations entering at qubit 0 of each register (one-body families).
    gates += [cnot(w["gx"], x_base), cnot(w["gz"], z_base), cnot(w["gy"], x_base)]
    # Pulled-out first cascade step of the full staircase.
    th_last = 2.0 * math.acos(math.sqrt(1.0 / n))
    gates += [gamma(th_last, x_base + 1, x_base), gamma(th_last, z_base + 1, z_base)]
    # Coupling families enter one level up, after that step.
    gates += [cnot(w["jx"], x_base + 1), cnot(w["jz"], z_base + 1), cnot(w["jy"], x_base + 1)]
    if n >= 3:
        sub = balanced_thetas(n - 1)
        gates += dicke.staircase_gates(sub, [x_base + q for q in range(1, n)])
        gates += dicke.staircase_gates(sub, [z_base + q for q in range(1, n)])

    # One CNOT ladder per register; the x ladder serves both jx and jy branches.
    gates += [cnot(w["jx"], w["jy"])]
    gates += [toffoli(w["jy"], x_base + m + 1, x_base + m) for m in range(n - 1)]
    gates += [cnot(w["jx"], w["jy"])]
    gates += [toffoli(w["jz"], z_base + m + 1, z_base + m) for m in range(n - 1)]
    # A single controlled element-wise copy serves the gy and jy branches.
    gates += [cnot(w["gy"], w["jy"])]
    gates += [toffoli(w["jy"], x_base + l, z_base + l) for l in range(n)]
    gates += [cnot(w["gy"], w["jy"])]
    return gates


def _heisenberg_literal(p: HeisenbergParams) -> Circuit:
    """Literal PR: families gx, gz, gy (k = 0) and jx, jz, jy (k = 1)."""
    families = [(_H_WIRES[f"{c}{axis}"], axis, k, None)
                for c, k in (("g", 0), ("j", 1)) for axis in "xzy"]
    return _literal_pr(6, p.n, _heisenberg_subpr_amps(p), families)


def heisenberg_pr(p: HeisenbergParams) -> Circuit:
    """PR oracle over 2n+6 ancillae; it prepares the state of
    _heisenberg_literal on |0>."""
    return _pr(heisenberg_encoding(p))


def heisenberg_encoding(p: HeisenbergParams) -> BlockEncoding:
    """PR and SELECT over 6+3n qubits; block = H/N."""
    n = p.n
    return _assemble(6, n, _heisenberg_pr_gates(p, 6, 6 + n), p.normalization())


# --- spin glass model ---


def _sg_wire(n: int, axis: int, k: int) -> int:
    # axis 0 = x, 1 = y, 2 = z; diagonal k occupies wires 3(n-k)-1 .. 3(n-k)-3.
    off = {0: 1, 2: 2, 1: 3}[axis]
    return 3 * (n - k) - off


def _sg_tables(p: SpinGlassParams):
    """The selector amplitudes and, per nonzero (axis, k), the unit-norm body:
    the square-rooted diagonal (g[a] at k = 0, J[a]'s k-th diagonal above)
    over the square root of its absolute coupling mass, as Python complexes.

    Each axis's fields and couplings are square-rooted, and their masses
    taken, once; a diagonal is a view of those, and its mass is summed on its
    own, since numpy's pairwise order over that diagonal fixes the bits."""
    n = p.n
    norm = p.normalization()
    sub = np.zeros(3 * n, dtype=complex)
    bodies: dict[tuple[int, int], list[complex]] = {}
    for a in range(3):
        fields, couplings = np.sqrt(p.g[a].astype(complex)), np.sqrt(p.J[a].astype(complex))
        masses = np.abs(couplings) ** 2
        for k in range(n):
            if k:
                diag, mass = couplings.diagonal(k), masses.diagonal(k)
            else:
                diag, mass = fields, np.abs(fields) ** 2
            nk = float(mass.sum())  # one pairwise sum per diagonal
            if nk < _ZERO_DIAG_TOL:
                continue
            if a == 1:
                factor = np.sqrt(-1j * nk / norm) if k == 0 else np.sqrt(-nk / norm + 0j)
            else:
                factor = math.sqrt(nk / norm)
            sub[_sg_wire(n, a, k)] = factor
            bodies[(a, k)] = (diag / math.sqrt(nk)).tolist()
    return sub, bodies


def _sg_register_staircase(gates: list[Gate], base: int, n: int,
                           families: dict[int, list[tuple[int, "dicke.DickeAngles"]]]) -> None:
    """Shared-shell staircase over one ancilla register.

    families maps diagonal k -> [(control wire, angles of the (n-k)-qubit
    body)]. The activation CNOT for diagonal k sits between shell levels k and
    k+1: below its own level a branch must see every pair in |00>, where the
    uncontrolled shell acts as the identity. Level m serves the families of
    every k < m, in order of k; that list grows by one diagonal per level.
    """
    for wire, _ in families.get(0, []):
        gates.append(cnot(wire, base))
    below: list[tuple[int, "dicke.DickeAngles"]] = []  # the families of every k < m
    for m in range(1, n):
        below += families.get(m - 1, [])
        active = [(wire, ang.thetas[n - m - 1]) for wire, ang in below]
        if active:
            a_q, b_q = base + m, base + m - 1
            gates += [s(a_q), h(a_q)]
            gates += [crz(math.pi / 2 - th / 2, wire, a_q) for wire, th in active]
            gates.append(cnot(a_q, b_q))
            gates += [crz(th / 2 - math.pi / 2, wire, b_q) for wire, th in active]
            gates += [h(a_q), h(b_q), sdg(b_q), cnot(a_q, b_q), s(a_q), h(a_q)]
        for wire, _ in families.get(m, []):
            gates.append(cnot(wire, base + m))


def _spin_glass_pr_gates(p: SpinGlassParams, x_base: int, z_base: int) -> list[Gate]:
    n = p.n
    sub, bodies = _sg_tables(p)
    gates = dicke._body_gates(3 * n, list(range(3 * n)), AmplitudeList(sub))

    angles = {key: unbalanced_angles(AmplitudeList(v)) for key, v in bodies.items()}
    x_fams: dict[int, list] = {}
    z_fams: dict[int, list] = {}
    for (a, k), ang in angles.items():
        fam = (_sg_wire(n, a, k), ang)
        (z_fams if a == 2 else x_fams).setdefault(k, []).append(fam)
    _sg_register_staircase(gates, x_base, n, x_fams)
    _sg_register_staircase(gates, z_base, n, z_fams)

    # Controlled phase corrections, before any ladder adds second excitations.
    for (a, k), ang in sorted(angles.items()):
        base = z_base if a == 2 else x_base
        wire = _sg_wire(n, a, k)
        for l, eta in enumerate(ang.etas):
            if abs(eta) > dicke.PHASE_TOL:
                gates.append(cphase(eta, wire, base + k + l))

    # Two controlled ladders per separation k (x side shared by x and y).
    for k in range(1, n):
        wx = _sg_wire(n, 0, k) if (0, k) in bodies else None
        wy = _sg_wire(n, 1, k) if (1, k) in bodies else None
        wz = _sg_wire(n, 2, k) if (2, k) in bodies else None
        if wx is not None and wy is not None:
            gates.append(cnot(wx, wy))
            gates += [toffoli(wy, x_base + m + k, x_base + m) for m in range(n - k)]
            gates.append(cnot(wx, wy))
        elif wx is not None or wy is not None:
            wire = wx if wx is not None else wy
            gates += [toffoli(wire, x_base + m + k, x_base + m) for m in range(n - k)]
        if wz is not None:
            gates += [toffoli(wz, z_base + m + k, z_base + m) for m in range(n - k)]

    # One controlled element-wise copy serving every y diagonal.
    ys = [_sg_wire(n, 1, k) for k in range(n) if (1, k) in bodies]
    if ys:
        funnel = [cnot(ys[i], ys[i + 1]) for i in range(len(ys) - 1)]
        gates += funnel
        gates += [toffoli(ys[-1], x_base + l, z_base + l) for l in range(n)]
        gates += reversed(funnel)
    return gates


def _spin_glass_literal(p: SpinGlassParams) -> Circuit:
    """Literal PR: one family per nonzero diagonal, k first, then x, z, y."""
    n = p.n
    sub, bodies = _sg_tables(p)
    families = [(_sg_wire(n, a, k), "xyz"[a], k, AmplitudeList(bodies[(a, k)]))
                for k in range(n) for a in (0, 2, 1) if (a, k) in bodies]
    return _literal_pr(3 * n, n, AmplitudeList(sub), families)


def spin_glass_pr(p: SpinGlassParams) -> Circuit:
    """PR oracle over 5n qubits (3n selector ancillae + the 2n check registers)."""
    return _pr(spin_glass_encoding(p))


def spin_glass_encoding(p: SpinGlassParams) -> BlockEncoding:
    n = p.n
    return _assemble(3 * n, n, _spin_glass_pr_gates(p, 3 * n, 4 * n), p.normalization())


# --- general two-body subroutines ---

TWOBODY_KINDS = ("xy", "yx", "xz", "zx", "yz", "zy")


def _twobody_qubits(kind: str, n: int, k: int) -> list[list[int]]:
    """Per component l, in ascending order, the qubits that the check pattern
    of kind[0] on site l and kind[1] on site l + k sets: each factor's
    CHECK_PAIRS x bit on x = [0, n) and its z bit on z = [n, 2n)."""
    kind = kind.lower()
    if kind not in TWOBODY_KINDS:
        raise DomainError(f"unknown two-body kind {kind!r}")
    if not 1 <= k <= n - 1:
        raise DomainError(f"k must be in [1, {n - 1}], got {k}")
    pairs = [CHECK_PAIRS[p] for p in kind.upper()]
    return [sorted(q for (xb, zb), site in zip(pairs, (l, l + k))
                   for q, bit in ((site, xb), (n + site, zb)) if bit)
            for l in range(n - k)]


def twobody_subroutine(kind: str, n: int, k: int,
                       a: AmplitudeList | None = None) -> Circuit:
    """Prepare the check-register state of a k-separated two-body Pauli family.

    Width 2n with x = qubits [0, n) and z = [n, 2n); component l carries
    amplitude a.alphas[l] (uniform when a is None) on the qubits of
    _twobody_qubits. The W state goes on each component's lowest qubit, which
    is on x since every mixed kind has an x bit; CNOTs copy it onto the
    component's qubits on z, then onto those on x from the top component
    down, so no copy reads a qubit another copy has written.
    """
    comps = _twobody_qubits(kind, n, k)
    gates = dicke._body_gates(len(comps), [qs[0] for qs in comps], a)
    gates += [cnot(qs[0], q) for qs in comps for q in qs[1:] if q >= n]
    gates += [cnot(qs[0], q) for qs in reversed(comps) for q in qs[1:] if q < n]
    return _pr(_assemble(0, n, gates, 1.0))


def twobody_state_map(kind: str, n: int, k: int,
                      a: AmplitudeList | None = None) -> dict[int, complex]:
    """Closed-form target state of twobody_subroutine: component l is the
    basis index with the bits of _twobody_qubits(kind, n, k)[l] set."""
    comps = _twobody_qubits(kind, n, k)
    amps = dicke._component_amps(len(comps), a)
    return {sum(1 << q for q in qs): complex(amp) for qs, amp in zip(comps, amps)}
