"""Complete block-encoding assemblies: SELECT, PR oracles, spin models.

Register layout is [subpr | x_anc | z_anc | system] in ascending qubit order.
The SELECT oracle is one layer of CNOTs (x ancilla l -> system l) followed by
one layer of CZs (z ancilla l -> system l). PR prepares square-rooted
coefficients v_a on the ancillae. PL is conj(PR), which prepares their complex
conjugates, so conj(conj(v_a)) v_a = v_a^2 reproduces each coefficient exactly
regardless of square-root branch; each encoder builds PR alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
from .pauli import PauliSum, check_decompose, one_norm

_ZERO_DIAG_TOL = 1e-14
_PHASE_TOL = 1e-14


def select_gates(x_base: int, z_base: int, sys_base: int, n: int) -> list[Gate]:
    layer1 = [cnot(x_base + l, sys_base + l) for l in range(n)]
    layer2 = [cz(z_base + l, sys_base + l) for l in range(n)]
    return layer1 + layer2


def _assemble(layout, prep: list[Gate], normalization: float) -> BlockEncoding:
    """PR's gates and the check-matrix SELECT over layout; PL is conj(PR)."""
    (xb, n), (zb, _), (sb, _) = layout["x_anc"], layout["z_anc"], layout["system"]
    select = Circuit(sb + n, tuple(select_gates(xb, zb, sb, n)), layout)
    return BlockEncoding(select, normalization, prep=prep)


def select_oracle(n: int) -> Circuit:
    """Depth-2 SELECT: n CNOTs then n CZs over layout (x_anc, z_anc, system)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    layout = {"x_anc": (0, n), "z_anc": (n, n), "system": (2 * n, n)}
    return Circuit(3 * n, tuple(select_gates(0, n, 2 * n, n)), layout)


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
    layout = {"x_anc": (0, n), "z_anc": (n, n), "system": (2 * n, n)}
    return _assemble(layout, state_prep_gates(amps, list(range(2 * n))), norm)


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


def _heisenberg_pr_gates_uncompressed(p: HeisenbergParams, x_base: int,
                                      z_base: int) -> list[Gate]:
    """Literal controlled-Dicke network; retained to power equivalence tests."""
    n = p.n
    amps = _heisenberg_subpr_amps(p)
    w = _H_WIRES
    width = max(x_base, z_base) + n
    gates = dicke._body_gates(6, list(range(6)), amps)
    x_map = {q: x_base + q for q in range(n)}
    z_map = {q: z_base + q for q in range(n)}
    xz_map = x_map | {n + q: z_base + q for q in range(n)}
    blocks = [
        (w["gx"], dicke.prepare_dicke1(n), x_map),
        (w["gz"], dicke.prepare_dicke1(n), z_map),
        (w["gy"], dicke.prepare_double(n, "single"), xz_map),
        (w["jx"], dicke.prepare_dicke2k(n, 1), x_map),
        (w["jz"], dicke.prepare_dicke2k(n, 1), z_map),
        (w["jy"], dicke.prepare_double(n, "pair", 1), xz_map),
    ]
    for wire, circ, qmap in blocks:
        gates += control(remap(circ, qmap, width), wire).gates
    return gates


def heisenberg_pr(p: HeisenbergParams, compact: bool = True) -> Circuit:
    """PR oracle over 2n+6 ancillae; compact and literal variants prepare
    identical states on |0>."""
    n = p.n
    layout = {"subpr": (0, 6), "x_anc": (6, n), "z_anc": (6 + n, n)}
    build = _heisenberg_pr_gates if compact else _heisenberg_pr_gates_uncompressed
    return Circuit(6 + 2 * n, tuple(build(p, 6, 6 + n)), layout)


def heisenberg_encoding(p: HeisenbergParams) -> BlockEncoding:
    """PR and SELECT over 6+3n qubits; block = H/N."""
    n = p.n
    xb, zb = 6, 6 + n
    layout = {"subpr": (0, 6), "x_anc": (xb, n), "z_anc": (zb, n), "system": (6 + 2 * n, n)}
    return _assemble(layout, _heisenberg_pr_gates(p, xb, zb), p.normalization())


# --- spin glass model ---


@dataclass(frozen=True)
class CoefficientMatrix:
    """Square-rooted couplings per axis, with per-diagonal norms.

    entries[a] is upper triangular (diagonal = sqrt(g), k-th diagonal =
    sqrt(J)); diag_norms[a, k] is the absolute coupling mass on diagonal k, so
    each extracted diagonal divided by sqrt(diag_norms) has unit 2-norm.
    """

    entries: np.ndarray
    diag_norms: np.ndarray

    @classmethod
    def from_params(cls, p: SpinGlassParams) -> "CoefficientMatrix":
        n = p.n
        entries = np.zeros((3, n, n), dtype=complex)
        norms = np.zeros((3, n))
        for a in range(3):
            for l in range(n):
                entries[a, l, l] = np.sqrt(complex(p.g[a, l]))
                for m in range(l + 1, n):
                    entries[a, l, m] = np.sqrt(complex(p.J[a, l, m]))
            for k in range(n):
                diag = np.diagonal(entries[a], offset=k)
                norms[a, k] = float(np.sum(np.abs(diag) ** 2))
        return cls(entries, norms)

    def normalized_diagonal(self, axis: int, k: int) -> np.ndarray:
        diag = np.diagonal(self.entries[axis], offset=k).copy()
        nk = self.diag_norms[axis, k]
        if nk < _ZERO_DIAG_TOL:
            return np.zeros_like(diag)
        return diag / math.sqrt(nk)


def _sg_wire(n: int, axis: int, k: int) -> int:
    # axis 0 = x, 1 = y, 2 = z; diagonal k occupies wires 3(n-k)-1 .. 3(n-k)-3.
    off = {0: 1, 2: 2, 1: 3}[axis]
    return 3 * (n - k) - off


def _sg_tables(p: SpinGlassParams):
    n = p.n
    cm = CoefficientMatrix.from_params(p)
    norm = p.normalization()
    sub = np.zeros(3 * n, dtype=complex)
    bodies: dict[tuple[int, int], np.ndarray] = {}
    for a in range(3):
        for k in range(n):
            nk = cm.diag_norms[a, k]
            if nk < _ZERO_DIAG_TOL:
                continue
            if a == 1:
                factor = np.sqrt(-1j * nk / norm) if k == 0 else np.sqrt(-nk / norm + 0j)
            else:
                factor = math.sqrt(nk / norm)
            sub[_sg_wire(n, a, k)] = factor
            bodies[(a, k)] = cm.normalized_diagonal(a, k)
    return sub, bodies


def _sg_register_staircase(gates: list[Gate], base: int, n: int,
                           families: dict[int, list[tuple[int, "dicke.DickeAngles"]]]) -> None:
    """Shared-shell staircase over one ancilla register.

    families maps diagonal k -> [(control wire, angles of the (n-k)-qubit
    body)]. The activation CNOT for diagonal k sits between shell levels k and
    k+1: below its own level a branch must see every pair in |00>, where the
    uncontrolled shell acts as the identity.
    """
    for wire, _ in families.get(0, []):
        gates.append(cnot(wire, base))
    for m in range(1, n):
        active = [
            (wire, ang.thetas[n - m - 1])
            for k in range(m)
            for wire, ang in families.get(k, [])
        ]
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
            if abs(eta) > _PHASE_TOL:
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


def _spin_glass_pr_gates_uncompressed(p: SpinGlassParams, x_base: int,
                                      z_base: int) -> list[Gate]:
    n = p.n
    sub, bodies = _sg_tables(p)
    gates = dicke._body_gates(3 * n, list(range(3 * n)), AmplitudeList(sub))
    width = max(x_base, z_base) + n
    x_map = {q: x_base + q for q in range(n)}
    z_map = {q: z_base + q for q in range(n)}
    xz_map = x_map | {n + q: z_base + q for q in range(n)}
    for k in range(n):
        for a, qmap in ((0, x_map), (2, z_map), (1, xz_map)):
            if (a, k) not in bodies:
                continue
            amp = AmplitudeList(bodies[(a, k)])
            if a == 1:
                circ = (dicke.prepare_double(n, "single", a=amp) if k == 0
                        else dicke.prepare_double(n, "pair", k, amp))
            else:
                circ = (dicke.prepare_dicke1_unbalanced(n, amp) if k == 0
                        else dicke.prepare_dicke2k(n, k, amp))
            gates += control(remap(circ, qmap, width), _sg_wire(n, a, k)).gates
    return gates


def spin_glass_pr(p: SpinGlassParams, compressed: bool = True) -> Circuit:
    """PR oracle over 5n qubits (3n selector ancillae + the 2n check registers)."""
    n = p.n
    layout = {"subpr": (0, 3 * n), "x_anc": (3 * n, n), "z_anc": (4 * n, n)}
    build = _spin_glass_pr_gates if compressed else _spin_glass_pr_gates_uncompressed
    return Circuit(5 * n, tuple(build(p, 3 * n, 4 * n)), layout)


def spin_glass_encoding(p: SpinGlassParams) -> BlockEncoding:
    n = p.n
    xb, zb = 3 * n, 4 * n
    layout = {"subpr": (0, 3 * n), "x_anc": (xb, n), "z_anc": (zb, n), "system": (5 * n, n)}
    return _assemble(layout, _spin_glass_pr_gates(p, xb, zb), p.normalization())


# --- general two-body subroutines ---

TWOBODY_KINDS = ("xy", "yx", "xz", "zx", "yz", "zy")


def twobody_subroutine(kind: str, n: int, k: int,
                       a: AmplitudeList | None = None) -> Circuit:
    """Prepare the check-register state of a k-separated two-body Pauli family.

    Width 2n with x = qubits [0, n) and z = [n, 2n); component l carries
    amplitude a.alphas[l] (uniform when a is None).
    """
    kind = kind.lower()
    if kind not in TWOBODY_KINDS:
        raise DomainError(f"unknown two-body kind {kind!r}")
    if not 1 <= k <= n - 1:
        raise DomainError(f"k must be in [1, {n - 1}], got {k}")
    m = n - k
    if a is not None and len(a) != m:
        raise DomainError(f"need {m} amplitudes, got {len(a)}")
    xq = list(range(n))
    zq = list(range(n, 2 * n))
    gates: list[Gate]
    if kind == "xy":
        gates = dicke._body_gates(m, xq[k:], a)
        gates += [cnot(xq[k + i], zq[k + i]) for i in range(m)]
        gates += [cnot(xq[i + k], xq[i]) for i in range(m)]
    elif kind == "yx":
        gates = dicke._body_gates(m, xq[:m], a)
        gates += [cnot(xq[i], zq[i]) for i in range(m)]
        gates += [cnot(xq[i], xq[i + k]) for i in reversed(range(m))]
    elif kind == "xz":
        gates = dicke._body_gates(m, xq[:m], a)
        gates += [cnot(xq[i], zq[i + k]) for i in range(m)]
    elif kind == "zx":
        gates = dicke._body_gates(m, zq[:m], a)
        gates += [cnot(zq[i], xq[i + k]) for i in range(m)]
    elif kind == "zy":
        gates = dicke._body_gates(m, zq[k:], a)
        gates += [cnot(zq[k + i], xq[k + i]) for i in range(m)]
        gates += [cnot(zq[i + k], zq[i]) for i in range(m)]
    else:  # yz
        gates = dicke._body_gates(m, zq[:m], a)
        gates += [cnot(zq[i], xq[i]) for i in range(m)]
        gates += [cnot(zq[i], zq[i + k]) for i in reversed(range(m))]
    layout = {"x_anc": (0, n), "z_anc": (n, n)}
    return Circuit(2 * n, tuple(gates), layout)


def twobody_state_map(kind: str, n: int, k: int,
                      a: AmplitudeList | None = None) -> dict[int, complex]:
    """Closed-form target state of twobody_subroutine."""
    kind = kind.lower()
    m = n - k
    amps = [1.0 / math.sqrt(m)] * m if a is None else list(a.alphas)
    pair = lambda l: (1 << l) | (1 << (l + k))
    one_lo = lambda l: 1 << l
    one_hi = lambda l: 1 << (l + k)
    patterns = {
        "xy": lambda l: pair(l) | (one_hi(l) << n),
        "yx": lambda l: pair(l) | (one_lo(l) << n),
        "xz": lambda l: one_lo(l) | (one_hi(l) << n),
        "zx": lambda l: one_hi(l) | (one_lo(l) << n),
        "yz": lambda l: one_lo(l) | (pair(l) << n),
        "zy": lambda l: one_hi(l) | (pair(l) << n),
    }
    if kind not in patterns:
        raise DomainError(f"unknown two-body kind {kind!r}")
    return {patterns[kind](l): complex(amps[l]) for l in range(m)}
