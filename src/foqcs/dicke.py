"""Single- and double-excitation Dicke state preparation circuits.

Builders return minimal-width circuits; encoders embed them (or reuse the
gate-list helpers) at register offsets. Amplitude-weighted variants take an
AmplitudeList whose entry alphas[l] weights the component with the excitation
at site l (for constrained pairs, the component |2^l + 2^(l+k)>).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .circuit import Circuit, Gate, cnot, gamma, phase, x
from .errors import DomainError

PHASE_TOL = 1e-14
_DEGENERATE_TOL = 1e-14


@dataclass(frozen=True)
class AmplitudeList:
    """Complex amplitudes, 2-norm normalized on construction."""

    alphas: tuple[complex, ...]

    def __init__(self, alphas):
        vec = tuple(complex(a) for a in alphas)
        if len(vec) < 1:
            raise DomainError("need at least one amplitude")
        try:
            norm = math.sqrt(sum(abs(a) ** 2 for a in vec))
        except OverflowError as e:  # a finite amplitude whose square overflows
            raise DomainError("the amplitudes' norm overflows a float") from e
        if not math.isfinite(norm):
            raise DomainError("amplitudes must be finite")
        if norm < 1e-300:
            raise DomainError("amplitude vector has zero norm")
        object.__setattr__(self, "alphas", tuple(a / norm for a in vec))

    def __len__(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class DickeAngles:
    """Rotation angles thetas[l-1] = theta_l (l = 1..n-1) and per-site phases."""

    thetas: tuple[float, ...]
    etas: tuple[float, ...]


def balanced_thetas(n: int) -> tuple[float, ...]:
    """theta_l = 2 arccos sqrt(1/(l+1)), the uniform-amplitude cascade angles."""
    return tuple(2.0 * math.acos(math.sqrt(1.0 / (l + 1))) for l in range(1, n))


def unbalanced_angles(a: AmplitudeList) -> DickeAngles:
    """Cascade angles reproducing arbitrary weights |alphas| plus their phases.

    theta_l = 2 arccos(|a_{n-l-1}| / sqrt(1 - sum_{j<n-l-1} |a_j|^2)). It is 0
    from the last nonzero amplitude on (there the ratio is 1 or an ulp below)
    and once the remaining weight is placed (< 1e-14); arccos args are clamped.
    """
    mags = [abs(v) for v in a.alphas]
    last = max(j for j, m in enumerate(mags) if m)  # AmplitudeList has a nonzero
    thetas = []  # theta_{n-1} first: site j = n-l-1 runs upward from 0
    placed = 0.0  # sum_{i<j} |a_i|^2, added in index order
    for j, m in enumerate(mags[:-1]):
        rem = 1.0 - placed
        if j >= last or rem < _DEGENERATE_TOL:
            thetas.append(0.0)
        else:
            thetas.append(2.0 * math.acos(min(1.0, max(0.0, m / math.sqrt(rem)))))
        placed += m * m
    thetas.reverse()
    etas = tuple(cmath.phase(v) if abs(v) > 0 else 0.0 for v in a.alphas)
    return DickeAngles(tuple(thetas), etas)


def staircase_gates(thetas, qubits) -> list[Gate]:
    """Cascade gamma(theta_l) down a qubit list (qubits[0] = lowest site).

    gamma(theta_{n-1}) fires first on (qubits[1], qubits[0]) and the cascade
    walks upward, so the circuit fixes |0...0> and lifts a single excitation
    entering at qubits[0] into the weighted superposition.
    """
    n = len(qubits)
    if len(thetas) != n - 1:
        raise DomainError(f"need {n - 1} angles for {n} qubits, got {len(thetas)}")
    out = []
    for l in range(n - 1, 0, -1):
        out.append(gamma(thetas[l - 1], qubits[n - l], qubits[n - l - 1]))
    return out


def staircase(n: int, thetas) -> Circuit:
    """Width-n staircase circuit; acts trivially on |0^n>."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return Circuit(max(n, 1), tuple(staircase_gates(tuple(thetas), list(range(n)))))


def phase_gates(etas, qubits) -> list[Gate]:
    """P(eta_l) on qubits[l]; gates with |eta| <= 1e-14 are not emitted."""
    return [phase(e, qubits[l]) for l, e in enumerate(etas) if abs(e) > PHASE_TOL]


def cnot_chain(n: int, offset: int, count: int) -> Circuit:
    """Ladder of CNOTs with target = control + offset.

    offset < 0 walks controls upward from -offset (the CL_k ladder: each
    component |2^(l+k)> gains 2^l); offset > 0 walks controls downward from
    count-1 so freshly written targets are never re-used as controls.
    """
    if offset == 0:
        raise DomainError("offset must be nonzero")
    if count < 1:
        raise DomainError("count must be >= 1")
    gates = []
    if offset < 0:
        controls = range(-offset, -offset + count)
    else:
        controls = range(count - 1, -1, -1)
    for c in controls:
        t = c + offset
        if not (0 <= c < n and 0 <= t < n):
            raise DomainError(f"chain pair ({c}, {t}) out of range for width {n}")
        gates.append(cnot(c, t))
    return Circuit(n, tuple(gates))


def elementwise_copy(n: int, width: int | None = None, src: int = 0,
                     dst: int | None = None) -> Circuit:
    """n parallel CNOTs copying register src -> dst element-wise."""
    if dst is None:
        dst = src + n
    if width is None:
        width = max(src, dst) + n
    if src < dst < src + n or dst < src < dst + n:
        raise DomainError("source and destination registers overlap")
    return Circuit(width, tuple(cnot(src + l, dst + l) for l in range(n)))


def _body_gates(n: int, qubits, a: AmplitudeList | None) -> list[Gate]:
    """X activation + staircase (+ phase corrections) on an n-qubit span."""
    out = [x(qubits[0])]
    if a is None:
        thetas, etas = balanced_thetas(n), ()
    else:
        if len(a) != n:
            raise DomainError(f"need {n} amplitudes, got {len(a)}")
        ang = unbalanced_angles(a)
        thetas, etas = ang.thetas, ang.etas
    if n > 1:
        out += staircase_gates(thetas, qubits)
    out += phase_gates(etas, qubits)
    return out


def prepare_dicke1(n: int) -> Circuit:
    """|0^n> -> (1/sqrt(n)) sum_l |2^l>."""
    if n < 2:
        raise DomainError("n must be >= 2")
    return Circuit(n, tuple(_body_gates(n, list(range(n)), None)))


def prepare_dicke1_unbalanced(n: int, a: AmplitudeList) -> Circuit:
    """|0^n> -> sum_l alphas[l] |2^l>."""
    if n < 2:
        raise DomainError("n must be >= 2")
    return Circuit(n, tuple(_body_gates(n, list(range(n)), a)))


def dicke2k_gates(n: int, k: int, a: AmplitudeList | None) -> list[Gate]:
    if not 1 <= k <= n - 1:
        raise DomainError(f"k must be in [1, {n - 1}], got {k}")
    span = list(range(k, n))
    out = _body_gates(n - k, span, a)
    out += [cnot(c, c - k) for c in range(k, n)]
    return out


def prepare_dicke2k(n: int, k: int, a: AmplitudeList | None = None) -> Circuit:
    """|0^n> -> sum_l alphas[l] |2^l + 2^(l+k)> (balanced when a is None)."""
    return Circuit(n, tuple(dicke2k_gates(n, k, a)))


def prepare_double(n: int, kind: str = "single", k: int | None = None,
                   a: AmplitudeList | None = None) -> Circuit:
    """Duplicate a Dicke state across two n-qubit registers.

    kind="single": sum alphas[l] |2^l>|2^l>;
    kind="pair":   sum alphas[l] |2^l + 2^(l+k)>|same>, 1 <= k <= n-1.
    """
    if kind == "single":
        if n < 2:
            raise DomainError("n must be >= 2")
        gates = _body_gates(n, list(range(n)), a)
    elif kind == "pair":
        if k is None:
            raise DomainError("pair kind needs k")
        gates = dicke2k_gates(n, k, a)
    else:
        raise DomainError(f"unknown double kind {kind!r}")
    gates += [cnot(l, n + l) for l in range(n)]
    return Circuit(2 * n, tuple(gates))


# --- the kind registry: builder, closed-form state and CNOT count ---

@dataclass(frozen=True)
class DickeKind:
    """One Dicke preparation kind.

    build(n, k, a) returns the circuit (a is None for the balanced state);
    index(n, k, l) is the basis index of the component weighted by alphas[l];
    cnot(n, k) is the closed-form CNOT-equivalent count of the built circuit.
    """

    build: Callable[[int, int | None, AmplitudeList | None], Circuit]
    index: Callable[[int, int | None, int], int]
    cnot: Callable[[int, int | None], int]
    needs_k: bool


def _pair(k: int, l: int) -> int:
    return (1 << l) | (1 << (l + k))


# Entries call the builders by module-level name, so a wrapper placed on a
# foqcs.dicke builder sees every call made through the registry.
DICKE_KINDS = {
    "d1": DickeKind(
        lambda n, k, a: prepare_dicke1(n) if a is None else prepare_dicke1_unbalanced(n, a),
        lambda n, k, l: 1 << l, lambda n, k: 2 * n - 2, False),
    "d2k": DickeKind(lambda n, k, a: prepare_dicke2k(n, k, a),
                     lambda n, k, l: _pair(k, l), lambda n, k: 3 * n - 3 * k - 2, True),
    "d1d": DickeKind(lambda n, k, a: prepare_double(n, "single", a=a),
                     lambda n, k, l: (1 << l) | (1 << (n + l)), lambda n, k: 3 * n - 2, False),
    "d2kd": DickeKind(lambda n, k, a: prepare_double(n, "pair", k, a),
                      lambda n, k, l: _pair(k, l) | _pair(k, l) << n,
                      lambda n, k: 4 * n - 3 * k - 2, True),
}


def dicke_kind(kind: str, k: int | None) -> DickeKind:
    """The registry entry for kind, checked to have a k exactly if it needs one."""
    spec = DICKE_KINDS.get(kind)
    if spec is None:
        raise DomainError(f"unknown dicke kind {kind!r}")
    if spec.needs_k and k is None:
        raise DomainError(f"{kind} needs k")
    if not spec.needs_k and k is not None:
        raise DomainError(f"{kind} takes no k")
    return spec


def dicke_state_map(kind: str, n: int, k: int | None = None,
                    a: AmplitudeList | None = None) -> dict[int, complex]:
    """Sparse amplitude map of the target state for each builder kind."""
    spec = dicke_kind(kind, k)
    m = n - k if spec.needs_k else n
    if a is None:
        amps = [1.0 / math.sqrt(m)] * m
    else:
        if len(a) != m:
            raise DomainError(f"need {m} amplitudes, got {len(a)}")
        amps = list(a.alphas)
    return {spec.index(n, k, l): complex(amp) for l, amp in enumerate(amps)}
