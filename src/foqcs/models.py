"""Spin-model parameter types and their Pauli-sum Hamiltonians."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_entries, json_int, json_real
from .pauli import PauliSum, PauliTerm

AXES = ("x", "y", "z")
AXIS_PAULI = {"x": "X", "y": "Y", "z": "Z"}
HEISENBERG_FIELDS = ("gx", "gy", "gz", "jx", "jy", "jz")


def _string(n: int, placements: dict[int, str]) -> str:
    ops = ["I"] * n
    for site, p in placements.items():
        ops[site] = p
    return "".join(ops)


@dataclass(frozen=True)
class HeisenbergParams:
    """Uniform chain couplings: field strengths g and nearest-neighbor J."""

    n: int
    gx: float = 0.0
    gy: float = 0.0
    gz: float = 0.0
    jx: float = 0.0
    jy: float = 0.0
    jz: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("n must be >= 2")
        vals = (self.gx, self.gy, self.gz, self.jx, self.jy, self.jz)
        try:
            finite = all(math.isfinite(v) for v in vals)
        except TypeError:
            finite = False
        if not finite:
            raise DomainError(f"couplings must be finite numbers, got {vals}")
        if all(v == 0.0 for v in vals):
            raise DomainError("at least one coupling must be nonzero")

    def field(self, axis: str) -> float:
        return {"x": self.gx, "y": self.gy, "z": self.gz}[axis]

    def coupling(self, axis: str) -> float:
        return {"x": self.jx, "y": self.jy, "z": self.jz}[axis]

    def normalization(self) -> float:
        return self.n * (abs(self.gx) + abs(self.gy) + abs(self.gz)) + (
            self.n - 1
        ) * (abs(self.jx) + abs(self.jy) + abs(self.jz))

    @classmethod
    def from_dict(cls, d: dict) -> "HeisenbergParams":
        """A coupling missing from d is 0; a key that names no field is an error."""
        n = json_int(d["n"], "n")
        unknown = sorted(set(d) - {"n", *HEISENBERG_FIELDS})
        if unknown:
            raise ValueError(f"unknown heisenberg spec keys {unknown}")
        return cls(n, *(json_real(d.get(f, 0.0), f, DomainError) for f in HEISENBERG_FIELDS))


def heisenberg_hamiltonian(p: HeisenbergParams) -> PauliSum:
    terms = []
    for axis in AXES:
        op = AXIS_PAULI[axis]
        g, j = p.field(axis), p.coupling(axis)
        for l in range(p.n):
            if g != 0.0:
                terms.append(PauliTerm(g, _string(p.n, {l: op})))
        for l in range(p.n - 1):
            if j != 0.0:
                terms.append(PauliTerm(j, _string(p.n, {l: op, l + 1: op})))
    return PauliSum(p.n, terms)


@dataclass(frozen=True)
class SpinGlassParams:
    """Site-dependent fields g[axis, l] and couplings J[axis, l, l+k].

    J must be strictly upper triangular in (l, m): J[a, l, m] = 0 for l >= m.
    """

    n: int
    g: np.ndarray  # shape (3, n)
    J: np.ndarray  # shape (3, n, n), strictly upper triangular

    def __init__(self, n: int, g, J):
        if n < 2:
            raise DomainError("n must be >= 2")
        g = np.asarray(g, dtype=float)
        J = np.asarray(J, dtype=float)
        if g.shape != (3, n):
            raise DomainError(f"g must have shape (3, {n}), got {g.shape}")
        if J.shape != (3, n, n):
            raise DomainError(f"J must have shape (3, {n}, {n}), got {J.shape}")
        if not (np.isfinite(g).all() and np.isfinite(J).all()):
            raise DomainError("g and J must be finite")
        if any(np.any(np.tril(J[a]) != 0.0) for a in range(3)):
            raise DomainError("J must be strictly upper triangular")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "J", J)

    def normalization(self) -> float:
        return float(np.sum(np.abs(self.g)) + np.sum(np.abs(self.J)))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "g": self.g.tolist(),
            "J": [
                [self.J[a, l, l + 1 :].tolist() for l in range(self.n - 1)]
                for a in range(3)
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpinGlassParams":
        """A key other than n, g and J, or a J without exactly three axes, is an
        error."""
        n = json_int(d["n"], "n")
        unknown = sorted(set(d) - {"n", "g", "J"})
        if unknown:
            raise ValueError(f"unknown spin-glass spec keys {unknown}")
        g = np.asarray(_reals(d["g"], "g entry"), dtype=float)
        J = _zero_couplings(n)
        if len(d["J"]) != 3:
            raise DomainError(f"J needs 3 axes, got {len(d['J'])}")
        for a, rows in enumerate(d["J"]):
            if len(rows) != n - 1:
                raise DomainError(f"J axis {AXES[a]} needs {n - 1} upper-tri rows")
            for l, row in enumerate(rows):
                if len(row) != n - 1 - l:
                    raise DomainError(f"J row {l} must have {n - 1 - l} entries")
                J[a, l, l + 1 :] = _reals(row, "J entry")
        return cls(n, g, J)


def spin_glass_hamiltonian(p: SpinGlassParams) -> PauliSum:
    terms = []
    for a, axis in enumerate(AXES):
        op = AXIS_PAULI[axis]
        for l in range(p.n):
            if p.g[a, l] != 0.0:
                terms.append(PauliTerm(p.g[a, l], _string(p.n, {l: op})))
        for l in range(p.n):
            for m in range(l + 1, p.n):
                if p.J[a, l, m] != 0.0:
                    terms.append(PauliTerm(p.J[a, l, m], _string(p.n, {l: op, m: op})))
    return PauliSum(p.n, terms)


def random_heisenberg(n: int, rng: np.random.Generator) -> HeisenbergParams:
    """Uniform draws on [-1, 1] excluding |v| < 1e-3 (keeps every term alive)."""
    vals = _draw(rng, 6)
    return HeisenbergParams(n, *vals)


def random_spin_glass(n: int, rng: np.random.Generator) -> SpinGlassParams:
    """g, then each axis's upper-triangle J row by row, from one stream."""
    g = _draw(rng, 3 * n).reshape(3, n)
    J = _zero_couplings(n)
    rows, cols = np.triu_indices(n, 1)
    J[:, rows, cols] = _draw(rng, 3 * rows.size).reshape(3, rows.size)
    return SpinGlassParams(n, g, J)


def _reals(v, what: str):
    """Nested JSON lists v, unchanged once each leaf passes json_real: their
    shape is left to numpy and the shape checks. The walk keeps its own stack,
    so a nesting deeper than Python's recursion limit reaches numpy's
    dimension check, an input error."""
    todo = [v]
    while todo:
        u = todo.pop()
        if isinstance(u, list):
            todo.extend(reversed(u))
        else:
            json_real(u, what)
    return v


def _zero_couplings(n: int) -> np.ndarray:
    """The zero (3, n, n) coupling array, refused over the entry budget."""
    check_entries(f"the 3 x {n} x {n} spin-glass couplings", 3 * n * n)
    return np.zeros((3, n, n))


def _draw(rng: np.random.Generator, count: int) -> np.ndarray:
    """The first `count` uniform [-1, 1) draws with |v| >= 1e-3. Each round
    draws only the shortfall, so the stream is read exactly as one draw at a
    time would read it."""
    out = np.empty(0)
    while out.size < count:
        v = rng.uniform(-1.0, 1.0, count - out.size)
        out = np.concatenate([out, v[np.abs(v) >= 1e-3]])
    return out
