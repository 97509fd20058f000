"""Pauli-string operator sums, their check-matrix form, and dense oracles.

Site convention is little-endian throughout: the Pauli factor at site l acts
on the qubit carrying binary weight 2**l, so ops[l] is the operator on qubit l.
Display labels and the JSON wire format put site 0 rightmost instead.
"""
from __future__ import annotations

import cmath
import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_entries, json_int, json_real

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Single-qubit check pairs (x_bit, z_bit): sigma = (-i)^(x*z) Z^z X^x.
CHECK_PAIRS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

COEFF_CUTOFF = 1e-15


def pauli_to_checkpair(p: str) -> tuple[int, int]:
    """Map a single-qubit Pauli label to its (x_bit, z_bit) check pair."""
    try:
        return CHECK_PAIRS[p]
    except KeyError:
        raise DomainError(f"not a Pauli label: {p!r}") from None


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string; ops[l] is the factor on site l."""

    coefficient: complex
    ops: str

    def __post_init__(self):
        if not cmath.isfinite(self.coefficient):
            raise DomainError(f"coefficient of {self.label()} must be finite")
        if len(self.ops) < 1:
            raise DomainError("empty Pauli string")
        bad = set(self.ops) - set("IXYZ")
        if bad:
            raise DomainError(f"invalid Pauli letters: {sorted(bad)}")

    @property
    def n(self) -> int:
        return len(self.ops)

    def label(self) -> str:
        """Human-readable string with site 0 as the rightmost character."""
        return self.ops[::-1]

    def matrix(self) -> np.ndarray:
        """Dense matrix of this term (coefficient included)."""
        return _zx_matrix(self.n, *_check_scaled(self))


@dataclass(frozen=True)
class PauliSum:
    """A sum of PauliTerms over a fixed qubit count.

    Duplicate strings are merged on construction and terms with magnitude
    below COEFF_CUTOFF are dropped, so len(terms) is the minimal term count M.
    """

    n: int
    terms: tuple[PauliTerm, ...]

    def __init__(self, n: int, terms):
        if n < 1:
            raise DomainError("qubit count must be >= 1")
        merged: dict[str, complex] = {}
        for t in terms:
            if not isinstance(t, PauliTerm):
                t = PauliTerm(complex(t[0]), str(t[1]))
            if t.n != n:
                raise DomainError(f"term {t.label()} has length {t.n}, expected {n}")
            merged[t.ops] = merged.get(t.ops, 0j) + complex(t.coefficient)
        kept = tuple(
            PauliTerm(c, ops) for ops, c in merged.items() if abs(c) >= COEFF_CUTOFF
        )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", kept)

    def __len__(self) -> int:
        return len(self.terms)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        # Pauli strings are self-adjoint, so Hermiticity means real coefficients.
        return all(abs(t.coefficient.imag) <= tol for t in self.terms)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"coeff": [t.coefficient.real, t.coefficient.imag], "ops": t.label()}
                for t in self.terms
            ],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, d: dict) -> "PauliSum":
        """to_dict's form: a key other than n and terms, a term key other than
        coeff and ops, or a coeff that is not a [re, im] pair is an error."""
        n = json_int(d["n"], "n")
        unknown = sorted(set(d) - {"n", "terms"})
        if unknown:
            raise ValueError(f"unknown Pauli-sum spec keys {unknown}")
        terms = []
        for t in d["terms"]:
            unknown = sorted(set(t) - {"coeff", "ops"})
            if unknown:
                raise ValueError(f"unknown Pauli-sum term keys {unknown}")
            coeff = t["coeff"]
            if len(coeff) != 2:  # a TypeError, like json_int's: the spec is malformed
                raise TypeError(f"coeff must be a [re, im] pair, got {coeff!r}")
            re, im = (json_real(v, "coeff") for v in coeff)
            terms.append(PauliTerm(complex(re, im), str(t["ops"])[::-1]))
        return cls(n, terms)

    @classmethod
    def from_json(cls, text: str) -> "PauliSum":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class CheckTerm:
    """A Pauli string in check-matrix form.

    i and j are n-bit integers (bit l = site l) activating X and Z factors;
    alpha_prime carries the absorbed phase, |alpha_prime| = |alpha|.
    """

    i: int
    j: int
    alpha_prime: complex


def _check_scaled(t: PauliTerm) -> tuple[int, int, complex]:
    """(i, j, alpha') with t = alpha' * prod_l Z^{j_l} X^{i_l}, where
    alpha' = (-i)^(sum_l i_l j_l) * alpha."""
    i = j = 0
    y_count = 0
    for site, p in enumerate(t.ops):
        xb, zb = CHECK_PAIRS[p]
        i |= xb << site
        j |= zb << site
        y_count += xb & zb
    return i, j, t.coefficient * (-1j) ** y_count


def check_decompose(h: PauliSum) -> list[CheckTerm]:
    """Check-matrix decomposition: alpha' = (-i)^(sum_l i_l j_l) * alpha."""
    out = []
    for t in h.terms:
        i, j, alpha = _check_scaled(t)
        if abs(alpha) >= COEFF_CUTOFF:
            out.append(CheckTerm(i, j, alpha))
    return out


def one_norm(h: PauliSum) -> float:
    """Normalization constant N = sum_m |alpha_m|."""
    return float(sum(abs(t.coefficient) for t in h.terms))


def _zx_columns(n: int, i: int, j: int, scale: complex) -> tuple[np.ndarray, np.ndarray]:
    """scale * prod_l Z^{j_l} X^{i_l} on n sites, one nonzero per column:
    column b holds scale * (-1)^popcount((b ^ i) & j) in row b ^ i.
    Returns (rows, values), indexed by column."""
    rows = np.arange(1 << n) ^ i
    parity = np.zeros_like(rows)
    for site in range(n):
        if (j >> site) & 1:
            parity ^= rows >> site
    return rows, scale * (1 - 2 * (parity & 1))


def _zx_matrix(n: int, i: int, j: int, scale: complex) -> np.ndarray:
    """Dense 2^n x 2^n matrix of scale * prod_l Z^{j_l} X^{i_l}."""
    m = np.zeros((1 << n, 1 << n), dtype=complex)
    rows, values = _zx_columns(n, i, j, scale)
    m[rows, np.arange(1 << n)] = values
    return m


def hamiltonian_matrix(h: PauliSum) -> np.ndarray:
    """Exact dense 2^n x 2^n matrix of h. Each term has one nonzero per
    column (see _zx_columns), added in place, in term order."""
    check_entries(f"the dense 2^{h.n} x 2^{h.n} matrix", 1, 2 * h.n)
    m = np.zeros((2**h.n, 2**h.n), dtype=complex)
    cols = np.arange(2**h.n)
    for t in h.terms:
        rows, values = _zx_columns(h.n, *_check_scaled(t))
        m[rows, cols] += values
    return m


def success_probability(h: PauliSum, phi: np.ndarray) -> float:
    """Post-selection success probability sum_l |l/N|^2 |<l|phi>|^2.

    h must be Hermitian and phi a normalized state of dimension 2^n.
    """
    if not h.is_hermitian():
        raise DomainError("success_probability requires a Hermitian operator")
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    if phi.shape[0] != 2**h.n:
        raise DomainError(f"state dimension {phi.shape[0]} != 2^{h.n}")
    if not abs(np.linalg.norm(phi) - 1.0) <= 1e-10:  # NaN fails too
        raise DomainError("state is not normalized")
    norm = one_norm(h)
    if norm == 0.0:
        return 0.0
    evals, evecs = np.linalg.eigh(hamiltonian_matrix(h))
    overlaps = np.abs(evecs.conj().T @ phi) ** 2
    return float(np.sum((np.abs(evals) / norm) ** 2 * overlaps))


def check_term_matrix(ct: CheckTerm, n: int) -> np.ndarray:
    """Dense matrix alpha' * prod_l Z^{j_l} X^{i_l}, for verification."""
    return _zx_matrix(n, ct.i, ct.j, ct.alpha_prime)
