"""Closed-form gate-count formulas and predicted-vs-actual sweep tables."""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .baseline import standard_lcu
from .circuit import CountReport, count
from .dicke import DICKE_KINDS, dicke_kind
from .encoder import heisenberg_encoding, spin_glass_encoding
from .errors import DomainError
from .models import (
    heisenberg_hamiltonian,
    random_heisenberg,
    random_spin_glass,
    spin_glass_hamiltonian,
)


@dataclass(frozen=True)
class Prediction:
    """Closed-form CNOT-equivalent bounds (lo == hi when exact) and Toffolis."""

    cnot_lo: int
    cnot_hi: int
    toffoli: int


@dataclass(frozen=True)
class CountRow:
    model: str
    n: int
    k: int | None
    predicted: Prediction
    actual: CountReport
    baseline_cnot: int | None = None


def predict(model: str, n: int, k: int | None = None) -> Prediction:
    """Closed-form counts: the two spin models here, the Dicke kinds from
    their registry entries."""
    if model == "heisenberg":
        if n < 2:
            raise DomainError("n must be >= 2")
        return Prediction(46 * n + 8, 46 * n + 8, 6 * n - 4)
    if model == "spin_glass":
        if n < 2:
            raise DomainError("n must be >= 2")
        return Prediction(
            24 * n * n + 24 * n - 20, 30 * n * n + 30 * n - 20, 2 * n * n
        )
    if model not in DICKE_KINDS:
        raise DomainError(f"unknown model {model!r}")
    c = dicke_kind(model, k).cnot(n, k)
    return Prediction(c, c, 0)


def sweep(model: str, ns, seed: int = 0, k: int | None = None,
          include_baseline: bool = False) -> list[CountRow]:
    """Build circuits across n, count them, and pair with predictions.

    Model coefficients are drawn from `seed` where needed; the draw floor of
    1e-3 keeps every term alive so counts are structure-determined. With
    include_baseline, each spin-model row also counts standard_lcu of the
    same Hamiltonian. A Dicke kind that needs k is swept over every k in
    1..n-1 when k is None; an n with no such k raises DomainError.
    """
    spec = DICKE_KINDS.get(model)
    if spec is None and model not in ("heisenberg", "spin_glass"):
        raise DomainError(f"unknown model {model!r}")
    if include_baseline and spec is not None:
        raise DomainError("the standard-LCU baseline needs a spin model, not a Dicke kind")
    if k is not None and (spec is None or not spec.needs_k):
        raise DomainError(f"{model} takes no k")
    rng = np.random.default_rng(seed) if spec is None else None  # a Dicke sweep draws nothing
    rows = []
    for n in ns:
        if spec is not None:
            ks = ([k] if k is not None else range(1, n)) if spec.needs_k else [None]
            if not ks:
                raise DomainError(f"{model} has no k in 1..n-1 at n={n}")
            for kk in ks:
                actual = count(spec.build(n, kk, None))
                rows.append(CountRow(model, n, kk, predict(model, n, kk), actual))
            continue
        if model == "heisenberg":
            p = random_heisenberg(n, rng)
            encode, hamiltonian = heisenberg_encoding, heisenberg_hamiltonian
        else:
            p = random_spin_glass(n, rng)
            encode, hamiltonian = spin_glass_encoding, spin_glass_hamiltonian
        actual = count(encode(p))
        base = None
        if include_baseline:
            base = count(standard_lcu(hamiltonian(p))).cnot_equivalent
        rows.append(CountRow(model, n, None, predict(model, n), actual, base))
    return rows


CSV_COLUMNS = (
    "model,n,k,cnot_pred_lo,cnot_pred_hi,cnot_actual,"
    "toffoli_pred,toffoli_actual,baseline_cnot"
)


def _row_fields(r: CountRow) -> dict:
    """A row's values under the CSV_COLUMNS names, in that order."""
    return {
        "model": r.model,
        "n": r.n,
        "k": r.k,
        "cnot_pred_lo": r.predicted.cnot_lo,
        "cnot_pred_hi": r.predicted.cnot_hi,
        "cnot_actual": r.actual.cnot_equivalent,
        "toffoli_pred": r.predicted.toffoli,
        "toffoli_actual": r.actual.toffoli,
        "baseline_cnot": r.baseline_cnot,
    }


def rows_to_csv(rows: list[CountRow]) -> str:
    lines = [CSV_COLUMNS]
    for r in rows:
        lines.append(",".join("" if v is None else str(v) for v in _row_fields(r).values()))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[CountRow]) -> str:
    return json.dumps([_row_fields(r) for r in rows], indent=2)
