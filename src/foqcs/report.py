"""Closed-form gate-count formulas and predicted-vs-actual sweep tables."""
from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from .baseline import standard_lcu
from .circuit import CountReport, count
from .dicke import DICKE_KINDS
from .encoder import heisenberg_encoding, spin_glass_encoding
from .errors import DomainError
from .models import heisenberg_hamiltonian, random_heisenberg, random_spin_glass


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
    """Table-driven count formulas per model family."""
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
    if model == "d1":
        c = 2 * n - 2
    elif model == "d1d":
        c = 3 * n - 2
    elif model == "d2k":
        if k is None:
            raise DomainError("d2k needs k")
        c = 3 * n - 3 * k - 2
    elif model == "d2kd":
        if k is None:
            raise DomainError("d2kd needs k")
        c = 4 * n - 3 * k - 2
    else:
        raise DomainError(f"unknown model {model!r}")
    return Prediction(c, c, 0)


def sweep(model: str, ns, seed: int = 0, k: int | None = None,
          include_baseline: bool = False) -> list[CountRow]:
    """Build circuits across n, count them, and pair with predictions.

    Model coefficients are drawn from `seed` where needed; the draw floor of
    1e-3 keeps every term alive so counts are structure-determined.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for n in ns:
        if model == "heisenberg":
            p = random_heisenberg(n, rng)
            actual = count(heisenberg_encoding(p).circuit)
            base = None
            if include_baseline:
                base = count(standard_lcu(heisenberg_hamiltonian(p)).circuit).cnot_equivalent
            rows.append(CountRow(model, n, None, predict(model, n), actual, base))
        elif model == "spin_glass":
            p = random_spin_glass(n, rng)
            actual = count(spin_glass_encoding(p).circuit)
            rows.append(CountRow(model, n, None, predict(model, n), actual))
        elif model in DICKE_KINDS:
            spec = DICKE_KINDS[model]
            ks = ([k] if k else range(1, n)) if spec.needs_k else [None]
            for kk in ks:
                actual = count(spec.build(n, kk, None))
                rows.append(CountRow(model, n, kk, predict(model, n, kk), actual))
        elif model == "baseline":
            p = random_heisenberg(n, rng)
            actual = count(standard_lcu(heisenberg_hamiltonian(p)).circuit)
            pred = Prediction(0, 1 << 62, 0)
            rows.append(CountRow(model, n, None, pred, actual))
        else:
            raise DomainError(f"unknown model {model!r}")
    return rows


CSV_COLUMNS = (
    "model,n,k,cnot_pred_lo,cnot_pred_hi,cnot_actual,"
    "toffoli_pred,toffoli_actual,baseline_cnot"
)


def rows_to_csv(rows: list[CountRow]) -> str:
    buf = io.StringIO()
    buf.write(CSV_COLUMNS + "\n")
    for r in rows:
        cells = [
            r.model,
            r.n,
            "" if r.k is None else r.k,
            r.predicted.cnot_lo,
            r.predicted.cnot_hi,
            r.actual.cnot_equivalent,
            r.predicted.toffoli,
            r.actual.toffoli,
            "" if r.baseline_cnot is None else r.baseline_cnot,
        ]
        buf.write(",".join(str(c) for c in cells) + "\n")
    return buf.getvalue()


def rows_to_json(rows: list[CountRow]) -> str:
    out = []
    for r in rows:
        out.append(
            {
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
        )
    return json.dumps(out, indent=2)
