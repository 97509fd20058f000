"""Output checks that do not trust the program's own verdict.

The closed forms are the paper's, written out here rather than taken from
`foqcs.report.predict`, so a wrong formula in the program cannot agree with
itself. Each check returns None on success or a one-line reason.
"""
from __future__ import annotations

import csv
import io
import json
import math

# Documented defaults of `foqcs verify`; a result must meet these even if the
# program states a looser tolerance.
BLOCK_TOL = 1e-10
STATE_TOL = 1e-12
# Rounding slack on a post-selection probability that should lie in [0, 1].
PROB_SLACK = 1e-12

# model -> (n, k) -> inclusive CNOT-equivalent range of the built circuit.
CNOT_FORMS = {
    "heisenberg": lambda n, k: (46 * n + 8, 46 * n + 8),
    "spin_glass": lambda n, k: (24 * n * n + 24 * n - 20, 30 * n * n + 30 * n - 20),
    "d1": lambda n, k: (2 * n - 2, 2 * n - 2),
    "d1d": lambda n, k: (3 * n - 2, 3 * n - 2),
    "d2k": lambda n, k: (3 * n - 3 * k - 2, 3 * n - 3 * k - 2),
    "d2kd": lambda n, k: (4 * n - 3 * k - 2, 4 * n - 3 * k - 2),
}
TOFFOLI_FORMS = {
    "heisenberg": lambda n: 6 * n - 4,
    "spin_glass": lambda n: 2 * n * n,
}
# encode model -> width of the exported circuit at size n.
WIDTH_FORMS = {"heisenberg": lambda n: 6 + 3 * n, "spin-glass": lambda n: 6 * n}
CSV_HEADER = ["model", "n", "k", "cnot_pred_lo", "cnot_pred_hi", "cnot_actual",
              "toffoli_pred", "toffoli_actual", "baseline_cnot"]


def _in_range(value: int, bounds: tuple[int, int]) -> bool:
    return bounds[0] <= value <= bounds[1]


def check_verify(stdout: str, tol: float, n: int | None = None) -> str | None:
    """A `verify` report: finite error within tolerance, sane probabilities.

    Comparisons are written so that NaN fails them.
    """
    rep = json.loads(stdout)
    err = float(rep["max_abs_error"])
    limit = min(float(rep["tolerance"]), tol)
    if not (math.isfinite(err) and err <= limit):
        return f"max_abs_error {err!r} not within {limit:g}"
    if n is None:
        return None
    probs = rep["postselect_probability"]
    if len(probs) != 1 << n:
        return f"{len(probs)} post-selection probabilities for n={n}"
    for p in probs:
        if not (math.isfinite(p) and -PROB_SLACK <= p <= 1 + PROB_SLACK):
            return f"post-selection probability {p!r} outside [0, 1]"
    return None


def check_counts(stdout: str, model: str, ns, baseline: bool = False) -> str | None:
    """A `counts` CSV: one row per requested (n, k), each on its closed form."""
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != CSV_HEADER:
        return "unexpected CSV header"
    dicke = model.startswith("d2")
    want = {(n, k) for n in ns for k in (range(1, n) if dicke else [None])}
    seen = set()
    for cells in rows[1:]:
        r = dict(zip(CSV_HEADER, cells))
        n, k = int(r["n"]), int(r["k"]) if r["k"] else None
        seen.add((n, k))
        if r["model"] != model:
            return f"row model {r['model']!r} in a {model} sweep"
        cnot = int(r["cnot_actual"])
        if not _in_range(cnot, CNOT_FORMS[model](n, k)):
            return f"{model} n={n} k={k}: {cnot} CNOTs, closed form {CNOT_FORMS[model](n, k)}"
        if model in TOFFOLI_FORMS and int(r["toffoli_actual"]) != TOFFOLI_FORMS[model](n):
            return f"{model} n={n}: {r['toffoli_actual']} Toffolis, closed form {TOFFOLI_FORMS[model](n)}"
        if baseline and not int(r["baseline_cnot"]) > cnot:
            return f"{model} n={n}: baseline {r['baseline_cnot']} CNOTs not above {cnot}"
    if seen != want or len(rows) - 1 != len(want):
        return f"rows cover {len(seen)} (n, k) pairs in {len(rows) - 1} rows, expected {len(want)}"
    return None


def check_encode(files: dict[str, bytes], model: str, n: int) -> str | None:
    """`encode` output: QASM and JSON agree gate for gate, on the closed forms."""
    from foqcs.circuit import Circuit, parse_qasm

    from_qasm = parse_qasm(files["circuit.qasm"].decode())
    from_json = Circuit.from_json(files["circuit.json"].decode())
    meta = json.loads(files["meta.json"])
    if from_qasm.gates != from_json.gates or from_qasm.width != from_json.width:
        return "circuit.qasm and circuit.json disagree"
    width = WIDTH_FORMS[model](n)
    if meta["width"] != width or from_json.width != width:
        return f"width {meta['width']} (meta), {from_json.width} (circuit), expected {width}"
    two = sum(1 for g in from_json.gates if g.kind in ("cnot", "cz"))
    bounds = CNOT_FORMS[model.replace("-", "_")](n, None)
    if not _in_range(two, bounds):
        return f"{two} cnot+cz gates, closed form {bounds}"
    return None


def check(params: dict, stdout: str, files: dict[str, bytes]) -> str | None:
    """Dispatch on the command's check kind."""
    kind = params["check"]
    if kind == "verify_block":
        return check_verify(stdout, BLOCK_TOL, params["n"])
    if kind == "verify_state":
        return check_verify(stdout, STATE_TOL)
    if kind == "counts":
        return check_counts(stdout, params["model"], params["ns"], params.get("baseline", False))
    if kind == "encode":
        return check_encode(files, params["model"], params["n"])
    raise ValueError(f"unknown check {kind!r}")
