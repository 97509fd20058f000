"""Command-line front end: encode, verify, counts.

Exit codes: 0 success, 1 input/parse error, 2 domain error, 3 resource guard.
Human-readable summaries go to stderr; machine output to files or stdout.
All randomness flows from --seed (default 0).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import report as report_mod
from .circuit import export_qasm, lower
from .dicke import AmplitudeList, dicke_kind, dicke_state_map
from .encoder import generic_foqcs, heisenberg_encoding, spin_glass_encoding
from .errors import DomainError, ResourceGuardError
from .models import (
    HeisenbergParams,
    SpinGlassParams,
    heisenberg_hamiltonian,
    random_heisenberg,
    random_spin_glass,
    spin_glass_hamiltonian,
)
from .pauli import PauliSum, hamiltonian_matrix, one_norm
from .sim import assert_state, extract_block

VERIFY_MAX_WIDTH = 21
HEISENBERG_FIELDS = ("gx", "gy", "gz", "jx", "jy", "jz")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _from_json(what: str, build, data):
    """build(data) on decoded JSON. A TypeError or IndexError there means the
    data has the wrong shape, so it becomes an input error (exit 1)."""
    try:
        return build(data)
    except (TypeError, IndexError) as e:
        raise ValueError(f"malformed {what}: {e}") from e


def _heisenberg_from_dict(d: dict) -> HeisenbergParams:
    return HeisenbergParams(int(d["n"]), *(d.get(f, 0.0) for f in HEISENBERG_FIELDS))


def _heisenberg_from_args(args) -> HeisenbergParams:
    if args.spec:
        return _from_json("heisenberg spec", _heisenberg_from_dict,
                          json.loads(Path(args.spec).read_text()))
    if args.n is None:
        raise DomainError("heisenberg needs --spec or --n")
    vals = [getattr(args, f) for f in HEISENBERG_FIELDS]
    if all(v is None for v in vals):
        return random_heisenberg(args.n, np.random.default_rng(args.seed))
    return HeisenbergParams(args.n, *(v or 0.0 for v in vals))


def _spin_glass_from_args(args) -> SpinGlassParams:
    if args.spec:
        return _from_json("spin-glass spec", SpinGlassParams.from_dict,
                          json.loads(Path(args.spec).read_text()))
    if args.n is None:
        raise DomainError("spin-glass needs --spec or --n")
    return random_spin_glass(args.n, np.random.default_rng(args.seed))


def _build_encoding(args):
    if args.model == "heisenberg":
        p = _heisenberg_from_args(args)
        return heisenberg_encoding(p), heisenberg_hamiltonian(p)
    if args.model == "spin-glass":
        p = _spin_glass_from_args(args)
        return spin_glass_encoding(p), spin_glass_hamiltonian(p)
    if args.model == "generic":
        if not args.spec:
            raise DomainError("generic needs --spec with a Pauli-sum JSON")
        h = _from_json("Pauli-sum spec", PauliSum.from_dict,
                       json.loads(Path(args.spec).read_text()))
        return generic_foqcs(h), h
    raise DomainError(f"unknown model {args.model!r}")


def _circuit_to_encode(args) -> tuple:
    """The flat circuit to export and its meta.json fields. An encoding's own
    parts are dropped on return, before the circuit is lowered."""
    if args.model == "dicke":
        circ, _ = _dicke_request_from_args(args)
        return circ, {"width": circ.width,
                      "layout": {k: list(v) for k, v in circ.layout.items()}}
    be, _ = _build_encoding(args)
    return be.circuit, {
        "normalization": be.normalization,
        "layout": {k: list(v) for k, v in be.layout.items()},
        "postselect": list(be.postselect),
        "width": be.width,
    }


def cmd_encode(args) -> int:
    circ, meta = _circuit_to_encode(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lowered = lower(circ)
    (out / "circuit.qasm").write_text(export_qasm(lowered))
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    (out / "circuit.json").write_text(lowered.to_json() + "\n")
    _log(f"wrote {out}/circuit.qasm, circuit.json, meta.json (width {circ.width})")
    return 0


def _dicke_request(kind: str, n: int, k: int | None, alphas) -> tuple:
    """A "u" suffix names the amplitude-weighted variant of a registry kind."""
    unbalanced = kind.endswith("u")
    base = kind[:-1] if unbalanced else kind
    spec = dicke_kind(base, k)
    if alphas is not None and not unbalanced:
        raise DomainError(f"{kind} is balanced and takes no alphas (use {kind}u)")
    a = None
    if unbalanced:
        if alphas is None:
            raise DomainError(f"{kind} needs alphas")
        a = AmplitudeList(_from_json("alphas", lambda v: [complex(re, im) for re, im in v],
                                     alphas))
    return spec.build(n, k, a), dicke_state_map(base, n, k, a)


def _dicke_fields(d: dict) -> tuple:
    k = d.get("k")
    return str(d["kind"]), int(d["n"]), None if k is None else int(k), d.get("alphas")


def _dicke_request_from_args(args) -> tuple:
    """Flags or a JSON request {"kind", "n", "k", "alphas": [[re,im],...]}."""
    if args.spec:
        kind, n, k, alphas = _from_json("dicke spec", _dicke_fields,
                                        json.loads(Path(args.spec).read_text()))
    else:
        if args.kind is None or args.n is None:
            raise DomainError("dicke needs --spec or --kind/--n")
        kind, n, k = args.kind, args.n, args.k
        alphas = json.loads(args.alphas) if args.alphas else None
    return _dicke_request(kind, n, k, alphas)


def cmd_verify(args) -> int:
    if args.model == "dicke":
        circ, expected = _dicke_request_from_args(args)
        if circ.width > VERIFY_MAX_WIDTH:
            raise ResourceGuardError(f"width {circ.width} over verify cap {VERIFY_MAX_WIDTH}")
        tol = 1e-12 if args.tol is None else args.tol
        check = assert_state(circ, expected, tol=tol)
        rep = {"ok": check.ok, "max_abs_error": check.max_abs_error, "tolerance": tol}
        print(json.dumps(rep, indent=2))
        _log(f"dicke preparation: max error {check.max_abs_error:.2e}")
        return 0 if check.ok else 2

    be, h = _build_encoding(args)
    if be.width > VERIFY_MAX_WIDTH:
        raise ResourceGuardError(f"width {be.width} over verify cap {VERIFY_MAX_WIDTH}")
    tol = 1e-10 if args.tol is None else args.tol
    reference = hamiltonian_matrix(h) / one_norm(h)
    rep = extract_block(be, reference)
    out = {
        "ok": bool(rep.max_abs_error <= tol),
        "max_abs_error": rep.max_abs_error,
        "tolerance": tol,
        "normalization": be.normalization,
        "postselect_probability": rep.postselect_probability.tolist(),
    }
    print(json.dumps(out, indent=2))
    _log(f"{args.model}: block error {rep.max_abs_error:.2e} (tol {tol:g})")
    return 0 if rep.max_abs_error <= tol else 2


def _parse_range(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        ns = list(range(int(lo), int(hi) + 1))
        if not ns:
            raise DomainError(f"empty range {text!r}")
        return ns
    return [int(v) for v in text.split(",")]


def cmd_counts(args) -> int:
    model = args.model.replace("-", "_")
    if model == "dicke":
        model = args.kind or "d1"
    elif args.kind is not None:
        raise DomainError(f"--kind applies to dicke, not {args.model}")
    rows = report_mod.sweep(model, _parse_range(args.n), seed=args.seed,
                            k=args.k, include_baseline=args.baseline)
    text = report_mod.rows_to_csv(rows) if args.format == "csv" else report_mod.rows_to_json(rows)
    if args.out:
        Path(args.out).write_text(text)
        _log(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="foqcs",
                                 description="Block-encoding synthesis, verification, and counting")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument("model", choices=["heisenberg", "spin-glass", "generic", "dicke"])
        p.add_argument("--n", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--kind")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--spec")
        p.add_argument("--tol", type=float)
        p.add_argument("--alphas")
        for name in HEISENBERG_FIELDS:
            p.add_argument(f"--{name}", type=float)

    enc = sub.add_parser("encode", help="write lowered QASM + layout metadata")
    add_model_args(enc)
    enc.add_argument("-o", "--out", required=True)
    enc.set_defaults(func=cmd_encode)

    ver = sub.add_parser("verify", help="simulate and check against the exact matrix")
    add_model_args(ver)
    ver.set_defaults(func=cmd_verify)

    cnt = sub.add_parser("counts", help="predicted vs actual gate-count sweeps")
    cnt.add_argument("model", choices=["heisenberg", "spin-glass", "dicke"])
    cnt.add_argument("--n", required=True, help="range lo:hi or comma list")
    cnt.add_argument("--k", type=int)
    cnt.add_argument("--kind")
    cnt.add_argument("--seed", type=int, default=0)
    cnt.add_argument("--format", choices=["csv", "json"], default="csv")
    cnt.add_argument("--baseline", action="store_true",
                     help="add the CNOT count of standard LCU for the same Hamiltonian "
                          "(heisenberg and spin-glass)")
    cnt.add_argument("-o", "--out")
    cnt.set_defaults(func=cmd_counts)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except ResourceGuardError as e:
        _log(f"resource guard: {e}")
        return 3
    except DomainError as e:
        _log(f"invalid parameters: {e}")
        return 2
    except (json.JSONDecodeError, KeyError, ValueError, OSError) as e:
        _log(f"input error: {e}")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
