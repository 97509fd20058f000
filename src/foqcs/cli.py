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
from .circuit import export_lowered
from .dicke import AmplitudeList, dicke_kind, dicke_state_map
from .encoder import generic_foqcs, heisenberg_encoding, spin_glass_encoding
from .errors import DomainError, ResourceGuardError, check_entries, json_int
from .models import (
    HEISENBERG_FIELDS,
    HeisenbergParams,
    SpinGlassParams,
    heisenberg_hamiltonian,
    random_heisenberg,
    random_spin_glass,
    spin_glass_hamiltonian,
)
from .pauli import COEFF_CUTOFF, PauliSum, hamiltonian_matrix, one_norm
from .sim import assert_state, extract_block

SWEEP_MAX_LEN = 10_000  # values of n in one counts range
# --spec holds the whole model, so it excludes these flags. They default to None
# (the seed's 0 is filled in where a model is drawn), so an explicit one shows.
SPEC_EXCLUDES = ("n", "seed", *HEISENBERG_FIELDS, "kind", "k", "alphas")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _from_json(what: str, build, data):
    """build(data) on decoded JSON. A TypeError or IndexError there means the
    data has the wrong shape, and an OverflowError an integer too large for a
    float, so each becomes an input error (exit 1)."""
    try:
        return build(data)
    except (TypeError, IndexError, OverflowError) as e:
        raise ValueError(f"malformed {what}: {e}") from e


def _check_n(args, n: int | None) -> None:
    """verify refuses a block model's dense 2^n x 2^n reference over the entry
    budget. A Dicke state runs sparse at any n, so it has no such check."""
    if args.func is cmd_verify_block and n is not None and n >= 0:  # the model refuses n < 0
        check_entries(f"verify's 2^{n} x 2^{n} reference", 1, 2 * n)


def _spec(args, what: str, build):
    """build(JSON read from --spec), or None without --spec. Every request
    starts here, so verify refuses an n it cannot check, from --n or from
    the spec, before any model is drawn or circuit built."""
    if args.spec is None:
        _check_n(args, getattr(args, "n", None))
        return None
    given = [f"--{f}" for f in SPEC_EXCLUDES if getattr(args, f, None) is not None]
    if given:
        raise DomainError(f"--spec excludes {', '.join(given)}")
    data = json.loads(Path(args.spec).read_text())
    _check_n(args, _from_json(what, lambda d: json_int(d["n"], "n"), data))
    return _from_json(what, build, data)


def _heisenberg(args) -> tuple:
    p = _spec(args, "heisenberg spec", HeisenbergParams.from_dict)
    if p is None:
        if args.n is None:
            raise DomainError("heisenberg needs --spec or --n")
        vals = [getattr(args, f) for f in HEISENBERG_FIELDS]
        given = [f"--{f}" for f, v in zip(HEISENBERG_FIELDS, vals) if v is not None]
        if not given:
            p = random_heisenberg(args.n, np.random.default_rng(args.seed or 0))
        elif args.seed is not None:
            raise DomainError(f"--seed draws the couplings, so it excludes {', '.join(given)}")
        else:
            p = HeisenbergParams(args.n, *(v or 0.0 for v in vals))
    return heisenberg_encoding(p), lambda: heisenberg_hamiltonian(p)


def _spin_glass(args) -> tuple:
    p = _spec(args, "spin-glass spec", SpinGlassParams.from_dict)
    if p is None:
        if args.n is None:
            raise DomainError("spin-glass needs --spec or --n")
        p = random_spin_glass(args.n, np.random.default_rng(args.seed or 0))
    return spin_glass_encoding(p), lambda: spin_glass_hamiltonian(p)


def _generic(args) -> tuple:
    h = _spec(args, "Pauli-sum spec", PauliSum.from_dict)
    return generic_foqcs(h), lambda: h


def _dicke_fields(d: dict) -> tuple:
    kind, n, k = str(d["kind"]), json_int(d["n"], "n"), d.get("k")
    unknown = sorted(set(d) - {"kind", "n", "k", "alphas"})
    if unknown:
        raise ValueError(f"unknown dicke spec keys {unknown}")
    return kind, n, None if k is None else json_int(k, "k"), d.get("alphas")


def _dicke(args) -> tuple:
    """Flags or a JSON request {"kind", "n", "k", "alphas": [[re,im],...]}.
    A "u" suffix names the amplitude-weighted variant of a registry kind."""
    fields = _spec(args, "dicke spec", _dicke_fields)
    if fields is None:
        if args.kind is None or args.n is None:
            raise DomainError("dicke needs --spec or --kind/--n")
        fields = args.kind, args.n, args.k, json.loads(args.alphas) if args.alphas else None
    kind, n, k, alphas = fields
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


def _export(out: str, c, meta: dict) -> int:
    """Write c lowered as circuit.qasm and circuit.json, and meta as meta.json;
    the QASM text is dropped before the JSON text is joined."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    texts = export_lowered(c)
    (out / "circuit.qasm").write_text(next(texts))
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    (out / "circuit.json").write_text(next(texts) + "\n")
    _log(f"wrote {out}/circuit.qasm, circuit.json, meta.json (width {c.width})")
    return 0


def cmd_encode_block(args) -> int:
    """Export the flat circuit PR, SELECT, PL-dagger, read off PR and SELECT."""
    be, _ = args.request(args)
    meta = {"normalization": be.normalization, "layout": be.layout,
            "postselect": list(be.postselect), "width": be.width}
    return _export(args.out, be, meta)


def cmd_encode_state(args) -> int:
    circ, _ = args.request(args)
    return _export(args.out, circ, {"width": circ.width, "layout": circ.layout})


def _tolerance(args, default: float) -> float:
    """--tol or default, refused if negative or not finite; called before the request."""
    tol = default if args.tol is None else args.tol
    if not 0 <= tol <= sys.float_info.max:
        raise DomainError(f"--tol must be finite and at least 0, got {tol}")
    return tol


def cmd_verify_state(args) -> int:
    tol = _tolerance(args, 1e-12)
    circ, expected = args.request(args)
    check = assert_state(circ, expected, tol=tol)
    rep = {"ok": check.ok, "max_abs_error": check.max_abs_error, "tolerance": tol}
    print(json.dumps(rep, indent=2))
    _log(f"dicke preparation: max error {check.max_abs_error:.2e}")
    return 0 if check.ok else 2


def cmd_verify_block(args) -> int:
    tol = _tolerance(args, 1e-10)
    be, hamiltonian = args.request(args)
    h = hamiltonian()
    if not h.terms:
        raise DomainError(f"every term of H is below the coefficient cutoff {COEFF_CUTOFF:g}")
    reference = hamiltonian_matrix(h)
    reference /= one_norm(h)
    rep = extract_block(be, reference)
    ok = rep.within(tol)
    out = {"ok": ok, "max_abs_error": rep.max_abs_error,
           "tolerance": tol, "normalization": be.normalization,
           "postselect_probability": rep.postselect_probability.tolist()}
    print(json.dumps(out, indent=2))
    _log(f"{args.model}: block error {rep.max_abs_error:.2e}, truncation "
         f"{rep.truncation:.1e} (tol {tol:g})")
    return 0 if ok else 2


def _parse_range(text: str) -> list[int]:
    """lo:hi or a comma list. A range is measured before it is listed, so a
    huge one is refused without being allocated."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        ns = range(int(lo), int(hi) + 1)
        if not ns:
            raise DomainError(f"empty range {text!r}")
        if len(ns) > SWEEP_MAX_LEN:
            raise ValueError(f"range {text!r} has {len(ns)} values of n, over the "
                             f"sweep limit {SWEEP_MAX_LEN}")
        return list(ns)
    return [int(v) for v in text.split(",")]


def cmd_counts(args) -> int:
    rows = report_mod.sweep(args.sweep, _parse_range(args.n), seed=args.seed,
                            k=args.k, include_baseline=args.baseline)
    text = report_mod.rows_to_csv(rows) if args.format == "csv" else report_mod.rows_to_json(rows)
    if args.out:
        Path(args.out).write_text(text)
        _log(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


# A block request returns (encoding, a function building H): verify calls it only
# after the encoding is built, and encode never does.
BLOCK = {"encode": cmd_encode_block, "verify": cmd_verify_block}
STATE = {"encode": cmd_encode_state, "verify": cmd_verify_state}
# model: (request, the flags it reads besides --spec, its command functions)
MODELS = {
    "heisenberg": (_heisenberg, ("n", "seed", *HEISENBERG_FIELDS), BLOCK),
    "spin-glass": (_spin_glass, ("n", "seed"), BLOCK),
    "generic": (_generic, (), BLOCK),
    "dicke": (_dicke, ("kind", "n", "k", "alphas"), STATE),
}
FLAG_TYPES = {"n": int, "seed": int, "k": int, **dict.fromkeys(HEISENBERG_FIELDS, float)}
# counts model: the sweep it runs (None: the Dicke kind given by --kind)
COUNTS = {"heisenberg": "heisenberg", "spin-glass": "spin_glass", "dicke": None}


def _add_request_flags(p: argparse.ArgumentParser, command: str, model: str) -> None:
    request, flags, funcs = MODELS[model]
    p.add_argument("--spec", required=not flags)  # generic reads nothing else
    for f in flags:
        p.add_argument(f"--{f}", type=FLAG_TYPES.get(f))
    if command == "encode":
        p.add_argument("-o", "--out", required=True)
    else:
        p.add_argument("--tol", type=float)
    p.set_defaults(func=funcs[command], request=request)


def _add_counts_flags(p: argparse.ArgumentParser, command: str, model: str) -> None:
    p.add_argument("--n", required=True, help="range lo:hi or comma list")
    if COUNTS[model] is None:  # the Dicke kind is the sweep's model
        p.add_argument("--kind", dest="sweep", metavar="KIND", default="d1")
        p.add_argument("--k", type=int)
        p.set_defaults(seed=0, baseline=False)
    else:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--baseline", action="store_true", help="add standard-LCU CNOT counts")
        p.set_defaults(sweep=COUNTS[model], k=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_counts)


# command: (its help, the models it takes, the function adding a model's flags)
COMMANDS = {"encode": ("write lowered QASM + layout metadata", MODELS, _add_request_flags),
            "verify": ("simulate and check against the exact matrix", MODELS, _add_request_flags),
            "counts": ("predicted vs actual gate-count sweeps", COUNTS, _add_counts_flags)}


def build_parser(only: tuple[str, str] | None = None) -> argparse.ArgumentParser:
    """The parser tree. With `only` = (command, model), the top-level parser
    still registers every command, so its usage is unchanged, but only that
    command gets a model parser, and only that one."""
    ap = argparse.ArgumentParser(prog="foqcs",
                                 description="Block-encoding synthesis, verification, and counting")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_, leaves, add_flags) in COMMANDS.items():
        cmd = sub.add_parser(command, help=help_)
        if only is not None and only[0] != command:
            continue
        models = cmd.add_subparsers(dest="model", required=True)
        for model in leaves if only is None else [only[1]]:
            add_flags(models.add_parser(model), command, model)
    return ap


def main(argv=None) -> int:
    """Run one command. When argv starts with a known (command, model) pair,
    only that pair's parser is built; any other argv, such as -h or a
    missing or unknown model, gets the full tree and so the same help and
    errors."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command, model = (argv + ["", ""])[:2]
    known = command in COMMANDS and model in COMMANDS[command][1]
    args = build_parser((command, model) if known else None).parse_args(argv)
    try:
        code = args.func(args)
    except ResourceGuardError as e:
        _log(f"resource guard: {e}")
        return 3
    except DomainError as e:
        _log(f"invalid parameters: {e}")
        return 2
    # An OverflowError is a number too large for the machine, such as an --n of 10**20.
    except (json.JSONDecodeError, KeyError, ValueError, OSError, OverflowError) as e:
        _log(f"input error: {e}")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
