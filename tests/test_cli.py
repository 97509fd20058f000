import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import foqcs.cli
from foqcs.circuit import BlockEncoding, Circuit
from foqcs.cli import build_parser, main
from foqcs.models import (
    HeisenbergParams,
    SpinGlassParams,
    random_spin_glass,
    spin_glass_hamiltonian,
)
from foqcs.pauli import PauliSum, hamiltonian_matrix, one_norm
from foqcs.sim import extract_block


def test_encode_heisenberg(tmp_path, capsys):
    out = tmp_path / "enc"
    code = main(["encode", "heisenberg", "--n", "4", "--gx", "1", "--gy", "1",
                 "--gz", "1", "--jx", "1", "--jy", "1", "--jz", "1",
                 "-o", str(out)])
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["normalization"] == pytest.approx(21.0)
    qasm = (out / "circuit.qasm").read_text()
    assert qasm.startswith("OPENQASM 2.0;")
    assert (out / "circuit.json").exists()


def test_encode_spin_glass_spec(tmp_path):
    spec = {
        "n": 2,
        "g": [[0.5, -0.25], [0.3, 0.4], [0.1, 0.9]],
        "J": [[[0.7]], [[-0.2]], [[0.6]]],
    }
    f = tmp_path / "sg.json"
    f.write_text(json.dumps(spec))
    code = main(["encode", "spin-glass", "--spec", str(f), "-o", str(tmp_path / "enc")])
    assert code == 0


def test_encode_rejects_bad_n(tmp_path):
    code = main(["encode", "heisenberg", "--n", "1", "--gx", "1",
                 "-o", str(tmp_path / "enc")])
    assert code == 2


def test_verify_heisenberg(capsys):
    code = main(["verify", "heisenberg", "--n", "3", "--seed", "7"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["ok"] and out["max_abs_error"] <= 1e-10


def test_verify_dicke(capsys):
    code = main(["verify", "dicke", "--kind", "d2k", "--n", "5", "--k", "1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"]


def test_verify_generic_spec(tmp_path, capsys):
    h = {"n": 2, "terms": [{"coeff": [0.5, 0.0], "ops": "XZ"},
                           {"coeff": [0.0, 0.25], "ops": "YI"}]}
    f = tmp_path / "h.json"
    f.write_text(json.dumps(h))
    code = main(["verify", "generic", "--spec", str(f)])
    assert code == 0


def test_verify_corrupted_spec(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not valid json")
    assert main(["verify", "generic", "--spec", str(f)]) == 1


def test_verify_generic_empty_spec_path_is_an_input_error(capsys):
    assert main(["verify", "generic", "--spec", ""]) == 1
    assert capsys.readouterr().out == ""


def test_verify_width_guard():
    # heisenberg n=6 needs 24 qubits, over the verify cap of 21
    assert main(["verify", "heisenberg", "--n", "6"]) == 3


def test_counts_heisenberg_csv(capsys):
    code = main(["counts", "heisenberg", "--n", "2:16"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 16  # header + 15 rows
    for row in lines[1:]:
        cells = row.split(",")
        assert cells[3] == cells[5]  # predicted == actual


def test_counts_dicke(capsys):
    code = main(["counts", "dicke", "--kind", "d1", "--n", "2:32"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    for row in lines:
        cells = row.split(",")
        assert int(cells[5]) == 2 * int(cells[1]) - 2


def test_counts_spin_glass_bounds(capsys):
    code = main(["counts", "spin-glass", "--n", "2:6", "--seed", "1"])
    assert code == 0
    for row in capsys.readouterr().out.strip().splitlines()[1:]:
        cells = row.split(",")
        assert int(cells[3]) <= int(cells[5]) <= int(cells[4])


def test_counts_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["counts", "spin-glass", "--n", "2:4", "--seed", "9", "-o", str(a)])
    main(["counts", "spin-glass", "--n", "2:4", "--seed", "9", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


# The count_sweep benchmark's command lists at benchmark seeds 1-3, with the
# sha256 of each CSV as first written. The CSVs hold only integer counts of
# models drawn from seeded PCG64 generators, so the digests do not depend on
# the platform; a changed count, row or column fails here.
GOLDEN_COUNTS = [
    ("heisenberg --n 2:64 --seed 249090651",
     "2c330e1b57792745f01e7ff2ee2615e0a710315712b06d93984289416907ea91"),
    ("spin-glass --n 2:24 --seed 2142223721",
     "994d8c408dc5c4a1b350612ca9ef8de76e843245894e669442eca99fdc6243c7"),
    ("dicke --kind d2k --n 2:32",
     "54c0c587d6f52227a1104bfc08d133e1141a4066abfefff79d1962d37a99a809"),
    ("dicke --kind d2kd --n 2:32",
     "39b52f6a8323d664d3dcae3cb85f7a0cb3473ab103a61c52c88203a298e94dcc"),
    ("heisenberg --n 2:16 --baseline --seed 1991838771",
     "27971014d03e982f41950f3eb80b15d9d475eb9db913066b0f6c5c670c4f724d"),
    ("heisenberg --n 2:64 --seed 1744689842",
     "2c330e1b57792745f01e7ff2ee2615e0a710315712b06d93984289416907ea91"),
    ("spin-glass --n 2:24 --seed 1428056809",
     "e195c9a3fa3705bea6b4ebaa3e902bb7c611716597a9dac5870127dc1b42cad8"),
    ("heisenberg --n 2:16 --baseline --seed 360912188",
     "abd45fb5b4875968642047f8bd4599ed4edbda383b818012e5cca4cfac57a4f1"),
    ("heisenberg --n 2:64 --seed 1399346721",
     "2c330e1b57792745f01e7ff2ee2615e0a710315712b06d93984289416907ea91"),
    ("spin-glass --n 2:24 --seed 135640209",
     "4b160925ea0a17c73f631416c02a81d03b4a60a10981c2b6ad00fa1bf1ec89a9"),
    ("heisenberg --n 2:16 --baseline --seed 1299262589",
     "2af0c62badae2c71ad577d2555f2fe9378c03433a2e8a8463adc98d735e49e9f"),
]


@pytest.mark.parametrize("args, digest", GOLDEN_COUNTS, ids=[a for a, _ in GOLDEN_COUNTS])
def test_counts_csv_is_byte_identical_to_the_golden_digest(capsys, args, digest):
    assert main(["counts", *args.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of `encode heisenberg --n 8 --seed s` circuit.qasm, s = 1..3, with
# every angle rounded to 12 significant digits first, so that an ulp of libm
# cannot flip a digest; a changed gate, order, operand or angle fails here.
GOLDEN_HEISENBERG_QASM = {
    1: "f2531b0369a58954819b70e208e6f9d3f52e56d5397e59296376f3d3fd86bba8",
    2: "4954044eeb9f8ead1ad3265c77b22342c8370bce122b7b23f82cb9ac2f4defb9",
    3: "721aea2f54598ad558498aff27bead34f772752ab6578ffb19ac394b68a5c6ed",
}
QASM_ANGLE = re.compile(r"\(([^)]*)\)")


@pytest.mark.parametrize("seed", sorted(GOLDEN_HEISENBERG_QASM))
def test_heisenberg_qasm_matches_the_golden_digest(tmp_path, seed):
    argv = ["encode", "heisenberg", "--n", "8", "--seed", str(seed), "-o", str(tmp_path)]
    assert main(argv) == 0
    qasm = (tmp_path / "circuit.qasm").read_text()
    rounded = QASM_ANGLE.sub(lambda m: f"({float(m.group(1)):.12g})", qasm)
    assert hashlib.sha256(rounded.encode()).hexdigest() == GOLDEN_HEISENBERG_QASM[seed]


# sha256 of (circuit.qasm, circuit.json, meta.json) from the encode_export
# benchmark's models at seeds 1-3, as written before each distinct gate was
# exported once. The files hold every angle to 17 digits, so a changed gate,
# order, operand, angle type or zero sign fails here.
GOLDEN_EXPORTS = [
    ("heisenberg --n 64 --seed 1",
     ("ea4e182d3a713fdf0415e5f52fb110c82f0e9f172b45311073e5591f22cdb1d6",
      "28168b55da465f43fe2a1faaace4d2552936f2759edaf4ab78e4dcd4643b49df",
      "0e02bcee5be5c5ed91903226993e793f0c718a3f6500e74d8f2980ffdcdde1c0")),
    ("heisenberg --n 64 --seed 2",
     ("c5db27fd03b84a693ad83aba40df0c133206b3b2416d72df481f2a450d083119",
      "9b54b11e1472f87a0aa340c01b517e506a31511b58fec477a85c2c0fbd3ac7bb",
      "4fbf5727866037b46d729516f70a32e00f75cb74401961684e83d902091027a9")),
    ("heisenberg --n 64 --seed 3",
     ("f28bdf1a60a61aa77cf20fef03f9d12fc86ab5027159adfd482dea6201482692",
      "463397368a4ec7d4be1d62160751fbda730dc93e812f08a636b99df7266b5309",
      "b2405b2e39449f2614af6ba33530bc5c9977269fb5a2d5310282c455efbde761")),
    ("spin-glass --n 24 --seed 1",
     ("ba56e43ad290c223df83ca96b3e69d417b60989c2c0e1a22d597908b3ed90667",
      "fdcc58a98539eb863d17f2cffc44162e4c8e7e166e43b573d4c32eb0c0e6ce63",
      "8ffb596be558310614c10b2b7f797e4f3707381d5ba5fb9163bc0423b868ef83")),
    ("spin-glass --n 24 --seed 2",
     ("d5ced77f2be59a06b5ce3c71d0484cd294b77301ed66e485bf45d80120b9fbfe",
      "7c6e06419cc6d3549ec09bd5dda324af6b5099fb7a8c38676b53c9765d8c3e91",
      "4fef0722943641ca63078ba55ad42fdce7b249fc283979ed383b2001cfafe24a")),
    ("spin-glass --n 24 --seed 3",
     ("dfe6334cf7c385f8ba35cd2efd70db4f0700ec445655e5cc8d55b8e47d81d00a",
      "61730e5da81cb1fed689790115774c01f59ead8659ddc2bead2caec1a41ec207",
      "eb7ccca207a27d074f156378429aeca9441ff26a9a00b9c028cb296191c8356b")),
]


@pytest.mark.parametrize("args, digests", GOLDEN_EXPORTS, ids=[a for a, _ in GOLDEN_EXPORTS])
def test_encode_files_are_byte_identical_to_the_golden_digests(tmp_path, args, digests):
    assert main(["encode", *args.split(), "-o", str(tmp_path)]) == 0
    files = ("circuit.qasm", "circuit.json", "meta.json")
    assert tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                 for f in files) == digests


def test_encode_keeps_the_sign_of_a_zero_angle(tmp_path):
    # gy = jy = jz = 0 give rz angles of 0.0 and -0.0 in the same register;
    # equal gates, but each keeps its own text.
    argv = ["encode", "heisenberg", "--n", "3", "--gx", "0.5", "--jx", "1", "-o", str(tmp_path)]
    assert main(argv) == 0
    qasm = (tmp_path / "circuit.qasm").read_text()
    assert "rz(0) subpr[4];" in qasm and "rz(-0) subpr[4];" in qasm
    text = (tmp_path / "circuit.json").read_text()
    assert '"angle": 0.0}' in text and '"angle": -0.0}' in text


def test_encoded_spin_glass_circuit_blocks_h_over_n(tmp_path):
    # The exported circuit is PR, SELECT and PL-dagger = PR-transpose, lowered;
    # read back as a select-only encoding, its block is H/N.
    assert main(["encode", "spin-glass", "--n", "2", "--seed", "1", "-o", str(tmp_path)]) == 0
    circ = Circuit.from_json((tmp_path / "circuit.json").read_text())
    h = spin_glass_hamiltonian(random_spin_glass(2, np.random.default_rng(1)))
    rep = extract_block(BlockEncoding(circ, one_norm(h)), hamiltonian_matrix(h) / one_norm(h))
    assert rep.max_abs_error <= 1e-12


def test_verify_dicke_spec_file(tmp_path, capsys):
    req = {"kind": "d1u", "n": 3, "alphas": [[0.6, 0.0], [0.0, 0.6], [0.52915026221, 0.0]]}
    f = tmp_path / "prep.json"
    f.write_text(json.dumps(req))
    code = main(["verify", "dicke", "--spec", str(f)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["ok"]


def test_encode_dicke(tmp_path):
    code = main(["encode", "dicke", "--kind", "d2kd", "--n", "4", "--k", "1",
                 "-o", str(tmp_path / "prep")])
    assert code == 0
    qasm = (tmp_path / "prep" / "circuit.qasm").read_text()
    assert "cx" in qasm


def test_verify_dicke_unbalanced_flag(capsys):
    code = main(["verify", "dicke", "--kind", "d2ku", "--n", "4", "--k", "2",
                 "--alphas", "[[0.8, 0.0], [0.0, -0.6]]"])
    assert code == 0


def test_verify_heisenberg_at_width_cap(capsys):
    # n=5 is 6 + 3n = 21 qubits, the widest block `verify` accepts
    code = main(["verify", "heisenberg", "--n", "5", "--seed", "3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["ok"] and out["max_abs_error"] <= 1e-10


def test_hamiltonian_is_built_only_by_verify_after_the_width_cap(tmp_path, monkeypatch):
    import foqcs.cli

    commands = (["encode", "heisenberg", "--n", "3"], ["encode", "spin-glass", "--n", "2"])
    for i, argv in enumerate(commands):
        assert main([*argv, "-o", str(tmp_path / f"ref{i}")]) == 0

    def refuse(p):
        raise AssertionError("the Hamiltonian was built")

    monkeypatch.setattr(foqcs.cli, "heisenberg_hamiltonian", refuse)
    monkeypatch.setattr(foqcs.cli, "spin_glass_hamiltonian", refuse)
    for i, argv in enumerate(commands):
        assert main([*argv, "-o", str(tmp_path / f"out{i}")]) == 0
        for name in ("circuit.qasm", "circuit.json", "meta.json"):
            assert ((tmp_path / f"out{i}" / name).read_bytes()
                    == (tmp_path / f"ref{i}" / name).read_bytes())
    # n=6 is 24 qubits, over the verify cap
    assert main(["verify", "heisenberg", "--n", "6", "--seed", "1"]) == 3


def test_verify_dicke_nan_amplitude(capsys):
    code = main(["verify", "dicke", "--kind", "d1u", "--n", "3",
                 "--alphas", "[[NaN,0],[1,0],[1,0]]"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_verify_heisenberg_needs_n(capsys):
    assert main(["verify", "heisenberg"]) == 2
    assert "--n" in capsys.readouterr().err


def test_verify_tol_zero_is_kept(capsys):
    code = main(["verify", "heisenberg", "--n", "2", "--seed", "1", "--tol", "0"])
    out = json.loads(capsys.readouterr().out)
    assert out["tolerance"] == 0.0
    assert out["ok"] == (out["max_abs_error"] <= 0.0)
    assert code == (0 if out["ok"] else 2)
    code = main(["verify", "dicke", "--kind", "d1", "--n", "3", "--tol", "0"])
    out = json.loads(capsys.readouterr().out)
    assert out["tolerance"] == 0.0
    assert code == (0 if out["ok"] else 2)


def test_verify_generic_nan_coefficient(tmp_path, capsys):
    # A NaN term used to be dropped by the coefficient cutoff, giving "ok": true.
    f = tmp_path / "h.json"
    f.write_text('{"n": 1, "terms": [{"coeff": [NaN, 0], "ops": "Z"},'
                 ' {"coeff": [1, 0], "ops": "X"}]}')
    assert main(["verify", "generic", "--spec", str(f)]) == 2
    assert capsys.readouterr().out == ""


def test_non_finite_or_string_couplings(tmp_path, capsys):
    assert main(["encode", "heisenberg", "--n", "2", "--gx", "nan",
                 "-o", str(tmp_path / "enc")]) == 2
    f = tmp_path / "h.json"
    f.write_text(json.dumps({"n": 2, "gx": "0.5", "jz": 1.0}))
    assert main(["verify", "heisenberg", "--spec", str(f)]) == 2
    f.write_text('{"n": 2, "g": [[NaN, 0.5], [0.3, 0.4], [0.1, 0.9]],'
                 ' "J": [[[0.7]], [[-0.2]], [[0.6]]]}')
    assert main(["verify", "spin-glass", "--spec", str(f)]) == 2
    assert capsys.readouterr().out == ""


def test_dicke_kinds_resolve_through_one_table(capsys):
    assert main(["verify", "dicke", "--kind", "d2k", "--n", "5"]) == 2
    assert "needs k" in capsys.readouterr().err
    for kind in ("d3", "u", "d1uu", "D1"):
        assert main(["verify", "dicke", "--kind", kind, "--n", "4"]) == 2
        assert "unknown dicke kind" in capsys.readouterr().err
    assert main(["verify", "dicke", "--kind", "d2kdu", "--n", "4", "--k", "1",
                 "--alphas", "[[1, 0], [0, 1], [0.5, 0.5]]"]) == 0


@pytest.mark.parametrize("model, spec", [
    ("generic", {"n": 2, "terms": [{"coeff": ["0.5", 0], "ops": "XZ"}]}),
    ("generic", {"n": 2, "terms": [{"coeff": [0.5], "ops": "XZ"}]}),
    ("spin-glass", {"n": 2, "g": [[0.5, -0.25], [0.3, 0.4], [0.1, 0.9]], "J": 5}),
    ("heisenberg", [2, 0.5, 0.0, 0.0, 0.0, 0.0, 1.0]),
    ("dicke", ["d1", 3]),
], ids=["string-coeff", "short-coeff", "scalar-J", "list-spec", "dicke-list-spec"])
def test_malformed_spec_is_an_input_error(tmp_path, capsys, model, spec):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    assert main(["verify", model, "--spec", str(f)]) == 1
    assert "malformed" in capsys.readouterr().err


def test_malformed_alphas_is_an_input_error(capsys):
    assert main(["verify", "dicke", "--kind", "d1u", "--n", "2",
                 "--alphas", '[["a", "b"], [1, 0]]']) == 1
    assert "malformed alphas" in capsys.readouterr().err


def test_counts_dicke_k_zero_is_rejected(capsys):
    assert main(["counts", "dicke", "--kind", "d2k", "--n", "2:4", "--k", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_counts_dicke_baseline_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["counts", "dicke", "--kind", "d2k", "--n", "2:4", "--baseline"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--baseline" in captured.err


def test_counts_spin_glass_baseline(capsys):
    assert main(["counts", "spin-glass", "--n", "2:4", "--baseline"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        cells = row.split(",")
        assert int(cells[8]) > int(cells[5])  # baseline_cnot > cnot_actual


def test_counts_has_no_baseline_model():
    with pytest.raises(SystemExit) as exc:
        main(["counts", "baseline", "--n", "2:4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["counts", "dicke", "--kind", "d1", "--n", "2:3", "--k", "5"], "d1 takes no k"),
    (["counts", "heisenberg", "--n", "2:3", "--kind", "d2k"],
     "unrecognized arguments: --kind d2k"),
    (["verify", "dicke", "--kind", "d1", "--n", "3", "--alphas", "[[1, 0], [0, 1], [1, 1]]"],
     "takes no alphas"),
], ids=["counts-k-without-needs-k", "counts-kind-with-spin-model", "verify-alphas-balanced"])
def test_flag_the_model_does_not_use_is_rejected(capsys, argv, message):
    if message.startswith("unrecognized"):  # a flag the model has no parser for
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:  # a flag the model reads, with a value its kind does not take
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_counts_empty_range_is_rejected(capsys):
    assert main(["counts", "heisenberg", "--n", "5:2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty range" in captured.err


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = [line.split("#")[0] for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.startswith("foqcs ")]
    assert len(lines) >= 10
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


# SHARED_FLAGS are the flags a command used to give every model; READS are the
# flags each (command, model) pair reads. A shared flag a pair does not read exits 2.
HEISENBERG = ("--spec", "--n", "--seed", "--gx", "--gy", "--gz", "--jx", "--jy", "--jz")
SHARED_FLAGS = {"encode": HEISENBERG + ("--k", "--kind", "--tol", "--alphas", "-o"),
             "verify": HEISENBERG + ("--k", "--kind", "--tol", "--alphas"),
             "counts": ("--n", "--k", "--kind", "--seed", "--format", "--baseline", "-o")}
MODEL_FLAGS = {"heisenberg": HEISENBERG, "spin-glass": ("--spec", "--n", "--seed"),
               "generic": ("--spec",), "dicke": ("--spec", "--kind", "--n", "--k", "--alphas")}
COMMAND_FLAGS = {"encode": ("-o",), "verify": ("--tol",)}
COUNTS_FLAGS = {"heisenberg": ("--n", "--seed", "--baseline", "--format", "-o"),
                "spin-glass": ("--n", "--seed", "--baseline", "--format", "-o"),
                "dicke": ("--n", "--kind", "--k", "--format", "-o")}
VALUES = {"--n": "2", "--k": "1", "--kind": "d1", "--seed": "1", "--spec": "h.json",
          "--tol": "1", "--alphas": "[[1, 0]]", "--format": "csv", "-o": "out",
          "--baseline": None, **{f: "1" for f in HEISENBERG[3:]}}
READS = {**{("counts", m): f for m, f in COUNTS_FLAGS.items()},
         **{(c, m): f + COMMAND_FLAGS[c] for c in COMMAND_FLAGS for m, f in MODEL_FLAGS.items()}}
UNREAD = [(c, m, f) for (c, m), reads in READS.items() for f in SHARED_FLAGS[c] if f not in reads]


def _argv(flags) -> list[str]:
    return [t for f in flags for t in (f, VALUES[f]) if t is not None]


def test_each_pair_parses_the_flags_it_reads():
    for (command, model), reads in READS.items():
        build_parser().parse_args([command, model, *_argv(reads)])
    shared = sum(len(SHARED_FLAGS[c]) for c, _ in READS)
    assert (shared, sum(map(len, READS.values())), len(UNREAD)) == (129, 59, 70)


@pytest.mark.parametrize("command, model, flag", UNREAD,
                         ids=[f"{c}-{m}-{f.lstrip('-')}" for c, m, f in UNREAD])
def test_flag_a_model_does_not_read_exits_2(tmp_path, monkeypatch, capsys,
                                           command, model, flag):
    monkeypatch.chdir(tmp_path)
    argv = [command, model]
    if command == "counts":
        argv += ["--n", "2:3"]
    elif command == "encode":
        argv += ["-o", "out"]
    if model == "generic":
        argv += ["--spec", "h.json"]
    argv += _argv([flag])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    "verify heisenberg --n 2 --seed 1 --kind d1 --k 3 --alphas '[[1,0]]'",
    "encode spin-glass --n 2 --kind d2k --tol 5 -o DIR",
    "verify --n 3 heisenberg",
], ids=["verify-heisenberg-dicke-flags", "encode-spin-glass-foreign-flags", "flag-before-model"])
def test_unread_flags_once_ignored_now_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(shlex.split(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec, argv, named", [
    ({"n": 3, "gx": 1.0}, ["verify", "heisenberg", "--n", "9", "--gy", "3"], "--n, --gy"),
    ({"kind": "d1", "n": 3}, ["verify", "dicke", "--kind", "d2k", "--k", "1"], "--kind, --k"),
    ({"n": 3, "gx": 1.0}, ["encode", "heisenberg", "--seed", "0", "-o", "enc"], "--seed"),
], ids=["heisenberg-n-gy", "dicke-kind-k", "explicit-default-seed"])
def test_spec_excludes_the_flags_that_describe_the_model(tmp_path, monkeypatch, capsys,
                                                        spec, argv, named):
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(json.dumps(spec))
    assert main(argv[:2] + ["--spec", "spec.json"] + argv[2:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--spec excludes {named}" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


@pytest.mark.parametrize("argv, named", [
    ("verify heisenberg --n 3 --gx 1 --seed 1", "--gx"),
    ("encode heisenberg --n 2 --seed 0 --jx 1 --jz -1 -o enc", "--jx, --jz"),
], ids=["verify-gx", "encode-explicit-default-seed"])
def test_seed_excludes_explicit_couplings(tmp_path, monkeypatch, capsys, argv, named):
    # --seed draws all six couplings, so next to a given one it would be ignored.
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--seed draws the couplings, so it excludes {named}" in captured.err
    assert list(tmp_path.iterdir()) == []
    assert main(["verify", "heisenberg", "--n", "2", "--gx", "1"]) == 0


@pytest.mark.parametrize("model, spec, key", [
    ("heisenberg", {"n": 2, "gx": 1, "jzz": 1}, "jzz"),
    ("dicke", {"kind": "d1u", "n": 2, "alpha": [[1, 0], [0, 1]]}, "alpha"),
])
def test_spec_key_the_model_does_not_read_is_an_input_error(tmp_path, capsys, model, spec, key):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    assert main(["verify", model, "--spec", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown {model} spec keys ['{key}']" in captured.err


HUGE = 10 ** 399  # 400 digits: a JSON integer that no float can hold


@pytest.mark.parametrize("model, spec", [
    ("generic", {"n": 2, "terms": [{"coeff": [HUGE, 0], "ops": "XZ"}]}),
    ("heisenberg", {"n": 2, "gx": HUGE, "jz": 1.0}),
    ("spin-glass", {"n": 2, "g": [[HUGE, 0.5], [0.3, 0.4], [0.1, 0.9]],
                    "J": [[[0.7]], [[-0.2]], [[0.6]]]}),
    ("dicke", {"kind": "d1u", "n": 2, "alphas": [[HUGE, 0], [1, 0]]}),
], ids=["generic-coeff", "heisenberg-gx", "spin-glass-g", "dicke-alphas"])
def test_huge_json_integer_is_an_input_error(tmp_path, capsys, model, spec):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    assert main(["verify", model, "--spec", str(f)]) == 1
    assert capsys.readouterr().out == ""


def test_huge_alphas_flag_integer_is_an_input_error(capsys):
    assert main(["verify", "dicke", "--kind", "d1u", "--n", "2",
                 "--alphas", json.dumps([[HUGE, 0], [1, 0]])]) == 1
    assert capsys.readouterr().out == ""


def test_amplitude_norm_overflow_is_a_domain_error(capsys):
    assert main(["verify", "dicke", "--kind", "d1u", "--n", "2",
                 "--alphas", "[[1e200, 0], [1, 0]]"]) == 2
    assert capsys.readouterr().out == ""


def test_verify_hamiltonian_below_the_term_cutoff_is_a_domain_error(capsys):
    # every term is dropped, so H/||H||_1 would be 0/0
    assert main(["verify", "heisenberg", "--n", "2", "--gx", "1e-16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cutoff" in captured.err


@pytest.mark.parametrize("argv", [
    ["counts", "dicke", "--kind", "d2k", "--n", "1"],
    ["counts", "dicke", "--kind", "d2kd", "--n", "1,2"],
], ids=["d2k-n1", "d2kd-n1-first"])
def test_counts_dicke_n_without_a_k_is_rejected(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no k" in captured.err


# Every model's width is at least n, so verify refuses an n over its cap
# before a model is drawn: at 1e5 the spin-glass J alone would take 224 GiB,
# and at 1e20 the Heisenberg build would not end. counts and encode have no
# cap, and an n too large for the machine is an input error.
HUGE_N = str(10**20)


@pytest.mark.parametrize("argv, code", [
    (["verify", "spin-glass", "--n", "100000"], 3),
    (["verify", "heisenberg", "--n", HUGE_N], 3),
    (["verify", "dicke", "--kind", "d1", "--n", HUGE_N], 3),
    (["counts", "heisenberg", "--n", f"2:{HUGE_N}"], 1),
    (["counts", "dicke", "--kind", "d1", "--n", HUGE_N], 1),
    (["encode", "dicke", "--kind", "d1", "--n", HUGE_N, "-o", "out"], 1),
], ids=["verify-spin-glass", "verify-heisenberg", "verify-dicke", "counts-heisenberg",
        "counts-dicke", "encode-dicke"])
def test_huge_n_exits_with_its_code_before_building(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model, spec", [
    ("spin-glass", {"n": 100000, "g": [], "J": []}),
    ("heisenberg", {"n": 10**20, "gx": 1.0}),
    ("generic", {"n": 22, "terms": [{"coeff": [1.0, 0.0], "ops": "X" * 22}]}),
    ("dicke", {"kind": "d1", "n": 22}),
], ids=["spin-glass", "heisenberg", "generic", "dicke"])
def test_verify_refuses_a_spec_n_over_the_cap_before_reading_the_model(
        tmp_path, monkeypatch, capsys, model, spec):
    def refuse(d):
        raise AssertionError("the model was read")

    for cls in (SpinGlassParams, HeisenbergParams, PauliSum):
        monkeypatch.setattr(cls, "from_dict", refuse)
    monkeypatch.setattr(foqcs.cli, "_dicke_fields", refuse)
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    assert main(["verify", model, "--spec", str(f)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "over verify cap" in captured.err


def test_python_m_foqcs_runs_the_cli(capsys):
    argv = ["counts", "dicke", "--kind", "d1", "--n", "3"]
    code = main(argv)
    env = {**os.environ, "PYTHONPATH": str(Path(foqcs.cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "foqcs", *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out)
