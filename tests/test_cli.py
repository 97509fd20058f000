import json
import re
import shlex
from pathlib import Path

import pytest

from foqcs.cli import build_parser, main


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
