"""The BlockEncoding: PR and SELECT kept apart, PL = conj(PR) never built, and
PL-dagger = PR-transpose built only for export."""
import json
from collections import Counter

import numpy as np
import pytest

from foqcs import baseline, cli, encoder, report, sim
from foqcs import circuit as circuit_mod
from foqcs.baseline import standard_lcu
from foqcs.circuit import (
    DIAGONAL_KINDS,
    GATE_KINDS,
    KINDS,
    BlockEncoding,
    Circuit,
    Gate,
    cgamma,
    cnot,
    count,
    dagger_gates,
    export_lowered,
    export_qasm,
    gamma,
    h,
    lower,
    ry,
    transpose_gates,
)
from foqcs.encoder import (
    generic_foqcs,
    heisenberg_encoding,
    heisenberg_pr,
    spin_glass_encoding,
    spin_glass_pr,
)
from foqcs.errors import DomainError
from foqcs.models import (
    HeisenbergParams,
    heisenberg_hamiltonian,
    random_heisenberg,
    random_spin_glass,
)
from foqcs.pauli import PauliSum, PauliTerm
from foqcs.sim import circuit_unitary, extract_block
from tests.test_encoder import random_pauli_sum
from tests.test_sim import _per_column_block

ANGLES = (0.0, 1.234, -2.9, np.pi, -np.pi)


def _encodings(rng):
    """Every encoder on random parameters, the single-term baseline included."""
    out = []
    for n in (2, 3, 5):
        p = random_heisenberg(n, rng)
        out += [heisenberg_encoding(p), standard_lcu(heisenberg_hamiltonian(p))]
    out.append(heisenberg_encoding(HeisenbergParams(4, 0.7, 0.0, -0.3, 0.0, 1.1, 0.0)))
    for n in (2, 3, 4):
        out.append(spin_glass_encoding(random_spin_glass(n, rng)))
    for n in (1, 2, 3):
        hs = random_pauli_sum(rng, n, hermitian=True)
        out += [generic_foqcs(hs), standard_lcu(hs)]
    out.append(standard_lcu(PauliSum(2, [PauliTerm(-0.4j, "YZ")])))
    return out


def test_count_of_encoding_equals_count_of_flat_circuit():
    rng = np.random.default_rng(601)
    for be in _encodings(rng):
        assert count(be) == count(be.circuit)


@pytest.mark.parametrize("kind", sorted(set(GATE_KINDS) - {"cgamma"}))
def test_adjoint_has_the_lowered_cost_of_the_gate(kind):
    arity, angled = GATE_KINDS[kind]
    for angle in ANGLES if angled else (None,):
        g = Gate(kind, tuple(range(arity))[::-1], angle)
        assert count(Circuit(3, tuple(dagger_gates([g])))) == count(Circuit(3, (g,)))
        assert count(Circuit(3, tuple(transpose_gates([g])))) == count(Circuit(3, (g,)))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_transpose_rule_holds_for_every_kind(kind):
    # Every kind is diagonal or real; one that is neither fails here, before
    # export writes a wrong PL-dagger.
    row = KINDS[kind]
    for angle in ANGLES if row.angled else (None,):
        u = row.unitary(angle)
        if kind in DIAGONAL_KINDS:
            assert np.array_equal(u, np.diag(np.diag(u))), (kind, angle)
        else:
            assert not np.any(u.imag), (kind, angle)
        g = Gate(kind, tuple(range(row.arity)), angle)
        if row.adjoint is None:  # cgamma: prep must not hold it
            with pytest.raises(DomainError, match=kind):
                transpose_gates([g])
            continue
        t = Circuit(row.arity, tuple(transpose_gates([g])))
        np.testing.assert_allclose(circuit_unitary(t), circuit_unitary(Circuit(row.arity, (g,))).T,
                                   atol=1e-14, rtol=0)


def test_transpose_of_a_sequence_reverses_it():
    rng = np.random.default_rng(605)
    gates = [Gate(kind, tuple(int(q) for q in rng.permutation(3)[:arity]),
                  float(rng.uniform(-np.pi, np.pi)) if angled else None)
             for kind, (arity, angled) in GATE_KINDS.items() if kind != "cgamma"]
    u = circuit_unitary(Circuit(3, tuple(gates)))
    np.testing.assert_allclose(circuit_unitary(Circuit(3, tuple(transpose_gates(gates)))), u.T,
                               atol=1e-13, rtol=0)


def test_encoding_prep_is_the_pr_oracle():
    rng = np.random.default_rng(602)
    for n in (2, 3, 6):
        p = random_heisenberg(n, rng)
        assert heisenberg_encoding(p).prep == heisenberg_pr(p).gates
    for n in (2, 4):
        q = random_spin_glass(n, rng)
        assert spin_glass_encoding(q).prep == spin_glass_pr(q).gates


def test_flat_circuit_is_prep_select_then_unprep_adjoint():
    # PL-dagger = PR-transpose.
    be = heisenberg_encoding(random_heisenberg(3, np.random.default_rng(603)))
    c = be.circuit
    assert c.width == be.width and c.layout == be.layout
    assert c.gates == be.prep + be.select.gates + tuple(transpose_gates(be.prep))


def test_export_lowered_of_every_encoding_equals_the_export_of_its_lowered_flat_circuit():
    # generic_foqcs's and standard_lcu's PRs hold ry and cnot, and the paper
    # encoders' gamma, cnot, toffoli and x: non-diagonal kinds, exported
    # through their adjoints.
    for be in _encodings(np.random.default_rng(605)):
        low = lower(be.circuit)
        assert list(export_lowered(be)) == [export_qasm(low), low.to_json()]


def test_encode_builds_neither_the_flat_nor_the_lowered_circuit(monkeypatch, tmp_path):
    spec = tmp_path / "h.json"
    spec.write_text(json.dumps({"n": 2, "terms": [{"coeff": [0.5, 0], "ops": "XZ"},
                                                  {"coeff": [-0.3, 0], "ops": "YY"}]}))
    commands = (["heisenberg", "--n", "3", "--seed", "1"], ["spin-glass", "--n", "2"],
                ["generic", "--spec", str(spec)],
                ["dicke", "--kind", "d2kd", "--n", "4", "--k", "1"])
    for i, argv in enumerate(commands):
        assert cli.main(["encode", *argv, "-o", str(tmp_path / f"ref{i}")]) == 0

    def boom(*args):
        raise AssertionError("the flat or the lowered circuit was built")

    monkeypatch.setattr(circuit_mod, "lower", boom)
    monkeypatch.setattr(BlockEncoding, "circuit", property(boom))
    for i, argv in enumerate(commands):
        assert cli.main(["encode", *argv, "-o", str(tmp_path / f"out{i}")]) == 0
        for name in ("circuit.qasm", "circuit.json", "meta.json"):
            assert ((tmp_path / f"out{i}" / name).read_bytes()
                    == (tmp_path / f"ref{i}" / name).read_bytes()), (argv, name)


@pytest.mark.parametrize("name", ["heisenberg2", "heisenberg3", "spin_glass2", "spin_glass3",
                                  "standard_lcu", "generic1", "generic2", "generic3"])
def test_three_part_block_equals_lowered_flat_block(name):
    rng = np.random.default_rng(604)
    build = {
        "heisenberg2": lambda: heisenberg_encoding(random_heisenberg(2, rng)),
        "heisenberg3": lambda: heisenberg_encoding(random_heisenberg(3, rng)),
        "spin_glass2": lambda: spin_glass_encoding(random_spin_glass(2, rng)),
        "spin_glass3": lambda: spin_glass_encoding(random_spin_glass(3, rng)),
        "standard_lcu": lambda: standard_lcu(heisenberg_hamiltonian(random_heisenberg(2, rng))),
        "generic1": lambda: generic_foqcs(random_pauli_sum(rng, 1, hermitian=True)),
        "generic2": lambda: generic_foqcs(random_pauli_sum(rng, 2, hermitian=True)),
        "generic3": lambda: generic_foqcs(random_pauli_sum(rng, 3, hermitian=True)),
    }
    be = build[name]()
    # Dense per column: the lowered circuit's rounding residues spread a sparse
    # run over half the 2^18 basis at spin glass n = 3.
    ref = _per_column_block(lower(be.circuit))
    rep = extract_block(be, ref)
    assert rep.max_abs_error < 1e-13


LAYOUT = {"anc": (0, 3), "system": (3, 2)}


def _select(gates=()):
    return Circuit(5, tuple(gates), LAYOUT)


# prep is the one ancilla part: PL is conj(PR).
@pytest.mark.parametrize("part", ["prep"])
@pytest.mark.parametrize("gate", [cnot(0, 3), ry(0.3, 4), gamma(0.2, 2, 3), ry(0.3, -1)])
def test_ancilla_part_off_the_ancillae_is_rejected(part, gate):
    with pytest.raises(DomainError, match=f"{part} gate .* ancillae below the system"):
        BlockEncoding(_select(), 1.0, **{part: [h(0), gate]})


def test_cgamma_is_rejected_in_prep():
    # PR's transpose must be exportable, and cgamma has no exact adjoint.
    g = cgamma(0.4, 0, 1, 2)
    BlockEncoding(_select([g]), 1.0)
    with pytest.raises(DomainError, match="cgamma"):
        BlockEncoding(_select(), 1.0, prep=[h(0), g])


def test_parts_must_agree_on_the_width():
    with pytest.raises(DomainError, match="top qubits"):
        BlockEncoding(Circuit(6, (), LAYOUT), 1.0)
    with pytest.raises(DomainError, match="system"):
        BlockEncoding(Circuit(5, (), {"anc": (0, 3)}), 1.0)


def test_no_module_binds_its_own_adjoint():
    # So patching foqcs.circuit's dagger_gates and transpose_gates below
    # reaches every caller.
    for mod in (baseline, cli, encoder, report, sim):
        assert not hasattr(mod, "dagger_gates"), mod.__name__
        assert not hasattr(mod, "transpose_gates"), mod.__name__


def test_counts_and_verify_never_build_the_flat_circuit(monkeypatch, tmp_path, capsys):
    def boom(*args):
        raise AssertionError("PL-dagger or the flat circuit was built")

    monkeypatch.setattr(circuit_mod, "dagger_gates", boom)
    monkeypatch.setattr(circuit_mod, "transpose_gates", boom)
    monkeypatch.setattr(BlockEncoding, "circuit", property(boom))
    spec = tmp_path / "h.json"
    spec.write_text(json.dumps({"n": 2, "terms": [{"coeff": [0.5, 0], "ops": "XZ"},
                                                  {"coeff": [-0.3, 0], "ops": "YY"}]}))
    for argv in (["counts", "heisenberg", "--n", "2:6", "--baseline"],
                 ["counts", "spin-glass", "--n", "2:4", "--baseline"],
                 ["verify", "heisenberg", "--n", "3", "--seed", "1"],
                 ["verify", "spin-glass", "--n", "2", "--seed", "1"],
                 ["verify", "generic", "--spec", str(spec)]):
        assert cli.main(argv) == 0, argv
    # n = 13's dense reference is over the entry budget, refused before a build.
    assert cli.main(["verify", "heisenberg", "--n", "13"]) == 3
    # encode does export PR's transpose, through dagger_gates, so the patch is live.
    with pytest.raises(AssertionError):
        cli.main(["encode", "heisenberg", "--n", "2", "-o", str(tmp_path / "enc")])


def test_each_encoding_builds_and_runs_its_pr_once(monkeypatch, capsys):
    calls = Counter()

    def counted(mod, name):
        build = getattr(mod, name)

        def wrapper(*args, **kwargs):
            # A sparse run is keyed by its truncate flag: PR is the truncated one.
            calls[(name, kwargs.get("truncate", False)) if name == "_run_sparse" else name] += 1
            return build(*args, **kwargs)
        monkeypatch.setattr(mod, name, wrapper)

    for mod, name in ((encoder, "_heisenberg_pr_gates"), (encoder, "_spin_glass_pr_gates"),
                      (encoder, "state_prep_gates"), (baseline, "state_prep_gates"),
                      (sim, "_run_gates"), (sim, "_run_sparse")):
        counted(mod, name)
    rng = np.random.default_rng(606)
    h3 = heisenberg_hamiltonian(random_heisenberg(3, rng))
    for build, name in ((lambda: heisenberg_encoding(random_heisenberg(3, rng)),
                         "_heisenberg_pr_gates"),
                        (lambda: spin_glass_encoding(random_spin_glass(3, rng)),
                         "_spin_glass_pr_gates"),
                        (lambda: generic_foqcs(random_pauli_sum(rng, 2, hermitian=True)),
                         "state_prep_gates"),
                        (lambda: standard_lcu(h3), "state_prep_gates")):
        calls.clear()
        count(build())
        assert calls == {name: 1}, name
    for model, name in (("heisenberg", "_heisenberg_pr_gates"),
                        ("spin-glass", "_spin_glass_pr_gates")):
        calls.clear()
        assert cli.main(["verify", model, "--n", "3", "--seed", "1"]) == 0
        assert calls.pop(("_run_sparse", False)) >= 1, model  # the SELECT passes
        assert calls == {name: 1, ("_run_sparse", True): 1}, model  # no dense run
