import pytest

from foqcs.errors import DomainError
from foqcs.report import CSV_COLUMNS, predict, rows_to_csv, rows_to_json, sweep


def test_predict_formulas():
    p = predict("heisenberg", 8)
    assert (p.cnot_lo, p.cnot_hi, p.toffoli) == (376, 376, 44)
    p = predict("spin_glass", 8)
    assert (p.cnot_lo, p.cnot_hi) == (24 * 64 + 24 * 8 - 20, 30 * 64 + 30 * 8 - 20)
    assert p.toffoli == 128
    assert predict("d2kd", 6, 2).cnot_lo == 16
    assert predict("d1", 5).cnot_lo == 8
    assert predict("d2k", 8, 2).cnot_lo == 16
    with pytest.raises(DomainError):
        predict("nope", 4)
    with pytest.raises(DomainError):
        predict("d2k", 4)


def test_sweep_heisenberg_exact():
    rows = sweep("heisenberg", [2, 4, 8], seed=1)
    for r in rows:
        assert r.actual.cnot_equivalent == r.predicted.cnot_lo
        assert r.actual.toffoli == r.predicted.toffoli


def test_sweep_dicke_formula():
    rows = sweep("d1", range(2, 12))
    assert [r.actual.cnot_equivalent for r in rows] == [2 * n - 2 for n in range(2, 12)]
    rows = sweep("d2kd", [6])
    assert all(r.actual.cnot_equivalent == 4 * 6 - 3 * r.k - 2 for r in rows)


def test_sweep_spin_glass_bounds():
    for r in sweep("spin_glass", [2, 3, 4], seed=2):
        assert r.predicted.cnot_lo <= r.actual.cnot_equivalent <= r.predicted.cnot_hi
        assert r.actual.toffoli == r.predicted.toffoli


def test_csv_and_json():
    rows = sweep("heisenberg", [2, 3], seed=0, include_baseline=True)
    text = rows_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == 3
    assert rows[0].baseline_cnot is not None
    j = rows_to_json(rows)
    assert '"cnot_actual"' in j


def test_sweep_reproducible():
    a = rows_to_csv(sweep("spin_glass", [3], seed=5))
    b = rows_to_csv(sweep("spin_glass", [3], seed=5))
    assert a == b


def test_heisenberg_exact_up_to_64():
    # formula exactness needs no simulation, only structural counting
    for r in sweep("heisenberg", [24, 32, 48, 64], seed=3):
        assert r.actual.cnot_equivalent == 46 * r.n + 8
        assert r.actual.toffoli == 6 * r.n - 4


def test_spin_glass_bounds_up_to_12():
    import numpy as np

    from foqcs.circuit import count as count_circ
    from foqcs.encoder import spin_glass_encoding
    from foqcs.models import random_spin_glass

    rng = np.random.default_rng(6)
    for n in (11, 12):
        lo, hi = 24 * n * n + 24 * n - 20, 30 * n * n + 30 * n - 20
        for _ in range(10):
            p = random_spin_glass(n, rng)
            rep = count_circ(spin_glass_encoding(p).circuit)
            assert lo <= rep.cnot_equivalent <= hi
            assert rep.toffoli == 2 * n * n


def test_sweep_baseline_serves_both_spin_models():
    for model in ("heisenberg", "spin_glass"):
        rows = sweep(model, [2, 3], seed=4, include_baseline=True)
        assert all(r.baseline_cnot > r.actual.cnot_equivalent for r in rows)
    assert all(r.baseline_cnot is None for r in sweep("spin_glass", [2, 3], seed=4))
    with pytest.raises(DomainError):
        sweep("d1", [3], include_baseline=True)
    with pytest.raises(DomainError):
        sweep("baseline", [3])


def test_sweep_rejects_k_the_model_does_not_use():
    for model in ("heisenberg", "spin_glass", "d1", "d1d"):
        with pytest.raises(DomainError, match="takes no k"):
            sweep(model, [3], k=1)
    with pytest.raises(DomainError, match="unknown model"):
        sweep("d3", [], k=1)
    assert [r.k for r in sweep("d2k", [4], k=2)] == [2]
