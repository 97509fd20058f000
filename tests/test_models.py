import numpy as np
import pytest

from foqcs.errors import DomainError
from foqcs.models import (
    HeisenbergParams,
    SpinGlassParams,
    heisenberg_hamiltonian,
    random_spin_glass,
    spin_glass_hamiltonian,
)
from foqcs.pauli import one_norm


def test_heisenberg_terms():
    h = heisenberg_hamiltonian(HeisenbergParams(2, gx=1.0, jz=0.5))
    labels = {(t.label(), t.coefficient) for t in h.terms}
    assert labels == {("IX", 1.0), ("XI", 1.0), ("ZZ", 0.5)}


def test_heisenberg_validation():
    with pytest.raises(DomainError):
        HeisenbergParams(1, gx=1.0)
    with pytest.raises(DomainError):
        HeisenbergParams(3)
    for bad in (float("nan"), float("inf"), "0.5"):
        with pytest.raises(DomainError):
            HeisenbergParams(3, gx=1.0, jy=bad)


def test_heisenberg_from_dict():
    assert HeisenbergParams.from_dict({"n": 3, "gx": 0.5, "jz": 1}) == HeisenbergParams(
        3, gx=0.5, jz=1.0)
    with pytest.raises(ValueError, match=r"\['jzz'\]"):
        HeisenbergParams.from_dict({"n": 2, "gx": 1, "jzz": 1})


def test_spin_glass_must_be_finite():
    p = random_spin_glass(3, np.random.default_rng(3))
    for bad in (np.nan, np.inf):
        g, J = p.g.copy(), p.J.copy()
        g[1, 2] = bad
        J[2, 0, 1] = bad  # upper triangle, so only the finiteness check can reject it
        with pytest.raises(DomainError):
            SpinGlassParams(3, g, p.J)
        with pytest.raises(DomainError):
            SpinGlassParams(3, p.g, J)


def test_normalization_matches_one_norm():
    p = HeisenbergParams(4, 1, 1, 1, 1, 1, 1)
    assert p.normalization() == pytest.approx(21.0)
    assert one_norm(heisenberg_hamiltonian(p)) == pytest.approx(p.normalization())
    sg = random_spin_glass(4, np.random.default_rng(0))
    assert one_norm(spin_glass_hamiltonian(sg)) == pytest.approx(sg.normalization())


def test_spin_glass_triangularity():
    g = np.ones((3, 3))
    bad = np.zeros((3, 3, 3))
    bad[0, 2, 1] = 1.0
    with pytest.raises(DomainError):
        SpinGlassParams(3, g, bad)


def test_spin_glass_json_round_trip():
    p = random_spin_glass(4, np.random.default_rng(1))
    q = SpinGlassParams.from_dict(p.to_dict())
    np.testing.assert_allclose(q.g, p.g)
    np.testing.assert_allclose(q.J, p.J)


def test_spin_glass_term_count():
    p = random_spin_glass(3, np.random.default_rng(2))
    h = spin_glass_hamiltonian(p)
    # 3n one-body + 3*(n choose 2) two-body terms
    assert len(h) == 9 + 9
