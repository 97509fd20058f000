import tracemalloc

import numpy as np
import pytest

from foqcs.errors import DomainError, ResourceGuardError, check_entries
from foqcs.models import (
    HeisenbergParams,
    SpinGlassParams,
    _draw,
    heisenberg_hamiltonian,
    random_heisenberg,
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


def _draw_one_at_a_time(rng, count):
    """Reference: one uniform draw per call, rejecting |v| < 1e-3."""
    out = np.empty(count)
    for i in range(count):
        v = 0.0
        while abs(v) < 1e-3:
            v = rng.uniform(-1.0, 1.0)
        out[i] = v
    return out


class _Stream:
    """A stand-in generator whose uniform draws come from a fixed list."""

    def __init__(self, values):
        self.values = list(values)
        self.read = 0

    def uniform(self, low, high, size=None):
        n = 1 if size is None else size
        out = self.values[self.read:self.read + n]
        assert len(out) == n, "stream exhausted"
        self.read += n
        return out[0] if size is None else np.array(out)


def test_bulk_draw_reads_the_stream_as_one_draw_at_a_time():
    # Rejected values (|v| < 1e-3, signed zeros, the threshold's neighbours)
    # at the start, in runs, and right after the last accepted value.
    stream = [0.0, 0.5, -1e-4, 1e-3, -0.0, 9.99e-4, -0.999, 0.2, -1e-3, 1e-9, 1e-9,
              0.7, 3e-4, -0.3, 0.0005, 0.9, -0.6, 0.0, 0.1]
    for count in range(11):  # the stream holds 10 accepted values
        ref, bulk = _Stream(stream), _Stream(stream)
        want = _draw_one_at_a_time(ref, count)
        got = _draw(bulk, count)
        assert got.tobytes() == want.tobytes()
        assert bulk.read == ref.read


def _spin_glass_one_draw_at_a_time(n, rng):
    g = _draw_one_at_a_time(rng, 3 * n).reshape(3, n)
    J = np.zeros((3, n, n))
    for a in range(3):
        for l in range(n):
            J[a, l, l + 1:] = _draw_one_at_a_time(rng, n - 1 - l)
    return g, J


@pytest.mark.parametrize("n", [2, 3, 7, 24])
def test_random_models_match_one_draw_at_a_time(n):
    for seed in range(40):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        p = random_spin_glass(n, rng)
        g, J = _spin_glass_one_draw_at_a_time(n, ref)
        assert (p.g.tobytes(), p.J.tobytes()) == (g.tobytes(), J.tobytes())
        h = random_heisenberg(n, rng)
        assert [h.gx, h.gy, h.gz, h.jx, h.jy, h.jz] == _draw_one_at_a_time(ref, 6).tolist()
        assert rng.bit_generator.state == ref.bit_generator.state


def test_spin_glass_couplings_over_the_entry_budget_are_refused():
    # 3 n^2 couplings: 3 * 2364^2 entries fit the 2^24 budget, 3 * 2365^2 do not,
    # and the refusal comes before the array is allocated.
    check_entries("J", 3 * 2364**2)
    for build in (lambda: random_spin_glass(2365, np.random.default_rng(0)),
                  lambda: SpinGlassParams.from_dict({"n": 2365, "g": [], "J": []})):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceGuardError, match="3 x 2365 x 2365 spin-glass couplings"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6  # J alone would be 134 MB
