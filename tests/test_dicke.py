import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from foqcs.circuit import count
from foqcs.dicke import (
    DICKE_KINDS,
    AmplitudeList,
    balanced_thetas,
    cnot_chain,
    dicke_state_map,
    elementwise_copy,
    prepare_dicke1,
    prepare_dicke2k,
    prepare_double,
    staircase,
    unbalanced_angles,
)
from foqcs.errors import DomainError
from foqcs.sim import StateVector, assert_state, simulate


def random_amplitudes(rng, m):
    return AmplitudeList(rng.normal(size=m) + 1j * rng.normal(size=m))


def test_balanced_is_fixed_point_of_unbalanced_angles():
    for n in range(2, 11):
        a = AmplitudeList([1.0] * n)
        ang = unbalanced_angles(a)
        np.testing.assert_allclose(ang.thetas, balanced_thetas(n), atol=1e-14)
        assert all(e == 0 for e in ang.etas)


def test_all_weight_on_site_zero():
    ang = unbalanced_angles(AmplitudeList([1.0] + [0.0] * 5))
    assert ang.thetas[-1] == 0.0
    assert all(t == 0.0 for t in ang.thetas)


def _quadratic_angles(mags):
    """(theta_l, remaining weight) for l = 1..n-1 by the formula as first
    written, which re-sums each prefix: O(n^2). The reference for the running
    sum; like it, it gives 0 at and after the last nonzero amplitude."""
    n = len(mags)
    last = max(j for j, m in enumerate(mags) if m)
    out = []
    for l in range(1, n):
        rem = 1.0 - sum(m * m for m in mags[: n - l - 1])
        if n - l - 1 >= last or rem < 1e-14:
            out.append((0.0, rem))
        else:
            ratio = min(1.0, max(0.0, mags[n - l - 1] / math.sqrt(rem)))
            out.append((2.0 * math.acos(ratio), rem))
    return out


# Before 3.12, sum() of floats adds left to right as the running sum does, so
# the angles agree to the bit. From 3.12 sum() is compensated: the reference's
# remaining weight can differ by a few ulp of 1, so the ratio cos(theta/2) =
# |a_j| / sqrt(rem) may differ by a few ulp over rem.
EXACT_SUM = sys.version_info < (3, 12)
AMPLITUDE = st.one_of(st.just(0j), st.builds(cmath.rect, st.floats(1e-6, 1.0),
                                              st.floats(-math.pi, math.pi)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(AMPLITUDE, min_size=1, max_size=24))
@example([1.0, 0.0, 0.0, 0.0])  # all weight placed at site 0
@example([0.6, 0.8, 0.0, 0.0, 0.0])  # the weight runs out partway: rem < 1e-14
@example([0.0, 0.0, 1j, 0.5])
def test_unbalanced_angles_match_the_quadratic_formula(alphas):
    assume(any(alphas))  # an all-zero list has no angles: AmplitudeList rejects it
    a = AmplitudeList(alphas)
    mags = [abs(v) for v in a.alphas]
    got = unbalanced_angles(a).thetas
    want = _quadratic_angles(mags)
    assert len(got) == len(want)
    if EXACT_SUM:
        assert [t.hex() for t in got] == [t.hex() for t, _ in want]
        return
    for t, (w, rem) in zip(got, want):
        if rem >= 2e-14:  # near 1e-14 a few ulp can flip the degenerate branch
            tol = 8 * len(mags) * sys.float_info.epsilon / rem
            assert math.cos(t / 2) == pytest.approx(math.cos(w / 2), rel=0, abs=tol)


@pytest.mark.parametrize("alphas", [[1.0, 0.0, 0.0, 0.0], [0.6, 0.8, 0.0, 0.0, 0.0]])
def test_degenerate_branch_is_reached(alphas):
    mags = [abs(v) for v in AmplitudeList(alphas).alphas]
    assert min(rem for _, rem in _quadratic_angles(mags)) < 1e-14


def test_unbalanced_prep_matches_amplitudes():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a = random_amplitudes(rng, n)
        st = simulate(prepare_dicke1(n, a))
        expected = {1 << l: a.alphas[l] for l in range(n)}
        ref = np.zeros(1 << n, complex)
        for i, v in expected.items():
            ref[i] = v
        np.testing.assert_allclose(st.amps, ref, atol=1e-12)


def test_staircase_structure_and_identity():
    c = staircase(2, balanced_thetas(2))
    assert len(c.gates) == 1 and c.gates[0].kind == "gamma"
    for n in range(2, 9):
        st = simulate(staircase(n, balanced_thetas(n)))
        ref = np.zeros(1 << n, complex)
        ref[0] = 1.0
        np.testing.assert_allclose(st.amps, ref, atol=1e-14)
        assert count(staircase(n, balanced_thetas(n))).cnot_equivalent == 2 * n - 2


def test_cnot_chain_action():
    # Each CNOT of the ladder fires on exactly one basis component.
    for n in range(3, 7):
        chain = cnot_chain(n, -1, n - 1)
        for l in range(n - 1):
            st = simulate(chain, StateVector.basis(n, 1 << (l + 1)))
            ref = np.zeros(1 << n, complex)
            ref[(1 << l) | (1 << (l + 1))] = 1.0
            np.testing.assert_allclose(st.amps, ref, atol=1e-15)
    for n, k in [(5, 2), (6, 3)]:
        assert len(cnot_chain(n, -k, n - k).gates) == n - k


def test_cnot_chain_positive_offset():
    # target above the control: |2^l> -> |2^l + 2^(l+k)>
    n, k = 6, 2
    chain = cnot_chain(n, k, n - k)
    for l in range(n - k):
        st = simulate(chain, StateVector.basis(n, 1 << l))
        ref = np.zeros(1 << n, complex)
        ref[(1 << l) | (1 << (l + k))] = 1.0
        np.testing.assert_allclose(st.amps, ref, atol=1e-15)
    with pytest.raises(DomainError):
        cnot_chain(4, 0, 2)
    with pytest.raises(DomainError):
        cnot_chain(4, -2, 4)


def test_elementwise_copy():
    ec = elementwise_copy(3)
    assert len(ec.gates) == 3
    for l in range(3):
        st = simulate(ec, StateVector.basis(6, 1 << l))
        ref = np.zeros(64, complex)
        ref[(1 << l) | (1 << (3 + l))] = 1.0
        np.testing.assert_allclose(st.amps, ref, atol=1e-15)
    st = simulate(ec)
    assert st.amps[0] == 1.0


def test_prepare_dicke1_balanced():
    st = simulate(prepare_dicke1(2))
    np.testing.assert_allclose(st.amps, np.array([0, 1, 1, 0]) / math.sqrt(2), atol=1e-15)
    assert count(prepare_dicke1(5)).cnot_equivalent == 8
    with pytest.raises(DomainError):
        prepare_dicke1(1)


def test_prepare_dicke1_weighted_example():
    a = AmplitudeList([0.6, 0.8j])
    st = simulate(prepare_dicke1(2, a))
    np.testing.assert_allclose(st.amps, [0, 0.6, 0.8j, 0], atol=1e-14)


def test_prepare_dicke2k():
    r = assert_state(prepare_dicke2k(5, 1),
                     {(1 << l) | (1 << (l + 1)): 0.5 for l in range(4)})
    assert r.ok
    assert count(prepare_dicke2k(8, 2)).cnot_equivalent == 16
    r = assert_state(prepare_dicke2k(2, 1), {3: 1.0})
    assert r.ok
    with pytest.raises(DomainError):
        prepare_dicke2k(4, 4)


def test_prepare_double():
    assert count(prepare_double(5)).cnot_equivalent == 13
    assert count(prepare_double(5, 1)).cnot_equivalent == 15
    r = assert_state(prepare_double(2),
                     {0b0101: 2 ** -0.5, 0b1010: 2 ** -0.5})
    assert r.ok
    for k in (0, 3):  # k alone picks the pair state, so it must be a separation
        with pytest.raises(DomainError, match=r"k must be in \[1, 2\]"):
            prepare_double(3, k)


@pytest.mark.parametrize("kind", ["d1", "d1d", "d2k", "d2kd"])
def test_builders_match_closed_form(kind):
    rng = np.random.default_rng(11)
    for n in range(2, 9):
        ks = [None] if kind in ("d1", "d1d") else range(1, n)
        for k in ks:
            if kind == "d1":
                circ = prepare_dicke1(n)
            elif kind == "d1d":
                circ = prepare_double(n)
            elif kind == "d2k":
                circ = prepare_dicke2k(n, k)
            else:
                circ = prepare_double(n, k)
            r = assert_state(circ, dicke_state_map(kind, n, k), tol=1e-12)
            assert r.ok, (kind, n, k, r.max_abs_error)
            # unbalanced variant on random complex amplitudes
            m = n if kind in ("d1", "d1d") else n - k
            a = random_amplitudes(rng, m)
            if kind == "d1":
                circ = prepare_dicke1(n, a)
            elif kind == "d1d":
                circ = prepare_double(n, a=a)
            elif kind == "d2k":
                circ = prepare_dicke2k(n, k, a)
            else:
                circ = prepare_double(n, k, a)
            r = assert_state(circ, dicke_state_map(kind, n, k, a), tol=1e-12)
            assert r.ok, (kind, n, k, r.max_abs_error)


def test_hamming_weights():
    # Every component of a pair state has weight 2; doubles split evenly.
    st = simulate(prepare_dicke2k(6, 2))
    for idx in np.nonzero(np.abs(st.amps) > 1e-12)[0]:
        assert bin(int(idx)).count("1") == 2
    st = simulate(prepare_double(4, 1))
    for idx in np.nonzero(np.abs(st.amps) > 1e-12)[0]:
        idx = int(idx)
        lo, hi = idx & 0b1111, idx >> 4
        assert bin(lo).count("1") == 2 and bin(hi).count("1") == 2
    st = simulate(prepare_double(4))
    for idx in np.nonzero(np.abs(st.amps) > 1e-12)[0]:
        idx = int(idx)
        assert bin(idx & 0b1111).count("1") == 1 and bin(idx >> 4).count("1") == 1


def test_phase_gates_only_when_needed():
    # positive amplitudes need no phase corrections
    a = AmplitudeList([0.5, 0.5, math.sqrt(0.5)])
    circ = prepare_dicke1(3, a)
    assert all(g.kind != "phase" for g in circ.gates)
    b = AmplitudeList([0.5, 0.5j, math.sqrt(0.5)])
    circ = prepare_dicke1(3, b)
    assert sum(1 for g in circ.gates if g.kind == "phase") == 1


def test_registry_builds_match_closed_form():
    rng = np.random.default_rng(12)
    assert set(DICKE_KINDS) == {"d1", "d2k", "d1d", "d2kd"}
    for kind, spec in DICKE_KINDS.items():
        for n in range(2, 7):
            for k in range(1, n) if spec.needs_k else [None]:
                m = n - k if spec.needs_k else n
                for a in (None, random_amplitudes(rng, m)):
                    r = assert_state(spec.build(n, k, a), dicke_state_map(kind, n, k, a))
                    assert r.ok, (kind, n, k, a is None, r.max_abs_error)


def test_registry_cnot_counts_match_builds():
    # The literal closed forms sit in test_predict_formulas and criterion 3;
    # this ties each registry entry's formula to its own builder.
    for spec in DICKE_KINDS.values():
        for n in range(2, 9):
            for k in range(1, n) if spec.needs_k else [None]:
                assert spec.cnot(n, k) == count(spec.build(n, k, None)).cnot_equivalent
