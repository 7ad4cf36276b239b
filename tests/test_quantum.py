"""Kraus pairs: dilation construction, validation, observables, and the
tests' outcome stepping oracle."""
import numpy as np
import pytest

from oracles import quantum_outcome_step
from tempora import (CompletenessError, KrausPair, OrthonormalityError,
                     ket2, ket4, kraus_from_dilation, observable_of,
                     projective_kraus, qubit_state, validate_kraus)
from tempora.classical import COMPLETENESS_TOL
from tempora.quantum import _clearly_complete
from tempora.rng import Stream
from tempora.sampler import sample_machine


def dilation_of(k: KrausPair) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of kraus_from_dilation: stack columns back into 4-vectors."""
    a = np.array([k.k_minus[0, 0], k.k_minus[1, 0], k.k_plus[0, 0], k.k_plus[1, 0]])
    b = np.array([k.k_minus[0, 1], k.k_minus[1, 1], k.k_plus[0, 1], k.k_plus[1, 1]])
    return a, b


def test_dilation_basis_states_give_projectors():
    k = kraus_from_dilation(ket4(-1, -1), ket4(+1, +1))
    np.testing.assert_array_equal(k.k_minus, [[1, 0], [0, 0]])
    np.testing.assert_array_equal(k.k_plus, [[0, 0], [0, 1]])
    validate_kraus(k)


def test_dilation_superposition_gives_scaled_pair():
    s = 1 / np.sqrt(2)
    a = s * (ket4(-1, -1) + ket4(+1, -1))
    b = s * (ket4(-1, +1) - ket4(+1, +1))
    k = kraus_from_dilation(a, b)
    np.testing.assert_allclose(k.k_minus, s * np.eye(2), atol=1e-15)
    np.testing.assert_allclose(k.k_plus, s * np.diag([1, -1]), atol=1e-15)
    # independent completeness check by direct multiplication
    g = (np.conj(k.k_minus).T @ k.k_minus + np.conj(k.k_plus).T @ k.k_plus)
    np.testing.assert_allclose(g, np.eye(2), atol=1e-15)


@pytest.mark.parametrize("a,b", [
    (ket4(-1, -1), ket4(-1, -1)),                       # identical
    (ket4(-1, -1), 0.5 * ket4(+1, +1)),                 # second not unit
    (2.0 * ket4(-1, -1), ket4(+1, +1)),                 # first not unit
    (ket4(-1, -1), (ket4(-1, -1) + ket4(+1, +1)) / np.sqrt(2)),  # overlap
])
def test_dilation_rejects_non_orthonormal_pairs(a, b):
    with pytest.raises(OrthonormalityError):
        kraus_from_dilation(a, b)


def test_dilation_roundtrip_on_random_machines():
    for trial in range(100):
        k = sample_machine("hqmm", Stream(seed=77, trial=trial))
        a, b = dilation_of(k)
        back = kraus_from_dilation(a, b)
        np.testing.assert_array_equal(back.k_minus, k.k_minus)
        np.testing.assert_array_equal(back.k_plus, k.k_plus)


def test_projective_axis_aligned():
    k = projective_kraus(0.0)
    np.testing.assert_allclose(k.k_minus, [[1, 0], [0, 0]], atol=1e-15)
    np.testing.assert_allclose(k.k_plus, [[0, 0], [0, 1]], atol=1e-15)


def test_projective_quarter_turn():
    k = projective_kraus(np.pi / 4)
    np.testing.assert_allclose(k.k_minus, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
    np.testing.assert_allclose(k.k_plus, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


@pytest.mark.parametrize("phi", np.linspace(0, 2 * np.pi, 17))
def test_projective_operators_are_idempotent_and_complete(phi):
    k = projective_kraus(phi)
    np.testing.assert_allclose(k.k_minus @ k.k_minus, k.k_minus, atol=1e-12)
    np.testing.assert_allclose(k.k_plus @ k.k_plus, k.k_plus, atol=1e-12)
    np.testing.assert_allclose(k.k_minus @ k.k_plus, np.zeros((2, 2)), atol=1e-12)
    validate_kraus(k)
    # the pair sums to the identity entrywise, exactly
    np.testing.assert_allclose(k.total(), np.eye(2), atol=1e-15)


@pytest.mark.parametrize("phi", np.linspace(0.1, 2 * np.pi, 7))
def test_projective_reachable_through_dilation(phi):
    k = projective_kraus(phi)
    a, b = (np.array([k.k_minus[0, 0], k.k_minus[1, 0], k.k_plus[0, 0], k.k_plus[1, 0]]),
            np.array([k.k_minus[0, 1], k.k_minus[1, 1], k.k_plus[0, 1], k.k_plus[1, 1]]))
    back = kraus_from_dilation(a, b)
    np.testing.assert_array_equal(back.k_minus, k.k_minus)
    np.testing.assert_array_equal(back.k_plus, k.k_plus)


def test_validate_rejects_overcomplete_pair():
    with pytest.raises(CompletenessError) as err:
        validate_kraus(KrausPair(np.eye(2), np.eye(2)))
    assert err.value.residual == pytest.approx(1.0)


def test_validate_rejects_a_pair_whose_completeness_overflows():
    with pytest.raises(CompletenessError) as err:
        validate_kraus(KrausPair(1e200 * (1 + 1j) * np.ones((2, 2)),
                                 np.zeros((2, 2))))
    assert not err.value.residual <= 1e-9


def test_validate_accepts_random_dilation_machines():
    for trial in range(200):
        validate_kraus(sample_machine("hqmm", Stream(seed=13, trial=trial)))


def test_validate_decides_near_the_tolerance_as_numpy_residual_does():
    # Random pairs scaled so that their completeness residual lies within
    # 1e-12 of the tolerance, on either side of 1.  The check on Python
    # numbers may clear a pair only with room to spare; every verdict must
    # be that of numpy's residual, which validate_kraus falls back to.
    gen = np.random.default_rng(2029)
    verdicts, quick = [], 0
    for trial in range(2000):
        k = sample_machine("hqmm", Stream(71, trial, 0))
        eps = COMPLETENESS_TOL + gen.uniform(-1e-12, 1e-12)
        scale = np.sqrt(1.0 + eps * gen.choice([-1.0, 1.0]))
        pair = KrausPair(k.k_minus * scale, k.k_plus * scale)
        g = (pair.k_minus.conj().T @ pair.k_minus
             + pair.k_plus.conj().T @ pair.k_plus)
        complete = np.abs(g - np.eye(2)).max() <= COMPLETENESS_TOL
        quick += _clearly_complete(pair)
        try:
            validate_kraus(pair)
            verdicts.append((trial, complete, True))
        except CompletenessError:
            verdicts.append((trial, complete, False))
    assert all(want == got for _, want, got in verdicts)
    accepted = sum(got for *_, got in verdicts)
    assert 500 < accepted < 1500 and 100 < quick < accepted


def test_observable_of_projective_pairs():
    np.testing.assert_allclose(observable_of(projective_kraus(0.0)),
                               np.diag([-1.0, 1.0]), atol=1e-15)
    # A(phi) = [[-cos 2phi, -sin 2phi], [-sin 2phi, cos 2phi]]
    phi = 0.3
    expected = np.array([[-np.cos(2 * phi), -np.sin(2 * phi)],
                         [-np.sin(2 * phi), np.cos(2 * phi)]])
    np.testing.assert_allclose(observable_of(projective_kraus(phi)),
                               expected, atol=1e-12)


def test_observable_is_hermitian_with_unit_square_for_projective():
    for phi in np.linspace(0, 2 * np.pi, 9):
        a = observable_of(projective_kraus(phi))
        np.testing.assert_allclose(a, np.conj(a).T, atol=1e-12)
        np.testing.assert_allclose(a @ a, np.eye(2), atol=1e-10)


def test_observable_vanishes_for_symbol_blind_pair():
    s = 1 / np.sqrt(2)
    k = KrausPair(s * np.eye(2), s * np.diag([1, -1]))
    np.testing.assert_allclose(observable_of(k), np.zeros((2, 2)), atol=1e-15)


def test_outcome_step_projective_born_rule():
    k = projective_kraus(0.0)
    p, post = quantum_outcome_step(k, ket2(-1), -1)
    assert p == pytest.approx(1.0)
    np.testing.assert_allclose(post, ket2(-1), atol=1e-15)
    p, post = quantum_outcome_step(k, ket2(-1), +1)
    assert p == 0.0 and post is None


def test_outcome_step_superposition():
    k = projective_kraus(0.0)
    psi = qubit_state(np.sqrt(0.25), np.sqrt(0.75))
    p, post = quantum_outcome_step(k, psi, -1)
    assert p == pytest.approx(0.25)
    np.testing.assert_allclose(post, ket2(-1), atol=1e-12)


def test_outcome_step_symbol_blind_pair_preserves_state():
    s = 1 / np.sqrt(2)
    k = KrausPair(s * np.eye(2), s * np.diag([1, -1]))
    psi = qubit_state(0.6, 0.8j)
    p, post = quantum_outcome_step(k, psi, -1)
    assert p == pytest.approx(0.5)
    assert abs(np.vdot(post, psi)) == pytest.approx(1.0, abs=1e-12)


def test_outcome_step_probabilities_sum_to_one_on_random_machines():
    rs = np.random.RandomState(31)
    for trial in range(200):
        k = sample_machine("hqmm", Stream(seed=99, trial=trial))
        z = rs.randn(2) + 1j * rs.randn(2)
        psi = z / np.linalg.norm(z)
        total = 0.0
        for symbol in (-1, +1):
            p, post = quantum_outcome_step(k, psi, symbol)
            total += p
            if post is not None:
                assert np.linalg.norm(post) == pytest.approx(1.0, abs=1e-12)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_qubit_state_validates_norm():
    from tempora import RangeError
    with pytest.raises(RangeError):
        qubit_state(1.0, 1.0)
    with pytest.raises(RangeError):
        qubit_state(float("nan"), 0.0)
    with pytest.raises(RangeError):
        qubit_state("a", 0)
    psi = qubit_state(0.6, 0.8j)
    assert psi.dtype == np.complex128
    np.testing.assert_array_equal(psi, [0.6, 0.8j])
