"""Every outside value goes through algebra.as_matrix2 and its number rule.

Each entry below is a value that was once read as a number although it is a
string or a bool, or that ended in a bare numpy or Python exception.  Each
must now raise a TemporaError subclass.
"""
import numpy as np
import pytest

from tempora import (DelaySpec, KrausPair, PartySpec, SweepConfig,
                     TemporaError, TransitionPair, chsh_score, correlator,
                     delayed_chsh_score, hmm_from_params, kraus_from_dilation,
                     machine_from_obj, mm_from_params, prob_vector,
                     projective_kraus, qubit_state, spatial_reference_score,
                     state_from_obj)
from tempora import kernels
from tempora.algebra import as_matrix2
from tempora.errors import RangeError, ShapeMismatch
from tempora.sampler import Histogram

P = PartySpec(mm_from_params(0.3, 0.6), mm_from_params(0.5, 0.5))
# Projective pair at phi = pi/4: every entry is +-0.5.
K_MINUS = [[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]]
K_PLUS = [[0.5, 0], [-0.5, 0], [-0.5, 0], [0.5, 0]]

LEAKS = {
    # accepted as numbers
    "string in a classical matrix": lambda: machine_from_obj(
        {"kind": "classical", "t_minus": [["0.5", 0], [0.5, 0]],
         "t_plus": [[0, 0.5], [0, 0.5]]}),
    "string in a quantum pair": lambda: machine_from_obj(
        {"kind": "quantum", "k_minus": [["0.5", 0]] + K_MINUS[1:],
         "k_plus": K_PLUS}),
    "string in a classical state": lambda: state_from_obj(
        ["0.5", 0.5], "classical"),
    "string in a quantum state": lambda: state_from_obj(
        [["0.5", 0.5], [0.5, 0.5]], "quantum"),
    "bool beside floats in a TransitionPair": lambda: TransitionPair(
        [[True, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]),
    "bools as a probability vector": lambda: prob_vector(True, False),
    "string in a qubit state": lambda: qubit_state("1", 0),
    "strings as a scoring state": lambda: chsh_score(P, P, ["1", "0"]),
    "bool as an mm parameter": lambda: mm_from_params(True, 0.5),
    "strings as a sweep range": lambda: SweepConfig(
        "mm", 10, range=("0", "4")).validate(),
    "bools as a sweep range": lambda: SweepConfig(
        "mm", 10, range=(False, True)).validate(),
    # bare exceptions
    "ragged state to chsh_score": lambda: chsh_score(P, P, [[1], [2, 3]]),
    "ragged state to correlator": lambda: correlator(
        P.basis1, P.basis2, [[1], [2, 3]]),
    "string in a dilation vector": lambda: kraus_from_dilation(
        [1, "a", 0, 0], [0, 1, 0, 0]),
    "3-entry dilation vector": lambda: kraus_from_dilation(
        [1, 0, 0], [0, 1, 0, 0]),
    "string as an mm parameter": lambda: mm_from_params("0.5", 0.5),
    "string as an hmm parameter": lambda: hmm_from_params(
        "0.1", 0, 0, 0, 0, 0),
    "string as a projective angle": lambda: projective_kraus("a"),
    "string as a spatial angle": lambda: spatial_reference_score(
        "a", 0, 0, 0),
    "a party of non-machines": lambda: PartySpec(1, 2),
    "a charlie that is not a machine": lambda: delayed_chsh_score(
        P, P, [1.0, 0.0], DelaySpec(None, 1)),
    # index arrays: misread as trials, or bare exceptions
    "float trials to batch_scores": lambda: kernels.batch_scores(
        "mm", 1, [0.5, 1.7]),
    "bool trials to batch_scores": lambda: kernels.batch_scores(
        "mm", 1, [True, False]),
    "string trial to batch_scores": lambda: kernels.batch_scores(
        "mm", 1, ["a"]),
    "2-d trials to batch_scores": lambda: kernels.batch_scores(
        "mm", 1, np.array([[0, 1]])),
    "scalar trials to batch_scores": lambda: kernels.batch_scores("mm", 1, 3),
    "float trials to batch_delay_scores": lambda: kernels.batch_delay_scores(
        "mm", 1, np.array([0.5, 1.7]), (0, 1)),
    "float trials to machines_batch": lambda: kernels.machines_batch(
        "hqmm", 1, [0.5], 0),
    "bool trials to initial_state_batch": lambda: kernels.initial_state_batch(
        "hqmm", 1, np.array([True, False]), True),
    "string scores to add_scores": lambda: Histogram.empty(
        4, 0.0, 4.0).add_scores(["x"]),
    "bool scores to add_scores": lambda: Histogram.empty(
        4, 0.0, 4.0).add_scores([True, False]),
    "object scores to add_scores": lambda: Histogram.empty(
        4, 0.0, 4.0).add_scores(np.array([1.0], dtype=object)),
}


@pytest.mark.parametrize("call", LEAKS.values(), ids=LEAKS.keys())
def test_outside_values_are_refused_with_a_tempora_error(call):
    with pytest.raises(TemporaError):
        call()


@pytest.mark.parametrize("m", [
    [["1", 0], [0, 0]], [[True, 0], [0, 0]], [[np.True_, 0.5], [0, 0]],
    [[None, 0], [0, 0]], np.array([[True, False], [False, True]]),
    np.array([["1", "0"], ["0", "1"]]), np.array([[1, 0], [0, 1]], object),
], ids=["str", "bool", "numpy-bool", "None", "bool-array", "str-array",
        "object-array"])
def test_the_number_rule_refuses_what_numpy_would_cast(m):
    with pytest.raises(TemporaError):
        as_matrix2(m, "m", np.float64)


def test_the_number_rule_takes_python_and_numpy_numbers():
    rows = [[1, np.float32(0.5)], [np.int64(2), 0.25]]
    got = as_matrix2(rows, "m", np.float64)
    assert got.dtype == np.float64 and not got.flags.writeable
    np.testing.assert_array_equal(got, [[1.0, 0.5], [2.0, 0.25]])
    z = as_matrix2([[1j, np.complex64(2)], [3, 0.5]], "k", np.complex128)
    np.testing.assert_array_equal(z, [[1j, 2], [3, 0.5]])
    np.testing.assert_array_equal(
        KrausPair(z, z).k_minus, z)


def test_a_converted_array_is_taken_as_it_is():
    a = as_matrix2([[0.5, 0.5], [0.5, 0.5]], "m", np.float64)
    assert as_matrix2(a, "m", np.float64) is a
    writeable = np.eye(2)
    copy = as_matrix2(writeable, "m", np.float64)
    assert copy is not writeable and not copy.flags.writeable
    view = writeable[:]  # read-only, but its base can still be written
    view.flags.writeable = False
    assert as_matrix2(view, "m", np.float64) is not view


@pytest.mark.parametrize("trials, error", [
    ([0.5, 1.7], RangeError), ([True, False], RangeError), (["a"], RangeError),
    ([[1], [2, 3]], RangeError), (np.array([1.0]), RangeError),
    (np.array([[0, 1]]), ShapeMismatch), (3, ShapeMismatch),
    ("01", ShapeMismatch),
], ids=["floats", "bools", "str", "ragged", "float-array", "2-d", "scalar",
        "text"])
def test_the_trial_rule_refuses_what_is_not_a_1d_integer_sequence(trials,
                                                                   error):
    with pytest.raises(error):
        kernels.as_trials(trials)


def test_the_trial_rule_takes_integer_arrays_as_they_are():
    trials = np.arange(4, dtype=np.uint32)
    assert kernels.as_trials(trials) is trials
    for seq in ([3, np.int64(5)], (3, np.int64(5))):
        got = kernels.as_trials(seq)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, [3, 5])
    assert kernels.as_trials([]).dtype == np.int64
    np.testing.assert_array_equal(kernels.batch_scores("mm", 1, [3, 5]),
                                  kernels.batch_scores("mm", 1, np.array([3, 5])))
