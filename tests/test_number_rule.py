"""Every outside value goes through algebra.as_matrix2 and its number rule,
and every outside integer through kernels.check_int.

Each entry below is a value that was once read as a number although it is a
string or a bool, a draw address that aliased another, or a call that ended
in a bare numpy or Python exception.  Each must now raise a TemporaError
subclass.
"""
import numpy as np
import pytest

from tempora import (DelaySpec, KrausPair, PartySpec, SweepConfig,
                     TemporaError, TransitionPair, chsh_from_correlators,
                     chsh_score, correlator,
                     delayed_chsh_score, hmm_from_params, kraus_from_dilation,
                     machine_from_obj, mm_from_params, prob_vector,
                     projective_kraus, qubit_state, spatial_reference_score,
                     state_from_obj)
from tempora import kernels, rng
from tempora.algebra import as_matrix2, ket2, ket4, symbol_index
from tempora.errors import RangeError, ShapeMismatch
from tempora.sampler import Histogram, histogram_merge

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
    # draw addresses: slot 8 is the next trial's slot 0, trials wrap mod
    # 2**52, and a bool seed or slot is read as 1
    "slot 8 to machines_batch": lambda: kernels.machines_batch(
        "mm", 3, [0], 8),
    "slot 8 in a Stream": lambda: kernels.sample_machine(
        "mm", rng.Stream(3, 0, 8)),
    "float slot": lambda: kernels.machines_batch("mm", 3, [0], 1.5),
    "bool slot": lambda: kernels.machines_batch("mm", 3, [0], True),
    "negative slot": lambda: kernels.machines_batch("mm", 3, [0], -1),
    "string slot": lambda: kernels.machines_batch("mm", 3, [0], "a"),
    "trials 2**52 and -1": lambda: kernels.batch_scores(
        "mm", 1, [0, 2**52, -1, 2**52 - 1]),
    "uint64 trial 2**63": lambda: kernels.batch_scores(
        "mm", 1, np.array([2**63], np.uint64)),
    "trial 2**64": lambda: kernels.batch_scores("mm", 1, [2**64]),
    "trial 2**52 in a Stream": lambda: kernels.sample_machine(
        "hqmm", rng.Stream(1, 2**52, 0)),
    "bool seed": lambda: kernels.batch_scores("mm", True, [0, 5]),
    "float seed": lambda: kernels.batch_scores("mm", 1.5, [0, 5]),
    "string seed": lambda: kernels.batch_scores("mm", "1", [0, 5]),
    "bool seed of a random initial state": lambda: (
        kernels.initial_state_batch("hqmm", True, [0], True)),
    "count above 2**52": lambda: SweepConfig(
        "mm", 1180591620717411303424).validate(),
    # found by tests/test_no_bare_exception.py
    "scalar t_list to a sweep": lambda: SweepConfig(
        "mm", 10, t_list=5).validate(),
    "scalar t_list to batch_delay_scores": lambda: kernels.batch_delay_scores(
        "mm", 1, [0], 5),
    "negative bins": lambda: Histogram.empty(-1, 0.0, 4.0),
    "float bins": lambda: Histogram.empty(2.5, 0.0, 4.0),
    "bool bins": lambda: Histogram.empty(True, 0.0, 4.0),
    "bins of 2**52": lambda: Histogram.empty(2**52, 0.0, 4.0),
    "string edge of a histogram": lambda: Histogram.empty(4, "0", 4.0),
    "empty histogram range": lambda: Histogram.empty(4, 1.0, 1.0),
    "merge with a number": lambda: histogram_merge(
        Histogram.empty(4, 0.0, 4.0), 3),
    "a number as a Stream": lambda: kernels.sample_machine("mm", 3),
    "NaN score": lambda: Histogram.empty(4, 0.0, 4.0).add_scores(
        [np.nan, 1.0]),
    "ragged scores": lambda: Histogram.empty(4, 0.0, 4.0).add_scores(
        [[1.0], [2.0, 3.0]]),
    "a number as a party": lambda: chsh_score(1.0, P, [1.0, 0.0]),
    "a number as a delay": lambda: delayed_chsh_score(P, P, [1.0, 0.0], 2),
    "string correlator": lambda: chsh_from_correlators("0.5", 0, 0, 0),
    "sequence slot in a Stream": lambda: kernels.sample_machine(
        "mm", rng.Stream(3, 0, [1])),
    "huge dilation vector": lambda: kraus_from_dilation(
        [1e308, 0, 0, 0], [0, 1, 0, 0]),
    # converted or stored without a check
    "string count to as_dict": lambda: SweepConfig("mm", "x").as_dict(),
    "scalar t_list to as_dict": lambda: SweepConfig(
        "mm", 10, t_list=5).as_dict(),
    "bool bins to as_dict": lambda: SweepConfig("mm", 10, bins=True).as_dict(),
    "list counts to add_scores": lambda: Histogram(
        0.0, 4.0, [0, 0]).add_scores([1.0]),
    "list counts to as_dict": lambda: Histogram(0.0, 4.0, [0, 0]).as_dict(),
    "string counts": lambda: Histogram(0.0, 4.0, "ab").bins,
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


@pytest.mark.parametrize("low, high, bad, message", [
    (None, None, 1.5, "n must be an integer, got 1.5"),
    (0, None, -1, "n must be a non-negative integer, got -1"),
    (1, None, 0, "n must be a positive integer, got 0"),
    (1, None, True, "n must be a positive integer, got True"),
    (0, 7, 8, "n must be at most 7, got 8"),
])
def test_the_range_rule_has_one_wording_per_bound(low, high, bad, message):
    with pytest.raises(RangeError) as err:
        kernels.check_int("n", bad, low, high, error=RangeError)
    assert str(err.value) == message
    for good in (low or 0, np.int64(high or 5), high or 2**70):
        kernels.check_int("n", good, low, high)


def test_the_counter_layout_holds_8_slots_and_2_52_trials():
    assert (rng.SLOTS, rng.TRIALS) == (8, 2**52)
    last = kernels.machines_batch("mm", 3, [2**52 - 1], 7)
    assert last.shape == (2, 2, 2, 1)
    assert not np.array_equal(last, kernels.machines_batch("mm", 3, [0], 7))
    SweepConfig("mm", 2**52).validate()
    for bad in (2**52, -1):
        with pytest.raises(RangeError, match=f"got {bad}$"):
            kernels.batch_scores("mm", 1, np.array([5, bad]))


def test_seeds_wrap_mod_2_64_whatever_their_integer_type():
    want = kernels.batch_scores("mm", -1, [0, 5])
    for seed in (2**64 - 1, np.int64(-1), np.uint64(2**64 - 1)):
        np.testing.assert_array_equal(kernels.batch_scores("mm", seed, [0, 5]),
                                      want)


def test_a_huge_score_bins_as_overflow_without_a_warning():
    h = Histogram.empty(4, -1e308, 0.0)
    h.add_scores([1e308, -1.7e308, -0.3e308])
    assert (h.underflow, h.overflow, h.counts.tolist()) == (1, 1, [0, 0, 1, 0])
    assert (h.observed_min, h.observed_max) == (-1.7e308, 1e308)


@pytest.mark.parametrize("value", [True, np.True_, 1.0, np.float64(2), -1.0])
def test_basis_indices_and_outcome_symbols_follow_the_integer_rule(value):
    # Each value was once taken as a basis index or an outcome symbol.
    with pytest.raises(RangeError, match="^basis index must be 1 or 2"):
        P.basis(value)
    for op in (symbol_index, ket2, lambda s: ket4(s, 1), lambda s: ket4(1, s),
               P.basis1.op, projective_kraus(0.3).op):
        with pytest.raises(RangeError,
                           match=r"^outcome symbol must be -1 or \+1"):
            op(value)


def test_numpy_integers_are_basis_indices_and_outcome_symbols():
    assert P.basis(np.int64(2)) is P.basis2
    assert (symbol_index(np.int8(-1)), symbol_index(np.uint8(1))) == (0, 1)
    np.testing.assert_array_equal(ket4(np.int64(1), -1), [0, 0, 1, 0])
