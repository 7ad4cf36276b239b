"""Classical machine constructors, validation, and the tests' outcome
stepping oracle."""
import numpy as np
import pytest

from oracles import classical_outcome_step
from tempora import (CompletenessError, RangeError, TransitionPair,
                     hmm_from_params, mm_from_params, prob_vector,
                     validate_classical)


def test_mm_deterministic_corner():
    m = mm_from_params(1.0, 1.0)
    np.testing.assert_array_equal(m.t_minus, [[1, 0], [0, 0]])
    np.testing.assert_array_equal(m.t_plus, [[0, 0], [0, 1]])


def test_mm_generic_params():
    m = mm_from_params(0.3, 0.7)
    np.testing.assert_allclose(m.t_minus, [[0.3, 0.3], [0.0, 0.0]])
    np.testing.assert_allclose(m.t_plus, [[0.0, 0.0], [0.7, 0.7]])
    validate_classical(m)


@pytest.mark.parametrize("a,b", [(1.2, 0.0), (-0.1, 0.5), (0.5, 1.0001), (0.0, -2.0)])
def test_mm_rejects_out_of_range(a, b):
    with pytest.raises(RangeError):
        mm_from_params(a, b)


def test_hmm_equal_quarters():
    m = hmm_from_params(0.25, 0.25, 0.25, 0.25, 0.25, 0.25)
    np.testing.assert_allclose(m.t_minus, [[0.25, 0.25], [0.25, 0.25]])
    np.testing.assert_allclose(m.t_plus, [[0.25, 0.25], [0.25, 0.25]])
    validate_classical(m)


@pytest.mark.parametrize("params", [
    (0.5, 0.5, 0.1, 0.0, 0.0, 0.0),   # c > 1-a-b
    (0.5, 0.6, 0.0, 0.0, 0.0, 0.0),   # b > 1-a
    (1.1, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.2, 0.2, 0.7),   # f > 1-d-e
])
def test_hmm_rejects_nested_bound_violations(params):
    with pytest.raises(RangeError):
        hmm_from_params(*params)


def test_hmm_boundary_params_are_allowed():
    m = hmm_from_params(0.5, 0.5, 0.0, 1.0, 0.0, 0.0)
    validate_classical(m)


def test_hmm_column_sums_are_one_to_rounding():
    rs = np.random.RandomState(3)
    for _ in range(500):
        a, d = rs.uniform(0, 1, 2)
        b = rs.uniform(0, 1 - a)
        c = rs.uniform(0, 1 - a - b)
        e = rs.uniform(0, 1 - d)
        f = rs.uniform(0, 1 - d - e)
        m = hmm_from_params(a, b, c, d, e, f)
        sums = m.total().sum(axis=0)
        np.testing.assert_allclose(sums, 1.0, atol=1e-15)
        validate_classical(m)


def test_hmm_covers_arbitrary_stochastic_pairs():
    # any valid pair is reachable: invert the parameter map and rebuild
    rs = np.random.RandomState(5)
    for _ in range(200):
        col0 = rs.dirichlet(np.ones(4))
        col1 = rs.dirichlet(np.ones(4))
        target = TransitionPair([[col0[0], col1[0]], [col0[1], col1[1]]],
                                [[col0[2], col1[2]], [col0[3], col1[3]]])
        validate_classical(target)
        rebuilt = hmm_from_params(col0[0], col0[1], col0[2],
                                  col1[0], col1[1], col1[2])
        np.testing.assert_allclose(rebuilt.t_minus, target.t_minus, atol=1e-12)
        np.testing.assert_allclose(rebuilt.t_plus, target.t_plus, atol=1e-12)


def test_validate_reports_offending_column_and_residual():
    bad = TransitionPair([[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(CompletenessError) as err:
        validate_classical(bad)
    assert err.value.column in (0, 1)
    assert err.value.residual == pytest.approx(1.0)


def test_validate_rejects_negative_entries():
    bad = TransitionPair([[-0.1, 0.0], [0.6, 0.5]], [[0.5, 0.5], [0.0, 0.5]])
    with pytest.raises(CompletenessError):
        validate_classical(bad)


def test_validate_accepts_tolerance_sized_slack():
    m = TransitionPair([[0.5 + 4e-10, 0.0], [0.5, 0.0]],
                       [[0.0, 0.5], [0.0, 0.5]])
    validate_classical(m)


def test_prob_vector_validation():
    np.testing.assert_array_equal(prob_vector(1.0, 0.0), [1.0, 0.0])
    with pytest.raises(RangeError):
        prob_vector(0.7, 0.7)
    with pytest.raises(RangeError):
        prob_vector(-0.1, 1.1)
    with pytest.raises(RangeError):
        prob_vector(1j, 0)
    with pytest.raises(RangeError):
        prob_vector(np.complex128(1), 0)


@pytest.mark.parametrize("p", [(float("nan"), 0.5), (0.5, float("nan")),
                               (float("nan"), float("nan"))])
def test_prob_vector_rejects_nan(p):
    with pytest.raises(RangeError):
        prob_vector(*p)


def test_non_finite_entries_are_range_errors():
    with pytest.raises(RangeError, match="t_plus contains non-finite"):
        TransitionPair(np.eye(2), [[0.0, float("inf")], [0.0, 0.0]])


def test_outcome_step_deterministic_machine():
    # pins the output to -1 and the state to +1 from anywhere
    m = TransitionPair([[0, 0], [1, 1]], [[0, 0], [0, 0]])
    p, eta = classical_outcome_step(m, np.array([1.0, 0.0]), -1)
    assert p == pytest.approx(1.0)
    np.testing.assert_allclose(eta, [0.0, 1.0])
    p, eta = classical_outcome_step(m, np.array([1.0, 0.0]), +1)
    assert p == 0.0 and eta is None


def test_outcome_step_generic_probability():
    m = mm_from_params(0.3, 0.7)
    p, eta = classical_outcome_step(m, np.array([1.0, 0.0]), -1)
    assert p == pytest.approx(0.3)
    np.testing.assert_allclose(eta, [1.0, 0.0])


def test_outcome_step_markov_state_equals_output():
    rs = np.random.RandomState(9)
    for _ in range(100):
        m = mm_from_params(rs.uniform(0.05, 0.95), rs.uniform(0.05, 0.95))
        q = rs.uniform(0, 1)
        eta = np.array([q, 1 - q])
        for symbol, pinned in ((-1, [1.0, 0.0]), (+1, [0.0, 1.0])):
            p, post = classical_outcome_step(m, eta, symbol)
            assert p > 0
            np.testing.assert_allclose(post, pinned, atol=1e-12)


def test_outcome_step_probabilities_sum_to_one():
    rs = np.random.RandomState(21)
    for _ in range(300):
        a, d = rs.uniform(0, 1, 2)
        b = rs.uniform(0, 1 - a)
        c = rs.uniform(0, 1 - a - b)
        e = rs.uniform(0, 1 - d)
        f = rs.uniform(0, 1 - d - e)
        m = hmm_from_params(a, b, c, d, e, f)
        q = rs.uniform(0, 1)
        eta = np.array([q, 1 - q])
        total = 0.0
        for symbol in (-1, +1):
            p, post = classical_outcome_step(m, eta, symbol)
            total += p
            if post is not None:
                assert post.min() >= -1e-15
                assert post.sum() == pytest.approx(1.0, abs=1e-12)
        assert total == pytest.approx(1.0, abs=1e-9)
