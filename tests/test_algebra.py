"""Basis helpers, and the one-pair Gram-Schmidt of the test oracles."""
import numpy as np
import pytest

from oracles import DegenerateInput, orthonormalize_pair
from tempora import RangeError, ket2, ket4
from tempora.algebra import symbol_index


def test_symbol_index():
    assert symbol_index(-1) == 0
    assert symbol_index(+1) == 1
    with pytest.raises(ValueError):
        symbol_index(0)
    for symbol in (0, 2, "+1"):
        with pytest.raises(RangeError):
            symbol_index(symbol)


def test_kets_are_unit_basis_vectors():
    np.testing.assert_array_equal(ket2(-1), [1, 0])
    np.testing.assert_array_equal(ket2(+1), [0, 1])
    np.testing.assert_array_equal(ket4(-1, -1), [1, 0, 0, 0])
    np.testing.assert_array_equal(ket4(-1, +1), [0, 1, 0, 0])
    np.testing.assert_array_equal(ket4(+1, -1), [0, 0, 1, 0])
    np.testing.assert_array_equal(ket4(+1, +1), [0, 0, 0, 1])


def test_orthonormalize_keeps_orthonormal_input():
    a, b = orthonormalize_pair(ket4(-1, -1), ket4(+1, +1))
    np.testing.assert_allclose(a, ket4(-1, -1), atol=1e-15)
    np.testing.assert_allclose(b, ket4(+1, +1), atol=1e-15)


def test_orthonormalize_output_is_orthonormal():
    rs = np.random.RandomState(11)
    for _ in range(200):
        u = rs.randn(4) + 1j * rs.randn(4)
        v = rs.randn(4) + 1j * rs.randn(4)
        a, b = orthonormalize_pair(u, v)
        # independent check: direct inner products
        assert abs(np.vdot(a, a) - 1.0) <= 1e-10
        assert abs(np.vdot(b, b) - 1.0) <= 1e-10
        assert abs(np.vdot(a, b)) <= 1e-10


def test_orthonormalize_preserves_span_direction():
    u = np.array([2.0, 0, 0, 0], dtype=complex)
    v = np.array([3.0, 4.0, 0, 0], dtype=complex)
    a, b = orthonormalize_pair(u, v)
    np.testing.assert_allclose(a, [1, 0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(b, [0, 1, 0, 0], atol=1e-15)


@pytest.mark.parametrize("u,v", [
    (np.zeros(4), np.ones(4)),
    (np.ones(4), np.ones(4)),
    (np.ones(4), 1e-14 * np.ones(4)),
    (np.ones(4), (1 + 2j) * np.ones(4)),
])
def test_orthonormalize_degenerate_inputs(u, v):
    with pytest.raises(DegenerateInput):
        orthonormalize_pair(u, v)
