"""Small real/complex array helpers shared by the machine modules.

Conventions used throughout the package:

* dichotomic outcomes are the symbols -1 and +1; index 0 holds the -1
  component of any length-2 vector and index 1 the +1 component;
* length-4 complex vectors live in the ancilla (x) memory product space with
  basis order (-1,-1), (-1,+1), (+1,-1), (+1,+1), ancilla first, so the
  ancilla outcome selects the upper or lower half.
"""
from __future__ import annotations

import cmath

import numpy as np

from .errors import RangeError, ShapeMismatch

# Allowed deviation of inner products from exact orthonormality.
ORTHONORMALITY_TOL = 1e-10


def symbol_index(symbol: int) -> int:
    """Map an outcome symbol -1/+1 to its array index 0/1."""
    if symbol == -1:
        return 0
    if symbol == 1:
        return 1
    raise RangeError(f"outcome symbol must be -1 or +1, got {symbol!r}")


def as_matrix2(m, name: str, dtype) -> np.ndarray:
    """Read-only 2x2 `dtype` copy of m; ShapeMismatch if it is not 2x2,
    RangeError if an entry (or its real or imaginary part) is not finite."""
    m = np.array(m, dtype=dtype)
    if m.shape != (2, 2):
        raise ShapeMismatch(f"{name} must be 2x2, got shape {m.shape}")
    row0, row1 = m.tolist()
    if not all(map(cmath.isfinite, row0 + row1)):
        raise RangeError(f"{name} contains non-finite entries")
    m.flags.writeable = False
    return m


def ket2(symbol: int) -> np.ndarray:
    """Basis state of a single bit/qubit for the given outcome symbol."""
    v = np.zeros(2, dtype=np.complex128)
    v[symbol_index(symbol)] = 1.0
    return v


def ket4(ancilla: int, memory: int) -> np.ndarray:
    """Product basis state |ancilla, memory> in the length-4 ordering."""
    v = np.zeros(4, dtype=np.complex128)
    v[2 * symbol_index(ancilla) + symbol_index(memory)] = 1.0
    return v


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(m)).T
