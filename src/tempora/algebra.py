"""Small real/complex array helpers shared by the machine modules.

Conventions used throughout the package:

* dichotomic outcomes are the symbols -1 and +1; index 0 holds the -1
  component of any length-2 vector and index 1 the +1 component;
* length-4 complex vectors live in the ancilla (x) memory product space with
  basis order (-1,-1), (-1,+1), (+1,-1), (+1,+1), ancilla first, so the
  ancilla outcome selects the upper or lower half;
* as_matrix2 is the one converter of outside numbers, under one number
  rule: a number is a Python or numpy int, float or complex (complex only
  for a complex array), never a str, bool, None or nested container.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import RangeError, ShapeMismatch
from .integers import is_int

# Allowed deviation of inner products from exact orthonormality.
ORTHONORMALITY_TOL = 1e-10
_PLAIN = {np.float64: {int, float, np.float64},
          np.complex128: {int, float, complex, np.float64, np.complex128}}
_ISFINITE = {np.float64: math.isfinite, np.complex128: cmath.isfinite}


def symbol_index(symbol: int) -> int:
    """Map an outcome symbol -1/+1, an integer under is_int, to its array
    index 0/1."""
    if not (is_int(symbol) and symbol in (-1, 1)):
        raise RangeError(f"outcome symbol must be -1 or +1, got {symbol!r}")
    return 0 if symbol == -1 else 1


def as_matrix2(m, name: str, dtype, shape=(2, 2), *, error=None,
               shape_error=None, finite=True) -> np.ndarray:
    """m, an array or nested lists and tuples of numbers, as a read-only
    C-contiguous `shape` array (at most three axes) of `dtype`, np.float64 or
    np.complex128: a copy, unless m is one already that nothing writes
    through.  Raises shape_error, else error, else ShapeMismatch for another
    shape; error, else ShapeMismatch, for an entry that is not a number or
    does not fit; error, else RangeError, for complex entries of a real
    array and, unless finite is false, non-finite ones."""
    try:  # the types of the entries, before numpy casts any of them
        types = ({m.dtype.type} if isinstance(m, np.ndarray)
                 else {type(x) for row in m for x in row} if len(shape) == 2
                 else set(map(type, m if shape else (m,))) if len(shape) < 2
                 else {type(x) for rows in m for row in rows for x in row})
    except TypeError:  # not nested as deep as the shape
        types = set()
    for t in types - _PLAIN[dtype]:
        if t is bool or not issubclass(t, (int, float, complex, np.number)):
            raise (error or ShapeMismatch)(_unfit(name, shape, m))
        if dtype is not np.complex128 and issubclass(
                t, (complex, np.complexfloating)):
            raise (error or RangeError)(f"{name} must be real, got complex entries")
    if not (isinstance(m, np.ndarray) and m.dtype == dtype
            and m.flags.c_contiguous and not m.flags.writeable
            and (m.base is None or not m.base.flags.writeable)):
        try:
            m = np.array(m, dtype)
        except (TypeError, ValueError, OverflowError):  # ragged, or 10**400
            raise (error or ShapeMismatch)(_unfit(name, shape, m)) from None
        m.setflags(write=False)
    if m.shape != shape:
        raise (shape_error or error or ShapeMismatch)(_unfit(name, shape, m))
    if finite and not all(map(_ISFINITE[dtype], m.ravel().tolist())):
        raise (error or RangeError)(f"{name} contains non-finite entries")
    return m


def _unfit(name: str, shape: tuple, m) -> str:
    return (f"{name} must be {'x'.join(map(str, shape)) or 'one'} numbers of "
            f"shape {shape}, got {m!r:.60}")


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
    return m.conj().T
