"""The integer rules of the package's entries.

They live apart from kernels so that rng, which kernels imports, checks its
seeds, slots, attempts, draw counts, trials and counters by the same rules.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, RangeError, ShapeMismatch

_INT_WORDS = {None: "an", 0: "a non-negative", 1: "a positive"}


def is_int(value) -> bool:
    """The one integer rule: a Python or numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_int(name: str, value, low=None, high=None,
              error=ConfigError) -> None:
    """The one range rule of an outside integer: raise error unless value
    passes is_int and, when given, is at least low (0 or 1) and at most
    high."""
    if not is_int(value) or low is not None and value < low:
        raise error(f"{name} must be {_INT_WORDS[low]} integer, got {value!r}")
    if high is not None and value > high:
        raise error(f"{name} must be at most {high}, got {value!r}")


def as_ints(name: str, values, high: int, ndim: int | None = None,
            dtype=np.uint64) -> np.ndarray:
    """The integer rule over an array of integers in [0, high).

    An integer ndarray passes with an O(1) check and is returned as it is:
    its caller checks its range with one reduction.  Any other value must
    hold integers under is_int, entry by entry, in [0, high), and becomes an
    array of dtype and of its shape.  Raises RangeError, or ShapeMismatch,
    checked first, for an array whose rank is not ndim when ndim is given.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        items = values
    else:
        try:
            items = np.asarray(values, dtype=object)
        except ValueError:  # ragged beyond what an object array holds
            items = None
    if ndim is not None and items is not None and items.ndim != ndim:
        raise ShapeMismatch(f"{name} must be {ndim}-d, got shape {items.shape}")
    if items is values:
        return values
    if items is None or not all(map(is_int, items.flat)):
        raise RangeError(f"{name} must be integers, got {values!r:.80}")
    bad = next((v for v in items.flat if not 0 <= v < high), None)
    if bad is not None:
        raise RangeError(f"{name} must lie in [0, {high}), got {bad}")
    return items.astype(dtype)
