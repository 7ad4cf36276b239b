"""One-bit stochastic output machines (Markov and hidden-Markov).

A machine is a pair of non-negative 2x2 matrices (t_minus, t_plus), one per
output symbol.  Column x of t_minus + t_plus must be stochastic: it lists
the probabilities of every (symbol, next state) combination reachable from
internal state x.  Machine states are probability vectors
eta = (p_minus, p_plus), and emitting symbol i from eta has probability
P(i) = (1,1) . T^(i) . eta with post-state T^(i) eta / P(i).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .algebra import as_matrix2, symbol_index
from .errors import CompletenessError, RangeError

# Allowed deviation of column sums of t_minus + t_plus from 1.
COMPLETENESS_TOL = 1e-9


@dataclass(frozen=True)
class TransitionPair:
    """Per-symbol transition matrices of a one-bit output machine."""

    t_minus: np.ndarray
    t_plus: np.ndarray

    kind: ClassVar[str] = "classical"

    def __post_init__(self):
        object.__setattr__(self, "t_minus",
                           as_matrix2(self.t_minus, "t_minus", np.float64))
        object.__setattr__(self, "t_plus",
                           as_matrix2(self.t_plus, "t_plus", np.float64))

    def op(self, symbol: int) -> np.ndarray:
        """Transition matrix for one outcome symbol."""
        return self.t_minus if symbol_index(symbol) == 0 else self.t_plus

    def total(self) -> np.ndarray:
        """Symbol-summed transition matrix (column-stochastic when valid)."""
        return self.t_minus + self.t_plus


def prob_vector(p_minus: float, p_plus: float) -> np.ndarray:
    """Probability vector over the two internal states."""
    return checked_prob_vector(as_matrix2(
        (p_minus, p_plus), "a probability vector", np.float64, (2,),
        error=RangeError, finite=False))


def checked_prob_vector(eta: np.ndarray, error=RangeError) -> np.ndarray:
    """eta, a real array of shape (2,), if it is a probability vector."""
    p0, p1 = eta.tolist()
    # Written to fail on NaN, which compares false with everything.
    if not (p0 >= 0.0 and p1 >= 0.0
            and abs((p0 + p1) - 1.0) <= COMPLETENESS_TOL):
        raise error(f"({p0}, {p1}) is not a probability vector")
    return eta


def mm_from_params(a: float, b: float) -> TransitionPair:
    """Two-parameter Markov machine whose output equals its next state.

    a is the probability of emitting -1 from state -1, b of emitting +1 from
    state +1; both must lie in [0, 1].
    """
    a, b = as_matrix2((a, b), "(a, b)", np.float64, (2,), error=RangeError).tolist()
    for name, value in (("a", a), ("b", b)):
        if not 0.0 <= value <= 1.0:
            raise RangeError(f"parameter {name}={value} outside [0, 1]")
    t_minus = [[a, 1.0 - b], [0.0, 0.0]]
    t_plus = [[0.0, 0.0], [1.0 - a, b]]
    return TransitionPair(t_minus, t_plus)


def hmm_from_params(a: float, b: float, c: float,
                    d: float, e: float, f: float) -> TransitionPair:
    """Six-parameter hidden-Markov machine with nested parameter bounds.

    Column 0 of the pair is (a, b | c, 1-a-b-c) and column 1 is
    (d, e | f, 1-d-e-f), so the admissible ranges nest: b <= 1-a,
    c <= 1-a-b, and likewise for (d, e, f).
    """
    a, b, c, d, e, f = as_matrix2((a, b, c, d, e, f), "(a, b, c, d, e, f)",
                                  np.float64, (6,), error=RangeError).tolist()
    for name, value, hi in (("a", a, 1), ("b", b, 1.0 - a), ("c", c, 1.0 - a - b),
                            ("d", d, 1), ("e", e, 1.0 - d), ("f", f, 1.0 - d - e)):
        if not 0.0 <= value <= hi:
            raise RangeError(f"parameter {name}={value} outside [0, {hi}]")
    t_minus = [[a, d], [b, e]]
    t_plus = [[c, f], [1.0 - a - b - c, 1.0 - d - e - f]]
    return TransitionPair(t_minus, t_plus)


def validate_classical(m: TransitionPair) -> None:
    """Check entries in [0, 1] and column-stochasticity of the symbol sum.

    Raises CompletenessError carrying the offending column and residual.
    """
    t_minus, t_plus = m.t_minus.tolist(), m.t_plus.tolist()
    for name, rows in (("t_minus", t_minus), ("t_plus", t_plus)):
        lo, hi = min(rows[0] + rows[1]), max(rows[0] + rows[1])
        if not (lo >= 0.0 and hi <= 1.0):
            raise CompletenessError(f"{name} has entries outside [0, 1]",
                                    residual=max(-lo, hi - 1.0))
    # Each column of t_minus + t_plus, summed in numpy's order.
    sums = [(t_minus[0][c] + t_plus[0][c]) + (t_minus[1][c] + t_plus[1][c])
            for c in (0, 1)]
    residuals = [abs(s - 1.0) for s in sums]
    col = 1 if residuals[1] > residuals[0] else 0  # the first maximum wins ties
    if not residuals[col] <= COMPLETENESS_TOL:
        raise CompletenessError(
            f"column {col} of t_minus + t_plus sums to {sums[col]!r}",
            column=col, residual=residuals[col])

