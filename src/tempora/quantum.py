"""Single-qubit two-outcome generalised measurements (Kraus pairs).

A machine is a pair of 2x2 complex matrices (k_minus, k_plus) satisfying the
completeness relation K(-1)^dag K(-1) + K(+1)^dag K(+1) = I.  Emitting
symbol i from a pure state psi has probability P(i) = |K^(i) psi|^2 with
post-state K^(i) psi / sqrt(P(i)).

A machine can equivalently be specified by two orthonormal length-4 vectors
|a>, |b> on ancilla (x) memory: the measurement entangles a fresh ancilla
with the memory via |-1,-1> -> |a>, |-1,+1> -> |b> and then reads the
ancilla out projectively, which makes K^(i) = |a_i><-1| + |b_i><+1| with
a_i, b_i the ancilla-i halves of |a>, |b>.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .algebra import ORTHONORMALITY_TOL, as_matrix2, dagger, symbol_index
from .classical import COMPLETENESS_TOL
from .errors import CompletenessError, OrthonormalityError, RangeError


_IDENTITY = np.eye(2)


@dataclass(frozen=True)
class KrausPair:
    """Per-symbol measurement operators of a one-qubit output machine."""

    k_minus: np.ndarray
    k_plus: np.ndarray

    kind: ClassVar[str] = "quantum"

    def __post_init__(self):
        object.__setattr__(self, "k_minus",
                           as_matrix2(self.k_minus, "k_minus", np.complex128))
        object.__setattr__(self, "k_plus",
                           as_matrix2(self.k_plus, "k_plus", np.complex128))

    def op(self, symbol: int) -> np.ndarray:
        """Measurement operator for one outcome symbol."""
        return self.k_minus if symbol_index(symbol) == 0 else self.k_plus

    def total(self) -> np.ndarray:
        """Symbol-summed operator K(-1) + K(+1) (not an observable)."""
        return self.k_minus + self.k_plus


def qubit_state(alpha: complex, beta: complex) -> np.ndarray:
    """Pure qubit state (alpha, beta); the norm must already be 1."""
    return checked_qubit_state(as_matrix2(
        (alpha, beta), "a qubit state", np.complex128, (2,),
        error=RangeError, finite=False))


def checked_qubit_state(psi: np.ndarray, error=RangeError) -> np.ndarray:
    """psi, a complex array of shape (2,), if its norm is 1."""
    a, b = psi.tolist()
    nsq = ((a.real * a.real + a.imag * a.imag)
           + (b.real * b.real + b.imag * b.imag))
    if not abs(nsq - 1.0) <= ORTHONORMALITY_TOL:  # NaN fails too
        raise error(f"state has squared norm {nsq!r}, expected 1")
    return psi


def kraus_from_dilation(a: np.ndarray, b: np.ndarray) -> KrausPair:
    """Build the Kraus pair realised by an orthonormal dilation pair.

    a and b are length-4 complex vectors on ancilla (x) memory (ancilla
    first).  The ancilla -1 halves become the columns of k_minus and the
    ancilla +1 halves the columns of k_plus; no arithmetic beyond
    reindexing happens here.  Raises OrthonormalityError when |a>, |b> are
    not orthonormal within 1e-10.
    """
    ab = as_matrix2((a, b), "(a, b)", np.complex128, (2, 4))
    a, b = ab
    with np.errstate(over="ignore"):  # an overflow fails the checks below
        checks = (
            ("<a|a>", abs(float(np.sum(a.real ** 2 + a.imag ** 2)) - 1.0)),
            ("<b|b>", abs(float(np.sum(b.real ** 2 + b.imag ** 2)) - 1.0)),
            ("<a|b>", abs(complex(np.sum(np.conj(a) * b)))),
        )
    for label, residual in checks:
        if not residual <= ORTHONORMALITY_TOL:  # NaN fails too
            raise OrthonormalityError(
                f"dilation pair violates {label} by {residual:.3e}")
    return KrausPair(*ab.T.reshape(2, 2, 2))  # rows (a_i, b_i), i = 0..3


def projective_kraus(phi: float) -> KrausPair:
    """Rank-1 orthogonal projector pair measuring along angle phi.

    k_minus projects onto (cos phi, sin phi) and k_plus onto the orthogonal
    direction (sin phi, -cos phi); phi is in radians.
    """
    phi = as_matrix2(phi, "phi", np.float64, (), error=RangeError)
    c, s = np.cos(phi), np.sin(phi)
    k_minus = [[c * c, c * s], [c * s, s * s]]
    k_plus = [[s * s, -c * s], [-c * s, c * c]]
    return KrausPair(k_minus, k_plus)


# Python's complex products and numpy's matmul, which may fuse its
# multiply-adds, round the entries of K^dag K apart by a few ulps of 1: far
# less than this.
_ROUNDING_SLACK = 1e-13


def _clearly_complete(k: KrausPair) -> bool:
    """Whether every entry of K(-1)^dag K(-1) + K(+1)^dag K(+1) is within
    1e-9 of the identity's with room for any difference in rounding."""
    (a, b), (c, d) = k.k_minus.tolist()
    (e, f), (p, q) = k.k_plus.tolist()
    col0, col1 = (a, c, e, p), (b, d, f, q)
    g00 = sum(z.real * z.real + z.imag * z.imag for z in col0)
    g11 = sum(z.real * z.real + z.imag * z.imag for z in col1)
    g01 = sum(x.conjugate() * y for x, y in zip(col0, col1))
    limit = COMPLETENESS_TOL - _ROUNDING_SLACK
    return (abs(g00 - 1.0) <= limit and abs(g11 - 1.0) <= limit
            and abs(g01) <= limit)


def validate_kraus(k: KrausPair) -> None:
    """Check the completeness relation within 1e-9.

    Raises CompletenessError with the worst column and residual of
    K(-1)^dag K(-1) + K(+1)^dag K(+1) - I.  A pair that passes with room to
    spare is checked on Python numbers; any other gets numpy's products,
    whose last bits decide the outcome near the tolerance and the column
    reported.
    """
    if _clearly_complete(k):
        return
    # Entries near 1e154 overflow K^dag K; the NaN or inf residual fails.
    with np.errstate(over="ignore", invalid="ignore"):
        g = dagger(k.k_minus) @ k.k_minus + dagger(k.k_plus) @ k.k_plus
        worst = np.abs(g - _IDENTITY).max(axis=0)  # per column
    col = int(worst.argmax())
    residual = float(worst.max())
    if not residual <= COMPLETENESS_TOL:
        raise CompletenessError(
            f"completeness relation violated by {residual:.3e}",
            column=col, residual=residual)


def observable_of(k: KrausPair) -> np.ndarray:
    """Outcome-weighted observable K(+1)^dag K(+1) - K(-1)^dag K(-1)."""
    return dagger(k.k_plus) @ k.k_plus - dagger(k.k_minus) @ k.k_minus

