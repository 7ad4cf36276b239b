"""Machine and state validation against its former numpy form.

The validators run on Python numbers taken from each small array; the
references below are the numpy array operations they replaced.  Both must
agree on the outcome, the exception type, its message, the reported column
and the residual, bit for bit.
"""
import numpy as np
import pytest

from tempora import (CompletenessError, KrausPair, RangeError, TransitionPair,
                     prob_vector, qubit_state, sample_machine,
                     validate_classical, validate_kraus)
from tempora.algebra import ORTHONORMALITY_TOL, dagger
from tempora.classical import COMPLETENESS_TOL
from tempora.rng import Stream


def validate_classical_reference(m: TransitionPair) -> None:
    for name, mat in (("t_minus", m.t_minus), ("t_plus", m.t_plus)):
        if np.any(mat < 0.0) or np.any(mat > 1.0):
            worst = float(max(np.max(-mat), np.max(mat - 1.0)))
            raise CompletenessError(
                f"{name} has entries outside [0, 1]", residual=worst)
    sums = m.total().sum(axis=0)
    residuals = np.abs(sums - 1.0)
    col = int(np.argmax(residuals))
    if residuals[col] > COMPLETENESS_TOL:
        raise CompletenessError(
            f"column {col} of t_minus + t_plus sums to {float(sums[col])!r}",
            column=col, residual=float(residuals[col]))


def validate_kraus_reference(k: KrausPair) -> None:
    g = dagger(k.k_minus) @ k.k_minus + dagger(k.k_plus) @ k.k_plus
    dev = np.abs(g - np.eye(2))
    col = int(np.argmax(np.max(dev, axis=0)))
    residual = float(np.max(dev))
    if residual > COMPLETENESS_TOL:
        raise CompletenessError(
            f"completeness relation violated by {residual:.3e}",
            column=col, residual=residual)


def prob_vector_reference(p_minus: float, p_plus: float) -> np.ndarray:
    eta = np.array([p_minus, p_plus], dtype=np.float64)
    if np.any(eta < 0.0) or abs(float(eta.sum()) - 1.0) > COMPLETENESS_TOL:
        raise RangeError(f"({p_minus}, {p_plus}) is not a probability vector")
    return eta


def qubit_state_reference(alpha: complex, beta: complex) -> np.ndarray:
    psi = np.array([alpha, beta], dtype=np.complex128)
    nsq = float(np.sum(psi.real ** 2 + psi.imag ** 2))
    if abs(nsq - 1.0) > ORTHONORMALITY_TOL:
        raise RangeError(f"state has squared norm {nsq!r}, expected 1")
    return psi


def outcome(check, *args):
    """("ok", result), or the type, message, column and residual raised."""
    try:
        return "ok", check(*args)
    except Exception as exc:  # the type is part of what is compared
        return (type(exc), str(exc), getattr(exc, "column", None),
                getattr(exc, "residual", None))


def same_outcome(check, reference, *args):
    got, want = outcome(check, *args), outcome(reference, *args)
    if got[0] == want[0] == "ok":
        np.testing.assert_array_equal(got[1], want[1])
    else:
        assert got == want, args
    return got


def _shifted(m: TransitionPair, which: int, row: int, col: int, value):
    mats = [np.array(m.t_minus), np.array(m.t_plus)]
    mats[which][row, col] = value(mats[which][row, col])
    return TransitionPair(*mats)


def classical_variants(m: TransitionPair, trial: int) -> dict:
    """The machine, the same machine made invalid, with accepted slack, and
    with both columns equal, so that their residuals tie."""
    col = trial % 2
    entry = ((trial // 2) % 2, (trial // 4) % 2, col)
    # column col of both matrices, and the place of its largest entry
    column = np.stack([m.t_minus[:, col], m.t_plus[:, col]])
    largest = (*np.unravel_index(np.argmax(column), (2, 2)), col)
    low = column.copy()
    low[largest[:2]] -= 2e-9
    return {
        "valid": m,
        "entry -1e-3": _shifted(m, *entry, lambda x: -1e-3),
        "entry 1+1e-3": _shifted(m, *entry, lambda x: 1.0 + 1e-3),
        "column sum +2e-9": _shifted(m, *entry, lambda x: x + 2e-9),
        "column sum -2e-9": _shifted(m, *largest, lambda x: x - 2e-9),
        "slack 5e-10": _shifted(m, *largest, lambda x: x - 5e-10),
        "tie": TransitionPair(*np.stack([low, low], axis=-1)),
        "tie, valid": TransitionPair(*np.stack([column, column], axis=-1)),
    }


def kraus_variants(k: KrausPair, trial: int) -> dict:
    """The machine, the same machine off completeness by about 2e-9 (as a
    whole or in one column), with accepted slack, right at the tolerance,
    and two pairs whose column residuals tie: on the diagonal, and on the
    off-diagonal, where the last bits of numpy's products decide the
    column."""
    one_column = np.ones(2)
    one_column[trial % 2] = np.sqrt(1.0 + 2e-9)
    return {
        "valid": k,
        "completeness +2e-9": KrausPair(np.sqrt(1.0 + 2e-9) * k.k_minus,
                                        k.k_plus),
        "completeness -2e-9": KrausPair(k.k_minus,
                                        np.sqrt(1.0 - 2e-9) * k.k_plus),
        "column +2e-9": KrausPair(k.k_minus * one_column,
                                  k.k_plus * one_column),
        "slack 5e-10": KrausPair(np.sqrt(1.0 + 5e-10) * k.k_minus, k.k_plus),
        # about 5e-14 inside and outside the tolerance, closer than
        # Python and numpy's rounding may be trusted to agree
        "just inside": KrausPair(*(np.sqrt(1.0 + 1e-9 - 5e-14) * m
                                   for m in (k.k_minus, k.k_plus))),
        "just outside": KrausPair(*(np.sqrt(1.0 + 1e-9 + 5e-14) * m
                                    for m in (k.k_minus, k.k_plus))),
        "tie": KrausPair(k.k_minus[0, 0] * np.eye(2),
                         k.k_plus[1, 1] * np.eye(2)),
        "off-diagonal tie": KrausPair(k.k_minus, k.k_minus),
    }


# Columns each rejection reported over the draws (None for entries out of
# range); every variant not listed must be accepted on every draw.
REPORTED = {
    "classical": {"entry -1e-3": {None}, "entry 1+1e-3": {None},
                  "column sum +2e-9": {0, 1}, "column sum -2e-9": {0, 1},
                  "tie": {0}},
    "quantum": {"completeness +2e-9": {0, 1}, "completeness -2e-9": {0, 1},
                "column +2e-9": {0, 1}, "just outside": {0, 1}, "tie": {0},
                "off-diagonal tie": {0, 1}},
}


@pytest.mark.parametrize("kind", ["mm", "hmm", "hqmm", "hqmm-proj"])
def test_validators_match_numpy_reference(kind):
    classical = kind in ("mm", "hmm")
    validate, reference, variants = (
        (validate_classical, validate_classical_reference, classical_variants)
        if classical else
        (validate_kraus, validate_kraus_reference, kraus_variants))
    reported = {}
    for trial in range(1000):
        m = sample_machine(kind, Stream(seed=71, trial=trial))
        for label, machine in variants(m, trial).items():
            got = same_outcome(validate, reference, machine)
            if got[0] != "ok":
                reported.setdefault(label, set()).add(got[2])
    assert reported == REPORTED["classical" if classical else "quantum"]


def test_states_match_numpy_reference():
    gen = np.random.default_rng(73)
    for p in gen.random(1000):
        for args in ((p, 1.0 - p), (p, 1.0 - p + 2e-9), (p, 1.0 - p - 5e-10),
                     (p, 1.0 - p + 1e-9), (p, 1.0 - p - 1e-9),
                     (-p, 1.0 + p), (0.0, -0.0), (-0.0, 1.0)):
            same_outcome(prob_vector, prob_vector_reference, *args)
    z = gen.normal(size=(1000, 2)) + 1j * gen.normal(size=(1000, 2))
    z /= np.linalg.norm(z, axis=1)[:, None]
    for alpha, beta in z:
        for scale in (1.0, 1.0 + 2e-10, 1.0 - 2e-10, 1.0 + 2e-11):
            same_outcome(qubit_state, qubit_state_reference,
                         complex(alpha * scale), complex(beta))
