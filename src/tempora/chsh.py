"""Sequential CHSH correlators and scores for one-bit/one-qubit machines.

Two parties each hold two machines of the same kind.  A trial prepares a
shared initial state, lets one party's chosen machine emit an outcome, then
the other's, and correlates the two outcomes.  The four basis combinations
give the correlator matrix c_nm, and the score is the magnitude of a signed
sum with a single minus sign:

* s_canonical puts the minus on c22 (the fixed sign pattern);
* s_max takes the best of the four minus placements, which equals the
  canonical score maximised over relabelings of either party's bases.

An optional intermediary ("charlie") can act t times between the two
measurements; see delayed_chsh_score.  Every score here is the one-trial
call of kernels._score_block, the body the sweeps score with.

The public scorers check what they are given once: the ordering mode and
score convention, that the parties are PartySpecs of one kind, and the
state, converted by algebra.as_matrix2.  The machines themselves were
checked when they were built.  The scorers then copy the operators into
one machine array and call private cores that trust it:
kernels._score_block, and kernels._select_score for the two conventions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Union

import numpy as np

from . import kernels
from .algebra import as_matrix2
from .classical import TransitionPair, checked_prob_vector
from .errors import KindMismatch, RangeError, ShapeMismatch
from .integers import is_int
from .quantum import KrausPair, checked_qubit_state

Machine = Union[TransitionPair, KrausPair]
_MACHINES = Machine.__args__
# A machine's operators (-1, +1), by whether it is quantum.
_OPERATORS = (attrgetter("t_minus", "t_plus"), attrgetter("k_minus", "k_plus"))
_CORRELATORS = ("c11", "c12", "c21", "c22")


def _same_kind(*machines: Machine) -> str:
    kinds = {m.kind if isinstance(m, _MACHINES) else None for m in machines}
    if len(kinds) != 1 or None in kinds:  # None: not a machine
        raise KindMismatch(f"machines mix kinds {sorted(map(str, kinds))}")
    return kinds.pop()


@dataclass(frozen=True)
class PartySpec:
    """One party's two measurement machines (same kind)."""

    basis1: Machine
    basis2: Machine

    def __post_init__(self):
        _same_kind(self.basis1, self.basis2)

    @property
    def kind(self) -> str:
        return self.basis1.kind

    def basis(self, n: int) -> Machine:
        if not (is_int(n) and n in (1, 2)):
            raise RangeError(f"basis index must be 1 or 2, got {n!r}")
        return self.basis1 if n == 1 else self.basis2


@dataclass(frozen=True)
class DelaySpec:
    """Intermediary machine applied t times between the two measurements.

    quantum_mode selects how a quantum charlie acts: "vector-sum" applies
    (K(-1)+K(+1))^t to the state vector (with four-outcome renormalisation
    when needed), "channel" applies the Kraus channel t times, as the t-th
    power of its Pauli transfer matrix.  Ignored for classical machines.
    """

    charlie: Machine
    t: int
    quantum_mode: str = "vector-sum"

    def __post_init__(self):
        kernels.check_int("t", self.t, 0, error=RangeError)
        kernels.check_options(quantum_mode=self.quantum_mode)


@dataclass(frozen=True)
class ChshResult:
    """Correlator matrix and both score conventions for one configuration."""

    c11: float
    c12: float
    c21: float
    c22: float
    s_canonical: float
    s_max: float
    mode: str
    convention: str = "canonical"
    # Raw four-outcome sums per correlator and ordering; populated only by
    # vector-sum delayed scoring, where the map need not preserve norm.
    raw_sums: dict | None = field(default=None, compare=False)

    @property
    def s(self) -> float:
        """Score selected by the stored convention."""
        return self.s_max if self.convention == "max-relabel" else self.s_canonical

    def as_dict(self) -> dict:
        out = {
            "c11": self.c11, "c12": self.c12, "c21": self.c21, "c22": self.c22,
            "s_canonical": self.s_canonical, "s_max": self.s_max,
            "s": self.s, "mode": self.mode, "convention": self.convention,
        }
        if self.raw_sums is not None:
            out["raw_sums"] = self.raw_sums
        return out


def chsh_from_correlators(c11: float, c12: float, c21: float,
                          c22: float) -> tuple[float, float]:
    """(s_canonical, s_max) from a correlator matrix: kernels._select_score,
    the selection the sweeps score with."""
    return _scores(as_matrix2((c11, c12, c21, c22), "the correlators",
                              np.float64, (4,), error=RangeError,
                              finite=False).tolist())


def _scores(c: list) -> tuple[float, float]:
    """chsh_from_correlators of four floats, the scorers' own."""
    return (float(kernels._select_score(*c, "canonical")),
            float(kernels._select_score(*c, "max-relabel")))


def _correlate(machines: tuple, state: np.ndarray, mode: str,
               delay: DelaySpec | None = None) -> tuple[list[float], dict | None]:
    """Correlators c11, c12, c21, c22 of machines (a1, a2, b1, b2), raw sums.

    The one-trial call of kernels._score_block, which holds the observable
    form and its delay maps.  In vector-sum mode with a quantum charlie the
    raw four-outcome sums are returned per correlator and ordering;
    otherwise they are None.
    """
    kernels.check_options(mode=mode)
    charlie = () if delay is None else (delay.charlie,)
    quantum = _same_kind(*machines, *charlie) == "quantum"
    # The checks a machine file's initial state passes.
    psi = as_matrix2(state, "state", np.complex128 if quantum else np.float64,
                     (2,), error=RangeError, shape_error=ShapeMismatch, finite=False)
    psi = checked_qubit_state(psi) if quantum else checked_prob_vector(psi)
    t = 0 if delay is None else delay.t
    machines += charlie if t else ()
    # (machine, outcome, row, column, trial), outcomes in the order (-1, +1);
    # charlie is machine 4 when it acts.
    m = np.empty((len(machines), 2, 2, 2, 1), psi.dtype)
    m[..., 0] = [_OPERATORS[quantum](x) for x in machines]
    channel = quantum and delay is not None and delay.quantum_mode == "channel"
    c, raw = kernels._score_block(m[:4], m[4] if t else None, psi[:, None],
                                  (t,), quantum, channel, mode)
    raw_sums = None
    if raw is not None:
        by_order = {"a-first": raw[0, 0, ..., 0], "b-first": raw[0, 1, ..., 0].T}
        orders = [o for o in by_order if mode in (o, "symmetrized")]
        sums = zip(*(by_order[o].ravel().tolist() for o in orders))
        raw_sums = {key: dict(zip(orders, s))
                    for key, s in zip(_CORRELATORS, sums)}
    return c[0, ..., 0].ravel().tolist(), raw_sums


def expectation_seq(first: Machine, second: Machine, state: np.ndarray) -> float:
    """Expectation of the product of two sequential outcomes."""
    return correlator(first, second, state, "a-first")


def correlator(alice_machine: Machine, bob_machine: Machine,
               state: np.ndarray, mode: str = "symmetrized") -> float:
    """Sequential correlator of one machine pair under an ordering mode.

    a-first measures alice's machine before bob's, b-first the reverse, and
    symmetrized averages the two orderings.
    """
    # c11 of the parties (a, a) and (b, b) is this pair's correlator.
    machines = (alice_machine, alice_machine, bob_machine, bob_machine)
    return _correlate(machines, state, mode)[0][0]


def _score(alice: PartySpec, bob: PartySpec, state: np.ndarray, mode: str,
           convention: str, delay: DelaySpec | None = None) -> ChshResult:
    kernels.check_options(convention=convention)
    if not (isinstance(alice, PartySpec) and isinstance(bob, PartySpec)
            and isinstance(delay, (DelaySpec, type(None)))):
        raise KindMismatch("the parties must be PartySpecs and the delay a "
                           f"DelaySpec, got {alice!r:.40}, {bob!r:.40}, "
                           f"{delay!r:.40}")
    c, raw = _correlate((alice.basis1, alice.basis2, bob.basis1, bob.basis2),
                        state, mode, delay)
    return ChshResult(*c, *_scores(c), mode=mode,
                      convention=convention, raw_sums=raw)


def chsh_score(alice: PartySpec, bob: PartySpec, state: np.ndarray,
               mode: str = "symmetrized",
               convention: str = "canonical") -> ChshResult:
    """Score the four basis combinations of two parties at zero delay."""
    return _score(alice, bob, state, mode, convention)


def delayed_chsh_score(alice: PartySpec, bob: PartySpec, state: np.ndarray,
                       delay: DelaySpec, mode: str = "symmetrized",
                       convention: str = "canonical") -> ChshResult:
    """Score with the delay machine acting t times between measurements.

    t=0 applies no map and matches chsh_score bit-for-bit.  A classical
    charlie contributes (t_minus + t_plus)^t between the parties' matrices.
    A quantum charlie acts per DelaySpec.quantum_mode; in vector-sum mode
    the result's raw_sums records the unrenormalised four-outcome sum per
    correlator and ordering.
    """
    return _score(alice, bob, state, mode, convention, delay)


def spatial_reference_score(theta_a1: float, theta_a2: float,
                            theta_b1: float, theta_b2: float) -> ChshResult:
    """Reference score for spatially separated projective measurements.

    Each party measures the spin component at an angle in the x-z plane
    (cos theta sigma_z + sin theta sigma_x) on one half of a maximally
    correlated two-qubit state, giving the closed form
    c_nm = cos(theta_a_n - theta_b_m).  Both orderings coincide here, so
    the result is tagged symmetrized.
    """
    t = as_matrix2((theta_a1, theta_a2, theta_b1, theta_b2), "the angles",
                   np.float64, (4,), error=RangeError).tolist()
    c = [float(np.cos(ta - tb)) for ta in t[:2] for tb in t[2:]]
    s_canonical, s_max = _scores(c)
    return ChshResult(c[0], c[1], c[2], c[3], s_canonical, s_max,
                      mode="symmetrized", convention="canonical")
