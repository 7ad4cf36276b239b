"""JSON and CSV encodings of machines, machine files, and sweep results.

Machine document schema ("tempora/v1"):

* classical: {"kind": "classical", "t_minus": [[..,..],[..,..]], "t_plus": ...}
* quantum:   {"kind": "quantum", "k_minus": [[re,im] x 4], "k_plus": ...}
  with the four [re, im] pairs in row-major matrix order.

A machine file bundles both parties (and optionally an intermediary and an
initial state): {"schema": "tempora/v1", "parties": {"alice": [m1, m2],
"bob": [m1, m2]}, "charlie": m?, "initial": state?} where a classical state
is [p_minus, p_plus] and a quantum state [[re, im], [re, im]].

Floats are emitted via repr and therefore round-trip exactly.

Parsing checks each outside value once.  A machine's two operators go
through one algebra.as_matrix2 call, finiteness included; the machine is
then built from that read-only array by the private constructor of
TransitionPair or KrausPair, which does not convert it again, and checked
for completeness.  The public constructors keep every check.  When the
conversion fails, the operators are converted again one at a time, so the
error names the operator at fault, as the public constructors name it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .algebra import as_matrix2
from .chsh import Machine, PartySpec
from .classical import (TransitionPair, checked_prob_vector,
                        validate_classical)
from .errors import (CompletenessError, ParseError, RangeError,
                     ShapeMismatch, TemporaError, ValidationError)
from .quantum import KrausPair, checked_qubit_state, validate_kraus

SCHEMA = "tempora/v1"


def machine_to_obj(m: Machine) -> dict:
    """JSON-ready dict for one machine."""
    if m.kind == "classical":
        return {"kind": "classical",
                "t_minus": m.t_minus.tolist(), "t_plus": m.t_plus.tolist()}
    return {"kind": "quantum",
            "k_minus": m.k_minus.view(np.float64).reshape(4, 2).tolist(),
            "k_plus": m.k_plus.view(np.float64).reshape(4, 2).tolist()}


def _require(obj: dict, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{where}: missing required field {key!r}")
    return obj[key]


def _operators(obj: dict, where: str, names: tuple, shape: tuple, build):
    """obj's two operators as one read-only float64 array of shape
    (2,) + shape, checked by one as_matrix2 call, finiteness included.

    An unfit pair goes through build, the constructor's own conversions,
    so that its error names the operator at fault.
    """
    ops = (_require(obj, names[0], where), _require(obj, names[1], where))
    try:
        return as_matrix2(ops, ", ".join(names), np.float64, (2,) + shape)
    except TemporaError:
        build(*ops)
        raise


def _kraus_pair(k_minus, k_plus) -> KrausPair:
    """The Kraus pair of two lists of four [re, im] pairs."""
    k = as_matrix2((k_minus, k_plus), "k_minus, k_plus", np.float64,
                   (2, 4, 2), finite=False)
    return KrausPair(*k.view(np.complex128).reshape(2, 2, 2))


def machine_from_obj(obj: dict, where: str = "machine") -> Machine:
    """Parse and validate one machine document.

    The document's numbers are converted once, and the machine is built
    from that array without converting it again.
    """
    kind = _require(obj, "kind", where)
    try:
        if kind == "classical":
            t = _operators(obj, where, ("t_minus", "t_plus"), (2, 2),
                           TransitionPair)
            m: Machine = TransitionPair._trusted(t[0], t[1])
            validate_classical(m)
            return m
        if kind == "quantum":
            k = _operators(obj, where, ("k_minus", "k_plus"), (4, 2),
                           _kraus_pair).view(np.complex128).reshape(2, 2, 2)
            m = KrausPair._trusted(k[0], k[1])
            validate_kraus(m)
            return m
    except ShapeMismatch as exc:
        raise ParseError(f"{where}: {exc}") from exc
    except (CompletenessError, RangeError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    raise ParseError(f"{where}: unknown machine kind {kind!r}")


def state_to_obj(state: np.ndarray, kind: str) -> list:
    if kind == "classical":
        return as_matrix2(state, "state", np.float64, (2,)).tolist()
    psi = as_matrix2(state, "state", np.complex128, (2,))
    return psi.view(np.float64).reshape(2, 2).tolist()


def state_from_obj(obj, kind: str, where: str = "initial") -> np.ndarray:
    """Parse [p_minus, p_plus] or two [re, im] pairs, then check the state."""
    classical = kind == "classical"
    v = as_matrix2(obj, where, np.float64, (2,) if classical else (2, 2),
                   error=ParseError, finite=False)
    if classical:
        return checked_prob_vector(v, ValidationError)
    return checked_qubit_state(v.view(np.complex128).reshape(2), ValidationError)


@dataclass(frozen=True)
class MachineFile:
    """Parsed machine file: two parties, optional intermediary and state."""

    alice: PartySpec
    bob: PartySpec
    charlie: Machine | None = None
    initial: np.ndarray | None = None

    @property
    def kind(self) -> str:
        return self.alice.kind

    def default_state(self) -> np.ndarray:
        """The file's initial state, or the fixed -1 state."""
        if self.initial is not None:
            return self.initial
        if self.kind == "classical":
            return np.array([1.0, 0.0])
        return np.array([1.0, 0.0], dtype=np.complex128)


def machine_file_to_obj(mf: MachineFile) -> dict:
    out = {
        "schema": SCHEMA,
        "parties": {
            "alice": [machine_to_obj(mf.alice.basis1), machine_to_obj(mf.alice.basis2)],
            "bob": [machine_to_obj(mf.bob.basis1), machine_to_obj(mf.bob.basis2)],
        },
    }
    if mf.charlie is not None:
        out["charlie"] = machine_to_obj(mf.charlie)
    if mf.initial is not None:
        out["initial"] = state_to_obj(mf.initial, mf.kind)
    return out


def machine_file_from_obj(obj: dict) -> MachineFile:
    schema = _require(obj, "schema", "machine file")
    if schema != SCHEMA:
        raise ParseError(f"machine file: unsupported schema {schema!r}")
    parties = _require(obj, "parties", "machine file")
    machines = {}
    for party in ("alice", "bob"):
        entry = _require(parties, party, "parties")
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ParseError(f"parties.{party}: expected exactly two machines")
        machines[party] = [machine_from_obj(entry[n], f"parties.{party}[{n}]")
                           for n in (0, 1)]
    kinds = {m.kind for pair in machines.values() for m in pair}
    charlie = None
    if obj.get("charlie") is not None:
        charlie = machine_from_obj(obj["charlie"], "charlie")
        kinds.add(charlie.kind)
    if len(kinds) != 1:
        raise ValidationError(f"machine file mixes kinds {sorted(kinds)}")
    kind = kinds.pop()
    initial = None
    if obj.get("initial") is not None:
        initial = state_from_obj(obj["initial"], kind)
    return MachineFile(alice=PartySpec(*machines["alice"]),
                       bob=PartySpec(*machines["bob"]),
                       charlie=charlie, initial=initial)


def load_machine_file(path) -> MachineFile:
    """Read, parse and validate a machine file.  A file that is not UTF-8
    text or not JSON, including JSON nested too deep to decode or to show
    in an error message, raises ParseError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text: byte {exc.start} "
            f"({exc.object[exc.start]:#04x}) {exc.reason}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deep to decode") from exc
    try:
        return machine_file_from_obj(obj)
    except TemporaError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except RecursionError as exc:  # the repr of a value in a message
        raise ParseError(f"{path}: JSON nested too deep to parse") from exc


def save_machine_file(path, mf: MachineFile) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(machine_file_to_obj(mf), fh, indent=2)
        fh.write("\n")


def result_to_obj(cfg, hist, summary) -> dict:
    """Self-describing sweep result document."""
    return {"schema": SCHEMA, "config": cfg.as_dict(),
            "summary": summary.as_dict(), "histogram": hist.as_dict()}


def delay_result_to_obj(cfg, stats) -> dict:
    """Self-describing delay-sweep result document."""
    return {"schema": SCHEMA, "config": cfg.as_dict(),
            "delay": [p.as_dict() for p in stats.points]}


def histogram_csv(hist) -> str:
    """Plot-ready CSV with header bin_lo,bin_hi,count and LF endings."""
    width = (hist.hi - hist.lo) / hist.bins
    lines = ["bin_lo,bin_hi,count"]
    for i, count in enumerate(hist.counts):
        lines.append(f"{hist.lo + i * width!r},{hist.lo + (i + 1) * width!r},{int(count)}")
    return "\n".join(lines) + "\n"


def delay_csv(stats) -> str:
    """Per-t delay statistics as CSV with LF endings."""
    lines = ["t,count,mean_s,max_s,fraction_above_2"]
    for p in stats.points:
        lines.append(f"{p.t},{p.count},{p.mean_s!r},{p.max_s!r},"
                     f"{p.fraction_above_2!r}")
    return "\n".join(lines) + "\n"
