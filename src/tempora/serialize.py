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
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .chsh import Machine, PartySpec
from .classical import TransitionPair, prob_vector, validate_classical
from .errors import (CompletenessError, ParseError, RangeError,
                     ShapeMismatch, TemporaError, ValidationError)
from .quantum import KrausPair, qubit_state, validate_kraus

SCHEMA = "tempora/v1"


def machine_to_obj(m: Machine) -> dict:
    """JSON-ready dict for one machine."""
    if m.kind == "classical":
        return {"kind": "classical",
                "t_minus": m.t_minus.tolist(), "t_plus": m.t_plus.tolist()}
    return {"kind": "quantum",
            "k_minus": _cmatrix_to_obj(m.k_minus),
            "k_plus": _cmatrix_to_obj(m.k_plus)}


def _cmatrix_to_obj(k: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in k.reshape(4)]


def _cmatrix_from_obj(rows, where: str) -> list:
    """The [re, im] pairs as two rows of complex numbers; KrausPair makes
    the array, and rejects any count of pairs but four."""
    try:
        flat = [complex(float(re), float(im)) for re, im in rows]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: expected [re, im] pairs of numbers") from exc
    return [flat[:2], flat[2:]]


def _require(obj: dict, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{where}: missing required field {key!r}")
    return obj[key]


def machine_from_obj(obj: dict, where: str = "machine") -> Machine:
    """Parse and validate one machine document."""
    kind = _require(obj, "kind", where)
    try:
        if kind == "classical":
            m: Machine = TransitionPair(_require(obj, "t_minus", where),
                                        _require(obj, "t_plus", where))
            validate_classical(m)
            return m
        if kind == "quantum":
            m = KrausPair(
                _cmatrix_from_obj(_require(obj, "k_minus", where), f"{where}.k_minus"),
                _cmatrix_from_obj(_require(obj, "k_plus", where), f"{where}.k_plus"))
            validate_kraus(m)
            return m
    except ShapeMismatch as exc:
        raise ParseError(f"{where}: {exc}") from exc
    except (CompletenessError, RangeError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    raise ParseError(f"{where}: unknown machine kind {kind!r}")


def state_to_obj(state: np.ndarray, kind: str) -> list:
    state = np.asarray(state)
    if kind == "classical":
        return [float(state[0]), float(state[1])]
    return [[float(z.real), float(z.imag)] for z in state]


def state_from_obj(obj, kind: str, where: str = "initial") -> np.ndarray:
    try:
        if kind == "classical":
            p0, p1 = (float(x) for x in obj)
            return prob_vector(p0, p1)
        (re0, im0), (re1, im1) = obj
        return qubit_state(complex(float(re0), float(im0)),
                           complex(float(re1), float(im1)))
    except RangeError as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: malformed state for kind {kind!r}") from exc


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
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    try:
        return machine_file_from_obj(obj)
    except TemporaError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


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
