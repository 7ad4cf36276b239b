"""Machine and result documents: round-trips, schema errors, CSV shapes."""
import json
import sys

import numpy as np
import pytest

from tempora import algebra
from tempora import (Histogram, MachineFile, ParseError, PartySpec,
                     SweepConfig, TemporaError, ValidationError, chsh_score,
                     delay_csv, delay_result_to_obj, histogram_csv,
                     load_machine_file, machine_file_from_obj,
                     machine_file_to_obj, machine_from_obj,
                     machine_to_obj, mm_from_params,
                     projective_kraus, result_to_obj, run_delay_sweep,
                     run_sweep, save_machine_file, state_from_obj,
                     state_to_obj)
from tempora.rng import SLOT_ALICE1, Stream
from tempora.sampler import sample_machine
from tempora.serialize import SCHEMA


@pytest.mark.parametrize("kind", ["mm", "hmm", "hqmm", "hqmm-proj"])
def test_machine_roundtrip_is_exact(kind):
    for trial in range(50):
        m = sample_machine(kind, Stream(61, trial, SLOT_ALICE1))
        back = machine_from_obj(json.loads(json.dumps(machine_to_obj(m))))
        np.testing.assert_array_equal(back.op(-1), m.op(-1))
        np.testing.assert_array_equal(back.op(+1), m.op(+1))


def test_machine_to_obj_shapes():
    obj = machine_to_obj(mm_from_params(0.25, 0.75))
    assert obj["kind"] == "classical"
    assert obj["t_minus"] == [[0.25, 0.25], [0.0, 0.0]]
    obj = machine_to_obj(projective_kraus(0.0))
    assert obj["kind"] == "quantum"
    assert obj["k_minus"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]


def test_machine_from_obj_rejects_unknown_kind():
    with pytest.raises(ParseError):
        machine_from_obj({"kind": "fuzzy"})


def test_machine_from_obj_rejects_missing_fields():
    with pytest.raises(ParseError):
        machine_from_obj({"kind": "classical", "t_minus": [[1, 0], [0, 0]]})
    with pytest.raises(ParseError):
        machine_from_obj({"kind": "quantum", "k_minus": [[1, 0]] * 4})


def test_machine_from_obj_rejects_malformed_matrices():
    with pytest.raises(ParseError):
        machine_from_obj({"kind": "classical",
                          "t_minus": [[1, 0, 0], [0, 0, 0]],
                          "t_plus": [[0, 0], [0, 1]]})
    with pytest.raises(ParseError):
        machine_from_obj({"kind": "quantum",
                          "k_minus": [[1, 0], [0, 0], [0, 0]],
                          "k_plus": [[0, 0]] * 4})
    with pytest.raises(ParseError):
        machine_from_obj({"kind": "quantum", "k_minus": [[1, 0]] + [[0, 0]] * 4,
                          "k_plus": [[0, 0]] * 4})
    with pytest.raises(ParseError):
        machine_from_obj({"kind": "classical", "t_minus": [[1, "a"], [0, 0]],
                          "t_plus": [[0, 0], [0, 1]]})


def test_machine_from_obj_validates_completeness():
    with pytest.raises(ValidationError):
        machine_from_obj({"kind": "classical",
                          "t_minus": [[0.5, 0.0], [0.0, 0.0]],
                          "t_plus": [[0.0, 0.5], [0.2, 0.5]]})
    with pytest.raises(ValidationError):
        machine_from_obj({"kind": "quantum",
                          "k_minus": [[1, 0], [0, 0], [0, 0], [1, 0]],
                          "k_plus": [[1, 0], [0, 0], [0, 0], [1, 0]]})


def test_state_round_trip_both_kinds():
    eta = state_from_obj(state_to_obj(np.array([0.3, 0.7]), "classical"),
                         "classical")
    np.testing.assert_array_equal(eta, [0.3, 0.7])
    psi = np.array([0.6, 0.8j])
    back = state_from_obj(state_to_obj(psi, "quantum"), "quantum")
    np.testing.assert_array_equal(back, psi)


def test_state_from_obj_validates():
    with pytest.raises(ValidationError):
        state_from_obj([0.5, 0.6], "classical")
    with pytest.raises(ValidationError):
        state_from_obj([[1.0, 0.0], [1.0, 0.0]], "quantum")
    with pytest.raises(ParseError):
        state_from_obj("not-a-state", "classical")


def machine_file_example(kind):
    a1, a2, b1, b2, charlie = (sample_machine(kind, Stream(67, 5, slot))
                               for slot in range(5))
    initial = (np.array([0.25, 0.75]) if kind == "hmm"
               else np.array([0.6, 0.8j]))
    return MachineFile(alice=PartySpec(a1, a2), bob=PartySpec(b1, b2),
                       charlie=charlie, initial=initial)


@pytest.mark.parametrize("kind", ["hmm", "hqmm"])
def test_machine_file_roundtrip(kind, tmp_path):
    mf = machine_file_example(kind)
    path = tmp_path / "machines.json"
    save_machine_file(path, mf)
    back = load_machine_file(path)
    assert back.kind == mf.kind
    for name in ("basis1", "basis2"):
        for party in ("alice", "bob"):
            want = getattr(getattr(mf, party), name)
            got = getattr(getattr(back, party), name)
            np.testing.assert_array_equal(got.op(-1), want.op(-1))
            np.testing.assert_array_equal(got.op(+1), want.op(+1))
    np.testing.assert_array_equal(back.charlie.op(-1), mf.charlie.op(-1))
    np.testing.assert_array_equal(back.initial, mf.initial)
    # identical scoring after the round trip
    before = chsh_score(mf.alice, mf.bob, mf.default_state())
    after = chsh_score(back.alice, back.bob, back.default_state())
    assert before == after


def test_machine_file_without_optionals():
    mf = MachineFile(alice=PartySpec(mm_from_params(0.5, 0.5),
                                     mm_from_params(0.1, 0.9)),
                     bob=PartySpec(mm_from_params(0.3, 0.3),
                                   mm_from_params(0.7, 0.7)))
    obj = machine_file_to_obj(mf)
    assert "charlie" not in obj and "initial" not in obj
    back = machine_file_from_obj(obj)
    assert back.charlie is None and back.initial is None
    np.testing.assert_array_equal(back.default_state(), [1.0, 0.0])


def test_machine_file_rejects_wrong_schema():
    obj = machine_file_to_obj(machine_file_example("hmm"))
    obj["schema"] = "tempora/v0"
    with pytest.raises(ParseError):
        machine_file_from_obj(obj)


def test_machine_file_rejects_mixed_kinds():
    obj = machine_file_to_obj(machine_file_example("hmm"))
    obj["parties"]["bob"][1] = machine_to_obj(projective_kraus(0.2))
    with pytest.raises(ValidationError):
        machine_file_from_obj(obj)


def test_machine_file_rejects_wrong_party_arity():
    obj = machine_file_to_obj(machine_file_example("hmm"))
    obj["parties"]["alice"] = obj["parties"]["alice"][:1]
    with pytest.raises(ParseError):
        machine_file_from_obj(obj)


def test_load_machine_file_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": "tempora/v1",\n  "parties": }\n')
    with pytest.raises(ParseError) as err:
        load_machine_file(path)
    assert "line 2" in str(err.value)
    assert str(path) in str(err.value)


# Files that are not UTF-8 JSON text the decoder can read: a UTF-16 byte
# order mark, and brackets nested deeper than the decoder recurses.
UNREADABLE_FILES = {
    "not-utf8": (b"\xff\xfe{}", "not UTF-8 text: byte 0 (0xff)"),
    "too-deep": (b"[" * 200000 + b"]" * 200000,
                 "JSON nested too deep to decode"),
}


@pytest.mark.parametrize("name", sorted(UNREADABLE_FILES))
def test_load_machine_file_rejects_unreadable_text(tmp_path, name):
    data, message = UNREADABLE_FILES[name]
    path = tmp_path / f"{name}.json"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        load_machine_file(path)
    assert str(err.value).startswith(f"{path}: {message}")


def test_load_machine_file_rejects_a_matrix_nested_nearly_too_deep(tmp_path):
    # Nested just shallower than the decoder's limit, a matrix decodes, and
    # the repr in its error message can then run out of stack.  Every depth
    # around the limit must give one ParseError.
    path = tmp_path / "deep.json"
    limit = sys.getrecursionlimit()
    for depth in range(limit - 60, limit + 5):
        path.write_text(json.dumps({"schema": SCHEMA, "parties": {
            "alice": [{"kind": "classical", "t_minus": "X",
                       "t_plus": _T["t_plus"]}] * 2,
            "bob": [_T, _T]}}).replace('"X"', "[" * depth + "]" * depth))
        with pytest.raises(ParseError) as err:
            load_machine_file(path)
        assert str(err.value).startswith(f"{path}: ")


def test_load_machine_file_prefixes_path_on_validation_errors(tmp_path):
    obj = machine_file_to_obj(machine_file_example("hmm"))
    obj["parties"]["bob"][1]["t_minus"] = [[0.9, 0.0], [0.0, 0.0]]
    obj["parties"]["bob"][1]["t_plus"] = [[0.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValidationError) as err:
        load_machine_file(path)
    assert str(path) in str(err.value)


def test_result_documents_are_json_ready():
    cfg = SweepConfig(kind="mm", count=200, master_seed=15)
    hist, summary = run_sweep(cfg)
    doc = result_to_obj(cfg, hist, summary)
    text = json.dumps(doc)
    parsed = json.loads(text)
    assert parsed["schema"] == SCHEMA
    assert parsed["config"]["kind"] == "mm"
    assert sum(parsed["histogram"]["counts"]) + parsed["histogram"]["underflow"] \
        + parsed["histogram"]["overflow"] == 200
    assert parsed["summary"]["count"] == 200

    dcfg = SweepConfig(kind="mm", count=100, master_seed=15, t_list=(0, 1))
    stats = run_delay_sweep(dcfg)
    ddoc = json.loads(json.dumps(delay_result_to_obj(dcfg, stats)))
    assert ddoc["config"]["t_list"] == [0, 1]
    assert [p["t"] for p in ddoc["delay"]] == [0, 1]


def test_histogram_csv_layout():
    h = Histogram.empty(4, 0.0, 4.0)
    h.add_scores(np.array([0.5, 1.5, 1.6, 3.2]))
    text = histogram_csv(h)
    lines = text.split("\n")
    assert lines[0] == "bin_lo,bin_hi,count"
    assert lines[1] == "0.0,1.0,1"
    assert lines[2] == "1.0,2.0,2"
    assert text.endswith("\n") and "\r" not in text
    assert len(lines) == 6  # header + 4 bins + trailing newline split


def test_histogram_csv_floats_roundtrip():
    h = Histogram.empty(3, 0.0, 2.0)
    text = histogram_csv(h)
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    assert float(rows[0][1]) == float(rows[1][0])  # shared bin edge
    assert [int(r[2]) for r in rows] == [0, 0, 0]


def test_delay_csv_layout():
    cfg = SweepConfig(kind="mm", count=64, master_seed=19, t_list=(0, 2))
    stats = run_delay_sweep(cfg)
    text = delay_csv(stats)
    lines = text.strip().split("\n")
    assert lines[0] == "t,count,mean_s,max_s,fraction_above_2"
    assert len(lines) == 3
    t_col = [line.split(",")[0] for line in lines[1:]]
    assert t_col == ["0", "2"]
    mean0 = float(lines[1].split(",")[2])
    assert mean0 == stats.point(0).mean_s


# A machine file whose leaves are mutated one at a time below: a classical
# and a quantum one, each machine complete and each state valid.
_T = {"kind": "classical", "t_minus": [[0.5, 0.25], [0.0, 0.25]],
      "t_plus": [[0.25, 0.5], [0.25, 0.0]]}
_K = {"kind": "quantum", "k_minus": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0],
                                     [0.8, 0.0]],
      "k_plus": [[0.8, 0.0], [0.0, 0.0], [0.0, 0.0], [0.6, 0.0]]}
MALFORMED_BASES = {
    "classical": ({"schema": SCHEMA, "parties": {"alice": [_T, _T],
                                                 "bob": [_T, _T]},
                   "charlie": _T, "initial": [0.5, 0.5]},
                  [("parties", "alice", 0, "t_minus", 0, 0),
                   ("parties", "bob", 1, "t_plus", 1, 1),
                   ("charlie", "t_minus", 1, 0), ("initial", 0)]),
    "quantum": ({"schema": SCHEMA, "parties": {"alice": [_K, _K],
                                               "bob": [_K, _K]},
                 "charlie": _K, "initial": [[0.6, 0.0], [0.0, 0.8]]},
                [("parties", "alice", 0, "k_minus", 0, 0),
                 ("parties", "bob", 1, "k_plus", 3, 1),
                 ("charlie", "k_plus", 2, 1), ("initial", 1, 1)]),
}
# How a leaf v is mutated; short-row drops the last entry of v's row.
LEAF_MUTATIONS = {
    "nan": lambda v: float("nan"), "1e400": lambda v: float("1e400"),
    "true": lambda v: True, "str": lambda v: "1", "nested": lambda v: [v],
    "pair": lambda v: [v, 0.0], "complex": lambda v: complex(v, 0.5),
}


def malformed_file(kind, leaf, mutation):
    """MALFORMED_BASES[kind] with leaf `leaf` (an index into its leaves)
    mutated by `mutation`, a key of LEAF_MUTATIONS or short-row."""
    obj = json.loads(json.dumps(MALFORMED_BASES[kind][0]))
    path = MALFORMED_BASES[kind][1][leaf]
    row = obj
    for key in path[:-1]:
        row = row[key]
    if mutation == "short-row":
        del row[-1]
    else:
        row[path[-1]] = LEAF_MUTATIONS[mutation](row[path[-1]])
    return obj


def test_a_machine_file_is_converted_once_per_value(monkeypatch):
    # One as_matrix2 call converts each machine, finiteness included, and
    # one the initial state; scoring the parsed parties converts only the
    # state, as the scorers check it like any outside state.
    from tempora import DelaySpec, delayed_chsh_score
    real = algebra.as_matrix2
    names = []

    def counted(m, name, *args, **kw):
        names.append(name)
        return real(m, name, *args, **kw)
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "tempora"
                and getattr(module, "as_matrix2", None) is real):
            monkeypatch.setattr(module, "as_matrix2", counted)
    for kind, ops in (("classical", "t_minus, t_plus"),
                      ("quantum", "k_minus, k_plus")):
        mf = machine_file_from_obj(MALFORMED_BASES[kind][0])
        assert names == [ops] * 5 + ["initial"]
        del names[:]
        state = mf.default_state()
        chsh_score(mf.alice, mf.bob, state)
        for quantum_mode in ("vector-sum", "channel"):
            delayed_chsh_score(mf.alice, mf.bob, state,
                               DelaySpec(mf.charlie, 2, quantum_mode))
        assert names == ["state"] * 3
        del names[:]


# The exception of each malformed leaf, as machine_file_from_obj raised it
# when every operator was converted on its own: parsing each machine with
# one conversion must keep both the class and the message.
MALFORMED_ERRORS = {
    ("classical", 0, "nan"): ("ValidationError",
        "parties.alice[0]: t_minus contains non-finite entries"),
    ("classical", 0, "1e400"): ("ValidationError",
        "parties.alice[0]: t_minus contains non-finite entries"),
    ("classical", 0, "true"): ("ParseError",
        "parties.alice[0]: t_minus must be 2x2 numbers of shape (2,"
        " 2), got [[True, 0.25], [0.0, 0.25]]"),
    ("classical", 0, "str"): ("ParseError",
        "parties.alice[0]: t_minus must be 2x2 numbers of shape (2,"
        " 2), got [['1', 0.25], [0.0, 0.25]]"),
    ("classical", 0, "nested"): ("ParseError",
        "parties.alice[0]: t_minus must be 2x2 numbers of shape (2,"
        " 2), got [[[0.5], 0.25], [0.0, 0.25]]"),
    ("classical", 0, "pair"): ("ParseError",
        "parties.alice[0]: t_minus must be 2x2 numbers of shape (2,"
        " 2), got [[[0.5, 0.0], 0.25], [0.0, 0.25]]"),
    ("classical", 0, "complex"): ("ValidationError",
        "parties.alice[0]: t_minus must be real, got complex entrie"
        "s"),
    ("classical", 0, "short-row"): ("ParseError",
        "parties.alice[0]: t_minus must be 2x2 numbers of shape (2,"
        " 2), got [[0.5], [0.0, 0.25]]"),
    ("classical", 1, "nan"): ("ValidationError",
        "parties.bob[1]: t_plus contains non-finite entries"),
    ("classical", 1, "1e400"): ("ValidationError",
        "parties.bob[1]: t_plus contains non-finite entries"),
    ("classical", 1, "true"): ("ParseError",
        "parties.bob[1]: t_plus must be 2x2 numbers of shape (2, 2)"
        ", got [[0.25, 0.5], [0.25, True]]"),
    ("classical", 1, "str"): ("ParseError",
        "parties.bob[1]: t_plus must be 2x2 numbers of shape (2, 2)"
        ", got [[0.25, 0.5], [0.25, '1']]"),
    ("classical", 1, "nested"): ("ParseError",
        "parties.bob[1]: t_plus must be 2x2 numbers of shape (2, 2)"
        ", got [[0.25, 0.5], [0.25, [0.0]]]"),
    ("classical", 1, "pair"): ("ParseError",
        "parties.bob[1]: t_plus must be 2x2 numbers of shape (2, 2)"
        ", got [[0.25, 0.5], [0.25, [0.0, 0.0]]]"),
    ("classical", 1, "complex"): ("ValidationError",
        "parties.bob[1]: t_plus must be real, got complex entries"),
    ("classical", 1, "short-row"): ("ParseError",
        "parties.bob[1]: t_plus must be 2x2 numbers of shape (2, 2)"
        ", got [[0.25, 0.5], [0.25]]"),
    ("classical", 2, "nan"): ("ValidationError",
        "charlie: t_minus contains non-finite entries"),
    ("classical", 2, "1e400"): ("ValidationError",
        "charlie: t_minus contains non-finite entries"),
    ("classical", 2, "true"): ("ParseError",
        "charlie: t_minus must be 2x2 numbers of shape (2, 2), got "
        "[[0.5, 0.25], [True, 0.25]]"),
    ("classical", 2, "str"): ("ParseError",
        "charlie: t_minus must be 2x2 numbers of shape (2, 2), got "
        "[[0.5, 0.25], ['1', 0.25]]"),
    ("classical", 2, "nested"): ("ParseError",
        "charlie: t_minus must be 2x2 numbers of shape (2, 2), got "
        "[[0.5, 0.25], [[0.0], 0.25]]"),
    ("classical", 2, "pair"): ("ParseError",
        "charlie: t_minus must be 2x2 numbers of shape (2, 2), got "
        "[[0.5, 0.25], [[0.0, 0.0], 0.25]]"),
    ("classical", 2, "complex"): ("ValidationError",
        "charlie: t_minus must be real, got complex entries"),
    ("classical", 2, "short-row"): ("ParseError",
        "charlie: t_minus must be 2x2 numbers of shape (2, 2), got "
        "[[0.5, 0.25], [0.0]]"),
    ("classical", 3, "nan"): ("ValidationError",
        "(nan, 0.5) is not a probability vector"),
    ("classical", 3, "1e400"): ("ValidationError",
        "(inf, 0.5) is not a probability vector"),
    ("classical", 3, "true"): ("ParseError",
        "initial must be 2 numbers of shape (2,), got [True, 0.5]"),
    ("classical", 3, "str"): ("ParseError",
        "initial must be 2 numbers of shape (2,), got ['1', 0.5]"),
    ("classical", 3, "nested"): ("ParseError",
        "initial must be 2 numbers of shape (2,), got [[0.5], 0.5]"),
    ("classical", 3, "pair"): ("ParseError",
        "initial must be 2 numbers of shape (2,), got [[0.5, 0.0], "
        "0.5]"),
    ("classical", 3, "complex"): ("ParseError",
        "initial must be real, got complex entries"),
    ("classical", 3, "short-row"): ("ParseError",
        "initial must be 2 numbers of shape (2,), got array([0.5])"),
    ("quantum", 0, "nan"): ("ValidationError",
        "parties.alice[0]: k_minus contains non-finite entries"),
    ("quantum", 0, "1e400"): ("ValidationError",
        "parties.alice[0]: k_minus contains non-finite entries"),
    ("quantum", 0, "true"): ("ParseError",
        "parties.alice[0]: k_minus, k_plus must be 2x4x2 numbers of"
        " shape (2, 4, 2), got ([[True, 0.0], [0.0, 0.0], [0.0, 0.0"
        "], [0.8, 0.0]], [[0.8, 0"),
    ("quantum", 0, "str"): ("ParseError",
        "parties.alice[0]: k_minus, k_plus must be 2x4x2 numbers of"
        " shape (2, 4, 2), got ([['1', 0.0], [0.0, 0.0], [0.0, 0.0]"
        ", [0.8, 0.0]], [[0.8, 0."),
    ("quantum", 0, "nested"): ("ParseError",
        "parties.alice[0]: k_minus, k_plus must be 2x4x2 numbers of"
        " shape (2, 4, 2), got ([[[0.6], 0.0], [0.0, 0.0], [0.0, 0."
        "0], [0.8, 0.0]], [[0.8, "),
    ("quantum", 0, "pair"): ("ParseError",
        "parties.alice[0]: k_minus, k_plus must be 2x4x2 numbers of"
        " shape (2, 4, 2), got ([[[0.6, 0.0], 0.0], [0.0, 0.0], [0."
        "0, 0.0], [0.8, 0.0]], [["),
    ("quantum", 0, "complex"): ("ValidationError",
        "parties.alice[0]: k_minus, k_plus must be real, got comple"
        "x entries"),
    ("quantum", 0, "short-row"): ("ParseError",
        "parties.alice[0]: k_minus, k_plus must be 2x4x2 numbers of"
        " shape (2, 4, 2), got ([[0.6], [0.0, 0.0], [0.0, 0.0], [0."
        "8, 0.0]], [[0.8, 0.0], ["),
    ("quantum", 1, "nan"): ("ValidationError",
        "parties.bob[1]: k_plus contains non-finite entries"),
    ("quantum", 1, "1e400"): ("ValidationError",
        "parties.bob[1]: k_plus contains non-finite entries"),
    ("quantum", 1, "true"): ("ParseError",
        "parties.bob[1]: k_minus, k_plus must be 2x4x2 numbers of s"
        "hape (2, 4, 2), got ([[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], "
        "[0.8, 0.0]], [[0.8, 0."),
    ("quantum", 1, "str"): ("ParseError",
        "parties.bob[1]: k_minus, k_plus must be 2x4x2 numbers of s"
        "hape (2, 4, 2), got ([[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], "
        "[0.8, 0.0]], [[0.8, 0."),
    ("quantum", 1, "nested"): ("ParseError",
        "parties.bob[1]: k_minus, k_plus must be 2x4x2 numbers of s"
        "hape (2, 4, 2), got ([[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], "
        "[0.8, 0.0]], [[0.8, 0."),
    ("quantum", 1, "pair"): ("ParseError",
        "parties.bob[1]: k_minus, k_plus must be 2x4x2 numbers of s"
        "hape (2, 4, 2), got ([[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], "
        "[0.8, 0.0]], [[0.8, 0."),
    ("quantum", 1, "complex"): ("ValidationError",
        "parties.bob[1]: k_minus, k_plus must be real, got complex "
        "entries"),
    ("quantum", 1, "short-row"): ("ParseError",
        "parties.bob[1]: k_minus, k_plus must be 2x4x2 numbers of s"
        "hape (2, 4, 2), got ([[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], "
        "[0.8, 0.0]], [[0.8, 0."),
    ("quantum", 2, "nan"): ("ValidationError",
        "charlie: k_plus contains non-finite entries"),
    ("quantum", 2, "1e400"): ("ValidationError",
        "charlie: k_plus contains non-finite entries"),
    ("quantum", 2, "true"): ("ParseError",
        "charlie: k_minus, k_plus must be 2x4x2 numbers of shape (2"
        ", 4, 2), got ([[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.8, 0"
        ".0]], [[0.8, 0."),
    ("quantum", 2, "str"): ("ParseError",
        "charlie: k_minus, k_plus must be 2x4x2 numbers of shape (2"
        ", 4, 2), got ([[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.8, 0"
        ".0]], [[0.8, 0."),
    ("quantum", 2, "nested"): ("ParseError",
        "charlie: k_minus, k_plus must be 2x4x2 numbers of shape (2"
        ", 4, 2), got ([[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.8, 0"
        ".0]], [[0.8, 0."),
    ("quantum", 2, "pair"): ("ParseError",
        "charlie: k_minus, k_plus must be 2x4x2 numbers of shape (2"
        ", 4, 2), got ([[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.8, 0"
        ".0]], [[0.8, 0."),
    ("quantum", 2, "complex"): ("ValidationError",
        "charlie: k_minus, k_plus must be real, got complex entries"),
    ("quantum", 2, "short-row"): ("ParseError",
        "charlie: k_minus, k_plus must be 2x4x2 numbers of shape (2"
        ", 4, 2), got ([[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.8, 0"
        ".0]], [[0.8, 0."),
    ("quantum", 3, "nan"): ("ValidationError",
        "state has squared norm nan, expected 1"),
    ("quantum", 3, "1e400"): ("ValidationError",
        "state has squared norm inf, expected 1"),
    ("quantum", 3, "true"): ("ParseError",
        "initial must be 2x2 numbers of shape (2, 2), got [[0.6, 0."
        "0], [0.0, True]]"),
    ("quantum", 3, "str"): ("ParseError",
        "initial must be 2x2 numbers of shape (2, 2), got [[0.6, 0."
        "0], [0.0, '1']]"),
    ("quantum", 3, "nested"): ("ParseError",
        "initial must be 2x2 numbers of shape (2, 2), got [[0.6, 0."
        "0], [0.0, [0.8]]]"),
    ("quantum", 3, "pair"): ("ParseError",
        "initial must be 2x2 numbers of shape (2, 2), got [[0.6, 0."
        "0], [0.0, [0.8, 0.0]]]"),
    ("quantum", 3, "complex"): ("ParseError",
        "initial must be real, got complex entries"),
    ("quantum", 3, "short-row"): ("ParseError",
        "initial must be 2x2 numbers of shape (2, 2), got [[0.6, 0."
        "0], [0.0]]"),
}


def test_each_malformed_leaf_keeps_its_error():
    assert len(MALFORMED_ERRORS) == sum(
        len(leaves) for _, leaves in MALFORMED_BASES.values()) * (
            len(LEAF_MUTATIONS) + 1)
    for case, (cls, message) in MALFORMED_ERRORS.items():
        with pytest.raises(TemporaError) as err:
            machine_file_from_obj(malformed_file(*case))
        assert (case, type(err.value).__name__, str(err.value)) == (
            case, cls, message)
