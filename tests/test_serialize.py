"""Machine and result documents: round-trips, schema errors, CSV shapes."""
import json

import numpy as np
import pytest

from tempora import (Histogram, MachineFile, ParseError, PartySpec,
                     SweepConfig, ValidationError, chsh_score,
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
