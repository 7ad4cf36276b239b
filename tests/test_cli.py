"""Command-line entry point: exit codes, output documents, error paths."""
import json
import subprocess
import sys

import numpy as np
import pytest

from tempora import MachineFile, PartySpec, mm_from_params, save_machine_file
from tempora.cli import main

TWO_SQRT2 = 2.0 * np.sqrt(2.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_passes_all_anchors(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    lines = [line for line in out.strip().split("\n") if line]
    assert len(lines) == 3
    assert all(line.startswith("PASS") for line in lines)


def test_sample_json_document(capsys):
    code, out, _ = run_cli(capsys, "sample", "--kind", "mm",
                           "--count", "300", "--seed", "5", "--bins", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "tempora/v1"
    assert doc["config"]["kind"] == "mm"
    assert doc["config"]["seed"] == 5
    hist = doc["histogram"]
    assert len(hist["counts"]) == 16
    assert sum(hist["counts"]) + hist["underflow"] + hist["overflow"] == 300
    assert doc["summary"]["count"] == 300
    assert 0.0 <= doc["summary"]["fraction_above_2"] <= 1.0


def test_sample_csv_format(capsys):
    code, out, _ = run_cli(capsys, "sample", "--kind", "mm", "--count", "50",
                           "--bins", "8", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 9
    assert sum(int(line.split(",")[2]) for line in lines[1:]) <= 50


def test_sample_zero_count(capsys):
    code, out, _ = run_cli(capsys, "sample", "--kind", "hqmm", "--count", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["count"] == 0
    assert doc["summary"]["mean_s"] is None


def test_sample_writes_file(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, "sample", "--kind", "mm", "--count", "20",
                           "--out", str(out_path))
    assert code == 0 and out == ""
    doc = json.loads(out_path.read_text())
    assert doc["summary"]["count"] == 20


def test_sample_range_flag(capsys):
    code, out, _ = run_cli(capsys, "sample", "--kind", "mm", "--count", "10",
                           "--range", "1.0,3.0", "--bins", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["histogram"]["lo"] == 1.0 and doc["histogram"]["hi"] == 3.0


def test_delay_csv(capsys):
    code, out, _ = run_cli(capsys, "delay", "--kind", "hmm", "--count", "200",
                           "--seed", "3", "--t-list", "0,1,2",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,count,mean_s,max_s,fraction_above_2"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]
    assert all(line.split(",")[1] == "200" for line in lines[1:])


def test_delay_json(capsys):
    code, out, _ = run_cli(capsys, "delay", "--kind", "hqmm", "--count", "64",
                           "--t-list", "0,2", "--quantum-mode", "channel")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["quantum_mode"] == "channel"
    assert [p["t"] for p in doc["delay"]] == [0, 2]


def test_score_machine_file(tmp_path, capsys):
    from tempora import TransitionPair
    always_minus = TransitionPair([[0, 0], [1, 1]], [[0, 0], [0, 0]])
    always_plus = TransitionPair([[0, 0], [0, 0]], [[1, 1], [0, 0]])
    echo = TransitionPair([[0, 0], [0, 1]], [[1, 0], [0, 0]])
    mf = MachineFile(alice=PartySpec(always_minus, always_plus),
                     bob=PartySpec(always_minus, echo),
                     initial=np.array([1.0, 0.0]))
    path = tmp_path / "anchor.json"
    save_machine_file(path, mf)
    code, out, _ = run_cli(capsys, "score", "--machines", str(path),
                           "--convention", "max-relabel")
    assert code == 0
    doc = json.loads(out)
    assert doc["s_max"] == pytest.approx(3.0, abs=1e-12)
    assert doc["s"] == doc["s_max"]


def test_score_with_delay_needs_charlie(tmp_path, capsys):
    mf = MachineFile(alice=PartySpec(mm_from_params(0.4, 0.6),
                                     mm_from_params(0.2, 0.9)),
                     bob=PartySpec(mm_from_params(0.5, 0.5),
                                   mm_from_params(0.8, 0.1)))
    path = tmp_path / "pair.json"
    save_machine_file(path, mf)
    code, _, err = run_cli(capsys, "score", "--machines", str(path), "--t", "2")
    assert code == 1
    assert "charlie" in err


def test_score_with_charlie_delay(tmp_path, capsys):
    mf = MachineFile(alice=PartySpec(mm_from_params(0.4, 0.6),
                                     mm_from_params(0.2, 0.9)),
                     bob=PartySpec(mm_from_params(0.5, 0.5),
                                   mm_from_params(0.8, 0.1)),
                     charlie=mm_from_params(0.3, 0.3))
    path = tmp_path / "triple.json"
    save_machine_file(path, mf)
    code, out, _ = run_cli(capsys, "score", "--machines", str(path), "--t", "3")
    assert code == 0
    doc = json.loads(out)
    assert 0.0 <= doc["s"] <= 4.0
    assert doc["convention"] == "canonical"


def test_score_rejects_negative_t(tmp_path, capsys):
    mf = MachineFile(alice=PartySpec(mm_from_params(0.4, 0.6),
                                     mm_from_params(0.2, 0.9)),
                     bob=PartySpec(mm_from_params(0.5, 0.5),
                                   mm_from_params(0.8, 0.1)))
    path = tmp_path / "pair.json"
    save_machine_file(path, mf)
    code, _, err = run_cli(capsys, "score", "--machines", str(path),
                           "--t", "-1")
    assert code == 1 and "error:" in err


def test_score_checks_t_before_reading_the_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "score", "--machines", str(path),
                           "--t", "-2")
    assert code == 1
    assert err == "error: --t must be >= 0, got -2\n"


def test_score_invalid_machine_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "schema": "tempora/v1",
        "parties": {
            "alice": [{"kind": "classical",
                       "t_minus": [[0.9, 0.5], [0.0, 0.5]],
                       "t_plus": [[0.0, 0.0], [0.0, 0.0]]}] * 2,
            "bob": [{"kind": "classical",
                     "t_minus": [[1.0, 1.0], [0.0, 0.0]],
                     "t_plus": [[0.0, 0.0], [0.0, 0.0]]}] * 2,
        },
    }))
    code, _, err = run_cli(capsys, "score", "--machines", str(path))
    assert code == 1
    assert "error:" in err and "column 0" in err


def test_score_missing_file(capsys):
    code, _, err = run_cli(capsys, "score", "--machines",
                           "/nonexistent/machines.json")
    assert code == 1
    assert "error:" in err


def test_spatial_command(capsys):
    code, out, _ = run_cli(capsys, "spatial", "--angles",
                           "0,1.5707963267948966,-0.7853981633974483,"
                           "0.7853981633974483")
    assert code == 0
    doc = json.loads(out)
    assert doc["s_max"] == pytest.approx(TWO_SQRT2, abs=1e-9)


def test_usage_errors_exit_2(capsys):
    for argv in (["sample"],                       # missing --kind
                 ["sample", "--kind", "qq"],       # bad choice
                 ["sample", "--kind", "mm", "--range", "1,2,3"],
                 ["delay", "--kind", "mm"],        # missing --t-list
                 ["delay", "--kind", "mm", "--t-list", "a,b"],
                 ["spatial", "--angles", "1,2"],
                 []):                              # missing command
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_bad_config_is_reported_not_raised(capsys):
    code, _, err = run_cli(capsys, "sample", "--kind", "mm",
                           "--count", "-5")
    assert code == 1
    assert "error:" in err and "count" in err


def test_threads_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("TEMPORA_THREADS", "2")
    code, out, _ = run_cli(capsys, "sample", "--kind", "mm", "--count", "40")
    assert code == 0
    assert json.loads(out)["summary"]["count"] == 40
    monkeypatch.setenv("TEMPORA_THREADS", "many")
    code, _, err = run_cli(capsys, "sample", "--kind", "mm", "--count", "40")
    assert code == 1 and "TEMPORA_THREADS" in err
    monkeypatch.setenv("TEMPORA_THREADS", "0")
    code, _, err = run_cli(capsys, "sample", "--kind", "mm", "--count", "40")
    assert code == 1 and "thread count" in err


def test_threads_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("TEMPORA_THREADS", "bogus")
    code, out, _ = run_cli(capsys, "sample", "--kind", "mm", "--count", "30",
                           "--threads", "1")
    assert code == 0
    assert json.loads(out)["summary"]["count"] == 30


def test_module_entry_point_subprocess():
    proc = subprocess.run([sys.executable, "-m", "tempora.cli", "verify"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 3
