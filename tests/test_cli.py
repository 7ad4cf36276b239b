"""Command-line entry point: exit codes, output documents, error paths."""
import dataclasses
import importlib.resources
import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tempora
from tempora import (MachineFile, PartySpec, machine_file_to_obj,
                     mm_from_params, rng, sample_machine, sampler,
                     save_machine_file)
from tempora.cli import main
from tempora.sampler import SweepConfig, run_delay_sweep, run_sweep
from tempora.serialize import (delay_csv, delay_result_to_obj, histogram_csv,
                               result_to_obj)

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


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["sample", "delay"])
def test_sweep_commands_print_the_api_document(capsys, command, fmt):
    argv = [command, "--kind", "hqmm", "--count", "300", "--seed", "4",
            "--bins", "12", "--format", fmt]
    cfg = SweepConfig(kind="hqmm", count=300, master_seed=4, bins=12)
    if command == "delay":
        argv += ["--t-list", "0,3", "--quantum-mode", "channel"]
        cfg = dataclasses.replace(cfg, t_list=(0, 3), quantum_mode="channel")
        stats = run_delay_sweep(cfg)
        doc, csv = delay_result_to_obj(cfg, stats), delay_csv(stats)
    else:
        hist, summary = run_sweep(cfg)
        doc, csv = result_to_obj(cfg, hist, summary), histogram_csv(hist)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (csv if fmt == "csv"
                   else json.dumps(doc, indent=2, allow_nan=False) + "\n")


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
    assert err == "error: --t must be a non-negative integer, got -2\n"


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


def _fixture_obj(name):
    path = importlib.resources.files("tempora") / "fixtures" / name
    return json.loads(path.read_text())


def _write_invalid(tmp_path, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    return path


def test_score_rejects_nan_initial_state(tmp_path, capsys):
    obj = _fixture_obj("classical_smax3.json")
    obj["initial"] = [float("nan"), 0.5]
    code, out, err = run_cli(capsys, "score", "--machines",
                             str(_write_invalid(tmp_path, obj)))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "not a probability vector" in err


@pytest.mark.parametrize("entry", [float("inf"), 10 ** 400])
def test_score_rejects_unrepresentable_entries(tmp_path, capsys, entry):
    obj = _fixture_obj("classical_smax3.json")
    obj["parties"]["alice"][0]["t_minus"][0][0] = entry
    code, out, err = run_cli(capsys, "score", "--machines",
                             str(_write_invalid(tmp_path, obj)))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "parties.alice[0]" in err


def test_score_of_an_overflowing_delay_is_an_error(tmp_path, capsys):
    # (k_minus + k_plus)^t grows like sqrt(2)^t; at t = 3000 the raw sums
    # overflow, and NaN has no JSON form.
    machines = [sample_machine("hqmm", rng.Stream(5, 0, slot))
                for slot in range(5)]
    path = tmp_path / "machines.json"
    save_machine_file(path, MachineFile(PartySpec(*machines[:2]),
                                        PartySpec(*machines[2:4]),
                                        charlie=machines[4]))
    with np.errstate(all="ignore"):
        code, out, err = run_cli(capsys, "score", "--machines", str(path),
                                 "--t", "3000")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "not finite" in err


def _numeric_paths(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _numeric_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _numeric_paths(value, path + (i,))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path


def _mutated(obj, rand):
    """A copy of the machine document with one numeric entry broken, and
    the name of the mutation."""
    obj = json.loads(json.dumps(obj))
    path = rand.choice(list(_numeric_paths(obj)))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    kind = rand.choice(("nan", "inf", "-inf", "scale", "huge", "string",
                        "bool", "nest", "shape"))
    if kind == "shape":
        if rand.random() < 0.5:
            parent.append(value)
        else:
            del parent[path[-1]]
    else:
        parent[path[-1]] = {
            "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
            "scale": value * 1e308, "huge": rand.choice((1, -1)) * 10 ** 400,
            "string": rand.choice((str(value), "x", "")),
            "bool": rand.choice((True, False)), "nest": [value],
        }[kind]
    return obj, kind


def _finite(obj):
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def test_mutated_machine_files_score_or_fail_cleanly(tmp_path, capsys):
    """Broken entries never end in a traceback or in NaN on stdout."""
    sources = [_fixture_obj("classical_smax3.json"),
               _fixture_obj("projective_2sqrt2.json")]
    for kind in ("mm", "hmm", "hqmm", "hqmm-proj"):
        machines = [sample_machine(kind, rng.Stream(11, 3, slot))
                    for slot in range(5)]
        state = [1.0, 0.0] if kind in ("mm", "hmm") else [1.0, 0.0j]
        sources.append(machine_file_to_obj(MachineFile(
            PartySpec(*machines[:2]), PartySpec(*machines[2:4]),
            charlie=machines[4], initial=np.array(state))))
    rand = random.Random(2024)
    path, out = tmp_path / "mutated.json", tmp_path / "score.json"
    outcomes = {0: 0, 1: 0}
    for source in sources:
        for _ in range(60):
            mutated, kind = _mutated(source, rand)
            path.write_text(json.dumps(mutated))
            out.unlink(missing_ok=True)
            argv = ["score", "--machines", str(path), "--out", str(out)]
            if "charlie" in source:
                argv += ["--t", "1", "--quantum-mode",
                         rand.choice(("vector-sum", "channel"))]
            code, _, err = run_cli(capsys, *argv)
            assert code in outcomes, (code, err)
            # A string or a bool is never a number, not even "0.5" or true.
            assert code == 1 or kind not in ("string", "bool"), (kind, err)
            outcomes[code] += 1
            if code == 0:
                doc = json.loads(out.read_text(), parse_constant=float)
                assert _finite(doc), doc
            else:
                assert err.startswith("error:") and not out.exists(), err
    assert outcomes[0] > 0 and outcomes[1] > 0


@pytest.mark.parametrize("data", [b"\xff\xfe{}",
                                  b"[" * 200000 + b"]" * 200000],
                         ids=["not-utf8", "too-deep"])
def test_score_of_an_unreadable_file_prints_one_error_line(tmp_path, capsys,
                                                          data):
    path = tmp_path / "machines.json"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "score", "--machines", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


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


def exit_in_batch(*args):
    """A batch body that kills the sweep child scoring it."""
    os._exit(9)


def test_a_sweep_child_that_dies_gives_an_error_message(capsys, monkeypatch):
    monkeypatch.setattr(sampler, "_batch", exit_in_batch)
    code, out, err = run_cli(capsys, "sample", "--kind", "mm", "--count",
                             str(2 * sampler.BATCH), "--threads", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error: sweep child ")
    assert "exited with code 9" in err and "Traceback" not in err
    assert multiprocessing.active_children() == []
    # The next pool sweep forks new children and gives the 1-worker bytes.
    monkeypatch.undo()
    argv = ("sample", "--kind", "mm", "--count", str(2 * sampler.BATCH))
    assert (run_cli(capsys, *argv, "--threads", "2")
            == run_cli(capsys, *argv, "--threads", "1"))
    assert len(multiprocessing.active_children()) == 2


def test_module_entry_point_subprocess():
    src = str(Path(tempora.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "tempora.cli", "verify"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 3


def test_overflowing_delay_sweep_prints_only_its_error():
    # In a subprocess, so that pytest's warning capture cannot hide numpy's
    # overflow warnings from stderr.
    src = str(Path(tempora.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "tempora.cli", "delay", "--kind", "hqmm",
         "--count", "64", "--seed", "1", "--t-list", "0,3000"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.stderr == ("error: delay scores are not finite: "
                           "t=3000: 25 of 64 trials\n")
    assert proc.returncode == 1
