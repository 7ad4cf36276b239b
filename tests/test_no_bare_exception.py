"""Property test: no public entry leaks a bare exception or a warning.

Each entry below is called once with valid arguments, then with one argument
at a time replaced by a mutation of it: a number scaled by 1e308, NaN, an
infinity, a numeric string, a bool, None, a ragged or nested list, a scalar
where a sequence belongs, a sequence of the wrong length, or a negative or
huge integer.  Nested arguments (matrices, machine files) are mutated at
leaves picked by a seeded generator, so every run makes the same calls.

A call must return or raise a TemporaError; cli.main must return 0 or 1, or
exit with argparse's status 2.  Every warning is an error here, so a numpy
RuntimeWarning fails the test like a bare exception.  A huge `count` goes
only through SweepConfig.validate: a sweep of it would run for years.  The
scorers and kernels are driven with delays that stay finite: numpy warns
when a vector-sum map overflows in a direct call to delayed_chsh_score or
the kernels, as tests/test_sampler.py pins for the kernels.  The sweeps and
`tempora score`, which report a non-finite result themselves, silence it,
and the command lines below run such a delay.
"""
import copy
import math
import random
import warnings

import numpy as np

from tempora import (DelaySpec, Histogram, KrausPair, PartySpec, SweepConfig,
                     TemporaError, TransitionPair, chsh_from_correlators,
                     chsh_score, correlator, delayed_chsh_score,
                     expectation_seq, histogram_merge, hmm_from_params,
                     kernels, kraus_from_dilation, machine_file_from_obj,
                     machine_from_obj, mm_from_params, prob_vector,
                     projective_kraus, qubit_state, rng, run_delay_sweep,
                     run_sweep, sample_machine, save_machine_file,
                     spatial_reference_score, state_from_obj)
from tempora.cli import main

SEED = 23
BIG = 2 ** 52


def _scalars(v):
    """Mutations of one scalar argument."""
    out = [math.nan, math.inf, -math.inf, True, False, None, "1", "0.5",
           [[1], [2, 3]], [v], -1, BIG, 2 ** 63, 2 ** 64]
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        out += [v * 1e308, str(v)]
    if isinstance(v, str):
        out += ["", v.upper() + "x"]
    return out


def _leaves(v, path=()):
    """Paths to the scalar leaves of nested lists, tuples and dicts."""
    if isinstance(v, dict):
        return [p for k in v for p in _leaves(v[k], path + (k,))]
    if isinstance(v, (list, tuple)):
        return [p for i, x in enumerate(v) for p in _leaves(x, path + (i,))]
    return [path]


def _get(v, path):
    for k in path:
        v = v[k]
    return v


def _replace(v, path, leaf):
    v = copy.deepcopy(v)
    if not path:
        return leaf
    if isinstance(v, tuple):
        return tuple(_replace(list(v), path, leaf))
    v[path[0]] = _replace(v[path[0]], path[1:], leaf)
    return v


def _mutations(v, r: random.Random, leaves: int = 6):
    """Mutations of an argument: a scalar's, or for a sequence the wrong
    lengths, a scalar in its place, itself nested, and the scalar mutations
    of a few leaves picked by r."""
    if isinstance(v, np.ndarray):
        return _mutations(v.tolist(), r, leaves) + [
            np.full(v.shape, 1e308), v.astype(np.uint64) + np.uint64(BIG),
            v - 1]
    if not isinstance(v, (list, tuple, dict)):
        return _scalars(v)
    out = [3, 0.5, "1", None]
    if isinstance(v, (list, tuple)) and v:
        out += [v[:-1], type(v)(list(v) + [v[-1]]), [v], [list(v), [0]]]
    paths = _leaves(v)
    for path in r.sample(paths, min(leaves, len(paths))):
        out += [_replace(v, path, leaf) for leaf in _scalars(
            _get(v, path))]
    return out


MM = mm_from_params(0.3, 0.6)
P = PartySpec(MM, mm_from_params(0.5, 0.5))
CHARLIE = mm_from_params(0.2, 0.7)
K = projective_kraus(0.4)
Q = PartySpec(K, projective_kraus(1.1))
T_MINUS = [[0.3, 0.0], [0.0, 0.0]]
T_PLUS = [[0.0, 0.4], [0.7, 0.6]]
K_MINUS = K.k_minus.tolist()
K_PLUS = K.k_plus.tolist()
DOC = {"schema": "tempora/v1",
       "parties": {"alice": [{"kind": "quantum", "k_minus": [[0.5, 0]] * 4,
                              "k_plus": [[0.5, 0], [-0.5, 0], [-0.5, 0],
                                         [0.5, 0]]}] * 2,
                   "bob": [{"kind": "quantum", "k_minus": [[1, 0], [0, 0],
                                                            [0, 0], [0, 0]],
                            "k_plus": [[0, 0], [0, 0], [0, 0], [1, 0]]}] * 2},
       # K- + K+ = 1.4 I: a long vector-sum delay overflows.
       "charlie": {"kind": "quantum",
                   "k_minus": [[0.8, 0], [0, 0], [0, 0], [0.6, 0]],
                   "k_plus": [[0.6, 0], [0, 0], [0, 0], [0.8, 0]]},
       "initial": [[0.6, 0.0], [0.8, 0.0]]}


def _sweep(**changes):
    fields = dict(kind="mm", count=40, master_seed=3, bins=8,
                  range=(0.0, 4.0), t_list=None)
    fields.update(changes)
    return SweepConfig(**fields)


def _histogram(scores):
    h = Histogram.empty(8, -1.0, 4.0)
    h.add_scores(scores)
    return h


def _filled(h):
    h.add_scores([0.5, 3.5, -2.0, 9.0])
    return h.as_dict()


# name: (call, valid arguments)
ENTRIES = {
    "TransitionPair": (TransitionPair, (T_MINUS, T_PLUS)),
    "KrausPair": (KrausPair, (K_MINUS, K_PLUS)),
    "PartySpec": (PartySpec, (MM, CHARLIE)),
    "DelaySpec": (DelaySpec, (CHARLIE, 2, "channel")),
    "mm_from_params": (mm_from_params, (0.3, 0.6)),
    "hmm_from_params": (hmm_from_params, (0.1, 0.2, 0.3, 0.1, 0.2, 0.3)),
    "prob_vector": (prob_vector, (0.25, 0.75)),
    "qubit_state": (qubit_state, (0.6, 0.8j)),
    "projective_kraus": (projective_kraus, (0.4,)),
    "kraus_from_dilation": (kraus_from_dilation,
                            ([1, 0, 0, 0], [0, 0, 1j, 0])),
    "sample_machine of a Stream": (
        lambda *a: sample_machine("mm", rng.Stream(*a)), (3, 5, 1)),
    "chsh_score": (chsh_score, (P, P, [1.0, 0.0], "a-first", "max-relabel")),
    "chsh_score quantum": (chsh_score, (Q, Q, [0.6, 0.8], "b-first")),
    "delayed_chsh_score": (delayed_chsh_score,
                           (P, P, [0.5, 0.5], DelaySpec(CHARLIE, 3))),
    "delayed_chsh_score quantum": (
        delayed_chsh_score, (Q, Q, [0.6, 0.8], DelaySpec(K, 5, "vector-sum"))),
    "correlator": (correlator, (MM, CHARLIE, [1.0, 0.0], "symmetrized")),
    "expectation_seq": (expectation_seq, (K, K, [0.6, 0.8])),
    "chsh_from_correlators": (chsh_from_correlators, (0.5, -0.2, 0.3, 0.9)),
    "spatial_reference_score": (spatial_reference_score, (0.0, 1.5, -0.7, 0.7)),
    "machine_from_obj": (machine_from_obj,
                         ({"kind": "classical", "t_minus": T_MINUS,
                           "t_plus": T_PLUS},)),
    "state_from_obj": (state_from_obj, ([[0.6, 0.0], [0.8, 0.0]], "quantum")),
    "machine_file_from_obj": (machine_file_from_obj, (DOC,)),
    "SweepConfig.validate": (
        lambda *a: SweepConfig(*a).validate(),
        ("hmm", 40, 3, 8, (0.0, 4.0), "a-first", "canonical", False, (0, 2),
         "channel")),
    "run_sweep": (lambda *a: run_sweep(_sweep(
        master_seed=a[0], bins=a[1], range=a[2], random_initial=a[3]), a[4]),
        (3, 8, (0.0, 4.0), True, 1)),
    "run_delay_sweep": (lambda *a: run_delay_sweep(_sweep(
        kind="hqmm", master_seed=a[0], t_list=a[1], quantum_mode=a[2]), a[3]),
        (3, (0, 2), "vector-sum", 1)),
    "SweepConfig.as_dict": (
        lambda *a: SweepConfig(*a).as_dict(),
        ("hmm", 40, 3, 8, (0.0, 4.0), "a-first", "canonical", False, (0, 2),
         "channel")),
    "Histogram": (lambda *a: _filled(Histogram(*a)),
                  (-1.0, 4.0, np.ones(8, np.int64), 8, 0, 0, -0.5, 3.5)),
    "Histogram.empty": (Histogram.empty, (8, -1.0, 4.0)),
    "Histogram.add_scores": (_histogram, ([0.5, 3.5, -2.0, 9.0],)),
    "histogram_merge": (histogram_merge, (Histogram.empty(8, -1.0, 4.0),
                                          Histogram.empty(8, -1.0, 4.0))),
    "sample_machine": (sample_machine, ("hqmm", rng.Stream(3, 5, 1))),
    "kernels.machines_batch": (kernels.machines_batch,
                               ("hqmm", 3, [0, 7], (1, 4))),
    "kernels.initial_state_batch": (kernels.initial_state_batch,
                                    ("hqmm", 3, [0, 7], True)),
    "kernels.batch_scores": (kernels.batch_scores,
                             ("hmm", 3, np.array([0, 7]), "b-first",
                              "max-relabel", True)),
    "kernels.batch_delay_scores": (kernels.batch_delay_scores,
                                   ("hqmm-proj", 3, [0, 7], (0, 3), "channel",
                                    "symmetrized", "canonical", False)),
    "kernels.as_trials": (kernels.as_trials, ([0, 7],)),
    "kernels.check_int": (lambda name, v: kernels.check_int(name, v, 0, 9),
                          ("n", 5)),
}

CLI = {
    "sample": ["sample", "--kind", "mm", "--count", "40", "--seed", "3",
               "--bins", "8", "--range", "0,4", "--mode", "a-first",
               "--convention", "max-relabel", "--format", "csv",
               "--threads", "1"],
    "delay": ["delay", "--kind", "hqmm", "--count", "40", "--seed", "3",
              "--t-list", "0,2", "--quantum-mode", "vector-sum"],
    "score": ["score", "--machines", None, "--t", "3", "--quantum-mode",
              "vector-sum", "--mode", "b-first"],
    "spatial": ["spatial", "--angles", "0,1.5,-0.7,0.7"],
}
# Each option value of the CLI is also tried as these strings.
CLI_VALUES = ["-1", "0", "2000", "1e308", "nan", "inf", "-inf", "true", "",
              "1,2", "x", str(BIG), str(2 ** 64)]


def _calls():
    r = random.Random(SEED)
    for name, (call, args) in ENTRIES.items():
        yield f"{name} valid", call, args
        for i, arg in enumerate(args):
            for j, bad in enumerate(_mutations(arg, r)):
                yield (f"{name} arg {i} #{j}", call,
                       args[:i] + (bad,) + args[i + 1:])
    for bad in (BIG + 1, 2 ** 64, 10 ** 30):  # validated, never run
        yield f"huge count {bad}", lambda *a: SweepConfig(*a).validate(), (
            "mm", bad, 3)


def _outcome(call, args) -> str:
    """'ok' if the call returns or raises a TemporaError, else the leak."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(*args)
        except TemporaError:
            return "ok"
        except Exception as exc:  # a Warning raised as an error lands here
            return f"{type(exc).__name__}: {exc}"
    return "ok"


def test_every_mutated_call_returns_or_raises_a_tempora_error():
    leaks = [f"{name}: {got}" for name, call, args in _calls()
             if (got := _outcome(call, args)) != "ok"]
    assert not leaks, f"{len(leaks)} leaks:\n" + "\n".join(leaks[:40])


def test_every_mutated_command_line_exits_0_1_or_2(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_machine_file(path, machine_file_from_obj(DOC))
    leaks = []
    for name, argv in CLI.items():
        argv = [str(path) if a is None else a for a in argv]
        values = [i for i, a in enumerate(argv) if i and argv[i - 1][:2] == "--"]
        for i in [None] + values:
            for value in [None] if i is None else CLI_VALUES:
                if i is not None and argv[i - 1] == "--count" and len(value) > 9:
                    continue  # a huge count is checked by SweepConfig above
                trial = list(argv)
                if i is not None:
                    trial[i] = value
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        code = main(trial)
                    except SystemExit as exc:
                        code = exc.code
                    except Exception as exc:
                        code = f"{type(exc).__name__}: {exc}"
                capsys.readouterr()
                if code not in (0, 1, 2):
                    leaks.append(f"{trial}: {code}")
    assert not leaks, f"{len(leaks)} leaks:\n" + "\n".join(leaks[:40])
