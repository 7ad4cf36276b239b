"""Inputs of each workload, made from the benchmark seed alone.

Sweeps take the seed as their master seed.  Machine files for `score` come
from numpy.random.default_rng(seed), not from tempora's generator, so the
scalar path is fed inputs the package did not make.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

import oracle
from tempora.sampler import BATCH, SweepConfig

KINDS = ("mm", "hmm", "hqmm", "hqmm-proj")
QUANTUM_KINDS = ("hqmm", "hqmm-proj")
QUANTUM_MODES = ("vector-sum", "channel")
ORDERINGS = ("a-first", "b-first", "symmetrized")
CONVENTIONS = ("canonical", "max-relabel")

# Every count ends in a partial batch; sizes give each kind 0.05-0.2 s a sweep.
SAMPLE_COUNTS = {"mm": 8 * BATCH + 123, "hmm": 8 * BATCH + 123,
                 "hqmm": 2 * BATCH + 123, "hqmm-proj": 8 * BATCH + 123}
DELAY_T = (0, 1, 2, 4, 8, 16)
DELAY_COUNTS = {"mm": 2 * BATCH + 123, "hmm": 2 * BATCH + 123,
                "hqmm": 4096 + 123, "hqmm-proj": 4096 + 123}
SCORE_T = (0, 1, 2, 8)
FILES_PER_KIND = 96


def sample_configs(seed: int) -> list[SweepConfig]:
    return [SweepConfig(kind=k, count=SAMPLE_COUNTS[k], master_seed=seed)
            for k in KINDS]


def delay_configs(seed: int) -> list[SweepConfig]:
    """Classical kinds once; quantum kinds in both modes on the same trials."""
    return [SweepConfig(kind=k, count=DELAY_COUNTS[k], master_seed=seed,
                        t_list=DELAY_T, quantum_mode=qm)
            for k in KINDS
            for qm in (QUANTUM_MODES if k in QUANTUM_KINDS else ("vector-sum",))]


def delay_mode(cfg: SweepConfig) -> str:
    """classical, vector-sum or channel: how the intermediary acts."""
    return cfg.quantum_mode if cfg.kind in QUANTUM_KINDS else "classical"


@dataclass(frozen=True)
class ScoreJob:
    """One `tempora score` call: a machine file plus its flags."""

    kind: str
    text: str
    t: int
    ordering: str
    quantum_mode: str
    convention: str
    angles: tuple | None = None  # alice1, alice2, bob1, bob2 of projective files


def _classical_obj(t_minus, t_plus) -> dict:
    return {"kind": "classical", "t_minus": np.asarray(t_minus).tolist(),
            "t_plus": np.asarray(t_plus).tolist()}


def _quantum_obj(k_minus, k_plus) -> dict:
    def pairs(k):
        return [[float(z.real), float(z.imag)] for z in np.asarray(k).reshape(4)]
    return {"kind": "quantum", "k_minus": pairs(k_minus), "k_plus": pairs(k_plus)}


def _machine(kind: str, gen: np.random.Generator) -> tuple[dict, float | None]:
    """A random machine document and, for projective ones, its angle."""
    if kind == "mm":
        tm, tp = oracle.mm_machine(*gen.random((2, 1)))
        return _classical_obj(tm[0], tp[0]), None
    if kind == "hmm":
        tm, tp = oracle.hmm_machine(*oracle.hmm_params(gen.random((1, 6))))
        return _classical_obj(tm[0], tp[0]), None
    if kind == "hqmm-proj":
        phi = gen.uniform(0.0, 2.0 * np.pi)
        km, kp = oracle.projective_machine(np.array([phi]))
        return _quantum_obj(km[0], kp[0]), phi
    z = gen.normal(size=(2, 1, 4)) + 1j * gen.normal(size=(2, 1, 4))
    a, b, _ = oracle.gram_schmidt(z[0], z[1])
    km, kp = oracle.dilation_machine(a, b)
    return _quantum_obj(km[0], kp[0]), None


def _state(kind: str, gen: np.random.Generator) -> list:
    if kind not in QUANTUM_KINDS:
        p = float(gen.random())
        return [p, 1.0 - p]
    z = gen.normal(size=2) + 1j * gen.normal(size=2)
    z /= np.linalg.norm(z)
    return [[float(c.real), float(c.imag)] for c in z]


def machine_file(kind: str, gen: np.random.Generator) -> tuple[dict, tuple | None]:
    """A random machine file with a charlie and an initial state, and the
    angles of alice's and bob's machines when they are projective."""
    drawn = [_machine(kind, gen) for _ in range(5)]
    obj = {"schema": "tempora/v1",
           "parties": {"alice": [drawn[0][0], drawn[1][0]],
                       "bob": [drawn[2][0], drawn[3][0]]},
           "charlie": drawn[4][0],
           "initial": _state(kind, gen)}
    return obj, tuple(d[1] for d in drawn[:4]) if kind == "hqmm-proj" else None


def score_jobs(seed: int) -> list[ScoreJob]:
    """FILES_PER_KIND files of each kind, cycling t, mode, ordering, convention."""
    gen = np.random.default_rng(seed)
    flags = [(t, qm, o) for t in SCORE_T for qm in QUANTUM_MODES for o in ORDERINGS]
    jobs = []
    for kind in KINDS:
        for j in range(FILES_PER_KIND):
            obj, angles = machine_file(kind, gen)
            t, qm, ordering = flags[j % len(flags)]
            jobs.append(ScoreJob(kind, json.dumps(obj), t, ordering, qm,
                                 CONVENTIONS[(j // len(flags)) % 2], angles))
    return jobs


def build(workload: str, seed: int) -> list:
    if workload in ("sample", "sample-pool"):
        return sample_configs(seed)
    if workload == "delay":
        return delay_configs(seed)
    if workload == "score":
        return score_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")
