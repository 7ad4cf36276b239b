"""Output checks against the oracle or a property the method must have.

Each check returns a list of problems (empty when the output passes).  The
program outputs a check reads are gathered first (`*_outputs`), so the
self-test can corrupt them and show that every check then fails.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

import oracle
from inputs import QUANTUM_KINDS, ScoreJob, delay_mode
from tempora import kernels, rng
from tempora.chsh import DelaySpec, PartySpec, delayed_chsh_score
from tempora.sampler import BATCH, SweepConfig, run_delay_sweep, run_sweep
from tempora.serialize import (delay_result_to_obj, machine_file_from_obj,
                               machine_file_to_obj, result_to_obj)

TOL = 1e-9
# Vector-sum tables whose raw sum is below this are ill-conditioned after
# renormalisation (rounding is amplified by 1/sum); for them the raw sums
# are compared instead of the renormalised scores, and they are counted.
RAW_SUM_FLOOR = 1e-6
STRIDE = 64
TWO_SQRT2 = 2.0 * math.sqrt(2.0)
SLOT_NAMES = ("alice1", "alice2", "bob1", "bob2")
DRAWS_PER_SLOT = {"mm": 2, "hmm": 6, "hqmm": 16, "hqmm-proj": 1}


def batches(count: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + BATCH, count)) for lo in range(0, count, BATCH)]


def subset(count: int) -> np.ndarray:
    """Every STRIDE-th trial of each batch plus each batch's last trial."""
    picks = [np.append(np.arange(lo, hi, STRIDE), hi - 1) for lo, hi in batches(count)]
    return np.unique(np.concatenate(picks))


def _bin(scores: np.ndarray, cfg: SweepConfig):
    """Histogram counts, underflow and overflow of the documented binning."""
    lo, hi = cfg.range
    idx = np.floor((scores - lo) * (cfg.bins / (hi - lo))).astype(np.int64)
    inside = (idx >= 0) & (idx < cfg.bins)
    return (np.bincount(idx[inside], minlength=cfg.bins),
            int(np.count_nonzero(idx < 0)), int(np.count_nonzero(idx >= cfg.bins)))


def _far(a, b, tol: float = TOL) -> int:
    return int(np.count_nonzero(~(np.abs(np.asarray(a) - np.asarray(b)) <= tol)))


# --- rng ----------------------------------------------------------------

@dataclass
class RngOutputs:
    counters: np.ndarray
    words: np.ndarray


def rng_outputs(cfg: SweepConfig, trials: np.ndarray) -> RngOutputs:
    """tempora's raw64 words for every draw of the given trials."""
    n = DRAWS_PER_SLOT[cfg.kind]
    slots = SLOT_NAMES + (("charlie",) if cfg.t_list is not None else ())
    ctr = np.concatenate([oracle.counters(trials, s, n).ravel() for s in slots])
    return RngOutputs(ctr, rng.raw64(cfg.master_seed, ctr))


def check_rng(cfg: SweepConfig, out: RngOutputs) -> list[str]:
    bad = int(np.count_nonzero(out.words != oracle.splitmix64(cfg.master_seed,
                                                              out.counters)))
    return [f"{cfg.kind}: {bad} raw64 words differ from SplitMix64"] if bad else []


# --- sample -------------------------------------------------------------

@dataclass
class SweepOutputs:
    doc: dict
    scores: list[np.ndarray]  # per batch; per-t rows for delay sweeps


def sweep_outputs(cfg: SweepConfig, text: str) -> SweepOutputs:
    """The document and the per-trial scores of each of the sweep's batches."""
    rows = []
    for lo, hi in batches(cfg.count):
        trials = np.arange(lo, hi, dtype=np.int64)
        if cfg.t_list is None:
            rows.append(kernels.batch_scores(cfg.kind, cfg.master_seed, trials,
                                             cfg.mode, cfg.convention))
        else:
            rows.append(kernels.batch_delay_scores(
                cfg.kind, cfg.master_seed, trials, tuple(cfg.t_list),
                cfg.quantum_mode, cfg.mode, cfg.convention))
    return SweepOutputs(json.loads(text), rows)


def _reference(cfg: SweepConfig, trials, delay: str = "none", t: int = 0) -> dict:
    ref = oracle.sweep_scores(cfg.kind, cfg.master_seed, trials, cfg.mode, delay, t)
    ref["s"] = ref["s_canonical" if cfg.convention == "canonical" else "s_max"]
    return ref


def check_sample(cfg: SweepConfig, out: SweepOutputs) -> list[str]:
    problems = []
    name = f"sample {cfg.kind}"
    hist, summary = out.doc["histogram"], out.doc["summary"]
    scores = np.concatenate(out.scores)
    counts, under, over = _bin(scores, cfg)
    if sum(hist["counts"]) + hist["underflow"] + hist["overflow"] != cfg.count \
            or hist["total"] != cfg.count or summary["count"] != cfg.count:
        problems.append(f"{name}: histogram does not account for {cfg.count} trials")
    if not (scores.min() >= 0.0 and scores.max() <= 4.0):
        problems.append(f"{name}: scores outside [0, 4]")
    if (hist["counts"] != counts.tolist() or hist["underflow"] != under
            or hist["overflow"] != over):
        problems.append(f"{name}: histogram differs from its trials' scores")
    mean = sum(float(b.sum()) for b in out.scores) / cfg.count
    if (summary["mean_s"] != mean or summary["observed_max"] != float(scores.max())
            or summary["observed_min"] != float(scores.min())):
        problems.append(f"{name}: summary differs from its trials' scores")

    trials = subset(cfg.count)
    bad = _far(scores[trials], _reference(cfg, trials)["s"])
    if bad:
        problems.append(f"{name}: {bad} of {trials.size} trials differ from the oracle")

    if cfg.kind == "hqmm-proj":
        problems += _check_closed_form(cfg, out.doc)
    return problems


def _check_closed_form(cfg: SweepConfig, doc: dict) -> list[str]:
    """Closed-form projective scores of every trial against the document."""
    problems = []
    name = f"sample {cfg.kind}"
    trials = np.arange(cfg.count)
    closed = oracle.projective_closed_form(
        *(oracle.draw_angle(cfg.master_seed, trials, s) for s in SLOT_NAMES))
    counts, under, over = _bin(closed, cfg)
    lo, hi = cfg.range
    pos = (closed - lo) * (cfg.bins / (hi - lo))
    near_edge = int(np.count_nonzero(np.abs(pos - np.round(pos)) < 1e-9))
    hist = doc["histogram"]
    moved = (int(np.abs(np.array(hist["counts"]) - counts).sum())
             + abs(hist["underflow"] - under) + abs(hist["overflow"] - over))
    if moved > 2 * near_edge:
        problems.append(f"{name}: histogram differs from the closed form in "
                        f"{moved} counts ({near_edge} scores at a bin edge)")
    if abs(doc["summary"]["mean_s"] - float(closed.mean())) > TOL:
        problems.append(f"{name}: mean_s differs from the closed form")
    if doc["summary"]["observed_max"] > TWO_SQRT2 + TOL:
        problems.append(f"{name}: maximum {doc['summary']['observed_max']!r} above 2*sqrt(2)")
    return problems


# --- delay --------------------------------------------------------------

def _sweep_machines(cfg: SweepConfig, trial: int):
    """One trial's machines as tempora objects, drawn by the batch path."""
    trials = np.array([trial])
    return [kernels.machine_from_batch(
        kernels.machines_batch(cfg.kind, cfg.master_seed, trials, slot), 0)
        for slot in (rng.SLOT_ALICE1, rng.SLOT_ALICE2, rng.SLOT_BOB1,
                     rng.SLOT_BOB2, rng.SLOT_CHARLIE)]


def _program_raw_sums(cfg: SweepConfig, trial: int, t: int) -> np.ndarray:
    """Raw vector-sum table sums of one trial, [correlator, ordering]."""
    a1, a2, b1, b2, charlie = _sweep_machines(cfg, trial)
    res = delayed_chsh_score(PartySpec(a1, a2), PartySpec(b1, b2),
                             np.array([1.0, 0.0], dtype=np.complex128),
                             DelaySpec(charlie, t, "vector-sum"), mode=cfg.mode)
    return np.array([[res.raw_sums[c].get(o, np.nan) for o in ("a-first", "b-first")]
                     for c in ("c11", "c12", "c21", "c22")])


def _raw_sums_far(program: np.ndarray, ref: np.ndarray) -> bool:
    used = ~np.isnan(ref)
    scale = np.maximum(1.0, np.abs(ref[used]))
    return bool(np.isnan(program[used]).any()
                or np.any(np.abs(program[used] - ref[used]) > TOL * scale))


def check_delay(cfg: SweepConfig, out: SweepOutputs) -> tuple[list[str], int]:
    """Problems, and the number of sub-floor vector-sum tables compared raw."""
    problems = []
    mode = delay_mode(cfg)
    name = f"delay {cfg.kind} {mode}"
    rows = np.concatenate(out.scores, axis=1)
    for r, point in enumerate(out.doc["delay"]):
        row = rows[r]
        mean = sum(float(b[r].sum()) for b in out.scores) / cfg.count
        if (point["t"] != cfg.t_list[r] or point["count"] != cfg.count
                or point["mean_s"] != mean or point["max_s"] != float(row.max())
                or point["fraction_above_2"]
                != int(np.count_nonzero(row > 2.0)) / cfg.count):
            problems.append(f"{name}: t={cfg.t_list[r]} point differs from its trials")
        if not (row.min() >= 0.0 and row.max() <= 4.0):
            problems.append(f"{name}: t={cfg.t_list[r]} scores outside [0, 4]")

    trials = subset(cfg.count)
    zero = kernels.batch_scores(cfg.kind, cfg.master_seed, trials, cfg.mode,
                                cfg.convention)
    at_zero = kernels.batch_delay_scores(cfg.kind, cfg.master_seed, trials, (0,),
                                         cfg.quantum_mode, cfg.mode, cfg.convention)
    if not np.array_equal(zero, at_zero[0]):
        problems.append(f"{name}: t=0 differs from zero-delay scores")

    subfloor = 0
    for r, t in enumerate(cfg.t_list):
        ref = _reference(cfg, trials, mode if t else "none", t)
        ok = np.ones(trials.size, dtype=bool)
        if mode == "vector-sum" and t > 0:
            low = ref["raw"] < RAW_SUM_FLOOR
            subfloor += int(np.count_nonzero(low))
            for k in np.nonzero(low.any(axis=(1, 2)))[0]:
                ok[k] = False
                if _raw_sums_far(_program_raw_sums(cfg, int(trials[k]), t), ref["raw"][k]):
                    problems.append(f"{name}: trial {trials[k]} t={t} raw sums "
                                    "differ from the oracle")
        bad = _far(rows[r][trials][ok], ref["s"][ok])
        if bad:
            problems.append(f"{name}: t={t}: {bad} of {int(ok.sum())} trials "
                            "differ from the oracle")
    return problems, subfloor


# --- score --------------------------------------------------------------

def check_score(job: ScoreJob, text: str) -> tuple[list[str], int]:
    """Problems, and the number of sub-floor vector-sum tables compared raw."""
    problems = []
    name = f"score {job.kind} t={job.t} {job.quantum_mode} {job.ordering}"
    obj = json.loads(job.text)
    if machine_file_to_obj(machine_file_from_obj(obj)) != obj:
        problems.append(f"{name}: machine file does not survive a round trip")
    got = json.loads(text)
    ref = oracle.machine_file_scores(obj, job.ordering, job.t, job.quantum_mode)
    vector_sum = job.kind in QUANTUM_KINDS and job.t > 0 and job.quantum_mode == "vector-sum"
    subfloor = int(np.count_nonzero(ref["raw"] < RAW_SUM_FLOOR)) if vector_sum else 0
    if vector_sum:
        raw = got.get("raw_sums") or {}
        program = np.array([[raw.get(c, {}).get(o, np.nan)
                             for o in ("a-first", "b-first")]
                            for c in ("c11", "c12", "c21", "c22")])
        if _raw_sums_far(program, ref["raw"][0]):
            problems.append(f"{name}: raw sums differ from the oracle")
    elif "raw_sums" in got:
        problems.append(f"{name}: raw sums reported outside vector-sum delay")
    if got["mode"] != job.ordering or got["convention"] != job.convention:
        problems.append(f"{name}: result does not echo its ordering and convention")
    selected = got["s_max"] if job.convention == "max-relabel" else got["s_canonical"]
    if got["s"] != selected:
        problems.append(f"{name}: s is not the {job.convention} score")
    if not subfloor:
        want = list(ref["c"][0]) + [ref["s_canonical"][0], ref["s_max"][0]]
        have = [got[k] for k in ("c11", "c12", "c21", "c22", "s_canonical", "s_max")]
        if _far(have, want):
            problems.append(f"{name}: scores differ from the oracle")
    if job.angles is not None and job.ordering == "symmetrized" \
            and (job.t == 0 or job.quantum_mode == "vector-sum"):
        if _far(got["s_canonical"], oracle.projective_closed_form(*job.angles)):
            problems.append(f"{name}: score differs from the projective closed form")
    return problems, subfloor


def renormalised_tables(text: str) -> int:
    """Tables of one score result whose raw sum strays from 1 by over 1e-9."""
    raw = json.loads(text).get("raw_sums") or {}
    return sum(abs(v - 1.0) > 1e-9 for sums in raw.values() for v in sums.values())


# --- self-test ----------------------------------------------------------

def self_test(seed: int, score_job: ScoreJob, score_text: str) -> list[str]:
    """Run each check on clean and on deliberately corrupted outputs.

    Returns problems: a clean output that fails, or a corrupted one that
    passes (a check that passes by construction).
    """
    problems = []

    def expect(label: str, clean: list, corrupt: list) -> None:
        if clean:
            problems.append(f"self-test {label}: clean output fails: {clean[0]}")
        if not corrupt:
            problems.append(f"self-test {label}: corrupted output passes")

    for kind in ("hmm", "hqmm-proj"):
        cfg = SweepConfig(kind=kind, count=3 * STRIDE + 7, master_seed=seed)
        text = json.dumps(result_to_obj(cfg, *run_sweep(cfg)))
        clean = sweep_outputs(cfg, text)
        shifted = [b.copy() for b in clean.scores]
        shifted[0][STRIDE] += 1e-6
        expect(f"sample {kind} score +1e-6", check_sample(cfg, clean),
               check_sample(cfg, replace(clean, scores=shifted)))
        doc = json.loads(text)
        counts = doc["histogram"]["counts"]
        src = int(np.nonzero(counts)[0][0])
        counts[src] -= 1
        counts[src + 1] += 1
        expect(f"sample {kind} histogram count moved", [],
               check_sample(cfg, replace(clean, doc=doc)))

    cfg = SweepConfig(kind="hqmm", count=STRIDE + 5, master_seed=seed)
    words = rng_outputs(cfg, subset(cfg.count))
    flipped = words.words.copy()
    flipped[len(flipped) // 2] ^= np.uint64(1 << 17)
    expect("raw64 word flipped", check_rng(cfg, words),
           check_rng(cfg, replace(words, words=flipped)))

    cfg = SweepConfig(kind="hqmm", count=2 * STRIDE + 3, master_seed=seed,
                      t_list=(0, 2), quantum_mode="channel")
    text = json.dumps(delay_result_to_obj(cfg, run_delay_sweep(cfg)))
    clean = sweep_outputs(cfg, text)
    shifted = [b.copy() for b in clean.scores]
    shifted[0][1, STRIDE] += 1e-6
    expect("delay score +1e-6", check_delay(cfg, clean)[0],
           check_delay(cfg, replace(clean, scores=shifted))[0])

    got = json.loads(score_text)
    got["c11"] += 1e-6
    expect("score c11 +1e-6", check_score(score_job, score_text)[0],
           check_score(score_job, json.dumps(got))[0])
    return problems
