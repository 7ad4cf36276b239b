"""Random machine sampling, batch kernels, histograms, and sweep plumbing."""
import ctypes
import functools
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import platform
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import tempora
from oracles import (DegenerateInput, channel_stepped_table,
                     orthonormalize_pair, projective_correlators,
                     selected_score, table_correlators, table_score)
from tempora import (ConfigError, DelaySpec, Histogram, KrausPair, PartySpec,
                     RangeError, SamplingError, ShapeMismatch, SweepConfig,
                     TransitionPair, chsh_score, delayed_chsh_score,
                     histogram_merge, hmm_from_params, kraus_from_dilation,
                     mm_from_params, projective_kraus, run_delay_sweep,
                     run_sweep, sample_machine, validate_classical,
                     validate_kraus)
from tempora import kernels, rng, sampler
from tempora.rng import (SLOT_ALICE1, SLOT_ALICE2, SLOT_BOB1, SLOT_BOB2,
                         SLOT_CHARLIE, SLOT_INITIAL, Stream)
from tempora.sampler import BATCH, KINDS
from tempora.serialize import delay_result_to_obj, result_to_obj

QUANTUM_KINDS = ("hqmm", "hqmm-proj")


def block_size(kind, t_list=(0,), random_initial=False):
    """Trials per block of the scoring core in one configuration."""
    return kernels._block_layout(kind, any(t_list), random_initial)[2]


# Trials per block of every layout: four or five slots, real or complex.
BLOCK_SIZES = sorted({block_size(kind, t_list, random_initial)
                      for kind in KINDS for t_list in ((0,), (1,))
                      for random_initial in (False, True)})


def trial_counters(trial, slot, n, attempt=0):
    """The n counters of one (trial, slot, attempt), in draw order."""
    return rng.slot_counters([trial], slot, n, attempt).ravel()


def scalar_initial_state(kind, seed, trial):
    """Mirror of the batch initial-state draw, built through the scalar API."""
    if kind in QUANTUM_KINDS:
        z = rng.normals(seed, trial_counters(trial, SLOT_INITIAL, 4))
        z = z.view(np.float64)
        psi = np.array([z[0] + 1j * z[1], z[2] + 1j * z[3]])
        return psi / np.sqrt(np.sum(psi.real ** 2 + psi.imag ** 2))
    u = float(rng.uniform01(seed, trial_counters(trial, SLOT_INITIAL, 1))[0])
    return np.array([u, 1.0 - u])


def scalar_machine(kind, seed, trial, slot, first_attempt=0):
    """One machine drawn one number at a time through the public scalar
    constructors, independently of machines_batch."""
    if kind == "mm":
        a, b = rng.uniform01(seed, trial_counters(trial, slot, 2)).tolist()
        return mm_from_params(a, b)
    if kind == "hmm":
        u = rng.uniform01(seed, trial_counters(trial, slot, 6)).tolist()
        a = u[0]
        b = (1.0 - a) * u[1]
        c = (1.0 - a - b) * u[2]
        d = u[3]
        e = (1.0 - d) * u[4]
        f = (1.0 - d - e) * u[5]
        return hmm_from_params(a, b, c, d, e, f)
    if kind == "hqmm-proj":
        u = float(rng.uniform01(seed, trial_counters(trial, slot, 1))[0])
        return projective_kraus((2.0 * np.pi) * u)
    for attempt in range(first_attempt, kernels.MAX_ATTEMPTS):
        c = rng.normals(seed, trial_counters(trial, slot, 16, attempt))
        try:
            a, b = orthonormalize_pair(c[:4], c[4:])
        except DegenerateInput:
            continue
        return kraus_from_dilation(a, b)
    raise SamplingError(f"no usable dilation pair (trial={trial})")


def scalar_parties(kind, seed, trial):
    alice = PartySpec(sample_machine(kind, Stream(seed, trial, SLOT_ALICE1)),
                      sample_machine(kind, Stream(seed, trial, SLOT_ALICE2)))
    bob = PartySpec(sample_machine(kind, Stream(seed, trial, SLOT_BOB1)),
                    sample_machine(kind, Stream(seed, trial, SLOT_BOB2)))
    return alice, bob


# ---------------------------------------------------------------------------
# scalar sampling

@pytest.mark.parametrize("kind", KINDS)
def test_sample_machine_is_deterministic(kind):
    a = sample_machine(kind, Stream(3, 17, 2))
    b = sample_machine(kind, Stream(3, 17, 2))
    if kind in QUANTUM_KINDS:
        np.testing.assert_array_equal(a.k_minus, b.k_minus)
        np.testing.assert_array_equal(a.k_plus, b.k_plus)
    else:
        np.testing.assert_array_equal(a.t_minus, b.t_minus)
        np.testing.assert_array_equal(a.t_plus, b.t_plus)


def test_sample_machine_rejects_unknown_kind():
    with pytest.raises(ValueError):
        sample_machine("qmm", Stream(0, 0))


@pytest.mark.parametrize("kind", KINDS)
def test_sampled_machines_pass_validation(kind):
    for trial in range(1000):
        m = sample_machine(kind, Stream(21, trial, SLOT_ALICE1))
        if kind in QUANTUM_KINDS:
            validate_kraus(m)
        else:
            validate_classical(m)


def test_sampled_kinds_have_expected_types():
    assert isinstance(sample_machine("mm", Stream(0, 0)), TransitionPair)
    assert isinstance(sample_machine("hmm", Stream(0, 0)), TransitionPair)
    assert isinstance(sample_machine("hqmm", Stream(0, 0)), KrausPair)
    assert isinstance(sample_machine("hqmm-proj", Stream(0, 0)), KrausPair)


def test_mm_machines_expose_two_state_structure():
    m = sample_machine("mm", Stream(4, 9))
    # output -1 always lands in state 0, output +1 in state 1
    assert m.t_minus[1, 0] == 0.0 and m.t_minus[1, 1] == 0.0
    assert m.t_plus[0, 0] == 0.0 and m.t_plus[0, 1] == 0.0


# ---------------------------------------------------------------------------
# batch kernels against the scalar path

@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("slot", [SLOT_ALICE1, SLOT_CHARLIE])
def test_machines_batch_equals_scalar_samples(kind, slot):
    seed = 31
    trials = np.arange(64, dtype=np.int64)
    batch = kernels.machines_batch(kind, seed, trials, slot)
    assert batch.shape == (2, 2, 2, 64)
    for idx in (0, 1, 7, 33, 63):
        m = sample_machine(kind, Stream(seed, int(trials[idx]), slot))
        got = kernels.machine_from_batch(batch, idx)
        np.testing.assert_array_equal(got.op(-1), m.op(-1))
        np.testing.assert_array_equal(got.op(+1), m.op(+1))
    # sample_machine is the n=1 batch row, so both are checked against the
    # reference built from the scalar constructors.
    for idx in range(64):
        ref = scalar_machine(kind, seed, int(trials[idx]), slot)
        got = kernels.machine_from_batch(batch, idx)
        m = sample_machine(kind, Stream(seed, int(trials[idx]), slot))
        for symbol in (-1, +1):
            np.testing.assert_array_equal(got.op(symbol), ref.op(symbol))
            np.testing.assert_array_equal(m.op(symbol), ref.op(symbol))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [BATCH, 20000])
def test_machines_batch_row_does_not_depend_on_the_batch_length(kind, n):
    # sample_machine draws a one-trial batch, so every row of a sweep's
    # batch must keep its bytes at n=1, across score blocks and to the end.
    batch = kernels.machines_batch(kind, 7, np.arange(n), SLOT_CHARLIE)
    rows = np.r_[0:n:97, np.subtract(BLOCK_SIZES, 1), BLOCK_SIZES, n - 1]
    ones = np.concatenate([kernels.machines_batch(kind, 7, [row],
                                                  SLOT_CHARLIE)
                           for row in rows], axis=-1)
    np.testing.assert_array_equal(
        ones.view(np.uint64),
        np.ascontiguousarray(batch[..., rows]).view(np.uint64))


def test_machines_batch_rejects_unknown_kind():
    with pytest.raises(ValueError):
        kernels.machines_batch("pdfa", 0, np.arange(4), 0)


@pytest.mark.parametrize("n_draws", [1, 2, 4, 6, 16])
def test_slot_counters_are_the_trial_major_counters_transposed(n_draws):
    trials = np.arange(10**9, 10**9 + 37, dtype=np.int64)
    base = (trials.astype(np.uint64) * np.uint64(4096)
            + np.uint64(SLOT_BOB2 * 512))
    trial_major = base[:, None] + np.arange(n_draws, dtype=np.uint64)[None, :]
    got = rng.slot_counters(trials, SLOT_BOB2, n_draws)
    assert got.dtype == np.uint64 and got.flags.c_contiguous
    np.testing.assert_array_equal(got, trial_major.T)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [123, BATCH + 123])
def test_machines_batch_into_out_keeps_the_bytes(kind, n):
    trials = np.arange(5 * n, 6 * n, dtype=np.int64)
    fresh = kernels.machines_batch(kind, 29, trials, SLOT_BOB1)
    machines = np.full((4,) + fresh.shape, np.nan, dtype=fresh.dtype)
    out = machines[2]
    assert kernels.machines_batch(kind, 29, trials, SLOT_BOB1, out=out) is out
    assert out.tobytes() == fresh.tobytes()
    assert np.isnan(machines[[0, 1, 3]]).all()


@pytest.mark.parametrize("kind", KINDS)
def test_machines_batch_rejects_a_wrong_out(kind):
    # hqmm-proj also takes float64, the real parts of its draw; hqmm does not.
    dtypes = {"hqmm": (np.complex128,),
              "hqmm-proj": (np.complex128, np.float64)}.get(kind,
                                                            (np.float64,))
    trials = np.arange(8)
    wrong = [np.empty((2, 2, 2, 8), dtype=other)
             for other in (np.complex128, np.float64, np.float32)
             if other not in dtypes]
    for dtype in dtypes:
        wrong += [np.empty((2, 2, 2, 7), dtype=dtype),
                  np.empty((2, 2, 8), dtype=dtype)]
    for out in wrong:
        with pytest.raises(ShapeMismatch):
            kernels.machines_batch(kind, 0, trials, SLOT_ALICE1, out=out)


@pytest.mark.parametrize("n", [1, 123, BATCH + 123])
def test_real_hqmm_proj_draw_is_the_real_part_of_the_complex_draw(n):
    trials = np.arange(3 * n, 4 * n, dtype=np.int64)
    fresh = kernels.machines_batch("hqmm-proj", 29, trials, SLOT_BOB2)
    assert not fresh.imag.any()
    # Into a view of a larger buffer, which keeps the rest of its entries.
    buffer = np.full((2, 2, 2, 2, n), np.nan)
    out = buffer[0]
    assert kernels.machines_batch("hqmm-proj", 29, trials, SLOT_BOB2,
                                  out=out) is out
    assert out.tobytes() == np.ascontiguousarray(fresh.real).tobytes()
    assert np.isnan(buffer[1]).all()


def test_hqmm_batch_redraws_degenerate_rows(monkeypatch):
    # Raise the batch tolerance just past the shortest Gram-Schmidt norm of
    # 64 trials, so exactly that row is redrawn from its attempt-1 counters.
    seed, slot = 31, SLOT_BOB1
    trials = np.arange(64, dtype=np.int64)
    shortest = []
    for trial in trials:
        z = rng.normals(seed, trial_counters(int(trial), slot, 16))
        z = z.view(np.float64)
        u, v = z[0:8:2] + 1j * z[1:8:2], z[8::2] + 1j * z[9::2]
        a = u / np.linalg.norm(u)
        shortest.append(min(np.linalg.norm(u),
                            np.linalg.norm(v - np.vdot(a, v) * a)))
    first, second = np.sort(shortest)[:2]
    row = int(np.argmin(shortest))
    plain = kernels.machines_batch("hqmm", seed, trials, slot)

    monkeypatch.setattr(kernels, "DEGENERACY_TOL", 0.5 * (first + second))
    batch = kernels.machines_batch("hqmm", seed, trials, slot)

    m = scalar_machine("hqmm", seed, row, slot, first_attempt=1)
    np.testing.assert_array_equal(batch[0, :, :, row], m.k_minus)
    np.testing.assert_array_equal(batch[1, :, :, row], m.k_plus)
    others = np.arange(64) != row
    np.testing.assert_array_equal(batch[..., others], plain[..., others])


def test_hqmm_batch_gives_up_after_max_attempts(monkeypatch):
    # Every draw is degenerate, so rows 5..8 all fail their 17 attempts and
    # the error names the first of them.
    monkeypatch.setattr(kernels, "DEGENERACY_TOL", np.inf)
    with pytest.raises(SamplingError, match=r"seed=31, trial=5, slot=2\)"):
        kernels.machines_batch("hqmm", 31, np.arange(5, 9), SLOT_BOB1)


ALL_SLOTS = (SLOT_ALICE1, SLOT_ALICE2, SLOT_BOB1, SLOT_BOB2, SLOT_CHARLIE)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 123, block_size("hqmm") + 1])
def test_multi_slot_draw_stacks_the_single_slot_draws(kind, n):
    trials = np.arange(2 * n, 3 * n, dtype=np.int64)
    for slots in (ALL_SLOTS, (SLOT_CHARLIE, SLOT_ALICE1, SLOT_BOB2)):
        stacked = np.stack([kernels.machines_batch(kind, 29, trials, slot)
                            for slot in slots])
        got = kernels.machines_batch(kind, 29, trials, slots)
        assert got.shape == (len(slots), 2, 2, 2, n)
        assert got.dtype == stacked.dtype
        assert got.tobytes() == stacked.tobytes()
    # Into a block view of a wider buffer, as the scoring core draws; an
    # hqmm-proj float64 out gets the real parts.
    dtypes = [stacked.dtype] + [np.float64] * (kind == "hqmm-proj")
    for dtype in dtypes:
        buffer = np.full((len(slots), 2, 2, 2, n + 3), np.nan, dtype=dtype)
        out = buffer[..., :n]
        assert kernels.machines_batch(kind, 29, trials, slots, out=out) is out
        want = stacked.real if dtype == np.float64 else stacked
        assert (np.ascontiguousarray(out).tobytes()
                == np.ascontiguousarray(want).tobytes())
        assert np.isnan(buffer[..., n:]).all()


def test_multi_slot_draw_rejects_a_wrong_out():
    trials = np.arange(8)
    for out in (np.empty((4, 2, 2, 2, 8)), np.empty((2, 2, 2, 8)),
                np.empty((5, 2, 2, 2, 7)), np.empty((5, 2, 2, 2, 8),
                                                    dtype=np.complex128)):
        with pytest.raises(ShapeMismatch):
            kernels.machines_batch("mm", 0, trials, ALL_SLOTS, out=out)


def test_multi_slot_hqmm_redraws_a_degenerate_row_from_its_own_slot(
        monkeypatch):
    # Raise the tolerance just past the shortest Gram-Schmidt norm of 64
    # trials in five slots, and draw that row's slot last, so only it is
    # redrawn, from its own slot's attempt-1 counters.
    seed, trials = 31, np.arange(64, dtype=np.int64)
    shortest = {}
    for slot in ALL_SLOTS:
        for trial in trials:
            z = rng.normals(seed, trial_counters(int(trial), slot, 16))
            z = z.view(np.float64)
            u, v = z[0:8:2] + 1j * z[1:8:2], z[8::2] + 1j * z[9::2]
            a = u / np.linalg.norm(u)
            shortest[slot, int(trial)] = min(
                np.linalg.norm(u), np.linalg.norm(v - np.vdot(a, v) * a))
    (slot, row), *_ = sorted(shortest, key=shortest.get)
    first, second = sorted(shortest.values())[:2]
    slots = tuple(s for s in ALL_SLOTS if s != slot) + (slot,)
    plain = kernels.machines_batch("hqmm", seed, trials, slots)

    monkeypatch.setattr(kernels, "DEGENERACY_TOL", 0.5 * (first + second))
    batch = kernels.machines_batch("hqmm", seed, trials, slots)

    m = scalar_machine("hqmm", seed, row, slot, first_attempt=1)
    np.testing.assert_array_equal(batch[-1, 0, :, :, row], m.k_minus)
    np.testing.assert_array_equal(batch[-1, 1, :, :, row], m.k_plus)
    assert not np.array_equal(batch[-1, ..., row], plain[-1, ..., row])
    others = np.ones(batch.shape[::4], dtype=bool)
    others[-1, row] = False
    np.testing.assert_array_equal(batch.transpose(0, 4, 1, 2, 3)[others],
                                  plain.transpose(0, 4, 1, 2, 3)[others])


@pytest.mark.parametrize("kind", KINDS)
def test_initial_state_batch_matches_scalar(kind):
    trials = np.arange(32, dtype=np.int64)
    assert kernels.initial_state_batch(kind, 5, trials, False) is None
    batch = kernels.initial_state_batch(kind, 5, trials, True)
    assert batch.shape == (2, 32)
    for idx in range(32):
        np.testing.assert_array_equal(batch[:, idx],
                                      scalar_initial_state(kind, 5, idx))
    norms = np.sum(np.abs(batch) ** 2, axis=0) if kind in QUANTUM_KINDS \
        else np.sum(batch, axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


@pytest.mark.parametrize("kind", QUANTUM_KINDS)
def test_a_degenerate_random_initial_state_is_pinned_to_the_basis_state(
        kind, monkeypatch):
    # Every draw is shorter than an infinite tolerance, so every column is
    # degenerate and must read exactly (1, 0), not its unscaled draw.
    monkeypatch.setattr(kernels, "DEGENERACY_TOL", np.inf)
    psi = kernels.initial_state_batch(kind, 5, np.arange(32), True)
    np.testing.assert_array_equal(psi, np.tile([[1.0], [0.0]], (1, 32)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("convention", ["canonical", "max-relabel"])
def test_batch_scores_match_scalar_scoring(kind, convention):
    # Scores of the stepped outcome tables of each trial's machine objects.
    seed = 37
    trials = np.arange(32, dtype=np.int64)
    scores = kernels.batch_scores(kind, seed, trials, "symmetrized", convention)
    for trial in (0, 5, 19, 31):
        alice, bob = scalar_parties(kind, seed, trial)
        want = table_score(alice, bob, np.array([1.0, 0.0]), "symmetrized",
                           convention)
        assert scores[trial] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("kind", ["hmm", "hqmm"])
@pytest.mark.parametrize("mode", ["a-first", "b-first", "symmetrized"])
def test_batch_scores_match_scalar_across_modes(kind, mode):
    seed = 41
    trials = np.arange(8, dtype=np.int64)
    scores = kernels.batch_scores(kind, seed, trials, mode, "canonical")
    for trial in range(8):
        alice, bob = scalar_parties(kind, seed, trial)
        want = table_score(alice, bob, np.array([1.0, 0.0]), mode)
        assert scores[trial] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_batch_scores_with_random_initial_match_scalar(kind):
    seed = 43
    trials = np.arange(16, dtype=np.int64)
    scores = kernels.batch_scores(kind, seed, trials, random_initial=True)
    for trial in (0, 7, 15):
        alice, bob = scalar_parties(kind, seed, trial)
        state = scalar_initial_state(kind, seed, trial)
        assert scores[trial] == pytest.approx(table_score(alice, bob, state),
                                              abs=1e-12)


@pytest.mark.parametrize("kind,quantum_mode", [
    ("mm", "vector-sum"), ("hmm", "vector-sum"),
    ("hqmm", "vector-sum"), ("hqmm", "channel"),
    ("hqmm-proj", "vector-sum"), ("hqmm-proj", "channel"),
])
def test_batch_delay_scores_match_scalar(kind, quantum_mode):
    # Delays against the raw outcome tables with the operator sum's matrix
    # power between the measurements, or the density matrix stepped t times.
    seed = 47
    trials = np.arange(8, dtype=np.int64)
    t_list = (0, 1, 3)
    rows = kernels.batch_delay_scores(kind, seed, trials, t_list, quantum_mode)
    assert rows.shape == (3, 8)
    for trial in range(0, 8, 3):
        alice, bob = scalar_parties(kind, seed, trial)
        charlie = sample_machine(kind, Stream(seed, trial, SLOT_CHARLIE))
        for row, t in enumerate(t_list):
            want = table_score(alice, bob, np.array([1.0, 0.0]),
                               charlie=charlie, t=t, quantum_mode=quantum_mode)
            assert rows[row, trial] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("kind", QUANTUM_KINDS)
@pytest.mark.parametrize("mode", ["a-first", "b-first", "symmetrized"])
@pytest.mark.parametrize("convention", ["canonical", "max-relabel"])
def test_batch_channel_scores_match_scalar_stepping(kind, mode, convention):
    # Each trial's density matrix is stepped t times through charlie's
    # channel, one trial at a time; odd and non-power-of-two t exercise
    # every branch of the squaring loop.
    seed = 59
    trials = np.arange(8, dtype=np.int64)
    t_list = (0, 1, 2, 5, 16, 37)
    rows = kernels.batch_delay_scores(kind, seed, trials, t_list, "channel",
                                      mode, convention, random_initial=True)
    for trial in (0, 3, 7):
        alice, bob = scalar_parties(kind, seed, trial)
        charlie = sample_machine(kind, Stream(seed, trial, SLOT_CHARLIE))
        state = scalar_initial_state(kind, seed, trial)
        for row, t in enumerate(t_list):
            cs, _ = table_correlators(
                alice, bob, mode,
                lambda f, s: channel_stepped_table(f, s, state, charlie, t))
            assert rows[row, trial] == pytest.approx(
                selected_score(cs, convention), abs=1e-12)


def apply_reference(m, v0, v1):
    """2x2 batch matrix times batch vector."""
    return m[0, 0] * v0 + m[0, 1] * v1, m[1, 0] * v0 + m[1, 1] * v1


def pair_expectation_reference(first, second, psi, mid, renorm):
    """Expectation of the outcome product from the batch 2x2 outcome table,
    the first machine measured first, and the mask of renormalised tables.

    The batch scorer built these tables before it moved to role vectors.
    """
    quantum = np.iscomplexobj(first)
    p = [[None, None], [None, None]]
    for i in (0, 1):
        if psi is None:
            v0, v1 = first[i, 0, 0], first[i, 1, 0]  # column against (1, 0)
        else:
            v0, v1 = apply_reference(first[i], psi[0], psi[1])
        if mid is not None:
            v0, v1 = apply_reference(mid, v0, v1)
        for j in (0, 1):
            w0, w1 = apply_reference(second[j], v0, v1)
            if quantum:
                p[i][j] = (w0.real ** 2 + w0.imag ** 2
                           + w1.real ** 2 + w1.imag ** 2)
            else:
                p[i][j] = w0 + w1
    e = p[0][0] - p[0][1] - p[1][0] + p[1][1]
    total = p[0][0] + p[0][1] + p[1][0] + p[1][1]
    scaled = (renorm & (np.abs(total - 1.0) > kernels.RENORM_TOL)
              & (total != 0.0))
    return np.where(scaled, e / np.where(scaled, total, 1.0), e), scaled


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", ["a-first", "b-first", "symmetrized"])
def test_batch_correlators_match_outcome_tables(kind, mode, monkeypatch):
    seed, t_list = 71, (0, 1, 3)
    trials = np.arange(64, dtype=np.int64)
    machines = [kernels.machines_batch(kind, seed, trials, slot)
                for slot in (SLOT_ALICE1, SLOT_ALICE2, SLOT_BOB1, SLOT_BOB2)]
    charlie = kernels.machines_batch(kind, seed, trials, SLOT_CHARLIE)
    total = (charlie[0] + charlie[1]).transpose(2, 0, 1)
    renorm = kind in QUANTUM_KINDS
    captured = []
    select = kernels._select_scores

    def spy(cs, convention):
        captured.append(cs)
        return select(cs, convention)

    monkeypatch.setattr(kernels, "_select_scores", spy)
    renormalised = 0
    for random_initial in (False, True):
        psi = kernels.initial_state_batch(kind, seed, trials, random_initial)
        for convention in ("canonical", "max-relabel"):
            captured.clear()
            rows = kernels.batch_delay_scores(kind, seed, trials, t_list,
                                              "vector-sum", mode, convention,
                                              random_initial)
            assert len(captured) == len(t_list)
            for row, t, got in zip(rows, t_list, captured):
                mid = None if t == 0 else np.linalg.matrix_power(
                    total, t).transpose(1, 2, 0)

                def pair(i, j):
                    e, scaled = pair_expectation_reference(
                        machines[i], machines[j], psi, mid, renorm and t > 0)
                    nonlocal renormalised
                    renormalised += int(np.count_nonzero(scaled))
                    return e

                want = []
                for an in (0, 1):
                    for bm in (2, 3):
                        if mode == "a-first":
                            want.append(pair(an, bm))
                        elif mode == "b-first":
                            want.append(pair(bm, an))
                        else:
                            want.append(0.5 * (pair(an, bm) + pair(bm, an)))
                for c_got, c_want in zip(got.reshape(4, -1), want):
                    np.testing.assert_allclose(c_got, c_want, rtol=0,
                                               atol=1e-12)
                s = [abs(sum(want) - 2.0 * c) for c in want]
                if convention == "canonical":
                    np.testing.assert_allclose(row, s[3], rtol=0, atol=1e-12)
                else:
                    np.testing.assert_allclose(row, np.maximum.reduce(s),
                                               rtol=0, atol=1e-12)
    if kind == "hqmm":
        assert renormalised > 0


@pytest.mark.parametrize("kind,quantum_mode", [
    ("mm", "vector-sum"), ("hmm", "vector-sum"),
    ("hqmm", "vector-sum"), ("hqmm", "channel"),
    ("hqmm-proj", "vector-sum"), ("hqmm-proj", "channel"),
])
def test_full_batch_delay_scores_match_scalar(kind, quantum_mode):
    # At BATCH trials numpy evaluates x * np.conj(y) in place (a 256 KiB
    # temporary), which the short batches of the tests above never reach.
    seed = 73
    trials = np.arange(BATCH, dtype=np.int64)
    t_list = (0, 1, 3)
    for random_initial in (False, True):
        rows = kernels.batch_delay_scores(kind, seed, trials, t_list,
                                          quantum_mode,
                                          random_initial=random_initial)
        for trial in (0, 1, 4095, 8192, 12345, BATCH - 1):
            alice, bob = scalar_parties(kind, seed, trial)
            charlie = sample_machine(kind, Stream(seed, trial, SLOT_CHARLIE))
            state = (scalar_initial_state(kind, seed, trial) if random_initial
                     else np.array([1.0, 0.0]))
            for row, t in enumerate(t_list):
                want = table_score(alice, bob, state, charlie=charlie, t=t,
                                   quantum_mode=quantum_mode)
                assert rows[row, trial] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("kind", QUANTUM_KINDS)
def test_transfer_matrix_is_trace_preserving(kind):
    charlie = kernels.machines_batch(kind, 61, np.arange(256), SLOT_CHARLIE)
    r = kernels.transfer_matrix(charlie)
    assert r.shape == (4, 4, 256)
    np.testing.assert_allclose(r[0, 0], 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(r[0, 1:], 0.0, rtol=0, atol=1e-12)


PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                  dtype=np.complex128)


def transfer_matrix_reference(charlie):
    """R from the product of each Kraus operator with each Pauli in turn."""
    def mat_mul(a, b):
        out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=a.dtype)
        out[0, 0] = a[0, 0] * b[0, 0] + a[0, 1] * b[1, 0]
        out[0, 1] = a[0, 0] * b[0, 1] + a[0, 1] * b[1, 1]
        out[1, 0] = a[1, 0] * b[0, 0] + a[1, 1] * b[1, 0]
        out[1, 1] = a[1, 0] * b[0, 1] + a[1, 1] * b[1, 1]
        return out

    def mat_mul_dag(a, b):
        # np.multiply: x * np.conj(y) would be evaluated in place, with its
        # operands swapped, from 256 KiB up.
        def mul(x, y):
            return np.multiply(x, np.conj(y))

        out = np.empty(np.broadcast_shapes(a.shape, b.shape),
                       dtype=np.complex128)
        out[0, 0] = mul(a[0, 0], b[0, 0]) + mul(a[0, 1], b[0, 1])
        out[0, 1] = mul(a[0, 0], b[1, 0]) + mul(a[0, 1], b[1, 1])
        out[1, 0] = mul(a[1, 0], b[0, 0]) + mul(a[1, 1], b[0, 1])
        out[1, 1] = mul(a[1, 0], b[1, 0]) + mul(a[1, 1], b[1, 1])
        return out

    def sandwich(k, x):
        return mat_mul_dag(mat_mul(k, x), k)

    def pauli_coords(h):
        return np.stack([(h[0, 0] + h[1, 1]).real, 2.0 * h[0, 1].real,
                         -2.0 * h[0, 1].imag, (h[0, 0] - h[1, 1]).real])

    r = np.empty((4, 4, charlie.shape[-1]))
    for b, sigma in enumerate(PAULIS[..., None]):
        r[:, b] = 0.5 * pauli_coords(sandwich(charlie[0], sigma)
                                     + sandwich(charlie[1], sigma))
    return r


def transfer_matrix_wide(charlie):
    """R_ab = 1/2 Tr[sigma_a Phi(sigma_b)] straight from the definition, in
    np.clongdouble."""
    k = charlie.astype(np.clongdouble)
    paulis = PAULIS.astype(np.clongdouble)
    phi = np.einsum("irsn,bst,iutn->brun", k, paulis, np.conj(k))
    return (0.5 * np.einsum("ars,bsrn->abn", paulis, phi)).real


@pytest.mark.parametrize("seed", [401, 402, 403])
@pytest.mark.parametrize("kind", QUANTUM_KINDS)
def test_transfer_matrix_matches_the_per_pauli_loop(kind, seed):
    for n in (1, 2, 7, 123, 4219, 16384):
        charlie = kernels.machines_batch(kind, seed, np.arange(n),
                                         SLOT_CHARLIE)
        np.testing.assert_allclose(kernels.transfer_matrix(charlie),
                                   transfer_matrix_reference(charlie),
                                   rtol=0, atol=1e-15)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble is no wider than float64")
@pytest.mark.parametrize("kind", QUANTUM_KINDS)
def test_transfer_matrix_is_as_accurate_as_the_per_pauli_loop(kind):
    # Building R from six rank-one inputs keeps the error of a product with
    # each Pauli (about 1.2x here); the four-input form doubles it.
    got = want = 0.0
    for seed in (401, 402, 403):
        charlie = kernels.machines_batch(kind, seed, np.arange(4219),
                                         SLOT_CHARLIE)
        exact = transfer_matrix_wide(charlie)
        got = max(got, np.abs(kernels.transfer_matrix(charlie) - exact).max())
        want = max(want,
                   np.abs(transfer_matrix_reference(charlie) - exact).max())
    assert got <= 1.5 * want


ZERO = np.zeros((2, 2))


def _kraus_batch(k_minus, k_plus):
    return np.stack([k_minus, k_plus]).astype(np.complex128)[..., None]


@pytest.mark.parametrize("kraus,want", [
    ((PAULIS[0], ZERO), np.eye(4)),
    ((PAULIS[1], ZERO), np.diag([1.0, 1, -1, -1])),
    ((PAULIS[2], ZERO), np.diag([1.0, -1, 1, -1])),
    ((PAULIS[3], ZERO), np.diag([1.0, -1, -1, 1])),
    ((projective_kraus(0.0).k_minus, projective_kraus(0.0).k_plus),
     np.diag([1.0, 0, 0, 1])),
    (([[1, 0], [0, 0]], [[0, 1], [0, 0]]),
     [[1.0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]),
], ids=["identity", "X", "Y", "Z", "dephasing", "reset"])
def test_transfer_matrix_of_closed_form_channels(kraus, want):
    # The I, X, Y, Z columns in their signs, alone and as one row of a batch.
    single = _kraus_batch(*kraus)
    np.testing.assert_array_equal(kernels.transfer_matrix(single)[..., 0],
                                  want)
    batch = kernels.machines_batch("hqmm", 406, np.arange(64), SLOT_CHARLIE)
    batch[..., 37] = single[..., 0]
    np.testing.assert_array_equal(kernels.transfer_matrix(batch)[..., 37],
                                  want)
    if single.imag.any():
        return
    # A real channel as a float64 charlie: R on (I, X, Z).
    want = np.asarray(want)[np.ix_(XZ, XZ)]
    real = np.ascontiguousarray(single.real)
    np.testing.assert_array_equal(kernels.transfer_matrix(real)[..., 0], want)
    batch = np.ascontiguousarray(kernels.machines_batch(
        "hqmm-proj", 406, np.arange(64), SLOT_CHARLIE).real)
    batch[..., 37] = real[..., 0]
    np.testing.assert_array_equal(kernels.transfer_matrix(batch)[..., 37],
                                  want)


XZ = [0, 1, 3]  # the I, X and Z coordinates among (I, X, Y, Z)


@pytest.mark.parametrize("seed", [20240, 5])
def test_real_transfer_matrix_is_the_complex_one_without_y(seed):
    charlie = kernels.machines_batch("hqmm-proj", seed, np.arange(4219),
                                     SLOT_CHARLIE)
    r = kernels.transfer_matrix(charlie)
    real = kernels.transfer_matrix(charlie.real)
    assert real.dtype == np.float64 and real.shape == (3, 3, 4219)
    assert real.tobytes() == np.ascontiguousarray(r[np.ix_(XZ, XZ)]).tobytes()
    # No real state reaches Y, and Y reaches no other coordinate.
    assert not r[2, XZ].any() and not r[XZ, 2].any()


@pytest.mark.parametrize("kind", QUANTUM_KINDS)
@pytest.mark.parametrize("n", [BATCH, 20000])
def test_transfer_matrix_does_not_depend_on_the_batch_length(kind, n):
    # From 16384 trials on, some products pass through 256 KiB temporaries.
    charlie = kernels.machines_batch(kind, 404, np.arange(n), SLOT_CHARLIE)
    whole = kernels.transfer_matrix(charlie)
    for size in [1024] + BLOCK_SIZES:  # and every score block's size
        blocks = np.concatenate(
            [kernels.transfer_matrix(charlie[..., s:s + size])
             for s in range(0, n, size)], axis=-1)
        assert whole.tobytes() == blocks.tobytes()
    # One trial at a time, as tempora score builds R.
    for trial in (0, 1, 1023, n - 1):
        single = kernels.transfer_matrix(charlie[..., trial:trial + 1])
        assert single.tobytes() == whole[..., trial:trial + 1].tobytes()


def test_projective_channel_is_idempotent():
    # a dephasing channel satisfies Phi(Phi(rho)) = Phi(rho), so every t >= 1
    # scores the same
    rows = kernels.batch_delay_scores("hqmm-proj", 67, np.arange(512),
                                      (1, 16), "channel", random_initial=True)
    np.testing.assert_allclose(rows[0], rows[1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_delay_row_at_t0_is_bitwise_plain_scoring(kind):
    trials = np.arange(128, dtype=np.int64)
    rows = kernels.batch_delay_scores(kind, 53, trials, (0,))
    plain = kernels.batch_scores(kind, 53, trials)
    np.testing.assert_array_equal(rows[0], plain)


@pytest.mark.parametrize("kind,quantum_mode", [
    ("mm", "vector-sum"), ("hmm", "vector-sum"),
    ("hqmm", "vector-sum"), ("hqmm", "channel"),
    ("hqmm-proj", "vector-sum"), ("hqmm-proj", "channel"),
])
@pytest.mark.parametrize("mode", ["a-first", "b-first", "symmetrized"])
def test_scalar_scores_equal_the_sweep_scores_bit_for_bit(kind, quantum_mode,
                                                          mode):
    # Both paths select a score from their correlators with one written-out
    # sum, so a trial scores the same bits in tempora score as in a sweep.
    seed = 97
    trials = np.arange(32, dtype=np.int64)
    t_list = (0, 1, 3, 16)
    state = np.array([1.0, 0.0])
    conventions = ("canonical", "max-relabel")
    rows = {cv: kernels.batch_delay_scores(kind, seed, trials, t_list,
                                           quantum_mode, mode, cv)
            for cv in conventions}
    plain = {cv: kernels.batch_scores(kind, seed, trials, mode, cv)
             for cv in conventions}
    for cv in conventions:
        scalar = np.empty(rows[cv].shape)
        canonical = np.empty(rows[cv].shape)
        zero_delay = np.empty(trials.shape)
        for trial in trials:
            alice, bob = scalar_parties(kind, seed, trial)
            charlie = sample_machine(kind, Stream(seed, trial, SLOT_CHARLIE))
            zero_delay[trial] = chsh_score(alice, bob, state, mode, cv).s
            for row, t in enumerate(t_list):
                res = delayed_chsh_score(
                    alice, bob, state, DelaySpec(charlie, t, quantum_mode),
                    mode, cv)
                scalar[row, trial] = res.s
                canonical[row, trial] = res.s_canonical
        np.testing.assert_array_equal(zero_delay, plain[cv])
        np.testing.assert_array_equal(scalar, rows[cv])
        np.testing.assert_array_equal(canonical, rows["canonical"])


@pytest.mark.parametrize("quantum_mode", ["vector-sum", "channel"])
@pytest.mark.parametrize("mode", ["a-first", "b-first", "symmetrized"])
@pytest.mark.parametrize("convention", ["canonical", "max-relabel"])
@pytest.mark.parametrize("random_initial", [False, True],
                         ids=["fixed-state", "random-state"])
def test_projective_scores_match_the_closed_form(quantum_mode, mode,
                                                 convention, random_initial):
    # c_nm = cos(2 (phi_a,n - phi_b,m)) for any state and ordering; a channel
    # delay by a projective charlie factorises it at every t >= 1, so no
    # score can pass the classical bound 2 there.
    seed = 7
    trials = np.arange(10**5, dtype=np.int64)
    t_list = (0, 1, 2, 16)
    rows = kernels.batch_delay_scores("hqmm-proj", seed, trials, t_list,
                                      quantum_mode, mode, convention,
                                      random_initial)

    def angles(slot):
        return 2.0 * np.pi * rng.uniform01(
            seed, rng.slot_counters(trials, slot, 1))[0]
    phi_a = np.stack([angles(SLOT_ALICE1), angles(SLOT_ALICE2)])
    phi_b = np.stack([angles(SLOT_BOB1), angles(SLOT_BOB2)])
    phi_c = angles(SLOT_CHARLIE)
    channel = quantum_mode == "channel"
    for row, t in enumerate(t_list):
        c = projective_correlators(phi_a, phi_b,
                                   phi_c if t and channel else None)
        placements = np.abs(c.sum(axis=(0, 1)) - 2.0 * c)
        want = (placements[1, 1] if convention == "canonical"
                else placements.max(axis=(0, 1)))
        np.testing.assert_allclose(rows[row], want, rtol=0, atol=1e-13)
        bound = 2.0 if t and channel else 2.0 * np.sqrt(2.0)
        assert rows[row].max() <= bound + 1e-12


def test_batch_delay_scores_rejects_a_negative_t():
    # A t that is not an integer is rejected too, not truncated; so is a bool.
    for t in (-1, 0.5, 1.5, True):
        with pytest.raises(RangeError):
            kernels.batch_delay_scores("mm", 1, np.arange(4), (0, t))


def mat_pow_reference(m, t):
    """(k,k,n) batch matrix power by squaring, one t at a time; t >= 1."""
    result = None
    base = m
    while True:
        if t & 1:
            result = base if result is None else np.einsum(
                "ijn,jkn->ikn", result, base)
        t >>= 1
        if t == 0:
            return result
        base = np.einsum("ijn,jkn->ikn", base, base)


@pytest.mark.parametrize("kind,step_of", [
    ("hmm", lambda c: c[0] + c[1]),
    ("hqmm", lambda c: c[0] + c[1]),
    ("hqmm", kernels.transfer_matrix),
], ids=["2x2-float", "2x2-complex", "4x4"])
@pytest.mark.parametrize("t_list", [(3, 1, 16, 5, 16, 17), (0, 1, 2, 4, 8, 16),
                                    (31, 7, 0, 7)])
def test_mat_powers_keep_the_bytes_of_one_power_at_a_time(kind, step_of,
                                                          t_list):
    charlie = kernels.machines_batch(kind, 83, np.arange(3000), SLOT_CHARLIE)
    step = step_of(charlie)[..., 1024:2048]  # a block view, as sweeps pass
    powers = kernels._mat_powers(step, t_list)
    assert sorted(powers) == sorted({t for t in t_list if t})
    for t, got in powers.items():
        want = mat_pow_reference(step, t)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("t_list,draws", [(None, 4), ((0,), 4), ((0, 2), 5)])
def test_every_batch_draws_its_machines_through_machines_batch(
        t_list, draws, monkeypatch):
    # A traced benchmark run times the draws by wrapping
    # kernels.machines_batch; a draw made under another name would go unseen.
    # Each score block draws its parties, and charlie under a delay, in one
    # call into its block buffer.
    events = []
    for name in ("machines_batch", "batch_scores", "batch_delay_scores"):
        def spy(*args, fn=getattr(kernels, name), name=name, **kw):
            events.append((tuple(args[3]), len(args[2]))
                          if name == "machines_batch" and "out" in kw
                          else name)
            return fn(*args, **kw)
        monkeypatch.setattr(kernels, name, spy)
    cfg = SweepConfig(kind="mm", count=2 * BATCH + 5, master_seed=3,
                      t_list=t_list)
    if t_list is None:
        run_sweep(cfg)
        batch = ["batch_scores"]
    else:
        run_delay_sweep(cfg)
        batch = ["batch_delay_scores"]
    slots = ALL_SLOTS[:draws]
    size = block_size("mm", t_list or (0,))
    blocks, rest = divmod(BATCH, size)
    full = batch + [(slots, size)] * blocks + [(slots, rest)] * (rest > 0)
    assert events == full * 2 + batch + [(slots, 5)]



# Block budgets in bytes: one trial per block, 819 five-slot complex trials
# and 4096 four-slot complex trials, against the default's 819-2048.
BLOCK_BUDGETS = (1, 819 * 5 * 8 * 16, 4096 * 4 * 8 * 16)


@pytest.mark.parametrize("kind", KINDS)
def test_block_size_changes_no_score_byte(kind, monkeypatch):
    # Every draw and score is elementwise per trial, so moving the block
    # boundaries must leave every score's bits as they were.
    widths = []

    def spy(*args, fn=kernels.machines_batch, **kw):
        if "out" in kw:
            widths.append(len(args[2]))
        return fn(*args, **kw)

    monkeypatch.setattr(kernels, "machines_batch", spy)
    default = kernels.SCORE_BLOCK_BYTES
    trials = np.arange(10**6, 10**6 + 3 * 4100, 3)
    modes = (("vector-sum", "channel") if kind in QUANTUM_KINDS
             else ("vector-sum",))
    configs = [((0,), "vector-sum")] + [((0, 1, 3), m) for m in modes]
    for random_initial in (False, True):
        for t_list, quantum_mode in configs:
            def score(trials):
                if t_list == (0,):
                    return kernels.batch_scores(
                        kind, 13, trials, random_initial=random_initial)
                return kernels.batch_delay_scores(
                    kind, 13, trials, t_list, quantum_mode,
                    random_initial=random_initial)

            monkeypatch.setattr(kernels, "SCORE_BLOCK_BYTES", default)
            want = score(trials)
            for budget in BLOCK_BUDGETS:
                monkeypatch.setattr(kernels, "SCORE_BLOCK_BYTES", budget)
                part = trials[:37] if budget == 1 else trials
                size = block_size(kind, t_list, random_initial)
                full, rest = divmod(len(part), size)
                widths.clear()
                got = score(part)
                assert widths == [size] * full + [rest] * (rest > 0)
                assert got.tobytes() == want[..., :len(part)].tobytes()


# ---------------------------------------------------------------------------
# histogram

def test_histogram_binning_and_counters():
    h = Histogram.empty(4, 0.0, 4.0)
    h.add_scores(np.array([-0.5, 0.0, 0.999, 1.0, 3.999, 4.0, 5.0]))
    np.testing.assert_array_equal(h.counts, [2, 1, 0, 1])
    assert h.underflow == 1
    assert h.overflow == 2  # values at and beyond the upper edge
    assert h.total == 7
    assert h.observed_min == -0.5 and h.observed_max == 5.0


def test_histogram_add_empty_is_noop():
    h = Histogram.empty(4, 0.0, 4.0)
    h.add_scores(np.array([]))
    assert h.total == 0 and h.observed_min is None


def test_histogram_equality_and_dict():
    h1 = Histogram.empty(4, 0.0, 4.0)
    h2 = Histogram.empty(4, 0.0, 4.0)
    h1.add_scores(np.array([1.0, 2.0]))
    h2.add_scores(np.array([1.0, 2.0]))
    assert h1 == h2
    h2.add_scores(np.array([3.0]))
    assert h1 != h2
    d = h1.as_dict()
    assert d["bins"] == 4 and sum(d["counts"]) == 2


def test_histogram_merge_properties():
    def filled(values):
        h = Histogram.empty(8, 0.0, 4.0)
        h.add_scores(np.array(values))
        return h

    a, b, c = filled([0.1, 1.1]), filled([2.2, 3.3, 5.0]), filled([-1.0])
    empty = Histogram.empty(8, 0.0, 4.0)
    assert histogram_merge(a, empty) == a
    assert histogram_merge(a, b) == histogram_merge(b, a)
    assert histogram_merge(histogram_merge(a, b), c) == \
        histogram_merge(a, histogram_merge(b, c))
    merged = histogram_merge(a, b)
    assert merged.total == 5
    assert merged.observed_min == 0.1 and merged.observed_max == 5.0


def test_histogram_merge_rejects_mismatched_binning():
    a = Histogram.empty(8, 0.0, 4.0)
    with pytest.raises(ShapeMismatch):
        histogram_merge(a, Histogram.empty(9, 0.0, 4.0))
    with pytest.raises(ShapeMismatch):
        histogram_merge(a, Histogram.empty(8, 0.0, 3.0))


# ---------------------------------------------------------------------------
# sweep configuration

def test_config_validates_fields():
    good = SweepConfig(kind="mm", count=10)
    good.validate()
    bad = [
        SweepConfig(kind="m", count=10),
        SweepConfig(kind="mm", count=-1),
        SweepConfig(kind="mm", count=2.5),
        SweepConfig(kind="mm", count=10, bins=0),
        SweepConfig(kind="mm", count=10, range=(1.0, 1.0)),
        SweepConfig(kind="mm", count=10, range=(0.0, float("nan"))),
        SweepConfig(kind="mm", count=10, mode="sorted"),
        SweepConfig(kind="mm", count=10, convention="other"),
        SweepConfig(kind="mm", count=10, quantum_mode="unitary"),
        SweepConfig(kind="mm", count=10, t_list=()),
        SweepConfig(kind="mm", count=10, t_list=(1, -2)),
        SweepConfig(kind="mm", count=10, t_list=(0.5,)),
        SweepConfig(kind="mm", count=10, random_initial="no"),
        SweepConfig(kind="mm", count=10, random_initial="false"),
        SweepConfig(kind="mm", count=10, random_initial=0),
        SweepConfig(kind="mm", count=10, random_initial=None),
        SweepConfig(kind="mm", count=10, master_seed=1.5),
        SweepConfig(kind="mm", count=10, master_seed="1"),
        SweepConfig(kind="mm", count=10, range=(0, 4, 5)),
        SweepConfig(kind="mm", count=10, range=("a", "b")),
        # A bool is never an integer.
        SweepConfig(kind="mm", count=True),
        SweepConfig(kind="mm", count=10, bins=True),
        SweepConfig(kind="mm", count=10, master_seed=True),
        SweepConfig(kind="mm", count=10, t_list=(True,)),
    ]
    for cfg in bad:
        with pytest.raises(ConfigError):
            cfg.validate()


def test_config_echoes_numpy_bools_as_python_bools():
    for flag in (np.True_, np.False_):
        cfg = SweepConfig(kind="mm", count=10, random_initial=flag)
        cfg.validate()
        assert cfg.as_dict()["random_initial"] is bool(flag)
    SweepConfig(kind="mm", count=10, master_seed=np.uint64(3)).validate()


def test_config_as_dict_documents_the_run():
    cfg = SweepConfig(kind="hqmm", count=100, master_seed=9, t_list=(0, 2))
    d = cfg.as_dict()
    assert d["kind"] == "hqmm" and d["seed"] == 9
    assert d["t_list"] == [0, 2] and d["quantum_mode"] == "vector-sum"
    assert "Gram-Schmidt" in d["measure"]
    d0 = SweepConfig(kind="mm", count=1).as_dict()
    assert "t_list" not in d0


# ---------------------------------------------------------------------------
# sweeps

def test_run_sweep_matches_direct_batch_scoring():
    cfg = SweepConfig(kind="hmm", count=1000, master_seed=11)
    hist, summary = run_sweep(cfg)
    scores = kernels.batch_scores("hmm", 11, np.arange(1000))
    oracle = Histogram.empty(cfg.bins, *cfg.range)
    oracle.add_scores(scores)
    assert hist == oracle
    assert summary.count == 1000
    assert summary.mean_s == pytest.approx(scores.mean(), abs=1e-15)
    assert summary.fraction_above_2 == np.count_nonzero(scores > 2.0) / 1000
    assert summary.observed_min == scores.min()
    assert summary.observed_max == scores.max()


def test_run_sweep_spans_multiple_batches():
    count = BATCH + 257
    cfg = SweepConfig(kind="mm", count=count, master_seed=2)
    hist, summary = run_sweep(cfg)
    assert hist.total == count and summary.count == count
    scores = kernels.batch_scores("mm", 2, np.arange(count))
    assert summary.observed_max == scores.max()
    assert summary.mean_s == pytest.approx(scores.mean(), rel=1e-12)


@pytest.mark.parametrize("kind,count,workers", [
    ("mm", 3 * BATCH, 4),
    ("hqmm", 2 * BATCH, 2),
    ("mm", 4 * BATCH + 123, 3),  # shares of 2, 2 and 1 batches
    ("mm", 4 * BATCH + 123, 8),  # more workers than batches
])
def test_run_sweep_is_worker_count_invariant(kind, count, workers):
    cfg = SweepConfig(kind=kind, count=count, master_seed=6)
    hist1, sum1 = run_sweep(cfg, workers=1)
    hist2, sum2 = run_sweep(cfg, workers=workers)
    assert hist1 == hist2
    assert sum1 == sum2
    assert (json.dumps(result_to_obj(cfg, hist2, sum2))
            == json.dumps(result_to_obj(cfg, hist1, sum1)))


def sweep_document(cfg, workers):
    return json.dumps(result_to_obj(cfg, *run_sweep(cfg, workers=workers)))


def pids_of(replies):
    """The processes that scored batch_and_pid's replies."""
    return {pid for _, (_, pid) in replies}


def test_a_sweep_forks_no_more_children_than_batches(monkeypatch):
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counting_start(proc):
        started.append(proc)
        start(proc)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        counting_start)
    cfg = SweepConfig(kind="mm", count=2 * BATCH + 5, master_seed=4)
    one = sweep_document(cfg, 1)
    assert started == []
    assert sweep_document(cfg, 8) == one
    assert len(started) == 3
    pids = {proc.pid for proc in started}
    # Later sweeps run in the kept children and fork none.
    assert sweep_document(cfg, 8) == one
    assert pids_of(sampler._map_batches(batch_and_pid, cfg, 8, list)) == pids
    assert len(started) == 3
    # A sweep of more batches forks only the children it lacks.
    more = SweepConfig(kind="mm", count=4 * BATCH + 5, master_seed=4)
    assert len(pids_of(sampler._map_batches(batch_and_pid, more, 8, list)) - pids) == 2
    assert len(started) == 5
    assert sweep_document(more, 8) == sweep_document(more, 1)
    assert len(started) == 5


@pytest.mark.parametrize("workers", [0, -3, 2.5, "2", None, True])
def test_sweeps_reject_a_worker_count_that_is_not_a_positive_integer(workers):
    with pytest.raises(ConfigError, match="workers must be a positive integer"):
        run_sweep(SweepConfig(kind="mm", count=10), workers=workers)
    with pytest.raises(ConfigError, match="workers must be a positive integer"):
        run_delay_sweep(SweepConfig(kind="mm", count=10, t_list=(0, 1)),
                        workers=workers)


def batch_and_pid(job, share):
    """A test worker: the batch's first trial and the process that ran it;
    notes the trial in share."""
    share.append(job[1])
    return job[1], os.getpid()


def fail_on_second_batch(job, share):
    if job[1] == BATCH:
        raise RangeError(f"no score for the batch at {job[1]}")
    return job[1]


def exit_on_first_batch(job, share):
    """A test worker that dies on batch 0 and sends 1 MiB per other batch,
    more than a pipe holds."""
    if job[1] == 0:
        os._exit(3)
    return bytes(1 << 20)


def assert_round_robin(replies, batches, workers):
    """Batch i came from child i mod n, and each child's share came back
    once, after its last batch."""
    starts = [i * BATCH for i in range(batches)]
    assert [start for _, (start, _) in replies] == starts
    pids = [pid for _, (_, pid) in replies]
    n = min(workers, batches)
    assert len(set(pids)) == n and os.getpid() not in pids
    assert all(pids[i] == pids[i % n] for i in range(batches))
    assert [part for part, _ in replies] == [
        starts[i % n::n] if i + n >= batches else None
        for i in range(batches)]


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_map_batches_puts_round_robin_shares_back_in_batch_order(workers):
    cfg = SweepConfig(kind="mm", count=4 * BATCH + 123)
    assert_round_robin(list(sampler._map_batches(batch_and_pid, cfg, workers,
                                                 list)), 5, workers)


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_map_batches_puts_chunked_shares_back_in_batch_order(workers,
                                                             monkeypatch):
    # Shares of 5, or 4, 3 and 3 batches: two chunks of 2, then a partial one.
    monkeypatch.setattr(sampler, "CHUNK", 2)
    cfg = SweepConfig(kind="mm", count=9 * BATCH + 5)
    assert_round_robin(list(sampler._map_batches(batch_and_pid, cfg, workers,
                                                 list)), 10, workers)


def keep_children(workers=3):
    """Leave workers kept children behind a sweep; returns their pids."""
    cfg = SweepConfig(kind="mm", count=workers * BATCH)
    pids = pids_of(sampler._map_batches(batch_and_pid, cfg, workers, list))
    assert {proc.pid for proc in multiprocessing.active_children()} == pids
    return pids


def assert_new_children_give_the_one_worker_bytes(old_pids):
    """The next pool sweep forks new children and gives the 1-worker bytes."""
    cfg = SweepConfig(kind="hmm", count=3 * BATCH + 7, master_seed=9)
    one = sweep_document(cfg, 1)
    assert sweep_document(cfg, 2) == one
    pids = {proc.pid for proc in multiprocessing.active_children()}
    assert len(pids) == 2 and not pids & old_pids


def test_a_worker_exception_reaches_the_caller_and_no_child_is_left():
    pids = keep_children()
    cfg = SweepConfig(kind="mm", count=4 * BATCH)
    it = sampler._map_batches(fail_on_second_batch, cfg, 2)
    assert next(it) == (None, 0)
    with pytest.raises(RangeError, match=f"no score for the batch at {BATCH}$"):
        next(it)
    assert multiprocessing.active_children() == []
    assert_new_children_give_the_one_worker_bytes(pids)


def fail_on_fourth_batch(job, share):
    if job[1] == 3 * BATCH:
        raise RangeError(f"no score for the batch at {job[1]}")
    return job[1]


def test_a_child_error_comes_after_the_batches_its_child_scored_before_it():
    # Child 1 scores batch 1, then fails on batch 3 within the same chunk.
    pids = keep_children()
    cfg = SweepConfig(kind="mm", count=6 * BATCH)
    it = sampler._map_batches(fail_on_fourth_batch, cfg, 2)
    assert [next(it) for _ in range(3)] == [(None, 0), (None, BATCH),
                                            (None, 2 * BATCH)]
    with pytest.raises(RangeError, match=f"at {3 * BATCH}$"):
        next(it)
    assert multiprocessing.active_children() == []
    assert_new_children_give_the_one_worker_bytes(pids)


def test_the_largest_count_lists_no_batch_before_it_scores_one():
    # 2**52 trials are 2**38 batches: a list of their jobs would not fit.
    cfg = SweepConfig(kind="mm", count=2**52)
    cfg.validate()
    with pytest.raises(RangeError, match="no score for the batch at 0$"):
        list(sampler._map_batches(fail_on_first_batch, cfg, 1))


def fail_on_first_batch(job, share):
    raise RangeError(f"no score for the batch at {job[1]}")


def test_a_worker_that_dies_without_a_reply_stops_the_sweep():
    # The other child is still blocked writing its reply when the parent
    # gives up, so the parent must stop it rather than wait for it.
    pids = keep_children()
    cfg = SweepConfig(kind="mm", count=4 * BATCH)
    with pytest.raises(SamplingError,
                       match="^sweep child 0 exited with code 3 ") as err:
        list(sampler._map_batches(exit_on_first_batch, cfg, 2))
    assert isinstance(err.value.__cause__, EOFError)
    assert multiprocessing.active_children() == []
    assert_new_children_give_the_one_worker_bytes(pids)


def test_a_kept_child_that_died_is_replaced_by_one_fork():
    cfg = SweepConfig(kind="hmm", count=3 * BATCH + 7, master_seed=9)
    one = sweep_document(cfg, 1)
    assert sweep_document(cfg, 2) == one
    dead, alive = multiprocessing.active_children()
    os.kill(dead.pid, signal.SIGKILL)
    dead.join(timeout=10)
    assert dead.exitcode == -signal.SIGKILL
    assert sweep_document(cfg, 2) == one
    # The sweep keeps exactly the two children it ran in: the live kept one
    # and a single new fork.
    children = multiprocessing.active_children()
    assert len(children) == 2 and alive in children and dead not in children


@pytest.mark.parametrize("workers", [1, 2])
def test_a_sweep_stops_at_its_first_batch_with_a_score_that_is_not_finite(
        workers, monkeypatch):
    # Batches 1 and 2 score NaN on their even trials: 8192 of batch 1's
    # 16384, 20 of batch 2's 40.  Patched before the pool forks, so that the
    # children score with it too.
    score = kernels.batch_scores
    scored = []

    def with_nan(kind, seed, trials, *rest):
        scored.append(int(trials[0]))
        s = score(kind, seed, trials, *rest)
        s[(trials >= BATCH) & (trials % 2 == 0)] = np.nan
        return s
    monkeypatch.setattr(kernels, "batch_scores", with_nan)
    with pytest.raises(RangeError, match=r"^delay scores are not finite: "
                                         r"t=0: 8192 of 16384 trials$"):
        run_sweep(SweepConfig(kind="mm", count=2 * BATCH + 40), workers)
    # A pool sweep scores in its children, one worker in this process.
    assert scored == ([0, BATCH] if workers == 1 else [])


def test_the_first_result_on_one_worker_scores_one_batch():
    calls = []

    def worker(job, share):
        calls.append(job[1])
        return job[1]

    it = sampler._map_batches(worker, SweepConfig(kind="mm", count=3 * BATCH),
                              1, lambda: "share")
    assert next(it) == (None, 0) and calls == [0]
    assert list(it) == [(None, BATCH), ("share", 2 * BATCH)]
    assert calls == [0, BATCH, 2 * BATCH]


def wait_for_file(path, job, share):
    """A test worker: batch 0 at once, any other batch once path exists or
    after 5 s; returns the batch's first trial and whether path existed."""
    deadline = time.monotonic() + 5.0
    while job[1] and not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.01)
    return job[1], os.path.exists(path)


def test_the_parent_gets_batch_0_while_a_child_still_scores_batch_1(
        tmp_path):
    sentinel = tmp_path / "batch-0-arrived"
    it = sampler._map_batches(functools.partial(wait_for_file, str(sentinel)),
                              SweepConfig(kind="mm", count=2 * BATCH), 2)
    assert next(it) == (None, (0, False))
    sentinel.touch()  # the child scoring batch 1 waits for this
    assert list(it) == [(None, (BATCH, True))]


def sleep_after_batch_0(job, share):
    if job[1]:
        time.sleep(10)
    return job[1]


def test_closing_the_stream_after_one_result_leaves_no_child():
    # Batch 0 is all of child 0's share, so it arrives at once; child 1 is
    # still scoring batch 1, so close must stop it, not wait.
    pids = keep_children()
    it = sampler._map_batches(sleep_after_batch_0,
                              SweepConfig(kind="mm", count=2 * BATCH), 2)
    assert next(it) == (None, 0)
    start = time.monotonic()
    it.close()
    assert time.monotonic() - start < 5
    assert multiprocessing.active_children() == []
    assert_new_children_give_the_one_worker_bytes(pids)


def test_an_interrupted_sweep_leaves_no_child():
    # Ctrl-C reaches the parent while it waits for batch 1.
    pids = keep_children()
    it = sampler._map_batches(sleep_after_batch_0,
                              SweepConfig(kind="mm", count=2 * BATCH), 2)
    assert next(it) == (None, 0)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGINT)).start()
        next(it)
    assert time.monotonic() - start < 5
    assert multiprocessing.active_children() == []
    assert_new_children_give_the_one_worker_bytes(pids)


def sleep_and_pid(job, share):
    time.sleep(0.5)
    return job[1], os.getpid()


def test_sweeps_in_two_threads_never_share_a_child():
    pids = keep_children(2)
    cfg = SweepConfig(kind="mm", count=2 * BATCH)
    used = [None, None]

    def sweep(i):
        used[i] = pids_of(sampler._map_batches(sleep_and_pid, cfg, 2, list))

    threads = [threading.Thread(target=sweep, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert len(used[0]) == len(used[1]) == 2 and not used[0] & used[1]
    assert pids in used
    # The sweep that ended last keeps its children; the other's are stopped.
    assert {proc.pid for proc in multiprocessing.active_children()} in used


def test_many_threads_sweeping_at_once_each_get_their_own_results():
    # Two threads that took one child would read each other's replies.
    cfg = SweepConfig(kind="mm", count=4 * BATCH + 123)
    errors = []

    def sweeps():
        try:
            for _ in range(3):
                assert_round_robin(list(sampler._map_batches(
                    batch_and_pid, cfg, 2, list)), 5, 2)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=sweeps) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(multiprocessing.active_children()) == 2


def test_a_sweep_keeps_no_more_idle_children_than_it_used():
    pids = keep_children(4)
    cfg = SweepConfig(kind="mm", count=2 * BATCH)
    assert pids_of(sampler._map_batches(batch_and_pid, cfg, 8, list)) < pids
    assert len(multiprocessing.active_children()) == 2


def batch_and_faults(job, share):
    """A test worker: the minor page faults of one sweep batch."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sampler._batch(job, share)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is set through glibc mallopt")
def test_kept_children_do_not_fault_their_memory_in_again():
    cfg = SweepConfig(kind="mm", count=6 * BATCH)

    def faults():
        new_share = functools.partial(Histogram.empty, cfg.bins, *cfg.range)
        return [f for _, f in sampler._map_batches(batch_and_faults, cfg, 2,
                                                   new_share)]

    first, second = faults(), faults()
    # A freshly forked child faults in about 600-800 pages on its first
    # batch.
    assert max(second) < 64, (first, second)


# A pool sweep, then the pids of its kept children, then a long wait.
KILL_SCRIPT = """
import multiprocessing, time
from tempora import SweepConfig, run_sweep
from tempora.sampler import BATCH

run_sweep(SweepConfig(kind="mm", count=3 * BATCH), workers=3)
print(*[proc.pid for proc in multiprocessing.active_children()], flush=True)
time.sleep(60)
"""


def running(pid):
    """Whether pid is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="reads process states from /proc")
def test_no_sweep_child_outlives_a_killed_parent():
    src = str(Path(tempora.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen([sys.executable, "-c", KILL_SCRIPT], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert len(pids) == 3
    deadline = time.monotonic() + 5
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in pids if running(pid)]
    for pid in left:  # so that a failure leaves no process either
        os.kill(pid, signal.SIGKILL)
    assert not left


# A pool sweep, then an os.fork() and a fork-context Process that each run
# a pool sweep of their own and exit through multiprocessing's exit handler,
# then the parent's next sweep.
FORK_SCRIPT = """
import multiprocessing, os, sys
from tempora import SweepConfig, run_sweep
from tempora.sampler import BATCH

cfg = SweepConfig(kind="mm", count=3 * BATCH, master_seed=5)
one = run_sweep(cfg)

def pids():
    return {proc.pid for proc in multiprocessing.active_children()}

def sweep_in_fork():
    assert pids() == set()  # the parent's children are not this process's
    assert run_sweep(cfg, workers=3) == one
    assert len(pids()) == 3

assert run_sweep(cfg, workers=3) == one
kept = pids()
pid = os.fork()
if pid == 0:
    sweep_in_fork()
    sys.exit(0)
assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
proc = multiprocessing.get_context("fork").Process(target=sweep_in_fork)
proc.start()
proc.join()
assert proc.exitcode == 0
# Neither fork stopped the parent's children, and they still serve it.
assert pids() == kept
assert run_sweep(cfg, workers=3) == one
assert pids() == kept
print("ok")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks")
def test_a_process_forked_after_a_pool_sweep_runs_its_own_children():
    src = str(Path(tempora.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", FORK_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


def test_a_pool_child_builds_its_share_instead_of_receiving_it(monkeypatch):
    # A share of 2**20 bins is 8 MiB of zeros.
    parent, sent = os.getpid(), []
    send = multiprocessing.connection.Connection.send

    def measuring_send(conn, obj):
        if os.getpid() == parent:
            sent.append(len(pickle.dumps(obj)))
        send(conn, obj)

    cfg = SweepConfig(kind="mm", count=2 * BATCH, bins=1 << 20)
    one = run_sweep(cfg)
    monkeypatch.setattr(multiprocessing.connection.Connection, "send",
                        measuring_send)
    assert run_sweep(cfg, workers=2) == one
    assert len(sent) == 2 and max(sent) < 1024, sent


def delay_document(cfg, workers):
    return json.dumps(delay_result_to_obj(cfg, run_delay_sweep(cfg, workers)))


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_chunked_shares_give_the_one_worker_bytes(workers, monkeypatch):
    # 10 batches: on 2 and 3 workers each share spans two chunks of 2 and
    # ends in a partial one.
    count = 9 * BATCH + 5
    sweep = SweepConfig(kind="hmm", count=count, master_seed=12)
    delay = SweepConfig(kind="mm", count=count, master_seed=12,
                        t_list=(0, 1, 5))
    one = sweep_document(sweep, 1), delay_document(delay, 1)
    monkeypatch.setattr(sampler, "CHUNK", 2)
    assert (sweep_document(sweep, workers),
            delay_document(delay, workers)) == one


def test_the_pool_parent_merges_one_histogram_and_reads_one_message_per_child(
        monkeypatch):
    # 9 batches on 2 workers: shares of 5 and 4 batches, one chunk each.
    parent, merges, reads = os.getpid(), [], []
    merge = sampler.histogram_merge
    recv = multiprocessing.connection.Connection.recv

    def counting_merge(h1, h2):
        merges.append(os.getpid())
        return merge(h1, h2)

    def counting_recv(conn):
        reads.append(os.getpid())
        return recv(conn)

    cfg = SweepConfig(kind="mm", count=9 * BATCH, master_seed=3)
    one = sweep_document(cfg, 1)
    monkeypatch.setattr(sampler, "histogram_merge", counting_merge)
    monkeypatch.setattr(multiprocessing.connection.Connection, "recv",
                        counting_recv)
    assert sweep_document(cfg, 2) == one
    assert 1 <= merges.count(parent) <= 2
    assert 1 <= reads.count(parent) <= 2 * math.ceil(5 / sampler.CHUNK)


def test_run_sweep_empty_count():
    hist, summary = run_sweep(SweepConfig(kind="mm", count=0))
    assert hist.total == 0
    assert np.all(hist.counts == 0)
    assert summary.count == 0
    assert summary.mean_s is None and summary.observed_max is None


def test_run_sweep_random_initial_is_deterministic_but_distinct():
    base = SweepConfig(kind="hmm", count=500, master_seed=3)
    randomized = SweepConfig(kind="hmm", count=500, master_seed=3,
                             random_initial=True)
    h1, s1 = run_sweep(randomized)
    h2, s2 = run_sweep(randomized)
    assert h1 == h2 and s1 == s2
    h3, _ = run_sweep(base)
    assert h1 != h3


def test_run_delay_sweep_statistics_match_direct_batch():
    cfg = SweepConfig(kind="mm", count=600, master_seed=8, t_list=(0, 2))
    stats = run_delay_sweep(cfg)
    rows = kernels.batch_delay_scores("mm", 8, np.arange(600), (0, 2))
    for i, t in enumerate((0, 2)):
        p = stats.point(t)
        assert p.count == 600
        assert p.mean_s == pytest.approx(rows[i].mean(), abs=1e-15)
        assert p.max_s == rows[i].max()
        assert p.fraction_above_2 == np.count_nonzero(rows[i] > 2.0) / 600
    with pytest.raises(KeyError):
        stats.point(5)


def test_run_delay_sweep_rejects_overflowing_vector_sum_delays():
    # (k_minus + k_plus)^t grows like sqrt(2)^t; at t = 3000 the raw sums of
    # 25 of these 64 trials overflow and their scores are NaN.
    cfg = SweepConfig(kind="hqmm", count=64, master_seed=1, t_list=(0, 3000))
    # No errstate here: the sweep itself keeps numpy from warning.
    with pytest.raises(RangeError) as err:
        run_delay_sweep(cfg)
    assert "t=3000: 25 of 64 trials" in str(err.value)
    assert "t=0" not in str(err.value)
    # Only the sweep silences numpy: a direct call to the kernels still warns.
    with pytest.warns(RuntimeWarning):
        kernels.batch_delay_scores("hqmm", 1, np.arange(64), (0, 3000))


def test_run_sweep_names_the_trials_whose_scores_are_not_finite(monkeypatch):
    # Histogram.add_scores refuses a NaN, but the sweep reports it first.
    score = kernels.batch_scores

    def with_nan(kind, seed, trials, *rest):
        s = score(kind, seed, trials, *rest)
        s[trials % 7 == 3] = np.nan
        return s
    monkeypatch.setattr(kernels, "batch_scores", with_nan)
    with pytest.raises(RangeError, match=r"not finite: t=0: 6 of 40 trials$"):
        run_sweep(SweepConfig(kind="mm", count=40))


def test_run_delay_sweep_requires_t_list():
    with pytest.raises(ConfigError):
        run_delay_sweep(SweepConfig(kind="mm", count=10))


def test_run_sweep_rejects_t_list():
    # Scored at t=0, such a sweep's document would still name the t_list.
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(kind="mm", count=100, t_list=(4,),
                              quantum_mode="channel"))


def test_run_delay_sweep_worker_count_invariant():
    cfg = SweepConfig(kind="hmm", count=2 * BATCH, master_seed=12,
                      t_list=(0, 1))
    assert run_delay_sweep(cfg, workers=1) == run_delay_sweep(cfg, workers=2)
    # Shares of 2, 1 and 1 batches, in channel mode.
    cfg = SweepConfig(kind="hqmm", count=3 * BATCH + 77, master_seed=12,
                      t_list=(0, 1, 4), quantum_mode="channel")
    docs = [json.dumps(delay_result_to_obj(cfg, run_delay_sweep(cfg, workers=w)))
            for w in (1, 3)]
    assert docs[1] == docs[0]


def test_run_sweep_validates_config():
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(kind="nope", count=10))


# Minor page faults per batch of the second of two equal sweeps, each kind in
# turn, in a fresh process after one warm-up sweep.
FAULTS_SCRIPT = """
import json, resource
from tempora import SweepConfig, run_sweep
from tempora.sampler import BATCH

def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

run_sweep(SweepConfig(kind="mm", count=BATCH))
out = {}
for kind in ("hqmm-proj", "mm"):
    cfg = SweepConfig(kind=kind, count=4 * BATCH)
    run_sweep(cfg)
    before = minflt()
    run_sweep(cfg)
    out[kind] = (minflt() - before) / 4
print(json.dumps(out))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is set through glibc mallopt")
def test_sweep_batches_do_not_page_fault_their_memory_in_again():
    src = str(Path(tempora.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    faults = json.loads(proc.stdout)
    # When glibc returns freed batch memory to the OS, these sweeps take
    # about 2850 (hqmm-proj) and 1110 (mm) faults per batch.
    assert faults["hqmm-proj"] < 64 and faults["mm"] < 64, faults


# Tracemalloc peak of batch_delay_scores at 4 and 16 score blocks of trials
# (the trial array made inside the trace), per configuration, in a fresh
# process after one warm-up call of each.
PEAK_SCRIPT = """
import json, sys, tracemalloc
import numpy as np
from tempora import kernels

out = {}
for kind, t_list, quantum_mode, random_initial in json.loads(sys.argv[1]):
    def score(n):
        kernels.batch_delay_scores(kind, 5, np.arange(n), tuple(t_list),
                                   quantum_mode,
                                   random_initial=random_initial)
    size = kernels._block_layout(kind, any(t_list), random_initial)[2]
    score(2 * size + 5)
    peaks = []
    for blocks in (4, 16):
        tracemalloc.start()
        score(blocks * size)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    out[kind, len(t_list), quantum_mode, random_initial] = peaks
print(json.dumps([[list(key), peaks] for key, peaks in out.items()]))
"""
PEAK_CONFIGS = [(kind, t_list, quantum_mode, random_initial)
                for kind in KINDS
                for t_list in ((0,), (0, 1, 2, 4, 8, 16))
                for quantum_mode in (("vector-sum", "channel")
                                     if kind in QUANTUM_KINDS
                                     else ("vector-sum",))
                for random_initial in (False, True)]


@pytest.fixture(scope="module")
def scoring_peaks():
    src = str(Path(tempora.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", PEAK_SCRIPT,
                           json.dumps(PEAK_CONFIGS)], env=env,
                          capture_output=True, text=True, check=True)
    return {tuple(key): peaks for key, peaks in json.loads(proc.stdout)}


@pytest.mark.parametrize(
    "kind,t_list,quantum_mode,random_initial", PEAK_CONFIGS,
    ids=[f"{kind}-t{max(t_list)}-{mode}-{'random' if random else 'fixed'}"
         for kind, t_list, mode, random in PEAK_CONFIGS])
def test_scoring_memory_does_not_grow_with_the_batch(
        scoring_peaks, kind, t_list, quantum_mode, random_initial):
    # Each block draws its own machines, so only the trial array and the
    # score rows grow with the batch, by 8 bytes per trial each.  A
    # whole-batch machine array grows it by 274-728 bytes per trial.
    small, large = scoring_peaks[kind, len(t_list), quantum_mode,
                                 random_initial]
    per_trial = (large - small) / (12 * block_size(kind, t_list,
                                                   random_initial))
    assert per_trial <= 8 * (len(t_list) + 1) + 8, (small, large)


# Whether malloc serves a 24 MiB block with an mmap of its own, in a fresh
# process that first calls only kernels.batch_scores, or nothing.
MMAP_SCRIPT = """
import ctypes, sys
import numpy as np
from tempora import kernels

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.mallinfo2.argtypes = ()
libc.mallinfo2.restype = MallInfo2
libc.malloc.argtypes = (ctypes.c_size_t,)
libc.malloc.restype = ctypes.c_void_p
libc.free.argtypes = (ctypes.c_void_p,)
libc.free.restype = None
if sys.argv[1] == "score":
    kernels.batch_scores("hqmm-proj", 0, np.arange(64))
before = libc.mallinfo2().hblks
block = libc.malloc(24 << 20)
mapped = libc.mallinfo2().hblks > before
libc.free(block)
print(mapped)
"""


def _has_mallinfo2():
    try:
        return hasattr(ctypes.CDLL(None), "mallinfo2")
    except OSError:
        return False


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not _has_mallinfo2(),
                    reason="the heap policy is set through glibc mallopt")
def test_direct_kernel_calls_keep_the_heap_resident():
    src = str(Path(tempora.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))

    def mapped(call):
        return subprocess.run([sys.executable, "-c", MMAP_SCRIPT, call],
                              env=env, capture_output=True, text=True,
                              check=True).stdout.strip()

    # glibc's default threshold maps a 24 MiB block on its own; the policy's
    # 32 MiB threshold serves it from the heap.
    assert mapped("none") == "True"
    assert mapped("score") == "False"
