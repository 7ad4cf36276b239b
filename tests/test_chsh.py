"""Sequential correlators and CHSH scoring, checked against slow oracles.

The oracles of tests/oracles.py take routes the package does not: they step
machines one outcome at a time (renormalising in between, then multiplying
the conditionals), compose the raw outcome operators into 2x2 joint tables
(joint_prob_*), and step a density matrix t times through a Kraus channel.
The first two must agree with each other, and every score with the tables.
Projective pairs additionally admit a closed-form correlator.
"""
import itertools

import numpy as np
import pytest

from oracles import (channel_stepped_table, classical_outcome_step,
                     joint_prob_classical, joint_prob_quantum,
                     stepwise_joint, table_correlators)
from tempora import (ChshResult, ConfigError, DelaySpec, KindMismatch,
                     KrausPair, PartySpec, RangeError, ShapeMismatch,
                     TransitionPair, chsh_from_correlators, chsh_score,
                     correlator, delayed_chsh_score, expectation_seq, ket2,
                     kernels, mm_from_params, observable_of, projective_kraus,
                     spatial_reference_score)
from tempora.rng import (SLOT_ALICE1, SLOT_ALICE2, SLOT_BOB1, SLOT_BOB2,
                         SLOT_CHARLIE, Stream)
from tempora.sampler import sample_machine

TWO_SQRT2 = 2.0 * np.sqrt(2.0)


# ---------------------------------------------------------------------------
# inputs

def random_prob_state(rs):
    u = rs.rand()
    return np.array([u, 1.0 - u])


def random_pure_state(rs):
    z = rs.randn(2) + 1j * rs.randn(2)
    return z / np.linalg.norm(z)


def classical_party(seed, trial, slots):
    return PartySpec(sample_machine("hmm", Stream(seed, trial, slots[0])),
                     sample_machine("hmm", Stream(seed, trial, slots[1])))


def quantum_party(seed, trial, slots):
    return PartySpec(sample_machine("hqmm", Stream(seed, trial, slots[0])),
                     sample_machine("hqmm", Stream(seed, trial, slots[1])))


def sampled_party(kind, seed, trial, slots):
    return PartySpec(sample_machine(kind, Stream(seed, trial, slots[0])),
                     sample_machine(kind, Stream(seed, trial, slots[1])))


# ---------------------------------------------------------------------------
# joint probabilities

def test_joint_prob_classical_matches_stepwise_oracle():
    rs = np.random.RandomState(5)
    for trial in range(100):
        first = sample_machine("hmm", Stream(101, trial, SLOT_ALICE1))
        second = sample_machine("hmm", Stream(101, trial, SLOT_BOB1))
        eta = random_prob_state(rs)
        for i in (-1, +1):
            for j in (-1, +1):
                raw = joint_prob_classical(first, second, eta, i, j)
                assert raw == pytest.approx(
                    stepwise_joint(first, second, eta, i, j), abs=1e-12)


def test_joint_prob_quantum_matches_stepwise_oracle():
    rs = np.random.RandomState(6)
    for trial in range(100):
        first = sample_machine("hqmm", Stream(102, trial, SLOT_ALICE1))
        second = sample_machine("hqmm", Stream(102, trial, SLOT_BOB1))
        psi = random_pure_state(rs)
        for i in (-1, +1):
            for j in (-1, +1):
                raw = joint_prob_quantum(first, second, psi, i, j)
                assert raw == pytest.approx(
                    stepwise_joint(first, second, psi, i, j), abs=1e-12)


@pytest.mark.parametrize("kind", ["hmm", "hqmm"])
def test_joint_prob_tables_sum_to_one(kind):
    rs = np.random.RandomState(7)
    for trial in range(50):
        first = sample_machine(kind, Stream(103, trial, SLOT_ALICE1))
        second = sample_machine(kind, Stream(103, trial, SLOT_BOB1))
        state = (random_prob_state(rs) if kind == "hmm"
                 else random_pure_state(rs))
        joint = (joint_prob_classical if kind == "hmm" else joint_prob_quantum)
        total = sum(joint(first, second, state, i, j)
                    for i in (-1, +1) for j in (-1, +1))
        assert total == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# score algebra

@pytest.mark.parametrize("c,expected", [
    ((1.0, 0.0, -1.0, 1.0), (1.0, 3.0)),
    ((1.0, 1.0, 1.0, 1.0), (2.0, 2.0)),
    ((0.5, 0.5, 0.5, -0.5), (2.0, 2.0)),
    ((0.0, 0.0, 0.0, 0.0), (0.0, 0.0)),
])
def test_chsh_from_correlators_examples(c, expected):
    assert chsh_from_correlators(*c) == pytest.approx(expected, abs=1e-15)


def test_chsh_from_correlators_max_dominates():
    rs = np.random.RandomState(8)
    for _ in range(200):
        c = rs.uniform(-1, 1, size=4)
        s_canonical, s_max = chsh_from_correlators(*c)
        assert s_max >= s_canonical - 1e-15
        assert s_max <= 4.0 + 1e-12


def test_select_score_floats_and_arrays_agree_bit_for_bit():
    # Floats take the maximum with builtins, arrays with np.maximum; a NaN
    # anywhere among the four placements must survive both, as must +-inf.
    values = [0.5, -0.25, 1.0, 0.0, 1e308, np.inf, -np.inf, np.nan]
    combos = np.array(list(itertools.product(values, repeat=4))).T
    for convention in kernels.SCORE_CONVENTIONS:
        with np.errstate(invalid="ignore", over="ignore"):
            arrays = kernels.select_score(*combos, convention)
        floats = np.array([kernels.select_score(*map(float, c), convention)
                           for c in combos.T])
        assert np.isnan(floats).any() and np.isinf(floats).any()
        assert floats.tobytes() == arrays.tobytes()


# ---------------------------------------------------------------------------
# anchors

def classical_score3_parties():
    always_minus = TransitionPair([[0, 0], [1, 1]], [[0, 0], [0, 0]])
    always_plus = TransitionPair([[0, 0], [0, 0]], [[1, 1], [0, 0]])
    echo = TransitionPair([[0, 0], [0, 1]], [[1, 0], [0, 0]])
    alice = PartySpec(always_minus, always_plus)
    bob = PartySpec(always_minus, echo)
    return alice, bob


def test_classical_anchor_reaches_three():
    alice, bob = classical_score3_parties()
    res = chsh_score(alice, bob, np.array([1.0, 0.0]), mode="symmetrized",
                     convention="max-relabel")
    assert (res.c11, res.c12, res.c21, res.c22) == pytest.approx(
        (1.0, 0.0, -1.0, 1.0), abs=1e-12)
    assert res.s_max == pytest.approx(3.0, abs=1e-12)
    assert res.s_canonical == pytest.approx(1.0, abs=1e-12)
    assert res.s == res.s_max


def test_projective_anchor_reaches_tsirelson():
    alice = PartySpec(projective_kraus(0.0), projective_kraus(np.pi / 4))
    bob = PartySpec(projective_kraus(np.pi / 8), projective_kraus(-np.pi / 8))
    res = chsh_score(alice, bob, ket2(-1))
    half = np.sqrt(0.5)
    assert (res.c11, res.c12, res.c21, res.c22) == pytest.approx(
        (half, half, half, -half), abs=1e-12)
    assert res.s_max == pytest.approx(TWO_SQRT2, abs=1e-9)
    assert res.s_canonical == pytest.approx(TWO_SQRT2, abs=1e-9)


def test_projective_correlator_closed_form():
    # both orderings give cos(2(phi_a - phi_b)) regardless of the state
    rs = np.random.RandomState(9)
    for _ in range(100):
        phi_a, phi_b = rs.uniform(0, 2 * np.pi, size=2)
        psi = random_pure_state(rs)
        for mode in ("a-first", "b-first", "symmetrized"):
            c = correlator(projective_kraus(phi_a), projective_kraus(phi_b),
                           psi, mode)
            assert c == pytest.approx(np.cos(2 * (phi_a - phi_b)), abs=1e-9)


def test_symmetrized_correlator_equals_half_anticommutator():
    rs = np.random.RandomState(10)
    for _ in range(100):
        phi_a, phi_b = rs.uniform(0, 2 * np.pi, size=2)
        psi = random_pure_state(rs)
        ma, mb = projective_kraus(phi_a), projective_kraus(phi_b)
        a, b = observable_of(ma), observable_of(mb)
        oracle = 0.5 * np.vdot(psi, (a @ b + b @ a) @ psi).real
        assert correlator(ma, mb, psi, "symmetrized") == pytest.approx(
            oracle, abs=1e-9)


def test_deterministic_machines_stay_on_classical_bound():
    always_minus = TransitionPair([[0.3, 0.6], [0.7, 0.4]], [[0, 0], [0, 0]])
    alice = PartySpec(always_minus, always_minus)
    bob = PartySpec(always_minus, always_minus)
    res = chsh_score(alice, bob, np.array([0.5, 0.5]))
    for c in (res.c11, res.c12, res.c21, res.c22):
        assert c == pytest.approx(1.0, abs=1e-12)
    assert res.s_canonical == pytest.approx(2.0, abs=1e-12)
    assert res.s_max == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# relabeling invariance

def flip_outcomes(machine):
    if machine.kind == "classical":
        return TransitionPair(machine.t_plus, machine.t_minus)
    return KrausPair(machine.k_plus, machine.k_minus)


@pytest.mark.parametrize("kind", ["hmm", "hqmm"])
def test_s_max_invariant_under_relabelings(kind):
    rs = np.random.RandomState(11)
    party = classical_party if kind == "hmm" else quantum_party
    for trial in range(40):
        alice = party(104, trial, (SLOT_ALICE1, SLOT_ALICE2))
        bob = party(104, trial, (SLOT_BOB1, SLOT_BOB2))
        state = (random_prob_state(rs) if kind == "hmm"
                 else random_pure_state(rs))
        base = chsh_score(alice, bob, state).s_max
        variants = [
            (PartySpec(alice.basis2, alice.basis1), bob),
            (alice, PartySpec(bob.basis2, bob.basis1)),
            (PartySpec(flip_outcomes(alice.basis1), alice.basis2), bob),
            (alice, PartySpec(bob.basis1, flip_outcomes(bob.basis2))),
        ]
        for a, b in variants:
            assert chsh_score(a, b, state).s_max == pytest.approx(
                base, abs=1e-12)


# ---------------------------------------------------------------------------
# delays

def test_identity_charlie_is_inert_classical():
    identity = TransitionPair(np.eye(2), np.zeros((2, 2)))
    for trial in range(10):
        alice = classical_party(105, trial, (SLOT_ALICE1, SLOT_ALICE2))
        bob = classical_party(105, trial, (SLOT_BOB1, SLOT_BOB2))
        eta = np.array([0.4, 0.6])
        base = chsh_score(alice, bob, eta)
        for t in (1, 3, 10):
            res = delayed_chsh_score(alice, bob, eta,
                                     DelaySpec(identity, t))
            assert res == base


def test_identity_charlie_is_inert_quantum_vector_sum():
    identity = KrausPair(np.eye(2), np.zeros((2, 2)))
    rs = np.random.RandomState(12)
    for trial in range(10):
        alice = quantum_party(106, trial, (SLOT_ALICE1, SLOT_ALICE2))
        bob = quantum_party(106, trial, (SLOT_BOB1, SLOT_BOB2))
        psi = random_pure_state(rs)
        base = chsh_score(alice, bob, psi)
        for t in (1, 3, 10):
            res = delayed_chsh_score(alice, bob, psi, DelaySpec(identity, t))
            assert res == base
            # inert charlie stays inside the renormalisation deadband
            assert all(abs(v - 1.0) <= 1e-9
                       for sums in res.raw_sums.values()
                       for v in sums.values())


def test_zero_delay_short_circuits_every_mode():
    rs = np.random.RandomState(13)
    alice = quantum_party(107, 0, (SLOT_ALICE1, SLOT_ALICE2))
    bob = quantum_party(107, 0, (SLOT_BOB1, SLOT_BOB2))
    charlie = sample_machine("hqmm", Stream(107, 0, SLOT_CHARLIE))
    psi = random_pure_state(rs)
    base = chsh_score(alice, bob, psi)
    for quantum_mode in ("vector-sum", "channel"):
        res = delayed_chsh_score(alice, bob, psi,
                                 DelaySpec(charlie, 0, quantum_mode))
        assert res == base
        assert res.raw_sums is None


def test_fully_mixing_charlie_factorizes():
    mixing = TransitionPair(np.full((2, 2), 0.25), np.full((2, 2), 0.25))
    mixed = np.array([0.5, 0.5])
    rs = np.random.RandomState(14)
    for trial in range(50):
        alice = classical_party(108, trial, (SLOT_ALICE1, SLOT_ALICE2))
        bob = classical_party(108, trial, (SLOT_BOB1, SLOT_BOB2))
        eta = random_prob_state(rs)
        spec = DelaySpec(mixing, 1)

        def mean(machine, state):
            p_minus, _ = classical_outcome_step(machine, state, -1)
            p_plus, _ = classical_outcome_step(machine, state, +1)
            return p_plus - p_minus

        res_a = delayed_chsh_score(alice, bob, eta, spec, mode="a-first")
        res_b = delayed_chsh_score(alice, bob, eta, spec, mode="b-first")
        res_s = delayed_chsh_score(alice, bob, eta, spec)
        got_a = np.array([[res_a.c11, res_a.c12], [res_a.c21, res_a.c22]])
        got_b = np.array([[res_b.c11, res_b.c12], [res_b.c21, res_b.c22]])
        got_s = np.array([[res_s.c11, res_s.c12], [res_s.c21, res_s.c22]])
        a0 = [mean(alice.basis(n), eta) for n in (1, 2)]
        a1 = [mean(alice.basis(n), mixed) for n in (1, 2)]
        b0 = [mean(bob.basis(m), eta) for m in (1, 2)]
        b1 = [mean(bob.basis(m), mixed) for m in (1, 2)]
        np.testing.assert_allclose(got_a, np.outer(a0, b1), atol=1e-12)
        np.testing.assert_allclose(got_b, np.outer(a1, b0), atol=1e-12)
        np.testing.assert_allclose(
            got_s, 0.5 * (np.outer(a0, b1) + np.outer(a1, b0)), atol=1e-12)
        assert res_s.s_canonical <= 2.0 + 1e-9
        assert res_s.s_max <= 2.0 + 1e-9


def test_classical_delayed_probabilities_sum_to_one():
    rs = np.random.RandomState(15)
    for trial in range(50):
        first = sample_machine("hmm", Stream(109, trial, SLOT_ALICE1))
        second = sample_machine("hmm", Stream(109, trial, SLOT_BOB1))
        charlie = sample_machine("hmm", Stream(109, trial, SLOT_CHARLIE))
        eta = random_prob_state(rs)
        for t in (1, 2, 5):
            mid = np.linalg.matrix_power(charlie.total(), t)
            total = sum(joint_prob_classical(first, second, eta, i, j, mid)
                        for i in (-1, +1) for j in (-1, +1))
            assert total == pytest.approx(1.0, abs=1e-9)


def test_channel_mode_marginalizes_charlie_outcomes():
    # channel evolution must equal the explicit sum over charlie's outcome
    # strings, computed here by composing per-outcome Kraus factors
    rs = np.random.RandomState(16)
    for trial in range(20):
        alice = quantum_party(110, trial, (SLOT_ALICE1, SLOT_ALICE2))
        bob = quantum_party(110, trial, (SLOT_BOB1, SLOT_BOB2))
        charlie = sample_machine("hqmm", Stream(110, trial, SLOT_CHARLIE))
        psi = random_pure_state(rs)
        t = 2
        res = delayed_chsh_score(alice, bob, psi,
                                 DelaySpec(charlie, t, "channel"),
                                 mode="a-first")
        for n, m, got in ((1, 1, res.c11), (1, 2, res.c12),
                          (2, 1, res.c21), (2, 2, res.c22)):
            table = np.zeros((2, 2))
            for i_idx, i in enumerate((-1, +1)):
                for j_idx, j in enumerate((-1, +1)):
                    acc = 0.0
                    for c1 in (-1, +1):
                        for c2 in (-1, +1):
                            v = alice.basis(n).op(i) @ psi
                            v = charlie.op(c2) @ (charlie.op(c1) @ v)
                            w = bob.basis(m).op(j) @ v
                            acc += float(np.sum(w.real**2 + w.imag**2))
                    table[i_idx, j_idx] = acc
            oracle = table[0, 0] - table[0, 1] - table[1, 0] + table[1, 1]
            assert got == pytest.approx(oracle, abs=1e-12)


def test_unitary_charlie_agrees_between_delay_modes():
    theta = 0.7
    u = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]], dtype=np.complex128)
    charlie = KrausPair(u, np.zeros((2, 2)))
    rs = np.random.RandomState(17)
    for trial in range(20):
        alice = quantum_party(111, trial, (SLOT_ALICE1, SLOT_ALICE2))
        bob = quantum_party(111, trial, (SLOT_BOB1, SLOT_BOB2))
        psi = random_pure_state(rs)
        for t in (1, 2, 4):
            vec = delayed_chsh_score(alice, bob, psi,
                                     DelaySpec(charlie, t, "vector-sum"))
            chan = delayed_chsh_score(alice, bob, psi,
                                      DelaySpec(charlie, t, "channel"))
            for a, b in zip((vec.c11, vec.c12, vec.c21, vec.c22),
                            (chan.c11, chan.c12, chan.c21, chan.c22)):
                assert a == pytest.approx(b, abs=1e-12)


def test_raw_sums_reported_only_in_vector_sum_mode():
    alice = quantum_party(112, 0, (SLOT_ALICE1, SLOT_ALICE2))
    bob = quantum_party(112, 0, (SLOT_BOB1, SLOT_BOB2))
    charlie = sample_machine("hqmm", Stream(112, 0, SLOT_CHARLIE))
    psi = ket2(-1)
    vec = delayed_chsh_score(alice, bob, psi, DelaySpec(charlie, 2))
    assert set(vec.raw_sums) == {"c11", "c12", "c21", "c22"}
    assert set(vec.raw_sums["c11"]) == {"a-first", "b-first"}
    assert "raw_sums" in vec.as_dict()
    chan = delayed_chsh_score(alice, bob, psi,
                              DelaySpec(charlie, 2, "channel"))
    assert chan.raw_sums is None

    identity = TransitionPair(np.eye(2), np.zeros((2, 2)))
    alice_c = classical_party(112, 0, (SLOT_ALICE1, SLOT_ALICE2))
    bob_c = classical_party(112, 0, (SLOT_BOB1, SLOT_BOB2))
    res = delayed_chsh_score(alice_c, bob_c, np.array([1.0, 0.0]),
                             DelaySpec(identity, 2))
    assert res.raw_sums is None


@pytest.mark.parametrize("kind", ["hqmm", "hqmm-proj"])
@pytest.mark.parametrize("mode", ["a-first", "b-first", "symmetrized"])
def test_channel_mode_matches_stepped_density_matrix(kind, mode):
    # odd and non-power-of-two t exercise every branch of the matrix power
    rs = np.random.RandomState(19)
    for trial in range(5):
        alice = sampled_party(kind, 115, trial, (SLOT_ALICE1, SLOT_ALICE2))
        bob = sampled_party(kind, 115, trial, (SLOT_BOB1, SLOT_BOB2))
        charlie = sample_machine(kind, Stream(115, trial, SLOT_CHARLIE))
        psi = random_pure_state(rs)
        for t in (0, 1, 2, 5, 16, 37):
            res = delayed_chsh_score(alice, bob, psi,
                                     DelaySpec(charlie, t, "channel"), mode)
            want, _ = table_correlators(
                alice, bob, mode,
                lambda f, s: channel_stepped_table(f, s, psi, charlie, t))
            np.testing.assert_allclose([res.c11, res.c12, res.c21, res.c22],
                                       want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["hmm", "hqmm"])
@pytest.mark.parametrize("mode", ["a-first", "b-first", "symmetrized"])
def test_scores_match_joint_probability_tables(kind, mode):
    quantum = kind == "hqmm"
    joint = joint_prob_quantum if quantum else joint_prob_classical
    rs = np.random.RandomState(20)
    renormalised = 0
    for trial in range(10):
        alice = sampled_party(kind, 116, trial, (SLOT_ALICE1, SLOT_ALICE2))
        bob = sampled_party(kind, 116, trial, (SLOT_BOB1, SLOT_BOB2))
        charlie = sample_machine(kind, Stream(116, trial, SLOT_CHARLIE))
        state = random_pure_state(rs) if quantum else random_prob_state(rs)
        for t in (0, 1, 3):
            mid = np.linalg.matrix_power(charlie.total(), t)

            def table(first, second):
                return np.array([[joint(first, second, state, i, j, mid)
                                  for j in (-1, +1)] for i in (-1, +1)])

            renorm = quantum and t > 0
            want, sums = table_correlators(alice, bob, mode, table, renorm)
            res = delayed_chsh_score(alice, bob, state, DelaySpec(charlie, t),
                                     mode)
            np.testing.assert_allclose([res.c11, res.c12, res.c21, res.c22],
                                       want, rtol=0, atol=1e-12)
            if not renorm:
                assert res.raw_sums is None
                continue
            assert res.raw_sums.keys() == sums.keys()
            for c, by_order in sums.items():
                assert res.raw_sums[c].keys() == by_order.keys()
                for order, total in by_order.items():
                    assert res.raw_sums[c][order] == pytest.approx(
                        total, rel=1e-12, abs=0)
                    renormalised += abs(total - 1.0) > 1e-9
    # the renormalisation rule is exercised, not only the deadband
    assert renormalised > 0 or not quantum


# ---------------------------------------------------------------------------
# validation and plumbing

def test_party_spec_rejects_mixed_kinds():
    with pytest.raises(KindMismatch):
        PartySpec(mm_from_params(0.5, 0.5), projective_kraus(0.0))


def test_score_rejects_mixed_parties():
    alice = PartySpec(mm_from_params(0.5, 0.5), mm_from_params(0.2, 0.8))
    bob = PartySpec(projective_kraus(0.0), projective_kraus(1.0))
    with pytest.raises(KindMismatch):
        chsh_score(alice, bob, np.array([1.0, 0.0]))


def test_delayed_score_rejects_foreign_charlie():
    alice = classical_party(113, 0, (SLOT_ALICE1, SLOT_ALICE2))
    bob = classical_party(113, 0, (SLOT_BOB1, SLOT_BOB2))
    with pytest.raises(KindMismatch):
        delayed_chsh_score(alice, bob, np.array([1.0, 0.0]),
                           DelaySpec(projective_kraus(0.3), 1))


def test_expectation_seq_rejects_mixed_kinds():
    with pytest.raises(KindMismatch):
        expectation_seq(mm_from_params(0.5, 0.5), projective_kraus(0.0),
                        np.array([1.0, 0.0]))


def test_mode_and_convention_are_validated():
    alice = classical_party(114, 0, (SLOT_ALICE1, SLOT_ALICE2))
    bob = classical_party(114, 0, (SLOT_BOB1, SLOT_BOB2))
    eta = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        chsh_score(alice, bob, eta, mode="alphabetical")
    with pytest.raises(ValueError):
        chsh_score(alice, bob, eta, convention="best")
    with pytest.raises(ValueError):
        correlator(alice.basis1, bob.basis1, eta, mode="first")
    with pytest.raises(ValueError):
        alice.basis(3)
    # The scoring core checks every value it interprets, before any draw.
    trials = np.arange(4)
    kernel_calls = (
        lambda: kernels.machines_batch("qmm", 1, trials, SLOT_ALICE1),
        lambda: kernels.initial_state_batch("qmm", 1, trials, True),
        lambda: kernels.batch_scores("mm", 1, trials, mode="bogus"),
        lambda: kernels.batch_scores("mm", 1, trials, convention="best"),
        lambda: kernels.batch_delay_scores("hqmm", 1, trials, (0, 1),
                                           quantum_mode="chanel"),
        lambda: kernels.select_score(0.5, 0.5, 0.5, -0.5, "typo"))
    for call in kernel_calls:
        with pytest.raises(ConfigError, match="must be one of"):
            call()


@pytest.mark.parametrize("kind", ["mm", "hqmm"])
@pytest.mark.parametrize("shape", [(3,), (2, 1)], ids=["length-3", "column"])
def test_scoring_rejects_a_state_of_the_wrong_shape(kind, shape):
    alice = sampled_party(kind, 117, 0, (SLOT_ALICE1, SLOT_ALICE2))
    bob = sampled_party(kind, 117, 0, (SLOT_BOB1, SLOT_BOB2))
    charlie = sample_machine(kind, Stream(117, 0, SLOT_CHARLIE))
    state = np.zeros(shape)
    state.flat[0] = 1.0
    calls = (lambda: chsh_score(alice, bob, state),
             lambda: delayed_chsh_score(alice, bob, state,
                                        DelaySpec(charlie, 2)),
             lambda: correlator(alice.basis1, bob.basis1, state),
             lambda: expectation_seq(alice.basis1, bob.basis1, state))
    for call in calls:
        with pytest.raises(ShapeMismatch, match=r"shape \(2,\)"):
            call()


@pytest.mark.parametrize("kind,state", [
    ("mm", [np.nan, 0.0]),
    ("mm", [2.0, -1.0]),
    ("mm", [0.5, 0.25]),
    ("mm", np.array([1.0 + 0.0j, 0.0j])),
    ("mm", np.array([1.0, 1.0j])),
    ("hqmm", [np.nan, 0.0]),
    ("hqmm", [1.0, 1.0]),
    ("hqmm", [0.5j, 0.0]),
], ids=["mm-nan", "mm-negative", "mm-unnormalised", "mm-complex-zero-imag",
        "mm-complex", "hqmm-nan", "hqmm-unnormalised",
        "hqmm-unnormalised-complex"])
def test_scoring_rejects_an_invalid_state(kind, state):
    # The checks of a machine file's initial state: a classical state is a
    # real probability vector, a quantum one a unit vector.
    alice = sampled_party(kind, 117, 0, (SLOT_ALICE1, SLOT_ALICE2))
    bob = sampled_party(kind, 117, 0, (SLOT_BOB1, SLOT_BOB2))
    charlie = sample_machine(kind, Stream(117, 0, SLOT_CHARLIE))
    calls = (lambda: chsh_score(alice, bob, state),
             lambda: delayed_chsh_score(alice, bob, state,
                                        DelaySpec(charlie, 2)),
             lambda: correlator(alice.basis1, bob.basis1, state),
             lambda: expectation_seq(alice.basis1, bob.basis1, state))
    for call in calls:
        with pytest.raises(RangeError):
            call()


def test_delay_spec_validation():
    charlie = mm_from_params(0.5, 0.5)
    with pytest.raises(ValueError):
        DelaySpec(charlie, -1)
    with pytest.raises(ValueError):
        DelaySpec(charlie, 1.5)
    with pytest.raises(ValueError):
        DelaySpec(charlie, 1, quantum_mode="density")
    # Every rejection is a TemporaError, which the CLI reports.
    for t in (-1, 1.5, "2"):
        with pytest.raises(RangeError, match="t must be a non-negative"):
            DelaySpec(charlie, t)
    with pytest.raises(RangeError, match="basis index"):
        PartySpec(charlie, charlie).basis(3)
    with pytest.raises(ShapeMismatch, match="t_minus must be 2x2"):
        TransitionPair([[1, 0, 0], [0, 0, 0]], [[0, 0], [0, 1]])
    with pytest.raises(ShapeMismatch, match="k_plus must be 2x2"):
        KrausPair(np.eye(2), np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# spatial reference

def test_spatial_anchor_angles():
    res = spatial_reference_score(0.0, np.pi / 2, -np.pi / 4, np.pi / 4)
    assert res.s_max == pytest.approx(TWO_SQRT2, abs=1e-12)


def test_spatial_degenerate_angles():
    res = spatial_reference_score(0.0, 0.0, 0.0, 0.0)
    assert res.s_canonical == pytest.approx(2.0, abs=1e-15)
    res = spatial_reference_score(0.0, 0.0, 0.0, np.pi)
    assert res.s_max == pytest.approx(2.0, abs=1e-12)


def test_spatial_random_grid_respects_quantum_bound():
    rs = np.random.RandomState(18)
    for _ in range(1000):
        angles = rs.uniform(0, 2 * np.pi, size=4)
        res = spatial_reference_score(*angles)
        assert res.s_max <= TWO_SQRT2 + 1e-9


# ---------------------------------------------------------------------------
# result container

def test_result_convention_selects_score():
    res = ChshResult(1.0, 0.0, -1.0, 1.0, 1.0, 3.0, mode="symmetrized",
                     convention="max-relabel")
    assert res.s == 3.0
    assert ChshResult(1.0, 0.0, -1.0, 1.0, 1.0, 3.0,
                      mode="symmetrized").s == 1.0


def test_result_as_dict_round_numbers():
    res = ChshResult(1.0, 0.0, -1.0, 1.0, 1.0, 3.0, mode="a-first")
    d = res.as_dict()
    assert d["s"] == 1.0 and d["s_max"] == 3.0 and d["mode"] == "a-first"
    assert "raw_sums" not in d
