"""Golden SHA-256 digests of sweep and score result documents.

Each document digest covers the exact text `json.dumps(doc, indent=2)` of
one sweep document, so any change to a score's last bit, a histogram count
or the document layout shows up here.  Counts end in a partial batch, so the
batch-order reduce is covered too.  The score digests cover what
`tempora score` writes for the built-in fixtures and for machine files drawn
with sample_machine, in every ordering.

The layer digests cover the dtype, shape and raw bytes of the arrays that
feed those documents: the rng outputs over counters that do not start at 0,
the hqmm machine batches of every slot, the random initial states and the
per-trial delay scores of the quantum kinds.  A rewrite of one layer proves
it kept the bytes there, not only through the end documents.

Pinned on an Intel Xeon (x86-64, 2 cores) with numpy 2.4.6.  Box-Muller
uses np.log, np.cos and np.sin, which numpy may dispatch to CPU-specific
SIMD code; a mismatch on another machine is evidence about that, and the
per-kind split below shows which stream moved.

A change that alters the bytes on purpose re-pins the affected digests and
says why in CHANGES.md.  The sweep digests were re-pinned when the batch
scorer moved from 2x2 outcome tables to the observable form of the scalar
path: seven documents moved in their last digits (per-trial scores by at
most 4.3e-15, no histogram count), and the hmm and hqmm-proj sample and
the hqmm-proj channel delay documents kept their bytes.  The hqmm channel
delay document was re-pinned when transfer_matrix stopped depending on the
batch length: the scores of its full batch moved by at most 8.3e-16.  Six
channel digests were re-pinned when transfer_matrix came to be built from
six rank-one inputs instead of a product with each Pauli: the hqmm and
hqmm-proj channel delay documents (per-trial scores by at most 5.4e-15 and
1.0e-14, both at t=16; every t=0 row kept its bytes) and their channel
score documents at t=1 and t=8 (scores by at most 1.8e-15).
"""
import ctypes
import hashlib
import importlib.resources
import json

import numpy as np
import pytest

from tempora import (MachineFile, PartySpec, SweepConfig, delay_result_to_obj,
                     kernels, result_to_obj, rng, run_delay_sweep, run_sweep,
                     sample_machine, save_machine_file)
from tempora.chsh import ORDERING_MODES
from tempora.cli import main
from tempora.sampler import BATCH

SEED = 20240
T_LIST = (0, 1, 2, 4, 8, 16)
CLASSICAL_COUNT = 3 * BATCH + 123
QUANTUM_COUNT = BATCH + 123

SAMPLE_DIGESTS = {
    "mm":
        "c77810825fb9a1d9afff05006f6e84db6e77d8424f1dfbd4258cfc514f5918c9",
    "hmm":
        "d7ddd6d34184520c8620cc6171cd6f116ab41d6689c92e5f495895e3a11cc38b",
    "hqmm":
        "8fcbad260744c215a96cefbaf80a66f023af7629f179d22d6967196f6b5660e1",
    "hqmm-proj":
        "cd9cffb4789ff0588bfe1961f60237ce30ba942c06a6496cdddf1e5220d8b1b5",
}

# (kind, quantum_mode); classical kinds ignore the quantum mode.
DELAY_DIGESTS = {
    ("mm", "vector-sum"):
        "98d71550795e7e8ac504fda04a513e7dbcc7210d570b218e438f35c515c5a941",
    ("hmm", "vector-sum"):
        "cd181a28ac5277ee114cbc9a9a0a2a07f53d8d46ad51ffd953e43294d7faea77",
    ("hqmm", "vector-sum"):
        "a2029e1547c967d336112a6e8995c0e72186f26e3e7098ae2cdf5d20a3c33cdd",
    ("hqmm", "channel"):
        "0c50bd1fada102c2b8e51ae68a690c29d32a9ca5be68433dda711a5a19024f04",
    ("hqmm-proj", "vector-sum"):
        "483159bbbb4a1818e119e7bdda37a73bb55a407ea088a9654d7d99a10a848433",
    ("hqmm-proj", "channel"):
        "42c3c01ad6761978588ce35aa67c64410e0e41a28912361082d68817424edc0b",
}


def _count(kind):
    return QUANTUM_COUNT if kind.startswith("hqmm") else CLASSICAL_COUNT


def _digest(doc):
    return hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()


@pytest.mark.parametrize("kind", sorted(SAMPLE_DIGESTS))
def test_sample_document_digest(kind):
    cfg = SweepConfig(kind=kind, count=_count(kind), master_seed=SEED)
    hist, summary = run_sweep(cfg)
    assert _digest(result_to_obj(cfg, hist, summary)) == SAMPLE_DIGESTS[kind]


def _no_libc(name):
    raise OSError(f"cannot load {name!r}")


@pytest.mark.parametrize("cdll", [_no_libc, lambda name: object()],
                         ids=["no-libc", "no-mallopt"])
def test_sample_document_digest_without_mallopt(cdll, monkeypatch):
    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: calls.append(name)
                        or cdll(name))
    monkeypatch.setattr(kernels, "_heap_kept_resident", False)
    cfg = SweepConfig(kind="hqmm-proj", count=_count("hqmm-proj"),
                      master_seed=SEED)
    hist, summary = run_sweep(cfg)
    assert calls == [None]  # looked up once, then never again
    assert _digest(result_to_obj(cfg, hist, summary)) == SAMPLE_DIGESTS["hqmm-proj"]


@pytest.mark.parametrize("kind,quantum_mode", sorted(DELAY_DIGESTS))
def test_delay_document_digest(kind, quantum_mode):
    cfg = SweepConfig(kind=kind, count=_count(kind), master_seed=SEED,
                      t_list=T_LIST, quantum_mode=quantum_mode)
    doc = delay_result_to_obj(cfg, run_delay_sweep(cfg))
    assert _digest(doc) == DELAY_DIGESTS[(kind, quantum_mode)]


# 16384 counters in rows of 16, starting far from 0.
RNG_COUNTERS = np.arange(3 << 40, (3 << 40) + BATCH,
                         dtype=np.uint64).reshape(-1, 16) + np.uint64(12345)

RNG_DIGESTS = {
    "raw64":
        "2829df02a56b60c1535350aecce74188ed34945486dcce98ec6cf866ec0b0158",
    "uniform01":
        "16010954381ae16ce133fa6354c6a2e2b448e788e4d260f1a4ec3d0068e69644",
    "normals":
        "7ba81bfec9fbfc0ffa88984b15de5f3462cb4bd7a0220ce05a407ca1cd7e357f",
}

# Slot -> digest of the hqmm machine batches of QUANTUM_COUNT trials.
HQMM_MACHINE_DIGESTS = {
    rng.SLOT_ALICE1:
        "c828191de709fe38ae7611889c0340a86360fddf1588cd12519002558d683740",
    rng.SLOT_ALICE2:
        "84b0cc830c055b69c3c9a62f6fc8a06cf180c3440dba70a469b62c333ad3f090",
    rng.SLOT_BOB1:
        "6899205a9a1f2a988ed174467ff2537c1c9a5cf0ffb7816be8eca9c4b5a91f51",
    rng.SLOT_BOB2:
        "f128d3d3ade1b5c3e9bdc1ad13b97470fd5a090cfffbdeca5cccefca6e3df04f",
    rng.SLOT_CHARLIE:
        "dbd8bbd31af6d42868132c6718664ba13ef5659f5540c57997bde15523132de2",
    rng.SLOT_INITIAL:
        "9941e783c0cd0133f8da771d3644f35e7b70d48e5d0d0b3c1b99e263e672a368",
}

HQMM_INITIAL_STATE_DIGEST = (
    "49230461c7de4bc8371b4c3258a5a16576f2658ba4de10c368d9cd234e7edb6d")

# (kind, quantum_mode) -> digest of the batch_delay_scores rows of every
# batch of QUANTUM_COUNT trials at T_LIST.  The documents see only sums,
# maxima and histogram counts; these see every per-trial score.
DELAY_SCORE_DIGESTS = {
    ("hqmm", "channel"):
        "7ce81d2043d116e810e811cc58a92327e8156f155f71570b3836230d0322b8df",
    ("hqmm-proj", "channel"):
        "b4c5d1013bf4d8d41813f41c41965c3945b208ad8a04acdabbf707fb241ef31c",
    ("hqmm-proj", "vector-sum"):
        "07348e841b6d4fd3233ac2f1a22cb9bd383e0c64979d68e7371339f40d87c9cf",
}


def _array_digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _batches(count):
    """Trial arrays in the sampler's batch order, the last one partial."""
    return [np.arange(start, min(start + BATCH, count))
            for start in range(0, count, BATCH)]


@pytest.mark.parametrize("name", sorted(RNG_DIGESTS))
def test_rng_layer_digest(name):
    out = getattr(rng, name)(SEED, RNG_COUNTERS)
    assert _array_digest([out]) == RNG_DIGESTS[name]


@pytest.mark.parametrize("slot", sorted(HQMM_MACHINE_DIGESTS))
def test_hqmm_machine_layer_digest(slot):
    batches = [kernels.machines_batch("hqmm", SEED, trials, slot)
               for trials in _batches(QUANTUM_COUNT)]
    assert _array_digest(batches) == HQMM_MACHINE_DIGESTS[slot]


def test_hqmm_initial_state_layer_digest():
    states = [kernels.initial_state_batch("hqmm", SEED, trials, True)
              for trials in _batches(QUANTUM_COUNT)]
    assert _array_digest(states) == HQMM_INITIAL_STATE_DIGEST


@pytest.mark.parametrize("kind,quantum_mode", sorted(DELAY_SCORE_DIGESTS))
def test_delay_score_layer_digest(kind, quantum_mode):
    rows = [kernels.batch_delay_scores(kind, SEED, trials, T_LIST, quantum_mode)
            for trials in _batches(QUANTUM_COUNT)]
    assert _array_digest(rows) == DELAY_SCORE_DIGESTS[(kind, quantum_mode)]


FIXTURE_SCORE_DIGESTS = {
    "classical_smax3.json":
        "c6e0349dc6221ee9118228d94d9f6b74cbcdc19a49794274a0aa5b23c7db4c84",
    "projective_2sqrt2.json":
        "f7ba54e2216b6f88cc35e4524e44c71589d6df43cf549544e3c78557519a6a2e",
}

SCORE_TRIALS = 8

# (kind, t, quantum_mode) -> digest of the score documents of SCORE_TRIALS
# drawn machine files, each in every ordering.
SCORE_DIGESTS = {
    ("hmm", 0, "channel"):
        "760b94ebbc730ccc2bb39f377b4dc91432c2669966e28a6bbfbae9c38083c618",
    ("hmm", 0, "vector-sum"):
        "760b94ebbc730ccc2bb39f377b4dc91432c2669966e28a6bbfbae9c38083c618",
    ("hmm", 1, "channel"):
        "0399b449e2d0ce35944abbafdc6eeb73d4bb18afb8641c326709d7c82ca11f72",
    ("hmm", 1, "vector-sum"):
        "0399b449e2d0ce35944abbafdc6eeb73d4bb18afb8641c326709d7c82ca11f72",
    ("hmm", 8, "channel"):
        "1257fd646e692a8125492516ad893959c0417f614a3f916c66159dcfacb16870",
    ("hmm", 8, "vector-sum"):
        "1257fd646e692a8125492516ad893959c0417f614a3f916c66159dcfacb16870",
    ("hqmm", 0, "channel"):
        "85448444d4c3a4855bfaaab97ad5f9408b5e0a49f7be4c14fa9f026d515eec9c",
    ("hqmm", 0, "vector-sum"):
        "85448444d4c3a4855bfaaab97ad5f9408b5e0a49f7be4c14fa9f026d515eec9c",
    ("hqmm", 1, "channel"):
        "bed76dfaaaf141290997c2fec0f65bb66348ec052c60e2c37c5d9e6baaf415a0",
    ("hqmm", 1, "vector-sum"):
        "3d4a9a42804646b5d4c6953a603634bb88e31bcc8dc44242b1389f0f6cb58974",
    ("hqmm", 8, "channel"):
        "6db3e130dd2ddcce5c065934c2e234aa2d0d8f897683769954fd77a65d157211",
    ("hqmm", 8, "vector-sum"):
        "ee92788c61704e9c37d7afc1ee9a0a554e53f0a76ca9f893e0330be200d09522",
    ("hqmm-proj", 0, "channel"):
        "41a8c9c21a63718bccd4d0efdb2f0d12addca8ab9a72b7f1c55c1de774070727",
    ("hqmm-proj", 0, "vector-sum"):
        "41a8c9c21a63718bccd4d0efdb2f0d12addca8ab9a72b7f1c55c1de774070727",
    ("hqmm-proj", 1, "channel"):
        "1feca10fbcf89cd2da0221dcfabd87acb9401747909871b5e3b623ce2bd15617",
    ("hqmm-proj", 1, "vector-sum"):
        "ea9eb79bd7d92347079a4c92d2279f5d22d5bfa5a2c7a8fd95b9848cb674d3e5",
    ("hqmm-proj", 8, "channel"):
        "9398c64250345b748446013f0463118f22b78066c4292c2564d924163a7b96d5",
    ("hqmm-proj", 8, "vector-sum"):
        "4c235f6e6756a2b299858dfd1a1f1b9b65894161b4639111883a26e38008d29e",
    ("mm", 0, "channel"):
        "88900325cf85fdd62dd638fc4b6e5b44e8ff724b2f9afa4506c6effca83e83e3",
    ("mm", 0, "vector-sum"):
        "88900325cf85fdd62dd638fc4b6e5b44e8ff724b2f9afa4506c6effca83e83e3",
    ("mm", 1, "channel"):
        "3a1e2c8a83ef70ba150bfce699abe632ec7121aabf1f9f906eeb626e0af91817",
    ("mm", 1, "vector-sum"):
        "3a1e2c8a83ef70ba150bfce699abe632ec7121aabf1f9f906eeb626e0af91817",
    ("mm", 8, "channel"):
        "e2ef1b87088d9efb4bc358c2e92fa32644549a3ba00a8d711478d257b04e96a3",
    ("mm", 8, "vector-sum"):
        "e2ef1b87088d9efb4bc358c2e92fa32644549a3ba00a8d711478d257b04e96a3",
}


def _score_documents(path, t, quantum_mode, tmp_path):
    """What `tempora score` writes for path in every ordering, joined."""
    out = tmp_path / "score.json"
    docs = []
    for mode in ORDERING_MODES:
        assert main(["score", "--machines", str(path), "--mode", mode,
                     "--t", str(t), "--quantum-mode", quantum_mode,
                     "--out", str(out)]) == 0
        docs.append(out.read_bytes())
    return b"".join(docs)


@pytest.mark.parametrize("name", sorted(FIXTURE_SCORE_DIGESTS))
def test_fixture_score_document_digest(name, tmp_path):
    with importlib.resources.as_file(
            importlib.resources.files("tempora") / "fixtures" / name) as path:
        docs = _score_documents(path, 0, "vector-sum", tmp_path)
    assert hashlib.sha256(docs).hexdigest() == FIXTURE_SCORE_DIGESTS[name]


def _machine_file(kind, trial, initial):
    """One trial's machines as sample_machine draws them.

    Trial 0 keeps the default state; the others take the sweep's random
    initial state of that trial.
    """
    a1, a2, b1, b2, charlie = (
        sample_machine(kind, rng.Stream(SEED, trial, slot))
        for slot in (rng.SLOT_ALICE1, rng.SLOT_ALICE2, rng.SLOT_BOB1,
                     rng.SLOT_BOB2, rng.SLOT_CHARLIE))
    return MachineFile(alice=PartySpec(a1, a2), bob=PartySpec(b1, b2),
                       charlie=charlie,
                       initial=initial[:, trial] if trial else None)


@pytest.mark.parametrize("kind,t,quantum_mode", sorted(SCORE_DIGESTS))
def test_score_document_digest(kind, t, quantum_mode, tmp_path):
    initial = kernels.initial_state_batch(kind, SEED, np.arange(SCORE_TRIALS),
                                          True)
    h = hashlib.sha256()
    for trial in range(SCORE_TRIALS):
        path = tmp_path / f"machines{trial}.json"
        save_machine_file(path, _machine_file(kind, trial, initial))
        h.update(_score_documents(path, t, quantum_mode, tmp_path))
    assert h.hexdigest() == SCORE_DIGESTS[(kind, t, quantum_mode)]
