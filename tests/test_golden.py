"""Golden SHA-256 digests of sweep result documents.

Each digest covers the exact text `json.dumps(doc, indent=2)` of one sweep
document, so any change to a score's last bit, a histogram count or the
document layout shows up here.  Counts end in a partial batch, so the
batch-order reduce is covered too.

Pinned on an Intel Xeon (x86-64, 2 cores) with numpy 2.4.6.  Box-Muller
uses np.log, np.cos and np.sin, which numpy may dispatch to CPU-specific
SIMD code; a mismatch on another machine is evidence about that, and the
per-kind split below shows which stream moved.

A change that alters the bytes on purpose re-pins the affected digests and
says why in CHANGES.md.
"""
import hashlib
import json

import pytest

from tempora import (SweepConfig, delay_result_to_obj, result_to_obj,
                     run_delay_sweep, run_sweep)
from tempora.sampler import BATCH

SEED = 20240
T_LIST = (0, 1, 2, 4, 8, 16)
CLASSICAL_COUNT = 3 * BATCH + 123
QUANTUM_COUNT = BATCH + 123

SAMPLE_DIGESTS = {
    "mm":
        "4598cef78528961a9cada2903234f533ba67c243b3d1e2b795af7e674fe5e25c",
    "hmm":
        "d7ddd6d34184520c8620cc6171cd6f116ab41d6689c92e5f495895e3a11cc38b",
    "hqmm":
        "da6a4b5be6fde05ca7ca08b7e841cf603c4c3782fb6dd620a8ea13b1f58b08df",
    "hqmm-proj":
        "cd9cffb4789ff0588bfe1961f60237ce30ba942c06a6496cdddf1e5220d8b1b5",
}

# (kind, quantum_mode); classical kinds ignore the quantum mode.
DELAY_DIGESTS = {
    ("mm", "vector-sum"):
        "e20aba8a881774d79773299e22e232e033a8fa7a30d00f58015c4e05e672cae0",
    ("hmm", "vector-sum"):
        "bb4478a147fcd8f722dd314d6d8fada29e78790e46d6e00c7848e8aff1ea813f",
    ("hqmm", "vector-sum"):
        "b1714688f98e8832a9d374a6032b01eed807cda5ad1495b50550d8b37dcd394f",
    ("hqmm", "channel"):
        "12ca099524c892ba56bf01d8442ce76b59d1858ce4b3eaec92fdaa3ff2ef30ed",
    ("hqmm-proj", "vector-sum"):
        "40a16c3e69317e819c8fa59e1b44c3861fc8aadef451251ecf6acd4a851e2acd",
    ("hqmm-proj", "channel"):
        "2e4d3535a79110a0858d098e6ec986f99ae4adc82f73b870440de7f46b13cae2",
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


@pytest.mark.parametrize("kind,quantum_mode", sorted(DELAY_DIGESTS))
def test_delay_document_digest(kind, quantum_mode):
    cfg = SweepConfig(kind=kind, count=_count(kind), master_seed=SEED,
                      t_list=T_LIST, quantum_mode=quantum_mode)
    doc = delay_result_to_obj(cfg, run_delay_sweep(cfg))
    assert _digest(doc) == DELAY_DIGESTS[(kind, quantum_mode)]
