"""Counter-based RNG: frozen golden values and layout guarantees."""
import numpy as np
import pytest

from tempora import ShapeMismatch, rng

MASK = (1 << 64) - 1

# Outputs of the reference SplitMix64 sequence (independent big-int
# implementation below); the first value for seed 0 is the widely published
# test vector 0xe220a8397b1dcdaf.
GOLDEN = {
    0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC],
    42: [0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52, 0x581CE1FF0E4AE394],
    MASK: [0xE4D971771B652C20, 0xE99FF867DBF682C9, 0x382FF84CB27281E9, 0x6D1DB36CCBA982D2],
}


def _reference_splitmix(seed: int, n: int) -> list[int]:
    out = []
    state = seed & MASK
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_raw64_matches_frozen_golden_values(seed):
    got = rng.raw64(seed, np.arange(4, dtype=np.uint64))
    assert [int(v) for v in got] == GOLDEN[seed]


@pytest.mark.parametrize("seed", [0, 1, 42, 987654321, MASK])
def test_raw64_matches_independent_reference(seed):
    got = rng.raw64(seed, np.arange(100, dtype=np.uint64))
    assert [int(v) for v in got] == _reference_splitmix(seed, 100)


def test_raw64_counter_offsets_index_into_one_stream():
    # counter n under seed s is output (n) of the stream: arbitrary offsets
    # must match slices of the sequential reference
    ref = _reference_splitmix(7, 5000)
    counters = np.array([0, 17, 4095, 4999], dtype=np.uint64)
    got = rng.raw64(7, counters)
    assert [int(v) for v in got] == [ref[0], ref[17], ref[4095], ref[4999]]


def test_uniform01_range_and_determinism():
    u = rng.uniform01(123, np.arange(10000, dtype=np.uint64))
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    again = rng.uniform01(123, np.arange(10000, dtype=np.uint64))
    assert np.array_equal(u, again)
    # coarse uniformity
    assert abs(u.mean() - 0.5) < 0.02


def test_normals_shape_moments_and_finiteness():
    z = rng.normals(0, np.arange(2 * 10**5, dtype=np.uint64))
    assert z.shape == (10**5,) and z.dtype == np.complex128
    z = z.view(np.float64)
    assert np.all(np.isfinite(z))
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_normals_requires_even_count():
    with pytest.raises(ValueError):
        rng.normals(0, np.arange(3, dtype=np.uint64))
    # Pairs lie along the first axis: an odd first axis is rejected even
    # when the array holds an even number of counters.
    for counters in (np.arange(6, dtype=np.uint64).reshape(3, 2),
                     np.uint64(4)):
        with pytest.raises(ShapeMismatch):
            rng.normals(0, counters)


def test_normals_2d_rows_match_1d():
    # Pairs lie along the first axis: the rows of 8 are drawn as columns.
    counters = np.arange(32, dtype=np.uint64).reshape(4, 8)
    z2 = np.ascontiguousarray(rng.normals(5, counters.T).T).view(np.float64)
    z1 = rng.normals(5, np.arange(32, dtype=np.uint64)).view(np.float64)
    assert np.array_equal(z2.reshape(-1), z1)


def test_normals_on_a_transposed_view_match_a_contiguous_copy():
    # The pairs do not depend on how the counters lie in memory.
    counters = np.arange(10**9, 10**9 + 16 * 123,
                         dtype=np.uint64).reshape(123, 16)
    view = counters.T
    assert not view.flags.c_contiguous
    got = np.ascontiguousarray(rng.normals(3, view).T).view(np.float64)
    want = np.ascontiguousarray(
        rng.normals(3, np.ascontiguousarray(view)).T).view(np.float64)
    assert got.shape == (123, 16)
    assert got.tobytes() == want.tobytes()


def test_multi_slot_counters_stack_the_single_slot_counters():
    trials = np.arange(10**9, 10**9 + 37, dtype=np.int64)
    slots = (rng.SLOT_CHARLIE, rng.SLOT_ALICE1, rng.SLOT_BOB1)
    for attempt in (0, 3):
        got = rng.slot_counters(trials, slots, 16, attempt)
        want = np.stack([rng.slot_counters(trials, slot, 16, attempt)
                         for slot in slots], axis=1)
        assert got.shape == (16, 3, 37)
        assert got.dtype == np.uint64 and got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)


def test_stream_slots_do_not_overlap():
    c0 = rng.slot_counters([0], 0, rng.SLOT_STRIDE).ravel()
    c1 = rng.slot_counters([0], 1, rng.SLOT_STRIDE).ravel()
    ct = rng.slot_counters([1], 0, rng.SLOT_STRIDE).ravel()
    assert set(map(int, c0)).isdisjoint(map(int, c1))
    assert set(map(int, c0)).isdisjoint(map(int, ct))


def test_stream_attempts_shift_only_within_slot():
    a0 = rng.slot_counters([3], 2, 16, attempt=0).ravel()
    a1 = rng.slot_counters([3], 2, 16, attempt=1).ravel()
    assert int(a1[0]) - int(a0[0]) == rng.ATTEMPT_STRIDE
    # 17 attempts of 16 draws stay inside the slot
    last = rng.slot_counters([3], 2, 16, attempt=16).ravel()
    assert int(last[-1]) - int(a0[0]) < rng.SLOT_STRIDE


def test_seed_wraps_modulo_2_64():
    a = rng.raw64(5, np.arange(4, dtype=np.uint64))
    b = rng.raw64(5 + (1 << 64), np.arange(4, dtype=np.uint64))
    assert np.array_equal(a, b)
