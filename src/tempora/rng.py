"""Deterministic counter-based random streams for reproducible sweeps.

The generator is a stateless pseudo-random function from (seed, counter) to
64 bits, so any draw can be produced independently, in any order, on any
worker.  The mixing function is frozen:

    raw64(seed, n) = mix64((seed + (n + 1) * GOLDEN) mod 2**64)

where GOLDEN = 0x9E3779B97F4A7C15 and mix64 is the SplitMix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

i.e. raw64(seed, n) is output n of a standard SplitMix64 sequence seeded
with `seed`.

Counter layout.  Trial k owns the counter block [k*TRIAL_STRIDE,
(k+1)*TRIAL_STRIDE).  Within a trial, machine slot s (SLOT_* constants) owns
counters [s*SLOT_STRIDE, (s+1)*SLOT_STRIDE) of the block, and resampling
attempt a within a slot starts at offset a*ATTEMPT_STRIDE.  Retries of one
machine therefore never shift any other machine's draws.  slot_counters is
the one place that computes these counters (Salmon et al. 2011, "Parallel
random numbers: as easy as 1, 2, 3"); every draw in the package goes
through it.  It takes one slot or a sequence of slots, so one call builds
the counters of every machine a batch block draws.

Derived values: uniform01 = (raw64 >> 11) * 2**-53 in [0, 1); normals come
from Box-Muller over counter pairs (2j, 2j+1), with the radius uniform
mapped into (0, 1] so the logarithm is always finite.

Layout of normals: pairs lie along the first axis, the draw axis of
slot_counters, so counters of shape (2m, ...) give a complex128 array of
shape (m, ...) whose element j holds (cosine branch, sine branch) of pair
j as its real and imaginary parts.  A draw-major batch is read without a
transpose, and for 1-d counters `.view(np.float64)` of the result lists
the normals in counter order.  The bytes rest on numpy's log, cos and
sin, which are evaluated on contiguous arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1

TRIAL_STRIDE = 4096
SLOT_STRIDE = 512
ATTEMPT_STRIDE = 16

SLOT_ALICE1 = 0
SLOT_ALICE2 = 1
SLOT_BOB1 = 2
SLOT_BOB2 = 3
SLOT_CHARLIE = 4
SLOT_INITIAL = 5

_U64 = np.uint64
_TWO_NEG53 = 2.0 ** -53


def mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied in place to a uint64 array; returns x.

    Wrapping uint64 arithmetic is exact mod 2**64, so the in-place steps
    give the same words as the formula in the module docstring.
    """
    shifted = np.empty_like(x)
    np.right_shift(x, _U64(30), out=shifted)
    x ^= shifted
    x *= _U64(0xBF58476D1CE4E5B9)
    np.right_shift(x, _U64(27), out=shifted)
    x ^= shifted
    x *= _U64(0x94D049BB133111EB)
    np.right_shift(x, _U64(31), out=shifted)
    x ^= shifted
    return x


def raw64(seed: int, counters: np.ndarray) -> np.ndarray:
    """64-bit outputs for an array of counters under one master seed."""
    # (seed + (n + 1) * GOLDEN) mod 2**64, as n * GOLDEN + (seed + GOLDEN).
    # An explicit out keeps a 0-d input an array, so the steps stay in place.
    n = np.asarray(counters, dtype=_U64)
    z = np.multiply(n, _U64(GOLDEN), out=np.empty(n.shape, dtype=_U64))
    z += _U64((seed + GOLDEN) & MASK64)
    return mix64(z)


def uniform01(seed: int, counters: np.ndarray) -> np.ndarray:
    """Uniform doubles in [0, 1), one per counter."""
    r = raw64(seed, counters)
    r >>= _U64(11)
    u = r.astype(np.float64)
    u *= _TWO_NEG53
    return u


def normals(seed: int, counters: np.ndarray) -> np.ndarray:
    """Complex standard normals: (m, ...) from counters of shape (2m, ...).

    Counters pair up along the first axis, which must have even length,
    else ShapeMismatch: rows (2j, 2j+1) feed one Box-Muller transform, and
    element j of the result holds its cosine and sine branch as real and
    imaginary part (see the module docstring).
    """
    counters = np.asarray(counters)
    if counters.ndim == 0 or counters.shape[0] % 2 != 0:
        raise ShapeMismatch("normals needs an even number of counters along "
                            f"the first axis, got shape {counters.shape}")
    r = raw64(seed, counters)
    r >>= _U64(11)
    rad = np.add(r[0::2], 1.0)  # (r + 1) * 2**-53 in (0, 1]
    rad *= _TWO_NEG53
    ang = np.multiply(r[1::2], _TWO_NEG53)  # [0, 1)
    ang *= 2.0 * np.pi
    np.log(rad, out=rad)
    rad *= -2.0
    np.sqrt(rad, out=rad)
    out = np.empty(rad.shape, dtype=np.complex128)
    np.multiply(rad, np.cos(ang), out=out.real)
    np.sin(ang, out=ang)
    np.multiply(rad, ang, out=out.imag)
    return out


def slot_counters(trials: np.ndarray, slot, n_draws: int,
                  attempt: int = 0) -> np.ndarray:
    """C-contiguous (n_draws, n) counters of one slot and attempt: row j is
    draw j of every trial, so the trial axis is innermost.

    A sequence of slots gives (n_draws, len(slots), n): entry [:, i] holds
    the counters of slot slots[i], as one slot's call gives them.
    """
    offsets = (np.asarray(slot, dtype=_U64) * _U64(SLOT_STRIDE)
               + _U64(attempt * ATTEMPT_STRIDE))
    base = np.add.outer(offsets, np.asarray(trials).astype(np.uint64)
                        * _U64(TRIAL_STRIDE))
    draws = np.arange(n_draws, dtype=_U64).reshape((-1,) + (1,) * base.ndim)
    return np.add(draws, base,
                  out=np.empty((n_draws,) + base.shape, dtype=_U64))


@dataclass(frozen=True)
class Stream:
    """Address of one machine slot of one trial."""

    seed: int
    trial: int
    slot: int = 0
