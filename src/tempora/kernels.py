"""Batch machine generation and scoring over trial arrays.

Everything here is plain vectorized numpy over a 1-d array of trial indices.
machines_batch is the only code that draws a machine: the scalar entry point
sample_machine returns its n=1 row, and every draw is a pure function of
(seed, trial, slot), so a row does not depend on the batch around it.

A machine batch is an ndarray of shape (2, 2, 2, n): axis 0 is the outcome
symbol (0 -> -1, 1 -> +1), axes 1-2 the matrix, axis 3 the trial.  Classical
batches are float64, quantum batches complex128, with one exception: the
scoring core draws hqmm-proj as float64 when it scores from the fixed state
(1, 0).  Its Kraus operators are real, and so are its branch vectors, so it
is scored on the Pauli coordinates (I, X, Z) with a 3x3 transfer matrix; the
Y coordinate it leaves out is an exact zero, so every score keeps its bits.
The helpers choose real or complex arithmetic by the dtype of their arrays.

Batch counters are stored draw-major, as an (n_draws, n) array with the trial
axis innermost, so building them and reading one draw for every trial are
contiguous passes; rng.slot_counters, the one definition of the counter
layout, builds them.  The scoring core draws the four party machines into
one (4, 2, 2, 2, n) array and scores views of its trial blocks, so no block
is copied.

A channel delay has no products of its own: Phi is linear, so
transfer_matrix takes it on six rank-one inputs (four for a real charlie)
through the branch vectors that score a first machine.  The scoring core
builds each block's delay map in its block loop; over a whole batch, the
stacked inputs leave the cache.

The scoring core also sets the process's resident-heap policy, so every
caller of batch_scores and batch_delay_scores, not only the sweeps, scores
without mapping its batch arrays in again.
"""
from __future__ import annotations

import ctypes

import numpy as np

from . import rng
from .algebra import DEGENERACY_TOL
from .classical import TransitionPair
from .errors import RangeError, SamplingError, ShapeMismatch
from .quantum import KrausPair

KINDS = ("mm", "hmm", "hqmm", "hqmm-proj")

# Four-outcome sums further than this from 1 trigger renormalisation in
# vector-sum delay mode.
RENORM_TOL = 1e-9

# Resampling attempts for a degenerate Gaussian draw: 1 initial + 16 retries.
MAX_ATTEMPTS = 17

# Trials per block of an hqmm draw.  Each block's temporaries (at most
# 2048 x 16 words) stay in cache: one whole-batch pass draws a slot about 9%
# slower and raises a sweep's peak RSS by about 8 MiB.  Every step is
# elementwise per trial, so blocks give the same bytes as one whole-batch
# pass (the layer digests check this).
HQMM_BLOCK = 2048

# Trials per block of the scoring core.  Whole-batch temporaries would raise
# a sweep's peak RSS by about 24 MiB and score hqmm-proj about 9% slower.
SCORE_BLOCK = 1024

# glibc mallopt parameters (malloc.h) and the values the scoring core sets.
# The largest per-batch array is the party-machine array: 8 MiB for quantum
# kinds and 4 MiB for classical ones.  Below the mmap threshold it comes from
# the heap, and below the trim threshold freed heap pages stay mapped, so no
# batch page-faults its memory in again.  32 MiB is the glibc maximum mmap
# threshold on 64-bit.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20
_heap_kept_resident = False


def is_quantum_kind(kind: str) -> bool:
    return kind in ("hqmm", "hqmm-proj")


def check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def _keep_heap_resident() -> None:
    """Once per process, keep freed heap mapped across batches.

    Sets glibc's mmap and trim thresholds with mallopt; this is process-wide
    and changes no arithmetic.  Without a libc that has mallopt it does
    nothing.
    """
    global _heap_kept_resident
    if _heap_kept_resident:
        return
    _heap_kept_resident = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def sample_machine(kind: str, stream: rng.Stream):
    """Draw one machine of the given kind: the n=1 row of machines_batch.

    mm: a, b ~ U[0,1].  hmm: nested-uniform over the six parameters.  hqmm:
    two standard-complex-Gaussian 4-vectors, orthonormalized, as a dilation
    pair (redrawn on degeneracy, at most 16 retries, then SamplingError).
    hqmm-proj: phi ~ U[0, 2*pi).  Deterministic in (seed, trial, slot).
    """
    return machine_from_batch(
        machines_batch(kind, stream.seed, [stream.trial], stream.slot), 0)


def machines_batch(kind: str, seed: int, trials: np.ndarray, slot: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Machine batch of shape (2, 2, 2, n) for one slot of many trials.

    With out, every entry of out is written and out is returned; it must
    have that shape, float64 for classical kinds and complex128 for quantum
    kinds, or ShapeMismatch is raised.  hqmm-proj Kraus operators are real,
    so an hqmm-proj out may also be float64: it gets the real parts of the
    complex draw, bit for bit, for the scoring core (machine_from_batch
    would read it as classical).  Without out, quantum kinds are complex128.
    """
    check_kind(kind)
    trials = np.asarray(trials)
    n = trials.shape[0]
    dtypes = {"hqmm": (np.complex128,),
              "hqmm-proj": (np.complex128, np.float64)}.get(kind,
                                                            (np.float64,))
    if out is not None and (out.shape != (2, 2, 2, n)
                            or out.dtype not in dtypes):
        raise ShapeMismatch(
            f"{kind} batch of {n} trials needs out of shape (2, 2, 2, {n}) "
            f"and dtype {' or '.join(np.dtype(d).name for d in dtypes)}, "
            f"got {out.shape} {out.dtype}")
    m = np.empty((2, 2, 2, n), dtype=dtypes[0]) if out is None else out
    if kind == "mm":
        u = rng.uniform01(seed, rng.slot_counters(trials, slot, 2))
        a, b = u[0], u[1]
        m[0, 0, 0] = a
        m[0, 0, 1] = 1.0 - b
        m[0, 1] = 0.0
        m[1, 0] = 0.0
        m[1, 1, 0] = 1.0 - a
        m[1, 1, 1] = b
        return m
    if kind == "hmm":
        u = rng.uniform01(seed, rng.slot_counters(trials, slot, 6))
        # Nested uniforms: b <= 1-a, c <= 1-a-b, and likewise for d, e, f.
        a = u[0]
        b = (1.0 - a) * u[1]
        c = (1.0 - a - b) * u[2]
        d = u[3]
        e = (1.0 - d) * u[4]
        f = (1.0 - d - e) * u[5]
        m[0, 0, 0] = a
        m[0, 0, 1] = d
        m[0, 1, 0] = b
        m[0, 1, 1] = e
        m[1, 0, 0] = c
        m[1, 0, 1] = f
        m[1, 1, 0] = 1.0 - a - b - c
        m[1, 1, 1] = 1.0 - d - e - f
        return m
    if kind == "hqmm-proj":
        u = rng.uniform01(seed, rng.slot_counters(trials, slot, 1))
        phi = (2.0 * np.pi) * u[0]
        c, s = np.cos(phi), np.sin(phi)
        m[0, 0, 0] = m[1, 1, 1] = c * c
        m[0, 1, 1] = m[1, 0, 0] = s * s
        # c * s overwrites c: one more live array here touched more heap in
        # a long sweep loop.
        cs = np.multiply(c, s, out=c)
        m[0, 0, 1] = m[0, 1, 0] = cs
        # Negation is exact: -(c * s) has the bits of (-c) * s.
        m[1, 0, 1] = m[1, 1, 0] = np.negative(cs, out=cs)
        return m
    return _hqmm_batch(seed, trials, slot, m)


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (n, 4) complex array.

    The squares are summed as ((q0 + q1) + q2) + q3, the order numpy's sum
    uses along a length-4 axis, so the bits match np.sum(..., axis=1).
    """
    sq = np.square(x.view(np.float64))
    q = sq[:, 0::2] + sq[:, 1::2]
    total = q[:, 0] + q[:, 1]
    total += q[:, 2]
    total += q[:, 3]
    return np.sqrt(total, out=total)


def _hqmm_block(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Gram-Schmidt (k, 16) normals into the (2, 2, 2, k) view m.

    Returns the mask of degenerate rows, which the caller redraws.
    """
    c = z.view(np.complex128)
    u, v = c[:, :4], c[:, 4:]
    nu = _norms(u)
    bad_u = nu < DEGENERACY_TOL
    # A product with the reciprocal has the bits of numpy's complex-by-real
    # division; the factor stays an array, as a 0-d operand changes them.
    a = u * (1.0 / np.where(bad_u, 1.0, nu))[:, None]
    p = np.conj(a) * v
    # numpy sums a length-4 complex axis as (p0 + p1) + (p2 + p3).
    dot = p[:, 0] + p[:, 1]
    dot += p[:, 2] + p[:, 3]
    w = dot[:, None] * a
    np.subtract(v, w, out=w)
    nw = _norms(w)
    bad = bad_u | (nw < DEGENERACY_TOL)
    w *= (1.0 / np.where(bad, 1.0, nw))[:, None]
    # k_minus columns are the ancilla -1 halves, k_plus the +1 halves.
    k = z.shape[0]
    m[:, :, 0] = a.T.reshape(2, 2, k)
    m[:, :, 1] = w.T.reshape(2, 2, k)
    return bad


def _hqmm_batch(seed: int, trials: np.ndarray, slot: int,
                m: np.ndarray) -> np.ndarray:
    n = trials.shape[0]
    bad = np.empty(n, dtype=bool)
    for start in range(0, n, HQMM_BLOCK):
        block = slice(start, start + HQMM_BLOCK)
        # Box-Muller pairs lie on the last axis: read the counters as their
        # (k, 16) transpose; raw64 copies them into a contiguous array.
        z = rng.normals(seed, rng.slot_counters(trials[block], slot, 16).T)
        bad[block] = _hqmm_block(z, m[..., block])
    rows = np.flatnonzero(bad)
    for attempt in range(1, MAX_ATTEMPTS):
        if not rows.size:
            break
        z = rng.normals(seed, rng.slot_counters(trials[rows], slot, 16,
                                                attempt).T)
        redrawn = np.empty((2, 2, 2, rows.size), dtype=np.complex128)
        bad = _hqmm_block(z, redrawn)
        m[..., rows[~bad]] = redrawn[..., ~bad]
        rows = rows[bad]
    if rows.size:
        raise SamplingError(
            f"no usable dilation pair after {MAX_ATTEMPTS} attempts "
            f"(seed={seed}, trial={int(trials[rows[0]])}, slot={slot})")
    return m


def initial_state_batch(kind: str, seed: int, trials: np.ndarray,
                        random_initial: bool) -> np.ndarray | None:
    """Per-trial initial states, or None for the fixed (1, 0) default."""
    if not random_initial:
        return None
    trials = np.asarray(trials)
    if is_quantum_kind(kind):
        z = rng.normals(seed, rng.slot_counters(trials, rng.SLOT_INITIAL, 4).T)
        sq = np.square(z)
        norm = (sq[:, 0] + sq[:, 1]) + (sq[:, 2] + sq[:, 3])
        np.sqrt(norm, out=norm)
        psi = z.view(np.complex128).T
        # A zero draw has ~1e-300 probability; pin it to the basis state.
        bad = norm < DEGENERACY_TOL
        psi[:, bad] = np.array([[1.0], [0.0]])
        out = np.empty(psi.shape, dtype=np.complex128)
        return np.multiply(psi, (1.0 / np.where(bad, 1.0, norm))[None, :],
                           out=out)
    u = rng.uniform01(seed, rng.slot_counters(trials, rng.SLOT_INITIAL, 1))[0]
    return np.stack([u, 1.0 - u])


def machine_from_batch(m: np.ndarray, idx: int):
    """Materialise one machine object from a batch column."""
    if np.iscomplexobj(m):
        return KrausPair(m[0, :, :, idx], m[1, :, :, idx])
    return TransitionPair(m[0, :, :, idx], m[1, :, :, idx])


def _mat_powers(m: np.ndarray, t_list) -> dict[int, np.ndarray]:
    """{t: m^t} of a (k,k,n) batch for every t >= 1 in t_list.

    One chain of squarings m, m^2, m^4, ... serves every t; each power is
    the product of its chain terms in ascending order, as binary powering
    of one t forms it.
    """
    squares = [m]
    powers = {}
    for t in {int(t) for t in t_list if t}:
        while len(squares) < t.bit_length():
            squares.append(np.einsum("ijn,jkn->ikn", squares[-1], squares[-1]))
        result = None
        for k, base in enumerate(squares[:t.bit_length()]):
            if t >> k & 1:
                result = base if result is None else np.einsum(
                    "ijn,jkn->ikn", result, base)
        powers[t] = result
    return powers


def _pauli_coords(h00: np.ndarray, h01: np.ndarray,
                  h11: np.ndarray) -> np.ndarray:
    """(4, ...) real coordinates Tr[sigma_a H] of Hermitian H from its
    entries (0,0), (0,1) and (1,1); for real H, the three (I, X, Z), as its
    Y coordinate is zero."""
    if not np.iscomplexobj(h01):
        return np.stack([h00 + h11, 2.0 * h01, h00 - h11])
    return np.stack([(h00 + h11).real, 2.0 * h01.real, -2.0 * h01.imag,
                     (h00 - h11).real])


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 of a real or complex array."""
    if not np.iscomplexobj(z):
        return np.square(z)
    p = np.square(z.real)
    p += np.square(z.imag)
    return p


def _conj(z: np.ndarray) -> np.ndarray:
    """np.conj(z), without the copy np.conj makes of a real array."""
    return np.conj(z) if np.iscomplexobj(z) else z


def _first_parts(v: np.ndarray, quantum: bool,
                 p: np.ndarray | None = None) -> tuple:
    """Parts (machine, outcome, ..., n) of the first-role vectors: the branch
    vectors v, or the entries of v v^dag, taking |v|^2 = p if given."""
    if not quantum:
        return (v,)
    p = _abs2(v) if p is None else p
    # np.multiply, not v0 * np.conj(v1): numpy evaluates that in place in a
    # temporary of 256 KiB or more, which moves the last bit with the size.
    return (p[..., 0, :], np.multiply(v[..., 0, :], _conj(v[..., 1, :])),
            p[..., 1, :])


def transfer_matrix(charlie: np.ndarray) -> np.ndarray:
    """(4,4,n) Pauli transfer matrix R_ab = 1/2 Tr[sigma_a Phi(sigma_b)].

    Phi(X) = K- X K-^dag + K+ X K+^dag is charlie's Kraus channel.  With
    Pauli coordinates r_a = Tr[sigma_a rho], Phi acts as r -> R r, so t
    applications are R^t; trace preservation makes the first row (1,0,0,0).
    A real (float64) charlie gives the (3,3,n) matrix on (I, X, Z): its
    channel keeps real states real, so the Y row and column of its complex
    R are zero apart from R_YY, which no real state reaches.

    Phi is linear and takes u u^dag to the sum over outcomes of w w^dag,
    where w = K_i u is a first-role branch vector.  With c0, c1 the columns
    of K_i, u = e0 and e1 give the I and Z columns; X and Y, halved
    differences of (e0 +- e1) and (e0 +- i e1) projectors, give quarter
    differences of c0 +- c1 and c0 +- i c1.  This symmetric form keeps R as
    accurate as a product with each Pauli; four inputs double its error.  A
    real charlie takes only c0 +- c1, c0 and c1, and each of its entries has
    the bits of the complex R's.  Every step is elementwise per trial, so R
    does not depend on the batch length; the scoring core calls this per
    block, where the stacked inputs stay in cache.
    """
    c0, c1 = charlie[:, :, 0], charlie[:, :, 1]
    real = not np.iscomplexobj(charlie)
    v = np.empty((4 if real else 6,) + c0.shape, dtype=charlie.dtype)
    v[0], v[1], v[-2], v[-1] = c0 + c1, c0 - c1, c0, c1
    if not real:
        # c0 +- i c1 on the real and imaginary parts: no complex product.
        v[2].real, v[2].imag = c0.real - c1.imag, c0.imag + c1.real
        v[3].real, v[3].imag = c0.real + c1.imag, c0.imag - c1.real
    x = _pauli_coords(*_first_parts(v, True))
    x = x[:, :, 0] + x[:, :, 1]
    d = x[:, 0::2] - x[:, 1::2]  # 4 R_X, 4 R_Y unless real, and 2 R_Z
    return np.concatenate([0.5 * (x[:, -2:-1] + x[:, -1:]), 0.25 * d[:, :-1],
                           0.5 * d[:, -1:]], axis=1)


def _second_parts(m: np.ndarray, quantum: bool) -> tuple:
    """Parts (machine, outcome, ..., n) of the second-role vectors, 1^T T_j or
    the entries of K_j^dag K_j, and |K|^2 of quantum machines m."""
    if not quantum:
        return (m[:, :, 0] + m[:, :, 1],), None
    p = _abs2(m)
    g = p[:, :, 0] + p[:, :, 1]  # the diagonal of K^dag K
    h = np.multiply(_conj(m[..., 0, :]), m[..., 1, :])
    return (g[..., 0, :], h[:, :, 0] + h[:, :, 1], g[..., 1, :]), p


def _coords(parts: tuple, quantum: bool, op) -> np.ndarray:
    """(k, machine, n) coordinates of op(outcome +1, outcome -1) of role
    parts: the vector, or the Pauli coordinates of the Hermitian matrix."""
    parts = [op(a[:, 1], a[:, 0]) for a in parts]
    return _pauli_coords(*parts) if quantum else parts[0].swapaxes(0, 1)


def _pairs(x: np.ndarray, o: np.ndarray):
    """o_second . x_first with alice first, [a_n, b_m], and bob first."""
    return (np.einsum("ain,ajn->ijn", x[:, :2], o[:, 2:]),
            np.einsum("ain,ajn->ijn", x[:, 2:], o[:, :2]))


def _renormalise(e: np.ndarray, total: np.ndarray) -> np.ndarray:
    """E divided by its raw four-outcome sum when that strays from 1 by more
    than RENORM_TOL; a zero sum leaves E as it is."""
    return e / np.where((total != 0.0) & (np.abs(total - 1.0) > RENORM_TOL),
                        total, 1.0)


def _correlators(ab: np.ndarray, ba: np.ndarray, mode: str) -> np.ndarray:
    """(2, 2, ...) correlators c_nm from the expectations ab[n, m] with
    alice's machine n measured first and ba[m, n] with bob's m first."""
    if mode == "a-first":
        return ab
    if mode == "b-first":
        return ba.swapaxes(0, 1)
    return 0.5 * (ab + ba.swapaxes(0, 1))


def _select_scores(c: np.ndarray, convention: str) -> np.ndarray:
    """The canonical or max-relabel score of (2, 2, n) correlators."""
    total = c.sum(axis=(0, 1))
    if convention == "canonical":
        return np.abs(total - 2.0 * c[1, 1])
    return np.abs(total - 2.0 * c).max(axis=(0, 1))


def _score_rows(kind: str, seed: int, trials: np.ndarray,
                t_list: tuple[int, ...], quantum_mode: str, mode: str,
                convention: str, random_initial: bool) -> np.ndarray:
    """Selected scores per (t, trial), in the observable form of
    chsh._correlate.

    batch_scores and batch_delay_scores share this body, so that a profiler
    wrapping one public name does not count the other inside it.  It sets
    the resident-heap policy, so that a direct caller keeps its heap
    resident too.
    """
    _keep_heap_resident()
    trials = np.asarray(trials)
    n = trials.shape[0]
    quantum = is_quantum_kind(kind)
    delayed = any(t_list)
    # hqmm-proj from the fixed state (1, 0) is real throughout: its machines,
    # branch vectors and R are scored in float64 on (I, X, Z), with the bits
    # of the complex path.  Its party machines fill the first half of a
    # buffer of the complex array's size: in an array of their own size
    # they fragment the resident heap that hqmm's complex array leaves
    # behind, and the sample benchmark's peak RSS rose from 53.56-53.85 to
    # 56.29-56.59 MiB.  Charlie's array is too small to matter.
    real = kind == "hqmm-proj" and not random_initial
    shape = (4, 2, 2, 2, n)
    # machines_batch is called by its module name, so a wrapper installed on
    # kernels.machines_batch sees every draw.
    machines = (np.empty((2,) + shape)[0] if real else np.empty(
        shape, dtype=np.complex128 if quantum else np.float64))
    for i, slot in enumerate((rng.SLOT_ALICE1, rng.SLOT_ALICE2,
                              rng.SLOT_BOB1, rng.SLOT_BOB2)):
        machines_batch(kind, seed, trials, slot, out=machines[i])
    psi = initial_state_batch(kind, seed, trials, random_initial)
    channel = quantum and quantum_mode == "channel"
    renorm = quantum and not channel and delayed
    if delayed:
        charlie = machines_batch(kind, seed, trials, rng.SLOT_CHARLIE,
                                 out=np.empty_like(machines[0]))
        step_of = transfer_matrix if channel else lambda c: c[0] + c[1]
    out = np.empty((len(t_list), n))
    for start in range(0, n, SCORE_BLOCK):
        b = slice(start, start + SCORE_BLOCK)
        m = machines[..., b]
        o_parts, p = _second_parts(m, quantum)
        o_diff = _coords(o_parts, quantum, np.subtract)
        o_sum = _coords(o_parts, quantum, np.add) if renorm else None
        if psi is None:  # the branch vectors are column 0
            v = m[..., 0, :]
            x_parts = _first_parts(v, quantum,
                                   None if p is None else p[..., 0, :])
        else:
            v = m[..., 0, :] * psi[0, b] + m[..., 1, :] * psi[1, b]
            x_parts = _first_parts(v, quantum)
        x_diff = _coords(x_parts, quantum, np.subtract)
        powers = (_mat_powers(step_of(charlie[..., b]), t_list) if delayed
                  else {})
        for row, t in enumerate(t_list):
            if t == 0:
                ab, ba = _pairs(x_diff, o_diff)
            elif channel:
                ab, ba = _pairs(np.einsum("abn,bin->ain", powers[int(t)],
                                          x_diff), o_diff)
            else:
                power = powers[int(t)]
                y_parts = _first_parts(power[:, 0] * v[..., 0, None, :]
                                       + power[:, 1] * v[..., 1, None, :],
                                       quantum)
                ab, ba = _pairs(_coords(y_parts, quantum, np.subtract), o_diff)
                if renorm:  # the raw sums, halved like E below
                    ab_sum, ba_sum = _pairs(
                        _coords(y_parts, quantum, np.add), o_sum)
                    ab = _renormalise(ab, 0.5 * ab_sum)
                    ba = _renormalise(ba, 0.5 * ba_sum)
            c = _correlators(ab, ba, mode)
            if quantum:
                c *= 0.5  # Tr[O rho] is half the dot product of coordinates
            out[row, b] = _select_scores(c, convention)
    return out


def batch_scores(kind: str, seed: int, trials: np.ndarray,
                 mode: str = "symmetrized", convention: str = "canonical",
                 random_initial: bool = False) -> np.ndarray:
    """Selected CHSH score per trial: the t=0 row of batch_delay_scores."""
    return _score_rows(kind, seed, trials, (0,), "vector-sum", mode,
                       convention, random_initial)[0]


def batch_delay_scores(kind: str, seed: int, trials: np.ndarray,
                       t_list: tuple[int, ...],
                       quantum_mode: str = "vector-sum",
                       mode: str = "symmetrized",
                       convention: str = "canonical",
                       random_initial: bool = False) -> np.ndarray:
    """Selected scores per (t, trial); machines are reused across t."""
    if any(t < 0 for t in t_list):
        raise RangeError(f"t_list must be non-negative, got {t_list!r}")
    return _score_rows(kind, seed, trials, t_list, quantum_mode, mode,
                       convention, random_initial)
