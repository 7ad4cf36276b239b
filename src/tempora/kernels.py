"""Batch machine generation and scoring over trial arrays.

Everything here is plain vectorized numpy over a 1-d array of trial indices.
machines_batch is the only code that draws a machine: the scalar entry point
sample_machine returns its n=1 row, and every draw is a pure function of
(seed, trial, slot), so a row does not depend on the batch around it.
Likewise _score_block is the only code that forms correlators: the sweeps
call it per block of drawn machines, and chsh scores one configuration as
its n=1 call.  _select_score is the only code that turns correlators into
a score, with its sum written out, so a trial's scalar and sweep scores
have the same bits in every ordering.

A machine batch is an ndarray of shape (2, 2, 2, n): axis 0 is the outcome
symbol (0 -> -1, 1 -> +1), axes 1-2 the matrix, axis 3 the trial.  Classical
batches are float64, quantum batches complex128, with one exception: the
scoring core draws hqmm-proj as float64 when it scores from the fixed state
(1, 0).  Its Kraus operators are real, and so are its branch vectors, so it
is scored on the Pauli coordinates (I, X, Z) with a 3x3 transfer matrix; the
Y coordinate it leaves out is an exact zero, so every score keeps its bits.
_score_block reads real or complex from its machines' dtype once and passes
it to the helpers.

Batch counters are stored draw-major, as an (n_draws, n) array with the trial
axis innermost, so building them and reading one draw for every trial are
contiguous passes; rng.slot_counters, the one definition of the counter
layout, builds them.  machines_batch and slot_counters take one slot or a
sequence of slots.  The scoring core draws each block's four party
machines, and charlie under a delay, with one machines_batch call into one
(slots, 2, 2, 2, k) buffer that every block reuses, so no array holds the
machines of a whole batch.  A block's k trials are sized by bytes: its
buffer takes at most SCORE_BLOCK_BYTES, so real kinds, at half the bytes
per trial, pay a block's fixed cost half as often.  The hqmm draw stays
draw-major too: rng.normals pairs the counters along their first axis, and
Gram-Schmidt runs on contiguous (8, slots * k) rows.  _unit is the one
normalisation of both complex Gaussian draws, the two dilation vectors and a
random qubit state: a degenerate pair is redrawn, a degenerate state pinned
to (1, 0).

A channel delay has no products of its own: Phi is linear, so
transfer_matrix takes it on six rank-one inputs (four for a real charlie)
through the branch vectors that score a first machine.  The scoring core
builds each block's delay map in its block loop; over a whole batch, the
stacked inputs leave the cache.

The scoring core also sets the process's resident-heap policy, so every
caller of batch_scores and batch_delay_scores, not only the sweeps, scores
without mapping its batch arrays in again; no other code sets it.

KINDS, ORDERING_MODES, SCORE_CONVENTIONS and QUANTUM_DELAY_MODES are the
option vocabularies of the package, and check_options is their one check.
"""
from __future__ import annotations

import ctypes

import numpy as np

from . import rng
from .classical import TransitionPair
from .errors import ConfigError, RangeError, SamplingError, ShapeMismatch
from .integers import as_ints, check_int
from .quantum import KrausPair

# Machine kinds, orderings of the two measurements, score conventions and
# the delay maps of a quantum charlie.
KINDS = ("mm", "hmm", "hqmm", "hqmm-proj")
ORDERING_MODES = ("a-first", "b-first", "symmetrized")
SCORE_CONVENTIONS = ("canonical", "max-relabel")
QUANTUM_DELAY_MODES = ("vector-sum", "channel")
_VOCABULARIES = {"kind": KINDS, "mode": ORDERING_MODES,
                 "convention": SCORE_CONVENTIONS,
                 "quantum_mode": QUANTUM_DELAY_MODES}

# Below this norm a Gaussian draw is degenerate: a Gram-Schmidt input or a
# random initial state that is redrawn or pinned.
DEGENERACY_TOL = 1e-12

# Four-outcome sums further than this from 1 trigger renormalisation in
# vector-sum delay mode.
RENORM_TOL = 1e-9

# Resampling attempts for a degenerate Gaussian draw: 1 initial + 16 retries.
MAX_ATTEMPTS = 17

# Bytes of a score block's machine buffer.  The scoring core draws each
# block's machines in the block, and a block holds as many trials as fit:
# 1024 for four complex parties, 2048 for four real ones, 819 or 1638 with
# charlie.  Whole-batch temporaries would raise a sweep's peak RSS by about
# 24 MiB and score hqmm-proj about 9% slower.  Every draw and score is
# elementwise per trial, so the block size changes no bytes.
SCORE_BLOCK_BYTES = 512 << 10

# glibc mallopt parameters (malloc.h) and the values the scoring core sets.
# The largest per-batch arrays are the score rows, 128 KiB per t at 16384
# trials, and the trial array, 128 KiB; a block's machine buffer and draw
# temporaries are at most 512 KiB each.  glibc maps arrays of 128 KiB and
# more on their own until its dynamic threshold rises.  Below the mmap
# threshold they come from the heap, and below the trim threshold freed heap
# pages stay mapped, so no batch page-faults its memory in again.  32 MiB is
# the glibc maximum mmap threshold on 64-bit.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20
_heap_kept_resident = False


def is_quantum_kind(kind: str) -> bool:
    return kind in ("hqmm", "hqmm-proj")


def check_options(**values: str) -> None:
    """Raise ConfigError for a value outside its vocabulary.

    The keywords are kind, mode, convention and quantum_mode; every public
    entry that takes one of them checks it here before it draws or scores.
    """
    for name, value in values.items():
        choices = _VOCABULARIES[name]
        if value not in choices:
            raise ConfigError(f"{name} must be one of {choices}, got {value!r}")


def as_trials(trials) -> np.ndarray:
    """The one trial rule: integers.as_ints over [0, rng.TRIALS) in one
    dimension, so a 1-d integer ndarray passes with an O(1) check and any
    other sequence becomes int64.  Raises RangeError, or ShapeMismatch for
    an input that is not one-dimensional.  rng.slot_counters checks the
    range of every trial it is given."""
    return as_ints("trials", trials, rng.TRIALS, 1, np.int64)


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
    if not isinstance(stream, rng.Stream):
        raise RangeError(f"stream must be an rng.Stream, got {stream!r:.80}")
    return machine_from_batch(machines_batch(
        kind, stream.seed, [stream.trial], (stream.slot,))[0], 0)


def machines_batch(kind: str, seed: int, trials: np.ndarray, slot,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Machine batch of shape (2, 2, 2, n) for one slot of many trials.

    A sequence of slots gives (len(slots), 2, 2, 2, n), entry i with the
    bytes of a call for slots[i] alone: one counter build, one uniform or
    normal pass and one Gram-Schmidt pass serve every slot.

    With out, every entry of out is written and out is returned; it must
    have that shape, float64 for classical kinds and complex128 for quantum
    kinds, or ShapeMismatch is raised.  hqmm-proj Kraus operators are real,
    so an hqmm-proj out may also be float64: it gets the real parts of the
    complex draw, bit for bit, for the scoring core (machine_from_batch
    would read it as classical).  Without out, quantum kinds are complex128.
    The draw takes the seed and every slot through the integer rules of
    rng, before it writes anything: a slot lies in [0, rng.SLOTS), and the
    seed is any integer, taken mod 2**64.
    """
    check_options(kind=kind)
    trials = as_trials(trials)
    n = trials.shape[0]
    single = not np.iterable(slot)
    slots = (slot,) if single else tuple(slot)
    shape = (2, 2, 2, n) if single else (len(slots), 2, 2, 2, n)
    dtypes = {"hqmm": (np.complex128,),
              "hqmm-proj": (np.complex128, np.float64)}.get(kind,
                                                            (np.float64,))
    if out is not None and (out.shape != shape or out.dtype not in dtypes):
        raise ShapeMismatch(
            f"{kind} batch of {n} trials needs out of shape {shape} "
            f"and dtype {' or '.join(np.dtype(d).name for d in dtypes)}, "
            f"got {out.shape} {out.dtype}")
    m = np.empty(shape, dtype=dtypes[0]) if out is None else out
    ms = m[None] if single else m  # slot, outcome, matrix, trial
    if kind == "mm":
        u = rng.uniform01(seed, rng.slot_counters(trials, slots, 2))
        a, b = u[0], u[1]
        ms[:, 0, 0, 0] = a
        ms[:, 0, 0, 1] = 1.0 - b
        ms[:, 0, 1] = 0.0
        ms[:, 1, 0] = 0.0
        ms[:, 1, 1, 0] = 1.0 - a
        ms[:, 1, 1, 1] = b
        return m
    if kind == "hmm":
        u = rng.uniform01(seed, rng.slot_counters(trials, slots, 6))
        # Nested uniforms: b <= 1-a, c <= 1-a-b, and likewise for d, e, f.
        a = u[0]
        b = (1.0 - a) * u[1]
        c = (1.0 - a - b) * u[2]
        d = u[3]
        e = (1.0 - d) * u[4]
        f = (1.0 - d - e) * u[5]
        ms[:, 0, 0, 0] = a
        ms[:, 0, 0, 1] = d
        ms[:, 0, 1, 0] = b
        ms[:, 0, 1, 1] = e
        ms[:, 1, 0, 0] = c
        ms[:, 1, 0, 1] = f
        ms[:, 1, 1, 0] = 1.0 - a - b - c
        ms[:, 1, 1, 1] = 1.0 - d - e - f
        return m
    if kind == "hqmm-proj":
        u = rng.uniform01(seed, rng.slot_counters(trials, slots, 1))
        phi = (2.0 * np.pi) * u[0]
        c, s = np.cos(phi), np.sin(phi)
        ms[:, 0, 0, 0] = ms[:, 1, 1, 1] = c * c
        ms[:, 0, 1, 1] = ms[:, 1, 0, 0] = s * s
        # c * s overwrites c: one more live array here touched more heap in
        # a long sweep loop.
        cs = np.multiply(c, s, out=c)
        ms[:, 0, 0, 1] = ms[:, 0, 1, 0] = cs
        # Negation is exact: -(c * s) has the bits of (-c) * s.
        ms[:, 1, 0, 1] = ms[:, 1, 1, 0] = np.negative(cs, out=cs)
        return m
    _hqmm_batch(seed, trials, slots, ms)
    return m


def _gram_schmidt(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Gram-Schmidt (8, s, k) complex normals into the (s, 2, 2, 2, k) view
    m: rows 0-3 are the first vector of each trial, rows 4-7 the second.

    Scales z in place; returns the (s, k) mask of degenerate columns to redraw.
    """
    s, k = m.shape[0], m.shape[-1]
    z = z.reshape(8, s * k)
    a, v = z[:4], z[4:]
    bad = _unit(a)
    p = np.conj(a) * v
    # numpy sums a length-4 complex axis as (p0 + p1) + (p2 + p3).
    dot = p[0] + p[1]
    dot += p[2] + p[3]
    w = dot * a
    np.subtract(v, w, out=w)
    bad |= _unit(w)
    # k_minus columns are the ancilla -1 halves, k_plus the +1 halves.
    m[..., 0, :] = a.reshape(2, 2, s, k).transpose(2, 0, 1, 3)
    m[..., 1, :] = w.reshape(2, 2, s, k).transpose(2, 0, 1, 3)
    return bad.reshape(s, k)


def _hqmm_batch(seed: int, trials: np.ndarray, slots: tuple,
                m: np.ndarray) -> None:
    """Draw hqmm machines of every slot into the (slots, 2, 2, 2, n) m."""
    # Box-Muller pairs the draw-major counters along their first axis.
    bad = _gram_schmidt(rng.normals(seed, rng.slot_counters(trials, slots,
                                                            16)), m)
    for i, slot in enumerate(slots):
        rows = np.flatnonzero(bad[i])
        for attempt in range(1, MAX_ATTEMPTS):
            if not rows.size:
                break
            z = rng.normals(seed, rng.slot_counters(trials[rows], slot, 16,
                                                    attempt))
            redrawn = np.empty((1, 2, 2, 2, rows.size), dtype=np.complex128)
            ok = ~_gram_schmidt(z, redrawn)[0]
            m[i][..., rows[ok]] = redrawn[0][..., ok]
            rows = rows[~ok]
        if rows.size:
            raise SamplingError(
                f"no usable dilation pair after {MAX_ATTEMPTS} attempts "
                f"(seed={seed}, trial={int(trials[rows[0]])}, slot={slot})")


def initial_state_batch(kind: str, seed: int, trials: np.ndarray,
                        random_initial: bool) -> np.ndarray | None:
    """Per-trial initial states, or None for the fixed (1, 0) default."""
    check_options(kind=kind)
    if not random_initial:
        return None
    trials = as_trials(trials)
    if is_quantum_kind(kind):
        psi = rng.normals(seed, rng.slot_counters(trials, rng.SLOT_INITIAL, 4))
        # A zero draw has ~1e-300 probability; pin it to the basis state.
        psi[:, _unit(psi)] = np.array([[1.0], [0.0]])
        return psi
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


def _pauli_coords(diag: np.ndarray, h01: np.ndarray,
                  real: bool) -> np.ndarray:
    """(4, ...) real coordinates Tr[sigma_a H] of Hermitian H from its real
    diagonal (..., 2, n) and its entry (0,1), (..., n); for real H (real
    true), the three (I, X, Z), as its Y coordinate is zero."""
    # Written into one array: np.stack's temporaries cost a fifth of a
    # one-trial score.
    out = np.empty((3 if real else 4,) + h01.shape)
    h00, h11 = diag[..., 0, :], diag[..., 1, :]
    np.add(h00, h11, out=out[0])
    if real:
        np.multiply(2.0, h01, out=out[1])
    else:
        np.multiply(2.0, h01.real, out=out[1])
        np.multiply(-2.0, h01.imag, out=out[2])
    np.subtract(h00, h11, out=out[-1])
    return out


def _abs2(z: np.ndarray, real: bool) -> np.ndarray:
    """|z|^2 of a real (real true) or complex array."""
    if real:
        return np.square(z)
    p = np.square(z.real)
    p += np.square(z.imag)
    return p


def _unit(x: np.ndarray) -> np.ndarray:
    """Scale the columns of a (k, n) complex array to unit length in place;
    return the mask of columns shorter than DEGENERACY_TOL, left unscaled.

    The squares are summed in row order, ((q0 + q1) + q2) + q3 for k = 4,
    the order numpy's sum uses along a short axis.  A product with the
    reciprocal has the bits of numpy's complex-by-real division; the factor
    stays an array, as a 0-d operand changes them.
    """
    q = _abs2(x, False)
    norm = q[0]
    for row in q[1:]:
        norm += row
    np.sqrt(norm, out=norm)
    bad = norm < DEGENERACY_TOL
    x *= 1.0 / np.where(bad, 1.0, norm)
    return bad


def _conj(z: np.ndarray, real: bool) -> np.ndarray:
    """np.conj(z), without the copy np.conj makes of a real array."""
    return z if real else np.conj(z)


def _first_parts(v: np.ndarray, quantum: bool, real: bool,
                 p: np.ndarray | None = None) -> tuple:
    """Parts (machine, outcome, ..., n) of the first-role vectors: the branch
    vectors v, or the diagonal |v|^2 of v v^dag (p if given) and its entry
    (0,1).  real tells a real v from a complex one."""
    if not quantum:
        return (v,)
    # np.multiply, not v0 * np.conj(v1): numpy evaluates that in place in a
    # temporary of 256 KiB or more, which moves the last bit with the size.
    return (_abs2(v, real) if p is None else p,
            np.multiply(v[..., 0, :], _conj(v[..., 1, :], real)))


# The factors of transfer_matrix's columns: halved sums for I, quartered
# differences for X and Y, a halved difference for Z; a real charlie has no Y.
_TRANSFER_SCALE = (np.array([[0.5], [0.25], [0.25], [0.5]]),
                   np.array([[0.5], [0.25], [0.5]]))


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
    real = charlie.dtype.kind == "f"
    v = np.empty((4 if real else 6,) + c0.shape, dtype=charlie.dtype)
    np.add(c0, c1, out=v[0])
    np.subtract(c0, c1, out=v[1])
    v[-2:] = charlie.transpose(2, 0, 1, 3)  # c0, c1
    if not real:
        # c0 +- i c1 on the real and imaginary parts: no complex product.
        np.subtract(c0.real, c1.imag, out=v[2].real)
        np.add(c0.imag, c1.real, out=v[2].imag)
        np.add(c0.real, c1.imag, out=v[3].real)
        np.subtract(c0.imag, c1.real, out=v[3].imag)
    x = _pauli_coords(*_first_parts(v, True, real), real)
    x = x[:, :, 0] + x[:, :, 1]
    r = np.empty(x.shape[:1] + x.shape[:1] + x.shape[2:])
    np.add(x[:, -2:-1], x[:, -1:], out=r[:, :1])
    # R_X, R_Y unless real, and R_Z
    np.subtract(x[:, 0::2], x[:, 1::2], out=r[:, 1:])
    return np.multiply(r, _TRANSFER_SCALE[real], out=r)


def _second_parts(m: np.ndarray, quantum: bool, real: bool) -> tuple:
    """Parts (machine, outcome, ..., n) of the second-role vectors, 1^T T_j or
    the diagonal and entry (0,1) of K_j^dag K_j, and |K|^2 of quantum
    machines m."""
    if not quantum:
        return (m[:, :, 0] + m[:, :, 1],), None
    p = _abs2(m, real)
    h = np.multiply(_conj(m[..., 0, :], real), m[..., 1, :])
    return (p[:, :, 0] + p[:, :, 1], h[:, :, 0] + h[:, :, 1]), p


def _coords(parts: tuple, quantum: bool, real: bool,
            both: bool) -> np.ndarray:
    """(k, sign, machine, n) coordinates of role parts: the vector, or the
    Pauli coordinates of the Hermitian matrix.  Sign 0 holds outcome +1
    minus outcome -1 and sign 1, when both, their sum; the two are formed
    into one array, so every later step takes them in one pass."""
    signed = []
    for a in parts:
        plus, minus = a[:, 1], a[:, 0]
        if both:
            d = np.empty((2,) + plus.shape, plus.dtype)
            np.subtract(plus, minus, out=d[0])
            np.add(plus, minus, out=d[1])
        else:
            d = np.subtract(plus, minus)[None]
        signed.append(d)
    if quantum:
        return _pauli_coords(*signed, real)
    return signed[0].transpose(2, 0, 1, 3)  # (sign, machine, k, n)


def _pairs(x: np.ndarray, o: np.ndarray) -> np.ndarray:
    """(sign, order, 2, 2, n) o_second . x_first of each sign: order 0 is
    alice first, [a_n, b_m], order 1 bob first, [b_m, a_n]."""
    k, s, n = x.shape[0], x.shape[1], x.shape[-1]
    # Views of (k, sign, party, basis, n): alice's bases meet bob's, and back.
    return np.einsum("asoin,asojn->soijn", x.reshape(k, s, 2, 2, n),
                     o.reshape(k, s, 2, 2, n)[:, :, ::-1])


def _renormalise(e: np.ndarray, total: np.ndarray) -> np.ndarray:
    """E divided in place by its raw four-outcome sum where that strays from
    1 by more than RENORM_TOL; a zero sum leaves E as it is."""
    return np.divide(e, total, out=e, where=(total != 0.0)
                     & (np.abs(total - 1.0) > RENORM_TOL))


def _correlators(e: np.ndarray, mode: str) -> np.ndarray:
    """(2, 2, ...) correlators c_nm from the (order, 2, 2, ...) expectations
    of _pairs: ab[n, m] with alice's machine n measured first and ba[m, n]
    with bob's m first."""
    ab, ba = e
    if mode == "a-first":
        return ab
    if mode == "b-first":
        return ba.swapaxes(0, 1)
    return 0.5 * (ab + ba.swapaxes(0, 1))


def _select_score(c11, c12, c21, c22, convention: str):
    """The canonical or max-relabel CHSH score of correlators c_nm, given as
    floats or as (n,) arrays, under a convention its caller has checked.

    The sum is written out as ((c11 + c12) + c21) + c22, so a score's bits
    follow from this code, not from how its correlators lie in memory; the
    scalar scores and the sweeps both call it.  canonical puts the minus
    sign on c22; max-relabel takes the largest of the four placements, the
    first NaN among them if there is one.
    """
    total = ((c11 + c12) + c21) + c22
    if convention == "canonical":
        return abs(total - 2.0 * c22)
    p = (abs(total - 2.0 * c11), abs(total - 2.0 * c12),
         abs(total - 2.0 * c21), abs(total - 2.0 * c22))
    if isinstance(total, np.ndarray):
        return np.maximum(np.maximum(p[0], p[1]), np.maximum(p[2], p[3]))
    # On floats, np.maximum would box every operand.  max skips a NaN that
    # is not first, where np.maximum keeps the first NaN it meets.
    for x in p:
        if x != x:
            return x
    return max(p)


def _select_scores(c: np.ndarray, convention: str) -> np.ndarray:
    """The selected score of (2, 2, n) correlators."""
    return _select_score(c[0, 0], c[0, 1], c[1, 0], c[1, 1], convention)


def _score_block(m: np.ndarray, charlie: np.ndarray | None,
                 psi: np.ndarray | None, t_list, quantum: bool,
                 channel: bool, mode: str):
    """Correlators of one block of trials, and its halved raw sums.

    The one scoring body: the sweeps call it per block of drawn machines,
    and chsh scores one configuration as its n=1 call.  m holds the
    (4, 2, 2, 2, n) machines of alice's bases 1, 2 and bob's 1, 2; charlie,
    (2, 2, 2, n), acts between the measurements and is None when every t is
    0; psi is the (2, n) initial state, or None for the fixed (1, 0).
    channel selects a quantum charlie's Kraus channel over its vector sum.

    As the first machine, outcome i leaves the branch state x_i = T_i eta
    (K_i psi), taken after the delay, as a vector (classical) or as the
    Pauli coordinates Tr[sigma_a rho_i] of rho_i = K_i psi psi^dag K_i^dag.
    As the second, outcome j detects a branch state x with probability
    o_j . x, where o_j = 1^T T_j (the coordinates of K_j^dag K_j).  The
    ordered pair (first, second) scores E = (o+ - o-) . (x+ - x-), halved
    for quantum machines, and (o+ + o-) . (x+ + x-) is its raw four-outcome
    sum.  Each delay is one linear map raised to the power t: the vector
    sum of charlie's operators on the branch vectors, or the channel's
    Pauli transfer matrix on the coordinates.

    Returns the (t, 2, 2, n) correlators c_nm under the ordering mode, in
    one layout for every ordering.  In vector-sum mode with a quantum
    charlie it also returns the halved raw sums, (t, order, 2, 2, n): order
    0 is alice first, [a_n, b_m], order 1 bob first, [b_m, a_n].  A
    delayed row's expectation is divided by its raw sum when that strays
    from 1 by more than RENORM_TOL (a zero sum leaves it as it is); a t=0
    row is never divided.  In every other mode the raw sums are None.
    """
    real = m.dtype.kind == "f"
    renorm = quantum and not channel and charlie is not None
    o_parts, p = _second_parts(m, quantum, real)
    o = _coords(o_parts, quantum, real, renorm)
    if psi is None:  # the branch vectors are column 0
        v, pv = m[..., 0, :], None if p is None else p[..., 0, :]
    else:
        v, pv = m[..., 0, :] * psi[0] + m[..., 1, :] * psi[1], None
    if channel or not all(t_list):  # a row reads the undelayed branches
        x = _coords(_first_parts(v, quantum, real, pv), quantum, real, renorm)
    powers = {}
    if charlie is not None:
        step = transfer_matrix(charlie) if channel else charlie[0] + charlie[1]
        powers = _mat_powers(step, t_list)
    c = np.empty((len(t_list), 2, 2, m.shape[-1]))
    raw = np.empty((len(t_list), 2) + c.shape[1:]) if renorm else None
    for row, t in enumerate(t_list):
        if t == 0:
            y = x
        elif channel:
            y = np.einsum("abn,bin->ain", powers[int(t)], x[:, 0])[:, None]
        else:
            power = powers[int(t)]
            y = _coords(_first_parts(power[:, 0] * v[..., 0, None, :]
                                     + power[:, 1] * v[..., 1, None, :],
                                     quantum, real), quantum, real, renorm)
        e = _pairs(y, o)
        if renorm:  # the raw sums, halved like E below
            np.multiply(0.5, e[1], out=raw[row])
        e = _renormalise(e[0], raw[row]) if renorm and t else e[0]
        c[row] = _correlators(e, mode)
    if quantum:
        c *= 0.5  # Tr[O rho] is half the dot product of coordinates
    return c, raw


def _block_layout(kind: str, delayed: bool, random_initial: bool) -> tuple:
    """(slots, dtype, trials) of the scoring core's blocks.

    Each block draws its machines into one buffer: the four parties, then
    charlie under a delay.  hqmm-proj from the fixed state (1, 0) is real
    throughout: its machines, branch vectors and R are scored in float64 on
    (I, X, Z), with the bits of the complex path.  A block holds as many
    trials as SCORE_BLOCK_BYTES of that buffer fit, and at least one.
    """
    slots = (rng.SLOT_ALICE1, rng.SLOT_ALICE2, rng.SLOT_BOB1,
             rng.SLOT_BOB2) + ((rng.SLOT_CHARLIE,) if delayed else ())
    real = not is_quantum_kind(kind) or (kind == "hqmm-proj"
                                         and not random_initial)
    dtype = np.dtype(np.float64 if real else np.complex128)
    return slots, dtype, max(1, SCORE_BLOCK_BYTES
                             // (len(slots) * 8 * dtype.itemsize))


def _score_rows(kind: str, seed: int, trials: np.ndarray,
                t_list: tuple[int, ...], quantum_mode: str, mode: str,
                convention: str, random_initial: bool) -> np.ndarray:
    """Selected scores per (t, trial): _score_block per drawn block.

    batch_scores and batch_delay_scores share this body, so that a profiler
    wrapping one public name does not count the other inside it.  It sets
    the resident-heap policy, so that a direct caller keeps its heap
    resident too.
    """
    check_options(kind=kind, mode=mode, convention=convention,
                  quantum_mode=quantum_mode)
    _keep_heap_resident()
    trials = as_trials(trials)
    n = trials.shape[0]
    quantum = is_quantum_kind(kind)
    delayed = any(t_list)
    channel = quantum and quantum_mode == "channel"
    slots, dtype, size = _block_layout(kind, delayed, random_initial)
    drawn = np.empty((len(slots), 2, 2, 2, min(n, size)), dtype=dtype)
    out = np.empty((len(t_list), n))
    for start in range(0, n, size):
        b = slice(start, start + size)
        block = drawn[..., :min(n - start, size)]
        # machines_batch is called by its module name, so a wrapper
        # installed on kernels.machines_batch sees every draw.
        machines_batch(kind, seed, trials[b], slots, out=block)
        psi = initial_state_batch(kind, seed, trials[b], random_initial)
        c, _ = _score_block(block[:4], block[4] if delayed else None, psi,
                            t_list, quantum, channel, mode)
        for row, cs in enumerate(c):
            out[row, b] = _select_scores(cs, convention)
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
    if not np.iterable(t_list):
        raise RangeError(f"t_list must be a sequence, got {t_list!r}")
    t_list = tuple(t_list)
    for i, t in enumerate(t_list):
        check_int(f"t_list[{i}]", t, 0, error=RangeError)
    return _score_rows(kind, seed, trials, t_list, quantum_mode, mode,
                       convention, random_initial)
