"""Independent reference for everything a tempora score depends on.

Built from the documented definitions only (the counter layout and draw
maps in the package's rng docstring, the README measure table and scoring
rules); it imports nothing from tempora.  Everything is vectorised over a
leading trial axis with 2x2 matrices multiplied by `@`, a different code
shape from the package's unrolled batch kernels.

A machine is a pair (m_minus, m_plus) of arrays of shape (n, 2, 2).
"""
from __future__ import annotations

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

TRIAL_STRIDE = 4096
SLOT_STRIDE = 512
ATTEMPT_STRIDE = 16
SLOTS = {"alice1": 0, "alice2": 1, "bob1": 2, "bob2": 3, "charlie": 4}
MAX_ATTEMPTS = 17

DEGENERACY_TOL = 1e-12
RENORM_TOL = 1e-9
TWO_NEG53 = 2.0 ** -53

# Published SplitMix64 outputs for seed 0 (Vigna's splitmix64.c).
SPLITMIX_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def splitmix64(seed: int, counters) -> np.ndarray:
    """Output number `counters` (0-based) of SplitMix64 seeded with `seed`."""
    n = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & MASK64) + np.uint64(GOLDEN) * (n + np.uint64(1))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def splitmix64_sequential(seed: int, count: int) -> list[int]:
    """The first `count` outputs by stepping the generator state with ints."""
    out, state = [], seed & MASK64
    for _ in range(count):
        state = (state + GOLDEN) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        out.append(z ^ (z >> 31))
    return out


def counters(trials, slot: str, n: int, attempt: int = 0) -> np.ndarray:
    """Counters (len(trials), n) of one machine slot's draws."""
    base = (np.asarray(trials, dtype=np.uint64) * np.uint64(TRIAL_STRIDE)
            + np.uint64(SLOTS[slot] * SLOT_STRIDE + attempt * ATTEMPT_STRIDE))
    return base[:, None] + np.arange(n, dtype=np.uint64)[None, :]


def uniforms(seed: int, trials, slot: str, n: int) -> np.ndarray:
    """U[0, 1) doubles: the top 53 bits of each word times 2**-53."""
    words = splitmix64(seed, counters(trials, slot, n)) >> np.uint64(11)
    return words.astype(np.float64) * TWO_NEG53


def normals(seed: int, trials, slot: str, n: int, attempt: int = 0) -> np.ndarray:
    """Box-Muller over counter pairs (2j, 2j+1): cosine branch, sine branch."""
    words = splitmix64(seed, counters(trials, slot, n, attempt)) >> np.uint64(11)
    u1 = (words[:, 0::2].astype(np.float64) + 1.0) * TWO_NEG53
    u2 = words[:, 1::2].astype(np.float64) * TWO_NEG53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(words.shape)
    out[:, 0::2] = radius * np.cos(angle)
    out[:, 1::2] = radius * np.sin(angle)
    return out


def gram_schmidt(u: np.ndarray, v: np.ndarray):
    """Orthonormal rows (a, b) from rows (u, v), and a degeneracy mask."""
    nu = np.linalg.norm(u, axis=1)
    a = u / np.where(nu < DEGENERACY_TOL, 1.0, nu)[:, None]
    w = v - np.einsum("ni,ni->n", a.conj(), v)[:, None] * a
    nw = np.linalg.norm(w, axis=1)
    b = w / np.where(nw < DEGENERACY_TOL, 1.0, nw)[:, None]
    return a, b, (nu < DEGENERACY_TOL) | (nw < DEGENERACY_TOL)


def dilation_machine(a: np.ndarray, b: np.ndarray):
    """Kraus pair of dilation rows: ancilla -1 halves form k_minus's columns."""
    k_minus = np.stack([a[:, 0:2], b[:, 0:2]], axis=2)
    k_plus = np.stack([a[:, 2:4], b[:, 2:4]], axis=2)
    return k_minus, k_plus


def projective_machine(phi: np.ndarray):
    """Projector onto (cos phi, sin phi) and onto its orthogonal complement."""
    ket = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    perp = np.stack([np.sin(phi), -np.cos(phi)], axis=1)
    k_minus = ket[:, :, None] * ket[:, None, :]
    k_plus = perp[:, :, None] * perp[:, None, :]
    return k_minus.astype(np.complex128), k_plus.astype(np.complex128)


def mm_machine(a: np.ndarray, b: np.ndarray):
    z = np.zeros_like(a)
    t_minus = np.stack([np.stack([a, 1.0 - b], 1), np.stack([z, z], 1)], 1)
    t_plus = np.stack([np.stack([z, z], 1), np.stack([1.0 - a, b], 1)], 1)
    return t_minus, t_plus


def hmm_params(u: np.ndarray):
    """Nested uniforms: b ~ U[0, 1-a], c ~ U[0, 1-a-b], likewise d, e, f."""
    a = u[:, 0]
    b = (1.0 - a) * u[:, 1]
    c = (1.0 - a - b) * u[:, 2]
    d = u[:, 3]
    e = (1.0 - d) * u[:, 4]
    f = (1.0 - d - e) * u[:, 5]
    return a, b, c, d, e, f


def hmm_machine(a, b, c, d, e, f):
    t_minus = np.stack([np.stack([a, d], 1), np.stack([b, e], 1)], 1)
    t_plus = np.stack([np.stack([c, f], 1),
                       np.stack([1.0 - a - b - c, 1.0 - d - e - f], 1)], 1)
    return t_minus, t_plus


def draw_machine(kind: str, seed: int, trials, slot: str):
    """The machine a sweep's trial draws for one slot, from the seed alone."""
    trials = np.asarray(trials, dtype=np.int64)
    if kind == "mm":
        u = uniforms(seed, trials, slot, 2)
        return mm_machine(u[:, 0], u[:, 1])
    if kind == "hmm":
        return hmm_machine(*hmm_params(uniforms(seed, trials, slot, 6)))
    if kind == "hqmm-proj":
        return projective_machine(draw_angle(seed, trials, slot))
    a = np.empty((trials.size, 4), dtype=np.complex128)
    b = np.empty_like(a)
    todo = np.arange(trials.size)
    for attempt in range(MAX_ATTEMPTS):
        z = normals(seed, trials[todo], slot, 16, attempt)
        u = z[:, 0:8:2] + 1j * z[:, 1:8:2]
        v = z[:, 8::2] + 1j * z[:, 9::2]
        aa, bb, bad = gram_schmidt(u, v)
        a[todo[~bad]] = aa[~bad]
        b[todo[~bad]] = bb[~bad]
        todo = todo[bad]
        if todo.size == 0:
            return dilation_machine(a, b)
    raise RuntimeError(f"trials {trials[todo].tolist()} stayed degenerate")


def draw_angle(seed: int, trials, slot: str) -> np.ndarray:
    return 2.0 * np.pi * uniforms(seed, trials, slot, 1)[:, 0]


def _expand(state, n: int, dtype) -> np.ndarray:
    """One state for all n trials, or one state per trial, as (n, 2, 1)."""
    state = np.asarray(state, dtype=dtype)
    return np.broadcast_to(state, (n, 2))[:, :, None]


def joint_tables(first, second, state, delay: str = "none", charlie=None,
                 t: int = 0) -> np.ndarray:
    """Raw tables p[n, i, j] = P(first emits i, then second emits j).

    delay is "none", "classical" or "vector-sum" (the symbol-summed
    charlie to the power t between the two machines) or "channel" (the
    density matrix evolved t times through charlie's Kraus channel).
    """
    quantum = np.iscomplexobj(first[0])
    n = first[0].shape[0]
    psi = _expand(state, n, np.complex128 if quantum else np.float64)
    mid = None
    if delay in ("classical", "vector-sum") and t > 0:
        mid = np.linalg.matrix_power(charlie[0] + charlie[1], t)
    p = np.empty((n, 2, 2))
    for i in (0, 1):
        v = first[i] @ psi
        if delay == "channel":
            rho = v @ v.conj().transpose(0, 2, 1)
            for _ in range(t):
                rho = sum(k @ rho @ k.conj().transpose(0, 2, 1) for k in charlie)
            for j in (0, 1):
                k = second[j]
                p[:, i, j] = np.trace(k @ rho @ k.conj().transpose(0, 2, 1),
                                      axis1=1, axis2=2).real
            continue
        if mid is not None:
            v = mid @ v
        for j in (0, 1):
            w = second[j] @ v
            p[:, i, j] = (np.abs(w[:, :, 0]) ** 2).sum(1) if quantum \
                else w[:, :, 0].sum(1)
    return p


def expectation(p: np.ndarray, renorm: bool) -> np.ndarray:
    """Outcome-product expectation, dividing by the sum when renormalising."""
    total = p.sum(axis=(1, 2))
    if renorm:
        p = p / np.where((np.abs(total - 1.0) > RENORM_TOL) & (total != 0.0),
                         total, 1.0)[:, None, None]
    return p[:, 0, 0] - p[:, 0, 1] - p[:, 1, 0] + p[:, 1, 1]


def chsh(alice, bob, state, ordering: str = "symmetrized",
         delay: str = "none", charlie=None, t: int = 0) -> dict:
    """Correlators c[n, 4] (c11, c12, c21, c22), both scores and raw sums.

    raw[n, 4, 2] holds the raw table sum per correlator and ordering
    (a-first, b-first); an ordering not used is NaN.
    """
    renorm = delay == "vector-sum" and t > 0
    n = alice[0][0].shape[0]
    c = np.empty((n, 4))
    raw = np.full((n, 4, 2), np.nan)
    for col, (x, y) in enumerate((x, y) for x in alice for y in bob):
        orders = {"a-first": (0,), "b-first": (1,), "symmetrized": (0, 1)}[ordering]
        es = []
        for o in orders:
            first, second = (x, y) if o == 0 else (y, x)
            p = joint_tables(first, second, state, delay, charlie, t)
            raw[:, col, o] = p.sum(axis=(1, 2))
            es.append(expectation(p, renorm))
        c[:, col] = es[0] if len(es) == 1 else 0.5 * (es[0] + es[1])
    total = c.sum(axis=1)
    placements = np.abs(total[:, None] - 2.0 * c)
    return {"c": c, "s_canonical": placements[:, 3],
            "s_max": placements.max(axis=1), "raw": raw}


def projective_closed_form(a1, a2, b1, b2) -> np.ndarray:
    """Symmetrized canonical score of projective pairs, for any state.

    Each symmetrized correlator is half the anticommutator of the two
    observables, cos 2(theta_a - theta_b) times the identity.
    """
    c = np.cos
    return np.abs(c(2 * (a1 - b1)) + c(2 * (a1 - b2)) + c(2 * (a2 - b1))
                  - c(2 * (a2 - b2)))


def sweep_scores(kind: str, seed: int, trials, ordering: str = "symmetrized",
                 delay: str = "none", t: int = 0) -> dict:
    """Reference chsh() of sweep trials at the fixed initial state (1, 0)."""
    machines = {s: draw_machine(kind, seed, trials, s)
                for s in ("alice1", "alice2", "bob1", "bob2", "charlie")}
    return chsh((machines["alice1"], machines["alice2"]),
                (machines["bob1"], machines["bob2"]), np.array([1.0, 0.0]),
                ordering, delay, machines["charlie"], t)


def file_machine(obj: dict):
    """One machine of a machine file, as an oracle machine with n=1."""
    if obj["kind"] == "classical":
        return (np.array([obj["t_minus"]], dtype=np.float64),
                np.array([obj["t_plus"]], dtype=np.float64))
    return tuple(np.array([[complex(re, im) for re, im in obj[key]]]).reshape(1, 2, 2)
                 for key in ("k_minus", "k_plus"))


def file_state(obj: dict) -> np.ndarray:
    """The file's initial state, or the fixed state (1, 0)."""
    state = obj.get("initial")
    if state is None:
        return np.array([1.0, 0.0])
    if obj["parties"]["alice"][0]["kind"] == "classical":
        return np.array(state, dtype=np.float64)
    return np.array([complex(re, im) for re, im in state])


def machine_file_scores(obj: dict, ordering: str = "symmetrized",
                        t: int = 0, quantum_mode: str = "vector-sum") -> dict:
    """chsh() of a machine file document, as `tempora score` defines it."""
    alice = [file_machine(m) for m in obj["parties"]["alice"]]
    bob = [file_machine(m) for m in obj["parties"]["bob"]]
    delay, charlie = "none", None
    if t > 0:
        charlie = file_machine(obj["charlie"])
        quantum = np.iscomplexobj(charlie[0])
        delay = quantum_mode if quantum else "classical"
    return chsh(alice, bob, file_state(obj), ordering, delay, charlie, t)


def self_check(anchor_file: dict) -> list[str]:
    """Problems found checking the oracle against published values and
    closed forms; anchor_file is the package's classical anchor (s_max 3,
    s_canonical 1 at symmetrized ordering)."""
    problems = []
    published = [int(w) for w in splitmix64(0, np.arange(3))]
    if published != list(SPLITMIX_SEED0):
        problems.append(f"splitmix64(0) gives {published}, published {SPLITMIX_SEED0}")
    seed = 0x1234_5678_9ABC_DEF0
    if [int(w) for w in splitmix64(seed, np.arange(64))] != \
            splitmix64_sequential(seed, 64):
        problems.append("vectorised and sequential SplitMix64 disagree")

    rng = np.random.default_rng(2718)
    n = 2000
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(4, n))
    psi = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    machines = [projective_machine(phi) for phi in angles]
    generic = chsh(machines[:2], machines[2:], psi)["s_canonical"]
    err = float(np.max(np.abs(generic - projective_closed_form(*angles))))
    if err > 1e-12:
        problems.append(f"projective closed form differs by {err:.3e}")

    anchor = machine_file_scores(anchor_file)
    if abs(anchor["s_max"][0] - 3.0) > 1e-12 or abs(anchor["s_canonical"][0] - 1.0) > 1e-12:
        problems.append(f"classical anchor gives s_max={anchor['s_max'][0]!r}, "
                        f"s_canonical={anchor['s_canonical'][0]!r}")
    return problems
