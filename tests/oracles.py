"""Slow references for the tests, independent of the code they check.

The package scores every configuration in one observable form
(kernels._score_block).  These oracles take other routes to the same
numbers: stepping a machine one outcome at a time, composing the raw
outcome operators into 2x2 joint tables, stepping a density matrix t
times through a Kraus channel, and the closed form of projective
machines.  The stepping oracles use only the machine objects' own
matrices and numpy's matmul.  orthonormalize_pair is a one-pair Gram-Schmidt, the reference the
batch draw of hqmm machines is checked against.
"""
import numpy as np

# Below this probability an outcome branch is treated as impossible.
ZERO_BRANCH_TOL = 1e-12
# Below this norm a vector is considered zero for orthonormalization.
DEGENERACY_TOL = 1e-12


class DegenerateInput(ValueError):
    """Input vectors too short or too parallel to orthonormalize."""


def orthonormalize_pair(u, v):
    """Gram-Schmidt an (unnormalised) pair into an orthonormal pair (a, b).

    a = u/|u|, b = (v - <a|v> a) normalised.  Raises DegenerateInput when
    |u| < 1e-12 or when the residual of v after projection is shorter than
    1e-12 (v parallel to u, or zero).
    """
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    nu = np.sqrt(np.sum(u.real ** 2 + u.imag ** 2))
    if nu < DEGENERACY_TOL:
        raise DegenerateInput(f"first vector norm {nu:.3e} below {DEGENERACY_TOL}")
    a = u / nu
    w = v - np.sum(np.conj(a) * v) * a
    nw = np.sqrt(np.sum(w.real ** 2 + w.imag ** 2))
    if nw < DEGENERACY_TOL:
        raise DegenerateInput(f"residual norm {nw:.3e} below {DEGENERACY_TOL}")
    return a, w / nw


def classical_outcome_step(m, eta, symbol):
    """Emit one symbol: return (probability, renormalised post-state).

    A branch with probability <= 1e-12 is reported as (0.0, None): the
    outcome cannot occur and no post-state exists.
    """
    v = m.op(symbol) @ np.asarray(eta, dtype=np.float64)
    p = float(v[0] + v[1])
    if p <= ZERO_BRANCH_TOL:
        return 0.0, None
    return p, v / p


def quantum_outcome_step(k, psi, symbol):
    """Measure one symbol: return (probability, renormalised post-state).

    A branch with probability <= 1e-12 is reported as (0.0, None).
    """
    v = k.op(symbol) @ np.asarray(psi, dtype=np.complex128)
    p = float(np.sum(v.real ** 2 + v.imag ** 2))
    if p <= ZERO_BRANCH_TOL:
        return 0.0, None
    return p, v / np.sqrt(p)


def joint_prob_classical(first, second, eta, i, j, mid=None):
    """P(first emits i, then second emits j) from state eta.

    Composes the raw sub-transition matrices, with the optional matrix mid
    applied between the two measurements.
    """
    v = first.op(i) @ np.asarray(eta, dtype=np.float64)
    if mid is not None:
        v = mid @ v
    w = second.op(j) @ v
    return float(w[0] + w[1])


def joint_prob_quantum(first, second, psi, i, j, mid=None):
    """P(first emits i, then second emits j) from pure state psi.

    Returns the raw squared norm |K2^(j) mid K1^(i) psi|^2; with mid absent
    the four outcomes sum to 1 for valid machines.
    """
    v = first.op(i) @ np.asarray(psi, dtype=np.complex128)
    if mid is not None:
        v = mid @ v
    w = second.op(j) @ v
    return float(np.sum(w.real ** 2 + w.imag ** 2))


def stepwise_joint(first, second, state, i, j):
    """Joint outcome probability via normalise-then-multiply stepping."""
    step = (classical_outcome_step if first.kind == "classical"
            else quantum_outcome_step)
    p1, post = step(first, state, i)
    if post is None:
        return 0.0
    p2, _ = step(second, post, j)
    return p1 * p2


def channel_stepped_table(first, second, psi, charlie, t):
    """Joint outcome table with charlie stepping the density matrix t times
    through its Kraus channel."""
    cm, cp = charlie.k_minus, charlie.k_plus
    p = np.empty((2, 2))
    for i, symbol_i in enumerate((-1, +1)):
        v = first.op(symbol_i) @ psi
        rho = np.outer(v, np.conj(v))
        for _ in range(t):
            rho = cm @ rho @ np.conj(cm).T + cp @ rho @ np.conj(cp).T
        for j, symbol_j in enumerate((-1, +1)):
            kj = second.op(symbol_j)
            p[i, j] = np.trace(kj @ rho @ np.conj(kj).T).real
    return p


def table_correlators(alice, bob, mode, table, renorm=False):
    """Correlators c11..c22 and raw sums from table(first, second).

    With renorm, a table whose sum strays from 1 by more than 1e-9 is divided
    by its sum, unless the sum is 0.
    """
    cs, raw = [], {}
    for n in (1, 2):
        for m in (1, 2):
            pairs = {"a-first": (alice.basis(n), bob.basis(m)),
                     "b-first": (bob.basis(m), alice.basis(n))}
            es, sums = [], {}
            for order, (first, second) in pairs.items():
                if mode not in (order, "symmetrized"):
                    continue
                p = table(first, second)
                total = float(p.sum())
                if renorm and total != 0.0 and abs(total - 1.0) > 1e-9:
                    p = p / total
                es.append(p[0, 0] - p[0, 1] - p[1, 0] + p[1, 1])
                sums[order] = total
            cs.append(float(np.mean(es)))
            raw[f"c{n}{m}"] = sums
    return cs, raw


def table_score(alice, bob, state, mode="symmetrized",
                convention="canonical", charlie=None, t=0,
                quantum_mode="vector-sum"):
    """The selected CHSH score of one configuration from its outcome tables.

    At t=0 the tables are stepped outcome by outcome.  A classical charlie,
    or a quantum one in vector-sum mode, is composed as the matrix power of
    its operator sum between the raw operators, with the four-outcome
    renormalisation for quantum machines; in channel mode the density
    matrix is stepped t times.
    """
    quantum = alice.kind == "quantum"
    renorm = False
    if t == 0:
        def table(first, second):
            return np.array([[stepwise_joint(first, second, state, i, j)
                              for j in (-1, +1)] for i in (-1, +1)])
    elif quantum and quantum_mode == "channel":
        def table(first, second):
            return channel_stepped_table(first, second, state, charlie, t)
    else:
        mid = np.linalg.matrix_power(charlie.total(), t)
        joint = joint_prob_quantum if quantum else joint_prob_classical
        renorm = quantum

        def table(first, second):
            return np.array([[joint(first, second, state, i, j, mid)
                              for j in (-1, +1)] for i in (-1, +1)])
    return selected_score(table_correlators(alice, bob, mode, table,
                                            renorm)[0], convention)


def selected_score(cs, convention):
    """The canonical or max-relabel score of correlators c11..c22."""
    total = sum(cs)
    placements = [abs(total - 2.0 * c) for c in cs]
    return placements[3] if convention == "canonical" else max(placements)


def projective_correlators(phi_a, phi_b, phi_c=None):
    """Closed-form (2, 2, ...) correlators c_nm of projective machines.

    A projective machine of angle phi measures the Pauli observable whose
    Bloch axis lies at angle 2 phi in the x-z plane.  Two Lüders
    measurements in sequence correlate as the dot product of their axes,
    c_nm = cos(2 (phi_a,n - phi_b,m)), whatever the state and the ordering.
    A projective charlie of angle phi_c acting as a channel (any t >= 1)
    dephases onto its axis, so c_nm = cos(2 (phi_a,n - phi_c))
    cos(2 (phi_c - phi_b,m)).  phi_a and phi_b are (2, ...) arrays of the
    parties' two angles.
    """
    a, b = np.asarray(phi_a)[:, None], np.asarray(phi_b)[None, :]
    if phi_c is None:
        return np.cos(2.0 * (a - b))
    return np.cos(2.0 * (a - phi_c)) * np.cos(2.0 * (phi_c - b))
