"""Reproducible Monte Carlo sweeps over random machines.

A sweep scores `count` independent trials; trial k draws four machines (and,
for delay sweeps, an intermediary) from counter sub-streams derived from
(master_seed, k), so results are a pure function of the configuration.  Work
is chunked into fixed-size batches whose partial results are reduced in
batch order, which makes every output, including float summaries,
bit-identical for any worker count.

On N > 1 workers a sweep runs in min(N, batches) child processes that the
module keeps between sweeps.  The first such sweep forks them; a later one
sends each kept child one job (the worker, the config, the child's share
of the batches, how to build its empty share histogram, and CHUNK) and
forks only the children it lacks.  A sweep takes its children for its
duration, so sweeps in two threads never share one.  Once it has read all
their results it keeps them, and only them, and stops every other idle
child; a sweep that ends early, on a child's error or death, a closed
stream or KeyboardInterrupt, stops its children too.  _drop_children is
that one release path, and joins what it stops.  Kept children are
daemonic, so the interpreter stops them at exit.  Every forked process
closes the parent's pipe ends it inherits and forgets the parent's
children, so a child exits by itself at EOF when the parent is killed, and
a process forked from the parent forks children of its own.  Reusing a
process moves no byte: every draw is a pure function of its counter.

_scored is the one loop over a share of the batches: it scores them into
one share histogram of the worker's own (for a zero-delay sweep) and yields
a (part, result) pair per batch, part being the share after its last
batch, else None.  One worker's share is every batch, and the parent runs
the loop itself, with no pipe.  Child w's share is the fixed round-robin
one of batches w, w + N, w + 2N, ...; it sends its pairs as (pairs, error),
one message per CHUNK batches.  The parent reads the pipes round-robin,
batch i being entry (i // N) % CHUNK of message (i // N) // CHUNK of child
i mod N, folds the per-row statistics in batch order, as only their float
sums depend on that order, and merges the N share histograms as they come.
A child's exception is raised in the caller at the batch that raised it,
and a child that exits without a reply raises SamplingError there.  A
batch with a score that is not finite raises RangeError, so a sweep stops
at the first such batch.
"""
from __future__ import annotations

import functools
import math
import multiprocessing
import os
import signal
import threading
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kernels, rng
from .algebra import as_matrix2
from .errors import ConfigError, RangeError, SamplingError, ShapeMismatch
from .kernels import KINDS, sample_machine  # noqa: F401  (re-exported API)

BATCH = 16384
# Batches a sweep child scores per message to the parent.
CHUNK = 64
# Most bins of a histogram: its counts are one int64 array and a JSON list.
_MAX_BINS = 1 << 24
# Forked sweep children inherit the imported modules instead of importing
# them again.  Named, because fork is not the default start method everywhere
# (Python 3.14 defaults to forkserver on Linux).
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None)
TWO_SQRT2 = float(2.0 * np.sqrt(2.0))


@dataclass(frozen=True)
class SweepConfig:
    """Everything that determines a sweep's output."""

    kind: str
    count: int
    master_seed: int = 0
    bins: int = 400
    range: tuple[float, float] = (0.0, 4.0)
    mode: str = "symmetrized"
    convention: str = "canonical"
    random_initial: bool = False
    t_list: tuple[int, ...] | None = None
    quantum_mode: str = "vector-sum"

    def validate(self) -> None:
        kernels.check_options(kind=self.kind, mode=self.mode,
                              convention=self.convention,
                              quantum_mode=self.quantum_mode)
        kernels.check_int("count", self.count, 0, rng.TRIALS)
        kernels.check_int("master_seed", self.master_seed)
        kernels.check_int("bins", self.bins, 1, _MAX_BINS)
        _edges(self.bins, self.range, ConfigError)
        if not isinstance(self.random_initial, (bool, np.bool_)):
            raise ConfigError(
                f"random_initial must be a bool, got {self.random_initial!r}")
        if self.t_list is not None:
            ts = tuple(self.t_list) if np.iterable(self.t_list) else ()
            if not ts:
                raise ConfigError(
                    f"t_list must be a non-empty sequence, got {self.t_list!r}")
            for i, t in enumerate(ts):
                kernels.check_int(f"t_list[{i}]", t, 0)

    def as_dict(self) -> dict:
        self.validate()
        out = {
            "kind": self.kind, "count": int(self.count),
            "seed": int(self.master_seed), "bins": int(self.bins),
            "range": _edges(self.bins, self.range, ConfigError),
            "mode": self.mode, "convention": self.convention,
            "random_initial": bool(self.random_initial),
            "measure": MEASURES[self.kind],
        }
        if self.t_list is not None:
            out["t_list"] = [int(t) for t in self.t_list]
            out["quantum_mode"] = self.quantum_mode
        return out


def _edges(bins: int, pair, error) -> list[float]:
    """[lo, hi] of a histogram range: finite numbers lo < hi whose bins
    have a finite, non-zero width, else error."""
    lo, hi = as_matrix2(pair, "range", np.float64, (2,), error=error).tolist()
    if not (lo < hi and 0.0 < bins / (hi - lo) < math.inf):
        raise error(f"range must be two numbers lo < hi, got {pair!r}")
    return [lo, hi]


# Sampling measure per kind, echoed into results so runs are comparable.
MEASURES = {
    "mm": "a,b ~ U[0,1]",
    "hmm": "nested-uniform: a,d ~ U[0,1]; b ~ U[0,1-a]; c ~ U[0,1-a-b]; "
           "e ~ U[0,1-d]; f ~ U[0,1-d-e]",
    "hqmm": "two standard complex Gaussian 4-vectors, Gram-Schmidt "
            "orthonormalized (unitarily invariant pair measure)",
    "hqmm-proj": "phi ~ U[0,2*pi)",
}


@dataclass(eq=False)
class Histogram:
    """Fixed-width integer histogram with under/overflow counters."""

    lo: float
    hi: float
    counts: np.ndarray
    total: int = 0
    underflow: int = 0
    overflow: int = 0
    observed_min: float | None = None
    observed_max: float | None = None

    def __post_init__(self) -> None:
        """Checks in O(1), never over the counts: a merge builds one."""
        c = self.counts
        if not (isinstance(c, np.ndarray) and c.dtype == np.int64
                and c.ndim == 1):
            raise RangeError(f"counts must be a 1-d int64 array, got {c!r:.60}")
        kernels.check_int("bins", c.shape[0], 1, _MAX_BINS, error=RangeError)
        self.lo, self.hi = _edges(c.shape[0], (self.lo, self.hi), RangeError)
        for name in ("total", "underflow", "overflow"):
            kernels.check_int(name, getattr(self, name), 0, error=RangeError)
        if self.observed_min is not None or self.observed_max is not None:
            self.observed_min, self.observed_max = as_matrix2(
                (self.observed_min, self.observed_max), "observed extremes",
                np.float64, (2,), error=RangeError).tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    @classmethod
    def empty(cls, bins: int, lo: float, hi: float) -> "Histogram":
        kernels.check_int("bins", bins, 1, _MAX_BINS, error=RangeError)
        return cls(lo, hi, np.zeros(bins, dtype=np.int64))

    @property
    def bins(self) -> int:
        return int(self.counts.shape[0])

    def add_scores(self, scores: np.ndarray) -> None:
        """Bin an array of finite scores; out-of-range values hit the
        counters.  Raises RangeError, and bins nothing, for a score that is
        not a finite real number."""
        try:
            scores = np.asarray(scores)
        except ValueError:  # ragged
            scores = np.asarray(scores, dtype=object)
        if scores.dtype.kind not in "iuf":  # no str, bool, complex or object
            raise RangeError(f"scores must be real numbers, got {scores.dtype}")
        scores = scores.astype(np.float64, copy=False)
        if scores.size == 0:
            return
        lo = float(scores.min())  # NaN if any score is
        hi = float(scores.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise RangeError(f"scores must be finite, got {lo} to {hi}")
        # Compared before the int cast, so a huge score bins as overflow.
        with np.errstate(over="ignore"):
            x = np.floor((scores - self.lo) * (self.bins / (self.hi - self.lo)))
        inside = (x >= 0) & (x < self.bins)
        good = x[inside].astype(np.int64)
        under = int(np.count_nonzero(x < 0))
        self.counts += np.bincount(good, minlength=self.bins)
        self.total += int(scores.size)
        self.underflow += under
        self.overflow += int(scores.size) - good.size - under
        self.observed_min = lo if self.observed_min is None else min(self.observed_min, lo)
        self.observed_max = hi if self.observed_max is None else max(self.observed_max, hi)

    def as_dict(self) -> dict:
        return {
            "lo": self.lo, "hi": self.hi, "bins": self.bins,
            "counts": self.counts.tolist(), "total": int(self.total),
            "underflow": int(self.underflow), "overflow": int(self.overflow),
            "observed_min": self.observed_min, "observed_max": self.observed_max,
        }


def histogram_merge(h1: Histogram, h2: Histogram) -> Histogram:
    """Combine two histograms with identical binning (commutative)."""
    if not (isinstance(h1, Histogram) and isinstance(h2, Histogram)):
        raise ShapeMismatch(f"cannot merge {h1!r:.60} with {h2!r:.60}")
    if (h1.lo, h1.hi, h1.bins) != (h2.lo, h2.hi, h2.bins):
        raise ShapeMismatch(
            f"cannot merge ({h1.lo}, {h1.hi}, {h1.bins} bins) with "
            f"({h2.lo}, {h2.hi}, {h2.bins} bins)")
    mins = [m for m in (h1.observed_min, h2.observed_min) if m is not None]
    maxs = [m for m in (h1.observed_max, h2.observed_max) if m is not None]
    return Histogram(
        lo=h1.lo, hi=h1.hi, counts=h1.counts + h2.counts,
        total=h1.total + h2.total,
        underflow=h1.underflow + h2.underflow,
        overflow=h1.overflow + h2.overflow,
        observed_min=min(mins) if mins else None,
        observed_max=max(maxs) if maxs else None)


@dataclass
class SweepSummary:
    """Aggregate statistics of the selected score over one sweep."""

    count: int
    observed_min: float | None
    observed_max: float | None
    mean_s: float | None
    fraction_above_2: float | None
    fraction_above_2sqrt2: float | None

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class DelayPoint:
    """Statistics of one delay value within a delay sweep."""

    t: int
    count: int
    mean_s: float | None
    max_s: float | None
    fraction_above_2: float | None

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class DelayStats:
    """Per-t statistics of a delay sweep."""

    points: list[DelayPoint] = field(default_factory=list)

    def point(self, t: int) -> DelayPoint:
        for p in self.points:
            if p.t == t:
                return p
        raise KeyError(f"no statistics for t={t}")


def _job(cfg: SweepConfig, start: int) -> tuple[SweepConfig, int, int]:
    """The job of the batch that starts at trial start."""
    return cfg, start, min(start + BATCH, cfg.count)


@np.errstate(over="ignore", invalid="ignore")
def _batch(args: tuple[SweepConfig, int, int], hist: Histogram | None) -> list:
    """One batch: bins a zero-delay sweep's scores into hist (None for a
    delay sweep) and returns, per score row, its sum, max and counts above
    2 and 2*sqrt(2), which _fold reports in place of numpy.  Raises
    RangeError, naming each t and its non-finite trials of the batch, for a
    score that is not a finite number."""
    cfg, start, stop = args
    trials = np.arange(start, stop, dtype=np.int64)
    if cfg.t_list is None:
        ts = (0,)
        rows = kernels.batch_scores(cfg.kind, cfg.master_seed, trials, cfg.mode,
                                    cfg.convention, cfg.random_initial)[None]
    else:
        ts = tuple(cfg.t_list)
        rows = kernels.batch_delay_scores(
            cfg.kind, cfg.master_seed, trials, ts,
            cfg.quantum_mode, cfg.mode, cfg.convention, cfg.random_initial)
    bad = [f"t={int(t)}: {row.size - np.count_nonzero(np.isfinite(row))} "
           f"of {row.size} trials" for t, row in zip(ts, rows)
           if not np.isfinite(row).all()]
    if bad:
        raise RangeError("delay scores are not finite: " + "; ".join(bad))
    if hist is not None:
        hist.add_scores(rows[0])
    return [(float(row.sum()), float(row.max()),
             int(np.count_nonzero(row > 2.0)),
             int(np.count_nonzero(row > TWO_SQRT2))) for row in rows]


def _scored(worker, cfg: SweepConfig, starts: range, new_share):
    """Yield (part, worker(job, share)) for each batch that starts at a
    trial of starts, in order.  The batches score into one share of their
    own, new_share() (None without new_share), and part is that share after
    the last batch, else None."""
    share = new_share() if new_share is not None else None
    for start in starts:
        result = worker(_job(cfg, start), share)
        yield (share if start == starts[-1] else None), result


def _run_share(conn, worker, cfg: SweepConfig, starts: range, new_share,
               chunk: int) -> None:
    """Send _scored's pairs of a share of the batches as (pairs, error), one
    message per chunk batches: on the first error, the pairs scored before
    it and the error."""
    pairs = []
    try:
        for n, pair in enumerate(_scored(worker, cfg, starts, new_share), 1):
            pairs.append(pair)
            if n % chunk == 0 or n == len(starts):
                message, pairs = (pairs, None), []
                conn.send(message)
    except Exception as exc:  # re-raised by the parent
        conn.send((pairs, exc))


def _serve(conn) -> None:
    """A kept sweep child: run each job the parent sends on conn through
    _run_share, until the parent closes its end or dies."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles it
    try:
        while True:
            _run_share(conn, *conn.recv())
    except (EOFError, OSError):  # the parent closed its end, or died
        pass


# Sweep children, each as (process, the parent's end of its duplex pipe).
# Idle children wait in _KEPT; a sweep takes the ones it uses and keeps
# them again when it has read all their results.  _LIVE holds every child,
# idle or taken.  _LOCK guards both and is held across each fork, so that a
# new child closes the parent end of every live child (_after_fork).  It is
# reentrant: the garbage collector may finalize an abandoned sweep, which
# drops its children, in a thread that holds it.
_KEPT: list = []
_LIVE: set = set()
_LOCK = threading.RLock()


def _after_fork() -> None:
    """In any forked process, the sweep children are its parent's: close
    their parent ends, so that they still see EOF when the parent is gone,
    and forget them, so that the process forks its own."""
    global _LOCK
    for proc, end in _LIVE:
        end.close()
        # Else multiprocessing would stop and join them when this process
        # exits.
        multiprocessing.process._children.discard(proc)
    _LIVE.clear()
    _KEPT.clear()
    _LOCK = threading.RLock()  # a thread that no longer exists may hold it


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork)


def _take(children: list, n: int) -> None:
    """Fill children up to n: kept children first, then new forks."""
    with _LOCK:
        while _KEPT and len(children) < n:
            child = _KEPT.pop()
            if child[0].is_alive():
                children.append(child)
            else:
                _stop([child])
        while len(children) < n:
            end, child_end = _CONTEXT.Pipe()
            child = (_CONTEXT.Process(target=_serve, args=(child_end,),
                                      daemon=True), end)
            _LIVE.add(child)
            children.append(child)
            try:
                child[0].start()
            finally:
                child_end.close()


def _stop(children: list) -> None:
    """Close the parent ends of children and stop them; under _LOCK."""
    for child in children:
        proc, end = child
        _LIVE.discard(child)
        end.close()
        if proc.pid is not None:
            proc.terminate()


def _drop_children(children=(), keep=False) -> None:
    """Stop and join every idle child, and children too, unless keep: then
    children are kept for later sweeps, and they alone."""
    with _LOCK:
        stopped = _KEPT + ([] if keep else list(children))
        _KEPT[:] = children if keep else ()
        _stop(stopped)
    for proc, _ in stopped:
        if proc.pid is not None:
            proc.join()


def _replies(w: int, proc, conn):
    """Child w's (part, result) pairs in its share's order.  Raises the
    child's error where it stopped, SamplingError where it died."""
    while True:
        try:
            pairs, exc = conn.recv()
        except (EOFError, ConnectionResetError) as eof:
            proc.join()
            raise SamplingError(
                f"sweep child {w} exited with code {proc.exitcode} "
                "before it sent its results") from eof
        yield from pairs
        if exc is not None:
            raise exc


def _map_batches(worker, cfg: SweepConfig, workers: int, new_share=None):
    """Yield (part, worker(job, share)) for each batch's job (cfg, start,
    stop), in batch order, as each result arrives.  Each worker scores into
    a share of its own, new_share() (None without new_share), and part is
    that share after the worker's last batch, else None.  On N > 1, batch i
    is the next result of child i mod N (see the module docstring)."""
    kernels.check_int("workers", workers, 1)
    # A range lists no batch before it is scored, whatever the count.
    starts = range(0, cfg.count, BATCH)
    workers = min(int(workers), len(starts))
    if workers <= 1:
        yield from _scored(worker, cfg, starts, new_share)
        return
    children, read = [], 0
    try:
        _take(children, workers)
        for w, (proc, conn) in enumerate(children):
            try:
                conn.send((worker, cfg, starts[w::workers], new_share, CHUNK))
            except (BrokenPipeError, ConnectionResetError):
                pass  # the child died: _replies reports it
        replies = [_replies(w, *child) for w, child in enumerate(children)]
        while read < len(starts):
            reply = next(replies[read % workers])
            read += 1
            yield reply
    finally:
        # A sweep that ends early stops its children too: nothing reads
        # their pipes now, and a child blocked on a full one would never
        # exit.
        _drop_children(children, keep=read == len(starts))


def _fold(cfg: SweepConfig, workers: int) -> tuple[Histogram, list]:
    """Run cfg's batches and reduce them in batch order: the merged histogram
    and, per score row, the totals of `_batch`'s statistics."""
    cfg.validate()
    hist = Histogram.empty(cfg.bins, *cfg.range)
    # Each worker builds its own empty share: a pool child gets the recipe,
    # not up to 2**24 zero counts.
    new_share = (functools.partial(Histogram.empty, cfg.bins, *cfg.range)
                 if cfg.t_list is None else None)
    totals = [(0.0, -np.inf, 0, 0)] * (1 if cfg.t_list is None
                                       else len(cfg.t_list))
    for part, rows in _map_batches(_batch, cfg, workers, new_share):
        if part is not None:
            hist = histogram_merge(hist, part)
        totals = [(s + s2, max(mx, mx2), a + a2, r + r2)
                  for (s, mx, a, r), (s2, mx2, a2, r2) in zip(totals, rows)]
    return hist, totals


def run_sweep(cfg: SweepConfig, workers: int = 1) -> tuple[Histogram, SweepSummary]:
    """Score cfg.count random machines; deterministic for any worker count."""
    if cfg.t_list is not None:
        raise ConfigError("a t_list needs run_delay_sweep")
    hist, [(sum_s, _, above2, above2r2)] = _fold(cfg, workers)
    n = int(cfg.count)
    summary = SweepSummary(
        count=n,
        observed_min=hist.observed_min, observed_max=hist.observed_max,
        mean_s=(sum_s / n) if n else None,
        fraction_above_2=(above2 / n) if n else None,
        fraction_above_2sqrt2=(above2r2 / n) if n else None)
    return hist, summary


def run_delay_sweep(cfg: SweepConfig, workers: int = 1) -> DelayStats:
    """Delay sweep over cfg.t_list; one intermediary per trial, reused across t.

    Raises RangeError at the first batch with a score that is not finite,
    as when a vector-sum delay's raw sums overflow at long t.
    """
    if cfg.t_list is None:
        raise ConfigError("delay sweep needs a t_list")
    _, totals = _fold(cfg, workers)
    n = int(cfg.count)
    return DelayStats(points=[
        DelayPoint(t=int(t), count=n, mean_s=(s / n) if n else None,
                   max_s=mx if n else None,
                   fraction_above_2=(a2 / n) if n else None)
        for t, (s, mx, a2, _) in zip(cfg.t_list, totals)])
