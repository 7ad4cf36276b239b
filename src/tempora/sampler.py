"""Reproducible Monte Carlo sweeps over random machines.

A sweep scores `count` independent trials; trial k draws four machines (and,
for delay sweeps, an intermediary) from counter sub-streams derived from
(master_seed, k), so results are a pure function of the configuration.  Work
is chunked into fixed-size batches whose partial results are reduced in
batch order, which makes every output, including float summaries,
bit-identical for any worker count.

On N > 1 workers a sweep forks min(N, batches) child processes of its own
and joins them all before it returns or raises; none outlives the call.
Child w scores the fixed round-robin share of batches w, w + N, w + 2N, ...
and sends its results back over a pipe; the parent puts them back in batch
order and runs the same reduce as one worker.  An exception raised in a
child is raised again in the caller.
"""
from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConfigError, RangeError, ShapeMismatch
from .kernels import KINDS, sample_machine  # noqa: F401  (re-exported API)

BATCH = 16384
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
        if not isinstance(self.count, (int, np.integer)) or self.count < 0:
            raise ConfigError(f"count must be a non-negative integer, got {self.count!r}")
        if not isinstance(self.master_seed, (int, np.integer)):
            raise ConfigError(f"master_seed must be an integer, got {self.master_seed!r}")
        if not isinstance(self.bins, (int, np.integer)) or self.bins < 1:
            raise ConfigError(f"bins must be a positive integer, got {self.bins!r}")
        try:
            lo, hi = (float(x) for x in self.range)
            ok = np.isfinite(lo) and np.isfinite(hi) and lo < hi
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ConfigError(f"range must be two numbers lo < hi, got {self.range!r}")
        if not isinstance(self.random_initial, (bool, np.bool_)):
            raise ConfigError(
                f"random_initial must be a bool, got {self.random_initial!r}")
        if self.t_list is not None:
            ts = tuple(self.t_list)
            if not ts or any(not isinstance(t, (int, np.integer)) or t < 0
                             for t in ts):
                raise ConfigError(
                    f"t_list must be non-empty, non-negative integers, got {self.t_list!r}")

    def as_dict(self) -> dict:
        out = {
            "kind": self.kind, "count": int(self.count),
            "seed": int(self.master_seed), "bins": int(self.bins),
            "range": [float(self.range[0]), float(self.range[1])],
            "mode": self.mode, "convention": self.convention,
            "random_initial": bool(self.random_initial),
            "measure": MEASURES[self.kind],
        }
        if self.t_list is not None:
            out["t_list"] = [int(t) for t in self.t_list]
            out["quantum_mode"] = self.quantum_mode
        return out


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (self.lo == other.lo and self.hi == other.hi
                and np.array_equal(self.counts, other.counts)
                and self.total == other.total
                and self.underflow == other.underflow
                and self.overflow == other.overflow
                and self.observed_min == other.observed_min
                and self.observed_max == other.observed_max)

    @classmethod
    def empty(cls, bins: int, lo: float, hi: float) -> "Histogram":
        return cls(lo=float(lo), hi=float(hi),
                   counts=np.zeros(bins, dtype=np.int64))

    @property
    def bins(self) -> int:
        return int(self.counts.shape[0])

    def add_scores(self, scores: np.ndarray) -> None:
        """Bin an array of scores; out-of-range values hit the counters."""
        scores = np.asarray(scores, dtype=np.float64)
        if scores.size == 0:
            return
        idx = np.floor((scores - self.lo)
                       * (self.bins / (self.hi - self.lo))).astype(np.int64)
        under = int(np.count_nonzero(idx < 0))
        over = int(np.count_nonzero(idx >= self.bins))
        good = idx[(idx >= 0) & (idx < self.bins)]
        self.counts += np.bincount(good, minlength=self.bins)
        self.total += int(scores.size)
        self.underflow += under
        self.overflow += over
        lo = float(scores.min())
        hi = float(scores.max())
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
        return {
            "count": int(self.count),
            "observed_min": self.observed_min,
            "observed_max": self.observed_max,
            "mean_s": self.mean_s,
            "fraction_above_2": self.fraction_above_2,
            "fraction_above_2sqrt2": self.fraction_above_2sqrt2,
        }


@dataclass
class DelayPoint:
    """Statistics of one delay value within a delay sweep."""

    t: int
    count: int
    mean_s: float | None
    max_s: float | None
    fraction_above_2: float | None

    def as_dict(self) -> dict:
        return {"t": int(self.t), "count": int(self.count),
                "mean_s": self.mean_s, "max_s": self.max_s,
                "fraction_above_2": self.fraction_above_2}


@dataclass
class DelayStats:
    """Per-t statistics of a delay sweep."""

    points: list[DelayPoint] = field(default_factory=list)

    def point(self, t: int) -> DelayPoint:
        for p in self.points:
            if p.t == t:
                return p
        raise KeyError(f"no statistics for t={t}")


def _batches(count: int) -> list[tuple[int, int]]:
    return [(start, min(start + BATCH, count)) for start in range(0, count, BATCH)]


def _batch(args: tuple[SweepConfig, int, int]) -> tuple[Histogram | None, list]:
    """One batch: the histogram of a zero-delay sweep (None for a delay
    sweep) and, per score row, its sum, max, counts above 2 and 2*sqrt(2),
    trials and non-finite trials."""
    cfg, start, stop = args
    trials = np.arange(start, stop, dtype=np.int64)
    hist = None
    if cfg.t_list is None:
        rows = kernels.batch_scores(cfg.kind, cfg.master_seed, trials, cfg.mode,
                                    cfg.convention, cfg.random_initial)[None]
        hist = Histogram.empty(cfg.bins, *cfg.range)
        hist.add_scores(rows[0])
    else:
        rows = kernels.batch_delay_scores(
            cfg.kind, cfg.master_seed, trials, tuple(cfg.t_list),
            cfg.quantum_mode, cfg.mode, cfg.convention, cfg.random_initial)
    return hist, [(float(row.sum()), float(row.max()),
                   int(np.count_nonzero(row > 2.0)),
                   int(np.count_nonzero(row > TWO_SQRT2)), int(row.size),
                   int(row.size - np.count_nonzero(np.isfinite(row))))
                  for row in rows]


def _run_share(conn, worker, jobs: list) -> None:
    """Sweep child: score a share of the jobs and send (ok, results-or-error)."""
    try:
        reply = (True, [worker(job) for job in jobs])
    except Exception as exc:  # re-raised by the parent
        reply = (False, exc)
    conn.send(reply)
    conn.close()


def _map_batches(worker, cfg: SweepConfig, workers: int) -> list:
    """worker(job) for each batch's job, in batch order; on more than one
    worker, child w scores jobs[w::workers] (see the module docstring)."""
    if not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {workers!r}")
    jobs = [(cfg, start, stop) for start, stop in _batches(cfg.count)]
    workers = min(int(workers), len(jobs))
    if workers <= 1:
        return [worker(job) for job in jobs]
    procs, replies = [], []
    try:
        for w in range(workers):
            recv, send = _CONTEXT.Pipe(duplex=False)
            proc = _CONTEXT.Process(target=_run_share,
                                    args=(send, worker, jobs[w::workers]))
            proc.start()
            procs.append((proc, recv))
            send.close()
        replies = [recv.recv() for _, recv in procs]
    finally:
        for proc, recv in procs:
            if len(replies) < len(procs):
                # Nothing reads the pipes now, and a child blocked on a
                # full one would never exit.
                proc.terminate()
            proc.join()
            recv.close()
    results = [None] * len(jobs)
    for w, (ok, value) in enumerate(replies):
        if not ok:
            raise value
        results[w::workers] = value
    return results


def _fold(cfg: SweepConfig, workers: int) -> tuple[Histogram, list]:
    """Run cfg's batches and reduce them in batch order: the merged histogram
    and, per score row, the totals of `_batch`'s statistics."""
    cfg.validate()
    ts = (0,) if cfg.t_list is None else tuple(cfg.t_list)
    hist = Histogram.empty(cfg.bins, *cfg.range)
    totals = [(0.0, -np.inf, 0, 0, 0, 0)] * len(ts)
    for part, rows in _map_batches(_batch, cfg, workers):
        if part is not None:
            hist = histogram_merge(hist, part)
        totals = [(s + s2, max(mx, mx2), a + a2, r + r2, n + n2, b + b2)
                  for (s, mx, a, r, n, b), (s2, mx2, a2, r2, n2, b2)
                  in zip(totals, rows)]
    bad = [f"t={int(t)}: {b} of {n} trials"
           for t, (*_, n, b) in zip(ts, totals) if b]
    if bad:
        raise RangeError("delay scores are not finite: " + "; ".join(bad))
    return hist, totals


def run_sweep(cfg: SweepConfig, workers: int = 1) -> tuple[Histogram, SweepSummary]:
    """Score cfg.count random machines; deterministic for any worker count."""
    if cfg.t_list is not None:
        raise ConfigError("a t_list needs run_delay_sweep")
    hist, [(sum_s, _, above2, above2r2, n, _)] = _fold(cfg, workers)
    summary = SweepSummary(
        count=n,
        observed_min=hist.observed_min, observed_max=hist.observed_max,
        mean_s=(sum_s / n) if n else None,
        fraction_above_2=(above2 / n) if n else None,
        fraction_above_2sqrt2=(above2r2 / n) if n else None)
    return hist, summary


def run_delay_sweep(cfg: SweepConfig, workers: int = 1) -> DelayStats:
    """Delay sweep over cfg.t_list; one intermediary per trial, reused across t.

    Raises RangeError when a score is not finite, as when a vector-sum
    delay's raw sums overflow at long t.
    """
    if cfg.t_list is None:
        raise ConfigError("delay sweep needs a t_list")
    _, totals = _fold(cfg, workers)
    return DelayStats(points=[
        DelayPoint(t=int(t), count=n, mean_s=(s / n) if n else None,
                   max_s=mx if n else None,
                   fraction_above_2=(a2 / n) if n else None)
        for t, (s, mx, a2, _, n, _) in zip(cfg.t_list, totals)])
