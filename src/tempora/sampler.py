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
and sends each result over a pipe as it is scored; the parent reads the
pipes round-robin, batch i being the next result of child i mod N, and
folds each as it arrives.  A child's exception is raised in the caller.
"""
from __future__ import annotations

import math
import multiprocessing
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kernels, rng
from .algebra import as_matrix2
from .errors import ConfigError, RangeError, ShapeMismatch
from .kernels import KINDS, sample_machine  # noqa: F401  (re-exported API)

BATCH = 16384
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
        """Checks in O(1), never over the counts: a histogram is built per
        batch."""
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
def _batch(args: tuple[SweepConfig, int, int]) -> tuple[Histogram | None, list]:
    """One batch: the histogram of a zero-delay sweep (None for a delay
    sweep) and, per score row, its sum, max, counts above 2 and 2*sqrt(2),
    trials and non-finite trials, which _fold reports in place of numpy."""
    cfg, start, stop = args
    trials = np.arange(start, stop, dtype=np.int64)
    hist = None
    if cfg.t_list is None:
        rows = kernels.batch_scores(cfg.kind, cfg.master_seed, trials, cfg.mode,
                                    cfg.convention, cfg.random_initial)[None]
    else:
        rows = kernels.batch_delay_scores(
            cfg.kind, cfg.master_seed, trials, tuple(cfg.t_list),
            cfg.quantum_mode, cfg.mode, cfg.convention, cfg.random_initial)
    stats = [(float(row.sum()), float(row.max()),
              int(np.count_nonzero(row > 2.0)),
              int(np.count_nonzero(row > TWO_SQRT2)), int(row.size),
              int(row.size - np.count_nonzero(np.isfinite(row))))
             for row in rows]
    if cfg.t_list is None:
        hist = Histogram.empty(cfg.bins, *cfg.range)
        if not stats[0][-1]:  # else _fold names the non-finite trials
            hist.add_scores(rows[0])
    return hist, stats


def _run_share(conn, worker, cfg: SweepConfig, starts: range) -> None:
    """Sweep child: score a share of the batches, sending (True, result)
    per batch as it is scored, or (False, error) on the first error."""
    try:
        for start in starts:
            conn.send((True, worker(_job(cfg, start))))
    except Exception as exc:  # re-raised by the parent
        conn.send((False, exc))
    conn.close()


def _map_batches(worker, cfg: SweepConfig, workers: int):
    """Yield worker(job) for each batch's job (cfg, start, stop), in batch
    order, as each result arrives; on more than one worker, batch i is the
    next result of child i mod workers (see the module docstring)."""
    kernels.check_int("workers", workers, 1)
    # A range lists no batch before it is scored, whatever the count.
    starts = range(0, cfg.count, BATCH)
    workers = min(int(workers), len(starts))
    if workers <= 1:
        yield from (worker(_job(cfg, start)) for start in starts)
        return
    procs, read = [], 0
    try:
        for w in range(workers):
            recv, send = _CONTEXT.Pipe(duplex=False)
            proc = _CONTEXT.Process(target=_run_share, args=(
                send, worker, cfg, starts[w::workers]))
            proc.start()
            procs.append((proc, recv))
            send.close()
        while read < len(starts):
            ok, value = procs[read % workers][1].recv()
            if not ok:
                raise value
            read += 1
            yield value
    finally:
        for proc, recv in procs:
            if read < len(starts):
                # Nothing reads the pipes now, and a child blocked on a
                # full one would never exit.
                proc.terminate()
            proc.join()
            recv.close()


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
