#!/usr/bin/env python3
"""tempora benchmark: one workload per run, checked against an oracle.

    python3 bench/run.py --workload sample --seed 1 --seconds 20 --trace 0

Run from the root of a source tree (it imports tempora from ./src).  Each
run makes its inputs from --seed, runs whole rounds of the workload's
operations in a closed loop for --seconds, checks every output against the
independent oracle in bench/oracle.py (or a property the method must have),
and prints one metric per line, then a JSON result as the last line.  With
--trace 0 that result holds the end-to-end metrics; with --trace 1 half the
time runs untraced and half traced, and it holds the per-layer metrics.
The exit code is 0 only when every check passes.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sample", "sample-pool", "delay", "score")
SETUP_PROBES = 7
REFERENCE_PASSES = 2  # serial sweeps a traced sample-pool run times as its base
SCORE_STEP = 48  # files of one kind timed together after one reference run


@dataclass
class Op:
    """One operation: a sweep, a delay sweep or one scored file."""

    kind: str
    units: int  # trials, (trial, t) points or files
    run: Callable[[], str]  # returns the output document


@dataclass
class Measured:
    raw: list = field(default_factory=list)  # per round: kind -> seconds
    scaled: list = field(default_factory=list)  # per round: kind -> scaled seconds
    ok: list = field(default_factory=list)  # per round, per op
    outputs: list = field(default_factory=list)  # first round's, per op


def measure(steps: list[list[Op]], ref: reference.Reference, seconds: float,
            expected: list | None = None) -> Measured:
    """Whole rounds of every op until `seconds` have passed.

    A step is a run of ops of one kind, timed together right after one run
    of the reference.  An op's output must equal `expected` (or the first
    round's) byte for byte.
    """
    m = Measured()
    start = time.perf_counter()
    while True:
        raw, scaled, ok = defaultdict(float), defaultdict(float), []
        for step in steps:
            ref_s = ref.seconds()
            t0 = time.perf_counter()
            for op in step:
                try:
                    out = op.run()
                except Exception:  # one failed op must not stop the run
                    traceback.print_exc()
                    out = None
                if not m.ok and expected is None:
                    m.outputs.append(out)
                want = (expected if expected is not None else m.outputs)[len(ok)]
                ok.append(out is not None and out == want)
            elapsed = time.perf_counter() - t0
            raw[step[0].kind] += elapsed
            scaled[step[0].kind] += elapsed * reference.NOMINAL_S / ref_s
        m.raw.append(raw)
        m.scaled.append(scaled)
        m.ok.append(ok)
        if time.perf_counter() - start >= seconds:
            return m


def rates(steps: list[list[Op]], per_round: list[dict]) -> dict[str, float]:
    """Median over rounds of each kind's units per second."""
    units = defaultdict(int)
    for op in (op for step in steps for op in step):
        units[op.kind] += op.units
    return {kind: statistics.median(units[kind] / r[kind] for r in per_round)
            for kind in inputs.KINDS}


def sweep_ops(cfgs, workers: int, tracer) -> list[Op]:
    def op(cfg):
        delay = cfg.t_list is not None
        name = ("sampler.run_delay_sweep" if delay else
                "sampler.pool_sweep" if workers > 1 else "sampler.run_sweep")

        def run():
            with tracer.span(name, cfg.kind, cfg.count):
                result = (run_delay_sweep(cfg, workers),) if delay \
                    else run_sweep(cfg, workers)
            with tracer.span("serialize.result_doc", cfg.kind):
                doc = delay_result_to_obj(cfg, *result) if delay \
                    else result_to_obj(cfg, *result)
                return json.dumps(doc, indent=2) + "\n"
        return Op(cfg.kind, cfg.count * (len(cfg.t_list) if delay else 1), run)
    return [op(cfg) for cfg in cfgs]


def score_op(job, tracer) -> Op:
    """What `tempora score` does with one machine file, in-process."""
    def run():
        with tracer.span("serialize.machine_file_from_obj", job.kind):
            mf = machine_file_from_obj(json.loads(job.text))
        state = mf.default_state()
        if job.t == 0:
            with tracer.span("chsh.chsh_score",
                             "classical" if mf.kind == "classical" else "quantum"):
                res = chsh_score(mf.alice, mf.bob, state, mode=job.ordering,
                                 convention=job.convention)
        else:
            with tracer.span("chsh.delayed_chsh_score",
                             "classical" if mf.kind == "classical" else job.quantum_mode):
                res = delayed_chsh_score(
                    mf.alice, mf.bob, state,
                    DelaySpec(mf.charlie, job.t, job.quantum_mode),
                    mode=job.ordering, convention=job.convention)
        with tracer.span("serialize.result_doc", job.kind):
            return json.dumps(res.as_dict(), indent=2) + "\n"
    return Op(job.kind, 1, run)


def run_checks(workload: str, items: list, outputs: list[str | None],
               workers: int) -> tuple[list[bool], list[str], dict]:
    """Per-op pass flags, problems, and counts the checks report."""
    passed, problems = [], []
    counts = {"subfloor": 0, "renormalised": 0}
    for item, text in zip(items, outputs):
        if text is None:
            passed.append(False)
            continue
        found = []
        if workload == "score":
            found, subfloor = checks.check_score(item, text)
            counts["renormalised"] += checks.renormalised_tables(text)
        else:
            out = checks.sweep_outputs(item, text)
            found = checks.check_rng(item, checks.rng_outputs(item, checks.subset(item.count)))
            if workload == "delay":
                more, subfloor = checks.check_delay(item, out)
                found += more
            else:
                subfloor = 0
                found += checks.check_sample(item, out)
            if workload == "sample-pool":
                serial = json.dumps(result_to_obj(item, *run_sweep(item, 1)), indent=2) + "\n"
                if serial != text:
                    found.append(f"{item.kind}: {workers} workers and 1 worker "
                                 "give different documents")
        counts["subfloor"] += subfloor
        passed.append(not found)
        problems += found
    return passed, problems, counts


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median scaled and unscaled time to import tempora and build the
    inputs, in fresh processes."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        elapsed, ref_s = (float(x) for x in res.stdout.split())
        scaled.append(elapsed * reference.PYTHON_NOMINAL_S / ref_s)
        raw.append(elapsed)
    return statistics.median(scaled), statistics.median(raw)


def peak_rss_mib(workers: int) -> float:
    """Own peak RSS plus `workers` times the largest pool child's peak.

    An upper bound: pages a child shares with its parent count in both.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def draws_per_round(workload: str, items: list) -> int:
    """Counters one round draws, from the configs: trials x slots x draws."""
    if workload == "score":
        return 0
    slots = 5 if workload == "delay" else 4
    return sum(c.count * slots * checks.DRAWS_PER_SLOT[c.kind] for c in items)


def layer_metrics(workload: str, items: list, tot, traced: Measured,
                  base: Measured, workers: int, counts: dict) -> dict:
    """Per-layer metrics of a traced run; see README for each definition."""
    words = 16 * BATCH  # one 16384-trial batch of an hqmm slot
    sweeps = [c for c in items if workload != "score"]
    batches = sum(len(checks.batches(c.count)) for c in sweeps)

    def reduce_ms() -> float:
        names = ("sampler.run_sweep", "sampler.run_delay_sweep")
        size = sum(tot.size[(n, "*")] for n in names)
        return 1e3 * sum(tot.self_time[(n, "*")] for n in names) * BATCH / size if size else 0.0

    def pool_overhead_ms() -> float:
        if workload != "sample-pool" or workers < 2:
            return 0.0
        extra = 0.0
        for c in sweeps:
            pool, serial = ("sampler.pool_sweep", c.kind), ("sampler.run_sweep", c.kind)
            extra += (tot.total[pool] / tot.calls[pool]
                      - tot.total[serial] / tot.calls[serial] / workers)
        return 1e3 * extra / batches

    def round_s(measured: Measured) -> float:
        """Median scaled time of a round's steps, so host drift cancels."""
        return statistics.median(sum(r.values()) for r in measured.scaled)

    m = {
        "rng.raw64.ms": (tot.per("rng.raw64", unit=words), "ms/batch"),
        "rng.uniform01.ms": (tot.per("rng.uniform01", unit=words), "ms/batch"),
        "rng.box_muller.ms": (tot.per("rng.normals", unit=words), "ms/batch"),
        "rng.draws": (draws_per_round(workload, items), "count"),
        "rng.bytes": (8 * draws_per_round(workload, items), "bytes"),
    }
    for kind in inputs.KINDS:
        m[f"kernels.machines.ms.{kind}"] = (
            tot.per("kernels.machines_batch", kind, BATCH, self_only=False), "ms/batch")
    m["kernels.gram_schmidt_pack.ms"] = (
        tot.per("kernels.machines_batch", "hqmm", BATCH), "ms/batch")
    for kind in inputs.KINDS:
        m[f"kernels.correlators.ms.{kind}"] = (
            tot.per("kernels.batch_scores", kind, BATCH), "ms/batch")
    for mode in ("classical", "vector-sum", "channel"):
        m[f"kernels.delay.ms.{mode}"] = (
            tot.per("kernels.batch_delay_scores", mode, BATCH), "ms/batch")
    m.update({
        "sampler.add_scores.ms": (tot.per("sampler.add_scores", unit=BATCH), "ms/batch"),
        "sampler.reduce.ms": (reduce_ms(), "ms/batch"),
        "sampler.pool_overhead.ms": (pool_overhead_ms(), "ms/batch"),
        "sampler.batches": (batches, "count"),
        "chsh.chsh_score.us.classical": (tot.per_call_us("chsh.chsh_score", "classical"), "us/call"),
        "chsh.chsh_score.us.quantum": (tot.per_call_us("chsh.chsh_score", "quantum"), "us/call"),
    })
    for mode in ("classical", "vector-sum", "channel"):
        m[f"chsh.delayed_chsh_score.us.{mode}"] = (
            tot.per_call_us("chsh.delayed_chsh_score", mode), "us/call")
    m.update({
        "chsh.renormalised_tables": (counts["renormalised"], "count"),
        "serialize.machine_file_from_obj.us": (
            tot.per_call_us("serialize.machine_file_from_obj"), "us/call"),
        "serialize.result_doc.us": (tot.per_call_us("serialize.result_doc"), "us/call"),
        "check.subfloor_tables": (counts["subfloor"], "count"),
        "trace.overhead.ms": (1e3 * (round_s(traced) - round_s(base)), "ms/round"),
    })
    return m


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workers = len(os.sched_getaffinity(0)) if args.workload == "sample-pool" else 1
    import numpy
    print(f"env: python {platform.python_version()}, numpy {numpy.__version__}, "
          f"cpu {cpu_model()!r}, os.cpu_count() {os.cpu_count()}, "
          f"workers {workers}, seed {args.seed}, workload {args.workload}, "
          f"trace {args.trace}", flush=True)

    problems = oracle.self_check(json.loads(
        (ROOT / "src" / "tempora" / "fixtures" / "classical_smax3.json").read_text()))
    items = inputs.build(args.workload, args.seed)
    tracer = spans.Tracer()
    if args.workload == "score":
        ops = [score_op(job, tracer) for job in items]
        steps = [ops[i:i + SCORE_STEP] for i in range(0, len(ops), SCORE_STEP)]
    else:
        ops = sweep_ops(items, workers, tracer)
        steps = [[op] for op in ops]
    ref = reference.Reference()
    # A channel-mode file: no raw sums, so every correlator is compared.
    job = next(j for j in inputs.score_jobs(args.seed)
               if j.kind == "hqmm" and j.quantum_mode == "channel" and j.t > 0)
    problems += checks.self_test(args.seed, job, score_op(job, tracer).run())

    if args.trace:
        base = measure(steps, ref, args.seconds / 2)
        tracer.enabled = True
        with tracer.patched():
            m = measure(steps, ref, args.seconds / 2, expected=base.outputs)
            if workers > 1:
                serial = sweep_ops(items, 1, tracer)
                for _ in range(REFERENCE_PASSES):
                    for op in serial:
                        op.run()
        tracer.enabled = False
        m.outputs = base.outputs
        rounds = base.ok + m.ok
    else:
        m = measure(steps, ref, args.seconds)
        rss = peak_rss_mib(workers)
        rounds = m.ok

    passed, found, counts = run_checks(args.workload, items, m.outputs, workers)
    problems += found
    failed = sum(not (ok and p) for row in rounds for ok, p in zip(row, passed))
    attempted = len(ops) * len(rounds)

    if args.trace:
        tot = tracer.totals()
        draws = draws_per_round(args.workload, items)
        passes = len(m.ok) if workers == 1 else REFERENCE_PASSES
        if tot.size[("rng.raw64", "*")] != draws * passes:
            problems.append(f"trace saw {tot.size[('rng.raw64', '*')]} raw64 "
                            f"counters, the configs give {draws} x {passes}")
        metrics = layer_metrics(args.workload, items, tot, m, base, workers, counts)
        out_dir = ROOT / ".bench_build"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        setup_s, unscaled_setup_s = setup_seconds(args.workload, args.seed)
        print(f"unscaled setup_s = {unscaled_setup_s:.6g} s")
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mib": (rss, "MiB")}
        for kind, rate in rates(steps, m.scaled).items():
            metrics[f"ops_per_s.{kind}"] = (rate, "ops/s")
        for kind, rate in rates(steps, m.raw).items():
            print(f"unscaled ops_per_s.{kind} = {rate:.6g} ops/s")

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations "
          f"attempted, {failed} failed")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    if not (ROOT / "src" / "tempora").is_dir():
        print(f"error: no tempora sources under {ROOT / 'src'}; run from a "
              "full source tree", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import checks
    import inputs
    import oracle
    import reference
    import spans
    from tempora.chsh import DelaySpec, chsh_score, delayed_chsh_score
    from tempora.sampler import BATCH, run_delay_sweep, run_sweep
    from tempora.serialize import (delay_result_to_obj, machine_file_from_obj,
                                   result_to_obj)
    sys.exit(main())
