"""Command-line interface: sweeps, delay sweeps, scoring, and anchors.

Exit codes: 0 success, 1 validation/parse failure, 2 usage error.
--threads sets the number of worker processes a sweep runs in (see
tempora.sampler): the sweep forks them, and they are stopped when the
command exits.  It is called threads, but each worker is a process.  Its
default falls back to the TEMPORA_THREADS environment variable, then to 1.
"""
from __future__ import annotations

import argparse
import importlib.resources
import json
import os
import sys

import numpy as np

from .chsh import (DelaySpec, chsh_score, delayed_chsh_score,
                   spatial_reference_score)
from .errors import ConfigError, RangeError, TemporaError, ValidationError
from .kernels import (KINDS, ORDERING_MODES, QUANTUM_DELAY_MODES,
                      SCORE_CONVENTIONS, check_int)
from .sampler import TWO_SQRT2, SweepConfig, run_delay_sweep, run_sweep
from .serialize import (delay_csv, delay_result_to_obj, histogram_csv,
                        load_machine_file, machine_file_from_obj,
                        result_to_obj)


def _list_arg(kind, count: int | None = None):
    """Parser of a comma list of kind (float or int), of count entries."""
    def parse(text: str) -> tuple:
        parts = text.split(",")
        if count is not None and len(parts) != count:
            raise argparse.ArgumentTypeError(
                f"expected {count} comma-separated numbers, got {text!r}")
        try:
            return tuple(kind(p) for p in parts)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__}s, got {text!r}")
    return parse


def _add_scoring_flags(p: argparse.ArgumentParser, delays: bool) -> None:
    """The options of sample, delay and score; --quantum-mode if delays."""
    p.add_argument("--mode", choices=ORDERING_MODES, default="symmetrized")
    p.add_argument("--convention", choices=SCORE_CONVENTIONS, default="canonical")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    if delays:
        p.add_argument("--quantum-mode", choices=QUANTUM_DELAY_MODES,
                       default="vector-sum")


def _add_sweep_flags(p: argparse.ArgumentParser, delays: bool) -> None:
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--count", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bins", type=int, default=400)
    p.add_argument("--range", type=_list_arg(float, 2), default=(0.0, 4.0),
                   metavar="LO,HI")
    _add_scoring_flags(p, delays)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--threads", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempora",
        description="Temporal CHSH scores of one-bit and one-qubit machines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="score random machines into a histogram")
    _add_sweep_flags(p, False)
    p.set_defaults(func=_cmd_sweep, t_list=None, quantum_mode="vector-sum")

    p = sub.add_parser("delay", help="sweep scores against intermediary delay")
    _add_sweep_flags(p, True)
    p.add_argument("--t-list", type=_list_arg(int), required=True, metavar="T0,T1,...")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("score", help="score a machine file")
    p.add_argument("--machines", required=True, help="machine file path")
    _add_scoring_flags(p, True)
    p.add_argument("--t", type=int, default=0, help="intermediary steps")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("verify", help="check the built-in anchor values")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("spatial", help="closed-form spatially separated score")
    p.add_argument("--angles", type=_list_arg(float, 4), required=True,
                   metavar="A1,A2,B1,B2")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_spatial)
    return parser


def _threads(args) -> int:
    if args.threads is not None:
        value = args.threads
    else:
        raw = os.environ.get("TEMPORA_THREADS", "1")
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"TEMPORA_THREADS must be an integer, got {raw!r}")
    check_int("thread count", value, 1)
    return value


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json(obj) -> str:
    """Indented JSON of a result; NaN and infinity have no JSON form."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise RangeError(f"the result is not finite: {exc}") from exc


def _cmd_sweep(args) -> int:
    cfg = SweepConfig(kind=args.kind, count=args.count, master_seed=args.seed,
                      bins=args.bins, range=tuple(args.range), mode=args.mode,
                      convention=args.convention, t_list=args.t_list,
                      quantum_mode=args.quantum_mode)
    workers, csv = _threads(args), args.format == "csv"
    if cfg.t_list is None:
        hist, summary = run_sweep(cfg, workers)
        text = histogram_csv(hist) if csv else _json(
            result_to_obj(cfg, hist, summary))
    else:
        stats = run_delay_sweep(cfg, workers)
        text = delay_csv(stats) if csv else _json(delay_result_to_obj(cfg, stats))
    _emit(text, args.out)
    return 0


@np.errstate(over="ignore", invalid="ignore")  # _json reports non-finite
def _cmd_score(args) -> int:
    check_int("--t", args.t, 0)
    mf = load_machine_file(args.machines)
    state = mf.default_state()
    if args.t > 0:
        if mf.charlie is None:
            raise ValidationError(
                f"{args.machines}: --t {args.t} needs a charlie machine in the file")
        result = delayed_chsh_score(
            mf.alice, mf.bob, state,
            DelaySpec(mf.charlie, args.t, args.quantum_mode),
            mode=args.mode, convention=args.convention)
    else:
        result = chsh_score(mf.alice, mf.bob, state,
                            mode=args.mode, convention=args.convention)
    _emit(_json(result.as_dict()), args.out)
    return 0


def _fixture_score(name: str):
    """The symmetrized max-relabel score of a built-in machine file."""
    text = (importlib.resources.files(__package__) / "fixtures" / name).read_text()
    mf = machine_file_from_obj(json.loads(text))
    return chsh_score(mf.alice, mf.bob, mf.default_state(),
                      mode="symmetrized", convention="max-relabel")


def _cmd_verify(args) -> int:
    failures = 0
    for name, ok, detail in _anchor_checks():
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def _anchor_checks() -> list[tuple[str, bool, str]]:
    res = _fixture_score("classical_smax3.json")
    checks = [(
        "classical anchor: s_max=3, s_canonical=1",
        abs(res.s_max - 3.0) <= 1e-12 and abs(res.s_canonical - 1.0) <= 1e-12,
        f"s_max={res.s_max!r}, s_canonical={res.s_canonical!r}")]
    for name, res in (
            ("projective", _fixture_score("projective_2sqrt2.json")),
            ("spatial", spatial_reference_score(0.0, np.pi / 2, -np.pi / 4,
                                                np.pi / 4))):
        checks.append((f"{name} anchor: s_max=2*sqrt(2)",
                       abs(res.s_max - TWO_SQRT2) <= 1e-9,
                       f"s_max={res.s_max!r}"))
    return checks


def _cmd_spatial(args) -> int:
    result = spatial_reference_score(*args.angles)
    _emit(_json(result.as_dict()), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TemporaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
