"""Command-line runner: prepare-chi | dlog | verify | resources.

Every emitted record is one JSON object per line with a fixed key order, and
always carries n, g, m, the seed, and the tool version, so identical
configurations with identical seeds produce byte-identical output. Exit
codes: 0 success, 1 invariant failure, 2 invalid group or flag value
(including an --output path that cannot be written), 3 resource cap hit,
4 artifact mismatch (including a chi file that is unreadable or names an
invalid group).
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .chi import load_chi, prepare_chi, save_chi
from .dlog import resource_report, result_record, run_dlog_repeated
from .errors import (
    ArtifactMismatch,
    CapExceeded,
    ChiDlogError,
    NotAGenerator,
    NotCoprime,
    NotInGroup,
)
from .group import GroupSpec, _check_cap, validate_group
from .qstate import DIM_CAP
from .verify import check_chi_file, run_all_suites

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_BAD_GROUP = 2
EXIT_CAP = 3
EXIT_MISMATCH = 4


def _add_group_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True, help="modulus of the unit group")
    sub.add_argument("--g", type=int, required=True, help="generator")
    sub.add_argument("--allow-subgroup", action="store_true",
                     help="accept g generating a proper cyclic subgroup")
    sub.add_argument("--dim-cap", type=int, default=DIM_CAP,
                     help=f"lower the amplitude-count cap (at most {DIM_CAP})")


def _add_run_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="base RNG seed")
    sub.add_argument("--output", type=Path, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chi-dlog",
        description="Simulate discrete-log runs over reusable character states.")
    parser.add_argument("--version", action="version", version=f"chi-dlog {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    prep = sub.add_parser("prepare-chi", help="prepare and optionally save a chi register")
    _add_group_args(prep)
    _add_run_args(prep)
    prep.add_argument("--mode", choices=("sampled", "exhaustive"), default="sampled")
    prep.add_argument("--max-attempts", type=int, default=10_000)
    prep.set_defaults(func=_cmd_prepare_chi)

    dlog = sub.add_parser("dlog", help="run the discrete-log procedure")
    _add_group_args(dlog)
    _add_run_args(dlog)
    which = dlog.add_mutually_exclusive_group(required=True)
    which.add_argument("--x", type=int, help="one group element")
    which.add_argument("--sweep-all-x", action="store_true",
                       help="every element, ascending label order")
    which.add_argument("--x-count", type=int,
                       help="this many elements drawn with a seeded generator")
    source = dlog.add_mutually_exclusive_group(required=True)
    source.add_argument("--prepare", action="store_true",
                        help="prepare a fresh chi register first")
    source.add_argument("--chi", type=Path, help="load the chi register from a file")
    dlog.add_argument("--mode", choices=("sampled", "exhaustive"), default="exhaustive")
    dlog.add_argument("--trials", type=int, default=1,
                      help="independent repeats; trial t uses seed+t")
    dlog.set_defaults(func=_cmd_dlog)

    ver = sub.add_parser("verify", help="run the invariant suites")
    ver.add_argument("--max-m", type=int, default=24)
    ver.add_argument("--chi", type=Path, default=None,
                     help="also check a serialized chi register")
    ver.set_defaults(func=_cmd_verify)

    rsc = sub.add_parser("resources", help="per-run operation counts vs the cited baseline")
    rsc.add_argument("--n", type=int, default=13)
    rsc.add_argument("--g", type=int, default=2)
    rsc.add_argument("--allow-subgroup", action="store_true")
    rsc.add_argument("--dim-cap", type=int, default=DIM_CAP)
    rsc.set_defaults(func=_cmd_resources)
    return parser


def _group(args) -> GroupSpec:
    """Refuse bad --seed, --output and --dim-cap values, then validate --n/--g.

    A negative --seed and a missing --output directory are refused before any
    work; _writing catches what only the final write can show. The group's
    m**2 amplitudes are held to --dim-cap after validate_group, whose walk
    stops at isqrt(DIM_CAP).
    """
    if getattr(args, "seed", 0) < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    output = getattr(args, "output", None)
    if output is not None and not output.parent.is_dir():
        raise ValueError(f"cannot write {output}: {output.parent} is not a directory")
    if not 1 <= args.dim_cap <= DIM_CAP:
        raise ValueError(f"--dim-cap must be at least 1 and at most {DIM_CAP}, "
                         f"got {args.dim_cap}")
    spec = validate_group(args.n, args.g, require_full_group=not args.allow_subgroup)
    _check_cap(spec.generator, spec.modulus, spec.order, args.dim_cap)
    return spec


@contextmanager
def _writing(path: Path):
    """An --output path that cannot be written is a bad flag value (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


def _emit(lines: list[str], output: Path | None) -> None:
    """Write the records to --output, then print them: a failed write prints none."""
    if output is not None:
        with _writing(output):
            output.write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)


def _cmd_prepare_chi(args) -> int:
    spec = _group(args)
    handle, stats = prepare_chi(spec, seed=args.seed, mode=args.mode,
                                max_attempts=args.max_attempts)
    if args.output is not None:
        with _writing(args.output):
            save_chi(handle, args.output)
    record = {
        "n": spec.modulus,
        "g": spec.generator,
        "m": spec.order,
        "seed": args.seed,
        "version": __version__,
        "command": "prepare-chi",
        "mode": args.mode,
        "attempts": stats.attempts,
        "observed_s": stats.observed_s,
        "success_s": stats.success_s,
        "acceptance_probability": stats.acceptance_probability,
        "fidelity": handle.verify(),
    }
    print(json.dumps(record))
    return EXIT_OK


def _load_checked_chi(args, spec):
    loaded_spec, handle = load_chi(args.chi)
    if loaded_spec != spec:
        raise ArtifactMismatch(
            f"chi file is for n={loaded_spec.modulus}, g={loaded_spec.generator}, "
            f"m={loaded_spec.order}; requested n={spec.modulus}, g={spec.generator}, "
            f"m={spec.order}")
    # m = 1 stores power 1 as its residue 0
    if (handle.power - 1) % spec.order != 0:
        raise ArtifactMismatch(f"chi file {args.chi} holds power {handle.power}; "
                               f"dlog needs power 1")
    fid = handle.verify()
    if not handle.verified:
        raise ArtifactMismatch(f"chi file fails verification: fidelity {fid}, "
                               f"norm {handle.state.norm()}")
    return handle


def _cmd_dlog(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    spec = _group(args)
    if args.x is not None:
        # refused before the preparation or the chi file's load and verify
        spec.index_of(args.x % args.n)
    lines: list[str] = []
    for trial in range(args.trials):
        trial_seed = args.seed + trial
        if args.x is not None:
            xs = [args.x % args.n]
        elif args.sweep_all_x:
            xs = list(spec.elements)
        else:
            if args.x_count < 1:
                raise ValueError("--x-count must be at least 1")
            picker = np.random.default_rng([trial_seed, 17])
            xs = [int(v) for v in picker.choice(spec.elements, size=args.x_count)]
        if args.prepare:
            handle, _ = prepare_chi(spec, seed=trial_seed, mode=args.mode)
        else:
            handle = _load_checked_chi(args, spec)
        results = run_dlog_repeated(spec, handle, xs, mode=args.mode, seed=trial_seed)
        for result in results:
            record = result_record(spec, result, trial_seed)
            record["version"] = __version__
            lines.append(json.dumps(record))
    _emit(lines, args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    suites = run_all_suites(args.max_m)
    if args.chi is not None:
        suites.append(check_chi_file(args.chi))
    width = max(len(s.name) for s in suites)
    failed = 0
    total = 0
    for suite in suites:
        total += suite.checks
        failed += len(suite.failures)
        print(f"{suite.name:<{width}} : {suite.checks} checks, {len(suite.failures)} failures")
        for message in suite.failures:
            print(f"  FAIL {suite.name}: {message}")
    if failed:
        print(f"verify: {failed} of {total} checks failed")
        return EXIT_INVARIANT
    print(f"verify: all {total} checks passed (max-m {args.max_m})")
    return EXIT_OK


def _cmd_resources(args) -> int:
    spec = _group(args)
    print(f"resource counts per run (n={spec.modulus}, g={spec.generator}, m={spec.order})")
    print(f"{'resource':<20} {'this_run':>9} {'exact_shor_baseline':>20}")
    for name, ours, baseline in resource_report(spec):
        shown = "-" if baseline is None else str(baseline)
        print(f"{name:<20} {ours:>9} {shown:>20}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ArtifactMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (NotCoprime, NotAGenerator, NotInGroup, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_GROUP
    except ChiDlogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
