"""Fail-stop recovery CLI.

Usage::

    python -m repro.recover                               # cpufree, crash_recover
    python -m repro.recover --variant baseline_p2p --profile crash_recover@7
    python -m repro.recover --checkpoint-every 3 --report-out recovery.json

Runs one stencil variant under a crash profile with checkpoint/restart
recovery, runs the fault-free reference, and verifies the recovered
final field is **byte-identical** to the reference (only simulated time
may differ).  Exits 1 when recovery fails the identity check (or no
crash fired so recovery was never exercised), 2 on bad invocation.

``--report-out`` writes a byte-stable JSON recovery report (checkpoint
epochs, crash/detection times, restarts, time accounting) — the CI
``chaos-recovery`` gate uploads these as artifacts.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.cliutil import CliError, cli_entry, output_path, parse_shape, stencil_config
from repro.faults.profiles import get_plan
from repro.obs.stablejson import dumps_stable
from repro.recover.runner import UnrecoverableCrashError, run_with_recovery


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.recover",
        description="Crash a PE mid-run, recover from checkpoints, and "
                    "verify byte-identity against the fault-free reference.",
    )
    parser.add_argument("--variant", default="cpufree",
                        help="stencil variant to run (default: cpufree)")
    parser.add_argument("--profile", default="crash_recover",
                        help="fault profile spec, optionally seeded "
                             "(default: crash_recover)")
    parser.add_argument("--gpus", type=int, default=2,
                        help="number of GPUs/PEs (default: 2)")
    parser.add_argument("--shape", type=parse_shape, default=(34, 66),
                        help="global domain shape (default: 34x66)")
    parser.add_argument("--iterations", type=int, default=6,
                        help="stencil iterations (default: 6)")
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="N",
                        help="checkpoint cadence in iterations "
                             "(default: the profile's cadence)")
    parser.add_argument("--report-out", type=output_path, metavar="PATH",
                        help="write the JSON recovery report to PATH")
    args = parser.parse_args(argv)

    import repro.stencil.variants  # noqa: F401 - populate the registry
    from repro.stencil.base import VARIANTS, variant_names
    from repro.stencil.reference import jacobi_reference
    from repro.stencil.base import default_initial

    if args.variant not in VARIANTS:
        raise CliError(
            f"unknown variant {args.variant!r}; choose from {variant_names()}")
    plan = get_plan(args.profile)  # raises CliError on unknown profiles
    if args.checkpoint_every is not None and args.checkpoint_every <= 0:
        raise CliError("--checkpoint-every must be positive")

    config = stencil_config(args.shape, args.gpus, args.iterations,
                            fault_profile=args.profile)
    try:
        outcome = run_with_recovery(
            VARIANTS[args.variant], config,
            checkpoint_every=args.checkpoint_every, plan=plan)
    except UnrecoverableCrashError as exc:
        print(f"unrecoverable: {exc}", file=sys.stderr)
        return 1

    reference = jacobi_reference(
        default_initial(config.global_shape, config.seed), config.iterations)
    identical = bool(np.array_equal(outcome.result, reference))

    report = outcome.report()
    report["byte_identical"] = identical
    report["profile"] = args.profile
    report["shape"] = list(args.shape)
    report["num_gpus"] = args.gpus

    print(f"recovery: {args.variant} under {args.profile} "
          f"({'x'.join(map(str, args.shape))}, {args.gpus} GPU(s), "
          f"{args.iterations} iteration(s))")
    print(f"  checkpoints: {len(outcome.store)} every "
          f"{outcome.checkpoint_every} iteration(s), "
          f"{outcome.store.total_bytes()} bytes")
    for pe, t in sorted(outcome.crashed_pes.items()):
        print(f"  crash: pe{pe} at t={t:.3f}us")
    print(f"  restarts: {outcome.restarts}, detection latency "
          f"{outcome.detect_latency_us:.3f}us, lost {outcome.lost_time_us:.3f}us")
    print(f"  total simulated time: {outcome.total_time_us:.3f}us")
    print(f"  final field vs fault-free reference: "
          f"{'byte-identical' if identical else 'MISMATCH'}")

    if args.report_out:
        with open(args.report_out, "w") as fh:
            fh.write(dumps_stable(report))
        print(f"(report written to {args.report_out})", file=sys.stderr)

    if not identical:
        return 1
    if plan.crashes and not outcome.recovered:
        print("recovery was never exercised: the seeded crash missed the run",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(cli_entry(main))
