"""Communication-sanitizer CLI.

Usage::

    python -m repro.sanitize                     # CI gate: sweep + lint
    python -m repro.sanitize sweep               # all variants vs expectations
    python -m repro.sanitize run --variant cpufree --gpus 4
    python -m repro.sanitize run --variant racy_unsignaled   # seeded bug
    python -m repro.sanitize lint                # static lint, SDFG samples
    python -m repro.sanitize lint --demo-bad     # + seeded-bad SDFGs

``run`` executes one stencil variant (shipped or seeded) with the
happens-before detector attached and exits 1 when any unsuppressed
race is found.  ``sweep`` runs every shipped variant (which must be
clean) plus every seeded-bug variant (which must be flagged) and exits
1 when either expectation fails — so it is meaningful as a CI gate in
both directions: it catches new races *and* a detector that has gone
blind.  ``lint`` runs the static communication lint over the shipped
SDFG pipelines (jacobi 1d/2d/3d x baseline/cpufree).

``--report-out`` writes a byte-stable JSON report (identical bytes on
identical configurations — CI compares reruns with ``cmp``);
``--trace-out`` (run only) writes a Chrome trace with race findings as
instant events.  ``--suppress PATTERN`` marks findings whose stable id
matches the fnmatch pattern: they stay in the report but do not affect
the exit status.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any

from repro.cliutil import (CliError, cli_entry, output_path, parse_shape,
                           run_configuration, stencil_config)
from repro.sanitize.detect import detect_races
from repro.sanitize.recorder import attach_sanitizer
from repro.sanitize.report import apply_suppressions, dumps_report, render_findings
from repro.sanitize.seeded import SEEDED_VARIANTS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stencil.base import StencilConfig


def _add_run_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--gpus", type=int, default=2,
                     help="number of GPUs/PEs (default: 2)")
    sub.add_argument("--shape", type=parse_shape, default=(34, 66),
                     help="global domain shape (default: 34x66)")
    sub.add_argument("--iterations", type=int, default=4,
                     help="stencil iterations (default: 4)")
    sub.add_argument("--fault-profile", metavar="NAME", default=None,
                     help="run under this fault profile (e.g. transient)")
    sub.add_argument("--suppress", action="append", default=[], metavar="PATTERN",
                     help="fnmatch pattern over finding ids to suppress "
                          "(repeatable)")
    sub.add_argument("--report-out", type=output_path, metavar="PATH",
                     help="write the byte-stable JSON report to PATH")


def _sanitized_run(name: str, config: "StencilConfig"):
    """Run one variant with the detector attached; returns
    (result, sanitizer, findings)."""
    from repro.stencil.base import VARIANTS

    cls = VARIANTS.get(name) or SEEDED_VARIANTS.get(name)
    if cls is None:
        raise CliError(
            f"unknown variant {name!r}; choose from "
            f"{sorted(VARIANTS) + sorted(SEEDED_VARIANTS)}"
        )
    with run_configuration():
        variant = cls(config)
    sanitizer = attach_sanitizer(variant.ctx)
    result = variant.run()
    return result, sanitizer, detect_races(sanitizer)


def _stencil_config(args: argparse.Namespace) -> "StencilConfig":
    return stencil_config(args.shape, args.gpus, args.iterations,
                          fault_profile=args.fault_profile)


def _config_block(args: argparse.Namespace) -> dict[str, Any]:
    return {
        "shape": list(args.shape),
        "gpus": args.gpus,
        "iterations": args.iterations,
        "fault_profile": args.fault_profile,
        "suppressions": list(args.suppress),
    }


def _write_report(args: argparse.Namespace, report: dict[str, Any]) -> None:
    if args.report_out:
        with open(args.report_out, "w") as fh:
            fh.write(dumps_report(report))
        print(f"(report written to {args.report_out})", file=sys.stderr)


def _run_command(args: argparse.Namespace) -> int:
    result, sanitizer, findings = _sanitized_run(args.variant, _stencil_config(args))
    described, n_active = apply_suppressions(
        [f.describe() for f in findings], args.suppress
    )
    print(f"{args.variant}: {len(sanitizer.accesses)} access(es) recorded, "
          f"{len(findings)} race finding(s), {n_active} active")
    print(render_findings(findings))
    if args.trace_out:
        for finding in findings:
            result.tracer.add_instant(
                finding.finding_id, finding.second.time_us,
                category="race", args=finding.describe(),
            )
        with open(args.trace_out, "w") as fh:
            json.dump(result.tracer.to_chrome_trace(), fh, indent=1)
            fh.write("\n")
        print(f"(chrome trace written to {args.trace_out})", file=sys.stderr)
    _write_report(args, {
        "tool": "repro.sanitize",
        "mode": "run",
        "variant": args.variant,
        "config": _config_block(args),
        "accesses": len(sanitizer.accesses),
        "findings": described,
        "n_active": n_active,
        "ok": n_active == 0,
    })
    return 0 if n_active == 0 else 1


def _sweep_command(args: argparse.Namespace) -> int:
    from repro.stencil.base import VARIANTS

    config = _stencil_config(args)  # bad input fails before any run
    variants: dict[str, Any] = {}
    ok = True
    for name in sorted(VARIANTS) + sorted(SEEDED_VARIANTS):
        expect_clean = name not in SEEDED_VARIANTS
        _result, sanitizer, findings = _sanitized_run(name, config)
        described, n_active = apply_suppressions(
            [f.describe() for f in findings], args.suppress
        )
        this_ok = (n_active == 0) if expect_clean else (n_active > 0)
        ok = ok and this_ok
        variants[name] = {
            "expected": "clean" if expect_clean else "racy",
            "accesses": len(sanitizer.accesses),
            "findings": described,
            "n_active": n_active,
            "ok": this_ok,
        }
        verdict = "ok" if this_ok else "FAIL"
        print(f"{name}: expected {'clean' if expect_clean else 'racy'}, "
              f"{n_active} active finding(s) [{verdict}]")
        if findings and not this_ok:
            print(render_findings(findings))
    _write_report(args, {
        "tool": "repro.sanitize",
        "mode": "sweep",
        "config": _config_block(args),
        "variants": variants,
        "ok": ok,
    })
    print(f"sweep: {'all expectations hold' if ok else 'EXPECTATION VIOLATED'}")
    return 0 if ok else 1


def _lint_samples(demo_bad: bool):
    """(name, sdfg, expect_clean) triples: the shipped pipelines, plus
    deliberately broken derivatives under ``--demo-bad``."""
    from repro.sdfg.graph import State
    from repro.sdfg.libnodes.nvshmem import PutmemSignal, SignalWait
    from repro.sdfg.programs import (
        CONJUGATES_1D,
        CONJUGATES_2D,
        baseline_pipeline,
        build_jacobi_1d_sdfg,
        build_jacobi_2d_sdfg,
        build_jacobi_3d_sdfg,
        cpufree_pipeline,
    )

    programs = (
        ("jacobi_1d", build_jacobi_1d_sdfg, CONJUGATES_1D),
        ("jacobi_2d", build_jacobi_2d_sdfg, CONJUGATES_2D),
        ("jacobi_3d", build_jacobi_3d_sdfg, CONJUGATES_1D),
    )
    samples = []
    for prog, build, conj in programs:
        samples.append((f"{prog}/baseline", baseline_pipeline(build()), True))
        samples.append((f"{prog}/cpufree", cpufree_pipeline(build(), conj), True))
    if not demo_bad:
        return samples

    def puts(sdfg):
        return [n for s in sdfg.walk_states() for n in s.library_nodes
                if isinstance(n, PutmemSignal)]

    # drop the signal from one put: its destination read next iteration
    # is now unordered, and its paired wait loses its producer
    bad = cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D)
    puts(bad)[0].flag_index = None
    samples.append(("demo/unsignaled-put", bad, False))

    # wait compares against a constant the producer never signals
    bad = cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D)
    for state in bad.walk_states():
        for node in state.library_nodes:
            if isinstance(node, SignalWait):
                node.value = 0
                break
        else:
            continue
        break
    samples.append(("demo/mismatched-pair", bad, False))

    # remove every wait: source buffers are rewritten with no
    # synchronization point after the non-blocking puts
    bad = cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D)
    for region in bad.walk_regions():
        region.elements = [
            el for el in region.elements
            if not (isinstance(el, State)
                    and any(isinstance(n, SignalWait) for n in el.library_nodes))
        ]
    samples.append(("demo/no-waits", bad, False))
    return samples


def _lint_command(args: argparse.Namespace) -> int:
    from repro.sdfg.lint import lint_communication

    ok = True
    sdfgs: dict[str, Any] = {}
    for name, sdfg, expect_clean in _lint_samples(args.demo_bad):
        findings = lint_communication(sdfg)
        described, n_active = apply_suppressions(
            [f.describe() for f in findings], args.suppress
        )
        this_ok = (n_active == 0) if expect_clean else (n_active > 0)
        ok = ok and this_ok
        sdfgs[name] = {
            "expected": "clean" if expect_clean else "findings",
            "findings": described,
            "n_active": n_active,
            "ok": this_ok,
        }
        verdict = "ok" if this_ok else "FAIL"
        print(f"{name}: {n_active} active finding(s) [{verdict}]")
        if findings:
            print(render_findings(findings))
    _write_report(args, {
        "tool": "repro.sanitize",
        "mode": "lint",
        "config": {"demo_bad": args.demo_bad, "suppressions": list(args.suppress)},
        "sdfgs": sdfgs,
        "ok": ok,
    })
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitize",
        description="Happens-before race detection and communication lint.",
    )
    subparsers = parser.add_subparsers(dest="command")

    run = subparsers.add_parser("run", help="sanitize one variant run")
    run.add_argument("--variant", default="cpufree",
                     help="shipped or seeded variant (default: cpufree)")
    _add_run_options(run)
    run.add_argument("--trace-out", type=output_path, metavar="PATH",
                     help="write a Chrome trace with race instants to PATH")

    sweep = subparsers.add_parser(
        "sweep", help="all shipped variants must be clean, seeded must be flagged")
    _add_run_options(sweep)

    lint = subparsers.add_parser("lint", help="static lint over SDFG samples")
    lint.add_argument("--demo-bad", action="store_true",
                      help="also lint deliberately broken SDFGs (must be flagged)")
    lint.add_argument("--suppress", action="append", default=[], metavar="PATTERN")
    lint.add_argument("--report-out", type=output_path, metavar="PATH")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _run_command(args)
    if args.command == "sweep":
        return _sweep_command(args)
    if args.command == "lint":
        return _lint_command(args)
    # no subcommand: the CI gate — dynamic sweep then static lint
    sweep_args = parser.parse_args(["sweep"])
    lint_args = parser.parse_args(["lint"])
    rc = _sweep_command(sweep_args)
    return _lint_command(lint_args) or rc


if __name__ == "__main__":
    sys.exit(cli_entry(main))
