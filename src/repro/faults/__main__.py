"""Chaos-matrix CLI.

Usage::

    python -m repro.faults                         # default matrix
    python -m repro.faults --variants cpufree --profiles transient,lost_signal
    python -m repro.faults --jobs 4 --report-out report.json
    python -m repro.faults --profiles transient@7 --metrics-out metrics.json

Runs every requested stencil variant under every requested fault
profile, judges each cell against the profile's expectation
(numerical convergence to the serial reference, or a watchdog
diagnostic for unrecoverable-hang profiles), prints the matrix, and
exits 1 if any cell misbehaves.

``--report-out`` writes the byte-stable JSON report (identical bytes
for the same matrix at any ``--jobs``); ``--metrics-out`` writes the
merged metrics-registry dump, fault counters included.
"""

from __future__ import annotations

import argparse
import sys

from repro.cliutil import (CliError, cli_entry, output_path, parse_shape,
                           positive_int, stencil_config)
from repro.faults.harness import DEFAULT_MATRIX_PROFILES, render_report, run_matrix
from repro.obs.metrics import MetricsRegistry, use_metrics

_STATUS_MARK = {"converged": "ok", "diagnostic": "diag", "recovered": "recov",
                "diverged": "DIVERGED", "failed": "FAILED"}


def _csv(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Chaos harness: variant x fault-profile matrix.",
    )
    parser.add_argument("--variants", type=_csv, default=None,
                        help="comma-separated stencil variants (default: all)")
    parser.add_argument("--profiles", type=_csv,
                        default=list(DEFAULT_MATRIX_PROFILES),
                        help="comma-separated fault profiles, optionally seeded "
                             "(e.g. transient,lost_signal@7; default: "
                             + ",".join(DEFAULT_MATRIX_PROFILES) + ")")
    parser.add_argument("--gpus", type=int, default=2,
                        help="number of GPUs/PEs (default: 2)")
    parser.add_argument("--shape", type=parse_shape, default=(34, 66),
                        help="global domain shape (default: 34x66)")
    parser.add_argument("--iterations", type=int, default=6,
                        help="stencil iterations per cell (default: 6)")
    parser.add_argument("--jobs", type=positive_int, default=1,
                        help="worker processes for the matrix (default: 1)")
    parser.add_argument("--report-out", type=output_path, metavar="PATH",
                        help="write the byte-stable JSON report to PATH")
    parser.add_argument("--metrics-out", type=output_path, metavar="PATH",
                        help="write the merged metrics dump (JSON) to PATH")
    args = parser.parse_args(argv)

    import repro.stencil.variants  # noqa: F401 - populate the registry
    from repro.stencil.base import variant_names

    variants = args.variants if args.variants is not None else variant_names()
    unknown = sorted(set(variants) - set(variant_names()))
    if unknown:
        raise CliError(f"unknown variant(s) {unknown}; choose from {variant_names()}")
    stencil_config(args.shape, args.gpus, args.iterations)  # before any cell

    registry = MetricsRegistry()
    with use_metrics(registry):
        report = run_matrix(
            variants,
            args.profiles,
            shape=args.shape,
            num_gpus=args.gpus,
            iterations=args.iterations,
            jobs=args.jobs,
        )

    width = max(len(v) for v in variants)
    print(f"chaos matrix: {'x'.join(map(str, args.shape))} on {args.gpus} GPU(s), "
          f"{args.iterations} iteration(s), jobs={args.jobs}")
    for variant in variants:
        rows = [c for c in report["cells"] if c["variant"] == variant]
        marks = []
        for cell in rows:
            mark = _STATUS_MARK.get(cell["status"], cell["status"])
            if not cell["ok"]:
                mark = f"!{mark}"
            marks.append(f"{cell['profile']}={mark}")
        print(f"  {variant:<{width}}  " + "  ".join(marks))
    for failure in report["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{len(report['cells'])} cell(s), {len(report['failures'])} failure(s)")

    if args.report_out:
        with open(args.report_out, "w") as fh:
            fh.write(render_report(report))
        print(f"(report written to {args.report_out})", file=sys.stderr)
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write(registry.to_json())
        print(f"(metrics dump written to {args.metrics_out})", file=sys.stderr)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(cli_entry(main))
