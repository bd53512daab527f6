"""The four benchmark workloads.

Each workload is built from the seed, computes its expected outputs in
:meth:`references` (kept out of the timed set-up), and runs one *job*
per call of :meth:`job`, which returns the job's output for
:meth:`check`.  A workload talks to ``repro`` only through public entry
points and builds stencil configs only from ``StencilConfig(global_shape,
num_gpus, iterations, node, seed)``, so internal knobs can be deleted
without breaking the benchmark.

``trace`` is :data:`tracing.OFF` in untraced jobs; in traced jobs it
records spans around the calls into each layer and counts work.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path
from typing import Any

import numpy as np

from reference import CUDA_DIGESTS, field_digest, jacobi_1d, jacobi_2d, text_digest


class FigureSuite:
    """One uncached regeneration of the default figure set.

    About 190 small timing-only simulations at 1-8 GPUs through the
    sweep runner and its batching: per-point overheads, the vector-clock
    engine and host-API baselines, with no fields and no domains.
    Seed-free: the output is pinned to the committed golden report.
    """

    name = "figure_suite"
    cycle = 1

    def __init__(self, root: Path, seed: int) -> None:
        self.golden_path = root / "tests" / "golden" / "bench_report.md"
        self.golden = ""

    def references(self) -> None:
        self.golden = self.golden_path.read_bytes().decode()

    def job(self, index: int, trace: Any) -> Any:
        from repro.bench.__main__ import main

        out = io.StringIO()
        with trace.span("bench.cli"), redirect_stdout(out):
            status = main(["--no-cache"])
        return status, out.getvalue()

    def check(self, index: int, output: Any) -> str | None:
        status, text = output
        if status != 0:
            return f"repro.bench exited {status}"
        # stdout is the report, then one blank line, then "(...)" notes
        report, trailer = text[:len(self.golden)], text[len(self.golden):]
        if report != self.golden or not trailer.startswith("\n") or any(
                line and not line.startswith("(") for line in trailer.splitlines()):
            return "report differs from tests/golden/bench_report.md"
        return None


class Scale1024:
    """One cpufree 2D run on 1024 PEs in 128 eight-GPU NVSwitch domains.

    A 4098x2050 grid with data: engine dispatch, transport delivery,
    NIC rails and per-PE NumPy do the work; sweep, figure and compiler
    code do none.
    """

    name = "scale_1024"
    cycle = 1
    shape = (4098, 2050)
    pes = 1024
    domain_gpus = 8
    iterations = 2

    def __init__(self, root: Path, seed: int) -> None:
        from repro.hw import HGX_A100_8GPU
        from repro.stencil import StencilConfig

        node = replace(HGX_A100_8GPU, num_gpus=self.domain_gpus,
                       nvswitch_domain_gpus=self.domain_gpus)
        self.config = StencilConfig(global_shape=self.shape, num_gpus=self.pes,
                                    iterations=self.iterations, node=node, seed=seed)
        self.expected = ""

    def references(self) -> None:
        from repro.stencil import jacobi_reference
        from repro.stencil.base import default_initial

        u0 = default_initial(self.shape, self.config.seed)
        self.expected = field_digest(jacobi_reference(u0, self.iterations))

    def job(self, index: int, trace: Any) -> Any:
        from repro.stencil import run_variant

        with trace.span("stencil.run_variant"):
            return run_variant("cpufree", self.config).result

    def check(self, index: int, output: Any) -> str | None:
        if output is None or field_digest(output) != self.expected:
            return "field differs from jacobi_reference"
        return None


#: (dimensions, pipeline, auto_overlap chunks or None, ranks, fastpath,
#: time steps); mostly the vector fastpath, some scalar jobs.  The time
#: steps bring every job to a similar host time (about 50 ms on the
#: machine the sizes were chosen on): in a mix whose job times spread
#: over an order of magnitude, the median sits in a gap between job kinds
#: and jumps with small speed changes
SDFG_JOBS = (
    (1, "baseline", None, 2, "vector", 48),
    (2, "cpufree", 2, 4, "vector", 12),
    (1, "cpufree", None, 8, "vector", 15),
    (2, "baseline", None, 8, "vector", 6),
    (1, "cpufree", None, 8, "scalar", 7),
    (2, "cpufree", None, 4, "vector", 24),
    (1, "baseline", None, 8, "vector", 11),
    (2, "cpufree", 4, 8, "vector", 7),
    (1, "cpufree", None, 4, "vector", 28),
    (2, "baseline", None, 2, "scalar", 4),
    (2, "baseline", None, 4, "vector", 12),
    (2, "cpufree", 2, 8, "vector", 7),
    (2, "cpufree", 1, 8, "vector", 7),
)
SDFG_1D_CELLS_PER_RANK = 128
SDFG_2D_INTERIOR = (32, 64)


class SdfgCompile:
    """One program through the compiler and the executor.

    Frontend, transforms, auto-overlap, code generation, the
    communication lint and the SDFG executor do the work; the engine
    sees few events.
    """

    name = "sdfg_compile"
    cycle = len(SDFG_JOBS)

    def __init__(self, root: Path, seed: int) -> None:
        from repro.sdfg.distributed import GridDecomposition2D, SlabDecomposition1D

        self.inputs = []
        for index, (dims, _, _, ranks, _, _) in enumerate(SDFG_JOBS):
            rng = np.random.default_rng([seed, index])
            if dims == 1:
                n = SDFG_1D_CELLS_PER_RANK * ranks
                decomp = SlabDecomposition1D(n, ranks)
                u0 = rng.random(n + 2)
            else:
                gy, gx = SDFG_2D_INTERIOR
                decomp = GridDecomposition2D(gy, gx, ranks)
                u0 = rng.random((gy + 2, gx + 2))
            self.inputs.append((decomp, u0))
        self.expected: list[str] = []

    def references(self) -> None:
        self.expected = [
            field_digest((jacobi_1d if dims == 1 else jacobi_2d)(u0, tsteps))
            for (dims, *_, tsteps), (_, u0) in zip(SDFG_JOBS, self.inputs)
        ]

    def job(self, index: int, trace: Any) -> Any:
        from repro.hw import HGX_A100_8GPU
        from repro.runtime import MultiGPUContext
        from repro.sdfg.codegen import SDFGExecutor, generate_cuda
        from repro.sdfg.lint import lint_communication
        from repro.sdfg.programs import (
            CONJUGATES_1D,
            CONJUGATES_2D,
            baseline_pipeline,
            build_jacobi_1d_sdfg,
            build_jacobi_2d_sdfg,
            cpufree_pipeline,
        )
        from repro.sdfg.transforms import auto_overlap
        from repro.sim import Tracer

        dims, pipeline, chunks, ranks, fastpath, tsteps = SDFG_JOBS[index % len(SDFG_JOBS)]
        decomp, u0 = self.inputs[index % len(SDFG_JOBS)]
        with trace.span("sdfg.frontend"):
            sdfg = build_jacobi_1d_sdfg() if dims == 1 else build_jacobi_2d_sdfg()
        with trace.span("sdfg.transform"):
            if pipeline == "baseline":
                baseline_pipeline(sdfg)
            else:
                cpufree_pipeline(sdfg, CONJUGATES_1D if dims == 1 else CONJUGATES_2D)
        rewritten = 0
        if chunks is not None:
            with trace.span("sdfg.overlap"):
                rewritten = auto_overlap(sdfg, chunks=chunks)
        with trace.span("sdfg.codegen"):
            code = generate_cuda(sdfg)
        with trace.span("sdfg.lint"):
            findings = lint_communication(sdfg)
        with trace.span("sdfg.executor"):
            ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(ranks), tracer=Tracer())
            report = SDFGExecutor(sdfg, ctx, fastpath=fastpath).run(
                decomp.rank_args(u0, tsteps))
            field = decomp.gather(report.arrays, u0)
        trace.count("sdfg.nodes", sum(len(state.nodes) for state in sdfg.walk_states()))
        # the programs loop TSTEPS - 1 times and relax the interior twice per loop
        trace.count("sdfg.cells", math.prod(n - 2 for n in u0.shape) * 2 * (tsteps - 1))
        return text_digest(code), len(findings), rewritten, field

    def check(self, index: int, output: Any) -> str | None:
        dims, pipeline, chunks, *_ = SDFG_JOBS[index % len(SDFG_JOBS)]
        code_digest, findings, rewritten, field = output
        if code_digest != CUDA_DIGESTS[(dims, pipeline, chunks)]:
            return "generated CUDA text differs from the recorded digest"
        if findings:
            return f"communication lint reported {findings} finding(s)"
        if chunks is not None and rewritten < 1:
            return "auto_overlap rewrote no map"
        if field_digest(field) != self.expected[index % len(SDFG_JOBS)]:
            return "gathered field differs from the NumPy reference"
        return None


#: stencil variants the chaos workload runs
CHAOS_VARIANTS = ("cpufree", "baseline_nvshmem", "baseline_p2p")
#: fault profile -> cell status the harness must report
CHAOS_EXPECT = {
    "none": "converged",
    "transient": "converged",
    "degraded": "converged",
    "link_down": "converged",
    "lost_signal": "diagnostic",
    "crash_recover": "recovered",
}
#: the lost-signal plan drops NVSHMEM messages; a variant that sends
#: none never sees the fault and must converge
CHAOS_NO_NVSHMEM = ("baseline_p2p",)
CHAOS_SHAPE = (66, 130)
CHAOS_GPUS = 8
CHAOS_ITERATIONS = 24


class Chaos:
    """One fault-matrix cell, or one run under the race detector.

    An active fault plan or an attached monitor forces the per-leg
    delivery path, retries, watchdogs, vector clocks and rollback: the
    only workload for faults, recover and sanitize, and the fallback
    side of every transport fast path.  A small domain with many
    iterations keeps stencil NumPy from hiding the transport.
    """

    name = "chaos"

    def __init__(self, root: Path, seed: int) -> None:
        self.seed = seed
        self.jobs: list[tuple[str, str]] = []
        for variant in CHAOS_VARIANTS:
            self.jobs += [(variant, profile) for profile in CHAOS_EXPECT]
            self.jobs.append((variant, "sanitize"))
        self.cycle = len(self.jobs)
        self.expected = ""

    def references(self) -> None:
        from repro.stencil import jacobi_reference
        from repro.stencil.base import default_initial

        u0 = default_initial(CHAOS_SHAPE, self.seed)
        self.expected = field_digest(jacobi_reference(u0, CHAOS_ITERATIONS))

    def job(self, index: int, trace: Any) -> Any:
        variant, profile = self.jobs[index % len(self.jobs)]
        if profile != "sanitize":
            from repro.faults.harness import run_cell

            with trace.span("faults.run_cell"):
                return run_cell(variant, f"{profile}@{self.seed}", CHAOS_SHAPE,
                                CHAOS_GPUS, CHAOS_ITERATIONS)
        from repro.sanitize import attach_sanitizer, detect_races
        from repro.stencil import VARIANTS, StencilConfig

        config = StencilConfig(global_shape=CHAOS_SHAPE, num_gpus=CHAOS_GPUS,
                               iterations=CHAOS_ITERATIONS, seed=self.seed)
        instance = VARIANTS[variant](config)
        sanitizer = attach_sanitizer(instance.ctx)
        result = instance.run()
        with trace.span("sanitize.detect"):
            races = detect_races(sanitizer)
        trace.count("sanitize.accesses", len(sanitizer.accesses))
        return {"races": len(races), "field": result.result}

    def check(self, index: int, output: Any) -> str | None:
        variant, profile = self.jobs[index % len(self.jobs)]
        if profile == "sanitize":
            if output["races"]:
                return f"{variant}: {output['races']} race(s) detected"
            if output["field"] is None or field_digest(output["field"]) != self.expected:
                return f"{variant}: field differs from jacobi_reference"
            return None
        expect = CHAOS_EXPECT[profile]
        if profile == "lost_signal" and variant in CHAOS_NO_NVSHMEM:
            expect = "converged"
        if output["status"] != expect or not output["ok"]:
            return (f"{variant}/{profile}: expected {expect}, got "
                    f"{output['status']} ({output['error']})")
        return None


WORKLOADS = {w.name: w for w in (FigureSuite, Scale1024, SdfgCompile, Chaos)}
