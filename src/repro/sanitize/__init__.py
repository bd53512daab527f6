"""Communication sanitizer: happens-before race detection.

The sanitizer is the correctness leg next to the perf (``repro.perf``),
observability (``repro.obs``) and robustness (``repro.faults``) layers.
It has two halves:

* a **dynamic vector-clock happens-before detector**
  (:mod:`repro.sanitize.hb`, :mod:`repro.sanitize.detect`) that consumes
  the simulator's deterministic event stream — local loads/stores on
  symmetric heap regions, put / put-signal delivery legs, signal-wait
  completions, quiet/fence/barrier edges — and reports conflicting
  accesses not ordered by any synchronization edge, naming both PEs,
  the heap offsets, and the trace spans involved; and
* a **static communication lint** over SDFGs
  (:mod:`repro.sdfg.lint`) that flags unsignaled puts, waits with no
  producer, source-buffer reuse before quiet, and mismatched signal
  pairs without running anything.

Attach the dynamic half with :func:`attach_sanitizer` before a run and
collect findings with :func:`~repro.sanitize.detect.detect_races`; or
use ``python -m repro.sanitize`` which does both and emits byte-stable
JSON reports.
"""

from __future__ import annotations

from repro.sanitize.detect import RaceFinding, detect_races
from repro.sanitize.hb import HBMonitor
from repro.sanitize.recorder import Access, Sanitizer, attach_sanitizer

__all__ = [
    "Access",
    "HBMonitor",
    "RaceFinding",
    "Sanitizer",
    "attach_sanitizer",
    "detect_races",
]
