"""Shared conventions for the ``python -m repro.*`` command-line tools.

The six CLIs (:mod:`repro.obs`, :mod:`repro.bench`, :mod:`repro.faults`,
:mod:`repro.sanitize`, :mod:`repro.recover`, :mod:`repro.tune`) report
user-facing invocation failures the same way argparse does: one
``error: <message>`` line on stderr and exit status 2.  Code under a
CLI's ``main`` raises :class:`CliError`; the module entry point wraps
``main`` in :func:`cli_entry`, which renders the error.  Exit status 1 stays reserved for "the tool ran and the
verdict is bad" (regressions, races, violated expectations), so scripts
can distinguish a bad verdict from a bad invocation.

:func:`parse_shape` is the shared ``argparse`` type for ``WxH[xD]``
domain shapes, previously copy-pasted into three CLIs.
:func:`output_path` and :func:`positive_int` are the shared types for
files a tool writes and for counts like ``--jobs``: a bad value is a
parse-time usage error, before any figure, matrix or trial runs.
:func:`run_configuration` turns a bad shape/GPU/domain/iteration
combination into such an error, and :func:`stencil_config` uses it to
check a stencil run's configuration before any run starts.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stencil.base import StencilConfig

__all__ = ["CliError", "cli_entry", "output_path", "parse_shape",
           "positive_int", "run_configuration", "stencil_config"]


class CliError(Exception):
    """A user-facing invocation failure (unknown name, unreadable file).

    The message is shown as ``error: <message>``; it should name the bad
    input and, where possible, the valid choices.
    """


def cli_entry(main: Callable[[list[str] | None], int],
              argv: list[str] | None = None) -> int:
    """Run a CLI ``main``, rendering :class:`CliError` per convention."""
    try:
        return main(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def parse_shape(text: str) -> tuple[int, ...]:
    """``argparse`` type for global domain shapes like ``66x130``."""
    try:
        shape = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad shape {text!r}: expected e.g. 66x130 or 34x34x34"
        ) from None
    if not shape or any(dim <= 0 for dim in shape):
        raise argparse.ArgumentTypeError(
            f"bad shape {text!r}: dims must be positive")
    return shape


def output_path(text: str) -> str:
    """``argparse`` type for a file the tool writes: its directory must
    exist and the path must not be a directory."""
    directory = os.path.dirname(text) or "."
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(
            f"cannot write {text!r}: directory {directory!r} does not exist")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"cannot write {text!r}: it is a directory")
    return text


def positive_int(text: str) -> int:
    """``argparse`` type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


@contextmanager
def run_configuration() -> Iterator[None]:
    """Report a ``ValueError`` raised while a run's node, config or
    decomposition is built as ``invalid run configuration: ...``.

    Such an error is bad input, not a verdict, so it must not surface as
    a traceback with exit 1 — which ``repro.sanitize`` reads as "race
    found".
    """
    try:
        yield
    except ValueError as exc:
        raise CliError(f"invalid run configuration: {exc}") from None


def stencil_config(shape: tuple[int, ...], gpus: int, iterations: int,
                   **fields: Any) -> "StencilConfig":
    """A stencil run's config with its slab decomposition checked, so a
    sweep or matrix fails once, before its first run."""
    from repro.stencil.base import StencilConfig
    from repro.stencil.grid import SlabDecomposition

    with run_configuration():
        config = StencilConfig(global_shape=shape, num_gpus=gpus,
                               iterations=iterations, **fields)
        SlabDecomposition(config.global_shape, config.num_gpus)
    return config
