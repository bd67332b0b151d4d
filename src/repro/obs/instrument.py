"""The on/off switch and the kernel instrumentation hook.

Instrumentation must be *free when off*: every production hook guards
on one module-global boolean, read without locks, defaulting to the
``REPRO_OBS`` environment variable (unset/0/false = off).  When off,
the only residual cost is one function call and one boolean test per
instrumented kernel operation; when on, each recorded operation pays
a fixed ~2 microseconds -- within noise on realistic operand sizes,
priced in EXPERIMENTS.md E20.

:func:`kernel_op` is the decorator the XST kernel operations wear.
When observability is enabled it records, per operation:

* ``repro_xst_op_total{op=...}`` -- invocation counter;
* ``repro_xst_op_seconds{op=...}`` -- latency histogram;
* ``repro_xst_rows_in_total`` / ``repro_xst_rows_out_total`` --
  input/output cardinality counters;
* ``repro_xst_rows_out{op=...}`` -- output cardinality histogram.

Input cardinality sums the sizes of the first two sized positional
arguments (the operands; trailing sigma/omega specifications are
steering, not data).
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from repro.obs import metrics

__all__ = [
    "enabled", "set_enabled", "observed", "kernel_op", "record_recovery",
]


def _env_truthy(value: str) -> bool:
    return value.strip().lower() in ("1", "true", "yes", "on")


_ENABLED = _env_truthy(os.environ.get("REPRO_OBS", ""))


def enabled() -> bool:
    """Is observability currently recording?"""
    return _ENABLED


def set_enabled(flag: bool) -> bool:
    """Flip the global switch; returns the previous setting."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


@contextmanager
def observed(flag: bool = True) -> Iterator[metrics.Registry]:
    """Temporarily enable (or disable) observability.

    Yields the global registry so call sites can read what they just
    recorded::

        with observed() as registry:
            run_workload()
            print(registry.expose())
    """
    previous = set_enabled(flag)
    try:
        yield metrics.registry()
    finally:
        set_enabled(previous)


def _cardinality(value: Any) -> Optional[int]:
    try:
        return len(value)
    except TypeError:
        return None


def kernel_op(op_name: str) -> Callable:
    """Instrument one kernel operation (metrics only, no spans).

    Kernel operations run inside tight fixpoint loops; spans per call
    would flood any ring buffer, so the kernel reports through
    counters and histograms and leaves span structure to the layers
    that own query shapes (profiler, cluster).
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _ENABLED:
                return fn(*args, **kwargs)
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - started
            _record(op_name, args, result, elapsed)
            return result

        return wrapper

    return decorate


#: Cached handles to the five kernel metrics.  ``Registry.reset``
#: keeps registrations (same objects), so handles stay valid for the
#: process lifetime; only label-key tuples are built per call.
_KERNEL_METRICS = None


def _kernel_metrics():
    global _KERNEL_METRICS
    if _KERNEL_METRICS is None:
        registry = metrics.registry()
        _KERNEL_METRICS = (
            registry.counter(
                "repro_xst_op_total", "Kernel operation invocations.",
                ("op",),
            ),
            registry.histogram(
                "repro_xst_op_seconds", "Kernel operation latency.",
                ("op",), buckets=metrics.SECONDS_BUCKETS,
            ),
            registry.counter(
                "repro_xst_rows_in_total", "Kernel operand cardinality.",
                ("op",),
            ),
            registry.counter(
                "repro_xst_rows_out_total", "Kernel result cardinality.",
                ("op",),
            ),
            registry.histogram(
                "repro_xst_rows_out",
                "Kernel result cardinality distribution.",
                ("op",), buckets=metrics.ROWS_BUCKETS,
            ),
        )
    return _KERNEL_METRICS


def record_recovery(kind: str, seconds: float, records: int,
                    byte_count: int, epoch: Optional[int] = None) -> None:
    """Record one recovery pass (WAL replay or replica rebuild).

    ``kind`` labels the recovery flavor (``"wal"`` for log replay into
    a :class:`~repro.relational.disk.DiskRelationStore`, ``"rebuild"``
    for a revived cluster node shipped its difference to the
    committed relation); ``records`` is how many log entries were
    replayed (shipments made, for a rebuild) and ``byte_count`` how
    many durable bytes were read (shipped) to do it.  When
    the recovering layer knows its shard-map generation it passes
    ``epoch``, and the pass is additionally counted under
    ``repro_recovery_epoch_total{kind,epoch}`` -- the tag that lets
    FlightRecorder incidents correlate a revive with the rebalance it
    rebuilt into.  A no-op while observability is off, like every
    other hook here.
    """
    if not _ENABLED:
        return
    registry = metrics.registry()
    key = (kind,)
    registry.counter(
        "repro_recovery_total", "Recovery passes completed.", ("kind",),
    ).inc_key(key)
    registry.counter(
        "repro_recovery_records_total",
        "Log records replayed during recovery.", ("kind",),
    ).inc_key(key, records)
    registry.counter(
        "repro_recovery_bytes_total",
        "Durable bytes read during recovery.", ("kind",),
    ).inc_key(key, byte_count)
    registry.histogram(
        "repro_recovery_seconds", "Recovery pass duration.",
        ("kind",), buckets=metrics.SECONDS_BUCKETS,
    ).observe_key(key, seconds)
    if epoch is not None:
        registry.counter(
            "repro_recovery_epoch_total",
            "Recovery passes by the shard-map epoch recovered into.",
            ("kind", "epoch"),
        ).inc_key((kind, str(epoch)))


def _record(op_name: str, args: tuple, result: Any, elapsed: float) -> None:
    ops, op_seconds, rows_in_total, rows_out_total, rows_out_hist = (
        _kernel_metrics()
    )
    key = (op_name,)
    ops.inc_key(key)
    op_seconds.observe_key(key, elapsed)
    rows_in = 0
    for operand in args[:2]:
        size = _cardinality(operand)
        if size is not None:
            rows_in += size
    rows_out = _cardinality(result) or 0
    rows_in_total.inc_key(key, rows_in)
    rows_out_total.inc_key(key, rows_out)
    rows_out_hist.observe_key(key, rows_out)
