"""Deadlines, budgets and cooperative cancellation checkpoints.

The paper's section 12 claim -- set processing stays tractable where
record processing degrades -- presumes an executor that *survives* a
pathological query.  This module is the enforcement half of that
claim: a :class:`Governor` bundles a :class:`Deadline` (wall or
simulated clock) and a :class:`Budget` (rows, cells, estimated bytes),
and execution layers call :func:`checkpoint` at cooperative
cancellation points -- between plan nodes, per kernel-loop batch, per
fixpoint round -- so a runaway operator dies *mid-materialization*
with a typed :class:`~repro.errors.DeadlineExceededError` or
:class:`~repro.errors.BudgetExceededError`, never after completing
work nobody will see.

Design rules:

* **Free when uninstalled.**  ``checkpoint`` reads one module global
  and returns when it is ``None``; hot loops fetch :func:`active` once
  and test a local against ``None`` per batch.  The no-governor cost
  is priced in ``benchmarks/bench_gov.py`` (E22) and is within noise.
* **Deterministic on demand.**  A deadline over the default wall clock
  bounds real execution; :meth:`Deadline.simulated` freezes the clock
  so only explicitly-charged simulated seconds (cluster backoff, node
  delays) draw it down -- byte-reproducible across machines, the same
  trick as :class:`repro.obs.trace.FakeClock`.
* **One ledger.**  A cluster read has no deadline or budget of its
  own: backoff sleeps and node delays draw down the Deadline a
  surrounding ``governed()`` scope installed, and each bucket shipment
  checkpoints its Budget at ``shard.<table>[<bucket>]`` -- no
  simulated second or shipped row is counted against two parallel
  ledgers.

Metrics (all ``repro_gov_*``, recorded only under ``REPRO_OBS``):
cancellations by reason, checkpoint counts at death, and a
deadline-slack histogram observed when a governed scope completes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from repro.errors import BudgetExceededError, DeadlineExceededError
from repro.obs import metrics as _metrics
from repro.obs.instrument import enabled as _obs_enabled
from repro.obs.recorder import notify_gov_event
from repro.obs.trace import tracer as _tracer

__all__ = [
    "Deadline",
    "Budget",
    "Governor",
    "active",
    "install",
    "checkpoint",
    "governed",
    "CELL_BYTES",
]

#: Documented estimate of one materialized cell's in-memory footprint,
#: used to map a cell budget onto ``max_bytes``.  Deliberately coarse:
#: budgets bound *blast radius*, they are not an allocator.
CELL_BYTES = 64


class Deadline:
    """A time budget drawn down by wall time and/or simulated charges.

    ``clock`` is any zero-argument callable returning seconds; the
    default is :func:`time.monotonic`.  ``elapsed_s`` is the wall time
    since construction *plus* every explicitly charged simulated
    second, so one Deadline can govern a mixture of real kernel work
    and simulated cluster latency without double counting either.
    """

    __slots__ = ("timeout_s", "_clock", "_start", "_charged")

    def __init__(self, timeout_s: float,
                 clock: Optional[Callable[[], float]] = None):
        if timeout_s < 0:
            raise ValueError("a deadline needs a non-negative timeout")
        self.timeout_s = float(timeout_s)
        self._clock = time.monotonic if clock is None else clock
        self._start = self._clock()
        self._charged = 0.0

    @classmethod
    def simulated(cls, timeout_s: float) -> "Deadline":
        """A deadline drawn down *only* by :meth:`charge` calls.

        The clock is frozen, so elapsed time is exactly the simulated
        seconds charged -- deterministic across machines.  Installed
        with ``governed(deadline=Deadline.simulated(t))``, it is a
        cluster read's reproducible time budget.
        """
        return cls(timeout_s, clock=lambda: 0.0)

    def charge(self, seconds: float) -> None:
        """Draw down ``seconds`` of simulated time."""
        if seconds < 0:
            raise ValueError("deadlines only draw down")
        self._charged += seconds

    def elapsed_s(self) -> float:
        return (self._clock() - self._start) + self._charged

    def remaining_s(self) -> float:
        return self.timeout_s - self.elapsed_s()

    def expired(self) -> bool:
        return self.remaining_s() < 0

    def check(self, site: str = "<unknown>") -> None:
        """Raise :class:`DeadlineExceededError` if the budget ran out."""
        elapsed = self.elapsed_s()
        if elapsed > self.timeout_s:
            raise DeadlineExceededError(elapsed, self.timeout_s, site=site)

    def __repr__(self) -> str:
        return "Deadline(%.6fs, %.6fs remaining)" % (
            self.timeout_s, self.remaining_s()
        )


class Budget:
    """Resource ceilings: materialized rows, cells, estimated bytes.

    Rows are charged wherever sized intermediate results appear (plan
    node outputs, kernel-loop batches, fixpoint deltas); cells are
    ``rows x width`` at sites that know a heading width (kernel sites
    charge width 1).  ``max_bytes`` is enforced as
    ``cells x CELL_BYTES`` -- an *operator memory estimate*, priced
    coarsely on purpose.
    """

    __slots__ = ("max_rows", "max_cells", "max_bytes", "rows", "cells")

    def __init__(self, max_rows: Optional[int] = None,
                 max_cells: Optional[int] = None,
                 max_bytes: Optional[int] = None):
        for name, limit in (("max_rows", max_rows),
                            ("max_cells", max_cells),
                            ("max_bytes", max_bytes)):
            if limit is not None and limit < 0:
                raise ValueError("%s must be non-negative" % name)
        self.max_rows = max_rows
        self.max_cells = max_cells
        self.max_bytes = max_bytes
        self.rows = 0
        self.cells = 0

    def estimated_bytes(self) -> int:
        return self.cells * CELL_BYTES

    def charge(self, site: str, rows: int, width: int = 1) -> None:
        """Account ``rows`` materialized rows of ``width`` attributes.

        Raises :class:`BudgetExceededError` naming the first exhausted
        ledger; the charge is recorded *before* the check so the error
        reports the true overshoot.
        """
        self.rows += rows
        self.cells += rows * width
        if self.max_rows is not None and self.rows > self.max_rows:
            raise BudgetExceededError(
                "rows", self.rows, self.max_rows, site=site
            )
        if self.max_cells is not None and self.cells > self.max_cells:
            raise BudgetExceededError(
                "cells", self.cells, self.max_cells, site=site
            )
        if self.max_bytes is not None and \
                self.estimated_bytes() > self.max_bytes:
            raise BudgetExceededError(
                "bytes", self.estimated_bytes(), self.max_bytes, site=site
            )

    def __repr__(self) -> str:
        return "Budget(rows=%d/%s, cells=%d/%s)" % (
            self.rows, self.max_rows, self.cells, self.max_cells
        )


class Governor:
    """A deadline and/or budget plus checkpoint bookkeeping.

    ``checkpoint`` is the single cooperative cancellation primitive:
    charge whatever was materialized since the last call, then check
    the deadline.  ``last_site`` records where execution currently is,
    which is how "a span recording where it died" works: on
    cancellation the failure site is attached to the active span of
    the global tracer (when observability is on).
    """

    __slots__ = ("deadline", "budget", "checkpoints", "last_site")

    def __init__(self, deadline: Optional[Deadline] = None,
                 budget: Optional[Budget] = None):
        self.deadline = deadline
        self.budget = budget
        self.checkpoints = 0
        self.last_site: Optional[str] = None

    def checkpoint(self, site: str, rows: int = 0, width: int = 1) -> None:
        self.checkpoints += 1
        self.last_site = site
        try:
            if self.budget is not None and rows:
                self.budget.charge(site, rows, width)
            if self.deadline is not None:
                self.deadline.check(site)
        except (BudgetExceededError, DeadlineExceededError) as error:
            _record_cancellation(error, site, self.checkpoints)
            raise

    def __repr__(self) -> str:
        return "Governor(deadline=%r, budget=%r, checkpoints=%d)" % (
            self.deadline, self.budget, self.checkpoints
        )


def _record_cancellation(error: Any, site: str, checkpoints: int) -> None:
    """Metric + span annotation for one mid-operator cancellation."""
    if not _obs_enabled():
        return
    reason = (
        "deadline" if isinstance(error, DeadlineExceededError)
        else "budget_%s" % error.resource
    )
    _metrics.registry().counter(
        "repro_gov_cancelled_total",
        "Governed executions cancelled mid-operator.", ("reason",),
    ).inc(reason=reason)
    span = _tracer().active
    if span is not None:
        span.set("gov_died_at", site)
        span.set("gov_checkpoints", checkpoints)
    notify_gov_event(
        "cancelled",
        {"reason": reason, "site": site, "checkpoints": checkpoints},
    )


#: The ambient governor.  One per process by design: governance is a
#: property of "this execution right now", installed with
#: :func:`governed` around the query and read by every checkpoint.
_ACTIVE: Optional[Governor] = None


def active() -> Optional[Governor]:
    """The installed governor, or ``None`` (the common, free case)."""
    return _ACTIVE


def install(governor: Optional[Governor]) -> Optional[Governor]:
    """Install (or clear) the ambient governor; returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = governor
    return previous


def checkpoint(site: str, rows: int = 0, width: int = 1) -> None:
    """Cooperative cancellation point: no-op without a governor."""
    governor = _ACTIVE
    if governor is not None:
        governor.checkpoint(site, rows, width)


@contextmanager
def governed(
    timeout_s: Optional[float] = None,
    max_rows: Optional[int] = None,
    max_cells: Optional[int] = None,
    max_bytes: Optional[int] = None,
    clock: Optional[Callable[[], float]] = None,
    deadline: Optional[Deadline] = None,
    budget: Optional[Budget] = None,
) -> Iterator[Governor]:
    """Install a governor for the scope of the ``with`` block.

    Build one from the keyword limits, or pass pre-built ``deadline``/
    ``budget`` objects (e.g. a shared :meth:`Deadline.simulated`).
    Scopes nest by replacement: the inner governor fully owns its
    block, the outer is restored on exit.  On a *successful* exit the
    remaining deadline slack is observed into
    ``repro_gov_deadline_slack_seconds`` (observability on), so
    operators can see how close completed work runs to its limits.
    """
    if deadline is None and timeout_s is not None:
        deadline = Deadline(timeout_s, clock=clock)
    if budget is None and (
        max_rows is not None or max_cells is not None or max_bytes is not None
    ):
        budget = Budget(max_rows=max_rows, max_cells=max_cells,
                        max_bytes=max_bytes)
    governor = Governor(deadline=deadline, budget=budget)
    previous = install(governor)
    completed = False
    try:
        yield governor
        completed = True
    finally:
        install(previous)
        if completed and governor.deadline is not None and _obs_enabled():
            _metrics.registry().histogram(
                "repro_gov_deadline_slack_seconds",
                "Deadline slack remaining when a governed scope completed.",
            ).observe(max(0.0, governor.deadline.remaining_s()))
