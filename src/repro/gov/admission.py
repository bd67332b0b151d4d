"""Admission control and load shedding: the server's front door.

A bounded in-flight query table: every query asks for a slot before it
runs and releases it after.  Below ``soft_capacity`` everything is
admitted.  Between soft and hard capacity only queries at or above
``shed_below_priority`` get in -- background work is shed first, the
classic criticality-ordered load-shedding pattern.  At hard
``capacity`` everything is refused.  Refusal is a typed
:class:`~repro.errors.OverloadedError` raised *before any work runs*,
carrying a deterministic retry-after hint proportional to the queue
overshoot -- callers can back off without parsing messages, and two
identical runs shed the identical set of queries.

Priorities are small ints, higher = more important (0 background,
1 normal, 2 critical).  :class:`repro.server.Server` wraps every
request in :meth:`AdmissionController.admitted`; a caller reading a
cluster directly composes the same two lines around
``cluster.execute`` -- the cluster has no front door of its own.  The
controller is deliberately synchronous: "in flight" means "admitted
and not yet released", which overload tests drive by holding slots
across calls.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.errors import OverloadedError

__all__ = ["AdmissionController", "PRIORITY_BACKGROUND", "PRIORITY_NORMAL",
           "PRIORITY_CRITICAL"]

PRIORITY_BACKGROUND = 0
PRIORITY_NORMAL = 1
PRIORITY_CRITICAL = 2


class AdmissionController:
    """Bounded in-flight table with priority-ordered shedding."""

    def __init__(self, capacity: int, soft_capacity: int = None,
                 shed_below_priority: int = PRIORITY_NORMAL,
                 retry_after_unit_s: float = 0.01):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if soft_capacity is None:
            # Default soft threshold: shed background work once the
            # table is three-quarters full.
            soft_capacity = max(1, (capacity * 3) // 4)
        if not 1 <= soft_capacity <= capacity:
            raise ValueError("need 1 <= soft_capacity <= capacity")
        self.capacity = capacity
        self.soft_capacity = soft_capacity
        self.shed_below_priority = shed_below_priority
        self.retry_after_unit_s = retry_after_unit_s
        self.in_flight = 0
        self.admitted_total = 0
        self.shed_total = 0

    def retry_after_s(self) -> float:
        """Deterministic hint: one unit per query over the soft line."""
        overshoot = max(1, self.in_flight - self.soft_capacity + 1)
        return overshoot * self.retry_after_unit_s

    def try_admit(self, priority: int = PRIORITY_NORMAL) -> None:
        """Take a slot or raise :class:`OverloadedError`; never blocks."""
        if self.in_flight >= self.capacity:
            self.shed_total += 1
            raise OverloadedError(
                self.in_flight, self.capacity, self.retry_after_s(),
                reason="at capacity",
            )
        if self.in_flight >= self.soft_capacity and \
                priority < self.shed_below_priority:
            self.shed_total += 1
            raise OverloadedError(
                self.in_flight, self.capacity, self.retry_after_s(),
                reason="shedding priority<%d" % self.shed_below_priority,
            )
        self.in_flight += 1
        self.admitted_total += 1

    def release(self) -> None:
        if self.in_flight <= 0:
            raise ValueError("release without a matching admit")
        self.in_flight -= 1

    @contextmanager
    def admitted(self, priority: int = PRIORITY_NORMAL) -> Iterator[None]:
        """``with controller.admitted(): ...`` -- admit, run, release."""
        self.try_admit(priority)
        try:
            yield
        finally:
            self.release()

    @contextmanager
    def hold(self, slots: int, priority: int = PRIORITY_CRITICAL
             ) -> Iterator[None]:
        """Occupy ``slots`` for the block -- how tests simulate load."""
        taken = 0
        try:
            for _ in range(slots):
                self.try_admit(priority)
                taken += 1
            yield
        finally:
            for _ in range(taken):
                self.release()

    def __repr__(self) -> str:
        return "AdmissionController(%d/%d in flight, soft=%d, shed=%d)" % (
            self.in_flight, self.capacity, self.soft_capacity,
            self.shed_total,
        )
