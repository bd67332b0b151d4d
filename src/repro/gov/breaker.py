"""Per-node circuit breakers: closed -> open -> half-open -> closed.

A dead replica should stop absorbing retry budget.  Without breakers
every read that lands on a killed node burns one failed attempt plus
backoff before failing over; under sustained load that wasted budget
is exactly what pushes queries past their deadlines.  A
:class:`CircuitBreaker` tracks consecutive failures per node and,
after ``failure_threshold`` of them, *opens*: the cluster skips that
replica outright (no attempt, no tick, no backoff).  After a cooldown
the breaker turns *half-open* and admits exactly one probe; the
probe's outcome closes the breaker or re-opens it for another
cooldown.

Time here is **operation count**, not seconds: the cluster feeds its
monotonically increasing op counter into every call, so transitions
are a pure function of the operation sequence -- byte-reproducible in
chaos tests, the same determinism discipline as
:class:`~repro.relational.faults.FaultInjector` ticks.  Cooldowns get
a seeded jitter (distinct per node) so a mass failure does not produce
synchronized probe thundering, while remaining deterministic for a
given seed.

State changes invoke ``on_transition(node, old, new, op)`` -- the
cluster hangs ``repro_gov_breaker_transitions_total`` and its breaker
log off this callback.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["CircuitBreaker", "BreakerBoard", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

TransitionHook = Callable[[str, str, str, int], None]


class CircuitBreaker:
    """Failure-counting breaker for one node, on an op-count clock."""

    __slots__ = ("node", "failure_threshold", "cooldown_ops", "state",
                 "failures", "opened_at", "_jitter", "on_transition")

    def __init__(self, node: str, failure_threshold: int = 3,
                 cooldown_ops: int = 8, jitter_ops: int = 3,
                 seed: int = 0,
                 on_transition: Optional[TransitionHook] = None):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown_ops < 1:
            raise ValueError("cooldown_ops must be at least 1")
        self.node = node
        self.failure_threshold = failure_threshold
        # Seeded per-node jitter keeps probes of simultaneously-opened
        # breakers from landing on the same op, without wall time.
        rng = random.Random("%d:%s" % (seed, node))
        self.cooldown_ops = cooldown_ops + (
            rng.randrange(jitter_ops + 1) if jitter_ops > 0 else 0
        )
        self.state = CLOSED
        self.failures = 0
        self.opened_at = -1
        self.on_transition = on_transition

    def _transition(self, new_state: str, op: int) -> None:
        old = self.state
        self.state = new_state
        if self.on_transition is not None and old != new_state:
            self.on_transition(self.node, old, new_state, op)

    def allows(self, op: int) -> bool:
        """May the cluster attempt this node at operation ``op``?

        An open breaker whose cooldown has elapsed flips to half-open
        and admits this call as its single probe; a second caller in
        the same half-open window is refused until the probe reports.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if op - self.opened_at >= self.cooldown_ops:
                self._transition(HALF_OPEN, op)
                return True
            return False
        # HALF_OPEN: the single probe is already in flight.
        return False

    def record_success(self, op: int) -> None:
        self.failures = 0
        if self.state != CLOSED:
            self._transition(CLOSED, op)

    def record_failure(self, op: int) -> None:
        if self.state == HALF_OPEN:
            # The probe failed: straight back to open, fresh cooldown.
            self.opened_at = op
            self._transition(OPEN, op)
            return
        self.failures += 1
        if self.state == CLOSED and self.failures >= self.failure_threshold:
            self.opened_at = op
            self._transition(OPEN, op)

    def retry_after_ops(self, op: int) -> int:
        """Ops until the next probe could run (0 if attemptable now)."""
        if self.state != OPEN:
            return 0
        return max(0, self.cooldown_ops - (op - self.opened_at))

    def __repr__(self) -> str:
        return "CircuitBreaker(%s, %s, failures=%d)" % (
            self.node, self.state, self.failures
        )


class BreakerBoard:
    """All breakers of a cluster plus the shared transition log.

    ``log`` accumulates ``(op, node, old, new)`` tuples in transition
    order -- the deterministic artifact chaos tests compare
    byte-for-byte across reruns.
    """

    def __init__(self, failure_threshold: int = 3, cooldown_ops: int = 8,
                 jitter_ops: int = 3, seed: int = 0,
                 on_transition: Optional[TransitionHook] = None):
        self.failure_threshold = failure_threshold
        self.cooldown_ops = cooldown_ops
        self.jitter_ops = jitter_ops
        self.seed = seed
        self._external_hook = on_transition
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.log: List[Tuple[int, str, str, str]] = []

    def _record(self, node: str, old: str, new: str, op: int) -> None:
        self.log.append((op, node, old, new))
        if self._external_hook is not None:
            self._external_hook(node, old, new, op)

    def breaker(self, node: str) -> CircuitBreaker:
        breaker = self._breakers.get(node)
        if breaker is None:
            breaker = CircuitBreaker(
                node,
                failure_threshold=self.failure_threshold,
                cooldown_ops=self.cooldown_ops,
                jitter_ops=self.jitter_ops,
                seed=self.seed,
                on_transition=self._record,
            )
            self._breakers[node] = breaker
        return breaker

    def states(self) -> Dict[str, str]:
        return {
            node: breaker.state
            for node, breaker in sorted(self._breakers.items())
        }

    def __repr__(self) -> str:
        return "BreakerBoard(%d breakers, %d transitions)" % (
            len(self._breakers), len(self.log)
        )
