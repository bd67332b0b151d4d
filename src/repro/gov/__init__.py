"""Resource governance: deadlines, budgets, breakers, admission.

``repro.gov`` is the robustness layer threaded through every execution
path of the reproduction:

* :mod:`repro.gov.governor` -- :class:`Deadline`/:class:`Budget`
  carried as an ambient :class:`Governor`; cooperative cancellation
  via :func:`checkpoint` calls in the XST kernel, plan-node
  evaluation, the optimizer fixpoint, and transaction commit.
* :mod:`repro.gov.breaker` -- per-node circuit breakers on a
  deterministic op-count clock, used by the distributed cluster.
* :mod:`repro.gov.admission` -- bounded in-flight query table with
  priority-ordered load shedding: the server's front door, composed
  around a cluster read by an embedded caller.
* :mod:`repro.gov.result` -- explicitly-marked partial results with a
  missing-bucket manifest for degraded reads.

See ``docs/robustness.md`` for the model and degradation semantics.
"""

from repro.gov.admission import (
    PRIORITY_BACKGROUND,
    PRIORITY_CRITICAL,
    PRIORITY_NORMAL,
    AdmissionController,
)
from repro.gov.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
)
from repro.gov.governor import (
    CELL_BYTES,
    Budget,
    Deadline,
    Governor,
    active,
    checkpoint,
    governed,
    install,
)
from repro.gov.result import MissingBucket, Result

__all__ = [
    "AdmissionController",
    "PRIORITY_BACKGROUND",
    "PRIORITY_NORMAL",
    "PRIORITY_CRITICAL",
    "BreakerBoard",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "Budget",
    "Deadline",
    "Governor",
    "CELL_BYTES",
    "active",
    "checkpoint",
    "governed",
    "install",
    "MissingBucket",
    "Result",
]
