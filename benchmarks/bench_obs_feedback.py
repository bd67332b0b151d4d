"""The planner feedback loop: q-error trajectory and its runtime cost.

Series: a seeded adversarial workload whose statistics catalog was
ANALYZEd on a stale snapshot (the live ``emp`` is 10x larger and
skewed), executed for several rounds with the digest-driven feedback
loop enabled.  Reproduced shape: round one plans from drifted ground
truth (max per-node q-error around the drift factor), later rounds
plan from the observed-cardinality overlay, so the recorded
``qerror_round_max`` trajectory in ``extra_info`` is strictly
decreasing from round one to the final round -- the closed loop pays
for itself after a single observed execution.

The wall time benchmarked is the *whole* observed round (spans,
digest, slow-query log, feedback consumption), so the saved BENCH
json prices the loop's overhead next to its accuracy gain.
"""

import pytest

from repro.obs import instrument
from repro.obs.digest import add_digest_sink, remove_digest_sink
from repro.obs.feedback import FeedbackLoop
from repro.obs.slowlog import slowlog
from repro.relational.query import Database, Join, Scan, SelectEq
from repro.workloads import department_relation, employee_relation

from conftest import WORKLOAD_SEED

#: ANALYZE sees this many employees; the live table holds 10x more.
STALE_ROWS = 60
LIVE_ROWS = 600
DEPARTMENTS = 6
ROUNDS = 3


def drifted_db() -> Database:
    db = Database()
    db.add("emp", employee_relation(
        STALE_ROWS, DEPARTMENTS, seed=WORKLOAD_SEED
    ))
    db.add("dept", department_relation(DEPARTMENTS, seed=WORKLOAD_SEED))
    db.analyze(seed=WORKLOAD_SEED)
    # The adversarial drift: 10x the rows, skewed toward low
    # departments, swapped in behind the catalog's back.
    db.add("emp", employee_relation(
        LIVE_ROWS, DEPARTMENTS, seed=WORKLOAD_SEED, skew=1.5
    ))
    return db


def workload():
    """Selections that feedback can anchor, and a join they feed."""
    plans = [
        SelectEq(Scan("emp"), {"dept": dept})
        for dept in range(DEPARTMENTS)
    ]
    plans.append(Join(SelectEq(Scan("emp"), {"dept": 1}), Scan("dept")))
    plans.append(Scan("emp"))
    return plans


def run_rounds(rounds: int = ROUNDS):
    """Execute the workload ``rounds`` times; returns per-round max q."""
    db = drifted_db()
    loop = FeedbackLoop(db.stats, qerror_threshold=1.0)
    plans = workload()
    trajectory = []
    digests = []
    add_digest_sink(loop.consume)
    add_digest_sink(digests.append)
    try:
        for _ in range(rounds):
            digests.clear()
            for plan in plans:
                db.execute(plan)
            trajectory.append(
                max(digest.max_q_error() for digest in digests)
            )
    finally:
        remove_digest_sink(digests.append)
        remove_digest_sink(loop.consume)
    return trajectory


@pytest.fixture
def obs_on():
    previous = instrument.set_enabled(True)
    yield
    instrument.set_enabled(previous)
    slowlog().reset()


def test_feedback_shrinks_qerror(benchmark, obs_on):
    trajectory = benchmark(run_rounds)
    benchmark.extra_info["qerror_round_max"] = [
        round(q, 3) for q in trajectory
    ]
    benchmark.extra_info["qerror_before"] = round(trajectory[0], 3)
    benchmark.extra_info["qerror_after"] = round(trajectory[-1], 3)
    benchmark.extra_info["rounds"] = ROUNDS
    # The loop's contract: evidence beats drifted ground truth.
    assert trajectory[-1] < trajectory[0]
    assert trajectory[0] > 2.0   # round one really was adversarial
    assert trajectory[-1] < 1.5  # and the overlay really converged


@pytest.mark.parametrize("feedback", (False, True),
                         ids=("feedback_off", "feedback_on"))
def test_observed_round_cost(benchmark, obs_on, feedback):
    """What consuming digests into the catalog overlay costs per round."""
    db = drifted_db()
    loop = FeedbackLoop(db.stats, qerror_threshold=1.0)
    if feedback:
        add_digest_sink(loop.consume)
    plans = workload()

    def one_round():
        for plan in plans:
            db.execute(plan)

    try:
        benchmark(one_round)
    finally:
        remove_digest_sink(loop.consume)
    benchmark.extra_info["feedback"] = feedback
