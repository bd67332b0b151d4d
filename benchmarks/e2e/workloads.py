"""Seeded data and request streams for the end-to-end benchmark.

A workload is a table set plus one request stream; both are a pure
function of ``(workload name, seed)``, and the stack under test only
ever sees the generated requests.  A request is a
``(client index, kind, payload)`` tuple the driver hands to the public
:class:`repro.server.Client` method of the same name:

* ``"query"``   -- payload is XQL text
* ``"execute"`` -- payload is ``(statement name, [args])``
* ``"mutate"``  -- payload is a list of wire-shaped ops
* ``"refresh"`` -- payload is ``None``

The seed decides *which* rows, keys and values; it does not decide how
much work there is.  Tables are balanced (every department the same
size, salaries and hours on an even grid, every project the same
membership) and every stream repeats a fixed cycle of operation kinds,
so result sizes, table growth and the operation mix of any prefix are
the same for every seed.  Without that, ten seeds of one workload
differed by 6-30 % in exact call counts alone, which no number of
rounds can average away.

Sizes are scaled so one pass over a stream takes 1-2.5 s on a 2-core
box: the driver contract caps a whole invocation (several passes, a
fresh set-up each time, checks, count rounds) at about half a minute.

``budget`` is an XQL keyword, so no stream projects ``dept.budget`` by
name (``select *`` may still carry the column).
"""

import itertools
import random
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Tuple

from repro.relational.constraints import KeyConstraint, Table

Request = Tuple[int, str, Any]

#: Operation class of each request kind; percentiles are per class.
CLASS_OF = {"query": "read", "execute": "read", "mutate": "write",
            "refresh": "refresh"}

#: Statements every client PREPAREs during set-up.
PREPARED = {
    "by_emp": "select emp, name, salary from emp where emp = $1",
}

_SALARY_LOW, _SALARY_SPAN = 30000, 70000
_HOURS = 40
_MEMBERS = 4        # employees per project
_NAMES = ("ada", "alan", "barbara", "claude", "donald", "edsger", "grace",
          "john", "kathleen", "niklaus")


class Workload(NamedTuple):
    name: str
    emp: int
    dept: int
    proj: int
    warmup: int             # uncounted head of the stream (part of setup_s)
    counted: int            # stream length after warm-up
    cache_capacity: int     # Server(result_cache_capacity=...), 0 = off
    view: bool              # materialized emp_dept = emp JOIN dept subscribed
    # (workload, rng) -> endless request iterator
    stream: Callable[["Workload", random.Random], Iterator[Request]]

    def sizes(self) -> Dict[str, int]:
        return {"emp": self.emp, "dept": self.dept, "proj": self.proj,
                "warmup": self.warmup, "counted": self.counted,
                "result_cache_capacity": self.cache_capacity}


def _shuffled_grid(count: int, low: int, span: int,
                   rng: random.Random) -> List[int]:
    """``count`` evenly spaced values on ``[low, low + span)``, shuffled:
    any threshold keeps the same share of rows whatever the seed."""
    values = [low + (span * i) // count for i in range(count)]
    rng.shuffle(values)
    return values


def build_tables(workload: Workload, seed: int) -> Dict[str, Table]:
    """``emp`` (keyed), ``dept`` and ``proj(emp, proj, hours)``."""
    rng = random.Random(seed * 7919 + 17)
    depts = [i % workload.dept for i in range(workload.emp)]
    rng.shuffle(depts)
    salaries = _shuffled_grid(workload.emp, _SALARY_LOW, _SALARY_SPAN, rng)
    emp_rows = [
        {"emp": i, "name": "%s-%d" % (_NAMES[i % len(_NAMES)], i),
         "dept": depts[i], "salary": salaries[i]}
        for i in range(workload.emp)
    ]
    dept_rows = [
        {"dept": d, "dname": "dept-%d" % d,
         "budget": 100000 + rng.randrange(900000)}
        for d in range(workload.dept)
    ]
    hours = _shuffled_grid(workload.proj, 1, _HOURS, rng)
    proj_rows = [
        {"emp": emp, "proj": proj, "hours": hours.pop()}
        for proj in range(_projects(workload))
        for emp in rng.sample(range(workload.emp), _MEMBERS)
    ]
    return {
        "emp": Table(["emp", "name", "dept", "salary"], emp_rows,
                     [KeyConstraint(["emp"])]),
        "dept": Table(["dept", "dname", "budget"], dept_rows),
        "proj": Table(["emp", "proj", "hours"], proj_rows),
    }


def build_stream(workload: Workload, seed: int,
                 scale: float = 1.0) -> Tuple[List[Request], int]:
    """``(requests in issue order, length of the warm-up head)``.

    ``scale`` shrinks both parts (``--smoke`` passes 0.05).
    """
    warm = max(4, round(workload.warmup * scale))
    counted = max(20, round(workload.counted * scale))
    requests = workload.stream(workload, random.Random(seed * 104729 + 5))
    return list(itertools.islice(requests, warm + counted)), warm


def _projects(w: Workload) -> int:
    return w.proj // _MEMBERS


def _salary(rng: random.Random) -> int:
    return _SALARY_LOW + rng.randrange(_SALARY_SPAN)


def _rotation(values: List[Any], rng: random.Random) -> Iterator[Any]:
    """Every value equally often, in a seeded order."""
    values = list(values)
    rng.shuffle(values)
    return itertools.cycle(values)


# ----------------------------------------------------------------------
# point_read: 70 % EXECUTE by key, 30 % QUERY of a dept name
# ----------------------------------------------------------------------

_POINT_CYCLE = ("execute", "query", "execute", "execute", "query",
                "execute", "execute", "execute", "query", "execute")


def _point_read(w: Workload, rng: random.Random) -> Iterator[Request]:
    for i, kind in enumerate(itertools.cycle(_POINT_CYCLE)):
        if kind == "execute":
            yield (i % 2, "execute", ("by_emp", [rng.randrange(w.emp)]))
        else:
            yield (i % 2, "query", "select dname from dept where dept = %d"
                   % rng.randrange(w.dept))


# ----------------------------------------------------------------------
# analytic_read: 35 % 2-way join, 15 % 3-way join, 25 % group-by,
# 25 % multi-page scan
# ----------------------------------------------------------------------

_ANALYTIC_CYCLE = (
    "join2", "scan", "group", "join2", "join3", "join2", "scan", "group",
    "join2", "group", "join2", "scan", "join3", "group", "join2", "scan",
    "join2", "group", "join3", "scan",
)
#: Parameter values per query shape.  Small on purpose: with the cache
#: off a repeated text costs the server the same as a fresh one, while
#: the unoptimized oracle (the expensive side of the answer check)
#: evaluates each distinct text once.
_ANALYTIC_PARAMS = 8


def _analytic_read(w: Workload, rng: random.Random) -> Iterator[Request]:
    texts = {
        "join3": ["select emp, name, dname, hours from emp join dept "
                  "join proj where proj = %d" % k
                  for k in rng.sample(range(_projects(w)), _ANALYTIC_PARAMS)],
        "join2": ["select emp, name, dname from emp join dept "
                  "where dept = %d" % k for k in range(w.dept)],
        "group": ["select dept, count(emp) as n, avg(salary) as pay "
                  "from emp where salary > %d group by dept"
                  % (_SALARY_LOW + 2500 * k)
                  for k in range(_ANALYTIC_PARAMS)],
        # proj is the largest table; these thresholds keep 60-100 % of
        # it, which is several 64-row pages.
        "scan": ["select * from proj where hours > %d" % (2 * k)
                 for k in range(_ANALYTIC_PARAMS)],
    }
    turn = {kind: _rotation(options, rng)
            for kind, options in texts.items()}
    for i, kind in enumerate(itertools.cycle(_ANALYTIC_CYCLE)):
        yield (i % 2, "query", next(turn[kind]))


# ----------------------------------------------------------------------
# write_heavy: c0 writes, c1 re-pins and reads after every 4th write
# ----------------------------------------------------------------------

#: Twelve writes: ten single-op MUTATEs (4 insert, 3 update, 3 delete of
#: an earlier insert) and two five-op batches, one inserting five rows
#: and one deleting them, so the table grows by one row per cycle.
_WRITE_CYCLE = ("insert", "update", "insert", "delete", "update",
                "insert5", "insert", "delete", "insert", "update",
                "delete", "delete5")


def _emp_row(emp_id: int, w: Workload, rng: random.Random) -> Dict[str, Any]:
    return {"emp": emp_id, "name": "new-%d" % emp_id,
            "dept": rng.randrange(w.dept), "salary": _salary(rng)}


def _write_heavy(w: Workload, rng: random.Random) -> Iterator[Request]:
    fresh = itertools.count(w.emp)
    inserted: List[int] = []      # live rows the stream added one by one
    batch: List[int] = []         # rows the last insert batch added
    for n, kind in enumerate(itertools.cycle(_WRITE_CYCLE), start=1):
        touched = rng.randrange(w.emp)
        if kind == "insert5":
            batch = [next(fresh) for _ in range(5)]
            ops = [["insert", "emp", _emp_row(k, w, rng)] for k in batch]
            touched = batch[0]
        elif kind == "delete5":
            ops = [["delete", "emp", {"emp": k}] for k in batch]
        elif kind == "delete":
            victim = inserted.pop(rng.randrange(len(inserted)))
            ops = [["delete", "emp", {"emp": victim}]]
        elif kind == "update":
            ops = [["update", "emp", {"emp": touched},
                    {"salary": _salary(rng)}]]
        else:
            touched = next(fresh)
            inserted.append(touched)
            ops = [["insert", "emp", _emp_row(touched, w, rng)]]
        yield (0, "mutate", ops)
        if n % 4 == 0:
            yield (1, "refresh", None)
            yield (1, "execute", ("by_emp", [touched]))


# ----------------------------------------------------------------------
# mixed_cached: Zipf reads over a pool larger than the cache, 7 % writes
# ----------------------------------------------------------------------

_POOL_SIZE = 160
_PROJ_BY_EMP = 90
#: One request in 14 is a write.  Kept away from 5 % on purpose: there
#: the all-request p95 sits on the read/write boundary and flips class
#: from run to run; at 7 % it is a low-middle write.
_WRITE_EVERY = 14
_REFRESH_EVERY = 40
#: Reads are dealt from a deck holding each text in proportion to its
#: Zipf(1) weight, reshuffled when it runs out.
_DECK = 1000


def _mixed_pool(w: Workload, rng: random.Random) -> List[str]:
    """160 texts in popularity order.  Those that scan ``emp`` (2-way
    joins, dept selects) are dropped from the cache by every write; the
    dept and proj lookups survive writes and leave only by LRU eviction.

    Each shape's texts are spread evenly over the ranks, so how popular
    the expensive shapes are does not depend on the seed; which key a
    rank asks for does.
    """
    shapes = [
        ["select dname from dept where dept = %d" % k
         for k in range(w.dept)],
        ["select emp, name, dname from emp join dept where dept = %d" % k
         for k in range(w.dept)],
        ["select emp, name, salary from emp where dept = %d" % k
         for k in range(w.dept)],
        ["select emp, hours from proj where proj = %d" % k
         for k in range(_projects(w))],
        ["select proj, hours from proj where emp = %d" % k
         for k in range(_PROJ_BY_EMP)],
    ]
    shapes.append(
        ["select emp, name, dname from emp join dept where emp = %d" % k
         for k in range(_POOL_SIZE - sum(map(len, shapes)))])
    slots = []
    for shape, texts in enumerate(shapes):
        rng.shuffle(texts)
        slots.extend(((j + 0.5) / len(texts), shape, text)
                     for j, text in enumerate(texts))
    return [text for _, _, text in sorted(slots)]


def _zipf_deck(pool: List[str], rng: random.Random) -> Iterator[str]:
    harmonic = sum(1.0 / rank for rank in range(1, len(pool) + 1))
    deck = [text for rank, text in enumerate(pool, start=1)
            for _ in range(round(_DECK / (rank * harmonic)))]
    while True:
        rng.shuffle(deck)
        yield from deck


def _mixed_cached(w: Workload, rng: random.Random) -> Iterator[Request]:
    """c0 also writes one-row updates; c1 is re-pinned only every 40th
    request, so it mostly reads at a version the writer has left."""
    reads = _zipf_deck(_mixed_pool(w, rng), rng)
    for i in itertools.count():
        if i % _REFRESH_EVERY == _REFRESH_EVERY - 1:
            yield (1, "refresh", None)
        elif i % _WRITE_EVERY == _WRITE_EVERY // 2:
            yield (0, "mutate", [[
                "update", "emp", {"emp": rng.randrange(w.emp)},
                {"salary": _salary(rng)},
            ]])
        else:
            yield (i % 2, "query", next(reads))


# ----------------------------------------------------------------------
# The four workloads (why each exists: ``BENCHMARK.json`` and README.md)
# ----------------------------------------------------------------------

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "point_read",
        emp=250, dept=10, proj=248, warmup=50, counted=2000,
        cache_capacity=0, view=False, stream=_point_read),
    Workload(
        "analytic_read",
        emp=100, dept=8, proj=200, warmup=20, counted=200,
        cache_capacity=0, view=False, stream=_analytic_read),
    Workload(
        "write_heavy",
        emp=64, dept=8, proj=64, warmup=20, counted=300,
        cache_capacity=0, view=False, stream=_write_heavy),
    Workload(
        "mixed_cached",
        emp=100, dept=8, proj=100, warmup=20, counted=600,
        cache_capacity=64, view=True, stream=_mixed_cached),
)}
