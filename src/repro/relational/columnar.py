"""Sorted-run columnar execution: the vectorized kernel fast path.

The row-at-a-time kernel pays Python interpreter cost per element:
``sigma_restrict`` and ``relative_product`` probe a member index but
re-scope every candidate they meet, in Python, and every intermediate
result is a fully materialized :class:`~repro.xst.xset.XSet`.  Childs' programme
says any physical layout that preserves canonical membership is
admissible (paper section 12: "all data representations have a
mathematical identity"), so this module trades layouts: a relation is
*encoded once* into per-attribute value arrays plus **sorted runs** of
:func:`~repro.xst.ordering.canonical_hash` keys, after which

* equality selection is a binary search over a run (O(log n + k)
  instead of O(n) subset tests),
* natural join is a **merge-intersection** of two sorted key ranges
  (no per-candidate re-scope),
* projection, rename, union and difference touch arrays, not XSets.

The :class:`~repro.xst.xset.XSet` stays the semantic model.  Every
columnar result canonicalizes (:meth:`ColumnarRelation.to_relation`)
to exactly the relation the row-at-a-time kernel produces -- a claim
enforced mechanically by the Hypothesis differential oracle in
``tests/relational/test_columnar_differential.py``, which is the
contract that makes the backend swap invisible except for speed.

Hash keys are *search accelerators*, never truth: a 32-bit
``canonical_hash`` can collide, so every hash hit is verified against
the actual values before a row survives.  Equality on values is
Python ``==``, which coincides with XST member equality for every
admissible value (``XSet.__eq__`` is a frozenset comparison over the
same values), so deduplication by raw value tuples is *exactly* the
kernel's set semantics -- including the ``1 == 1.0 == True`` twins.

Runs are ``array('Q')`` pairs (sorted hashes + row permutation) read
through zero-copy ``memoryview`` slices in the merge loops and searched
with ``bisect``.

Cooperative cancellation: every batch loop passes a
:class:`repro.gov.Governor` checkpoint (sites ``columnar.*``) charging
the same row ledgers as the row-at-a-time kernel sites, so deadlines
and budgets behave identically across backends (pinned by
``tests/gov/test_columnar_gov.py``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.gov.governor import active as _gov_active
from repro.obs import metrics as _metrics
from repro.obs.instrument import enabled as _obs_enabled
from repro.relational.relation import Relation
from repro.relational.schema import Heading
from repro.xst.builders import xrecord, xset
from repro.xst.ordering import canonical_hash
from repro.xst.xset import XSet

__all__ = [
    "SortedRun",
    "ColumnarRelation",
    "encode",
    "materialize",
]

#: Cancellation-checkpoint stride for columnar batch loops (power of
#: two, matching the row-at-a-time kernel's stride so governed
#: executions cross the same ledger totals on either backend).
_CHECK_EVERY = 1024

#: Mix multiplier for combining per-attribute hashes into one joint
#: join key (Knuth's 2^32 golden-ratio constant).  Joint hashes only
#: steer the merge; matches are verified on values.
_MIX = 0x9E3779B1
_MASK64 = (1 << 64) - 1


def _record_backend(op: str, backend: str) -> None:
    """Count one kernel-op execution by backend (observability on)."""
    if _obs_enabled():
        _metrics.registry().counter(
            "repro_kernel_backend_total",
            "Kernel operator executions by physical backend.",
            ("op", "backend"),
        ).inc_key((op, backend))


class SortedRun:
    """One attribute's sorted run: hash keys ascending + row permutation.

    ``hashes[i]`` is the ``canonical_hash`` of the attribute value in
    row ``perm[i]``; the hash array is sorted ascending (stably, so
    ``perm`` preserves row order within equal keys -- determinism, not
    correctness, rides on that).  The arrays are ``array('Q')`` and
    ``array('L')``.
    """

    __slots__ = ("hashes", "perm")

    def __init__(self, hashes, perm):
        self.hashes = hashes
        self.perm = perm

    def __len__(self) -> int:
        return len(self.hashes)

    def equal_range(self, key: int) -> Tuple[int, int]:
        """The half-open index range of ``key`` in the sorted hashes."""
        return (
            bisect_left(self.hashes, key),
            bisect_right(self.hashes, key),
        )

    @classmethod
    def build(cls, values: Sequence[Any]) -> "SortedRun":
        """Encode one column: hash every value, sort stably by hash.

        This is the *once per encode* cost that buys O(log n) searches
        thereafter; the per-element Python work the row kernel pays on
        every operation is paid here a single time.
        """
        return cls._of_keys([canonical_hash(value) for value in values])

    @classmethod
    def _of_keys(cls, keys: List[int]) -> "SortedRun":
        """The run of one hash key per row, sorted stably."""
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return cls(
            array("Q", (keys[index] for index in order)),
            array("L", order),
        )


class ColumnarRelation:
    """A relation in columnar run encoding: the kernel fast path.

    ``columns`` maps each attribute to its value list in row order;
    sorted runs are built lazily per attribute (and per joint join
    key) and cached, so a relation only pays encoding cost for the
    attributes queries actually touch.

    Instances produced by the operator methods below are duplicate-row
    free whenever their inputs are (projection, union and difference
    deduplicate by raw value tuples -- Python equality *is* XST member
    equality for admissible values), so cardinalities agree with the
    row backend at every plan node, which keeps governor row charges
    identical across backends.
    """

    __slots__ = (
        "_heading", "_columns", "_length", "_runs", "_joint_runs",
        "_relation",
    )

    def __init__(
        self,
        heading: Sequence[str],
        columns: Mapping[str, Sequence[Any]],
        length: Optional[int] = None,
    ):
        self._heading = heading if isinstance(heading, Heading) else Heading(heading)
        self._columns: Dict[str, List[Any]] = {}
        lengths = set()
        for name in self._heading.names:
            if name not in columns:
                raise SchemaError(
                    "missing column %r for heading %r" % (name, self._heading)
                )
            values = columns[name]
            values = values if isinstance(values, list) else list(values)
            self._columns[name] = values
            lengths.add(len(values))
        if len(lengths) > 1:
            raise SchemaError(
                "ragged columns: %s"
                % sorted((name, len(col)) for name, col in self._columns.items())
            )
        if lengths:
            inferred = lengths.pop()
            if length is not None and length != inferred:
                raise SchemaError(
                    "explicit length %d contradicts column length %d"
                    % (length, inferred)
                )
            self._length = inferred
        else:
            # Zero-attribute relations still carry a row count: the
            # projection of a non-empty relation onto no attributes is
            # the single empty row (set semantics; see project()).
            self._length = int(length or 0)
        self._runs: Dict[str, SortedRun] = {}
        self._joint_runs: Dict[Tuple[str, ...], SortedRun] = {}
        self._relation: Optional[Relation] = None

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def heading(self) -> Heading:
        return self._heading

    def __len__(self) -> int:
        return self._length

    def cardinality(self) -> int:
        """Row count, without canonicalizing (plan-node checkpoints)."""
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def column(self, attr: str) -> List[Any]:
        self._heading.require([attr])
        return list(self._columns[attr])

    def __repr__(self) -> str:
        return "ColumnarRelation(%r, %d rows)" % (self._heading, self._length)

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------

    def run(self, attr: str) -> SortedRun:
        """The attribute's sorted run, built on first use and cached."""
        cached = self._runs.get(attr)
        if cached is None:
            self._heading.require([attr])
            cached = SortedRun.build(self._columns[attr])
            self._runs[attr] = cached
        return cached

    def joint_run(self, attrs: Sequence[str]) -> SortedRun:
        """A run over the mixed hash of several attributes (join keys)."""
        wanted = tuple(attrs)
        if len(wanted) == 1:
            return self.run(wanted[0])
        cached = self._joint_runs.get(wanted)
        if cached is None:
            self._heading.require(wanted)
            cols = [self._columns[attr] for attr in wanted]
            mixed = [0] * self._length
            for col in cols:
                for index in range(self._length):
                    mixed[index] = (
                        mixed[index] * _MIX + canonical_hash(col[index])
                    ) & _MASK64
            cached = SortedRun._of_keys(mixed)
            self._joint_runs[wanted] = cached
        return cached

    # ------------------------------------------------------------------
    # Conversion (the canonical identity)
    # ------------------------------------------------------------------

    @classmethod
    def from_relation(cls, relation: Relation) -> "ColumnarRelation":
        names = relation.heading.names
        columns: Dict[str, List[Any]] = {name: [] for name in names}
        count = 0
        for record in relation.iter_dicts():
            count += 1
            for name in names:
                columns[name].append(record[name])
        encoded = cls(relation.heading, columns, length=count)
        encoded._relation = relation
        return encoded

    def canonical(self) -> XSet:
        """The mathematical identity: the set of attribute-scoped rows."""
        names = self._heading.names
        cols = [self._columns[name] for name in names]
        return xset(
            xrecord({name: col[index] for name, col in zip(names, cols)})
            for index in range(self._length)
        )

    def to_relation(self) -> Relation:
        """Canonicalize back to the row model (cached).

        This is the only place a columnar pipeline pays XSet
        construction cost -- once, at the boundary, proportional to
        the *result*, not to any intermediate.
        """
        if self._relation is None:
            self._relation = Relation(self._heading, self.canonical())
        return self._relation

    # ------------------------------------------------------------------
    # Kernel operators (batch loops, governor checkpoints per batch)
    # ------------------------------------------------------------------

    def _take(self, indices: Sequence[int],
              heading: Optional[Heading] = None) -> "ColumnarRelation":
        """A new encoding holding the given rows (heading order kept)."""
        heading = self._heading if heading is None else heading
        columns = {}
        for name in heading.names:
            col = self._columns[name]
            columns[name] = [col[index] for index in indices]
        return ColumnarRelation(heading, columns, length=len(indices))

    def restrict(self, comparisons) -> "ColumnarRelation":
        """A conjunction of ``algebra.Comparison`` values: binary search
        over the narrowest equality run, then the other comparisons on
        the candidates.

        The first equality at each attribute probes its run (O(log n));
        each candidate of the narrowest range is verified *by value*
        (``==``) -- hash collisions reject here, never in the result --
        and then asked every other comparison in order, as record mode
        asks; with no equality every row is a candidate.
        """
        key: Dict[str, Any] = {}
        rest = []
        for comparison in comparisons:
            if comparison.operator == "=" and comparison.attr not in key:
                key[comparison.attr] = comparison.value
            else:
                rest.append(comparison)
        attrs = self._heading.require(key)
        asked = self._heading.require(
            dict.fromkeys(comparison.attr for comparison in rest)
        )
        _record_backend("restrict", "columnar")
        if not attrs or self._length == 0:
            candidates: Sequence[int] = range(self._length)
        else:
            best_range: Optional[Tuple[int, int]] = None
            best_run: Optional[SortedRun] = None
            for attr in attrs:
                run = self.run(attr)
                lo, hi = run.equal_range(canonical_hash(key[attr]))
                if best_range is None or \
                        hi - lo < best_range[1] - best_range[0]:
                    best_range, best_run = (lo, hi), run
                if hi == lo:
                    break
            lo, hi = best_range  # type: ignore[misc]
            candidates = memoryview(best_run.perm)[lo:hi] \
                if isinstance(best_run.perm, array) else best_run.perm[lo:hi]
        cols = {attr: self._columns[attr] for attr in attrs}
        others = [(attr, self._columns[attr]) for attr in asked]
        # Charged what the row kernel charges: the rows the equalities
        # keep (its Def 7.6 restriction), nothing for the other
        # comparisons (a separation).
        gov = _gov_active() if attrs else None
        matched = charged = 0
        kept: List[int] = []
        for scanned, row in enumerate(candidates, 1):
            row = int(row)
            for attr in attrs:
                if not cols[attr][row] == key[attr]:
                    break
            else:
                matched += 1
                if not rest or all(
                    comparison({attr: col[row] for attr, col in others})
                    for comparison in rest
                ):
                    kept.append(row)
            if gov is not None and not (scanned & (_CHECK_EVERY - 1)):
                gov.checkpoint("columnar.restrict", matched - charged)
                charged = matched
        if gov is not None:
            gov.checkpoint("columnar.restrict", matched - charged)
        kept.sort()  # storage order: keeps run builds deterministic
        return self._take(kept)

    def project(self, attrs: Sequence[str]) -> "ColumnarRelation":
        """Projection with set-semantics duplicate collapse.

        Deduplication keys are the raw value tuples: Python ``==`` /
        ``hash`` coincide with XST member equality for admissible
        values, so exactly the rows an ``XSet`` would collapse are
        collapsed (including ``1`` / ``1.0`` / ``True`` twins).  The
        projection of a *non-empty* relation onto **no** attributes is
        the single empty row ``{{}}`` -- set semantics' DEE -- carried
        here as a zero-attribute encoding of length one.
        """
        wanted = self._heading.require(attrs)
        heading = Heading(wanted)
        if not wanted:
            _record_backend("project", "columnar")
            return ColumnarRelation(
                heading, {}, length=1 if self._length else 0
            )
        cols = [self._columns[attr] for attr in wanted]
        gov = _gov_active()
        seen = set()
        keep: List[int] = []
        for index in range(self._length):
            key = tuple(col[index] for col in cols)
            if key not in seen:
                seen.add(key)
                keep.append(index)
            if gov is not None and not ((index + 1) & (_CHECK_EVERY - 1)):
                # Deadline-only: the row kernel's sigma-domain charges
                # no budget rows for projection, and backends must
                # draw identical ledger totals (the parity property in
                # tests/gov/test_columnar_gov.py) -- but a long dedup
                # loop still honors deadlines batch-by-batch.
                gov.checkpoint("columnar.project")
        _record_backend("project", "columnar")
        return self._take(keep, heading)

    def rename(self, mapping: Mapping[str, str]) -> "ColumnarRelation":
        """Re-scope by renaming columns -- and *carry the runs over*.

        The row kernel rebuilds every row; the columnar rename is a
        dictionary re-key.  Cached runs transfer because hashes depend
        on values, not attribute names.
        """
        self._heading.require(mapping)
        new_heading = self._heading.rename(dict(mapping))
        columns = {
            mapping.get(name, name): self._columns[name]
            for name in self._heading.names
        }
        renamed = ColumnarRelation(new_heading, columns, length=self._length)
        for attr, run in self._runs.items():
            renamed._runs[mapping.get(attr, attr)] = run
        _record_backend("rename", "columnar")
        return renamed

    def join(self, other: "ColumnarRelation") -> "ColumnarRelation":
        """Natural join as a merge-intersection of sorted key runs.

        Both sides' joint runs (mixed hash over the shared attributes)
        are walked with two cursors; equal-hash blocks cross-verify on
        the actual values and matching pairs emit merged rows.  With
        no shared attribute this degrades to the cross-product batch
        kernel, mirroring ``algebra.join``.
        """
        shared = self._heading.common(other._heading)
        if not shared:
            return self.cross(other)
        out_heading = self._heading.union(other._heading)
        right_only = [
            name for name in other._heading.names if name not in self._heading
        ]
        left_run = self.joint_run(shared)
        right_run = other.joint_run(shared)
        left_cols = {attr: self._columns[attr] for attr in shared}
        right_cols = {attr: other._columns[attr] for attr in shared}
        lh, rh = left_run.hashes, right_run.hashes
        lp = memoryview(left_run.perm) if isinstance(left_run.perm, array) \
            else left_run.perm
        rp = memoryview(right_run.perm) if isinstance(right_run.perm, array) \
            else right_run.perm
        nl, nr = len(lh), len(rh)
        gov = _gov_active()
        charged = 0
        matches: List[Tuple[int, int]] = []
        i = j = 0
        while i < nl and j < nr:
            a, b = lh[i], rh[j]
            if a < b:
                i = bisect_left(lh, b, i + 1)
            elif b < a:
                j = bisect_left(rh, a, j + 1)
            else:
                i2 = bisect_right(lh, a, i)
                j2 = bisect_right(rh, b, j)
                for li in lp[i:i2]:
                    li = int(li)
                    for rj in rp[j:j2]:
                        rj = int(rj)
                        for attr in shared:
                            if not left_cols[attr][li] == right_cols[attr][rj]:
                                break
                        else:
                            matches.append((li, rj))
                            if gov is not None and not (
                                len(matches) & (_CHECK_EVERY - 1)
                            ):
                                gov.checkpoint(
                                    "columnar.join",
                                    len(matches) - charged,
                                )
                                charged = len(matches)
                i, j = i2, j2
        if gov is not None:
            gov.checkpoint("columnar.join", len(matches) - charged)
        columns: Dict[str, List[Any]] = {}
        for name in self._heading.names:
            col = self._columns[name]
            columns[name] = [col[li] for li, _ in matches]
        for name in right_only:
            col = other._columns[name]
            columns[name] = [col[rj] for _, rj in matches]
        _record_backend("join", "columnar")
        return ColumnarRelation(out_heading, columns, length=len(matches))

    def semijoin(self, other: "ColumnarRelation") -> "ColumnarRelation":
        """Rows of ``self`` with at least one partner: restriction.

        The same merge-intersection as :meth:`join`, keeping left row
        indices only (each once) -- restriction *is* semijoin.
        """
        shared = self._heading.common(other._heading)
        if not shared:
            raise SchemaError("semijoin needs at least one shared attribute")
        left_run = self.joint_run(shared)
        right_run = other.joint_run(shared)
        left_cols = {attr: self._columns[attr] for attr in shared}
        right_cols = {attr: other._columns[attr] for attr in shared}
        lh, rh = left_run.hashes, right_run.hashes
        lp = left_run.perm
        rp = right_run.perm
        nl, nr = len(lh), len(rh)
        gov = _gov_active()
        charged = 0
        kept: List[int] = []
        i = j = 0
        while i < nl and j < nr:
            a, b = lh[i], rh[j]
            if a < b:
                i = bisect_left(lh, b, i + 1)
            elif b < a:
                j = bisect_left(rh, a, j + 1)
            else:
                i2 = bisect_right(lh, a, i)
                j2 = bisect_right(rh, b, j)
                for ii in range(i, i2):
                    li = int(lp[ii])
                    for jj in range(j, j2):
                        rj = int(rp[jj])
                        for attr in shared:
                            if not left_cols[attr][li] == right_cols[attr][rj]:
                                break
                        else:
                            kept.append(li)
                            break
                if gov is not None:
                    gov.checkpoint("columnar.restrict", len(kept) - charged)
                    charged = len(kept)
                i, j = i2, j2
        if gov is not None:
            gov.checkpoint("columnar.restrict", len(kept) - charged)
        kept.sort()
        _record_backend("restrict", "columnar")
        return self._take(kept)

    def cross(self, other: "ColumnarRelation") -> "ColumnarRelation":
        """Cartesian product batch kernel (disjoint headings).

        Checkpoints every :data:`_CHECK_EVERY` emitted rows, matching
        the stride of :func:`repro.xst.products.cross` so a governed
        runaway product dies just as promptly on this backend.
        """
        if not self._heading.disjoint_from(other._heading):
            raise SchemaError(
                "cross requires disjoint headings; shared: %s"
                % list(self._heading.common(other._heading))
            )
        out_heading = self._heading.union(other._heading)
        gov = _gov_active()
        nl, nr = self._length, other._length
        total = nl * nr
        if gov is not None:
            emitted = 0
            while emitted < total:
                batch = min(_CHECK_EVERY, total - emitted)
                emitted += batch
                gov.checkpoint("columnar.cross", batch)
        columns: Dict[str, List[Any]] = {}
        for name in self._heading.names:
            col = self._columns[name]
            columns[name] = [value for value in col for _ in range(nr)]
        for name in other._heading.names:
            col = other._columns[name]
            columns[name] = col * nl
        _record_backend("cross", "columnar")
        return ColumnarRelation(out_heading, columns, length=total)

    def union(self, other: "ColumnarRelation") -> "ColumnarRelation":
        """Set union by value-tuple deduplication (same heading)."""
        self._require_same_heading(other)
        names = self._heading.names
        seen = set()
        columns: Dict[str, List[Any]] = {name: [] for name in names}
        count = 0
        for source in (self, other):
            cols = [source._columns[name] for name in names]
            for index in range(source._length):
                key = tuple(col[index] for col in cols)
                if key not in seen:
                    seen.add(key)
                    count += 1
                    for name, value in zip(names, key):
                        columns[name].append(value)
        _record_backend("union", "columnar")
        return ColumnarRelation(self._heading, columns, length=count)

    def difference(self, other: "ColumnarRelation") -> "ColumnarRelation":
        """Set difference by value-tuple membership (same heading)."""
        self._require_same_heading(other)
        names = self._heading.names
        other_cols = [other._columns[name] for name in names]
        drop = {
            tuple(col[index] for col in other_cols)
            for index in range(other._length)
        }
        cols = [self._columns[name] for name in names]
        kept = [
            index
            for index in range(self._length)
            if tuple(col[index] for col in cols) not in drop
        ]
        _record_backend("difference", "columnar")
        return self._take(kept)

    def _require_same_heading(self, other: "ColumnarRelation") -> None:
        if self._heading != other._heading:
            raise SchemaError(
                "headings differ: %r vs %r" % (self._heading, other._heading)
            )


def encode(relation: Relation) -> ColumnarRelation:
    """Encode a relation into the sorted-run columnar layout."""
    return ColumnarRelation.from_relation(relation)


def materialize(operand) -> Relation:
    """Collapse either backend's operand to the canonical row model."""
    if isinstance(operand, ColumnarRelation):
        return operand.to_relation()
    return operand
