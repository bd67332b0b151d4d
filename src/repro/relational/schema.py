"""Relation headings: named, ordered attribute sets.

The 1977 programme reads a database relation as an extended set of
rows, each row an extended set whose *scopes are the attribute names*
(``{v1^'emp', v2^'dept', ...}``).  A :class:`Heading` declares and
validates that scope alphabet: which attribute names a relation's rows
must carry, exactly once each.

Headings keep a declaration order for presentation (column order in
``to_rows`` output and examples) while comparing as sets -- two
headings with the same names are the same heading, matching the
set-theoretic reading.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.errors import SchemaError
from repro.xst.ordering import canonical_key
from repro.xst.xset import Immutable

__all__ = ["Heading"]


class Heading(Immutable):
    """An immutable collection of distinct attribute names."""

    __slots__ = ("_names", "_name_set", "_keys")

    #: ``canonical_key`` of each name, in declaration order; ``None``
    #: until :meth:`_scope_keys` is first called.
    _keys: Optional[Tuple[Tuple, ...]]

    def __init__(self, names: Iterable[str]):
        ordered = tuple(names)
        for name in ordered:
            if not isinstance(name, str) or not name:
                raise SchemaError("attribute names must be non-empty strings")
        name_set = frozenset(ordered)
        if len(name_set) != len(ordered):
            raise SchemaError("duplicate attribute names in %r" % (ordered,))
        object.__setattr__(self, "_names", ordered)
        object.__setattr__(self, "_name_set", name_set)
        object.__setattr__(self, "_keys", None)

    def __reduce__(self):
        return Heading, (self._names,)

    @property
    def names(self) -> Tuple[str, ...]:
        return self._names

    def _scope_keys(self) -> Tuple[Tuple, ...]:
        """The canonical keys of :attr:`names`, in step with them.

        Derived once and kept on the heading, so every row built under
        it (``XSet._record``) shares one key object per attribute, and
        the keys go when the heading does.
        """
        keys = self._keys
        if keys is None:
            keys = tuple(map(canonical_key, self._names))
            object.__setattr__(self, "_keys", keys)
        return keys

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._name_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, Heading):
            return NotImplemented
        return self._name_set == other._name_set

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash(("repro.Heading", self._name_set))

    def __repr__(self) -> str:
        return "Heading(%s)" % ", ".join(self._names)

    # ------------------------------------------------------------------
    # Derivations
    # ------------------------------------------------------------------

    def require(self, names: Iterable[str]) -> Tuple[str, ...]:
        """Validate that every name exists; return them in given order."""
        wanted = tuple(names)
        if not self._name_set.issuperset(wanted):
            missing = [name for name in wanted if name not in self._name_set]
            raise SchemaError(
                "unknown attributes %s; heading has %s"
                % (missing, list(self._names))
            )
        return wanted

    def project(self, names: Iterable[str]) -> "Heading":
        """The sub-heading of the given attributes (order as given)."""
        return Heading(self.require(names))

    def remove(self, names: Iterable[str]) -> "Heading":
        """The heading without the given attributes."""
        dropped = frozenset(self.require(names))
        return Heading(name for name in self._names if name not in dropped)

    def rename(self, mapping: Dict[str, str]) -> "Heading":
        """Apply an old-name -> new-name mapping (others unchanged)."""
        self.require(mapping)
        return Heading(mapping.get(name, name) for name in self._names)

    def union(self, other: "Heading") -> "Heading":
        """Joint heading; shared names appear once, self's order first."""
        extra = [name for name in other._names if name not in self._name_set]
        return Heading(self._names + tuple(extra))

    def common(self, other: "Heading") -> Tuple[str, ...]:
        """Shared attribute names, in self's declaration order."""
        return tuple(name for name in self._names if name in other._name_set)

    def disjoint_from(self, other: "Heading") -> bool:
        return not self._name_set & other._name_set
