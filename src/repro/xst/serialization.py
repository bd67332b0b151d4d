"""Serialization of extended sets: canonical bytes, stable digests.

A backend information system has to put its sets on disk and ship
them between nodes.  This module gives every admissible XST value a
canonical byte encoding with three properties the rest of the library
leans on:

* **lossless** -- ``loads(dumps(v)) == v`` for every value an
  :class:`~repro.xst.xset.XSet` admits: its atoms (None, bool, int,
  float, complex, str, bytes) are exactly what this codec carries, and
  any other value -- a ``nan``, which equals nothing, included -- is
  refused both ways with the kernel's own reason;
* **canonical** -- equal values encode to identical bytes (pairs are
  emitted in the kernel's canonical order), so ``digest`` is a usable
  content address; and ``loads`` accepts only the bytes ``dumps``
  writes (an ``I`` payload is ``-?[1-9][0-9]*`` or ``0``), so a decoded
  value re-encodes to its input;
* **self-delimiting** -- streams of values concatenate, which the
  page-based store (:mod:`repro.relational.disk`) relies on.

One caveat inherited from Python equality: ``1``, ``1.0`` and ``True``
are equal as set members (an XSet keeps whichever arrived first) but
encode with their own types, so two XSets that compare equal while
holding differently-typed numeric twins can produce different digests.
Sets built from consistently-typed data -- every relation in this
library -- are unaffected.

Format (one byte tag + payload):

====  =======================================================
tag   payload
====  =======================================================
``N``  None
``T``  True  /  ``F``  False
``I``  signed int: u32 byte length + decimal ASCII
``D``  float: 8-byte IEEE-754 big-endian
``C``  complex: two 8-byte IEEE-754 doubles
``S``  str: u32 byte length + UTF-8 bytes
``B``  bytes: u32 length + raw bytes
``X``  XSet: u32 pair count + (element, scope) encodings
====  =======================================================
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Iterator, Tuple

from repro.errors import InvalidAtomError
from repro.xst.xset import EMPTY, XSet, _check_admissible

__all__ = ["dumps", "loads", "digest", "dump_stream", "load_stream"]

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")
_pack_u32 = _U32.pack
_u32_at = _U32.unpack_from
_f64_at = _F64.unpack_from

#: The tags as ``_decode`` reads them: indexing bytes yields an int.
_N, _T, _F, _I, _D, _C, _S, _B, _X = b"NTFIDCSBX"
#: The empty set: the scope of every classical member.
_EMPTY_SET = b"X\x00\x00\x00\x00"


def _not_canonical(text: bytes) -> InvalidAtomError:
    return InvalidAtomError(
        "malformed XST serialization: %r is no integer dumps writes" % (text,)
    )


def _encode(value: Any, out: bytearray) -> None:
    if isinstance(value, XSet):
        pairs = value._pairs
        out += b"X"
        out += _pack_u32(len(pairs))
        # A row is a set of atom pairs: its str and int parts (exact
        # types only, so bool and other subclasses keep the ladder below)
        # and empty scopes are written here; only the rest costs a call.
        for pair in pairs:
            for part in pair:
                kind = type(part)
                if kind is str:
                    raw = part.encode("utf-8")
                    out += b"S"
                    out += _pack_u32(len(raw))
                    out += raw
                elif kind is int:
                    text = b"%d" % part
                    out += b"I"
                    out += _pack_u32(len(text))
                    out += text
                elif kind is XSet and not part._pairs:
                    out += _EMPTY_SET
                else:
                    _encode(part, out)
    elif value is None:
        out += b"N"
    elif isinstance(value, bool):
        out += b"T" if value else b"F"
    elif isinstance(value, int):
        text = b"%d" % value
        out += b"I"
        out += _pack_u32(len(text))
        out += text
    elif isinstance(value, float) and value == value:
        out += b"D"
        out += _F64.pack(value)
    elif isinstance(value, complex) and value == value:
        out += b"C"
        out += _F64.pack(value.real)
        out += _F64.pack(value.imag)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"S"
        out += _pack_u32(len(raw))
        out += raw
    elif isinstance(value, bytes):
        out += b"B"
        out += _pack_u32(len(value))
        out += value
    else:  # no XST value: the kernel's rule refuses it, saying why
        _check_admissible(value, "an element")


def dumps(value: Any) -> bytes:
    """Canonical byte encoding of one admissible value."""
    out = bytearray()
    _encode(value, out)
    return bytes(out)


def _truncated() -> InvalidAtomError:
    return InvalidAtomError("truncated XST serialization")


def _decode(data: bytes, at: int) -> Tuple[Any, int]:
    """The value encoded at offset ``at`` of ``data``, and the offset
    just past it.  Every length is checked against ``len(data)`` before
    it is read."""
    end = len(data)
    if at >= end:
        raise _truncated()
    tag = data[at]
    at += 1
    if tag == _X:
        if at + 4 > end:
            raise _truncated()
        (count,) = _u32_at(data, at)
        at += 4
        # Each part takes at least its tag byte, so a count the payload
        # cannot hold is refused before anything is allocated for it.
        if count * 2 > end - at:
            raise _truncated()
        parts = [None] * (count * 2)
        # The pair loop reads str and int atoms and empty sets in place,
        # as _encode writes them; any other part costs a call.
        for index in range(count * 2):
            if at >= end:
                raise _truncated()
            tag = data[at]
            if tag == _S or tag == _I:
                if at + 5 > end:
                    raise _truncated()
                (length,) = _u32_at(data, at + 1)
                start = at + 5
                at = start + length
                if at > end:
                    raise _truncated()
                if tag == _S:
                    parts[index] = data[start:at].decode("utf-8")
                else:
                    text = data[start:at]
                    value = parts[index] = int(text)
                    if b"%d" % value != text:
                        raise _not_canonical(text)
            elif tag == _X and data[at:at + 5] == _EMPTY_SET:
                parts[index] = EMPTY
                at += 5
            else:
                parts[index], at = _decode(data, at)
        return XSet(zip(parts[::2], parts[1::2])), at
    if tag == _S or tag == _I or tag == _B:
        if at + 4 > end:
            raise _truncated()
        (length,) = _u32_at(data, at)
        start = at + 4
        at = start + length
        if at > end:
            raise _truncated()
        if tag == _S:
            return data[start:at].decode("utf-8"), at
        if tag == _I:
            text = data[start:at]
            value = int(text)
            if b"%d" % value != text:
                raise _not_canonical(text)
            return value, at
        return data[start:at], at
    if tag == _N:
        return None, at
    if tag == _T:
        return True, at
    if tag == _F:
        return False, at
    if tag == _D:
        if at + 8 > end:
            raise _truncated()
        (value,) = _f64_at(data, at)
        if value != value:
            _check_admissible(value, "an element")
        return value, at + 8
    if tag == _C:
        if at + 16 > end:
            raise _truncated()
        (real,) = _f64_at(data, at)
        (imag,) = _f64_at(data, at + 8)
        value = complex(real, imag)
        if value != value:
            _check_admissible(value, "an element")
        return value, at + 16
    raise InvalidAtomError("unknown serialization tag %r" % (bytes([tag]),))


def _decoded(data: bytes, at: int) -> Tuple[Any, int]:
    """:func:`_decode`, refusing a malformed atom (an ``I`` payload that
    is not an integer as ``dumps`` spells it, an ``S`` payload that is
    not UTF-8, a ``D`` or ``C`` payload that is ``nan``) as
    :class:`InvalidAtomError` like any other bad encoding."""
    try:
        return _decode(data, at)
    except ValueError as exc:  # UnicodeDecodeError is one
        raise InvalidAtomError("malformed XST serialization: %s" % exc) from exc


def loads(data: bytes) -> Any:
    """Decode one value; a truncated or malformed encoding, or trailing
    bytes, is an :class:`InvalidAtomError`."""
    value, at = _decoded(data, 0)
    if at < len(data):
        raise InvalidAtomError(
            "trailing bytes after value (%d unread)" % (len(data) - at)
        )
    return value


def digest(value: Any) -> str:
    """Stable content address: SHA-256 of the canonical encoding.

    Equal extended sets -- regardless of construction order -- share a
    digest, which is what makes set-level change detection and
    distributed shipping cheap.
    """
    return hashlib.sha256(dumps(value)).hexdigest()


def dump_stream(values) -> bytes:
    """Concatenate the encodings of many values (self-delimiting)."""
    out = bytearray()
    for value in values:
        _encode(value, out)
    return bytes(out)


def load_stream(data: bytes) -> Iterator[Any]:
    """Decode a concatenated stream back into its values, lazily."""
    at = 0
    while at < len(data):
        value, at = _decoded(data, at)
        yield value
