"""Codecs translating Python objects to the byte-oriented base tables.

The transactional layer works on arbitrary Python keys/values; the storage
layer (:mod:`repro.storage`) works on bytes.  A :class:`Codec` bridges the
two.  A key codec that *preserves order* — byte order of the encodings
equals Python order of the keys — lets a lazy table push a range scan's
bounds down into the base table (:meth:`Codec.encode_bound`) instead of
sweeping the whole partition.  The default key codec,
:class:`OrderedKeyCodec`, does that for ints, ``str``, ``bytes`` and
tuples of them; ``IntCodec`` (fixed-width big-endian), ``StrCodec``
(UTF-8) and ``BytesCodec`` are order-preserving for the one type they
accept.  ``PickleCodec`` and ``JsonCodec`` are not, so tables keyed
through them keep the full-sweep scan.
"""

from __future__ import annotations

import abc
import json
import pickle
import struct
from typing import Any


class Codec(abc.ABC):
    """Bidirectional object <-> bytes translation."""

    #: ``True`` when comparable keys encode in their Python order, so a
    #: scan bound can be encoded and compared against stored keys.
    order_preserving = False
    #: Lowest encoding of the keys an order-preserving codec stores
    #: *without* order (``None``: every key is ordered).  Everything at or
    #: above it is unordered, so a bounded scan reads that region whole.
    unordered_region: bytes | None = None

    @property
    def format_name(self) -> str:
        """Name a catalog records for the bytes this codec writes: data
        written under one name is read back only under the same name."""
        return type(self).__name__

    @abc.abstractmethod
    def encode(self, obj: Any) -> bytes:
        """Serialise ``obj``."""

    @abc.abstractmethod
    def decode(self, data: bytes) -> Any:
        """Inverse of :meth:`encode`."""

    def encode_bound(self, bound: Any) -> bytes | None:
        """Encode a scan bound, or ``None`` when it cannot be compared.

        A non-``None`` result ``b`` guarantees, for every stored key ``k``
        outside :attr:`unordered_region` that Python can compare with
        ``bound``, that ``bound <= k`` iff ``b <= encode(k)``.
        """
        if not self.order_preserving:
            return None
        try:
            return self.encode(bound)
        except (TypeError, ValueError):
            return None


class BytesCodec(Codec):
    """Identity codec for callers that already speak bytes."""

    order_preserving = True

    def encode(self, obj: Any) -> bytes:
        if not isinstance(obj, (bytes, bytearray)):
            raise TypeError(f"BytesCodec expects bytes, got {type(obj).__name__}")
        return bytes(obj)

    def decode(self, data: bytes) -> bytes:
        return data


class StrCodec(Codec):
    """UTF-8 strings; order-preserving (UTF-8 byte order is code-point
    order, which is Python's ``str`` order)."""

    order_preserving = True

    def encode(self, obj: Any) -> bytes:
        if not isinstance(obj, str):
            raise TypeError(f"StrCodec expects str, got {type(obj).__name__}")
        return obj.encode("utf-8")

    def decode(self, data: bytes) -> str:
        return data.decode("utf-8")


class IntCodec(Codec):
    """Fixed-width unsigned integers, big-endian => order-preserving.

    The paper's workload uses 4-byte keys; ``width=4`` is the default and
    matches it exactly.
    """

    order_preserving = True

    def __init__(self, width: int = 4) -> None:
        if width not in (1, 2, 4, 8):
            raise ValueError(f"unsupported integer width: {width}")
        self.width = width
        self._max = (1 << (8 * width)) - 1

    @property
    def format_name(self) -> str:
        return f"IntCodec({self.width})"

    def encode(self, obj: Any) -> bytes:
        if not isinstance(obj, int) or isinstance(obj, bool):
            raise TypeError(f"IntCodec expects int, got {type(obj).__name__}")
        if not 0 <= obj <= self._max:
            raise ValueError(f"{obj} out of range for {self.width}-byte unsigned int")
        return obj.to_bytes(self.width, "big")

    def decode(self, data: bytes) -> int:
        return int.from_bytes(data, "big")


class FloatCodec(Codec):
    """IEEE-754 doubles (not order-preserving across signs; value use only)."""

    _pack = struct.Struct(">d")

    def encode(self, obj: Any) -> bytes:
        return self._pack.pack(float(obj))

    def decode(self, data: bytes) -> float:
        return self._pack.unpack(data)[0]


class JsonCodec(Codec):
    """JSON for structured values (tuples become lists on decode)."""

    def encode(self, obj: Any) -> bytes:
        return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")

    def decode(self, data: bytes) -> Any:
        return json.loads(data.decode("utf-8"))


class PickleCodec(Codec):
    """Pickle for arbitrary Python values (the permissive default)."""

    def encode(self, obj: Any) -> bytes:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)

    def decode(self, data: bytes) -> Any:
        return pickle.loads(data)


# Type tags of the ordered key layout (see :class:`OrderedKeyCodec`).
_BYTES = 0x01
_STR = 0x02
_TUPLE = 0x05
_NEG_INT = 0x13
_POS_INT = 0x14
_UNORDERED = 0xFF
_ESCAPED_NUL = b"\x00\xff"
#: Length bytes at or above this spill into an 8-byte length.
_LONG = 0xFF
_MASK64 = (1 << 64) - 1
#: Precomputed ``tag + length`` heads of non-negative ints (the hot path).
_POS_HEAD = [bytes((_POS_INT, n)) for n in range(_LONG)]
#: Non-negative ints below this have a one-byte length (the fast path).
_MAX_SHORT = 1 << (8 * (_LONG - 1))


class _Unordered(Exception):
    """Raised inside the ordered encoder for a value it cannot order."""


def _encode_ordered(obj: Any, out: bytearray) -> None:
    kind = type(obj)
    if kind is int:
        if obj >= 0:
            n = (obj.bit_length() + 7) >> 3
            out.append(_POS_INT)
            if n < _LONG:
                out.append(n)
            else:
                out.append(_LONG)
                out += n.to_bytes(8, "big")
            out += obj.to_bytes(n, "big")
        else:
            n = ((-obj).bit_length() + 7) >> 3
            out.append(_NEG_INT)
            if n < _LONG:
                out.append(_LONG - n)
            else:
                out.append(0)
                out += (_MASK64 - n).to_bytes(8, "big")
            # one's complement of the magnitude: larger magnitudes sort lower
            out += ((1 << (8 * n)) - 1 + obj).to_bytes(n, "big")
    elif kind is str:
        out.append(_STR)
        out += obj.encode("utf-8", "surrogatepass").replace(b"\x00", _ESCAPED_NUL)
        out.append(0)
    elif kind is bytes:
        out.append(_BYTES)
        out += obj.replace(b"\x00", _ESCAPED_NUL)
        out.append(0)
    elif kind is tuple:
        out.append(_TUPLE)
        for item in obj:
            _encode_ordered(item, out)
        out.append(0)
    else:
        raise _Unordered


def _decode_ordered(data: bytes, pos: int) -> tuple[Any, int]:
    """Decode the ordered value starting at ``pos``; returns it and its end."""
    tag = data[pos]
    if tag == _POS_INT or tag == _NEG_INT:
        head = data[pos + 1]
        pos += 2
        if tag == _POS_INT:
            n = head
            if head == _LONG:
                n = int.from_bytes(data[pos:pos + 8], "big")
                pos += 8
            return int.from_bytes(data[pos:pos + n], "big"), pos + n
        n = _LONG - head
        if head == 0:
            n = _MASK64 - int.from_bytes(data[pos:pos + 8], "big")
            pos += 8
        complement = int.from_bytes(data[pos:pos + n], "big")
        return complement + 1 - (1 << (8 * n)), pos + n
    if tag == _STR or tag == _BYTES:
        start = pos = pos + 1
        while True:
            pos = data.index(0, pos)
            if pos + 1 < len(data) and data[pos + 1] == 0xFF:
                pos += 2
                continue
            raw = data[start:pos].replace(_ESCAPED_NUL, b"\x00")
            if tag == _STR:
                return raw.decode("utf-8", "surrogatepass"), pos + 1
            return raw, pos + 1
    if tag == _TUPLE:
        items = []
        pos += 1
        while data[pos] != 0:
            item, pos = _decode_ordered(data, pos)
            items.append(item)
        return tuple(items), pos + 1
    raise ValueError(f"unknown ordered key tag 0x{tag:02x}")


class OrderedKeyCodec(Codec):
    """Type-tagged, order-preserving key encoding (the default key codec).

    In the style of the FoundationDB tuple layer, every key starts with a
    one-byte type tag, and for keys of one type byte order equals Python
    order:

    * ``0x14`` int >= 0: a length byte ``n``, then the value in ``n``
      big-endian bytes (``0`` is ``14 00``); ``n >= 255`` writes ``0xFF``
      and ``n`` as 8 big-endian bytes.
    * ``0x13`` int < 0: the length byte is ``0xFF - n`` (``0x00`` plus the
      8-byte one's complement of ``n`` when ``n >= 255``), then the one's
      complement of the magnitude, so longer and larger magnitudes sort
      lower; every negative sorts below every non-negative.
    * ``0x02`` str (UTF-8, whose byte order is code-point order) and
      ``0x01`` bytes: each ``0x00`` in the payload is escaped as
      ``00 FF`` and a ``0x00`` terminator follows, so a prefix sorts first.
    * ``0x05`` tuple of these: the encoded elements, then a ``0x00``
      terminator; every tag is above ``0x00``, so ``(1,) < (1, 0)``.
    * ``0xFF`` the *unordered region*: any other key (float, bool, None,
      int or str subclasses, tuples holding one of these) is pickled
      behind this single trailing tag.  Its keys sort after every ordered
      key but not among themselves, so a bounded scan reads the region
      whole and filters it.

    Types that Python cannot compare (an int and a str) get an arbitrary
    but fixed order by tag.
    """

    order_preserving = True
    unordered_region = bytes((_UNORDERED,))
    #: Name recorded in a sharded ``schema.json`` as ``key_encoding``.
    format_name = "ordered-v1"  # type: ignore[assignment]

    def encode(self, obj: Any) -> bytes:
        if type(obj) is int and 0 <= obj < _MAX_SHORT:
            n = (obj.bit_length() + 7) >> 3
            return _POS_HEAD[n] + obj.to_bytes(n, "big")
        out = bytearray()
        try:
            _encode_ordered(obj, out)
        except _Unordered:
            return self.unordered_region + pickle.dumps(
                obj, protocol=pickle.HIGHEST_PROTOCOL
            )
        return bytes(out)

    def decode(self, data: bytes) -> Any:
        tag = data[0]
        if tag == _POS_INT and data[1] != _LONG:
            return int.from_bytes(data[2:], "big")
        if tag == _UNORDERED:
            return pickle.loads(data[1:])
        return _decode_ordered(data, 0)[0]

    def encode_bound(self, bound: Any) -> bytes | None:
        out = bytearray()
        try:
            _encode_ordered(bound, out)
        except _Unordered:
            return None
        return bytes(out)


#: Shared stateless instances (codecs carry no mutable state).
BYTES_CODEC = BytesCodec()
STR_CODEC = StrCodec()
INT4_CODEC = IntCodec(4)
INT8_CODEC = IntCodec(8)
FLOAT_CODEC = FloatCodec()
JSON_CODEC = JsonCodec()
PICKLE_CODEC = PickleCodec()
ORDERED_KEY_CODEC = OrderedKeyCodec()
