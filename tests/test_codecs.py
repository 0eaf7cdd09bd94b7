"""Tests for object <-> bytes codecs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codecs import (
    ORDERED_KEY_CODEC,
    BytesCodec,
    FloatCodec,
    IntCodec,
    JsonCodec,
    PickleCodec,
    StrCodec,
)


class TestIntCodec:
    def test_roundtrip(self):
        codec = IntCodec(4)
        for value in (0, 1, 1000, 2**32 - 1):
            assert codec.decode(codec.encode(value)) == value

    def test_order_preserving(self):
        codec = IntCodec(4)
        values = [0, 5, 17, 1000, 2**20]
        encoded = [codec.encode(v) for v in values]
        assert encoded == sorted(encoded)

    def test_out_of_range(self):
        codec = IntCodec(1)
        with pytest.raises(ValueError):
            codec.encode(256)
        with pytest.raises(ValueError):
            codec.encode(-1)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            IntCodec(4).encode(True)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            IntCodec(4).encode("5")

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            IntCodec(3)

    def test_paper_key_width(self):
        # The paper's benchmark uses 4-byte keys.
        assert len(IntCodec(4).encode(12345)) == 4


class TestStrCodec:
    def test_roundtrip(self):
        codec = StrCodec()
        for value in ("", "abc", "üñïçødé"):
            assert codec.decode(codec.encode(value)) == value

    def test_rejects_bytes(self):
        with pytest.raises(TypeError):
            StrCodec().encode(b"raw")

    @given(st.text(), st.text())
    @settings(max_examples=200, deadline=None)
    def test_order_preserving_beyond_ascii(self, a, b):
        codec = StrCodec()
        assert (a < b) == (codec.encode(a) < codec.encode(b))


class TestBytesCodec:
    def test_identity(self):
        codec = BytesCodec()
        assert codec.encode(b"x") == b"x"
        assert codec.decode(b"x") == b"x"

    def test_accepts_bytearray(self):
        assert BytesCodec().encode(bytearray(b"ab")) == b"ab"

    def test_rejects_str(self):
        with pytest.raises(TypeError):
            BytesCodec().encode("nope")


class TestFloatCodec:
    def test_roundtrip(self):
        codec = FloatCodec()
        for value in (0.0, -1.5, 3.14159, 1e300):
            assert codec.decode(codec.encode(value)) == value


class TestJsonCodec:
    def test_roundtrip_dict(self):
        codec = JsonCodec()
        obj = {"a": 1, "b": [1, 2, 3], "c": {"nested": True}}
        assert codec.decode(codec.encode(obj)) == obj

    def test_deterministic(self):
        codec = JsonCodec()
        assert codec.encode({"b": 1, "a": 2}) == codec.encode({"a": 2, "b": 1})


class TestPickleCodec:
    def test_roundtrip_arbitrary(self):
        codec = PickleCodec()
        obj = {"key": (1, 2), "set": frozenset([3])}
        assert codec.decode(codec.encode(obj)) == obj

    def test_roundtrip_tuple_keys(self):
        codec = PickleCodec()
        assert codec.decode(codec.encode((1, "a"))) == (1, "a")


# ------------------------------------------------------- ordered key codec

#: Ints around the one-byte-length boundaries and far past 8 bytes.
ints = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.sampled_from([0, -1, 1, 255, 256, -255, -256, 2**64, -(2**64)]),
)
texts = st.text(alphabet=st.sampled_from(["\x00", "\x01", "a", "b", "\xff", "é", "€", "𝄞"]))
blobs = st.binary(max_size=8).map(lambda b: b.replace(b"\x01", b"\x00"))
#: Values of one comparable family each, so Python can order any pair.
families = [
    ints,
    texts,
    blobs,
    st.lists(ints, max_size=4).map(tuple),
    # nested tuples, including prefix cases such as ((1,),) < ((1, 0),)
    st.lists(st.lists(ints, max_size=3).map(tuple), max_size=3).map(tuple),
    # mixed element types, compared position by position like Python
    st.tuples(texts, ints, blobs, st.integers(0, 3)).map(lambda t: t[:t[3]]),
]


def _encode(value):
    return ORDERED_KEY_CODEC.encode(value)


class TestOrderedKeyCodec:
    @given(st.one_of(*families))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip(self, value):
        encoded = _encode(value)
        decoded = ORDERED_KEY_CODEC.decode(encoded)
        assert decoded == value and type(decoded) is type(value)
        assert ORDERED_KEY_CODEC.encode_bound(value) == encoded

    @pytest.mark.parametrize("family", range(len(families)))
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_byte_order_matches_python_order(self, family, data):
        a = data.draw(families[family])
        b = data.draw(families[family])
        assert (a < b) == (_encode(a) < _encode(b))
        assert (a == b) == (_encode(a) == _encode(b))

    def test_tuple_prefix_sorts_first(self):
        assert _encode((1,)) < _encode((1, 0)) < _encode((1, 1)) < _encode((2,))
        assert _encode(("a",)) < _encode(("a", 0)) < _encode(("a\x00",))
        assert _encode(()) < _encode(((),)) < _encode((0,))

    def test_wide_ints_keep_order(self):
        values = [-(2**2100), -(2**2032), -(2**64), -1, 0, 1, 2**64, 2**2032 - 1,
                  2**2032, 2**2100]
        assert sorted(values, key=_encode) == values
        for value in values:
            assert ORDERED_KEY_CODEC.decode(_encode(value)) == value

    @pytest.mark.parametrize(
        "value", [1.5, True, False, None, (1, 2.5), frozenset({1}), bytearray(b"x")]
    )
    def test_other_types_go_to_trailing_unordered_region(self, value):
        encoded = _encode(value)
        assert encoded.startswith(ORDERED_KEY_CODEC.unordered_region)
        assert encoded > _encode((2**70, "z" * 10))
        decoded = ORDERED_KEY_CODEC.decode(encoded)
        assert decoded == value and type(decoded) is type(value)
        assert ORDERED_KEY_CODEC.encode_bound(value) is None


class TestBoundEncoding:
    def test_order_preserving_codecs_encode_bounds(self):
        assert IntCodec(4).encode_bound(7) == IntCodec(4).encode(7)
        assert StrCodec().encode_bound("k") == b"k"
        assert BytesCodec().encode_bound(b"k") == b"k"

    def test_uncomparable_bounds_are_none(self):
        # out of range, wrong type: the scan leaves that side open
        assert IntCodec(1).encode_bound(-1) is None
        assert IntCodec(1).encode_bound(256) is None
        assert IntCodec(4).encode_bound(2.5) is None
        assert StrCodec().encode_bound(3) is None

    def test_unordered_codecs_never_encode_bounds(self):
        for codec in (PickleCodec(), JsonCodec(), FloatCodec()):
            assert not codec.order_preserving
            assert codec.encode_bound(5) is None
