"""Unit tests for the typed binary streams."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import RestoreError, SerializationError
from repro.core.streams import (
    INT32_MAX,
    INT32_MIN,
    DataInputStream,
    DataOutputStream,
    NullOutputStream,
    utf8_length,
)


class TestDataOutputStream:
    def test_empty_stream(self):
        out = DataOutputStream()
        assert out.size == 0
        assert out.getvalue() == b""
        assert len(out) == 0

    def test_write_int32_size(self):
        out = DataOutputStream()
        out.write_int32(1)
        out.write_int32(-1)
        assert out.size == 8

    def test_write_int32_overflow_raises(self):
        out = DataOutputStream()
        with pytest.raises(Exception):
            out.write_int32(INT32_MAX + 1)
        with pytest.raises(Exception):
            out.write_int32(INT32_MIN - 1)

    def test_write_str_utf8(self):
        out = DataOutputStream()
        out.write_str("héllo")
        inp = DataInputStream(out.getvalue())
        assert inp.read_str() == "héllo"
        assert inp.at_eof

    def test_clear_resets(self):
        out = DataOutputStream()
        out.write_int64(5)
        out.clear()
        assert out.size == 0

    def test_write_bytes_raw(self):
        out = DataOutputStream()
        out.write_bytes(b"abc")
        assert out.getvalue() == b"abc"


class TestNullOutputStream:
    def test_counts_without_retaining(self):
        out = NullOutputStream()
        out.write_int32(1)
        out.write_int64(2)
        out.write_float64(3.0)
        out.write_bool(True)
        out.write_str("ab")
        out.write_bytes(b"xyz")
        assert out.size == 4 + 8 + 8 + 1 + (4 + 2) + 3
        # Write-side stream: misuse raises in the checkpoint (write)
        # error family, never the restore (decode) family.
        with pytest.raises(SerializationError):
            out.getvalue()

    def test_getvalue_error_is_not_restore_family(self):
        out = NullOutputStream()
        with pytest.raises(SerializationError) as excinfo:
            out.getvalue()
        assert not isinstance(excinfo.value, RestoreError)

    def test_write_str_counts_non_ascii_without_encoding(self):
        null = NullOutputStream()
        real = DataOutputStream()
        for text in ("héllo", "日本語", "aé€\U0001f600z", ""):
            null.clear()
            real.clear()
            null.write_str(text)
            real.write_str(text)
            assert null.size == real.size

    def test_clear(self):
        out = NullOutputStream()
        out.write_int32(1)
        out.clear()
        assert out.size == 0


class TestUtf8Length:
    @given(st.text(max_size=200))
    def test_matches_encoded_length(self, text):
        assert utf8_length(text) == len(text.encode("utf-8"))


class TestWriteStrLengthGuard:
    class _HugeStr(str):
        # Simulates a string whose encoding exceeds the int32 prefix
        # without allocating gigabytes.
        def encode(self, *args, **kwargs):
            return _FakeHugeBytes()

        def isascii(self):
            return True

        def __len__(self):
            return INT32_MAX + 1

    def test_data_output_stream_raises_typed_error(self):
        out = DataOutputStream()
        with pytest.raises(SerializationError, match="int32 length"):
            out.write_str(self._HugeStr())

    def test_null_output_stream_mirrors_the_guard(self):
        out = NullOutputStream()
        with pytest.raises(SerializationError, match="int32 length"):
            out.write_str(self._HugeStr())


class _FakeHugeBytes(bytes):
    def __len__(self):
        return INT32_MAX + 1


class TestDataInputStream:
    def test_truncated_read_raises(self):
        inp = DataInputStream(b"\x01\x02")
        with pytest.raises(RestoreError, match="truncated"):
            inp.read_int32()

    def test_negative_string_length_raises(self):
        out = DataOutputStream()
        out.write_int32(-5)
        inp = DataInputStream(out.getvalue())
        with pytest.raises(RestoreError, match="negative string length"):
            inp.read_str()

    def test_invalid_bool_raises(self):
        inp = DataInputStream(b"\x07")
        with pytest.raises(RestoreError, match="invalid boolean"):
            inp.read_bool()

    def test_base_offset_positions_bool_error_in_container(self):
        # One byte into a record that starts at offset 100 of a larger
        # recovery line: the message must name the containing-stream
        # offset, not the intra-record one.
        inp = DataInputStream(b"\x01\x07", base_offset=100)
        inp.read_bool()
        with pytest.raises(RestoreError, match="offset 101"):
            inp.read_bool()

    def test_base_offset_positions_truncation_error(self):
        inp = DataInputStream(b"\x01", base_offset=40)
        with pytest.raises(RestoreError, match="offset 40"):
            inp.read_int32()

    def test_invalid_utf8_raises_restore_error_at_the_byte(self):
        # Length 2, then bytes that are not UTF-8: the decode failure must
        # stay in the RestoreError family and name the absolute offset of
        # the first bad byte (4 bytes of length prefix past base 100).
        inp = DataInputStream(b"\x02\x00\x00\x00\xff\xfe", 100)
        with pytest.raises(RestoreError, match="invalid UTF-8 in string at offset 104"):
            inp.read_str()

    def test_seek_moves_the_read_offset(self):
        inp = DataInputStream(b"\x01\x00\x00\x00\x02\x00\x00\x00", 10)
        inp.seek(4)
        assert inp.read_int32() == 2
        assert inp.absolute_position == 18
        inp.seek(0)
        assert inp.read_int32() == 1

    def test_absolute_position_tracks_base(self):
        inp = DataInputStream(b"\x00\x00\x00\x00", base_offset=12)
        assert inp.base_offset == 12
        inp.read_int32()
        assert inp.position == 4
        assert inp.absolute_position == 16

    def test_position_and_remaining(self):
        out = DataOutputStream()
        out.write_int32(1)
        out.write_int32(2)
        inp = DataInputStream(out.getvalue())
        assert inp.remaining == 8
        inp.read_int32()
        assert inp.position == 4
        assert inp.remaining == 4
        assert not inp.at_eof
        inp.read_int32()
        assert inp.at_eof


_SCALARS = st.one_of(
    st.tuples(st.just("int32"), st.integers(INT32_MIN, INT32_MAX)),
    st.tuples(st.just("int64"), st.integers(-(2**63), 2**63 - 1)),
    st.tuples(
        st.just("float64"),
        st.floats(allow_nan=False, allow_infinity=True, width=64),
    ),
    st.tuples(st.just("bool"), st.booleans()),
    st.tuples(st.just("str"), st.text(max_size=50)),
)


class TestRoundtripProperties:
    @given(st.lists(_SCALARS, max_size=60))
    def test_heterogeneous_roundtrip(self, values):
        out = DataOutputStream()
        for kind, value in values:
            getattr(out, f"write_{kind}")(value)
        inp = DataInputStream(out.getvalue())
        for kind, value in values:
            assert getattr(inp, f"read_{kind}")() == value
        assert inp.at_eof

    @given(st.lists(_SCALARS, max_size=30))
    def test_null_stream_size_matches_real(self, values):
        real = DataOutputStream()
        null = NullOutputStream()
        for kind, value in values:
            getattr(real, f"write_{kind}")(value)
            getattr(null, f"write_{kind}")(value)
        assert null.size == real.size
