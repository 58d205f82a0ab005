"""Typed binary streams — the ``java.io`` DataOutputStream/DataInputStream analog.

The paper records checkpoints through a ``DataOutputStream`` composed with a
``ByteArrayOutputStream``; these classes provide the same typed, compact,
little-endian wire encoding over a growable in-memory buffer.

Wire encodings:

====================  =======================================
value                 encoding
====================  =======================================
int32                 4 bytes, little-endian, signed
int64                 8 bytes, little-endian, signed
float64               8 bytes, IEEE-754 little-endian
bool                  1 byte (0 or 1)
str                   int32 byte length + UTF-8 bytes
====================  =======================================
"""

from __future__ import annotations

import struct

from repro.core.errors import RestoreError, SerializationError

_INT32 = struct.Struct("<i")
_INT64 = struct.Struct("<q")
_FLOAT64 = struct.Struct("<d")

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1


def utf8_length(value: str) -> int:
    """Byte length of ``value``'s UTF-8 encoding, without encoding it.

    ASCII strings (the overwhelmingly common case on the measure path)
    are answered from ``len`` alone; otherwise the length is summed
    arithmetically per code point, still without materializing a
    throwaway ``bytes`` copy.
    """
    if value.isascii():
        return len(value)
    total = 0
    for ch in map(ord, value):
        if ch <= 0x7F:
            total += 1
        elif ch <= 0x7FF:
            total += 2
        elif ch <= 0xFFFF:
            total += 3
        else:
            total += 4
    return total


def _check_str_length(byte_length: int) -> None:
    if byte_length > INT32_MAX:
        raise SerializationError(
            f"string of {byte_length} UTF-8 bytes exceeds the int32 length "
            f"prefix (max {INT32_MAX})"
        )


class DataOutputStream:
    """Growable binary output buffer with typed ``write_*`` methods."""

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    # -- writers ---------------------------------------------------------

    def write_int32(self, value: int) -> None:
        """Append a signed 32-bit integer (raises on overflow)."""
        self._buffer += _INT32.pack(value)

    def write_int64(self, value: int) -> None:
        """Append a signed 64-bit integer."""
        self._buffer += _INT64.pack(value)

    def write_float64(self, value: float) -> None:
        """Append an IEEE-754 double."""
        self._buffer += _FLOAT64.pack(value)

    def write_bool(self, value: bool) -> None:
        """Append a boolean as one byte."""
        self._buffer.append(1 if value else 0)

    def write_str(self, value: str) -> None:
        """Append a length-prefixed UTF-8 string.

        Raises :class:`~repro.core.errors.SerializationError` when the
        encoding exceeds the int32 length prefix, rather than leaking a
        bare ``struct.error`` from the prefix pack.
        """
        encoded = value.encode("utf-8")
        _check_str_length(len(encoded))
        self._buffer += _INT32.pack(len(encoded))
        self._buffer += encoded

    def write_bytes(self, value: bytes) -> None:
        """Append raw bytes without a length prefix."""
        self._buffer += value

    # -- accessors -------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of bytes written so far."""
        return len(self._buffer)

    def getvalue(self) -> bytes:
        """An immutable snapshot of the buffer contents."""
        return bytes(self._buffer)

    def clear(self) -> None:
        """Discard all buffered bytes (reuse the stream for a new epoch)."""
        self._buffer.clear()

    def __len__(self) -> int:
        return len(self._buffer)


class NullOutputStream(DataOutputStream):
    """An output stream that measures but does not retain bytes.

    Used by the benchmark harness to isolate traversal cost from buffer
    growth: every ``write_*`` only advances a byte counter. (Table 1 of
    the paper reports "traversal time" separately for the same reason.)
    """

    __slots__ = ("_size",)

    def __init__(self) -> None:
        super().__init__()
        self._size = 0

    def write_int32(self, value: int) -> None:
        self._size += 4

    def write_int64(self, value: int) -> None:
        self._size += 8

    def write_float64(self, value: float) -> None:
        self._size += 8

    def write_bool(self, value: bool) -> None:
        self._size += 1

    def write_str(self, value: str) -> None:
        length = utf8_length(value)
        _check_str_length(length)
        self._size += 4 + length

    def write_bytes(self, value: bytes) -> None:
        self._size += len(value)

    @property
    def size(self) -> int:
        return self._size

    def getvalue(self) -> bytes:
        # Write-side misuse, not a decode failure: deliberately NOT a
        # RestoreError.
        raise SerializationError("NullOutputStream retains no bytes")

    def clear(self) -> None:
        self._size = 0

    def __len__(self) -> int:
        return self._size


class DataInputStream:
    """Sequential typed reader over a bytes object.

    ``base_offset`` positions this stream inside a larger byte sequence
    (e.g. one delta of a multi-epoch recovery line): error messages
    report ``base_offset + local offset`` so that fsck quarantine lines
    point at the right record instead of an ambiguous intra-record
    offset.
    """

    __slots__ = ("_data", "_pos", "_base")

    def __init__(self, data: bytes, base_offset: int = 0) -> None:
        self._data = data
        self._pos = 0
        self._base = base_offset

    # -- readers ---------------------------------------------------------

    def _take(self, count: int) -> int:
        start = self._pos
        end = start + count
        if end > len(self._data):
            raise RestoreError(
                f"truncated stream: wanted {count} bytes at offset "
                f"{self._base + start}, have {len(self._data) - start}"
            )
        self._pos = end
        return start

    def read_int32(self) -> int:
        """Read a signed 32-bit integer."""
        return _INT32.unpack_from(self._data, self._take(4))[0]

    def read_int64(self) -> int:
        """Read a signed 64-bit integer."""
        return _INT64.unpack_from(self._data, self._take(8))[0]

    def read_float64(self) -> float:
        """Read an IEEE-754 double."""
        return _FLOAT64.unpack_from(self._data, self._take(8))[0]

    def read_bool(self) -> bool:
        """Read a one-byte boolean."""
        start = self._take(1)
        byte = self._data[start]
        if byte not in (0, 1):
            raise RestoreError(
                f"invalid boolean byte {byte!r} at offset {self._base + start}"
            )
        return byte == 1

    def read_str(self) -> str:
        """Read a length-prefixed UTF-8 string."""
        length = self.read_int32()
        if length < 0:
            raise RestoreError(
                f"negative string length {length} at offset "
                f"{self._base + self._pos - 4}"
            )
        start = self._take(length)
        try:
            return self._data[start : start + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise RestoreError(
                f"invalid UTF-8 in string at offset {self._base + start + exc.start}"
            ) from exc

    def read_bytes(self, count: int) -> bytes:
        """Read ``count`` raw bytes."""
        start = self._take(count)
        return self._data[start : start + count]

    def seek(self, position: int) -> None:
        """Move the read offset to ``position``, local to this stream's data."""
        self._pos = position

    # -- accessors -------------------------------------------------------

    @property
    def position(self) -> int:
        """Current read offset, local to this stream's own data."""
        return self._pos

    @property
    def base_offset(self) -> int:
        """Offset of this stream's first byte within its container."""
        return self._base

    @property
    def absolute_position(self) -> int:
        """Current read offset within the containing byte sequence."""
        return self._base + self._pos

    @property
    def remaining(self) -> int:
        """Bytes left to read."""
        return len(self._data) - self._pos

    @property
    def at_eof(self) -> bool:
        """True when every byte has been consumed."""
        return self._pos >= len(self._data)

