"""RFC 4251 data types and RFC 4253 binary packet framing.

SSH messages are built from a handful of primitive encodings: ``byte``,
``boolean``, ``uint32``, ``string`` (length-prefixed bytes), ``mpint``
(multiple-precision integer), and ``name-list`` (comma-separated names inside
a ``string``).  Before encryption is negotiated, each message travels inside a
*binary packet*: a 4-byte packet length, 1-byte padding length, the payload,
and random padding so that the total is a multiple of 8 bytes.
"""

from __future__ import annotations

import struct

from repro.errors import MalformedMessageError, TruncatedMessageError

MIN_PADDING = 4
BLOCK_SIZE = 8


class SshWriter:
    """Incrementally build an SSH message payload."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def write_byte(self, value: int) -> "SshWriter":
        self._parts.append(struct.pack("B", value))
        return self

    def write_boolean(self, value: bool) -> "SshWriter":
        return self.write_byte(1 if value else 0)

    def write_uint32(self, value: int) -> "SshWriter":
        self._parts.append(struct.pack(">I", value))
        return self

    def write_bytes(self, value: bytes) -> "SshWriter":
        """Write raw bytes with no length prefix (e.g. the KEXINIT cookie)."""
        self._parts.append(value)
        return self

    def write_string(self, value: bytes) -> "SshWriter":
        self._parts.append(struct.pack(">I", len(value)) + value)
        return self

    def write_name_list(self, names: list[str]) -> "SshWriter":
        joined = ",".join(names).encode("ascii")
        return self.write_string(joined)

    def write_mpint(self, value: int) -> "SshWriter":
        """Write a multiple-precision integer (two's complement, big endian)."""
        if value == 0:
            return self.write_string(b"")
        if value < 0:
            raise MalformedMessageError("negative mpints are not used in this library")
        length = (value.bit_length() + 7) // 8
        encoded = value.to_bytes(length, "big")
        if encoded[0] & 0x80:
            encoded = b"\x00" + encoded
        return self.write_string(encoded)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class SshReader:
    """Sequentially parse an SSH message payload."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._offset

    def _take(self, count: int) -> bytes:
        if self.remaining < count:
            raise TruncatedMessageError(
                f"needed {count} bytes, only {self.remaining} remain"
            )
        chunk = self._data[self._offset : self._offset + count]
        self._offset += count
        return chunk

    def read_byte(self) -> int:
        return self._take(1)[0]

    def read_boolean(self) -> bool:
        return self.read_byte() != 0

    def read_uint32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def read_bytes(self, count: int) -> bytes:
        return self._take(count)

    def read_string(self) -> bytes:
        length = self.read_uint32()
        return self._take(length)

    def read_name_list(self) -> list[str]:
        raw = self.read_string()
        if not raw:
            return []
        try:
            text = raw.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MalformedMessageError("name-list is not ASCII") from exc
        return text.split(",")

    def read_mpint(self) -> int:
        raw = self.read_string()
        if not raw:
            return 0
        return int.from_bytes(raw, "big")


def frame_packet(payload: bytes, padding_byte: int = 0) -> bytes:
    """Wrap ``payload`` in an unencrypted SSH binary packet.

    The padding content is deterministic (``padding_byte`` repeated) so that
    message construction is reproducible; real implementations use random
    padding, but its content never affects parsing.
    """
    padding_length = BLOCK_SIZE - ((len(payload) + 5) % BLOCK_SIZE)
    if padding_length < MIN_PADDING:
        padding_length += BLOCK_SIZE
    packet_length = len(payload) + padding_length + 1
    return (
        struct.pack(">IB", packet_length, padding_length)
        + payload
        + bytes([padding_byte]) * padding_length
    )


def unframe_packet(data: bytes) -> tuple[bytes, bytes]:
    """Extract one packet payload from ``data``.

    Returns:
        ``(payload, rest)`` where ``rest`` is the remaining bytes after the
        packet.

    Raises:
        TruncatedMessageError: if ``data`` does not hold a complete packet.
        MalformedMessageError: if the length fields are inconsistent.
    """
    if len(data) < 5:
        raise TruncatedMessageError("packet header incomplete")
    packet_length, padding_length = struct.unpack(">IB", data[:5])
    if packet_length < padding_length + 1:
        raise MalformedMessageError("packet length smaller than padding")
    total = 4 + packet_length
    if len(data) < total:
        raise TruncatedMessageError("packet body incomplete")
    payload_length = packet_length - padding_length - 1
    payload = data[5 : 5 + payload_length]
    return payload, data[total:]


def iter_packets(data: bytes):
    """Yield every complete packet payload contained in ``data``.

    Iteration stops at the first truncated or malformed packet: once a
    length field is wrong, no later packet boundary can be trusted.
    """
    rest = data
    while rest:
        try:
            payload, rest = unframe_packet(rest)
        except (TruncatedMessageError, MalformedMessageError):
            return
        yield payload
