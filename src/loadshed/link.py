"""UDP wire protocol between plant and controller, plus link impairment.

This file is the normative definition of the datagram layout. All integers
are little-endian, all floating point fields are IEEE binary64.

Header (18 bytes)::

    magic        2 bytes   0x4C 0x53 ("LS")
    version      1 byte    0x01
    msg_type     1 byte    0x01 telemetry, 0x02 commands
    seq          4 bytes   unsigned
    timestamp_ms 8 bytes   unsigned
    count        2 bytes   unsigned, total records in the message

Telemetry records (18 bytes each) follow the header: load_id (u16), demand
status (f64), measured power in watts (f64), one record per entry of the
snapshot's aligned ``load_ids``, ``demands`` and ``measured_w`` columns,
which the decoder rebuilds as tuples. After the records comes a
34-byte trailer: capacity_w (f64), loss_w (f64), mission_id (u16),
loading_pu (f64), time_s (f64). Command records are 10 bytes: load_id
(u16), status (f64), with no trailer.

A message that would exceed 1400 bytes is split into parts sharing the
header (with ``count`` still the total record count); each part carries one
extra byte after the header: bits 0-6 are the part index, bit 7 marks the
final part, so a message splits into at most 128 parts. The trailer travels
with the final part only. Part and single-part datagrams are distinguished
by their exact length. Load and mission ids travel as u16; ``MAX_ID``,
``MAX_TELEMETRY_LOADS`` and ``MAX_TIMESTAMP_MS`` are what a scenario must fit.
"""

from __future__ import annotations

import heapq
import random
import struct
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

from .model import ShedCommand, SystemSnapshot

MAGIC = b"LS"
VERSION = 1
MSG_TELEMETRY = 0x01
MSG_COMMANDS = 0x02
MAX_DATAGRAM = 1400
MAX_PARTS = 128  # the part index has 7 bits
MAX_ID = 0xFFFF  # load and mission ids are u16
MAX_TIMESTAMP_MS = 0xFFFF_FFFF_FFFF_FFFF  # telemetry carries round(time_s * 1000) as u64
MAX_PENDING = 8  # incomplete messages a Reassembler keeps; it drops the oldest beyond this

_HEADER = struct.Struct("<2sBBIQH")
_TELEMETRY_RECORD = struct.Struct("<Hdd")
_TELEMETRY_TRAILER = struct.Struct("<ddHdd")
_COMMAND_RECORD = struct.Struct("<Hd")

_RECORD_SIZE = {MSG_TELEMETRY: _TELEMETRY_RECORD.size, MSG_COMMANDS: _COMMAND_RECORD.size}
_TRAILER_SIZE = {MSG_TELEMETRY: _TELEMETRY_TRAILER.size, MSG_COMMANDS: 0}
_PER_PART = {  # records per part of a split message
    t: (MAX_DATAGRAM - _HEADER.size - 1 - _TRAILER_SIZE[t]) // n for t, n in _RECORD_SIZE.items()
}
MAX_TELEMETRY_LOADS = MAX_PARTS * _PER_PART[MSG_TELEMETRY]  # 128 x 74 = 9,472


class DecodeError(Exception):
    """Base class: the bytes do not form a usable datagram."""


class TruncatedDatagram(DecodeError):
    pass


class BadMagic(DecodeError):
    pass


class BadVersion(DecodeError):
    pass


class BadMessageType(DecodeError):
    pass


class CountMismatch(DecodeError):
    """Datagram length does not match its record count."""


class DatagramTooLarge(ValueError):
    """Message does not fit in MAX_PARTS parts."""


@dataclass(frozen=True)
class DatagramView:
    msg_type: int
    seq: int
    timestamp_ms: int
    snapshot: SystemSnapshot | None = None
    commands: tuple[ShedCommand, ...] | None = None


@dataclass(frozen=True)
class DatagramPart:
    msg_type: int
    seq: int
    timestamp_ms: int
    count: int
    index: int
    final: bool
    records: bytes
    trailer: bytes


# ---------------------------------------------------------------------------
# encoding


def _telemetry_body(snapshot: SystemSnapshot) -> tuple[bytes, bytes]:
    pack = _TELEMETRY_RECORD.pack
    records = b"".join(map(pack, snapshot.load_ids, snapshot.demands, snapshot.measured_w))
    trailer = _TELEMETRY_TRAILER.pack(
        snapshot.total_capacity_w,
        snapshot.total_loss_w,
        snapshot.mission_id,
        snapshot.loading_pu,
        snapshot.time_s,
    )
    return records, trailer


def _command_body(commands: Sequence[ShedCommand]) -> tuple[bytes, bytes]:
    return b"".join(_COMMAND_RECORD.pack(c.load_id, c.status) for c in commands), b""


def _encode_parts(msg_type: int, seq: int, timestamp_ms: int, count: int,
                  records: bytes, trailer: bytes) -> tuple[bytes, ...]:
    step = _PER_PART[msg_type] * _RECORD_SIZE[msg_type]
    n_parts = -(-len(records) // step)
    if n_parts > MAX_PARTS:
        raise DatagramTooLarge(f"{count} records need {n_parts} parts, over {MAX_PARTS}")
    header = _HEADER.pack(MAGIC, VERSION, msg_type, seq, timestamp_ms, count)
    if len(header) + len(records) + len(trailer) <= MAX_DATAGRAM:
        return (header + records + trailer,)
    parts = []
    for index, start in enumerate(range(0, len(records), step)):
        final = index == n_parts - 1
        part_byte = bytes([index | (0x80 if final else 0)])
        parts.append(header + part_byte + records[start : start + step]
                     + (trailer if final else b""))
    return tuple(parts)


def encode_telemetry_parts(snapshot: SystemSnapshot, seq: int) -> tuple[bytes, ...]:
    """One datagram, or the parts of a message over ``MAX_DATAGRAM`` bytes;
    raises :class:`DatagramTooLarge` past ``MAX_PARTS`` parts."""
    records, trailer = _telemetry_body(snapshot)
    timestamp = max(0, round(snapshot.time_s * 1000.0))
    return _encode_parts(MSG_TELEMETRY, seq, timestamp, len(snapshot.load_ids), records,
                         trailer)


def encode_commands_parts(
    commands: Sequence[ShedCommand], seq: int, timestamp_ms: int = 0
) -> tuple[bytes, ...]:
    records, trailer = _command_body(commands)
    return _encode_parts(MSG_COMMANDS, seq, timestamp_ms, len(commands), records, trailer)


# ---------------------------------------------------------------------------
# decoding


def _parse_telemetry(records: bytes, trailer: bytes, seq: int, timestamp_ms: int) -> DatagramView:
    # records to columns; a zero-record message has none to transpose
    columns = tuple(zip(*_TELEMETRY_RECORD.iter_unpack(records))) or ((), (), ())
    load_ids, demands, measured = columns
    capacity, loss, mission_id, loading, time_s = _TELEMETRY_TRAILER.unpack(trailer)
    snapshot = SystemSnapshot(
        time_s=time_s,
        mission_id=mission_id,
        load_ids=load_ids,
        demands=demands,
        measured_w=measured,
        total_capacity_w=capacity,
        total_loss_w=loss,
        loading_pu=loading,
    )
    return DatagramView(MSG_TELEMETRY, seq, timestamp_ms, snapshot=snapshot)


def _parse_commands(records: bytes, seq: int, timestamp_ms: int) -> DatagramView:
    commands = tuple(
        ShedCommand(load_id, status) for load_id, status in _COMMAND_RECORD.iter_unpack(records)
    )
    return DatagramView(MSG_COMMANDS, seq, timestamp_ms, commands=commands)


def _assemble(msg_type: int, seq: int, timestamp_ms: int, count: int,
              records: bytes, trailer: bytes) -> DatagramView:
    if len(records) != count * _RECORD_SIZE[msg_type]:
        raise CountMismatch(f"expected {count} records, got {len(records)} payload bytes")
    if msg_type == MSG_TELEMETRY:
        return _parse_telemetry(records, trailer, seq, timestamp_ms)
    return _parse_commands(records, seq, timestamp_ms)


def decode_datagram(data: bytes) -> DatagramView | DatagramPart:
    """Decode one datagram: a complete message or one part of a split one.

    Never raises anything but :class:`DecodeError` subclasses, however
    malformed the input.
    """
    if len(data) < _HEADER.size:
        raise TruncatedDatagram(f"{len(data)} bytes is shorter than the header")
    magic, version, msg_type, seq, timestamp_ms, count = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersion(f"unsupported version {version}")
    if msg_type not in _RECORD_SIZE:
        raise BadMessageType(f"unknown message type {msg_type:#04x}")
    rec_size = _RECORD_SIZE[msg_type]
    trailer_size = _TRAILER_SIZE[msg_type]
    single_len = _HEADER.size + count * rec_size + trailer_size
    if len(data) == single_len:
        body = data[_HEADER.size :]
        return _assemble(msg_type, seq, timestamp_ms, count,
                         body[: count * rec_size], body[count * rec_size :])
    # not a single-part datagram: expect a part byte after the header
    if len(data) < _HEADER.size + 1:
        raise CountMismatch("length matches neither a whole message nor a part")
    part_byte = data[_HEADER.size]
    index = part_byte & 0x7F
    final = bool(part_byte & 0x80)
    body = data[_HEADER.size + 1 :]
    trailer = b""
    if final:
        if len(body) < trailer_size:
            raise TruncatedDatagram("final part shorter than the trailer")
        if trailer_size:
            body, trailer = body[:-trailer_size], body[-trailer_size:]
    if len(body) % rec_size != 0:
        raise CountMismatch("part payload is not a whole number of records")
    return DatagramPart(msg_type, seq, timestamp_ms, count, index, final, body, trailer)


class Reassembler:
    """Collects split datagrams until a message completes.

    ``feed`` returns the completed :class:`DatagramView` (immediately for a
    single-part datagram), or None while parts are still outstanding.
    """

    def __init__(self):
        self._pending: OrderedDict[tuple[int, int], dict] = OrderedDict()

    def feed(self, data: bytes) -> DatagramView | None:
        decoded = decode_datagram(data)
        if isinstance(decoded, DatagramView):
            return decoded
        key = (decoded.msg_type, decoded.seq)
        entry = self._pending.setdefault(
            key, {"parts": {}, "final": None, "trailer": b"", "meta": decoded}
        )
        entry["parts"][decoded.index] = decoded.records
        if decoded.final:
            entry["final"] = decoded.index
            entry["trailer"] = decoded.trailer
        while len(self._pending) > MAX_PENDING:
            self._pending.popitem(last=False)
        final = entry["final"]
        if final is None or any(i not in entry["parts"] for i in range(final + 1)):
            return None
        records = b"".join(entry["parts"][i] for i in range(final + 1))
        meta = entry["meta"]
        del self._pending[key]
        return _assemble(meta.msg_type, meta.seq, meta.timestamp_ms, meta.count,
                         records, entry["trailer"])


# ---------------------------------------------------------------------------
# link impairment


@dataclass(frozen=True)
class ImpairmentConfig:
    loss_probability: float = 0.0
    latency_ms: float = 0.0
    jitter_ms: float = 0.0
    seed: int = 0


def impairment_rng(seed: int, stream: str) -> random.Random:
    """Independent deterministic generator for one link direction."""
    return random.Random(f"{seed}/{stream}")


def impair(config: ImpairmentConfig, now_s: float, rng: random.Random) -> float | None:
    """Delivery time for a datagram sent now, or None if the link drops it."""
    if config.loss_probability > 0.0 and rng.random() < config.loss_probability:
        return None
    delay = config.latency_ms / 1000.0
    if config.jitter_ms > 0.0:
        delay += rng.uniform(0.0, config.jitter_ms / 1000.0)
    return now_s + delay


def replay_drop_schedule(config: ImpairmentConfig, stream: str, n: int) -> list[bool]:
    """The first ``n`` drop decisions the link will make on ``stream``."""
    rng = impairment_rng(config.seed, stream)
    return [impair(config, 0.0, rng) is None for _ in range(n)]


class DelayQueue:
    """Single-owner delivery queue ordered by delivery time, FIFO on ties."""

    def __init__(self, config: ImpairmentConfig, stream: str):
        self.config = config
        self._rng = impairment_rng(config.seed, stream)
        self._heap: list[tuple[float, int, object]] = []
        self._counter = 0

    def submit(self, item: object, now_s: float) -> float | None:
        """Queue one datagram; returns its delivery time or None when dropped."""
        deliver_at = impair(self.config, now_s, self._rng)
        if deliver_at is None:
            return None
        heapq.heappush(self._heap, (deliver_at, self._counter, item))
        self._counter += 1
        return deliver_at

    def poll(self, now_s: float) -> list[object]:
        """All items whose delivery time has arrived, in delivery order."""
        out = []
        while self._heap and self._heap[0][0] <= now_s:
            out.append(heapq.heappop(self._heap)[2])
        return out
