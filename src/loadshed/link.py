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

The codec packs and unpacks the records of each part, or of a message that
fits one datagram, with one precompiled struct for that record count,
reading the fields straight out of the datagram and splitting the flat field
tuple into columns by slicing. The bytes are those of packing each record on
its own (``<Hdd`` or ``<Hd``) and joining the records in order. No sender
puts more than one part's records (74 telemetry, 138 command) in a datagram,
so the decoder refuses a datagram or a part that holds more with
:class:`CountMismatch`.
"""

from __future__ import annotations

import heapq
import random
import struct
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

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
_RECORD_FORMAT = {MSG_TELEMETRY: "Hdd", MSG_COMMANDS: "Hd"}  # load_id, then the values
_TRAILER = {MSG_TELEMETRY: struct.Struct("<ddHdd"), MSG_COMMANDS: struct.Struct("<")}

_FIELDS = {t: len(f) for t, f in _RECORD_FORMAT.items()}  # fields per record
_RECORD_SIZE = {t: struct.calcsize("<" + f) for t, f in _RECORD_FORMAT.items()}
_PER_PART = {  # records per part of a split message
    t: (MAX_DATAGRAM - _HEADER.size - 1 - _TRAILER[t].size) // n for t, n in _RECORD_SIZE.items()
}
MAX_TELEMETRY_LOADS = MAX_PARTS * _PER_PART[MSG_TELEMETRY]  # 128 x 74 = 9,472


class _Layouts(dict):
    """``layouts[k]``: the struct of ``k`` consecutive records of one message
    type, compiled on first use. The codec asks only for ``k`` up to one
    part's records (74 telemetry, 138 command), and refuses longer record
    runs before it asks, so the cache stays small."""

    def __init__(self, record_format: str):
        super().__init__()
        self.record_format = record_format

    def __missing__(self, k: int) -> struct.Struct:
        layout = self[k] = struct.Struct("<" + self.record_format * k)
        return layout


_LAYOUTS = {t: _Layouts(f) for t, f in _RECORD_FORMAT.items()}


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


class DatagramView(NamedTuple):
    msg_type: int
    seq: int
    timestamp_ms: int
    snapshot: SystemSnapshot | None = None
    commands: tuple[ShedCommand, ...] | None = None


class DatagramPart(NamedTuple):
    """One part of a split message: its records' fields in wire order, and
    on the final part the trailer's fields (empty for commands)."""

    msg_type: int
    seq: int
    timestamp_ms: int
    count: int
    index: int
    final: bool
    records: tuple
    trailer: tuple


# ---------------------------------------------------------------------------
# encoding


def _encode(msg_type: int, seq: int, timestamp_ms: int, count: int, flat: list,
            trailer: bytes) -> tuple[bytes, ...]:
    """The datagrams of a message whose ``count`` records hold the fields
    ``flat`` in wire order: one struct call per part."""
    per = _PER_PART[msg_type]
    n_parts = -(-count // per)
    if n_parts > MAX_PARTS:
        raise DatagramTooLarge(f"{count} records need {n_parts} parts, over {MAX_PARTS}")
    header = _HEADER.pack(MAGIC, VERSION, msg_type, seq, timestamp_ms, count)
    layouts = _LAYOUTS[msg_type]
    # a message fits one datagram exactly when its records fit one part: the
    # part byte costs no record at these sizes
    if n_parts <= 1:
        return (header + layouts[count].pack(*flat) + trailer,)
    step = per * _FIELDS[msg_type]
    last = n_parts - 1
    parts = [header + bytes((index,)) + layouts[per].pack(*flat[index * step : (index + 1) * step])
             for index in range(last)]
    parts.append(header + bytes((last | 0x80,))
                 + layouts[count - last * per].pack(*flat[last * step :]) + trailer)
    return tuple(parts)


def encode_telemetry_parts(snapshot: SystemSnapshot, seq: int) -> tuple[bytes, ...]:
    """One datagram, or the parts of a message over ``MAX_DATAGRAM`` bytes;
    raises :class:`DatagramTooLarge` past ``MAX_PARTS`` parts."""
    load_ids = snapshot.load_ids
    flat = [0] * (3 * len(load_ids))
    flat[0::3] = load_ids
    flat[1::3] = snapshot.demands
    flat[2::3] = snapshot.measured_w
    trailer = _TRAILER[MSG_TELEMETRY].pack(
        snapshot.total_capacity_w,
        snapshot.total_loss_w,
        snapshot.mission_id,
        snapshot.loading_pu,
        snapshot.time_s,
    )
    timestamp = max(0, round(snapshot.time_s * 1000.0))
    return _encode(MSG_TELEMETRY, seq, timestamp, len(load_ids), flat, trailer)


def encode_commands_parts(
    commands: Sequence[ShedCommand], seq: int, timestamp_ms: int = 0
) -> tuple[bytes, ...]:
    if not commands:  # the usual reply, since batches are diffs: the header alone
        return (_HEADER.pack(MAGIC, VERSION, MSG_COMMANDS, seq, timestamp_ms, 0),)
    flat = [0] * (2 * len(commands))
    flat[0::2] = [c.load_id for c in commands]
    flat[1::2] = [c.status for c in commands]
    return _encode(MSG_COMMANDS, seq, timestamp_ms, len(commands), flat, b"")


# ---------------------------------------------------------------------------
# decoding


def _view(msg_type: int, seq: int, timestamp_ms: int, flat: tuple,
          trailer: tuple) -> DatagramView:
    """The message whose records hold the fields ``flat`` in wire order."""
    if msg_type == MSG_TELEMETRY:
        capacity, loss, mission_id, loading, time_s = trailer
        snapshot = SystemSnapshot(
            time_s=time_s,
            mission_id=mission_id,
            load_ids=flat[0::3],
            demands=flat[1::3],
            measured_w=flat[2::3],
            total_capacity_w=capacity,
            total_loss_w=loss,
            loading_pu=loading,
        )
        return DatagramView(MSG_TELEMETRY, seq, timestamp_ms, snapshot)
    # an empty batch, the usual reply, builds nothing
    commands = tuple(map(ShedCommand, flat[0::2], flat[1::2])) if flat else ()
    return DatagramView(MSG_COMMANDS, seq, timestamp_ms, commands=commands)


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
    trailer = _TRAILER[msg_type]
    per = _PER_PART[msg_type]
    end = _HEADER.size + count * rec_size
    if len(data) == end + trailer.size:
        if count > per:
            raise CountMismatch(f"{count} records in one datagram, over one part's {per}")
        return _view(msg_type, seq, timestamp_ms,
                     _LAYOUTS[msg_type][count].unpack_from(data, _HEADER.size),
                     trailer.unpack_from(data, end))
    # not a single-part datagram: expect a part byte after the header
    if len(data) < _HEADER.size + 1:
        raise CountMismatch("length matches neither a whole message nor a part")
    part_byte = data[_HEADER.size]
    final = part_byte > 0x7F
    end = len(data) - trailer.size if final else len(data)
    if end < _HEADER.size + 1:
        raise TruncatedDatagram("final part shorter than the trailer")
    k, extra = divmod(end - _HEADER.size - 1, rec_size)
    if extra:
        raise CountMismatch("part payload is not a whole number of records")
    if k > per:
        raise CountMismatch(f"{k} records in one part, over {per}")
    return DatagramPart(msg_type, seq, timestamp_ms, count, part_byte & 0x7F, final,
                        _LAYOUTS[msg_type][k].unpack_from(data, _HEADER.size + 1),
                        trailer.unpack_from(data, end) if final else ())


class Reassembler:
    """Collects split datagrams until a message completes.

    ``feed`` returns the completed :class:`DatagramView` (immediately for a
    single-part datagram), or None while parts are still outstanding.
    """

    def __init__(self):
        # (msg_type, seq) -> [first part fed, {index: part}, final part or None]
        self._pending: OrderedDict[tuple[int, int], list] = OrderedDict()

    def feed(self, data: bytes) -> DatagramView | None:
        decoded = decode_datagram(data)
        if isinstance(decoded, DatagramView):
            return decoded
        key = (decoded.msg_type, decoded.seq)
        entry = self._pending.setdefault(key, [decoded, {}, None])
        parts = entry[1]
        parts[decoded.index] = decoded
        if decoded.final:
            entry[2] = decoded
        while len(self._pending) > MAX_PENDING:
            self._pending.popitem(last=False)
        meta, _, final = entry
        if final is None or any(i not in parts for i in range(final.index + 1)):
            return None
        del self._pending[key]
        flat: list = []
        for i in range(final.index + 1):
            flat += parts[i].records
        if len(flat) != meta.count * _FIELDS[meta.msg_type]:
            raise CountMismatch(f"expected {meta.count} records, got {len(flat)} fields")
        return _view(meta.msg_type, meta.seq, meta.timestamp_ms, tuple(flat), final.trailer)


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
