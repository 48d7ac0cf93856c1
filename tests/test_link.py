import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from loadshed.link import (
    BadMagic,
    BadMessageType,
    BadVersion,
    CountMismatch,
    DatagramPart,
    DatagramTooLarge,
    DecodeError,
    DelayQueue,
    ImpairmentConfig,
    MAX_DATAGRAM,
    MAX_ID,
    MAX_PARTS,
    MAX_TELEMETRY_LOADS,
    MAX_TIMESTAMP_MS,
    MSG_COMMANDS,
    MSG_TELEMETRY,
    Reassembler,
    TruncatedDatagram,
    decode_datagram,
    encode_commands_parts,
    encode_telemetry_parts,
    impair,
    impairment_rng,
    replay_drop_schedule,
)
from loadshed.model import ShedCommand, SystemSnapshot


def snapshot(n_loads=0, time_s=0.0, seq_base=0):
    ids = tuple(seq_base + i for i in range(n_loads))
    measured = tuple(float(i) * 1e6 for i in range(n_loads))
    return SystemSnapshot(
        time_s=time_s, mission_id=0, load_ids=ids, demands=(1.0,) * n_loads,
        measured_w=measured,
        total_capacity_w=0.0, total_loss_w=0.0, loading_pu=0.0,
    )


def random_snapshot(rng):
    n = rng.randint(0, 60)
    ids = tuple(rng.randint(0, 65535) for _ in range(n))
    demands = tuple(rng.random() for _ in range(n))
    measured = tuple(rng.uniform(0, 4e7) for _ in range(n))
    return SystemSnapshot(
        time_s=rng.uniform(0, 1e4),
        mission_id=rng.randint(0, 65535),
        load_ids=ids,
        demands=demands,
        measured_w=measured,
        total_capacity_w=rng.uniform(0, 1e8),
        total_loss_w=rng.uniform(0, 1e6),
        loading_pu=rng.uniform(0, 2),
    )


def telemetry_datagram(snap, seq):
    """The one datagram of a telemetry message that fits one."""
    (data,) = encode_telemetry_parts(snap, seq)
    return data


def command_datagram(commands, seq):
    """The one datagram of a command batch that fits one."""
    (data,) = encode_commands_parts(commands, seq)
    return data


class TestByteLayout:
    def test_empty_fleet_telemetry_header_and_trailer(self):
        data = telemetry_datagram(snapshot(), seq=1)
        header = bytes([0x4C, 0x53, 0x01, 0x01, 0x01, 0x00, 0x00, 0x00]) + b"\x00" * 8 + b"\x00\x00"
        assert data[:18] == header
        assert len(data) == 18 + 34  # header plus the 34-byte trailer
        assert data[18:] == b"\x00" * 34
        decoded = decode_datagram(data).snapshot
        assert decoded == snapshot()
        assert (decoded.load_ids, decoded.demands, decoded.measured_w) == ((), (), ())

    def test_telemetry_record_bytes(self):
        snap = SystemSnapshot(0.0, 0, (7,), (1.0,), (2.5e6,), 0.0, 0.0, 0.0)
        data = telemetry_datagram(snap, seq=0)
        record = data[18 : 18 + 18]
        assert record[:2] == b"\x07\x00"
        assert record[2:10] == b"\x00\x00\x00\x00\x00\x00\xf0\x3f"  # binary64(1.0)
        assert record[10:] == struct.pack("<d", 2.5e6)

    def test_command_record_bytes(self):
        data = command_datagram([ShedCommand(3, 0.5)], seq=0)
        assert data[18:20] == b"\x03\x00"
        assert data[20:] == b"\x00\x00\x00\x00\x00\x00\xe0\x3f"  # binary64(0.5)

    def test_zero_commands_is_header_only(self):
        data = command_datagram([], seq=9)
        assert len(data) == 18
        _, _, _, _, _, count = struct.unpack("<2sBBIQH", data)
        assert count == 0


class TestRoundTrip:
    def test_default_fleet_size_identity(self):
        rng = random.Random(1)
        snap = random_snapshot(rng)
        assert decode_datagram(telemetry_datagram(snap, seq=77)).snapshot == snap

    def test_many_random_messages(self):
        rng = random.Random(2)
        for _ in range(300):
            snap = random_snapshot(rng)
            seq = rng.randint(0, 2**32 - 1)
            assert decode_datagram(telemetry_datagram(snap, seq)).snapshot == snap
            commands = tuple(
                ShedCommand(rng.randint(0, 65535), rng.random())
                for _ in range(rng.randint(0, 120))
            )
            assert decode_datagram(command_datagram(commands, seq=1)).commands == commands

    def test_seq_and_timestamp_preserved(self):
        view = decode_datagram(telemetry_datagram(snapshot(3, time_s=12.3), seq=42))
        assert view.seq == 42
        assert view.timestamp_ms == 12300


class TestDecodeErrors:
    def test_truncated(self):
        with pytest.raises(TruncatedDatagram):
            decode_datagram(b"LS\x01")

    def test_bad_magic(self):
        data = bytearray(telemetry_datagram(snapshot(), 1))
        data[0] = 0x58
        with pytest.raises(BadMagic):
            decode_datagram(bytes(data))

    def test_bad_version(self):
        data = bytearray(telemetry_datagram(snapshot(), 1))
        data[2] = 2
        with pytest.raises(BadVersion):
            decode_datagram(bytes(data))

    def test_bad_message_type(self):
        data = bytearray(telemetry_datagram(snapshot(), 1))
        data[3] = 9
        with pytest.raises(BadMessageType):
            decode_datagram(bytes(data))

    def test_count_mismatch(self):
        data = bytearray(telemetry_datagram(snapshot(2), 1))
        data[16] = 7  # count field low byte
        with pytest.raises(CountMismatch):
            decode_datagram(bytes(data))

    def test_message_type_is_in_the_view(self):
        commands = decode_datagram(command_datagram([], 1))
        assert (commands.msg_type, commands.snapshot, commands.commands) == (MSG_COMMANDS, None, ())
        telemetry = decode_datagram(telemetry_datagram(snapshot(), 1))
        assert (telemetry.msg_type, telemetry.commands) == (MSG_TELEMETRY, None)
        assert telemetry.snapshot == snapshot()

    def test_fuzz_never_crashes(self):
        rng = random.Random(3)
        for _ in range(20000):
            blob = rng.randbytes(rng.randint(0, 120))
            try:
                decode_datagram(blob)
            except DecodeError:
                pass

    def test_mutated_valid_datagrams_never_crash(self):
        rng = random.Random(4)
        base = telemetry_datagram(random_snapshot(rng), seq=5)
        for _ in range(2000):
            data = bytearray(base)
            for _ in range(rng.randint(1, 6)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            try:
                decode_datagram(bytes(data))
            except DecodeError:
                pass


class TestMultipart:
    def test_large_fleet_splits_and_reassembles(self):
        snap = snapshot(120, time_s=3.2)
        parts = encode_telemetry_parts(snap, seq=9)
        assert len(parts) > 1
        assert all(len(p) <= MAX_DATAGRAM for p in parts)
        first = decode_datagram(parts[0])
        assert isinstance(first, DatagramPart) and (first.index, first.final) == (0, False)
        reasm = Reassembler()
        views = [reasm.feed(p) for p in parts]
        assert views[:-1] == [None] * (len(parts) - 1)
        assert views[-1].snapshot == snap

    def test_out_of_order_parts(self):
        snap = snapshot(120)
        parts = list(encode_telemetry_parts(snap, seq=9))
        rng = random.Random(5)
        rng.shuffle(parts)
        reasm = Reassembler()
        results = [reasm.feed(p) for p in parts]
        done = [r for r in results if r is not None]
        assert len(done) == 1 and done[0].snapshot == snap

    def test_missing_part_never_completes(self):
        parts = encode_telemetry_parts(snapshot(120), seq=9)
        reasm = Reassembler()
        assert all(reasm.feed(p) is None for p in parts[1:])

    def test_single_part_passthrough(self):
        reasm = Reassembler()
        view = reasm.feed(command_datagram([ShedCommand(1, 0.0)], seq=3))
        assert view.commands == (ShedCommand(1, 0.0),)

    def test_wire_limits(self):
        assert (MAX_ID, MAX_PARTS, MAX_TELEMETRY_LOADS) == (65535, 128, 128 * 74)

    def test_largest_fleet_fills_every_part_index(self):
        snap = snapshot(MAX_TELEMETRY_LOADS)
        parts = encode_telemetry_parts(snap, seq=4)
        assert len(parts) == MAX_PARTS
        decoded = [decode_datagram(p) for p in parts]
        assert [d.index for d in decoded] == list(range(MAX_PARTS))
        assert [d.final for d in decoded] == [False] * (MAX_PARTS - 1) + [True]
        reasm = Reassembler()
        assert [reasm.feed(p) for p in parts][-1].snapshot == snap

    def test_one_load_past_the_part_limit_raises(self):
        with pytest.raises(DatagramTooLarge):
            encode_telemetry_parts(snapshot(MAX_TELEMETRY_LOADS + 1), seq=4)

    def test_command_split(self):
        commands = tuple(ShedCommand(i, i / 300.0) for i in range(300))
        parts = encode_commands_parts(commands, seq=2)
        assert len(parts) > 1
        reasm = Reassembler()
        *rest, last = [reasm.feed(p) for p in parts]
        assert last.commands == commands


class TestImpairment:
    def test_zero_loss_always_delivers(self):
        cfg = ImpairmentConfig(loss_probability=0.0, latency_ms=5.0)
        rng = impairment_rng(1, "telemetry")
        assert all(impair(cfg, 0.0, rng) == pytest.approx(0.005) for _ in range(1000))

    def test_certain_loss_always_drops(self):
        cfg = ImpairmentConfig(loss_probability=1.0)
        rng = impairment_rng(1, "telemetry")
        assert all(impair(cfg, 0.0, rng) is None for _ in range(1000))

    def test_binomial_drop_count_seed_42(self):
        cfg = ImpairmentConfig(loss_probability=0.1, seed=42)
        q = DelayQueue(cfg, "telemetry")
        dropped = sum(q.submit(k, now_s=0.0) is None for k in range(10000))
        assert abs(dropped - 1000) <= 60  # two-sigma binomial band

    def test_replay_matches_queue_decisions(self):
        cfg = ImpairmentConfig(loss_probability=0.3, latency_ms=2.0, jitter_ms=1.0, seed=7)
        q = DelayQueue(cfg, "commands")
        outcomes = [q.submit(k, now_s=k * 0.1) is None for k in range(500)]
        assert outcomes == replay_drop_schedule(cfg, "commands", 500)

    def test_fifo_order_with_zero_jitter(self):
        cfg = ImpairmentConfig(latency_ms=50.0)
        q = DelayQueue(cfg, "telemetry")
        for k in range(20):
            q.submit(k, now_s=0.0)
        assert q.poll(1.0) == list(range(20))

    def test_delivery_respects_latency(self):
        cfg = ImpairmentConfig(latency_ms=100.0)
        q = DelayQueue(cfg, "telemetry")
        q.submit("x", now_s=1.0)
        assert q.poll(1.05) == []
        assert q.poll(1.1) == ["x"]

    def test_delivered_is_subsequence_of_sent(self):
        cfg = ImpairmentConfig(loss_probability=0.4, latency_ms=10.0, jitter_ms=0.0, seed=3)
        q = DelayQueue(cfg, "telemetry")
        for k in range(200):
            q.submit(k, now_s=k * 0.1)
        delivered = q.poll(1e9)
        assert delivered == sorted(delivered)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
           st.integers(min_value=0, max_value=60))
    def test_round_trip_property(self, time_s, n_loads):
        snap = snapshot(n_loads, time_s=time_s)
        assert decode_datagram(telemetry_datagram(snap, seq=0)).snapshot == snap


# the per-record codec the struct-per-part one replaced, kept as the reference
_REF_HEADER = struct.Struct("<2sBBIQH")
_REF_TELEMETRY = struct.Struct("<Hdd")
_REF_TRAILER = struct.Struct("<ddHdd")
_REF_COMMAND = struct.Struct("<Hd")


def reference_parts(msg_type, seq, timestamp_ms, count, records, trailer, per):
    header = _REF_HEADER.pack(b"LS", 1, msg_type, seq, timestamp_ms, count)
    if len(header) + len(records) + len(trailer) <= MAX_DATAGRAM:
        return (header + records + trailer,)
    step = per * (len(records) // count)
    starts = range(0, len(records), step)
    return tuple(header + bytes([i | (0x80 if i == len(starts) - 1 else 0)])
                 + records[start : start + step] + (trailer if i == len(starts) - 1 else b"")
                 for i, start in enumerate(starts))


def reference_telemetry(snap, seq):
    records = b"".join(map(_REF_TELEMETRY.pack, snap.load_ids, snap.demands, snap.measured_w))
    trailer = _REF_TRAILER.pack(snap.total_capacity_w, snap.total_loss_w, snap.mission_id,
                                snap.loading_pu, snap.time_s)
    timestamp = max(0, round(snap.time_s * 1000.0))
    return reference_parts(MSG_TELEMETRY, seq, timestamp, len(snap.load_ids), records, trailer,
                           74), records, trailer


def reference_commands(commands, seq, timestamp_ms):
    records = b"".join(_REF_COMMAND.pack(c.load_id, c.status) for c in commands)
    return reference_parts(MSG_COMMANDS, seq, timestamp_ms, len(commands), records, b"", 138)


def bits(values):
    """The binary64 bytes of each value: tells -0.0 from 0.0 and one NaN from another."""
    return [struct.pack("<d", v) for v in values]


NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_DEAD_BEEF))[0]
NEG_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0001))[0]
SPECIALS = (-0.0, math.inf, -math.inf, NAN_PAYLOAD, NEG_NAN, 5e-324, -2.2250738585072e-308,
            0.0, 1.0, 0.3, 4e7)
RECORD_COUNTS = (0, 1, 73, 74, 75, 148, 672, MAX_TELEMETRY_LOADS)


def special_snapshot(n, time_s=310.25):
    return SystemSnapshot(
        time_s=time_s, mission_id=MAX_ID, load_ids=tuple((7919 * i) % 65536 for i in range(n)),
        demands=tuple(SPECIALS[i % len(SPECIALS)] for i in range(n)),
        measured_w=tuple(SPECIALS[(3 * i + 1) % len(SPECIALS)] for i in range(n)),
        total_capacity_w=NAN_PAYLOAD, total_loss_w=-0.0, loading_pu=5e-324,
    )


def assert_same_snapshot(got, want):
    assert got.load_ids == want.load_ids
    assert type(got.load_ids) is type(got.demands) is type(got.measured_w) is tuple
    for name in ("demands", "measured_w"):
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    assert bits((got.total_capacity_w, got.total_loss_w, got.loading_pu, got.time_s)) == bits(
        (want.total_capacity_w, want.total_loss_w, want.loading_pu, want.time_s))
    assert got.mission_id == want.mission_id


class TestBitExact:
    """The codec writes the bytes of a per-record ``struct`` join, and decodes
    every binary64 to its own 8 bytes, at every part boundary."""

    @pytest.mark.parametrize("n", RECORD_COUNTS)
    def test_telemetry_bytes_and_values(self, n):
        snap = special_snapshot(n)
        parts = encode_telemetry_parts(snap, seq=0xFFFF_FFFF)
        assert parts == reference_telemetry(snap, 0xFFFF_FFFF)[0]
        reasm = Reassembler()
        *pending, view = [reasm.feed(p) for p in parts]
        assert pending == [None] * (len(parts) - 1)
        assert (view.seq, view.timestamp_ms) == (0xFFFF_FFFF, 310250)
        assert_same_snapshot(view.snapshot, snap)

    @pytest.mark.parametrize("n", [n for n in RECORD_COUNTS if n > 74])
    def test_split_parts_out_of_order(self, n):
        snap = special_snapshot(n)
        parts = list(encode_telemetry_parts(snap, seq=3))
        random.Random(n).shuffle(parts)
        reasm = Reassembler()
        done = [v for v in map(reasm.feed, parts) if v is not None]
        assert len(done) == 1
        assert_same_snapshot(done[0].snapshot, snap)

    @pytest.mark.parametrize("n", [75, 148, 672])
    def test_oversize_single_datagram_decodes_in_chunks(self, n):
        # a whole message past MAX_DATAGRAM, which the encoder never sends,
        # still decodes, one part's worth of records per struct call
        snap = special_snapshot(n)
        _, records, trailer = reference_telemetry(snap, 1)
        data = _REF_HEADER.pack(b"LS", 1, MSG_TELEMETRY, 1, 310250, n) + records + trailer
        assert_same_snapshot(decode_datagram(data).snapshot, snap)

    @pytest.mark.parametrize("n", (0, 1, 137, 138, 139, 276, 672, MAX_TELEMETRY_LOADS))
    def test_command_bytes_and_values(self, n):
        commands = tuple(ShedCommand((7919 * i) % 65536, SPECIALS[i % len(SPECIALS)])
                         for i in range(n))
        parts = encode_commands_parts(commands, seq=8, timestamp_ms=MAX_TIMESTAMP_MS)
        assert parts == reference_commands(commands, 8, MAX_TIMESTAMP_MS)
        shuffled = list(parts)
        random.Random(n).shuffle(shuffled)
        for order in (parts, shuffled):
            reasm = Reassembler()
            done = [v for v in map(reasm.feed, order) if v is not None]
            assert len(done) == 1
            got = done[0].commands
            assert type(got) is tuple and all(type(c) is ShedCommand for c in got)
            assert [c.load_id for c in got] == [c.load_id for c in commands]
            assert bits(c.status for c in got) == bits(c.status for c in commands)
