"""Tests for the 48-packet Picos task-descriptor encoding (Figure 3)."""

from __future__ import annotations

import pytest

from repro.common.errors import PicosError
from repro.picos.packets import (
    HEADER_PACKETS,
    MAX_DEPENDENCES,
    PACKETS_PER_DEPENDENCE,
    PACKETS_PER_DESCRIPTOR,
    Direction,
    TaskDependence,
    TaskDescriptor,
    decode_descriptor,
    encode_descriptor,
    encode_nonzero_packets,
    nonzero_packet_count,
    zero_packet_count,
)


def make_descriptor(num_deps: int, sw_id: int = 0xABCD_1234_5678) -> TaskDescriptor:
    deps = tuple(
        TaskDependence(address=0x1000_0000_0000 + i * 64,
                       direction=Direction((i % 3) + 1))
        for i in range(num_deps)
    )
    return TaskDescriptor(sw_id=sw_id, dependences=deps)


class TestPacketCounts:
    def test_constants_match_figure3(self):
        assert PACKETS_PER_DESCRIPTOR == 48
        assert HEADER_PACKETS == 3
        assert PACKETS_PER_DEPENDENCE == 3
        assert MAX_DEPENDENCES == 15
        assert HEADER_PACKETS + MAX_DEPENDENCES * PACKETS_PER_DEPENDENCE == 48

    @pytest.mark.parametrize("deps", range(0, 16))
    def test_nonzero_plus_zero_is_always_48(self, deps):
        assert nonzero_packet_count(deps) == 3 + 3 * deps
        assert zero_packet_count(deps) == (15 - deps) * 3
        assert nonzero_packet_count(deps) + zero_packet_count(deps) == 48

    def test_out_of_range_dependence_count_rejected(self):
        with pytest.raises(PicosError):
            nonzero_packet_count(16)
        with pytest.raises(PicosError):
            zero_packet_count(-1)


class TestEncodeDecode:
    @pytest.mark.parametrize("deps", [0, 1, 7, 15])
    def test_roundtrip(self, deps):
        descriptor = make_descriptor(deps)
        packets = encode_descriptor(descriptor)
        assert len(packets) == 48
        assert decode_descriptor(packets) == descriptor

    def test_nonzero_prefix_matches_descriptor(self):
        descriptor = make_descriptor(2)
        prefix = encode_nonzero_packets(descriptor)
        assert len(prefix) == descriptor.nonzero_packets == 9
        full = encode_descriptor(descriptor)
        assert full[:9] == prefix
        assert all(packet == 0 for packet in full[9:])

    def test_sw_id_split_across_two_words(self):
        descriptor = make_descriptor(0, sw_id=(0xDEAD << 32) | 0xBEEF)
        packets = encode_descriptor(descriptor)
        assert packets[0] == 0xDEAD
        assert packets[1] == 0xBEEF
        assert packets[2] == 0

    def test_dependence_slot_layout(self):
        address = (0x1234 << 32) | 0x5678
        descriptor = TaskDescriptor(
            sw_id=1,
            dependences=(TaskDependence(address, Direction.INOUT),),
        )
        packets = encode_descriptor(descriptor)
        assert packets[2] == 1                      # dependence count
        assert packets[3] == 0x1234                 # address high
        assert packets[4] == 0x5678                 # address low
        assert packets[5] == int(Direction.INOUT)   # directionality

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(PicosError):
            decode_descriptor([0] * 47)

    def test_decode_rejects_bad_direction(self):
        packets = encode_descriptor(make_descriptor(1))
        packets[5] = 9
        with pytest.raises(PicosError):
            decode_descriptor(packets)

    def test_decode_rejects_nonzero_padding(self):
        packets = encode_descriptor(make_descriptor(1))
        packets[-1] = 1
        with pytest.raises(PicosError):
            decode_descriptor(packets)

    def test_decode_rejects_oversized_words(self):
        packets = encode_descriptor(make_descriptor(0))
        packets[0] = 1 << 32
        with pytest.raises(PicosError):
            decode_descriptor(packets)

    @pytest.mark.parametrize("bad, message", [
        ({7: 1 << 32}, "packet 7 is not a 32-bit word: 4294967296"),
        ({30: -1}, "packet 30 is not a 32-bit word: -1"),
        ({40: -5, 12: 1 << 40}, "packet 12 is not a 32-bit word: "
                                "1099511627776"),
    ])
    def test_decode_names_the_first_packet_out_of_range(self, bad, message):
        packets = encode_descriptor(make_descriptor(3))
        for index, value in bad.items():
            packets[index] = value
        with pytest.raises(PicosError, match=f"^{message}$"):
            decode_descriptor(packets)

    def test_decode_error_messages_name_slot_and_padding(self):
        packets = encode_descriptor(make_descriptor(2))
        packets[8] = 0
        with pytest.raises(PicosError, match="^invalid directionality code "
                                             "0 in slot 1$"):
            decode_descriptor(packets)
        packets = encode_descriptor(make_descriptor(2))
        packets[9] = 1      # first padding packet after two slots
        with pytest.raises(PicosError, match="zero-padding region"):
            decode_descriptor(packets)
        packets[9] = 0
        assert decode_descriptor(packets) == make_descriptor(2)

    def test_decode_rejects_too_many_dependences(self):
        packets = encode_descriptor(make_descriptor(0))
        packets[2] = 16
        with pytest.raises(PicosError):
            decode_descriptor(packets)


class TestDescriptorValidation:
    def test_more_than_15_dependences_rejected(self):
        deps = tuple(TaskDependence(64 * i, Direction.IN) for i in range(16))
        with pytest.raises(PicosError):
            TaskDescriptor(sw_id=0, dependences=deps)

    def test_sw_id_must_be_64bit(self):
        with pytest.raises(PicosError):
            TaskDescriptor(sw_id=1 << 64)

    def test_dependence_address_must_be_64bit(self):
        with pytest.raises(PicosError):
            TaskDependence(address=1 << 64, direction=Direction.IN)

    def test_direction_semantics(self):
        assert Direction.IN.reads and not Direction.IN.writes
        assert Direction.OUT.writes and not Direction.OUT.reads
        assert Direction.INOUT.reads and Direction.INOUT.writes
