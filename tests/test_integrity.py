import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from amstpa_lab.integrity import (
    _HEADER,
    _LANES,
    HEADER_SIZE,
    MAGIC,
    MismatchKind,
    SecdedBlock,
    VerifyResult,
    _ecc_bytes,
    crc32,
    secded_decode,
    secded_encode,
    verify,
    wrap,
)


def crc32_bitserial(data: bytes) -> int:
    """Independent reference: bit-at-a-time reflected CRC-32."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


class TestCrc32:
    def test_empty(self):
        assert crc32(b"") == 0x00000000
        assert crc32_bitserial(b"") == 0x00000000

    def test_standard_check_value(self):
        assert crc32_bitserial(b"123456789") == 0xCBF43926
        assert crc32(b"123456789") == 0xCBF43926

    @given(st.binary(max_size=512))
    def test_matches_bit_serial_oracle(self, data):
        assert crc32(data) == crc32_bitserial(data)

    @given(st.binary(min_size=1, max_size=64), st.data())
    def test_single_bit_flip_changes_crc(self, data, pick):
        bit = pick.draw(st.integers(min_value=0, max_value=len(data) * 8 - 1))
        mutated = bytearray(data)
        mutated[bit // 8] ^= 1 << (bit % 8)
        assert crc32(bytes(mutated)) != crc32(data)


def flip(block: SecdedBlock, bit: int) -> SecdedBlock:
    if bit < 64:
        return SecdedBlock(block.data ^ (1 << bit), block.check)
    return SecdedBlock(block.data, block.check ^ (1 << (bit - 64)))


class TestSecded:
    def test_zero_codeword(self):
        block = secded_encode(0)
        assert block.check == 0
        result = secded_decode(block)
        assert (result.data, result.corrected, result.double_error) == (0, 0, False)

    def test_out_of_range_data(self):
        with pytest.raises(ValueError):
            secded_encode(1 << 64)
        with pytest.raises(ValueError):
            secded_encode(-1)

    def test_all_72_single_flips_corrected(self):
        block = secded_encode(0xDEADBEEF00000001)
        for bit in range(72):
            result = secded_decode(flip(block, bit))
            assert not result.double_error
            assert result.corrected == 1
            assert result.data == block.data, f"bit {bit}"

    def test_all_2556_double_flips_detected(self):
        block = secded_encode(0xDEADBEEF00000001)
        count = 0
        for i, j in itertools.combinations(range(72), 2):
            result = secded_decode(flip(flip(block, i), j))
            assert result.double_error, (i, j)
            count += 1
        assert count == 2556

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_encode_decode_round_trip(self, data):
        assert secded_decode(secded_encode(data)).data == data


class TestEnvelope:
    @given(st.binary(max_size=4096), st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_verify_wrap_identity(self, payload, records):
        result = verify(wrap(payload, records))
        assert result.ok
        assert result.payload == payload
        assert result.record_count == records
        assert result.corrected_bits == 0

    def test_one_mebibyte_round_trip(self):
        payload = random.Random(99).randbytes(1 << 20)
        result = verify(wrap(payload, 12345))
        assert result.ok and result.payload == payload

    def test_header_layout(self):
        wrapped = wrap(b"abc", 2)
        assert wrapped[:4] == MAGIC
        assert len(wrapped) == HEADER_SIZE + 3
        magic, payload_len, record_count, crc, ecc_present = _HEADER.unpack_from(wrapped, 0)
        assert magic == MAGIC
        assert payload_len == 3
        assert record_count == 2
        assert not ecc_present
        assert crc == crc32(b"abc")

    def test_bad_magic(self):
        wrapped = bytearray(wrap(b"abc", 1))
        wrapped[0] ^= 0xFF
        result = verify(bytes(wrapped))
        assert not result.ok
        assert result.mismatch is MismatchKind.BAD_MAGIC

    def test_truncated_header(self):
        assert verify(wrap(b"abc", 1)[:10]).mismatch is MismatchKind.LENGTH_MISMATCH

    def test_truncated_payload(self):
        result = verify(wrap(b"abcdef", 1)[:-2])
        assert result.mismatch is MismatchKind.LENGTH_MISMATCH
        assert "got" in result.detail

    def test_single_flip_without_ecc_is_crc_mismatch(self):
        wrapped = bytearray(wrap(b"hello world", 1))
        wrapped[HEADER_SIZE + 4] ^= 0x20
        result = verify(bytes(wrapped))
        assert result.mismatch is MismatchKind.CRC_MISMATCH

    def test_single_flip_with_ecc_corrected(self):
        wrapped = bytearray(wrap(b"hello world", 1, with_ecc=True))
        wrapped[HEADER_SIZE + 4] ^= 0x20
        result = verify(bytes(wrapped))
        assert result.ok
        assert result.corrected_bits == 1
        assert result.payload == b"hello world"

    def test_exhaustive_single_flips_small_payload(self):
        payload = random.Random(7).randbytes(64)
        wrapped = wrap(payload, 3, with_ecc=True)
        for bit in range(HEADER_SIZE * 8, len(wrapped) * 8):
            mutated = bytearray(wrapped)
            mutated[bit // 8] ^= 1 << (bit % 8)
            result = verify(bytes(mutated))
            assert result.ok, f"bit {bit}: {result.mismatch}"
            assert result.corrected_bits == 1
            assert result.payload == payload

    def test_sampled_single_flips_kibibyte_payload(self):
        payload = random.Random(8).randbytes(1024)
        wrapped = wrap(payload, 11, with_ecc=True)
        for bit in range(HEADER_SIZE * 8, len(wrapped) * 8, 97):
            mutated = bytearray(wrapped)
            mutated[bit // 8] ^= 1 << (bit % 8)
            result = verify(bytes(mutated))
            assert result.ok and result.corrected_bits == 1 and result.payload == payload

    def test_double_flip_in_one_block_uncorrectable(self):
        wrapped = bytearray(wrap(b"A" * 16, 1, with_ecc=True))
        wrapped[HEADER_SIZE] ^= 0x01
        wrapped[HEADER_SIZE + 3] ^= 0x01  # same 8-byte block
        result = verify(bytes(wrapped))
        assert result.mismatch is MismatchKind.UNCORRECTABLE_ECC

    def test_ecc_flag_flip_detected(self):
        wrapped = bytearray(wrap(b"hello world", 1))
        wrapped[HEADER_SIZE - 1] ^= 0x01  # ecc_present byte
        assert verify(bytes(wrapped)).mismatch is MismatchKind.LENGTH_MISMATCH

    def test_crc_field_flip_detected(self):
        wrapped = bytearray(wrap(b"hello world", 1))
        wrapped[20] ^= 0x01  # stored crc32 field
        assert verify(bytes(wrapped)).mismatch is MismatchKind.CRC_MISMATCH

    def test_empty_payload(self):
        result = verify(wrap(b"", 0))
        assert result.ok and result.payload == b""

    def test_record_count_bounds(self):
        with pytest.raises(ValueError):
            wrap(b"x", -1)
        with pytest.raises(ValueError):
            wrap(b"x", 1 << 64)


# ---------------------------------------------------------------------------
# Scalar oracles: the per-block encoder and decoder that the lane-table
# encoder and the syndrome-only decoder replaced.
# ---------------------------------------------------------------------------


def scalar_ecc_bytes(payload: bytes) -> bytes:
    out = bytearray()
    for off in range(0, len(payload), 8):
        chunk = payload[off : off + 8].ljust(8, b"\x00")
        out.append(secded_encode(int.from_bytes(chunk, "little")).check)
    return bytes(out)


def scalar_verify(wrapped: bytes) -> VerifyResult:
    if wrapped[:4] != MAGIC:
        return VerifyResult(False, mismatch=MismatchKind.BAD_MAGIC,
                            detail=f"expected {MAGIC!r}, got {bytes(wrapped[:4])!r}")
    if len(wrapped) < HEADER_SIZE:
        return VerifyResult(False, mismatch=MismatchKind.LENGTH_MISMATCH,
                            detail=f"header truncated at {len(wrapped)} bytes")
    _, payload_len, record_count, stored_crc, flag = _HEADER.unpack_from(wrapped, 0)
    ecc_present = flag != 0
    ecc_len = (payload_len + 7) // 8 if ecc_present else 0
    expected = HEADER_SIZE + payload_len + ecc_len
    if len(wrapped) != expected:
        return VerifyResult(False, mismatch=MismatchKind.LENGTH_MISMATCH,
                            detail=f"expected {expected} bytes, got {len(wrapped)}")
    payload = wrapped[HEADER_SIZE : HEADER_SIZE + payload_len]
    corrected = 0
    if ecc_present:
        checks = wrapped[HEADER_SIZE + payload_len :]
        fixed = bytearray()
        for i in range(ecc_len):
            chunk = payload[i * 8 : i * 8 + 8]
            pad = 8 - len(chunk)
            block = SecdedBlock(int.from_bytes(chunk.ljust(8, b"\x00"), "little"), checks[i])
            result = secded_decode(block)
            if result.double_error:
                return VerifyResult(False, mismatch=MismatchKind.UNCORRECTABLE_ECC,
                                    detail=f"double-bit error in 8-byte block {i}")
            corrected += result.corrected
            fixed += result.data.to_bytes(8, "little")[: 8 - pad]
        payload = bytes(fixed)
    if crc32(payload) != stored_crc:
        return VerifyResult(False, corrected_bits=corrected, mismatch=MismatchKind.CRC_MISMATCH,
                            detail=f"stored 0x{stored_crc:08X}, computed 0x{crc32(payload):08X}")
    return VerifyResult(True, payload=payload, record_count=record_count, corrected_bits=corrected)


def block_bits(payload_len: int, block: int) -> list[int]:
    """Bit offsets, within an ECC envelope, of one block's sent data and check bits."""
    data = range((HEADER_SIZE + 8 * block) * 8, (HEADER_SIZE + min(8 * block + 8, payload_len)) * 8)
    check = HEADER_SIZE + payload_len + block
    return [*data, *range(check * 8, check * 8 + 8)]


@st.composite
def damaged_envelopes(draw):
    """An ECC envelope with 0 to 3 flipped bits in each of up to 4 blocks."""
    payload = draw(st.binary(min_size=1, max_size=120))
    wrapped = bytearray(wrap(payload, draw(st.integers(0, 99)), with_ecc=True))
    blocks = (len(payload) + 7) // 8
    last = st.just(blocks - 1)  # the padded final block, drawn often
    for block in draw(st.lists(st.integers(0, blocks - 1) | last, max_size=4, unique=True)):
        for bit in draw(st.lists(st.sampled_from(block_bits(len(payload), block)),
                                 max_size=3, unique=True)):
            wrapped[bit // 8] ^= 1 << (bit % 8)
    return bytes(wrapped)


class TestBulkSecdedMatchesScalarOracle:
    def test_lane_tables_match_per_byte_encodes(self):
        # the tables are built from 64 single-bit encodes; the oracle
        # encodes every byte value at every lane
        assert _LANES == tuple(
            bytes(secded_encode(b << 8 * j).check for b in range(256)) for j in range(8)
        )

    def test_encode_every_length_to_300(self):
        data = random.Random(300).randbytes(300)
        for n in range(301):
            assert _ecc_bytes(data[:n]) == scalar_ecc_bytes(data[:n]), n

    def test_encode_large_payload(self):
        data = random.Random(76283).randbytes(76283)
        assert _ecc_bytes(data) == scalar_ecc_bytes(data)

    @given(st.binary(max_size=300))
    def test_encode(self, payload):
        assert _ecc_bytes(payload) == scalar_ecc_bytes(payload)

    @given(damaged_envelopes())
    def test_verify(self, wrapped):
        assert verify(wrapped) == scalar_verify(wrapped)

    def test_verify_reports_the_first_double_error(self):
        wrapped = bytearray(wrap(bytes(range(40)), 5, with_ecc=True))
        for block in (1, 3):  # two bits in each of blocks 1 and 3
            for bit in block_bits(40, block)[:2]:
                wrapped[bit // 8] ^= 1 << (bit % 8)
        wrapped[HEADER_SIZE] ^= 0x01  # and one correctable bit in block 0
        result = verify(bytes(wrapped))
        assert result == scalar_verify(bytes(wrapped))
        assert result.detail == "double-bit error in 8-byte block 1"

    def test_verify_corrects_the_padded_final_block(self):
        payload = b"0123456789"  # the second block holds 2 bytes and 6 of padding
        for bit in block_bits(len(payload), 1):
            wrapped = bytearray(wrap(payload, 1, with_ecc=True))
            wrapped[bit // 8] ^= 1 << (bit % 8)
            result = verify(bytes(wrapped))
            assert result == scalar_verify(bytes(wrapped))
            assert result.ok and result.corrected_bits == 1 and result.payload == payload
