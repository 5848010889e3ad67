"""Application-level integrity envelope: CRC-32, counts, and SECDED ECC.

Wire layout ("AMI1" envelope, all integers little-endian):

    magic "AMI1"        4 bytes
    payload_len         8 bytes
    record_count        8 bytes
    crc32(payload)      4 bytes
    ecc_present         1 byte
    payload             payload_len bytes
    secded check bytes  ceil(payload_len / 8) bytes, only when ecc_present

The ECC is an extended Hamming(72,64) code per 8-byte payload block (the
final partial block is padded with zeros for coding purposes only): any
single flipped bit among the 72 is corrected, any double flip is detected.
The header itself is not ECC-protected; header corruption is caught by the
magic and length checks or by the stored-CRC comparison.
"""

from __future__ import annotations

import re
import struct
import zlib
from enum import Enum
from typing import NamedTuple

MAGIC = b"AMI1"
_HEADER = struct.Struct("<4sQQIB")
HEADER_SIZE = _HEADER.size  # 25


def crc32(data: bytes) -> int:
    """Reflected CRC-32, polynomial 0xEDB88320, init and xorout 0xFFFFFFFF."""
    return zlib.crc32(data) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# SECDED: extended Hamming(72,64)
#
# Codeword positions 1..71 hold the Hamming(71,64) word with parity bits at
# the power-of-two positions; data bits fill the remaining 64 positions in
# ascending order (LSB first).  An overall parity bit makes the XOR of all
# 72 transmitted bits even.
# ---------------------------------------------------------------------------

_PARITY_POSITIONS = (1, 2, 4, 8, 16, 32, 64)
_DATA_POSITIONS = tuple(p for p in range(1, 72) if p not in _PARITY_POSITIONS)
assert len(_DATA_POSITIONS) == 64

# transmitted-bit layout: bits 0..63 data, 64..70 Hamming parities, 71 overall
_TX_POSITION = list(_DATA_POSITIONS) + list(_PARITY_POSITIONS)
_TX_OF_POSITION = {pos: j for j, pos in enumerate(_TX_POSITION)}
_SYNDROME_MASKS = tuple(
    sum(1 << j for j, pos in enumerate(_TX_POSITION) if pos & (1 << i))
    for i in range(7)
)
_ENCODE_MASKS = tuple(mask & ((1 << 64) - 1) for mask in _SYNDROME_MASKS)
_ALL_TX_MASK = (1 << 72) - 1
_NONZERO = re.compile(rb"[^\x00]")


class SecdedBlock(NamedTuple):
    data: int   # 64 bits
    check: int  # 8 bits: Hamming parities in bits 0..6, overall parity in bit 7


class SecdedResult(NamedTuple):
    data: int | None
    corrected: int
    double_error: bool


def secded_encode(data: int) -> SecdedBlock:
    if not (0 <= data < 1 << 64):
        raise ValueError("data must be a 64-bit unsigned value")
    check = 0
    for i, mask in enumerate(_ENCODE_MASKS):
        check |= ((data & mask).bit_count() & 1) << i
    overall = (data.bit_count() + check.bit_count()) & 1
    return SecdedBlock(data=data, check=check | overall << 7)


def secded_decode(block: SecdedBlock) -> SecdedResult:
    """Correct any single flipped bit; flag any double flip as uncorrectable."""
    word = (block.data & ((1 << 64) - 1)) | (block.check & 0xFF) << 64
    syndrome = 0
    for i, mask in enumerate(_SYNDROME_MASKS):
        syndrome |= ((word & mask).bit_count() & 1) << i
    total_parity = (word & _ALL_TX_MASK).bit_count() & 1

    if syndrome == 0 and total_parity == 0:
        return SecdedResult(block.data, corrected=0, double_error=False)
    if syndrome == 0 and total_parity == 1:
        # only the overall parity bit can flip without disturbing the syndrome
        return SecdedResult(block.data, corrected=1, double_error=False)
    if total_parity == 0 or syndrome > 71:
        return SecdedResult(None, corrected=0, double_error=True)
    word ^= 1 << _TX_OF_POSITION[syndrome]
    return SecdedResult(word & ((1 << 64) - 1), corrected=1, double_error=False)


def _lane(bit_checks: list[int]) -> bytes:
    """Every byte's check byte, from the check bytes of its 8 single bits."""
    table = [0]
    for check in bit_checks:  # bit i joins the 2**i bytes built so far
        table += [t ^ check for t in table]
    return bytes(table)


# The check byte is linear over GF(2) in the data bits, so a block's check
# byte is the XOR of each data bit's own check byte.  _LANES[j][b] is the
# check byte of a block holding only byte b at lane j; bytes.translate looks
# up a whole lane at once (the table-driven method of Sarwate's CRC).
_LANES = tuple(_lane([secded_encode(1 << 8 * j + i).check for i in range(8)]) for j in range(8))


def _ecc_bytes(payload: bytes) -> bytes:
    """One check byte per 8-byte block; the final block is padded with zeros."""
    blocks = (len(payload) + 7) // 8
    padded = payload.ljust(8 * blocks, b"\x00")
    check = 0
    for j, lane in enumerate(_LANES):
        check ^= int.from_bytes(padded[j::8].translate(lane), "little")
    return check.to_bytes(blocks, "little")


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------


class MismatchKind(Enum):
    BAD_MAGIC = "bad_magic"
    LENGTH_MISMATCH = "length_mismatch"
    CRC_MISMATCH = "crc_mismatch"
    UNCORRECTABLE_ECC = "uncorrectable_ecc"


class VerifyResult(NamedTuple):
    ok: bool
    payload: bytes | None = None
    record_count: int | None = None
    corrected_bits: int = 0
    mismatch: MismatchKind | None = None
    detail: str = ""


def wrap(payload: bytes, record_count: int, with_ecc: bool = False) -> bytes:
    """Build the AMI1 envelope around `payload`."""
    if not (0 <= record_count < 1 << 64):
        raise ValueError("record_count must fit in 64 bits")
    header = _HEADER.pack(MAGIC, len(payload), record_count, crc32(payload), 1 if with_ecc else 0)
    if with_ecc:
        return header + payload + _ecc_bytes(payload)
    return header + payload


def verify(wrapped: bytes) -> VerifyResult:
    """Check an AMI1 envelope; never raises on corrupt input.

    Fields are checked in wire order so the result names the first failing
    one.  With ECC present, single-bit payload errors are corrected before
    the CRC comparison and reported via corrected_bits.  Only the blocks
    whose recomputed check byte differs from the sent one are decoded, in
    ascending order.
    """
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
        # a block's syndrome byte is zero exactly when it needs no correction
        syndromes = (
            int.from_bytes(_ecc_bytes(payload), "little") ^ int.from_bytes(checks, "little")
        ).to_bytes(ecc_len, "little")
        fixed = bytearray(payload)
        for match in _NONZERO.finditer(syndromes):
            i = match.start()
            chunk = payload[i * 8 : i * 8 + 8]
            block = SecdedBlock(int.from_bytes(chunk.ljust(8, b"\x00"), "little"), checks[i])
            result = secded_decode(block)
            if result.double_error:
                return VerifyResult(False, mismatch=MismatchKind.UNCORRECTABLE_ECC,
                                    detail=f"double-bit error in 8-byte block {i}")
            corrected += result.corrected
            fixed[i * 8 : i * 8 + len(chunk)] = result.data.to_bytes(8, "little")[: len(chunk)]
        payload = bytes(fixed)
    if crc32(payload) != stored_crc:
        return VerifyResult(False, corrected_bits=corrected, mismatch=MismatchKind.CRC_MISMATCH,
                            detail=f"stored 0x{stored_crc:08X}, computed 0x{crc32(payload):08X}")
    return VerifyResult(True, payload=payload, record_count=record_count, corrected_bits=corrected)
