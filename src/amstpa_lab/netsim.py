"""Deterministic channel simulation with QoS parameters.

Every transfer is a pure function of (payload, channel, mode, packet size):
packet fates come from a SplitMix64 stream seeded by the channel seed, with
exactly two draws per transmission attempt (loss, then jitter), so results
are reproducible bit for bit on any platform.  Both transfer modes run
through the one packet loop in `transfer`: reliable and best-effort differ
only in each packet's attempt budget and in what a packet that spends it
becomes (a channel-down error, or a zero-filled gap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
MAX_RETRIES = 64


def splitmix64_next(state: int) -> tuple[int, int]:
    """One step of the published SplitMix64 recurrence: (output, new_state)."""
    state = (state + _GOLDEN) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)), state


def splitmix64_at(seed: int, index: int) -> int:
    """index-th output of the SplitMix64 stream that starts at `seed`."""
    value, _ = splitmix64_next((seed + index * _GOLDEN) & _MASK)
    return value


def _u01(value: int) -> float:
    return value / 2.0**64


@dataclass(frozen=True)
class ChannelParams:
    latency_ms: float = 0.0
    jitter_ms: float = 0.0
    bandwidth_bytes_per_s: float = 1_000_000.0
    loss_prob: float = 0.0
    seed: int = 1

    def __post_init__(self) -> None:
        if not (0 <= self.latency_ms < math.inf and 0 <= self.jitter_ms < math.inf):
            raise ValueError("latency_ms and jitter_ms must be finite and >= 0")
        if not (0 < self.bandwidth_bytes_per_s < math.inf):
            raise ValueError("bandwidth_bytes_per_s must be finite and > 0")
        if not (0.0 <= self.loss_prob <= 1.0):
            raise ValueError("loss_prob must be within [0, 1]")


class TransferMode(Enum):
    RELIABLE_ORDERED = "reliable"
    BEST_EFFORT = "besteffort"


@dataclass(frozen=True)
class TransferResult:
    delivered: bytes
    intact: bool
    elapsed_ms: float
    packets_sent: int
    packets_lost: int
    retransmissions: int
    gap_map: tuple[tuple[int, int], ...] = field(default_factory=tuple)


class ChannelDownError(Exception):
    """A packet exceeded MAX_RETRIES; carries delivery progress so far."""

    def __init__(self, result: TransferResult):
        super().__init__(
            f"packet exceeded {MAX_RETRIES} retries "
            f"({result.packets_sent} attempts, {result.packets_lost} lost)"
        )
        self.result = result


def _attempt(state: int, ch: ChannelParams, nbytes: int) -> tuple[bool, float, int]:
    """One transmission attempt: (lost, elapsed_ms, new_state)."""
    u_loss, state = splitmix64_next(state)
    u_jit, state = splitmix64_next(state)
    lost = _u01(u_loss) < ch.loss_prob
    jitter = (2.0 * _u01(u_jit) - 1.0) * ch.jitter_ms
    elapsed = ch.latency_ms + jitter + nbytes / ch.bandwidth_bytes_per_s * 1000.0
    return lost, elapsed, state


def check_packet_size(packet_size: int) -> None:
    if packet_size < 1:
        raise ValueError("packet_size must be >= 1")


def transfer(
    payload: bytes,
    ch: ChannelParams,
    mode: TransferMode,
    packet_size: int,
) -> TransferResult:
    """Simulate sending `payload` split into fixed-size packets.

    ReliableOrdered retransmits each lost packet (stop-and-wait) up to
    MAX_RETRIES times, raising ChannelDownError past the bound.  BestEffort
    sends each packet once; lost packets become zero-filled gaps recorded in
    gap_map, so the delivered buffer always has the original length.
    Retransmissions are the attempts after each packet's first.
    """
    check_packet_size(packet_size)
    if not payload:
        raise ValueError("payload must be non-empty")

    reliable = mode is TransferMode.RELIABLE_ORDERED
    budget = 1 + MAX_RETRIES if reliable else 1
    offsets = range(0, len(payload), packet_size)
    state = ch.seed & _MASK
    elapsed = 0.0
    sent = lost = 0
    delivered = bytearray(len(payload))
    gaps: list[tuple[int, int]] = []
    for off in offsets:
        packet = payload[off : off + packet_size]
        for _ in range(budget):
            was_lost, dt, state = _attempt(state, ch, len(packet))
            sent += 1
            elapsed += dt
            if not was_lost:
                delivered[off : off + len(packet)] = packet
                break
            lost += 1
        else:  # the packet spent its budget
            if reliable:
                raise ChannelDownError(
                    TransferResult(
                        delivered=bytes(delivered[:off]),
                        intact=False,
                        elapsed_ms=elapsed,
                        packets_sent=sent,
                        packets_lost=lost,
                        retransmissions=sent - (off // packet_size + 1),
                        gap_map=((off, len(payload) - off),),
                    )
                )
            # a loss that starts where the last gap ends widens that gap
            if gaps and gaps[-1][0] + gaps[-1][1] == off:
                gaps[-1] = (gaps[-1][0], gaps[-1][1] + len(packet))
            else:
                gaps.append((off, len(packet)))
    final = bytes(delivered)
    return TransferResult(
        delivered=final,
        intact=final == payload,
        elapsed_ms=elapsed,
        packets_sent=sent,
        packets_lost=lost,
        retransmissions=sent - len(offsets),
        gap_map=tuple(gaps),
    )
