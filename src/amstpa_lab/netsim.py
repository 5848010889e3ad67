"""Deterministic channel simulation with QoS parameters.

A transfer is a fate schedule applied to a payload.  `schedule` is a pure
function of (channel, mode, payload length, packet size): packet fates come
from a SplitMix64 stream seeded by the channel seed, with exactly two draws
per transmission attempt (loss, then jitter), so results are reproducible
bit for bit on any platform.  The payload's bytes play no part in it.
Both transfer modes run through its one packet loop: reliable and
best-effort differ only in each packet's attempt budget and in what a
packet that spends it becomes (the channel going down, or a gap).  A
transfer always returns: a downed channel is a result with `down_at` set.

Every attempt advances the stream by its two draws, but a draw whose value
cannot change the result is not mixed: a zero loss probability loses
nothing, and a zero jitter adds a signed zero that vanishes against the
positive transmit time.  With both zero every packet arrives on its first
attempt, and the schedule is the per-packet times summed in packet order,
the same float additions the attempt loop makes.  `transfer` applies the
schedule: a delivery with no gaps is the payload itself, a best-effort
delivery zero-fills only its gaps.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .jsondoc import checked

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO64 = 2.0**64
MAX_RETRIES = 64


def splitmix64_next(state: int) -> tuple[int, int]:
    """One step of the published SplitMix64 recurrence: (output, new_state)."""
    state = (state + _GOLDEN) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return (z ^ (z >> 31)), state


def splitmix64_at(seed: int, index: int) -> int:
    """index-th output of the SplitMix64 stream that starts at `seed`."""
    value, _ = splitmix64_next((seed + index * _GOLDEN) & _MASK)
    return value


@checked
class ChannelParams(NamedTuple):
    latency_ms: float = 0.0
    jitter_ms: float = 0.0
    bandwidth_bytes_per_s: float = 1_000_000.0
    loss_prob: float = 0.0
    seed: int = 1

    def _check(self) -> None:
        if not (0 <= self.latency_ms < math.inf and 0 <= self.jitter_ms < math.inf):
            raise ValueError("latency_ms and jitter_ms must be finite and >= 0")
        if not (0 < self.bandwidth_bytes_per_s < math.inf):
            raise ValueError("bandwidth_bytes_per_s must be finite and > 0")
        if not (0.0 <= self.loss_prob <= 1.0):
            raise ValueError("loss_prob must be within [0, 1]")


class TransferMode(Enum):
    RELIABLE_ORDERED = "reliable"
    BEST_EFFORT = "besteffort"


class TransferResult(NamedTuple):
    delivered: bytes
    intact: bool
    elapsed_ms: float
    packets_sent: int
    packets_lost: int
    retransmissions: int
    gap_map: tuple[tuple[int, int], ...] = ()
    down_at: int | None = None  # the offset where the channel went down


def check_packet_size(packet_size: int) -> None:
    if packet_size < 1:
        raise ValueError("packet_size must be >= 1")


class Schedule(NamedTuple):
    """The fates of one transfer's packets, independent of the payload bytes.

    `down_at` is the offset of the reliable packet that spent its attempt
    budget (the channel went down there), or None; `gap_map` lists the
    merged best-effort losses as (offset, length).
    """

    elapsed_ms: float
    packets_sent: int
    packets_lost: int
    gap_map: tuple[tuple[int, int], ...]
    down_at: int | None


def schedule(ch: ChannelParams, mode: TransferMode, nbytes: int, packet_size: int) -> Schedule:
    """The fate schedule of sending `nbytes` in fixed-size packets over `ch`.

    Each attempt takes latency + U(-jitter, +jitter) + size/bandwidth ms and
    is lost with probability loss_prob.  ReliableOrdered retransmits a lost
    packet (stop-and-wait) up to MAX_RETRIES times and stops at the first
    packet past the bound; BestEffort sends each packet once.
    """
    check_packet_size(packet_size)
    if nbytes < 1:
        raise ValueError("payload must be non-empty")
    latency, jitter, loss = ch.latency_ms, ch.jitter_ms, ch.loss_prob
    bw = ch.bandwidth_bytes_per_s
    tx = packet_size / bw * 1000.0
    full = (nbytes - 1) // packet_size  # the packets before the last
    last = full * packet_size  # the last packet's offset
    tail_tx = (nbytes - last) / bw * 1000.0
    if not loss and not jitter:
        # every packet arrives at once; add in packet order, as the loop would
        dt = latency + tx
        elapsed = 0.0
        for _ in range(full):
            elapsed += dt
        elapsed += latency + tail_tx
        return Schedule(elapsed, full + 1, 0, (), None)

    reliable = mode is TransferMode.RELIABLE_ORDERED
    budget = range(1 + MAX_RETRIES if reliable else 1)
    state = ch.seed & _MASK
    elapsed = 0.0
    sent = lost = 0
    gaps: list[tuple[int, int]] = []
    dt = latency + tx
    was_lost = False  # stays False at zero loss, whose draws are not mixed
    for off in range(0, nbytes, packet_size):
        if off == last:
            tx = tail_tx
            dt = latency + tx
        for _ in budget:
            # two SplitMix64 draws per attempt: loss, then jitter
            state = (state + _GOLDEN) & _MASK
            if loss:
                z = ((state ^ (state >> 30)) * _MIX1) & _MASK
                z = ((z ^ (z >> 27)) * _MIX2) & _MASK
                was_lost = (z ^ (z >> 31)) / _TWO64 < loss
            state = (state + _GOLDEN) & _MASK
            if jitter:
                z = ((state ^ (state >> 30)) * _MIX1) & _MASK
                z = ((z ^ (z >> 27)) * _MIX2) & _MASK
                dt = latency + (2.0 * ((z ^ (z >> 31)) / _TWO64) - 1.0) * jitter + tx
            sent += 1
            elapsed += dt
            if not was_lost:
                break
            lost += 1
        else:  # the packet spent its budget
            if reliable:
                return Schedule(elapsed, sent, lost, (), off)
            size = nbytes - off if off == last else packet_size
            # a loss that starts where the last gap ends widens that gap
            if gaps and gaps[-1][0] + gaps[-1][1] == off:
                gaps[-1] = (gaps[-1][0], gaps[-1][1] + size)
            else:
                gaps.append((off, size))
    return Schedule(elapsed, sent, lost, tuple(gaps), None)


def transfer(
    payload: bytes,
    ch: ChannelParams,
    mode: TransferMode,
    packet_size: int,
) -> TransferResult:
    """Simulate sending `payload` split into fixed-size packets.

    When a ReliableOrdered packet exceeds MAX_RETRIES the channel goes
    down: the result delivers the prefix before that packet, marks the rest
    as one gap, and sets `down_at` to the packet's offset.  BestEffort's
    lost packets become zero-filled gaps recorded in gap_map, so the
    delivered buffer always has the original length.  Retransmissions are
    the attempts after each packet's first.
    """
    s = schedule(ch, mode, len(payload), packet_size)
    down, gaps = s.down_at, s.gap_map
    if down is not None:  # nothing from `down` on arrives
        final, gaps = bytes(payload[:down]), ((down, len(payload) - down),)
    elif gaps:
        buf = bytearray(payload)
        for off, size in gaps:
            buf[off : off + size] = bytes(size)
        final = bytes(buf)
    else:
        final = bytes(payload)
    attempted = (len(payload) - 1 if down is None else down) // packet_size + 1
    return TransferResult(
        delivered=final,
        # a prefix is not intact; a lost packet of zero bytes changes nothing
        intact=final == payload,
        elapsed_ms=s.elapsed_ms,
        packets_sent=s.packets_sent,
        packets_lost=s.packets_lost,
        retransmissions=s.packets_sent - attempted,
        gap_map=gaps,
        down_at=down,
    )
