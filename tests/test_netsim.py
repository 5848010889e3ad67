import inspect
import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amstpa_lab.netsim import (
    MAX_RETRIES,
    ChannelParams,
    TransferMode,
    TransferResult,
    schedule,
    splitmix64_at,
    splitmix64_next,
    transfer,
)

MASK = (1 << 64) - 1


def splitmix64_reference(state):
    """Independent replay of the published recurrence (scripted oracle)."""
    state = (state + 0x9E3779B97F4A7C15) & MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return (z ^ (z >> 31)), state


class TestSplitMix64:
    def test_seed_zero_first_output(self):
        value, _ = splitmix64_next(0)
        assert value == 0xE220A8397B1DCDAF

    def test_known_stream_prefix(self):
        # first outputs from seed 0, computed by the reference replay
        state = 0
        expected = []
        for _ in range(4):
            v, state = splitmix64_reference(state)
            expected.append(v)
        state = 0
        got = []
        for _ in range(4):
            v, state = splitmix64_next(state)
            got.append(v)
        assert got == expected

    def test_same_seed_same_sequence(self):
        seq = []
        for start in (12345, 12345):
            state, out = start, []
            for _ in range(100):
                v, state = splitmix64_next(state)
                out.append(v)
            seq.append(out)
        assert seq[0] == seq[1]

    @given(st.integers(min_value=0, max_value=MASK), st.integers(min_value=0, max_value=300))
    def test_at_is_the_index_th_output(self, seed, index):
        state = seed
        for _ in range(index + 1):
            value, state = splitmix64_next(state)
        assert splitmix64_at(seed, index) == value

    def test_uniform_mean(self):
        state = 2024
        total = 0.0
        n = 200_000
        for _ in range(n):
            value, state = splitmix64_next(state)
            total += value / 2.0**64
        assert abs(total / n - 0.5) < 0.002


class TestChannelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(loss_prob=1.5)
        with pytest.raises(ValueError):
            ChannelParams(latency_ms=-1.0)
        with pytest.raises(ValueError):
            ChannelParams(bandwidth_bytes_per_s=0.0)


class TestLossless:
    def test_elapsed_formula(self):
        payload = bytes(1000)
        ch = ChannelParams(latency_ms=2.0, bandwidth_bytes_per_s=10_000.0, loss_prob=0.0, seed=1)
        for mode in TransferMode:
            result = transfer(payload, ch, mode, 100)
            assert result.intact
            assert result.packets_lost == 0
            assert result.packets_sent == 10
            expected = 10 * (2.0 + 100 / 10_000.0 * 1000.0)
            assert result.elapsed_ms == pytest.approx(expected, rel=1e-12)

    def test_short_tail_packet(self):
        result = transfer(bytes(250), ChannelParams(seed=3), TransferMode.BEST_EFFORT, 100)
        assert result.packets_sent == 3
        assert result.intact


class TestBestEffort:
    def test_certain_loss_all_gaps(self):
        payload = b"abcdef"
        result = transfer(payload, ChannelParams(loss_prob=1.0, seed=4), TransferMode.BEST_EFFORT, 2)
        assert not result.intact
        assert result.delivered == b"\x00" * 6
        assert result.gap_map == ((0, 6),)
        assert result.packets_lost == 3

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=64))
    @settings(max_examples=30)
    def test_gap_map_accounts_for_losses(self, seed, packet_size):
        payload = bytes(range(256))
        ch = ChannelParams(loss_prob=0.3, seed=seed)
        result = transfer(payload, ch, TransferMode.BEST_EFFORT, packet_size)
        assert len(result.delivered) == len(payload)
        gap_bytes = sum(length for _, length in result.gap_map)
        delivered_ok = sum(
            1
            for i, b in enumerate(result.delivered)
            if not any(off <= i < off + length for off, length in result.gap_map)
        )
        assert delivered_ok == len(payload) - gap_bytes
        for off, length in result.gap_map:
            assert result.delivered[off : off + length] == bytes(length)

    def test_loss_fraction_converges(self):
        lost = sent = 0
        for seed in range(200):
            result = transfer(
                bytes(1000),
                ChannelParams(loss_prob=0.2, seed=seed),
                TransferMode.BEST_EFFORT,
                10,
            )
            lost += result.packets_lost
            sent += result.packets_sent
        sigma = math.sqrt(sent * 0.2 * 0.8)
        assert abs(lost - sent * 0.2) < 3 * sigma


class TestReliable:
    def test_retransmission_replay_oracle(self):
        # independently replay the documented two-draw-per-attempt discipline
        payload = bytes(10_000)
        ch = ChannelParams(loss_prob=0.1, seed=42)
        result = transfer(payload, ch, TransferMode.RELIABLE_ORDERED, 100)
        assert result.intact

        state = 42
        retrans = lost = 0
        for _packet in range(100):
            attempts = 0
            while True:
                u, state = splitmix64_reference(state)
                _, state = splitmix64_reference(state)  # jitter draw
                attempts += 1
                if u / 2.0**64 >= 0.1:
                    break
                lost += 1
            retrans += attempts - 1
        assert result.retransmissions == retrans
        assert result.packets_lost == lost

    def test_intact_or_error_never_corrupt(self):
        for seed in range(50):
            result = transfer(
                bytes(2000),
                ChannelParams(loss_prob=0.3, seed=seed),
                TransferMode.RELIABLE_ORDERED,
                100,
            )
            assert result.intact
            assert result.gap_map == ()

    def test_channel_down_on_certain_loss(self):
        ch = ChannelParams(loss_prob=1.0, seed=1)
        progress = transfer(b"abcdef", ch, TransferMode.RELIABLE_ORDERED, 2)
        assert progress.down_at == 0
        assert progress.delivered == b"" and progress.intact is False
        assert progress.packets_sent == progress.packets_lost == 1 + MAX_RETRIES
        assert progress.retransmissions == MAX_RETRIES
        assert progress.gap_map == ((0, 6),)

    def test_elapsed_nondecreasing_in_loss(self):
        def mean_elapsed(loss):
            values = []
            for seed in range(100):
                ch = ChannelParams(
                    latency_ms=1.0, bandwidth_bytes_per_s=100_000.0, loss_prob=loss, seed=seed
                )
                values.append(
                    transfer(bytes(5000), ch, TransferMode.RELIABLE_ORDERED, 250).elapsed_ms
                )
            return statistics.mean(values)

        assert mean_elapsed(0.0) < mean_elapsed(0.1) < mean_elapsed(0.3)


class TestDeterminism:
    def test_identical_inputs_identical_results(self):
        payload = bytes(range(100)) * 7
        ch = ChannelParams(latency_ms=0.5, jitter_ms=2.0, loss_prob=0.15, seed=77)
        for mode in TransferMode:
            a = transfer(payload, ch, mode, 33)
            b = transfer(payload, ch, mode, 33)
            assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            transfer(b"", ChannelParams(), TransferMode.BEST_EFFORT, 10)
        with pytest.raises(ValueError):
            transfer(b"x", ChannelParams(), TransferMode.BEST_EFFORT, 0)


def _u01(value):
    return value / 2.0**64


def _attempt(state, ch, nbytes):
    """One transmission attempt: (lost, elapsed_ms, new_state)."""
    u_loss, state = splitmix64_next(state)
    u_jit, state = splitmix64_next(state)
    lost = _u01(u_loss) < ch.loss_prob
    jitter = (2.0 * _u01(u_jit) - 1.0) * ch.jitter_ms
    elapsed = ch.latency_ms + jitter + nbytes / ch.bandwidth_bytes_per_s * 1000.0
    return lost, elapsed, state


def oracle_transfer(payload, ch, mode, packet_size):
    """The former `transfer`: one call per attempt, a copy of every packet
    into a fresh buffer (scalar oracle for the fate schedule)."""
    if packet_size < 1:
        raise ValueError("packet_size must be >= 1")
    if not payload:
        raise ValueError("payload must be non-empty")

    reliable = mode is TransferMode.RELIABLE_ORDERED
    budget = 1 + MAX_RETRIES if reliable else 1
    offsets = range(0, len(payload), packet_size)
    state = ch.seed & MASK
    elapsed = 0.0
    sent = lost = 0
    delivered = bytearray(len(payload))
    gaps = []
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
        else:
            if reliable:
                return TransferResult(
                    delivered=bytes(delivered[:off]),
                    intact=False,
                    elapsed_ms=elapsed,
                    packets_sent=sent,
                    packets_lost=lost,
                    retransmissions=sent - (off // packet_size + 1),
                    gap_map=((off, len(payload) - off),),
                    down_at=off,
                )
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


def _outcome(fn, *args):
    """A transfer's result with its elapsed time as exact float text."""
    result = fn(*args)
    return result, float.hex(result.elapsed_ms)


# payloads made of literal runs and zero runs, so a lost packet can be all zeros
_payloads = st.lists(
    st.one_of(st.binary(min_size=1, max_size=40), st.integers(1, 90).map(bytes)),
    min_size=1,
    max_size=12,
).map(b"".join)


class TestFateSchedule:
    """The schedule applied to a payload matches the per-attempt oracle exactly."""

    @given(
        payload=_payloads,
        packet_size=st.integers(min_value=1, max_value=80),
        loss=st.sampled_from([0.0, 0.05, 0.3, 0.97, 1.0]),
        latency=st.sampled_from([0.0, -0.0, 0.7]),
        jitter=st.sampled_from([0.0, -0.0, 0.7]),
        bandwidth=st.sampled_from([125_000.0, 3.3, 1e308]),
        seed=st.integers(min_value=-5, max_value=2**65),
        mode=st.sampled_from(list(TransferMode)),
    )
    @settings(max_examples=400)
    def test_matches_per_attempt_oracle(
        self, payload, packet_size, loss, latency, jitter, bandwidth, seed, mode
    ):
        ch = ChannelParams(
            latency_ms=latency,
            jitter_ms=jitter,
            bandwidth_bytes_per_s=bandwidth,
            loss_prob=loss,
            seed=seed,
        )
        args = (payload, ch, mode, packet_size)
        assert _outcome(transfer, *args) == _outcome(oracle_transfer, *args)

    def test_channel_down_matches_oracle_mid_payload(self):
        # a late packet spends its budget after earlier ones got through
        payload = bytes(range(256)) * 4
        ch = ChannelParams(loss_prob=0.97, seed=11)
        args = (payload, ch, TransferMode.RELIABLE_ORDERED, 7)
        result, elapsed = _outcome(oracle_transfer, *args)
        assert result.down_at == len(result.delivered) > 0
        assert _outcome(transfer, *args) == (result, elapsed)

    def test_lost_zero_packet_is_intact(self):
        # a best-effort gap over bytes that were zero anyway changes nothing
        payload = bytes(64)
        ch = ChannelParams(loss_prob=0.5, seed=3)
        result = transfer(payload, ch, TransferMode.BEST_EFFORT, 8)
        assert result.gap_map and result.intact
        assert result == oracle_transfer(payload, ch, TransferMode.BEST_EFFORT, 8)

    def test_reliable_delivery_is_the_payload(self):
        payload = b"G1 X1 Y2\n" * 50
        for ch in (ChannelParams(seed=5), ChannelParams(loss_prob=0.2, jitter_ms=0.5, seed=5)):
            assert transfer(payload, ch, TransferMode.RELIABLE_ORDERED, 16).delivered is payload

    @given(
        nbytes=st.integers(min_value=1, max_value=700),
        packet_size=st.integers(min_value=1, max_value=80),
        loss=st.sampled_from([0.0, 0.3, 0.97]),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        mode=st.sampled_from(list(TransferMode)),
    )
    @settings(max_examples=100)
    def test_schedule_takes_no_payload(self, nbytes, packet_size, loss, seed, mode):
        assert "payload" not in inspect.signature(schedule).parameters
        ch = ChannelParams(jitter_ms=0.3, loss_prob=loss, seed=seed)
        fates = schedule(ch, mode, nbytes, packet_size)
        result = transfer((bytes(range(256)) * 3)[:nbytes], ch, mode, packet_size)
        if fates.down_at is None:
            assert fates.gap_map == result.gap_map
        else:
            assert fates.down_at == len(result.delivered)
        assert (fates.elapsed_ms, fates.packets_sent, fates.packets_lost, fates.down_at) == (
            result.elapsed_ms,
            result.packets_sent,
            result.packets_lost,
            result.down_at,
        )
