import hashlib
import json
import random
from collections import Counter

import pytest

from amstpa_lab import gcode
from amstpa_lab.gcode import _first_diff, extruded_mm, fold, read_program, scan
from amstpa_lab.integrity import HEADER_SIZE, wrap
from amstpa_lab.netsim import ChannelParams, TransferMode
from amstpa_lab.printer_sim import (
    DEFAULT_LAYER_TIME_MS,
    FailReason,
    JobStatus,
    PrinterConfig,
    PrinterTechnology,
    PrintPolicy,
    geometry_diff,
    outcome_to_dict,
    run_job,
    trace_to_dict,
)

RELIABLE = TransferMode.RELIABLE_ORDERED


def full_image(buffer=1 << 20, layer_time=1000.0):
    return PrinterConfig(
        buffer_capacity=buffer, policy=PrintPolicy.FULL_IMAGE, nominal_layer_time_ms=layer_time
    )


def streaming(buffer=4096, layer_time=1000.0):
    return PrinterConfig(
        buffer_capacity=buffer, policy=PrintPolicy.STREAMING, nominal_layer_time_ms=layer_time
    )


class TestTechnology:
    def test_exactly_seven(self):
        assert len(PrinterTechnology) == 7
        assert set(DEFAULT_LAYER_TIME_MS) == set(PrinterTechnology)

    def test_default_layer_time_from_technology(self):
        cfg = PrinterConfig(
            buffer_capacity=1,
            policy=PrintPolicy.FULL_IMAGE,
            technology=PrinterTechnology.VAT_PHOTOPOLYMERIZATION,
        )
        assert cfg.nominal_layer_time_ms == DEFAULT_LAYER_TIME_MS[
            PrinterTechnology.VAT_PHOTOPOLYMERIZATION
        ]

    def test_buffer_validated(self):
        with pytest.raises(ValueError):
            PrinterConfig(buffer_capacity=0, policy=PrintPolicy.FULL_IMAGE)


class TestFullImage:
    def test_clean_job_completes(
        self, cube_job, cube_wrapped, cube_program, cube_text, lossless_channel
    ):
        outcome, trace = run_job(cube_job, full_image(), lossless_channel, RELIABLE)
        assert outcome == type(outcome)(JobStatus.COMPLETED, layers_printed=4)
        planned = read_program(cube_program, cube_text)
        assert sum(r.extruded_mm for r in trace.layers) == extruded_mm(planned.commands)
        assert [r.index for r in trace.layers] == [0, 1, 2, 3]
        n_packets = -(-len(cube_wrapped) // 256)
        transfer_ms = n_packets * 1.0 + len(cube_wrapped) / 125_000.0 * 1000.0
        assert trace.time_ms == pytest.approx(4 * 1000.0 + transfer_ms, rel=1e-9)

    def test_any_corruption_rejected_zero_layers(self, cube_job, cube_wrapped, lossless_channel):
        for offset in (0, 5, 13, 21, 24, HEADER_SIZE + 3, len(cube_wrapped) - 1):
            bad = bytearray(cube_wrapped)
            bad[offset] ^= 0x01
            outcome, trace = run_job(
                cube_job, full_image(), lossless_channel, RELIABLE, sent=bytes(bad)
            )
            assert outcome.status is JobStatus.REJECTED_BEFORE_PRINT, offset
            assert outcome.reason is FailReason.INTEGRITY_FAILURE
            assert outcome.layers_printed == 0
            assert trace.layers == ()

    def test_buffer_too_small(self, cube_job, lossless_channel):
        outcome, _ = run_job(cube_job, full_image(buffer=100), lossless_channel, RELIABLE)
        assert outcome.status is JobStatus.REJECTED_BEFORE_PRINT
        assert outcome.reason is FailReason.BUFFER_TOO_SMALL

    def test_channel_down_rejects(self, cube_job):
        dead = ChannelParams(loss_prob=1.0, seed=1)
        outcome, trace = run_job(cube_job, full_image(), dead, RELIABLE)
        assert outcome.status is JobStatus.REJECTED_BEFORE_PRINT
        assert outcome.reason is FailReason.CHANNEL_DOWN
        assert trace.layers == ()

    def test_garbage_payload_parse_failure(self, cube_job, lossless_channel):
        wrapped = wrap(b"this is not gcode\n", 1)
        outcome, _ = run_job(cube_job, full_image(), lossless_channel, RELIABLE, sent=wrapped)
        assert outcome.reason is FailReason.PARSE_FAILURE

    def test_record_count_mismatch_rejected(self, cube_job, cube_text, lossless_channel):
        wrapped = wrap(cube_text, 9999)  # wrong declared count
        outcome, _ = run_job(cube_job, full_image(), lossless_channel, RELIABLE, sent=wrapped)
        assert outcome.reason is FailReason.INTEGRITY_FAILURE

    def test_raw_mode_prints_without_envelope(self, cube_raw_job, lossless_channel):
        outcome, trace = run_job(
            cube_raw_job, full_image(), lossless_channel, RELIABLE, enveloped=False
        )
        assert outcome.status is JobStatus.COMPLETED
        assert len(trace.layers) == 4

    def test_never_scraps(self, cube_job, cube_wrapped, lossless_channel):
        # corrupt every 17th byte in turn: full image must never scrap
        for offset in range(0, len(cube_wrapped), 17):
            bad = bytearray(cube_wrapped)
            bad[offset] ^= 0x44
            outcome, _ = run_job(
                cube_job, full_image(), lossless_channel, RELIABLE, sent=bytes(bad)
            )
            assert outcome.status is not JobStatus.SCRAPPED_MID_PRINT


class TestStreaming:
    def test_clean_job_matches_full_image(self, cube_job, lossless_channel):
        outcome_s, trace_s = run_job(cube_job, streaming(), lossless_channel, RELIABLE)
        outcome_f, trace_f = run_job(cube_job, full_image(), lossless_channel, RELIABLE)
        assert outcome_s == outcome_f
        assert trace_s == trace_f

    def test_corruption_in_last_layer_scraps_three(
        self, cube_job, cube_wrapped, cube_text, lossless_channel
    ):
        scanned = fold(scan(cube_text)).layers
        offset = HEADER_SIZE + scanned[3].start_offset + 5
        bad = bytearray(cube_wrapped)
        bad[offset] ^= 0x01
        outcome, trace = run_job(
            cube_job, streaming(), lossless_channel, RELIABLE, sent=bytes(bad)
        )
        assert outcome.status is JobStatus.SCRAPPED_MID_PRINT
        assert outcome.reason is FailReason.INTEGRITY_FAILURE
        assert outcome.layers_printed == 3
        assert len(trace.layers) == 3
        n_packets = -(-len(cube_wrapped) // 256)
        transfer_ms = n_packets * 1.0 + len(cube_wrapped) / 125_000.0 * 1000.0
        assert trace.time_ms == pytest.approx(3 * 1000.0 + transfer_ms, rel=1e-9)

    @pytest.mark.parametrize("layer_index", [0, 1, 2, 3])
    def test_corruption_attributed_to_each_layer(
        self, cube_job, cube_wrapped, cube_text, lossless_channel, layer_index
    ):
        scanned = fold(scan(cube_text)).layers
        offset = HEADER_SIZE + scanned[layer_index].start_offset + 3
        bad = bytearray(cube_wrapped)
        bad[offset] ^= 0x01
        outcome, _ = run_job(
            cube_job, streaming(), lossless_channel, RELIABLE, sent=bytes(bad)
        )
        assert outcome.status is JobStatus.SCRAPPED_MID_PRINT
        assert outcome.layers_printed == layer_index

    def test_prologue_corruption_scraps_at_zero(self, cube_job, cube_wrapped, lossless_channel):
        bad = bytearray(cube_wrapped)
        bad[HEADER_SIZE + 1] ^= 0x01  # inside "G21"
        outcome, trace = run_job(
            cube_job, streaming(), lossless_channel, RELIABLE, sent=bytes(bad)
        )
        assert outcome.status is JobStatus.SCRAPPED_MID_PRINT
        assert outcome.layers_printed == 0
        assert trace.layers == ()

    def test_bad_magic_rejected_at_arrival(self, cube_job, cube_wrapped, lossless_channel):
        bad = bytearray(cube_wrapped)
        bad[0] ^= 0xFF
        outcome, _ = run_job(
            cube_job, streaming(), lossless_channel, RELIABLE, sent=bytes(bad)
        )
        assert outcome.status is JobStatus.REJECTED_BEFORE_PRINT
        assert outcome.reason is FailReason.INTEGRITY_FAILURE

    def test_crc_field_corruption_scraps_after_full_print(
        self, cube_job, cube_wrapped, lossless_channel
    ):
        bad = bytearray(cube_wrapped)
        bad[20] ^= 0x01  # stored crc field; payload itself intact
        outcome, _ = run_job(
            cube_job, streaming(), lossless_channel, RELIABLE, sent=bytes(bad)
        )
        assert outcome.status is JobStatus.SCRAPPED_MID_PRINT
        assert outcome.layers_printed == 4

    def test_besteffort_gap_scraps(self, cube_job):
        lossy = ChannelParams(loss_prob=0.35, seed=11)
        outcome, _ = run_job(
            cube_job, streaming(), lossy, TransferMode.BEST_EFFORT
        )
        assert outcome.status in (JobStatus.SCRAPPED_MID_PRINT, JobStatus.REJECTED_BEFORE_PRINT)

    def test_channel_down_mid_stream_scraps(self, cube_job):
        # at this loss rate seed 1 exhausts retries after two layers arrived
        ch = ChannelParams(loss_prob=0.98, seed=1)
        outcome, trace = run_job(cube_job, streaming(), ch, RELIABLE)
        assert outcome.status is JobStatus.SCRAPPED_MID_PRINT
        assert outcome.reason is FailReason.CHANNEL_DOWN
        assert outcome.layers_printed == 2
        assert len(trace.layers) == 2

    def test_channel_down_before_first_layer_rejects(self, cube_job):
        ch = ChannelParams(loss_prob=0.98, seed=0)
        outcome, trace = run_job(cube_job, streaming(), ch, RELIABLE)
        assert outcome.status is JobStatus.REJECTED_BEFORE_PRINT
        assert outcome.reason is FailReason.CHANNEL_DOWN
        assert trace.layers == ()

    def test_raw_streaming_parse_failure_mid_job(self, cube_raw_job, cube_text, lossless_channel):
        scanned = fold(scan(cube_text)).layers
        bad = bytearray(cube_text)
        # make layer 3's first move line unparseable in raw (no-envelope) mode
        bad[scanned[3].start_offset] = ord("Q")
        outcome, trace = run_job(
            cube_raw_job, streaming(), lossless_channel, RELIABLE, enveloped=False,
            sent=bytes(bad),
        )
        assert outcome.status is JobStatus.SCRAPPED_MID_PRINT
        assert outcome.reason is FailReason.PARSE_FAILURE
        assert outcome.layers_printed == 3
        assert len(trace.layers) == 3


class TestLineRule:
    """The printer splits lines by the parser's one rule (str.splitlines)."""

    @pytest.mark.parametrize("byte", [0x0B, 0x0C, 0x1C])
    def test_split_move_line_blames_no_layer(
        self, cube_raw_job, cube_text, lossless_channel, byte
    ):
        # byte 14 is the space after the first "G0"; as a line break it leaves
        # a bare G0 and a line of orphan words, so no layer began before the
        # bad line
        assert cube_text[12:15] == b"G0 "
        bad = bytearray(cube_text)
        bad[14] = byte
        outcome, trace = run_job(
            cube_raw_job, streaming(), lossless_channel, RELIABLE, enveloped=False,
            sent=bytes(bad),
        )
        assert outcome.status is JobStatus.REJECTED_BEFORE_PRINT
        assert outcome.reason is FailReason.PARSE_FAILURE
        assert outcome.layers_printed == 0
        assert trace.layers == ()

    def test_invalid_utf8_rejected_before_any_layer(
        self, cube_raw_job, cube_text, lossless_channel
    ):
        bad = cube_text[:-3] + b"\xff" + cube_text[-2:]  # inside the closing "M2"
        outcome, _ = run_job(
            cube_raw_job, streaming(), lossless_channel, RELIABLE, enveloped=False, sent=bad
        )
        assert outcome.status is JobStatus.REJECTED_BEFORE_PRINT
        assert outcome.layers_printed == 0

    # Recorded from the two-pass reader this one replaced: every third bit of
    # the cube program flipped, run raw (no envelope) under each policy.
    FLIP_SWEEP = {
        PrintPolicy.FULL_IMAGE: (
            "463e02c094473c938d99a39348804ac25c5cc308cd7368e0bb8c062e4c5d420f",
            {("completed", None, 4): 687, ("rejected_before_print", "parse_failure", 0): 1465},
        ),
        PrintPolicy.STREAMING: (
            "c7a5a5188df4f609f939906c111969119a9473401c8f28afca90190d145381a0",
            {
                ("completed", None, 4): 687,
                ("rejected_before_print", "parse_failure", 0): 374,
                ("scrapped_mid_print", "parse_failure", 1): 280,
                ("scrapped_mid_print", "parse_failure", 2): 282,
                ("scrapped_mid_print", "parse_failure", 3): 283,
                ("scrapped_mid_print", "parse_failure", 4): 246,
            },
        ),
    }

    @pytest.mark.parametrize("policy", list(PrintPolicy))
    def test_single_bit_flip_sweep_matches_record(
        self, cube_raw_job, cube_text, lossless_channel, policy
    ):
        cfg = PrinterConfig(buffer_capacity=1 << 20, policy=policy, nominal_layer_time_ms=1000.0)
        digest = hashlib.sha256()
        histogram = Counter()
        for bit in range(0, len(cube_text) * 8, 3):
            bad = bytearray(cube_text)
            bad[bit // 8] ^= 1 << (bit % 8)
            outcome, trace = run_job(
                cube_raw_job, cfg, lossless_channel, RELIABLE, enveloped=False, sent=bytes(bad)
            )
            doc = [outcome_to_dict(outcome), trace_to_dict(trace)]
            digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
            reason = outcome.reason.value if outcome.reason else None
            histogram[(outcome.status.value, reason, outcome.layers_printed)] += 1
        expected_digest, expected_histogram = self.FLIP_SWEEP[policy]
        assert dict(histogram) == expected_histogram
        assert digest.hexdigest() == expected_digest


class TestReadOnce:
    """An intact delivery takes the job's own reading; any other payload is
    scanned once, from a layer checkpoint of the job's reading, and
    streaming damage is blamed without a read."""

    @pytest.fixture()
    def scans(self, monkeypatch):
        calls = []

        def counting_scan(data, *args):
            calls.append(data)
            return scan(data, *args)

        monkeypatch.setattr(gcode, "scan", counting_scan)
        return calls

    @pytest.mark.parametrize("policy", list(PrintPolicy))
    @pytest.mark.parametrize("enveloped", [True, False], ids=["enveloped", "raw"])
    def test_intact_delivery_scans_nothing(
        self, cube_job, cube_raw_job, cube_text, lossless_channel, scans, policy, enveloped
    ):
        job = cube_job if enveloped else cube_raw_job
        cfg = PrinterConfig(buffer_capacity=1 << 20, policy=policy, nominal_layer_time_ms=1000.0)
        result = run_job(job, cfg, lossless_channel, RELIABLE, enveloped=enveloped)
        assert scans == []
        # a job whose text is not the payload reads it, as every delivery once did
        unread = job._replace(text=b"")
        assert run_job(unread, cfg, lossless_channel, RELIABLE, enveloped=enveloped) == result
        assert scans == [cube_text]

    def test_corrected_payload_scans_nothing(self, cube_job, cube_text, lossless_channel, scans):
        # SECDED restores the flipped bit, so the payload is the job's text
        job = cube_job._replace(sent=wrap(cube_text, len(cube_job.reading.commands), with_ecc=True))
        bad = bytearray(job.sent)
        bad[HEADER_SIZE + 40] ^= 0x08
        outcome, trace = run_job(job, full_image(), lossless_channel, RELIABLE, sent=bytes(bad))
        assert scans == []
        assert outcome.status is JobStatus.COMPLETED
        assert trace.integrity_corrected_bits == 1
        assert trace.layers == cube_job.reading.layers

    def test_damaged_payload_scanned_once(self, cube_raw_job, cube_text, lossless_channel, scans):
        bad = bytearray(cube_text)
        bad[-2] ^= 0x01  # the "2" of the closing M2
        outcome, _ = run_job(
            cube_raw_job, streaming(), lossless_channel, RELIABLE, enveloped=False,
            sent=bytes(bad),
        )
        assert outcome.reason is FailReason.PARSE_FAILURE
        # from the start of the last layer, the last checkpoint before the damage
        last = cube_raw_job.reading.checkpoints[-1]
        assert last.offset == cube_raw_job.reading.layers[-1].start_offset
        assert scans == [bytes(bad)[last.offset:]]

    def test_streaming_damage_blamed_without_a_read(
        self, cube_job, cube_wrapped, lossless_channel, scans
    ):
        bad = bytearray(cube_wrapped)
        bad[HEADER_SIZE + cube_job.reading.layers[2].start_offset + 5] ^= 0x01
        outcome, _ = run_job(cube_job, streaming(), lossless_channel, RELIABLE, sent=bytes(bad))
        assert outcome.layers_printed == 2
        assert scans == []

    def test_bad_line_in_sent_text_blamed_by_the_strict_reading(
        self, cube_job, cube_text, lossless_channel, scans
    ):
        # an after-slice fault: layer 2's z-changing line no longer parses,
        # so the sender's strict reading stops there, with layers 0 and 1,
        # and its envelope declares the commands read before the bad line
        layers = cube_job.reading.layers
        text = bytearray(cube_text)
        text[layers[2].start_offset] = ord("Q")
        text = bytes(text)
        reading = fold(scan(text))
        assert reading.error is not None and reading.layers == layers[:2]
        job = cube_job._replace(text=text, sent=wrap(text, len(reading.commands)),
                               reading=reading)
        # damage in layer 3 lies in the reading's last layer, which runs to
        # the end of the text: only layer 0 counts as printed
        bad = bytearray(job.sent)
        bad[HEADER_SIZE + layers[3].start_offset + 5] ^= 0x01
        outcome, trace = run_job(job, streaming(), lossless_channel, RELIABLE, sent=bytes(bad))
        assert outcome.status is JobStatus.SCRAPPED_MID_PRINT
        assert outcome.reason is FailReason.INTEGRITY_FAILURE
        assert trace.layers == layers[:1]
        # an intact delivery stops at the same bad line, before any count is compared
        outcome, trace = run_job(job, streaming(), lossless_channel, RELIABLE)
        assert outcome.reason is FailReason.PARSE_FAILURE
        assert trace.layers == layers[:2]
        assert scans == []


class TestDeterminism:
    def test_same_inputs_same_results(self, cube_job):
        ch = ChannelParams(latency_ms=0.25, jitter_ms=1.5, loss_prob=0.2, seed=31)
        results = [
            run_job(cube_job, streaming(), ch, TransferMode.BEST_EFFORT)
            for _ in range(2)
        ]
        assert results[0] == results[1]


class TestGeometryDiff:
    def test_identity(self, cube_job, cube_layers, lossless_channel):
        _, trace = run_job(cube_job, full_image(), lossless_channel, RELIABLE)
        gd = geometry_diff(cube_layers, trace)
        assert gd.max_extrusion_error_mm == 0.0
        assert gd.layers_missing == 0

    def test_scrapped_layers_missing(
        self, cube_job, cube_layers, cube_wrapped, cube_text, lossless_channel
    ):
        scanned = fold(scan(cube_text)).layers
        bad = bytearray(cube_wrapped)
        bad[HEADER_SIZE + scanned[3].start_offset + 5] ^= 0x01
        _, trace = run_job(
            cube_job, streaming(), lossless_channel, RELIABLE, sent=bytes(bad)
        )
        gd = geometry_diff(cube_layers, trace)
        assert gd.layers_missing == 1

    def test_serialization_helpers(self, cube_job, lossless_channel):
        outcome, trace = run_job(cube_job, full_image(), lossless_channel, RELIABLE)
        doc = outcome_to_dict(outcome)
        assert doc == {"status": "completed", "layers_printed": 4, "reason": None}
        tdoc = trace_to_dict(trace)
        assert len(tdoc["layers"]) == 4
        assert tdoc["integrity_corrected_bits"] == 0


def _first_diff_scalar(a, b):
    """The per-byte loop `_first_diff` replaced, kept as its oracle."""
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    if len(a) != len(b):
        return n
    return None


class TestFirstDiff:
    def test_matches_scalar_oracle_on_random_pairs(self):
        rng = random.Random(20)
        for _ in range(200):
            a = rng.randbytes(rng.randrange(0, 400))
            cut = rng.randrange(0, len(a) + 1)
            pairs = [(a, a), (a, bytes(a)), (a, a[:cut]), (a[:cut], a), (a, a + b"\x00")]
            # differ at the first, last and a random byte; also against a shorter copy
            for at in ({0, len(a) - 1, rng.randrange(len(a))} if a else ()):
                b = bytearray(a)
                b[at] ^= rng.randrange(1, 256)
                pairs += [(a, bytes(b)), (bytes(b), a[: at + 1 + rng.randrange(len(a) - at)])]
            for x, y in pairs:
                assert _first_diff(x, y) == _first_diff_scalar(x, y), (x, y)

    def test_last_byte_of_large_payload(self):
        a = bytes(range(256)) * 3000
        b = a[:-1] + bytes([a[-1] ^ 0x80])
        assert _first_diff(a, b) == len(a) - 1
