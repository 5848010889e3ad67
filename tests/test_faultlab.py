import functools
import hashlib
import json
import math
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from amstpa_lab import faultlab, gcode, integrity, printer_sim, shapes
from amstpa_lab.faultlab import (
    CAMPAIGN_KEYS,
    SIMULATE_KEYS,
    CampaignResult,
    DetectionStage,
    FaultKind,
    FaultSpec,
    FaultStage,
    PipelineConfig,
    bit_flip_specs,
    build_job,
    inject,
    pipeline_config,
    run_campaign,
    run_demo_campaign,
)
from amstpa_lab.gcode import GCodeError, ToolpathParams, _first_diff, fold, resume, scan
from amstpa_lab.jsondoc import read_doc
from amstpa_lab.mesh_io import (
    BINARY_HEADER,
    Encoding,
    Facet,
    StlError,
    TriangleMesh,
    Vec3,
    binary_delta,
    emit_stl_ascii,
    emit_stl_binary,
    parse_stl,
    validate_mesh,
)
from amstpa_lab.netsim import MAX_RETRIES, ChannelParams, TransferMode, splitmix64_at, transfer
from amstpa_lab.printer_sim import (
    FailReason,
    JobStatus,
    PrinterConfig,
    PrintPolicy,
    geometry_diff,
    run_job,
)
from amstpa_lab.slicer import SliceParams, slice_mesh


def pipeline(policy=PrintPolicy.FULL_IMAGE, enveloped=True, ecc=False, seed=0, loss=0.0):
    return PipelineConfig(
        slice_params=SliceParams(layer_height=0.25),
        toolpath=ToolpathParams(),
        channel=ChannelParams(latency_ms=1.0, bandwidth_bytes_per_s=125_000.0, loss_prob=loss),
        printer=PrinterConfig(
            buffer_capacity=1 << 20, policy=policy, nominal_layer_time_ms=1000.0
        ),
        mode=TransferMode.RELIABLE_ORDERED,
        enveloped=enveloped,
        ecc=ecc,
        campaign_seed=seed,
    )


class TestInject:
    def test_bit_flip_involution(self):
        spec = FaultSpec(FaultKind.BIT_FLIP, FaultStage.IN_TRANSIT, offset=13)
        data = b"hello world"
        assert inject(inject(data, spec), spec) == data

    def test_bit_flip_offset_out_of_range(self):
        spec = FaultSpec(FaultKind.BIT_FLIP, FaultStage.IN_TRANSIT, offset=6 * 8)
        with pytest.raises(ValueError, match="out of range"):
            inject(b"abcdef", spec)

    def test_bit_flip_derived_offset_deterministic(self):
        spec = FaultSpec(FaultKind.BIT_FLIP, FaultStage.IN_TRANSIT, seed=99)
        assert inject(b"payload", spec) == inject(b"payload", spec)

    def test_byte_set(self):
        spec = FaultSpec(FaultKind.BYTE_SET, FaultStage.IN_TRANSIT, offset=2, value=0x7F)
        assert inject(b"abcdef", spec) == b"ab\x7fdef"

    def test_byte_set_derived_value_always_corrupts(self):
        for seed in range(40):
            spec = FaultSpec(FaultKind.BYTE_SET, FaultStage.IN_TRANSIT, seed=seed)
            data = bytes(64)
            assert inject(data, spec) != data

    def test_truncate(self):
        spec = FaultSpec(FaultKind.TRUNCATE, FaultStage.IN_TRANSIT, new_len=3)
        assert inject(b"abcdef", spec) == b"abc"

    def test_scale_identity(self, cube):
        spec = FaultSpec(FaultKind.SCALE_COORDS, FaultStage.AFTER_CAD, factor=1.0)
        assert inject(cube, spec) == cube

    def test_scale_requires_positive_factor(self):
        with pytest.raises(ValueError, match="factor"):
            FaultSpec(FaultKind.SCALE_COORDS, FaultStage.AFTER_CAD, factor=0.0)

    def test_flip_normals_all_inverted(self, cube):
        flipped = inject(cube, FaultSpec(FaultKind.FLIP_NORMALS, FaultStage.AFTER_CAD))
        report = validate_mesh(flipped)
        assert len(report.inverted_normals) == 12

    def test_kind_target_mismatch(self, cube):
        with pytest.raises(TypeError):
            inject(b"bytes", FaultSpec(FaultKind.FLIP_NORMALS, FaultStage.AFTER_CAD))
        with pytest.raises(TypeError):
            inject(cube, FaultSpec(FaultKind.BIT_FLIP, FaultStage.AFTER_CAD, offset=0))

    def test_drop_packets_not_injectable(self):
        spec = FaultSpec(FaultKind.DROP_PACKETS, FaultStage.IN_TRANSIT, loss_prob=0.5)
        with pytest.raises(ValueError, match="channel"):
            inject(b"abc", spec)

    @pytest.mark.parametrize(
        "kind, stage",
        [
            (FaultKind.DROP_PACKETS, FaultStage.AFTER_CAD),
            (FaultKind.DROP_PACKETS, FaultStage.AFTER_SLICE),
            (FaultKind.SCALE_COORDS, FaultStage.AFTER_SLICE),
            (FaultKind.SCALE_COORDS, FaultStage.IN_TRANSIT),
            (FaultKind.FLIP_NORMALS, FaultStage.IN_TRANSIT),
        ],
    )
    def test_kind_must_fit_stage(self, kind, stage):
        with pytest.raises(ValueError, match="cannot be planted"):
            FaultSpec(kind, stage, factor=1.1, loss_prob=0.5)

    def test_spec_json_round_trip(self):
        specs = [
            FaultSpec(FaultKind.BIT_FLIP, FaultStage.IN_TRANSIT, offset=7, seed=3),
            FaultSpec(FaultKind.SCALE_COORDS, FaultStage.AFTER_CAD, factor=1.001),
            FaultSpec(FaultKind.DROP_PACKETS, FaultStage.IN_TRANSIT, loss_prob=0.25),
            # numbers are kept as read, so an integer factor echoes as one
            FaultSpec(FaultKind.SCALE_COORDS, FaultStage.AFTER_CAD, factor=2),
        ]
        for spec in specs:
            blob = json.dumps(spec.to_dict())
            assert FaultSpec.from_dict(json.loads(blob)) == spec
            assert json.dumps(FaultSpec.from_dict(json.loads(blob)).to_dict()) == blob


class TestConfigReader:
    def test_defaults_fill_what_a_config_leaves_out(self):
        doc = read_doc({"generate": {}}, CAMPAIGN_KEYS)
        assert doc["mesh"] == {"builtin": "cube", "path": None}
        assert doc["mode"] is TransferMode.RELIABLE_ORDERED
        assert doc["printer"]["nominal_layer_time_ms"] is None
        assert doc["generate"] == {
            "kind": FaultKind.BIT_FLIP, "stage": FaultStage.IN_TRANSIT, "count": None
        }

    def test_simulate_keys_differ_from_a_campaigns_only_in_the_channel(self):
        campaign, simulate = read_doc({}, CAMPAIGN_KEYS), read_doc({}, SIMULATE_KEYS)
        assert {**simulate, "channel": None} == {**campaign, "channel": None}
        assert set(simulate["channel"]) == set(campaign["channel"]) | {"seed"}

    def test_table_defaults_are_the_config_classes_own(self):
        # where a config class has a default, the table holds that one
        cfg = pipeline_config(read_doc({}, SIMULATE_KEYS))
        assert cfg == PipelineConfig(
            SliceParams(cfg.slice_params.layer_height), ToolpathParams(), ChannelParams(),
            PrinterConfig(cfg.printer.buffer_capacity, cfg.printer.policy),
        )

    def test_campaign_numbers_are_read_as_floats(self):
        doc = read_doc({"toolpath": {"feed_rate": 1800}, "geometry_tol_mm": 0}, CAMPAIGN_KEYS)
        assert type(doc["toolpath"]["feed_rate"]) is float
        assert type(doc["geometry_tol_mm"]) is float

    def test_unknown_keys_are_named_by_dotted_path(self, caplog):
        doc = {
            "chanel": {"loss_prob": 0.5},
            "channel": {"seed": 7},
            "toolpath": {"travel_rate": 3000},
            "faults": [{"kind": "bit_flip", "stage": "in_transit", "ofset": 3}],
        }
        with caplog.at_level("WARNING", logger="amstpa_lab.jsondoc"):
            read_doc(doc, CAMPAIGN_KEYS)
        assert [r.getMessage() for r in caplog.records] == [
            "ignoring unknown key chanel",
            "ignoring unknown key toolpath.travel_rate",
            "ignoring unknown key channel.seed",
            "ignoring unknown key faults.0.ofset",
        ]

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"stage": "in_transit"}, "kind is required"),
            ({"kind": "bit_flip", "stage": None}, "stage must be one of after_cad, "),
            ({"kind": "bit_flip", "stage": "in_transit", "seed": None},
             "seed must be an integer, got None"),
            ({"kind": "scale_coords", "stage": "after_cad", "factor": "2"},
             "factor must be a number, got '2'"),
            ([], "the document must be an object, got []"),
        ],
        ids=["missing-kind", "null-stage", "null-seed", "string-factor", "not-an-object"],
    )
    def test_fault_spec_fields_by_rule(self, doc, message):
        with pytest.raises(ValueError) as err:
            FaultSpec.from_dict(doc)
        assert str(err.value).startswith(message)


class TestCampaign:
    @pytest.mark.parametrize("tol", [-1.0, math.inf, -math.inf, math.nan])
    def test_geometry_tolerance_must_be_finite_and_non_negative(self, tol):
        with pytest.raises(ValueError, match="geometry_tol_mm must be finite and >= 0"):
            pipeline()._replace(geometry_tol_mm=tol)

    def test_zero_geometry_tolerance_is_valid(self, cube):
        # an after-slice byte set that changes the printed geometry
        spec = FaultSpec(FaultKind.BYTE_SET, FaultStage.AFTER_SLICE, offset=48, value=53)
        result = run_campaign(pipeline()._replace(geometry_tol_mm=0.0), [spec], cube)
        assert result.histogram == {DetectionStage.GEOMETRY_DIFF: 1}

    def test_empty_specs(self, cube):
        result = run_campaign(pipeline(), [], cube)
        assert result.trials == 0
        assert result.histogram == {}
        assert result.undetected_trials == ()

    def test_1000_bit_flips_all_caught_by_integrity(self, cube):
        specs = bit_flip_specs(1000, FaultStage.IN_TRANSIT, seed=202)
        result = run_campaign(pipeline(seed=11), specs, cube)
        assert result.trials == 1000
        assert result.histogram == {DetectionStage.INTEGRITY_VERIFY: 1000}
        assert result.undetected_trials == ()

    def test_envelope_disabled_lets_faults_past_integrity(self, cube):
        specs = bit_flip_specs(200, FaultStage.IN_TRANSIT, seed=202)
        with_envelope = run_campaign(pipeline(seed=11), specs, cube)
        without = run_campaign(pipeline(enveloped=False, seed=11), specs, cube)
        late = (
            without.count(DetectionStage.PRINTER_OUTCOME)
            + without.count(DetectionStage.GEOMETRY_DIFF)
            + without.count(DetectionStage.UNDETECTED)
        )
        assert late == 200
        assert without.count(DetectionStage.INTEGRITY_VERIFY) == 0
        assert without.count(DetectionStage.UNDETECTED) + without.count(
            DetectionStage.PRINTER_OUTCOME
        ) > 0
        assert (
            with_envelope.count(DetectionStage.UNDETECTED)
            == 0
            <= without.count(DetectionStage.UNDETECTED)
        )

    def test_scale_coords_detected_by_geometry_only(self, cube):
        spec = FaultSpec(FaultKind.SCALE_COORDS, FaultStage.AFTER_CAD, factor=1.001)
        result = run_campaign(pipeline(), [spec], cube)
        assert result.histogram == {DetectionStage.GEOMETRY_DIFF: 1}

    def test_flip_normals_detected_by_mesh_validation(self, cube):
        spec = FaultSpec(FaultKind.FLIP_NORMALS, FaultStage.AFTER_CAD)
        result = run_campaign(pipeline(), [spec], cube)
        assert result.histogram == {DetectionStage.MESH_VALIDATION: 1}

    def test_scale_past_float32_is_mesh_validation(self, cube):
        # the scaled mesh has no binary STL form; the campaign goes on
        spec = FaultSpec(FaultKind.SCALE_COORDS, FaultStage.AFTER_CAD, factor=1e200)
        result = run_campaign(pipeline(), [spec, spec], cube)
        assert result.histogram == {DetectionStage.MESH_VALIDATION: 2}

    def test_infinite_normal_is_mesh_validation(self, cube):
        # flipping bit 30 of a normal component of -1.0 makes it -inf; the
        # vertices, and so the edge census, are untouched
        stl = emit_stl_binary(cube)
        component = 84 + 8  # z of facet 0's normal
        assert struct.unpack_from("<f", stl, component) == (-1.0,)
        spec = FaultSpec(FaultKind.BIT_FLIP, FaultStage.AFTER_CAD, offset=component * 8 + 30)
        assert parse_stl(inject(stl, spec)).facets[0].normal.z == -math.inf
        result = run_campaign(pipeline(), [spec], cube)
        assert result.histogram == {DetectionStage.MESH_VALIDATION: 1}

    def test_truncated_stl_is_parse_error(self, cube):
        spec = FaultSpec(FaultKind.TRUNCATE, FaultStage.AFTER_CAD, new_len=100)
        result = run_campaign(pipeline(), [spec], cube)
        assert result.histogram == {DetectionStage.PARSE_ERROR: 1}

    def test_after_slice_faults_pass_integrity(self, cube):
        # the envelope is built after the fault, so the CRC cannot flag it
        specs = bit_flip_specs(100, FaultStage.AFTER_SLICE, seed=5)
        result = run_campaign(pipeline(seed=3), specs, cube)
        assert result.count(DetectionStage.INTEGRITY_VERIFY) == 0
        assert sum(result.histogram.values()) == 100

    def test_drop_packets_reliable_recovers(self, cube):
        spec = FaultSpec(FaultKind.DROP_PACKETS, FaultStage.IN_TRANSIT, loss_prob=0.3)
        result = run_campaign(pipeline(), [spec], cube)
        assert result.histogram == {DetectionStage.UNDETECTED: 1}

    def test_drop_packets_besteffort_detected(self, cube):
        cfg = pipeline()._replace(mode=TransferMode.BEST_EFFORT)
        spec = FaultSpec(FaultKind.DROP_PACKETS, FaultStage.IN_TRANSIT, loss_prob=0.9)
        result = run_campaign(cfg, [spec], cube)
        assert result.count(DetectionStage.INTEGRITY_VERIFY) == 1

    def test_replay_determinism(self, cube):
        specs = bit_flip_specs(64, FaultStage.IN_TRANSIT, seed=8) + [
            FaultSpec(FaultKind.SCALE_COORDS, FaultStage.AFTER_CAD, factor=0.999),
            FaultSpec(FaultKind.TRUNCATE, FaultStage.IN_TRANSIT, seed=4),
        ]
        a = run_campaign(pipeline(seed=21), specs, cube)
        b = run_campaign(pipeline(seed=21), specs, cube)
        assert a == b

    def test_histogram_sums_to_trials(self, cube):
        specs = bit_flip_specs(40, FaultStage.IN_TRANSIT, seed=6) + bit_flip_specs(
            40, FaultStage.AFTER_SLICE, seed=7
        )
        result = run_campaign(pipeline(seed=2), specs, cube)
        assert sum(result.histogram.values()) == result.trials == 80

    def test_result_json_round_trip(self, cube):
        specs = bit_flip_specs(10, FaultStage.IN_TRANSIT, seed=1)
        result = run_campaign(pipeline(enveloped=False, seed=9), specs, cube)
        blob = json.dumps(result.to_dict())
        assert CampaignResult.from_dict(json.loads(blob)) == result

    def test_ecc_corrections_attributed_to_integrity(self, cube):
        specs = bit_flip_specs(100, FaultStage.IN_TRANSIT, seed=31)
        result = run_campaign(pipeline(ecc=True, seed=13), specs, cube)
        assert result.count(DetectionStage.UNDETECTED) == 0
        assert result.count(DetectionStage.INTEGRITY_VERIFY) == 100


class TestFaultTargets:
    """Every fault a campaign accepts becomes a trial; a fault that no trial
    can plant is refused before the first trial runs."""

    @pytest.mark.parametrize(
        "enveloped, stage",
        [(True, DetectionStage.INTEGRITY_VERIFY), (False, DetectionStage.PRINTER_OUTCOME)],
        ids=["enveloped", "raw"],
    )
    def test_in_transit_truncate_to_nothing_is_classified(self, cube, enveloped, stage):
        explicit = FaultSpec(FaultKind.TRUNCATE, FaultStage.IN_TRANSIT, new_len=0)
        # seeds whose derived new_len is 0 on the cube's 832-byte envelope
        # and on its 807-byte raw text
        derived = FaultSpec(FaultKind.TRUNCATE, FaultStage.IN_TRANSIT,
                            seed=481 if enveloped else 944)
        sent = faultlab._prepare(pipeline(enveloped=enveloped), cube, []).job.sent
        assert inject(sent, derived) == b""
        result = run_campaign(pipeline(enveloped=enveloped), [explicit, derived], cube)
        assert result.histogram == {stage: 2}

    def test_after_slice_truncate_to_nothing_is_classified(self, cube):
        spec = FaultSpec(FaultKind.TRUNCATE, FaultStage.AFTER_SLICE, new_len=0)
        for enveloped in (True, False):
            result = run_campaign(pipeline(enveloped=enveloped), [spec], cube)
            assert result.histogram == {DetectionStage.PRINTER_OUTCOME: 1}

    @pytest.mark.parametrize(
        "spec, message",
        [
            (FaultSpec(FaultKind.BIT_FLIP, FaultStage.AFTER_SLICE, offset=999999999),
             "fault 1: bit offset 999999999 out of range for 807 bytes"),
            (FaultSpec(FaultKind.BIT_FLIP, FaultStage.IN_TRANSIT, offset=832 * 8),
             "fault 1: bit offset 6656 out of range for 832 bytes"),
            (FaultSpec(FaultKind.BYTE_SET, FaultStage.AFTER_CAD, offset=684),
             "fault 1: byte offset 684 out of range for 684 bytes"),
            (FaultSpec(FaultKind.TRUNCATE, FaultStage.IN_TRANSIT, new_len=833),
             "fault 1: new length 833 out of range for 832 bytes"),
        ],
        ids=["after-slice-bit", "in-transit-bit", "after-cad-byte", "in-transit-length"],
    )
    @pytest.mark.usefixtures("in_process")
    def test_explicit_target_past_its_end_refused_before_any_trial(
        self, cube, monkeypatch, spec, message
    ):
        trials = []
        monkeypatch.setattr(faultlab, "_run_trial", lambda *args: trials.append(args))
        fine = FaultSpec(FaultKind.BIT_FLIP, FaultStage.IN_TRANSIT, seed=1)
        with pytest.raises(faultlab.CampaignError) as err:
            run_campaign(pipeline(), [fine, spec], cube)
        assert str(err.value) == message
        assert trials == []

    def test_explicit_target_at_its_end_accepted(self, cube):
        specs = [
            FaultSpec(FaultKind.BIT_FLIP, FaultStage.AFTER_SLICE, offset=807 * 8 - 1),
            FaultSpec(FaultKind.BYTE_SET, FaultStage.IN_TRANSIT, offset=831, value=0),
            FaultSpec(FaultKind.TRUNCATE, FaultStage.AFTER_CAD, new_len=684),
        ]
        assert run_campaign(pipeline(), specs, cube).trials == 3

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec(FaultKind.BYTE_SET, FaultStage.AFTER_CAD, offset=3, value=65),
            FaultSpec(FaultKind.FLIP_NORMALS, FaultStage.AFTER_CAD),
        ],
        ids=["header-byte", "flip-normals"],
    )
    @pytest.mark.usefixtures("in_process")
    def test_after_cad_fault_on_an_invalid_base_refused_before_any_trial(
        self, cube, monkeypatch, spec
    ):
        # the unit cube less one facet: every after-CAD trial would land in
        # mesh_validation, whatever its fault changed
        open_cube = TriangleMesh(cube.facets[1:])
        trials = []
        monkeypatch.setattr(faultlab, "_run_trial", lambda *args: trials.append(args))
        with pytest.raises(faultlab.CampaignError, match="base mesh that passes mesh validation"):
            run_campaign(pipeline(), [spec], open_cube)
        assert trials == []

    def test_invalid_base_takes_faults_planted_past_cad(self, cube):
        open_cube = TriangleMesh(cube.facets[1:])
        specs = bit_flip_specs(3, FaultStage.IN_TRANSIT, seed=0)
        assert run_campaign(pipeline(), specs, open_cube).trials == 3

    def test_mesh_beyond_float32_refused_before_any_trial(self):
        mesh = TriangleMesh(
            (Facet(Vec3(0.0, 0.0, 1.0), Vec3(1e39, 0.0, 1.0), Vec3(0.0, 1.0, 1.0),
                   Vec3(0.0, 0.0, 1.0)),)
        )
        with pytest.raises(faultlab.CampaignError, match="beyond 32-bit float range"):
            run_campaign(pipeline(), bit_flip_specs(1, FaultStage.IN_TRANSIT, seed=0), mesh)


@pytest.fixture(scope="module")
def demo(cube):
    return run_demo_campaign(pipeline(seed=42), cube, corruption_count=120)


class TestDemoCampaign:
    def test_envelope_catches_everything(self, demo):
        assert demo.campaign.histogram == {DetectionStage.INTEGRITY_VERIFY: 120}
        assert demo.evidence.envelope_undetected == 0

    def test_buffering_contrast(self, demo):
        ev = demo.evidence
        assert ev.fullimage_scrapped == 0
        assert ev.fullimage_corrupt_printed_layers == 0
        assert ev.streaming_scrapped_with_layers >= 1

    def test_raw_pipeline_detects_late(self, demo):
        assert demo.evidence.raw_late_detections >= 1

    def test_channel_evidence(self, demo):
        ev = demo.evidence
        assert ev.reliable_intact_under_loss
        assert ev.lossy_packets_lost > 0
        assert ev.lossy_elapsed_ms > ev.lossless_elapsed_ms

    def test_json_round_trip(self, demo):
        doc = json.loads(json.dumps(demo.to_dict()))
        assert CampaignResult.from_dict(doc["campaign"]) == demo.campaign

    def test_requires_envelope(self, cube):
        with pytest.raises(ValueError, match="envelope"):
            run_demo_campaign(pipeline(enveloped=False), cube)

    def test_probe_whose_channel_goes_down_is_evidence(self, cube, monkeypatch):
        # at certain loss every reliable probe goes down on its first packet
        monkeypatch.setattr(faultlab, "RELIABLE_LOSS_PROB", 1.0)
        ev = run_demo_campaign(pipeline(seed=42), cube, corruption_count=2).evidence
        assert ev.reliable_intact_under_loss is False
        assert ev.reliable_loss_prob == 1.0
        assert ev.lossy_packets_lost == 16 * (1 + MAX_RETRIES)


def _digest(result) -> str:
    return hashlib.sha256(json.dumps(result.to_dict()).encode()).hexdigest()


# after-CAD mesh and STL faults, after-slice and in-transit bit flips, packet drops
MIXED_SPECS = (
    [
        FaultSpec(FaultKind.SCALE_COORDS, FaultStage.AFTER_CAD, factor=1.001),
        FaultSpec(FaultKind.FLIP_NORMALS, FaultStage.AFTER_CAD),
        FaultSpec(FaultKind.TRUNCATE, FaultStage.AFTER_CAD, new_len=100),
    ]
    + bit_flip_specs(6, FaultStage.AFTER_CAD, seed=3)
    + bit_flip_specs(8, FaultStage.AFTER_SLICE, seed=4)
    + bit_flip_specs(8, FaultStage.IN_TRANSIT, seed=5)
    + [
        FaultSpec(FaultKind.DROP_PACKETS, FaultStage.IN_TRANSIT, loss_prob=0.3),
        FaultSpec(FaultKind.DROP_PACKETS, FaultStage.IN_TRANSIT, loss_prob=0.9),
    ]
)


class TestTrialLoop:
    """The one trial loop reproduces, byte for byte, the per-campaign loops it
    replaced; the digests were recorded before the loops were merged."""

    def test_demo_output_unchanged(self, demo):
        assert _digest(demo) == "35ecda804a41049e38a862dd5283d628dac7438411d5c2fbb35571619db7b8f1"

    @pytest.mark.parametrize(
        "cfg, digest",
        [
            (
                pipeline(seed=7),
                "a078acc5b7dca436c3af213a67586cadc67c08a36bd2a0d8606858f992f6d414",
            ),
            (
                pipeline(policy=PrintPolicy.STREAMING, enveloped=False, seed=7)._replace(
                    mode=TransferMode.BEST_EFFORT,
                ),
                "a19402601752684d0e85002c7dae92d6609758d210deae7ed5776c9d6674ff52",
            ),
        ],
        ids=["fullimage-enveloped", "streaming-raw-besteffort"],
    )
    def test_mixed_campaign_output_unchanged(self, cube, cfg, digest):
        assert _digest(run_campaign(cfg, MIXED_SPECS, cube)) == digest

    @pytest.mark.usefixtures("in_process")
    def test_demo_slices_the_mesh_once(self, cube, monkeypatch):
        calls = []

        def counting_slice_mesh(*args, **kwargs):
            calls.append(args)
            return slice_mesh(*args, **kwargs)

        monkeypatch.setattr(faultlab, "slice_mesh", counting_slice_mesh)
        run_demo_campaign(pipeline(seed=42), cube, corruption_count=8)
        assert len(calls) == 1

    @pytest.mark.usefixtures("in_process")
    def test_demo_folds_its_reference_once(self, cube, monkeypatch):
        # the pristine job's reading is folded once, with the job; every
        # streaming trial fails its integrity check and is blamed on that
        # reading's layers without a fold, so every other fold reads one
        # damaged payload of the raw pass
        priors = []

        def counting_fold(lines, prior, *args, _fold=gcode._fold):
            priors.append(prior)
            return _fold(lines, prior, *args)

        monkeypatch.setattr(gcode, "_fold", counting_fold)
        demo = run_demo_campaign(pipeline(seed=42), cube, corruption_count=8)
        assert demo.evidence.streaming_scrapped == 8
        assert sum(prior is gcode._NOTHING for prior in priors) == 1
        assert len(priors) == 1 + demo.evidence.raw_trials

    @pytest.mark.usefixtures("in_process")
    def test_demo_reads_damaged_raw_payloads_from_checkpoints(self, monkeypatch):
        # every raw-pass payload differs from the pristine text in one bit;
        # each is scanned once, from the last layer checkpoint before that
        # bit, and from byte 0 only when no checkpoint lies before it or the
        # rest from there is not UTF-8 (scan rejects such a payload whole)
        reads = []

        def recording_resume(reading, text, payload):
            reads.append((reading, text, payload, []))
            return resume(reading, text, payload)

        def counting_scan(data, offset=0, first_line=1):
            reads[-1][3].append(offset)
            return scan(data, offset, first_line)

        monkeypatch.setattr(printer_sim, "resume", recording_resume)
        monkeypatch.setattr(gcode, "scan", counting_scan)
        demo = run_demo_campaign(pipeline(seed=42), shapes.ngon_prism(64, 10, 10),
                                 corruption_count=30)
        damaged = [read for read in reads if read[1] != read[2]]
        assert len(damaged) == demo.evidence.raw_trials == 30
        from_checkpoints = 0
        for reading, text, payload, offsets in damaged:
            diff = _first_diff(text, payload)
            before = [cp.offset for cp in reading.checkpoints if cp.offset < diff]
            if before and _is_utf8(payload[before[-1]:]):
                assert offsets == [before[-1]]
                from_checkpoints += 1
            else:
                assert offsets == [0]
        assert from_checkpoints >= 25

    @pytest.mark.usefixtures("in_process")
    def test_after_slice_trial_reads_its_text_from_the_pristine(self, cube, monkeypatch):
        jobs = []

        def recording_run_job(job, *args, **kwargs):
            jobs.append(job)
            return run_job(job, *args, **kwargs)

        monkeypatch.setattr(faultlab, "run_job", recording_run_job)
        specs = bit_flip_specs(40, FaultStage.AFTER_SLICE, seed=5) + [
            FaultSpec(FaultKind.TRUNCATE, FaultStage.AFTER_SLICE, seed=s) for s in range(10)
        ]
        run_campaign(pipeline(policy=PrintPolicy.STREAMING), specs, cube)
        assert len(jobs) == 50
        for job in jobs:  # repr tells errors, and -0.0 from 0.0, apart
            assert repr(job.reading) == repr(fold(scan(job.text)))
            # the envelope declares the commands the sender read
            assert integrity.verify(job.sent).record_count == len(job.reading.commands)


def old_record_count(text: bytes) -> int:
    """The count envelopes once declared: every line that holds code, whether
    or not it parses."""
    return sum(
        1 for _, _, item in scan(text)
        if item is not None and not (isinstance(item, GCodeError) and item.line is None)
    )


def old_blame_layers(text: bytes) -> tuple:
    """The layers streaming damage was once blamed on: a fold that skips bad lines."""
    return fold(line for line in scan(text) if not isinstance(line[2], GCodeError)).layers


ONE_READING_CFGS = {
    f"{policy.value}-loss{loss}": pipeline(policy=policy, loss=loss)._replace(
        mode=TransferMode.BEST_EFFORT, packet_size=64)
    for policy in PrintPolicy for loss in (0.0, 0.2)
}


@functools.cache
def cube_pristine(cfg: PipelineConfig):
    return faultlab._prepare(cfg, shapes.box(), [])


class TestOneReading:
    """The sender's strict reading declares the record count and takes the
    streaming blame.  The count and the blame it replaced, a count of lines
    that hold code and the layers of a fold that skips bad lines, give every
    after-slice trial the same detection stage."""

    @pytest.mark.parametrize("name", list(ONE_READING_CFGS))
    @given(
        kind=st.sampled_from([FaultKind.BIT_FLIP, FaultKind.BYTE_SET, FaultKind.TRUNCATE]),
        seed=st.integers(0, 2**64 - 1),
        channel_seed=st.integers(0, 2**32),
    )
    def test_stage_unchanged_by_the_old_count_and_blame(self, name, kind, seed, channel_seed):
        cfg = ONE_READING_CFGS[name]
        spec = FaultSpec(kind, FaultStage.AFTER_SLICE, seed=seed)
        args = (cfg, spec, cube_pristine(cfg), cfg.channel._replace(seed=channel_seed))
        runs = []

        def recording_run_job(job, *a, **kw):
            outcome, trace = run_job(job, *a, **kw)
            runs.append((job, kw["sent"], outcome, trace))
            return outcome, trace

        def old_count_wrap(cfg, text, reading):
            return integrity.wrap(text, old_record_count(text), with_ecc=cfg.ecc)

        def old_blame_resume(reading, text, payload):
            return resume(reading, text, payload)._replace(layers=old_blame_layers(payload))

        with pytest.MonkeyPatch.context() as m:
            m.setattr(faultlab, "run_job", recording_run_job)
            stage = faultlab._run_trial(*args)[0]
            for attr, old in (("_wrap_stage", old_count_wrap), ("resume", old_blame_resume)):
                with pytest.MonkeyPatch.context() as m_old:
                    m_old.setattr(faultlab, attr, old)
                    assert faultlab._run_trial(*args)[0] is stage
        for job, sent, outcome, trace in runs:
            if job.reading.error is None:
                assert integrity.verify(job.sent).record_count == len(job.reading.commands)
            if outcome.reason is FailReason.INTEGRITY_FAILURE and outcome.layers_printed:
                # a streaming scrap prints the layers of job.reading before
                # the one that holds the first damaged byte
                delivered = transfer(sent, args[3], cfg.mode, cfg.packet_size).delivered
                at = _first_diff(delivered, sent) - integrity.HEADER_SIZE
                layers = job.reading.layers
                assert trace.layers == layers[:sum(lay.start_offset <= at for lay in layers[1:])]


def _is_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


# every stage and every kind: both after-CAD mesh kinds, the after-CAD byte
# kinds, byte faults after slicing and in transit, and packet drops
EVERY_FAULT = (
    MIXED_SPECS
    + [FaultSpec(FaultKind.BYTE_SET, stage, seed=9) for stage in FaultStage]
    + [FaultSpec(FaultKind.TRUNCATE, stage, seed=10)
       for stage in (FaultStage.AFTER_SLICE, FaultStage.IN_TRANSIT)]
)


@pytest.fixture()
def pool_runs(pooled, monkeypatch):
    """The number of trials each pool started by a campaign ran."""
    runs = []

    def counting_pooled(rest, workers, pooled=faultlab._pooled):
        runs.append(len(rest))
        return pooled(rest, workers)

    monkeypatch.setattr(faultlab, "_pooled", counting_pooled)
    return runs


class TestPool:
    """Trials handed to forked workers give the bytes of the in-process
    loop, and leave no process behind."""

    @pytest.mark.parametrize(
        "cfg",
        [
            pipeline(seed=7),
            pipeline(policy=PrintPolicy.STREAMING, enveloped=False, seed=7)._replace(
                mode=TransferMode.BEST_EFFORT),
        ],
        ids=["fullimage-enveloped", "streaming-raw-besteffort"],
    )
    def test_campaign_matches_the_in_process_loop(self, cube, cfg, pool_runs, monkeypatch):
        pooled = json.dumps(run_campaign(cfg, EVERY_FAULT, cube).to_dict())
        assert pool_runs == [len(EVERY_FAULT)]
        monkeypatch.setattr(faultlab, "_POOL_AFTER_S", math.inf)
        assert pooled == json.dumps(run_campaign(cfg, EVERY_FAULT, cube).to_dict())
        assert pool_runs == [len(EVERY_FAULT)]
        assert multiprocessing.active_children() == []

    def test_each_trial_matches_the_in_process_loop(self, cube, pool_runs, monkeypatch):
        cfg = pipeline(seed=7)
        passes = [(cfg, faultlab._prepare(cfg, cube, EVERY_FAULT))]
        pooled = list(faultlab._trials(passes, EVERY_FAULT))
        assert pool_runs == [len(EVERY_FAULT)]
        monkeypatch.setattr(faultlab, "_POOL_AFTER_S", math.inf)
        assert pooled == list(faultlab._trials(passes, EVERY_FAULT))

    def test_demo_matches_the_in_process_loop(self, cube, pool_runs, monkeypatch):
        # the three passes share one pool
        pooled = json.dumps(run_demo_campaign(pipeline(seed=42), cube, 24).to_dict())
        assert pool_runs == [3 * 24]
        monkeypatch.setattr(faultlab, "_POOL_AFTER_S", math.inf)
        assert pooled == json.dumps(run_demo_campaign(pipeline(seed=42), cube, 24).to_dict())
        assert multiprocessing.active_children() == []

    def test_no_fork_while_another_thread_runs(self, cube, pool_runs):
        # a forked child would inherit any lock that thread holds
        done = threading.Event()
        waiter = threading.Thread(target=done.wait)
        waiter.start()
        try:
            result = run_campaign(pipeline(seed=7), EVERY_FAULT, cube)
        finally:
            done.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert pool_runs == [] and result.trials == len(EVERY_FAULT)

    def test_workers_end_with_a_killed_campaign(self, pooled):
        # a campaign process killed mid-trial cannot shut its pool down; its
        # workers must not wait for tasks that will never come
        if not os.path.exists(f"/proc/{os.getpid()}/stat"):
            pytest.skip("reads process states from /proc")
        code = (
            "import os, time\n"
            "from amstpa_lab import faultlab, shapes\n"
            "from amstpa_lab.faultlab import FaultStage, PipelineConfig, bit_flip_specs\n"
            "from amstpa_lab.gcode import ToolpathParams\n"
            "from amstpa_lab.netsim import ChannelParams\n"
            "from amstpa_lab.printer_sim import PrinterConfig, PrintPolicy\n"
            "from amstpa_lab.slicer import SliceParams\n"
            "def hang(*args):\n"
            "    # one write, so two workers' lines cannot interleave\n"
            "    os.write(1, b'%d\\n' % os.getpid())\n"
            "    time.sleep(60)\n"
            "faultlab._POOL_AFTER_S = 0.0\n"
            "faultlab._run_trial = hang\n"
            "cfg = PipelineConfig(SliceParams(0.25), ToolpathParams(), ChannelParams(),\n"
            "                     PrinterConfig(1 << 20, PrintPolicy.FULL_IMAGE))\n"
            "faultlab.run_campaign(cfg, bit_flip_specs(4, FaultStage.IN_TRANSIT, 1), shapes.box())\n"
        )

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    return stat.read().rpartition(")")[2].split()[0] != "Z"
            except FileNotFoundError:
                return False

        campaign = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)
        workers = []
        try:
            workers = [int(campaign.stdout.readline()) for _ in range(2)]
            campaign.kill()
            campaign.wait(timeout=10)
            deadline = time.monotonic() + 10
            while any(map(running, workers)) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not any(map(running, workers))
        finally:
            campaign.kill()
            campaign.stdout.close()
            for pid in filter(running, workers):
                os.kill(pid, signal.SIGKILL)

    def test_a_trial_that_raises_stops_the_campaign(self, cube, pool_runs, monkeypatch):
        def failing(cfg, spec, pristine, channel, run_trial=faultlab._run_trial):
            if spec.stage is FaultStage.AFTER_SLICE:
                raise OverflowError(f"trial with seed {spec.seed}")
            return run_trial(cfg, spec, pristine, channel)

        monkeypatch.setattr(faultlab, "_run_trial", failing)
        with pytest.raises(OverflowError, match="trial with seed"):
            run_campaign(pipeline(seed=7), EVERY_FAULT, cube)
        assert pool_runs == [len(EVERY_FAULT)]
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# Whole-file oracle: every after-CAD fault parsed, validated and built whole,
# as trials did before the intake judged byte faults by the records they
# change.
# ---------------------------------------------------------------------------


def whole_file_trial(cfg, spec, pristine, channel):
    """An after-CAD trial through parse_stl -> validate_mesh -> build_job."""
    if spec.kind in (FaultKind.SCALE_COORDS, FaultKind.FLIP_NORMALS):
        try:
            stl = emit_stl_binary(inject(pristine.mesh, spec))
        except ValueError:
            return DetectionStage.MESH_VALIDATION, None, None
    else:
        stl = inject(pristine.stl, spec)
    try:
        mesh = parse_stl(stl)
    except StlError:
        return DetectionStage.PARSE_ERROR, None, None
    if not validate_mesh(mesh).is_clean():
        return DetectionStage.MESH_VALIDATION, None, None
    try:
        job = build_job(cfg, mesh)
    except ValueError:
        return DetectionStage.MESH_VALIDATION, None, None
    outcome, trace = run_job(
        job, cfg.printer, channel, cfg.mode,
        packet_size=cfg.packet_size, enveloped=cfg.enveloped,
    )
    if outcome.reason is FailReason.INTEGRITY_FAILURE or trace.integrity_corrected_bits > 0:
        return DetectionStage.INTEGRITY_VERIFY, outcome, trace
    if outcome.status is not JobStatus.COMPLETED:
        return DetectionStage.PRINTER_OUTCOME, outcome, trace
    gd = geometry_diff(pristine.job.layers, trace)
    if gd.layers_missing > 0 or gd.max_extrusion_error_mm > cfg.geometry_tol_mm:
        return DetectionStage.GEOMETRY_DIFF, outcome, trace
    return DetectionStage.UNDETECTED, outcome, trace


def verdict(run, *args) -> str:
    """The trial's (stage, outcome, trace) repr, or the ValueError it raised."""
    try:
        return repr(run(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


def _bent_cube() -> TriangleMesh:
    """The unit cube with the y of facet 4's first vertex moved from 0.0 to
    2.0, one bit away in float32: four edges are used once, so it is not
    watertight, and it slices to other contours."""
    cube = shapes.box()
    f = cube.facets[4]
    assert f.v0.y == 0.0
    two = struct.unpack("<f", struct.pack("<I", 1 << 30))[0]
    return TriangleMesh(cube.facets[:4] + (f._replace(v0=f.v0._replace(y=two)),) + cube.facets[5:])


def _collapsed_cube() -> TriangleMesh:
    """The unit cube with facet 5 collapsed onto an edge: degenerate."""
    cube = shapes.box()
    f = cube.facets[5]
    return TriangleMesh(cube.facets[:5] + (f._replace(v1=f.v0),) + cube.facets[6:])


# the bit that bends facet 4's vertex back: bit 30 of the float32 at byte 16
# of record 4, its y
UNBEND = FaultSpec(FaultKind.BIT_FLIP, FaultStage.AFTER_CAD, offset=8 * (84 + 50 * 4 + 16) + 30)


def _signed_zero_cube() -> TriangleMesh:
    """The unit cube with every 0.0 vertex coordinate made -0.0 and every
    normal zero, of either sign: still clean, and still clean with its
    normals flipped, so a flip_normals trial reaches the printer."""
    def signed(v):
        return Vec3(*(-0.0 if x == 0.0 else x for x in v))

    return TriangleMesh(tuple(
        Facet(Vec3(0.0, -0.0, 0.0) if i % 2 else Vec3(-0.0, 0.0, -0.0), *map(signed, vertices))
        for i, (_, *vertices) in enumerate(shapes.box().facets)
    ))


CAD_MESHES = {
    "clean": shapes.box(),
    "bent": _bent_cube(),
    "collapsed": _collapsed_cube(),
    # read from ASCII STL: its coordinates are not float32-exact, so the
    # parsed pristine is not the base mesh
    "ascii": parse_stl(emit_stl_ascii(shapes.ngon_prism(6, 1.0, 1.0), precision=17)),
    "signed_zeros": _signed_zero_cube(),
}

FLT_MAX = struct.unpack("<f", b"\xff\xff\x7f\x7f")[0]


def scale_factors(mesh: TriangleMesh) -> list[float]:
    """Factors at the edges of float32: two that underflow it, and the
    overflow boundary of `mesh`'s largest vertex coordinate m: FLT_MAX / m,
    the next double above it, and the doubles either side of the least
    product that rounds to float32 infinity, 2**128 - 2**103."""
    m = max(abs(x) for f in mesh.facets for v in f.vertices for x in v)
    at_max, past_max = FLT_MAX / m, (2.0**128 - 2.0**103) / m
    return [1e-40, 1e-45, at_max, math.nextafter(at_max, math.inf),
            math.nextafter(past_max, 0.0), past_max]


CAD_CFG = pipeline(ecc=True, seed=5)
REGIONS = ("header", "count", "normal", "vertex", "attribute", "past_end")


@st.composite
def after_cad_faults(draw, size: int, factors: list[float]):
    """After-CAD faults of every kind; byte faults land in each region of a
    binary STL of `size` bytes, or past its end, or where their seed says;
    scale_coords takes one of `factors` or a seeded factor."""
    kind = draw(st.sampled_from(sorted(faultlab._STAGE_KINDS[FaultStage.AFTER_CAD],
                                       key=lambda k: k.value)))
    seed = draw(st.integers(0, 2**64 - 1))
    if kind is FaultKind.FLIP_NORMALS:
        return FaultSpec(kind, FaultStage.AFTER_CAD, seed=seed)
    if kind is FaultKind.SCALE_COORDS:
        factor = draw(st.sampled_from([1.0, 0.5, 1.001, 1e39, *factors]) | st.floats(0.01, 100.0))
        return FaultSpec(kind, FaultStage.AFTER_CAD, factor=factor, seed=seed)
    if draw(st.booleans()):
        return FaultSpec(kind, FaultStage.AFTER_CAD, seed=seed)
    record = 84 + 50 * draw(st.integers(0, (size - 84) // 50 - 1))
    at = draw({
        "header": st.integers(0, 79),
        "count": st.integers(80, 83),
        "normal": st.integers(record, record + 11),
        "vertex": st.integers(record + 12, record + 47),
        "attribute": st.integers(record + 48, record + 49),
        "past_end": st.integers(size, size + 60),
    }[draw(st.sampled_from(REGIONS))])
    if kind is FaultKind.BIT_FLIP:
        return FaultSpec(kind, FaultStage.AFTER_CAD, offset=8 * at + draw(st.integers(0, 7)))
    if kind is FaultKind.BYTE_SET:
        value = draw(st.none() | st.integers(0, 255))
        return FaultSpec(kind, FaultStage.AFTER_CAD, offset=at, value=value, seed=seed)
    return FaultSpec(kind, FaultStage.AFTER_CAD, new_len=at, seed=seed)


class TestCadIntakeMatchesWholeFile:
    """After-CAD trials judged from the records a fault changes give the
    stage, outcome and trace of the whole-file path."""

    @pytest.fixture(scope="class")
    def prepared(self):
        # one intake per mesh for every example: its job, once built, must
        # not change a later trial
        byte_fault = [FaultSpec(FaultKind.BIT_FLIP, FaultStage.AFTER_CAD)]
        return {name: faultlab._prepare(CAD_CFG, mesh, byte_fault)
                for name, mesh in CAD_MESHES.items()}

    @pytest.mark.parametrize("name", list(CAD_MESHES))
    @given(data=st.data())
    def test_random_faults(self, prepared, name, data):
        pristine = prepared[name]
        spec = data.draw(after_cad_faults(len(pristine.stl), scale_factors(pristine.mesh)))
        channel = CAD_CFG.channel._replace(seed=data.draw(st.integers(0, 2**64 - 1)))
        args = (CAD_CFG, spec, pristine, channel)
        assert verdict(faultlab._run_trial, *args) == verdict(whole_file_trial, *args)

    def test_unbending_a_vertex_reaches_the_printer(self, prepared):
        # the fault drops the bent vertex's two edges (used once each) and
        # makes the two edges it had broken manifold again, so the mesh is
        # clean and its job is built from the changed record
        assert prepared["bent"].job.sent != prepared["clean"].job.sent
        channel = CAD_CFG.channel._replace(seed=1)
        args = (CAD_CFG, UNBEND, prepared["bent"], channel)
        stage, _, _ = faultlab._run_trial(*args)
        assert stage not in (DetectionStage.PARSE_ERROR, DetectionStage.MESH_VALIDATION)
        assert verdict(faultlab._run_trial, *args) == verdict(whole_file_trial, *args)

    def test_pristine_job_reused_only_for_a_float32_exact_base(self):
        # a float32-exact base is the parsed pristine: its trials send the
        # pristine job; any other base's job is built by the first trial
        for name, reused in (("clean", True), ("ascii", False)):
            pristine = faultlab._prepare(CAD_CFG, CAD_MESHES[name], [UNBEND])
            assert (pristine.cad.mesh is pristine.mesh) is reused
            assert not pristine.cad._jobs

    @pytest.mark.parametrize("name", ["clean", "ascii"])
    def test_one_pristine_serves_every_config(self, name):
        # as run_demo_campaign does: one pristine, prepared with the
        # enveloped config, also runs an unenveloped campaign that sends
        # the pristine text; a vertex-keeping fault follows the trial's
        # config and pristine, whichever config built the job first
        raw_cfg = CAD_CFG._replace(enveloped=False)
        header = FaultSpec(FaultKind.BIT_FLIP, FaultStage.AFTER_CAD, offset=8 * 5 + 1)
        pristine = faultlab._prepare(CAD_CFG, CAD_MESHES[name], [header])
        raw = pristine._replace(job=pristine.job._replace(sent=pristine.job.text))
        channel = CAD_CFG.channel._replace(seed=3)
        for cfg, p in ((CAD_CFG, pristine), (raw_cfg, raw), (CAD_CFG, pristine)):
            args = (cfg, header, p, channel)
            assert verdict(faultlab._run_trial, *args) == verdict(whole_file_trial, *args)


class TestDeclinedByteFaultsDoNotParse:
    """The intake sends every byte fault that binary_delta declines to
    parse_error without parsing it: a pristine STL opens with BINARY_HEADER,
    so only a changed length or count word is declined, and parse_stl
    refuses both."""

    def test_header_does_not_open_with_solid(self):
        assert BINARY_HEADER.lstrip()[:5].lower() != b"solid"

    @pytest.mark.parametrize(
        "mesh", [shapes.box(), shapes.corner_tetrahedron(), shapes.octahedron()],
        ids=["cube", "tetrahedron", "octahedron"],
    )
    def test_no_declined_byte_set_or_truncation_parses(self, mesh):
        stl = emit_stl_binary(mesh)
        faults = [stl[:n] for n in range(len(stl))]
        for at in range(84):  # the header and the count word
            for value in range(256):
                faults.append(stl[:at] + bytes([value]) + stl[at + 1:])
        declined = [data for data in faults if binary_delta(stl, data) is None]
        # every truncation, and every byte set that changes the count word
        assert len(declined) == len(stl) + 4 * 255
        for data in declined:
            with pytest.raises(StlError):
                parse_stl(data)


@pytest.mark.usefixtures("in_process")
class TestCadIntakeLifetime:
    # no trial but the header flip builds the parsed pristine's job
    OTHERS = [
        FaultSpec(FaultKind.BIT_FLIP, FaultStage.AFTER_CAD, offset=8 * (84 + 20) + 3),
        FaultSpec(FaultKind.BYTE_SET, FaultStage.AFTER_CAD, offset=81, value=9),
        FaultSpec(FaultKind.TRUNCATE, FaultStage.AFTER_CAD, seed=3),
        FaultSpec(FaultKind.SCALE_COORDS, FaultStage.AFTER_CAD, factor=1.01),
        FaultSpec(FaultKind.FLIP_NORMALS, FaultStage.AFTER_CAD),
        FaultSpec(FaultKind.BIT_FLIP, FaultStage.AFTER_SLICE, seed=4),
        FaultSpec(FaultKind.BIT_FLIP, FaultStage.IN_TRANSIT, seed=5),
        FaultSpec(FaultKind.DROP_PACKETS, FaultStage.IN_TRANSIT, loss_prob=0.3),
    ]
    HEADER = FaultSpec(FaultKind.BIT_FLIP, FaultStage.AFTER_CAD, offset=8 * 5 + 1)

    @pytest.mark.parametrize("first", [True, False], ids=["built-by-first", "built-by-last"])
    def test_each_trial_equals_a_fresh_run(self, first):
        base = CAD_MESHES["ascii"]
        specs = [self.HEADER] + self.OTHERS if first else self.OTHERS + [self.HEADER]
        cfg = CAD_CFG
        pristine = faultlab._prepare(cfg, base, specs)
        built = []
        for i, (spec, stage, outcome) in enumerate(faultlab._trials([(cfg, pristine)], specs)):
            built.append(cfg in pristine.cad._jobs)
            channel = cfg.channel._replace(seed=splitmix64_at(cfg.campaign_seed, i))
            fresh = faultlab._prepare(cfg, base, specs)
            assert (stage, outcome) == faultlab._run_trial(cfg, spec, fresh, channel)[:2]
        last = len(specs) - 1
        assert built == ([True] * len(specs) if first else [False] * last + [True])

    def test_only_after_cad_byte_faults_build_it(self, cube, monkeypatch):
        def refuse(data):
            raise AssertionError("parse_stl was called")

        monkeypatch.setattr(faultlab, "parse_stl", refuse)
        run_demo_campaign(pipeline(seed=42), cube, corruption_count=4)
        specs = [
            FaultSpec(FaultKind.BIT_FLIP, FaultStage.AFTER_SLICE, seed=1),
            FaultSpec(FaultKind.TRUNCATE, FaultStage.IN_TRANSIT, seed=2),
            FaultSpec(FaultKind.DROP_PACKETS, FaultStage.IN_TRANSIT, loss_prob=0.5),
        ]
        assert run_campaign(pipeline(seed=7), specs, cube).trials == 3

    def test_header_faults_parse_the_pristine_once(self, monkeypatch):
        # the binary STL of a float32-exact base reads back as the base
        # itself, so it is never parsed; any other base's is parsed once
        calls = []
        prepared = []

        def counting_parse_stl(data):
            calls.append(len(data))
            return parse_stl(data)

        def keeping_prepare(*args, prepare=faultlab._prepare):
            prepared.append(prepare(*args))
            return prepared[-1]

        monkeypatch.setattr(faultlab, "parse_stl", counting_parse_stl)
        monkeypatch.setattr(faultlab, "_prepare", keeping_prepare)
        specs = [FaultSpec(FaultKind.BYTE_SET, FaultStage.AFTER_CAD, offset=i) for i in range(8)]
        for base, parses in ((shapes.box(), 0), (shapes.ngon_prism(7), 1)):
            calls.clear()
            result = run_campaign(pipeline(seed=7), specs, base)
            pristine = prepared[-1]
            assert result.trials == 8 and calls == [len(emit_stl_binary(base))] * parses
            assert facet_bits(pristine.cad.mesh) == facet_bits(parse_stl(pristine.stl))


def facet_bits(mesh: TriangleMesh) -> bytes:
    """Every coordinate's float64 bits, in facet order: -0.0 is not 0.0."""
    return struct.pack(f"<{12 * len(mesh.facets)}d", *(x for f in mesh.facets for v in f for x in v))


# ---------------------------------------------------------------------------
# Mesh faults read back without STL bytes: the intake's mesh must be the one
# the faulted mesh's binary STL parses to, compared by bits, since tuple ==
# takes -0.0 for 0.0.
# ---------------------------------------------------------------------------


def facet_inject(mesh: TriangleMesh, spec: FaultSpec) -> TriangleMesh:
    """inject's mesh faults written facet by facet: the oracle of the rule
    on flat coordinates."""
    if spec.kind is FaultKind.FLIP_NORMALS:
        flipped = tuple(
            Facet(Vec3(-nx, -ny, -nz), a, b, c) for (nx, ny, nz), a, b, c in mesh.facets
        )
        return TriangleMesh(flipped, mesh.source_encoding)
    factor = spec.factor
    scaled = tuple(
        Facet(n, *(Vec3(x * factor, y * factor, z * factor) for x, y, z in vertices))
        for n, *vertices in mesh.facets
    )
    return TriangleMesh(scaled, mesh.source_encoding)


FLIP = FaultSpec(FaultKind.FLIP_NORMALS, FaultStage.AFTER_CAD)


def mesh_faults(mesh: TriangleMesh) -> list[FaultSpec]:
    """flip_normals, and scale_coords by plain factors, by one that
    overflows a double and by those at the edges of float32."""
    factors = [1.0, 0.5, 1.001, 2.0, 1e39, sys.float_info.max, *scale_factors(mesh)]
    return [FLIP] + [
        FaultSpec(FaultKind.SCALE_COORDS, FaultStage.AFTER_CAD, factor=f) for f in factors
    ]


class TestMeshFaultReadBack:
    @pytest.mark.parametrize("name", list(CAD_MESHES))
    def test_inject_matches_the_facet_rule(self, name):
        mesh = CAD_MESHES[name]
        for spec in mesh_faults(mesh):
            faulted = inject(mesh, spec)
            assert faulted.source_encoding is mesh.source_encoding
            assert facet_bits(faulted) == facet_bits(facet_inject(mesh, spec))

    @pytest.mark.parametrize("name", list(CAD_MESHES))
    def test_intake_reads_back_what_the_stl_parses_to(self, name, monkeypatch):
        # the mesh handed to validate_mesh is the read-back, clean or not
        base = CAD_MESHES[name]
        validated = []

        def recording_validate_mesh(mesh, *args):
            validated.append(mesh)
            return validate_mesh(mesh, *args)

        monkeypatch.setattr(faultlab, "validate_mesh", recording_validate_mesh)
        for spec in mesh_faults(base):
            validated.clear()
            got = faultlab._CadIntake(base, emit_stl_binary(base))(spec)
            try:
                stl = emit_stl_binary(inject(base, spec))
            except ValueError:  # not finite, or past the float32 range
                assert got is DetectionStage.MESH_VALIDATION and validated == []
                continue
            parsed = parse_stl(stl)
            [mesh] = validated
            assert mesh.source_encoding is parsed.source_encoding is Encoding.BINARY
            assert facet_bits(mesh) == facet_bits(parsed)
            clean = validate_mesh(parsed).is_clean()
            assert got is (mesh if clean else DetectionStage.MESH_VALIDATION)

    @pytest.mark.usefixtures("in_process")
    @pytest.mark.parametrize(
        "name, flipped",
        [("clean", DetectionStage.MESH_VALIDATION), ("signed_zeros", DetectionStage.UNDETECTED)],
    )
    def test_flip_normals_is_read_once_per_campaign(self, monkeypatch, name, flipped):
        # flip_normals has no parameters: its eight trials read one mesh,
        # while each scale_coords trial reads its own, same factor or not
        calls = []

        def counting_validate_mesh(mesh, *args):
            calls.append(mesh)
            return validate_mesh(mesh, *args)

        monkeypatch.setattr(faultlab, "validate_mesh", counting_validate_mesh)
        scale = FaultSpec(FaultKind.SCALE_COORDS, FaultStage.AFTER_CAD, factor=1.001)
        specs = [FLIP] * 4 + [scale, scale] + [FLIP] * 4
        result = run_campaign(pipeline(seed=7), specs, CAD_MESHES[name])
        assert len(calls) == 3
        assert result.histogram == {flipped: 8, DetectionStage.GEOMETRY_DIFF: 2}

    @pytest.mark.usefixtures("in_process")
    def test_scale_faults_keep_no_mesh(self, cube):
        def peak(n: int) -> int:
            specs = [FaultSpec(FaultKind.SCALE_COORDS, FaultStage.AFTER_CAD,
                               factor=1.001 + j / 1000) for j in range(n)]
            tracemalloc.start()
            try:
                assert run_campaign(pipeline(seed=7), specs, cube).trials == n
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the trial loop's runs grow by about 90 bytes a trial; a read-back
        # cube kept per factor would add about 7 KB a factor
        few, many = peak(5), peak(50)
        assert many < few + 16 * 1024, (few, many)
