import hashlib
import json
import math
import struct
from dataclasses import replace

import pytest

from amstpa_lab import faultlab, printer_sim
from amstpa_lab.faultlab import (
    CampaignResult,
    DetectionStage,
    FaultKind,
    FaultSpec,
    FaultStage,
    PipelineConfig,
    bit_flip_specs,
    inject,
    run_campaign,
    run_demo_campaign,
)
from amstpa_lab.gcode import ToolpathParams, fold
from amstpa_lab.mesh_io import (
    Facet,
    TriangleMesh,
    Vec3,
    emit_stl_binary,
    parse_stl,
    validate_mesh,
)
from amstpa_lab.netsim import ChannelParams, TransferMode
from amstpa_lab.printer_sim import PrinterConfig, PrintPolicy
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
        ]
        for spec in specs:
            blob = json.dumps(spec.to_dict())
            assert FaultSpec.from_dict(json.loads(blob)) == spec


class TestCampaign:
    @pytest.mark.parametrize("tol", [-1.0, math.inf, -math.inf, math.nan])
    def test_geometry_tolerance_must_be_finite_and_non_negative(self, tol):
        with pytest.raises(ValueError, match="geometry_tol_mm must be finite and >= 0"):
            replace(pipeline(), geometry_tol_mm=tol)

    def test_zero_geometry_tolerance_is_valid(self, cube):
        # an after-slice byte set that changes the printed geometry
        spec = FaultSpec(FaultKind.BYTE_SET, FaultStage.AFTER_SLICE, offset=48, value=53)
        result = run_campaign(replace(pipeline(), geometry_tol_mm=0.0), [spec], cube)
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
        cfg = replace(pipeline(), mode=TransferMode.BEST_EFFORT)
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
        sent = faultlab._prepare(pipeline(enveloped=enveloped), cube).job.sent
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
                replace(
                    pipeline(policy=PrintPolicy.STREAMING, enveloped=False, seed=7),
                    mode=TransferMode.BEST_EFFORT,
                ),
                "a19402601752684d0e85002c7dae92d6609758d210deae7ed5776c9d6674ff52",
            ),
        ],
        ids=["fullimage-enveloped", "streaming-raw-besteffort"],
    )
    def test_mixed_campaign_output_unchanged(self, cube, cfg, digest):
        assert _digest(run_campaign(cfg, MIXED_SPECS, cube)) == digest

    def test_demo_slices_the_mesh_once(self, cube, monkeypatch):
        calls = []

        def counting_slice_mesh(*args, **kwargs):
            calls.append(args)
            return slice_mesh(*args, **kwargs)

        monkeypatch.setattr(faultlab, "slice_mesh", counting_slice_mesh)
        run_demo_campaign(pipeline(seed=42), cube, corruption_count=8)
        assert len(calls) == 1

    def test_demo_folds_its_reference_once(self, cube, monkeypatch):
        # every streaming trial fails its integrity check and needs the
        # pristine layers; the last reference folded is cached
        calls = []

        def counting_fold(lines, tolerant=False):
            calls.append(tolerant)
            return fold(lines, tolerant)

        printer_sim._reference_layers.cache_clear()
        monkeypatch.setattr(printer_sim, "fold", counting_fold)
        demo = run_demo_campaign(pipeline(seed=42), cube, corruption_count=8)
        printer_sim._reference_layers.cache_clear()
        assert demo.evidence.streaming_scrapped == 8
        assert calls.count(True) == 1
