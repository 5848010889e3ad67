"""Acceptance gate: one test per numbered criterion, at pinned tolerances.

Each test prints a `[PASS] criterion N` line with its runtime; run with
`pytest tests/test_acceptance.py -s` to see the lines.
"""

import itertools
import json
import math
import random
import struct
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from amstpa_lab import shapes
from amstpa_lab.faultlab import (
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
from amstpa_lab.gcode import ToolpathParams, emit_text, plan_toolpath, read_program
from amstpa_lab.integrity import SecdedBlock, crc32, secded_decode, secded_encode, wrap
from amstpa_lab.mesh_io import (
    Encoding,
    Facet,
    TriangleMesh,
    Vec3,
    emit_stl_binary,
    parse_stl,
    parse_stl_ascii,
    validate_mesh,
)
from amstpa_lab.netsim import ChannelParams, TransferMode, transfer
from amstpa_lab.printer_sim import (
    Job,
    JobStatus,
    PrinterConfig,
    PrintPolicy,
    geometry_diff,
    run_job,
)
from amstpa_lab.report import DEFECT_RATE_TABLE, FOLLOWUP_2016_AUTOMATION, build_report, render_json, render_markdown
from amstpa_lab.slicer import SliceParams, _shoelace, slice_mesh
from amstpa_lab.stpa_core import (
    MITIGATIONS,
    Component,
    ComponentKind,
    ControlStructure,
    Path as ModelPath,
    PathKind,
    Subsystem,
    builtin_am_reference_model,
    candidates_to_dict,
    enumerate_candidates,
)

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s (budget {budget_s}s)"
    print(f"[PASS] criterion {number} ({elapsed:.2f}s): {label}")


def _random_structure(rng: random.Random) -> ControlStructure:
    n_components = rng.randint(0, 10)
    components = tuple(
        Component(
            f"c{i}",
            f"component {i}",
            rng.choice(list(ComponentKind)),
            rng.choice(list(Subsystem)),
        )
        for i in range(n_components)
    )
    paths = []
    if n_components >= 2:
        for j in range(rng.randint(0, 12)):
            source, target = rng.sample(range(n_components), 2)
            paths.append(
                ModelPath(
                    f"p{j}", f"c{source}", f"c{target}",
                    rng.choice(list(PathKind)), f"flow {j}",
                )
            )
    return ControlStructure("generated", components, tuple(paths))


def test_criterion_1_stpa_count_law():
    with criterion(1, "STPA count law and bundled-model determinism", 5.0):
        rng = random.Random(0)
        for _ in range(200):
            cs = _random_structure(rng)
            candidates = enumerate_candidates(cs)
            assert len(candidates) == 4 * (len(cs.components) + len(cs.paths))

        cs = builtin_am_reference_model()
        first = json.dumps(candidates_to_dict(cs, enumerate_candidates(cs)), indent=2)
        second = json.dumps(
            candidates_to_dict(
                builtin_am_reference_model(),
                enumerate_candidates(builtin_am_reference_model()),
            ),
            indent=2,
        )
        assert first.encode() == second.encode()


def test_criterion_2_stl_fidelity():
    with criterion(2, "STL reference facet and binary round trips", 5.0):
        mesh = parse_stl_ascii((DATA / "cube_ascii_snippet.stl").read_bytes())
        first = mesh.facets[0]
        assert first.normal == Vec3(9.461808e-17, -0.0, 1.0)
        assert math.copysign(1.0, first.normal.y) == -1.0
        assert first.v0 == Vec3(1.443618, -5.518407, 1.280603)

        rng = random.Random(2024)

        def f32(value: float) -> float:
            return struct.unpack("<f", struct.pack("<f", value))[0]

        def random_vec() -> Vec3:
            return Vec3(*(f32(rng.uniform(-100.0, 100.0)) for _ in range(3)))

        for _ in range(100):
            facets = tuple(
                Facet(random_vec(), random_vec(), random_vec(), random_vec())
                for _ in range(rng.randint(0, 30))
            )
            blob = emit_stl_binary(TriangleMesh(facets, Encoding.BINARY))
            assert emit_stl_binary(parse_stl(blob)) == blob


def test_criterion_3_slicer_oracle():
    with criterion(3, "slicer analytic oracles", 1.0):
        layers = slice_mesh(shapes.box(), SliceParams(layer_height=0.25))
        assert len(layers) == 4
        for layer in layers:
            assert len(layer.contours) == 1
            assert layer.contours[0].closed
            assert _shoelace(layer.contours[0].vertices) == pytest.approx(1.0, abs=1e-9)

        tetra_layers = slice_mesh(shapes.corner_tetrahedron(), SliceParams(layer_height=0.5))
        assert tetra_layers[0].contours[0].closed
        area = _shoelace(tetra_layers[0].contours[0].vertices)
        legs = 1.0 - tetra_layers[0].z  # cross-section of x+y+z<=1 at z
        assert area == pytest.approx(legs * legs / 2.0, abs=1e-9)
        assert area == pytest.approx(0.28125, abs=1e-9)


def _crc32_bitserial(data: bytes) -> int:
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


def test_criterion_4_crc_and_secded():
    with criterion(4, "CRC-32 check value and SECDED sweeps", 10.0):
        assert _crc32_bitserial(b"123456789") == 0xCBF43926
        assert crc32(b"123456789") == 0xCBF43926

        block = secded_encode(0xDEADBEEF00000001)

        def flipped(bits):
            data, check = block.data, block.check
            for bit in bits:
                if bit < 64:
                    data ^= 1 << bit
                else:
                    check ^= 1 << (bit - 64)
            return SecdedBlock(data, check)

        for bit in range(72):
            result = secded_decode(flipped([bit]))
            assert result.corrected == 1 and result.data == block.data

        double_count = 0
        for pair in itertools.combinations(range(72), 2):
            assert secded_decode(flipped(pair)).double_error
            double_count += 1
        assert double_count == 2556


def test_criterion_5_channel_statistics():
    with criterion(5, "channel loss statistics and reliable integrity", 10.0):
        payload = bytes(100 * 64)  # 100 packets of 64 bytes
        total_lost = 0
        for seed in range(100):
            ch = ChannelParams(loss_prob=0.1, seed=seed)
            result = transfer(payload, ch, TransferMode.BEST_EFFORT, 64)
            assert result.packets_sent == 100
            total_lost += result.packets_lost
        bound = 3.0 * math.sqrt(10_000 * 0.1 * 0.9)
        assert abs(total_lost - 1000) <= bound, f"lost {total_lost}, bound ±{bound:.0f}"

        for seed in range(100):
            ch = ChannelParams(loss_prob=0.1, seed=seed)
            result = transfer(payload, ch, TransferMode.RELIABLE_ORDERED, 64)
            assert result.intact
            assert result.delivered == payload


def _campaign_config(seed=424242):
    return PipelineConfig(
        slice=SliceParams(layer_height=0.25),
        toolpath=ToolpathParams(),
        channel=ChannelParams(latency_ms=1.0, bandwidth_bytes_per_s=125_000.0),
        printer=PrinterConfig(
            buffer_capacity=1 << 20,
            policy=PrintPolicy.FULL_IMAGE,
            nominal_layer_time_ms=1000.0,
        ),
        mode=TransferMode.RELIABLE_ORDERED,
        seed=seed,
    )


@pytest.fixture(scope="module")
def demo_result():
    cfg = _campaign_config()
    return run_demo_campaign(cfg, bit_flip_specs(200, FaultStage.IN_TRANSIT, cfg.seed), shapes.box())


def test_criterion_6_buffering_contrast(demo_result):
    with criterion(6, "full-image rejects early, streaming scraps late", 30.0):
        evidence = demo_result.evidence
        assert evidence.fullimage_trials == 200
        assert evidence.fullimage_scrapped == 0
        assert evidence.fullimage_corrupt_printed_layers == 0
        assert evidence.streaming_scrapped_with_layers >= 1

        cfg = _campaign_config()
        specs = bit_flip_specs(200, FaultStage.IN_TRANSIT, cfg.seed)
        replay = run_demo_campaign(cfg, specs, shapes.box())
        assert replay == demo_result


def test_criterion_7_integrity_envelope_necessity(demo_result):
    with criterion(7, "envelope catches all, raw pipeline detects late", 30.0):
        assert demo_result.campaign.histogram == {DetectionStage.INTEGRITY_VERIFY: 200}
        assert demo_result.evidence.envelope_undetected == 0
        assert demo_result.evidence.raw_late_detections >= 1


def test_criterion_8_semantic_fault_visibility():
    with criterion(8, "coordinate-scale sabotage visible only to geometry diff", 10.0):
        cfg = _campaign_config()
        spec = FaultSpec(FaultKind.SCALE_COORDS, FaultStage.AFTER_CAD, factor=1.001)
        result = run_campaign(cfg, [spec], shapes.box())
        assert result.histogram == {DetectionStage.GEOMETRY_DIFF: 1}

        # independent replay of the trial to measure the extrusion error
        pristine = shapes.box()
        intended = slice_mesh(pristine, cfg.slice)
        scaled_stl = emit_stl_binary(inject(pristine, spec))
        mesh = parse_stl(scaled_stl)  # parses fine
        assert validate_mesh(mesh).is_clean()  # passes mesh validation
        layers = slice_mesh(mesh, cfg.slice)
        program = plan_toolpath(layers, cfg.toolpath)
        text = emit_text(program)
        wrapped = wrap(text, len(program.commands))
        job = Job(layers, text, wrapped, read_program(program, text))
        outcome, trace = run_job(
            job, cfg.printer, cfg.channel, cfg.mode, packet_size=cfg.packet_size
        )
        assert outcome.status is JobStatus.COMPLETED  # integrity passes
        diff = geometry_diff(intended, trace)
        assert abs(diff.max_extrusion_error_mm - 0.004) <= 0.1 * 0.004


def test_criterion_9_report_pinning():
    with criterion(9, "defect-rate and catalog pins, golden renderings", 10.0):
        automation = DEFECT_RATE_TABLE[0]
        assert automation.domain == "Automation"
        assert automation.projects == 55
        assert (automation.error_low, automation.error_high) == (2, 8)
        assert automation.normative == 5
        assert FOLLOWUP_2016_AUTOMATION == 2
        assert len(DEFECT_RATE_TABLE) == 16

        assert len(MITIGATIONS) == 25
        assert [m.id for m in MITIGATIONS] == list(range(1, 26))
        assert MITIGATIONS[0].text.startswith("Assuring the network protocol used for AM")
        assert "high Quality of Service" in MITIGATIONS[2].text
        assert "integrity check (EDC/ECC codes, word count)" in MITIGATIONS[4].text
        assert {m.id for m in MITIGATIONS if m.executable} == {1, 2, 3, 4, 5}

        doc = build_report()
        assert render_markdown(doc).encode() == (GOLDEN / "empty_report.md").read_bytes()
        assert render_json(doc).encode() == (GOLDEN / "empty_report.json").read_bytes()
