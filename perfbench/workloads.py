"""Inputs, operations and output checks for the benchmark workloads.

Every input is drawn from the workload seed and written under WORK; the
program under test only ever sees these files and the argv that names them.
An operation is one `amstpa` command line run through `cli.main`.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("job_dense", "campaigns")

WORK = Path(".perfbench_work")  # relative to the checkout root, the working directory
INPUTS = WORK / "in"
OUTPUTS = WORK / "out"

# 16 MiB: far above the largest payload any draw makes (ngon160 at 0.1 mm is
# about 0.72 MB), so no job is rejected as buffer_too_small.
BUFFER = 1 << 24
HEADER_SIZE = 25  # AMI1 envelope header, fixed by the wire format

# job_dense: five classes of (sides, layer height) cells. The cells of one
# class took the same wall time within about 5 % at the seed commit (0.6,
# 1.0, 1.35, 1.95 and 2.55 s on a 2-vCPU VM). Every round draws one cell from
# each class, so the work of a run does not swing with the seed.
JOB_CLASSES = (
    ((96, 0.2), (104, 0.2), (112, 0.2)),
    ((104, 0.125), (112, 0.15), (128, 0.2)),
    ((120, 0.125), (128, 0.15), (152, 0.2)),
    ((128, 0.1), (144, 0.125), (152, 0.15), (160, 0.15)),
    ((136, 0.1), (144, 0.1), (152, 0.1), (160, 0.125)),
)
PRISM_HEIGHT = 10.0
PRISM_RADIUS = 10.0
ENCODINGS = ("ascii", "binary")
POLICIES = ("fullimage", "streaming")
JOB_CHANNEL = "loss=0.05,latency=1,jitter=0.5,bw=125000,seed=7"

DEMO_SIDES = 64
DEMO_LAYER_HEIGHT = 0.25
DEMO_FLIPS = 30

SPHERE_LEVEL = 4  # octahedron subdivided four times: 8 * 4**4 = 2048 facets
SPHERE_RADIUS = 10.0
CAD_LAYER_HEIGHT = 1.0
CAD_FAULT_KINDS = ("bit_flip", "byte_set", "truncate", "scale_coords", "flip_normals")
# where the byte-level faults land, one entry per fault of each kind
CAD_BYTE_REGIONS = ("header", "header", "count", "normal", "normal", "vertex", "vertex", "attribute")

# Rounds planned in set-up; a run that finishes them all starts over at the
# first, so set-up cost does not grow with the speed of the program.
PLANNED_ROUNDS = 8
# Distinct campaign configs per run; later rounds repeat them, which also
# checks that a replay is byte-identical.
CAMPAIGN_VARIANTS = 3

STAGES = (
    "parse_error",
    "mesh_validation",
    "integrity_verify",
    "printer_outcome",
    "geometry_diff",
    "undetected",
)
EARLY_STAGES = ("parse_error", "mesh_validation")


@dataclass
class Op:
    """One CLI invocation plus what its output must satisfy."""

    kind: str  # simulate | campaign | stpa | report
    key: str  # names the artifact; pins are looked up by it
    argv: list[str]
    out: Path
    check: Callable[[bytes], str | None]
    trials: int = 0  # planted faults the op classifies


@dataclass
class Plan:
    rounds: list[list[Op]]
    inputs: dict[str, bytes] = field(default_factory=dict)  # path -> bytes, for the self-test


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def campaign_histogram(doc: dict) -> dict[str, int]:
    return (doc["campaign"] if "campaign" in doc else doc)["histogram"]


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------


def geodesic_sphere(lab, level: int, radius: float):
    """Octahedron subdivided `level` times, vertices pushed onto the sphere.

    Shared edges compute their midpoint from the same two floats, so
    neighbouring facets get bit-identical vertices and the mesh is
    watertight.
    """
    Vec3, Facet = lab.mesh_io.Vec3, lab.mesh_io.Facet
    tris = [(f.v0, f.v1, f.v2) for f in lab.shapes.octahedron(radius).facets]

    def mid(a, b):
        x, y, z = (a.x + b.x) / 2, (a.y + b.y) / 2, (a.z + b.z) / 2
        s = radius / math.sqrt(x * x + y * y + z * z)
        return Vec3(x * s, y * s, z * s)

    for _ in range(level):
        finer = []
        for a, b, c in tris:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            finer += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        tris = finer
    facets = []
    for a, b, c in tris:
        n = (b - a).cross(c - a)
        norm = n.norm()
        facets.append(Facet(Vec3(n.x / norm, n.y / norm, n.z / norm), a, b, c))
    return lab.mesh_io.TriangleMesh(tuple(facets), lab.mesh_io.Encoding.BINARY)


def _write(plan: Plan, path: Path, data: bytes) -> str:
    path.write_bytes(data)
    plan.inputs[str(path)] = data
    return str(path)


def _prism_file(lab, plan: Plan, sides: int, encoding: str) -> str:
    path = INPUTS / f"ngon{sides}-{encoding}.stl"
    if str(path) not in plan.inputs:
        mesh = lab.shapes.ngon_prism(sides, PRISM_RADIUS, PRISM_HEIGHT)
        emit = lab.mesh_io.emit_stl_ascii if encoding == "ascii" else lab.mesh_io.emit_stl_binary
        _write(plan, path, emit(mesh))
    return str(path)


# ---------------------------------------------------------------------------
# output checks: each returns an error message, or None when the output holds
# ---------------------------------------------------------------------------


def _load(data: bytes) -> dict:
    return json.loads(data.decode("utf-8"))


def _check_job(layer_height: float, height: float) -> Callable[[bytes], str | None]:
    expected_layers = math.ceil(height / layer_height)

    def check(data: bytes) -> str | None:
        doc = _load(data)
        outcome = doc["outcome"]
        if outcome["status"] != "completed":
            return f"job did not complete: {outcome}"
        if doc["layers"] != expected_layers:
            return f"{doc['layers']} layers, expected {expected_layers}"
        if outcome["layers_printed"] != expected_layers:
            return f"{outcome['layers_printed']} layers printed, expected {expected_layers}"
        if doc["geometry_diff"]["layers_missing"] != 0:
            return f"geometry diff reports missing layers: {doc['geometry_diff']}"
        if not HEADER_SIZE < doc["payload_bytes"] <= BUFFER:
            return f"payload of {doc['payload_bytes']} bytes does not fit the buffer"
        return None

    return check


def _check_campaign(trials: int, demo: bool) -> Callable[[bytes], str | None]:
    def check(data: bytes) -> str | None:
        doc = _load(data)
        campaign = doc["campaign"] if demo else doc
        hist = campaign["histogram"]
        if campaign["trials"] != trials:
            return f"{campaign['trials']} trials, expected {trials}"
        if sum(hist.values()) != trials:
            return f"histogram sums to {sum(hist.values())}, expected {trials}"
        if set(hist) - set(STAGES):
            return f"unknown detection stages {sorted(set(hist) - set(STAGES))}"
        if demo:
            ev = doc["evidence"]
            if ev["reliable_intact_under_loss"] is not True:
                return "reliable transfer was not intact under loss"
            if not ev["fullimage_trials"] == ev["raw_trials"] == trials:
                return f"evidence counts {ev['fullimage_trials']}/{ev['raw_trials']} != {trials}"
        return None

    return check


def _check_hazards(data: bytes) -> str | None:
    doc = _load(data)
    if not doc["candidates"] or doc["candidate_count"] != len(doc["candidates"]):
        return f"candidate_count {doc['candidate_count']} != {len(doc['candidates'])}"
    return None


def _check_report(trials: int) -> Callable[[bytes], str | None]:
    def check(data: bytes) -> str | None:
        text = data.decode("utf-8")
        for needle in ("# AM toolchain assurance report", f"Trials: {trials}", "Model `"):
            if needle not in text:
                return f"report lacks {needle!r}"
        return None

    return check


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def job_op(lab, plan: Plan, sides: int, layer_height: float, encoding: str, policy: str) -> Op:
    key = f"job/ngon{sides}-h{layer_height}-{encoding}-{policy}"
    out = OUTPUTS / f"{key.replace('/', '-')}.json"
    argv = [
        "simulate", "--mesh", _prism_file(lab, plan, sides, encoding),
        "--layer-height", repr(layer_height),
        "--channel", JOB_CHANNEL, "--mode", "reliable", "--policy", policy,
        "--buffer", str(BUFFER), "--out", str(out),
    ]
    return Op("simulate", key, argv, out, _check_job(layer_height, PRISM_HEIGHT))


def _plan_job_dense(lab, plan: Plan, rng: random.Random) -> None:
    for _ in range(PLANNED_ROUNDS):
        ops = []
        for c in rng.sample(range(len(JOB_CLASSES)), len(JOB_CLASSES)):
            sides, h = rng.choice(JOB_CLASSES[c])
            # the policy alternates along the size ladder and is fixed per
            # class, so no class mixes two costs into the median
            ops.append(job_op(lab, plan, sides, h, rng.choice(ENCODINGS), POLICIES[c % 2]))
        plan.rounds.append(ops)


def _config_file(plan: Plan, name: str, doc: dict) -> str:
    return _write(plan, INPUTS / name, (json.dumps(doc, indent=2) + "\n").encode("utf-8"))


def _base_config(seed: int, mesh_path: str, layer_height: float, channel_seed: int) -> dict:
    return {
        "seed": seed,
        "mesh": {"path": mesh_path},
        "slice": {"layer_height": layer_height},
        "toolpath": {"feed_rate": 1800, "travel_rate": 3000, "extrusion_per_mm": 0.05},
        "channel": {"latency_ms": 1.0, "bandwidth_bytes_per_s": 125000, "loss_prob": 0.0,
                    "seed": channel_seed},
        "printer": {"buffer_capacity": BUFFER, "policy": "fullimage",
                    "technology": "material_extrusion"},
        "mode": "reliable",
        "packet_size": 256,
        "envelope": True,
    }


def preflight_op(key: str, mesh_path: str, layer_height: float, height: float,
                 channel_seed: int) -> Op:
    """Simulate the demo campaign's own pristine job before planting faults."""
    out = OUTPUTS / f"{key.replace('/', '-')}.json"
    argv = [
        "simulate", "--mesh", mesh_path, "--layer-height", repr(layer_height),
        "--channel", f"latency=1,bw=125000,seed={channel_seed}", "--mode", "reliable",
        "--policy", "fullimage", "--buffer", str(BUFFER), "--out", str(out),
    ]
    return Op("simulate", key, argv, out, _check_job(layer_height, height))


def _stl_byte(rng: random.Random, region: str, facets: int) -> int:
    """A seeded byte offset inside one region of a binary STL file."""
    record = 84 + 50 * rng.randrange(facets)
    if region == "header":
        return rng.randrange(80)
    if region == "count":
        return 80 + rng.randrange(4)
    if region == "normal":  # least significant byte of one component
        return record + 4 * rng.randrange(3)
    if region == "vertex":
        return record + 12 + rng.randrange(36)
    return record + 48 + rng.randrange(2)  # attribute word


def cad_faults(rng: random.Random, facets: int) -> list[dict]:
    """After-CAD faults: eight of each kind, in seeded order.

    Byte-level faults hit each region of the file a fixed number of times,
    so every seed draws the same mix of early exits (count, vertex) and
    faults that reach the slicer (header, attribute, low normal bits), and
    the work per trial does not swing with the seed.
    """
    faults = []
    for kind in CAD_FAULT_KINDS:
        for region in CAD_BYTE_REGIONS:
            spec = {"kind": kind, "stage": "after_cad", "seed": rng.randrange(1 << 62)}
            offset = _stl_byte(rng, region, facets)
            if kind == "bit_flip":
                spec["offset"] = 8 * offset + rng.randrange(8)
            elif kind == "byte_set":
                spec["offset"] = offset  # value derived from the seed, never the old byte
            elif kind == "scale_coords":
                spec["factor"] = round(rng.uniform(1.01, 1.1), 6)
            faults.append(spec)
    rng.shuffle(faults)
    return faults


def _plan_campaigns(lab, plan: Plan, rng: random.Random, seed: int) -> None:
    prism = lab.shapes.ngon_prism(DEMO_SIDES, PRISM_RADIUS, PRISM_HEIGHT)
    prism_path = _write(plan, INPUTS / f"ngon{DEMO_SIDES}-binary.stl",
                        lab.mesh_io.emit_stl_binary(prism))
    sphere = geodesic_sphere(lab, SPHERE_LEVEL, SPHERE_RADIUS)
    sphere_path = _write(plan, INPUTS / "sphere.stl", lab.mesh_io.emit_stl_binary(sphere))
    hazards = OUTPUTS / "hazards.json"
    stpa = Op("stpa", "stpa/builtin-am", ["stpa", "--builtin-am", "--out", str(hazards)],
              hazards, _check_hazards)
    variants = []
    for v in range(CAMPAIGN_VARIANTS):
        tag = f"campaigns/s{seed}v{v}"
        channel_seed = rng.randrange(1 << 31)
        demo = _base_config(rng.randrange(1 << 31), prism_path, DEMO_LAYER_HEIGHT, channel_seed)
        demo.update(ecc=False, demo=True,
                    generate={"kind": "bit_flip", "count": DEMO_FLIPS, "stage": "in_transit"})
        cad = _base_config(rng.randrange(1 << 31), sphere_path, CAD_LAYER_HEIGHT, channel_seed)
        faults = cad_faults(rng, len(sphere.facets))
        cad.update(ecc=True, faults=faults)
        demo_config = _config_file(plan, f"demo-v{v}.json", demo)
        cad_config = _config_file(plan, f"cad-v{v}.json", cad)
        demo_result = OUTPUTS / f"demo-v{v}.json"
        cad_result = OUTPUTS / f"cad-v{v}.json"
        report = OUTPUTS / f"demo-v{v}-report.md"
        variants.append([
            preflight_op(f"{tag}/preflight", prism_path, DEMO_LAYER_HEIGHT, PRISM_HEIGHT,
                         channel_seed),
            Op("campaign", f"{tag}/demo",
               ["campaign", "--config", demo_config, "--out", str(demo_result)],
               demo_result, _check_campaign(DEMO_FLIPS, demo=True), trials=3 * DEMO_FLIPS),
            stpa,
            Op("report", f"{tag}/report",
               ["report", "--inputs", str(hazards), str(demo_result), "--out", str(report)],
               report, _check_report(DEMO_FLIPS)),
            Op("campaign", f"{tag}/cad",
               ["campaign", "--config", cad_config, "--out", str(cad_result)],
               cad_result, _check_campaign(len(faults), demo=False), trials=len(faults)),
        ])
    plan.rounds = [variants[r % CAMPAIGN_VARIANTS] for r in range(PLANNED_ROUNDS)]


def plan_workload(lab, workload: str, seed: int) -> Plan:
    """Generate the workload's input files and the rounds of operations."""
    INPUTS.mkdir(parents=True, exist_ok=True)
    OUTPUTS.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    plan = Plan(rounds=[])
    if workload == "job_dense":
        _plan_job_dense(lab, plan, rng)
    elif workload == "campaigns":
        _plan_campaigns(lab, plan, rng, seed)
    else:
        raise ValueError(f"unknown workload {workload!r} (use {', '.join(WORKLOADS)})")
    return plan
