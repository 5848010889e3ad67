"""Seeded fault injection across the CAD -> slice -> transmit -> print pipeline.

Each campaign trial runs the full pipeline with one fault applied at its
stage and records the first stage that detects the damage.  Detection
stages partition trials: a fault corrected by ECC still counts as caught by
the integrity check, and a trial that completes with geometry matching the
intent counts as Undetected (whether the fault was harmless or missed).

`build_job` is the one rule that turns a mesh into the job sent (slice,
plan, emit, read, then wrap unless the envelope is off, declaring the
reading's command count); `simulate`, the pristine job and every after-CAD
trial go through it.  A trial hands the printer the job whose reading its
damage is blamed on: an after-slice trial's is its own faulted text, read
from the pristine reading.  Every campaign runs through one trial loop,
`_trials`, over a pristine job prepared once, and `_tally` folds its trials
into a CampaignResult.  The demonstration campaign prepares one pristine job
for the flips `generate` wrote and hands the loop three passes over it:
full-image and streaming policies, then raw text without the envelope.
A fault spec is checked whole when it is built: its kind against its stage,
and every parameter that needs no target.  An explicit offset or length is checked
against its pristine target once the pristine job exists, before any trial
runs.  A trial whose fault leaves nothing to send is still classified: the
printer never receives a job.  So is an after-CAD fault that leaves a mesh
the slicer refuses (more than `slicer.MAX_LAYERS` layers): like one scaled
past the float range of binary STL, it lands in mesh validation.

After-CAD byte faults are judged against the parsed pristine STL, not the
base mesh (binary STL rounds to float32): a fault that keeps the file's
length and count word is read and validated only in the records it changes,
and one that moves no vertex sends the parsed pristine's job, built once per
configuration.  Every other after-CAD byte fault changes the binary STL's
length or count word, which parse_stl refuses.  A mesh fault is read back
as its binary STL would parse, without writing the file, and the
parameter-free flip_normals once per intake.

Trials are independent: each one's channel seed derives from the campaign
seed and its index.  The loop runs them in this process until they have
taken about as long as a pool of workers costs to start, then hands the rest
to one pool of forked workers, one per usable CPU (at most 8), which inherit
the prepared pristine job.  Only a trial's index and its (stage, outcome)
cross between processes, and results come back in trial order, so a
campaign's output is the same bytes either way.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from array import array
from enum import Enum
from itertools import chain
from time import perf_counter
from typing import NamedTuple

from .gcode import Reading, ToolpathParams, emit_text, plan_toolpath, read_program, resume
from .integrity import wrap
from .jsondoc import NUMBER, checked, fields, read_doc, read_value
from .mesh_io import (
    Encoding,
    MeshTally,
    TriangleMesh,
    binary_delta,
    emit_stl_binary,
    facets_of,
    parse_stl,
    validate_mesh,
)
from .netsim import ChannelParams, TransferMode, check_packet_size, splitmix64_at, transfer
from .printer_sim import (
    FailReason,
    Job,
    JobStatus,
    PrinterConfig,
    PrintPolicy,
    geometry_diff,
    run_job,
)
from .slicer import SliceParams, slice_mesh


class FaultKind(Enum):
    BIT_FLIP = "bit_flip"
    BYTE_SET = "byte_set"
    TRUNCATE = "truncate"
    SCALE_COORDS = "scale_coords"
    FLIP_NORMALS = "flip_normals"
    DROP_PACKETS = "drop_packets"


class FaultStage(Enum):
    AFTER_CAD = "after_cad"
    AFTER_SLICE = "after_slice"
    IN_TRANSIT = "in_transit"


_BYTE_KINDS = frozenset({FaultKind.BIT_FLIP, FaultKind.BYTE_SET, FaultKind.TRUNCATE})
_MESH_KINDS = frozenset({FaultKind.SCALE_COORDS, FaultKind.FLIP_NORMALS})
# what inject() is handed at each stage: the mesh or its STL bytes, the G-code
# text, the sent bytes; drop_packets acts on the channel instead
_STAGE_KINDS = {
    FaultStage.AFTER_CAD: _MESH_KINDS | _BYTE_KINDS,
    FaultStage.AFTER_SLICE: _BYTE_KINDS,
    FaultStage.IN_TRANSIT: _BYTE_KINDS | {FaultKind.DROP_PACKETS},
}


@checked
class FaultSpec(NamedTuple):
    kind: FaultKind
    stage: FaultStage
    offset: int | None = None    # bit index for BIT_FLIP, byte index for BYTE_SET
    value: int | None = None     # byte value for BYTE_SET
    new_len: int | None = None   # for TRUNCATE
    factor: int | float | None = None     # for SCALE_COORDS; both kept as read,
    loss_prob: int | float | None = None  # for DROP_PACKETS; so to_dict echoes an int
    seed: int = 0                # drives any field left unspecified

    def _check(self) -> None:
        if self.kind not in _STAGE_KINDS[self.stage]:
            raise ValueError(f"{self.kind.value} cannot be planted {self.stage.value}")
        if self.kind is FaultKind.SCALE_COORDS and not (
            isinstance(self.factor, NUMBER) and 0.0 < self.factor <= sys.float_info.max
        ):
            raise ValueError("scale_coords requires a finite factor > 0")
        if self.kind is FaultKind.DROP_PACKETS and not (
            isinstance(self.loss_prob, NUMBER) and 0.0 <= self.loss_prob <= 1.0
        ):
            raise ValueError("drop_packets requires loss_prob within [0, 1]")
        if self.value is not None and not (isinstance(self.value, int) and 0 <= self.value <= 255):
            raise ValueError("byte value must be an int within 0..255")
        for name in ("offset", "new_len"):
            v = getattr(self, name)
            if v is not None and not (isinstance(v, int) and v >= 0):
                raise ValueError(f"{name} must be a non-negative int")

    def to_dict(self) -> dict:
        doc: dict = {"kind": self.kind.value, "stage": self.stage.value, "seed": self.seed}
        for name in ("offset", "value", "new_len", "factor", "loss_prob"):
            v = getattr(self, name)
            if v is not None:
                doc[name] = v
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultSpec":
        return cls(**read_doc(doc, FAULT_FIELDS))


FAULT_FIELDS = fields(FaultSpec)


@checked
class PipelineConfig(NamedTuple):
    slice: SliceParams
    toolpath: ToolpathParams
    channel: ChannelParams
    printer: PrinterConfig
    mode: TransferMode = TransferMode.RELIABLE_ORDERED
    packet_size: int = 256
    envelope: bool = True
    ecc: bool = False
    geometry_tol_mm: float = 1e-6
    seed: int = 0

    def _check(self) -> None:
        if self.ecc and not self.envelope:
            raise ValueError("'ecc' adds check bytes to the envelope: it needs 'envelope': true")
        check_packet_size(self.packet_size)
        if not (0 <= self.geometry_tol_mm < math.inf):
            raise ValueError("geometry_tol_mm must be finite and >= 0")


# every key of a campaign config; the pipeline keys are PipelineConfig's fields,
# and its blocks those of SliceParams, ToolpathParams, ChannelParams and
# PrinterConfig, with a campaign's own defaults where given here.  The channel
# leaves out `seed`: each trial's channel seed derives from the campaign's
# `seed`.  A null printer.nominal_layer_time_ms takes the technology's own.
CAMPAIGN_KEYS = {
    **fields(PipelineConfig),
    "slice": (fields(SliceParams, layer_height=0.25), {}),
    "toolpath": (fields(ToolpathParams), {}),
    "channel": ({key: entry for key, entry in fields(ChannelParams, latency_ms=1.0,
                 bandwidth_bytes_per_s=125000.0).items() if key != "seed"}, {}),
    "printer": (fields(PrinterConfig, buffer_capacity=1 << 20, policy=PrintPolicy.FULL_IMAGE), {}),
    "mesh": ({"builtin": (str, None), "path": (str, None)}, {"builtin": "cube"}),
    "demo": (bool, False),
    "faults": ([FAULT_FIELDS], None),
    # a null count is 100, or 200 with demo
    "generate": ({"kind": (FaultKind, "bit_flip"), "stage": (FaultStage, "in_transit"),
                  "count": (int, None)}, {}),
}

# `simulate` reads its flags by the campaign table, but its channel is every
# field of ChannelParams with the record's own defaults (0 ms latency at
# 1,000,000 B/s), seed included
SIMULATE_KEYS = {**CAMPAIGN_KEYS, "channel": (fields(ChannelParams), {})}


def inject(target: bytes | TriangleMesh, spec: FaultSpec):
    """Apply exactly the specified mutation; deterministic given the spec.

    A mesh fault is `_mesh_fault` on the mesh's flat coordinates.
    Unspecified offsets/values/lengths are derived from spec.seed, clamped
    to the target's size at application time.  A derived BYTE_SET value
    that matches the existing byte is complemented so the write corrupts.
    """
    if spec.kind in _MESH_KINDS:
        if not isinstance(target, TriangleMesh):
            raise TypeError(f"{spec.kind.value} applies to a mesh, not bytes")
        return TriangleMesh(facets_of(_mesh_fault(_coords(target), spec)), target.source_encoding)

    if spec.kind is FaultKind.DROP_PACKETS:
        raise ValueError("drop_packets is applied through the channel parameters, not inject()")
    if not isinstance(target, (bytes, bytearray)):
        raise TypeError(f"{spec.kind.value} applies to bytes, not {type(target).__name__}")
    data = bytearray(target)
    if not data:
        raise ValueError("cannot inject into an empty byte string")

    _check_target_size(spec, len(data))

    if spec.kind is FaultKind.BIT_FLIP:
        limit = len(data) * 8
        offset = spec.offset if spec.offset is not None else splitmix64_at(spec.seed, 0) % limit
        data[offset // 8] ^= 1 << (offset % 8)
        return bytes(data)

    if spec.kind is FaultKind.BYTE_SET:
        offset = spec.offset if spec.offset is not None else splitmix64_at(spec.seed, 0) % len(data)
        if spec.value is not None:
            value = spec.value
        else:
            value = splitmix64_at(spec.seed, 1) % 256
            if value == data[offset]:
                value ^= 0xFF
        data[offset] = value
        return bytes(data)

    # TRUNCATE
    new_len = spec.new_len if spec.new_len is not None else splitmix64_at(spec.seed, 0) % len(data)
    return bytes(data[:new_len])


def _mesh_fault(coords, spec: FaultSpec) -> list[float]:
    """`spec`'s mesh fault on flat coordinates, 12 per facet (the normal,
    then three vertices): flip_normals negates positions 0-2, scale_coords
    multiplies positions 3-11 by its factor."""
    out = list(coords)
    if spec.kind is FaultKind.FLIP_NORMALS:
        for k in range(3):
            out[k::12] = [-x for x in out[k::12]]
    else:
        factor = spec.factor
        for k in range(3, 12):
            out[k::12] = [x * factor for x in out[k::12]]
    return out


def _coords(mesh: TriangleMesh) -> array:
    """Every coordinate of `mesh` as a double, 12 per facet in facet order."""
    return array("d", chain.from_iterable(chain.from_iterable(mesh.facets)))


def _check_target_size(spec: FaultSpec, size: int) -> None:
    """Raise ValueError if the spec's explicit offset or length lies past `size` bytes.

    Seed-derived offsets and lengths are always in range.
    """
    if spec.kind is FaultKind.BIT_FLIP and spec.offset is not None and spec.offset >= size * 8:
        raise ValueError(f"bit offset {spec.offset} out of range for {size} bytes")
    if spec.kind is FaultKind.BYTE_SET and spec.offset is not None and spec.offset >= size:
        raise ValueError(f"byte offset {spec.offset} out of range for {size} bytes")
    if spec.kind is FaultKind.TRUNCATE and spec.new_len is not None and spec.new_len > size:
        raise ValueError(f"new length {spec.new_len} out of range for {size} bytes")


class DetectionStage(Enum):
    PARSE_ERROR = "parse_error"
    MESH_VALIDATION = "mesh_validation"
    INTEGRITY_VERIFY = "integrity_verify"
    PRINTER_OUTCOME = "printer_outcome"
    GEOMETRY_DIFF = "geometry_diff"
    UNDETECTED = "undetected"


class CampaignResult(NamedTuple):
    trials: int
    histogram: dict[DetectionStage, int]
    undetected_trials: tuple[FaultSpec, ...]

    def count(self, stage: DetectionStage) -> int:
        return self.histogram.get(stage, 0)

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "histogram": {stage.value: n for stage, n in self.histogram.items()},
            "undetected_trials": [spec.to_dict() for spec in self.undetected_trials],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CampaignResult":
        """Read a campaign artifact; ValueError unless a campaign could have written it."""
        result = cls(
            trials=read_value(doc["trials"], int, "trials"),
            histogram={
                DetectionStage(k): read_value(n, int, f"histogram.{k}")
                for k, n in doc["histogram"].items()
            },
            undetected_trials=tuple(FaultSpec.from_dict(d) for d in doc["undetected_trials"]),
        )
        counts = result.histogram.values()
        if min((result.trials, *counts)) < 0 or sum(counts) != result.trials:
            raise ValueError("the histogram's counts must be >= 0 and sum to trials")
        if len(result.undetected_trials) != result.count(DetectionStage.UNDETECTED):
            raise ValueError("undetected_trials must hold one spec per undetected trial")
        return result


def pipeline_config(c: dict) -> PipelineConfig:
    """The PipelineConfig of `c`, a config read by CAMPAIGN_KEYS or SIMULATE_KEYS."""
    return PipelineConfig(
        slice=SliceParams(**c["slice"]),
        toolpath=ToolpathParams(**c["toolpath"]),
        channel=ChannelParams(**c["channel"]),
        printer=PrinterConfig(**c["printer"]),
        **{name: c[name] for name in PipelineConfig._fields[4:]},
    )


def build_job(cfg: PipelineConfig, mesh: TriangleMesh) -> Job:
    """Slice, plan and emit `mesh`, then wrap the text as `cfg` sends it."""
    layers = slice_mesh(mesh, cfg.slice)
    program = plan_toolpath(layers, cfg.toolpath)
    text = emit_text(program)
    reading = read_program(program, text)
    return Job(layers, text, _wrap_stage(cfg, text, reading), reading)


def _wrap_stage(cfg: PipelineConfig, text: bytes, reading: Reading) -> bytes:
    if not cfg.envelope:
        return text
    return wrap(text, len(reading.commands), with_ecc=cfg.ecc)


def _float32_exact(coords: array) -> bool:
    """Whether every double in `coords` is a float32, bit for bit (-0.0 is
    not 0.0), so that a mesh of them reads back from its binary STL as itself.

    Binary STL stores float32, and both conversions round to nearest.
    """
    return array("d", array("f", coords)).tobytes() == coords.tobytes()


class _CadIntake:
    """What an after-CAD fault leaves, parsed and validated without reading
    it whole: the mesh, or the stage that stops it.

    Holds `mesh`, parse_stl(pristine STL), and its MeshTally.  A byte fault
    that keeps the STL's length and count word and reads as binary (see
    binary_delta) is judged from its changed facets; if it moves no vertex,
    the intake returns `mesh` itself (the slicer never reads normals).  When
    the base mesh is `mesh` bit for bit, as any mesh read from binary STL
    is, `mesh` is the base mesh and the trial sends its pristine job.  Every
    other byte fault changes the length or the count word of an STL that
    opens with BINARY_HEADER (no one byte makes it open with `solid`), so
    parse_stl would refuse it: it lands in parse_error.

    A mesh fault acts on the base mesh's coordinates and is read back as its
    binary STL would parse: rounded to float32, refused if any is not finite
    (emit_stl_binary would raise), then validated.  flip_normals has no
    parameters, so it is read once and its result kept.  The intake holds no
    config: each trial builds what it returns with its own.
    """

    def __init__(self, base_mesh: TriangleMesh, stl: bytes):
        self.stl = stl
        self.coords = _coords(base_mesh)
        self.mesh = base_mesh if _float32_exact(self.coords) else parse_stl(stl)
        self.tally = MeshTally(self.mesh)
        self._jobs: dict[PipelineConfig, Job | DetectionStage] = {}  # for `mesh`
        self._flipped: TriangleMesh | DetectionStage | None = None

    def __call__(self, spec: FaultSpec) -> TriangleMesh | DetectionStage:
        if spec.kind is FaultKind.FLIP_NORMALS:
            if self._flipped is None:
                self._flipped = self._read_back(spec)
            return self._flipped
        if spec.kind is FaultKind.SCALE_COORDS:
            return self._read_back(spec)
        stl = inject(self.stl, spec)
        delta = binary_delta(self.stl, stl)
        if delta is None:
            return DetectionStage.PARSE_ERROR
        replaced, moved = delta
        if not self.tally.is_clean_with(replaced):
            return DetectionStage.MESH_VALIDATION
        return parse_stl(stl) if moved else self.mesh

    def _read_back(self, spec: FaultSpec) -> TriangleMesh | DetectionStage:
        coords = array("f", _mesh_fault(self.coords, spec)).tolist()
        # float32 values cannot sum past a double: the sum is finite exactly
        # when every value is
        if not math.isfinite(sum(coords)):
            return DetectionStage.MESH_VALIDATION
        mesh = TriangleMesh(facets_of(coords), Encoding.BINARY)
        return mesh if validate_mesh(mesh).is_clean() else DetectionStage.MESH_VALIDATION

    def build(self, cfg: PipelineConfig, mesh: TriangleMesh) -> Job | DetectionStage:
        """`build_job(cfg, mesh)`, or the stage that refuses `mesh`; built
        once per config for `mesh` itself."""
        if mesh is self.mesh and cfg in self._jobs:
            return self._jobs[cfg]
        try:
            job = build_job(cfg, mesh)
        except ValueError:  # too many layers, or an extrusion total past a double
            job = DetectionStage.MESH_VALIDATION
        if mesh is self.mesh:
            self._jobs[cfg] = job
        return job


class _Pristine(NamedTuple):
    mesh: TriangleMesh
    stl: bytes
    job: Job
    cad: _CadIntake | None = None  # only for campaigns with after-CAD faults


class CampaignError(ValueError):
    """A campaign that cannot start; raised before any trial runs."""


def _prepare(cfg: PipelineConfig, base_mesh: TriangleMesh, specs: list[FaultSpec]) -> _Pristine:
    """The pristine STL and job, with every explicit target in `specs`
    checked against them, and the after-CAD intake if `specs` needs it."""
    try:
        stl = emit_stl_binary(base_mesh)
        job = build_job(cfg, base_mesh)
    except ValueError as exc:  # no binary STL form, too tall to slice, or E overflows
        raise CampaignError(f"cannot prepare the pristine job: {exc}") from None
    pristine = _Pristine(base_mesh, stl, job)
    _check_targets(specs, pristine)
    if any(s.stage is FaultStage.AFTER_CAD for s in specs):
        pristine = pristine._replace(cad=_CadIntake(base_mesh, stl))
    return pristine


def _check_targets(specs: list[FaultSpec], pristine: _Pristine) -> None:
    """Refuse a byte fault whose explicit offset or length lies past its pristine target."""
    sizes = {
        FaultStage.AFTER_CAD: len(pristine.stl),
        FaultStage.AFTER_SLICE: len(pristine.job.text),
        FaultStage.IN_TRANSIT: len(pristine.job.sent),
    }
    for i, spec in enumerate(specs):
        try:
            _check_target_size(spec, sizes[spec.stage])
        except ValueError as exc:
            raise CampaignError(f"fault {i}: {exc}") from None


def _run_trial(
    cfg: PipelineConfig,
    spec: FaultSpec,
    pristine: _Pristine,
    channel: ChannelParams,
):
    """One pipeline pass; returns (stage, outcome, trace)."""
    job, sent = pristine.job, None  # None: the job's own bytes are sent

    if spec.stage is FaultStage.AFTER_CAD:
        mesh = pristine.cad(spec)
        if isinstance(mesh, DetectionStage):
            return mesh, None, None
        if mesh is not pristine.mesh:  # else the pristine job is sent as is
            job = pristine.cad.build(cfg, mesh)
            if isinstance(job, DetectionStage):
                return job, None, None
    elif spec.stage is FaultStage.AFTER_SLICE:
        text = inject(job.text, spec)
        reading = resume(job.reading, job.text, text)
        job = job._replace(text=text, sent=_wrap_stage(cfg, text, reading), reading=reading)
    elif spec.kind is FaultKind.DROP_PACKETS:  # in transit, through the channel
        channel = channel._replace(loss_prob=spec.loss_prob)
    else:  # an in-transit byte fault, sent in place of the job's bytes
        sent = inject(job.sent, spec)
    sent = job.sent if sent is None else sent

    if not sent:  # truncated to nothing: no job reaches the printer
        if cfg.envelope:  # the printer finds no envelope header
            return DetectionStage.INTEGRITY_VERIFY, None, None
        return DetectionStage.PRINTER_OUTCOME, None, None  # an empty program
    outcome, trace = run_job(
        job,
        cfg.printer,
        channel,
        cfg.mode,
        packet_size=cfg.packet_size,
        enveloped=cfg.envelope,
        sent=sent,
    )
    if outcome.reason is FailReason.INTEGRITY_FAILURE or trace.integrity_corrected_bits > 0:
        return DetectionStage.INTEGRITY_VERIFY, outcome, trace
    if outcome.status is not JobStatus.COMPLETED:
        return DetectionStage.PRINTER_OUTCOME, outcome, trace
    gd = geometry_diff(pristine.job.layers, trace)
    if gd.layers_missing > 0 or gd.max_extrusion_error_mm > cfg.geometry_tol_mm:
        return DetectionStage.GEOMETRY_DIFF, outcome, trace
    return DetectionStage.UNDETECTED, outcome, trace


# Trials run in this process until they have taken this long, about what
# importing, starting and joining a pool of forked workers costs; the rest
# go to the pool.
_POOL_AFTER_S = 0.05
_MAX_WORKERS = 8


def _trial(run: tuple) -> tuple:
    """One trial of a pass: `run` is (cfg, pristine, index, spec); returns
    (spec, stage, outcome)."""
    cfg, pristine, i, spec = run
    channel = cfg.channel._replace(seed=splitmix64_at(cfg.seed, i))
    stage, outcome, _ = _run_trial(cfg, spec, pristine, channel)
    return spec, stage, outcome


def _trials(passes: list[tuple[PipelineConfig, _Pristine]], specs: list[FaultSpec]):
    """The one trial loop: yields (spec, stage, outcome) for every spec of
    every (cfg, pristine) pass, pass by pass, in spec order.

    Trial i of a pass takes its channel seed from (cfg.seed, i), so
    where and when it runs cannot change its result.  Trials run here until
    they have taken `_POOL_AFTER_S`; the rest then run in forked workers
    when `_pool_size` gives more than one, and come back in order.
    """
    runs = [(cfg, pristine, i, spec) for cfg, pristine in passes for i, spec in enumerate(specs)]
    start = perf_counter()
    k = 0
    while k < len(runs) and perf_counter() - start < _POOL_AFTER_S:
        yield _trial(runs[k])
        k += 1
    rest = runs[k:]
    workers = _pool_size(len(rest))
    yield from _pooled(rest, workers) if workers > 1 else map(_trial, rest)


def _pool_size(trials: int) -> int:
    """Workers for `trials` trials: one per usable CPU, at most 8 and at most
    one per trial; 0 where this process cannot fork safely (no fork, or
    another thread running, whose locks a child would inherit held)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 0
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS, trials)


def _pooled(runs: list[tuple], workers: int):
    """`map(_trial, runs)` over `workers` forked processes, in order.

    One trial goes to a task, since one trial can cost a hundred times
    another.  The workers inherit `runs` through fork, so a task sends one
    index and returns only the trial's (stage, outcome).  A trial that
    raises re-raises here, after the pool is shut down.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt, initargs=(runs,),
    )
    try:
        futures = [pool.submit(_run_adopted, k) for k in range(len(runs))]
        for run, future in zip(runs, futures):
            yield (run[3], *future.result())
    finally:
        pool.shutdown(cancel_futures=True)


_adopted: list[tuple] = []  # in a forked worker, the runs its tasks index


def _adopt(runs: list[tuple]) -> None:
    """Start a forked worker: keep `runs`, and exit when the campaign's
    process does.  A process killed before it can shut its pool down sends
    no more tasks, and its workers would wait for one forever."""
    global _adopted
    _adopted = runs
    threading.Thread(target=_exit_with_parent, daemon=True).start()


def _exit_with_parent() -> None:
    from multiprocessing import parent_process
    from multiprocessing.connection import wait

    wait([parent_process().sentinel])
    os._exit(1)


def _run_adopted(k: int) -> tuple:
    return _trial(_adopted[k])[1:]


def _tally(trials) -> CampaignResult:
    """Fold (spec, stage, outcome) trials into the histogram and undetected specs."""
    histogram: dict[DetectionStage, int] = {}
    undetected: list[FaultSpec] = []
    for spec, stage, _ in trials:
        histogram[stage] = histogram.get(stage, 0) + 1
        if stage is DetectionStage.UNDETECTED:
            undetected.append(spec)
    return CampaignResult(sum(histogram.values()), histogram, tuple(undetected))


def run_campaign(
    cfg: PipelineConfig,
    specs: list[FaultSpec],
    base_mesh: TriangleMesh,
) -> CampaignResult:
    """Run every fault spec through the pipeline and tally detection stages.

    Raises CampaignError, before any trial runs, if the pristine job cannot
    be built, a fault's explicit offset or length lies past its target, or
    an after-CAD fault is planted while the pristine STL, as parsed back,
    fails mesh validation: every such trial would land there.
    """
    pristine = _prepare(cfg, base_mesh, specs)
    if pristine.cad and not pristine.cad.tally.is_clean_with({}):
        raise CampaignError("after-CAD faults need a base mesh that passes mesh validation")
    return _tally(_trials([(cfg, pristine)], specs))


def bit_flip_specs(count: int, stage: FaultStage, seed: int) -> list[FaultSpec]:
    """Single-bit (single-byte) corruptions at seed-derived offsets."""
    return [
        FaultSpec(kind=FaultKind.BIT_FLIP, stage=stage, seed=splitmix64_at(seed, j))
        for j in range(count)
    ]


# ---------------------------------------------------------------------------
# Demonstration campaign: evidence for the executable mitigations 1..5
# ---------------------------------------------------------------------------


class MitigationEvidence(NamedTuple):
    reliable_loss_prob: float
    reliable_intact_under_loss: bool
    lossless_elapsed_ms: float
    lossy_elapsed_ms: float
    lossy_packets_lost: int
    fullimage_trials: int
    fullimage_rejected_integrity: int
    fullimage_scrapped: int
    fullimage_corrupt_printed_layers: int
    streaming_scrapped: int
    streaming_scrapped_with_layers: int
    envelope_undetected: int
    raw_trials: int
    raw_late_detections: int

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, doc: dict) -> "MitigationEvidence":
        return cls(**read_doc(doc, _EVIDENCE_FIELDS, "evidence."))


_EVIDENCE_FIELDS = fields(MitigationEvidence)


class DemoResult(NamedTuple):
    campaign: CampaignResult
    evidence: MitigationEvidence

    def to_dict(self) -> dict:
        return {"campaign": self.campaign.to_dict(), "evidence": self.evidence.to_dict()}


# the loss the reliable-transfer probe runs under (mitigations 1 and 3)
RELIABLE_LOSS_PROB = 0.1

_LATE_STAGES = frozenset(
    {DetectionStage.PRINTER_OUTCOME, DetectionStage.GEOMETRY_DIFF, DetectionStage.UNDETECTED}
)


def run_demo_campaign(
    cfg: PipelineConfig,
    specs: list[FaultSpec],
    base_mesh: TriangleMesh,
) -> DemoResult:
    """Exercise the executable mitigations and collect the evidence.

    Runs the in-transit flips `generate` wrote under full-image and streaming
    policies (buffering contrast), reruns them with the envelope stripped
    (integrity-check necessity), and probes the channel with and without
    loss under reliable transfer (protocol and QoS evidence).  Raises
    CampaignError, before any trial runs, if `cfg` sends no envelope.
    """
    if not cfg.envelope:
        raise CampaignError("the demonstration campaign needs the envelope enabled")
    full_cfg = cfg._replace(printer=cfg.printer._replace(policy=PrintPolicy.FULL_IMAGE))
    stream_cfg = cfg._replace(printer=cfg.printer._replace(policy=PrintPolicy.STREAMING))
    raw_cfg = full_cfg._replace(envelope=False, ecc=False)
    # the policy is not part of the job, so all three runs share one pristine
    # job; the raw run sends its text, bare of the envelope and its ECC bytes
    pristine = _prepare(cfg, base_mesh, specs)
    job = pristine.job
    raw_pristine = pristine._replace(job=job._replace(sent=job.text))
    trials = list(_trials([(full_cfg, pristine), (stream_cfg, pristine), (raw_cfg, raw_pristine)],
                          specs))
    n = len(specs)

    # full image + envelope, tracking outcomes for the buffering contrast
    campaign = _tally(trials[:n])
    full = [o for _, _, o in trials[:n] if o is not None]
    # streaming + envelope: same corruptions scrap partially printed parts
    stream = [o for _, _, o in trials[n:2 * n] if o is not None]
    scrapped = [o for o in stream if o.status is JobStatus.SCRAPPED_MID_PRINT]
    # envelope stripped: the printer consumes raw text, detection moves late
    raw_late = sum(stage in _LATE_STAGES for _, stage, _ in trials[2 * n:])

    # channel probes: reliable transfer under loss, QoS cost of loss.
    # Several derived seeds so a lossy channel reliably shows losses.
    probe_packet = max(16, min(cfg.packet_size, 64))
    lossless_ms = lossy_ms = 0.0
    lossy_lost = 0
    all_intact = True
    for j in range(16):
        probe_seed = splitmix64_at(cfg.seed ^ 0x51CE, j)
        lossless = transfer(
            job.sent,
            cfg.channel._replace(loss_prob=0.0, seed=probe_seed),
            TransferMode.RELIABLE_ORDERED,
            probe_packet,
        )
        lossy = transfer(
            job.sent,
            cfg.channel._replace(loss_prob=RELIABLE_LOSS_PROB, seed=probe_seed),
            TransferMode.RELIABLE_ORDERED,
            probe_packet,
        )
        lossless_ms += lossless.elapsed_ms
        lossy_ms += lossy.elapsed_ms
        lossy_lost += lossy.packets_lost
        all_intact = all_intact and lossy.intact

    evidence = MitigationEvidence(
        reliable_loss_prob=RELIABLE_LOSS_PROB,
        reliable_intact_under_loss=all_intact,
        lossless_elapsed_ms=lossless_ms,
        lossy_elapsed_ms=lossy_ms,
        lossy_packets_lost=lossy_lost,
        fullimage_trials=len(specs),
        fullimage_rejected_integrity=sum(o.reason is FailReason.INTEGRITY_FAILURE for o in full),
        fullimage_scrapped=sum(o.status is JobStatus.SCRAPPED_MID_PRINT for o in full),
        fullimage_corrupt_printed_layers=sum(
            o.layers_printed for o in full if o.status is not JobStatus.COMPLETED
        ),
        streaming_scrapped=len(scrapped),
        streaming_scrapped_with_layers=sum(o.layers_printed > 0 for o in scrapped),
        envelope_undetected=campaign.count(DetectionStage.UNDETECTED),
        raw_trials=len(specs),
        raw_late_detections=raw_late,
    )
    return DemoResult(campaign=campaign, evidence=evidence)
