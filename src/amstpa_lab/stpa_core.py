"""Control-structure modeling and mechanical hazard-candidate enumeration.

A control structure is a set of typed components joined by typed paths.
Hazard candidates are produced by applying a fixed four-phrase guide set to
every component and every path: control paths take the real-time control
set, feedback paths the sensor set, and resource paths (and all components)
the non-real-time set.  Candidates cross-link into a 25-entry mitigation
catalog through a documented rule table.

A model file is read by `jsondoc` against the table `MODEL_KEYS`, like every
JSON input of the lab; `load_model` then checks the rules that join entries:
unique non-empty ids, and paths between two different components.
"""

from __future__ import annotations

import functools
import importlib.resources
from enum import Enum
from typing import NamedTuple

from .jsondoc import REQUIRED, loads, read_doc


class ModelError(ValueError):
    """Invalid control-structure model file or value."""


class ComponentKind(Enum):
    CONTROLLER = "Controller"
    HUMAN_OPERATOR = "HumanOperator"
    ACTUATOR = "Actuator"
    SENSOR = "Sensor"
    CONTROLLED_PROCESS = "ControlledProcess"
    DISPLAY = "Display"
    CONTROL_INPUT = "ControlInput"
    REPOSITORY = "Repository"
    NETWORK_LINK = "NetworkLink"
    CAD_CAM_STATION = "CadCamStation"
    SLICER_STATION = "SlicerStation"
    PRINTER = "Printer"


class Subsystem(Enum):
    CAD_CAM = "CadCam"
    REPOSITORY = "Repository"
    PRINTING = "Printing"
    CROSS_CUTTING = "CrossCutting"


class PathKind(Enum):
    CONTROL = "Control"
    FEEDBACK = "Feedback"
    RESOURCE = "Resource"


class Component(NamedTuple):
    id: str
    name: str
    kind: ComponentKind
    subsystem: Subsystem


class Path(NamedTuple):
    id: str
    source: str
    target: str
    kind: PathKind
    label: str


class ControlStructure(NamedTuple):
    name: str
    components: tuple[Component, ...] = ()
    paths: tuple[Path, ...] = ()


class PhraseSetId(Enum):
    REAL_TIME_CONTROL = "RealTimeControl"
    REAL_TIME_SENSOR = "RealTimeSensor"
    NON_REAL_TIME = "NonRealTime"


PHRASE_SETS: dict[PhraseSetId, tuple[str, str, str, str]] = {
    PhraseSetId.REAL_TIME_CONTROL: (
        "A control action required for safety is not provided or is not followed.",
        "An unsafe control action is provided that leads to a hazard.",
        "A potentially safe control action is provided too late, or out of sequence.",
        "A safe control action is stopped too soon or applied too long.",
    ),
    PhraseSetId.REAL_TIME_SENSOR: (
        "A sensor reading required for safety is not provided or is not followed.",
        "A sensor reading is provided that leads to a hazard.",
        "A sensor reading is provided too late, or out of sequence.",
        "A sensor reading is stopped too soon or applied too long.",
    ),
    PhraseSetId.NON_REAL_TIME: (
        "A resource or action required for correct operation is not provided or is not followed.",
        "An incorrect resource or action is provided that leads to a hazard/risk.",
        "A potentially correct resource or action is provided too late, or out of sequence.",
        "A correct resource or control action is stopped too soon or applied too long.",
    ),
}

PATH_PHRASE_SET: dict[PathKind, PhraseSetId] = {
    PathKind.CONTROL: PhraseSetId.REAL_TIME_CONTROL,
    PathKind.FEEDBACK: PhraseSetId.REAL_TIME_SENSOR,
    PathKind.RESOURCE: PhraseSetId.NON_REAL_TIME,
}


class CandidateHazard(NamedTuple):
    subject_kind: str  # "Component" | "Path"
    subject_id: str
    phrase_set: PhraseSetId
    phrase_index: int  # 1..4
    generated_text: str
    mitigation_ids: tuple[int, ...]


class Mitigation(NamedTuple):
    id: int
    text: str
    executable: bool


MITIGATION_TEXTS: tuple[str, ...] = (
    "Assuring the network protocol used for AM is TCP/IP and not UDP which does not "
    "guarantee error free transmissions. UDP is commonly used for voice over IP and "
    "video transmissions.",
    "Assuring 3D printer buffer size is large enough to hold the entire print image so "
    "that error free receipt of a print image can be assured before printing starts. "
    "Otherwise a part may have to be scrapped before it is completely printed if there "
    "is a transmission error occurring in later transmissions.",
    "Assuring that networks used for AM have a high Quality of Service [delay, delay "
    "variation (jitter), bandwidth, and packet loss parameters]. Dropped packets could "
    "slow the printing process consequently cause the quality degradation of the "
    "printed part.",
    "Assuring that 3D printer software can detect a transmission error from the network "
    "software so it does not attempt to print data that is corrupted.",
    "Assuring application level data has an integrity check (EDC/ECC codes, word count).",
    "Assuring repositories containing design data are encrypted and backed up offsite "
    "automatically on a regular basis.",
    "Assure repositories tightly control access to part files and provide file "
    "configuration management.",
    "Assuring any transmission of design data is encrypted.",
    "Assuring 3D software and supporting software, especially open source software, has "
    "been checked for Trojans, worms, viruses, and other types of malware.",
    "Dedicating enterprise networks used for AM and air-gap them to the internet.",
    "Being cautious about using any commercial 3D printing software that has not had "
    "time to mature with a wide distribution of users over many months. Refrain from "
    "being an early adopter of new software used for production parts. This applies to "
    "updates as well.",
    "Assuring that AM software has been subjected to static code analysis to identify "
    "and remove structural errors that hackers could exploit.",
    "Assuring AM software and supporting libraries have been scanned for known "
    "vulnerabilities.",
    "Assuring AM software has only verified I/O operations that are intentional.",
    "Assuring AM software has been subjected to dynamic code analysis to measure test "
    "coverage and memory management.",
    "Choosing fiber optic physical networks for AM over copper cables or wifi because "
    "of fiber's immunity to EMI/EMC and radio wave interference.",
    "Conducting an end to end (CAD/CAM, Repository, Slicers, 3D printer Software, data "
    "formats) system analysis of AM system components to assure that ranges, "
    "resolutions, accuracies, engineering units, and formatting options are compatible "
    "and adequate.",
    "Assuring adequate training has been conducted for users of the AM system (CAD/CAM, "
    "Repository, 3D Printers and Software)",
    "Assuring software upgrades are evaluated on a test platform before committing to a "
    "production system.",
    "Developing an end to end system test object that can be printed and verified prior "
    "to using the AM system for a production run.",
    "Assuring calibration and mechanical alignment of the 3D printer is conducted on "
    "recommended intervals or more frequently if required.",
    "Keeping audio recording devices, including cell phones, out of the 3D printer "
    "area, some 3D printer mechanical mechanisms generate acoustical noise that is "
    "unique for each printing action and can be reproduced if recorded.",
    "Keeping appropriate fire suppression equipment in close proximity to the printer "
    "area.",
    "Assuring transient suppression and auxiliary or battery power back up exists for "
    "3D printer.",
    "Assuring 3D printer power can be shut off from a master power switch a safe "
    "distance from the printer.",
)

EXECUTABLE_MITIGATIONS = frozenset({1, 2, 3, 4, 5})


# the 25-entry mitigation catalog, in id order
MITIGATIONS: tuple[Mitigation, ...] = tuple(
    Mitigation(i, text, i in EXECUTABLE_MITIGATIONS)
    for i, text in enumerate(MITIGATION_TEXTS, 1)
)


# ---------------------------------------------------------------------------
# Mitigation rule table.  Keys are (subject class, phrase index); component
# subjects key on their ComponentKind, path subjects on a label/kind class.
# The table is this artifact's construction (documented in the README).
# ---------------------------------------------------------------------------

COMPONENT_MITIGATIONS: dict[ComponentKind, tuple[int, ...]] = {
    ComponentKind.CONTROLLER: (12, 13, 15, 19),
    ComponentKind.HUMAN_OPERATOR: (18,),
    ComponentKind.ACTUATOR: (21,),
    ComponentKind.SENSOR: (17, 21),
    ComponentKind.CONTROLLED_PROCESS: (20, 21),
    ComponentKind.DISPLAY: (18,),
    ComponentKind.CONTROL_INPUT: (18,),
    ComponentKind.REPOSITORY: (6, 7, 8),
    ComponentKind.NETWORK_LINK: (1, 3, 4, 5, 16),
    ComponentKind.CAD_CAM_STATION: (9, 11, 12, 13, 14, 15),
    ComponentKind.SLICER_STATION: (9, 11, 12, 13, 14, 15, 17),
    ComponentKind.PRINTER: (2, 4, 5, 20, 21, 24, 25),
}

_FILE_LABEL_WORDS = ("file", "stl", "gcode", "g-code", "payload", "toolpath", "model", "design", "job")


class PathClass(Enum):
    FILE_FLOW = "file_flow"
    COMMAND_FLOW = "command_flow"
    STATUS_FLOW = "status_flow"
    GENERIC_RESOURCE = "generic_resource"


def classify_path(path: Path) -> PathClass:
    label = path.label.lower()
    if any(word in label for word in _FILE_LABEL_WORDS):
        return PathClass.FILE_FLOW
    if path.kind is PathKind.CONTROL:
        return PathClass.COMMAND_FLOW
    if path.kind is PathKind.FEEDBACK:
        return PathClass.STATUS_FLOW
    return PathClass.GENERIC_RESOURCE


PATH_MITIGATIONS: dict[tuple[PathClass, int], tuple[int, ...]] = {
    # file flows: transit integrity everywhere, plus per-phrase emphases
    (PathClass.FILE_FLOW, 1): (1, 3, 4, 5, 8),
    (PathClass.FILE_FLOW, 2): (1, 4, 5, 8, 9, 17),
    (PathClass.FILE_FLOW, 3): (1, 2, 3, 4, 5, 8),
    (PathClass.FILE_FLOW, 4): (1, 2, 4, 5, 8),
    # operator/command flows: procedure and compatibility concerns
    (PathClass.COMMAND_FLOW, 1): (18,),
    (PathClass.COMMAND_FLOW, 2): (17, 18),
    (PathClass.COMMAND_FLOW, 3): (18,),
    (PathClass.COMMAND_FLOW, 4): (18,),
    # status/feedback flows
    (PathClass.STATUS_FLOW, 1): (18, 20),
    (PathClass.STATUS_FLOW, 2): (18, 20),
    (PathClass.STATUS_FLOW, 3): (18, 20),
    (PathClass.STATUS_FLOW, 4): (18, 20),
    # other resources
    (PathClass.GENERIC_RESOURCE, 1): (17,),
    (PathClass.GENERIC_RESOURCE, 2): (17,),
    (PathClass.GENERIC_RESOURCE, 3): (17,),
    (PathClass.GENERIC_RESOURCE, 4): (17,),
}


# ---------------------------------------------------------------------------
# Model I/O
# ---------------------------------------------------------------------------


# every key of a model file; each entry's keys are its record's fields
MODEL_KEYS = {
    "name": (str, REQUIRED),
    "components": ([{"id": (str, REQUIRED), "name": (str, REQUIRED),
                     "kind": (ComponentKind, REQUIRED), "subsystem": (Subsystem, REQUIRED)}], []),
    "paths": ([{"id": (str, REQUIRED), "source": (str, REQUIRED), "target": (str, REQUIRED),
                "kind": (PathKind, REQUIRED), "label": (str, REQUIRED)}], []),
}


def load_model(text: bytes) -> ControlStructure:
    """Load and validate a JSON control-structure model.

    Syntax errors report the JSON line/column, a value of the wrong type its
    dotted path (`model.components.2.kind`), and a broken rule that joins
    entries the entry and its position.
    """
    try:
        raw = loads(text)
    except UnicodeDecodeError as exc:
        raise ModelError(f"model file is not UTF-8: {exc}") from None
    except ValueError as exc:  # bad syntax, nesting or number
        raise ModelError(f"model file is not valid JSON: {exc}") from None
    try:
        doc = read_doc(raw, MODEL_KEYS, "model.")
    except ValueError as exc:
        raise ModelError(str(exc)) from None
    components = tuple(Component(**c) for c in doc["components"])
    paths = tuple(Path(**p) for p in doc["paths"])
    for key, entries in (("components", components), ("paths", paths)):
        seen: set[str] = set()
        for i, entry in enumerate(entries):
            if not entry.id:
                raise ModelError(f"{key}[{i}]: {key[:-1]} id must be a non-empty string")
            if entry.id in seen:
                raise ModelError(f"{key}[{i}]: duplicate {key[:-1]} id {entry.id!r}")
            seen.add(entry.id)

    component_ids = {c.id for c in components}
    for i, path in enumerate(paths):
        where = f"paths[{i}] (id={path.id!r})"
        for endpoint, role in ((path.source, "source"), (path.target, "target")):
            if endpoint not in component_ids:
                raise ModelError(f"{where}: {role} {endpoint!r} does not name a component")
        if path.source == path.target:
            raise ModelError(f"{where}: self-loop paths are not allowed")
    return ControlStructure(doc["name"], components, paths)


@functools.cache
def builtin_am_reference_model() -> ControlStructure:
    """The shipped AM toolchain model (data/am_reference_model.json): CAD/CAM,
    repository, and printing subsystems joined by file, command, and feedback
    flows.  Loaded and validated once; the structure is frozen."""
    blob = importlib.resources.files(__package__) / "data" / "am_reference_model.json"
    return load_model(blob.read_bytes())


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_candidates(cs: ControlStructure) -> list[CandidateHazard]:
    """Apply the guide phrases to every component, then every path, linking
    each candidate to its mitigations from the rule tables in the same pass.

    Yields exactly 4 * (len(components) + len(paths)) candidates, in
    declaration order with phrase_index ascending within each subject.
    """
    out: list[CandidateHazard] = []
    phrases = PHRASE_SETS[PhraseSetId.NON_REAL_TIME]
    for comp in cs.components:
        ids = tuple(sorted(COMPONENT_MITIGATIONS[comp.kind]))
        for idx, phrase in enumerate(phrases, start=1):
            out.append(
                CandidateHazard(
                    subject_kind="Component",
                    subject_id=comp.id,
                    phrase_set=PhraseSetId.NON_REAL_TIME,
                    phrase_index=idx,
                    generated_text=f"Component '{comp.name}' [{comp.kind.value}]: {phrase}",
                    mitigation_ids=ids,
                )
            )
    names = {c.id: c.name for c in cs.components}
    for path in cs.paths:
        set_id = PATH_PHRASE_SET[path.kind]
        path_class = classify_path(path)
        for idx, phrase in enumerate(PHRASE_SETS[set_id], start=1):
            out.append(
                CandidateHazard(
                    subject_kind="Path",
                    subject_id=path.id,
                    phrase_set=set_id,
                    phrase_index=idx,
                    generated_text=(
                        f"Path '{path.label}' ({names[path.source]} -> {names[path.target]}): "
                        f"{phrase}"
                    ),
                    mitigation_ids=tuple(sorted(PATH_MITIGATIONS[path_class, idx])),
                )
            )
    return out


def candidates_to_dict(cs: ControlStructure, hazards: list[CandidateHazard]) -> dict:
    return {
        "model": cs.name,
        "component_count": len(cs.components),
        "path_count": len(cs.paths),
        "candidate_count": len(hazards),
        "candidates": [
            {
                "subject_kind": hz.subject_kind,
                "subject_id": hz.subject_id,
                "phrase_set": hz.phrase_set.value,
                "phrase_index": hz.phrase_index,
                "text": hz.generated_text,
                "mitigation_ids": list(hz.mitigation_ids),
            }
            for hz in hazards
        ],
    }


def candidates_to_text(cs: ControlStructure, hazards: list[CandidateHazard]) -> str:
    lines = [
        f"Hazard candidates for model '{cs.name}' "
        f"({len(cs.components)} components, {len(cs.paths)} paths)",
        "",
    ]
    for i, hz in enumerate(hazards, start=1):
        mit = ",".join(str(m) for m in hz.mitigation_ids) or "-"
        lines.append(
            f"{i:4d}. [{hz.phrase_set.value}#{hz.phrase_index}] {hz.generated_text} "
            f"(mitigations: {mit})"
        )
    lines.append("")
    lines.append(f"total: {len(hazards)} candidates")
    return "\n".join(lines) + "\n"
