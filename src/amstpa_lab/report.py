"""Report assembly and rendering: hazards, campaign results, mitigation
statuses, and the industry defect-rate context block.

The defect-rate table is reference data only (it feeds no computation):
per-domain error rates for newly released code from the 2004 Reifer
industry benchmarks, plus the 2016 follow-up figure for factory-automation
software measured one year after release.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import NamedTuple

from .faultlab import CampaignResult, MitigationEvidence
from .stpa_core import MITIGATIONS


class DefectRateRow(NamedTuple):
    domain: str
    projects: int
    error_low: float
    error_high: float
    normative: float
    normative_label: str
    note: str


DEFECT_RATE_TABLE: tuple[DefectRateRow, ...] = (
    DefectRateRow("Automation", 55, 2, 8, 5, "5", "Factory automation"),
    DefectRateRow("Banking", 30, 3, 10, 6, "6", "Loan processing, ATM"),
    DefectRateRow("Command & Control", 45, 0.5, 5, 1, "1", "Command centers"),
    DefectRateRow("Data Processing", 35, 2, 14, 8, "8", "DB-intensive systems"),
    DefectRateRow("Environment/Tools", 75, 5, 12, 8, "8", "CASE, compilers, etc."),
    DefectRateRow("Military - All", 125, 0.2, 3, 1.0, "< 1.0", "See subcategories"),
    DefectRateRow("Military - Airborne", 40, 0.2, 1.3, 0.5, "0.5", "Embedded sensors"),
    DefectRateRow("Military - Ground", 52, 0.5, 4, 0.8, "0.8", "Combat center"),
    DefectRateRow("Military - Missile", 15, 0.3, 1.5, 0.5, "0.5", "GNC system"),
    DefectRateRow("Military - Space", 18, 0.2, 0.8, 0.4, "0.4", "Attitude control system"),
    DefectRateRow("Scientific", 35, 0.9, 5, 2, "2", "Seismic processing"),
    DefectRateRow("Telecommunications", 50, 3, 12, 6, "6", "Digital switches"),
    DefectRateRow("Test", 35, 3, 15, 7, "7", "Test equipment, devices"),
    DefectRateRow("Trainers/Simulations", 25, 2, 11, 6, "6", "Virtual reality simulator"),
    DefectRateRow("Web Business", 65, 4, 18, 11, "11", "Client/server sites"),
    DefectRateRow("Other", 25, 2, 15, 7, "7", "All others"),
)

# factory-automation fault density, 2016, measured one year after release
FOLLOWUP_2016_AUTOMATION = 2.0

# editorial QoS thresholds used when flagging channel quality in reports;
# not a published requirement
QOS_EDITORIAL_THRESHOLDS = {"max_loss_prob": 0.001, "max_jitter_ms": 5.0}


class MitigationStatus(Enum):
    DEMONSTRATED = "Demonstrated"
    CATALOG_ONLY = "CatalogOnly"


def mitigation_statuses(evidence: MitigationEvidence | None) -> dict[int, MitigationStatus]:
    """Status per mitigation id.

    Only the executable entries (1..5) can be Demonstrated, and only when
    the supplied campaign evidence shows the corresponding check passed:

    1. reliable transfer stayed intact under packet loss;
    2. full-image buffering rejected every corrupt job before printing
       while streaming scrapped partially printed parts;
    3. loss measurably slowed delivery (the QoS parameters matter);
    4. corrupt transmissions were rejected before any print attempt;
    5. the envelope caught every seeded corruption while the raw pipeline
       let at least one past the integrity stage.
    """
    status = {m.id: MitigationStatus.CATALOG_ONLY for m in MITIGATIONS}
    if evidence is None:
        return status
    ev = evidence
    if ev.reliable_intact_under_loss and ev.reliable_loss_prob > 0:
        status[1] = MitigationStatus.DEMONSTRATED
    if (
        ev.fullimage_scrapped == 0
        and ev.fullimage_corrupt_printed_layers == 0
        and ev.streaming_scrapped_with_layers > 0
    ):
        status[2] = MitigationStatus.DEMONSTRATED
    if ev.lossy_packets_lost > 0 and ev.lossy_elapsed_ms > ev.lossless_elapsed_ms:
        status[3] = MitigationStatus.DEMONSTRATED
    if ev.fullimage_rejected_integrity > 0 and ev.fullimage_corrupt_printed_layers == 0:
        status[4] = MitigationStatus.DEMONSTRATED
    if ev.envelope_undetected == 0 and ev.raw_late_detections > 0:
        status[5] = MitigationStatus.DEMONSTRATED
    return status


class ReportDoc(NamedTuple):
    hazards: dict | None
    campaign: CampaignResult | None
    evidence: MitigationEvidence | None
    statuses: dict[int, MitigationStatus]


def build_report(
    hazards: dict | None = None,
    campaign: CampaignResult | None = None,
    evidence: MitigationEvidence | None = None,
) -> ReportDoc:
    return ReportDoc(hazards, campaign, evidence, mitigation_statuses(evidence))


def _defect_block() -> dict:
    return {
        "reference": "industry defect-rate benchmarks (2004), errors per KESLOC at release",
        "rows": [
            {
                "domain": r.domain,
                "projects": r.projects,
                "error_range": [r.error_low, r.error_high],
                "normative": r.normative,
                "normative_label": r.normative_label,
                "note": r.note,
            }
            for r in DEFECT_RATE_TABLE
        ],
        "followup_2016_automation": FOLLOWUP_2016_AUTOMATION,
        "followup_note": (
            "factory-automation fault density in 2016, measured one year after "
            "release; still four times the newly released mission-critical rate"
        ),
        "qos_editorial_thresholds": dict(QOS_EDITORIAL_THRESHOLDS),
    }


def render_json(doc: ReportDoc) -> str:
    payload: dict = {
        "hazards": doc.hazards,
        "campaign": doc.campaign.to_dict() if doc.campaign else None,
        "evidence": doc.evidence.to_dict() if doc.evidence else None,
        "mitigations": [
            {
                "id": m.id,
                "executable": m.executable,
                "status": doc.statuses[m.id].value,
                "text": m.text,
            }
            for m in MITIGATIONS
        ],
        "defect_rates": _defect_block(),
    }
    return json.dumps(payload, indent=2) + "\n"


def render_markdown(doc: ReportDoc) -> str:
    lines: list[str] = ["# AM toolchain assurance report", ""]

    lines.append("## Hazard candidates")
    lines.append("")
    if doc.hazards is None:
        lines.append("No hazard analysis supplied.")
    else:
        lines.append(
            f"Model `{doc.hazards.get('model', '?')}`: "
            f"{doc.hazards.get('component_count', 0)} components, "
            f"{doc.hazards.get('path_count', 0)} paths, "
            f"{doc.hazards.get('candidate_count', 0)} candidates."
        )
    lines.append("")

    lines.append("## Fault-injection campaign")
    lines.append("")
    if doc.campaign is None:
        lines.append("No campaign supplied.")
    else:
        lines.append(f"Trials: {doc.campaign.trials}")
        lines.append("")
        lines.append("| detection stage | trials |")
        lines.append("|---|---|")
        for stage, count in sorted(
            doc.campaign.histogram.items(), key=lambda kv: kv[0].value
        ):
            lines.append(f"| {stage.value} | {count} |")
    lines.append("")

    lines.append("## Mitigation checklist")
    lines.append("")
    lines.append("| # | status | mitigation |")
    lines.append("|---|---|---|")
    for m in MITIGATIONS:
        lines.append(f"| {m.id} | {doc.statuses[m.id].value} | {m.text} |")
    lines.append("")

    lines.append("## Defect-rate context (reference data)")
    lines.append("")
    lines.append("Industry benchmarks (2004), errors per KESLOC for newly released code:")
    lines.append("")
    lines.append("| domain | projects | range | normative | note |")
    lines.append("|---|---|---|---|---|")
    for r in DEFECT_RATE_TABLE:
        lines.append(
            f"| {r.domain} | {r.projects} | {r.error_low:g} to {r.error_high:g} "
            f"| {r.normative_label} | {r.note} |"
        )
    lines.append("")
    lines.append(
        f"2016 follow-up for factory automation: {FOLLOWUP_2016_AUTOMATION:g} per KESLOC "
        "(measured one year after release)."
    )
    lines.append("")
    lines.append(
        "QoS thresholds used in channel assessments: "
        f"loss < {QOS_EDITORIAL_THRESHOLDS['max_loss_prob']:g}, "
        f"jitter < {QOS_EDITORIAL_THRESHOLDS['max_jitter_ms']:g} ms "
        "(editorial defaults, flagged as such)."
    )
    lines.append("")
    return "\n".join(lines)
