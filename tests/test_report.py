import json
from pathlib import Path

from amstpa_lab.faultlab import CampaignResult, DetectionStage, MitigationEvidence
from amstpa_lab.report import (
    DEFECT_RATE_TABLE,
    FOLLOWUP_2016_AUTOMATION,
    MitigationStatus,
    build_report,
    mitigation_statuses,
    render_json,
    render_markdown,
)

GOLDEN = Path(__file__).parent / "golden"


def evidence(**overrides):
    base = dict(
        reliable_loss_prob=0.1,
        reliable_intact_under_loss=True,
        lossless_elapsed_ms=100.0,
        lossy_elapsed_ms=130.0,
        lossy_packets_lost=12,
        fullimage_trials=200,
        fullimage_rejected_integrity=200,
        fullimage_scrapped=0,
        fullimage_corrupt_printed_layers=0,
        streaming_scrapped=180,
        streaming_scrapped_with_layers=150,
        envelope_undetected=0,
        raw_trials=200,
        raw_late_detections=40,
    )
    base.update(overrides)
    return MitigationEvidence(**base)


class TestDefectRates:
    def test_sixteen_rows(self):
        assert len(DEFECT_RATE_TABLE) == 16

    def test_automation_row_pinned(self):
        row = DEFECT_RATE_TABLE[0]
        assert row.domain == "Automation"
        assert row.projects == 55
        assert (row.error_low, row.error_high) == (2, 8)
        assert row.normative == 5
        assert row.note == "Factory automation"

    def test_followup_2016(self):
        assert FOLLOWUP_2016_AUTOMATION == 2

    def test_selected_rows(self):
        by_domain = {r.domain: r for r in DEFECT_RATE_TABLE}
        assert by_domain["Web Business"].normative == 11
        assert by_domain["Military - Space"].error_high == 0.8
        assert by_domain["Military - All"].normative_label == "< 1.0"
        assert by_domain["Scientific"].projects == 35
        total_projects = sum(r.projects for r in DEFECT_RATE_TABLE)
        assert total_projects == 55 + 30 + 45 + 35 + 75 + 125 + 40 + 52 + 15 + 18 + 35 + 50 + 35 + 25 + 65 + 25


class TestStatuses:
    def test_no_evidence_all_catalog_only(self):
        statuses = mitigation_statuses(None)
        assert all(s is MitigationStatus.CATALOG_ONLY for s in statuses.values())
        assert len(statuses) == 25

    def test_full_evidence_demonstrates_1_to_5(self):
        statuses = mitigation_statuses(evidence())
        assert all(
            statuses[i] is MitigationStatus.DEMONSTRATED for i in range(1, 6)
        )
        assert all(
            statuses[i] is MitigationStatus.CATALOG_ONLY for i in range(6, 26)
        )

    def test_partial_evidence(self):
        ev = evidence(
            reliable_intact_under_loss=False,
            streaming_scrapped_with_layers=0,
            raw_late_detections=0,
        )
        statuses = mitigation_statuses(ev)
        assert statuses[1] is MitigationStatus.CATALOG_ONLY
        assert statuses[2] is MitigationStatus.CATALOG_ONLY
        assert statuses[3] is MitigationStatus.DEMONSTRATED
        assert statuses[5] is MitigationStatus.CATALOG_ONLY

    def test_scrapped_fullimage_blocks_mitigation_2(self):
        statuses = mitigation_statuses(evidence(fullimage_scrapped=3))
        assert statuses[2] is MitigationStatus.CATALOG_ONLY


class TestRenderings:
    def test_empty_report_markdown_golden(self):
        doc = build_report()
        assert render_markdown(doc) == (GOLDEN / "empty_report.md").read_text()

    def test_empty_report_json_golden(self):
        doc = build_report()
        assert render_json(doc) == (GOLDEN / "empty_report.json").read_text()

    def test_json_and_markdown_statuses_agree(self):
        campaign = CampaignResult(
            trials=10, histogram={DetectionStage.INTEGRITY_VERIFY: 10}, undetected_trials=()
        )
        doc = build_report(campaign=campaign, evidence=evidence())
        payload = json.loads(render_json(doc))
        md = render_markdown(doc)
        for entry in payload["mitigations"]:
            assert f"| {entry['id']} | {entry['status']} |" in md

    def test_render_deterministic(self):
        doc = build_report(evidence=evidence())
        assert render_markdown(doc) == render_markdown(build_report(evidence=evidence()))
        assert render_json(doc) == render_json(build_report(evidence=evidence()))

    def test_defect_block_in_json(self):
        payload = json.loads(render_json(build_report()))
        rows = payload["defect_rates"]["rows"]
        assert len(rows) == 16
        assert rows[0] == {
            "domain": "Automation",
            "projects": 55,
            "error_range": [2, 8],
            "normative": 5,
            "normative_label": "5",
            "note": "Factory automation",
        }
        assert payload["defect_rates"]["followup_2016_automation"] == 2
        thresholds = payload["defect_rates"]["qos_editorial_thresholds"]
        assert thresholds == {"max_loss_prob": 0.001, "max_jitter_ms": 5.0}

    def test_hazard_and_campaign_sections(self):
        hazards = {
            "model": "demo",
            "component_count": 2,
            "path_count": 1,
            "candidate_count": 12,
            "candidates": [],
        }
        campaign = CampaignResult(
            trials=5,
            histogram={DetectionStage.GEOMETRY_DIFF: 2, DetectionStage.UNDETECTED: 3},
            undetected_trials=(),
        )
        md = render_markdown(build_report(hazards=hazards, campaign=campaign))
        assert "Model `demo`" in md
        assert "| geometry_diff | 2 |" in md
        assert "| undetected | 3 |" in md
