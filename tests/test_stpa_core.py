import importlib.resources
import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from amstpa_lab.stpa_core import (
    COMPONENT_MITIGATIONS,
    EXECUTABLE_MITIGATIONS,
    MITIGATION_TEXTS,
    MITIGATIONS,
    PATH_MITIGATIONS,
    PATH_PHRASE_SET,
    PHRASE_SETS,
    CandidateHazard,
    Component,
    ComponentKind,
    ControlStructure,
    ModelError,
    Path,
    PathClass,
    PathKind,
    PhraseSetId,
    Subsystem,
    builtin_am_reference_model,
    candidates_to_dict,
    candidates_to_text,
    classify_path,
    enumerate_candidates,
    load_model,
)


def emit_model(cs: ControlStructure) -> bytes:
    """The model file load_model reads, in the layout of the bundled one."""
    doc = {
        "name": cs.name,
        "components": [
            {"id": c.id, "name": c.name, "kind": c.kind.value, "subsystem": c.subsystem.value}
            for c in cs.components
        ],
        "paths": [
            {"id": p.id, "source": p.source, "target": p.target,
             "kind": p.kind.value, "label": p.label}
            for p in cs.paths
        ],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


class TestPhraseSets:
    def test_three_sets_of_four(self):
        assert set(PHRASE_SETS) == set(PhraseSetId)
        for phrases in PHRASE_SETS.values():
            assert len(phrases) == 4

    def test_verbatim_first_phrases(self):
        assert PHRASE_SETS[PhraseSetId.REAL_TIME_CONTROL][0] == (
            "A control action required for safety is not provided or is not followed."
        )
        assert PHRASE_SETS[PhraseSetId.NON_REAL_TIME][0] == (
            "A resource or action required for correct operation is not provided "
            "or is not followed."
        )
        assert PHRASE_SETS[PhraseSetId.REAL_TIME_SENSOR][0] == (
            "A sensor reading required for safety is not provided or is not followed."
        )


class TestCatalog:
    def test_exactly_25(self):
        assert len(MITIGATIONS) == 25
        assert [m.id for m in MITIGATIONS] == list(range(1, 26))

    def test_executable_flags(self):
        assert {m.id for m in MITIGATIONS if m.executable} == EXECUTABLE_MITIGATIONS

    def test_key_texts(self):
        # mitigation k is entry k - 1
        assert MITIGATIONS[0].text.startswith(
            "Assuring the network protocol used for AM is TCP/IP"
        )
        assert "high Quality of Service" in MITIGATIONS[2].text
        assert "integrity check (EDC/ECC codes, word count)" in MITIGATIONS[4].text
        assert MITIGATIONS[24].text.endswith("a safe distance from the printer.")
        assert len(MITIGATION_TEXTS) == 25


class TestBuiltinModel:
    def test_inventory(self):
        cs = builtin_am_reference_model()
        assert len(cs.components) == 9
        assert len(cs.paths) == 11
        kinds = [c.kind for c in cs.components]
        assert kinds.count(ComponentKind.NETWORK_LINK) == 2
        for kind in (
            ComponentKind.CAD_CAM_STATION,
            ComponentKind.REPOSITORY,
            ComponentKind.SLICER_STATION,
            ComponentKind.PRINTER,
            ComponentKind.HUMAN_OPERATOR,
            ComponentKind.DISPLAY,
            ComponentKind.CONTROL_INPUT,
        ):
            assert kinds.count(kind) == 1

    def test_every_path_kind_present(self):
        cs = builtin_am_reference_model()
        assert {p.kind for p in cs.paths} == set(PathKind)

    def test_deterministic(self):
        assert builtin_am_reference_model() == builtin_am_reference_model()

    def test_bundled_file_matches_builtin(self):
        blob = (
            importlib.resources.files("amstpa_lab") / "data" / "am_reference_model.json"
        ).read_bytes()
        cs = load_model(blob)
        assert cs == builtin_am_reference_model()
        assert len(cs.components) == 9
        assert len(cs.paths) == 11
        assert emit_model(cs) == blob


class TestLoadModel:
    def test_empty_structure(self):
        cs = load_model(b'{"name": "empty", "components": [], "paths": []}')
        assert cs == ControlStructure("empty")

    def test_round_trip_builtin(self):
        cs = builtin_am_reference_model()
        assert load_model(emit_model(cs)) == cs

    def test_dangling_target_names_id(self):
        doc = {
            "name": "m",
            "components": [
                {"id": "a", "name": "A", "kind": "Printer", "subsystem": "Printing"}
            ],
            "paths": [
                {"id": "p", "source": "a", "target": "ghost", "kind": "Control", "label": "x"}
            ],
        }
        with pytest.raises(ModelError, match="'ghost'"):
            load_model(json.dumps(doc).encode())

    def test_duplicate_component_id(self):
        doc = {
            "name": "m",
            "components": [
                {"id": "a", "name": "A", "kind": "Printer", "subsystem": "Printing"},
                {"id": "a", "name": "B", "kind": "Display", "subsystem": "Printing"},
            ],
        }
        with pytest.raises(ModelError, match="duplicate"):
            load_model(json.dumps(doc).encode())

    def test_unknown_kind(self):
        doc = {
            "name": "m",
            "components": [
                {"id": "a", "name": "A", "kind": "Blender", "subsystem": "Printing"}
            ],
        }
        with pytest.raises(ModelError, match="Blender"):
            load_model(json.dumps(doc).encode())

    def test_self_loop_rejected(self):
        doc = {
            "name": "m",
            "components": [
                {"id": "a", "name": "A", "kind": "Printer", "subsystem": "Printing"}
            ],
            "paths": [
                {"id": "p", "source": "a", "target": "a", "kind": "Control", "label": "x"}
            ],
        }
        with pytest.raises(ModelError, match="self-loop"):
            load_model(json.dumps(doc).encode())

    def test_invalid_json_reports_location(self):
        with pytest.raises(ModelError, match="line"):
            load_model(b'{"name": ')

    def test_not_utf8(self):
        with pytest.raises(ModelError, match="UTF-8"):
            load_model(b"\xff\xfe{}")

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_number_refused(self, number):
        # even under a key the model does not read
        text = f'{{"name": "m", "components": [], "paths": [], "weight": {number}}}'
        with pytest.raises(ModelError, match=f"{number} is not a finite number"):
            load_model(text.encode())

    @pytest.mark.parametrize("key", ["components", "paths"])
    @pytest.mark.parametrize("value", [None, 3, "ab", {"id": "a"}])
    def test_components_and_paths_must_be_lists(self, key, value):
        with pytest.raises(ModelError, match=re.escape(f"model.{key} must be an array, got {value!r}")):
            load_model(json.dumps({"name": "m", key: value}).encode())


def _structure(n_components=1, n_paths=0):
    components = tuple(
        Component(
            f"c{i}",
            f"Component {i}",
            list(ComponentKind)[i % len(ComponentKind)],
            list(Subsystem)[i % len(Subsystem)],
        )
        for i in range(n_components)
    )
    paths = tuple(
        Path(
            f"p{i}",
            f"c{i % n_components}",
            f"c{(i + 1) % n_components}",
            list(PathKind)[i % len(PathKind)],
            f"flow {i}",
        )
        for i in range(n_paths)
    )
    return ControlStructure("test", components, paths)


class TestEnumerate:
    def test_empty(self):
        assert enumerate_candidates(ControlStructure("none")) == []

    def test_single_component_four_candidates(self):
        candidates = enumerate_candidates(_structure(1))
        assert len(candidates) == 4
        assert [c.phrase_index for c in candidates] == [1, 2, 3, 4]
        assert all(c.phrase_set is PhraseSetId.NON_REAL_TIME for c in candidates)

    def test_counting_law_bundled(self):
        cs = builtin_am_reference_model()
        assert len(enumerate_candidates(cs)) == 4 * (9 + 11)

    def test_order_components_then_paths(self):
        cs = _structure(2, 2)
        candidates = enumerate_candidates(cs)
        subjects = [c.subject_id for c in candidates]
        assert subjects == ["c0"] * 4 + ["c1"] * 4 + ["p0"] * 4 + ["p1"] * 4

    def test_path_kind_selects_phrase_set(self):
        cs = builtin_am_reference_model()
        by_id = {p.id: p for p in cs.paths}
        for cand in enumerate_candidates(cs):
            if cand.subject_kind != "Path":
                continue
            kind = by_id[cand.subject_id].kind
            expected = {
                PathKind.CONTROL: PhraseSetId.REAL_TIME_CONTROL,
                PathKind.FEEDBACK: PhraseSetId.REAL_TIME_SENSOR,
                PathKind.RESOURCE: PhraseSetId.NON_REAL_TIME,
            }[kind]
            assert cand.phrase_set is expected

    def test_generated_text_contains_verbatim_phrase(self):
        cs = builtin_am_reference_model()
        for cand in enumerate_candidates(cs):
            phrase = PHRASE_SETS[cand.phrase_set][cand.phrase_index - 1]
            assert phrase in cand.generated_text

    def test_deterministic(self):
        cs = builtin_am_reference_model()
        assert enumerate_candidates(cs) == enumerate_candidates(cs)

    @given(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=20),
    )
    def test_counting_law_property(self, n_components, n_paths):
        if n_components == 0:
            n_paths = 0
        cs = _structure(n_components, n_paths)
        assert len(enumerate_candidates(cs)) == 4 * (n_components + n_paths)


class TestMitigationRules:
    def test_network_link_component(self):
        cs = builtin_am_reference_model()
        hazards = enumerate_candidates(cs)
        for hz in hazards:
            if hz.subject_kind == "Component" and hz.subject_id == "upload_link":
                assert {1, 3} <= set(hz.mitigation_ids)
                assert set(hz.mitigation_ids) == {1, 3, 4, 5, 16}

    def test_repository_component(self):
        cs = builtin_am_reference_model()
        hazards = enumerate_candidates(cs)
        for hz in hazards:
            if hz.subject_kind == "Component" and hz.subject_id == "design_repo":
                assert set(hz.mitigation_ids) == {6, 7, 8}

    def test_ids_always_in_catalog_range(self):
        cs = builtin_am_reference_model()
        hazards = enumerate_candidates(cs)
        for hz in hazards:
            assert all(1 <= mid <= 25 for mid in hz.mitigation_ids)

    def test_rule_tables_reference_valid_ids(self):
        for ids in COMPONENT_MITIGATIONS.values():
            assert all(1 <= mid <= 25 for mid in ids)
        for ids in PATH_MITIGATIONS.values():
            assert all(1 <= mid <= 25 for mid in ids)
        assert set(COMPONENT_MITIGATIONS) == set(ComponentKind)
        assert set(PATH_MITIGATIONS) == {
            (cls, idx) for cls in PathClass for idx in (1, 2, 3, 4)
        }

    def test_file_flow_classification(self):
        path = Path("p", "a", "b", PathKind.RESOURCE, "STL model file")
        assert classify_path(path) is PathClass.FILE_FLOW
        command = Path("p", "a", "b", PathKind.CONTROL, "start press")
        assert classify_path(command) is PathClass.COMMAND_FLOW


ids = st.integers(min_value=0, max_value=10_000).map(lambda n: f"n{n}")


@st.composite
def structures(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    component_ids = draw(
        st.lists(ids, min_size=n, max_size=n, unique=True)
    )
    components = tuple(
        Component(
            cid,
            draw(st.text(min_size=0, max_size=12)),
            draw(st.sampled_from(list(ComponentKind))),
            draw(st.sampled_from(list(Subsystem))),
        )
        for cid in component_ids
    )
    paths = []
    if n >= 2:
        n_paths = draw(st.integers(min_value=0, max_value=8))
        path_ids = draw(
            st.lists(ids.map(lambda s: "p" + s), min_size=n_paths, max_size=n_paths, unique=True)
        )
        for pid in path_ids:
            source, target = draw(
                st.lists(st.sampled_from(component_ids), min_size=2, max_size=2, unique=True)
            )
            paths.append(
                Path(
                    pid,
                    source,
                    target,
                    draw(st.sampled_from(list(PathKind))),
                    draw(st.text(min_size=0, max_size=16)),
                )
            )
    return ControlStructure(draw(st.text(min_size=0, max_size=10)), components, tuple(paths))


# The two passes that enumerate_candidates replaced, kept as its oracle: the
# first enumerates with no links, looking each endpoint name up by a linear
# scan; the second finds each subject again and links it from the rule tables.


def _by_id(items, item_id):
    for item in items:
        if item.id == item_id:
            return item
    raise KeyError(item_id)


def unlinked_candidates(cs):
    out = []
    for comp in cs.components:
        for idx, phrase in enumerate(PHRASE_SETS[PhraseSetId.NON_REAL_TIME], start=1):
            out.append(CandidateHazard(
                "Component", comp.id, PhraseSetId.NON_REAL_TIME, idx,
                f"Component '{comp.name}' [{comp.kind.value}]: {phrase}", (),
            ))
    for path in cs.paths:
        set_id = PATH_PHRASE_SET[path.kind]
        src = _by_id(cs.components, path.source)
        dst = _by_id(cs.components, path.target)
        for idx, phrase in enumerate(PHRASE_SETS[set_id], start=1):
            out.append(CandidateHazard(
                "Path", path.id, set_id, idx,
                f"Path '{path.label}' ({src.name} -> {dst.name}): {phrase}", (),
            ))
    return out


def attach_mitigations(hazards, catalog, cs):
    """Fill mitigation_ids from the rule table; unmatched subjects get ()."""
    if len(catalog) != 25:
        raise ValueError("catalog must have exactly 25 entries")
    out = []
    for hz in hazards:
        ids = ()
        if hz.subject_kind == "Component":
            try:
                comp = _by_id(cs.components, hz.subject_id)
            except KeyError:
                comp = None
            if comp is not None:
                ids = COMPONENT_MITIGATIONS.get(comp.kind, ())
        else:
            try:
                path = _by_id(cs.paths, hz.subject_id)
            except KeyError:
                path = None
            if path is not None:
                ids = PATH_MITIGATIONS.get((classify_path(path), hz.phrase_index), ())
        out.append(hz._replace(mitigation_ids=tuple(sorted(ids))))
    return out


def two_pass_candidates(cs):
    return attach_mitigations(unlinked_candidates(cs), MITIGATIONS, cs)


@given(structures())
def test_one_pass_matches_two_passes(cs):
    assert enumerate_candidates(cs) == two_pass_candidates(cs)


def test_one_pass_matches_two_passes_bundled():
    cs = builtin_am_reference_model()
    assert enumerate_candidates(cs) == two_pass_candidates(cs)


@given(structures())
def test_counting_law_random_structures(cs):
    assert len(enumerate_candidates(cs)) == 4 * (len(cs.components) + len(cs.paths))


@given(structures())
def test_model_round_trip(cs):
    assert load_model(emit_model(cs)) == cs


def test_renderings_smoke():
    cs = builtin_am_reference_model()
    hazards = enumerate_candidates(cs)
    doc = candidates_to_dict(cs, hazards)
    assert doc["candidate_count"] == 80
    assert len(doc["candidates"]) == 80
    text = candidates_to_text(cs, hazards)
    assert "total: 80 candidates" in text
