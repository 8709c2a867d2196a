"""Adsorption-system text generation and the supporting formula helpers."""

import json

import numpy as np
import pytest

from catloop.textify import (
    DEFAULT_SEPARATOR,
    SystemMetadata,
    find_interaction_atoms,
    hill_sorted,
    reduced_formula,
    to_system_text,
)
from conftest import BAD_COMPOSITIONS, BAD_SIDECAR_INTEGERS, make_structure


def test_hill_sorted():
    assert hill_sorted(["O", "H", "C", "Cu"]) == ["C", "H", "Cu", "O"]
    assert hill_sorted(["H", "H", "O"]) == ["H", "H", "O"]
    assert hill_sorted([]) == []


def test_reduced_formula():
    assert reduced_formula({"Cu": 12}) == "Cu"
    assert reduced_formula({"Cu": 12, "O": 6}) == "Cu2O"
    assert reduced_formula({"O": 2, "Cu": 2}) == "CuO"
    assert reduced_formula({"Pt": 3, "Ni": 9}) == "Ni3Pt"
    with pytest.raises(ValueError):
        reduced_formula({})
    with pytest.raises(ValueError):
        reduced_formula({"Cu": 0})


def test_metadata_validation():
    with pytest.raises(ValueError, match="disjoint"):
        SystemMetadata(frozenset({1}), frozenset({1, 2}), {"Cu": 4}, (1, 0, 0))
    with pytest.raises(ValueError, match="miller"):
        SystemMetadata(frozenset({0}), frozenset(), {"Cu": 4}, (0, 0, 0))
    with pytest.raises(ValueError, match="non-negative"):
        SystemMetadata(frozenset({-1}), frozenset(), {"Cu": 4}, (1, 1, 1))
    with pytest.raises(ValueError, match="composition"):
        SystemMetadata(frozenset({0}), frozenset(), {}, (1, 1, 1))
    with pytest.raises(ValueError, match="positive"):
        SystemMetadata(frozenset({0}), frozenset(), {"Cu": 0}, (1, 1, 1))


@pytest.mark.parametrize(
    "composition", BAD_COMPOSITIONS.values(), ids=list(BAD_COMPOSITIONS)
)
def test_metadata_rejects_bad_composition(composition):
    with pytest.raises(ValueError, match="catalyst composition"):
        SystemMetadata(frozenset({0}), frozenset(), composition, (1, 1, 1))


@pytest.mark.parametrize(
    "key, value", BAD_SIDECAR_INTEGERS.values(), ids=list(BAD_SIDECAR_INTEGERS)
)
def test_metadata_rejects_non_integer_indices(cu_slab, key, value):
    obj = cu_slab[1].to_json_dict()
    obj[key] = value
    with pytest.raises(ValueError, match="must be integers"):
        SystemMetadata.from_json_dict(obj)


def test_metadata_json_round_trip():
    meta = SystemMetadata(frozenset({8}), frozenset({0, 1}), {"Cu": 8}, (1, 1, 0))
    d = meta.to_json_dict()
    assert d == {
        "adsorbate": [8],
        "surface_top": [0, 1],
        "catalyst_composition": {"Cu": 8},
        "miller": [1, 1, 0],
    }
    assert SystemMetadata.from_json_dict(d) == meta


def test_metadata_accepts_numpy_integers():
    i = np.int64
    meta = SystemMetadata(
        frozenset({i(8)}), frozenset({i(0), np.int32(1)}), {"Cu": i(8)},
        (i(1), i(1), np.uint8(0)),
    )
    d = meta.to_json_dict()
    assert json.loads(json.dumps(d)) == d  # plain ints, JSON-safe
    assert all(type(v) is int for v in d["adsorbate"] + d["surface_top"] + d["miller"])
    assert type(d["catalyst_composition"]["Cu"]) is int
    assert meta == SystemMetadata(frozenset({8}), frozenset({0, 1}), {"Cu": 8}, (1, 1, 0))


def test_metadata_from_json_missing_key():
    with pytest.raises(ValueError, match="missing key"):
        SystemMetadata.from_json_dict({"adsorbate": [0]})


def test_cu_slab_parts(cu_slab):
    structure, meta, expected = cu_slab
    text = to_system_text(structure, meta)
    assert text.adsorbate_part == "H"
    assert text.surface_part == "Cu (1 0 0)"
    assert text.configuration_part == expected["configuration_part"]
    assert text.joined == DEFAULT_SEPARATOR.join(
        ("H", "Cu (1 0 0)", expected["configuration_part"])
    )


def test_cu_slab_interactions(cu_slab):
    structure, meta, expected = cu_slab
    primary, secondary = find_interaction_atoms(structure, meta)
    assert primary == expected["primary"]
    assert secondary == expected["secondary"]


def test_custom_separator(cu_slab):
    structure, meta, _ = cu_slab
    text = to_system_text(structure, meta, separator=" | ")
    assert " | " in text.joined
    assert DEFAULT_SEPARATOR not in text.joined


def test_no_direct_contact():
    # adsorbate floats far above a single surface atom
    s = make_structure(
        ["Cu", "H"],
        [(0.1, 0.1, 0.1), (0.1, 0.1, 0.6)],
        lengths=(6.0, 6.0, 14.0),
    )
    meta = SystemMetadata(frozenset({1}), frozenset({0}), {"Cu": 1}, (1, 0, 0))
    text = to_system_text(s, meta)
    assert text.configuration_part == "no direct contact"
    assert find_interaction_atoms(s, meta) == ([], [])


def test_primary_without_secondary():
    # H bonded to one Cu; the other Cu is too far to bond to the primary
    s = make_structure(
        ["Cu", "Cu", "H"],
        [(0.1, 0.1, 0.30), (0.6, 0.6, 0.30), (0.1, 0.1, 0.44)],
        lengths=(7.0, 7.0, 10.0),
    )
    meta = SystemMetadata(frozenset({2}), frozenset({0, 1}), {"Cu": 2}, (1, 0, 0))
    primary, secondary = find_interaction_atoms(s, meta)
    assert primary == [0]
    assert secondary == []
    assert to_system_text(s, meta).configuration_part == "primary: Cu@Cu1; secondary: none"


def test_secondary_excludes_non_top_layer():
    # Cu2 bonds to the primary Cu1 but is not tagged as top layer
    s = make_structure(
        ["Cu", "Cu", "H"],
        [(0.10, 0.10, 0.30), (0.10, 0.46, 0.30), (0.10, 0.10, 0.44)],
        lengths=(7.0, 7.0, 10.0),
    )
    with_top = SystemMetadata(frozenset({2}), frozenset({0, 1}), {"Cu": 2}, (1, 0, 0))
    without_top = SystemMetadata(frozenset({2}), frozenset({0}), {"Cu": 2}, (1, 0, 0))
    assert find_interaction_atoms(s, with_top)[1] == [1]
    assert find_interaction_atoms(s, without_top)[1] == []


def test_multi_atom_adsorbate_hill_order():
    # CO2-like adsorbate: carbon listed before the oxygens
    s = make_structure(
        ["Cu", "O", "C", "O"],
        [
            (0.10, 0.10, 0.30),
            (0.10, 0.10, 0.60),
            (0.10, 0.28, 0.60),
            (0.10, 0.46, 0.60),
        ],
        lengths=(7.0, 7.0, 10.0),
    )
    meta = SystemMetadata(frozenset({1, 2, 3}), frozenset({0}), {"Cu": 4}, (2, 1, 1))
    text = to_system_text(s, meta)
    assert text.adsorbate_part == "C O O"
    assert text.surface_part == "Cu (2 1 1)"


def test_negative_miller_formatting():
    s = make_structure(["Cu", "H"], [(0.1, 0.1, 0.1), (0.1, 0.1, 0.6)], lengths=(6, 6, 12))
    meta = SystemMetadata(frozenset({1}), frozenset({0}), {"Cu": 1}, (1, -1, 0))
    assert to_system_text(s, meta).surface_part == "Cu (1 -1 0)"


def test_index_out_of_range():
    s = make_structure(["Cu"], [(0.1, 0.1, 0.1)], lengths=(6, 6, 6))
    meta = SystemMetadata(frozenset({5}), frozenset(), {"Cu": 1}, (1, 0, 0))
    with pytest.raises(ValueError, match="out of range"):
        to_system_text(s, meta)


def test_requires_adsorbate():
    s = make_structure(["Cu"], [(0.1, 0.1, 0.1)], lengths=(6, 6, 6))
    meta = SystemMetadata(frozenset(), frozenset({0}), {"Cu": 1}, (1, 0, 0))
    with pytest.raises(ValueError, match="no adsorbate"):
        find_interaction_atoms(s, meta)


def test_determinism(cu_slab):
    structure, meta, _ = cu_slab
    a = to_system_text(structure, meta)
    b = to_system_text(structure, meta)
    assert a == b and a.joined == b.joined
