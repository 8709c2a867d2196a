"""Multi-term reward: sub-scores, weights, flags, and worked examples."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from catloop import geometry, reward
from catloop.cif import parse_cif, serialize_cif
from catloop.elements import COVALENT_RADII
from catloop.reward import (
    DEFAULT_PHYS,
    DEFAULT_WEIGHTS,
    FailureMode,
    PhysConfig,
    RewardWeights,
    corpus_failure_rates,
    passes_hard_constraints,
    pvcp,
    pvcp_from_outcome,
    score_composition,
    score_parse,
    score_physical,
    score_valid,
    validity_checklist,
)
from conftest import (
    MINIMAL_CIF,
    brute_force_pairs,
    make_structure,
    random_lattice_params,
    random_structure,
)


def big_cell_cif(site_rows, cell=8.0, space_group_line="_symmetry_space_group_name_H-M 'P 1'\n"):
    head = (
        "data_x\n"
        f"_cell_length_a {cell}\n"
        f"_cell_length_b {cell}\n"
        f"_cell_length_c {cell}\n"
        "_cell_angle_alpha 90\n_cell_angle_beta 90\n_cell_angle_gamma 90\n"
        + space_group_line
        + "loop_\n_atom_site_label\n_atom_site_type_symbol\n"
        "_atom_site_fract_x\n_atom_site_fract_y\n_atom_site_fract_z\n"
    )
    return head + "".join(site_rows)


# ---------------------------------------------------------------------------
# sub-scores


def test_score_parse(minimal_cif):
    assert score_parse(parse_cif(minimal_cif)) == 1.0
    assert score_parse(parse_cif("garbage")) == 0.0


def test_score_composition_worked_example():
    got = score_composition({"Cu": 4, "O": 1}, {"Cu": 3, "O": 1})
    assert got == pytest.approx(1.0 - 1.0 / 9.0, abs=1e-12)


def test_score_composition_cases():
    assert score_composition({"Cu": 2}, {"Cu": 2}) == 1.0
    assert score_composition({}, {}) == 1.0
    assert score_composition({"Cu": 1}, {"O": 1}) == 0.0  # disjoint
    assert score_composition({"Cu": 3}, {}) == 0.0
    with pytest.raises(ValueError):
        score_composition({"Cu": -1}, {})


def test_score_composition_symmetric_and_bounded():
    rng = np.random.default_rng(17)
    els = ["Cu", "O", "Pt", "H", "Zn"]
    for _ in range(500):
        t = {e: int(rng.integers(0, 9)) for e in rng.choice(els, 3, replace=False)}
        a = {e: int(rng.integers(0, 9)) for e in rng.choice(els, 3, replace=False)}
        s = score_composition(t, a)
        assert 0.0 <= s <= 1.0
        assert s == score_composition(a, t)


def test_validity_checklist_perfect(minimal_cif):
    out = parse_cif(minimal_cif)
    assert all(ok for _, ok in validity_checklist(out))
    assert score_valid(out) == 1.0


@pytest.mark.parametrize(
    "mutate,failing",
    [
        (
            lambda t: t.replace("_symmetry_space_group_name_H-M 'P 1'\n", ""),
            "space_group_present",
        ),
        (
            lambda t: t.replace(
                "_symmetry_space_group_name_H-M 'P 1'",
                "_symmetry_space_group_name_H-M ?",
            ),
            "space_group_present",
        ),
        (
            lambda t: t.replace("_atom_site_label\n", "").replace(
                "Cu1 Cu 0.0 0.0 0.0", "Cu 0.0 0.0 0.0"
            ),
            "site_columns_complete",
        ),
        (
            lambda t: t + "Cu1 Cu 0.5 0.5 0.5\n",
            "site_labels_unique",
        ),
        (
            lambda t: t.replace("Cu1 Cu 0.0 0.0 0.0", "Cu1 Cu 1.7 0.0 0.0"),
            "coordinates_in_window",
        ),
    ],
)
def test_single_validity_violations(minimal_cif, mutate, failing):
    out = parse_cif(mutate(minimal_cif))
    assert out.ok
    checklist = dict(validity_checklist(out))
    assert checklist[failing] is False
    assert sum(1 for ok in checklist.values() if not ok) == 1
    assert score_valid(out) == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_score_physical_full_credit():
    # two Cu at 2.7 A > 0.75 * 2.64, volume per atom 108 inside [3, 200]
    s = make_structure(["Cu", "Cu"], [(0, 0, 0), (2.7 / 6, 0, 0)], lengths=(6, 6, 6))
    assert score_physical(s) == 1.0
    assert passes_hard_constraints(s)


def test_score_physical_overlap_zero():
    s = make_structure(["Cu", "Cu"], [(0.3, 0.3, 0.3), (0.3, 0.3, 0.3)], lengths=(8, 8, 8))
    assert score_physical(s) == 0.0
    assert not passes_hard_constraints(s)


def test_score_physical_distance_ramp():
    # Cu-Cu radius sum 2.64: hard floor 1.32, full credit 1.98.
    # Cell of 7 keeps volume per atom at 171.5, so only the ramp matters.
    d = 1.65  # exactly halfway up the ramp
    s = make_structure(["Cu", "Cu"], [(0, 0, 0), (d / 7, 0, 0)], lengths=(7, 7, 7))
    expected = (d - 1.32) / (1.98 - 1.32)
    assert score_physical(s) == pytest.approx(expected, abs=1e-12)
    assert passes_hard_constraints(s)  # above the hard floor


def test_score_physical_volume_decay_below():
    # H self-images at 1.26 A stay clear of the tiny H-H contact floor,
    # so the score isolates the volume term.
    s = make_structure(["H"], [(0.5, 0.5, 0.5)], lengths=(1.26, 1.26, 1.26))
    vpa = 1.26**3  # about 2.0, below the 3.0 floor
    expected = (vpa - 0.3) / (3.0 - 0.3)
    assert score_physical(s) == pytest.approx(expected, rel=1e-9)


def test_score_physical_volume_decay_above():
    s = make_structure(["Cu"], [(0.5, 0.5, 0.5)], lengths=(6.0, 6.0, 6.0))
    expected = (2000.0 - 216.0) / (2000.0 - 200.0)
    assert score_physical(s) == pytest.approx(expected, rel=1e-9)


def test_score_physical_volume_decade_hits_zero():
    s = make_structure(["Cu"], [(0.5, 0.5, 0.5)], lengths=(13.0, 13.0, 13.0))
    assert s.lattice.volume > 2000.0
    assert score_physical(s) == 0.0


def test_score_physical_degenerate_cell():
    s = make_structure(["Cu", "Cu"], [(0, 0, 0), (0.5, 0.5, 0.5)], lengths=(0.005, 0.005, 0.005))
    assert score_physical(s) == 0.0
    assert not passes_hard_constraints(s)


def reference_physics(structure, cfg=DEFAULT_PHYS):
    """The per-pair loop of the distance credit over `brute_force_pairs`.

    Returns the physics score, the closest-pair notes, the credits of the
    pairs tied at the worst credit below 1, and the hard verdict: no pair
    at or below the hard-overlap fraction of its radius sum.
    """
    elems = structure.elements
    r = [COVALENT_RADII[e] for e in elems]
    rr = np.array(r)
    cut = cfg.full_credit_fraction * (rr[:, None] + rr[None, :])
    factor = 1.0
    worst = None
    credits = []
    hard_pass = True
    for i, j, _image, dist in brute_force_pairs(structure, cut):
        rsum = r[i] + r[j]
        lo = cfg.hard_overlap_fraction * rsum
        hi = cfg.full_credit_fraction * rsum
        if dist <= lo:
            credit = 0.0
            hard_pass = False
        else:
            credit = (dist - lo) / (hi - lo)
        credits.append(credit)
        if credit < factor:
            factor = credit
            worst = (dist, i, j)
    notes = []
    if worst is not None:
        dist, i, j = worst
        notes.append(
            f"closest pair {elems[i]}{i}-{elems[j]}{j} at {dist:.3f} A "
            f"scores {factor:.3f}"
        )
    v_factor, _ = reward._volume_factor(structure, cfg)
    tied = [c for c in credits if c == factor < 1.0]
    return factor * v_factor, notes, tied, hard_pass


def test_no_pair_inside_full_credit_matches_the_general_path():
    # Cu and O 3.46 A apart in a 4 A cube: beyond full credit (1.49 A) and
    # beyond the 1.98 A table cutoff, so the memoized table has no row
    text = serialize_cif(make_structure(["Cu", "O"], [(0, 0, 0), (0.5, 0.5, 0.5)]))
    fresh, filtered = parse_cif(text).structure, parse_cif(text).structure
    assert len(geometry.covalent_pairs(filtered, 2.0)[0]) > 0  # a memo with rows
    results = [geometry.covalent_pairs(s, DEFAULT_PHYS.full_credit_fraction)
               for s in (fresh, filtered)]
    assert len(fresh.__dict__["_pair_table"][1]) == 0  # the early return's case
    (t, rsum), (want, want_rsum) = results
    for col in ("i", "j", "image", "distance"):
        have, ref = getattr(t, col), getattr(want, col)
        assert (have.dtype, have.shape) == (ref.dtype, ref.shape)
    assert (rsum.dtype, rsum.shape) == (want_rsum.dtype, want_rsum.shape) == (
        np.dtype(float), (0,)
    )
    want_score, want_notes, _, want_pass = reference_physics(fresh)
    assert (want_score, want_notes, want_pass) == (1.0, [], True)
    for s in (fresh, filtered):
        assert reward._distance_factor(s, DEFAULT_PHYS) == (1.0, [], True)
    got = pvcp(text, {"Cu": 1, "O": 1})
    assert (got.s_phys, got.hard_pass, got.diagnostics) == (1.0, True, ())
    outcome = dataclasses.replace(parse_cif(text), structure=filtered)
    assert pvcp_from_outcome(outcome, {"Cu": 1, "O": 1}) == got


def grid_structure(rng):
    """Sites on a 1/8 grid, so equal displacements give bit-equal distances.

    Half the cells are doubled along one axis: every pair then has a
    translated twin at the same distance, so the worst credit is tied.  Half
    of the rest get a coincident pair.
    """
    n = int(rng.integers(2, 7))
    species = list(rng.choice(["Cu", "O", "H"], size=n))
    coords = rng.integers(0, 8, size=(n, 3)) / 8.0
    lengths, angles = random_lattice_params(rng)
    if rng.random() < 0.5:
        axis = int(rng.integers(3))
        coords[:, axis] /= 2.0
        twin = coords.copy()
        twin[:, axis] += 0.5
        coords, species = np.vstack([coords, twin]), species * 2
        lengths = tuple(2.0 * v if a == axis else v for a, v in enumerate(lengths))
    elif rng.random() < 0.5:
        coords[-1] = coords[0]
    return make_structure(species, coords, lengths=lengths, angles=angles)


def test_physics_score_matches_reference_loop():
    rng = np.random.default_rng(41)
    seen = dict.fromkeys(
        ("coincident", "zero_credit", "tied_zero", "tied_positive", "hard_fail"), 0
    )
    for k in range(240):
        s = random_structure(rng, max_sites=6) if k % 3 == 0 else grid_structure(rng)
        want_score, want_notes, tied, want_pass = reference_physics(s)
        score, notes, hard_pass = reward._assess_physical(s)
        closest = [note for note in notes if note.startswith("closest pair")]
        assert (score, closest, hard_pass) == (want_score, want_notes, want_pass)
        assert score_physical(s) == want_score
        assert passes_hard_constraints(s) is want_pass
        seen["hard_fail"] += not want_pass
        frac = s.frac
        seen["coincident"] += any(
            np.array_equal(frac[a], frac[b])
            for a in range(len(frac)) for b in range(a)
        )
        seen["zero_credit"] += bool(tied) and tied[0] == 0.0
        seen["tied_zero"] += len(tied) > 1 and tied[0] == 0.0
        seen["tied_positive"] += len(tied) > 1 and tied[0] > 0.0
    # the corpus holds the cases the first-minimum rule must get right
    assert all(count >= 10 for count in seen.values()), seen


def test_phys_config_validation():
    with pytest.raises(ValueError):
        PhysConfig(hard_overlap_fraction=0.8, full_credit_fraction=0.75)
    with pytest.raises(ValueError):
        PhysConfig(vpa_min=0.0)
    with pytest.raises(ValueError):
        PhysConfig(vpa_min=300.0, vpa_max=200.0)


# ---------------------------------------------------------------------------
# weights and totals


def test_default_weights():
    assert (DEFAULT_WEIGHTS.comp, DEFAULT_WEIGHTS.parse) == (0.6, 0.2)
    assert (DEFAULT_WEIGHTS.valid, DEFAULT_WEIGHTS.phys) == (0.1, 0.1)


def test_weights_validation():
    with pytest.raises(ValueError):
        RewardWeights(comp=0.7, parse=0.2, valid=0.1, phys=0.1)
    with pytest.raises(ValueError):
        RewardWeights(comp=-0.1, parse=0.6, valid=0.3, phys=0.2)
    w = RewardWeights(comp=0.25, parse=0.25, valid=0.25, phys=0.25)
    assert w.comp == 0.25


def test_total_is_weighted_sum(minimal_cif):
    br = pvcp(minimal_cif, {"Cu": 1})
    expected = (
        DEFAULT_WEIGHTS.comp * br.s_comp
        + DEFAULT_WEIGHTS.parse * br.s_parse
        + DEFAULT_WEIGHTS.valid * br.s_valid
        + DEFAULT_WEIGHTS.phys * br.s_phys
    )
    assert abs(br.total - expected) <= 1e-12


def test_weight_linearity():
    # doubling one weight (renormalized) moves the total exactly linearly
    text = big_cell_cif(["Cu1 Cu 0.1 0.1 0.1\n", "O1 O 0.5 0.5 0.5\n"])
    raw = {"comp": 0.6, "parse": 0.2, "valid": 0.2, "phys": 0.1}
    w2 = RewardWeights(**{k: v / 1.1 for k, v in raw.items()})
    br1 = pvcp(text, {"Cu": 1})
    br2 = pvcp(text, {"Cu": 1}, weights=w2)
    expected = (
        w2.comp * br1.s_comp
        + w2.parse * br1.s_parse
        + w2.valid * br1.s_valid
        + w2.phys * br1.s_phys
    )
    assert abs(br2.total - expected) <= 1e-12


# ---------------------------------------------------------------------------
# the composite worked example and flags


def composite_example_text():
    """Parses fine, exact composition, missing space group, overlapping pair."""
    return big_cell_cif(
        ["Cu1 Cu 0.2 0.2 0.2\n", "Cu2 Cu 0.2 0.2 0.2\n"],
        cell=4.0,
        space_group_line="",
    )


def test_composite_example_value():
    br = pvcp(composite_example_text(), {"Cu": 2})
    assert br.s_parse == 1.0
    assert br.s_comp == 1.0
    assert br.s_valid == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert br.s_phys == 0.0
    assert abs(br.total - 0.8833333333333333) <= 1e-9
    assert br.failure_flags == frozenset(
        {FailureMode.VALIDITY_FAILURE, FailureMode.PHYSICS_VIOLATION}
    )
    assert br.flag_codes() == ["PV", "VF"]


def test_perfect_candidate(minimal_cif):
    br = pvcp(minimal_cif, {"Cu": 1})
    assert br.total == 1.0
    assert br.failure_flags == frozenset()
    assert br.diagnostics == ()


def test_parse_failure_zeroes_everything():
    br = pvcp("not a cif at all", {"Cu": 1})
    assert (br.s_parse, br.s_valid, br.s_comp, br.s_phys, br.total) == (0, 0, 0, 0, 0)
    assert br.failure_flags == frozenset({FailureMode.PARSE_FAILURE})
    assert br.diagnostics  # defect messages surface here


def test_flags_only_on_shortfall(minimal_cif):
    br = pvcp(minimal_cif, {"O": 1})  # wrong composition only
    assert br.failure_flags == frozenset({FailureMode.COMPOSITION_MISMATCH})
    assert br.s_comp == 0.0


def test_bytes_input_scored():
    br = pvcp(MINIMAL_CIF.encode(), {"Cu": 1})
    assert br.total == 1.0


def test_to_json_dict(minimal_cif):
    d = pvcp(minimal_cif, {"Cu": 1}).to_json_dict()
    assert d["total"] == 1.0
    assert d["failure_flags"] == []
    assert set(d) == {
        "s_parse", "s_valid", "s_comp", "s_phys", "total",
        "failure_flags", "diagnostics",
    }


def test_fuzz_bounds_random_structures():
    rng = np.random.default_rng(23)
    for _ in range(300):
        s = random_structure(rng)
        target = {"Cu": int(rng.integers(0, 5)), "O": int(rng.integers(0, 5))}
        br = pvcp(serialize_cif(s), target)
        for v in (br.s_parse, br.s_valid, br.s_comp, br.s_phys, br.total):
            assert 0.0 <= v <= 1.0


def test_corpus_failure_rates():
    texts = [
        MINIMAL_CIF,            # clean
        "garbage",              # PF
        composite_example_text(),  # VF + PV
    ]
    rates = corpus_failure_rates(pvcp(t, {"Cu": 2}) for t in texts)
    assert rates["PF"] == pytest.approx(100.0 / 3.0)
    assert rates["VF"] == pytest.approx(100.0 / 3.0)
    assert rates["PV"] == pytest.approx(100.0 / 3.0)
    assert rates["CM"] == pytest.approx(100.0 / 3.0)  # minimal_cif has 1 Cu, not 2
    assert corpus_failure_rates([]) == {"PF": 0.0, "VF": 0.0, "CM": 0.0, "PV": 0.0}


def test_score_in_chunks_releases_each_chunk():
    """A chunk's structures die once the next chunk is scored; none stays grouped."""
    chunk = reward._SCORE_CHUNK
    rng = np.random.default_rng(5)
    texts = [serialize_cif(random_structure(rng)) for _ in range(2 * chunk + 2)]
    texts[3] = "junk"
    first: list[weakref.ref] = []
    grouped: list[bool] = []

    def score(k, outcome):
        if k == chunk:
            # refcounting alone must free them: no cycle through the grouping
            assert first and all(ref() is None for ref in first)
        pvcp_from_outcome(outcome, {})
        if k < chunk:
            if outcome.ok:
                first.append(weakref.ref(outcome.structure))
            return None
        grouped.append("_pair_group" in outcome.structure.__dict__)
        return outcome.structure

    gc.disable()
    try:
        results = reward._score_in_chunks(texts, score)
    finally:
        gc.enable()
    assert len(results) == len(texts) and all(grouped)
    kept = results[chunk:]
    assert not any("_pair_group" in s.__dict__ for s in kept)
    assert all("_pair_table" in s.__dict__ for s in kept)
