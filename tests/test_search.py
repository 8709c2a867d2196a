"""Closed-loop search: surrogates, defect injection, the pool, and the loop."""

import dataclasses
import hashlib
import json
import math
import time

import numpy as np
import pytest

from catloop import geometry, reward, search
from catloop.cif import parse_cif, serialize_cif
from catloop.elements import COVALENT_RADII
from catloop.geometry import iter_periodic_pairs, min_pair_distance, volume_per_atom
from catloop.reward import (
    DEFAULT_PHYS,
    DEFAULT_WEIGHTS,
    FailureMode,
    passes_hard_constraints,
    pvcp,
)
from catloop.search import (
    CandidateGenerator,
    DefectRates,
    EnergyPredictor,
    ExemplarPool,
    MutationGenerator,
    PairPotentialSurrogate,
    PoolEntry,
    PoolInitializationError,
    SearchConfig,
    combined_reward,
    energy_reward,
    initialize_pool,
    refine_step,
    run_search,
)
from conftest import MINIMAL_CIF, make_structure, random_structure


class FixedPredictor:
    """Returns a constant energy regardless of the structure."""

    def __init__(self, value: float):
        self.value = value

    def predict(self, structure) -> float:
        return self.value


class FailingPredictor:
    def predict(self, structure) -> float:
        raise RuntimeError("model unavailable")


# ---------------------------------------------------------------------------
# energy reward


def test_energy_reward_exact_match():
    assert energy_reward(-3.2, -3.2, 1.0) == 1.0


def test_energy_reward_frozen_value():
    assert energy_reward(0.5, 0.0, 1.0) == pytest.approx(0.6065306597126334, abs=1e-15)
    assert energy_reward(-1.0, -0.5, 1.0) == pytest.approx(
        0.6065306597126334, abs=1e-15
    )  # depends only on |delta|


def test_energy_reward_lambda_scaling():
    assert energy_reward(1.0, 0.0, 2.0) == pytest.approx(math.exp(-2.0), abs=1e-15)
    assert 0.0 < energy_reward(50.0, 0.0, 1.0) <= 1.0


def test_energy_reward_validation():
    with pytest.raises(ValueError):
        energy_reward(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        energy_reward(1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        energy_reward(float("nan"), 0.0, 1.0)


# ---------------------------------------------------------------------------
# pair-potential surrogate


def cu_dimer(distance, cell=20.0):
    return make_structure(
        ["Cu", "Cu"],
        [(0.1, 0.1, 0.1), (0.1 + distance / cell, 0.1, 0.1)],
        lengths=(cell, cell, cell),
    )


def test_surrogate_dimer_at_minimum():
    # well depth 0.4 * (1.32 + 1.32) / 2 = 0.528 eV at d = radius sum
    surr = PairPotentialSurrogate()
    assert surr.predict(cu_dimer(2.64)) == pytest.approx(-0.528, abs=1e-12)


def test_surrogate_minimum_is_lowest():
    surr = PairPotentialSurrogate()
    e_min = surr.predict(cu_dimer(2.64))
    for d in (2.0, 2.3, 3.0, 3.5, 5.0):
        assert surr.predict(cu_dimer(d)) > e_min


def test_surrogate_repulsive_wall_capped():
    surr = PairPotentialSurrogate()
    s = make_structure(
        ["Cu", "Cu"], [(0.3, 0.3, 0.3), (0.3, 0.3, 0.3)], lengths=(20, 20, 20)
    )
    assert surr.predict(s) == 1000.0  # the single coincident pair hits the cap


def test_surrogate_cutoff():
    assert PairPotentialSurrogate.CUTOFF == 6.0
    assert PairPotentialSurrogate().predict(cu_dimer(7.0)) == 0.0


def test_surrogate_deterministic():
    surr = PairPotentialSurrogate()
    s = cu_dimer(2.9)
    assert surr.predict(s) == surr.predict(s)


def loop_predict(structure):
    """The 12-6 sum as a running total over the pair table, one row at a time."""
    r = np.array([COVALENT_RADII[e] for e in structure.elements])
    surr = PairPotentialSurrogate
    total = 0.0
    t = iter_periodic_pairs(structure, surr.CUTOFF)
    for i, j, dist in zip(t.i.tolist(), t.j.tolist(), t.distance.tolist()):
        rsum = r[i] + r[j]
        eps = surr.DEPTH_SCALE * rsum / 2.0
        sigma = rsum / 2.0 ** (1.0 / 6.0)
        if dist < 1e-9:
            total += surr.BOND_CAP
            continue
        x6 = (sigma / dist) ** 6
        total += min(surr.BOND_CAP, 4.0 * eps * (x6 * x6 - x6))
    return total


def test_surrogate_equals_running_total():
    rng = np.random.default_rng(53)
    structures = [random_structure(rng, max_sites=12) for _ in range(40)]
    structures.append(make_structure(  # coincident; 1e-12 and 1e-9 (fractional) apart
        ["Cu", "Cu", "O", "O", "Pt", "Pt"],
        [(0.3, 0.3, 0.3), (0.3, 0.3, 0.3), (0.6, 0.5, 0.4),
         (0.6, 0.5, 0.4 + 1e-12), (0.1, 0.8, 0.2), (0.1, 0.8, 0.2 + 1e-9)],
        lengths=(5.0, 6.0, 7.0), angles=(80, 100, 70),
    ))
    surr = PairPotentialSurrogate()
    for s in structures:
        assert surr.predict(s) == loop_predict(s)
    # a cell whose 6 A table is empty: 0.0 as a Python float
    empty = cu_dimer(7.0)
    assert not len(iter_periodic_pairs(empty, 6.0))
    energy = PairPotentialSurrogate().predict(empty)
    assert type(energy) is float and energy == 0.0


def test_float_power_is_libm_pow_over_the_surrogate_domain():
    # `predict` raises sigma / d to the sixth power with np.float_power, whose
    # float64 loop calls libm pow as math.pow does.  A numpy whose float_power
    # took another path would move every search digest; this names the cause.
    radii = list(COVALENT_RADII.values())
    lo = 2.0 * min(radii) / 2.0 ** (1.0 / 6.0) / PairPotentialSurrogate.CUTOFF
    hi = 2.0 * max(radii) / 2.0 ** (1.0 / 6.0) / 1e-9  # the coincidence threshold
    x = np.exp(np.random.default_rng(59).uniform(np.log(lo), np.log(hi), 300_000))
    want = np.array([math.pow(v, 6.0) for v in x.tolist()])
    assert np.float_power(x, 6.0).tobytes() == want.tobytes()


def test_stand_ins_take_no_tuning_settings():
    # the jitters, the spacing clamp and the 12-6 constants are fixed, so no
    # caller can void the clean-candidate guarantee criterion 6 relies on
    assert [f.name for f in dataclasses.fields(MutationGenerator)] == ["defect_rates"]
    assert dataclasses.fields(PairPotentialSurrogate) == ()
    for key in ("coord_jitter", "lattice_jitter", "spacing_floor", "spacing_cap"):
        with pytest.raises(TypeError):
            MutationGenerator(**{key: 0.04})
    for key in ("depth_scale", "cutoff", "bond_cap"):
        with pytest.raises(TypeError):
            PairPotentialSurrogate(**{key: 5.0})


def test_surrogate_satisfies_protocol():
    assert isinstance(PairPotentialSurrogate(), EnergyPredictor)
    assert isinstance(FixedPredictor(0.0), EnergyPredictor)
    assert isinstance(MutationGenerator(), CandidateGenerator)


# ---------------------------------------------------------------------------
# mutation generator, clean mode


def test_defect_rates_validation():
    DefectRates(syntax=0.0, missing_field=1.0)
    with pytest.raises(ValueError):
        DefectRates(syntax=1.5)
    with pytest.raises(ValueError):
        DefectRates(overlap=-0.1)


def test_unconditioned_deterministic():
    gen = MutationGenerator()
    a = gen.propose(None, {"Cu": 4, "O": 2}, 7)
    b = gen.propose(None, {"Cu": 4, "O": 2}, 7)
    c = gen.propose(None, {"Cu": 4, "O": 2}, 8)
    assert a == b
    assert a != c


@pytest.mark.parametrize(
    "target",
    [{"Cu": 1}, {"Cu": 4, "O": 2}, {"H": 3}, {"Pt": 2, "Ni": 5, "O": 3}],
)
def test_unconditioned_candidates_are_clean(target):
    gen = MutationGenerator()
    for seed in range(5):
        text = gen.propose(None, target, seed)
        br = pvcp(text, target)
        assert br.total == 1.0, br.to_json_dict()
        assert br.failure_flags == frozenset()


@pytest.mark.parametrize(
    "element", sorted(el for el, r in COVALENT_RADII.items() if r <= 2.5)
)
def test_unconditioned_candidates_are_clean_for_every_element(element):
    # the docstring's guarantee, which the spacing constants carry: criterion
    # 6 and the stratified validate corpus assume these candidates are clean
    gen = MutationGenerator()
    for target in ({element: 3}, {element: 2, "O": 2}):
        for seed in range(3):
            br = pvcp(gen.propose(None, target, seed), target)
            assert br.total == 1.0 and br.failure_flags == frozenset(), (target, seed)
            assert gen.expected_failure_flags(seed, target) == frozenset()


def test_unconditioned_geometry_guarantees():
    gen = MutationGenerator()
    spacing = 2.2 * 1.32  # Cu radius dominates; inside [1.9, 4.2]
    for seed in range(10):
        out = parse_cif(gen.propose(None, {"Cu": 5, "O": 3}, seed))
        s = out.structure
        assert min_pair_distance(s) >= 0.9 * spacing - 1e-9
        assert 3.0 < volume_per_atom(s) < 200.0


def test_unconditioned_composition_matches_target():
    gen = MutationGenerator()
    out = parse_cif(gen.propose(None, {"Zn": 2, "O": 2}, 3))
    from catloop.cif import composition_of

    assert composition_of(out.structure) == {"O": 2, "Zn": 2}


def test_unconditioned_empty_target_raises():
    with pytest.raises(ValueError):
        MutationGenerator().propose(None, {}, 0)


# ---------------------------------------------------------------------------
# mutation generator, conditioned mode


def exemplar_structure():
    gen = MutationGenerator()
    return parse_cif(gen.propose(None, {"Cu": 4, "O": 2}, 11)).structure


def test_conditioned_deterministic():
    gen = MutationGenerator()
    ex = exemplar_structure()
    assert gen.propose(ex, {"Cu": 4, "O": 2}, 5) == gen.propose(ex, {"Cu": 4, "O": 2}, 5)


def test_conditioned_stays_near_exemplar():
    from catloop.cif import frac_circle_distance

    gen = MutationGenerator()
    ex = exemplar_structure()
    for seed in range(10):
        out = parse_cif(gen.propose(ex, {"Cu": 4, "O": 2}, seed))
        mut = out.structure
        assert mut.labels == ex.labels
        assert mut.elements == ex.elements
        assert np.all(frac_circle_distance(ex.frac, mut.frac) <= 0.05 + 1e-9)
        for dim in ("a", "b", "c"):
            old_len = getattr(ex.lattice, dim)
            new_len = getattr(mut.lattice, dim)
            assert abs(new_len - old_len) / old_len <= 0.02 + 1e-9


def test_conditioned_candidates_usually_clean():
    gen = MutationGenerator()
    ex = exemplar_structure()
    totals = [pvcp(gen.propose(ex, {"Cu": 4, "O": 2}, s), {"Cu": 4, "O": 2}).total
              for s in range(20)]
    # small jitter on a well-spaced grid: clean in the vast majority of draws
    assert sum(1 for t in totals if t == 1.0) >= 18


# ---------------------------------------------------------------------------
# defect injection


TARGET = {"Cu": 4, "O": 2}


@pytest.mark.parametrize(
    "rates,flag",
    [
        (DefectRates(syntax=1.0), "PF"),
        (DefectRates(missing_field=1.0), "VF"),
        (DefectRates(composition=1.0), "CM"),
        (DefectRates(overlap=1.0), "PV"),
    ],
)
def test_single_class_injection(rates, flag):
    gen = MutationGenerator(defect_rates=rates)
    for seed in range(5):
        assert gen.expected_failure_flags(seed, TARGET) == frozenset({flag})
        br = pvcp(gen.propose(None, TARGET, seed), TARGET)
        assert br.flag_codes() == [flag]


def test_injection_matches_prediction_at_mixed_rates():
    rates = DefectRates(syntax=0.2, missing_field=0.3, composition=0.4, overlap=0.3)
    gen = MutationGenerator(defect_rates=rates)
    seen = set()
    for seed in range(200):
        expected = gen.expected_failure_flags(seed, TARGET)
        br = pvcp(gen.propose(None, TARGET, seed), TARGET)
        assert frozenset(br.flag_codes()) == expected, seed
        seen.add(expected)
    assert frozenset() in seen  # some candidates stay clean
    assert frozenset({"PF"}) in seen


def test_syntax_masks_other_flags():
    gen = MutationGenerator(defect_rates=DefectRates(syntax=1.0, overlap=1.0))
    assert gen.expected_failure_flags(0, TARGET) == frozenset({"PF"})
    br = pvcp(gen.propose(None, TARGET, 0), TARGET)
    assert br.flag_codes() == ["PF"]


def test_substreams_are_independent():
    classes = [f.name for f in dataclasses.fields(DefectRates)]
    all_on = MutationGenerator(defect_rates=DefectRates(**dict.fromkeys(classes, 0.5)))
    for off in classes:
        rates = dict.fromkeys(classes, 0.5)
        rates[off] = 0.0
        ablated = MutationGenerator(defect_rates=DefectRates(**rates))
        for seed in range(100):
            a = all_on.injected_defects(seed, TARGET)
            b = ablated.injected_defects(seed, TARGET)
            # turning one class off never flips another class's decision
            assert b == a - {off}, (off, seed)


def test_defect_table_follows_the_rates_fields():
    assert [name for name, _, _ in search._DEFECT_CLASSES] == [
        f.name for f in dataclasses.fields(DefectRates)
    ]


@pytest.mark.parametrize("on", range(16))
def test_expected_flags_equal_pvcp_for_every_class_subset(on):
    classes = [f.name for f in dataclasses.fields(DefectRates)]
    rates = {name: float(on >> k & 1) for k, name in enumerate(classes)}
    gen = MutationGenerator(defect_rates=DefectRates(**rates))
    flags = {"syntax": "PF", "missing_field": "VF", "composition": "CM", "overlap": "PV"}
    want = frozenset(flags[name] for name, rate in rates.items() if rate)
    if "PF" in want:
        want = frozenset({"PF"})  # a parse failure masks every other flag
    for seed in range(3):
        assert gen.expected_failure_flags(seed, TARGET) == want
        br = pvcp(gen.propose(None, TARGET, seed), TARGET)
        assert frozenset(br.flag_codes()) == want, (rates, seed)


def test_overlap_needs_two_atoms():
    gen = MutationGenerator(defect_rates=DefectRates(overlap=1.0))
    assert gen.injected_defects(0, {"Cu": 1}) == frozenset()
    br = pvcp(gen.propose(None, {"Cu": 1}, 0), {"Cu": 1})
    assert br.total == 1.0


def test_injection_rates_recovered():
    rates = DefectRates(syntax=0.15, overlap=0.4)
    gen = MutationGenerator(defect_rates=rates)
    n = 2000
    hits = {"syntax": 0, "overlap": 0}
    for seed in range(n):
        inj = gen.injected_defects(seed, TARGET)
        for name in hits:
            hits[name] += name in inj
    # independent Bernoulli draws: observed rate within ~3 sigma
    assert abs(hits["syntax"] / n - 0.15) < 3 * math.sqrt(0.15 * 0.85 / n)
    assert abs(hits["overlap"] / n - 0.4) < 3 * math.sqrt(0.4 * 0.6 / n)


# SHA-256 over `propose` texts, each followed by a NUL, in the loop order of
# `_propose_digest`, for the clean generator and at the criterion-6 rates.
# The generator's bytes feed every search digest and the validate corpora, so
# a change here is a deliberate re-baseline.  The clean texts do not depend
# on how the defect decisions are drawn: a change to those moves only the
# defect digest.
PROPOSE_DIGESTS = {
    "clean": "f12f205bbf7666b2e22965fac76b5a182aff45667aa2528d0b49278073bac893",
    "defect": "f5c38339db754672192d4f7de28c4dd4ca6bf39c3c161840965b23ecc4589ad3",
}


def _propose_digest(rates: DefectRates) -> str:
    gen = MutationGenerator(defect_rates=rates)
    sha = hashlib.sha256()
    for target in ({"Cu": 4, "O": 2}, {"Cu": 43, "O": 21}, {"Pt": 2, "O": 2, "H": 1}):
        exemplar = parse_cif(MutationGenerator().propose(None, target, 1000)).structure
        for ex in (None, exemplar):
            for seed in range(250):
                sha.update(gen.propose(ex, target, seed).encode())
                sha.update(b"\0")
    return sha.hexdigest()


def test_propose_bytes_are_pinned():
    criterion_6 = DefectRates(
        syntax=0.10, missing_field=0.15, composition=0.20, overlap=0.25
    )
    digests = {
        "clean": _propose_digest(DefectRates()),
        "defect": _propose_digest(criterion_6),
    }
    assert digests == PROPOSE_DIGESTS


# ---------------------------------------------------------------------------
# combined reward


def base_config(**kw):
    defaults = dict(target_energy=0.0, target_composition={"Cu": 1})
    defaults.update(kw)
    return SearchConfig(**defaults)


def test_combined_reward_frozen_value():
    # perfect formatting score, energy off by 0.5 eV at lambda 1
    cfg = base_config()
    br = combined_reward(MINIMAL_CIF, FixedPredictor(0.5), cfg)
    assert br.score == pytest.approx(0.7245714617988434, abs=1e-12)
    assert br.energy == 0.5
    assert br.pvcp.total == 1.0
    assert br.pvcp.hard_pass and br.pvcp.s_parse == 1.0


def test_combined_reward_parse_failure():
    br = combined_reward("nope", FixedPredictor(0.0), base_config())
    assert br.score == 0.0
    assert br.pvcp.s_parse == 0.0 and not br.pvcp.hard_pass
    assert "PF" in br.pvcp.flag_codes()
    assert br.energy is None
    assert "parse failure" in br.diagnostics


def test_combined_reward_predictor_failure():
    br = combined_reward(MINIMAL_CIF, FailingPredictor(), base_config())
    assert br.score == 0.0
    assert br.pvcp.s_parse == 1.0 and br.energy is None
    assert any("predictor failed" in d for d in br.diagnostics)


@pytest.mark.parametrize(
    "a, phys_note", [(0.1, "closest pair"), (0.011, "lattice images")]
)
def test_tiny_cell_scores_zero_in_bounded_time(a, phys_note):
    # One Cu atom in a cell far smaller than a bond: the distance credit at
    # a = 0.1 A still fits the image budget, the 6 A surrogate never does.
    text = MINIMAL_CIF.replace("4.0", str(a))
    start = time.perf_counter()
    br = pvcp(text, {"Cu": 1})
    assert br.s_phys == 0.0
    assert any(phys_note in d for d in br.diagnostics)
    assert not passes_hard_constraints(parse_cif(text).structure)
    cb = combined_reward(text, PairPotentialSurrogate(), base_config())
    assert cb.score == 0.0 and cb.pvcp.s_parse == 1.0 and not cb.pvcp.hard_pass
    assert any(
        "predictor failed" in d and "lattice images" in d for d in cb.diagnostics
    )
    assert time.perf_counter() - start < 1.0


def test_combined_reward_nonfinite_energy():
    br = combined_reward(MINIMAL_CIF, FixedPredictor(float("inf")), base_config())
    assert br.score == 0.0
    assert br.energy is None


def test_one_pair_table_per_scored_candidate(monkeypatch):
    # the surrogate's 6 A table is the widest one a candidate needs, so the
    # physics score filters it instead of rebuilding, in one covalent query
    # that gives both the distance credit and the hard verdict
    spacings = geometry._slab_spacings
    builds = []
    monkeypatch.setattr(
        geometry, "_slab_spacings", lambda m: builds.append(1) or spacings(m)
    )
    covalent_pairs = reward.covalent_pairs
    queries = []
    monkeypatch.setattr(
        reward, "covalent_pairs",
        lambda s, scale: queries.append(scale) or covalent_pairs(s, scale),
    )
    target = {"Cu": 4, "O": 2}
    gen = MutationGenerator()
    exemplar = parse_cif(gen.propose(None, target, 0)).structure
    cfg = base_config(target_composition=target)
    for seed in range(6):
        for parent in (None, exemplar):
            builds.clear()
            queries.clear()
            text = gen.propose(parent, target, seed)
            br = combined_reward(text, PairPotentialSurrogate(), cfg)
            assert br.pvcp.hard_pass and br.energy is not None
            assert len(builds) == 1
            assert queries == [DEFAULT_PHYS.full_credit_fraction]
    # a whole generation: one query per parsed candidate, none more
    queries.clear()
    scores, entries = search._generation(
        gen, PairPotentialSurrogate(), cfg, np.random.default_rng(0), exemplar,
        8, 1, DEFAULT_WEIGHTS, DEFAULT_PHYS,
    )
    assert len(scores) == len(entries) == len(queries) == 8


def test_search_config_validation():
    with pytest.raises(ValueError):
        base_config(energy_weight=0.5, pvcp_weight=0.6)
    with pytest.raises(ValueError):
        base_config(lambda_energy=0.0)
    with pytest.raises(ValueError):
        base_config(pool_capacity=0)
    with pytest.raises(ValueError):
        base_config(success_tolerance=0.0)
    with pytest.raises(ValueError):
        base_config(target_energy=float("nan"))
    with pytest.raises(TypeError):
        base_config(pool_capacity=2.5)
    with pytest.raises(ValueError):
        base_config(target_composition=["Cu"])
    for empty in ({}, {"Cu": 0}):
        with pytest.raises(ValueError, match="needs at least one atom"):
            base_config(target_composition=empty)
    # the most sites a CIF under the parser cap can hold: 8 characters a row
    assert base_config(target_composition={"Cu": 131071, "O": 1})
    with pytest.raises(ValueError, match="holds more than 131072"):
        base_config(target_composition={"Cu": 131072, "O": 1})
    with pytest.raises(TypeError, match="target_composition"):
        SearchConfig(target_energy=0.0)  # a target is required
    cfg = base_config(seed=np.int64(3), iterations=np.int32(2),
                      target_composition={"Cu": np.int64(4), "O": 2})
    assert type(cfg.seed) is int and type(cfg.iterations) is int  # JSON-safe
    assert type(cfg.target_composition["Cu"]) is int
    json.dumps(dataclasses.asdict(cfg))


@pytest.mark.parametrize(
    "composition, error",
    [
        ({"Cu": 2.5}, ValueError),
        ({"Cu": "4"}, ValueError),
        ({"Xx": 2}, ValueError),
        ({"Cu": True, "O": 1}, ValueError),
        ({"Cu": -1}, ValueError),
    ],
)
def test_search_config_rejects_bad_target_counts(composition, error):
    with pytest.raises(error):
        base_config(target_composition=composition)


# ---------------------------------------------------------------------------
# exemplar pool


def entry(score, tag=0):
    s = make_structure(["Cu"], [(0.1, 0.1, 0.1)], lengths=(6, 6, 6))
    return PoolEntry(
        structure=s,
        cif_text=serialize_cif(s),
        score=score,
        energy=-1.0,
        iteration=tag,
    )


def test_pool_ctor_validation():
    with pytest.raises(ValueError):
        ExemplarPool([entry(1.0)], capacity=2)
    with pytest.raises(ValueError):
        ExemplarPool([], capacity=0)
    with pytest.raises(ValueError):
        ExemplarPool([entry(1.0)], capacity=0)


def test_pool_ordering_and_accessors():
    pool = ExemplarPool([entry(0.3), entry(0.9), entry(0.5)], capacity=3)
    assert pool.scores() == [0.9, 0.5, 0.3]
    assert pool.min_score == 0.3
    assert pool.max_score == 0.9
    assert pool.best.score == 0.9
    assert len(pool) == 3


def test_pool_stable_ties():
    first, second = entry(0.5, tag=1), entry(0.5, tag=2)
    pool = ExemplarPool([first, second, entry(0.7, tag=3)], capacity=3)
    tied = [e.iteration for e in pool.entries if e.score == 0.5]
    assert tied == [1, 2]  # insertion order preserved among equals
    # more entries than capacity: the best are kept, and of a tie the first
    entries = [entry(0.5, tag=1), entry(0.2, tag=2), entry(0.5, tag=3),
               entry(0.7, tag=4), entry(0.5, tag=5)]
    pool = ExemplarPool(entries, capacity=3)
    assert [(e.score, e.iteration) for e in pool.entries] == [
        (0.7, 4), (0.5, 1), (0.5, 3)
    ]


def test_try_replace_strict_improvement():
    pool = ExemplarPool([entry(0.3), entry(0.5)], capacity=2)
    assert not pool.try_replace(entry(0.3))  # equal: rejected
    assert not pool.try_replace(entry(0.1))
    assert pool.try_replace(entry(0.4))
    assert pool.scores() == [0.5, 0.4]
    assert pool.try_replace(entry(0.9))
    assert pool.scores() == [0.9, 0.5]


def test_pool_min_never_decreases_under_replacement():
    rng = np.random.default_rng(3)
    pool = ExemplarPool([entry(s) for s in rng.uniform(0, 0.2, 4)], capacity=4)
    floor = pool.min_score
    for _ in range(300):
        pool.try_replace(entry(float(rng.uniform(0, 1))))
        assert pool.min_score >= floor
        floor = pool.min_score
    assert len(pool) == 4


def test_tie_insertion_goes_after_existing():
    a, b = entry(0.5, tag=1), entry(0.3, tag=2)
    pool = ExemplarPool([a, b], capacity=2)
    pool.try_replace(entry(0.5, tag=9))
    assert [e.iteration for e in pool.entries] == [1, 9]


def test_pool_sample_uniform_coverage():
    pool = ExemplarPool([entry(s, tag=i) for i, s in enumerate((0.1, 0.2, 0.3))],
                        capacity=3)
    rng = np.random.default_rng(0)
    seen = {pool.sample(rng).iteration for _ in range(100)}
    assert seen == {0, 1, 2}


# ---------------------------------------------------------------------------
# initialization and refinement


def test_initialize_pool_fills_with_best():
    cfg = base_config(
        target_composition={"Cu": 3, "O": 1},
        pool_capacity=4,
        init_candidates=16,
        init_rounds=2,
        target_energy=-2.0,
    )
    pool, stats = initialize_pool(
        MutationGenerator(), PairPotentialSurrogate(), cfg, np.random.default_rng(0)
    )
    assert len(pool) == 4
    assert stats["rounds"] == 1
    assert stats["generated"] == 16
    assert stats["passed"] >= 4
    assert stats["best_abs_delta"] is not None
    assert pool.scores() == sorted(pool.scores(), reverse=True)


def test_initialize_pool_multiple_rounds():
    cfg = base_config(
        target_composition={"Cu": 2},
        pool_capacity=6,
        init_candidates=4,
        init_rounds=5,
    )
    pool, stats = initialize_pool(
        MutationGenerator(), PairPotentialSurrogate(), cfg, np.random.default_rng(0)
    )
    assert stats["rounds"] == 2
    assert stats["generated"] == 8
    assert len(pool) == 6


def test_initialize_pool_failure_raises():
    cfg = base_config(
        target_composition={"Cu": 2},
        pool_capacity=2,
        init_candidates=4,
        init_rounds=2,
    )
    gen = MutationGenerator(defect_rates=DefectRates(overlap=1.0))
    with pytest.raises(PoolInitializationError, match="0 of 2"):
        initialize_pool(gen, PairPotentialSurrogate(), cfg, np.random.default_rng(0))


def test_initialize_pool_failing_predictor_raises():
    cfg = base_config(target_composition={"Cu": 2}, pool_capacity=2,
                      init_candidates=4, init_rounds=1)
    with pytest.raises(PoolInitializationError):
        initialize_pool(
            MutationGenerator(), FailingPredictor(), cfg, np.random.default_rng(0)
        )


def test_refine_step_builds_one_shared_pass(kernel_passes):
    # the 16 candidates share one kernel run at the surrogate's 6 A, and no
    # structure keeps its generation's grouping afterwards
    cfg = base_config(target_composition={"Cu": 4, "O": 2}, pool_capacity=4,
                      init_candidates=8, candidates_per_iteration=16)
    rng = np.random.default_rng(2)
    gen, pred = MutationGenerator(), PairPotentialSurrogate()
    pool, _ = initialize_pool(gen, pred, cfg, rng)
    kernel_passes.clear()
    log = refine_step(pool, gen, pred, cfg, rng, 1)
    assert [(len(members), set(cutoffs)) for members, cutoffs, _ in kernel_passes] == [
        (16, {6.0})
    ]
    assert len(log.candidate_scores) == 16 and min(log.candidate_scores) > 0.0
    assert not any("_pair_group" in e.structure.__dict__ for e in pool.entries)


def test_refine_step_properties():
    cfg = base_config(
        target_composition={"Cu": 3, "O": 1},
        pool_capacity=4,
        init_candidates=16,
        init_rounds=2,
        candidates_per_iteration=8,
        target_energy=-2.0,
    )
    rng = np.random.default_rng(1)
    gen, pred = MutationGenerator(), PairPotentialSurrogate()
    pool, _ = initialize_pool(gen, pred, cfg, rng)
    floor = pool.min_score
    for it in range(1, 4):
        log = refine_step(pool, gen, pred, cfg, rng, it)
        assert log.iteration == it
        assert len(log.candidate_scores) == 8
        assert 0 <= log.admitted <= 8
        assert log.pool_min >= floor
        floor = log.pool_min
        assert log.pool_min == pool.min_score
        assert log.pool_max == pool.max_score
    assert len(pool) == 4


# ---------------------------------------------------------------------------
# the full loop


def probe_target_energy(composition, seed=999):
    gen = MutationGenerator()
    out = parse_cif(gen.propose(None, composition, seed))
    return PairPotentialSurrogate().predict(out.structure)


def search_config(seed=0):
    comp = {"Cu": 4, "O": 2}
    return SearchConfig(
        target_energy=probe_target_energy(comp),
        target_composition=comp,
        seed=seed,
    )


def test_run_search_deterministic():
    cfg = search_config()
    gen, pred = MutationGenerator(), PairPotentialSurrogate()
    a = run_search(gen, pred, cfg).to_json_dict()
    b = run_search(gen, pred, cfg).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_search_seed_changes_trajectory():
    gen, pred = MutationGenerator(), PairPotentialSurrogate()
    a = run_search(gen, pred, search_config(seed=0))
    b = run_search(gen, pred, search_config(seed=1))
    assert a.final_pool_scores != b.final_pool_scores


def test_run_search_invariants_and_success():
    cfg = search_config()
    report = run_search(MutationGenerator(), PairPotentialSurrogate(), cfg)
    # the pool minimum never decreases across iterations
    minima = [log.pool_min for log in report.iterations]
    assert all(b >= a for a, b in zip(minima, minima[1:]))
    # success bookkeeping is consistent
    assert report.success == (report.best_abs_delta <= cfg.success_tolerance)
    # a reachable target at default workload should be hit
    assert report.success
    assert len(report.final_pool_scores) == cfg.pool_capacity
    # best exemplar round-trips through its stored text
    out = parse_cif(report.best_cif)
    assert out.ok
    assert PairPotentialSurrogate().predict(out.structure) == report.best_energy


def test_run_search_report_serializable():
    report = run_search(MutationGenerator(), PairPotentialSurrogate(), search_config())
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
    assert '"success": true' in text
