"""Multi-term reward for generated crystal text.

A candidate CIF string is scored on four sub-scales, each in [0, 1]:

* parse      - did the text parse into a structure at all,
* validity   - six-item formatting checklist on the parsed document,
* composition - L1 agreement between target and actual element counts,
* physics    - interatomic-distance and volume-per-atom sanity.

The total is the weighted sum of the four.  Failure flags classify what
went wrong: PF (parse failure), VF (validity violation), CM (composition
mismatch), PV (physics violation).  A parse failure zeroes every downstream
sub-score, so PF implies total = 0.  One `covalent_pairs` query per
structure gives the physics score and the hard verdict `hard_pass`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .cif import (
    CELL_TAGS,
    SITE_TAGS,
    DefectCode,
    ParseOutcome,
    Structure,
    composition_of,
    find_atom_site_loop,
    parse_cif,
)
from .elements import finite_number
from .geometry import (
    DegenerateCellError,
    covalent_pairs,
    shared_pair_pass,
    volume_per_atom,
)

CompositionVector = Mapping[str, int]
_R = TypeVar("_R")

N_VALIDITY_CHECKS = 6
_SCORE_CHUNK = 64  # parsed candidates, with their pair tables, alive at once


class FailureMode(str, Enum):
    """Coarse classification of scoring failures."""

    PARSE_FAILURE = "PF"
    VALIDITY_FAILURE = "VF"
    COMPOSITION_MISMATCH = "CM"
    PHYSICS_VIOLATION = "PV"


@dataclass(frozen=True)
class RewardWeights:
    """Weights of the four sub-scores; must be non-negative and sum to 1."""

    comp: float = 0.6
    parse: float = 0.2
    valid: float = 0.1
    phys: float = 0.1

    def __post_init__(self) -> None:
        vals = (self.comp, self.parse, self.valid, self.phys)
        if any(not (finite_number(w) and w >= 0.0) for w in vals):
            raise ValueError("weights must be finite and non-negative")
        if abs(sum(vals) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(vals)!r}")


@dataclass(frozen=True)
class PhysConfig:
    """Thresholds for the physics sub-score.

    Distances below `hard_overlap_fraction` of the covalent-radius sum score
    zero; at `full_credit_fraction` and above they score one, with a linear
    ramp in between.  Volume per atom scores one inside
    [vpa_min, vpa_max] cubic angstroms and decays linearly to zero over one
    decade (factor 10) outside on either side.
    """

    hard_overlap_fraction: float = 0.5
    full_credit_fraction: float = 0.75
    vpa_min: float = 3.0
    vpa_max: float = 200.0

    def __post_init__(self) -> None:
        if not all(map(finite_number, vars(self).values())):
            raise ValueError("physics thresholds must be finite numbers")
        if not 0.0 < self.hard_overlap_fraction < self.full_credit_fraction:
            raise ValueError("need 0 < hard_overlap_fraction < full_credit_fraction")
        if not 0.0 < self.vpa_min < self.vpa_max:
            raise ValueError("need 0 < vpa_min < vpa_max")


DEFAULT_WEIGHTS = RewardWeights()
DEFAULT_PHYS = PhysConfig()


@dataclass(frozen=True)
class RewardBreakdown:
    """Sub-scores, weighted total, failure flags, and diagnostics."""

    s_parse: float
    s_valid: float
    s_comp: float
    s_phys: float
    total: float
    failure_flags: frozenset[FailureMode]
    diagnostics: tuple[str, ...] = ()
    hard_pass: bool = False  # `passes_hard_constraints`; not serialized

    def flag_codes(self) -> list[str]:
        return sorted(f.value for f in self.failure_flags)

    def to_json_dict(self) -> dict:
        return {
            "s_parse": self.s_parse,
            "s_valid": self.s_valid,
            "s_comp": self.s_comp,
            "s_phys": self.s_phys,
            "total": self.total,
            "failure_flags": self.flag_codes(),
            "diagnostics": list(self.diagnostics),
        }


def score_parse(outcome: ParseOutcome) -> float:
    """1.0 when a structure was produced, else 0.0."""
    return 1.0 if outcome.ok else 0.0


def validity_checklist(outcome: ParseOutcome) -> list[tuple[str, bool]]:
    """The six named formatting checks behind the validity sub-score."""
    doc = outcome.document
    s = outcome.structure
    sg_ok = s is not None and (
        s.space_group_symbol is not None or s.space_group_number is not None
    )
    cell_ok = doc is not None and all(t in doc.scalars for t in CELL_TAGS)
    loop = find_atom_site_loop(doc) if doc is not None else None
    columns_ok = loop is not None and all(c in loop.columns for c in SITE_TAGS)
    labels_ok = not outcome.has(DefectCode.DUPLICATE_LABEL)
    loops_ok = not outcome.has(DefectCode.INCONSISTENT_LOOP)
    return [
        ("space_group_present", sg_ok),
        ("cell_tags_explicit", cell_ok),
        ("site_columns_complete", columns_ok),
        ("site_labels_unique", labels_ok),
        ("loops_consistent", loops_ok),
        ("coordinates_in_window", outcome.coords_in_window),
    ]


def _validity(outcome: ParseOutcome) -> tuple[float, list[str]]:
    """The validity sub-score of a parsed candidate and its failed checks."""
    failed = [name for name, ok in validity_checklist(outcome) if not ok]
    return max(0.0, 1.0 - len(failed) / N_VALIDITY_CHECKS), failed


def score_valid(outcome: ParseOutcome) -> float:
    """1 - violations/6 over the formatting checklist, clamped at 0."""
    return _validity(outcome)[0] if outcome.ok else 0.0


def score_composition(target: CompositionVector, actual: CompositionVector) -> float:
    """1 - sum|t_e - a_e| / (sum t + sum a), clamped to [0, 1].

    Both vectors empty scores 1.0 by convention.
    """
    for name, comp in (("target", target), ("actual", actual)):
        for el, cnt in comp.items():
            if cnt < 0:
                raise ValueError(f"negative count {cnt} for {el!r} in {name}")
    denom = sum(target.values()) + sum(actual.values())
    if denom == 0:
        return 1.0
    elements = set(target) | set(actual)
    diff = sum(abs(target.get(el, 0) - actual.get(el, 0)) for el in elements)
    return min(1.0, max(0.0, 1.0 - diff / denom))


def _distance_factor(
    structure: Structure, cfg: PhysConfig
) -> tuple[float, list[str], bool]:
    """Worst-pair credit (0 at hard overlap, 1 at full), its note, no-overlap verdict."""
    # only pairs inside full credit can lose credit
    t, rsum = covalent_pairs(structure, cfg.full_credit_fraction)
    if not len(t):
        return 1.0, [], True
    lo = cfg.hard_overlap_fraction * rsum
    overlap = t.distance <= lo
    hard_pass = not overlap.any()
    hi = cfg.full_credit_fraction * rsum
    credit = np.where(overlap, 0.0, (t.distance - lo) / (hi - lo))
    # the worst pair is the first one at the smallest credit below 1
    k = int(np.argmin(credit))
    if credit[k] < 1.0:
        factor, i, j = float(credit[k]), int(t.i[k]), int(t.j[k])
        elems = structure.elements
        return factor, [
            f"closest pair {elems[i]}{i}-{elems[j]}{j} at {t.distance[k]:.3f} A "
            f"scores {factor:.3f}"
        ], hard_pass
    return 1.0, [], hard_pass


def _volume_factor(structure: Structure, cfg: PhysConfig) -> tuple[float, list[str]]:
    """Volume-per-atom credit: 1 in range, linear decade decay outside."""
    vpa = volume_per_atom(structure)
    if cfg.vpa_min <= vpa <= cfg.vpa_max:
        return 1.0, []
    if vpa < cfg.vpa_min:
        # full decade below: vpa_min/10 scores 0
        span = cfg.vpa_min - cfg.vpa_min / 10.0
        factor = max(0.0, (vpa - cfg.vpa_min / 10.0) / span)
    else:
        span = cfg.vpa_max * 10.0 - cfg.vpa_max
        factor = max(0.0, (cfg.vpa_max * 10.0 - vpa) / span)
    return factor, [f"volume per atom {vpa:.3f} A^3 outside range scores {factor:.3f}"]


def _assess_physical(
    structure: Structure, cfg: PhysConfig = DEFAULT_PHYS
) -> tuple[float, list[str], bool]:
    try:
        d_factor, d_notes, hard_pass = _distance_factor(structure, cfg)
        v_factor, v_notes = _volume_factor(structure, cfg)
    except DegenerateCellError as exc:
        return 0.0, [f"degenerate cell: {exc}"], False
    return d_factor * v_factor, d_notes + v_notes, hard_pass


def score_physical(structure: Structure, cfg: PhysConfig = DEFAULT_PHYS) -> float:
    """Distance factor times volume factor, each in [0, 1]."""
    return _assess_physical(structure, cfg)[0]


def passes_hard_constraints(
    structure: Structure, cfg: PhysConfig = DEFAULT_PHYS
) -> bool:
    """True when no pair sits at or below the hard-overlap distance."""
    return _assess_physical(structure, cfg)[2]


def pvcp_from_outcome(
    outcome: ParseOutcome,
    target: CompositionVector,
    weights: RewardWeights = DEFAULT_WEIGHTS,
    phys: PhysConfig = DEFAULT_PHYS,
) -> RewardBreakdown:
    """Score an already-parsed candidate (see `pvcp`)."""
    diagnostics: list[str] = []
    flags: set[FailureMode] = set()
    s_parse = score_parse(outcome)
    if not outcome.ok:
        flags.add(FailureMode.PARSE_FAILURE)
        diagnostics.extend(
            f"{d.code.value} line {d.line}: {d.message}" for d in outcome.defects
        )
        return RewardBreakdown(
            s_parse=0.0,
            s_valid=0.0,
            s_comp=0.0,
            s_phys=0.0,
            total=0.0,
            failure_flags=frozenset(flags),
            diagnostics=tuple(diagnostics),
        )
    structure = outcome.structure
    assert structure is not None
    s_valid, failed = _validity(outcome)
    if s_valid < 1.0:
        flags.add(FailureMode.VALIDITY_FAILURE)
        diagnostics.extend(f"validity check failed: {name}" for name in failed)
    actual = composition_of(structure)
    s_comp = score_composition(target, actual)
    if s_comp < 1.0:
        flags.add(FailureMode.COMPOSITION_MISMATCH)
        diagnostics.append(f"composition {actual} vs target {dict(target)}")
    s_phys, phys_notes, hard_pass = _assess_physical(structure, phys)
    if s_phys < 1.0:
        flags.add(FailureMode.PHYSICS_VIOLATION)
        diagnostics.extend(phys_notes)
    total = (
        weights.comp * s_comp
        + weights.parse * s_parse
        + weights.valid * s_valid
        + weights.phys * s_phys
    )
    total = min(1.0, max(0.0, total))
    return RewardBreakdown(
        s_parse=s_parse,
        s_valid=s_valid,
        s_comp=s_comp,
        s_phys=s_phys,
        total=total,
        failure_flags=frozenset(flags),
        diagnostics=tuple(diagnostics),
        hard_pass=hard_pass,
    )


def pvcp(
    text: str | bytes,
    target: CompositionVector,
    weights: RewardWeights = DEFAULT_WEIGHTS,
    phys: PhysConfig = DEFAULT_PHYS,
) -> RewardBreakdown:
    """Parse candidate CIF text and score it against a target composition."""
    return pvcp_from_outcome(parse_cif(text), target, weights, phys)


def _score_in_chunks(
    texts: Sequence[str | bytes], score: Callable[[int, ParseOutcome], _R]
) -> list[_R]:
    """`score(k, parse_cif(texts[k]))` for every k, in order.

    The texts are parsed `_SCORE_CHUNK` at a time, and each chunk is scored
    inside one `shared_pair_pass`, so the first pair-table miss of a chunk
    builds that cutoff for every same-size member at once; the search and
    every CIF command score through here.  A chunk's
    structures are released before the next chunk is parsed, unless
    `score` keeps them.
    """
    results: list[_R] = []
    for lo in range(0, len(texts), _SCORE_CHUNK):
        outcomes = [parse_cif(t) for t in texts[lo : lo + _SCORE_CHUNK]]
        with shared_pair_pass(o.structure for o in outcomes if o.ok):
            results.extend(score(k, o) for k, o in enumerate(outcomes, lo))
        del outcomes  # one chunk of structures alive at a time, not two
    return results


def corpus_failure_rates(breakdowns: Iterable[RewardBreakdown]) -> dict[str, float]:
    """Percentage of candidates carrying each failure flag."""
    counts = {mode: 0 for mode in FailureMode}
    n = 0
    for br in breakdowns:
        n += 1
        for mode in br.failure_flags:
            counts[mode] += 1
    if n == 0:
        return {mode.value: 0.0 for mode in FailureMode}
    return {mode.value: 100.0 * counts[mode] / n for mode in FailureMode}
