"""Closed-loop exemplar-pool search over generated crystal text.

The loop couples two pluggable pieces: a `CandidateGenerator` that emits
CIF text (optionally conditioned on an exemplar structure) and an
`EnergyPredictor` that maps a parsed structure to a formation-energy
estimate in eV.  Candidates are scored by a combined reward

    R = energy_weight * exp(-lambda * |E_pred - E_target|)
        + pvcp_weight * R_pvcp

and a fixed-capacity pool keeps the best hard-constraint-passing exemplars.
Each iteration samples one exemplar uniformly, generates mutated candidates
from it, and admits a candidate only when its score beats the current pool
minimum (replacing that minimum), so the pool minimum never decreases.

Two desk-scale reference implementations are included: a covalent-radius
parameterized pair-potential surrogate and a mutation-based generator that
can deliberately inject classed defects for calibration corpora.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Mapping, Protocol, runtime_checkable

import numpy as np

from .cif import Lattice, ParseOutcome, Structure, parse_cif, serialize_cif
from .elements import (
    COVALENT_RADII,
    check_composition,
    finite_number,
    whole_number,
)
from .geometry import _covalent_radii, iter_periodic_pairs
from .reward import (
    DEFAULT_PHYS,
    DEFAULT_WEIGHTS,
    CompositionVector,
    PhysConfig,
    RewardBreakdown,
    RewardWeights,
    _score_in_chunks,
    pvcp_from_outcome,
)

_SIXTH_ROOT_OF_TWO = 2.0 ** (1.0 / 6.0)

# substream ids for per-seed random draws inside MutationGenerator
_STREAM_GEOMETRY = 0
_STREAM_SYNTAX = 1
_STREAM_MISSING_FIELD = 2
_STREAM_COMPOSITION = 3
_STREAM_OVERLAP = 4


@runtime_checkable
class EnergyPredictor(Protocol):
    """Anything that maps a structure to a formation-energy estimate (eV)."""

    def predict(self, structure: Structure) -> float: ...


@runtime_checkable
class CandidateGenerator(Protocol):
    """Anything that emits candidate CIF text.

    `exemplar` is None for unconditioned generation; otherwise candidates
    should stay near the exemplar.  `rng_seed` fully determines the output.
    """

    def propose(
        self,
        exemplar: Structure | None,
        target: CompositionVector,
        rng_seed: int,
    ) -> str: ...


def energy_reward(e_pred: float, e_target: float, lambda_energy: float) -> float:
    """exp(-lambda * |e_pred - e_target|); in (0, 1], 1 iff exact match."""
    if lambda_energy <= 0.0 or not math.isfinite(lambda_energy):
        raise ValueError("lambda_energy must be positive and finite")
    if not (math.isfinite(e_pred) and math.isfinite(e_target)):
        raise ValueError("energies must be finite")
    return math.exp(-lambda_energy * abs(e_pred - e_target))


# ---------------------------------------------------------------------------
# desk-scale surrogates


@dataclass
class PairPotentialSurrogate:
    """12-6 pair potential parameterized by the covalent radii table.

    For a pair with radii r_i, r_j the well minimum sits at r_i + r_j
    (sigma = (r_i + r_j) / 2^(1/6)) and the well depth is
    DEPTH_SCALE * (r_i + r_j) / 2 in eV, DEPTH_SCALE being 0.4 eV per
    angstrom of radius sum.  Interactions are summed over all periodic
    pairs within CUTOFF = 6 angstroms; each pair term is clamped at
    BOND_CAP = 1e3 eV so near-coincident atoms give a large but finite
    energy.  It takes no settings.  Deterministic: equal structures always
    give equal energies.
    """

    DEPTH_SCALE = 0.4  # eV per angstrom of radius sum
    CUTOFF = 6.0  # angstroms
    BOND_CAP = 1e3  # eV

    def predict(self, structure: Structure) -> float:
        r = _covalent_radii(structure)
        t = iter_periodic_pairs(structure, self.CUTOFF)
        if not len(t):
            return 0.0
        rsum = r[t.i] + r[t.j]
        eps = self.DEPTH_SCALE * rsum / 2.0
        sigma = rsum / _SIXTH_ROOT_OF_TWO
        coincident = t.distance < 1e-9
        x = sigma / np.where(coincident, 1.0, t.distance)
        # float_power's float64 loop calls libm pow, as math.pow does;
        # np.power may take a SIMD path that rounds some terms differently
        x6 = np.float_power(x, 6.0)
        terms = np.minimum(self.BOND_CAP, 4.0 * eps * (x6 * x6 - x6))
        terms[coincident] = self.BOND_CAP
        # cumsum adds in row order, as a running total would; np.sum does not
        return float(np.cumsum(terms)[-1])


@dataclass(frozen=True)
class DefectRates:
    """Per-class probabilities of deliberately corrupting a candidate."""

    syntax: float = 0.0
    missing_field: float = 0.0
    composition: float = 0.0
    overlap: float = 0.0

    def __post_init__(self) -> None:
        for name in ("syntax", "missing_field", "composition", "overlap"):
            v = getattr(self, name)
            if not (finite_number(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"{name} rate must lie in [0, 1], got {v!r}")


def _grid_dims(n: int) -> tuple[int, int, int]:
    nx = math.ceil(n ** (1.0 / 3.0))
    ny = math.ceil(math.sqrt(n / nx))
    nz = math.ceil(n / (nx * ny))
    return nx, ny, nz


@dataclass
class MutationGenerator:
    """Grid placement plus jitter mutation, with optional defect injection.

    Unconditioned mode places the target composition on a jittered cubic
    grid whose spacing, 2.2 times the largest covalent radius involved, is
    clamped to [SPACING_FLOOR, SPACING_CAP] = [1.9, 4.2] angstroms.  That
    keeps every pair above the full-credit distance and the volume per atom
    inside the physical window, so for elements with radius <= 2.5 A a
    clean unconditioned candidate passes the hard check.  Conditioned mode
    jitters the exemplar's fractional coordinates by up to COORD_JITTER =
    0.05 and its cell lengths by up to a relative LATTICE_JITTER = 0.02,
    each times a per-candidate amplitude drawn in [0, 1), so some
    candidates move very little.

    Defect injection, the one setting, corrupts the output with per-class
    probabilities from `defect_rates`, a `DefectRates` or a mapping of its
    fields (a config's JSON object).  Each class draws from its own seed
    substream, so disabling one class leaves every other draw unchanged.
    `propose` is a pure function of (exemplar, target, rng_seed).
    """

    defect_rates: DefectRates = field(default_factory=DefectRates)

    COORD_JITTER = 0.05  # fractional units
    LATTICE_JITTER = 0.02  # relative cell-length amplitude
    SPACING_FLOOR = 1.9  # angstroms
    SPACING_CAP = 4.2  # angstroms

    def __post_init__(self) -> None:
        if isinstance(self.defect_rates, Mapping):
            self.defect_rates = DefectRates(**self.defect_rates)
        if not isinstance(self.defect_rates, DefectRates):
            rates = self.defect_rates
            raise TypeError(f"defect_rates must be a mapping, got {rates!r}")

    def propose(
        self,
        exemplar: Structure | None,
        target: CompositionVector,
        rng_seed: int,
    ) -> str:
        rng = np.random.default_rng([rng_seed, _STREAM_GEOMETRY])
        if exemplar is None:
            structure = self._build_from_target(target, rng)
        else:
            structure = self._mutate(exemplar, rng)
        injected = self.injected_defects(rng_seed, target)
        if "composition" in injected:
            structure = _corrupt_composition(structure)
        if "overlap" in injected and len(structure) >= 2:
            structure = _corrupt_overlap(structure)
        text = serialize_cif(structure)
        if "missing_field" in injected:
            # both the symbol and the table-number tag must go, or the
            # space group would still count as informative
            text = "\n".join(
                ln
                for ln in text.splitlines()
                if not ln.lower().startswith(
                    ("_symmetry_space_group_name_h-m", "_symmetry_int_tables_number")
                )
            ) + "\n"
        if "syntax" in injected:
            text = "\n".join(
                ln for ln in text.splitlines() if not ln.startswith("data_")
            ) + "\n"
        return text

    def injected_defects(
        self, rng_seed: int, target: CompositionVector
    ) -> frozenset[str]:
        """Classes this seed will corrupt; mirrors `propose` exactly."""
        rates = self.defect_rates
        n_atoms = sum(target.values())
        out = set()
        draws = (
            ("syntax", rates.syntax, _STREAM_SYNTAX, 1),
            ("missing_field", rates.missing_field, _STREAM_MISSING_FIELD, 1),
            ("composition", rates.composition, _STREAM_COMPOSITION, 1),
            ("overlap", rates.overlap, _STREAM_OVERLAP, 2),
        )
        for name, rate, stream, min_atoms in draws:
            if rate <= 0.0 or n_atoms < min_atoms:
                continue
            if np.random.default_rng([rng_seed, stream]).random() < rate:
                out.add(name)
        return frozenset(out)

    def expected_failure_flags(
        self, rng_seed: int, target: CompositionVector
    ) -> frozenset[str]:
        """Reward failure flags the injected defects will cause.

        A syntax defect is fatal, so it masks every other flag (PF only).
        Otherwise: missing_field -> VF, composition -> CM, overlap -> PV.
        Assumes the candidate was otherwise clean, which unconditioned
        generation guarantees.
        """
        injected = self.injected_defects(rng_seed, target)
        if "syntax" in injected:
            return frozenset({"PF"})
        mapping = {"missing_field": "VF", "composition": "CM", "overlap": "PV"}
        return frozenset(mapping[c] for c in injected)

    # -- internals ---------------------------------------------------------

    def _build_from_target(
        self, target: CompositionVector, rng: np.random.Generator
    ) -> Structure:
        symbols = [el for el in sorted(target) for _ in range(target[el])]
        if not symbols:
            raise ValueError("target composition must contain at least one atom")
        n = len(symbols)
        r_max = max(COVALENT_RADII[el] for el in symbols)
        spacing = min(max(2.2 * r_max, self.SPACING_FLOOR), self.SPACING_CAP)
        dims = _grid_dims(n)
        cells = dims[0] * dims[1] * dims[2]
        chosen = rng.choice(cells, size=n, replace=False)
        lattice = Lattice(
            a=dims[0] * spacing,
            b=dims[1] * spacing,
            c=dims[2] * spacing,
            alpha=90.0,
            beta=90.0,
            gamma=90.0,
        )
        idx = np.array(np.unravel_index(chosen, dims)).T  # grid cell per site
        # jitter of at most 0.05 * spacing per cartesian axis keeps distinct
        # grid cells at least 0.9 * spacing apart; one (n, 3) draw is the
        # same stream, site by site and axis by axis, as 3n scalar draws
        frac = (idx + 0.5 + rng.uniform(-0.05, 0.05, size=(n, 3))) / dims
        return Structure(
            lattice=lattice,
            labels=tuple(
                f"{el}{k}" for el in sorted(target) for k in range(1, target[el] + 1)
            ),
            elements=tuple(symbols),
            frac=frac,
            space_group_symbol="P 1",
            space_group_number=1,
        )

    def _mutate(self, exemplar: Structure, rng: np.random.Generator) -> Structure:
        amp = self.COORD_JITTER * rng.random()
        shifts = rng.uniform(-amp, amp, size=exemplar.frac.shape)
        lat_amp = self.LATTICE_JITTER * rng.random()
        fa, fb, fc = (1.0 + rng.uniform(-lat_amp, lat_amp, size=3)).tolist()
        lat = exemplar.lattice
        return Structure(
            Lattice(lat.a * fa, lat.b * fb, lat.c * fc, lat.alpha, lat.beta, lat.gamma),
            exemplar.labels,
            exemplar.elements,
            exemplar.frac + shifts,
            exemplar.space_group_symbol,
            exemplar.space_group_number,
        )


def _corrupt_composition(structure: Structure) -> Structure:
    """Swap the first site's element for a small noble-gas atom.

    The substitute's covalent radius is small enough that, at the grid
    spacings the unconditioned builder uses, the swap cannot push any pair
    below the distance-credit thresholds; only the composition changes.
    """
    present = structure.elements
    sub = next((el for el in ("He", "Ne", "Ar", "Kr") if el not in present), "He")
    label = f"{sub}1" if f"{sub}1" not in structure.labels else f"{sub}sub1"
    return replace(
        structure,
        labels=(label,) + structure.labels[1:],
        elements=(sub,) + structure.elements[1:],
    )


def _corrupt_overlap(structure: Structure) -> Structure:
    """Move the second site onto the first: a guaranteed hard overlap."""
    frac = structure.frac.copy()
    frac[1] = frac[0]
    return replace(structure, frac=frac)


# ---------------------------------------------------------------------------
# combined reward


@dataclass(frozen=True)
class CombinedBreakdown:
    """Energy and formatting components of one candidate's score."""

    score: float
    energy: float | None  # None, and score 0, if unparsed or unpredicted
    pvcp: RewardBreakdown  # parse verdict `s_parse`, hard verdict `hard_pass`
    diagnostics: tuple[str, ...] = ()


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the closed loop; weights must sum to 1."""

    target_energy: float
    target_composition: Mapping[str, int]
    seed: int = 0
    iterations: int = 10
    candidates_per_iteration: int = 16
    pool_capacity: int = 8
    init_candidates: int = 32
    init_rounds: int = 5
    lambda_energy: float = 1.0
    energy_weight: float = 0.7
    pvcp_weight: float = 0.3
    success_tolerance: float = 0.1

    def __post_init__(self) -> None:
        for name in ("target_energy", "lambda_energy", "energy_weight",
                     "pvcp_weight", "success_tolerance"):
            value = getattr(self, name)
            if not finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        # accept numpy scalars without letting them leak into reports
        object.__setattr__(self, "target_energy", float(self.target_energy))
        for name in ("seed", "iterations", "candidates_per_iteration",
                     "pool_capacity", "init_candidates", "init_rounds"):
            value = getattr(self, name)
            if not whole_number(value):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
            least = 0 if name == "seed" else 1
            if value < least:
                raise ValueError(f"{name} must be at least {least}")
        if self.energy_weight < 0.0 or self.pvcp_weight < 0.0:
            raise ValueError("reward weights must be non-negative")
        if abs(self.energy_weight + self.pvcp_weight - 1.0) > 1e-9:
            raise ValueError("energy_weight + pvcp_weight must equal 1")
        if not self.lambda_energy > 0.0:
            raise ValueError("lambda_energy must be positive")
        if not self.success_tolerance > 0.0:
            raise ValueError("success_tolerance must be positive")
        counts = check_composition(self.target_composition, "target_composition")
        if not sum(counts.values()):
            raise ValueError("target_composition needs at least one atom")
        object.__setattr__(self, "target_composition", counts)


def combined_reward(
    candidate_text: str,
    predictor: EnergyPredictor,
    cfg: SearchConfig,
    weights: RewardWeights = DEFAULT_WEIGHTS,
    phys: PhysConfig = DEFAULT_PHYS,
) -> CombinedBreakdown:
    """Score candidate text against the target energy and composition.

    Parse failures score 0.  A predictor that raises on a parsed structure
    also scores the candidate 0, with the exception recorded as a
    diagnostic rather than propagated.
    """
    return _score_outcome(parse_cif(candidate_text), predictor, cfg, weights, phys)


def _score_outcome(
    outcome: ParseOutcome,
    predictor: EnergyPredictor,
    cfg: SearchConfig,
    weights: RewardWeights,
    phys: PhysConfig,
) -> CombinedBreakdown:
    """`combined_reward` of an already-parsed candidate."""
    diagnostics: list[str] = []
    energy = None
    if outcome.ok:
        # Scored first: the stock surrogate's 6 A pair table is the widest a
        # candidate needs, so the physics score filters it.
        try:
            energy = float(predictor.predict(outcome.structure))
            if not math.isfinite(energy):
                raise ValueError(f"predictor returned non-finite energy {energy!r}")
        except Exception as exc:  # predictor contract: failures score zero
            diagnostics.append(f"predictor failed: {exc}")
            energy = None
    else:
        diagnostics.append("parse failure")
    breakdown = pvcp_from_outcome(outcome, cfg.target_composition, weights, phys)
    score = 0.0
    if energy is not None:
        e_rew = energy_reward(energy, cfg.target_energy, cfg.lambda_energy)
        score = cfg.energy_weight * e_rew + cfg.pvcp_weight * breakdown.total
    return CombinedBreakdown(
        score=score,
        energy=energy,
        pvcp=breakdown,
        diagnostics=tuple(diagnostics),
    )


# ---------------------------------------------------------------------------
# exemplar pool


@dataclass(frozen=True)
class PoolEntry:
    """One retained exemplar with its frozen score and provenance."""

    structure: Structure
    cif_text: str
    score: float
    energy: float
    iteration: int  # 0 = initialization


class PoolInitializationError(RuntimeError):
    """Raised when too few hard-constraint-passing candidates were found."""


class ExemplarPool:
    """The best `capacity` entries by descending score, ties by insertion."""

    def __init__(self, entries: list[PoolEntry], capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if len(entries) < capacity:
            raise ValueError(
                f"pool needs at least {capacity} entries, got {len(entries)}"
            )
        self._entries = sorted(entries, key=lambda e: -e.score)[:capacity]

    @property
    def entries(self) -> tuple[PoolEntry, ...]:
        return tuple(self._entries)

    @property
    def min_score(self) -> float:
        return self._entries[-1].score

    @property
    def max_score(self) -> float:
        return self._entries[0].score

    @property
    def best(self) -> PoolEntry:
        return self._entries[0]

    def __len__(self) -> int:
        return len(self._entries)

    def sample(self, rng: np.random.Generator) -> PoolEntry:
        """Uniformly sampled exemplar."""
        return self._entries[int(rng.integers(len(self._entries)))]

    def try_replace(self, entry: PoolEntry) -> bool:
        """Admit `entry` iff it strictly beats the current minimum.

        The minimum member is evicted, so the pool size stays fixed and the
        pool minimum never decreases.
        """
        if entry.score <= self.min_score:
            return False
        self._entries.pop()
        bisect.insort_right(self._entries, entry, key=lambda e: -e.score)
        return True

    def scores(self) -> list[float]:
        return [e.score for e in self._entries]


# ---------------------------------------------------------------------------
# the loop


@dataclass(frozen=True)
class IterationLog:
    """What one refinement iteration did."""

    iteration: int
    exemplar_score: float
    exemplar_iteration: int
    candidate_scores: tuple[float, ...]
    admitted: int
    best_abs_delta: float | None  # this iteration, hard-passing candidates only
    pool_min: float
    pool_max: float


@dataclass(frozen=True)
class SearchReport:
    """Full account of one closed-loop run."""

    init_generated: int
    init_passed: int
    init_rounds: int
    iterations: tuple[IterationLog, ...]
    best_abs_delta: float | None
    success: bool
    final_pool_scores: tuple[float, ...]
    best_cif: str
    best_energy: float

    def to_json_dict(self) -> dict:
        """`asdict`, with the `init_*` fields grouped under ``"init"``."""
        out = asdict(self)
        out["init"] = {
            k: out.pop(f"init_{k}") for k in ("generated", "passed", "rounds")
        }
        return out


def _best_abs_delta(deltas: Iterable[float | None]) -> float | None:
    """The smallest |E_pred - E_target| in `deltas`; None entries are skipped."""
    return min((d for d in deltas if d is not None), default=None)


def _generation(
    generator: CandidateGenerator,
    predictor: EnergyPredictor,
    cfg: SearchConfig,
    rng: np.random.Generator,
    exemplar: Structure | None,
    n: int,
    iteration: int,
    weights: RewardWeights,
    phys: PhysConfig,
) -> tuple[list[float], list[PoolEntry]]:
    """Propose and score `n` candidates, each from a seed drawn from `rng`.

    Returns every candidate's score and, in seed order, a `PoolEntry` for
    each candidate that passes the hard constraints and has an energy.  No
    pool is read or changed here.  The candidates are parsed and scored in
    shared pair passes (`_score_in_chunks`); a generation of up to
    `reward._SCORE_CHUNK` candidates is one chunk, so the first pair-table miss
    builds that cutoff for every parsed candidate at once.
    """
    texts = [
        generator.propose(exemplar, cfg.target_composition, int(rng.integers(2**32)))
        for _ in range(n)
    ]
    entries: list[PoolEntry] = []

    def score_one(k: int, outcome: ParseOutcome) -> float:
        br = _score_outcome(outcome, predictor, cfg, weights, phys)
        if br.pvcp.hard_pass and br.energy is not None:
            entries.append(
                PoolEntry(
                    structure=outcome.structure,
                    cif_text=texts[k],
                    score=br.score,
                    energy=br.energy,
                    iteration=iteration,
                )
            )
        return br.score

    scores = _score_in_chunks(texts, score_one)
    return scores, entries


def initialize_pool(
    generator: CandidateGenerator,
    predictor: EnergyPredictor,
    cfg: SearchConfig,
    rng: np.random.Generator,
    weights: RewardWeights = DEFAULT_WEIGHTS,
    phys: PhysConfig = DEFAULT_PHYS,
) -> tuple[ExemplarPool, dict]:
    """Fill the pool with the best hard-passing unconditioned candidates.

    Generates `cfg.init_candidates` candidates per round, up to
    `cfg.init_rounds` rounds, until at least `cfg.pool_capacity` candidates
    pass parsing and the hard constraints; raises `PoolInitializationError`
    otherwise.  Returns the pool plus bookkeeping stats.
    """
    passing: list[PoolEntry] = []
    rounds = 0
    while len(passing) < cfg.pool_capacity and rounds < cfg.init_rounds:
        rounds += 1
        _, entries = _generation(
            generator, predictor, cfg, rng, None, cfg.init_candidates, 0,
            weights, phys,
        )
        passing += entries
    generated = rounds * cfg.init_candidates
    if len(passing) < cfg.pool_capacity:
        raise PoolInitializationError(
            f"only {len(passing)} of {cfg.pool_capacity} required candidates "
            f"passed hard constraints after {generated} attempts"
        )
    pool = ExemplarPool(passing, cfg.pool_capacity)
    stats = {
        "generated": generated,
        "passed": len(passing),
        "rounds": rounds,
        "best_abs_delta": _best_abs_delta(
            abs(e.energy - cfg.target_energy) for e in passing
        ),
    }
    return pool, stats


def refine_step(
    pool: ExemplarPool,
    generator: CandidateGenerator,
    predictor: EnergyPredictor,
    cfg: SearchConfig,
    rng: np.random.Generator,
    iteration: int,
    weights: RewardWeights = DEFAULT_WEIGHTS,
    phys: PhysConfig = DEFAULT_PHYS,
) -> IterationLog:
    """One refinement iteration; mutates the pool in place.

    Samples an exemplar uniformly, scores `cfg.candidates_per_iteration`
    conditioned candidates, then admits the eligible ones in seed order
    under the strict-improvement rule.  Admitting after scoring the whole
    generation equals admitting each candidate as soon as it is scored:
    neither `propose` nor `combined_reward` reads the pool, and every seed
    is drawn from `rng` before admission and independently of it.
    """
    exemplar = pool.sample(rng)
    scores, entries = _generation(
        generator, predictor, cfg, rng, exemplar.structure,
        cfg.candidates_per_iteration, iteration, weights, phys,
    )
    admitted = sum(pool.try_replace(e) for e in entries)
    return IterationLog(
        iteration=iteration,
        exemplar_score=exemplar.score,
        exemplar_iteration=exemplar.iteration,
        candidate_scores=tuple(scores),
        admitted=admitted,
        best_abs_delta=_best_abs_delta(
            abs(e.energy - cfg.target_energy) for e in entries
        ),
        pool_min=pool.min_score,
        pool_max=pool.max_score,
    )


def run_search(
    generator: CandidateGenerator,
    predictor: EnergyPredictor,
    cfg: SearchConfig,
    weights: RewardWeights = DEFAULT_WEIGHTS,
    phys: PhysConfig = DEFAULT_PHYS,
) -> SearchReport:
    """Run initialization plus `cfg.iterations` refinement iterations.

    Fully deterministic for a fixed config and deterministic generator and
    predictor.  Success means some hard-passing candidate (from any phase)
    predicted within `cfg.success_tolerance` eV of the target energy.
    """
    rng = np.random.default_rng(cfg.seed)
    pool, stats = initialize_pool(generator, predictor, cfg, rng, weights, phys)
    logs = [
        refine_step(pool, generator, predictor, cfg, rng, it, weights, phys)
        for it in range(1, cfg.iterations + 1)
    ]
    best_delta = _best_abs_delta(
        [stats["best_abs_delta"], *(log.best_abs_delta for log in logs)]
    )
    success = bool(best_delta is not None and best_delta <= cfg.success_tolerance)
    return SearchReport(
        init_generated=stats["generated"],
        init_passed=stats["passed"],
        init_rounds=stats["rounds"],
        iterations=tuple(logs),
        best_abs_delta=best_delta,
        success=success,
        final_pool_scores=tuple(pool.scores()),
        best_cif=pool.best.cif_text,
        best_energy=pool.best.energy,
    )
