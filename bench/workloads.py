"""The four workloads: seeded inputs, one op, and the checks on its output.

Each workload generates its inputs from the benchmark seed during set-up;
the program only ever sees those generated inputs.  Every op of a workload
does the same work (same batch, or a search of fixed size), so the median
op time is never drawn from a mix of sizes.  Checks compare each output
with a computation in `oracle` or with a property the method must have.

Program entry points are looked up through their modules at call time
(``search.run_search``, ``cli.main``) so the traced pass sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from catloop import cli, search
from catloop.cif import parse_cif
from catloop.search import DefectRates, MutationGenerator, SearchConfig

import oracle

CU4O2 = {"Cu": 4, "O": 2}

# Defect-injection rates of acceptance criterion 6.
CRITERION6_RATES = {"syntax": 0.10, "missing_field": 0.15,
                    "composition": 0.20, "overlap": 0.25}


class OpFailed(Exception):
    """An op that ended with a non-zero exit code."""


def invoke(argv: list[str]) -> str:
    """Run ``catloop <argv>`` in-process; return its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"catloop {argv[0]} exited with {code}")
    return out.getvalue()


class Workload:
    """Inputs for one seed, the ops of one round, and the output checks."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Generate inputs; runs before the warm-up op."""

    def round(self) -> list:
        """Arguments of the ops that make up one round."""
        raise NotImplementedError

    def run_op(self, arg):
        """Run one op; raise on failure.  Returns (items, output)."""
        raise NotImplementedError

    def check(self, arg, output) -> list[str]:
        """Problems with one op's output (empty when correct)."""
        raise NotImplementedError

    def check_run(self, results: list) -> list[str]:
        """Problems visible only across the ops of a run."""
        return []

    def counters(self, results: list) -> dict[str, dict]:
        """Per-layer metrics the workload counts itself, from its outputs."""
        return {}


# ---------------------------------------------------------------------------
# search_cu4o2


class _CountingGenerator(MutationGenerator):
    """The stock generator, counting the candidates it proposes."""

    proposed = 0

    def propose(self, exemplar, target, rng_seed):
        self.proposed += 1
        return super().propose(exemplar, target, rng_seed)


@dataclass
class SearchOutput:
    report: search.SearchReport
    proposed: int


class SearchCu4O2(Workload):
    name = "search_cu4o2"
    SEEDS_PER_ROUND = 10

    def setup(self) -> None:
        self.generator = _CountingGenerator()
        self.predictor = search.PairPotentialSurrogate()
        # the target energy of acceptance criterion 7
        probe = parse_cif(MutationGenerator().propose(None, CU4O2, 999)).structure
        self.target_energy = float(self.predictor.predict(probe))
        rng = np.random.default_rng([self.seed, 7])
        self.seeds = [int(s) for s in rng.integers(0, 2**31, size=self.SEEDS_PER_ROUND)]

    def config(self, seed: int) -> SearchConfig:
        return SearchConfig(
            target_energy=self.target_energy, target_composition=CU4O2, seed=seed,
            iterations=10, candidates_per_iteration=16, pool_capacity=8,
            init_candidates=32, success_tolerance=0.1,
        )

    def round(self) -> list:
        return self.seeds

    def run_op(self, seed: int):
        before = self.generator.proposed
        report = search.run_search(self.generator, self.predictor, self.config(seed))
        proposed = self.generator.proposed - before
        return proposed, SearchOutput(report, proposed)

    def check(self, seed: int, output: SearchOutput) -> list[str]:
        rep, cfg = output.report, self.config(seed)
        problems = []
        minima = [log.pool_min for log in rep.iterations]
        if any(b < a for a, b in zip(minima, minima[1:])):
            problems.append(f"seed {seed}: pool minimum decreased: {minima}")
        refined = cfg.iterations * cfg.candidates_per_iteration
        if sum(len(log.candidate_scores) for log in rep.iterations) != refined:
            problems.append(f"seed {seed}: iterations did not score {refined} candidates")
        if output.proposed != rep.init_generated + refined:
            problems.append(
                f"seed {seed}: {output.proposed} candidates proposed, report accounts "
                f"for {rep.init_generated} + {refined}")
        lengths, angles, elements, frac = oracle.read_cif(rep.best_cif)
        want = oracle.pair_potential_energy(lengths, angles, elements, frac)
        if not abs(rep.best_energy - want) <= 1e-9 * abs(want):
            problems.append(
                f"seed {seed}: best_energy {rep.best_energy!r} but the 12-6 sum over "
                f"all images of best_cif is {want!r}")
        return problems

    def check_run(self, results: list) -> list[str]:
        success = {seed: out.report.success for seed, out in results}
        rate = sum(success.values()) / len(success)
        if rate < 0.9:
            return [f"only {rate:.0%} of {len(success)} seeds reached 0.1 eV"]
        return []

    def counters(self, results: list) -> dict[str, dict]:
        admitted = sum(log.admitted for _, out in results for log in out.report.iterations)
        return {"search.admitted_per_op":
                {"value": admitted / len(results), "unit": "count"}}


# ---------------------------------------------------------------------------
# validate_small, validate_large


def defect_quotas(batch: int, rates: dict[str, float]) -> dict[frozenset, int]:
    """Files per injected-defect set: `batch` split by the sets' probabilities.

    Largest-remainder rounding, so every seed yields the same mix.
    """
    classes = list(rates)
    probs = {}
    for flags in itertools.product((False, True), repeat=len(classes)):
        p = math.prod(rates[c] if f else 1.0 - rates[c] for c, f in zip(classes, flags))
        probs[frozenset(c for c, f in zip(classes, flags) if f)] = p
    exact = {s: batch * p for s, p in probs.items()}
    quotas = {s: math.floor(x) for s, x in exact.items()}
    by_remainder = sorted(exact, key=lambda s: (quotas[s] - exact[s], sorted(s)))
    for s in by_remainder[: batch - sum(quotas.values())]:
        quotas[s] += 1
    return {s: q for s, q in quotas.items() if q}


def stratified_seeds(rng: np.random.Generator, generator: MutationGenerator,
                     target: dict, quotas: dict[frozenset, int]) -> list[int]:
    """Generator seeds, drawn in order, kept while their defect set has room."""
    need = dict(quotas)
    seeds: list[int] = []
    for _ in range(1_000_000):
        if not any(need.values()):
            return seeds
        s = int(rng.integers(0, 2**31))
        injected = generator.injected_defects(s, target)
        if need.get(injected, 0) > 0:
            need[injected] -= 1
            seeds.append(s)
    raise RuntimeError(f"could not fill defect quotas {quotas}")


def _composition_arg(comp: dict) -> str:
    return ",".join(f"{el}:{n}" for el, n in sorted(comp.items()))


class _Validate(Workload):
    """``catloop validate`` over one batch of generated candidates."""

    SIZES: tuple[tuple[dict, int], ...] = ()  # (target composition, files)

    def setup(self) -> None:
        generator = MutationGenerator(defect_rates=DefectRates(**CRITERION6_RATES))
        rng = np.random.default_rng([self.seed, 6])
        self.paths: list[str] = []
        self.expected: dict[str, tuple[frozenset, bool]] = {}
        targets: dict[str, dict] = {}
        for target, batch in self.SIZES:
            quotas = defect_quotas(batch, CRITERION6_RATES)
            for s in stratified_seeds(rng, generator, target, quotas):
                path = self.workdir / f"n{sum(target.values())}_{s}.cif"
                path.write_text(generator.propose(None, target, s))
                self.paths.append(str(path))
                targets[path.name] = target
                self.expected[str(path)] = (
                    generator.expected_failure_flags(s, target),
                    not generator.injected_defects(s, target),
                )
        if len(self.SIZES) == 1:
            self.argv = ["validate", *self.paths, "--target",
                         _composition_arg(self.SIZES[0][0]), "--format", "json"]
        else:
            table = self.workdir / "targets.json"
            table.write_text(json.dumps(targets, sort_keys=True))
            self.argv = ["validate", *self.paths, "--targets-file", str(table),
                         "--format", "json"]

    def round(self) -> list:
        return [None]

    def run_op(self, arg):
        return len(self.paths), invoke(self.argv)

    def check(self, arg, output: str) -> list[str]:
        art = json.loads(output)
        problems = []
        files = art["files"]
        if [f["path"] for f in files] != self.paths:
            return ["validate report does not list the batch in order"]
        counts = {"PF": 0, "VF": 0, "CM": 0, "PV": 0}
        for f in files:
            flags, clean = self.expected[f["path"]]
            for flag in flags:
                counts[flag] += 1
            got = f["reward"]["failure_flags"]
            if got != sorted(flags):
                problems.append(f"{f['path']}: flags {got}, expected {sorted(flags)}")
            if clean and abs(f["reward"]["total"] - 1.0) > 1e-12:
                problems.append(f"{f['path']}: clean file totals {f['reward']['total']}")
        for flag, n in counts.items():
            want = 100.0 * n / len(files)
            if abs(art["failure_rates"][flag] - want) > 1e-9:
                problems.append(
                    f"failure rate {flag} {art['failure_rates'][flag]} != {want}")
        return problems

    def counters(self, results: list) -> dict[str, dict]:
        return {"cli.artifact_bytes_per_op": {
            "value": sum(len(out) for _, out in results) / len(results),
            "unit": "bytes/op"}}


class ValidateSmall(_Validate):
    name = "validate_small"
    SIZES = ((CU4O2, 200),)


class ValidateLarge(_Validate):
    name = "validate_large"
    SIZES = (({"Cu": 43, "O": 21}, 2), ({"Cu": 85, "O": 43}, 2))


# ---------------------------------------------------------------------------
# inspect_slabs

# metal, fcc lattice constant (A), surface cell nx x ny, layers, adsorbate
SLABS = (
    ("Cu", 3.615, 2, 3, 4, "H"),    # 24 + 1 = 25 sites
    ("Ni", 3.524, 3, 4, 4, "O"),    # 48 + 1 = 49 sites
    ("Pd", 3.891, 3, 4, 6, "CO"),   # 72 + 2 = 74 sites
    ("Pt", 3.924, 3, 6, 7, "OH"),   # 126 + 2 = 128 sites
)
# adsorbate atoms stacked on a top site: (element, height above the atom below)
ADSORBATES = {
    "H": (("H", 1.50),),
    "O": (("O", 1.80),),
    "CO": (("C", 1.85), ("O", 1.15)),
    "OH": (("O", 2.00), ("H", 0.97)),
}
VACUUM = 12.0  # angstroms above the highest atom
NEIGHBOR_SCALE = 1.2  # catloop's default bonding criterion


@dataclass
class Slab:
    path: str
    lengths: tuple
    elements: list[str]
    frac: np.ndarray
    contact: str  # "<element>@<label>" of the site the adsorbate sits over


def build_slab(rng: np.random.Generator, workdir: Path, k: int,
               metal: str, a0: float, nx: int, ny: int, layers: int,
               adsorbate: str) -> Slab:
    """An fcc(100) slab with one adsorbate on a top site, plus its sidecar.

    Layers alternate between the square grid and the grid shifted by half a
    cell diagonal, a0 / 2 apart in z.  Metal atoms get a +-0.02 A jitter;
    the adsorbate sits over a seeded top site with a +-0.05 A lateral and
    height jitter.
    """
    d = a0 / math.sqrt(2.0)  # in-plane nearest-neighbour distance
    z0 = 1.0
    cart = []
    for layer in range(layers):
        shift = 0.5 * (layer % 2)
        for i in range(nx):
            for j in range(ny):
                cart.append([(i + shift) * d, (j + shift) * d, z0 + layer * a0 / 2])
    cart = np.array(cart) + rng.uniform(-0.02, 0.02, size=(len(cart), 3))
    n_metal = len(cart)
    top = list(range(n_metal - nx * ny, n_metal))
    anchor = top[int(rng.integers(len(top)))]
    pos = cart[anchor] + np.append(rng.uniform(-0.05, 0.05, size=2), 0.0)
    ads_elements = []
    for el, height in ADSORBATES[adsorbate]:
        pos = pos + [0.0, 0.0, height + rng.uniform(-0.05, 0.05)]
        cart = np.vstack([cart, pos])
        ads_elements.append(el)
    lengths = (nx * d, ny * d, float(np.max(cart[:, 2])) + VACUUM)
    elements = [metal] * n_metal + ads_elements
    # write coordinates as the 12-decimal strings the program reads, and
    # keep exactly those values for the checks
    text_frac = [[f"{(x / L) % 1.0:.12f}" for x, L in zip(p, lengths)] for p in cart]
    frac = np.array([[float(v) for v in row] for row in text_frac])
    labels, counts = [], {}
    for el in elements:
        counts[el] = counts.get(el, 0) + 1
        labels.append(f"{el}{counts[el]}")
    lines = [f"data_slab{k}"]
    lines += [f"_cell_length_{ax} {L:.12f}" for ax, L in zip("abc", lengths)]
    lines += [f"_cell_angle_{ang} 90" for ang in ("alpha", "beta", "gamma")]
    lines += ["_symmetry_space_group_name_H-M 'P 1'", "loop_", "_atom_site_label",
              "_atom_site_type_symbol", "_atom_site_fract_x", "_atom_site_fract_y",
              "_atom_site_fract_z"]
    lines += [f"{lab} {el} {' '.join(row)}"
              for lab, el, row in zip(labels, elements, text_frac)]
    path = workdir / f"slab{k}.cif"
    path.write_text("\n".join(lines) + "\n")
    meta = {"adsorbate": list(range(n_metal, len(elements))), "surface_top": top,
            "catalyst_composition": {metal: n_metal}, "miller": [1, 0, 0]}
    (workdir / f"slab{k}.meta.json").write_text(json.dumps(meta))
    lengths = tuple(float(f"{L:.12f}") for L in lengths)
    return Slab(str(path), lengths, elements, frac, f"{metal}@{labels[anchor]}")


class InspectSlabs(Workload):
    name = "inspect_slabs"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 5])
        self.slabs = [build_slab(rng, self.workdir, k, *spec)
                      for k, spec in enumerate(SLABS)]
        self.paths = [s.path for s in self.slabs]

    def round(self) -> list:
        return [None]

    def run_op(self, arg):
        geometry = invoke(["geometry", *self.paths, "--neighbors", "--format", "json"])
        textify = invoke(["textify", *self.paths, "--format", "json"])
        return len(self.paths), (geometry, textify)

    def check(self, arg, output) -> list[str]:
        geometry, textify = (json.loads(o) for o in output)
        problems = []
        if [f["path"] for f in geometry["files"]] != self.paths:
            return ["geometry report does not list the batch in order"]
        if [s["path"] for s in textify["systems"]] != self.paths:
            return ["textify report does not list the batch in order"]
        angles = (90.0, 90.0, 90.0)
        for slab, rec, system in zip(self.slabs, geometry["files"], textify["systems"]):
            name = Path(slab.path).name
            if not rec["ok"] or rec["n_sites"] != len(slab.elements):
                problems.append(f"{name}: geometry record {rec.get('n_sites')} sites")
                continue
            want = oracle.min_pair_distance(slab.lengths, angles, slab.frac)
            if abs(rec["min_pair_distance"] - want) > 1e-9:
                problems.append(
                    f"{name}: min_pair_distance {rec['min_pair_distance']!r} != {want!r}")
            entries = {(e["site_i"], e["site_j"], tuple(e["image"])): e["distance"]
                       for e in rec["neighbors"]}
            for (i, j, img), dist in entries.items():
                mirror = entries.get((j, i, tuple(-v for v in img)))
                if mirror is None or abs(mirror - dist) > 1e-12:
                    problems.append(f"{name}: neighbor ({i}, {j}, {img}) has no mirror")
                    break
            count = oracle.neighbor_count(slab.lengths, angles, slab.elements,
                                          slab.frac, NEIGHBOR_SCALE)
            if not len(entries) == len(rec["neighbors"]) == rec["n_neighbor_entries"] == count:
                problems.append(
                    f"{name}: {rec['n_neighbor_entries']} neighbor entries, "
                    f"brute force counts {count}")
            primary = system["configuration_part"].split(";")[0]
            if primary != f"primary: {slab.contact}":
                problems.append(f"{name}: {primary!r}, adsorbate sits over {slab.contact}")
        return problems

    def counters(self, results: list) -> dict[str, dict]:
        return {"cli.artifact_bytes_per_op": {
            "value": sum(len(g) + len(t) for _, (g, t) in results) / len(results),
            "unit": "bytes/op"}}


WORKLOADS = {w.name: w for w in (SearchCu4O2, ValidateSmall, ValidateLarge, InspectSlabs)}
