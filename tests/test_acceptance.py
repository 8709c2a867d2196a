"""Eight acceptance criteria, each with a single summary verdict line.

Every test prints (and registers for the terminal summary) one line:

    criterion N [PASS|FAIL] <name>: <detail>; <elapsed>

A criterion fails honestly: the FAIL line is emitted before the assertion
error propagates, including when the body raised an unexpected exception.
"""

import itertools
import json
import time

import numpy as np
import pytest

import conftest
from catloop.cif import parse_cif, serialize_cif, structures_close
from catloop.cli import main
from catloop.policy import (
    CandidateGroup,
    GroupMember,
    GrpoConfig,
    MmtgConfig,
    SequenceLogProbs,
    group_advantages,
    grpo_loss,
    kl_estimate,
    mmtg_loss,
    sequences_from_token_counts,
)
from catloop.reward import pvcp
from catloop.search import (
    DefectRates,
    MutationGenerator,
    PairPotentialSurrogate,
    SearchConfig,
    run_search,
)
from catloop.geometry import min_image_distance, min_pair_distance
from conftest import MINIMAL_CIF, random_structure


def _emit(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


class _criterion:
    """Context manager producing exactly one verdict line per criterion."""

    def __init__(self, num: int, name: str, budget_s: float):
        self.num = num
        self.name = name
        self.budget = budget_s
        self.detail = ""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc is not None:
            _emit(self.num, self.name, False, f"{exc_type.__name__}: {exc}")
            return False
        timing = f"{elapsed:.1f}s (budget {self.budget:.0f}s)"
        if elapsed >= self.budget:
            _emit(self.num, self.name, False, f"{self.detail}; over budget, {timing}")
            raise AssertionError(f"criterion {self.num} exceeded runtime budget: {timing}")
        _emit(self.num, self.name, True, f"{self.detail}; {timing}")
        return False


# ---------------------------------------------------------------------------
# 1. composite reward fidelity


COMPOSITE_EXAMPLE = """\
data_x
_cell_length_a 4.0
_cell_length_b 4.0
_cell_length_c 4.0
_cell_angle_alpha 90
_cell_angle_beta 90
_cell_angle_gamma 90
loop_
_atom_site_label
_atom_site_type_symbol
_atom_site_fract_x
_atom_site_fract_y
_atom_site_fract_z
Cu1 Cu 0.2 0.2 0.2
Cu2 Cu 0.2 0.2 0.2
"""


def test_criterion_1_composite_reward():
    with _criterion(1, "composite reward fidelity", 60.0) as c:
        br = pvcp(COMPOSITE_EXAMPLE, {"Cu": 2})
        assert abs(br.total - 0.8833333333333333) <= 1e-9
        assert br.flag_codes() == ["PV", "VF"]

        rng = np.random.default_rng(20250817)
        bases = [serialize_cif(random_structure(rng)) for _ in range(150)]
        noise_pool = (
            rng.integers(32, 127, size=300_000, dtype=np.uint8).tobytes().decode()
        )
        checked = 0

        def assert_bounded(text, target):
            nonlocal checked
            b = pvcp(text, target)
            for v in (b.s_parse, b.s_valid, b.s_comp, b.s_phys, b.total):
                assert 0.0 <= v <= 1.0, (v, text[:80])
            checked += 1

        targets = [{"Cu": 2}, {"Cu": 4, "O": 1}, {"H": 1}, {}]
        cut = rng.integers(0, 1000, size=30_000)
        for k in range(30_000):  # structured candidates, pristine or damaged
            text = bases[k % 150]
            mode = k % 3
            if mode == 1:
                text = text[: int(cut[k]) % max(len(text), 1)]
            elif mode == 2:
                pos = int(cut[k]) % max(len(text), 1)
                text = text[:pos] + "\x00?" + text[pos:]
            assert_bounded(text, targets[k % 4])
        starts = rng.integers(0, 290_000, size=70_000)
        lengths = rng.integers(0, 160, size=70_000)
        for k in range(70_000):  # unstructured noise
            text = noise_pool[int(starts[k]) : int(starts[k]) + int(lengths[k])]
            if k % 4 == 0:
                text = "data_x\nloop_\n" + text
            assert_bounded(text, targets[k % 4])
        c.detail = f"worked example within 1e-9; {checked} fuzz inputs bounded in [0,1]"


# ---------------------------------------------------------------------------
# 2. group-relative policy math


def test_criterion_2_policy_math():
    with _criterion(2, "group-relative policy math", 60.0) as c:
        shared = SequenceLogProbs((0,), (-1.0,), (-1.0,))

        def group(rewards):
            return CandidateGroup(
                "g", tuple(GroupMember(shared, float(r)) for r in rewards)
            )

        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(10_000):
            k = int(rng.integers(2, 9))
            rewards = rng.normal(0.0, float(rng.uniform(0.5, 3.0)), size=k)
            resid = abs(float(np.mean(group_advantages(group(rewards)))))
            worst = max(worst, resid)
            assert resid <= 1e-9
        adv = group_advantages(group([0.2, 0.5, 0.8]), epsilon=0.0)
        assert abs(adv[0] + 1.2247448713915892) <= 1e-5
        assert abs(adv[1]) <= 1e-9
        assert abs(adv[2] - 1.2247448713915892) <= 1e-5

        for vals in ((-0.5,), (-1.0, -2.0, -0.3), tuple(rng.uniform(-3, -0.1, 6))):
            seq = SequenceLogProbs(tuple(range(len(vals))), vals, vals)
            assert kl_estimate(seq) == 0.0  # identical policies: exactly zero

        # finite-difference check on a 3-logit softmax toy policy
        theta_ref = np.array([0.1, -0.2, 0.3])
        token_seqs = [(0, 0), (1, 1), (2, 0)]
        rewards = [1.0, 0.0, 0.5]
        beta = 0.1

        def toy_group(theta):
            return CandidateGroup(
                "toy",
                tuple(
                    GroupMember(
                        sequences_from_token_counts(theta, theta_ref, toks), r
                    )
                    for toks, r in zip(token_seqs, rewards)
                ),
            )

        def loss(theta):
            return grpo_loss(toy_group(theta), GrpoConfig(beta=beta, epsilon=0.0))[0]

        theta0 = np.array([0.3, -0.1, 0.2])
        p = np.exp(theta0 - np.max(theta0))
        p /= p.sum()
        adv0 = group_advantages(toy_group(theta0), epsilon=0.0)
        analytic = np.zeros(3)
        for a_k, toks in zip(adv0, token_seqs):
            counts = np.bincount(np.array(toks), minlength=3) / len(toks)
            analytic += (-a_k + beta) * (counts - p)
        analytic /= len(token_seqs)
        h = 1e-6
        fd = np.array(
            [
                (loss(theta0 + h * e) - loss(theta0 - h * e)) / (2 * h)
                for e in np.eye(3)
            ]
        )
        rel = float(np.linalg.norm(fd - analytic) / np.linalg.norm(analytic))
        assert rel <= 1e-5
        assert float(fd @ analytic) > 0.0  # same descent direction
        c.detail = (
            f"10000 groups mean-zero (worst {worst:.1e}); frozen advantages, "
            f"exact-zero KL, gradient check rel err {rel:.1e}"
        )


# ---------------------------------------------------------------------------
# 3. gated two-task loss


def test_criterion_3_gated_loss():
    with _criterion(3, "gated two-task loss forms", 30.0) as c:
        rng = np.random.default_rng(11)
        n = 1_000_000
        a = rng.uniform(0.0, 50.0, n)
        b = rng.uniform(0.0, 50.0, n)
        a[:1_000] = 0.0
        b[500:1_500] = a[500:1_500]
        worst = 0.0
        for gating in (1.0, 0.6, 0.25, 1e-6):
            out = mmtg_loss(a, b, MmtgConfig(gating=gating))
            l_max = np.maximum(a, b)
            l_min = np.minimum(a, b)
            multiplicative = l_max * (2.0 - gating * np.tanh(l_min))
            additive = 2.0 * l_max - gating * (l_max * np.tanh(l_min))
            gap = float(np.max(np.abs(multiplicative - additive)))
            worst = max(worst, gap)
            assert gap <= 1e-12
            assert float(np.max(np.abs(out - multiplicative))) <= 1e-12
            assert np.all(out >= l_max - 1e-12)
            assert np.all(out <= 2.0 * l_max + 1e-12)
        assert abs(mmtg_loss(2.0, 1.0) - 2.4768116880884703) <= 1e-5
        c.detail = (
            f"forms agree on 4x{n} pairs (worst gap {worst:.1e}); bounds hold; "
            "frozen value within 1e-5"
        )


# ---------------------------------------------------------------------------
# 4. minimum-image geometry


def _oracle_min_image(structure, i, j):
    m = structure.lattice.matrix
    inv = np.linalg.inv(m)
    d_min = float(np.min(1.0 / np.linalg.norm(inv, axis=0)))
    frac = structure.frac
    delta = frac[j] - frac[i]
    delta -= np.round(delta)
    if i == j:
        start = float(np.min(np.linalg.norm(m, axis=1)))
    else:
        start = float(np.linalg.norm(delta @ m))
    span = int(np.ceil(start / d_min + 0.5)) + 1
    r = np.arange(-span, span + 1)
    offs = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    if i == j:
        offs = offs[np.any(offs != 0, axis=1)]
    d = np.linalg.norm((delta + offs) @ m, axis=1)
    return float(d.min())


def test_criterion_4_geometry_oracle():
    with _criterion(4, "minimum-image distance vs exhaustive oracle", 120.0) as c:
        rng = np.random.default_rng(101)
        pairs = 0
        worst = 0.0
        for _ in range(500):
            s = random_structure(rng, max_sites=8)
            n = len(s)
            best = np.inf
            for i, j in itertools.combinations_with_replacement(range(n), 2):
                got = min_image_distance(s, i, j)
                want = _oracle_min_image(s, i, j)
                worst = max(worst, abs(got - want))
                assert abs(got - want) <= 1e-9, (i, j, got, want)
                best = min(best, want)
                pairs += 1
            assert abs(min_pair_distance(s) - best) <= 1e-9
        c.detail = f"500 cells, {pairs} pairs, worst deviation {worst:.1e} A"


# ---------------------------------------------------------------------------
# 5. CIF round trip and parser robustness


def test_criterion_5_cif_round_trip():
    with _criterion(5, "CIF round trip and crash-free parsing", 120.0) as c:
        rng = np.random.default_rng(303)
        for k in range(1000):
            s = random_structure(rng)
            out = parse_cif(serialize_cif(s))
            assert not out.defects, (k, out.defects)
            assert structures_close(s, out.structure, tol=1e-9), k

        pool = rng.integers(0, 256, size=400_000, dtype=np.uint8).tobytes()
        base = MINIMAL_CIF.encode()
        starts = rng.integers(0, 399_000, size=100_000)
        lengths = rng.integers(0, 200, size=100_000)
        for k in range(100_000):
            blob = pool[int(starts[k]) : int(starts[k]) + int(lengths[k])]
            if k % 5 == 0:  # splice noise into a well-formed document
                cut = int(starts[k]) % len(base)
                blob = base[:cut] + blob + base[cut:]
            outcome = parse_cif(blob)  # must never raise
            assert outcome.ok == (not any(d.fatal for d in outcome.defects))
        c.detail = "1000 round trips defect-free at 1e-9; 100000 noise inputs, no crash"


# ---------------------------------------------------------------------------
# 6. failure-rate calibration harness


def test_criterion_6_failure_rate_harness(tmp_path, capsys):
    with _criterion(6, "defect-rate recovery and per-class ablation", 120.0) as c:
        target = {"Cu": 4, "O": 2}
        base_rates = {
            "syntax": 0.10,
            "missing_field": 0.15,
            "composition": 0.20,
            "overlap": 0.25,
        }
        class_to_flag = {
            "syntax": "PF",
            "missing_field": "VF",
            "composition": "CM",
            "overlap": "PV",
        }
        n = 2000

        def build_corpus(dirname, rates):
            gen = MutationGenerator(defect_rates=DefectRates(**rates))
            d = tmp_path / dirname
            d.mkdir()
            expected = {"PF": 0, "VF": 0, "CM": 0, "PV": 0}
            paths = []
            for seed in range(n):
                p = d / f"c{seed:04d}.cif"
                p.write_text(gen.propose(None, target, seed))
                paths.append(str(p))
                for flag in gen.expected_failure_flags(seed, target):
                    expected[flag] += 1
            return paths, {k: 100.0 * v / n for k, v in expected.items()}

        def measured_rates(paths):
            code = main(
                ["validate", *paths, "--target", "Cu:4,O:2", "--format", "json"]
            )
            out = capsys.readouterr().out
            assert code == 0
            return json.loads(out)["failure_rates"]

        paths, expected = build_corpus("base", base_rates)
        got = measured_rates(paths)
        for flag in ("PF", "VF", "CM", "PV"):
            assert got[flag] == pytest.approx(expected[flag], abs=1e-9), flag
            assert got[flag] > 0.0

        for cls, flag in class_to_flag.items():
            ablated = dict(base_rates)
            ablated[cls] = 0.0
            paths, expected = build_corpus(f"ablate_{cls}", ablated)
            got = measured_rates(paths)
            assert got[flag] == 0.0, (cls, got)
            for other in set(class_to_flag.values()) - {flag}:
                assert got[other] == pytest.approx(expected[other], abs=1e-9)
                assert got[other] > 0.0
        c.detail = (
            f"{n}-candidate corpus rates recovered exactly; "
            "each single-class ablation zeroes only its own flag"
        )


# ---------------------------------------------------------------------------
# 7. closed-loop search success rate


def test_criterion_7_closed_loop_search():
    with _criterion(7, "closed-loop search success rate", 300.0) as c:
        target = {"Cu": 4, "O": 2}
        gen = MutationGenerator()
        predictor = PairPotentialSurrogate()
        probe = parse_cif(gen.propose(None, target, 999)).structure
        target_energy = float(predictor.predict(probe))
        successes = 0
        worst_delta = 0.0
        for seed in range(100):
            cfg = SearchConfig(
                target_energy=target_energy,
                target_composition=target,
                seed=seed,
                iterations=10,
                candidates_per_iteration=16,
                pool_capacity=8,
                success_tolerance=0.1,
            )
            report = run_search(gen, predictor, cfg)
            minima = [log.pool_min for log in report.iterations]
            assert all(b >= a for a, b in zip(minima, minima[1:])), seed
            successes += report.success
            worst_delta = max(worst_delta, report.best_abs_delta)
        assert successes >= 90, f"only {successes}/100 seeds succeeded"
        c.detail = (
            f"{successes}/100 seeds within 0.1 eV (worst |dE| {worst_delta:.3f}); "
            "pool minimum non-decreasing in all runs"
        )


# ---------------------------------------------------------------------------
# 8. byte-identical CLI artifacts


def test_criterion_8_reproducible_artifacts(tmp_path, capsys):
    with _criterion(8, "byte-identical CLI artifacts", 120.0) as c:
        gen = MutationGenerator()
        cifs = []
        for seed in range(3):
            p = tmp_path / f"in_{seed}.cif"
            p.write_text(gen.propose(None, {"Cu": 3, "O": 1}, seed))
            cifs.append(str(p))

        slab = tmp_path / "slab.cif"
        slab.write_text(MINIMAL_CIF)
        (tmp_path / "slab.meta.json").write_text(
            json.dumps(
                {
                    "adsorbate": [0],
                    "surface_top": [],
                    "catalyst_composition": {"Cu": 1},
                    "miller": [1, 0, 0],
                }
            )
        )
        groups = tmp_path / "groups.jsonl"
        groups.write_text(
            json.dumps(
                {
                    "prompt_id": "g",
                    "members": [
                        {"logp_current": [-0.5], "logp_reference": [-0.5],
                         "reward": 1.0},
                        {"logp_current": [-2.0], "logp_reference": [-2.0],
                         "reward": 0.0},
                    ],
                }
            )
            + "\n"
        )
        probe = parse_cif(gen.propose(None, {"Cu": 3, "O": 1}, 999)).structure
        search_cfg = tmp_path / "search.json"
        search_cfg.write_text(
            json.dumps(
                {
                    "search": {
                        "target_energy": float(
                            PairPotentialSurrogate().predict(probe)
                        ),
                        "target_composition": {"Cu": 3, "O": 1},
                        "seed": 0,
                        "iterations": 3,
                        "candidates_per_iteration": 8,
                        "pool_capacity": 4,
                        "init_candidates": 16,
                        "init_rounds": 3,
                    }
                }
            )
        )

        invocations = {
            "validate": ["validate", *cifs, "--target", "Cu:3,O:1"],
            "geometry": ["geometry", *cifs, "--neighbors"],
            "textify": ["textify", str(slab)],
            "grpo": ["grpo", str(groups)],
            "mmtg": ["mmtg", "2", "1"],
            "search": ["search", "--config", str(search_cfg)],
        }
        for name, argv in invocations.items():
            outputs = []
            for run in ("a", "b"):
                out_dir = tmp_path / f"{name}_{run}"
                code = main([*argv, "--out", str(out_dir), "--format", "json"])
                stdout = capsys.readouterr().out
                assert code == 0, (name, run, code)
                files = {
                    f.name: f.read_bytes() for f in sorted(out_dir.iterdir())
                }
                assert files, name
                outputs.append((stdout, files))
            assert outputs[0] == outputs[1], f"{name} artifacts differ between runs"
        c.detail = "6 commands run twice each: stdout and artifact files identical"
