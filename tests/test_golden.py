"""Golden digests of two CLI artifacts.

The SHA-256 digests below pin the exact bytes of `catloop search` reports
at the criterion-7 configuration and of a `catloop validate` report over a
seeded corpus at the criterion-6 defect rates.  A numeric refactor that
moves even one bit of a distance, an energy or a score changes a digest.

The digests were taken with numpy 2.4.6 (Python 3.11, x86-64) and so pin
that numpy/BLAS build as well: another build may round a product in the
last place.  Any change to a digest is a deliberate re-baseline, made
together with a CHANGES.md note that says why the bytes moved.

The CLI runs inside `tmp_path` with relative file names, so the manifest
(which records input names) does not depend on where the test runs.
"""

import hashlib
import json

import pytest

from catloop.cif import parse_cif
from catloop.cli import main
from catloop.search import DefectRates, MutationGenerator, PairPotentialSurrogate

CU4O2 = {"Cu": 4, "O": 2}
CRITERION6_RATES = {
    "syntax": 0.10,
    "missing_field": 0.15,
    "composition": 0.20,
    "overlap": 0.25,
}
# (target composition, files from seeds 0, 1, ...); with these counts every
# defect class, a syntax failure included, occurs in the corpus
CORPUS = ((CU4O2, 30), ({"Cu": 43, "O": 21}, 8))

SEARCH_DIGESTS = {
    0: "8292930fca14e9e9f5e83830c4990e2c45cd6635347c747115640d5db07cfe73",
    1: "21a4626f04eb080d744b620f60bd9d75cdf5a0e7416da596cdc89cb9d9da7ff1",
    2: "e13276679da2e9498390037975576cddc496de221b4e60bca62e4ad907396b61",
}
VALIDATE_DIGEST = "0c37b774f0c5edd103d8ec58769fef251cfffffc98d64f38674971c76d487f7c"


def _run(capsys, *argv) -> bytes:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out.encode()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def search_artifact(capsys, seed: int) -> bytes:
    probe = parse_cif(MutationGenerator().propose(None, CU4O2, 999)).structure
    config = {
        "search": {
            "target_energy": float(PairPotentialSurrogate().predict(probe)),
            "target_composition": CU4O2,
            "iterations": 10,
            "candidates_per_iteration": 16,
            "pool_capacity": 8,
            "success_tolerance": 0.1,
        }
    }
    with open("search.json", "w") as fh:
        json.dump(config, fh, sort_keys=True)
    return _run(
        capsys, "search", "--config", "search.json", "--seed", str(seed),
        "--format", "json",
    )


def validate_artifact(capsys) -> bytes:
    gen = MutationGenerator(defect_rates=DefectRates(**CRITERION6_RATES))
    paths, targets = [], {}
    for target, count in CORPUS:
        n = sum(target.values())
        for seed in range(count):
            name = f"n{n}_{seed}.cif"
            with open(name, "w") as fh:
                fh.write(gen.propose(None, target, seed))
            paths.append(name)
            targets[name] = target
    with open("targets.json", "w") as fh:
        json.dump(targets, fh, sort_keys=True)
    return _run(
        capsys, "validate", *paths, "--targets-file", "targets.json",
        "--format", "json",
    )


@pytest.mark.parametrize("seed", sorted(SEARCH_DIGESTS))
def test_search_report_digest(tmp_path, monkeypatch, capsys, seed):
    monkeypatch.chdir(tmp_path)
    assert _digest(search_artifact(capsys, seed)) == SEARCH_DIGESTS[seed]


def test_validate_report_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _digest(validate_artifact(capsys)) == VALIDATE_DIGEST
