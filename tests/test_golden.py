"""Golden digests of every CLI subcommand's artifact and of the parser's outcomes.

The SHA-256 digests below pin the exact bytes of `catloop search` reports
at the criterion-7 configuration and, with a small loop, at the criterion-6
defect rates (so init and refine candidates are rejected for parse, hard
check and composition), of a `catloop validate` report over a
seeded corpus at the criterion-6 defect rates, of `geometry --neighbors`,
`textify`, `grpo` and `mmtg --pairs` reports over small fixed inputs, and
of a canonical dump of every `parse_cif` outcome over a seeded corpus of
generated and mutated CIF text.  A numeric refactor that moves even one
bit of a distance, an energy, a score, a parsed coordinate or a defect
changes a digest.

The digests were taken with numpy 2.4.6 (Python 3.11, x86-64) and so pin
that numpy/BLAS build as well: another build may round a product in the
last place.  Any change to a digest is a deliberate re-baseline, made
together with a CHANGES.md note that says why the bytes moved.

The CLI runs inside `tmp_path` with relative file names, so the manifest
(which records input names) does not depend on where the test runs.
"""

import hashlib
import json

import numpy as np
import pytest

from catloop.cif import parse_cif, serialize_cif
from catloop.cli import main
from catloop.search import DefectRates, MutationGenerator, PairPotentialSurrogate
from conftest import MINIMAL_CIF

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
    0: "4c6d016131b1765cacefcf63e82bac93fef06aecde4e828fa102290b6674fc97",
    1: "64d324f4ceda7be19c554c8f25b0d50d0f1b227f6fdf054b013fdc454bf042c9",
    2: "e24467030900ff9d8e5be90d2021070a716673dee5ffba3cc5028d63efe9613f",
}
DEFECT_SEARCH_DIGEST = "4c22534ede40a9c971ebf361158743df74e9d4805a10dbd9857af1e16953c92a"
VALIDATE_DIGEST = "98e2efe9b73744241af7ee47ecbba2260ce98ed87e62ee6747ce903107cc0f4a"
PARSE_DIGEST = "009a071abf1197f8e882544c591fab275fa351a5da7cbb838254a94780959311"
GEOMETRY_DIGEST = "6256995eb94fcacc39413d02ec3471d63c76d92e67579392a9f6653f06120819"
TEXTIFY_DIGEST = "8a1fe360bbb51ba0043858ca7b30d38f4ebba81ff7bd9684f378eb837f182850"
GRPO_DIGEST = "5b42d33ad9edd45c97551f4d6d96f2d7b621c9651e85e7fde799299d51de14c7"
MMTG_DIGEST = "ab50de2baf4f774d81e968e113b2a2997cfc48498936f5ead24b958d3a429f25"

# Parse corpus: generated files at 6, 64 and 128 sites, then seeded text
# edits of the 6- and 64-site files.  The snippets hit every tokenizer rule
# (quotes and `#` inside and at the start of a token, `;` text fields, tabs,
# line breaks, reserved words in either case) and every number form (`(3)`
# suffixes, `d` exponents, overflow, `nan`), and the inserted rows repeat a
# label, fall back from the type symbol to the label or leave the [-0.5, 1.5)
# window; `İ` lowercases to two characters.
PARSE_CORPUS = ((CU4O2, 40), ({"Cu": 43, "O": 21}, 6), ({"Cu": 85, "O": 43}, 4))
PARSE_EDITS = (
    "'", '"', "#", ";", "\t", "\n", " ", "_", "\n;", ";\n", "loop_", "LOOP_",
    "data_", "Data_x ", "(3)", "d", "D-1", "e", "1e999", "nan", "İ", "\xa0",
    " ' ", ' "a b" ', " # ", "\nloop_\n_atom_site_label\n", "\n_cell_length_a ",
    "\nCu1 Cu 0.5 0.25 1.75(2)", "\nO1 Xx -0.6 .5 0", "\n? ? 0 0 0", "\u212a",
)
MUTANTS_PER_FILE = 10


def _mutate(text: str, rng: np.random.Generator) -> str:
    for _ in range(int(rng.integers(1, 5))):
        pos = int(rng.integers(0, len(text) + 1))
        if rng.random() < 0.6:
            text = text[:pos] + PARSE_EDITS[int(rng.integers(len(PARSE_EDITS)))] + text[pos:]
        else:
            text = text[:pos] + text[pos + int(rng.integers(1, 4)) :]
    return text


def parse_corpus() -> list[str]:
    gen = MutationGenerator(defect_rates=DefectRates(**CRITERION6_RATES))
    texts = [
        gen.propose(None, target, seed)
        for target, count in PARSE_CORPUS
        for seed in range(count)
    ]
    rng = np.random.default_rng(20261018)
    mutants = [
        _mutate(text, rng)
        for text in texts
        if len(text) < 5000
        for _ in range(MUTANTS_PER_FILE)
    ]
    return texts + mutants


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def _loop_rows(loop) -> list:
    """A loop's rows rebuilt from its columns; `zip` would silently drop the
    tail of a longer column, so every column must hold one value per row."""
    assert len(loop.values) == len(loop.columns)
    assert all(len(column) == len(loop.row_lines) for column in loop.values)
    return list(zip(*loop.values))


def dump_outcome(outcome) -> list:
    """Every field of a `ParseOutcome`, floats as `float.hex`."""
    doc, st = outcome.document, outcome.structure
    return [
        [[d.code.value, d.message, d.line] for d in outcome.defects],
        doc and [
            doc.block_name,
            list(doc.scalars.items()),
            [[lp.columns, _loop_rows(lp), lp.line, lp.row_lines] for lp in doc.loops],
            list(doc.tag_lines.items()),
        ],
        st and [
            _hexes(st.lattice.lengths + st.lattice.angles),
            st.space_group_symbol,
            st.space_group_number,
            [
                [label, element, _hexes(xyz)]
                for label, element, xyz in zip(st.labels, st.elements, st.frac.tolist())
            ],
        ],
        outcome.coords_in_window,
    ]


def _run(capsys, *argv) -> bytes:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    # the artifact form: one line of compact JSON with sorted keys
    canonical = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
    assert out == canonical + "\n"
    return out.encode()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def search_artifact(capsys, seed: int, search: dict | None = None, **sections) -> bytes:
    """A search report at the criterion-7 configuration.

    `search` updates the loop's keys and `sections` adds config sections.
    """
    probe = parse_cif(MutationGenerator().propose(None, CU4O2, 999)).structure
    config = {
        "search": {
            "target_energy": float(PairPotentialSurrogate().predict(probe)),
            "target_composition": CU4O2,
            "seed": seed,
            "iterations": 10,
            "candidates_per_iteration": 16,
            "pool_capacity": 8,
            "success_tolerance": 0.1,
            **(search or {}),
        },
        **sections,
    }
    with open("search.json", "w") as fh:
        json.dump(config, fh, sort_keys=True)
    return _run(capsys, "search", "--config", "search.json", "--format", "json")


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


def _write_slab(cu_slab, stem: str) -> None:
    structure, meta, _ = cu_slab
    with open(f"{stem}.cif", "w") as fh:
        fh.write(serialize_cif(structure))
    with open(f"{stem}.meta.json", "w") as fh:
        json.dump(meta.to_json_dict(), fh, sort_keys=True)


def geometry_artifact(capsys, cu_slab) -> bytes:
    """Generated 6- and 24-site files, a slab, a degenerate cell and junk."""
    gen = MutationGenerator()
    paths = []
    for target, seeds in ((CU4O2, range(3)), ({"Cu": 16, "O": 8}, range(1))):
        for seed in seeds:
            name = f"n{sum(target.values())}_{seed}.cif"
            with open(name, "w") as fh:
                fh.write(gen.propose(None, target, seed))
            paths.append(name)
    _write_slab(cu_slab, "slab")
    with open("tiny.cif", "w") as fh:
        fh.write(MINIMAL_CIF.replace("4.0", "0.005"))
    with open("junk.cif", "w") as fh:
        fh.write("junk")
    return _run(
        capsys, "geometry", *paths, "slab.cif", "tiny.cif", "junk.cif",
        "missing.cif", "--neighbors", "--format", "json",
    )


def textify_artifact(capsys, cu_slab) -> bytes:
    """A slab with its sidecar, a file without one, and an unparseable file."""
    _write_slab(cu_slab, "slab")
    _write_slab(cu_slab, "junk")  # the sidecar for the junk CIF below
    with open("junk.cif", "w") as fh:
        fh.write("junk")
    with open("bare.cif", "w") as fh:
        fh.write(MINIMAL_CIF)
    with open("textify.json", "w") as fh:
        json.dump({"separator": " | ", "neighbor_scale": 1.3}, fh)
    return _run(
        capsys, "textify", "slab.cif", "bare.cif", "junk.cif",
        "--config", "textify.json", "--format", "json",
    )


def grpo_artifact(capsys) -> bytes:
    """Three seeded groups around a malformed line and a blank line."""
    rng = np.random.default_rng(7)
    lines = []
    for g in range(3):
        members = []
        for _ in range(4):
            n = int(rng.integers(2, 6))
            members.append({
                "logp_current": (-rng.uniform(0.1, 3.0, n)).tolist(),
                "logp_reference": (-rng.uniform(0.1, 3.0, n)).tolist(),
                "reward": float(rng.random()),
            })
        lines.append(json.dumps({"prompt_id": f"g{g}", "members": members}))
    lines[1:1] = ["{broken", ""]
    with open("groups.jsonl", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open("grpo.json", "w") as fh:
        json.dump({"grpo": {"beta": 0.05}}, fh)
    return _run(
        capsys, "grpo", "groups.jsonl", "--config", "grpo.json", "--format", "json"
    )


def mmtg_artifact(capsys) -> bytes:
    with open("pairs.json", "w") as fh:
        json.dump([[2.0, 1.0], [0.0, 3.0], [0.25, 0.75], [1e-3, 7.5]], fh)
    with open("mmtg.json", "w") as fh:
        json.dump({"mmtg": {"gating": 0.5}}, fh)
    return _run(
        capsys, "mmtg", "3", "1", "--pairs", "pairs.json", "--config", "mmtg.json",
        "--format", "json",
    )


@pytest.mark.parametrize("seed", sorted(SEARCH_DIGESTS))
def test_search_report_digest(tmp_path, monkeypatch, capsys, seed):
    monkeypatch.chdir(tmp_path)
    assert _digest(search_artifact(capsys, seed)) == SEARCH_DIGESTS[seed]


def test_defect_rate_search_report_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # eight candidates per init round, so the pool needs a second round
    artifact = search_artifact(
        capsys,
        4,
        search={"init_candidates": 8},
        generator={"defect_rates": CRITERION6_RATES},
    )
    assert _digest(artifact) == DEFECT_SEARCH_DIGEST


def test_validate_report_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _digest(validate_artifact(capsys)) == VALIDATE_DIGEST


def test_geometry_report_digest(tmp_path, monkeypatch, capsys, cu_slab):
    monkeypatch.chdir(tmp_path)
    assert _digest(geometry_artifact(capsys, cu_slab)) == GEOMETRY_DIGEST


def test_textify_report_digest(tmp_path, monkeypatch, capsys, cu_slab):
    monkeypatch.chdir(tmp_path)
    assert _digest(textify_artifact(capsys, cu_slab)) == TEXTIFY_DIGEST


def test_grpo_report_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _digest(grpo_artifact(capsys)) == GRPO_DIGEST


def test_mmtg_report_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _digest(mmtg_artifact(capsys)) == MMTG_DIGEST


def test_parse_outcome_digest():
    sha = hashlib.sha256()
    for text in parse_corpus():
        sha.update(json.dumps(dump_outcome(parse_cif(text))).encode())
        sha.update(b"\n")
    assert sha.hexdigest() == PARSE_DIGEST
