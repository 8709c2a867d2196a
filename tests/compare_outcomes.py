"""Print one SHA-256 over everything the parser and the validity and pvcp
scores make of a fixed seeded corpus, for whichever `catloop` is imported.

Run it once per tree and compare the two lines:

    PYTHONPATH=<tree>/src python tests/compare_outcomes.py

The corpus is `parse_corpus()` from the golden tests, then 15,000 mutants
made by the golden `_mutate` and 15,000 that edit the header lines, all of
the corpus's generated files under 5000 characters.  A header mutant has
one to three edits of the cell and space-group lines: each sets a value
such as `-`, `0`, `180`, `200`, `?`, `.`, `231` or `1.5`, renames a tag to
another header tag or its alias, deletes a line, repeats a tag or adds
one.  Every text is parsed as `str` and as UTF-8 `bytes`; the digest
covers both `dump_outcome` records, `validity_checklist` and the
`pvcp_from_outcome` breakdown (`to_json_dict` plus `hard_pass`) against
Cu4O2.  The tag names are spelled out here, so the corpus does not change
with the package.

The file has no `test_` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from catloop.cif import parse_cif
from catloop.reward import pvcp_from_outcome, validity_checklist
from test_golden import CU4O2, PARSE_CORPUS, _mutate, dump_outcome, parse_corpus

MUTANTS = 15_000  # of each kind
HEADER_TAGS = (
    "_cell_length_a", "_cell_length_b", "_cell_length_c",
    "_cell_angle_alpha", "_cell_angle_beta", "_cell_angle_gamma",
    "_symmetry_space_group_name_H-M", "_space_group_name_H-M_alt",
    "_symmetry_Int_Tables_number", "_space_group_IT_number",
    "_CELL_LENGTH_A", "_Symmetry_Space_Group_Name_h-m", "_SPACE_GROUP_IT_NUMBER",
)
HEADER_VALUES = (
    "-", "0", "180", "200", "?", ".", "231", "1.5", "-1", "90", "120", "150",
    "4.0(2)", "225", "225(1)", "0.0", "x", "''", "' P 1 '", "'F m -3 m'", "1e999",
    "2d0", "nan",
)


def _header_mutant(text: str, rng: np.random.Generator) -> str:
    """`text` with one to three edits of the lines between `data_` and `loop_`."""
    lines = text.split("\n")
    for _ in range(int(rng.integers(1, 4))):
        end = next((k for k, ln in enumerate(lines) if ln.lower() == "loop_"), len(lines))
        k = int(rng.integers(1, max(end, 2)))
        tag, _, value = lines[k].partition(" ")
        new_tag = HEADER_TAGS[int(rng.integers(len(HEADER_TAGS)))]
        new_value = HEADER_VALUES[int(rng.integers(len(HEADER_VALUES)))]
        op = int(rng.integers(8))
        if op < 4:  # a new value
            lines[k] = f"{tag} {new_value}"
        elif op == 4:  # a new tag name
            lines[k] = f"{new_tag} {value}"
        elif op == 5:
            del lines[k]
        elif op == 6:  # the same tag again
            lines.insert(k + 1, f"{tag} {new_value}")
        else:
            lines.insert(k, f"{new_tag} {new_value}")
    return "\n".join(lines)


def corpus() -> list[str]:
    texts = parse_corpus()
    generated = texts[: sum(count for _, count in PARSE_CORPUS)]
    bases = [t for t in generated if len(t) < 5000]
    rng = np.random.default_rng(20261022)
    picks = rng.integers(len(bases), size=2 * MUTANTS)
    mutants = [_mutate(bases[k], rng) for k in picks[:MUTANTS]]
    headers = [_header_mutant(bases[k], rng) for k in picks[MUTANTS:]]
    return texts + mutants + headers


def record(text: str) -> list:
    outcome = parse_cif(text)
    breakdown = pvcp_from_outcome(outcome, CU4O2)
    return [
        dump_outcome(outcome),
        dump_outcome(parse_cif(text.encode())),
        validity_checklist(outcome),
        breakdown.to_json_dict(),
        breakdown.hard_pass,
    ]


def main() -> None:
    texts = corpus()
    sha = hashlib.sha256()
    for text in texts:
        sha.update(json.dumps(record(text)).encode())
        sha.update(b"\n")
    print(f"{len(texts)} texts: {sha.hexdigest()}")


if __name__ == "__main__":
    main()
