"""End-to-end command-line behavior: exit codes, artifacts, determinism."""

import argparse
import itertools
import json
import re
from dataclasses import asdict

import pytest

from catloop import __version__, cli
from catloop.cif import parse_cif, serialize_cif
from catloop.cli import _SECTIONS, build_parser, main, parse_composition_arg
from catloop.policy import GrpoConfig, MmtgConfig
from catloop.reward import PhysConfig, RewardWeights, pvcp
from catloop.search import (
    DefectRates,
    MutationGenerator,
    PairPotentialSurrogate,
    SearchConfig,
    combined_reward,
)
from conftest import BAD_COMPOSITIONS, BAD_SIDECAR_INTEGERS, MINIMAL_CIF

TARGET = {"Cu": 4, "O": 2}
# JSON nested past Python's recursion limit: `json.loads` raises RecursionError
TOO_DEEP = b"[" * 100_000 + b"]" * 100_000


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, config):
    """Write `config` as the JSON file cfg.json; returns its path as a string."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return str(cfg)


def write_clean_corpus(tmp_path, n=6, comps=(TARGET,)):
    """`n` generated files cycling through the compositions `comps`, file k from seed k."""
    gen = MutationGenerator()
    paths = []
    for seed in range(n):
        p = tmp_path / f"cand_{seed}.cif"
        p.write_text(gen.propose(None, comps[seed % len(comps)], seed))
        paths.append(str(p))
    return paths


# ---------------------------------------------------------------------------
# parser-level behavior


def test_version(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert __version__ in out


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "usage" in err


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_one_parser_serves_every_call(tmp_path, capsys):
    assert build_parser() is build_parser()
    p = tmp_path / "ok.cif"
    p.write_text(MINIMAL_CIF)
    code, out, _ = run_cli(
        capsys, "validate", str(p), "--target", "Cu:1", "--format", "json"
    )
    assert code == 0
    manifest = json.loads(out)["manifest"]
    assert manifest["args"] == {"target": "Cu:1", "targets_file": None}
    code, out, _ = run_cli(capsys, "validate", str(p), "--format", "json")
    assert code == 0
    manifest = json.loads(out)["manifest"]
    assert manifest["args"] == {"target": None, "targets_file": None}
    code, out, err = run_cli(capsys, "validate", str(p), "--format", "xml")
    assert (code, out) == (1, "")
    assert "usage" in err
    code, out, _ = run_cli(capsys, "--version")
    assert (code, out) == (0, f"catloop {__version__}\n")
    code, out, _ = run_cli(capsys, "geometry", str(p))
    assert code == 0
    assert out == f"{p}: sites=1 min_dist=4.0000 vpa=64.000 neighbors=0\n"


def test_parse_composition_arg():
    assert parse_composition_arg("Cu:4,O:1") == {"Cu": 4, "O": 1}
    assert parse_composition_arg(" Cu:2 , Cu:1 ") == {"Cu": 3}
    from catloop.cli import CliError

    for bad in ("Xx:1", "Cu:abc", "Cu:-2", "Cu:2.7", "Cu:-2,Cu:3", "", "Cu:0"):
        with pytest.raises(CliError):
            parse_composition_arg(bad)


# ---------------------------------------------------------------------------
# validate


def test_validate_self_composition(tmp_path, capsys):
    p = tmp_path / "ok.cif"
    p.write_text(MINIMAL_CIF)
    code, out, err = run_cli(capsys, "validate", str(p))
    assert code == 0
    assert "total=1.0000" in out
    assert "manifest" in err  # progress goes to stderr only


def test_validate_json_format(tmp_path, capsys):
    p = tmp_path / "ok.cif"
    p.write_text(MINIMAL_CIF)
    code, out, _ = run_cli(capsys, "validate", str(p), "--format", "json")
    assert code == 0
    artifact = json.loads(out)
    assert artifact["files"][0]["reward"]["total"] == 1.0
    assert artifact["files"][0]["target"] == {"Cu": 1}
    assert artifact["failure_rates"] == {"PF": 0.0, "VF": 0.0, "CM": 0.0, "PV": 0.0}


def test_validate_uniform_target(tmp_path, capsys):
    p = tmp_path / "ok.cif"
    p.write_text(MINIMAL_CIF)
    code, out, _ = run_cli(
        capsys, "validate", str(p), "--target", "O:1", "--format", "json"
    )
    assert code == 0
    rec = json.loads(out)["files"][0]
    assert rec["reward"]["failure_flags"] == ["CM"]


def test_validate_targets_file_by_basename(tmp_path, capsys):
    p = tmp_path / "a.cif"
    p.write_text(MINIMAL_CIF)
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps({"a.cif": {"Cu": 1}}))
    code, out, _ = run_cli(
        capsys, "validate", str(p), "--targets-file", str(targets),
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["files"][0]["reward"]["total"] == 1.0


def test_validate_bad_targets_file(tmp_path, capsys):
    p = tmp_path / "a.cif"
    p.write_text(MINIMAL_CIF)
    targets = tmp_path / "targets.json"
    for content in (
        "{broken",
        '["a.cif"]',
        '{"a.cif": ["Cu"]}',
        '{"a.cif": {"Xx": 1}}',
        '{"a.cif": {"Cu": -1}}',
        '{"a.cif": {"Cu": 2.7}}',
        '{"a.cif": {"Cu": "1"}}',
        '{"a.cif": {"Cu": true}}',
    ):
        targets.write_text(content)
        code, _, err = run_cli(
            capsys, "validate", str(p), "--targets-file", str(targets)
        )
        assert code == 1, content
        assert "targets file" in err


@pytest.mark.parametrize(
    "table, extra",
    [
        ({"sub/a.cif": {}, "a.cif": {"Cu": 4, "O": 2}}, ()),
        ({"sub/a.cif": {}}, ("--target", "Cu:1")),
        ({"a.cif": {}}, ()),
        # a target needs at least one atom
        ({"a.cif": {"Cu": 0}}, ()),
        ({"a.cif": {"Cu": 0, "O": 0}}, ()),
    ],
)
def test_validate_empty_target_entry_is_rejected(
    tmp_path, monkeypatch, capsys, table, extra
):
    # an empty entry is neither "missing" nor a target to score against
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    for name in ("a.cif", "sub/a.cif"):
        (tmp_path / name).write_text(MINIMAL_CIF)
    (tmp_path / "targets.json").write_text(json.dumps(table))
    code, out, err = run_cli(
        capsys, "validate", "a.cif", "sub/a.cif", "--targets-file", "targets.json",
        *extra,
    )
    assert code == 1 and not out
    assert "bad targets file entry" in err and "empty composition" in err


@pytest.mark.parametrize("target", ["", "Cu:0"])
def test_validate_empty_target_arg_is_rejected(tmp_path, capsys, target):
    # "" is a target with no atoms, not a missing one
    p = tmp_path / "ok.cif"
    p.write_text(MINIMAL_CIF)
    code, out, err = run_cli(capsys, "validate", str(p), "--target", target)
    assert code == 1 and not out
    assert f"composition {target!r}: empty composition" in err


def _validate_files(capsys, *argv) -> list[dict]:
    code, out, _ = run_cli(capsys, "validate", *argv, "--format", "json")
    assert code == 0
    return json.loads(out)["files"]


def test_validate_chunked_equals_each_file_alone(tmp_path, capsys):
    """Records of a corpus that spans several scoring chunks, as if alone."""
    gen = MutationGenerator(
        defect_rates=DefectRates(
            syntax=0.10, missing_field=0.15, composition=0.20, overlap=0.25
        )
    )
    texts = [gen.propose(None, TARGET, seed) for seed in range(150)]
    for k, seed in ((1, 0), (63, 1), (64, 2), (100, 3)):
        texts[k] = gen.propose(None, {"Cu": 43, "O": 21}, seed)
    degenerate = MINIMAL_CIF.replace("4.0", "0.005")
    over_budget = MINIMAL_CIF  # 1.2e5 images at the 1.98 A Cu-Cu credit cutoff
    for axis, length in (("a", "0.02"), ("b", "0.02"), ("c", "3000")):
        over_budget = over_budget.replace(
            f"_cell_length_{axis} 4.0", f"_cell_length_{axis} {length}"
        )
    # chunks hold 64 files: specials open a chunk or sit inside one
    texts[0] = texts[30] = degenerate
    texts[62] = "junk"
    texts[65] = texts[128] = over_budget
    paths = []
    for k, text in enumerate(texts):
        p = tmp_path / f"f{k}.cif"
        p.write_text(text)
        paths.append(str(p))
    # the same text under a second name, in another chunk
    (tmp_path / "f64_again.cif").write_text(texts[64])
    paths.append(str(tmp_path / "f64_again.cif"))
    argv = ("--target", "Cu:4,O:2")
    together = _validate_files(capsys, *paths, *argv)
    alone = [_validate_files(capsys, p, *argv)[0] for p in paths]
    assert len(together) == len(alone) == 151
    for rec, solo in zip(together, alone):
        assert rec == solo
    notes = [d for rec in together for d in rec["reward"]["diagnostics"]]
    assert any("cell volume below" in d for d in notes)
    assert any("lattice images within" in d for d in notes)
    assert sum(not rec["ok"] for rec in together) > 1


@pytest.mark.parametrize("n, passes", [(64, 1), (130, 3)])
def test_validate_builds_one_pair_pass_per_chunk(
    tmp_path, capsys, kernel_passes, n, passes
):
    paths = write_clean_corpus(tmp_path, n=n)
    files = _validate_files(capsys, *paths)
    assert len(files) == n and all(f["reward"]["total"] == 1.0 for f in files)
    assert len(kernel_passes) == passes
    assert sum(len(members) for members, _, _ in kernel_passes) == n


# eight compositions of 4-9 sites: each needs its own covalent cutoff
MIXED_TARGETS = [
    {"Cu": 4, "O": 2}, {"Zn": 4, "O": 2}, {"Ni": 3, "O": 3}, {"Pt": 2, "O": 2},
    {"Cu": 6, "O": 3}, {"Pd": 4, "C": 2}, {"Fe": 2, "O": 3}, {"Co": 3, "O": 4},
]


def test_validate_mixed_corpus_builds_each_file_once(tmp_path, capsys, kernel_passes):
    paths = write_clean_corpus(tmp_path, n=192, comps=MIXED_TARGETS)
    together = _validate_files(capsys, *paths)
    built = [s for members, _, _ in kernel_passes for s in members]
    assert len({id(s) for s in built}) == len(built) == 192
    # every pass lies inside one 64-file chunk, and a chunk makes at most
    # one pass per offset reach
    ends = list(itertools.accumulate(len(members) for members, _, _ in kernel_passes))
    assert {64, 128, 192} <= set(ends)
    keys = [((end - 1) // 64, reach) for end, (_, _, reach) in zip(ends, kernel_passes)]
    assert len(set(keys)) == len(keys)
    # seven cutoffs: Cu4O2 and Cu6O3 share Cu's
    assert len({c for _, cutoffs, _ in kernel_passes for c in cutoffs}) == 7
    alone = [_validate_files(capsys, p)[0] for p in paths]
    assert together == alone


# an input that cannot be read, and its message
UNREADABLE = {
    "missing": "[Errno 2] No such file or directory: '{}'",
    "directory": "[Errno 21] Is a directory: '{}'",
}


def unreadable_path(tmp_path, kind: str) -> str:
    """A path of the `UNREADABLE` kind `kind`: a missing file or a directory."""
    path = tmp_path / f"{kind}.cif"
    if kind == "directory":
        path.mkdir()
    return str(path)


def test_validate_unreadable_mixed(tmp_path, capsys):
    p = tmp_path / "ok.cif"
    p.write_text(MINIMAL_CIF)
    for kind, message in UNREADABLE.items():
        bad = unreadable_path(tmp_path, kind)
        code, out, _ = run_cli(capsys, "validate", str(p), bad, "--format", "json")
        assert code == 0
        artifact = json.loads(out)
        assert len(artifact["files"]) == 1
        assert artifact["errors"] == [{"path": bad, "error": message.format(bad)}]


def test_validate_no_readable_inputs(tmp_path, capsys):
    code, _, err = run_cli(capsys, "validate", str(tmp_path / "nope.cif"))
    assert code == 2
    assert "no readable" in err


# per command, a top-level key outside the section table beside a good
# section: a misspelt section, or a setting outside its section
UNKNOWN_KEYS = {
    "validate": {"weights": {}, "weight": {"comp": 1.0}},
    "textify": {"separator": " | "},
    "grpo": {"grpo": {}, "beta": 0.1},
    "mmtg": {"mmtg": {}, "gating": 0.5},
    "search": {"Generator": {"defect_rates": {"syntax": 1.0}}},
    "geometry": {"neighbour_scale": 5},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "ok.cif"],
        ["textify", "slab.cif"],
        ["grpo", "groups.jsonl"],
        ["mmtg", "2.0", "1.0"],
        ["search"],
        ["geometry", "ok.cif"],
    ],
    ids=lambda argv: argv[0],
)
def test_config_read_errors_exit_1(tmp_path, capsys, argv):
    # the config is read like --targets-file and --pairs, before any input
    cfg = tmp_path / "cfg.json"
    for kind, message in UNREADABLE.items():  # missing, then a directory
        if kind == "directory":
            cfg.mkdir()
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert (code, out) == (1, "")
        message = message.format(cfg)
        assert err == f"catloop {argv[0]}: cannot read config: {message}\n"
    cfg.rmdir()
    for data, message in (
        (b'{"grpo": "\xff"}', "bad config: "),
        (b'{"grpo": ', "bad config: "),
        (b"[1, 2]", "bad config: top level must be an object\n"),
        (TOO_DEEP, "bad config: maximum recursion depth exceeded"),
        # checked against every section, before any input is read
        (
            json.dumps(UNKNOWN_KEYS[argv[0]]).encode(),
            f"bad config: unknown key {list(UNKNOWN_KEYS[argv[0]])[-1]!r}\n",
        ),
    ):
        cfg.write_bytes(data)
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert (code, out) == (1, ""), data
        assert err.startswith(f"catloop {argv[0]}: {message}"), data
        assert "Traceback" not in err


def test_validate_bad_config(tmp_path, capsys):
    p = tmp_path / "ok.cif"
    p.write_text(MINIMAL_CIF)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code, _, _ = run_cli(capsys, "validate", str(p), "--config", str(cfg))
    assert code == 1
    cfg.write_text(json.dumps({"weights": {"comp": 0.9}}))  # no longer sums to 1
    code, _, err = run_cli(capsys, "validate", str(p), "--config", str(cfg))
    assert code == 1
    assert "weights" in err


@pytest.mark.parametrize(
    "section, values",
    [
        ("weights", {"comp": True, "parse": False, "valid": False, "phys": False}),
        ("weights", {"comp": 0.6, "parse": 0.2, "valid": 0.1, "phys": "0.1"}),
        ("phys", {"full_credit_fraction": True}),
        ("phys", {"vpa_min": True}),
        ("phys", {"radii": {"Cu": 1.32}}),
    ],
)
def test_validate_bad_config_values_exit_1(tmp_path, capsys, section, values):
    p = tmp_path / "ok.cif"
    p.write_text(MINIMAL_CIF)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: values}))
    code, _, err = run_cli(capsys, "validate", str(p), "--config", str(cfg))
    assert code == 1
    assert f"catloop validate: bad {section} config" in err


def test_validate_rates_match_generator_bookkeeping(tmp_path, capsys):
    rates = DefectRates(syntax=0.3, missing_field=0.4, composition=0.3, overlap=0.5)
    gen = MutationGenerator(defect_rates=rates)
    n = 40
    expected = {"PF": 0, "VF": 0, "CM": 0, "PV": 0}
    paths = []
    for seed in range(n):
        p = tmp_path / f"c{seed}.cif"
        p.write_text(gen.propose(None, TARGET, seed))
        paths.append(str(p))
        for flag in gen.expected_failure_flags(seed, TARGET):
            expected[flag] += 1
    code, out, _ = run_cli(
        capsys, "validate", *paths, "--target", "Cu:4,O:2", "--format", "json"
    )
    assert code == 0
    got = json.loads(out)["failure_rates"]
    for flag, count in expected.items():
        assert got[flag] == pytest.approx(100.0 * count / n, abs=1e-9)


# ---------------------------------------------------------------------------
# textify


@pytest.fixture
def slab_files(tmp_path, cu_slab):
    structure, meta, expected = cu_slab
    cif_path = tmp_path / "slab.cif"
    cif_path.write_text(serialize_cif(structure))
    (tmp_path / "slab.meta.json").write_text(json.dumps(meta.to_json_dict()))
    return cif_path, expected


def test_textify_happy_path(tmp_path, capsys, slab_files):
    cif_path, expected = slab_files
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "textify", str(cif_path), "--format", "json",
        "--out", str(out_dir),
    )
    assert code == 0
    record = json.loads(out)["systems"][0]
    assert record["adsorbate_part"] == "H"
    assert record["surface_part"] == "Cu (1 0 0)"
    assert record["configuration_part"] == expected["configuration_part"]
    assert record["text"].count("</s>") == 2
    assert (out_dir / "systems.txt").read_text() == record["text"] + "\n"


def test_textify_missing_sidecar(tmp_path, capsys):
    p = tmp_path / "bare.cif"
    p.write_text(MINIMAL_CIF)
    code, _, err = run_cli(capsys, "textify", str(p))
    assert code == 2
    assert "missing sidecar" in err


@pytest.mark.parametrize(
    "sidecar, message",
    [
        (b"{not json", "bad sidecar {}: Expecting property name enclosed in"),
        (b"\xff\xfe", "bad sidecar {}: 'utf-8' codec can't decode byte 0xff"),
        (TOO_DEEP, "bad sidecar {}: maximum recursion depth exceeded"),
        (None, "cannot read sidecar {}: [Errno 21] Is a directory"),
    ],
    ids=["json", "utf8", "nesting", "directory"],
)
def test_textify_unusable_sidecar_is_named(
    tmp_path, capsys, slab_files, sidecar, message
):
    cif_path, _ = slab_files
    meta_path = tmp_path / "slab.meta.json"
    meta_path.unlink()
    if sidecar is None:
        meta_path.mkdir()
    else:
        meta_path.write_bytes(sidecar)
    code, _, err = run_cli(capsys, "textify", str(cif_path))
    assert code == 2
    assert f"textify {cif_path}: {message.format(meta_path)}" in err
    assert "missing sidecar" not in err


def test_textify_parse_failure_comes_before_a_missing_sidecar(
    tmp_path, capsys, slab_files
):
    cif_path, _ = slab_files
    junk = tmp_path / "junk.cif"  # no junk.meta.json either
    junk.write_text("junk")
    code, out, _ = run_cli(
        capsys, "textify", str(cif_path), str(junk), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["errors"] == [
        {"path": str(junk), "error": "parse failure: SYNTAX"}
    ]


def test_textify_mixed_inputs(tmp_path, capsys, slab_files):
    cif_path, _ = slab_files
    bare = tmp_path / "bare.cif"
    bare.write_text(MINIMAL_CIF)
    code, out, _ = run_cli(
        capsys, "textify", str(cif_path), str(bare), "--format", "json"
    )
    assert code == 0
    artifact = json.loads(out)
    assert len(artifact["systems"]) == 1
    assert artifact["errors"][0]["path"] == str(bare)


@pytest.mark.parametrize(
    "composition", BAD_COMPOSITIONS.values(), ids=list(BAD_COMPOSITIONS)
)
def test_textify_bad_sidecar_composition(tmp_path, capsys, slab_files, composition):
    cif_path, _ = slab_files
    meta_path = tmp_path / "slab.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["catalyst_composition"] = composition
    meta_path.write_text(json.dumps(meta))
    code, _, err = run_cli(capsys, "textify", str(cif_path))
    assert code == 2
    assert f"{cif_path}: catalyst composition: " in err


@pytest.mark.parametrize(
    "key, value", BAD_SIDECAR_INTEGERS.values(), ids=list(BAD_SIDECAR_INTEGERS)
)
def test_textify_non_integer_sidecar_index(tmp_path, capsys, slab_files, key, value):
    cif_path, _ = slab_files
    meta_path = tmp_path / "slab.meta.json"
    meta = json.loads(meta_path.read_text())
    meta[key] = value
    meta_path.write_text(json.dumps(meta))
    code, _, err = run_cli(capsys, "textify", str(cif_path))
    assert code == 2
    assert f"{cif_path}: " in err and "must be integers" in err


def test_textify_lists_unreadable_inputs(tmp_path, capsys, slab_files):
    cif_path, _ = slab_files
    for kind, message in UNREADABLE.items():
        bad = unreadable_path(tmp_path, kind)
        code, out, _ = run_cli(
            capsys, "textify", str(cif_path), bad, "--format", "json"
        )
        assert code == 0
        artifact = json.loads(out)
        assert [r["path"] for r in artifact["systems"]] == [str(cif_path)]
        assert artifact["errors"] == [{"path": bad, "error": message.format(bad)}]


def test_textify_table_output(tmp_path, capsys, slab_files):
    cif_path, _ = slab_files
    code, out, _ = run_cli(capsys, "textify", str(cif_path))
    assert code == 0
    _, json_out, _ = run_cli(capsys, "textify", str(cif_path), "--format", "json")
    assert out == json.loads(json_out)["systems"][0]["text"] + "\n"


# ---------------------------------------------------------------------------
# grpo


GROUP_LINE = json.dumps(
    {
        "prompt_id": "g1",
        "members": [
            {"logp_current": [-0.5, -0.5], "logp_reference": [-0.5, -0.5],
             "reward": 1.0},
            {"logp_current": [-2.0, -2.0], "logp_reference": [-2.0, -2.0],
             "reward": 0.0},
        ],
    }
)


def test_grpo_jsonl(tmp_path, capsys):
    groups = tmp_path / "groups.jsonl"
    groups.write_text(GROUP_LINE + "\n{broken\n" + GROUP_LINE + "\n")
    cfg = write_config(tmp_path, {"grpo": {"beta": 0.1, "epsilon": 0}})
    code, out, _ = run_cli(
        capsys, "grpo", str(groups), "--config", cfg, "--format", "json"
    )
    assert code == 0
    artifact = json.loads(out)
    assert len(artifact["groups"]) == 2
    assert artifact["groups"][0]["loss"] == pytest.approx(-0.75, abs=1e-12)
    assert artifact["groups"][0]["advantages"] == pytest.approx([1.0, -1.0])
    assert artifact["errors"] == [{"line": 2, "error": artifact["errors"][0]["error"]}]


def test_grpo_table_output(tmp_path, capsys):
    groups = tmp_path / "groups.jsonl"
    groups.write_text(GROUP_LINE + "\n")
    cfg = write_config(tmp_path, {"grpo": {"epsilon": 0}})
    code, out, _ = run_cli(capsys, "grpo", str(groups), "--config", cfg)
    assert code == 0
    assert out == "g1: K=2 loss=-0.750000 advantages=1.0000,-1.0000\n"


def test_grpo_epsilon_key_is_a_line_error(tmp_path, capsys):
    with_epsilon = json.dumps({**json.loads(GROUP_LINE), "epsilon": 0.5})
    groups = tmp_path / "groups.jsonl"
    groups.write_text(GROUP_LINE + "\n" + with_epsilon + "\n")
    code, out, _ = run_cli(capsys, "grpo", str(groups), "--format", "json")
    assert code == 0
    artifact = json.loads(out)
    assert len(artifact["groups"]) == 1
    assert artifact["errors"][0]["line"] == 2
    assert "set it in the grpo config" in artifact["errors"][0]["error"]


def test_grpo_bool_reward_is_a_line_error(tmp_path, capsys):
    record = json.loads(GROUP_LINE)
    record["members"][0]["reward"] = True
    groups = tmp_path / "groups.jsonl"
    groups.write_text(GROUP_LINE + "\n" + json.dumps(record) + "\n")
    code, out, _ = run_cli(capsys, "grpo", str(groups), "--format", "json")
    assert code == 0
    artifact = json.loads(out)
    assert len(artifact["groups"]) == 1
    assert artifact["errors"] == [
        {"line": 2, "error": "member 0: reward must be a finite number, got True"}
    ]


def test_grpo_deeply_nested_line_is_a_line_error(tmp_path, capsys):
    groups = tmp_path / "groups.jsonl"
    groups.write_bytes(GROUP_LINE.encode() + b"\n" + TOO_DEEP + b"\n")
    code, out, err = run_cli(capsys, "grpo", str(groups), "--format", "json")
    assert code == 0
    artifact = json.loads(out)
    assert len(artifact["groups"]) == 1
    assert [e["line"] for e in artifact["errors"]] == [2]
    assert artifact["errors"][0]["error"].startswith(
        "invalid JSON: maximum recursion depth exceeded"
    )
    assert "Traceback" not in err


def test_grpo_all_bad_lines(tmp_path, capsys):
    groups = tmp_path / "groups.jsonl"
    groups.write_text("{broken\nnot json either\n")
    code, _, err = run_cli(capsys, "grpo", str(groups))
    assert code == 2
    assert "no valid group records" in err


def test_grpo_missing_file(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "grpo", str(tmp_path / "none.jsonl"))
    assert code == 2


@pytest.mark.parametrize(
    "values", [{"beta": True}, {"beta": "0.1"}, {"epsilon": False}, {"beta": -1}]
)
def test_grpo_bad_config_values_exit_1(tmp_path, capsys, values):
    groups = tmp_path / "groups.jsonl"
    groups.write_text(GROUP_LINE + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grpo": values}))
    code, _, err = run_cli(capsys, "grpo", str(groups), "--config", str(cfg))
    assert code == 1
    assert "catloop grpo: bad grpo config" in err


# ---------------------------------------------------------------------------
# mmtg


def test_mmtg_positional(capsys):
    code, out, _ = run_cli(capsys, "mmtg", "2", "1", "--format", "json")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["combined"] == pytest.approx(2.4768116880884703, abs=1e-12)


def test_mmtg_table_output(capsys):
    code, out, _ = run_cli(capsys, "mmtg", "2", "1")
    assert code == 0
    assert "2.476812" in out


def test_mmtg_wrong_arity(capsys):
    code, _, err = run_cli(capsys, "mmtg", "2")
    assert code == 1
    assert "exactly two" in err


def test_mmtg_no_losses(capsys):
    code, _, err = run_cli(capsys, "mmtg")
    assert code == 1
    assert "--pairs" in err


def test_mmtg_pairs_file(tmp_path, capsys):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([[2.0, 1.0], [0.0, 3.0]]))
    code, out, _ = run_cli(
        capsys, "mmtg", "--pairs", str(pairs), "--format", "json"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results) == 2
    assert results[1]["combined"] == pytest.approx(6.0)


def test_mmtg_pairs_plus_positional(tmp_path, capsys):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([[1.0, 1.0]]))
    code, out, _ = run_cli(
        capsys, "mmtg", "5", "0", "--pairs", str(pairs), "--format", "json"
    )
    assert code == 0
    assert len(json.loads(out)["results"]) == 2


def test_mmtg_bad_pairs_file(tmp_path, capsys):
    pairs = tmp_path / "pairs.json"
    huge = "1" + "0" * 400  # a JSON integer beyond float range
    for text in (
        "oops", "[[true, false]]", '[["1", "2"]]', '{"12": 0}', f"[[{huge}, 1]]"
    ):
        pairs.write_text(text)
        code, _, err = run_cli(capsys, "mmtg", "--pairs", str(pairs))
        assert code == 1, text
        assert err.startswith("catloop mmtg: bad pairs file"), text
    pairs.write_text("[]")
    code, _, err = run_cli(capsys, "mmtg", "--pairs", str(pairs))
    assert (code, err) == (1, "catloop mmtg: the pairs file holds no pairs\n")
    # an unreadable side file is a usage error, even beside positional losses
    missing = str(tmp_path / "missing.json")
    code, _, err = run_cli(capsys, "mmtg", "3", "1", "--pairs", missing)
    assert code == 1
    message = UNREADABLE["missing"].format(missing)
    assert err == f"catloop mmtg: cannot read pairs file: {message}\n"


@pytest.mark.parametrize("argv", [["grpo", "groups.jsonl"], ["mmtg", "1", "2"]])
def test_policy_section_not_an_object_exits_1(tmp_path, capsys, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({argv[0]: "x"}))
    code, _, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 1
    assert f"catloop {argv[0]}: bad {argv[0]} config" in err


def test_mmtg_negative_loss(capsys):
    code, _, _ = run_cli(capsys, "mmtg", "--", "-1", "2")
    assert code == 1


@pytest.mark.parametrize("loss", ["nan", "inf"])
def test_mmtg_non_finite_loss_exits_1(capsys, loss):
    # refused before the manifest, which records the losses, is built
    code, out, err = run_cli(capsys, "mmtg", loss, "1", "--format", "json")
    assert (code, out, err) == (1, "", "catloop mmtg: task losses must be finite\n")


@pytest.mark.parametrize(
    "values", [{"gating": True}, {"gating": "1"}, {"gating": 0}]
)
def test_mmtg_bad_config_values_exit_1(tmp_path, capsys, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mmtg": values}))
    code, _, err = run_cli(capsys, "mmtg", "2", "1", "--config", str(cfg))
    assert code == 1
    assert "catloop mmtg: bad mmtg config" in err


# ---------------------------------------------------------------------------
# search


def search_config_file(tmp_path, **overrides):
    gen = MutationGenerator()
    probe = parse_cif(gen.propose(None, TARGET, 999)).structure
    section = {
        "target_energy": float(PairPotentialSurrogate().predict(probe)),
        "target_composition": TARGET,
        "seed": 0,
        "iterations": 4,
        "candidates_per_iteration": 8,
        "pool_capacity": 4,
        "init_candidates": 16,
        "init_rounds": 3,
    }
    section.update(overrides)
    cfg = tmp_path / "search.json"
    cfg.write_text(json.dumps({"search": section}))
    return cfg


def test_search_runs_and_reports(tmp_path, capsys):
    cfg = search_config_file(tmp_path)
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(
        capsys, "search", "--config", str(cfg), "--format", "json",
        "--out", str(out_dir),
    )
    assert code == 0
    artifact = json.loads(out)
    report = artifact["report"]
    assert len(report["iterations"]) == 4
    assert len(report["final_pool_scores"]) == 4
    assert parse_cif(report["best_cif"]).ok
    on_disk = json.loads((out_dir / "search_report.json").read_text())
    assert on_disk == artifact


def test_search_seed_override_changes_manifest(tmp_path, capsys):
    # the seed comes from the config's search.seed alone
    cfg = search_config_file(tmp_path)
    _, out_a, _ = run_cli(capsys, "search", "--config", str(cfg), "--format", "json")
    cfg = search_config_file(tmp_path, seed=5)
    _, out_b, _ = run_cli(capsys, "search", "--config", str(cfg), "--format", "json")
    a, b = json.loads(out_a), json.loads(out_b)
    assert a["manifest"]["id"] != b["manifest"]["id"]
    assert b["manifest"]["config"]["search"]["seed"] == 5
    assert "seed" not in b["manifest"]  # recorded once, in its section


# each command's options: none of them shadows a config key
OPTIONS = {
    "validate": {"--target", "--targets-file"},
    "textify": set(),
    "grpo": set(),
    "mmtg": {"--pairs"},
    "search": set(),
    "geometry": {"--neighbors"},
}
# settings held only by the config: --seed would be search.seed, --beta and
# --epsilon grpo's and --gating mmtg's; --scale, the neighbor scale, is fixed
SETTING_FLAGS = ("--seed", "--beta", "--epsilon", "--gating", "--scale")


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "ok.cif"],
        ["textify", "slab.cif"],
        ["grpo", "groups.jsonl"],
        ["mmtg", "2.0", "1.0"],
        ["geometry", "ok.cif"],
        ["search"],
    ],
    ids=lambda argv: argv[0],
)
def test_only_search_takes_seed(capsys, argv):
    # search takes its seed from search.seed, and no command takes a flag
    # for a setting: each setting has one source, the config file
    for flag in SETTING_FLAGS:
        code, out, err = run_cli(capsys, *argv, flag, "1")
        assert (code, out) == (1, ""), flag
        assert err.startswith("usage: catloop"), flag
        assert err.endswith(f"error: unrecognized arguments: {flag} 1\n"), flag
        assert "Traceback" not in err
    [sub] = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    options = {
        opt for a in sub.choices[argv[0]]._actions for opt in a.option_strings
    }
    assert options == {"-h", "--help", "--config", "--out", "--format"} | OPTIONS[
        argv[0]
    ]


def test_search_requires_target_composition(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"search": {"target_energy": -1.0}}))
    code, _, err = run_cli(capsys, "search", "--config", str(cfg))
    assert code == 1
    assert "target_composition" in err


@pytest.mark.parametrize("composition", [{"Cu": 0}, {"Cu": 0, "O": 0}])
def test_search_zero_atom_target_exits_1(tmp_path, capsys, composition):
    cfg = search_config_file(tmp_path, target_composition=composition)
    code, out, err = run_cli(capsys, "search", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == (
        "catloop search: bad search config: target_composition needs at least "
        "one atom\n"
    )


def test_search_unknown_element(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(
        json.dumps(
            {"search": {"target_energy": -1.0, "target_composition": {"Xq": 2}}}
        )
    )
    code, _, err = run_cli(capsys, "search", "--config", str(cfg))
    assert code == 1
    assert "unknown element" in err


@pytest.mark.parametrize(
    "section, values",
    [
        ("generator", {"defect_rates": {"bogus": 0.1}}),
        ("search", {"target_composition": {"Cu": "four"}}),
        ("search", {"target_composition": ["Cu"]}),
        ("search", {"seed": "x"}),
        ("search", {"seed": -1}),
        ("search", {"pool_capacity": 2.5}),
        # the stand-ins' tuning keys are gone, at values they once accepted
        ("generator", {"coord_jitter": 0.04}),
        ("generator", {"lattice_jitter": 0.0}),
        ("generator", {"spacing_cap": 2.0}),
        ("generator", {"spacing_floor": 1.9, "spacing_cap": 4.2}),
        ("generator", {"radii": "x"}),
        ("generator", {"radii": None}),
        ("generator", {"radii": 2.5}),
        ("generator", {"radii": []}),
        ("generator", {"radii": {}}),
        ("generator", {"radii": {"Cu": 1.32}}),
        ("generator", {"radii": {"Cu": "x", "O": 0.66}}),
        ("generator", {"radii": {"Cu": None, "O": 0.66}}),
        ("generator", {"radii": {"Cu": [1.32], "O": 0.66}}),
        ("generator", {"radii": {"Cu": -1.32, "O": 0.66}}),
        ("generator", {"radii": {"Cu": True, "O": 0.66}}),
        ("generator", {"radii": {"Cu": 1.32, "O": 0.66, "Xq": 1.0}}),
        ("search", {"target_composition": {"Cu": 2.7, "O": 2}}),
        ("search", {"target_composition": {"Cu": True, "O": 2}}),
        ("search", {"target_composition": {"Cu": -4, "O": 2}}),
        ("predictor", {"cutoff": 6.0}),
        ("predictor", {"cutoff": 5.0}),
        ("predictor", {"cutoff": 4.5}),
        ("predictor", {"depth_scale": 0.4}),
        ("predictor", {"depth_scale": 1.7}),
        ("predictor", {"bond_cap": 1e3}),
        ("predictor", {"bond_cap": 0.25}),
        # the predictor section an older manifest recorded
        ("predictor", {"depth_scale": 0.4, "cutoff": 6.0, "bond_cap": 1e3}),
        ("predictor", {"radii": None}),
        ("predictor", {"radii": {"Cu": 1.32}}),
        ("predictor", {"radii": {"Cu": -1.32, "O": 0.66}}),
        ("predictor", {"radii": {"Cu": True, "O": 0.66}}),
        # every component reads the covalent radii table: no radii key at all
        ("generator", {"radii": {"Cu": 1.32, "O": 0.66}}),
        ("predictor", {"radii": {"Cu": 1.32, "O": 0.66}}),
        # JSON true and false are not numbers
        ("search", {"target_energy": True}),
        ("search", {"target_energy": "-2.5"}),
        ("search", {"lambda_energy": True}),
        ("search", {"energy_weight": True, "pvcp_weight": False}),
        ("search", {"energy_weight": False, "pvcp_weight": True}),
        ("search", {"success_tolerance": True}),
        ("generator", {"defect_rates": {"syntax": True}}),
        ("generator", {"defect_rates": {"overlap": False}}),
        ("generator", {"defect_rates": {"composition": "0.1"}}),
        ("weights", {"comp": True, "parse": False, "valid": False, "phys": False}),
        ("phys", {"full_credit_fraction": True}),
        ("phys", {"vpa_min": True}),
        ("search", {"iterations": True}),
        ("search", {"seed": False}),
        ("search", {"pool_capacity": True}),
        # an integer too large for a float is not a finite number
        ("search", {"lambda_energy": 10**400}),
        ("weights", {"comp": 10**400}),
        # defect_rates that are not a mapping
        ("generator", {"defect_rates": [0.1]}),
        ("generator", {"defect_rates": None}),
        # a negative weight, although the two still sum to 1
        ("search", {"energy_weight": -0.5, "pvcp_weight": 1.5}),
        # more atoms than any CIF under the parser cap can hold
        ("search", {"target_composition": {"Cu": 10**9}}),
    ],
)
def test_search_bad_config_values_exit_1(tmp_path, capsys, section, values):
    cfg = search_config_file(tmp_path)
    obj = json.loads(cfg.read_text())
    obj.setdefault(section, {}).update(values)
    cfg.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "search", "--config", str(cfg))
    assert code == 1
    assert f"catloop search: bad {section} config" in err


@pytest.mark.parametrize("section", ["search", "generator"])
def test_search_section_not_an_object_exits_1(tmp_path, capsys, section):
    cfg = search_config_file(tmp_path)
    obj = json.loads(cfg.read_text())
    obj[section] = None
    cfg.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "search", "--config", str(cfg))
    assert code == 1
    assert f"bad {section} config" in err


def test_search_impossible_init_exits_2(tmp_path, capsys):
    cfg = search_config_file(tmp_path)
    obj = json.loads(cfg.read_text())
    obj["generator"] = {"defect_rates": {"overlap": 1.0}}
    cfg.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "search", "--config", str(cfg))
    assert code == 2
    assert "search failed" in err


# ---------------------------------------------------------------------------
# geometry


def test_geometry_summary(tmp_path, capsys):
    p = tmp_path / "ok.cif"
    p.write_text(MINIMAL_CIF)
    code, out, _ = run_cli(capsys, "geometry", str(p), "--format", "json")
    assert code == 0
    rec = json.loads(out)["files"][0]
    assert rec["n_sites"] == 1
    assert rec["min_pair_distance"] == pytest.approx(4.0)  # self image
    assert rec["volume_per_atom"] == pytest.approx(64.0)
    assert "neighbors" not in rec


def test_geometry_neighbors_flag(tmp_path, capsys):
    p = tmp_path / "ok.cif"
    p.write_text(MINIMAL_CIF.replace("4.0", "3.0"))
    code, out, _ = run_cli(
        capsys, "geometry", str(p), "--neighbors", "--format", "json"
    )
    assert code == 0
    rec = json.loads(out)["files"][0]
    # Cu's default cutoff, 1.2 * 2 * 1.32 = 3.168 A, lies beyond the 3.0 A
    # axes and short of the face diagonals, so the three axis self-images
    # appear, each as two directed entries
    assert rec["n_neighbor_entries"] == 6
    assert len(rec["neighbors"]) == 6
    assert all(e["site_i"] == 0 and e["site_j"] == 0 for e in rec["neighbors"])
    assert all(
        set(e) == {"site_i", "site_j", "image", "distance"} for e in rec["neighbors"]
    )


def test_geometry_all_unparseable(tmp_path, capsys):
    p = tmp_path / "bad.cif"
    p.write_text("random text")
    code, _, err = run_cli(capsys, "geometry", str(p))
    assert code == 2
    assert "no input could be inspected" in err


def test_geometry_mixed(tmp_path, capsys):
    good = tmp_path / "good.cif"
    good.write_text(MINIMAL_CIF)
    bad = tmp_path / "bad.cif"
    bad.write_text("junk")
    code, out, _ = run_cli(
        capsys, "geometry", str(good), str(bad), "--format", "json"
    )
    assert code == 0
    artifact = json.loads(out)
    assert [(r["path"], r["ok"]) for r in artifact["files"]] == [(str(good), True)]
    assert artifact["errors"] == [{"path": str(bad), "error": "parse failure: SYNTAX"}]


def test_geometry_degenerate_cell_is_a_file_error(tmp_path, capsys):
    good = tmp_path / "good.cif"
    good.write_text(MINIMAL_CIF)
    tiny = tmp_path / "tiny.cif"
    tiny.write_text(MINIMAL_CIF.replace("4.0", "0.005"))  # volume 1.25e-7 A^3
    code, out, _ = run_cli(
        capsys, "geometry", str(good), str(tiny), "--format", "json"
    )
    assert code == 0
    artifact = json.loads(out)
    assert [(r["path"], r["ok"]) for r in artifact["files"]] == [(str(good), True)]
    [error] = artifact["errors"]
    assert error["path"] == str(tiny)
    assert "cell volume below" in error["error"]
    code, _, err = run_cli(capsys, "geometry", str(tiny))
    assert code == 2
    assert "no input could be inspected" in err


def test_geometry_logs_why_no_file_was_inspected(tmp_path, capsys):
    # a 0.1 A cube: the default 3.168 A cutoff spans about 3e5 lattice offsets
    cif_path = tmp_path / "tiny.cif"
    cif_path.write_text(MINIMAL_CIF.replace("4.0", "0.1"))
    code, out, err = run_cli(capsys, "geometry", str(cif_path))
    assert code == 2
    assert out == ""
    assert f"geometry {cif_path}: " in err
    assert "lattice images within" in err and "(limit 100000)" in err
    assert err.splitlines()[-1].endswith("no input could be inspected")


def test_geometry_same_size_corpus_shares_one_pass(tmp_path, capsys, kernel_passes):
    paths = write_clean_corpus(tmp_path, n=64)
    code, out, _ = run_cli(
        capsys, "geometry", *paths, "--neighbors", "--format", "json"
    )
    assert code == 0 and len(json.loads(out)["files"]) == 64
    assert [len(members) for members, _, _ in kernel_passes] == [64]


def test_geometry_mixed_elements_share_one_pass(tmp_path, capsys, kernel_passes):
    # Zn's covalent cutoff is wider than Cu's: each file is built once, at
    # its own cutoff, in the first miss's pass
    paths = write_clean_corpus(tmp_path, n=64, comps=({"Zn": 4, "O": 2}, TARGET))
    argv = ("--neighbors", "--format", "json")
    code, out, _ = run_cli(capsys, "geometry", *paths, *argv)
    assert code == 0
    [(members, cutoffs, _)] = kernel_passes
    assert len(members) == 64 and len(set(cutoffs)) == 2
    alone = [json.loads(run_cli(capsys, "geometry", p, *argv)[1]) for p in paths]
    assert json.loads(out)["files"] == [a["files"][0] for a in alone]


# geometry and textify take no settings: each value their neighbor_scale
# and separator keys once refused (`old`, the message it got) is now an
# unknown key
@pytest.mark.parametrize(
    "argv, config, old",
    [
        (["geometry", "--neighbors"], {"neighbor_scale": "x"}, "bad neighbor_scale"),
        (["geometry", "--neighbors"], {"neighbor_scale": None}, "bad neighbor_scale"),
        (["textify"], {"neighbor_scale": "x"}, "bad neighbor_scale"),
        (["textify"], {"separator": None}, "bad separator"),
        (["geometry", "--neighbors"], {"neighbor_scale": 0}, "bad neighbor_scale"),
        (["geometry", "--neighbors"], {"neighbor_scale": -1}, "bad neighbor_scale"),
        (["textify"], {"neighbor_scale": 0}, "bad neighbor_scale"),
        (["textify"], {"neighbor_scale": -1}, "bad neighbor_scale"),
    ],
)
def test_inspection_bad_config_exits_1(
    tmp_path, capsys, slab_files, argv, config, old
):
    cif_path, _ = slab_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, *argv, str(cif_path), "--config", str(cfg))
    assert (code, out) == (1, "")
    [key] = config
    assert err == f"catloop {argv[0]}: bad config: unknown key {key!r}\n"


# ---------------------------------------------------------------------------
# manifest and determinism


def test_manifest_contents(tmp_path, capsys):
    p = tmp_path / "ok.cif"
    p.write_text(MINIMAL_CIF)
    _, out, _ = run_cli(capsys, "validate", str(p), "--format", "json")
    manifest = json.loads(out)["manifest"]
    assert manifest["command"] == "validate"
    assert manifest["args"] == {"target": None, "targets_file": None}
    assert "seed" not in manifest
    assert manifest["tool_version"] == __version__
    assert len(manifest["id"]) == 64
    assert set(manifest["inputs"]) == {str(p)}
    assert len(manifest["inputs"][str(p)]) == 64


def test_manifest_id_tracks_inputs_and_config(tmp_path, capsys):
    p = tmp_path / "ok.cif"
    p.write_text(MINIMAL_CIF)
    _, out_a, _ = run_cli(capsys, "validate", str(p), "--format", "json")
    _, out_b, _ = run_cli(capsys, "validate", str(p), "--format", "json")
    _, out_c, _ = run_cli(
        capsys, "validate", str(p), "--target", "Cu:1", "--format", "json"
    )
    p.write_text(MINIMAL_CIF + "\n# changed\n")
    _, out_d, _ = run_cli(capsys, "validate", str(p), "--format", "json")
    ids = [json.loads(o)["manifest"]["id"] for o in (out_a, out_b, out_c, out_d)]
    assert ids[0] == ids[1]  # same everything -> same id
    assert ids[2] != ids[0]  # config change -> new id
    assert ids[3] != ids[0]  # input change -> new id


def manifest_config(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--config", "cfg.json", "--format", "json")
    assert code == 0
    return json.loads(out)["manifest"]["config"]


# one or two keys per section: the manifest fills in the defaults.  With
# "search" these are all seven sections, and one file serves every command
PARTIAL_SECTIONS = {
    "weights": {"comp": 0.7, "parse": 0.1},
    "phys": {"vpa_max": 150.0},
    "generator": {"defect_rates": {"syntax": 0.01}},
    "predictor": {},  # the stock surrogate takes no keys
    "grpo": {"beta": 0.2},
    "mmtg": {"gating": 0.5},
}
# a command line for each command, with the values its manifest records
REPLAY_ARGV = [
    ["validate", "ok.cif", "--target", "Cu:1", "--targets-file", "targets.json"],
    ["textify", "slab.cif"],
    ["grpo", "groups.jsonl"],
    ["mmtg", "2", "1", "--pairs", "pairs.json"],
    ["search"],
    ["geometry", "ok.cif", "--neighbors"],
]


@pytest.mark.parametrize(
    "sections", [{}, PARTIAL_SECTIONS], ids=["search_only", "partial"]
)
def test_manifest_records_each_section_as_built(
    tmp_path, monkeypatch, capsys, cu_slab, sections
):
    assert set(_SECTIONS) == {"search", *PARTIAL_SECTIONS}
    search = json.loads(search_config_file(tmp_path).read_text())["search"]
    (tmp_path / "cfg.json").write_text(json.dumps({"search": search, **sections}))
    for name, data in sweep_files(cu_slab).items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)

    def built(name, cls):
        return asdict(cls(**sections.get(name, {})))

    validate = manifest_config(capsys, "validate", "ok.cif")
    assert validate == {
        "weights": built("weights", RewardWeights),
        "phys": built("phys", PhysConfig),
    }
    code, out, _ = run_cli(capsys, "search", "--config", "cfg.json", "--format", "json")
    artifact = json.loads(out)
    assert code == 0 and "config" not in artifact["report"]  # held once
    assert artifact["manifest"]["config"] == {
        "search": asdict(SearchConfig(**search)),
        "generator": built("generator", MutationGenerator),
        "predictor": built("predictor", PairPotentialSurrogate),
        "weights": built("weights", RewardWeights),
        "phys": built("phys", PhysConfig),
    }
    stand_ins = artifact["manifest"]["config"]
    assert list(stand_ins["generator"]) == ["defect_rates"]
    assert stand_ins["predictor"] == {}
    assert manifest_config(capsys, "grpo", "groups.jsonl") == {
        "grpo": built("grpo", GrpoConfig)
    }
    assert manifest_config(capsys, "mmtg", "2", "1") == {
        "mmtg": built("mmtg", MmtgConfig)
    }
    # a snapshot fed back as --config, with the same command line,
    # reproduces the artifact, manifest and all
    for argv in REPLAY_ARGV:
        code, out, _ = run_cli(capsys, *argv, "--config", "cfg.json", "--format", "json")
        assert code == 0, argv
        snapshot = json.loads(out)["manifest"]["config"]
        (tmp_path / "snapshot.json").write_text(json.dumps(snapshot))
        code, again, _ = run_cli(
            capsys, *argv, "--config", "snapshot.json", "--format", "json"
        )
        assert (code, again) == (0, out), argv


@pytest.mark.parametrize(
    "argv_a, argv_b",
    [
        (["validate", "ok.cif"], ["validate", "ok.cif", "--target", "Cu:2"]),
        (["geometry", "ok.cif"], ["geometry", "ok.cif", "--neighbors"]),
        (["mmtg", "1", "2"], ["mmtg", "1e308", "1e308"]),
    ],
    ids=["validate", "geometry", "mmtg"],
)
def test_manifest_id_tracks_the_args_that_change_the_artifact(
    tmp_path, monkeypatch, capsys, argv_a, argv_b
):
    (tmp_path / "ok.cif").write_text(MINIMAL_CIF)
    monkeypatch.chdir(tmp_path)
    artifacts = []
    for argv in (argv_a, argv_b):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        artifacts.append(json.loads(out))
    a, b = (art.pop("manifest") for art in artifacts)
    assert artifacts[0] != artifacts[1]
    assert a["args"] != b["args"] and a["id"] != b["id"]


def test_artifacts_byte_identical_across_runs(tmp_path, capsys):
    paths = write_clean_corpus(tmp_path, n=4)
    cfg = search_config_file(tmp_path)
    for sub in ("v1", "v2"):
        code, _, _ = run_cli(
            capsys, "validate", *paths, "--target", "Cu:4,O:2",
            "--out", str(tmp_path / sub),
        )
        assert code == 0
    assert (
        (tmp_path / "v1" / "validate_report.json").read_bytes()
        == (tmp_path / "v2" / "validate_report.json").read_bytes()
    )
    for sub in ("s1", "s2"):
        code, _, _ = run_cli(
            capsys, "search", "--config", str(cfg), "--out", str(tmp_path / sub)
        )
        assert code == 0
    assert (
        (tmp_path / "s1" / "search_report.json").read_bytes()
        == (tmp_path / "s2" / "search_report.json").read_bytes()
    )


def test_a_target_in_any_key_order_gives_one_artifact(tmp_path, monkeypatch, capsys):
    (tmp_path / "ok.cif").write_text(MINIMAL_CIF)  # Cu1: no target matches it
    monkeypatch.chdir(tmp_path)

    def body(*argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        art = json.loads(out)
        del art["manifest"]  # it records the target as typed
        return art

    runs = []
    for target in ({"Cu": 4, "O": 2}, {"O": 2, "Cu": 4}):
        (tmp_path / "targets.json").write_text(json.dumps({"ok.cif": target}))
        text = ",".join(f"{el}:{n}" for el, n in target.items())
        cfg = SearchConfig(target_energy=0.0, target_composition=target)
        runs.append((
            body("validate", "ok.cif", "--target", text),
            body("validate", "ok.cif", "--targets-file", "targets.json"),
            body("search", "--config", str(search_config_file(
                tmp_path, target_composition=target
            ))),
            pvcp(MINIMAL_CIF, target),
            combined_reward(MINIMAL_CIF, PairPotentialSurrogate(), cfg),
        ))
    assert runs[0] == runs[1]
    by_text, by_file, _, by_pvcp, by_search = runs[0]
    assert by_text == by_file
    diagnostic = "composition {'Cu': 1} vs target {'Cu': 4, 'O': 2}"
    assert diagnostic in by_text["files"][0]["reward"]["diagnostics"]
    assert diagnostic in by_pvcp.diagnostics == by_search.pvcp.diagnostics


@pytest.mark.parametrize(
    "section, values, argv",
    [
        ("search", {"lambda_energy": 1, "success_tolerance": 1}, ["search"]),
        ("generator", {"defect_rates": {"syntax": 0, "overlap": 0}}, ["search"]),
        ("weights", {"comp": 1, "parse": 0, "valid": 0, "phys": 0}, ["validate", "ok.cif"]),
        ("phys", {"vpa_min": 1, "vpa_max": 200}, ["validate", "ok.cif"]),
        ("grpo", {"beta": 1, "epsilon": 0}, ["grpo", "groups.jsonl"]),
        ("mmtg", {"gating": 1}, ["mmtg", "2", "1"]),
    ],
    ids=["search", "generator", "weights", "phys", "grpo", "mmtg"],
)
def test_a_float_setting_typed_as_an_int_gives_one_artifact(
    tmp_path, monkeypatch, capsys, section, values, argv
):
    (tmp_path / "ok.cif").write_text(MINIMAL_CIF)
    (tmp_path / "groups.jsonl").write_text(GROUP_LINE + "\n")
    base = json.loads(search_config_file(tmp_path).read_text()) if argv == ["search"] else {}
    monkeypatch.chdir(tmp_path)
    artifacts = []
    for typed in (values, json.loads(json.dumps(values), parse_int=float)):
        config = json.loads(json.dumps(base))
        config.setdefault(section, {}).update(typed)
        cfg = write_config(tmp_path, config)
        code, out, _ = run_cli(capsys, *argv, "--config", cfg, "--format", "json")
        assert code == 0
        artifacts.append(out)
    assert artifacts[0] == artifacts[1]


# ---------------------------------------------------------------------------
# non-finite results: JSON has no NaN or infinity.  `mmtg` refuses the run
# (exit 1); `grpo` and `geometry` report the item as an error record, so a
# run with nothing else to report exits 2.  numpy's floating-point warnings
# never reach stderr.


def group_line(prompt_id: str, logp: list[float]) -> str:
    """A two-member group whose second member has the log-probs `logp`."""
    members = [
        {"logp_current": [-0.5], "logp_reference": [-0.5], "reward": 1.0},
        {"logp_current": logp, "logp_reference": [-0.5] * len(logp), "reward": 0.0},
    ]
    return json.dumps({"prompt_id": prompt_id, "members": members})


# the second member's log-probs sum past the float range
HUGE_LOGP_LINE = group_line("g1", [-1e308, -1e308])
BIG_CIF = MINIMAL_CIF.replace("4.0", "1e150")  # its volume overflows
BIGGER_CIF = MINIMAL_CIF.replace("4.0", "1e155")  # so does a lattice row's length
CFG_GATING = {"cfg.json": json.dumps({"mmtg": {"gating": 0.001}})}


@pytest.mark.parametrize(
    "argv, files, code",
    [
        (["mmtg", "1e308", "1e308", "--config", "cfg.json"], CFG_GATING, 1),
        (["grpo", "groups.jsonl"], {"groups.jsonl": HUGE_LOGP_LINE}, 2),
        (["geometry", "big.cif"], {"big.cif": BIG_CIF}, 2),
    ],
    ids=["mmtg", "grpo", "geometry"],
)
def test_non_finite_result_exits_1(tmp_path, monkeypatch, capsys, argv, files, code):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    got, out, err = run_cli(capsys, *argv, "--out", "out", "--format", "json")
    assert (got, out) == (code, "")
    assert "result is not finite" in err and "RuntimeWarning" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["grpo", "geometry", "validate"])
def test_non_finite_item_leaves_the_others(tmp_path, monkeypatch, capsys, command):
    (tmp_path / "ok.cif").write_text(MINIMAL_CIF)
    (tmp_path / "big.cif").write_text(BIG_CIF)
    (tmp_path / "bigger.cif").write_text(BIGGER_CIF)
    lines = (group_line("g0", [-0.7]), HUGE_LOGP_LINE)
    (tmp_path / "groups.jsonl").write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)
    inputs = {
        "grpo": ["groups.jsonl"], "geometry": ["ok.cif", "big.cif", "bigger.cif"]
    }.get(command, ["ok.cif", "big.cif"])
    code, out, err = run_cli(capsys, command, *inputs, "--format", "json")
    assert code == 0 and "RuntimeWarning" not in err
    art = json.loads(out)
    if command == "grpo":
        assert [g["prompt_id"] for g in art["groups"]] == ["g0"]
        assert art["errors"] == [
            {"line": 2, "error": "result is not finite: a sum overflows"}
        ]
    elif command == "geometry":
        [ok] = art["files"]
        assert (ok["path"], ok["ok"], ok["volume"]) == ("ok.cif", True, 64.0)
        assert art["errors"] == [
            {"path": path, "error": "result is not finite: the cell is too large"}
            for path in ("big.cif", "bigger.cif")
        ]
    else:  # the physics score clamps, so validate scores both files
        assert [f["ok"] for f in art["files"]] == [True, True]


def test_geometry_table_lists_failed_files(tmp_path, monkeypatch, capsys):
    (tmp_path / "ok.cif").write_text(MINIMAL_CIF)
    (tmp_path / "big.cif").write_text(BIG_CIF)
    (tmp_path / "bad.cif").write_text("not a cif\n")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "geometry", "ok.cif", "big.cif", "missing.cif", "bad.cif"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("ok.cif: sites=1 ")
    assert lines[1].startswith("missing.cif: [Errno 2] ")
    assert lines[2:] == [
        "big.cif: result is not finite: the cell is too large",
        "bad.cif: parse failure: SYNTAX",
    ]


# ---------------------------------------------------------------------------
# inputs a command cannot use


@pytest.mark.parametrize("command", ["validate", "geometry", "textify"])
def test_each_input_is_listed_once(tmp_path, monkeypatch, capsys, cu_slab, command):
    structure, meta, _ = cu_slab
    files = {
        "good.cif": serialize_cif(structure),
        "junk.cif": "junk",
        "tiny.cif": MINIMAL_CIF.replace("4.0", "0.005"),
        "big.cif": BIG_CIF,
        "targets.json": json.dumps({"good.cif": {"Cu": 8, "H": 1}}),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        sidecar = json.dumps(meta.to_json_dict())  # so textify parses each CIF
        (tmp_path / name).with_suffix(".meta.json").write_text(sidecar)
    monkeypatch.chdir(tmp_path)
    inputs = ["good.cif", "junk.cif", "missing.cif", "tiny.cif"]
    flags = []
    if command == "geometry":
        inputs.append("big.cif")
    if command == "validate":  # the targets file is scored like any input
        inputs.append("targets.json")
        flags = ["--targets-file", "targets.json"]
    # a path listed twice is read, used and reported once
    argv = [*inputs, "good.cif", "missing.cif", *flags]
    code, out, err = run_cli(capsys, command, *argv, "--format", "json")
    assert code == 0
    art = json.loads(out)
    used = [r["path"] for r in art["systems" if command == "textify" else "files"]]
    errors = art["errors"]
    failed = [e["path"] for e in errors]
    assert sorted(used + failed) == sorted(inputs)
    assert all(set(e) == {"path", "error"} for e in errors)
    assert all(isinstance(v, str) for e in errors for v in e.values())
    # unreadable inputs first, the others in input order
    assert failed == ["missing.cif"] + [
        p for p in inputs if p in failed and p != "missing.cif"
    ]
    assert "unreadable" not in art
    logged = [LOG_LINE.sub("", line, count=1) for line in err.splitlines()]
    assert [line for line in logged if not line.startswith(f"{command} manifest ")] == [
        f"{command} {e['path']}: {e['error']}" for e in errors
    ]
    if command == "validate":
        assert len(used) == 4 and "PF" in art["files"][-1]["reward"]["failure_flags"]
    else:
        assert used == ["good.cif"]


@pytest.mark.parametrize("command", ["validate", "textify", "grpo", "geometry"])
def test_an_input_path_that_cannot_be_opened_is_an_error(
    tmp_path, monkeypatch, capsys, cu_slab, command
):
    # argv cannot hold a NUL byte, but an in-process `main(argv)` can
    for name, data in sweep_files(cu_slab).items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    bad = "a\x00b.cif"
    code, out, err = run_cli(capsys, command, bad)
    assert (code, out) == (2, "")
    logged = [LOG_LINE.sub("", line, count=1) for line in err.splitlines()]
    assert f"{command} {bad}: embedded null byte" in logged
    if command == "grpo":  # it reads one file
        return
    good = "slab.cif" if command == "textify" else "ok.cif"
    code, out, _ = run_cli(capsys, command, good, bad, "--format", "json")
    assert code == 0
    assert json.loads(out)["errors"] == [{"path": bad, "error": "embedded null byte"}]


def test_each_input_is_read_once_by_the_one_reader(
    tmp_path, monkeypatch, capsys, cu_slab
):
    reads = []
    read = cli._read

    def counted(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(cli, "_read", counted)
    files = sweep_files(cu_slab)
    files["slab.txt"] = files["slab.cif"]  # shares slab.meta.json with slab.cif
    files["cfg.json"] = b"{}"
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    cfg = ["--config", "cfg.json"]
    runs = {
        # a CIF listed twice, and a targets file that is also an input
        "validate": (
            ["ok.cif", "targets.json", "ok.cif", "--targets-file", "targets.json"],
            {"ok.cif", "targets.json"},
        ),
        "textify": (
            ["slab.cif", "slab.txt", "slab.cif", "slab.meta.json"],
            {"slab.cif", "slab.txt", "slab.meta.json", "slab.meta.meta.json"},
        ),
        "grpo": (["groups.jsonl"], {"groups.jsonl"}),
        "mmtg": (["--pairs", "pairs.json"], {"pairs.json"}),
        "geometry": (["ok.cif", "ok.cif", "--neighbors"], {"ok.cif"}),
    }
    for command, (argv, inputs) in runs.items():
        reads.clear()
        code, out, _ = run_cli(capsys, command, *argv, *cfg, "--format", "json")
        assert code == 0, command
        assert sorted(reads) == sorted(inputs | {"cfg.json"}), command
        # every input the manifest hashes came through the reader
        hashed = set(json.loads(out)["manifest"]["inputs"])
        assert hashed == inputs - {"slab.meta.meta.json"}, command


def _used_and_errors(capsys, command, paths, *flags):
    """The records and error records of one run; from the log if it exits 2."""
    code, out, err = run_cli(capsys, command, *paths, *flags, "--format", "json")
    if code == 2:  # no artifact: every input is an error, logged in order
        logged = [LOG_LINE.sub("", line, count=1) for line in err.splitlines()]
        return [], [
            {"path": p, "error": line.removeprefix(f"{command} {p}: ")}
            for line in logged for p in paths if line.startswith(f"{command} {p}: ")
        ]
    assert code == 0
    art = json.loads(out)
    return art["systems" if command == "textify" else "files"], art["errors"]


@pytest.mark.parametrize("command", ["geometry", "textify"])
def test_mixed_list_equals_one_file_runs(tmp_path, monkeypatch, capsys, cu_slab, command):
    """Sizes, compositions and failures mixed over two chunks, as if alone."""
    structure, slab_meta, _ = cu_slab
    gen = MutationGenerator()
    files = {"slab.cif": (serialize_cif(structure), slab_meta.to_json_dict())}
    for seed in range(24):
        for comp in (TARGET, {"Zn": 4, "O": 2}, {"Cu": 16, "O": 8}):
            name = f"{''.join(comp)}{sum(comp.values())}_{seed}.cif"
            meta = {"adsorbate": [0], "surface_top": [1, 2],
                    "catalyst_composition": comp, "miller": [1, 0, 0]}
            files[name] = (gen.propose(None, comp, seed), meta)
    one_site = {"adsorbate": [0], "surface_top": [],
                "catalyst_composition": {"Cu": 1}, "miller": [1, 0, 0]}
    specials = {
        "junk.cif": ("junk", one_site),
        "junk_bare.cif": ("junk", None),
        "tiny.cif": (MINIMAL_CIF.replace("4.0", "0.005"), one_site),
        "big.cif": (BIG_CIF, one_site),
        "bare.cif": (MINIMAL_CIF, None),
    }
    names = list(files)
    for k, (name, spec) in enumerate(specials.items()):
        files[name] = spec
        names.insert(7 + 15 * k, name)  # in both chunks of 64
    for name, (text, meta) in files.items():
        (tmp_path / name).write_text(text)
        if meta is not None:
            (tmp_path / name).with_suffix(".meta.json").write_text(json.dumps(meta))
    monkeypatch.chdir(tmp_path)
    flags = ["--neighbors"] if command == "geometry" else []
    together = _used_and_errors(capsys, command, names, *flags)
    alone = ([], [])
    for name in names:
        used, errors = _used_and_errors(capsys, command, [name], *flags)
        alone[0].extend(used)
        alone[1].extend(errors)
    assert together == alone
    assert len(names) > 64 and len(together[0]) > 64
    messages = [e["error"] for e in together[1]]
    assert messages.count("parse failure: SYNTAX") == 2
    assert any("cell volume below" in m for m in messages)
    if command == "textify":
        assert messages.count("missing sidecar metadata") == 1
    else:
        assert "result is not finite: the cell is too large" in messages


# ---------------------------------------------------------------------------
# no tracebacks on bad files


SWEEP_ARGV = {
    "validate": ["validate", "ok.cif", "--targets-file", "targets.json"],
    "textify": ["textify", "slab.cif"],
    "grpo": ["grpo", "groups.jsonl"],
    "mmtg": ["mmtg", "--pairs", "pairs.json"],
    "search": ["search"],
    "geometry": ["geometry", "ok.cif"],
}
# (subcommand, the file that is bad): the config of every subcommand, then
# each input file; validate's CIF is left out because scoring bad CIF text
# is its job (exit 0)
SWEEP_SLOTS = [(cmd, "cfg.json") for cmd in SWEEP_ARGV] + [
    ("validate", "targets.json"),
    ("textify", "slab.cif"),
    ("textify", "slab.meta.json"),
    ("grpo", "groups.jsonl"),
    ("mmtg", "pairs.json"),
    ("geometry", "ok.cif"),
]
BAD_FILES = {
    "missing": None,
    "empty": b"",
    "not_utf8": b"\xff{}",
    "wrong_type": b"[1, 2]",
}
# a targets file's wrong type is a count that is not an integer
WRONG_TYPE = {"targets.json": b'{"ok.cif": {"Cu": 2.7}}'}
LOG_LINE = re.compile(r"\[\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00\] ")


def sweep_files(cu_slab) -> dict[str, bytes]:
    """A good input file for every slot of `SWEEP_ARGV`."""
    structure, meta, _ = cu_slab
    return {
        "ok.cif": MINIMAL_CIF.encode(),
        "slab.cif": serialize_cif(structure).encode(),
        "slab.meta.json": json.dumps(meta.to_json_dict()).encode(),
        "targets.json": b'{"ok.cif": {"Cu": 1}}',
        "groups.jsonl": GROUP_LINE.encode(),
        "pairs.json": b"[[2.0, 1.0]]",
    }


@pytest.mark.parametrize("bad", sorted(BAD_FILES))
@pytest.mark.parametrize("cmd, slot", SWEEP_SLOTS)
def test_bad_file_exits_without_traceback(
    tmp_path, monkeypatch, capsys, cu_slab, cmd, slot, bad
):
    files = sweep_files(cu_slab)
    files[slot] = BAD_FILES[bad]
    if bad == "wrong_type":
        files[slot] = WRONG_TYPE.get(slot, files[slot])
    for name, data in files.items():
        if data is not None:
            (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    argv = SWEEP_ARGV[cmd] + (["--config", "cfg.json"] if slot == "cfg.json" else [])
    code, _, err = run_cli(capsys, *argv)
    assert code in (1, 2)
    assert "Traceback" not in err
    last = err.splitlines()[-1]
    if code == 1:
        assert last.startswith(f"catloop {cmd}: ")
    else:
        assert LOG_LINE.match(last)


@pytest.mark.parametrize("blocked", ["out_below_a_file", "report_is_a_directory"])
@pytest.mark.parametrize("cmd", sorted(SWEEP_ARGV))
def test_unwritable_out_exits_1(tmp_path, monkeypatch, capsys, cu_slab, cmd, blocked):
    for name, data in sweep_files(cu_slab).items():
        (tmp_path / name).write_bytes(data)
    search_config_file(tmp_path)
    monkeypatch.chdir(tmp_path)
    if blocked == "out_below_a_file":
        (tmp_path / "afile").write_text("")
        out = "afile/sub"
    else:  # textify writes systems.txt first, then fails on the report
        (tmp_path / "out" / f"{cmd}_report.json").mkdir(parents=True)
        out = "out"
    argv = SWEEP_ARGV[cmd] + (["--config", "search.json"] if cmd == "search" else [])
    code, stdout, err = run_cli(capsys, *argv, "--out", out)
    assert code == 1
    assert err.splitlines()[-1].startswith(f"catloop {cmd}: cannot write ")
    assert stdout == ""
