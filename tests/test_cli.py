"""End-to-end command-line behavior: exit codes, artifacts, determinism."""

import json
import re

import pytest

from catloop import __version__, geometry
from catloop.cif import parse_cif, serialize_cif
from catloop.cli import main, parse_composition_arg
from catloop.search import DefectRates, MutationGenerator, PairPotentialSurrogate
from conftest import BAD_COMPOSITIONS, BAD_SIDECAR_INTEGERS, MINIMAL_CIF

TARGET = {"Cu": 4, "O": 2}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_clean_corpus(tmp_path, n=6, comp=TARGET):
    gen = MutationGenerator()
    paths = []
    for seed in range(n):
        p = tmp_path / f"cand_{seed}.cif"
        p.write_text(gen.propose(None, comp, seed))
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


def test_parse_composition_arg():
    assert parse_composition_arg("Cu:4,O:1") == {"Cu": 4, "O": 1}
    assert parse_composition_arg(" Cu:2 , Cu:1 ") == {"Cu": 3}
    from catloop.cli import CliError

    for bad in ("Xx:1", "Cu:abc", "Cu:-2", "Cu:2.7", "Cu:-2,Cu:3", ""):
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
    paths.append(paths[64])  # one path listed twice, in two chunks
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
    tmp_path, monkeypatch, capsys, n, passes
):
    paths = write_clean_corpus(tmp_path, n=n)
    build = geometry._build_tables
    calls = []
    monkeypatch.setattr(
        geometry, "_build_tables",
        lambda structures, cutoff: calls.append(len(structures))
        or build(structures, cutoff),
    )
    files = _validate_files(capsys, *paths)
    assert len(files) == n and all(f["reward"]["total"] == 1.0 for f in files)
    assert len(calls) == passes and sum(calls) == n


def test_validate_unreadable_mixed(tmp_path, capsys):
    p = tmp_path / "ok.cif"
    p.write_text(MINIMAL_CIF)
    code, out, _ = run_cli(
        capsys, "validate", str(p), str(tmp_path / "missing.cif"),
        "--format", "json",
    )
    assert code == 0
    artifact = json.loads(out)
    assert len(artifact["files"]) == 1
    assert artifact["unreadable"] == [str(tmp_path / "missing.cif")]


def test_validate_no_readable_inputs(tmp_path, capsys):
    code, _, err = run_cli(capsys, "validate", str(tmp_path / "nope.cif"))
    assert code == 2
    assert "no readable" in err


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


def test_textify_custom_separator(tmp_path, capsys, slab_files):
    cif_path, _ = slab_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"separator": " ||| "}))
    code, out, _ = run_cli(
        capsys, "textify", str(cif_path), "--config", str(cfg), "--format", "json"
    )
    assert code == 0
    assert " ||| " in json.loads(out)["systems"][0]["text"]


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
    code, out, _ = run_cli(
        capsys, "grpo", str(groups), "--beta", "0.1", "--epsilon", "0",
        "--format", "json",
    )
    assert code == 0
    artifact = json.loads(out)
    assert len(artifact["groups"]) == 2
    assert artifact["groups"][0]["loss"] == pytest.approx(-0.75, abs=1e-12)
    assert artifact["groups"][0]["advantages"] == pytest.approx([1.0, -1.0])
    assert artifact["errors"] == [{"line": 2, "error": artifact["errors"][0]["error"]}]


def test_grpo_epsilon_key_is_a_line_error(tmp_path, capsys):
    with_epsilon = json.dumps({**json.loads(GROUP_LINE), "epsilon": 0.5})
    groups = tmp_path / "groups.jsonl"
    groups.write_text(GROUP_LINE + "\n" + with_epsilon + "\n")
    code, out, _ = run_cli(capsys, "grpo", str(groups), "--format", "json")
    assert code == 0
    artifact = json.loads(out)
    assert len(artifact["groups"]) == 1
    assert artifact["errors"][0]["line"] == 2
    assert "--epsilon" in artifact["errors"][0]["error"]


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


def test_grpo_all_bad_lines(tmp_path, capsys):
    groups = tmp_path / "groups.jsonl"
    groups.write_text("{broken\nnot json either\n")
    code, _, err = run_cli(capsys, "grpo", str(groups))
    assert code == 2
    assert "no valid group records" in err


def test_grpo_missing_file(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "grpo", str(tmp_path / "none.jsonl"))
    assert code == 2


def test_grpo_bad_beta(tmp_path, capsys):
    groups = tmp_path / "groups.jsonl"
    groups.write_text(GROUP_LINE + "\n")
    code, _, err = run_cli(capsys, "grpo", str(groups), "--beta", "-1")
    assert code == 1
    assert "grpo config" in err


@pytest.mark.parametrize(
    "values", [{"beta": True}, {"beta": "0.1"}, {"epsilon": False}]
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


def test_mmtg_bad_gating(capsys):
    code, _, err = run_cli(capsys, "mmtg", "2", "1", "--gating", "0")
    assert code == 1
    assert "mmtg config" in err


@pytest.mark.parametrize("values", [{"gating": True}, {"gating": "1"}])
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
    cfg = search_config_file(tmp_path)
    _, out_a, _ = run_cli(capsys, "search", "--config", str(cfg), "--format", "json")
    _, out_b, _ = run_cli(
        capsys, "search", "--config", str(cfg), "--seed", "5", "--format", "json"
    )
    a, b = json.loads(out_a), json.loads(out_b)
    assert a["manifest"]["id"] != b["manifest"]["id"]
    assert b["manifest"]["seed"] == 5


def test_search_requires_target_composition(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"search": {"target_energy": -1.0}}))
    code, _, err = run_cli(capsys, "search", "--config", str(cfg))
    assert code == 1
    assert "target_composition" in err


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
        ("generator", {"coord_jitter": "x"}),
        ("generator", {"lattice_jitter": 1.5}),
        ("generator", {"spacing_cap": -1}),
        ("generator", {"spacing_floor": 5.0}),
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
        ("predictor", {"cutoff": 0}),
        ("predictor", {"cutoff": -3}),
        ("predictor", {"cutoff": float("inf")}),
        ("predictor", {"cutoff": "6"}),
        ("predictor", {"cutoff": True}),
        ("predictor", {"depth_scale": 0}),
        ("predictor", {"depth_scale": -0.4}),
        ("predictor", {"bond_cap": 0}),
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
    p.write_text(MINIMAL_CIF)
    code, out, _ = run_cli(
        capsys, "geometry", str(p), "--neighbors", "--scale", "1.6",
        "--format", "json",
    )
    assert code == 0
    rec = json.loads(out)["files"][0]
    # scale 1.6 gives cutoff 4.224 > 4.0, so the three axis self-images
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
    assert "no input parsed" in err


def test_geometry_mixed(tmp_path, capsys):
    good = tmp_path / "good.cif"
    good.write_text(MINIMAL_CIF)
    bad = tmp_path / "bad.cif"
    bad.write_text("junk")
    code, out, _ = run_cli(
        capsys, "geometry", str(good), str(bad), "--format", "json"
    )
    assert code == 0
    recs = {r["path"]: r for r in json.loads(out)["files"]}
    assert recs[str(good)]["ok"] is True
    assert recs[str(bad)]["ok"] is False


def test_geometry_degenerate_cell_is_a_file_error(tmp_path, capsys):
    good = tmp_path / "good.cif"
    good.write_text(MINIMAL_CIF)
    tiny = tmp_path / "tiny.cif"
    tiny.write_text(MINIMAL_CIF.replace("4.0", "0.005"))  # volume 1.25e-7 A^3
    code, out, _ = run_cli(
        capsys, "geometry", str(good), str(tiny), "--format", "json"
    )
    assert code == 0
    recs = {r["path"]: r for r in json.loads(out)["files"]}
    assert recs[str(good)]["ok"] is True
    assert recs[str(tiny)]["ok"] is False
    assert "cell volume below" in recs[str(tiny)]["error"]
    code, _, err = run_cli(capsys, "geometry", str(tiny))
    assert code == 2
    assert "no input parsed" in err


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["geometry", "--neighbors"], {"neighbor_scale": "x"}, "bad neighbor_scale"),
        (["geometry", "--neighbors"], {"neighbor_scale": None}, "bad neighbor_scale"),
        (["textify"], {"neighbor_scale": "x"}, "bad neighbor_scale"),
        (["textify"], {"separator": None}, "bad separator"),
    ],
)
def test_inspection_bad_config_exits_1(
    tmp_path, capsys, slab_files, argv, config, message
):
    cif_path, _ = slab_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, *argv, str(cif_path), "--config", str(cfg))
    assert code == 1
    assert f"catloop {argv[0]}: {message} config" in err


# ---------------------------------------------------------------------------
# manifest and determinism


def test_manifest_contents(tmp_path, capsys):
    p = tmp_path / "ok.cif"
    p.write_text(MINIMAL_CIF)
    _, out, _ = run_cli(capsys, "validate", str(p), "--seed", "7", "--format", "json")
    manifest = json.loads(out)["manifest"]
    assert manifest["command"] == "validate"
    assert manifest["seed"] == 7
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
