"""Command-line front end.

Subcommands:

* ``validate``  - score candidate CIF files and aggregate failure rates
* ``textify``   - render adsorption systems (CIF + sidecar metadata) as text
* ``grpo``      - advantages / KL / loss for logged candidate groups (JSONL)
* ``mmtg``      - max-min gated combination of two task losses
* ``search``    - run the closed-loop exemplar search with the surrogates
* ``geometry``  - periodic distances and neighbor summaries for CIF files

Shared flags: ``--config`` (JSON), ``--seed``, ``--out`` (artifact
directory), ``--format`` (json or table).  Every artifact embeds a run
manifest: command, effective config, sha256 of each input file, tool
version, seed, and an id over those fields.  Wall-clock time goes only to
stderr, so identical manifest inputs produce byte-identical artifacts.

Exit codes: 0 on completion (even when candidates fail their checks), 1 on
usage or configuration errors, 2 when no input could be processed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .cif import ParseOutcome, composition_of, parse_cif
from .elements import check_composition, finite_number
from .geometry import (
    DEFAULT_NEIGHBOR_SCALE,
    DegenerateCellError,
    build_neighbor_list,
    min_pair_distance,
    volume_per_atom,
)
from .policy import (
    GrpoConfig,
    MmtgConfig,
    group_from_json_line,
    group_report,
    mmtg_loss,
)
from .reward import (
    PhysConfig,
    RewardBreakdown,
    RewardWeights,
    _score_in_chunks,
    corpus_failure_rates,
    pvcp_from_outcome,
)
from .search import (
    MutationGenerator,
    PairPotentialSurrogate,
    PoolInitializationError,
    SearchConfig,
    run_search,
)
from .textify import SystemMetadata, to_system_text

# What a subcommand hands to `main`: the run manifest, the artifact's other
# keys, and the table renderer for ``--format table``.
Outcome = tuple[dict, dict, Callable[[dict], str]]


class CliError(Exception):
    """Configuration or usage problem; maps to exit code 1."""


class _NoInput(Exception):
    """No input could be processed; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 (argparse's default is 2, reserved here for
    # "no processable inputs")
    def error(self, message: str):  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise CliError(f"config {path} is not valid JSON/UTF-8: {exc}") from None
    if not isinstance(obj, dict):
        raise CliError(f"config {path} must hold a JSON object")
    return obj


def _section(config: dict, name: str) -> dict:
    """A copy of the config's `name` object, empty when absent."""
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise CliError(f"bad {name} config: expected a JSON object, got {section!r}")
    return dict(section)


def _configured(config: dict, name: str, cls, **flags):
    """`cls` built from the config's `name` object, updated by non-None flags."""
    section = _section(config, name)
    section.update((k, v) for k, v in flags.items() if v is not None)
    try:
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad {name} config: {exc}") from None


def _neighbor_scale(config: dict, override: float | None = None) -> float:
    """The neighbor cutoff scale: `override`, else the config's, else the default."""
    scale = override
    if scale is None:
        scale = config.get("neighbor_scale", DEFAULT_NEIGHBOR_SCALE)
    if not finite_number(scale):
        raise CliError(f"bad neighbor_scale config: {scale!r} is not a finite number")
    return scale


def _composition(mapping: object, where: str) -> dict[str, int]:
    """`check_composition`, with a bad composition as a usage error."""
    try:
        return check_composition(mapping, where)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def parse_composition_arg(text: str) -> dict[str, int]:
    """Parse a composition argument like ``Cu:4,O:1``."""
    where = f"composition {text!r}"
    comp: dict[str, int] = {}
    for part in text.split(","):
        if not part.strip():
            continue
        el, _, num = part.partition(":")
        el = el.strip()
        try:
            count = int(num)
        except ValueError:
            raise CliError(f"{where}: bad count {num!r} for {el!r}") from None
        _composition({el: count}, where)
        comp[el] = comp.get(el, 0) + count
    if not comp:
        raise CliError(f"empty composition {text!r}")
    return comp


# ---------------------------------------------------------------------------
# run manifest


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build_manifest(
    command: str,
    config: dict,
    inputs: dict[str, bytes],
    seed: int | None,
) -> dict:
    """Deterministic manifest: config snapshot, input digests, version, id.

    Wall-clock time is deliberately not part of the manifest so that equal
    inputs always produce byte-identical artifacts.
    """
    core = {
        "command": command,
        "config": config,
        "inputs": {name: _sha256_bytes(data) for name, data in inputs.items()},
        "tool_version": __version__,
        "seed": seed,
    }
    digest = _sha256_bytes(
        json.dumps(core, sort_keys=True, separators=(",", ":")).encode()
    )
    return {**core, "id": digest}


def _log(message: str) -> None:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    print(f"[{stamp}] {message}", file=sys.stderr)


def _manifest(
    args: argparse.Namespace, config: dict, inputs: dict[str, bytes], seed: int | None
) -> dict:
    """Build the run manifest and log its id before the command does its work."""
    manifest = build_manifest(args.command, config, inputs, seed)
    _log(f"{args.command} manifest {manifest['id']}")
    return manifest


def _write_out(out: str, name: str, text: str) -> None:
    """Write `text` to the file `name` in the --out directory, creating it."""
    path = Path(out) / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


def _emit(
    artifact: dict, args: argparse.Namespace, table: Callable[[dict], str]
) -> None:
    """With --out, write the JSON artifact; then print per --format."""
    rendered = json.dumps(artifact, indent=2, sort_keys=True) + "\n"
    if args.out:
        _write_out(args.out, f"{args.command}_report.json", rendered)
    if args.format == "json":
        sys.stdout.write(rendered)
    else:
        sys.stdout.write(table(artifact))


def _read_inputs(paths: Sequence[str]) -> tuple[dict[str, bytes], list[str]]:
    """Read every path; returns (name -> bytes, unreadable paths).

    Raises `_NoInput` when no path could be read.
    """
    blobs: dict[str, bytes] = {}
    errors: list[str] = []
    for p in paths:
        try:
            blobs[p] = Path(p).read_bytes()
        except OSError as exc:
            _log(f"skipping {p}: {exc}")
            errors.append(p)
    if not blobs:
        raise _NoInput("no readable input files")
    return blobs, errors


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args: argparse.Namespace, config: dict) -> Outcome:
    weights = _configured(config, "weights", RewardWeights)
    phys = _configured(config, "phys", PhysConfig)
    blobs, unreadable = _read_inputs(args.paths)

    per_file_targets: dict[str, dict[str, int]] = {}
    if args.targets_file:
        try:
            raw = Path(args.targets_file).read_bytes()
        except OSError as exc:
            raise CliError(f"cannot read targets file: {exc}") from None
        blobs[args.targets_file] = raw
        try:
            table = json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            raise CliError(f"bad targets file: {exc}") from None
        if not isinstance(table, dict):
            raise CliError("bad targets file: top level must be an object")
        for name, comp in table.items():
            where = f"bad targets file entry {name!r}"
            per_file_targets[name] = _composition(comp, where)
            if not per_file_targets[name]:
                raise CliError(f"{where}: empty composition")
    uniform_target = parse_composition_arg(args.target) if args.target else None

    cfg_snapshot = {
        "weights": vars(weights),
        "phys": vars(phys),
        "target": uniform_target,
        "targets_file": args.targets_file,
    }
    manifest = _manifest(args, cfg_snapshot, blobs, args.seed)

    paths = [p for p in args.paths if p in blobs and p != args.targets_file]

    def score_one(k: int, outcome: ParseOutcome) -> tuple[dict, RewardBreakdown]:
        path = paths[k]
        target = per_file_targets.get(
            path, per_file_targets.get(Path(path).name, uniform_target)
        )
        if target is None:
            # default: score the file against its own composition
            target = composition_of(outcome.structure) if outcome.ok else {}
        breakdown = pvcp_from_outcome(outcome, target, weights, phys)
        record = {
            "path": path,
            "ok": outcome.ok,
            "defects": [d.to_json_dict() for d in outcome.defects],
            "target": dict(sorted(target.items())),
            "reward": breakdown.to_json_dict(),
        }
        return record, breakdown

    scored = _score_in_chunks([blobs[p] for p in paths], score_one)
    body = {
        "files": [record for record, _ in scored],
        "unreadable": unreadable,
        "failure_rates": corpus_failure_rates(br for _, br in scored),
    }

    def table(art: dict) -> str:
        lines = [
            f"{rep['path']}: total={rep['reward']['total']:.4f} "
            f"flags={','.join(rep['reward']['failure_flags']) or '-'}"
            for rep in art["files"]
        ]
        rates = art["failure_rates"]
        lines.append(
            "rates: " + "  ".join(f"{k}={rates[k]:.2f}%" for k in sorted(rates))
        )
        return "\n".join(lines) + "\n"

    return manifest, body, table


def cmd_textify(args: argparse.Namespace, config: dict) -> Outcome:
    scale = _neighbor_scale(config)
    separator = config.get("separator", "</s>")
    if not isinstance(separator, str):
        raise CliError(f"bad separator config: expected a string, got {separator!r}")
    blobs, _unreadable = _read_inputs(args.paths)

    sidecars: dict[str, bytes] = {}
    for p in list(blobs):
        meta_path = str(Path(p).with_suffix("")) + ".meta.json"
        try:
            sidecars[p] = Path(meta_path).read_bytes()
            blobs[meta_path] = sidecars[p]
        except OSError:
            pass

    cfg_snapshot = {"neighbor_scale": scale, "separator": separator}
    manifest = _manifest(args, cfg_snapshot, blobs, args.seed)

    systems = []
    errors = []
    for p in args.paths:
        if p not in blobs:
            continue
        record = {"path": p}
        if p not in sidecars:
            record["error"] = "missing sidecar metadata"
            errors.append(record)
            continue
        outcome = parse_cif(blobs[p])
        if not outcome.ok:
            record["error"] = "parse failure: " + ", ".join(outcome.defect_codes())
            errors.append(record)
            continue
        try:
            meta = SystemMetadata.from_json_dict(json.loads(sidecars[p].decode()))
            text = to_system_text(
                outcome.structure, meta, scale=scale, separator=separator
            )
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError too
            record["error"] = str(exc)
            errors.append(record)
            continue
        record.update(
            {
                "adsorbate_part": text.adsorbate_part,
                "surface_part": text.surface_part,
                "configuration_part": text.configuration_part,
                "text": text.joined,
            }
        )
        systems.append(record)

    for record in errors:
        _log(f"textify {record['path']}: {record['error']}")
    if not systems:
        raise _NoInput("no system could be textified")
    if args.out:
        _write_out(args.out, "systems.txt", "".join(r["text"] + "\n" for r in systems))

    def table(art: dict) -> str:
        return "".join(rec["text"] + "\n" for rec in art["systems"])

    return manifest, {"systems": systems, "errors": errors}, table


def cmd_grpo(args: argparse.Namespace, config: dict) -> Outcome:
    cfg = _configured(config, "grpo", GrpoConfig, beta=args.beta, epsilon=args.epsilon)
    blobs, _unreadable = _read_inputs([args.groups])
    cfg_snapshot = {"beta": cfg.beta, "epsilon": cfg.epsilon}
    manifest = _manifest(args, cfg_snapshot, blobs, args.seed)

    reports = []
    errors = []
    # split as bytes and decode each line, so one line that is not UTF-8 is
    # one line error
    for lineno, raw in enumerate(blobs[args.groups].splitlines(), 1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            group = group_from_json_line(line)
        except ValueError as exc:
            errors.append({"line": lineno, "error": str(exc)})
            _log(f"grpo line {lineno}: {exc}")
            continue
        reports.append(group_report(group, cfg))
    if not reports:
        raise _NoInput("no valid group records")

    def table(art: dict) -> str:
        lines = [
            f"{g['prompt_id']}: K={g['n_members']} loss={g['loss']:.6f} "
            "advantages=" + ",".join(f"{a:.4f}" for a in g["advantages"])
            for g in art["groups"]
        ]
        return "\n".join(lines) + "\n"

    return manifest, {"groups": reports, "errors": errors}, table


def cmd_mmtg(args: argparse.Namespace, config: dict) -> Outcome:
    if args.losses and len(args.losses) != 2:
        raise CliError("provide exactly two losses")
    cfg = _configured(config, "mmtg", MmtgConfig, gating=args.gating)

    pairs: list[tuple[float, float]] = []
    blobs: dict[str, bytes] = {}
    if args.pairs:
        blobs, _unreadable = _read_inputs([args.pairs])
        try:
            data = json.loads(blobs[args.pairs].decode())
            if not isinstance(data, list):
                raise ValueError("expected an array of [a, b] pairs")
            for item in data:
                pair = isinstance(item, list) and len(item) == 2
                if not (pair and all(map(finite_number, item))):
                    raise ValueError(f"{item!r} is not a pair of finite numbers")
                pairs.append((float(item[0]), float(item[1])))
        except ValueError as exc:
            raise CliError(f"bad pairs file: {exc}") from None
    if args.losses:
        pairs.append((args.losses[0], args.losses[1]))
    if not pairs:
        raise CliError("provide two positional losses or --pairs FILE")

    manifest = _manifest(args, {"gating": cfg.gating}, blobs, args.seed)
    try:
        results = [
            {"loss_a": a, "loss_b": b, "combined": mmtg_loss(a, b, cfg)}
            for a, b in pairs
        ]
    except ValueError as exc:
        raise CliError(str(exc)) from None

    def table(art: dict) -> str:
        return (
            "\n".join(
                f"({r['loss_a']}, {r['loss_b']}) -> {r['combined']:.6f}"
                for r in art["results"]
            )
            + "\n"
        )

    return manifest, {"results": results}, table


def cmd_search(args: argparse.Namespace, config: dict) -> Outcome:
    cfg = _configured(config, "search", SearchConfig, seed=args.seed)
    if not cfg.target_composition:
        raise CliError("search config needs a non-empty target_composition")
    generator = _configured(config, "generator", MutationGenerator)
    predictor = _configured(config, "predictor", PairPotentialSurrogate)
    weights = _configured(config, "weights", RewardWeights)
    phys = _configured(config, "phys", PhysConfig)

    cfg_snapshot = {
        "search": asdict(cfg),
        "weights": vars(weights),
        "phys": vars(phys),
        "generator": {
            **_section(config, "generator"),
            "defect_rates": vars(generator.defect_rates),
        },
        "predictor": config.get("predictor", {}),
    }
    manifest = _manifest(args, cfg_snapshot, {}, cfg.seed)
    try:
        report = run_search(generator, predictor, cfg, weights, phys)
    except PoolInitializationError as exc:
        raise _NoInput(f"search failed: {exc}") from None

    def table(art: dict) -> str:
        rep = art["report"]
        lines = [
            f"init: generated={rep['init']['generated']} "
            f"passed={rep['init']['passed']} rounds={rep['init']['rounds']}"
        ]
        lines += [
            f"iter {log['iteration']:2d}: pool=[{log['pool_min']:.4f}, "
            f"{log['pool_max']:.4f}] admitted={log['admitted']} "
            f"best|dE|={log['best_abs_delta']}"
            for log in rep["iterations"]
        ]
        lines.append(
            f"success={rep['success']} best_abs_delta={rep['best_abs_delta']} "
            f"best_energy={rep['best_energy']}"
        )
        return "\n".join(lines) + "\n"

    return manifest, {"report": report.to_json_dict()}, table


def cmd_geometry(args: argparse.Namespace, config: dict) -> Outcome:
    scale = _neighbor_scale(config, args.scale)
    blobs, unreadable = _read_inputs(args.paths)
    manifest = _manifest(args, {"neighbor_scale": scale}, blobs, args.seed)

    def inspect(path: str) -> dict:
        outcome = parse_cif(blobs[path])
        if not outcome.ok:
            return {
                "path": path,
                "ok": False,
                "defects": [d.to_json_dict() for d in outcome.defects],
            }
        s = outcome.structure
        try:
            nl = build_neighbor_list(s, scale=scale)
            min_dist = min_pair_distance(s)
        except DegenerateCellError as exc:
            return {"path": path, "ok": False, "error": str(exc)}
        record = {
            "path": path,
            "ok": True,
            "n_sites": len(s),
            "volume": s.lattice.volume,
            "volume_per_atom": volume_per_atom(s),
            "min_pair_distance": min_dist,
            "n_neighbor_entries": len(nl),
        }
        if args.neighbors:
            columns = (nl.i, nl.j, nl.image, nl.distance)
            record["neighbors"] = [
                {"site_i": i, "site_j": j, "image": image, "distance": d}
                for i, j, image, d in zip(*(c.tolist() for c in columns))
            ]
        return record

    reports = [inspect(p) for p in args.paths if p in blobs]
    if not any(r["ok"] for r in reports):
        raise _NoInput("no input parsed into a structure")

    def table(art: dict) -> str:
        lines = []
        for r in art["files"]:
            if r["ok"]:
                lines.append(
                    f"{r['path']}: sites={r['n_sites']} "
                    f"min_dist={r['min_pair_distance']:.4f} "
                    f"vpa={r['volume_per_atom']:.3f} "
                    f"neighbors={r['n_neighbor_entries']}"
                )
            else:
                lines.append(f"{r['path']}: {r.get('error', 'parse failure')}")
        return "\n".join(lines) + "\n"

    return manifest, {"files": reports, "unreadable": unreadable}, table


# ---------------------------------------------------------------------------
# wiring


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--out", help="directory for JSON artifacts")
    parser.add_argument(
        "--format", choices=("json", "table"), default="table",
        help="stdout rendering",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="catloop",
        description="Score, textify, and search generated crystal structures.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="score candidate CIF files")
    p.add_argument("paths", nargs="+", help="CIF files to score")
    p.add_argument("--target", help="uniform target composition, e.g. Cu:4,O:1")
    p.add_argument(
        "--targets-file", help="JSON map of file name to target composition"
    )
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("textify", help="render adsorption systems as text")
    p.add_argument("paths", nargs="+", help="CIF files with .meta.json sidecars")
    _add_common(p)
    p.set_defaults(func=cmd_textify)

    p = sub.add_parser("grpo", help="advantages and loss for logged groups")
    p.add_argument("groups", help="JSONL file of candidate groups")
    p.add_argument("--beta", type=float, default=None, help="KL coefficient")
    p.add_argument(
        "--epsilon", type=float, default=None, help="z-score denominator epsilon"
    )
    _add_common(p)
    p.set_defaults(func=cmd_grpo)

    p = sub.add_parser("mmtg", help="max-min gated two-task loss")
    p.add_argument(
        "losses", nargs="*", type=float, metavar="LOSS",
        help="two task losses",
    )
    p.add_argument("--gating", type=float, default=None, help="gating in (0, 1]")
    p.add_argument("--pairs", help="JSON file with an array of [a, b] pairs")
    _add_common(p)
    p.set_defaults(func=cmd_mmtg)

    p = sub.add_parser("search", help="run the closed-loop exemplar search")
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("geometry", help="periodic geometry summaries")
    p.add_argument("paths", nargs="+", help="CIF files to inspect")
    p.add_argument("--scale", type=float, default=None, help="neighbor cutoff scale")
    p.add_argument(
        "--neighbors", action="store_true", help="include full neighbor lists"
    )
    _add_common(p)
    p.set_defaults(func=cmd_geometry)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        manifest, body, table = args.func(args, _load_config(args.config))
        _emit({"manifest": manifest, **body}, args, table)
    except CliError as exc:
        print(f"catloop {args.command}: {exc}", file=sys.stderr)
        return 1
    except _NoInput as exc:
        _log(str(exc))
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
