"""Command-line front end.

Subcommands:

* ``validate``  - score candidate CIF files and aggregate failure rates
* ``textify``   - render adsorption systems (CIF + sidecar metadata) as text
* ``grpo``      - advantages / KL / loss for logged candidate groups (JSONL)
* ``mmtg``      - max-min gated combination of two task losses
* ``search``    - run the closed-loop exemplar search with the surrogates
* ``geometry``  - periodic distances and neighbor summaries for CIF files

Shared flags: ``--config`` (JSON), ``--out`` (artifact directory),
``--format`` (json or table).  Every setting comes only from the config
file, so each has one source.  Its top-level keys are sections, each built
by one class (`_SECTIONS`): an unknown key exits 1, and one file can serve
every command whose sections it holds.  One reader reads the config,
``--targets-file`` and ``--pairs``; a side file that cannot be read or
decoded is a usage error.  An artifact is one line of compact JSON with
sorted keys, ending in a newline; pipe it through ``python -m json.tool``
or ask for ``--format table`` to read it.  Every artifact embeds a run
manifest: command, config (each section the command builds, as built, so
``--config`` reads it back), args (the command-line values that change
the artifact), sha256 of each input file, tool version, and an id over
those fields in the same JSON form.  Wall-clock time goes only to stderr,
so identical manifest inputs produce byte-identical artifacts.

``validate``, ``geometry`` and ``textify`` score their CIFs a chunk at a
time (`reward._score_in_chunks`).  Each input they cannot use is a
``{"path", "error"}`` record under ``errors`` (unreadable inputs first, the
others in input order; a parse failure before other faults), logged to
stderr as ``<command> <path>: <error>``.  A path listed twice is read once.
``grpo`` reads lines, so its error records are ``{"line", "error"}``.

`main` builds the argument parser once per process and reuses it, so
repeated in-process calls pay for argparse set-up only once.

JSON holds no NaN or infinity.  ``geometry`` reports a file whose volume
is not finite, and ``grpo`` a group whose loss is not, as an error
record; numpy's floating-point warnings are silenced, since these checks
report the outcome.

Exit codes: 0 on completion (even when candidates fail their checks), 1 on
usage or configuration errors and on a non-finite ``mmtg`` result, 2 when
no input could be processed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .cif import ParseOutcome, Structure, composition_of
from .elements import check_composition, finite_number
from .geometry import build_neighbor_list, min_pair_distance, volume_per_atom
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
# What `main` hands to a subcommand to build the manifest from its inputs.
ManifestFor = Callable[[dict[str, bytes]], dict]


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


# Every key a --config file may hold: a section and the class that builds it.
_SECTIONS = {
    "search": SearchConfig,
    "generator": MutationGenerator,
    "predictor": PairPotentialSurrogate,
    "weights": RewardWeights,
    "phys": PhysConfig,
    "grpo": GrpoConfig,
    "mmtg": MmtgConfig,
}


def _configured(config: dict, name: str):
    """The `name` section, built by its class from the config's `name` object."""
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise CliError(f"bad {name} config: expected a JSON object, got {section!r}")
    try:
        return _SECTIONS[name](**section)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad {name} config: {exc}") from None


def _composition(mapping: object, where: str) -> dict[str, int]:
    """`check_composition`, with a bad composition as a usage error."""
    try:
        return check_composition(mapping, where)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _target(mapping: object, where: str) -> dict[str, int]:
    """A `validate` target: `_composition` with at least one atom."""
    counts = _composition(mapping, where)
    if not sum(counts.values()):
        raise CliError(f"{where}: empty composition; a target needs at least one atom")
    return counts


def parse_composition_arg(text: str) -> dict[str, int]:
    """Parse a target argument like ``Cu:4,O:1``; it needs at least one atom."""
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
    return _target(comp, where)


# ---------------------------------------------------------------------------
# run manifest


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical_json(obj: object) -> str:
    """Compact JSON with sorted keys: the artifact form and the manifest id's."""
    # no `indent`: it would switch json to its pure-Python encoder; NaN and
    # infinity are not JSON, so they raise ValueError.  No cycle check: an
    # artifact is a tree the command builds and the config comes from
    # `json.loads`, so no value can contain itself
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
        check_circular=False,
    )


def build_manifest(
    command: str, config: dict, args: dict, inputs: dict[str, bytes]
) -> dict:
    """Deterministic manifest: config and args snapshots, input digests, version, id.

    Wall-clock time is deliberately not part of the manifest so that equal
    inputs always produce byte-identical artifacts.
    """
    core = {
        "command": command,
        "config": config,
        "args": args,
        "inputs": {name: _sha256_bytes(data) for name, data in inputs.items()},
        "tool_version": __version__,
    }
    return {**core, "id": _sha256_bytes(_canonical_json(core).encode())}


def _log(message: str) -> None:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    print(f"[{stamp}] {message}", file=sys.stderr)


def _manifest(
    args: argparse.Namespace, sections: dict, inputs: dict[str, bytes]
) -> dict:
    """Build the run manifest and log its id before the command does its work."""
    config = {name: asdict(obj) for name, obj in sections.items()}
    values = {name: getattr(args, name) for name in args.recorded}
    manifest = build_manifest(args.command, config, values, inputs)
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
    try:
        rendered = _canonical_json(artifact) + "\n"
    except ValueError as exc:
        raise CliError(f"result is not finite: {exc}") from None
    if args.out:
        _write_out(args.out, f"{args.command}_report.json", rendered)
    if args.format == "json":
        sys.stdout.write(rendered)
    else:
        sys.stdout.write(table(artifact))


def _read_side_file(path: str, what: str) -> tuple[bytes, object]:
    """The bytes of the side file `path` and the JSON value they hold.

    A side file that cannot be read or decoded is a usage error.
    """
    try:
        data = Path(path).read_bytes()
        return data, json.loads(data.decode("utf-8"))
    except OSError as exc:
        raise CliError(f"cannot read {what}: {exc}") from None
    # JSONDecodeError, UnicodeDecodeError, or nesting past the recursion limit
    except (RecursionError, ValueError) as exc:
        raise CliError(f"bad {what}: {exc}") from None


def _input_error(errors: list[dict], command: str, path: str, error: object) -> None:
    """Record an input the command cannot use, in `errors` and on stderr."""
    errors.append({"path": path, "error": str(error)})
    _log(f"{command} {path}: {error}")


def _read_inputs(
    command: str, paths: Sequence[str]
) -> tuple[dict[str, bytes], list[dict]]:
    """Read each distinct path; returns (name -> bytes, the error records).

    `blobs` keeps the input order, and a path listed twice is read once.
    Each unreadable path gets an `_input_error` record.  Raises `_NoInput`
    when no path could be read.
    """
    blobs: dict[str, bytes] = {}
    errors: list[dict] = []
    for p in dict.fromkeys(paths):
        try:
            blobs[p] = Path(p).read_bytes()
        except OSError as exc:
            _input_error(errors, command, p, exc)
    if not blobs:
        raise _NoInput("no readable input files")
    return blobs, errors


def _each_structure(
    command: str,
    blobs: dict[str, bytes],
    errors: list[dict],
    one: Callable[[str, Structure], dict],
) -> list[dict]:
    """`one(path, structure)` for each input that parses, in input order.

    Parsed and scored a chunk at a time by `_score_in_chunks`.  A parse
    failure, or a `ValueError` from `one`, is the input's `_input_error`.
    """
    paths = list(blobs)

    def score(k: int, outcome: ParseOutcome) -> dict | None:
        try:
            if not outcome.ok:
                raise ValueError("parse failure: " + ", ".join(outcome.defect_codes()))
            return one(paths[k], outcome.structure)
        except ValueError as exc:
            _input_error(errors, command, paths[k], exc)
            return None

    return [r for r in _score_in_chunks(list(blobs.values()), score) if r is not None]


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(
    args: argparse.Namespace,
    manifest_for: ManifestFor,
    weights: RewardWeights,
    phys: PhysConfig,
) -> Outcome:
    blobs, errors = _read_inputs(args.command, args.paths)
    paths = list(blobs)

    per_file_targets: dict[str, dict[str, int]] = {}
    if args.targets_file:
        blobs[args.targets_file], table = _read_side_file(
            args.targets_file, "targets file"
        )
        if not isinstance(table, dict):
            raise CliError("bad targets file: top level must be an object")
        for name, comp in table.items():
            per_file_targets[name] = _target(comp, f"bad targets file entry {name!r}")
    uniform_target = None if args.target is None else parse_composition_arg(args.target)
    manifest = manifest_for(blobs)

    def score_one(k: int, outcome: ParseOutcome) -> tuple[dict, RewardBreakdown]:
        path = paths[k]
        target = uniform_target
        if per_file_targets:  # by the path as given, else by its file name
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
        "errors": errors,
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


def cmd_textify(args: argparse.Namespace, manifest_for: ManifestFor) -> Outcome:
    blobs, errors = _read_inputs(args.command, args.paths)
    inputs = dict(blobs)  # the CIFs and every sidecar read, for the manifest
    sidecars: dict[str, object] = {}  # CIF path -> sidecar JSON, or its ValueError
    for p in blobs:
        meta_path = str(Path(p).with_suffix("")) + ".meta.json"
        try:
            inputs[meta_path] = Path(meta_path).read_bytes()
            sidecars[p] = json.loads(inputs[meta_path].decode("utf-8"))
        except FileNotFoundError:
            sidecars[p] = ValueError("missing sidecar metadata")
        except OSError as exc:
            sidecars[p] = ValueError(f"cannot read sidecar {meta_path}: {exc}")
        # JSONDecodeError, UnicodeDecodeError, or nesting past the recursion limit
        except (RecursionError, ValueError) as exc:
            sidecars[p] = ValueError(f"bad sidecar {meta_path}: {exc}")
    manifest = manifest_for(inputs)

    def textify_one(path: str, structure: Structure) -> dict:
        meta = sidecars[path]
        if isinstance(meta, ValueError):
            raise meta
        meta = SystemMetadata.from_json_dict(meta)
        text = to_system_text(structure, meta)
        return {
            "path": path,
            "adsorbate_part": text.adsorbate_part,
            "surface_part": text.surface_part,
            "configuration_part": text.configuration_part,
            "text": text.joined,
        }

    systems = _each_structure(args.command, blobs, errors, textify_one)
    if not systems:
        raise _NoInput("no system could be textified")
    if args.out:
        _write_out(args.out, "systems.txt", "".join(r["text"] + "\n" for r in systems))

    def table(art: dict) -> str:
        return "".join(rec["text"] + "\n" for rec in art["systems"])

    return manifest, {"systems": systems, "errors": errors}, table


def cmd_grpo(
    args: argparse.Namespace, manifest_for: ManifestFor, grpo: GrpoConfig
) -> Outcome:
    blobs, _errors = _read_inputs(args.command, [args.groups])
    manifest = manifest_for(blobs)

    reports = []
    errors = []
    # split as bytes and decode each line, so one line that is not UTF-8 is
    # one line error
    for lineno, raw in enumerate(blobs[args.groups].splitlines(), 1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            report = group_report(group_from_json_line(line), grpo)
            # the loss is finite only if every advantage, log-prob mean and
            # KL term that went into it is
            if not math.isfinite(report["loss"]):
                raise ValueError("result is not finite: a sum overflows")
        except ValueError as exc:
            errors.append({"line": lineno, "error": str(exc)})
            _log(f"grpo line {lineno}: {exc}")
            continue
        reports.append(report)
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


def cmd_mmtg(
    args: argparse.Namespace, manifest_for: ManifestFor, mmtg: MmtgConfig
) -> Outcome:
    if args.losses and len(args.losses) != 2:
        raise CliError("provide exactly two losses")
    if not all(map(math.isfinite, args.losses)):  # the manifest records them
        raise CliError("task losses must be finite")

    pairs: list[tuple[float, float]] = []
    blobs: dict[str, bytes] = {}
    if args.pairs:
        blobs[args.pairs], data = _read_side_file(args.pairs, "pairs file")
        try:
            if not isinstance(data, list):
                raise ValueError("expected an array of [a, b] pairs")
            for item in data:
                pair = isinstance(item, list) and len(item) == 2
                if not (pair and all(map(finite_number, item))):
                    raise ValueError(f"{item!r} is not a pair of finite numbers")
                pairs.append((float(item[0]), float(item[1])))
        except ValueError as exc:
            raise CliError(f"bad pairs file: {exc}") from None
        if not (pairs or args.losses):
            raise CliError("the pairs file holds no pairs")
    if args.losses:
        pairs.append((args.losses[0], args.losses[1]))
    if not pairs:
        raise CliError("provide two positional losses or --pairs FILE")

    manifest = manifest_for(blobs)
    try:
        results = [
            {"loss_a": a, "loss_b": b, "combined": mmtg_loss(a, b, mmtg)}
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


def cmd_search(
    args: argparse.Namespace,
    manifest_for: ManifestFor,
    search: SearchConfig,
    generator: MutationGenerator,
    predictor: PairPotentialSurrogate,
    weights: RewardWeights,
    phys: PhysConfig,
) -> Outcome:
    manifest = manifest_for({})
    try:
        report = run_search(generator, predictor, search, weights, phys)
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


def cmd_geometry(args: argparse.Namespace, manifest_for: ManifestFor) -> Outcome:
    blobs, errors = _read_inputs(args.command, args.paths)
    manifest = manifest_for(blobs)

    def inspect_one(path: str, s: Structure) -> dict:
        nl = build_neighbor_list(s)
        sizes = (s.lattice.volume, volume_per_atom(s))
        if not all(map(math.isfinite, sizes)):
            raise ValueError("result is not finite: the cell is too large")
        sizes += (min_pair_distance(s),)  # finite for a finite volume
        record = {
            "path": path,
            "ok": True,  # always true; kept for readers of the key
            "n_sites": len(s),
            "volume": sizes[0],
            "volume_per_atom": sizes[1],
            "min_pair_distance": sizes[2],
            "n_neighbor_entries": len(nl),
        }
        if args.neighbors:
            columns = (nl.i, nl.j, nl.image, nl.distance)
            record["neighbors"] = [
                {"site_i": i, "site_j": j, "image": image, "distance": d}
                for i, j, image, d in zip(*(c.tolist() for c in columns))
            ]
        return record

    reports = _each_structure(args.command, blobs, errors, inspect_one)
    if not reports:
        raise _NoInput("no input could be inspected")

    def table(art: dict) -> str:
        lines = [
            f"{r['path']}: sites={r['n_sites']} "
            f"min_dist={r['min_pair_distance']:.4f} "
            f"vpa={r['volume_per_atom']:.3f} "
            f"neighbors={r['n_neighbor_entries']}"
            for r in art["files"]
        ]
        lines += [f"{e['path']}: {e['error']}" for e in art["errors"]]
        return "\n".join(lines) + "\n"

    return manifest, {"files": reports, "errors": errors}, table


# ---------------------------------------------------------------------------
# wiring


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="directory for JSON artifacts")
    parser.add_argument(
        "--format", choices=("json", "table"), default="table",
        help="stdout rendering",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The catloop parser, built once per process.

    Each subcommand declares its `func`, the config `sections` passed to it
    by name, and the values `recorded` in its manifest's `args`.
    `parse_args` leaves the parser unchanged and returns a new namespace on
    every call, so one parser serves every `main` call; callers must not
    add arguments to it.
    """
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
    p.set_defaults(
        func=cmd_validate,
        sections=("weights", "phys"),
        recorded=("target", "targets_file"),
    )

    p = sub.add_parser("textify", help="render adsorption systems as text")
    p.add_argument("paths", nargs="+", help="CIF files with .meta.json sidecars")
    _add_common(p)
    p.set_defaults(func=cmd_textify, sections=(), recorded=())

    p = sub.add_parser("grpo", help="advantages and loss for logged groups")
    p.add_argument("groups", help="JSONL file of candidate groups")
    _add_common(p)
    p.set_defaults(func=cmd_grpo, sections=("grpo",), recorded=())

    p = sub.add_parser("mmtg", help="max-min gated two-task loss")
    p.add_argument(
        "losses", nargs="*", type=float, metavar="LOSS",
        help="two task losses",
    )
    p.add_argument("--pairs", help="JSON file with an array of [a, b] pairs")
    _add_common(p)
    p.set_defaults(func=cmd_mmtg, sections=("mmtg",), recorded=("losses",))

    p = sub.add_parser("search", help="run the closed-loop exemplar search")
    _add_common(p)
    p.set_defaults(
        func=cmd_search,
        sections=("search", "generator", "predictor", "weights", "phys"),
        recorded=(),
    )

    p = sub.add_parser("geometry", help="periodic geometry summaries")
    p.add_argument("paths", nargs="+", help="CIF files to inspect")
    p.add_argument(
        "--neighbors", action="store_true", help="include full neighbor lists"
    )
    _add_common(p)
    p.set_defaults(func=cmd_geometry, sections=(), recorded=("neighbors",))

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # each result is checked for being finite, so numpy's floating-point
        # warnings would only repeat that check on stderr
        with np.errstate(all="ignore"):
            config = {}
            if args.config is not None:
                _, config = _read_side_file(args.config, "config")
                if not isinstance(config, dict):
                    raise CliError("bad config: top level must be an object")
                for key in config:
                    if key not in _SECTIONS:
                        raise CliError(f"bad config: unknown key {key!r}")
            sections = {name: _configured(config, name) for name in args.sections}
            manifest_for = functools.partial(_manifest, args, sections)
            manifest, body, table = args.func(args, manifest_for, **sections)
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
