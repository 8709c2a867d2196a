"""Reading and writing a crystal-description subset of the CIF format.

The supported subset is a single data block with the six cell tags
(`_cell_length_a/b/c`, `_cell_angle_alpha/beta/gamma`), an optional space
group (`_symmetry_space_group_name_H-M` or its `_space_group_name_H-M_alt`
alias, plus the integer table-number tags), and one `_atom_site_*` loop with
label / type_symbol / fract_x / fract_y / fract_z columns.  Unknown tags and
loops are kept in the parsed document but otherwise ignored.

Parsing never raises on malformed input.  Every problem is recorded as a
`Defect` with a code, a human-readable message, and a line number; a fatal
defect means no `Structure` is produced, while non-fatal defects still yield
one.  `parse_cif` is a pure function of its input text.

Tokenizer rules, all encoded in `_TOKEN_RE` except text fields:

* Tokens are separated by spaces and tabs only, and never span lines.
* A quote or `#` counts only at the start of a token, so `ab'c` and `a#b`
  are bare tokens.  A token starting with `#` comments out the rest of the
  line.  A token starting with a quote runs to the next same quote on that
  line, which need not be followed by a space; with none, the rest of the
  line is dropped with a SYNTAX defect.
* A line starting with `;` opens a text field that the next line starting
  with `;` closes; its stripped content is one quoted token.  An unclosed
  field is a SYNTAX defect and ends the input.
* Unquoted tags (`_...`), `data_...` and exactly `loop_` are reserved words,
  the last two in any letter case.  ASCII case classes suffice: no
  non-ASCII letter lowercases to a letter of `data_` or `loop_`.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .elements import COVALENT_RADII, normalize_symbol

DEFAULT_MAX_CHARS = 1 << 20  # parser input budget (~1 MiB of text)

CELL_TAGS = (
    "_cell_length_a",
    "_cell_length_b",
    "_cell_length_c",
    "_cell_angle_alpha",
    "_cell_angle_beta",
    "_cell_angle_gamma",
)
_SPACE_GROUP_TAGS = ("_symmetry_space_group_name_h-m", "_space_group_name_h-m_alt")
_SPACE_GROUP_NUMBER_TAGS = ("_symmetry_int_tables_number", "_space_group_it_number")
SITE_TAGS = (
    "_atom_site_label",
    "_atom_site_type_symbol",
    "_atom_site_fract_x",
    "_atom_site_fract_y",
    "_atom_site_fract_z",
)
_PLACEHOLDERS = {"?", "."}

_NUMBER_RE = re.compile(
    r"\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eEdD][+-]?\d+)?)(?:\(\d+\))?\s*"
)


class DefectCode(str, Enum):
    """Classification codes for problems found while parsing."""

    SYNTAX = "SYNTAX"
    MISSING_LATTICE = "MISSING_LATTICE"
    BAD_NUMBER = "BAD_NUMBER"
    UNKNOWN_ELEMENT = "UNKNOWN_ELEMENT"
    EMPTY_SITES = "EMPTY_SITES"
    MISSING_SPACE_GROUP = "MISSING_SPACE_GROUP"
    DUPLICATE_LABEL = "DUPLICATE_LABEL"
    INCONSISTENT_LOOP = "INCONSISTENT_LOOP"


FATAL_DEFECTS: frozenset[DefectCode] = frozenset(
    {
        DefectCode.SYNTAX,
        DefectCode.MISSING_LATTICE,
        DefectCode.BAD_NUMBER,
        DefectCode.UNKNOWN_ELEMENT,
        DefectCode.EMPTY_SITES,
        DefectCode.INCONSISTENT_LOOP,
    }
)


@dataclass(frozen=True)
class Defect:
    """One recorded parsing problem."""

    code: DefectCode
    message: str
    line: int  # 1-based line number; 0 when no single line applies

    @property
    def fatal(self) -> bool:
        return self.code in FATAL_DEFECTS

    def to_json_dict(self) -> dict:
        return {"code": self.code.value, "message": self.message, "line": self.line}


@dataclass(frozen=True)
class CifLoop:
    """A `loop_` block: column tags plus rows of raw string values."""

    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    line: int  # line of the loop_ keyword
    row_lines: tuple[int, ...] = ()


@dataclass(frozen=True)
class CifDocument:
    """Lossless view of one parsed data block.

    `scalars` maps lowercased tags to raw (unconverted) values in file
    order; `loops` keeps every loop including unrecognized ones.  Treated
    as immutable after construction.
    """

    block_name: str
    scalars: dict[str, str]
    loops: tuple[CifLoop, ...]
    source_line_spans: dict[str, tuple[int, int]]


@dataclass(frozen=True)
class Lattice:
    """Cell parameters: lengths in angstroms, angles in degrees."""

    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"cell length {name}={v!r} must be finite and positive")
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not (math.isfinite(v) and 0.0 < v < 180.0):
                raise ValueError(f"cell angle {name}={v!r} must lie in (0, 180)")
        if self._volume_factor_sq() <= 0.0:
            raise ValueError("cell angles do not define a positive-volume cell")

    def _volume_factor_sq(self) -> float:
        ca = math.cos(math.radians(self.alpha))
        cb = math.cos(math.radians(self.beta))
        cg = math.cos(math.radians(self.gamma))
        return 1.0 - ca * ca - cb * cb - cg * cg + 2.0 * ca * cb * cg

    @cached_property
    def matrix(self) -> np.ndarray:
        """3x3 row matrix of lattice vectors (standard orientation, read-only)."""
        ca = math.cos(math.radians(self.alpha))
        cb = math.cos(math.radians(self.beta))
        cg = math.cos(math.radians(self.gamma))
        sg = math.sin(math.radians(self.gamma))
        vfac = math.sqrt(self._volume_factor_sq())
        m = np.array(
            [
                [self.a, 0.0, 0.0],
                [self.b * cg, self.b * sg, 0.0],
                [self.c * cb, self.c * (ca - cb * cg) / sg, self.c * vfac / sg],
            ]
        )
        m.setflags(write=False)
        return m

    @property
    def volume(self) -> float:
        """Cell volume in cubic angstroms."""
        return self.a * self.b * self.c * math.sqrt(self._volume_factor_sq())

    @property
    def lengths(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    @property
    def angles(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "Lattice":
        """Recover cell parameters from a 3x3 row matrix of lattice vectors."""
        m = np.asarray(matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("lattice matrix must be 3x3")
        lengths = np.linalg.norm(m, axis=1)
        if np.any(lengths <= 0) or not np.all(np.isfinite(m)):
            raise ValueError("lattice matrix rows must be finite and nonzero")

        def angle(i: int, j: int) -> float:
            cosang = float(np.dot(m[i], m[j]) / (lengths[i] * lengths[j]))
            return math.degrees(math.acos(max(-1.0, min(1.0, cosang))))

        return cls(
            a=float(lengths[0]),
            b=float(lengths[1]),
            c=float(lengths[2]),
            alpha=angle(1, 2),
            beta=angle(0, 2),
            gamma=angle(0, 1),
        )


def wrap_fractional(value: float | np.ndarray) -> float | np.ndarray:
    """Wrap fractional coordinates, a number or an array, into [0, 1)."""
    w = np.mod(value, 1.0)
    # guard the x mod 1.0 == 1.0 rounding corner
    w = np.where((w >= 1.0) | (w < 0.0), 0.0, w)
    return w if w.ndim else float(w)


def _check_writable(values: tuple[str, ...], what: str) -> None:
    """Raise ValueError unless each value reads back as `_quote` writes it."""
    joined = "".join(values)
    if joined.splitlines() == [joined] and not ("'" in joined and '"' in joined):
        return  # bare or quoted tokens only, never a text field
    for value in values:
        if [t[0] for t in _tokenize(_quote(value).splitlines(), [])[0]] != [value]:
            raise ValueError(f"{what} {value!r} does not survive a CIF text field")


@dataclass(frozen=True, eq=False)
class Structure:
    """A crystal: lattice, at least one site, optional space-group identity.

    Sites are columns: `labels[k]`, `elements[k]` and row `frac[k]`, a
    read-only (N, 3) array of fractional coordinates wrapped into [0, 1).
    Compare structures with `structures_close`: an array field has no
    single truth value under `==`, so equality is identity.  Labels and the
    space-group symbol are what `serialize_cif` writes back unchanged.
    """

    lattice: Lattice
    labels: tuple[str, ...]
    elements: tuple[str, ...]
    frac: np.ndarray
    space_group_symbol: str | None = None
    space_group_number: int | None = None

    def __post_init__(self) -> None:
        labels, elements = tuple(self.labels), tuple(self.elements)
        # a copy: the caller's array must not change a memoized pair table
        frac = np.array(self.frac, dtype=float)
        if not labels:
            raise ValueError("structure must contain at least one site")
        if len(elements) != len(labels) or frac.shape != (len(labels), 3):
            raise ValueError("labels, elements and frac need the same number of sites")
        for element in elements:
            if element not in COVALENT_RADII:
                raise ValueError(f"unknown element symbol {element!r}")
        if not all(labels):
            raise ValueError("site label must be non-empty")
        sg = self.space_group_symbol
        if sg is not None and (sg != sg.strip() or sg in ("", *_PLACEHOLDERS)):
            raise ValueError(f"space group symbol {sg!r} is empty, padded or '?'/'.'")
        _check_writable(labels if sg is None else (*labels, sg), "label or space group")
        if not np.isfinite(frac).all():
            raise ValueError("fractional coordinates must be finite numbers")
        frac = wrap_fractional(frac)
        frac.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "frac", frac)
        n = self.space_group_number
        if n is not None and not (1 <= n <= 230):
            raise ValueError(f"space group number {n} outside 1..230")

    def __len__(self) -> int:
        return len(self.labels)


def composition_of(structure: Structure) -> dict[str, int]:
    """Element -> count for the structure, keys sorted alphabetically."""
    counts = Counter(structure.elements)
    return {el: counts[el] for el in sorted(counts)}


@dataclass(frozen=True)
class ParseOutcome:
    """Everything `parse_cif` learned: structure (or None), defects, document."""

    structure: Structure | None
    defects: tuple[Defect, ...]
    document: CifDocument | None
    coords_in_window: bool  # were all source coordinates already in [-0.5, 1.5)?

    @property
    def ok(self) -> bool:
        return self.structure is not None

    def has(self, code: DefectCode) -> bool:
        return any(d.code is code for d in self.defects)

    def defect_codes(self) -> tuple[str, ...]:
        return tuple(d.code.value for d in self.defects)


# ---------------------------------------------------------------------------
# tokenizer


# One match per token: a quoted value, a reserved word, a bare value, or a
# comment or unpaired quote, which runs to the end of the line.  Spaces and
# tabs between tokens match no branch and are skipped.
_TOKEN_RE = re.compile(
    r"""('[^']*'|"[^"]*")"""
    r"""|((?:_|[dD][aA][tT][aA]_)[^ \t]*|[lL][oO][oO][pP]_(?![^ \t]))"""
    r"""|([^ \t#'"][^ \t]*)"""
    r"""|([#'"]).*"""
)


def _tokenize(
    lines: list[str], defects: list[Defect]
) -> tuple[list[tuple[str, int, bool]], list[int]]:
    """Split CIF text into `(text, line, quoted)` tokens, honoring quotes,
    comments, and semicolon-delimited text fields; also return the indices
    of the reserved words."""
    tokens: list[tuple[str, int, bool]] = []
    reserved: list[int] = []
    i = 0
    n = len(lines)
    while i < n:
        line = lines[i]
        lineno = i + 1
        if line.startswith(";"):
            # multiline text field: collect until a line starting with ';'
            block: list[str] = [line[1:]]
            j = i + 1
            closed = False
            while j < n:
                if lines[j].startswith(";"):
                    closed = True
                    break
                block.append(lines[j])
                j += 1
            if not closed:
                defects.append(
                    Defect(DefectCode.SYNTAX, "unterminated text field", lineno)
                )
                i = n
                continue
            tokens.append(("\n".join(block).strip(), lineno, True))
            i = j + 1
            continue
        for quoted, word, bare, stop in _TOKEN_RE.findall(line):
            if bare:
                tokens.append((bare, lineno, False))
            elif word:
                reserved.append(len(tokens))
                tokens.append((word, lineno, False))
            elif quoted:
                tokens.append((quoted[1:-1], lineno, True))
            elif stop != "#":
                defects.append(
                    Defect(DefectCode.SYNTAX, "unterminated quoted value", lineno)
                )
        i += 1
    return tokens, reserved


def parse_number(raw: str) -> float | None:
    """Parse a CIF numeric value, stripping an uncertainty suffix like 4.123(5).

    Returns None when the value is not a plain number.
    """
    # Apart from digit-group underscores, inf and nan, float() accepts a
    # subset of _NUMBER_RE (whitespace strip included) with the same value;
    # the regex is needed only for `d` exponents and uncertainty suffixes.
    try:
        value = float(raw)
    except ValueError:
        m = _NUMBER_RE.fullmatch(raw)
        if m is None:
            return None
        value = float(m[1].replace("d", "e").replace("D", "e"))
    else:
        if "_" in raw:
            return None
    return value if math.isfinite(value) else None


# ---------------------------------------------------------------------------
# parser


def _parse_document(
    text: str, defects: list[Defect]
) -> CifDocument | None:
    tokens, reserved = _tokenize(text.splitlines(), defects)
    n = len(tokens)
    reserved.append(n)  # sentinel: every run of values ends at a reserved index

    def next_reserved(k: int) -> int:
        return reserved[bisect_left(reserved, k)]

    # locate the data block header
    start = next(
        (k for k in reserved[:-1] if tokens[k][0].lower().startswith("data_")), None
    )
    if start is None:
        defects.append(Defect(DefectCode.SYNTAX, "missing data block header", 0))
        return None
    if start > 0:
        defects.append(
            Defect(
                DefectCode.SYNTAX,
                "content before data block header",
                tokens[0][1],
            )
        )
    block_name = tokens[start][0][len("data_") :]

    scalars: dict[str, str] = {}
    loops: list[CifLoop] = []
    spans: dict[str, tuple[int, int]] = {}

    i = start + 1
    while i < n:
        j = next_reserved(i)
        for value, line, _ in tokens[i:j]:
            defects.append(
                Defect(
                    DefectCode.SYNTAX,
                    f"unexpected value {value!r} outside any loop",
                    line,
                )
            )
        if j == n:
            break
        i = j
        word, line = tokens[i][0].lower(), tokens[i][1]
        if word.startswith("data_"):
            defects.append(Defect(DefectCode.SYNTAX, "multiple data blocks", line))
            break
        if word == "loop_":
            i += 1
            columns: list[str] = []
            while i < n and not tokens[i][2] and tokens[i][0].startswith("_"):
                columns.append(tokens[i][0].lower())
                i += 1
            if not columns:
                defects.append(
                    Defect(DefectCode.SYNTAX, "loop without column tags", line)
                )
                continue
            if len(set(columns)) != len(columns):
                defects.append(
                    Defect(
                        DefectCode.INCONSISTENT_LOOP,
                        "duplicate column tag in loop",
                        line,
                    )
                )
            end = next_reserved(i)
            texts, lines, _ = zip(*tokens[i:end]) if end > i else ((), (), ())
            i = end
            ncol = len(columns)
            if not texts:
                defects.append(
                    Defect(DefectCode.INCONSISTENT_LOOP, "loop has no data rows", line)
                )
            elif len(texts) % ncol != 0:
                defects.append(
                    Defect(
                        DefectCode.INCONSISTENT_LOOP,
                        f"loop value count {len(texts)} is not a multiple of "
                        f"{ncol} columns",
                        lines[-1],
                    )
                )
            nrows = len(texts) // ncol
            rows = tuple(zip(*(texts[c::ncol] for c in range(ncol))))
            row_lines = lines[: nrows * ncol : ncol]
            loops.append(CifLoop(tuple(columns), rows, line, row_lines))
            for col in columns:
                spans.setdefault(col, (line, lines[-1] if texts else line))
            continue
        # a tag: its value is the next token unless that is reserved too
        if next_reserved(i + 1) > i + 1:
            value, value_line, _ = tokens[i + 1]
            if word in scalars:
                defects.append(
                    Defect(DefectCode.SYNTAX, f"duplicate tag {word}", line)
                )
            else:
                scalars[word] = value
                spans[word] = (line, value_line)
            i += 2
        else:
            defects.append(Defect(DefectCode.SYNTAX, f"tag {word} has no value", line))
            i += 1

    return CifDocument(block_name, scalars, tuple(loops), spans)


def find_atom_site_loop(document: CifDocument) -> CifLoop | None:
    """First loop carrying any `_atom_site_*` column of the supported subset."""
    for loop in document.loops:
        if any(col in SITE_TAGS for col in loop.columns):
            return loop
    return None


def _tag_line(document: CifDocument, tag: str) -> int:
    span = document.source_line_spans.get(tag)
    return span[0] if span else 0


def _parse_lattice(document: CifDocument, defects: list[Defect]) -> Lattice | None:
    missing = [t for t in CELL_TAGS if t not in document.scalars]
    if missing:
        defects.append(
            Defect(
                DefectCode.MISSING_LATTICE,
                "missing cell tags: " + ", ".join(missing),
                0,
            )
        )
        return None
    values: dict[str, float] = {}
    bad = False
    for tag in CELL_TAGS:
        raw = document.scalars[tag]
        num = parse_number(raw)
        if num is None:
            defects.append(
                Defect(
                    DefectCode.BAD_NUMBER,
                    f"{tag} value {raw!r} is not numeric",
                    _tag_line(document, tag),
                )
            )
            bad = True
            continue
        is_angle = "angle" in tag
        if (is_angle and not 0.0 < num < 180.0) or (not is_angle and num <= 0.0):
            defects.append(
                Defect(
                    DefectCode.BAD_NUMBER,
                    f"{tag} value {num} outside physical range",
                    _tag_line(document, tag),
                )
            )
            bad = True
            continue
        values[tag] = num
    if bad:
        return None
    try:
        return Lattice(
            a=values["_cell_length_a"],
            b=values["_cell_length_b"],
            c=values["_cell_length_c"],
            alpha=values["_cell_angle_alpha"],
            beta=values["_cell_angle_beta"],
            gamma=values["_cell_angle_gamma"],
        )
    except ValueError as exc:
        defects.append(Defect(DefectCode.BAD_NUMBER, str(exc), 0))
        return None


def _parse_space_group(
    document: CifDocument, defects: list[Defect]
) -> tuple[str | None, int | None]:
    symbol: str | None = None
    tag_present = False
    for tag in _SPACE_GROUP_TAGS:
        if tag in document.scalars:
            tag_present = True
            raw = document.scalars[tag].strip()
            if raw and raw not in _PLACEHOLDERS:
                symbol = raw
            break
    number: int | None = None
    for tag in _SPACE_GROUP_NUMBER_TAGS:
        if tag in document.scalars:
            tag_present = True
            raw = document.scalars[tag].strip()
            num = parse_number(raw)
            if num is not None and float(num).is_integer() and 1 <= int(num) <= 230:
                number = int(num)
            break
    if not tag_present:
        defects.append(
            Defect(DefectCode.MISSING_SPACE_GROUP, "no space group tag", 0)
        )
    return symbol, number


def _parse_sites(
    document: CifDocument, defects: list[Defect]
) -> tuple[tuple[list[str], list[str], list[tuple]] | None, bool]:
    """Return (columns labels, elements, frac, or None; coords_in_window)."""
    loop = find_atom_site_loop(document)
    if loop is None:
        defects.append(Defect(DefectCode.EMPTY_SITES, "no atom site loop", 0))
        return None, True
    fract_cols = ("_atom_site_fract_x", "_atom_site_fract_y", "_atom_site_fract_z")
    missing = [c for c in fract_cols if c not in loop.columns]
    has_label = "_atom_site_label" in loop.columns
    has_type = "_atom_site_type_symbol" in loop.columns
    if missing or not (has_label or has_type):
        what = list(missing)
        if not (has_label or has_type):
            what.append("_atom_site_label/_atom_site_type_symbol")
        defects.append(
            Defect(
                DefectCode.EMPTY_SITES,
                "atom site loop unusable, missing: " + ", ".join(what),
                loop.line,
            )
        )
        return None, True
    if not loop.rows:
        defects.append(
            Defect(DefectCode.EMPTY_SITES, "atom site loop has no rows", loop.line)
        )
        return None, True

    # one pass per column: convert the coordinates, resolve each distinct
    # symbol once; then one pass per row for defects and labels
    columns = dict(zip(loop.columns, zip(*loop.rows)))
    raw_xyz = [columns[col] for col in fract_cols]
    xyz = [list(map(parse_number, raws)) for raws in raw_xyz]
    coords_in_window = all(
        -0.5 <= v < 1.5 for col in xyz for v in col if v is not None
    )
    labels = columns.get("_atom_site_label")
    elements: list[str | None] = [None] * len(loop.rows)
    for column in (columns.get("_atom_site_type_symbol"), labels):
        if column is not None and None in elements:
            symbol = {tok: normalize_symbol(tok) for tok in set(column)}
            elements = [el or symbol[tok] for el, tok in zip(elements, column)]
    sources = labels or columns["_atom_site_type_symbol"]

    site_labels: list[str] = []
    fatal = False
    element_counts: dict[str, int] = {}
    seen_labels: set[str] = set()
    for k, (x, y, z, element, row_line) in enumerate(
        zip(*xyz, elements, loop.row_lines)
    ):
        if x is None or y is None or z is None or element is None:
            for col, raws, num in zip(fract_cols, raw_xyz, (x, y, z)):
                if num is None:
                    defects.append(
                        Defect(
                            DefectCode.BAD_NUMBER,
                            f"{col} value {raws[k]!r} is not numeric",
                            row_line,
                        )
                    )
            if element is None:
                defects.append(
                    Defect(
                        DefectCode.UNKNOWN_ELEMENT,
                        f"no element recognized in {sources[k]!r}",
                        row_line,
                    )
                )
            fatal = True
            continue
        element_counts[element] = element_counts.get(element, 0) + 1
        label = labels[k] if labels else f"{element}{element_counts[element]}"
        if not label:
            defects.append(Defect(DefectCode.SYNTAX, "empty site label", row_line))
            fatal = True
            continue
        if label in seen_labels:
            defects.append(
                Defect(
                    DefectCode.DUPLICATE_LABEL,
                    f"duplicate site label {label!r}",
                    row_line,
                )
            )
        seen_labels.add(label)
        site_labels.append(label)
    if fatal:
        return None, coords_in_window
    return (site_labels, elements, list(zip(*xyz))), coords_in_window


def parse_cif(text: str | bytes) -> ParseOutcome:
    """Parse CIF text into a `ParseOutcome`; never raises on bad input.

    Text longer than `DEFAULT_MAX_CHARS` characters is one SYNTAX defect.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    defects: list[Defect] = []
    if len(text) > DEFAULT_MAX_CHARS:
        defects.append(
            Defect(
                DefectCode.SYNTAX,
                f"input length {len(text)} exceeds limit {DEFAULT_MAX_CHARS}",
                0,
            )
        )
        return ParseOutcome(None, tuple(defects), None, True)

    document = _parse_document(text, defects)
    if document is None:
        return ParseOutcome(None, tuple(defects), None, True)

    lattice = _parse_lattice(document, defects)
    symbol, number = _parse_space_group(document, defects)
    columns, coords_in_window = _parse_sites(document, defects)

    structure: Structure | None = None
    if lattice is not None and columns is not None and not any(
        d.fatal for d in defects
    ):
        structure = Structure(
            lattice,
            *columns,
            space_group_symbol=symbol,
            space_group_number=number,
        )
    return ParseOutcome(structure, tuple(defects), document, coords_in_window)


# ---------------------------------------------------------------------------
# serializer


def _quote(value: str) -> str:
    """`value` as text that `_tokenize` reads back as that one value.

    A value stays bare when `_TOKEN_RE` reads it whole as a bare token and
    it cannot open a text field at the start of a line.  Otherwise it is
    quoted with a quote it lacks; one holding both quote kinds, or a line
    break, becomes a text field on lines of its own.
    """
    if value.splitlines() == [value]:  # non-empty and on one line
        m = _TOKEN_RE.match(value)
        if m is not None and m[3] == value and value[0] != ";":
            return value
        for quote in "'\"":
            if quote not in value:
                return f"{quote}{value}{quote}"
    elif not value:
        return "''"
    return f"\n;{value}\n;\n"


def _format_block_name(structure: Structure) -> str:
    comp = composition_of(structure)
    return "".join(f"{el}{n}" for el, n in comp.items())


def serialize_cif(structure: Structure, block_name: str | None = None) -> str:
    """Render a structure as CIF text that re-parses without defects.

    Numbers are written with nine decimal places.  A structure without a
    space group is written with the CIF unknown-value marker `?` so the tag
    stays present.
    """
    if block_name is None:
        block_name = _format_block_name(structure)
    lat = structure.lattice
    lines = [f"data_{block_name}"]
    for tag, value in zip(CELL_TAGS, (*lat.lengths, *lat.angles)):
        lines.append(f"{tag} {value:.9f}")
    sg = structure.space_group_symbol
    lines.append(
        "_symmetry_space_group_name_H-M " + (_quote(sg) if sg is not None else "?")
    )
    if structure.space_group_number is not None:
        lines.append(f"_symmetry_Int_Tables_number {structure.space_group_number}")
    lines.append("loop_")
    lines.extend(SITE_TAGS)
    for label, element, (x, y, z) in zip(
        structure.labels, structure.elements, structure.frac.tolist()
    ):
        lines.append(f"{_quote(label)} {element} {x:.9f} {y:.9f} {z:.9f}")
    return "\n".join(lines) + "\n"


def frac_circle_distance(
    u: float | np.ndarray, v: float | np.ndarray
) -> float | np.ndarray:
    """Distance between fractional coordinates on the unit circle, elementwise."""
    d = np.abs(np.subtract(u, v)) % 1.0
    return np.minimum(d, 1.0 - d)


def structures_close(
    s1: Structure, s2: Structure, tol: float = 1e-9
) -> bool:
    """Site-by-site equality of two structures within `tol`.

    Compares cell parameters, site order, labels, elements, and fractional
    coordinates modulo 1.  Space-group fields are ignored by coordinate
    comparison but symbol/number must match exactly.
    """
    if s1.labels != s2.labels or s1.elements != s2.elements:
        return False
    if s1.space_group_symbol != s2.space_group_symbol:
        return False
    if s1.space_group_number != s2.space_group_number:
        return False
    for p, q in zip(
        s1.lattice.lengths + s1.lattice.angles, s2.lattice.lengths + s2.lattice.angles
    ):
        if abs(p - q) > tol:
            return False
    return bool(np.all(frac_circle_distance(s1.frac, s2.frac) <= tol))
