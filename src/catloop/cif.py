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

Tokenizer rules, all encoded in `_TOKEN_RE` except text fields and plain
lines:

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
* A plain line, all ASCII with no quote, `#` or U+001F, is cut by
  `str.split`, which there splits exactly where `_TOKEN_RE` does.

Data stays in columns from the tokenizer to `Structure`: `_tokenize` returns
token texts, their line numbers and the reserved-word indices as three
lists, each `CifLoop` holds one tuple of raw values per column, and
`_parse_sites` converts those to the site columns.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .elements import COVALENT_RADII, normalize_symbol, whole_number

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
    """A `loop_` block as columns: `values[c]` holds the raw string values of
    column tag `columns[c]`, one per whole row, and `row_lines[r]` is the
    line on which row `r` starts.  A trailing partial row is dropped."""

    columns: tuple[str, ...]
    values: tuple[tuple[str, ...], ...]
    line: int  # line of the loop_ keyword
    row_lines: tuple[int, ...] = ()


@dataclass(frozen=True)
class CifDocument:
    """Lossless view of one parsed data block.

    `scalars` maps lowercased tags to raw (unconverted) values in file
    order and `tag_lines` maps them to their lines, both from a duplicate
    tag's first occurrence; `loops` keeps every loop including
    unrecognized ones.  Treated as immutable after construction.
    """

    block_name: str
    scalars: dict[str, str]
    loops: tuple[CifLoop, ...]
    tag_lines: dict[str, int]


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
        ca = math.cos(math.radians(self.alpha))
        cb = math.cos(math.radians(self.beta))
        cg = math.cos(math.radians(self.gamma))
        # (V / abc)^2, computed once here for `matrix` and `volume`; a plain
        # attribute, since a `cached_property` costs more than the formula
        vfac_sq = 1.0 - ca * ca - cb * cb - cg * cg + 2.0 * ca * cb * cg
        if vfac_sq <= 0.0:
            raise ValueError("cell angles do not define a positive-volume cell")
        object.__setattr__(self, "_volume_factor_sq", vfac_sq)

    @cached_property
    def matrix(self) -> np.ndarray:
        """3x3 row matrix of lattice vectors (standard orientation, read-only)."""
        ca = math.cos(math.radians(self.alpha))
        cb = math.cos(math.radians(self.beta))
        cg = math.cos(math.radians(self.gamma))
        sg = math.sin(math.radians(self.gamma))
        vfac = math.sqrt(self._volume_factor_sq)
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
        return self.a * self.b * self.c * math.sqrt(self._volume_factor_sq)

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
    w = np.mod(value, 1.0)  # never negative for a finite value
    # guard the x mod 1.0 == 1.0 rounding corner
    if w.ndim:
        w[w >= 1.0] = 0.0
        return w
    return 0.0 if w >= 1.0 else float(w)


def _check_writable(values: tuple[str, ...], what: str) -> None:
    """Raise ValueError unless each value reads back as `_quote` writes it."""
    joined = "".join(values)
    if joined.splitlines() == [joined] and not ("'" in joined and '"' in joined):
        return  # bare or quoted tokens only, never a text field
    for value in values:
        if _tokenize(_quote(value).splitlines(), [])[0] != [value]:
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
        # C order, also for a transposed array; `wrap_fractional` below makes
        # the copy, so the caller's array cannot change a memoized pair table
        frac = np.asarray(self.frac, dtype=float, order="C")
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
        if sg is not None and (not sg or sg != sg.strip() or sg in _PLACEHOLDERS):
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
        if n is not None:
            if not (whole_number(n) and 1 <= n <= 230):
                raise ValueError(f"space group number {n!r} is not an int in 1..230")
            object.__setattr__(self, "space_group_number", int(n))

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
# A plain line is ASCII and holds no quote, `#` or `\x1f`.  `str.splitlines`
# has cut it at every other ASCII whitespace but space and tab, so
# `str.split` reads it as `_TOKEN_RE` does, and its reserved words are the
# words `_RESERVED_RE` matches.
_NOT_PLAIN_RE = re.compile(r"""['"#\x1f]""")
_RESERVED_RE = re.compile(r"_|[dD][aA][tT][aA]_|[lL][oO][oO][pP]_\Z")


def _tokenize(
    lines: list[str], defects: list[Defect]
) -> tuple[list[str], list[int], list[int]]:
    """Split CIF text into token columns, honoring quotes, comments, and
    semicolon-delimited text fields: each token's text and line number, and
    the indices of the reserved words.  `lines` are as `str.splitlines`
    cuts them."""
    texts: list[str] = []
    token_lines: list[int] = []
    reserved: list[int] = []
    not_plain, is_reserved = _NOT_PLAIN_RE.search, _RESERVED_RE.match
    numbered = enumerate(lines, 1)
    for lineno, line in numbered:
        if line.startswith(";"):
            # multiline text field: its lines run to the next line starting
            # with ';', which closes it and is read no further
            field = [line[1:]]
            for _, line in numbered:
                if line.startswith(";"):
                    break
                field.append(line)
            else:
                defects.append(
                    Defect(DefectCode.SYNTAX, "unterminated text field", lineno)
                )
                break
            texts.append("\n".join(field).strip())
        elif line.isascii() and not_plain(line) is None:
            words = line.split()
            if "_" in line:
                for k, word in enumerate(words, len(texts)):
                    if is_reserved(word):
                        reserved.append(k)
            texts += words
        else:
            for quoted, word, bare, stop in _TOKEN_RE.findall(line):
                if bare:
                    texts.append(bare)
                elif word:
                    reserved.append(len(texts))
                    texts.append(word)
                elif quoted:
                    texts.append(quoted[1:-1])
                elif stop != "#":
                    defects.append(
                        Defect(DefectCode.SYNTAX, "unterminated quoted value", lineno)
                    )
        # every token read in this pass starts on line `lineno`
        token_lines += [lineno] * (len(texts) - len(token_lines))
    return texts, token_lines, reserved


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


def _number_column(raws: tuple[str, ...]) -> tuple[list[float | None], bool]:
    """`[parse_number(r) for r in raws]`, and whether it holds no None.

    One `float` pass serves when every value converts, none holds `_` and
    all are finite: `parse_number` tries `float` first, so those are its values.
    """
    try:
        values = list(map(float, raws))
    except ValueError:
        pass
    else:  # a sum is finite only if every term is
        if "_" not in "".join(raws) and math.isfinite(sum(values)):
            return values, True
    numbers = list(map(parse_number, raws))
    return numbers, None not in numbers


# ---------------------------------------------------------------------------
# parser


def _parse_document(
    text: str, defects: list[Defect]
) -> CifDocument | None:
    texts, token_lines, reserved = _tokenize(text.splitlines(), defects)
    n = len(texts)
    reserved.append(n)  # sentinel: every run of values ends at a reserved index

    # locate the data block header
    r = next(
        (r for r, k in enumerate(reserved[:-1]) if texts[k].lower().startswith("data_")),
        None,
    )
    if r is None:
        defects.append(Defect(DefectCode.SYNTAX, "missing data block header", 0))
        return None
    start = reserved[r]
    if start > 0:
        defects.append(
            Defect(
                DefectCode.SYNTAX,
                "content before data block header",
                token_lines[0],
            )
        )
    block_name = texts[start][len("data_") :]

    scalars: dict[str, str] = {}
    loops: list[CifLoop] = []
    tag_lines: dict[str, int] = {}

    # `reserved[r]` is the first reserved index at or after `i`: both only
    # move forward, so one pointer replaces a search per token
    i, r = start + 1, r + 1
    while i < n:
        j = reserved[r]
        for k in range(i, j):
            defects.append(
                Defect(
                    DefectCode.SYNTAX,
                    f"unexpected value {texts[k]!r} outside any loop",
                    token_lines[k],
                )
            )
        if j == n:
            break
        i = j
        word, line = texts[i].lower(), token_lines[i]
        if word.startswith("data_"):
            defects.append(Defect(DefectCode.SYNTAX, "multiple data blocks", line))
            break
        if word == "loop_":
            i, r = i + 1, r + 1
            # column tags: the reserved words after loop_ that start with `_`
            columns: list[str] = []
            while reserved[r] == i < n and texts[i].startswith("_"):
                columns.append(texts[i].lower())
                i, r = i + 1, r + 1
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
            end = reserved[r]
            ncol = len(columns)
            if end == i:
                defects.append(
                    Defect(DefectCode.INCONSISTENT_LOOP, "loop has no data rows", line)
                )
            elif (end - i) % ncol != 0:
                defects.append(
                    Defect(
                        DefectCode.INCONSISTENT_LOOP,
                        f"loop value count {end - i} is not a multiple of "
                        f"{ncol} columns",
                        token_lines[end - 1],
                    )
                )
            stop = end - (end - i) % ncol  # whole rows only
            values = tuple(tuple(texts[c:stop:ncol]) for c in range(i, i + ncol))
            loops.append(
                CifLoop(tuple(columns), values, line, tuple(token_lines[i:stop:ncol]))
            )
            i = end
            continue
        # a tag: its value is the next token unless that is reserved too
        r += 1
        if reserved[r] > i + 1:
            if word in scalars:
                defects.append(
                    Defect(DefectCode.SYNTAX, f"duplicate tag {word}", line)
                )
            else:
                scalars[word] = texts[i + 1]
                tag_lines[word] = line
            i += 2
        else:
            defects.append(Defect(DefectCode.SYNTAX, f"tag {word} has no value", line))
            i += 1

    return CifDocument(block_name, scalars, tuple(loops), tag_lines)


def find_atom_site_loop(document: CifDocument) -> CifLoop | None:
    """First loop carrying any `_atom_site_*` column of the supported subset."""
    for loop in document.loops:
        if any(col in SITE_TAGS for col in loop.columns):
            return loop
    return None


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
    values: list[float] = []  # in CELL_TAGS order, which is Lattice's
    for tag in CELL_TAGS:
        raw = document.scalars[tag]
        num = parse_number(raw)  # finite or None
        if num is not None and 0.0 < num < (180.0 if "angle" in tag else math.inf):
            values.append(num)
            continue
        fault = f"{raw!r} is not numeric" if num is None else f"{num} outside physical range"
        defects.append(
            Defect(DefectCode.BAD_NUMBER, f"{tag} value {fault}", document.tag_lines[tag])
        )
    if len(values) < len(CELL_TAGS):
        return None
    try:
        return Lattice(*values)
    except ValueError as exc:
        defects.append(Defect(DefectCode.BAD_NUMBER, str(exc), 0))
        return None


def _parse_space_group(
    document: CifDocument, defects: list[Defect]
) -> tuple[str | None, int | None]:
    # each family is read from its first tag present; a later alias is ignored
    scalars = document.scalars
    symbol, number = (
        next((scalars[tag].strip() for tag in tags if tag in scalars), None)
        for tags in (_SPACE_GROUP_TAGS, _SPACE_GROUP_NUMBER_TAGS)
    )
    if symbol is None and number is None:
        defects.append(
            Defect(DefectCode.MISSING_SPACE_GROUP, "no space group tag", 0)
        )
    num = None if number is None else parse_number(number)
    return (
        symbol if symbol and symbol not in _PLACEHOLDERS else None,
        int(num) if num is not None and num.is_integer() and 1 <= num <= 230 else None,
    )


def _parse_sites(
    document: CifDocument, defects: list[Defect]
) -> tuple[tuple[list[str], list[str], np.ndarray] | None, bool]:
    """Return (columns labels, elements, frac, or None; coords_in_window)."""
    loop = find_atom_site_loop(document)
    if loop is None:
        defects.append(Defect(DefectCode.EMPTY_SITES, "no atom site loop", 0))
        return None, True
    label_tag, type_tag, *fract_tags = SITE_TAGS
    missing = [c for c in fract_tags if c not in loop.columns]
    if label_tag not in loop.columns and type_tag not in loop.columns:
        missing.append(f"{label_tag}/{type_tag}")
    if missing:
        defects.append(
            Defect(
                DefectCode.EMPTY_SITES,
                "atom site loop unusable, missing: " + ", ".join(missing),
                loop.line,
            )
        )
        return None, True
    if not loop.row_lines:
        defects.append(
            Defect(DefectCode.EMPTY_SITES, "atom site loop has no rows", loop.line)
        )
        return None, True

    # one pass per column: convert the coordinates, resolve each distinct
    # symbol once; a row pass only when some row has a problem
    columns = dict(zip(loop.columns, loop.values))
    raw_xyz = [columns[col] for col in fract_tags]
    xyz, numeric = zip(*map(_number_column, raw_xyz))
    read = [c if ok else [v for v in c if v is not None] for c, ok in zip(xyz, numeric)]
    coords_in_window = all(-0.5 <= min(c) and max(c) < 1.5 for c in read if c)
    labels = columns.get(label_tag)
    elements: list[str | None] = [None] * len(loop.row_lines)
    resolved = False
    for column in (columns.get(type_tag), labels):
        if column is not None and not resolved:
            symbol = {tok: normalize_symbol(tok) for tok in set(column)}
            elements = [el or symbol[tok] for el, tok in zip(elements, column)]
            resolved = None not in elements
    unique = labels is not None and all(labels) and len(set(labels)) == len(labels)
    if resolved and unique and all(numeric):
        return (list(labels), elements, np.array(xyz).T), coords_in_window
    sources = labels or columns[type_tag]

    site_labels: list[str] = []
    fatal = False
    element_counts: dict[str, int] = {}
    seen_labels: set[str] = set()
    xs, ys, zs = xyz
    for k, (x, y, z, element, row_line) in enumerate(
        zip(xs, ys, zs, elements, loop.row_lines)
    ):
        if x is None or y is None or z is None or element is None:
            for col, raws, num in zip(fract_tags, raw_xyz, (x, y, z)):
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
    return (site_labels, elements, np.array(xyz).T), coords_in_window


def parse_cif(text: str | bytes) -> ParseOutcome:
    """Parse CIF text into a `ParseOutcome`; never raises on bad input.

    One leading byte-order mark (U+FEFF) is ignored, as CIF 2.0 allows.
    Text longer than `DEFAULT_MAX_CHARS` characters is one SYNTAX defect.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    text = text.removeprefix("\ufeff")
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
    break, becomes a text field on lines of its own.  `value` is never
    empty: `Structure` refuses empty labels and space-group symbols.
    """
    # no space, tab, quote, `#`, `;`, `_` or line break is alphanumeric, so
    # `_TOKEN_RE` reads such a value whole as a bare token
    if value.isalnum():
        return value
    if value.splitlines() == [value]:  # non-empty and on one line
        m = _TOKEN_RE.match(value)
        if m is not None and m[3] == value and value[0] != ";":
            return value
        for quote in "'\"":
            if quote not in value:
                return f"{quote}{value}{quote}"
    return f"\n;{value}\n;\n"


# the block header, cell and space-group lines; the site loop's header; one
# site row.  `%.9f` writes the same digits as `{:.9f}`, and formats faster.
_HEAD_TEMPLATE = (
    "data_%s\n"
    + "".join(f"{tag} %.9f\n" for tag in CELL_TAGS)
    + "_symmetry_space_group_name_H-M %s\n"
)
_LOOP_HEAD = "loop_\n" + "".join(f"{tag}\n" for tag in SITE_TAGS)
_SITE_ROW = "%s %s %.9f %.9f %.9f\n"


def serialize_cif(structure: Structure) -> str:
    """Render a structure as CIF text that re-parses without defects.

    The block is named by composition, element symbols and counts in site
    order (``data_Cu2O1``).  Numbers are written with nine decimal places.
    A structure without a space group is written with the CIF unknown-value
    marker `?` so the tag stays present.
    """
    lat, sg = structure.lattice, structure.space_group_symbol
    text = _HEAD_TEMPLATE % (
        "".join([f"{el}{n}" for el, n in composition_of(structure).items()]),
        lat.a, lat.b, lat.c, lat.alpha, lat.beta, lat.gamma,
        "?" if sg is None else _quote(sg),
    )
    if structure.space_group_number is not None:
        text += f"_symmetry_Int_Tables_number {structure.space_group_number}\n"
    rows = zip(
        map(_quote, structure.labels), structure.elements, *structure.frac.T.tolist()
    )
    return text + _LOOP_HEAD + "".join([_SITE_ROW % row for row in rows])


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
