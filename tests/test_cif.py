"""CIF parsing, defect reporting, and round-trip serialization."""

import math
from dataclasses import replace

import numpy as np
import pytest

from catloop.cif import (
    _TOKEN_RE,
    DEFAULT_MAX_CHARS,
    DefectCode,
    FATAL_DEFECTS,
    Lattice,
    Structure,
    _number_column,
    _quote,
    _tokenize,
    composition_of,
    frac_circle_distance,
    parse_cif,
    parse_number,
    serialize_cif,
    structures_close,
    wrap_fractional,
)
from conftest import MINIMAL_CIF, make_structure, random_structure
from test_golden import parse_corpus


def edit(base: str, old: str, new: str) -> str:
    assert old in base
    return base.replace(old, new)


# ---------------------------------------------------------------------------
# happy path


def test_minimal_parse(minimal_cif):
    out = parse_cif(minimal_cif)
    assert out.ok
    assert out.defects == ()
    s = out.structure
    assert s.lattice.lengths == (4.0, 4.0, 4.0)
    assert s.lattice.angles == (90.0, 90.0, 90.0)
    assert s.space_group_symbol == "P 1"
    assert len(s) == 1
    assert s.elements == ("Cu",)
    assert s.labels == ("Cu1",)
    assert out.coords_in_window


def test_uncertainty_suffix_stripped(minimal_cif):
    out = parse_cif(edit(minimal_cif, "_cell_length_a 4.0", "_cell_length_a 4.123(5)"))
    assert out.ok
    assert out.structure.lattice.a == 4.123


def test_parse_number_forms():
    assert parse_number("4.123(5)") == 4.123
    assert parse_number("-0.25") == -0.25
    assert parse_number("1e-3") == 1e-3
    assert parse_number("1.5D2") == 150.0
    assert parse_number(".5") == 0.5
    assert parse_number("12(3)") == 12.0
    assert parse_number("abc") is None
    assert parse_number("nan") is None
    assert parse_number("inf") is None
    assert parse_number("1.0.0") is None
    assert parse_number("") is None
    # forms float() alone would read differently
    assert parse_number("1_000") is None
    assert parse_number("1e999") is None
    assert parse_number("\xa0+.5E1\t") == 5.0
    assert parse_number(" 2.5d-1(4)\n") == 0.25


def test_coordinates_wrapped(minimal_cif):
    out = parse_cif(edit(minimal_cif, "Cu1 Cu 0.0 0.0 0.0", "Cu1 Cu -0.25 1.25 0.5"))
    assert out.ok
    assert out.structure.frac[0].tolist() == [0.75, 0.25, 0.5]
    assert out.coords_in_window  # -0.25 and 1.25 are inside [-0.5, 1.5)


def test_out_of_window_coordinates_flagged(minimal_cif):
    out = parse_cif(edit(minimal_cif, "Cu1 Cu 0.0 0.0 0.0", "Cu1 Cu 1.7 0.0 0.0"))
    assert out.ok  # still parses; wrapping is lossy but defined
    assert not out.coords_in_window
    assert out.structure.frac[0, 0] == pytest.approx(0.7)


def test_case_insensitive_tags(minimal_cif):
    text = minimal_cif.replace("_cell_length_a", "_CELL_LENGTH_A").replace(
        "data_test", "DATA_test"
    )
    out = parse_cif(text)
    assert out.ok and out.defects == ()


def test_space_group_alias(minimal_cif):
    out = parse_cif(
        edit(
            minimal_cif,
            "_symmetry_space_group_name_H-M 'P 1'",
            "_space_group_name_H-M_alt 'F m -3 m'",
        )
    )
    assert out.ok
    assert out.structure.space_group_symbol == "F m -3 m"


def test_space_group_number_tag(minimal_cif):
    out = parse_cif(minimal_cif + "_symmetry_Int_Tables_number 225\n")
    assert out.ok
    assert out.structure.space_group_number == 225


def test_unknown_tags_preserved(minimal_cif):
    out = parse_cif(minimal_cif + "_chemical_name_common 'copper метал'\n")
    assert out.ok and out.defects == ()
    assert out.document.scalars["_chemical_name_common"] == "copper метал"


def test_semicolon_text_field(minimal_cif):
    text = minimal_cif + "_exptl_notes\n;\nfree text\nover lines\n;\n"
    out = parse_cif(text)
    assert out.ok and out.defects == ()
    assert "free text" in out.document.scalars["_exptl_notes"]
    # a scalar tag's own line, not its value's; a duplicate keeps the first;
    # loop columns have none
    dup = parse_cif(text + "_exptl_notes again\n").document
    assert "free text" in dup.scalars["_exptl_notes"]
    assert dup.tag_lines == {
        "_cell_length_a": 2, "_cell_length_b": 3, "_cell_length_c": 4,
        "_cell_angle_alpha": 5, "_cell_angle_beta": 6, "_cell_angle_gamma": 7,
        "_symmetry_space_group_name_h-m": 8, "_exptl_notes": 16,
    }


def test_bytes_input(minimal_cif):
    assert parse_cif(minimal_cif.encode()).ok
    # invalid utf-8 degrades, never raises
    assert parse_cif(b"\xff\xfe garbage").ok is False


def test_leading_byte_order_mark_ignored(minimal_cif):
    plain = parse_cif(minimal_cif).structure
    for text in ("\ufeff" + minimal_cif, ("\ufeff" + minimal_cif).encode()):
        out = parse_cif(text)
        assert out.ok and out.defects == ()
        assert structures_close(out.structure, plain, tol=0.0)
    # only one: a second mark is content before the header
    assert parse_cif("\ufeff\ufeff" + minimal_cif).has(DefectCode.SYNTAX)


def test_label_column_optional(minimal_cif):
    text = minimal_cif.replace("_atom_site_label\n", "").replace(
        "Cu1 Cu 0.0 0.0 0.0", "Cu 0.0 0.0 0.0"
    )
    out = parse_cif(text)
    assert out.ok
    assert out.structure.labels[0] == "Cu1"  # auto-generated


# ---------------------------------------------------------------------------
# defects


@pytest.mark.parametrize(
    "mutate,code",
    [
        (lambda t: t.replace("data_test\n", ""), DefectCode.SYNTAX),
        (
            lambda t: edit(t, "loop_\n", "stray_value\nloop_\n"),
            DefectCode.SYNTAX,
        ),
        (lambda t: t + "_dup 1\n_dup 2\n", DefectCode.SYNTAX),
        (lambda t: t + "_bad 'unterminated\n", DefectCode.SYNTAX),
        (lambda t: t + "data_second\n", DefectCode.SYNTAX),
        (lambda t: edit(t, "_cell_length_b 4.0\n", ""), DefectCode.MISSING_LATTICE),
        (lambda t: edit(t, "_cell_length_a 4.0", "_cell_length_a abc"), DefectCode.BAD_NUMBER),
        (lambda t: edit(t, "_cell_angle_beta 90", "_cell_angle_beta 200"), DefectCode.BAD_NUMBER),
        (lambda t: edit(t, "Cu1 Cu 0.0", "Cu1 Cu x.0"), DefectCode.BAD_NUMBER),
        (lambda t: edit(t, "Cu1 Cu", "Xx1 Xx"), DefectCode.UNKNOWN_ELEMENT),
        (lambda t: edit(t, "Cu1 Cu 0.0 0.0 0.0\n", ""), DefectCode.INCONSISTENT_LOOP),
        (lambda t: edit(t, " 0.0\n", "\n"), DefectCode.INCONSISTENT_LOOP),
        # a repeated column tag, with one more value per row so rows stay whole
        (
            lambda t: edit(
                edit(t, "_fract_z\n", "_fract_z\n_atom_site_fract_x\n"),
                "0.0 0.0 0.0", "0.0 0.0 0.0 0.5",
            ),
            DefectCode.INCONSISTENT_LOOP,
        ),
        (lambda t: edit(t, "Cu1 Cu", "'' Cu"), DefectCode.SYNTAX),
        (lambda t: edit(t, "Cu1 Cu", ";\n;\nCu"), DefectCode.SYNTAX),
    ],
)
def test_fatal_defects(minimal_cif, mutate, code):
    out = parse_cif(mutate(minimal_cif))
    assert out.has(code), out.defects
    assert code in FATAL_DEFECTS
    assert not out.ok


def test_missing_atom_loop_is_empty_sites(minimal_cif):
    text = minimal_cif[: minimal_cif.index("loop_")]
    out = parse_cif(text)
    assert out.has(DefectCode.EMPTY_SITES)
    assert not out.ok


def test_missing_fract_column_is_empty_sites(minimal_cif):
    text = minimal_cif.replace("_atom_site_fract_z\n", "").replace(
        "Cu1 Cu 0.0 0.0 0.0", "Cu1 Cu 0.0 0.0"
    )
    out = parse_cif(text)
    assert out.has(DefectCode.EMPTY_SITES)
    assert not out.ok


def test_missing_space_group_nonfatal(minimal_cif):
    out = parse_cif(edit(minimal_cif, "_symmetry_space_group_name_H-M 'P 1'\n", ""))
    assert out.has(DefectCode.MISSING_SPACE_GROUP)
    assert out.ok  # non-fatal: structure still produced
    assert out.structure.space_group_symbol is None


def test_space_group_placeholder_is_not_a_defect(minimal_cif):
    # tag present with the unknown-value marker: no defect, but no symbol
    out = parse_cif(
        edit(minimal_cif, "_symmetry_space_group_name_H-M 'P 1'", "_symmetry_space_group_name_H-M ?")
    )
    assert out.ok and out.defects == ()
    assert out.structure.space_group_symbol is None


def test_duplicate_label_nonfatal(minimal_cif):
    out = parse_cif(
        minimal_cif + "Cu1 Cu 0.5 0.5 0.5\n"
    )
    assert out.has(DefectCode.DUPLICATE_LABEL)
    assert out.ok
    assert len(out.structure) == 2


def test_defect_line_numbers(minimal_cif):
    out = parse_cif(edit(minimal_cif, "_cell_length_c 4.0", "_cell_length_c bogus"))
    (defect,) = [d for d in out.defects if d.code is DefectCode.BAD_NUMBER]
    assert defect.line == 4  # _cell_length_c sits on line 4


def test_failure_iff_fatal_defect(minimal_cif):
    rng = np.random.default_rng(20)
    corpus = [
        MINIMAL_CIF,
        MINIMAL_CIF.replace("data_test\n", ""),
        MINIMAL_CIF.replace("_symmetry_space_group_name_H-M 'P 1'\n", ""),
        MINIMAL_CIF + "Cu1 Cu 0.5 0.5 0.5\n",
        MINIMAL_CIF.replace("Cu", "Zz"),
    ]
    for _ in range(200):
        base = corpus[int(rng.integers(len(corpus)))]
        pos = int(rng.integers(0, len(base)))
        text = base[:pos] + base[pos + 1 :]  # drop one character
        out = parse_cif(text)
        assert out.ok == (not any(d.fatal for d in out.defects))


def test_oversize_input_rejected():
    # a valid CIF padded with a comment to exactly the cap still parses
    pad = DEFAULT_MAX_CHARS - len(MINIMAL_CIF) - 2
    at_cap = MINIMAL_CIF + "#" + "x" * pad + "\n"
    assert len(at_cap) == DEFAULT_MAX_CHARS
    out = parse_cif(at_cap)
    assert out.ok
    assert not any("exceeds limit" in d.message for d in out.defects)
    out = parse_cif(at_cap + "\n")
    assert not out.ok
    assert out.has(DefectCode.SYNTAX)
    assert [d.message for d in out.defects] == [
        f"input length {DEFAULT_MAX_CHARS + 1} exceeds limit {DEFAULT_MAX_CHARS}"
    ]


def test_empty_input():
    out = parse_cif("")
    assert not out.ok
    assert out.has(DefectCode.SYNTAX)


# ---------------------------------------------------------------------------
# models


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice(0.0, 4.0, 4.0, 90.0, 90.0, 90.0)
    with pytest.raises(ValueError):
        Lattice(4.0, 4.0, 4.0, 90.0, 180.0, 90.0)
    with pytest.raises(ValueError):
        Lattice(4.0, 4.0, 4.0, 1.0, 1.0, 170.0)  # impossible angle triple
    with pytest.raises(ValueError):
        Lattice(math.nan, 4.0, 4.0, 90.0, 90.0, 90.0)


def test_lattice_matrix_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(200):
        lengths = rng.uniform(1.0, 20.0, 3)
        angles = rng.uniform(40.0, 140.0, 3)
        try:
            lat = Lattice(*lengths, *angles)
        except ValueError:
            continue
        back = Lattice.from_matrix(lat.matrix)
        for p, q in zip(lat.lengths + lat.angles, back.lengths + back.angles):
            assert abs(p - q) <= 1e-9 * max(1.0, abs(p))


def test_lattice_volume_matches_determinant():
    lat = Lattice(3.0, 4.0, 5.0, 80.0, 95.0, 112.0)
    assert lat.volume == pytest.approx(abs(np.linalg.det(lat.matrix)), rel=1e-12)


def test_cubic_matrix_orientation():
    m = Lattice(4.0, 4.0, 4.0, 90.0, 90.0, 90.0).matrix
    assert np.allclose(m, np.diag([4.0, 4.0, 4.0]), atol=1e-12)


CUBIC = Lattice(4.0, 4.0, 4.0, 90.0, 90.0, 90.0)


def one_site(label="Cu1", element="Cu", frac=((0, 0, 0),), **kwargs):
    return Structure(CUBIC, (label,), (element,), frac, **kwargs)


def test_atom_site_validation():
    with pytest.raises(ValueError, match="unknown element"):
        one_site(label="Q1", element="Qq")
    with pytest.raises(ValueError, match="label"):
        one_site(label="")
    with pytest.raises(ValueError, match="finite"):
        one_site(frac=((0, math.inf, 0),))
    s = one_site(frac=((-0.25, 1.25, 0.5),))
    assert s.frac.tolist() == [[0.75, 0.25, 0.5]]


@pytest.mark.parametrize(
    "labels, elements, frac",
    [
        (("Cu1", "Cu2"), ("Cu",), ((0, 0, 0), (0.5, 0.5, 0.5))),
        (("Cu1",), ("Cu", "Cu"), ((0, 0, 0),)),
        (("Cu1",), ("Cu",), ((0, 0, 0), (0.5, 0.5, 0.5))),
        (("Cu1",), ("Cu",), (0, 0, 0)),
    ],
)
def test_structure_columns_must_match(labels, elements, frac):
    with pytest.raises(ValueError, match="same number of sites"):
        Structure(CUBIC, labels, elements, frac)


def test_structure_frac_is_a_read_only_copy():
    frac = np.array([[0.1, 0.2, 0.3]])
    s = one_site(frac=frac)
    frac[0, 0] = 0.9
    assert s.frac.tolist() == [[0.1, 0.2, 0.3]]
    with pytest.raises(ValueError):
        s.frac[0, 0] = 0.5


def test_structure_frac_is_c_ordered():
    # parsing hands over its coordinate columns transposed
    columns = np.array([[0.1, 0.2], [0.0, 0.0], [0.5, 0.0]])
    s = Structure(CUBIC, ("a", "b"), ("Cu", "O"), columns.T)
    assert s.frac.flags.c_contiguous and s.frac.tolist()[0] == [0.1, 0.0, 0.5]


def test_wrap_fractional_corner():
    assert wrap_fractional(0.5) == 0.5
    assert wrap_fractional(1.0) == 0.0
    assert wrap_fractional(-1e-17) == 0.0  # rounds up to 1.0, then wraps
    assert 0.0 <= wrap_fractional(-0.3) < 1.0


def test_wrap_fractional_array_matches_scalar():
    corners = [1.0, -1e-17, -0.0, 0.0, 2.5, -2.5, math.nextafter(1.0, 0.0), -0.3]
    wrapped = wrap_fractional(np.array(corners))
    assert [float(w).hex() for w in wrapped] == [
        wrap_fractional(c).hex() for c in corners
    ]


def test_wrap_fractional_matches_the_where_form():
    def where_form(value):
        w = np.mod(value, 1.0)
        w = np.where((w >= 1.0) | (w < 0.0), 0.0, w)
        return w if w.ndim else float(w)

    corners = [-0.0, -1e-20, 1 - 2**-53, math.nan, 1e300, -1e300, 1.0, -1.0]
    rng = np.random.default_rng(67)
    arrays = [np.array(corners)] + [
        rng.normal(scale=10.0 ** rng.integers(-20, 20), size=(int(rng.integers(1, 9)), 3))
        for _ in range(200)
    ]
    with np.errstate(invalid="ignore"):  # nan mod 1
        for c in corners:
            assert wrap_fractional(c).hex() == where_form(c).hex()
        for a in arrays:
            assert wrap_fractional(a.copy()).tobytes() == where_form(a).tobytes()


def test_structure_validation():
    with pytest.raises(ValueError):
        Structure(CUBIC, (), (), np.empty((0, 3)))
    with pytest.raises(ValueError):
        one_site(space_group_number=231)


@pytest.mark.parametrize("number", [2.5, 2.0, True, "2", 0, 231])
def test_space_group_number_must_be_an_int_in_range(number):
    with pytest.raises(ValueError, match="space group number"):
        one_site(space_group_number=number)


def test_space_group_number_is_stored_as_int():
    s = one_site(space_group_number=np.int64(225))
    assert type(s.space_group_number) is int and s.space_group_number == 225
    out = parse_cif(serialize_cif(s))
    assert out.ok and out.defects == ()
    assert structures_close(s, out.structure)


def test_composition_of():
    s = make_structure(["Cu", "O", "Cu", "Cu"], np.random.default_rng(0).random((4, 3)))
    assert composition_of(s) == {"Cu": 3, "O": 1}
    assert list(composition_of(s)) == ["Cu", "O"]  # alphabetical keys


def test_structures_close_mismatches():
    base = make_structure(
        ["Cu", "O"], [(0.0, 0.0, 0.0), (0.5, 0.5, 0.5)], space_group_number=1
    )
    assert structures_close(base, replace(base), tol=0.0)
    others = {
        "label": replace(base, labels=("Cu1", "O2")),
        "element": replace(base, elements=("Cu", "S")),
        "space group symbol": replace(base, space_group_symbol="P -1"),
        "space group number": replace(base, space_group_number=2),
        "cell angle": replace(base, lattice=replace(base.lattice, gamma=90.5)),
        "coordinate": replace(base, frac=base.frac + [[0.0, 0.0, 0.1], [0.0] * 3]),
    }
    for what, other in others.items():
        assert not structures_close(base, other), what
        assert not structures_close(other, base), what


def test_frac_circle_distance():
    assert frac_circle_distance(0.1, 0.9) == pytest.approx(0.2)
    assert frac_circle_distance(0.9999999997, 0.0) <= 1e-9
    assert frac_circle_distance(0.5, 0.5) == 0.0


# ---------------------------------------------------------------------------
# serialization round trips


def test_serialize_reparse_zero_defects(minimal_cif):
    s = parse_cif(minimal_cif).structure
    out = parse_cif(serialize_cif(s))
    assert out.ok and out.defects == ()
    assert structures_close(s, out.structure)


def test_serialize_without_space_group_round_trips():
    s = make_structure(["Cu"], [(0.25, 0.25, 0.25)], space_group=None)
    text = serialize_cif(s)
    assert "_symmetry_space_group_name_H-M ?" in text
    out = parse_cif(text)
    assert out.ok and out.defects == ()
    assert out.structure.space_group_symbol is None


def test_serialize_block_name_from_composition():
    s = make_structure(["Cu", "Cu", "O"], [(0, 0, 0), (0.5, 0.5, 0.5), (0.25, 0.25, 0.25)])
    assert serialize_cif(s).startswith("data_Cu2O1\n")


@pytest.mark.parametrize(
    "name", [None, "", "custom", "a#b", "a'b", "Data_x", "\xa0"]
)
def test_serialized_block_names_re_parse(name):
    # None: the composition name as written; otherwise a header the parser
    # must read back as that one word
    text = serialize_cif(one_site())
    if name is not None:
        text = text.replace("data_Cu1\n", f"data_{name}\n", 1)
    out = parse_cif(text)
    assert out.ok and out.defects == ()
    assert out.document.block_name == ("Cu1" if name is None else name)


def test_serialize_quotes_awkward_labels():
    s = one_site(label="Cu 1", space_group_symbol="P 1")
    out = parse_cif(serialize_cif(s))
    assert out.ok and out.defects == ()
    assert out.structure.labels == ("Cu 1",)


@pytest.mark.parametrize(
    "label, symbol",
    [
        ("'loop_'", "'P 1'"),
        ("'_x'", "'P 1'"),
        ("'data_y'", "'P 1'"),
        ("';x'", "'P 1'"),
        ("'#x'", "'P 1'"),
        ("\n;a'b\"c\n;\n", "'P 1'"),
        ("Cu1", "'_p1'"),
        ("Cu1", "\n;P'1\"\n;\n"),
        ("Cu\x1f1", "'P 1'"),  # written bare; `str.split` would cut it
        ("Cu\u30001", "'P 1'"),
    ],
    ids=["loop", "tag", "data", "semicolon", "hash", "both-quotes",
         "tag-symbol", "both-quotes-symbol", "unit-separator", "ideographic-space"],
)
def test_serialized_values_re_parse(minimal_cif, label, symbol):
    text = edit(minimal_cif, "Cu1 Cu", f"{label} Cu")
    text = edit(text, "H-M 'P 1'", f"H-M {symbol}")
    s = parse_cif(text).structure
    assert s is not None
    out = parse_cif(serialize_cif(s))
    assert out.ok and out.defects == ()
    assert structures_close(s, out.structure)


def _quote_by_regex(value: str) -> str:
    """`_quote` without its alphanumeric shortcut: the reference."""
    if value.splitlines() == [value]:
        m = _TOKEN_RE.match(value)
        if m is not None and m[3] == value and value[0] != ";":
            return value
        for quote in "'\"":
            if quote not in value:
                return f"{quote}{value}{quote}"
    return f"\n;{value}\n;\n"


@pytest.mark.parametrize(
    "value",
    [
        # alphanumeric, ASCII or not: the shortcut writes these bare
        "Cu1", "O", "1", "P1", "loop", "data", "Å1", "½", "²", "Ⅻ", "Ｃｕ１",
        # not alphanumeric: the regex path decides
        ";a", "_a", "data_x", "loop_", "#a", "'a", "a b", "P 1",
    ],
)
def test_quote_equals_the_regex_path(value):
    assert _quote(value) == _quote_by_regex(value)
    assert _tokenize(_quote(value).splitlines(), [])[0] == [value]


def test_round_trip_random_structures():
    rng = np.random.default_rng(42)
    for _ in range(150):
        s = random_structure(rng)
        out = parse_cif(serialize_cif(s))
        assert out.ok
        assert out.defects == ()
        assert structures_close(s, out.structure, tol=1e-9)


# characters that quoting, text fields, the tokenizer or stripping treat
# specially; "\r", "\x85" and "\u2028" break lines for `str.splitlines`, and
# `str.split` but not `_TOKEN_RE` splits at "\x1f", "\xa0" and "\u3000"
AWKWARD = ["a", "b", " ", "\t", "'", '"', ";", "#", "_", "?", ".", "\n", "\r",
           "\x85", "\u2028", "\xa0", "\x1f", "\u3000"]


@pytest.mark.parametrize(
    "label, symbol",
    [
        ("a\n;b", "P 1"),  # the second line would close the text field
        ("a'b\" ", "P 1"),  # a text field, read back stripped
        (" a'b\"", "P 1"),
        ("a\nb\n", "P 1"),
        ("a\rb", "P 1"),  # read back as "a\nb"
        ("a\r\nb", "P 1"),
        ("a\x85b", "P 1"),
        ("Cu1", " P 1"),  # read back stripped
        ("Cu1", "P 1\t"),
        ("Cu1", "?"),  # read back as no symbol
        ("Cu1", "."),
        ("Cu1", ""),
        ("Cu1", "P\r1"),
        ("Cu1", "P\n;1"),
    ],
)
def test_structure_rejects_values_cif_cannot_carry(label, symbol):
    with pytest.raises(ValueError, match="label|space group"):
        one_site(label=label, space_group_symbol=symbol)


def test_every_accepted_value_round_trips():
    rng = np.random.default_rng(43)
    accepted = rejected = 0
    for _ in range(3000):
        label, symbol = (
            "".join(rng.choice(AWKWARD, size=int(rng.integers(1, 6))))
            for _ in range(2)
        )
        try:
            s = one_site(label=label, space_group_symbol=symbol)
        except ValueError:
            rejected += 1
            continue
        accepted += 1
        out = parse_cif(serialize_cif(s))
        assert out.ok and out.defects == (), (label, symbol)
        got = out.structure
        assert got.labels == (label,), (label, symbol)
        assert got.space_group_symbol == symbol, (label, symbol)
        assert structures_close(s, got, tol=1e-9)
    assert accepted > 300 and rejected > 300, (accepted, rejected)


def test_parse_is_pure(minimal_cif):
    a = parse_cif(minimal_cif)
    b = parse_cif(minimal_cif)
    assert a.defects == b.defects
    assert structures_close(a.structure, b.structure, tol=0.0)


def test_fuzz_never_raises():
    rng = np.random.default_rng(99)
    base = MINIMAL_CIF
    for k in range(3000):
        mode = k % 3
        if mode == 0:
            raw = bytes(rng.integers(0, 256, size=int(rng.integers(0, 200))))
            parse_cif(raw)
        elif mode == 1:
            chars = list(base)
            for _ in range(int(rng.integers(1, 8))):
                pos = int(rng.integers(len(chars)))
                chars[pos] = chr(int(rng.integers(32, 127)))
            parse_cif("".join(chars))
        else:
            cut = int(rng.integers(len(base)))
            parse_cif(base[cut:] + base[:cut])


# ---------------------------------------------------------------------------
# fast paths read exactly what the general rules read


def regex_reading(line: str) -> tuple[list[str], list[int], list[int], list]:
    """`_tokenize([line], defects)` spelled out with `_TOKEN_RE.findall` only."""
    texts, reserved, defects = [], [], []
    for quoted, word, bare, stop in _TOKEN_RE.findall(line):
        if word:
            reserved.append(len(texts))
        if quoted:
            texts.append(quoted[1:-1])
        elif word or bare:
            texts.append(word or bare)
        elif stop != "#":
            defects.append((DefectCode.SYNTAX, 1))
    return texts, [1] * len(texts), reserved, defects


HAZARD_LINES = [
    "Cu\x1f1 Cu 0 0 0", "a\x1fb", "\x1f_x\x1fy", "Cu\xa01 Cu 0 0 0", "\xa0.5 0.5",
    "a\u3000b c", "a\u2007b c", "_x\u3000loop_ y",
    "Cu1 Cu _x 0 0", "a loop_x b", "a LOOP_ b", "a dAtA_y b", "a;b c", "loop_",
    "loop_ _a _b", "_a\t_b\tdata_c\t", "\tCu1\t\tCu 0\t", "", " \t ",
    # lines as `str.splitlines` cuts them at CR LF and CR
    *"Cu1 Cu 0 0 0\r\n_cell_length_a 4\rloop_\r\n".splitlines(),
]


def test_plain_lines_tokenize_as_the_regex_does():
    lines = [
        line
        for text in parse_corpus()
        for line in text.splitlines()
        if not line.startswith(";")  # text fields do not split
    ]
    assert len(lines) > 10000
    for line in lines + HAZARD_LINES:
        defects = []
        got = _tokenize([line], defects)
        assert (*got, [(d.code, d.line) for d in defects]) == regex_reading(line), line


def test_text_field_after_plain_rows():
    lines = "Cu1 Cu 0 0 0\nO1 O .5 .5 .5\n;\n a b \n;\n_tag x\n".splitlines()
    defects = []
    assert _tokenize(lines, defects) == (
        ["Cu1", "Cu", "0", "0", "0", "O1", "O", ".5", ".5", ".5", "a b", "_tag", "x"],
        [1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 6, 6],
        [11],
    )
    assert defects == []


@pytest.mark.parametrize(
    "odd", ["1_0", "nan", "inf", "1e999", "0.5(3)", "1D-1", "\xa0.5", "-0.0", "x"]
)
def test_number_column_equals_parse_number(odd):
    def hexes(values):
        return [None if v is None else v.hex() for v in values]

    clean = ["0.25", "-0.0", "1", ".5", "-3e-2", "\xa0.5", "0.000000001"]
    for column in (clean, [*clean, odd], [odd, *clean], [odd]):
        values, numeric = _number_column(tuple(column))
        expected = [parse_number(v) for v in column]
        assert hexes(values) == hexes(expected), column
        assert numeric == (None not in expected)


@pytest.mark.parametrize(
    "row, in_window", [("Cu1 Cu x 1.5 0", False), ("Cu1 Cu x -0.5 1.4999", True)]
)
def test_window_ignores_unread_coordinates(minimal_cif, row, in_window):
    out = parse_cif(edit(minimal_cif, "Cu1 Cu 0.0 0.0 0.0", row))
    assert out.has(DefectCode.BAD_NUMBER) and not out.ok
    assert out.coords_in_window is in_window


SITE_HEADER = MINIMAL_CIF[: MINIMAL_CIF.index("Cu1 Cu")]  # 15 lines, through the tags
NO_LABEL_HEADER = SITE_HEADER.replace("_atom_site_label\n", "")  # 14 lines


@pytest.mark.parametrize(
    "text, defects, labels",
    [
        (
            SITE_HEADER + "Cu1 Cu 0 0 0\nO1 O .5 .5 .5\nCu1 Cu .25 .25 .25\n",
            [("DUPLICATE_LABEL", "duplicate site label 'Cu1'", 17)],
            ("Cu1", "O1", "Cu1"),
        ),
        (
            SITE_HEADER + "Cu1 Cu 0 0 0\nO1 O .5 .5 .5\nCu1 Cu .25 .25 .25\n"
            "'' O .1 .1 .1\nX1 Xx .2 .2 .2\n",
            [
                ("DUPLICATE_LABEL", "duplicate site label 'Cu1'", 17),
                ("SYNTAX", "empty site label", 18),
                ("UNKNOWN_ELEMENT", "no element recognized in 'X1'", 19),
            ],
            None,
        ),
        (
            NO_LABEL_HEADER + "Cu 0 0 0\nO .5 .5 .5\nXx .2 .2 .2\nCu .25 x .25\n",
            [
                ("UNKNOWN_ELEMENT", "no element recognized in 'Xx'", 16),
                ("BAD_NUMBER", "_atom_site_fract_y value 'x' is not numeric", 17),
            ],
            None,
        ),
        (NO_LABEL_HEADER + "Cu 0 0 0\nO .5 .5 .5\nCu .25 .25 .25\n", [], ("Cu1", "O1", "Cu2")),
    ],
    ids=["duplicate", "duplicate-empty-unknown", "no-label-column", "no-label-clean"],
)
def test_row_defects(text, defects, labels):
    out = parse_cif(text)
    assert [(d.code.value, d.message, d.line) for d in out.defects] == defects
    assert (out.structure and out.structure.labels) == labels
