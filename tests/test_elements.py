"""Element table sanity and the shared value rules."""

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
import pytest

from catloop.elements import (
    ATOMIC_NUMBERS,
    COVALENT_RADII,
    SYMBOLS,
    check_composition,
    finite_number,
    is_element,
    normalize_symbol,
    store_floats,
    whole_number,
)
from conftest import BAD_COMPOSITIONS


def test_full_periodic_table():
    assert len(SYMBOLS) == 118
    assert SYMBOLS[0] == "H"
    assert SYMBOLS[25] == "Fe"
    assert SYMBOLS[-1] == "Og"
    assert ATOMIC_NUMBERS["H"] == 1
    assert ATOMIC_NUMBERS["Cu"] == 29
    assert ATOMIC_NUMBERS["Og"] == 118


def test_radii_reference_values():
    # anchor values used by worked examples elsewhere in the suite
    assert COVALENT_RADII["Cu"] == 1.32
    assert COVALENT_RADII["H"] == 0.31
    assert COVALENT_RADII["O"] == 0.66


def test_radii_bounds():
    for sym, r in COVALENT_RADII.items():
        assert 0.2 < r < 3.0, sym


def test_is_element():
    assert is_element("Cu")
    assert not is_element("cu")
    assert not is_element("Xx")
    assert not is_element("")


def test_normalize_symbol():
    assert normalize_symbol("Cu") == "Cu"
    assert normalize_symbol("Cu2+") == "Cu"
    assert normalize_symbol("CU") == "Cu"
    assert normalize_symbol("cu1") == "Cu"
    assert normalize_symbol("O2-") == "O"
    assert normalize_symbol("Oads") == "O"
    assert normalize_symbol("Hf1") == "Hf"
    assert normalize_symbol("H12") == "H"
    assert normalize_symbol("Xx") is None
    assert normalize_symbol("123") is None
    assert normalize_symbol("") is None


def test_number_rules():
    for v in (0, -3, 2.5, np.float32(0.5), np.int64(7), 10**300):
        assert finite_number(v), v
    # an int past the float range would overflow every float consumer
    for v in (True, False, "1", None, [1.0], float("nan"), float("inf"), 10**400):
        assert not finite_number(v), v
    for v in (0, -3, 10**400, np.int64(7), np.uint8(3)):
        assert whole_number(v), v
    for v in (True, False, np.bool_(True), 1.0, np.float64(2.0), "1", None):
        assert not whole_number(v), v


@dataclass(frozen=True)
class Settings:
    scale: float
    count: int
    name: str = "x"

    def __post_init__(self) -> None:
        store_floats(self)


def test_store_floats_converts_only_float_fields():
    for scale in (2, np.int64(2), np.float32(2.0), 2.0):
        settings = Settings(scale, np.int64(3))
        assert type(settings.scale) is float and settings.scale == 2.0
        assert type(settings.count) is np.int64 and settings.name == "x"


def test_check_composition_takes_numpy_counts_and_any_mapping():
    counts = {"Cu": np.int64(4), "O": np.int32(2)}
    for mapping in (counts, MappingProxyType(counts)):
        out = check_composition(mapping, "here")
        assert out == {"Cu": 4, "O": 2}
        assert type(out) is dict and all(type(n) is int for n in out.values())


@pytest.mark.parametrize(
    "composition",
    [*BAD_COMPOSITIONS.values(), {"Cu": -1}, {"Cu": "4"}, ["Cu"], None],
)
def test_check_composition_rejects(composition):
    with pytest.raises(ValueError, match="^here: "):
        check_composition(composition, "here")
