"""Periodic-table symbols and covalent radii.

Radii are single-bond covalent radii in angstroms: Cordero-style values for
H through Cm, extended with Pyykko single-bond radii for Bk through Og so
that every element up to Z=118 has an entry.  For carbon the sp3 value is
used.  All radii lie in (0.2, 3.0).  Also the one home of the rules for
values read from outside (configs, sidecars, records): `finite_number`,
`store_floats`, `whole_number` and `check_composition`.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import Mapping

# Keyed by symbol, ordered by atomic number.
COVALENT_RADII: dict[str, float] = {
    "H": 0.31, "He": 0.28,
    "Li": 1.28, "Be": 0.96, "B": 0.84, "C": 0.76, "N": 0.71, "O": 0.66,
    "F": 0.57, "Ne": 0.58,
    "Na": 1.66, "Mg": 1.41, "Al": 1.21, "Si": 1.11, "P": 1.07, "S": 1.05,
    "Cl": 1.02, "Ar": 1.06,
    "K": 2.03, "Ca": 1.76, "Sc": 1.70, "Ti": 1.60, "V": 1.53, "Cr": 1.39,
    "Mn": 1.61, "Fe": 1.52, "Co": 1.50, "Ni": 1.24, "Cu": 1.32, "Zn": 1.22,
    "Ga": 1.22, "Ge": 1.20, "As": 1.19, "Se": 1.20, "Br": 1.20, "Kr": 1.16,
    "Rb": 2.20, "Sr": 1.95, "Y": 1.90, "Zr": 1.75, "Nb": 1.64, "Mo": 1.54,
    "Tc": 1.47, "Ru": 1.46, "Rh": 1.42, "Pd": 1.39, "Ag": 1.45, "Cd": 1.44,
    "In": 1.42, "Sn": 1.39, "Sb": 1.39, "Te": 1.38, "I": 1.39, "Xe": 1.40,
    "Cs": 2.44, "Ba": 2.15,
    "La": 2.07, "Ce": 2.04, "Pr": 2.03, "Nd": 2.01, "Pm": 1.99, "Sm": 1.98,
    "Eu": 1.98, "Gd": 1.96, "Tb": 1.94, "Dy": 1.92, "Ho": 1.92, "Er": 1.89,
    "Tm": 1.90, "Yb": 1.87, "Lu": 1.87,
    "Hf": 1.75, "Ta": 1.70, "W": 1.62, "Re": 1.51, "Os": 1.44, "Ir": 1.41,
    "Pt": 1.36, "Au": 1.36, "Hg": 1.32,
    "Tl": 1.45, "Pb": 1.46, "Bi": 1.48, "Po": 1.40, "At": 1.50, "Rn": 1.50,
    "Fr": 2.60, "Ra": 2.21,
    "Ac": 2.15, "Th": 2.06, "Pa": 2.00, "U": 1.96, "Np": 1.90, "Pu": 1.87,
    "Am": 1.80, "Cm": 1.69,
    "Bk": 1.68, "Cf": 1.68, "Es": 1.65, "Fm": 1.67, "Md": 1.73, "No": 1.76,
    "Lr": 1.61,
    "Rf": 1.57, "Db": 1.49, "Sg": 1.43, "Bh": 1.41, "Hs": 1.34, "Mt": 1.29,
    "Ds": 1.28, "Rg": 1.21, "Cn": 1.22,
    "Nh": 1.36, "Fl": 1.43, "Mc": 1.62, "Lv": 1.75, "Ts": 1.65, "Og": 1.57,
}

SYMBOLS: tuple[str, ...] = tuple(COVALENT_RADII)

ATOMIC_NUMBERS: dict[str, int] = {sym: z for z, sym in enumerate(SYMBOLS, start=1)}


def is_element(symbol: str) -> bool:
    """Return True if `symbol` is a recognized element symbol (case-sensitive)."""
    return symbol in COVALENT_RADII


def finite_number(value: object) -> bool:
    """True for a finite real number that is not a bool (JSON true/false)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float; consumers compute in floats
        return False


def store_floats(config: object) -> None:
    """Store each `float` field of the frozen dataclass `config` as a plain
    float, once the fields have passed `finite_number`: a setting typed as
    an int or a numpy scalar is then recorded as the float it stands for."""
    for f in dataclasses.fields(config):
        if f.type in ("float", float):
            object.__setattr__(config, f.name, float(getattr(config, f.name)))


def whole_number(value: object) -> bool:
    """True for an integer that is not a bool; numpy integers pass."""
    # plain ints skip the ten-times slower ABC check; `Structure` calls
    # this on each construction with a space-group number
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def check_composition(mapping: object, where: str) -> dict[str, int]:
    """Any mapping of known elements to `whole_number` counts >= 0, as plain
    ints; else ValueError prefixed by `where`."""
    if not isinstance(mapping, Mapping):
        raise ValueError(f"{where}: expected element counts, got {mapping!r}")
    counts = {}
    for el, count in mapping.items():
        if not is_element(el):
            raise ValueError(f"{where}: unknown element {el!r}")
        if not (whole_number(count) and count >= 0):
            raise ValueError(f"{where}: count {count!r} for {el!r} is not an int >= 0")
        counts[el] = int(count)
    return counts


def normalize_symbol(token: str) -> str | None:
    """Extract an element symbol from a CIF type-symbol or site-label token.

    Takes the leading alphabetic run of `token` (so "Cu2+" -> "Cu",
    "O2-" -> "O", "Fe3" -> "Fe") and matches it against the symbol table,
    preferring the longest match and normalizing case.  Returns None when no
    element matches.
    """
    if token in COVALENT_RADII:  # already a symbol: its own longest match
        return token
    run = []
    for ch in token:
        if ch.isalpha():
            run.append(ch)
        else:
            break
    prefix = "".join(run)
    if not prefix:
        return None
    for cand in (prefix.capitalize(), prefix[:2].capitalize(), prefix[:1].upper()):
        if cand in COVALENT_RADII:
            return cand
    return None
