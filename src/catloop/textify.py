"""Structure-to-text conversion for adsorption systems.

An adsorption system is a slab structure plus sidecar metadata naming which
sites are the adsorbate and which belong to the top surface layer.  The
textual form has three parts joined by a separator token:

1. adsorbate part - element symbols of the adsorbate sites,
2. surface part   - reduced catalyst formula plus the Miller index,
3. configuration part - the contact map: primary interaction atoms (surface
   atoms bonded to the adsorbate) and secondary ones (top-layer surface
   atoms bonded to a primary atom).

Bonding uses the covalent-radius neighbor criterion from `geometry`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .cif import Structure
from .elements import check_composition, whole_number
from .geometry import DEFAULT_NEIGHBOR_SCALE, build_neighbor_list

DEFAULT_SEPARATOR = "</s>"


def _integers(values: object, what: str) -> tuple[int, ...]:
    """`values` as a tuple of plain ints; a bool, float or string is a ValueError."""
    values = tuple(values)
    for v in values:
        if not whole_number(v):
            raise ValueError(f"{what} must be integers, got {v!r}")
    return tuple(map(int, values))


@dataclass(frozen=True)
class SystemMetadata:
    """Sidecar facts about a slab that a bare CIF cannot carry."""

    adsorbate_indices: frozenset[int]
    surface_top_indices: frozenset[int]
    catalyst_composition: dict[str, int]
    miller_index: tuple[int, int, int]

    def __post_init__(self) -> None:
        for name in ("adsorbate_indices", "surface_top_indices"):
            indices = _integers(getattr(self, name), "site indices")
            object.__setattr__(self, name, frozenset(indices))
        object.__setattr__(
            self, "miller_index", _integers(self.miller_index, "miller index")
        )
        if any(i < 0 for i in self.adsorbate_indices | self.surface_top_indices):
            raise ValueError("site indices must be non-negative")
        if self.adsorbate_indices & self.surface_top_indices:
            raise ValueError("adsorbate and surface_top site sets must be disjoint")
        if len(self.miller_index) != 3 or self.miller_index == (0, 0, 0):
            raise ValueError("miller index must be three integers, not all zero")
        counts = check_composition(self.catalyst_composition, "catalyst composition")
        object.__setattr__(self, "catalyst_composition", counts)
        if not self.catalyst_composition:
            raise ValueError("catalyst composition must be non-empty")
        for el, cnt in self.catalyst_composition.items():
            if cnt <= 0:
                raise ValueError(f"catalyst count for {el!r} must be positive")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SystemMetadata":
        try:
            return cls(
                adsorbate_indices=obj["adsorbate"],
                surface_top_indices=obj["surface_top"],
                catalyst_composition=obj["catalyst_composition"],
                miller_index=obj["miller"],
            )
        except KeyError as exc:
            raise ValueError(f"metadata missing key {exc.args[0]!r}") from None
        except TypeError as exc:
            raise ValueError(f"malformed metadata: {exc}") from None

    def to_json_dict(self) -> dict:
        return {
            "adsorbate": sorted(self.adsorbate_indices),
            "surface_top": sorted(self.surface_top_indices),
            "catalyst_composition": dict(sorted(self.catalyst_composition.items())),
            "miller": list(self.miller_index),
        }


@dataclass(frozen=True)
class SystemText:
    """The three text parts and their joined form."""

    adsorbate_part: str
    surface_part: str
    configuration_part: str
    separator: str = DEFAULT_SEPARATOR

    @property
    def joined(self) -> str:
        return self.separator.join(
            (self.adsorbate_part, self.surface_part, self.configuration_part)
        )


def _hill_key(symbol: str) -> tuple[int, str]:
    # carbon first, hydrogen second, the rest alphabetical
    if symbol == "C":
        return (0, symbol)
    if symbol == "H":
        return (1, symbol)
    return (2, symbol)


def hill_sorted(symbols: list[str]) -> list[str]:
    """Sort element symbols with C first, H second, others alphabetical."""
    return sorted(symbols, key=_hill_key)


def reduced_formula(composition: Mapping[str, int]) -> str:
    """Alphabetical formula with counts divided by their gcd; 1s omitted.

    {"Cu": 12} -> "Cu", {"Cu": 12, "O": 6} -> "Cu2O".
    """
    if not composition:
        raise ValueError("composition must be non-empty")
    counts = {el: int(n) for el, n in composition.items()}
    if any(n <= 0 for n in counts.values()):
        raise ValueError("composition counts must be positive")
    g = math.gcd(*counts.values())
    parts = []
    for el in sorted(counts):
        n = counts[el] // g
        parts.append(el if n == 1 else f"{el}{n}")
    return "".join(parts)


def _check_indices(structure: Structure, meta: SystemMetadata) -> None:
    n = len(structure)
    for i in meta.adsorbate_indices | meta.surface_top_indices:
        if i >= n:
            raise ValueError(f"site index {i} out of range for {n} sites")
    if not meta.adsorbate_indices:
        raise ValueError("system has no adsorbate sites")


def find_interaction_atoms(
    structure: Structure,
    meta: SystemMetadata,
    scale: float = DEFAULT_NEIGHBOR_SCALE,
) -> tuple[list[int], list[int]]:
    """Primary and secondary interaction sites, each sorted ascending.

    Primary: non-adsorbate sites bonded to any adsorbate site.  Secondary:
    top-layer surface sites bonded to a primary site, excluding adsorbate
    and primary sites themselves.
    """
    _check_indices(structure, meta)
    t = build_neighbor_list(structure, scale)

    def bonded_to(sites: set[int] | frozenset[int]) -> set[int]:
        return set(t.j[np.isin(t.i, list(sites))].tolist())

    ads = meta.adsorbate_indices
    primary = bonded_to(ads) - ads
    secondary = (bonded_to(primary) & meta.surface_top_indices) - ads - primary
    return sorted(primary), sorted(secondary)


def to_system_text(
    structure: Structure,
    meta: SystemMetadata,
    scale: float = DEFAULT_NEIGHBOR_SCALE,
    separator: str = DEFAULT_SEPARATOR,
) -> SystemText:
    """Deterministic three-part text for one adsorption system."""
    _check_indices(structure, meta)
    ads_symbols = hill_sorted(
        [structure.elements[i] for i in sorted(meta.adsorbate_indices)]
    )
    adsorbate_part = " ".join(ads_symbols)

    h, k, l = meta.miller_index
    surface_part = f"{reduced_formula(meta.catalyst_composition)} ({h} {k} {l})"

    primary, secondary = find_interaction_atoms(structure, meta, scale)
    if not primary:
        configuration_part = "no direct contact"
    else:
        fmt = lambda i: f"{structure.elements[i]}@{structure.labels[i]}"
        prim = ", ".join(sorted(fmt(i) for i in primary))
        if secondary:
            sec = ", ".join(sorted(fmt(i) for i in secondary))
        else:
            sec = "none"
        configuration_part = f"primary: {prim}; secondary: {sec}"
    return SystemText(adsorbate_part, surface_part, configuration_part, separator)
