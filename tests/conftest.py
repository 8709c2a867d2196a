"""Shared builders for the test suite."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from catloop import geometry
from catloop.cif import Lattice, Structure
from catloop.elements import SYMBOLS
from catloop.textify import SystemMetadata

# one line per acceptance criterion, echoed at the end of the pytest run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def kernel_passes(monkeypatch):
    """Every pair-kernel pass the test makes, in order, as (members, cutoffs,
    offset reach)."""
    passes = []
    flat_pass = geometry._flat_pass

    def record(structures, cutoffs, matrices, bound, reach):
        passes.append((list(structures), list(cutoffs), reach))
        return flat_pass(structures, cutoffs, matrices, bound, reach)

    monkeypatch.setattr(geometry, "_flat_pass", record)
    return passes


@pytest.fixture
def measured_images(monkeypatch):
    """The images each pair-kernel pass measures, one count per pass, in order.

    A pass measures an image as one row of its per-member `np.matmul`, so
    the count is the rows those products take: a work count that timing
    noise cannot move.
    """
    counts = []
    flat_pass = geometry._flat_pass

    def record(*args):
        counts.append(0)
        return flat_pass(*args)

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def matmul(a, b, **kwargs):
            counts[-1] += len(a)
            return np.matmul(a, b, **kwargs)

    monkeypatch.setattr(geometry, "_flat_pass", record)
    monkeypatch.setattr(geometry, "np", CountingNumpy())
    return counts


@pytest.fixture
def traced_peak():
    """`peak(call)`: the `tracemalloc` peak of `call()` above what was already
    allocated, in MiB.

    numpy reports its array buffers to `tracemalloc`, so this counts them.
    It traces this test process only and sets no limit.
    """

    def peak(call) -> float:
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            return (tracemalloc.get_traced_memory()[1] - before) / 2**20
        finally:
            if not tracing:
                tracemalloc.stop()

    return peak


def make_structure(
    species,
    coords,
    lengths=(4.0, 4.0, 4.0),
    angles=(90.0, 90.0, 90.0),
    space_group="P 1",
    space_group_number=None,
):
    """Compact structure builder used across the tests."""
    lattice = Lattice(*lengths, *angles)
    counts: dict[str, int] = {}
    labels = []
    for el in species:
        counts[el] = counts.get(el, 0) + 1
        labels.append(f"{el}{counts[el]}")
    return Structure(
        lattice=lattice,
        labels=tuple(labels),
        elements=tuple(species),
        frac=coords,
        space_group_symbol=space_group,
        space_group_number=space_group_number,
    )


def brute_force_pairs(structure, cutoff, box=9):
    """Pairs within `cutoff` by a scan of the fixed {-box..box}^3 offset block.

    Listed in kernel order: (i, j) row-major with i <= j, offsets in
    lexicographic order, self pairs only at lexicographically positive
    offsets, pairs with a cutoff <= 0 skipped.
    """
    n = len(structure)
    cut = np.broadcast_to(np.asarray(cutoff, dtype=float), (n, n))
    m = structure.lattice.matrix
    spacings = 1.0 / np.linalg.norm(np.linalg.inv(m), axis=0)
    # an offset beyond cutoff / spacing + 1 along any axis is out of reach
    assert np.all(np.max(cut) / spacings + 1.0 <= box)
    grid = list(itertools.product(range(-box, box + 1), repeat=3))
    offsets = np.array(grid, dtype=float)
    lex_positive = np.array([off > (0, 0, 0) for off in grid])
    frac = structure.frac
    pairs = []
    for i in range(n):
        for j in range(i, n):
            if cut[i, j] <= 0.0:
                continue
            dists = np.linalg.norm((frac[j] - frac[i] + offsets) @ m, axis=1)
            keep = dists <= cut[i, j]
            if i == j:
                keep &= lex_positive
            pairs.extend((i, j, grid[k], float(dists[k])) for k in np.flatnonzero(keep))
    return pairs


def pair_tuples(table):
    """A `PairTable`'s rows as (i, j, image, distance) tuples, in row order."""
    columns = (table.i.tolist(), table.j.tolist(), table.image.tolist())
    return [
        (i, j, tuple(image), dist)
        for i, j, image, dist in zip(*columns, table.distance.tolist())
    ]


def random_lattice_params(rng: np.random.Generator):
    """Random cell parameters with a non-degenerate volume factor."""
    while True:
        lengths = rng.uniform(2.5, 12.0, size=3)
        angles = rng.uniform(50.0, 130.0, size=3)
        ca, cb, cg = np.cos(np.radians(angles))
        vfac = 1.0 - ca * ca - cb * cb - cg * cg + 2.0 * ca * cb * cg
        if vfac > 0.1:  # keep the cell usable for distance work
            return tuple(lengths), tuple(angles)


def random_structure(rng: np.random.Generator, max_sites: int = 8) -> Structure:
    """Random structure over the full element table, any cell shape."""
    n = int(rng.integers(1, max_sites + 1))
    species = [SYMBOLS[int(z)] for z in rng.integers(0, len(SYMBOLS), size=n)]
    coords = rng.random((n, 3))
    lengths, angles = random_lattice_params(rng)
    sg_mode = int(rng.integers(3))
    return make_structure(
        species,
        coords,
        lengths=lengths,
        angles=angles,
        space_group=None if sg_mode == 0 else "P 1",
        space_group_number=1 if sg_mode == 2 else None,
    )


@pytest.fixture
def cu_slab():
    """A small Cu(100)-style slab with one H adsorbate.

    Layout (orthorhombic 5.1 x 5.1 x 12.0 A):
      sites 0-3: top-layer Cu, a 2x2 square grid at z = 6.0 A
      sites 4-7: subsurface Cu directly below at z = 4.2 A
      site 8:    H at 1.4 A above site 0

    With the default 1.2 covalent-radius scale, H bonds only to site 0
    (1.4 < 1.956) and the in-plane Cu-Cu spacing of 2.55 A bonds each top
    atom to its two axis neighbors (2.55 < 3.168) but not diagonals (3.61).
    """
    a = 5.1
    c = 12.0
    z_top = 6.0 / c
    z_sub = 4.2 / c
    z_h = 7.4 / c
    species = ["Cu"] * 8 + ["H"]
    coords = [
        (0.0, 0.0, z_top),
        (0.5, 0.0, z_top),
        (0.0, 0.5, z_top),
        (0.5, 0.5, z_top),
        (0.0, 0.0, z_sub),
        (0.5, 0.0, z_sub),
        (0.0, 0.5, z_sub),
        (0.5, 0.5, z_sub),
        (0.0, 0.0, z_h),
    ]
    structure = make_structure(species, coords, lengths=(a, a, c))
    meta = SystemMetadata(
        adsorbate_indices=frozenset({8}),
        surface_top_indices=frozenset({0, 1, 2, 3}),
        catalyst_composition={"Cu": 8},
        miller_index=(1, 0, 0),
    )
    expected = {
        "primary": [0],
        "secondary": [1, 2],
        "configuration_part": "primary: Cu@Cu1; secondary: Cu@Cu2, Cu@Cu3",
    }
    return structure, meta, expected


# catalyst compositions a sidecar must not pass, by what is wrong with them
BAD_COMPOSITIONS = {
    "unknown_element": {"Xx": 2},
    "float_count": {"Cu": 8.5},
    "bool_count": {"Cu": True},
}

# (sidecar key, value) pairs a sidecar must not pass: indices and Miller
# indices are JSON integers, never coerced from strings, bools or floats
BAD_SIDECAR_INTEGERS = {
    "adsorbate_string": ("adsorbate", ["8"]),
    "adsorbate_bool": ("adsorbate", [True]),
    "adsorbate_float": ("adsorbate", [8.9]),
    "surface_top_float": ("surface_top", [0, 1.0]),
    "miller_float": ("miller", [1.7, 0, 0]),
    "miller_string": ("miller", ["1", 0, 0]),
}


MINIMAL_CIF = """\
data_test
_cell_length_a 4.0
_cell_length_b 4.0
_cell_length_c 4.0
_cell_angle_alpha 90
_cell_angle_beta 90
_cell_angle_gamma 90
_symmetry_space_group_name_H-M 'P 1'
loop_
_atom_site_label
_atom_site_type_symbol
_atom_site_fract_x
_atom_site_fract_y
_atom_site_fract_z
Cu1 Cu 0.0 0.0 0.0
"""


@pytest.fixture
def minimal_cif() -> str:
    return MINIMAL_CIF
