"""Periodic-boundary geometry: minimum-image distances and neighbor lists.

All routines treat the cell as fully periodic and work for arbitrary (also
strongly skewed) cells.  Distances are in angstroms.

Every distance comes from one kernel, `_pair_table`, which finds all
upper-triangle site pairs within a cutoff over the lattice offsets that can
reach it and memoizes the table on the structure at the largest cutoff asked
for so far; smaller cutoffs, scalar or per pair, filter it.  The slab bound
(`_slab_spacings`) sizes the offset grid once per structure and then, per
pair and axis, skips every image it rules out, so only images that can lie
within the cutoff are measured.  A cell below `DEGENERATE_VOLUME`, or
needing more than `MAX_IMAGES` offsets for a cutoff, raises
`DegenerateCellError`.  Pairs and neighbor lists come back as a `PairTable`,
one array per column and one row per pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cif import Structure
from .elements import COVALENT_RADII

DEGENERATE_VOLUME = 1e-6  # cubic angstroms
DEFAULT_NEIGHBOR_SCALE = 1.2
MAX_IMAGES = 100_000  # lattice offsets one enumeration may lay out
_BLOCK_ROWS = 1 << 16  # cells of one block's (pairs x images) mask
_BOUND_SLACK = 1e-9  # keeps a bound's own image despite rounding


class DegenerateCellError(ValueError):
    """Raised when a cell is too small for distance work."""


def _check_cell(structure: Structure) -> np.ndarray:
    matrix = structure.lattice.matrix
    if abs(float(np.linalg.det(matrix))) < DEGENERATE_VOLUME:
        raise DegenerateCellError(
            f"cell volume below {DEGENERATE_VOLUME} cubic angstroms"
        )
    return matrix


def _slab_spacings(matrix: np.ndarray) -> np.ndarray:
    """Perpendicular spacing between lattice planes along each cell axis.

    A displacement with fractional component f_k along axis k has cartesian
    length >= |f_k| * spacing_k, which is what bounds the image search.
    """
    inv = np.linalg.inv(matrix)
    return 1.0 / np.linalg.norm(inv, axis=0)


@dataclass(frozen=True, eq=False)  # an array == array has no single truth value
class PairTable:
    """Periodic pairs as columns, one row per pair.

    Row k: site i[k] sees the image of site j[k] shifted by the lattice
    offset image[k], at distance[k].
    """

    i: np.ndarray  # (K,) site indices
    j: np.ndarray
    image: np.ndarray  # (K, 3) integer lattice offsets
    distance: np.ndarray  # (K,) angstroms

    def __len__(self) -> int:
        return len(self.distance)


_EMPTY = PairTable(
    np.empty(0, int), np.empty(0, int), np.empty((0, 3), int), np.empty(0)
)


def _pair_table(structure: Structure, cutoff: float) -> PairTable:
    """Every periodic pair within `cutoff` or a larger memoized cutoff.

    Ordered as in `iter_periodic_pairs`; memoized like `Lattice.matrix`,
    beside the cutoff it was built for.
    """
    memo_cutoff, memo = structure.__dict__.get("_pair_table", (-np.inf, None))
    if cutoff <= memo_cutoff:
        return memo
    matrix = _check_cell(structure)
    spacings = _slab_spacings(matrix)
    reach = np.ceil(cutoff / spacings + 0.5)
    n_images = float(np.prod(2.0 * reach + 1.0))
    if not n_images <= MAX_IMAGES:  # also catches a NaN cutoff
        raise DegenerateCellError(
            f"{n_images:.4g} lattice images within {cutoff:.4g} A (limit {MAX_IMAGES})"
        )
    reach = reach.astype(int)
    offsets = np.indices(2 * reach + 1).reshape(3, -1).T - reach
    axes = [np.arange(-r, r + 1) for r in reach]
    g = len(offsets)
    # a pair or image whose fractional displacement exceeds this on any axis
    # lies beyond the cutoff (`_slab_spacings`), so it is never measured
    bound = cutoff / spacings * (1.0 + _BOUND_SLACK)
    frac = structure.frac_coords()
    pi, pj = np.triu_indices(len(frac))
    step = max(1, _BLOCK_ROWS // g)
    parts = []
    for start in range(0, len(pi), step):
        bi, bj = pi[start : start + step], pj[start : start + step]
        delta = frac[bj] - frac[bi]
        near = np.all(np.abs(delta - np.round(delta)) <= bound, axis=1)
        bi, bj, delta = bi[near], bj[near], delta[near]
        ax = [np.abs(d[:, None] + a) <= b for d, a, b in zip(delta.T, axes, bound)]
        hit = ax[0][:, :, None, None] & ax[1][:, None, :, None]
        hit = (hit & ax[2][:, None, None, :]).reshape(len(bi), g)
        hit[bi == bj, : g // 2 + 1] = False  # the zero offset sits at g // 2
        p, k = np.nonzero(hit)
        # (delta + offset) @ matrix, not delta @ M + offset @ M: the two round
        # differently, and a distance must not depend on the cutoff asked for.
        dist = np.linalg.norm((delta[p] + offsets[k]) @ matrix, axis=1)
        keep = dist <= cutoff
        p, k = p[keep], k[keep]
        parts.append((bi[p], bj[p], offsets[k], dist[keep]))
    table = PairTable(*(np.concatenate(c) for c in zip(*parts)))
    structure.__dict__["_pair_table"] = (cutoff, table)
    return table


def min_image_distance(structure: Structure, i: int, j: int) -> float:
    """Shortest distance between site i and any periodic image of site j.

    For i == j this is the shortest nonzero lattice translation, bounded by
    the shortest lattice row.  For i != j the wrapped image bounds it; in a
    long, thin cell that can lie beyond the shortest lattice row.
    """
    matrix = _check_cell(structure)
    n = len(structure.sites)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"site index out of range for {n} sites")
    if i == j:
        bound = float(np.min(np.linalg.norm(matrix, axis=1)))
    else:
        delta = np.subtract(structure.sites[j].frac, structure.sites[i].frac)
        delta -= np.round(delta)
        bound = float(np.linalg.norm(delta @ matrix))
    table = _pair_table(structure, bound * (1.0 + _BOUND_SLACK))
    pair = (table.i == min(i, j)) & (table.j == max(i, j))
    return float(np.min(table.distance[pair]))


def min_pair_distance(structure: Structure) -> float:
    """Smallest periodic distance over all site pairs, including self-images."""
    # Any non-empty table holds the minimum; the shortest lattice row is a
    # self-image distance, so a table at that cutoff is never empty.
    _, table = structure.__dict__.get("_pair_table", (None, None))
    if table is None or not len(table):
        bound = float(np.min(np.linalg.norm(_check_cell(structure), axis=1)))
        table = _pair_table(structure, bound * (1.0 + _BOUND_SLACK))
    return float(np.min(table.distance))


def volume_per_atom(structure: Structure) -> float:
    """Cell volume divided by the number of sites, in cubic angstroms."""
    return structure.lattice.volume / len(structure.sites)


def iter_periodic_pairs(
    structure: Structure, cutoff: float | np.ndarray
) -> PairTable:
    """All periodic pairs (i, j, image, distance) within a cutoff.

    `cutoff` is either a scalar or an (N, N) per-pair matrix; a pair whose
    cutoff is <= 0 is skipped.  Each physical pair appears once: i < j with
    any image, or i == j with a lexicographically positive image, in
    row-major (i, j) order with images in lexicographic order.  The
    zero-offset self pair is never included.
    """
    n = len(structure.sites)
    cut = np.asarray(cutoff, dtype=float)
    if cut.ndim != 0 and cut.shape != (n, n):
        raise ValueError(f"cutoff matrix must be ({n}, {n})")
    cut_max = float(np.max(cut))
    if cut_max <= 0.0:
        _check_cell(structure)
        return _EMPTY
    table = _pair_table(structure, cut_max)
    pair_cut = cut if cut.ndim == 0 else cut[table.i, table.j]
    keep = (table.distance <= pair_cut) & (pair_cut > 0.0)
    return PairTable(
        table.i[keep], table.j[keep], table.image[keep], table.distance[keep]
    )


def build_neighbor_list(
    structure: Structure, scale: float = DEFAULT_NEIGHBOR_SCALE
) -> PairTable:
    """Directed neighbors within scale * (r_i + r_j) of each site, across images.

    Rows are sorted by (i, j, image).  The result is symmetric by
    construction: for every row (i, j, image) the mirrored row
    (j, i, -image) is present too.
    """
    if scale <= 0.0:
        return _EMPTY
    r = np.array([COVALENT_RADII[s.element] for s in structure.sites], dtype=float)
    t = iter_periodic_pairs(structure, scale * (r[:, None] + r[None, :]))
    i = np.concatenate((t.i, t.j))
    j = np.concatenate((t.j, t.i))
    image = np.concatenate((t.image, -t.image))
    order = np.lexsort((image[:, 2], image[:, 1], image[:, 0], j, i))
    return PairTable(i[order], j[order], image[order], np.tile(t.distance, 2)[order])
