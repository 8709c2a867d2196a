"""Periodic-boundary geometry: minimum-image distances and neighbor lists.

All routines treat the cell as fully periodic and work for arbitrary (also
strongly skewed) cells.  Distances are in angstroms.

Every distance comes from one kernel, `_build_tables`, reached through
`_pair_table`.  It finds all upper-triangle site pairs within a cutoff over
the lattice offsets that can reach it and memoizes the table on the
structure at the largest cutoff asked for so far; smaller cutoffs, scalar
or per pair, filter it.  The slab bound (`_slab_spacings`) sizes the offset
grid and then, per pair and axis, skips every image it rules out, so only
images that can lie within the cutoff are measured.  A cell below
`DEGENERATE_VOLUME`, or needing more than `MAX_IMAGES` offsets for a
cutoff, raises `DegenerateCellError`.  Before any image mask, the bound
drops every site pair that has no image within it on some axis.  Where the
pair triangle fits one mask block (all 6-site work) that prune runs inside
the block.  A longer triangle (128 sites at a bond cutoff, 64 at 6 A, the
larger slabs) is pruned once, before any mask, one axis at a time: the
axis with the tightest bound first, each later axis only on the pairs the
earlier ones kept; when every axis bound is below 1, the self pairs go
too, since no nonzero offset is in reach.  Pairs and neighbor lists come
back as a `PairTable`, one array per column and one row per pair.

The kernel builds several tables in one pass: structures with the same site
count and offset reach are stacked along a leading axis, so each cell
matrix and slab bound broadcasts over its own pairs.  The rows the masks
keep are measured in one step for the whole block, with one 2D product per
structure, and each structure's rows are a read-only slice of the block's
columns.  A structure asked about alone is a batch of one and skips that
bookkeeping.  Inside `shared_pair_pass`, the first miss of
a member builds that cutoff for every same-size member without a table, so
distinct sizes cost what lone calls cost.  The search (per generation) and
every CIF command (per chunk of 64 files) score through
`reward._score_in_chunks`, which opens one such pass per chunk.
Every table is bit-identical to the one the structure would build alone.
`covalent_pairs` alone turns covalent radii (Cordero et al., Dalton Trans.
2008) into pair cutoffs, for the physics score and the neighbor list.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .cif import Structure
from .elements import COVALENT_RADII

DEGENERATE_VOLUME = 1e-6  # cubic angstroms
DEFAULT_NEIGHBOR_SCALE = 1.2
MAX_IMAGES = 100_000  # lattice offsets one enumeration may lay out
_BLOCK_ROWS = 1 << 16  # cells of one block's (structures x pairs x images) mask
_BOUND_SLACK = 1e-9  # keeps a bound's own image despite rounding


class DegenerateCellError(ValueError):
    """Raised when a cell is too small for distance work."""


_SMALL_CELL = f"cell volume below {DEGENERATE_VOLUME} cubic angstroms"


def _covalent_radii(structure: Structure) -> np.ndarray:
    """Each site's covalent radius, in site order."""
    return np.array([COVALENT_RADII[e] for e in structure.elements])


def _check_cell(structure: Structure) -> np.ndarray:
    matrix = structure.lattice.matrix
    if abs(float(np.linalg.det(matrix))) < DEGENERATE_VOLUME:
        raise DegenerateCellError(_SMALL_CELL)
    return matrix


def _slab_spacings(matrix: np.ndarray) -> np.ndarray:
    """Perpendicular spacing between lattice planes along each cell axis.

    A displacement with fractional component f_k along axis k has cartesian
    length >= |f_k| * spacing_k, which is what bounds the image search.
    """
    inv = np.linalg.inv(matrix)  # (3, 3) or stacked (B, 3, 3)
    return 1.0 / np.sqrt((inv * inv).sum(axis=-2))


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


def _select(t: PairTable, keep: np.ndarray) -> PairTable:
    """The rows of `t` where the boolean mask `keep` is set, in order."""
    return PairTable(t.i[keep], t.j[keep], t.image[keep], t.distance[keep])


def _pair_table(structure: Structure, cutoff: float) -> PairTable:
    """Every periodic pair within `cutoff` or a larger memoized cutoff.

    Ordered as in `iter_periodic_pairs`; memoized like `Lattice.matrix`,
    beside the cutoff it was built for.  Inside `shared_pair_pass`, a miss
    also builds this cutoff for every same-size member of the group that
    has no table yet, in the same pass.
    """
    memo_cutoff, memo = structure.__dict__.get("_pair_table", (-np.inf, None))
    if cutoff <= memo_cutoff:
        return memo
    n = len(structure)
    siblings = [
        s for s in structure.__dict__.get("_pair_group", ())
        if s is not structure and len(s) == n and "_pair_table" not in s.__dict__
    ]
    _build_tables([structure, *siblings], cutoff)
    return structure.__dict__["_pair_table"][1]


@contextmanager
def shared_pair_pass(structures: Iterable[Structure]) -> Iterator[None]:
    """Group `structures` so that their pair tables are built together.

    Inside the scope, the first `_pair_table` miss of a member builds that
    cutoff for every member of its size without a table, in one stacked
    pass.  Another size needs its own pass, maybe at a larger cutoff, so it
    waits for its own miss.  The grouping is removed on exit, also on an
    exception, so no structure keeps its siblings alive.
    """
    group = tuple(structures)
    for s in group:
        s.__dict__["_pair_group"] = group
    try:
        yield
    finally:
        for s in group:
            s.__dict__.pop("_pair_group", None)


def _build_tables(structures: list[Structure], cutoff: float) -> None:
    """Build and memoize the `cutoff` tables of same-size `structures`.

    The first structure asked: a degenerate cell or a cutoff over the image
    budget raises for it.  Any other structure with a degenerate cell, or
    whose offset reach differs from the first one's, is skipped and builds
    (or raises) on its own call.  The rest share one stacked pass.
    """
    matrices = np.array([s.lattice.matrix for s in structures])
    degenerate = (np.abs(np.linalg.det(matrices)) < DEGENERATE_VOLUME).tolist()
    if degenerate[0]:
        raise DegenerateCellError(_SMALL_CELL)
    if any(degenerate):  # a singular matrix would fail `_slab_spacings`
        structures = [s for s, bad in zip(structures, degenerate) if not bad]
        matrices = matrices[np.logical_not(degenerate)]
    spacings = _slab_spacings(matrices)
    reach = np.ceil(cutoff / spacings + 0.5)
    reaches = reach.tolist()
    a, b, c = reaches[0]
    n_images = (2.0 * a + 1.0) * (2.0 * b + 1.0) * (2.0 * c + 1.0)
    if not n_images <= MAX_IMAGES:  # also catches a NaN cutoff
        raise DegenerateCellError(
            f"{n_images:.4g} lattice images within {cutoff:.4g} A (limit {MAX_IMAGES})"
        )
    # a pair or image whose fractional displacement exceeds `bound` on any
    # axis lies beyond the cutoff (`_slab_spacings`), so it is never measured
    bound = cutoff / spacings * (1.0 + _BOUND_SLACK)
    ks = [k for k, r in enumerate(reaches) if r == reaches[0]]
    rows = slice(None) if len(ks) == len(structures) else ks  # a view if all
    _stacked_pass(
        [structures[k] for k in ks], matrices[rows], bound[rows],
        (int(a), int(b), int(c)), cutoff,
    )


@lru_cache(maxsize=8)  # at most 8 x 2.4 MB at the image budget; a few KB in practice
def _offset_grid(
    reach: tuple[int, int, int],
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Lattice offsets within `reach` in lexicographic order, and each axis's range.

    Shared by every caller, so both come back read-only.
    """
    r = np.array(reach)
    offsets = np.indices(2 * r + 1).reshape(3, -1).T - r
    axes = tuple(np.arange(-k, k + 1) for k in reach)
    for a in (offsets, *axes):
        a.setflags(write=False)
    return offsets, axes


@lru_cache(maxsize=16)  # `_site_pairs` keeps <= _BLOCK_ROWS pairs: 1 MiB each at most
def _triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n), read-only: every caller shares them."""
    sites = np.arange(n)
    pi, pj = np.nonzero(np.less_equal.outer(sites, sites))
    for a in (pi, pj):
        a.setflags(write=False)
    return pi, pj


def _site_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """`_triangle(n)`, kept in its cache only if it has at most `_BLOCK_ROWS` pairs."""
    if n * (n + 1) // 2 <= _BLOCK_ROWS:
        return _triangle(n)
    return _triangle.__wrapped__(n)


def _near_pairs(
    frac: np.ndarray, bound: np.ndarray, pi: np.ndarray, pj: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (pi, pj), in order, that one structure sees within `bound`, per axis.

    `frac` (N, 3) and `bound` (3,) are one structure's rows of the arrays in
    `_stacked_pass`.  Axes are tested one at a time, the tightest bound
    first, each on the pairs the earlier axes kept, in blocks of at most
    `_BLOCK_ROWS` pairs, which bounds the work arrays at any site count.  A
    pair dropped has no image within its bound, so the table loses no row.
    """
    # |d - rint(d)| <= 0.5, so an axis whose bound reaches 0.5 rejects no pair
    order = [k for k in np.argsort(bound).tolist() if bound[k] < 0.5]
    # a self pair's delta is 0, so below 1 on every axis only its zero
    # offset is in reach, and that one is never a row
    no_self = bool(bound.max() < 1.0)
    if not (order or no_self):
        return pi, pj
    kept_i, kept_j = [], []
    for start in range(0, len(pi), _BLOCK_ROWS):
        bi, bj = pi[start : start + _BLOCK_ROWS], pj[start : start + _BLOCK_ROWS]
        if no_self:
            other = bi != bj
            bi, bj = bi[other], bj[other]
        for k in order:
            d = frac[bj, k] - frac[bi, k]
            near = np.abs(d - np.rint(d)) <= bound[k]
            bi, bj = bi[near], bj[near]
        kept_i.append(bi)
        kept_j.append(bj)
    return np.concatenate(kept_i), np.concatenate(kept_j)


def _stacked_pass(
    structures: list[Structure],
    matrices: np.ndarray,
    bound: np.ndarray,
    reach: tuple[int, int, int],
    cutoff: float,
) -> None:
    """Memoize the `cutoff` tables of same-size structures, stacked.

    `matrices` (B, 3, 3) and `bound` (B, 3) hold each structure's cell and
    slab bound; the offset grid of `reach` serves them all.  The masks are
    laid out (structures, pairs, images), and a block of them holds at most
    `_BLOCK_ROWS` cells over the whole batch.  A site-pair triangle longer
    than one such block is pruned first, once (`_near_pairs`); a shorter one
    is pruned inside its single block.  Only the images a structure keeps
    are measured: one gather, `sqrt` and cutoff test per block, with one
    product per structure and block.  A block's rows come structure by
    structure, so each structure's part is a slice of the block's columns;
    they are read-only, so no member can write into a sibling's table.
    """
    frac = np.stack([s.frac for s in structures])
    offsets, axes = _offset_grid(reach)
    g = len(offsets)
    pi, pj = _site_pairs(frac.shape[1])
    chunk = max(1, _BLOCK_ROWS // (g * len(pi)))
    parts: list[list] = [[] for _ in structures]
    for lo in range(0, len(structures), chunk):
        rows = slice(lo, lo + chunk)
        fr, mats, bnd = frac[rows], matrices[rows], bound[rows]
        bs = len(fr)
        bnd_axes = bnd.T[:, :, None, None]  # per axis, broadcast as (bs, 1, 1)
        step = max(1, _BLOCK_ROWS // (g * bs))
        one_step = len(pi) <= step
        # a triangle longer than one block has g * len(pi) > _BLOCK_ROWS, so
        # its chunk is bs == 1, and its pruned pairs may be none at all
        ci, cj = (pi, pj) if one_step else _near_pairs(fr[0], bnd[0], pi, pj)
        for start in range(0, len(ci), step):
            bi, bj = ci[start : start + step], cj[start : start + step]
            # `take` and `compress` give the C-ordered arrays that `fr[:, bj]`
            # and `delta[:, near]` would, without numpy's slow fancy-indexing
            # path for a middle axis
            delta = np.take(fr, bj, axis=1) - np.take(fr, bi, axis=1)
            if one_step:
                # a pair that no member sees within its bound on every axis has
                # no image to measure (three ANDs beat np.all over a length-3 axis)
                within = np.abs(delta - np.rint(delta)) <= bnd[:, None]
                near = (within[..., 0] & within[..., 1] & within[..., 2]).any(axis=0)
                bi, bj, delta = bi[near], bj[near], np.compress(near, delta, axis=1)
            ax = [
                np.abs(d[..., None] + a) <= lim
                for d, a, lim in zip(delta.transpose(2, 0, 1), axes, bnd_axes)
            ]
            hit = ax[0][..., :, None, None] & ax[1][..., None, :, None]
            hit = (hit & ax[2][..., None, None, :]).reshape(bs, len(bi), g)
            hit[:, bi == bj, : g // 2 + 1] = False  # the zero offset sits at g // 2
            # row q of the block is member q // len(bi), pair q % len(bi); the
            # rows come member by member, so each member's rows are one slice
            q, k = np.nonzero(hit.reshape(-1, g))
            disp = np.take(delta.reshape(-1, 3), q, axis=0) + offsets[k]
            # (delta + offset) @ matrix, not delta @ M + offset @ M: the two
            # round differently, and a distance must not depend on the cutoff
            # asked for.  The product is a 2D one per structure, as alone:
            # BLAS fuses multiply-adds that numpy's own `*` and `+` do not, so
            # no element-wise form matches it bit for bit.  A lone build
            # (bs == 1) skips the member bookkeeping.
            if bs == 1:
                cart = disp @ mats[0]
            else:
                cart = np.empty_like(disp)
                for b, (a, e) in enumerate(_member_slices(q, len(bi), bs)):
                    np.matmul(disp[a:e], mats[b], out=cart[a:e])
            dist = np.sqrt((cart * cart).sum(axis=1))  # np.linalg.norm's sum
            keep = dist <= cutoff
            q, k, dist = q[keep], k[keep], dist[keep]
            p = q if bs == 1 else q % len(bi)
            cols = (bi[p], bj[p], offsets[k], dist)
            for c in cols:  # each member's slices are views of these
                c.setflags(write=False)
            if bs == 1:
                parts[lo].append(cols)
            else:
                for b, (a, e) in enumerate(_member_slices(q, len(bi), bs)):
                    parts[lo + b].append(tuple(c[a:e] for c in cols))
    for s, part in zip(structures, parts):
        cols = part[0] if len(part) == 1 else [np.concatenate(c) for c in zip(*part)]
        s.__dict__["_pair_table"] = (cutoff, PairTable(*cols) if part else _EMPTY)


def _member_slices(q: np.ndarray, n_pairs: int, bs: int) -> list[tuple[int, int]]:
    """Each member's (start, stop) in the sorted block rows `q` of `_stacked_pass`."""
    cuts = np.searchsorted(q, np.arange(bs + 1) * n_pairs).tolist()
    return list(zip(cuts[:-1], cuts[1:]))


def min_image_distance(structure: Structure, i: int, j: int) -> float:
    """Shortest distance between site i and any periodic image of site j.

    For i == j this is the shortest nonzero lattice translation, bounded by
    the shortest lattice row.  For i != j the wrapped image bounds it; in a
    long, thin cell that can lie beyond the shortest lattice row.
    """
    matrix = _check_cell(structure)
    n = len(structure)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"site index out of range for {n} sites")
    if i == j:
        bound = float(np.min(np.linalg.norm(matrix, axis=1)))
    else:
        delta = structure.frac[j] - structure.frac[i]
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
    return structure.lattice.volume / len(structure)


def iter_periodic_pairs(structure: Structure, cutoff: float) -> PairTable:
    """All periodic pairs (i, j, image, distance) within `cutoff` angstroms.

    Each physical pair appears once: i < j with any image, or i == j with a
    lexicographically positive image, in row-major (i, j) order with images
    in lexicographic order.  The zero-offset self pair is never included.
    """
    if cutoff <= 0.0:
        _check_cell(structure)
        return _EMPTY
    table = _pair_table(structure, cutoff)
    return _select(table, table.distance <= cutoff)


def covalent_pairs(structure: Structure, scale: float) -> tuple[PairTable, np.ndarray]:
    """Pairs within scale * (r_i + r_j) in `iter_periodic_pairs` order, and r_i + r_j.

    They filter the table at scale * 2 * max(r); a scale <= 0 gives none.
    A degenerate cell raises `DegenerateCellError` at any scale.
    """
    if scale <= 0.0:
        _check_cell(structure)
        return _EMPTY, np.empty(0)
    r_max = max(COVALENT_RADII[e] for e in set(structure.elements))
    table = _pair_table(structure, scale * (2.0 * r_max))
    if not len(table):
        return table, np.empty(0)
    r = _covalent_radii(structure)
    rsum = r[table.i] + r[table.j]
    keep = table.distance <= scale * rsum
    return _select(table, keep), rsum[keep]


def build_neighbor_list(
    structure: Structure, scale: float = DEFAULT_NEIGHBOR_SCALE
) -> PairTable:
    """Directed neighbors within scale * (r_i + r_j) of each site, across images.

    Rows are sorted by (i, j, image).  The result is symmetric by
    construction: for every row (i, j, image) the mirrored row
    (j, i, -image) is present too.
    """
    t, _ = covalent_pairs(structure, scale)
    i = np.concatenate((t.i, t.j))
    j = np.concatenate((t.j, t.i))
    image = np.concatenate((t.image, -t.image))
    order = np.lexsort((image[:, 2], image[:, 1], image[:, 0], j, i))
    return PairTable(i[order], j[order], image[order], np.tile(t.distance, 2)[order])
