"""Periodic-boundary geometry: minimum-image distances and neighbor lists.

All routines treat the cell as fully periodic and work for arbitrary (also
strongly skewed) cells.  Distances are in angstroms.

Every distance comes from one kernel, `_build_tables`, reached through
`_pair_table`.  It finds all upper-triangle site pairs within a cutoff over
the lattice offsets that can reach it and memoizes the table on the
structure at the largest cutoff asked for so far; smaller cutoffs, scalar
or per pair, filter it, and a query at the memo's own cutoff reads it in
place.  The slab bound (`_slab_spacings`) sizes the offset reach; within
it, each pair's images are walked one axis at a time inside the cutoff
sphere (Fincke and Pohst, Math. Comp. 44, 1985): x over the slab bound, y
and z over the sphere's slices.  So only images within the cutoff, up to a
rounding slack, are measured.  A cell below `DEGENERATE_VOLUME`, or
needing more than `MAX_IMAGES` offsets for a cutoff, raises
`DegenerateCellError`.  Before the walk, the bound drops every site pair
that has no image within it on some axis: inside the block where the
pairs fit one walk step (all 6-site work), else once, one axis at a time,
the tightest first (128 sites at a bond cutoff, 64 at 6 A, the larger
slabs).  When every axis bound is below 1, the self pairs are never
listed, since no nonzero offset is in reach.  Pairs and neighbor lists come
back as a `PairTable`, one array per column and one row per pair.

The kernel builds several tables in one pass (`_flat_pass`): the site pairs
of all its structures form one flat list, member by member, whatever their
sizes, and each row carries its member's slab bound, cutoff and cell
factor.  The pairs the prune keeps are walked and their images measured a
step at a time, short blocks sharing a step, with one 2D product per
structure, and each structure's rows are a read-only slice of the pass's
columns.  Inside `shared_pair_pass`, the first miss of a member builds
every member without a table, each at the cutoff its own query would ask
for, in one pass per offset reach.  The search (per generation) and every
CIF command (per chunk of 64 files) score through
`reward._score_in_chunks`, which opens one such pass per chunk.  Every
table is bit-identical to the one the structure would build alone.
`covalent_pairs` alone turns covalent radii (Cordero et al., Dalton Trans.
2008) into pair cutoffs, for the physics score and the neighbor list.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, chain, groupby
from typing import Callable, Iterable, Iterator

import numpy as np

from .cif import Structure
from .elements import COVALENT_RADII

DEGENERATE_VOLUME = 1e-6  # cubic angstroms
DEFAULT_NEIGHBOR_SCALE = 1.2
MAX_IMAGES = 100_000  # lattice offsets one enumeration may lay out
_BLOCK_ROWS = 1 << 16  # (pairs x box offsets) one walk step may span
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


def _pair_table(
    structure: Structure,
    cutoff: float,
    cutoff_of: Callable[[Structure], float] | None = None,
) -> PairTable:
    """Every periodic pair within `cutoff` or a larger memoized cutoff.

    Ordered as in `iter_periodic_pairs`; memoized like `Lattice.matrix`,
    beside the cutoff it was built for.  Inside `shared_pair_pass`, a miss
    also builds every member of the group that has no table yet, each at
    its own cutoff: `cutoff_of(member)`, the rule the asking query applies,
    or `cutoff` when the rule is a constant.
    """
    memo_cutoff, memo = structure.__dict__.get("_pair_table", (-np.inf, None))
    if cutoff <= memo_cutoff:
        return memo
    siblings = [
        s for s in structure.__dict__.get("_pair_group", ())
        if s is not structure and "_pair_table" not in s.__dict__
    ]
    rule = cutoff_of or (lambda s: cutoff)
    _build_tables([structure, *siblings], [cutoff, *map(rule, siblings)])
    return structure.__dict__["_pair_table"][1]


@contextmanager
def shared_pair_pass(structures: Iterable[Structure]) -> Iterator[None]:
    """Group `structures` so that their pair tables are built together.

    Inside the scope, the first `_pair_table` miss of a member builds every
    member without a table, each at its own cutoff by the asking query's
    rule, in one flat pass per offset reach.  The grouping is removed on
    exit, also on an exception, so no structure keeps its siblings alive.
    """
    group = tuple(structures)
    for s in group:
        s.__dict__["_pair_group"] = group
    try:
        yield
    finally:
        for s in group:
            s.__dict__.pop("_pair_group", None)


def _build_tables(structures: list[Structure], cutoffs: list[float]) -> None:
    """Build and memoize each structure's table at its own cutoff.

    The first structure asked: a degenerate cell or a cutoff over the image
    budget raises for it.  Any other structure with a degenerate cell, or
    over the budget at its own cutoff, is skipped and builds (or raises) on
    its own call.  The rest are built in one `_flat_pass` per distinct
    offset reach: reaches of (k, 1, 1) and (1, k, 1) each fit the budget,
    but a grid spanning both would not.
    """
    matrices = np.array([s.lattice.matrix for s in structures])
    degenerate = (np.abs(np.linalg.det(matrices)) < DEGENERATE_VOLUME).tolist()
    if degenerate[0]:
        raise DegenerateCellError(_SMALL_CELL)
    if any(degenerate):  # a singular matrix would fail `_slab_spacings`
        keep = [k for k, bad in enumerate(degenerate) if not bad]
        structures = [structures[k] for k in keep]
        cutoffs = [cutoffs[k] for k in keep]
        matrices = matrices[keep]
    cut = np.array(cutoffs, dtype=float)[:, None]
    spacings = _slab_spacings(matrices)
    # a pair or image whose fractional displacement exceeds `bound` on any
    # axis lies beyond the cutoff (`_slab_spacings`), so it is never measured
    bound = cut / spacings * (1.0 + _BOUND_SLACK)
    passes: dict[tuple[int, int, int], list[int]] = {}
    for k, (a, b, c) in enumerate(np.ceil(cut / spacings + 0.5).tolist()):
        n_images = (2.0 * a + 1.0) * (2.0 * b + 1.0) * (2.0 * c + 1.0)
        if n_images <= MAX_IMAGES:
            passes.setdefault((int(a), int(b), int(c)), []).append(k)
        elif k == 0:  # also a NaN cutoff
            raise DegenerateCellError(
                f"{n_images:.4g} lattice images within {cutoffs[0]:.4g} A"
                f" (limit {MAX_IMAGES})"
            )
    for reach, ks in passes.items():
        ks.sort(key=lambda k: len(structures[k]))  # `_pair_blocks` tiles each run of a size
        _flat_pass(
            [structures[k] for k in ks], [cutoffs[k] for k in ks],
            matrices[ks], bound[ks], reach,
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
def _triangle(n: int, self_pairs: bool) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 0 if self_pairs else 1), read-only: every caller shares them."""
    sites = np.arange(n)
    upper = np.less_equal if self_pairs else np.less
    pi, pj = np.nonzero(upper.outer(sites, sites))
    for a in (pi, pj):
        a.setflags(write=False)
    return pi, pj


def _site_pairs(n: int, self_pairs: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """`_triangle(n, self_pairs)`, cached only if it has at most `_BLOCK_ROWS` pairs."""
    if n * (n + 1) // 2 <= _BLOCK_ROWS:
        return _triangle(n, self_pairs)
    return _triangle.__wrapped__(n, self_pairs)


def _pair_blocks(
    first: np.ndarray, sizes: list[int], self_reach: list[bool]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """A pass's flat pair list, as (member, i, j) blocks of `_BLOCK_ROWS // 8` rows at most.

    Member by member, each member's `_site_pairs` in order, numbered as rows
    of the members' stacked `frac`, where member m starts at `first[m]`.  A
    run of members with one triangle is tiled, and a long triangle spans
    several blocks.  Self pairs are listed only where `self_reach` holds:
    with a bound below 1 on every axis, only the zero offset is in a self
    pair's reach, and that one is never a row.
    """
    block = max(1, _BLOCK_ROWS // 8)  # a float column per block: the bytes of a step's box
    m1 = 0
    for (n, self_pairs), run in groupby(zip(sizes, self_reach)):
        m0, m1 = m1, m1 + sum(1 for _ in run)
        pi, pj = _site_pairs(n, self_pairs)
        per = max(1, block // max(1, len(pi)))  # members per block
        for a in range(m0, m1, per):
            at = first[a : min(a + per, m1), None]
            for lo in range(0, len(pi), block):
                i, j = pi[lo : lo + block], pj[lo : lo + block]
                member = np.arange(a, a + len(at)).repeat(len(i))
                yield member, (i + at).ravel(), (j + at).ravel()


def _flat_pass(
    structures: list[Structure],
    cutoffs: list[float],
    matrices: np.ndarray,
    bound: np.ndarray,
    reach: tuple[int, int, int],
) -> None:
    """Memoize each structure's table at its own cutoff, in one pass.

    `matrices` (B, 3, 3) and `bound` (B, 3) hold each structure's cell and
    slab bound; the offsets within `reach` serve them all.  The walk's rows
    are the flat pair list of `_pair_blocks`, and each row carries its
    member's bound, cutoff and cell factor.  The walk yields every image
    within the cutoff, and beyond it only images within `_BOUND_SLACK` of
    it, so the distance test keeps the rows a box of offsets would.  Rows
    stay in member order, so each member's table is a slice of the pass's
    columns; they are read-only, so no member can write into a sibling's
    table.
    """
    offsets, axes = _offset_grid(reach)
    g = len(offsets)
    step = max(1, _BLOCK_ROWS // g)
    cut = np.array(cutoffs, dtype=float)
    # the cutoff sphere split one axis at a time (Fincke and Pohst, Math.
    # Comp. 44, 1985): with R the triangular factor of the cell rows taken z
    # first (Q R = [c b a]), |f M|^2 = tx^2 + ty^2 + tz^2 for tx = R22 fx,
    # ty = R12 fx + R11 fy and tz = R02 fx + R01 fy + R00 fz.  Q only
    # rotates, so no entry is the square of a cell length, which can overflow
    h, _ = np.linalg.qr(matrices[:, ::-1].transpose(0, 2, 1), mode="raw")
    tri = h.reshape(-1, 9)  # R^T by rows: R00 R01 R02 at 0 3 6, R11 R12 at 4 7, R22 at 8
    radius = (cut * (1.0 + _BOUND_SLACK)) ** 2
    sizes = [len(s) for s in structures]
    frac = np.concatenate([s.frac for s in structures])
    first = np.array([0, *accumulate(sizes[:-1])])  # each member's first row of `frac`
    # |d - rint(d)| <= 0.5, so an axis whose bounds all reach 0.5 prunes
    # nothing; the others are tested with the tightest first
    low = bound.min(axis=0).tolist()
    order = sorted((k for k in range(3) if low[k] < 0.5), key=low.__getitem__)
    self_reach = (bound.max(axis=1) >= 1.0).tolist()
    self_pairs = any(self_reach)  # else `_pair_blocks` lists none
    parts, held, rows = [], [], 0
    for block in chain(_pair_blocks(first, sizes, self_reach), [None]):  # None: the end
        if block is not None:
            m, fi, fj = block
            # |d - rint(d)| is a pair's nearest image offset on an axis, so a
            # pair beyond its bound there has no row.  Within one walk step,
            # every axis is tested at once; a longer list is pruned first, axis
            # by axis, each later axis only on the pairs the earlier ones kept
            one_step = len(m) <= step
            for k in [] if one_step else order:
                d = frac[:, k].take(fj) - frac[:, k].take(fi)
                near = np.abs(d - np.rint(d)) <= bound[:, k].take(m)
                m, fi, fj = (a.compress(near) for a in (m, fi, fj))
            delta = frac.take(fj, axis=0) - frac.take(fi, axis=0)
            bnd = bound.take(m, axis=0)
            if one_step and order:
                within = np.abs(delta - np.rint(delta)) <= bnd
                near = within[:, 0] & within[:, 1] & within[:, 2]  # beats np.all
                m, fi, fj, delta, bnd = (a.compress(near, axis=0) for a in (m, fi, fj, delta, bnd))
            # the walk's fixed cost is paid per step: hold the pairs of short
            # blocks (a few each at a bond cutoff) until they fill one
            held.append((m, fi, fj, delta, bnd))
            rows += len(m)
            if rows < step:
                continue
        if not held:
            continue
        m, fi, fj, delta, bnd = held[0] if len(held) == 1 else map(np.concatenate, zip(*held))
        held, rows = [], 0
        for lo in range(0, len(m), step):
            bm, bi, bj, d, b = (a[lo : lo + step] for a in (m, fi, fj, delta, bnd))
            # x over the slab bound; then y, then z, over the sphere's slice
            # at the offsets before it, `rem` being the squared radius they leave
            f = d[:, :1] + axes[0]
            p, k = np.nonzero(np.abs(f) <= b[:, :1])
            pm = bm.take(p)
            r, x = tri.take(pm, axis=0), f[p, k]
            t = r[:, 8] * x
            rem = radius.take(pm) - t * t
            f = d[p, 1:2] + axes[1]
            t = r[:, 4:5] * f + (r[:, 7] * x)[:, None]
            q, k2 = np.nonzero(t * t <= rem[:, None])
            p, k, r, x = p.take(q), k.take(q) * len(axes[1]) + k2, r.take(q, axis=0), x.take(q)
            t, y = t[q, k2], f[q, k2]
            rem = rem.take(q) - t * t
            t = r[:, :1] * (d[p, 2:3] + axes[2]) + (r[:, 6] * x + r[:, 3] * y)[:, None]
            q, k2 = np.nonzero(t * t <= rem[:, None])
            p, k = p.take(q), k.take(q) * len(axes[2]) + k2
            if self_pairs:  # a self pair keeps the images after the zero offset, at g // 2
                own = (k > g // 2) | (bi != bj).take(p)
                p, k = p[own], k[own]
            disp = d.take(p, axis=0) + offsets[k]
            pm = bm.take(p)
            # (delta + offset) @ matrix, not delta @ M + offset @ M: the two
            # round differently, and a distance must not depend on the cutoff
            # asked for.  The product is a 2D one per member, as alone: BLAS
            # fuses multiply-adds that numpy's own `*` and `+` do not, so no
            # element-wise form matches it bit for bit.
            cart = np.empty_like(disp)
            lo_m, hi_m = int(bm[0]), int(bm[-1]) + 1
            cuts = pm.searchsorted(np.arange(lo_m, hi_m + 1)).tolist()
            for mm, a, e in zip(range(lo_m, hi_m), cuts, cuts[1:]):
                if a < e:  # at a bond cutoff, most members of a pass have no row
                    np.matmul(disp[a:e], matrices[mm], out=cart[a:e])
            dist = np.sqrt((cart * cart).sum(axis=1))  # np.linalg.norm's sum
            keep = dist <= cut.take(pm)
            p, k = p[keep], k[keep]
            parts.append((pm[keep], bi[p], bj[p], offsets[k], dist[keep]))
    empty = (_EMPTY.i, _EMPTY.i, _EMPTY.j, _EMPTY.image, _EMPTY.distance)
    cols = parts[0] if len(parts) == 1 else map(np.concatenate, zip(empty, *parts))
    member, i, j, *cols = cols
    at = first.take(member)
    cols = [i - at, j - at, *cols]  # each member's own site numbers
    for c in cols:  # each member's slices are views of these
        c.setflags(write=False)
    i, j, image, distance = cols
    cuts = member.searchsorted(np.arange(len(structures) + 1)).tolist()
    for s, c, a, e in zip(structures, cutoffs, cuts, cuts[1:]):
        s.__dict__["_pair_table"] = (c, PairTable(i[a:e], j[a:e], image[a:e], distance[a:e]))


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
        table = _pair_table(structure, _row_cutoff(structure), _row_cutoff)
    return float(np.min(table.distance))


def _row_cutoff(structure: Structure) -> float:
    """The shortest lattice row, as a cutoff that keeps its self-image."""
    bound = float(np.min(np.linalg.norm(structure.lattice.matrix, axis=1)))
    return bound * (1.0 + _BOUND_SLACK)


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
    if structure.__dict__["_pair_table"][0] == cutoff:
        return table  # every row of a table is within the cutoff it was built at
    return _select(table, table.distance <= cutoff)


def covalent_pairs(structure: Structure, scale: float) -> tuple[PairTable, np.ndarray]:
    """Pairs within scale * (r_i + r_j) in `iter_periodic_pairs` order, and r_i + r_j.

    They filter the table at scale * 2 * max(r); a scale <= 0 gives none.
    A degenerate cell raises `DegenerateCellError` at any scale.
    """
    if scale <= 0.0:
        _check_cell(structure)
        return _EMPTY, np.empty(0)
    cutoff_of = partial(_covalent_cutoff, scale=scale)
    table = _pair_table(structure, cutoff_of(structure), cutoff_of)
    if not len(table):
        return table, np.empty(0)
    r = _covalent_radii(structure)
    rsum = r[table.i] + r[table.j]
    keep = table.distance <= scale * rsum
    return _select(table, keep), rsum[keep]


def _covalent_cutoff(structure: Structure, scale: float) -> float:
    """scale * 2 * max(r): the widest covalent pair cutoff of `structure`."""
    return scale * (2.0 * max(COVALENT_RADII[e] for e in set(structure.elements)))


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
