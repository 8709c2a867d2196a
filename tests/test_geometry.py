"""Periodic geometry against an exhaustive minimum-image oracle."""

import dataclasses
import itertools

import numpy as np
import pytest

from catloop import geometry
from catloop.cif import Lattice, parse_cif, serialize_cif
from catloop.geometry import (
    MAX_IMAGES,
    DegenerateCellError,
    build_neighbor_list,
    covalent_pairs,
    iter_periodic_pairs,
    min_image_distance,
    min_pair_distance,
    shared_pair_pass,
    volume_per_atom,
)
from catloop.elements import COVALENT_RADII
from catloop.reward import pvcp
from catloop.search import MutationGenerator
from conftest import brute_force_pairs, make_structure, pair_tuples, random_structure


def brute_force_min_image(structure, i, j):
    """Exhaustive scan over a provably sufficient offset block.

    Images with max-offset k have length at least (k - 0.5) * d_min, so a
    span beyond start_estimate / d_min + 0.5 cannot contain the minimum.
    """
    m = structure.lattice.matrix
    inv = np.linalg.inv(m)
    d_min = float(np.min(1.0 / np.linalg.norm(inv, axis=0)))
    frac = structure.frac
    delta = frac[j] - frac[i]
    delta -= np.round(delta)
    start = float(np.linalg.norm(delta @ m))
    if i == j:
        start = float(min(np.linalg.norm(m, axis=1)))
    span = int(np.ceil(start / d_min + 0.5)) + 1
    best = np.inf
    for off in itertools.product(range(-span, span + 1), repeat=3):
        if i == j and off == (0, 0, 0):
            continue
        d = float(np.linalg.norm((delta + np.array(off)) @ m))
        best = min(best, d)
    return best


def pairs(structure, cutoff):
    return pair_tuples(iter_periodic_pairs(structure, cutoff))


def covalent(structure, scale):
    """`covalent_pairs` rows as tuples, checked against their radius sums."""
    table, rsum = covalent_pairs(structure, scale)
    r = np.array([COVALENT_RADII[e] for e in structure.elements])
    assert np.array_equal(rsum, r[table.i] + r[table.j])
    return pair_tuples(table)


def covalent_oracle(structure, scale, box=9):
    """`brute_force_pairs` at the pair cutoffs scale * (r_i + r_j)."""
    r = np.array([COVALENT_RADII[e] for e in structure.elements])
    return brute_force_pairs(structure, scale * (r[:, None] + r[None, :]), box)


def test_pairs_match_brute_force_on_skewed_cells():
    rng = np.random.default_rng(23)
    for _ in range(15):
        s = random_structure(rng, max_sites=6)
        for cutoff in (6.0, float(rng.uniform(1.0, 5.0))):
            fresh = dataclasses.replace(s)  # same fields, no memoized table
            assert pairs(fresh, cutoff) == brute_force_pairs(s, cutoff)
        for scale in (0.5, 0.75, 1.2, float(rng.uniform(0.1, 1.5))):
            fresh = dataclasses.replace(s)
            assert covalent(fresh, scale) == covalent_oracle(s, scale)


def test_pair_exactly_at_cutoff_is_kept():
    # the slab bound equals the cutoff here; rounding must not prune the image
    s = make_structure(["Cu", "O"], [(0, 0, 0), (0.25, 0, 0)], lengths=(8, 8, 8))
    got = pairs(s, 2.0)
    assert got == [(0, 1, (0, 0, 0), 2.0)]
    assert got == brute_force_pairs(s, 2.0)


def test_pruning_on_strongly_skewed_cell():
    rng = np.random.default_rng(31)
    species = ["Cu", "O", "H", "Pt", "C", "Ni", "O"]
    s = make_structure(
        species, rng.random((7, 3)), lengths=(5.0, 5.5, 6.0), angles=(78, 96, 25)
    )
    for cutoff in (4.0, 6.0):
        fresh = dataclasses.replace(s)  # same fields, no memoized table
        assert pairs(fresh, cutoff) == brute_force_pairs(s, cutoff)
    for scale in (0.5, 0.75, 1.2):
        fresh = dataclasses.replace(s)
        assert covalent(fresh, scale) == covalent_oracle(s, scale)


def test_cutoff_spanning_several_cells():
    # 6 A in a 2.6 A cell: several images survive the bound on every axis
    s = make_structure(
        ["Cu", "O"], [(0.1, 0.2, 0.3), (0.6, 0.55, 0.9)],
        lengths=(2.6, 2.6, 2.6), angles=(80, 95, 100),
    )
    got = pairs(s, 6.0)
    assert got == brute_force_pairs(s, 6.0)
    images = [image for i, j, image, _ in got if (i, j) == (0, 1)]
    assert all(len({image[k] for image in images}) >= 4 for k in range(3))


def many_site_structure(n, slab=False):
    """`n` random Cu/O sites in a skewed bulk cell, or in a slab cell (c >> a, b)."""
    rng = np.random.default_rng(37 + n + slab)
    species = [["Cu", "O"][k] for k in rng.integers(0, 2, size=n)]
    frac = rng.random((n, 3))
    if slab:  # sites in the lower 40% of c, vacuum above, as in `inspect_slabs`
        frac[:, 2] *= 0.4
        return make_structure(species, frac, lengths=(7.5, 11.0, 36.0))
    edge = (n * 11.0) ** (1 / 3)  # about 11 cubic angstroms per site
    return make_structure(
        species, frac, lengths=(edge, 1.08 * edge, 1.16 * edge), angles=(85, 100, 75)
    )


@pytest.mark.parametrize("n, slab", [(64, False), (128, False), (128, True)])
def test_pruning_on_many_site_structures(n, slab):
    # a 128-site triangle spans several mask blocks, so it is pruned up front
    s = many_site_structure(n, slab)
    for scale in (0.75, 1.2):
        got = covalent(dataclasses.replace(s), scale)
        assert got and got == covalent_oracle(s, scale, box=3)
    got = pairs(dataclasses.replace(s), 6.0)
    assert got and got == brute_force_pairs(s, 6.0, box=3)


def test_zero_pair_cutoff_skips_coincident_atoms():
    s = make_structure(
        ["Cu", "Cu", "O"], [(0.3, 0.3, 0.3), (0.3, 0.3, 0.3), (0.6, 0.5, 0.4)]
    )
    # a scalar query first leaves the coincident pair (d = 0) in the memo
    assert (0, 1, (0, 0, 0), 0.0) in pairs(s, 3.0)
    assert covalent(s, 0.5) == covalent_oracle(s, 0.5)
    # no cutoff above zero, no rows: not even the coincident pair
    assert pairs(s, 0.0) == covalent(s, 0.0) == covalent(s, -1.0) == []


def test_memoized_queries_equal_fresh_structures():
    rng = np.random.default_rng(29)
    for _ in range(10):
        s = random_structure(rng, max_sites=6)
        fresh = dataclasses.replace(s)  # same fields, no memoized table
        want = pairs(fresh, 6.0)
        assert pairs(s, 6.0) == want == brute_force_pairs(s, 6.0)
        # after the 6 A query a covalent query filters the memo or widens it
        for scale in (0.5, 0.75, 1.2, float(rng.uniform(0.1, 1.5))):
            fresh = dataclasses.replace(s)
            want = covalent(fresh, scale)
            assert covalent(s, scale) == want == covalent_oracle(s, scale)


def test_pairs_at_the_memo_cutoff_are_the_memo():
    rng = np.random.default_rng(67)
    for _ in range(5):
        s = random_structure(rng)
        got = iter_periodic_pairs(s, 6.0)
        assert got is s.__dict__["_pair_table"][1]  # no copy of the memo
        want = iter_periodic_pairs(dataclasses.replace(s), 6.0)
        for col in ("i", "j", "image", "distance"):
            column = getattr(got, col)
            assert column.tobytes() == getattr(want, col).tobytes()
            with pytest.raises(ValueError):
                column[...] = 0
        # a narrower query filters the memo into columns of its own
        assert pairs(s, 4.0) == pairs(dataclasses.replace(s), 4.0)


def batch_members(rng):
    """Structures for one shared pass: mixed sizes, cells and reaches.

    At 6 A the 5.2-5.8 A and 4.2 A cells have offset reach (2, 2, 2), the
    12.5-14 A cells (1, 1, 1) and the 25-degree cell (4, 4, 2); two cells
    are degenerate and two need more than MAX_IMAGES images.
    """
    out = []
    for n, span in ((3, (5.2, 5.8)), (1, (5.2, 5.8)), (5, (5.2, 5.8)),
                    (3, (12.5, 14.0)), (2, (12.5, 14.0)), (3, (5.2, 5.8))):
        species = [["Cu", "O", "Pt"][k] for k in rng.integers(0, 3, size=n)]
        out.append(make_structure(species, rng.random((n, 3)),
                                  lengths=rng.uniform(*span, size=3)))
    out += [
        make_structure(  # skewed, a coincident pair and a pair 1e-12 A apart
            ["Cu", "Cu", "O", "O"],
            [(0.3, 0.3, 0.3), (0.3, 0.3, 0.3), (0.6, 0.5, 0.4), (0.6, 0.5, 0.4 + 1e-12)],
            lengths=(7.0, 7.5, 8.0), angles=(80, 95, 60),
        ),
        make_structure(["Pt", "O", "Cu"], rng.random((3, 3)),
                       lengths=(6.0, 6.5, 7.0), angles=(78, 96, 25)),
        make_structure(["Cu"], [(0, 0, 0)], lengths=(0.005,) * 3),
        # valid parameters whose matrix underflows to singular: inverting it
        # with the batch would raise LinAlgError
        make_structure(["O"], [(0, 0, 0)], lengths=(1.0, 1.0, 5e-324),
                       angles=(30, 30, 30)),
        make_structure(["Cu", "O"], [(0, 0, 0), (0.5, 0.5, 0.5)], lengths=(0.2,) * 3),
        # over the budget at its own covalent cutoff at scale 1.2 (Cs: 2.44 A),
        # where the Cu/O cell above fits it
        make_structure(["Cs", "H"], [(0, 0, 0), (0.5, 0.5, 0.5)], lengths=(0.2,) * 3),
        # a wider slab bound than the first member's, with a pair that only
        # this member's own bound keeps
        make_structure(["Cu", "O"], [(0, 0, 0), (0.4, 0, 0)], lengths=(4.2,) * 3),
        make_structure(["O", "Cu", "Cu"], rng.random((3, 3)), lengths=(5.5, 5.6, 5.4)),
    ]
    return out


def offset_reach(structure, cutoff):
    """The offset reach the kernel lays out, or None for a degenerate cell."""
    m = structure.lattice.matrix
    if abs(np.linalg.det(m)) < 1e-6:
        return None
    spacings = 1.0 / np.linalg.norm(np.linalg.inv(m), axis=0)
    return tuple(np.ceil(cutoff / spacings + 0.5))


def own_cutoff(query, structure):
    """The cutoff `query` builds `structure`'s table at: its own rule's."""
    kind, x = query
    if kind == "pairs":
        return x
    return x * (2.0 * max(COVALENT_RADII[e] for e in structure.elements))


def fits_budget(structure, cutoff):
    reach = offset_reach(structure, cutoff)
    return reach is not None and np.prod(2.0 * np.array(reach) + 1.0) <= MAX_IMAGES


def table_or_error(query, structure):
    kind, x = query
    try:
        if kind == "pairs":
            return geometry._pair_table(structure, x)
        return covalent_pairs(structure, x)[0]
    except DegenerateCellError as exc:
        return str(exc)


@pytest.mark.parametrize("block_rows", [None, 64])
@pytest.mark.parametrize(
    "query, errors",
    [
        (("pairs", 6.0), {"volume", "lattice"}),
        (("pairs", 2.0), {"volume"}),
        # mixed elements: every member asks at its own covalent cutoff
        (("covalent", 0.75), {"volume"}),
        (("covalent", 1.2), {"volume", "lattice"}),
    ],
    ids=["6.0", "2.0", "covalent-0.75", "covalent-1.2"],
)
def test_shared_pass_tables_equal_tables_built_alone(
    monkeypatch, kernel_passes, query, errors, block_rows
):
    members = batch_members(np.random.default_rng(43))
    alone = [table_or_error(query, dataclasses.replace(s)) for s in members]
    cutoffs = [own_cutoff(query, s) for s in members]
    assert len(set(cutoffs)) > 1 or query[0] == "pairs"
    # alone, a member raises exactly when its own cutoff does not fit
    fits = [fits_budget(s, c) for s, c in zip(members, cutoffs)]
    assert [not isinstance(t, str) for t in alone] == fits
    assert {err.split()[1] for err in alone if isinstance(err, str)} == errors
    if block_rows is not None:  # many blocks over the batch
        monkeypatch.setattr(geometry, "_BLOCK_ROWS", block_rows)
    group = [dataclasses.replace(s) for s in members]  # no memoized tables
    reaches = [offset_reach(s, c) for s, c in zip(group, cutoffs)]
    assert len({r for r, ok in zip(reaches, fits) if ok}) >= 3
    kernel_passes.clear()
    with shared_pair_pass(group):
        first = table_or_error(query, group[0])
        # the first miss built every member that fits at its own cutoff, in
        # one pass per offset reach; a degenerate or over-budget one waits
        assert ["_pair_table" in s.__dict__ for s in group] == fits
        got = [first] + [table_or_error(query, s) for s in group[1:]]
    passes = sorted(tuple(map(float, reach)) for _, _, reach in kernel_passes)
    assert passes == sorted({r for r, ok in zip(reaches, fits) if ok})
    for want, have in zip(alone, got):
        if isinstance(want, str):  # the same error as alone, on its own call
            assert have == want
            continue
        assert len(have) == len(want)
        for col in ("i", "j", "image"):
            assert np.array_equal(getattr(have, col), getattr(want, col))
        assert have.distance.tobytes() == want.distance.tobytes()
    assert not any("_pair_group" in s.__dict__ for s in group)


def test_shared_pass_miss_builds_every_member_without_a_table(kernel_passes):
    # one cell, so every member has the same offset reach; the sizes differ
    rng = np.random.default_rng(47)
    members = [
        make_structure(["Cu", "O", "Zn", "Pt"][:n] * 2, rng.random((2 * n, 3)),
                       lengths=(7.0, 7.5, 8.0))
        for n in (1, 2, 3, 4, 1)
    ]
    cutoff = 3.0
    alone = [geometry._pair_table(dataclasses.replace(s), cutoff) for s in members]
    group = [dataclasses.replace(s) for s in members]
    assert len({offset_reach(s, cutoff) for s in group}) == 1
    geometry._pair_table(group[3], 1.0)  # a narrower table than the group asks for
    kernel_passes.clear()
    with shared_pair_pass(group):
        got = [geometry._pair_table(group[1], cutoff)]
        # the first miss built every other member, whatever its size, but
        # left the one that had a table
        [(built, _, _)] = kernel_passes
        assert sorted(map(id, built)) == sorted(id(group[k]) for k in (0, 1, 2, 4))
        assert group[3].__dict__["_pair_table"][0] == 1.0
        got = [geometry._pair_table(group[0], cutoff)] + got
        got += [geometry._pair_table(s, cutoff) for s in group[2:]]
    assert [len(built) for built, _, _ in kernel_passes] == [4, 1]
    for want, have in zip(alone, got):
        for col in ("i", "j", "image"):
            assert np.array_equal(getattr(have, col), getattr(want, col))
        assert have.distance.tobytes() == want.distance.tobytes()


@pytest.mark.parametrize("cutoff", [1.98, 6.0])
def test_shared_pass_of_pre_pruned_members(monkeypatch, cutoff):
    # small blocks: each 128-site triangle spans several pair blocks, each
    # pruned axis by axis before its image masks
    first = many_site_structure(128)
    frac = np.random.default_rng(53).random((128, 3))
    members = [first, dataclasses.replace(first, frac=frac)]  # one offset reach
    alone = [geometry._pair_table(dataclasses.replace(s), cutoff) for s in members]
    monkeypatch.setattr(geometry, "_BLOCK_ROWS", 2048)
    group = [dataclasses.replace(s) for s in members]
    with shared_pair_pass(group):
        got = [geometry._pair_table(group[0], cutoff)]
        assert "_pair_table" in group[1].__dict__  # built in the same pass
        got.append(geometry._pair_table(group[1], cutoff))
    for want, have in zip(alone, got):
        assert len(have) == len(want) > 0
        for col in ("i", "j", "image"):
            assert np.array_equal(getattr(have, col), getattr(want, col))
        assert have.distance.tobytes() == want.distance.tobytes()


def six_site_members(n):
    """`n` six-site members of one offset reach at 2 and at 6 A: the first has
    no pair within 2 A, the second a coincident pair, the rest are random."""
    rng = np.random.default_rng(61)
    species = ["Cu", "O"] * 3
    spread = [(0, 0, 0), (0.5, 0, 0), (0, 0.5, 0), (0, 0, 0.5), (0.5, 0.5, 0), (0.5, 0.5, 0.5)]
    coincident = rng.random((6, 3))
    coincident[3] = coincident[0]
    members = [
        make_structure(species, spread, lengths=(5.8, 5.9, 6.0)),
        make_structure(species, coincident, lengths=(5.8, 5.9, 6.0)),
    ]
    members += [
        make_structure(species, rng.random((6, 3)), lengths=rng.uniform(5.6, 6.0, size=3))
        for _ in range(n - 2)
    ]
    return members


@pytest.mark.parametrize("cutoff", [2.0, 6.0])
@pytest.mark.parametrize("batch", [1, 16, 64])
def test_shared_pass_members_get_their_own_rows(cutoff, batch):
    members = six_site_members(64)
    alone = [geometry._pair_table(dataclasses.replace(s), cutoff) for s in members]
    assert (len(alone[0]) == 0) == (cutoff == 2.0)
    assert 0.0 in alone[1].distance.tolist()
    group = [dataclasses.replace(s) for s in members]
    for lo in range(0, len(group), batch):
        with shared_pair_pass(group[lo : lo + batch]):
            geometry._pair_table(group[lo], cutoff)
            # the first miss built every member of the batch
            assert all("_pair_table" in s.__dict__ for s in group[lo : lo + batch])
    for s, want in zip(group, alone):
        have = geometry._pair_table(s, cutoff)
        for col in ("i", "j", "image", "distance"):
            got = getattr(have, col)
            assert got.tobytes() == getattr(want, col).tobytes()
            assert got.dtype == getattr(want, col).dtype
            # a member's columns may be views of its pass's arrays: none can
            # be written, so no member can change a sibling's table
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[...] = 0


def box_mask_table(structure, cutoff):
    """The reference for the kernel's sphere walk: the dense box mask it replaced.

    Every offset of the reach box is laid out for every site pair, kept where
    each axis's slab bound holds, and measured as the kernel measures, so the
    rows within the cutoff must match the kernel's bit for bit.
    """
    matrix = structure.lattice.matrix
    spacings = geometry._slab_spacings(matrix)
    bound = cutoff / spacings * (1.0 + geometry._BOUND_SLACK)
    reach = np.ceil(cutoff / spacings + 0.5).astype(int)
    offsets = np.indices(2 * reach + 1).reshape(3, -1).T - reach
    i, j = np.triu_indices(len(structure))
    delta = structure.frac[j] - structure.frac[i]
    hit = np.all(np.abs(delta[:, None, :] + offsets) <= bound, axis=2)
    hit[i == j, : len(offsets) // 2 + 1] = False  # the zero offset and those before it
    p, k = np.nonzero(hit)
    cart = (delta[p] + offsets[k]) @ matrix
    dist = np.sqrt((cart * cart).sum(axis=1))
    keep = dist <= cutoff
    return geometry.PairTable(i[p][keep], j[p][keep], offsets[k][keep], dist[keep])


def at_cutoff(structure, i, j, image, cutoff=12.0):
    """The distance of one image, as the kernel measures it: a cutoff exactly at it."""
    table = box_mask_table(structure, cutoff)
    row = (table.i == i) & (table.j == j) & np.all(table.image == image, axis=1)
    [dist] = table.distance[row].tolist()
    return dist


def budget_cutoff(structure):
    """Nearly the largest cutoff whose offset box fits the image budget."""
    spacings = geometry._slab_spacings(structure.lattice.matrix)
    lo, hi = 0.1, 100.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        fits = np.prod(2.0 * np.ceil(mid / spacings + 0.5) + 1.0) <= MAX_IMAGES
        lo, hi = (mid, hi) if fits else (lo, mid)
    return lo


def sphere_walk_cases():
    """(structure, cutoff) pairs: cell shapes, sizes and cutoffs where a slice of
    the cutoff sphere is wide, narrow or of zero width."""
    rng = np.random.default_rng(71)
    cases = []
    for _ in range(24):  # any cell shape, 1-8 sites
        s = random_structure(rng)
        cases += [(s, 6.0), (s, float(rng.uniform(1.5, 9.0)))]
    for n in (6, 24):  # near-cubic
        lengths = rng.uniform(5.0, 5.4, size=3) * (n / 6) ** (1 / 3)
        s = make_structure(["Cu", "O"] * (n // 2), rng.random((n, 3)),
                           lengths=lengths, angles=rng.uniform(88.0, 92.0, size=3))
        cases += [(s, 6.0), (s, 1.98)]
    cases += [
        (many_site_structure(64), 6.0),
        (many_site_structure(128), 1.98),
        (many_site_structure(128, slab=True), 6.0),
    ]
    # strongly skewed cells near the image budget, where the split of the
    # metric is worst conditioned
    for angles in ((78, 96, 25), (30, 35, 40), (150, 140, 35)):
        s = make_structure(["Cu", "O", "Cu"], rng.random((3, 3)),
                           lengths=(1.0, 1.1, 1.2), angles=angles)
        cases.append((s, budget_cutoff(s)))
    # images exactly at the cutoff along a face and a body diagonal: the
    # sphere touches them, so a y or a z slice has zero width
    one = make_structure(["Cu"], [(0.2, 0.7, 0.1)], lengths=(3.0, 3.0, 3.0))
    two = make_structure(["Cu", "O"], [(0, 0, 0), (0.5, 0.5, 0.5)], lengths=(4.0, 4.0, 4.0))
    skewed = make_structure(["Cu", "O", "Pt"], rng.random((3, 3)),
                            lengths=(5.0, 5.5, 6.0), angles=(78, 96, 25))
    cases += [
        (one, at_cutoff(one, 0, 0, (1, 1, 0))),
        (one, at_cutoff(one, 0, 0, (1, 1, 1))),
        (two, at_cutoff(two, 0, 1, (0, 0, 0))),
        (two, at_cutoff(two, 0, 0, (1, 0, -1))),
        (skewed, at_cutoff(skewed, 0, 2, (1, -1, 1))),
        (skewed, at_cutoff(skewed, 1, 1, (0, 1, 1))),
    ]
    # coincident pairs and self-images
    coincident = make_structure(
        ["Cu", "Cu", "O", "O"],
        [(0.3, 0.3, 0.3), (0.3, 0.3, 0.3), (0.6, 0.5, 0.4), (0.6, 0.5, 0.4 + 1e-12)],
        lengths=(2.5, 2.7, 3.1), angles=(80, 95, 60),
    )
    cases += [(coincident, 6.0), (coincident, 0.5)]
    for n in (30, 80):  # thin cells: self pairs in reach at 6 A, not at 2.5 A
        thin = make_structure(["Cu", "O"] * (n // 2), rng.random((n, 3)),
                              lengths=(12.0, 11.0, 3.5), angles=(90, 95, 60))
        cases += [(thin, 6.0), (thin, 2.5)]
    return cases


@pytest.mark.parametrize("block_rows", [None, 64])
def test_sphere_walk_tables_equal_the_box_mask(monkeypatch, block_rows):
    cases = sphere_walk_cases()
    assert len(cases) >= 64
    want = [box_mask_table(s, c) for s, c in cases]
    if block_rows is not None:  # many blocks and steps over each pass; a
        # triangle of over 11 sites is read off its flat pair index
        monkeypatch.setattr(geometry, "_BLOCK_ROWS", block_rows)
    compared = 0
    for batch in (1, 16, 64):  # alone, and in shared passes
        group = [dataclasses.replace(s) for s, _ in cases]  # no memoized tables
        cutoff = {id(s): c for s, (_, c) in zip(group, cases)}

        def own(s):  # each member at its own cutoff
            return cutoff[id(s)]

        for lo in range(0, len(group), batch):
            with shared_pair_pass(group[lo : lo + batch]):
                got = [geometry._pair_table(s, own(s), own) for s in group[lo : lo + batch]]
            for have, ref in zip(got, want[lo : lo + batch]):
                for col in ("i", "j", "image"):
                    assert np.array_equal(getattr(have, col), getattr(ref, col))
                    assert getattr(have, col).dtype == getattr(ref, col).dtype
                assert have.distance.tobytes() == ref.distance.tobytes()
                compared += 1
    assert compared == 3 * len(cases)


def test_a_cu4o2_pass_measures_only_the_images_in_the_sphere(measured_images):
    generator = MutationGenerator()
    group = [
        parse_cif(generator.propose(None, {"Cu": 4, "O": 2}, seed)).structure
        for seed in range(16)
    ]
    with shared_pair_pass(group):
        iter_periodic_pairs(group[0], 6.0)
    kept = sum(len(iter_periodic_pairs(s, 6.0)) for s in group)
    # the box mask measured 4,432 images of a 42,000-cell mask for these rows
    assert measured_images == [1170] and kept == 1170


@pytest.mark.parametrize("block_rows", [None, 64])
def test_pair_blocks_list_self_pairs_only_where_in_reach(monkeypatch, block_rows):
    if block_rows is not None:  # blocks of 8 rows: every triangle is split
        monkeypatch.setattr(geometry, "_BLOCK_ROWS", block_rows)
    sizes, self_reach = [4, 4, 1, 6, 6, 6], [True, False, False, True, True, False]
    first = np.array([0, *itertools.accumulate(sizes[:-1])])
    blocks = list(geometry._pair_blocks(first, sizes, self_reach))
    assert all(len(m) <= geometry._BLOCK_ROWS // 8 for m, _, _ in blocks)
    rows = [tuple(row) for b in blocks for row in zip(*(a.tolist() for a in b))]
    want = [
        (m, i + first[m], j + first[m])
        for m, (n, self_pairs) in enumerate(zip(sizes, self_reach))
        for i, j in zip(*np.triu_indices(n, 0 if self_pairs else 1))
    ]
    assert rows == want


def test_triangle_cache_is_read_only_and_bounded(monkeypatch):
    for n in (1, 6, 128):
        pi, pj = geometry._triangle(n, True)
        want_i, want_j = np.triu_indices(n)
        assert np.array_equal(pi, want_i) and np.array_equal(pj, want_j)
        assert not pi.flags.writeable and not pj.flags.writeable
        assert geometry._triangle(n, True)[0] is pi  # cached
        strict = geometry._triangle(n, False)
        assert all(np.array_equal(a, b) for a, b in zip(strict, np.triu_indices(n, 1)))
    # 362 sites have 65,703 pairs, over the limit of 65,536: `_pair_blocks`
    # reads them off the flat pair index and never asks for the triangle
    asked = []
    triangle = geometry._triangle

    def record(n, self_pairs):
        asked.append(n)
        return triangle(n, self_pairs)

    monkeypatch.setattr(geometry, "_triangle", record)
    for self_pairs, n in ((True, 362), (False, 363), (False, 362)):
        blocks = list(geometry._pair_blocks(np.array([0, n]), [n, n], [self_pairs] * 2))
        rows = [np.concatenate(c) for c in zip(*blocks)]
        want = np.triu_indices(n, 0 if self_pairs else 1)
        assert np.array_equal(rows[0], np.repeat([0, 1], len(want[0])))
        for got, ref in zip(rows[1:], want):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, np.concatenate([ref, ref + n]))
    assert asked == [362]  # the strict 362-site triangle has 65,341 pairs


def test_a_sparse_many_site_cell_is_scored_in_bounded_memory(traced_peak):
    # 3000 Cu sites at 20 cubic angstroms each: few rows, but a 4.5M-pair
    # triangle, which laid out whole would peak near 78 MiB
    rng = np.random.default_rng(3000)
    n = 3000
    edge = (20.0 * n) ** (1 / 3)
    text = serialize_cif(make_structure(["Cu"] * n, rng.random((n, 3)), lengths=(edge,) * 3))
    assert traced_peak(lambda: pvcp(text, {"Cu": n})) < 10.0


def test_shared_pass_ungroups_on_exception():
    rng = np.random.default_rng(47)
    group = batch_members(rng)
    degenerate = next(s for s in group if s.lattice.volume < 1e-6)
    with pytest.raises(DegenerateCellError):
        with shared_pair_pass(group):
            first = pairs(group[0], 6.0)
            iter_periodic_pairs(degenerate, 6.0)
    assert not any("_pair_group" in s.__dict__ for s in group)
    assert first == pairs(dataclasses.replace(group[0]), 6.0)


def test_min_image_beyond_shortest_lattice_vector():
    # long, thin cell: the other atom's nearest image is 20 A away, far
    # beyond the 3 A rows that bound every self-image
    s = make_structure(
        ["Cu", "O"], [(0, 0, 0), (0.5, 0.5, 0.5)], lengths=(3.0, 3.0, 40.0)
    )
    want = brute_force_min_image(s, 0, 1)
    assert want == pytest.approx(np.sqrt(2 * 1.5**2 + 20.0**2))
    assert min_image_distance(s, 0, 1) == pytest.approx(want, abs=1e-12)
    assert min_image_distance(s, 1, 0) == pytest.approx(want, abs=1e-12)
    assert min_pair_distance(s) == pytest.approx(3.0)


def test_cubic_known_distances():
    s = make_structure(
        ["Na", "Cl"], [(0, 0, 0), (0.5, 0.5, 0.5)], lengths=(4.0, 4.0, 4.0)
    )
    assert min_image_distance(s, 0, 1) == pytest.approx(4.0 * np.sqrt(3) / 2, abs=1e-12)
    # self-image distance equals the lattice constant
    assert min_image_distance(s, 0, 0) == pytest.approx(4.0, abs=1e-12)


def test_single_site_cubic_self_distance():
    s = make_structure(["Cu"], [(0.2, 0.7, 0.1)], lengths=(3.0, 3.0, 3.0))
    assert min_image_distance(s, 0, 0) == pytest.approx(3.0, abs=1e-12)
    assert min_pair_distance(s) == pytest.approx(3.0, abs=1e-12)


def test_wrap_invariance():
    # same physical configuration expressed with different representatives
    s1 = make_structure(["Cu", "O"], [(0.05, 0.05, 0.05), (0.95, 0.95, 0.95)])
    s2 = make_structure(["Cu", "O"], [(0.05, 0.05, 0.05), (-0.05, -0.05, -0.05)])
    assert min_image_distance(s1, 0, 1) == pytest.approx(
        min_image_distance(s2, 0, 1), abs=1e-12
    )


def test_sheared_cell_beats_naive_search():
    # strongly sheared cell: the nearest image needs a multi-cell offset
    lat = Lattice.from_matrix(
        np.array([[5.0, 0.0, 0.0], [4.9, 0.8, 0.0], [0.0, 0.0, 9.0]])
    )
    s = make_structure(
        ["Cu", "Cu"],
        [(0.0, 0.0, 0.0), (0.5, 0.5, 0.0)],
        lengths=lat.lengths,
        angles=lat.angles,
    )
    assert min_image_distance(s, 0, 1) == pytest.approx(
        brute_force_min_image(s, 0, 1), abs=1e-9
    )
    assert min_image_distance(s, 0, 0) == pytest.approx(
        brute_force_min_image(s, 0, 0), abs=1e-9
    )


def test_min_image_matches_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(60):
        s = random_structure(rng, max_sites=5)
        n = len(s)
        got = {(i, j): min_image_distance(s, i, j) for i in range(n) for j in range(n)}
        # the kernel's own arithmetic gives bit-equal minima, in either order
        best: dict[tuple[int, int], float] = {}
        for i, j, _, dist in brute_force_pairs(s, max(got.values()) * (1 + 1e-9)):
            best[i, j] = min(best.get((i, j), dist), dist)
        for (i, j), dist in got.items():
            assert abs(dist - brute_force_min_image(s, i, j)) <= 1e-9, (s.lattice, i, j)
            assert dist == best[min(i, j), max(i, j)], (s.lattice, i, j)


def test_min_pair_distance_overlapping():
    s = make_structure(["Cu", "Cu"], [(0.3, 0.3, 0.3), (0.3, 0.3, 0.3)])
    assert min_pair_distance(s) == pytest.approx(0.0, abs=1e-12)


def test_index_errors():
    s = make_structure(["Cu"], [(0, 0, 0)])
    with pytest.raises(IndexError):
        min_image_distance(s, 0, 1)


def test_degenerate_cell_raises():
    s = make_structure(["Cu"], [(0, 0, 0)], lengths=(0.005, 0.005, 0.005))
    assert s.lattice.volume < 1e-6
    with pytest.raises(DegenerateCellError):
        min_image_distance(s, 0, 0)
    # at every cutoff or scale, also one that selects no pair
    for call in (
        lambda: build_neighbor_list(s),
        lambda: build_neighbor_list(s, 0.0),
        lambda: iter_periodic_pairs(s, 0.0),
        lambda: covalent_pairs(s, 0.0),
        lambda: covalent_pairs(s, -1.0),
    ):
        with pytest.raises(DegenerateCellError):
            call()
    # volume_per_atom has no distance semantics and stays defined
    assert volume_per_atom(s) == pytest.approx(0.005**3)


def test_volume_per_atom():
    s = make_structure(
        ["Cu", "Cu", "O", "O"],
        [(0, 0, 0), (0.5, 0.5, 0), (0.5, 0, 0.5), (0, 0.5, 0.5)],
        lengths=(4.0, 4.0, 4.0),
    )
    assert volume_per_atom(s) == pytest.approx(16.0)


# ---------------------------------------------------------------------------
# neighbor lists


def test_neighbor_list_simple_dimer():
    # two Cu atoms 2.5 A apart in a large box: exactly one bond, two entries
    s = make_structure(["Cu", "Cu"], [(0, 0, 0), (0.125, 0, 0)], lengths=(20, 20, 20))
    nl = build_neighbor_list(s)
    assert len(nl) == 2
    (e1, e2) = pair_tuples(nl)
    assert e1[:3] == (0, 1, (0, 0, 0))
    assert e2[:3] == (1, 0, (0, 0, 0))
    assert e1[3] == pytest.approx(2.5)


def test_neighbor_list_symmetry_and_cutoffs():
    rng = np.random.default_rng(5)
    scale = 1.2
    for _ in range(25):
        s = random_structure(rng, max_sites=6)
        rows = pair_tuples(build_neighbor_list(s, scale=scale))
        entries = {(i, j, image) for i, j, image, _ in rows}
        assert len(entries) == len(rows)  # no duplicates
        for i, j, image, dist in rows:
            mirror = (j, i, (-image[0], -image[1], -image[2]))
            assert mirror in entries
            r_i = COVALENT_RADII[s.elements[i]]
            r_j = COVALENT_RADII[s.elements[j]]
            assert dist <= scale * (r_i + r_j) + 1e-12


def test_neighbor_list_counts_match_brute(minimal_cif=None):
    rng = np.random.default_rng(6)
    for _ in range(20):
        s = random_structure(rng, max_sites=4)
        nl = build_neighbor_list(s)
        # brute force count: scan a generous offset block per ordered pair
        n = len(s)
        frac = s.frac
        m = s.lattice.matrix
        count = 0
        for i in range(n):
            r_i = COVALENT_RADII[s.elements[i]]
            for j in range(n):
                r_j = COVALENT_RADII[s.elements[j]]
                cut = 1.2 * (r_i + r_j)
                for off in itertools.product(range(-4, 5), repeat=3):
                    if i == j and off == (0, 0, 0):
                        continue
                    d = np.linalg.norm((frac[j] - frac[i] + np.array(off)) @ m)
                    if d <= cut:
                        count += 1
        assert len(nl) == count


def test_neighbor_list_self_images():
    # one atom in a tight cell is its own neighbor through the boundary
    s = make_structure(["Cu"], [(0, 0, 0)], lengths=(2.8, 20.0, 20.0))
    rows = pair_tuples(build_neighbor_list(s))
    assert {image for _, _, image, _ in rows} == {(1, 0, 0), (-1, 0, 0)}
    assert all(i == 0 and j == 0 for i, j, _, _ in rows)


def test_neighbor_scale_limit():
    s = make_structure(["Cu", "Cu"], [(0, 0, 0), (0.125, 0, 0)], lengths=(20, 20, 20))
    assert len(build_neighbor_list(s, scale=1e-6)) == 0
    assert len(build_neighbor_list(s, scale=0.0)) == 0


def test_neighbor_list_sorted():
    s = make_structure(
        ["Cu", "Cu", "Cu"],
        [(0, 0, 0), (0.15, 0, 0), (0.3, 0, 0)],
        lengths=(16, 16, 16),
    )
    rows = pair_tuples(build_neighbor_list(s))
    assert rows == sorted(rows)
    # the same rows as the oracle's pairs plus their mirrors, bit for bit
    r = np.array([COVALENT_RADII[e] for e in s.elements])
    half = brute_force_pairs(s, 1.2 * (r[:, None] + r[None, :]))
    mirrored = [(j, i, tuple(-v for v in image), d) for i, j, image, d in half]
    assert rows == sorted(half + mirrored)


def test_iter_periodic_pairs_canonical():
    s = make_structure(["Cu", "Cu"], [(0, 0, 0), (0.5, 0.5, 0.5)], lengths=(3, 3, 3))
    got = pairs(s, 4.0)
    for i, j, image, dist in got:
        assert i <= j
        if i == j:
            first_nonzero = next(v for v in image if v != 0)
            assert first_nonzero > 0
        assert dist <= 4.0
    assert len(got) == len({(i, j, img) for i, j, img, _ in got})
