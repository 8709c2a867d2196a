"""
Periodic distances and neighbor lists
=====================================
"""

import numpy as np

from catloop import (
    Lattice,
    Structure,
    build_neighbor_list,
    min_image_distance,
    min_pair_distance,
    volume_per_atom,
)

# rock-salt-ish toy cell (compressed so covalent bonds register)
lat = Lattice(a=3.3, b=3.3, c=3.3, alpha=90, beta=90, gamma=90)
s = Structure(
    lattice=lat,
    labels=("Na1", "Cl1"),
    elements=("Na", "Cl"),
    frac=[(0.0, 0.0, 0.0), (0.5, 0.5, 0.5)],
    space_group_symbol="P 1",
)

print("cell volume:", lat.volume)
print("volume per atom:", volume_per_atom(s))
print("Na-Cl minimum-image distance:", min_image_distance(s, 0, 1))
print("Na self-image distance:", min_image_distance(s, 0, 0))
print("shortest distance overall:", min_pair_distance(s))

# a strongly sheared cell: the b vector is almost parallel to a, so the
# nearest periodic image of a site is not in an adjacent cell of the naive
# (-1, 0, 1) scan you might write first
m = np.array([[5.0, 0.0, 0.0], [4.9, 0.8, 0.0], [0.0, 0.0, 9.0]])
sheared = Structure(
    lattice=Lattice.from_matrix(m),
    labels=("Cu1", "Cu2"),
    elements=("Cu", "Cu"),
    frac=[(0.0, 0.0, 0.0), (0.5, 0.5, 0.0)],
    space_group_symbol="P 1",
)
print("\nsheared cell lengths/angles:",
      np.round(sheared.lattice.lengths, 3), np.round(sheared.lattice.angles, 2))
print("Cu-Cu minimum-image distance:", round(min_image_distance(sheared, 0, 1), 6))

# neighbor list: bonded iff distance <= scale * (r_i + r_j).  It is a
# PairTable: one array per column, one row per directed neighbor entry.
nl = build_neighbor_list(s, scale=1.2)
print(f"\nneighbor entries at scale 1.2: {len(nl)}")
for i, j, image, d in zip(nl.i[:6], nl.j[:6], nl.image[:6].tolist(), nl.distance[:6]):
    print(f"  {i} -> {j} image={tuple(image)} d={d:.3f}")

print("\nneighbors of site 0:")
row = nl.i == 0
for j, image, d in zip(nl.j[row], nl.image[row].tolist(), nl.distance[row]):
    print(f"  j={j} image={tuple(image)} d={d:.3f}")
