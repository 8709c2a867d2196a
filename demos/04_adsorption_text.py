"""
Rendering an adsorption system as text
======================================

A slab structure plus sidecar metadata (which sites are the adsorbate,
which form the top surface layer) becomes a three-part string: adsorbate,
surface, and the bonded contact map.
"""

from dataclasses import replace

from catloop import (
    Lattice,
    Structure,
    SystemMetadata,
    find_interaction_atoms,
    to_system_text,
)

# Cu(100)-style 2x2 slab, H sitting on top of the corner atom
a, c = 5.1, 12.0
top, sub, h = 6.0 / c, 4.2 / c, 7.4 / c
corners = [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)]
slab = Structure(
    lattice=Lattice(a, a, c, 90, 90, 90),
    labels=tuple(f"Cu{k}" for k in range(1, 9)) + ("H1",),
    elements=("Cu",) * 8 + ("H",),
    frac=[(x, y, top) for x, y in corners]
    + [(x, y, sub) for x, y in corners]
    + [(0.0, 0.0, h)],
    space_group_symbol="P 1",
)

meta = SystemMetadata(
    adsorbate_indices=frozenset({8}),
    surface_top_indices=frozenset({0, 1, 2, 3}),
    catalyst_composition={"Cu": 8},
    miller_index=(1, 0, 0),
)

primary, secondary = find_interaction_atoms(slab, meta)
print("primary interaction sites:  ", [slab.labels[i] for i in primary])
print("secondary interaction sites:", [slab.labels[i] for i in secondary])

text = to_system_text(slab, meta)
print("\nadsorbate part:    ", text.adsorbate_part)
print("surface part:      ", text.surface_part)
print("configuration part:", text.configuration_part)
print("\njoined:")
print(text.joined)

# lift the H far above the surface: no bonds, so no contact map
frac = slab.frac.copy()
frac[8] = (0.0, 0.0, 0.9)
lifted = replace(slab, frac=frac)
print("\nwith the adsorbate lifted away:")
print(to_system_text(lifted, meta).configuration_part)
