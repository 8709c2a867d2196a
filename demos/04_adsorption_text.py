"""
Rendering an adsorption system as text
======================================

A slab structure plus sidecar metadata (which sites are the adsorbate,
which form the top surface layer) becomes a three-part string: adsorbate,
surface, and the bonded contact map.
"""

from catloop import (
    AtomSite,
    Lattice,
    Structure,
    SystemMetadata,
    find_interaction_atoms,
    to_system_text,
)

# Cu(100)-style 2x2 slab, H sitting on top of the corner atom
a, c = 5.1, 12.0
top, sub, h = 6.0 / c, 4.2 / c, 7.4 / c
sites = []
for k, (x, y) in enumerate([(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)]):
    sites.append(AtomSite(f"Cu{k+1}", "Cu", (x, y, top)))
for k, (x, y) in enumerate([(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)]):
    sites.append(AtomSite(f"Cu{k+5}", "Cu", (x, y, sub)))
sites.append(AtomSite("H1", "H", (0.0, 0.0, h)))

slab = Structure(
    lattice=Lattice(a, a, c, 90, 90, 90),
    sites=tuple(sites),
    space_group_symbol="P 1",
)

meta = SystemMetadata(
    adsorbate_indices=frozenset({8}),
    surface_top_indices=frozenset({0, 1, 2, 3}),
    catalyst_composition={"Cu": 8},
    miller_index=(1, 0, 0),
)

primary, secondary = find_interaction_atoms(slab, meta)
print("primary interaction sites:  ", [slab.sites[i].label for i in primary])
print("secondary interaction sites:", [slab.sites[i].label for i in secondary])

text = to_system_text(slab, meta)
print("\nadsorbate part:    ", text.adsorbate_part)
print("surface part:      ", text.surface_part)
print("configuration part:", text.configuration_part)
print("\njoined:")
print(text.joined)

# lift the H far above the surface: no bonds, so no contact map
lifted = Structure(
    lattice=slab.lattice,
    sites=slab.sites[:8] + (AtomSite("H1", "H", (0.0, 0.0, 0.9)),),
    space_group_symbol="P 1",
)
print("\nwith the adsorbate lifted away:")
print(to_system_text(lifted, meta).configuration_part)
