"""Reference computations made apart from the program under test.

Nothing here imports `catloop`.  Cells are handled through their metric
tensor, so squared distances are f^T G f over fractional displacements, and
every image search is an exhaustive scan of a box proven large enough.
"""

from __future__ import annotations

import math

import numpy as np

# Covalent radii in angstroms (Cordero et al., Dalton Trans. 2008) for the
# elements the workloads use.
RADII = {"H": 0.31, "C": 0.76, "O": 0.66, "Ni": 1.24, "Cu": 1.32,
         "Pd": 1.39, "Pt": 1.36}


def metric_tensor(lengths, angles_deg) -> np.ndarray:
    a, b, c = lengths
    ca, cb, cg = (math.cos(math.radians(x)) for x in angles_deg)
    return np.array([[a * a, a * b * cg, a * c * cb],
                     [a * b * cg, b * b, b * c * ca],
                     [a * c * cb, b * c * ca, c * c]])


def read_cif(text: str) -> tuple[tuple, tuple, list[str], np.ndarray]:
    """Cell lengths, angles, elements and fractional coordinates of a P1 CIF.

    Reads the subset every file in this benchmark uses: the six cell tags
    and one atom-site loop with label, symbol and three coordinates.
    """
    cell: dict[str, float] = {}
    elements: list[str] = []
    coords: list[list[float]] = []
    in_loop = False
    for line in text.splitlines():
        words = line.split()
        if not words:
            continue
        if words[0].startswith("_cell_"):
            cell[words[0]] = float(words[1])
        elif words[0] == "loop_":
            in_loop = True
        elif in_loop and not words[0].startswith("_") and len(words) == 5:
            elements.append(words[1])
            coords.append([float(w) for w in words[2:]])
    lengths = tuple(cell[f"_cell_length_{k}"] for k in "abc")
    angles = tuple(cell[f"_cell_angle_{k}"] for k in ("alpha", "beta", "gamma"))
    return lengths, angles, elements, np.array(coords)


def _image_box(g: np.ndarray, reach: float) -> np.ndarray:
    """Every integer offset that can hold an image within `reach`.

    With displacements first reduced to [-0.5, 0.5), an offset whose
    component along axis k exceeds reach / spacing_k + 0.5 puts the image
    farther than `reach`; spacing_k is the distance between lattice planes
    normal to axis k, 1 / sqrt((G^-1)_kk).
    """
    spacing = 1.0 / np.sqrt(np.diag(np.linalg.inv(g)))
    n = np.ceil(reach / spacing + 0.5).astype(int)
    axes = [np.arange(-m, m + 1) for m in n]
    return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3).astype(float)


def _pair_distances(g: np.ndarray, frac: np.ndarray, reach: float) -> np.ndarray:
    """d[i, j, k]: distance from site i to site j shifted by image offset k.

    Covers every offset that can lie within `reach`; the zero-offset self
    term is set to infinity.
    """
    delta = frac[None, :, :] - frac[:, None, :]
    delta -= np.round(delta)
    offsets = _image_box(g, reach)
    disp = delta[:, :, None, :] + offsets[None, None, :, :]
    d2 = np.einsum("ijka,ab,ijkb->ijk", disp, g, disp)
    d = np.sqrt(np.maximum(d2, 0.0))
    n = len(frac)
    zero = np.flatnonzero(np.all(offsets == 0.0, axis=1))[0]
    d[np.arange(n), np.arange(n), zero] = np.inf
    return d


def min_pair_distance(lengths, angles, frac: np.ndarray) -> float:
    """Smallest distance between any two sites or a site and its own image.

    The shortest cell edge bounds the answer (a site's image along that
    edge sits that far), so images beyond it never matter.
    """
    g = metric_tensor(lengths, angles)
    reach = float(np.sqrt(np.min(np.diag(g))))
    d = _pair_distances(g, frac, reach)
    return float(np.min(d))


def neighbor_count(lengths, angles, elements, frac: np.ndarray, scale: float) -> int:
    """Directed (i, j, image) entries within scale * (r_i + r_j)."""
    r = np.array([RADII[e] for e in elements])
    cut = scale * (r[:, None] + r[None, :])
    g = metric_tensor(lengths, angles)
    d = _pair_distances(g, frac, float(np.max(cut)))
    return int(np.count_nonzero(d <= cut[:, :, None]))


def pair_potential_energy(lengths, angles, elements, frac: np.ndarray,
                          depth_scale: float = 0.4, cutoff: float = 6.0,
                          bond_cap: float = 1e3) -> float:
    """12-6 energy summed over every pair and image within `cutoff`.

    The well minimum sits at r_i + r_j with depth depth_scale * (r_i + r_j)
    / 2; each term is capped at `bond_cap`.  Every ordered pair is visited,
    so the sum is halved to count each physical pair once.
    """
    r = np.array([RADII[e] for e in elements])
    rsum = r[:, None] + r[None, :]
    g = metric_tensor(lengths, angles)
    d = _pair_distances(g, frac, cutoff)
    eps = (depth_scale * rsum / 2.0)[:, :, None]
    sigma = (rsum / 2.0 ** (1.0 / 6.0))[:, :, None]
    inside = d <= cutoff
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x6 = (sigma / d) ** 6
        term = np.minimum(bond_cap, 4.0 * eps * (x6 * x6 - x6))
    term = np.where(d < 1e-9, bond_cap, term)
    return float(np.sum(np.where(inside, term, 0.0)) / 2.0)
