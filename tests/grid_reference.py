"""The whole-sphere latitude-longitude grid, reference for the projective grid
and the grid oracles that range over it."""

import numpy as np


def sphere_grid(resolution: int) -> np.ndarray:
    """Latitude-longitude grid: (resolution+1) latitudes, 2*resolution longitudes."""
    theta = np.linspace(0.0, np.pi, resolution + 1)
    phi = np.arange(2 * resolution) * (np.pi / resolution)
    st, ct = np.sin(theta), np.cos(theta)
    pts = np.empty(((resolution + 1) * 2 * resolution, 3))
    pts[:, 0] = np.outer(st, np.cos(phi)).ravel()
    pts[:, 1] = np.outer(st, np.sin(phi)).ravel()
    pts[:, 2] = np.repeat(ct, 2 * resolution)
    return pts
