"""Mass masks shared by the 2D Hessian and the condensed-solve tests."""

import numpy as np

MASK_KINDS = ("disk", "ring", "boundary", "single", "full", "empty")


def masked_rho0(grid, kind, seed):
    """A positive random density on one of the mask shapes, zero elsewhere."""
    rng = np.random.default_rng(seed)
    ny, nx = grid.node_shape
    ii, jj = np.mgrid[0:ny, 0:nx]
    radius = np.hypot((ii - ny / 2.0) / ny, (jj - nx / 2.0) / nx)
    mask = {
        "disk": radius < 0.25,
        "ring": (radius > 0.15) & (radius < 0.35),
        # mass on the pinned ring and on the interior nodes next to it
        "boundary": (ii <= 1) | (jj >= nx - 2),
        "single": (ii == ny // 2) & (jj == nx // 2),
        "full": np.ones((ny, nx), dtype=bool),
        "empty": np.zeros((ny, nx), dtype=bool),
    }[kind]
    return np.where(mask, rng.uniform(0.2, 1.5, (ny, nx)), 0.0)
