"""Banded linear solves, straight to LAPACK.

``solve_banded`` keeps ``scipy.linalg.solve_banded``'s contract for the real
float64 systems the 1D solvers make: the same band layout
(``ab[u + i - j, j] == a[i, j]``), the same LAPACK routine (``dgtsv`` for
one band either side, ``dgbsv`` otherwise, Anderson et al., *LAPACK Users'
Guide*, SIAM 1999), the same results bit for bit and the same errors.  It
skips scipy's generic validation, its routine lookup on every call and, for
``dgbsv``, the copy of the work array into Fortran order.  A 1D Newton
iteration makes one such solve on a few hundred unknowns, where that
wrapper cost more than the tridiagonal LAPACK solve itself.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgbsv, dgtsv

__all__ = ["solve_banded"]


def _finite(name, a) -> np.ndarray:
    a = np.asarray(a)
    if np.iscomplexobj(a):
        raise TypeError(f"{name} must be real")
    a = np.asarray(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def solve_banded(l_and_u, ab, b, overwrite_ab=False) -> np.ndarray:
    """Solve a x = b for the banded a stored in ``ab`` (``scipy.linalg.solve_banded`` layout).

    ``b`` has shape (n,) or (n, k) and is never overwritten; ``ab`` is
    overwritten only with ``overwrite_ab`` and a (1, 1) band.  A non-finite
    entry raises ValueError, a singular matrix LinAlgError.
    """
    nlower, nupper = l_and_u
    a1 = _finite("ab", ab)
    b1 = _finite("b", b)
    if a1.ndim != 2 or b1.ndim not in (1, 2) or a1.shape[1] != b1.shape[0]:
        raise ValueError("shapes of ab and b are not compatible.")
    if nlower + nupper + 1 != a1.shape[0]:
        raise ValueError(f"invalid values for the number of lower and upper diagonals: "
                         f"l+u+1 ({nlower + nupper + 1}) does not equal ab.shape[0] "
                         f"({a1.shape[0]})")
    if a1.shape[1] == 1:
        return b1 / a1[nupper, 0]
    if nlower == nupper == 1:
        overwrite = overwrite_ab or a1 is not ab  # a copy is ours to overwrite
        _, _, _, x, info = dgtsv(a1[2, :-1], a1[1], a1[0, 1:], b1,
                                 overwrite, overwrite, overwrite, False)
    else:
        # dgbsv factors in place in a Fortran-ordered array with nlower extra rows
        a2 = np.zeros((2 * nlower + nupper + 1, a1.shape[1]), order="F")
        a2[nlower:] = a1
        _, _, x, info = dgbsv(nlower, nupper, a2, b1, overwrite_ab=True, overwrite_b=False)
    if info == 0:
        return x
    if info > 0:
        raise LinAlgError("singular matrix")
    raise ValueError(f"illegal value in {-info}-th argument of internal gbsv/gtsv")
