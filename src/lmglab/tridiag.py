"""Numeric error type and the independent Jacobi reference eigensolver.

Sector Hamiltonians are diagonalized by LAPACK through ``numpy.linalg.eigh``
in ``lmglab.evolve.eigensystem``.  The cyclic Jacobi solver below shares no
code with LAPACK; tests compare ``eigensystem`` against it.
"""

from __future__ import annotations

import math

import numpy as np


class NumericError(RuntimeError):
    """An iterative numeric procedure failed to converge or bracket."""


def jacobi_eigenvalues(a: np.ndarray, max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a dense complex Hermitian matrix by cyclic Jacobi.

    Independent of LAPACK; used as a numerical oracle in tests.
    """
    a = np.array(a, dtype=np.complex128)
    n = a.shape[0]
    if n == 1:
        return a.diagonal().real.copy()
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return np.zeros(n)
    for _ in range(max_sweeps):
        off = math.sqrt(
            sum(abs(a[p, q]) ** 2 for p in range(n) for q in range(p + 1, n))
        )
        if off <= 1e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r <= 1e-18 * scale:
                    continue
                phase = apq / r
                theta = 0.5 * math.atan2(2.0 * r, (a[q, q] - a[p, p]).real)
                c = math.cos(theta)
                s = math.sin(theta)
                # complex rotation J = diag-phase * real rotation in (p, q)
                jpp, jpq = c, s
                jqp, jqq = -s * np.conj(phase), c * np.conj(phase)
                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = jpp * colp + jqp * colq
                a[:, q] = jpq * colp + jqq * colq
                rowp = a[p, :].copy()
                rowq = a[q, :].copy()
                a[p, :] = np.conj(jpp) * rowp + np.conj(jqp) * rowq
                a[q, :] = np.conj(jpq) * rowp + np.conj(jqq) * rowq
    else:
        raise NumericError("Jacobi sweeps did not converge")
    return np.sort(a.diagonal().real)
