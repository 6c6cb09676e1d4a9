"""The banded eigensolve path, ``evolve.eigensystem``, against the
independent Jacobi reference in ``lmglab.tridiag``.

Test names predate the LAPACK solver and are kept so results stay
comparable across revisions.
"""

import numpy as np
import pytest

from lmglab.evolve import eigensystem
from lmglab.spinspace import BandedHermitianOperator
from lmglab.tridiag import jacobi_eigenvalues


def random_banded(n, bandwidth, rng):
    diags = {0: rng.normal(size=n).astype(complex)}
    if bandwidth >= 1 and n > 1:
        diags[1] = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    if bandwidth >= 2 and n > 2:
        diags[2] = rng.normal(size=n - 2) + 1j * rng.normal(size=n - 2)
    return BandedHermitianOperator(n, diags)


def assert_eigenpairs(op, eig, tol):
    dense = op.to_dense()
    w, v = eig.energies, eig.vectors
    assert np.max(np.abs(dense @ v - v * w[None, :])) <= tol
    assert np.max(np.abs(v.conj().T @ v - np.eye(op.dim))) <= tol


@pytest.mark.parametrize("n", [2, 3, 8, 25, 50])
def test_ql_matches_jacobi_on_random_tridiagonals(n):
    for bandwidth in (1, 2):
        rng = np.random.default_rng(10 * n + bandwidth)
        op = random_banded(n, bandwidth, rng)
        w = eigensystem(op).energies
        w_jacobi = jacobi_eigenvalues(op.to_dense())
        scale = max(1.0, np.max(np.abs(w)))
        assert np.max(np.abs(w - w_jacobi)) <= 1e-11 * scale


@pytest.mark.parametrize("n,bandwidth", [(2, 1), (16, 1), (16, 2), (40, 2)])
def test_full_pipeline_against_lapack(n, bandwidth):
    rng = np.random.default_rng(10 * n + bandwidth)
    op = random_banded(n, bandwidth, rng)
    eig = eigensystem(op)
    assert eig.permutation is None
    assert np.all(np.diff(eig.energies) >= 0.0)
    scale = max(1.0, np.max(np.abs(eig.energies)))
    assert_eigenpairs(op, eig, 1e-11 * scale)


def test_eigenvalues_ascend_with_stable_ties():
    op = BandedHermitianOperator(4, {0: np.array([2.0, 1.0, 2.0, 1.0], dtype=complex)})
    eig = eigensystem(op)
    assert np.all(np.diff(eig.energies) >= 0.0)
    assert eig.permutation.tolist() == [1, 3, 0, 2]


def test_ql_handles_degenerate_clusters():
    # heavily degenerate spectrum (diagonal repeated) plus a weak coupling
    n = 30
    d = np.repeat([1.0, -1.0, 3.0], 10)
    coupling = np.full(n - 1, 1e-3, dtype=complex)
    op = BandedHermitianOperator(n, {0: d.astype(complex), 1: coupling})
    eig = eigensystem(op)
    ref = jacobi_eigenvalues(op.to_dense())
    assert np.max(np.abs(eig.energies - ref)) <= 1e-12 * 3
    assert_eigenpairs(op, eig, 1e-12 * 3)


def test_bandwidth_cap():
    op = BandedHermitianOperator(6, {0: np.zeros(6, dtype=complex)})
    op.diags = dict(op.diags)
    # fabricate an unsupported offset
    op.diags[3] = np.zeros(3, dtype=complex)
    with pytest.raises(ValueError):
        eigensystem(op)
