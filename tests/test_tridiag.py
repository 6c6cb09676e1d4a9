"""The banded eigensolve path, ``evolve.eigensystem``, against the
independent cyclic Jacobi reference below, by residual and orthonormality,
and, for the parity split, against ``numpy.linalg.eigvalsh`` of the whole
matrix: the real, complex and parity-split solves.
The parity split is also held bit for bit to the dense-slice construction
it replaced, kept below as ``dense_slice_eigensystem``.

Test names predate the LAPACK solver and are kept so results stay
comparable across revisions.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lmglab.evolve import eigensystem
from lmglab.model import LmgParams, build_hamiltonian
from lmglab.spinspace import BandedHermitianOperator


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
        raise RuntimeError("Jacobi sweeps did not converge")
    return np.sort(a.diagonal().real)


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


def hamiltonian(N, h, gamma, g=0.0, phi_n=0.0):
    return build_hamiltonian(LmgParams(N=N, h=h, gamma=gamma), g=g, phi_n=phi_n)


def eigh_inputs(monkeypatch):
    """Record (dtype, shape) of every matrix handed to numpy.linalg.eigh."""
    seen = []
    real_eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        seen.append((a.dtype, a.shape))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return seen


@pytest.mark.parametrize(
    "N,gamma,g,phi_n,expected",
    [
        (40, 0.5, 0.0, 0.0, [(np.float64, (21, 21)), (np.float64, (20, 20))]),
        (41, 0.0, 0.0, 0.0, [(np.float64, (21, 21)), (np.float64, (21, 21))]),
        (40, 0.5, 1e-3, 0.0, [(np.float64, (41, 41))]),
        (40, 1.0, 1e-3, 0.7, [(np.complex128, (41, 41))]),
        (40, 0.5, 1e-3, 0.7, [(np.complex128, (41, 41))]),
    ],
)
def test_solve_arithmetic_and_block_sizes(monkeypatch, N, gamma, g, phi_n, expected):
    seen = eigh_inputs(monkeypatch)
    eig = eigensystem(hamiltonian(N, 0.6, gamma, g, phi_n))
    assert seen == [(np.dtype(t), shape) for t, shape in expected]
    assert eig.vectors.shape == (N + 1, N + 1)
    assert eig.permutation is None


@pytest.mark.parametrize("N", [20, 41])
@pytest.mark.parametrize("phi_n", [0.7, math.pi / 2, 2.5, -1.0])
def test_kicked_isotropic_gauge_matches_complex_solve(N, phi_n):
    # The name predates the removal of the real phase gauge (see the module
    # docstring); a kick off the x axis is now itself one complex solve, the
    # very eigh call a dense reference would make, so the energies are held
    # to the LAPACK-free Jacobi reference.  The residual over the kicked
    # ground level's gap then bounds the ground vector's angle by 1e-10.
    op = hamiltonian(N, 0.5, 1.0, g=0.01, phi_n=phi_n)
    eig = eigensystem(op)
    dense = op.to_dense()
    norm = np.abs(dense).sum(axis=1).max()  # max row sum >= ||H||
    assert np.max(np.abs(eig.energies - jacobi_eigenvalues(dense))) <= 1e-13 * norm
    residual = dense @ eig.vectors - eig.vectors * eig.energies[None, :]
    assert np.max(np.abs(residual)) <= 1e-14 * norm
    gram = eig.vectors.conj().T @ eig.vectors
    assert np.max(np.abs(gram - np.eye(N + 1))) <= 1e-14
    assert eig.energies[1] - eig.energies[0] >= 1e-3 * norm


def parity_operator(n, seed):
    rng = np.random.default_rng(seed)
    diags = {0: rng.normal(size=n), 2: rng.normal(size=n - 2)}
    return BandedHermitianOperator(n, diags)


@st.composite
def parity_operators(draw):
    """Random real bandwidth-2 operators with an empty first band, and deep
    broken-phase gamma = 0 Hamiltonians, whose parity doublets agree to
    below eps."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=3, max_value=80))
        return parity_operator(n, draw(st.integers(min_value=0, max_value=2**32 - 1)))
    N = draw(st.integers(min_value=40, max_value=160))
    h = draw(st.floats(min_value=0.05, max_value=0.4))
    return hamiltonian(N, h, 0.0)


@seed(20261018)
@settings(max_examples=60, deadline=None, database=None)
@given(op=parity_operators())
def test_parity_split_solve(op):
    eig = eigensystem(op)
    dense = op.to_dense()
    norm = np.abs(dense).sum(axis=1).max()
    w, v = eig.energies, eig.vectors
    assert np.all(np.diff(w) >= 0.0)
    assert np.max(np.abs(w - np.linalg.eigvalsh(dense))) <= 1e-13 * norm
    assert np.max(np.abs(dense @ v - v * w[None, :])) <= 1e-14 * norm
    assert np.max(np.abs(v.T @ v - np.eye(op.dim))) <= 1e-14
    even = np.any(v[0::2] != 0.0, axis=0)
    odd = np.any(v[1::2] != 0.0, axis=0)
    assert np.all(even != odd)


def test_deep_broken_doublets_are_degenerate_to_rounding():
    op = hamiltonian(120, 0.2, 0.0)
    w = eigensystem(op).energies
    norm = np.abs(op.to_dense()).sum(axis=1).max()
    assert w[1] - w[0] <= 4.0 * np.finfo(float).eps * norm


def dense_slice_eigensystem(op):
    """``eigensystem`` as it was before the parity blocks were built from the
    bands: the whole dense H, sliced into its parity blocks, their vectors
    zero-filled into one array and its columns permuted by the merge."""
    n = op.dim
    bands = {off for off, band in op.diags.items() if off > 0 and np.any(band != 0.0)}
    if not bands:
        diag = op.band(0).real
        perm = np.argsort(diag, kind="stable")
        return diag[perm], None, perm
    assert bands == {2}, "the reference covers the parity split only"
    dense = op.to_dense()
    if not np.any(dense.imag):
        dense = dense.real
    (w0, v0), (w1, v1) = (np.linalg.eigh(dense[p::2, p::2]) for p in (0, 1))
    v = np.zeros((n, n), dtype=dense.dtype)
    v[0::2, : w0.size], v[1::2, w0.size :] = v0, v1
    w = np.concatenate([w0, w1])
    order = np.argsort(w, kind="stable")
    return w[order], np.ascontiguousarray(v[:, order]), None


def assert_same_as_dense_slices(op):
    eig = eigensystem(op)
    energies, vectors, perm = dense_slice_eigensystem(op)
    assert np.array_equal(eig.energies, energies)
    if vectors is None:
        assert eig.vectors is None
        assert np.array_equal(eig.permutation, perm)
    else:
        assert eig.permutation is None
        assert eig.vectors.dtype == vectors.dtype
        assert np.array_equal(eig.vectors, vectors)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 41, 120, 201])
@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_parity_split_equals_dense_slices_bit_for_bit(N, gamma):
    for h in (0.0, 0.6, 1.3):
        assert_same_as_dense_slices(hamiltonian(N, h, gamma))


@pytest.mark.parametrize("n", [3, 4, 9, 30, 51])
def test_complex_band_two_equals_dense_slices_bit_for_bit(n):
    rng = np.random.default_rng(n)
    band2 = rng.normal(size=n - 2) + 1j * rng.normal(size=n - 2)
    diags = {0: rng.normal(size=n), 1: np.zeros(n - 1), 2: band2}
    op = BandedHermitianOperator(n, diags)
    assert eigensystem(op).vectors.dtype == np.complex128
    assert_same_as_dense_slices(op)


def test_whole_solve_holds_two_real_arrays():
    # a kicked gamma < 1 H is solved whole: its real dense matrix and the
    # eigenvector array, 2 x 8 (N+1)^2 bytes, where a complex dense matrix
    # cast back to real held 3 x
    N = 1000
    op = build_hamiltonian(LmgParams(N, 0.6, 0.5), g=1e-4)
    tracemalloc.start()
    try:
        eig = eigensystem(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eig.vectors.dtype == np.float64
    assert peak <= 2.2 * 8 * (N + 1) ** 2


def test_parity_split_allocates_no_dense_matrix():
    # one free gamma < 1 solve holds its eigenvector array, the two
    # half-size blocks and their vectors: 1.5 x 8 (N+1)^2 bytes, where the
    # dense-slice construction read 4.5 x
    N = 2000
    op = hamiltonian(N, 0.6, 0.5)
    tracemalloc.start()
    try:
        eigensystem(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * 8 * (N + 1) ** 2
