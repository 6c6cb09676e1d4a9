import numpy as np
import pytest

from lmglab.spinspace import (
    BandedHermitianOperator,
    StateVector,
    apply,
    basis_state,
    build_sector,
    collective_operators,
    expectation,
    ladder_plus_band,
    normalized_state,
)


def test_build_sector_examples():
    sec = build_sector(2)
    assert sec.dim == 3
    assert np.array_equal(sec.m_values, [1.0, 0.0, -1.0])

    sec = build_sector(100)
    assert sec.dim == 101
    assert sec.m_values[0] == 50.0

    sec = build_sector(1)
    assert sec.dim == 2
    assert np.array_equal(sec.m_values, [0.5, -0.5])


@pytest.mark.parametrize("bad", [0, -3, 2.5, "4", True])
def test_build_sector_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        build_sector(bad)


def test_single_spin_operators_are_half_paulis():
    ops = collective_operators(build_sector(1))
    half = 0.5
    assert np.allclose(ops.sx.to_dense(), [[0, half], [half, 0]])
    assert np.allclose(ops.sy.to_dense(), [[0, -0.5j], [0.5j, 0]])
    assert np.allclose(ops.sz.to_dense(), [[half, 0], [0, -half]])


def test_triplet_ladder_element():
    # <M=0|S+|M=-1> for S=1 is sqrt(2); index 1 holds M=0, index 2 holds M=-1
    plus = ladder_plus_band(build_sector(2))
    assert plus[1] == pytest.approx(np.sqrt(2.0), rel=1e-15)


@pytest.mark.parametrize("N", [1, 2, 3, 7, 24, 101])
def test_cyclic_commutators(N):
    ops = collective_operators(build_sector(N))
    sx, sy, sz = (o.to_dense() for o in (ops.sx, ops.sy, ops.sz))
    tol = 1e-12 * N * N
    assert np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) <= tol
    assert np.max(np.abs(sy @ sz - sz @ sy - 1j * sx)) <= tol
    assert np.max(np.abs(sz @ sx - sx @ sz - 1j * sy)) <= tol


@pytest.mark.parametrize("N", [1, 5, 40, 500])
def test_casimir_identity(N):
    sec = build_sector(N)
    ops = collective_operators(sec)
    s = N / 2.0
    rng = np.random.default_rng(N)
    psi = normalized_state(rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1))
    total = (
        ops.sx.apply(ops.sx.apply(psi.amplitudes))
        + ops.sy.apply(ops.sy.apply(psi.amplitudes))
        + ops.sz.apply(ops.sz.apply(psi.amplitudes))
    )
    assert np.max(np.abs(total - s * (s + 1) * psi.amplitudes)) <= 1e-10 * s * s


def test_casimir_matvec_large_n():
    # exactness must survive to N = 2000 (sqrt arguments near N^2/4)
    N = 2000
    sec = build_sector(N)
    ops = collective_operators(sec)
    s = N / 2.0
    rng = np.random.default_rng(0)
    psi = normalized_state(rng.normal(size=N + 1))
    total = (
        ops.sx.apply(ops.sx.apply(psi.amplitudes))
        + ops.sy.apply(ops.sy.apply(psi.amplitudes))
        + ops.sz.apply(ops.sz.apply(psi.amplitudes))
    )
    assert np.max(np.abs(total - s * (s + 1) * psi.amplitudes)) <= 1e-10 * s * s


@pytest.mark.parametrize("N", [1, 4, 9])
def test_apply_ladder_on_top_state(N):
    sec = build_sector(N)
    ops = collective_operators(sec)
    out = apply(ops.sx, basis_state(sec.dim, 0))
    expected = np.zeros(sec.dim, dtype=complex)
    expected[1] = np.sqrt(N) / 2.0
    assert np.allclose(out, expected, atol=1e-14)


def test_apply_diagonal_action():
    sec = build_sector(6)
    ops = collective_operators(sec)
    for m in range(sec.dim):
        out = apply(ops.sz, basis_state(sec.dim, m))
        assert out[m] == sec.m_values[m]
        assert np.count_nonzero(out) <= 1


def test_apply_matches_dense_matvec():
    rng = np.random.default_rng(3)
    n = 17
    op = BandedHermitianOperator(
        n,
        {
            0: rng.normal(size=n).astype(complex),
            1: rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1),
            2: rng.normal(size=n - 2) + 1j * rng.normal(size=n - 2),
        },
    )
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert np.allclose(op.apply(vec), op.to_dense() @ vec, rtol=1e-13, atol=1e-13)


def test_hermitian_bands_hold_every_entry():
    rng = np.random.default_rng(4)
    n = 9
    op = BandedHermitianOperator(
        n,
        {
            0: rng.normal(size=n).astype(complex),
            2: rng.normal(size=n - 2) + 1j * rng.normal(size=n - 2),
        },
    )
    assert sorted(op.bands) == [-2, 0, 2]
    rebuilt = np.zeros((n, n), dtype=complex)
    for off, diag in op.bands.items():
        idx = np.arange(n - abs(off))
        rebuilt[idx + max(0, -off), idx + max(0, off)] = diag
    assert np.array_equal(rebuilt, op.to_dense())


def test_expectation_examples():
    for N in (2, 5, 100):
        sec = build_sector(N)
        ops = collective_operators(sec)
        top = basis_state(sec.dim, 0)
        assert expectation(ops.sz, top) == pytest.approx(N / 2.0, abs=0)
        for m in range(sec.dim):
            assert expectation(ops.sx, basis_state(sec.dim, m)) == 0.0

    sec = build_sector(4)
    ops = collective_operators(sec)
    psi = normalized_state([1.0, 1.0, 0.0, 0.0, 0.0])
    assert expectation(ops.sx, psi).real == pytest.approx(1.0, rel=1e-14)


def test_expectation_agrees_with_quadratic_form():
    rng = np.random.default_rng(11)
    sec = build_sector(23)
    ops = collective_operators(sec)
    psi = normalized_state(rng.normal(size=24) + 1j * rng.normal(size=24))
    for op in (ops.sx, ops.sy, ops.sz):
        direct = np.vdot(psi.amplitudes, op.to_dense() @ psi.amplitudes)
        val = expectation(op, psi)
        assert abs(val - direct) <= 1e-13 * max(1.0, abs(direct))
        # Hermitian operators have real expectations
        assert abs(val.imag) <= 1e-12 * op.norm_inf()


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(basis="sz", amplitudes=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        StateVector(basis="bogus", amplitudes=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        normalized_state(np.zeros(3))


def test_dimension_mismatch_raises():
    sec = build_sector(4)
    ops = collective_operators(sec)
    with pytest.raises(ValueError):
        apply(ops.sx, basis_state(3, 0))
    with pytest.raises(ValueError):
        expectation(ops.sx, basis_state(3, 0))


def test_energy_basis_state_rejected_by_apply():
    sec = build_sector(4)
    ops = collective_operators(sec)
    with pytest.raises(ValueError):
        apply(ops.sx, basis_state(sec.dim, 0, basis="energy"))
