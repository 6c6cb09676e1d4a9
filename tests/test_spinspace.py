import math

import numpy as np
import pytest

from coherent import basis, expectation, unit
from lmglab.evolve import (
    bohr_lines,
    eigensystem,
    observable_series,
    projected_init,
    propagate,
)
from lmglab.model import LmgParams, build_hamiltonian
from lmglab.spectra import line_spectrum
from lmglab.spinspace import (
    BandedHermitianOperator,
    build_sector,
    collective_operators,
    ladder_plus_band,
)
from lmglab.ssb import order_parameter


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
    ops = collective_operators(1)
    half = 0.5
    assert np.allclose(ops.sx.to_dense(), [[0, half], [half, 0]])
    assert np.allclose(ops.sy.to_dense(), [[0, -0.5j], [0.5j, 0]])
    assert np.allclose(ops.sz.to_dense(), [[half, 0], [0, -half]])


def test_triplet_ladder_element():
    # <M=0|S+|M=-1> for S=1 is sqrt(2); index 1 holds M=0, index 2 holds M=-1
    plus = ladder_plus_band(2)
    assert plus[1] == pytest.approx(np.sqrt(2.0), rel=1e-15, abs=0)


@pytest.mark.parametrize("N", [1, 2, 3, 7, 24, 101])
def test_cyclic_commutators(N):
    ops = collective_operators(N)
    sx, sy, sz = (o.to_dense() for o in (ops.sx, ops.sy, ops.sz))
    tol = 1e-12 * N * N
    assert np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) <= tol
    assert np.max(np.abs(sy @ sz - sz @ sy - 1j * sx)) <= tol
    assert np.max(np.abs(sz @ sx - sx @ sz - 1j * sy)) <= tol


@pytest.mark.parametrize("N", [1, 5, 40, 500])
def test_casimir_identity(N):
    ops = collective_operators(N)
    s = N / 2.0
    rng = np.random.default_rng(N)
    psi = unit(rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1))
    total = (
        ops.sx.apply(ops.sx.apply(psi))
        + ops.sy.apply(ops.sy.apply(psi))
        + ops.sz.apply(ops.sz.apply(psi))
    )
    assert np.max(np.abs(total - s * (s + 1) * psi)) <= 1e-10 * s * s


def test_casimir_matvec_large_n():
    # exactness must survive to N = 2000 (sqrt arguments near N^2/4)
    N = 2000
    ops = collective_operators(N)
    s = N / 2.0
    rng = np.random.default_rng(0)
    psi = unit(rng.normal(size=N + 1))
    total = (
        ops.sx.apply(ops.sx.apply(psi))
        + ops.sy.apply(ops.sy.apply(psi))
        + ops.sz.apply(ops.sz.apply(psi))
    )
    assert np.max(np.abs(total - s * (s + 1) * psi)) <= 1e-10 * s * s


@pytest.mark.parametrize("N", [1, 4, 9])
def test_apply_ladder_on_top_state(N):
    ops = collective_operators(N)
    out = ops.sx.apply(basis(N + 1, 0))
    expected = np.zeros(N + 1, dtype=complex)
    expected[1] = np.sqrt(N) / 2.0
    assert np.allclose(out, expected, atol=1e-14)


def test_apply_diagonal_action():
    sec = build_sector(6)
    ops = collective_operators(6)
    for m in range(7):
        out = ops.sz.apply(basis(7, m))
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


def test_conjugated_bands_hold_no_negative_zero():
    # lines read off the bands would print -0 where a matvec gives 0
    sub = BandedHermitianOperator(3, {1: [1.0, 2.0j]}).bands[-1]
    assert np.array_equal(sub, [1.0, -2.0j])
    assert not np.any(np.signbit([sub[0].imag, sub[1].real]))


def test_real_bands_are_stored_float64():
    rng = np.random.default_rng(6)
    n = 8
    op = BandedHermitianOperator(
        n,
        {
            0: rng.normal(size=n),
            1: rng.normal(size=n - 1) + 0j,  # complex, imaginary parts all zero
            2: rng.normal(size=n - 2) - 0j,
        },
    )
    assert {band.dtype for band in op.bands.values()} == {np.dtype(np.float64)}
    assert op.to_dense().dtype == np.float64
    assert np.array_equal(op.band(1), op.diags[1])
    # an absent band, and an operator with no bands at all, are real too
    assert BandedHermitianOperator(n, {0: np.ones(n)}).band(2).dtype == np.float64
    empty = BandedHermitianOperator(n, {}).to_dense()
    assert empty.dtype == np.float64 and not np.any(empty)


@pytest.mark.parametrize("phi_n,kick", [(0.0, np.float64), (0.7, np.complex128)])
def test_only_a_kick_with_a_y_component_is_complex(phi_n, kick):
    params = LmgParams(N=12, h=0.6, gamma=0.5)
    ham = build_hamiltonian(params, g=1e-3, phi_n=phi_n)
    assert [ham.band(off).dtype for off in (0, 1, 2)] == [np.float64, kick, np.float64]
    assert ham.bands[-1].dtype == kick
    assert ham.to_dense().dtype == kick


def test_diagonal_must_be_real_and_is_stored_real():
    op = BandedHermitianOperator(3, {0: np.array([1.0, -0.0j, 2.0 + 0j])})
    assert op.band(0).dtype == np.float64
    assert np.array_equal(op.band(0), [1.0, 0.0, 2.0])
    for imag in (1e-300j, math.nan * 1j):
        with pytest.raises(ValueError, match="diagonal"):
            BandedHermitianOperator(3, {0: np.array([1.0, imag, 2.0])})


def test_expectation_examples():
    for N in (2, 5, 100):
        ops = collective_operators(N)
        top = basis(N + 1, 0)
        assert expectation(ops.sz, top) == pytest.approx(N / 2.0, abs=0)
        for m in range(N + 1):
            assert expectation(ops.sx, basis(N + 1, m)) == 0.0

    ops = collective_operators(4)
    psi = unit([1.0, 1.0, 0.0, 0.0, 0.0])
    assert expectation(ops.sx, psi).real == pytest.approx(1.0, rel=1e-14, abs=0)


def test_expectation_agrees_with_quadratic_form():
    rng = np.random.default_rng(11)
    ops = collective_operators(23)
    psi = unit(rng.normal(size=24) + 1j * rng.normal(size=24))
    for op in (ops.sx, ops.sy, ops.sz):
        direct = np.vdot(psi, op.to_dense() @ psi)
        val = expectation(op, psi)
        assert abs(val - direct) <= 1e-13 * max(1.0, abs(direct))
        # Hermitian operators have real expectations
        assert abs(val.imag) <= 1e-12 * np.abs(op.to_dense()).sum(axis=1).max()


def test_dimension_mismatch_raises():
    ops = collective_operators(4)
    with pytest.raises(ValueError):
        ops.sx.apply(basis(3, 0))
    with pytest.raises(ValueError):
        expectation(ops.sx, basis(3, 0))


def _state_entries(N):
    """Each public function that reads a state, and the tests' own
    ``expectation``, as psi -> call, at N spins."""
    ops = collective_operators(N)
    eig = eigensystem(build_hamiltonian(LmgParams(N=N, h=0.4, gamma=0.5)))
    tgrid = np.linspace(0.0, 10.0, 8)
    return {
        "observable_series": lambda psi: observable_series(eig, psi, ops.sx, tgrid),
        "bohr_lines": lambda psi: bohr_lines(eig, psi, ops.sx),
        "line_spectrum": lambda psi: line_spectrum(eig, psi, ops.sx, 1e-8),
        "projected_init": lambda psi: projected_init(psi, N, 0.4),
        "propagate": lambda psi: propagate(eig, psi, 1.5),
        "order_parameter": lambda psi: order_parameter(psi, 0.3, N),
        "expectation": lambda psi: expectation(ops.sx, psi),
    }


@pytest.mark.parametrize("entry", list(_state_entries(1)))
def test_state_entries_check_shape_and_norm(entry):
    N = 6
    call = _state_entries(N)[entry]
    rng = np.random.default_rng(8)
    good = unit(rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1))
    bad = [
        unit(np.ones(N)),  # one amplitude short
        unit(np.ones(N + 2)),  # one amplitude long
        unit(np.ones((N + 1, 1))),  # right size, wrong shape
        2.0 * good,  # unnormalized
        np.zeros(N + 1),  # cannot be normalized
        np.array([1.0, 1.0]),
    ]
    for psi in bad:
        with pytest.raises(ValueError):
            call(psi)
    # a raw array is read, not taken over: it stays writable and unchanged
    for psi in (good, good.real / np.linalg.norm(good.real), basis(N + 1, 2)):
        before = psi.copy()
        call(psi)
        assert psi.flags.writeable
        assert np.array_equal(psi, before)


def test_operator_leaves_the_callers_bands_writable():
    d = np.array([1.0, 2.0, 3.0], dtype=np.complex128)
    u = np.array([0.5j, 0.25], dtype=np.complex128)
    op = BandedHermitianOperator(3, {0: d, 1: u})
    assert d.flags.writeable and u.flags.writeable
    assert not any(band.flags.writeable for band in op.bands.values())
    d[0], u[0] = 7.0, 9.0  # the operator keeps its own bands, conjugates included
    assert np.array_equal(op.band(0), [1.0, 2.0, 3.0])
    assert np.array_equal(op.to_dense(), op.to_dense().conj().T)
    assert np.array_equal(op.apply(np.eye(3)), op.to_dense())
