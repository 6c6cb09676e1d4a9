import functools
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lmglab.evolve import correlation_fN, eigensystem
from lmglab import oracle
from lmglab.model import DEGENERACY_RTOL, LAM, LmgParams, build_hamiltonian, ground_M
from lmglab.oracle import (
    FullSpaceOperators,
    _LINE_DROP_RTOL,
    _free_blocks,
    _free_correlation,
    _free_lines,
    _free_pairs,
    _free_spectrum,
    _lmg_columns,
    _momentum_ground,
    _orbits,
    _sx_block,
    _weighty_lines,
    full_space_correlation,
    full_space_ground,
    full_space_operators,
    sector_vs_full_checks,
)
from lmglab.spinspace import build_sector


_PAULI_HALF = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=np.complex128),
    "y": np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=np.complex128),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], dtype=np.complex128),
}


def clear_oracle_caches():
    for cache in (_orbits, _free_spectrum, _free_pairs, _sx_block, _free_lines):
        cache.cache_clear()


@pytest.fixture
def cold_oracle():
    """The oracle's per-process caches, emptied: the test sees the solves
    and allocations of a first call in a fresh process."""
    clear_oracle_caches()


def kron_site_sum(N, single):
    """Reference collective operator: the sum of Kronecker-embedded site terms."""
    dim = 2**N
    total = np.zeros((dim, dim), dtype=np.complex128)
    for site in range(N):
        op = np.kron(
            np.eye(2**site), np.kron(single, np.eye(2 ** (N - 1 - site)))
        )
        total += op
    return total


def down_spins(N):
    """Number of down spins (set bits) of every product-basis index."""
    return np.array([bin(i).count("1") for i in range(1 << N)])


def full_hamiltonian(params, ops, g=0.0, phi_n=0.0):
    """Dense reference H = (LAM/N)(Sx^2 + gamma Sy^2) - h Sz - g S_n on the
    product space, entry by entry from the index bits.

    Sx^2 + gamma Sy^2 is the sum over site pairs (i, j) of
    s^x_i s^x_j + gamma s^y_i s^y_j.  The N terms with i = j put (1+gamma)/4
    each on the diagonal.  The terms with i != j flip the bits of sites i
    and j: with amplitude (1+gamma)/2 when the two spins are antiparallel
    and (1-gamma)/2 when they are parallel.  The kick flips single bits
    through ``ops``.  H is complex only when the kick has a y component.
    """
    N = ops.N
    scale = LAM / params.N
    gamma = params.gamma
    index = np.arange(1 << N)
    h_full = np.zeros((1 << N, 1 << N))
    h_full[index, index] = (N / 4 + gamma * (N / 4)) * scale - params.h * (
        N / 2 - down_spins(N)
    )
    flip_flop = (0.5 + 0.5 * gamma) * scale
    double_flip = (0.5 - 0.5 * gamma) * scale
    bits = [1 << (N - 1 - site) for site in range(N)]
    for i in range(N):
        for j in range(i + 1, N):
            parallel = ((index & bits[i]) == 0) == ((index & bits[j]) == 0)
            h_full[index ^ (bits[i] | bits[j]), index] = np.where(
                parallel, double_flip, flip_flop
            )
    if g != 0.0:
        h_full -= (g * math.cos(phi_n)) * ops.sx
        if math.sin(phi_n) != 0.0:
            h_full = h_full - (g * math.sin(phi_n)) * ops.sy
    return h_full


def dense_columns(ham, reps):
    """Columns of a dense matrix at ``reps``, as (targets, amplitudes)."""
    targets = np.tile(np.arange(ham.shape[0]), (len(reps), 1))
    return targets, ham[:, reps].T


def dense_sz_blocks(ham, N):
    """Eigenpairs of an S_z-conserving dense H, one block of C(N, k) indices
    per number k of down spins."""
    down = down_spins(N)
    blocks = []
    for k in range(N + 1):
        idx = np.flatnonzero(down == k)
        w, v = np.linalg.eigh(ham[np.ix_(idx, idx)])
        blocks.append((idx, w, v))
    return blocks


def sector_multiplicity(N, s):
    """Number of spin-s irreps of N spin-1/2 sites (Catalan triangle)."""
    k = N // 2 - s if N % 2 == 0 else (N - 1) // 2 - (s - 0.5)
    k = int(round(k))
    return math.comb(N, k) - (math.comb(N, k - 1) if k >= 1 else 0)


class TestOperators:
    def test_single_spin(self):
        ops = full_space_operators(1)
        assert np.allclose(ops.sx, [[0, 0.5], [0.5, 0]])
        assert np.allclose(ops.sy, [[0, -0.5j], [0.5j, 0]])
        assert np.allclose(ops.sz, [[0.5, 0], [0, -0.5]])

    @pytest.mark.parametrize("N", [1, 3, 6])
    def test_traceless(self, N):
        ops = full_space_operators(N)
        for op in (ops.sx, ops.sy, ops.sz):
            assert abs(np.trace(op)) <= 1e-12

    def test_hermitian(self):
        ops = full_space_operators(5)
        for op in (ops.sx, ops.sy, ops.sz):
            assert np.max(np.abs(op - op.conj().T)) <= 1e-12

    @pytest.mark.parametrize("N", [4, 6])
    def test_casimir_spectrum_matches_sector_decomposition(self, N):
        ops = full_space_operators(N)
        s2 = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
        eigenvalues = np.linalg.eigvalsh(s2)
        s_values = np.arange(N % 2 / 2.0, N / 2.0 + 0.1, 1.0)
        expected = []
        for s in s_values:
            count = int(round(2 * s + 1)) * sector_multiplicity(N, s)
            expected.extend([s * (s + 1)] * count)
        assert np.allclose(np.sort(eigenvalues), np.sort(expected), atol=1e-10)

    @pytest.mark.parametrize("N", range(1, 8))
    def test_bit_construction_equals_kron_sum(self, N):
        ops = full_space_operators(N)
        assert np.array_equal(ops.sx, kron_site_sum(N, _PAULI_HALF["x"]))
        assert np.array_equal(ops.sy, kron_site_sum(N, _PAULI_HALF["y"]))
        assert np.array_equal(ops.sz, kron_site_sum(N, _PAULI_HALF["z"]))
        assert not np.iscomplexobj(ops.sx) and not np.iscomplexobj(ops.sz)
        assert np.iscomplexobj(ops.sy) and not np.any(ops.sy.real)

    def test_resource_cap(self):
        with pytest.raises(ValueError):
            full_space_operators(13)
        with pytest.raises(ValueError):
            full_space_correlation(11, 0.5, np.arange(16) * 1.0)


class TestGround:
    def test_total_spin_is_conserved(self):
        N = 6
        ops = full_space_operators(N)
        ham = full_hamiltonian(LmgParams(N=N, h=0.4), ops)
        s2 = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
        assert np.max(np.abs(ham @ s2 - s2 @ ham)) <= 1e-10

    def test_ground_energy_matches_sector(self):
        N, h = 8, 0.5
        params = LmgParams(N=N, h=h)
        sec = build_sector(N)
        e_sector = eigensystem(build_hamiltonian(params, sec)).ground_energy
        full = full_space_ground(params)
        assert abs(full.energy - e_sector) <= 1e-10

    def test_ground_lives_in_maximal_spin_sector(self):
        N = 8
        ops = full_space_operators(N)
        full = full_space_ground(LmgParams(N=N, h=0.5))
        # polynomial projector onto S = N/2 built from the Casimir spectrum
        s2 = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
        s_max = N / 2.0
        target = s_max * (s_max + 1.0)
        projector = np.eye(2**N, dtype=complex)
        s = N % 2 / 2.0
        while s < s_max - 0.1:
            val = s * (s + 1.0)
            projector = projector @ (s2 - val * np.eye(2**N)) / (target - val)
            s += 1.0
        overlap = np.linalg.norm(projector @ full.vector) ** 2
        assert overlap >= 1.0 - 1e-10

    def test_symmetric_phase_ground_is_fully_polarized(self):
        N = 6
        full = full_space_ground(LmgParams(N=N, h=3.0))
        # all-up product state is index 0 in the kron ordering
        assert abs(full.vector[0]) ** 2 >= 1.0 - 1e-8

    def test_degenerate_flag_for_crescent_field(self):
        # N=6, h=0.5: Nh = 3 odd against even N
        full = full_space_ground(LmgParams(N=6, h=0.5))
        assert full.degenerate


    @pytest.mark.parametrize(
        "N,h,gamma,phi_n",
        [(5, 0.6, 0.5, 0.9), (7, 0.4, 0.0, 0.0), (6, 0.7, 0.3, math.pi / 2)],
    )
    def test_kicked_anisotropic_ground_energy_matches_sector(self, N, h, gamma, phi_n):
        g = 1e-2
        params = LmgParams(N=N, h=h, gamma=gamma)
        ham = build_hamiltonian(params, build_sector(N), g=g, phi_n=phi_n)
        e_sector = eigensystem(ham).ground_energy
        full = full_space_ground(params, g=g, phi_n=phi_n)
        assert abs(full.energy - e_sector) <= 1e-10

    @pytest.mark.parametrize(
        "g,phi_n",
        [(0.0, 0.0), (0.0, 0.9), (1e-2, 0.0), (1e-2, 0.9), (1e-2, math.pi / 2),
         (1e-2, math.pi)],
    )
    def test_hamiltonian_is_real_unless_kicked_off_axis(self, g, phi_n):
        N = 4
        ops = full_space_operators(N)
        for gamma in (0.0, 0.5, 1.0):
            ham = full_hamiltonian(LmgParams(N=N, h=0.5, gamma=gamma), ops, g=g, phi_n=phi_n)
            assert np.iscomplexobj(ham) == (g != 0.0 and math.sin(phi_n) != 0.0)
            assert np.max(np.abs(ham - ham.conj().T)) <= 1e-14

    def test_hamiltonian_matches_operator_products(self):
        N = 5
        ops = full_space_operators(N)
        kicks = [(0.0, 0.0), (0.03, 0.0), (0.03, 0.7)]  # none, along x, complex
        for gamma in (0.0, 0.35, 1.0):
            for g, phi_n in kicks:
                params = LmgParams(N=N, h=0.45, gamma=gamma)
                s2 = ops.sx @ ops.sx + params.gamma * (ops.sy @ ops.sy)
                kick = math.cos(phi_n) * ops.sx + math.sin(phi_n) * ops.sy
                expected = (LAM / N) * s2 - params.h * ops.sz - g * kick
                ham = full_hamiltonian(params, ops, g=g, phi_n=phi_n)
                assert np.max(np.abs(ham - expected)) <= 1e-13

    @pytest.mark.parametrize("N", range(1, 9))
    def test_sz_block_spectrum_equals_dense_spectrum(self, N):
        # the free H in blocks (q, k) of momentum q <= N/2 and k down spins,
        # each the h-free block shifted by -h (N/2 - k); a block
        # 0 < q < N/2 also stands for its conjugate at N - q
        h = 0.37
        ham = full_hamiltonian(LmgParams(N=N, h=h), full_space_operators(N))
        blocks = _free_blocks(_orbits(N))
        qs = range(N // 2 + 1)
        expected = {(q, k): size for k in range(N + 1)
                    for q, size in zip(qs, momentum_block_sizes(N, qs, down=k)) if size}
        assert {key: b.shape[0] for key, (_, b) in blocks.items()} == expected
        merged = np.sort(np.concatenate([
            np.linalg.eigvalsh(b) - h * (N / 2 - k)
            for (q, k), (_, b) in blocks.items()
            for _ in range(2 if 0 < 2 * q < N else 1)
        ]))
        assert np.max(np.abs(merged - np.linalg.eigvalsh(ham))) <= 1e-12

    @pytest.mark.parametrize("N", range(1, 8))
    def test_columns_rebuild_the_dense_reference(self, N):
        # with every index as a representative, the columns are all of H
        index = np.arange(1 << N)
        ops = full_space_operators(N)
        for gamma in (0.0, 0.35, 1.0):
            params = LmgParams(N=N, h=0.45, gamma=gamma)
            for g, phi_n in [(0.0, 0.0), (0.03, 0.0), (0.03, 0.7), (0.03, math.pi / 2)]:
                targets, amps = _lmg_columns(params, index, g, phi_n)
                ham = np.zeros((1 << N, 1 << N), dtype=amps.dtype)
                np.add.at(ham, (targets, index[:, None]), amps)
                reference = full_hamiltonian(params, ops, g=g, phi_n=phi_n)
                assert np.iscomplexobj(ham) == np.iscomplexobj(reference)
                assert np.array_equal(ham, reference)

    @pytest.mark.parametrize(
        "N,h,gamma,g,phi_n",
        [
            (1, 0.5, 1.0, 0.0, 0.0),
            (1, 0.5, 0.5, 0.03, 0.9),
            (3, 0.4, 1.0, 1e-2, 0.0),
            (5, 0.6, 0.5, 1e-2, 0.9),  # complex kick at gamma < 1
            (5, 0.0, 0.0, 0.0, 0.0),  # exactly degenerate pair, S_x = +-N/2
            (6, 0.5, 1.0, 0.0, 0.0),  # crescent field: degenerate pair
            (6, 0.5, 1.0, 1.0 / 36, 0.0),  # crescent field, kicked
            (7, 0.3, 0.0, 0.0, 0.0),
            (8, 0.7, 0.3, 1e-2, math.pi / 2),
            (8, 3.0, 1.0, 0.0, 0.0),
        ],
    )
    def test_reversal_block_ground_equals_dense_ground(self, N, h, gamma, g, phi_n):
        params = LmgParams(N=N, h=h, gamma=gamma)
        ham = full_hamiltonian(params, full_space_operators(N), g=g, phi_n=phi_n)
        w, v = np.linalg.eigh(ham)
        degenerate = w[1] - w[0] <= DEGENERACY_RTOL * max(1.0, abs(w[0]))
        full = full_space_ground(params, g=g, phi_n=phi_n)
        assert abs(full.energy - w[0]) <= 1e-12
        assert full.degenerate == degenerate
        # a degenerate ground state is any vector of the dense ground pair
        ground_space = v[:, : 2 if degenerate else 1]
        overlap = np.linalg.norm(ground_space.conj().T @ full.vector)
        assert abs(overlap - 1.0) <= 1e-12


def rotation(N, s):
    """Index map of the cyclic site shift T^s, one index at a time."""
    mask = (1 << N) - 1
    return np.array([((i << s) | (i >> (N - s))) & mask for i in range(1 << N)])


@functools.cache
def translation_orbits(N):
    """(least index, period) of each orbit of T, by rotating every index."""
    seen, orbits = set(), []
    for i in range(1 << N):
        if i not in seen:
            orbit = {int(rotation(N, s)[i]) for s in range(N)}
            seen |= orbit
            orbits.append((i, len(orbit)))
    return orbits


def momentum_block_sizes(N, qs, down=None):
    """Rows of each momentum block q, or of block (q, down) when given."""
    return [
        sum(1 for rep, p in translation_orbits(N)
            if q * p % N == 0 and down in (None, bin(rep).count("1")))
        for q in qs
    ]


def translation_invariant(N, complex_entries, rng, bias_q=None):
    """sum_s T^s A T^-s of a random Hermitian A; ``bias_q`` pulls a momentum-q
    state (and, for a real H, its conjugate at -q) far below the rest."""
    dim = 1 << N
    a = rng.normal(size=(dim, dim))
    if complex_entries:
        a = a + 1j * rng.normal(size=(dim, dim))
    a = a + a.conj().T
    ham = np.zeros_like(a)
    for s in range(N):
        perm = rotation(N, s)
        ham[np.ix_(perm, perm)] += a
    if bias_q is not None:
        # a momentum-q state on the orbit of index 1, of period N
        state = np.zeros(dim, dtype=np.complex128)
        for s in range(N):
            state[rotation(N, s)[1]] = np.exp(2j * np.pi * bias_q * s / N)
        state /= np.linalg.norm(state)
        pull = np.outer(state, state.conj())
        if not complex_entries:
            pull = (pull + pull.conj()).real
        ham = ham - 50.0 * N * pull
    return ham


class TestMomentumBlocks:
    @pytest.mark.parametrize("N", range(1, 9))
    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("bias", [False, True])
    def test_random_invariant_matrix(self, N, complex_entries, bias):
        rng = np.random.default_rng(100 * N + 10 * complex_entries + bias)
        # with bias, the ground sits at q = 1: off {0, N/2} from N = 3 on, and
        # for a real H it pairs with its conjugate at q = N - 1
        bias_q = 1 if bias and N >= 3 else None
        ham = translation_invariant(N, complex_entries, rng, bias_q)
        w = np.linalg.eigvalsh(ham)
        orbits = _orbits(N)
        assert orbits.reps.tolist() == [rep for rep, _ in translation_orbits(N)]
        full, levels = _momentum_ground(orbits, *dense_columns(ham, orbits.reps))
        norm = np.linalg.norm(ham, 2)
        assert np.max(np.abs(levels - w)) <= 1e-12 * norm
        assert abs(full.energy - w[0]) <= 1e-12 * norm
        assert abs(np.linalg.norm(full.vector) - 1.0) <= 1e-12
        residual = np.linalg.norm(ham @ full.vector - full.energy * full.vector)
        assert residual <= 1e-12 * norm
        assert full.degenerate == (w[1] - w[0] <= DEGENERACY_RTOL * max(1.0, abs(w[0])))
        if bias_q is not None:
            # the ground state has momentum q: T psi = exp(-2 pi i q/N) psi
            shifted = np.zeros_like(full.vector)
            shifted[rotation(N, 1)] = full.vector
            phase = np.vdot(full.vector, shifted)
            if complex_entries:
                assert abs(phase - np.exp(-2j * np.pi / N)) <= 1e-10
            # a real H pairs q = 1 with q = N - 1: an exact conjugate pair
            assert full.degenerate == (not complex_entries)

    @pytest.mark.parametrize("N", [11, 12])
    def test_large_n_ground_energy_matches_sector(self, N):
        params = LmgParams(N=N, h=0.6)
        sector = build_sector(N)
        for g in (0.0, 1.0 / N**2):
            e_sector = eigensystem(build_hamiltonian(params, sector, g=g)).ground_energy
            full = full_space_ground(params, g=g)
            assert abs(full.energy - e_sector) <= 1e-10

    def test_large_n_complex_kick_within_a_second(self):
        # the y component makes every block complex and all 12 are solved;
        # a 2^12 x 2^12 float64 matrix alone is 134 MB
        N, g, phi_n = 12, 1.0 / 144, 1.3
        params = LmgParams(N=N, h=0.6)
        tracemalloc.start()
        try:
            full = full_space_ground(params, g=g, phi_n=phi_n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        sector = build_hamiltonian(params, build_sector(N), g=g, phi_n=phi_n)
        assert abs(full.energy - eigensystem(sector).ground_energy) <= 1e-10
        # best of up to three calls, so that a burst of load on a shared
        # machine does not decide the outcome
        elapsed = []
        while len(elapsed) < 3 and min(elapsed, default=math.inf) >= 1.0:
            start = time.perf_counter()
            full_space_ground(params, g=g, phi_n=phi_n)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 1.0


@seed(20261018)
@settings(max_examples=40, deadline=None, database=None)
@given(
    N=st.integers(1, 8),
    h=st.floats(0.0, 2.0),
    gamma=st.floats(0.0, 1.0),
    g=st.floats(0.0, 0.2),
    phi_n=st.floats(0.0, 2.0 * math.pi),
)
def test_momentum_blocks_match_dense_reference(N, h, gamma, g, phi_n):
    params = LmgParams(N=N, h=h, gamma=gamma)
    ham = full_hamiltonian(params, full_space_operators(N), g=g, phi_n=phi_n)
    norm = np.linalg.norm(ham, 2)
    orbits = _orbits(N)
    _, levels = _momentum_ground(orbits, *_lmg_columns(params, orbits.reps, g, phi_n))
    assert np.max(np.abs(levels - np.linalg.eigvalsh(ham))) <= 1e-12 * max(1.0, norm)
    full = full_space_ground(params, g=g, phi_n=phi_n)
    residual = np.linalg.norm(ham @ full.vector - full.energy * full.vector)
    assert residual <= 1e-12 * norm


@seed(20261018)
@settings(max_examples=40, deadline=None, database=None)
@given(
    N=st.integers(1, 8),
    h=st.floats(0.0, 2.0),
    gamma=st.floats(0.0, 1.0),
    g=st.floats(0.0, 0.2),
    phi_n=st.floats(0.0, 2.0 * math.pi),
)
def test_full_space_ground_energy_matches_sector(N, h, gamma, g, phi_n):
    params = LmgParams(N=N, h=h, gamma=gamma)
    ham = build_hamiltonian(params, build_sector(N), g=g, phi_n=phi_n)
    full = full_space_ground(params, g=g, phi_n=phi_n)
    assert abs(full.energy - eigensystem(ham).ground_energy) <= 1e-10


class TestCorrelation:
    @pytest.mark.parametrize("N,h", [(8, 0.5), (6, 0.7)])
    def test_matches_sector_computation(self, N, h):
        tgrid = np.arange(64) * (2 * math.pi * N / 64)
        sec = build_sector(N)
        sector_result = correlation_fN(sec, h, tgrid)
        full_members = full_space_correlation(N, h, tgrid)
        assert len(full_members) == len(sector_result.members)
        for (m_full, series), member in zip(full_members, sector_result.members):
            assert m_full == pytest.approx(member.m0, abs=1e-9)
            assert np.max(np.abs(series.values - member.direct.values)) <= 1e-10

    def test_static_moment_at_time_zero(self):
        N, h = 6, 0.4
        tgrid = np.arange(16) * 1.0
        members = full_space_correlation(N, h, tgrid)
        ops = full_space_operators(N)
        full = full_space_ground(LmgParams(N=N, h=h))
        static = 4.0 / N**2 * np.vdot(ops.sx @ full.vector, ops.sx @ full.vector).real
        assert members[0][1].values[0].real == pytest.approx(static, rel=1e-10)

    def test_phase_sum_memory_is_bounded(self, monkeypatch):
        # a 2^10 x 2^10 float64 matrix alone is 8.4 MB; unblocked, the lines
        # over 4096 samples took 27.5 MB for their phase arguments
        N, h = 10, 0.5
        tgrid = np.arange(4096) * (40 * math.pi * N / 4096)
        tracemalloc.start()
        try:
            members = full_space_correlation(N, h, tgrid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        # the same lines summed over the whole grid in one block
        monkeypatch.setattr(oracle, "_TIME_BLOCK", tgrid.size)
        unblocked = full_space_correlation(N, h, tgrid)
        assert [m0 for m0, _ in members] == [m0 for m0, _ in unblocked]
        for (_, series), (_, expected) in zip(members, unblocked):
            scale = np.max(np.abs(expected.values))
            assert np.max(np.abs(series.values - expected.values)) <= 1e-14 * scale

    @pytest.mark.parametrize("N,h", [(1, 0.5), (3, 0.0), (6, 0.5), (9, 0.95), (10, 0.3)])
    def test_dropped_lines_carry_no_weight(self, N, h, monkeypatch):
        tgrid = np.arange(512) * (40 * math.pi * N / 512)
        members = full_space_correlation(N, h, tgrid)
        # every line of the same blocks: only exact zeros dropped
        with monkeypatch.context() as patched:
            patched.setattr(oracle, "_LINE_DROP_RTOL", 0.0)
            every = full_space_correlation(N, h, tgrid)
        assert len(members) == len(every)
        for (_, series), (_, expected) in zip(members, every):
            scale = expected.values[0].real
            assert np.max(np.abs(series.values - expected.values)) <= 2e-15 * scale
        # every line of the two neighbor S_z blocks of the dense H; the
        # phase of a line at t carries its level's rounding, a few
        # eps ||H|| t: at most 2.6 eps ||H|| t on these points, 4.9 at
        # N = 10, h = 0.7
        ops = full_space_operators(N)
        blocks = dense_sz_blocks(full_hamiltonian(LmgParams(N=N, h=h), ops), N)
        e0 = min(w[0] for _, w, _ in blocks)
        norm = max(np.max(np.abs(w)) for _, w, _ in blocks)
        drift = 8 * np.finfo(float).eps * norm * tgrid
        assert len(members) == len(ground_M(N, h).levels)
        for m0, series in members:
            k = round(N / 2 - m0)
            phi = np.zeros(2**N)
            phi[blocks[k][0]] = blocks[k][2][:, 0]
            u = ops.sx @ phi
            near = [blocks[j] for j in (k - 1, k + 1) if 0 <= j <= N]
            weights = np.concatenate([np.abs(v.T @ u[idx]) ** 2 for idx, _, v in near])
            omega = np.concatenate([w - e0 for _, w, _ in near])
            kept = _weighty_lines(weights)
            assert np.sum(np.delete(weights, kept)) <= _LINE_DROP_RTOL * np.sum(weights)
            # one line per block: the level of the symmetric multiplet
            assert kept.size == len(near)
            expected = (4.0 / N**2) * (weights @ np.exp(-1j * omega[:, None] * tgrid))
            bound = (2e-15 + drift) * expected[0].real
            assert np.all(np.abs(series.values - expected) <= bound)

    @pytest.mark.parametrize("N", [0, -1])
    def test_empty_chain_is_rejected(self, N):
        with pytest.raises(ValueError, match="N must be >= 1"):
            full_space_correlation(N, 0.5, np.arange(4) * 1.0)
        with pytest.raises(ValueError, match="N must be >= 1"):
            sector_vs_full_checks(N, 0.5)

    def test_dropped_weight_is_bounded(self):
        rng = np.random.default_rng(5)
        for size in (1, 2, 7, 400):
            weights = 10.0 ** rng.uniform(-40, 0, size)
            kept = _weighty_lines(weights)
            assert np.array_equal(kept, np.sort(kept))
            dropped = np.delete(weights, kept)
            assert np.sum(dropped) <= _LINE_DROP_RTOL * np.sum(weights)
            # maximal: the lightest kept line would break the bound
            lightest = np.min(weights[kept])
            assert np.sum(dropped) + lightest > _LINE_DROP_RTOL * np.sum(weights)
            assert np.all(dropped <= lightest)

    def test_sy_and_sz_are_built_on_first_access(self, monkeypatch):
        ops = full_space_operators(5)
        assert "sy" not in vars(ops) and "sz" not in vars(ops)
        assert ops.sy is ops.sy and ops.sz is ops.sz

        def refuse(self):
            raise AssertionError("built an operator nobody reads")

        # the free-H correlation and the gamma = 1 checks read S_x only
        monkeypatch.setattr(FullSpaceOperators, "sy", property(refuse))
        monkeypatch.setattr(FullSpaceOperators, "sz", property(refuse))
        full_space_correlation(5, 0.5, np.arange(8) * 1.0)
        assert sector_vs_full_checks(5, 0.5).worst() <= 1e-9

    def test_exactly_two_lines_in_full_space(self):
        # the spectral weights of Sx|ground> touch only the two neighbors
        N, h = 8, 0.4
        ops = full_space_operators(N)
        params = LmgParams(N=N, h=h)
        w, v = np.linalg.eigh(full_hamiltonian(params, ops))
        u = ops.sx @ v[:, 0]
        proj = np.abs(v.conj().T @ u) ** 2
        strong = proj > 1e-20 * proj.max()
        distinct = np.unique(np.round(w[strong] - w[0], 12))
        assert distinct.size == 2


class TestChecks:
    @pytest.mark.parametrize("N,h", [(4, 0.3), (6, 0.5), (8, 0.7)])
    def test_all_deviations_small(self, N, h):
        report = sector_vs_full_checks(N, h)
        assert report.worst() <= 1e-9

    def test_each_hamiltonian_is_solved_once(self, monkeypatch, cold_oracle):
        N = 8
        sizes = {"eigh": [], "eigvalsh": []}

        def counting(name):
            original = getattr(np.linalg, name)

            def solve(a, *args, **kwargs):
                if sys._getframe(1).f_globals["__name__"] == "lmglab.oracle":
                    sizes[name].append(np.shape(a)[0])
                return original(a, *args, **kwargs)

            return solve

        for name in sizes:
            monkeypatch.setattr(np.linalg, name, counting(name))
        report = sector_vs_full_checks(N, 0.5)
        # the free H in its blocks (q, k), q <= N/2, for eigenvalues, and
        # with vectors in the block of the ground level (q = 0, k = N/2 - M0
        # for the symmetric multiplet) and its neighbors k +- 1; the kicked
        # H, real, in its momentum blocks q <= N/2 for eigenvalues, and once
        # more with vectors in q = 0
        qs = range(N // 2 + 1)
        free = [size for k in range(N + 1)
                for size in momentum_block_sizes(N, qs, down=k) if size]
        momentum = momentum_block_sizes(N, qs)
        assert sorted(sizes["eigvalsh"]) == sorted(free + momentum)
        k0 = round(N / 2 - ground_M(N, 0.5).m0)
        expected = momentum_block_sizes(N, [0], down=k0)
        expected += momentum_block_sizes(N, [0], down=k0 - 1)
        expected += momentum_block_sizes(N, [0], down=k0 + 1) + momentum[:1]
        assert sorted(sizes["eigh"]) == sorted(expected)
        # never the whole 2^N matrix, nor a whole S_z block
        whole = {2**N} | {math.comb(N, k) for k in range(2, N - 1)}
        assert not whole & set(sizes["eigh"] + sizes["eigvalsh"])
        assert report.worst() <= 1e-9
        # another field with the same ground M0: the free blocks only shift,
        # so the kicked H alone is solved
        assert ground_M(N, 0.55).m0 == ground_M(N, 0.5).m0
        for solved in sizes.values():
            solved.clear()
        assert sector_vs_full_checks(N, 0.55).worst() <= 1e-9
        assert sorted(sizes["eigvalsh"]) == sorted(momentum)
        assert sizes["eigh"] == momentum[:1]

    def test_checks_memory_is_bounded(self, cold_oracle):
        # a 2^10 x 2^10 float64 matrix alone is 8.4 MB
        tracemalloc.start()
        try:
            report = sector_vs_full_checks(10, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert report.worst() <= 1e-9

    def test_oversized_n_is_rejected_before_any_solve(self, monkeypatch):
        def no_solve(a, *args, **kwargs):
            raise AssertionError("eigh reached")

        monkeypatch.setattr(np.linalg, "eigh", no_solve)
        with pytest.raises(ValueError):
            sector_vs_full_checks(11, 0.5)


@pytest.mark.parametrize("N", range(4, 11))
def test_near_degenerate_fields_pair_members_by_sz(N):
    # both sides count levels within DEGENERACY_RTOL as degenerate, but
    # each rounds its own levels, so a hair off a crossing h = j/N one side
    # may hold a second ground member; members pair by S_z, never by position
    for j in range(1, N):
        for p in range(8, 14):
            for h in (j / N - 10.0**-p, j / N + 10.0**-p):
                report = sector_vs_full_checks(N, h)
                assert report.worst() <= 1e-9, (N, h, report)


def test_missing_full_space_member_is_a_mismatch(monkeypatch):
    # the sector's degenerate pair at N = 6, h = 0.5 against a full-space
    # ground set that lost its M = 1 member
    def only_upper(N, h, tgrid):
        e0, members = free(N, h, tgrid)
        return e0, [(m, series) for m, series in members if m != 1.0]

    free = oracle._free_correlation
    monkeypatch.setattr(oracle, "_free_correlation", only_upper)
    assert sector_vs_full_checks(6, 0.5).ground_sz == 1.0


def test_cached_arrays_are_read_only(cold_oracle):
    # a write to a cached array would change every later call in the process
    N = 6
    report = sector_vs_full_checks(N, 0.5)
    split, levels = _free_spectrum(N)
    cached = list(_orbits(N)[1:]) + list(levels.values())
    cached += [a for pair in split.values() for a in pair]
    cached += list(_free_pairs(N, 0, 2)) + [w for _, w, _ in _free_lines(N, 0, 2)]
    cached += [weight for _, _, weight in _free_lines(N, 0, 2)] + [_sx_block(N, 0)]
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0
    assert _orbits(N).reps[1] != 0
    assert sector_vs_full_checks(N, 0.5).worst() == report.worst()


def test_sx_block_is_built_once_per_momentum(monkeypatch, cold_oracle):
    # N = 10, h = 0.5 has a degenerate ground pair, M0 = 2 and 3, in blocks
    # (0, 3) and (0, 2): one build for the h-free blocks, one for S_x at q = 0
    built = []

    def counting(orbits, targets, amps, qs):
        built.append(list(qs))
        return momentum_blocks(orbits, targets, amps, qs)

    momentum_blocks = oracle._momentum_blocks
    monkeypatch.setattr(oracle, "_momentum_blocks", counting)
    tgrid = np.arange(64) * (2 * math.pi * 10 / 64)
    assert len(full_space_correlation(10, 0.5, tgrid)) == 2
    assert built == [list(range(6)), [0]]


@seed(3030)
@settings(max_examples=25, deadline=None)
@given(N=st.integers(1, 10), h=st.floats(0.0, 1.5), other=st.floats(0.0, 1.5))
def test_warm_calls_repeat_cold_calls_bit_for_bit(N, h, other):
    tgrid = np.arange(48) * (2 * math.pi * N / 48)
    clear_oracle_caches()
    e0, cold = _free_correlation(N, h, tgrid)
    _free_correlation(N, other, tgrid)
    e0_warm, warm = _free_correlation(N, h, tgrid)
    assert e0_warm == e0
    assert [m for m, _ in warm] == [m for m, _ in cold]
    for (_, series), (_, expected) in zip(warm, cold):
        assert np.array_equal(series.values, expected.values)
    # the h-free levels, shifted by -h (N/2 - k), are the free H's levels
    levels = np.sort(np.concatenate([
        w - h * (N / 2 - k)
        for (q, k), w in _free_spectrum(N)[1].items()
        for _ in range(2 if 0 < 2 * q < N else 1)
    ]))
    ham = full_hamiltonian(LmgParams(N=N, h=h), full_space_operators(N))
    assert np.max(np.abs(levels - np.linalg.eigvalsh(ham))) <= 1e-12
    assert e0 == levels[0]
