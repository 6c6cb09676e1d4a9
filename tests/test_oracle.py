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
    _free_correlation,
    _free_lines,
    _free_pairs,
    _free_spectrum,
    _lmg_columns,
    _momentum_block,
    _momentum_ground,
    _orbits,
    _weyl_floor,
    OracleReport,
    full_space_correlation,
    full_space_ground,
    full_space_operators,
    sector_vs_full_checks,
)


_PAULI_HALF = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=np.complex128),
    "y": np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=np.complex128),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], dtype=np.complex128),
}


def clear_oracle_caches():
    """Empty every functools cache of the oracle module, found by its
    ``cache_clear``, so that none added later escapes the cold-path tests."""
    caches = [f for f in vars(oracle).values()
              if hasattr(f, "cache_clear") and f.__module__ == oracle.__name__]
    assert caches
    for cache in caches:
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


def dense_sy(N):
    """Reference S_y on the product space: each site's s_y connects the
    indices that differ in its bit, <down|s_y|up> = i/2."""
    index = np.arange(1 << N)
    sy = np.zeros((1 << N, 1 << N), dtype=np.complex128)
    for site in range(N):
        bit = 1 << (N - 1 - site)
        sy[index ^ bit, index] = np.where((index & bit) != 0, -0.5j, 0.5j)
    return sy


def dense_operators(N):
    """Dense (S_x, S_y, S_z): lmglab's S_x, and S_y and S_z built here, S_z
    diagonal with N/2 minus the number of down spins."""
    return full_space_operators(N), dense_sy(N), np.diag(N / 2 - down_spins(N))


def full_hamiltonian(params, g=0.0, phi_n=0.0):
    """Dense reference H = (LAM/N)(Sx^2 + gamma Sy^2) - h Sz - g S_n on the
    product space, entry by entry from the index bits.

    Sx^2 + gamma Sy^2 is the sum over site pairs (i, j) of
    s^x_i s^x_j + gamma s^y_i s^y_j.  The N terms with i = j put (1+gamma)/4
    each on the diagonal.  The terms with i != j flip the bits of sites i
    and j: with amplitude (1+gamma)/2 when the two spins are antiparallel
    and (1-gamma)/2 when they are parallel.  The kick is -g (cos phi_n S_x
    + sin phi_n S_y) of ``dense_operators``.  H is complex only when the kick
    has a y component.
    """
    N = params.N
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
        h_full -= (g * math.cos(phi_n)) * full_space_operators(N)
        if math.sin(phi_n) != 0.0:
            h_full = h_full - (g * math.sin(phi_n)) * dense_sy(N)
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
        sx, sy, sz = dense_operators(1)
        assert np.allclose(sx, [[0, 0.5], [0.5, 0]])
        assert np.allclose(sy, [[0, -0.5j], [0.5j, 0]])
        assert np.allclose(sz, [[0.5, 0], [0, -0.5]])

    @pytest.mark.parametrize("N", [1, 3, 6])
    def test_traceless(self, N):
        sx, sy, sz = dense_operators(N)
        for op in (sx, sy, sz):
            assert abs(np.trace(op)) <= 1e-12

    def test_hermitian(self):
        sx, sy, sz = dense_operators(5)
        for op in (sx, sy, sz):
            assert np.max(np.abs(op - op.conj().T)) <= 1e-12

    @pytest.mark.parametrize("N", [4, 6])
    def test_casimir_spectrum_matches_sector_decomposition(self, N):
        sx, sy, sz = dense_operators(N)
        s2 = sx @ sx + sy @ sy + sz @ sz
        eigenvalues = np.linalg.eigvalsh(s2)
        s_values = np.arange(N % 2 / 2.0, N / 2.0 + 0.1, 1.0)
        expected = []
        for s in s_values:
            count = int(round(2 * s + 1)) * sector_multiplicity(N, s)
            expected.extend([s * (s + 1)] * count)
        assert np.allclose(np.sort(eigenvalues), np.sort(expected), atol=1e-10)

    @pytest.mark.parametrize("N", range(1, 8))
    def test_bit_construction_equals_kron_sum(self, N):
        sx, sy, sz = dense_operators(N)
        assert np.array_equal(sx, kron_site_sum(N, _PAULI_HALF["x"]))
        assert np.array_equal(sy, kron_site_sum(N, _PAULI_HALF["y"]))
        assert np.array_equal(sz, kron_site_sum(N, _PAULI_HALF["z"]))
        assert not np.iscomplexobj(sx) and not np.iscomplexobj(sz)
        assert np.iscomplexobj(sy) and not np.any(sy.real)

    def test_resource_cap(self):
        with pytest.raises(ValueError):
            full_space_operators(13)
        with pytest.raises(ValueError):
            full_space_correlation(11, 0.5, np.arange(16) * 1.0)


class TestGround:
    def test_total_spin_is_conserved(self):
        N = 6
        sx, sy, sz = dense_operators(N)
        ham = full_hamiltonian(LmgParams(N=N, h=0.4))
        s2 = sx @ sx + sy @ sy + sz @ sz
        assert np.max(np.abs(ham @ s2 - s2 @ ham)) <= 1e-10

    def test_ground_energy_matches_sector(self):
        N, h = 8, 0.5
        params = LmgParams(N=N, h=h)
        e_sector = eigensystem(build_hamiltonian(params)).ground_energy
        full = full_space_ground(params)
        assert abs(full.energy - e_sector) <= 1e-10

    def test_ground_lives_in_maximal_spin_sector(self):
        N = 8
        sx, sy, sz = dense_operators(N)
        full = full_space_ground(LmgParams(N=N, h=0.5))
        # polynomial projector onto S = N/2 built from the Casimir spectrum
        s2 = sx @ sx + sy @ sy + sz @ sz
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
        ham = build_hamiltonian(params, g=g, phi_n=phi_n)
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
        for gamma in (0.0, 0.5, 1.0):
            ham = full_hamiltonian(LmgParams(N=N, h=0.5, gamma=gamma), g=g, phi_n=phi_n)
            assert np.iscomplexobj(ham) == (g != 0.0 and math.sin(phi_n) != 0.0)
            assert np.max(np.abs(ham - ham.conj().T)) <= 1e-14

    def test_hamiltonian_matches_operator_products(self):
        N = 5
        sx, sy, sz = dense_operators(N)
        kicks = [(0.0, 0.0), (0.03, 0.0), (0.03, 0.7)]  # none, along x, complex
        for gamma in (0.0, 0.35, 1.0):
            for g, phi_n in kicks:
                params = LmgParams(N=N, h=0.45, gamma=gamma)
                s2 = sx @ sx + params.gamma * (sy @ sy)
                kick = math.cos(phi_n) * sx + math.sin(phi_n) * sy
                expected = (LAM / N) * s2 - params.h * sz - g * kick
                ham = full_hamiltonian(params, g=g, phi_n=phi_n)
                assert np.max(np.abs(ham - expected)) <= 1e-13

    @pytest.mark.parametrize("N", range(1, 9))
    def test_sz_block_spectrum_equals_dense_spectrum(self, N):
        # the free H in blocks (q, k) of momentum q <= N/2 and k down spins,
        # each the h-free block shifted by -h (N/2 - k); a block
        # 0 < q < N/2 also stands for its conjugate at N - q
        h = 0.37
        ham = full_hamiltonian(LmgParams(N=N, h=h))
        blocks = _free_spectrum(N)[0]
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
        for gamma in (0.0, 0.35, 1.0):
            params = LmgParams(N=N, h=0.45, gamma=gamma)
            for g, phi_n in [(0.0, 0.0), (0.03, 0.0), (0.03, 0.7), (0.03, math.pi / 2)]:
                targets, amps = _lmg_columns(params, index, g, phi_n)
                ham = np.zeros((1 << N, 1 << N), dtype=amps.dtype)
                np.add.at(ham, (targets, index[:, None]), amps)
                reference = full_hamiltonian(params, g=g, phi_n=phi_n)
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
        ham = full_hamiltonian(params, g=g, phi_n=phi_n)
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
        for g in (0.0, 1.0 / N**2):
            e_sector = eigensystem(build_hamiltonian(params, g=g)).ground_energy
            full = full_space_ground(params, g=g)
            assert abs(full.energy - e_sector) <= 1e-10

    def test_large_n_complex_kick_within_a_second(self):
        # the y component makes every block complex, and the Weyl bound
        # leaves q = 0 alone to solve; a 2^12 x 2^12 float64 matrix alone is
        # 134 MB
        N, g, phi_n = 12, 1.0 / 144, 1.3
        params = LmgParams(N=N, h=0.6)
        tracemalloc.start()
        try:
            full = full_space_ground(params, g=g, phi_n=phi_n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        sector = build_hamiltonian(params, g=g, phi_n=phi_n)
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
    ham = full_hamiltonian(params, g=g, phi_n=phi_n)
    norm = np.linalg.norm(ham, 2)
    orbits = _orbits(N)
    _, levels = _momentum_ground(orbits, *_lmg_columns(params, orbits.reps, g, phi_n))
    assert np.max(np.abs(levels - np.linalg.eigvalsh(ham))) <= 1e-12 * max(1.0, norm)
    full = full_space_ground(params, g=g, phi_n=phi_n)
    residual = np.linalg.norm(ham @ full.vector - full.energy * full.vector)
    assert residual <= 1e-12 * norm


@seed(20261019)
@settings(max_examples=60, deadline=None, database=None)
@given(
    N=st.integers(1, 10),
    h=st.floats(0.0, 2.0),
    gamma=st.floats(0.0, 1.0),
    g=st.floats(0.0, 0.3),
    phi_n=st.floats(0.0, 2.0 * math.pi),
)
def test_weyl_floor_bounds_every_block_and_keeps_the_ground(N, h, gamma, g, phi_n):
    params = LmgParams(N=N, h=h, gamma=gamma)
    tol = 1e-12 * N * (1.0 + h + g)  # ||H|| <= N (1 + gamma)/4 + (h + g) N/2
    orbits = _orbits(N)
    columns = _lmg_columns(params, orbits.reps, g, phi_n)
    floor = _weyl_floor(params, g)
    # every block, also N - q of a real H, lies at or above its bound
    for q in range(N):
        keep = np.flatnonzero(q * orbits.period % N == 0)
        block = _momentum_block(orbits, *columns, q, keep, keep)
        assert np.linalg.eigvalsh(block)[0] >= floor[q] - tol
    # the blocks the bound leaves give the ground of an all-block solve
    bounded, levels = _momentum_ground(orbits, *columns, floor)
    full, spectrum = _momentum_ground(orbits, *columns)
    assert np.max(np.abs(levels[:2] - spectrum[:2])) <= tol
    assert abs(bounded.energy - full.energy) <= tol
    assert bounded.degenerate == full.degenerate
    ham = full_hamiltonian(params, g=g, phi_n=phi_n)
    assert np.linalg.norm(ham @ bounded.vector - bounded.energy * bounded.vector) <= tol


def spin_sector_levels(N, gamma, h, g, phi_n):
    """The 2^N levels from lmglab's Dicke sectors alone.  H commutes with S^2,
    and on each of the d_S copies of spin S it is the Dicke-sector H of
    N' = 2S spins at field hN/N' and kick gN/N', scaled by N'/N, as only the
    coupling carries the 1/N; a singlet S = 0 adds the level 0."""
    levels = []
    for n in range(N % 2, N + 1, 2):
        if n == 0:
            block = np.zeros(1)
        else:
            params = LmgParams(N=n, h=h * N / n, gamma=gamma)
            ham = build_hamiltonian(params, g * N / n, phi_n)
            block = (n / N) * eigensystem(ham).energies
        levels += [block] * sector_multiplicity(N, n / 2)
    return np.sort(np.concatenate(levels))


@pytest.mark.parametrize("kicked", [False, True])
@seed(20261020)
@settings(max_examples=20, deadline=None, database=None)
@given(
    N=st.integers(1, 10),
    h=st.floats(0.0, 1.5),
    gamma=st.floats(0.0, 1.0),
    g=st.floats(-0.3, 0.3),
    phi_n=st.floats(0.0, 2.0 * math.pi),
)
def test_every_full_level_is_a_rescaled_dicke_level(kicked, N, h, gamma, g, phi_n):
    # every level of every spin-S copy, against the momentum blocks solved
    # all (no floor), which share no code with the sector side
    g = g if kicked else 0.0
    params = LmgParams(N=N, h=h, gamma=gamma)
    orbits = _orbits(N)
    _, full = _momentum_ground(orbits, *_lmg_columns(params, orbits.reps, g, phi_n))
    sector = spin_sector_levels(N, gamma, h, g, phi_n)
    assert full.shape == sector.shape == (2**N,)
    assert np.max(np.abs(full - sector)) <= 1e-13 * np.max(np.abs(full))


@pytest.mark.parametrize("N", range(4, 13))
def test_kicked_ground_solves_block_zero_alone(monkeypatch, N):
    # at gamma = 1 and g = 1/N^2 the Weyl bound of every block q != 0 lies
    # above the two lowest levels of block q = 0, which holds every orbit
    solves = []
    for name in ("eigh", "eigvalsh"):
        def solve(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            if sys._getframe(1).f_code.co_name == "_momentum_ground":
                solves.append((_name, np.shape(a)[0]))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, solve)
    for h in (0.2, 0.7, 1.5):
        solves.clear()
        full_space_ground(LmgParams(N=N, h=h), g=1.0 / N**2)
        assert solves == [("eigh", _orbits(N).reps.size)]


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
    ham = build_hamiltonian(params, g=g, phi_n=phi_n)
    full = full_space_ground(params, g=g, phi_n=phi_n)
    assert abs(full.energy - eigensystem(ham).ground_energy) <= 1e-10


def plain_line_sums(N, h, tgrid):
    """(S_z, values) of each free ground member, ascending in S_z: every
    S_x line of its neighbor blocks (``_free_lines``), summed as one
    (lines x grid) product of exponentials over the whole grid."""
    levels = {(q, k): w - h * (N / 2 - k) for (q, k), w in _free_spectrum(N)[1].items()}
    e0 = min(w[0] for w in levels.values())
    tol = DEGENERACY_RTOL * max(1.0, abs(e0))
    members = []
    for (q, k), w in levels.items():
        for col in np.flatnonzero(w - e0 <= tol):
            lines = _free_lines(N, q, k)
            omega = np.concatenate([w_j - h * (N / 2 - j) - e0 for j, w_j, _ in lines])
            weights = np.concatenate([weight[:, col] for _, _, weight in lines])
            values = (4.0 / N**2) * (weights @ np.exp(-1j * omega[:, None] * tgrid[None, :]))
            members += [(N / 2 - k, values)] * (2 if 0 < 2 * q < N else 1)
    return sorted(members, key=lambda pair: pair[0])


@seed(35)
@settings(max_examples=40, deadline=None, database=None)
@given(
    N=st.integers(1, 10),
    h=st.floats(0.0, 0.99),
    start=st.floats(0.5, 20.0),
    span=st.floats(0.1, 1.0),
    samples=st.integers(2, 300),
)
def test_full_space_correlation_matches_sector_direct(N, h, start, span, samples):
    # a uniform grid that starts away from 0 and spans up to one collective
    # period 2 pi N; members pair by S_z, as a hair off a crossing one side
    # may hold a second ground member
    tgrid = start + np.arange(samples) * (span * 2 * math.pi * N / samples)
    full = dict(full_space_correlation(N, h, tgrid))
    sector = correlation_fN(N, h, tgrid).members
    paired = [(full[member.m0], member) for member in sector if member.m0 in full]
    assert paired
    for series, member in paired:
        assert np.array_equal(series.t, member.closed_form.t)
        assert np.max(np.abs(series.values - member.closed_form.values)) <= 1e-12


class TestCorrelation:
    @pytest.mark.parametrize("N,h", [(8, 0.5), (6, 0.7)])
    def test_matches_sector_computation(self, N, h):
        tgrid = np.arange(64) * (2 * math.pi * N / 64)
        sector_result = correlation_fN(N, h, tgrid)
        full_members = full_space_correlation(N, h, tgrid)
        assert len(full_members) == len(sector_result.members)
        for (m_full, series), member in zip(full_members, sector_result.members):
            assert m_full == pytest.approx(member.m0, abs=1e-9)
            assert np.max(np.abs(series.values - member.closed_form.values)) <= 1e-10

    def test_static_moment_at_time_zero(self):
        N, h = 6, 0.4
        tgrid = np.arange(16) * 1.0
        members = full_space_correlation(N, h, tgrid)
        sx = full_space_operators(N)
        full = full_space_ground(LmgParams(N=N, h=h))
        static = 4.0 / N**2 * np.vdot(sx @ full.vector, sx @ full.vector).real
        assert members[0][1].values[0].real == pytest.approx(static, rel=1e-10, abs=0)

    def test_phase_sum_memory_is_bounded(self):
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
        expected = plain_line_sums(N, h, tgrid)
        assert [m0 for m0, _ in members] == [m0 for m0, _ in expected]
        for (_, series), (_, values) in zip(members, expected):
            scale = np.max(np.abs(values))
            assert np.max(np.abs(series.values - values)) <= 1e-13 * scale

    @pytest.mark.parametrize("N,h", [(1, 0.5), (3, 0.0), (6, 0.5), (9, 0.95), (10, 0.3)])
    def test_dropped_lines_carry_no_weight(self, N, h):
        # every line of the two neighbor S_z blocks of the dense H; the
        # phase of a line at t carries its level's rounding, a few
        # eps ||H|| t: at most 2.6 eps ||H|| t on these points, 4.9 at
        # N = 10, h = 0.7
        tgrid = np.arange(512) * (40 * math.pi * N / 512)
        members = full_space_correlation(N, h, tgrid)
        sx = full_space_operators(N)
        blocks = dense_sz_blocks(full_hamiltonian(LmgParams(N=N, h=h)), N)
        e0 = min(w[0] for _, w, _ in blocks)
        norm = max(np.max(np.abs(w)) for _, w, _ in blocks)
        drift = 8 * np.finfo(float).eps * norm * tgrid
        assert len(members) == len(ground_M(N, h).levels)
        for m0, series in members:
            k = round(N / 2 - m0)
            phi = np.zeros(2**N)
            phi[blocks[k][0]] = blocks[k][2][:, 0]
            u = sx @ phi
            near = [blocks[j] for j in (k - 1, k + 1) if 0 <= j <= N]
            per_block = [np.abs(v.T @ u[idx]) ** 2 for idx, _, v in near]
            weights = np.concatenate(per_block)
            omega = np.concatenate([w - e0 for _, w, _ in near])
            # one line per block carries weight: the level of the symmetric
            # multiplet; the rest are rounding
            for weight in per_block:
                assert np.count_nonzero(weight > 1e-20 * np.sum(weights)) == 1
            expected = (4.0 / N**2) * (weights @ np.exp(-1j * omega[:, None] * tgrid))
            bound = (2e-15 + drift) * expected[0].real
            assert np.all(np.abs(series.values - expected) <= bound)

    @pytest.mark.parametrize(
        "tgrid", [[0.0, 1.0, 3.0], [2.0, 1.0, 0.0], [0.0], [0.0, np.nan], [[0.0, 1.0]]]
    )
    def test_bad_grid_is_rejected_before_any_work(self, tgrid, monkeypatch):
        def no_solve(N):
            raise AssertionError("solved before the grid was checked")

        monkeypatch.setattr(oracle, "_free_spectrum", no_solve)
        with pytest.raises(ValueError, match="time grid"):
            full_space_correlation(6, 0.5, tgrid)

    @pytest.mark.parametrize("N", [0, -1])
    def test_empty_chain_is_rejected(self, N):
        with pytest.raises(ValueError, match="N must be >= 1"):
            full_space_correlation(N, 0.5, np.arange(4) * 1.0)
        with pytest.raises(ValueError, match="N must be >= 1"):
            sector_vs_full_checks(N, 0.5)

    def test_exactly_two_lines_in_full_space(self):
        # the spectral weights of Sx|ground> touch only the two neighbors
        N, h = 8, 0.4
        sx = full_space_operators(N)
        params = LmgParams(N=N, h=h)
        w, v = np.linalg.eigh(full_hamiltonian(params))
        u = sx @ v[:, 0]
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
        # H, real, with vectors in q = 0 alone: the Weyl bound of every other
        # momentum block lies above the two lowest levels of q = 0
        qs = range(N // 2 + 1)
        free = [size for k in range(N + 1)
                for size in momentum_block_sizes(N, qs, down=k) if size]
        momentum = momentum_block_sizes(N, qs)
        assert sorted(sizes["eigvalsh"]) == sorted(free)
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
        assert sizes["eigvalsh"] == []
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


@pytest.mark.parametrize("position", [1, 2, 3])
def test_worst_is_nan_when_any_deviation_is(position):
    devs = [1e-15] * 4
    devs[position] = math.nan
    assert math.isnan(OracleReport(6, 0.5, 0.0, *devs).worst())


def test_cached_arrays_are_read_only(cold_oracle):
    # a write to a cached array would change every later call in the process
    N = 6
    report = sector_vs_full_checks(N, 0.5)
    split, levels = _free_spectrum(N)
    cached = list(_orbits(N)[1:]) + list(levels.values())
    cached += [a for pair in split.values() for a in pair]
    cached += list(_free_pairs(N, 0, 2)) + [w for _, w, _ in _free_lines(N, 0, 2)]
    cached += [weight for _, _, weight in _free_lines(N, 0, 2)]
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0
    assert _orbits(N).reps[1] != 0
    assert sector_vs_full_checks(N, 0.5).worst() == report.worst()


def test_each_block_and_link_is_built_once(monkeypatch, cold_oracle):
    # N = 10, h = 0.5 has a degenerate ground pair, M0 = 2 and 3, in blocks
    # (0, 3) and (0, 2): one build for each block (q, k) of A, and one for
    # each S_x link (0, j) x (0, k), j = k -+ 1, out of a ground block k
    N = 10
    built = []

    def counting(orbits, targets, amps, q, rows, cols):
        built.append((q, tuple(rows), tuple(cols)))
        return momentum_block(orbits, targets, amps, q, rows, cols)

    momentum_block = oracle._momentum_block
    monkeypatch.setattr(oracle, "_momentum_block", counting)
    tgrid = np.arange(64) * (2 * math.pi * N / 64)
    assert len(full_space_correlation(N, 0.5, tgrid)) == 2
    split = _free_spectrum(N)[0]
    blocks = [(q, tuple(rows), tuple(rows)) for (q, _), (rows, _) in split.items()]
    links = [(0, tuple(split[0, j][0]), tuple(split[0, k][0]))
             for k in (2, 3) for j in (k - 1, k + 1)]
    assert built == blocks + links


def whole_momentum_block(orbits, targets, amps, q):
    """Momentum block q on every orbit, allowed at q or not, from one
    n^2-long bincount: the reference ``_momentum_block`` is a slice of."""
    N, n = orbits.N, orbits.reps.size
    rows = orbits.orbit[targets]
    flat = (rows * n + np.arange(n)[:, None]).ravel()
    weight = (amps * np.sqrt(orbits.period[:, None] / orbits.period[rows])).ravel()
    turns = orbits.shift[targets].ravel()
    roots = np.exp(-2j * np.pi * np.arange(N) / N)
    values = weight * roots[q * turns % N]
    block = np.bincount(flat, values.real, n * n)
    if np.iscomplexobj(amps) or 2 * q % N != 0:
        block = block + 1j * np.bincount(flat, values.imag, n * n)
    return block.reshape(n, n)


def assert_same_block(block, expected):
    assert block.dtype == expected.dtype
    assert np.array_equal(block, expected)


@pytest.mark.parametrize("N", range(1, 11))
def test_momentum_block_is_a_whole_block_slice_bit_for_bit(N):
    rng = np.random.default_rng(N)
    orbits = _orbits(N)
    params = LmgParams(N=N, h=0.6, gamma=0.5)
    for phi_n in (0.0, 0.9):  # a real and a complex H
        columns = _lmg_columns(params, orbits.reps, 1e-2, phi_n)
        for q in range(N):
            whole = whole_momentum_block(orbits, *columns, q)
            keep = np.flatnonzero(q * orbits.period % N == 0)
            rows, cols = (np.sort(rng.choice(keep, rng.integers(1, keep.size + 1),
                                             replace=False)) for _ in range(2))
            for r, c in [(keep, keep), (rows, cols)]:
                assert_same_block(_momentum_block(orbits, *columns, q, r, c),
                                  whole[np.ix_(r, c)])
    # the blocks (q, k) of A, and the S_x links that give the f_N(t) weights
    split = _free_spectrum(N)[0]
    free = _lmg_columns(LmgParams(N=N, h=0.0), orbits.reps)
    sx = (orbits.reps[:, None] ^ oracle._site_bits(N), np.full((orbits.reps.size, N), 0.5))
    for (q, k), (rows, block) in split.items():
        assert_same_block(block, whole_momentum_block(orbits, *free, q)[np.ix_(rows, rows)])
        whole_sx = whole_momentum_block(orbits, *sx, q)
        v_k = _free_pairs(N, q, k)[1]
        for j, w_j, weight in _free_lines(N, q, k):
            link = whole_sx[np.ix_(split[q, j][0], rows)]
            v_j = _free_pairs(N, q, j)[1]
            assert np.array_equal(weight, np.abs(v_j.conj().T @ link @ v_k) ** 2)


def test_free_spectrum_memory_is_bounded(cold_oracle):
    # the whole 352 x 352 momentum blocks of N = 12, each from a bincount
    # over its 1.2e5 cells, peaked at 8.9 MB; its blocks (q, k) have at
    # most 80 rows
    tracemalloc.start()
    try:
        _free_spectrum(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


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
    ham = full_hamiltonian(LmgParams(N=N, h=h))
    assert np.max(np.abs(levels - np.linalg.eigvalsh(ham))) <= 1e-12
    assert e0 == levels[0]
