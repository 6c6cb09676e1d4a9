"""Brute-force validation of the sector computations in the full 2^N space.

Everything here works in the 2^N product basis with no sector bookkeeping:
the collective spins are sums of single-site spin-1/2 operators, and every
matrix element comes from flipping bits of the basis index.  The sector
side builds its (N+1)-dimensional matrices from the Dicke ladder instead,
so agreement between the two routes is a real cross-check of the
Hamiltonian, the states and the observables.

No 2^N x 2^N matrix is formed on the checking path.  Every collective H
commutes with the cyclic site shift T (bit rotation of the index), so it is
solved in the N momentum blocks of T, of about 2^N/N rows each, built
straight from the columns of H at the orbit representatives of T (Sandvik,
AIP Conf. Proc. 1297, 135 (2010), sec. 4.1).  A column is a short list of
(target index, amplitude) pairs: the diagonal entry, the N(N-1)/2 pair flips
of the coupling and the N single flips of the kick.  The free gamma = 1 H
also conserves S_z, so each of its momentum blocks splits further by the
number of down spins (popcount), and in block (q, k) of k down spins the
field only adds -h (N/2 - k) to the h-free part A = -(S^2 - S_z^2)/N.  So
A's blocks are solved once per N in a process and shifted for each h.
Both sides diagonalize with LAPACK (numpy.linalg); the independence lies in
the 2^N construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .evolve import TimeSeries, correlation_fN
from .model import DEGENERACY_RTOL, LmgParams
from .spinspace import _readonly, build_sector
from .ssb import default_kick, localize_ground_state

MAX_FULL_SPACE_N = 12
MAX_CORRELATION_N = 10

# time columns per block of the f_N(t) line sum, so that its phases take
# bounded memory at any grid length.  A power of two keeps every block
# aligned as in one product over the whole grid, which with OpenBLAS gives
# the same sums bit for bit.
_TIME_BLOCK = 256
# summed weight of the f_N(t) lines dropped, relative to the total weight
_LINE_DROP_RTOL = 1e-15


class OracleMismatchError(RuntimeError):
    """A sector-vs-full comparison exceeded its tolerance."""


def _check_full_size(N: int) -> None:
    if N > MAX_FULL_SPACE_N:
        raise ValueError(
            f"resource limit: full-space operators support N <= {MAX_FULL_SPACE_N}"
        )
    if N < 1:
        raise ValueError("N must be >= 1")


def _down_spins(index: np.ndarray, N: int) -> np.ndarray:
    """Number of down spins (set bits) of each product-basis index."""
    return sum((index >> site) & 1 for site in range(N))


def _site_bits(N: int) -> np.ndarray:
    """Bit of each site: site 0 is the most significant bit of the index."""
    return 1 << (N - 1 - np.arange(N))


@dataclass(frozen=True, eq=False)
class FullSpaceOperators:
    """Dense collective operators S_x, S_y, S_z on the 2^N product space.

    The basis follows the Kronecker ordering: site 0 is the most significant
    bit of the index and a 0 bit is spin up, so index 0 is the all-up state.
    Each site's S_x and S_y connect the indices that differ in its bit, and
    S_z is diagonal with N/2 minus the number of down spins.  ``sx`` and
    ``sz`` are real; ``sy`` is complex with a zero real part.  ``sy`` and
    ``sz`` are built on first access, as only some callers read them.
    """

    N: int
    sx: np.ndarray

    @functools.cached_property
    def sy(self) -> np.ndarray:
        index = np.arange(1 << self.N)
        sy = np.zeros((1 << self.N, 1 << self.N), dtype=np.complex128)
        for bit in _site_bits(self.N):
            # <down|s_y|up> = i/2, <up|s_y|down> = -i/2
            sy[index ^ bit, index] = np.where((index & bit) != 0, -0.5j, 0.5j)
        return sy

    @functools.cached_property
    def sz(self) -> np.ndarray:
        return np.diag(self.N / 2 - _down_spins(np.arange(1 << self.N), self.N))


def full_space_operators(N: int) -> FullSpaceOperators:
    """Collective spin operators as sums of single-site Pauli/2 matrices,
    built by flipping single bits of the index (see ``FullSpaceOperators``)."""
    _check_full_size(N)
    index = np.arange(1 << N)
    sx = np.zeros((1 << N, 1 << N))
    for bit in _site_bits(N):
        sx[index ^ bit, index] = 0.5
    return FullSpaceOperators(N=N, sx=sx)


class _Orbits(NamedTuple):
    """Orbits of the cyclic site shift T, which rotates the N bits of the
    index by one place: the representative r (least index, ascending) and
    period P of each orbit, and the orbit and shift s_i of each index i,
    i = T^(s_i) r."""

    N: int
    reps: np.ndarray
    period: np.ndarray
    orbit: np.ndarray
    shift: np.ndarray


@functools.cache
def _orbits(N: int) -> _Orbits:
    index = np.arange(1 << N)
    rot = np.array(  # rot[s] = T^s(index)
        [((index << s) | (index >> (N - s))) & ((1 << N) - 1) for s in range(N)]
    )
    least = np.argmin(rot, axis=0)
    rep = rot[least, index]
    reps = np.flatnonzero(rep == index)
    period = N // np.count_nonzero(rot[:, reps] == reps, axis=0)
    arrays = (reps, period, np.searchsorted(reps, rep), (-least) % N)
    return _Orbits(N, *map(_readonly, arrays))


def _lmg_columns(
    params: LmgParams, reps: np.ndarray, g: float = 0.0, phi_n: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Columns H[:, r] at the indices ``reps`` of
    H = -(1/N)(Sx^2 + gamma Sy^2) - h Sz - g S_n, as (targets, amplitudes),
    one row per column.

    Sx^2 + gamma Sy^2 is the sum over site pairs (i, j) of
    s^x_i s^x_j + gamma s^y_i s^y_j.  The N terms with i = j put (1+gamma)/4
    each on the diagonal.  The terms with i != j flip the bits of sites i
    and j: with amplitude (1+gamma)/2 when the two spins are antiparallel (a
    flip-flop) and (1-gamma)/2 when they are parallel (a double flip).  The
    kick flips single bits: -g e^(i phi_n)/2 from up to down and
    -g e^(-i phi_n)/2 from down to up.  The amplitudes are real unless the
    kick has a y component (g != 0 and sin(phi_n) != 0).
    """
    N, gamma = params.N, params.gamma
    scale = -1.0 / N  # lambda = -1
    r = reps[:, None]
    bits = _site_bits(N)
    diag = (N / 4 + gamma * (N / 4)) * scale - params.h * (N / 2 - _down_spins(r, N))
    i, j = np.triu_indices(N, 1)
    parallel = ((r & bits[i]) == 0) == ((r & bits[j]) == 0)
    double_flip, flip_flop = (0.5 - 0.5 * gamma) * scale, (0.5 + 0.5 * gamma) * scale
    flips = np.where(parallel, double_flip, flip_flop)
    targets, amps = [r, r ^ (bits[i] | bits[j])], [diag, flips]
    if g != 0.0:
        sign = np.where((r & bits) == 0, 1.0, -1.0)  # +1 flips an up spin down
        kick = np.full(sign.shape, -0.5 * g * math.cos(phi_n))
        if math.sin(phi_n) != 0.0:
            kick = kick + 1j * (-0.5 * g * math.sin(phi_n)) * sign
        targets.append(r ^ bits)
        amps.append(kick)
    return np.hstack(targets), np.hstack(amps)


def _momentum_blocks(
    orbits: _Orbits, targets: np.ndarray, amps: np.ndarray, qs
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Momentum blocks of an operator that commutes with T, from its columns
    at the representatives given as (targets, amps), one row per
    representative.

    The momentum states |r, q> = P^(-1/2) sum_{s<P} exp(2 pi i q s/N) |T^s r>
    exist for q P = 0 (mod N) and give block q as
        H_q[o(t), r] = sqrt(P_r/P_o) sum_t H[t, r] exp(-2 pi i q s_t/N),
    a sum over the targets t of column r, each in orbit o(t) at shift s_t.
    Returns (orbits kept, H_q on them) for each q of ``qs``; a block of a
    real operator is real at 2q = 0 (mod N).
    """
    N, n = orbits.N, orbits.reps.size
    rows = orbits.orbit[targets]
    flat = (rows * n + np.arange(n)[:, None]).ravel()
    weight = (amps * np.sqrt(orbits.period[:, None] / orbits.period[rows])).ravel()
    turns = orbits.shift[targets].ravel()
    roots = np.exp(-2j * np.pi * np.arange(N) / N)
    real = not np.iscomplexobj(amps)
    blocks = []
    for q in qs:
        keep = np.flatnonzero(q * orbits.period % N == 0)
        values = weight * roots[q * turns % N]
        block = np.bincount(flat, values.real, n * n)
        if not (real and 2 * q % N == 0):
            block = block + 1j * np.bincount(flat, values.imag, n * n)
        blocks.append((keep, block.reshape(n, n)[np.ix_(keep, keep)]))
    return blocks


@dataclass(frozen=True, eq=False)
class FullGround:
    energy: float
    vector: np.ndarray
    degenerate: bool


def full_space_ground(
    params: LmgParams, g: float = 0.0, phi_n: float = 0.0
) -> FullGround:
    """Ground state of the (possibly kicked) Hamiltonian on the 2^N space,
    N = ``params.N``, solved in the momentum blocks of ``_momentum_ground``."""
    _check_full_size(params.N)
    orbits = _orbits(params.N)
    return _momentum_ground(orbits, *_lmg_columns(params, orbits.reps, g, phi_n))[0]


def _momentum_ground(
    orbits: _Orbits, targets: np.ndarray, amps: np.ndarray
) -> tuple[FullGround, np.ndarray]:
    """Ground state and sorted spectrum of the H whose columns at the orbit
    representatives are (targets, amps), from its momentum blocks.

    Every block is solved for its eigenvalues only; for a real H, block
    N - q is the complex conjugate of block q, so only q <= N/2 is solved
    and 0 < q < N/2 counted twice.  The one block that holds the lowest
    level is solved again with its vectors and mapped back by
    psi_i = c_r exp(2 pi i q s_i/N) / sqrt(P).  ``degenerate`` compares the
    two lowest levels of the spectrum.
    """
    N = orbits.N
    real = not np.iscomplexobj(amps)
    qs = range(N // 2 + 1) if real else range(N)
    blocks = _momentum_blocks(orbits, targets, amps, qs)
    solved = [np.linalg.eigvalsh(block) for _, block in blocks]
    twice = [w for q, w in zip(qs, solved) if real and 0 < 2 * q < N]
    levels = np.sort(np.concatenate(solved + twice))
    q = int(np.argmin([w[0] for w in solved]))
    keep, block = blocks[q]
    w, v = np.linalg.eigh(block)
    c = np.zeros(orbits.reps.size, dtype=v.dtype)
    c[keep] = v[:, 0]
    phase = np.exp(2j * np.pi * (q * orbits.shift % N) / N)
    vector = c[orbits.orbit] * (phase.real if np.isrealobj(c) else phase)
    vector /= np.sqrt(orbits.period[orbits.orbit])
    e0, e1 = levels[:2]
    degenerate = bool(e1 - e0 <= DEGENERACY_RTOL * max(1.0, abs(e0)))
    return FullGround(energy=float(w[0]), vector=vector, degenerate=degenerate), levels


def _apply_sx(vector: np.ndarray, N: int) -> np.ndarray:
    """S_x |psi> on the 2^N product basis, by single-bit flips."""
    index = np.arange(1 << N)
    return 0.5 * sum(vector[index ^ bit] for bit in _site_bits(N))


def _check_correlation_size(N: int) -> None:
    if N > MAX_CORRELATION_N:
        raise ValueError(
            f"resource limit: full-space correlation supports N <= {MAX_CORRELATION_N}"
        )
    _check_full_size(N)


def _weighty_lines(weights: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the lines left after dropping the smallest
    weights while their sum stays <= _LINE_DROP_RTOL * sum(weights)."""
    order = np.argsort(weights)
    dropped = np.cumsum(weights[order])
    n_drop = int(np.count_nonzero(dropped <= _LINE_DROP_RTOL * dropped[-1]))
    return np.sort(order[n_drop:])


def _free_blocks(orbits: _Orbits) -> dict:
    """Blocks (q, k), q <= N/2, of the h-free part A = -(S^2 - S_z^2)/N of
    the free gamma = 1 H, which conserves S_z: the momentum block q
    restricted to the orbits with k down spins.  Maps (q, k) to (rows of
    block q, A_(q,k)), read-only; empty blocks are left out."""
    N = orbits.N
    down = _down_spins(orbits.reps, N)
    qs = range(N // 2 + 1)  # H is real: block N - q is block q conjugated
    columns = _lmg_columns(LmgParams(N=N, h=0.0), orbits.reps)
    split = {}
    for q, (keep, block) in zip(qs, _momentum_blocks(orbits, *columns, qs)):
        for k in np.flatnonzero(np.bincount(down[keep])).tolist():
            part = np.flatnonzero(down[keep] == k)
            split[q, k] = _readonly(part), _readonly(block[np.ix_(part, part)])
    return split


@functools.cache
def _free_spectrum(N: int) -> tuple[dict, dict]:
    """The blocks A_(q,k) of ``_free_blocks`` and their eigenvalues, solved
    once per N, read-only."""
    split = _free_blocks(_orbits(N))
    return split, {key: _readonly(np.linalg.eigvalsh(a)) for key, (_, a) in split.items()}


@functools.cache
def _free_pairs(N: int, q: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of A_(q,k), read-only."""
    return tuple(map(_readonly, np.linalg.eigh(_free_spectrum(N)[0][q, k][1])))


@functools.cache
def _sx_block(N: int, q: int) -> np.ndarray:
    """Momentum block q of S_x, read-only."""
    orbits = _orbits(N)
    columns = (orbits.reps[:, None] ^ _site_bits(N), np.full((orbits.reps.size, N), 0.5))
    return _readonly(_momentum_blocks(orbits, *columns, [q])[0][1])


@functools.cache
def _free_lines(N: int, q: int, k: int) -> tuple:
    """S_x lines out of block (q, k), as S_x maps k to k +- 1: for each block
    (q, j), j = k -+ 1, the tuple (j, levels of A_(q,j), weights |<a|S_x|c>|^2
    with a row per level a of A_(q,j), a column per level c of A_(q,k))."""
    split, sx = _free_spectrum(N)[0], _sx_block(N, q)
    v_k = _free_pairs(N, q, k)[1]
    lines = []
    for j in (k - 1, k + 1):
        if (q, j) in split:
            w_j, v_j = _free_pairs(N, q, j)
            link = sx[np.ix_(split[q, j][0], split[q, k][0])]
            lines.append((j, w_j, _readonly(np.abs(v_j.conj().T @ link @ v_k) ** 2)))
    return tuple(lines)


def _free_correlation(
    N: int, h: float, tgrid: np.ndarray
) -> tuple[float, list[tuple[float, TimeSeries]]]:
    """Ground energy and f_N(t) members of the free gamma = 1 Hamiltonian,
    from its blocks (q, k) (``_free_blocks``); a level in block (q, k) has
    S_z = N/2 - k, and a ground level at 0 < q < N/2 has a conjugate twin
    at N - q with the same f_N(t).

    H = A - h S_z: the levels of block (q, k) are eig(A_(q,k)) - h (N/2 - k)
    and its eigenvectors, hence the S_x weights, do not depend on h.  A's
    levels are solved once per N (``_free_spectrum``), a block's vectors and
    S_x weights when a ground level first lands in it (``_free_lines``); one
    code path serves cold and warm calls.  The ground levels are the block
    levels within DEGENERACY_RTOL of the lowest.  S_x|ground> stays in the
    symmetric multiplet, so all but one level of each neighbor block carry
    weight at rounding level: ``_weighty_lines`` cuts them, which changes
    f_N by at most _LINE_DROP_RTOL * f_N(0).  The line sum runs over blocks
    of time columns, so its phases take bounded memory at any grid length.
    """
    levels = {(q, k): w - h * (N / 2 - k) for (q, k), w in _free_spectrum(N)[1].items()}
    e0 = min(w[0] for w in levels.values())
    tol = DEGENERACY_RTOL * max(1.0, abs(e0))
    members = []
    for (q, k), w in levels.items():
        if w[0] - e0 > tol:
            continue
        lines = _free_lines(N, q, k)
        omega = np.concatenate([w_j - h * (N / 2 - j) - e0 for j, w_j, _ in lines])
        for col in np.flatnonzero(w - e0 <= tol):
            weights = np.concatenate([weight[:, col] for _, _, weight in lines])
            kept = _weighty_lines(weights)
            weights, omega_kept = weights[kept], omega[kept]
            values = np.empty(tgrid.shape[0], dtype=np.complex128)
            for lo in range(0, tgrid.shape[0], _TIME_BLOCK):
                cols = slice(lo, lo + _TIME_BLOCK)
                values[cols] = weights @ np.exp(-1j * omega_kept[:, None] * tgrid[None, cols])
            values *= 4.0 / N**2
            member = (N / 2 - k, TimeSeries(t=tgrid, values=values))
            members += [member] * (2 if 0 < 2 * q < N else 1)
    members.sort(key=lambda pair: pair[0])
    return float(e0), members


def full_space_correlation(N: int, h: float, tgrid) -> list[tuple[float, TimeSeries]]:
    """f_N(t) evaluated entirely in the 2^N space.

    Returns one (ground Sz, series) pair per ground level, ascending in Sz.
    The free Hamiltonian is solved in blocks of fixed S_z, so the two
    members of a degenerate ground pair come out of two different blocks and
    carry the sector-side magnetizations directly.
    """
    _check_correlation_size(N)
    return _free_correlation(N, h, np.asarray(tgrid, dtype=np.float64))[1]


@dataclass(frozen=True)
class OracleReport:
    """Maximum absolute deviations between sector and full-space routes."""

    N: int
    h: float
    g: float
    ground_energy: float
    ground_sz: float
    correlation: float
    localized_mx: float

    def worst(self) -> float:
        return max(
            self.ground_energy, self.ground_sz, self.correlation, self.localized_mx
        )


def sector_vs_full_checks(
    N: int, h: float, g: float | None = None, samples: int = 64
) -> OracleReport:
    """Run every sector-vs-full comparison for one parameter point.

    Covers the ground energy, the ground Sz (each sector member against the
    full-space one of its S_z), f_N(t) on a uniform grid over one
    collective period, and the order parameter of the kicked ground state.
    """
    _check_correlation_size(N)
    if g is None:
        g = default_kick(N)
    params = LmgParams(N=N, h=h)
    sector = build_sector(N)

    # ground energy: the full side from the block solves of the free H that
    # also feed f_N(t), the sector side from the free solve that localizes
    # the ground state
    localized = localize_ground_state(params, g=g)
    tgrid = np.arange(samples) * (2.0 * math.pi * N / samples)
    e0_full, full_members = _free_correlation(N, h, tgrid)
    dev_energy = abs(localized.unperturbed_ground_energy - e0_full)

    # ground Sz and f_N(t), each sector member against the full-space member
    # of its S_z; a missing one is off by its distance to the nearest
    corr = correlation_fN(sector, h, tgrid)
    by_sz = dict(full_members)
    dev_sz = max(min(abs(m - member.m0) for m in by_sz) for member in corr.members)
    dev_corr = max(
        (float(np.max(np.abs(by_sz[member.m0].values - member.direct.values)))
         for member in corr.members if member.m0 in by_sz),
        default=0.0,
    )

    # localized order parameter
    kicked = full_space_ground(params, g=g)
    sx_kicked = _apply_sx(kicked.vector, N)
    mx_full = 2.0 / N * float(np.real(np.vdot(kicked.vector, sx_kicked)))
    dev_mx = abs(localized.m_n - mx_full)

    return OracleReport(
        N=N,
        h=h,
        g=g,
        ground_energy=dev_energy,
        ground_sz=dev_sz,
        correlation=dev_corr,
        localized_mx=dev_mx,
    )
