"""Brute-force validation of the sector computations in the full 2^N space.

Everything here works on dense operators over the 2^N product basis with no
sector bookkeeping: the collective spins are sums of single-site spin-1/2
operators, built by flipping single bits of the basis index, and the
Hamiltonian is assembled entry by entry from pairs of bit flips.  The
sector side builds its (N+1)-dimensional matrices from the Dicke ladder
instead, so agreement between the two routes is a real cross-check of the
Hamiltonian, the states and the observables.

The 2^N matrices are solved in exact symmetry blocks whose labels come
from the bits of the index alone: the free gamma = 1 Hamiltonian conserves
S_z, so it splits by the number of down spins (popcount), and every
collective Hamiltonian commutes with the cyclic site shift T (bit rotation
of the index), so the kicked one splits into N momentum blocks of about
2^N/N rows (Sandvik, AIP Conf. Proc. 1297, 135 (2010), sec. 4.1).  Both
sides diagonalize with LAPACK (numpy.linalg.eigh); the independence lies
in the 2^N construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .evolve import TimeSeries, correlation_fN
from .model import LmgParams, ground_M
from .spinspace import build_sector
from .ssb import default_kick, localize_ground_state

MAX_FULL_SPACE_N = 12
MAX_CORRELATION_N = 10

_DEGEN_RTOL = 1e-10
# time columns per block of the f_N(t) line sum: at most 420 lines (N = 10)
# times 256 complex phases, 1.7 MB.  A power of two keeps every block aligned
# as in one product over the whole grid, which with OpenBLAS gives the same
# sums bit for bit.
_TIME_BLOCK = 256
# summed weight of the f_N(t) lines dropped, relative to the total weight
_LINE_DROP_RTOL = 1e-15

# one symmetry block of a 2^N matrix: (product-basis indices, energies, vectors)
_Block = tuple[np.ndarray, np.ndarray, np.ndarray]


class OracleMismatchError(RuntimeError):
    """A sector-vs-full comparison exceeded its tolerance."""


def _down_spins(N: int) -> np.ndarray:
    """Number of down spins (set bits) of every product-basis index."""
    index = np.arange(1 << N)
    return sum((index >> site) & 1 for site in range(N))


@dataclass(frozen=True)
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
        for site in range(self.N):
            bit = 1 << (self.N - 1 - site)
            # <down|s_y|up> = i/2, <up|s_y|down> = -i/2
            sy[index ^ bit, index] = np.where((index & bit) != 0, -0.5j, 0.5j)
        return sy

    @functools.cached_property
    def sz(self) -> np.ndarray:
        return np.diag(self.N / 2 - _down_spins(self.N))


def full_space_operators(N: int) -> FullSpaceOperators:
    """Collective spin operators as sums of single-site Pauli/2 matrices,
    built by flipping single bits of the index (see ``FullSpaceOperators``)."""
    if N > MAX_FULL_SPACE_N:
        raise ValueError(
            f"resource limit: full-space operators support N <= {MAX_FULL_SPACE_N}"
        )
    if N < 1:
        raise ValueError("N must be >= 1")
    index = np.arange(1 << N)
    sx = np.zeros((1 << N, 1 << N))
    for site in range(N):
        sx[index ^ (1 << (N - 1 - site)), index] = 0.5
    return FullSpaceOperators(N=N, sx=sx)


def full_hamiltonian(
    params: LmgParams,
    ops: FullSpaceOperators,
    g: float = 0.0,
    phi_n: float = 0.0,
) -> np.ndarray:
    """Dense H = (lam/N)(Sx^2 + gamma Sy^2) - h Sz - g S_n on the product space.

    Sx^2 + gamma Sy^2 is the sum over site pairs (i, j) of
    s^x_i s^x_j + gamma s^y_i s^y_j.  The N terms with i = j put (1+gamma)/4
    each on the diagonal.  The terms with i != j flip the bits of sites i
    and j: with amplitude (1+gamma)/2 when the two spins are antiparallel (a
    flip-flop) and (1-gamma)/2 when they are parallel (a double flip).  The
    kick flips single bits through ``ops``.  H is real symmetric, and complex
    Hermitian only when the kick has a y component (g != 0 and
    sin(phi_n) != 0).
    """
    N = ops.N
    scale = params.lam / params.N
    gamma = params.gamma
    index = np.arange(1 << N)
    h_full = np.zeros((1 << N, 1 << N))
    h_full[index, index] = (N / 4 + gamma * (N / 4)) * scale - params.h * (
        N / 2 - _down_spins(N)
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


@dataclass(frozen=True)
class FullGround:
    energy: float
    vector: np.ndarray
    degenerate: bool


def full_space_ground(
    N: int,
    params: LmgParams,
    g: float = 0.0,
    phi_n: float = 0.0,
    *,
    ops: FullSpaceOperators | None = None,
) -> FullGround:
    """Ground state of the (possibly kicked) Hamiltonian, solved in the
    momentum blocks of ``_momentum_ground``.  ``ops`` passes in operators
    already built for this N."""
    if ops is None:
        ops = full_space_operators(N)
    return _momentum_ground(full_hamiltonian(params, ops, g=g, phi_n=phi_n), N)[0]


def _momentum_ground(ham: np.ndarray, N: int) -> tuple[FullGround, np.ndarray]:
    """Ground state and sorted spectrum of a 2^N H that commutes with the
    cyclic site shift T, as every collective H does.

    T rotates the N bits of the index by one place.  Each orbit has a
    representative r (its least index) and a period P, and each index is
    i = T^(s_i) r.  The momentum states
        |r, q> = P^(-1/2) sum_{s<P} exp(2 pi i q s/N) |T^s r>,  q P = 0 (mod N),
    give block q of H as
        H_q[r', r] = sqrt(P P')/N sum_{s<N} exp(-2 pi i q s/N) H[T^s r', r],
    one discrete Fourier transform over s of the gathered columns H[:, reps]
    (the sum visits each orbit N/P' times).  Every block is solved for its
    eigenvalues only; a real H needs q <= N/2 alone, as block N - q is the
    complex conjugate of block q and is counted twice.  The one block that
    holds the lowest level is solved again with its vectors and mapped back
    by psi_i = c_r exp(2 pi i q s_i/N) / sqrt(P).  ``degenerate`` compares
    the two lowest levels of the spectrum.
    """
    index = np.arange(1 << N)
    rot = np.array(  # rot[s] = T^s(index)
        [((index << s) | (index >> (N - s))) & ((1 << N) - 1) for s in range(N)]
    )
    least = np.argmin(rot, axis=0)
    rep, shift = rot[least, index], (-least) % N
    reps = np.flatnonzero(rep == index)
    period = N // np.count_nonzero(rot[:, reps] == reps, axis=0)
    real = not np.iscomplexobj(ham)
    gathered = ham[rot[:, reps][:, :, None], reps]  # [s, r', r] = H[T^s r', r]
    fourier = np.fft.rfft(gathered, axis=0) if real else np.fft.fft(gathered, axis=0)
    fourier *= np.sqrt(np.outer(period, period)) / N

    def block(q: int) -> tuple[np.ndarray, np.ndarray]:
        keep = np.flatnonzero(q * period % N == 0)
        h_q = fourier[q][np.ix_(keep, keep)]
        return keep, h_q.real if real and 2 * q % N == 0 else h_q

    solved = [np.linalg.eigvalsh(block(q)[1]) for q in range(fourier.shape[0])]
    twice = [w for q, w in enumerate(solved) if real and 0 < 2 * q < N]
    levels = np.sort(np.concatenate(solved + twice))
    q = int(np.argmin([w[0] for w in solved]))
    keep, h_q = block(q)
    w, v = np.linalg.eigh(h_q)
    c = np.zeros(reps.size, dtype=v.dtype)
    c[keep] = v[:, 0]
    phase = np.exp(2j * np.pi * (q * shift % N) / N)
    orbit = np.searchsorted(reps, rep)
    vector = c[orbit] * (phase.real if np.isrealobj(c) else phase)
    vector /= np.sqrt(period[orbit])
    e0, e1 = levels[:2]
    degenerate = bool(e1 - e0 <= _DEGEN_RTOL * max(1.0, abs(e0)))
    return FullGround(energy=float(w[0]), vector=vector, degenerate=degenerate), levels


def _check_correlation_size(N: int) -> None:
    if N > MAX_CORRELATION_N:
        raise ValueError(
            f"resource limit: full-space correlation supports N <= {MAX_CORRELATION_N}"
        )


def _sz_blocks(ham: np.ndarray, N: int) -> list[_Block]:
    """Eigenpairs of an S_z-conserving H, one block per number k of down
    spins, k = 0..N; block k has C(N, k) indices."""
    down = _down_spins(N)
    blocks = []
    for k in range(N + 1):
        idx = np.flatnonzero(down == k)
        w, v = np.linalg.eigh(ham[np.ix_(idx, idx)])
        blocks.append((idx, w, v))
    return blocks


def _weighty_lines(weights: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the lines left after dropping the smallest
    weights while their sum stays <= _LINE_DROP_RTOL * sum(weights)."""
    order = np.argsort(weights)
    dropped = np.cumsum(weights[order])
    n_drop = int(np.count_nonzero(dropped <= _LINE_DROP_RTOL * dropped[-1]))
    return np.sort(order[n_drop:])


def _correlation_members(
    ops: FullSpaceOperators, blocks: list[_Block], tgrid: np.ndarray
) -> list[tuple[float, TimeSeries]]:
    """f_N(t) members from the S_z blocks of the free gamma = 1 Hamiltonian.

    The ground levels are the block levels within _DEGEN_RTOL of the lowest
    one; a ground level in block k has S_z = N/2 - k.  S_x maps block k into
    blocks k - 1 and k + 1 only, so the levels of those two blocks carry the
    whole spectral weight of S_x|ground>.  S_x|ground> stays in the
    symmetric multiplet, so all but one level of each block carry weight at
    rounding level: the lines are cut by ``_weighty_lines``, which changes
    f_N by at most _LINE_DROP_RTOL * f_N(0).  The line sum runs over blocks
    of time columns, so its phases take bounded memory at any grid length.
    """
    N = ops.N
    e0 = min(w[0] for _, w, _ in blocks)
    members = []
    for k, (idx, w, v) in enumerate(blocks):
        for col in np.flatnonzero(w - e0 <= _DEGEN_RTOL * max(1.0, abs(e0))):
            phi = np.zeros(1 << N)
            phi[idx] = v[:, col]
            u = ops.sx @ phi
            near = [blocks[j] for j in (k - 1, k + 1) if 0 <= j <= N]
            weights = np.concatenate([np.abs(vj.T @ u[ij]) ** 2 for ij, _, vj in near])
            omega = np.concatenate([wj - e0 for _, wj, _ in near])
            lines = _weighty_lines(weights)
            weights, omega = weights[lines], omega[lines]
            values = np.empty(tgrid.shape[0], dtype=np.complex128)
            for lo in range(0, tgrid.shape[0], _TIME_BLOCK):
                cols = slice(lo, lo + _TIME_BLOCK)
                values[cols] = weights @ np.exp(-1j * omega[:, None] * tgrid[None, cols])
            values *= 4.0 / N**2
            members.append(
                (N / 2 - k, TimeSeries(t=tgrid, values=values, label="fN_full"))
            )
    members.sort(key=lambda pair: pair[0])
    return members


def full_space_correlation(N: int, h: float, tgrid) -> list[tuple[float, TimeSeries]]:
    """f_N(t) evaluated entirely in the 2^N space.

    Returns one (ground Sz, series) pair per ground level, ascending in Sz.
    The free Hamiltonian is solved in S_z blocks, so the two members of a
    degenerate ground pair come out of two different blocks and carry the
    sector-side magnetizations directly.
    """
    _check_correlation_size(N)
    ops = full_space_operators(N)
    blocks = _sz_blocks(full_hamiltonian(LmgParams(N=N, h=h), ops), N)
    return _correlation_members(ops, blocks, np.asarray(tgrid, dtype=np.float64))


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

    Covers the ground energy, the ground Sz (the S_z block of each
    degenerate member), f_N(t) on a uniform grid over one collective period,
    and the order parameter of the kicked ground state.
    """
    _check_correlation_size(N)
    if g is None:
        g = default_kick(N)
    params = LmgParams(N=N, h=h)
    sector = build_sector(N)
    ops = full_space_operators(N)

    # ground energy: the full side from the one block solve of the free H
    # that also feeds f_N(t), the sector side from the free solve that
    # localizes the ground state
    localized = localize_ground_state(params, g=g)
    blocks = _sz_blocks(full_hamiltonian(params, ops), N)
    dev_energy = abs(
        localized.unperturbed_ground_energy - float(min(w[0] for _, w, _ in blocks))
    )

    # ground Sz, matched member by member
    tgrid = np.arange(samples) * (2.0 * math.pi * N / samples)
    full_members = _correlation_members(ops, blocks, tgrid)
    sector_levels = ground_M(N, h).levels
    dev_sz = max(
        abs(m_full - m_sec)
        for (m_full, _), m_sec in zip(full_members, sector_levels)
    )

    # correlation function
    corr = correlation_fN(sector, h, tgrid)
    dev_corr = 0.0
    for (_, full_series), member in zip(full_members, corr.members):
        dev_corr = max(
            dev_corr,
            float(np.max(np.abs(full_series.values - member.direct.values))),
        )

    # localized order parameter
    kicked = full_space_ground(N, params, g=g, ops=ops)
    mx_full = 2.0 / N * float(np.real(np.vdot(kicked.vector, ops.sx @ kicked.vector)))
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
