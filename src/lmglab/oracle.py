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
of the coupling and the N single flips of the kick, and a block is built
only on the orbits it is solved on.  The free gamma = 1 H also conserves
S_z, so each of its momentum blocks splits further by the number of down
spins (popcount), and in block (q, k) of k down spins the field only adds
-h (N/2 - k) to the h-free part A = -(S^2 - S_z^2)/N.  So A's blocks are
built and solved once per N in a process and shifted for each h, and
f_N(t) sums every level of the two S_z blocks next to a ground level as a
line, through the factored phase sum the sector's series use.
Every H here is that free one plus (1 - gamma) S_y^2/N >= 0 and a kick of
norm |g| N/2, so by Weyl's inequality A's shifted levels less |g| N/2 bound
its momentum blocks from below, and its ground state is solved only in the
blocks this bound cannot rule out.  Both sides diagonalize with LAPACK
(numpy.linalg); the independence lies in the 2^N construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .evolve import TimeSeries, _check_grid, _phase_sum, _series, correlation_fN
from .model import DEGENERACY_RTOL, LmgParams
from .spinspace import _readonly, build_sector
from .ssb import localize_ground_state

MAX_FULL_SPACE_N = 12
MAX_CORRELATION_N = 10

_FLOOR_RTOL = 1e-10  # rounding margin of a block's Weyl bound, relative to the level
_ORACLE_SAMPLES = 64  # f_N(t) samples of sector_vs_full_checks, over one period


class OracleMismatchError(RuntimeError):
    """A sector-vs-full comparison exceeded its tolerance."""


def _check_full_size(N: int) -> None:
    build_sector(N)  # ValueError unless N is a positive integer
    if N > MAX_FULL_SPACE_N:
        raise ValueError(
            f"resource limit: full-space operators support N <= {MAX_FULL_SPACE_N}"
        )


def _down_spins(index: np.ndarray, N: int) -> np.ndarray:
    """Number of down spins (set bits) of each product-basis index."""
    return sum((index >> site) & 1 for site in range(N))


def _site_bits(N: int) -> np.ndarray:
    """Bit of each site: site 0 is the most significant bit of the index."""
    return 1 << (N - 1 - np.arange(N))


def full_space_operators(N: int) -> np.ndarray:
    """The collective S_x on the 2^N product space, dense and real: the sum of
    the single-site Pauli x/2, built by flipping single bits of the index.

    The basis follows the Kronecker ordering: site 0 is the most significant
    bit of the index and a 0 bit is spin up, so index 0 is the all-up state.
    """
    _check_full_size(N)
    index = np.arange(1 << N)
    sx = np.zeros((1 << N, 1 << N))
    for bit in _site_bits(N):
        sx[index ^ bit, index] = 0.5
    return sx


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


def _momentum_block(
    orbits: _Orbits, targets: np.ndarray, amps: np.ndarray, q: int,
    rows: np.ndarray, cols: np.ndarray,
) -> np.ndarray:
    """Momentum block q of an operator that commutes with T, on the orbits
    ``rows`` and ``cols``, from its columns at the representatives given as
    (targets, amps), one row per representative.

    The momentum states |r, q> = P^(-1/2) sum_{s<P} exp(2 pi i q s/N) |T^s r>
    exist for q P = 0 (mod N) and give block q as
        H_q[o(t), r] = sqrt(P_r/P_o) sum_t H[t, r] exp(-2 pi i q s_t/N),
    a sum over the targets t of column r, each in orbit o(t) at shift s_t,
    taken in column order; targets outside ``rows`` are dropped first.  A
    block of a real operator is real at 2q = 0 (mod N).
    """
    N, width = orbits.N, targets.shape[1]
    position = np.full(orbits.reps.size, -1)
    position[rows] = np.arange(rows.size)
    t = targets[cols].ravel()
    row = position[orbits.orbit[t]]
    hit = np.flatnonzero(row >= 0)  # column by column, in target order
    t, col = t[hit], hit // width
    ratio = orbits.period[cols][col] / orbits.period[orbits.orbit[t]]
    roots = np.exp(-2j * np.pi * np.arange(N) / N)
    values = amps[cols].ravel()[hit] * np.sqrt(ratio) * roots[q * orbits.shift[t] % N]
    flat, size = row[hit] * cols.size + col, rows.size * cols.size
    block = np.bincount(flat, values.real, size)
    if np.iscomplexobj(amps) or 2 * q % N != 0:
        block = block + 1j * np.bincount(flat, values.imag, size)
    return block.reshape(rows.size, cols.size)


@dataclass(frozen=True, eq=False)
class FullGround:
    energy: float
    vector: np.ndarray
    degenerate: bool


def full_space_ground(
    params: LmgParams, g: float = 0.0, phi_n: float = 0.0
) -> FullGround:
    """Ground state of the (possibly kicked) Hamiltonian on the 2^N space,
    N = ``params.N``, from the momentum blocks ``_weyl_floor`` cannot rule out."""
    _check_full_size(params.N)
    orbits, floor = _orbits(params.N), _weyl_floor(params, g)
    return _momentum_ground(orbits, *_lmg_columns(params, orbits.reps, g, phi_n), floor)[0]


def _weyl_floor(params: LmgParams, g: float) -> np.ndarray:
    """min_k eig(A_(q,k))[0] - h (N/2 - k) - |g| N/2 for each block q (and N - q):
    a lower bound on its levels (Horn & Johnson, Matrix Analysis, Thm 4.3.1)."""
    N, floor = params.N, np.full(params.N, np.inf)
    for (q, k), w in _free_spectrum(N)[1].items():
        floor[q] = floor[-q] = min(floor[q], w[0] - params.h * (N / 2 - k))
    return floor - abs(g) * N / 2


def _momentum_ground(
    orbits: _Orbits, targets: np.ndarray, amps: np.ndarray, floor=None
) -> tuple[FullGround, np.ndarray]:
    """Ground state and sorted levels of the H whose columns at the orbit
    representatives are (targets, amps), from its momentum blocks.

    Blocks are solved by ``eigh`` once each, ascending in their lower bound
    ``floor[q]`` (none: -inf), until one lies _FLOOR_RTOL above the second
    level found: the rest hold neither level ``degenerate`` compares.  Block
    N - q of a real H is block q conjugated, so only q <= N/2 is solved and
    0 < q < N/2 counted twice.  psi_i = c_r exp(2 pi i q s_i/N) / sqrt(P)
    maps the ground back.  The levels are the solved blocks': all, unbounded.
    """
    N = orbits.N
    real = not np.iscomplexobj(amps)
    qs = range(N // 2 + 1) if real else range(N)
    floor = np.full(N, -np.inf) if floor is None else floor
    levels, solved = np.empty(0), []
    for q in sorted(qs, key=floor.__getitem__):
        if levels.size > 1 and floor[q] - levels[1] > _FLOOR_RTOL * max(1.0, abs(levels[1])):
            break
        keep = np.flatnonzero(q * orbits.period % N == 0)
        w, v = np.linalg.eigh(_momentum_block(orbits, targets, amps, q, keep, keep))
        levels = np.sort(np.concatenate([levels, w, w if real and 0 < 2 * q < N else []]))
        solved.append((w[0], q, keep, v[:, 0].copy()))
    energy, q, keep, ground = min(solved)  # q breaks a tie, never an array
    c = np.zeros(orbits.reps.size, dtype=ground.dtype)
    c[keep] = ground
    phase = np.exp(2j * np.pi * (q * orbits.shift % N) / N)
    vector = c[orbits.orbit] * (phase.real if np.isrealobj(c) else phase)
    vector /= np.sqrt(orbits.period[orbits.orbit])
    degenerate = bool(levels[1] - energy <= DEGENERACY_RTOL * max(1.0, abs(energy)))
    return FullGround(energy=float(energy), vector=vector, degenerate=degenerate), levels


def _apply_sx(vector: np.ndarray, N: int) -> np.ndarray:
    """S_x |psi> on the 2^N product basis, by single-bit flips."""
    index = np.arange(1 << N)
    return 0.5 * sum(vector[index ^ bit] for bit in _site_bits(N))


def _check_correlation_size(N: int) -> None:
    build_sector(N)  # ValueError unless N is a positive integer
    if N > MAX_CORRELATION_N:
        raise ValueError(
            f"resource limit: full-space correlation supports N <= {MAX_CORRELATION_N}"
        )


@functools.cache
def _free_spectrum(N: int) -> tuple[dict, dict]:
    """Blocks (q, k), q <= N/2, of the h-free part A = -(S^2 - S_z^2)/N of
    the free gamma = 1 H, which conserves S_z: the momentum block q on the
    orbits with k down spins.  Maps (q, k) to (orbits of the block,
    A_(q,k)) and to the eigenvalues of A_(q,k), solved once per N,
    read-only; empty blocks are left out."""
    orbits = _orbits(N)
    down = _down_spins(orbits.reps, N)
    columns = _lmg_columns(LmgParams(N=N, h=0.0), orbits.reps)
    split = {}
    for q in range(N // 2 + 1):  # H is real: block N - q is block q conjugated
        allowed = q * orbits.period % N == 0
        for k in np.flatnonzero(np.bincount(down[allowed])).tolist():
            rows = np.flatnonzero(allowed & (down == k))
            block = _momentum_block(orbits, *columns, q, rows, rows)
            split[q, k] = _readonly(rows), _readonly(block)
    return split, {key: _readonly(np.linalg.eigvalsh(a)) for key, (_, a) in split.items()}


@functools.cache
def _free_pairs(N: int, q: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of A_(q,k), read-only."""
    return tuple(map(_readonly, np.linalg.eigh(_free_spectrum(N)[0][q, k][1])))


@functools.cache
def _free_lines(N: int, q: int, k: int) -> tuple:
    """S_x lines out of block (q, k), as S_x maps k to k +- 1: for each block
    (q, j), j = k -+ 1, the tuple (j, levels of A_(q,j), weights |<a|S_x|c>|^2
    with a row per level a of A_(q,j), a column per level c of A_(q,k))."""
    orbits, split = _orbits(N), _free_spectrum(N)[0]
    sx = (orbits.reps[:, None] ^ _site_bits(N), np.full((orbits.reps.size, N), 0.5))
    v_k = _free_pairs(N, q, k)[1]
    lines = []
    for j in (k - 1, k + 1):
        if (q, j) in split:
            w_j, v_j = _free_pairs(N, q, j)
            link = _momentum_block(orbits, *sx, q, split[q, j][0], split[q, k][0])
            lines.append((j, w_j, _readonly(np.abs(v_j.conj().T @ link @ v_k) ** 2)))
    return tuple(lines)


def _free_correlation(
    N: int, h: float, tgrid: np.ndarray
) -> tuple[float, list[tuple[float, TimeSeries]]]:
    """Ground energy and f_N(t) members of the free gamma = 1 Hamiltonian,
    from its blocks (q, k) (``_free_spectrum``); a level in block (q, k) has
    S_z = N/2 - k, and a ground level at 0 < q < N/2 has a conjugate twin
    at N - q with the same f_N(t).

    H = A - h S_z: the levels of block (q, k) are eig(A_(q,k)) - h (N/2 - k)
    and its eigenvectors, hence the S_x weights, do not depend on h.  A's
    levels are solved once per N (``_free_spectrum``), a block's vectors and
    S_x weights when a ground level first lands in it (``_free_lines``); one
    code path serves cold and warm calls.  The ground levels are the block
    levels within DEGENERACY_RTOL of the lowest.  Each member sums every
    level of the two neighbor blocks as a line, through the factored
    ``_phase_sum`` that bounds its memory at any grid length.  Raises
    ValueError, before any work, on a grid that ``_check_grid`` rejects.
    """
    tgrid = _check_grid(tgrid)
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
            values = (4.0 / N**2) * _phase_sum(-omega, weights, tgrid)
            member = (N / 2 - k, _series(tgrid, values))
            members += [member] * (2 if 0 < 2 * q < N else 1)
    members.sort(key=lambda pair: pair[0])
    return float(e0), members


def full_space_correlation(N: int, h: float, tgrid) -> list[tuple[float, TimeSeries]]:
    """f_N(t) evaluated entirely in the 2^N space.

    Returns one (ground Sz, series) pair per ground level, ascending in Sz.
    The free Hamiltonian is solved in blocks of fixed S_z, so the two
    members of a degenerate ground pair come out of two different blocks and
    carry the sector-side magnetizations directly.  The grid is checked
    before any work.
    """
    _check_correlation_size(N)
    return _free_correlation(N, h, tgrid)[1]


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
        """The largest deviation, NaN if any deviation is NaN."""
        return float(np.max(
            [self.ground_energy, self.ground_sz, self.correlation, self.localized_mx]
        ))


def sector_vs_full_checks(N: int, h: float, g: float) -> OracleReport:
    """Run every sector-vs-full comparison for one parameter point.

    Covers the ground energy, the ground Sz (each sector member against the
    full-space one of its S_z), f_N(t) on a uniform grid of
    ``_ORACLE_SAMPLES`` points over one collective period (the one closed
    form per ground level against the full-space member of its S_z), and the
    order parameter of the ground state kicked with the g given (the CLI's
    default kick 1/N^2 is ``ssb.default_kick``).
    """
    _check_correlation_size(N)
    params = LmgParams(N=N, h=h)

    # ground energy: the full side from the block solves of the free H that
    # also feed f_N(t), the sector side from the free solve that localizes
    # the ground state
    localized = localize_ground_state(params, g=g)
    tgrid = np.arange(_ORACLE_SAMPLES) * (2.0 * math.pi * N / _ORACLE_SAMPLES)
    e0_full, full_members = _free_correlation(N, h, tgrid)
    dev_energy = abs(localized.unperturbed_ground_energy - e0_full)

    # ground Sz and f_N(t), each sector member against the full-space member
    # of its S_z; a missing one is off by its distance to the nearest
    corr = correlation_fN(N, h, tgrid)
    by_sz = dict(full_members)
    dev_sz = max(min(abs(m - member.m0) for m in by_sz) for member in corr.members)
    dev_corr = max(
        (float(np.max(np.abs(by_sz[member.m0].values - member.closed_form.values)))
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
