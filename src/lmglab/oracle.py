"""Brute-force validation of the sector computations in the full 2^N space.

Everything here works on dense operators over the 2^N product basis with no
sector bookkeeping: the collective spins are sums of single-site spin-1/2
operators, built by flipping single bits of the basis index.  The sector
side builds its (N+1)-dimensional matrices from the Dicke ladder instead,
so agreement between the two routes is a real cross-check of the
Hamiltonian, the states and the observables.  Both sides diagonalize with
LAPACK (numpy.linalg.eigh); the independence lies in the 2^N construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolve import TimeSeries, eigensystem
from .model import LmgParams, build_hamiltonian, ground_M
from .spinspace import build_sector
from .ssb import localize_ground_state

MAX_FULL_SPACE_N = 12
MAX_CORRELATION_N = 10

_DEGEN_RTOL = 1e-10


class OracleMismatchError(RuntimeError):
    """A sector-vs-full comparison exceeded its tolerance."""


@dataclass(frozen=True)
class FullSpaceOperators:
    """Dense collective operators S_x, S_y, S_z on the 2^N product space.

    ``sx`` and ``sz`` are real; ``sy`` is complex with a zero real part.
    """

    N: int
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray


def full_space_operators(N: int) -> FullSpaceOperators:
    """Collective spin operators as sums of single-site Pauli/2 matrices.

    The basis follows the Kronecker ordering: site 0 is the most significant
    bit of the index and a 0 bit is spin up, so index 0 is the all-up state.
    Each site's S_x and S_y connect the indices that differ in its bit, and
    S_z is diagonal with N/2 minus the number of down spins.
    """
    if N > MAX_FULL_SPACE_N:
        raise ValueError(
            f"resource limit: full-space operators support N <= {MAX_FULL_SPACE_N}"
        )
    if N < 1:
        raise ValueError("N must be >= 1")
    dim = 1 << N
    index = np.arange(dim)
    sx = np.zeros((dim, dim))
    sy = np.zeros((dim, dim), dtype=np.complex128)
    sz_diag = np.zeros(dim)
    for site in range(N):
        bit = 1 << (N - 1 - site)
        down = (index & bit) != 0
        flipped = index ^ bit
        sx[flipped, index] = 0.5
        # <down|s_y|up> = i/2, <up|s_y|down> = -i/2
        sy[flipped, index] = np.where(down, -0.5j, 0.5j)
        sz_diag += np.where(down, -0.5, 0.5)
    return FullSpaceOperators(N=N, sx=sx, sy=sy, sz=np.diag(sz_diag))


def full_hamiltonian(
    params: LmgParams,
    ops: FullSpaceOperators,
    g: float = 0.0,
    phi_n: float = 0.0,
) -> np.ndarray:
    """Dense H = (lam/N)(Sx^2 + gamma Sy^2) - h Sz - g S_n on the product space.

    S_y = iA with A = Im S_y real, so S_y^2 = -A^2: H is real symmetric,
    and complex Hermitian only when the kick has a y component (g != 0 and
    sin(phi_n) != 0).
    """
    h_full = ops.sx @ ops.sx
    if params.gamma != 0.0:
        a = np.ascontiguousarray(ops.sy.imag)
        h_full -= params.gamma * (a @ a)
    h_full *= params.lam / params.N
    h_full -= params.h * ops.sz
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
    """Dense ground state of the (possibly kicked) Hamiltonian.

    ``ops`` passes in operators already built for this N.
    """
    if ops is None:
        ops = full_space_operators(N)
    w, v = np.linalg.eigh(full_hamiltonian(params, ops, g=g, phi_n=phi_n))
    degenerate = bool(w[1] - w[0] <= _DEGEN_RTOL * max(1.0, abs(w[0])))
    return FullGround(energy=float(w[0]), vector=v[:, 0].copy(), degenerate=degenerate)


def _check_correlation_size(N: int) -> None:
    if N > MAX_CORRELATION_N:
        raise ValueError(
            f"resource limit: full-space correlation supports N <= {MAX_CORRELATION_N}"
        )


def _correlation_members(
    ops: FullSpaceOperators, w: np.ndarray, v: np.ndarray, tgrid: np.ndarray
) -> list[tuple[float, TimeSeries]]:
    """f_N(t) members from the full spectrum (w, v) of the free Hamiltonian."""
    N = ops.N
    e0 = w[0]
    ground_idx = np.nonzero(w - e0 <= _DEGEN_RTOL * max(1.0, abs(e0)))[0]
    basis = v[:, ground_idx]
    if ground_idx.shape[0] > 1:
        # resolve the degenerate subspace along Sz
        sz_block = basis.conj().T @ ops.sz @ basis
        _, rot = np.linalg.eigh(sz_block)
        basis = basis @ rot
    members = []
    for col in range(basis.shape[1]):
        phi = basis[:, col]
        m_val = float(np.real(np.vdot(phi, ops.sz @ phi)))
        u = ops.sx @ phi
        proj = v.conj().T @ u
        weights = np.abs(proj) ** 2
        values = (4.0 / N**2) * (
            weights[None, :] @ np.exp(-1j * (w - e0)[:, None] * tgrid[None, :])
        )[0]
        members.append(
            (m_val, TimeSeries(t=tgrid, values=values, label="fN_full"))
        )
    members.sort(key=lambda pair: pair[0])
    return members


def full_space_correlation(N: int, h: float, tgrid) -> list[tuple[float, TimeSeries]]:
    """f_N(t) evaluated entirely in the 2^N space.

    Returns one (ground Sz expectation, series) pair per ground level,
    ascending in Sz.  A degenerate ground pair is resolved by diagonalizing
    Sz inside the ground eigenspace, which reproduces the sector-side
    magnetization members.
    """
    _check_correlation_size(N)
    ops = full_space_operators(N)
    w, v = np.linalg.eigh(full_hamiltonian(LmgParams(N=N, h=h), ops))
    return _correlation_members(ops, w, v, np.asarray(tgrid, dtype=np.float64))


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

    Covers the ground energy, the ground Sz expectation (per degenerate
    member), f_N(t) on a uniform grid over one collective period, and the
    order parameter of the kicked ground state.
    """
    from .evolve import correlation_fN
    from .ssb import default_kick

    _check_correlation_size(N)
    if g is None:
        g = default_kick(N)
    params = LmgParams(N=N, h=h)
    sector = build_sector(N)
    ops = full_space_operators(N)

    # ground energy, from the one solve of the free H that also feeds f_N(t)
    e0_sector = eigensystem(build_hamiltonian(params, sector)).ground_energy
    w, v = np.linalg.eigh(full_hamiltonian(params, ops))
    dev_energy = abs(e0_sector - float(w[0]))

    # ground Sz expectation, matched member by member
    tgrid = np.arange(samples) * (2.0 * math.pi * N / samples)
    full_members = _correlation_members(ops, w, v, tgrid)
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
    localized = localize_ground_state(params, g=g)
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
