"""Diagonalization, exact propagation, projected analytic dynamics, and the
ground-state correlation function.

Sector Hamiltonians are diagonalized in full by LAPACK (``numpy.linalg.eigh``
on the dense (N+1)-dimensional matrix); diagonal ones need only a sort.
Evolution always goes through a full eigendecomposition: the frequencies of
interest are O(1/N) and the states live for O(N^3), so time stepping would
accumulate phase error where it hurts most.  Propagation uses the
e^{-iHt} phase convention.  When H is diagonal, an expectation value over a
time grid is a sum of Bohr lines, one per stored matrix element of the
observable, and no state is evolved; otherwise the state is evolved in the
eigenbasis over the grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ground_M, isotropic_energies, isotropic_gap
from .spinspace import (
    ENERGY_BASIS,
    SZ_BASIS,
    BandedHermitianOperator,
    SpinSector,
    StateVector,
    _readonly,
    collective_operators,
    ladder_plus_band,
)

_GRID_RTOL = 1e-9


def _check_grid(t: np.ndarray) -> None:
    """Raise ValueError unless t is a strictly increasing uniform grid."""
    if t.ndim != 1 or t.size < 2:
        raise ValueError("time grid needs at least two points")
    dt = np.diff(t)
    step = dt[0]
    if step <= 0.0 or np.any(np.abs(dt - step) > _GRID_RTOL * abs(step)):
        raise ValueError("time grid must be uniform and increasing")


@dataclass(frozen=True)
class TimeSeries:
    """Values sampled on a strictly increasing uniform time grid."""

    t: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64)
        _check_grid(t)
        object.__setattr__(self, "t", _readonly(t))
        object.__setattr__(self, "values", _readonly(np.asarray(self.values)))

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])


def default_time_grid(N: int, periods: float = 20.0, samples: int = 4096) -> np.ndarray:
    """Uniform grid covering ``periods`` periods of nu = 1/N (period 2*pi*N)."""
    t_max = periods * 2.0 * math.pi * N
    return np.arange(samples) * (t_max / samples)


@dataclass(frozen=True)
class EigenSystem:
    """Spectrum of a sector Hamiltonian in the Sz basis.

    ``energies`` ascend.  ``vectors`` holds orthonormal eigenvector
    columns.  When H was diagonal, ties keep their index order,
    ``permutation`` maps level k to its Sz basis index and every column is a
    coordinate vector.  ``Mk`` is <k|Sz|k> per level.
    """

    energies: np.ndarray
    vectors: np.ndarray
    Mk: np.ndarray
    permutation: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.energies.shape[0]

    @property
    def ground_energy(self) -> float:
        return float(self.energies[0])

    def to_energy_basis(self, amps: np.ndarray) -> np.ndarray:
        if self.permutation is not None:
            return amps[self.permutation]
        return self.vectors.conj().T @ amps

    def from_energy_basis(self, coeffs: np.ndarray) -> np.ndarray:
        if self.permutation is not None:
            out = np.empty_like(coeffs)
            out[self.permutation] = coeffs
            return out
        return self.vectors @ coeffs


def eigensystem(op: BandedHermitianOperator) -> EigenSystem:
    """Diagonalize a banded Hermitian sector operator.

    Diagonal input short-circuits to a sort plus permutation; banded input
    goes to LAPACK through one dense ``numpy.linalg.eigh`` call, which
    raises ``numpy.linalg.LinAlgError`` if it fails to converge.  The
    magnetization per level uses M(m) = (dim - 1)/2 - m of the universal
    descending ordering.
    """
    n = op.dim
    if op.bandwidth > 2:
        raise ValueError("expected bandwidth <= 2")
    m_values = (n - 1) / 2.0 - np.arange(n)
    off_band = any(
        off > 0 and np.any(diag != 0.0) for off, diag in op.diags.items()
    )
    if not off_band:
        diag = op.band(0).real
        perm = np.argsort(diag, kind="stable")
        vectors = np.zeros((n, n), dtype=np.complex128)
        vectors[perm, np.arange(n)] = 1.0
        return EigenSystem(
            energies=_readonly(diag[perm].copy()),
            vectors=_readonly(vectors),
            Mk=_readonly(m_values[perm].copy()),
            permutation=_readonly(perm),
        )
    w, v = np.linalg.eigh(op.to_dense())
    mk = (np.abs(v) ** 2 * m_values[:, None]).sum(axis=0)
    return EigenSystem(
        energies=_readonly(w),
        vectors=_readonly(np.ascontiguousarray(v)),
        Mk=_readonly(mk),
        permutation=None,
    )


def ground_state(eig: EigenSystem) -> StateVector:
    return StateVector(basis=SZ_BASIS, amplitudes=eig.vectors[:, 0].copy())


def propagate(eig: EigenSystem, psi0: StateVector, t: float) -> StateVector:
    """psi(t) = sum_k e^{-i E_k t} b_k |k>, b_k = <k|psi0>."""
    if psi0.dim != eig.dim:
        raise ValueError("dimension mismatch")
    if psi0.basis == ENERGY_BASIS:
        coeffs = psi0.amplitudes
    else:
        coeffs = eig.to_energy_basis(psi0.amplitudes)
    evolved = eig.from_energy_basis(np.exp(-1j * eig.energies * t) * coeffs)
    return StateVector(basis=SZ_BASIS, amplitudes=evolved)


def observable_series(
    eig: EigenSystem,
    psi0: StateVector,
    op,
    tgrid: np.ndarray,
    label: str = "",
) -> TimeSeries:
    """<psi(t)|op|psi(t)> on a uniform grid.

    When H was diagonal (``eig.permutation`` set), the series is a sum of
    Bohr lines, one per stored entry of ``op.bands``:
    <op>(t) = sum c_m^* op_{mn} c_n e^{i (E_m - E_n) t}.  The phases factor
    over the grid: with B = ceil(sqrt(T)) and t_{qB+r} = t_{qB} + (t_r - t_0),
    the series is one (Q x L) @ (L x B) product of phase blocks, L (Q + B)
    complex exponentials for L lines instead of (N + 1) T.

    Otherwise psi(t) is evolved in the eigenbasis over the grid.  Phases are
    formed from E_k - E_0; the dropped global phase cancels in every
    expectation value and keeps the phase arguments small.

    Raises ValueError on a dimension mismatch or a grid that is not uniform
    with at least two points, before any work.
    """
    if psi0.dim != eig.dim or op.dim != eig.dim:
        raise ValueError("dimension mismatch")
    tgrid = np.asarray(tgrid, dtype=np.float64)
    _check_grid(tgrid)
    if eig.permutation is not None:
        values = _line_sum(eig, psi0.amplitudes, op.bands, tgrid)
        return TimeSeries(t=tgrid, values=values, label=label)
    coeffs = eig.to_energy_basis(psi0.amplitudes)
    shifted = eig.energies - eig.energies[0]
    out = np.empty(tgrid.shape[0], dtype=np.complex128)
    chunk = max(1, (1 << 22) // eig.dim)
    for start in range(0, tgrid.shape[0], chunk):
        ts = tgrid[start : start + chunk]
        phases = np.exp(-1j * shifted[:, None] * ts[None, :])
        psi_t = eig.from_energy_basis(coeffs[:, None] * phases)
        out[start : start + ts.shape[0]] = np.einsum(
            "mt,mt->t", psi_t.conj(), op.apply(psi_t)
        )
    return TimeSeries(t=tgrid, values=out, label=label)


def _line_sum(eig: EigenSystem, amps, bands, tgrid: np.ndarray) -> np.ndarray:
    """Bohr-line sum of observable_series for a diagonal H."""
    dim = eig.dim
    energies = np.empty(dim)
    energies[eig.permutation] = eig.energies
    freqs = [np.zeros(0)]
    weights = [np.zeros(0, dtype=np.complex128)]
    for off, diag in bands.items():
        # entry (m, m + off) sits at diag[min(m, m + off)]
        lo = max(0, -off)
        rows = slice(lo, lo + diag.shape[0])
        cols = slice(lo + off, lo + off + diag.shape[0])
        weights.append(amps[rows].conj() * diag * amps[cols])
        freqs.append(energies[rows] - energies[cols])
    weights = np.concatenate(weights)
    freqs = np.concatenate(freqs)
    used = weights != 0.0
    weights, freqs = weights[used], freqs[used]
    T = tgrid.shape[0]
    B = math.isqrt(T - 1) + 1
    anchors = np.exp(1j * tgrid[::B, None] * freqs[None, :])
    offsets = np.exp(1j * freqs[:, None] * (tgrid[:B] - tgrid[0])[None, :])
    return (anchors @ (weights[:, None] * offsets)).ravel()[:T]


@dataclass(frozen=True)
class ProjectedMode:
    """One level's contribution to the in-plane polarization dynamics.

    Each mode oscillates with the universal frequency nu = 1/N entangled
    with its own omega_k = h - 2 M_k / N.
    """

    k: int
    Mk: float
    nu: float
    omega_k: float
    sx0: complex
    sy0: complex


def projected_init(
    psi0: StateVector, sector: SpinSector, h: float
) -> list[ProjectedMode]:
    """Initial mode amplitudes of a state under the isotropic Hamiltonian.

    Level k maps to a single Sz index m; its amplitudes collect the two
    coherences c_m^* c_{m+-1} weighted by the Sx / Sy matrix elements, with
    missing neighbors dropped at the sector edges.  Summing sx0 over all
    modes reproduces <Sx> at t = 0 exactly.
    """
    if psi0.basis != SZ_BASIS:
        raise ValueError("expected a state in the Sz basis")
    n = sector.N
    if psi0.dim != sector.dim:
        raise ValueError("dimension mismatch")
    energies = isotropic_energies(sector, h)
    perm = np.argsort(energies, kind="stable")
    c = psi0.amplitudes
    a = ladder_plus_band(sector)  # <m|S+|m+1>, m = 0..N-1
    m_values = sector.m_values
    modes = []
    for k in range(n + 1):
        m = int(perm[k])
        sx0 = 0.0j
        sy0 = 0.0j
        if m + 1 <= n:
            coh = np.conj(c[m]) * c[m + 1]
            sx0 += coh * (a[m] / 2.0)
            sy0 += coh * (-0.5j * a[m])
        if m - 1 >= 0:
            coh = np.conj(c[m]) * c[m - 1]
            sx0 += coh * (a[m - 1] / 2.0)
            sy0 += coh * (0.5j * a[m - 1])
        mk = m_values[m]
        modes.append(
            ProjectedMode(
                k=k,
                Mk=float(mk),
                nu=1.0 / n,
                omega_k=h - 2.0 * mk / n,
                sx0=complex(sx0),
                sy0=complex(sy0),
            )
        )
    return modes


def projected_solution(
    mode: ProjectedMode, tgrid: np.ndarray
) -> tuple[TimeSeries, TimeSeries]:
    """Closed-form mode dynamics.

    Sx_k(t) = e^{-i nu t} [Sx_k(0) cos(w_k t) + Sy_k(0) sin(w_k t)] and the
    Sy companion with the rotated sign pattern.
    """
    tgrid = np.asarray(tgrid, dtype=np.float64)
    envelope = np.exp(-1j * mode.nu * tgrid)
    cw = np.cos(mode.omega_k * tgrid)
    sw = np.sin(mode.omega_k * tgrid)
    sx = envelope * (mode.sx0 * cw + mode.sy0 * sw)
    sy = envelope * (mode.sy0 * cw - mode.sx0 * sw)
    return (
        TimeSeries(t=tgrid, values=sx, label=f"sx_k{mode.k}"),
        TimeSeries(t=tgrid, values=sy, label=f"sy_k{mode.k}"),
    )


def analytic_sum(
    modes: list[ProjectedMode], K: int, tgrid: np.ndarray
) -> tuple[TimeSeries, TimeSeries]:
    """Superposition of the projected modes k = 0..K (inclusive).

    With K equal to the level count the sum reproduces the exact <Sx(t)>,
    <Sy(t)> under the isotropic Hamiltonian.
    """
    n_max = len(modes) - 1
    if K > n_max:
        warnings.warn(
            f"cutoff K={K} exceeds the top level {n_max}; clamping",
            stacklevel=2,
        )
        K = n_max
    if K < 0:
        raise ValueError("cutoff must be >= 0")
    tgrid = np.asarray(tgrid, dtype=np.float64)
    sx = np.zeros(tgrid.shape[0], dtype=np.complex128)
    sy = np.zeros_like(sx)
    for mode in modes[: K + 1]:
        mx, my = projected_solution(mode, tgrid)
        sx += mx.values
        sy += my.values
    return (
        TimeSeries(t=tgrid, values=sx, label=f"sx_sum_K{K}"),
        TimeSeries(t=tgrid, values=sy, label=f"sy_sum_K{K}"),
    )


@dataclass(frozen=True)
class CorrelationMember:
    """Correlation function built on one ground level (one M0)."""

    m0: float
    direct: TimeSeries
    closed_form: TimeSeries
    frequencies: tuple[float, ...]
    weights: tuple[float, ...]


@dataclass(frozen=True)
class CorrelationResult:
    nu: float
    members: tuple[CorrelationMember, ...]

    @property
    def degenerate(self) -> bool:
        return len(self.members) > 1


def correlation_fN(
    sector: SpinSector, h: float, tgrid: np.ndarray
) -> CorrelationResult:
    """Ground-state correlation of the order parameter, f_N(t) = <m_x(t) m_x(0)>.

    Two evaluations are returned per ground level: a direct spectral sum over
    every level reached by Sx|0>, and the closed form carrying one term per
    existing magnetization neighbor with ladder-element weights.  Both use
    gap arithmetic for the Bohr frequencies, so they may only differ through
    the weights and the term count.  A degenerate ground pair yields one
    member per level, ascending in M.
    """
    n = sector.N
    if h >= 1.0:
        raise ValueError("correlation function is defined in the broken phase")
    tgrid = np.asarray(tgrid, dtype=np.float64)
    ops = collective_operators(sector)
    ground = ground_M(n, h)
    members = []
    for m0_val in ground.levels:
        two_m0 = round(2 * m0_val)
        idx0 = (n - two_m0) // 2
        amps = np.zeros(sector.dim, dtype=np.complex128)
        amps[idx0] = 1.0
        u = ops.sx.apply(amps)
        # direct route: sum over every level, weights from the matvec
        gaps = isotropic_gap(n, sector.two_m, two_m0, h)
        weights_all = np.abs(u) ** 2
        direct = (4.0 / n**2) * (
            weights_all[None, :] @ np.exp(-1j * gaps[:, None] * tgrid[None, :])
        )[0]
        # closed form: one term per existing neighbor, ladder-element weights
        freqs = []
        weights = []
        closed = np.zeros(tgrid.shape[0], dtype=np.complex128)
        for step in (+1, -1):
            two_m1 = two_m0 + 2 * step
            if abs(two_m1) > n:
                continue
            ts64 = np.int64(n)
            # |<m0 | Sx | m0 -+ 1>|^2 = [S(S+1) - M0 M1] / 4
            w = float(ts64 * (ts64 + 2) - np.int64(two_m0) * np.int64(two_m1)) / 16.0
            gap = isotropic_gap(n, two_m1, two_m0, h)
            freqs.append(gap)
            weights.append(w)
            closed += w * np.exp(-1j * gap * tgrid)
        closed *= 4.0 / n**2
        members.append(
            CorrelationMember(
                m0=m0_val,
                direct=TimeSeries(t=tgrid, values=direct, label="fN_direct"),
                closed_form=TimeSeries(t=tgrid, values=closed, label="fN_closed"),
                frequencies=tuple(freqs),
                weights=tuple(weights),
            )
        )
    return CorrelationResult(nu=1.0 / n, members=tuple(members))


def mean_field_ode(
    init: tuple[float, float, float],
    h: float,
    N: int,
    tgrid: np.ndarray,
) -> tuple[TimeSeries, TimeSeries, TimeSeries]:
    """Classical precession equations integrated with fixed-step RK4.

    dSx/dt = -(2 Sz/N - h) Sy, dSy/dt = (2 Sz/N - h) Sx, dSz/dt = 0.
    One RK4 step per grid interval, global error O(dt^4).
    """
    tgrid = np.asarray(tgrid, dtype=np.float64)
    y = np.array(init, dtype=np.float64)

    def rhs(state):
        omega = 2.0 * state[2] / N - h
        return np.array([-omega * state[1], omega * state[0], 0.0])

    out = np.empty((tgrid.shape[0], 3))
    out[0] = y
    for i in range(tgrid.shape[0] - 1):
        dt = tgrid[i + 1] - tgrid[i]
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = y
    return tuple(
        TimeSeries(t=tgrid, values=out[:, j].copy(), label=lbl)
        for j, lbl in enumerate(("sx_mf", "sy_mf", "sz_mf"))
    )
