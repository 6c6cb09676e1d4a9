"""LMG Hamiltonians, analytic spectra, mean-field and trial localized states.

The model is H = (lambda/N)(Sx^2 + gamma*Sy^2) - h*Sz on the S = N/2 sector,
with lambda = -1 (ferromagnetic) throughout.  A symmetry-breaking kick enters
as V = -g*S_n with n = (cos phi_n, sin phi_n, 0); positive g localizes the
in-plane polarization along +n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spinspace import (
    SZ_BASIS,
    BandedHermitianOperator,
    SpinSector,
    StateVector,
    basis_state,
    build_sector,
    ladder_plus_band,
)

BROKEN = "broken"
SYMMETRIC = "symmetric"

# energies equal within this relative tolerance count as a degenerate pair
DEGENERACY_RTOL = 1e-12


class NumericError(RuntimeError):
    """An iterative numeric procedure failed to converge or bracket."""


@dataclass(frozen=True)
class LmgParams:
    """Couplings of the LMG Hamiltonian."""

    N: int
    h: float
    gamma: float = 1.0
    lam: float = -1.0

    def __post_init__(self):
        if isinstance(self.N, bool) or not isinstance(self.N, (int, np.integer)):
            raise ValueError("N must be an integer")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.h < 0.0:
            raise ValueError("h must be >= 0")

    @property
    def phase(self) -> str:
        return BROKEN if self.h < 1.0 else SYMMETRIC


@dataclass(frozen=True)
class MeanFieldAngles:
    """Bloch angles of a coherent spin state, <S> = (N/2)(sin t cos p, sin t sin p, cos t)."""

    theta: float
    phi: float


def build_hamiltonian(
    params: LmgParams,
    sector: SpinSector,
    g: float = 0.0,
    phi_n: float = 0.0,
) -> BandedHermitianOperator:
    """Assemble H = (lam/N)(Sx^2 + gamma Sy^2) - h Sz - g (Sx cos + Sy sin) band-wise.

    The bands come from ladder-operator algebra directly:
    Sx^2 + gamma Sy^2 = (1+gamma)/2 * (S(S+1) - Sz^2)  on the diagonal plus
    (1-gamma)/4 * (S+^2 + S-^2) two off.  Bandwidth is 2 when gamma < 1,
    1 when gamma = 1 and g != 0, and 0 for the isotropic unperturbed case.
    """
    if sector.N != params.N:
        raise ValueError("sector and params disagree on N")
    n = sector.N
    ts = np.int64(n)
    tm = sector.two_m
    casimir_minus_m2 = (ts * (ts + 2) - tm * tm) / 4.0  # S(S+1) - M^2, exact
    diag = (params.lam / n) * ((1.0 + params.gamma) / 2.0) * casimir_minus_m2
    diag = diag - params.h * (tm / 2.0)
    diags: dict[int, np.ndarray] = {0: diag.astype(np.complex128)}
    a = ladder_plus_band(sector)
    if g != 0.0:
        diags[1] = (-0.5 * g * np.exp(-1j * phi_n)) * a
    if params.gamma != 1.0:
        diags[2] = (
            (params.lam / n) * ((1.0 - params.gamma) / 4.0) * a[:-1] * a[1:]
        ).astype(np.complex128)
    return BandedHermitianOperator(sector.dim, diags)


def isotropic_energies(sector: SpinSector, h: float) -> np.ndarray:
    """E(S, M) = -[S(S+1) - M^2]/N - h M for every basis index, gamma = 1."""
    ts = np.int64(sector.N)
    tm = sector.two_m
    return -(ts * (ts + 2) - tm * tm) / (4.0 * sector.N) - h * (tm / 2.0)


def isotropic_gap(
    N: int, two_m: int | np.ndarray, two_m0: int, h: float
) -> float | np.ndarray:
    """E(M) - E(M0) formed from small quantities; ``two_m`` may be an array.

    Written as (M - M0) * ((M + M0)/N - h) so that nearby-level gaps never
    suffer the cancellation of subtracting two O(N) energies.
    """
    return ((two_m - two_m0) / 2.0) * ((two_m + two_m0) / (2.0 * N) - h)


@dataclass(frozen=True)
class GroundLevel:
    """Ground magnetization of the isotropic model.

    ``m0`` is the tie-broken representative (lower |M|, then lower M);
    ``levels`` lists the one or two degenerate M values ascending.
    """

    m0: float
    levels: tuple[float, ...]
    degenerate: bool

    @property
    def two_m0(self) -> int:
        return round(2 * self.m0)


def ground_M(N: int, h: float) -> GroundLevel:
    """Magnetization minimizing E(S, M) over the full M lattice.

    Implemented as a brute argmin; a degenerate pair (energies equal within
    DEGENERACY_RTOL) is reported through ``levels`` and ``degenerate``.
    For h >= 1 the minimum sits at the edge M = N/2.
    """
    if h < 0.0:
        raise ValueError("h must be >= 0")
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError("N must be a positive integer")
    sector = build_sector(int(N))
    energies = isotropic_energies(sector, h)
    i_min = int(np.argmin(energies))
    e_min = energies[i_min]
    tol = DEGENERACY_RTOL * max(1.0, abs(e_min))
    ties = np.nonzero(energies - e_min <= tol)[0]
    levels = tuple(sorted(sector.two_m[i] / 2.0 for i in ties))
    m0 = min(levels, key=lambda m: (abs(m), m))
    return GroundLevel(m0=m0, levels=levels, degenerate=len(levels) > 1)


def mean_field_state(sector: SpinSector, angles: MeanFieldAngles) -> StateVector:
    """Dicke-sector amplitudes of the product coherent state |theta, phi>.

    c_m = sqrt(C(N, m)) cos(theta/2)^(N-m) sin(theta/2)^m e^{i phi (m - N/2)},
    evaluated in log space so N up to a few thousand stays finite.
    """
    n = sector.N
    theta = angles.theta
    phi = angles.phi
    ct = math.cos(theta / 2.0)
    st = math.sin(theta / 2.0)
    m = np.arange(n + 1)
    if st == 0.0:
        return basis_state(sector.dim, 0)
    if ct == 0.0:
        amps = np.zeros(sector.dim, dtype=np.complex128)
        amps[n] = np.exp(1j * phi * (n - n / 2.0))
        return StateVector(basis=SZ_BASIS, amplitudes=amps)
    ln_binom = (
        math.lgamma(n + 1)
        - np.array([math.lgamma(k + 1) + math.lgamma(n - k + 1) for k in m])
    )
    log_mag = 0.5 * ln_binom + (n - m) * math.log(abs(ct)) + m * math.log(abs(st))
    signs = np.sign(ct) ** (n - m) * np.sign(st) ** m
    amps = signs * np.exp(log_mag) * np.exp(1j * phi * (m - n / 2.0))
    amps = amps / np.linalg.norm(amps)
    return StateVector(basis=SZ_BASIS, amplitudes=amps)


def mean_field_energy(angles: MeanFieldAngles, h: float, g: float, N: int) -> float:
    """Variational energy -N/4 (sin^2 t + 2h cos t + 2g sin t cos p)."""
    st = math.sin(angles.theta)
    ct = math.cos(angles.theta)
    return -0.25 * N * (st * st + 2.0 * h * ct + 2.0 * g * st * math.cos(angles.phi))


def _bisect(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise NumericError(f"no sign change on bracket [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def mean_field_minimize(h: float, g: float) -> MeanFieldAngles:
    """Stationary angles of the variational energy in the broken phase.

    Solves sin t (cos t - h) + g cos t = 0 on the phi = 0 branch by bracketed
    bisection to 1e-12; the g -> 0 limit is theta = arccos h.
    """
    if not 0.0 <= h < 1.0:
        raise ValueError("broken phase requires 0 <= h < 1")
    if g < 0.0:
        raise ValueError("g must be >= 0")
    theta_mf = math.acos(h)
    if g == 0.0:
        return MeanFieldAngles(theta=theta_mf, phi=0.0)

    def f(t):
        return math.sin(t) * (math.cos(t) - h) + g * math.cos(t)

    theta = _bisect(f, theta_mf, math.pi / 2.0)
    return MeanFieldAngles(theta=theta, phi=0.0)


@dataclass(frozen=True)
class TrialState:
    """Near-ground trial state and its exact energy elevation."""

    state: StateVector
    m0: float
    delta_e: float
    degenerate_ground: bool


def trial_localized_state(sector: SpinSector, h: float) -> TrialState:
    """Three-level trial state mimicking a symmetry-broken ground state.

    Weights sqrt(1 - 2/N), 1/sqrt(N), 1/sqrt(N) go on the isotropic ground
    level M0 and its two magnetization neighbors.  The energy elevation is
    (gap_up + gap_down)/N = 2/N^2 independent of h; it is computed from the
    neighbor gaps directly so the value is exact to rounding.
    """
    n = sector.N
    if h >= 1.0:
        raise ValueError("trial state is defined in the broken phase (h < 1)")
    if n < 3:
        raise ValueError("need N >= 3 for the three-level trial state")
    ground = ground_M(n, h)
    two_m0 = ground.two_m0
    idx0 = (n - two_m0) // 2  # index with M(m) = M0
    if idx0 < 1 or idx0 > n - 1:
        raise ValueError(
            "ground magnetization sits at the sector edge "
            "(h within 1/N of the critical point); trial state undefined"
        )
    gap_up = isotropic_gap(n, two_m0 + 2, two_m0, h)
    gap_down = isotropic_gap(n, two_m0 - 2, two_m0, h)
    amps = np.zeros(sector.dim, dtype=np.complex128)
    amps[idx0] = math.sqrt(1.0 - 2.0 / n)
    amps[idx0 - 1] = 1.0 / math.sqrt(n)
    amps[idx0 + 1] = 1.0 / math.sqrt(n)
    state = StateVector(basis=SZ_BASIS, amplitudes=amps)
    return TrialState(
        state=state,
        m0=ground.m0,
        delta_e=(gap_up + gap_down) / n,
        degenerate_ground=ground.degenerate,
    )


def lifetime_bound(delta_e: float, N: int) -> float:
    """Uncertainty-relation lifetime N/(2 dE); equals N^3/4 at dE = 2/N^2."""
    if delta_e <= 0.0:
        raise ValueError("delta_e must be positive")
    return N / (2.0 * delta_e)
