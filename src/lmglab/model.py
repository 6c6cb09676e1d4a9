"""LMG Hamiltonians, analytic spectra and trial localized states.

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
    BandedHermitianOperator,
    _check_state,
    build_sector,
    ladder_plus_band,
)

# energies equal within this relative tolerance count as a degenerate pair
DEGENERACY_RTOL = 1e-12
LAM = -1.0  # the coupling lambda: ferromagnetic, fixed


@dataclass(frozen=True)
class LmgParams:
    """Couplings of the LMG Hamiltonian."""

    N: int
    h: float
    gamma: float = 1.0

    def __post_init__(self):
        build_sector(self.N)  # ValueError unless N is a positive integer
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.h < 0.0:
            raise ValueError("h must be >= 0")


def build_hamiltonian(
    params: LmgParams, g: float = 0.0, phi_n: float = 0.0
) -> BandedHermitianOperator:
    """Assemble H = (LAM/N)(Sx^2 + gamma Sy^2) - h Sz - g (Sx cos + Sy sin) band-wise.

    The bands come from ladder-operator algebra directly:
    Sx^2 + gamma Sy^2 = (1+gamma)/2 * (S(S+1) - Sz^2)  on the diagonal plus
    (1-gamma)/4 * (S+^2 + S-^2) two off.  Bandwidth is 2 when gamma < 1,
    1 when gamma = 1 and g != 0, and 0 for the isotropic unperturbed case.
    """
    sector = build_sector(params.N)
    n = sector.N
    ts = np.int64(n)
    tm = sector.two_m
    casimir_minus_m2 = (ts * (ts + 2) - tm * tm) / 4.0  # S(S+1) - M^2, exact
    diag = (LAM / n) * ((1.0 + params.gamma) / 2.0) * casimir_minus_m2
    diag = diag - params.h * (tm / 2.0)
    diags: dict[int, np.ndarray] = {0: diag}
    a = ladder_plus_band(n) if g != 0.0 or params.gamma != 1.0 else None
    if g != 0.0:
        diags[1] = (-0.5 * g * np.exp(-1j * phi_n)) * a
    if params.gamma != 1.0:
        diags[2] = (LAM / n) * ((1.0 - params.gamma) / 4.0) * a[:-1] * a[1:]
    return BandedHermitianOperator(sector.dim, diags)


def isotropic_energies(N: int, h: float) -> np.ndarray:
    """E(S, M) = -[S(S+1) - M^2]/N - h M for every basis index, gamma = 1."""
    sector = build_sector(N)
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
    sector = build_sector(N)
    energies = isotropic_energies(sector.N, h)
    e_min = energies.min()
    tol = DEGENERACY_RTOL * max(1.0, abs(e_min))
    ties = np.nonzero(energies - e_min <= tol)[0]
    levels = tuple(sorted(sector.two_m[i] / 2.0 for i in ties))
    m0 = min(levels, key=lambda m: (abs(m), m))
    return GroundLevel(m0=m0, levels=levels, degenerate=len(levels) > 1)


@dataclass(frozen=True, eq=False)
class TrialState:
    """Near-ground trial state and its exact energy elevation."""

    state: np.ndarray
    m0: float
    delta_e: float
    degenerate_ground: bool


def trial_localized_state(N: int, h: float) -> TrialState:
    """Three-level trial state mimicking a symmetry-broken ground state.

    Weights sqrt(1 - 2/N), 1/sqrt(N), 1/sqrt(N) go on the isotropic ground
    level M0 and its two magnetization neighbors.  The energy elevation is
    (gap_up + gap_down)/N = 2/N^2 independent of h; it is computed from the
    neighbor gaps directly so the value is exact to rounding.  ``ground_M``
    raises ValueError unless N is a positive integer.
    """
    if h >= 1.0:
        raise ValueError("trial state is defined in the broken phase (h < 1)")
    ground, n = ground_M(N, h), int(N)
    if n < 3:
        raise ValueError("need N >= 3 for the three-level trial state")
    two_m0 = ground.two_m0
    idx0 = (n - two_m0) // 2  # index with M(m) = M0
    if idx0 < 1 or idx0 > n - 1:
        raise ValueError(
            "ground magnetization sits at the sector edge "
            "(h within 1/N of the critical point); trial state undefined"
        )
    gap_up = isotropic_gap(n, two_m0 + 2, two_m0, h)
    gap_down = isotropic_gap(n, two_m0 - 2, two_m0, h)
    amps = np.zeros(n + 1, dtype=np.complex128)
    amps[idx0] = math.sqrt(1.0 - 2.0 / n)
    amps[idx0 - 1] = 1.0 / math.sqrt(n)
    amps[idx0 + 1] = 1.0 / math.sqrt(n)
    return TrialState(
        state=_check_state(amps, n + 1),
        m0=ground.m0,
        delta_e=(gap_up + gap_down) / n,
        degenerate_ground=ground.degenerate,
    )


def lifetime_bound(delta_e: float, N: int) -> float:
    """Uncertainty-relation lifetime N/(2 dE); equals N^3/4 at dE = 2/N^2."""
    if delta_e <= 0.0:
        raise ValueError("delta_e must be positive")
    return N / (2.0 * delta_e)
