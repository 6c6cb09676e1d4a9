"""Symmetry-breaking state preparation, order parameters, degenerate
perturbation theory, and the exponentially small tunneling gap at gamma = 0.

The kick convention is V = -g * S_n with n = (cos phi_n, sin phi_n, 0);
positive g localizes the polarization along +n, and exponentially small
quantities are carried in log space with their sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolve import _free_level_ground, _parity_blocks, eigensystem, ground_state
from .model import LmgParams, build_hamiltonian, ground_M
from .spinspace import SpinSector, _check_state, build_sector, ladder_plus_band

# the largest N of gamma0_gap_scan, whose dense solves grow as N^3
MAX_GAP_SCAN_N = 2000


@dataclass(frozen=True, eq=False)
class LocalizedState:
    """Perturbed ground state together with its energy cost and polarization."""

    state: np.ndarray
    delta_e: float
    m_n: float
    energy: float
    unperturbed_ground_energy: float


def default_kick(N: int) -> float:
    """Default symmetry-breaking field strength g = 1/N^2."""
    return 1.0 / N**2


def order_parameter(psi, phi_n: float, N: int) -> float:
    """In-plane polarization m_n = (2/N) <Sx cos phi_n + Sy sin phi_n>.

    As <Sx> + i <Sy> = <S+>, this is (2/N) Re(exp(-i phi_n) <S+>), with
    <S+> = sum_m conj(psi_m) a_m psi_(m+1) over the ``ladder_plus_band``
    elements a_m.
    """
    sector = build_sector(N)
    amps = _check_state(psi, sector.dim)
    s_plus = np.vdot(amps[:-1], ladder_plus_band(sector) * amps[1:])
    return 2.0 / N * (complex(math.cos(phi_n), -math.sin(phi_n)) * s_plus).real


def localize_ground_state(
    params: LmgParams, g: float | None = None, phi_n: float = 0.0
) -> LocalizedState:
    """Ground state of H + V under the instantaneous kick V = -g S_n.

    Reports the energy elevation above the unperturbed ground state,
    delta_e = <psi|H|psi> - E0(H), and the order parameter along n.
    delta_e is summed as sum_k |b_k|^2 (E_k - E0) over the levels of H,
    b_k = <k|psi>: no two O(N) energies cancel, and what rounding remains
    is that of the gaps E_k - E0, which at gamma = 1 are differences of
    diagonal entries and rounded once.
    The free H is solved once, and the kicked ground state comes from its
    lowest levels, certified or else solved whole (``_free_level_ground``);
    at gamma = 1 those levels are a window of Sz rows.  With g = 0 this is
    level 0 of the free solve, the exact ground state with m_n = 0.
    """
    if g is None:
        g = default_kick(params.N)
    sector = build_sector(params.N)
    free = eigensystem(build_hamiltonian(params, sector))
    if g == 0.0:
        energy, psi = free.ground_energy, ground_state(free)
    else:
        kicked = build_hamiltonian(params, sector, g=g, phi_n=phi_n)
        energy, psi = _free_level_ground(kicked, free)
    b = free.to_energy_basis(psi)
    delta_e = float(np.sum(np.abs(b) ** 2 * (free.energies - free.ground_energy)))
    return LocalizedState(
        state=psi,
        delta_e=delta_e,
        m_n=order_parameter(psi, phi_n, params.N),
        energy=energy,
        unperturbed_ground_energy=free.ground_energy,
    )


@dataclass(frozen=True, eq=False)
class DegeneratePtGap:
    """First-order splitting of a degenerate crescent ground pair."""

    sx_updown: float
    epsilon_plus: float
    epsilon_minus: float
    splitting: float
    mixed_states: tuple[np.ndarray, np.ndarray]


def degenerate_pt_gap(sector: SpinSector, h: float, g: float) -> DegeneratePtGap:
    """Degenerate perturbation theory for V = -g Sx on a crescent ground pair.

    The pair differs by one unit of magnetization, so X = <up|Sx|down> is
    nonzero and the kick opens a splitting 2 g X with eigenvalues +-g X and
    the symmetric / antisymmetric mixtures as eigenstates (for g > 0 the
    symmetric one is lower).
    """
    n = sector.N
    ground = ground_M(n, h)
    if not ground.degenerate:
        raise ValueError(
            f"ground state at N={n}, h={h} is not degenerate; "
            "degenerate perturbation theory needs a crescent pair"
        )
    m_lo, m_hi = ground.levels
    two_lo, two_hi = round(2 * m_lo), round(2 * m_hi)
    idx_lo = (n - two_lo) // 2
    idx_hi = (n - two_hi) // 2
    ts = np.int64(n)
    # <up|Sx|down> = sqrt(S(S+1) - M_lo M_hi)/2 with the doubled-integer
    # Casimir combination under the root carrying an extra factor 4
    x = math.sqrt(float(ts * (ts + 2) - np.int64(two_lo) * np.int64(two_hi))) / 4.0
    mixed = []
    for sign in (+1.0, -1.0):
        amps = np.zeros(sector.dim, dtype=np.complex128)
        amps[idx_lo] = 1.0 / math.sqrt(2.0)
        amps[idx_hi] = sign / math.sqrt(2.0)
        mixed.append(_check_state(amps, sector.dim))
    return DegeneratePtGap(
        sx_updown=x,
        epsilon_plus=g * x,
        epsilon_minus=-g * x,
        splitting=2.0 * g * x,
        mixed_states=tuple(mixed),
    )


@dataclass(frozen=True)
class GapResult:
    """Overlap scale of the two gamma = 0 mean-field wells.

    The overlap of the oppositely rotated maximal-weight states is the
    top-corner rotation element (cos theta0)^N = h^N, evaluated in log space;
    alpha carries the well-depth prefactor (1 + h^2)/4 and ``gap`` is
    2 alpha.  This is not the tunneling splitting: the exact lowest-pair
    splitting decays at ``wkb_rate(h)``, slower than the overlap rate
    ``c_h`` = -ln h, so 2 alpha falls ever further below it as N grows.
    ``boundary`` flags the h = 0 and h = 1 edge cases.
    """

    alpha: float
    log_alpha: float
    gap: float
    theta0: float
    c_h: float
    boundary: str | None = None


def newman_alpha(N: int, h: float) -> GapResult:
    """Overlap scale alpha of the two mean-field wells at gamma = 0.

    alpha = ((1 + h^2)/4) h^N decays as exp(-N ln(1/h)), the rate of the
    well overlap h^N; the prefactor is the magnitude of the well energy per
    spin.  It underestimates the lowest-pair splitting, which decays at the
    instanton rate ``wkb_rate(h)`` < -ln h.
    """
    if not 0.0 <= h <= 1.0:
        raise ValueError("need 0 <= h <= 1")
    if h == 0.0:
        return GapResult(
            alpha=0.0,
            log_alpha=-math.inf,
            gap=0.0,
            theta0=math.pi / 2.0,
            c_h=math.inf,
            boundary="h=0",
        )
    prefactor = (1.0 + h * h) / 4.0
    log_alpha = math.log(prefactor) + N * math.log(h)
    alpha = math.exp(log_alpha) if log_alpha > -745.0 else 0.0
    boundary = "h=1" if h == 1.0 else None
    return GapResult(
        alpha=alpha,
        log_alpha=log_alpha,
        gap=2.0 * alpha,
        theta0=math.acos(h),
        c_h=0.0 - math.log(h),  # +0.0 at h = 1
        boundary=boundary,
    )


def wkb_rate(h: float) -> float:
    """Instanton rate c(h) = arccosh(1/h) - sqrt(1 - h^2) of the gamma = 0 splitting.

    The lowest-pair splitting of the per-spin gamma = 0 Hamiltonian decays
    as exp(-c(h) N) up to a power-law prefactor in N.  With x = sqrt(1 - h^2),
    c(h) = -ln h - (x - ln(1 + x)), so c(h) < -ln h for 0 < h < 1 and
    c(h) ~ x^3/3 near h = 1.  Returns inf at h = 0 and 0 at h = 1.
    """
    if not 0.0 <= h <= 1.0:
        raise ValueError("need 0 <= h <= 1")
    if h == 0.0:
        return math.inf
    return math.acosh(1.0 / h) - math.sqrt(1.0 - h * h)


@dataclass(frozen=True)
class TwoWellEigenvalues:
    epsilon_plus: float
    epsilon_minus: float
    crossover_g: float


def two_well_eigenvalues(alpha: float, g: float, h: float) -> TwoWellEigenvalues:
    """Two-well eigenvalues +-sqrt(alpha^2 + g^2 (1 - h^2)/4).

    The crossover scale g* = 2 alpha / sqrt(1 - h^2) separates the
    tunneling-dominated regime from the field-split regime.
    """
    eps = math.sqrt(alpha * alpha + g * g * (1.0 - h * h) / 4.0)
    if h < 1.0:
        crossover = 2.0 * alpha / math.sqrt(1.0 - h * h)
    else:
        crossover = math.inf
    return TwoWellEigenvalues(
        epsilon_plus=eps, epsilon_minus=-eps, crossover_g=crossover
    )


def gamma0_gap_scan(N_list, h: float) -> list[tuple[int, float]]:
    """Lowest-pair splitting of the per-spin gamma = 0 Hamiltonian vs N.

    Takes the eigenvalues alone of H_N = -Sx^2/N^2 - h Sz/N for each N,
    from its even-m and odd-m parity blocks, built from the bands
    (``evolve._parity_blocks``) and solved by ``numpy.linalg.eigvalsh``;
    the per-spin normalization keeps the spectrum O(1).  For 0 < h < 1
    the splittings decay at ``wkb_rate(h)``, well above the overlap 2 alpha from
    ``newman_alpha``.  Splittings below roughly 1e3 * eps * |H| are
    double-precision noise, not physics.
    """
    results = []
    for n in N_list:
        n = int(n)
        if n > MAX_GAP_SCAN_N:
            raise ValueError(f"gap scan supports N <= {MAX_GAP_SCAN_N}")
        op = build_hamiltonian(LmgParams(N=n, h=h, gamma=0.0), build_sector(n))
        per_spin = [np.linalg.eigvalsh(b * (1.0 / n)) for b in _parity_blocks(op)]
        levels = np.sort(np.concatenate(per_spin))
        results.append((n, float(levels[1] - levels[0])))
    return results
